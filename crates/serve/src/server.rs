//! The concurrent analysis server.
//!
//! Threading model:
//!
//! * **Acceptor** — non-blocking accept loop; spawns one reader thread per
//!   connection and never does request work itself.
//! * **Connection readers** — decode JSON lines, answer `stats` and
//!   `shutdown` inline (so observability and drain work even under a full
//!   queue), and [`try_push`](crate::queue::BoundedQueue::try_push) every
//!   other request: a full queue yields an immediate typed `overloaded`
//!   error instead of blocking.
//! * **Workers** — a fixed pool popping the bounded queue and running
//!   [`handlers::execute`].
//! * **Watchdog** — scans pending requests every few milliseconds and
//!   answers expired ones with `deadline_exceeded`; the response-once flag
//!   keeps a late worker from double-answering.
//!
//! Shutdown is graceful: the flag flips first (new work is refused with
//! `shutting_down`), queued and in-flight jobs drain to completion, the
//! metrics snapshot is dumped (`--metrics-out`), and only then does the
//! `shutdown` request get its acknowledgement.

use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use localwm_engine::Parallelism;
use localwm_store::DesignStore;
use serde::{Serialize, Value};

use crate::bufpool::BufPool;
use crate::cache::ContextCache;
use crate::fault::{FaultAction, FaultInjector, FaultPlan, FiredFault, InjectionPoint};
use crate::handlers;
use crate::metrics::{Metrics, Outcome};
use crate::protocol::{
    line_too_long, linger_close, read_request_line, ErrorCode, LineRead, Request, RequestKind,
    Response, ServiceError,
};
use crate::queue::{BoundedQueue, PushError};
use crate::singleflight::coalescing_key;

/// Server configuration (the CLI's `localwm serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded job-queue depth; beyond it requests are rejected with
    /// `overloaded`.
    pub queue_depth: usize,
    /// Designs kept in the shared-context LRU cache.
    pub cache_cap: usize,
    /// Default per-request deadline applied when a request carries none.
    pub default_timeout_ms: Option<u64>,
    /// Dump the final metrics snapshot to this file on shutdown.
    pub metrics_out: Option<String>,
    /// Deterministic fault schedule, honored only when the crate is built
    /// with the `fault-inject` feature (ignored — with a warning — without
    /// it). See [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// Evict interactive sessions idle for longer than this; `None`
    /// disables idle eviction (sessions live until `close` or drain). An
    /// evicted session answers subsequent requests with a typed
    /// `session_expired` error.
    pub session_idle_ms: Option<u64>,
    /// Mount a durable [`DesignStore`] at this directory as a
    /// write-through tier under the context cache (`--store-dir`).
    /// Opt-in; `None` keeps the cache memory-only. Sessions are excluded:
    /// their held designs are mutable working state, not content-addressed
    /// artifacts.
    pub store_dir: Option<String>,
    /// Per-connection pipeline window: how many decoded requests may be in
    /// flight (accepted but not yet written back) before the connection's
    /// reader stops reading ahead. Responses always leave in request
    /// order, so the byte stream is identical to lockstep request/response
    /// at any window. `1` disables read-ahead entirely.
    pub pipeline_window: usize,
}

/// Default per-connection pipeline window (see
/// [`ServeConfig::pipeline_window`]).
pub const DEFAULT_PIPELINE_WINDOW: usize = 8;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            cache_cap: 8,
            default_timeout_ms: None,
            metrics_out: None,
            fault_plan: None,
            session_idle_ms: None,
            store_dir: None,
            pipeline_window: DEFAULT_PIPELINE_WINDOW,
        }
    }
}

/// Hard cap on concurrently open sessions; past it `open` answers with a
/// typed `overloaded` error.
const SESSION_CAP: usize = 64;

/// One held session plus its idle clock; the entry mutex serializes
/// cross-connection access to the same session id (one connection's
/// requests are already ordered by its reader thread).
struct SessionEntry {
    state: Mutex<(crate::session::SessionState, Instant)>,
}

struct Conn {
    stream: Mutex<TcpStream>,
    injector: Option<Arc<FaultInjector>>,
    /// Reusable encode buffers: checked out per response, cleared (not
    /// freed) on check-in, so a warm connection encodes without
    /// allocating.
    pool: BufPool,
    /// Ordered-writer state: responses carry the sequence number their
    /// request was read with and go on the wire strictly in that order,
    /// whatever order the workers finish in.
    order: Mutex<OrderState>,
    /// Signalled whenever `next_write` advances; the reader waits on it
    /// when the pipeline window is full.
    wrote: Condvar,
    /// Max requests in flight on this connection (`>= 1`).
    window: u64,
}

#[derive(Default)]
struct OrderState {
    /// Next sequence number to hand to a newly read request.
    next_seq: u64,
    /// Next sequence number allowed on the wire.
    next_write: u64,
    /// Completed responses waiting for their turn.
    parked: HashMap<u64, Outgoing>,
    /// Encoded responses already at their turn but held off the socket
    /// while later requests are still in flight (Nagle-style response
    /// coalescing): a pipelined burst then goes out as one vectored
    /// write instead of one syscall per response. Flushed as soon as
    /// the pipeline drains or `window` responses accumulate, so a
    /// lockstep client never waits on it.
    held: Vec<Vec<u8>>,
}

/// A completed response in the ordered-writer's terms.
enum Outgoing {
    /// Encoded wire bytes: a JSON line, newline included.
    Write(Vec<u8>),
    /// Injected torn write: fully encoded wire bytes of which only half
    /// go out before the socket dies.
    Partial(Vec<u8>),
    /// Injected dropped response: nothing goes on the wire, but ordering
    /// still advances so the pipeline never stalls behind it.
    Dropped,
}

impl Conn {
    fn new(stream: TcpStream, injector: Option<Arc<FaultInjector>>, window: u64) -> Conn {
        Conn {
            stream: Mutex::new(stream),
            injector,
            pool: BufPool::new(),
            order: Mutex::new(OrderState::default()),
            wrote: Condvar::new(),
            window: window.max(1),
        }
    }

    /// Reserves the next response slot for a request just read. Blocks
    /// while the pipeline window is full (backpressure: the reader stops
    /// reading ahead); returns `None` once the server stops, so reader
    /// threads never wedge on a window that will not drain.
    fn assign_seq(&self, stopped: &AtomicBool) -> Option<u64> {
        let mut st = self.order.lock().expect("order lock");
        while st.next_seq - st.next_write >= self.window {
            if stopped.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .wrote
                .wait_timeout(st, Duration::from_millis(20))
                .expect("order lock");
            st = guard;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        Some(seq)
    }

    /// Blocks until every response assigned a slot so far is on the wire,
    /// or the server stops.
    fn wait_written(&self, stopped: &AtomicBool) {
        let mut st = self.order.lock().expect("order lock");
        while st.next_write < st.next_seq && !stopped.load(Ordering::SeqCst) {
            let (guard, _) = self
                .wrote
                .wait_timeout(st, Duration::from_millis(20))
                .expect("order lock");
            st = guard;
        }
    }

    /// The response's JSON line plus newline, encoded straight into a
    /// pooled buffer.
    fn encode(&self, resp: &Response) -> Vec<u8> {
        let mut line = String::from_utf8(self.pool.checkout()).expect("pooled buffers are empty");
        resp.write_json(&mut line);
        line.push('\n');
        line.into_bytes()
    }

    fn send(&self, seq: u64, resp: &Response) {
        if let Some(inj) = &self.injector {
            match inj.check(InjectionPoint::SockWrite) {
                Some(FaultAction::DropResponse) => {
                    // Simulated write error: the response vanishes, but its
                    // slot is consumed so later responses still flow.
                    self.complete(seq, Outgoing::Dropped);
                    return;
                }
                Some(FaultAction::PartialWrite) => {
                    // A torn write: a prefix of the encoded response goes
                    // out (at its ordered turn), then the connection dies
                    // mid-response.
                    self.complete(seq, Outgoing::Partial(self.encode(resp)));
                    return;
                }
                _ => {}
            }
        }
        let buf = self.encode(resp);
        self.complete(seq, Outgoing::Write(buf));
    }

    /// Hands a completed response to the ordered writer. If `seq` is next
    /// on the wire, this thread stages it — plus every consecutively
    /// parked successor — and flushes the staged bytes in one vectored
    /// write once no earlier request is still in flight; otherwise it
    /// parks until the earlier responses land.
    fn complete(&self, seq: u64, out: Outgoing) {
        let mut st = self.order.lock().expect("order lock");
        if seq != st.next_write {
            st.parked.insert(seq, out);
            return;
        }
        let mut ready = vec![out];
        st.next_write += 1;
        loop {
            let turn = st.next_write;
            let Some(next) = st.parked.remove(&turn) else {
                break;
            };
            ready.push(next);
            st.next_write += 1;
        }
        // Seqs are assigned only after a request is fully read, so every
        // in-flight seq completes without further client input — holding
        // bytes until the pipeline drains cannot deadlock a waiting
        // client. Writing under the order lock is what keeps the byte
        // stream in request order; the window bounds how much can ever
        // be held, so the hold time stays short.
        let drained = st.next_write == st.next_seq;
        self.write_batch(&mut st, ready, drained);
        self.wrote.notify_all();
    }

    fn write_batch(&self, st: &mut OrderState, ready: Vec<Outgoing>, drained: bool) {
        for out in ready {
            match out {
                Outgoing::Write(buf) => st.held.push(buf),
                Outgoing::Dropped => {}
                Outgoing::Partial(wire) => {
                    // Flush everything ahead of the torn response, then
                    // write half of it and kill the socket.
                    let mut stream = self.stream.lock().expect("conn lock");
                    self.flush_batch(&mut stream, &mut st.held);
                    let half = wire.len() / 2;
                    let _ = stream
                        .write_all(&wire[..half])
                        .and_then(|()| stream.flush());
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        // Holdback: with later requests still in flight their responses
        // are due shortly, so keep accumulating (up to one window) and
        // pay one syscall for the burst instead of one per response.
        if st.held.is_empty() || (!drained && (st.held.len() as u64) < self.window) {
            return;
        }
        let mut stream = self.stream.lock().expect("conn lock");
        self.flush_batch(&mut stream, &mut st.held);
    }

    /// One vectored write + flush for a batch of encoded responses; write
    /// errors are ignored (a dead peer is not a server error). Buffers
    /// return to the pool.
    fn flush_batch(&self, stream: &mut TcpStream, batch: &mut Vec<Vec<u8>>) {
        match batch.as_slice() {
            [] => return,
            [line] => {
                let _ = stream.write_all(line).and_then(|()| stream.flush());
            }
            lines => {
                let _ = write_all_vectored(stream, lines).and_then(|()| stream.flush());
            }
        }
        for buf in batch.drain(..) {
            self.pool.checkin(buf);
        }
    }
}

/// `write_all` across many buffers in as few syscalls as the platform
/// allows: each round offers every remaining slice to `write_vectored`.
fn write_all_vectored(stream: &mut TcpStream, parts: &[Vec<u8>]) -> io::Result<()> {
    let mut i = 0;
    let mut off = 0;
    while i < parts.len() {
        let mut slices = Vec::with_capacity(parts.len() - i);
        slices.push(IoSlice::new(&parts[i][off..]));
        slices.extend(parts[i + 1..].iter().map(|p| IoSlice::new(p)));
        let mut n = stream.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        while i < parts.len() && n >= parts[i].len() - off {
            n -= parts[i].len() - off;
            i += 1;
            off = 0;
        }
        off += n;
    }
    Ok(())
}

struct JobState {
    id: Option<u64>,
    kind: RequestKind,
    /// The connection-local sequence number of the request, consumed by
    /// the ordered writer when the response (or its injected absence)
    /// goes out.
    seq: u64,
    deadline: Option<Instant>,
    responded: AtomicBool,
    started: Instant,
}

struct Job {
    req: Request,
    conn: Arc<Conn>,
    state: Arc<JobState>,
    /// Single-flight key; `Some` only for coalescible kinds, where this job
    /// is the flight's *leader* (followers never enter the queue).
    key: Option<u64>,
}

struct Pending {
    state: Arc<JobState>,
    conn: Arc<Conn>,
}

/// A request that attached to an identical in-flight computation: it gets
/// the leader's response bytes, re-stamped with its own correlation id.
struct Waiter {
    state: Arc<JobState>,
    conn: Arc<Conn>,
}

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<Job>,
    cache: ContextCache,
    /// The durable design store mounted under the cache (`--store-dir`);
    /// also held here so `stats` can report it without going through the
    /// cache. `None` when the server runs memory-only.
    store: Option<Arc<DesignStore>>,
    metrics: Metrics,
    pending: Mutex<Vec<Pending>>,
    /// In-flight single-flight entries, sharded by coalescing key: key →
    /// waiters attached so far. An entry is inserted when a coalescible
    /// leader is dispatched and removed when its computation completes (or
    /// its queue push fails), so identical requests arriving in between
    /// attach instead of recomputing. Every operation on a key happens
    /// under that key's shard lock alone, so coalescing stays correct per
    /// shard while distinct designs stop serializing on one mutex.
    inflight: Vec<Mutex<HashMap<u64, Vec<Waiter>>>>,
    /// Open interactive sessions by client-chosen id.
    sessions: Mutex<HashMap<String, Arc<SessionEntry>>>,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_expired: AtomicU64,
    shutting_down: AtomicBool,
    stopped: AtomicBool,
    /// Live client sockets, keyed by a per-connection id. [`stop`] shuts
    /// every one down so detached reader threads exit promptly and peers
    /// see a closed socket — never a half-dead server that still answers.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    metrics_dumped: AtomicBool,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    /// Requests answered by attaching to another request's computation.
    coalesced: AtomicU64,
    /// Handler executions that actually ran (excludes coalesced followers
    /// and watchdog-answered skips).
    executed: AtomicU64,
    panics: AtomicU64,
    busy_workers: AtomicU64,
    /// Connection and request-line counters, reported in the `protocol`
    /// stats block. A connection is counted once its first line arrives;
    /// every non-blank request line is counted.
    json_conns: AtomicU64,
    json_requests: AtomicU64,
    workers: usize,
    /// Parallelism for nested engine passes, resolved once at startup from
    /// `LOCALWM_THREADS`. Engine passes are parallelism-invariant, so this
    /// only affects speed; parallel work runs on the process-wide engine
    /// worker pool shared by all serve workers.
    engine_par: Parallelism,
    injector: Option<Arc<FaultInjector>>,
}

/// Single-flight shard count: small and fixed — entries are transient
/// (one per distinct in-flight computation), so this bounds lock
/// contention, not memory.
const INFLIGHT_SHARDS: u64 = 8;

impl Shared {
    /// The single-flight shard holding `key` — same SplitMix64 draw the
    /// cache uses, so placement is a pure function of the key.
    fn inflight_shard(&self, key: u64) -> &Mutex<HashMap<u64, Vec<Waiter>>> {
        let z = localwm_prng::SplitMix64::new(key).next_u64();
        &self.inflight[(z % INFLIGHT_SHARDS) as usize]
    }

    /// Sends `resp` unless someone (worker or watchdog) already answered
    /// this job, and records the latency under the winning outcome.
    fn respond_once(&self, state: &JobState, conn: &Conn, resp: &Response, outcome: Outcome) {
        if state.responded.swap(true, Ordering::SeqCst) {
            return;
        }
        self.metrics
            .record(state.kind, state.started.elapsed(), outcome);
        conn.send(state.seq, resp);
    }

    fn stats_value(&self) -> Value {
        let c = self.cache.stats();
        let mut fields = vec![
            ("uptime_ms".to_owned(), self.metrics.uptime_ms().to_value()),
            ("workers".to_owned(), self.workers.to_value()),
            // Instantaneous gauges (not counters): sampled at stats time so
            // a gateway's `cluster_stats` can aggregate live load.
            (
                "busy_workers".to_owned(),
                self.busy_workers.load(Ordering::SeqCst).to_value(),
            ),
            (
                "queue".to_owned(),
                Value::Object(vec![
                    ("depth".to_owned(), self.queue.len().to_value()),
                    ("capacity".to_owned(), self.queue.capacity().to_value()),
                    ("rejected".to_owned(), self.queue.rejected().to_value()),
                ]),
            ),
            (
                "cache".to_owned(),
                Value::Object(vec![
                    // Aggregate view first (sums over shards; existing
                    // consumers keep reading these names), then the
                    // per-shard breakdown.
                    ("hits".to_owned(), c.hits.to_value()),
                    ("misses".to_owned(), c.misses.to_value()),
                    ("evictions".to_owned(), c.evictions.to_value()),
                    ("entries".to_owned(), c.entries.to_value()),
                    ("capacity".to_owned(), c.capacity.to_value()),
                    (
                        "shards".to_owned(),
                        Value::Array(
                            self.cache
                                .shard_stats()
                                .into_iter()
                                .map(|s| {
                                    Value::Object(vec![
                                        ("hits".to_owned(), s.hits.to_value()),
                                        ("misses".to_owned(), s.misses.to_value()),
                                        ("evictions".to_owned(), s.evictions.to_value()),
                                        ("entries".to_owned(), s.entries.to_value()),
                                        ("capacity".to_owned(), s.capacity.to_value()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "sessions".to_owned(),
                Value::Object(vec![
                    (
                        "open".to_owned(),
                        self.sessions
                            .lock()
                            .expect("sessions lock")
                            .len()
                            .to_value(),
                    ),
                    (
                        "opened".to_owned(),
                        self.sessions_opened.load(Ordering::SeqCst).to_value(),
                    ),
                    (
                        "closed".to_owned(),
                        self.sessions_closed.load(Ordering::SeqCst).to_value(),
                    ),
                    (
                        "expired".to_owned(),
                        self.sessions_expired.load(Ordering::SeqCst).to_value(),
                    ),
                ]),
            ),
            (
                "coalesced".to_owned(),
                self.coalesced.load(Ordering::SeqCst).to_value(),
            ),
            (
                "executed".to_owned(),
                self.executed.load(Ordering::SeqCst).to_value(),
            ),
            ("pool".to_owned(), {
                let p = localwm_engine::pool_stats();
                Value::Object(vec![
                    ("threads".to_owned(), p.threads.to_value()),
                    ("jobs".to_owned(), p.jobs.to_value()),
                    ("steals".to_owned(), p.steals.to_value()),
                    (
                        "cross_batch_steals".to_owned(),
                        p.cross_batch_steals.to_value(),
                    ),
                    ("park_wakeups".to_owned(), p.park_wakeups.to_value()),
                ])
            }),
            (
                "panics".to_owned(),
                self.panics.load(Ordering::SeqCst).to_value(),
            ),
            (
                "protocol".to_owned(),
                Value::Object(vec![
                    (
                        "json_conns".to_owned(),
                        self.json_conns.load(Ordering::SeqCst).to_value(),
                    ),
                    (
                        "json_requests".to_owned(),
                        self.json_requests.load(Ordering::SeqCst).to_value(),
                    ),
                ]),
            ),
            ("requests".to_owned(), self.metrics.to_value()),
        ];
        if let Some(store) = &self.store {
            let s = store.stats();
            fields.push((
                "store".to_owned(),
                Value::Object(vec![
                    ("segments".to_owned(), s.segments.to_value()),
                    ("bytes".to_owned(), s.bytes.to_value()),
                    ("records".to_owned(), s.records.to_value()),
                    ("hits".to_owned(), s.hits.to_value()),
                    ("misses".to_owned(), s.misses.to_value()),
                    ("puts".to_owned(), s.puts.to_value()),
                    ("recovered".to_owned(), s.recovered.to_value()),
                    ("dropped_tail".to_owned(), s.dropped_tail.to_value()),
                    (
                        "checksum_failures".to_owned(),
                        s.checksum_failures.to_value(),
                    ),
                ]),
            ));
        }
        if let Some(inj) = &self.injector {
            fields.push((
                "faults_fired".to_owned(),
                (inj.trace().len() as u64).to_value(),
            ));
        }
        Value::Object(fields)
    }

    /// Writes the metrics snapshot to `--metrics-out`. `clean` records
    /// whether this was a drained shutdown or a partial flush after a
    /// fault/abort, so chaos runs can tell the two apart.
    fn dump_metrics(&self, clean: bool) {
        if let Some(path) = &self.cfg.metrics_out {
            let mut fields = match self.stats_value() {
                Value::Object(f) => f,
                _ => unreachable!("stats_value returns an object"),
            };
            fields.push(("clean_shutdown".to_owned(), Value::Bool(clean)));
            let json = serde_json::to_string_pretty(&Value::Object(fields))
                .expect("stats serialization is infallible");
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("localwm-serve: writing {path}: {e}");
            }
        }
    }
}

impl Drop for Shared {
    /// Last-resort metrics flush: if the server went down without a drain
    /// (a panic or fault tore the normal shutdown path), the snapshot is
    /// still written — marked `"clean_shutdown": false` — so chaos runs
    /// always produce their `--metrics-out` file.
    fn drop(&mut self) {
        if !self.metrics_dumped.swap(true, Ordering::SeqCst) {
            self.dump_metrics(false);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::join`] (wait for a `shutdown` request) or
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (a `shutdown` request arrives or
    /// [`ServerHandle::shutdown`] is called from another thread).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Programmatic graceful shutdown: drains queued and in-flight work,
    /// dumps metrics, stops every thread, and waits for them.
    pub fn shutdown(self) {
        drain(&self.shared);
        stop(&self.shared);
        self.join();
    }

    /// Hard stop **without** draining: in-flight work finishes, but nothing
    /// queued is waited on and a *partial* metrics snapshot
    /// (`"clean_shutdown": false`) is flushed immediately. This is the
    /// escape hatch chaos runs use when an injected fault ate the normal
    /// `shutdown` acknowledgement.
    pub fn abort(self) {
        stop(&self.shared);
        if !self.shared.metrics_dumped.swap(true, Ordering::SeqCst) {
            self.shared.dump_metrics(false);
        }
        self.join();
    }

    /// Every fault that fired so far (empty when no fault plan is
    /// installed or the crate was built without `fault-inject`).
    pub fn fault_trace(&self) -> Vec<FiredFault> {
        self.shared
            .injector
            .as_ref()
            .map(|i| i.trace())
            .unwrap_or_default()
    }
}

/// Starts a server; returns once the listener is bound and all threads run.
///
/// # Errors
///
/// Propagates listener bind errors.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    #[cfg(feature = "fault-inject")]
    let injector = cfg
        .fault_plan
        .as_ref()
        .map(|p| Arc::new(FaultInjector::from_plan(p)));
    #[cfg(not(feature = "fault-inject"))]
    let injector: Option<Arc<FaultInjector>> = {
        if cfg.fault_plan.is_some() {
            eprintln!(
                "localwm-serve: fault plan ignored (built without the `fault-inject` feature)"
            );
        }
        None
    };
    let store = match &cfg.store_dir {
        Some(dir) => Some(Arc::new(DesignStore::open(dir).map_err(|e| {
            io::Error::new(e.kind(), format!("opening design store at {dir}: {e}"))
        })?)),
        None => None,
    };
    let cache = match &store {
        Some(s) => ContextCache::with_store(cfg.cache_cap, Arc::clone(s)),
        None => ContextCache::new(cfg.cache_cap),
    };
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(cfg.queue_depth),
        cache,
        store,
        metrics: Metrics::new(),
        pending: Mutex::new(Vec::new()),
        inflight: (0..INFLIGHT_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        sessions: Mutex::new(HashMap::new()),
        sessions_opened: AtomicU64::new(0),
        sessions_closed: AtomicU64::new(0),
        sessions_expired: AtomicU64::new(0),
        shutting_down: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
        metrics_dumped: AtomicBool::new(false),
        jobs_submitted: AtomicU64::new(0),
        jobs_completed: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        busy_workers: AtomicU64::new(0),
        json_conns: AtomicU64::new(0),
        json_requests: AtomicU64::new(0),
        workers,
        engine_par: Parallelism::from_env(),
        injector,
        cfg,
    });

    let mut threads = Vec::with_capacity(workers + 2);
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("localwm-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("localwm-watchdog".to_owned())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("localwm-acceptor".to_owned())
                .spawn(move || acceptor_loop(&shared, &listener))
                .expect("spawn acceptor"),
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stopped.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                // Reader threads are detached: they exit on client
                // disconnect, and never hold work the drain waits on.
                let _ = std::thread::Builder::new()
                    .name("localwm-conn".to_owned())
                    .spawn(move || conn_loop(&shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Register a handle to the socket so `stop` can close it out from
    // under the blocking read below; deregister on the way out so the
    // table only ever holds live connections.
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    match stream.try_clone() {
        Ok(clone) => {
            let mut conns = shared.conns.lock().expect("conns lock");
            if shared.stopped.load(Ordering::SeqCst) {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            conns.insert(conn_id, clone);
        }
        Err(_) => return,
    }
    let mut reader = io::BufReader::new(read_half);
    // One recycled line buffer for the whole connection: cleared per
    // request, never freed, so a warm conn reads without allocating.
    let mut line = Vec::new();
    let mut read = match read_request_line(&mut reader, &mut line) {
        Ok(LineRead::Eof) | Err(_) => {
            shared.conns.lock().expect("conns lock").remove(&conn_id);
            return;
        }
        Ok(read) => read,
    };
    let conn = Arc::new(Conn::new(
        stream,
        shared.injector.clone(),
        shared.cfg.pipeline_window as u64,
    ));
    shared.json_conns.fetch_add(1, Ordering::SeqCst);
    loop {
        match read {
            LineRead::Line => match std::str::from_utf8(&line) {
                Ok(text) if handle_json_line(shared, &conn, text) => {}
                _ => break,
            },
            // Answered in order behind whatever is in flight; once every
            // answer is on the wire the connection closes without parsing
            // the rest of the line.
            LineRead::TooLong => {
                if let Some(seq) = conn.assign_seq(&shared.stopped) {
                    conn.send(seq, &line_too_long());
                    conn.wait_written(&shared.stopped);
                    linger_close(&mut reader);
                }
                break;
            }
            LineRead::Eof => break,
        }
        read = match read_request_line(&mut reader, &mut line) {
            Ok(read) => read,
            Err(_) => break,
        };
    }
    shared.conns.lock().expect("conns lock").remove(&conn_id);
}

/// Handles one JSON wire line; returns `false` once the connection should
/// close (injected read fault or server stop).
fn handle_json_line(shared: &Arc<Shared>, conn: &Arc<Conn>, line: &str) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    if let Some(inj) = &shared.injector {
        if matches!(
            inj.check(InjectionPoint::SockRead),
            Some(FaultAction::DropConnection)
        ) {
            // Simulated read error: the request just read is lost and
            // the connection dies before it is processed.
            let s = conn.stream.lock().expect("conn lock");
            let _ = s.shutdown(Shutdown::Both);
            return false;
        }
    }
    shared.json_requests.fetch_add(1, Ordering::SeqCst);
    // Window backpressure: with `pipeline_window` requests in flight the
    // reader parks here instead of reading further ahead.
    let Some(seq) = conn.assign_seq(&shared.stopped) else {
        return false;
    };
    match Request::from_line(line.trim_end_matches(['\r', '\n'])) {
        Err(msg) => conn.send(
            seq,
            &Response::failure(
                None,
                "invalid",
                ServiceError::new(ErrorCode::BadRequest, msg),
            ),
        ),
        Ok(req) => dispatch(shared, conn, req, seq),
    }
    !shared.stopped.load(Ordering::SeqCst)
}

fn dispatch(shared: &Arc<Shared>, conn: &Arc<Conn>, req: Request, seq: u64) {
    let started = Instant::now();
    match req.kind {
        // Answered inline so they work even when the queue is full.
        RequestKind::Stats => {
            let resp = Response::success(req.id, "stats", shared.stats_value());
            shared
                .metrics
                .record(RequestKind::Stats, started.elapsed(), Outcome::Ok);
            conn.send(seq, &resp);
        }
        // A plain backend cannot answer cluster-wide questions; the typed
        // error keeps the response shape predictable for misdirected
        // clients (the gateway answers this kind itself).
        RequestKind::ClusterStats => {
            let resp = Response::failure(
                req.id,
                "cluster_stats",
                ServiceError::new(
                    ErrorCode::BadRequest,
                    "cluster_stats is answered by localwm-gateway, not a single backend",
                ),
            );
            shared
                .metrics
                .record(RequestKind::ClusterStats, started.elapsed(), Outcome::Error);
            conn.send(seq, &resp);
        }
        RequestKind::Shutdown => {
            let drained = drain(shared);
            let body = Value::Object(vec![
                ("drained_jobs".to_owned(), drained.to_value()),
                (
                    "uptime_ms".to_owned(),
                    shared.metrics.uptime_ms().to_value(),
                ),
            ]);
            shared
                .metrics
                .record(RequestKind::Shutdown, started.elapsed(), Outcome::Ok);
            // Acknowledge before stopping the threads, so the response is on
            // the wire before the process is free to exit.
            conn.send(seq, &Response::success(req.id, "shutdown", body));
            stop(shared);
        }
        kind => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                conn.send(
                    seq,
                    &Response::failure(
                        req.id,
                        kind.as_str(),
                        ServiceError::new(ErrorCode::ShuttingDown, "server is draining"),
                    ),
                );
                return;
            }
            // Session requests run inline on this connection thread: strict
            // per-connection ordering (a mutate never races its follow-up
            // query), naturally excluded from coalescing and the queue, but
            // counted in the submitted/completed pair so drain waits for
            // them.
            if matches!(
                kind,
                RequestKind::Open | RequestKind::Mutate | RequestKind::Close
            ) || req.session.is_some()
            {
                handle_session(shared, conn, &req, started, seq);
                return;
            }
            let timeout = req.timeout_ms.or(shared.cfg.default_timeout_ms);
            let state = Arc::new(JobState {
                id: req.id,
                kind,
                seq,
                deadline: timeout.map(|ms| started + Duration::from_millis(ms)),
                responded: AtomicBool::new(false),
                started,
            });
            if state.deadline.is_some() {
                shared.pending.lock().expect("pending lock").push(Pending {
                    state: Arc::clone(&state),
                    conn: Arc::clone(conn),
                });
            }
            // Single-flight: an identical in-flight analyze/timing request
            // attaches to the leader's computation instead of queueing.
            // The leader's entry is registered here at dispatch time, so
            // requests coalesce even while the leader is still queued.
            let key = coalescing_key(&req);
            if let Some(k) = key {
                let mut inflight = shared.inflight_shard(k).lock().expect("inflight lock");
                if let Some(waiters) = inflight.get_mut(&k) {
                    waiters.push(Waiter {
                        state,
                        conn: Arc::clone(conn),
                    });
                    shared.coalesced.fetch_add(1, Ordering::SeqCst);
                    // Counted as submitted; the leader's worker counts the
                    // completion when it fans the response out, so drain
                    // still waits for every waiter to be answered.
                    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                inflight.insert(k, Vec::new());
            }
            shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
            let job = Job {
                req,
                conn: Arc::clone(conn),
                state,
                key,
            };
            // Injected queue-full burst: indistinguishable on the wire from
            // a genuine capacity rejection.
            let pushed = match &shared.injector {
                Some(inj)
                    if matches!(
                        inj.check(InjectionPoint::QueuePush),
                        Some(FaultAction::RejectFull)
                    ) =>
                {
                    Err((job, PushError::Full))
                }
                _ => shared.queue.try_push(job),
            };
            if let Err((job, why)) = pushed {
                let err = match why {
                    PushError::Full => ServiceError::new(
                        ErrorCode::Overloaded,
                        "job queue is full; retry with backoff",
                    )
                    .with_detail("queue_capacity", shared.queue.capacity().to_value()),
                    PushError::Closed => {
                        ServiceError::new(ErrorCode::ShuttingDown, "server is draining")
                    }
                };
                // The flight never took off: clear its entry and fail any
                // waiters that raced in between registration and the push.
                let waiters = job
                    .key
                    .and_then(|k| {
                        shared
                            .inflight_shard(k)
                            .lock()
                            .expect("inflight lock")
                            .remove(&k)
                    })
                    .unwrap_or_default();
                for w in waiters {
                    let resp = Response::failure(w.state.id, kind.as_str(), err.clone());
                    shared.respond_once(&w.state, &w.conn, &resp, Outcome::Error);
                    shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
                }
                let resp = Response::failure(job.state.id, kind.as_str(), err);
                shared.respond_once(&job.state, &job.conn, &resp, Outcome::Error);
                shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// Executes one session request inline and answers it. No deadline is
/// armed: session work is strictly ordered per connection, and a watchdog
/// answer racing an in-place mutation could tear the session's view of
/// which edits were applied.
fn handle_session(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    req: &Request,
    started: Instant,
    seq: u64,
) {
    let state = Arc::new(JobState {
        id: req.id,
        kind: req.kind,
        seq,
        deadline: None,
        responded: AtomicBool::new(false),
        started,
    });
    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    shared.executed.fetch_add(1, Ordering::SeqCst);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_session(shared, req)));
    let resp = match result {
        Ok(Ok(body)) => Response::success(req.id, req.kind.as_str(), body),
        Ok(Err(e)) => Response::failure(req.id, req.kind.as_str(), e),
        Err(panic) => {
            shared.panics.fetch_add(1, Ordering::SeqCst);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Response::failure(
                req.id,
                req.kind.as_str(),
                ServiceError::new(
                    ErrorCode::Internal,
                    format!("session handler panicked: {msg}"),
                ),
            )
        }
    };
    let outcome = if resp.ok { Outcome::Ok } else { Outcome::Error };
    shared.respond_once(&state, conn, &resp, outcome);
    shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
}

fn session_expired(sid: &str) -> ServiceError {
    ServiceError::new(
        ErrorCode::SessionExpired,
        format!("session `{sid}` is not open on this backend (never opened, idle-evicted, or closed); re-open and replay"),
    )
}

fn run_session(shared: &Arc<Shared>, req: &Request) -> Result<Value, ServiceError> {
    let sid = req
        .session
        .as_deref()
        .ok_or_else(|| ServiceError::new(ErrorCode::BadRequest, "missing `session` id"))?;
    let lookup = |sid: &str| -> Result<Arc<SessionEntry>, ServiceError> {
        shared
            .sessions
            .lock()
            .expect("sessions lock")
            .get(sid)
            .cloned()
            .ok_or_else(|| session_expired(sid))
    };
    match req.kind {
        RequestKind::Open => {
            let design = req.design.as_deref().ok_or_else(|| {
                ServiceError::new(ErrorCode::BadRequest, "missing `design` (CDFG text)")
            })?;
            let state = crate::session::SessionState::open(design)?;
            let body = state.describe(sid);
            let mut table = shared.sessions.lock().expect("sessions lock");
            if table.len() >= SESSION_CAP && !table.contains_key(sid) {
                return Err(ServiceError::new(
                    ErrorCode::Overloaded,
                    "session table is full; close a session and retry",
                )
                .with_detail("session_cap", SESSION_CAP.to_value()));
            }
            // Re-opening an id replaces the held design (deterministic:
            // last open wins).
            table.insert(
                sid.to_owned(),
                Arc::new(SessionEntry {
                    state: Mutex::new((state, Instant::now())),
                }),
            );
            shared.sessions_opened.fetch_add(1, Ordering::SeqCst);
            Ok(body)
        }
        RequestKind::Close => {
            let entry = shared
                .sessions
                .lock()
                .expect("sessions lock")
                .remove(sid)
                .ok_or_else(|| session_expired(sid))?;
            shared.sessions_closed.fetch_add(1, Ordering::SeqCst);
            let entry = Arc::try_unwrap(entry).map_err(|_| {
                ServiceError::new(
                    ErrorCode::Internal,
                    "session is still executing a request on another connection",
                )
            })?;
            let (state, _) = entry.state.into_inner().expect("session lock");
            Ok(state.close(sid))
        }
        RequestKind::Mutate => {
            let edits = req.edits.as_deref().ok_or_else(|| {
                ServiceError::new(ErrorCode::BadRequest, "missing `edits` (edit script)")
            })?;
            let entry = lookup(sid)?;
            let mut guard = entry.state.lock().expect("session lock");
            guard.1 = Instant::now();
            guard.0.mutate(sid, edits)
        }
        RequestKind::Timing => {
            let entry = lookup(sid)?;
            let mut guard = entry.state.lock().expect("session lock");
            guard.1 = Instant::now();
            guard.0.timing(req)
        }
        RequestKind::Analyze => {
            let entry = lookup(sid)?;
            let mut guard = entry.state.lock().expect("session lock");
            guard.1 = Instant::now();
            guard.0.analyze(req, shared.engine_par)
        }
        other => Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!(
                "`{other}` does not accept a `session` (only open/mutate/close/timing/analyze)"
            ),
        )),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if let Some(inj) = &shared.injector {
            if let Some(FaultAction::StallMs(ms)) = inj.check(InjectionPoint::WorkerStall) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if matches!(
                inj.check(InjectionPoint::CacheEvict),
                Some(FaultAction::EvictAll)
            ) {
                shared.cache.evict_all();
            }
        }
        // Execute unless the job is already moot: the leader was answered
        // (watchdog timeout) *and* no waiter needs the result. The decision
        // and the skip-path entry removal happen under the inflight lock,
        // so a waiter can never attach to an entry that is being abandoned.
        let run = match job.key {
            Some(k) => {
                let mut inflight = shared.inflight_shard(k).lock().expect("inflight lock");
                let has_waiters = inflight.get(&k).is_some_and(|w| !w.is_empty());
                if !job.state.responded.load(Ordering::SeqCst) || has_waiters {
                    true
                } else {
                    inflight.remove(&k);
                    false
                }
            }
            None => !job.state.responded.load(Ordering::SeqCst),
        };
        if run {
            // A panicking handler must not kill the worker or leave the
            // request unanswered: contain it, answer with a typed internal
            // error, and count it.
            shared.busy_workers.fetch_add(1, Ordering::SeqCst);
            shared.executed.fetch_add(1, Ordering::SeqCst);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handlers::execute_with(&shared.cache, &job.req, shared.engine_par)
            }));
            shared.busy_workers.fetch_sub(1, Ordering::SeqCst);
            let resp = match outcome {
                Ok(Ok(body)) => Response::success(job.state.id, job.state.kind.as_str(), body),
                Ok(Err(e)) => Response::failure(job.state.id, job.state.kind.as_str(), e),
                Err(panic) => {
                    shared.panics.fetch_add(1, Ordering::SeqCst);
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_owned());
                    Response::failure(
                        job.state.id,
                        job.state.kind.as_str(),
                        ServiceError::new(ErrorCode::Internal, format!("handler panicked: {msg}")),
                    )
                }
            };
            let outcome = if resp.ok { Outcome::Ok } else { Outcome::Error };
            // Retire the flight *before* responding, so identical requests
            // arriving from here on start a fresh computation instead of
            // attaching to a finished one.
            let waiters = job
                .key
                .and_then(|k| {
                    shared
                        .inflight_shard(k)
                        .lock()
                        .expect("inflight lock")
                        .remove(&k)
                })
                .unwrap_or_default();
            shared.respond_once(&job.state, &job.conn, &resp, outcome);
            for w in waiters {
                // Same response bytes, re-stamped with the waiter's id.
                let mut r = resp.clone();
                r.id = w.state.id;
                shared.respond_once(&w.state, &w.conn, &r, outcome);
                shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
            }
        }
        shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
    }
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stopped.load(Ordering::SeqCst) {
        {
            let mut pending = shared.pending.lock().expect("pending lock");
            let now = Instant::now();
            pending.retain(|p| {
                if p.state.responded.load(Ordering::SeqCst) {
                    return false;
                }
                match p.state.deadline {
                    Some(d) if now >= d => {
                        let resp = Response::failure(
                            p.state.id,
                            p.state.kind.as_str(),
                            ServiceError::new(
                                ErrorCode::DeadlineExceeded,
                                "request deadline elapsed before completion",
                            ),
                        );
                        shared.respond_once(&p.state, &p.conn, &resp, Outcome::Timeout);
                        false
                    }
                    _ => true,
                }
            });
        }
        // Idle-session sweep: evict sessions untouched for longer than the
        // configured idle window. `try_lock` skips entries mid-request —
        // an active session is by definition not idle.
        if let Some(idle_ms) = shared.cfg.session_idle_ms {
            let idle = Duration::from_millis(idle_ms);
            let mut sessions = shared.sessions.lock().expect("sessions lock");
            let before = sessions.len();
            sessions.retain(|_, entry| match entry.state.try_lock() {
                Ok(guard) => guard.1.elapsed() < idle,
                Err(_) => true,
            });
            let evicted = (before - sessions.len()) as u64;
            if evicted > 0 {
                shared.sessions_expired.fetch_add(evicted, Ordering::SeqCst);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Flips the draining flag and waits for every submitted job to complete,
/// then dumps metrics (once). Returns the number of jobs that had been
/// accepted when the drain finished. Idempotent: concurrent callers all
/// wait on the same completion counters — new work is already refused.
fn drain(shared: &Arc<Shared>) -> u64 {
    shared.shutting_down.store(true, Ordering::SeqCst);
    // Drain: every accepted job (queued or in-flight) must be answered.
    loop {
        let submitted = shared.jobs_submitted.load(Ordering::SeqCst);
        let completed = shared.jobs_completed.load(Ordering::SeqCst);
        if completed >= submitted {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Sessions do not survive a drain: close them all (their in-flight
    // requests completed above) so held designs are released and a
    // restarted client starts from a clean, typed `session_expired`.
    {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        let n = sessions.len() as u64;
        sessions.clear();
        if n > 0 {
            shared.sessions_closed.fetch_add(n, Ordering::SeqCst);
        }
    }
    if !shared.metrics_dumped.swap(true, Ordering::SeqCst) {
        shared.dump_metrics(true);
    }
    shared.jobs_completed.load(Ordering::SeqCst)
}

/// Stops the acceptor, watchdog, and (via queue closure) the workers, and
/// closes every live client socket. Closing the sockets makes the stop
/// *externally deterministic*: peers (and connection pools holding kept-
/// alive sockets to this server) see EOF as soon as the stop lands, instead
/// of racing against detached reader threads that might still answer for a
/// scheduling-dependent moment.
fn stop(shared: &Arc<Shared>) {
    shared.stopped.store(true, Ordering::SeqCst);
    shared.queue.close();
    let conns = shared.conns.lock().expect("conns lock");
    for stream in conns.values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

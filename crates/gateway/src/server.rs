//! The gateway server: accept loop, routing/failover state machine,
//! health probes, `cluster_stats` aggregation, and graceful drain.
//!
//! Failover state machine, per data request:
//!
//! 1. Compute the shard key (the design's content hash; see
//!    [`shard_key`](Shared::shard_key)) and rank all backends with
//!    [`rendezvous::rank`]. The first `replicas` of that ranking are the
//!    request's candidate set — a stable per-shard replica group.
//! 2. Candidates currently marked healthy are tried first (the unhealthy
//!    ones stay in the set as a last resort; ordering within each class
//!    keeps rendezvous rank, so retries are deterministic).
//! 3. Each candidate gets `1 + max_retries` attempts; between attempts the
//!    gateway sleeps a capped exponential backoff
//!    (`min(backoff_base_ms << attempt, backoff_cap_ms)`).
//! 4. A candidate that exhausts its attempts is marked unhealthy and the
//!    request **fails over** to the next candidate.
//! 5. Only when every candidate is exhausted does the client get a typed
//!    `upstream_unavailable` error listing the backends tried — an
//!    accepted request is always answered, never silently dropped.
//!
//! A pipelining client gets the **burst relay**: complete request lines
//! the client already buffered join the current line as one burst (capped
//! at [`MAX_BURST`], never blocking), and consecutive data requests in the
//! burst that rank the same primary backend go upstream as a single
//! pipelined exchange — one round trip for the whole run. The fast path is
//! strictly opportunistic: any line it cannot serve (upstream I/O error,
//! drain refusal) re-enters the per-request failover state machine above,
//! and responses are always written back in request order. A lockstep
//! client degenerates to bursts of one, taking the classic path bytes-
//! for-bytes.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use localwm_cdfg::parse_cdfg;
use localwm_engine::DesignContext;
use localwm_serve::{
    line_not_utf8, line_too_long, linger_close, read_request_line, ErrorCode, LineRead, Metrics,
    Outcome, Request, RequestKind, Response, ServiceError,
};
use localwm_store::segment::fingerprint;
use serde::{Serialize, Value};

use crate::pool::{Backend, BackendSpec};
use crate::rendezvous;

/// Gateway configuration (the CLI's `localwm gateway` flags).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address, e.g. `127.0.0.1:7272` (`:0` picks a free port).
    pub addr: String,
    /// The backend fleet this gateway routes over.
    pub backends: Vec<BackendSpec>,
    /// Replica-group size per shard: how many rendezvous-ranked backends a
    /// request may fail over across (clamped to the fleet size).
    pub replicas: usize,
    /// Same-backend retries after a failed attempt (so each candidate gets
    /// `1 + max_retries` attempts).
    pub max_retries: u32,
    /// First retry backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Read timeout applied to upstream calls.
    pub recv_timeout_ms: u64,
    /// Health-probe period; `None` disables the prober (the deterministic
    /// chaos harness does this so retry counts depend only on routing).
    pub health_interval_ms: Option<u64>,
    /// Keep a [`RouteRecord`] per routed request. Off by default (the
    /// trace grows without bound); the testkit turns it on to assert
    /// routing determinism and build golden transcripts.
    pub record_routes: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            replicas: 2,
            max_retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            recv_timeout_ms: 30_000,
            health_interval_ms: Some(500),
            record_routes: false,
        }
    }
}

/// One routed request, as remembered when
/// [`GatewayConfig::record_routes`] is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRecord {
    /// Gateway-wide routing sequence number (0-based).
    pub index: u64,
    /// The request's correlation id, if it carried one.
    pub id: Option<u64>,
    /// The request kind's wire name.
    pub kind: String,
    /// The rendezvous shard key the request hashed to.
    pub key: u64,
    /// The backend that served it; `None` when every replica was exhausted
    /// and the client got `upstream_unavailable`.
    pub backend: Option<String>,
    /// Total upstream attempts spent on this request.
    pub attempts: u64,
    /// Candidates abandoned before the serving one (0 = primary served).
    pub failovers: u64,
}

impl RouteRecord {
    /// The record as a JSON object (what `localwm chaos --gateway` and the
    /// golden gateway transcript serialize).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("index".to_owned(), self.index.to_value())];
        if let Some(id) = self.id {
            fields.push(("id".to_owned(), id.to_value()));
        }
        fields.push(("kind".to_owned(), Value::Str(self.kind.clone())));
        fields.push(("key".to_owned(), self.key.to_value()));
        fields.push((
            "backend".to_owned(),
            match &self.backend {
                Some(b) => Value::Str(b.clone()),
                None => Value::Null,
            },
        ));
        fields.push(("attempts".to_owned(), self.attempts.to_value()));
        fields.push(("failovers".to_owned(), self.failovers.to_value()));
        Value::Object(fields)
    }
}

/// Shard-key memo size cap; past it the least recently used design is
/// forgotten (the memo is a pure cache — losing an entry costs a re-parse,
/// never correctness).
const KEY_MEMO_CAP: usize = 512;

/// Design-text [`fingerprint`] → shard key, holding at most
/// [`KEY_MEMO_CAP`] designs and evicting the least recently used one, so
/// a hot design stays memoized however many cold ones pass through.
#[derive(Default)]
struct KeyMemo {
    /// Fingerprint → (shard key, tick of last use).
    map: HashMap<u64, (u64, u64)>,
    tick: u64,
}

impl KeyMemo {
    fn get(&mut self, alias: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&alias).map(|(key, used)| {
            *used = tick;
            *key
        })
    }

    fn insert(&mut self, alias: u64, key: u64) {
        if self.map.len() >= KEY_MEMO_CAP && !self.map.contains_key(&alias) {
            // A scan on insert only: inserts follow a parse, which costs
            // far more than 512 comparisons.
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, &(_, used))| used) {
                self.map.remove(&victim);
            }
        }
        self.tick += 1;
        self.map.insert(alias, (key, self.tick));
    }
}

struct Shared {
    cfg: GatewayConfig,
    backends: Vec<Arc<Backend>>,
    names: Vec<String>,
    /// Text-fingerprint → content-hash shard-key memo, so repeated
    /// designs skip the parse on the routing path.
    key_memo: Mutex<KeyMemo>,
    /// Gateway-side per-kind latency (client-observed, includes failover).
    metrics: Metrics,
    routed: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    upstream_errors: AtomicU64,
    inflight: AtomicU64,
    /// Client-edge connection and request-line counters (the backends
    /// count their own).
    json_conns: AtomicU64,
    json_requests: AtomicU64,
    shutting_down: AtomicBool,
    stopped: AtomicBool,
    routes: Mutex<Vec<RouteRecord>>,
}

impl Shared {
    /// The rendezvous shard key for a request.
    ///
    /// Requests carrying a design hash to that design's
    /// [`DesignContext::content_hash`] — the *canonical* hash, so two
    /// spellings of the same design land on the same shard and hit the
    /// same backend's context cache. The text's in-process [`fingerprint`]
    /// memoizes the mapping; unparseable designs fall back to the text's
    /// FNV-1a (the backend will produce the error either way,
    /// deterministically). Design-free requests spread by kind and id.
    ///
    /// Session-scoped requests override all of that: they hash the session
    /// id alone, so `open`, every `mutate`/`timing`/`analyze` carrying the
    /// id, and `close` all land on the backend holding the session state.
    /// If that backend dies, the standard failover machinery retargets the
    /// shard's next replica — which does not hold the session and answers
    /// with a typed `session_expired`, telling the client to re-open; a
    /// session is never silently rebound to stale state.
    fn shard_key(&self, req: &Request) -> u64 {
        if let Some(session) = &req.session {
            return rendezvous::fnv1a(session.as_bytes());
        }
        let Some(text) = &req.design else {
            return rendezvous::fnv1a(req.kind.as_str().as_bytes()) ^ req.id.unwrap_or(0);
        };
        let alias = fingerprint(text.as_bytes());
        if let Some(key) = self.key_memo.lock().expect("memo lock").get(alias) {
            return key;
        }
        let key = match parse_cdfg(text) {
            Ok(graph) => DesignContext::new(graph).content_hash(),
            Err(_) => rendezvous::fnv1a(text.as_bytes()),
        };
        self.key_memo.lock().expect("memo lock").insert(alias, key);
        key
    }

    /// The per-request candidate set: the first `replicas` backends of the
    /// rendezvous ranking, healthy ones first (rank order preserved within
    /// each class).
    fn candidates(&self, key: u64) -> Vec<usize> {
        let replicas = self.cfg.replicas.clamp(1, self.backends.len());
        let ranked = rendezvous::rank(key, &self.names);
        let group = &ranked[..replicas];
        let mut ordered: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&i| self.backends[i].is_healthy())
            .collect();
        ordered.extend(
            group
                .iter()
                .copied()
                .filter(|&i| !self.backends[i].is_healthy()),
        );
        ordered
    }

    /// Routes one data request under its shard `key`: forwards `raw`
    /// verbatim through the failover state machine and returns the raw
    /// response line to relay (upstream bytes untouched, or a locally-built
    /// typed error once every replica is exhausted).
    fn route(&self, raw: &str, req: &Request, key: u64) -> String {
        let started = Instant::now();
        let candidates = self.candidates(key);
        let timeout = Duration::from_millis(self.cfg.recv_timeout_ms);
        let mut attempts_total: u64 = 0;
        let mut failovers: u64 = 0;
        let mut tried: Vec<String> = Vec::new();
        let index = self.routed.fetch_add(1, Ordering::SeqCst);

        for (rank_pos, &bi) in candidates.iter().enumerate() {
            let backend = &self.backends[bi];
            if rank_pos > 0 {
                failovers += 1;
                self.failovers.fetch_add(1, Ordering::SeqCst);
            }
            for attempt in 0..=self.cfg.max_retries {
                attempts_total += 1;
                backend.attempts.fetch_add(1, Ordering::SeqCst);
                match backend.exchange(raw, timeout) {
                    // A draining backend answers `shutting_down` on its
                    // still-open pooled connections: it is *declining* the
                    // work, so same-backend retries cannot help — fail over
                    // to the next replica immediately.
                    Ok(line) if is_drain_refusal(&line) => break,
                    Ok(line) => {
                        backend.mark(true, false);
                        // Sound shape check, not a parse: serve emits compact
                        // JSON, so the bytes `"ok":true` (unescaped quotes)
                        // can only be the top-level status field — any quote
                        // inside a string value is escaped to `\"`.
                        let ok = line.contains("\"ok\":true");
                        backend.record_served(req.kind, started.elapsed(), ok);
                        self.metrics.record(
                            req.kind,
                            started.elapsed(),
                            if ok { Outcome::Ok } else { Outcome::Error },
                        );
                        self.push_route(RouteRecord {
                            index,
                            id: req.id,
                            kind: req.kind.as_str().to_owned(),
                            key,
                            backend: Some(backend.name.clone()),
                            attempts: attempts_total,
                            failovers,
                        });
                        return line;
                    }
                    Err(_) => {
                        backend.io_errors.fetch_add(1, Ordering::SeqCst);
                        if attempt < self.cfg.max_retries {
                            backend.retries.fetch_add(1, Ordering::SeqCst);
                            self.retries.fetch_add(1, Ordering::SeqCst);
                            let ms = self
                                .cfg
                                .backoff_base_ms
                                .saturating_shl(attempt)
                                .min(self.cfg.backoff_cap_ms);
                            if ms > 0 {
                                std::thread::sleep(Duration::from_millis(ms));
                            }
                        }
                    }
                }
            }
            backend.mark(false, false);
            tried.push(backend.name.clone());
        }

        // Every replica exhausted: the one place the gateway speaks for a
        // data request, with the typed error the protocol reserves for it.
        self.upstream_errors.fetch_add(1, Ordering::SeqCst);
        self.metrics
            .record(req.kind, started.elapsed(), Outcome::Error);
        self.push_route(RouteRecord {
            index,
            id: req.id,
            kind: req.kind.as_str().to_owned(),
            key,
            backend: None,
            attempts: attempts_total,
            failovers,
        });
        let err = ServiceError::new(
            ErrorCode::UpstreamUnavailable,
            "all replicas for this shard are unreachable",
        )
        .with_detail(
            "backends_tried",
            Value::Array(tried.into_iter().map(Value::Str).collect()),
        )
        .with_detail("attempts", attempts_total.to_value());
        Response::failure(req.id, req.kind.as_str(), err).to_line()
    }

    /// Routes a read-ahead burst of data requests that all rank the same
    /// `primary` backend: one pipelined upstream exchange for the whole
    /// group, falling back to the per-request failover state machine
    /// ([`Shared::route`]) for any line the fast path could not serve.
    ///
    /// The burst attempt is strictly opportunistic — no same-backend
    /// retries at burst granularity, and a failed or drain-refused line
    /// re-enters `route` with its own candidate set — so the gateway's
    /// invariant (an accepted request is always answered, in order) is
    /// unchanged.
    fn route_group(&self, primary: usize, items: &[(&str, Request, u64)]) -> Vec<String> {
        let started = Instant::now();
        let backend = &self.backends[primary];
        let timeout = Duration::from_millis(self.cfg.recv_timeout_ms);
        let lines: Vec<&str> = items.iter().map(|(line, _, _)| *line).collect();
        backend
            .attempts
            .fetch_add(items.len() as u64, Ordering::SeqCst);
        match backend.exchange_many(&lines, timeout) {
            Ok(responses) => {
                backend.mark(true, false);
                items
                    .iter()
                    .zip(responses)
                    .map(|((line, req, key), resp)| {
                        if is_drain_refusal(&resp) {
                            // The backend declined the work; the per-request
                            // machinery fails over past it.
                            return self.route(line, req, *key);
                        }
                        let ok = resp.contains("\"ok\":true");
                        backend.record_served(req.kind, started.elapsed(), ok);
                        self.metrics.record(
                            req.kind,
                            started.elapsed(),
                            if ok { Outcome::Ok } else { Outcome::Error },
                        );
                        let index = self.routed.fetch_add(1, Ordering::SeqCst);
                        self.push_route(RouteRecord {
                            index,
                            id: req.id,
                            kind: req.kind.as_str().to_owned(),
                            key: *key,
                            backend: Some(backend.name.clone()),
                            attempts: 1,
                            failovers: 0,
                        });
                        resp
                    })
                    .collect()
            }
            Err(_) => {
                backend
                    .io_errors
                    .fetch_add(items.len() as u64, Ordering::SeqCst);
                items
                    .iter()
                    .map(|(line, req, key)| self.route(line, req, *key))
                    .collect()
            }
        }
    }

    fn push_route(&self, record: RouteRecord) {
        if self.cfg.record_routes {
            self.routes.lock().expect("routes lock").push(record);
        }
    }

    /// The gateway's own `stats` body (routing counters; backend detail
    /// lives under `cluster_stats`).
    fn stats_value(&self) -> Value {
        Value::Object(vec![
            ("role".to_owned(), Value::Str("gateway".to_owned())),
            ("uptime_ms".to_owned(), self.metrics.uptime_ms().to_value()),
            (
                "backends".to_owned(),
                (self.backends.len() as u64).to_value(),
            ),
            ("replicas".to_owned(), self.cfg.replicas.to_value()),
            (
                "routed".to_owned(),
                self.routed.load(Ordering::SeqCst).to_value(),
            ),
            (
                "retries".to_owned(),
                self.retries.load(Ordering::SeqCst).to_value(),
            ),
            (
                "failovers".to_owned(),
                self.failovers.load(Ordering::SeqCst).to_value(),
            ),
            (
                "upstream_errors".to_owned(),
                self.upstream_errors.load(Ordering::SeqCst).to_value(),
            ),
            (
                "inflight".to_owned(),
                self.inflight.load(Ordering::SeqCst).to_value(),
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
        ])
    }

    /// The `cluster_stats` body: the gateway's routing view plus a live
    /// fan-out to every backend's `stats`, with fleet-wide gauge
    /// aggregates (queue depth, busy workers) summed across the backends
    /// that answered.
    fn cluster_stats_value(&self) -> Value {
        let probe = Request::new(RequestKind::Stats).to_line();
        let timeout = Duration::from_millis(self.cfg.recv_timeout_ms);
        let mut healthy: u64 = 0;
        let mut queue_depth: u64 = 0;
        let mut busy_workers: u64 = 0;
        let mut workers: u64 = 0;
        // Fleet-wide store aggregation: counters summed over the backends
        // that mounted a store, plus how many did.
        let mut stores_mounted: u64 = 0;
        let mut store_sums = [0u64; 6];
        const STORE_FIELDS: [&str; 6] = [
            "segments",
            "bytes",
            "records",
            "hits",
            "misses",
            "dropped_tail",
        ];
        // Fleet-wide connection and request-line counters, summed over the
        // backends that answered. The gateway's own client-edge counters
        // live under `gateway.protocol`; this block is the backends' view.
        let mut protocol_sums = [0u64; 2];
        const PROTOCOL_FIELDS: [&str; 2] = ["json_conns", "json_requests"];
        // Fleet-wide engine-pool activity (work-stealing counters) and
        // sharded-cache counters, summed over the backends that answered.
        // Cache sums are over each backend's aggregate view — the shard
        // breakdown stays per-backend under `backends[i].upstream.cache`.
        let mut pool_sums = [0u64; 5];
        const POOL_FIELDS: [&str; 5] = [
            "threads",
            "jobs",
            "steals",
            "cross_batch_steals",
            "park_wakeups",
        ];
        let mut cache_sums = [0u64; 5];
        const CACHE_FIELDS: [&str; 5] = ["hits", "misses", "evictions", "entries", "capacity"];
        let mut entries = Vec::with_capacity(self.backends.len());
        for backend in &self.backends {
            let upstream = match backend.exchange(&probe, timeout) {
                Ok(line) => {
                    backend.mark(true, false);
                    Response::from_line(&line).ok().and_then(|r| r.result)
                }
                Err(_) => {
                    backend.mark(false, false);
                    None
                }
            };
            if let Some(stats) = &upstream {
                healthy += 1;
                busy_workers += uint_field(stats.field("busy_workers"));
                workers += uint_field(stats.field("workers"));
                queue_depth += uint_field(stats.field("queue").and_then(|q| q.field("depth")));
                if let Some(store) = stats.field("store") {
                    stores_mounted += 1;
                    for (sum, name) in store_sums.iter_mut().zip(STORE_FIELDS) {
                        *sum += uint_field(store.field(name));
                    }
                }
                if let Some(protocol) = stats.field("protocol") {
                    for (sum, name) in protocol_sums.iter_mut().zip(PROTOCOL_FIELDS) {
                        *sum += uint_field(protocol.field(name));
                    }
                }
                if let Some(pool) = stats.field("pool") {
                    for (sum, name) in pool_sums.iter_mut().zip(POOL_FIELDS) {
                        *sum += uint_field(pool.field(name));
                    }
                }
                if let Some(cache) = stats.field("cache") {
                    for (sum, name) in cache_sums.iter_mut().zip(CACHE_FIELDS) {
                        *sum += uint_field(cache.field(name));
                    }
                }
            }
            let mut fields = backend.stats_value();
            fields.push(("upstream".to_owned(), upstream.unwrap_or(Value::Null)));
            entries.push(Value::Object(fields));
        }
        let mut store_fields = vec![("mounted".to_owned(), stores_mounted.to_value())];
        store_fields.extend(
            STORE_FIELDS
                .iter()
                .zip(store_sums)
                .map(|(name, sum)| ((*name).to_owned(), sum.to_value())),
        );
        let protocol_fields: Vec<(String, Value)> = PROTOCOL_FIELDS
            .iter()
            .zip(protocol_sums)
            .map(|(name, sum)| ((*name).to_owned(), sum.to_value()))
            .collect();
        let pool_fields: Vec<(String, Value)> = POOL_FIELDS
            .iter()
            .zip(pool_sums)
            .map(|(name, sum)| ((*name).to_owned(), sum.to_value()))
            .collect();
        let cache_fields: Vec<(String, Value)> = CACHE_FIELDS
            .iter()
            .zip(cache_sums)
            .map(|(name, sum)| ((*name).to_owned(), sum.to_value()))
            .collect();
        Value::Object(vec![
            ("gateway".to_owned(), self.stats_value()),
            (
                "aggregate".to_owned(),
                Value::Object(vec![
                    (
                        "backends".to_owned(),
                        (self.backends.len() as u64).to_value(),
                    ),
                    ("healthy".to_owned(), healthy.to_value()),
                    ("queue_depth".to_owned(), queue_depth.to_value()),
                    ("busy_workers".to_owned(), busy_workers.to_value()),
                    ("workers".to_owned(), workers.to_value()),
                    ("store".to_owned(), Value::Object(store_fields)),
                    ("protocol".to_owned(), Value::Object(protocol_fields)),
                    ("pool".to_owned(), Value::Object(pool_fields)),
                    ("cache".to_owned(), Value::Object(cache_fields)),
                ]),
            ),
            ("backends".to_owned(), Value::Array(entries)),
        ])
    }
}

/// Whether a relayed response line is a backend refusing work because it
/// is draining. Substring checks are sound here for the same reason as the
/// `"ok":true` probe: serve emits compact JSON, and any quote inside a
/// string value is escaped, so these byte patterns only occur as structure.
fn is_drain_refusal(line: &str) -> bool {
    line.contains("\"ok\":false") && line.contains("\"code\":\"shutting_down\"")
}

/// Reads an integer stats field defensively (absent → 0).
fn uint_field(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).unwrap_or(0),
        _ => 0,
    }
}

/// Backoff shift that saturates instead of overflowing on large attempt
/// counts.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// A running gateway; dropping the handle does **not** stop it — call
/// [`GatewayHandle::join`] (wait for a `shutdown` request) or
/// [`GatewayHandle::shutdown`]. Stopping the gateway never touches the
/// backends' lifecycles.
pub struct GatewayHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the gateway stops (a `shutdown` request arrives or
    /// [`GatewayHandle::shutdown`] is called from another thread).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Programmatic graceful shutdown: refuses new work, waits for
    /// in-flight routing to finish, stops every thread.
    pub fn shutdown(self) {
        drain(&self.shared);
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.join();
    }

    /// The recorded routing trace (empty unless
    /// [`GatewayConfig::record_routes`] is on).
    pub fn routing_trace(&self) -> Vec<RouteRecord> {
        self.shared.routes.lock().expect("routes lock").clone()
    }

    /// Points the named backend at a new address (a backend restarted on a
    /// different port). Returns `false` for an unknown name. Shard
    /// assignments are untouched: rendezvous ranks by name, not address.
    pub fn update_backend_addr(&self, name: &str, addr: &str) -> bool {
        match self.shared.backends.iter().find(|b| b.name == name) {
            Some(b) => {
                b.set_addr(addr);
                true
            }
            None => false,
        }
    }

    /// Current health flags by backend name (probe/routing view).
    pub fn backend_health(&self) -> Vec<(String, bool)> {
        self.shared
            .backends
            .iter()
            .map(|b| (b.name.clone(), b.is_healthy()))
            .collect()
    }
}

/// Starts a gateway; returns once the listener is bound and threads run.
///
/// # Errors
///
/// Fails on bind errors, an empty backend list, or duplicate backend
/// names (names are the rendezvous identity — duplicates would alias
/// shards).
pub fn start(cfg: GatewayConfig) -> io::Result<GatewayHandle> {
    if cfg.backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "gateway needs at least one backend",
        ));
    }
    let mut seen = std::collections::HashSet::new();
    for b in &cfg.backends {
        if !seen.insert(b.name.clone()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate backend name `{}`", b.name),
            ));
        }
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let backends: Vec<Arc<Backend>> = cfg
        .backends
        .iter()
        .map(|s| Arc::new(Backend::new(s.clone())))
        .collect();
    let names = backends.iter().map(|b| b.name.clone()).collect();
    let shared = Arc::new(Shared {
        backends,
        names,
        key_memo: Mutex::new(KeyMemo::default()),
        metrics: Metrics::new(),
        routed: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        upstream_errors: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        json_conns: AtomicU64::new(0),
        json_requests: AtomicU64::new(0),
        shutting_down: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        routes: Mutex::new(Vec::new()),
        cfg,
    });

    let mut threads = Vec::with_capacity(2);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("localwm-gw-acceptor".to_owned())
                .spawn(move || acceptor_loop(&shared, &listener))
                .expect("spawn gateway acceptor"),
        );
    }
    if let Some(interval) = shared.cfg.health_interval_ms {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("localwm-gw-prober".to_owned())
                .spawn(move || prober_loop(&shared, Duration::from_millis(interval.max(10))))
                .expect("spawn gateway prober"),
        );
    }
    Ok(GatewayHandle {
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
                // Detached, like serve's readers: a conn thread exits on
                // client disconnect; the drain waits on the inflight
                // counter, not on threads.
                let _ = std::thread::Builder::new()
                    .name("localwm-gw-conn".to_owned())
                    .spawn(move || conn_loop(&shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The typed `bad_request` response line for an unparseable request —
/// same parser, same message, same shape a backend would produce, so
/// unparseable lines stay byte-identical too.
fn bad_request_line(msg: String) -> String {
    Response::failure(
        None,
        "invalid",
        ServiceError::new(ErrorCode::BadRequest, msg),
    )
    .to_line()
}

/// Answers a request the gateway answers itself — a control kind, or a
/// data request while draining: the response line, plus whether the
/// gateway should stop (a `shutdown` was acknowledged).
fn answer_local(shared: &Arc<Shared>, req: &Request) -> (String, bool) {
    match req.kind {
        RequestKind::Stats => {
            let resp = Response::success(req.id, "stats", shared.stats_value());
            (resp.to_line(), false)
        }
        RequestKind::ClusterStats => {
            let resp = Response::success(req.id, "cluster_stats", shared.cluster_stats_value());
            (resp.to_line(), false)
        }
        RequestKind::Shutdown => {
            let drained = drain(shared);
            let body = Value::Object(vec![
                ("routed".to_owned(), drained.to_value()),
                (
                    "uptime_ms".to_owned(),
                    shared.metrics.uptime_ms().to_value(),
                ),
            ]);
            (Response::success(req.id, "shutdown", body).to_line(), true)
        }
        _ => {
            let resp = Response::failure(
                req.id,
                req.kind.as_str(),
                ServiceError::new(ErrorCode::ShuttingDown, "gateway is draining"),
            );
            (resp.to_line(), false)
        }
    }
}

/// How many read-ahead requests one burst may carry — the gateway-side
/// mirror of serve's pipeline window.
const MAX_BURST: usize = 8;

/// Whether a request takes the routed data path (as opposed to a control
/// kind the gateway answers itself).
fn is_data_kind(kind: RequestKind) -> bool {
    !matches!(
        kind,
        RequestKind::Stats | RequestKind::ClusterStats | RequestKind::Shutdown
    )
}

/// Answers a read-ahead burst of lines in order (`None` stands for a line
/// that is not UTF-8): consecutive data requests that rank the same
/// primary backend are relayed upstream as one pipelined exchange via
/// [`Shared::route_group`]; everything else (control kinds, malformed
/// lines, drain mode, singleton runs) takes the per-line path unchanged.
/// Every line is decoded and hashed once: the line that ends a run starts
/// the next one. Returns the response lines in request order plus the
/// stop flag; lines after an acknowledged `shutdown` are dropped, exactly
/// as the lockstep loop never reads past one.
fn answer_burst(shared: &Arc<Shared>, burst: &[Option<String>]) -> (Vec<String>, bool) {
    let mut out = Vec::with_capacity(burst.len());
    // The line that ended the last run, decoded, with its shard key when
    // it is a data request.
    let mut carried: Option<(&str, Request, Option<u64>)> = None;
    let mut i = 0;
    while i < burst.len() {
        let (line, req, key) = match carried.take() {
            Some(decoded) => decoded,
            None => {
                let Some(line) = burst[i].as_deref() else {
                    out.push(line_not_utf8().to_line());
                    i += 1;
                    continue;
                };
                match Request::from_line(line) {
                    Ok(req) => (line, req, None),
                    Err(msg) => {
                        out.push(bad_request_line(msg));
                        i += 1;
                        continue;
                    }
                }
            }
        };
        if !is_data_kind(req.kind) || shared.shutting_down.load(Ordering::SeqCst) {
            let (resp, stop) = answer_local(shared, &req);
            out.push(resp);
            if stop {
                return (out, true);
            }
            i += 1;
            continue;
        }
        // The maximal run of data requests sharing this request's primary
        // backend; each keeps its own shard key for records and fallback.
        let key = key.unwrap_or_else(|| shared.shard_key(&req));
        let primary = shared.candidates(key)[0];
        let mut items: Vec<(&str, Request, u64)> = vec![(line, req, key)];
        let mut j = i + 1;
        while j < burst.len() {
            let Some(line) = burst[j].as_deref() else {
                break;
            };
            let Ok(next) = Request::from_line(line) else {
                break;
            };
            if !is_data_kind(next.kind) {
                carried = Some((line, next, None));
                break;
            }
            let next_key = shared.shard_key(&next);
            if shared.candidates(next_key)[0] != primary {
                carried = Some((line, next, Some(next_key)));
                break;
            }
            items.push((line, next, next_key));
            j += 1;
        }
        shared
            .inflight
            .fetch_add(items.len() as u64, Ordering::SeqCst);
        if let [(line, req, key)] = items.as_slice() {
            out.push(shared.route(line, req, *key));
        } else {
            out.extend(shared.route_group(primary, &items));
        }
        shared
            .inflight
            .fetch_sub(items.len() as u64, Ordering::SeqCst);
        i = j;
    }
    (out, false)
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = stream;
    let mut reader = io::BufReader::new(read_half);
    let first = read_line(&mut reader);
    if matches!(first, Read::End) {
        return;
    }
    shared.json_conns.fetch_add(1, Ordering::SeqCst);
    // The burst relay: each blocking read yields the head of a burst, and
    // complete lines the client already pipelined into our buffer join it
    // (capped at MAX_BURST, never blocking on a partial line). The whole
    // burst is answered in order and written back in one buffered write. A
    // lockstep client degenerates to bursts of one — same bytes, same
    // order, same per-line state machine.
    // A line past the cap is answered after the lines before it, and then
    // the connection closes through `linger_close`.
    let mut head = Some(first);
    let mut burst: Vec<Option<String>> = Vec::new();
    let mut out_buf: Vec<u8> = Vec::new();
    loop {
        burst.clear();
        let mut too_long = false;
        match head.take().unwrap_or_else(|| read_line(&mut reader)) {
            Read::Line(line) => burst.push(line),
            Read::Blank => {}
            Read::TooLong => too_long = true,
            Read::End => break,
        }
        while !too_long && burst.len() < MAX_BURST && reader.buffer().contains(&b'\n') {
            match read_line(&mut reader) {
                Read::Line(line) => burst.push(line),
                Read::Blank => {}
                Read::TooLong => too_long = true,
                Read::End => break,
            }
        }
        if burst.is_empty() && !too_long {
            continue;
        }
        shared
            .json_requests
            .fetch_add(burst.len() as u64, Ordering::SeqCst);
        let (mut responses, stop) = answer_burst(shared, &burst);
        if too_long {
            responses.push(line_too_long().to_line());
        }
        out_buf.clear();
        for resp in &responses {
            out_buf.extend_from_slice(resp.as_bytes());
            out_buf.push(b'\n');
        }
        // A dead peer is the client's problem.
        let _ = write_half
            .write_all(&out_buf)
            .and_then(|()| write_half.flush());
        if stop {
            shared.stopped.store(true, Ordering::SeqCst);
            break;
        }
        if too_long {
            linger_close(&mut reader);
            break;
        }
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// What one [`read_line`] found.
enum Read {
    /// A request line without its terminator, or `None` for a line that
    /// is not UTF-8 (answered with [`line_not_utf8`]).
    Line(Option<String>),
    /// A line of whitespace only; it gets no answer.
    Blank,
    /// A line past the cap.
    TooLong,
    /// End of stream or a read error.
    End,
}

/// The next request line, read through the shared line cap.
fn read_line(reader: &mut io::BufReader<TcpStream>) -> Read {
    let mut raw = Vec::new();
    match read_request_line(reader, &mut raw) {
        Ok(LineRead::Line) => {}
        Ok(LineRead::TooLong) => return Read::TooLong,
        Ok(LineRead::Eof) | Err(_) => return Read::End,
    }
    let Ok(mut line) = String::from_utf8(raw) else {
        return Read::Line(None);
    };
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    if line.trim().is_empty() {
        return Read::Blank;
    }
    Read::Line(Some(line))
}

fn prober_loop(shared: &Arc<Shared>, interval: Duration) {
    let probe = Request::new(RequestKind::Stats).to_line();
    let timeout = Duration::from_millis(shared.cfg.recv_timeout_ms);
    while !shared.stopped.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            if shared.stopped.load(Ordering::SeqCst) {
                return;
            }
            let up = backend.exchange(&probe, timeout).is_ok();
            backend.mark(up, true);
        }
        std::thread::sleep(interval);
    }
}

/// Flips the draining flag, waits for in-flight routing to finish, and
/// returns the total requests routed. Never contacts the backends: a
/// gateway drain leaves the fleet running.
fn drain(shared: &Arc<Shared>) -> u64 {
    shared.shutting_down.store(true, Ordering::SeqCst);
    while shared.inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    shared.routed.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hot_design_survives_a_stream_of_cold_ones() {
        let mut memo = KeyMemo::default();
        memo.insert(0, 100);
        for cold in 1..=KEY_MEMO_CAP as u64 + 1 {
            memo.insert(cold, cold + 100);
            assert_eq!(
                memo.get(0),
                Some(100),
                "hot design lost after {cold} cold ones"
            );
            assert!(memo.map.len() <= KEY_MEMO_CAP);
        }
        // The least recently used cold design went first.
        assert_eq!(memo.get(1), None);
        assert_eq!(
            memo.get(KEY_MEMO_CAP as u64 + 1),
            Some(KEY_MEMO_CAP as u64 + 101)
        );
    }
}

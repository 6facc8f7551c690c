//! End-to-end tests: a real server on a loopback socket, driven through
//! the blocking [`Client`] over the JSON-lines wire format.

use std::time::Duration;

use localwm_cdfg::designs::iir4_parallel;
use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::write_cdfg;
use localwm_serve::{Client, Request, RequestKind, ServeConfig};
use serde::{Serialize, Value};

fn start_server(workers: usize, queue_depth: usize) -> localwm_serve::ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        cache_cap: 4,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback")
}

fn connect(handle: &localwm_serve::ServerHandle) -> Client {
    Client::connect_within(&handle.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

fn timing_request(id: u64, design: &str) -> Request {
    let mut r = Request::new(RequestKind::Timing);
    r.id = Some(id);
    r.design = Some(design.to_owned());
    r
}

/// An analyze request heavy enough to occupy a worker for a while. The
/// seed is derived from the id so requests with distinct ids are distinct
/// jobs (single-flight coalescing never merges them).
fn slow_request(id: u64, design: &str) -> Request {
    let mut r = Request::new(RequestKind::Analyze);
    r.id = Some(id);
    r.design = Some(design.to_owned());
    // Heavy enough that the stats-gauge polling below reliably observes
    // the busy/queued states; debug builds run the Monte-Carlo kernel an
    // order of magnitude slower, so they get a smaller sample count.
    r.samples = Some(if cfg!(debug_assertions) {
        400_000
    } else {
        2_000_000
    });
    r.seed = Some(id);
    r
}

/// Polls inline `stats` (answered on the connection thread, never queued)
/// until `pred` holds on the result object. The tests that need a precise
/// worker/queue interleaving wait on live gauges instead of sleeping for
/// a machine-speed-dependent amount of time.
fn wait_for_stats(handle: &localwm_serve::ServerHandle, pred: impl Fn(&Value) -> bool) {
    let mut c = connect(handle);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = c.call(&Request::new(RequestKind::Stats)).expect("stats");
        let result = resp.result.as_ref().expect("stats body");
        if pred(result) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never reached the expected worker/queue state"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn int_gauge(result: &Value, path: &[&str]) -> i64 {
    let mut v = result;
    for p in path {
        v = v.field(p).unwrap_or(&Value::Null);
    }
    match v {
        Value::Int(i) => *i,
        Value::UInt(u) => *u as i64,
        _ => -1,
    }
}

#[test]
fn warm_cache_timing_is_byte_identical_to_cold() {
    let handle = start_server(2, 16);
    let mut c = connect(&handle);
    let design = write_cdfg(&iir4_parallel());

    c.send(&timing_request(1, &design)).unwrap();
    let cold = c.recv_line().unwrap();
    c.send(&timing_request(1, &design)).unwrap();
    let warm = c.recv_line().unwrap();
    assert_eq!(cold, warm, "cache hits must not change the response bytes");

    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    let cache = stats.result_field("cache").expect("cache stats");
    assert_eq!(
        cache.field("hits"),
        Some(&Value::Int(1)),
        "second request hit the context cache"
    );

    handle.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_responses_to_serial() {
    let apps = mediabench_apps();
    let designs: Vec<String> = vec![
        write_cdfg(&iir4_parallel()),
        write_cdfg(&mediabench(&apps[0], 0)),
        write_cdfg(&mediabench(&apps[1], 0)),
    ];
    let requests: Vec<Request> = (0..9u64)
        .map(|i| {
            let design = &designs[usize::try_from(i).unwrap() % designs.len()];
            let mut r = if i % 3 == 0 {
                let mut e = Request::new(RequestKind::Embed);
                e.author = Some(format!("author-{}", i % 2));
                e
            } else if i % 3 == 1 {
                let mut a = Request::new(RequestKind::Analyze);
                a.samples = Some(50);
                a
            } else {
                Request::new(RequestKind::Timing)
            };
            r.id = Some(i);
            r.design = Some(design.clone());
            r
        })
        .collect();

    // Serial reference: one connection, one request at a time.
    let serial_server = start_server(1, 16);
    let mut serial = Vec::new();
    {
        let mut c = connect(&serial_server);
        for r in &requests {
            c.send(r).unwrap();
            serial.push((r.id.unwrap(), c.recv_line().unwrap()));
        }
    }
    serial_server.shutdown();

    // Concurrent run: one connection per request, all in flight at once.
    let concurrent_server = start_server(4, 16);
    let addr = concurrent_server.addr().to_string();
    let threads: Vec<_> = requests
        .iter()
        .cloned()
        .map(|r| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_within(&addr, Duration::from_secs(5)).expect("connect");
                c.send(&r).unwrap();
                (r.id.unwrap(), c.recv_line().unwrap())
            })
        })
        .collect();
    let mut concurrent: Vec<(u64, String)> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();
    concurrent_server.shutdown();

    concurrent.sort_by_key(|&(id, _)| id);
    assert_eq!(
        serial, concurrent,
        "scheduling must not leak into responses"
    );
}

#[test]
fn full_queue_yields_typed_overloaded_without_stalling_the_acceptor() {
    let handle = start_server(1, 1);
    let design = write_cdfg(&iir4_parallel());

    // Occupy the single worker, then fill the single queue slot. The
    // stats gauges confirm each stage landed before the next request
    // goes out — fixed sleeps race a fast machine.
    let mut busy1 = connect(&handle);
    busy1.send(&slow_request(1, &design)).unwrap();
    wait_for_stats(&handle, |r| int_gauge(r, &["busy_workers"]) == 1);
    let mut busy2 = connect(&handle);
    busy2.send(&slow_request(2, &design)).unwrap();
    wait_for_stats(&handle, |r| int_gauge(r, &["queue", "depth"]) == 1);

    // A third request must bounce immediately with a typed error.
    let mut probe = connect(&handle);
    let resp = probe.call(&timing_request(3, &design)).unwrap();
    assert!(!resp.ok);
    let err = resp.error.expect("typed error");
    assert_eq!(err.code.as_str(), "overloaded");
    assert!(err.details.iter().any(|(k, _)| k == "queue_capacity"));

    // The accept loop is alive: a brand-new connection gets stats inline.
    let mut fresh = connect(&handle);
    let stats = fresh.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(stats.ok);
    let queue = stats.result_field("queue").expect("queue stats");
    assert_eq!(queue.field("rejected"), Some(&Value::Int(1)));

    // The displaced work itself still completes.
    assert!(busy1.recv().unwrap().ok);
    assert!(busy2.recv().unwrap().ok);
    handle.shutdown();
}

#[test]
fn identical_inflight_analyses_coalesce_into_one_execution() {
    let handle = start_server(1, 16);
    let design = write_cdfg(&iir4_parallel());

    // Park the single worker on a distinct slow job so the identical batch
    // below all arrives while its leader is still queued.
    let mut blocker = connect(&handle);
    blocker.send(&slow_request(99, &design)).unwrap();
    let mut stats_conn = connect(&handle);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_conn.call(&Request::new(RequestKind::Stats)).unwrap();
        if stats.result_field("busy_workers") == Some(&Value::Int(1)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked the blocker up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = stats_conn.call(&Request::new(RequestKind::Stats)).unwrap();
    let executed_before = match before.result_field("executed") {
        Some(Value::Int(n)) => *n,
        other => panic!("expected executed counter, got {other:?}"),
    };

    // N identical analyze requests (same id, same parameters) from N
    // connections: one leader queues, the rest attach to its flight.
    const N: usize = 4;
    let mut req = Request::new(RequestKind::Analyze);
    req.id = Some(42);
    req.design = Some(design.clone());
    req.samples = Some(500);
    req.seed = Some(123);
    let mut clients: Vec<Client> = (0..N).map(|_| connect(&handle)).collect();
    for c in &mut clients {
        c.send(&req).unwrap();
    }

    let lines: Vec<String> = clients.iter_mut().map(|c| c.recv_line().unwrap()).collect();
    assert!(
        lines.iter().all(|l| l == &lines[0]),
        "fanned-out responses must be byte-identical"
    );
    let parsed: Value = serde_json::from_str(&lines[0]).expect("response is JSON");
    assert_eq!(parsed.field("ok"), Some(&Value::Bool(true)));
    assert!(blocker.recv().unwrap().ok);

    let stats = stats_conn.call(&Request::new(RequestKind::Stats)).unwrap();
    assert_eq!(
        stats.result_field("coalesced"),
        Some(&Value::Int(i64::try_from(N).unwrap() - 1)),
        "all but the leader coalesced"
    );
    match stats.result_field("executed") {
        Some(Value::Int(n)) => assert_eq!(
            *n - executed_before,
            1,
            "the identical batch ran the kernel exactly once"
        ),
        other => panic!("expected executed counter, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start_server(1, 16);
    let design = write_cdfg(&iir4_parallel());

    let mut worker_conn = connect(&handle);
    for id in 0..4u64 {
        worker_conn.send(&slow_request(id, &design)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));

    let mut admin = connect(&handle);
    let resp = admin.call(&Request::new(RequestKind::Shutdown)).unwrap();
    assert!(resp.ok);
    match resp.result_field("drained_jobs") {
        Some(Value::Int(n)) => assert_eq!(*n, 4, "every accepted job drained"),
        other => panic!("expected drained_jobs count, got {other:?}"),
    }

    // All four queued requests were answered, none dropped.
    for _ in 0..4 {
        assert!(worker_conn.recv().unwrap().ok, "drained job succeeded");
    }
    handle.join();
}

#[test]
fn metrics_are_flushed_even_on_abort_and_flag_the_unclean_shutdown() {
    let dir = std::env::temp_dir();
    let aborted = dir.join(format!("localwm-metrics-abort-{}.json", std::process::id()));
    let drained = dir.join(format!("localwm-metrics-drain-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&aborted);
    let _ = std::fs::remove_file(&drained);
    let design = write_cdfg(&iir4_parallel());

    // Abort path: the server dies without draining — the metrics snapshot
    // must still land on disk, marked as a partial flush.
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 8,
        cache_cap: 2,
        default_timeout_ms: None,
        metrics_out: Some(aborted.to_string_lossy().into_owned()),
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback");
    let mut c = connect(&handle);
    assert!(c.call(&timing_request(1, &design)).unwrap().ok);
    handle.abort();
    let dump = std::fs::read_to_string(&aborted).expect("abort still flushed metrics");
    let v: Value = serde_json::from_str(&dump).expect("metrics dump is JSON");
    assert_eq!(v.field("clean_shutdown"), Some(&Value::Bool(false)));

    // Drain path: the same snapshot, marked clean.
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 8,
        cache_cap: 2,
        default_timeout_ms: None,
        metrics_out: Some(drained.to_string_lossy().into_owned()),
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback");
    let mut c = connect(&handle);
    assert!(c.call(&timing_request(1, &design)).unwrap().ok);
    handle.shutdown();
    let dump = std::fs::read_to_string(&drained).expect("drain flushed metrics");
    let v: Value = serde_json::from_str(&dump).expect("metrics dump is JSON");
    assert_eq!(v.field("clean_shutdown"), Some(&Value::Bool(true)));

    let _ = std::fs::remove_file(&aborted);
    let _ = std::fs::remove_file(&drained);
}

#[test]
fn expired_deadlines_get_a_typed_timeout_response() {
    let handle = start_server(1, 4);
    let design = write_cdfg(&iir4_parallel());
    let mut c = connect(&handle);
    let mut r = slow_request(7, &design);
    r.timeout_ms = Some(1);
    let resp = c.call(&r).unwrap();
    assert!(!resp.ok);
    assert_eq!(
        resp.error.expect("typed error").code.as_str(),
        "deadline_exceeded"
    );
    handle.shutdown();
}

#[test]
fn repeated_designs_raise_the_cache_hit_counter() {
    let handle = start_server(2, 16);
    let design = write_cdfg(&iir4_parallel());
    let mut c = connect(&handle);
    for id in 0..5u64 {
        assert!(c.call(&timing_request(id, &design)).unwrap().ok);
    }
    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    let cache = stats.result_field("cache").expect("cache stats");
    assert_eq!(cache.field("hits"), Some(&Value::Int(4)));
    assert_eq!(cache.field("misses"), Some(&Value::Int(1)));

    // Requests after shutdown are refused with a typed error.
    handle.shutdown();
}

#[test]
fn requests_during_drain_are_refused_as_shutting_down() {
    let handle = start_server(1, 16);
    let design = write_cdfg(&iir4_parallel());
    let mut busy = connect(&handle);
    busy.send(&slow_request(1, &design)).unwrap();
    wait_for_stats(&handle, |r| int_gauge(r, &["busy_workers"]) == 1);

    let mut late = connect(&handle);
    let mut admin = connect(&handle);
    admin.send(&Request::new(RequestKind::Shutdown)).unwrap();

    // The shutdown is read on the admin connection's own thread, so a
    // request sent right away may still be accepted ahead of it. Session
    // requests are answered inline, never queued behind the busy worker:
    // closing a session that does not exist observes the drain flag the
    // moment it flips. A closed connection means the drain already
    // finished, which a fast box may manage.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let draining = loop {
        let Ok(resp) = late.call(&session_request(RequestKind::Close, 8, "ghost")) else {
            break false;
        };
        let code = resp.error.expect("typed error").code;
        if code.as_str() == "shutting_down" {
            break true;
        }
        assert_eq!(code.as_str(), "session_expired");
        assert!(std::time::Instant::now() < deadline, "drain never began");
        std::thread::sleep(Duration::from_millis(1));
    };
    // While the drain is in progress, new work is refused.
    if draining {
        if let Ok(resp) = late.call(&timing_request(9, &design)) {
            assert!(!resp.ok);
            assert_eq!(
                resp.error.expect("typed error").code.as_str(),
                "shutting_down"
            );
        }
    }

    assert!(busy.recv().unwrap().ok, "in-flight job still drained");
    assert!(admin.recv().unwrap().ok);
    handle.join();
}

#[test]
fn stats_exposes_live_gauges_for_cluster_aggregation() {
    let handle = start_server(3, 16);
    let mut c = connect(&handle);
    let design = write_cdfg(&iir4_parallel());
    c.call(&timing_request(1, &design)).unwrap();

    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    let result = stats.result.as_ref().expect("stats body");
    // The gauges a gateway's `cluster_stats` sums across the fleet.
    assert_eq!(result.field("workers"), Some(&Value::Int(3)));
    assert_eq!(
        result.field("busy_workers"),
        Some(&Value::Int(0)),
        "idle at stats time"
    );
    let queue = result.field("queue").expect("queue gauges");
    assert_eq!(queue.field("depth"), Some(&Value::Int(0)));
    assert_eq!(queue.field("capacity"), Some(&Value::Int(16)));

    handle.shutdown();
}

#[test]
fn busy_worker_gauge_rises_while_a_slow_request_runs() {
    let handle = start_server(1, 16);
    let mut slow = connect(&handle);
    let design = write_cdfg(&iir4_parallel());
    slow.send(&slow_request(1, &design)).unwrap();

    // Poll stats (answered inline, never queued) until the worker picks
    // the slow job up; the gauge must read 1 while it runs.
    let mut c = connect(&handle);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
        let busy = stats.result_field("busy_workers").cloned();
        if busy == Some(Value::Int(1)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "busy_workers never rose: {busy:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(slow.recv().unwrap().ok);

    handle.shutdown();
}

#[test]
fn cluster_stats_on_a_single_backend_is_a_typed_bad_request() {
    let handle = start_server(2, 16);
    let mut c = connect(&handle);
    let mut req = Request::new(RequestKind::ClusterStats);
    req.id = Some(4);
    let resp = c.call(&req).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.id, Some(4));
    assert_eq!(resp.kind, "cluster_stats");
    let err = resp.error.expect("typed error");
    assert_eq!(err.code, localwm_serve::ErrorCode::BadRequest);
    assert!(err.message.contains("localwm-gateway"));
    handle.shutdown();
}

#[test]
fn overflowing_delay_bounds_are_a_typed_bad_request() {
    // A 3-op chain: its circuit delay is the sum of all three delays, so
    // hi = u64::MAX / 2 cannot be represented while u64::MAX / 3 just can.
    let mut g = localwm_cdfg::Cdfg::new();
    let mut prev = g.add_named_node(localwm_cdfg::OpKind::Input, "x");
    for name in ["a", "b", "c"] {
        let op = g.add_named_node(localwm_cdfg::OpKind::Neg, name);
        g.add_data_edge(prev, op).unwrap();
        prev = op;
    }
    let design = write_cdfg(&g);

    let handle = start_server(1, 8);
    let mut c = connect(&handle);
    let mut open = session_request(RequestKind::Open, 1, "chain");
    open.design = Some(design.clone());
    let resp = c.call(&open).unwrap();
    assert!(resp.ok, "open failed: {:?}", resp.error);
    let with_hi = |mut r: Request, hi: u64| {
        r.design = r.session.is_none().then(|| design.clone());
        r.lo = Some(1);
        r.hi = Some(hi);
        r.samples = Some(4);
        r
    };
    let requests = [
        Request::new(RequestKind::Timing),
        Request::new(RequestKind::Analyze),
        session_request(RequestKind::Timing, 2, "chain"),
        session_request(RequestKind::Analyze, 3, "chain"),
    ];
    for req in &requests {
        let resp = c.call(&with_hi(req.clone(), u64::MAX / 2)).unwrap();
        assert!(!resp.ok, "{}", req.kind);
        let err = resp.error.expect("typed error");
        assert_eq!(err.code.as_str(), "bad_request", "{}", req.kind);
        assert!(err.message.contains("overflows"), "{}", err.message);
    }
    // The worker survived, and the largest representable bound answers.
    for req in &requests {
        let resp = c.call(&with_hi(req.clone(), u64::MAX / 3)).unwrap();
        assert!(resp.ok, "{}: {:?}", req.kind, resp.error);
        assert_eq!(
            resp.result_field("bounded_hi"),
            Some(&u64::MAX.to_value()),
            "{}",
            req.kind
        );
    }
    handle.shutdown();
}

fn session_request(kind: RequestKind, id: u64, session: &str) -> Request {
    let mut r = Request::new(kind);
    r.id = Some(id);
    r.session = Some(session.to_owned());
    r
}

#[test]
fn session_analysis_over_the_wire_matches_from_scratch() {
    let handle = start_server(2, 16);
    let mut c = connect(&handle);
    let design = write_cdfg(&iir4_parallel());

    // Open, mutate twice, analyze through the session.
    let mut open = session_request(RequestKind::Open, 1, "wire-1");
    open.design = Some(design.clone());
    let resp = c.call(&open).unwrap();
    assert!(resp.ok, "open failed: {:?}", resp.error);

    let mut m1 = session_request(RequestKind::Mutate, 2, "wire-1");
    m1.edits = Some("add-node t9 not\nadd-edge data A9 t9\n".to_owned());
    assert!(c.call(&m1).unwrap().ok);
    let mut m2 = session_request(RequestKind::Mutate, 3, "wire-1");
    m2.edits = Some("add-edge temp A1 A5\n".to_owned());
    assert!(c.call(&m2).unwrap().ok);

    let mut q = session_request(RequestKind::Analyze, 4, "wire-1");
    q.samples = Some(64);
    q.seed = Some(9);
    let held = c.call(&q).unwrap();
    assert!(held.ok);

    // From-scratch reference: the same final design as one analyze request.
    let mut g = iir4_parallel();
    let t9 = g.add_named_node(localwm_cdfg::OpKind::Not, "t9");
    let a9 = g.node_by_name("A9").unwrap();
    g.add_data_edge(a9, t9).unwrap();
    let a1 = g.node_by_name("A1").unwrap();
    let a5 = g.node_by_name("A5").unwrap();
    g.add_edge(localwm_cdfg::EdgeKind::Temporal, a1, a5)
        .unwrap();
    let mut scratch_req = Request::new(RequestKind::Analyze);
    scratch_req.id = Some(4); // same id so the response lines match exactly
    scratch_req.design = Some(write_cdfg(&g));
    scratch_req.samples = Some(64);
    scratch_req.seed = Some(9);
    let scratch = c.call(&scratch_req).unwrap();
    assert!(scratch.ok);
    assert_eq!(
        held.to_line(),
        scratch.to_line(),
        "session analyze must be byte-identical to from-scratch"
    );

    // Close reports the mutation count; a second close is typed expired.
    let resp = c
        .call(&session_request(RequestKind::Close, 5, "wire-1"))
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.result_field("mutations"), Some(&Value::Int(2)));
    let resp = c
        .call(&session_request(RequestKind::Close, 6, "wire-1"))
        .unwrap();
    assert!(!resp.ok);
    assert_eq!(
        resp.error.expect("typed error").code.as_str(),
        "session_expired"
    );
    handle.shutdown();
}

#[test]
fn idle_sessions_are_evicted_with_a_typed_error() {
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 8,
        cache_cap: 2,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: Some(30),
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback");
    let mut c = connect(&handle);
    let mut open = session_request(RequestKind::Open, 1, "idle-1");
    open.design = Some(write_cdfg(&iir4_parallel()));
    assert!(c.call(&open).unwrap().ok);

    // Let the watchdog sweep the idle session out.
    std::thread::sleep(Duration::from_millis(200));
    let resp = c
        .call(&session_request(RequestKind::Timing, 2, "idle-1"))
        .unwrap();
    assert!(!resp.ok);
    assert_eq!(
        resp.error.expect("typed error").code.as_str(),
        "session_expired"
    );

    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    let sessions = stats.result_field("sessions").expect("session stats");
    assert_eq!(sessions.field("expired"), Some(&Value::Int(1)));
    assert_eq!(sessions.field("open"), Some(&Value::Int(0)));
    handle.shutdown();
}

#[test]
fn drain_closes_open_sessions_cleanly() {
    let handle = start_server(1, 8);
    let mut c = connect(&handle);
    let mut open = session_request(RequestKind::Open, 1, "drain-1");
    open.design = Some(write_cdfg(&iir4_parallel()));
    assert!(c.call(&open).unwrap().ok);

    let mut admin = connect(&handle);
    assert!(admin.call(&Request::new(RequestKind::Shutdown)).unwrap().ok);
    handle.join();
    // The server exited with a session still open: the drain closed it
    // (released the held design) rather than leaking or hanging.
}

#[test]
fn session_queries_against_unknown_ids_are_typed_expired() {
    let handle = start_server(1, 8);
    let mut c = connect(&handle);
    for kind in [
        RequestKind::Mutate,
        RequestKind::Timing,
        RequestKind::Analyze,
    ] {
        let mut r = session_request(kind, 1, "ghost");
        r.edits = Some("add-node t1 not\n".to_owned());
        let resp = c.call(&r).unwrap();
        assert!(!resp.ok);
        assert_eq!(
            resp.error.expect("typed error").code.as_str(),
            "session_expired",
            "{kind}"
        );
    }
    // A session-tagged embed is a bad request, not a silent fallback.
    let mut r = session_request(RequestKind::Embed, 2, "ghost");
    r.design = Some(write_cdfg(&iir4_parallel()));
    r.author = Some("x".to_owned());
    let resp = c.call(&r).unwrap();
    assert!(!resp.ok);
    assert_eq!(
        resp.error.expect("typed error").code.as_str(),
        "bad_request"
    );
    handle.shutdown();
}

#[test]
fn call_repeated_reuses_one_connection_for_the_warm_path() {
    let handle = start_server(2, 16);
    let mut c = connect(&handle);
    let design = write_cdfg(&iir4_parallel());
    let (last, latencies) = c.call_repeated(&timing_request(1, &design), 5).unwrap();
    assert!(last.ok);
    assert_eq!(latencies.len(), 5);

    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    let cache = stats.result_field("cache").expect("cache stats");
    assert_eq!(
        cache.field("hits"),
        Some(&Value::Int(4)),
        "repeats 2..=5 hit the context cache over the kept-alive connection"
    );
    handle.shutdown();
}

#[test]
fn restarted_server_answers_from_the_store_without_reparsing() {
    let dir = std::env::temp_dir().join(format!("localwm-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = || ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        cache_cap: 4,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    };
    let apps = mediabench_apps();
    let designs = [
        write_cdfg(&iir4_parallel()),
        write_cdfg(&mediabench(&apps[0], 0)),
    ];

    // First life: populate the store through parse misses.
    let first = localwm_serve::start(store_cfg()).expect("bind first life");
    let mut reference = Vec::new();
    {
        let mut c = connect(&first);
        for (i, d) in designs.iter().enumerate() {
            c.send(&timing_request(i as u64, d)).unwrap();
            reference.push(c.recv_line().unwrap());
        }
        let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
        let store = stats.result_field("store").expect("store stats");
        assert_eq!(
            store.field("records"),
            Some(&Value::Int(4)),
            "design + alias per design"
        );
        assert_eq!(store.field("puts"), Some(&Value::Int(4)));
    }
    first.shutdown();

    // Second life, same --store-dir: byte-identical answers, served from
    // the store (store hits, no new puts — nothing was reparsed).
    let second = localwm_serve::start(store_cfg()).expect("bind second life");
    {
        let mut c = connect(&second);
        for (i, d) in designs.iter().enumerate() {
            c.send(&timing_request(i as u64, d)).unwrap();
            assert_eq!(
                c.recv_line().unwrap(),
                reference[i],
                "a warm restart must not change response bytes"
            );
        }
        let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
        let store = stats.result_field("store").expect("store stats");
        assert_eq!(
            store.field("hits"),
            Some(&Value::Int(4)),
            "alias + design lookup per design"
        );
        assert_eq!(store.field("puts"), Some(&Value::Int(0)));
        assert_eq!(store.field("dropped_tail"), Some(&Value::Int(0)));
        let cache = stats.result_field("cache").expect("cache stats");
        assert_eq!(
            cache.field("misses"),
            Some(&Value::Int(2)),
            "store loads still count as cache misses"
        );
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nesting_bomb_line_is_a_typed_bad_request_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start_server(2, 16);

    // One 200 KB line of `[`: the JSON parser once recursed on it until
    // the connection thread's stack overflowed and took the process down.
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = vec![b'['; 200 * 1024];
    line.push(b'\n');
    stream.write_all(&line).expect("send the bomb");
    let mut answer = String::new();
    if let Ok(n) = BufReader::new(stream).read_line(&mut answer) {
        // Zero bytes is a clean close; anything else must be typed.
        assert!(n == 0 || answer.contains("bad_request"), "{answer}");
    }

    // The process survived: a new connection still gets answers.
    let mut c = connect(&handle);
    let resp = c.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    handle.shutdown();
}

#[test]
fn an_over_cap_line_is_answered_then_the_connection_closes() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start_server(2, 16);

    // A request the server answers, then a line longer than the cap that
    // the client is still sending when the answers come: the first line is
    // answered, the second gets a typed bad_request, and the connection
    // closes cleanly, with every answer delivered before the end of stream.
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sender = stream.try_clone().expect("clone");
    let sending = std::thread::spawn(move || {
        let mut bytes = b"{\"kind\":\"timing\",\"id\":1}\n".to_vec();
        bytes.resize(bytes.len() + localwm_serve::MAX_LINE_BYTES + 1, b' ');
        sender.write_all(&bytes).expect("send the long line");
        // The tail may meet a closed socket; only the answers matter.
        for _ in 0..16 {
            if sender.write_all(&[b' '; 64 << 10]).is_err() {
                return;
            }
        }
        let _ = sender.write_all(b"{}\n");
    });
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first answer");
    assert!(
        first.contains("\"id\":1") && first.contains("missing `design`"),
        "{first}"
    );
    let mut second = String::new();
    reader.read_line(&mut second).expect("typed answer");
    let resp = localwm_serve::Response::from_line(second.trim_end()).expect("a response line");
    let err = resp.error.expect("an error");
    assert_eq!(err.code, localwm_serve::ErrorCode::BadRequest);
    assert_eq!(
        err.message,
        format!(
            "request line exceeds {} bytes",
            localwm_serve::MAX_LINE_BYTES
        )
    );
    // Closed cleanly: end of stream, not a reset or a read that times out.
    let mut rest = String::new();
    let tail = reader.read_line(&mut rest);
    assert!(matches!(tail, Ok(0)), "not a clean close: {tail:?} {rest}");
    sending.join().expect("sender");

    // The server survived: a new connection still gets answers.
    let mut c = connect(&handle);
    let resp = c.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    handle.shutdown();
}

#[test]
fn a_line_that_is_not_utf8_is_answered_and_the_connection_keeps_reading() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start_server(2, 16);

    // Once the server hung up at the bad line, and the `stats` pipelined
    // behind it was dropped unanswered.
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"{\"kind\":\"stats\",\"id\":1}\n\xff\xfe\n{\"kind\":\"stats\",\"id\":2}\n")
        .expect("send three lines");
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("an answer");
        answers.push(localwm_serve::Response::from_line(line.trim_end()).expect("a response"));
    }
    assert!(answers[0].ok && answers[0].id == Some(1));
    let err = answers[1].error.as_ref().expect("a typed error");
    assert_eq!(err.code, localwm_serve::ErrorCode::BadRequest);
    assert_eq!(err.message, "request line is not valid UTF-8");
    assert_eq!(
        answers[1].to_line(),
        localwm_serve::line_not_utf8().to_line()
    );
    assert!(answers[2].ok && answers[2].id == Some(2));
    handle.shutdown();
}

#[test]
fn a_budget_list_past_the_cap_is_a_typed_bad_request() {
    let handle = start_server(2, 16);
    let mut c = connect(&handle);
    let mut req = Request::new(RequestKind::Strength);
    req.id = Some(1);
    req.design = Some(write_cdfg(&iir4_parallel()));
    req.author = Some("cap".to_owned());
    let max = localwm_attack::MAX_BUDGETS;
    // A list this long once ran every attack kind at each level.
    req.budgets = Some(vec!["0.1"; 1_000_000].join(","));
    let resp = c.call(&req).unwrap();
    let err = resp.error.expect("refused");
    assert_eq!(err.code, localwm_serve::ErrorCode::BadRequest);
    assert_eq!(
        err.message,
        format!("`budgets` lists more than {max} levels")
    );
    req.budgets = Some(vec!["0"; max + 1].join(","));
    assert!(
        !c.call(&req).unwrap().ok,
        "{} levels are one too many",
        max + 1
    );
    // Exactly the cap is served.
    req.budgets = Some(vec!["0"; max].join(","));
    let resp = c.call(&req).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    handle.shutdown();
}

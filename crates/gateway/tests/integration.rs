//! Gateway end-to-end tests: real `localwm-serve` backends on loopback,
//! a gateway routing over them, a [`Client`] driving the gateway.

use std::time::Duration;

use localwm_cdfg::designs::iir4_parallel;
use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::write_cdfg;
use localwm_gateway::{BackendSpec, GatewayConfig, GatewayHandle};
use localwm_serve::{Client, ErrorCode, Request, RequestKind, ServeConfig, ServerHandle};
use serde::Value;

fn start_backend() -> ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        cache_cap: 8,
        ..ServeConfig::default()
    })
    .expect("bind backend")
}

/// A gateway config tuned for tests: no prober, no backoff sleeps.
fn fast_config(backends: Vec<BackendSpec>, replicas: usize) -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends,
        replicas,
        max_retries: 1,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        recv_timeout_ms: 10_000,
        health_interval_ms: None,
        record_routes: true,
    }
}

fn spec(name: &str, backend: &ServerHandle) -> BackendSpec {
    BackendSpec {
        name: name.to_owned(),
        addr: backend.addr().to_string(),
    }
}

fn connect(gw: &GatewayHandle) -> Client {
    Client::connect_within(&gw.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

fn timing_request(id: u64, design: &str) -> Request {
    let mut r = Request::new(RequestKind::Timing);
    r.id = Some(id);
    r.design = Some(design.to_owned());
    r
}

fn designs() -> Vec<String> {
    let apps = mediabench_apps();
    vec![
        write_cdfg(&iir4_parallel()),
        write_cdfg(&mediabench(&apps[0], 0)),
        write_cdfg(&mediabench(&apps[1], 0)),
        write_cdfg(&mediabench(&apps[0], 7)),
    ]
}

#[test]
fn gateway_responses_are_byte_identical_to_direct_backend() {
    let b0 = start_backend();
    let b1 = start_backend();
    // The reference backend answers the same requests directly.
    let reference = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");

    let mut via_gw = connect(&gw);
    let mut direct =
        Client::connect_within(&reference.addr().to_string(), Duration::from_secs(5)).unwrap();
    for (i, design) in designs().iter().enumerate() {
        let req = timing_request(i as u64, design);
        via_gw.send(&req).unwrap();
        let routed = via_gw.recv_line().unwrap();
        direct.send(&req).unwrap();
        let reference_line = direct.recv_line().unwrap();
        assert_eq!(routed, reference_line, "design {i} bytes diverged");
    }

    // Both backends should have seen work across 4 distinct designs
    // (rendezvous spreads shards), and every route is recorded.
    let trace = gw.routing_trace();
    assert_eq!(trace.len(), 4);
    assert!(trace.iter().all(|r| r.failovers == 0 && r.attempts == 1));

    gw.shutdown();
    b0.shutdown();
    b1.shutdown();
    reference.shutdown();
}

#[test]
fn same_design_routes_to_the_same_backend_every_time() {
    let b0 = start_backend();
    let b1 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut c = connect(&gw);
    let design = write_cdfg(&iir4_parallel());
    for i in 0..6u64 {
        let resp = c.call(&timing_request(i, &design)).unwrap();
        assert!(resp.ok);
    }
    let trace = gw.routing_trace();
    assert_eq!(trace.len(), 6);
    let first = trace[0].backend.clone().expect("served");
    assert!(
        trace.iter().all(|r| r.backend.as_deref() == Some(&*first)),
        "one design = one shard = one backend: {trace:?}"
    );
    // All six hits share one shard key (the memoized content hash).
    assert!(trace.iter().all(|r| r.key == trace[0].key));

    gw.shutdown();
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn failover_to_replica_when_primary_dies() {
    let b0 = start_backend();
    let b1 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut c = connect(&gw);
    let design = write_cdfg(&iir4_parallel());

    let first = c.call(&timing_request(1, &design)).unwrap();
    assert!(first.ok);
    let primary = gw.routing_trace()[0].backend.clone().unwrap();

    // Kill the backend that owns this shard; its replica must take over
    // with the same response bytes.
    if primary == "b0" {
        b0.shutdown();
        c.send(&timing_request(2, &design)).unwrap();
        let after = c.recv_line().unwrap();
        let resp = localwm_serve::Response::from_line(&after).unwrap();
        assert!(resp.ok, "replica served after primary death: {after}");
        let trace = gw.routing_trace();
        assert_eq!(trace[1].backend.as_deref(), Some("b1"));
        assert_eq!(trace[1].failovers, 1);
        b1.shutdown();
    } else {
        b1.shutdown();
        c.send(&timing_request(2, &design)).unwrap();
        let after = c.recv_line().unwrap();
        let resp = localwm_serve::Response::from_line(&after).unwrap();
        assert!(resp.ok, "replica served after primary death: {after}");
        let trace = gw.routing_trace();
        assert_eq!(trace[1].backend.as_deref(), Some("b0"));
        assert_eq!(trace[1].failovers, 1);
        b0.shutdown();
    }
    gw.shutdown();
}

#[test]
fn exhausted_replicas_yield_typed_upstream_unavailable() {
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");
    let mut c = connect(&gw);
    b0.shutdown();

    let resp = c
        .call(&timing_request(9, &write_cdfg(&iir4_parallel())))
        .unwrap();
    assert!(!resp.ok);
    let err = resp.error.expect("typed error");
    assert_eq!(err.code, ErrorCode::UpstreamUnavailable);
    let tried = err
        .details
        .iter()
        .find(|(k, _)| k == "backends_tried")
        .map(|(_, v)| v.clone());
    assert_eq!(
        tried,
        Some(Value::Array(vec![Value::Str("b0".to_owned())])),
        "error names the exhausted backends"
    );
    let trace = gw.routing_trace();
    assert_eq!(trace[0].backend, None);
    assert_eq!(trace[0].attempts, 2, "1 try + 1 retry");

    gw.shutdown();
}

#[test]
fn update_backend_addr_reroutes_to_restarted_backend() {
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");
    let mut c = connect(&gw);
    let design = write_cdfg(&iir4_parallel());
    assert!(c.call(&timing_request(1, &design)).unwrap().ok);

    // "Restart" the backend: kill it, start a fresh one on a new port, and
    // point the gateway's `b0` entry at the new address. The shard identity
    // (the name) is unchanged, so routing is identical.
    b0.shutdown();
    let b0v2 = start_backend();
    assert!(gw.update_backend_addr("b0", &b0v2.addr().to_string()));
    assert!(!gw.update_backend_addr("nope", "127.0.0.1:1"));

    let resp = c.call(&timing_request(2, &design)).unwrap();
    assert!(resp.ok, "restarted backend serves the same shard");
    let trace = gw.routing_trace();
    assert_eq!(trace[0].key, trace[1].key);
    assert_eq!(trace[1].backend.as_deref(), Some("b0"));

    gw.shutdown();
    b0v2.shutdown();
}

fn session_request(kind: RequestKind, id: u64, session: &str) -> Request {
    let mut r = Request::new(kind);
    r.id = Some(id);
    r.session = Some(session.to_owned());
    r
}

#[test]
fn sessions_stick_to_one_backend_and_match_from_scratch() {
    let b0 = start_backend();
    let b1 = start_backend();
    let reference = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut c = connect(&gw);

    let mut open = session_request(RequestKind::Open, 1, "gw-s1");
    open.design = Some(write_cdfg(&iir4_parallel()));
    assert!(c.call(&open).unwrap().ok);
    let mut m = session_request(RequestKind::Mutate, 2, "gw-s1");
    m.edits = Some("add-node t9 not\nadd-edge data A9 t9\n".to_owned());
    assert!(c.call(&m).unwrap().ok);
    let mut q = session_request(RequestKind::Analyze, 3, "gw-s1");
    q.samples = Some(50);
    q.seed = Some(4);
    c.send(&q).unwrap();
    let via_session = c.recv_line().unwrap();
    assert!(
        c.call(&session_request(RequestKind::Close, 4, "gw-s1"))
            .unwrap()
            .ok
    );

    // Every session request hashed the session id, so one backend (and one
    // shard key) served the whole conversation.
    let trace = gw.routing_trace();
    assert_eq!(trace.len(), 4);
    let owner = trace[0].backend.clone().expect("served");
    assert!(
        trace
            .iter()
            .all(|r| r.backend.as_deref() == Some(&*owner) && r.key == trace[0].key),
        "session must stick to one backend: {trace:?}"
    );

    // The held analysis is byte-identical to a from-scratch analyze of the
    // mutated design against an untouched backend.
    let mut g = iir4_parallel();
    let t9 = g.add_named_node(localwm_cdfg::OpKind::Not, "t9");
    let a9 = g.node_by_name("A9").unwrap();
    g.add_data_edge(a9, t9).unwrap();
    let mut scratch = Request::new(RequestKind::Analyze);
    scratch.id = Some(3);
    scratch.design = Some(write_cdfg(&g));
    scratch.samples = Some(50);
    scratch.seed = Some(4);
    let mut direct =
        Client::connect_within(&reference.addr().to_string(), Duration::from_secs(5)).unwrap();
    direct.send(&scratch).unwrap();
    assert_eq!(via_session, direct.recv_line().unwrap());

    gw.shutdown();
    b0.shutdown();
    b1.shutdown();
    reference.shutdown();
}

#[test]
fn session_failover_is_a_typed_session_expired_never_silent() {
    let b0 = start_backend();
    let b1 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut c = connect(&gw);

    let mut open = session_request(RequestKind::Open, 1, "gw-s2");
    open.design = Some(write_cdfg(&iir4_parallel()));
    assert!(c.call(&open).unwrap().ok);
    let owner = gw.routing_trace()[0].backend.clone().expect("served");

    // Kill the backend holding the session. The replica that takes the
    // shard over has no such session: the client gets a typed
    // `session_expired` telling it to re-open — never a silent success
    // against stale state, never a dropped request.
    let survivor = if owner == "b0" {
        b0.shutdown();
        b1
    } else {
        b1.shutdown();
        b0
    };
    let resp = c
        .call(&session_request(RequestKind::Timing, 2, "gw-s2"))
        .unwrap();
    assert!(!resp.ok);
    assert_eq!(
        resp.error.expect("typed error").code,
        ErrorCode::SessionExpired
    );
    let trace = gw.routing_trace();
    assert_eq!(
        trace[1].failovers, 1,
        "replica answered after the owner died"
    );

    // Re-opening on the survivor works: same id, fresh state.
    let mut reopen = session_request(RequestKind::Open, 3, "gw-s2");
    reopen.design = Some(write_cdfg(&iir4_parallel()));
    assert!(c.call(&reopen).unwrap().ok);

    gw.shutdown();
    survivor.shutdown();
}

#[test]
fn cluster_stats_aggregates_backend_gauges() {
    let b0 = start_backend();
    let b1 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut c = connect(&gw);
    for (i, design) in designs().iter().enumerate() {
        assert!(c.call(&timing_request(i as u64, design)).unwrap().ok);
    }

    let resp = c.call(&Request::new(RequestKind::ClusterStats)).unwrap();
    assert!(resp.ok);
    assert_eq!(resp.kind, "cluster_stats");
    let agg = resp.result_field("aggregate").expect("aggregate");
    assert_eq!(agg.field("backends"), Some(&Value::Int(2)));
    assert_eq!(agg.field("healthy"), Some(&Value::Int(2)));
    assert_eq!(
        agg.field("workers"),
        Some(&Value::Int(4)),
        "2 workers per backend, summed"
    );
    assert_eq!(agg.field("queue_depth"), Some(&Value::Int(0)));
    // Fleet-wide sharded-cache and work-stealing-pool aggregates: each
    // backend's timing requests were cache misses, summed here.
    let cache = agg.field("cache").expect("aggregate cache block");
    let misses = match cache.field("misses") {
        Some(Value::Int(n)) => *n,
        other => panic!("cache misses should be an int, got {other:?}"),
    };
    assert!(misses >= 2, "both backends parsed at least one design");
    let pool = agg.field("pool").expect("aggregate pool block");
    assert!(
        pool.field("steals").is_some() && pool.field("cross_batch_steals").is_some(),
        "pool aggregate carries the work-stealing counters"
    );
    let store = agg.field("store").expect("aggregate store block");
    assert_eq!(
        store.field("mounted"),
        Some(&Value::Int(0)),
        "these backends run memory-only"
    );
    let protocol = agg.field("protocol").expect("aggregate protocol block");
    assert!(matches!(protocol.field("json_requests"), Some(&Value::Int(n)) if n > 0));
    let backends = match resp.result_field("backends") {
        Some(Value::Array(a)) => a.clone(),
        other => panic!("expected backend array, got {other:?}"),
    };
    assert_eq!(backends.len(), 2);
    let total_served: i64 = backends
        .iter()
        .map(|b| match b.field("served") {
            Some(Value::Int(n)) => *n,
            _ => 0,
        })
        .sum();
    assert_eq!(total_served, 4, "every routed request counted once");
    for b in &backends {
        assert!(
            !matches!(b.field("upstream"), Some(Value::Null) | None),
            "healthy backend carries its upstream stats snapshot"
        );
    }
    let gwstats = resp.result_field("gateway").expect("gateway section");
    assert_eq!(gwstats.field("routed"), Some(&Value::Int(4)));
    assert_eq!(gwstats.field("upstream_errors"), Some(&Value::Int(0)));

    // The gateway's own `stats` answers with the routing view.
    let stats = c.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(stats.ok);
    assert_eq!(
        stats.result_field("role"),
        Some(&Value::Str("gateway".to_owned()))
    );

    gw.shutdown();
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn gateway_shutdown_request_drains_but_leaves_backends_running() {
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");
    let mut c = connect(&gw);
    let resp = c.call(&Request::new(RequestKind::Shutdown)).unwrap();
    assert!(resp.ok);
    gw.join();

    // The backend is untouched: still answers directly.
    let mut direct =
        Client::connect_within(&b0.addr().to_string(), Duration::from_secs(5)).unwrap();
    let resp = direct
        .call(&timing_request(1, &write_cdfg(&iir4_parallel())))
        .unwrap();
    assert!(resp.ok, "backend survives gateway shutdown");
    b0.shutdown();
}

#[test]
fn malformed_lines_get_the_same_typed_error_as_a_backend() {
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");

    let mut via_gw = connect(&gw);
    let mut direct =
        Client::connect_within(&b0.addr().to_string(), Duration::from_secs(5)).unwrap();
    // The first bad line opened a connection in the retired binary
    // framing; it is now one more malformed request on a JSON-lines
    // connection that keeps answering.
    let bad_lines = ["LWMB1", "not json", r#"{"id":1}"#, r#"{"kind":"explode"}"#];
    for client in [&via_gw, &direct] {
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
    }
    for bad in bad_lines {
        via_gw.send_line(bad).unwrap();
        direct.send_line(bad).unwrap();
        let answer = via_gw.recv_line().unwrap();
        assert!(
            answer.contains("\"code\":\"bad_request\""),
            "malformed `{bad}`: {answer}"
        );
        assert_eq!(
            answer,
            direct.recv_line().unwrap(),
            "malformed `{bad}` diverged"
        );
    }
    // Both edges count one connection and every line it sent, this
    // `stats` call included; none of the bad lines reached the backend
    // through the gateway.
    for client in [&mut via_gw, &mut direct] {
        let stats = client.call(&Request::new(RequestKind::Stats)).unwrap();
        let protocol = stats.result_field("protocol").expect("protocol block");
        assert_eq!(protocol.field("json_conns"), Some(&Value::Int(1)));
        assert_eq!(
            protocol.field("json_requests"),
            Some(&Value::Int(bad_lines.len() as i64 + 1))
        );
    }

    gw.shutdown();
    b0.shutdown();
}

#[test]
fn store_backed_fleet_aggregates_store_stats_through_cluster_stats() {
    let dir = std::env::temp_dir().join(format!("localwm-gw-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        cache_cap: 8,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
        ..ServeConfig::default()
    })
    .expect("bind store-backed backend");
    let gw =
        localwm_gateway::start(fast_config(vec![spec("b0", &backend)], 1)).expect("start gateway");

    let mut c = connect(&gw);
    let design = write_cdfg(&iir4_parallel());
    assert!(c.call(&timing_request(1, &design)).unwrap().ok);

    let cluster = c.call(&Request::new(RequestKind::ClusterStats)).unwrap();
    let store = cluster
        .result_field("aggregate")
        .expect("aggregate")
        .field("store")
        .expect("store block")
        .clone();
    assert_eq!(store.field("mounted"), Some(&Value::Int(1)));
    assert_eq!(
        store.field("records"),
        Some(&Value::Int(2)),
        "design + alias written through on the parse miss"
    );
    assert!(matches!(store.field("bytes"), Some(&Value::Int(n)) if n > 0));

    gw.shutdown();
    backend.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nesting_bomb_line_is_a_typed_bad_request_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");

    // One 200 KB line of `[`: the JSON parser once recursed on it until
    // the connection thread's stack overflowed.
    let mut stream = std::net::TcpStream::connect(gw.addr()).expect("connect");
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

    // The gateway survived: a new connection still gets answers.
    let mut c = connect(&gw);
    let resp = c.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    gw.shutdown();
    b0.shutdown();
}

#[test]
fn an_over_cap_line_is_answered_then_the_connection_closes() {
    use std::io::{BufRead, BufReader, Write};
    let b0 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0)], 1)).expect("start gateway");

    // A request the gateway answers, then a line longer than the cap that
    // the client is still sending when the answers come: the first line is
    // answered, the second gets a typed bad_request, and the connection
    // closes cleanly, with every answer delivered before the end of stream.
    let stream = std::net::TcpStream::connect(gw.addr()).expect("connect");
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
    assert_eq!(err.code, ErrorCode::BadRequest);
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

    // The gateway survived: a new connection still gets answers.
    let mut c = connect(&gw);
    let resp = c.call(&Request::new(RequestKind::Stats)).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    gw.shutdown();
    b0.shutdown();
}

#[test]
fn out_of_range_samples_are_a_typed_bad_request_everywhere() {
    let b0 = start_backend();
    let b1 = start_backend();
    let gw = localwm_gateway::start(fast_config(vec![spec("b0", &b0), spec("b1", &b1)], 2))
        .expect("start gateway");
    let mut via_gw = connect(&gw);
    let mut direct =
        Client::connect_within(&b0.addr().to_string(), Duration::from_secs(5)).unwrap();

    // 10^11 samples once aborted every backend it reached on a 400 GB
    // allocation; zero samples panicked inside the handler.
    let design = write_cdfg(&iir4_parallel());
    for (i, samples) in [100_000_000_000usize, 1_000_001, 0].into_iter().enumerate() {
        let mut req = Request::new(RequestKind::Analyze);
        req.id = Some(i as u64);
        req.design = Some(design.clone());
        req.samples = Some(samples);
        for c in [&mut direct, &mut via_gw] {
            let resp = c.call(&req).unwrap();
            assert!(!resp.ok, "{samples} samples must be refused");
            let err = resp.error.expect("typed error");
            assert_eq!(err.code, ErrorCode::BadRequest, "{}", err.message);
            assert!(err.message.contains("1..=1000000"), "{}", err.message);
        }
    }

    // Every process is still up and answering.
    for c in [&mut direct, &mut via_gw] {
        let resp = c.call(&Request::new(RequestKind::Stats)).unwrap();
        assert!(resp.ok, "{:?}", resp.error);
    }
    for b in [&b0, &b1] {
        let mut c = Client::connect_within(&b.addr().to_string(), Duration::from_secs(5)).unwrap();
        assert!(c.call(&Request::new(RequestKind::Stats)).unwrap().ok);
    }
    let mut req = Request::new(RequestKind::Analyze);
    req.design = Some(design);
    req.samples = Some(1);
    assert!(via_gw.call(&req).unwrap().ok, "one sample is in range");

    gw.shutdown();
    b0.shutdown();
    b1.shutdown();
}

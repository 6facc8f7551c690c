//! Cluster-level acceptance tests: gateway byte-identity over the full
//! golden corpus, golden transcript conformance, and deterministic
//! backend-kill chaos with zero silent drops.

use localwm_testkit::cluster::{self, ClusterConfig, ClusterHarness, GatewayChaosConfig};
use localwm_testkit::corpus;

/// The tentpole acceptance criterion: a gateway in front of 1 and 2
/// backends produces responses byte-identical to the in-process reference
/// over the *full* golden corpus stream — typed errors included.
#[test]
fn gateway_is_byte_identical_over_the_full_corpus() {
    let requests = corpus::corpus_requests(&corpus::builtin_cases());
    let report = cluster::run_gateway_differential(&requests, &[1, 2]).expect("cluster lanes");
    assert_eq!(report.requests, requests.len());
    for lane in ["gateway-1", "gateway-2"] {
        assert!(
            report.lanes.iter().any(|l| l == lane),
            "lane {lane} missing from {:?}",
            report.lanes
        );
    }
    assert!(
        report.error_responses >= 5,
        "the corpus stream must cover typed errors, saw {}",
        report.error_responses
    );
    assert!(
        report.mismatches.is_empty(),
        "gateway responses diverged from a single backend:\n{:#?}",
        report.mismatches
    );
}

/// The committed routing transcript matches a fresh 2-backend run: shard
/// keys, backend choices, attempt and failover counts are all stable.
#[test]
fn golden_gateway_transcript_has_not_drifted() {
    let drifts = cluster::check_transcript(&corpus::corpus_dir()).expect("transcript check");
    assert!(
        drifts.is_empty(),
        "gateway transcript drift (re-bless with `conformance --bless` if intended):\n{}",
        drifts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The transcript itself is a pure function of the corpus: two fresh
/// clusters (different ephemeral ports) produce identical transcripts.
#[test]
fn gateway_transcript_is_deterministic_across_clusters() {
    let a = cluster::transcript_text().expect("first run");
    let b = cluster::transcript_text().expect("second run");
    assert_eq!(a, b);
}

/// Killing a backend mid-stream with full replication: the client sees
/// every request answered (no silent drops, no upstream_unavailable), and
/// the routing trace shows the failover.
#[test]
fn backend_kill_with_full_replication_is_invisible_to_clients() {
    let out = cluster::run_gateway_chaos(&GatewayChaosConfig {
        seed: 7,
        requests: 24,
        backends: 2,
        replicas: 2,
        kill: true,
        restart: false,
        ..GatewayChaosConfig::default()
    })
    .expect("chaos run");
    assert!(
        out.violations.is_empty(),
        "violations: {:?}",
        out.violations
    );
    assert_eq!(out.trace.len(), 24, "every accepted request was routed");
    let failovers: u64 = out.trace.iter().map(|r| r.failovers).sum();
    assert!(
        failovers > 0,
        "the kill must force at least one failover (victim owned some shard)"
    );
    assert!(
        out.trace.iter().all(|r| r.backend.is_some()),
        "full replication: every request found a serving backend"
    );
}

/// With replicas=1 the kill is visible as typed `upstream_unavailable`
/// errors for the victim's shards — typed, never silent — and a restart
/// heals those shards for the rest of the stream.
#[test]
fn backend_kill_without_replication_yields_typed_errors_then_heals() {
    let out = cluster::run_gateway_chaos(&GatewayChaosConfig {
        seed: 3,
        requests: 32,
        backends: 2,
        replicas: 1,
        kill: true,
        restart: true,
        ..GatewayChaosConfig::default()
    })
    .expect("chaos run");
    assert!(
        out.violations.is_empty(),
        "violations: {:?}",
        out.violations
    );
    // No request may be silently dropped even while its only replica is
    // dead: the fates are all ok or typed errors.
    let fates = match out.report.field("fates_by_kind") {
        Some(serde::Value::Object(f)) => f.clone(),
        other => panic!("report missing fates_by_kind: {other:?}"),
    };
    assert!(
        fates
            .iter()
            .all(|(k, _)| k == "ok" || k.starts_with("error:")),
        "unexpected fate kinds: {fates:?}"
    );
    assert!(
        !fates.iter().any(|(k, _)| k == "silent_drop"),
        "silent drops recorded: {fates:?}"
    );
}

/// Same seed ⇒ identical chaos report, byte for byte: kill schedule,
/// routing trace, attempt counts, fates — all deterministic.
#[test]
fn gateway_chaos_is_deterministic_for_a_seed() {
    let cfg = GatewayChaosConfig {
        seed: 42,
        requests: 24,
        backends: 2,
        replicas: 2,
        kill: true,
        restart: true,
        ..GatewayChaosConfig::default()
    };
    let a = cluster::run_gateway_chaos(&cfg).expect("first run");
    let b = cluster::run_gateway_chaos(&cfg).expect("second run");
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "same seed must reproduce the identical report"
    );
    assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
}

/// Restarting a killed backend on a fresh port brings its shards home:
/// post-restart requests for the victim's shards are served by the victim
/// again (rendezvous ranks names, not addresses).
#[test]
fn restarted_backend_reclaims_its_shards() {
    let mut harness = ClusterHarness::start(ClusterConfig {
        backends: 2,
        replicas: 2,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let mut c = harness.client().expect("client");
    let design = localwm_cdfg::write_cdfg(&localwm_cdfg::designs::iir4_parallel());
    let mut req = localwm_serve::Request::new(localwm_serve::RequestKind::Timing);
    req.design = Some(design);

    req.id = Some(0);
    assert!(c.call(&req).expect("pre-kill").ok);
    let owner = harness.routing_trace()[0].backend.clone().expect("served");
    let victim: usize = owner.trim_start_matches('b').parse().expect("bN name");

    harness.kill_backend(victim).expect("kill");
    req.id = Some(1);
    assert!(c.call(&req).expect("during-kill").ok, "replica covered");
    harness.restart_backend(victim).expect("restart");
    req.id = Some(2);
    assert!(c.call(&req).expect("post-restart").ok);

    let trace = harness.routing_trace();
    assert_eq!(
        trace[2].backend.as_deref(),
        Some(owner.as_str()),
        "shard returned to its rendezvous owner after restart"
    );
    assert_eq!(trace[0].key, trace[2].key, "same design, same shard key");
    harness.shutdown();
}

/// `cluster_stats` through the harness aggregates the fleet: live gauges
/// from both backends plus per-backend routing counters.
#[test]
fn cluster_stats_reports_fleet_aggregates() {
    let harness = ClusterHarness::start(ClusterConfig::default()).expect("cluster");
    let mut c = harness.client().expect("client");
    let requests = corpus::corpus_requests(&corpus::builtin_cases());
    for req in requests.iter().take(8) {
        c.send(req).expect("send");
        c.recv_line().expect("recv");
    }
    let resp = c
        .call(&localwm_serve::Request::new(
            localwm_serve::RequestKind::ClusterStats,
        ))
        .expect("cluster_stats");
    assert!(resp.ok);
    let agg = resp.result_field("aggregate").expect("aggregate");
    assert_eq!(agg.field("backends"), Some(&serde::Value::Int(2)));
    assert_eq!(agg.field("healthy"), Some(&serde::Value::Int(2)));
    assert_eq!(
        agg.field("workers"),
        Some(&serde::Value::Int(2)),
        "1 worker per harness backend, summed"
    );
    let gw = resp.result_field("gateway").expect("gateway section");
    assert_eq!(gw.field("routed"), Some(&serde::Value::Int(8)));
    harness.shutdown();
}

//! Acceptance: the robustness kinds (`attack`/`strength`) produce
//! byte-identical responses through every lane — the in-process handlers
//! (serial and parallel), a live TCP server (cold/warm, lockstep and
//! pipelined), concurrent sharded clients, and a gateway-fronted cluster —
//! and the service's strength report is byte-identical to the library's
//! own sweep, so every surface tells the same robustness story.

use localwm_attack::{strength_report_in, StrengthConfig};
use localwm_core::{SchedWmConfig, Signature};
use localwm_engine::{DesignContext, Parallelism};
use localwm_serve::{handlers, ContextCache, Request, RequestKind};
use localwm_testkit::{cluster, corpus, oracle};

/// The corpus battery's attack/strength requests over every committed
/// design, renumbered as a standalone stream.
fn robustness_requests() -> Vec<Request> {
    let cases = corpus::load_cases(&corpus::corpus_dir())
        .expect("committed corpus on disk (run `conformance -- --bless` once)");
    let mut reqs: Vec<Request> = cases
        .iter()
        .flat_map(corpus::case_requests)
        .filter(|r| matches!(r.kind, RequestKind::Attack | RequestKind::Strength))
        .collect();
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = Some(i as u64);
    }
    reqs
}

#[test]
fn robustness_kinds_are_byte_identical_across_all_lanes() {
    let reqs = robustness_requests();
    assert!(
        reqs.len() >= 12,
        "one attack and one strength request per corpus design"
    );
    let report = oracle::run_differential(&reqs, 4).expect("all lanes ran");
    assert!(
        report.error_responses > 0,
        "serial designs must contribute typed no_incomparable_pairs errors"
    );
    assert!(
        report.mismatches.is_empty(),
        "robustness lanes diverged:\n{:#?}",
        report.mismatches
    );
}

#[test]
fn gateway_relays_strength_reports_byte_identically() {
    let reqs = robustness_requests();
    let report = cluster::run_gateway_differential(&reqs, &[2]).expect("cluster lanes ran");
    assert!(
        report.mismatches.is_empty(),
        "gateway lanes diverged:\n{:#?}",
        report.mismatches
    );
}

#[test]
fn service_strength_report_matches_the_library_bytes() {
    use serde::Serialize;

    let cases = corpus::load_cases(&corpus::corpus_dir()).expect("committed corpus on disk");
    let case = cases
        .iter()
        .find(|c| c.name == "iir4")
        .expect("iir4 in the corpus");
    // The exact strength request the corpus battery sends for this design.
    let mut req = Request::new(RequestKind::Strength);
    req.design = Some(case.design.clone());
    req.author = Some(corpus::CORPUS_AUTHOR.to_owned());
    req.fraction = Some(0.25);
    req.budgets = Some("0,0.15,0.45".to_owned());
    req.seed = Some(7);
    let cache = ContextCache::new(1);
    let service = handlers::execute(&cache, &req).expect("strength succeeds on iir4");

    let ctx = DesignContext::new(localwm_cdfg::parse_cdfg(&case.design).expect("design parses"));
    let sig = Signature::from_author(corpus::CORPUS_AUTHOR);
    let lib = strength_report_in(
        &ctx,
        &sig,
        Parallelism::Serial,
        &StrengthConfig {
            budgets: vec![0.0, 0.15, 0.45],
            seed: 7,
            wm: SchedWmConfig::with_node_fraction(0.25),
        },
    )
    .expect("library sweep succeeds");
    assert_eq!(
        serde_json::to_string(&service).expect("service json"),
        serde_json::to_string(&lib.to_value()).expect("library json"),
        "the service's strength result must be the library report, byte for byte"
    );
}

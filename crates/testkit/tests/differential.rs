//! Acceptance: the differential oracle proves in-process == TCP-cold ==
//! TCP-warm == serial == parallel == pipelined, byte for byte, on the full
//! golden corpus — typed-error cases included.

use localwm_testkit::corpus;
use localwm_testkit::oracle;

#[test]
fn corpus_lanes_are_byte_identical() {
    let cases = corpus::load_cases(&corpus::corpus_dir())
        .expect("committed corpus on disk (run `conformance -- --bless` once)");
    assert!(cases.len() >= 5, "the committed corpus has real breadth");
    let requests = corpus::corpus_requests(&cases);
    let report = oracle::run_differential(&requests, 4).expect("all lanes ran");

    assert_eq!(report.requests, requests.len());
    for lane in [
        "inproc-serial",
        "inproc-threads3",
        "inproc-env",
        "tcp-cold",
        "tcp-warm",
        "tcp-pipelined-w8-cold",
        "tcp-pipelined-w8-warm",
    ] {
        assert!(
            report.lanes.iter().any(|l| l == lane),
            "lane {lane} missing from {:?}",
            report.lanes
        );
    }
    assert!(
        report
            .lanes
            .iter()
            .filter(|l| l.starts_with("sharded-contended-c"))
            .count()
            >= 2,
        "contended lanes missing from {:?}",
        report.lanes
    );
    assert!(
        report.error_responses > 0,
        "the oracle must cover typed-error responses, not just successes"
    );
    assert!(
        report.mismatches.is_empty(),
        "lanes diverged:\n{:#?}",
        report.mismatches
    );
}

#[test]
fn probe_invariants_hold_on_every_corpus_design() {
    let cases = corpus::load_cases(&corpus::corpus_dir()).expect("committed corpus on disk");
    for case in &cases {
        oracle::probe_invariants(&case.design)
            .unwrap_or_else(|e| panic!("memo invariant broken on {}: {e}", case.name));
    }
}

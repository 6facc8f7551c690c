//! Each workload's inputs are a pure function of (workload, seed): the
//! same seed yields the same request-stream digest, another seed a
//! different one.

use localwm_e2e_bench::{Plan, Shape, Workload};

#[test]
fn the_request_stream_is_a_pure_function_of_workload_and_seed() {
    let shape = Shape::tiny();
    let mut seen = Vec::new();
    for w in Workload::ALL {
        let a = Plan::generate(w, 1, &shape).expect("plan").digest();
        let b = Plan::generate(w, 1, &shape).expect("plan").digest();
        let held_out = Plan::generate(w, 2, &shape).expect("plan").digest();
        assert_eq!(a, b, "{}: same seed, same stream", w.name());
        assert_ne!(a, held_out, "{}: seed 2 differs from seed 1", w.name());
        seen.push(a);
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        Workload::ALL.len(),
        "workloads differ from each other"
    );
}

#[test]
fn units_are_drawn_by_random_access() {
    let plan = Plan::generate(Workload::TimingOpen, 7, &Shape::tiny()).expect("plan");
    let forward: Vec<_> = (0..64).map(|n| plan.unit(1, n)).collect();
    let backward: Vec<_> = (0..64).rev().map(|n| plan.unit(1, n)).collect();
    assert!(forward.iter().eq(backward.iter().rev()));
    assert_ne!(
        forward,
        (0..64).map(|n| plan.unit(0, n)).collect::<Vec<_>>()
    );
}

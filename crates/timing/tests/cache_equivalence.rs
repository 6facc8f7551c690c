//! The incremental criticality cache against a from-scratch run, byte for
//! byte, across edit runs: seeded layered graphs and random DAGs, edge
//! additions and removals (removals on a longest path shrink the circuit
//! delay), zero-delay and fixed (`lo == hi`) intervals, sample counts off
//! the kernel's block width, and bounds small enough for 32-bit lanes or
//! large enough to need 64-bit ones.

use std::sync::Arc;

use localwm_cdfg::generators::{layered, random_dag, LayeredConfig};
use localwm_cdfg::{EdgeKind, OpKind};
use localwm_engine::{Parallelism, RecordingProbe};
use localwm_timing::{criticality_in, CriticalityCache, DelayInterval, DesignContext, KindBounds};
use proptest::prelude::*;

/// A model from its parameters: every op in `[lo, lo + span]`, adds fixed
/// at `lo + 1` (a `lo == hi` interval among drawn ones), and every delay
/// scaled by `2^30` when `wide`, so the path sum overflows `u32` lanes.
fn model(lo: u64, span: u64, wide: bool) -> KindBounds {
    let k = if wide { 1 << 30 } else { 1 };
    KindBounds::uniform(lo * k, (lo + span) * k)
        .with(OpKind::Add, DelayInterval::fixed((lo + 1) * k))
}

/// Replays `edits` on `ctx`, querying the cache after each batch of three
/// and at the end, and checks every answer against a scratch run. Returns
/// how many queries took the patch path.
fn replay(
    mut ctx: DesignContext,
    model: &KindBounds,
    samples: usize,
    seed: u64,
    edits: &[u16],
) -> Result<u64, TestCaseError> {
    let probe = Arc::new(RecordingProbe::new());
    ctx = ctx.with_probe(probe.clone());
    let mut cache = CriticalityCache::new();
    let check = |ctx: &DesignContext, cache: &mut CriticalityCache| {
        let inc = cache.criticality_in(ctx, model, samples, seed, Parallelism::Serial);
        let scratch = criticality_in(ctx, model, samples, seed, Parallelism::Serial);
        prop_assert_eq!(inc.samples, scratch.samples);
        prop_assert_eq!(&inc.delays, &scratch.delays);
        prop_assert_eq!(&inc.criticality, &scratch.criticality);
        Ok(())
    };
    check(&ctx, &mut cache)?;
    for (i, &code) in edits.iter().enumerate() {
        let code = usize::from(code);
        if code % 3 == 0 {
            // Remove an edge; on a longest path this shrinks the circuit.
            let edges: Vec<_> = ctx.graph().edge_ids().collect();
            if let Some(&victim) = edges.get(code % edges.len().max(1)) {
                prop_assert!(ctx.mutate(|ed| ed.remove_edge(victim)).is_ok());
            }
        } else {
            // A temporal edge forward in the current order: never a cycle.
            let order = ctx.topo().to_vec();
            let (x, y) = (code % order.len(), (code + 1 + i * 7) % order.len());
            if x != y {
                let (a, b) = (order[x.min(y)], order[x.max(y)]);
                prop_assert!(ctx
                    .mutate(|ed| ed.add_edge(EdgeKind::Temporal, a, b))
                    .is_ok());
            }
        }
        if i % 3 == 2 {
            check(&ctx, &mut cache)?;
        }
    }
    check(&ctx, &mut cache)?;
    prop_assert_eq!(probe.counter_value("timing.criticality.capture"), 1);
    Ok(probe.counter_value("timing.criticality.patch"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cache_equals_scratch_on_layered_graphs(
        ops in 10usize..160,
        seed in 0u64..5000,
        run_seed in 0u64..1000,
        samples in 1usize..70,
        lo in 0u64..3,
        span in 0u64..4,
        wide in 0u8..2,
        edits in proptest::collection::vec(0u16..1000, 1..24),
    ) {
        let g = layered(&LayeredConfig {
            ops,
            layers: (ops / 8).max(2),
            seed,
            ..Default::default()
        });
        let m = model(lo, span, wide == 1);
        let patched = replay(DesignContext::new(g), &m, samples, run_seed, &edits)?;
        prop_assert!(patched > 0, "every query after the first should patch");
    }

    #[test]
    fn cache_equals_scratch_on_random_dags(
        n in 4usize..60,
        p in 0.05f64..0.4,
        seed in 0u64..5000,
        run_seed in 0u64..1000,
        samples in 1usize..70,
        lo in 0u64..3,
        span in 0u64..4,
        wide in 0u8..2,
        edits in proptest::collection::vec(0u16..1000, 1..24),
    ) {
        let m = model(lo, span, wide == 1);
        replay(DesignContext::new(random_dag(n, p, seed)), &m, samples, run_seed, &edits)?;
    }
}

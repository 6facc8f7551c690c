//! Property-based tests for the timing analyses.

use localwm_cdfg::generators::{layered, random_dag, LayeredConfig};
use localwm_cdfg::{EdgeKind, NodeId};
use localwm_engine::Parallelism;
use localwm_timing::{
    bounded_arrival, bounded_critical_path, criticality_in, criticality_reference,
    CriticalityCache, DesignContext, KindBounds, UnitTiming,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// depth/tail invariants: laxity is bounded by the critical path and
    /// attained by at least one node.
    #[test]
    fn laxity_bounds(n in 2usize..80, p in 0.0f64..0.4, seed in 0u64..1000) {
        let g = random_dag(n, p, seed);
        let t = UnitTiming::new(&g);
        let cp = t.critical_path();
        let mut attained = false;
        for v in g.node_ids() {
            let l = t.laxity(v);
            prop_assert!(l <= cp);
            attained |= l == cp;
        }
        prop_assert!(attained, "some node must lie on the critical path");
    }

    /// ALAP is monotone in the deadline; ASAP never exceeds ALAP at any
    /// feasible deadline.
    #[test]
    fn alap_monotone(n in 2usize..60, p in 0.0f64..0.4, seed in 0u64..1000) {
        let g = random_dag(n, p, seed);
        let t = UnitTiming::new(&g);
        let cp = t.critical_path();
        for v in g.node_ids() {
            let mut prev = 0u32;
            for extra in 0..4u32 {
                let alap = t.alap(v, cp + extra);
                prop_assert!(t.asap(v) <= alap);
                prop_assert!(alap >= prev);
                prev = alap;
            }
        }
    }

    /// A temporal edge added through the context patches the memoized
    /// unit timing to exactly a fresh rebuild, for every node.
    #[test]
    fn incremental_equals_rebuild(seed in 0u64..500) {
        let g0 = layered(&LayeredConfig { ops: 80, layers: 8, seed, ..Default::default() });
        let nodes: Vec<NodeId> = g0
            .node_ids()
            .filter(|&v| g0.kind(v).is_schedulable())
            .collect();
        let (a, b) = (nodes[nodes.len() / 5], nodes[4 * nodes.len() / 5]);
        prop_assume!(!g0.reaches(a, b) && !g0.reaches(b, a));
        let mut ctx = DesignContext::new(g0);
        let _ = ctx.unit_timing();
        ctx.add_temporal_edge(a, b).expect("incomparable");
        let (g, inc) = (ctx.graph(), ctx.unit_timing());
        let fresh = UnitTiming::new(g);
        prop_assert_eq!(inc.critical_path(), fresh.critical_path());
        for v in g.node_ids() {
            prop_assert_eq!(inc.asap(v), fresh.asap(v));
            prop_assert_eq!(inc.tail(v), fresh.tail(v));
            prop_assert_eq!(inc.laxity(v), fresh.laxity(v));
        }
    }

    /// The staleness contract of the cross-mutation criticality cache: no
    /// interleaving of tracked mutations (temporal-edge adds, edge
    /// removals) and queries can make a cached report diverge from a
    /// from-scratch run on the current graph. This is the external
    /// `generation()`/`dirty_since()` consumer the engine's dirty
    /// tracking exists for, driven through the same mutate path sessions
    /// use.
    #[test]
    fn criticality_cache_never_stale_under_interleaving(
        n in 10usize..40,
        p in 0.08f64..0.3,
        seed in 0u64..500,
        schedule in proptest::collection::vec(0u8..=255, 2..16),
    ) {
        let g = random_dag(n, p, seed);
        let mut ctx = DesignContext::new(g);
        let model = KindBounds::uniform(1, 4);
        let mut cache = CriticalityCache::new();
        for (i, &code) in schedule.iter().enumerate() {
            match code % 4 {
                0 => {
                    // Temporal-edge add, forward in the current order so it
                    // can never create a cycle.
                    let order = ctx.topo().to_vec();
                    let a = order[usize::from(code) % order.len()];
                    let b = order[(usize::from(code) + 1 + i) % order.len()];
                    if a != b && !ctx.reaches(a, b) && !ctx.reaches(b, a) {
                        prop_assert!(ctx.mutate(|ed| ed.add_edge(EdgeKind::Temporal, a, b)).is_ok());
                    }
                }
                1 => {
                    let edges: Vec<_> = ctx.graph().edge_ids().collect();
                    if !edges.is_empty() {
                        let victim = edges[usize::from(code) % edges.len()];
                        prop_assert!(ctx.mutate(|ed| ed.remove_edge(victim)).is_ok());
                    }
                }
                _ => {
                    let inc = cache.criticality_in(&ctx, &model, 32, 9, Parallelism::Serial);
                    let scratch = criticality_in(&ctx, &model, 32, 9, Parallelism::Serial);
                    prop_assert_eq!(inc.samples, scratch.samples);
                    prop_assert_eq!(&inc.delays, &scratch.delays);
                    prop_assert_eq!(&inc.criticality, &scratch.criticality);
                }
            }
        }
    }

    /// The SoA block kernel is byte-identical to the per-sample reference
    /// for any random CDFG, seed, sample count (short final blocks
    /// included), worker count, and bounds — from `u32` rows up to bounds
    /// whose sum only fits `u64` rows.
    #[test]
    fn soa_criticality_equals_reference(
        n in 5usize..50,
        p in 0.05f64..0.35,
        seed in 0u64..1000,
        run_seed in 0u64..1000,
        samples in 1usize..70,
        threads in 1usize..4,
        lo in 0u64..4,
        span in 0u64..6,
        scale in 0u32..3,
    ) {
        let g = random_dag(n, p, seed);
        let ctx = DesignContext::new(g);
        // scale 0: small delays; 1: near u32::MAX per op, so the sum
        // spills into u64 rows; 2: ~2^57 per op.
        let unit = [1u64, 1 << 27, 1 << 52][scale as usize];
        let model = KindBounds::uniform(lo * unit, (lo + span) * unit);
        let par = if threads == 1 { Parallelism::Serial } else { Parallelism::Threads(threads) };
        let kernel = criticality_in(&ctx, &model, samples, run_seed, par);
        let reference = criticality_reference(ctx.graph(), &model, samples, run_seed);
        prop_assert_eq!(&kernel.delays, &reference.delays);
        prop_assert_eq!(&kernel.criticality, &reference.criticality);
    }

    /// Interval analysis: per-node finish intervals are ordered and the
    /// circuit interval scales linearly when the model scales.
    #[test]
    fn interval_scaling(n in 2usize..60, p in 0.0f64..0.4, seed in 0u64..1000) {
        let g = random_dag(n, p, seed);
        let one = bounded_critical_path(&g, &KindBounds::uniform(1, 2));
        let two = bounded_critical_path(&g, &KindBounds::uniform(2, 4));
        prop_assert_eq!(two.lo, 2 * one.lo);
        prop_assert_eq!(two.hi, 2 * one.hi);
        let arr = bounded_arrival(&g, &KindBounds::uniform(1, 2));
        for f in &arr.finish {
            prop_assert!(f.lo <= f.hi);
            prop_assert!(f.hi <= arr.critical_path.hi);
        }
    }

    /// Window overlap is symmetric and reflexive for schedulable nodes.
    #[test]
    fn overlap_symmetric(n in 2usize..50, p in 0.0f64..0.4, seed in 0u64..500) {
        let g = random_dag(n, p, seed);
        let t = UnitTiming::new(&g);
        let steps = t.critical_path() + 2;
        for u in g.node_ids() {
            prop_assert!(t.windows_overlap(u, u, steps));
            for v in g.node_ids() {
                prop_assert_eq!(
                    t.windows_overlap(u, v, steps),
                    t.windows_overlap(v, u, steps)
                );
            }
        }
    }
}

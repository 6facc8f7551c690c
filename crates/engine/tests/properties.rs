//! Property-based tests for the shared engine layer.
//!
//! The central claim of [`DesignContext`] is that memoization is
//! *transparent*: no interleaving of queries and mutations can make a
//! cached answer diverge from direct recomputation on the current graph.
//! These tests drive a context through random query/mutation schedules and
//! compare every memoized result against a from-scratch analysis.

use localwm_cdfg::analysis::{fanin_within, levels_from};
use localwm_cdfg::generators::random_dag;
use localwm_cdfg::{topo_order, EdgeId, NodeId, OpKind};
use localwm_engine::{
    bounded_arrival, possibly_critical, DesignContext, KindBounds, Parallelism, RecordingProbe,
    UnitTiming,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a random schedule: which memoized query to issue, or
/// whether to mutate the graph between queries.
#[derive(Debug, Clone, Copy)]
enum Op {
    Topo,
    CriticalPath,
    Windows(u32),
    Levels,
    Fanin(u32),
    Bounded,
    Mutate,
    Remove,
    Grow,
}

fn decode(code: u8) -> Op {
    match code % 10 {
        0 => Op::Topo,
        1 => Op::CriticalPath,
        2 => Op::Windows(u32::from(code / 10)),
        3 => Op::Levels,
        4 => Op::Fanin(u32::from(code % 4) + 1),
        5 => Op::Bounded,
        6 | 7 => Op::Mutate,
        8 => Op::Remove,
        _ => Op::Grow,
    }
}

/// Checks every memoized analysis against direct recomputation on the
/// context's current graph.
fn assert_matches_recompute(ctx: &DesignContext, deadline_extra: u32) {
    let g = ctx.graph();
    // The memoized order may legitimately differ from the canonical
    // from-scratch order after an incremental mutation (the context keeps
    // a stale-but-valid order and patches the CSR in place); what must
    // hold is that it is a *valid* topological order of the current graph.
    // Every value-level analysis below is still checked byte-exactly.
    let fresh_topo = topo_order(g).expect("generated graphs are DAGs");
    let order = ctx.topo();
    assert_eq!(order.len(), fresh_topo.len(), "order must cover every node");
    let mut pos = vec![usize::MAX; g.node_count()];
    for (i, &v) in order.iter().enumerate() {
        assert_eq!(pos[v.index()], usize::MAX, "order repeats {v}");
        pos[v.index()] = i;
    }
    for e in g.edge_ids() {
        let edge = g.edge(e).expect("live edge");
        assert!(
            pos[edge.src().index()] < pos[edge.dst().index()],
            "memoized order violates edge {} -> {}",
            edge.src(),
            edge.dst()
        );
    }

    let fresh = UnitTiming::new(g);
    let cp = fresh.critical_path();
    assert_eq!(ctx.critical_path(), cp, "critical path diverged");
    for v in g.node_ids() {
        assert_eq!(ctx.unit_timing().asap(v), fresh.asap(v));
        assert_eq!(ctx.laxity(v), fresh.laxity(v));
    }

    let deadline = cp + deadline_extra;
    let w = ctx.windows(deadline).expect("deadline >= critical path");
    for v in g.node_ids() {
        assert_eq!(w.asap(v), fresh.asap(v));
        assert_eq!(w.alap(v), fresh.alap(v, deadline));
        assert_eq!(w.mobility(v), fresh.mobility(v, deadline));
    }

    let model = KindBounds::uniform(1, 3);
    let direct = bounded_arrival(g, &model);
    let memo = ctx.bounded_arrival(&model);
    assert_eq!(memo.critical_path, direct.critical_path);
    assert_eq!(memo.finish, direct.finish, "finish times diverged");
    assert_eq!(memo.tail, direct.tail, "tails diverged");
    assert_eq!(
        *ctx.possibly_critical_shared(&model),
        possibly_critical(g, &model),
        "possibly-critical set diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of queries, temporal-edge insertions, removals and
    /// node additions leaves the memoized analyses equal to direct
    /// recomputation. Graphs past 128 nodes have patches that outgrow
    /// the default `cone_limit` and fall back to a rebuild.
    #[test]
    fn memoized_equals_recomputed_under_interleaving(
        n in 4usize..200,
        p in 0.05f64..0.4,
        seed in 0u64..1000,
        schedule in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        let g = random_dag(n, p, seed);
        let mut ctx = DesignContext::new(g);
        let mut pair = 0usize;
        for (i, &code) in schedule.iter().enumerate() {
            match decode(code) {
                Op::Topo => { let _ = ctx.topo(); }
                Op::CriticalPath => { let _ = ctx.critical_path(); }
                Op::Windows(extra) => {
                    let cp = ctx.critical_path();
                    prop_assert!(ctx.windows(cp + extra).is_ok());
                }
                Op::Levels => {
                    let root = ctx.topo()[0];
                    let direct = levels_from(ctx.graph(), root);
                    prop_assert_eq!(ctx.levels_from(root).as_slice(), direct.as_slice());
                }
                Op::Fanin(d) => {
                    let nodes: Vec<NodeId> = ctx.graph().node_ids().collect();
                    let v = nodes[i % nodes.len()];
                    let direct = fanin_within(ctx.graph(), v, d);
                    prop_assert_eq!(ctx.fanin_cone(v, d).as_slice(), direct.as_slice());
                }
                Op::Bounded => {
                    let _ = ctx.bounded_critical_path(&KindBounds::uniform(1, 3));
                }
                Op::Mutate => {
                    // Draw a forward pair in topo order: adding the edge can
                    // never create a cycle; skip already-comparable pairs.
                    let order = ctx.topo().to_vec();
                    let a = order[pair % order.len()];
                    let b = order[(pair + 1 + i) % order.len()];
                    pair += 1;
                    let gen_before = ctx.generation();
                    if !ctx.reaches(a, b) && !ctx.reaches(b, a) && a != b {
                        prop_assert!(ctx.add_temporal_edge(a, b).is_ok());
                        prop_assert!(ctx.generation() > gen_before,
                            "mutation must bump the generation");
                    }
                }
                Op::Remove => {
                    // Removals go through the tracked mutate path; they can
                    // never break the memoized order, only loosen it.
                    let edges: Vec<EdgeId> = ctx.graph().edge_ids().collect();
                    if !edges.is_empty() {
                        let victim = edges[(pair + i) % edges.len()];
                        pair += 1;
                        let gen_before = ctx.generation();
                        prop_assert!(ctx.mutate(|ed| ed.remove_edge(victim)).is_ok());
                        prop_assert!(ctx.generation() > gen_before,
                            "removal must bump the generation");
                    }
                }
                Op::Grow => {
                    // A new op fed by an existing node: appended at the
                    // tail of the order, a seed of every patch.
                    let order = ctx.topo().to_vec();
                    let anchor = order[(pair + i) % order.len()];
                    pair += 1;
                    ctx.mutate(|ed| {
                        let v = ed.add_node(OpKind::Not);
                        ed.add_data_edge(anchor, v).expect("forward edge");
                    });
                }
            }
            assert_matches_recompute(&ctx, u32::from(code % 5));
        }
    }

    /// Cached handles returned *before* a mutation stay internally
    /// consistent snapshots, while fresh queries see the new graph.
    #[test]
    fn mutation_invalidates_but_old_snapshots_survive(
        n in 6usize..40,
        p in 0.05f64..0.35,
        seed in 0u64..1000,
    ) {
        let g = random_dag(n, p, seed);
        let mut ctx = DesignContext::new(g);
        let cp0 = ctx.critical_path();
        let snapshot = ctx.windows(cp0 + 2).expect("feasible");

        // Find an incomparable forward pair to connect.
        let order = ctx.topo().to_vec();
        let mut edge = None;
        'outer: for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if !ctx.reaches(a, b) && !ctx.reaches(b, a) {
                    edge = Some((a, b));
                    break 'outer;
                }
            }
        }
        prop_assume!(edge.is_some());
        let (a, b) = edge.unwrap();
        ctx.add_temporal_edge(a, b).expect("incomparable pair");

        // The old Arc still answers with pre-mutation values...
        prop_assert_eq!(snapshot.deadline(), cp0 + 2);
        // ...while the context recomputes against the mutated graph.
        let fresh = UnitTiming::new(ctx.graph());
        prop_assert_eq!(ctx.critical_path(), fresh.critical_path());
        for v in ctx.graph().node_ids() {
            prop_assert_eq!(ctx.unit_timing().asap(v), fresh.asap(v));
        }
    }

    /// `par_map` over a shared context is deterministic: any thread count
    /// produces the serial result, and concurrent cache fills agree.
    #[test]
    fn parallel_queries_match_serial(
        n in 4usize..40,
        p in 0.05f64..0.4,
        seed in 0u64..1000,
    ) {
        let g = random_dag(n, p, seed);
        let ctx = DesignContext::new(g);
        let nodes: Vec<NodeId> = ctx.graph().node_ids().collect();
        let serial = localwm_engine::par_map(Parallelism::Serial, &nodes, |_, &v| {
            (ctx.laxity(v), ctx.fanin_count(v, 3), ctx.phi(v, 3))
        });
        let threaded = localwm_engine::par_map(Parallelism::Threads(4), &nodes, |_, &v| {
            (ctx.laxity(v), ctx.fanin_count(v, 3), ctx.phi(v, 3))
        });
        prop_assert_eq!(serial, threaded);
    }

    /// The memoized CSR views enumerate exactly the live neighbor multisets
    /// of the iterator API — including after random edge removals leave
    /// tombstones in the edge slab (the trap a naive edge-slab walk would
    /// fall into).
    #[test]
    fn csr_matches_iterator_neighbors_after_removals(
        n in 4usize..40,
        p in 0.05f64..0.4,
        seed in 0u64..1000,
        removals in proptest::collection::vec(0usize..1000, 0..12),
    ) {
        let mut g = random_dag(n, p, seed);
        for r in removals {
            let ids: Vec<EdgeId> = g.edge_ids().collect();
            if ids.is_empty() {
                break;
            }
            g.remove_edge(ids[r % ids.len()]).expect("live edge id");
        }
        let ctx = DesignContext::new(g);
        let preds = ctx.preds_csr();
        let succs = ctx.succs_csr();
        prop_assert_eq!(preds.edge_count(), ctx.graph().edge_count());
        prop_assert_eq!(succs.edge_count(), ctx.graph().edge_count());
        for v in ctx.graph().node_ids() {
            let mut want: Vec<u32> = ctx.graph().preds(v).map(|u| u.index() as u32).collect();
            let mut got: Vec<u32> = preds.neighbors_of(v).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want, "pred multiset diverged at {}", v);
            let mut want: Vec<u32> = ctx.graph().succs(v).map(|u| u.index() as u32).collect();
            let mut got: Vec<u32> = succs.neighbors_of(v).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want, "succ multiset diverged at {}", v);
        }
    }
}

/// An order-preserving mutation patches the memoized CSR in place instead
/// of discarding it: the build counter stays at one, the patch counter
/// fires, and the patched views are indistinguishable from a fresh build
/// over the retained order.
#[test]
fn csr_is_patched_in_place_on_order_preserving_mutation() {
    let probe = Arc::new(RecordingProbe::new());
    let mut ctx = DesignContext::new(random_dag(20, 0.2, 3)).with_probe(probe.clone());

    let rows_before = ctx.preds_csr().rows();
    let _ = ctx.succs_csr();
    assert_eq!(rows_before, ctx.graph().node_count());
    assert_eq!(
        probe.counter_value("engine.csr.build"),
        1,
        "repeat queries share one build"
    );
    let gen_before = ctx.generation();

    // Append a node behind the last topo node: the old order stays valid
    // with the new node at the tail, so the CSR must be patched, not
    // rebuilt.
    let tail = ctx.mutate(|g| {
        let anchor = topo_order(g)
            .expect("DAG")
            .last()
            .copied()
            .expect("nonempty");
        let tail = g.add_node(OpKind::Not);
        g.add_data_edge(anchor, tail).expect("forward edge");
        tail
    });
    assert!(
        ctx.generation() > gen_before,
        "mutation bumps the generation"
    );

    let preds = ctx.preds_csr();
    let succs = ctx.succs_csr();
    assert_eq!(
        probe.counter_value("engine.csr.build"),
        1,
        "an order-preserving mutation must not rebuild the CSR"
    );
    assert!(
        probe.counter_value("engine.csr.patch") >= 1,
        "the in-place patch path must fire"
    );
    assert_eq!(preds.rows(), ctx.graph().node_count());
    assert_eq!(preds.degree_of(tail), 1, "patched view sees the new edge");

    // Byte-for-byte: patched views equal a fresh build over the same order.
    let order = ctx.topo().to_vec();
    let fresh_preds = localwm_cdfg::Csr::preds(ctx.graph(), &order);
    let fresh_succs = localwm_cdfg::Csr::succs(ctx.graph(), &order);
    for v in ctx.graph().node_ids() {
        assert_eq!(preds.neighbors_of(v), fresh_preds.neighbors_of(v));
        assert_eq!(succs.neighbors_of(v), fresh_succs.neighbors_of(v));
    }
}

/// A patch that stays small is taken; one that would re-derive more than
/// `cone_limit` nodes gives up and the context rebuilds, with the same
/// answers either way.
#[test]
fn patches_past_the_cone_limit_fall_back_to_a_rebuild() {
    let probe = Arc::new(RecordingProbe::new());
    let mut g = localwm_cdfg::Cdfg::new();
    let mut chain = vec![g.add_node(OpKind::Input)];
    let mut edges = Vec::new();
    for _ in 0..300 {
        let v = g.add_node(OpKind::Not);
        edges.push(g.add_data_edge(*chain.last().unwrap(), v).unwrap());
        chain.push(v);
    }
    let mut ctx = DesignContext::new(g).with_probe(probe.clone());
    assert_eq!(ctx.cone_limit(), 150);
    let model = KindBounds::uniform(1, 3);
    let check = |ctx: &DesignContext| {
        let fresh = UnitTiming::new(ctx.graph());
        assert_eq!(ctx.critical_path(), fresh.critical_path());
        for v in ctx.graph().node_ids() {
            assert_eq!(ctx.unit_timing().tail(v), fresh.tail(v));
        }
        let direct = bounded_arrival(ctx.graph(), &model);
        let memo = ctx.bounded_arrival(&model);
        assert_eq!((&memo.finish, &memo.tail), (&direct.finish, &direct.tail));
        assert_eq!(memo.critical_path, direct.critical_path);
    };
    check(&ctx);

    // A side op off the head of the chain moves its own values only.
    let head = chain[1];
    ctx.mutate(|ed| {
        let v = ed.add_node(OpKind::Not);
        ed.add_data_edge(head, v).unwrap();
    });
    check(&ctx);
    assert_eq!(probe.counter_value("engine.unit.incremental"), 1);
    assert_eq!(probe.counter_value("engine.bounded.patch"), 1);

    // Cutting the second link moves every depth below it: 299 > 150.
    ctx.mutate(|ed| ed.remove_edge(edges[1])).unwrap();
    check(&ctx);
    assert_eq!(probe.counter_value("engine.unit.incremental"), 1);
    assert_eq!(probe.counter_value("engine.bounded.patch"), 1);
    assert_eq!(probe.counter_value("engine.unit.build"), 2);
    assert_eq!(probe.counter_value("engine.bounded.miss"), 2);
}

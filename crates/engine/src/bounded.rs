//! Interval critical-path analysis under bounded delay models.

use localwm_cdfg::{Cdfg, Csr, NodeId};

use crate::patch::{patch_sweep, Sweep};
use crate::{DelayBounds, DelayInterval};

/// Per-node arrival (finish-time) intervals and the circuit-level critical
/// path interval computed under a bounded delay model, with each node's
/// worst-case tail for the slack test.
#[derive(Debug, Clone)]
pub struct BoundedArrival {
    /// Finish-time interval of each node, indexed by `NodeId::index`.
    pub finish: Vec<DelayInterval>,
    /// Longest all-max delay path strictly below each node: `max` over
    /// successors `s` of `hi(s) + tail[s]`, `0` at sinks. It depends on
    /// the graph and the bounds only, not on the circuit delay.
    pub tail: Vec<u64>,
    /// Interval containing the true critical path for every delay
    /// assignment consistent with the model.
    pub critical_path: DelayInterval,
}

impl BoundedArrival {
    /// Nodes that are *possibly critical*, in id order: nodes whose
    /// worst-case slack is zero, i.e. that lie on a path achieving the
    /// upper critical-path bound.
    ///
    /// The required time of `v` under the all-max assignment is
    /// `critical_path.hi − tail[v]`, so `v` has zero slack iff
    /// `finish[v].hi + tail[v] == critical_path.hi` (the sum is the
    /// longest path through `v`, never above the circuit delay).
    pub fn possibly_critical(&self) -> impl Iterator<Item = NodeId> + '_ {
        let hi = self.critical_path.hi;
        (self.finish.iter().zip(&self.tail).enumerate())
            .filter(move |(_, (f, &t))| f.hi + t == hi)
            .map(|(v, _)| NodeId::from_index(v))
    }

    /// Re-derives finish times and tails after an edit that touched
    /// `seeds` (new nodes included, with placeholder values), over the
    /// post-edit CSR views; see [`patch_sweep`]. Returns `false` past
    /// `limit` re-derivations in either direction, leaving `self`
    /// part-updated.
    pub(crate) fn patch(
        &mut self,
        order: &[NodeId],
        preds: &Csr,
        succs: &Csr,
        bounds: &[DelayInterval],
        seeds: &[NodeId],
        limit: usize,
    ) -> bool {
        let (finish, tail) = (&mut self.finish, &mut self.tail);
        if !patch_sweep(preds, succs, seeds, Sweep::Forward, limit, |p| {
            let u = order[p].index();
            let f = arrival(finish, preds.row(p), bounds[u]);
            std::mem::replace(&mut finish[u], f) != f
        }) {
            return false;
        }
        if !patch_sweep(preds, succs, seeds, Sweep::Backward, limit, |p| {
            let t = hi_tail(tail, bounds, succs.row(p));
            std::mem::replace(&mut tail[order[p].index()], t) != t
        }) {
            return false;
        }
        self.critical_path = circuit(finish);
        true
    }
}

/// Finish interval of a node with delay `d` whose predecessors are `row`.
#[inline]
fn arrival(finish: &[DelayInterval], row: &[u32], d: DelayInterval) -> DelayInterval {
    let (mut lo, mut hi) = (0u64, 0u64);
    for &pi in row {
        let f = finish[pi as usize];
        lo = lo.max(f.lo);
        hi = hi.max(f.hi);
    }
    DelayInterval::new(lo + d.lo, hi + d.hi)
}

/// Hi-tail of a node whose successors are `row`.
#[inline]
fn hi_tail(tail: &[u64], bounds: &[DelayInterval], row: &[u32]) -> u64 {
    row.iter()
        .map(|&si| bounds[si as usize].hi + tail[si as usize])
        .max()
        .unwrap_or(0)
}

/// The circuit interval: the endpoint-wise maximum finish.
fn circuit(finish: &[DelayInterval]) -> DelayInterval {
    finish.iter().fold(DelayInterval::fixed(0), |cp, f| {
        DelayInterval::new(cp.lo.max(f.lo), cp.hi.max(f.hi))
    })
}

/// Propagates arrival intervals through the DAG.
///
/// For each node, `finish.lo = max over preds(pred.lo) + delay.lo` and
/// `finish.hi = max over preds(pred.hi) + delay.hi`. Under the monotone
/// structure of longest-path propagation the resulting circuit interval is
/// *exact*: both endpoints are achieved by the all-minimum and all-maximum
/// delay assignments respectively, and every intermediate assignment lands
/// inside (a property the test-suite verifies by Monte-Carlo sampling).
///
/// # Panics
///
/// Panics if the graph is cyclic.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_engine::{bounded_arrival, KindBounds};
///
/// let g = iir4_parallel();
/// let arr = bounded_arrival(&g, &KindBounds::uniform(1, 2));
/// assert_eq!(arr.critical_path.lo, 6);
/// assert_eq!(arr.critical_path.hi, 12);
/// ```
pub fn bounded_arrival<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> BoundedArrival {
    let order = g.topo_order().expect("bounded arrival requires a DAG");
    let bounds: Vec<DelayInterval> = g.node_ids().map(|n| model.bounds(g, n)).collect();
    bounded_arrival_with_csr(
        &order,
        &Csr::preds(g, &order),
        &Csr::succs(g, &order),
        &bounds,
    )
}

/// [`bounded_arrival`] over the flat CSR hot path: per-node delay bounds
/// (in node-id order) come from a precomputed table and neighbours from
/// packed [`Csr`] views, one forward pass for finish times and one
/// backward pass for tails.
///
/// `order`, `preds` and `succs` must come from the same topological order
/// (the memoized [`DesignContext`](crate::DesignContext) guarantees this).
/// The result does not depend on which topological order carries it:
/// `max` is insensitive to neighbour enumeration order.
pub fn bounded_arrival_with_csr(
    order: &[NodeId],
    preds: &Csr,
    succs: &Csr,
    bounds: &[DelayInterval],
) -> BoundedArrival {
    let n = order.len();
    let mut finish = vec![DelayInterval::fixed(0); n];
    for (p, &u) in order.iter().enumerate() {
        finish[u.index()] = arrival(&finish, preds.row(p), bounds[u.index()]);
    }
    let mut tail = vec![0u64; n];
    for p in (0..n).rev() {
        tail[order[p].index()] = hi_tail(&tail, bounds, succs.row(p));
    }
    BoundedArrival {
        critical_path: circuit(&finish),
        finish,
        tail,
    }
}

/// The circuit critical-path interval under a bounded delay model.
pub fn bounded_critical_path<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> DelayInterval {
    bounded_arrival(g, model).critical_path
}

/// Nodes that are *possibly critical* under `model`
/// ([`BoundedArrival::possibly_critical`]).
///
/// Every node that is critical under **some** consistent delay assignment
/// with circuit delay equal to `critical_path.hi` is included.
pub fn possibly_critical<M: DelayBounds + ?Sized>(g: &Cdfg, model: &M) -> Vec<NodeId> {
    bounded_arrival(g, model).possibly_critical().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicBounds, KindBounds};
    use localwm_cdfg::generators::random_dag;
    use localwm_cdfg::{Cdfg, OpKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chain_interval_is_sum_of_bounds() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        let cp = bounded_critical_path(&g, &KindBounds::uniform(2, 5));
        assert_eq!(cp, DelayInterval::new(4, 10));
    }

    #[test]
    fn unit_model_matches_longest_path_ops() {
        let g = localwm_cdfg::designs::iir4_parallel();
        let cp = bounded_critical_path(&g, &KindBounds::unit());
        assert_eq!(cp.lo, 6);
        assert_eq!(cp.hi, 6);
    }

    /// A fixed per-node delay model for Monte-Carlo validation.
    struct Sampled(Vec<u64>);
    impl DelayBounds for Sampled {
        fn bounds(&self, _g: &Cdfg, n: NodeId) -> DelayInterval {
            DelayInterval::fixed(self.0[n.index()])
        }
    }

    #[test]
    fn monte_carlo_samples_stay_inside_interval() {
        let g = random_dag(40, 0.15, 7);
        let model = KindBounds::uniform(1, 4);
        let cp = bounded_critical_path(&g, &model);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let sample: Vec<u64> = g
                .node_ids()
                .map(|n| {
                    let b = model.bounds(&g, n);
                    rng.gen_range(b.lo..=b.hi)
                })
                .collect();
            let s = bounded_critical_path(&g, &Sampled(sample));
            assert!(s.lo >= cp.lo && s.hi <= cp.hi, "sample escaped interval");
        }
    }

    #[test]
    fn endpoints_are_achieved() {
        let g = random_dag(30, 0.2, 3);
        let model = KindBounds::uniform(2, 6);
        let cp = bounded_critical_path(&g, &model);
        let all_min: Vec<u64> = g.node_ids().map(|n| model.bounds(&g, n).lo).collect();
        let all_max: Vec<u64> = g.node_ids().map(|n| model.bounds(&g, n).hi).collect();
        assert_eq!(bounded_critical_path(&g, &Sampled(all_min)).lo, cp.lo);
        assert_eq!(bounded_critical_path(&g, &Sampled(all_max)).hi, cp.hi);
    }

    #[test]
    fn dynamic_bounds_only_widen_upwards() {
        let g = localwm_cdfg::designs::iir4_parallel();
        let base = KindBounds::uniform(1, 2);
        let dyn_model = DynamicBounds::new(base.clone(), 1);
        let cp_base = bounded_critical_path(&g, &base);
        let cp_dyn = bounded_critical_path(&g, &dyn_model);
        assert_eq!(cp_dyn.lo, cp_base.lo);
        assert!(cp_dyn.hi >= cp_base.hi);
    }

    #[test]
    fn possibly_critical_contains_a_full_path() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Not); // short side branch
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(x, c).unwrap();
        let crit = possibly_critical(&g, &KindBounds::unit());
        assert!(crit.contains(&a));
        assert!(crit.contains(&b));
        assert!(!crit.contains(&c));
    }

    #[test]
    fn wider_bounds_make_more_nodes_possibly_critical() {
        let g = random_dag(40, 0.1, 9);
        let tight = possibly_critical(&g, &KindBounds::unit()).len();
        let loose = possibly_critical(&g, &KindBounds::uniform(1, 5)).len();
        assert!(loose >= tight);
    }
}

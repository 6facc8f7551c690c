//! The one incremental sweep: a value-driven patch over topological
//! positions.
//!
//! Every timing analysis here is a longest-path recurrence over a DAG —
//! unit depth and tail, bounded arrival and hi-tail, each Monte-Carlo
//! sample's finish and tail. After an edit only the values downstream
//! (forward) or upstream (backward) of the touched nodes can move, and
//! they stop moving where a re-derived value comes out unchanged.
//! [`patch_sweep`] walks exactly that region; the caller supplies the
//! recurrence.

use std::collections::BinaryHeap;

use localwm_cdfg::{Csr, NodeId};

/// Which way a [`patch_sweep`] walks the topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Ascending positions; a changed node queues its successors.
    Forward,
    /// Descending positions; a changed node queues its predecessors.
    Backward,
}

/// Re-derives the nodes an edit can move, in sweep order, stopping where
/// values stop changing.
///
/// `preds` and `succs` are CSR views over the same (post-edit)
/// topological order. The worklist starts at `seeds` and pops row
/// positions ascending ([`Sweep::Forward`]) or descending
/// ([`Sweep::Backward`]). `rederive(p)` recomputes the node at position
/// `p` from its neighbours, stores it, and returns whether its value
/// changed; only a change queues the node's successors (forward) or
/// predecessors (backward). Neighbours sit strictly later in the sweep,
/// so each position is queued and popped at most once, and every value a
/// re-derive reads is either settled in this pass or untouched by the
/// edit: the full sweep's order, restricted to where values move.
///
/// Returns `false` once more than `limit` positions have been popped;
/// the caller's state is then part-updated and must be rebuilt.
pub fn patch_sweep(
    preds: &Csr,
    succs: &Csr,
    seeds: &[NodeId],
    sweep: Sweep,
    limit: usize,
    mut rederive: impl FnMut(usize) -> bool,
) -> bool {
    let (next, flip) = match sweep {
        Sweep::Forward => (succs, usize::MAX),
        Sweep::Backward => (preds, 0),
    };
    // A max-heap of `p ^ flip`: descending positions backward, ascending
    // ones forward (`usize::MAX ^ p` reverses the order).
    let mut queued = vec![false; next.rows()];
    let mut heap = BinaryHeap::with_capacity(seeds.len());
    for &s in seeds {
        let p = next.position(s);
        if !std::mem::replace(&mut queued[p], true) {
            heap.push(p ^ flip);
        }
    }
    let mut popped = 0usize;
    while let Some(key) = heap.pop() {
        popped += 1;
        if popped > limit {
            return false;
        }
        let p = key ^ flip;
        if !rederive(p) {
            continue;
        }
        for &w in next.row(p) {
            let wp = next.position(NodeId::from_index(w as usize));
            if !std::mem::replace(&mut queued[wp], true) {
                heap.push(wp ^ flip);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::{Cdfg, OpKind};

    /// The chain `a -> b -> c -> d`, whose only order puts node `i` at
    /// position `i`.
    fn chain() -> (Vec<NodeId>, Csr, Csr) {
        let mut g = Cdfg::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node(OpKind::Not)).collect();
        for w in ids.windows(2) {
            g.add_data_edge(w[0], w[1]).unwrap();
        }
        let order = g.topo_order().unwrap();
        let (preds, succs) = (Csr::preds(&g, &order), Csr::succs(&g, &order));
        (order, preds, succs)
    }

    /// The positions a sweep from `seeds` pops when every re-derive
    /// reports `changed`, or `None` if it gave up past `limit`.
    fn pops(seeds: &[usize], sweep: Sweep, limit: usize, changed: bool) -> Option<Vec<usize>> {
        let (order, preds, succs) = chain();
        let seeds: Vec<NodeId> = seeds.iter().map(|&p| order[p]).collect();
        let mut seen = Vec::new();
        patch_sweep(&preds, &succs, &seeds, sweep, limit, |p| {
            seen.push(p);
            changed
        })
        .then_some(seen)
    }

    #[test]
    fn pops_in_sweep_order_and_stops_where_values_hold() {
        // Every value moves: the whole fan-out cone, ascending.
        assert_eq!(pops(&[0], Sweep::Forward, 9, true), Some(vec![0, 1, 2, 3]));
        // And the whole fan-in cone, descending.
        assert_eq!(pops(&[2], Sweep::Backward, 9, true), Some(vec![2, 1, 0]));
        // Nothing moves: each seed once, however often it is named.
        assert_eq!(
            pops(&[2, 1, 2], Sweep::Backward, 9, false),
            Some(vec![2, 1])
        );
    }

    #[test]
    fn gives_up_past_the_limit() {
        assert_eq!(pops(&[0], Sweep::Forward, 2, true), None);
        assert_eq!(pops(&[0], Sweep::Forward, 4, true), Some(vec![0, 1, 2, 3]));
    }
}

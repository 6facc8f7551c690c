//! Unit-delay (control-step) timing.

use localwm_cdfg::{Cdfg, Csr, NodeId};

use crate::patch::{patch_sweep, Sweep};

/// Control-step timing of a CDFG under the homogeneous SDF model: every
/// schedulable operation takes exactly one control step; inputs, constants
/// and outputs are free.
///
/// Steps are **1-based**: an operation with no schedulable predecessors has
/// `asap == 1`. For free nodes, `asap`/`alap` report the step by which their
/// value is available (0 for sources).
///
/// The structure caches the forward *depth* (longest op-chain ending at a
/// node, inclusive) and backward *tail* (longest op-chain starting at a
/// node, inclusive), which give ASAP, ALAP, laxity and mobility in O(1) per
/// query after an O(V + E) build.
///
/// ```
/// use localwm_cdfg::{Cdfg, OpKind};
/// use localwm_engine::UnitTiming;
///
/// let mut g = Cdfg::new();
/// let x = g.add_node(OpKind::Input);
/// let a = g.add_node(OpKind::Not);
/// let b = g.add_node(OpKind::Neg);
/// let c = g.add_node(OpKind::Not);
/// g.add_data_edge(x, a)?;
/// g.add_data_edge(a, b)?;
/// g.add_data_edge(x, c)?; // c is off the a->b chain
/// let t = UnitTiming::new(&g);
/// assert_eq!(t.critical_path(), 2);
/// assert_eq!(t.asap(c), 1);
/// assert_eq!(t.alap(c, 2), 2); // c can slide to step 2
/// assert_eq!(t.laxity(c), 1);  // longest path through c is 1 op
/// # Ok::<(), localwm_cdfg::CdfgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UnitTiming {
    depth: Vec<u32>,
    tail: Vec<u32>,
    schedulable: Vec<bool>,
    critical_path: u32,
}

impl UnitTiming {
    /// Builds timing for a graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn new(g: &Cdfg) -> Self {
        let order = g.topo_order().expect("timing requires a DAG");
        Self::with_csr(g, &order, &Csr::preds(g, &order), &Csr::succs(g, &order))
    }

    /// Builds timing over packed CSR adjacency — the flat hot path used by
    /// the memoized [`DesignContext`](crate::DesignContext). The depth and
    /// tail sweeps gather from predecessor/successor rows laid out in topo
    /// order, so both passes stream the packed neighbor arrays instead of
    /// dereferencing `EdgeId → Option<Edge>` per neighbor.
    ///
    /// The recurrences are `max` reductions, insensitive to neighbor
    /// enumeration order, so any topological order gives the same result.
    pub fn with_csr(g: &Cdfg, order: &[NodeId], preds: &Csr, succs: &Csr) -> Self {
        let n = g.node_count();
        let schedulable: Vec<bool> = g.node_ids().map(|id| g.kind(id).is_schedulable()).collect();
        let mut depth = vec![0u32; n];
        let mut tail = vec![0u32; n];
        for (p, &u) in order.iter().enumerate() {
            depth[u.index()] = chain(&depth, preds.row(p), schedulable[u.index()]);
        }
        for p in (0..n).rev() {
            let u = order[p].index();
            tail[u] = chain(&tail, succs.row(p), schedulable[u]);
        }
        let critical_path = depth.iter().copied().max().unwrap_or(0);
        UnitTiming {
            depth,
            tail,
            schedulable,
            critical_path,
        }
    }

    /// The critical path `C`, in control steps.
    pub fn critical_path(&self) -> u32 {
        self.critical_path
    }

    /// Earliest control step in which `n` can execute (1-based). For free
    /// nodes this is the step by which the value is available (0 for
    /// sources).
    pub fn asap(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Latest control step in which `n` can execute so that every
    /// dependent still finishes within `available_steps`.
    ///
    /// Saturates at `asap(n)` if `available_steps` is tighter than the
    /// critical path through `n` allows (an infeasible deadline).
    pub fn alap(&self, n: NodeId, available_steps: u32) -> u32 {
        let i = n.index();
        // tail includes n itself, so the latest finish step for n is
        // available_steps - (tail - 1).
        let latest = available_steps.saturating_sub(self.tail[i].saturating_sub(1));
        latest.max(self.depth[i])
    }

    /// Scheduling freedom of `n` under a deadline: `alap - asap`.
    pub fn mobility(&self, n: NodeId, available_steps: u32) -> u32 {
        self.alap(n, available_steps) - self.asap(n)
    }

    /// The paper's *laxity*: the length (in operations) of the longest path
    /// through `n`. Nodes on the critical path have `laxity == C`.
    ///
    /// `depth` counts the longest chain up to and including `n`, `tail` the
    /// longest chain from `n` inclusive, so a schedulable `n` is counted
    /// twice and subtracted once.
    pub fn laxity(&self, n: NodeId) -> u32 {
        let i = n.index();
        (self.depth[i] + self.tail[i]).saturating_sub(u32::from(self.schedulable[i]))
    }

    /// Longest chain of schedulable operations starting at `n`, inclusive.
    ///
    /// Adding a precedence edge `s → d` creates a path of length
    /// `asap(s) + tail(d)` control steps — the feasibility test watermark
    /// embedding uses to avoid stretching the schedule past its deadline.
    pub fn tail(&self, n: NodeId) -> u32 {
        self.tail[n.index()]
    }

    /// Whether the ASAP/ALAP mobility windows of two nodes overlap under a
    /// deadline — the paper's pairing precondition for temporal-edge
    /// endpoints (§IV-A; the printed predicate is OCR-garbled, interval
    /// overlap is the meaning consistent with "overlapping scheduling
    /// period").
    pub fn windows_overlap(&self, a: NodeId, b: NodeId, available_steps: u32) -> bool {
        self.asap(a) <= self.alap(b, available_steps)
            && self.asap(b) <= self.alap(a, available_steps)
    }

    /// Re-derives depths and tails after an arbitrary batch of structural
    /// edits (node adds, edge adds and removals, so values may fall as well
    /// as rise), starting at `seeds`, the nodes the edits touched.
    ///
    /// `order`, `preds` and `succs` must reflect the **post-edit** graph
    /// (the context patches its CSR views first); new nodes must sit at the
    /// tail of `order` in id order. Returns `false` once either direction
    /// has re-derived more than `limit` nodes; `self` is then part-updated
    /// and the caller must discard it and rebuild.
    ///
    /// Value-driven and exact ([`patch_sweep`]): depths re-derive forward
    /// and tails backward, and a node's neighbours are re-derived only
    /// when its value moved — precisely what [`UnitTiming::with_csr`]
    /// would compute. The critical path is raised by a larger depth and
    /// rescanned only when a depth that held it dropped.
    pub fn cone_update(
        &mut self,
        g: &Cdfg,
        order: &[NodeId],
        preds: &Csr,
        succs: &Csr,
        seeds: &[NodeId],
        limit: usize,
    ) -> bool {
        let n = g.node_count();
        if self.depth.len() < n {
            self.depth.resize(n, 0);
            self.tail.resize(n, 0);
            for i in self.schedulable.len()..n {
                self.schedulable
                    .push(g.kind(NodeId::from_index(i)).is_schedulable());
            }
        }
        let UnitTiming {
            depth,
            tail,
            schedulable,
            critical_path,
        } = self;
        let mut rescan = false;
        let forward = patch_sweep(preds, succs, seeds, Sweep::Forward, limit, |p| {
            let u = order[p].index();
            let new = chain(depth, preds.row(p), schedulable[u]);
            let old = std::mem::replace(&mut depth[u], new);
            if new > *critical_path {
                *critical_path = new;
            } else if new < old && old == *critical_path {
                rescan = true;
            }
            new != old
        });
        if !forward {
            return false;
        }
        if rescan {
            *critical_path = depth.iter().copied().max().unwrap_or(0);
        }
        patch_sweep(preds, succs, seeds, Sweep::Backward, limit, |p| {
            let u = order[p].index();
            let new = chain(tail, succs.row(p), schedulable[u]);
            std::mem::replace(&mut tail[u], new) != new
        })
    }
}

/// Longest op-chain through a node whose neighbours on one side are
/// `row`: the longest neighbour chain, plus one if the node is an op.
#[inline]
fn chain(len: &[u32], row: &[u32], schedulable: bool) -> u32 {
    let best = row.iter().map(|&i| len[i as usize]).max().unwrap_or(0);
    best + u32::from(schedulable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::{Cdfg, OpKind};

    fn chain(len: usize) -> (Cdfg, Vec<NodeId>) {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let mut prev = x;
        let mut nodes = vec![x];
        for _ in 0..len {
            let n = g.add_node(OpKind::Not);
            g.add_data_edge(prev, n).unwrap();
            nodes.push(n);
            prev = n;
        }
        (g, nodes)
    }

    #[test]
    fn chain_timing() {
        let (g, nodes) = chain(4);
        let t = UnitTiming::new(&g);
        assert_eq!(t.critical_path(), 4);
        assert_eq!(t.asap(nodes[1]), 1);
        assert_eq!(t.asap(nodes[4]), 4);
        assert_eq!(t.alap(nodes[1], 4), 1);
        assert_eq!(t.alap(nodes[1], 6), 3);
        assert_eq!(t.mobility(nodes[1], 6), 2);
    }

    #[test]
    fn laxity_on_and_off_critical_path() {
        let (mut g, nodes) = chain(4);
        // Side op hanging off the input: longest path through it is 1.
        let side = g.add_node(OpKind::Neg);
        g.add_data_edge(nodes[0], side).unwrap();
        let t = UnitTiming::new(&g);
        for &n in &nodes[1..] {
            assert_eq!(t.laxity(n), 4);
        }
        assert_eq!(t.laxity(side), 1);
    }

    #[test]
    fn alap_saturates_on_infeasible_deadline() {
        let (g, nodes) = chain(4);
        let t = UnitTiming::new(&g);
        assert_eq!(t.alap(nodes[1], 2), t.asap(nodes[1]));
    }

    #[test]
    fn windows_overlap_is_symmetric_and_sane() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Neg);
        let c = g.add_node(OpKind::Not);
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(x, c).unwrap();
        let t = UnitTiming::new(&g);
        // With 2 steps, c in [1,2], a = [1,1], b = [2,2]: all pairs overlap
        // with c; a and b do not overlap each other.
        assert!(t.windows_overlap(a, c, 2));
        assert!(t.windows_overlap(c, a, 2));
        assert!(t.windows_overlap(b, c, 2));
        assert!(!t.windows_overlap(a, b, 2));
    }

    #[test]
    fn incremental_matches_rebuild_on_temporal_insertion() {
        let mut g = iir4_parallel();
        let a2 = g.node_by_name("A2").unwrap();
        let c7 = g.node_by_name("C7").unwrap();
        let mut t = UnitTiming::new(&g);
        g.add_temporal_edge(a2, c7).unwrap();
        let order = g.topo_order().unwrap();
        let (preds, succs) = (Csr::preds(&g, &order), Csr::succs(&g, &order));
        assert!(t.cone_update(&g, &order, &preds, &succs, &[a2, c7], g.node_count()));
        let fresh = UnitTiming::new(&g);
        for n in g.node_ids() {
            assert_eq!(t.asap(n), fresh.asap(n), "depth mismatch at {n}");
            assert_eq!(t.laxity(n), fresh.laxity(n), "laxity mismatch at {n}");
        }
        assert_eq!(t.critical_path(), fresh.critical_path());
    }

    #[test]
    fn cone_update_matches_rebuild_after_mixed_edits() {
        let mut g = iir4_parallel();
        let mut order = g.topo_order().unwrap();
        let preds0 = Csr::preds(&g, &order);
        let succs0 = Csr::succs(&g, &order);
        let mut t = UnitTiming::with_csr(&g, &order, &preds0, &succs0);

        // A mixed batch: drop an edge on the critical chain, append a new
        // op fed by A9. Removal may *shrink* depths.
        let a2 = g.node_by_name("A2").unwrap();
        let a9 = g.node_by_name("A9").unwrap();
        let victim = g
            .edge_ids()
            .find(|&e| g.edge(e).unwrap().src() == a2)
            .unwrap();
        let vdst = g.edge(victim).unwrap().dst();
        g.remove_edge(victim).unwrap();
        let extra = g.add_node(OpKind::Not);
        g.add_data_edge(a9, extra).unwrap();
        order.push(extra);

        let preds = Csr::preds(&g, &order);
        let succs = Csr::succs(&g, &order);
        let seeds = [a2, vdst, a9, extra];
        assert!(t.cone_update(&g, &order, &preds, &succs, &seeds, g.node_count()));
        let fresh = UnitTiming::with_csr(&g, &order, &preds, &succs);
        for n in g.node_ids() {
            assert_eq!(t.asap(n), fresh.asap(n), "depth mismatch at {n}");
            assert_eq!(t.tail(n), fresh.tail(n), "tail mismatch at {n}");
        }
        assert_eq!(t.critical_path(), fresh.critical_path());

        // A tiny limit forces the fallback signal.
        let mut t2 = UnitTiming::with_csr(&g, &order, &preds, &succs);
        assert!(!t2.cone_update(&g, &order, &preds, &succs, &seeds, 1));
    }

    #[test]
    fn iir4_critical_path_and_windows() {
        let g = iir4_parallel();
        let t = UnitTiming::new(&g);
        assert_eq!(t.critical_path(), 6);
        let c1 = g.node_by_name("C1").unwrap();
        // C1 feeds A1 which anchors the 6-op chain; laxity of C1 = 6.
        assert_eq!(t.laxity(c1), 6);
        let d11 = g.node_by_name("D11").unwrap();
        // D11 hangs off A2 (depth 3) as a leaf: laxity 4.
        assert_eq!(t.laxity(d11), 4);
    }

    #[test]
    fn free_nodes_have_zero_asap() {
        let (g, nodes) = chain(2);
        let t = UnitTiming::new(&g);
        assert_eq!(t.asap(nodes[0]), 0);
    }
}

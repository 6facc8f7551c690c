//! Unit-delay (control-step) timing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use localwm_cdfg::{Cdfg, Csr, NodeId};

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
        Self::with_order(g, &order)
    }

    /// Builds timing for a graph whose topological order is already known
    /// (the memoized [`DesignContext`](crate::DesignContext) path).
    pub fn with_order(g: &Cdfg, order: &[NodeId]) -> Self {
        let n = g.node_count();
        let mut depth = vec![0u32; n];
        let mut tail = vec![0u32; n];
        for &u in order {
            let here = depth[u.index()] + u32::from(g.kind(u).is_schedulable());
            depth[u.index()] = here;
            for v in g.succs(u) {
                depth[v.index()] = depth[v.index()].max(here);
            }
        }
        for &u in order.iter().rev() {
            let mut best = 0;
            for v in g.succs(u) {
                best = best.max(tail[v.index()]);
            }
            tail[u.index()] = best + u32::from(g.kind(u).is_schedulable());
        }
        let critical_path = depth.iter().copied().max().unwrap_or(0);
        let schedulable = g.node_ids().map(|id| g.kind(id).is_schedulable()).collect();
        UnitTiming {
            depth,
            tail,
            schedulable,
            critical_path,
        }
    }

    /// Builds timing over packed CSR adjacency — the flat hot path used by
    /// the memoized [`DesignContext`](crate::DesignContext). The depth and
    /// tail sweeps gather from predecessor/successor rows laid out in topo
    /// order, so both passes stream the packed neighbor arrays instead of
    /// dereferencing `EdgeId → Option<Edge>` per neighbor.
    ///
    /// Bit-identical to [`UnitTiming::with_order`]: the recurrences are
    /// `max` reductions, insensitive to neighbor enumeration order.
    pub fn with_csr(g: &Cdfg, order: &[NodeId], preds: &Csr, succs: &Csr) -> Self {
        let n = g.node_count();
        let schedulable: Vec<bool> = g.node_ids().map(|id| g.kind(id).is_schedulable()).collect();
        let mut depth = vec![0u32; n];
        let mut tail = vec![0u32; n];
        for (p, &u) in order.iter().enumerate() {
            let mut best = 0;
            for &pi in preds.row(p) {
                best = best.max(depth[pi as usize]);
            }
            depth[u.index()] = best + u32::from(schedulable[u.index()]);
        }
        for p in (0..n).rev() {
            let u = order[p];
            let mut best = 0;
            for &si in succs.row(p) {
                best = best.max(tail[si as usize]);
            }
            tail[u.index()] = best + u32::from(schedulable[u.index()]);
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

    /// Incrementally updates timing after a precedence edge `src -> dst`
    /// was added to `g` (the graph must already contain the edge).
    ///
    /// Only the affected cones are re-relaxed; worst case `O(V + E)`, but
    /// typically far less for watermark edges between slack-rich nodes.
    pub fn add_edge_update(&mut self, g: &Cdfg, src: NodeId, dst: NodeId) {
        // Forward: push depth from src through dst's fanout cone.
        let mut stack = vec![dst];
        while let Some(u) = stack.pop() {
            let incoming = g.preds(u).map(|p| self.depth[p.index()]).max().unwrap_or(0);
            let new_depth = incoming + u32::from(g.kind(u).is_schedulable());
            if new_depth > self.depth[u.index()] {
                self.depth[u.index()] = new_depth;
                self.critical_path = self.critical_path.max(new_depth);
                stack.extend(g.succs(u));
            }
        }
        // Backward: push tail from dst through src's fanin cone.
        let mut stack = vec![src];
        while let Some(u) = stack.pop() {
            let outgoing = g.succs(u).map(|s| self.tail[s.index()]).max().unwrap_or(0);
            let new_tail = outgoing + u32::from(g.kind(u).is_schedulable());
            if new_tail > self.tail[u.index()] {
                self.tail[u.index()] = new_tail;
                stack.extend(g.preds(u));
            }
        }
    }

    /// Re-derives depths and tails after an arbitrary batch of structural
    /// edits (node adds, edge adds *and* removals — unlike the monotone
    /// [`UnitTiming::add_edge_update`], values may decrease), starting at
    /// `seeds`, the nodes the edits touched.
    ///
    /// `order`, `preds` and `succs` must reflect the **post-edit** graph
    /// (the context patches its CSR views first); new nodes must sit at the
    /// tail of `order` in id order. Returns `false` once either worklist
    /// has re-derived more than `limit` nodes; `self` is then part-updated
    /// and the caller must discard it and rebuild.
    ///
    /// Value-driven and exact: a node's depth is a function of its
    /// predecessors' depths, so only a node whose predecessor *changed*
    /// (or a seed, whose predecessor set did) can change. Depths are
    /// re-derived in ascending topo position from a worklist that a
    /// re-derive feeds with its successors only when its value moved, so
    /// every depth it reads is already final — precisely what
    /// [`UnitTiming::with_csr`] would compute (symmetrically for tails).
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
        let mut queued = vec![false; n];
        let mut popped = 0usize;
        let mut rescan = false;
        let mut fwd: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(seeds.len());
        for &s in seeds {
            let p = preds.position(s);
            if !queued[p] {
                queued[p] = true;
                fwd.push(Reverse(p));
            }
        }
        while let Some(Reverse(p)) = fwd.pop() {
            popped += 1;
            if popped > limit {
                return false;
            }
            queued[p] = false;
            let u = order[p].index();
            let best = preds
                .row(p)
                .iter()
                .map(|&pi| self.depth[pi as usize])
                .max()
                .unwrap_or(0);
            let depth = best + u32::from(self.schedulable[u]);
            let old = self.depth[u];
            if depth == old {
                continue;
            }
            // The critical path is the maximum depth: a depth above it
            // raises it, and one that held it and dropped forces a rescan.
            if depth > self.critical_path {
                self.critical_path = depth;
            } else if old == self.critical_path && depth < old {
                rescan = true;
            }
            self.depth[u] = depth;
            for &si in succs.row(p) {
                let sp = succs.position(NodeId::from_index(si as usize));
                if !queued[sp] {
                    queued[sp] = true;
                    fwd.push(Reverse(sp));
                }
            }
        }
        if rescan {
            self.critical_path = self.depth.iter().copied().max().unwrap_or(0);
        }
        popped = 0;
        let mut bwd: BinaryHeap<usize> = BinaryHeap::with_capacity(seeds.len());
        for &s in seeds {
            let p = preds.position(s);
            if !queued[p] {
                queued[p] = true;
                bwd.push(p);
            }
        }
        while let Some(p) = bwd.pop() {
            popped += 1;
            if popped > limit {
                return false;
            }
            queued[p] = false;
            let u = order[p].index();
            let best = succs
                .row(p)
                .iter()
                .map(|&si| self.tail[si as usize])
                .max()
                .unwrap_or(0);
            let tail = best + u32::from(self.schedulable[u]);
            if tail == self.tail[u] {
                continue;
            }
            self.tail[u] = tail;
            for &pi in preds.row(p) {
                let pp = preds.position(NodeId::from_index(pi as usize));
                if !queued[pp] {
                    queued[pp] = true;
                    bwd.push(pp);
                }
            }
        }
        true
    }
}

/// The reachable row positions from `seeds` (inclusive), walking successor
/// rows (`backward == false`) or predecessor rows (`backward == true`),
/// sorted ascending. `None` once the cone exceeds `limit`.
pub(crate) fn cone_positions(
    preds: &Csr,
    succs: &Csr,
    seeds: &[NodeId],
    limit: usize,
    backward: bool,
) -> Option<Vec<usize>> {
    let step = if backward { preds } else { succs };
    let mut seen = vec![false; step.rows()];
    let mut stack = Vec::with_capacity(seeds.len());
    let mut cone = Vec::new();
    for &s in seeds {
        let p = step.position(s);
        if !seen[p] {
            seen[p] = true;
            stack.push(p);
            cone.push(p);
        }
    }
    while let Some(p) = stack.pop() {
        if cone.len() > limit {
            return None;
        }
        for &ni in step.row(p) {
            let np = step.position(NodeId::from_index(ni as usize));
            if !seen[np] {
                seen[np] = true;
                stack.push(np);
                cone.push(np);
            }
        }
    }
    if cone.len() > limit {
        return None;
    }
    cone.sort_unstable();
    Some(cone)
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
        let g0 = iir4_parallel();
        let mut g = g0.clone();
        let a2 = g.node_by_name("A2").unwrap();
        let c7 = g.node_by_name("C7").unwrap();
        let mut t = UnitTiming::new(&g);
        g.add_temporal_edge(a2, c7).unwrap();
        t.add_edge_update(&g, a2, c7);
        let fresh = UnitTiming::new(&g);
        for n in g.node_ids() {
            assert_eq!(t.asap(n), fresh.asap(n), "depth mismatch at {n}");
            assert_eq!(t.laxity(n), fresh.laxity(n), "laxity mismatch at {n}");
        }
        assert_eq!(t.critical_path(), fresh.critical_path());
    }

    #[test]
    fn cone_update_matches_rebuild_after_mixed_edits() {
        use localwm_cdfg::Csr;
        let mut g = iir4_parallel();
        let mut order = g.topo_order().unwrap();
        let preds0 = Csr::preds(&g, &order);
        let succs0 = Csr::succs(&g, &order);
        let mut t = UnitTiming::with_csr(&g, &order, &preds0, &succs0);

        // A mixed batch: drop an edge on the critical chain, append a new
        // op fed by A9. Removal may *shrink* depths — the case the monotone
        // add_edge_update cannot handle.
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

    #[test]
    fn with_order_matches_new() {
        let g = iir4_parallel();
        let order = g.topo_order().unwrap();
        let a = UnitTiming::new(&g);
        let b = UnitTiming::with_order(&g, &order);
        for n in g.node_ids() {
            assert_eq!(a.asap(n), b.asap(n));
            assert_eq!(a.tail(n), b.tail(n));
        }
        assert_eq!(a.critical_path(), b.critical_path());
    }
}

//! Incremental Monte-Carlo criticality across mutations.
//!
//! A [`criticality_in`](crate::criticality_in) run is `O(samples · (V + E))`
//! and every interactive edit used to pay it from scratch. The expensive
//! parts of a sample are (a) the RNG draws and (b) the forward arrival
//! sweep — and after a small edit most of both are unchanged. This module
//! keeps the per-sample delay draws, finish times, tail lengths, and
//! criticality hit-sets alive in a [`CriticalityCache`] and, after an
//! edit, repairs them (RNG-free) with value-driven worklists seeded at the
//! dirty nodes: a re-derive propagates to its neighbors only when a value
//! actually changed, so the work done is the size of the *changed*
//! region, not of any conservative cone around it.
//!
//! The captured state is **node-major**: each node owns one lane row per
//! quantity, holding every sample, in the lane width the kernel picked
//! (`u32` when the bound sum fits, else `u64`). A patch pops each node at
//! most once per direction and re-derives all of its samples with
//! lane-wise `max`/`add`, propagating when any lane changed — one
//! worklist for all samples instead of one per sample.
//!
//! The backward half is cached in a circuit-independent form. The push
//! sweep in [`criticality_in`](crate::criticality_in) computes
//! `required[v] = circuit − tail[v]`, where `tail[v]` is the longest
//! delay path strictly below `v` (`max over successors s of d[s] +
//! tail[s]`, `0` at sinks) — the subtraction never saturates because
//! `d[v] + tail[v]` is a path suffix and so never exceeds the circuit
//! delay. A node is critical iff `finish[v] == required[v]`, i.e. iff
//! `finish[v] + tail[v] == circuit`. Tails depend only on the draws and
//! the graph structure — not on arrivals and not on the circuit delay.
//!
//! Each sample's circuit delay (its maximum finish time) is tracked
//! without a scan: a re-derived finish above it raises it, and only a
//! finish that *held* the maximum and dropped forces a rescan. The
//! critical flags are one bit per node and sample. After a patch only the
//! re-derived nodes are re-flagged in full; where a sample's circuit moved,
//! every other node's path length is unchanged, so a rise clears its bit
//! and a fall re-tests it against the new circuit in that lane alone.
//!
//! The cache is only reused when the replayed result is provably
//! byte-identical to a from-scratch run:
//!
//! * `samples` and `seed` match the captured run, and
//! * the node count is unchanged (edge-only edits), and
//! * the per-node delay bounds vector is **exactly** the captured one —
//!   this pins the per-sample RNG stream (draws happen in node-index
//!   order and fixed `lo == hi` intervals skip their draw), so the cached
//!   draws are the draws a fresh run would make, and
//! * the context can name the dirty node set since the captured
//!   generation ([`DesignContext::dirty_since`]).
//!
//! Anything else — new nodes, a bounds model whose intervals moved (e.g.
//! [`DynamicBounds`](crate::DynamicBounds) after an edge edit), an
//! untracked mutation — falls back to a full capture that mirrors
//! `criticality_in` exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use localwm_cdfg::{Csr, NodeId};
use localwm_engine::{DesignContext, Parallelism, ResolvedBounds};

use crate::statistical::{crit_words, sweep_rows, LaneRows, Sampler, Word};
use crate::{criticality_in, CriticalityReport, DelayBounds};

/// Largest `samples × nodes` product the cache will retain (three lanes
/// plus one bit per cell); past this, caching would cost more memory than
/// the recompute is worth and every query runs from scratch uncached.
const CACHE_CELL_CAP: usize = 1_000_000;

/// Captured state of one criticality run.
struct Capture {
    samples: usize,
    seed: u64,
    /// Context generation the capture (or last patch) is current with.
    generation: u64,
    /// Node count at capture; a mismatch always invalidates.
    n: usize,
    /// Per-node delay bounds the draws were made under.
    bounds: Arc<ResolvedBounds>,
    /// Per-node critical-hit counts aggregated across samples.
    hits: Vec<u64>,
    lanes: Lanes,
}

/// The captured rows, in the lane width the kernel picked for the run.
enum Lanes {
    Narrow(LaneState<u32>),
    Wide(LaneState<u64>),
}

/// Every sample's state, node-major, plus each sample's circuit delay.
struct LaneState<T> {
    rows: LaneRows<T>,
    /// Per sample, in sample order: the circuit delay (max finish).
    circuit: Vec<T>,
}

/// The report the captured aggregates already answer; every patch keeps
/// `circuit` and `hits` exact, so reporting is allocation plus a sort.
fn report_from(cap: &Capture) -> CriticalityReport {
    let mut delays: Vec<u64> = match &cap.lanes {
        Lanes::Narrow(st) => st.circuit.iter().map(|&c| c.into()).collect(),
        Lanes::Wide(st) => st.circuit.clone(),
    };
    delays.sort_unstable();
    CriticalityReport {
        criticality: cap
            .hits
            .iter()
            .map(|&h| h as f64 / cap.samples as f64)
            .collect(),
        delays,
        samples: cap.samples,
    }
}

/// Memoized Monte-Carlo state that survives graph mutations.
///
/// Holds the last run's per-sample draws and arrival times; on requery
/// after an edit it re-derives only the nodes whose values change. The
/// report returned is byte-identical to [`criticality_in`] on the current
/// graph in every case — the cache only changes how it is computed.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_engine::Parallelism;
/// use localwm_timing::{criticality_in, CriticalityCache, DesignContext, KindBounds};
///
/// let mut ctx = DesignContext::new(iir4_parallel());
/// let mut cache = CriticalityCache::new();
/// let model = KindBounds::uniform(1, 3);
/// let first = cache.criticality_in(&ctx, &model, 64, 7, Parallelism::Serial);
/// // ... mutate ctx ...
/// let again = cache.criticality_in(&ctx, &model, 64, 7, Parallelism::Serial);
/// let scratch = criticality_in(&ctx, &model, 64, 7, Parallelism::Serial);
/// assert_eq!(again.delays, scratch.delays);
/// assert_eq!(first.delays, again.delays); // nothing changed here
/// ```
#[derive(Default)]
pub struct CriticalityCache {
    capture: Option<Capture>,
}

impl CriticalityCache {
    /// An empty cache; the first query always captures from scratch.
    pub fn new() -> Self {
        CriticalityCache::default()
    }

    /// Drops any captured state; the next query recaptures.
    pub fn clear(&mut self) {
        self.capture = None;
    }

    /// [`criticality_in`](crate::criticality_in) with cross-mutation
    /// memoization: patches the cached state where values changed when
    /// provably byte-identical, recaptures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic or `samples == 0`.
    pub fn criticality_in<M: DelayBounds>(
        &mut self,
        ctx: &DesignContext,
        model: &M,
        samples: usize,
        seed: u64,
        par: Parallelism,
    ) -> CriticalityReport {
        assert!(samples > 0, "at least one sample required");
        let n = ctx.graph().node_count();
        if samples.saturating_mul(n) > CACHE_CELL_CAP {
            self.capture = None;
            return criticality_in(ctx, model, samples, seed, par);
        }
        let bounds = ctx.resolved_bounds(model);
        if let Some(report) = self.try_patch(ctx, samples, seed, &bounds) {
            ctx.probe().counter("timing.criticality.patch", 1);
            return report;
        }
        ctx.probe().counter("timing.criticality.capture", 1);
        self.capture_from_scratch(ctx, samples, seed, bounds)
    }

    /// The incremental path: `None` unless every byte-identity
    /// precondition holds.
    fn try_patch(
        &mut self,
        ctx: &DesignContext,
        samples: usize,
        seed: u64,
        bounds: &Arc<ResolvedBounds>,
    ) -> Option<CriticalityReport> {
        let cap = self.capture.as_mut()?;
        let n = ctx.graph().node_count();
        let same_bounds =
            Arc::ptr_eq(&cap.bounds, bounds) || cap.bounds.intervals() == bounds.intervals();
        if cap.samples != samples || cap.seed != seed || cap.n != n || !same_bounds {
            return None;
        }
        let dirty = ctx.dirty_since(cap.generation)?;
        if !dirty.is_empty() {
            let order = ctx.try_topo().ok()?;
            let (preds, succs) = (ctx.preds_csr(), ctx.succs_csr());
            match &mut cap.lanes {
                Lanes::Narrow(st) => st.patch(&mut cap.hits, order, preds, succs, &dirty),
                Lanes::Wide(st) => st.patch(&mut cap.hits, order, preds, succs, &dirty),
            }
        }
        cap.generation = ctx.generation();
        Some(report_from(cap))
    }

    /// The full path: one serial run through the shared SoA block kernel
    /// ([`sweep_rows`]) — the same code `criticality_in` times with, so the
    /// captured draws, finish times, and tail lengths are the scratch
    /// run's by construction (per-sample seeding makes partitioning
    /// irrelevant to the values). The kernel records every sample's rows
    /// node-major in the row type it runs in, which is the layout the
    /// patch wants.
    fn capture_from_scratch(
        &mut self,
        ctx: &DesignContext,
        samples: usize,
        seed: u64,
        bounds: Arc<ResolvedBounds>,
    ) -> CriticalityReport {
        let sampler = Sampler::new(bounds.intervals());
        let (order, preds, succs) = (ctx.topo(), ctx.preds_csr(), ctx.succs_csr());
        let (hits, lanes) = if sampler.wide {
            let (hits, st) = LaneState::record(order, preds, succs, &sampler, seed, samples);
            (hits, Lanes::Wide(st))
        } else {
            let (hits, st) = LaneState::record(order, preds, succs, &sampler, seed, samples);
            (hits, Lanes::Narrow(st))
        };
        self.capture = Some(Capture {
            samples,
            seed,
            generation: ctx.generation(),
            n: order.len(),
            bounds,
            hits,
            lanes,
        });
        report_from(self.capture.as_ref().expect("just captured"))
    }
}

/// Lane-wise `acc = max(acc, row)`.
#[inline]
fn max_lanes<T: Word>(acc: &mut [T], row: &[T]) {
    for (a, &r) in acc.iter_mut().zip(row) {
        *a = (*a).max(r);
    }
}

/// Lane-wise `acc = max(acc, x + y)`.
#[inline]
fn max_sum_lanes<T: Word>(acc: &mut [T], x: &[T], y: &[T]) {
    for ((a, &x), &y) in acc.iter_mut().zip(x).zip(y) {
        *a = (*a).max(x + y);
    }
}

impl<T: Word> LaneState<T> {
    /// Runs the kernel over samples `0..samples`, recording every row;
    /// returns the per-node hit counts with the state.
    fn record(
        order: &[NodeId],
        preds: &Csr,
        succs: &Csr,
        sampler: &Sampler,
        seed: u64,
        samples: usize,
    ) -> (Vec<u64>, LaneState<T>) {
        let mut rows = LaneRows::zeroed(order.len(), samples);
        let sweep = sweep_rows(
            order,
            preds,
            succs,
            sampler,
            seed,
            0..samples,
            Some(&mut rows),
        );
        let circuit = sweep.circuit.iter().map(|&c| T::narrow(c)).collect();
        (sweep.hits, LaneState { rows, circuit })
    }

    /// Re-derives finish times forward and tails backward from the
    /// `dirty` nodes, then re-flags criticality and moves `hits` with it.
    ///
    /// Both worklists pop topological positions in sweep order (ascending
    /// forward, descending backward), and a re-derive pushes its
    /// neighbors only when some lane changed. So every row a re-derive
    /// reads is either settled this pass or untouched since the capture —
    /// the full sweep's order, restricted to where values move — and each
    /// node is popped at most once per direction.
    fn patch(
        &mut self,
        hits: &mut [u64],
        order: &[NodeId],
        preds: &Csr,
        succs: &Csr,
        dirty: &[NodeId],
    ) {
        let n = order.len();
        let lanes = self.rows.stride;
        let words = crit_words(lanes);
        let LaneRows {
            d,
            finish,
            tail,
            crit,
            ..
        } = &mut self.rows;
        let circuit = &mut self.circuit;
        let before = circuit.clone();
        let mut queued = vec![false; n];
        let mut touched = vec![false; n];
        let mut moved: Vec<usize> = Vec::new();
        let mut row = vec![T::default(); lanes];
        let mut rescan = false;

        // Forward: finish = max over predecessors' finish + own draw.
        let mut fwd: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(dirty.len());
        for &v in dirty {
            let p = preds.position(v);
            queued[p] = true;
            fwd.push(Reverse(p));
        }
        while let Some(Reverse(p)) = fwd.pop() {
            queued[p] = false;
            let v = order[p].index();
            row.fill(T::default());
            for &u in preds.row(p) {
                max_lanes(&mut row, &finish[u as usize * lanes..][..lanes]);
            }
            for (r, &dv) in row.iter_mut().zip(&d[v * lanes..][..lanes]) {
                *r = *r + dv;
            }
            let cur = &mut finish[v * lanes..][..lanes];
            if *cur == row[..] {
                continue;
            }
            // The circuit delay is the maximum finish: a finish above it
            // raises it, and one that held it and dropped forces a rescan.
            for ((old, &new), c) in cur.iter().zip(&row).zip(circuit.iter_mut()) {
                if new > *c {
                    *c = new;
                } else if new < *old && *old == *c {
                    rescan = true;
                }
            }
            cur.copy_from_slice(&row);
            if !touched[v] {
                touched[v] = true;
                moved.push(v);
            }
            for &w in succs.row(p) {
                let wp = succs.position(NodeId::from_index(w as usize));
                if !queued[wp] {
                    queued[wp] = true;
                    fwd.push(Reverse(wp));
                }
            }
        }
        if rescan {
            circuit.fill(T::default());
            for f in finish.chunks_exact(lanes) {
                max_lanes(circuit, f);
            }
        }

        // Backward: tail = max over successors' draw + tail.
        let mut bwd: BinaryHeap<usize> = BinaryHeap::with_capacity(dirty.len());
        for &v in dirty {
            let p = preds.position(v);
            queued[p] = true;
            bwd.push(p);
        }
        while let Some(p) = bwd.pop() {
            queued[p] = false;
            let v = order[p].index();
            row.fill(T::default());
            for &w in succs.row(p) {
                let w = w as usize * lanes;
                max_sum_lanes(&mut row, &d[w..][..lanes], &tail[w..][..lanes]);
            }
            let cur = &mut tail[v * lanes..][..lanes];
            if *cur == row[..] {
                continue;
            }
            cur.copy_from_slice(&row);
            if !touched[v] {
                touched[v] = true;
                moved.push(v);
            }
            for &u in preds.row(p) {
                let up = preds.position(NodeId::from_index(u as usize));
                if !queued[up] {
                    queued[up] = true;
                    bwd.push(up);
                }
            }
        }

        // Re-flag: `finish + tail == circuit`, every lane of every node
        // whose finish or tail moved.
        for &v in &moved {
            let (f, t) = (&finish[v * lanes..][..lanes], &tail[v * lanes..][..lanes]);
            for (k, word) in crit[v * words..][..words].iter_mut().enumerate() {
                let first = k * 64;
                let mut now = 0u64;
                for s in first..lanes.min(first + 64) {
                    now |= u64::from(f[s] + t[s] == circuit[s]) << (s - first);
                }
                hits[v] += u64::from((now & !*word).count_ones());
                hits[v] -= u64::from((*word & !now).count_ones());
                *word = now;
            }
        }
        // Every other node kept its path length `finish + tail`, which was
        // at most the old circuit. Where a sample's circuit rose, none of
        // them reaches it any more; where it fell, none reached the old
        // one (that path would still exist), so only the new value needs
        // testing, in that lane alone.
        let mut rose = vec![0u64; words];
        let mut fell: Vec<usize> = Vec::new();
        for (s, (&now, &was)) in circuit.iter().zip(&before).enumerate() {
            if now > was {
                rose[s / 64] |= 1 << (s % 64);
            } else if now < was {
                fell.push(s);
            }
        }
        if fell.is_empty() && rose.iter().all(|&w| w == 0) {
            return;
        }
        for v in (0..n).filter(|&v| !touched[v]) {
            let bits = &mut crit[v * words..][..words];
            for (word, &r) in bits.iter_mut().zip(&rose) {
                hits[v] -= u64::from((*word & r).count_ones());
                *word &= !r;
            }
            for &s in &fell {
                if finish[v * lanes + s] + tail[v * lanes + s] == circuit[s] {
                    debug_assert_eq!(bits[s / 64] & (1 << (s % 64)), 0);
                    bits[s / 64] |= 1 << (s % 64);
                    hits[v] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KindBounds;
    use localwm_cdfg::generators::random_dag;
    use localwm_cdfg::{EdgeKind, NodeId, OpKind};
    use localwm_engine::RecordingProbe;
    use std::sync::Arc;

    fn assert_reports_equal(a: &CriticalityReport, b: &CriticalityReport) {
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.criticality, b.criticality);
    }

    #[test]
    fn patched_report_is_byte_identical_to_scratch_across_edits() {
        let probe = Arc::new(RecordingProbe::new());
        let mut ctx = DesignContext::new(random_dag(40, 0.12, 21)).with_probe(probe.clone());
        let model = KindBounds::uniform(1, 4);
        let mut cache = CriticalityCache::new();
        let first = cache.criticality_in(&ctx, &model, 80, 9, Parallelism::Serial);
        assert_reports_equal(
            &first,
            &criticality_in(&ctx, &model, 80, 9, Parallelism::Serial),
        );
        assert_eq!(probe.counter_value("timing.criticality.capture"), 1);

        // A run of edge edits, each followed by a cached query checked
        // against scratch.
        let order: Vec<NodeId> = ctx.topo().to_vec();
        let mut edited = 0;
        for i in 0..order.len() - 1 {
            let (a, b) = (order[i], order[i + 1]);
            if ctx.reaches(a, b) || ctx.reaches(b, a) {
                continue;
            }
            ctx.mutate(|g| g.add_edge(EdgeKind::Temporal, a, b))
                .expect("forward pair");
            edited += 1;
            let inc = cache.criticality_in(&ctx, &model, 80, 9, Parallelism::Serial);
            let scratch = criticality_in(&ctx, &model, 80, 9, Parallelism::Serial);
            assert_reports_equal(&inc, &scratch);
            if edited == 4 {
                break;
            }
        }
        assert!(edited > 0, "random DAG had no incomparable adjacent pair");
        assert_eq!(
            probe.counter_value("timing.criticality.patch"),
            edited,
            "every edge-only edit should take the patch path"
        );
        assert_eq!(probe.counter_value("timing.criticality.capture"), 1);
    }

    #[test]
    fn edge_removal_patches_and_matches_scratch() {
        let mut ctx = DesignContext::new(random_dag(30, 0.2, 5));
        let model = KindBounds::uniform(1, 3);
        let mut cache = CriticalityCache::new();
        let _ = cache.criticality_in(&ctx, &model, 60, 3, Parallelism::Serial);
        let victim = ctx.graph().edge_ids().next().expect("has edges");
        ctx.mutate(|g| g.remove_edge(victim)).expect("live edge");
        let inc = cache.criticality_in(&ctx, &model, 60, 3, Parallelism::Serial);
        let scratch = criticality_in(&ctx, &model, 60, 3, Parallelism::Serial);
        assert_reports_equal(&inc, &scratch);
    }

    #[test]
    fn node_addition_or_parameter_change_recaptures() {
        let probe = Arc::new(RecordingProbe::new());
        let mut ctx = DesignContext::new(random_dag(20, 0.2, 7)).with_probe(probe.clone());
        let model = KindBounds::uniform(1, 3);
        let mut cache = CriticalityCache::new();
        let _ = cache.criticality_in(&ctx, &model, 40, 1, Parallelism::Serial);
        // Different seed: full capture.
        let _ = cache.criticality_in(&ctx, &model, 40, 2, Parallelism::Serial);
        // Node added: bounds length changes, full capture.
        let anchor = ctx.topo()[0];
        ctx.mutate(|g| {
            let v = g.add_node(OpKind::Not);
            g.add_data_edge(anchor, v).expect("forward edge");
        });
        let inc = cache.criticality_in(&ctx, &model, 40, 2, Parallelism::Serial);
        let scratch = criticality_in(&ctx, &model, 40, 2, Parallelism::Serial);
        assert_reports_equal(&inc, &scratch);
        assert_eq!(probe.counter_value("timing.criticality.capture"), 3);
        assert_eq!(probe.counter_value("timing.criticality.patch"), 0);
    }

    #[test]
    fn untracked_mutation_recaptures() {
        let probe = Arc::new(RecordingProbe::new());
        let mut ctx = DesignContext::new(random_dag(20, 0.2, 11)).with_probe(probe.clone());
        let model = KindBounds::uniform(1, 3);
        let mut cache = CriticalityCache::new();
        let _ = cache.criticality_in(&ctx, &model, 40, 5, Parallelism::Serial);
        // graph_mut() hides the touched set: dirty_since must refuse and
        // the cache must fall back to capture.
        let victim = ctx.graph().edge_ids().next().expect("has edges");
        ctx.mutate(|g| g.graph_mut().remove_edge(victim))
            .expect("live edge");
        let inc = cache.criticality_in(&ctx, &model, 40, 5, Parallelism::Serial);
        let scratch = criticality_in(&ctx, &model, 40, 5, Parallelism::Serial);
        assert_reports_equal(&inc, &scratch);
        assert_eq!(probe.counter_value("timing.criticality.capture"), 2);
    }

    #[test]
    fn oversized_runs_bypass_the_cache() {
        let ctx = DesignContext::new(random_dag(50, 0.1, 2));
        let model = KindBounds::uniform(1, 3);
        let mut cache = CriticalityCache::new();
        let big = CACHE_CELL_CAP / 50 + 1;
        let r = cache.criticality_in(&ctx, &model, big, 1, Parallelism::Auto);
        assert_eq!(r.samples, big);
        assert!(cache.capture.is_none(), "oversized run must not be cached");
    }
}

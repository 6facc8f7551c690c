//! Incremental Monte-Carlo criticality across mutations.
//!
//! A [`criticality_in`](crate::criticality_in) run is `O(samples · (V + E))`
//! and every interactive edit used to pay it from scratch. The expensive
//! parts of a sample are (a) the RNG draws and (b) the forward arrival
//! sweep — and after a small edit most of both are unchanged. This module
//! keeps the per-sample delay draws, finish times, tail lengths, and
//! criticality hit-sets alive in a [`CriticalityCache`] and, after an
//! edit, repairs them per sample (RNG-free) with value-driven worklists
//! seeded at the dirty nodes: a re-derive propagates to its neighbors
//! only when the value actually changed, so the work done is the size of
//! the *changed* region, not of any conservative cone around it.
//!
//! The backward half is cached in a circuit-independent form. The push
//! sweep in [`criticality_in`](crate::criticality_in) computes
//! `required[v] = circuit − tail[v]`, where `tail[v]` is the longest
//! delay path strictly below `v` (`max over successors s of d[s] +
//! tail[s]`, `0` at sinks) — the subtraction never saturates because
//! `d[v] + tail[v]` is a path suffix and so never exceeds the circuit
//! delay. A node is critical iff `finish[v] == required[v]`, i.e. iff
//! `finish[v] + tail[v] == circuit`. Tails depend only on the draws and
//! the graph structure — not on arrivals and not on the circuit delay —
//! so an edit that shifts the circuit delay costs one flat re-flagging
//! scan per sample instead of a full backward sweep.
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

use localwm_engine::{DesignContext, Parallelism};

use crate::statistical::{soa_sweep, SampleRows, Sampler};
use crate::{criticality_in, CriticalityReport, DelayBounds, DelayInterval};

/// Largest `samples × nodes` product the cache will retain (three `u64`
/// lanes plus one `bool` per cell); past this, caching would cost more
/// memory than the recompute is worth and every query runs from scratch
/// uncached.
const CACHE_CELL_CAP: usize = 1_000_000;

/// Captured per-sample state of one criticality run.
struct Capture {
    samples: usize,
    seed: u64,
    /// Context generation the capture (or last patch) is current with.
    generation: u64,
    /// Node count at capture; a mismatch always invalidates.
    n: usize,
    /// Per-node delay bounds the draws were made under.
    bounds: Vec<DelayInterval>,
    /// Flattened `samples × n` delay draws, sample-major.
    d: Vec<u64>,
    /// Flattened `samples × n` finish times, sample-major.
    finish: Vec<u64>,
    /// Flattened `samples × n` tail lengths (longest delay path strictly
    /// below each node), sample-major; `required = circuit − tail`.
    tail: Vec<u64>,
    /// Flattened `samples × n` critical-node flags
    /// (`finish + tail == circuit`), sample-major; the per-sample detail
    /// behind `hits`.
    crit: Vec<bool>,
    /// Per-sample circuit delay (max finish), in sample order.
    circuit: Vec<u64>,
    /// Per-node critical-hit counts aggregated across samples.
    hits: Vec<u64>,
}

/// The report the captured aggregates already answer; every patch keeps
/// `circuit` and `hits` exact, so reporting is allocation plus a sort.
fn report_from(cap: &Capture) -> CriticalityReport {
    let mut delays = cap.circuit.clone();
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
/// after an edit it patches only the dirty fan-out cone per sample. The
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
    /// memoization: patches the cached per-sample state over the dirty
    /// cone when provably byte-identical, recaptures otherwise.
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
        let g = ctx.graph();
        let n = g.node_count();
        if samples.saturating_mul(n) > CACHE_CELL_CAP {
            self.capture = None;
            return criticality_in(ctx, model, samples, seed, par);
        }
        let bounds: Vec<DelayInterval> = g.node_ids().map(|v| model.bounds(g, v)).collect();
        if let Some(report) = self.try_patch(ctx, samples, seed, &bounds) {
            ctx.probe().counter("timing.criticality.patch", 1);
            return report;
        }
        ctx.probe().counter("timing.criticality.capture", 1);
        self.capture_from_scratch(ctx, samples, seed, bounds)
    }

    /// The incremental path: `None` unless every byte-identity
    /// precondition holds and the dirty cone fits the context's limit.
    fn try_patch(
        &mut self,
        ctx: &DesignContext,
        samples: usize,
        seed: u64,
        bounds: &[DelayInterval],
    ) -> Option<CriticalityReport> {
        let cap = self.capture.as_mut()?;
        let n = ctx.graph().node_count();
        if cap.samples != samples || cap.seed != seed || cap.n != n || cap.bounds != bounds {
            return None;
        }
        let dirty = ctx.dirty_since(cap.generation)?;
        if dirty.is_empty() {
            cap.generation = ctx.generation();
            return Some(report_from(cap));
        }
        let order = ctx.try_topo().ok()?;
        let preds = ctx.preds_csr();
        let succs = ctx.succs_csr();
        // Node index → topo position, for worklist pushes below.
        let mut pos_of = vec![0usize; n];
        for (p, &v) in order.iter().enumerate() {
            pos_of[v.index()] = p;
        }
        let dirty_pos: Vec<usize> = dirty.iter().map(|&v| pos_of[v.index()]).collect();
        let mut queued = vec![false; n];
        let mut fwd: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(dirty_pos.len());
        let mut bwd: BinaryHeap<usize> = BinaryHeap::with_capacity(dirty_pos.len());
        let mut changed: Vec<usize> = Vec::new();

        for s in 0..samples {
            let base = s * n;
            let d = &cap.d[base..base + n];
            changed.clear();
            // Forward: arrivals re-derive from the edited nodes outward,
            // but only while the value actually changes. The min-heap pops
            // positions ascending, so every predecessor a re-derive reads
            // is either already settled this pass or untouched since the
            // capture — the order of the full sweep, restricted to where
            // it matters.
            {
                let finish = &mut cap.finish[base..base + n];
                for &p in &dirty_pos {
                    if !queued[p] {
                        queued[p] = true;
                        fwd.push(Reverse(p));
                    }
                }
                while let Some(Reverse(p)) = fwd.pop() {
                    queued[p] = false;
                    let v = order[p].index();
                    let mut arrive = 0u64;
                    for &pi in preds.row(p) {
                        arrive = arrive.max(finish[pi as usize]);
                    }
                    let f = arrive + d[v];
                    if f != finish[v] {
                        finish[v] = f;
                        changed.push(v);
                        for &si in succs.row(p) {
                            let sp = pos_of[si as usize];
                            if !queued[sp] {
                                queued[sp] = true;
                                fwd.push(Reverse(sp));
                            }
                        }
                    }
                }
            }
            // Backward: tails likewise, walking predecessors descending.
            {
                let tail = &mut cap.tail[base..base + n];
                for &p in &dirty_pos {
                    if !queued[p] {
                        queued[p] = true;
                        bwd.push(p);
                    }
                }
                while let Some(p) = bwd.pop() {
                    queued[p] = false;
                    let v = order[p].index();
                    let mut l = 0u64;
                    for &si in succs.row(p) {
                        l = l.max(d[si as usize] + tail[si as usize]);
                    }
                    if l != tail[v] {
                        tail[v] = l;
                        changed.push(v);
                        for &pi in preds.row(p) {
                            let pp = pos_of[pi as usize];
                            if !queued[pp] {
                                queued[pp] = true;
                                bwd.push(pp);
                            }
                        }
                    }
                }
            }
            // Criticality is `finish + tail == circuit`. With the circuit
            // delay unchanged, flags can flip only where finish or tail
            // moved; a circuit shift re-flags in one flat scan instead of
            // a full sweep.
            let finish = &cap.finish[base..base + n];
            let tail = &cap.tail[base..base + n];
            let circuit = finish.iter().copied().max().unwrap_or(0);
            if circuit != cap.circuit[s] {
                cap.circuit[s] = circuit;
                for v in 0..n {
                    let now = finish[v] + tail[v] == circuit;
                    if now != cap.crit[base + v] {
                        cap.crit[base + v] = now;
                        if now {
                            cap.hits[v] += 1;
                        } else {
                            cap.hits[v] -= 1;
                        }
                    }
                }
            } else {
                for &v in &changed {
                    let now = finish[v] + tail[v] == circuit;
                    if now != cap.crit[base + v] {
                        cap.crit[base + v] = now;
                        if now {
                            cap.hits[v] += 1;
                        } else {
                            cap.hits[v] -= 1;
                        }
                    }
                }
            }
        }
        cap.generation = ctx.generation();
        Some(report_from(cap))
    }

    /// The full path: one serial run through the shared SoA block kernel
    /// ([`soa_sweep`]) — the same code `criticality_in` times with, so the
    /// captured draws, finish times, and tail lengths are the scratch
    /// run's by construction (per-sample seeding makes partitioning
    /// irrelevant to the values). The kernel records every sample's rows
    /// sample-major, widened to `u64`, which is the layout the per-sample
    /// patch worklists want.
    fn capture_from_scratch(
        &mut self,
        ctx: &DesignContext,
        samples: usize,
        seed: u64,
        bounds: Vec<DelayInterval>,
    ) -> CriticalityReport {
        let n = ctx.graph().node_count();
        let mut rows = SampleRows::zeroed(samples * n);
        let sweep = soa_sweep(
            ctx.topo(),
            ctx.preds_csr(),
            ctx.succs_csr(),
            &Sampler::new(&bounds),
            seed,
            0..samples,
            Some(&mut rows),
        );
        self.capture = Some(Capture {
            samples,
            seed,
            generation: ctx.generation(),
            n,
            bounds,
            d: rows.d,
            finish: rows.finish,
            tail: rows.tail,
            crit: rows.crit,
            circuit: sweep.circuit,
            hits: sweep.hits,
        });
        report_from(self.capture.as_ref().expect("just captured"))
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

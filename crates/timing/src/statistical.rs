//! Statistical timing: Monte-Carlo criticality under bounded delays.
//!
//! The interval analysis of [`localwm_engine::bounded_arrival`] brackets the
//! true critical path; this module refines it with sampling: draw delay
//! assignments consistent with a [`DelayBounds`] model, time each sample,
//! and report per-node *criticality probabilities* (how often a node lies
//! on a zero-slack path) plus the sampled circuit-delay distribution.
//!
//! Each input vector (sample) is timed with its **own** per-sample RNG seed
//! derived from the run seed and the sample index, so the result is
//! independent of how samples are fanned out across worker threads: serial
//! and parallel sweeps are byte-identical.
//!
//! # The SoA kernel
//!
//! Samples are independent, so the sweep processes them [`LANES`] at a
//! time in a structure-of-arrays layout ([`soa_sweep`]): every per-node
//! quantity (delay draw, finish time, path length below) is one
//! `[T; LANES]` row, and the forward/backward passes walk the memoized CSR
//! once per *block* doing branch-free `max`/`add` over whole rows — the
//! shape LLVM autovectorizes. Three choices are made once per run:
//!
//! * **The sampler.** [`Sampler`] sorts nodes into fixed (`lo == hi`, no
//!   draw — their rows are written once) and drawn ones, each drawn node
//!   carrying a precomputed [`Uniform`] (power-of-two mask or rejection
//!   threshold), so no draw pays a `%`. Draws go node-major over the
//!   block's `LANES` generators: lane `j` of a block starting at sample
//!   `s0` draws from `sample_seed(seed, s0 + j)` in node-index order with
//!   fixed nodes skipping their draw — the per-sample stream of
//!   [`criticality_reference`], value for value.
//! * **The row type.** Every path delay is at most Σ of every node's `hi`
//!   ([`checked_hi_sum`]); when that fits `u32` the rows are `u32`,
//!   twice the lanes per vector register, otherwise `u64`. Integer
//!   `max`/`add` is exact in either, so the choice never shows in the
//!   output. A sum overflowing `u64` is refused before any sampling.
//! * **The work split.** Worker ranges are contiguous; per-sample seeding
//!   makes the split irrelevant to the result. A range that `LANES` does
//!   not divide ends with one block whose dead lanes are masked out.
//!
//! The backward pass keeps circuit-independent path lengths instead of
//! required times, and counts criticality in the same walk: a node is
//! critical iff `finish[v] + tail[v] == circuit`, where `tail[v]` is the
//! longest delay path strictly below `v`. That equals the push-form
//! `finish == required` test because `required[v] = circuit − tail[v]`
//! (see the proof in [`crate::CriticalityCache`]'s module docs), which is
//! the form [`criticality_reference`] checks directly. The incremental
//! cache's from-scratch capture runs this same kernel and has it record
//! every sample's rows node-major, in the row type it picked
//! ([`LaneRows`]).

use std::array;
use std::ops::{Add, Range, Sub};
use std::time::Instant;

use localwm_cdfg::{Cdfg, Csr, NodeId};
use localwm_engine::{checked_hi_sum, par_map, DesignContext, Parallelism};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DelayBounds, DelayInterval};

/// Result of a Monte-Carlo timing run.
#[derive(Debug, Clone)]
pub struct CriticalityReport {
    /// Per node: fraction of samples in which it was critical.
    pub criticality: Vec<f64>,
    /// Sampled circuit delays, one per sample (sorted ascending).
    pub delays: Vec<u64>,
    /// Number of samples drawn.
    pub samples: usize,
}

impl CriticalityReport {
    /// Criticality probability of one node.
    pub fn probability(&self, n: NodeId) -> f64 {
        self.criticality[n.index()]
    }

    /// The `q`-quantile of the sampled circuit delay (`q ∈ [0, 1]`).
    ///
    /// Uses the **lower-rank** rule on the sorted sample vector: the result
    /// is `delays[floor((n - 1) · q)]`, the largest sampled delay whose rank
    /// fraction does not exceed `q`. The returned value is always one that
    /// was actually sampled, the mapping is monotone in `q`, `q = 0` is the
    /// minimum, and `q = 1` the maximum.
    ///
    /// # Panics
    ///
    /// Panics if no samples were drawn or `q` is out of range.
    pub fn delay_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.delays.is_empty(), "no samples drawn");
        let idx = ((self.delays.len() - 1) as f64 * q).floor() as usize;
        self.delays[idx]
    }

    /// The `k` nodes most often critical among those `keep` accepts, with
    /// their probabilities: probability descending, then id ascending —
    /// the first `k` of a full sort in that order, selected in one pass
    /// instead. `keep` is asked only about nodes that would rank.
    pub fn top_critical(
        &self,
        k: usize,
        mut keep: impl FnMut(NodeId) -> bool,
    ) -> Vec<(NodeId, f64)> {
        let mut top: Vec<(NodeId, f64)> = Vec::with_capacity(k + 1);
        for (i, &p) in self.criticality.iter().enumerate() {
            // Ids ascend, so a candidate that ties the last entry ranks
            // after it.
            if top.len() == k && top.last().is_none_or(|&(_, q)| p <= q) {
                continue;
            }
            let v = NodeId::from_index(i);
            if keep(v) {
                let at = top.partition_point(|&(_, q)| q >= p);
                top.insert(at, (v, p));
                top.truncate(k);
            }
        }
        top
    }

    /// Nodes whose criticality probability is at least `threshold`,
    /// ascending by id.
    pub fn critical_above(&self, threshold: f64) -> Vec<NodeId> {
        self.criticality
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= threshold)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Samples per SoA block: eight `u32` lanes fill a 256-bit vector, and
/// three `n`-row scratch arrays stay cache-resident for realistic designs.
const LANES: usize = 8;

/// Per-run delay sampler, built once from the per-node bounds.
pub(crate) struct Sampler {
    /// Every node's delay if fixed (`lo == hi`), `0` for drawn nodes.
    fixed: Vec<u64>,
    /// Drawn nodes ascending by index, with their precomputed samplers.
    drawn: Vec<(usize, Uniform<u64>)>,
    /// Σ of every node's `hi` exceeds `u32`: rows must be `u64`.
    pub(crate) wide: bool,
}

impl Sampler {
    /// # Panics
    ///
    /// Panics if Σ of every node's `hi` overflows `u64`.
    pub(crate) fn new(bounds: &[DelayInterval]) -> Sampler {
        let total = checked_hi_sum(bounds.iter().copied())
            .expect("delay bounds overflow: the sum of every node's hi must fit a u64");
        Sampler {
            fixed: bounds
                .iter()
                .map(|b| if b.lo == b.hi { b.lo } else { 0 })
                .collect(),
            drawn: bounds
                .iter()
                .enumerate()
                .filter(|(_, b)| b.lo != b.hi)
                .map(|(v, b)| (v, Uniform::new_inclusive(b.lo, b.hi)))
                .collect(),
            wide: u32::try_from(total).is_err(),
        }
    }
}

/// A lane type that holds every path delay of the run exactly.
pub(crate) trait Word:
    Copy + Default + Ord + Add<Output = Self> + Sub<Output = Self> + Into<u64>
{
    /// Narrows a delay; [`Sampler`] picked the type so that it fits.
    fn narrow(v: u64) -> Self;
}

impl Word for u32 {
    #[inline]
    fn narrow(v: u64) -> Self {
        v as u32
    }
}

impl Word for u64 {
    #[inline]
    fn narrow(v: u64) -> Self {
        v
    }
}

type Row<T> = [T; LANES];

#[inline(always)]
fn max_into<T: Word>(acc: &mut Row<T>, row: &Row<T>) {
    for (a, &r) in acc.iter_mut().zip(row) {
        *a = (*a).max(r);
    }
}

#[inline(always)]
fn add<T: Word>(a: Row<T>, b: Row<T>) -> Row<T> {
    array::from_fn(|lane| a[lane] + b[lane])
}

/// What one sweep over a sample range produces.
pub(crate) struct Sweep {
    /// Per node: samples of the range in which it was critical.
    pub hits: Vec<u64>,
    /// Per sample, in sample order: the circuit delay (max finish).
    pub circuit: Vec<u64>,
}

/// Every sample's per-node state, node-major: node `v` owns the lane row
/// `[v * stride, (v + 1) * stride)`, one lane per sample of the recorded
/// range, so a patch re-derives all of a node's samples in one lane-wise
/// pass.
pub(crate) struct LaneRows<T> {
    /// Lanes per node row: the recorded range's sample count.
    pub stride: usize,
    /// Delay draws.
    pub d: Vec<T>,
    /// Forward finish times.
    pub finish: Vec<T>,
    /// Tail lengths (longest delay path strictly below the node).
    pub tail: Vec<T>,
    /// Critical-lane bits (`finish + tail == circuit`), [`crit_words`]
    /// `u64` words per node: bit `s % 64` of word `s / 64` is sample `s`.
    pub crit: Vec<u64>,
}

/// `u64` words per node of a [`LaneRows::crit`] bitset.
pub(crate) fn crit_words(stride: usize) -> usize {
    stride.div_ceil(64)
}

impl<T: Word> LaneRows<T> {
    pub(crate) fn zeroed(nodes: usize, stride: usize) -> LaneRows<T> {
        LaneRows {
            stride,
            d: vec![T::default(); nodes * stride],
            finish: vec![T::default(); nodes * stride],
            tail: vec![T::default(); nodes * stride],
            crit: vec![0; nodes * crit_words(stride)],
        }
    }
}

/// The Monte-Carlo inner loop: times samples `range` of the run
/// `(seed, sampler)` in `LANES`-wide SoA blocks over the memoized CSR,
/// in the row type the sampler picked. Single source of truth for the
/// per-sample math — the parallel sweep drives it directly and the
/// incremental cache's capture through [`sweep_rows`] with rows to fill.
pub(crate) fn soa_sweep(
    order: &[NodeId],
    preds: &Csr,
    succs: &Csr,
    sampler: &Sampler,
    seed: u64,
    range: Range<usize>,
) -> Sweep {
    if sampler.wide {
        sweep_rows::<u64>(order, preds, succs, sampler, seed, range, None)
    } else {
        sweep_rows::<u32>(order, preds, succs, sampler, seed, range, None)
    }
}

/// [`soa_sweep`] in an explicit row type `T`, which must be the one the
/// sampler picked (`u64` exactly when it is wide). With `rows`, also
/// records every sample's state there, node-major; `rows.stride` must be
/// the range's length.
pub(crate) fn sweep_rows<T: Word>(
    order: &[NodeId],
    preds: &Csr,
    succs: &Csr,
    sampler: &Sampler,
    seed: u64,
    range: Range<usize>,
    mut rows: Option<&mut LaneRows<T>>,
) -> Sweep {
    let n = order.len();
    // Fixed rows never change, so they are written once; drawn rows are
    // overwritten every block.
    let mut d: Vec<Row<T>> = sampler
        .fixed
        .iter()
        .map(|&v| [T::narrow(v); LANES])
        .collect();
    let mut finish = vec![[T::default(); LANES]; n];
    // `d + tail`: the longest delay path starting at the node.
    let mut down = vec![[T::default(); LANES]; n];
    let mut hits = vec![0u64; n];
    let mut circuits = Vec::with_capacity(range.len());
    let mut s0 = range.start;
    while s0 < range.end {
        let k = LANES.min(range.end - s0);
        // Lanes past the range draw too (bounded, never read) so every
        // loop below keeps its fixed width; `live` masks them out.
        let live: [bool; LANES] = array::from_fn(|lane| lane < k);
        let mut rngs: [StdRng; LANES] =
            array::from_fn(|lane| StdRng::seed_from_u64(sample_seed(seed, (s0 + lane) as u64)));
        for &(v, dist) in &sampler.drawn {
            for (slot, rng) in d[v].iter_mut().zip(&mut rngs) {
                *slot = T::narrow(dist.sample(rng));
            }
        }
        // Forward: arrivals in topo order.
        let mut circuit = [T::default(); LANES];
        for (p, &v) in order.iter().enumerate() {
            let mut arrive = [T::default(); LANES];
            for &u in preds.row(p) {
                max_into(&mut arrive, &finish[u as usize]);
            }
            let f = add(arrive, d[v.index()]);
            max_into(&mut circuit, &f);
            finish[v.index()] = f;
        }
        // Backward in reverse topo order (successor rows are final this
        // block), counting criticality as each tail settles.
        for p in (0..n).rev() {
            let v = order[p].index();
            let mut tail = [T::default(); LANES];
            for &w in succs.row(p) {
                max_into(&mut tail, &down[w as usize]);
            }
            down[v] = add(tail, d[v]);
            let f = finish[v];
            let mut hit = 0;
            for lane in 0..LANES {
                hit += u64::from(live[lane] & (f[lane] + tail[lane] == circuit[lane]));
            }
            hits[v] += hit;
        }
        if let Some(rows) = rows.as_deref_mut() {
            let first = s0 - range.start;
            let words = crit_words(rows.stride);
            for v in 0..n {
                let at = v * rows.stride + first;
                rows.d[at..at + k].copy_from_slice(&d[v][..k]);
                rows.finish[at..at + k].copy_from_slice(&finish[v][..k]);
                for lane in 0..k {
                    let t = down[v][lane] - d[v][lane];
                    rows.tail[at + lane] = t;
                    if finish[v][lane] + t == circuit[lane] {
                        let s = first + lane;
                        rows.crit[v * words + s / 64] |= 1u64 << (s % 64);
                    }
                }
            }
        }
        circuits.extend(circuit[..k].iter().map(|&c| c.into()));
        s0 += k;
    }
    Sweep {
        hits,
        circuit: circuits,
    }
}

/// Runs `samples` Monte-Carlo timing simulations of `g` under `model`,
/// drawing each node's delay uniformly from its interval.
///
/// Deterministic in `seed` (and independent of thread count — see
/// [`criticality_in`]). `O(samples · (V + E))` work.
///
/// # Panics
///
/// Panics if the graph is cyclic or `samples == 0`.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_timing::{criticality, KindBounds};
///
/// let g = iir4_parallel();
/// let report = criticality(&g, &KindBounds::uniform(1, 3), 200, 7);
/// let a9 = g.node_by_name("A9").unwrap();
/// assert!(report.probability(a9) > 0.5); // the output add is usually critical
/// ```
pub fn criticality<M: DelayBounds>(
    g: &Cdfg,
    model: &M,
    samples: usize,
    seed: u64,
) -> CriticalityReport {
    criticality_in(
        &DesignContext::from(g),
        model,
        samples,
        seed,
        Parallelism::from_env(),
    )
}

/// The largest Monte-Carlo sample count one analysis may ask for at a
/// surface that takes it from outside (a service request or a CLI flag).
/// Both refuse a count outside `1..=MAX_SAMPLES` before anything is
/// allocated: the kernel holds rows per sample, so 10^11 samples would
/// abort the process on a 400 GB allocation, and `0` has no criticality
/// to report.
pub const MAX_SAMPLES: usize = 1_000_000;

/// [`criticality`] against a shared [`DesignContext`], fanning independent
/// input vectors across scoped worker threads per `par` and timing them
/// through the SoA block kernel ([`soa_sweep`]).
///
/// Per-sample seeding makes the output identical for every
/// [`Parallelism`] choice, and equal to [`criticality_reference`].
///
/// # Panics
///
/// Panics if the graph is cyclic, `samples == 0`, or the sum of every
/// node's maximum delay overflows `u64` ([`checked_hi_sum`]).
pub fn criticality_in<M: DelayBounds>(
    ctx: &DesignContext,
    model: &M,
    samples: usize,
    seed: u64,
    par: Parallelism,
) -> CriticalityReport {
    assert!(samples > 0, "at least one sample required");
    let g = ctx.graph();
    let order = ctx.topo();
    // Flat CSR adjacency: each sweep below streams packed u32 neighbor rows
    // laid out in topo order instead of chasing EdgeId → Option<Edge>.
    let preds = ctx.preds_csr();
    let succs = ctx.succs_csr();
    let n = g.node_count();
    let sampler = Sampler::new(ctx.resolved_bounds(model).intervals());
    let probe = ctx.probe();
    probe.counter("timing.criticality.samples", samples as u64);

    // Contiguous sample ranges, one per worker; per-sample seeds make the
    // partitioning irrelevant to the result.
    let workers = par.worker_count(samples);
    let chunk = samples.div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| w * chunk..((w + 1) * chunk).min(samples))
        .filter(|r| !r.is_empty())
        .collect();

    let sweep_start = Instant::now();
    let parts = par_map(par, &ranges, |_, range| {
        soa_sweep(order, preds, succs, &sampler, seed, range.clone())
    });
    let sweep_ns = u64::try_from(sweep_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    probe.timer_ns("timing.criticality", sweep_ns);
    probe.counter(
        "timing.criticality.ns_per_sample",
        sweep_ns / samples as u64,
    );

    let mut hits = vec![0u64; n];
    let mut delays = Vec::with_capacity(samples);
    for part in parts {
        for (h, p) in hits.iter_mut().zip(part.hits) {
            *h += p;
        }
        delays.extend(part.circuit);
    }
    delays.sort_unstable();
    CriticalityReport {
        criticality: hits.iter().map(|&h| h as f64 / samples as f64).collect(),
        delays,
        samples,
    }
}

/// The Monte-Carlo criticality report computed the plain way, one sample
/// at a time, as the oracle the SoA kernel is tested and timed against.
///
/// It shares nothing with [`criticality_in`] but the per-sample seeding:
/// sample `s` seeds a [`StdRng`] from `sample_seed(seed, s)`, draws every
/// node's delay with `gen_range` in node-index order (a fixed `lo == hi`
/// interval takes no draw), walks the graph's own adjacency in topological
/// order for finish times, and marks a node critical when its finish time
/// equals its required time. [`criticality_in`] must equal it bit for bit.
///
/// # Panics
///
/// Panics if the graph is cyclic or `samples == 0`.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_timing::{criticality, criticality_reference, KindBounds};
///
/// let g = iir4_parallel();
/// let model = KindBounds::uniform(1, 3);
/// let fast = criticality(&g, &model, 50, 7);
/// let slow = criticality_reference(&g, &model, 50, 7);
/// assert_eq!(fast.delays, slow.delays);
/// assert_eq!(fast.criticality, slow.criticality);
/// ```
pub fn criticality_reference<M: DelayBounds>(
    g: &Cdfg,
    model: &M,
    samples: usize,
    seed: u64,
) -> CriticalityReport {
    assert!(samples > 0, "at least one sample required");
    let order = g.topo_order().expect("criticality requires a DAG");
    let bounds: Vec<DelayInterval> = g.node_ids().map(|v| model.bounds(g, v)).collect();
    let n = g.node_count();
    let mut d = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut required = vec![0u64; n];
    let mut hits = vec![0u64; n];
    let mut delays = Vec::with_capacity(samples);
    for s in 0..samples {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, s as u64));
        for (dv, b) in d.iter_mut().zip(&bounds) {
            *dv = if b.lo == b.hi {
                b.lo
            } else {
                rng.gen_range(b.lo..=b.hi)
            };
        }
        for &v in &order {
            let arrive = g.preds(v).map(|u| finish[u.index()]).max().unwrap_or(0);
            finish[v.index()] = arrive + d[v.index()];
        }
        let circuit = finish.iter().copied().max().unwrap_or(0);
        for &v in order.iter().rev() {
            required[v.index()] = g
                .succs(v)
                .map(|w| required[w.index()] - d[w.index()])
                .min()
                .unwrap_or(circuit);
        }
        for (h, (f, r)) in hits.iter_mut().zip(finish.iter().zip(&required)) {
            *h += u64::from(f == r);
        }
        delays.push(circuit);
    }
    delays.sort_unstable();
    CriticalityReport {
        criticality: hits.iter().map(|&h| h as f64 / samples as f64).collect(),
        delays,
        samples,
    }
}

/// SplitMix64 mix of the run seed and a sample index: well-separated
/// per-sample streams that do not depend on work partitioning.
pub(crate) fn sample_seed(seed: u64, index: u64) -> u64 {
    localwm_prng::SplitMix64::mix(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded_critical_path, KindBounds};
    use localwm_cdfg::generators::{layered, random_dag, LayeredConfig};
    use localwm_cdfg::{Cdfg, OpKind};

    #[test]
    fn fixed_delays_give_binary_criticality() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let b = g.add_node(OpKind::Not);
        let c = g.add_node(OpKind::Not); // short side branch
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(x, c).unwrap();
        let r = criticality(&g, &KindBounds::unit(), 50, 1);
        assert_eq!(r.probability(a), 1.0);
        assert_eq!(r.probability(b), 1.0);
        assert_eq!(r.probability(c), 0.0);
    }

    #[test]
    fn sampled_delays_stay_within_the_interval_bounds() {
        let g = random_dag(40, 0.15, 3);
        let model = KindBounds::uniform(1, 4);
        let interval = bounded_critical_path(&g, &model);
        let r = criticality(&g, &model, 300, 9);
        assert!(*r.delays.first().unwrap() >= interval.lo);
        assert!(*r.delays.last().unwrap() <= interval.hi);
        assert!(r.delay_quantile(0.0) <= r.delay_quantile(1.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = random_dag(30, 0.2, 5);
        let model = KindBounds::uniform(1, 3);
        let a = criticality(&g, &model, 100, 11);
        let b = criticality(&g, &model, 100, 11);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.criticality, b.criticality);
    }

    fn assert_matches_reference(
        ctx: &DesignContext,
        model: &KindBounds,
        samples: usize,
        seed: u64,
        par: Parallelism,
    ) {
        let fast = criticality_in(ctx, model, samples, seed, par);
        let slow = criticality_reference(ctx.graph(), model, samples, seed);
        assert_eq!(fast.delays, slow.delays, "{samples} samples, {par:?}");
        assert_eq!(
            fast.criticality, slow.criticality,
            "{samples} samples, {par:?}"
        );
    }

    #[test]
    fn kernel_matches_the_reference() {
        // Sample counts around multiples of LANES leave short final blocks
        // (one per worker range under threads). The layered design mixes
        // fixed rows (inputs, outputs, the Add override) in between drawn
        // ones, and the Mul override is a power-of-two span.
        let g = layered(&LayeredConfig {
            ops: 60,
            layers: 6,
            seed: 3,
            ..Default::default()
        });
        let ctx = DesignContext::from(&g);
        let mixed = KindBounds::uniform(1, 3)
            .with(OpKind::Add, DelayInterval::fixed(2))
            .with(OpKind::Mul, DelayInterval::new(2, 5));
        for model in [KindBounds::uniform(1, 4), mixed] {
            for samples in [1, 7, 8, 9, 16, 97] {
                for par in [
                    Parallelism::Serial,
                    Parallelism::Threads(2),
                    Parallelism::Threads(5),
                    Parallelism::Auto,
                ] {
                    assert_matches_reference(&ctx, &model, samples, 17, par);
                }
            }
        }
    }

    #[test]
    fn row_type_follows_the_bound_sum() {
        let max32 = u64::from(u32::MAX);
        let fits = [DelayInterval::new(0, max32 - 1), DelayInterval::fixed(1)];
        assert!(!Sampler::new(&fits).wide, "sum == u32::MAX keeps u32 rows");
        let spills = [DelayInterval::new(0, max32), DelayInterval::fixed(1)];
        assert!(
            Sampler::new(&spills).wide,
            "sum == u32::MAX + 1 needs u64 rows"
        );
    }

    #[test]
    fn wide_rows_match_the_reference() {
        let g = random_dag(40, 0.15, 13);
        let ctx = DesignContext::from(&g);
        for (lo, hi) in [(1 << 40, (1 << 40) + 5), (0, u64::MAX / 64)] {
            let model = KindBounds::uniform(lo, hi);
            let bounds: Vec<DelayInterval> = g.node_ids().map(|v| model.bounds(&g, v)).collect();
            assert!(Sampler::new(&bounds).wide);
            for par in [Parallelism::Serial, Parallelism::Threads(3)] {
                assert_matches_reference(&ctx, &model, 19, 5, par);
            }
        }
    }

    #[test]
    #[should_panic(expected = "delay bounds overflow")]
    fn overflowing_bounds_panic_before_sampling() {
        let g = random_dag(40, 0.15, 13);
        let _ = criticality(&g, &KindBounds::uniform(1, u64::MAX / 2), 4, 0);
    }

    #[test]
    fn zero_width_intervals_are_exact_and_nan_free() {
        // Every interval has lo == hi (no draws at all) — including the
        // all-zero-delay degenerate where the circuit delay is 0 and
        // *every* node is critical. Probabilities must stay exact
        // (0 or 1), never NaN.
        let g = random_dag(30, 0.2, 3);
        for (lo, hi) in [(2, 2), (0, 0)] {
            let r = criticality(&g, &KindBounds::uniform(lo, hi), 64, 5);
            assert!(r.criticality.iter().all(|p| !p.is_nan()));
            assert!(r.criticality.iter().all(|&p| p == 0.0 || p == 1.0));
            assert!(r.delays.iter().all(|&dl| dl == r.delays[0]));
            if lo == 0 {
                assert!(r.criticality.iter().all(|&p| p == 1.0));
                assert_eq!(r.delays[0], 0);
            }
        }
    }

    #[test]
    fn uncertainty_spreads_criticality() {
        let g = random_dag(50, 0.12, 8);
        let tight = criticality(&g, &KindBounds::unit(), 200, 2);
        let loose = criticality(&g, &KindBounds::uniform(1, 5), 200, 2);
        let count = |r: &CriticalityReport| r.critical_above(0.01).len();
        assert!(
            count(&loose) >= count(&tight),
            "delay uncertainty should widen the sometimes-critical set"
        );
    }

    #[test]
    fn quantile_uses_the_lower_rank_rule() {
        let report = |delays: Vec<u64>| CriticalityReport {
            criticality: Vec::new(),
            samples: delays.len(),
            delays,
        };
        // n = 1: every quantile is the only sample.
        let r1 = report(vec![7]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(r1.delay_quantile(q), 7);
        }
        // n = 2: floor((2 - 1) * 0.5) = 0 — the median is the *lower* of
        // the two samples (nearest-rank rounding would pick the upper).
        let r2 = report(vec![3, 9]);
        assert_eq!(r2.delay_quantile(0.0), 3);
        assert_eq!(r2.delay_quantile(0.5), 3);
        assert_eq!(r2.delay_quantile(1.0), 9);
        // n = 3: floor((3 - 1) * 0.5) = 1 — the exact middle sample.
        let r3 = report(vec![1, 5, 8]);
        assert_eq!(r3.delay_quantile(0.0), 1);
        assert_eq!(r3.delay_quantile(0.5), 5);
        assert_eq!(r3.delay_quantile(1.0), 8);
    }

    #[test]
    fn top_critical_equals_the_head_of_a_full_sort() {
        let report = CriticalityReport {
            criticality: vec![0.5, 0.0, 1.0, 0.5, 0.25, 1.0, 0.5, 0.0, 0.75],
            delays: vec![1],
            samples: 4,
        };
        let keep = |v: NodeId| v.index() != 5;
        let mut all: Vec<(NodeId, f64)> = (0..9)
            .map(NodeId::from_index)
            .filter(|&v| keep(v))
            .map(|v| (v, report.probability(v)))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for k in 0..10 {
            let want: Vec<(NodeId, f64)> = all.iter().copied().take(k).collect();
            assert_eq!(report.top_critical(k, keep), want, "k = {k}");
        }
    }

    #[test]
    fn criticality_reports_per_sample_cost() {
        let g = random_dag(30, 0.2, 4);
        let rec = std::sync::Arc::new(localwm_engine::RecordingProbe::new());
        let ctx = DesignContext::from(&g).with_probe(rec.clone());
        let _ = criticality_in(&ctx, &KindBounds::uniform(1, 3), 25, 3, Parallelism::Serial);
        assert_eq!(rec.counter_value("timing.criticality.samples"), 25);
        assert_eq!(rec.timer_count("timing.criticality"), 1);
        // ns_per_sample (elapsed/samples) is recorded once per run.
        assert!(rec.counter_value("timing.criticality.ns_per_sample") < u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let g = random_dag(5, 0.3, 0);
        let _ = criticality(&g, &KindBounds::unit(), 0, 0);
    }
}

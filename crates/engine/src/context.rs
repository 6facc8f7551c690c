//! The memoized analysis context shared by every pass.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use localwm_cdfg::{analysis, Cdfg, CdfgError, Csr, EdgeId, NodeId, TopoError};

use crate::bounded::{bounded_arrival_with_csr, BoundedArrival};
use crate::delay::{checked_hi_sum, DelayBounds, DelayInterval, KindBounds};
use crate::editor::{DesignEditor, EditLog, EditRecord};
use crate::probe::{NoopProbe, Probe};
use crate::unit::UnitTiming;

/// Error from a fallible context query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The graph is not a DAG.
    Cyclic(TopoError),
    /// A deadline is tighter than the graph's critical path.
    InfeasibleDeadline {
        /// The requested number of control steps.
        deadline: u32,
        /// The critical path that does not fit in them.
        critical_path: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Cyclic(e) => write!(f, "{e}"),
            EngineError::InfeasibleDeadline {
                deadline,
                critical_path,
            } => write!(
                f,
                "deadline of {deadline} step(s) is infeasible: critical path is {critical_path}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Materialized ASAP/ALAP windows of every node under one deadline.
///
/// Produced (and memoized per deadline) by [`DesignContext::windows`]; all
/// queries are O(1) array reads.
#[derive(Debug, Clone)]
pub struct WindowTable {
    deadline: u32,
    asap: Vec<u32>,
    alap: Vec<u32>,
}

impl WindowTable {
    /// The deadline (available control steps) this table was built for.
    pub fn deadline(&self) -> u32 {
        self.deadline
    }

    /// Earliest control step of `n` (1-based; 0 for free sources).
    pub fn asap(&self, n: NodeId) -> u32 {
        self.asap[n.index()]
    }

    /// Latest control step of `n` under the deadline.
    pub fn alap(&self, n: NodeId) -> u32 {
        self.alap[n.index()]
    }

    /// Scheduling freedom of `n`: `alap - asap`.
    pub fn mobility(&self, n: NodeId) -> u32 {
        self.alap[n.index()] - self.asap[n.index()]
    }

    /// Whether the mobility windows of two nodes overlap — the pairing
    /// precondition for temporal-edge endpoints.
    pub fn overlap(&self, a: NodeId, b: NodeId) -> bool {
        self.asap[a.index()] <= self.alap[b.index()] && self.asap[b.index()] <= self.alap[a.index()]
    }
}

/// A delay model's per-node intervals over one graph, with the cache key
/// and the path-sum bound every consumer derives from them.
///
/// Produced by [`DesignContext::resolved_bounds`]; memoized there for
/// models that name their parameters ([`DelayBounds::kind_bounds`]).
#[derive(Debug)]
pub struct ResolvedBounds {
    intervals: Vec<DelayInterval>,
    key: OnceLock<u64>,
    hi_sum: Option<u64>,
}

impl ResolvedBounds {
    fn new(intervals: Vec<DelayInterval>) -> Self {
        ResolvedBounds {
            key: OnceLock::new(),
            hi_sum: checked_hi_sum(intervals.iter().copied()),
            intervals,
        }
    }

    /// Every node's interval, in node-id order.
    pub fn intervals(&self) -> &[DelayInterval] {
        &self.intervals
    }

    /// The fingerprint of the intervals: models that assign the same
    /// intervals share it, and the arrival cache is keyed by it. Hashed on
    /// first use.
    pub fn key(&self) -> u64 {
        *self.key.get_or_init(|| fingerprint(&self.intervals))
    }

    /// Σ of every node's `hi`, or `None` when it overflows `u64`
    /// ([`checked_hi_sum`]).
    pub fn hi_sum(&self) -> Option<u64> {
        self.hi_sum
    }
}

/// Fanin-cone cache keyed by `(root, max_dist)`.
type FaninCache = HashMap<(NodeId, u32), Arc<Vec<NodeId>>>;

/// A bounded-arrival result displaced by a mutation but kept for
/// dirty-cone patching: still exact for every node whose fan-in cone the
/// mutations since `generation` did not touch.
struct StaleArrival {
    /// [`fingerprint`] of the bounds vector it was built from.
    key: u64,
    /// Node count at build time (bounds are in node-id order and node ids
    /// are append-only, so `fingerprint(&bounds[..len]) == key` proves the
    /// surviving nodes' bounds are unchanged).
    len: usize,
    /// Generation the result was valid at; [`DesignContext::dirty_since`]
    /// from here gives the touched set.
    generation: u64,
    arr: Arc<BoundedArrival>,
}

/// Mutations remembered for [`DesignContext::dirty_since`] before the
/// history is pruned (each event is one `mutate` batch's touched set).
const DIRTY_HISTORY_CAP: usize = 64;

/// Displaced bounded-arrival results kept for patching (newest win).
const STALE_BOUNDED_CAP: usize = 8;

/// Resolved per-kind models kept per context (newest win); each holds one
/// interval per node.
const RESOLVED_CAP: usize = 8;

/// The touched-node set of one `mutate` batch.
struct DirtyEvent {
    /// Generation *after* the batch applied.
    generation: u64,
    nodes: Vec<NodeId>,
}

/// Ring of per-mutation dirty sets, with a floor below which history was
/// pruned (or a full invalidation erased it).
#[derive(Default)]
struct DirtyHistory {
    floor: u64,
    events: VecDeque<DirtyEvent>,
}

impl DirtyHistory {
    fn record(&mut self, generation: u64, nodes: Vec<NodeId>) {
        self.events.push_back(DirtyEvent { generation, nodes });
        if self.events.len() > DIRTY_HISTORY_CAP {
            if let Some(ev) = self.events.pop_front() {
                self.floor = ev.generation;
            }
        }
    }

    fn reset(&mut self, generation: u64) {
        self.floor = generation;
        self.events.clear();
    }
}

#[derive(Default)]
struct Caches {
    topo: OnceLock<Result<Vec<NodeId>, TopoError>>,
    csr: OnceLock<(Csr, Csr)>,
    unit: OnceLock<UnitTiming>,
    windows: Mutex<HashMap<u32, Arc<WindowTable>>>,
    levels: Mutex<HashMap<NodeId, Arc<Vec<Option<u32>>>>>,
    fanin: Mutex<FaninCache>,
    bounded: Mutex<HashMap<u64, Arc<BoundedArrival>>>,
    stale_bounded: Mutex<Vec<StaleArrival>>,
    resolved: Mutex<Vec<(KindBounds, Arc<ResolvedBounds>)>>,
    content: OnceLock<u64>,
}

/// A CDFG bundled with lazily computed, memoized analyses: topological
/// order, unit-delay timing (ASAP/ALAP/laxity), per-deadline window tables,
/// per-root levels, fanin cones, and bounded-delay critical paths.
///
/// This is the **single source of truth** for those analyses: timing,
/// scheduling, watermarking, matching and simulation passes all query one
/// context instead of re-deriving graph facts. Every cache is interior
/// (`OnceLock`/`Mutex`), so a `&DesignContext` can be shared across scoped
/// worker threads; queries fill caches on first use and are O(1) after.
///
/// Mutation goes through [`DesignContext::mutate`] (or the incremental
/// [`DesignContext::add_temporal_edge`]), which bumps a generation counter
/// and invalidates the caches, so stale analyses are unrepresentable.
///
/// The context [`Deref`]s to [`Cdfg`], so plain graph accessors
/// (`node_count`, `succs`, `kind`, …) work directly on it.
///
/// ```
/// use localwm_cdfg::designs::iir4_parallel;
/// use localwm_engine::DesignContext;
///
/// let ctx = DesignContext::new(iir4_parallel());
/// assert_eq!(ctx.critical_path(), 6);
/// let w = ctx.windows(8).unwrap();
/// let a9 = ctx.node_by_name("A9").unwrap();
/// assert_eq!(w.asap(a9), 6);
/// ```
pub struct DesignContext {
    graph: Cdfg,
    generation: u64,
    probe: Arc<dyn Probe>,
    caches: Caches,
    dirty: DirtyHistory,
}

impl fmt::Debug for DesignContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DesignContext")
            .field("nodes", &self.graph.node_count())
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl DesignContext {
    /// Wraps a graph. No analysis runs until queried.
    pub fn new(graph: Cdfg) -> Self {
        DesignContext {
            graph,
            generation: 0,
            probe: Arc::new(NoopProbe),
            caches: Caches::default(),
            dirty: DirtyHistory::default(),
        }
    }

    /// Wraps a graph rehydrated from a content-addressed store, seeding
    /// the memoized content hash with the key it was stored under. The
    /// caller asserts `content_hash` is the FNV-1a of the graph's
    /// canonical text — for store-loaded designs that holds by
    /// construction, because the store keys design records by exactly
    /// that hash. Seeding skips the serialize-and-hash pass a fresh
    /// context would pay on its first cache insertion, which is part of
    /// the warm-start win.
    pub fn from_stored(graph: Cdfg, content_hash: u64) -> Self {
        let ctx = DesignContext::new(graph);
        let _ = ctx.caches.content.set(content_hash);
        ctx
    }

    /// Replaces the instrumentation probe (default: no-op).
    #[must_use]
    pub fn with_probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// The instrumentation probe observing this context's passes.
    pub fn probe(&self) -> &dyn Probe {
        self.probe.as_ref()
    }

    /// A shareable handle to the probe, for worker threads.
    pub fn probe_arc(&self) -> Arc<dyn Probe> {
        Arc::clone(&self.probe)
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &Cdfg {
        &self.graph
    }

    /// Unwraps the graph, dropping all caches.
    pub fn into_graph(self) -> Cdfg {
        self.graph
    }

    /// Monotone counter bumped by every mutation; two equal generations on
    /// the same context mean the graph (and all cached analyses) are
    /// unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The nodes touched by every mutation after generation `since`
    /// (deduplicated, in id order; empty when `since` is the current
    /// generation). Returns `None` when the history cannot answer — `since`
    /// predates the retained window, an untracked mutation intervened, or
    /// `since` is from the future — in which case a consumer must treat
    /// everything as dirty.
    ///
    /// This is the contract external incremental layers (the Monte-Carlo
    /// criticality cache in `localwm-timing`, for one) build on: a result
    /// computed at `since` stays exact for every node whose recompute cone
    /// avoids this set.
    pub fn dirty_since(&self, since: u64) -> Option<Vec<NodeId>> {
        if since > self.generation || since < self.dirty.floor {
            return None;
        }
        let mut set = BTreeSet::new();
        for ev in &self.dirty.events {
            if ev.generation > since {
                set.extend(ev.nodes.iter().copied());
            }
        }
        Some(set.into_iter().collect())
    }

    /// The patch work threshold: an incremental patch re-derives at most
    /// this many nodes per direction before falling back to a full
    /// rebuild. `max(64, V / 2)` — past half the graph, a patch stops
    /// paying for its worklist.
    pub fn cone_limit(&self) -> usize {
        (self.graph.node_count() / 2).max(64)
    }

    /// The memoized topological order (deterministic lowest-id-first).
    ///
    /// # Errors
    ///
    /// Returns [`TopoError`] if the graph is cyclic.
    pub fn try_topo(&self) -> Result<&[NodeId], TopoError> {
        match self.caches.topo.get_or_init(|| {
            self.probe.counter("engine.topo.build", 1);
            localwm_cdfg::topo_order(&self.graph)
        }) {
            Ok(v) => Ok(v.as_slice()),
            Err(e) => Err(e.clone()),
        }
    }

    /// The memoized topological order.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; use [`DesignContext::try_topo`] to
    /// handle that case.
    pub fn topo(&self) -> &[NodeId] {
        self.try_topo().expect("analysis requires a DAG")
    }

    /// Both memoized CSR views, built together from one topo sweep.
    fn csr_pair(&self) -> &(Csr, Csr) {
        self.caches.csr.get_or_init(|| {
            let order = self.topo();
            self.probe.counter("engine.csr.build", 1);
            (
                Csr::preds(&self.graph, order),
                Csr::succs(&self.graph, order),
            )
        })
    }

    /// The memoized compressed-sparse-row **predecessor** view: packed
    /// live-edge adjacency with rows laid out in topological order, the
    /// flat substrate of the timing hot path (Monte-Carlo criticality,
    /// bounded arrival, unit depth/tail). Built once per generation
    /// together with [`DesignContext::succs_csr`]; invalidated by mutation
    /// like every other cached analysis.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn preds_csr(&self) -> &Csr {
        &self.csr_pair().0
    }

    /// The memoized compressed-sparse-row **successor** view; see
    /// [`DesignContext::preds_csr`].
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn succs_csr(&self) -> &Csr {
        &self.csr_pair().1
    }

    /// The memoized unit-delay timing (ASAP/ALAP/laxity substrate).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn unit_timing(&self) -> &UnitTiming {
        self.caches.unit.get_or_init(|| {
            let order = self.topo();
            let (preds, succs) = self.csr_pair();
            self.probe.counter("engine.unit.build", 1);
            UnitTiming::with_csr(&self.graph, order, preds, succs)
        })
    }

    /// The critical path `C` in control steps under the unit-delay model.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn critical_path(&self) -> u32 {
        self.unit_timing().critical_path()
    }

    /// The paper's *laxity* of `n`: length of the longest path through it.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn laxity(&self, n: NodeId) -> u32 {
        self.unit_timing().laxity(n)
    }

    /// The memoized ASAP/ALAP window table for one deadline.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cyclic`] if the graph is not a DAG;
    /// [`EngineError::InfeasibleDeadline`] if the critical path exceeds the
    /// deadline.
    pub fn windows(&self, deadline: u32) -> Result<Arc<WindowTable>, EngineError> {
        if let Err(e) = self.try_topo() {
            return Err(EngineError::Cyclic(e));
        }
        let timing = self.unit_timing();
        if timing.critical_path() > deadline {
            return Err(EngineError::InfeasibleDeadline {
                deadline,
                critical_path: timing.critical_path(),
            });
        }
        let mut cache = self.caches.windows.lock().expect("windows cache lock");
        if let Some(t) = cache.get(&deadline) {
            self.probe.counter("engine.windows.hit", 1);
            return Ok(Arc::clone(t));
        }
        self.probe.counter("engine.windows.miss", 1);
        let ids: Vec<NodeId> = self.graph.node_ids().collect();
        let table = Arc::new(WindowTable {
            deadline,
            asap: ids.iter().map(|&n| timing.asap(n)).collect(),
            alap: ids.iter().map(|&n| timing.alap(n, deadline)).collect(),
        });
        cache.insert(deadline, Arc::clone(&table));
        Ok(table)
    }

    /// The memoized criterion-C1 levels with respect to `root`: longest
    /// path (in edges) from `root` against edge direction; `None` outside
    /// the fanin cone.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn levels_from(&self, root: NodeId) -> Arc<Vec<Option<u32>>> {
        let mut cache = self.caches.levels.lock().expect("levels cache lock");
        if let Some(l) = cache.get(&root) {
            self.probe.counter("engine.levels.hit", 1);
            return Arc::clone(l);
        }
        self.probe.counter("engine.levels.miss", 1);
        let levels = Arc::new(analysis::levels_from(&self.graph, root));
        cache.insert(root, Arc::clone(&levels));
        levels
    }

    /// The memoized transitive fanin cone of `n` within `max_dist` edges,
    /// including `n` itself, in deterministic BFS order.
    pub fn fanin_cone(&self, n: NodeId, max_dist: u32) -> Arc<Vec<NodeId>> {
        let mut cache = self.caches.fanin.lock().expect("fanin cache lock");
        if let Some(c) = cache.get(&(n, max_dist)) {
            self.probe.counter("engine.fanin.hit", 1);
            return Arc::clone(c);
        }
        self.probe.counter("engine.fanin.miss", 1);
        let cone = Arc::new(analysis::fanin_within(&self.graph, n, max_dist));
        cache.insert((n, max_dist), Arc::clone(&cone));
        cone
    }

    /// Criterion C2: number of nodes in the fanin cone of `n` within
    /// `max_dist`, excluding `n`.
    pub fn fanin_count(&self, n: NodeId, max_dist: u32) -> usize {
        self.fanin_cone(n, max_dist).len() - 1
    }

    /// Criterion C3: `φ(n, x)`, the functionality-id sum over the fanin
    /// cone of `n` within `max_dist`, including `n`.
    pub fn phi(&self, n: NodeId, max_dist: u32) -> u64 {
        self.fanin_cone(n, max_dist)
            .iter()
            .map(|&m| u64::from(self.graph.kind(m).functionality_id()))
            .sum()
    }

    /// The memoized bounded-delay arrival analysis under `model`.
    ///
    /// Models are identified by a fingerprint of their per-node intervals,
    /// so distinct model values that induce the same bounds share one cache
    /// entry. A model that names its parameters takes the fingerprint from
    /// [`DesignContext::resolved_bounds`]'s memo, so a hit does not walk the
    /// graph. A miss first probes the stale store: a result displaced by
    /// recent mutations whose surviving-node bounds are provably unchanged
    /// (prefix fingerprint match) is **patched** — finish times and tails
    /// are re-derived outward from the dirty nodes only where they change
    /// ([`patch_sweep`](crate::patch_sweep)) — instead of recomputed, when
    /// the work fits [`DesignContext::cone_limit`]. Patched results are
    /// byte-identical to from-scratch ones.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn bounded_arrival<M: DelayBounds + ?Sized>(&self, model: &M) -> Arc<BoundedArrival> {
        let r = self.resolved_bounds(model);
        self.bounded_arrival_keyed(r.key(), r.intervals())
    }

    /// [`DesignContext::bounded_arrival`] for the intervals `bounds`, whose
    /// fingerprint is `key`.
    fn bounded_arrival_keyed(&self, key: u64, bounds: &[DelayInterval]) -> Arc<BoundedArrival> {
        {
            let cache = self.caches.bounded.lock().expect("bounded cache lock");
            if let Some(a) = cache.get(&key) {
                self.probe.counter("engine.bounded.hit", 1);
                return Arc::clone(a);
            }
        }
        let mut cache = self.caches.bounded.lock().expect("bounded cache lock");
        if let Some(a) = cache.get(&key) {
            self.probe.counter("engine.bounded.hit", 1);
            return Arc::clone(a);
        }
        if let Some(patched) = self.patch_stale_bounded(bounds, key) {
            self.probe.counter("engine.bounded.patch", 1);
            let arr = Arc::new(patched);
            cache.insert(key, Arc::clone(&arr));
            return arr;
        }
        self.probe.counter("engine.bounded.miss", 1);
        let order = self.topo();
        let (preds, succs) = self.csr_pair();
        let arr = Arc::new(bounded_arrival_with_csr(order, preds, succs, bounds));
        cache.insert(key, Arc::clone(&arr));
        arr
    }

    /// Tries to derive the arrival analysis for `bounds` by patching a
    /// stale entry where its values change. Newest entries are probed
    /// first, and the one that matches is taken out of the store (an older
    /// one would only have more to patch). `key` is the fingerprint of all
    /// of `bounds`.
    fn patch_stale_bounded(&self, bounds: &[DelayInterval], key: u64) -> Option<BoundedArrival> {
        let order = self.try_topo().ok()?;
        let mut stale = self
            .caches
            .stale_bounded
            .lock()
            .expect("stale bounded lock");
        let (i, seeds) = stale.iter().enumerate().rev().find_map(|(i, entry)| {
            // The prefix fingerprint proves every pre-existing node kept
            // its interval (bounds are in node-id order and ids are
            // append-only). Structure-sensitive models (DynamicBounds) fail
            // this check after an edge edit and fall through to a full
            // recompute — exactly right, their intervals moved.
            let prefix_key = match entry.len.cmp(&bounds.len()) {
                std::cmp::Ordering::Equal => key,
                std::cmp::Ordering::Less => fingerprint(&bounds[..entry.len]),
                std::cmp::Ordering::Greater => return None,
            };
            if prefix_key != entry.key {
                return None;
            }
            let mut seeds = self.dirty_since(entry.generation)?;
            seeds.extend((entry.len..bounds.len()).map(NodeId::from_index));
            Some((i, seeds))
        })?;
        let mut arr = Arc::unwrap_or_clone(stale.remove(i).arr);
        arr.finish.resize(bounds.len(), DelayInterval::fixed(0));
        arr.tail.resize(bounds.len(), 0);
        let (preds, succs) = self.csr_pair();
        arr.patch(order, preds, succs, bounds, &seeds, self.cone_limit())
            .then_some(arr)
    }

    /// The memoized circuit critical-path interval under `model`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn bounded_critical_path<M: DelayBounds + ?Sized>(&self, model: &M) -> DelayInterval {
        self.bounded_arrival(model).critical_path
    }

    /// Nodes possibly critical under `model` (zero worst-case slack), in
    /// id order: a filter over the memoized arrival analysis, whose tails
    /// make the slack test one comparison per node
    /// ([`BoundedArrival::possibly_critical`]).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn possibly_critical<M: DelayBounds + ?Sized>(&self, model: &M) -> Vec<NodeId> {
        self.bounded_arrival(model).possibly_critical().collect()
    }

    /// [`DesignContext::possibly_critical`] as a shared set.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn possibly_critical_shared<M: DelayBounds + ?Sized>(&self, model: &M) -> Arc<Vec<NodeId>> {
        Arc::new(self.possibly_critical(model))
    }

    /// `model`'s per-node intervals over the current graph, with their
    /// fingerprint and hi-sum.
    ///
    /// A model that names its parameters ([`DelayBounds::kind_bounds`]) is
    /// resolved once and memoized, keyed by those parameters: a repeat
    /// query neither walks the graph nor hashes. Per-kind intervals depend
    /// on node kinds alone, so the memo survives every edit that adds no
    /// node. Any other model is resolved afresh on each call.
    pub fn resolved_bounds<M: DelayBounds + ?Sized>(&self, model: &M) -> Arc<ResolvedBounds> {
        match model.kind_bounds() {
            Some(params) => self.memoized_bounds(params),
            None => Arc::new(ResolvedBounds::new(self.materialize(model))),
        }
    }

    fn memoized_bounds(&self, params: &KindBounds) -> Arc<ResolvedBounds> {
        let mut memo = self.caches.resolved.lock().expect("resolved bounds lock");
        if let Some((_, r)) = memo.iter().find(|(m, _)| m == params) {
            return Arc::clone(r);
        }
        self.probe.counter("engine.bounds.resolve", 1);
        let r = Arc::new(ResolvedBounds::new(self.materialize(params)));
        if memo.len() == RESOLVED_CAP {
            memo.remove(0);
        }
        memo.push((params.clone(), Arc::clone(&r)));
        r
    }

    /// Every node's interval under `model`, in node-id order.
    fn materialize<M: DelayBounds + ?Sized>(&self, model: &M) -> Vec<DelayInterval> {
        self.graph
            .node_ids()
            .map(|n| model.bounds(&self.graph, n))
            .collect()
    }

    /// A stable content hash of the design: FNV-1a over the canonical
    /// serialized CDFG ([`localwm_cdfg::write_cdfg`]).
    ///
    /// The hash identifies the graph by *content* — node kinds, names, and
    /// edges in id order — so two contexts built from the same design (e.g.
    /// a graph and its write→parse round-trip, which preserves node ids)
    /// hash identically even though they are distinct allocations. Service
    /// layers key shared-context caches on this. Memoized; invalidated by
    /// mutation like every other cached analysis.
    pub fn content_hash(&self) -> u64 {
        *self
            .caches
            .content
            .get_or_init(|| fnv1a_bytes(localwm_cdfg::write_cdfg(&self.graph).as_bytes()))
    }

    /// Mutates the graph through `f`, bumping the generation and patching
    /// the cached analyses in place wherever the recorded edits allow it.
    ///
    /// The closure receives a [`DesignEditor`] — the same mutation surface
    /// as [`Cdfg`] plus read access via `Deref`, with every edit recorded.
    /// From the record the context derives the dirty node set and:
    ///
    /// * keeps the memoized topological order when no added edge
    ///   contradicts it (new nodes append at the tail), patching the CSR
    ///   views row-wise instead of rebuilding them;
    /// * re-derives unit depth/tail only where a value changes, walking
    ///   out from the dirty nodes ([`UnitTiming::cone_update`]), falling
    ///   back to a lazy full rebuild past [`DesignContext::cone_limit`];
    /// * moves bounded-arrival results into a stale store from which later
    ///   queries patch them where values change (see
    ///   [`DesignContext::bounded_arrival`]);
    /// * records the dirty set for [`DesignContext::dirty_since`].
    ///
    /// Every patched artifact is byte-identical to a from-scratch
    /// recomputation — the analyses are max/min reductions insensitive to
    /// which valid topological order carries them. Untracked mutations
    /// (through [`DesignEditor::graph_mut`]) fall back to dropping
    /// everything, exactly the old contract.
    pub fn mutate<R>(&mut self, f: impl FnOnce(&mut DesignEditor) -> R) -> R {
        let old_len = self.graph.node_count();
        let mut editor = DesignEditor::new(&mut self.graph);
        let r = f(&mut editor);
        let log = editor.into_log();
        self.apply(old_len, &log);
        r
    }

    /// Adds a temporal (precedence) edge through the incremental mutation
    /// path: the unit-timing cache is cone-patched rather than discarded,
    /// and (unlike the historical fast path) an order-changing edge is
    /// detected and handled by a lazy rebuild instead of being undefined
    /// behavior.
    ///
    /// # Errors
    ///
    /// Propagates [`CdfgError`] from the underlying edge insertion.
    pub fn add_temporal_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, CdfgError> {
        self.mutate(|e| e.add_temporal_edge(src, dst))
    }

    /// Applies one mutation batch: bump the generation, then patch or
    /// invalidate.
    fn apply(&mut self, old_len: usize, log: &EditLog) {
        self.generation += 1;
        self.probe.counter("engine.invalidate", 1);
        if log.full || !self.apply_incremental(old_len, log) {
            self.dirty.reset(self.generation);
            self.caches = Caches::default();
        }
    }

    /// The dirty-tracking invalidation path. Returns `false` when the
    /// previous state cannot be patched (cached order was cyclic), sending
    /// the caller to full invalidation.
    fn apply_incremental(&mut self, old_len: usize, log: &EditLog) -> bool {
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        for e in &log.edits {
            match *e {
                EditRecord::NodeAdded(n) | EditRecord::LiteralSet(n) => {
                    touched.insert(n);
                }
                EditRecord::EdgeAdded { src, dst } | EditRecord::EdgeRemoved { src, dst } => {
                    touched.insert(src);
                    touched.insert(dst);
                }
            }
        }
        let dirty: Vec<NodeId> = touched.into_iter().collect();

        // Displace live bounded results into the stale store before the
        // value caches are cleared: they stay exact outside the dirty cone
        // and queries patch them back in.
        let prev_generation = self.generation - 1;
        {
            let live = self.caches.bounded.get_mut().expect("bounded cache lock");
            let stale = self
                .caches
                .stale_bounded
                .get_mut()
                .expect("stale bounded lock");
            for (key, arr) in live.drain() {
                stale.push(StaleArrival {
                    key,
                    len: old_len,
                    generation: prev_generation,
                    arr,
                });
            }
            if stale.len() > STALE_BOUNDED_CAP {
                let excess = stale.len() - STALE_BOUNDED_CAP;
                stale.drain(..excess);
            }
        }

        // Value caches rebuild from the patched substrate on demand.
        self.caches.windows.get_mut().expect("windows lock").clear();
        self.caches.levels.get_mut().expect("levels lock").clear();
        self.caches.fanin.get_mut().expect("fanin lock").clear();
        // Per-kind intervals move only when a node arrives.
        if self.graph.node_count() != old_len {
            self.caches
                .resolved
                .get_mut()
                .expect("resolved bounds lock")
                .clear();
        }
        let _ = self.caches.content.take();

        let topo_cached = self.caches.topo.take();
        let csr_cached = self.caches.csr.take();
        let unit_cached = self.caches.unit.take();
        match topo_cached {
            Some(Ok(mut order)) if order_preserved(&order, self.graph.node_count(), log) => {
                for i in old_len..self.graph.node_count() {
                    order.push(NodeId::from_index(i));
                }
                if let Some((mut preds, mut succs)) = csr_cached {
                    for i in old_len..self.graph.node_count() {
                        let n = NodeId::from_index(i);
                        preds.append_empty_row(n);
                        succs.append_empty_row(n);
                    }
                    for &n in &dirty {
                        let p: Vec<u32> = self.graph.preds(n).map(|x| x.index() as u32).collect();
                        let s: Vec<u32> = self.graph.succs(n).map(|x| x.index() as u32).collect();
                        preds.refresh_row(n, &p);
                        succs.refresh_row(n, &s);
                    }
                    self.probe.counter("engine.csr.patch", 1);
                    if let Some(mut unit) = unit_cached {
                        if unit.cone_update(
                            &self.graph,
                            &order,
                            &preds,
                            &succs,
                            &dirty,
                            self.cone_limit(),
                        ) {
                            self.probe.counter("engine.unit.incremental", 1);
                            let _ = self.caches.unit.set(unit);
                        }
                    }
                    let _ = self.caches.csr.set((preds, succs));
                }
                let _ = self.caches.topo.set(Ok(order));
            }
            // A cached cyclic verdict leaves no patchable state behind.
            Some(Err(_)) => return false,
            // Order-changing edit, or the order was never computed: the
            // structural caches rebuild lazily. The dirty record still
            // lets value-level patches (stale bounded, external caches)
            // proceed — their math is order-insensitive.
            _ => {}
        }
        self.dirty.record(self.generation, dirty);
        true
    }
}

/// Whether the cached topological order (plus new nodes appended at the
/// tail) is still a valid order after the batch: every added edge must
/// point forward. Removals never invalidate an order.
fn order_preserved(order: &[NodeId], node_count: usize, log: &EditLog) -> bool {
    let mut pos = vec![u32::MAX; node_count];
    for (p, &n) in order.iter().enumerate() {
        pos[n.index()] = u32::try_from(p).expect("node count fits u32");
    }
    for (i, p) in pos.iter_mut().enumerate().skip(order.len()) {
        *p = u32::try_from(i).expect("node count fits u32");
    }
    for e in &log.edits {
        if let EditRecord::EdgeAdded { src, dst } = *e {
            if pos[src.index()] >= pos[dst.index()] {
                return false;
            }
        }
    }
    true
}

/// FNV-1a over a byte string.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the interval endpoints: a stable fingerprint identifying a
/// delay model by what it assigns, not by its type.
fn fingerprint(bounds: &[DelayInterval]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for i in bounds {
        mix(i.lo);
        mix(i.hi);
    }
    h
}

impl From<Cdfg> for DesignContext {
    fn from(graph: Cdfg) -> Self {
        DesignContext::new(graph)
    }
}

impl From<&Cdfg> for DesignContext {
    /// Clones the graph — the compatibility shim for call sites that only
    /// hold a `&Cdfg`. Prefer constructing one context up front and sharing
    /// it.
    fn from(graph: &Cdfg) -> Self {
        DesignContext::new(graph.clone())
    }
}

impl Deref for DesignContext {
    type Target = Cdfg;

    fn deref(&self) -> &Cdfg {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KindBounds;
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::{analysis, OpKind};
    use std::sync::Arc;

    #[test]
    fn topo_is_memoized_and_matches_direct() {
        let ctx = DesignContext::new(iir4_parallel());
        let direct = ctx.graph().topo_order().unwrap();
        assert_eq!(ctx.topo(), direct.as_slice());
        // Second query hits the same allocation.
        let a = ctx.topo().as_ptr();
        let b = ctx.topo().as_ptr();
        assert_eq!(a, b);
    }

    #[test]
    fn windows_match_unit_timing() {
        let ctx = DesignContext::new(iir4_parallel());
        let w = ctx.windows(8).unwrap();
        let t = UnitTiming::new(ctx.graph());
        for n in ctx.node_ids() {
            assert_eq!(w.asap(n), t.asap(n));
            assert_eq!(w.alap(n), t.alap(n, 8));
            assert_eq!(w.mobility(n), t.mobility(n, 8));
        }
    }

    #[test]
    fn infeasible_deadline_is_an_error() {
        let ctx = DesignContext::new(iir4_parallel());
        let err = ctx.windows(3).unwrap_err();
        assert_eq!(
            err,
            EngineError::InfeasibleDeadline {
                deadline: 3,
                critical_path: 6
            }
        );
    }

    #[test]
    fn cyclic_graph_reports_error() {
        let mut g = Cdfg::new();
        let a = g.add_node(OpKind::UnitOp);
        let b = g.add_node(OpKind::UnitOp);
        g.add_edge(localwm_cdfg::EdgeKind::Control, a, b).unwrap();
        g.add_edge(localwm_cdfg::EdgeKind::Control, b, a).unwrap();
        let ctx = DesignContext::new(g);
        assert!(ctx.try_topo().is_err());
        assert!(matches!(ctx.windows(10), Err(EngineError::Cyclic(_))));
    }

    #[test]
    fn levels_and_fanin_match_direct_analysis() {
        let ctx = DesignContext::new(iir4_parallel());
        let root = ctx.node_by_name("A9").unwrap();
        assert_eq!(
            *ctx.levels_from(root),
            analysis::levels_from(ctx.graph(), root)
        );
        for n in ctx.node_ids() {
            assert_eq!(
                *ctx.fanin_cone(n, 2),
                analysis::fanin_within(ctx.graph(), n, 2)
            );
            assert_eq!(
                ctx.fanin_count(n, 2),
                analysis::fanin_count(ctx.graph(), n, 2)
            );
            assert_eq!(ctx.phi(n, 2), analysis::phi(ctx.graph(), n, 2));
        }
    }

    #[test]
    fn bounded_cache_hits_for_equivalent_models() {
        let ctx = DesignContext::new(iir4_parallel());
        let probe = Arc::new(crate::RecordingProbe::new());
        let ctx = ctx.with_probe(probe.clone());
        let a = ctx.bounded_critical_path(&KindBounds::uniform(1, 2));
        let b = ctx.bounded_critical_path(&KindBounds::uniform(1, 2));
        assert_eq!(a, b);
        assert_eq!(probe.counter_value("engine.bounded.miss"), 1);
        assert_eq!(probe.counter_value("engine.bounded.hit"), 1);
    }

    #[test]
    fn per_kind_models_resolve_once_and_survive_edge_edits() {
        let probe = Arc::new(crate::RecordingProbe::new());
        let mut ctx = DesignContext::new(iir4_parallel()).with_probe(probe.clone());
        let model = KindBounds::uniform(1, 3).with(OpKind::Mul, DelayInterval::new(2, 5));
        let direct = |ctx: &DesignContext| -> Vec<DelayInterval> {
            ctx.node_ids()
                .map(|n| model.bounds(ctx.graph(), n))
                .collect()
        };
        let first = ctx.resolved_bounds(&model);
        assert_eq!(first.intervals(), direct(&ctx).as_slice());
        assert_eq!(first.key(), fingerprint(first.intervals()));
        assert_eq!(first.hi_sum(), checked_hi_sum(direct(&ctx)));
        // Repeat queries, through every consumer, resolve nothing again.
        let _ = ctx.bounded_critical_path(&model);
        let _ = ctx.possibly_critical_shared(&model);
        assert!(Arc::ptr_eq(&first, &ctx.resolved_bounds(&model)));
        assert_eq!(probe.counter_value("engine.bounds.resolve"), 1);

        // An edge edit keeps every node's kind: the memo survives.
        ctx.add_temporal_edge(
            ctx.node_by_name("A2").unwrap(),
            ctx.node_by_name("C7").unwrap(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(&first, &ctx.resolved_bounds(&model)));
        assert_eq!(
            ctx.bounded_critical_path(&model),
            crate::bounded_critical_path(ctx.graph(), &model)
        );
        assert_eq!(probe.counter_value("engine.bounds.resolve"), 1);

        // A new node needs its interval: the next query resolves afresh.
        ctx.mutate(|g| {
            let a9 = g.node_by_name("A9").unwrap();
            let m = g.add_node(OpKind::Mul);
            g.add_data_edge(a9, m).unwrap();
        });
        let grown = ctx.resolved_bounds(&model);
        assert_eq!(grown.intervals(), direct(&ctx).as_slice());
        assert_eq!(probe.counter_value("engine.bounds.resolve"), 2);
        assert_eq!(
            ctx.bounded_critical_path(&model),
            crate::bounded_critical_path(ctx.graph(), &model)
        );

        // A model that cannot name its parameters is resolved per call.
        let dynamic = crate::DynamicBounds::new(model.clone(), 1);
        let a = ctx.resolved_bounds(&dynamic);
        assert!(!Arc::ptr_eq(&a, &ctx.resolved_bounds(&dynamic)));
        assert_eq!(probe.counter_value("engine.bounds.resolve"), 2);
    }

    #[test]
    fn mutation_invalidates_and_bumps_generation() {
        let mut ctx = DesignContext::new(iir4_parallel());
        let cp_before = ctx.critical_path();
        assert_eq!(ctx.generation(), 0);
        // Append a chain of two ops behind the output adder.
        ctx.mutate(|g| {
            let tail1 = g.add_node(OpKind::Not);
            let tail2 = g.add_node(OpKind::Not);
            let a9 = g.node_by_name("A9").unwrap();
            g.add_data_edge(a9, tail1).unwrap();
            g.add_data_edge(tail1, tail2).unwrap();
        });
        assert_eq!(ctx.generation(), 1);
        assert_eq!(ctx.critical_path(), cp_before + 2);
    }

    #[test]
    fn incremental_temporal_edge_matches_full_rebuild() {
        let mut ctx = DesignContext::new(iir4_parallel());
        let _warm = ctx.critical_path(); // populate the unit cache
        let a2 = ctx.node_by_name("A2").unwrap();
        let c7 = ctx.node_by_name("C7").unwrap();
        ctx.add_temporal_edge(a2, c7).unwrap();
        assert_eq!(ctx.generation(), 1);
        let fresh = UnitTiming::new(ctx.graph());
        let cached = ctx.unit_timing();
        for n in ctx.node_ids() {
            assert_eq!(cached.asap(n), fresh.asap(n));
            assert_eq!(cached.laxity(n), fresh.laxity(n));
        }
    }

    #[test]
    fn content_hash_is_invariant_under_roundtrip_and_tracks_mutation() {
        let ctx = DesignContext::new(iir4_parallel());
        let h = ctx.content_hash();
        assert_eq!(h, ctx.content_hash(), "memoized value is stable");

        // A node-id-preserving round-trip through the canonical text format
        // yields a different allocation with the identical content hash.
        let text = localwm_cdfg::write_cdfg(ctx.graph());
        let round = localwm_cdfg::parse_cdfg(&text).unwrap();
        assert_eq!(DesignContext::new(round).content_hash(), h);

        // Distinct designs and mutated graphs hash differently.
        let mut other = DesignContext::new(iir4_parallel());
        assert_eq!(other.content_hash(), h);
        let a2 = other.node_by_name("A2").unwrap();
        let c7 = other.node_by_name("C7").unwrap();
        other.add_temporal_edge(a2, c7).unwrap();
        assert_ne!(other.content_hash(), h, "mutation invalidates the hash");
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = DesignContext::new(iir4_parallel());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert_eq!(ctx.critical_path(), 6);
                    let w = ctx.windows(9).unwrap();
                    let a9 = ctx.node_by_name("A9").unwrap();
                    assert_eq!(w.asap(a9), 6);
                });
            }
        });
    }
}

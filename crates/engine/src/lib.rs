//! Shared analysis engine for the local-watermarks toolkit.
//!
//! Every pass in the workspace — timing, scheduling, watermark embedding and
//! detection, template matching, simulation — needs the same graph facts:
//! topological order, ASAP/ALAP windows, laxity, fanin cones, bounded-delay
//! critical paths. This crate computes each of them **once** and shares the
//! result:
//!
//! * [`DesignContext`] — a [`Cdfg`](localwm_cdfg::Cdfg) bundled with
//!   lazily-computed, memoized analyses and generation-counted invalidation
//!   on mutation. The single source of truth for derived graph facts.
//! * [`UnitTiming`] — the unit-delay (control-step) timing substrate:
//!   ASAP/ALAP steps, laxity, mobility windows, incremental edge updates.
//! * [`DelayBounds`] / [`bounded_arrival`] — interval ("bounded delay")
//!   critical-path analysis, including the input-dependent
//!   [`DynamicBounds`] model.
//! * [`Probe`] — dependency-free instrumentation hooks (counters, timers,
//!   events) with a JSON-dumpable [`RecordingProbe`].
//! * [`Parallelism`] / [`par_map`] — deterministic, order-preserving
//!   fan-out of independent work across a lazily-started persistent worker
//!   pool ([`pool_stats`] reports its activity).
//!
//! # Example
//!
//! ```
//! use localwm_cdfg::designs::iir4_parallel;
//! use localwm_engine::{DesignContext, KindBounds};
//!
//! let ctx = DesignContext::new(iir4_parallel());
//! assert_eq!(ctx.critical_path(), 6);
//! let cp = ctx.bounded_critical_path(&KindBounds::uniform(1, 2));
//! assert_eq!((cp.lo, cp.hi), (6, 12));
//! // Repeat queries are cache hits; mutation invalidates.
//! ```

// `deny` rather than `forbid`: the worker pool contains one audited,
// narrowly-scoped `unsafe` (a job-lifetime erasure with a documented
// run-to-completion invariant); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
mod allocstats;
mod bounded;
mod context;
mod delay;
mod editor;
mod par;
mod pool;
mod probe;
mod unit;

#[cfg(feature = "alloc-count")]
pub use allocstats::{alloc_stats, AllocStats, CountingAlloc};
pub use bounded::{
    bounded_arrival, bounded_arrival_with_csr, bounded_arrival_with_order, bounded_critical_path,
    possibly_critical, possibly_critical_with_arrival, possibly_critical_with_csr, BoundedArrival,
};
pub use context::{DesignContext, EngineError, ResolvedBounds, WindowTable};
pub use delay::{checked_hi_sum, DelayBounds, DelayInterval, DynamicBounds, KindBounds};
pub use editor::DesignEditor;
pub use par::{par_map, Parallelism};
pub use pool::{pool_stats, set_pool_threads, PoolStats};
pub use probe::{timed, NoopProbe, Probe, RecordingProbe};
pub use unit::UnitTiming;

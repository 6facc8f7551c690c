//! Critical-path timing analysis for CDFGs.
//!
//! Both watermarking protocols begin with "compute the critical path `C` of
//! the CDFG" and filter candidate nodes by *laxity* — the length of the
//! longest path that contains a node.
//!
//! The deterministic analyses — [`UnitTiming`], the bounded-delay interval
//! machinery ([`DelayBounds`], [`bounded_arrival`], [`DynamicBounds`]) —
//! live in [`localwm_engine`] where they are memoized behind
//! [`DesignContext`]; this crate re-exports them unchanged and adds the
//! randomized layer:
//!
//! * [`criticality`] — Monte-Carlo statistical timing: per-node
//!   criticality probabilities and circuit-delay quantiles under any
//!   bounded model, with deterministic per-sample seeding so serial and
//!   parallel runs agree exactly.
//! * [`CriticalityCache`] — the same analysis memoized across graph
//!   mutations: per-sample draws and arrival times survive an edit and
//!   only the nodes whose values change are re-timed, all samples at
//!   once, with provable byte-identity to a from-scratch run.
//!
//! # Example
//!
//! ```
//! use localwm_cdfg::designs::iir4_parallel;
//! use localwm_timing::UnitTiming;
//!
//! let g = iir4_parallel();
//! let t = UnitTiming::new(&g);
//! assert_eq!(t.critical_path(), 6);
//! let a9 = g.node_by_name("A9").unwrap();
//! assert_eq!(t.laxity(a9), 6); // A9 lies on the critical path
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod incremental;
mod statistical;

pub use localwm_engine::{
    bounded_arrival, bounded_critical_path, checked_hi_sum, possibly_critical, BoundedArrival,
    DelayBounds, DelayInterval, DesignContext, DynamicBounds, KindBounds, UnitTiming,
};

pub use incremental::CriticalityCache;
pub use statistical::{
    criticality, criticality_in, criticality_reference, CriticalityReport, MAX_SAMPLES,
};

//! Adversarial robustness for local watermarks.
//!
//! The paper argues (§IV-A) that defeating a local watermark requires
//! reworking most of the solution. This crate turns that argument into a
//! measurement harness:
//!
//! * [`transform`] — a seeded, budgeted attack suite
//!   ([`AttackKind::Reschedule`] / [`AttackKind::Rewire`] /
//!   [`AttackKind::Resynth`] / [`AttackKind::Strip`]) whose every run is
//!   byte-reproducible from `(input, budget, seed)` and always yields a
//!   *valid* attacked solution;
//! * [`strength`] — a resilience engine that sweeps the suite over budget
//!   levels and reports watermark survival, detection strength `1 − P_c`
//!   and solution-quality cost per design ([`StrengthReport`]) and
//!   aggregated corpus-wide ([`aggregate`]).
//!
//! The `strength`/`attack` service kinds in `localwm-serve`, the
//! `localwm attack` / `localwm strength` CLI subcommands and the
//! `attack_sweep` bench all sit on these two modules, so every surface
//! reports identical bytes for identical inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strength;
pub mod transform;

pub use strength::{
    aggregate, attack_once_in, strength_report_in, AttackRun, BudgetRow, StrengthCell,
    StrengthConfig, StrengthReport, DEFAULT_BUDGETS, MAX_BUDGETS, SURVIVAL_TOLERANCE,
};
pub use transform::{apply, AttackConfig, AttackEdit, AttackKind, AttackOutcome, AttackTrace};

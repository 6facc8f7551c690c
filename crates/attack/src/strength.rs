//! Watermark strength reports: sweep the attack suite over budget levels
//! and measure what survives.
//!
//! For one design the engine embeds once, then for every `(budget, kind)`
//! cell derives an independent [`SplitMix64`] sub-stream, applies the
//! attack and checks the attacked schedule against the embedded edges —
//! the edges detection re-derives from the *original* specification, so
//! the sweep derives them once ([`SchedEmbedding::evidence`]). A cell
//! records survival (tolerant match at chance probability ≤ 10⁻⁶),
//! detection strength `1 − P_c`, and the solution-quality cost (schedule
//! length delta). Per-budget rows aggregate across kinds;
//! [`aggregate`] averages rows corpus-wide. The whole report is a pure
//! function of `(design, signature, config)` — byte-identical on every
//! platform and under every parallelism setting.

use localwm_core::{SchedEmbedding, SchedWmConfig, SchedulingWatermarker, WatermarkError};
use localwm_engine::{DesignContext, Parallelism};
use localwm_prng::{Signature, SplitMix64};

use crate::transform::{apply, AttackConfig, AttackKind, AttackOutcome};

/// The default budget sweep: identity, light, moderate, heavy, drastic.
pub const DEFAULT_BUDGETS: [f64; 5] = [0.0, 0.05, 0.15, 0.3, 0.6];

/// The most budget levels one sweep may list. Every level runs every
/// attack kind, so the service and the CLI refuse a longer list before
/// any work starts.
pub const MAX_BUDGETS: usize = 16;

/// Chance-probability tolerance under which a detection still counts as a
/// match (the toolkit's standard forensic threshold).
pub const SURVIVAL_TOLERANCE: f64 = 1e-6;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StrengthConfig {
    /// Budget levels to sweep, in order.
    pub budgets: Vec<f64>,
    /// Master seed; every `(budget, kind)` cell derives its own stream.
    pub seed: u64,
    /// Watermark parameters used for the embed/detect round trip.
    pub wm: SchedWmConfig,
}

impl Default for StrengthConfig {
    fn default() -> Self {
        StrengthConfig {
            budgets: DEFAULT_BUDGETS.to_vec(),
            seed: 0,
            wm: SchedWmConfig::default(),
        }
    }
}

/// One `(kind, budget)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StrengthCell {
    /// The attack that ran.
    pub kind: AttackKind,
    /// The budget it ran at.
    pub budget: f64,
    /// Number of edits the attack actually applied.
    pub edits: usize,
    /// Whether detection still attributes authorship
    /// (chance probability ≤ [`SURVIVAL_TOLERANCE`]).
    pub survived: bool,
    /// Detection strength `1 − P_c` after the attack.
    pub strength: f64,
    /// `log₁₀` of the coincidence probability after the attack.
    pub log10_pc: f64,
    /// Watermark constraints still satisfied.
    pub satisfied: usize,
    /// Watermark constraints checked.
    pub checked: usize,
    /// Length of the attacked schedule.
    pub schedule_length: u32,
    /// Attacked length minus baseline length (negative = the attack
    /// *improved* latency, e.g. by compacting stripped constraints).
    pub steps_delta: i64,
}

/// Per-budget aggregation across attack kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// The budget level.
    pub budget: f64,
    /// Fraction of attack kinds the watermark survived.
    pub survival_rate: f64,
    /// Mean detection strength `1 − P_c` across kinds.
    pub mean_strength: f64,
    /// Mean schedule-length delta across kinds.
    pub mean_steps_delta: f64,
}

/// The robustness report for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct StrengthReport {
    /// Schedulable operations in the design.
    pub ops: usize,
    /// Temporal edges the watermark embedded.
    pub wm_edges: usize,
    /// Unattacked schedule length.
    pub baseline_length: u32,
    /// `log₁₀ P_c` of the unattacked embedding.
    pub baseline_log10_pc: f64,
    /// Detection strength `1 − P_c` of the unattacked embedding.
    pub baseline_strength: f64,
    /// The master seed the sweep ran with.
    pub seed: u64,
    /// The budget levels swept.
    pub budgets: Vec<f64>,
    /// Every `(budget, kind)` cell, budgets outer, kinds inner.
    pub cells: Vec<StrengthCell>,
    /// One aggregated row per budget.
    pub rows: Vec<BudgetRow>,
}

/// One attack plus its detection outcome — what the `attack` service kind
/// returns.
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// The attacked design and trace.
    pub outcome: AttackOutcome,
    /// The measurement for this single cell.
    pub cell: StrengthCell,
    /// Unattacked schedule length, for comparison.
    pub baseline_length: u32,
    /// Temporal edges the watermark embedded.
    pub wm_edges: usize,
}

/// Which specification the attacker holds for `kind`: constraint stripping
/// sees the constrained (marked) spec, everything else the public design.
fn attack_surface<'a>(
    kind: AttackKind,
    ctx: &'a DesignContext,
    emb: &'a SchedEmbedding,
) -> &'a localwm_cdfg::Cdfg {
    match kind {
        AttackKind::Strip => &emb.marked,
        _ => ctx.graph(),
    }
}

/// Measures one attacked schedule against the embedding's edges.
fn measure(
    emb: &SchedEmbedding,
    outcome: &AttackOutcome,
    cfg: &AttackConfig,
    baseline_length: u32,
) -> StrengthCell {
    let ev = emb.evidence(&outcome.schedule);
    let satisfied = ev.checks.iter().filter(|&&(_, _, ok)| ok).count();
    let length = outcome.schedule.length();
    StrengthCell {
        kind: cfg.kind,
        budget: cfg.budget,
        edits: outcome.trace.edits.len(),
        survived: ev.is_match_with_tolerance(SURVIVAL_TOLERANCE),
        strength: 1.0 - ev.chance_probability(),
        log10_pc: ev.log10_pc,
        satisfied,
        checked: ev.checks.len(),
        schedule_length: length,
        steps_delta: i64::from(length) - i64::from(baseline_length),
    }
}

/// Runs one attack against a freshly embedded watermark and measures the
/// surviving evidence.
///
/// # Errors
///
/// Propagates embedding failures (e.g.
/// [`WatermarkError::NoIncomparablePairs`] on serial designs); once the
/// embed succeeds, detection cannot fail.
pub fn attack_once_in(
    ctx: &DesignContext,
    sig: &Signature,
    par: Parallelism,
    cfg: &AttackConfig,
    wm_cfg: &SchedWmConfig,
) -> Result<AttackRun, WatermarkError> {
    let wm = SchedulingWatermarker::new(wm_cfg.clone());
    let emb = wm.embed_in(ctx, sig, par)?;
    let baseline_length = emb.schedule.length();
    let surface = attack_surface(cfg.kind, ctx, &emb);
    let outcome = apply(surface, &emb.schedule, emb.available_steps, cfg);
    let cell = measure(&emb, &outcome, cfg, baseline_length);
    Ok(AttackRun {
        outcome,
        cell,
        baseline_length,
        wm_edges: emb.edges.len(),
    })
}

/// Sweeps every attack kind over every budget level and assembles the
/// design's [`StrengthReport`].
///
/// # Errors
///
/// Propagates embedding failures (e.g.
/// [`WatermarkError::NoIncomparablePairs`] on serial designs); once the
/// embed succeeds, no cell can fail.
pub fn strength_report_in(
    ctx: &DesignContext,
    sig: &Signature,
    par: Parallelism,
    cfg: &StrengthConfig,
) -> Result<StrengthReport, WatermarkError> {
    let wm = SchedulingWatermarker::new(cfg.wm.clone());
    let emb = wm.embed_in(ctx, sig, par)?;
    let baseline = emb.evidence(&emb.schedule);
    let baseline_length = emb.schedule.length();
    let base = SplitMix64::new(cfg.seed);
    // Every `(budget, kind)` cell derives an independent sub-stream from
    // the master seed alone — stable under reordering or extending the
    // sweep grid — so the grid fans out over the engine pool and
    // reassembles positionally. Every cell checks its attacked schedule
    // against the one embedding's edges, so the sweep derives the
    // watermark once. Cell values (and therefore report bytes) are
    // identical under every parallelism setting.
    let grid: Vec<(u64, f64, AttackKind)> = cfg
        .budgets
        .iter()
        .enumerate()
        .flat_map(|(bi, &budget)| {
            AttackKind::ALL
                .into_iter()
                .map(move |kind| (bi as u64, budget, kind))
        })
        .collect();
    let cells = localwm_engine::par_map(par, &grid, |_, &(bi, budget, kind)| {
        let cell_seed = base.derive((bi << 8) | kind.index() as u64).next_u64();
        let attack_cfg = AttackConfig {
            kind,
            budget,
            seed: cell_seed,
        };
        let surface = attack_surface(kind, ctx, &emb);
        let outcome = apply(surface, &emb.schedule, emb.available_steps, &attack_cfg);
        measure(&emb, &outcome, &attack_cfg, baseline_length)
    });
    let mut rows = Vec::with_capacity(cfg.budgets.len());
    for (bi, &budget) in cfg.budgets.iter().enumerate() {
        let row_cells = &cells[bi * AttackKind::ALL.len()..(bi + 1) * AttackKind::ALL.len()];
        let n = row_cells.len() as f64;
        rows.push(BudgetRow {
            budget,
            survival_rate: row_cells.iter().filter(|c| c.survived).count() as f64 / n,
            mean_strength: row_cells.iter().map(|c| c.strength).sum::<f64>() / n,
            mean_steps_delta: row_cells.iter().map(|c| c.steps_delta as f64).sum::<f64>() / n,
        });
    }
    Ok(StrengthReport {
        ops: ctx.graph().op_count(),
        wm_edges: emb.edges.len(),
        baseline_length,
        baseline_log10_pc: baseline.log10_pc,
        baseline_strength: 1.0 - baseline.chance_probability(),
        seed: cfg.seed,
        budgets: cfg.budgets.clone(),
        cells,
        rows,
    })
}

/// Averages per-budget rows across several designs' reports. Budgets are
/// grouped by exact value in order of first appearance, so reports swept
/// over the same grid aggregate positionally.
pub fn aggregate<'a>(reports: impl IntoIterator<Item = &'a StrengthReport>) -> Vec<BudgetRow> {
    let mut order: Vec<f64> = Vec::new();
    let mut sums: Vec<(f64, f64, f64, usize)> = Vec::new();
    for report in reports {
        for row in &report.rows {
            let idx = match order
                .iter()
                .position(|&b| b.to_bits() == row.budget.to_bits())
            {
                Some(i) => i,
                None => {
                    order.push(row.budget);
                    sums.push((0.0, 0.0, 0.0, 0));
                    order.len() - 1
                }
            };
            let s = &mut sums[idx];
            s.0 += row.survival_rate;
            s.1 += row.mean_strength;
            s.2 += row.mean_steps_delta;
            s.3 += 1;
        }
    }
    order
        .into_iter()
        .zip(sums)
        .map(|(budget, (sr, ms, md, n))| BudgetRow {
            budget,
            survival_rate: sr / n as f64,
            mean_strength: ms / n as f64,
            mean_steps_delta: md / n as f64,
        })
        .collect()
}

/// Hand-written [`serde`] impls (the vendored offline serde stand-in has
/// no derive macros; see `vendor/README.md`).
mod serde_impls {
    use serde::{object, Serialize, Value};

    use super::{BudgetRow, StrengthCell, StrengthReport};
    use crate::transform::AttackKind;

    impl Serialize for AttackKind {
        fn to_value(&self) -> Value {
            Value::Str(self.as_str().to_string())
        }
    }

    impl Serialize for StrengthCell {
        fn to_value(&self) -> Value {
            object(vec![
                ("kind", self.kind.to_value()),
                ("budget", self.budget.to_value()),
                ("edits", self.edits.to_value()),
                ("survived", self.survived.to_value()),
                ("strength", self.strength.to_value()),
                ("log10_pc", self.log10_pc.to_value()),
                ("satisfied", self.satisfied.to_value()),
                ("checked", self.checked.to_value()),
                ("schedule_length", self.schedule_length.to_value()),
                ("steps_delta", self.steps_delta.to_value()),
            ])
        }
    }

    impl Serialize for BudgetRow {
        fn to_value(&self) -> Value {
            object(vec![
                ("budget", self.budget.to_value()),
                ("survival_rate", self.survival_rate.to_value()),
                ("mean_strength", self.mean_strength.to_value()),
                ("mean_steps_delta", self.mean_steps_delta.to_value()),
            ])
        }
    }

    impl Serialize for StrengthReport {
        fn to_value(&self) -> Value {
            object(vec![
                ("ops", self.ops.to_value()),
                ("wm_edges", self.wm_edges.to_value()),
                ("baseline_length", self.baseline_length.to_value()),
                ("baseline_log10_pc", self.baseline_log10_pc.to_value()),
                ("baseline_strength", self.baseline_strength.to_value()),
                ("seed", self.seed.to_value()),
                ("budgets", self.budgets.to_value()),
                ("cells", self.cells.to_value()),
                ("rows", self.rows.to_value()),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::generators::{layered, LayeredConfig};
    use serde::Serialize;

    fn ctx() -> DesignContext {
        DesignContext::new(layered(&LayeredConfig {
            ops: 100,
            layers: 8,
            seed: 4,
            ..LayeredConfig::default()
        }))
    }

    // A quarter of the ops constrained: K = 25 edges on the 100-op test
    // design, comfortably below the 1e-6 survival tolerance at baseline.
    fn quick_cfg() -> StrengthConfig {
        StrengthConfig {
            budgets: vec![0.0, 0.2],
            wm: SchedWmConfig::with_node_fraction(0.25),
            ..StrengthConfig::default()
        }
    }

    #[test]
    fn report_shape_and_identity_budget() {
        let ctx = ctx();
        let sig = Signature::from_author("strength-author");
        let report = strength_report_in(&ctx, &sig, Parallelism::Serial, &quick_cfg()).unwrap();
        assert_eq!(report.cells.len(), 2 * AttackKind::ALL.len());
        assert_eq!(report.rows.len(), 2);
        // Budget 0 is the identity: everything survives at full strength.
        let zero = &report.rows[0];
        assert_eq!(zero.budget, 0.0);
        assert_eq!(zero.survival_rate, 1.0);
        assert_eq!(zero.mean_steps_delta, 0.0);
        for cell in &report.cells[..AttackKind::ALL.len()] {
            assert_eq!(cell.edits, 0);
            assert_eq!(cell.satisfied, cell.checked);
            assert_eq!(cell.steps_delta, 0);
        }
        assert!(report.baseline_strength > 1.0 - SURVIVAL_TOLERANCE);
    }

    #[test]
    fn same_seed_reproduces_the_report_and_its_bytes() {
        let ctx = ctx();
        let sig = Signature::from_author("strength-author");
        let a = strength_report_in(&ctx, &sig, Parallelism::Serial, &quick_cfg()).unwrap();
        let b = strength_report_in(&ctx, &sig, Parallelism::from_env(), &quick_cfg()).unwrap();
        // Threads(3) forces a real fan-out of the sweep grid over the
        // engine pool even on a single-core host.
        let c = strength_report_in(&ctx, &sig, Parallelism::Threads(3), &quick_cfg()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(
            serde_json::to_string(&a.to_value()),
            serde_json::to_string(&b.to_value())
        );
        assert_eq!(
            serde_json::to_string(&a.to_value()),
            serde_json::to_string(&c.to_value())
        );
    }

    #[test]
    fn attack_once_matches_the_sweep_semantics() {
        let ctx = ctx();
        let sig = Signature::from_author("once-author");
        let run = attack_once_in(
            &ctx,
            &sig,
            Parallelism::Serial,
            &AttackConfig {
                kind: AttackKind::Reschedule,
                budget: 0.0,
                seed: 3,
            },
            &SchedWmConfig::with_node_fraction(0.25),
        )
        .unwrap();
        assert!(run.cell.survived);
        assert_eq!(run.cell.steps_delta, 0);
        assert!(run.wm_edges > 0);
    }

    #[test]
    fn aggregation_averages_by_budget() {
        let mk = |sr| StrengthReport {
            ops: 1,
            wm_edges: 1,
            baseline_length: 1,
            baseline_log10_pc: -9.0,
            baseline_strength: 1.0,
            seed: 0,
            budgets: vec![0.0, 0.5],
            cells: Vec::new(),
            rows: vec![
                BudgetRow {
                    budget: 0.0,
                    survival_rate: 1.0,
                    mean_strength: 1.0,
                    mean_steps_delta: 0.0,
                },
                BudgetRow {
                    budget: 0.5,
                    survival_rate: sr,
                    mean_strength: sr,
                    mean_steps_delta: 2.0,
                },
            ],
        };
        let (a, b) = (mk(1.0), mk(0.0));
        let rows = aggregate([&a, &b]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].survival_rate, 1.0);
        assert_eq!(rows[1].survival_rate, 0.5);
        assert_eq!(rows[1].mean_steps_delta, 2.0);
    }

    #[test]
    fn serial_designs_surface_the_typed_error() {
        use localwm_cdfg::{Cdfg, OpKind};
        let mut g = Cdfg::new();
        let mut prev = g.add_node(OpKind::Input);
        for _ in 0..6 {
            let n = g.add_node(OpKind::Add);
            g.add_data_edge(prev, n).unwrap();
            prev = n;
        }
        let ctx = DesignContext::new(g);
        let err = strength_report_in(
            &ctx,
            &Signature::from_author("serial-author"),
            Parallelism::Serial,
            &StrengthConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, WatermarkError::NoIncomparablePairs { .. }));
    }
}

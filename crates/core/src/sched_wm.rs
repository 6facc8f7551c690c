//! The operation-scheduling watermark (paper §IV-A, Fig. 2).

use localwm_cdfg::{Cdfg, NodeId};
use localwm_engine::{par_map, DesignContext, Parallelism};
use localwm_prng::{Bitstream, Signature};
use localwm_sched::{list_schedule_in, ResourceSet, Schedule, Windows};

use crate::domain::{pick_root, select_domain_in, Domain};
use crate::{pc, WatermarkError};

/// Derivation output: the selected localities, the temporal edges, and the
/// windows they were drawn against.
type Derivation = (Vec<Domain>, Vec<(NodeId, NodeId)>, Windows);

/// Configuration of the scheduling watermark.
///
/// With `tau == 0` / `k == 0` the parameters auto-scale with the design
/// (`τ = max(10, N/5)`, `K = max(3, τ/5)`); `k_fraction` overrides `k` as a
/// fraction of the operation count, which is how the paper's Table I
/// parameterizes its runs ("2 % / 5 % nodes constrained").
#[derive(Debug, Clone, PartialEq)]
pub struct SchedWmConfig {
    /// Desired locality cardinality `τ = |T|` (0 = auto).
    pub tau: usize,
    /// Number of temporal edges `K` (0 = auto).
    pub k: usize,
    /// `K` as a fraction of the design's operation count; overrides `k`.
    pub k_fraction: Option<f64>,
    /// Laxity margin `ε ∈ [0, 1)`: only operations whose longest
    /// containing path is at most `(1 − ε) ·` available steps receive
    /// constraints, keeping the watermark off (near-)critical paths.
    pub epsilon: f64,
    /// Available control steps as a multiple of the critical path
    /// (≥ 1; 1.0 = tight schedule).
    pub slack_factor: f64,
    /// Domain-selection attempts before giving up.
    pub max_attempts: usize,
}

impl Default for SchedWmConfig {
    fn default() -> Self {
        SchedWmConfig {
            tau: 0,
            k: 0,
            k_fraction: None,
            epsilon: 0.2,
            slack_factor: 1.5,
            max_attempts: 24,
        }
    }
}

impl SchedWmConfig {
    /// The paper's Table I parameterization: constrain `fraction` of the
    /// design's operations (`K = fraction · N`, `τ = 5 · K`).
    pub fn with_node_fraction(fraction: f64) -> Self {
        SchedWmConfig {
            k_fraction: Some(fraction),
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<(), WatermarkError> {
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(WatermarkError::InvalidConfig(format!(
                "epsilon must be in [0, 1), got {}",
                self.epsilon
            )));
        }
        if self.slack_factor < 1.0 {
            return Err(WatermarkError::InvalidConfig(format!(
                "slack_factor must be >= 1, got {}",
                self.slack_factor
            )));
        }
        if let Some(f) = self.k_fraction {
            if !(0.0..=1.0).contains(&f) {
                return Err(WatermarkError::InvalidConfig(format!(
                    "k_fraction must be in [0, 1], got {f}"
                )));
            }
        }
        if self.max_attempts == 0 {
            return Err(WatermarkError::InvalidConfig(
                "max_attempts must be positive".to_owned(),
            ));
        }
        Ok(())
    }

    fn resolve(&self, g: &Cdfg) -> (usize, usize) {
        let n = g.op_count();
        let k = match self.k_fraction {
            Some(f) => ((f * n as f64).round() as usize).max(1),
            None if self.k > 0 => self.k,
            None => (self.tau_for(n) / 5).max(3),
        };
        let tau = if self.tau > 0 {
            self.tau
        } else if self.k_fraction.is_some() || self.k > 0 {
            (5 * k).max(k + 2)
        } else {
            self.tau_for(n)
        };
        (tau.max(k + 1), k)
    }

    fn tau_for(&self, n: usize) -> usize {
        if self.tau > 0 {
            self.tau
        } else {
            (n / 5).max(10)
        }
    }
}

/// The result of embedding a scheduling watermark.
#[derive(Debug, Clone)]
pub struct SchedEmbedding {
    /// The constrained specification: the original graph plus the
    /// watermark's temporal edges. Hand this to the synthesis tool; strip
    /// the temporal edges afterwards with
    /// [`Cdfg::strip_temporal_edges`](localwm_cdfg::Cdfg::strip_temporal_edges).
    pub marked: Cdfg,
    /// A schedule produced under the constraints (by this crate's list
    /// scheduler — any constraint-honouring scheduler works).
    pub schedule: Schedule,
    /// The temporal edges, in drawing order.
    pub edges: Vec<(NodeId, NodeId)>,
    /// The selected domains (one per locality; local watermarks are
    /// plural — several small marks accumulate until `K` edges are
    /// placed).
    pub domains: Vec<Domain>,
    /// Control steps the windows were computed for.
    pub available_steps: u32,
    /// The windows the edges were drawn against, kept for
    /// [`SchedEmbedding::evidence`].
    windows: Windows,
}

impl SchedEmbedding {
    /// Checks a suspect schedule against this embedding's edges — exactly
    /// what [`SchedulingWatermarker::detect_in`] answers for the same
    /// design, signature and configuration, without re-deriving the edges.
    /// A caller that embeds and then checks many schedules (a strength
    /// sweep) derives once.
    pub fn evidence(&self, schedule: &Schedule) -> SchedEvidence {
        evidence(&self.edges, &self.windows, schedule)
    }
}

/// The one detection check: each edge's order in `schedule`, its chance
/// probability, and the joint coincidence probability.
fn evidence(edges: &[(NodeId, NodeId)], windows: &Windows, schedule: &Schedule) -> SchedEvidence {
    SchedEvidence {
        checks: edges
            .iter()
            .map(|&(s, d)| (s, d, schedule.executes_before(s, d).unwrap_or(false)))
            .collect(),
        chances: edges
            .iter()
            .map(|&(s, d)| pc::pair_order_probability(windows, s, d))
            .collect(),
        log10_pc: pc::log10_pc_pairs(windows, edges),
    }
}

/// Evidence from a detection pass.
#[derive(Debug, Clone)]
pub struct SchedEvidence {
    /// Per-edge check: `(src, dst, src-ran-strictly-before-dst)`.
    pub checks: Vec<(NodeId, NodeId, bool)>,
    /// Per-edge chance probability: how likely an *unmarked* schedule
    /// satisfies each constraint (pair-window estimate).
    pub chances: Vec<f64>,
    /// `log₁₀` of the coincidence probability `P_c` estimated for the
    /// checked constraints (pair-window estimator; see [`pc`]).
    pub log10_pc: f64,
}

impl SchedEvidence {
    /// Whether every constraint holds (and at least one was checked).
    pub fn is_match(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|&(_, _, ok)| ok)
    }

    /// Fraction of constraints that hold.
    pub fn satisfied_fraction(&self) -> f64 {
        if self.checks.is_empty() {
            return 0.0;
        }
        self.checks.iter().filter(|&&(_, _, ok)| ok).count() as f64 / self.checks.len() as f64
    }

    /// Strength of the authorship proof, `1 − P_c`, reported as the
    /// number of decimal orders of magnitude of `P_c` (larger = stronger).
    pub fn proof_strength_digits(&self) -> f64 {
        -self.log10_pc
    }

    /// The significance of a (possibly partial) match: the probability
    /// that an unmarked schedule satisfies at least as many constraints as
    /// this one did, by chance (Poisson-binomial tail over the per-edge
    /// chance probabilities).
    pub fn chance_probability(&self) -> f64 {
        let satisfied = self.checks.iter().filter(|&&(_, _, ok)| ok).count();
        pc::poisson_binomial_tail(&self.chances, satisfied)
    }

    /// Tolerant verdict: authorship is claimed when the observed match is
    /// less likely than `max_chance` to arise from an unmarked solution —
    /// so a lightly tampered mark (a few violated constraints) still
    /// attributes. `max_chance` of `1e-6` mirrors the paper's
    /// one-in-a-million standard.
    pub fn is_match_with_tolerance(&self, max_chance: f64) -> bool {
        !self.checks.is_empty() && self.chance_probability() <= max_chance
    }
}

/// Embeds and detects scheduling watermarks.
#[derive(Debug, Clone)]
pub struct SchedulingWatermarker {
    config: SchedWmConfig,
}

impl SchedulingWatermarker {
    /// Creates a watermarker with the given configuration.
    pub fn new(config: SchedWmConfig) -> Self {
        SchedulingWatermarker { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedWmConfig {
        &self.config
    }

    /// Derives the signature-specific constraints for `g`.
    ///
    /// Both [`SchedulingWatermarker::embed`] and
    /// [`SchedulingWatermarker::detect`] call this; it is deterministic in
    /// `(g, signature, config)`, which is what makes detection work without
    /// any side channel.
    fn derive_in(
        &self,
        ctx: &DesignContext,
        signature: &Signature,
        par: Parallelism,
    ) -> Result<Derivation, WatermarkError> {
        self.config.validate()?;
        let g = ctx.graph();
        let (tau, k) = self.config.resolve(g);
        let cp = ctx.unit_timing().critical_path();
        if cp == 0 {
            return Err(WatermarkError::NoDomain {
                attempts: 0,
                best_candidates: 0,
                needed: k + 1,
            });
        }
        let steps = ((f64::from(cp) * self.config.slack_factor).ceil() as u32).max(cp);
        let windows = Windows::in_ctx(ctx, steps)?;
        // Eligibility: the longest path through a constrained node must
        // clear the deadline with an ε margin. With a tight deadline
        // (`slack_factor == 1`) this is exactly the paper's
        // `laxity ≤ C·(1−ε)` condition; with slack the margin is measured
        // against the step budget, which is what actually bounds the
        // timing overhead the constraint can cause. The same cap is
        // applied to every path a drawn edge creates.
        let laxity_cap = f64::from(steps) * (1.0 - self.config.epsilon);
        let edge_path_cap = laxity_cap.floor().min(f64::from(steps)) as u32;

        // Local watermarks are plural: constraints accumulate across
        // several pseudorandomly selected localities until K temporal
        // edges are placed. Each locality is independently detectable;
        // detection replays the identical deterministic loop.
        let roots = crate::domain::root_candidates_in(ctx, tau, (k / 4).max(2));

        // Phase 1 — locality preparation. Each attempt's bitstream, root
        // pick, domain walk and eligibility filter depend only on (graph,
        // signature, attempt index), never on edges drawn by earlier
        // attempts, so attempts can be prepared in any grouping and the
        // result is identical for every `Parallelism` choice.
        let prepare = |attempt: usize| -> Option<(Bitstream, Domain, Vec<NodeId>)> {
            let mut bits =
                Bitstream::for_purpose(signature, &format!("sched-wm/attempt-{attempt}"));
            let root = pick_root(&roots, &mut bits)?;
            let domain = select_domain_in(ctx, root, tau, &mut bits);

            // T': eligible nodes — schedulable, laxity within the cap, and
            // (pruned to a fixpoint) owning an overlap partner inside T'.
            let mut t_prime: Vec<NodeId> = domain
                .t
                .iter()
                .copied()
                .filter(|&n| g.kind(n).is_schedulable())
                .filter(|&n| f64::from(windows.laxity(n)) <= laxity_cap)
                .collect();
            loop {
                let before = t_prime.len();
                let snapshot = t_prime.clone();
                t_prime.retain(|&n| snapshot.iter().any(|&m| m != n && windows.overlap(n, m)));
                if t_prime.len() == before {
                    break;
                }
            }
            Some((bits, domain, t_prime))
        };
        // Most derivations place their K edges long before `max_attempts`,
        // so localities are prepared on demand: one wave of as many
        // attempts as there are workers, fanned out, and the next wave only
        // once phase 2 has consumed this one. Under `Serial` a wave is one
        // attempt.
        let max_attempts = self.config.max_attempts;
        let wave_len = par.worker_count(max_attempts);
        let mut prepared = 0usize;
        let mut wave = Vec::new().into_iter();
        let mut localities = std::iter::from_fn(|| {
            if wave.len() == 0 && prepared < max_attempts {
                let batch: Vec<usize> =
                    (prepared..(prepared + wave_len).min(max_attempts)).collect();
                prepared += batch.len();
                wave = par_map(par, &batch, |_, &attempt| prepare(attempt)).into_iter();
            }
            wave.next()
        });

        // Phase 2 — edge drawing. Each drawn edge tightens the working
        // graph that later draws are filtered against, so localities are
        // consumed strictly in attempt order.
        let mut best_candidates = 0usize;
        let mut pairs_examined = 0usize;
        let mut domains: Vec<Domain> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(k);
        let mut working = DesignContext::from(g);
        while edges.len() < k {
            // Attempts are exhausted, or the design has no root candidate
            // at all.
            let Some(Some((mut bits, domain, t_prime))) = localities.next() else {
                break;
            };
            best_candidates = best_candidates.max(t_prime.len());
            if t_prime.len() < 2 {
                continue;
            }

            // T'': pseudorandomly ordered selection. We select up to 2R+2
            // nodes for the R edges this locality still owes (the paper
            // selects K) so every source keeps later candidates even after
            // the overlap/incomparability filters.
            let rem = k - edges.len();
            let want = (2 * rem + 2).min(t_prime.len());
            let idxs = bits.ordered_selection(t_prime.len(), want);
            let t2: Vec<NodeId> = idxs.into_iter().map(|i| t_prime[i]).collect();

            let mut drew_here = false;
            for i in 0..t2.len() {
                if edges.len() == k {
                    break;
                }
                let ni = t2[i];
                let wt = working.unit_timing();
                pairs_examined += t2.len() - i - 1;
                let gset: Vec<NodeId> = t2[i + 1..]
                    .iter()
                    .copied()
                    .filter(|&nj| windows.overlap(ni, nj))
                    .filter(|&nj| !working.reaches(ni, nj) && !working.reaches(nj, ni))
                    .filter(|&nj| wt.asap(ni) + wt.tail(nj) <= edge_path_cap)
                    .collect();
                let Some(&nk) = bits.choose(&gset) else {
                    continue;
                };
                working
                    .add_temporal_edge(ni, nk)
                    .expect("incomparable nodes cannot cycle");
                edges.push((ni, nk));
                drew_here = true;
            }
            if drew_here {
                domains.push(domain);
            }
        }
        ctx.probe()
            .counter("core.sched_wm.attempts", prepared as u64);
        ctx.probe()
            .counter("core.sched_wm.edges", edges.len() as u64);
        if edges.len() == k {
            return Ok((domains, edges, windows));
        }
        if edges.is_empty() && pairs_examined > 0 {
            // Localities with eligible slack-rich nodes existed, yet no
            // candidate pair anywhere was simultaneously overlapping and
            // incomparable: the design is too serial for this watermark.
            Err(WatermarkError::NoIncomparablePairs {
                domain_size: best_candidates,
                pairs_examined,
            })
        } else if best_candidates < 2 {
            Err(WatermarkError::NoDomain {
                attempts: self.config.max_attempts,
                best_candidates,
                needed: 2,
            })
        } else {
            Err(WatermarkError::TooFewEdges {
                drawn: edges.len(),
                requested: k,
            })
        }
    }

    /// Embeds the watermark: augments the specification with the
    /// signature's temporal edges and synthesizes a schedule under them.
    ///
    /// # Errors
    ///
    /// [`WatermarkError::NoDomain`] if no locality supports the requested
    /// constraint count, plus configuration and scheduling errors.
    pub fn embed(&self, g: &Cdfg, signature: &Signature) -> Result<SchedEmbedding, WatermarkError> {
        self.embed_in(&DesignContext::from(g), signature, Parallelism::from_env())
    }

    /// [`SchedulingWatermarker::embed`] against a shared [`DesignContext`],
    /// fanning the per-attempt locality preparation across scoped worker
    /// threads per `par`. The embedding is byte-identical for every
    /// [`Parallelism`] choice.
    ///
    /// # Errors
    ///
    /// Same as [`SchedulingWatermarker::embed`].
    pub fn embed_in(
        &self,
        ctx: &DesignContext,
        signature: &Signature,
        par: Parallelism,
    ) -> Result<SchedEmbedding, WatermarkError> {
        let (domains, edges, windows) = self.derive_in(ctx, signature, par)?;
        let mut marked = ctx.graph().clone();
        for &(s, d) in &edges {
            marked.add_temporal_edge(s, d)?;
        }
        let marked_ctx = DesignContext::new(marked).with_probe(ctx.probe_arc());
        let schedule = list_schedule_in(
            &marked_ctx,
            &ResourceSet::unlimited(),
            Some(windows.available_steps()),
        )?;
        Ok(SchedEmbedding {
            marked: marked_ctx.into_graph(),
            schedule,
            edges,
            domains,
            available_steps: windows.available_steps(),
            windows,
        })
    }

    /// Detects the watermark: re-derives the signature's constraints from
    /// the *original* specification and verifies them against the
    /// suspected schedule.
    ///
    /// # Errors
    ///
    /// Same derivation errors as [`SchedulingWatermarker::embed`] — note a
    /// derivation failure means "this signature could not even have been
    /// embedded here", which is itself a negative result.
    pub fn detect(
        &self,
        schedule: &Schedule,
        g: &Cdfg,
        signature: &Signature,
    ) -> Result<SchedEvidence, WatermarkError> {
        self.detect_in(
            schedule,
            &DesignContext::from(g),
            signature,
            Parallelism::from_env(),
        )
    }

    /// [`SchedulingWatermarker::detect`] against a shared
    /// [`DesignContext`], fanning the per-attempt locality preparation
    /// across scoped worker threads per `par`. The evidence is
    /// byte-identical for every [`Parallelism`] choice.
    ///
    /// # Errors
    ///
    /// Same as [`SchedulingWatermarker::detect`].
    pub fn detect_in(
        &self,
        schedule: &Schedule,
        ctx: &DesignContext,
        signature: &Signature,
        par: Parallelism,
    ) -> Result<SchedEvidence, WatermarkError> {
        let (_, edges, windows) = self.derive_in(ctx, signature, par)?;
        Ok(evidence(&edges, &windows, schedule))
    }

    /// Realizes the temporal edges as *unit operations* for compiled-code
    /// settings: "temporal edges were induced using additional operations
    /// with unit operators (e.g., additions with variables assigned to zero
    /// at runtime)" (paper §V). Each edge `s → d` becomes a `UnitOp` `u`
    /// with a data edge `s → u` and a control edge `u → d`, so a compiler
    /// that knows nothing about watermarks still enforces the order.
    ///
    /// Returns the realized graph (for VLIW overhead measurement).
    pub fn realize_as_unit_ops(g: &Cdfg, edges: &[(NodeId, NodeId)]) -> Cdfg {
        let mut out = g.clone();
        for &(s, d) in edges {
            let u = out.add_node(localwm_cdfg::OpKind::UnitOp);
            out.add_data_edge(s, u).expect("source exists");
            out.add_control_edge(u, d).expect("destination exists");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::generators::{mediabench, mediabench_apps};
    use localwm_cdfg::EdgeKind;
    use localwm_sched::list_schedule;

    fn sig(name: &str) -> Signature {
        Signature::from_author(name)
    }

    #[test]
    fn embed_then_detect_round_trips() {
        let g = iir4_parallel();
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let s = sig("roundtrip");
        let emb = wm.embed(&g, &s).unwrap();
        assert!(!emb.edges.is_empty());
        assert!(emb.schedule.validate(&emb.marked).is_ok());
        let ev = wm.detect(&emb.schedule, &g, &s).unwrap();
        assert!(ev.is_match());
        assert_eq!(ev.satisfied_fraction(), 1.0);
        assert!(ev.log10_pc < 0.0);
    }

    #[test]
    fn detection_is_deterministic() {
        let g = iir4_parallel();
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let s = sig("determinism");
        let emb = wm.embed(&g, &s).unwrap();
        let e1 = wm.detect(&emb.schedule, &g, &s).unwrap();
        let e2 = wm.detect(&emb.schedule, &g, &s).unwrap();
        assert_eq!(e1.checks, e2.checks);
    }

    #[test]
    fn wrong_signature_rarely_matches() {
        let g = mediabench(&mediabench_apps()[0], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig {
            k: 12,
            ..SchedWmConfig::default()
        });
        let author = sig("the-author");
        let emb = wm.embed(&g, &author).unwrap();
        let mut false_positives = 0;
        for i in 0..10 {
            let other = sig(&format!("impostor-{i}"));
            if let Ok(ev) = wm.detect(&emb.schedule, &g, &other) {
                if ev.is_match() {
                    false_positives += 1;
                }
            }
        }
        assert_eq!(false_positives, 0, "12-edge marks must not collide");
    }

    #[test]
    fn unconstrained_schedule_does_not_verify() {
        let g = mediabench(&mediabench_apps()[1], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig {
            k: 12,
            ..SchedWmConfig::default()
        });
        let s = sig("author");
        // Schedule the *original* graph: no constraints embedded.
        let plain = list_schedule(&g, &ResourceSet::unlimited(), None).unwrap();
        let ev = wm.detect(&plain, &g, &s).unwrap();
        assert!(
            !ev.is_match(),
            "plain schedule should miss some constraints"
        );
    }

    #[test]
    fn marked_graph_has_exactly_k_temporal_edges() {
        let g = mediabench(&mediabench_apps()[2], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig {
            k: 9,
            ..SchedWmConfig::default()
        });
        let emb = wm.embed(&g, &sig("count")).unwrap();
        assert_eq!(emb.edges.len(), 9);
        let temporal = emb
            .marked
            .edges()
            .filter(|e| e.kind() == EdgeKind::Temporal)
            .count();
        assert_eq!(temporal, 9);
    }

    #[test]
    fn stripping_recovers_original_edge_count() {
        let g = iir4_parallel();
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let mut emb = wm.embed(&g, &sig("strip")).unwrap();
        let stripped = emb.marked.strip_temporal_edges();
        assert_eq!(stripped, emb.edges.len());
        assert_eq!(emb.marked.edge_count(), g.edge_count());
    }

    #[test]
    fn schedule_respects_deadline_budget() {
        let g = mediabench(&mediabench_apps()[3], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let emb = wm.embed(&g, &sig("budget")).unwrap();
        assert!(emb.schedule.length() <= emb.available_steps);
    }

    #[test]
    fn fraction_config_scales_k_with_design_size() {
        let g = mediabench(&mediabench_apps()[0], 0); // 528 ops
        let wm = SchedulingWatermarker::new(SchedWmConfig::with_node_fraction(0.02));
        let emb = wm.embed(&g, &sig("fraction")).unwrap();
        assert_eq!(emb.edges.len(), (0.02f64 * 528.0).round() as usize);
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let g = iir4_parallel();
        let wm = SchedulingWatermarker::new(SchedWmConfig {
            epsilon: 1.0,
            ..SchedWmConfig::default()
        });
        assert!(matches!(
            wm.embed(&g, &sig("bad")),
            Err(WatermarkError::InvalidConfig(_))
        ));
    }

    #[test]
    fn realized_unit_ops_enforce_order_through_dataflow() {
        let g = iir4_parallel();
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let emb = wm.embed(&g, &sig("realize")).unwrap();
        let realized = SchedulingWatermarker::realize_as_unit_ops(&g, &emb.edges);
        assert_eq!(
            realized.op_count(),
            g.op_count() + emb.edges.len(),
            "one unit op per edge"
        );
        let s = list_schedule(&realized, &ResourceSet::unlimited(), None).unwrap();
        for &(src, dst) in &emb.edges {
            assert_eq!(s.executes_before(src, dst), Some(true));
        }
    }

    #[test]
    fn serial_and_parallel_embeddings_are_identical() {
        use localwm_cdfg::designs::{table2_design, table2_designs};
        let t2 = table2_designs();
        let designs: Vec<(&str, Cdfg)> = vec![
            ("iir4", iir4_parallel()),
            (t2[1].name, table2_design(&t2[1])), // Linear GE: widest Table II
            (t2[3].name, table2_design(&t2[3])), // Modem
            ("mediabench0", mediabench(&mediabench_apps()[0], 0)),
        ];
        let mut embedded = 0usize;
        for (name, g) in designs {
            let wm = SchedulingWatermarker::new(SchedWmConfig {
                epsilon: 0.0,
                slack_factor: 2.0,
                ..SchedWmConfig::default()
            });
            let s = sig("par-embed");
            let ctx = DesignContext::from(&g);
            let serial = wm.embed_in(&ctx, &s, Parallelism::Serial);
            for par in [Parallelism::Threads(3), Parallelism::Auto] {
                let p = wm.embed_in(&ctx, &s, par);
                match (&serial, &p) {
                    (Ok(se), Ok(pe)) => {
                        assert_eq!(se.edges, pe.edges, "{name}: edges differ under {par:?}");
                        assert_eq!(
                            se.schedule, pe.schedule,
                            "{name}: schedule differs under {par:?}"
                        );
                        let es = wm
                            .detect_in(&se.schedule, &ctx, &s, Parallelism::Serial)
                            .unwrap();
                        let ep = wm.detect_in(&pe.schedule, &ctx, &s, par).unwrap();
                        assert_eq!(
                            es.checks, ep.checks,
                            "{name}: evidence differs under {par:?}"
                        );
                        assert_eq!(es.chances, ep.chances);
                    }
                    // Table II designs are nearly serial accumulation
                    // chains: the scheduling watermark legitimately finds
                    // no incomparable slack pairs there (the paper marks
                    // them with the *template* watermark instead). The
                    // parallel path must still fail identically.
                    (Err(se), Err(pe)) => assert_eq!(
                        format!("{se:?}"),
                        format!("{pe:?}"),
                        "{name}: error differs under {par:?}"
                    ),
                    _ => panic!("{name}: serial and {par:?} disagree on embeddability"),
                }
            }
            embedded += usize::from(serial.is_ok());
        }
        assert!(embedded >= 2, "iir4 and mediabench must embed");
    }

    #[test]
    fn localities_are_prepared_on_demand() {
        use localwm_engine::RecordingProbe;
        use std::sync::Arc;
        let g = mediabench(&mediabench_apps()[0], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let cap = wm.config().max_attempts as u64;
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            let probe = Arc::new(RecordingProbe::new());
            let ctx = DesignContext::from(&g).with_probe(probe.clone());
            wm.embed_in(&ctx, &sig("on-demand"), par).unwrap();
            let attempts = probe.counter_value("core.sched_wm.attempts");
            assert!(
                attempts > 0 && attempts < cap,
                "{par:?}: {attempts} of {cap} attempts prepared"
            );
        }
    }

    #[test]
    fn embedding_evidence_is_detection_without_a_derivation() {
        let g = mediabench(&mediabench_apps()[1], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let s = sig("evidence");
        let emb = wm.embed(&g, &s).unwrap();
        let plain = list_schedule(&g, &ResourceSet::unlimited(), None).unwrap();
        for schedule in [&emb.schedule, &plain] {
            let own = emb.evidence(schedule);
            let detected = wm.detect(schedule, &g, &s).unwrap();
            assert_eq!(own.checks, detected.checks);
            assert_eq!(own.chances, detected.chances);
            assert_eq!(own.log10_pc.to_bits(), detected.log10_pc.to_bits());
        }
    }

    #[test]
    fn serial_designs_report_no_incomparable_pairs() {
        use localwm_cdfg::designs::{table2_design, table2_designs};
        // Table II designs are nearly serial accumulation chains: eligible
        // slack-rich nodes exist, but every candidate pair is comparable, so
        // the failure must be the typed NoIncomparablePairs diagnostic
        // rather than a generic TooFewEdges.
        let t2 = table2_designs();
        let g = table2_design(&t2[1]); // Linear GE: widest Table II design
        let wm = SchedulingWatermarker::new(SchedWmConfig {
            epsilon: 0.0,
            slack_factor: 2.0,
            ..SchedWmConfig::default()
        });
        let err = wm.embed(&g, &sig("serial")).unwrap_err();
        match err {
            WatermarkError::NoIncomparablePairs {
                domain_size,
                pairs_examined,
            } => {
                assert!(domain_size >= 2, "eligible nodes were found");
                assert!(pairs_examined > 0, "pairs were actually examined");
            }
            other => panic!("expected NoIncomparablePairs, got {other:?}"),
        }
    }

    #[test]
    fn edges_connect_incomparable_slackful_nodes() {
        let g = mediabench(&mediabench_apps()[5], 0);
        let wm = SchedulingWatermarker::new(SchedWmConfig::default());
        let emb = wm.embed(&g, &sig("slack")).unwrap();
        for &(s, d) in &emb.edges {
            assert!(!g.reaches(s, d) && !g.reaches(d, s), "{s}->{d} comparable");
        }
    }
}

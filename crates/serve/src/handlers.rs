//! Request execution: pure functions from a request (plus the shared
//! context cache) to a result object or a typed [`ServiceError`].
//!
//! Handlers run on worker threads with [`Parallelism::Serial`] — the
//! service's concurrency comes from the worker pool, not from nested
//! fan-out — and every handler is deterministic in its request, so
//! concurrent and serial executions of the same request stream produce
//! byte-identical responses.

use std::sync::Arc;

use localwm_attack::{AttackConfig, AttackKind, StrengthConfig, MAX_BUDGETS};
use localwm_core::{SchedWmConfig, SchedulingWatermarker, Signature, WatermarkError};
use localwm_engine::{DesignContext, KindBounds, Parallelism};
use localwm_sched::{parse_schedule, write_schedule};
use localwm_timing::{criticality_in, MAX_SAMPLES};
use serde::{object, Serialize, Value};

use crate::cache::ContextCache;
use crate::protocol::{ErrorCode, Request, RequestKind, ServiceError};

pub(crate) type HandlerResult = Result<Value, ServiceError>;

pub(crate) fn bad_request(msg: impl Into<String>) -> ServiceError {
    ServiceError::new(ErrorCode::BadRequest, msg)
}

/// Resolves the request's design text through the shared context cache.
fn design_context(cache: &ContextCache, req: &Request) -> Result<Arc<DesignContext>, ServiceError> {
    let text = req
        .design
        .as_deref()
        .ok_or_else(|| bad_request("missing `design` (CDFG text)"))?;
    cache
        .get_or_parse(text)
        .map_err(|e| bad_request(format!("bad design: {e}")))
}

/// The request's delay model over the context's graph. Refuses bounds
/// whose path delays could overflow `u64` — Σ of every node's `hi`, the
/// same sum the Monte-Carlo kernel picks its row type by — so no analysis
/// ever runs on them. The context memoizes the model's intervals and that
/// sum, so a repeat check does not walk the graph.
pub(crate) fn bounds(ctx: &DesignContext, req: &Request) -> Result<KindBounds, ServiceError> {
    let lo = req.lo.unwrap_or(1);
    let hi = req.hi.unwrap_or(3);
    if lo > hi {
        return Err(bad_request(format!("bad delay bounds: lo {lo} > hi {hi}")));
    }
    let model = KindBounds::uniform(lo, hi);
    if ctx.resolved_bounds(&model).hi_sum().is_none() {
        return Err(bad_request(format!(
            "bad delay bounds: hi {hi} over {} ops overflows a 64-bit path delay",
            ctx.graph().op_count()
        )));
    }
    Ok(model)
}

/// The request's Monte-Carlo sample count (default 100). Refuses a count
/// outside `1..=MAX_SAMPLES` before the kernel allocates its rows.
pub(crate) fn samples(req: &Request) -> Result<usize, ServiceError> {
    let samples = req.samples.unwrap_or(100);
    if !(1..=MAX_SAMPLES).contains(&samples) {
        return Err(bad_request(format!(
            "bad samples: {samples} is outside 1..={MAX_SAMPLES}"
        )));
    }
    Ok(samples)
}

/// Executes one queued request against the shared cache with
/// [`Parallelism::Serial`] (the service's default — concurrency comes from
/// the worker pool).
///
/// # Errors
///
/// Returns a typed [`ServiceError`]; `stats` and `shutdown` are answered
/// inline by the connection thread and never reach this function.
pub fn execute(cache: &ContextCache, req: &Request) -> HandlerResult {
    execute_with(cache, req, Parallelism::Serial)
}

/// [`execute`] with an explicit [`Parallelism`] for the engine passes.
///
/// Every engine entry point is parallelism-invariant, so any `par` choice
/// produces byte-identical results — the differential oracle in
/// `localwm-testkit` runs request streams through `Serial` and `Threads(n)`
/// lanes and asserts exactly that.
///
/// # Errors
///
/// Same as [`execute`].
pub fn execute_with(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    match req.kind {
        RequestKind::Embed => embed(cache, req, par),
        RequestKind::Detect => detect(cache, req, par),
        RequestKind::Analyze => analyze(cache, req, par),
        RequestKind::Timing => timing(cache, req),
        RequestKind::Stats | RequestKind::Shutdown | RequestKind::ClusterStats => Err(
            ServiceError::new(ErrorCode::Internal, "stats/shutdown are handled inline"),
        ),
        RequestKind::Open | RequestKind::Mutate | RequestKind::Close => Err(ServiceError::new(
            ErrorCode::Internal,
            "session requests are handled inline by the connection thread",
        )),
        RequestKind::Attack => attack(cache, req, par),
        RequestKind::Strength => strength(cache, req, par),
    }
}

fn signature(req: &Request) -> Result<Signature, ServiceError> {
    req.author
        .as_deref()
        .map(Signature::from_author)
        .ok_or_else(|| bad_request("missing `author`"))
}

fn wm_config(req: &Request) -> SchedWmConfig {
    let mut config = SchedWmConfig::default();
    if let Some(f) = req.fraction {
        config = SchedWmConfig::with_node_fraction(f);
    }
    if let Some(k) = req.k {
        config.k = k;
    }
    config
}

fn watermarker(req: &Request) -> SchedulingWatermarker {
    SchedulingWatermarker::new(wm_config(req))
}

/// Maps embedding-side watermark failures to typed wire errors; shared by
/// `embed` and the robustness kinds so a serial design produces the same
/// `no_incomparable_pairs` diagnostic everywhere.
fn embed_error(e: WatermarkError) -> ServiceError {
    match e {
        WatermarkError::NoIncomparablePairs {
            domain_size,
            pairs_examined,
        } => ServiceError::new(ErrorCode::NoIncomparablePairs, e.to_string())
            .with_detail("domain_size", domain_size.to_value())
            .with_detail("pairs_examined", pairs_examined.to_value()),
        other => ServiceError::new(ErrorCode::EmbedFailed, other.to_string()),
    }
}

fn embed(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    let ctx = design_context(cache, req)?;
    let sig = signature(req)?;
    let wm = watermarker(req);
    let emb = wm.embed_in(&ctx, &sig, par).map_err(embed_error)?;
    Ok(object(vec![
        ("edges", emb.edges.len().to_value()),
        ("localities", emb.domains.len().to_value()),
        ("schedule_length", emb.schedule.length().to_value()),
        ("available_steps", emb.available_steps.to_value()),
        (
            "schedule",
            write_schedule(ctx.graph(), &emb.schedule).to_value(),
        ),
    ]))
}

fn detect(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    let ctx = design_context(cache, req)?;
    let sig = signature(req)?;
    let text = req
        .schedule
        .as_deref()
        .ok_or_else(|| bad_request("missing `schedule` (schedule text)"))?;
    let schedule =
        parse_schedule(ctx.graph(), text).map_err(|e| bad_request(format!("bad schedule: {e}")))?;
    let wm = watermarker(req);
    let ev = wm
        .detect_in(&schedule, &ctx, &sig, par)
        .map_err(|e| ServiceError::new(ErrorCode::DetectFailed, e.to_string()))?;
    let satisfied = ev.checks.iter().filter(|&&(_, _, ok)| ok).count();
    Ok(object(vec![
        ("match", ev.is_match().to_value()),
        ("satisfied", satisfied.to_value()),
        ("checked", ev.checks.len().to_value()),
        ("log10_pc", ev.log10_pc.to_value()),
    ]))
}

fn timing(cache: &ContextCache, req: &Request) -> HandlerResult {
    let ctx = design_context(cache, req)?;
    timing_body(&ctx, req)
}

/// The `timing` result object for an already-resolved context. Shared by
/// the cached from-scratch path and the session path, so a session's
/// response is byte-identical to re-sending the current design text.
pub(crate) fn timing_body(ctx: &DesignContext, req: &Request) -> HandlerResult {
    let cp = ctx.critical_path();
    let deadline = req.deadline.unwrap_or(cp);
    let w = ctx
        .windows(deadline)
        .map_err(|e| bad_request(e.to_string()))?;
    let g = ctx.graph();
    let zero_mobility = g
        .node_ids()
        .filter(|&n| g.kind(n).is_schedulable() && w.mobility(n) == 0)
        .count();
    let model = bounds(ctx, req)?;
    let arrival = ctx.bounded_arrival(&model);
    let interval = arrival.critical_path;
    Ok(object(vec![
        ("ops", g.op_count().to_value()),
        ("critical_path", cp.to_value()),
        ("deadline", deadline.to_value()),
        ("zero_mobility", zero_mobility.to_value()),
        ("bounded_lo", interval.lo.to_value()),
        ("bounded_hi", interval.hi.to_value()),
        (
            "possibly_critical",
            arrival.possibly_critical().count().to_value(),
        ),
    ]))
}

fn analyze(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    let samples = samples(req)?;
    let ctx = design_context(cache, req)?;
    let model = bounds(&ctx, req)?;
    let seed = req.seed.unwrap_or(0);
    let report = criticality_in(&ctx, &model, samples, seed, par);
    analyze_body(&ctx, req, &report)
}

/// The `analyze` result object for an already-resolved context and a
/// precomputed criticality report. The session path feeds this from its
/// incremental [`CriticalityCache`](localwm_timing::CriticalityCache),
/// whose reports are byte-identical to [`criticality_in`] — so the merged
/// body is too.
pub(crate) fn analyze_body(
    ctx: &DesignContext,
    req: &Request,
    report: &localwm_timing::CriticalityReport,
) -> HandlerResult {
    let base = timing_body(ctx, req)?;
    let samples = req.samples.unwrap_or(100);
    let seed = req.seed.unwrap_or(0);
    let g = ctx.graph();
    let top: Vec<Value> = report
        .top_critical(5, |n| g.kind(n).is_schedulable())
        .into_iter()
        .map(|(n, p)| {
            let name = g
                .node_name(n)
                .map_or_else(|| format!("n{}", n.index()), str::to_owned);
            Value::Array(vec![Value::Str(name), Value::Float(p)])
        })
        .collect();
    let mut fields = match base {
        Value::Object(f) => f,
        _ => unreachable!("timing returns an object"),
    };
    fields.push(("samples".to_owned(), samples.to_value()));
    fields.push(("seed".to_owned(), seed.to_value()));
    fields.push((
        "delay_p50".to_owned(),
        report.delay_quantile(0.5).to_value(),
    ));
    fields.push((
        "delay_p95".to_owned(),
        report.delay_quantile(0.95).to_value(),
    ));
    fields.push(("top_critical".to_owned(), Value::Array(top)));
    Ok(Value::Object(fields))
}

fn attack(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    let ctx = design_context(cache, req)?;
    let sig = signature(req)?;
    let kind_name = req.attack.as_deref().unwrap_or("reschedule");
    let kind = AttackKind::parse(kind_name)
        .ok_or_else(|| bad_request(format!("unknown attack kind `{kind_name}`")))?;
    let budget = req.budget.unwrap_or(0.25);
    if !(0.0..=1.0).contains(&budget) {
        return Err(bad_request(format!("budget {budget} outside [0, 1]")));
    }
    let seed = req.seed.unwrap_or(0);
    let run = localwm_attack::attack_once_in(
        &ctx,
        &sig,
        par,
        &AttackConfig { kind, budget, seed },
        &wm_config(req),
    )
    .map_err(embed_error)?;
    let mut fields = match run.cell.to_value() {
        Value::Object(f) => f,
        _ => unreachable!("cells serialize as objects"),
    };
    fields.push(("seed".to_owned(), seed.to_value()));
    fields.push(("baseline_length".to_owned(), run.baseline_length.to_value()));
    fields.push(("wm_edges".to_owned(), run.wm_edges.to_value()));
    fields.push((
        "schedule".to_owned(),
        write_schedule(&run.outcome.graph, &run.outcome.schedule).to_value(),
    ));
    Ok(Value::Object(fields))
}

fn parse_budgets(req: &Request) -> Result<Vec<f64>, ServiceError> {
    let Some(text) = req.budgets.as_deref() else {
        return Ok(localwm_attack::DEFAULT_BUDGETS.to_vec());
    };
    let mut out = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if out.len() == MAX_BUDGETS {
            return Err(bad_request(format!(
                "`budgets` lists more than {MAX_BUDGETS} levels"
            )));
        }
        let b: f64 = part
            .parse()
            .map_err(|_| bad_request(format!("bad budget `{part}`")))?;
        if !(0.0..=1.0).contains(&b) {
            return Err(bad_request(format!("budget {b} outside [0, 1]")));
        }
        out.push(b);
    }
    if out.is_empty() {
        return Err(bad_request("empty `budgets` list"));
    }
    Ok(out)
}

fn strength(cache: &ContextCache, req: &Request, par: Parallelism) -> HandlerResult {
    // The budget list is checked first: its length multiplies the sweep.
    let budgets = parse_budgets(req)?;
    let ctx = design_context(cache, req)?;
    let sig = signature(req)?;
    let cfg = StrengthConfig {
        budgets,
        seed: req.seed.unwrap_or(0),
        wm: wm_config(req),
    };
    let report = localwm_attack::strength_report_in(&ctx, &sig, par, &cfg).map_err(embed_error)?;
    Ok(report.to_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::write_cdfg;

    fn req_with_design(kind: RequestKind) -> Request {
        let mut r = Request::new(kind);
        r.design = Some(write_cdfg(&iir4_parallel()));
        r
    }

    #[test]
    fn timing_reports_critical_path() {
        let cache = ContextCache::new(2);
        let out = execute(&cache, &req_with_design(RequestKind::Timing)).unwrap();
        assert_eq!(out.field("critical_path"), Some(&Value::Int(6)));
        assert!(matches!(out.field("bounded_hi"), Some(Value::Int(_))));
    }

    #[test]
    fn embed_then_detect_round_trips_through_the_wire_formats() {
        let cache = ContextCache::new(2);
        let mut embed_req = req_with_design(RequestKind::Embed);
        embed_req.author = Some("server-test".to_owned());
        let emb = execute(&cache, &embed_req).unwrap();
        let schedule = match emb.field("schedule") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("expected schedule text, got {other:?}"),
        };
        let mut detect_req = req_with_design(RequestKind::Detect);
        detect_req.author = Some("server-test".to_owned());
        detect_req.schedule = Some(schedule);
        let ev = execute(&cache, &detect_req).unwrap();
        assert_eq!(ev.field("match"), Some(&Value::Bool(true)));
        // The cache served both requests from one context.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn missing_fields_are_bad_requests() {
        let cache = ContextCache::new(2);
        let no_design = Request::new(RequestKind::Timing);
        let err = execute(&cache, &no_design).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        let no_author = req_with_design(RequestKind::Embed);
        let err = execute(&cache, &no_author).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn attack_measures_and_is_deterministic() {
        let cache = ContextCache::new(2);
        let mut req = req_with_design(RequestKind::Attack);
        req.author = Some("server-test".to_owned());
        req.attack = Some("reschedule".to_owned());
        req.budget = Some(0.5);
        req.seed = Some(3);
        let a = execute(&cache, &req).unwrap();
        let b = execute_with(&cache, &req, Parallelism::Auto).unwrap();
        assert_eq!(a, b, "seeded attacks are parallelism-invariant");
        assert!(matches!(a.field("survived"), Some(Value::Bool(_))));
        assert!(matches!(a.field("strength"), Some(Value::Float(_))));
        assert!(matches!(a.field("schedule"), Some(Value::Str(_))));
    }

    #[test]
    fn strength_sweeps_the_requested_budgets() {
        let cache = ContextCache::new(2);
        let mut req = req_with_design(RequestKind::Strength);
        req.author = Some("server-test".to_owned());
        req.budgets = Some("0, 0.3".to_owned());
        req.seed = Some(5);
        let out = execute(&cache, &req).unwrap();
        match out.field("rows") {
            Some(Value::Array(rows)) => assert_eq!(rows.len(), 2),
            other => panic!("expected rows array, got {other:?}"),
        }
        match out.field("cells") {
            Some(Value::Array(cells)) => assert_eq!(cells.len(), 8),
            other => panic!("expected cells array, got {other:?}"),
        }
        let mut bad = req.clone();
        bad.budgets = Some("0,nope".to_owned());
        assert_eq!(
            execute(&cache, &bad).unwrap_err().code,
            ErrorCode::BadRequest
        );
        let mut out_of_range = req.clone();
        out_of_range.budgets = Some("0,1.5".to_owned());
        assert_eq!(
            execute(&cache, &out_of_range).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn robustness_kinds_surface_typed_embed_errors() {
        use localwm_cdfg::designs::{table2_design, table2_designs};
        let cache = ContextCache::new(2);
        for kind in [RequestKind::Attack, RequestKind::Strength] {
            let mut req = Request::new(kind);
            req.design = Some(write_cdfg(&table2_design(&table2_designs()[1])));
            req.author = Some("anyone".to_owned());
            let err = execute(&cache, &req).unwrap_err();
            assert_eq!(err.code, ErrorCode::NoIncomparablePairs, "{kind}");
        }
    }

    #[test]
    fn serial_design_yields_typed_no_incomparable_pairs() {
        use localwm_cdfg::designs::{table2_design, table2_designs};
        let cache = ContextCache::new(2);
        let mut req = Request::new(RequestKind::Embed);
        req.design = Some(write_cdfg(&table2_design(&table2_designs()[1])));
        req.author = Some("anyone".to_owned());
        let err = execute(&cache, &req).unwrap_err();
        assert_eq!(err.code, ErrorCode::NoIncomparablePairs);
        assert!(err.details.iter().any(|(k, _)| k == "domain_size"));
        assert!(err.details.iter().any(|(k, _)| k == "pairs_examined"));
    }
}

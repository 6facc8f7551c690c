//! `lwm-bench`: the seeded end-to-end benchmark of the localwm service
//! stack.
//!
//! One run starts the shipped servers in-process on loopback, generates a
//! workload from its seed, drives it over real TCP from
//! [`LOAD_CONNECTIONS`] connections (one thread each), checks every answer
//! against in-process references, and reports either the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run). See the
//! package README for the metric and workload definitions.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("lwm-bench runs on 64-bit Linux: it reads /proc and waits with ppoll");

pub mod compare;
pub mod drive;
pub mod fleet;
pub mod harness;
pub mod replay;
pub mod spans;
pub mod verify;
pub mod wire;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

use crate::drive::{run_phase, ConnOutcome, Pace, Source};
use crate::fleet::Fleet;
use crate::harness::{median, metrics_value, percentile, sorted, Host, Metric};
use crate::spans::{Recorder, Span};
pub use crate::workload::{Plan, Shape, UnitSpec, Workload, LOAD_CONNECTIONS};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("loadgen.late_p99_ms", "ms"),
    ("client.rtt_p50_ms", "ms"),
    ("client.encode_us_p50", "us"),
    ("client.decode_us_p50", "us"),
    ("gateway.hop_us_p50", "us"),
    ("gateway.routed", "count"),
    ("gateway.retries", "count"),
    ("gateway.failovers", "count"),
    ("serve.protocol.decode_us_p50", "us"),
    ("serve.protocol.request_kb_mean", "KiB"),
    ("serve.protocol.encode_us_p50", "us"),
    ("serve.protocol.response_kb_mean", "KiB"),
    ("serve.server.exec_us_mean", "us"),
    ("serve.server.wait_us_mean", "us"),
    ("serve.server.rejected", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.hit_us_p50", "us"),
    ("serve.singleflight.coalesced_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.puts", "count"),
    ("store.rehydrate_us_p50", "us"),
    ("cdfg.parse_us_p50", "us"),
    ("engine.build_us_p50", "us"),
    ("engine.content_hash_us_p50", "us"),
    ("engine.pool.jobs", "count"),
    ("engine.pool.steals", "count"),
    ("timing.criticality_us_per_sample", "us"),
    ("timing.mc_samples_per_s", "1/s"),
    ("serve.session.mutate_us_p50", "us"),
    ("timing.session_analyze_us_p50", "us"),
    ("core.embed_ms_p50", "ms"),
    ("core.detect_ms_p50", "ms"),
    ("core.embed_rejects", "count"),
    ("attack.strength_ms_p50", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Gateway/direct request pairs the traced run sends to price the hop.
const HOP_PAIRS: u64 = 128;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs (never sent to the servers).
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for reports, spans and the servers' store directories.
    pub out_dir: PathBuf,
    /// Input sizes.
    pub shape: Shape,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// What ran.
    pub config: RunConfig,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Further numbers printed and stored but not compared across runs.
    pub extra: Vec<Metric>,
    /// Units attempted over the measured phases.
    pub attempted: u64,
    /// Units that failed: transport errors, unexpected typed errors,
    /// wrong answers.
    pub failed: u64,
    /// Answers compared with an in-process reference.
    pub compared: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Digest of the generated request stream.
    pub digest: u64,
    /// Each set-up's duration, s.
    pub setups_s: Vec<f64>,
    /// `watermark-batch` designs dropped from the pool.
    pub dropped: usize,
    /// Host facts.
    pub host: Host,
    /// Where the spans went (traced runs).
    pub spans: Option<PathBuf>,
}

impl RunReport {
    /// Whether every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let v = Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::UInt(self.attempted)),
            ("failed".to_owned(), Value::UInt(self.failed)),
            ("metrics".to_owned(), metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&v).expect("report serializes")
    }

    /// The full report, as written to `--out`.
    pub fn to_value(&self) -> Value {
        let c = &self.config;
        let floats = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
        Value::Object(vec![
            (
                "workload".to_owned(),
                Value::Str(c.workload.name().to_owned()),
            ),
            ("seed".to_owned(), Value::UInt(c.seed)),
            ("seconds".to_owned(), Value::Float(c.seconds)),
            ("trace".to_owned(), Value::Bool(c.trace)),
            (
                "workload_digest".to_owned(),
                Value::Str(format!("{:016x}", self.digest)),
            ),
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::UInt(self.attempted)),
            ("failed".to_owned(), Value::UInt(self.failed)),
            ("compared".to_owned(), Value::UInt(self.compared)),
            (
                "failures".to_owned(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".to_owned(), metrics_value(&self.metrics)),
            ("extra".to_owned(), metrics_value(&self.extra)),
            ("setups_s".to_owned(), floats(&self.setups_s)),
            ("dropped".to_owned(), Value::UInt(self.dropped as u64)),
            (
                "host".to_owned(),
                Value::Object(vec![
                    ("nproc".to_owned(), Value::UInt(self.host.nproc as u64)),
                    (
                        "profile".to_owned(),
                        Value::Str(self.host.profile.to_owned()),
                    ),
                    ("git_sha".to_owned(), Value::Str(self.host.git_sha.clone())),
                ]),
            ),
            (
                "spans".to_owned(),
                self.spans
                    .as_ref()
                    .map_or(Value::Null, |p| Value::Str(p.display().to_string())),
            ),
        ])
    }
}

/// One phase over all connections, cut into windows of equal duration by
/// completion time. The reported p50, p99 and rate are medians over the
/// windows: the host this benchmark runs on slows down for seconds at a
/// time under its neighbours' load, and a median over windows moves with a
/// slowdown only when the slowdown covers most of the run.
struct PhaseSummary {
    /// (completion time s, latency ms) of every unit.
    done: Vec<(f64, f64)>,
    lateness: Vec<f64>,
    units: u64,
    /// Median over [`WINDOWS`] windows of units completed per second.
    rate: f64,
    /// Median over [`WINDOWS`] windows of the window's median latency.
    p50: f64,
}

/// Windows a phase is cut into for its p50 and rate.
const WINDOWS: usize = 10;

/// Units per window for a windowed p99: ten beyond the 99th percentile
/// need 1000, and the margin keeps a slightly short window in.
const P99_WINDOW_UNITS: usize = 1100;

/// Each window's unit count and its `pct` percentile (ms), for `n` equal
/// windows. A window too thin for the percentile to have ten samples
/// beyond it (the drain at the end of a closed phase) reports none.
fn windowed(done: &[(f64, f64)], n: usize, pct: f64) -> (Vec<f64>, f64, Vec<f64>) {
    let span = done.iter().map(|d| d.0).fold(0.0, f64::max);
    let width = span / n as f64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, latency) in done {
        windows[((t / width) as usize).min(n - 1)].push(latency);
    }
    let counts = windows.iter().map(|w| w.len() as f64).collect();
    let quantiles = windows
        .into_iter()
        .filter_map(|w| percentile(&sorted(w), pct).ok())
        .collect();
    (counts, width, quantiles)
}

fn summarize(outcomes: &[ConnOutcome]) -> Result<PhaseSummary, String> {
    let done: Vec<(f64, f64)> = outcomes
        .iter()
        .flat_map(|o| o.units.iter().map(|&(t, l)| (f64::from(t), f64::from(l))))
        .collect();
    let (counts, width, p50s) = windowed(&done, WINDOWS, 50.0);
    if p50s.is_empty() {
        return Err(format!(
            "{} units are too few for a windowed median",
            done.len()
        ));
    }
    Ok(PhaseSummary {
        units: done.len() as u64,
        lateness: sorted(
            outcomes
                .iter()
                .flat_map(|o| o.lateness.iter().copied())
                .collect(),
        ),
        rate: median(&counts) / width,
        p50: median(&p50s),
        done,
    })
}

impl PhaseSummary {
    /// Median over windows of at least [`P99_WINDOW_UNITS`] units (up to
    /// [`WINDOWS`]) of the window's p99; a stall that spoils one window's
    /// tail does not decide the run's.
    fn p99(&self) -> Result<f64, String> {
        let n = (self.done.len() / P99_WINDOW_UNITS).clamp(1, WINDOWS);
        let (_, _, p99s) = windowed(&self.done, n, 99.0);
        if p99s.is_empty() {
            return Err(format!(
                "{} units are too few for a p99 with ten samples beyond it",
                self.done.len()
            ));
        }
        Ok(median(&p99s))
    }
}

fn next_units(outcomes: &[ConnOutcome]) -> Vec<u64> {
    outcomes.iter().map(|o| o.next_unit).collect()
}

/// Starts the fleet, generates the inputs and runs the warm pass; returns
/// the first unit each client measures.
fn set_up(cfg: &RunConfig, dir: &Path) -> Result<(Fleet, Plan, Vec<u64>), String> {
    let fleet = Fleet::start(cfg.workload, dir).map_err(|e| format!("starting servers: {e}"))?;
    match warm(cfg, &fleet) {
        Ok((plan, first)) => Ok((fleet, plan, first)),
        Err(e) => {
            fleet.stop();
            Err(e)
        }
    }
}

fn warm(cfg: &RunConfig, fleet: &Fleet) -> Result<(Plan, Vec<u64>), String> {
    let plan = Plan::generate(cfg.workload, cfg.seed, &cfg.shape)?;
    let n = plan.designs.len();
    // `timing-open` primes every design once, so that a measured miss
    // rehydrates from the store instead of parsing a design for the first
    // time; the others run their first units.
    let prime = |c: usize, i: u64| UnitSpec::Query {
        design: (i as usize * LOAD_CONNECTIONS + c) % n,
        analyze: None,
    };
    let stream = |c: usize, i: u64| plan.unit(c, i);
    let (source, units): (Source<'_>, u64) = match cfg.workload {
        Workload::TimingOpen => (&prime, n.div_ceil(LOAD_CONNECTIONS) as u64),
        Workload::AnalyzeClosed => (&stream, 2),
        Workload::WatermarkBatch => (&stream, 2),
        Workload::EditSession => (&stream, 16),
    };
    let pace = Pace::Closed {
        window: 1,
        seconds: 0.0,
        min_units: units,
    };
    let start = [0; LOAD_CONNECTIONS];
    let out = run_phase(&plan, &fleet.target, pace, &start, source, None)?;
    warm_failures(&out)?;
    let first = if cfg.workload == Workload::TimingOpen {
        start.to_vec()
    } else {
        next_units(&out)
    };
    Ok((plan, first))
}

fn warm_failures(out: &[ConnOutcome]) -> Result<(), String> {
    for o in out {
        if let Some((unit, why)) = o.failures.first() {
            return Err(format!("warm pass failed at unit {unit}: {why}"));
        }
        if o.typed_errors > 0 {
            return Err(format!("warm pass: {} typed errors", o.typed_errors));
        }
    }
    Ok(())
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Fails when the servers cannot start, a load connection cannot open, or
/// a phase yields too few samples for a reported percentile. Wrong answers
/// are not errors: they are counted in [`RunReport::failed`].
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    assert!(cfg.shape.setups >= 1, "at least one set-up");
    let work = cfg.out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(cfg, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(cfg: &RunConfig, work: &Path) -> Result<RunReport, String> {
    let mut setups_s = Vec::with_capacity(cfg.shape.setups);
    let mut kept = None;
    for k in 0..cfg.shape.setups {
        let started = Instant::now();
        let set = set_up(cfg, &work.join(format!("setup-{k}")))?;
        setups_s.push(started.elapsed().as_secs_f64());
        if k + 1 < cfg.shape.setups {
            set.0.stop();
        } else {
            kept = Some(set);
        }
    }
    let (fleet, plan, first) = kept.expect("set up at least once");
    let result = if cfg.trace {
        measure_traced(cfg, &fleet, &plan, &first, work)
    } else {
        measure(cfg, &fleet, &plan, &first)
    };
    fleet.stop();
    let (mut metrics, extra, phases, spans) = result?;
    if !cfg.trace {
        metrics.insert(0, Metric::new("setup_s", median(&setups_s), "s"));
    }

    let phase_refs: Vec<&[ConnOutcome]> = phases.iter().map(Vec::as_slice).collect();
    let verdict = verify::verify(&plan, &phase_refs, Host::detect().nproc);
    let attempted: u64 = phases.iter().flatten().map(|o| o.attempted).sum();
    let failed = verdict.failed.min(attempted);
    let mut extra = extra;
    extra.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    extra.push(Metric::new("compared", verdict.compared as f64, "count"));
    Ok(RunReport {
        config: cfg.clone(),
        metrics,
        extra,
        attempted,
        failed,
        compared: verdict.compared,
        failures: verdict
            .reasons
            .iter()
            .take(10)
            .map(|((client, unit), why)| format!("client {client} unit {unit}: {why}"))
            .collect(),
        digest: plan.digest(),
        setups_s,
        dropped: plan.dropped,
        host: Host::detect(),
        spans,
    })
}

type Measured = (
    Vec<Metric>,
    Vec<Metric>,
    Vec<Vec<ConnOutcome>>,
    Option<PathBuf>,
);

fn p(sorted: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, pct).map_err(|e| format!("{what}: {e}"))
}

/// The untraced run: end-to-end metrics.
fn measure(cfg: &RunConfig, fleet: &Fleet, plan: &Plan, first: &[u64]) -> Result<Measured, String> {
    let shape = &cfg.shape;
    let source = |c: usize, n: u64| plan.unit(c, n);
    let per_conn_min = shape.min_units.div_ceil(LOAD_CONNECTIONS as u64);
    let mut phases = Vec::new();
    let mut extra = Vec::new();
    let (latency, saturation) = if cfg.workload == Workload::TimingOpen {
        let open_s = cfg.seconds * shape.open_share;
        let count = ((shape.open_rate * open_s).ceil() as u64).max(shape.min_units);
        let pace = Pace::Open {
            rate: shape.open_rate,
            count: count.div_ceil(LOAD_CONNECTIONS as u64),
        };
        let open = run_phase(plan, &fleet.target, pace, first, &source, None)?;
        let pace = Pace::Closed {
            window: shape.saturation_window,
            seconds: cfg.seconds - open_s,
            min_units: per_conn_min,
        };
        let closed = run_phase(plan, &fleet.target, pace, &next_units(&open), &source, None)?;
        let (o, c) = (summarize(&open)?, summarize(&closed)?);
        extra.push(Metric::new("open_rate_rps", shape.open_rate, "1/s"));
        extra.push(Metric::new(
            "loadgen.late_p99_ms",
            p(&o.lateness, 99.0, "lateness")?,
            "ms",
        ));
        phases.push(open);
        phases.push(closed);
        (o, Some(c))
    } else {
        let pace = Pace::Closed {
            window: 1,
            seconds: cfg.seconds,
            min_units: per_conn_min,
        };
        let closed = run_phase(plan, &fleet.target, pace, first, &source, None)?;
        let s = summarize(&closed)?;
        phases.push(closed);
        (s, None)
    };
    let throughput = saturation.as_ref().unwrap_or(&latency);
    let rss = harness::peak_rss_mb().ok_or("VmHWM unavailable")?;
    let metrics = vec![
        Metric::new("p50_ms", latency.p50, "ms"),
        Metric::new("p99_ms", latency.p99()?, "ms"),
        Metric::new("throughput_rps", throughput.rate, "1/s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    extra.push(Metric::new(
        "latency_samples",
        latency.units as f64,
        "count",
    ));
    extra.push(Metric::new(
        "throughput_units",
        throughput.units as f64,
        "count",
    ));
    Ok((metrics, extra, phases, None))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// p50 of a layer's span durations (µs); 0 when the workload never
/// reached the layer.
fn layer_p50(spans: &[Span], name: &str) -> Result<f64, String> {
    let d = sorted(spans::durations(spans, name));
    if d.is_empty() {
        return Ok(0.0);
    }
    p(&d, 50.0, name)
}

/// The traced run: an untraced and a traced phase of half the run each
/// (their p50 difference is the tracing overhead), the server counters
/// over the traced phase, the gateway hop, and the layer replay.
fn measure_traced(
    cfg: &RunConfig,
    fleet: &Fleet,
    plan: &Plan,
    first: &[u64],
    work: &Path,
) -> Result<Measured, String> {
    let shape = &cfg.shape;
    let source = |c: usize, n: u64| plan.unit(c, n);
    let half = cfg.seconds / 2.0;
    // Closed phases need p50s only: half the units a p99 needs are plenty.
    // The open phase still reports the sender's p99 lateness.
    let min_units = (shape.min_units / 2).max(1);
    let pace = if cfg.workload == Workload::TimingOpen {
        let count = ((shape.open_rate * half).ceil() as u64).max(shape.min_units);
        Pace::Open {
            rate: shape.open_rate,
            count: count.div_ceil(LOAD_CONNECTIONS as u64),
        }
    } else {
        Pace::Closed {
            window: 1,
            seconds: half,
            min_units: min_units.div_ceil(LOAD_CONNECTIONS as u64),
        }
    };
    let untraced = run_phase(plan, &fleet.target, pace, first, &source, None)?;
    let epoch = Instant::now();
    let before = fleet.snapshot()?;
    let traced = run_phase(
        plan,
        &fleet.target,
        pace,
        &next_units(&untraced),
        &source,
        Some(epoch),
    )?;
    let d = before.delta(&fleet.snapshot()?);
    let hop = if fleet.has_gateway() {
        sorted(fleet.gateway_hop(plan, HOP_PAIRS)?)
    } else {
        Vec::new()
    };
    let (a, b) = (summarize(&untraced)?, summarize(&traced)?);

    let mut rec = Recorder::new(epoch, 0);
    let stats = replay::replay(plan, &mut rec, work)?;
    let mut all: Vec<Span> = traced
        .iter()
        .flat_map(|o| o.spans.iter().cloned())
        .collect();
    all.extend(rec.spans);

    let rtt_ms: Vec<f64> = spans::durations(&all, "client.rtt")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    let hop_p50 = if hop.is_empty() {
        0.0
    } else {
        p(&hop, 50.0, "gateway hop")?
    };
    let exec_mean = if d.requests > 0.0 {
        d.total_us / d.requests
    } else {
        0.0
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let crit_us = spans::durations(&all, "timing.criticality")
        .iter()
        .sum::<f64>();
    let per_sample = ratio(crit_us, stats.criticality_samples as f64);
    let ms = |x: f64| x / 1e3;
    let values: Vec<(&str, f64)> = vec![
        (
            "loadgen.late_p99_ms",
            if b.lateness.is_empty() {
                0.0
            } else {
                p(&b.lateness, 99.0, "lateness")?
            },
        ),
        (
            "client.rtt_p50_ms",
            p(&sorted(rtt_ms.clone()), 50.0, "client rtt")?,
        ),
        ("client.encode_us_p50", layer_p50(&all, "client.encode")?),
        ("client.decode_us_p50", layer_p50(&all, "client.decode")?),
        ("gateway.hop_us_p50", hop_p50),
        ("gateway.routed", d.routed),
        ("gateway.retries", d.retries),
        ("gateway.failovers", d.failovers),
        (
            "serve.protocol.decode_us_p50",
            layer_p50(&all, "protocol.decode")?,
        ),
        (
            "serve.protocol.request_kb_mean",
            mean(&stats.request_bytes) / 1024.0,
        ),
        (
            "serve.protocol.encode_us_p50",
            layer_p50(&all, "protocol.encode")?,
        ),
        (
            "serve.protocol.response_kb_mean",
            mean(&stats.response_bytes) / 1024.0,
        ),
        ("serve.server.exec_us_mean", exec_mean),
        (
            "serve.server.wait_us_mean",
            mean(&rtt_ms) * 1e3 - exec_mean - hop_p50,
        ),
        ("serve.server.rejected", d.rejected),
        (
            "serve.cache.hit_ratio",
            ratio(d.cache_hits, d.cache_hits + d.cache_misses),
        ),
        ("serve.cache.evictions", d.evictions),
        ("serve.cache.hit_us_p50", layer_p50(&all, "cache.lookup")?),
        (
            "serve.singleflight.coalesced_ratio",
            ratio(d.coalesced, d.coalesced + d.executed),
        ),
        (
            "store.hit_ratio",
            ratio(d.store_hits, d.store_hits + d.store_misses),
        ),
        ("store.puts", d.store_puts),
        (
            "store.rehydrate_us_p50",
            layer_p50(&all, "store.rehydrate")?,
        ),
        ("cdfg.parse_us_p50", layer_p50(&all, "cdfg.parse")?),
        ("engine.build_us_p50", layer_p50(&all, "engine.build")?),
        (
            "engine.content_hash_us_p50",
            layer_p50(&all, "engine.content_hash")?,
        ),
        ("engine.pool.jobs", d.pool_jobs),
        ("engine.pool.steals", d.pool_steals),
        ("timing.criticality_us_per_sample", per_sample),
        ("timing.mc_samples_per_s", ratio(1e6, per_sample)),
        (
            "serve.session.mutate_us_p50",
            layer_p50(&all, "serve.session.mutate")?,
        ),
        (
            "timing.session_analyze_us_p50",
            layer_p50(&all, "timing.session_analyze")?,
        ),
        ("core.embed_ms_p50", ms(layer_p50(&all, "core.embed")?)),
        ("core.detect_ms_p50", ms(layer_p50(&all, "core.detect")?)),
        ("core.embed_rejects", plan.dropped as f64),
        (
            "attack.strength_ms_p50",
            ms(layer_p50(&all, "attack.strength")?),
        ),
        ("trace.unattributed_share", spans::unattributed_share(&all)),
        ("trace.overhead_pct", 100.0 * (b.p50 / a.p50 - 1.0)),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (check, v))| {
            debug_assert_eq!(name, check);
            Metric::new(name, v, unit)
        })
        .collect();

    let path = cfg.out_dir.join(format!(
        "{}-seed{}.spans.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    let extra = vec![
        Metric::new("spans", all.len() as f64, "count"),
        Metric::new("traced_units", b.units as f64, "count"),
    ];
    Ok((metrics, extra, vec![untraced, traced], Some(path)))
}

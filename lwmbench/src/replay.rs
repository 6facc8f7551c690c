//! The traced replay: after the traced phase, a seeded sample of the
//! workload's units runs through the public functions of each layer, one
//! call at a time, with a span around every call.
//!
//! Span tree of one replayed request (the sample's unit is the root):
//!
//! ```text
//! unit
//! ├─ protocol.decode        Request::from_line
//! ├─ serve.handler          handlers::execute on a warm cache (sessions:
//! │                         serve.session.mutate, timing.session_analyze or
//! │                         serve.session.timing on a held SessionState)
//! ├─ protocol.encode        Response::write_json
//! └─ layers                 the handler's layers, called one by one
//!    ├─ cache.lookup        ContextCache::get_or_parse, warm (a hit)
//!    ├─ store.rehydrate     get_or_parse missing memory, hitting the store
//!    ├─ cache.miss          what a true miss costs:
//!    │  ├─ cdfg.parse       parse_cdfg
//!    │  ├─ engine.build     DesignContext::new + the timing body's analyses
//!    │  └─ engine.content_hash
//!    └─ timing.criticality | core.embed | core.detect | attack.strength
//! ```
//!
//! `layers` re-runs work `serve.handler` already did, to split it by
//! layer; it is not part of the handler's time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use localwm_attack::{strength_report_in, StrengthConfig};
use localwm_cdfg::parse_cdfg;
use localwm_core::{SchedWmConfig, SchedulingWatermarker, Signature};
use localwm_engine::{DesignContext, KindBounds, Parallelism};
use localwm_sched::parse_schedule;
use localwm_serve::handlers::execute;
use localwm_serve::{ContextCache, Request, RequestKind, Response, SessionState};
use localwm_store::DesignStore;
use localwm_timing::criticality_in;
use serde::Value;

use crate::spans::Recorder;
use crate::workload::{authors, session_id, Plan, UnitSpec, Workload, STRENGTH_BUDGETS};

/// Replayed units start this far into each client's stream: the same
/// distribution as the measured units, none of the same draws.
const REPLAY_OFFSET: u64 = 1 << 32;

/// Trace ids of replayed units carry this bit.
const REPLAY_TRACE: u64 = 1 << 62;

/// Sizes the replay saw, beside its spans.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Request line sizes, bytes.
    pub request_bytes: Vec<f64>,
    /// Response line sizes, bytes.
    pub response_bytes: Vec<f64>,
    /// Monte-Carlo samples run inside `timing.criticality` spans.
    pub criticality_samples: u64,
}

struct Replayer<'a> {
    plan: &'a Plan,
    rec: &'a mut Recorder,
    warm: ContextCache,
    store: Arc<DesignStore>,
    stats: ReplayStats,
}

/// Replays `plan.shape.replay_units` units (requests, for
/// `analyze-closed` sweeps), recording spans into `rec`; the store tier
/// lives under `dir`.
///
/// # Errors
///
/// Store-open errors, or a reference call failing where the service
/// succeeded (which verification would also report).
pub fn replay(plan: &Plan, rec: &mut Recorder, dir: &Path) -> Result<ReplayStats, String> {
    let store =
        DesignStore::open(dir.join("replay-store")).map_err(|e| format!("replay store: {e}"))?;
    let mut r = Replayer {
        plan,
        rec,
        warm: ContextCache::new(plan.designs.len().max(1)),
        store: Arc::new(store),
        stats: ReplayStats::default(),
    };
    let mut units = plan.shape.replay_units;
    if let Some(steps) = plan.traces.first() {
        r.session(0, units.min(steps.len()))?;
        return Ok(r.stats);
    }
    if plan.workload == Workload::AnalyzeClosed {
        // A sweep is one request per design: replay as many requests as
        // the query workloads do.
        units = units.div_ceil(plan.designs.len());
    }
    for i in 0..units {
        let client = i % 2;
        let spec = plan.unit(client, REPLAY_OFFSET + (i / 2) as u64);
        r.unit(REPLAY_TRACE | i as u64, spec)?;
    }
    Ok(r.stats)
}

impl Replayer<'_> {
    fn unit(&mut self, trace: u64, spec: UnitSpec) -> Result<(), String> {
        let root = self.rec.id();
        let start = Instant::now();
        match spec {
            UnitSpec::Query { design, analyze } => self.query(trace, root, design, analyze)?,
            UnitSpec::Sweep { draw } => {
                let mut part = 0;
                while let Some((design, analyze)) = self.plan.sweep_part(draw, part) {
                    self.query(trace, root, design, Some(analyze))?;
                    part += 1;
                }
            }
            UnitSpec::Job { design } => {
                let embed = self.request(trace, root, &self.plan.job_request(design, 0, None))?;
                let schedule = match embed.field("schedule") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err("replayed embed has no schedule".to_owned()),
                };
                for part in 1..4 {
                    let req = self.plan.job_request(design, part, Some(&schedule));
                    self.request(trace, root, &req)?;
                }
                let layers = self.layers_open(trace, design)?;
                let ctx = self.ctx(design)?;
                let (author, rival) = authors(self.plan.seed, design);
                let wm = SchedulingWatermarker::new(SchedWmConfig::default());
                let par = Parallelism::Serial;
                self.rec
                    .time(trace, Some(layers.0), "core.embed", || {
                        wm.embed_in(&ctx, &Signature::from_author(&author), par)
                    })
                    .map_err(|e| e.to_string())?;
                for who in [&author, &rival] {
                    self.rec
                        .time(trace, Some(layers.0), "core.detect", || {
                            let s = parse_schedule(ctx.graph(), &schedule)?;
                            wm.detect_in(&s, &ctx, &Signature::from_author(who), par)
                                .map_err(|e| e.to_string())
                        })
                        .map(|_| ())?;
                }
                let cfg = StrengthConfig {
                    budgets: STRENGTH_BUDGETS
                        .split(',')
                        .map(|b| b.parse().expect("budget list parses"))
                        .collect(),
                    seed: 0,
                    wm: SchedWmConfig::default(),
                };
                self.rec
                    .time(trace, Some(layers.0), "attack.strength", || {
                        strength_report_in(&ctx, &Signature::from_author(&author), par, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                self.layers_close(trace, root, layers);
            }
            UnitSpec::Step { .. } => unreachable!("sessions replay through Replayer::session"),
        }
        self.rec
            .push(trace, root, None, "unit", start, Instant::now());
        Ok(())
    }

    /// A `timing` or `analyze` query, then its layers.
    fn query(
        &mut self,
        trace: u64,
        root: u64,
        design: usize,
        analyze: Option<(usize, u64)>,
    ) -> Result<(), String> {
        self.request(trace, root, &self.plan.query(design, analyze))?;
        let layers = self.layers_open(trace, design)?;
        if let Some((samples, seed)) = analyze {
            let ctx = self.ctx(design)?;
            let model = KindBounds::uniform(1, 3);
            self.rec
                .time(trace, Some(layers.0), "timing.criticality", || {
                    criticality_in(&ctx, &model, samples, seed, Parallelism::Serial)
                });
            self.stats.criticality_samples += samples as u64;
        }
        self.layers_close(trace, root, layers);
        Ok(())
    }

    /// One request as a worker serves it: decode, handle, encode.
    fn request(&mut self, trace: u64, parent: u64, req: &Request) -> Result<Value, String> {
        let line = req.to_line();
        self.stats.request_bytes.push(line.len() as f64);
        let decoded = self.rec.time(trace, Some(parent), "protocol.decode", || {
            Request::from_line(&line)
        })?;
        let warm = &self.warm;
        let value = self
            .rec
            .time(trace, Some(parent), "serve.handler", || {
                execute(warm, &decoded)
            })
            .map_err(|e| format!("replayed {}: {e}", req.kind))?;
        let resp = Response::success(Some(0), req.kind.as_str(), value);
        let mut out = String::new();
        self.rec.time(trace, Some(parent), "protocol.encode", || {
            resp.write_json(&mut out)
        });
        self.stats.response_bytes.push(out.len() as f64 + 1.0);
        Ok(resp.result.expect("success carries a result"))
    }

    fn ctx(&self, design: usize) -> Result<Arc<DesignContext>, String> {
        self.warm.get_or_parse(&self.plan.designs[design])
    }

    /// Opens the `layers` span of a unit and times the lookup, rehydrate
    /// and cold-build paths of its design under it.
    fn layers_open(&mut self, trace: u64, design: usize) -> Result<(u64, Instant), String> {
        let layers = (self.rec.id(), Instant::now());
        let text = &self.plan.designs[design];
        let warm = &self.warm;
        self.rec.time(trace, Some(layers.0), "cache.lookup", || {
            warm.get_or_parse(text)
        })?;
        // A one-design cache over the shared store: the memory tier misses,
        // the store answers (after the first time, which writes through).
        let store = &self.store;
        ContextCache::with_store(1, Arc::clone(store)).get_or_parse(text)?;
        self.rec
            .time(trace, Some(layers.0), "store.rehydrate", || {
                ContextCache::with_store(1, Arc::clone(store)).get_or_parse(text)
            })?;
        let miss = self.rec.id();
        let miss_start = Instant::now();
        let graph = self
            .rec
            .time(trace, Some(miss), "cdfg.parse", || parse_cdfg(text))
            .map_err(|e| e.to_string())?;
        let ctx = self.rec.time(trace, Some(miss), "engine.build", || {
            let ctx = DesignContext::new(graph);
            let model = KindBounds::uniform(1, 3);
            let _ = ctx.windows(ctx.critical_path());
            ctx.bounded_critical_path(&model);
            ctx.possibly_critical_shared(&model);
            ctx
        });
        self.rec.time(trace, Some(miss), "engine.content_hash", || {
            ctx.content_hash()
        });
        self.rec.push(
            trace,
            miss,
            Some(layers.0),
            "cache.miss",
            miss_start,
            Instant::now(),
        );
        Ok(layers)
    }

    fn layers_close(&mut self, trace: u64, root: u64, (id, start): (u64, Instant)) {
        self.rec
            .push(trace, id, Some(root), "layers", start, Instant::now());
    }

    /// Replays the first `steps` steps of `client`'s trace through one
    /// held session, as the server runs them inline.
    fn session(&mut self, client: usize, steps: usize) -> Result<(), String> {
        let session = session_id(client);
        let mut state =
            SessionState::open(&self.plan.designs[client]).map_err(|e| e.to_string())?;
        for step in 0..steps {
            let trace = REPLAY_TRACE | step as u64;
            let root = self.rec.id();
            let start = Instant::now();
            let req = self.plan.step_request(client, step);
            let line = req.to_line();
            self.stats.request_bytes.push(line.len() as f64);
            let decoded = self.rec.time(trace, Some(root), "protocol.decode", || {
                Request::from_line(&line)
            })?;
            let (name, result) = match decoded.kind {
                RequestKind::Mutate => {
                    let edits = decoded.edits.as_deref().unwrap_or_default();
                    let r = self
                        .rec
                        .time(trace, Some(root), "serve.session.mutate", || {
                            state.mutate(&session, edits)
                        });
                    ("mutate", r)
                }
                RequestKind::Analyze => {
                    let r = self
                        .rec
                        .time(trace, Some(root), "timing.session_analyze", || {
                            state.analyze(&decoded, Parallelism::Serial)
                        });
                    ("analyze", r)
                }
                _ => {
                    let r = self
                        .rec
                        .time(trace, Some(root), "serve.session.timing", || {
                            state.timing(&decoded)
                        });
                    ("timing", r)
                }
            };
            let value = result.map_err(|e| format!("replayed session {name}: {e}"))?;
            let resp = Response::success(Some(step as u64), name, value);
            let mut out = String::new();
            self.rec.time(trace, Some(root), "protocol.encode", || {
                resp.write_json(&mut out)
            });
            self.stats.response_bytes.push(out.len() as f64 + 1.0);
            self.rec
                .push(trace, root, None, "unit", start, Instant::now());
        }
        Ok(())
    }
}

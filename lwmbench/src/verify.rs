//! Reference answers computed in-process — through
//! `localwm_serve::handlers::execute`, or
//! `localwm_testkit::trace::replay_incremental` for sessions — and the
//! comparison of every phase's answers against them.
//!
//! `timing` answers and session steps are all compared; `analyze`,
//! `embed`, `detect` and `strength` answers of the seeded 1-in-8 unit
//! sample are. A compared answer must reproduce the reference bytes after
//! the `id` field exactly (as FNV-1a digests), typed errors included; an
//! answer that is not compared fails when it is a typed error.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use localwm_gateway::rendezvous::fnv1a;
use localwm_serve::handlers::execute;
use localwm_serve::{ContextCache, RequestKind, Response, ServiceError};
use localwm_testkit::trace::replay_incremental;
use serde::Value;

use crate::drive::{strip_id, ConnOutcome};
use crate::workload::{session_id, Plan, UnitSpec};

/// What a reference answer is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// A stateless query on a design.
    Query(usize, Option<(usize, u64)>),
    /// Request `part` of the watermark job on a design.
    Job(usize, u8),
    /// Trace step of a client.
    Step(usize, usize),
}

/// The reference key of the answer to request `part` (of `kind`) of unit
/// `unit`, or `None` when that answer is not compared.
pub fn key_of(
    plan: &Plan,
    client: usize,
    unit: u64,
    spec: UnitSpec,
    part: u8,
    kind: RequestKind,
) -> Option<Key> {
    match spec {
        UnitSpec::Query { design, analyze } => {
            (analyze.is_none() || plan.sampled(client, unit)).then_some(Key::Query(design, analyze))
        }
        UnitSpec::Sweep { draw } => {
            let (design, analyze) = plan.sweep_part(draw, part.into())?;
            plan.sampled(client, unit)
                .then_some(Key::Query(design, Some(analyze)))
        }
        UnitSpec::Job { design } => plan.sampled(client, unit).then_some(Key::Job(design, part)),
        UnitSpec::Step { step } => (!matches!(kind, RequestKind::Open | RequestKind::Close))
            .then_some(Key::Step(client, step)),
    }
}

/// Answers folded by (key, digest): the first unit that answered so and
/// how many did. Correct answers to one key share one digest, so this
/// stays as small as the set of keys however long the run.
#[derive(Debug, Default)]
pub struct Answers(HashMap<(Key, u64), (u64, u64)>);

impl Answers {
    /// Records that `unit` answered `key` with `digest`.
    pub fn add(&mut self, key: Key, digest: u64, unit: u64) {
        self.0.entry((key, digest)).or_insert((unit, 0)).1 += 1;
    }
}

/// Reference jobs; one may yield several keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Work {
    Query(usize, Option<(usize, u64)>),
    Job(usize),
    Trace(usize),
}

fn work_of(key: Key) -> Work {
    match key {
        Key::Query(d, a) => Work::Query(d, a),
        Key::Job(d, _) => Work::Job(d),
        Key::Step(c, _) => Work::Trace(c),
    }
}

/// Digest of a reference answer's bytes after where the id would be.
fn digest_of(kind: RequestKind, result: Result<Value, ServiceError>) -> u64 {
    let resp = match result {
        Ok(v) => Response::success(None, kind.as_str(), v),
        Err(e) => Response::failure(None, kind.as_str(), e),
    };
    fnv1a(&resp.to_line().as_bytes()[1..])
}

fn compute(plan: &Plan, cache: &ContextCache, work: Work) -> Vec<(Key, u64)> {
    match work {
        Work::Query(design, analyze) => {
            let req = plan.query(design, analyze);
            vec![(
                Key::Query(design, analyze),
                digest_of(req.kind, execute(cache, &req)),
            )]
        }
        Work::Job(design) => {
            let embed = plan.job_request(design, 0, None);
            let answer = execute(cache, &embed);
            let schedule = match &answer {
                Ok(v) => match v.field("schedule") {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                },
                Err(_) => None,
            };
            let mut out = vec![(Key::Job(design, 0), digest_of(embed.kind, answer))];
            for part in 1..4u8 {
                let req = plan.job_request(design, part.into(), schedule.as_deref());
                out.push((
                    Key::Job(design, part),
                    digest_of(req.kind, execute(cache, &req)),
                ));
            }
            out
        }
        Work::Trace(client) => {
            let session = session_id(client);
            let lines = replay_incremental(&plan.designs[client], &plan.traces[client], &session)
                .expect("generated designs parse");
            lines
                .iter()
                .enumerate()
                .map(|(step, line)| {
                    let rest = strip_id(line).map_or(line.as_str(), |(_, rest)| rest);
                    (Key::Step(client, step), fnv1a(rest.as_bytes()))
                })
                .collect()
        }
    }
}

/// The outcome of checking a run's answers.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared with a reference.
    pub compared: u64,
    /// Failed units; a unit with two wrong answers counts twice.
    pub failed: u64,
    /// Why, keyed by (client, unit) of the first unit that failed so.
    pub reasons: BTreeMap<(usize, u64), String>,
}

/// Checks every answer of `phases` against in-process references,
/// computed on `threads` threads.
pub fn verify(plan: &Plan, phases: &[&[ConnOutcome]], threads: usize) -> Verdict {
    let mut verdict = Verdict::default();
    let mut needed: Vec<Work> = Vec::new();
    let mut seen = HashSet::new();
    for conn in phases.iter().flat_map(|p| p.iter()) {
        for (unit, why) in &conn.failures {
            if verdict
                .reasons
                .insert((conn.client, *unit), why.clone())
                .is_none()
            {
                verdict.failed += 1;
            }
        }
        for (key, _) in conn.answers.0.keys() {
            if seen.insert(work_of(*key)) {
                needed.push(work_of(*key));
            }
        }
    }

    let next = AtomicUsize::new(0);
    let refs: Mutex<HashMap<Key, u64>> = Mutex::new(HashMap::new());
    let cache = ContextCache::new(plan.designs.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&work) = needed.get(i) else { break };
                let got = compute(plan, &cache, work);
                refs.lock().expect("reference map lock").extend(got);
            });
        }
    });
    let mut refs = refs.into_inner().expect("reference map lock");
    if plan.shape.corrupt_reference {
        if let Some(want) = refs.values_mut().next() {
            *want ^= 1;
        }
    }

    for conn in phases.iter().flat_map(|p| p.iter()) {
        for (&(key, digest), &(unit, count)) in &conn.answers.0 {
            verdict.compared += count;
            if refs[&key] != digest {
                verdict.failed += count;
                verdict
                    .reasons
                    .entry((conn.client, unit))
                    .or_insert_with(|| format!("wrong answer to {key:?} ({count} times)"));
            }
        }
    }
    verdict
}

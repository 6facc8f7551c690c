//! The load generator: [`LOAD_CONNECTIONS`] connections, each owned by one
//! thread, driving units open-loop on a fixed schedule or closed-loop with
//! a window of units in flight.
//!
//! Every response is checked as it arrives: it must carry the id of the
//! oldest request in flight on its connection (the protocol answers in
//! order), it is decoded as a client would, and the digest of its bytes
//! after the id is folded into [`Answers`] for the reference comparison
//! after the phase.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use localwm_gateway::rendezvous::fnv1a;
use localwm_serve::{Request, RequestKind, Response};
use serde::Value;

use crate::harness::{ms, Schedule};
use crate::spans::{Recorder, Span};
use crate::verify::{key_of, Answers};
use crate::wire::Wire;
use crate::workload::{Plan, UnitSpec, LOAD_CONNECTIONS};

/// How a phase paces its units.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Units due on a fixed schedule: `rate` per second over all
    /// connections, `count` per connection.
    Open {
        /// Units per second, all connections together.
        rate: f64,
        /// Units per connection.
        count: u64,
    },
    /// Each connection keeps `window` units in flight and starts new ones
    /// for `seconds`, and in any case until it started `min_units`.
    Closed {
        /// Units in flight per connection.
        window: usize,
        /// Phase length.
        seconds: f64,
        /// Units each connection starts at least.
        min_units: u64,
    },
}

/// Unit `n` of client `c` is `source(c, n)`.
pub type Source<'a> = &'a (dyn Fn(usize, u64) -> UnitSpec + Sync);

/// What one connection measured in one phase.
pub struct ConnOutcome {
    /// Client (connection) index.
    pub client: usize,
    /// Per completed unit: when it completed (s after the phase start)
    /// and its latency (ms, from the due time when open-loop, else from
    /// its first send, to its last response). Single precision keeps the
    /// benchmark's own memory small beside the servers' in the same
    /// process.
    pub units: Vec<(f32, f32)>,
    /// Open loop: how late each send went out, ms.
    pub lateness: Vec<f64>,
    /// The answers to compare with references.
    pub answers: Answers,
    /// Responses that carried a typed error.
    pub typed_errors: u64,
    /// Units started.
    pub attempted: u64,
    /// Units that failed online (transport, a job's detect outcome), with
    /// the reason.
    pub failures: Vec<(u64, String)>,
    /// Phase start.
    pub start: Instant,
    /// First unit index this client has not used.
    pub next_unit: u64,
    /// Client spans (traced phases only).
    pub spans: Vec<Span>,
}

/// Runs one phase on fresh connections to `target`; client `c` starts at
/// unit `first[c]`. With `epoch`, client calls are recorded as spans.
///
/// # Errors
///
/// Fails when a load thread cannot raise its priority (see
/// [`crate::wire::prioritize_this_thread`]) or a load connection cannot be
/// opened.
pub fn run_phase(
    plan: &Plan,
    target: &str,
    pace: Pace,
    first: &[u64],
    source: Source<'_>,
    epoch: Option<Instant>,
) -> Result<Vec<ConnOutcome>, String> {
    // Both connections are open before the common start instant.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..LOAD_CONNECTIONS)
            .map(|client| {
                s.spawn(move || {
                    crate::wire::prioritize_this_thread()?;
                    let wire =
                        Wire::connect(target).map_err(|e| format!("connect {target}: {e}"))?;
                    let mut d = LoadConn {
                        plan,
                        client,
                        wire,
                        source,
                        rec: epoch.map(|e| Recorder::new(e, client as u64 + 1)),
                        next_id: 0,
                        inflight: VecDeque::new(),
                        schedule: None,
                        out: ConnOutcome {
                            client,
                            units: Vec::new(),
                            lateness: Vec::new(),
                            answers: Answers::default(),
                            typed_errors: 0,
                            attempted: 0,
                            failures: Vec::new(),
                            start,
                            next_unit: first[client],
                            spans: Vec::new(),
                        },
                    };
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let result = match pace {
                        Pace::Open { rate, count } => d.open(rate, count),
                        Pace::Closed {
                            window,
                            seconds,
                            min_units,
                        } => d.closed(window, seconds, min_units),
                    };
                    if let Err(e) = result {
                        for f in std::mem::take(&mut d.inflight) {
                            d.out.failures.push((f.unit, e.clone()));
                        }
                    }
                    d.out.spans = d.rec.map(|r| r.spans).unwrap_or_default();
                    Ok(d.out)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    })
}

/// Splits a response line into its `id` and the bytes after the id field
/// (`"kind":…}`), which a reference answer must reproduce exactly.
pub fn strip_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    Some((rest[..comma].parse().ok()?, &rest[comma + 1..]))
}

struct InFlight {
    unit: u64,
    part: u8,
    spec: UnitSpec,
    kind: RequestKind,
    id: u64,
    /// Due time (open loop) or first send (closed loop) of the unit.
    unit_start: Instant,
    sent: Instant,
    /// Span ids and request start, when tracing.
    unit_span: u64,
    req_span: u64,
    req_start: Instant,
}

/// A unit claimed, with its first request encoded.
struct Prepared {
    n: u64,
    spec: UnitSpec,
    enc: Encoded,
    unit_span: u64,
}

/// A request encoded and ready to send.
struct Encoded {
    bytes: Vec<u8>,
    id: u64,
    kind: RequestKind,
    span: u64,
    start: Instant,
}

struct LoadConn<'a> {
    plan: &'a Plan,
    client: usize,
    wire: Wire,
    source: Source<'a>,
    rec: Option<Recorder>,
    next_id: u64,
    inflight: VecDeque<InFlight>,
    /// The schedule the current watermark job's embed answered with.
    schedule: Option<String>,
    out: ConnOutcome,
}

impl LoadConn<'_> {
    fn trace_id(&self, unit: u64) -> u64 {
        ((self.client as u64 + 1) << 40) | unit
    }

    fn encode(&mut self, mut req: Request, unit: u64) -> Encoded {
        let id = self.next_id;
        self.next_id += 1;
        req.id = Some(id);
        let kind = req.kind;
        let trace = self.trace_id(unit);
        let start = Instant::now();
        let mut line = String::new();
        let span = match &mut self.rec {
            Some(rec) => {
                let span = rec.id();
                rec.time(trace, Some(span), "client.encode", || {
                    req.write_json(&mut line)
                });
                span
            }
            None => {
                req.write_json(&mut line);
                0
            }
        };
        line.push('\n');
        Encoded {
            bytes: line.into_bytes(),
            id,
            kind,
            span,
            start,
        }
    }

    fn send(
        &mut self,
        enc: Encoded,
        unit: u64,
        part: u8,
        spec: UnitSpec,
        unit_start: Option<Instant>,
        unit_span: u64,
    ) -> Result<Instant, String> {
        // In flight before the write, so a failed write fails the unit.
        let now = Instant::now();
        self.inflight.push_back(InFlight {
            unit,
            part,
            spec,
            kind: enc.kind,
            id: enc.id,
            unit_start: unit_start.unwrap_or(now),
            sent: now,
            unit_span,
            req_span: enc.span,
            req_start: enc.start,
        });
        self.wire
            .send(&enc.bytes)
            .map_err(|e| format!("send: {e}"))?;
        let sent = Instant::now();
        let f = self.inflight.back_mut().expect("pushed above");
        f.sent = sent;
        if unit_start.is_none() {
            f.unit_start = sent;
        }
        Ok(sent)
    }

    /// Claims the next unit and encodes its first request.
    fn prepare_unit(&mut self) -> Result<Prepared, String> {
        let n = self.out.next_unit;
        self.out.next_unit += 1;
        let spec = (self.source)(self.client, n);
        let unit_span = self.rec.as_mut().map_or(0, Recorder::id);
        let req = self
            .request(n, spec, 0, None)?
            .expect("every unit has a request");
        Ok(Prepared {
            n,
            spec,
            enc: self.encode(req, n),
            unit_span,
        })
    }

    /// Sends a prepared unit's first request; `due` is its open-loop due
    /// time. Returns when the request left.
    fn start_unit(&mut self, p: Prepared, due: Option<Instant>) -> Result<Instant, String> {
        self.out.attempted += 1;
        self.send(p.enc, p.n, 0, p.spec, due, p.unit_span)
    }

    fn open(&mut self, rate: f64, count: u64) -> Result<(), String> {
        let period = Duration::from_secs_f64(LOAD_CONNECTIONS as f64 / rate);
        let schedule = Schedule {
            start: self.out.start,
            period,
            offset: period.mul_f64(self.client as f64 / LOAD_CONNECTIONS as f64),
        };
        // Each request is encoded as soon as the previous one left, so at
        // its due time only the write remains.
        let mut next: Option<Prepared> = None;
        let mut i = 0;
        loop {
            if i < count {
                let prepared = match next.take() {
                    Some(p) => p,
                    None => self.prepare_unit()?,
                };
                let due = schedule.due(i);
                if Instant::now() >= due {
                    let sent = self.start_unit(prepared, Some(due))?;
                    self.out.lateness.push(ms(schedule.lateness(i, sent)));
                    i += 1;
                    continue;
                }
                next = Some(prepared);
                if let Some(line) = self
                    .wire
                    .recv(Some(due))
                    .map_err(|e| format!("recv: {e}"))?
                {
                    self.on_line(&line)?;
                }
            } else if self.inflight.is_empty() {
                return Ok(());
            } else {
                let line = self.wire.recv(None).map_err(|e| format!("recv: {e}"))?;
                self.on_line(&line.expect("blocking recv returns a line"))?;
            }
        }
    }

    fn closed(&mut self, window: usize, seconds: f64, min_units: u64) -> Result<(), String> {
        let until = self.out.start + Duration::from_secs_f64(seconds);
        // A phase that cannot reach its minimum within a minute past its
        // length stops anyway; its percentiles then refuse to report.
        let cap = until + Duration::from_secs(60);
        loop {
            while self.inflight.len() < window {
                let now = Instant::now();
                if !(now < until || self.out.attempted < min_units) || now >= cap {
                    break;
                }
                let prepared = self.prepare_unit()?;
                self.start_unit(prepared, None)?;
            }
            let Some(_) = self.inflight.front() else {
                return Ok(());
            };
            let line = self.wire.recv(None).map_err(|e| format!("recv: {e}"))?;
            self.on_line(&line.expect("blocking recv returns a line"))?;
        }
    }

    /// Handles one response line.
    fn on_line(&mut self, line: &str) -> Result<(), String> {
        let done = Instant::now();
        let f = self
            .inflight
            .pop_front()
            .ok_or("a response arrived with no request in flight")?;
        let trace = self.trace_id(f.unit);
        let rest = match strip_id(line) {
            Some((id, rest)) if id == f.id => rest,
            _ => {
                self.inflight.push_front(f);
                return Err(format!(
                    "response out of order or without its id: {line:.120}"
                ));
            }
        };
        let digest = fnv1a(rest.as_bytes());
        let resp = match &mut self.rec {
            Some(rec) => {
                let rtt = rec.id();
                rec.push(trace, rtt, Some(f.req_span), "client.rtt", f.sent, done);
                rec.time(trace, Some(f.req_span), "client.decode", || {
                    Response::from_line(line)
                })
            }
            None => Response::from_line(line),
        };
        let resp = resp.map_err(|e| format!("undecodable response: {e}"))?;
        if let Some(rec) = &mut self.rec {
            rec.push(
                trace,
                f.req_span,
                Some(f.unit_span),
                "client.request",
                f.req_start,
                Instant::now(),
            );
        }
        let error = resp.error.as_ref().map(|e| e.code);
        self.out.typed_errors += u64::from(error.is_some());
        match key_of(self.plan, self.client, f.unit, f.spec, f.part, f.kind) {
            Some(key) => self.out.answers.add(key, digest, f.unit),
            None => {
                if let Some(code) = error {
                    let why = format!("{} answered {}", f.kind, code.as_str());
                    self.out.failures.push((f.unit, why));
                }
            }
        }
        // A typed error ends the unit; verification decides whether the
        // reference produces the same error.
        let next = if resp.ok {
            self.request(f.unit, f.spec, f.part + 1, Some(&resp))
        } else {
            Ok(None)
        };
        match next {
            Ok(Some(req)) => {
                let enc = self.encode(req, f.unit);
                self.send(
                    enc,
                    f.unit,
                    f.part + 1,
                    f.spec,
                    Some(f.unit_start),
                    f.unit_span,
                )?;
                return Ok(());
            }
            Ok(None) => {}
            Err(why) => self.out.failures.push((f.unit, why)),
        }
        let end = Instant::now();
        self.out.units.push((
            done.saturating_duration_since(self.out.start).as_secs_f32(),
            ms(done.saturating_duration_since(f.unit_start)) as f32,
        ));
        if let Some(rec) = &mut self.rec {
            rec.push(
                trace,
                f.unit_span,
                None,
                "client.unit",
                f.unit_start.min(f.req_start),
                end,
            );
        }
        Ok(())
    }

    /// Request `part` of unit `n`, or `None` when the unit is complete;
    /// `prev` is the response to part `part − 1`.
    fn request(
        &mut self,
        n: u64,
        spec: UnitSpec,
        part: u8,
        prev: Option<&Response>,
    ) -> Result<Option<Request>, String> {
        let plan = self.plan;
        Ok(match spec {
            UnitSpec::Query { design, analyze } => (part == 0).then(|| plan.query(design, analyze)),
            UnitSpec::Sweep { draw } => plan
                .sweep_part(draw, part.into())
                .map(|(design, analyze)| plan.query(design, Some(analyze))),
            UnitSpec::Job { design } => {
                match part {
                    0 => {}
                    1 => match prev.and_then(|r| r.result_field("schedule")) {
                        Some(Value::Str(s)) => self.schedule = Some(s.clone()),
                        _ => return Err("embed answered without a schedule".to_owned()),
                    },
                    // Detect as the author must match, as the rival must not.
                    2 | 3 => {
                        let want = part == 2;
                        if prev.and_then(|r| r.result_field("match")) != Some(&Value::Bool(want)) {
                            return Err(format!(
                                "detect as the {} did not answer match={want}",
                                if want { "author" } else { "rival" }
                            ));
                        }
                    }
                    _ => return Ok(None),
                }
                Some(plan.job_request(design, part.into(), self.schedule.as_deref()))
            }
            UnitSpec::Step { step } => {
                // Step 0 of a trace (re)opens the session; the steps then
                // run against the held design.
                let mut parts = Vec::with_capacity(3);
                if step == 0 {
                    if n > 0 {
                        parts.push(Some(RequestKind::Close));
                    }
                    parts.push(Some(RequestKind::Open));
                }
                parts.push(None);
                match parts.get(usize::from(part)) {
                    Some(Some(kind)) => Some(plan.session_request(self.client, *kind)),
                    Some(None) => Some(plan.step_request(self.client, step)),
                    None => None,
                }
            }
        })
    }
}

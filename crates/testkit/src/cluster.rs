//! The cluster harness: a gateway plus N live backends, in-process.
//!
//! Three instruments, mirroring the single-backend testkit:
//!
//! * [`ClusterHarness`] — starts N `localwm-serve` backends and a
//!   `localwm-gateway` over them on loopback sockets, with stable backend
//!   names (`b0`, `b1`, …) so rendezvous routing is deterministic across
//!   runs regardless of the ephemeral ports. Backends can be killed and
//!   restarted (on a fresh port) mid-run.
//! * The **gateway differential lane** ([`gateway_lines`] /
//!   [`run_gateway_differential`]) — the full corpus request stream runs
//!   through a gateway-fronted cluster, and every lane must produce
//!   response lines byte-identical to the in-process reference, typed
//!   errors included.
//! * The **golden gateway transcript** ([`check_transcript`] /
//!   [`bless_transcript`]) — the deterministic routing trace (shard key,
//!   chosen backend, attempts, failovers) of the corpus stream over a
//!   2-backend cluster, committed at `corpus/gateway/transcript.json` and
//!   drift-checked like the response goldens.
//! * **Gateway chaos** ([`run_gateway_chaos`]) — a seeded backend
//!   kill/restart schedule replayed against a live cluster; the invariant
//!   is *zero silent drops*: every accepted request gets exactly one
//!   response or one typed error. Same seed ⇒ same schedule, same routing
//!   trace, same report (no wall-clock quantities).
//!
//! Gateway chaos needs no `fault-inject` feature: the faults are real
//! process-level backend deaths, not injected seams.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

use localwm_gateway::{BackendSpec, GatewayConfig, GatewayHandle, RouteRecord};
use localwm_serve::fault::SplitMix64;
use localwm_serve::{Client, Request, Response, ServeConfig, ServerHandle};
use serde::{Serialize, Value};

use crate::corpus::{self, Drift};
use crate::oracle::{inproc_lines, DifferentialReport, Mismatch};
use crate::stream::{seeded_stream, StreamSpec};

/// Knobs for a [`ClusterHarness`]. Deterministic by construction: backend
/// names are fixed, probing is off, and backoff sleeps are zero so retry
/// counts depend only on routing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of backends (`b0` … `b{n-1}`).
    pub backends: usize,
    /// Gateway replica-group size per shard.
    pub replicas: usize,
    /// Worker threads per backend (keep at 1 for exact accounting).
    pub workers: usize,
    /// Same-backend retries after a failed attempt.
    pub max_retries: u32,
    /// Client/gateway read timeout.
    pub recv_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            backends: 2,
            replicas: 2,
            workers: 1,
            max_retries: 1,
            recv_timeout: Duration::from_secs(10),
        }
    }
}

/// A gateway plus its backend fleet, all in-process on loopback sockets.
pub struct ClusterHarness {
    cfg: ClusterConfig,
    backends: Vec<Option<ServerHandle>>,
    gateway: Option<GatewayHandle>,
}

impl ClusterHarness {
    /// Starts `cfg.backends` backends and a gateway routing over them.
    ///
    /// # Errors
    ///
    /// Returns a message on bind failures.
    pub fn start(cfg: ClusterConfig) -> Result<Self, String> {
        let mut backends = Vec::with_capacity(cfg.backends);
        let mut specs = Vec::with_capacity(cfg.backends);
        for i in 0..cfg.backends {
            let handle = start_backend(cfg.workers)?;
            specs.push(BackendSpec {
                name: format!("b{i}"),
                addr: handle.addr().to_string(),
            });
            backends.push(Some(handle));
        }
        let gateway = localwm_gateway::start(GatewayConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: specs,
            replicas: cfg.replicas,
            max_retries: cfg.max_retries,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            recv_timeout_ms: u64::try_from(cfg.recv_timeout.as_millis()).unwrap_or(10_000),
            health_interval_ms: None,
            record_routes: true,
        })
        .map_err(|e| format!("start gateway: {e}"))?;
        Ok(ClusterHarness {
            cfg,
            backends,
            gateway: Some(gateway),
        })
    }

    fn gateway(&self) -> &GatewayHandle {
        self.gateway.as_ref().expect("gateway running")
    }

    /// The gateway's bound address.
    pub fn gateway_addr(&self) -> String {
        self.gateway().addr().to_string()
    }

    /// A fresh client connected to the gateway, read timeout applied.
    ///
    /// # Errors
    ///
    /// Returns a message on connect failures.
    pub fn client(&self) -> Result<Client, String> {
        let c = Client::connect_within(&self.gateway_addr(), Duration::from_secs(5))
            .map_err(|e| format!("connect gateway: {e}"))?;
        c.set_read_timeout(Some(self.cfg.recv_timeout))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(c)
    }

    /// Kills backend `i` with a drained shutdown (its queued work
    /// completes first, like a polite process death). The gateway keeps
    /// the dead entry and fails over per its state machine.
    ///
    /// # Errors
    ///
    /// Returns a message if the backend is already dead.
    pub fn kill_backend(&mut self, i: usize) -> Result<(), String> {
        match self.backends.get_mut(i).and_then(Option::take) {
            Some(handle) => {
                handle.shutdown();
                Ok(())
            }
            None => Err(format!("backend b{i} is not running")),
        }
    }

    /// Restarts backend `i` as a fresh process image on a new port and
    /// repoints the gateway's `b{i}` entry. The shard identity (the name)
    /// is unchanged, so routing assignments do not move.
    ///
    /// # Errors
    ///
    /// Returns a message if the backend is still running or won't bind.
    pub fn restart_backend(&mut self, i: usize) -> Result<(), String> {
        let slot = self
            .backends
            .get_mut(i)
            .ok_or_else(|| format!("no backend b{i}"))?;
        if slot.is_some() {
            return Err(format!("backend b{i} is still running"));
        }
        let handle = start_backend(self.cfg.workers)?;
        let addr = handle.addr().to_string();
        *slot = Some(handle);
        if !self.gateway().update_backend_addr(&format!("b{i}"), &addr) {
            return Err(format!("gateway does not know backend b{i}"));
        }
        Ok(())
    }

    /// The gateway's recorded routing trace so far.
    pub fn routing_trace(&self) -> Vec<RouteRecord> {
        self.gateway().routing_trace()
    }

    /// Shuts the gateway down first, then every still-running backend.
    pub fn shutdown(mut self) {
        if let Some(gw) = self.gateway.take() {
            gw.shutdown();
        }
        for b in self.backends.iter_mut().filter_map(Option::take) {
            b.shutdown();
        }
    }
}

fn start_backend(workers: usize) -> Result<ServerHandle, String> {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 64,
        cache_cap: 8,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .map_err(|e| format!("start backend: {e}"))
}

/// Runs `requests` through a gateway-fronted cluster over one sequential
/// connection, returning the raw response lines.
///
/// # Errors
///
/// Returns a message on socket failures.
pub fn gateway_lines(requests: &[Request], cfg: ClusterConfig) -> Result<Vec<String>, String> {
    let harness = ClusterHarness::start(cfg)?;
    let mut client = harness.client()?;
    let mut lines = Vec::with_capacity(requests.len());
    for req in requests {
        client.send(req).map_err(|e| format!("send: {e}"))?;
        lines.push(client.recv_line().map_err(|e| format!("recv: {e}"))?);
    }
    harness.shutdown();
    Ok(lines)
}

/// The gateway differential oracle: `requests` through clusters of each
/// size in `backend_counts` must match the in-process serial reference
/// byte for byte — a gateway in front of N backends is observationally a
/// single backend.
///
/// # Errors
///
/// Returns a message if a cluster lane cannot run at all (byte
/// disagreements land in the report, not the error).
pub fn run_gateway_differential(
    requests: &[Request],
    backend_counts: &[usize],
) -> Result<DifferentialReport, String> {
    let reference = inproc_lines(requests, 8, localwm_engine::Parallelism::Serial);
    let mut lanes: Vec<(String, Vec<String>)> = Vec::new();
    for &n in backend_counts {
        let cfg = ClusterConfig {
            backends: n,
            replicas: n.min(2),
            ..ClusterConfig::default()
        };
        lanes.push((format!("gateway-{n}"), gateway_lines(requests, cfg)?));
    }
    let mut mismatches = Vec::new();
    for (lane, lines) in &lanes {
        for (i, (want, got)) in reference.iter().zip(lines).enumerate() {
            if want != got {
                mismatches.push(Mismatch {
                    lane: lane.clone(),
                    index: i,
                    id: requests[i].id,
                    want: want.clone(),
                    got: got.clone(),
                });
            }
        }
        if lines.len() != reference.len() {
            mismatches.push(Mismatch {
                lane: lane.clone(),
                index: reference.len().min(lines.len()),
                id: None,
                want: format!("{} lines", reference.len()),
                got: format!("{} lines", lines.len()),
            });
        }
    }
    let mut names = vec!["inproc-serial".to_owned()];
    names.extend(lanes.iter().map(|(n, _)| n.clone()));
    Ok(DifferentialReport {
        lanes: names,
        requests: requests.len(),
        error_responses: reference
            .iter()
            .filter(|l| l.contains("\"ok\":false"))
            .count(),
        mismatches,
    })
}

// ---- Golden gateway transcript ----

/// Computes the golden routing transcript: the corpus request stream over
/// a fresh 2-backend cluster, as a JSON object. Deterministic because
/// shard keys are content hashes and rendezvous ranks backend *names*.
///
/// # Errors
///
/// Returns a message on socket failures.
pub fn transcript_value() -> Result<Value, String> {
    let cfg = ClusterConfig::default();
    let harness = ClusterHarness::start(cfg)?;
    let requests = corpus::corpus_requests(&corpus::builtin_cases());
    let mut client = harness.client()?;
    for req in &requests {
        client.send(req).map_err(|e| format!("send: {e}"))?;
        client.recv_line().map_err(|e| format!("recv: {e}"))?;
    }
    let trace = harness.routing_trace();
    harness.shutdown();
    let mut by_backend: BTreeMap<String, u64> = BTreeMap::new();
    for r in &trace {
        let name = r.backend.clone().unwrap_or_else(|| "<none>".to_owned());
        *by_backend.entry(name).or_insert(0) += 1;
    }
    Ok(serde::object(vec![
        (
            "backends",
            Value::Array(vec![
                Value::Str("b0".to_owned()),
                Value::Str("b1".to_owned()),
            ]),
        ),
        ("replicas", cfg.replicas.to_value()),
        ("requests", requests.len().to_value()),
        (
            "routed_by_backend",
            Value::Object(
                by_backend
                    .into_iter()
                    .map(|(k, v)| (k, v.to_value()))
                    .collect(),
            ),
        ),
        (
            "routes",
            Value::Array(trace.iter().map(RouteRecord::to_value).collect()),
        ),
    ]))
}

/// The transcript file text (pretty JSON, trailing newline).
///
/// # Errors
///
/// Propagates [`transcript_value`] errors.
pub fn transcript_text() -> Result<String, String> {
    let mut s = serde_json::to_string_pretty(&transcript_value()?).expect("transcript serializes");
    s.push('\n');
    Ok(s)
}

/// Where the transcript lives under a corpus dir.
fn transcript_path(dir: &Path) -> std::path::PathBuf {
    dir.join("gateway").join("transcript.json")
}

/// Recomputes the transcript and diffs it against the committed file.
/// Returns drift findings (empty = clean), in the same shape as the
/// response-golden checker.
///
/// # Errors
///
/// Returns a message for harness failures or non-NotFound I/O errors.
pub fn check_transcript(dir: &Path) -> Result<Vec<Drift>, String> {
    let expected = transcript_text()?;
    match fs::read_to_string(transcript_path(dir)) {
        Ok(on_disk) if on_disk == expected => Ok(Vec::new()),
        Ok(on_disk) => Ok(vec![Drift {
            name: "gateway/transcript.json".to_owned(),
            kind: "transcript-drift",
            diff: corpus::line_diff(&expected, &on_disk, 8),
        }]),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(vec![Drift {
            name: "gateway/transcript.json".to_owned(),
            kind: "missing-transcript",
            diff: String::new(),
        }]),
        Err(e) => Err(format!("read transcript: {e}")),
    }
}

/// Regenerates the committed transcript (the `--bless` path).
///
/// # Errors
///
/// Returns a message for harness or write failures.
pub fn bless_transcript(dir: &Path) -> Result<(), String> {
    let text = transcript_text()?;
    let path = transcript_path(dir);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir: {e}"))?;
    }
    fs::write(&path, text).map_err(|e| format!("write transcript: {e}"))
}

// ---- Gateway chaos ----

/// Knobs for one gateway chaos run. The kill/restart schedule is derived
/// from the seed; everything that affects behavior is explicit here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayChaosConfig {
    /// Seed for the request stream and the kill/restart schedule.
    pub seed: u64,
    /// Stream length.
    pub requests: usize,
    /// Fleet size.
    pub backends: usize,
    /// Gateway replica-group size (`< backends` makes some shards lose
    /// all replicas when the victim dies — the typed-error path).
    pub replicas: usize,
    /// Whether a seeded backend kill happens mid-stream.
    pub kill: bool,
    /// Whether the victim restarts (on a new port) later in the stream.
    pub restart: bool,
    /// Client read timeout — a response slower than this counts as a
    /// silent drop.
    pub recv_timeout: Duration,
}

impl Default for GatewayChaosConfig {
    fn default() -> Self {
        GatewayChaosConfig {
            seed: 1,
            requests: 32,
            backends: 2,
            replicas: 2,
            kill: true,
            restart: true,
            recv_timeout: Duration::from_secs(10),
        }
    }
}

/// Everything a gateway chaos run produces.
#[derive(Debug, Clone)]
pub struct GatewayChaosOutcome {
    /// Invariant violations (empty = healthy run).
    pub violations: Vec<String>,
    /// The gateway's routing trace for the run.
    pub trace: Vec<RouteRecord>,
    /// The full deterministic report (carries `violations` too; contains
    /// no wall-clock quantities).
    pub report: Value,
}

/// Runs one seeded gateway chaos scenario: a request stream over a live
/// cluster with a mid-stream backend kill (and optional restart), driven
/// sequentially so the routing trace is a pure function of the seed.
///
/// The invariant under test: **every accepted request gets exactly one
/// response — a success or a typed error — never a silent drop.** With
/// `replicas == backends` no typed `upstream_unavailable` may appear
/// either (some replica always covers the shard); with fewer replicas the
/// error is expected for shards whose whole replica group died, and the
/// report counts them.
///
/// # Errors
///
/// Returns a message only for harness-level failures (cannot bind or
/// connect) — invariant violations land in the outcome.
pub fn run_gateway_chaos(cfg: &GatewayChaosConfig) -> Result<GatewayChaosOutcome, String> {
    let requests = seeded_stream(&StreamSpec {
        seed: cfg.seed,
        requests: cfg.requests,
    });
    // Seeded schedule: kill in the middle half of the stream, restart a
    // quarter-stream later (clamped inside the stream).
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC1A0_5C1A_05C1_A05C);
    let quarter = (cfg.requests / 4).max(1) as u64;
    let kill_index = usize::try_from(quarter + rng.below(2 * quarter)).expect("fits");
    let victim = usize::try_from(rng.below(cfg.backends as u64)).expect("fits");
    let restart_index =
        (kill_index + usize::try_from(quarter).expect("fits")).min(cfg.requests.saturating_sub(1));

    let mut harness = ClusterHarness::start(ClusterConfig {
        backends: cfg.backends,
        replicas: cfg.replicas,
        recv_timeout: cfg.recv_timeout,
        ..ClusterConfig::default()
    })?;
    let mut client = harness.client()?;

    let mut fates: Vec<(u64, String)> = Vec::with_capacity(requests.len());
    let mut violations: Vec<String> = Vec::new();
    let mut killed = false;
    let mut restarted = false;

    for (i, req) in requests.iter().enumerate() {
        if cfg.kill && i == kill_index {
            harness.kill_backend(victim)?;
            killed = true;
        }
        if cfg.kill && cfg.restart && killed && i == restart_index {
            harness.restart_backend(victim)?;
            restarted = true;
        }
        let id = req.id.expect("stream requests carry ids");
        if let Err(e) = client.send(req) {
            // The gateway itself never dies in this scenario; a dead
            // gateway socket is a harness failure, not backend chaos.
            return Err(format!("send to gateway failed at {i}: {e}"));
        }
        match client.recv() {
            Ok(resp) => {
                if resp.id != Some(id) {
                    violations.push(format!(
                        "request {i}: response id {:?} does not echo {id} \
                         (duplicate or misrouted ack)",
                        resp.id
                    ));
                }
                fates.push((id, classify(&resp)));
            }
            Err(e) => {
                violations.push(format!(
                    "request {i} (id {id}): SILENT DROP — no response ({e})"
                ));
                fates.push((id, "silent_drop".to_owned()));
            }
        }
    }
    let trace = harness.routing_trace();
    harness.shutdown();

    // ---- Invariants ----
    if trace.len() != requests.len() {
        violations.push(format!(
            "routing trace has {} records for {} requests",
            trace.len(),
            requests.len()
        ));
    }
    let unavailable = fates
        .iter()
        .filter(|(_, f)| f == "error:upstream_unavailable")
        .count();
    if cfg.replicas >= cfg.backends && unavailable > 0 {
        violations.push(format!(
            "{unavailable} upstream_unavailable with full replication \
             (every shard had a surviving replica)"
        ));
    }

    // ---- Deterministic report ----
    let mut by_fate: BTreeMap<String, u64> = BTreeMap::new();
    for (_, f) in &fates {
        *by_fate.entry(f.clone()).or_insert(0) += 1;
    }
    let mut by_backend: BTreeMap<String, u64> = BTreeMap::new();
    for r in &trace {
        let name = r.backend.clone().unwrap_or_else(|| "<none>".to_owned());
        *by_backend.entry(name).or_insert(0) += 1;
    }
    let report = serde::object(vec![
        ("seed", cfg.seed.to_value()),
        ("requests", cfg.requests.to_value()),
        ("backends", cfg.backends.to_value()),
        ("replicas", cfg.replicas.to_value()),
        ("kill", Value::Bool(cfg.kill)),
        ("kill_index", kill_index.to_value()),
        ("victim", Value::Str(format!("b{victim}"))),
        ("restarted", Value::Bool(restarted)),
        ("restart_index", restart_index.to_value()),
        (
            "fates",
            Value::Array(
                fates
                    .iter()
                    .map(|(id, f)| Value::Array(vec![id.to_value(), Value::Str(f.clone())]))
                    .collect(),
            ),
        ),
        (
            "fates_by_kind",
            Value::Object(
                by_fate
                    .into_iter()
                    .map(|(k, v)| (k, v.to_value()))
                    .collect(),
            ),
        ),
        (
            "routed_by_backend",
            Value::Object(
                by_backend
                    .into_iter()
                    .map(|(k, v)| (k, v.to_value()))
                    .collect(),
            ),
        ),
        (
            "total_failovers",
            trace.iter().map(|r| r.failovers).sum::<u64>().to_value(),
        ),
        (
            "total_attempts",
            trace.iter().map(|r| r.attempts).sum::<u64>().to_value(),
        ),
        (
            "routes",
            Value::Array(trace.iter().map(RouteRecord::to_value).collect()),
        ),
        (
            "violations",
            Value::Array(violations.iter().map(|v| Value::Str(v.clone())).collect()),
        ),
    ]);
    Ok(GatewayChaosOutcome {
        violations,
        trace,
        report,
    })
}

fn classify(resp: &Response) -> String {
    if resp.ok {
        "ok".to_owned()
    } else {
        match &resp.error {
            Some(e) => format!("error:{}", e.code.as_str()),
            None => "error:<untyped>".to_owned(),
        }
    }
}

/// Re-exported for assertions on chaos outcomes.
pub use localwm_serve::ErrorCode as GatewayErrorCode;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_round_trips_a_request_through_the_gateway() {
        let harness = ClusterHarness::start(ClusterConfig::default()).expect("cluster");
        let mut c = harness.client().expect("client");
        let mut req = Request::new(localwm_serve::RequestKind::Timing);
        req.id = Some(1);
        req.design = Some(localwm_cdfg::write_cdfg(
            &localwm_cdfg::designs::iir4_parallel(),
        ));
        let resp = c.call(&req).expect("call");
        assert!(resp.ok);
        assert_eq!(harness.routing_trace().len(), 1);
        harness.shutdown();
    }

    #[test]
    fn chaos_with_full_replication_never_surfaces_the_kill() {
        let out = run_gateway_chaos(&GatewayChaosConfig {
            seed: 11,
            requests: 16,
            ..GatewayChaosConfig::default()
        })
        .expect("chaos run");
        assert!(
            out.violations.is_empty(),
            "violations: {:?}",
            out.violations
        );
        assert_eq!(out.trace.len(), 16);
    }

    #[test]
    fn unused_error_code_reexport_is_the_protocol_type() {
        assert_eq!(
            GatewayErrorCode::UpstreamUnavailable.as_str(),
            "upstream_unavailable"
        );
    }
}

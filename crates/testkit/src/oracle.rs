//! Differential oracles.
//!
//! One request stream, many lanes, one rule: every lane must produce
//! byte-identical response lines. The lanes:
//!
//! * `inproc-serial` — handlers called directly with
//!   [`Parallelism::Serial`]; this is the reference.
//! * `inproc-threads3` — same handlers, `Parallelism::Threads(3)`.
//! * `inproc-env` — same handlers, [`Parallelism::from_env`] (honors
//!   `LOCALWM_THREADS`, so the oracle covers whatever the ambient
//!   configuration is).
//! * `tcp-cold` — a real server on a loopback socket, fresh cache.
//! * `tcp-warm` — the same server and connection, second pass: every
//!   context comes from the warm cache and the bytes still may not move.
//! * `tcp-pipelined-w8-cold` / `tcp-pipelined-w8-warm` — the same two
//!   passes with the client pipelining the stream in bursts of 8 in-flight
//!   requests. The server's ordered writer must keep response `i` answering
//!   request `i`, so the lanes must match the lockstep reference byte for
//!   byte — typed errors included.
//! * `sharded-contended-c0..cN` — concurrent TCP clients each replay the
//!   *full* stream against one live multi-worker server, so its sharded
//!   cache, single-flight coalescing, and work-stealing pool run under
//!   real contention; every client's lines must still equal the serial
//!   reference.
//!
//! The in-process lanes build response lines exactly the way the server's
//! workers do ([`Response::success`]/[`Response::failure`] + `to_line`),
//! so lane comparison is plain string equality — no tolerance, no
//! normalization.
//!
//! [`probe_invariants`] adds an engine-level oracle: memoized builders run
//! exactly once per context and read-only analysis never invalidates.

use std::sync::Arc;
use std::time::Duration;

use localwm_cdfg::parse_cdfg;
use localwm_engine::{DesignContext, Parallelism, RecordingProbe};
use localwm_serve::handlers;
use localwm_serve::{Client, ContextCache, Request, Response, ServeConfig};

/// One lane disagreement: the lane's line differs from the reference lane
/// at `index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Lane that diverged.
    pub lane: String,
    /// Position in the request stream.
    pub index: usize,
    /// Request id at that position, if any.
    pub id: Option<u64>,
    /// The reference (`inproc-serial`) line.
    pub want: String,
    /// The diverging lane's line.
    pub got: String,
}

/// Outcome of a differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Lanes that ran, reference first.
    pub lanes: Vec<String>,
    /// Requests per lane.
    pub requests: usize,
    /// How many responses in the reference lane were typed errors (the
    /// oracle must cover those too, not just successes).
    pub error_responses: usize,
    /// Every lane disagreement (empty = all lanes byte-identical).
    pub mismatches: Vec<Mismatch>,
}

/// Runs `requests` through the in-process handlers with `par`, returning
/// wire-exact response lines.
pub fn inproc_lines(requests: &[Request], cache_cap: usize, par: Parallelism) -> Vec<String> {
    let cache = ContextCache::new(cache_cap);
    requests
        .iter()
        .map(|req| {
            let resp = match handlers::execute_with(&cache, req, par) {
                Ok(v) => Response::success(req.id, req.kind.as_str(), v),
                Err(e) => Response::failure(req.id, req.kind.as_str(), e),
            };
            resp.to_line()
        })
        .collect()
}

/// Runs `requests` twice through one real TCP server — cold cache, then
/// warm — returning both passes' raw response lines.
///
/// # Errors
///
/// Returns a message on socket failures (bind, connect, send, recv).
pub fn tcp_lines(
    requests: &[Request],
    cache_cap: usize,
    workers: usize,
) -> Result<(Vec<String>, Vec<String>), String> {
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: requests.len().max(16),
        cache_cap,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr().to_string();
    let run_pass = || -> Result<Vec<String>, String> {
        let mut c = Client::connect_within(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        let mut lines = Vec::with_capacity(requests.len());
        for req in requests {
            c.send(req).map_err(|e| format!("send: {e}"))?;
            lines.push(c.recv_line().map_err(|e| format!("recv: {e}"))?);
        }
        Ok(lines)
    };
    let cold = run_pass();
    let warm = cold.as_ref().ok().map(|_| run_pass());
    handle.shutdown();
    let cold = cold?;
    let warm = warm.expect("warm pass ran after successful cold pass")?;
    Ok((cold, warm))
}

/// [`tcp_lines`] with the client pipelining the stream in bursts of
/// `window` in-flight requests (one buffered write per burst, responses
/// read back in request order). Runs a cold and a warm pass over one
/// server. Comparing the returned lines against the lockstep lanes proves
/// the server's ordered writer never reorders or drops a pipelined
/// response.
///
/// # Errors
///
/// Returns a message on socket failures (bind, connect, send, recv).
pub fn tcp_pipelined_lines(
    requests: &[Request],
    cache_cap: usize,
    workers: usize,
    window: usize,
) -> Result<(Vec<String>, Vec<String>), String> {
    let window = window.max(1);
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: requests.len().max(16),
        cache_cap,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: window,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr().to_string();
    let run_pass = || -> Result<Vec<String>, String> {
        let mut c = Client::connect_within(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        let mut lines = Vec::with_capacity(requests.len());
        for burst in requests.chunks(window) {
            let encoded: Vec<String> = burst.iter().map(Request::to_line).collect();
            let burst_lines: Vec<&str> = encoded.iter().map(String::as_str).collect();
            lines.extend(
                c.pipeline_lines(&burst_lines)
                    .map_err(|e| format!("pipelined burst: {e}"))?,
            );
        }
        Ok(lines)
    };
    let cold = run_pass();
    let warm = cold.as_ref().ok().map(|_| run_pass());
    handle.shutdown();
    let cold = cold?;
    let warm = warm.expect("warm pass ran after successful cold pass")?;
    Ok((cold, warm))
}

/// Replays the full stream from `clients` concurrent connections against
/// one live multi-worker server, returning each client's response lines.
/// The server's sharded cache and work-stealing pool run under real
/// contention; each client still sees its own responses in request order,
/// so per-client lines remain directly comparable to the serial reference.
///
/// # Errors
///
/// Returns a message on socket failures (bind, connect, send, recv) or a
/// panicked client thread.
pub fn tcp_contended_lines(
    requests: &[Request],
    cache_cap: usize,
    workers: usize,
    clients: usize,
) -> Result<Vec<Vec<String>>, String> {
    let handle = localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: (requests.len() * clients).max(16),
        cache_cap,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr().to_string();
    let lines: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let addr = &addr;
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || -> Result<Vec<String>, String> {
                    let mut c = Client::connect_within(addr, Duration::from_secs(5))
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::with_capacity(requests.len());
                    for req in requests {
                        c.send(req).map_err(|e| format!("send: {e}"))?;
                        out.push(c.recv_line().map_err(|e| format!("recv: {e}"))?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("contended client panicked".to_owned()))
            })
            .collect()
    });
    handle.shutdown();
    lines
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| format!("contended client {i}: {e}")))
        .collect()
}

/// Runs the full differential oracle over `requests`.
///
/// # Errors
///
/// Returns a message if the TCP lanes cannot run at all (the byte
/// comparison itself never errors — disagreements land in
/// [`DifferentialReport::mismatches`]).
pub fn run_differential(
    requests: &[Request],
    cache_cap: usize,
) -> Result<DifferentialReport, String> {
    let reference = inproc_lines(requests, cache_cap, Parallelism::Serial);
    let (tcp_cold, tcp_warm) = tcp_lines(requests, cache_cap, 2)?;
    let (pipe_cold, pipe_warm) = tcp_pipelined_lines(requests, cache_cap, 2, 8)?;
    let contended = tcp_contended_lines(requests, cache_cap, 3, 3)?;
    let mut lanes: Vec<(String, Vec<String>)> = vec![
        (
            "inproc-threads3".to_owned(),
            inproc_lines(requests, cache_cap, Parallelism::Threads(3)),
        ),
        (
            "inproc-env".to_owned(),
            inproc_lines(requests, cache_cap, Parallelism::from_env()),
        ),
        ("tcp-cold".to_owned(), tcp_cold),
        ("tcp-warm".to_owned(), tcp_warm),
        ("tcp-pipelined-w8-cold".to_owned(), pipe_cold),
        ("tcp-pipelined-w8-warm".to_owned(), pipe_warm),
    ];
    lanes.extend(
        contended
            .into_iter()
            .enumerate()
            .map(|(i, lines)| (format!("sharded-contended-c{i}"), lines)),
    );
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
    names.extend(lanes.into_iter().map(|(n, _)| n));
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

/// Engine-level memoization oracle for one design: after repeated
/// read-only analysis on a single context, the expensive builders have run
/// exactly once, the window table is served from cache, and nothing was
/// invalidated.
///
/// # Errors
///
/// Returns a description of the violated invariant (or a parse error for
/// a malformed design).
pub fn probe_invariants(design_text: &str) -> Result<(), String> {
    let graph = parse_cdfg(design_text).map_err(|e| format!("parse: {e}"))?;
    let probe = Arc::new(RecordingProbe::new());
    let ctx = DesignContext::new(graph).with_probe(probe.clone());
    let cp = ctx.critical_path();
    let _ = ctx.critical_path();
    ctx.windows(cp).map_err(|e| e.to_string())?;
    ctx.windows(cp).map_err(|e| e.to_string())?;
    let checks: [(&str, u64, u64); 3] = [
        (
            "engine.topo.build",
            probe.counter_value("engine.topo.build"),
            1,
        ),
        (
            "engine.unit.build",
            probe.counter_value("engine.unit.build"),
            1,
        ),
        (
            "engine.windows.miss",
            probe.counter_value("engine.windows.miss"),
            1,
        ),
    ];
    for (name, got, want) in checks {
        if got != want {
            return Err(format!("{name} ran {got} times, expected {want}"));
        }
    }
    if probe.counter_value("engine.windows.hit") == 0 {
        return Err("repeated window query did not hit the memo".to_owned());
    }
    if probe.counter_value("engine.invalidate") != 0 {
        return Err("read-only analysis invalidated the context".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{seeded_stream, StreamSpec};

    #[test]
    fn inproc_lanes_agree_without_a_server() {
        let reqs = seeded_stream(&StreamSpec {
            seed: 5,
            requests: 12,
        });
        let serial = inproc_lines(&reqs, 4, Parallelism::Serial);
        let threads = inproc_lines(&reqs, 4, Parallelism::Threads(3));
        assert_eq!(serial, threads);
        assert_eq!(serial.len(), 12);
    }

    #[test]
    fn probe_invariants_hold_on_the_reference_design() {
        let text = localwm_cdfg::write_cdfg(&localwm_cdfg::designs::iir4_parallel());
        probe_invariants(&text).expect("memo invariants");
    }

    #[test]
    fn probe_invariants_reject_malformed_designs() {
        assert!(probe_invariants("node a not_an_op\n").is_err());
    }
}

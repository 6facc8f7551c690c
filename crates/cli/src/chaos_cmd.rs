//! `localwm chaos` — run a seeded fault-injection scenario against a live
//! server and report invariant violations.
//!
//! The harness (see `localwm_testkit::chaos`) starts a real server on a
//! loopback socket with the seeded `FaultPlan` armed, replays the seeded
//! request stream through the injected faults, and checks the service
//! invariants: no lost responses beyond the fired faults, no double-acks,
//! exact drain accounting, consistent cache counters. Exit code 1 when
//! any invariant is violated (or when faults should have fired but the
//! binary was built without the `fault-inject` feature).

use std::time::Duration;

use localwm_testkit::chaos::{self, ChaosConfig};
use localwm_testkit::cluster::{self, GatewayChaosConfig};

use crate::commands::{parse_args, Args, Grammar};

/// Runs `localwm chaos [--seed N] [--requests N] [--faults-per-point N]
/// [--workers N] [--queue-depth N] [--cache-cap N] [--recv-timeout-ms N]
/// [--json] [--report-out FILE]`, or with `--gateway` the cluster-level
/// scenario `localwm chaos --gateway [--seed N] [--requests N]
/// [--backends N] [--replicas N] [--no-kill] [--no-restart]
/// [--recv-timeout-ms N] [--json] [--report-out FILE]` (seeded backend
/// kill/restart behind a live gateway; fails when any accepted request is
/// silently dropped).
///
/// # Errors
///
/// Returns a message for bad flags, harness failures, or violated
/// invariants.
pub fn chaos(args: &[String]) -> Result<(), String> {
    let gateway = args.iter().any(|a| a == "--gateway");
    let grammar = if gateway {
        Grammar {
            values: &[
                "--seed",
                "--requests",
                "--backends",
                "--replicas",
                "--recv-timeout-ms",
                "--report-out",
            ],
            switches: &["--gateway", "--no-kill", "--no-restart", "--json"],
            positionals: 0,
        }
    } else {
        Grammar {
            values: &[
                "--seed",
                "--requests",
                "--faults-per-point",
                "--workers",
                "--queue-depth",
                "--cache-cap",
                "--recv-timeout-ms",
                "--report-out",
            ],
            switches: &["--json"],
            positionals: 0,
        }
    };
    let Some(flags) = parse_args("chaos", args, &grammar)? else {
        return Ok(());
    };
    let parse = |flag: &str, default: u64| -> Result<u64, String> {
        match flags.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {flag}: `{v}`")),
        }
    };
    if gateway {
        return gateway_chaos(&flags, &parse);
    }
    let cfg = ChaosConfig {
        seed: parse("--seed", 1)?,
        requests: usize::try_from(parse("--requests", 48)?).map_err(|e| e.to_string())?,
        faults_per_point: usize::try_from(parse("--faults-per-point", 2)?)
            .map_err(|e| e.to_string())?,
        workers: usize::try_from(parse("--workers", 1)?).map_err(|e| e.to_string())?,
        queue_depth: usize::try_from(parse("--queue-depth", 32)?).map_err(|e| e.to_string())?,
        cache_cap: usize::try_from(parse("--cache-cap", 2)?).map_err(|e| e.to_string())?,
        recv_timeout: Duration::from_millis(parse("--recv-timeout-ms", 1500)?),
    };
    if cfg.workers != 1 {
        eprintln!(
            "note: --workers {} makes fault/response interleaving (and the report) \
             timing-dependent; use 1 worker for reproducible runs",
            cfg.workers
        );
    }

    let out = chaos::run(&cfg)?;

    let json = flags.has("--json");
    let report = serde_json::to_string_pretty(&out.report).map_err(|e| e.to_string())?;
    if let Some(path) = flags.value("--report-out") {
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if json {
        println!("{report}");
    } else {
        println!(
            "chaos seed {}: {} requests, {} faults armed, {} fired",
            cfg.seed,
            cfg.requests,
            out.plan.faults.len(),
            out.trace.len()
        );
        for f in &out.trace {
            println!(
                "  fired {} at {} op {}",
                f.action.as_str(),
                f.point.as_str(),
                f.index
            );
        }
        match out.violations.len() {
            0 => println!("invariants: all held"),
            n => {
                println!("invariants: {n} VIOLATED");
                for v in &out.violations {
                    println!("  {v}");
                }
            }
        }
    }

    if !out.violations.is_empty() {
        return Err(format!(
            "{} invariant violation(s) detected",
            out.violations.len()
        ));
    }
    if localwm_testkit::fault_inject_compiled() && cfg.faults_per_point > 0 && out.trace.is_empty()
    {
        return Err("an armed plan fired no faults — injection seams look dead".to_owned());
    }
    if !localwm_testkit::fault_inject_compiled() && cfg.faults_per_point > 0 {
        eprintln!("note: built without `fault-inject` — the plan was armed but no faults can fire");
    }
    Ok(())
}

/// The `--gateway` scenario: a live 2+-backend cluster behind a real
/// gateway, a seeded backend kill (and optional restart) mid-stream, and
/// the no-silent-drop invariant checked over every accepted request.
fn gateway_chaos(
    flags: &Args,
    parse: &dyn Fn(&str, u64) -> Result<u64, String>,
) -> Result<(), String> {
    let cfg = GatewayChaosConfig {
        seed: parse("--seed", 1)?,
        requests: usize::try_from(parse("--requests", 32)?).map_err(|e| e.to_string())?,
        backends: usize::try_from(parse("--backends", 2)?).map_err(|e| e.to_string())?,
        replicas: usize::try_from(parse("--replicas", 2)?).map_err(|e| e.to_string())?,
        kill: !flags.has("--no-kill"),
        restart: !flags.has("--no-restart"),
        recv_timeout: Duration::from_millis(parse("--recv-timeout-ms", 10_000)?),
    };

    let out = cluster::run_gateway_chaos(&cfg)?;

    let report = serde_json::to_string_pretty(&out.report).map_err(|e| e.to_string())?;
    if let Some(path) = flags.value("--report-out") {
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if flags.has("--json") {
        println!("{report}");
    } else {
        println!(
            "gateway chaos seed {}: {} requests over {} backend(s), replicas {}",
            cfg.seed, cfg.requests, cfg.backends, cfg.replicas
        );
        println!(
            "  kill {}; restart {}; {} route(s) traced",
            if cfg.kill { "armed" } else { "off" },
            if cfg.restart { "armed" } else { "off" },
            out.trace.len()
        );
        match out.violations.len() {
            0 => println!("invariants: all held (every request answered or typed-errored)"),
            n => {
                println!("invariants: {n} VIOLATED");
                for v in &out.violations {
                    println!("  {v}");
                }
            }
        }
    }

    if out.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s) detected",
            out.violations.len()
        ))
    }
}

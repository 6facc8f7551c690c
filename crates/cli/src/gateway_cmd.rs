//! `localwm gateway` — run the routing tier over N backends.

use localwm_gateway::{BackendSpec, GatewayConfig};

use crate::commands::{parse_args, Grammar};

/// Runs `localwm gateway --backends [name=]H:P,[name=]H:P,... [--addr A]
/// [--replicas N] [--max-retries N] [--backoff-base-ms N]
/// [--backoff-cap-ms N] [--recv-timeout-ms N] [--health-interval-ms N|off]`.
///
/// The gateway speaks the backend protocol unchanged; point `localwm
/// request` at it like any server. `cluster_stats` aggregates the fleet.
///
/// # Errors
///
/// Returns a message for bad flags or bind failures.
pub fn gateway(args: &[String]) -> Result<(), String> {
    let grammar = Grammar {
        values: &[
            "--backends",
            "--addr",
            "--replicas",
            "--max-retries",
            "--backoff-base-ms",
            "--backoff-cap-ms",
            "--recv-timeout-ms",
            "--health-interval-ms",
        ],
        switches: &[],
        positionals: 0,
    };
    let Some(flags) = parse_args("gateway", args, &grammar)? else {
        return Ok(());
    };
    let raw = flags
        .value("--backends")
        .ok_or("gateway: --backends [name=]host:port[,...] is required")?;
    let backends: Vec<BackendSpec> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(BackendSpec::parse)
        .collect::<Result<_, _>>()?;

    let mut cfg = GatewayConfig {
        addr: flags.value("--addr").unwrap_or("127.0.0.1:7272").to_owned(),
        backends,
        ..GatewayConfig::default()
    };
    if let Some(n) = flags.parse::<usize>("--replicas")? {
        cfg.replicas = n.max(1);
    }
    if let Some(n) = flags.parse::<u32>("--max-retries")? {
        cfg.max_retries = n;
    }
    if let Some(n) = flags.parse::<u64>("--backoff-base-ms")? {
        cfg.backoff_base_ms = n;
    }
    if let Some(n) = flags.parse::<u64>("--backoff-cap-ms")? {
        cfg.backoff_cap_ms = n;
    }
    if let Some(n) = flags.parse::<u64>("--recv-timeout-ms")? {
        cfg.recv_timeout_ms = n;
    }
    cfg.health_interval_ms = match flags.value("--health-interval-ms") {
        None => cfg.health_interval_ms,
        Some("off") => None,
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|_| format!("bad value for --health-interval-ms: `{raw}`"))?,
        ),
    };

    let names: Vec<String> = cfg.backends.iter().map(|b| b.name.clone()).collect();
    let handle = localwm_gateway::start(cfg).map_err(|e| format!("gateway start failed: {e}"))?;
    println!(
        "localwm-gateway routing {} backends [{}] on {}",
        names.len(),
        names.join(", "),
        handle.addr()
    );
    handle.join();
    println!("localwm-gateway stopped");
    Ok(())
}

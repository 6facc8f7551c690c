//! `localwm serve` / `localwm request` — the service front end.

use std::fs;
use std::time::Duration;

use localwm_serve::{Client, Request, RequestKind, ServeConfig};
use serde::Value;

use crate::commands::{parse_args, usage, Grammar};

type CliResult = Result<(), String>;

/// `localwm serve [--addr A] [--workers N] [--queue-depth N] [--cache-cap N]
/// [--default-timeout-ms N] [--session-idle-ms N] [--metrics-out FILE]
/// [--store-dir DIR]`
pub fn serve(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--cache-cap",
            "--default-timeout-ms",
            "--session-idle-ms",
            "--metrics-out",
            "--store-dir",
        ],
        switches: &[],
        positionals: 0,
    };
    let Some(flags) = parse_args("serve", args, &grammar)? else {
        return Ok(());
    };
    let mut cfg = ServeConfig {
        addr: flags.value("--addr").unwrap_or("127.0.0.1:7171").to_owned(),
        ..ServeConfig::default()
    };
    if let Some(n) = flags.parse::<usize>("--workers")? {
        cfg.workers = n;
    }
    if let Some(n) = flags.parse::<usize>("--queue-depth")? {
        cfg.queue_depth = n;
    }
    if let Some(n) = flags.parse::<usize>("--cache-cap")? {
        cfg.cache_cap = n;
    }
    cfg.default_timeout_ms = flags.parse::<u64>("--default-timeout-ms")?;
    cfg.session_idle_ms = flags.parse::<u64>("--session-idle-ms")?;
    cfg.metrics_out = flags.value("--metrics-out").map(str::to_owned);
    cfg.store_dir = flags.value("--store-dir").map(str::to_owned);

    let handle = localwm_serve::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("localwm-serve listening on {}", handle.addr());
    handle.join();
    println!("localwm-serve stopped");
    Ok(())
}

/// `localwm request <kind> [--addr A] [--design FILE] [--author ID]
/// [--schedule FILE] [--fraction F] [--k K] [--deadline N] [--lo N --hi N]
/// [--samples N] [--seed N] [--attack KIND] [--budget B] [--budgets LIST]
/// [--timeout-ms N] [--schedule-out FILE]
/// [--repeat N] [--session ID] [--edits FILE] [--binary]`
///
/// `--binary` negotiates the `LWMB1` framed encoding for the connection;
/// responses decode to the same bytes, so output is unchanged.
///
/// Or: `localwm request --edit-trace FILE --design FILE [--session ID]
/// [--addr A]` — replays a whole edit trace (see `localwm-testkit`'s trace
/// grammar) through one held session.
///
/// `--repeat N` issues the same request N times over one keep-alive
/// connection and prints a cold-vs-warm latency summary after the (last)
/// response; with a gateway address this exercises the pooled route path.
pub fn request(args: &[String]) -> CliResult {
    if args.iter().any(|a| a == "--edit-trace") {
        return replay_edit_trace(args);
    }
    let grammar = Grammar {
        values: &[
            "--addr",
            "--id",
            "--design",
            "--author",
            "--schedule",
            "--schedule-out",
            "--session",
            "--edits",
            "--fraction",
            "--k",
            "--deadline",
            "--lo",
            "--hi",
            "--samples",
            "--seed",
            "--attack",
            "--budget",
            "--budgets",
            "--timeout-ms",
            "--repeat",
        ],
        switches: &["--binary"],
        positionals: 1,
    };
    let Some(flags) = parse_args("request", args, &grammar)? else {
        return Ok(());
    };
    let kind_raw = *flags.positionals.first().ok_or_else(|| usage("request"))?;
    let kind =
        RequestKind::parse(kind_raw).ok_or_else(|| format!("unknown request kind `{kind_raw}`"))?;
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7171");

    let mut req = Request::new(kind);
    req.id = flags.parse::<u64>("--id")?;
    if let Some(path) = flags.value("--design") {
        req.design = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.author = flags.value("--author").map(str::to_owned);
    if let Some(path) = flags.value("--schedule") {
        req.schedule = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.session = flags.value("--session").map(str::to_owned);
    if let Some(path) = flags.value("--edits") {
        req.edits = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.fraction = flags.parse::<f64>("--fraction")?;
    req.k = flags.parse::<usize>("--k")?;
    req.deadline = flags.parse::<u32>("--deadline")?;
    req.lo = flags.parse::<u64>("--lo")?;
    req.hi = flags.parse::<u64>("--hi")?;
    req.samples = flags.parse::<usize>("--samples")?;
    req.seed = flags.parse::<u64>("--seed")?;
    req.attack = flags.value("--attack").map(str::to_owned);
    req.budget = flags.parse::<f64>("--budget")?;
    req.budgets = flags.value("--budgets").map(str::to_owned);
    req.timeout_ms = flags.parse::<u64>("--timeout-ms")?;

    let repeat = flags.parse::<usize>("--repeat")?.unwrap_or(1).max(1);

    let wait = Duration::from_secs(5);
    let mut client = if flags.has("--binary") {
        Client::connect_binary_within(addr, wait)
    } else {
        Client::connect_within(addr, wait)
    }
    .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let (resp, latencies) = client
        .call_repeated(&req, repeat)
        .map_err(|e| format!("request failed: {e}"))?;

    if let Some(out) = flags.value("--schedule-out") {
        match resp.result_field("schedule") {
            Some(Value::Str(text)) => {
                fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
            }
            _ => return Err("response carries no schedule text".to_owned()),
        }
    }

    let rendered = serde_json::to_string_pretty(&resp).expect("response serialization");
    println!("{rendered}");
    if repeat > 1 {
        let cold = latencies[0];
        let warm = &latencies[1..];
        let min = warm.iter().min().copied().unwrap_or_default();
        let max = warm.iter().max().copied().unwrap_or_default();
        let mean = warm.iter().sum::<Duration>() / u32::try_from(warm.len()).unwrap_or(1);
        println!(
            "repeat {repeat} over one keep-alive connection: cold {:?}; \
             warm min {min:?} / mean {mean:?} / max {max:?}",
            cold
        );
    }
    if resp.ok {
        Ok(())
    } else {
        let detail = resp
            .error
            .as_ref()
            .map_or_else(|| "unknown error".to_owned(), ToString::to_string);
        Err(format!("server returned an error: {detail}"))
    }
}

/// Replays an edit trace through one held session: `open` with the design,
/// one `mutate` per edit batch, `timing`/`analyze` queries as written, and
/// a final `close`. One response line is printed per step (typed errors
/// included — a failed edit line leaves the session on its last good
/// state), then a summary from the `close` acknowledgement.
fn replay_edit_trace(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &["--edit-trace", "--design", "--session", "--addr"],
        switches: &[],
        positionals: 0,
    };
    let Some(flags) = parse_args("request", args, &grammar)? else {
        return Ok(());
    };
    let path = flags
        .value("--edit-trace")
        .ok_or("--edit-trace needs a file path")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let steps = localwm_testkit::trace::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let design_path = flags
        .value("--design")
        .ok_or("--edit-trace needs --design FILE")?;
    let design =
        fs::read_to_string(design_path).map_err(|e| format!("reading {design_path}: {e}"))?;
    let session = flags.value("--session").unwrap_or("cli-trace");
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7171");

    let mut client = Client::connect_within(addr, Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let call = |client: &mut Client, req: &Request| {
        client.call(req).map_err(|e| format!("request failed: {e}"))
    };

    let mut open = Request::new(RequestKind::Open);
    open.id = Some(0);
    open.session = Some(session.to_owned());
    open.design = Some(design);
    let resp = call(&mut client, &open)?;
    if !resp.ok {
        return Err(format!("open failed: {}", resp.to_line()));
    }

    let mut failures = 0usize;
    for (i, step) in steps.iter().enumerate() {
        use localwm_testkit::trace::TraceStep;
        let mut req = match step {
            TraceStep::Edits(edits) => {
                let mut r = Request::new(RequestKind::Mutate);
                r.edits = Some(edits.clone());
                r
            }
            TraceStep::Timing { deadline } => {
                let mut r = Request::new(RequestKind::Timing);
                r.deadline = *deadline;
                r
            }
            TraceStep::Analyze { samples, seed } => {
                let mut r = Request::new(RequestKind::Analyze);
                r.samples = Some(*samples);
                r.seed = Some(*seed);
                r
            }
        };
        req.id = Some(i as u64 + 1);
        req.session = Some(session.to_owned());
        let resp = call(&mut client, &req)?;
        if !resp.ok {
            failures += 1;
        }
        println!("{}", resp.to_line());
    }

    let mut close = Request::new(RequestKind::Close);
    close.id = Some(steps.len() as u64 + 1);
    close.session = Some(session.to_owned());
    let resp = call(&mut client, &close)?;
    let mutations = resp.result_field("mutations").map_or_else(
        || "?".to_owned(),
        |v| serde_json::to_string(v).expect("json"),
    );
    println!(
        "replayed {} steps over session `{session}` ({failures} typed errors, {mutations} mutate requests)",
        steps.len()
    );
    Ok(())
}

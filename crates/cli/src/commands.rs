//! Subcommand implementations.

use std::fs;
use std::sync::Arc;

use localwm_cdfg::designs::{iir4_parallel, table2_design, table2_designs};
use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::{parse_cdfg, write_cdfg, Cdfg};
use localwm_core::{SchedWmConfig, SchedulingWatermarker, Signature};
use localwm_engine::{DesignContext, KindBounds, Parallelism, RecordingProbe};
use localwm_sched::{
    alap_schedule_in, force_directed_schedule_in, list_schedule_in, parse_schedule, write_schedule,
    OpClass, ResourceSet,
};
use localwm_sim::{interpret_in, Inputs};
use localwm_timing::criticality_in;

type CliResult = Result<(), String>;

/// Dispatches a parsed argument vector.
pub fn run(args: &[String]) -> CliResult {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("gen") => gen(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("dot") => dot(&args[1..]),
        Some("embed") => embed(&args[1..]),
        Some("detect") => detect(&args[1..]),
        Some("attack") => crate::attack_cmd::attack(&args[1..]),
        Some("strength") => crate::attack_cmd::strength(&args[1..]),
        Some("schedule") => schedule_cmd(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("serve") => crate::serve_cmd::serve(&args[1..]),
        Some("gateway") => crate::gateway_cmd::gateway(&args[1..]),
        Some("request") => crate::serve_cmd::request(&args[1..]),
        Some("store") => crate::store_cmd::store(&args[1..]),
        Some("chaos") => crate::chaos_cmd::chaos(&args[1..]),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`; try `localwm help`")),
    }
}

const HELP: &str = "localwm — local watermarking of behavioral-synthesis solutions

USAGE:
  localwm gen <design> [--seed N] [-o FILE]
  localwm info <design.cdfg>
  localwm dot <design.cdfg>
  localwm embed <design.cdfg> --author ID [--fraction F | --k K] \\
                [-o schedule.txt] [--marked marked.cdfg]
  localwm detect <design.cdfg> <schedule.txt> --author ID
  localwm attack <design.cdfg> --author ID [--fraction F | --k K] \\
                 [--attack reschedule|rewire|resynth|strip] [--budget B]
                 [--seed N] [-o schedule.txt] [--trace-out FILE]
  localwm strength <design.cdfg> --author ID [--fraction F | --k K]
                   [--budgets B1,B2,...] [--seed N] [--json] [-o FILE]
  localwm strength --corpus DIR --author ID [--budgets B1,B2,...] [--seed N]
                   [--json] [-o FILE]
  localwm schedule <design.cdfg> [--scheduler list|fds|alap] [--steps N]
                   [--alu N] [--mult N] [--mem N] [--branch N]
  localwm simulate <design.cdfg> [--seed N]
  localwm analyze <design.cdfg> [--deadline N] [--lo N --hi N]
                  [--samples N] [--seed N] [--probe-out FILE]
  localwm serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
                [--cache-cap N] [--default-timeout-ms N]
                [--session-idle-ms N] [--metrics-out FILE]
                [--store-dir DIR]
  localwm store <ls|get HASH|verify|compact> --dir DIR [-o FILE]
  localwm gateway --backends [name=]HOST:PORT[,...] [--addr HOST:PORT]
                  [--replicas N] [--max-retries N] [--backoff-base-ms N]
                  [--backoff-cap-ms N] [--recv-timeout-ms N]
                  [--health-interval-ms N|off]
  localwm request <embed|detect|analyze|timing|attack|strength|open|mutate|
                   close|stats|cluster_stats|shutdown>
                  [--addr HOST:PORT] [--design FILE] [--author ID]
                  [--schedule FILE] [--schedule-out FILE] [--fraction F]
                  [--k K] [--deadline N] [--lo N --hi N] [--samples N]
                  [--seed N] [--attack KIND] [--budget B] [--budgets LIST]
                  [--timeout-ms N] [--repeat N]
                  [--session ID] [--edits FILE] [--binary]
  localwm request --edit-trace FILE --design FILE [--session ID]
                  [--addr HOST:PORT]
  localwm chaos [--seed N] [--requests N] [--faults-per-point N]
                [--workers N] [--queue-depth N] [--cache-cap N]
                [--recv-timeout-ms N] [--json] [--report-out FILE]
  localwm chaos --gateway [--seed N] [--requests N] [--backends N]
                [--replicas N] [--no-kill] [--no-restart] [--json]
                [--recv-timeout-ms N] [--report-out FILE]

DESIGNS (for gen):
  iir4 | cf-iir | linear-ge | wavelet | modem | volterra2 | volterra3 |
  dac | echo | mediabench:<dac|g721|epic|pegwit|pgp|gsm|jpeg|mpeg2>";

pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Validates the arguments of a subcommand whose flags all take a value.
/// Returns `Ok(true)` when `--help`/`-h` asked for `usage` (the caller
/// prints it and exits 0), `Ok(false)` when every argument is one of
/// `flags` followed by its value, and an error carrying `usage` for an
/// unknown flag, a stray argument or a flag missing its value.
pub(crate) fn check_flags(args: &[String], flags: &[&str], usage: &str) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(true);
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !flags.contains(&arg.as_str()) {
            let what = if arg.starts_with('-') {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("{what} `{arg}`\n{usage}"));
        }
        if it.next().is_none() {
            return Err(format!("{arg} needs a value\n{usage}"));
        }
    }
    Ok(false)
}

pub(crate) fn positional(args: &[String], idx: usize) -> Option<&str> {
    args.iter()
        .filter(|a| !a.starts_with('-'))
        .scan(false, |skip, a| {
            // Skip flag values: a positional preceded by a flag token is a
            // value, not a positional. Handled by the caller passing only
            // leading positionals in our grammar; keep it simple here.
            let _ = skip;
            Some(a)
        })
        .nth(idx)
        .map(String::as_str)
}

pub(crate) fn load_design(path: &str) -> Result<Cdfg, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_cdfg(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn gen(args: &[String]) -> CliResult {
    let name = positional(args, 0).ok_or("gen: missing design name")?;
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let g = build_design(name, seed)?;
    let text = write_cdfg(&g);
    match flag_value(args, "-o") {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {path}: {} ops, {} edges",
                g.op_count(),
                g.edge_count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn build_design(name: &str, seed: u64) -> Result<Cdfg, String> {
    if name == "iir4" {
        return Ok(iir4_parallel());
    }
    let table2_keys = [
        "cf-iir",
        "linear-ge",
        "wavelet",
        "modem",
        "volterra2",
        "volterra3",
        "dac",
        "echo",
    ];
    if let Some(i) = table2_keys.iter().position(|&k| k == name) {
        return Ok(table2_design(&table2_designs()[i]));
    }
    if let Some(app) = name.strip_prefix("mediabench:") {
        let keys = [
            "dac", "g721", "epic", "pegwit", "pgp", "gsm", "jpeg", "mpeg2",
        ];
        let i = keys
            .iter()
            .position(|&k| k == app)
            .ok_or_else(|| format!("unknown mediabench app `{app}`"))?;
        return Ok(mediabench(&mediabench_apps()[i], seed));
    }
    Err(format!("unknown design `{name}`; try `localwm help`"))
}

fn info(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("info: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let t = ctx.unit_timing();
    let stats = localwm_cdfg::analysis::design_stats(g);
    println!("design          {path}");
    println!("nodes           {}", g.node_count());
    println!("operations      {}", g.op_count());
    println!("edges           {}", g.edge_count());
    println!("variables       {}", g.variable_count());
    println!("critical path   {} control steps", t.critical_path());
    println!("parallelism     {:.1} ops/step", stats.parallelism);
    let mix: Vec<String> = stats
        .op_mix
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    println!("op mix          {}", mix.join(" "));
    Ok(())
}

fn dot(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("dot: missing design file")?;
    let g = load_design(path)?;
    print!("{}", g.to_dot("design"));
    Ok(())
}

/// Watermark parameters shared by `embed`/`detect`/`attack`/`strength`:
/// `--fraction F` sizes the constraint set to F·N edges, `--k K` pins it.
pub(crate) fn wm_config(args: &[String]) -> Result<SchedWmConfig, String> {
    let mut config = SchedWmConfig::default();
    if let Some(f) = flag_value(args, "--fraction") {
        let f: f64 = f.parse().map_err(|_| format!("bad fraction `{f}`"))?;
        config = SchedWmConfig::with_node_fraction(f);
    }
    if let Some(k) = flag_value(args, "--k") {
        config.k = k.parse().map_err(|_| format!("bad k `{k}`"))?;
    }
    Ok(config)
}

fn watermarker(args: &[String]) -> Result<SchedulingWatermarker, String> {
    Ok(SchedulingWatermarker::new(wm_config(args)?))
}

pub(crate) fn signature(args: &[String]) -> Result<Signature, String> {
    flag_value(args, "--author")
        .map(Signature::from_author)
        .ok_or_else(|| "missing --author <id>".to_owned())
}

fn embed(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("embed: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let wm = watermarker(args)?;
    let sig = signature(args)?;
    let emb = wm
        .embed_in(&ctx, &sig, Parallelism::from_env())
        .map_err(|e| e.to_string())?;
    println!(
        "embedded {} temporal edge(s) across {} localit(y/ies); schedule \
         length {} of {}",
        emb.edges.len(),
        emb.domains.len(),
        emb.schedule.length(),
        emb.available_steps
    );
    let text = write_schedule(g, &emb.schedule);
    match flag_value(args, "-o") {
        Some(out) => {
            fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote schedule to {out}");
        }
        None => print!("{text}"),
    }
    if let Some(marked_path) = flag_value(args, "--marked") {
        fs::write(marked_path, write_cdfg(&emb.marked))
            .map_err(|e| format!("writing {marked_path}: {e}"))?;
        println!("wrote constrained specification to {marked_path}");
    }
    Ok(())
}

fn detect(args: &[String]) -> CliResult {
    let design_path = positional(args, 0).ok_or("detect: missing design file")?;
    let sched_path = positional(args, 1).ok_or("detect: missing schedule file")?;
    let ctx = DesignContext::new(load_design(design_path)?);
    let text = fs::read_to_string(sched_path).map_err(|e| format!("reading {sched_path}: {e}"))?;
    let schedule = parse_schedule(ctx.graph(), &text)?;
    let wm = watermarker(args)?;
    let sig = signature(args)?;
    let ev = wm
        .detect_in(&schedule, &ctx, &sig, Parallelism::from_env())
        .map_err(|e| e.to_string())?;
    println!(
        "constraints satisfied: {}/{} ({:.0}%)",
        ev.checks.iter().filter(|&&(_, _, ok)| ok).count(),
        ev.checks.len(),
        100.0 * ev.satisfied_fraction()
    );
    println!("coincidence probability ~ 10^{:.1}", ev.log10_pc);
    if ev.is_match() {
        println!("MATCH: the schedule carries {sig}'s watermark");
        Ok(())
    } else {
        Err("no match: watermark absent or damaged".to_owned())
    }
}

fn schedule_cmd(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("schedule: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let mut rs = ResourceSet::unlimited();
    for (flag, class) in [
        ("--alu", OpClass::Alu),
        ("--mult", OpClass::Multiplier),
        ("--mem", OpClass::Memory),
        ("--branch", OpClass::Branch),
    ] {
        if let Some(v) = flag_value(args, flag) {
            let n: usize = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
            rs = rs.with(class, n);
        }
    }
    let cp = ctx.critical_path();
    let steps: u32 = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|_| format!("bad steps `{v}`")))
        .transpose()?
        .unwrap_or(cp);
    let scheduler = flag_value(args, "--scheduler").unwrap_or("list");
    let s = match scheduler {
        "list" => list_schedule_in(&ctx, &rs, None).map_err(|e| e.to_string())?,
        "fds" => force_directed_schedule_in(&ctx, steps).map_err(|e| e.to_string())?,
        "alap" => alap_schedule_in(&ctx, steps).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown scheduler `{other}` (list|fds|alap)")),
    };
    println!(
        "{} scheduler: {} ops in {} control steps (critical path {})",
        scheduler,
        g.op_count(),
        s.length(),
        cp
    );
    print!("{}", s.render(g));
    Ok(())
}

fn simulate(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("simulate: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| v.parse().map_err(|_| format!("bad seed `{v}`")))
        .transpose()?
        .unwrap_or(0);
    let trace = interpret_in(&ctx, &Inputs::seeded(seed)).map_err(|e| e.to_string())?;
    println!("# outputs (seed {seed})");
    for (n, v) in trace.outputs(g) {
        let name = g.node_name(n).map_or_else(|| n.to_string(), str::to_owned);
        println!("{name} = {v}");
    }
    Ok(())
}

/// Full timing-analysis sweep through the shared engine layer, with
/// optional instrumentation-probe JSON dump (`--probe-out`).
fn analyze(args: &[String]) -> CliResult {
    let path = positional(args, 0).ok_or("analyze: missing design file")?;
    let probe = Arc::new(RecordingProbe::new());
    let ctx = DesignContext::new(load_design(path)?).with_probe(probe.clone());
    let g = ctx.graph();

    let cp = ctx.critical_path();
    let deadline: u32 = flag_value(args, "--deadline")
        .map(|v| v.parse().map_err(|_| format!("bad deadline `{v}`")))
        .transpose()?
        .unwrap_or(cp);
    let lo: u64 = flag_value(args, "--lo")
        .map(|v| v.parse().map_err(|_| format!("bad lo `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let hi: u64 = flag_value(args, "--hi")
        .map(|v| v.parse().map_err(|_| format!("bad hi `{v}`")))
        .transpose()?
        .unwrap_or(3);
    let samples: usize = flag_value(args, "--samples")
        .map(|v| v.parse().map_err(|_| format!("bad samples `{v}`")))
        .transpose()?
        .unwrap_or(200);
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| v.parse().map_err(|_| format!("bad seed `{v}`")))
        .transpose()?
        .unwrap_or(0);
    if lo > hi {
        return Err(format!("bad delay bounds: lo {lo} > hi {hi}"));
    }

    println!("design          {path}");
    println!("operations      {}", g.op_count());
    println!("critical path   {cp} control steps (unit delay)");

    let w = ctx.windows(deadline).map_err(|e| e.to_string())?;
    let zero_mobility = g
        .node_ids()
        .filter(|&n| g.kind(n).is_schedulable() && w.mobility(n) == 0)
        .count();
    println!("deadline        {deadline} steps, {zero_mobility} op(s) with zero mobility");

    let model = KindBounds::uniform(lo, hi);
    let interval = ctx.bounded_critical_path(&model);
    let maybe = ctx.possibly_critical(&model);
    println!(
        "bounded delays  [{lo}, {hi}] per op -> circuit delay in [{}, {}]",
        interval.lo, interval.hi
    );
    println!("possibly critical ops: {}", maybe.len());

    let report = criticality_in(&ctx, &model, samples, seed, Parallelism::from_env());
    let mut hot: Vec<(f64, localwm_cdfg::NodeId)> = g
        .node_ids()
        .filter(|&n| g.kind(n).is_schedulable())
        .map(|n| (report.probability(n), n))
        .collect();
    hot.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    println!(
        "criticality     {samples} samples, seed {seed}; delay p50 {} / p95 {}",
        report.delay_quantile(0.5),
        report.delay_quantile(0.95)
    );
    for &(p, n) in hot.iter().take(5) {
        let name = g.node_name(n).map_or_else(|| n.to_string(), str::to_owned);
        println!("  {name:<12} critical in {:.0}% of samples", 100.0 * p);
    }

    if let Some(out) = flag_value(args, "--probe-out") {
        fs::write(out, probe.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote probe counters to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_design_knows_every_key() {
        assert!(build_design("iir4", 0).is_ok());
        for k in [
            "cf-iir",
            "linear-ge",
            "wavelet",
            "modem",
            "volterra2",
            "volterra3",
        ] {
            assert!(build_design(k, 0).is_ok(), "{k}");
        }
        assert!(build_design("mediabench:g721", 0).is_ok());
        assert!(build_design("bogus", 0).is_err());
        assert!(build_design("mediabench:bogus", 0).is_err());
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["x.cdfg", "--author", "al", "--k", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--author"), Some("al"));
        assert_eq!(flag_value(&args, "--k"), Some("5"));
        assert_eq!(flag_value(&args, "--missing"), None);
        assert_eq!(positional(&args, 0), Some("x.cdfg"));
    }

    #[test]
    fn schedule_and_simulate_subcommands_work() {
        let dir = std::env::temp_dir().join("localwm-cli-test2");
        let _ = fs::create_dir_all(&dir);
        let design = dir.join("d.cdfg");
        let d = design.to_str().unwrap().to_owned();
        run(&["gen".into(), "iir4".into(), "-o".into(), d.clone()]).unwrap();
        run(&[
            "schedule".into(),
            d.clone(),
            "--scheduler".into(),
            "fds".into(),
            "--steps".into(),
            "9".into(),
        ])
        .unwrap();
        run(&["schedule".into(), d.clone(), "--alu".into(), "2".into()]).unwrap();
        run(&["simulate".into(), d.clone(), "--seed".into(), "3".into()]).unwrap();
        assert!(run(&["schedule".into(), d, "--scheduler".into(), "bogus".into()]).is_err());
    }

    #[test]
    fn analyze_subcommand_dumps_probe_counters() {
        let dir = std::env::temp_dir().join("localwm-cli-test3");
        let _ = fs::create_dir_all(&dir);
        let design = dir.join("d.cdfg");
        let probe = dir.join("probe.json");
        let d = design.to_str().unwrap().to_owned();
        let p = probe.to_str().unwrap().to_owned();
        run(&["gen".into(), "iir4".into(), "-o".into(), d.clone()]).unwrap();
        run(&[
            "analyze".into(),
            d.clone(),
            "--lo".into(),
            "1".into(),
            "--hi".into(),
            "3".into(),
            "--samples".into(),
            "50".into(),
            "--probe-out".into(),
            p.clone(),
        ])
        .unwrap();
        let json = fs::read_to_string(&probe).unwrap();
        assert!(json.contains("engine.topo.build"));
        assert!(json.contains("timing.criticality.samples"));
        // lo > hi is rejected.
        assert!(run(&[
            "analyze".into(),
            d,
            "--lo".into(),
            "5".into(),
            "--hi".into(),
            "2".into()
        ])
        .is_err());
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join("localwm-cli-test");
        let _ = fs::create_dir_all(&dir);
        let design = dir.join("d.cdfg");
        let schedule = dir.join("s.txt");
        let d = design.to_str().unwrap().to_owned();
        let s = schedule.to_str().unwrap().to_owned();

        run(&[
            "gen".into(),
            "mediabench:pegwit".into(),
            "-o".into(),
            d.clone(),
        ])
        .unwrap();
        run(&[
            "embed".into(),
            d.clone(),
            "--author".into(),
            "cli-test".into(),
            "-o".into(),
            s.clone(),
        ])
        .unwrap();
        run(&[
            "detect".into(),
            d.clone(),
            s.clone(),
            "--author".into(),
            "cli-test".into(),
        ])
        .unwrap();
        // Wrong author must fail.
        assert!(run(&[
            "detect".into(),
            d,
            s,
            "--author".into(),
            "someone-else".into(),
        ])
        .is_err());
    }
}

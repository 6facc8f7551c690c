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
use localwm_timing::{criticality_in, MAX_SAMPLES};

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
                  [--session ID] [--edits FILE]
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

/// What a subcommand accepts: flags followed by a value, switches that
/// stand alone, and at most `positionals` other arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grammar {
    pub(crate) values: &'static [&'static str],
    pub(crate) switches: &'static [&'static str],
    pub(crate) positionals: usize,
}

/// The arguments a [`Grammar`] accepted. Handlers read their flags from
/// here, and reading a flag the grammar does not list panics, so a flag
/// can never be read without the grammar also accepting it.
#[derive(Debug, PartialEq)]
pub(crate) struct Args<'s> {
    /// The positional arguments, in order.
    pub(crate) positionals: Vec<&'s str>,
    /// Every value flag given, with its value, in order.
    values: Vec<(&'s str, &'s str)>,
    /// Every switch given.
    switches: Vec<&'s str>,
    grammar: Grammar,
}

impl<'s> Args<'s> {
    /// The value of the first `flag` given, if any.
    pub(crate) fn value(&self, flag: &str) -> Option<&'s str> {
        assert!(
            self.grammar.values.contains(&flag),
            "`{flag}` is not a value flag of this grammar"
        );
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// [`Args::value`] parsed as a `T`: `Ok(None)` when the flag is absent.
    pub(crate) fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: `{raw}`")),
        }
    }

    /// Whether `switch` was given.
    pub(crate) fn has(&self, switch: &str) -> bool {
        assert!(
            self.grammar.switches.contains(&switch),
            "`{switch}` is not a switch of this grammar"
        );
        self.switches.contains(&switch)
    }
}

/// Validates a subcommand's arguments against its grammar. Returns
/// `Ok(None)` when `--help`/`-h` asked for `usage` (the caller prints it
/// and exits 0), and otherwise the accepted [`Args`]. An unknown flag, a
/// positional past the grammar's count or a value flag without its value
/// fails with an error carrying `usage`.
pub(crate) fn check_flags<'s>(
    args: &'s [String],
    grammar: &Grammar,
    usage: &str,
) -> Result<Option<Args<'s>>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut parsed = Args {
        positionals: Vec::new(),
        values: Vec::new(),
        switches: Vec::new(),
        grammar: *grammar,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if grammar.values.contains(&arg) {
            let value = it
                .next()
                .ok_or_else(|| format!("{arg} needs a value\n{usage}"))?;
            parsed.values.push((arg, value));
        } else if grammar.switches.contains(&arg) {
            parsed.switches.push(arg);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`\n{usage}"));
        } else if parsed.positionals.len() == grammar.positionals {
            return Err(format!("unexpected argument `{arg}`\n{usage}"));
        } else {
            parsed.positionals.push(arg);
        }
    }
    Ok(Some(parsed))
}

/// The usage text of subcommand `cmd`: its lines of the help text, each
/// form starting `usage: localwm <cmd>`.
pub(crate) fn usage(cmd: &str) -> String {
    let form = format!("  localwm {cmd} ");
    let mut lines = Vec::new();
    let mut inside = false;
    for line in HELP.lines() {
        if line.starts_with(&form) {
            inside = true;
            lines.push(format!("usage:{}", &line[1..]));
        } else if inside && line.starts_with("   ") {
            lines.push(line.to_owned());
        } else {
            inside = false;
        }
    }
    lines.join("\n")
}

/// [`check_flags`] for subcommand `cmd` against its [`usage`]: `Ok(None)`
/// once that usage is printed for `--help`.
pub(crate) fn parse_args<'s>(
    cmd: &str,
    args: &'s [String],
    grammar: &Grammar,
) -> Result<Option<Args<'s>>, String> {
    let usage = usage(cmd);
    let parsed = check_flags(args, grammar, &usage)?;
    if parsed.is_none() {
        println!("{usage}");
    }
    Ok(parsed)
}

pub(crate) fn load_design(path: &str) -> Result<Cdfg, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_cdfg(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn gen(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &["--seed", "-o"],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("gen", args, &grammar)? else {
        return Ok(());
    };
    let name = flags
        .positionals
        .first()
        .ok_or("gen: missing design name")?;
    let seed: u64 = flags
        .value("--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(0);
    let g = build_design(name, seed)?;
    let text = write_cdfg(&g);
    match flags.value("-o") {
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
    let grammar = Grammar {
        values: &[],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("info", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("info: missing design file")?;
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
    let grammar = Grammar {
        values: &[],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("dot", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("dot: missing design file")?;
    let g = load_design(path)?;
    print!("{}", g.to_dot("design"));
    Ok(())
}

/// Watermark parameters shared by `embed`/`detect`/`attack`/`strength`:
/// `--fraction F` sizes the constraint set to F·N edges, `--k K` pins it.
pub(crate) fn wm_config(flags: &Args) -> Result<SchedWmConfig, String> {
    let mut config = SchedWmConfig::default();
    if let Some(f) = flags.value("--fraction") {
        let f: f64 = f.parse().map_err(|_| format!("bad fraction `{f}`"))?;
        config = SchedWmConfig::with_node_fraction(f);
    }
    if let Some(k) = flags.value("--k") {
        config.k = k.parse().map_err(|_| format!("bad k `{k}`"))?;
    }
    Ok(config)
}

fn watermarker(flags: &Args) -> Result<SchedulingWatermarker, String> {
    Ok(SchedulingWatermarker::new(wm_config(flags)?))
}

pub(crate) fn signature(flags: &Args) -> Result<Signature, String> {
    flags
        .value("--author")
        .map(Signature::from_author)
        .ok_or_else(|| "missing --author <id>".to_owned())
}

fn embed(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &["--author", "--fraction", "--k", "-o", "--marked"],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("embed", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("embed: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let wm = watermarker(&flags)?;
    let sig = signature(&flags)?;
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
    match flags.value("-o") {
        Some(out) => {
            fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote schedule to {out}");
        }
        None => print!("{text}"),
    }
    if let Some(marked_path) = flags.value("--marked") {
        fs::write(marked_path, write_cdfg(&emb.marked))
            .map_err(|e| format!("writing {marked_path}: {e}"))?;
        println!("wrote constrained specification to {marked_path}");
    }
    Ok(())
}

fn detect(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &["--author", "--fraction", "--k"],
        switches: &[],
        positionals: 2,
    };
    let Some(flags) = parse_args("detect", args, &grammar)? else {
        return Ok(());
    };
    let design_path = *flags
        .positionals
        .first()
        .ok_or("detect: missing design file")?;
    let sched_path = *flags
        .positionals
        .get(1)
        .ok_or("detect: missing schedule file")?;
    let ctx = DesignContext::new(load_design(design_path)?);
    let text = fs::read_to_string(sched_path).map_err(|e| format!("reading {sched_path}: {e}"))?;
    let schedule = parse_schedule(ctx.graph(), &text)?;
    let wm = watermarker(&flags)?;
    let sig = signature(&flags)?;
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
    let grammar = Grammar {
        values: &[
            "--scheduler",
            "--steps",
            "--alu",
            "--mult",
            "--mem",
            "--branch",
        ],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("schedule", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("schedule: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let mut rs = ResourceSet::unlimited();
    for (flag, class) in [
        ("--alu", OpClass::Alu),
        ("--mult", OpClass::Multiplier),
        ("--mem", OpClass::Memory),
        ("--branch", OpClass::Branch),
    ] {
        if let Some(v) = flags.value(flag) {
            let n: usize = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
            rs = rs.with(class, n);
        }
    }
    let cp = ctx.critical_path();
    let steps: u32 = flags
        .value("--steps")
        .map(|v| v.parse().map_err(|_| format!("bad steps `{v}`")))
        .transpose()?
        .unwrap_or(cp);
    let scheduler = flags.value("--scheduler").unwrap_or("list");
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
    let grammar = Grammar {
        values: &["--seed"],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("simulate", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("simulate: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let g = ctx.graph();
    let seed: u64 = flags
        .value("--seed")
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
    let grammar = Grammar {
        values: &[
            "--deadline",
            "--lo",
            "--hi",
            "--samples",
            "--seed",
            "--probe-out",
        ],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("analyze", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("analyze: missing design file")?;
    // Checked before the design is read: the kernel allocates per sample.
    let samples: usize = flags
        .value("--samples")
        .map(|v| match v.parse() {
            Ok(n) if (1..=MAX_SAMPLES).contains(&n) => Ok(n),
            Ok(_) => Err(format!("bad samples `{v}`: outside 1..={MAX_SAMPLES}")),
            Err(_) => Err(format!("bad samples `{v}`")),
        })
        .transpose()?
        .unwrap_or(200);
    let probe = Arc::new(RecordingProbe::new());
    let ctx = DesignContext::new(load_design(path)?).with_probe(probe.clone());
    let g = ctx.graph();

    let cp = ctx.critical_path();
    let deadline: u32 = flags
        .value("--deadline")
        .map(|v| v.parse().map_err(|_| format!("bad deadline `{v}`")))
        .transpose()?
        .unwrap_or(cp);
    let lo: u64 = flags
        .value("--lo")
        .map(|v| v.parse().map_err(|_| format!("bad lo `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let hi: u64 = flags
        .value("--hi")
        .map(|v| v.parse().map_err(|_| format!("bad hi `{v}`")))
        .transpose()?
        .unwrap_or(3);
    let seed: u64 = flags
        .value("--seed")
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
    println!(
        "criticality     {samples} samples, seed {seed}; delay p50 {} / p95 {}",
        report.delay_quantile(0.5),
        report.delay_quantile(0.95)
    );
    for (n, p) in report.top_critical(5, |n| g.kind(n).is_schedulable()) {
        let name = g.node_name(n).map_or_else(|| n.to_string(), str::to_owned);
        println!("  {name:<12} critical in {:.0}% of samples", 100.0 * p);
    }

    if let Some(out) = flags.value("--probe-out") {
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
        let strings = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = strings(&["x.cdfg", "--author", "al", "--k", "5", "--k", "6"]);
        let grammar = Grammar {
            values: &["--author", "--k", "--missing"],
            switches: &["--json"],
            positionals: 1,
        };
        let parsed = check_flags(&args, &grammar, "u").unwrap().unwrap();
        assert_eq!(parsed.positionals, vec!["x.cdfg"]);
        assert_eq!(parsed.value("--author"), Some("al"));
        assert_eq!(parsed.value("--k"), Some("5"));
        assert_eq!(parsed.parse::<u32>("--k"), Ok(Some(5)));
        assert_eq!(
            parsed.parse::<u32>("--author"),
            Err("bad value for --author: `al`".to_owned())
        );
        assert_eq!(parsed.value("--missing"), None);
        assert!(!parsed.has("--json"));
        let flags_first = strings(&["--k", "5", "--json", "x.cdfg"]);
        let parsed = check_flags(&flags_first, &grammar, "u").unwrap().unwrap();
        assert_eq!(parsed.positionals, vec!["x.cdfg"]);
        assert!(parsed.has("--json"));
        for (bad, why) in [
            (
                strings(&["x.cdfg", "y.cdfg"]),
                "unexpected argument `y.cdfg`\nu",
            ),
            (strings(&["x.cdfg", "--kk", "5"]), "unknown flag `--kk`\nu"),
            (
                strings(&["x.cdfg", "--author"]),
                "--author needs a value\nu",
            ),
        ] {
            assert_eq!(check_flags(&bad, &grammar, "u"), Err(why.to_owned()));
        }
        assert_eq!(
            check_flags(&strings(&["-h", "--kk"]), &grammar, "u"),
            Ok(None)
        );
    }

    #[test]
    #[should_panic(expected = "`--seed` is not a value flag of this grammar")]
    fn reading_a_flag_outside_the_grammar_panics() {
        let grammar = Grammar {
            values: &["--k"],
            switches: &[],
            positionals: 0,
        };
        let args: Vec<String> = Vec::new();
        let parsed = check_flags(&args, &grammar, "u").unwrap().unwrap();
        let _ = parsed.value("--seed");
    }

    #[test]
    fn every_subcommand_has_usage_text() {
        for cmd in [
            "gen", "info", "dot", "embed", "detect", "attack", "strength", "schedule", "simulate",
            "analyze", "serve", "store", "gateway", "request", "chaos",
        ] {
            let usage = usage(cmd);
            assert!(
                usage.starts_with(&format!("usage: localwm {cmd}")),
                "{cmd}: {usage}"
            );
        }
        assert_eq!(
            usage("strength").matches("usage: localwm strength").count(),
            2
        );
        assert!(usage("serve").contains("[--store-dir DIR]"));
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

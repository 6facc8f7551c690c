//! `localwm attack` / `localwm strength` — the adversarial robustness
//! front end.
//!
//! `attack` runs one seeded, budgeted transformation against a freshly
//! watermarked schedule and reports what evidence survives; `strength`
//! sweeps every attack kind over a budget grid and prints the design's
//! robustness table (or, with `--corpus DIR`, the corpus-wide aggregate).
//! Both are pure functions of `(design, author, seed)` — rerunning with
//! the same arguments reproduces the same bytes.

use std::fs;
use std::path::PathBuf;

use localwm_attack::{
    aggregate, attack_once_in, strength_report_in, AttackConfig, AttackKind, BudgetRow,
    StrengthConfig, StrengthReport, DEFAULT_BUDGETS, MAX_BUDGETS,
};
use localwm_core::Signature;
use localwm_engine::{DesignContext, Parallelism};
use localwm_sched::write_schedule;
use serde::{object, Serialize, Value};

use crate::commands::{load_design, parse_args, signature, wm_config, Args, Grammar};

type CliResult = Result<(), String>;

fn parse_seed(flags: &Args) -> Result<u64, String> {
    match flags.value("--seed") {
        None => Ok(0),
        Some(raw) => raw.parse().map_err(|_| format!("bad seed `{raw}`")),
    }
}

fn parse_budget_value(raw: &str) -> Result<f64, String> {
    let b: f64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("bad budget `{raw}`"))?;
    if !(0.0..=1.0).contains(&b) {
        return Err(format!("budget `{raw}` outside [0, 1]"));
    }
    Ok(b)
}

fn parse_budgets(flags: &Args) -> Result<Vec<f64>, String> {
    match flags.value("--budgets") {
        None => Ok(DEFAULT_BUDGETS.to_vec()),
        Some(raw) => {
            let budgets: Vec<f64> = raw
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(parse_budget_value)
                .collect::<Result<_, _>>()?;
            if budgets.is_empty() {
                return Err("--budgets lists no budget levels".to_owned());
            }
            if budgets.len() > MAX_BUDGETS {
                return Err(format!(
                    "--budgets lists {} levels; at most {MAX_BUDGETS} are allowed",
                    budgets.len()
                ));
            }
            Ok(budgets)
        }
    }
}

/// `localwm attack <design.cdfg> --author ID [--attack KIND] [--budget B]
/// [--seed N] [--fraction F | --k K] [-o schedule.txt] [--trace-out FILE]`
pub fn attack(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &[
            "--author",
            "--fraction",
            "--k",
            "--attack",
            "--budget",
            "--seed",
            "-o",
            "--trace-out",
        ],
        switches: &[],
        positionals: 1,
    };
    let Some(flags) = parse_args("attack", args, &grammar)? else {
        return Ok(());
    };
    let path = *flags
        .positionals
        .first()
        .ok_or("attack: missing design file")?;
    let ctx = DesignContext::new(load_design(path)?);
    let sig = signature(&flags)?;
    let kind_raw = flags.value("--attack").unwrap_or("reschedule");
    let kind = AttackKind::parse(kind_raw).ok_or_else(|| {
        format!("unknown attack kind `{kind_raw}` (reschedule|rewire|resynth|strip)")
    })?;
    let budget = match flags.value("--budget") {
        None => 0.25,
        Some(raw) => parse_budget_value(raw)?,
    };
    let seed = parse_seed(&flags)?;
    let run = attack_once_in(
        &ctx,
        &sig,
        Parallelism::from_env(),
        &AttackConfig { kind, budget, seed },
        &wm_config(&flags)?,
    )
    .map_err(|e| e.to_string())?;

    let cell = &run.cell;
    println!("attack          {kind} at budget {budget} (seed {seed})");
    println!("edits applied   {}", cell.edits);
    println!("wm edges        {}", run.wm_edges);
    println!(
        "constraints     {}/{} still satisfied",
        cell.satisfied, cell.checked
    );
    println!(
        "schedule length {} -> {} ({:+} steps)",
        run.baseline_length, cell.schedule_length, cell.steps_delta
    );
    println!(
        "coincidence     ~10^{:.1} (strength {:.6})",
        cell.log10_pc, cell.strength
    );
    if let Some(out) = flags.value("-o") {
        let text = write_schedule(&run.outcome.graph, &run.outcome.schedule);
        fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote attacked schedule to {out}");
    }
    if let Some(out) = flags.value("--trace-out") {
        fs::write(out, run.outcome.trace.render()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote attack trace to {out}");
    }
    if cell.survived {
        println!("SURVIVED: the watermark still attributes authorship");
    } else {
        println!("DEFEATED: detection no longer attributes authorship");
    }
    Ok(())
}

/// `localwm strength <design.cdfg> --author ID [--budgets B,B,...] [--seed N]
/// [--fraction F | --k K] [--json] [-o FILE]`, or
/// `localwm strength --corpus DIR --author ID [...]` for the corpus-wide
/// aggregated table.
pub fn strength(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &[
            "--author",
            "--fraction",
            "--k",
            "--budgets",
            "--seed",
            "-o",
            "--corpus",
        ],
        switches: &["--json"],
        positionals: 1,
    };
    let Some(flags) = parse_args("strength", args, &grammar)? else {
        return Ok(());
    };
    let sig = signature(&flags)?;
    let cfg = StrengthConfig {
        budgets: parse_budgets(&flags)?,
        seed: parse_seed(&flags)?,
        wm: wm_config(&flags)?,
    };
    let par = Parallelism::from_env();
    let json = flags.has("--json");
    let out = flags.value("-o");

    if let Some(dir) = flags.value("--corpus") {
        return corpus_strength(dir, &sig, par, &cfg, json, out);
    }

    let path = *flags
        .positionals
        .first()
        .ok_or("strength: missing design file (or --corpus DIR)")?;
    let ctx = DesignContext::new(load_design(path)?);
    let report = strength_report_in(&ctx, &sig, par, &cfg).map_err(|e| e.to_string())?;
    if json {
        emit(&report.to_value(), out)
    } else {
        println!("design          {path}");
        print_report(&report);
        Ok(())
    }
}

/// Sweeps every `.cdfg` design under `dir` (in name order, so the table is
/// deterministic) and aggregates the per-budget rows corpus-wide. Designs
/// that cannot host the watermark (e.g. fully serial ones) are reported on
/// stderr and skipped, not fatal: their typed error is part of the answer.
fn corpus_strength(
    dir: &str,
    sig: &Signature,
    par: Parallelism,
    cfg: &StrengthConfig,
    json: bool,
    out: Option<&str>,
) -> CliResult {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "cdfg"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir} holds no .cdfg designs"));
    }

    let mut reports: Vec<(String, StrengthReport)> = Vec::new();
    let mut skipped: Vec<(String, String)> = Vec::new();
    for path in &paths {
        let shown = path.to_str().ok_or("non-UTF-8 path in corpus")?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(shown)
            .to_owned();
        let ctx = DesignContext::new(load_design(shown)?);
        match strength_report_in(&ctx, sig, par, cfg) {
            Ok(report) => reports.push((name, report)),
            Err(e) => {
                eprintln!("{name}: skipped ({e})");
                skipped.push((name, e.to_string()));
            }
        }
    }
    if reports.is_empty() {
        return Err("no design in the corpus accepted the watermark".to_owned());
    }
    let rows = aggregate(reports.iter().map(|(_, r)| r));

    if json {
        let designs: Vec<Value> = reports
            .iter()
            .map(|(name, report)| {
                object(vec![
                    ("name", name.to_value()),
                    ("report", report.to_value()),
                ])
            })
            .collect();
        let skips: Vec<Value> = skipped
            .iter()
            .map(|(name, error)| {
                object(vec![("name", name.to_value()), ("error", error.to_value())])
            })
            .collect();
        let value = object(vec![
            ("seed", cfg.seed.to_value()),
            ("designs", Value::Array(designs)),
            ("skipped", Value::Array(skips)),
            ("aggregate", rows.to_value()),
        ]);
        emit(&value, out)
    } else {
        for (name, report) in &reports {
            println!("design          {name}");
            print_report(report);
            println!();
        }
        println!(
            "corpus          {} design(s), {} skipped",
            reports.len(),
            skipped.len()
        );
        print_rows(&rows);
        Ok(())
    }
}

fn print_report(report: &StrengthReport) {
    println!("operations      {}", report.ops);
    println!("wm edges        {}", report.wm_edges);
    println!(
        "baseline        length {}, coincidence ~10^{:.1}",
        report.baseline_length, report.baseline_log10_pc
    );
    println!("seed            {}", report.seed);
    print_rows(&report.rows);
}

fn print_rows(rows: &[BudgetRow]) {
    println!(
        "{:>8}  {:>9}  {:>9}  {:>11}",
        "budget", "survival", "strength", "steps-delta"
    );
    for row in rows {
        println!(
            "{:>8.2}  {:>8.0}%  {:>9.6}  {:>+11.2}",
            row.budget,
            100.0 * row.survival_rate,
            row.mean_strength,
            row.mean_steps_delta
        );
    }
}

fn emit(value: &Value, out: Option<&str>) -> CliResult {
    let mut rendered = serde_json::to_string_pretty(value).expect("report serialization");
    rendered.push('\n');
    match out {
        Some(path) => {
            fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote report to {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::fs;

    use crate::commands::run;

    fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::create_dir_all(&dir);
        dir
    }

    #[test]
    fn attack_subcommand_writes_schedule_and_trace() {
        let dir = temp("localwm-cli-attack");
        let design = dir.join("d.cdfg");
        let sched = dir.join("attacked.txt");
        let trace = dir.join("trace.txt");
        let d = design.to_str().unwrap().to_owned();
        run(&["gen".into(), "iir4".into(), "-o".into(), d.clone()]).unwrap();
        run(&[
            "attack".into(),
            d.clone(),
            "--author".into(),
            "cli-attack".into(),
            "--attack".into(),
            "rewire".into(),
            "--budget".into(),
            "0.4".into(),
            "--seed".into(),
            "9".into(),
            "-o".into(),
            sched.to_str().unwrap().into(),
            "--trace-out".into(),
            trace.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(fs::read_to_string(&sched)
            .unwrap()
            .starts_with("# localwm schedule v1"));
        assert!(fs::read_to_string(&trace)
            .unwrap()
            .starts_with("attack rewire"));
        // Unknown kinds and out-of-range budgets are rejected.
        assert!(run(&[
            "attack".into(),
            d.clone(),
            "--author".into(),
            "a".into(),
            "--attack".into(),
            "bogus".into(),
        ])
        .is_err());
        assert!(run(&[
            "attack".into(),
            d,
            "--author".into(),
            "a".into(),
            "--budget".into(),
            "1.5".into(),
        ])
        .is_err());
    }

    #[test]
    fn strength_subcommand_sweeps_one_design() {
        let dir = temp("localwm-cli-strength");
        let design = dir.join("d.cdfg");
        let d = design.to_str().unwrap().to_owned();
        run(&["gen".into(), "iir4".into(), "-o".into(), d.clone()]).unwrap();
        run(&[
            "strength".into(),
            d.clone(),
            "--author".into(),
            "cli-strength".into(),
            "--budgets".into(),
            "0,0.3".into(),
            "--seed".into(),
            "5".into(),
        ])
        .unwrap();
        // Malformed budget lists are rejected.
        assert!(run(&[
            "strength".into(),
            d.clone(),
            "--author".into(),
            "a".into(),
            "--budgets".into(),
            "0,nope".into(),
        ])
        .is_err());
        assert!(run(&[
            "strength".into(),
            d,
            "--author".into(),
            "a".into(),
            "--budgets".into(),
            ", ,".into(),
        ])
        .is_err());
    }

    #[test]
    fn corpus_strength_is_deterministic_and_skips_serial_designs() {
        let dir = temp("localwm-cli-corpus");
        let corpus = dir.join("designs");
        let _ = fs::create_dir_all(&corpus);
        let a = corpus.join("a.cdfg");
        let b = corpus.join("b.cdfg");
        run(&[
            "gen".into(),
            "iir4".into(),
            "-o".into(),
            a.to_str().unwrap().into(),
        ])
        .unwrap();
        // linear-ge is fully serial: it cannot host the watermark and must
        // be skipped with its typed error, not abort the sweep.
        run(&[
            "gen".into(),
            "linear-ge".into(),
            "-o".into(),
            b.to_str().unwrap().into(),
        ])
        .unwrap();
        let sweep = |out: &str| {
            run(&[
                "strength".into(),
                "--corpus".into(),
                corpus.to_str().unwrap().into(),
                "--author".into(),
                "cli-corpus".into(),
                "--budgets".into(),
                "0,0.25".into(),
                "--seed".into(),
                "2".into(),
                "--json".into(),
                "-o".into(),
                out.into(),
            ])
            .unwrap();
        };
        let r1 = dir.join("r1.json");
        let r2 = dir.join("r2.json");
        sweep(r1.to_str().unwrap());
        sweep(r2.to_str().unwrap());
        let j1 = fs::read_to_string(&r1).unwrap();
        assert_eq!(
            j1,
            fs::read_to_string(&r2).unwrap(),
            "corpus sweep must be reproducible"
        );
        assert!(j1.contains("\"aggregate\""));
        assert!(j1.contains("a.cdfg"));
        assert!(j1.contains("\"skipped\""));
        assert!(
            j1.contains("b.cdfg"),
            "serial design lands in the skipped list"
        );
    }
}

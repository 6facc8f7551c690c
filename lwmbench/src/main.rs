//! `lwm-bench`: run one workload, or compare two sets of runs.
//!
//! ```text
//! lwm-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--out <report.json>] [--out-dir <dir>]
//! lwm-bench compare [--bounds BENCHMARK.json] <parent reports…> -- <change reports…>
//! ```
//!
//! A run prints one `name value unit` line per metric, writes its full
//! report as JSON, and ends its output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when any
//! answer was wrong and 2 when it could not run.

use std::path::PathBuf;
use std::process::ExitCode;

use localwm_e2e_bench::compare::{compare, parse_bounds, parse_run, render, Run, Verdict};
use localwm_e2e_bench::harness::render_lines;
use localwm_e2e_bench::{run, RunConfig, Shape, Workload};

const USAGE: &str =
    "usage: lwm-bench --workload <timing-open|analyze-closed|watermark-batch|edit-session> \
--seed <n> [--seconds <s>] [--trace 0|1] [--out <report.json>] [--out-dir <dir>]\n       \
lwm-bench compare [--bounds BENCHMARK.json] <parent reports…> -- <change reports…>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        run_cmd(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("lwm-bench: {e}");
        ExitCode::from(2)
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut out = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    let seed = seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir.clone(),
        shape: Shape::full(),
    };
    let report = run(&cfg)?;
    print!("{}", render_lines(&report.metrics));
    print!("{}", render_lines(&report.extra));
    println!("workload_digest {:016x}", report.digest);
    for f in &report.failures {
        eprintln!("lwm-bench: {f}");
    }
    let out = out.unwrap_or_else(|| {
        out_dir.join(format!(
            "{}-seed{seed}{}.json",
            workload.name(),
            if trace { "-trace" } else { "" }
        ))
    });
    let json = serde_json::to_string_pretty(&report.to_value()).expect("report serializes");
    std::fs::write(&out, json + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut after_split = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a path")?),
            "--" => after_split = true,
            path if after_split => change.push(read_run(path)?),
            path => parent.push(read_run(path)?),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err(format!("compare needs parent and change reports\n{USAGE}"));
    }
    let text = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("{}: {e}", bounds_path.display()))?;
    let rows = compare(&parent, &change, &parse_bounds(&text)?)?;
    print!("{}", render(&rows));
    let regressed = rows
        .values()
        .flatten()
        .any(|c| c.verdict == Verdict::Regression);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn read_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_run(&text).map_err(|e| format!("{path}: {e}"))
}

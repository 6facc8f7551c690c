//! `lwm-bench compare`: parent runs against change runs, per workload and
//! end-to-end metric.
//!
//! Runs pair up in the order given (run them alternating parent and
//! change); pair `i` of a workload must share its seed, and every run its
//! length and `trace` setting. A metric shows a **gain** only when the
//! change wins at least nine tenths of the pairs (ties count for neither)
//! *and* the medians differ by more than the parent's interquartile
//! range. It shows a **regression** when the change's median is worse
//! than the parent's by more than the metric's bound, and is
//! **unresolved** when either side's spread (IQR over median) exceeds the
//! bound, unless every change run beats every parent run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::harness::{median, quartiles};

/// One end-to-end metric's comparison rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The settings and metric values of one run, from its `--out` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, beyond noise.
    Gain,
    /// The change is worse than the bound allows.
    Regression,
    /// The runs spread wider than the bound; no claim either way.
    Unresolved,
    /// Within the bound.
    Same,
}

/// One metric's cell in a workload row.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Metric name.
    pub metric: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Reads the end-to-end bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or a metric without `name`, `better` and `bound`.
pub fn parse_bounds(json: &str) -> Result<Vec<Bound>, String> {
    let v = serde_json::from_str_value(json).map_err(|e| e.to_string())?;
    let Some(Value::Array(metrics)) = v.field("end_to_end") else {
        return Err("no end_to_end list".to_owned());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.field("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end metric without a name".to_owned()),
            };
            let lower_is_better = match m.field("better") {
                Some(Value::Str(s)) => s == "lower",
                _ => return Err(format!("{name}: no `better`")),
            };
            let bound = m
                .field("bound")
                .and_then(num)
                .ok_or(format!("{name}: no `bound`"))?;
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// Reads a run report written by `--out`.
///
/// # Errors
///
/// Malformed JSON or a report without `workload`, `seed`, `seconds`,
/// `trace` and `metrics`.
pub fn parse_run(json: &str) -> Result<Run, String> {
    let v = serde_json::from_str_value(json).map_err(|e| e.to_string())?;
    let workload = match v.field("workload") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("report without a workload".to_owned()),
    };
    let seed = match v.field("seed") {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        _ => return Err("report without a seed".to_owned()),
    };
    let seconds = v
        .field("seconds")
        .and_then(num)
        .ok_or("report without seconds")?;
    let Some(&Value::Bool(trace)) = v.field("trace") else {
        return Err("report without a trace setting".to_owned());
    };
    let Some(Value::Object(fields)) = v.field("metrics") else {
        return Err("report without metrics".to_owned());
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.field("value").and_then(num)?)))
        .collect();
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        metrics,
    })
}

/// Checks that the two run sets measured the same thing: every run has
/// the same `trace` setting and length, and per workload the sides have
/// as many runs, pair `i` sharing one seed.
///
/// # Errors
///
/// Names the first mismatch.
pub fn check_comparable(parent: &[Run], change: &[Run]) -> Result<(), String> {
    let first = parent.first().or(change.first()).ok_or("no runs")?;
    for r in parent.iter().chain(change) {
        if r.trace != first.trace || r.seconds != first.seconds {
            return Err(format!(
                "runs differ in settings: {} s trace={} against {} s trace={}",
                first.seconds, first.trace, r.seconds, r.trace
            ));
        }
    }
    let workloads: std::collections::BTreeSet<&str> = parent
        .iter()
        .chain(change)
        .map(|r| r.workload.as_str())
        .collect();
    for w in workloads {
        let seeds = |runs: &[Run]| -> Vec<u64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.seed)
                .collect()
        };
        let (p, c) = (seeds(parent), seeds(change));
        if p != c {
            return Err(format!(
                "{w}: parent seeds {p:?} do not pair with change seeds {c:?}"
            ));
        }
    }
    Ok(())
}

/// Compares one metric's parent and change values (in run order).
pub fn judge(parent: &[f64], change: &[f64], bound: &Bound) -> Cell {
    // Positive when `to` is better than `from`.
    let better = |from: f64, to: f64| {
        if bound.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(p, c) > 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let iqr = |v: &[f64]| {
        if v.len() < 2 {
            0.0
        } else {
            let (q1, q3) = quartiles(v);
            q3 - q1
        }
    };
    let spread = |v: &[f64]| iqr(v) / median(v).abs().max(f64::MIN_POSITIVE);
    let parent_iqr = iqr(parent);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(p, c) > 0.0));
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && better(pm, cm) > parent_iqr {
        Verdict::Gain
    } else if -better(pm, cm) > bound.bound * pm.abs() {
        Verdict::Regression
    } else if (spread(parent) > bound.bound || spread(change) > bound.bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Cell {
        metric: bound.name.clone(),
        parent: pm,
        change: cm,
        wins,
        pairs,
        verdict,
    }
}

/// One row per workload: every bounded metric both sides reported.
///
/// # Errors
///
/// The run sets are not comparable (see [`check_comparable`]).
pub fn compare(
    parent: &[Run],
    change: &[Run],
    bounds: &[Bound],
) -> Result<BTreeMap<String, Vec<Cell>>, String> {
    check_comparable(parent, change)?;
    let mut rows = BTreeMap::new();
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let side = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        let cells: Vec<Cell> = bounds
            .iter()
            .filter_map(|b| {
                let (p, c) = (side(parent, &b.name), side(change, &b.name));
                (!p.is_empty() && !c.is_empty()).then(|| judge(&p, &c, b))
            })
            .collect();
        rows.insert(w.to_owned(), cells);
    }
    Ok(rows)
}

/// Renders the rows, one line per workload.
pub fn render(rows: &BTreeMap<String, Vec<Cell>>) -> String {
    let mut out = String::new();
    for (w, cells) in rows {
        let _ = write!(out, "{w}:");
        for c in cells {
            let pct = if c.parent == 0.0 {
                0.0
            } else {
                100.0 * (c.change / c.parent - 1.0)
            };
            let _ = write!(
                out,
                "  {} {:?} ({:.4}→{:.4}, {pct:+.1}%, wins {}/{})",
                c.metric, c.verdict, c.parent, c.change, c.wins, c.pairs
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(bound: f64) -> Bound {
        Bound {
            name: "p50_ms".to_owned(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn identical_run_sets_are_the_same() {
        let v = [10.0, 10.2, 9.9, 10.1, 10.0];
        let c = judge(&v, &v, &bound(0.1));
        assert_eq!(c.verdict, Verdict::Same);
        assert_eq!(c.wins, 0, "ties count for neither side");
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.05 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        assert_eq!(judge(&parent, &change, &bound(0.1)).verdict, Verdict::Gain);
        // Wins every pair but by less than the parent's own spread.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(judge(&parent, &close, &bound(0.1)).verdict, Verdict::Same);
        // A large median gap but only 8 of 10 pairs won.
        let mut mixed = change.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_ne!(judge(&parent, &mixed, &bound(0.1)).verdict, Verdict::Gain);
    }

    #[test]
    fn worsening_past_the_bound_is_a_regression() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let worse = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(
            judge(&parent, &worse, &bound(0.1)).verdict,
            Verdict::Regression
        );
        let higher_better = Bound {
            lower_is_better: false,
            ..bound(0.05)
        };
        let slower = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(
            judge(&parent, &slower, &higher_better).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&parent, &worse, &higher_better).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [10.0, 14.0, 7.0, 12.0, 9.0];
        let change = [10.5, 13.0, 8.0, 11.0, 9.5];
        assert_eq!(
            judge(&parent, &change, &bound(0.1)).verdict,
            Verdict::Unresolved
        );
    }

    fn run(w: &str, seed: u64, v: f64) -> Run {
        Run {
            workload: w.to_owned(),
            seed,
            seconds: 25.0,
            trace: false,
            metrics: [("p50_ms".to_owned(), v)].into_iter().collect(),
        }
    }

    #[test]
    fn rows_group_runs_by_workload() {
        let parent = vec![
            run("a", 1, 1.0),
            run("b", 1, 5.0),
            run("a", 2, 1.0),
            run("b", 2, 5.0),
        ];
        let change = vec![
            run("a", 1, 1.0),
            run("b", 1, 9.0),
            run("a", 2, 1.0),
            run("b", 2, 9.0),
        ];
        let rows = compare(&parent, &change, &[bound(0.1)]).unwrap();
        assert_eq!(rows["a"][0].verdict, Verdict::Same);
        assert_eq!(rows["b"][0].verdict, Verdict::Regression);
        assert!(render(&rows).lines().count() == 2);
        let json = r#"{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#;
        assert_eq!(parse_bounds(json).unwrap(), vec![bound(0.1)]);
        let report = r#"{"workload":"a","seed":3,"seconds":25.0,"trace":false,
            "metrics":{"p50_ms":{"value":1.5,"unit":"ms"}}}"#;
        let parsed = parse_run(report).unwrap();
        assert_eq!((parsed.seed, parsed.metrics["p50_ms"]), (3, 1.5));
        assert!(parse_run(r#"{"workload":"a","metrics":{}}"#).is_err());
    }

    #[test]
    fn run_sets_measured_differently_are_refused() {
        let parent = vec![run("a", 1, 1.0), run("a", 2, 1.0)];
        let b = [bound(0.1)];
        // Pairs must share a seed.
        let swapped = vec![run("a", 2, 1.0), run("a", 1, 1.0)];
        assert!(compare(&parent, &swapped, &b).is_err());
        // And the sides must have as many runs.
        assert!(compare(&parent, &parent[..1], &b).is_err());
        // Every run must share the trace setting and the length.
        let mut traced = parent.clone();
        traced[1].trace = true;
        assert!(compare(&parent, &traced, &b).is_err());
        let mut longer = parent.clone();
        longer[0].seconds = 30.0;
        assert!(compare(&parent, &longer, &b).is_err());
        assert!(compare(&parent, &parent, &b).is_ok());
    }
}

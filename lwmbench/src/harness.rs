//! Measurement primitives shared by every workload: percentiles that
//! refuse to report a tail the sample cannot support, median and
//! quartiles, peak memory, host facts, the open-loop schedule, and the
//! report writer.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde::Value;

/// A percentile is reported only when at least this many samples lie
/// beyond it; `p99` therefore needs 1000 samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `sorted` (ascending).
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    // Integer rank in per-mille steps, so 99 % of 1000 is exactly 990.
    let per_mille = (p * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median, averaging the two middle values of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default `exclusive` method), so spreads read the
/// same here and in any Python check of the same runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Facts about the machine and build that a result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub git_sha: String,
}

impl Host {
    /// Reads the host facts for the current directory.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_sha: git_sha().unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// Resolves `.git/HEAD` without running git.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// A fixed open-loop schedule: send `i` of this sender is due at
/// `start + offset + i · period`, whatever happened to earlier sends.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Time zero of the phase.
    pub start: Instant,
    /// Gap between consecutive sends.
    pub period: Duration,
    /// Shift of this sender's first send, so senders interleave.
    pub offset: Duration,
}

impl Schedule {
    /// When send `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset + self.period.mul_f64(i as f64)
    }

    /// How late send `i` went out (zero when on time or early).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `p50_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// Renders metrics as `name value unit` lines.
pub fn render_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
    }
    out
}

/// Metrics as a JSON object `{name: {"value": v, "unit": u}}`.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Float(m.value)),
                        ("unit".to_owned(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_boundaries() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 99.0), Ok(990.0));
        assert_eq!(percentile(&s, 50.0), Ok(500.0));
        assert_eq!(percentile(&s, 100.0 * 1.0 / 1000.0), Ok(1.0));
        // p0 still names the smallest sample.
        assert_eq!(percentile(&s, 0.0), Ok(1.0));
        let s = ramp(20);
        assert_eq!(percentile(&s, 50.0), Ok(10.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        assert!(
            percentile(&ramp(999), 99.0).is_err(),
            "990th of 999 has 9 beyond"
        );
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(
            percentile(&ramp(5000), 99.9).is_err(),
            "4995th of 5000 has 5 beyond"
        );
        assert!(percentile(&ramp(10_000), 99.9).is_ok());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn open_loop_lateness_counts_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule {
            start,
            period: Duration::from_millis(10),
            offset: Duration::from_millis(5),
        };
        assert_eq!(s.due(0), start + Duration::from_millis(5));
        assert_eq!(s.due(3), start + Duration::from_millis(35));
        // Sent early: no lateness.
        assert_eq!(s.lateness(1, start), Duration::ZERO);
        // A stall until 40 ms makes send 1 (due at 15 ms) 25 ms late, and
        // send 2 (due at 25 ms), sent right after it, 15 ms late: the stall
        // is charged to every send it delayed.
        let sent = start + Duration::from_millis(40);
        assert_eq!(s.lateness(1, sent), Duration::from_millis(25));
        assert_eq!(s.lateness(2, sent), Duration::from_millis(15));
    }

    #[test]
    fn report_lines_name_value_unit() {
        let m = [
            Metric::new("p50_ms", 1.25, "ms"),
            Metric::new("x", 3.0, "count"),
        ];
        assert_eq!(render_lines(&m), "p50_ms 1.25 ms\nx 3 count\n");
        let v = metrics_value(&m);
        assert_eq!(
            v.field("p50_ms").and_then(|m| m.field("unit")),
            Some(&Value::Str("ms".to_owned()))
        );
    }
}

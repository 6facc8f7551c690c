//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory (one recorder per thread) and are written as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part its children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Shared by every span of one unit.
    pub trace: u64,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `protocol.decode`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// A per-thread span recorder.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `lane << 48`, so recorders of
    /// different threads never collide.
    pub fn new(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            next: (lane << 48) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id (before the span's children are recorded).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a finished span under a reserved id.
    pub fn push(
        &mut self,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start: ns(start),
            end: ns(end),
        });
    }

    /// Times `f` as a new span and records it.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.push(trace, id, parent, name, start, Instant::now());
        out
    }
}

/// Self time of every span, in µs, by span id: its duration minus the sum
/// of its children's durations (children never overlap: each recorder is
/// one thread).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.us();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                (s.us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0),
            )
        })
        .collect()
}

/// Share of root-span time that no child span accounts for.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        own += selfs[&s.id];
        total += s.us();
    }
    if total == 0.0 {
        0.0
    } else {
        own / total
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Writes spans as JSON lines with their self time.
///
/// # Errors
///
/// Propagates file errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
            s.trace,
            s.id,
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3,
            selfs[&s.id]
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut r = Recorder::new(epoch, 1);
        let root = r.id();
        let a = r.id();
        let b = r.id();
        r.push(7, a, Some(root), "a", at(10), at(40));
        r.push(7, b, Some(root), "b", at(50), at(60));
        r.push(7, root, None, "unit", at(0), at(100));
        let selfs = self_times(&r.spans);
        assert!((selfs[&root] - 60.0).abs() < 1e-9);
        assert!((selfs[&a] - 30.0).abs() < 1e-9);
        assert!((unattributed_share(&r.spans) - 0.6).abs() < 1e-9);
        assert_eq!(durations(&r.spans, "a"), vec![30.0]);
    }

    #[test]
    fn recorder_lanes_do_not_collide() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 1);
        let mut b = Recorder::new(epoch, 2);
        assert_ne!(a.id(), b.id());
    }
}

//! Pins every session answer — `open`, `mutate`, `timing` and `analyze`
//! bodies over three seeded 2,000-op edit traces — to one FNV-1a digest.
//! Typed errors are hashed too, so a change to which steps fail, or how,
//! moves the digest as surely as a changed probability.
//!
//! Each trace is replayed through two held sessions. The first asks the
//! trace's own queries: 48 samples under the default `[1, 3]` bounds, so
//! the Monte-Carlo capture runs in 32-bit lanes and every later `analyze`
//! patches it. The second replays the same edits but asks 37 samples
//! (not a multiple of the kernel's block width) under bounds near `2^22`,
//! whose path sum overflows 32 bits and forces 64-bit lanes, with a
//! deadline three steps past the critical path on its `timing` queries.

use localwm_cdfg::write_cdfg;
use localwm_engine::Parallelism;
use localwm_serve::session::SessionState;
use localwm_serve::{Request, RequestKind, Response};
use localwm_testkit::trace::{named_layered, parse_trace, seeded_trace, TraceSpec, TraceStep};

/// The digest of every session answer below, computed before the session
/// path moved to node-major lanes and memoized delay models. Every answer
/// it covers is specified to be byte-stable, so it is never re-blessed for
/// a speed change.
const SESSION_DIGEST: u64 = 0xcdad_1320_db95_7688;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A field separator, so adjacent answers cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// How one session asks its queries.
struct Lane {
    lo: Option<u64>,
    hi: Option<u64>,
    /// `None` keeps the trace's own sample count.
    samples: Option<usize>,
    /// Deadline slack over the critical path on `timing` queries.
    slack: Option<u32>,
}

const LANES: [Lane; 2] = [
    Lane {
        lo: None,
        hi: None,
        samples: None,
        slack: None,
    },
    Lane {
        lo: Some(1 << 22),
        hi: Some((1 << 22) + 3),
        samples: Some(37),
        slack: Some(3),
    },
];

fn hash_session(h: &mut Fnv, design: &str, steps: &[TraceStep], lane: &Lane) {
    let mut state = SessionState::open(design).expect("generated design parses");
    h.str(&Response::success(Some(0), "open", state.describe("digest")).to_line());
    let mut critical_path = None;
    for (i, step) in steps.iter().enumerate() {
        let id = Some(i as u64 + 1);
        let (kind, result) = match step {
            TraceStep::Edits(edits) => ("mutate", state.mutate("digest", edits)),
            TraceStep::Timing { deadline } => {
                let mut req = Request::new(RequestKind::Timing);
                req.lo = lane.lo;
                req.hi = lane.hi;
                req.deadline = match (lane.slack, critical_path) {
                    (Some(slack), Some(cp)) => Some(cp + slack),
                    _ => *deadline,
                };
                ("timing", state.timing(&req))
            }
            TraceStep::Analyze { samples, seed } => {
                let mut req = Request::new(RequestKind::Analyze);
                req.lo = lane.lo;
                req.hi = lane.hi;
                req.samples = Some(lane.samples.unwrap_or(*samples));
                req.seed = Some(*seed);
                ("analyze", state.analyze(&req, Parallelism::Serial))
            }
        };
        if let Ok(body) = &result {
            if let Some(serde::Value::Int(cp)) = body.field("critical_path") {
                critical_path = u32::try_from(*cp).ok();
            }
        }
        let line = match result {
            Ok(v) => Response::success(id, kind, v),
            Err(e) => Response::failure(id, kind, e),
        }
        .to_line();
        h.str(&line);
    }
}

fn session_digest() -> u64 {
    let mut h = Fnv::new();
    for seed in [0x5E55_0001_u64, 0x5E55_0002, 0x5E55_0003] {
        let g = named_layered(2000, 8, 40, seed);
        let spec = TraceSpec {
            seed,
            edit_steps: 80,
            edits_per_step: 2,
            samples: 48,
        };
        let steps = parse_trace(&seeded_trace(&g, &spec).expect("traceable design"))
            .expect("generated trace parses");
        let design = write_cdfg(&g);
        for lane in &LANES {
            hash_session(&mut h, &design, &steps, lane);
        }
    }
    h.0
}

#[test]
fn session_answers_match_the_pinned_digest() {
    let digest = session_digest();
    assert_eq!(digest, SESSION_DIGEST, "session digest {digest:#018x}");
}

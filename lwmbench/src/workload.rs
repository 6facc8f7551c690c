//! The four workloads and their seeded input generators.
//!
//! A [`Plan`] is a pure function of (workload, seed, shape): the designs,
//! traces and every unit each client will send. Units are drawn by random
//! access (`Plan::unit(client, n)`), so a phase can run as long as it needs
//! without the stream being stored, and the stream digest covers a fixed
//! prefix of it.

use std::io::Write as _;

use localwm_cdfg::generators::{layered, mediabench, mediabench_apps, LayeredConfig};
use localwm_cdfg::{write_cdfg, Cdfg};
use localwm_gateway::rendezvous::{self, fnv1a};
use localwm_prng::SplitMix64;
use localwm_serve::handlers::execute;
use localwm_serve::{ContextCache, Request, RequestKind};
use localwm_testkit::trace::{named_layered, parse_trace, seeded_trace, TraceSpec, TraceStep};
use serde::Value;

use crate::fleet::{backend_names, GATEWAY_BACKENDS};

/// Load connections, each owned by one thread (the bench host has two
/// cores; more clients would measure the scheduler, not the service).
pub const LOAD_CONNECTIONS: usize = 2;

/// Units per client covered by the stream digest.
const DIGEST_UNITS: u64 = 512;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interactive designers: open-loop `timing`/`analyze` over a 48-design
    /// working set through a gateway and two store-backed backends.
    TimingOpen,
    /// Batch Monte-Carlo criticality: closed-loop sweeps of 500-sample
    /// `analyze` requests, one per hot design with a fresh seed each,
    /// straight to one backend.
    AnalyzeClosed,
    /// IP-protection jobs: embed, two detects and a strength sweep per
    /// job, over a design pool larger than the cache.
    WatermarkBatch,
    /// Interactive editing: one held session per client replaying an edit
    /// trace through the gateway.
    EditSession,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TimingOpen,
        Workload::AnalyzeClosed,
        Workload::WatermarkBatch,
        Workload::EditSession,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TimingOpen => "timing-open",
            Workload::AnalyzeClosed => "analyze-closed",
            Workload::WatermarkBatch => "watermark-batch",
            Workload::EditSession => "edit-session",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether load goes through a gateway fronting two backends.
    pub fn via_gateway(self) -> bool {
        matches!(self, Workload::TimingOpen | Workload::EditSession)
    }

    /// Whether each backend mounts a design store.
    pub fn store(self) -> bool {
        self == Workload::TimingOpen
    }
}

/// Input and phase sizes. [`Shape::full`] is the benchmark; tests run a
/// smaller shape of the same workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// `timing-open` nominal arrival rate over both connections, req/s.
    pub open_rate: f64,
    /// Share of the run's seconds spent in the `timing-open` open-loop
    /// phase; the rest is its closed-loop saturation phase.
    pub open_share: f64,
    /// Requests each `timing-open` connection keeps in flight when
    /// saturating.
    pub saturation_window: usize,
    /// Each measured phase runs until at least this many units finished,
    /// however short its time, so its p99 has ten samples beyond it.
    pub min_units: u64,
    /// Seeded layered designs in the `timing-open` working set.
    pub layered_designs: usize,
    /// Op-count range of those designs, spread on a log-uniform grid.
    pub ops_range: (usize, usize),
    /// Whether the MediaBench stand-ins join the design sets.
    pub mediabench: bool,
    /// Samples of a `timing-open` `analyze` request.
    pub timing_analyze_samples: usize,
    /// Op counts of the layered `analyze-closed` designs.
    pub analyze_ops: Vec<usize>,
    /// Samples of an `analyze-closed` request.
    pub analyze_samples: usize,
    /// Designs drawn for the `watermark-batch` pool (before dropping the
    /// ones that do not embed cleanly).
    pub pool: usize,
    /// Op-count range of pool designs, spread evenly.
    pub pool_ops: (usize, usize),
    /// Op count of each `edit-session` design.
    pub session_ops: usize,
    /// Steps of each `edit-session` trace.
    pub trace_steps: usize,
    /// Samples of a session `analyze` step.
    pub session_samples: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Units replayed through the layer functions in a traced run.
    pub replay_units: usize,
    /// Flips one reference digest so a test can see wrong answers caught.
    pub corrupt_reference: bool,
}

impl Shape {
    /// The benchmark's shape.
    pub fn full() -> Shape {
        Shape {
            open_rate: TIMING_OPEN_RATE,
            // 5625 open-loop samples: five windows for the p99.
            open_share: 0.75,
            saturation_window: 8,
            min_units: 1000,
            layered_designs: 40,
            ops_range: (100, 3000),
            mediabench: true,
            timing_analyze_samples: 100,
            analyze_ops: vec![500, 1000, 2000],
            analyze_samples: 500,
            pool: 256,
            pool_ops: (100, 300),
            session_ops: 2000,
            trace_steps: 4000,
            session_samples: 48,
            setups: 5,
            replay_units: 256,
            corrupt_reference: false,
        }
    }

    /// A shape small enough for a debug-build test: tiny designs, the
    /// same code paths.
    pub fn tiny() -> Shape {
        Shape {
            open_rate: 1000.0,
            layered_designs: 10,
            ops_range: (20, 60),
            mediabench: false,
            timing_analyze_samples: 8,
            analyze_ops: vec![20, 40, 60],
            analyze_samples: 16,
            pool: 24,
            pool_ops: (30, 60),
            session_ops: 60,
            trace_steps: 80,
            session_samples: 8,
            setups: 2,
            // Enough that every layer a workload reaches has 20 spans, so
            // its p50 has ten beyond it.
            replay_units: 64,
            ..Shape::full()
        }
    }
}

/// The calibrated `timing-open` arrival rate: about 40 % of the capacity
/// its saturation phase measured on the reference host, rounded down to a
/// multiple of 50 (see the README).
pub const TIMING_OPEN_RATE: f64 = 300.0;

/// One unit of work as the plan defines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitSpec {
    /// One stateless query: `timing`, or `analyze` with (samples, seed).
    Query {
        /// Design index.
        design: usize,
        /// `Some((samples, seed))` for `analyze`.
        analyze: Option<(usize, u64)>,
    },
    /// An `analyze-closed` batch: one `analyze` of every hot design, each
    /// with its own seed, in a rotation starting at a seeded design (see
    /// [`Plan::sweep_part`]).
    Sweep {
        /// The draw the rotation and the analysis seeds derive from.
        draw: u64,
    },
    /// A watermark job on one design: embed, detect as the author, detect
    /// as a rival, strength sweep.
    Job {
        /// Design index.
        design: usize,
    },
    /// One step of this client's trace; step 0 (re)opens the session.
    Step {
        /// Step index in the trace.
        step: usize,
    },
}

/// Everything a run sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs came from.
    pub seed: u64,
    /// Input sizes.
    pub shape: Shape,
    /// Design texts.
    pub designs: Vec<String>,
    /// Popularity CDF over `designs` (`timing-open`).
    cdf: Vec<f64>,
    /// `watermark-batch`: each client's half of the pool, in seeded order.
    halves: Vec<Vec<usize>>,
    /// `edit-session`: each client's trace.
    pub traces: Vec<Vec<TraceStep>>,
    /// `watermark-batch` pool designs dropped because their job did not
    /// run cleanly in-process.
    pub dropped: usize,
}

/// Seed of every workload's design corpus.
const CORPUS_SEED: u64 = 0x5EED_C0DE;

const STREAM_DESIGNS: u64 = 1;
const STREAM_UNITS: u64 = 2;
const STREAM_SAMPLE: u64 = 3;

fn draw(seed: u64, stream: u64, client: usize, n: u64) -> u64 {
    SplitMix64::mix(SplitMix64::mix(seed ^ stream.rotate_left(40)) ^ ((client as u64) << 56) ^ n)
}

/// Cumulative shares of `weights`, normalised.
fn cdf(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn unit_f64(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

fn layered_design(ops: usize, seed: u64) -> Cdfg {
    let layers = ((ops as f64).sqrt() * 1.2).round() as usize;
    layered(&LayeredConfig {
        ops,
        layers: layers.clamp(4, ops),
        inputs: 16,
        locality: 4,
        seed,
        ..LayeredConfig::default()
    })
}

/// The author a `watermark-batch` job embeds as, and the rival it must not
/// match.
pub fn authors(seed: u64, design: usize) -> (String, String) {
    (
        format!("author-{seed}-{design}"),
        format!("rival-{seed}-{design}"),
    )
}

/// The session id of an `edit-session` client: the first `s<client>-<k>`
/// that the gateway routes to backend `client`, so each backend holds one
/// session whatever the seed. With ids drawn from the seed, the seeds that
/// put both sessions on one backend ran 10–20 % slower than the seeds that
/// split them, which swamped every other difference between seeds.
pub fn session_id(client: usize) -> String {
    let names = backend_names(GATEWAY_BACKENDS);
    (0u32..)
        .map(|k| format!("s{client}-{k}"))
        .find(|id| rendezvous::rank(fnv1a(id.as_bytes()), &names)[0] == client % names.len())
        .expect("an unbounded search finds an id for every backend")
}

/// Budgets of the `watermark-batch` strength sweep.
pub const STRENGTH_BUDGETS: &str = "0,0.3";

/// Whether a watermark job on `text` succeeds in-process: the embed
/// answers a schedule, detect as the author matches it and detect as the
/// rival answers no match — the outcomes every `watermark-batch` job
/// asserts.
fn job_runs_cleanly(text: &str, seed: u64, design: usize) -> bool {
    let cache = ContextCache::new(1);
    let (author, rival) = authors(seed, design);
    let request = |kind, who: &str, schedule: Option<&str>| {
        let mut req = Request::new(kind);
        req.design = Some(text.to_owned());
        req.author = Some(who.to_owned());
        req.schedule = schedule.map(str::to_owned);
        execute(&cache, &req)
    };
    let Ok(embed) = request(RequestKind::Embed, &author, None) else {
        return false;
    };
    let Some(Value::Str(schedule)) = embed.field("schedule") else {
        return false;
    };
    // Detect must answer for both, not fail typed (a rival's signature
    // can be impossible to derive on a small design).
    let matched = |who: &str| match request(RequestKind::Detect, who, Some(schedule)) {
        Ok(v) => v.field("match").cloned(),
        Err(_) => None,
    };
    matched(&author) == Some(Value::Bool(true)) && matched(&rival) == Some(Value::Bool(false))
}

impl Plan {
    /// Generates the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Fails only when a generator rejects its own output (a trace over
    /// an unnamed design), which would be a bug here.
    pub fn generate(workload: Workload, seed: u64, shape: &Shape) -> Result<Plan, String> {
        // The designs are a fixed corpus per workload; the seed drives the
        // traffic over them (order, kinds, analysis seeds, authors, edit
        // traces). Seeds then differ in what is asked when, not in how
        // much work the corpus holds, so runs on different seeds measure
        // the same system load.
        let mut corpus = SplitMix64::new(draw(CORPUS_SEED, STREAM_DESIGNS, 0, workload as u64));
        let mut rng = SplitMix64::new(draw(seed, STREAM_DESIGNS, 0, 0));
        let mut plan = Plan {
            workload,
            seed,
            shape: shape.clone(),
            designs: Vec::new(),
            cdf: Vec::new(),
            halves: Vec::new(),
            traces: Vec::new(),
            dropped: 0,
        };
        let mut graphs: Vec<Cdfg> = Vec::new();
        match workload {
            Workload::TimingOpen => {
                // Sizes on a fixed log-uniform grid and a fixed popularity
                // ranking, so seeds differ in graph structure and request
                // order, not in how much work the mix asks for.
                let (lo, hi) = (shape.ops_range.0 as f64, shape.ops_range.1 as f64);
                let n = shape.layered_designs;
                for i in 0..n {
                    let ops = lo * (hi / lo).powf(i as f64 / (n - 1).max(1) as f64);
                    graphs.push(layered_design(ops.round() as usize, corpus.next_u64()));
                }
                if shape.mediabench {
                    graphs.extend(mediabench_apps().iter().map(|app| mediabench(app, 0)));
                }
                // Zipf(1.1) popularity; rank r goes to design r·29 mod n
                // (29 is coprime to every working-set size used), which
                // spreads the popular ranks over small and large designs.
                let n = graphs.len();
                let mut weight = vec![0.0; n];
                for r in 0..n {
                    weight[r * 29 % n] = 1.0 / ((r + 1) as f64).powf(1.1);
                }
                plan.cdf = cdf(&weight);
            }
            Workload::AnalyzeClosed => {
                for &ops in &shape.analyze_ops {
                    graphs.push(layered_design(ops, corpus.next_u64()));
                }
                if shape.mediabench {
                    graphs.push(mediabench(&mediabench_apps()[0], 0));
                }
            }
            Workload::WatermarkBatch => {
                let (lo, hi) = shape.pool_ops;
                for i in 0..shape.pool {
                    let ops = lo + (hi - lo) * i / (shape.pool - 1).max(1);
                    let g = layered_design(ops, corpus.next_u64());
                    if job_runs_cleanly(&write_cdfg(&g), seed, graphs.len()) {
                        graphs.push(g);
                    } else {
                        plan.dropped += 1;
                    }
                }
                for client in 0..LOAD_CONNECTIONS {
                    let mut half: Vec<usize> =
                        (client..graphs.len()).step_by(LOAD_CONNECTIONS).collect();
                    shuffle(&mut half, &mut rng);
                    plan.halves.push(half);
                }
            }
            Workload::EditSession => {
                for _ in 0..LOAD_CONNECTIONS {
                    let ops = shape.session_ops;
                    let g = named_layered(ops, 8, (ops / 50).max(1), corpus.next_u64());
                    // A generated trace has 2.25 steps per edit batch (an
                    // analyze after each, a timing every fourth).
                    let spec = TraceSpec {
                        seed: rng.next_u64(),
                        edit_steps: shape.trace_steps * 4 / 9 + 1,
                        edits_per_step: 2,
                        samples: shape.session_samples,
                    };
                    let mut steps = parse_trace(&seeded_trace(&g, &spec)?)?;
                    steps.truncate(shape.trace_steps);
                    plan.traces.push(steps);
                    graphs.push(g);
                }
            }
        }
        plan.designs = graphs.iter().map(write_cdfg).collect();
        Ok(plan)
    }

    /// Unit `n` of `client`.
    pub fn unit(&self, client: usize, n: u64) -> UnitSpec {
        let r = draw(self.seed, STREAM_UNITS, client, n);
        match self.workload {
            Workload::TimingOpen => {
                let design = self.pick(r);
                let r2 = SplitMix64::mix(r);
                let analyze = r2
                    .is_multiple_of(10)
                    .then_some((self.shape.timing_analyze_samples, (r2 >> 8) % 4));
                UnitSpec::Query { design, analyze }
            }
            Workload::AnalyzeClosed => UnitSpec::Sweep { draw: r },
            Workload::WatermarkBatch => {
                let half = &self.halves[client];
                UnitSpec::Job {
                    design: half[(n % half.len() as u64) as usize],
                }
            }
            Workload::EditSession => UnitSpec::Step {
                step: (n % self.traces[client].len() as u64) as usize,
            },
        }
    }

    /// Design and `(samples, seed)` of request `part` of the
    /// `analyze-closed` sweep `draw`, or `None` past the sweep's end.
    /// Every hot design is analyzed once per sweep, so each takes an
    /// equal share of the requests.
    pub fn sweep_part(&self, draw: u64, part: usize) -> Option<(usize, (usize, u64))> {
        let n = self.designs.len();
        (part < n).then(|| {
            let design = (draw % n as u64) as usize;
            let seed = SplitMix64::mix(draw ^ part as u64);
            ((design + part) % n, (self.shape.analyze_samples, seed))
        })
    }

    /// The design a uniform draw `r` picks under the popularity CDF.
    fn pick(&self, r: u64) -> usize {
        let u = unit_f64(r);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }

    /// Whether unit `n` of `client` is in the seeded 1-in-8 sample whose
    /// expensive answers are recomputed in-process.
    pub fn sampled(&self, client: usize, n: u64) -> bool {
        draw(self.seed, STREAM_SAMPLE, client, n).is_multiple_of(8)
    }

    /// A stateless query request.
    pub fn query(&self, design: usize, analyze: Option<(usize, u64)>) -> Request {
        let kind = if analyze.is_some() {
            RequestKind::Analyze
        } else {
            RequestKind::Timing
        };
        let mut req = Request::new(kind);
        req.design = Some(self.designs[design].clone());
        if let Some((samples, seed)) = analyze {
            req.samples = Some(samples);
            req.seed = Some(seed);
        }
        req
    }

    /// Request `step` (0..4) of a watermark job; detects carry the
    /// schedule the embed answered with.
    pub fn job_request(&self, design: usize, step: usize, schedule: Option<&str>) -> Request {
        let (author, rival) = authors(self.seed, design);
        let (kind, who) = match step {
            0 => (RequestKind::Embed, author),
            1 => (RequestKind::Detect, author),
            2 => (RequestKind::Detect, rival),
            _ => (RequestKind::Strength, author),
        };
        let mut req = Request::new(kind);
        req.design = Some(self.designs[design].clone());
        req.author = Some(who);
        if kind == RequestKind::Detect {
            req.schedule = schedule.map(str::to_owned);
        }
        if kind == RequestKind::Strength {
            req.budgets = Some(STRENGTH_BUDGETS.to_owned());
        }
        req
    }

    /// The session request for trace step `step` of `client`.
    pub fn step_request(&self, client: usize, step: usize) -> Request {
        let mut req = match &self.traces[client][step] {
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
        req.session = Some(session_id(client));
        req
    }

    /// `open` (with the client's design) or `close` of a session.
    pub fn session_request(&self, client: usize, kind: RequestKind) -> Request {
        let mut req = Request::new(kind);
        req.session = Some(session_id(client));
        if kind == RequestKind::Open {
            req.design = Some(self.designs[client].clone());
        }
        req
    }

    /// FNV-1a digest of everything the plan sends: designs, traces, and
    /// the first units of every client.
    pub fn digest(&self) -> u64 {
        let mut buf = self.workload.name().as_bytes().to_vec();
        for d in &self.designs {
            buf.extend_from_slice(d.as_bytes());
        }
        for steps in &self.traces {
            for s in steps {
                write!(buf, "{s:?}").expect("writing to a Vec cannot fail");
            }
        }
        for client in 0..LOAD_CONNECTIONS {
            for n in 0..DIGEST_UNITS {
                write!(buf, "{:?}", self.unit(client, n)).expect("writing to a Vec cannot fail");
                buf.push(u8::from(self.sampled(client, n)));
            }
        }
        fnv1a(&buf)
    }
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

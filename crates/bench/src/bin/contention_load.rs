//! Contention scaling benchmark: request latency under 1/2/4/8 concurrent
//! clients with all traffic aimed at one cache shard vs spread across
//! shards, plus the SoA Monte-Carlo kernel's ns/sample against the plain
//! per-sample reference (`criticality_reference`).
//!
//! Writes `BENCH_scaling.json` (or the path given with `--out`) in the
//! shape of the other `BENCH_*.json` reports. The SoA lanes resolve their
//! baselines by name (`engine/criticality/serial/2000`) from
//! `BENCH_hotpath.json` — the committed pre-SoA numbers — so the report
//! carries the vectorization win explicitly. `--quick` trims client and
//! sample counts for the CI lane.
//!
//! On a single-core host the curve measures contention overhead (lock and
//! coalescing behavior under interleaving), not parallel speedup; the
//! note records the core count so readers can tell which regime produced
//! the numbers.

use std::time::{Duration, Instant};

use localwm_bench::report::render_table;
use localwm_cdfg::generators::{layered, mediabench, mediabench_apps, LayeredConfig};
use localwm_cdfg::write_cdfg;
use localwm_engine::{DesignContext, Parallelism};
use localwm_serve::{Client, Request, RequestKind, ServeConfig, ServerHandle};
use localwm_timing::{criticality_in, criticality_reference, KindBounds};
use serde::Value;

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Matches the `criticality` bin: layered graph size and sample count of
/// the `engine/criticality/*/2000` lanes, so baselines resolve by name.
const SOA_OPS: usize = 2000;
const MC_SAMPLES: usize = 64;

struct Lane {
    name: String,
    mean_ns: f64,
    samples: usize,
    ns_per_sample: Option<f64>,
    baseline_ns: Option<f64>,
}

fn start_server(workers: usize) -> ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 256,
        cache_cap: 16,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: None,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback")
}

fn analyze_request(design: &str, samples: usize, seed: u64) -> Request {
    let mut r = Request::new(RequestKind::Analyze);
    r.design = Some(design.to_owned());
    r.samples = Some(samples);
    r.seed = Some(seed);
    r
}

/// Mean ns/request with `clients` concurrent connections each sending
/// `per_client` analyze requests. `spread: false` aims every client at
/// `designs[0]` (all cache traffic on that design's shard); `spread: true`
/// rotates designs per client. Distinct seeds keep every request a
/// distinct computation, so the lane measures contention, not coalescing.
fn contended_mean_ns(
    designs: &[String],
    clients: usize,
    per_client: usize,
    mc_samples: usize,
    spread: bool,
) -> f64 {
    let handle = start_server(4);
    let addr = handle.addr().to_string();
    // Pre-warm the context cache so every client count sees the same work.
    let mut warmup = Client::connect_within(&addr, Duration::from_secs(5)).expect("warmup connect");
    for d in designs {
        assert!(
            warmup.call(&analyze_request(d, 1, 0)).expect("warmup").ok,
            "warmup request failed"
        );
    }
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let design = if spread {
                designs[c % designs.len()].clone()
            } else {
                designs[0].clone()
            };
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_within(&addr, Duration::from_secs(5)).expect("connect");
                for i in 0..per_client {
                    let seed = 1 + (c * per_client + i) as u64;
                    let resp = client
                        .call(&analyze_request(&design, mc_samples, seed))
                        .expect("request");
                    assert!(resp.ok, "load request failed: {:?}", resp.error);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    handle.shutdown();
    elapsed / (clients * per_client) as f64
}

fn mean_ns<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    let _ = f(); // warm-up: caches, pool start, page faults
    let start = Instant::now();
    for _ in 0..rounds {
        let _ = f();
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

/// `name → mean_ns` from a committed `BENCH_*.json`, empty when absent.
fn load_baselines(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let Some(Value::Array(entries)) = doc.field("benchmarks") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let name = match e.field("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return None,
            };
            let mean = match e.field("mean_ns") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => return None,
            };
            Some((name, mean))
        })
        .collect()
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_scaling.json".to_owned();
    let mut baseline_path = "BENCH_hotpath.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            other => panic!("unknown argument {other} (expected --quick/--out/--baseline)"),
        }
    }
    let (per_client, req_samples, soa_rounds) = if quick { (4, 300, 6) } else { (12, 2000, 30) };
    let baselines = load_baselines(&baseline_path);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let apps = mediabench_apps();
    let designs: Vec<String> = apps
        .iter()
        .take(6)
        .map(|app| write_cdfg(&mediabench(app, 0)))
        .collect();

    // ---- Contention curve: one-shard vs spread at 1/2/4/8 clients ----
    let mut lanes: Vec<Lane> = Vec::new();
    for (tag, spread) in [("one-shard", false), ("spread", true)] {
        for &clients in &CLIENT_COUNTS {
            let mean = contended_mean_ns(&designs, clients, per_client, req_samples, spread);
            lanes.push(Lane {
                name: format!("serve/contention/{tag}/clients-{clients}"),
                mean_ns: mean,
                samples: clients * per_client,
                ns_per_sample: None,
                baseline_ns: None,
            });
        }
    }

    // ---- SoA kernel vs the reference, against the committed pre-SoA baseline ----
    let g = layered(&LayeredConfig {
        ops: SOA_OPS,
        layers: ((SOA_OPS as f64).sqrt() * 1.2) as usize,
        ..Default::default()
    });
    let ctx = DesignContext::new(g);
    let model = KindBounds::uniform(1, 3);
    let scalar_baseline = baselines
        .iter()
        .find(|(n, _)| n == &format!("engine/criticality/serial/{SOA_OPS}"))
        .map(|&(_, b)| b);
    let kernel = mean_ns(soa_rounds, || {
        criticality_in(&ctx, &model, MC_SAMPLES, 7, Parallelism::Serial)
    });
    let reference = mean_ns(soa_rounds, || {
        criticality_reference(ctx.graph(), &model, MC_SAMPLES, 7)
    });
    for (tag, mean) in [("soa", kernel), ("reference", reference)] {
        lanes.push(Lane {
            name: format!("engine/criticality/{tag}/{SOA_OPS}"),
            mean_ns: mean,
            samples: soa_rounds,
            ns_per_sample: Some(mean / MC_SAMPLES as f64),
            baseline_ns: scalar_baseline,
        });
    }

    let rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                format!("{:.1}", l.mean_ns / 1e3),
                l.ns_per_sample
                    .map_or_else(|| "-".to_owned(), |n| format!("{n:.0}")),
                l.baseline_ns
                    .map_or_else(|| "-".to_owned(), |b| format!("{:.2}x", b / l.mean_ns)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["benchmark", "mean µs", "ns/sample", "vs baseline"], &rows)
    );

    let entries: Vec<Value> = lanes
        .iter()
        .map(|l| {
            let mut fields = vec![
                ("name".to_owned(), Value::Str(l.name.clone())),
                (
                    "mean_ns".to_owned(),
                    Value::Float((l.mean_ns * 10.0).round() / 10.0),
                ),
                ("samples".to_owned(), Value::Int(l.samples as i64)),
            ];
            if let Some(n) = l.ns_per_sample {
                fields.push((
                    "ns_per_sample".to_owned(),
                    Value::Float((n * 10.0).round() / 10.0),
                ));
            }
            if let Some(b) = l.baseline_ns {
                fields.push(("baseline_ns".to_owned(), Value::Float(b)));
                fields.push((
                    "speedup".to_owned(),
                    Value::Float((b / l.mean_ns * 100.0).round() / 100.0),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    let note = format!(
        "contention_load: {}x{per_client} analyze(samples={req_samples}) requests \
         per point, distinct seeds (no coalescing), 4 workers, cache_cap 16; \
         one-shard = every client hammers designs[0] (all cache traffic on one \
         shard), spread = designs rotate per client; soa/reference = Monte-Carlo \
         criticality ({MC_SAMPLES} samples, layered {SOA_OPS} ops, seed 7, \
         {soa_rounds} rounds) by the SoA kernel and by the per-sample \
         reference, baseline resolved \
         from {baseline_path} (pre-SoA serial kernel); host had {cores} CPU \
         core(s), so multi-client points measure contention overhead, not \
         parallel speedup",
        CLIENT_COUNTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let doc = Value::Object(vec![
        ("note".to_owned(), Value::Str(note)),
        ("benchmarks".to_owned(), Value::Array(entries)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}

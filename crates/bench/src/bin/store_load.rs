//! Durability benchmark for `localwm-store`: restart cold- vs warm-start
//! latency, against real servers on loopback TCP. What does a replica
//! restart cost without a store (the full text-parse cold path) versus
//! with a populated `--store-dir` (designs rehydrated from checksummed
//! binary segments)?
//!
//! Writes `BENCH_store.json` (override with `--out PATH`; `--quick`
//! shrinks the design set and repeat counts for CI). Exits nonzero if a
//! warm start fails to beat the cold path — the whole point of the store.
//!
//! Usage: `store_load [--quick] [--out PATH]`

use std::time::{Duration, Instant};

use localwm_bench::report::render_table;
use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::write_cdfg;
use localwm_serve::{Client, Request, RequestKind, ServeConfig, ServerHandle};
use serde::Value;

struct Sample {
    name: String,
    mean_ns: f64,
    samples: usize,
}

fn start_server(store_dir: Option<&std::path::Path>) -> ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 256,
        cache_cap: 16,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: store_dir.map(|d| d.to_str().expect("utf8 path").to_owned()),
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback")
}

fn timing_request(design: &str) -> Request {
    let mut r = Request::new(RequestKind::Timing);
    r.design = Some(design.to_owned());
    r
}

/// Mean per-request latency of sending `reqs` serially over `client`.
fn run_pass(client: &mut Client, reqs: &[Request]) -> f64 {
    let start = Instant::now();
    let mut lines = Vec::with_capacity(reqs.len());
    for r in reqs {
        client.send(r).expect("send");
        lines.push(client.recv_line().expect("recv"));
    }
    let mean = start.elapsed().as_nanos() as f64 / reqs.len() as f64;
    for l in &lines {
        assert!(l.contains("\"ok\":true"), "benchmark request failed: {l}");
    }
    mean
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect_within(&handle.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

/// The restart experiment: the same timing battery against (a) a fresh
/// storeless server — the full text-parse cold path — and (b) a fresh
/// server warm-starting from a store a previous life populated.
fn restart_experiment(
    designs: &[String],
    store_dir: &std::path::Path,
    out: &mut Vec<Sample>,
) -> (f64, f64) {
    let reqs: Vec<Request> = designs.iter().map(|d| timing_request(d)).collect();

    // Cold path: no store, every design is parsed from text.
    let handle = start_server(None);
    let cold = run_pass(&mut connect(&handle), &reqs);
    handle.shutdown();

    // Life 1 populates the store (parse + write-through), then dies.
    let handle = start_server(Some(store_dir));
    let first_life = run_pass(&mut connect(&handle), &reqs);
    handle.shutdown();

    // Life 2 warm-starts: a fresh LRU, but every design rehydrates from
    // the checksummed segments instead of the text parser.
    let handle = start_server(Some(store_dir));
    let mut client = connect(&handle);
    let warm_start = run_pass(&mut client, &reqs);
    // Same server, second pass: the in-memory warm-cache floor.
    let warm_cache = run_pass(&mut client, &reqs);
    handle.shutdown();

    for (name, mean) in [
        ("store/restart/cold-no-store", cold),
        ("store/restart/first-life-populating", first_life),
        ("store/restart/warm-start-from-store", warm_start),
        ("store/restart/warm-cache-floor", warm_cache),
    ] {
        out.push(Sample {
            name: name.to_owned(),
            mean_ns: mean,
            samples: designs.len(),
        });
    }
    (cold, warm_start)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_store.json".to_owned());

    let apps = mediabench_apps();
    let designs: Vec<String> = apps
        .iter()
        .take(if quick { 3 } else { 6 })
        .map(|app| write_cdfg(&mediabench(app, 0)))
        .collect();
    let store_dir =
        std::env::temp_dir().join(format!("localwm-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut samples = Vec::new();
    let (cold, warm_start) = restart_experiment(&designs, &store_dir, &mut samples);
    let _ = std::fs::remove_dir_all(&store_dir);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.1}", s.mean_ns / 1e3),
                s.samples.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["benchmark", "mean µs/req", "n"], &rows)
    );
    println!(
        "warm start is {:.2}x the cold path ({:.0} µs vs {:.0} µs)",
        warm_start / cold,
        warm_start / 1e3,
        cold / 1e3,
    );

    let entries: Vec<Value> = samples
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(s.name.clone())),
                (
                    "mean_ns".to_owned(),
                    Value::Float((s.mean_ns * 10.0).round() / 10.0),
                ),
                ("samples".to_owned(), Value::Int(s.samples as i64)),
            ])
        })
        .collect();
    let note = format!(
        "store_load: in-process localwm-serve on loopback TCP over {} mediabench \
         designs; restart = serial timing battery against a storeless server \
         (cold), a first --store-dir life (populating), a restarted life over \
         the same dir (warm start: designs rehydrate from checksummed segments \
         instead of the text parser), and a same-process second pass (warm-cache \
         floor); host had {} CPU core(s)",
        designs.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let doc = Value::Object(vec![
        ("note".to_owned(), Value::Str(note)),
        ("benchmarks".to_owned(), Value::Array(entries)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    if warm_start >= cold {
        eprintln!(
            "REGRESSION: warm start ({warm_start:.0} ns) did not beat the \
             cold path ({cold:.0} ns)"
        );
        std::process::exit(1);
    }
}

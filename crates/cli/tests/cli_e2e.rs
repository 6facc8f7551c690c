//! End-to-end flows through the real `localwm` binary: generate → embed →
//! detect on disk, the typed no-incomparable-pairs diagnostic, and a full
//! serve/request round trip over a loopback socket.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn localwm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_localwm"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("localwm-cli-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn localwm");
    assert!(
        out.status.success(),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn gen_embed_detect_round_trips_on_disk() {
    let dir = tmp_dir("flow");
    let design = dir.join("iir4.cdfg");
    let schedule = dir.join("schedule.txt");

    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));
    let out = run_ok(localwm().args([
        "embed",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "-o",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("embedded"), "embed reports its edges: {out}");
    let out = run_ok(localwm().args([
        "detect",
        design.to_str().unwrap(),
        schedule.to_str().unwrap(),
        "--author",
        "cli-e2e",
    ]));
    assert!(
        out.contains("MATCH"),
        "detect confirms the watermark: {out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serial_designs_get_the_typed_no_incomparable_pairs_diagnostic() {
    let dir = tmp_dir("serial");
    let design = dir.join("linear-ge.cdfg");
    run_ok(localwm().args(["gen", "linear-ge", "-o", design.to_str().unwrap()]));
    let out = localwm()
        .args(["embed", design.to_str().unwrap(), "--author", "cli-e2e"])
        .output()
        .expect("spawn localwm");
    assert!(!out.status.success(), "embed on a serial design fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no incomparable slack pairs"),
        "typed diagnostic names the failure: {stderr}"
    );
    assert!(
        stderr.contains("template watermark"),
        "diagnostic suggests the fallback scheme: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

struct ServerProc {
    child: Child,
    addr: String,
    // Keeps the stdout pipe open so the server's shutdown message doesn't
    // hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_server(metrics_out: Option<&Path>) -> ServerProc {
    let mut cmd = localwm();
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    if let Some(path) = metrics_out {
        cmd.args(["--metrics-out", path.to_str().unwrap()]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

#[test]
fn serve_and_request_round_trip_over_the_wire() {
    let dir = tmp_dir("serve");
    let design = dir.join("iir4.cdfg");
    let schedule = dir.join("schedule.txt");
    let metrics = dir.join("metrics.json");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    let mut server = spawn_server(Some(&metrics));
    let addr = server.addr.clone();

    let out = run_ok(localwm().args([
        "request",
        "embed",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "--schedule-out",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("\"ok\": true"), "embed succeeded: {out}");
    assert!(schedule.exists(), "--schedule-out wrote the schedule");

    let out = run_ok(localwm().args([
        "request",
        "detect",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "--schedule",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("\"match\": true"), "detect matched: {out}");

    let out = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
    assert!(
        out.contains("\"cache\""),
        "stats exposes cache counters: {out}"
    );

    let out = run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(
        out.contains("\"drained_jobs\""),
        "shutdown reports drain: {out}"
    );

    let status = server.child.wait().expect("server exit");
    assert!(status.success(), "server exits cleanly after shutdown");
    let dumped = std::fs::read_to_string(&metrics).expect("metrics dump exists");
    assert!(dumped.contains("\"requests\""), "metrics dump has counters");
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_gateway(backends: &str) -> ServerProc {
    let mut child = localwm()
        .args([
            "gateway",
            "--backends",
            backends,
            "--addr",
            "127.0.0.1:0",
            "--health-interval-ms",
            "off",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm gateway");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    assert!(
        first.starts_with("localwm-gateway routing"),
        "gateway announces its fleet: {first}"
    );
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

/// The full cluster quickstart through real processes: two backends, one
/// gateway, keep-alive `--repeat` requests routed through it, fleet-wide
/// `cluster_stats`, and a gateway drain that leaves the backends running.
#[test]
fn gateway_routes_requests_and_aggregates_cluster_stats() {
    let dir = tmp_dir("gateway");
    let design = dir.join("iir4.cdfg");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    let mut b0 = spawn_server(None);
    let mut b1 = spawn_server(None);
    let backends = format!("b0={},b1={}", b0.addr, b1.addr);
    let mut gw = spawn_gateway(&backends);
    let addr = gw.addr.clone();

    let out = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--repeat",
        "4",
    ]));
    assert!(
        out.contains("\"ok\": true"),
        "timing routed upstream: {out}"
    );
    assert!(
        out.contains("repeat 4 over one keep-alive connection"),
        "--repeat prints the warm-path summary: {out}"
    );

    let out = run_ok(localwm().args(["request", "cluster_stats", "--addr", &addr]));
    assert!(out.contains("\"ok\": true"), "cluster_stats ok: {out}");
    assert!(
        out.contains("\"aggregate\"") && out.contains("\"gateway\""),
        "cluster_stats carries fleet sections: {out}"
    );

    // Draining the gateway must not touch the backends.
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    let status = gw.child.wait().expect("gateway exit");
    assert!(status.success(), "gateway exits cleanly after shutdown");
    for b in [&mut b0, &mut b1] {
        let addr = b.addr.clone();
        let out = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
        assert!(
            out.contains("\"ok\": true"),
            "backend survives gateway drain: {out}"
        );
        run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
        assert!(b.child.wait().expect("backend exit").success());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `localwm chaos --gateway` runs the seeded backend-kill scenario end to
/// end and reports a clean invariant sheet on a healthy seed.
#[test]
fn gateway_chaos_subcommand_reports_clean_invariants() {
    let dir = tmp_dir("gw-chaos");
    let report = dir.join("report.json");
    let out = run_ok(localwm().args([
        "chaos",
        "--gateway",
        "--seed",
        "5",
        "--requests",
        "12",
        "--report-out",
        report.to_str().unwrap(),
    ]));
    assert!(
        out.contains("invariants: all held"),
        "clean run reports held invariants: {out}"
    );
    let dumped = std::fs::read_to_string(&report).expect("report written");
    assert!(
        dumped.contains("\"fates_by_kind\"") && dumped.contains("\"seed\": 5"),
        "report carries the seeded fate accounting: {dumped}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_store_server(store_dir: &Path) -> ServerProc {
    let mut child = localwm()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--store-dir",
            store_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm serve --store-dir");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

/// The persistence quickstart through real processes: a `--store-dir`
/// server populates its store, the `localwm store` maintenance commands
/// walk it (`ls`, `get`, `verify`, `compact`), a restarted server answers
/// byte-identically from the store, and `verify` exits nonzero once a
/// record's bytes are flipped.
#[test]
fn store_subcommands_manage_a_populated_store_dir() {
    let dir = tmp_dir("store");
    let design = dir.join("iir4.cdfg");
    let store_dir = dir.join("store");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    // First life: a timing request writes the design through to the store.
    let mut server = spawn_store_server(&store_dir);
    let addr = server.addr.clone();
    let first_life = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
    ]));
    assert!(first_life.contains("\"ok\": true"));
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(server.child.wait().expect("server exit").success());

    // The maintenance walk sees the design + alias pair.
    let sd = store_dir.to_str().unwrap();
    let ls = run_ok(localwm().args(["store", "ls", "--dir", sd]));
    assert!(
        ls.contains("design") && ls.contains("alias") && ls.contains("2 record(s)"),
        "ls lists both records: {ls}"
    );
    let hash = ls
        .lines()
        .find(|l| l.starts_with("design"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("design hash in ls output")
        .to_owned();
    let got = run_ok(localwm().args(["store", "get", &hash, "--dir", sd]));
    assert_eq!(
        got,
        std::fs::read_to_string(&design).unwrap(),
        "get round-trips the stored design to its exact CDFG text"
    );
    let verify = run_ok(localwm().args(["store", "verify", "--dir", sd]));
    assert!(verify.contains("verified 2 record(s)"), "{verify}");
    let compact = run_ok(localwm().args(["store", "compact", "--dir", sd]));
    assert!(compact.contains("compacted 2 live record(s)"), "{compact}");

    // Second life, same store: byte-identical response, no reparse (the
    // store block reports hits and zero new puts).
    let mut server = spawn_store_server(&store_dir);
    let addr = server.addr.clone();
    let second_life = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
    ]));
    let body = |out: &str| {
        out.lines()
            .take_while(|l| !l.starts_with("repeat "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        body(&second_life),
        body(&first_life),
        "a warm restart serves byte-identical responses"
    );
    let stats = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
    assert!(
        stats.contains("\"store\"") && stats.contains("\"puts\": 0"),
        "stats exposes the store block with no reparse-writes: {stats}"
    );
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(server.child.wait().expect("server exit").success());

    // Flip one payload byte behind the index: verify must exit nonzero and
    // name the corrupt segment.
    let seg = store_dir.join("seg-000000.lwm");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&seg, bytes).expect("corrupt segment");
    let out = localwm()
        .args(["store", "verify", "--dir", sd])
        .output()
        .expect("spawn verify");
    assert!(
        !out.status.success(),
        "verify exits nonzero on checksum mismatch"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("seg-000000.lwm"),
        "verify names the corrupt segment: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Stands in for a design record older builds wrote under tag 0, the
/// retired `Value` encoding of the graph. The store never decodes a tag-0
/// payload, so its bytes are opaque here.
const LEGACY_DESIGN_PAYLOAD: &[u8] = b"retired tag-0 design record";

/// A store written by an older build holds a tag-0 `Value` design record
/// and its alias. A server on that store must answer byte-identically to a
/// storeless one, write the current snapshot record beside the old one,
/// and serve it from the store on the next restart; the maintenance
/// commands must walk the leftover record without failing.
#[test]
fn a_store_from_an_older_build_is_served_and_upgraded() {
    use localwm_store::segment::fnv1a;
    use localwm_store::segment::Segment;

    let dir = tmp_dir("old-store");
    let design = dir.join("iir4.cdfg");
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("create store dir");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));
    let text = std::fs::read_to_string(&design).expect("read design");
    let graph = localwm_cdfg::parse_cdfg(&text).expect("design parses");
    let hash = fnv1a(localwm_cdfg::write_cdfg(&graph).as_bytes());
    let timing = |addr: &str| {
        let out = run_ok(localwm().args([
            "request",
            "timing",
            "--addr",
            addr,
            "--design",
            design.to_str().unwrap(),
        ]));
        out.lines()
            .take_while(|l| !l.starts_with("repeat "))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut server = spawn_server(None);
    let reference = timing(&server.addr);
    run_ok(localwm().args(["request", "shutdown", "--addr", &server.addr]));
    assert!(server.child.wait().expect("server exit").success());

    // Prime the store the way an older build left it.
    {
        let mut seg = Segment::create(&store_dir, 0).expect("create segment");
        seg.append_bytes(&Segment::encode_record(0, hash, LEGACY_DESIGN_PAYLOAD))
            .expect("append legacy design");
        seg.append_bytes(&Segment::encode_record(
            1,
            fnv1a(text.as_bytes()),
            &hash.to_le_bytes(),
        ))
        .expect("append alias");
    }

    for (life, puts) in [(1, "\"puts\": 1"), (2, "\"puts\": 0")] {
        let mut server = spawn_store_server(&store_dir);
        assert_eq!(
            timing(&server.addr),
            reference,
            "life {life} answers like a storeless server"
        );
        let stats = run_ok(localwm().args(["request", "stats", "--addr", &server.addr]));
        assert!(
            stats.contains(puts),
            "life {life}: the snapshot record is written once: {stats}"
        );
        run_ok(localwm().args(["request", "shutdown", "--addr", &server.addr]));
        assert!(server.child.wait().expect("server exit").success());
    }

    let sd = store_dir.to_str().unwrap();
    let ls = run_ok(localwm().args(["store", "ls", "--dir", sd]));
    assert!(
        ls.contains(&format!("design   {hash:016x}"))
            && ls.contains("2 record(s)")
            && ls.contains("1 record(s) of a retired kind"),
        "ls lists the current records and counts the retired one: {ls}"
    );
    let verify = run_ok(localwm().args(["store", "verify", "--dir", sd]));
    assert!(verify.contains("verified 3 record(s)"), "{verify}");
    let got = run_ok(localwm().args(["store", "get", &format!("{hash:016x}"), "--dir", sd]));
    assert_eq!(got, text, "get reads the snapshot record, not the old one");
    let compact = run_ok(localwm().args(["store", "compact", "--dir", sd]));
    assert!(compact.contains("compacted 3 live record(s)"), "{compact}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `localwm <args>` and waits at most ten seconds: a command that
/// should only print usage must never go on to bind and serve.
fn run_bounded(args: &[&str]) -> (std::process::ExitStatus, String, String) {
    let mut child = localwm()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn localwm");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`localwm {}` did not exit: it is serving", args.join(" "));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `--help` prints usage and exits 0 without binding; unknown flags, stray
/// arguments and flags missing their value fail with usage text.
#[test]
fn serve_and_gateway_validate_their_flags() {
    for cmd in ["serve", "gateway"] {
        let usage = format!("usage: localwm {cmd}");
        for help in ["--help", "-h"] {
            let (status, stdout, _) = run_bounded(&[cmd, help]);
            assert!(status.success(), "`{cmd} {help}` exits 0");
            assert!(
                stdout.contains(&usage),
                "`{cmd} {help}` prints usage: {stdout}"
            );
        }
        for bad in [
            vec![cmd, "--no-such-flag"],
            vec![cmd, "--addr", "127.0.0.1:0", "--sample", "3"],
            vec![cmd, "stray"],
            vec![cmd, "--addr"],
        ] {
            let (status, stdout, stderr) = run_bounded(&bad);
            assert!(!status.success(), "`{}` must fail", bad.join(" "));
            assert!(
                stdout.is_empty(),
                "`{}` must not serve: {stdout}",
                bad.join(" ")
            );
            assert!(
                stderr.contains(&usage),
                "`{}` prints usage: {stderr}",
                bad.join(" ")
            );
        }
    }
}

/// Every subcommand checks its arguments before doing any work: `--help`
/// prints its usage and exits 0, while an unknown flag, one positional
/// argument too many or a value flag without its value exits 1 with that
/// usage on stderr and nothing on stdout.
#[test]
fn every_subcommand_validates_its_flags() {
    // Each subcommand with one of its value flags and how many positional
    // arguments it takes.
    for (cmd, value_flag, positionals) in [
        ("gen", Some("--seed"), 1),
        ("info", None, 1),
        ("dot", None, 1),
        ("embed", Some("--author"), 1),
        ("detect", Some("--author"), 2),
        ("attack", Some("--budget"), 1),
        ("strength", Some("--budgets"), 1),
        ("schedule", Some("--steps"), 1),
        ("simulate", Some("--seed"), 1),
        ("analyze", Some("--samples"), 1),
        ("serve", Some("--addr"), 0),
        ("gateway", Some("--backends"), 0),
        ("request", Some("--addr"), 1),
        ("store", Some("--dir"), 2),
        ("chaos", Some("--seed"), 0),
    ] {
        let usage = format!("usage: localwm {cmd}");
        let (status, stdout, _) = run_bounded(&[cmd, "--help"]);
        assert!(status.success(), "`{cmd} --help` exits 0");
        assert!(
            stdout.contains(&usage),
            "`{cmd} --help` prints usage: {stdout}"
        );
        let mut bad = vec![vec![cmd, "--no-such-flag"]];
        let mut stray = vec![cmd];
        stray.resize(positionals + 2, "stray");
        bad.push(stray);
        if let Some(flag) = value_flag {
            bad.push(vec![cmd, flag]);
        }
        for args in bad {
            let (status, stdout, stderr) = run_bounded(&args);
            assert_eq!(status.code(), Some(1), "`{}` must fail", args.join(" "));
            assert!(
                stdout.is_empty(),
                "`{}` must do no work: {stdout}",
                args.join(" ")
            );
            assert!(
                stderr.contains(&usage),
                "`{}` prints usage: {stderr}",
                args.join(" ")
            );
        }
    }
}

/// `analyze --samples` outside `1..=MAX_SAMPLES` is a flag error: exit 1,
/// the offending value on stderr and nothing on stdout, so the kernel
/// never sees a count it cannot run or allocate.
#[test]
fn analyze_rejects_out_of_range_samples_before_any_work() {
    let dir = tmp_dir("samples");
    let design = dir.join("iir4.cdfg");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));
    for samples in ["0", "1000001"] {
        let args = ["analyze", design.to_str().unwrap(), "--samples", samples];
        let (status, stdout, stderr) = run_bounded(&args);
        assert_eq!(status.code(), Some(1), "--samples {samples} must fail");
        assert!(
            stdout.is_empty(),
            "--samples {samples} must do no work: {stdout}"
        );
        assert!(
            stderr.contains(&format!("bad samples `{samples}`: outside 1..=1000000")),
            "--samples {samples}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

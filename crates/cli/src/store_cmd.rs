//! `localwm store` — inspect and maintain a durable design store on disk.
//!
//! ```text
//! localwm store ls      --dir DIR            list live records
//! localwm store get <hash> --dir DIR [-o F]  print a stored design's CDFG
//! localwm store verify  --dir DIR            rescan every record checksum
//! localwm store compact --dir DIR            rewrite live records compactly
//! ```
//!
//! `verify` exits nonzero when any record fails its checksum, so it can
//! gate a deployment on store integrity; it scans the segment files
//! without opening the store, because opening *repairs* — recovery
//! truncates a corrupt tail away, which would hide exactly the damage an
//! audit exists to find. The other commands open the store directly; run
//! them all against a quiesced `--store-dir` (a serving process appending
//! concurrently would race the maintenance walk).

use std::fs;

use localwm_cdfg::{write_cdfg, Cdfg};
use localwm_store::{DesignStore, RecordKind};

use crate::commands::{parse_args, usage, Grammar};

type CliResult = Result<(), String>;

/// Dispatches `localwm store <ls|get|verify|compact>`.
pub fn store(args: &[String]) -> CliResult {
    let grammar = Grammar {
        values: &["--dir", "-o"],
        switches: &[],
        positionals: 2,
    };
    let Some(flags) = parse_args("store", args, &grammar)? else {
        return Ok(());
    };
    let action = *flags.positionals.first().ok_or_else(|| usage("store"))?;
    // Only `get` takes a second positional, the record key.
    match flags.positionals.get(1) {
        Some(extra) if action != "get" => {
            return Err(format!("unexpected argument `{extra}`\n{}", usage("store")));
        }
        _ => {}
    }
    let dir = flags.value("--dir").ok_or("store: missing --dir DIR")?;
    let open = || DesignStore::open(dir).map_err(|e| format!("opening store at {dir}: {e}"));
    match action {
        "ls" => ls(&open()?),
        "get" => get(
            &open()?,
            flags.positionals.get(1).copied(),
            flags.value("-o"),
        ),
        "verify" => verify(dir),
        "compact" => compact(&open()?),
        other => Err(format!(
            "unknown store action `{other}` (ls|get|verify|compact)"
        )),
    }
}

/// Parses a record key, accepting the `ls` listing's hex form or decimal.
fn parse_key(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>().or_else(|_| u64::from_str_radix(raw, 16)),
    };
    parsed.map_err(|_| format!("bad record key `{raw}` (hex or decimal)"))
}

fn ls(store: &DesignStore) -> CliResult {
    let records = store.records();
    for &(kind, key, payload_len) in &records {
        println!("{:<8} {key:016x}  {payload_len} bytes", kind.as_str());
    }
    let s = store.stats();
    let mut notes = String::new();
    let retired = s.records - records.len() as u64;
    if retired > 0 {
        notes.push_str(&format!(
            " ({retired} record(s) of a retired kind, never read)"
        ));
    }
    if s.dropped_tail > 0 {
        notes.push_str(&format!(
            " ({} torn tail(s) dropped on open)",
            s.dropped_tail
        ));
    }
    println!(
        "{} record(s) in {} segment(s), {} bytes on disk{notes}",
        records.len(),
        s.segments,
        s.bytes,
    );
    Ok(())
}

fn get(store: &DesignStore, raw: Option<&str>, out: Option<&str>) -> CliResult {
    let raw = raw.ok_or("store get: missing record key (see `localwm store ls`)")?;
    let key = parse_key(raw)?;
    let payload = store
        .get(RecordKind::Design, key)
        .map_err(|e| format!("reading record {key:016x}: {e}"))?
        .ok_or_else(|| format!("no design record with key {key:016x}"))?;
    let graph = Cdfg::from_snapshot(&payload).map_err(|e| format!("record {key:016x}: {e}"))?;
    let text = write_cdfg(&graph);
    match out {
        Some(out) => {
            fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote design {key:016x} to {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn verify(dir: &str) -> CliResult {
    // Audit without opening: `DesignStore::open` repairs torn tails by
    // truncation, which would hide the corruption this walk reports.
    let report = DesignStore::verify_dir(dir).map_err(|e| format!("verify walk failed: {e}"))?;
    println!(
        "verified {} record(s) across {} segment(s)",
        report.records, report.segments
    );
    if report.ok() {
        Ok(())
    } else {
        for line in &report.corrupt {
            eprintln!("corrupt: {line}");
        }
        Err(format!(
            "{} segment(s) contain corrupt records",
            report.corrupt.len()
        ))
    }
}

fn compact(store: &DesignStore) -> CliResult {
    let report = store
        .compact()
        .map_err(|e| format!("compact failed: {e}"))?;
    println!(
        "compacted {} live record(s): {} -> {} segment(s), {} -> {} bytes",
        report.records,
        report.segments_before,
        report.segments_after,
        report.bytes_before,
        report.bytes_after
    );
    Ok(())
}

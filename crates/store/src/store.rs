//! The durable, content-addressed design store.
//!
//! A [`DesignStore`] is a directory of append-only [segment](crate::segment)
//! files plus an in-memory index rebuilt by scanning every segment on open.
//! Keys are 64-bit content hashes; payloads are opaque bytes (the serve
//! tier stores graph snapshots and text-alias records). The store
//! is *content-addressed*: putting a key that is already present is a
//! no-op, so concurrent replicas converge on one record per design.
//!
//! Crash tolerance is the open-time scan: a torn or checksum-failing tail
//! record is dropped, counted in [`StoreStats::dropped_tail`], and the
//! segment is truncated back to its intact prefix before appends resume.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::segment::{
    parse_segment_file_name, scan_segment, segment_file_name, Segment, RECORD_HEADER_LEN,
};

#[cfg(feature = "fault-inject")]
use crate::fault::{StoreFaultAction, StoreFaultInjector, StoreFaultPlan, StorePoint};

/// The record kinds the serve tier stores.
///
/// Tags are on-disk and never reused. Tag 0 held the `Value`-encoded
/// design records of older builds; a store may still hold them, but no
/// kind parses to tag 0, so they are never decoded (or listed by
/// [`DesignStore::records`]) and never block a current record's write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// A design record (tag 2): key = canonical content hash, payload =
    /// the graph's flat binary snapshot (`Cdfg::to_snapshot` in
    /// `localwm-cdfg`).
    Design = 2,
    /// An alias record (tag 1): key = FNV-1a of the raw request text,
    /// payload = the 8-byte little-endian content hash it resolves to.
    /// Aliases let a byte-identical resend reach its design record without
    /// parsing.
    Alias = 1,
}

impl RecordKind {
    /// Every kind.
    pub const ALL: [RecordKind; 2] = [RecordKind::Design, RecordKind::Alias];

    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses an on-disk tag byte; `None` for retired and unknown tags.
    pub fn parse(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// A human-readable name (CLI `ls` output).
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Design => "design",
            RecordKind::Alias => "alias",
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Roll to a fresh segment once the active one reaches this size.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            // Small enough that the corpus spans a handful of segments in
            // tests, large enough that production designs amortize the
            // per-file cost.
            segment_max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A counters snapshot for the `stats` request and the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files on disk.
    pub segments: u64,
    /// Total segment bytes on disk.
    pub bytes: u64,
    /// Live indexed records.
    pub records: u64,
    /// Records appended since open.
    pub puts: u64,
    /// Gets that found their record.
    pub hits: u64,
    /// Gets that found nothing.
    pub misses: u64,
    /// Intact records recovered by the open-time scan.
    pub recovered: u64,
    /// Torn or checksum-failing tails dropped by the open-time scan.
    pub dropped_tail: u64,
    /// Reads that failed checksum or framing verification after open.
    pub checksum_failures: u64,
}

/// What [`DesignStore::verify`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments walked.
    pub segments: u64,
    /// Intact records seen.
    pub records: u64,
    /// One message per segment whose scan hit corruption.
    pub corrupt: Vec<String>,
}

impl VerifyReport {
    /// True when every record in every segment verified.
    pub fn ok(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// What [`DesignStore::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Live records carried over.
    pub records: u64,
    /// Segment count before / after.
    pub segments_before: u64,
    /// Segment count after compaction.
    pub segments_after: u64,
    /// Bytes on disk before compaction.
    pub bytes_before: u64,
    /// Bytes on disk after compaction.
    pub bytes_after: u64,
}

#[derive(Debug, Clone, Copy)]
struct Location {
    segment: u32,
    offset: u64,
    payload_len: u32,
}

struct Inner {
    dir: PathBuf,
    /// Every open segment by id; `active` names the one appends go to.
    segments: HashMap<u32, Segment>,
    active: u32,
    index: HashMap<(u8, u64), Location>,
}

/// The store; see the module docs.
pub struct DesignStore {
    inner: Mutex<Inner>,
    cfg: StoreConfig,
    puts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    recovered: AtomicU64,
    dropped_tail: AtomicU64,
    checksum_failures: AtomicU64,
    #[cfg(feature = "fault-inject")]
    injector: Option<StoreFaultInjector>,
}

fn list_segment_ids(dir: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

impl DesignStore {
    /// Opens (creating if needed) the store at `dir`, scanning every
    /// segment to rebuild the index. Torn tails are dropped, counted, and
    /// truncated away; they are not errors.
    ///
    /// # Errors
    ///
    /// Propagates directory and file I/O errors, and rejects files with a
    /// foreign magic header.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DesignStore> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// [`DesignStore::open`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// As [`DesignStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> io::Result<DesignStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let ids = list_segment_ids(&dir)?;
        let mut segments = HashMap::new();
        let mut index = HashMap::new();
        let mut recovered = 0u64;
        let mut dropped_tail = 0u64;
        for id in &ids {
            let path = dir.join(segment_file_name(*id));
            let (records, report) = scan_segment(&path)?;
            recovered += report.recovered;
            dropped_tail += report.dropped_tail;
            for r in records {
                // Later segments win on key collisions (content-addressed
                // keys make collisions identical payloads anyway).
                index.insert(
                    (r.kind, r.key),
                    Location {
                        segment: *id,
                        offset: r.offset,
                        payload_len: r.payload_len,
                    },
                );
            }
            // Reopening truncates the segment back to its intact prefix,
            // so dropped garbage can never interleave with fresh appends.
            segments.insert(*id, Segment::reopen(&dir, *id, report.good_len)?);
        }
        let active = match ids.last() {
            Some(&id) => id,
            None => {
                segments.insert(0, Segment::create(&dir, 0)?);
                0
            }
        };
        Ok(DesignStore {
            inner: Mutex::new(Inner {
                dir,
                segments,
                active,
                index,
            }),
            cfg,
            puts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recovered: AtomicU64::new(recovered),
            dropped_tail: AtomicU64::new(dropped_tail),
            checksum_failures: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            injector: None,
        })
    }

    /// [`DesignStore::open_with`] plus an armed storage fault plan. Only
    /// available with the `fault-inject` feature.
    ///
    /// # Errors
    ///
    /// As [`DesignStore::open`].
    #[cfg(feature = "fault-inject")]
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
        plan: &StoreFaultPlan,
    ) -> io::Result<DesignStore> {
        let mut store = Self::open_with(dir, cfg)?;
        store.injector = Some(StoreFaultInjector::from_plan(plan));
        Ok(store)
    }

    /// Appends one record unless `key` is already present (content
    /// addressing makes re-puts no-ops). Returns whether a record was
    /// actually written.
    ///
    /// # Errors
    ///
    /// Propagates write errors; the index is only updated on success.
    pub fn put(&self, kind: RecordKind, key: u64, payload: &[u8]) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.contains_key(&(kind.tag(), key)) {
            return Ok(false);
        }
        let record = Segment::encode_record(kind.tag(), key, payload);
        // Roll to a fresh segment when the active one is full (never roll
        // an empty segment: oversized records land alone instead).
        let roll = {
            let active = inner.segments.get(&inner.active).expect("active segment");
            active.len > RECORD_HEADER_LEN
                && active.len + record.len() as u64 > self.cfg.segment_max_bytes
        };
        if roll {
            let next = inner.active + 1;
            let seg = Segment::create(&inner.dir, next)?;
            inner.segments.insert(next, seg);
            inner.active = next;
        }
        let active_id = inner.active;
        let active = inner.segments.get_mut(&active_id).expect("active segment");
        #[cfg(feature = "fault-inject")]
        let offset = match self
            .injector
            .as_ref()
            .and_then(|i| i.check(StorePoint::Append))
        {
            Some(StoreFaultAction::ShortWrite) => {
                // A torn write: only a prefix of the record persists, but
                // the writer believes it succeeded — exactly what a crash
                // between page-cache write and flush looks like. The truth
                // surfaces on the next open as a dropped tail.
                active.append_bytes(&record[..record.len() / 2])?
            }
            Some(StoreFaultAction::ChecksumFlip) => {
                // Silent media corruption: one payload byte flips after
                // the checksum was computed.
                let mut bad = record.clone();
                let last = bad.len() - 1;
                bad[last] ^= 0x01;
                active.append_bytes(&bad)?
            }
            _ => active.append_bytes(&record)?,
        };
        #[cfg(not(feature = "fault-inject"))]
        let offset = active.append_bytes(&record)?;
        inner.index.insert(
            (kind.tag(), key),
            Location {
                segment: active_id,
                offset,
                payload_len: payload.len() as u32,
            },
        );
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Reads and checksum-verifies the record for `key`, if present.
    ///
    /// # Errors
    ///
    /// Read and verification failures are errors (and counted in
    /// [`StoreStats::checksum_failures`] when they are corruption, not
    /// plumbing); an absent key is `Ok(None)`.
    pub fn get(&self, kind: RecordKind, key: u64) -> io::Result<Option<Vec<u8>>> {
        let mut inner = self.inner.lock().expect("store lock");
        let Some(loc) = inner.index.get(&(kind.tag(), key)).copied() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        #[cfg(feature = "fault-inject")]
        if let Some(StoreFaultAction::ReadError) = self
            .injector
            .as_ref()
            .and_then(|i| i.check(StorePoint::Read))
        {
            return Err(io::Error::other("injected storage read error"));
        }
        let seg = inner
            .segments
            .get_mut(&loc.segment)
            .expect("indexed segment is open");
        match seg.read_record(loc.offset, loc.payload_len) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(payload))
            }
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) {
                    self.checksum_failures.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Whether `key` is indexed (no disk read).
    pub fn contains(&self, kind: RecordKind, key: u64) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .index
            .contains_key(&(kind.tag(), key))
    }

    /// Every indexed key of `kind`, sorted.
    pub fn keys(&self, kind: RecordKind) -> Vec<u64> {
        let inner = self.inner.lock().expect("store lock");
        let mut keys: Vec<u64> = inner
            .index
            .keys()
            .filter(|(t, _)| *t == kind.tag())
            .map(|(_, k)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Every live record of a current kind as `(kind, key, payload_len)`,
    /// sorted — the CLI `ls` listing. Records with a retired tag are
    /// skipped (they still count in [`StoreStats::records`]).
    pub fn records(&self) -> Vec<(RecordKind, u64, u32)> {
        let inner = self.inner.lock().expect("store lock");
        let mut out: Vec<(RecordKind, u64, u32)> = inner
            .index
            .iter()
            .filter_map(|(&(tag, key), loc)| {
                RecordKind::parse(tag).map(|k| (k, key, loc.payload_len))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// A counters snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            segments: inner.segments.len() as u64,
            bytes: inner.segments.values().map(|s| s.len).sum(),
            records: inner.index.len() as u64,
            puts: self.puts.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            dropped_tail: self.dropped_tail.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
        }
    }

    /// Scans every segment file in `dir` without opening the store — the
    /// non-destructive integrity walk behind `localwm store verify`.
    /// [`DesignStore::open`] *repairs*: it truncates a torn or
    /// checksum-failing tail back to the intact prefix, which would hide
    /// the damage from a post-open rescan. This walk never writes, so the
    /// corruption the next open would silently drop is reported instead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption is reported in the `Ok` report,
    /// not as an error.
    pub fn verify_dir(dir: impl AsRef<Path>) -> io::Result<VerifyReport> {
        let dir = dir.as_ref();
        let mut report = VerifyReport::default();
        for id in list_segment_ids(dir)? {
            let path = dir.join(segment_file_name(id));
            let (records, scan) = scan_segment(&path)?;
            report.segments += 1;
            report.records += records.len() as u64;
            if let Some(reason) = scan.drop_reason {
                report
                    .corrupt
                    .push(format!("{}: {reason}", segment_file_name(id)));
            }
        }
        Ok(report)
    }

    /// Re-scans every segment file from disk, verifying every record's
    /// checksum — the CLI `verify` walk. The in-memory index is not
    /// consulted, so this catches corruption behind already-indexed
    /// records too. (Corruption that predates this store's open was
    /// already truncated away by recovery; use [`DesignStore::verify_dir`]
    /// to audit a directory without repairing it.)
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption is reported in the `Ok` report,
    /// not as an error.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let inner = self.inner.lock().expect("store lock");
        let mut report = VerifyReport::default();
        let mut ids: Vec<u32> = inner.segments.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let path = inner.dir.join(segment_file_name(id));
            let (records, scan) = scan_segment(&path)?;
            report.segments += 1;
            report.records += records.len() as u64;
            if let Some(reason) = scan.drop_reason {
                report
                    .corrupt
                    .push(format!("{}: {reason}", segment_file_name(id)));
            }
        }
        Ok(report)
    }

    /// Rewrites every live record into fresh, densely packed segments and
    /// removes the old files. Records land sorted by `(kind, key)`, so a
    /// compacted store is a canonical function of its live key set; the
    /// bytes served for every key are unchanged.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. The old segments are only removed after the
    /// replacement files are fully written.
    pub fn compact(&self) -> io::Result<CompactReport> {
        let mut inner = self.inner.lock().expect("store lock");
        let mut report = CompactReport {
            segments_before: inner.segments.len() as u64,
            bytes_before: inner.segments.values().map(|s| s.len).sum(),
            ..CompactReport::default()
        };
        // Read every live record while the old segments are still open.
        let mut keys: Vec<(u8, u64)> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        let mut live = Vec::with_capacity(keys.len());
        for (tag, key) in keys {
            let loc = inner.index[&(tag, key)];
            let seg = inner
                .segments
                .get_mut(&loc.segment)
                .expect("indexed segment is open");
            let payload = seg.read_record(loc.offset, loc.payload_len)?;
            live.push((tag, key, payload));
        }
        // Write the replacements under temporary names first.
        let dir = inner.dir.clone();
        let tmp_dir = dir.join("compact.tmp");
        let _ = fs::remove_dir_all(&tmp_dir);
        fs::create_dir_all(&tmp_dir)?;
        let mut new_id: u32 = 0;
        let mut seg = Segment::create(&tmp_dir, new_id)?;
        for (tag, key, payload) in &live {
            let record = Segment::encode_record(*tag, *key, payload);
            if seg.len > RECORD_HEADER_LEN
                && seg.len + record.len() as u64 > self.cfg.segment_max_bytes
            {
                new_id += 1;
                seg = Segment::create(&tmp_dir, new_id)?;
            }
            seg.append_bytes(&record)?;
        }
        drop(seg);
        // Swap: drop old handles, remove old files, move replacements in.
        let old_ids: Vec<u32> = inner.segments.keys().copied().collect();
        inner.segments.clear();
        inner.index.clear();
        for id in old_ids {
            fs::remove_file(dir.join(segment_file_name(id)))?;
        }
        for id in 0..=new_id {
            fs::rename(
                tmp_dir.join(segment_file_name(id)),
                dir.join(segment_file_name(id)),
            )?;
        }
        fs::remove_dir_all(&tmp_dir)?;
        // Rebuild the index by scanning what was just written.
        for id in 0..=new_id {
            let path = dir.join(segment_file_name(id));
            let (records, scan) = scan_segment(&path)?;
            for r in &records {
                inner.index.insert(
                    (r.kind, r.key),
                    Location {
                        segment: id,
                        offset: r.offset,
                        payload_len: r.payload_len,
                    },
                );
            }
            inner
                .segments
                .insert(id, Segment::reopen(&dir, id, scan.good_len)?);
        }
        inner.active = new_id;
        report.records = inner.index.len() as u64;
        report.segments_after = inner.segments.len() as u64;
        report.bytes_after = inner.segments.values().map(|s| s.len).sum();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("localwm-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_reput_is_a_noop() {
        let dir = tmp_dir("putget");
        let store = DesignStore::open(&dir).unwrap();
        assert!(store.put(RecordKind::Design, 7, b"payload-7").unwrap());
        assert!(!store.put(RecordKind::Design, 7, b"ignored").unwrap());
        assert!(
            store.put(RecordKind::Alias, 7, b"alias-7").unwrap(),
            "kinds have separate key spaces"
        );
        assert_eq!(
            store.get(RecordKind::Design, 7).unwrap().unwrap(),
            b"payload-7"
        );
        assert_eq!(
            store.get(RecordKind::Alias, 7).unwrap().unwrap(),
            b"alias-7"
        );
        assert_eq!(store.get(RecordKind::Design, 8).unwrap(), None);
        let s = store.stats();
        assert_eq!((s.puts, s.hits, s.misses, s.records), (2, 2, 1, 2));
        assert!(store.contains(RecordKind::Design, 7));
        assert!(!store.contains(RecordKind::Design, 8));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_the_index_from_disk() {
        let dir = tmp_dir("reopen");
        {
            let store = DesignStore::open(&dir).unwrap();
            for k in 0..20u64 {
                store
                    .put(RecordKind::Design, k, format!("payload-{k}").as_bytes())
                    .unwrap();
            }
        }
        let store = DesignStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.records, 20);
        assert_eq!(s.recovered, 20);
        assert_eq!(s.dropped_tail, 0);
        for k in 0..20u64 {
            assert_eq!(
                store.get(RecordKind::Design, k).unwrap().unwrap(),
                format!("payload-{k}").as_bytes()
            );
        }
        assert_eq!(store.keys(RecordKind::Design), (0..20).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_size_threshold() {
        let dir = tmp_dir("roll");
        let store = DesignStore::open_with(
            &dir,
            StoreConfig {
                segment_max_bytes: 256,
            },
        )
        .unwrap();
        for k in 0..32u64 {
            store.put(RecordKind::Design, k, &[0xAB; 64]).unwrap();
        }
        let s = store.stats();
        assert!(
            s.segments > 1,
            "expected a roll, got {} segment(s)",
            s.segments
        );
        assert_eq!(s.records, 32);
        // Every record still readable across the roll.
        for k in 0..32u64 {
            assert_eq!(
                store.get(RecordKind::Design, k).unwrap().unwrap(),
                vec![0xAB; 64]
            );
        }
        // And across a reopen.
        drop(store);
        let store = DesignStore::open(&dir).unwrap();
        assert_eq!(store.stats().records, 32);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_on_disk_is_dropped_counted_and_overwritten() {
        let dir = tmp_dir("torn");
        {
            let store = DesignStore::open(&dir).unwrap();
            for k in 0..5u64 {
                store.put(RecordKind::Design, k, b"intact").unwrap();
            }
        }
        // Tear the last record by hand.
        let path = dir.join(segment_file_name(0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let store = DesignStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.records, 4, "intact records survive");
        assert_eq!(s.recovered, 4);
        assert_eq!(s.dropped_tail, 1, "the tear is surfaced");
        for k in 0..4u64 {
            assert_eq!(
                store.get(RecordKind::Design, k).unwrap().unwrap(),
                b"intact"
            );
        }
        assert_eq!(store.get(RecordKind::Design, 4).unwrap(), None);
        // A fresh put of the dropped key lands cleanly.
        assert!(store.put(RecordKind::Design, 4, b"intact").unwrap());
        assert_eq!(
            store.get(RecordKind::Design, 4).unwrap().unwrap(),
            b"intact"
        );
        assert!(store.verify().unwrap().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_corruption_behind_indexed_records() {
        let dir = tmp_dir("verify");
        let store = DesignStore::open(&dir).unwrap();
        store.put(RecordKind::Design, 1, b"first-record").unwrap();
        store.put(RecordKind::Design, 2, b"second-record").unwrap();
        assert!(store.verify().unwrap().ok());
        // Flip a byte in the *first* record's payload on disk.
        let path = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let first_payload = 8 + RECORD_HEADER_LEN as usize;
        bytes[first_payload] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let report = store.verify().unwrap();
        assert!(!report.ok());
        assert!(report.corrupt[0].contains("checksum"));
        // A get of the corrupted record fails loudly and is counted.
        assert!(store.get(RecordKind::Design, 1).is_err());
        assert_eq!(store.stats().checksum_failures, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_dir_reports_the_tail_corruption_that_open_would_repair() {
        let dir = tmp_dir("verify-dir");
        {
            let store = DesignStore::open(&dir).unwrap();
            store.put(RecordKind::Design, 1, b"first-record").unwrap();
            store.put(RecordKind::Design, 2, b"second-record").unwrap();
        }
        assert!(DesignStore::verify_dir(&dir).unwrap().ok());
        // Flip the last payload byte: the tail record's checksum breaks.
        let path = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let len_before = fs::metadata(&path).unwrap().len();
        // The audit walk sees the corruption and leaves the file alone.
        let report = DesignStore::verify_dir(&dir).unwrap();
        assert_eq!(report.records, 1);
        assert!(!report.ok());
        assert!(report.corrupt[0].contains("checksum"));
        assert_eq!(fs::metadata(&path).unwrap().len(), len_before);
        // Opening the store repairs: the tail is truncated away, after
        // which a post-open rescan (instance verify) reports clean — the
        // reason the CLI audit must use `verify_dir`.
        let store = DesignStore::open(&dir).unwrap();
        assert_eq!(store.stats().dropped_tail, 1);
        assert!(store.verify().unwrap().ok());
        assert!(DesignStore::verify_dir(&dir).unwrap().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_preserves_the_live_key_set_byte_identically() {
        let dir = tmp_dir("compact");
        let store = DesignStore::open_with(
            &dir,
            StoreConfig {
                segment_max_bytes: 200,
            },
        )
        .unwrap();
        let mut expect = Vec::new();
        for k in 0..24u64 {
            let payload = vec![k as u8; 16 + (k as usize % 7)];
            store.put(RecordKind::Design, k, &payload).unwrap();
            expect.push((k, payload));
        }
        store
            .put(RecordKind::Alias, 99, &7u64.to_le_bytes())
            .unwrap();
        let before = store.stats();
        let report = store.compact().unwrap();
        assert_eq!(report.records, before.records);
        assert_eq!(report.segments_before, before.segments);
        assert!(report.segments_after <= report.segments_before);
        for (k, payload) in &expect {
            assert_eq!(
                store.get(RecordKind::Design, *k).unwrap().unwrap(),
                *payload
            );
        }
        assert_eq!(
            store.get(RecordKind::Alias, 99).unwrap().unwrap(),
            7u64.to_le_bytes()
        );
        assert!(store.verify().unwrap().ok());
        // The compacted layout survives a reopen.
        drop(store);
        let store = DesignStore::open(&dir).unwrap();
        assert_eq!(store.stats().records, 25);
        for (k, payload) in &expect {
            assert_eq!(
                store.get(RecordKind::Design, *k).unwrap().unwrap(),
                *payload
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "fault-inject")]
    mod faults {
        use super::*;
        use crate::fault::{StoreFaultAction, StoreFaultPlan, StorePoint};

        #[test]
        fn injected_short_write_surfaces_as_a_dropped_tail_on_reopen() {
            let dir = tmp_dir("fault-short");
            {
                let plan =
                    StoreFaultPlan::single(StorePoint::Append, 4, StoreFaultAction::ShortWrite);
                let store =
                    DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).unwrap();
                for k in 0..5u64 {
                    store
                        .put(RecordKind::Design, k, format!("record-{k}").as_bytes())
                        .unwrap();
                }
            }
            let store = DesignStore::open(&dir).unwrap();
            let s = store.stats();
            assert_eq!(s.recovered, 4, "every intact record is served");
            assert_eq!(s.dropped_tail, 1, "the torn append is reported");
            for k in 0..4u64 {
                assert_eq!(
                    store.get(RecordKind::Design, k).unwrap().unwrap(),
                    format!("record-{k}").as_bytes()
                );
            }
            assert_eq!(store.get(RecordKind::Design, 4).unwrap(), None);
            fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn injected_checksum_flip_is_caught_by_get_and_verify() {
            let dir = tmp_dir("fault-flip");
            let plan =
                StoreFaultPlan::single(StorePoint::Append, 1, StoreFaultAction::ChecksumFlip);
            let store = DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).unwrap();
            store.put(RecordKind::Design, 1, b"clean").unwrap();
            store.put(RecordKind::Design, 2, b"flipped").unwrap();
            assert_eq!(store.get(RecordKind::Design, 1).unwrap().unwrap(), b"clean");
            assert!(store.get(RecordKind::Design, 2).is_err());
            assert_eq!(store.stats().checksum_failures, 1);
            assert!(!store.verify().unwrap().ok());
            fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn injected_read_error_fails_the_get_but_not_the_store() {
            let dir = tmp_dir("fault-read");
            let plan = StoreFaultPlan::single(StorePoint::Read, 0, StoreFaultAction::ReadError);
            let store = DesignStore::open_with_faults(&dir, StoreConfig::default(), &plan).unwrap();
            store.put(RecordKind::Design, 1, b"payload").unwrap();
            assert!(store.get(RecordKind::Design, 1).is_err());
            // The next read of the same record succeeds: the fault was
            // transient, the record is intact.
            assert_eq!(
                store.get(RecordKind::Design, 1).unwrap().unwrap(),
                b"payload"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

//! Append-only segment files: the on-disk unit of the design store.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! segment  = header record*
//! header   = "LWMSEG1\n"                        (8 bytes)
//! record   = u32 payload_len                    (4 bytes)
//!            u8  kind                           (1 byte)
//!            u64 key                            (8 bytes)
//!            u64 checksum                       (8 bytes; FNV-1a over
//!                                               kind, key-LE, payload)
//!            payload                            (payload_len bytes)
//! ```
//!
//! Records are never rewritten in place; the only mutation is appending.
//! Crash tolerance comes from the open-time scan: a record whose header or
//! payload is cut short (a torn tail after power loss) or whose checksum
//! does not verify ends the scan for that segment. Everything before the
//! bad record is served; the bad record and anything after it are dropped
//! and counted, and the file is truncated back to the last good byte so
//! the next append cannot interleave with garbage.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"LWMSEG1\n";

/// Bytes of record framing before the payload.
pub const RECORD_HEADER_LEN: u64 = 4 + 1 + 8 + 8;

/// Hard cap on one record payload; a larger length in a record header is
/// treated as corruption, before anything is allocated. Generous: the
/// largest corpus design snapshots to well under a megabyte.
pub const MAX_PAYLOAD_LEN: u32 = 64 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`: the hash of every value that is written to disk
/// or pinned by a test — record checksums, store alias keys, content
/// hashes and rendezvous ranks. Its values must never change; for a key
/// that lives only in one process's memory, [`fingerprint`] is the
/// faster choice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// FNV-1a over the concatenation of `parts`, without concatenating them.
fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, part| fnv1a_continue(h, part))
}

/// Folds `bytes` into the running FNV-1a state `h`.
fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64 with seed 0 over `bytes`: an in-process fingerprint of request
/// text that reads eight bytes per step, about 15x faster than [`fnv1a`]
/// on a design text. It keys maps that live only in one process's memory
/// (the text-alias maps of serve and the gateway, the single-flight key);
/// nothing it returns is written to disk or sent over the wire, so it
/// may change without a migration.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fn read64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(XXH_P2))
            .rotate_left(31)
            .wrapping_mul(XXH_P1)
    }
    fn merge(acc: u64, v: u64) -> u64 {
        (acc ^ round(0, v))
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4)
    }
    let stripes = bytes.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (lane, acc) in v.iter_mut().enumerate() {
                *acc = round(*acc, read64(&stripe[lane * 8..]));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, read64(rest)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// The file name of segment `id`.
pub fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.lwm")
}

/// Parses a segment id out of a file name produced by
/// [`segment_file_name`].
pub fn parse_segment_file_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".lwm")?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The checksum a record carries: FNV-1a over kind, key-LE and payload,
/// folded over the three parts in place.
pub fn record_checksum(kind: u8, key: u64, payload: &[u8]) -> u64 {
    fnv1a_parts(&[&[kind], &key.to_le_bytes(), payload])
}

/// Where one live record sits on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Record kind byte.
    pub kind: u8,
    /// Record key.
    pub key: u64,
    /// Byte offset of the record header inside its segment.
    pub offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// What the open-time scan of one segment found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Intact records recovered from this segment.
    pub recovered: u64,
    /// 1 when a torn or checksum-failing tail was detected and dropped.
    pub dropped_tail: u64,
    /// Human-readable reason for the drop, when one happened.
    pub drop_reason: Option<String>,
    /// Byte length of the intact prefix (header included).
    pub good_len: u64,
}

/// Scans `path`, returning every intact record and the scan report.
///
/// # Errors
///
/// Propagates open/read errors and rejects a missing or foreign magic
/// header; torn tails are *not* errors — they are reported and dropped.
pub fn scan_segment(path: &Path) -> io::Result<(Vec<RecordMeta>, ScanReport)> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut magic = [0u8; 8];
    match file.read_exact(&mut magic) {
        Ok(()) if &magic == SEGMENT_MAGIC => {}
        Ok(()) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a localwm segment (bad magic)", path.display()),
            ));
        }
        Err(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: shorter than the segment header", path.display()),
            ));
        }
    }
    let mut records = Vec::new();
    let mut report = ScanReport {
        good_len: SEGMENT_MAGIC.len() as u64,
        ..ScanReport::default()
    };
    let mut offset = SEGMENT_MAGIC.len() as u64;
    let mut header = [0u8; RECORD_HEADER_LEN as usize];
    loop {
        if offset == file_len {
            break; // clean end of segment
        }
        let drop = |reason: String, report: &mut ScanReport| {
            report.dropped_tail = 1;
            report.drop_reason = Some(reason);
        };
        if file_len - offset < RECORD_HEADER_LEN {
            drop(
                format!(
                    "torn record header at offset {offset}: {} of {RECORD_HEADER_LEN} bytes",
                    file_len - offset
                ),
                &mut report,
            );
            break;
        }
        file.read_exact(&mut header)?;
        let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let kind = header[4];
        let key = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let stored = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
        if payload_len > MAX_PAYLOAD_LEN {
            drop(
                format!("implausible payload length {payload_len} at offset {offset}"),
                &mut report,
            );
            break;
        }
        if file_len - offset - RECORD_HEADER_LEN < u64::from(payload_len) {
            drop(
                format!(
                    "torn payload at offset {offset}: {} of {payload_len} bytes",
                    file_len - offset - RECORD_HEADER_LEN
                ),
                &mut report,
            );
            break;
        }
        let mut payload = vec![0u8; payload_len as usize];
        file.read_exact(&mut payload)?;
        if record_checksum(kind, key, &payload) != stored {
            drop(
                format!("checksum mismatch at offset {offset} (kind {kind}, key {key:016x})"),
                &mut report,
            );
            break;
        }
        records.push(RecordMeta {
            kind,
            key,
            offset,
            payload_len,
        });
        report.recovered += 1;
        offset += RECORD_HEADER_LEN + u64::from(payload_len);
        report.good_len = offset;
    }
    Ok((records, report))
}

/// One segment open for appending (and reading records back).
pub struct Segment {
    /// Segment id (the number in the file name).
    pub id: u32,
    path: PathBuf,
    file: File,
    /// Current byte length (header plus every intact record).
    pub len: u64,
}

impl Segment {
    /// Creates a fresh segment file `id` in `dir`, writing the header.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn create(dir: &Path, id: u32) -> io::Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.flush()?;
        Ok(Segment {
            id,
            path,
            file,
            len: SEGMENT_MAGIC.len() as u64,
        })
    }

    /// Reopens an existing segment for appending, truncating it back to
    /// `good_len` (the intact prefix reported by [`scan_segment`]) so a
    /// torn tail can never interleave with fresh appends.
    ///
    /// # Errors
    ///
    /// Propagates open/truncate errors.
    pub fn reopen(dir: &Path, id: u32, good_len: u64) -> io::Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(good_len)?;
        Ok(Segment {
            id,
            path,
            file,
            len: good_len,
        })
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serializes one record into its on-disk byte form.
    pub fn encode_record(kind: u8, key: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&record_checksum(kind, key, payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Appends `bytes` (an encoded record) verbatim, returning the record's
    /// offset. Callers build `bytes` with [`Segment::encode_record`]; the
    /// indirection exists so fault injection can truncate or corrupt the
    /// byte image exactly as a failing disk would.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let offset = self.len;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.file.flush()?;
        self.len += bytes.len() as u64;
        Ok(offset)
    }

    /// Reads and checksum-verifies the record at `offset`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on checksum or framing mismatch; read errors
    /// propagate.
    pub fn read_record(&mut self, offset: u64, payload_len: u32) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; RECORD_HEADER_LEN as usize];
        self.file.read_exact(&mut header)?;
        let stored_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let kind = header[4];
        let key = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let stored_sum = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
        if stored_len != payload_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record at offset {offset}: index says {payload_len} payload bytes, disk says {stored_len}"
                ),
            ));
        }
        let mut payload = vec![0u8; payload_len as usize];
        self.file.read_exact(&mut payload)?;
        if record_checksum(kind, key, &payload) != stored_sum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record at offset {offset}: checksum mismatch on read"),
            ));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("localwm-segment-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.lwm");
        assert_eq!(parse_segment_file_name("seg-000007.lwm"), Some(7));
        assert_eq!(parse_segment_file_name("seg-7.lwm"), None);
        assert_eq!(parse_segment_file_name("seg-000007.tmp"), None);
        assert_eq!(parse_segment_file_name("other.lwm"), None);
    }

    #[test]
    fn record_checksums_match_the_values_pinned_before_the_in_place_fold() {
        // Computed by the former copy-then-hash implementation; existing
        // stores carry these checksums, so the value must never change.
        let payload: Vec<u8> = (0u16..300).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(
            record_checksum(2, 0x0123_4567_89ab_cdef, &payload),
            0xf29d_aa07_80f2_ceb9
        );
        assert_eq!(
            record_checksum(1, 42, &7u64.to_le_bytes()),
            0xaa85_ea27_5951_54e1
        );
        assert_eq!(record_checksum(0, 0, b""), 0xe604_823a_2490_29bf);
    }

    #[test]
    fn append_scan_read_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut seg = Segment::create(&dir, 0).unwrap();
        let a = Segment::encode_record(0, 0xAAAA, b"alpha");
        let b = Segment::encode_record(1, 0xBBBB, b"beta-payload");
        let off_a = seg.append_bytes(&a).unwrap();
        let off_b = seg.append_bytes(&b).unwrap();
        assert_eq!(seg.read_record(off_a, 5).unwrap(), b"alpha");
        assert_eq!(seg.read_record(off_b, 12).unwrap(), b"beta-payload");

        let (records, report) = scan_segment(&dir.join(segment_file_name(0))).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, 0xAAAA);
        assert_eq!(records[1].kind, 1);
        assert_eq!(report.recovered, 2);
        assert_eq!(report.dropped_tail, 0);
        assert_eq!(report.good_len, seg.len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_reported_at_every_cut() {
        let dir = tmp_dir("torn");
        let mut seg = Segment::create(&dir, 0).unwrap();
        seg.append_bytes(&Segment::encode_record(0, 1, b"first"))
            .unwrap();
        let keep = seg.len;
        seg.append_bytes(&Segment::encode_record(0, 2, b"second"))
            .unwrap();
        let path = dir.join(segment_file_name(0));
        let full = std::fs::read(&path).unwrap();
        // A cut exactly at the record boundary is a clean end, not a tear.
        std::fs::write(&path, &full[..keep as usize]).unwrap();
        let (records, report) = scan_segment(&path).unwrap();
        assert_eq!((records.len(), report.dropped_tail), (1, 0));
        // Cut the second record anywhere inside: the first must survive
        // and the tear must be reported.
        for cut in keep as usize + 1..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, report) = scan_segment(&path).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(records[0].key, 1);
            assert_eq!(report.dropped_tail, 1, "cut at {cut}");
            assert_eq!(report.good_len, keep, "cut at {cut}");
            assert!(report.drop_reason.is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_ends_the_scan() {
        let dir = tmp_dir("corrupt");
        let mut seg = Segment::create(&dir, 0).unwrap();
        seg.append_bytes(&Segment::encode_record(0, 1, b"first"))
            .unwrap();
        let tail_off = seg.len;
        seg.append_bytes(&Segment::encode_record(0, 2, b"second"))
            .unwrap();
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = tail_off as usize + RECORD_HEADER_LEN as usize; // first payload byte of record 2
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, report) = scan_segment(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(report.dropped_tail, 1);
        assert!(report.drop_reason.unwrap().contains("checksum"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_xxh64_with_seed_zero() {
        assert_eq!(fingerprint(b""), 0xef46_db37_51d8_e999);
        assert_eq!(fingerprint(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(fingerprint(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
        assert_eq!(
            fingerprint(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn fingerprint_sees_every_byte_of_every_tail() {
        let text: Vec<u8> = (0..100u8).collect();
        for len in 0..text.len() {
            let base = fingerprint(&text[..len]);
            for i in 0..len {
                let mut flipped = text[..len].to_vec();
                flipped[i] ^= 1;
                assert_ne!(fingerprint(&flipped), base, "len {len}, byte {i}");
            }
        }
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = tmp_dir("foreign");
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, b"not a segment at all").unwrap();
        assert!(scan_segment(&path).is_err());
        std::fs::write(&path, b"abc").unwrap();
        assert!(scan_segment(&path).is_err(), "shorter than header");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_back_to_the_intact_prefix() {
        let dir = tmp_dir("reopen");
        let mut seg = Segment::create(&dir, 3).unwrap();
        seg.append_bytes(&Segment::encode_record(0, 1, b"keep"))
            .unwrap();
        let keep = seg.len;
        // Simulate a torn append: half a record lands.
        let torn = Segment::encode_record(0, 2, b"torn-record");
        seg.append_bytes(&torn[..torn.len() / 2]).unwrap();
        drop(seg);
        let path = dir.join(segment_file_name(3));
        let (_, report) = scan_segment(&path).unwrap();
        assert_eq!(report.good_len, keep);
        let mut seg = Segment::reopen(&dir, 3, report.good_len).unwrap();
        assert_eq!(seg.len, keep);
        // A fresh append lands cleanly where the torn bytes were.
        let off = seg
            .append_bytes(&Segment::encode_record(0, 9, b"fresh"))
            .unwrap();
        assert_eq!(off, keep);
        let (records, report) = scan_segment(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.dropped_tail, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

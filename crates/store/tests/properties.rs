//! Property-based tests for the design store.
//!
//! Three invariants:
//!
//! * put/get over random CDFGs is identity (through the graph snapshot
//!   the serve tier stores as a design record),
//! * reopening after truncating a segment at an *arbitrary* byte offset
//!   never panics and serves exactly the records before the cut,
//! * `compact` preserves the live key set byte-identically.

use std::fs;
use std::path::PathBuf;

use localwm_cdfg::generators::{layered, random_dag, LayeredConfig};
use localwm_cdfg::{write_cdfg, Cdfg};
use localwm_store::segment::segment_file_name;
use localwm_store::{DesignStore, RecordKind, StoreConfig};
use proptest::prelude::*;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "localwm-store-prop-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random design stored as its snapshot comes back as the identical
    /// graph: same canonical text, same structure.
    #[test]
    fn put_get_over_random_cdfgs_is_identity(ops in 2usize..48, seed in 0u64..5000) {
        let g = layered(&LayeredConfig {
            ops,
            layers: (ops / 5).max(1),
            seed,
            ..Default::default()
        });
        let text = write_cdfg(&g);
        let key = fnv1a(text.as_bytes());
        let payload = g.to_snapshot();

        let dir = tmp_dir("identity", seed ^ ops as u64);
        let store = DesignStore::open(&dir).unwrap();
        prop_assert!(store.put(RecordKind::Design, key, &payload).unwrap());
        let back = store.get(RecordKind::Design, key).unwrap().unwrap();
        prop_assert_eq!(&back, &payload, "stored bytes are served verbatim");
        let decoded = Cdfg::from_snapshot(&back).unwrap();
        prop_assert_eq!(write_cdfg(&decoded), text, "decoded graph is the same design");
        // And the identity survives a reopen from disk.
        drop(store);
        let store = DesignStore::open(&dir).unwrap();
        prop_assert_eq!(store.get(RecordKind::Design, key).unwrap().unwrap(), payload);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the one segment at *any* byte offset, then reopening,
    /// never panics: every record wholly before the cut is served, and the
    /// tear (when the cut is inside a record) is reported.
    #[test]
    fn reopen_after_arbitrary_truncation_never_panics(
        n_records in 1usize..12,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let dir = tmp_dir("truncate", seed ^ (n_records as u64) << 32);
        let mut payloads = Vec::new();
        {
            let store = DesignStore::open(&dir).unwrap();
            for k in 0..n_records as u64 {
                let payload = write_cdfg(&random_dag(2 + (k as usize % 6), 0.3, seed ^ k));
                store.put(RecordKind::Design, k, payload.as_bytes()).unwrap();
                payloads.push(payload);
            }
        }
        let path = dir.join(segment_file_name(0));
        let full = fs::read(&path).unwrap();
        let cut = (cut_frac * full.len() as f64) as usize;
        fs::write(&path, &full[..cut.min(full.len())]).unwrap();

        match DesignStore::open(&dir) {
            Ok(store) => {
                let s = store.stats();
                prop_assert!(s.records <= n_records as u64);
                prop_assert!(s.recovered == s.records);
                // Recovery is a prefix: record k is served iff k < records.
                for k in 0..n_records as u64 {
                    match store.get(RecordKind::Design, k).unwrap() {
                        Some(bytes) => {
                            prop_assert!(k < s.records);
                            prop_assert_eq!(&bytes, payloads[k as usize].as_bytes());
                        }
                        None => prop_assert!(k >= s.records),
                    }
                }
                // The cut either landed on a record boundary (clean) or
                // inside a record (reported as a dropped tail).
                let clean_end = cut >= full.len();
                if !clean_end && s.records < n_records as u64 {
                    prop_assert!(s.dropped_tail <= 1);
                }
            }
            // Cuts inside the 8-byte magic legitimately fail to open; the
            // invariant is only that nothing panics.
            Err(_) => prop_assert!(cut < 8),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `compact` preserves the live key set and the exact payload bytes of
    /// every key, across multiple segments and a follow-up reopen.
    #[test]
    fn compact_preserves_live_keys_byte_identically(
        n_records in 1usize..30,
        seed in 0u64..1000,
    ) {
        let dir = tmp_dir("compact", seed ^ (n_records as u64) << 40);
        let store = DesignStore::open_with(&dir, StoreConfig { segment_max_bytes: 300 }).unwrap();
        let mut expect = Vec::new();
        for k in 0..n_records as u64 {
            let payload = write_cdfg(&random_dag(2 + (k as usize % 8), 0.25, seed ^ k));
            store.put(RecordKind::Design, k, payload.as_bytes()).unwrap();
            store.put(RecordKind::Alias, !k, &k.to_le_bytes()).unwrap();
            expect.push((k, payload));
        }
        let before = store.stats();
        let report = store.compact().unwrap();
        prop_assert_eq!(report.records, before.records);
        prop_assert_eq!(store.stats().records, before.records);
        for (k, payload) in &expect {
            prop_assert_eq!(
                store.get(RecordKind::Design, *k).unwrap().unwrap(),
                payload.as_bytes()
            );
            prop_assert_eq!(
                store.get(RecordKind::Alias, !*k).unwrap().unwrap(),
                k.to_le_bytes()
            );
        }
        prop_assert!(store.verify().unwrap().ok());
        drop(store);
        let store = DesignStore::open(&dir).unwrap();
        prop_assert_eq!(store.stats().records, before.records);
        for (k, payload) in &expect {
            prop_assert_eq!(
                store.get(RecordKind::Design, *k).unwrap().unwrap(),
                payload.as_bytes()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

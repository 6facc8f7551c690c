//! `localwm-store`: the durable, content-addressed design store.
//!
//! * [`DesignStore`] — a directory of append-only, checksummed
//!   [segment](segment) files keyed by 64-bit content hashes, with an
//!   in-memory index rebuilt by scanning the segments on open. Torn or
//!   corrupt tail records (crashes, flipped bits) are detected by
//!   per-record FNV-1a checksums, dropped cleanly, and surfaced in
//!   [`StoreStats`]. `localwm-serve` mounts this as a write-through tier
//!   under its context LRU (`--store-dir`), so a restarted replica
//!   warm-starts from disk instead of re-parsing every design from text.
//!   A design record's payload is the graph's own flat snapshot
//!   (`Cdfg::to_snapshot`). [`segment::fnv1a`], the record checksum's
//!   hash, is also the design-text hash the service tiers key by.
//!
//! Storage fault injection ([`fault`]) mirrors the serve-side seams: a
//! seeded plan of short writes, read errors and checksum flips, active
//! only when the crate is built with the `fault-inject` feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod segment;
mod store;

pub use store::{CompactReport, DesignStore, RecordKind, StoreConfig, StoreStats, VerifyReport};

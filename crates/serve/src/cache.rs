//! A sharded, content-hash-keyed LRU cache of shared [`DesignContext`]s.
//!
//! Repeated requests against the same CDFG (keyed by
//! [`DesignContext::content_hash`]) get the **same** `Arc<DesignContext>`
//! back, so the engine's memoized analyses — topological order, unit
//! timing, window tables, bounded-delay arrivals — are computed once per
//! design, not once per request. Hits, misses and evictions are counted
//! for the `stats` request.
//!
//! # Sharding
//!
//! The cache is split into N independent shards, each its own lock, LRU
//! state, and counter set, so concurrent requests for *different* designs
//! never serialize on one mutex. Placement is a pure function of the
//! canonical content hash ([`ContextCache::shard_of`]): a design lives in
//! exactly one shard for the cache's lifetime, and the total capacity is
//! split across shards exactly (no shard padding — the split sums to the
//! configured capacity, and eviction is LRU *within* the design's shard).
//! Text aliases (the [`fingerprint`] of raw request bytes → content key)
//! live in a parallel set of alias shards keyed by the *text* hash, so
//! the byte-identical-resend fast path is also one shard lock. No operation
//! ever holds two shard locks at once; an alias observed between an
//! entry's eviction and the deferred alias cleanup is harmless because an
//! alias hit always re-checks the entry shard — a dangling alias can
//! cause a (correct) miss, never a stale hit.
//!
//! Aggregate counters are sums over shards, so the chaos invariant
//! `evictions == misses − entries` holds per shard *and* in aggregate.
//!
//! With `--store-dir`, a [`DesignStore`] sits under the LRU as a
//! write-through tier: an in-memory miss consults the store (text alias →
//! content hash → design record, a flat graph snapshot decoded without
//! touching the text parser), and a true miss parses the text then writes
//! the design and its alias through to disk. Store alias records stay
//! keyed by the text's [`fnv1a`], so stores written by older builds keep
//! resolving; only that miss path pays for it. A restarted replica therefore
//! warm-starts: its first request per design costs a snapshot decode, not
//! a parse.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use localwm_cdfg::{parse_cdfg, Cdfg};
use localwm_engine::DesignContext;
use localwm_store::segment::{fingerprint, fnv1a};
use localwm_store::{DesignStore, RecordKind};

/// Default shard count, capped by the capacity so every shard can hold at
/// least one design.
const DEFAULT_SHARDS: usize = 8;

struct Entry {
    ctx: Arc<DesignContext>,
    last_used: u64,
    /// Request-text fingerprints aliasing this entry, cleaned from the
    /// alias shards when the entry is evicted.
    aliases: Vec<u64>,
}

struct Lru {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// One content shard: its own lock, LRU state, capacity slice, and
/// counters.
struct Shard {
    state: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            state: Mutex::new(Lru {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.state.lock().expect("cache shard lock").entries.len(),
            capacity: self.capacity,
        }
    }
}

/// The cache; see the module docs.
pub struct ContextCache {
    /// Content shards, indexed by [`ContextCache::shard_of`].
    shards: Vec<Shard>,
    /// Alias shards (text hash → content key), indexed by the same mix of
    /// the *text* hash.
    alias_shards: Vec<Mutex<HashMap<u64, u64>>>,
    capacity: usize,
    store: Option<Arc<DesignStore>>,
}

/// A counters snapshot for the `stats` request — the whole cache or one
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a fresh context.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Designs currently cached.
    pub entries: usize,
    /// Maximum designs cached.
    pub capacity: usize,
}

/// The shard index a key maps to among `shards`: one SplitMix64 draw over
/// the key so FNV's weak low bits don't bias placement, reduced mod the
/// shard count. Pure — no state, no randomness.
fn shard_index(key: u64, shards: usize) -> usize {
    (localwm_prng::SplitMix64::new(key).next_u64() % shards as u64) as usize
}

impl ContextCache {
    /// An empty cache holding at most `capacity` designs total (clamped to
    /// ≥ 1), split across [`DEFAULT_SHARDS`] content shards (fewer when
    /// the capacity is smaller, so every shard holds at least one design).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self::with_shards(capacity, DEFAULT_SHARDS.min(capacity))
    }

    /// [`ContextCache::new`] with an explicit shard count (clamped to
    /// `1..=capacity`). `with_shards(cap, 1)` is the unsharded cache with
    /// strict global LRU order — tests that reason about exact eviction
    /// order use it.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let nshards = shards.clamp(1, capacity);
        // Split the capacity exactly: base per shard, the remainder spread
        // one-each over the first shards. Sum == capacity, always.
        let base = capacity / nshards;
        let rem = capacity % nshards;
        ContextCache {
            shards: (0..nshards)
                .map(|i| Shard::new(base + usize::from(i < rem)))
                .collect(),
            alias_shards: (0..nshards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            store: None,
        }
    }

    /// A cache backed by a durable write-through store tier.
    pub fn with_store(capacity: usize, store: Arc<DesignStore>) -> Self {
        let mut cache = Self::new(capacity);
        cache.store = Some(store);
        cache
    }

    /// The store tier, when one is mounted.
    pub fn store(&self) -> Option<&Arc<DesignStore>> {
        self.store.as_ref()
    }

    /// How many content shards this cache runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a content hash lives in — a pure function of the hash
    /// and the shard count, nothing else (the sharded-contention tests
    /// aim requests at specific shards through this).
    pub fn shard_of(&self, content_key: u64) -> usize {
        shard_index(content_key, self.shards.len())
    }

    fn alias_shard(&self, text_key: u64) -> &Mutex<HashMap<u64, u64>> {
        &self.alias_shards[shard_index(text_key, self.alias_shards.len())]
    }

    /// Returns the shared context for the raw CDFG `text`.
    ///
    /// Byte-identical text seen before takes the alias fast path: no parse,
    /// no canonicalization, just a hash of the request bytes (one alias
    /// shard lock + one entry shard lock). With a store mounted, an
    /// in-memory miss next tries the durable tier — alias record to content
    /// hash to design record, a graph snapshot decoded without the text
    /// parser. Only a true miss parses the text, and its design and alias
    /// are then written through to the store. Novel text always resolves through the
    /// canonical content hash, so two different spellings of the same
    /// design still share one context.
    ///
    /// # Errors
    ///
    /// Returns the parse error message for malformed text (never cached).
    pub fn get_or_parse(&self, text: &str) -> Result<Arc<DesignContext>, String> {
        let text_key = fingerprint(text.as_bytes());
        let aliased = {
            let map = self.alias_shard(text_key).lock().expect("alias shard lock");
            map.get(&text_key).copied()
        };
        if let Some(key) = aliased {
            let shard = &self.shards[self.shard_of(key)];
            let mut lru = shard.state.lock().expect("cache shard lock");
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(e) = lru.entries.get_mut(&key) {
                e.last_used = tick;
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&e.ctx));
            }
            drop(lru);
            // Dangling alias (entry evicted, cleanup raced): drop it if it
            // still points at the dead entry, then resolve as a miss.
            let mut map = self.alias_shard(text_key).lock().expect("alias shard lock");
            if map.get(&text_key) == Some(&key) {
                map.remove(&text_key);
            }
        }
        let store_key = self
            .store
            .as_ref()
            .map(|store| (store, fnv1a(text.as_bytes())));
        if let Some((store, alias)) = store_key {
            if let Some(ctx) = load_from_store(store, alias) {
                return Ok(self.insert_ctx(ctx, Some(text_key)));
            }
        }
        let graph = parse_cdfg(text).map_err(|e| e.to_string())?;
        let fresh = DesignContext::new(graph);
        if let Some((store, alias)) = store_key {
            write_through(store, &fresh, alias);
        }
        Ok(self.insert_ctx(fresh, Some(text_key)))
    }

    /// Returns the shared context for `graph`, inserting (and, at shard
    /// capacity, evicting the shard's least-recently-used design) on miss.
    /// Bypasses the store tier: direct graph insertions have no request
    /// text to alias.
    pub fn get_or_insert(&self, graph: Cdfg) -> Arc<DesignContext> {
        self.insert_ctx(DesignContext::new(graph), None)
    }

    fn insert_ctx(&self, fresh: DesignContext, text_key: Option<u64>) -> Arc<DesignContext> {
        // Hashing happens outside any cache lock: it serializes the graph
        // (unless the context came from the store, where the hash is
        // seeded from the record key).
        let key = fresh.content_hash();
        let shard = &self.shards[self.shard_of(key)];
        // Aliases of an evicted victim are cleaned up *after* the entry
        // lock drops (one lock at a time — see the module docs).
        let mut dead_aliases: Vec<u64> = Vec::new();
        let ctx = {
            let mut lru = shard.state.lock().expect("cache shard lock");
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(e) = lru.entries.get_mut(&key) {
                e.last_used = tick;
                if let Some(tk) = text_key {
                    if !e.aliases.contains(&tk) {
                        e.aliases.push(tk);
                    }
                }
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&e.ctx)
            } else {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                if lru.entries.len() >= shard.capacity {
                    if let Some((&victim, _)) =
                        lru.entries.iter().min_by_key(|(&k, e)| (e.last_used, k))
                    {
                        if let Some(evicted) = lru.entries.remove(&victim) {
                            dead_aliases = evicted.aliases;
                        }
                        shard.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let ctx = Arc::new(fresh);
                lru.entries.insert(
                    key,
                    Entry {
                        ctx: Arc::clone(&ctx),
                        last_used: tick,
                        aliases: text_key.into_iter().collect(),
                    },
                );
                ctx
            }
        };
        for tk in dead_aliases {
            let mut map = self.alias_shard(tk).lock().expect("alias shard lock");
            map.remove(&tk);
        }
        if let Some(tk) = text_key {
            let mut map = self.alias_shard(tk).lock().expect("alias shard lock");
            map.insert(tk, key);
        }
        ctx
    }

    /// Evicts every cached design (an "eviction storm"), counting each
    /// displaced entry in its shard's eviction counter exactly like an LRU
    /// displacement. Returns how many entries were evicted. Used by fault
    /// injection and by tests; correctness-neutral because entries are
    /// pure memoized derivations of their design text.
    pub fn evict_all(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            let mut lru = shard.state.lock().expect("cache shard lock");
            let n = lru.entries.len();
            lru.entries.clear();
            shard.evictions.fetch_add(n as u64, Ordering::Relaxed);
            total += n;
        }
        for alias in &self.alias_shards {
            alias.lock().expect("alias shard lock").clear();
        }
        total
    }

    /// The aggregate counters snapshot: per-shard counters summed, total
    /// capacity. The identity `evictions == misses − entries` holds here
    /// because it holds in every shard.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
            capacity: self.capacity,
        };
        for shard in &self.shards {
            let s = shard.stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
            agg.entries += s.entries;
        }
        agg
    }

    /// Per-shard counter snapshots, in shard-index order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }
}

/// Resolves `text_key` through the store tier: alias record → content
/// hash → design record → snapshot-decoded graph, hydrated with its known
/// hash. Any miss or corruption returns `None` (the caller falls back to
/// parsing; corrupt reads are already counted in the store's stats).
fn load_from_store(store: &DesignStore, text_key: u64) -> Option<DesignContext> {
    let alias = store.get(RecordKind::Alias, text_key).ok()??;
    let hash = u64::from_le_bytes(alias.try_into().ok()?);
    let bytes = store.get(RecordKind::Design, hash).ok()??;
    let graph = Cdfg::from_snapshot(&bytes).ok()?;
    Some(DesignContext::from_stored(graph, hash))
}

/// Writes a freshly parsed design and its text alias through to the
/// store. Write failures degrade the durability tier, not the request:
/// they are logged and the parse result is served normally.
fn write_through(store: &DesignStore, fresh: &DesignContext, text_key: u64) {
    let hash = fresh.content_hash();
    let design = fresh.graph().to_snapshot();
    if let Err(e) = store.put(RecordKind::Design, hash, &design) {
        eprintln!("localwm-serve: store write-through (design {hash:016x}): {e}");
        return;
    }
    if let Err(e) = store.put(RecordKind::Alias, text_key, &hash.to_le_bytes()) {
        eprintln!("localwm-serve: store write-through (alias {text_key:016x}): {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::designs::iir4_parallel;
    use localwm_cdfg::generators::{mediabench, mediabench_apps};
    use localwm_cdfg::write_cdfg;

    #[test]
    fn identical_text_takes_the_alias_fast_path() {
        let cache = ContextCache::new(4);
        let text = write_cdfg(&iir4_parallel());
        let a = cache.get_or_parse(&text).unwrap();
        let b = cache.get_or_parse(&text).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // A respelled design (extra blank line) still resolves to the same
        // canonical entry through the content hash.
        let respelled = format!("\n{text}");
        let c = cache.get_or_parse(&respelled).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn malformed_text_is_an_error_and_never_cached() {
        let cache = ContextCache::new(4);
        assert!(cache.get_or_parse("node bogus-kind x").is_err());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn same_design_hits_and_shares_the_context() {
        let cache = ContextCache::new(4);
        let a = cache.get_or_insert(iir4_parallel());
        let _ = a.critical_path(); // warm an analysis
        let b = cache.get_or_insert(iir4_parallel());
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same shared context");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    /// `evictions == misses − entries` — the counter identity the chaos
    /// harness checks on a live server. Misses are counted only when an
    /// entry is actually built, so every miss either still sits in the
    /// cache or was evicted. With shards it must hold shard-by-shard, not
    /// just in aggregate.
    fn assert_counter_identity(cache: &ContextCache) {
        for (i, s) in cache.shard_stats().iter().enumerate() {
            assert_eq!(
                s.evictions,
                s.misses - s.entries as u64,
                "shard {i}: evictions ({}) != misses ({}) - entries ({})",
                s.evictions,
                s.misses,
                s.entries
            );
        }
        let s = cache.stats();
        assert_eq!(
            s.evictions,
            s.misses - s.entries as u64,
            "aggregate: evictions ({}) != misses ({}) - entries ({})",
            s.evictions,
            s.misses,
            s.entries
        );
    }

    #[test]
    fn capacity_zero_clamps_to_one_and_still_serves() {
        let cache = ContextCache::new(0);
        assert_eq!(cache.stats().capacity, 1, "capacity 0 is clamped, not UB");
        assert_eq!(cache.shard_count(), 1, "one design fits one shard");
        let apps = mediabench_apps();
        let a = cache.get_or_insert(iir4_parallel());
        let _ = a.critical_path();
        cache.get_or_insert(mediabench(&apps[0], 0)); // displaces A
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        assert_counter_identity(&cache);
        // The displaced context stays alive for existing holders.
        assert_eq!(a.critical_path(), 6);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_consistent() {
        let cache = ContextCache::new(1);
        let apps = mediabench_apps();
        for round in 0..3 {
            cache.get_or_insert(iir4_parallel());
            cache.get_or_insert(mediabench(&apps[0], 0));
            let s = cache.stats();
            assert_eq!(s.entries, 1);
            assert_eq!(s.hits, 0, "alternating designs never hit at capacity 1");
            assert_eq!(s.misses, 2 * (round + 1));
            assert_counter_identity(&cache);
        }
        // Repeating the resident design is a hit, not another miss.
        cache.get_or_insert(mediabench(&apps[0], 0));
        assert_eq!(cache.stats().hits, 1);
        assert_counter_identity(&cache);
    }

    #[test]
    fn eviction_counter_is_monotone_through_storms() {
        let cache = ContextCache::new(2);
        let apps = mediabench_apps();
        let mut last = 0;
        cache.get_or_insert(iir4_parallel());
        cache.get_or_insert(mediabench(&apps[0], 0));
        for i in 0..4 {
            cache.get_or_insert(mediabench(&apps[i % 3], i as u64));
            let now = cache.stats().evictions;
            assert!(now >= last, "eviction counter went backwards");
            last = now;
        }
        let n = cache.evict_all();
        let s = cache.stats();
        assert_eq!(s.entries, 0, "storm empties the cache");
        assert_eq!(s.evictions, last + n as u64, "storm counts every casualty");
        assert_counter_identity(&cache);
    }

    #[test]
    fn text_alias_is_dropped_with_its_evicted_entry() {
        let apps = mediabench_apps();
        // LRU displacement path: A's alias must die with A.
        let cache = ContextCache::new(1);
        let text = write_cdfg(&iir4_parallel());
        cache.get_or_parse(&text).unwrap();
        cache.get_or_insert(mediabench(&apps[0], 0)); // displaces A
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions), (2, 1));
        // The resend must rebuild (miss), not resolve a dangling alias.
        cache.get_or_parse(&text).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 3), "stale alias would have hit");
        assert_counter_identity(&cache);
        // And once rebuilt, the fast path works again.
        cache.get_or_parse(&text).unwrap();
        assert_eq!(cache.stats().hits, 1);

        // Storm path: evict_all clears aliases too.
        let storm = ContextCache::new(4);
        storm.get_or_parse(&text).unwrap();
        storm.evict_all();
        storm.get_or_parse(&text).unwrap();
        let s = storm.stats();
        assert_eq!((s.hits, s.misses), (0, 2), "alias survived the storm");
        assert_counter_identity(&storm);
    }

    #[test]
    fn store_tier_round_trips_designs_without_reparsing() {
        let dir = std::env::temp_dir().join(format!("localwm-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let text = write_cdfg(&iir4_parallel());

        // First process: a parse miss writes the design and alias through.
        let store = Arc::new(DesignStore::open(&dir).unwrap());
        let cache = ContextCache::with_store(4, Arc::clone(&store));
        let a = cache.get_or_parse(&text).unwrap();
        let s = store.stats();
        assert_eq!(s.records, 2, "design + alias records");
        assert_eq!(s.puts, 2);

        // Second process (fresh cache, same dir): the store answers, the
        // text parser is never consulted, and the hydrated context carries
        // the stored content hash.
        let store2 = Arc::new(DesignStore::open(&dir).unwrap());
        let cache2 = ContextCache::with_store(4, Arc::clone(&store2));
        let b = cache2.get_or_parse(&text).unwrap();
        assert_eq!(b.content_hash(), a.content_hash());
        assert_eq!(write_cdfg(b.graph()), text, "same design, byte-identical");
        let s2 = store2.stats();
        assert_eq!(s2.hits, 2, "alias + design reads came from disk");
        assert_eq!(s2.puts, 0, "nothing was re-written");
        // The in-memory alias now covers the resend: no further store reads.
        let _ = cache2.get_or_parse(&text).unwrap();
        assert_eq!(store2.stats().hits, 2);
        assert_counter_identity(&cache2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_the_least_recently_used_design() {
        // Strict global LRU order only exists with one shard.
        let cache = ContextCache::with_shards(2, 1);
        let apps = mediabench_apps();
        cache.get_or_insert(iir4_parallel()); // A
        cache.get_or_insert(mediabench(&apps[0], 0)); // B
        cache.get_or_insert(iir4_parallel()); // touch A -> B is LRU
        cache.get_or_insert(mediabench(&apps[1], 0)); // C evicts B
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // A is still cached; B was evicted and misses again.
        cache.get_or_insert(iir4_parallel());
        cache.get_or_insert(mediabench(&apps[0], 0));
        let s = cache.stats();
        assert_eq!(s.hits, 2, "A hit twice; B's return was a miss");
        assert_eq!(s.evictions, 2, "B's return evicted the next LRU");
    }

    #[test]
    fn shard_choice_is_stable_and_capacity_splits_exactly() {
        let cache = ContextCache::new(13);
        assert_eq!(cache.shard_count(), 8);
        let per_shard: Vec<usize> = cache.shard_stats().iter().map(|s| s.capacity).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 13, "split sums exactly");
        assert!(per_shard.iter().all(|&c| c >= 1));
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let first = cache.shard_of(key);
            assert_eq!(cache.shard_of(key), first, "placement is pure");
            assert!(first < cache.shard_count());
        }
    }

    #[test]
    fn shard_counters_sum_to_the_aggregate_view() {
        let cache = ContextCache::with_shards(6, 3);
        let apps = mediabench_apps();
        let text = write_cdfg(&iir4_parallel());
        for i in 0..9 {
            cache.get_or_insert(mediabench(&apps[i % 3], i as u64 % 4));
            cache.get_or_parse(&text).unwrap();
        }
        let agg = cache.stats();
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 3);
        assert_eq!(agg.hits, shards.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(agg.misses, shards.iter().map(|s| s.misses).sum::<u64>());
        assert_eq!(
            agg.evictions,
            shards.iter().map(|s| s.evictions).sum::<u64>()
        );
        assert_eq!(agg.entries, shards.iter().map(|s| s.entries).sum::<usize>());
        assert_eq!(
            agg.capacity,
            shards.iter().map(|s| s.capacity).sum::<usize>()
        );
        assert_counter_identity(&cache);
    }
}

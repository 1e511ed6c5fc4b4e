//! The ν-cache: memoized certainty measures per canonical formula.
//!
//! Every estimate this crate produces is a *deterministic* function of
//! (formula, method, options): the exact evaluators are closed forms, and
//! both Monte-Carlo schemes derive their RNG streams from the configured
//! seed. That makes ν safe to memoize — the cached value is bit-identical
//! to what a fresh run would produce — provided the key captures
//! everything the computation depends on:
//!
//! * a **formula group key** from [`qarith_constraints::canonical`]
//!   (the structural key in general; the batch engine substitutes the
//!   coarser asymptotic key on the sampling route, where it is
//!   evaluation-equivalent — see `pipeline`);
//! * an **options fingerprint** hashing the method choice and every
//!   option that can influence the output bits (ε, δ, seeds, thread
//!   counts, sampling policy, DNF budget, order limit).
//!
//! [`ShardedNuCache`] is the one implementation, shared by the
//! single-shot pipelines and the long-lived serving path alike:
//!
//! * **Sharding** — entries are distributed over N independently locked
//!   shards by a hash of the group key, so concurrent lookups of
//!   different formulas contend only `1/N` of the time. The shard
//!   choice affects *placement only*: which shard holds a key can never
//!   influence the value returned for it.
//! * **Bounded memory** — each shard enforces `budget_bytes / shards`
//!   with least-recently-used eviction (every hit refreshes recency).
//!   The resident size is accounted per entry as key bytes + estimate
//!   size + a fixed bookkeeping overhead.
//! * **Observability** — hit/miss/entry/eviction/byte counters exported
//!   through the workspace's `as_pairs` convention
//!   ([`ShardedCacheStats::as_pairs`]), like every other stats block in
//!   `BENCH_*.json`.
//! * **Delta-aware invalidation** — a relation → group-key index
//!   ([`ShardedNuCache::register`]), fed by the serving layer at
//!   plan-build time, lets a committed write drop exactly the keys
//!   whose grounding consulted a touched relation
//!   ([`ShardedNuCache::invalidate_relations`]) instead of nuking the
//!   cache. Like eviction, this is *hygiene, not correctness*: keys
//!   are content-addressed canonical formulas, so an entry a write
//!   logically supersedes is simply never looked up again by the new
//!   grounding — invalidation reclaims its memory and keeps the
//!   counters honest. Over-registration (a key filed under a relation
//!   whose change doesn't affect it) is therefore sound too: it can
//!   only cost recomputation.
//!
//! **Why eviction cannot change answers.** Every estimate is a
//! deterministic function of its `(group key, options fingerprint)` —
//! that is the contract of [`CertaintyCache`] and the reason ν is
//! cacheable at all. Evicting an entry therefore only moves the next
//! request for it from the lookup path to the recompute path, which
//! produces the *bit-identical* value the cache would have returned.
//! Eviction changes cost, never certainties; the serving tests and
//! `tests/method_consistency.rs` lock this in by forcing a tiny budget
//! and comparing bits.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::estimate::CertaintyEstimate;

/// The cache interface the measurement pipeline consults — the
/// engine's cache seam ([`crate::CertaintyEngine::with_shared_cache`]),
/// implemented by [`ShardedNuCache`]. The contract every implementation
/// must honor:
///
/// * **Bit-identity** — a value returned by [`CertaintyCache::get`] must
///   be byte-for-byte the estimate previously passed to
///   [`CertaintyCache::insert`] under the same `(group_key,
///   fingerprint)`. Since every estimate is a deterministic function of
///   that pair (see the module docs), an implementation is free to *drop*
///   entries at any time — eviction costs recomputation, never accuracy —
///   but must never return an entry recorded under a different key.
/// * **Thread safety** — `get`/`insert` may be called concurrently from
///   batch workers and serving clients (`Send + Sync`).
/// * **Provenance** — served estimates should be flagged
///   [`CertaintyEstimate::cached`]; the pipeline re-asserts the flag on
///   every hit, so implementations that forget are corrected, not broken.
pub trait CertaintyCache: Send + Sync + std::fmt::Debug {
    /// Looks up the estimate recorded for `(group_key, fingerprint)`.
    fn get(&self, group_key: &str, fingerprint: u64) -> Option<CertaintyEstimate>;
    /// Records an estimate. Last write wins; racing writers hold
    /// bit-identical values by construction.
    fn insert(&self, group_key: String, fingerprint: u64, estimate: CertaintyEstimate);
}

/// Fixed per-entry bookkeeping charge (map nodes, the recency index,
/// and the `Arc<str>` header) on top of key and estimate bytes. The
/// point of the budget is a reliable *order of magnitude*, not
/// allocator-exact accounting.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Configuration of a [`ShardedNuCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedCacheConfig {
    /// Number of independently locked shards. Rounded up to at least 1.
    pub shards: usize,
    /// Total memory budget across all shards, in (accounted) bytes.
    /// Each shard enforces `budget_bytes / shards`.
    pub budget_bytes: usize,
}

impl Default for ShardedCacheConfig {
    /// 16 shards, 64 MiB — roomy for the workload suite at every scale
    /// while still bounding a service that runs for weeks.
    fn default() -> Self {
        ShardedCacheConfig { shards: 16, budget_bytes: 64 << 20 }
    }
}

/// Aggregate counters of a [`ShardedNuCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries evicted under the memory budget since creation.
    pub evictions: u64,
    /// Accounted bytes currently resident.
    pub resident_bytes: u64,
    /// Number of shards (constant; exported so one stats block is
    /// self-describing).
    pub shards: u64,
    /// Distinct group keys dropped by delta-aware invalidation since
    /// creation (only keys that actually held entries count — draining
    /// an already-evicted key is not an invalidation).
    pub invalidations: u64,
    /// Entries dropped by invalidation (≥ `invalidations`: one key may
    /// hold several fingerprints).
    pub invalidated_entries: u64,
}

impl ShardedCacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the machine-readable export `serve_bench` serializes
    /// into `BENCH_*.json`. Names are part of the JSON schema: renaming
    /// one is a baseline-breaking change.
    pub fn as_pairs(&self) -> [(&'static str, u64); 8] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("entries", self.entries),
            ("evictions", self.evictions),
            ("resident_bytes", self.resident_bytes),
            ("shards", self.shards),
            ("invalidations", self.invalidations),
            ("invalidated_entries", self.invalidated_entries),
        ]
    }
}

/// One stored estimate.
struct Entry {
    estimate: CertaintyEstimate,
    /// Position in the shard's recency index.
    tick: u64,
    /// Accounted size (subtracted back on eviction).
    bytes: usize,
}

/// One shard: a two-level map (group key → fingerprint → entry, so
/// lookups probe with `&str` and never allocate) plus a recency index.
/// The key `Arc<str>` is shared between map and index, so a recency
/// touch moves 16 bytes, not the (large) key string.
#[derive(Default)]
struct ShardInner {
    map: HashMap<Arc<str>, HashMap<u64, Entry>>,
    /// tick → (group key, fingerprint); the smallest tick is the least
    /// recently used entry. Ticks are unique within a shard.
    recency: BTreeMap<u64, (Arc<str>, u64)>,
    next_tick: u64,
    resident_bytes: usize,
    evictions: u64,
}

impl ShardInner {
    fn touch(&mut self, key: &Arc<str>, fingerprint: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = self.map.get_mut(key).and_then(|by_fp| by_fp.get_mut(&fingerprint));
        // Callers pass a key they just found under this same lock, so
        // the entry is present; tolerating absence anyway (a skipped
        // recency refresh) keeps the request path panic-free.
        let Some(entry) = entry else { return };
        let old = std::mem::replace(&mut entry.tick, tick);
        self.recency.remove(&old);
        self.recency.insert(tick, (key.clone(), fingerprint));
    }

    /// Drops every fingerprint stored under `key`, returning how many
    /// entries that was (0 when the key is absent — evicted, or never
    /// resident in this shard).
    fn remove_key(&mut self, key: &str) -> usize {
        let Some(by_fp) = self.map.remove(key) else { return 0 };
        let mut removed = 0;
        // analyze: allow(hash-iteration, reason = "each entry's recency tick is removed and its bytes subtracted; the final shard state and the count are order-insensitive")
        for entry in by_fp.values() {
            self.recency.remove(&entry.tick);
            self.resident_bytes -= entry.bytes;
            removed += 1;
        }
        removed
    }

    fn evict_to(&mut self, budget: usize) {
        while self.resident_bytes > budget {
            let Some((_, (key, fingerprint))) = self.recency.pop_first() else { break };
            let Some(by_fp) = self.map.get_mut(&key) else { continue };
            if let Some(entry) = by_fp.remove(&fingerprint) {
                self.resident_bytes -= entry.bytes;
                self.evictions += 1;
            }
            if by_fp.is_empty() {
                self.map.remove(&key);
            }
        }
    }
}

/// A bounded, sharded, LRU-evicting implementation of
/// [`CertaintyCache`]. See the module docs for the policy and its
/// soundness argument.
#[derive(Debug)]
pub struct ShardedNuCache {
    shards: Vec<Mutex<ShardInner>>,
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The delta index: relation name → group keys whose grounding
    /// consulted it (`NuCacheDeltaIndex` in the declared lock
    /// hierarchy — above the shard locks, so invalidation may walk
    /// from the index into the shards). Keys are `Arc<str>` shared
    /// across relations. The index is registration-only between
    /// writes; [`ShardedNuCache::invalidate_relations`] drains the
    /// touched relations' sets, and plan rebuilds re-register, so
    /// under write traffic the index tracks the live template
    /// population rather than growing without bound.
    delta: Mutex<HashMap<String, HashSet<Arc<str>>>>,
    invalidations: AtomicU64,
    invalidated_entries: AtomicU64,
}

// ShardInner has no Debug (Arc<str> maps are noise); summarize instead.
impl std::fmt::Debug for ShardInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardInner")
            .field("entries", &self.recency.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl Default for ShardedNuCache {
    /// An empty cache under [`ShardedCacheConfig::default`].
    fn default() -> Self {
        ShardedNuCache::new(ShardedCacheConfig::default())
    }
}

impl ShardedNuCache {
    /// An empty cache under the given configuration.
    pub fn new(config: ShardedCacheConfig) -> ShardedNuCache {
        let shards = config.shards.max(1);
        ShardedNuCache {
            shards: (0..shards).map(|_| Mutex::new(ShardInner::default())).collect(),
            per_shard_budget: config.budget_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            delta: Mutex::new(HashMap::new()),
            invalidations: AtomicU64::new(0),
            invalidated_entries: AtomicU64::new(0),
        }
    }

    /// Files `group_keys` under each of `relations` in the delta
    /// index. The service calls this at plan-build time, when both the
    /// plan's relation footprint and its group keys are in hand.
    /// Over-registration is sound (see the module docs); a poisoned
    /// index degrades to whole-relation over-invalidation never
    /// happening, which is also sound — stale entries are unreachable
    /// by construction.
    pub fn register<'k>(&self, relations: &[String], group_keys: impl Iterator<Item = &'k str>) {
        if relations.is_empty() {
            return;
        }
        let keys: Vec<Arc<str>> = group_keys.map(Arc::from).collect();
        if keys.is_empty() {
            return;
        }
        let Ok(mut delta) = self.delta.lock() else { return };
        for relation in relations {
            let set = delta.entry(relation.clone()).or_default();
            for key in &keys {
                set.insert(key.clone());
            }
        }
    }

    /// Drops every entry whose group key is registered under any of
    /// `touched`, returning `(distinct keys dropped, entries
    /// dropped)`. The drained keys leave the index; survivors (keys
    /// registered only under untouched relations) keep their entries
    /// *and* their index membership — the invalidation-selectivity
    /// test counts them.
    pub fn invalidate_relations(&self, touched: &[String]) -> (u64, u64) {
        if touched.is_empty() {
            return (0, 0);
        }
        // Collect under the index lock, mutate shards after it is
        // released (the hierarchy permits holding it, but the drain
        // doesn't need to).
        let keys: BTreeSet<Arc<str>> = {
            let Ok(mut delta) = self.delta.lock() else { return (0, 0) };
            // analyze: allow(hash-iteration, reason = "the drained key sets are collected into a BTreeSet, so the shard walk below runs in key order whatever the hash order")
            touched.iter().filter_map(|rel| delta.remove(rel)).flatten().collect()
        };
        let mut dropped_keys = 0u64;
        let mut dropped_entries = 0u64;
        for key in keys {
            let Ok(mut inner) = self.shard_of(&key).lock() else { continue };
            let removed = inner.remove_key(&key);
            drop(inner);
            if removed > 0 {
                dropped_keys += 1;
                dropped_entries += removed as u64;
            }
        }
        self.invalidations.fetch_add(dropped_keys, Ordering::Relaxed);
        self.invalidated_entries.fetch_add(dropped_entries, Ordering::Relaxed);
        (dropped_keys, dropped_entries)
    }

    /// FNV-1a shard placement. Stability across processes is not
    /// required (placement is invisible in results), but a fixed
    /// function keeps eviction traces reproducible for a fixed request
    /// order, which the serving tests rely on.
    fn shard_of(&self, group_key: &str) -> &Mutex<ShardInner> {
        let h = qarith_numeric::Fnv1a64::digest(group_key.as_bytes());
        // analyze: allow(panic-index, reason = "h % len < len by construction, and len >= 1 is forced in new()")
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> ShardedCacheStats {
        let mut stats = ShardedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated_entries.load(Ordering::Relaxed),
            ..ShardedCacheStats::default()
        };
        for shard in &self.shards {
            // A poisoned shard is skipped: its entries are unreachable
            // (lookups treat it as a permanent miss), so not counting
            // them matches what requests observe.
            let Ok(inner) = shard.lock() else { continue };
            stats.entries += inner.recency.len() as u64;
            stats.resident_bytes += inner.resident_bytes as u64;
            stats.evictions += inner.evictions;
        }
        stats
    }

    fn entry_bytes(key: &str) -> usize {
        key.len() + std::mem::size_of::<CertaintyEstimate>() + ENTRY_OVERHEAD_BYTES
    }
}

impl CertaintyCache for ShardedNuCache {
    fn get(&self, group_key: &str, fingerprint: u64) -> Option<CertaintyEstimate> {
        // Poison policy: a poisoned shard degrades to a permanent miss.
        // This is sound for the same reason eviction is — every entry
        // is a deterministic function of its key, so losing access to a
        // shard costs recomputation, never correctness. Requests keep
        // flowing at 15/16ths capacity instead of failing.
        let Ok(mut inner) = self.shard_of(group_key).lock() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let found = inner.map.get_key_value(group_key).and_then(|(key, by_fp)| {
            by_fp.get(&fingerprint).map(|e| (key.clone(), e.estimate.clone()))
        });
        match found {
            Some((key, mut estimate)) => {
                inner.touch(&key, fingerprint);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                estimate.cached = true;
                Some(estimate)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, group_key: String, fingerprint: u64, estimate: CertaintyEstimate) {
        let bytes = ShardedNuCache::entry_bytes(&group_key);
        // Poisoned shard: drop the insert (see `get` — the shard is a
        // permanent miss, so storing into it would never be observed).
        let Ok(mut inner) = self.shard_of(&group_key).lock() else { return };
        let key: Arc<str> = match inner.map.get_key_value(group_key.as_str()) {
            Some((key, _)) => key.clone(),
            None => Arc::from(group_key.into_boxed_str()),
        };
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let replaced = inner
            .map
            .entry(key.clone())
            .or_default()
            .insert(fingerprint, Entry { estimate, tick, bytes });
        if let Some(old) = replaced {
            // Replacement: racing writers hold bit-identical values, so
            // only the recency/accounting bookkeeping changes.
            inner.resident_bytes -= old.bytes;
            inner.recency.remove(&old.tick);
        }
        inner.resident_bytes += bytes;
        inner.recency.insert(tick, (key, fingerprint));
        inner.evict_to(self.per_shard_budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;

    fn est(v: i128, d: i128) -> CertaintyEstimate {
        CertaintyEstimate::exact_rational(Rational::new(v, d), 1)
    }

    fn key(i: usize) -> String {
        format!("a:group-key-{i:04}")
    }

    #[test]
    fn get_insert_roundtrip_marks_cached() {
        let cache = ShardedNuCache::new(ShardedCacheConfig::default());
        assert!(cache.get("k", 7).is_none());
        cache.insert("k".into(), 7, est(1, 2));
        let got = cache.get("k", 7).expect("present");
        assert_eq!(got.exact, Some(Rational::new(1, 2)));
        assert!(got.cached);
        assert!(cache.get("k", 8).is_none(), "fingerprint is part of the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn budget_is_respected_and_eviction_is_lru() {
        // Room for ~4 entries per shard in a single shard.
        let per_entry = ShardedNuCache::entry_bytes(&key(0));
        let config = ShardedCacheConfig { shards: 1, budget_bytes: 4 * per_entry };
        let cache = ShardedNuCache::new(config);
        for i in 0..4 {
            cache.insert(key(i), 0, est(1, i as i128 + 1));
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&key(0), 0).is_some());
        cache.insert(key(4), 0, est(1, 5));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= config.budget_bytes as u64);
        assert!(cache.get(&key(1), 0).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0), 0).is_some(), "recently used entry survives");
        assert!(cache.get(&key(4), 0).is_some(), "new entry resident");
    }

    #[test]
    fn eviction_only_costs_recomputation() {
        // A degenerate budget evicts constantly; values must still be
        // exactly what was inserted whenever they are present.
        let config = ShardedCacheConfig {
            shards: 2,
            budget_bytes: 3 * ShardedNuCache::entry_bytes(&key(0)),
        };
        let cache = ShardedNuCache::new(config);
        for round in 0..3 {
            for i in 0..16 {
                cache.insert(key(i), 9, est(1, i as i128 + 1));
                let got = cache.get(&key(i), 9).expect("just inserted (fits one entry)");
                assert_eq!(got.exact, Some(Rational::new(1, i as i128 + 1)), "round {round}");
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(stats.resident_bytes <= config.budget_bytes as u64);
    }

    #[test]
    fn replacement_does_not_leak_accounting() {
        let cache = ShardedNuCache::new(ShardedCacheConfig { shards: 1, budget_bytes: 1 << 20 });
        for _ in 0..100 {
            cache.insert("same".into(), 1, est(1, 3));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, ShardedNuCache::entry_bytes("same") as u64);
    }

    #[test]
    fn shared_across_threads() {
        let cache = ShardedNuCache::new(ShardedCacheConfig::default());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50 {
                        cache.insert(format!("t{t}-{i}"), 0, est(1, 4));
                        assert!(cache.get(&format!("t{t}-{i}"), 0).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 200);
    }

    #[test]
    fn invalidation_is_selective_and_survivors_hit() {
        let cache = ShardedNuCache::new(ShardedCacheConfig::default());
        for i in 0..4 {
            cache.insert(key(i), 1, est(1, i as i128 + 1));
        }
        cache.register(&["Orders".to_string()], [key(0), key(1)].iter().map(String::as_str));
        cache.register(&["Market".to_string()], [key(1), key(2)].iter().map(String::as_str));
        // key(3) is unregistered: writes can never touch it.

        let (keys, entries) = cache.invalidate_relations(&["Orders".to_string()]);
        assert_eq!((keys, entries), (2, 2), "both Orders keys drop, nothing else");
        assert!(cache.get(&key(0), 1).is_none());
        assert!(cache.get(&key(1), 1).is_none(), "shared key drops with either relation");
        assert!(cache.get(&key(2), 1).is_some(), "Market-only key survives");
        assert!(cache.get(&key(3), 1).is_some(), "unregistered key survives");
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.invalidated_entries), (2, 2));
        assert_eq!(stats.entries, 2);

        // Draining Market again only drops what is still resident:
        // key(1) is gone, so only key(2) counts.
        let (keys, entries) = cache.invalidate_relations(&["Market".to_string()]);
        assert_eq!((keys, entries), (1, 1));
        assert!(cache.get(&key(2), 1).is_none());
        assert!(cache.get(&key(3), 1).is_some());
    }

    #[test]
    fn invalidating_unregistered_relations_is_a_noop() {
        let cache = ShardedNuCache::new(ShardedCacheConfig::default());
        cache.insert(key(0), 1, est(1, 2));
        assert_eq!(cache.invalidate_relations(&["Nothing".to_string()]), (0, 0));
        assert_eq!(cache.invalidate_relations(&[]), (0, 0));
        assert!(cache.get(&key(0), 1).is_some());
    }
}

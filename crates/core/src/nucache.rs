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
//! The cache is internally synchronized: batch workers record results
//! concurrently, and a single instance can be shared across engines,
//! queries, and threads (`&NuCache` is `Send + Sync`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::estimate::CertaintyEstimate;

/// The cache interface the measurement pipeline consults.
///
/// [`NuCache`] is the reference implementation (unbounded, one lock) and
/// stays bit-pinned for the single-shot routes; `qarith-serve` provides a
/// bounded, sharded implementation for long-lived serving processes. The
/// contract every implementation must honor:
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

/// Hit/miss/size counters of a [`NuCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
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
    /// order — the machine-readable export behind the `/metrics`
    /// `qarith_nucache` block. Names are part of the export schema:
    /// renaming one breaks scrapers.
    pub fn as_pairs(&self) -> [(&'static str, u64); 3] {
        [
            ("hits", self.hits as u64),
            ("misses", self.misses as u64),
            ("entries", self.entries as u64),
        ]
    }
}

/// A shared, synchronized memo table for `ν` results. Two-level map —
/// group key, then fingerprint — so lookups probe with `&str` and never
/// allocate (group keys are full formula serializations; copying them
/// per lookup would dominate the warm serving path).
#[derive(Debug, Default)]
pub struct NuCache {
    map: Mutex<HashMap<String, HashMap<u64, CertaintyEstimate>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl NuCache {
    /// An empty cache.
    pub fn new() -> NuCache {
        NuCache::default()
    }

    /// Looks up the estimate for a formula group key under an options
    /// fingerprint. Served entries are marked
    /// [`CertaintyEstimate::cached`].
    pub fn get(&self, group_key: &str, fingerprint: u64) -> Option<CertaintyEstimate> {
        let map = self.map.lock().expect("ν-cache poisoned");
        match map.get(group_key).and_then(|by_fp| by_fp.get(&fingerprint)) {
            Some(est) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut est = est.clone();
                est.cached = true;
                Some(est)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records an estimate. Last write wins (writers racing on one key
    /// hold bit-identical values by construction).
    pub fn insert(&self, group_key: String, fingerprint: u64, estimate: CertaintyEstimate) {
        let mut map = self.map.lock().expect("ν-cache poisoned");
        map.entry(group_key).or_default().insert(fingerprint, estimate);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        // analyze: allow(hash-iteration, reason = "summing lengths is commutative; the total is order-insensitive")
        let entries = self.map.lock().expect("ν-cache poisoned").values().map(HashMap::len).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drops all entries and counters.
    pub fn clear(&self) {
        self.map.lock().expect("ν-cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl CertaintyCache for NuCache {
    fn get(&self, group_key: &str, fingerprint: u64) -> Option<CertaintyEstimate> {
        NuCache::get(self, group_key, fingerprint)
    }

    fn insert(&self, group_key: String, fingerprint: u64, estimate: CertaintyEstimate) {
        NuCache::insert(self, group_key, fingerprint, estimate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qarith_numeric::Rational;

    fn est(v: i128, d: i128) -> CertaintyEstimate {
        CertaintyEstimate::exact_rational(Rational::new(v, d), 1)
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let cache = NuCache::new();
        assert!(cache.get("k", 7).is_none());
        cache.insert("k".into(), 7, est(1, 2));
        let got = cache.get("k", 7).expect("present");
        assert_eq!(got.exact, Some(Rational::new(1, 2)));
        assert!(got.cached, "served entries are flagged");
        // Different fingerprint is a different entry.
        assert!(cache.get("k", 8).is_none());
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 2, entries: 1 });
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let cache = NuCache::new();
        cache.insert("a".into(), 0, est(1, 1));
        let _ = cache.get("a", 0);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.get("a", 0).is_none());
    }

    #[test]
    fn shared_across_threads() {
        let cache = NuCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    cache.insert(format!("k{t}"), 0, est(1, 4));
                    assert!(cache.get(&format!("k{t}"), 0).is_some());
                });
            }
        });
        assert_eq!(cache.stats().entries, 4);
    }
}

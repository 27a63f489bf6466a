//! The bounded session cache behind the server's warm path.
//!
//! Three LRU layers, all under one lock, all keyed by canonical strings
//! derived from the query (see [`CacheKeys`]):
//!
//! 1. **Full results** — exact-repeat queries (same shard, item set,
//!    scheme, budget, λ, μ, *and* sweep count) return the memoized
//!    selections without touching the solver. The solver is
//!    deterministic, so this is byte-identical to re-solving.
//! 2. **Warm states** — per query *shape* (same key minus λ/μ/sweeps),
//!    a vector of [`RegressionWarm`] answer memos, one per item, each
//!    holding that item's last completed regression. A hit is re-injected
//!    into the alternating solver, which serves a memo only to a
//!    regression whose target, block weights (λ, μ), budget and caps
//!    repeat bit for bit (ARCHITECTURE.md §9), so the answer equals a
//!    cold solve bit-for-bit — a stale memo can only cost time, never
//!    correctness.
//! 3. **Instance contexts** — the assembled [`InstanceContext`] (review
//!    features, targets τᵢ and Γ) per (shard, items, scheme), shared
//!    via `Arc` so concurrent requests on the same item set skip
//!    context assembly.
//!
//! Warm states are *checked out*: a hit removes the entry, the solve
//! mutates it in place, and the server re-inserts it afterwards. A
//! concurrent request for the same shape simply misses and solves cold —
//! slower, never wrong. Degraded (deadline-cut) solves never write back,
//! so the cache only ever holds state from completed solves.
//!
//! Eviction is plain least-recently-used per layer with a per-layer
//! capacity; every eviction is reported to the caller so the server can
//! feed the `serve_cache_evictions` counter. Capacity 0 disables a layer
//! (every lookup misses, every insert is dropped) — the serving bench
//! uses that as its cold baseline.

use comparesets_core::{InstanceContext, RegressionWarm};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::protocol::ItemSelection;

/// A small least-recently-used map: `HashMap` plus a monotone access
/// stamp, evicting the minimum stamp when full. O(n) eviction scan —
/// fine at session-cache capacities (tens to hundreds of entries).
struct Lru<V> {
    entries: HashMap<String, (u64, V)>,
    capacity: usize,
    tick: u64,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up and mark as most-recently used.
    fn get(&mut self, key: &str) -> Option<&V> {
        let stamp = self.touch();
        match self.entries.get_mut(key) {
            Some(slot) => {
                slot.0 = stamp;
                Some(&slot.1)
            }
            None => None,
        }
    }

    /// Remove and return an entry (the warm-state checkout).
    fn take(&mut self, key: &str) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    /// Insert, evicting the least-recently-used entry when at capacity.
    /// Returns how many entries were evicted (0 or 1; inserts into a
    /// zero-capacity layer are dropped and evict nothing).
    fn insert(&mut self, key: String, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let stamp = self.touch();
        let mut evicted = 0;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                evicted = 1;
            }
        }
        self.entries.insert(key, (stamp, value));
        evicted
    }

    /// Drop every entry whose key fails `keep`; returns how many fell.
    fn retain(&mut self, keep: impl Fn(&str) -> bool) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|k, _| keep(k));
        (before - self.entries.len()) as u64
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(_, v)| v)
    }
}

/// The canonical cache keys for one solve query. Derived once per
/// request; all three layers key on strings so the layers can share one
/// key-building pass and remain trivially hashable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKeys {
    /// Full-result key: shard, scheme, items, m, λ-bits, μ-bits, sweeps.
    /// Exact repeats only.
    pub full: String,
    /// Warm-state key: shard, scheme, items, m — λ/μ/sweeps excluded, so
    /// near-repeat queries (a λ tweak, a deeper sweep) still warm-hit.
    /// The memos it finds key each regression on its target *and* its
    /// block weights, so a changed λ or μ solves cold even where it
    /// leaves a target unchanged; identity is never at risk.
    pub warm: String,
    /// Context key: shard, scheme, items — everything the design
    /// matrices depend on, nothing they don't.
    pub context: String,
}

impl CacheKeys {
    /// Build the canonical keys for a query. λ and μ key on their IEEE-754
    /// bit patterns, so `1.0` and `1.0 + ε` are distinct and NaN cannot
    /// alias. Every item is keyed together with its shard-local mutation
    /// *version* (`versions[i]`, `id:vN` tokens): an ingest that touches
    /// a product bumps its version, so every entry computed before the
    /// mutation becomes unreachable — a warm or full hit can never serve
    /// a selection computed over a stale corpus. Static shards pass all
    /// zeros and key exactly as before versioning.
    ///
    /// # Panics
    /// Panics when `versions` does not align with `items`.
    // Eight positional dimensions of one key, all primitives: a builder
    // struct would only rename them.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        shard: &str,
        scheme: &str,
        items: &[u32],
        versions: &[u64],
        m: usize,
        lambda: f64,
        mu: f64,
        sweeps: usize,
    ) -> CacheKeys {
        assert_eq!(items.len(), versions.len(), "one version per item");
        let mut base = format!("{shard}|{scheme}|");
        for (i, id) in items.iter().enumerate() {
            if i > 0 {
                base.push(',');
            }
            base.push_str(&format!("{id}:v{}", versions[i]));
        }
        let context = base.clone();
        let warm = format!("{base}|m{m}");
        let full = format!(
            "{warm}|l{:016x}|u{:016x}|s{sweeps}",
            lambda.to_bits(),
            mu.to_bits()
        );
        CacheKeys {
            full,
            warm,
            context,
        }
    }
}

/// A memoized solve answer, stored without its cache marker so a
/// full-layer hit replays the original answer verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// Per-item selections exactly as first computed.
    pub selections: Vec<ItemSelection>,
    /// The objective of those selections.
    pub objective: f64,
}

/// Entry counts per layer, for the `metrics` operation and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSizes {
    /// Entries in the full-result layer.
    pub results: usize,
    /// Entries in the warm-state layer.
    pub warm: usize,
    /// Entries in the context layer.
    pub contexts: usize,
}

struct Layers {
    results: Lru<CachedAnswer>,
    warm: Lru<Vec<RegressionWarm>>,
    contexts: Lru<Arc<InstanceContext>>,
}

/// The shared bounded session cache (see module docs for the layer
/// semantics). All methods take `&self`; the interior lock is held only
/// for map operations, never across a solve.
pub struct SessionCache {
    layers: Mutex<Layers>,
}

impl SessionCache {
    /// A cache holding at most `capacity` entries *per layer*.
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            layers: Mutex::new(Layers {
                results: Lru::new(capacity),
                warm: Lru::new(capacity),
                contexts: Lru::new(capacity),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Layers> {
        // A panic while holding the lock can only leave fewer cache
        // entries, never corrupt ones; keep serving.
        self.layers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Full-result lookup (layer 1).
    pub fn full_hit(&self, keys: &CacheKeys) -> Option<CachedAnswer> {
        self.lock().results.get(&keys.full).cloned()
    }

    /// Memoize a completed solve's answer. Returns evictions performed.
    pub fn store_full(&self, keys: &CacheKeys, answer: CachedAnswer) -> u64 {
        self.lock().results.insert(keys.full.clone(), answer)
    }

    /// Check a warm-state vector out of layer 2 (removing it; see module
    /// docs). `None` is a miss.
    pub fn take_warm(&self, keys: &CacheKeys) -> Option<Vec<RegressionWarm>> {
        self.lock().warm.take(&keys.warm)
    }

    /// Return (or first-insert) a warm-state vector after a completed
    /// solve. Returns evictions performed.
    pub fn put_warm(&self, keys: &CacheKeys, states: Vec<RegressionWarm>) -> u64 {
        self.lock().warm.insert(keys.warm.clone(), states)
    }

    /// Shared-context lookup (layer 3).
    pub fn context(&self, keys: &CacheKeys) -> Option<Arc<InstanceContext>> {
        self.lock().contexts.get(&keys.context).cloned()
    }

    /// Share a freshly built context. Returns evictions performed.
    pub fn store_context(&self, keys: &CacheKeys, ctx: Arc<InstanceContext>) -> u64 {
        self.lock().contexts.insert(keys.context.clone(), ctx)
    }

    /// Drop every entry (all three layers) that involves `product` on
    /// `shard`, returning how many entries fell. Versioned keys already
    /// make stale entries unreachable after an ingest bumps the product's
    /// version; this sweep reclaims their capacity so dead selections
    /// don't crowd out live ones. Key format: `shard|scheme|items` where
    /// items is a CSV of `id:vN` tokens.
    pub fn invalidate_item(&self, shard: &str, product: u32) -> u64 {
        let prefix = format!("{product}:");
        let keep = move |key: &str| {
            let mut parts = key.split('|');
            let (Some(s), Some(_scheme), Some(items)) = (parts.next(), parts.next(), parts.next())
            else {
                return true;
            };
            s != shard || !items.split(',').any(|tok| tok.starts_with(&prefix))
        };
        let mut layers = self.lock();
        layers.results.retain(&keep) + layers.warm.retain(&keep) + layers.contexts.retain(&keep)
    }

    /// Current entry counts per layer.
    pub fn sizes(&self) -> CacheSizes {
        let layers = self.lock();
        CacheSizes {
            results: layers.results.len(),
            warm: layers.warm.len(),
            contexts: layers.contexts.len(),
        }
    }

    /// Heap bytes of every answer memo held in the warm layer (see
    /// [`RegressionWarm::memo_bytes`]): the solver state the daemon keeps
    /// between requests, reported by the `health` op.
    pub fn resident_bytes(&self) -> u64 {
        self.lock()
            .warm
            .values()
            .flat_map(|states| states.iter())
            .map(RegressionWarm::memo_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn keys(items: &[u32], m: usize, lambda: f64, sweeps: usize) -> CacheKeys {
        CacheKeys::build(
            "s",
            "binary",
            items,
            &vec![0; items.len()],
            m,
            lambda,
            0.1,
            sweeps,
        )
    }

    #[test]
    fn key_granularity_matches_layer_semantics() {
        let a = keys(&[1, 2, 3], 3, 1.0, 1);
        let deeper = keys(&[1, 2, 3], 3, 1.0, 2);
        let tweaked = keys(&[1, 2, 3], 3, 0.5, 1);
        let rebudgeted = keys(&[1, 2, 3], 4, 1.0, 1);
        let other_items = keys(&[1, 2, 4], 3, 1.0, 1);
        // Full keys: any parameter change is a different query.
        assert_ne!(a.full, deeper.full);
        assert_ne!(a.full, tweaked.full);
        assert_ne!(a.full, rebudgeted.full);
        // Warm keys: λ and sweeps excluded (near-repeat reuse)...
        assert_eq!(a.warm, deeper.warm);
        assert_eq!(a.warm, tweaked.warm);
        // ...but budget and item set are not.
        assert_ne!(a.warm, rebudgeted.warm);
        assert_ne!(a.warm, other_items.warm);
        // Context keys ignore everything but shard/scheme/items.
        assert_eq!(a.context, rebudgeted.context);
        assert_ne!(a.context, other_items.context);
    }

    #[test]
    fn item_versions_fork_every_key_layer() {
        let v0 = CacheKeys::build("s", "binary", &[1, 2], &[0, 0], 3, 1.0, 0.1, 1);
        let v1 = CacheKeys::build("s", "binary", &[1, 2], &[0, 1], 3, 1.0, 0.1, 1);
        // A mutation on any item in the set invalidates by key: full,
        // warm, and context entries from before the bump are unreachable.
        assert_ne!(v0.full, v1.full);
        assert_ne!(v0.warm, v1.warm);
        assert_ne!(v0.context, v1.context);
    }

    #[test]
    fn invalidate_item_sweeps_matching_entries_from_all_layers() {
        let cache = SessionCache::new(8);
        let with7 = CacheKeys::build("s", "binary", &[7, 8], &[2, 0], 3, 1.0, 0.1, 1);
        let without7 = CacheKeys::build("s", "binary", &[8, 9], &[0, 0], 3, 1.0, 0.1, 1);
        let other_shard = CacheKeys::build("t", "binary", &[7, 8], &[2, 0], 3, 1.0, 0.1, 1);
        for k in [&with7, &without7, &other_shard] {
            cache.store_full(
                k,
                CachedAnswer {
                    selections: vec![],
                    objective: 0.0,
                },
            );
            cache.put_warm(k, vec![RegressionWarm::new()]);
        }
        // Product 7 on shard "s": one entry per layer falls; shard "t"
        // and 7-free item sets survive. `8` must not match a `78` token.
        assert_eq!(cache.invalidate_item("s", 7), 2);
        assert!(cache.full_hit(&with7).is_none());
        assert!(cache.full_hit(&without7).is_some());
        assert!(cache.full_hit(&other_shard).is_some());
        assert_eq!(cache.invalidate_item("s", 78), 0);
        // with7 is already gone, so only without7's two entries remain
        // on shard "s" that mention product 8.
        assert_eq!(cache.invalidate_item("s", 8), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.insert("b".into(), 2), 0);
        assert_eq!(lru.get("a"), Some(&1)); // refresh a; b is now oldest
        assert_eq!(lru.insert("c".into(), 3), 1);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        // Overwriting an existing key is not an eviction.
        assert_eq!(lru.insert("c".into(), 4), 0);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_the_layer() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.get("a"), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn resident_bytes_tracks_memo_bytes() {
        use comparesets_core::{
            solve_comparesets_plus_sweeps_warm_with, InstanceContext, Item, OpinionScheme,
            RegressionWarm, SelectParams, SolveOptions,
        };
        use comparesets_data::{Polarity, ProductId, ReviewId};

        let cache = SessionCache::new(4);
        assert_eq!(cache.resident_bytes(), 0, "empty cache holds nothing");

        // Two items: with one item the coupling vanishes and the
        // alternation (the path that fills memos) never runs.
        let items: Vec<Item> = (0..2)
            .map(|p| {
                Item::from_mentions(
                    ProductId(p),
                    vec![
                        (ReviewId(0), vec![(0, Polarity::Positive)]),
                        (ReviewId(1), vec![(1, Polarity::Negative)]),
                        (
                            ReviewId(2),
                            vec![(0, Polarity::Positive), (1, Polarity::Negative)],
                        ),
                    ],
                )
            })
            .collect();
        let ctx = InstanceContext::from_items(2, items, OpinionScheme::Binary);
        let mut warm = vec![RegressionWarm::new(), RegressionWarm::new()];
        solve_comparesets_plus_sweeps_warm_with(
            &ctx,
            &SelectParams::default(),
            1,
            &SolveOptions::default(),
            &mut warm,
        );
        let held: u64 = warm.iter().map(RegressionWarm::memo_bytes).sum();
        assert!(held > 0, "warm solve must memoize its regressions");

        let k = keys(&[0, 1], 3, 1.0, 1);
        cache.put_warm(&k, warm);
        assert_eq!(cache.resident_bytes(), held);
        cache.take_warm(&k);
        assert_eq!(cache.resident_bytes(), 0, "checkout removes the bytes");
    }

    #[test]
    fn warm_checkout_removes_the_entry() {
        let cache = SessionCache::new(4);
        let k = keys(&[7, 8], 3, 1.0, 1);
        cache.put_warm(&k, vec![RegressionWarm::new(), RegressionWarm::new()]);
        assert!(cache.take_warm(&k).is_some());
        assert!(cache.take_warm(&k).is_none(), "checkout must remove");
        assert_eq!(cache.sizes().warm, 0);
    }
}

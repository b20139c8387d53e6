//! LRU cache of computed vertex embeddings.
//!
//! Under skewed (Zipfian) request traffic a small set of hot vertices is
//! asked for over and over; caching their final-layer embeddings lets
//! repeats skip ego-graph extraction *and* the engine forward pass. Keys
//! carry the layer index and extraction depth, so a row is only ever
//! served to a lookup that would have computed it the same way.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Cache key: which embedding this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Original graph vertex id.
    pub vertex: u32,
    /// Layer the embedding comes out of (`net.depth()` for final
    /// outputs).
    pub layer: u16,
    /// Extraction depth the row was computed at. Rows from a truncated
    /// receptive field (explicitly requested shallow hops, or the
    /// degradation ladder) are exact *for that depth*, so they cache
    /// soundly under their own key — and can never be served to a
    /// request wanting a different depth.
    pub hops: u16,
    /// Model version. A server holds one network for its whole life, so
    /// both servers stamp the same constant.
    pub version: u32,
    /// Graph epoch the row was computed against (0 for a frozen graph,
    /// so the epoch layer is invisible when no mutations are applied).
    /// On mutation the server walks current-epoch entries once: rows
    /// whose receptive field touches a dirty vertex are evicted, the
    /// rest are re-keyed to the new epoch (see
    /// [`FeatureCache::invalidate_mutated`]); entries pinned to *older*
    /// epochs are left alone — they stay exact for requests pinned to
    /// those epochs.
    pub epoch: u64,
    /// Shard whose worker computed the row (0 for the unsharded
    /// server). Final-layer embeddings are a pure function of (vertex,
    /// layer, hops, version) — the distributed extraction is bitwise
    /// equal to the single-device one, so replicas *could* safely share
    /// entries. The dimension is still keyed so each shard's cache
    /// capacity models that device's memory, and so a future
    /// shard-local invalidation (rebalance, replica refresh) cannot
    /// serve a row cached under a different shard's lifecycle.
    pub shard: u16,
}

struct Entry {
    row: Vec<f32>,
    stamp: u64,
    inserted: Instant,
}

/// The outcome of a TTL-aware lookup ([`FeatureCache::get_aged`]).
#[derive(Debug, PartialEq)]
pub enum Lookup<'a> {
    /// Present and within its TTL.
    Fresh(&'a [f32]),
    /// Present but past its TTL, within the stale grace window — usable
    /// only under degraded service, and the response must say so.
    Stale(&'a [f32]),
    /// Absent, or expired beyond the grace window (expired entries are
    /// dropped on lookup).
    Miss,
}

/// An LRU map from [`CacheKey`] to an embedding row, with hit/miss
/// accounting. A capacity of 0 disables caching (every lookup misses,
/// inserts are dropped).
pub struct FeatureCache {
    capacity: usize,
    map: HashMap<CacheKey, Entry>,
    // Recency index: stamp -> key, oldest first. Stamps are unique (one
    // monotone clock), so BTreeMap keeps exact LRU order with O(log n)
    // bump/evict — plenty for serving-path cardinalities.
    lru: BTreeMap<u64, CacheKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale_hits: u64,
    mutation_evictions: u64,
}

impl FeatureCache {
    /// A cache holding at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            lru: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            stale_hits: 0,
            mutation_evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entry count (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hits that served a past-TTL entry (subset of [`hits`](Self::hits)).
    pub(crate) fn stale_hits(&self) -> u64 {
        self.stale_hits
    }

    /// `hits / (hits + misses)`, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look `key` up, counting a hit or miss and refreshing recency on
    /// hit.
    pub fn get(&mut self, key: CacheKey) -> Option<&[f32]> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                self.lru.remove(&entry.stamp);
                entry.stamp = clock;
                self.lru.insert(clock, key);
                Some(&entry.row)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// TTL-aware lookup. `ttl` of `None` means entries never go stale
    /// (equivalent to [`get`](Self::get)); otherwise entries older than
    /// `ttl` are [`Lookup::Stale`] up to `ttl + stale_grace` and dropped
    /// (a miss) beyond that. Pass `stale_grace = Duration::ZERO` to
    /// refuse stale service (full-fidelity mode). Counts a hit for fresh
    /// *and* stale outcomes, refreshing recency; stale hits are also
    /// tallied separately.
    pub(crate) fn get_aged(
        &mut self,
        key: CacheKey,
        ttl: Option<Duration>,
        stale_grace: Duration,
    ) -> Lookup<'_> {
        if self.capacity == 0 {
            self.misses += 1;
            return Lookup::Miss;
        }
        let Some(entry) = self.map.get(&key) else {
            self.misses += 1;
            return Lookup::Miss;
        };
        let fresh = match ttl {
            None => true,
            Some(t) => {
                let age = entry.inserted.elapsed();
                if age > t + stale_grace {
                    // Expired beyond grace: drop it so it cannot linger
                    // as a permanently-stale LRU resident.
                    let stamp = entry.stamp;
                    self.map.remove(&key);
                    self.lru.remove(&stamp);
                    self.misses += 1;
                    return Lookup::Miss;
                }
                age <= t
            }
        };
        self.clock += 1;
        let clock = self.clock;
        let entry = self.map.get_mut(&key).expect("entry checked above");
        self.lru.remove(&entry.stamp);
        entry.stamp = clock;
        self.lru.insert(clock, key);
        self.hits += 1;
        if fresh {
            Lookup::Fresh(&entry.row)
        } else {
            self.stale_hits += 1;
            Lookup::Stale(&entry.row)
        }
    }

    /// Insert (or refresh) an embedding row, evicting the least recently
    /// used entry if at capacity. No-op when the cache is disabled.
    pub fn insert(&mut self, key: CacheKey, row: Vec<f32>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.map.get_mut(&key) {
            self.lru.remove(&entry.stamp);
            entry.stamp = clock;
            entry.row = row;
            entry.inserted = Instant::now();
            self.lru.insert(clock, key);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((_, victim)) = self.lru.pop_first() {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                row,
                stamp: clock,
                inserted: Instant::now(),
            },
        );
        self.lru.insert(clock, key);
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    /// Apply a graph mutation `old_epoch -> new_epoch` to the keyspace.
    ///
    /// Walks every entry keyed at exactly `old_epoch` (the epoch that
    /// just stopped being current): entries whose vertex is in
    /// `affected` — the mutation's k-hop invalidation frontier, every
    /// vertex whose receptive field touches a dirty vertex — are
    /// evicted; all others are *re-keyed* to `new_epoch`, because a row
    /// whose receptive field the mutation cannot reach is bitwise
    /// identical on both epochs. Entries at older epochs are untouched:
    /// each epoch's graph is immutable, so they remain exact for
    /// requests still pinned there. Returns `(evicted, rekeyed)`.
    ///
    /// `new_epoch` must be fresh (no entries keyed there yet) — the
    /// serve tier guarantees this by invalidating under the same lock
    /// that bumps the epoch.
    pub fn invalidate_mutated(
        &mut self,
        old_epoch: u64,
        new_epoch: u64,
        affected: &std::collections::HashSet<u32>,
    ) -> (u64, u64) {
        debug_assert!(new_epoch > old_epoch);
        let stale: Vec<CacheKey> = self
            .map
            .keys()
            .filter(|k| k.epoch == old_epoch)
            .copied()
            .collect();
        let (mut evicted, mut rekeyed) = (0u64, 0u64);
        for key in stale {
            let entry = self.map.remove(&key).expect("key enumerated above");
            if affected.contains(&key.vertex) {
                self.lru.remove(&entry.stamp);
                self.mutation_evictions += 1;
                evicted += 1;
            } else {
                let mut nk = key;
                nk.epoch = new_epoch;
                *self
                    .lru
                    .get_mut(&entry.stamp)
                    .expect("live entry has a stamp") = nk;
                self.map.insert(nk, entry);
                rekeyed += 1;
            }
        }
        (evicted, rekeyed)
    }

    /// Entries evicted by [`Self::invalidate_mutated`] (disjoint from
    /// capacity [`evictions`](Self::evictions)).
    pub fn mutation_evictions(&self) -> u64 {
        self.mutation_evictions
    }

    /// The deepest extraction depth cached at `epoch`, or `None` when no
    /// entry is keyed there. Mutation invalidation must walk the
    /// out-edge frontier at least this deep — a row cached at depth `h`
    /// has an `h`-hop receptive field regardless of the server's default.
    pub(crate) fn max_hops_at_epoch(&self, epoch: u64) -> Option<u16> {
        self.map
            .keys()
            .filter(|k| k.epoch == epoch)
            .map(|k| k.hops)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u32) -> CacheKey {
        CacheKey {
            vertex: v,
            layer: 2,
            hops: 2,
            version: 1,
            shard: 0,
            epoch: 0,
        }
    }

    fn key_at(v: u32, epoch: u64) -> CacheKey {
        CacheKey { epoch, ..key(v) }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = FeatureCache::new(4);
        assert!(c.get(key(1)).is_none());
        c.insert(key(1), vec![1.0, 2.0]);
        assert_eq!(c.get(key(1)), Some(&[1.0, 2.0][..]));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = FeatureCache::new(2);
        c.insert(key(1), vec![1.0]);
        c.insert(key(2), vec![2.0]);
        assert!(c.get(key(1)).is_some()); // 1 is now more recent than 2
        c.insert(key(3), vec![3.0]); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(key(2)).is_none(), "LRU victim was 2");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = FeatureCache::new(0);
        c.insert(key(1), vec![1.0]);
        assert!(c.get(key(1)).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn version_layer_hops_shard_and_epoch_partition_the_keyspace() {
        let mut c = FeatureCache::new(8);
        c.insert(key(5), vec![1.0]);
        assert!(c
            .get(CacheKey {
                version: 2,
                ..key(5)
            })
            .is_none());
        assert!(c.get(CacheKey { layer: 1, ..key(5) }).is_none());
        assert!(c.get(CacheKey { hops: 1, ..key(5) }).is_none());
        assert!(c.get(CacheKey { shard: 1, ..key(5) }).is_none());
        assert!(c.get(CacheKey { epoch: 1, ..key(5) }).is_none());
        assert!(c.get(key(5)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = FeatureCache::new(2);
        c.insert(key(1), vec![1.0]);
        c.insert(key(2), vec![2.0]);
        c.insert(key(1), vec![10.0]); // refresh: 2 is now LRU
        c.insert(key(3), vec![3.0]); // evicts 2
        assert_eq!(c.get(key(1)), Some(&[10.0][..]));
        assert!(c.get(key(2)).is_none());
    }

    #[test]
    fn hit_rate_defined_before_any_lookup() {
        let c = FeatureCache::new(4);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn aged_lookup_without_ttl_is_always_fresh() {
        let mut c = FeatureCache::new(4);
        c.insert(key(1), vec![1.0]);
        assert_eq!(
            c.get_aged(key(1), None, Duration::ZERO),
            Lookup::Fresh(&[1.0][..])
        );
        assert_eq!(c.get_aged(key(2), None, Duration::ZERO), Lookup::Miss);
        assert_eq!((c.hits(), c.misses(), c.stale_hits()), (1, 1, 0));
    }

    #[test]
    fn zero_ttl_entries_are_stale_within_grace() {
        let mut c = FeatureCache::new(4);
        c.insert(key(1), vec![1.0]);
        // TTL 0: any age is past TTL; a generous grace serves it stale.
        assert_eq!(
            c.get_aged(key(1), Some(Duration::ZERO), Duration::from_secs(3600)),
            Lookup::Stale(&[1.0][..])
        );
        assert_eq!((c.hits(), c.stale_hits()), (1, 1));
        // Zero grace refuses stale service and drops the entry.
        assert_eq!(
            c.get_aged(key(1), Some(Duration::ZERO), Duration::ZERO),
            Lookup::Miss
        );
        assert_eq!(c.len(), 0, "expired entry dropped on lookup");
    }

    #[test]
    fn reinsert_refreshes_age() {
        let mut c = FeatureCache::new(4);
        c.insert(key(1), vec![1.0]);
        c.insert(key(1), vec![2.0]);
        // A long TTL keeps a just-(re)inserted entry fresh.
        assert_eq!(
            c.get_aged(key(1), Some(Duration::from_secs(3600)), Duration::ZERO),
            Lookup::Fresh(&[2.0][..])
        );
    }

    #[test]
    fn mutation_evicts_affected_and_rekeys_the_rest() {
        let mut c = FeatureCache::new(8);
        c.insert(key_at(1, 3), vec![1.0]);
        c.insert(key_at(2, 3), vec![2.0]);
        c.insert(key_at(3, 3), vec![3.0]);
        let affected: std::collections::HashSet<u32> = [2].into_iter().collect();
        let (evicted, rekeyed) = c.invalidate_mutated(3, 4, &affected);
        assert_eq!((evicted, rekeyed), (1, 2));
        assert_eq!(c.mutation_evictions(), 1);
        // Affected vertex is gone at every epoch.
        assert!(c.get(key_at(2, 3)).is_none());
        assert!(c.get(key_at(2, 4)).is_none());
        // Unaffected vertices moved forward: miss at the old epoch, hit
        // at the new one — no recompute needed.
        assert!(c.get(key_at(1, 3)).is_none());
        assert_eq!(c.get(key_at(1, 4)), Some(&[1.0][..]));
        assert_eq!(c.get(key_at(3, 4)), Some(&[3.0][..]));
    }

    #[test]
    fn mutation_leaves_older_epochs_pinned() {
        let mut c = FeatureCache::new(8);
        c.insert(key_at(7, 1), vec![1.0]); // pinned to epoch 1
        c.insert(key_at(7, 2), vec![2.0]); // current
        let affected: std::collections::HashSet<u32> = [7].into_iter().collect();
        let (evicted, rekeyed) = c.invalidate_mutated(2, 3, &affected);
        assert_eq!((evicted, rekeyed), (1, 0));
        // The epoch-1 row survives: that epoch's graph is immutable.
        assert_eq!(c.get(key_at(7, 1)), Some(&[1.0][..]));
        assert!(c.get(key_at(7, 3)).is_none());
    }

    #[test]
    fn rekeyed_entries_keep_lru_order() {
        let mut c = FeatureCache::new(2);
        c.insert(key_at(1, 0), vec![1.0]);
        c.insert(key_at(2, 0), vec![2.0]);
        let (_, rekeyed) = c.invalidate_mutated(0, 1, &std::collections::HashSet::new());
        assert_eq!(rekeyed, 2);
        // Vertex 1 is still the LRU victim after re-keying.
        c.insert(key_at(3, 1), vec![3.0]);
        assert!(c.get(key_at(1, 1)).is_none(), "oldest entry evicted");
        assert!(c.get(key_at(2, 1)).is_some());
    }
}

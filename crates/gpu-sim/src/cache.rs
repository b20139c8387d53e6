//! Sector-granularity cache model.
//!
//! Volta caches at 128-byte line granularity but fills at 32-byte *sector*
//! granularity, and Nsight's "sectors per request" metric counts sectors.
//! We therefore tag caches by sector id (`address / sector_bytes`), which is
//! both simpler and exactly the granularity the paper's metrics speak.
//!
//! [`SectorCache`] is the one model: a 4-way set-associative cache of
//! sector tags with true LRU replacement. Only the launch's pricing
//! function looks sectors up or invalidates them, one request at a time
//! in the launch's fixed order, so a cache has exactly one user at a time
//! and needs no locking: each SM worker's L1 is built with
//! [`SectorCache::new`], the device-wide L2 with [`SectorCache::sliced`].

const WAYS: usize = 4;

/// Address-interleaved slices of a [`SectorCache::sliced`] cache (the L2):
/// consecutive sectors go to consecutive slices. Power of two.
const L2_SLICES: usize = 64;

/// Marks an empty way. No real sector has this id: ids are byte
/// addresses divided by the sector width.
const EMPTY: u64 = u64::MAX;

/// Set-associative cache of sector tags with LRU replacement.
#[derive(Debug)]
pub(crate) struct SectorCache {
    /// `tags[set * WAYS..][..WAYS]` are one set's ways, most recently
    /// used first; [`EMPTY`] marks an empty way. Recency is only ever
    /// compared inside one set, so the order of a set's ways is the whole
    /// LRU state.
    tags: Vec<u64>,
    /// `num_sets - 1`; the set count is a power of two.
    set_mask: usize,
    /// Misses that displaced a valid resident sector (capacity/conflict
    /// pressure); cold misses into an empty way are not evictions.
    evictions: u64,
}

/// Sets of a cache holding `capacity_bytes` of `sector_bytes` sectors.
fn sets_for(capacity_bytes: usize, sector_bytes: usize) -> usize {
    let sectors = (capacity_bytes / sector_bytes).max(WAYS);
    (sectors / WAYS).next_power_of_two()
}

impl SectorCache {
    /// Build a cache holding `capacity_bytes` of `sector_bytes` sectors.
    pub(crate) fn new(capacity_bytes: usize, sector_bytes: usize) -> Self {
        Self::with_sets(sets_for(capacity_bytes, sector_bytes))
    }

    /// Build a cache of `capacity_bytes` organised as [`L2_SLICES`]
    /// address-interleaved slices: the low sector bits pick the slice, the
    /// bits above them the set inside it. Each slice is sized (and rounded
    /// up to a power-of-two set count) on its own, so the capacity is
    /// `L2_SLICES ×` one slice's, and slice and in-slice set together are
    /// simply the low bits of the sector id.
    pub(crate) fn sliced(capacity_bytes: usize, sector_bytes: usize) -> Self {
        let per_slice = (capacity_bytes / L2_SLICES).max(sector_bytes * WAYS);
        Self::with_sets(L2_SLICES * sets_for(per_slice, sector_bytes))
    }

    fn with_sets(num_sets: usize) -> Self {
        debug_assert!(num_sets.is_power_of_two());
        Self {
            tags: vec![EMPTY; num_sets * WAYS],
            set_mask: num_sets - 1,
            evictions: 0,
        }
    }

    #[inline]
    fn set_of(&self, sector: u64) -> usize {
        ((sector as usize) & self.set_mask) * WAYS
    }

    /// Look up a sector; on miss, insert it (allocate-on-miss). Returns
    /// whether the access hit.
    #[inline]
    pub(crate) fn access(&mut self, sector: u64) -> bool {
        let base = self.set_of(sector);
        let ways: &mut [u64; WAYS] = (&mut self.tags[base..base + WAYS])
            .try_into()
            .expect("a set is WAYS tags");
        // The way that becomes most recent: the one holding the sector, else
        // the first empty one, else the least recent (last), displaced.
        let found = ways.iter().position(|&t| t == sector);
        let way = found.unwrap_or_else(|| {
            ways.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
                self.evictions += 1;
                WAYS - 1
            })
        });
        // Ways ahead of it age by one place; a hit on the most recent way
        // (the common case) moves nothing.
        for i in (0..way).rev() {
            ways[i + 1] = ways[i];
        }
        ways[0] = sector;
        found.is_some()
    }

    /// Whether a sector is resident, without touching recency (the tests'
    /// view of the cache).
    #[cfg(test)]
    pub(crate) fn probe(&self, sector: u64) -> bool {
        let base = self.set_of(sector);
        self.tags[base..base + WAYS].contains(&sector)
    }

    /// Invalidate a sector if present (used by atomics, which bypass L1 and
    /// must not leave stale data behind). The way is blanked in place, so
    /// the recency order of the set's other ways is untouched.
    #[inline]
    pub(crate) fn invalidate(&mut self, sector: u64) {
        let base = self.set_of(sector);
        for t in &mut self.tags[base..base + WAYS] {
            if *t == sector {
                *t = EMPTY;
            }
        }
    }

    /// Misses that displaced a valid resident sector.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Clear contents and statistics.
    pub(crate) fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.evictions = 0;
    }
}

/// The model this one replaced, kept as the differential reference: LRU by
/// per-way use stamps and a per-cache clock, and an L2 of 64 independent
/// caches — shard picked by the low six sector bits, indexed inside by the
/// bits above them. It ran every gated number up to `BENCH_1.json`; the
/// tests below drive both models with the same streams and demand the same
/// answer per access.
#[cfg(test)]
mod reference {
    use super::WAYS;

    pub(crate) struct SectorCache {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        num_sets: usize,
        clock: u64,
        pub(crate) hits: u64,
        pub(crate) evictions: u64,
    }

    impl SectorCache {
        pub(crate) fn new(capacity_bytes: usize, sector_bytes: usize) -> Self {
            let sectors = (capacity_bytes / sector_bytes).max(WAYS);
            let num_sets = (sectors / WAYS).next_power_of_two();
            Self {
                tags: vec![u64::MAX; num_sets * WAYS],
                stamps: vec![0; num_sets * WAYS],
                num_sets,
                clock: 0,
                hits: 0,
                evictions: 0,
            }
        }

        pub(crate) fn access(&mut self, sector: u64) -> bool {
            self.clock += 1;
            let set = (sector as usize) & (self.num_sets - 1);
            let base = set * WAYS;
            let ways = &mut self.tags[base..base + WAYS];
            if let Some(way) = ways.iter().position(|&t| t == sector) {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return true;
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            let mut found_empty = false;
            for w in 0..WAYS {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    found_empty = true;
                    break;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            if !found_empty {
                self.evictions += 1;
            }
            self.tags[base + victim] = sector;
            self.stamps[base + victim] = self.clock;
            false
        }

        pub(crate) fn probe(&self, sector: u64) -> bool {
            let set = (sector as usize) & (self.num_sets - 1);
            self.tags[set * WAYS..set * WAYS + WAYS].contains(&sector)
        }

        pub(crate) fn invalidate(&mut self, sector: u64) {
            let set = (sector as usize) & (self.num_sets - 1);
            let base = set * WAYS;
            for w in 0..WAYS {
                if self.tags[base + w] == sector {
                    self.tags[base + w] = u64::MAX;
                }
            }
        }

        pub(crate) fn reset(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
            self.clock = 0;
            self.hits = 0;
            self.evictions = 0;
        }
    }

    const L2_SHARDS: usize = 64;
    const L2_SHARD_BITS: u32 = L2_SHARDS.trailing_zeros();

    pub(crate) struct SharedCache {
        shards: Vec<SectorCache>,
    }

    impl SharedCache {
        pub(crate) fn new(capacity_bytes: usize, sector_bytes: usize) -> Self {
            let per_shard = (capacity_bytes / L2_SHARDS).max(sector_bytes * WAYS);
            Self {
                shards: (0..L2_SHARDS)
                    .map(|_| SectorCache::new(per_shard, sector_bytes))
                    .collect(),
            }
        }

        pub(crate) fn access(&mut self, sector: u64) -> bool {
            self.shards[(sector as usize) & (L2_SHARDS - 1)].access(sector >> L2_SHARD_BITS)
        }

        /// Aggregate (hits, evictions) over all shards.
        pub(crate) fn stats(&self) -> (u64, u64) {
            self.shards
                .iter()
                .fold((0, 0), |(h, e), s| (h + s.hits, e + s.evictions))
        }

        pub(crate) fn reset(&mut self) {
            self.shards.iter_mut().for_each(SectorCache::reset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn repeated_access_hits() {
        let mut c = SectorCache::new(1024, 32);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert!(c.access(7));
    }

    #[test]
    fn lru_eviction() {
        // 4 sets * 4 ways = capacity 16 sectors with 32B sectors = 512B.
        let mut c = SectorCache::new(512, 32);
        // Fill one set (sectors congruent mod 4): 5 distinct tags in a
        // 4-way set must evict the least recently used (sector 0).
        for s in [0u64, 4, 8, 12, 16] {
            assert!(!c.access(s));
        }
        assert!(!c.probe(0), "LRU victim should be evicted");
        assert!(c.probe(16));
        // Four cold fills into empty ways, then one true eviction.
        assert_eq!(c.evictions(), 1);
        c.reset();
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut c = SectorCache::new(512, 32);
        for s in [0u64, 4, 8, 12] {
            c.access(s);
        }
        // Touch the oldest; the next-oldest (4) becomes the victim.
        assert!(c.access(0));
        c.access(16);
        assert!(c.probe(0));
        assert!(!c.probe(4));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SectorCache::new(1024, 32);
        c.access(3);
        assert!(c.probe(3));
        c.invalidate(3);
        assert!(!c.probe(3));
    }

    #[test]
    fn invalidated_way_is_refilled_without_eviction() {
        let mut c = SectorCache::new(512, 32);
        for s in [0u64, 4, 8, 12] {
            c.access(s);
        }
        c.invalidate(8);
        c.access(16);
        assert_eq!(c.evictions(), 0);
        assert!([0u64, 4, 12, 16].iter().all(|&s| c.probe(s)));
        // The set is full again and 0 is still the least recent.
        c.access(20);
        assert_eq!(c.evictions(), 1);
        assert!(!c.probe(0));
    }

    #[test]
    fn sliced_cache_roundtrip() {
        let mut c = SectorCache::sliced(64 * 1024, 32);
        assert!(!c.access(100));
        assert!(c.access(100));
        c.reset();
        assert!(!c.probe(100));
    }

    #[test]
    fn sliced_geometry_is_per_slice_rounding() {
        // V100: 6 MiB / 64 slices = 768 sets per slice, rounded up to 1024.
        let v100 = SectorCache::sliced(DeviceConfig::v100().l2_bytes, 32);
        assert_eq!(v100.set_mask + 1, 64 * 1024);
        // Tiny capacities still get one full set per slice.
        assert_eq!(SectorCache::sliced(1, 32).set_mask + 1, 64);
    }

    /// Seeded sector stream that keeps a cache of `num_sets` sets under
    /// hit, conflict and capacity pressure at once: half the draws pile
    /// seven tags onto a 512-set window (more tags than ways), half roam
    /// three times the cache's capacity.
    fn draw_sector(rng: &mut StdRng, num_sets: usize) -> u64 {
        let sets = num_sets as u64;
        if rng.random_bool(0.5) {
            rng.random_range(0..7u64) * sets + rng.random_range(0..sets.min(512))
        } else {
            rng.random_range(0..3 * sets * WAYS as u64)
        }
    }

    const STREAM_LEN: usize = 200_000;

    /// L1 geometry: `access` / `probe` / `invalidate` / `reset` answer
    /// identically in the recency-ordered model and the stamp/clock one.
    #[test]
    fn matches_reference_over_l1_geometry() {
        let (v100, small) = (DeviceConfig::v100(), DeviceConfig::test_small());
        // Full L1s, the 2 KiB floor of a fully occupied SM's per-warp
        // share, and a capacity that is not a power of two.
        let capacities = [v100.l1_bytes, small.l1_bytes, 2048, 3000, 96 * 1024];
        for (seed, capacity) in capacities.into_iter().enumerate() {
            let mut new = SectorCache::new(capacity, v100.sector_bytes);
            let mut old = reference::SectorCache::new(capacity, v100.sector_bytes);
            let mut rng = StdRng::seed_from_u64(0x11 + seed as u64);
            for step in 0..STREAM_LEN {
                let s = draw_sector(&mut rng, new.set_mask + 1);
                match rng.random_range(0..40_000u32) {
                    0 => {
                        new.reset();
                        old.reset();
                    }
                    1..=6_000 => {
                        new.invalidate(s);
                        old.invalidate(s);
                    }
                    6_001..=8_000 => assert_eq!(new.probe(s), old.probe(s), "probe, step {step}"),
                    _ => assert_eq!(new.access(s), old.access(s), "access, step {step}"),
                }
            }
            assert_eq!(new.evictions(), old.evictions, "capacity {capacity}");
            assert!(old.evictions > 0 && old.hits > 0);
        }
    }

    /// L2 geometry: one cache indexed by the low sector bits answers
    /// identically to 64 shards indexed by the bits above the shard bits.
    #[test]
    fn matches_reference_over_sliced_l2_geometry() {
        let (v100, small) = (DeviceConfig::v100(), DeviceConfig::test_small());
        // The two stock devices, the perf gate's 8-SM slice of a V100
        // (not a multiple of anything) and the benches' 768 KiB floor.
        let capacities = [
            v100.l2_bytes,
            small.l2_bytes,
            v100.l2_bytes * 8 / 80,
            768 * 1024,
        ];
        for (seed, capacity) in capacities.into_iter().enumerate() {
            let mut new = SectorCache::sliced(capacity, v100.sector_bytes);
            let mut old = reference::SharedCache::new(capacity, v100.sector_bytes);
            let mut rng = StdRng::seed_from_u64(0x12 + seed as u64);
            for step in 0..STREAM_LEN {
                let s = draw_sector(&mut rng, new.set_mask + 1);
                if rng.random_range(0..40_000u32) == 0 {
                    new.reset();
                    old.reset();
                } else {
                    assert_eq!(new.access(s), old.access(s), "access, step {step}");
                }
            }
            let (hits, evictions) = old.stats();
            assert_eq!(new.evictions(), evictions, "capacity {capacity}");
            assert!(evictions > 0 && hits > 0);
        }
    }
}

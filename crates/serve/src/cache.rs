//! The hot-boundary feature cache: pinned high-degree rows plus a
//! CLOCK-managed cold region.
//!
//! A serving shard owns the feature rows of its own partition; every
//! other row it needs (cross-partition neighbors — the generalized
//! boundary of the shard) must be fetched from the owning shard. BGL's
//! observation is that this feature I/O, not the GNN compute,
//! dominates; PaGraph's is that graph-query traffic is massively skewed
//! toward high-degree nodes. [`BoundaryCache`] encodes both: a capacity
//! sized as a fraction of the shard's static boundary set, the
//! top-degree slice of that set **pinned** (filled once at startup,
//! never evicted), and the remainder run as a CLOCK (second-chance)
//! cache for whatever the query stream actually touches.
//!
//! Determinism: the cache only changes *where* an f32 row is read from,
//! never its bits, so cached and uncached serving produce bitwise
//! identical logits (`tests/determinism.rs` holds this across the
//! `BNS_THREADS`/`BNS_SIMD` matrix). Lookups go through a dense
//! `global id -> slot` index — no hash maps in the per-query hot path
//! (enforced by `cargo xtask analyze`, BNS-A001).

/// Slot index marking "not cached".
const NO_SLOT: u32 = u32::MAX;

/// Sizing and pinning policy for a [`BoundaryCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Capacity as a fraction of the shard's boundary-row count
    /// (`0.0` disables the cache entirely; values above 1.0 are
    /// allowed and simply over-provision the cold region).
    pub capacity_ratio: f64,
    /// Fraction of the capacity reserved for degree-pinned hot rows
    /// (clamped to `[0, 1]`).
    pub pin_fraction: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_ratio: 0.25,
            pin_fraction: 0.5,
        }
    }
}

impl CacheConfig {
    /// A disabled cache (every boundary row is fetched remotely).
    pub fn disabled() -> Self {
        Self {
            capacity_ratio: 0.0,
            pin_fraction: 0.0,
        }
    }

    /// Slot count for a shard with `n_boundary` static boundary rows.
    pub fn slots(&self, n_boundary: usize) -> usize {
        (self.capacity_ratio * n_boundary as f64).round() as usize
    }

    /// How many of `slots` are pinned.
    pub fn pinned(&self, slots: usize) -> usize {
        ((self.pin_fraction.clamp(0.0, 1.0) * slots as f64).round() as usize).min(slots)
    }
}

/// Hit/miss/byte counters, snapshotted into the serve report and
/// flushed as `serve.cache.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a pinned or cold slot.
    pub hits: u64,
    /// Lookups that fell through to a remote fetch.
    pub misses: u64,
    /// Bytes fetched from owning shards on the miss path.
    pub bytes_fetched: u64,
    /// Bytes prefetched into pinned slots at startup (not on the
    /// query path; kept separate so hit-rate math stays honest).
    pub bytes_prefetched: u64,
    /// Cold-region evictions performed by the CLOCK hand.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over the query path (`0.0` when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another shard's counters (for the engine report).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes_fetched += other.bytes_fetched;
        self.bytes_prefetched += other.bytes_prefetched;
        self.evictions += other.evictions;
    }

    /// Flushes the counters to `bns-telemetry`.
    pub fn flush_counters(&self) {
        bns_telemetry::counter_add("serve.cache.hits", self.hits);
        bns_telemetry::counter_add("serve.cache.misses", self.misses);
        bns_telemetry::counter_add("serve.cache.bytes_fetched", self.bytes_fetched);
        bns_telemetry::counter_add("serve.cache.bytes_prefetched", self.bytes_prefetched);
        bns_telemetry::counter_add("serve.cache.evictions", self.evictions);
    }
}

/// Fixed-capacity feature-row cache keyed by global node id.
///
/// Slots `[0, pinned)` are immutable after [`BoundaryCache::pin`];
/// slots `[pinned, slots)` are managed by a CLOCK hand. All state is
/// dense vectors — lookup is two array reads, insertion is O(evict
/// scan), and nothing allocates after construction.
#[derive(Debug)]
pub struct BoundaryCache {
    /// Row storage, `slots x dim`, flat.
    rows: Vec<f32>,
    /// Feature dimension.
    dim: usize,
    /// `global id -> slot` (dense over the whole graph).
    slot_of: Vec<u32>,
    /// `slot -> global id` (NO_SLOT while empty).
    node_of: Vec<u32>,
    /// First `pinned` slots are never evicted.
    pinned: usize,
    /// CLOCK reference bits for the cold region (indexed by slot).
    referenced: Vec<bool>,
    /// CLOCK hand over `[pinned, slots)`.
    hand: usize,
    /// Next never-used cold slot (fill before evicting).
    cold_fill: usize,
    /// Counters.
    pub stats: CacheStats,
}

impl BoundaryCache {
    /// An empty cache with `slots` rows of `dim` floats over a graph of
    /// `num_nodes` global ids. `pinned <= slots` slots are reserved for
    /// the pin set.
    pub fn new(slots: usize, pinned: usize, dim: usize, num_nodes: usize) -> Self {
        assert!(pinned <= slots, "pinned set larger than capacity");
        Self {
            rows: vec![0.0; slots * dim],
            dim,
            slot_of: vec![NO_SLOT; num_nodes],
            node_of: vec![NO_SLOT; slots],
            pinned,
            referenced: vec![false; slots],
            hand: pinned,
            cold_fill: pinned,
            stats: CacheStats::default(),
        }
    }

    /// Total slot count.
    pub fn slots(&self) -> usize {
        self.node_of.len()
    }

    /// Pinned slot count.
    pub fn pinned_slots(&self) -> usize {
        self.pinned
    }

    /// Whether the cache holds no slots at all (disabled).
    pub fn is_disabled(&self) -> bool {
        self.node_of.is_empty()
    }

    /// Fills the pinned region with `nodes` (at most `pinned` of them
    /// are taken) using `fetch(global) -> row`. Call once at startup;
    /// the fetched bytes are accounted as prefetch, not misses.
    ///
    /// # Panics
    ///
    /// Panics if a fetched row has the wrong dimension or a node is
    /// pinned twice.
    pub fn pin<'a>(&mut self, nodes: &[u32], mut fetch: impl FnMut(u32) -> &'a [f32]) {
        let take = nodes.len().min(self.pinned);
        for (slot, &g) in nodes[..take].iter().enumerate() {
            assert_eq!(self.slot_of[g as usize], NO_SLOT, "node {g} pinned twice");
            let row = fetch(g);
            assert_eq!(row.len(), self.dim, "pinned row dim mismatch");
            self.rows[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
            self.slot_of[g as usize] = slot as u32;
            self.node_of[slot] = g;
            self.stats.bytes_prefetched += (self.dim * 4) as u64;
        }
        // Unfilled pinned slots (tiny boundary sets) join the cold pool.
        if take < self.pinned {
            self.pinned = take;
            self.hand = take;
            self.cold_fill = take;
        }
    }

    /// Looks `global` up; a hit returns the cached row and marks the
    /// slot referenced. Counters are updated either way.
    pub fn lookup(&mut self, global: u32) -> Option<&[f32]> {
        let slot = self.slot_of[global as usize];
        if slot == NO_SLOT {
            self.stats.misses += 1;
            return None;
        }
        let slot = slot as usize;
        self.stats.hits += 1;
        self.referenced[slot] = true;
        Some(&self.rows[slot * self.dim..(slot + 1) * self.dim])
    }

    /// Records a remote fetch of `row` for `global` and inserts it into
    /// the cold region (evicting via CLOCK if full). With no cold slots
    /// the row is only accounted, not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn admit(&mut self, global: u32, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "admitted row dim mismatch");
        self.stats.bytes_fetched += (self.dim * 4) as u64;
        let slots = self.node_of.len();
        if self.pinned >= slots {
            return; // no cold region
        }
        let slot = if self.cold_fill < slots {
            let s = self.cold_fill;
            self.cold_fill += 1;
            s
        } else {
            // CLOCK: advance the hand, clearing reference bits, until an
            // unreferenced victim is found (terminates within two laps).
            loop {
                let s = self.hand;
                self.hand += 1;
                if self.hand >= slots {
                    self.hand = self.pinned;
                }
                if self.referenced[s] {
                    self.referenced[s] = false;
                } else {
                    break s;
                }
            }
        };
        let old = self.node_of[slot];
        if old != NO_SLOT {
            self.slot_of[old as usize] = NO_SLOT;
            self.stats.evictions += 1;
        }
        self.rows[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
        self.slot_of[global as usize] = slot as u32;
        self.node_of[slot] = global;
        // Inserted cold: only a subsequent hit earns the second chance,
        // so one-touch rows wash out of a scanning workload quickly.
        self.referenced[slot] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32, d: usize) -> Vec<f32> {
        vec![v; d]
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = BoundaryCache::new(0, 0, 4, 100);
        assert!(c.is_disabled());
        assert!(c.lookup(3).is_none());
        c.admit(3, &row(1.0, 4));
        assert!(c.lookup(3).is_none());
        assert_eq!(c.stats.misses, 2);
        assert_eq!(c.stats.bytes_fetched, 16);
        assert_eq!(c.stats.hits, 0);
    }

    #[test]
    fn pinned_rows_survive_any_traffic() {
        let d = 2;
        let mut c = BoundaryCache::new(3, 2, d, 100);
        let backing: Vec<Vec<f32>> = (0..100).map(|i| row(i as f32, d)).collect();
        c.pin(&[7, 9], |g| &backing[g as usize]);
        assert_eq!(c.stats.bytes_prefetched, 2 * d as u64 * 4);
        // Hammer the single cold slot with a conflict stream.
        for g in 20..60u32 {
            assert!(c.lookup(g).is_none());
            c.admit(g, &backing[g as usize]);
        }
        assert_eq!(c.lookup(7).unwrap(), &backing[7][..]);
        assert_eq!(c.lookup(9).unwrap(), &backing[9][..]);
        // Last-admitted cold row is resident.
        assert_eq!(c.lookup(59).unwrap(), &backing[59][..]);
        assert!(c.stats.evictions > 0);
    }

    #[test]
    fn clock_gives_second_chances() {
        let d = 1;
        let mut c = BoundaryCache::new(2, 0, d, 10);
        c.admit(0, &[0.0]);
        c.admit(1, &[1.0]);
        // Touch node 0 so its reference bit protects it from the next
        // eviction; node 1 is the victim.
        assert!(c.lookup(0).is_some());
        c.admit(2, &[2.0]);
        assert!(c.lookup(0).is_some(), "referenced row was evicted");
        assert!(c.lookup(1).is_none(), "unreferenced row survived");
        assert!(c.lookup(2).is_some());
    }

    #[test]
    fn short_pin_list_releases_slots_to_cold_region() {
        let mut c = BoundaryCache::new(4, 4, 1, 10);
        let backing = [[5.0f32]];
        c.pin(&[0], |_| &backing[0][..]);
        assert_eq!(c.pinned_slots(), 1);
        // The released slots accept cold admissions.
        c.admit(1, &[1.0]);
        c.admit(2, &[2.0]);
        c.admit(3, &[3.0]);
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let mut t = CacheStats::default();
        t.merge(&s);
        assert_eq!(t, s);
    }
}

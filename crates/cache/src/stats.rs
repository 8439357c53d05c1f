//! Hit/miss accounting shared by the simulator's buffer cache.

/// Counters for one cache instance or one reconstruction campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served from cache.
    pub hits: u64,
    /// Accesses that had to go to disk.
    pub misses: u64,
    /// Chunks pushed out to make room.
    pub evictions: u64,
    /// Chunks inserted after a miss.
    pub inserts: u64,
    /// FBF queue demotions (Q3→Q2, Q2→Q1 on re-access); zero for
    /// single-queue policies.
    pub demotions: u64,
    /// Inserts by FBF priority (index 0 = priority 1 … index 2 =
    /// priority 3) — the priority distribution of fetched chunks.
    /// Single-priority policies count everything under priority 1.
    pub prio_inserts: [u64; 3],
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Record a hit.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Record a miss.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Record an insert at FBF `priority` (clamped to 1..=3), with
    /// whether it evicted a resident.
    pub fn record_insert_prio(&mut self, priority: u8, evicted: bool) {
        self.inserts += 1;
        let idx = (priority.clamp(1, 3) - 1) as usize;
        self.prio_inserts[idx] += 1;
        if evicted {
            self.evictions += 1;
        }
    }

    /// Merge another instance's counters into this one (used when SOR
    /// workers keep per-worker stats).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.inserts += other.inserts;
        self.demotions += other.demotions;
        for (mine, theirs) in self.prio_inserts.iter_mut().zip(other.prio_inserts) {
            *mine += theirs;
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} ratio={:.4} evictions={} demotions={}",
            self.hits,
            self.misses,
            self.hit_ratio(),
            self.evictions,
            self.demotions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_basic() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.accesses(), 4);
    }

    #[test]
    fn insert_eviction_accounting() {
        let mut s = CacheStats::default();
        s.record_insert_prio(1, false);
        s.record_insert_prio(1, true);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(
            s.prio_inserts,
            [2, 0, 0],
            "plain inserts count as priority 1"
        );
    }

    #[test]
    fn priority_inserts_split_and_sum_to_inserts() {
        let mut s = CacheStats::default();
        s.record_insert_prio(3, false);
        s.record_insert_prio(3, true);
        s.record_insert_prio(2, false);
        s.record_insert_prio(1, false);
        s.record_insert_prio(0, false); // clamps to 1
        s.record_insert_prio(9, false); // clamps to 3
        assert_eq!(s.prio_inserts, [2, 1, 3]);
        assert_eq!(s.prio_inserts.iter().sum::<u64>(), s.inserts);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn demotions_count_and_merge() {
        let one = CacheStats {
            demotions: 1,
            ..CacheStats::default()
        };
        let mut s = one;
        s.merge(&one);
        assert_eq!(s.demotions, 2);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            inserts: 4,
            demotions: 5,
            prio_inserts: [1, 1, 2],
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            inserts: 40,
            demotions: 50,
            prio_inserts: [10, 10, 20],
        };
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22,
                evictions: 33,
                inserts: 44,
                demotions: 55,
                prio_inserts: [11, 11, 22],
            }
        );
    }
}

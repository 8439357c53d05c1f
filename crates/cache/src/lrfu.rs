//! LRFU replacement (Lee et al. — the paper's reference \[30\]).
//!
//! LRFU spans the spectrum between LRU and LFU with one parameter λ.
//! Every page carries a *Combined Recency and Frequency* (CRF) value
//!
//! ```text
//! C(p) = Σ_i F(t_now - t_i)   with   F(x) = (1/2)^(λ·x)
//! ```
//!
//! maintained incrementally: on each reference
//! `C ← 1 + C · 2^(-λ·(t_now - t_last))`. λ → 0 weighs all history equally
//! (LFU); λ = 1 forgets everything but the last reference (LRU). The
//! eviction victim is the page with minimum CRF *decayed to the current
//! tick*; since decay is monotone in elapsed time, comparing
//! `C · 2^(-λ·(t_now - t_last))` across pages is exact.

use crate::key_map::KeyMap;
use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};

/// Per-page CRF state.
#[derive(Debug, Clone, Copy)]
struct Crf {
    value: f64,
    last: u64,
}

/// The LRFU policy.
#[derive(Debug)]
pub struct LrfuPolicy {
    capacity: usize,
    lambda: f64,
    tick: u64,
    pages: KeyMap<Crf>,
}

impl LrfuPolicy {
    /// LRFU with the commonly used λ = 0.001 (frequency-leaning but
    /// recency-aware).
    pub fn new(capacity: usize) -> Self {
        Self::with_lambda(capacity, 0.001)
    }

    /// LRFU with an explicit λ ∈ [0, 1].
    fn with_lambda(capacity: usize, lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        LrfuPolicy {
            capacity,
            lambda,
            tick: 0,
            pages: KeyMap::default(),
        }
    }

    #[inline]
    fn decay(&self, c: Crf, now: u64) -> f64 {
        c.value * (-self.lambda * (now - c.last) as f64 * std::f64::consts::LN_2).exp()
    }

    fn victim(&self) -> Key {
        let now = self.tick;
        *self
            .pages
            .iter()
            .min_by(|(ka, a), (kb, b)| {
                self.decay(**a, now)
                    .partial_cmp(&self.decay(**b, now))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break by key.
                    .then_with(|| ka.cmp(kb))
            })
            .map(|(k, _)| k)
            .expect("victim() on non-empty cache")
    }
}

impl ReplacementPolicy for LrfuPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lrfu
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.pages.contains_key(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        self.tick += 1;
        let now = self.tick;
        let lambda = self.lambda;
        if let Some(c) = self.pages.get_mut(&key) {
            let decayed =
                c.value * (-lambda * (now - c.last) as f64 * std::f64::consts::LN_2).exp();
            *c = Crf {
                value: 1.0 + decayed,
                last: now,
            };
            true
        } else {
            false
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        if self.pages.contains_key(&key) {
            self.on_access(key);
            return InsertOutcome::AlreadyResident;
        }
        let evicted = if self.pages.len() >= self.capacity {
            let v = self.victim();
            self.pages.remove(&v);
            Some(v)
        } else {
            None
        };
        self.tick += 1;
        self.pages.insert(
            key,
            Crf {
                value: 1.0,
                last: self.tick,
            },
        );
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.tick = 0;
    }

    fn map_ops(&self) -> u64 {
        self.pages.ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.pages.reserve(accesses.min(self.capacity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn high_lambda_behaves_like_lru() {
        let mut c = LrfuPolicy::with_lambda(2, 1.0);
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        c.on_access(key(0, 0, 0)); // most recent
        assert_eq!(c.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
    }

    #[test]
    fn low_lambda_behaves_like_lfu() {
        let mut c = LrfuPolicy::with_lambda(2, 0.0);
        c.on_insert(key(0, 0, 0), 1);
        for _ in 0..5 {
            c.on_access(key(0, 0, 0)); // CRF 6
        }
        c.on_insert(key(0, 0, 1), 1); // CRF 1
        c.on_access(key(0, 0, 1)); // CRF 2 but more recent
                                   // λ=0: pure frequency → evict key 1 despite recency.
        assert_eq!(c.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
    }

    #[test]
    fn crf_accumulates_on_hits() {
        let mut c = LrfuPolicy::with_lambda(4, 0.1);
        c.on_insert(key(0, 0, 0), 1);
        c.on_access(key(0, 0, 0));
        let v = c.pages[&key(0, 0, 0)].value;
        assert!(v > 1.0 && v < 2.0, "decayed accumulation, got {v}");
    }

    #[test]
    fn capacity_respected_and_deterministic() {
        let mut a = LrfuPolicy::new(4);
        let mut b = LrfuPolicy::new(4);
        for i in 0..100 {
            let k = key(0, (i % 7) as usize, (i % 5) as usize);
            for c in [&mut a, &mut b] {
                if !c.on_access(k) {
                    c.on_insert(k, 1);
                }
                assert!(c.len() <= 4);
            }
        }
        let mut ka: Vec<Key> = a.pages.iter().map(|(&k, _)| k).collect();
        let mut kb: Vec<Key> = b.pages.iter().map(|(&k, _)| k).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_rejected() {
        LrfuPolicy::with_lambda(4, 1.5);
    }
}

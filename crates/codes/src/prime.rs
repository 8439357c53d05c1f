//! Prime-number utilities.
//!
//! All four 3DFT codes in this crate are *array codes over a prime `p`*: the
//! stripe has `p - 1` rows and the diagonal/anti-diagonal lines wrap modulo
//! `p`. The constructions only work when `p` is prime, so code builders
//! validate their parameter here.

/// Returns `true` if `n` is a prime number.
///
/// Deterministic trial division — the primes used by the paper are tiny
/// (5, 7, 11, 13), so anything fancier would be noise.
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n < 4 {
        return true;
    }
    if n.is_multiple_of(2) {
        return false;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// The primes the paper evaluates with (§IV uses `P = 5, 7, 11, 13`).
pub const PAPER_PRIMES: [usize; 4] = [5, 7, 11, 13];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognised() {
        let primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
    }

    #[test]
    fn composites_rejected() {
        for n in [0, 1, 4, 6, 8, 9, 10, 12, 15, 21, 25, 27, 33, 35, 49, 51, 91] {
            assert!(!is_prime(n), "{n} should not be prime");
        }
    }

    #[test]
    fn paper_primes_are_prime() {
        for p in PAPER_PRIMES {
            assert!(is_prime(p));
        }
    }
}

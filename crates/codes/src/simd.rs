//! The one CPU probe behind the byte kernels ([`xor`](crate::xor) and
//! [`fill`](crate::fill)).
//!
//! Each kernel module writes its loop once, as portable Rust, and compiles
//! a `#[target_feature]` clone of it for a wider instruction set. Which
//! clone runs is decided here alone: [`detected`] names the widest tier
//! this CPU supports, and a module runs its widest clone at or below the
//! tier it is asked for, clamped to [`detected`], so no caller reaches an
//! instruction the CPU lacks.

/// A kernel tier, ordered weakest to strongest. Each tier's features
/// include every weaker tier's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// The baseline target: SSE2 on `x86_64`, NEON on `aarch64`. Always
    /// available.
    Portable,
    /// AVX2 enabled.
    Avx2,
    /// AVX-512F and AVX-512DQ enabled.
    Avx512,
}

impl Kernel {
    /// Stable lowercase name, recorded in benchmark environment stamps.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// The widest tier the CPU supports (`is_x86_feature_detected!` probes
/// once and caches). Under Miri only [`Kernel::Portable`] runs: runtime
/// feature detection is compiled out there.
pub fn detected() -> Kernel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                return Kernel::Avx512;
            }
            return Kernel::Avx2;
        }
    }
    Kernel::Portable
}

/// Every tier the host supports, weakest first. The differential suites
/// iterate this, so a host with fewer features still runs what it has.
pub fn supported() -> Vec<Kernel> {
    let best = detected();
    [Kernel::Portable, Kernel::Avx2, Kernel::Avx512]
        .into_iter()
        .filter(|&k| k <= best)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_runs_from_portable_to_detected() {
        let tiers = supported();
        assert_eq!(tiers.first(), Some(&Kernel::Portable));
        assert_eq!(tiers.last(), Some(&detected()));
    }
}

//! Background application I/O during reconstruction.
//!
//! The paper motivates holding favorable blocks partly because "the
//! application can access these chunks during partial stripe
//! reconstruction" (§III-A-1). This generator produces a foreground read
//! stream — uniform or hot-spotted — that the online-recovery experiments
//! run alongside the reconstruction workers.

use crate::rng::SeededRng;
use fbf_codes::{Cell, ChunkId, StripeCode};
use fbf_disksim::{Op, RequestClass, SimTime, WorkerScript};

/// Configuration of the application read stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppIoConfig {
    /// Stripes in the array's data zone.
    pub stripes: u32,
    /// Number of chunk reads to issue.
    pub reads: usize,
    /// Fraction of reads targeting the hot set (0 = uniform).
    pub hot_fraction: f64,
    /// Size of the hot set as a fraction of all stripes.
    pub hot_set: f64,
    /// Think time between consecutive reads.
    pub think_time: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AppIoConfig {
    fn default() -> Self {
        AppIoConfig {
            stripes: 1024,
            reads: 1000,
            hot_fraction: 0.8,
            hot_set: 0.2,
            think_time: SimTime::from_millis(1),
            seed: 0,
        }
    }
}

/// Generate one application worker's read script. Reads target data cells
/// only (applications never address parity).
pub fn generate_app_reads(code: &StripeCode, cfg: &AppIoConfig) -> WorkerScript {
    let mut rng = SeededRng::new(cfg.seed ^ 0xA99_C0FFEE);
    let data_cells: Vec<Cell> = code.data_cells();
    assert!(!data_cells.is_empty());
    let hot_stripes = ((cfg.stripes as f64 * cfg.hot_set) as u32).max(1);

    let mut ops = Vec::with_capacity(cfg.reads * 2);
    for _ in 0..cfg.reads {
        let stripe = if rng.bool(cfg.hot_fraction) {
            rng.below(u64::from(hot_stripes)) as u32
        } else {
            rng.below(u64::from(cfg.stripes)) as u32
        };
        let cell = data_cells[rng.below(data_cells.len() as u64) as usize];
        ops.push(Op::Read {
            chunk: ChunkId::new(stripe, cell),
            priority: 1,
        });
        if cfg.think_time > SimTime::ZERO {
            ops.push(Op::Compute {
                duration: cfg.think_time,
            });
        }
    }
    WorkerScript {
        ops,
        class: RequestClass::App,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::CodeSpec;

    fn code() -> StripeCode {
        StripeCode::build(CodeSpec::Tip, 7).unwrap()
    }

    #[test]
    fn produces_requested_reads() {
        let cfg = AppIoConfig {
            reads: 100,
            ..Default::default()
        };
        let s = generate_app_reads(&code(), &cfg);
        assert_eq!(s.reads(), 100);
    }

    #[test]
    fn reads_target_data_cells_only() {
        let c = code();
        let cfg = AppIoConfig {
            reads: 500,
            ..Default::default()
        };
        let s = generate_app_reads(&c, &cfg);
        for op in &s.ops {
            if let Op::Read { chunk, .. } = op {
                assert!(c.layout().kind(chunk.cell).is_data(), "{chunk}");
                assert!(chunk.stripe < cfg.stripes);
            }
        }
    }

    #[test]
    fn hot_spotting_concentrates_traffic() {
        let c = code();
        let hot = AppIoConfig {
            reads: 2000,
            hot_fraction: 0.9,
            hot_set: 0.1,
            seed: 5,
            ..Default::default()
        };
        let s = generate_app_reads(&c, &hot);
        let hot_stripes = (hot.stripes as f64 * hot.hot_set) as u32;
        let in_hot = s
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Read { chunk, .. } if chunk.stripe < hot_stripes))
            .count();
        assert!(
            in_hot as f64 > 0.8 * s.reads() as f64,
            "hot set captured only {in_hot} of {}",
            s.reads()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let c = code();
        let cfg = AppIoConfig {
            reads: 50,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(generate_app_reads(&c, &cfg), generate_app_reads(&c, &cfg));
    }

    #[test]
    fn zero_think_time_emits_reads_only() {
        let c = code();
        let cfg = AppIoConfig {
            reads: 10,
            think_time: SimTime::ZERO,
            ..Default::default()
        };
        let s = generate_app_reads(&c, &cfg);
        assert_eq!(s.ops.len(), 10);
    }

    #[test]
    fn app_stream_is_classed_app() {
        let s = generate_app_reads(&code(), &AppIoConfig::default());
        assert_eq!(s.class, RequestClass::App);
    }
}

//! `dataplane_file` — the byte-moving path: `run_planned_on` against
//! `FileBackend` arrays formatted **and flushed** in set-up. Passes re-run
//! the repair on the same files: same reads, spare writes overwrite.
//!
//! Flush policy: `sync_all` per disk file at the end of every op, as
//! shipped. Reads come from the page cache, so the numbers are this
//! sandbox's, not a device's.

use super::{ensure, Baseline, Ctx, Pass, Workload};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::codes::encode::encode;
use fbf::codes::xor::xor_many;
use fbf::core::PlannedCampaign;
use fbf::disksim::FaultDraw;
use fbf::{
    file_backend_for, run_planned, run_planned_on, sim_backend_for, ArrayMapping, BackendDiskStats,
    BackendError, ChunkId, ExperimentConfig, FaultPlan, FileBackend, Metrics, PlanSource,
    StorageBackend, Stripe, StripeCode,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const CAMPAIGNS: usize = 4;

struct Array {
    cfg: ExperimentConfig,
    plan: PlannedCampaign,
    dir: PathBuf,
    backend: FileBackend,
    /// The engine's verdict on the same config (computed in warm-up).
    engine: Option<Metrics>,
}

/// State of the `dataplane_file` workload.
pub struct DataplaneFile {
    arrays: Vec<Array>,
}

fn campaign(ctx: &Ctx, index: usize) -> Result<ExperimentConfig, String> {
    ExperimentConfig::builder()
        .stripes(ctx.scaled(256, 64) as u32)
        .error_count(ctx.scaled(32, 8))
        .workers(16)
        .chunk_kb(32)
        .cache_mb(4)
        .decode_batch(8)
        .seed(ctx.derive("dataplane_file.campaign", index))
        .gen_threads(1)
        .build()
        .map_err(|e| e.to_string())
}

/// Format one array and flush it: the first op after an unflushed format
/// would otherwise pay the format's write-back inside its own fsync.
fn format_flushed(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    dir: &Path,
) -> Result<FileBackend, String> {
    let mut backend = file_backend_for(cfg, plan, dir).map_err(|e| e.to_string())?;
    backend.flush().map_err(|e| e.to_string())?;
    Ok(backend)
}

fn damaged_chunks(plan: &PlannedCampaign) -> Vec<ChunkId> {
    plan.errors
        .damage_by_stripe()
        .iter()
        .flat_map(|d| d.cells.iter().map(|&c| ChunkId::new(d.stripe, c)))
        .collect()
}

fn check(array: &Array, m: &Metrics) -> Result<(), String> {
    let lost = array.plan.chunks_lost;
    ensure(m.chunks_recovered == lost, || {
        format!("recovered {} of {lost} chunks", m.chunks_recovered)
    })?;
    ensure(m.disk_writes as usize == lost, || {
        format!("{} spare writes for {lost} chunks", m.disk_writes)
    })?;
    let engine = array.engine.as_ref().expect("warm-up ran the engine");
    ensure(
        m.disk_reads == engine.disk_reads && m.hit_ratio == engine.hit_ratio,
        || {
            format!(
                "data plane read {} chunks (hit ratio {}), the engine {} ({})",
                m.disk_reads, m.hit_ratio, engine.disk_reads, engine.hit_ratio
            )
        },
    )
}

impl Workload for DataplaneFile {
    /// 4 repairs ≈ 30 ms a pass.
    const PASSES: usize = 300;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let arrays = (0..CAMPAIGNS)
            .map(|i| {
                let cfg = campaign(ctx, i)?;
                let plan = PlannedCampaign::cold(&cfg).map_err(|e| e.to_string())?;
                let dir = ctx.work_dir().join(format!("array-{i}"));
                let backend = format_flushed(&cfg, &plan, &dir)?;
                Ok(Array {
                    cfg,
                    plan,
                    dir,
                    backend,
                    engine: None,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(DataplaneFile { arrays })
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        for array in &mut self.arrays {
            if pass.warmup {
                array.engine = Some(run_planned(&array.cfg, &array.plan, PlanSource::Cold));
            }
            let m = pass
                .time(|| {
                    run_planned_on(
                        &array.cfg,
                        &array.plan,
                        PlanSource::Cold,
                        &mut array.backend,
                    )
                })
                .map_err(|e| e.to_string())?;
            pass.check(m.chunks_recovered as u64, check(array, &m));
            // Counts are the data plane's own; virtual time only exists in
            // the engine, whose reads and hits the check just matched.
            let engine = array.engine.as_ref().expect("warm-up ran the engine");
            pass.sim.add_metrics(&Metrics {
                avg_response_ms: engine.avg_response_ms,
                reconstruction_s: engine.reconstruction_s,
                queue_depth_max: 0,
                read_balance: 0.0,
                ..m
            });
        }
        Ok(())
    }

    /// Reopen every array from its files alone and compare each repaired
    /// chunk, byte for byte, with the pristine encode of its seeded stripe.
    fn verify(&mut self) -> Result<(u64, u64), String> {
        let (mut checked, mut wrong) = (0u64, 0u64);
        for array in &self.arrays {
            let cfg = &array.cfg;
            let chunk_bytes = cfg.chunk_bytes() as usize;
            let code = StripeCode::build(cfg.code, cfg.p).map_err(|e| e.to_string())?;
            let mut reopened = FileBackend::open(
                &array.dir,
                &code,
                chunk_bytes,
                u64::from(cfg.stripes),
                &damaged_chunks(&array.plan),
            )
            .map_err(|e| e.to_string())?;
            let mut buf = vec![0u8; chunk_bytes];
            for damage in array.plan.errors.damage_by_stripe() {
                let mut pristine =
                    Stripe::patterned_seeded(code.layout(), chunk_bytes, u64::from(damage.stripe));
                encode(&code, &mut pristine).map_err(|e| e.to_string())?;
                for &cell in &damage.cells {
                    reopened
                        .read_chunk(ChunkId::new(damage.stripe, cell), &mut buf)
                        .map_err(|e| e.to_string())?;
                    checked += 1;
                    if buf[..] != pristine.get(code.layout(), cell)[..] {
                        if wrong == 0 {
                            eprintln!(
                                "output check failed: stripe {} cell {cell:?} differs from its pristine encode",
                                damage.stripe
                            );
                        }
                        wrong += 1;
                    }
                }
            }
        }
        Ok((checked, wrong))
    }

    fn trace(
        &mut self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        _baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (mut read_ms, mut write_ms, mut flush_ms, mut xor_ms) =
            (vec![], vec![], vec![], vec![]);
        let (mut bytes_read, mut bytes_moved, mut xor_bytes) = (0u64, 0u64, 0u64);
        let mut read_total = Duration::ZERO;
        for array in &mut self.arrays {
            let op = tracer.open_op();
            let span = tracer.open("core.dataplane");
            let mut timed = Timed::new(&mut array.backend);
            let m = run_planned_on(&array.cfg, &array.plan, PlanSource::Cold, &mut timed)
                .map_err(|e| e.to_string())?;
            tracer.close(span);
            tracer.close(op);
            let t = timed.totals;
            tracer.aggregate(span, "disksim.backend_read", t.reads, t.read);
            tracer.aggregate(span, "disksim.backend_write", t.writes, t.write);
            tracer.aggregate(span, "disksim.backend_flush", t.flushes, t.flush);
            read_ms.push(ms(t.read));
            write_ms.push(ms(t.write));
            flush_ms.push(ms(t.flush));
            read_total += t.read;
            bytes_read += t.bytes_read;
            bytes_moved += t.bytes_read + t.bytes_written;
            check(array, &m)?;

            // The XOR work of the op, replayed on same-size buffers: one
            // xor_many per repair with that repair's source count.
            let chunk_bytes = array.cfg.chunk_bytes() as usize;
            let repairs: Vec<usize> = array
                .plan
                .schemes
                .iter()
                .flat_map(|s| s.repairs.iter().map(|r| r.option.reads.len()))
                .collect();
            let widest = repairs.iter().copied().max().unwrap_or(0);
            let sources: Vec<Vec<u8>> = (0..widest)
                .map(|i| vec![i as u8 ^ 0x5a; chunk_bytes])
                .collect();
            let refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
            let mut acc = vec![0u8; chunk_bytes];
            let span = tracer.open_replay(span, "codes.xor");
            for &n in &repairs {
                xor_many(&mut acc, &refs[..n]);
                std::hint::black_box(&mut acc);
            }
            xor_ms.push(ms(tracer.close(span)));
            xor_bytes += (repairs.iter().sum::<usize>() * chunk_bytes) as u64;
        }
        layers.set("disksim.backend_read_ms", median(&read_ms));
        layers.set("disksim.backend_write_ms", median(&write_ms));
        layers.set("disksim.backend_flush_ms", median(&flush_ms));
        layers.set(
            "disksim.backend_read_mb_per_s",
            bytes_read as f64 / (1u64 << 20) as f64 / read_total.as_secs_f64().max(1e-9),
        );
        layers.set("disksim.backend_bytes", bytes_moved as f64);
        layers.set("codes.xor_ms", median(&xor_ms));
        layers.set("codes.xor_bytes", xor_bytes as f64);
        layers.set(
            "core.dataplane_ms",
            median(&tracer.durations_ms("core.dataplane")),
        );
        layers.set(
            "core.dataplane_self_ms",
            median(&tracer.self_ms("core.dataplane")),
        );

        // What set-up is made of.
        let probe = ctx.work_dir().join("format-probe");
        let t = Instant::now();
        for array in &self.arrays {
            format_flushed(&array.cfg, &array.plan, &probe)?;
        }
        layers.set("disksim.backend_format_s", t.elapsed().as_secs_f64());

        let array = &self.arrays[0];
        let chunk_bytes = array.cfg.chunk_bytes() as usize;
        let code = StripeCode::build(array.cfg.code, array.cfg.p).map_err(|e| e.to_string())?;
        let damage = array.plan.errors.damage_by_stripe();
        let mut encode_ms = Vec::with_capacity(damage.len());
        for d in &damage {
            let mut stripe =
                Stripe::patterned_seeded(code.layout(), chunk_bytes, u64::from(d.stripe));
            let t = Instant::now();
            encode(&code, &mut stripe).map_err(|e| e.to_string())?;
            encode_ms.push(ms(t.elapsed()));
        }
        layers.set("codes.encode_ms_per_stripe", median(&encode_ms));

        // SimBackend fills and encodes a stripe inside its first read.
        let mut sim = sim_backend_for(&array.cfg, &array.plan).map_err(|e| e.to_string())?;
        let mut buf = vec![0u8; chunk_bytes];
        let mut first_read_ms = Vec::with_capacity(array.plan.schemes.len());
        for scheme in &array.plan.schemes {
            let Some(&cell) = scheme.repairs.first().and_then(|r| r.option.reads.first()) else {
                continue;
            };
            let t = Instant::now();
            sim.read_chunk(ChunkId::new(scheme.stripe, cell), &mut buf)
                .map_err(|e| e.to_string())?;
            first_read_ms.push(ms(t.elapsed()));
        }
        layers.set("disksim.simbackend_materialize_ms", median(&first_read_ms));
        Ok(())
    }
}

/// Time and calls a [`Timed`] backend summed.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    reads: u64,
    read: Duration,
    bytes_read: u64,
    writes: u64,
    write: Duration,
    bytes_written: u64,
    flushes: u64,
    flush: Duration,
}

/// A storage backend that times the three calls that touch the medium and
/// forwards everything else, so the executor behaves exactly as without it.
struct Timed<'a, B: StorageBackend> {
    inner: &'a mut B,
    totals: Totals,
}

impl<'a, B: StorageBackend> Timed<'a, B> {
    fn new(inner: &'a mut B) -> Self {
        Timed {
            inner,
            totals: Totals::default(),
        }
    }
}

impl<B: StorageBackend> StorageBackend for Timed<'_, B> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn mapping(&self) -> ArrayMapping {
        self.inner.mapping()
    }
    fn chunk_bytes(&self) -> usize {
        self.inner.chunk_bytes()
    }
    fn data_stripes(&self) -> u64 {
        self.inner.data_stripes()
    }
    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }
    fn is_repaired(&self, chunk: ChunkId) -> bool {
        self.inner.is_repaired(chunk)
    }
    fn classify_read(&self, chunk: ChunkId) -> FaultDraw {
        self.inner.classify_read(chunk)
    }
    fn disk_dead(&self, disk: usize) -> bool {
        self.inner.disk_dead(disk)
    }
    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        let t = Instant::now();
        let out = self.inner.read_chunk(chunk, buf);
        self.totals.read += t.elapsed();
        self.totals.reads += 1;
        self.totals.bytes_read += buf.len() as u64;
        out
    }
    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError> {
        let t = Instant::now();
        let out = self.inner.write_spare(chunk, data);
        self.totals.write += t.elapsed();
        self.totals.writes += 1;
        self.totals.bytes_written += data.len() as u64;
        out
    }
    fn xor_gather(&mut self, chunks: &[ChunkId], acc: &mut [u8]) -> Result<(), BackendError> {
        self.inner.xor_gather(chunks, acc)
    }
    fn disk_stats(&self) -> &[BackendDiskStats] {
        self.inner.disk_stats()
    }
    fn flush(&mut self) -> Result<(), BackendError> {
        let t = Instant::now();
        let out = self.inner.flush();
        self.totals.flush += t.elapsed();
        self.totals.flushes += 1;
        out
    }
}

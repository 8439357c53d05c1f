//! Pluggable storage backends: the seam between planned recovery and the
//! medium it runs against.
//!
//! The engine ([`crate::engine`]) moves chunk *identities* on a virtual
//! clock; this module defines [`StorageBackend`] — chunk-granular read and
//! spare-write operations plus per-disk counters — so that the same
//! engine run, through a [`ByteHook`](crate::engine::ByteHook), can also
//! move real payload bytes:
//!
//! * [`SimBackend`] holds no stripes: it derives each chunk it serves
//!   from the stripe id, the seeded generator's data cells
//!   ([`fill_data_cell`]) XORed over the cell's data support
//!   ([`StripeCode::data_support`]) — the encode of
//!   `Stripe::patterned_seeded`, one chunk at a time.
//! * [`FileBackend`] performs actual file I/O against one backing file
//!   per disk, laid out by [`ArrayMapping`] (chunk LBA × chunk size, the
//!   spare area past the data zone); `format` writes the same content,
//!   a whole stripe at a time.
//!
//! No other module of the data plane calls the generator:
//! `verify_backend` checks a repaired stripe by the code's chain
//! equations, not against it.
//!
//! # Contract (see DESIGN.md §12)
//!
//! * **Addressing.** A chunk's home location is
//!   `(mapping.disk_of(chunk), mapping.lba_of(chunk))`; its spare
//!   location is `mapping.spare_lba_of(chunk, data_stripes)` on the same
//!   disk. Implementations must not invent their own placement.
//! * **Spare redirect.** After `write_spare(chunk, data)` succeeds, every
//!   later `read_chunk(chunk)` must return `data` (the recovered copy).
//!   This mirrors the engine's `repaired` set.
//! * **Damaged cells.** Reading a chunk that is marked damaged and has
//!   not been repaired is a caller bug and must fail with
//!   [`BackendError::DamagedRead`], never return stale or zero bytes.
//! * **The array's bounds.** A chunk outside the array — its stripe past
//!   `data_stripes`, its row or column past the mapping's — is refused
//!   with [`BackendError::OutOfArray`] by `read_chunk` and `write_spare`
//!   alike, never served from or written to another chunk's place.
//! * **Faults are the engine's.** The data plane runs on the engine, which
//!   draws every fault from its own [`FaultPlan`] on its virtual clock; a
//!   backend only stores bytes and holds no fault plan. `fault_plan`,
//!   `classify_read`, `disk_dead` and `xor_gather` are called by no
//!   executor.
//! * **Ordering.** Callers issue the reads of one repair before its
//!   spare write, and repairs of one stripe in scheme order; backends may
//!   not reorder a read past the write that precedes it in program order.

use crate::array::ArrayMapping;
use crate::fault::{FaultDraw, FaultPlan};
use crate::time::SimTime;
use fbf_cache::{FxHashMap, FxHashSet};
use fbf_codes::encode::encode;
use fbf_codes::stripe::fill_data_cell;
use fbf_codes::xor::xor_into;
use fbf_codes::{ChunkId, Stripe, StripeCode};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Why a backend operation failed.
#[derive(Debug)]
pub enum BackendError {
    /// An I/O operation against a disk's backing store failed.
    Io {
        /// Disk index the operation targeted.
        disk: usize,
        /// Operation name ("read", "write", "create", …).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A damaged (erased) chunk was read before being repaired — a
    /// planner/executor bug, surfaced instead of returning garbage.
    DamagedRead(ChunkId),
    /// A chunk the array does not have: its stripe, row or column is past
    /// the array's.
    OutOfArray(ChunkId),
    /// The caller's buffer does not match the backend's chunk size.
    SizeMismatch {
        /// Backend chunk size in bytes.
        expected: usize,
        /// Caller buffer length.
        got: usize,
    },
    /// The backend's geometry does not match the campaign it was asked
    /// to execute.
    Geometry {
        /// What the campaign requires (disks, rows).
        expected: (usize, usize),
        /// What the backend has.
        got: (usize, usize),
    },
    /// A backing file is not the size the geometry it was opened with
    /// implies — it was formatted with another chunk size or stripe
    /// count, and every offset computed from this one would be wrong.
    FileLength {
        /// Disk index of the file.
        disk: usize,
        /// Bytes the geometry implies.
        expected: u64,
        /// Bytes the file holds.
        got: u64,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Io { disk, op, source } => {
                write!(f, "disk {disk}: {op} failed: {source}")
            }
            BackendError::DamagedRead(chunk) => write!(
                f,
                "read of damaged, unrepaired chunk (stripe {}, r{} c{})",
                chunk.stripe,
                chunk.cell.r(),
                chunk.cell.c()
            ),
            BackendError::OutOfArray(chunk) => write!(
                f,
                "chunk (stripe {}, r{} c{}) is outside the array",
                chunk.stripe,
                chunk.cell.r(),
                chunk.cell.c()
            ),
            BackendError::SizeMismatch { expected, got } => {
                write!(
                    f,
                    "chunk buffer of {got} B, backend chunk size {expected} B"
                )
            }
            BackendError::Geometry { expected, got } => write!(
                f,
                "backend geometry {}x{} does not match campaign {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            BackendError::FileLength {
                disk,
                expected,
                got,
            } => write!(
                f,
                "disk {disk}: backing file holds {got} B, this geometry needs {expected} B"
            ),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-disk I/O counters of a backend (host-side, no virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendDiskStats {
    /// Chunk reads served (data zone + spare area).
    pub reads: u64,
    /// Spare-area chunk writes served.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Durability barriers issued against the disk's backing store.
    pub syncs: u64,
}

/// Chunk-granular storage under a recovery campaign.
///
/// Implementations are single-threaded (`&mut self` per operation); a
/// daemon shards campaigns so each backend instance is owned by one
/// worker. See the module docs for the full contract.
pub trait StorageBackend: Send {
    /// Short implementation name ("sim", "file") for reports and logs.
    fn kind(&self) -> &'static str;

    /// The chunk→(disk, LBA) mapping this backend lays data out by.
    fn mapping(&self) -> ArrayMapping;

    /// Chunk payload size in bytes.
    fn chunk_bytes(&self) -> usize;

    /// Stripes in the data zone (the spare area begins after it).
    fn data_stripes(&self) -> u64;

    /// The backend's fault plan: none, for every backend here. No
    /// executor reads it: the engine draws faults from its own plan (see
    /// the module docs).
    fn fault_plan(&self) -> &FaultPlan {
        static NONE: FaultPlan = FaultPlan::none();
        &NONE
    }

    /// Has `chunk` been rewritten to the spare area?
    fn is_repaired(&self, chunk: ChunkId) -> bool;

    /// Classify a prospective read of `chunk` under
    /// [`fault_plan`](Self::fault_plan). Spare-redirected chunks always
    /// classify `Ok` (their bytes left the faulty location).
    fn classify_read(&self, chunk: ChunkId) -> FaultDraw {
        if self.is_repaired(chunk) {
            FaultDraw::Ok
        } else {
            self.fault_plan().draw(chunk)
        }
    }

    /// Is `disk` dead for the whole run under
    /// [`fault_plan`](Self::fault_plan)? Only a kill scheduled at time
    /// zero counts.
    fn disk_dead(&self, disk: usize) -> bool {
        matches!(
            self.fault_plan().disk_kill,
            Some(kill) if kill.disk as usize == disk && kill.at == SimTime::ZERO
        )
    }

    /// Read `chunk`'s payload into `buf` (`buf.len()` must equal
    /// [`chunk_bytes`](Self::chunk_bytes)). Serves the spare copy when
    /// the chunk has been repaired; refuses a chunk outside the array.
    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError>;

    /// Write a recovered chunk to its spare location and register the
    /// redirect for later reads; refuses a chunk outside the array.
    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError>;

    /// Read every chunk in `chunks` and XOR the payloads into `acc`: the
    /// default loops [`read_chunk`](Self::read_chunk). No executor calls
    /// it; the engine's byte hook reads chunk by chunk.
    fn xor_gather(&mut self, chunks: &[ChunkId], acc: &mut [u8]) -> Result<(), BackendError> {
        let mut tmp = vec![0u8; acc.len()];
        for &chunk in chunks {
            self.read_chunk(chunk, &mut tmp)?;
            xor_into(acc, &tmp);
        }
        Ok(())
    }

    /// Per-disk I/O counters accumulated over the backend's lifetime.
    fn disk_stats(&self) -> &[BackendDiskStats];

    /// Durably persist outstanding writes (no-op for volatile backends).
    fn flush(&mut self) -> Result<(), BackendError> {
        Ok(())
    }
}

/// Refuse a chunk outside an array of `mapping`'s stripes with
/// `data_stripes` stripes.
fn in_array(mapping: &ArrayMapping, data_stripes: u64, chunk: ChunkId) -> Result<(), BackendError> {
    let (r, c) = (chunk.cell.r(), chunk.cell.c());
    match u64::from(chunk.stripe) < data_stripes && r < mapping.rows && c < mapping.cols {
        true => Ok(()),
        false => Err(BackendError::OutOfArray(chunk)),
    }
}

/// Fill and encode stripe `stripe` of the array into `out`, reusing every
/// chunk buffer no clone of it shares: [`FileBackend::format`]'s content.
fn materialize_into(code: &StripeCode, stripe: u32, out: &mut Stripe) {
    out.refill_seeded(code.layout(), u64::from(stripe));
    encode(code, out).expect("encode of a well-formed stripe cannot fail");
}

/// In-memory backend that derives the array's content on read.
///
/// A chunk's pristine bytes are a function of its stripe id and cell: the
/// XOR of its data support's seeded fills, written straight into the
/// caller's buffer (a data cell is one fill; a parity cell fills its first
/// support cell there and XORs each other one in through one chunk-sized
/// scratch buffer). Damaged cells are erased and spare writes are held in
/// a map, so the backend's memory is the spare copies, whatever it reads.
pub struct SimBackend {
    code: StripeCode,
    mapping: ArrayMapping,
    chunk_bytes: usize,
    data_stripes: u64,
    damaged: FxHashSet<ChunkId>,
    spare: FxHashMap<ChunkId, Vec<u8>>,
    stats: Vec<BackendDiskStats>,
    scratch: Vec<u8>,
}

impl SimBackend {
    /// Backend over `code`'s geometry with the given damage set.
    pub fn new(
        code: StripeCode,
        chunk_bytes: usize,
        data_stripes: u64,
        damaged: impl IntoIterator<Item = ChunkId>,
    ) -> Self {
        let mapping = ArrayMapping::new(code.cols(), code.rows(), code.spec().rotated_placement());
        let disks = mapping.disks;
        SimBackend {
            code,
            mapping,
            chunk_bytes,
            data_stripes,
            damaged: damaged.into_iter().collect(),
            spare: FxHashMap::default(),
            stats: vec![BackendDiskStats::default(); disks],
            scratch: vec![0; chunk_bytes],
        }
    }
}

impl StorageBackend for SimBackend {
    fn kind(&self) -> &'static str {
        "sim"
    }

    fn mapping(&self) -> ArrayMapping {
        self.mapping.clone()
    }

    fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    fn data_stripes(&self) -> u64 {
        self.data_stripes
    }

    fn is_repaired(&self, chunk: ChunkId) -> bool {
        self.spare.contains_key(&chunk)
    }

    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        if buf.len() != self.chunk_bytes {
            return Err(BackendError::SizeMismatch {
                expected: self.chunk_bytes,
                got: buf.len(),
            });
        }
        in_array(&self.mapping, self.data_stripes, chunk)?;
        let disk = self.mapping.disk_of(chunk);
        if let Some(spare) = self.spare.get(&chunk) {
            buf.copy_from_slice(spare);
        } else {
            if self.damaged.contains(&chunk) {
                return Err(BackendError::DamagedRead(chunk));
            }
            let seed = u64::from(chunk.stripe);
            let support = self.code.data_support(chunk.cell);
            let (&first, rest) = support
                .split_first()
                .expect("every cell has a data support");
            fill_data_cell(buf, seed, first);
            for &cell in rest {
                fill_data_cell(&mut self.scratch, seed, cell);
                xor_into(buf, &self.scratch);
            }
        }
        self.stats[disk].reads += 1;
        self.stats[disk].bytes_read += buf.len() as u64;
        Ok(())
    }

    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError> {
        if data.len() != self.chunk_bytes {
            return Err(BackendError::SizeMismatch {
                expected: self.chunk_bytes,
                got: data.len(),
            });
        }
        in_array(&self.mapping, self.data_stripes, chunk)?;
        let disk = self.mapping.disk_of(chunk);
        self.spare.insert(chunk, data.to_vec());
        self.stats[disk].writes += 1;
        self.stats[disk].bytes_written += data.len() as u64;
        Ok(())
    }

    fn disk_stats(&self) -> &[BackendDiskStats] {
        &self.stats
    }
}

/// File-backed storage: one backing file per disk, chunk-addressed.
///
/// The file holds the data zone (`data_stripes × rows` chunks) followed
/// by an equally sized spare area, matching
/// [`ArrayMapping::spare_lba_of`]. [`FileBackend::format`] materialises
/// only the stripes a campaign touches; the rest stays sparse.
///
/// Chunk I/O is positional (one `pread`/`pwrite` per chunk). Every write
/// path marks its file dirty, and [`flush`](StorageBackend::flush) waits
/// for exactly the dirty files.
pub struct FileBackend {
    dir: PathBuf,
    files: Vec<File>,
    /// Per disk: written since its last successful `sync_all`.
    dirty: Vec<bool>,
    mapping: ArrayMapping,
    chunk_bytes: usize,
    data_stripes: u64,
    damaged: FxHashSet<ChunkId>,
    repaired: FxHashSet<ChunkId>,
    stats: Vec<BackendDiskStats>,
}

impl FileBackend {
    /// Create (truncating) per-disk backing files under `dir` for
    /// `code`'s geometry, writing the encoded payloads of `stripes`
    /// (seeded by stripe id) and leaving `damaged` cells unwritten.
    pub fn format(
        dir: &Path,
        code: &StripeCode,
        chunk_bytes: usize,
        data_stripes: u64,
        stripes: &[u32],
        damaged: &[ChunkId],
    ) -> Result<Self, BackendError> {
        let mapping = ArrayMapping::new(code.cols(), code.rows(), code.spec().rotated_placement());
        std::fs::create_dir_all(dir).map_err(|source| BackendError::Io {
            disk: 0,
            op: "create-dir",
            source,
        })?;
        let file_len = file_len(&mapping, chunk_bytes, data_stripes);
        let mut files = Vec::with_capacity(mapping.disks);
        for disk in 0..mapping.disks {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(disk_path(dir, disk))
                .map_err(|source| BackendError::Io {
                    disk,
                    op: "create",
                    source,
                })?;
            file.set_len(file_len).map_err(|source| BackendError::Io {
                disk,
                op: "set-len",
                source,
            })?;
            files.push(file);
        }
        let damaged: FxHashSet<ChunkId> = damaged.iter().copied().collect();
        let mut backend = FileBackend {
            dir: dir.to_path_buf(),
            files,
            dirty: vec![false; mapping.disks],
            stats: vec![BackendDiskStats::default(); mapping.disks],
            mapping,
            chunk_bytes,
            data_stripes,
            damaged,
            repaired: FxHashSet::default(),
        };
        let mut stripe = Stripe::zeroed(code.layout(), chunk_bytes);
        for &s in stripes {
            materialize_into(code, s, &mut stripe);
            for r in 0..code.rows() {
                for c in 0..code.cols() {
                    let cell = fbf_codes::Cell::new(r, c);
                    let chunk = ChunkId::new(s, cell);
                    if backend.damaged.contains(&chunk) {
                        continue; // lost cells hold no data
                    }
                    let disk = backend.mapping.disk_of(chunk);
                    let offset = backend.mapping.lba_of(chunk) * chunk_bytes as u64;
                    backend.write_at(disk, offset, stripe.get(code.layout(), cell))?;
                }
            }
        }
        Ok(backend)
    }

    /// Reopen an array previously created by [`format`](Self::format).
    ///
    /// `repaired` lists the chunks whose authoritative copy lives in
    /// the spare area — typically the damage set of the campaign that
    /// ran against this array. Reads of those chunks come back from
    /// spare; everything else reads the data zone. Geometry is taken
    /// from `code` and must match what the array was formatted with: a
    /// file whose length is not what `code`, `chunk_bytes` and
    /// `data_stripes` imply is refused with
    /// [`BackendError::FileLength`], because every chunk offset — and
    /// where the spare zone starts — would be computed wrong.
    pub fn open(
        dir: &Path,
        code: &StripeCode,
        chunk_bytes: usize,
        data_stripes: u64,
        repaired: &[ChunkId],
    ) -> Result<Self, BackendError> {
        let mapping = ArrayMapping::new(code.cols(), code.rows(), code.spec().rotated_placement());
        let expected = file_len(&mapping, chunk_bytes, data_stripes);
        let mut files = Vec::with_capacity(mapping.disks);
        for disk in 0..mapping.disks {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(disk_path(dir, disk))
                .map_err(|source| BackendError::Io {
                    disk,
                    op: "open",
                    source,
                })?;
            let got = file
                .metadata()
                .map_err(|source| BackendError::Io {
                    disk,
                    op: "stat",
                    source,
                })?
                .len();
            if got != expected {
                return Err(BackendError::FileLength {
                    disk,
                    expected,
                    got,
                });
            }
            files.push(file);
        }
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            files,
            dirty: vec![false; mapping.disks],
            stats: vec![BackendDiskStats::default(); mapping.disks],
            mapping,
            chunk_bytes,
            data_stripes,
            damaged: FxHashSet::default(),
            repaired: repaired.iter().copied().collect(),
        })
    }

    /// Directory holding the backing files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The one write path: `data` at `offset` of `disk`'s file, which is
    /// dirty from here on (a write that fails part-way has still written).
    fn write_at(&mut self, disk: usize, offset: u64, data: &[u8]) -> Result<(), BackendError> {
        self.dirty[disk] = true;
        self.files[disk]
            .write_all_at(data, offset)
            .map_err(|source| BackendError::Io {
                disk,
                op: "write",
                source,
            })
    }
}

/// Length of each per-disk file: the data zone plus an equal spare zone.
fn file_len(mapping: &ArrayMapping, chunk_bytes: usize, data_stripes: u64) -> u64 {
    2 * data_stripes * mapping.rows as u64 * chunk_bytes as u64
}

fn disk_path(dir: &Path, disk: usize) -> PathBuf {
    dir.join(format!("disk-{disk:03}.dat"))
}

impl StorageBackend for FileBackend {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn mapping(&self) -> ArrayMapping {
        self.mapping.clone()
    }

    fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    fn data_stripes(&self) -> u64 {
        self.data_stripes
    }

    fn is_repaired(&self, chunk: ChunkId) -> bool {
        self.repaired.contains(&chunk)
    }

    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        if buf.len() != self.chunk_bytes {
            return Err(BackendError::SizeMismatch {
                expected: self.chunk_bytes,
                got: buf.len(),
            });
        }
        in_array(&self.mapping, self.data_stripes, chunk)?;
        let disk = self.mapping.disk_of(chunk);
        let offset = if self.repaired.contains(&chunk) {
            self.mapping.spare_lba_of(chunk, self.data_stripes) * self.chunk_bytes as u64
        } else {
            if self.damaged.contains(&chunk) {
                return Err(BackendError::DamagedRead(chunk));
            }
            self.mapping.lba_of(chunk) * self.chunk_bytes as u64
        };
        self.files[disk]
            .read_exact_at(buf, offset)
            .map_err(|source| BackendError::Io {
                disk,
                op: "read",
                source,
            })?;
        self.stats[disk].reads += 1;
        self.stats[disk].bytes_read += buf.len() as u64;
        Ok(())
    }

    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError> {
        if data.len() != self.chunk_bytes {
            return Err(BackendError::SizeMismatch {
                expected: self.chunk_bytes,
                got: data.len(),
            });
        }
        in_array(&self.mapping, self.data_stripes, chunk)?;
        let disk = self.mapping.disk_of(chunk);
        let offset = self.mapping.spare_lba_of(chunk, self.data_stripes) * self.chunk_bytes as u64;
        self.write_at(disk, offset, data)?;
        self.repaired.insert(chunk);
        self.stats[disk].writes += 1;
        self.stats[disk].bytes_written += data.len() as u64;
        Ok(())
    }

    fn disk_stats(&self) -> &[BackendDiskStats] {
        &self.stats
    }

    /// `sync_all` every file written since its last successful sync —
    /// by [`write_spare`](StorageBackend::write_spare) or by `format` —
    /// and no other. The syncs run concurrently (one scoped thread per
    /// dirty file beyond the first; the device, not the caller, orders
    /// them) and have all finished when this returns. A file stays dirty
    /// until a sync of it succeeds; the error names the lowest failing
    /// disk.
    fn flush(&mut self) -> Result<(), BackendError> {
        let dirty: Vec<usize> = (0..self.files.len()).filter(|&d| self.dirty[d]).collect();
        let Some((&first, rest)) = dirty.split_first() else {
            return Ok(());
        };
        let files = &self.files;
        let outcomes: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = rest
                .iter()
                .map(|&disk| scope.spawn(move || files[disk].sync_all()))
                .collect();
            std::iter::once(files[first].sync_all())
                .chain(
                    spawned
                        .into_iter()
                        .map(|thread| thread.join().expect("sync_all does not panic")),
                )
                .collect()
        });
        let mut failed = None;
        for (&disk, outcome) in dirty.iter().zip(outcomes) {
            self.stats[disk].syncs += 1;
            match outcome {
                Ok(()) => self.dirty[disk] = false,
                Err(source) => {
                    failed.get_or_insert(BackendError::Io {
                        disk,
                        op: "sync",
                        source,
                    });
                }
            }
        }
        failed.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::{Cell, CodeSpec};

    fn code() -> StripeCode {
        StripeCode::build(CodeSpec::Tip, 5).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fbf-backend-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pristine_bytes(code: &StripeCode, stripe: u32, cell: Cell, chunk_bytes: usize) -> Vec<u8> {
        let mut pristine = Stripe::zeroed(code.layout(), chunk_bytes);
        materialize_into(code, stripe, &mut pristine);
        pristine.get(code.layout(), cell).to_vec()
    }

    fn backends_agree(mut a: impl StorageBackend, mut b: impl StorageBackend, chunks: &[ChunkId]) {
        let n = a.chunk_bytes();
        let (mut ba, mut bb) = (vec![0u8; n], vec![0u8; n]);
        for &chunk in chunks {
            a.read_chunk(chunk, &mut ba).unwrap();
            b.read_chunk(chunk, &mut bb).unwrap();
            assert_eq!(ba, bb, "backends disagree on {chunk:?}");
        }
    }

    #[test]
    fn sim_reads_match_verification_payloads() {
        let code = code();
        let mut b = SimBackend::new(code.clone(), 256, 16, []);
        let cell = Cell::new(1, 2);
        let chunk = ChunkId::new(3, cell);
        let mut buf = vec![0u8; 256];
        b.read_chunk(chunk, &mut buf).unwrap();
        assert_eq!(buf, pristine_bytes(&code, 3, cell, 256));
        assert_eq!(b.disk_stats()[b.mapping().disk_of(chunk)].reads, 1);
    }

    /// A chunk with a spare copy reads back its latest copy; every other
    /// chunk, in any order and again, reads back its pristine bytes.
    #[test]
    fn sim_backend_serves_spare_copies_and_derives_the_rest() {
        let code = code();
        let (a, b) = (
            ChunkId::new(1, Cell::new(0, 0)),
            ChunkId::new(1, Cell::new(1, 1)),
        );
        let other = ChunkId::new(2, Cell::new(0, 0));
        let mut sim = SimBackend::new(code.clone(), 64, 8, [a, b, other]);
        sim.write_spare(a, &[1; 64]).unwrap();
        sim.write_spare(a, &[2; 64]).unwrap();
        sim.write_spare(b, &[3; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        for stripe in [1, 5, 1] {
            for cell in code.layout().cells() {
                let chunk = ChunkId::new(stripe, cell);
                sim.read_chunk(chunk, &mut buf).unwrap();
                let want = match chunk {
                    c if c == a => vec![2; 64],
                    c if c == b => vec![3; 64],
                    _ => pristine_bytes(&code, stripe, cell, 64),
                };
                assert_eq!(buf, want, "{chunk:?}");
            }
        }
        assert!(matches!(
            sim.read_chunk(other, &mut buf),
            Err(BackendError::DamagedRead(c)) if c == other
        ));
    }

    #[test]
    fn file_backend_agrees_with_sim_backend() {
        let code = code();
        let chunks: Vec<ChunkId> = (0..code.rows())
            .flat_map(|r| (0..code.cols()).map(move |c| ChunkId::new(2, Cell::new(r, c))))
            .collect();
        let sim = SimBackend::new(code.clone(), 128, 8, []);
        let dir = tmpdir("agree");
        let file = FileBackend::format(&dir, &code, 128, 8, &[2], &[]).unwrap();
        backends_agree(sim, file, &chunks);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spare_write_redirects_later_reads() {
        let code = code();
        let chunk = ChunkId::new(1, Cell::new(0, 0));
        let dir = tmpdir("spare");
        for mut b in [
            Box::new(SimBackend::new(code.clone(), 64, 8, [chunk])) as Box<dyn StorageBackend>,
            Box::new(FileBackend::format(&dir, &code, 64, 8, &[1], &[chunk]).unwrap()),
        ] {
            let mut buf = vec![0u8; 64];
            assert!(matches!(
                b.read_chunk(chunk, &mut buf),
                Err(BackendError::DamagedRead(_))
            ));
            let recovered = vec![0xAB; 64];
            b.write_spare(chunk, &recovered).unwrap();
            assert!(b.is_repaired(chunk));
            b.read_chunk(chunk, &mut buf).unwrap();
            assert_eq!(buf, recovered, "{} backend", b.kind());
            assert_eq!(b.classify_read(chunk), FaultDraw::Ok);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A chunk the array lacks — past its stripes, rows or columns — is
    /// refused on read and on spare write, never aliased onto one it has.
    fn refuses_chunks_outside_the_array(mut b: impl StorageBackend, code: &StripeCode) {
        let mut buf = vec![0u8; b.chunk_bytes()];
        for chunk in [
            ChunkId::new(8, Cell::new(0, 0)),
            ChunkId::new(1, Cell::new(code.rows(), 0)),
            ChunkId::new(1, Cell::new(0, code.cols())),
        ] {
            let refused = |r: Result<(), BackendError>| matches!(r, Err(BackendError::OutOfArray(c)) if c == chunk);
            assert!(refused(b.read_chunk(chunk, &mut buf)), "{chunk:?}");
            assert!(refused(b.write_spare(chunk, &buf)), "{chunk:?}");
        }
        assert!(b.disk_stats().iter().all(|d| d.reads + d.writes == 0));
    }

    #[test]
    fn sim_backend_refuses_chunks_outside_the_array() {
        let code = code();
        let b = SimBackend::new(code.clone(), 64, 8, []);
        refuses_chunks_outside_the_array(b, &code);
    }

    #[test]
    fn file_backend_refuses_chunks_outside_the_array() {
        let code = code();
        let dir = tmpdir("bounds");
        let b = FileBackend::format(&dir, &code, 64, 8, &[1], &[]).unwrap();
        refuses_chunks_outside_the_array(b, &code);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An array reopened with a geometry other than the one it was
    /// formatted with would compute every offset wrong; `open` refuses.
    #[test]
    fn open_refuses_files_of_another_geometry() {
        let code = code();
        let dir = tmpdir("geometry");
        drop(FileBackend::format(&dir, &code, 1024, 8, &[2], &[]).unwrap());
        assert!(FileBackend::open(&dir, &code, 1024, 8, &[]).is_ok());
        let full = 2 * 8 * code.rows() as u64 * 1024;
        for (chunk_bytes, data_stripes, expected) in [(512, 8, full / 2), (1024, 9, full / 8 * 9)] {
            match FileBackend::open(&dir, &code, chunk_bytes, data_stripes, &[]) {
                Err(BackendError::FileLength {
                    disk: 0,
                    expected: e,
                    got,
                }) => assert_eq!((e, got), (expected, full)),
                other => panic!(
                    "{chunk_bytes} B x {data_stripes} stripes: {:?}",
                    other.map(|_| "opened")
                ),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `flush` waits for exactly the files written since the last flush,
    /// whichever path wrote them.
    #[test]
    fn flush_syncs_the_dirty_files_and_no_other() {
        let code = code();
        let dir = tmpdir("syncs");
        let lost = ChunkId::new(1, Cell::new(0, 0));
        let mut b = FileBackend::format(&dir, &code, 64, 8, &[1], &[lost]).unwrap();
        let syncs = |b: &FileBackend| b.disk_stats().iter().map(|d| d.syncs).collect::<Vec<_>>();
        // `format` wrote a whole stripe: every file is dirty.
        assert!(b.dirty.iter().all(|&d| d));
        b.flush().unwrap();
        assert_eq!(syncs(&b), vec![1; code.cols()]);
        b.flush().unwrap();
        assert_eq!(
            syncs(&b),
            vec![1; code.cols()],
            "nothing written, nothing to wait for"
        );

        let target = b.mapping().disk_of(lost);
        b.write_spare(lost, &[0xAB; 64]).unwrap();
        let dirty: Vec<bool> = (0..code.cols()).map(|d| d == target).collect();
        assert_eq!(b.dirty, dirty);
        b.flush().unwrap();
        let mut expect = vec![1; code.cols()];
        expect[target] = 2;
        assert_eq!(syncs(&b), expect);
        assert!(b.dirty.iter().all(|&d| !d));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn xor_gather_equals_manual_xor() {
        let code = code();
        let mut b = SimBackend::new(code.clone(), 32, 8, []);
        let chunks = [
            ChunkId::new(0, Cell::new(0, 0)),
            ChunkId::new(0, Cell::new(0, 1)),
            ChunkId::new(0, Cell::new(1, 0)),
        ];
        let mut acc = vec![0u8; 32];
        b.xor_gather(&chunks, &mut acc).unwrap();
        let mut manual = vec![0u8; 32];
        let mut tmp = vec![0u8; 32];
        for &c in &chunks {
            b.read_chunk(c, &mut tmp).unwrap();
            for (m, t) in manual.iter_mut().zip(&tmp) {
                *m ^= t;
            }
        }
        assert_eq!(acc, manual);
    }

    #[test]
    fn size_mismatch_is_typed() {
        let code = code();
        let mut b = SimBackend::new(code, 64, 8, []);
        let chunk = ChunkId::new(0, Cell::new(0, 0));
        let mut small = vec![0u8; 32];
        assert!(matches!(
            b.read_chunk(chunk, &mut small),
            Err(BackendError::SizeMismatch {
                expected: 64,
                got: 32
            })
        ));
    }
}

//! Recovery-scheme generation: which chain repairs which lost chunk.
//!
//! Three generators:
//!
//! * [`SchemeKind::Typical`] — the conventional scheme (§II, Fig. 2(a)):
//!   every lost chunk is rebuilt through its horizontal parity chain.
//!   Chunks that have no horizontal chain (vertical-parity cells) fall back
//!   to their own chain family.
//! * [`SchemeKind::FbfCycling`] — the paper's scheme (§III-A-1): "we
//!   generate parity chains by simply looping parity chains of three
//!   directions". Lost chunks, in row order, take horizontal, diagonal,
//!   anti-diagonal, horizontal, ... so that neighbouring repairs cross and
//!   share surviving chunks (Fig. 2(b), Fig. 3).
//! * [`SchemeKind::Greedy`] — an ablation upper bound: each repair picks
//!   the chain adding the fewest *new* chunks to the accumulated read set.
//!
//! All generators only select repairs whose read sets avoid still-lost
//! cells; when damage makes that impossible for some target, repairs are
//! ordered so that previously-recovered chunks may be read (they are warm
//! in the buffer by then). Which chains are usable is counted, not
//! scanned: per chain, the number of still-lost cells it covers. A chain
//! through a lost `target` is usable iff that count is 1 (`target`
//! alone), and each scheduled repair decrements the chains through its
//! target.

use crate::error::PartialStripeError;
use crate::priority::PriorityTable;
use fbf_codes::hash::FxHashSet;
use fbf_codes::repair::{option_through, RepairOption};
use fbf_codes::{Cell, ChainId, Direction, StripeCode};
use std::sync::Arc;

/// Which scheme generator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Horizontal-chains-only (the baseline recovery method).
    Typical,
    /// The paper's direction-cycling FBF scheme.
    FbfCycling,
    /// Greedy overlap maximisation (ablation).
    Greedy,
}

impl SchemeKind {
    /// All generators, for sweeps.
    pub const ALL: [SchemeKind; 3] = [
        SchemeKind::Typical,
        SchemeKind::FbfCycling,
        SchemeKind::Greedy,
    ];

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Typical => "typical",
            SchemeKind::FbfCycling => "fbf",
            SchemeKind::Greedy => "greedy",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheme generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// A lost chunk has no chain whose other cells are all available, even
    /// allowing reads of previously-recovered chunks.
    Unschedulable(Cell),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Unschedulable(c) => write!(f, "no usable repair chain for {c}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// One scheduled repair: rebuild `target` by XOR-ing `option.reads`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRepair {
    /// The lost cell.
    pub target: Cell,
    /// The chosen chain and its read set.
    pub option: RepairOption,
}

/// Everything a damage *format* decides (§III-A-1: "no more calculation
/// is required" once a format recurs), built once — by the
/// [`RecoveryController`](crate::RecoveryController) on a memo miss, by
/// [`generate_for_cells`] for a one-off scheme — and shared by every
/// stripe of that format behind one [`Arc`].
#[derive(Debug, PartialEq, Eq)]
pub struct FormatPlan {
    /// Generator that produced it.
    pub kind: SchemeKind,
    /// Repairs in execution order (later repairs may read earlier targets).
    pub repairs: Vec<ChunkRepair>,
    /// Cell → FBF priority of the reads (Table II).
    pub(crate) table: PriorityTable,
    /// Read slots per stripe column.
    column_reads: Box<[u32]>,
    /// Ops the repairs lower to: per repair its reads, one XOR, one write.
    pub(crate) script_ops: usize,
}

impl FormatPlan {
    /// Plan the repair of the lost-cell set `lost` — a full generation,
    /// what a recurring format never pays again. The cells must be
    /// distinct (a duplicate would count twice); `counts` is scratch the
    /// caller keeps across generations, one slot per chain once sized.
    pub(crate) fn generate(
        code: &StripeCode,
        lost: &[Cell],
        kind: SchemeKind,
        counts: &mut Vec<u16>,
    ) -> Result<Self, SchemeError> {
        let repairs = match kind {
            // Horizontal if available, else first available family.
            SchemeKind::Typical => plan(code, lost, counts, |_, target, counts| {
                pick_in_order(code, target, counts, Direction::ALL)
            }),
            // Cycle H, D, A by position within the error run.
            SchemeKind::FbfCycling => plan(code, lost, counts, |i, target, counts| {
                let start = i % 3;
                let order = [
                    Direction::ALL[start],
                    Direction::ALL[(start + 1) % 3],
                    Direction::ALL[(start + 2) % 3],
                ];
                pick_in_order(code, target, counts, order)
            }),
            // Fewest new chunks beyond what is already scheduled for read.
            // Scored on the chains; only the pick's read set is built.
            SchemeKind::Greedy => {
                let mut scheduled: FxHashSet<Cell> = FxHashSet::default();
                plan(code, lost, counts, |_, target, counts| {
                    let winners = best_chain_per_direction(code, target, counts);
                    let (_, id) = winners.into_iter().flatten().min_by_key(|&(cost, id)| {
                        let chain = code.chain(id);
                        let new = (chain.all_cells())
                            .filter(|c| *c != target && !scheduled.contains(c))
                            .count();
                        (new, cost, chain.direction)
                    })?;
                    let pick = option_through(code, target, id);
                    scheduled.extend(pick.reads.iter().copied());
                    Some(pick)
                })
            }
        }?;
        Ok(FormatPlan::from_repairs(code, kind, repairs))
    }

    /// Everything else a format decides follows from its repairs.
    fn from_repairs(code: &StripeCode, kind: SchemeKind, repairs: Vec<ChunkRepair>) -> Self {
        let mut column_reads = vec![0u32; code.cols()].into_boxed_slice();
        let mut script_ops = 0;
        for repair in &repairs {
            script_ops += repair.option.reads.len() + 2;
            for cell in &repair.option.reads {
                column_reads[cell.c()] += 1;
            }
        }
        FormatPlan {
            kind,
            table: PriorityTable::new(&repairs, code.rows(), code.cols()),
            repairs,
            column_reads,
            script_ops,
        }
    }

    /// FBF priority of reading `cell` (Table II); 1 when no repair reads
    /// it.
    pub fn priority(&self, cell: Cell) -> u8 {
        self.table.priority(cell)
    }

    /// How many times each surviving cell is read across all repairs — the
    /// share counts that become FBF priorities.
    pub fn share_counts(&self) -> std::collections::HashMap<Cell, usize> {
        self.share_count_list().into_iter().collect()
    }

    /// [`share_counts`](Self::share_counts) as a vector in first-read
    /// order. A scheme touches a few dozen cells at most, so a linear-scan
    /// count beats a hash map and allocates once.
    pub fn share_count_list(&self) -> Vec<(Cell, usize)> {
        let mut counts: Vec<(Cell, usize)> = Vec::new();
        for repair in &self.repairs {
            for &cell in &repair.option.reads {
                match counts.iter_mut().find(|(c, _)| *c == cell) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((cell, 1)),
                }
            }
        }
        counts
    }

    /// Number of *distinct* chunks the scheme fetches (what an ideal
    /// infinite cache would read from disk).
    pub fn unique_reads(&self) -> usize {
        self.share_count_list().len()
    }

    /// Total read references including re-reads of shared chunks (what a
    /// cacheless executor would issue).
    pub fn total_read_slots(&self) -> usize {
        self.repairs.iter().map(|r| r.option.reads.len()).sum()
    }

    /// Read slots per stripe column, re-reads included: what a cacheless
    /// executor asks of each column's disk.
    pub fn column_reads(&self) -> &[u32] {
        &self.column_reads
    }

    /// Reads saved by sharing relative to fetching every slot from disk.
    pub fn shared_savings(&self) -> usize {
        self.total_read_slots() - self.unique_reads()
    }
}

/// The ordered repair plan for one partial stripe error: a stripe number
/// stamped on its format's shared [`FormatPlan`], which it reads as
/// (`scheme.kind`, `&scheme.repairs`, `scheme.column_reads()`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryScheme {
    /// Stripe this scheme repairs.
    pub stripe: u32,
    format: Arc<FormatPlan>,
}

impl RecoveryScheme {
    /// `format`'s plan for `stripe`, which must carry that damage format:
    /// one reference-count bump, nothing is copied.
    pub fn stamp(format: &Arc<FormatPlan>, stripe: u32) -> RecoveryScheme {
        RecoveryScheme {
            stripe,
            format: Arc::clone(format),
        }
    }

    /// The shared per-format plan (pointer-equal across the stripes one
    /// controller planned for one format).
    pub fn format(&self) -> &Arc<FormatPlan> {
        &self.format
    }
}

impl std::ops::Deref for RecoveryScheme {
    type Target = FormatPlan;

    fn deref(&self) -> &FormatPlan {
        &self.format
    }
}

/// Generate a recovery scheme for one error.
pub fn generate(
    code: &StripeCode,
    error: &PartialStripeError,
    kind: SchemeKind,
) -> Result<RecoveryScheme, SchemeError> {
    generate_for_cells(code, error.stripe, &error.cells(), kind)
}

/// Generate a recovery scheme for an arbitrary lost-cell set of one stripe
/// (merged multi-disk damage; see [`crate::error::StripeDamage`]).
pub fn generate_for_cells(
    code: &StripeCode,
    stripe: u32,
    lost: &[Cell],
    kind: SchemeKind,
) -> Result<RecoveryScheme, SchemeError> {
    let format = Arc::new(FormatPlan::generate(code, lost, kind, &mut Vec::new())?);
    Ok(RecoveryScheme { stripe, format })
}

/// Shared planning loop: repeatedly pick a repair for the first still-lost
/// cell that has a usable option, allowing reads of already-repaired cells.
///
/// `counts[chain]` is how many still-lost cells `chain` covers: filled
/// from `lost` here, decremented for each scheduled target. `chooser(
/// position, target, counts)` returns the repair it wants for `target`
/// (which is then scheduled — a `Some` is never declined) or `None` when
/// no chain is usable yet; `position` is the index of the target within
/// the original error run (drives FBF's direction cycling).
fn plan<F>(
    code: &StripeCode,
    lost: &[Cell],
    counts: &mut Vec<u16>,
    mut chooser: F,
) -> Result<Vec<ChunkRepair>, SchemeError>
where
    F: FnMut(usize, Cell, &[u16]) -> Option<RepairOption>,
{
    debug_assert!(
        (lost.iter().enumerate()).all(|(i, c)| !lost[..i].contains(c)),
        "lost cells must be distinct: {lost:?}"
    );
    counts.clear();
    counts.resize(code.chains().len(), 0);
    for &cell in lost {
        for id in code.chains_of(cell) {
            counts[id.index()] += 1;
        }
    }
    let mut remaining: Vec<(usize, Cell)> = lost.iter().copied().enumerate().collect();
    let mut repairs = Vec::with_capacity(lost.len());
    while !remaining.is_empty() {
        let picked = remaining
            .iter()
            .enumerate()
            .find_map(|(slot, &(pos, target))| {
                chooser(pos, target, counts).map(|option| (slot, ChunkRepair { target, option }))
            });
        let Some((slot, repair)) = picked else {
            return Err(SchemeError::Unschedulable(remaining[0].1));
        };
        // The target is repaired: it blocks none of its chains any more.
        for id in code.chains_of(repair.target) {
            counts[id.index()] -= 1;
        }
        repairs.push(repair);
        remaining.remove(slot);
    }
    Ok(repairs)
}

/// For each direction, the cheapest chain usable for `target` as
/// `(read cost, chain)`: `target` is its only still-lost cell. An
/// equation of `n` members costs `n` reads whichever cell is the target,
/// so the winners are chosen on `(cost, chain order)` with nothing
/// materialised.
fn best_chain_per_direction(
    code: &StripeCode,
    target: Cell,
    counts: &[u16],
) -> [Option<(usize, ChainId)>; 3] {
    let mut win: [Option<(usize, ChainId)>; 3] = [None, None, None];
    for &id in code.chains_of(target) {
        if counts[id.index()] != 1 {
            continue;
        }
        let chain = code.chain(id);
        let cost = chain.len();
        let slot = &mut win[chain.direction.index()];
        if slot.is_none_or(|(cur, _)| cost < cur) {
            *slot = Some((cost, id));
        }
    }
    win
}

/// The cheapest usable chain of the first direction in `order` that has
/// one. Chosen on the `(cost, chain)` winners; only the pick's read set is
/// materialised.
fn pick_in_order(
    code: &StripeCode,
    target: Cell,
    counts: &[u16],
    order: [Direction; 3],
) -> Option<RepairOption> {
    let winners = best_chain_per_direction(code, target, counts);
    order
        .into_iter()
        .find_map(|d| winners[d.index()])
        .map(|(_, chain)| option_through(code, target, chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::CodeSpec;

    /// The planner before usability was counted, kept as the oracle: per
    /// round the still-lost set, and per candidate chain a scan of it with
    /// a binary search per chain member.
    mod scan {
        use super::*;
        use fbf_codes::repair::RepairOption;

        pub(super) fn generate(
            code: &StripeCode,
            lost: &[Cell],
            kind: SchemeKind,
        ) -> Result<FormatPlan, SchemeError> {
            let repairs = match kind {
                SchemeKind::Typical => plan(lost, |_, target, still_lost| {
                    pick_in_order(code, target, still_lost, Direction::ALL)
                }),
                SchemeKind::FbfCycling => plan(lost, |i, target, still_lost| {
                    let start = i % 3;
                    let order = [
                        Direction::ALL[start],
                        Direction::ALL[(start + 1) % 3],
                        Direction::ALL[(start + 2) % 3],
                    ];
                    pick_in_order(code, target, still_lost, order)
                }),
                SchemeKind::Greedy => {
                    let mut scheduled: FxHashSet<Cell> = FxHashSet::default();
                    plan(lost, |_, target, still_lost| {
                        let menu = best_chain_per_direction(code, target, still_lost)
                            .map(|w| w.map(|(_, id)| option_through(code, target, id)));
                        let pick = menu.into_iter().flatten().min_by_key(|opt| {
                            let new = opt.reads.iter().filter(|c| !scheduled.contains(*c)).count();
                            (new, opt.reads.len(), opt.direction)
                        })?;
                        scheduled.extend(pick.reads.iter().copied());
                        Some(pick)
                    })
                }
            }?;
            Ok(FormatPlan::from_repairs(code, kind, repairs))
        }

        fn plan<F>(lost: &[Cell], mut chooser: F) -> Result<Vec<ChunkRepair>, SchemeError>
        where
            F: FnMut(usize, Cell, &[Cell]) -> Option<RepairOption>,
        {
            let mut remaining: Vec<(usize, Cell)> = lost.iter().copied().enumerate().collect();
            let mut repairs = Vec::with_capacity(lost.len());
            let mut still_lost: Vec<Cell> = Vec::with_capacity(lost.len());
            while !remaining.is_empty() {
                still_lost.clear();
                still_lost.extend(remaining.iter().map(|&(_, c)| c));
                let picked = remaining
                    .iter()
                    .enumerate()
                    .find_map(|(slot, &(pos, target))| {
                        chooser(pos, target, &still_lost)
                            .map(|option| (slot, ChunkRepair { target, option }))
                    });
                let Some((slot, repair)) = picked else {
                    return Err(SchemeError::Unschedulable(remaining[0].1));
                };
                repairs.push(repair);
                remaining.remove(slot);
            }
            Ok(repairs)
        }

        fn pick_in_order(
            code: &StripeCode,
            target: Cell,
            still_lost: &[Cell],
            order: [Direction; 3],
        ) -> Option<RepairOption> {
            let winners = best_chain_per_direction(code, target, still_lost);
            order
                .into_iter()
                .find_map(|d| winners[d.index()])
                .map(|(_, chain)| option_through(code, target, chain))
        }

        fn best_chain_per_direction(
            code: &StripeCode,
            target: Cell,
            lost: &[Cell],
        ) -> [Option<(usize, ChainId)>; 3] {
            let mut win: [Option<(usize, ChainId)>; 3] = [None, None, None];
            for &id in code.chains_of(target) {
                let chain = code.chain(id);
                if lost.iter().any(|&c| c != target && chain.covers(c)) {
                    continue;
                }
                let cost = chain.len();
                let slot = &mut win[chain.direction.index()];
                let better = match slot {
                    Some((cur, _)) => cost < *cur,
                    None => true,
                };
                if better {
                    *slot = Some((cost, id));
                }
            }
            win
        }
    }

    /// The counted planner equals the scan on every code at p ∈ {5, 7,
    /// 11, 13}, every generator, and seeded random damage of 1–4 columns
    /// (a run of rows per column, sometimes a scattered cell more), both
    /// sorted and in error order: the same `FormatPlan`, or the same
    /// `SchemeError`. Unschedulable sets must be among them.
    #[test]
    fn counted_planner_equals_the_scan() {
        let mut state = 0x5EED_u64;
        let mut next = |n: usize| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let (mut planned, mut refused) = (0, 0);
        let mut counts = Vec::new();
        for spec in CodeSpec::EXTENDED {
            for c in [5, 7, 11, 13]
                .into_iter()
                .filter_map(|p| StripeCode::build(spec, p).ok())
            {
                let (rows, cols) = (c.rows(), c.cols());
                for _ in 0..40 {
                    let mut lost: Vec<Cell> = Vec::new();
                    for _ in 0..1 + next(4) {
                        let col = next(cols);
                        let first = next(rows);
                        let len = 1 + next(rows - first);
                        lost.extend((first..first + len).map(|r| Cell::new(r, col)));
                        if next(4) == 0 {
                            lost.push(Cell::new(next(rows), col));
                        }
                    }
                    let mut seen = FxHashSet::default();
                    lost.retain(|&cell| seen.insert(cell));
                    let mut sorted = lost.clone();
                    sorted.sort_unstable();
                    for cells in [&sorted, &lost] {
                        for kind in SchemeKind::ALL {
                            let counted = FormatPlan::generate(&c, cells, kind, &mut counts);
                            let oracle = scan::generate(&c, cells, kind);
                            assert_eq!(counted, oracle, "{spec:?} p={} {kind} {cells:?}", c.p());
                            match counted {
                                Ok(_) => planned += 1,
                                Err(_) => refused += 1,
                            }
                        }
                    }
                }
            }
        }
        assert!(
            planned > 0 && refused > 0,
            "{planned} planned, {refused} refused"
        );
    }

    fn code(spec: CodeSpec, p: usize) -> StripeCode {
        StripeCode::build(spec, p).unwrap()
    }

    fn error(code: &StripeCode, col: usize, first: usize, len: usize) -> PartialStripeError {
        PartialStripeError::new(code, 0, col, first, len).unwrap()
    }

    #[test]
    fn typical_uses_horizontal_for_data_cells() {
        let c = code(CodeSpec::Tip, 7);
        let e = error(&c, 0, 0, 5);
        let s = generate(&c, &e, SchemeKind::Typical).unwrap();
        assert_eq!(s.repairs.len(), 5);
        for r in &s.repairs {
            assert_eq!(r.option.direction, Direction::Horizontal, "{:?}", r.target);
        }
    }

    #[test]
    fn fbf_cycles_directions() {
        let c = code(CodeSpec::Tip, 7);
        let e = error(&c, 0, 0, 5);
        let s = generate(&c, &e, SchemeKind::FbfCycling).unwrap();
        assert_eq!(s.repairs.len(), 5);
        let dirs: std::collections::HashSet<Direction> =
            s.repairs.iter().map(|r| r.option.direction).collect();
        assert!(
            dirs.len() >= 2,
            "cycling must use multiple directions: {dirs:?}"
        );
    }

    #[test]
    fn fbf_reads_fewer_unique_chunks_than_typical() {
        // The headline structural claim (Fig. 2): intelligent chain
        // selection shares chunks and shrinks the fetch set.
        for spec in [CodeSpec::Tip, CodeSpec::Hdd1, CodeSpec::TripleStar] {
            let c = code(spec, 7);
            let e = error(&c, 0, 0, 5);
            let typical = generate(&c, &e, SchemeKind::Typical).unwrap();
            let fbf = generate(&c, &e, SchemeKind::FbfCycling).unwrap();
            assert!(
                fbf.shared_savings() > 0,
                "{spec:?}: FBF scheme must share chunks"
            );
            assert_eq!(
                typical.shared_savings(),
                0,
                "{spec:?}: horizontal chains never overlap"
            );
            assert!(
                fbf.unique_reads() <= typical.unique_reads() + fbf.shared_savings(),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn greedy_is_at_least_as_shared_as_cycling() {
        let c = code(CodeSpec::Tip, 11);
        let e = error(&c, 0, 0, 8);
        let fbf = generate(&c, &e, SchemeKind::FbfCycling).unwrap();
        let greedy = generate(&c, &e, SchemeKind::Greedy).unwrap();
        assert!(greedy.unique_reads() <= fbf.unique_reads());
    }

    #[test]
    fn no_repair_reads_a_lost_cell_unless_repaired_earlier() {
        for kind in SchemeKind::ALL {
            let c = code(CodeSpec::TripleStar, 7);
            let e = error(&c, 2, 1, 5);
            let s = generate(&c, &e, kind).unwrap();
            let mut recovered: FxHashSet<Cell> = FxHashSet::default();
            let lost: FxHashSet<Cell> = e.cells().into_iter().collect();
            for r in &s.repairs {
                for read in &r.option.reads {
                    assert!(
                        !lost.contains(read) || recovered.contains(read),
                        "{kind}: repair of {:?} reads unrecovered lost cell {read}",
                        r.target
                    );
                }
                recovered.insert(r.target);
            }
        }
    }

    #[test]
    fn parity_column_errors_are_schedulable() {
        for kind in SchemeKind::ALL {
            for spec in CodeSpec::ALL {
                let c = code(spec, 7);
                for col in 0..c.cols() {
                    let e = error(&c, col, 0, c.rows() - 1);
                    let s = generate(&c, &e, kind)
                        .unwrap_or_else(|err| panic!("{spec:?} {kind} col {col}: {err}"));
                    assert_eq!(s.repairs.len(), c.rows() - 1);
                }
            }
        }
    }

    #[test]
    fn single_chunk_error_trivially_schedulable() {
        let c = code(CodeSpec::Star, 5);
        let e = error(&c, 0, 2, 1);
        let s = generate(&c, &e, SchemeKind::FbfCycling).unwrap();
        assert_eq!(s.repairs.len(), 1);
        assert_eq!(s.repairs[0].target, Cell::new(2, 0));
    }

    #[test]
    fn share_counts_consistency() {
        let c = code(CodeSpec::Tip, 7);
        let e = error(&c, 0, 0, 5);
        let s = generate(&c, &e, SchemeKind::FbfCycling).unwrap();
        let counts = s.share_counts();
        let total: usize = counts.values().sum();
        assert_eq!(total, s.total_read_slots());
        assert_eq!(counts.len(), s.unique_reads());
    }
}

//! The failure model: partial stripe errors.
//!
//! A [`PartialStripeError`] is a run of consecutive bad chunks on one disk
//! within one stripe — the paper's unit of damage (§IV-A): at least one
//! chunk, at most `p - 1` chunks (a full column is whole-disk territory,
//! handled by prior work \[22\]/\[36\]). Sector-level errors are rounded up to
//! chunks, "since chunk is the fundamental recovery unit".

use fbf_codes::{Cell, StripeCode};

/// One partial stripe error: `len` consecutive chunks starting at
/// `first_row` in column `col` of stripe `stripe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialStripeError {
    /// Stripe number within the array.
    pub stripe: u32,
    /// Failed column (disk within the stripe's layout).
    pub col: usize,
    /// First bad row.
    pub first_row: usize,
    /// Number of consecutive bad chunks (`1..=p-1`, i.e. `<= rows`).
    pub len: usize,
}

impl PartialStripeError {
    /// Construct and validate against a code's geometry.
    pub fn new(
        code: &StripeCode,
        stripe: u32,
        col: usize,
        first_row: usize,
        len: usize,
    ) -> Result<Self, String> {
        if col >= code.cols() {
            return Err(format!("column {col} outside {}-disk array", code.cols()));
        }
        if len == 0 {
            return Err("error length must be at least one chunk".into());
        }
        if first_row + len > code.rows() {
            return Err(format!(
                "rows {first_row}..{} outside stripe of {} rows",
                first_row + len,
                code.rows()
            ));
        }
        Ok(PartialStripeError {
            stripe,
            col,
            first_row,
            len,
        })
    }

    /// The lost cells, top to bottom.
    pub fn cells(&self) -> Vec<Cell> {
        self.cell_iter().collect()
    }

    fn cell_iter(&self) -> impl Iterator<Item = Cell> {
        let col = self.col;
        (self.first_row..self.first_row + self.len).map(move |r| Cell::new(r, col))
    }
}

impl std::fmt::Display for PartialStripeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stripe {} disk {} rows {}..{}",
            self.stripe,
            self.col,
            self.first_row,
            self.first_row + self.len
        )
    }
}

/// A campaign of partial stripe errors awaiting reconstruction —
/// the paper's `PartialStripeErrorGroup`. One stripe may carry several
/// errors (on different disks — the spatially-correlated case the LSE
/// studies describe); recovery merges them into one [`StripeDamage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorGroup {
    /// The individual errors.
    pub errors: Vec<PartialStripeError>,
}

/// All damage of one stripe, merged across errors: the unit recovery
/// schemes are generated for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeDamage {
    /// The damaged stripe.
    pub stripe: u32,
    /// Lost cells, sorted and deduplicated.
    pub cells: Vec<Cell>,
}

impl StripeDamage {
    /// Add a lost cell, keeping the cells sorted and distinct.
    pub(crate) fn insert(&mut self, cell: Cell) {
        if let Err(at) = self.cells.binary_search(&cell) {
            self.cells.insert(at, cell);
        }
    }
}

impl ErrorGroup {
    /// Empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whole-column damage — what a failed disk leaves behind — as one
    /// full-column error per `(stripe, col)`.
    pub fn full_columns(
        code: &StripeCode,
        columns: impl IntoIterator<Item = (u32, usize)>,
    ) -> Result<Self, String> {
        let errors = columns
            .into_iter()
            .map(|(stripe, col)| PartialStripeError::new(code, stripe, col, 0, code.rows()))
            .collect::<Result<_, _>>()?;
        Ok(ErrorGroup { errors })
    }

    /// Add an error. Same-stripe errors are allowed (multi-disk damage);
    /// recovery merges them per stripe.
    pub fn push(&mut self, e: PartialStripeError) {
        self.errors.push(e);
    }

    /// Merge the campaign into per-stripe damage, ordered by stripe.
    pub fn damage_by_stripe(&self) -> Vec<StripeDamage> {
        let mut by_stripe: Vec<&PartialStripeError> = self.errors.iter().collect();
        by_stripe.sort_unstable_by_key(|e| e.stripe);
        let mut damages = Vec::with_capacity(by_stripe.len());
        for run in by_stripe.chunk_by(|a, b| a.stripe == b.stripe) {
            let mut cells = Vec::with_capacity(run.iter().map(|e| e.len).sum());
            cells.extend(run.iter().flat_map(|e| e.cell_iter()));
            cells.sort_unstable();
            cells.dedup();
            damages.push(StripeDamage {
                stripe: run[0].stripe,
                cells,
            });
        }
        damages
    }

    /// Number of errors.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Is the group empty?
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
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
    fn valid_error_constructs() {
        let e = PartialStripeError::new(&code(), 3, 0, 1, 4).unwrap();
        assert_eq!(e.cells().len(), 4);
        assert_eq!(e.cells()[0], Cell::new(1, 0));
        assert_eq!(e.cells()[3], Cell::new(4, 0));
        assert_eq!(e.stripe, 3);
    }

    #[test]
    fn zero_length_rejected() {
        assert!(PartialStripeError::new(&code(), 0, 0, 0, 0).is_err());
    }

    #[test]
    fn overflow_rejected() {
        // TIP p=7 has 6 rows; rows 4..8 overflow.
        assert!(PartialStripeError::new(&code(), 0, 0, 4, 4).is_err());
        // Column 8 outside an 8-disk array.
        assert!(PartialStripeError::new(&code(), 0, 8, 0, 1).is_err());
    }

    #[test]
    fn full_column_is_allowed_at_most() {
        // len == rows is accepted by the type (the workload generator caps
        // at p-1 per the paper; the boundary case remains recoverable).
        assert!(PartialStripeError::new(&code(), 0, 0, 0, 6).is_ok());
    }

    #[test]
    fn group_accounting() {
        let c = code();
        let mut g = ErrorGroup::new();
        g.push(PartialStripeError::new(&c, 0, 0, 0, 3).unwrap());
        g.push(PartialStripeError::new(&c, 1, 2, 1, 5).unwrap());
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        let lost =
            |g: &ErrorGroup| -> usize { g.damage_by_stripe().iter().map(|d| d.cells.len()).sum() };
        assert_eq!(lost(&g), 8);
        // An overlapping error on the same stripe loses no new chunk.
        g.push(PartialStripeError::new(&c, 1, 2, 0, 3).unwrap());
        assert_eq!(lost(&g), 9);
    }

    #[test]
    fn damage_insert_keeps_cells_sorted_and_distinct() {
        let mut d = StripeDamage {
            stripe: 0,
            cells: vec![Cell::new(0, 1), Cell::new(3, 1)],
        };
        for cell in [Cell::new(2, 0), Cell::new(0, 1), Cell::new(5, 4)] {
            d.insert(cell);
        }
        let mut expect = vec![
            Cell::new(0, 1),
            Cell::new(3, 1),
            Cell::new(2, 0),
            Cell::new(5, 4),
        ];
        expect.sort_unstable();
        assert_eq!(d.cells, expect);
    }

    #[test]
    fn same_stripe_errors_merge_into_one_damage() {
        let c = code();
        let mut g = ErrorGroup::new();
        g.push(PartialStripeError::new(&c, 0, 0, 0, 2).unwrap());
        g.push(PartialStripeError::new(&c, 0, 1, 1, 2).unwrap());
        g.push(PartialStripeError::new(&c, 5, 3, 0, 1).unwrap());
        let damage = g.damage_by_stripe();
        assert_eq!(damage.len(), 2);
        assert_eq!(damage[0].stripe, 0);
        assert_eq!(damage[0].cells.len(), 4);
        assert_eq!(damage[1].stripe, 5);
        // Overlapping cells dedupe.
        g.push(PartialStripeError::new(&c, 0, 0, 0, 2).unwrap());
        assert_eq!(g.damage_by_stripe()[0].cells.len(), 4);
    }
}

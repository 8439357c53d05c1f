//! Stripe layouts: the `rows × cols` grid of chunks and what each cell holds.
//!
//! A *stripe* of a 3DFT array code is a small two-dimensional grid: `cols`
//! is the number of disks (`n`), `rows` is the number of chunks each disk
//! contributes to the stripe (`p - 1` for every code in this crate). The FBF
//! paper addresses chunks as `C(row, col)` — [`Cell`] mirrors that.

/// Address of a chunk inside one stripe, `C(row, col)` in the paper's
/// notation. `col` is the disk index within the stripe's column permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Row within the stripe, `0..rows`.
    pub row: u16,
    /// Column (disk) within the stripe, `0..cols`.
    pub col: u16,
}

impl Cell {
    /// Create a cell from `usize` coordinates (panics on overflow, which is
    /// impossible for realistic primes).
    #[inline]
    pub fn new(row: usize, col: usize) -> Self {
        Cell {
            row: u16::try_from(row).expect("row fits u16"),
            col: u16::try_from(col).expect("col fits u16"),
        }
    }

    /// Row as `usize` for indexing.
    #[inline]
    pub fn r(&self) -> usize {
        self.row as usize
    }

    /// Column as `usize` for indexing.
    #[inline]
    pub fn c(&self) -> usize {
        self.col as usize
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C({},{})", self.row, self.col)
    }
}

/// Globally unique chunk address: a cell within a numbered stripe.
///
/// This is the key type cached by the buffer cache and addressed by the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Stripe number within the array.
    pub stripe: u32,
    /// Cell within the stripe.
    pub cell: Cell,
}

impl ChunkId {
    /// Construct a chunk id.
    #[inline]
    pub fn new(stripe: u32, cell: Cell) -> Self {
        ChunkId { stripe, cell }
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}:{}", self.stripe, self.cell)
    }
}

/// What a cell of the layout stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Application data.
    Data,
    /// Parity belonging to the chain family identified by the direction index
    /// (0 = horizontal, 1 = diagonal, 2 = anti-diagonal / second diagonal).
    Parity(u8),
    /// Cell unused by the code (kept for codes whose grids have holes; none
    /// of the four shipped codes use it, but decoders treat it as zero).
    Unused,
}

impl CellKind {
    /// Is this a data cell?
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self, CellKind::Data)
    }

    /// Is this a parity cell (of any direction)?
    #[inline]
    fn is_parity(&self) -> bool {
        matches!(self, CellKind::Parity(_))
    }
}

/// The shape of one stripe: grid dimensions plus per-cell kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    rows: usize,
    cols: usize,
    /// Row-major cell kinds, `kinds[row * cols + col]`.
    kinds: Vec<CellKind>,
}

impl Layout {
    /// Create a layout with every cell initialised to [`CellKind::Data`].
    pub fn all_data(rows: usize, cols: usize) -> Self {
        Layout {
            rows,
            cols,
            kinds: vec![CellKind::Data; rows * cols],
        }
    }

    /// Number of rows (`p - 1` for the shipped codes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns, i.e. disks (`n`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells in the stripe.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when the layout has no cells (degenerate, never built by the
    /// shipped code constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Is the cell inside the grid?
    #[inline]
    pub fn contains(&self, cell: Cell) -> bool {
        cell.r() < self.rows && cell.c() < self.cols
    }

    /// Row-major linear index of a cell; the canonical stripe-buffer order.
    #[inline]
    pub fn index_of(&self, cell: Cell) -> usize {
        debug_assert!(
            self.contains(cell),
            "cell {cell} outside {}x{}",
            self.rows,
            self.cols
        );
        cell.r() * self.cols + cell.c()
    }

    /// Kind of the given cell.
    #[inline]
    pub fn kind(&self, cell: Cell) -> CellKind {
        self.kinds[self.index_of(cell)]
    }

    /// Set the kind of a cell (used by code constructors).
    pub fn set_kind(&mut self, cell: Cell, kind: CellKind) {
        let i = self.index_of(cell);
        self.kinds[i] = kind;
    }

    /// Iterate over all cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| Cell::new(r, c)))
    }

    /// Iterate over the data cells only.
    pub fn data_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.cells().filter(|&c| self.kind(c).is_data())
    }

    /// Iterate over the parity cells only.
    pub fn parity_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.cells().filter(|&c| self.kind(c).is_parity())
    }

    /// Cells of one column, top to bottom. A column corresponds to the part
    /// of one disk covered by this stripe.
    pub fn column(&self, col: usize) -> impl Iterator<Item = Cell> + '_ {
        assert!(col < self.cols, "column {col} out of range");
        (0..self.rows).map(move |r| Cell::new(r, col))
    }

    /// Render the layout as ASCII art: `D` for data, `H`/`P1`/`P2` for the
    /// parity directions. Used by the quickstart example to reproduce the
    /// spirit of the paper's Fig. 1.
    pub fn ascii_art(&self) -> String {
        let mut out = String::with_capacity(self.len() * 3 + self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let ch = match self.kind(Cell::new(r, c)) {
                    CellKind::Data => "D ",
                    CellKind::Parity(0) => "H ",
                    CellKind::Parity(1) => "P1",
                    CellKind::Parity(_) => "P2",
                    CellKind::Unused => ". ",
                };
                out.push_str(ch);
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip_display() {
        let c = Cell::new(4, 7);
        assert_eq!(c.to_string(), "C(4,7)");
        assert_eq!(c.r(), 4);
        assert_eq!(c.c(), 7);
    }

    #[test]
    fn chunk_id_ordering_groups_by_stripe() {
        let a = ChunkId::new(0, Cell::new(5, 5));
        let b = ChunkId::new(1, Cell::new(0, 0));
        assert!(a < b, "chunk ids order by stripe first");
    }

    #[test]
    fn layout_index_roundtrip() {
        let l = Layout::all_data(6, 8);
        for (i, cell) in l.cells().enumerate() {
            assert_eq!(l.index_of(cell), i);
        }
        assert_eq!(l.len(), 48);
    }

    #[test]
    fn set_kind_and_counts() {
        let mut l = Layout::all_data(4, 6);
        l.set_kind(Cell::new(0, 5), CellKind::Parity(0));
        l.set_kind(Cell::new(1, 5), CellKind::Parity(1));
        assert_eq!(l.parity_cells().count(), 2);
        assert_eq!(l.data_cells().count(), 22);
        assert!(l.kind(Cell::new(0, 5)).is_parity());
        assert!(!l.kind(Cell::new(0, 0)).is_parity());
    }

    #[test]
    fn column_iterates_rows() {
        let l = Layout::all_data(4, 6);
        let col: Vec<Cell> = l.column(2).collect();
        assert_eq!(col.len(), 4);
        assert!(col.iter().all(|c| c.c() == 2));
        assert_eq!(col[0].r(), 0);
        assert_eq!(col[3].r(), 3);
    }

    #[test]
    fn ascii_art_dimensions() {
        let l = Layout::all_data(3, 4);
        let art = l.ascii_art();
        assert_eq!(art.lines().count(), 3);
    }
}

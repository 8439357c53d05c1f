//! In-memory stripe buffers.
//!
//! A [`Stripe`] holds the chunk payloads of one stripe in row-major cell
//! order. The simulator mostly moves chunk *identities* around (timing does
//! not depend on payload), but the encoder/decoder and the end-to-end
//! integration tests operate on real bytes so that reconstruction can be
//! verified bit-for-bit.

use crate::layout::{Cell, Layout};
use std::sync::Arc;

/// One chunk's payload. Cheaply cloneable (reference-counted).
pub type ChunkBuf = Arc<[u8]>;

/// Write data cell `cell` of [`Stripe::patterned_seeded`]`(.., seed)` into
/// `buf`, whatever its length: the one place the per-cell seed is formed.
pub fn fill_data_cell(buf: &mut [u8], seed: u64, cell: Cell) {
    // splitmix64 over a per-cell seed — deterministic, distinct streams.
    let cell_seed =
        (cell.r() as u64) << 32 ^ (cell.c() as u64) << 8 ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    crate::fill::fill(buf, cell_seed.wrapping_add(crate::fill::GAMMA));
}

/// All chunk payloads of one stripe, indexed by the layout's row-major order.
#[derive(Debug, Clone)]
pub struct Stripe {
    chunk_size: usize,
    chunks: Vec<ChunkBuf>,
}

impl Stripe {
    /// A stripe of all-zero chunks matching `layout`.
    pub fn zeroed(layout: &Layout, chunk_size: usize) -> Self {
        let zero: ChunkBuf = vec![0u8; chunk_size].into();
        Stripe {
            chunk_size,
            chunks: vec![zero; layout.len()],
        }
    }

    /// Fill the data cells of a zeroed stripe from a deterministic
    /// byte pattern derived from the cell address. Useful for tests: each
    /// cell's payload is unique, so mix-ups are caught.
    pub fn patterned(layout: &Layout, chunk_size: usize) -> Self {
        Self::patterned_seeded(layout, chunk_size, 0)
    }

    /// [`Stripe::patterned`] with an extra seed mixed in, so different
    /// *stripes* of an array carry different payloads too.
    pub fn patterned_seeded(layout: &Layout, chunk_size: usize, seed: u64) -> Self {
        let mut s = Stripe::zeroed(layout, chunk_size);
        s.refill_seeded(layout, seed);
        s
    }

    /// Overwrite the data cells with [`Stripe::patterned_seeded`]'s
    /// payloads for `seed`, in place: a chunk buffer no clone shares is
    /// reused, a shared one is replaced by a fresh buffer (so clones are
    /// unaffected). Parity cells are left as they are; [`encode`] them.
    ///
    /// [`encode`]: crate::encode::encode
    pub fn refill_seeded(&mut self, layout: &Layout, seed: u64) {
        assert_eq!(self.chunks.len(), layout.len(), "stripe/layout mismatch");
        for cell in layout.data_cells() {
            fill_data_cell(self.chunk_mut(layout.index_of(cell)), seed, cell);
        }
    }

    /// Chunk `i`'s buffer (row-major), writable: the same buffer when no
    /// clone shares it, otherwise a fresh (zeroed) one put in its place,
    /// so clones keep their bytes.
    pub fn chunk_mut(&mut self, i: usize) -> &mut [u8] {
        if Arc::get_mut(&mut self.chunks[i]).is_none() {
            // One allocation, no copy: `repeat_n` reports its exact length.
            self.chunks[i] = std::iter::repeat_n(0, self.chunk_size).collect();
        }
        Arc::get_mut(&mut self.chunks[i]).expect("uniquely owned")
    }

    /// Bytes per chunk.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks (equals `layout.len()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the stripe holds no chunks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Payload of a cell.
    #[inline]
    pub fn get(&self, layout: &Layout, cell: Cell) -> &ChunkBuf {
        &self.chunks[layout.index_of(cell)]
    }

    /// Replace a cell's payload.
    pub fn set(&mut self, layout: &Layout, cell: Cell, buf: ChunkBuf) {
        assert_eq!(buf.len(), self.chunk_size, "chunk size mismatch in set()");
        let i = layout.index_of(cell);
        self.chunks[i] = buf;
    }

    /// Zero a cell (model an erasure). The payload is replaced so other
    /// clones of the stripe are unaffected.
    pub fn erase(&mut self, layout: &Layout, cell: Cell) {
        self.set(layout, cell, vec![0u8; self.chunk_size].into());
    }

    /// Set `dst`'s payload to the XOR of `cells`' (none: all zero), in
    /// place when no clone shares `dst`'s buffer: copy the first, XOR the
    /// rest in. `dst` must not be one of `cells`.
    pub(crate) fn set_xor(&mut self, layout: &Layout, dst: Cell, cells: &[Cell]) {
        debug_assert!(!cells.contains(&dst), "{dst} XORed into itself");
        let d = layout.index_of(dst);
        let Some((&first, rest)) = cells.split_first() else {
            self.chunk_mut(d).fill(0);
            return;
        };
        // Park a clone of the first source in `dst`'s slot (a count bump,
        // no allocation) while its buffer is written.
        let src = self.get(layout, first).clone();
        let mut acc = std::mem::replace(&mut self.chunks[d], src);
        match Arc::get_mut(&mut acc) {
            Some(buf) => buf.copy_from_slice(&self.chunks[d]),
            None => acc = Arc::from(&self.chunks[d][..]),
        }
        let buf = Arc::get_mut(&mut acc).expect("uniquely owned");
        for &cell in rest {
            crate::xor::xor_into(buf, self.get(layout, cell));
        }
        self.chunks[d] = acc;
    }

    /// XOR the payloads of `cells` together into a fresh buffer.
    pub fn xor_cells(&self, layout: &Layout, cells: &[Cell]) -> ChunkBuf {
        let mut acc = vec![0u8; self.chunk_size];
        for &cell in cells {
            crate::xor::xor_into(&mut acc, self.get(layout, cell));
        }
        acc.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    #[test]
    fn zeroed_stripe_shape() {
        let l = Layout::all_data(4, 6);
        let s = Stripe::zeroed(&l, 64);
        assert_eq!(s.len(), 24);
        assert_eq!(s.chunk_size(), 64);
        assert!(s.get(&l, Cell::new(3, 5)).iter().all(|&b| b == 0));
    }

    #[test]
    fn patterned_cells_are_distinct() {
        let l = Layout::all_data(4, 6);
        let s = Stripe::patterned(&l, 32);
        let a = s.get(&l, Cell::new(0, 0)).clone();
        let b = s.get(&l, Cell::new(0, 1)).clone();
        let c = s.get(&l, Cell::new(1, 0)).clone();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn set_get_roundtrip() {
        let l = Layout::all_data(2, 2);
        let mut s = Stripe::zeroed(&l, 4);
        s.set(&l, Cell::new(1, 1), Arc::from([1u8, 2, 3, 4]));
        assert_eq!(s.get(&l, Cell::new(1, 1)).as_ref(), &[1, 2, 3, 4]);
    }

    #[test]
    fn erase_zeroes_cell() {
        let l = Layout::all_data(2, 2);
        let mut s = Stripe::patterned(&l, 16);
        s.erase(&l, Cell::new(0, 0));
        assert!(s.get(&l, Cell::new(0, 0)).iter().all(|&b| b == 0));
        // Other cells untouched.
        assert!(!s.get(&l, Cell::new(0, 1)).iter().all(|&b| b == 0));
    }

    #[test]
    fn xor_cells_is_associative_xor() {
        let l = Layout::all_data(2, 2);
        let s = Stripe::patterned(&l, 8);
        let cells = [Cell::new(0, 0), Cell::new(0, 1), Cell::new(1, 0)];
        let x = s.xor_cells(&l, &cells);
        let mut manual = vec![0u8; 8];
        for c in cells {
            for (i, b) in s.get(&l, c).iter().enumerate() {
                manual[i] ^= b;
            }
        }
        assert_eq!(x.as_ref(), manual.as_slice());
    }
}

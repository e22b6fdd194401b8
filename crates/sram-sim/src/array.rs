//! The SRAM subarray: a grid of bits with dual-wordline sensing.

use crate::bitrow::BitRow;
use crate::error::SramError;

/// Result of activating two rows simultaneously: every boolean function the
/// modified sense amplifiers of Fig. 5(b) can produce in one access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenseResult {
    /// Bitline AND.
    pub and: BitRow,
    /// Complementary-bitline NOR.
    pub nor: BitRow,
    /// OR (inverter after NOR).
    pub or: BitRow,
    /// XOR (combination of AND and NOR, Fig. 3(b)).
    pub xor: BitRow,
}

impl SenseResult {
    /// An all-zero result buffer of the given width, for reuse with
    /// [`SramArray::sense_into`].
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    #[must_use]
    pub fn zero(cols: usize) -> Self {
        SenseResult {
            and: BitRow::zero(cols),
            nor: BitRow::zero(cols),
            or: BitRow::zero(cols),
            xor: BitRow::zero(cols),
        }
    }
}

/// A `rows × cols` 6T SRAM subarray.
///
/// # Example
///
/// ```
/// use bpntt_sram::{BitRow, SramArray};
///
/// let mut a = SramArray::new(256, 256)?;
/// let mut r = BitRow::zero(256);
/// r.set_tile_word(0, 32, 0b1100);
/// a.write_row(2, r);
/// let mut s = BitRow::zero(256);
/// s.set_tile_word(0, 32, 0b1010);
/// a.write_row(3, s);
/// let sense = a.sense(2, 3);
/// assert_eq!(sense.and.tile_word(0, 32), 0b1000);
/// assert_eq!(sense.xor.tile_word(0, 32), 0b0110);
/// # Ok::<(), bpntt_sram::SramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SramArray {
    rows: Vec<BitRow>,
    cols: usize,
}

impl SramArray {
    /// Creates a zero-initialized array.
    ///
    /// # Errors
    ///
    /// [`SramError::BadGeometry`] when either dimension is zero or the
    /// height exceeds the ISA's 10-bit row address space (1024 rows).
    pub fn new(rows: usize, cols: usize) -> Result<Self, SramError> {
        if rows == 0 || cols == 0 {
            return Err(SramError::BadGeometry {
                rows,
                cols,
                reason: "dimensions must be nonzero",
            });
        }
        if rows > 1024 {
            return Err(SramError::BadGeometry {
                rows,
                cols,
                reason: "row address space is 10 bits (max 1024 rows)",
            });
        }
        Ok(SramArray {
            rows: vec![BitRow::zero(cols); rows],
            cols,
        })
    }

    /// Array height in rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Array width in columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows a row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range (row addresses are validated when
    /// programs are built; an out-of-range access here is a programming
    /// error, like slice indexing).
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &BitRow {
        &self.rows[r]
    }

    /// Mutably borrows a row (used by the allocation-free controller fast
    /// path to write results in place).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut BitRow {
        &mut self.rows[r]
    }

    /// Mutably borrows `N` pairwise-distinct rows at once (used by the
    /// multiplier-chain kernel). Returns `None` when indices repeat or
    /// fall out of range.
    pub(crate) fn rows_disjoint_mut<const N: usize>(
        &mut self,
        idx: [usize; N],
    ) -> Option<[&mut BitRow; N]> {
        self.rows.get_disjoint_mut(idx).ok()
    }

    /// Overwrites a row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the row width differs.
    pub fn write_row(&mut self, r: usize, data: BitRow) {
        assert_eq!(data.cols(), self.cols, "row width mismatch");
        self.rows[r] = data;
    }

    /// Activates rows `r0` and `r1` together and returns every sense-amp
    /// output (the core in-SRAM computing primitive).
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    #[must_use]
    pub fn sense(&self, r0: usize, r1: usize) -> SenseResult {
        let a = &self.rows[r0];
        let b = &self.rows[r1];
        let and = a.and(b);
        let nor = a.nor(b);
        let or = a.or(b);
        let xor = a.xor(b);
        SenseResult { and, nor, or, xor }
    }

    /// Allocation-free [`Self::sense`]: fills a reusable [`SenseResult`]
    /// buffer instead of building a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range or the buffer width differs.
    pub fn sense_into(&self, r0: usize, r1: usize, out: &mut SenseResult) {
        let a = &self.rows[r0];
        let b = &self.rows[r1];
        out.and.assign_and(a, b);
        out.nor.assign_nor(a, b);
        out.or.assign_or(a, b);
        out.xor.assign_xor(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        assert!(SramArray::new(0, 8).is_err());
        assert!(SramArray::new(8, 0).is_err());
        assert!(SramArray::new(2048, 8).is_err());
        let a = SramArray::new(256, 256).unwrap();
        assert_eq!(a.rows(), 256);
        assert_eq!(a.cols(), 256);
    }

    #[test]
    fn sense_produces_consistent_functions() {
        let mut a = SramArray::new(4, 64).unwrap();
        let mut r0 = BitRow::zero(64);
        let mut r1 = BitRow::zero(64);
        r0.set_tile_word(0, 64, 0xFF00_F0F0_1234_5678);
        r1.set_tile_word(0, 64, 0x0FF0_FF00_8765_4321);
        a.write_row(0, r0.clone());
        a.write_row(1, r1.clone());
        let s = a.sense(0, 1);
        assert_eq!(s.and, r0.and(&r1));
        assert_eq!(s.or, r0.or(&r1));
        assert_eq!(s.xor, r0.xor(&r1));
        assert_eq!(s.nor, r0.nor(&r1));
        // De Morgan consistency between the four outputs.
        assert_eq!(s.or.not(), s.nor);
        assert_eq!(s.xor, s.or.and(&s.and.not()));
    }

    #[test]
    fn sense_into_matches_sense() {
        let mut a = SramArray::new(4, 100).unwrap();
        let mut r0 = BitRow::zero(100);
        let mut r1 = BitRow::zero(100);
        for c in (0..100).step_by(3) {
            r0.set_bit(c, true);
        }
        for c in (0..100).step_by(5) {
            r1.set_bit(c, true);
        }
        a.write_row(0, r0);
        a.write_row(1, r1);
        let mut buf = SenseResult::zero(100);
        // Pre-dirty the buffer to prove it is fully overwritten.
        buf.and.set_bit(99, true);
        buf.nor.set_bit(0, true);
        a.sense_into(0, 1, &mut buf);
        assert_eq!(buf, a.sense(0, 1));
    }

    #[test]
    fn sensing_same_row_twice_reads_it() {
        let mut a = SramArray::new(4, 32).unwrap();
        let mut r = BitRow::zero(32);
        r.set_tile_word(0, 32, 0xA5A5_5A5A);
        a.write_row(2, r.clone());
        let s = a.sense(2, 2);
        assert_eq!(s.and, r, "AND of a row with itself is the row");
        assert_eq!(s.xor.count_ones(), 0);
    }
}

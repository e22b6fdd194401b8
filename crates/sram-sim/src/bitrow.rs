//! A fixed-width row of SRAM bits with the operations the bitline
//! periphery can perform.
//!
//! Column `c` of the array maps to bit `c` of the row. Within a tile of
//! width `w`, the word of tile `t` occupies columns `t·w .. (t+1)·w` with
//! its least-significant bit at column `t·w`. A "left" shift moves every
//! bit to the next higher column (multiply by two within a tile); "right"
//! moves it down. Global shifts let bits cross tile boundaries (how BP-NTT
//! merges spilled coefficients); masked shifts inject zero at configured
//! tile boundaries (needed for two's-complement arithmetic whose carry-out
//! is data-dependent — design decision D2 in `DESIGN.md`).

use std::fmt;

/// Storage words per chunk: every row's word vector is padded with zero
/// words up to a multiple of this, so the word-engine's hot loops (see
/// [`crate::wordkern`]) always see whole 256-bit blocks — one AVX2 vector,
/// or four iterations of a fully unrollable scalar loop — with no remainder
/// handling. Bits at and above `cols` are an invariant zero (`clear_tail`).
pub(crate) const WORD_CHUNK: usize = 4;

/// Number of storage words (padded) backing a row of `cols` bits.
#[inline]
#[must_use]
pub(crate) fn padded_words(cols: usize) -> usize {
    cols.div_ceil(64).next_multiple_of(WORD_CHUNK)
}

/// The low `width` bits set (`1 ≤ width ≤ 64`).
#[inline]
fn low_mask(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// One row of bits, indexed by column.
///
/// # Example
///
/// ```
/// use bpntt_sram::BitRow;
///
/// let mut r = BitRow::zero(256);
/// r.set_tile_word(3, 32, 0xDEAD_BEEF);
/// assert_eq!(r.tile_word(3, 32), 0xDEAD_BEEF);
/// assert_eq!(r.tile_word(2, 32), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    words: Vec<u64>,
    cols: usize,
}

impl BitRow {
    /// An all-zero row of `cols` bits.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    #[must_use]
    pub fn zero(cols: usize) -> Self {
        assert!(cols > 0, "a row needs at least one column");
        BitRow {
            words: vec![0; padded_words(cols)],
            cols,
        }
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads bit at column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[inline]
    #[must_use]
    pub fn bit(&self, c: usize) -> bool {
        assert!(c < self.cols, "column {c} out of range");
        (self.words[c / 64] >> (c % 64)) & 1 == 1
    }

    /// Sets bit at column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[inline]
    pub fn set_bit(&mut self, c: usize, v: bool) {
        assert!(c < self.cols, "column {c} out of range");
        let w = &mut self.words[c / 64];
        if v {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// Extracts the `width`-bit word of tile `tile` (LSB at column
    /// `tile·width`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or > 64, or the tile exceeds the row.
    #[must_use]
    pub fn tile_word(&self, tile: usize, width: usize) -> u64 {
        assert!(
            width > 0 && width <= 64,
            "tile width {width} outside 1..=64"
        );
        let base = tile * width;
        assert!(base + width <= self.cols, "tile {tile} out of range");
        // A tile spans at most two storage words.
        let (w, off) = (base / 64, base % 64);
        let mut v = self.words[w] >> off;
        if off + width > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        v & low_mask(width)
    }

    /// Writes the `width`-bit word of tile `tile`.
    ///
    /// # Panics
    ///
    /// Panics on geometry violations or if `value` does not fit `width`.
    pub fn set_tile_word(&mut self, tile: usize, width: usize, value: u64) {
        assert!(
            width > 0 && width <= 64,
            "tile width {width} outside 1..=64"
        );
        assert!(
            width == 64 || value < (1u64 << width),
            "value does not fit tile width"
        );
        let base = tile * width;
        assert!(base + width <= self.cols, "tile {tile} out of range");
        let (w, off) = (base / 64, base % 64);
        let mask = low_mask(width);
        self.words[w] = (self.words[w] & !(mask << off)) | (value << off);
        if off + width > 64 {
            let spill = 64 - off;
            self.words[w + 1] = (self.words[w + 1] & !(mask >> spill)) | (value >> spill);
        }
    }

    /// Bitwise AND of two rows.
    #[must_use]
    pub fn and(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two rows.
    #[must_use]
    pub fn or(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two rows.
    #[must_use]
    pub fn xor(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a ^ b)
    }

    /// Bitwise NOR of two rows (the native 6T dual-activation result on the
    /// complementary bitline).
    #[must_use]
    pub fn nor(&self, other: &BitRow) -> BitRow {
        let mut r = self.zip(other, |a, b| !(a | b));
        r.clear_tail();
        r
    }

    /// Bitwise complement (sensed on the complementary bitline of a single
    /// activated row).
    #[must_use]
    pub fn not(&self) -> BitRow {
        let mut r = BitRow {
            words: self.words.iter().map(|w| !w).collect(),
            cols: self.cols,
        };
        r.clear_tail();
        r
    }

    fn zip(&self, other: &BitRow, f: impl Fn(u64, u64) -> u64) -> BitRow {
        assert_eq!(self.cols, other.cols, "rows must have equal width");
        BitRow {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            cols: self.cols,
        }
    }

    /// Zeroes every bit at column `cols` and above: the partial bits of the
    /// last in-use word plus all chunk-padding words.
    fn clear_tail(&mut self) {
        let used = self.cols.div_ceil(64);
        let rem = self.cols % 64;
        if rem != 0 {
            self.words[used - 1] &= (1u64 << rem) - 1;
        }
        for w in &mut self.words[used..] {
            *w = 0;
        }
    }

    /// Global 1-bit shift toward higher columns; the top bit falls off,
    /// zero enters at column 0. Bits cross tile boundaries.
    #[must_use]
    pub fn shl1_global(&self) -> BitRow {
        let mut words = vec![0u64; self.words.len()];
        let mut carry = 0u64;
        for (i, &w) in self.words.iter().enumerate() {
            words[i] = (w << 1) | carry;
            carry = w >> 63;
        }
        let mut r = BitRow {
            words,
            cols: self.cols,
        };
        r.clear_tail();
        r
    }

    /// Global 1-bit shift toward lower columns; bit 0 falls off, zero
    /// enters at the top column. Bits cross tile boundaries.
    #[must_use]
    pub fn shr1_global(&self) -> BitRow {
        let mut words = vec![0u64; self.words.len()];
        let mut carry = 0u64;
        for (i, &w) in self.words.iter().enumerate().rev() {
            words[i] = (w >> 1) | (carry << 63);
            carry = w & 1;
        }
        BitRow {
            words,
            cols: self.cols,
        }
    }

    /// 1-bit left shift with zero injected at every tile boundary: the bit
    /// leaving tile `t`'s MSB is discarded instead of entering tile `t+1`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` does not divide the column count.
    #[must_use]
    pub fn shl1_masked(&self, tile_width: usize) -> BitRow {
        assert_eq!(self.cols % tile_width, 0, "tile width must divide the row");
        let mut r = self.shl1_global();
        for base in (0..self.cols).step_by(tile_width) {
            r.set_bit(base, false); // the bit that crossed in from below
        }
        r
    }

    /// 1-bit right shift with zero injected at every tile boundary: the bit
    /// leaving tile `t`'s LSB is discarded instead of entering tile `t−1`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` does not divide the column count.
    #[must_use]
    pub fn shr1_masked(&self, tile_width: usize) -> BitRow {
        assert_eq!(self.cols % tile_width, 0, "tile width must divide the row");
        let mut r = self.shr1_global();
        for base in (0..self.cols).step_by(tile_width) {
            r.set_bit(base + tile_width - 1, false);
        }
        r
    }

    // ---- allocation-free in-place operations ------------------------------
    //
    // The controller's hot path (`exec`) routes every instruction through
    // two preallocated scratch rows; these `assign_*` methods compute a
    // peripheral operation directly into `self`'s storage words without
    // touching the allocator. `self` must have the same width as the
    // sources (debug-asserted like the allocating variants assert).

    /// Overwrites `self` with a copy of `src` (same width required).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn copy_from(&mut self, src: &BitRow) {
        assert_eq!(self.cols, src.cols, "rows must have equal width");
        self.words.copy_from_slice(&src.words);
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ← a OP b` without allocating, where `OP` is supplied as a
    /// word-level function (tail bits are the caller's contract: all four
    /// sense functions below maintain a clear tail).
    fn assign_zip(&mut self, a: &BitRow, b: &BitRow, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(a.cols, b.cols, "rows must have equal width");
        assert_eq!(self.cols, a.cols, "rows must have equal width");
        for ((d, &x), &y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *d = f(x, y);
        }
    }

    /// `self ← a AND b` in place.
    pub fn assign_and(&mut self, a: &BitRow, b: &BitRow) {
        self.assign_zip(a, b, |x, y| x & y);
    }

    /// `self ← a OR b` in place.
    pub fn assign_or(&mut self, a: &BitRow, b: &BitRow) {
        self.assign_zip(a, b, |x, y| x | y);
    }

    /// `self ← a XOR b` in place.
    pub fn assign_xor(&mut self, a: &BitRow, b: &BitRow) {
        self.assign_zip(a, b, |x, y| x ^ y);
    }

    /// `self ← a NOR b` in place.
    pub fn assign_nor(&mut self, a: &BitRow, b: &BitRow) {
        self.assign_zip(a, b, |x, y| !(x | y));
        self.clear_tail();
    }

    /// `self ← NOT a` in place.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn assign_not(&mut self, a: &BitRow) {
        assert_eq!(self.cols, a.cols, "rows must have equal width");
        for (d, &x) in self.words.iter_mut().zip(&a.words) {
            *d = !x;
        }
        self.clear_tail();
    }

    /// Global 1-bit left shift of `self` in place (see [`Self::shl1_global`]).
    pub fn shl1_global_in_place(&mut self) {
        let mut carry = 0u64;
        for w in &mut self.words {
            let next = *w >> 63;
            *w = (*w << 1) | carry;
            carry = next;
        }
        self.clear_tail();
    }

    /// Global 1-bit right shift of `self` in place (see [`Self::shr1_global`]).
    pub fn shr1_global_in_place(&mut self) {
        let mut carry = 0u64;
        for w in self.words.iter_mut().rev() {
            let next = *w & 1;
            *w = (*w >> 1) | (carry << 63);
            carry = next;
        }
    }

    /// Tile-masked 1-bit left shift of `self` in place (see
    /// [`Self::shl1_masked`]).
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` does not divide the column count.
    pub fn shl1_masked_in_place(&mut self, tile_width: usize) {
        assert_eq!(self.cols % tile_width, 0, "tile width must divide the row");
        self.shl1_global_in_place();
        for base in (0..self.cols).step_by(tile_width) {
            self.set_bit(base, false);
        }
    }

    /// Tile-masked 1-bit right shift of `self` in place (see
    /// [`Self::shr1_masked`]).
    ///
    /// # Panics
    ///
    /// Panics if `tile_width` does not divide the column count.
    pub fn shr1_masked_in_place(&mut self, tile_width: usize) {
        assert_eq!(self.cols % tile_width, 0, "tile width must divide the row");
        self.shr1_global_in_place();
        for base in (0..self.cols).step_by(tile_width) {
            self.set_bit(base + tile_width - 1, false);
        }
    }

    /// Sets every bit in the column range `start..end` to `value`
    /// (word-masked; used to maintain per-tile predicate column masks).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row.
    pub fn fill_range(&mut self, start: usize, end: usize, value: bool) {
        assert!(
            start <= end && end <= self.cols,
            "column range out of bounds"
        );
        if start == end {
            return;
        }
        let first = start / 64;
        let last = (end - 1) / 64;
        for w in first..=last {
            let lo = if w == first { start % 64 } else { 0 };
            let hi = if w == last { (end - 1) % 64 } else { 63 };
            let mask = (((1u128 << (hi - lo + 1)) - 1) as u64) << lo;
            if value {
                self.words[w] |= mask;
            } else {
                self.words[w] &= !mask;
            }
        }
    }

    /// `self &= mask` word-wise.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and_assign(&mut self, mask: &BitRow) {
        assert_eq!(self.cols, mask.cols, "rows must have equal width");
        for (d, &m) in self.words.iter_mut().zip(&mask.words) {
            *d &= m;
        }
    }

    /// The underlying storage words (bit `c` lives at word `c/64`, bit
    /// `c%64`). The slice length is padded to a multiple of
    /// [`WORD_CHUNK`] and every bit at column `cols` and above is zero —
    /// the two invariants the word-engine kernels rely on.
    #[inline]
    #[must_use]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable storage words. Callers must keep the tail bits clear.
    #[inline]
    #[must_use]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Copies the column range `start..end` from `src` into `self`,
    /// leaving every other column untouched (the word-masked merge behind
    /// per-tile write gating).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or the range exceeds the row.
    pub fn copy_bits_from(&mut self, src: &BitRow, start: usize, end: usize) {
        assert_eq!(self.cols, src.cols, "rows must have equal width");
        assert!(
            start <= end && end <= self.cols,
            "column range out of bounds"
        );
        if start == end {
            return;
        }
        let first = start / 64;
        let last = (end - 1) / 64;
        for w in first..=last {
            let lo = if w == first { start % 64 } else { 0 };
            let hi = if w == last { (end - 1) % 64 } else { 63 };
            let mask = (((1u128 << (hi - lo + 1)) - 1) as u64) << lo;
            self.words[w] = (self.words[w] & !mask) | (src.words[w] & mask);
        }
    }

    /// True when every bit is zero (sensed in hardware by a wired-OR across
    /// the sense amplifiers; used by the carry-resolution loops).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow[{}; ", self.cols)?;
        // Highest column first, like a binary literal.
        for c in (0..self.cols).rev() {
            write!(f, "{}", u8::from(self.bit(c)))?;
            if c % 8 == 0 && c != 0 {
                write!(f, "_")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Word-level tile I/O agrees with a per-bit reference for every
        /// width 1..=64 and every tile index, including tiles that
        /// straddle a storage-word boundary.
        #[test]
        fn tile_words_match_per_bit_reference(seed in proptest::prelude::any::<u64>()) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for width in 1..=64usize {
                // Enough tiles to cross several words, plus a partial tail
                // column so the last tile is not flush with the row end.
                let tiles = 200 / width + 2;
                let cols = tiles * width + 1;
                let mut row = BitRow::zero(cols);
                for c in 0..cols {
                    row.set_bit(c, next() & 1 == 1);
                }
                for t in 0..tiles {
                    let base = t * width;
                    let reference = (0..width)
                        .filter(|&j| row.bit(base + j))
                        .fold(0u64, |v, j| v | (1 << j));
                    proptest::prop_assert_eq!(row.tile_word(t, width), reference);

                    let value = next() & low_mask(width);
                    let mut expect = row.clone();
                    for j in 0..width {
                        expect.set_bit(base + j, (value >> j) & 1 == 1);
                    }
                    row.set_tile_word(t, width, value);
                    proptest::prop_assert_eq!(&row, &expect);
                }
            }
        }
    }

    #[test]
    fn tile_word_roundtrip() {
        let mut r = BitRow::zero(256);
        for t in 0..8 {
            r.set_tile_word(t, 32, 0x0123_4567 * (t as u64 + 1));
        }
        for t in 0..8 {
            assert_eq!(r.tile_word(t, 32), 0x0123_4567 * (t as u64 + 1));
        }
    }

    #[test]
    fn logic_ops_match_u64_semantics() {
        let mut a = BitRow::zero(96);
        let mut b = BitRow::zero(96);
        a.set_tile_word(0, 48, 0xF0F0_1234_ABCD);
        b.set_tile_word(0, 48, 0x0FF0_5678_00FF);
        assert_eq!(
            a.and(&b).tile_word(0, 48),
            0xF0F0_1234_ABCD & 0x0FF0_5678_00FF
        );
        assert_eq!(
            a.or(&b).tile_word(0, 48),
            0xF0F0_1234_ABCD | 0x0FF0_5678_00FF
        );
        assert_eq!(
            a.xor(&b).tile_word(0, 48),
            0xF0F0_1234_ABCD ^ 0x0FF0_5678_00FF
        );
        let mask = (1u64 << 48) - 1;
        assert_eq!(
            a.nor(&b).tile_word(0, 48),
            !(0xF0F0_1234_ABCDu64 | 0x0FF0_5678_00FF) & mask
        );
        assert_eq!(a.not().tile_word(0, 48), !0xF0F0_1234_ABCDu64 & mask);
    }

    #[test]
    fn global_shifts_cross_tile_boundaries() {
        let mut r = BitRow::zero(64);
        // Two 32-bit tiles; set tile 0's MSB.
        r.set_bit(31, true);
        let l = r.shl1_global();
        assert!(l.bit(32), "bit must cross into tile 1's LSB");
        let back = l.shr1_global();
        assert!(back.bit(31));
        assert_eq!(back, r);
    }

    #[test]
    fn masked_shifts_block_tile_boundaries() {
        let mut r = BitRow::zero(64);
        r.set_bit(31, true); // tile 0 MSB
        r.set_bit(32, true); // tile 1 LSB
        let l = r.shl1_masked(32);
        assert!(!l.bit(32), "crossing bit must be discarded");
        assert!(l.bit(33), "in-tile shift still happens");
        let s = r.shr1_masked(32);
        assert!(!s.bit(31), "crossing bit must be discarded");
        assert!(s.bit(30));
    }

    #[test]
    fn shifts_at_word_boundaries() {
        // 128 columns = two u64 words; exercise the inter-word carry.
        let mut r = BitRow::zero(128);
        r.set_bit(63, true);
        assert!(r.shl1_global().bit(64));
        let mut r = BitRow::zero(128);
        r.set_bit(64, true);
        assert!(r.shr1_global().bit(63));
    }

    #[test]
    fn top_bit_falls_off_and_tail_stays_clear() {
        let mut r = BitRow::zero(100);
        r.set_bit(99, true);
        let l = r.shl1_global();
        assert!(l.is_zero(), "bit above column 99 must not linger");
        let n = r.not();
        assert_eq!(n.count_ones(), 99);
    }

    #[test]
    fn odd_tile_widths() {
        // 3 tiles of 14 bits in a 42-column row (the paper's 14-bit mode).
        let mut r = BitRow::zero(42);
        r.set_tile_word(0, 14, 0x3FFF);
        r.set_tile_word(2, 14, 0x2AAA);
        assert_eq!(r.tile_word(0, 14), 0x3FFF);
        assert_eq!(r.tile_word(1, 14), 0);
        assert_eq!(r.tile_word(2, 14), 0x2AAA);
        let l = r.shl1_masked(14);
        assert_eq!(l.tile_word(0, 14), 0x3FFE);
        assert_eq!(l.tile_word(1, 14), 0);
        assert_eq!(l.tile_word(2, 14), (0x2AAA << 1) & 0x3FFF);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_bounds_checked() {
        let r = BitRow::zero(10);
        let _ = r.bit(10);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let r = BitRow::zero(8);
        assert!(format!("{r:?}").contains("BitRow[8"));
    }

    fn random_row(cols: usize, seed: u64) -> BitRow {
        let mut r = BitRow::zero(cols);
        let mut x = seed | 1;
        for c in 0..cols {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r.set_bit(c, x & 1 == 1);
        }
        r
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        for cols in [42, 64, 100, 256] {
            let a = random_row(cols, 11);
            let b = random_row(cols, 22);
            let mut s = BitRow::zero(cols);
            s.assign_and(&a, &b);
            assert_eq!(s, a.and(&b));
            s.assign_or(&a, &b);
            assert_eq!(s, a.or(&b));
            s.assign_xor(&a, &b);
            assert_eq!(s, a.xor(&b));
            s.assign_nor(&a, &b);
            assert_eq!(s, a.nor(&b));
            s.assign_not(&a);
            assert_eq!(s, a.not());
            s.copy_from(&a);
            assert_eq!(s, a);
            s.clear();
            assert!(s.is_zero());
        }
    }

    #[test]
    fn in_place_shifts_match_allocating_shifts() {
        for cols in [42, 64, 100, 256] {
            let a = random_row(cols, 33);
            let mut s = a.clone();
            s.shl1_global_in_place();
            assert_eq!(s, a.shl1_global(), "cols={cols}");
            let mut s = a.clone();
            s.shr1_global_in_place();
            assert_eq!(s, a.shr1_global(), "cols={cols}");
        }
        // Masked variants on widths that divide the row.
        for (cols, w) in [(42, 14), (64, 16), (256, 32)] {
            let a = random_row(cols, 44);
            let mut s = a.clone();
            s.shl1_masked_in_place(w);
            assert_eq!(s, a.shl1_masked(w));
            let mut s = a.clone();
            s.shr1_masked_in_place(w);
            assert_eq!(s, a.shr1_masked(w));
        }
    }

    #[test]
    fn storage_is_chunk_padded_and_tail_stays_clear() {
        for cols in [1, 42, 64, 100, 256, 300] {
            let r = BitRow::zero(cols);
            assert_eq!(r.words().len() % WORD_CHUNK, 0, "cols={cols}");
            assert_eq!(r.words().len(), padded_words(cols));
            // Every operation that could smear into the padding must keep
            // it clear: complement is the worst case.
            let n = random_row(cols, 77).not();
            let used = cols.div_ceil(64);
            for (i, &w) in n.words().iter().enumerate().skip(used) {
                assert_eq!(w, 0, "padding word {i} dirty at cols={cols}");
            }
            let mut s = BitRow::zero(cols);
            s.assign_not(&random_row(cols, 78));
            for &w in s.words().iter().skip(used) {
                assert_eq!(w, 0);
            }
            let mut s = random_row(cols, 79);
            s.shl1_global_in_place();
            for &w in s.words().iter().skip(used) {
                assert_eq!(w, 0);
            }
        }
    }

    #[test]
    fn copy_bits_from_merges_ranges() {
        let src = random_row(200, 55);
        for (start, end) in [
            (0, 200),
            (0, 0),
            (13, 14),
            (60, 70),
            (64, 128),
            (130, 199),
            (0, 64),
        ] {
            let mut dst = random_row(200, 66);
            let before = dst.clone();
            dst.copy_bits_from(&src, start, end);
            for c in 0..200 {
                let expect = if (start..end).contains(&c) {
                    src.bit(c)
                } else {
                    before.bit(c)
                };
                assert_eq!(dst.bit(c), expect, "col {c} range {start}..{end}");
            }
        }
    }
}

//! A measured bit-serial (Neural-Cache-style) modular-multiplication
//! kernel on the same SRAM simulator.
//!
//! Bit-serial in-SRAM arithmetic stores data *transposed*: bit `b` of every
//! coefficient lives in row `base + b`, one coefficient per column, and the
//! sense amplifiers process one bit position of **all** coefficients per
//! activation. Two consequences the paper leans on:
//!
//! * the radix-2 Montgomery "halve" step is a row *relabeling* — free, no
//!   shifts — but every addition serializes over the `w` bit rows
//!   (`O(w)` activations per add, `O(w²)` per multiplication), and
//! * operands must be stacked vertically, which demands long columns
//!   (the paper: "4096 rows for a 128-point 32-bit polynomial"), a poor
//!   fit for commodity subarrays.
//!
//! [`BitSerialKernel`] implements interleaved Montgomery multiplication in
//! this style — validated against the word-level reference — so the
//! ablation study can compare *measured* cycles, shifts, and row budgets
//! between the bit-serial and bit-parallel formulations instead of quoting
//! the paper.

use bpntt_sram::{
    BitOp, BitRow, Controller, Instruction, PredMode, RowAddr, SramArray, SramError, Stats,
    UnaryKind,
};

/// Row-budget accounting of the transposed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSerialLayout {
    /// Operand `B`: `w` bit rows.
    pub b_rows: usize,
    /// Constant modulus `M`: `w` bit rows (all-ones / all-zeros patterns).
    pub m_rows: usize,
    /// Accumulator window: `2w + 1` rows (the window slides one row per
    /// Montgomery iteration — that is the "free" halving).
    pub p_rows: usize,
    /// Carry plus two half-adder temporaries.
    pub temp_rows: usize,
}

impl BitSerialLayout {
    /// Budget for `w`-bit operands.
    #[must_use]
    pub fn for_width(w: usize) -> Self {
        BitSerialLayout {
            b_rows: w,
            m_rows: w,
            p_rows: 2 * w + 1,
            temp_rows: 3,
        }
    }

    /// Total rows needed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.b_rows + self.m_rows + self.p_rows + self.temp_rows
    }
}

/// A bit-serial Montgomery multiplier: multiplies every column's operand by
/// a compile-time constant `a`, producing `a·B·R⁻¹` per column.
#[derive(Debug)]
pub struct BitSerialKernel {
    ctl: Controller,
    w: usize,
    q: u64,
    n_cols: usize,
    // row bases
    b_base: usize,
    m_base: usize,
    p_base: usize,
    carry_row: usize,
    t0_row: usize,
    t1_row: usize,
}

impl BitSerialKernel {
    /// Builds a kernel processing `n_cols` coefficients of `w` bits modulo
    /// odd `q < 2^(w−1)`.
    ///
    /// # Errors
    ///
    /// Propagates simulator geometry errors.
    ///
    /// # Panics
    ///
    /// Panics if `q` violates the width/headroom requirements.
    pub fn new(n_cols: usize, w: usize, q: u64) -> Result<Self, SramError> {
        assert!((2..=63).contains(&w), "width {w} outside 2..=63");
        assert!(
            q % 2 == 1 && q < (1u64 << (w - 1)),
            "modulus needs headroom"
        );
        let layout = BitSerialLayout::for_width(w);
        let rows = layout.total();
        let array = SramArray::new(rows, n_cols)?;
        // Tile width 1: every column is its own lane, with per-column
        // predication through `Check` — the transposed dual of BP-NTT.
        let mut ctl = Controller::new(array, 1)?;
        let b_base = 0;
        let m_base = w;
        let p_base = 2 * w;
        let carry_row = 4 * w + 1;
        let t0_row = 4 * w + 2;
        let t1_row = 4 * w + 3;
        // Install the modulus pattern rows: bit b of M replicated across
        // all columns.
        for b in 0..w {
            let mut row = BitRow::zero(n_cols);
            if (q >> b) & 1 == 1 {
                for c in 0..n_cols {
                    row.set_bit(c, true);
                }
            }
            ctl.load_data_row(m_base + b, row);
        }
        Ok(BitSerialKernel {
            ctl,
            w,
            q,
            n_cols,
            b_base,
            m_base,
            p_base,
            carry_row,
            t0_row,
            t1_row,
        })
    }

    /// Loads one `w`-bit operand per column.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_cols` or any value is unreduced.
    pub fn load_operands(&mut self, values: &[u64]) {
        assert_eq!(values.len(), self.n_cols);
        assert!(
            values.iter().all(|&v| v < self.q),
            "operands must be reduced"
        );
        for b in 0..self.w {
            let mut row = BitRow::zero(self.n_cols);
            for (c, &v) in values.iter().enumerate() {
                row.set_bit(c, (v >> b) & 1 == 1);
            }
            self.ctl.load_data_row(self.b_base + b, row);
        }
        // Clear the accumulator window.
        for r in 0..(2 * self.w + 1) {
            self.ctl
                .execute(&Instruction::Unary {
                    dst: RowAddr((self.p_base + r) as u16),
                    src: RowAddr((self.p_base + r) as u16),
                    kind: UnaryKind::Zero,
                    pred: PredMode::Always,
                })
                .expect("in-range rows");
        }
    }

    /// Bit-serial ripple addition of the row set starting at `addend_base`
    /// into the accumulator window at `p` (both `w` rows), optionally
    /// predicated per column.
    fn add_rows(&mut self, p: usize, addend_base: usize, pred: PredMode) -> Result<(), SramError> {
        let carry = RowAddr(self.carry_row as u16);
        let t0 = RowAddr(self.t0_row as u16);
        let t1 = RowAddr(self.t1_row as u16);
        self.ctl.execute(&Instruction::Unary {
            dst: carry,
            src: carry,
            kind: UnaryKind::Zero,
            pred,
        })?;
        for b in 0..self.w {
            let pb = RowAddr((p + b) as u16);
            let ab = RowAddr((addend_base + b) as u16);
            // t0 = P_b ⊕ A_b ; t1 = P_b ∧ A_b (one activation).
            self.ctl.execute(&Instruction::Binary {
                dst: t0,
                op: BitOp::Xor,
                src0: pb,
                src1: ab,
                dst2: Some((t1, BitOp::And)),
                shift: None,
                pred,
            })?;
            // P_b = t0 ⊕ C ; t0 = t0 ∧ C (carry propagate part).
            self.ctl.execute(&Instruction::Binary {
                dst: pb,
                op: BitOp::Xor,
                src0: t0,
                src1: carry,
                dst2: Some((t0, BitOp::And)),
                shift: None,
                pred,
            })?;
            // C = t1 ∨ t0 (generate | propagate·carry).
            self.ctl.execute(&Instruction::Binary {
                dst: carry,
                op: BitOp::Or,
                src0: t1,
                src1: t0,
                dst2: None,
                shift: None,
                pred,
            })?;
        }
        // Carry out of the top bit extends the accumulator window.
        self.ctl.execute(&Instruction::Binary {
            dst: RowAddr((p + self.w) as u16),
            op: BitOp::Or,
            src0: RowAddr((p + self.w) as u16),
            src1: carry,
            dst2: None,
            shift: None,
            pred,
        })?;
        Ok(())
    }

    /// Runs the interleaved Montgomery multiplication by constant `a`:
    /// each column `c` ends with `a · B_c · R⁻¹ (mod q)`, `< 2q`.
    ///
    /// The halving step advances the accumulator window by one row —
    /// observe that the kernel executes **zero shift instructions**
    /// (`stats().counts.shift_moves() == 0`): bit-serial designs trade
    /// shifts for `O(w²)` serialized activations and tall arrays.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    ///
    /// # Panics
    ///
    /// Panics if `a` is unreduced.
    pub fn modmul_const(&mut self, a: u64) -> Result<(), SramError> {
        assert!(a < self.q);
        for i in 0..self.w {
            let p = self.p_base + i; // window slides: the free ">> 1"
            if (a >> i) & 1 == 1 {
                self.add_rows(p, self.b_base, PredMode::Always)?;
            }
            // Conditional +M on odd accumulators, per column.
            self.ctl.execute(&Instruction::Check {
                src: RowAddr(p as u16),
                bit: 0,
            })?;
            self.add_rows(p, self.m_base, PredMode::IfSet)?;
        }
        Ok(())
    }

    /// Reads each column's accumulator (`w + 1` bits, value `< 2q`).
    #[must_use]
    pub fn read_results(&mut self) -> Vec<u64> {
        let p = self.p_base + self.w;
        let mut out = vec![0u64; self.n_cols];
        for b in 0..=self.w {
            let row = self.ctl.read_data_row(p + b);
            for (c, v) in out.iter_mut().enumerate() {
                if row.bit(c) {
                    *v |= 1 << b;
                }
            }
        }
        out
    }

    /// Simulator statistics so far.
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.ctl.stats()
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.ctl.reset_stats();
    }

    /// Number of columns (parallel coefficients).
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Word width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }
}

/// Analytic bit-serial NTT cost: butterflies × (one modmul + two ripple
/// adds), using a *measured* per-modmul cycle count.
#[must_use]
pub fn ntt_cycles_estimate(n: usize, modmul_cycles: u64, w: usize) -> u64 {
    let butterflies = (n as u64 / 2) * n.trailing_zeros() as u64;
    // Two modular add/subtracts at ~5 activations per bit row, plus the
    // conditional correction pass.
    let addsub = 2 * (5 * w as u64 + 2) + (5 * w as u64) / 2;
    butterflies * (modmul_cycles + addsub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_modmath::montgomery::MontCtx;
    use bpntt_modmath::zq::reduce_once;

    #[test]
    fn layout_row_budget() {
        // The paper's point: 32-bit bit-serial arithmetic needs >130 rows
        // of operand stack — far taller than BP-NTT's 6 spare rows.
        let l = BitSerialLayout::for_width(32);
        assert_eq!(l.total(), 32 + 32 + 65 + 3);
        assert!(l.total() > 130);
    }

    #[test]
    fn modmul_matches_reference_for_all_columns() {
        let q = 7681u64; // 13-bit prime, w = 14
        let w = 14;
        let ctx = MontCtx::new(q, w as u32).unwrap();
        let n_cols = 64;
        let mut k = BitSerialKernel::new(n_cols, w, q).unwrap();
        let operands: Vec<u64> = (0..n_cols as u64).map(|c| (c * 131 + 7) % q).collect();
        k.load_operands(&operands);
        let a = 1234 % q;
        k.modmul_const(a).unwrap();
        let got = k.read_results();
        for (c, (&b, &raw)) in operands.iter().zip(&got).enumerate() {
            assert!(raw < 2 * q, "column {c} raw {raw}");
            assert_eq!(reduce_once(raw, q), ctx.mont_mul(a, b), "column {c}");
        }
    }

    #[test]
    fn bit_serial_needs_no_shifts_but_many_cycles() {
        let q = 97u64;
        let w = 8;
        let mut k = BitSerialKernel::new(16, w, q).unwrap();
        k.load_operands(&[5; 16]);
        k.reset_stats();
        k.modmul_const(42).unwrap();
        let s = k.stats();
        assert_eq!(s.counts.shift_moves(), 0, "transposed layout never shifts");
        // ≥3 activations per bit row per conditional add, w iterations:
        // the cycle count is quadratic in the width.
        assert!(
            s.cycles > (3 * 8 * 8) as u64,
            "w² serialization: got {}",
            s.cycles
        );
    }

    #[test]
    fn estimate_is_monotonic() {
        assert!(ntt_cycles_estimate(256, 2000, 16) > ntt_cycles_estimate(128, 2000, 16));
        assert!(ntt_cycles_estimate(256, 4000, 16) > ntt_cycles_estimate(256, 2000, 16));
    }
}

//! Timing and energy models for in-SRAM instructions.
//!
//! The paper extracts cycle time, energy, and area from PyMTL3 + OpenRAM +
//! Synopsys DC + Cadence Innovus at 45 nm; those tools only feed scalar
//! constants into the evaluation. We expose the same scalars as documented
//! model parameters, **calibrated once at the paper's design point**
//! (256×256 array, 16-bit coefficients, 256-point NTT → 61.9 µs @ 3.8 GHz
//! and 69.4 nJ per batch; see `EXPERIMENTS.md` for the calibration run) and
//! derive every sweep and comparison from simulated instruction counts.
//!
//! `Stats` are integer class counts; [`TimingModel::price`] and
//! [`EnergyModel::price`] price cycles and energy from them on read. The
//! per-instruction [`TimingModel::cycles`] and [`EnergyModel::energy_pj`]
//! state the same costs one instruction at a time.

use crate::isa::Instruction;
use crate::stats::InstrCounts;

/// Cycles charged per instruction class.
///
/// The default ("paper") model charges one cycle per instruction: a
/// dual-row activation, its sense, and up to two latched write-backs
/// complete within one clock at the OpenRAM-extracted 3.8 GHz — this is the
/// step counting of the paper's Fig. 6 walk-through. The conservative model
/// charges activation and each write-back separately for sensitivity
/// studies (the ablation harness sweeps both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingModel {
    /// `Check` predicate latch.
    pub check: u64,
    /// `CheckZero` wired-OR sense.
    pub check_zero: u64,
    /// `MaskTiles` / `MaskAll` configuration write.
    pub mask: u64,
    /// `Unary` copy/complement/clear.
    pub unary: u64,
    /// Explicit `Shift`.
    pub shift: u64,
    /// `Binary` dual-row activation with one write-back.
    pub binary: u64,
    /// Extra cycles for a `Binary`'s second write-back.
    pub second_writeback: u64,
    /// Loading / storing one data row over the normal SRAM port.
    pub row_io: u64,
}

impl TimingModel {
    /// The paper's single-cycle-per-step model (Fig. 6 step counting).
    #[must_use]
    pub fn paper() -> Self {
        TimingModel {
            check: 1,
            check_zero: 1,
            mask: 1,
            unary: 1,
            shift: 1,
            binary: 1,
            second_writeback: 0,
            row_io: 1,
        }
    }

    /// A pessimistic model: every write-back is a separate cycle after the
    /// activation (2 cycles for unary/shift/binary, +1 per extra
    /// write-back). Used by the ablation benches to bound the claims.
    #[must_use]
    pub fn conservative() -> Self {
        TimingModel {
            check: 1,
            check_zero: 1,
            mask: 1,
            unary: 2,
            shift: 2,
            binary: 2,
            second_writeback: 1,
            row_io: 1,
        }
    }

    /// Cycles for one instruction.
    #[must_use]
    pub fn cycles(&self, instr: &Instruction) -> u64 {
        match instr {
            Instruction::Check { .. } => self.check,
            Instruction::CheckZero { .. } => self.check_zero,
            Instruction::MaskTiles { .. } | Instruction::MaskAll => self.mask,
            Instruction::Unary { .. } => self.unary,
            Instruction::Shift { .. } => self.shift,
            Instruction::Binary { dst2, .. } => {
                self.binary
                    + if dst2.is_some() {
                        self.second_writeback
                    } else {
                        0
                    }
            }
        }
    }

    /// Cycles for `counts` executed instructions plus `row_io` data-row
    /// loads/stores: exactly the sum of [`Self::cycles`] over the
    /// instructions plus `row_io × self.row_io`.
    #[must_use]
    pub fn price(&self, counts: &InstrCounts, row_io: u64) -> u64 {
        counts.check * self.check
            + counts.check_zero * self.check_zero
            + counts.mask * self.mask
            + counts.unary * self.unary
            + counts.shift * self.shift
            + counts.binary * self.binary
            + counts.second_writebacks * self.second_writeback
            + row_io * self.row_io
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::paper()
    }
}

/// Dynamic energy charged per instruction, built from per-column
/// femtojoule constants (bitline swing + sense amplifier) plus a
/// per-instruction control overhead.
///
/// Defaults are calibrated at 45 nm so the paper's design point
/// (16-bit × 256-point batch on a 256×256 array) lands at ≈69 nJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Dual-row activation + sense, per column (fJ).
    pub sense_fj_per_col: f64,
    /// Single-row activation + sense (`Check`/`CheckZero`/`Unary` source), per column (fJ).
    pub sense_single_fj_per_col: f64,
    /// One write-back, per column (fJ).
    pub write_fj_per_col: f64,
    /// Instruction issue/decode overhead from the CTRL/CMD subarray (fJ).
    pub control_fj: f64,
    /// Normal SRAM port row read/write, per column (fJ).
    pub row_io_fj_per_col: f64,
}

impl EnergyModel {
    /// 45 nm constants (calibration documented in `EXPERIMENTS.md`: chosen
    /// so the paper's design point — 16 lanes × 256-point × 16-bit on the
    /// 262×256 array — lands at Table I's ≈69 nJ per batch).
    #[must_use]
    pub fn cmos_45nm() -> Self {
        EnergyModel {
            sense_fj_per_col: 0.68,
            sense_single_fj_per_col: 0.40,
            write_fj_per_col: 0.33,
            control_fj: 15.0,
            row_io_fj_per_col: 1.20,
        }
    }

    /// Energy in picojoules for one instruction on a `cols`-wide array.
    #[must_use]
    pub fn energy_pj(&self, instr: &Instruction, cols: usize) -> f64 {
        let c = cols as f64;
        let fj = match instr {
            Instruction::Check { .. } | Instruction::CheckZero { .. } => {
                self.sense_single_fj_per_col * c + self.control_fj
            }
            Instruction::MaskTiles { .. } | Instruction::MaskAll => self.control_fj,
            Instruction::Unary { kind, .. } => {
                let read = match kind {
                    crate::isa::UnaryKind::Zero => 0.0,
                    _ => self.sense_single_fj_per_col * c,
                };
                read + self.write_fj_per_col * c + self.control_fj
            }
            Instruction::Shift { .. } => {
                self.sense_single_fj_per_col * c + self.write_fj_per_col * c + self.control_fj
            }
            Instruction::Binary { dst2, .. } => {
                let writes = if dst2.is_some() { 2.0 } else { 1.0 };
                self.sense_fj_per_col * c + writes * self.write_fj_per_col * c + self.control_fj
            }
        };
        fj / 1000.0
    }

    /// Energy in picojoules for one data-row load/store over the SRAM port.
    #[must_use]
    pub fn row_io_pj(&self, cols: usize) -> f64 {
        self.row_io_fj_per_col * cols as f64 / 1000.0
    }

    /// Energy in picojoules for `counts` executed instructions plus
    /// `row_io` data-row loads/stores on a `cols`-wide array. Each
    /// instruction class is priced at the per-instruction
    /// [`Self::energy_pj`] value of its kind, times its count, so the
    /// result equals the sum of `energy_pj` over the instructions up to
    /// floating-point rounding.
    #[must_use]
    pub fn price(&self, counts: &InstrCounts, row_io: u64, cols: usize) -> f64 {
        let c = cols as f64;
        let read1 = self.sense_single_fj_per_col * c;
        let read2 = self.sense_fj_per_col * c;
        let write = self.write_fj_per_col * c;
        let ctl = self.control_fj;
        let n = |k: u64| k as f64;
        let fj = n(counts.check + counts.check_zero) * (read1 + ctl)
            + n(counts.mask) * ctl
            + n(counts.unary - counts.unary_zero) * (read1 + write + ctl)
            + n(counts.unary_zero) * (write + ctl)
            + n(counts.shift) * (read1 + write + ctl)
            + n(counts.binary - counts.second_writebacks) * (read2 + write + ctl)
            + n(counts.second_writebacks) * (read2 + 2.0 * write + ctl);
        fj / 1000.0 + n(row_io) * self.row_io_pj(cols)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::cmos_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BitOp, PredMode, RowAddr, ShiftDir, UnaryKind};

    fn binary(dual: bool) -> Instruction {
        Instruction::Binary {
            dst: RowAddr(0),
            op: BitOp::And,
            src0: RowAddr(1),
            src1: RowAddr(2),
            dst2: dual.then_some((RowAddr(3), BitOp::Xor)),
            shift: None,
            pred: PredMode::Always,
        }
    }

    #[test]
    fn paper_model_is_single_cycle() {
        let t = TimingModel::paper();
        assert_eq!(t.cycles(&binary(true)), 1);
        assert_eq!(t.cycles(&binary(false)), 1);
        assert_eq!(
            t.cycles(&Instruction::Shift {
                dst: RowAddr(0),
                src: RowAddr(0),
                dir: ShiftDir::Left,
                masked: false,
                pred: PredMode::Always
            }),
            1
        );
    }

    #[test]
    fn conservative_model_charges_writebacks() {
        let t = TimingModel::conservative();
        assert_eq!(t.cycles(&binary(false)), 2);
        assert_eq!(t.cycles(&binary(true)), 3);
    }

    #[test]
    fn energy_scales_with_columns() {
        let e = EnergyModel::cmos_45nm();
        let narrow = e.energy_pj(&binary(true), 64);
        let wide = e.energy_pj(&binary(true), 256);
        assert!(
            wide > narrow * 3.0 && wide < narrow * 4.0,
            "near-linear in columns"
        );
    }

    #[test]
    fn dual_writeback_costs_more_energy() {
        let e = EnergyModel::cmos_45nm();
        assert!(e.energy_pj(&binary(true), 256) > e.energy_pj(&binary(false), 256));
    }

    #[test]
    fn zero_write_skips_the_read_energy() {
        let e = EnergyModel::cmos_45nm();
        let zero = Instruction::Unary {
            dst: RowAddr(0),
            src: RowAddr(0),
            kind: UnaryKind::Zero,
            pred: PredMode::Always,
        };
        let copy = Instruction::Unary {
            dst: RowAddr(0),
            src: RowAddr(1),
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        };
        assert!(e.energy_pj(&zero, 256) < e.energy_pj(&copy, 256));
    }
}

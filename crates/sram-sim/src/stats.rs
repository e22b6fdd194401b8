//! Execution statistics: cycles, energy, and per-class instruction counts.
//!
//! `Stats` are integer class counts; `cost.rs` prices cycles and energy
//! from them on read.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counts of executed instructions by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrCounts {
    /// `Check` predicate latches.
    pub check: u64,
    /// `CheckZero` wired-OR senses.
    pub check_zero: u64,
    /// `MaskTiles` / `MaskAll` configuration writes.
    pub mask: u64,
    /// `Unary` copies/complements/clears.
    pub unary: u64,
    /// Explicit `Shift` instructions.
    pub shift: u64,
    /// `Binary` dual-row activations.
    pub binary: u64,
    /// Second write-backs riding on `Binary` activations.
    pub second_writebacks: u64,
    /// `Unary` zero-fills (no source read; a subset of `unary`).
    pub unary_zero: u64,
    /// Shifts fused into `Binary` write-backs.
    pub fused_shifts: u64,
}

impl InstrCounts {
    /// Total instructions executed (second write-backs and fused shifts are
    /// attributes of their `Binary`, zero-fills of their `Unary`, not
    /// separate instructions).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.check + self.check_zero + self.mask + self.unary + self.shift + self.binary
    }

    /// Total one-column data movements — explicit shifts plus fused shifts.
    /// This is the quantity behind the paper's "the number of shifts in our
    /// bit-parallel design is half of the prior bit-serial solutions".
    #[must_use]
    pub fn shift_moves(&self) -> u64 {
        self.shift + self.fused_shifts
    }

    /// Tallies one instruction into its class counter — the single
    /// definition of how instructions map to counters, shared by live
    /// execution and program compilation (so the two can never classify
    /// differently).
    pub fn record(&mut self, i: &crate::isa::Instruction) {
        use crate::isa::Instruction as I;
        match i {
            I::Check { .. } => self.check += 1,
            I::CheckZero { .. } => self.check_zero += 1,
            I::MaskTiles { .. } | I::MaskAll => self.mask += 1,
            I::Unary { kind, .. } => {
                self.unary += 1;
                if *kind == crate::isa::UnaryKind::Zero {
                    self.unary_zero += 1;
                }
            }
            I::Shift { .. } => self.shift += 1,
            I::Binary { dst2, shift, .. } => {
                self.binary += 1;
                if dst2.is_some() {
                    self.second_writebacks += 1;
                }
                if shift.is_some() {
                    self.fused_shifts += 1;
                }
            }
        }
    }

    /// Every count multiplied by `k` (batched accounting of `k` identical
    /// instruction groups).
    #[must_use]
    pub fn scaled(&self, k: u64) -> InstrCounts {
        InstrCounts {
            check: self.check * k,
            check_zero: self.check_zero * k,
            mask: self.mask * k,
            unary: self.unary * k,
            shift: self.shift * k,
            binary: self.binary * k,
            second_writebacks: self.second_writebacks * k,
            unary_zero: self.unary_zero * k,
            fused_shifts: self.fused_shifts * k,
        }
    }
}

impl Add for InstrCounts {
    type Output = InstrCounts;
    fn add(self, o: InstrCounts) -> InstrCounts {
        InstrCounts {
            check: self.check + o.check,
            check_zero: self.check_zero + o.check_zero,
            mask: self.mask + o.mask,
            unary: self.unary + o.unary,
            shift: self.shift + o.shift,
            binary: self.binary + o.binary,
            second_writebacks: self.second_writebacks + o.second_writebacks,
            unary_zero: self.unary_zero + o.unary_zero,
            fused_shifts: self.fused_shifts + o.fused_shifts,
        }
    }
}

impl AddAssign for InstrCounts {
    fn add_assign(&mut self, o: InstrCounts) {
        *self = *self + o;
    }
}

/// Word-engine fast-path coverage counters: how the fused superops and
/// loops actually executed. Tracked separately from [`Stats`] — coverage
/// is an *execution-strategy* diagnostic, deliberately excluded from the
/// replay≡emission bit-identity contract (a generic emission run has zero
/// fused executions yet identical [`Stats`]).
///
/// Watch these to catch "the fast path silently stopped firing": a
/// matcher or dispatch regression shows up here as `*_per_step` /
/// `fallback` growth long before it is visible as a wall-clock mystery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastPathStats {
    /// Multiplier chains executed register-resident (rows loaded once).
    pub chains_resident: u64,
    /// Multiplier chains executed through the per-step word kernels
    /// (row too wide for the resident window, or scalar dispatch).
    pub chains_per_step: u64,
    /// Carry-resolution loops of typed epilogues executed
    /// register-resident (two per epilogue).
    pub resolve_loops_resident: u64,
    /// Carry-resolution loops of typed epilogues executed by the scalar
    /// epilogue kernel.
    pub resolve_loops_per_step: u64,
    /// Fused superop executions: add-B and halve steps outside a chain,
    /// and typed butterfly epilogues (one each).
    pub superops_fused: u64,
    /// Fused-shape executions that fell back to generic per-instruction
    /// execution (tile mask active, or aliasing rows).
    pub fallbacks: u64,
}

impl FastPathStats {
    /// Total fast-path executions (anything that avoided the generic
    /// per-instruction path).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.chains_resident
            + self.chains_per_step
            + self.resolve_loops_resident
            + self.resolve_loops_per_step
            + self.superops_fused
    }

    /// Register-resident executions only (the chain/loop fast paths this
    /// coverage telemetry exists to guard).
    #[must_use]
    pub fn resident_hits(&self) -> u64 {
        self.chains_resident + self.resolve_loops_resident
    }
}

impl Add for FastPathStats {
    type Output = FastPathStats;
    fn add(self, o: FastPathStats) -> FastPathStats {
        FastPathStats {
            chains_resident: self.chains_resident + o.chains_resident,
            chains_per_step: self.chains_per_step + o.chains_per_step,
            resolve_loops_resident: self.resolve_loops_resident + o.resolve_loops_resident,
            resolve_loops_per_step: self.resolve_loops_per_step + o.resolve_loops_per_step,
            superops_fused: self.superops_fused + o.superops_fused,
            fallbacks: self.fallbacks + o.fallbacks,
        }
    }
}

impl AddAssign for FastPathStats {
    fn add_assign(&mut self, o: FastPathStats) {
        *self = *self + o;
    }
}

impl fmt::Display for FastPathStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chains {}+{} (resident+per-step), resolve loops {}+{}, superops {}, fallbacks {}",
            self.chains_resident,
            self.chains_per_step,
            self.resolve_loops_resident,
            self.resolve_loops_per_step,
            self.superops_fused,
            self.fallbacks
        )
    }
}

/// Aggregate execution statistics of a controller run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stats {
    /// Elapsed compute cycles, priced from `counts` and row I/O by
    /// [`TimingModel::price`](crate::TimingModel::price).
    pub cycles: u64,
    /// Dynamic energy in picojoules, priced from `counts` and row I/O by
    /// [`EnergyModel::price`](crate::EnergyModel::price).
    pub energy_pj: f64,
    /// Instruction counts by class.
    pub counts: InstrCounts,
    /// Data rows loaded into the array through the normal SRAM port.
    pub row_loads: u64,
    /// Data rows read out of the array through the normal SRAM port.
    pub row_stores: u64,
}

impl Stats {
    /// Energy in nanojoules.
    #[must_use]
    pub fn energy_nj(&self) -> f64 {
        self.energy_pj / 1000.0
    }

    /// Wall-clock seconds at clock frequency `hz`.
    #[must_use]
    pub fn seconds_at(&self, hz: f64) -> f64 {
        self.cycles as f64 / hz
    }
}

impl Add for Stats {
    type Output = Stats;
    fn add(self, o: Stats) -> Stats {
        Stats {
            cycles: self.cycles + o.cycles,
            energy_pj: self.energy_pj + o.energy_pj,
            counts: self.counts + o.counts,
            row_loads: self.row_loads + o.row_loads,
            row_stores: self.row_stores + o.row_stores,
        }
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, o: Stats) {
        *self = *self + o;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:          {}", self.cycles)?;
        writeln!(f, "energy:          {:.3} nJ", self.energy_nj())?;
        writeln!(
            f,
            "instructions:    {} (check {}, zero {}, mask {}, unary {}, shift {}, binary {})",
            self.counts.total(),
            self.counts.check,
            self.counts.check_zero,
            self.counts.mask,
            self.counts.unary,
            self.counts.shift,
            self.counts.binary
        )?;
        writeln!(
            f,
            "shift moves:     {} ({} explicit + {} fused)",
            self.counts.shift_moves(),
            self.counts.shift,
            self.counts.fused_shifts
        )?;
        write!(
            f,
            "row I/O:         {} loads, {} stores",
            self.row_loads, self.row_stores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_addition() {
        let a = InstrCounts {
            check: 1,
            binary: 5,
            shift: 2,
            fused_shifts: 3,
            ..Default::default()
        };
        let b = InstrCounts {
            unary: 4,
            binary: 1,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.total(), 1 + 5 + 2 + 4 + 1);
        assert_eq!(c.shift_moves(), 2 + 3);
        let mut s = Stats {
            cycles: 10,
            energy_pj: 2500.0,
            counts: a,
            row_loads: 1,
            row_stores: 2,
        };
        s += Stats {
            cycles: 5,
            energy_pj: 500.0,
            counts: b,
            row_loads: 0,
            row_stores: 1,
        };
        assert_eq!(s.cycles, 15);
        assert!((s.energy_nj() - 3.0).abs() < 1e-12);
        assert_eq!(s.row_stores, 3);
    }

    #[test]
    fn display_mentions_everything() {
        let s = Stats {
            cycles: 7,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("shift moves"));
    }
}

//! Algorithm 2 multiplies and butterfly epilogues as typed operations.
//!
//! Every BP-NTT butterfly is one Algorithm 2 multiply followed by the
//! modular bookkeeping of Algorithm 1, lines 6–8: resolve the carry-save
//! product and reduce it into `[0, q)`, then one modular add and one
//! modular subtract. A [`ModMulOp`] names the multiply and an
//! [`EpilogueOp`] one of the three steps after it. Each has exactly one
//! canonical bit-level expansion into the ISA ([`ModMulOp::expand`],
//! [`EpilogueOp::expand`]), and every execution path agrees with it:
//!
//! * a [`Controller`](crate::Controller) — the `Generic` oracle — runs the
//!   expansion instruction by instruction, with one fault-tick batch
//!   boundary per op (never inside its steps or resolution loops);
//! * a [`Recorder`](crate::Recorder) stores the op itself;
//! * compiled replay runs one word kernel per op (`wordkern::Chain` for a
//!   multiply, `wordkern::epilogue` for an epilogue) that keeps the op's
//!   rows in registers and adds the expansion's class counts — so rows,
//!   the predicate latch, the zero flag and [`Stats`](crate::Stats) are
//!   bit-identical to the expansion. Under an active tile mask, or rows
//!   aliased in a way the kernel does not model, replay runs the
//!   expansion instead.
//!
//! Adding a multiply or epilogue shape means one variant, its expansion
//! and its word kernel — no instruction matcher.
//!
//! # Arithmetic
//!
//! Every row holds one `w`-bit word per tile with one headroom bit
//! (`q < 2^(w−1)`). A multiply walks the multiplier's `w` bits from the
//! LSB: a set bit adds `B` into the carry-save accumulator `(Sum, Carry)`,
//! then every bit adds `M` in tiles whose `Sum` is odd and halves, so the
//! accumulator ends holding `a · B · 2^(−w)` (mod `q`). A constant
//! multiplier is "hidden in the control commands" (§IV-D): only its set
//! bits emit an add-B step. A multiplier row is consumed one `Check`
//! per bit, so every bit emits a predicated add-B step.
//!
//! Inside a multiply the halve step works on an unaligned pair,
//! `value = Sum + 2·Carry`, and the add-B step needs the carry aligned
//! first (`Carry ≪ 1`). The realignment is costless: a halve step whose
//! consumer is a constant's add-B step, or the multiply's last bit, writes
//! its closing carry merge already shifted. The shift is global, and by
//! Observation 1 loses nothing: after a halve step the carry's MSB is
//! clear in every tile whenever `q < 2^(w−1)`, independent of the data.
//! So a constant multiply emits no explicit `Shift`, and every multiply
//! leaves an aligned pair (`value = Sum + Carry`) for [`Epilogue::Finish`].
//! Only a row multiplier's add-B step keeps a predicated `Shift`: tiles
//! whose bit is clear skip the step and need the carry unaligned.
//!
//! A carry-save pair `(s, c)` keeps its carry row pre-shifted, so each
//! carry-resolution round is one activation,
//! `c, s = (s ∧ c) ≪ 1, s ⊕ c`, with the tile-masked shift riding the
//! write-back, and the wired-OR zero detector ends the loop early. The
//! masked shift drops each tile's carry-out, so results are exact mod
//! `2^w` per tile. Subtraction is a complement-add, `x − y = ¬(¬x + y)`,
//! so the only resolution loop is the carry loop.

use crate::bitrow::BitRow;
use crate::error::SramError;
use crate::exec::Controller;
use crate::isa::{BitOp, Instruction, PredMode, RowAddr, ShiftDir, UnaryKind};
use crate::program::{InstrSink, ZeroLoopSpec};
use crate::stats::InstrCounts;

/// The rows and word width the modular arithmetic works in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModRows {
    /// Carry-save accumulator: bitwise sum word.
    pub sum: RowAddr,
    /// Carry-save accumulator: carry word.
    pub carry: RowAddr,
    /// Half-adder temporary (sum).
    pub t_sum: RowAddr,
    /// Half-adder temporary (carry).
    pub t_carry: RowAddr,
    /// Constant row holding the modulus `M = q` in every tile.
    pub modulus: RowAddr,
    /// Constant row holding `2^w − q` in every tile.
    pub comp_modulus: RowAddr,
    /// Word width `w` in bits (one tile); the modulus is below `2^(w−1)`.
    pub bitwidth: u16,
}

/// Where an Algorithm 2 multiply takes its multiplier from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Multiplier {
    /// A compile-time constant (a twiddle pre-scaled by `R = 2^w`): only
    /// its set bits emit an add-B step.
    Const(u64),
    /// Per-tile values in a row, consumed bit by bit through `Check`
    /// predication (pointwise products, per-tile twiddles).
    Row(RowAddr),
}

/// One Algorithm 2 multiply, `(Sum, Carry) ← a · B · R⁻¹` as an aligned
/// carry-save pair (`value = Sum + Carry`) with `R = 2^w`: clobbers both
/// temporaries, reads `B` and `M`.
/// Follow with [`Epilogue::Finish`] to resolve and reduce the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModMulOp {
    /// The working rows and word width.
    pub rows: ModRows,
    /// The multiplicand row `B`.
    pub b: RowAddr,
    /// The multiplier `a`.
    pub multiplier: Multiplier,
}

impl ModMulOp {
    /// Emits the canonical bit-level expansion into `sink`: `Sum ← 0;
    /// Carry ← 0`, then per multiplier bit an add-B step (led by its
    /// `Check` for a row multiplier) and a Montgomery halve step. The
    /// product is left as an aligned pair, `value = Sum + Carry`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (bad rows, a check bit outside the
    /// tile).
    pub fn expand<S: InstrSink + ?Sized>(&self, sink: &mut S) -> Result<(), SramError> {
        let r = &self.rows;
        zero(sink, r.sum, PredMode::Always)?;
        zero(sink, r.carry, PredMode::Always)?;
        let constant = match self.multiplier {
            Multiplier::Const(a) => Some(a),
            Multiplier::Row(_) => None,
        };
        let bits = usize::from(r.bitwidth);
        for bit in 0..r.bitwidth {
            match self.multiplier {
                Multiplier::Const(a) if (a >> bit) & 1 == 1 => {
                    self.add_b(sink, PredMode::Always, false)?
                }
                Multiplier::Const(_) => {}
                Multiplier::Row(src) => {
                    sink.emit(Instruction::Check { src, bit })?;
                    self.add_b(sink, PredMode::IfSet, true)?;
                }
            }
            self.halve(sink, halve_aligns(constant, usize::from(bit), bits))?;
        }
        Ok(())
    }

    /// Lines 6–9 of Algorithm 2, `P ← P + B`, as two half-adder passes in
    /// the tiles `pred` selects. The step leaves the carry unaligned
    /// (`value = Sum + 2·Carry`). It finds the carry aligned after a
    /// constant's halve step; a row multiplier's step (`shift_carry`) finds
    /// it unaligned and aligns it itself, only in the tiles it adds in.
    fn add_b<S: InstrSink + ?Sized>(
        &self,
        sink: &mut S,
        pred: PredMode,
        shift_carry: bool,
    ) -> Result<(), SramError> {
        let r = &self.rows;
        half_add(sink, r.t_carry, r.t_sum, r.sum, self.b, pred)?;
        if shift_carry {
            // Carry ≪ 1 (Observation 1: a global shift is safe — the
            // previous iteration's carry MSB is clear in every tile).
            sink.emit(Instruction::Shift {
                dst: r.carry,
                src: r.carry,
                dir: ShiftDir::Left,
                masked: false,
                pred,
            })?;
        }
        half_add(sink, r.carry, r.sum, r.carry, r.t_sum, pred)?;
        or_carry(sink, r, pred, false)
    }

    /// Lines 11–16 of Algorithm 2: `m ← LSB(Sum) ? M : 0`, then
    /// `P ← (P + m) / 2`. `m` is selected by predication on `M` into
    /// `t_carry` — no extra row, which keeps the reserved-row budget at
    /// the paper's six — and the halving is one costless shift on the
    /// first half-adder's write-back. With `align`, the closing carry merge
    /// also writes `Carry ≪ 1`, the realignment its consumer would
    /// otherwise spend a `Shift` on.
    fn halve<S: InstrSink + ?Sized>(&self, sink: &mut S, align: bool) -> Result<(), SramError> {
        let r = &self.rows;
        sink.emit(Instruction::Check { src: r.sum, bit: 0 })?;
        copy(sink, r.t_carry, r.modulus, PredMode::IfSet)?;
        zero(sink, r.t_carry, PredMode::IfClear)?;
        // c1, s1 = Sum ∧ m, (Sum ⊕ m) ≫ 1 (Observation 2: the dropped LSB
        // is zero).
        sink.emit(Instruction::Binary {
            dst: r.t_sum,
            op: BitOp::Xor,
            src0: r.sum,
            src1: r.t_carry,
            dst2: Some((r.t_carry, BitOp::And)),
            shift: Some((ShiftDir::Right, true)),
            pred: PredMode::Always,
        })?;
        half_add(
            sink,
            r.t_carry,
            r.t_sum,
            r.t_sum,
            r.t_carry,
            PredMode::Always,
        )?;
        half_add(sink, r.carry, r.sum, r.carry, r.t_sum, PredMode::Always)?;
        or_carry(sink, r, PredMode::Always, align)
    }

    /// Validates the expansion against `ctl` and returns its class counts
    /// (data-independent: a multiply has no resolution loop).
    pub(crate) fn class_counts(&self, ctl: &Controller) -> Result<InstrCounts, SramError> {
        Ok(Shape::of(ctl, |s| self.expand(s))?.0)
    }

    /// Whether the chain kernel may run this op. It reads a multiplier
    /// row once, at entry, so that row must not be an accumulator row;
    /// replay also falls back when `B`, `M` and the accumulator rows
    /// overlap, since the kernel borrows them disjointly.
    pub(crate) fn fusable(&self) -> bool {
        let r = &self.rows;
        let acc = [r.sum, r.carry, r.t_sum, r.t_carry];
        !matches!(self.multiplier, Multiplier::Row(a) if acc.contains(&a))
    }
}

/// Which epilogue an [`EpilogueOp`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Epilogue {
    /// Completes a modular multiplication: `Sum ← Sum + Carry` (the aligned
    /// pair a [`ModMulOp`] leaves), then one conditional subtraction of
    /// `q`, leaving the product in `[0, q)` in `Sum`; with `dst`, the
    /// product is also copied there.
    Finish {
        /// Optional row that receives a copy of the reduced product.
        dst: Option<RowAddr>,
    },
    /// `dst ← (x + y) mod q` for reduced operands. With `final_mask =
    /// Some((stride_log2, phase))` only the tiles selected by
    /// `MaskTiles(stride_log2, phase)` receive the result (the arithmetic
    /// runs in every tile); the mask is restored to all tiles after.
    /// Clobbers `Carry` and both temporaries.
    AddMod {
        /// Destination row.
        dst: RowAddr,
        /// First addend.
        x: RowAddr,
        /// Second addend.
        y: RowAddr,
        /// Optional tile mask applied to the final write.
        final_mask: Option<(u8, bool)>,
    },
    /// `dst ← (x − y) mod q` for reduced operands, with the same masking
    /// contract as [`Epilogue::AddMod`]. Clobbers both temporaries.
    SubMod {
        /// Destination row.
        dst: RowAddr,
        /// Minuend.
        x: RowAddr,
        /// Subtrahend.
        y: RowAddr,
        /// Optional tile mask applied to the final write.
        final_mask: Option<(u8, bool)>,
    },
}

/// One butterfly epilogue: an [`Epilogue`] over a set of [`ModRows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpilogueOp {
    /// The working rows and word width.
    pub rows: ModRows,
    /// The operation.
    pub kind: Epilogue,
}

impl EpilogueOp {
    /// Number of zero-terminated resolution loops in every expansion.
    pub(crate) const LOOPS: u64 = 2;

    /// Emits the canonical bit-level expansion into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (bad rows, a check bit outside the
    /// tile).
    pub fn expand<S: InstrSink + ?Sized>(&self, sink: &mut S) -> Result<(), SramError> {
        let r = &self.rows;
        // A zero width wraps to a bit no tile has, which validation rejects.
        let msb = r.bitwidth.wrapping_sub(1);
        match self.kind {
            Epilogue::Finish { dst } => {
                self.resolve_pair(sink, r.sum, r.carry)?;
                // D = (Sum + (2^w − q)) mod 2^w; MSB(D) = 0 ⇔ Sum ≥ q.
                self.csa_init(
                    sink,
                    r.t_sum,
                    r.t_carry,
                    r.sum,
                    r.comp_modulus,
                    PredMode::Always,
                )?;
                self.resolve_pair(sink, r.t_sum, r.t_carry)?;
                sink.emit(Instruction::Check {
                    src: r.t_sum,
                    bit: msb,
                })?;
                copy(sink, r.sum, r.t_sum, PredMode::IfClear)?;
                if let Some(dst) = dst {
                    copy(sink, dst, r.sum, PredMode::Always)?;
                }
            }
            Epilogue::AddMod {
                dst,
                x,
                y,
                final_mask,
            } => {
                // x + y < 2q < 2^w: carry-save then resolve.
                self.csa_init(sink, r.t_sum, r.t_carry, x, y, PredMode::Always)?;
                self.resolve_pair(sink, r.t_sum, r.t_carry)?;
                // D = (t_sum + comp) mod 2^w into Carry.
                self.csa_init(
                    sink,
                    r.carry,
                    r.t_carry,
                    r.t_sum,
                    r.comp_modulus,
                    PredMode::Always,
                )?;
                self.resolve_pair(sink, r.carry, r.t_carry)?;
                sink.emit(Instruction::Check {
                    src: r.carry,
                    bit: msb,
                })?;
                masked(sink, final_mask, |sink| {
                    copy(sink, dst, r.t_sum, PredMode::IfSet)?;
                    copy(sink, dst, r.carry, PredMode::IfClear)
                })?;
            }
            Epilogue::SubMod {
                dst,
                x,
                y,
                final_mask,
            } => {
                sink.emit(Instruction::Unary {
                    dst: r.t_sum,
                    src: x,
                    kind: UnaryKind::Not,
                    pred: PredMode::Always,
                })?;
                self.csa_init(sink, r.t_sum, r.t_carry, r.t_sum, y, PredMode::Always)?;
                self.resolve_pair(sink, r.t_sum, r.t_carry)?;
                // u = ¬x + y; negative ⇔ MSB(u) clear: add 2^w − q there,
                // since ¬(u − q) = (x − y) + q. The loop left t_carry
                // zero, so the predicated initiator keeps u elsewhere.
                sink.emit(Instruction::Check {
                    src: r.t_sum,
                    bit: msb,
                })?;
                self.csa_init(
                    sink,
                    r.t_sum,
                    r.t_carry,
                    r.t_sum,
                    r.comp_modulus,
                    PredMode::IfClear,
                )?;
                self.resolve_pair(sink, r.t_sum, r.t_carry)?;
                masked(sink, final_mask, |sink| {
                    sink.emit(Instruction::Unary {
                        dst,
                        src: r.t_sum,
                        kind: UnaryKind::Not,
                        pred: PredMode::Always,
                    })
                })?;
            }
        }
        Ok(())
    }

    /// A carry-save initiator with the carry pre-shifted:
    /// `c_row, s_row = (a ∧ b) ≪ 1, a ⊕ b` in tiles selected by `pred`.
    fn csa_init<S: InstrSink + ?Sized>(
        &self,
        sink: &mut S,
        s_row: RowAddr,
        c_row: RowAddr,
        a: RowAddr,
        b: RowAddr,
        pred: PredMode,
    ) -> Result<(), SramError> {
        sink.emit(Instruction::Binary {
            dst: c_row,
            op: BitOp::And,
            src0: a,
            src1: b,
            dst2: Some((s_row, BitOp::Xor)),
            shift: Some((ShiftDir::Left, true)),
            pred,
        })
    }

    /// Resolves an aligned carry-save pair (`value = s_row + c_row`) into a
    /// plain value in `s_row`.
    fn resolve_pair<S: InstrSink + ?Sized>(
        &self,
        sink: &mut S,
        s_row: RowAddr,
        c_row: RowAddr,
    ) -> Result<(), SramError> {
        let body = [Instruction::Binary {
            dst: c_row,
            op: BitOp::And,
            src0: s_row,
            src1: c_row,
            dst2: Some((s_row, BitOp::Xor)),
            shift: Some((ShiftDir::Left, true)),
            pred: PredMode::Always,
        }];
        sink.zero_loop(ZeroLoopSpec {
            src: c_row,
            body: &body,
            max_checks: usize::from(self.rows.bitwidth) + 1,
        })
    }

    /// Whether the replay word kernel computes this op exactly. The kernel
    /// reads every input row before it writes any output, which matches
    /// the expansion as long as the rows the expansion writes before its
    /// final store are distinct from each other and from every operand.
    pub(crate) fn fusable(&self) -> bool {
        let r = &self.rows;
        let (internal, operands): (&[RowAddr], [Option<RowAddr>; 3]) = match self.kind {
            Epilogue::Finish { dst } => (
                &[r.sum, r.carry, r.t_sum, r.t_carry, r.comp_modulus],
                [dst, None, None],
            ),
            Epilogue::AddMod { dst, x, y, .. } => (
                &[r.carry, r.t_sum, r.t_carry, r.comp_modulus],
                [Some(dst), Some(x), Some(y)],
            ),
            Epilogue::SubMod { dst, x, y, .. } => (
                &[r.t_sum, r.t_carry, r.comp_modulus],
                [Some(dst), Some(x), Some(y)],
            ),
        };
        let distinct = internal
            .iter()
            .enumerate()
            .all(|(i, a)| !internal[i + 1..].contains(a));
        distinct && operands.iter().flatten().all(|o| !internal.contains(o))
    }

    /// Validates the expansion against `ctl` and returns its class counts
    /// split into the straight-line part and one resolution round (every
    /// loop body is the same round).
    pub(crate) fn class_counts(
        &self,
        ctl: &Controller,
    ) -> Result<(InstrCounts, InstrCounts), SramError> {
        Shape::of(ctl, |s| self.expand(s))
    }

    /// The final-write tile mask, if any.
    pub(crate) fn final_mask(&self) -> Option<(u8, bool)> {
        match self.kind {
            Epilogue::Finish { .. } => None,
            Epilogue::AddMod { final_mask, .. } | Epilogue::SubMod { final_mask, .. } => final_mask,
        }
    }
}

fn copy<S: InstrSink + ?Sized>(
    sink: &mut S,
    dst: RowAddr,
    src: RowAddr,
    pred: PredMode,
) -> Result<(), SramError> {
    sink.emit(Instruction::Unary {
        dst,
        src,
        kind: UnaryKind::Copy,
        pred,
    })
}

fn zero<S: InstrSink + ?Sized>(
    sink: &mut S,
    row: RowAddr,
    pred: PredMode,
) -> Result<(), SramError> {
    sink.emit(Instruction::Unary {
        dst: row,
        src: row,
        kind: UnaryKind::Zero,
        pred,
    })
}

/// A half adder: `c_dst, s_dst = a ∧ b, a ⊕ b` (one activation, two
/// write-backs).
fn half_add<S: InstrSink + ?Sized>(
    sink: &mut S,
    c_dst: RowAddr,
    s_dst: RowAddr,
    a: RowAddr,
    b: RowAddr,
    pred: PredMode,
) -> Result<(), SramError> {
    sink.emit(Instruction::Binary {
        dst: c_dst,
        op: BitOp::And,
        src0: a,
        src1: b,
        dst2: Some((s_dst, BitOp::Xor)),
        shift: None,
        pred,
    })
}

/// `Carry ← Carry ∨ t_carry`, merging a step's two half-adder carries;
/// with `align`, written `≪ 1` by a global shift on the write-back
/// (Observation 1: after a halve step the merged carry's MSB is clear in
/// every tile, so nothing crosses a tile boundary).
fn or_carry<S: InstrSink + ?Sized>(
    sink: &mut S,
    r: &ModRows,
    pred: PredMode,
    align: bool,
) -> Result<(), SramError> {
    sink.emit(Instruction::Binary {
        dst: r.carry,
        op: BitOp::Or,
        src0: r.carry,
        src1: r.t_carry,
        dst2: None,
        shift: align.then_some((ShiftDir::Left, false)),
        pred,
    })
}

/// Whether the halve step of multiplier bit `bit` (of `bits`) writes its
/// carry aligned: when the next step is an add-B step of the constant
/// multiplier (`constant`), which has no shift of its own, or when it is
/// the last bit, whose consumer is [`Epilogue::Finish`].
pub(crate) fn halve_aligns(constant: Option<u64>, bit: usize, bits: usize) -> bool {
    bit + 1 == bits || constant.is_some_and(|a| (a >> (bit + 1)) & 1 == 1)
}

/// Runs `body` under `MaskTiles(stride_log2, phase)` when a mask is given,
/// restoring all tiles after.
fn masked<S: InstrSink + ?Sized>(
    sink: &mut S,
    mask: Option<(u8, bool)>,
    body: impl FnOnce(&mut S) -> Result<(), SramError>,
) -> Result<(), SramError> {
    if let Some((stride_log2, phase)) = mask {
        sink.emit(Instruction::MaskTiles { stride_log2, phase })?;
    }
    body(sink)?;
    if mask.is_some() {
        sink.emit(Instruction::MaskAll)?;
    }
    Ok(())
}

/// Compile-time sink behind the ops' `class_counts`.
struct Shape<'a> {
    ctl: &'a Controller,
    fixed: InstrCounts,
    round: InstrCounts,
}

impl<'a> Shape<'a> {
    /// Validates an expansion against `ctl` and returns its class counts
    /// outside any resolution loop, and of one resolution round.
    fn of(
        ctl: &'a Controller,
        expand: impl FnOnce(&mut Self) -> Result<(), SramError>,
    ) -> Result<(InstrCounts, InstrCounts), SramError> {
        let mut shape = Shape {
            ctl,
            fixed: InstrCounts::default(),
            round: InstrCounts::default(),
        };
        expand(&mut shape)?;
        Ok((shape.fixed, shape.round))
    }
}

impl InstrSink for Shape<'_> {
    fn emit(&mut self, i: Instruction) -> Result<(), SramError> {
        self.ctl.validate_instr(&i)?;
        self.fixed.record(&i);
        Ok(())
    }

    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError> {
        self.ctl
            .validate_instr(&Instruction::CheckZero { src: spec.src })?;
        let mut round = InstrCounts::default();
        for i in spec.body {
            self.ctl.validate_instr(i)?;
            round.record(i);
        }
        debug_assert!(self.round == InstrCounts::default() || self.round == round);
        self.round = round;
        Ok(())
    }

    fn load_row(&mut self, _row: RowAddr, _data: &BitRow) -> Result<(), SramError> {
        Err(SramError::ProgramMismatch {
            reason: "a typed op's expansion loads no rows",
        })
    }
}

/// A controller sink without fault ticks: how a controller runs the inside
/// of one typed op, whose boundary already ticked.
pub(crate) struct Untimed<'a>(pub(crate) &'a mut Controller);

impl InstrSink for Untimed<'_> {
    fn emit(&mut self, i: Instruction) -> Result<(), SramError> {
        self.0.execute(&i)
    }

    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError> {
        self.0.run_zero_loop(spec)
    }

    fn load_row(&mut self, row: RowAddr, data: &BitRow) -> Result<(), SramError> {
        self.0.load_row(row, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SramArray;

    /// Algorithm 2's closed form: a constant `a < 2^w` costs
    /// `2 + 3·popcount(a) + 7w` instructions (the two clears, three per
    /// add-B step, seven per halve step with its `Check`) and no explicit
    /// `Shift`; a multiplier row `2 + 12w` (every bit's `Check` leads a
    /// predicated add-B step with its `Shift`). At w = 24 and popcount 12
    /// that is 206, 168 of them halving. `Finish` runs two resolution
    /// loops after a fixed part of three instructions (four with `dst`):
    /// the carry-save initiator, the sign `Check` and the select.
    #[test]
    fn modmul_counts_follow_the_closed_form() {
        for w in [14u16, 24, 32] {
            let width = usize::from(w);
            let ctl = Controller::new(SramArray::new(8, 4 * width).unwrap(), width).unwrap();
            let rows = ModRows {
                sum: RowAddr(0),
                carry: RowAddr(1),
                t_sum: RowAddr(2),
                t_carry: RowAddr(3),
                modulus: RowAddr(4),
                comp_modulus: RowAddr(5),
                bitwidth: w,
            };
            let counts = |multiplier| {
                let op = ModMulOp {
                    rows,
                    b: RowAddr(6),
                    multiplier,
                };
                op.class_counts(&ctl).unwrap()
            };
            let low = (1u64 << w) - 1;
            for a in [0, 1, 0x5a_5a5a & low, low] {
                let counts = counts(Multiplier::Const(a));
                let expect = 2 + 3 * u64::from(a.count_ones()) + 7 * u64::from(w);
                assert_eq!(counts.total(), expect, "w={w} a={a:#x}");
                assert_eq!(counts.shift, 0, "w={w} a={a:#x}");
            }
            let row = counts(Multiplier::Row(RowAddr(7)));
            assert_eq!(row.total(), 2 + 12 * u64::from(w), "w={w}");
            assert_eq!(row.shift, u64::from(w), "w={w}");
            for (dst, fixed) in [(None, 3), (Some(RowAddr(7)), 4)] {
                let op = EpilogueOp {
                    rows,
                    kind: Epilogue::Finish { dst },
                };
                let (straight, round) = op.class_counts(&ctl).unwrap();
                assert_eq!((straight.total(), straight.shift), (fixed, 0), "w={w}");
                assert_eq!(round.total(), 1, "w={w}");
            }
        }
    }
}

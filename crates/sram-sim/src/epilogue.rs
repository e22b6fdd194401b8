//! Butterfly epilogues as typed operations.
//!
//! Every BP-NTT butterfly is one Algorithm 2 multiply followed by the
//! modular bookkeeping of Algorithm 1, lines 6–8: resolve the carry-save
//! product and reduce it into `[0, q)`, then one modular add and one
//! modular subtract. An [`EpilogueOp`] names one of those three steps.
//! Each has exactly one canonical bit-level expansion into the ISA
//! ([`EpilogueOp::expand`]), and every execution path agrees with it:
//!
//! * a [`Controller`](crate::Controller) — the `Generic` oracle — runs the
//!   expansion instruction by instruction, with one fault-tick batch
//!   boundary per op (never inside its resolution loops);
//! * a [`Recorder`](crate::Recorder) stores the op itself;
//! * compiled replay runs one word kernel per op (`wordkern::epilogue`)
//!   that keeps the op's rows in registers, runs both of its resolution
//!   loops in place, and adds the expansion's class counts — so rows,
//!   the predicate latch, the zero flag and [`Stats`](crate::Stats) are
//!   bit-identical to the expansion. Under an active tile mask, or rows
//!   aliased in a way the kernel does not model, replay runs the
//!   expansion instead.
//!
//! Adding an epilogue shape means one [`Epilogue`] variant, its expansion
//! and its word kernel — no instruction matcher.
//!
//! # Arithmetic
//!
//! Every row holds one `w`-bit word per tile with one headroom bit
//! (`q < 2^(w−1)`). A carry-save pair `(s, c)` keeps its carry row
//! pre-shifted, so each carry-resolution round is one activation,
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
    /// Constant row holding `2^w − q` in every tile.
    pub comp_modulus: RowAddr,
    /// Word width `w` in bits (one tile); the modulus is below `2^(w−1)`.
    pub bitwidth: u16,
}

/// Which epilogue an [`EpilogueOp`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Epilogue {
    /// Completes a modular multiplication: `Sum ← Sum + 2·Carry`, then one
    /// conditional subtraction of `q`, leaving the product in `[0, q)` in
    /// `Sum`; with `dst`, the product is also copied there.
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
                // Align Carry once: by Observation 1 its MSB is clear in
                // every tile, so the tile-masked shift loses nothing.
                sink.emit(Instruction::Shift {
                    dst: r.carry,
                    src: r.carry,
                    dir: ShiftDir::Left,
                    masked: true,
                    pred: PredMode::Always,
                })?;
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
        let mut shape = Shape {
            ctl,
            fixed: InstrCounts::default(),
            round: InstrCounts::default(),
        };
        self.expand(&mut shape)?;
        Ok((shape.fixed, shape.round))
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

/// Compile-time sink behind [`EpilogueOp::class_counts`].
struct Shape<'a> {
    ctl: &'a Controller,
    fixed: InstrCounts,
    round: InstrCounts,
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
            reason: "an epilogue expansion loads no rows",
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

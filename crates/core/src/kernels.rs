//! In-SRAM kernel code generation: Algorithm 2 and the butterfly arithmetic.
//!
//! Every routine here emits BP-NTT instructions into an
//! [`InstrSink`] — either a live [`Controller`](bpntt_sram::Controller)
//! (execute-as-emitted, the classic path) or a
//! [`Recorder`](bpntt_sram::Recorder) (capture once, replay many times
//! through [`Controller::run_compiled`](bpntt_sram::Controller::run_compiled)).
//! Generation uses only the row budget of the layout's [`RowMap`]: the
//! carry-save accumulator (`Sum`, `Carry`), two half-adder temporaries, and
//! the two constant rows (`M`, `2^w − M`). Shift discipline follows
//! `DESIGN.md` D1/D2. Wherever an activation produces the value to be
//! shifted, the shift is *costless* — fused onto its write-back:
//!
//! * the `Carry << 1` realignment of Algorithm 2 uses a **global** shift —
//!   the end-of-iteration carry provably has a clear MSB in every tile
//!   whenever `M < 2^(w−1)`, *independent of the data*, so nothing ever
//!   crosses a tile boundary (the paper's Observation 1);
//! * the Montgomery halving uses a **tile-masked** shift riding the first
//!   half-adder's write-back, giving exact mod-`2^w` semantics per tile
//!   even for tiles holding staging garbage during cross-tile SIMD.
//!
//! The multiplier of a modular multiplication is either a compile-time
//! constant (twiddle factors of a single-lane-per-tile schedule — the
//! multiplier is "hidden in the control commands", §IV-D) or a per-tile
//! value in a row, consumed bit-by-bit through `Check` predication (used by
//! pointwise multiplication and by multi-tile schedules where each tile
//! needs a different twiddle).
//!
//! **Butterfly epilogues are typed.** Resolving and reducing a product
//! ([`Kernels::finish_modmul`]), modular add and modular subtract are each
//! one [`EpilogueOp`] emitted through [`InstrSink::epilogue`]; their
//! bit-level expansions — carry-save initiators, the zero-terminated
//! carry-resolution loops (the only data dependence in the instruction
//! stream), the sign `Check` and the predicated select — live with the op
//! in `bpntt_sram::epilogue`. This module emits no bit-level epilogue
//! instruction, so there is no epilogue shape to keep in step with a
//! matcher: the generic controller runs the expansion, the recorder
//! stores the op, and replay runs its word kernel.
//!
//! **The multiplier-step shapes are still a contract.** The replay
//! compiler (`bpntt_sram::program`) pattern-matches the add-B step
//! (`And`+`Xor` dual write-back, global `Carry` shift, two half-adder
//! layers, optionally led by `modmul_data`'s `Check` of the multiplier
//! bit) and the halve step (`Check` LSB; `Copy M→t_carry` if set; `Zero
//! t_carry` if clear; `t_sum, t_carry = (Sum ⊕ t_carry) ≫ 1, Sum ∧
//! t_carry`; two half-adder layers) and merges runs of them, with the
//! `Zero Sum; Zero Carry` pair that opens each multiply, into
//! register-resident multiplier chains. Reshaping those emissions silently
//! degrades replay to the generic path (it stays correct — the replay ≡
//! `ExecMode::Generic` equivalence proptests still pass — but the
//! benchmarks regress and the fast-path coverage counters `FastPathStats`
//! drop, which the CI coverage assertion catches); update the matchers
//! alongside any change. Pipeline segments (`bpntt_core::pipeline`)
//! compile each op through these same emitters, one program per op — the
//! segment boundary is an op boundary, so a fusion or matcher change never
//! has to reason across ops.

use crate::error::BpNttError;
use crate::layout::RowMap;
use bpntt_sram::{
    BitOp, Epilogue, EpilogueOp, InstrSink, Instruction, ModRows, PredMode, RowAddr, ShiftDir,
    UnaryKind,
};

/// Emits in-SRAM arithmetic kernels for one modulus / bit-width pair.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    rm: RowMap,
    q: u64,
    bitwidth: usize,
}

impl Kernels {
    /// Creates a kernel emitter.
    ///
    /// The caller (the engine) guarantees `q < 2^(bitwidth−1)` — validated
    /// by [`BpNttConfig`](crate::BpNttConfig).
    #[must_use]
    pub fn new(rm: RowMap, q: u64, bitwidth: usize) -> Self {
        debug_assert!(bitwidth == 64 || q < (1u64 << (bitwidth - 1)));
        Kernels { rm, q, bitwidth }
    }

    /// The row map in use.
    #[must_use]
    pub fn rowmap(&self) -> &RowMap {
        &self.rm
    }

    fn exec<S: InstrSink>(&self, sink: &mut S, i: Instruction) -> Result<(), BpNttError> {
        sink.emit(i)?;
        Ok(())
    }

    // ---- Algorithm 2 ----------------------------------------------------

    /// `Sum ← a · B · R⁻¹` in carry-save form, with the multiplier `a` a
    /// compile-time constant (twiddles pre-scaled by `R`). Leaves the
    /// accumulator in `(Sum, Carry)`; follow with [`Self::finish_modmul`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (bad rows — a codegen bug, not a user
    /// input).
    pub fn modmul_const<S: InstrSink>(
        &self,
        sink: &mut S,
        b_row: RowAddr,
        a: u64,
    ) -> Result<(), BpNttError> {
        let rm = &self.rm;
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.sum,
                src: rm.sum,
                kind: UnaryKind::Zero,
                pred: PredMode::Always,
            },
        )?;
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.carry,
                src: rm.carry,
                kind: UnaryKind::Zero,
                pred: PredMode::Always,
            },
        )?;
        for i in 0..self.bitwidth {
            if (a >> i) & 1 == 1 {
                self.add_b_step(sink, b_row, PredMode::Always)?;
            }
            self.montgomery_halve_step(sink)?;
        }
        Ok(())
    }

    /// `Sum ← A · B · R⁻¹` in carry-save form with the multiplier read from
    /// `a_row` (per-tile values, consumed via `Check` predication). Used by
    /// pointwise multiplication and per-tile-twiddle schedules. Runs in
    /// data-independent time (every iteration executes the same
    /// instructions).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn modmul_data<S: InstrSink>(
        &self,
        sink: &mut S,
        b_row: RowAddr,
        a_row: RowAddr,
    ) -> Result<(), BpNttError> {
        let rm = &self.rm;
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.sum,
                src: rm.sum,
                kind: UnaryKind::Zero,
                pred: PredMode::Always,
            },
        )?;
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.carry,
                src: rm.carry,
                kind: UnaryKind::Zero,
                pred: PredMode::Always,
            },
        )?;
        for i in 0..self.bitwidth {
            self.exec(
                sink,
                Instruction::Check {
                    src: a_row,
                    bit: i as u16,
                },
            )?;
            self.add_b_step(sink, b_row, PredMode::IfSet)?;
            self.montgomery_halve_step(sink)?;
        }
        Ok(())
    }

    /// Lines 6–9 of Algorithm 2: `P ← P + B` as two half-adder passes.
    fn add_b_step<S: InstrSink>(
        &self,
        sink: &mut S,
        b_row: RowAddr,
        pred: PredMode,
    ) -> Result<(), BpNttError> {
        let rm = &self.rm;
        // c1, s1 = Sum & B, Sum ⊕ B — one activation, two write-backs.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.t_carry,
                op: BitOp::And,
                src0: rm.sum,
                src1: b_row,
                dst2: Some((rm.t_sum, BitOp::Xor)),
                shift: None,
                pred,
            },
        )?;
        // Carry << 1 (Observation 1: global shift is safe — the previous
        // iteration's carry MSB is clear in every tile).
        self.exec(
            sink,
            Instruction::Shift {
                dst: rm.carry,
                src: rm.carry,
                dir: ShiftDir::Left,
                masked: false,
                pred,
            },
        )?;
        // c2, Sum = Carry & s1, Carry ⊕ s1 — write c2 over Carry itself.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.carry,
                op: BitOp::And,
                src0: rm.carry,
                src1: rm.t_sum,
                dst2: Some((rm.sum, BitOp::Xor)),
                shift: None,
                pred,
            },
        )?;
        // Carry = c1 | c2.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.carry,
                op: BitOp::Or,
                src0: rm.carry,
                src1: rm.t_carry,
                dst2: None,
                shift: None,
                pred,
            },
        )
    }

    /// Lines 11–16 of Algorithm 2: `m ← LSB(Sum) ? M : 0`, then
    /// `P ← (P + m) / 2`. The `m` selection is per-tile predication on the
    /// constant row `M` into `t_carry` — no extra row is needed, which is
    /// what keeps the reserved-row budget at the paper's six — and the
    /// halving is one costless shift on the first half-adder's write-back.
    fn montgomery_halve_step<S: InstrSink>(&self, sink: &mut S) -> Result<(), BpNttError> {
        let rm = &self.rm;
        self.exec(
            sink,
            Instruction::Check {
                src: rm.sum,
                bit: 0,
            },
        )?;
        // m = M in odd tiles, 0 in even tiles.
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.t_carry,
                src: rm.modulus,
                kind: UnaryKind::Copy,
                pred: PredMode::IfSet,
            },
        )?;
        self.exec(
            sink,
            Instruction::Unary {
                dst: rm.t_carry,
                src: rm.t_carry,
                kind: UnaryKind::Zero,
                pred: PredMode::IfClear,
            },
        )?;
        // c1, s1 = Sum & m, (Sum ⊕ m) >> 1 (fused shift; Observation 2
        // makes the dropped LSB provably zero).
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.t_sum,
                op: BitOp::Xor,
                src0: rm.sum,
                src1: rm.t_carry,
                dst2: Some((rm.t_carry, BitOp::And)),
                shift: Some((ShiftDir::Right, true)),
                pred: PredMode::Always,
            },
        )?;
        // c2, s2 = s1 & c1, s1 ⊕ c1.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.t_carry,
                op: BitOp::And,
                src0: rm.t_sum,
                src1: rm.t_carry,
                dst2: Some((rm.t_sum, BitOp::Xor)),
                shift: None,
                pred: PredMode::Always,
            },
        )?;
        // c3, Sum = Carry & s2, Carry ⊕ s2.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.carry,
                op: BitOp::And,
                src0: rm.carry,
                src1: rm.t_sum,
                dst2: Some((rm.sum, BitOp::Xor)),
                shift: None,
                pred: PredMode::Always,
            },
        )?;
        // Carry = c2 | c3.
        self.exec(
            sink,
            Instruction::Binary {
                dst: rm.carry,
                op: BitOp::Or,
                src0: rm.carry,
                src1: rm.t_carry,
                dst2: None,
                shift: None,
                pred: PredMode::Always,
            },
        )
    }

    // ---- butterfly epilogues -----------------------------------------------

    /// The rows and width the typed epilogues work in.
    fn mod_rows(&self) -> ModRows {
        ModRows {
            sum: self.rm.sum,
            carry: self.rm.carry,
            t_sum: self.rm.t_sum,
            t_carry: self.rm.t_carry,
            comp_modulus: self.rm.comp_modulus,
            bitwidth: self.bitwidth as u16,
        }
    }

    fn epilogue<S: InstrSink>(&self, sink: &mut S, kind: Epilogue) -> Result<(), BpNttError> {
        sink.epilogue(EpilogueOp {
            rows: self.mod_rows(),
            kind,
        })?;
        Ok(())
    }

    /// `dst ← (x + y) mod q` for reduced operands. When `final_mask` is
    /// given, only tiles selected by `MaskTiles(stride_log2, phase)`
    /// receive the result (the arithmetic itself runs in every tile so the
    /// zero detector converges); the mask is restored to all-tiles after.
    ///
    /// Clobbers both temporaries and `Carry` (not `Sum` unless it is `dst`).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn add_mod<S: InstrSink>(
        &self,
        sink: &mut S,
        dst: RowAddr,
        x: RowAddr,
        y: RowAddr,
        final_mask: Option<(u8, bool)>,
    ) -> Result<(), BpNttError> {
        self.epilogue(
            sink,
            Epilogue::AddMod {
                dst,
                x,
                y,
                final_mask,
            },
        )
    }

    /// `dst ← (x − y) mod q` for reduced operands, as a complement-add
    /// (`x − y = ¬(¬x + y)` mod `2^w`). Same masking contract as
    /// [`Self::add_mod`]; clobbers both temporaries only.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn sub_mod<S: InstrSink>(
        &self,
        sink: &mut S,
        dst: RowAddr,
        x: RowAddr,
        y: RowAddr,
        final_mask: Option<(u8, bool)>,
    ) -> Result<(), BpNttError> {
        self.epilogue(
            sink,
            Epilogue::SubMod {
                dst,
                x,
                y,
                final_mask,
            },
        )
    }

    // ---- butterflies ------------------------------------------------------

    /// Completes a modular multiplication: resolve the accumulator and
    /// reduce into `[0, q)`; the product ends in `Sum`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn finish_modmul<S: InstrSink>(&self, sink: &mut S) -> Result<(), BpNttError> {
        self.epilogue(sink, Epilogue::Finish { dst: None })
    }

    /// [`Self::finish_modmul`], then copies the product from `Sum` into
    /// `dst`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn finish_modmul_into<S: InstrSink>(
        &self,
        sink: &mut S,
        dst: RowAddr,
    ) -> Result<(), BpNttError> {
        self.epilogue(sink, Epilogue::Finish { dst: Some(dst) })
    }

    /// Cooley–Tukey butterfly with a compile-time twiddle:
    /// `t = ζ·a[hi]; a[hi] = a[lo] − t; a[lo] = a[lo] + t` (paper
    /// Algorithm 1 lines 6–8). `zeta_mont = ζ·R mod q`.
    ///
    /// Note the *implicit shift*: `a[lo]` and `a[hi]` are combined purely
    /// by activating their rows — no coefficient ever moves columns.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn ct_butterfly_const<S: InstrSink>(
        &self,
        sink: &mut S,
        lo: RowAddr,
        hi: RowAddr,
        zeta_mont: u64,
    ) -> Result<(), BpNttError> {
        self.modmul_const(sink, hi, zeta_mont)?;
        self.finish_modmul(sink)?;
        self.sub_mod(sink, hi, lo, self.rm.sum, None)?;
        self.add_mod(sink, lo, lo, self.rm.sum, None)
    }

    /// Cooley–Tukey butterfly with per-tile twiddles read from the layout's
    /// twiddle row.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no twiddle row (single-tile layouts use
    /// [`Self::ct_butterfly_const`]).
    pub fn ct_butterfly_data<S: InstrSink>(
        &self,
        sink: &mut S,
        lo: RowAddr,
        hi: RowAddr,
    ) -> Result<(), BpNttError> {
        let tw = self
            .rm
            .twiddle
            .expect("data-driven butterfly needs a twiddle row");
        self.modmul_data(sink, hi, tw)?;
        self.finish_modmul(sink)?;
        self.sub_mod(sink, hi, lo, self.rm.sum, None)?;
        self.add_mod(sink, lo, lo, self.rm.sum, None)
    }

    /// Gentleman–Sande butterfly with a compile-time inverse twiddle:
    /// `u = a[lo]; v = a[hi]; a[lo] = u + v; a[hi] = ζ⁻¹·(u − v)`.
    /// `inv_zeta_mont = ζ⁻¹·R mod q`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn gs_butterfly_const<S: InstrSink>(
        &self,
        sink: &mut S,
        lo: RowAddr,
        hi: RowAddr,
        inv_zeta_mont: u64,
    ) -> Result<(), BpNttError> {
        let rm = &self.rm;
        self.sub_mod(sink, rm.sum, lo, hi, None)?;
        self.add_mod(sink, lo, lo, hi, None)?;
        self.exec(
            sink,
            Instruction::Unary {
                dst: hi,
                src: rm.sum,
                kind: UnaryKind::Copy,
                pred: PredMode::Always,
            },
        )?;
        self.modmul_const(sink, hi, inv_zeta_mont)?;
        self.finish_modmul_into(sink, hi)
    }

    /// Gentleman–Sande butterfly with per-tile inverse twiddles.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no twiddle/scratch rows.
    pub fn gs_butterfly_data<S: InstrSink>(
        &self,
        sink: &mut S,
        lo: RowAddr,
        hi: RowAddr,
    ) -> Result<(), BpNttError> {
        let rm = &self.rm;
        let tw = rm
            .twiddle
            .expect("data-driven butterfly needs a twiddle row");
        let scratch = rm
            .scratch
            .expect("data-driven GS butterfly needs the scratch row");
        self.sub_mod(sink, rm.sum, lo, hi, None)?;
        self.add_mod(sink, lo, lo, hi, None)?;
        self.exec(
            sink,
            Instruction::Unary {
                dst: scratch,
                src: rm.sum,
                kind: UnaryKind::Copy,
                pred: PredMode::Always,
            },
        )?;
        self.modmul_data(sink, scratch, tw)?;
        self.finish_modmul_into(sink, hi)
    }

    /// Multiplies a coefficient row by a compile-time constant in place:
    /// `row ← c·row·R⁻¹ mod q` (used for the inverse transform's `N⁻¹`
    /// scaling; pass `c = k·R mod q` to realize `row ← k·row`).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn scale_const<S: InstrSink>(
        &self,
        sink: &mut S,
        row: RowAddr,
        c: u64,
    ) -> Result<(), BpNttError> {
        self.modmul_const(sink, row, c)?;
        self.finish_modmul_into(sink, row)
    }

    /// Moves `src` into `dst` shifted by `d_tiles` whole tiles (global
    /// shifts; `d_tiles × bitwidth` cycles — the cross-tile alignment cost
    /// of Fig. 8(b)).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn move_tiles<S: InstrSink>(
        &self,
        sink: &mut S,
        dst: RowAddr,
        src: RowAddr,
        d_tiles: usize,
        dir: ShiftDir,
    ) -> Result<(), BpNttError> {
        let steps = d_tiles * self.bitwidth;
        for k in 0..steps {
            let from = if k == 0 { src } else { dst };
            self.exec(
                sink,
                Instruction::Shift {
                    dst,
                    src: from,
                    dir,
                    masked: false,
                    pred: PredMode::Always,
                },
            )?;
        }
        Ok(())
    }

    /// The modulus this emitter was built for.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The word width in bits.
    #[must_use]
    pub fn bitwidth(&self) -> usize {
        self.bitwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use bpntt_sram::{Controller, Recorder, SramArray};

    /// A recorded Cooley–Tukey butterfly replays as four control entries:
    /// one multiplier chain (with Algorithm 2's accumulator clears) and
    /// the three typed epilogues — no generic run, no per-loop entry.
    #[test]
    fn ct_butterfly_replays_as_four_control_entries() {
        let layout = Layout::new(518, 256, 24, 256).unwrap();
        let kernels = Kernels::new(*layout.rowmap(), 8_380_417, 24);
        let ctl = Controller::new(SramArray::new(518, layout.active_cols()).unwrap(), 24).unwrap();
        let (lo, hi) = (layout.offset_row(0), layout.offset_row(1));
        let mut rec = Recorder::new();
        kernels
            .ct_butterfly_const(&mut rec, lo, hi, 0x5a_5a5a)
            .unwrap();
        let prog = rec.finish().compile(&ctl).unwrap();
        assert_eq!(prog.control_len(), 4);
        assert_eq!((prog.fused_chains(), prog.fused_epilogues()), (1, 3));
    }
}

//! Compile-once / replay-many programs.
//!
//! BP-NTT's central premise is that one instruction stream drives every
//! lane simultaneously and that this stream depends only on the NTT
//! parameters and the data layout — never on the data. This module turns
//! that premise into an execution model:
//!
//! * [`InstrSink`] — the target of kernel code generation. A
//!   [`Controller`] is a sink that executes immediately (the classic
//!   emit-per-call path); a [`Recorder`] is a sink that captures the
//!   stream into a [`ReplayProgram`].
//! * [`ZeroLoopSpec`] — the one dynamic construct the kernels need: a
//!   carry/borrow-resolution loop that senses a row's wired-OR zero flag
//!   each round and terminates early. Recording it as a structured op (with
//!   its alternating bodies and parity-dependent epilogue) keeps the replay
//!   *trace* — every executed instruction, in order — bit-identical to
//!   emission on any data.
//! * [`ReplayProgram::compile`] — validates every address once against a
//!   concrete controller and precomputes every instruction's cycle and
//!   energy cost, yielding a [`CompiledProgram`].
//! * [`Controller::run_compiled`] — the hot path: replays a compiled
//!   program with no codegen, no validation, and no cost-model evaluation
//!   per instruction. Statistics accounting is identical to emission (same
//!   values added in the same order, so even the floating-point energy
//!   total matches bit for bit).
//!
//! # Example
//!
//! ```
//! use bpntt_sram::{
//!     BitOp, BitRow, Controller, InstrSink, Instruction, PredMode, Recorder, RowAddr, SramArray,
//! };
//!
//! let mut ctl = Controller::new(SramArray::new(8, 64)?, 32)?;
//! let mut rec = Recorder::new();
//! let step = Instruction::Binary {
//!     dst: RowAddr(2),
//!     op: BitOp::Xor,
//!     src0: RowAddr(0),
//!     src1: RowAddr(1),
//!     dst2: None,
//!     shift: None,
//!     pred: PredMode::Always,
//! };
//! rec.emit(step)?;
//! let prog = rec.finish().compile(&ctl)?;
//! let mut a = BitRow::zero(64);
//! a.set_tile_word(0, 32, 0b1100);
//! ctl.load_data_row(0, a);
//! let mut b = BitRow::zero(64);
//! b.set_tile_word(0, 32, 0b1010);
//! ctl.load_data_row(1, b);
//! ctl.run_compiled(&prog)?;
//! assert_eq!(ctl.peek_row(2).tile_word(0, 32), 0b0110);
//! # Ok::<(), bpntt_sram::SramError>(())
//! ```

use crate::bitrow::BitRow;
use crate::error::SramError;
use crate::exec::Controller;
use crate::isa::{BitOp, Instruction, RowAddr, ShiftDir, UnaryKind};
use crate::wordkern::FastPathKind;

/// A borrowed description of one zero-terminated resolution loop.
///
/// Semantics (exactly the kernels' hand-written loops): up to `max_checks`
/// rounds of *sense `src`'s zero flag; stop if set; otherwise run this
/// round's body* — where round `k` runs `even_body` for even `k` and
/// `odd_body` for odd `k` (borrow resolution ping-pongs its live row).
/// After the loop, `odd_epilogue` runs iff an odd number of bodies
/// executed (the live row ended up in the "wrong" slot and must be copied
/// back).
#[derive(Debug, Clone, Copy)]
pub struct ZeroLoopSpec<'a> {
    /// Row whose wired-OR zero flag terminates the loop.
    pub src: RowAddr,
    /// Body of even-numbered rounds (0-indexed).
    pub even_body: &'a [Instruction],
    /// Body of odd-numbered rounds.
    pub odd_body: &'a [Instruction],
    /// Maximum number of zero-flag checks (= maximum bodies).
    pub max_checks: usize,
    /// Runs once after the loop iff an odd number of bodies executed.
    pub odd_epilogue: &'a [Instruction],
}

/// The target of kernel code generation: either a [`Controller`]
/// (execute immediately) or a [`Recorder`] (capture for later replay).
pub trait InstrSink {
    /// Emits one straight-line instruction.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (executing sinks) — recording sinks
    /// never fail.
    fn emit(&mut self, i: Instruction) -> Result<(), SramError>;

    /// Emits one zero-terminated resolution loop.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from the loop's instructions.
    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError>;

    /// Emits one data-row load whose contents are known at compile time
    /// (constant rows, twiddle rows — never user data).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    fn load_row(&mut self, row: RowAddr, data: &BitRow) -> Result<(), SramError>;
}

impl InstrSink for Controller {
    fn emit(&mut self, i: Instruction) -> Result<(), SramError> {
        self.fault_tick();
        self.execute(&i)
    }

    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError> {
        // Tick only at the loop boundary, never between rounds: the
        // max_checks convergence bound covers arbitrary data at loop
        // entry but not mid-loop mutation.
        self.fault_tick();
        let mut bodies = 0usize;
        for k in 0..spec.max_checks {
            self.execute(&Instruction::CheckZero { src: spec.src })?;
            if self.zero_flag() {
                break;
            }
            let body = if k % 2 == 0 {
                spec.even_body
            } else {
                spec.odd_body
            };
            for i in body {
                self.execute(i)?;
            }
            bodies += 1;
        }
        debug_assert!(
            self.zero_flag(),
            "resolution loop must converge within max_checks"
        );
        if bodies % 2 == 1 {
            for i in spec.odd_epilogue {
                self.execute(i)?;
            }
        }
        Ok(())
    }

    fn load_row(&mut self, row: RowAddr, data: &BitRow) -> Result<(), SramError> {
        if row.index() >= self.rows() {
            return Err(SramError::RowOutOfRange {
                row: row.index(),
                rows: self.rows(),
            });
        }
        self.load_data_row(row.index(), data.clone());
        Ok(())
    }
}

/// One recorded operation of a [`ReplayProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    /// A straight-line instruction.
    Instr(Instruction),
    /// A compile-time-constant data-row load.
    LoadRow {
        /// Destination row.
        row: RowAddr,
        /// The row image.
        data: BitRow,
    },
    /// A zero-terminated resolution loop (owned form of [`ZeroLoopSpec`]).
    ZeroLoop {
        /// Row whose zero flag terminates the loop.
        src: RowAddr,
        /// Even-round body.
        even_body: Vec<Instruction>,
        /// Odd-round body.
        odd_body: Vec<Instruction>,
        /// Maximum number of zero-flag checks.
        max_checks: usize,
        /// Runs iff an odd number of bodies executed.
        odd_epilogue: Vec<Instruction>,
    },
}

/// A recorded instruction stream, independent of any controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayProgram {
    ops: Vec<ReplayOp>,
}

impl ReplayProgram {
    /// The recorded operations.
    #[must_use]
    pub fn ops(&self) -> &[ReplayOp] {
        &self.ops
    }

    /// Number of recorded operations (loops count as one).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates the program against `ctl`'s geometry and lowers it:
    /// every row address and check bit is verified once, and every
    /// instruction's cycle and energy cost under `ctl`'s active models is
    /// precomputed.
    ///
    /// The lowered form is deliberately compact — a flat instruction
    /// stream (14 bytes each) plus one cost-table index byte per
    /// instruction — because replay throughput is bounded by how many
    /// bytes of program stream through the cache per call, not by the
    /// word-level row arithmetic.
    ///
    /// # Errors
    ///
    /// The same address/bit errors [`Controller::execute`] would raise,
    /// surfaced at compile time instead of replay time.
    pub fn compile(&self, ctl: &Controller) -> Result<CompiledProgram, SramError> {
        let mut prog = CompiledProgram {
            instrs: Vec::new(),
            cost_idx: Vec::new(),
            ctrl: Vec::new(),
            body_ctrl: Vec::new(),
            cycles_table: Vec::new(),
            energy_table: Vec::new(),
            loops: Vec::new(),
            loads: Vec::new(),
            addbs: Vec::new(),
            halves: Vec::new(),
            resolve_rounds: Vec::new(),
            borrow_rounds: Vec::new(),
            chains: Vec::new(),
            resolve_loops: Vec::new(),
            borrow_loops: Vec::new(),
            csadds: Vec::new(),
            subinits: Vec::new(),
            condsels: Vec::new(),
            condcopies: Vec::new(),
            signfixes: Vec::new(),
            addb_cost: None,
            halve_cost: None,
            resolve_round_cost: None,
            borrow_round_cost: None,
            csadd_cost: None,
            subinit_cost: None,
            condsel_cost: None,
            condcopy_cost: None,
            signfix_cost: None,
            rows: ctl.rows(),
            cols: ctl.cols(),
            tile_width: ctl.tile_width(),
            fast_path: ctl.fast_path_kind(),
            timing: *ctl.timing_model(),
            energy: *ctl.energy_model(),
        };
        // Straight-line instructions are buffered per segment so the
        // superop matcher sees whole windows.
        let mut segment: Vec<Instruction> = Vec::new();
        for op in &self.ops {
            match op {
                ReplayOp::Instr(i) => segment.push(*i),
                ReplayOp::LoadRow { row, data } => {
                    prog.flush_segment(ctl, &mut segment, false)?;
                    if row.index() >= ctl.rows() {
                        return Err(SramError::RowOutOfRange {
                            row: row.index(),
                            rows: ctl.rows(),
                        });
                    }
                    if data.cols() != ctl.cols() {
                        return Err(SramError::ProgramMismatch {
                            reason: "recorded row image width differs from the array",
                        });
                    }
                    prog.loads.push(LoadStep {
                        row: row.index(),
                        data: data.clone(),
                    });
                    prog.ctrl.push(Ctrl::Load {
                        idx: (prog.loads.len() - 1) as u32,
                    });
                }
                ReplayOp::ZeroLoop {
                    src,
                    even_body,
                    odd_body,
                    max_checks,
                    odd_epilogue,
                } => {
                    prog.flush_segment(ctl, &mut segment, false)?;
                    let check = Instruction::CheckZero { src: *src };
                    ctl.validate_instr(&check)?;
                    let check_cost = prog.intern_cost(ctl, &check);
                    let even = prog.lower_body(ctl, even_body)?;
                    let odd = prog.lower_body(ctl, odd_body)?;
                    let epilogue = prog.lower_body(ctl, odd_epilogue)?;
                    prog.loops.push(LoopStep {
                        src: *src,
                        check_cost,
                        max_checks: *max_checks,
                        even,
                        odd,
                        epilogue,
                    });
                    let loop_idx = (prog.loops.len() - 1) as u32;
                    // Loop-level fusion: a body that is exactly one
                    // carry-resolution round (and no epilogue) runs with
                    // the rows borrowed once across every iteration.
                    let single_round = |r: CtrlRange| -> Option<u32> {
                        if r.1 - r.0 != 1 {
                            return None;
                        }
                        match prog.body_ctrl[r.0 as usize] {
                            Ctrl::ResolveRound { idx } => Some(idx),
                            _ => None,
                        }
                    };
                    let single_borrow = |r: CtrlRange| -> Option<u32> {
                        if r.1 - r.0 != 1 {
                            return None;
                        }
                        match prog.body_ctrl[r.0 as usize] {
                            Ctrl::BorrowRound { idx } => Some(idx),
                            _ => None,
                        }
                    };
                    let fused_resolve = match (single_round(even), single_round(odd)) {
                        (Some(e), Some(o)) if epilogue.0 == epilogue.1 => {
                            let (re, ro) = (
                                &prog.resolve_rounds[e as usize],
                                &prog.resolve_rounds[o as usize],
                            );
                            (re.s == ro.s && re.c == ro.c && re.c == src.0).then_some((re.s, re.c))
                        }
                        _ => None,
                    };
                    let fused_borrow = match (single_borrow(even), single_borrow(odd)) {
                        (Some(e), Some(o)) => {
                            let (be, bo) = (
                                &prog.borrow_rounds[e as usize],
                                &prog.borrow_rounds[o as usize],
                            );
                            (be.b == bo.b
                                && be.b == src.0
                                && be.s_cur == bo.s_other
                                && be.s_other == bo.s_cur)
                                .then_some((be.s_cur, be.s_other, be.b))
                        }
                        _ => None,
                    };
                    if let Some((s, c)) = fused_resolve {
                        prog.resolve_loops.push(ResolveLoopOp {
                            s,
                            c,
                            max_checks: *max_checks,
                            check_cost,
                            fallback_loop: loop_idx,
                        });
                        prog.ctrl.push(Ctrl::ResolveLoop {
                            idx: (prog.resolve_loops.len() - 1) as u32,
                        });
                    } else if let Some((live, other, t)) = fused_borrow {
                        prog.borrow_loops.push(BorrowLoopOp {
                            live,
                            other,
                            t,
                            max_checks: *max_checks,
                            check_cost,
                            epilogue,
                            fallback_loop: loop_idx,
                        });
                        prog.ctrl.push(Ctrl::BorrowLoop {
                            idx: (prog.borrow_loops.len() - 1) as u32,
                        });
                    } else {
                        prog.ctrl.push(Ctrl::Loop { idx: loop_idx });
                    }
                }
            }
        }
        prog.flush_segment(ctl, &mut segment, false)?;
        prog.chain_pass();
        Ok(prog)
    }
}

// ---- superop pattern matching ---------------------------------------------

fn distinct(rows: &[u16]) -> bool {
    rows.iter()
        .enumerate()
        .all(|(i, a)| rows[i + 1..].iter().all(|b| a != b))
}

/// Matches the add-B half-adder pass emitted by Algorithm 2 lines 6–9.
fn match_addb(w: &[Instruction]) -> Option<AddBOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (tc, s, b, ts, pred) = match *w.first()? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred,
        } => (dst.0, src0.0, src1.0, d2.0, pred),
        _ => return None,
    };
    let c = match *w.get(1)? {
        I::Shift {
            dst,
            src,
            dir: ShiftDir::Left,
            masked: false,
            pred: p,
        } if dst == src && p == pred => dst.0,
        _ => return None,
    };
    match *w.get(2)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: p,
        } if dst.0 == c && src0.0 == c && src1.0 == ts && d2.0 == s && p == pred => {}
        _ => return None,
    }
    match *w.get(3)? {
        I::Binary {
            dst,
            op: BitOp::Or,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: p,
        } if dst.0 == c && src0.0 == c && src1.0 == tc && p == pred => {}
        _ => return None,
    }
    // The executor borrows all five rows disjointly: b must not alias
    // any accumulator row.
    if !distinct(&[s, c, ts, tc, b]) {
        return None;
    }
    if matches!(pred, P::IfClear) {
        // Emitted kernels never use IfClear here; keep the fused executor's
        // tested surface small.
        return None;
    }
    Some(AddBOp {
        sum: s,
        b,
        carry: c,
        t_sum: ts,
        t_carry: tc,
        pred,
        fallback: (0, 0),
    })
}

/// Matches the Montgomery halve step (Algorithm 2 lines 11–16).
fn match_halve(w: &[Instruction]) -> Option<HalveOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let s = match *w.first()? {
        I::Check { src, bit: 0 } => src.0,
        _ => return None,
    };
    let (ts, m, tc) = match *w.get(1)? {
        I::Binary {
            dst,
            op: BitOp::Xor,
            src0,
            src1,
            dst2: Some((d2, BitOp::And)),
            shift: Some((ShiftDir::Right, true)),
            pred: P::IfSet,
        } if src0.0 == s => (dst.0, src1.0, d2.0),
        _ => return None,
    };
    match *w.get(2)? {
        I::Shift {
            dst,
            src,
            dir: ShiftDir::Right,
            masked: true,
            pred: P::IfClear,
        } if dst.0 == ts && src.0 == s => {}
        _ => return None,
    }
    match *w.get(3)? {
        I::Unary {
            dst,
            kind: UnaryKind::Zero,
            pred: P::IfClear,
            ..
        } if dst.0 == tc => {}
        _ => return None,
    }
    match *w.get(4)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: P::Always,
        } if dst.0 == tc && src0.0 == ts && src1.0 == tc && d2.0 == ts => {}
        _ => return None,
    }
    let c = match *w.get(5)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: P::Always,
        } if dst == src0 && src1.0 == ts && d2.0 == s => dst.0,
        _ => return None,
    };
    match *w.get(6)? {
        I::Binary {
            dst,
            op: BitOp::Or,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: P::Always,
        } if dst.0 == c && src0.0 == c && src1.0 == tc => {}
        _ => return None,
    }
    if !distinct(&[s, c, ts, tc, m]) {
        return None;
    }
    Some(HalveOp {
        sum: s,
        carry: c,
        t_sum: ts,
        t_carry: tc,
        modulus: m,
        fallback: (0, 0),
    })
}

/// Matches one carry-resolution round (tile-masked shift + dual binary).
fn match_resolve_round(w: &[Instruction]) -> Option<ResolveRoundOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let c = match *w.first()? {
        I::Shift {
            dst,
            src,
            dir: ShiftDir::Left,
            masked: true,
            pred: P::Always,
        } if dst == src => dst.0,
        _ => return None,
    };
    let s = match *w.get(1)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: P::Always,
        } if dst.0 == c && src1.0 == c && src0 == d2 => src0.0,
        _ => return None,
    };
    if s == c {
        return None;
    }
    Some(ResolveRoundOp {
        s,
        c,
        fallback: (0, 0),
    })
}

/// Matches one borrow-resolution round (tile-masked shift + two binaries).
fn match_borrow_round(w: &[Instruction]) -> Option<BorrowRoundOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let b = match *w.first()? {
        I::Shift {
            dst,
            src,
            dir: ShiftDir::Left,
            masked: true,
            pred: P::Always,
        } if dst == src => dst.0,
        _ => return None,
    };
    let (s_other, s_cur) = match *w.get(1)? {
        I::Binary {
            dst,
            op: BitOp::Xor,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: P::Always,
        } if src1.0 == b => (dst.0, src0.0),
        _ => return None,
    };
    match *w.get(2)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: P::Always,
        } if dst.0 == b && src0.0 == s_other && src1.0 == b => {}
        _ => return None,
    }
    if !distinct(&[s_cur, s_other, b]) {
        return None;
    }
    Some(BorrowRoundOp {
        s_cur,
        s_other,
        b,
        fallback: (0, 0),
    })
}

/// Matches the sign-fix tail of borrow-save subtraction (`sub_mod`).
fn match_signfix(w: &[Instruction]) -> Option<SignFixOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (s, bit) = match *w.first()? {
        I::Check { src, bit } => (src.0, bit),
        _ => return None,
    };
    let c = match *w.get(1)? {
        I::Unary {
            dst,
            kind: UnaryKind::Zero,
            pred: P::Always,
            ..
        } => dst.0,
        _ => return None,
    };
    let m = match *w.get(2)? {
        I::Unary {
            dst,
            src,
            kind: UnaryKind::Copy,
            pred: P::IfSet,
        } if dst.0 == c => src.0,
        _ => return None,
    };
    let tc = match *w.get(3)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: P::Always,
        } if src0.0 == s && src1.0 == c && d2.0 == s => dst.0,
        _ => return None,
    };
    if !distinct(&[s, c, tc, m]) {
        return None;
    }
    Some(SignFixOp {
        s,
        bit,
        c,
        t_carry: tc,
        modulus: m,
        fallback: (0, 0),
    })
}

/// Matches the conditional-select epilogue of `add_mod`.
fn match_condsel(w: &[Instruction]) -> Option<CondSelOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (cs, bit) = match *w.first()? {
        I::Check { src, bit } => (src.0, bit),
        _ => return None,
    };
    let (dst, a) = match *w.get(1)? {
        I::Unary {
            dst,
            src,
            kind: UnaryKind::Copy,
            pred: P::IfSet,
        } => (dst.0, src.0),
        _ => return None,
    };
    let b = match *w.get(2)? {
        I::Unary {
            dst: d2,
            src,
            kind: UnaryKind::Copy,
            pred: P::IfClear,
        } if d2.0 == dst => src.0,
        _ => return None,
    };
    // The executor borrows the three select rows disjointly; the check
    // source may alias any of them (it is only read, before any write).
    if !distinct(&[dst, a, b]) {
        return None;
    }
    Some(CondSelOp {
        check_src: cs,
        bit,
        dst,
        a,
        b,
        fallback: (0, 0),
    })
}

/// Matches a predicate latch followed by one predicated copy
/// (`cond_sub_q`'s select tail).
fn match_condcopy(w: &[Instruction]) -> Option<CondCopyOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (cs, bit) = match *w.first()? {
        I::Check { src, bit } => (src.0, bit),
        _ => return None,
    };
    let (dst, src, pred) = match *w.get(1)? {
        I::Unary {
            dst,
            src,
            kind: UnaryKind::Copy,
            pred: pred @ (P::IfSet | P::IfClear),
        } => (dst.0, src.0, pred),
        _ => return None,
    };
    if dst == src {
        return None;
    }
    Some(CondCopyOp {
        check_src: cs,
        bit,
        dst,
        src,
        pred,
        fallback: (0, 0),
    })
}

/// Matches the borrow-save subtract initiator (`sub_mod` lines 1–2).
fn match_subinit(w: &[Instruction]) -> Option<SubInitOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (ts, x, y) = match *w.first()? {
        I::Binary {
            dst,
            op: BitOp::Xor,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: P::Always,
        } => (dst.0, src0.0, src1.0),
        _ => return None,
    };
    let tc = match *w.get(1)? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: None,
            shift: None,
            pred: P::Always,
        } if src0.0 == ts && src1.0 == y => dst.0,
        _ => return None,
    };
    if !distinct(&[ts, tc, x, y]) {
        return None;
    }
    Some(SubInitOp {
        t_sum: ts,
        t_carry: tc,
        x,
        y,
        fallback: (0, 0),
    })
}

/// Matches a lone dual write-back carry-save add (`d_and, d_xor =
/// a ∧ b, a ⊕ b`). Tried after every longer pattern — the add-B step
/// starts with this exact shape.
fn match_csadd(w: &[Instruction]) -> Option<CsAddOp> {
    use crate::isa::PredMode as P;
    use Instruction as I;
    let (da, a, b, dx) = match *w.first()? {
        I::Binary {
            dst,
            op: BitOp::And,
            src0,
            src1,
            dst2: Some((d2, BitOp::Xor)),
            shift: None,
            pred: P::Always,
        } => (dst.0, src0.0, src1.0, d2.0),
        _ => return None,
    };
    if !distinct(&[da, dx, a, b]) {
        return None;
    }
    Some(CsAddOp {
        d_and: da,
        d_xor: dx,
        a,
        b,
        fallback: (0, 0),
    })
}

/// Records an instruction stream instead of executing it.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    ops: Vec<ReplayOp>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Finishes recording.
    #[must_use]
    pub fn finish(self) -> ReplayProgram {
        ReplayProgram { ops: self.ops }
    }
}

impl InstrSink for Recorder {
    fn emit(&mut self, i: Instruction) -> Result<(), SramError> {
        self.ops.push(ReplayOp::Instr(i));
        Ok(())
    }

    fn zero_loop(&mut self, spec: ZeroLoopSpec<'_>) -> Result<(), SramError> {
        self.ops.push(ReplayOp::ZeroLoop {
            src: spec.src,
            even_body: spec.even_body.to_vec(),
            odd_body: spec.odd_body.to_vec(),
            max_checks: spec.max_checks,
            odd_epilogue: spec.odd_epilogue.to_vec(),
        });
        Ok(())
    }

    fn load_row(&mut self, row: RowAddr, data: &BitRow) -> Result<(), SramError> {
        self.ops.push(ReplayOp::LoadRow {
            row,
            data: data.clone(),
        });
        Ok(())
    }
}

/// Control-stream entry: one unit of replay execution.
///
/// Beyond generic instruction runs, the compiler recognizes the four
/// instruction shapes that dominate Algorithm 2 — the add-B step, the
/// Montgomery halve step, and the carry/borrow resolution rounds — and
/// lowers each occurrence to a *fused superop*: one pass over the storage
/// words computing the whole group's final row contents, with
/// pre-aggregated statistics. Fusion is a pure execution-strategy change:
/// rows and [`crate::Stats`] are bit-identical to per-instruction
/// execution, and each superop keeps its original instruction range as a
/// fallback (taken when a tile mask is active, where the general gating
/// semantics apply).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctrl {
    /// Execute `len` consecutive instructions starting at `start`.
    Run { start: u32, len: u32 },
    /// Execute `loops[idx]` (a zero-terminated resolution loop).
    Loop { idx: u32 },
    /// Execute `loads[idx]` (a constant data-row load).
    Load { idx: u32 },
    /// Fused Algorithm 2 add-B step (`addbs[idx]`).
    AddB { idx: u32 },
    /// Fused Montgomery halve step (`halves[idx]`).
    Halve { idx: u32 },
    /// Fused carry-resolution round (`resolve_rounds[idx]`).
    ResolveRound { idx: u32 },
    /// Fused borrow-resolution round (`borrow_rounds[idx]`).
    BorrowRound { idx: u32 },
    /// Fused multiplier chain — a run of add-B/halve steps over one
    /// accumulator row set, rows borrowed once (`chains[idx]`).
    Chain { idx: u32 },
    /// Fused carry-save add initiator (`csadds[idx]`).
    CsAdd { idx: u32 },
    /// Fused borrow-save subtract initiator (`subinits[idx]`).
    SubInit { idx: u32 },
    /// Fused conditional select epilogue (`condsels[idx]`).
    CondSel { idx: u32 },
    /// Fused conditional copy epilogue (`condcopies[idx]`).
    CondCopy { idx: u32 },
    /// Fused subtraction sign-fix (`signfixes[idx]`).
    SignFix { idx: u32 },
    /// Fully fused carry-resolution loop (`resolve_loops[idx]`).
    ResolveLoop { idx: u32 },
    /// Fully fused borrow-resolution loop (`borrow_loops[idx]`).
    BorrowLoop { idx: u32 },
}

/// One step of a fused multiplier chain.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainStep {
    /// Add-B step with its write predication.
    AddB(crate::isa::PredMode),
    /// Montgomery halve step (predicate latched internally).
    Halve,
}

/// A run of add-B/halve steps sharing one accumulator row set — the
/// inner loop of Algorithm 2, executed with the rows borrowed once.
#[derive(Debug, Clone)]
pub(crate) struct ChainOp {
    pub sum: u16,
    pub carry: u16,
    pub t_sum: u16,
    pub t_carry: u16,
    pub b: u16,
    pub modulus: u16,
    pub steps: Vec<ChainStep>,
    /// Whole-chain cycle and count sums (energy still accumulates value
    /// by value from the per-pattern tables to stay bit-identical).
    pub cycles: u64,
    pub counts: crate::stats::InstrCounts,
    /// The original control entries, for the masked-state fallback.
    pub fallback_ops: Vec<Ctrl>,
}

/// A zero-loop whose body is exactly one carry-resolution round: the
/// whole dynamic loop runs with the two rows borrowed once.
#[derive(Debug, Clone)]
pub(crate) struct ResolveLoopOp {
    pub s: u16,
    pub c: u16,
    pub max_checks: usize,
    pub check_cost: u8,
    /// Generic `LoopStep` index for the masked-state fallback.
    pub fallback_loop: u32,
}

/// A zero-loop whose bodies are one borrow-resolution round each (the
/// two parities swapping the live row), fully fused; the odd-parity
/// epilogue stays generic and runs after the borrows are released.
#[derive(Debug, Clone)]
pub(crate) struct BorrowLoopOp {
    /// Even rounds' live row (`s_cur`); odd rounds swap with `other`.
    pub live: u16,
    pub other: u16,
    /// The borrow row (also the zero-checked row).
    pub t: u16,
    pub max_checks: usize,
    pub check_cost: u8,
    pub epilogue: CtrlRange,
    /// Generic `LoopStep` index for the masked-state fallback.
    pub fallback_loop: u32,
}

/// A range into the flat instruction arrays.
type InstrRange = (u32, u32);

/// Fused `P ← P + B` half-adder pass (4 instructions; see
/// [`ZeroLoopSpec`] docs for the emission shape).
#[derive(Debug, Clone)]
pub(crate) struct AddBOp {
    pub sum: u16,
    pub b: u16,
    pub carry: u16,
    pub t_sum: u16,
    pub t_carry: u16,
    pub pred: crate::isa::PredMode,
    pub fallback: InstrRange,
}

/// Fused Montgomery halve step (Check + 6 instructions).
#[derive(Debug, Clone)]
pub(crate) struct HalveOp {
    pub sum: u16,
    pub carry: u16,
    pub t_sum: u16,
    pub t_carry: u16,
    pub modulus: u16,
    pub fallback: InstrRange,
}

/// Fused carry-resolution round (masked shift + dual-writeback binary).
#[derive(Debug, Clone)]
pub(crate) struct ResolveRoundOp {
    pub s: u16,
    pub c: u16,
    pub fallback: InstrRange,
}

/// Fused borrow-resolution round (masked shift + two binaries).
#[derive(Debug, Clone)]
pub(crate) struct BorrowRoundOp {
    pub s_cur: u16,
    pub s_other: u16,
    pub b: u16,
    pub fallback: InstrRange,
}

/// Fused carry-save add initiator: one dual write-back `Binary`
/// (`d_and, d_xor = a ∧ b, a ⊕ b`) executed as a single pass instead of
/// two scratch-row passes plus two write-backs.
#[derive(Debug, Clone)]
pub(crate) struct CsAddOp {
    pub d_and: u16,
    pub d_xor: u16,
    pub a: u16,
    pub b: u16,
    pub fallback: InstrRange,
}

/// Fused borrow-save subtract initiator (`sub_mod` lines 1–2):
/// `t_sum = x ⊕ y; t_carry = t_sum ∧ y` — two `Binary`s, one pass.
#[derive(Debug, Clone)]
pub(crate) struct SubInitOp {
    pub t_sum: u16,
    pub t_carry: u16,
    pub x: u16,
    pub y: u16,
    pub fallback: InstrRange,
}

/// Fused conditional select (`add_mod` epilogue): `Check(check_src, bit)`
/// then `dst ← a` where the predicate is set, `dst ← b` where clear —
/// three instructions, one latch plus one pass.
#[derive(Debug, Clone)]
pub(crate) struct CondSelOp {
    pub check_src: u16,
    pub bit: u16,
    pub dst: u16,
    pub a: u16,
    pub b: u16,
    pub fallback: InstrRange,
}

/// Fused conditional copy (`cond_sub_q` epilogue): `Check(check_src, bit)`
/// then one predicated `dst ← src` copy.
#[derive(Debug, Clone)]
pub(crate) struct CondCopyOp {
    pub check_src: u16,
    pub bit: u16,
    pub dst: u16,
    pub src: u16,
    pub pred: crate::isa::PredMode,
    pub fallback: InstrRange,
}

/// Fused sign-fix of borrow-save subtraction (`sub_mod`): `Check(s, bit)`;
/// `c ← 0`; `c ← M` where set; `t_carry, s = s ∧ c, s ⊕ c` — four
/// instructions, one latch plus one pass.
#[derive(Debug, Clone)]
pub(crate) struct SignFixOp {
    pub s: u16,
    pub bit: u16,
    pub c: u16,
    pub t_carry: u16,
    pub modulus: u16,
    pub fallback: InstrRange,
}

/// Pre-aggregated execution cost of one fused group: exact cycle and
/// count sums plus the per-instruction energy values in emission order
/// (energies are added one by one so the floating-point accumulation is
/// bit-identical to per-instruction execution).
#[derive(Debug, Clone)]
pub(crate) struct GroupCost {
    pub cycles: u64,
    pub counts: crate::stats::InstrCounts,
    pub energy: Vec<f64>,
}

/// A range into the lowered loop-body control stream.
type CtrlRange = (u32, u32);

#[derive(Debug, Clone)]
struct LoopStep {
    src: RowAddr,
    check_cost: u8,
    max_checks: usize,
    even: CtrlRange,
    odd: CtrlRange,
    epilogue: CtrlRange,
}

#[derive(Debug, Clone)]
struct LoadStep {
    row: usize,
    data: BitRow,
}

/// A validated, cost-annotated program bound to one controller
/// configuration (geometry, tile width, and cost models). Cheap to clone
/// behind an `Arc` and share across identically configured controllers —
/// the sharded batch engine replays one compiled program on every shard.
///
/// Layout note: the instruction stream is stored structure-of-arrays —
/// `instrs` (14 B/instruction) parallel to `cost_idx` (1 B/instruction,
/// an index into the deduplicated `cycles_table`/`energy_table`). A
/// 256-point NTT program is a few hundred thousand instructions; keeping
/// the per-instruction footprint at 15 bytes (instead of a naïve
/// cost-annotated enum at ~100 bytes) is what makes replay faster than
/// re-emission — the replay loop is memory-bound on the program stream.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    instrs: Vec<Instruction>,
    cost_idx: Vec<u8>,
    ctrl: Vec<Ctrl>,
    /// Loop bodies are lowered like the top level, but into this separate
    /// stream (a body never contains loops or loads).
    body_ctrl: Vec<Ctrl>,
    cycles_table: Vec<u64>,
    energy_table: Vec<f64>,
    loops: Vec<LoopStep>,
    loads: Vec<LoadStep>,
    pub(crate) addbs: Vec<AddBOp>,
    pub(crate) halves: Vec<HalveOp>,
    pub(crate) resolve_rounds: Vec<ResolveRoundOp>,
    pub(crate) borrow_rounds: Vec<BorrowRoundOp>,
    pub(crate) chains: Vec<ChainOp>,
    pub(crate) resolve_loops: Vec<ResolveLoopOp>,
    pub(crate) borrow_loops: Vec<BorrowLoopOp>,
    pub(crate) csadds: Vec<CsAddOp>,
    pub(crate) subinits: Vec<SubInitOp>,
    pub(crate) condsels: Vec<CondSelOp>,
    pub(crate) condcopies: Vec<CondCopyOp>,
    pub(crate) signfixes: Vec<SignFixOp>,
    pub(crate) addb_cost: Option<GroupCost>,
    pub(crate) halve_cost: Option<GroupCost>,
    pub(crate) resolve_round_cost: Option<GroupCost>,
    pub(crate) borrow_round_cost: Option<GroupCost>,
    pub(crate) csadd_cost: Option<GroupCost>,
    pub(crate) subinit_cost: Option<GroupCost>,
    pub(crate) condsel_cost: Option<GroupCost>,
    pub(crate) condcopy_cost: Option<GroupCost>,
    pub(crate) signfix_cost: Option<GroupCost>,
    rows: usize,
    cols: usize,
    tile_width: usize,
    /// The fused chain/loop execution strategy, decided once at compile
    /// time from the padded row width ([`FastPathKind::for_words`]) so
    /// replay never re-derives it per superop. Always equals the
    /// controller's own kind when the geometry check passes.
    fast_path: FastPathKind,
    timing: crate::cost::TimingModel,
    energy: crate::cost::EnergyModel,
}

impl CompiledProgram {
    /// Interns `(cycles, energy)` of one instruction into the cost tables,
    /// returning its table index. A program has only as many distinct
    /// costs as instruction classes (≤ a dozen), so `u8` never overflows.
    fn intern_cost(&mut self, ctl: &Controller, i: &Instruction) -> u8 {
        let cycles = ctl.timing_model().cycles(i);
        let energy_pj = ctl.energy_model().energy_pj(i, self.cols);
        for (idx, (&c, &e)) in self.cycles_table.iter().zip(&self.energy_table).enumerate() {
            if c == cycles && e.to_bits() == energy_pj.to_bits() {
                return idx as u8;
            }
        }
        self.cycles_table.push(cycles);
        self.energy_table.push(energy_pj);
        assert!(self.cycles_table.len() <= 256, "cost table overflow");
        (self.cycles_table.len() - 1) as u8
    }

    fn push_instr(&mut self, ctl: &Controller, i: &Instruction) -> Result<(), SramError> {
        ctl.validate_instr(i)?;
        let idx = self.intern_cost(ctl, i);
        self.instrs.push(*i);
        self.cost_idx.push(idx);
        Ok(())
    }

    fn push_range(
        &mut self,
        ctl: &Controller,
        is: &[Instruction],
    ) -> Result<InstrRange, SramError> {
        let start = self.instrs.len() as u32;
        for i in is {
            self.push_instr(ctl, i)?;
        }
        Ok((start, self.instrs.len() as u32))
    }

    fn push_ctrl(&mut self, c: Ctrl, into_body: bool) {
        if into_body {
            self.body_ctrl.push(c);
        } else {
            self.ctrl.push(c);
        }
    }

    /// Pre-aggregates one fused group's costs from its instructions.
    fn group_cost(&self, ctl: &Controller, instrs: &[Instruction]) -> GroupCost {
        let mut gc = GroupCost {
            cycles: 0,
            counts: crate::stats::InstrCounts::default(),
            energy: Vec::with_capacity(instrs.len()),
        };
        for i in instrs {
            gc.cycles += ctl.timing_model().cycles(i);
            gc.energy.push(ctl.energy_model().energy_pj(i, self.cols));
            gc.counts.record(i);
        }
        gc
    }

    /// Lowers one straight-line instruction window into the (body or
    /// top-level) control stream, fusing recognized superop patterns.
    fn lower_into(
        &mut self,
        ctl: &Controller,
        instrs: &[Instruction],
        into_body: bool,
    ) -> Result<(), SramError> {
        // Straight-line runs may only merge within this lowering call:
        // merging across a call boundary would fold one loop body's run
        // into another's and corrupt both ranges.
        let barrier = if into_body {
            self.body_ctrl.len()
        } else {
            self.ctrl.len()
        };
        let mut i = 0usize;
        while i < instrs.len() {
            let w = &instrs[i..];
            /// One fusion attempt: on a match, intern the window as the
            /// fallback range, memoize the pattern's group cost (identical
            /// for every occurrence — costs depend only on instruction
            /// shape and column count), and emit the superop control entry.
            macro_rules! fuse {
                ($matcher:ident, $len:expr, $ops:ident, $cost:ident, $ctrl:ident) => {
                    if let Some(mut op) = $matcher(w) {
                        op.fallback = self.push_range(ctl, &w[..$len])?;
                        if self.$cost.is_none() {
                            self.$cost = Some(self.group_cost(ctl, &w[..$len]));
                        }
                        self.$ops.push(op);
                        let idx = (self.$ops.len() - 1) as u32;
                        self.push_ctrl(Ctrl::$ctrl { idx }, into_body);
                        i += $len;
                        continue;
                    }
                };
            }
            // Longest-window first within each leading-instruction family:
            // `Check`-led (halve > sign-fix > select > copy), `Binary`-led
            // (add-B > sub-init > carry-save add), `Shift`-led (borrow >
            // resolve round).
            fuse!(match_halve, 7, halves, halve_cost, Halve);
            fuse!(match_signfix, 4, signfixes, signfix_cost, SignFix);
            fuse!(match_condsel, 3, condsels, condsel_cost, CondSel);
            fuse!(match_condcopy, 2, condcopies, condcopy_cost, CondCopy);
            fuse!(match_addb, 4, addbs, addb_cost, AddB);
            fuse!(match_subinit, 2, subinits, subinit_cost, SubInit);
            fuse!(
                match_borrow_round,
                3,
                borrow_rounds,
                borrow_round_cost,
                BorrowRound
            );
            fuse!(
                match_resolve_round,
                2,
                resolve_rounds,
                resolve_round_cost,
                ResolveRound
            );
            fuse!(match_csadd, 1, csadds, csadd_cost, CsAdd);
            // Generic: append to (or start) a straight-line run.
            self.push_instr(ctl, &instrs[i])?;
            let end = self.instrs.len() as u32;
            let target = if into_body {
                &mut self.body_ctrl
            } else {
                &mut self.ctrl
            };
            if target.len() > barrier {
                if let Some(Ctrl::Run { start, len }) = target.last_mut() {
                    if *start + *len == end - 1 {
                        *len += 1;
                        i += 1;
                        continue;
                    }
                }
            }
            target.push(Ctrl::Run {
                start: end - 1,
                len: 1,
            });
            i += 1;
        }
        Ok(())
    }

    fn flush_segment(
        &mut self,
        ctl: &Controller,
        segment: &mut Vec<Instruction>,
        into_body: bool,
    ) -> Result<(), SramError> {
        if segment.is_empty() {
            return Ok(());
        }
        let instrs = std::mem::take(segment);
        self.lower_into(ctl, &instrs, into_body)
    }

    fn lower_body(
        &mut self,
        ctl: &Controller,
        instrs: &[Instruction],
    ) -> Result<CtrlRange, SramError> {
        let start = self.body_ctrl.len() as u32;
        self.lower_into(ctl, instrs, true)?;
        Ok((start, self.body_ctrl.len() as u32))
    }

    /// Merges top-level runs of add-B/halve superops sharing one
    /// accumulator row set into multiplier chains, so replay borrows the
    /// rows once per modular multiplication instead of once per step.
    fn chain_pass(&mut self) {
        let old = std::mem::take(&mut self.ctrl);
        let mut out: Vec<Ctrl> = Vec::with_capacity(old.len());
        let mut i = 0usize;
        while i < old.len() {
            let Some((s, c, ts, tc)) = self.accumulator_rows(old[i]) else {
                out.push(old[i]);
                i += 1;
                continue;
            };
            let (mut b, mut m) = (None, None);
            let mut steps: Vec<ChainStep> = Vec::new();
            let mut j = i;
            while j < old.len() {
                match old[j] {
                    Ctrl::AddB { idx } => {
                        let op = &self.addbs[idx as usize];
                        if (op.sum, op.carry, op.t_sum, op.t_carry) != (s, c, ts, tc)
                            || b.is_some_and(|x| x != op.b)
                        {
                            break;
                        }
                        b = Some(op.b);
                        steps.push(ChainStep::AddB(op.pred));
                    }
                    Ctrl::Halve { idx } => {
                        let op = &self.halves[idx as usize];
                        if (op.sum, op.carry, op.t_sum, op.t_carry) != (s, c, ts, tc)
                            || m.is_some_and(|x| x != op.modulus)
                        {
                            break;
                        }
                        m = Some(op.modulus);
                        steps.push(ChainStep::Halve);
                    }
                    _ => break,
                }
                j += 1;
            }
            let chainable = j - i >= 2
                && b.is_some()
                && m.is_some()
                && distinct(&[s, c, ts, tc, b.unwrap(), m.unwrap()]);
            if chainable {
                let mut cycles = 0u64;
                let mut counts = crate::stats::InstrCounts::default();
                for step in &steps {
                    let gc = match step {
                        ChainStep::AddB(_) => self.addb_cost.as_ref().expect("cost set with op"),
                        ChainStep::Halve => self.halve_cost.as_ref().expect("cost set with op"),
                    };
                    cycles += gc.cycles;
                    counts += gc.counts;
                }
                self.chains.push(ChainOp {
                    sum: s,
                    carry: c,
                    t_sum: ts,
                    t_carry: tc,
                    b: b.unwrap(),
                    modulus: m.unwrap(),
                    steps,
                    cycles,
                    counts,
                    fallback_ops: old[i..j].to_vec(),
                });
                out.push(Ctrl::Chain {
                    idx: (self.chains.len() - 1) as u32,
                });
                i = j;
            } else {
                out.push(old[i]);
                i += 1;
            }
        }
        self.ctrl = out;
    }

    /// The `(sum, carry, t_sum, t_carry)` rows of a chainable entry.
    fn accumulator_rows(&self, c: Ctrl) -> Option<(u16, u16, u16, u16)> {
        match c {
            Ctrl::AddB { idx } => {
                let op = &self.addbs[idx as usize];
                Some((op.sum, op.carry, op.t_sum, op.t_carry))
            }
            Ctrl::Halve { idx } => {
                let op = &self.halves[idx as usize];
                Some((op.sum, op.carry, op.t_sum, op.t_carry))
            }
            _ => None,
        }
    }

    /// Number of distinct static instructions in the program (loop bodies
    /// and fused-group fallbacks counted once, plus one zero-check per
    /// loop and one row image per load).
    #[must_use]
    pub fn static_len(&self) -> usize {
        self.instrs.len() + self.loads.len() + self.loops.len()
    }

    /// How many fused superops the compiler recognized (a replay-speed
    /// diagnostic: higher is better).
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.addbs.len() + self.halves.len() + self.resolve_rounds.len() + self.borrow_rounds.len()
    }

    /// How many multiplier chains and fused resolution loops the second
    /// fusion level produced.
    #[must_use]
    pub fn fused_chains(&self) -> usize {
        self.chains.len() + self.resolve_loops.len()
    }

    /// How many butterfly-epilogue superops the compiler fused (carry-save
    /// adds, subtract initiators, conditional selects/copies, sign-fixes)
    /// — the instruction groups that were generic before the word-engine
    /// rework.
    #[must_use]
    pub fn fused_epilogues(&self) -> usize {
        self.csadds.len()
            + self.subinits.len()
            + self.condsels.len()
            + self.condcopies.len()
            + self.signfixes.len()
    }

    /// The fused chain/loop execution strategy this program compiled to
    /// (decided once from the row width; see [`FastPathKind`]).
    #[must_use]
    pub fn fast_path_kind(&self) -> FastPathKind {
        self.fast_path
    }
}

impl Controller {
    /// Replays a compiled program: the allocation-free, validation-free,
    /// cost-precomputed hot path. Produces bit-identical array contents
    /// and bit-identical [`Stats`](crate::Stats) to emitting the same
    /// stream through [`Self::execute`].
    ///
    /// # Errors
    ///
    /// [`SramError::ProgramMismatch`] when the program was compiled for a
    /// different geometry, tile width, or cost model.
    pub fn run_compiled(&mut self, prog: &CompiledProgram) -> Result<(), SramError> {
        if prog.rows != self.rows() || prog.cols != self.cols() {
            return Err(SramError::ProgramMismatch {
                reason: "array geometry differs",
            });
        }
        if prog.tile_width != self.tile_width() {
            return Err(SramError::ProgramMismatch {
                reason: "tile width differs",
            });
        }
        if prog.timing != *self.timing_model() || prog.energy != *self.energy_model() {
            return Err(SramError::ProgramMismatch {
                reason: "cost models differ",
            });
        }
        // Implied by equal geometry; the compiled kind exists so the
        // executors never re-derive it from slice lengths per superop.
        debug_assert_eq!(prog.fast_path, self.fast_path_kind());
        for c in &prog.ctrl {
            // Control entries are whole superops, so this boundary is
            // never inside a resolution loop — the one place injected
            // corruption could stall the zero-flag convergence bound.
            self.fault_tick();
            self.exec_ctrl(prog, *c);
        }
        Ok(())
    }

    /// Replays one generic instruction range with precomputed costs. The
    /// energy adds happen in the same order as per-instruction execution
    /// (their position relative to the row updates does not affect the
    /// accumulated value), so the result stays bit-identical.
    fn run_instr_range(&mut self, prog: &CompiledProgram, range: InstrRange) {
        let (start, end) = (range.0 as usize, range.1 as usize);
        if !self.cost_accounting() {
            // Native direct execution: semantic work only, no cost-table
            // reads (`apply_instr` advances the native clock per instruction).
            for instr in &prog.instrs[start..end] {
                self.apply_instr(instr);
            }
            return;
        }
        let mut cycles = 0u64;
        let mut e_acc = self.stats_energy();
        for (instr, &ci) in prog.instrs[start..end]
            .iter()
            .zip(&prog.cost_idx[start..end])
        {
            e_acc += prog.energy_table[usize::from(ci)];
            cycles += prog.cycles_table[usize::from(ci)];
            self.apply_instr(instr);
        }
        self.set_stats_energy(e_acc);
        self.add_cost(cycles, 0.0);
    }

    fn exec_ctrl(&mut self, prog: &CompiledProgram, c: Ctrl) {
        match c {
            Ctrl::Run { start, len } => self.run_instr_range(prog, (start, start + len)),
            Ctrl::AddB { idx } => {
                let op = &prog.addbs[idx as usize];
                if self.exec_addb(op) {
                    self.apply_group_cost(prog.addb_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::Halve { idx } => {
                let op = &prog.halves[idx as usize];
                if self.exec_halve(op) {
                    self.apply_group_cost(prog.halve_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::ResolveRound { idx } => {
                let op = &prog.resolve_rounds[idx as usize];
                if self.exec_resolve_round(op) {
                    self.apply_group_cost(
                        prog.resolve_round_cost.as_ref().expect("cost set with op"),
                    );
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::CsAdd { idx } => {
                let op = &prog.csadds[idx as usize];
                if self.exec_csadd(op) {
                    self.apply_group_cost(prog.csadd_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::SubInit { idx } => {
                let op = &prog.subinits[idx as usize];
                if self.exec_subinit(op) {
                    self.apply_group_cost(prog.subinit_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::CondSel { idx } => {
                let op = &prog.condsels[idx as usize];
                if self.exec_condsel(op) {
                    self.apply_group_cost(prog.condsel_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::CondCopy { idx } => {
                let op = &prog.condcopies[idx as usize];
                if self.exec_condcopy(op) {
                    self.apply_group_cost(prog.condcopy_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::SignFix { idx } => {
                let op = &prog.signfixes[idx as usize];
                if self.exec_signfix(op) {
                    self.apply_group_cost(prog.signfix_cost.as_ref().expect("cost set with op"));
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::BorrowRound { idx } => {
                let op = &prog.borrow_rounds[idx as usize];
                if self.exec_borrow_round(op) {
                    self.apply_group_cost(
                        prog.borrow_round_cost.as_ref().expect("cost set with op"),
                    );
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::Chain { idx } => {
                let op = &prog.chains[idx as usize];
                if self.exec_chain(
                    op.sum, op.carry, op.t_sum, op.t_carry, op.b, op.modulus, &op.steps,
                ) {
                    self.add_cost(op.cycles, 0.0);
                    self.add_counts(op.counts);
                    // Energy still accumulates value by value (shared,
                    // cache-hot per-pattern tables) for bit-identity. A
                    // chain always contains both step kinds (the chain
                    // pass requires a b-row and a modulus row), so both
                    // costs must have been interned — panic loudly if a
                    // refactor ever breaks that invariant rather than
                    // silently undercounting energy.
                    let addb_energy: &[f64] = &prog
                        .addb_cost
                        .as_ref()
                        .expect("chain implies interned add-B cost")
                        .energy;
                    let halve_energy: &[f64] = &prog
                        .halve_cost
                        .as_ref()
                        .expect("chain implies interned halve cost")
                        .energy;
                    for step in &op.steps {
                        self.add_energy_seq(match step {
                            ChainStep::AddB(_) => addb_energy,
                            ChainStep::Halve => halve_energy,
                        });
                    }
                } else {
                    for c in &op.fallback_ops {
                        self.exec_ctrl(prog, *c);
                    }
                }
            }
            Ctrl::ResolveLoop { idx } => {
                let op = &prog.resolve_loops[idx as usize];
                let done = self.exec_resolve_loop(
                    op.s,
                    op.c,
                    op.max_checks,
                    prog.cycles_table[usize::from(op.check_cost)],
                    prog.energy_table[usize::from(op.check_cost)],
                    prog.resolve_round_cost
                        .as_ref()
                        .expect("loop body is a round"),
                );
                if done.is_none() {
                    self.exec_ctrl(
                        prog,
                        Ctrl::Loop {
                            idx: op.fallback_loop,
                        },
                    );
                }
            }
            Ctrl::BorrowLoop { idx } => {
                let op = &prog.borrow_loops[idx as usize];
                let done = self.exec_borrow_loop(
                    op.live,
                    op.other,
                    op.t,
                    op.max_checks,
                    prog.cycles_table[usize::from(op.check_cost)],
                    prog.energy_table[usize::from(op.check_cost)],
                    prog.borrow_round_cost
                        .as_ref()
                        .expect("loop body is a round"),
                );
                match done {
                    Some(bodies) => {
                        if bodies % 2 == 1 {
                            let (start, end) = op.epilogue;
                            for bc in start..end {
                                self.exec_ctrl(prog, prog.body_ctrl[bc as usize]);
                            }
                        }
                    }
                    None => self.exec_ctrl(
                        prog,
                        Ctrl::Loop {
                            idx: op.fallback_loop,
                        },
                    ),
                }
            }
            Ctrl::Load { idx } => {
                let load = &prog.loads[idx as usize];
                self.load_data_row_ref(load.row, &load.data);
            }
            Ctrl::Loop { idx } => {
                let lp = &prog.loops[idx as usize];
                let check = Instruction::CheckZero { src: lp.src };
                let (ccyc, cen) = (
                    prog.cycles_table[usize::from(lp.check_cost)],
                    prog.energy_table[usize::from(lp.check_cost)],
                );
                let mut bodies = 0usize;
                for k in 0..lp.max_checks {
                    self.add_cost(ccyc, cen);
                    self.apply_instr(&check);
                    if self.zero_flag() {
                        break;
                    }
                    let (start, end) = if k % 2 == 0 { lp.even } else { lp.odd };
                    for bc in start..end {
                        // Loop bodies never contain loops or loads.
                        self.exec_ctrl(prog, prog.body_ctrl[bc as usize]);
                    }
                    bodies += 1;
                }
                debug_assert!(
                    self.zero_flag(),
                    "resolution loop must converge within max_checks"
                );
                if bodies % 2 == 1 {
                    let (start, end) = lp.epilogue;
                    for bc in start..end {
                        self.exec_ctrl(prog, prog.body_ctrl[bc as usize]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SramArray;
    use crate::isa::{BitOp, PredMode, ShiftDir};

    fn controller() -> Controller {
        Controller::new(SramArray::new(8, 64).unwrap(), 16).unwrap()
    }

    fn row_with(words: &[u64]) -> BitRow {
        let mut r = BitRow::zero(64);
        for (t, &v) in words.iter().enumerate() {
            r.set_tile_word(t, 16, v);
        }
        r
    }

    fn sample_stream(sink: &mut impl InstrSink) -> Result<(), SramError> {
        sink.load_row(RowAddr(2), &row_with(&[7, 0, 0xFFFF, 3]))?;
        sink.emit(Instruction::Binary {
            dst: RowAddr(3),
            op: BitOp::And,
            src0: RowAddr(0),
            src1: RowAddr(1),
            dst2: Some((RowAddr(4), BitOp::Xor)),
            shift: None,
            pred: PredMode::Always,
        })?;
        sink.emit(Instruction::Check {
            src: RowAddr(0),
            bit: 0,
        })?;
        sink.emit(Instruction::Unary {
            dst: RowAddr(5),
            src: RowAddr(2),
            kind: crate::isa::UnaryKind::Copy,
            pred: PredMode::IfSet,
        })?;
        // A resolution-style loop: shift row 4 left until it drains.
        let body = [Instruction::Shift {
            dst: RowAddr(4),
            src: RowAddr(4),
            dir: ShiftDir::Left,
            masked: true,
            pred: PredMode::Always,
        }];
        sink.zero_loop(ZeroLoopSpec {
            src: RowAddr(4),
            even_body: &body,
            odd_body: &body,
            max_checks: 17,
            odd_epilogue: &[],
        })
    }

    fn loaded(mut ctl: Controller) -> Controller {
        ctl.load_data_row(0, row_with(&[0b1101, 0b0010, 5, 9]));
        ctl.load_data_row(1, row_with(&[0b1011, 0b0110, 5, 0]));
        ctl
    }

    #[test]
    fn replay_matches_emission_rows_and_stats() {
        let mut emitted = loaded(controller());
        sample_stream(&mut emitted).unwrap();

        let mut replayed = loaded(controller());
        let mut rec = Recorder::new();
        sample_stream(&mut rec).unwrap();
        let prog = rec.finish().compile(&replayed).unwrap();
        replayed.run_compiled(&prog).unwrap();

        for r in 0..8 {
            assert_eq!(emitted.peek_row(r), replayed.peek_row(r), "row {r}");
        }
        assert_eq!(emitted.stats(), replayed.stats());
        assert_eq!(
            emitted.stats().energy_pj.to_bits(),
            replayed.stats().energy_pj.to_bits()
        );
    }

    #[test]
    fn zero_loop_executes_dynamically() {
        // Data with different drain times still produces the right result:
        // the loop runs until the *slowest* tile drains (shared stream).
        let mut ctl = controller();
        ctl.load_data_row(4, row_with(&[1, 0b1000, 0, 0]));
        let body = [Instruction::Shift {
            dst: RowAddr(4),
            src: RowAddr(4),
            dir: ShiftDir::Left,
            masked: true,
            pred: PredMode::Always,
        }];
        ctl.zero_loop(ZeroLoopSpec {
            src: RowAddr(4),
            even_body: &body,
            odd_body: &body,
            max_checks: 17,
            odd_epilogue: &[],
        })
        .unwrap();
        assert!(ctl.peek_row(4).is_zero());
        // 16-bit tiles: the slowest bit (bit 0 of tile 0) needs 16 shifts
        // to drain; 17 checks total (the last sees zero).
        assert_eq!(ctl.stats().counts.shift, 16);
        assert_eq!(ctl.stats().counts.check_zero, 17);
    }

    #[test]
    fn odd_epilogue_runs_on_odd_parity() {
        // One body execution (odd) → epilogue runs; drained data (zero
        // checks) → no bodies, no epilogue.
        let epilogue = [Instruction::Unary {
            dst: RowAddr(6),
            src: RowAddr(0),
            kind: crate::isa::UnaryKind::Copy,
            pred: PredMode::Always,
        }];
        let body = [Instruction::Unary {
            dst: RowAddr(4),
            src: RowAddr(4),
            kind: crate::isa::UnaryKind::Zero,
            pred: PredMode::Always,
        }];
        let mut ctl = controller();
        ctl.load_data_row(0, row_with(&[0xBEEF, 0, 0, 0]));
        ctl.load_data_row(4, row_with(&[1, 0, 0, 0]));
        ctl.zero_loop(ZeroLoopSpec {
            src: RowAddr(4),
            even_body: &body,
            odd_body: &body,
            max_checks: 17,
            odd_epilogue: &epilogue,
        })
        .unwrap();
        assert_eq!(ctl.peek_row(6).tile_word(0, 16), 0xBEEF, "epilogue ran");

        let mut ctl = controller();
        ctl.load_data_row(0, row_with(&[0xBEEF, 0, 0, 0]));
        ctl.zero_loop(ZeroLoopSpec {
            src: RowAddr(4),
            even_body: &body,
            odd_body: &body,
            max_checks: 17,
            odd_epilogue: &epilogue,
        })
        .unwrap();
        assert!(ctl.peek_row(6).is_zero(), "no bodies, no epilogue");
    }

    #[test]
    fn compile_validates_addresses() {
        let ctl = controller();
        let mut rec = Recorder::new();
        rec.emit(Instruction::CheckZero { src: RowAddr(99) })
            .unwrap();
        assert!(matches!(
            rec.finish().compile(&ctl),
            Err(SramError::RowOutOfRange { row: 99, .. })
        ));
        let mut rec = Recorder::new();
        rec.emit(Instruction::Check {
            src: RowAddr(0),
            bit: 16,
        })
        .unwrap();
        assert!(matches!(
            rec.finish().compile(&ctl),
            Err(SramError::CheckBitOutOfRange { .. })
        ));
    }

    #[test]
    fn replay_rejects_mismatched_controller() {
        let ctl = controller();
        let mut rec = Recorder::new();
        rec.emit(Instruction::MaskAll).unwrap();
        let prog = rec.finish().compile(&ctl).unwrap();

        let mut other = Controller::new(SramArray::new(16, 64).unwrap(), 16).unwrap();
        assert!(matches!(
            other.run_compiled(&prog),
            Err(SramError::ProgramMismatch { .. })
        ));
        let mut other = Controller::new(SramArray::new(8, 64).unwrap(), 32).unwrap();
        assert!(matches!(
            other.run_compiled(&prog),
            Err(SramError::ProgramMismatch { .. })
        ));
        let mut other = controller();
        other.set_timing_model(crate::cost::TimingModel::conservative());
        assert!(matches!(
            other.run_compiled(&prog),
            Err(SramError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn static_len_counts_loop_bodies_once() {
        let ctl = controller();
        let mut rec = Recorder::new();
        sample_stream(&mut rec).unwrap();
        let prog = rec.finish().compile(&ctl).unwrap();
        // 1 load + 3 straight instrs + (1 check + even body 1 + odd body 1)
        // for the loop (each body stored once).
        assert_eq!(prog.static_len(), 7);
    }
}

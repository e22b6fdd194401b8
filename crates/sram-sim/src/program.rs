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
//!   carry-resolution loop that senses a row's wired-OR zero flag each
//!   round and terminates early. Recording it as a structured op keeps the
//!   replay *trace* — every executed instruction, in order — bit-identical
//!   to emission on any data.
//! * [`EpilogueOp`] — a butterfly epilogue as one typed op
//!   ([`InstrSink::epilogue`]): the controller runs its canonical
//!   expansion, the recorder stores the op, and replay runs its word
//!   kernel (see [`crate::epilogue`]).
//! * [`ReplayProgram::compile`] — validates every address once against a
//!   concrete controller's geometry and lowers the stream, yielding a
//!   [`CompiledProgram`]. The Algorithm 2 multiplier steps (add-B and
//!   halve) are still recognized by instruction shape and merged into
//!   multiplier chains; epilogues arrive typed and need no matching.
//!   Programs carry no cost model.
//! * [`Controller::run_compiled`] — the hot path: replays a compiled
//!   program with no codegen and no validation per instruction. `Stats`
//!   are integer class counts; `cost.rs` prices cycles and energy from
//!   them on read, so replay and emission agree exactly.
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
use crate::epilogue::{EpilogueOp, Untimed};
use crate::error::SramError;
use crate::exec::Controller;
use crate::isa::{BitOp, Instruction, PredMode, RowAddr, ShiftDir, UnaryKind};
use crate::stats::InstrCounts;
use crate::wordkern::FastPathKind;

/// A borrowed description of one zero-terminated resolution loop.
///
/// Semantics (exactly the epilogue expansions' resolution loops): up to `max_checks`
/// rounds of *sense `src`'s zero flag; stop if set; otherwise run `body`*.
#[derive(Debug, Clone, Copy)]
pub struct ZeroLoopSpec<'a> {
    /// Row whose wired-OR zero flag terminates the loop.
    pub src: RowAddr,
    /// Body of every round.
    pub body: &'a [Instruction],
    /// Maximum number of zero-flag checks (bodies run at most one fewer
    /// times than checks when the loop converges).
    pub max_checks: usize,
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

    /// Emits one butterfly epilogue. The default runs the op's canonical
    /// expansion through [`Self::emit`] and [`Self::zero_loop`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from the expansion.
    fn epilogue(&mut self, op: EpilogueOp) -> Result<(), SramError> {
        op.expand(self)
    }
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
        self.run_zero_loop(spec)
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

    fn epilogue(&mut self, op: EpilogueOp) -> Result<(), SramError> {
        // One batch boundary per op, so no fault lands inside its loops.
        self.fault_tick();
        op.expand(&mut Untimed(self))
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
        /// Body of every round.
        body: Vec<Instruction>,
        /// Maximum number of zero-flag checks.
        max_checks: usize,
    },
    /// A typed butterfly epilogue.
    Epilogue(EpilogueOp),
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
    /// every row address and check bit is verified once. The result is
    /// independent of `ctl`'s cost models.
    ///
    /// The lowered form is deliberately compact — a flat instruction
    /// stream (14 bytes each) — because replay throughput is bounded by
    /// how many bytes of program stream through the cache per call, not
    /// by the word-level row arithmetic.
    ///
    /// # Errors
    ///
    /// The same address/bit errors [`Controller::execute`] would raise,
    /// surfaced at compile time instead of replay time.
    pub fn compile(&self, ctl: &Controller) -> Result<CompiledProgram, SramError> {
        let mut prog = CompiledProgram {
            instrs: Vec::new(),
            ctrl: Vec::new(),
            body_ctrl: Vec::new(),
            loops: Vec::new(),
            loads: Vec::new(),
            addbs: Vec::new(),
            halves: Vec::new(),
            chains: Vec::new(),
            epilogues: Vec::new(),
            masks: Vec::new(),
            epilogue_counts: Vec::new(),
            addb_counts: InstrCounts::default(),
            addb_if_counts: InstrCounts::default(),
            halve_counts: InstrCounts::default(),
            rows: ctl.rows(),
            cols: ctl.cols(),
            tile_width: ctl.tile_width(),
            fast_path: ctl.fast_path_kind(),
        };
        // Straight-line instructions are buffered per segment so the
        // multiplier-step matchers see whole windows.
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
                    body,
                    max_checks,
                } => {
                    prog.flush_segment(ctl, &mut segment, false)?;
                    let check = Instruction::CheckZero { src: *src };
                    ctl.validate_instr(&check)?;
                    let body = prog.lower_body(ctl, body)?;
                    prog.loops.push(LoopStep {
                        src: *src,
                        max_checks: *max_checks,
                        body,
                    });
                    prog.ctrl.push(Ctrl::Loop {
                        idx: (prog.loops.len() - 1) as u32,
                    });
                }
                ReplayOp::Epilogue(op) => {
                    prog.flush_segment(ctl, &mut segment, false)?;
                    let step = prog.lower_epilogue(ctl, op)?;
                    prog.epilogues.push(step);
                    prog.ctrl.push(Ctrl::Epilogue {
                        idx: (prog.epilogues.len() - 1) as u32,
                    });
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

/// Matches the add-B half-adder pass emitted by Algorithm 2 lines 6–9,
/// optionally led by the `Check` that latches its predicate from the
/// multiplier row (`modmul_data`'s per-bit step). Returns the op and the
/// number of instructions it covers.
fn match_addb(w: &[Instruction]) -> Option<(AddBOp, usize)> {
    if let Instruction::Check { src, bit } = *w.first()? {
        let mut op = match_addb_core(&w[1..])?;
        // The latch row is only read, but it must not be an accumulator
        // row, whose value changes along a chain.
        let latchable = op.pred == PredMode::IfSet
            && ![op.sum, op.carry, op.t_sum, op.t_carry].contains(&src.0);
        if !latchable {
            return None;
        }
        op.latch = Some((src.0, bit));
        return Some((op, 5));
    }
    match_addb_core(w).map(|op| (op, 4))
}

/// Matches the four add-B instructions themselves.
fn match_addb_core(w: &[Instruction]) -> Option<AddBOp> {
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
        latch: None,
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
    let (tc, m) = match *w.get(1)? {
        I::Unary {
            dst,
            src,
            kind: UnaryKind::Copy,
            pred: P::IfSet,
        } => (dst.0, src.0),
        _ => return None,
    };
    match *w.get(2)? {
        I::Unary {
            dst,
            kind: UnaryKind::Zero,
            pred: P::IfClear,
            ..
        } if dst.0 == tc => {}
        _ => return None,
    }
    let ts = match *w.get(3)? {
        I::Binary {
            dst,
            op: BitOp::Xor,
            src0,
            src1,
            dst2: Some((d2, BitOp::And)),
            shift: Some((ShiftDir::Right, true)),
            pred: P::Always,
        } if src0.0 == s && src1.0 == tc && d2.0 == tc => dst.0,
        _ => return None,
    };
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
            body: spec.body.to_vec(),
            max_checks: spec.max_checks,
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

    fn epilogue(&mut self, op: EpilogueOp) -> Result<(), SramError> {
        self.ops.push(ReplayOp::Epilogue(op));
        Ok(())
    }
}

/// Control-stream entry: one unit of replay execution.
///
/// Beyond generic instruction runs, the compiler recognizes the two
/// instruction shapes of Algorithm 2's inner loop — the add-B step and
/// the Montgomery halve step — and lowers each occurrence to a *fused
/// superop*: one pass over the storage words computing the whole group's
/// final row contents, with pre-aggregated class counts; runs of them over
/// one accumulator merge into a multiplier chain. Butterfly epilogues
/// arrive as typed ops and lower one-to-one. Fusion is a pure
/// execution-strategy change: rows and [`crate::Stats`] are identical to
/// per-instruction execution, and each superop keeps its original
/// instruction range as a fallback (taken when a tile mask is active,
/// where the general gating semantics apply); an epilogue falls back to
/// its expansion.
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
    /// Fused multiplier chain — a run of add-B/halve steps over one
    /// accumulator row set, rows borrowed once (`chains[idx]`).
    Chain { idx: u32 },
    /// Typed butterfly epilogue (`epilogues[idx]`).
    Epilogue { idx: u32 },
}

/// One step of a fused multiplier chain.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainStep {
    /// Add-B step with its write predication.
    AddB(PredMode),
    /// `IfSet` add-B step that first latches its predicate from bit `bit`
    /// of the chain's multiplier row.
    AddBIf { bit: u16 },
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
    /// The multiplier row [`ChainStep::AddBIf`] steps latch from.
    pub pred_row: Option<u16>,
    /// The chain starts by clearing `Sum` and `Carry` (Algorithm 2's
    /// `P ← 0`).
    pub clear: bool,
    pub steps: Vec<ChainStep>,
    /// Whole-chain class counts.
    pub counts: InstrCounts,
    /// The original control entries, for the masked-state fallback.
    pub fallback_ops: Vec<Ctrl>,
}

/// A typed epilogue lowered for replay.
#[derive(Debug, Clone)]
pub(crate) struct EpilogueStep {
    pub op: EpilogueOp,
    /// Index into `epilogue_counts` of the expansion's class counts.
    pub counts: u16,
    /// Whether the word kernel computes this op exactly
    /// ([`EpilogueOp::fusable`]).
    pub fusable: bool,
    /// Index into `masks` of the final write's tile-mask image.
    pub final_mask: Option<u16>,
}

/// A range into the flat instruction arrays.
type InstrRange = (u32, u32);

/// An epilogue's class counts outside its resolution loops, and of one
/// resolution round.
type EpilogueCounts = (InstrCounts, InstrCounts);

/// The index of the first entry of a small table that `found` accepts,
/// appending `make()` when there is none.
fn intern<T>(table: &mut Vec<T>, found: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> u16 {
    let idx = table.iter().position(found).unwrap_or_else(|| {
        table.push(make());
        table.len() - 1
    });
    idx as u16
}

/// Fused `P ← P + B` half-adder pass (4 instructions, or 5 with its
/// leading predicate latch).
#[derive(Debug, Clone)]
pub(crate) struct AddBOp {
    pub sum: u16,
    pub b: u16,
    pub carry: u16,
    pub t_sum: u16,
    pub t_carry: u16,
    pub pred: PredMode,
    /// `(row, bit)` of a leading `Check` that latches the predicate.
    pub latch: Option<(u16, u16)>,
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

/// A range into the lowered loop-body control stream.
type CtrlRange = (u32, u32);

#[derive(Debug, Clone)]
struct LoopStep {
    src: RowAddr,
    max_checks: usize,
    body: CtrlRange,
}

#[derive(Debug, Clone)]
struct LoadStep {
    row: usize,
    data: BitRow,
}

/// A validated program bound to one controller geometry (rows, columns,
/// tile width), independent of the cost models. Cheap to clone behind an
/// `Arc` and share across identically shaped controllers — the sharded
/// batch engine replays one compiled program on every shard.
///
/// Layout note: the instruction stream is a flat `instrs` array at
/// 14 B/instruction. A 256-point NTT program is a few hundred thousand
/// instructions; keeping the per-instruction footprint that small is what
/// makes replay faster than re-emission — the replay loop is memory-bound
/// on the program stream.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    instrs: Vec<Instruction>,
    ctrl: Vec<Ctrl>,
    /// Loop bodies are lowered like the top level, but into this separate
    /// stream (a body never contains loops or loads).
    body_ctrl: Vec<Ctrl>,
    loops: Vec<LoopStep>,
    loads: Vec<LoadStep>,
    pub(crate) addbs: Vec<AddBOp>,
    pub(crate) halves: Vec<HalveOp>,
    pub(crate) chains: Vec<ChainOp>,
    pub(crate) epilogues: Vec<EpilogueStep>,
    /// Distinct final-write tile-mask images of the epilogues, keyed by
    /// their `MaskTiles` operands.
    pub(crate) masks: Vec<((u8, bool), BitRow)>,
    /// Distinct epilogue class counts, `(outside the loops, one round)`
    /// (a handful of shapes shared by thousands of ops).
    pub(crate) epilogue_counts: Vec<EpilogueCounts>,
    /// Class counts of one occurrence of each fused pattern (zero until
    /// the pattern is first fused).
    pub(crate) addb_counts: InstrCounts,
    /// An add-B step led by its predicate latch.
    pub(crate) addb_if_counts: InstrCounts,
    pub(crate) halve_counts: InstrCounts,
    rows: usize,
    cols: usize,
    tile_width: usize,
    /// The fused chain/loop execution strategy, decided once at compile
    /// time from the padded row width ([`FastPathKind::for_words`]) so
    /// replay never re-derives it per superop. Always equals the
    /// controller's own kind when the geometry check passes.
    fast_path: FastPathKind,
}

impl CompiledProgram {
    fn push_instr(&mut self, ctl: &Controller, i: &Instruction) -> Result<(), SramError> {
        ctl.validate_instr(i)?;
        self.instrs.push(*i);
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

    /// One fused group's class counts.
    fn group_counts(instrs: &[Instruction]) -> InstrCounts {
        let mut counts = InstrCounts::default();
        for i in instrs {
            counts.record(i);
        }
        counts
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
            // On a match, intern the window as the fallback range, record
            // the pattern's class counts (identical for every occurrence —
            // they depend only on instruction shape) and emit the superop.
            // Both patterns may lead with a `Check`; the halve is tried
            // first.
            if let Some(mut op) = match_halve(w) {
                op.fallback = self.push_range(ctl, &w[..7])?;
                self.halve_counts = Self::group_counts(&w[..7]);
                self.halves.push(op);
                let idx = (self.halves.len() - 1) as u32;
                self.push_ctrl(Ctrl::Halve { idx }, into_body);
                i += 7;
                continue;
            }
            if let Some((mut op, len)) = match_addb(w) {
                op.fallback = self.push_range(ctl, &w[..len])?;
                let counts = Self::group_counts(&w[..len]);
                if op.latch.is_some() {
                    self.addb_if_counts = counts;
                } else {
                    self.addb_counts = counts;
                }
                self.addbs.push(op);
                let idx = (self.addbs.len() - 1) as u32;
                self.push_ctrl(Ctrl::AddB { idx }, into_body);
                i += len;
                continue;
            }
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

    /// Validates one epilogue's expansion and lowers it to a replay step.
    fn lower_epilogue(
        &mut self,
        ctl: &Controller,
        op: &EpilogueOp,
    ) -> Result<EpilogueStep, SramError> {
        let shape = op.class_counts(ctl)?;
        let counts = intern(&mut self.epilogue_counts, |c| *c == shape, || shape);
        let final_mask = op.final_mask().map(|key| {
            intern(
                &mut self.masks,
                |(k, _)| *k == key,
                || (key, ctl.mask_tiles_image(key.0, key.1)),
            )
        });
        Ok(EpilogueStep {
            op: *op,
            counts,
            fusable: op.fusable(),
            final_mask,
        })
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
    /// accumulator row set into multiplier chains, together with the
    /// accumulator clears before them, so replay borrows the rows once per
    /// modular multiplication instead of once per step.
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
            let (mut b, mut m, mut pred_row) = (None, None, None);
            let mut steps: Vec<ChainStep> = Vec::new();
            let mut j = i;
            while j < old.len() {
                match old[j] {
                    Ctrl::AddB { idx } => {
                        let op = &self.addbs[idx as usize];
                        let latch_row = op.latch.map(|(row, _)| row);
                        if (op.sum, op.carry, op.t_sum, op.t_carry) != (s, c, ts, tc)
                            || b.is_some_and(|x| x != op.b)
                            || latch_row.is_some_and(|r| pred_row.is_some_and(|x| x != r))
                        {
                            break;
                        }
                        b = Some(op.b);
                        pred_row = pred_row.or(latch_row);
                        steps.push(match op.latch {
                            Some((_, bit)) => ChainStep::AddBIf { bit },
                            None => ChainStep::AddB(op.pred),
                        });
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
                let mut counts = InstrCounts::default();
                for step in &steps {
                    counts += match step {
                        ChainStep::AddB(_) => self.addb_counts,
                        ChainStep::AddBIf { .. } => self.addb_if_counts,
                        ChainStep::Halve => self.halve_counts,
                    };
                }
                let mut fallback_ops = old[i..j].to_vec();
                let clears = self.split_clears(&mut out, s, c);
                if let Some(Ctrl::Run { start, len }) = clears {
                    let range = start as usize..(start + len) as usize;
                    counts += Self::group_counts(&self.instrs[range]);
                    fallback_ops.insert(0, Ctrl::Run { start, len });
                }
                self.chains.push(ChainOp {
                    sum: s,
                    carry: c,
                    t_sum: ts,
                    t_carry: tc,
                    b: b.unwrap(),
                    modulus: m.unwrap(),
                    pred_row,
                    clear: clears.is_some(),
                    steps,
                    counts,
                    fallback_ops,
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

    /// Algorithm 2 opens with `Sum ← 0; Carry ← 0`. When the run just
    /// emitted before a chain ends with exactly those two clears, splits
    /// them off into their own two-instruction run and returns it, so the
    /// chain can start from zero instead.
    fn split_clears(&self, out: &mut Vec<Ctrl>, s: u16, c: u16) -> Option<Ctrl> {
        let Some(&Ctrl::Run { start, len }) = out.last() else {
            return None;
        };
        let end = (start + len) as usize;
        let clears = |i: usize, row: u16| {
            matches!(self.instrs[i], Instruction::Unary {
                dst,
                kind: UnaryKind::Zero,
                pred: PredMode::Always,
                ..
            } if dst.0 == row)
        };
        if len < 2 || !clears(end - 2, s) || !clears(end - 1, c) {
            return None;
        }
        out.pop();
        if len > 2 {
            out.push(Ctrl::Run {
                start,
                len: len - 2,
            });
        }
        Some(Ctrl::Run {
            start: start + len - 2,
            len: 2,
        })
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

    /// Number of top-level control entries replay dispatches (straight-line
    /// runs, loops, loads, superops, chains and epilogues; loop bodies not
    /// counted) — the per-call dispatch cost of the program.
    #[must_use]
    pub fn control_len(&self) -> usize {
        self.ctrl.len()
    }

    /// Number of distinct static instructions in the program (loop bodies
    /// and fused-group fallbacks counted once, plus one zero-check per
    /// loop, one row image per load and one op per typed epilogue).
    #[must_use]
    pub fn static_len(&self) -> usize {
        self.instrs.len() + self.loads.len() + self.loops.len() + self.epilogues.len()
    }

    /// How many fused superops the program holds: add-B and halve steps
    /// plus typed epilogues (a replay-speed diagnostic: higher is better).
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.addbs.len() + self.halves.len() + self.epilogues.len()
    }

    /// How many multiplier chains the second fusion level produced.
    #[must_use]
    pub fn fused_chains(&self) -> usize {
        self.chains.len()
    }

    /// How many typed butterfly epilogues the program holds.
    #[must_use]
    pub fn fused_epilogues(&self) -> usize {
        self.epilogues.len()
    }

    /// The fused chain/loop execution strategy this program compiled to
    /// (decided once from the row width; see [`FastPathKind`]).
    #[must_use]
    pub fn fast_path_kind(&self) -> FastPathKind {
        self.fast_path
    }
}

impl Controller {
    /// Replays a compiled program: the allocation-free, validation-free
    /// hot path. Produces identical array contents and identical
    /// [`Stats`](crate::Stats) to emitting the same stream through
    /// [`Self::execute`], under whatever cost models this controller has.
    ///
    /// # Errors
    ///
    /// [`SramError::ProgramMismatch`] when the program was compiled for a
    /// different geometry or tile width.
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

    /// Replays one generic instruction range.
    fn run_instr_range(&mut self, prog: &CompiledProgram, range: InstrRange) {
        for instr in &prog.instrs[range.0 as usize..range.1 as usize] {
            self.apply_instr(instr);
        }
    }

    fn exec_ctrl(&mut self, prog: &CompiledProgram, c: Ctrl) {
        match c {
            Ctrl::Run { start, len } => self.run_instr_range(prog, (start, start + len)),
            Ctrl::AddB { idx } => {
                let op = &prog.addbs[idx as usize];
                if self.exec_addb(op) {
                    self.add_counts(if op.latch.is_some() {
                        &prog.addb_if_counts
                    } else {
                        &prog.addb_counts
                    });
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::Halve { idx } => {
                let op = &prog.halves[idx as usize];
                if self.exec_halve(op) {
                    self.add_counts(&prog.halve_counts);
                } else {
                    self.run_instr_range(prog, op.fallback);
                }
            }
            Ctrl::Chain { idx } => {
                let op = &prog.chains[idx as usize];
                if self.exec_chain(op) {
                    self.add_counts(&op.counts);
                } else {
                    for c in &op.fallback_ops {
                        self.exec_ctrl(prog, *c);
                    }
                }
            }
            Ctrl::Epilogue { idx } => {
                let step = &prog.epilogues[idx as usize];
                let mask = step.final_mask.map(|m| &prog.masks[usize::from(m)].1);
                let counts = &prog.epilogue_counts[usize::from(step.counts)];
                if !self.exec_epilogue(step, counts, mask) {
                    step.op
                        .expand(&mut Untimed(self))
                        .expect("epilogue rows are validated at compile time");
                }
            }
            Ctrl::Load { idx } => {
                let load = &prog.loads[idx as usize];
                self.load_data_row_ref(load.row, &load.data);
            }
            Ctrl::Loop { idx } => {
                let lp = &prog.loops[idx as usize];
                let check = Instruction::CheckZero { src: lp.src };
                for _ in 0..lp.max_checks {
                    self.apply_instr(&check);
                    if self.zero_flag() {
                        break;
                    }
                    for bc in lp.body.0..lp.body.1 {
                        // Loop bodies never contain loops or loads.
                        self.exec_ctrl(prog, prog.body_ctrl[bc as usize]);
                    }
                }
                debug_assert!(
                    self.zero_flag(),
                    "resolution loop must converge within max_checks"
                );
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
            body: &body,
            max_checks: 17,
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
            body: &body,
            max_checks: 17,
        })
        .unwrap();
        assert!(ctl.peek_row(4).is_zero());
        // 16-bit tiles: the slowest bit (bit 0 of tile 0) needs 16 shifts
        // to drain; 17 checks total (the last sees zero).
        assert_eq!(ctl.stats().counts.shift, 16);
        assert_eq!(ctl.stats().counts.check_zero, 17);
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
    }

    #[test]
    fn programs_are_cost_model_free() {
        // Compiled under the paper timing, replayed under the conservative
        // one: identical to emitting the stream under the conservative one.
        let mut rec = Recorder::new();
        sample_stream(&mut rec).unwrap();
        let prog = rec.finish().compile(&controller()).unwrap();
        let conservative = || {
            let mut ctl = loaded(controller());
            ctl.set_timing_model(crate::cost::TimingModel::conservative());
            ctl
        };
        let mut replayed = conservative();
        replayed.run_compiled(&prog).unwrap();
        let mut emitted = conservative();
        sample_stream(&mut emitted).unwrap();
        for r in 0..8 {
            assert_eq!(emitted.peek_row(r), replayed.peek_row(r), "row {r}");
        }
        assert_eq!(emitted.stats(), replayed.stats());
        assert_eq!(
            emitted.stats().energy_pj.to_bits(),
            replayed.stats().energy_pj.to_bits()
        );
        let mut paper = loaded(controller());
        paper.run_compiled(&prog).unwrap();
        assert!(replayed.stats().cycles > paper.stats().cycles);
    }

    #[test]
    fn static_len_counts_loop_bodies_once() {
        let ctl = controller();
        let mut rec = Recorder::new();
        sample_stream(&mut rec).unwrap();
        let prog = rec.finish().compile(&ctl).unwrap();
        // 1 load + 3 straight instrs + (1 check + body 1) for the loop
        // (the body stored once).
        assert_eq!(prog.static_len(), 6);
    }
}

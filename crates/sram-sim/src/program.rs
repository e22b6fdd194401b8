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
//! * [`ModMulOp`] and [`EpilogueOp`] — an Algorithm 2 multiply and a
//!   butterfly epilogue, each one typed op ([`InstrSink::modmul`],
//!   [`InstrSink::epilogue`]): the controller runs its canonical
//!   expansion, the recorder stores the op, and replay runs its word
//!   kernel (see [`crate::epilogue`]).
//! * [`ReplayProgram::compile`] — validates every address once against a
//!   concrete controller's geometry and lowers each recorded op to one
//!   control entry (consecutive straight-line instructions share one
//!   run), yielding a [`CompiledProgram`]. It matches no instruction
//!   shapes: the typed ops arrive typed. Programs carry no cost model.
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
use crate::epilogue::{EpilogueOp, ModMulOp, Untimed};
use crate::error::SramError;
use crate::exec::Controller;
use crate::isa::{Instruction, RowAddr};
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

    /// Emits one Algorithm 2 multiply. The default runs the op's canonical
    /// expansion through [`Self::emit`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from the expansion.
    fn modmul(&mut self, op: ModMulOp) -> Result<(), SramError> {
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

    fn modmul(&mut self, op: ModMulOp) -> Result<(), SramError> {
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
    /// A typed Algorithm 2 multiply.
    ModMul(ModMulOp),
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
    /// every row address and check bit is verified once, and each
    /// recorded op becomes one control entry (consecutive straight-line
    /// instructions share one run). The result is independent of `ctl`'s
    /// cost models.
    ///
    /// # Errors
    ///
    /// The same address/bit errors [`Controller::execute`] would raise,
    /// surfaced at compile time instead of replay time.
    pub fn compile(&self, ctl: &Controller) -> Result<CompiledProgram, SramError> {
        let mut prog = CompiledProgram {
            instrs: Vec::new(),
            ctrl: Vec::new(),
            loops: Vec::new(),
            loads: Vec::new(),
            modmuls: Vec::new(),
            epilogues: Vec::new(),
            masks: Vec::new(),
            modmul_counts: Vec::new(),
            epilogue_counts: Vec::new(),
            rows: ctl.rows(),
            cols: ctl.cols(),
            tile_width: ctl.tile_width(),
            fast_path: ctl.fast_path_kind(),
        };
        for op in &self.ops {
            let entry = match op {
                ReplayOp::Instr(i) => {
                    ctl.validate_instr(i)?;
                    prog.instrs.push(*i);
                    let at = (prog.instrs.len() - 1) as u32;
                    // A trailing run ends at the instruction pushed last:
                    // a loop body is always followed by its loop's entry.
                    if let Some(Ctrl::Run { len, .. }) = prog.ctrl.last_mut() {
                        *len += 1;
                        continue;
                    }
                    Ctrl::Run { start: at, len: 1 }
                }
                ReplayOp::LoadRow { row, data } => {
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
                    Ctrl::Load {
                        idx: (prog.loads.len() - 1) as u32,
                    }
                }
                ReplayOp::ZeroLoop {
                    src,
                    body,
                    max_checks,
                } => {
                    ctl.validate_instr(&Instruction::CheckZero { src: *src })?;
                    let body = prog.push_range(ctl, body)?;
                    prog.loops.push(LoopStep {
                        src: *src,
                        max_checks: *max_checks,
                        body,
                    });
                    Ctrl::Loop {
                        idx: (prog.loops.len() - 1) as u32,
                    }
                }
                ReplayOp::Epilogue(op) => {
                    let step = prog.lower_epilogue(ctl, op)?;
                    prog.epilogues.push(step);
                    Ctrl::Epilogue {
                        idx: (prog.epilogues.len() - 1) as u32,
                    }
                }
                ReplayOp::ModMul(op) => {
                    let shape = op.class_counts(ctl)?;
                    let counts = intern(&mut prog.modmul_counts, |c| *c == shape, || shape);
                    prog.modmuls.push(ModMulStep {
                        op: *op,
                        counts,
                        fusable: op.fusable(),
                    });
                    Ctrl::ModMul {
                        idx: (prog.modmuls.len() - 1) as u32,
                    }
                }
            };
            prog.ctrl.push(entry);
        }
        Ok(prog)
    }
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

    fn modmul(&mut self, op: ModMulOp) -> Result<(), SramError> {
        self.ops.push(ReplayOp::ModMul(op));
        Ok(())
    }
}

/// Control-stream entry: one unit of replay execution, one per recorded
/// op. A typed op runs its word kernel, which leaves rows and
/// [`crate::Stats`] identical to its expansion, and falls back to the
/// expansion when a tile mask is active or its rows alias in a way the
/// kernel does not model.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctrl {
    /// Execute `len` consecutive instructions starting at `start`.
    Run { start: u32, len: u32 },
    /// Execute `loops[idx]` (a zero-terminated resolution loop).
    Loop { idx: u32 },
    /// Execute `loads[idx]` (a constant data-row load).
    Load { idx: u32 },
    /// Typed Algorithm 2 multiply (`modmuls[idx]`), replayed as one
    /// multiplier chain.
    ModMul { idx: u32 },
    /// Typed butterfly epilogue (`epilogues[idx]`).
    Epilogue { idx: u32 },
}

/// A typed multiply lowered for replay. The chain's steps follow from the
/// multiplier's bits, so none are stored.
#[derive(Debug, Clone)]
pub(crate) struct ModMulStep {
    pub op: ModMulOp,
    /// Index into `modmul_counts` of the expansion's class counts.
    pub counts: u16,
    /// Whether the chain kernel computes this op exactly
    /// ([`ModMulOp::fusable`]).
    pub fusable: bool,
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

/// A range into the flat instruction array.
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

#[derive(Debug, Clone)]
struct LoopStep {
    src: RowAddr,
    max_checks: usize,
    body: InstrRange,
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
/// Layout note: a typed op is one small control entry and one table row,
/// so a 256-point NTT program holds a few thousand entries — one per
/// multiply or epilogue — and only hand-written straight-line code
/// occupies the flat `instrs` array.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    instrs: Vec<Instruction>,
    ctrl: Vec<Ctrl>,
    loops: Vec<LoopStep>,
    loads: Vec<LoadStep>,
    modmuls: Vec<ModMulStep>,
    epilogues: Vec<EpilogueStep>,
    /// Distinct final-write tile-mask images of the epilogues, keyed by
    /// their `MaskTiles` operands.
    masks: Vec<((u8, bool), BitRow)>,
    /// Distinct multiply class counts (one per multiplier popcount and
    /// low bit, which decide how many halve steps align the carry).
    modmul_counts: Vec<InstrCounts>,
    /// Distinct epilogue class counts, `(outside the loops, one round)`
    /// (a handful of shapes shared by thousands of ops).
    epilogue_counts: Vec<EpilogueCounts>,
    rows: usize,
    cols: usize,
    tile_width: usize,
    /// The chain/epilogue execution strategy, decided once at compile
    /// time from the padded row width ([`FastPathKind::for_words`]) so
    /// replay never re-derives it per op. Always equals the controller's
    /// own kind when the geometry check passes.
    fast_path: FastPathKind,
}

impl CompiledProgram {
    /// Validates and appends instructions, returning their range.
    fn push_range(
        &mut self,
        ctl: &Controller,
        is: &[Instruction],
    ) -> Result<InstrRange, SramError> {
        let start = self.instrs.len() as u32;
        for i in is {
            ctl.validate_instr(i)?;
            self.instrs.push(*i);
        }
        Ok((start, self.instrs.len() as u32))
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

    /// Number of top-level control entries replay dispatches (straight-line
    /// runs, loops, loads, multiplies and epilogues) — the per-call
    /// dispatch cost of the program.
    #[must_use]
    pub fn control_len(&self) -> usize {
        self.ctrl.len()
    }

    /// Number of distinct static entries in the program: straight-line
    /// instructions and loop bodies counted once, plus one zero-check per
    /// loop, one row image per load and one op per typed multiply or
    /// epilogue.
    #[must_use]
    pub fn static_len(&self) -> usize {
        self.instrs.len()
            + self.loads.len()
            + self.loops.len()
            + self.modmuls.len()
            + self.epilogues.len()
    }

    /// How many typed ops the program holds: multiplies plus epilogues,
    /// each replayed by one word kernel.
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.modmuls.len() + self.epilogues.len()
    }

    /// How many typed Algorithm 2 multiplies the program holds (each
    /// replays as one multiplier chain).
    #[must_use]
    pub fn fused_modmuls(&self) -> usize {
        self.modmuls.len()
    }

    /// How many typed butterfly epilogues the program holds.
    #[must_use]
    pub fn fused_epilogues(&self) -> usize {
        self.epilogues.len()
    }

    /// The chain/epilogue execution strategy this program compiled to
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
        // executors never re-derive it from slice lengths per op.
        debug_assert_eq!(prog.fast_path, self.fast_path_kind());
        for c in &prog.ctrl {
            // Control entries are whole ops, so this boundary is never
            // inside a resolution loop — the one place injected corruption
            // could stall the zero-flag convergence bound.
            self.fault_tick();
            self.exec_ctrl(prog, *c);
        }
        Ok(())
    }

    /// Replays one instruction range.
    fn run_instr_range(&mut self, prog: &CompiledProgram, range: InstrRange) {
        for instr in &prog.instrs[range.0 as usize..range.1 as usize] {
            self.apply_instr(instr);
        }
    }

    fn exec_ctrl(&mut self, prog: &CompiledProgram, c: Ctrl) {
        const VALIDATED: &str = "typed-op rows are validated at compile time";
        match c {
            Ctrl::Run { start, len } => self.run_instr_range(prog, (start, start + len)),
            Ctrl::ModMul { idx } => {
                let step = &prog.modmuls[idx as usize];
                if self.exec_chain(step) {
                    self.add_counts(&prog.modmul_counts[usize::from(step.counts)]);
                } else {
                    step.op.expand(&mut Untimed(self)).expect(VALIDATED);
                }
            }
            Ctrl::Epilogue { idx } => {
                let step = &prog.epilogues[idx as usize];
                let mask = step.final_mask.map(|m| &prog.masks[usize::from(m)].1);
                let counts = &prog.epilogue_counts[usize::from(step.counts)];
                if !self.exec_epilogue(step, counts, mask) {
                    step.op.expand(&mut Untimed(self)).expect(VALIDATED);
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
                    self.run_instr_range(prog, lp.body);
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
        // A typed multiply is validated through its expansion.
        let mut rec = Recorder::new();
        let rows = crate::epilogue::ModRows {
            sum: RowAddr(0),
            carry: RowAddr(1),
            t_sum: RowAddr(2),
            t_carry: RowAddr(3),
            modulus: RowAddr(99),
            comp_modulus: RowAddr(5),
            bitwidth: 16,
        };
        rec.modmul(ModMulOp {
            rows,
            b: RowAddr(6),
            multiplier: crate::epilogue::Multiplier::Const(1),
        })
        .unwrap();
        assert!(matches!(
            rec.finish().compile(&ctl),
            Err(SramError::RowOutOfRange { row: 99, .. })
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

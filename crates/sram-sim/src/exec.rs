//! The controller: executes BP-NTT instructions against an [`SramArray`],
//! maintaining per-tile predicates, the tile write mask, and run statistics.
//! `Stats` are integer class counts; `cost.rs` prices cycles and energy
//! from them on read.

use crate::array::SramArray;
use crate::bitrow::BitRow;
use crate::cost::{EnergyModel, TimingModel};
use crate::error::SramError;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::isa::{BitOp, Instruction, PredMode, Program, RowAddr, ShiftDir, UnaryKind};
use crate::stats::{FastPathStats, InstrCounts, Stats};
use crate::wordkern::FastPathKind;

/// Executes instructions against one SRAM subarray.
///
/// The controller models the CTRL/CMD subarray of Fig. 4(b): it decodes
/// instruction words, drives the two wordline decoders, latches per-tile
/// predicates from `Check`, holds the tile write mask, and counts executed
/// instructions by class; [`Self::stats`] prices the counts into cycles and
/// energy under the configured models.
///
/// # Example
///
/// ```
/// use bpntt_sram::{BitOp, BitRow, Controller, Instruction, PredMode, RowAddr, SramArray};
///
/// let array = SramArray::new(8, 64)?;
/// let mut ctl = Controller::new(array, 32)?; // two 32-bit tiles
/// let mut a = BitRow::zero(64);
/// a.set_tile_word(0, 32, 0b1100);
/// ctl.load_data_row(0, a);
/// let mut b = BitRow::zero(64);
/// b.set_tile_word(0, 32, 0b1010);
/// ctl.load_data_row(1, b);
/// ctl.execute(&Instruction::Binary {
///     dst: RowAddr(2),
///     op: BitOp::Xor,
///     src0: RowAddr(0),
///     src1: RowAddr(1),
///     dst2: Some((RowAddr(3), BitOp::And)),
///     shift: None,
///     pred: PredMode::Always,
/// })?;
/// assert_eq!(ctl.peek_row(2).tile_word(0, 32), 0b0110);
/// assert_eq!(ctl.peek_row(3).tile_word(0, 32), 0b1000);
/// # Ok::<(), bpntt_sram::SramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    array: SramArray,
    tile_width: usize,
    n_tiles: usize,
    tile_mask: Vec<bool>,
    /// Number of tiles currently disabled by the tile mask — an O(1)
    /// "is every tile enabled?" test on the write-back fast path.
    n_masked_off: usize,
    zero_flag: bool,
    timing: TimingModel,
    energy: EnergyModel,
    /// Executed instructions by class (the instruction clock is
    /// `counts.total()`).
    counts: InstrCounts,
    /// Data rows loaded through the normal SRAM port.
    row_loads: u64,
    /// Data rows read out through the normal SRAM port.
    row_stores: u64,
    /// Fast-path coverage telemetry (see [`FastPathStats`]); deliberately
    /// outside [`Stats`] so execution strategy never enters the
    /// replay≡emission identity contract.
    fastpath: FastPathStats,
    /// How this geometry executes fused chains and resolution loops —
    /// decided once from the padded row width (compiled programs record
    /// the same kind, so replay never re-derives it per op).
    fast_path: FastPathKind,
    /// Preallocated result row for the primary write-back: every compute
    /// instruction lands here before being swapped or merged into the
    /// array, so the hot loop never touches the allocator.
    scratch_a: BitRow,
    /// Preallocated result row for a `Binary`'s second write-back.
    scratch_b: BitRow,
    /// Column image of the predicate latches: every column of a
    /// pred-set tile is 1. Maintained by `Check`, consumed word-wise by
    /// gated write-backs and the typed-op kernels.
    pred_mask: BitRow,
    /// Column image of the tile write mask (enabled tiles' columns set).
    mask_cols: BitRow,
    /// Keep-mask of a tile-masked left shift: all columns except each
    /// tile's base bit (where the crossing bit is discarded).
    shl_keep: BitRow,
    /// Keep-mask of a tile-masked right shift: all columns except each
    /// tile's top bit.
    shr_keep: BitRow,
    /// Working copies of an epilogue's rows (five rows of storage words;
    /// see [`crate::wordkern::epilogue`]).
    epi_buf: Vec<u64>,
    /// Word image with exactly the tile-base columns set — the select
    /// layer of the multiply-smear predicate latch
    /// ([`crate::wordkern::latch_tile_bit`]).
    tile_base_mask: Vec<u64>,
    /// Installed fault-injection state ([`crate::fault`]); `None` in
    /// normal operation, where the per-batch hook is one pointer test.
    fault: Option<Box<FaultState>>,
}

impl Controller {
    /// Wraps an array with a tile configuration and default cost models.
    ///
    /// # Errors
    ///
    /// [`SramError::BadTileWidth`] when `tile_width` does not divide the
    /// array's column count, is zero, or exceeds 64 (the whole ISA is
    /// built on one ≤64-bit word per tile — `BitRow::tile_word`, the
    /// `Check` bit field, and the multiply-smear predicate latch all
    /// assume it).
    pub fn new(array: SramArray, tile_width: usize) -> Result<Self, SramError> {
        if tile_width == 0 || tile_width > 64 || !array.cols().is_multiple_of(tile_width) {
            return Err(SramError::BadTileWidth {
                width: tile_width,
                cols: array.cols(),
            });
        }
        let n_tiles = array.cols() / tile_width;
        let cols = array.cols();
        let mut mask_cols = BitRow::zero(cols);
        mask_cols.fill_range(0, cols, true);
        let mut shl_keep = mask_cols.clone();
        let mut shr_keep = mask_cols.clone();
        for base in (0..cols).step_by(tile_width) {
            shl_keep.set_bit(base, false);
            shr_keep.set_bit(base + tile_width - 1, false);
        }
        // The mask covers the chunk-padded word count; padding words stay
        // zero, so the latch writes them as zero.
        let n_words = crate::bitrow::padded_words(cols);
        let mut tile_base_mask = vec![0u64; n_words];
        for base in (0..cols).step_by(tile_width) {
            tile_base_mask[base / 64] |= 1u64 << (base % 64);
        }
        Ok(Controller {
            array,
            tile_width,
            n_tiles,
            tile_mask: vec![true; n_tiles],
            n_masked_off: 0,
            zero_flag: false,
            timing: TimingModel::paper(),
            energy: EnergyModel::cmos_45nm(),
            counts: InstrCounts::default(),
            row_loads: 0,
            row_stores: 0,
            fastpath: FastPathStats::default(),
            fast_path: FastPathKind::for_words(n_words),
            scratch_a: BitRow::zero(cols),
            scratch_b: BitRow::zero(cols),
            pred_mask: BitRow::zero(cols),
            mask_cols,
            shl_keep,
            shr_keep,
            tile_base_mask,
            epi_buf: vec![0; 5 * n_words],
            fault: None,
        })
    }

    /// Installs a [`FaultPlan`], replacing any existing one. Faults are
    /// applied at instruction-batch boundaries on both execution paths
    /// (replay and generic emission) and at every data-row load/read;
    /// see the [`crate::fault`] module docs for the fault model and
    /// determinism guarantees. Installing an empty plan still routes
    /// execution through the hook, which is the cheap way to check the
    /// hook itself is cost-neutral.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(Box::new(FaultState::new(plan)));
    }

    /// Removes the installed fault plan, returning its injection
    /// counters ([`FaultStats::default`] when none was installed).
    pub fn clear_fault_plan(&mut self) -> FaultStats {
        self.fault.take().map(|s| s.stats).unwrap_or_default()
    }

    /// Injection counters of the installed plan (`None` when no plan is
    /// installed).
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|s| s.stats)
    }

    /// The fault hook: called once per instruction-batch boundary. The
    /// common no-plan case is a single `Option` discriminant test.
    #[inline]
    pub(crate) fn fault_tick(&mut self) {
        if self.fault.is_some() {
            self.fault_tick_slow();
        }
    }

    /// Applies every fault due at the current instruction clock
    /// (`Stats::counts.total()`, which the bit-identity contract makes
    /// mode-independent): fires due transients as live bit-flips,
    /// re-imposes stuck cells and dead rows, and trips a scheduled hard
    /// fault as a controller panic.
    #[cold]
    fn fault_tick_slow(&mut self) {
        let now = self.counts.total();
        let rows = self.array.rows();
        let cols = self.array.cols();
        let Some(state) = self.fault.as_mut() else {
            return;
        };
        let mut flips = Vec::new();
        let hard = state.collect_due(now, rows, cols, &mut flips);
        for (r, b) in flips {
            let row = self.array.row_mut(r);
            let v = row.bit(b);
            row.set_bit(b, !v);
        }
        if state.persistent_active(now) {
            state.stats.persistent_imposications += 1;
            // Clone the small fault lists so the array can be mutated
            // while the state stays borrowed-free.
            let dead = state.plan.dead_rows.clone();
            let stuck = state.plan.stuck.clone();
            for r in dead {
                if r < rows {
                    let row = self.array.row_mut(r);
                    *row = BitRow::zero(cols);
                }
            }
            for c in stuck {
                if c.row < rows && c.bit < cols {
                    self.array.row_mut(c.row).set_bit(c.bit, c.value);
                }
            }
        }
        if hard {
            panic!("injected hard fault: SRAM controller wordline latch-up at instruction {now}");
        }
    }

    /// Latches the per-tile predicate from tile-relative column `bit` of
    /// row `src` into the predicate column mask (the boolean per-tile view
    /// is derived from the mask on demand).
    fn latch_preds(&mut self, src: usize, bit: usize) {
        self.pred_mask.copy_from(self.array.row(src));
        let pm = self.pred_mask.words_mut();
        crate::wordkern::latch_tile_bit(&self.tile_base_mask, self.tile_width, bit, pm);
    }

    /// Replaces the timing model (e.g. [`TimingModel::conservative`]).
    /// Statistics are priced on read, so every count accumulated so far
    /// is priced under the new model too.
    pub fn set_timing_model(&mut self, timing: TimingModel) {
        self.timing = timing;
    }

    /// Replaces the energy model (priced on read, like the timing model).
    pub fn set_energy_model(&mut self, energy: EnergyModel) {
        self.energy = energy;
    }

    /// Tile width in columns.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Number of tiles.
    #[must_use]
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Array height.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Array width.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.array.cols()
    }

    /// The wired-OR zero flag set by the last `CheckZero`.
    #[must_use]
    pub fn zero_flag(&self) -> bool {
        self.zero_flag
    }

    /// The predicate latch of tile `t` (the tile's columns in the
    /// predicate mask).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn pred(&self, t: usize) -> bool {
        assert!(t < self.n_tiles, "tile {t} out of range");
        self.pred_mask.bit(t * self.tile_width)
    }

    /// Accumulated statistics: the class counts and row I/O, with cycles
    /// and energy priced from them under the active models.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let row_io = self.row_loads + self.row_stores;
        Stats {
            cycles: self.timing.price(&self.counts, row_io),
            energy_pj: self.energy.price(&self.counts, row_io, self.cols()),
            counts: self.counts,
            row_loads: self.row_loads,
            row_stores: self.row_stores,
        }
    }

    /// Resets the statistics to zero (array contents are untouched). Also
    /// clears the fast-path coverage counters.
    pub fn reset_stats(&mut self) {
        self.counts = InstrCounts::default();
        self.row_loads = 0;
        self.row_stores = 0;
        self.fastpath = FastPathStats::default();
    }

    /// Fast-path coverage telemetry accumulated since the last reset.
    #[must_use]
    pub fn fastpath_stats(&self) -> &FastPathStats {
        &self.fastpath
    }

    /// This geometry's fused chain/loop execution strategy.
    #[must_use]
    pub fn fast_path_kind(&self) -> FastPathKind {
        self.fast_path
    }

    /// Uncosted debug view of a row (not a simulated access).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn peek_row(&self, r: usize) -> &BitRow {
        self.array.row(r)
    }

    /// Loads one data row through the normal SRAM write port (costed as a
    /// row write, not a compute instruction).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the row width mismatches.
    pub fn load_data_row(&mut self, r: usize, data: BitRow) {
        self.array.write_row(r, data);
        self.row_loads += 1;
        self.fault_tick();
    }

    /// Reads one data row through the normal SRAM read port (costed).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn read_data_row(&mut self, r: usize) -> BitRow {
        self.row_stores += 1;
        self.fault_tick();
        self.array.row(r).clone()
    }

    fn check_row(&self, r: crate::isa::RowAddr) -> Result<usize, SramError> {
        let idx = r.index();
        if idx >= self.array.rows() {
            return Err(SramError::RowOutOfRange {
                row: idx,
                rows: self.array.rows(),
            });
        }
        Ok(idx)
    }

    /// Write-back of one scratch row with per-tile gating: only enabled
    /// tiles take the new value; the rest keep the old row contents. The
    /// all-enabled fast path is a pointer swap — the scratch row becomes
    /// the (dead) previous destination contents and is fully overwritten by
    /// the next compute instruction. The gated path is a word-wise merge
    /// through the predicate/tile column masks (no per-tile loop).
    fn write_back(&mut self, dst: usize, pred: PredMode, second: bool) {
        if pred == PredMode::Always && self.n_masked_off == 0 {
            let scratch = if second {
                &mut self.scratch_b
            } else {
                &mut self.scratch_a
            };
            std::mem::swap(self.array.row_mut(dst), scratch);
            return;
        }
        let scratch = if second {
            &self.scratch_b
        } else {
            &self.scratch_a
        };
        let sw = scratch.words();
        let mw = self.mask_cols.words();
        let pw = self.pred_mask.words();
        let rw = self.array.row_mut(dst).words_mut();
        match pred {
            PredMode::Always => {
                for ((r, &s), &m) in rw.iter_mut().zip(sw).zip(mw) {
                    *r = (*r & !m) | (s & m);
                }
            }
            PredMode::IfSet => {
                for (((r, &s), &m), &p) in rw.iter_mut().zip(sw).zip(mw).zip(pw) {
                    let g = m & p;
                    *r = (*r & !g) | (s & g);
                }
            }
            PredMode::IfClear => {
                for (((r, &s), &m), &p) in rw.iter_mut().zip(sw).zip(mw).zip(pw) {
                    let g = m & !p;
                    *r = (*r & !g) | (s & g);
                }
            }
        }
    }

    /// Validates an instruction's row addresses and `Check` bit against
    /// this controller (the same checks [`Self::execute`] performs, shared
    /// with program compilation).
    pub(crate) fn validate_instr(&self, instr: &Instruction) -> Result<(), SramError> {
        match *instr {
            Instruction::Check { src, bit } => {
                self.check_row(src)?;
                if usize::from(bit) >= self.tile_width {
                    return Err(SramError::CheckBitOutOfRange {
                        bit,
                        tile_width: self.tile_width,
                    });
                }
            }
            Instruction::CheckZero { src } => {
                self.check_row(src)?;
            }
            Instruction::MaskTiles { .. } | Instruction::MaskAll => {}
            Instruction::Unary { dst, src, kind, .. } => {
                self.check_row(dst)?;
                if kind != UnaryKind::Zero {
                    self.check_row(src)?;
                }
            }
            Instruction::Shift { dst, src, .. } => {
                self.check_row(dst)?;
                self.check_row(src)?;
            }
            Instruction::Binary {
                dst,
                src0,
                src1,
                dst2,
                ..
            } => {
                self.check_row(dst)?;
                self.check_row(src0)?;
                self.check_row(src1)?;
                if let Some((d2, _)) = dst2 {
                    self.check_row(d2)?;
                }
            }
        }
        Ok(())
    }

    /// Applies one *validated* instruction: the semantic work and the
    /// instruction-class counters, but no address validation. Shared by
    /// [`Self::execute`] (which validates per call) and compiled-program
    /// replay (which validated at compile time).
    pub(crate) fn apply_instr(&mut self, instr: &Instruction) {
        self.counts.record(instr);
        match *instr {
            Instruction::Check { src, bit } => {
                self.latch_preds(src.index(), usize::from(bit));
            }
            Instruction::CheckZero { src } => {
                self.zero_flag = self.array.row(src.index()).is_zero();
            }
            Instruction::MaskTiles { stride_log2, phase } => {
                let mut off = 0;
                for (t, m) in self.tile_mask.iter_mut().enumerate() {
                    *m = mask_tiles_enables(t, stride_log2, phase);
                    off += usize::from(!*m);
                    self.mask_cols
                        .fill_range(t * self.tile_width, (t + 1) * self.tile_width, *m);
                }
                self.n_masked_off = off;
            }
            Instruction::MaskAll => {
                self.tile_mask.iter_mut().for_each(|m| *m = true);
                self.n_masked_off = 0;
                self.mask_cols.fill_range(0, self.array.cols(), true);
            }
            Instruction::Unary {
                dst,
                src,
                kind,
                pred,
            } => {
                match kind {
                    UnaryKind::Copy => self.scratch_a.copy_from(self.array.row(src.index())),
                    UnaryKind::Not => self.scratch_a.assign_not(self.array.row(src.index())),
                    UnaryKind::Zero => self.scratch_a.clear(),
                }
                self.write_back(dst.index(), pred, false);
            }
            Instruction::Shift {
                dst,
                src,
                dir,
                masked,
                pred,
            } => {
                self.scratch_a.copy_from(self.array.row(src.index()));
                self.shift_scratch_a(dir, masked);
                self.write_back(dst.index(), pred, false);
            }
            Instruction::Binary {
                dst,
                op,
                src0,
                src1,
                dst2,
                shift,
                pred,
            } => {
                // Both results are computed from the same activation,
                // before any write-back, so a destination overlapping an
                // operand cannot corrupt the second result.
                {
                    let a = self.array.row(src0.index());
                    let b = self.array.row(src1.index());
                    Self::assign_bitop(&mut self.scratch_a, a, b, op);
                    if let Some((_, op2)) = dst2 {
                        Self::assign_bitop(&mut self.scratch_b, a, b, op2);
                    }
                }
                if let Some((dir, masked)) = shift {
                    self.shift_scratch_a(dir, masked);
                }
                self.write_back(dst.index(), pred, false);
                if let Some((d2, _)) = dst2 {
                    self.write_back(d2.index(), pred, true);
                }
            }
        }
    }

    /// The column image `MaskTiles { stride_log2, phase }` installs.
    pub(crate) fn mask_tiles_image(&self, stride_log2: u8, phase: bool) -> BitRow {
        let mut image = BitRow::zero(self.cols());
        for t in 0..self.n_tiles {
            if mask_tiles_enables(t, stride_log2, phase) {
                image.fill_range(t * self.tile_width, (t + 1) * self.tile_width, true);
            }
        }
        image
    }

    fn assign_bitop(out: &mut BitRow, a: &BitRow, b: &BitRow, op: BitOp) {
        match op {
            BitOp::And => out.assign_and(a, b),
            BitOp::Or => out.assign_or(a, b),
            BitOp::Xor => out.assign_xor(a, b),
            BitOp::Nor => out.assign_nor(a, b),
        }
    }

    fn shift_scratch_a(&mut self, dir: ShiftDir, masked: bool) {
        match (dir, masked) {
            (ShiftDir::Left, false) => self.scratch_a.shl1_global_in_place(),
            (ShiftDir::Left, true) => {
                self.scratch_a.shl1_global_in_place();
                self.scratch_a.and_assign(&self.shl_keep);
            }
            (ShiftDir::Right, false) => self.scratch_a.shr1_global_in_place(),
            (ShiftDir::Right, true) => {
                self.scratch_a.shr1_global_in_place();
                self.scratch_a.and_assign(&self.shr_keep);
            }
        }
    }

    /// Adds a typed op's instruction-class counts.
    #[inline]
    pub(crate) fn add_counts(&mut self, counts: &InstrCounts) {
        self.counts += *counts;
    }

    // ---- typed-op word kernels -----------------------------------------------
    //
    // Each runs one typed op word-level, leaving rows, predicate latches,
    // and the zero flag exactly as its expansion would. Both return
    // `false` (caller runs the expansion) when the current tile mask
    // disables any tile — the kernels assume `mask_cols` is all-enabled,
    // which also makes them tail-safe (the mask words carry zero tail
    // bits) — or when the op's rows alias in a way the kernel does not
    // model.

    /// One typed Algorithm 2 multiply as one multiplier chain, the rows
    /// borrowed once: register-resident for rows of up to four chunks,
    /// per-step beyond. The caller adds the class counts.
    pub(crate) fn exec_chain(&mut self, step: &crate::program::ModMulStep) -> bool {
        use crate::epilogue::Multiplier;
        use crate::wordkern::{Chain, Factor};
        let (op, r) = (&step.op, &step.op.rows);
        if self.n_masked_off != 0 || !step.fusable {
            self.fastpath.fallbacks += 1;
            return false;
        }
        let factor = match op.multiplier {
            Multiplier::Const(a) => Factor::Const(a),
            // Read once: the row is no accumulator row and `B`/`M` are
            // read-only, so it stays current for the whole chain.
            Multiplier::Row(row) => {
                self.scratch_a.copy_from(self.array.row(row.index()));
                Factor::Row(self.scratch_a.words())
            }
        };
        // The borrow fails on overlapping rows, and on a `B` row that a
        // zero constant's expansion never touches (nor validates).
        let rows = [r.sum, r.carry, r.t_sum, r.t_carry, op.b, r.modulus].map(RowAddr::index);
        let Some([sum, carry, t_sum, t_carry, b, m]) = self.array.rows_disjoint_mut(rows) else {
            self.fastpath.fallbacks += 1;
            return false;
        };
        let mut acc = [
            sum.words_mut(),
            carry.words_mut(),
            t_sum.words_mut(),
            t_carry.words_mut(),
        ];
        // Algorithm 2's `P ← 0`.
        acc[0].fill(0);
        acc[1].fill(0);
        let chain = Chain {
            acc: &mut acc,
            b: b.words(),
            m: m.words(),
            factor,
            bits: usize::from(r.bitwidth),
            pm: self.pred_mask.words_mut(),
            valid: self.mask_cols.words(),
            shr_keep: self.shr_keep.words(),
            base_mask: &self.tile_base_mask,
            tile_width: self.tile_width,
        };
        if crate::wordkern::chain(self.fast_path, chain) {
            self.fastpath.chains_resident += 1;
        } else {
            self.fastpath.chains_per_step += 1;
        }
        true
    }

    /// One typed butterfly epilogue through its word kernel, which runs
    /// both resolution loops in place: the results, the predicate latch,
    /// the zero flag and the expansion's class counts land exactly as the
    /// expansion would leave them. Returns `false` (nothing touched) under
    /// an active tile mask or rows the kernel does not model, where the
    /// caller runs the expansion instead.
    pub(crate) fn exec_epilogue(
        &mut self,
        step: &crate::program::EpilogueStep,
        (fixed, round): &(InstrCounts, InstrCounts),
        final_mask: Option<&BitRow>,
    ) -> bool {
        use crate::epilogue::EpilogueOp;
        if self.n_masked_off != 0 || !step.fusable {
            self.fastpath.fallbacks += 1;
            return false;
        }
        let bitwidth = usize::from(step.op.rows.bitwidth);
        let valid = self.mask_cols.words();
        let geom = crate::wordkern::EpiGeom {
            shl_keep: self.shl_keep.words(),
            valid,
            final_mask: final_mask.map_or(valid, BitRow::words),
            base_mask: &self.tile_base_mask,
            tile_width: self.tile_width,
            msb: bitwidth - 1,
            max_checks: bitwidth + 1,
        };
        let (tally, resident) = crate::wordkern::epilogue(
            self.fast_path,
            &step.op,
            &mut self.array,
            &geom,
            self.pred_mask.words_mut(),
            &mut self.epi_buf,
        );
        self.zero_flag = tally.converged;
        debug_assert!(
            tally.converged,
            "resolution loop must converge within max_checks"
        );
        let mut counts = round.scaled(tally.bodies);
        counts.check_zero += tally.checks;
        self.add_counts(&(counts + *fixed));
        self.fastpath.superops_fused += 1;
        if resident {
            self.fastpath.resolve_loops_resident += EpilogueOp::LOOPS;
        } else {
            self.fastpath.resolve_loops_per_step += EpilogueOp::LOOPS;
        }
        true
    }

    /// True when every tile's write-back is currently enabled.
    #[must_use]
    pub fn all_tiles_enabled(&self) -> bool {
        self.n_masked_off == 0
    }

    /// Writes one data row in place through the normal SRAM write port
    /// without allocating (costed identically to [`Self::load_data_row`]).
    pub(crate) fn load_data_row_ref(&mut self, r: usize, data: &BitRow) {
        self.array.row_mut(r).copy_from(data);
        self.row_loads += 1;
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`SramError::RowOutOfRange`] for bad row addresses and
    /// [`SramError::CheckBitOutOfRange`] for a `Check` outside the tile.
    pub fn execute(&mut self, instr: &Instruction) -> Result<(), SramError> {
        self.validate_instr(instr)?;
        self.apply_instr(instr);
        Ok(())
    }

    /// Runs one zero-terminated loop instruction by instruction, with no
    /// fault tick (the caller ticks at the loop or op boundary).
    pub(crate) fn run_zero_loop(
        &mut self,
        spec: crate::program::ZeroLoopSpec<'_>,
    ) -> Result<(), SramError> {
        for _ in 0..spec.max_checks {
            self.execute(&Instruction::CheckZero { src: spec.src })?;
            if self.zero_flag {
                break;
            }
            for i in spec.body {
                self.execute(i)?;
            }
        }
        debug_assert!(
            self.zero_flag,
            "resolution loop must converge within max_checks"
        );
        Ok(())
    }

    /// Executes a straight-line program.
    ///
    /// # Errors
    ///
    /// Stops at — and returns — the first instruction error.
    pub fn run(&mut self, program: &Program) -> Result<(), SramError> {
        for i in program.instructions() {
            self.execute(i)?;
        }
        Ok(())
    }
}

/// Whether `MaskTiles { stride_log2, phase }` enables tile `t`.
fn mask_tiles_enables(t: usize, stride_log2: u8, phase: bool) -> bool {
    let bit = if stride_log2 >= 63 {
        0
    } else {
        (t >> stride_log2) & 1
    };
    (bit == 1) == phase
}

// The word-level kernel bodies — the multiplier chain and the butterfly
// epilogues — live in [`crate::wordkern`], which runs each on an AVX2 or
// a bit-identical `u64` lane.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::RowAddr;

    fn controller(rows: usize, cols: usize, w: usize) -> Controller {
        Controller::new(SramArray::new(rows, cols).unwrap(), w).unwrap()
    }

    fn row_with(cols: usize, w: usize, words: &[u64]) -> BitRow {
        let mut r = BitRow::zero(cols);
        for (t, &v) in words.iter().enumerate() {
            r.set_tile_word(t, w, v);
        }
        r
    }

    #[test]
    fn rejects_bad_tile_width() {
        assert!(Controller::new(SramArray::new(8, 64).unwrap(), 0).is_err());
        assert!(Controller::new(SramArray::new(8, 64).unwrap(), 48).is_err());
        assert!(Controller::new(SramArray::new(8, 64).unwrap(), 16).is_ok());
        // Tile words are at most 64 bits everywhere in the ISA; the
        // predicate latch relies on it.
        assert!(Controller::new(SramArray::new(8, 128).unwrap(), 128).is_err());
        assert!(Controller::new(SramArray::new(8, 128).unwrap(), 64).is_ok());
    }

    #[test]
    fn check_latches_per_tile_predicates() {
        let mut c = controller(4, 64, 16);
        c.load_data_row(0, row_with(64, 16, &[1, 0, 1, 0]));
        c.execute(&Instruction::Check {
            src: RowAddr(0),
            bit: 0,
        })
        .unwrap();
        assert_eq!(
            (c.pred(0), c.pred(1), c.pred(2), c.pred(3)),
            (true, false, true, false)
        );
    }

    #[test]
    fn check_bit_out_of_tile_errors() {
        let mut c = controller(4, 64, 16);
        assert!(matches!(
            c.execute(&Instruction::Check {
                src: RowAddr(0),
                bit: 16
            }),
            Err(SramError::CheckBitOutOfRange { .. })
        ));
    }

    #[test]
    fn predicated_write_only_touches_selected_tiles() {
        let mut c = controller(4, 64, 16);
        c.load_data_row(0, row_with(64, 16, &[1, 0, 1, 0])); // predicates
        c.load_data_row(1, row_with(64, 16, &[7, 7, 7, 7])); // source
        c.load_data_row(2, row_with(64, 16, &[9, 9, 9, 9])); // destination
        c.execute(&Instruction::Check {
            src: RowAddr(0),
            bit: 0,
        })
        .unwrap();
        c.execute(&Instruction::Unary {
            dst: RowAddr(2),
            src: RowAddr(1),
            kind: UnaryKind::Copy,
            pred: PredMode::IfSet,
        })
        .unwrap();
        let r = c.peek_row(2);
        assert_eq!(
            [
                r.tile_word(0, 16),
                r.tile_word(1, 16),
                r.tile_word(2, 16),
                r.tile_word(3, 16)
            ],
            [7, 9, 7, 9]
        );
        // Complementary predicate covers the rest.
        c.execute(&Instruction::Unary {
            dst: RowAddr(2),
            src: RowAddr(1),
            kind: UnaryKind::Zero,
            pred: PredMode::IfClear,
        })
        .unwrap();
        let r = c.peek_row(2);
        assert_eq!(
            [
                r.tile_word(0, 16),
                r.tile_word(1, 16),
                r.tile_word(2, 16),
                r.tile_word(3, 16)
            ],
            [7, 0, 7, 0]
        );
    }

    #[test]
    fn tile_mask_gates_writes() {
        let mut c = controller(4, 64, 16);
        c.load_data_row(0, row_with(64, 16, &[1, 2, 3, 4]));
        c.execute(&Instruction::MaskTiles {
            stride_log2: 0,
            phase: false,
        })
        .unwrap();
        // Tiles 0 and 2 enabled ((t>>0)&1 == 0).
        c.execute(&Instruction::Unary {
            dst: RowAddr(1),
            src: RowAddr(0),
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        })
        .unwrap();
        let r = c.peek_row(1);
        assert_eq!(
            [
                r.tile_word(0, 16),
                r.tile_word(1, 16),
                r.tile_word(2, 16),
                r.tile_word(3, 16)
            ],
            [1, 0, 3, 0]
        );
        c.execute(&Instruction::MaskAll).unwrap();
        c.execute(&Instruction::Unary {
            dst: RowAddr(1),
            src: RowAddr(0),
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        })
        .unwrap();
        assert_eq!(c.peek_row(1), c.peek_row(0));
    }

    #[test]
    fn binary_dual_writeback_uses_one_activation() {
        let mut c = controller(8, 64, 32);
        c.load_data_row(0, row_with(64, 32, &[0b1100, 0b1111]));
        c.load_data_row(1, row_with(64, 32, &[0b1010, 0b0001]));
        // dst overlaps an operand: the second write-back must still see the
        // original operands.
        c.execute(&Instruction::Binary {
            dst: RowAddr(0), // overwrite src0 with AND
            op: BitOp::And,
            src0: RowAddr(0),
            src1: RowAddr(1),
            dst2: Some((RowAddr(2), BitOp::Xor)),
            shift: None,
            pred: PredMode::Always,
        })
        .unwrap();
        assert_eq!(c.peek_row(0).tile_word(0, 32), 0b1000);
        assert_eq!(
            c.peek_row(2).tile_word(0, 32),
            0b0110,
            "XOR of the *original* rows"
        );
        assert_eq!(c.peek_row(2).tile_word(1, 32), 0b1110);
        assert_eq!(c.stats().counts.binary, 1);
        assert_eq!(c.stats().counts.second_writebacks, 1);
    }

    #[test]
    fn fused_shift_applies_to_primary_result() {
        let mut c = controller(8, 64, 32);
        c.load_data_row(0, row_with(64, 32, &[0b0110, 0]));
        c.load_data_row(1, row_with(64, 32, &[0b0000, 0]));
        c.execute(&Instruction::Binary {
            dst: RowAddr(2),
            op: BitOp::Or,
            src0: RowAddr(0),
            src1: RowAddr(1),
            dst2: None,
            shift: Some((ShiftDir::Right, false)),
            pred: PredMode::Always,
        })
        .unwrap();
        assert_eq!(c.peek_row(2).tile_word(0, 32), 0b0011);
        assert_eq!(c.stats().counts.fused_shifts, 1);
    }

    #[test]
    fn zero_flag_reflects_row_contents() {
        let mut c = controller(4, 64, 32);
        c.execute(&Instruction::CheckZero { src: RowAddr(1) })
            .unwrap();
        assert!(c.zero_flag());
        c.load_data_row(1, row_with(64, 32, &[0, 1]));
        c.execute(&Instruction::CheckZero { src: RowAddr(1) })
            .unwrap();
        assert!(!c.zero_flag());
    }

    #[test]
    fn costs_accumulate() {
        let mut c = controller(4, 64, 32);
        c.load_data_row(0, row_with(64, 32, &[5, 6]));
        c.execute(&Instruction::Shift {
            dst: RowAddr(1),
            src: RowAddr(0),
            dir: ShiftDir::Left,
            masked: true,
            pred: PredMode::Always,
        })
        .unwrap();
        let s = c.stats();
        assert_eq!(s.cycles, 2, "1 row load + 1 shift at the paper timing");
        assert!(s.energy_pj > 0.0);
        assert_eq!(s.row_loads, 1);
        assert_eq!(s.counts.shift, 1);
    }

    #[test]
    fn out_of_range_rows_error() {
        let mut c = controller(4, 64, 32);
        assert!(matches!(
            c.execute(&Instruction::CheckZero { src: RowAddr(4) }),
            Err(SramError::RowOutOfRange { row: 4, rows: 4 })
        ));
    }
}

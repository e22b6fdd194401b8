//! The BP-NTT batch execution engine.
//!
//! Ties the tile [`Layout`](crate::layout::Layout), the
//! [`Kernels`](crate::kernels::Kernels) code generator, and the SRAM
//! [`Controller`] together into the accelerator the paper evaluates:
//! load a batch of polynomials (one per lane), run the in-place forward or
//! inverse NTT schedule entirely inside the array, and read the batch
//! back. All lanes execute the same instruction stream — the SIMD
//! parallelism across tiles is where BP-NTT's throughput comes from.
//!
//! # Compile once, replay many
//!
//! The instruction stream of a schedule depends only on the configuration
//! (`NttParams` + `Layout` + cost models) — never on the loaded data. The
//! engine therefore *traces* each schedule once through a
//! [`Recorder`](bpntt_sram::Recorder) into a compiled program and replays
//! it on every subsequent call ([`BpNtt::forward`], [`BpNtt::inverse`],
//! [`BpNtt::polymul`]); replay skips code generation, twiddle Montgomery
//! conversions, per-instruction validation, and cost-model evaluation,
//! while producing bit-identical array contents and bit-identical
//! [`Stats`] to direct emission
//! (see [`BpNtt::forward_mode`] with [`ExecMode::Generic`]). The
//! compiled stream runs almost entirely as typed ops — Algorithm 2
//! multiplies and butterfly epilogues, which the kernels emit typed
//! (`CompiledProgram::fused_ops` counts them) — and the
//! `bpntt-sram` word-engine executes both through one kernel body per op,
//! run on AVX2 lanes or (forced scalar, or no AVX2) on `u64` lanes with
//! identical bits, register-resident on either for rows up to four
//! 256-bit chunks (1024 columns). The compiled programs
//! live in an [`ArtifactCache`] shared by `Arc`: private to a standalone
//! engine, common to every shard of a [`ShardedBpNtt`](crate::ShardedBpNtt)
//! and every tenant of an [`NttService`](crate::NttService).
//!
//! Every schedule executes under an explicit [`ExecMode`]: `Replay`
//! (compiled programs, the production path) or `Generic` (strictly
//! per-instruction emission — the oracle the equivalence proptests pin
//! replay against).
//! The former `forward`/`forward_uncached`/`forward_uncached_generic`
//! triplicate collapsed into [`BpNtt::forward_mode`] /
//! [`BpNtt::inverse_mode`]; the deprecated `*_uncached` shim names are
//! gone (see the README migration notes).
//! [`BpNtt::fastpath_stats`] reports which strategy actually executed.
//!
//! # One engine
//!
//! `BpNtt` is the only execution engine: the sharded engine, the service
//! and the RNS engine all run it. Its controller always counts every
//! instruction by class, so [`Stats`] (the paper's simulated cycles and
//! energy) are live on every run.
//!
//! # Pipelines
//!
//! Whole workloads — the negacyclic product the paper's Table 3 scores,
//! NTT-domain-cached multiply-accumulate chains, scale-and-inverse —
//! compile and execute as one [`PipelineSpec`] op-graph through
//! [`BpNtt::run_pipeline`]: operands load once, every segment runs
//! in-SRAM back to back, results read once. See the
//! [`pipeline`](crate::pipeline) module docs for the spec/compile/cache
//! contract; [`BpNtt::polymul`] is a thin wrapper over the canned
//! polymul spec.

use std::sync::Arc;

use crate::artifacts::ArtifactCache;
use crate::config::BpNttConfig;
use crate::error::BpNttError;
use crate::kernels::Kernels;
use crate::layout::Layout;
use crate::pipeline::{
    CompiledPipeline, ConfigFingerprint, ExecMode, PipeOp, PipelineSegment, PipelineSpec,
};
use crate::verify::{Verifier, VerifyPolicy};
use bpntt_modmath::montgomery::MontCtx;
use bpntt_modmath::zq::mul_mod;
use bpntt_ntt::TwiddleTable;
use bpntt_sram::{
    BitRow, CompiledProgram, Controller, FastPathStats, FaultPlan, FaultStats, InstrSink,
    Instruction, PredMode, Recorder, RowAddr, ShiftDir, SramArray, Stats, UnaryKind,
};

/// Cache key for one compiled schedule within one configuration (the
/// [`ArtifactCache`] adds the configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKey {
    /// Forward NTT over the coefficient region based at `base`.
    Forward {
        /// First row of the coefficient region.
        base: u16,
    },
    /// Inverse NTT (with its final scaling constant, in Montgomery form)
    /// over the region based at `base`.
    Inverse {
        /// First row of the coefficient region.
        base: u16,
        /// The folded final scaling constant, in Montgomery form.
        scale_mont: u64,
    },
    /// Pointwise products `a_j ← â_j · b̂_j · R⁻¹` over two regions.
    Pointwise {
        /// First row of the destination (and left operand) region.
        a_base: u16,
        /// First row of the right operand region.
        b_base: u16,
    },
    /// Constant scaling `a_j ← a_j · c` over one region (`factor_mont` is
    /// `c·R mod q`). Emitted for [`PipeOp::ScaleBy`](crate::PipeOp) and
    /// for pipeline Montgomery-debt compensation segments.
    Scale {
        /// First row of the scaled region.
        base: u16,
        /// The scaling constant `c·R mod q`.
        factor_mont: u64,
    },
}

/// The BP-NTT accelerator instance.
///
/// # Example
///
/// ```
/// use bpntt_core::{BpNtt, BpNttConfig};
/// use bpntt_ntt::NttParams;
///
/// // Four 8-bit lanes of an 8-point NTT on a tiny 16×32 array.
/// let cfg = BpNttConfig::new(16, 32, 8, NttParams::new(8, 97)?)?;
/// let mut acc = BpNtt::new(cfg)?;
/// let polys = vec![vec![1u64, 2, 3, 4, 5, 6, 7, 8]; 4];
/// acc.load_batch(&polys)?;
/// acc.forward()?;
/// acc.inverse()?;
/// assert_eq!(acc.read_batch(4)?, polys); // roundtrip
/// # Ok::<(), bpntt_core::BpNttError>(())
/// ```
#[derive(Debug)]
pub struct BpNtt {
    config: BpNttConfig,
    twiddles: TwiddleTable,
    mont: MontCtx,
    kernels: Kernels,
    ctl: Controller,
    artifacts: Arc<ArtifactCache>,
    /// How pipeline outputs are checked before being returned (the
    /// *detect* rung of the recovery ladder; default [`VerifyPolicy::Off`]).
    verify: VerifyPolicy,
    /// Lazily built software verifier (one reference transform at
    /// construction); present once an active policy has been set.
    verifier: Option<Verifier>,
    /// Seed stream for spot-check sampling: bumped per verified run so a
    /// retry probes fresh points.
    verify_nonce: u64,
    /// Wall-clock seconds spent verifying since the last
    /// [`Self::take_verify_secs`].
    verify_secs: f64,
}

/// Emits complete NTT schedules into any [`InstrSink`]: a live controller
/// (the uncached path) or a recorder (program compilation). Borrows only
/// the engine's read-only state so the controller can be the sink.
struct Emitter<'a> {
    kernels: &'a Kernels,
    layout: &'a Layout,
    twiddles: &'a TwiddleTable,
    mont: &'a MontCtx,
    n: usize,
}

impl<'a> Emitter<'a> {
    /// Builds the emitter from the engine's read-only state. Takes the
    /// fields individually (not `&BpNtt`) so the borrows stay disjoint
    /// from the controller — an emitter can drive a sink that mutably
    /// borrows `self.ctl`.
    fn of(
        kernels: &'a Kernels,
        config: &'a BpNttConfig,
        twiddles: &'a TwiddleTable,
        mont: &'a MontCtx,
    ) -> Self {
        Emitter {
            kernels,
            layout: config.layout(),
            twiddles,
            mont,
            n: config.params().n(),
        }
    }

    fn forward_region<S: InstrSink>(&self, sink: &mut S, base: usize) -> Result<(), BpNttError> {
        let layout = self.layout;
        let n = self.n;
        if !layout.is_multi_tile() {
            // One polynomial per tile: every lane shares the compile-time
            // twiddle schedule (the multiplier lives in the control flow).
            let mut k = 0usize;
            let mut len = n / 2;
            while len > 0 {
                let mut idx = 0;
                while idx < n {
                    k += 1;
                    let z = self.mont.to_mont(self.twiddles.zetas()[k]);
                    for j in idx..idx + len {
                        let lo = RowAddr((base + j) as u16);
                        let hi = RowAddr((base + j + len) as u16);
                        self.kernels.ct_butterfly_const(sink, lo, hi, z)?;
                    }
                    idx += 2 * len;
                }
                len /= 2;
            }
            return Ok(());
        }
        // Multi-tile: one polynomial spans tiles; twiddles differ per tile
        // and are delivered through the twiddle row (data-driven path).
        let cpt = layout.coeffs_per_tile();
        let mut len = n / 2;
        while len > 0 {
            if len >= cpt {
                let d = len / cpt;
                for r in 0..cpt {
                    self.load_twiddle_row(sink, len, r, false)?;
                    self.cross_tile_ct(sink, r, d)?;
                }
            } else {
                let mut idx = 0;
                while idx < cpt {
                    self.load_twiddle_row(sink, len, idx, false)?;
                    for r in idx..idx + len {
                        let lo = layout.offset_row(r);
                        let hi = layout.offset_row(r + len);
                        self.kernels.ct_butterfly_data(sink, lo, hi)?;
                    }
                    idx += 2 * len;
                }
            }
            len /= 2;
        }
        Ok(())
    }

    fn inverse_region<S: InstrSink>(
        &self,
        sink: &mut S,
        base: usize,
        scale_mont: u64,
    ) -> Result<(), BpNttError> {
        let layout = self.layout;
        let n = self.n;
        if !layout.is_multi_tile() {
            let mut len = 1;
            while len < n {
                let k_base = n / (2 * len);
                // The last stage folds the final scale into its butterflies:
                // `hi` takes the scale with its twiddle in one multiply,
                // and only `lo` needs its own (N/2 multiplies, not N).
                let last = 2 * len == n;
                let mut idx = 0;
                let mut b = 0;
                while idx < n {
                    let mut zi = self.mont.to_mont(self.twiddles.inv_zetas()[k_base + b]);
                    if last {
                        zi = self.mont.mont_mul(zi, scale_mont);
                    }
                    for j in idx..idx + len {
                        let lo = RowAddr((base + j) as u16);
                        let hi = RowAddr((base + j + len) as u16);
                        self.kernels.gs_butterfly_const(sink, lo, hi, zi)?;
                        if last {
                            self.kernels.scale_const(sink, lo, scale_mont)?;
                        }
                    }
                    idx += 2 * len;
                    b += 1;
                }
                len *= 2;
            }
            return Ok(());
        }
        let cpt = layout.coeffs_per_tile();
        let mut len = 1;
        while len < n {
            if len >= cpt {
                let d = len / cpt;
                for r in 0..cpt {
                    self.load_twiddle_row(sink, len, r, true)?;
                    self.cross_tile_gs(sink, r, d)?;
                }
            } else {
                let mut idx = 0;
                while idx < cpt {
                    self.load_twiddle_row(sink, len, idx, true)?;
                    for r in idx..idx + len {
                        let lo = layout.offset_row(r);
                        let hi = layout.offset_row(r + len);
                        self.kernels.gs_butterfly_data(sink, lo, hi)?;
                    }
                    idx += 2 * len;
                }
            }
            len *= 2;
        }
        for r in 0..cpt {
            self.kernels
                .scale_const(sink, layout.offset_row(r), scale_mont)?;
        }
        Ok(())
    }

    /// Fills the twiddle row: tile `t` receives the (Montgomery-scaled)
    /// twiddle of the butterfly block that its coefficient at offset `r`
    /// belongs to at stage `len`. The row image depends only on the
    /// parameters and layout, so it records as a compile-time constant.
    fn load_twiddle_row<S: InstrSink>(
        &self,
        sink: &mut S,
        len: usize,
        r: usize,
        inverse: bool,
    ) -> Result<(), BpNttError> {
        let layout = self.layout;
        let tw_row = layout
            .rowmap()
            .twiddle
            .expect("multi-tile layouts have a twiddle row");
        let bw = layout.bitwidth();
        let cpt = layout.coeffs_per_tile();
        let tpp = layout.tiles_per_poly();
        let k_base = self.n / (2 * len);
        let mut row = BitRow::zero(layout.active_cols());
        for t in 0..layout.n_tiles() {
            let g = t % tpp;
            let j = g * cpt + r;
            let block = j / (2 * len);
            let k = k_base + block;
            let z = if inverse {
                self.twiddles.inv_zetas()[k]
            } else {
                self.twiddles.zetas()[k]
            };
            row.set_tile_word(t, bw, self.mont.to_mont(z));
        }
        sink.load_row(tw_row, &row)?;
        Ok(())
    }

    /// Cross-tile Cooley–Tukey butterfly on coefficient row `r`: partners
    /// sit `d` tiles apart in the *same* physical row, so the partner word
    /// is staged through `d·w` one-bit shifts — the Fig. 8(b) overhead.
    fn cross_tile_ct<S: InstrSink>(
        &self,
        sink: &mut S,
        r: usize,
        d: usize,
    ) -> Result<(), BpNttError> {
        let rm = *self.layout.rowmap();
        let scratch = rm.scratch.expect("multi-tile layouts have a scratch row");
        let row_r = self.layout.offset_row(r);
        let stride_log2 = d.trailing_zeros() as u8;
        // Stage partner words: tile t sees tile t+d's coefficient.
        self.kernels
            .move_tiles(sink, scratch, row_r, d, ShiftDir::Right)?;
        // t = ζ · partner (valid in the low-half tiles).
        self.kernels
            .modmul_data(sink, scratch, rm.twiddle.expect("twiddle row"))?;
        self.kernels.finish_modmul(sink)?;
        // new_hi = a[lo] − t (computed everywhere, consumed from low tiles).
        self.kernels.sub_mod(sink, scratch, row_r, rm.sum, None)?;
        // a[lo] ← a[lo] + t, only in the low-half tiles.
        self.kernels
            .add_mod(sink, row_r, row_r, rm.sum, Some((stride_log2, false)))?;
        // Ship new_hi to the high-half tiles.
        self.kernels
            .move_tiles(sink, scratch, scratch, d, ShiftDir::Left)?;
        sink.emit(Instruction::MaskTiles {
            stride_log2,
            phase: true,
        })?;
        sink.emit(Instruction::Unary {
            dst: row_r,
            src: scratch,
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        })?;
        sink.emit(Instruction::MaskAll)?;
        Ok(())
    }

    /// Cross-tile Gentleman–Sande butterfly on coefficient row `r`.
    fn cross_tile_gs<S: InstrSink>(
        &self,
        sink: &mut S,
        r: usize,
        d: usize,
    ) -> Result<(), BpNttError> {
        let rm = *self.layout.rowmap();
        let scratch = rm.scratch.expect("multi-tile layouts have a scratch row");
        let row_r = self.layout.offset_row(r);
        let stride_log2 = d.trailing_zeros() as u8;
        self.kernels
            .move_tiles(sink, scratch, row_r, d, ShiftDir::Right)?;
        // Sum ← u − v; a[lo] ← u + v (low tiles only).
        self.kernels.sub_mod(sink, rm.sum, row_r, scratch, None)?;
        self.kernels
            .add_mod(sink, row_r, row_r, scratch, Some((stride_log2, false)))?;
        // hi ← ζ⁻¹ (u − v), staged through scratch.
        sink.emit(Instruction::Unary {
            dst: scratch,
            src: rm.sum,
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        })?;
        self.kernels
            .modmul_data(sink, scratch, rm.twiddle.expect("twiddle row"))?;
        self.kernels.finish_modmul_into(sink, scratch)?;
        self.kernels
            .move_tiles(sink, scratch, scratch, d, ShiftDir::Left)?;
        sink.emit(Instruction::MaskTiles {
            stride_log2,
            phase: true,
        })?;
        sink.emit(Instruction::Unary {
            dst: row_r,
            src: scratch,
            kind: UnaryKind::Copy,
            pred: PredMode::Always,
        })?;
        sink.emit(Instruction::MaskAll)?;
        Ok(())
    }

    /// Pointwise products: `a_j ← â_j · b̂_j · R⁻¹` for every coefficient
    /// row of the two operand regions.
    fn pointwise<S: InstrSink>(
        &self,
        sink: &mut S,
        a_base: usize,
        b_base: usize,
    ) -> Result<(), BpNttError> {
        for j in 0..self.n {
            let a_row = RowAddr((a_base + j) as u16);
            let b_row = RowAddr((b_base + j) as u16);
            self.kernels.modmul_data(sink, a_row, b_row)?;
            self.kernels.finish_modmul_into(sink, a_row)?;
        }
        Ok(())
    }

    /// Constant scaling `a_j ← a_j · c` (with `c` in Montgomery form)
    /// over every coefficient row of one region.
    fn scale_region<S: InstrSink>(
        &self,
        sink: &mut S,
        base: usize,
        factor_mont: u64,
    ) -> Result<(), BpNttError> {
        if self.layout.is_multi_tile() {
            for r in 0..self.layout.coeffs_per_tile() {
                self.kernels
                    .scale_const(sink, self.layout.offset_row(r), factor_mont)?;
            }
            return Ok(());
        }
        for j in 0..self.n {
            self.kernels
                .scale_const(sink, RowAddr((base + j) as u16), factor_mont)?;
        }
        Ok(())
    }

    /// Emits the schedule identified by `key`.
    fn emit_key<S: InstrSink>(&self, sink: &mut S, key: ProgramKey) -> Result<(), BpNttError> {
        match key {
            ProgramKey::Forward { base } => self.forward_region(sink, usize::from(base)),
            ProgramKey::Inverse { base, scale_mont } => {
                self.inverse_region(sink, usize::from(base), scale_mont)
            }
            ProgramKey::Pointwise { a_base, b_base } => {
                self.pointwise(sink, usize::from(a_base), usize::from(b_base))
            }
            ProgramKey::Scale { base, factor_mont } => {
                self.scale_region(sink, usize::from(base), factor_mont)
            }
        }
    }
}

impl BpNtt {
    /// Builds the accelerator: allocates the (simulated) array, installs
    /// the constant rows (`M` and `2^w − M`), and precomputes twiddles.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulator construction failures.
    pub fn new(config: BpNttConfig) -> Result<Self, BpNttError> {
        Self::with_artifacts(config, Arc::default())
    }

    /// Builds an engine that compiles through `artifacts`.
    pub(crate) fn with_artifacts(
        config: BpNttConfig,
        artifacts: Arc<ArtifactCache>,
    ) -> Result<Self, BpNttError> {
        let layout = config.layout().clone();
        let q = config.params().modulus();
        let bw = config.bitwidth();
        let array = SramArray::new(config.rows(), layout.active_cols())?;
        let mut ctl = Controller::new(array, bw)?;
        let mont = MontCtx::new(q, bw as u32)?;
        let kernels = Kernels::new(*layout.rowmap(), q, bw);
        let twiddles = TwiddleTable::new(config.params());
        // Install the constant rows (uncosted one-time setup would be
        // unfair: count them as ordinary row loads).
        let n_tiles = layout.n_tiles();
        let mut m_row = BitRow::zero(layout.active_cols());
        let mut comp_row = BitRow::zero(layout.active_cols());
        let mask = if bw == 64 { u64::MAX } else { (1u64 << bw) - 1 };
        for t in 0..n_tiles {
            m_row.set_tile_word(t, bw, q);
            comp_row.set_tile_word(t, bw, q.wrapping_neg() & mask);
        }
        ctl.load_data_row(layout.rowmap().modulus.index(), m_row);
        ctl.load_data_row(layout.rowmap().comp_modulus.index(), comp_row);
        Ok(BpNtt {
            config,
            twiddles,
            mont,
            kernels,
            ctl,
            artifacts,
            verify: VerifyPolicy::Off,
            verifier: None,
            verify_nonce: 0,
            verify_secs: 0.0,
        })
    }

    /// Sets the output [`VerifyPolicy`] applied by
    /// [`Self::run_pipeline`] / [`Self::run_compiled_pipeline`]. An
    /// active policy builds the software [`Verifier`] once, up front.
    /// Verification never touches the simulator or its [`Stats`] — the
    /// replay≡emission bit-identity contract is unaffected.
    pub fn set_verify_policy(&mut self, policy: VerifyPolicy) {
        self.verify = policy;
        if policy.is_active() && self.verifier.is_none() {
            self.verifier = Some(Verifier::new(self.config.params()));
        }
    }

    /// The current output verification policy.
    #[must_use]
    pub fn verify_policy(&self) -> VerifyPolicy {
        self.verify
    }

    /// This engine's software verifier (built on demand): the reference
    /// model behind [`VerifyPolicy::Full`] and the recovery ladder's
    /// software fallback.
    pub fn verifier(&mut self) -> &Verifier {
        if self.verifier.is_none() {
            self.verifier = Some(Verifier::new(self.config.params()));
        }
        self.verifier.as_ref().expect("just built")
    }

    /// Installs a fault-injection [`FaultPlan`] on the underlying SRAM
    /// controller (see [`bpntt_sram::fault`]).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.ctl.install_fault_plan(plan);
    }

    /// Removes any installed fault plan, returning its injection
    /// counters.
    pub fn clear_fault_plan(&mut self) -> FaultStats {
        self.ctl.clear_fault_plan()
    }

    /// Injection counters of the installed fault plan, if any.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.ctl.fault_stats()
    }

    /// Returns and zeroes the wall-clock seconds spent verifying outputs
    /// since the last call (harvested per-chunk by the sharded engine
    /// into `verify_ms` telemetry).
    pub fn take_verify_secs(&mut self) -> f64 {
        std::mem::take(&mut self.verify_secs)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BpNttConfig {
        &self.config
    }

    /// Accumulated simulator statistics.
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.ctl.stats()
    }

    /// Resets the statistics (array contents are untouched). Also clears
    /// the fast-path coverage counters.
    pub fn reset_stats(&mut self) {
        self.ctl.reset_stats();
    }

    /// Word-engine fast-path coverage telemetry accumulated since the
    /// last [`Self::reset_stats`]: how many multiplier chains, epilogues
    /// and their loops actually executed, and which of them ran
    /// register-resident. The observable for "the fast path silently
    /// stopped firing".
    #[must_use]
    pub fn fastpath_stats(&self) -> &FastPathStats {
        self.ctl.fastpath_stats()
    }

    /// Replaces the timing model (for sensitivity studies). Compiled
    /// programs carry no cost model, so cached artifacts stay valid; the
    /// statistics are priced under the new model on read.
    pub fn set_timing_model(&mut self, t: bpntt_sram::TimingModel) {
        self.ctl.set_timing_model(t);
    }

    /// Number of schedules compiled and cached for this engine's
    /// configuration.
    #[must_use]
    pub fn cached_programs(&self) -> usize {
        self.artifacts.programs_of(self.fingerprint()).len()
    }

    /// Number of pipelines compiled and cached for this engine's
    /// configuration.
    #[must_use]
    pub fn cached_pipelines(&self) -> usize {
        self.artifacts.pipelines_of(self.fingerprint())
    }

    fn fingerprint(&self) -> ConfigFingerprint {
        ConfigFingerprint::of(&self.config)
    }

    /// Uncosted debug view of one physical array row (delegates to the
    /// controller; used by equivalence tests to compare *all* state, not
    /// just the coefficient region).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn peek_row(&self, r: usize) -> &BitRow {
        self.ctl.peek_row(r)
    }

    fn n(&self) -> usize {
        self.config.params().n()
    }

    fn q(&self) -> u64 {
        self.config.params().modulus()
    }

    /// Returns the compiled program for `key`, tracing and compiling it on
    /// first use by any engine sharing this one's artifact cache.
    pub(crate) fn program(&self, key: ProgramKey) -> Result<Arc<CompiledProgram>, BpNttError> {
        self.artifacts.program(self.fingerprint(), key, || {
            let mut rec = Recorder::new();
            Emitter::of(&self.kernels, &self.config, &self.twiddles, &self.mont)
                .emit_key(&mut rec, key)?;
            Ok(rec.finish().compile(&self.ctl)?)
        })
    }

    /// The key of the standalone forward-NTT program (coefficient region
    /// based at row 0) — the schedule [`Self::forward_mode`] runs.
    /// (Named-key warm-up arrays for batch paths are gone: shards and
    /// tenants now warm whole [`PipelineSpec`]s through
    /// [`Self::compile_pipeline`], whose segment keys are derived, not
    /// hand-listed.)
    pub(crate) fn forward_program_key(&self) -> ProgramKey {
        ProgramKey::Forward { base: 0 }
    }

    /// The compiled forward-NTT program for this configuration (compiling
    /// it on first use). Exposed for benchmarks and sharding.
    ///
    /// # Errors
    ///
    /// Propagates trace/compile failures.
    pub fn compiled_forward(&mut self) -> Result<Arc<CompiledProgram>, BpNttError> {
        self.program(ProgramKey::Forward { base: 0 })
    }

    /// The compiled inverse-NTT program (with the standard `N⁻¹` scaling).
    ///
    /// # Errors
    ///
    /// Propagates trace/compile failures.
    pub fn compiled_inverse(&mut self) -> Result<Arc<CompiledProgram>, BpNttError> {
        let scale = self.mont.to_mont(self.config.params().n_inv());
        self.program(ProgramKey::Inverse {
            base: 0,
            scale_mont: scale,
        })
    }

    /// Loads `polys` (one polynomial per lane, natural order) into the
    /// array starting at coefficient row 0. Unused lanes are zeroed.
    ///
    /// # Errors
    ///
    /// Rejects oversized batches, wrong lengths, and unreduced
    /// coefficients.
    pub fn load_batch(&mut self, polys: &[Vec<u64>]) -> Result<(), BpNttError> {
        self.load_batch_at(0, polys)
    }

    /// Loads a batch with coefficient rows based at `base` (used by
    /// [`Self::polymul`] to hold two operands).
    fn load_batch_at(&mut self, base: usize, polys: &[Vec<u64>]) -> Result<(), BpNttError> {
        let layout = self.config.layout().clone();
        let n = self.n();
        let q = self.q();
        if polys.len() > layout.lanes() {
            return Err(BpNttError::BatchTooLarge {
                batch: polys.len(),
                lanes: layout.lanes(),
            });
        }
        for (lane, p) in polys.iter().enumerate() {
            if p.len() != n {
                return Err(BpNttError::WrongLength {
                    expected: n,
                    actual: p.len(),
                });
            }
            if let Some((index, &value)) = p.iter().enumerate().find(|(_, &v)| v >= q) {
                return Err(BpNttError::Unreduced { lane, index, value });
            }
        }
        let bw = layout.bitwidth();
        let cpt = layout.coeffs_per_tile();
        let tpp = layout.tiles_per_poly();
        for r in 0..cpt {
            let mut row = BitRow::zero(layout.active_cols());
            for t in 0..layout.n_tiles() {
                let lane = t / tpp;
                let g = t % tpp;
                let j = g * cpt + r;
                let v = if lane < polys.len() && j < n {
                    polys[lane][j]
                } else {
                    0
                };
                row.set_tile_word(t, bw, v);
            }
            self.ctl.load_data_row(base + r, row);
        }
        Ok(())
    }

    /// Reads `batch` polynomials back out of the array (coefficient rows
    /// based at row 0).
    ///
    /// # Errors
    ///
    /// Rejects `batch` larger than the lane count.
    pub fn read_batch(&mut self, batch: usize) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.read_batch_at(0, batch)
    }

    fn read_batch_at(&mut self, base: usize, batch: usize) -> Result<Vec<Vec<u64>>, BpNttError> {
        let layout = self.config.layout().clone();
        if batch > layout.lanes() {
            return Err(BpNttError::BatchTooLarge {
                batch,
                lanes: layout.lanes(),
            });
        }
        let n = self.n();
        let bw = layout.bitwidth();
        let cpt = layout.coeffs_per_tile();
        let tpp = layout.tiles_per_poly();
        let mut out = vec![vec![0u64; n]; batch];
        for r in 0..cpt {
            let row = self.ctl.read_data_row(base + r);
            for (lane, poly) in out.iter_mut().enumerate() {
                for g in 0..tpp {
                    let j = g * cpt + r;
                    if j < n {
                        poly[j] = row.tile_word(lane * tpp + g, bw);
                    }
                }
            }
        }
        Ok(out)
    }

    // ---- pipelines ---------------------------------------------------------

    /// `R^d mod q` — the compensation constant for `d` accumulated
    /// Montgomery debts (see the [`pipeline`](crate::pipeline) docs).
    fn r_pow(&self, d: u32) -> u64 {
        let q = self.q();
        let mut acc = 1 % q;
        for _ in 0..d {
            acc = mul_mod(acc, self.mont.r_mod_m(), q);
        }
        acc
    }

    /// Compiles (or fetches from the artifact cache) the pipeline for
    /// `spec`: validates the op-graph against this configuration, folds
    /// the Montgomery-debt bookkeeping into the constant-scaling
    /// segments, and lowers each op to a compiled program shared through
    /// the same cache. See the
    /// [`pipeline`](crate::pipeline) module docs for the cache-key and
    /// segment-boundary contract.
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidPipeline`] for graph defects,
    /// [`BpNttError::CapacityExceeded`] when the referenced slots do not
    /// fit this layout; otherwise trace/compile failures.
    pub fn compile_pipeline(
        &mut self,
        spec: &PipelineSpec,
    ) -> Result<Arc<CompiledPipeline>, BpNttError> {
        self.artifacts
            .pipeline(self.fingerprint(), spec, || self.lower(spec))
    }

    /// Lowers `spec` to its compiled segments (the cache-miss half of
    /// [`Self::compile_pipeline`]).
    fn lower(&self, spec: &PipelineSpec) -> Result<CompiledPipeline, BpNttError> {
        spec.check(self.config.layout(), self.q())?;
        let n = self.n();
        let base = |slot: u8| (usize::from(slot) * n) as u16;
        let mut debt = vec![0u32; spec.slots()];
        let mut keys: Vec<ProgramKey> = Vec::with_capacity(spec.ops().len() + 1);
        for &op in spec.ops() {
            match op {
                PipeOp::Forward { slot } => keys.push(ProgramKey::Forward { base: base(slot) }),
                PipeOp::Inverse { slot } => {
                    let d = std::mem::take(&mut debt[usize::from(slot)]);
                    let scale = mul_mod(self.config.params().n_inv(), self.r_pow(d), self.q());
                    keys.push(ProgramKey::Inverse {
                        base: base(slot),
                        scale_mont: self.mont.to_mont(scale),
                    });
                }
                PipeOp::Pointwise { dst, src } => {
                    debt[usize::from(dst)] += debt[usize::from(src)] + 1;
                    keys.push(ProgramKey::Pointwise {
                        a_base: base(dst),
                        b_base: base(src),
                    });
                }
                PipeOp::ScaleBy { slot, factor } => {
                    let d = std::mem::take(&mut debt[usize::from(slot)]);
                    let c = mul_mod(factor, self.r_pow(d), self.q());
                    keys.push(ProgramKey::Scale {
                        base: base(slot),
                        factor_mont: self.mont.to_mont(c),
                    });
                }
            }
        }
        // Residual debt on the output slot gets one appended compensation
        // segment, so pipeline outputs always live in the plain domain.
        if let Some(out) = spec.output_slot() {
            let d = debt[usize::from(out)];
            if d > 0 {
                keys.push(ProgramKey::Scale {
                    base: base(out),
                    factor_mont: self.mont.to_mont(self.r_pow(d)),
                });
            }
        }
        let mut segments = Vec::with_capacity(keys.len());
        for key in keys {
            segments.push(PipelineSegment {
                key,
                program: self.program(key)?,
            });
        }
        Ok(CompiledPipeline {
            spec: spec.clone(),
            segments,
            fingerprint: self.fingerprint(),
        })
    }

    /// Runs one schedule under an execution mode: replay the cached
    /// compiled program, or emit strictly per-instruction.
    fn run_key(&mut self, key: ProgramKey, mode: ExecMode) -> Result<(), BpNttError> {
        match mode {
            ExecMode::Replay => {
                let prog = self.program(key)?;
                self.ctl.run_compiled(&prog)?;
                Ok(())
            }
            ExecMode::Generic => {
                let em = Emitter::of(&self.kernels, &self.config, &self.twiddles, &self.mont);
                em.emit_key(&mut self.ctl, key)
            }
        }
    }

    /// Runs one compiled segment; replay uses the segment's own `Arc` so
    /// the hot path never touches the artifact cache.
    fn run_segment(&mut self, seg: &PipelineSegment, mode: ExecMode) -> Result<(), BpNttError> {
        if let ExecMode::Replay = mode {
            self.ctl.run_compiled(&seg.program)?;
            return Ok(());
        }
        self.run_key(seg.key, mode)
    }

    /// Compiles `spec` (cached) and executes it on `inputs`: one batch
    /// per declared input slot, loaded once before the first segment; the
    /// whole op-graph then runs in-SRAM with **no intermediate
    /// `load_batch`/`read_batch` round-trips**, and the output slot is
    /// read once at the end. The batch size is the largest input batch;
    /// loading a slot zeroes its lanes beyond the supplied batch (the
    /// same discipline as [`Self::load_batch`]), while slots *not*
    /// declared as inputs are left untouched — that is where a resident
    /// spectrum survives between pipelines. A spec with no inputs reads
    /// back every lane.
    ///
    /// # Errors
    ///
    /// Compilation failures (see [`Self::compile_pipeline`]),
    /// [`BpNttError::InvalidPipeline`] when `inputs` does not match the
    /// spec's declared input slots, and load/validation/simulator
    /// failures.
    pub fn run_pipeline(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        let pipe = self.compile_pipeline(spec)?;
        self.run_compiled_pipeline(&pipe, mode, inputs)
    }

    /// Executes an already compiled pipeline (the sharded hot path); see
    /// [`Self::run_pipeline`].
    ///
    /// # Errors
    ///
    /// As [`Self::run_pipeline`], minus compilation; additionally
    /// [`BpNttError::InvalidPipeline`] when the pipeline was compiled
    /// for a different configuration (compiled programs embed absolute
    /// row addresses and tile geometry, so they are only valid on an
    /// identically configured engine).
    pub fn run_compiled_pipeline(
        &mut self,
        pipe: &CompiledPipeline,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        let fp = self.fingerprint();
        if pipe.fingerprint != fp {
            return Err(BpNttError::InvalidPipeline {
                reason: format!(
                    "pipeline was compiled for a different configuration \
                     ({}x{} cols, {}-bit, n={}, q={}) than this engine \
                     ({}x{} cols, {}-bit, n={}, q={})",
                    pipe.fingerprint.rows,
                    pipe.fingerprint.cols,
                    pipe.fingerprint.bitwidth,
                    pipe.fingerprint.n,
                    pipe.fingerprint.q,
                    fp.rows,
                    fp.cols,
                    fp.bitwidth,
                    fp.n,
                    fp.q
                ),
            });
        }
        let spec = pipe.spec();
        if inputs.len() != spec.input_slots().len() {
            return Err(BpNttError::InvalidPipeline {
                reason: format!(
                    "spec declares {} input slot(s) but {} batch(es) were supplied",
                    spec.input_slots().len(),
                    inputs.len()
                ),
            });
        }
        let n = pipe.n();
        let mut batch = 0usize;
        for (&slot, polys) in spec.input_slots().iter().zip(inputs) {
            batch = batch.max(polys.len());
            self.load_batch_at(usize::from(slot) * n, polys)?;
        }
        if inputs.is_empty() {
            batch = self.config.layout().lanes();
        }
        for seg in &pipe.segments {
            self.run_segment(seg, mode)?;
        }
        let out = match spec.output_slot() {
            Some(slot) => self.read_batch_at(usize::from(slot) * n, batch)?,
            None => Vec::new(),
        };
        if self.verify.is_active() && spec.output_slot().is_some() {
            let t0 = std::time::Instant::now();
            let seed = self.verify_nonce;
            self.verify_nonce = self.verify_nonce.wrapping_add(1);
            let verifier = self.verifier.as_ref().expect("built when policy was set");
            let res = verifier.check(spec, inputs, &out, self.verify, seed);
            self.verify_secs += t0.elapsed().as_secs_f64();
            res?;
        }
        Ok(out)
    }

    // ---- schedules ---------------------------------------------------------

    /// Runs the in-place forward NTT (paper Algorithm 1) on the loaded
    /// batch: natural order in, bit-reversed order out. Replays the cached
    /// compiled program (tracing it on first call); equivalent to
    /// [`Self::forward_mode`] with [`ExecMode::Replay`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn forward(&mut self) -> Result<(), BpNttError> {
        self.forward_mode(ExecMode::Replay)
    }

    /// Forward NTT under an explicit [`ExecMode`] — the single
    /// implementation behind the former `forward` /
    /// `forward_uncached` / `forward_uncached_generic` triplicate.
    /// Both modes produce bit-identical rows and bit-identical
    /// [`Stats`] (enforced by the equivalence proptests); they differ
    /// only in how the instruction stream is produced and executed.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn forward_mode(&mut self, mode: ExecMode) -> Result<(), BpNttError> {
        self.run_key(self.forward_program_key(), mode)
    }

    /// Runs the in-place inverse NTT: bit-reversed order in, natural order
    /// out, including the final `N⁻¹` scaling. Replays the cached compiled
    /// program (tracing it on first call); equivalent to
    /// [`Self::inverse_mode`] with [`ExecMode::Replay`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn inverse(&mut self) -> Result<(), BpNttError> {
        self.inverse_mode(ExecMode::Replay)
    }

    /// Inverse NTT under an explicit [`ExecMode`]; see
    /// [`Self::forward_mode`].
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn inverse_mode(&mut self, mode: ExecMode) -> Result<(), BpNttError> {
        let scale = self.mont.to_mont(self.config.params().n_inv());
        self.run_key(
            ProgramKey::Inverse {
                base: 0,
                scale_mont: scale,
            },
            mode,
        )
    }

    /// Full negacyclic polynomial multiplication on the accelerator:
    /// a thin wrapper over [`Self::run_pipeline`] with the canned
    /// [`PipelineSpec::polymul`] graph (forward both operands, pointwise
    /// with the data-driven multiplier, debt-folded scaled inverse),
    /// replaying cached compiled programs.
    ///
    /// Requires a single-tile layout with room for both operands
    /// (`2N + 6` rows).
    ///
    /// # Errors
    ///
    /// [`BpNttError::CapacityExceeded`] when the operands do not fit;
    /// otherwise propagates load/validation/simulator failures.
    pub fn polymul(&mut self, a: &[Vec<u64>], b: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline(&PipelineSpec::polymul(), ExecMode::Replay, &[a, b])
    }

    /// The retained pre-pipeline `polymul` implementation: loads both
    /// operands, derives the four program keys by hand (including the
    /// `n⁻¹·R²` inverse-scale constant that cancels the pointwise step's
    /// `R⁻¹`), and replays them back to back. Kept verbatim as the
    /// ground truth the pipeline≡legacy equivalence proptests pin
    /// [`Self::run_pipeline`] against — not part of the supported API
    /// surface.
    ///
    /// # Errors
    ///
    /// As [`Self::polymul`].
    #[doc(hidden)]
    pub fn polymul_legacy(
        &mut self,
        a: &[Vec<u64>],
        b: &[Vec<u64>],
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        let layout = self.config.layout().clone();
        let n = self.n();
        if layout.is_multi_tile() || 2 * n + layout.reserved_rows() > self.config.rows() {
            return Err(BpNttError::CapacityExceeded {
                n: 2 * n,
                capacity: self.config.rows().saturating_sub(layout.reserved_rows()),
            });
        }
        let batch = a.len().max(b.len());
        self.load_batch_at(0, a)?;
        self.load_batch_at(n, b)?;
        let fwd_a = self.program(ProgramKey::Forward { base: 0 })?;
        let fwd_b = self.program(ProgramKey::Forward { base: n as u16 })?;
        // Pointwise: c_j = â_j · b̂_j · R⁻¹ (the stray R⁻¹ is absorbed by
        // the inverse transform's scaling constant below).
        let pointwise = self.program(ProgramKey::Pointwise {
            a_base: 0,
            b_base: n as u16,
        })?;
        // Scale constant n⁻¹·R² : output = x · n⁻¹ · R, cancelling the R⁻¹
        // introduced by the pointwise step.
        let q = self.q();
        let n_inv_r2 = self.mont.to_mont(mul_mod(
            self.config.params().n_inv(),
            self.mont.r_mod_m(),
            q,
        ));
        let inv = self.program(ProgramKey::Inverse {
            base: 0,
            scale_mont: n_inv_r2,
        })?;
        self.ctl.run_compiled(&fwd_a)?;
        self.ctl.run_compiled(&fwd_b)?;
        self.ctl.run_compiled(&pointwise)?;
        self.ctl.run_compiled(&inv)?;
        self.read_batch_at(0, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_ntt::forward::ntt_in_place;
    use bpntt_ntt::inverse::intt_in_place;
    use bpntt_ntt::polymul::polymul_schoolbook;
    use bpntt_ntt::NttParams;

    fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % q
            })
            .collect()
    }

    #[test]
    fn single_tile_forward_matches_reference() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params.clone()).unwrap();
        let mut acc = BpNtt::new(cfg).unwrap();
        let lanes = acc.config().layout().lanes();
        assert_eq!(lanes, 4);
        let polys: Vec<Vec<u64>> = (0..lanes as u64).map(|s| pseudo(8, 97, s + 1)).collect();
        acc.load_batch(&polys).unwrap();
        acc.forward().unwrap();
        let got = acc.read_batch(lanes).unwrap();
        let t = TwiddleTable::new(&params);
        for (lane, p) in polys.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn single_tile_roundtrip() {
        let params = NttParams::new(16, 193).unwrap();
        let cfg = BpNttConfig::new(32, 64, 9, params).unwrap(); // 7 lanes of 9-bit tiles
        let mut acc = BpNtt::new(cfg).unwrap();
        let lanes = acc.config().layout().lanes();
        let polys: Vec<Vec<u64>> = (0..lanes as u64).map(|s| pseudo(16, 193, s + 9)).collect();
        acc.load_batch(&polys).unwrap();
        acc.forward().unwrap();
        acc.inverse().unwrap();
        assert_eq!(acc.read_batch(lanes).unwrap(), polys);
    }

    #[test]
    fn inverse_matches_reference() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params.clone()).unwrap();
        let mut acc = BpNtt::new(cfg).unwrap();
        let polys = vec![pseudo(8, 97, 5), pseudo(8, 97, 6)];
        acc.load_batch(&polys).unwrap();
        acc.inverse().unwrap();
        let got = acc.read_batch(2).unwrap();
        let t = TwiddleTable::new(&params);
        for (lane, p) in polys.iter().enumerate() {
            let mut expect = p.clone();
            intt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn multi_tile_forward_matches_reference() {
        // 16-point polynomial over 8 coefficients/tile → 2 tiles per
        // polynomial, 2 lanes on a 4-tile array.
        let params = NttParams::new(16, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params.clone()).unwrap();
        assert!(cfg.layout().is_multi_tile());
        assert_eq!(cfg.layout().coeffs_per_tile(), 8);
        assert_eq!(cfg.layout().lanes(), 2);
        let mut acc = BpNtt::new(cfg).unwrap();
        let polys = vec![pseudo(16, 97, 11), pseudo(16, 97, 22)];
        acc.load_batch(&polys).unwrap();
        acc.forward().unwrap();
        let got = acc.read_batch(2).unwrap();
        let t = TwiddleTable::new(&params);
        for (lane, p) in polys.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn multi_tile_roundtrip_deeper() {
        // 32-point over 8 coefficients/tile → 4 tiles per polynomial
        // (q = 193 ≡ 1 mod 64, fitting 9-bit words with headroom).
        let params = NttParams::new(32, 193).unwrap();
        let cfg = BpNttConfig::new(16, 72, 9, params).unwrap();
        assert_eq!(cfg.layout().tiles_per_poly(), 4);
        let mut acc = BpNtt::new(cfg).unwrap();
        let polys = vec![pseudo(32, 97, 31), pseudo(32, 97, 32)];
        acc.load_batch(&polys).unwrap();
        acc.forward().unwrap();
        acc.inverse().unwrap();
        assert_eq!(acc.read_batch(2).unwrap(), polys);
    }

    #[test]
    fn polymul_matches_schoolbook() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(32, 32, 8, params.clone()).unwrap(); // 2·8+6 ≤ 32 rows
        let mut acc = BpNtt::new(cfg).unwrap();
        let a = vec![pseudo(8, 97, 100), pseudo(8, 97, 101)];
        let b = vec![pseudo(8, 97, 200), pseudo(8, 97, 201)];
        let got = acc.polymul(&a, &b).unwrap();
        for lane in 0..2 {
            let expect = polymul_schoolbook(&params, &a[lane], &b[lane]).unwrap();
            assert_eq!(got[lane], expect, "lane {lane}");
        }
        assert_eq!(acc.cached_programs(), 4, "fwd×2 + pointwise + inverse");
    }

    #[test]
    fn load_validation() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params).unwrap();
        let mut acc = BpNtt::new(cfg).unwrap();
        assert!(matches!(
            acc.load_batch(&vec![vec![0u64; 8]; 5]),
            Err(BpNttError::BatchTooLarge { .. })
        ));
        assert!(matches!(
            acc.load_batch(&[vec![0u64; 7]]),
            Err(BpNttError::WrongLength { .. })
        ));
        assert!(matches!(
            acc.load_batch(&[vec![97u64; 8]]),
            Err(BpNttError::Unreduced { .. })
        ));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params).unwrap();
        let mut acc = BpNtt::new(cfg).unwrap();
        acc.load_batch(&[pseudo(8, 97, 1)]).unwrap();
        acc.reset_stats();
        acc.forward().unwrap();
        let s = acc.stats();
        assert!(s.cycles > 0);
        assert!(s.counts.binary > 0);
        assert!(s.energy_pj > 0.0);
        acc.reset_stats();
        assert_eq!(acc.stats().cycles, 0);
    }

    #[test]
    fn cached_replay_matches_uncached_emission() {
        // Same data, two engines: replay and strictly per-instruction
        // emission — bit-identical outputs and identical statistics.
        // `Stats` are integer class counts; `cost.rs` prices cycles and
        // energy from them on read.
        for (n, q, rows, cols, bw) in [
            (8usize, 97u64, 16usize, 32usize, 8usize),
            (16, 97, 16, 32, 8),
        ] {
            let params = NttParams::new(n, q).unwrap();
            let mk =
                || BpNtt::new(BpNttConfig::new(rows, cols, bw, params.clone()).unwrap()).unwrap();
            let lanes = mk().config().layout().lanes();
            let polys: Vec<Vec<u64>> = (0..lanes as u64).map(|s| pseudo(n, q, s + 3)).collect();

            let mut replayed = mk();
            replayed.load_batch(&polys).unwrap();
            replayed.reset_stats();
            replayed.forward().unwrap();
            replayed.inverse().unwrap();

            let mut generic = mk();
            generic.load_batch(&polys).unwrap();
            generic.reset_stats();
            generic.forward_mode(ExecMode::Generic).unwrap();
            generic.inverse_mode(ExecMode::Generic).unwrap();

            // Snapshot stats before read_batch (reads are costed).
            let (rs, gs) = (replayed.stats(), generic.stats());
            assert_eq!(
                replayed.read_batch(lanes).unwrap(),
                generic.read_batch(lanes).unwrap(),
                "n={n}"
            );
            assert_eq!(rs.cycles, gs.cycles, "n={n}");
            assert_eq!(rs.counts, gs.counts, "n={n}");
            assert_eq!(rs.row_loads, gs.row_loads, "n={n}");
            assert_eq!(rs.energy_pj.to_bits(), gs.energy_pj.to_bits(), "n={n}");
            // Replay's fast paths fired, the generic baseline never does.
            assert!(replayed.fastpath_stats().hits() > 0, "n={n}");
            assert_eq!(generic.fastpath_stats().hits(), 0, "n={n}");
        }
    }

    #[test]
    fn pipeline_polymul_matches_legacy_bit_for_bit() {
        // The canned polymul spec compiles to the exact four programs the
        // retained legacy implementation replays: rows and Stats are
        // identical (`Stats` are integer class counts; `cost.rs` prices
        // cycles and energy from them on read).
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(32, 32, 8, params).unwrap();
        let a = vec![pseudo(8, 97, 400), pseudo(8, 97, 401)];
        let b = vec![pseudo(8, 97, 500)];

        let mut legacy = BpNtt::new(cfg.clone()).unwrap();
        legacy.reset_stats();
        let legacy_out = legacy.polymul_legacy(&a, &b).unwrap();
        let ls = legacy.stats();

        for mode in ExecMode::ALL {
            let mut piped = BpNtt::new(cfg.clone()).unwrap();
            piped.reset_stats();
            let piped_out = piped
                .run_pipeline(&PipelineSpec::polymul(), mode, &[&a, &b])
                .unwrap();
            assert_eq!(piped_out, legacy_out, "{mode:?}");
            let ps = piped.stats();
            assert_eq!(ps.cycles, ls.cycles, "{mode:?}");
            assert_eq!(ps.counts, ls.counts, "{mode:?}");
            assert_eq!(ps.row_loads, ls.row_loads, "{mode:?}");
            assert_eq!(
                ps.energy_pj.to_bits(),
                ls.energy_pj.to_bits(),
                "{mode:?} energy"
            );
        }
        // And the public polymul entry point is the same pipeline.
        let mut public = BpNtt::new(cfg).unwrap();
        public.reset_stats();
        assert_eq!(public.polymul(&a, &b).unwrap(), legacy_out);
        assert_eq!(public.stats().cycles, ls.cycles);
        assert_eq!(public.cached_pipelines(), 1);
        assert_eq!(public.cached_programs(), 4, "fwd×2 + pointwise + inverse");
    }

    #[test]
    fn pipeline_debt_compensation_keeps_outputs_plain() {
        // Pointwise with no following inverse: the compiler must append
        // one R^debt compensation segment so the output is the plain
        // NTT-domain product â·b̂ (not â·b̂·R⁻¹).
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(32, 32, 8, params.clone()).unwrap();
        let a = vec![pseudo(8, 97, 600)];
        let b = vec![pseudo(8, 97, 601)];
        let spec = PipelineSpec::new()
            .input(0)
            .input(1)
            .forward(0)
            .forward(1)
            .pointwise(0, 1)
            .output(0);
        let mut acc = BpNtt::new(cfg).unwrap();
        let pipe = acc.compile_pipeline(&spec).unwrap();
        assert_eq!(pipe.segments(), 4, "3 ops + 1 appended compensation");
        let got = acc
            .run_pipeline(&spec, ExecMode::Replay, &[&a, &b])
            .unwrap();
        let t = TwiddleTable::new(&params);
        let (mut ea, mut eb) = (a[0].clone(), b[0].clone());
        ntt_in_place(&params, &t, &mut ea).unwrap();
        ntt_in_place(&params, &t, &mut eb).unwrap();
        let expect: Vec<u64> = ea
            .iter()
            .zip(&eb)
            .map(|(&x, &y)| mul_mod(x, y, 97))
            .collect();
        assert_eq!(got[0], expect);
    }

    #[test]
    fn pipeline_scale_by_and_spectral_polymul() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(32, 32, 8, params.clone()).unwrap();
        let a = vec![pseudo(8, 97, 700)];
        // ScaleBy alone: out = 3·a.
        let spec = PipelineSpec::new().input(0).scale_by(0, 3).output(0);
        let mut acc = BpNtt::new(cfg.clone()).unwrap();
        let got = acc.run_pipeline(&spec, ExecMode::Replay, &[&a]).unwrap();
        let expect: Vec<u64> = a[0].iter().map(|&x| (x * 3) % 97).collect();
        assert_eq!(got[0], expect);

        // NTT-domain caching: transform b once (resident, no output),
        // then run pointwise+inverse products against the cached
        // spectrum — one fewer operand load and two fewer transforms per
        // product than legacy polymul.
        let b = vec![pseudo(8, 97, 701)];
        let cache_spec = PipelineSpec::new().input(1).forward(1);
        let mac_spec = PipelineSpec::new()
            .input(0)
            .forward(0)
            .pointwise(0, 1)
            .inverse(0)
            .output(0);
        let mut mac = BpNtt::new(cfg).unwrap();
        assert!(mac
            .run_pipeline(&cache_spec, ExecMode::Replay, &[&b])
            .unwrap()
            .is_empty());
        for seed in [710u64, 711, 712] {
            let ai = vec![pseudo(8, 97, seed)];
            let got = mac
                .run_pipeline(&mac_spec, ExecMode::Replay, &[&ai])
                .unwrap();
            let expect = polymul_schoolbook(&params, &ai[0], &b[0]).unwrap();
            assert_eq!(got[0], expect, "seed {seed}");
        }
    }

    #[test]
    fn pipeline_saves_load_read_roundtrips() {
        // A two-stage graph in one pipeline (load once, fwd + inv, read
        // once) vs the same workload composed from fixed op shapes
        // (read the spectrum back, reload it, inverse): the pipeline does
        // at least one fewer load and one fewer read round-trip per lane.
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(32, 32, 8, params).unwrap();
        let lanes = cfg.layout().lanes();
        let polys: Vec<Vec<u64>> = (0..lanes as u64).map(|s| pseudo(8, 97, s + 800)).collect();

        let mut piped = BpNtt::new(cfg.clone()).unwrap();
        piped.reset_stats();
        let piped_out = piped
            .run_pipeline(&PipelineSpec::roundtrip(), ExecMode::Replay, &[&polys])
            .unwrap();
        let ps = piped.stats();

        let mut fixed = BpNtt::new(cfg).unwrap();
        fixed.reset_stats();
        fixed.load_batch(&polys).unwrap();
        fixed.forward().unwrap();
        let spectra = fixed.read_batch(lanes).unwrap();
        fixed.load_batch(&spectra).unwrap();
        fixed.inverse().unwrap();
        let fixed_out = fixed.read_batch(lanes).unwrap();
        let fs = fixed.stats();

        assert_eq!(piped_out, fixed_out);
        let n = 8u64;
        assert!(
            ps.row_loads + n <= fs.row_loads,
            "pipeline must save ≥ one load round-trip per lane ({} vs {})",
            ps.row_loads,
            fs.row_loads
        );
        assert!(
            ps.row_stores <= fs.row_stores,
            "pipeline must not add stores"
        );
    }

    #[test]
    fn compiled_pipeline_rejects_foreign_engines() {
        // Compiled programs embed absolute row addresses: a pipeline
        // compiled on one configuration must be rejected (typed error,
        // not a panic or silent corruption) on any other.
        let params = NttParams::new(8, 97).unwrap();
        let tall = BpNttConfig::new(32, 32, 8, params.clone()).unwrap();
        let short = BpNttConfig::new(22, 32, 8, params).unwrap();
        let mut compiler = BpNtt::new(tall).unwrap();
        let pipe = compiler.compile_pipeline(&PipelineSpec::polymul()).unwrap();
        let a = vec![pseudo(8, 97, 1)];
        let mut other = BpNtt::new(short).unwrap();
        assert!(matches!(
            other.run_compiled_pipeline(&pipe, ExecMode::Replay, &[&a, &a]),
            Err(BpNttError::InvalidPipeline { .. })
        ));
    }

    #[test]
    fn pipeline_validation_is_typed() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params).unwrap(); // one slot only
        let mut acc = BpNtt::new(cfg).unwrap();
        assert!(matches!(
            acc.run_pipeline(&PipelineSpec::polymul(), ExecMode::Replay, &[&[], &[]]),
            Err(BpNttError::CapacityExceeded { .. })
        ));
        assert!(matches!(
            acc.run_pipeline(&PipelineSpec::new().output(0), ExecMode::Replay, &[]),
            Err(BpNttError::InvalidPipeline { .. })
        ));
        // Batch count must match declared inputs.
        assert!(matches!(
            acc.run_pipeline(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[]),
            Err(BpNttError::InvalidPipeline { .. })
        ));
    }

    #[test]
    fn program_cache_fills_and_invalidates() {
        let params = NttParams::new(8, 97).unwrap();
        let cfg = BpNttConfig::new(16, 32, 8, params).unwrap();
        let mut acc = BpNtt::new(cfg.clone()).unwrap();
        assert_eq!(acc.cached_programs(), 0);
        acc.load_batch(&[pseudo(8, 97, 1)]).unwrap();
        acc.forward().unwrap();
        assert_eq!(acc.cached_programs(), 1);
        acc.forward().unwrap();
        assert_eq!(acc.cached_programs(), 1, "second call hits the cache");
        acc.inverse().unwrap();
        assert_eq!(acc.cached_programs(), 2);
        // Programs carry no cost model: a new timing model keeps them.
        acc.set_timing_model(bpntt_sram::TimingModel::conservative());
        assert_eq!(acc.cached_programs(), 2, "programs survive a timing change");
        acc.load_batch(&[pseudo(8, 97, 1)]).unwrap();
        acc.reset_stats();
        acc.forward().unwrap();
        assert_eq!(acc.cached_programs(), 2);

        let mut fresh = BpNtt::new(cfg).unwrap();
        fresh.set_timing_model(bpntt_sram::TimingModel::conservative());
        fresh.load_batch(&[pseudo(8, 97, 1)]).unwrap();
        fresh.reset_stats();
        fresh.forward().unwrap();
        assert_eq!(acc.stats(), fresh.stats(), "priced under the new model");
    }

    /// Every recorded op lowers to one control entry that holds one
    /// static entry: at the 518×256/24 Dilithium geometry a forward NTT is
    /// 1024 butterflies of one multiply and three epilogues, an inverse
    /// adds one copy per butterfly, and its last stage scales each `lo`
    /// row with one multiply plus finish (the `hi` rows take the scale
    /// with their twiddle): 5 × 1024 + 2 × 128.
    #[test]
    fn compiled_programs_hold_one_static_entry_per_control_entry() {
        let params = NttParams::new(256, 8_380_417).unwrap();
        let mut acc = BpNtt::new(BpNttConfig::new(518, 256, 24, params).unwrap()).unwrap();
        let forward = acc.compiled_forward().unwrap();
        let inverse = acc.compiled_inverse().unwrap();
        assert_eq!((forward.control_len(), forward.static_len()), (4096, 4096));
        assert_eq!((inverse.control_len(), inverse.static_len()), (5376, 5376));
    }

    /// Only a multiplier row's add-B step spends an explicit `Shift`: at
    /// the 518×256/24 Dilithium geometry the forward NTT (constant
    /// twiddles) records none, and a polymul batch exactly `N·w`, from
    /// the pointwise products' `N` row multiplies of `w` bits each.
    #[test]
    fn explicit_shifts_come_only_from_row_multipliers() {
        let (n, q) = (256, 8_380_417);
        let params = NttParams::new(n, q).unwrap();
        let mut acc = BpNtt::new(BpNttConfig::new(518, 256, 24, params).unwrap()).unwrap();
        let lanes = acc.config().layout().lanes();
        let a: Vec<Vec<u64>> = (0..lanes).map(|s| pseudo(n, q, s as u64)).collect();
        let b: Vec<Vec<u64>> = (0..lanes).map(|s| pseudo(n, q, 99 + s as u64)).collect();
        acc.load_batch(&a).unwrap();
        acc.reset_stats();
        acc.forward().unwrap();
        assert_eq!(acc.stats().counts.shift, 0, "forward NTT");
        acc.reset_stats();
        acc.polymul(&a, &b).unwrap();
        assert_eq!(acc.stats().counts.shift, (n * 24) as u64, "polymul batch");
    }
}

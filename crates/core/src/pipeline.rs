//! Composable op-graph pipelines: the single entry point for whole
//! workloads (paper Table 3 scores *polynomial multiplication* — forward,
//! forward, pointwise, inverse — end to end, not isolated transforms).
//!
//! A [`PipelineSpec`] describes a computation over up to
//! `⌊(rows − reserved) / N⌋` on-array operand regions ("slots", slot `s`
//! based at coefficient row `s·N`) as an ordered list of [`PipeOp`]s:
//!
//! * [`PipeOp::Forward`] / [`PipeOp::Inverse`] — the in-place NTT pair on
//!   one slot. The transforms are natively **negacyclic** (the ψ-folded
//!   twiddle schedule performs the wrap/unwrap), so no explicit
//!   negacyclic ops exist: `Inverse ∘ Pointwise ∘ Forward²` *is* the
//!   negacyclic product.
//! * [`PipeOp::Pointwise`] — `dst ← dst · src · R⁻¹` coefficient-wise
//!   (the data-driven bit-parallel multiplier; `src` is left intact, so a
//!   spectrum can be reused across calls — NTT-domain caching).
//! * [`PipeOp::ScaleBy`] — `slot ← slot · factor` for a compile-time
//!   constant factor.
//!
//! # The Montgomery-debt contract
//!
//! Each data-driven multiplication leaves a stray `R⁻¹` (Montgomery
//! residue) on its destination slot. The compiler **never emits
//! correction steps eagerly**: it tracks the accumulated debt per slot
//! (`Pointwise` on `dst` adds `debt(src) + 1`) and folds the
//! compensating `R^debt` into the *next* constant multiplication on that
//! slot — the `N⁻¹` scaling of an `Inverse`, or a `ScaleBy` — in the
//! spirit of Harvey's precomputed-quotient NTT arithmetic (the same
//! philosophy behind the Shoup multiplies in `bpntt-modmath`). If the
//! output slot still carries debt when the graph ends, one final scale
//! segment by `R^debt` is appended so pipeline outputs are *always* in
//! the plain residue domain. A canned [`PipelineSpec::polymul`] therefore
//! compiles to exactly the four programs legacy
//! [`BpNtt::polymul`](crate::BpNtt::polymul) replays — same cache keys,
//! same instruction streams, bit-identical rows and
//! [`Stats`](bpntt_sram::Stats).
//!
//! # Compilation, caching, and the segment-boundary contract
//!
//! [`BpNtt::compile_pipeline`](crate::BpNtt::compile_pipeline) lowers a
//! spec into a [`CompiledPipeline`]: an ordered list of
//! `Arc<CompiledProgram>` **segments**, one per op (plus at most one
//! appended debt-compensation scale). Segment boundaries are exactly op
//! boundaries — an op never spans two segments and no instruction
//! reordering crosses an op boundary — so a pipeline execution is
//! indistinguishable (rows *and* `Stats`) from running the constituent
//! fixed-shape entry points back to back on resident data. `Stats` are
//! integer class counts; `cost.rs` prices cycles and energy from them on
//! read. Segments and pipelines live in one
//! [`ArtifactCache`](crate::ArtifactCache) keyed by
//! `(configuration, ProgramKey)` and `(configuration, spec)`: segments are shared between
//! pipelines and the legacy entry points, and the cache itself is shared
//! by `Arc` across [`ShardedBpNtt`](crate::ShardedBpNtt) shards and
//! [`NttService`](crate::NttService) tenants.
//!
//! In-SRAM data movement *between* segments is the point of the design:
//! operands are loaded once before the first segment and results read
//! once after the last, so a multi-op graph saves one full
//! load/read round-trip per lane per intermediate op compared with
//! composing the fixed op shapes through `load_batch`/`read_batch`.
//!
//! # Execution modes
//!
//! Every pipeline (and every legacy entry point) executes under one of
//! two [`ExecMode`]s:
//!
//! * [`ExecMode::Replay`] — replay the cached compiled segments (the
//!   production path: no codegen, no validation, no per-instruction cost
//!   evaluation).
//! * [`ExecMode::Generic`] — strictly per-instruction emission, the
//!   oracle the equivalence proptests pin replay against.
//!
//! # Sharing
//!
//! A [`CompiledPipeline`] produced on one engine executes unchanged on
//! any other engine of the same configuration (fingerprint-checked), so
//! every shard and tenant replays one plan from the shared
//! [`ArtifactCache`](crate::ArtifactCache).
//!
//! # Example
//!
//! ```
//! use bpntt_core::{BpNtt, BpNttConfig, ExecMode, PipelineSpec};
//! use bpntt_ntt::NttParams;
//!
//! // 2·8 + 6 rows: two operand slots on one tile.
//! let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97)?)?;
//! let mut acc = BpNtt::new(cfg)?;
//! let a = vec![vec![1u64, 2, 3, 4, 5, 6, 7, 8]];
//! let b = vec![vec![8u64, 7, 6, 5, 4, 3, 2, 1]];
//! // The canned negacyclic-product graph: fwd, fwd, pointwise, inverse.
//! let spec = PipelineSpec::polymul();
//! let products = acc.run_pipeline(&spec, ExecMode::Replay, &[&a, &b])?;
//! assert_eq!(products.len(), 1);
//! # Ok::<(), bpntt_core::BpNttError>(())
//! ```

use std::sync::Arc;

use crate::engine::ProgramKey;
use crate::error::BpNttError;
use crate::layout::Layout;
use bpntt_sram::CompiledProgram;

/// How a pipeline (or a legacy fixed-shape entry point) executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Replay the cached compiled program(s) — the production path.
    #[default]
    Replay,
    /// Per-call code generation with strictly per-instruction execution —
    /// the oracle the replay-equivalence tests pin `Replay` against.
    Generic,
}

impl ExecMode {
    /// Both modes, for equivalence sweeps.
    pub const ALL: [ExecMode; 2] = [ExecMode::Replay, ExecMode::Generic];
}

/// One node of a pipeline op-graph. Slots are on-array operand regions:
/// slot `s` occupies coefficient rows `s·N .. (s+1)·N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeOp {
    /// In-place forward (negacyclic) NTT of one slot.
    Forward {
        /// Operand slot.
        slot: u8,
    },
    /// In-place inverse NTT of one slot, including the `N⁻¹` scaling
    /// (with any accumulated Montgomery debt folded into the constant).
    Inverse {
        /// Operand slot.
        slot: u8,
    },
    /// Coefficient-wise product `dst ← dst · src · R⁻¹` (data-driven
    /// multiplier). `src` is left intact; the `R⁻¹` is tracked as debt
    /// and compensated later (see the module docs).
    Pointwise {
        /// Destination slot (accumulates the product and the debt).
        dst: u8,
        /// Source slot (unchanged — reusable as a cached spectrum).
        src: u8,
    },
    /// Multiply every coefficient of a slot by a compile-time constant:
    /// `slot ← slot · factor mod q` (`factor` must be reduced).
    ScaleBy {
        /// Operand slot.
        slot: u8,
        /// The (reduced) constant factor.
        factor: u64,
    },
}

impl PipeOp {
    /// Every slot this op references.
    fn slots(self) -> [Option<u8>; 2] {
        match self {
            PipeOp::Forward { slot } | PipeOp::Inverse { slot } | PipeOp::ScaleBy { slot, .. } => {
                [Some(slot), None]
            }
            PipeOp::Pointwise { dst, src } => [Some(dst), Some(src)],
        }
    }
}

/// A described computation: which slots are loaded from caller batches,
/// the ordered op-graph, and which slot is read back. The spec is the
/// cache key: the [`ArtifactCache`](crate::ArtifactCache) holds one
/// [`CompiledPipeline`] per `(configuration, spec)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PipelineSpec {
    ops: Vec<PipeOp>,
    inputs: Vec<u8>,
    output: Option<u8>,
}

impl PipelineSpec {
    /// An empty spec; chain builder calls to describe the graph.
    #[must_use]
    pub fn new() -> Self {
        PipelineSpec::default()
    }

    /// Declares a slot loaded from a caller-supplied batch (in call
    /// order: the i-th `input` consumes the i-th batch passed to
    /// [`BpNtt::run_pipeline`](crate::BpNtt::run_pipeline)). Slots never
    /// declared as inputs start with whatever the array holds — zeroes
    /// on a fresh engine, or a spectrum a previous pipeline left behind
    /// (NTT-domain caching).
    #[must_use]
    pub fn input(mut self, slot: u8) -> Self {
        self.inputs.push(slot);
        self
    }

    /// Appends a forward NTT of `slot`.
    #[must_use]
    pub fn forward(mut self, slot: u8) -> Self {
        self.ops.push(PipeOp::Forward { slot });
        self
    }

    /// Appends an inverse NTT of `slot` (debt-folded `N⁻¹` scaling).
    #[must_use]
    pub fn inverse(mut self, slot: u8) -> Self {
        self.ops.push(PipeOp::Inverse { slot });
        self
    }

    /// Appends `dst ← dst · src · R⁻¹` (tracked as Montgomery debt).
    #[must_use]
    pub fn pointwise(mut self, dst: u8, src: u8) -> Self {
        self.ops.push(PipeOp::Pointwise { dst, src });
        self
    }

    /// Appends `slot ← slot · factor`.
    #[must_use]
    pub fn scale_by(mut self, slot: u8, factor: u64) -> Self {
        self.ops.push(PipeOp::ScaleBy { slot, factor });
        self
    }

    /// Declares the slot read back after the last op.
    #[must_use]
    pub fn output(mut self, slot: u8) -> Self {
        self.output = Some(slot);
        self
    }

    /// Canned spec: one forward NTT (`submit_forward`, `forward_batch`).
    #[must_use]
    pub fn forward_ntt() -> Self {
        PipelineSpec::new().input(0).forward(0).output(0)
    }

    /// Canned spec: forward + inverse roundtrip on one slot.
    #[must_use]
    pub fn roundtrip() -> Self {
        PipelineSpec::new().input(0).forward(0).inverse(0).output(0)
    }

    /// Canned spec: the full negacyclic product (Table 3's workload) —
    /// forward both operands, pointwise, scaled inverse. Compiles to the
    /// exact four programs legacy `polymul` replays.
    #[must_use]
    pub fn polymul() -> Self {
        PipelineSpec::new()
            .input(0)
            .input(1)
            .forward(0)
            .forward(1)
            .pointwise(0, 1)
            .inverse(0)
            .output(0)
    }

    /// Canned spec: negacyclic product of two operands *already in the
    /// NTT domain* — pointwise + scaled inverse only. The NTT-domain
    /// caching workload: transform a reused operand once, then skip both
    /// forward transforms (and one operand reload) on every product.
    #[must_use]
    pub fn polymul_spectral() -> Self {
        PipelineSpec::new()
            .input(0)
            .input(1)
            .pointwise(0, 1)
            .inverse(0)
            .output(0)
    }

    /// The op-graph, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[PipeOp] {
        &self.ops
    }

    /// Slots loaded from caller batches, in load order.
    #[must_use]
    pub fn input_slots(&self) -> &[u8] {
        &self.inputs
    }

    /// The slot read back, if any.
    #[must_use]
    pub fn output_slot(&self) -> Option<u8> {
        self.output
    }

    /// Number of slots the spec references (`1 + max slot`), or 0 for a
    /// spec referencing none.
    #[must_use]
    pub fn slots(&self) -> usize {
        let mut max: Option<u8> = None;
        let mut see = |s: u8| max = Some(max.map_or(s, |m: u8| m.max(s)));
        for op in &self.ops {
            for s in op.slots().into_iter().flatten() {
                see(s);
            }
        }
        for &s in &self.inputs {
            see(s);
        }
        if let Some(s) = self.output {
            see(s);
        }
        max.map_or(0, |m| usize::from(m) + 1)
    }

    /// Static validation against a layout and modulus: op-graph sanity
    /// (non-empty, distinct inputs, `Pointwise` self-product, reduced
    /// `ScaleBy` factors) and slot capacity (`slots·N` coefficient rows
    /// must fit, on a single tile once more than one slot is involved).
    /// Shared by engine compilation and service submit-time validation,
    /// so a bad request fails its own submission with a typed error
    /// instead of poisoning a dispatcher wave.
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidPipeline`] for graph defects,
    /// [`BpNttError::CapacityExceeded`] when the slots do not fit.
    pub fn check(&self, layout: &Layout, q: u64) -> Result<(), BpNttError> {
        if self.ops.is_empty() {
            return Err(BpNttError::InvalidPipeline {
                reason: "pipeline has no operations".into(),
            });
        }
        for op in &self.ops {
            match *op {
                PipeOp::Pointwise { dst, src } if dst == src => {
                    return Err(BpNttError::InvalidPipeline {
                        reason: format!("pointwise self-product on slot {dst}"),
                    });
                }
                PipeOp::ScaleBy { factor, .. } if factor >= q => {
                    return Err(BpNttError::InvalidPipeline {
                        reason: format!("scale factor {factor} is not reduced modulo {q}"),
                    });
                }
                _ => {}
            }
        }
        for (i, &s) in self.inputs.iter().enumerate() {
            if self.inputs[..i].contains(&s) {
                return Err(BpNttError::InvalidPipeline {
                    reason: format!("slot {s} declared as input twice"),
                });
            }
        }
        let slots = self.slots();
        let n = layout.n();
        let capacity = layout.rows().saturating_sub(layout.reserved_rows());
        // Multi-tile layouts hold exactly one operand (the layout already
        // validated that it fits across its tiles); single-tile layouts
        // hold one slot per `n` coefficient rows.
        if (layout.is_multi_tile() && slots > 1)
            || (!layout.is_multi_tile() && slots * n > capacity)
        {
            return Err(BpNttError::CapacityExceeded {
                n: slots * n,
                capacity,
            });
        }
        Ok(())
    }
}

/// One compiled segment: the program key it was compiled under and the
/// shared compiled program.
#[derive(Debug, Clone)]
pub(crate) struct PipelineSegment {
    pub(crate) key: ProgramKey,
    pub(crate) program: Arc<CompiledProgram>,
}

/// The configuration a pipeline was compiled against. Compiled programs
/// embed absolute row addresses and tile geometry, so executing a
/// pipeline on a differently configured engine must be rejected with a
/// typed error — not replayed onto rows that don't exist (panic) or
/// silently land on the wrong data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConfigFingerprint {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) bitwidth: usize,
    pub(crate) n: usize,
    pub(crate) q: u64,
}

impl ConfigFingerprint {
    pub(crate) fn of(config: &crate::config::BpNttConfig) -> Self {
        ConfigFingerprint {
            rows: config.rows(),
            cols: config.cols(),
            bitwidth: config.bitwidth(),
            n: config.params().n(),
            q: config.params().modulus(),
        }
    }
}

/// A spec lowered against one `(params, layout)`: the ordered compiled
/// segments (one per op, plus at most one appended Montgomery-debt
/// compensation scale — see the [module docs](self)). Engine-independent
/// once built: programs reference row addresses and the default cost
/// model only, so one compilation is shared behind an `Arc` across
/// [`ShardedBpNtt`](crate::ShardedBpNtt) shards and across identically
/// configured [`NttService`](crate::NttService) tenants.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    pub(crate) spec: PipelineSpec,
    pub(crate) segments: Vec<PipelineSegment>,
    /// The configuration this pipeline is valid for (checked at
    /// execution time).
    pub(crate) fingerprint: ConfigFingerprint,
}

impl CompiledPipeline {
    /// The spec this pipeline was compiled from (the cache key).
    #[must_use]
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Number of compiled segments (ops plus any appended debt
    /// compensation).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Total typed ops (multiplies and epilogues) across every segment's
    /// compiled program, aggregated the same way
    /// `CompiledProgram::fused_ops` reports it per schedule.
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.segments.iter().map(|s| s.program.fused_ops()).sum()
    }

    /// Coefficients per polynomial (the slot stride in rows).
    #[must_use]
    pub fn n(&self) -> usize {
        self.fingerprint.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(rows: usize, n: usize) -> Layout {
        Layout::new(rows, 32, 8, n).unwrap()
    }

    #[test]
    fn canned_specs_have_expected_shape() {
        let p = PipelineSpec::polymul();
        assert_eq!(p.ops().len(), 4);
        assert_eq!(p.input_slots(), &[0, 1]);
        assert_eq!(p.output_slot(), Some(0));
        assert_eq!(p.slots(), 2);
        assert_eq!(PipelineSpec::forward_ntt().slots(), 1);
        assert_eq!(PipelineSpec::polymul_spectral().ops().len(), 2);
    }

    #[test]
    fn check_rejects_graph_defects() {
        let l = layout(32, 8);
        assert!(matches!(
            PipelineSpec::new().check(&l, 97),
            Err(BpNttError::InvalidPipeline { .. })
        ));
        assert!(matches!(
            PipelineSpec::new().pointwise(1, 1).check(&l, 97),
            Err(BpNttError::InvalidPipeline { .. })
        ));
        assert!(matches!(
            PipelineSpec::new().scale_by(0, 97).check(&l, 97),
            Err(BpNttError::InvalidPipeline { .. })
        ));
        assert!(matches!(
            PipelineSpec::new()
                .input(0)
                .input(0)
                .forward(0)
                .check(&l, 97),
            Err(BpNttError::InvalidPipeline { .. })
        ));
    }

    #[test]
    fn check_enforces_slot_capacity() {
        // 32 rows, n=8: capacity 26 points → 3 slots fit, 4 do not.
        let l = layout(32, 8);
        assert!(PipelineSpec::new()
            .forward(0)
            .pointwise(0, 2)
            .check(&l, 97)
            .is_ok());
        assert!(matches!(
            PipelineSpec::new().forward(3).check(&l, 97),
            Err(BpNttError::CapacityExceeded {
                n: 32,
                capacity: 26
            })
        ));
        // 16 rows: one slot only — polymul cannot fit.
        let tight = layout(16, 8);
        assert!(PipelineSpec::forward_ntt().check(&tight, 97).is_ok());
        assert!(matches!(
            PipelineSpec::polymul().check(&tight, 97),
            Err(BpNttError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn check_rejects_multi_slot_on_multi_tile() {
        // 16-point over 8 coefficients/tile → multi-tile.
        let l = Layout::new(16, 32, 8, 16).unwrap();
        assert!(l.is_multi_tile());
        assert!(PipelineSpec::forward_ntt().check(&l, 97).is_ok());
        assert!(matches!(
            PipelineSpec::polymul().check(&l, 97),
            Err(BpNttError::CapacityExceeded { .. })
        ));
    }
}

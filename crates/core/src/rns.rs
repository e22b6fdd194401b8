//! RNS execution: fanning residue limbs across sharded engines.
//!
//! [`bpntt_rns`] supplies the math — validated prime bases, big-integer
//! coefficients, CRT decompose/reconstruct. This module supplies the
//! execution: an [`RnsContext`] owns one [`ShardedBpNtt`] **per limb
//! prime**, carved out of a single shard budget, and runs all limbs of
//! a big-modulus request concurrently as one *RNS wave*.
//!
//! # Why one engine per limb (and not mixed-prime chunks)
//!
//! Compiled programs, the fused word-engine emitters, and the generic
//! executor are all specialized to a single modulus `q` — an engine's
//! kernels bake `q` into the instruction stream. Chunks of different
//! primes therefore cannot share one physical shard set; what *can* be
//! shared is the wall-clock window. Limbs are embarrassingly parallel
//! (no cross-limb data flow until CRT reconstruction), so the context
//! splits its shard budget `S` into `⌊S/L⌋` shards per limb and fans
//! the limbs out with scoped threads. A single-limb request leaves
//! `S−⌊S/L⌋·1`-ish of the budget idle; an L-limb request fills `L`
//! slices of it at once — exactly the wave-occupancy gap the service
//! benchmarks keep reporting.
//!
//! # Plan sharing
//!
//! Every limb engine of a context compiles through one
//! [`ArtifactCache`], which keys each compiled pipeline by
//! `(configuration, spec)` — the limb prime is part of the
//! configuration. Hand the same cache to sibling contexts
//! ([`RnsContext::with_plan_cache`]) and a basis (or overlapping bases)
//! compiles each limb's plan once; later contexts look the `Arc` up.
//! It is the same cache type the service shares across its tenants.

use std::sync::Arc;
use std::time::Instant;

use bpntt_rns::{BigUint, RnsBasis, RnsError};
use bpntt_sram::FaultPlan;

use crate::artifacts::ArtifactCache;
use crate::config::BpNttConfig;
use crate::error::BpNttError;
use crate::pipeline::{ExecMode, PipelineSpec};
use crate::sharded::{RecoveryOptions, RecoveryReport, ShardedBpNtt};

/// The execution engine an [`RnsContext`] runs on. [`BpNtt`](crate::BpNtt)
/// is the only one, so the value is ignored. The type survives only
/// because the `perfbench` harness, which changes only together with the
/// benchmark definition, passes [`BackendKind::Sim`] to
/// [`RnsContext::new`]; it goes, with that argument, when `perfbench` is
/// next edited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The cost-accounted SRAM simulator (the paper's accelerator model).
    #[default]
    Sim,
}

/// What one RNS wave looked like: how full the shard budget was and
/// where the time went.
#[derive(Debug, Clone, Default)]
pub struct RnsWaveReport {
    /// Shards that claimed work, summed over limbs.
    pub participating: usize,
    /// Total shards across all limb engines (the budget).
    pub capacity: usize,
    /// `participating / capacity` — the fan-out occupancy.
    pub occupancy: f64,
    /// Wall-clock seconds of the whole fan-out (decompose and
    /// reconstruction excluded; this is the engine window).
    pub wall_secs: f64,
    /// Per-limb wall-clock estimate: the slowest shard of each limb.
    pub limb_secs: Vec<f64>,
}

/// Executes big-modulus polynomial pipelines by RNS limb fan-out.
///
/// One sharded engine per limb prime, all sharing a geometry;
/// [`run_rns_batch`](Self::run_rns_batch) decomposes
/// big-integer inputs, runs every limb concurrently, and CRT-recombines
/// the outputs. See the module docs for the design rationale.
#[derive(Debug)]
pub struct RnsContext {
    basis: Arc<RnsBasis>,
    engines: Vec<ShardedBpNtt>,
    cache: Arc<ArtifactCache>,
    last_wave: RnsWaveReport,
}

impl RnsContext {
    /// Builds a context with a private artifact cache. `shards_total` is the
    /// whole budget; each of the `L` limbs gets `max(1, shards_total/L)`
    /// shards. `backend` is ignored (see [`BackendKind`]).
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures — e.g.
    /// [`BpNttError::NoHeadroom`] when a limb prime does not fit
    /// `bitwidth`-bit words with a spare bit.
    pub fn new(
        basis: Arc<RnsBasis>,
        rows: usize,
        cols: usize,
        bitwidth: usize,
        shards_total: usize,
        _backend: BackendKind,
    ) -> Result<Self, BpNttError> {
        Self::with_plan_cache(basis, rows, cols, bitwidth, shards_total, Arc::default())
    }

    /// As [`new`](Self::new), but compiling through `cache`, shared with
    /// other contexts so repeated limb primes reuse compiled plans
    /// instead of recompiling.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_plan_cache(
        basis: Arc<RnsBasis>,
        rows: usize,
        cols: usize,
        bitwidth: usize,
        shards_total: usize,
        cache: Arc<ArtifactCache>,
    ) -> Result<Self, BpNttError> {
        let limbs = basis.limbs();
        let shards_per_limb = (shards_total / limbs).max(1);
        let engines = basis
            .params()
            .iter()
            .map(|p| {
                let cfg = BpNttConfig::new(rows, cols, bitwidth, p.clone())?;
                ShardedBpNtt::with_artifacts(&cfg, shards_per_limb, Arc::clone(&cache))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RnsContext {
            basis,
            engines,
            cache,
            last_wave: RnsWaveReport::default(),
        })
    }

    /// The basis this context executes over.
    #[must_use]
    pub fn basis(&self) -> &Arc<RnsBasis> {
        &self.basis
    }

    /// Number of limbs `L`.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.engines.len()
    }

    /// Shards per limb engine.
    #[must_use]
    pub fn shards_per_limb(&self) -> usize {
        self.engines[0].shards()
    }

    /// Total shards across all limb engines.
    #[must_use]
    pub fn shards_total(&self) -> usize {
        self.engines.iter().map(ShardedBpNtt::shards).sum()
    }

    /// The artifact cache every limb engine compiles through (hand it to
    /// sibling contexts).
    #[must_use]
    pub fn plan_cache(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }

    /// One limb's engine, for inspection (stats, recovery reports).
    ///
    /// # Panics
    ///
    /// Panics if `limb` is out of range.
    #[must_use]
    pub fn engine(&self, limb: usize) -> &ShardedBpNtt {
        &self.engines[limb]
    }

    /// Configures the detect→retry→quarantine→degrade ladder on every
    /// limb engine.
    pub fn set_recovery(&mut self, opts: RecoveryOptions) {
        for e in &mut self.engines {
            e.set_recovery(opts);
        }
    }

    /// Installs a fault plan on one limb's shards (chaos drills corrupt
    /// a single limb; the others stay clean).
    ///
    /// # Panics
    ///
    /// Panics if `limb` is out of range.
    pub fn install_fault_plan_on_limb(&mut self, limb: usize, plan: &FaultPlan) {
        self.engines[limb].install_fault_plan(plan);
    }

    /// Clears fault plans on every limb engine.
    pub fn clear_fault_plans(&mut self) {
        for e in &mut self.engines {
            let _ = e.clear_fault_plans();
        }
    }

    /// One limb's recovery report for its most recent wave.
    ///
    /// # Panics
    ///
    /// Panics if `limb` is out of range.
    #[must_use]
    pub fn last_recovery(&self, limb: usize) -> &RecoveryReport {
        self.engines[limb].last_recovery()
    }

    /// The most recent RNS wave's occupancy/timing report.
    #[must_use]
    pub fn last_wave(&self) -> &RnsWaveReport {
        &self.last_wave
    }

    /// Ensures the cache holds a compiled pipeline for `spec` on every
    /// limb, compiling only the ones no engine sharing the cache has
    /// compiled yet. Idempotent; called automatically by the run methods.
    ///
    /// # Errors
    ///
    /// Propagates pipeline validation/compilation failures.
    pub fn compile(&mut self, spec: &PipelineSpec) -> Result<(), BpNttError> {
        for engine in &mut self.engines {
            engine.compile(spec)?;
        }
        Ok(())
    }

    /// Runs one big-modulus pipeline over a batch, limbs fanned out
    /// concurrently. `inputs` is slot-major like
    /// [`ShardedBpNtt::run_pipeline_batch`]: one batch of degree-`n`
    /// big-integer polynomials (coefficients `< Q`) per declared input
    /// slot, all batches of equal length. Returns the output batch,
    /// CRT-reconstructed to coefficients `< Q`.
    ///
    /// # Errors
    ///
    /// [`BpNttError::Rns`] for decomposition failures (wrong length,
    /// unreduced coefficients); otherwise the first limb failure, after
    /// every limb has stopped.
    pub fn run_rns_batch(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<BigUint>]],
    ) -> Result<Vec<Vec<BigUint>>, BpNttError> {
        self.compile(spec)?;
        let limb_inputs = self.decompose_slots(inputs)?;
        let limbs = self.engines.len();

        // Fan out: scoped threads, one per limb, each owning a disjoint
        // &mut engine. The scope joins everything even on error.
        let t0 = Instant::now();
        let mut results: Vec<Option<Result<Vec<Vec<u64>>, BpNttError>>> =
            (0..limbs).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((engine, slots), out) in self
                .engines
                .iter_mut()
                .zip(&limb_inputs)
                .zip(results.iter_mut())
            {
                scope.spawn(move || {
                    let slot_refs: Vec<&[Vec<u64>]> = slots.iter().map(Vec::as_slice).collect();
                    *out = Some(engine.run_pipeline_batch(spec, mode, &slot_refs));
                });
            }
        });
        let wall_secs = t0.elapsed().as_secs_f64();

        let participating: usize = self
            .engines
            .iter()
            .map(|e| e.last_wave_shard_secs().len())
            .sum();
        let capacity = self.shards_total();
        self.last_wave = RnsWaveReport {
            participating,
            capacity,
            occupancy: participating as f64 / capacity as f64,
            wall_secs,
            limb_secs: self
                .engines
                .iter()
                .map(|e| e.last_wave_shard_secs().iter().copied().fold(0.0, f64::max))
                .collect(),
        };

        let mut limb_outputs = Vec::with_capacity(limbs);
        for r in results {
            limb_outputs.push(r.expect("every limb thread ran")?);
        }
        self.reconstruct_batch(limb_outputs)
    }

    /// As [`run_rns_batch`](Self::run_rns_batch) but with the limbs run
    /// one after another on the same engines — the sequential baseline
    /// the bench compares fan-out against. Results are identical.
    ///
    /// # Errors
    ///
    /// As [`run_rns_batch`](Self::run_rns_batch).
    pub fn run_limbs_sequential(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<BigUint>]],
    ) -> Result<Vec<Vec<BigUint>>, BpNttError> {
        self.compile(spec)?;
        let limb_inputs = self.decompose_slots(inputs)?;
        let t0 = Instant::now();
        let mut limb_outputs = Vec::with_capacity(self.engines.len());
        let mut limb_secs = Vec::with_capacity(self.engines.len());
        let mut participating = 0usize;
        for (engine, slots) in self.engines.iter_mut().zip(&limb_inputs) {
            let slot_refs: Vec<&[Vec<u64>]> = slots.iter().map(Vec::as_slice).collect();
            limb_outputs.push(engine.run_pipeline_batch(spec, mode, &slot_refs)?);
            // Sequential limbs never overlap, so the budget-wide view
            // only ever sees one limb's shards busy at a time.
            participating = participating.max(engine.last_wave_shard_secs().len());
            limb_secs.push(
                engine
                    .last_wave_shard_secs()
                    .iter()
                    .copied()
                    .fold(0.0, f64::max),
            );
        }
        let capacity = self.shards_total();
        self.last_wave = RnsWaveReport {
            participating,
            capacity,
            occupancy: participating as f64 / capacity as f64,
            wall_secs: t0.elapsed().as_secs_f64(),
            limb_secs,
        };
        self.reconstruct_batch(limb_outputs)
    }

    /// Single-request convenience: one polynomial per input slot.
    ///
    /// # Errors
    ///
    /// As [`run_rns_batch`](Self::run_rns_batch).
    pub fn run_rns(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[Vec<BigUint>],
    ) -> Result<Vec<BigUint>, BpNttError> {
        let slot_batches: Vec<Vec<Vec<BigUint>>> =
            inputs.iter().map(|poly| vec![poly.clone()]).collect();
        let slot_refs: Vec<&[Vec<BigUint>]> = slot_batches.iter().map(Vec::as_slice).collect();
        let mut out = self.run_rns_batch(spec, mode, &slot_refs)?;
        Ok(out.pop().expect("batch of one yields one output"))
    }

    /// Decomposes slot-major big-integer batches into per-limb
    /// slot-major residue batches: result `[limb][slot][batch_item]`.
    fn decompose_slots(
        &self,
        inputs: &[&[Vec<BigUint>]],
    ) -> Result<Vec<Vec<Vec<Vec<u64>>>>, RnsError> {
        let limbs = self.basis.limbs();
        let mut out = vec![vec![Vec::new(); inputs.len()]; limbs];
        for (slot, batch) in inputs.iter().enumerate() {
            for poly in batch.iter() {
                let residues = self.basis.decompose_poly(poly)?;
                for (limb, residue_poly) in residues.into_iter().enumerate() {
                    out[limb][slot].push(residue_poly);
                }
            }
        }
        Ok(out)
    }

    /// CRT-recombines batch-major limb outputs into big coefficients.
    fn reconstruct_batch(
        &self,
        limb_outputs: Vec<Vec<Vec<u64>>>,
    ) -> Result<Vec<Vec<BigUint>>, BpNttError> {
        let batch = limb_outputs.first().map_or(0, Vec::len);
        let mut out = Vec::with_capacity(batch);
        let mut point = Vec::with_capacity(self.basis.limbs());
        for b in 0..batch {
            point.clear();
            for limb in &limb_outputs {
                point.push(limb[b].clone());
            }
            out.push(self.basis.reconstruct_poly(&point)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_rns::reference;

    const N: usize = 64;
    /// 14-bit primes ≡ 1 mod 1024, so valid for any n ≤ 512.
    const PRIMES: [u64; 3] = [12289, 13313, 15361];

    fn ctx(shards_total: usize) -> RnsContext {
        let basis = Arc::new(RnsBasis::new(N, &PRIMES).unwrap());
        RnsContext::new(basis, 140, 128, 16, shards_total, BackendKind::Sim).unwrap()
    }

    fn test_polys(seed: u64, basis: &RnsBasis) -> Vec<BigUint> {
        // Deterministic pseudo-random coefficients below Q.
        let modulus = basis.modulus();
        (0..basis.n())
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                BigUint::from_u64(x).rem(modulus)
            })
            .collect()
    }

    #[test]
    fn rns_polymul_matches_bigint_reference() {
        let mut ctx = ctx(6);
        let a = test_polys(1, ctx.basis());
        let b = test_polys(2, ctx.basis());
        let expect = reference::negacyclic_polymul_basis(&a, &b, ctx.basis()).unwrap();
        let got = ctx
            .run_rns(&PipelineSpec::polymul(), ExecMode::Replay, &[a, b])
            .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn fanned_equals_sequential_and_fills_more_shards() {
        let mut ctx = ctx(6);
        let a = test_polys(3, ctx.basis());
        let b = test_polys(4, ctx.basis());
        let slots = [vec![a], vec![b]];
        let refs: Vec<&[Vec<BigUint>]> = slots.iter().map(Vec::as_slice).collect();
        let spec = PipelineSpec::polymul();
        let fanned = ctx.run_rns_batch(&spec, ExecMode::Replay, &refs).unwrap();
        let fan_report = ctx.last_wave().clone();
        let sequential = ctx
            .run_limbs_sequential(&spec, ExecMode::Replay, &refs)
            .unwrap();
        let seq_report = ctx.last_wave().clone();
        assert_eq!(fanned, sequential);
        // One polynomial occupies one shard per limb: 3 concurrent vs 1
        // at a time sequentially, out of the same budget of 6.
        assert_eq!(fan_report.capacity, 6);
        assert_eq!(fan_report.participating, 3);
        assert_eq!(seq_report.participating, 1);
        assert!(fan_report.occupancy > seq_report.occupancy);
        assert_eq!(fan_report.limb_secs.len(), 3);
    }

    #[test]
    fn sibling_contexts_share_compiled_plans() {
        let mut first = ctx(3);
        let spec = PipelineSpec::polymul();
        first.compile(&spec).unwrap();
        let cache = first.plan_cache();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.entries(), 3);
        let compile_secs = cache.compile_secs();

        let mut second = RnsContext::with_plan_cache(
            Arc::clone(first.basis()),
            140,
            128,
            16,
            3,
            first.plan_cache(),
        )
        .unwrap();
        second.compile(&spec).unwrap();
        // Every limb of the second context found its plan: no new entry,
        // no compile time, one hit per limb.
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.compile_secs(), compile_secs);
        assert_eq!(cache.hits(), 3);
        // Idempotent: compiling again adds lookups, never entries.
        second.compile(&spec).unwrap();
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.compile_secs(), compile_secs);
    }

    #[test]
    fn shard_budget_is_split_across_limbs() {
        let ctx = ctx(7);
        assert_eq!(ctx.limbs(), 3);
        assert_eq!(ctx.shards_per_limb(), 2); // 7 / 3, floor, min 1
        assert_eq!(ctx.shards_total(), 6);
        let tiny = ctx_with_shards(1);
        assert_eq!(tiny.shards_per_limb(), 1); // never starves a limb
    }

    fn ctx_with_shards(shards_total: usize) -> RnsContext {
        let basis = Arc::new(RnsBasis::new(N, &PRIMES).unwrap());
        RnsContext::new(basis, 140, 128, 16, shards_total, BackendKind::Sim).unwrap()
    }

    #[test]
    fn rejects_unreduced_and_misshaped_inputs() {
        let mut ctx = ctx(3);
        let spec = PipelineSpec::polymul();
        let good = test_polys(5, ctx.basis());
        let short = good[..N - 1].to_vec();
        let err = ctx
            .run_rns(&spec, ExecMode::Replay, &[good.clone(), short])
            .unwrap_err();
        assert!(matches!(
            err,
            BpNttError::Rns(RnsError::WrongLength { expected: N, actual }) if actual == N - 1
        ));
        let mut unreduced = good.clone();
        unreduced[7] = ctx.basis().modulus().clone();
        let err = ctx
            .run_rns(&spec, ExecMode::Replay, &[good, unreduced])
            .unwrap_err();
        assert!(matches!(
            err,
            BpNttError::Rns(RnsError::Unreduced { index: 7 })
        ));
    }
}

//! Multi-array batch sharding: scale one compiled program across K arrays.
//!
//! A single BP-NTT array processes `lanes` polynomials per batch. Real
//! workloads (HE ciphertext limbs, server-side signature verification)
//! arrive in batches of hundreds to thousands — far beyond one array. A
//! [`ShardedBpNtt`] provisions `K` identically configured engines behind
//! the [`NttBackend`] seam (the cost-accounted simulator by default, the
//! native direct-execution backend via [`ShardedBpNtt::with_backend`] — see
//! [`crate::backend`]), compiles each schedule **once** into one
//! [`ArtifactCache`] every shard reads, and replays it on
//! all shards in parallel (one OS thread per shard, via
//! `std::thread::scope` — the dependency-free equivalent of a rayon
//! fan-out; a wave that occupies one shard runs on the caller's thread).
//! Batches larger than `K × lanes` are processed in waves.
//!
//! This mirrors the paper's scaling argument: BP-NTT's area is small
//! enough (0.063 mm² per 256×256 array) that a memory chip hosts hundreds
//! of arrays, all driven by the *same* instruction stream. The sharded
//! engine is that argument in software: one compilation, K replicas, no
//! cross-shard communication.
//!
//! # Example
//!
//! ```
//! use bpntt_core::{BpNttConfig, ShardedBpNtt};
//! use bpntt_ntt::NttParams;
//!
//! let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97)?)?;
//! let mut sharded = ShardedBpNtt::new(&cfg, 4)?;
//! // 4 shards × 4 lanes = 16 polynomials per wave.
//! assert_eq!(sharded.lanes_total(), 16);
//! let batch: Vec<Vec<u64>> = (0..23)
//!     .map(|s| (0..8).map(|j| (s * 13 + j * 7) as u64 % 97).collect())
//!     .collect();
//! let spectra = sharded.forward_batch(&batch)?;
//! assert_eq!(spectra.len(), 23);
//! # Ok::<(), bpntt_core::BpNttError>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::artifacts::ArtifactCache;
use crate::backend::{new_backend_in, BackendKind, NttBackend};
use crate::config::BpNttConfig;
use crate::error::BpNttError;
use crate::health::{HealthCounters, HealthMonitor, HealthOptions, ShardHealthState};
use crate::pipeline::{CompiledPipeline, ConfigFingerprint, ExecMode, PipelineSpec};
use crate::verify::VerifyPolicy;
use bpntt_sram::{CompiledProgram, FaultPlan, FaultStats, Stats};

/// How a sharded wave detects and recovers from corrupted or crashed
/// chunks — the detect→retry→quarantine→degrade ladder.
///
/// The default is the historical behavior: no verification, no retries,
/// and the first chunk error (now including a worker panic, surfaced as
/// [`BpNttError::WorkerPanicked`]) fails the wave. With recovery active
/// the ladder guarantees a correct answer always comes back:
///
/// 1. **detect** — each shard checks its chunk under `verify`
///    (see [`VerifyPolicy`]);
/// 2. **retry** — a failed chunk reruns on the same shard up to
///    `retry_budget` more times (a transient upset is consumed by the
///    failed run, so the retry executes on clean state, and every retry
///    spot-checks fresh points);
/// 3. **quarantine** — a shard that exhausts the budget is presumed
///    persistently faulty (stuck-at cell, dead wordline): it stops
///    claiming work for this and future waves and its chunk re-dispatches
///    once to a healthy shard through the work queue;
/// 4. **degrade** — chunks still unfilled at reassembly (re-dispatch also
///    failed, or every shard is quarantined) are recomputed with the
///    software reference when `software_fallback` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Output verification applied by every shard to every chunk.
    pub verify: VerifyPolicy,
    /// Extra attempts a shard gives a failing chunk before quarantining
    /// itself.
    pub retry_budget: usize,
    /// Recompute terminally failed chunks with the software reference
    /// instead of failing the wave.
    pub software_fallback: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            verify: VerifyPolicy::Off,
            retry_budget: 0,
            software_fallback: false,
        }
    }
}

impl RecoveryOptions {
    /// The full ladder: spot-check verification, two retries, software
    /// fallback.
    #[must_use]
    pub fn resilient() -> Self {
        RecoveryOptions {
            verify: VerifyPolicy::SpotCheck { points: 2 },
            retry_budget: 2,
            software_fallback: true,
        }
    }

    /// Whether any recovery rung beyond fail-the-wave is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.verify.is_active() || self.retry_budget > 0 || self.software_fallback
    }
}

/// What the recovery ladder actually did — per wave
/// ([`ShardedBpNtt::last_recovery`]) and cumulatively
/// ([`ShardedBpNtt::recovery_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Chunk attempts that failed detection (verification or simulator
    /// error) or crashed.
    pub faults_detected: u64,
    /// Chunk re-executions (same shard or re-dispatched).
    pub retries: u64,
    /// Shards currently quarantined.
    pub quarantined_shards: u64,
    /// Polynomials answered by the software reference fallback.
    pub fallback_polys: u64,
    /// Worker panics contained by `catch_unwind`.
    pub worker_panics: u64,
    /// Wall-clock seconds spent verifying outputs.
    pub verify_secs: f64,
    /// Whether this wave (or any wave, for totals) left the happy path:
    /// a shard was quarantined or a chunk fell back to software.
    pub degraded: bool,
}

impl RecoveryReport {
    fn absorb(&mut self, other: &RecoveryReport) {
        self.faults_detected += other.faults_detected;
        self.retries += other.retries;
        // "Currently quarantined" is a level, not a count: totals keep
        // the high-water mark, per-wave reports overwrite.
        self.quarantined_shards = self.quarantined_shards.max(other.quarantined_shards);
        self.fallback_polys += other.fallback_polys;
        self.worker_panics += other.worker_panics;
        self.verify_secs += other.verify_secs;
        self.degraded |= other.degraded;
    }
}

/// `K` identically configured BP-NTT arrays replaying shared compiled
/// programs over partitioned batches.
#[derive(Debug)]
pub struct ShardedBpNtt {
    shards: Vec<Box<dyn NttBackend>>,
    backend: BackendKind,
    /// The cache every shard compiles through.
    artifacts: Arc<ArtifactCache>,
    lanes_per_shard: usize,
    /// Wall-clock seconds each participating shard thread spent in the
    /// most recent batch fan-out (load + compute + read-back across every
    /// chunk it claimed), indexed by shard. Shards that spawned no worker
    /// (fewer chunks than shards) report no entry.
    last_shard_secs: Vec<f64>,
    recovery: RecoveryOptions,
    /// The per-shard healing state machine: quarantine flags, canary
    /// progress, decayed fault scores, probe scheduling (see
    /// [`crate::health`]).
    health: HealthMonitor,
    /// Construction instant — the monitor's monotonic time base.
    t0: Instant,
    /// Lazily built known-answer probe vectors (see [`Self::scrub_pass`]).
    probe: Option<ProbeSet>,
    last_report: RecoveryReport,
    totals: RecoveryReport,
}

/// One probe vector: slot-major inputs (one lane per slot) paired with
/// the software-reference output rows they must reproduce exactly.
type ProbeVector = (Vec<Vec<Vec<u64>>>, Vec<u64>);

/// Precomputed known-answer probe data: seeded inputs and their
/// software-reference outputs, compared reference-exact against the
/// probed shard's rows.
#[derive(Debug)]
struct ProbeSet {
    spec: PipelineSpec,
    /// Probe vectors rotated across probes.
    vectors: Vec<ProbeVector>,
    /// Rotation cursor.
    cursor: usize,
}

/// What one [`ShardedBpNtt::scrub_pass`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Known-answer probes executed this pass (scrub + patrol).
    pub probes_run: u64,
    /// Probes whose rows matched the reference exactly.
    pub probes_passed: u64,
    /// Shards promoted quarantined/probing → canary this pass.
    pub entered_canary: u64,
    /// Patrol probes of healthy shards (subset of `probes_run`).
    pub patrol_probes: u64,
    /// Healthy shards benched by a failing patrol probe.
    pub patrol_quarantines: u64,
}

/// One shard worker's outcome.
struct ShardOutcome {
    /// Completed chunks, tagged with their chunk index so the wave can
    /// reassemble input order.
    done: Vec<(usize, Vec<Vec<u64>>)>,
    /// The error that stopped this worker (fail-the-wave mode only).
    err: Option<BpNttError>,
    /// The worker thread's total wall-clock seconds.
    secs: f64,
    /// Whether the worker quarantined its shard.
    quarantined: bool,
    /// Detection/retry/panic/verify-time counters for the wave report.
    report: RecoveryReport,
}

/// A chunk awaiting re-dispatch after its owning shard was quarantined:
/// `(chunk index, hops)`. One hop is allowed — a chunk that fails on a
/// *second* shard goes to the software fallback, not around the ring.
type Requeue = Mutex<Vec<(usize, u8)>>;

impl ShardedBpNtt {
    /// Provisions `shards` arrays with the given configuration on the
    /// default [`BackendKind::Sim`] backend.
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidShardCount`] for zero shards; otherwise
    /// propagates per-array construction failures.
    pub fn new(config: &BpNttConfig, shards: usize) -> Result<Self, BpNttError> {
        Self::with_backend(config, shards, BackendKind::Sim)
    }

    /// Provisions `shards` engines of the requested backend kind. Every
    /// shard runs the same kind — heterogeneous waves are a service-layer
    /// concern (one sharded engine per `(backend, configuration)`, so
    /// tenants on different backends run on different engines).
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidShardCount`] for zero shards; otherwise
    /// propagates per-engine construction failures.
    pub fn with_backend(
        config: &BpNttConfig,
        shards: usize,
        backend: BackendKind,
    ) -> Result<Self, BpNttError> {
        Self::with_artifacts(config, shards, backend, Arc::default())
    }

    /// As [`Self::with_backend`], compiling through `artifacts` (the
    /// service and RNS layers share one cache across engines).
    pub(crate) fn with_artifacts(
        config: &BpNttConfig,
        shards: usize,
        backend: BackendKind,
        artifacts: Arc<ArtifactCache>,
    ) -> Result<Self, BpNttError> {
        if shards == 0 {
            return Err(BpNttError::InvalidShardCount { shards });
        }
        let shards: Vec<Box<dyn NttBackend>> = (0..shards)
            .map(|_| new_backend_in(backend, config, &artifacts))
            .collect::<Result<_, _>>()?;
        let lanes_per_shard = config.layout().lanes();
        let n_shards = shards.len();
        Ok(ShardedBpNtt {
            shards,
            backend,
            artifacts,
            lanes_per_shard,
            last_shard_secs: Vec::new(),
            recovery: RecoveryOptions::default(),
            health: HealthMonitor::new(n_shards, HealthOptions::default()),
            t0: Instant::now(),
            probe: None,
            last_report: RecoveryReport::default(),
            totals: RecoveryReport::default(),
        })
    }

    /// Monotonic seconds since construction — the health monitor's time
    /// base.
    fn now_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which backend kind every shard runs on.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// Configures the detect→retry→quarantine→degrade ladder (see
    /// [`RecoveryOptions`]); applies the verification policy to every
    /// shard.
    pub fn set_recovery(&mut self, opts: RecoveryOptions) {
        self.recovery = opts;
        for s in &mut self.shards {
            s.set_verify_policy(opts.verify);
        }
    }

    /// The active recovery configuration.
    #[must_use]
    pub fn recovery(&self) -> RecoveryOptions {
        self.recovery
    }

    /// Installs `plan` on every shard, reseeded per shard so the shards
    /// draw independent fault streams from one chaos description.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            let seed = plan
                .seed()
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            s.install_fault_plan(plan.clone().with_seed(seed));
        }
    }

    /// Clears every shard's fault plan, returning the summed injection
    /// counters.
    pub fn clear_fault_plans(&mut self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &mut self.shards {
            let st = s.clear_fault_plan();
            total.transients += st.transients;
            total.persistent_imposications += st.persistent_imposications;
        }
        total
    }

    /// Indices of the shards currently benched (quarantined or under
    /// probe) — canary shards are back in service and not listed.
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.health.is_benched(i))
            .collect()
    }

    /// Benches one shard: it stops claiming wave chunks until the
    /// scrubber reintegrates it or an operator lifts the quarantine.
    /// The ladder calls this automatically on budget exhaustion; it is
    /// public for operator-driven removal (e.g. a known-bad array).
    ///
    /// # Panics
    ///
    /// Panics if `shard_idx` is out of range.
    pub fn quarantine(&mut self, shard_idx: usize) {
        assert!(
            shard_idx < self.shards.len(),
            "shard {shard_idx} out of range"
        );
        let now = self.now_secs();
        self.health.quarantine(shard_idx, now);
    }

    /// Operator override: returns one quarantined (or canary) shard
    /// straight to full duty, forgetting its fault history and probe
    /// backoff — e.g. after physically replacing the faulty array.
    ///
    /// # Panics
    ///
    /// Panics if `shard_idx` is out of range.
    pub fn lift_quarantine(&mut self, shard_idx: usize) {
        assert!(
            shard_idx < self.shards.len(),
            "shard {shard_idx} out of range"
        );
        self.health.lift(shard_idx);
    }

    /// Returns every benched shard to service (e.g. after clearing an
    /// injected fault plan across the board).
    pub fn lift_all_quarantines(&mut self) {
        for i in 0..self.shards.len() {
            self.health.lift(i);
        }
    }

    /// Every shard's healing state, indexed by shard.
    #[must_use]
    pub fn shard_health(&self) -> Vec<ShardHealthState> {
        self.health.states()
    }

    /// Cumulative healing-ladder counters (probes, reintegrations,
    /// canary demotions).
    #[must_use]
    pub fn health_counters(&self) -> HealthCounters {
        self.health.counters()
    }

    /// Replaces the healing knobs (probe cadence, canary thresholds,
    /// decay half-life; see [`HealthOptions`]).
    pub fn set_health_options(&mut self, opts: HealthOptions) {
        self.health.set_options(opts);
    }

    /// The decayed fault score of one shard right now (unit: faults,
    /// halved per [`HealthOptions::decay_half_life`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard_idx` is out of range.
    #[must_use]
    pub fn shard_score(&self, shard_idx: usize) -> f64 {
        self.health.score(shard_idx, self.now_secs())
    }

    /// Number of compiled programs the shards' shared cache holds for
    /// this engine's backend and configuration.
    #[must_use]
    pub fn cached_programs(&self) -> usize {
        self.programs().len()
    }

    /// Opaque identities of the programs shard `shard_idx` replays from,
    /// sorted (every shard reads the same cache). Two equal snapshots
    /// mean the cache still holds the *same* program objects — nothing
    /// was recompiled or replaced in between (scrub probes must replay,
    /// never mutate the cache).
    ///
    /// # Panics
    ///
    /// Panics if `shard_idx` is out of range.
    #[must_use]
    pub fn program_identities(&self, shard_idx: usize) -> Vec<usize> {
        assert!(
            shard_idx < self.shards.len(),
            "shard {shard_idx} out of range"
        );
        let mut ids: Vec<usize> = self
            .programs()
            .iter()
            .map(|prog| Arc::as_ptr(prog) as usize)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn programs(&self) -> Vec<Arc<CompiledProgram>> {
        let fp = ConfigFingerprint::of(self.shards[0].config());
        self.artifacts.programs_of(self.backend, fp)
    }

    /// One scrubber pass: runs seeded known-answer probes against every
    /// benched shard whose backoff has elapsed (and whose decayed fault
    /// score has cooled), and patrol-probes idle healthy shards whose
    /// patrol interval has elapsed. Probe rows are compared
    /// **reference-exact** against precomputed software-reference
    /// output; probes run on probe-owned inputs and never touch
    /// tenant-visible operand slots or mutate already-cached programs.
    ///
    /// Shards accumulating enough consecutive passes re-enter service
    /// in canary mode (see [`crate::health`]); the promotion back to
    /// full duty happens in [`Self::run_pipeline_batch`] waves, not
    /// here. The service layer drives this from its background scrubber
    /// thread; standalone users call it on their own cadence.
    pub fn scrub_pass(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for idx in 0..self.shards.len() {
            let now = self.now_secs();
            if self.health.due_for_probe(idx, now) {
                let passed = self.probe_shard(idx);
                report.probes_run += 1;
                report.probes_passed += u64::from(passed);
                let now = self.now_secs();
                if let Some(crate::health::HealthTransition::EnteredCanary) =
                    self.health.record_probe(idx, passed, now)
                {
                    report.entered_canary += 1;
                }
            } else if self.health.due_for_patrol(idx, now) {
                let passed = self.probe_shard(idx);
                report.probes_run += 1;
                report.probes_passed += u64::from(passed);
                report.patrol_probes += 1;
                report.patrol_quarantines += u64::from(!passed);
                let now = self.now_secs();
                self.health.record_patrol(idx, passed, now);
            }
        }
        report
    }

    /// Executes one known-answer probe on shard `shard_idx`: a compiled
    /// pipeline over seeded probe inputs, rows asserted reference-exact
    /// against the precomputed software reference. Any divergence,
    /// typed error, or contained panic is a failed probe.
    fn probe_shard(&mut self, shard_idx: usize) -> bool {
        if self.ensure_probe_set().is_err() {
            return false;
        }
        let probe = self.probe.as_mut().expect("probe set built above");
        let (inputs, expected) = {
            let v = &probe.vectors[probe.cursor % probe.vectors.len()];
            probe.cursor += 1;
            (&v.0, &v.1)
        };
        let spec = probe.spec.clone();
        let shard = &mut self.shards[shard_idx];
        // Compile-or-cache-hit: probes of a warmed engine never
        // recompile, a cold engine pays the compile once.
        let pipe = match shard.compile(&spec) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let chunk: Vec<&[Vec<u64>]> = inputs.iter().map(|slot| slot.as_slice()).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            shard
                .execute(&pipe, ExecMode::Replay, &chunk)
                .map(|(rows, _)| rows)
        }));
        // Probe verification time must not pollute the next wave's
        // recovery report.
        let _ = shard.take_verify_secs();
        match res {
            Ok(Ok(rows)) => rows.len() == 1 && rows[0] == *expected,
            _ => false,
        }
    }

    /// Builds the probe vectors on first use: seeded pseudo-random
    /// operands for the canned forward-NTT graph, with the expected rows
    /// precomputed by the software reference.
    fn ensure_probe_set(&mut self) -> Result<(), BpNttError> {
        if self.probe.is_some() {
            return Ok(());
        }
        let spec = PipelineSpec::forward_ntt();
        let cfg = self.shards[0].config();
        let n = cfg.params().n();
        let q = cfg.params().modulus();
        let mut vectors = Vec::new();
        for seed in [0x5C_12_u64, 0xBBED_u64] {
            let mut x = seed | 1;
            let poly: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % q
                })
                .collect();
            let expected = self.shards[0]
                .verifier()
                .clone()
                .software_lane(&spec, &[&poly])?
                .ok_or_else(|| BpNttError::InvalidPipeline {
                    reason: "probe spec has no software reference".into(),
                })?;
            vectors.push((vec![vec![poly]], expected));
        }
        self.probe = Some(ProbeSet {
            spec,
            vectors,
            cursor: 0,
        });
        Ok(())
    }

    /// What the recovery ladder did during the most recent wave.
    #[must_use]
    pub fn last_recovery(&self) -> &RecoveryReport {
        &self.last_report
    }

    /// Cumulative ladder activity since construction.
    #[must_use]
    pub fn recovery_totals(&self) -> &RecoveryReport {
        &self.totals
    }

    /// Polynomials processed per wave across all shards.
    #[must_use]
    pub fn lanes_total(&self) -> usize {
        self.shards.len() * self.lanes_per_shard
    }

    /// Aggregated simulator statistics over every shard.
    ///
    /// Integer fields (cycles, instruction counts, row loads) are exact
    /// and independent of scheduling. Each shard's `f64` energy is priced
    /// from its own counts and summed in shard order, but work-stealing
    /// makes the chunk→shard assignment nondeterministic, so the
    /// aggregate's last-bit rounding can differ run to run on multi-core
    /// hosts. The identical-`Stats` discipline (replay ≡ emit, SIMD ≡
    /// scalar) is a *per-engine* invariant and is unaffected — don't
    /// compare sharded aggregate energy bit-for-bit across runs.
    ///
    /// On the [`BackendKind::Native`] backend no shard models cost, so
    /// the aggregate is all zeros — wall clock
    /// ([`Self::last_wave_shard_secs`]) is the native metric.
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.shards.iter().fold(Stats::default(), |acc, s| {
            acc + s.sim_stats().unwrap_or_default()
        })
    }

    /// Resets every shard's statistics.
    pub fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_stats();
        }
    }

    /// Per-shard wall-clock seconds of the most recent batch fan-out —
    /// **every** batch entry point ([`Self::forward_batch`],
    /// [`Self::roundtrip_batch`], [`Self::polymul_batch`]) routes through
    /// the same timed [`run_wave`](Self::run_wave) path, so these numbers
    /// always describe the last call, never a stale earlier wave. One
    /// entry per participating shard (`min(shards, chunks)` workers
    /// run; work-stealing may let a fast shard claim several chunks).
    /// Empty batches clear the slice. On a single-core host the sum
    /// approximates the wave's wall-clock — the threads serialize — so
    /// flat `polys_per_sec` scaling is expected there; on real multi-core
    /// hardware the wave completes in roughly the per-shard maximum.
    #[must_use]
    pub fn last_wave_shard_secs(&self) -> &[f64] {
        &self.last_shard_secs
    }

    /// The pipeline for `spec` from the shards' shared cache, compiled
    /// (on shard 0) on a miss — so the parallel phase never compiles.
    /// The service layer calls it to compile at tenant registration and
    /// before timed waves.
    pub(crate) fn compile(
        &mut self,
        spec: &PipelineSpec,
    ) -> Result<Arc<CompiledPipeline>, BpNttError> {
        self.shards[0].compile(spec)
    }

    /// Executes one compiled pipeline over an arbitrarily large batch —
    /// **the** single timed execution path of every batch operation. The
    /// batch is cut into chunks of `lanes_per_shard` polynomials, one
    /// worker thread spawns per participating shard
    /// (`min(shards, chunks)`, canary shards chosen first; a lone worker
    /// runs on the calling thread instead, under the same panic
    /// containment), each canary worker claims one reserved chunk, and
    /// workers **steal** the next unclaimed chunk from a shared counter
    /// — a slow shard never stalls the wave, it just claims fewer
    /// chunks. Each claimed chunk runs the *whole*
    /// op-graph on-array (operands loaded once, one read-back at the
    /// end — no intermediate `read_batch`/`load_batch` round-trips
    /// between ops). Output order matches input order (chunks are
    /// reassembled by index). `inputs` is slot-major: one batch per
    /// declared input slot, all of equal length.
    fn run_wave(
        &mut self,
        pipe: &Arc<CompiledPipeline>,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        let batch = inputs.first().map_or(0, |b| b.len());
        let lanes = self.lanes_per_shard.max(1);
        let n_chunks = batch.div_ceil(lanes);
        let ladder = self.recovery.is_active();
        let retry_budget = self.recovery.retry_budget;
        let benched: Vec<bool> = (0..self.shards.len())
            .map(|i| self.health.is_benched(i))
            .collect();
        let canary: Vec<bool> = (0..self.shards.len())
            .map(|i| self.health.is_canary(i))
            .collect();
        let wave_policy = self.recovery.verify;
        // One worker per chunk at most, canaries first: a canary returns
        // to duty only by serving clean waves, so it must never be the
        // shard a short wave leaves idle, and each canary's first chunk
        // is reserved for it — work stealing alone gives it no claim.
        let mut chosen: Vec<usize> = (0..self.shards.len()).filter(|&i| !benched[i]).collect();
        chosen.sort_by_key(|&i| !canary[i]);
        chosen.truncate(n_chunks);
        let reserved = chosen.iter().filter(|&&i| canary[i]).count();
        let next = AtomicUsize::new(reserved);
        let requeue: Requeue = Mutex::new(Vec::new());
        let mut workers: Vec<(usize, WorkerCtx<'_, '_>)> = Vec::new();
        for (sid, shard) in self.shards.iter_mut().enumerate() {
            let Some(rank) = chosen.iter().position(|&c| c == sid) else {
                continue;
            };
            if canary[sid] {
                // Canary leash: every chunk this shard touches is
                // fully verified, whatever the wave's policy.
                shard.set_verify_policy(VerifyPolicy::Full);
            }
            workers.push((
                sid,
                WorkerCtx {
                    shard: shard.as_mut(),
                    sid,
                    pipe,
                    mode,
                    inputs,
                    batch,
                    lanes,
                    n_chunks,
                    reserved: (rank < reserved).then_some(rank),
                    next: &next,
                    requeue: &requeue,
                    ladder,
                    retry_budget,
                    cancel,
                },
            ));
        }
        // A panic that escaped the per-chunk catch_unwind (e.g. in the
        // claim loop itself) loses the worker's chunks but not the wave's
        // type-safety: it surfaces as WorkerPanicked.
        let contain = |sid: usize, joined: std::thread::Result<ShardOutcome>| {
            let outcome = joined.unwrap_or_else(|_| ShardOutcome {
                done: Vec::new(),
                err: Some(BpNttError::WorkerPanicked { shard: sid }),
                secs: 0.0,
                quarantined: ladder,
                report: RecoveryReport {
                    faults_detected: 1,
                    worker_panics: 1,
                    ..RecoveryReport::default()
                },
            });
            (sid, outcome)
        };
        let mut outcomes: Vec<(usize, ShardOutcome)> = Vec::new();
        if workers.len() == 1 {
            // One worker (e.g. a one-chunk wave): run it on the calling
            // thread instead of paying a spawn, contained the same way.
            let (sid, ctx) = workers.pop().expect("exactly one worker");
            outcomes.push(contain(
                sid,
                catch_unwind(AssertUnwindSafe(|| run_worker(ctx))),
            ));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .into_iter()
                    .map(|(sid, ctx)| (sid, scope.spawn(move || run_worker(ctx))))
                    .collect();
                for (sid, h) in handles {
                    outcomes.push(contain(sid, h.join()));
                }
            });
        }
        // Restore the wave policy on canary shards before any early
        // return (the leash is per-wave, the policy field is persistent).
        for (sid, shard) in self.shards.iter_mut().enumerate() {
            if canary[sid] {
                shard.set_verify_policy(wave_policy);
            }
        }
        // Every worker has joined, so record all timings before the first
        // shard error can propagate — a failed wave still reports one
        // entry per participating shard.
        self.last_shard_secs.clear();
        self.last_shard_secs
            .extend(outcomes.iter().map(|(_, o)| o.secs));
        let now = self.now_secs();
        let mut wave = RecoveryReport::default();
        let mut slots: Vec<Option<Vec<Vec<u64>>>> = (0..n_chunks).map(|_| None).collect();
        let mut first_err = None;
        for (sid, o) in outcomes {
            wave.absorb(&o.report);
            for _ in 0..o.report.faults_detected {
                self.health.record_fault(sid, now);
            }
            let claimed = !o.done.is_empty();
            for (i, v) in o.done {
                slots[i] = Some(v);
            }
            if o.quarantined {
                if canary[sid] {
                    // A canary wave faulted: demote with doubled probe
                    // backoff — it must re-earn canary duty.
                    self.health.record_canary_wave(sid, false, now);
                } else {
                    self.health.quarantine(sid, now);
                }
                wave.degraded = true;
            } else if canary[sid] && claimed && o.err.is_none() {
                // A clean, fully verified canary wave counts toward
                // reintegration.
                self.health.record_canary_wave(sid, true, now);
            }
            if let Some(e) = o.err {
                first_err.get_or_insert(e);
            }
        }
        // A cancelled wave (every waiter gone — e.g. the last network
        // client of the group disconnected) stops claiming chunks; the
        // unfilled remainder is reported typed, not recomputed in
        // software. Completed chunks' timings and ladder activity are
        // still recorded below.
        if slots.iter().any(Option::is_none) && cancel.is_some_and(|c| c()) {
            wave.quarantined_shards = self.quarantined().len() as u64;
            self.last_report = wave;
            self.totals.absorb(&wave);
            self.totals.quarantined_shards = wave.quarantined_shards;
            return Err(BpNttError::Cancelled);
        }
        // The degrade rung: chunks nobody completed (their shard
        // quarantined and the one re-dispatch hop failed or never ran)
        // are recomputed with the software reference.
        let mut fallback_err = None;
        if ladder && self.recovery.software_fallback && slots.iter().any(Option::is_none) {
            let verifier = self.shards[0].verifier().clone();
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let lo = i * lanes;
                let hi = (lo + lanes).min(batch);
                let chunk: Vec<&[Vec<u64>]> = inputs.iter().map(|s| &s[lo..hi]).collect();
                match verifier.software_outputs(pipe.spec(), &chunk) {
                    Ok(v) => {
                        wave.fallback_polys += (hi - lo) as u64;
                        wave.degraded = true;
                        *slot = Some(v);
                    }
                    Err(e) => {
                        fallback_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        wave.quarantined_shards = self.quarantined().len() as u64;
        self.last_report = wave;
        self.totals.absorb(&wave);
        self.totals.quarantined_shards = wave.quarantined_shards;
        if let Some(e) = fallback_err {
            return Err(e);
        }
        if slots.iter().any(Option::is_none) {
            // Ladder off (or fallback disabled): the wave fails with the
            // first chunk error — a legitimate chunk error propagates
            // instead of panicking, and a panicked worker surfaces as
            // WorkerPanicked. The engines stay usable for the next wave.
            return Err(first_err.unwrap_or(BpNttError::WorkerPanicked { shard: 0 }));
        }
        let mut out = Vec::with_capacity(batch);
        for s in slots {
            out.extend(s.expect("every chunk filled or the wave failed above"));
        }
        Ok(out)
    }

    /// Executes a pipeline op-graph over an arbitrarily large batch: the
    /// spec compiles once (on shard 0, `Arc`-shared everywhere), the
    /// batch is work-stolen across shards in lane-sized chunks, and each
    /// chunk runs the whole graph per lane in one load/read cycle.
    /// `inputs` is slot-major — one batch per input slot the spec
    /// declares, all of equal length.
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidPipeline`] for input-count mismatches and
    /// for no-input specs (resident graphs are a single-engine feature:
    /// work-stealing gives a wave no stable chunk→shard assignment for
    /// on-array state to survive between calls),
    /// [`BpNttError::BatchMismatch`] for unequal batch lengths;
    /// otherwise compilation, validation, and simulator failures.
    pub fn run_pipeline_batch(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline_batch_inner(spec, mode, inputs, None)
    }

    /// [`Self::run_pipeline_batch`] with a cooperative cancellation
    /// probe: workers consult `cancel` before claiming each chunk, and a
    /// wave whose probe turns true mid-flight stops claiming and fails
    /// typed with [`BpNttError::Cancelled`] instead of finishing (or
    /// software-recomputing) work nobody is waiting for. Chunks already
    /// claimed still run to completion — cancellation is a claim-time
    /// boundary, never a mid-chunk abort.
    ///
    /// # Errors
    ///
    /// As [`Self::run_pipeline_batch`], plus [`BpNttError::Cancelled`]
    /// when the probe fired before the wave filled every chunk.
    pub fn run_pipeline_batch_cancellable(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
        cancel: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline_batch_inner(spec, mode, inputs, Some(cancel))
    }

    fn run_pipeline_batch_inner(
        &mut self,
        spec: &PipelineSpec,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        // Clear before any early return: even a rejected call must not
        // leave a previous wave's timings or recovery report behind.
        self.last_shard_secs.clear();
        self.last_report = RecoveryReport::default();
        if spec.input_slots().is_empty() {
            return Err(BpNttError::InvalidPipeline {
                reason: "sharded pipelines must declare at least one input slot \
                         (resident no-input graphs only exist on a single engine)"
                    .into(),
            });
        }
        if inputs.len() != spec.input_slots().len() {
            return Err(BpNttError::InvalidPipeline {
                reason: format!(
                    "spec declares {} input slot(s) but {} batch(es) were supplied",
                    spec.input_slots().len(),
                    inputs.len()
                ),
            });
        }
        if let (Some(first), Some(shorter)) = (
            inputs.first(),
            inputs.iter().find(|b| b.len() != inputs[0].len()),
        ) {
            return Err(BpNttError::BatchMismatch {
                a: first.len(),
                b: shorter.len(),
            });
        }
        if inputs[0].is_empty() {
            return Ok(Vec::new());
        }
        let pipe = self.compile(spec)?;
        self.run_wave(&pipe, mode, inputs, cancel)
    }

    /// Forward-transforms an arbitrarily large batch — the canned
    /// [`PipelineSpec::forward_ntt`] graph under replay: waves of
    /// `lanes_total` polynomials are partitioned across shards and each
    /// shard replays the shared compiled forward program. Output order
    /// matches input order.
    ///
    /// # Errors
    ///
    /// Propagates validation (length/reduction) and simulator failures.
    pub fn forward_batch(&mut self, polys: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[polys])
    }

    /// Forward + inverse roundtrip over an arbitrarily large batch — the
    /// canned [`PipelineSpec::roundtrip`] graph under replay (primarily a
    /// correctness/throughput harness: the output equals the input when
    /// the transform pair is exact).
    ///
    /// # Errors
    ///
    /// Propagates validation and simulator failures.
    pub fn roundtrip_batch(&mut self, polys: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline_batch(&PipelineSpec::roundtrip(), ExecMode::Replay, &[polys])
    }

    /// Negacyclic polynomial multiplication over an arbitrarily large
    /// batch of operand pairs: `out[i] = a[i] ⊛ b[i]` — the canned
    /// [`PipelineSpec::polymul`] graph under replay. Chunks of pairs are
    /// work-stolen across shards through the same timed
    /// [`run_wave`](Self::run_wave) path as the transforms, so
    /// [`Self::last_wave_shard_secs`] describes *this* call; every shard
    /// replays the four shared compiled segments (two forwards,
    /// pointwise, debt-folded scaled inverse) per chunk with no
    /// intermediate load/read round-trips.
    ///
    /// # Errors
    ///
    /// [`BpNttError::BatchMismatch`] when `a` and `b` differ in length;
    /// otherwise propagates validation and simulator failures.
    pub fn polymul_batch(
        &mut self,
        a: &[Vec<u64>],
        b: &[Vec<u64>],
    ) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.run_pipeline_batch(&PipelineSpec::polymul(), ExecMode::Replay, &[a, b])
    }
}

/// Everything one wave worker needs (bundled so the spawn site stays
/// readable).
struct WorkerCtx<'scope, 'env> {
    shard: &'scope mut dyn NttBackend,
    sid: usize,
    pipe: &'scope CompiledPipeline,
    mode: ExecMode,
    inputs: &'scope [&'env [Vec<u64>]],
    batch: usize,
    lanes: usize,
    n_chunks: usize,
    /// A chunk claimed for this worker before the shared counter runs
    /// (a canary's guaranteed share of the wave).
    reserved: Option<usize>,
    next: &'scope AtomicUsize,
    requeue: &'scope Requeue,
    ladder: bool,
    retry_budget: usize,
    cancel: Option<&'env (dyn Fn() -> bool + Sync)>,
}

/// One shard worker: claim chunks (re-dispatched ones first, then the
/// shared counter), run each with the ladder's per-chunk attempt budget,
/// self-quarantine on exhaustion.
fn run_worker(ctx: WorkerCtx<'_, '_>) -> ShardOutcome {
    let WorkerCtx {
        shard,
        sid,
        pipe,
        mode,
        inputs,
        batch,
        lanes,
        n_chunks,
        mut reserved,
        next,
        requeue,
        ladder,
        retry_budget,
        cancel,
    } = ctx;
    let t = std::time::Instant::now();
    let mut out = ShardOutcome {
        done: Vec::new(),
        err: None,
        secs: 0.0,
        quarantined: false,
        report: RecoveryReport::default(),
    };
    'claim: loop {
        // Cancelled mid-wave: stop claiming. Unclaimed chunks stay
        // unfilled and the wave reports `Cancelled` at reassembly.
        if cancel.is_some_and(|c| c()) {
            break;
        }
        // A reserved chunk first; then chunks orphaned by a quarantined
        // shard take priority over new work: they are the wave's
        // critical path.
        let claimed = reserved
            .take()
            .map(|i| (i, 0))
            .or_else(|| requeue.lock().expect("requeue lock").pop());
        let (i, hops) = match claimed {
            Some(c) => c,
            None => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                (i, 0)
            }
        };
        let lo = i * lanes;
        let hi = (lo + lanes).min(batch);
        let chunk: Vec<&[Vec<u64>]> = inputs.iter().map(|slot| &slot[lo..hi]).collect();
        let attempts = if ladder { 1 + retry_budget } else { 1 };
        let mut last_err: Option<BpNttError> = None;
        for attempt in 0..attempts {
            if attempt > 0 || hops > 0 {
                out.report.retries += 1;
            }
            // Isolate the attempt: an injected hard fault (or any other
            // panic inside the simulator) must cost at most this chunk,
            // never the process. The engine reloads all inputs on the
            // next attempt, so mid-pipeline array state is not a hazard.
            let res = catch_unwind(AssertUnwindSafe(|| {
                shard.execute(pipe, mode, &chunk).map(|(rows, _)| rows)
            }));
            out.report.verify_secs += shard.take_verify_secs();
            match res {
                Ok(Ok(v)) => {
                    out.done.push((i, v));
                    continue 'claim;
                }
                Ok(Err(e)) => {
                    out.report.faults_detected += 1;
                    last_err = Some(e);
                }
                Err(_) => {
                    out.report.faults_detected += 1;
                    out.report.worker_panics += 1;
                    last_err = Some(BpNttError::WorkerPanicked { shard: sid });
                }
            }
        }
        // Budget exhausted. With the ladder active the shard is presumed
        // persistently faulty: quarantine it and hand the chunk to a
        // healthy shard (one hop; a twice-failed chunk waits for the
        // software fallback). Without the ladder, poison the counter —
        // the wave is already doomed.
        out.err = last_err;
        if ladder {
            if hops == 0 {
                requeue.lock().expect("requeue lock").push((i, 1));
            }
            out.quarantined = true;
        } else {
            next.store(n_chunks, Ordering::Relaxed);
        }
        break;
    }
    out.secs = t.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_ntt::forward::ntt_in_place;
    use bpntt_ntt::polymul::polymul_schoolbook;
    use bpntt_ntt::{NttParams, TwiddleTable};

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

    fn config() -> BpNttConfig {
        BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(matches!(
            ShardedBpNtt::new(&config(), 0),
            Err(BpNttError::InvalidShardCount { .. })
        ));
    }

    #[test]
    fn forward_batch_matches_reference_across_waves() {
        let params = NttParams::new(8, 97).unwrap();
        let mut sharded = ShardedBpNtt::new(&config(), 3).unwrap();
        // 3 shards × 4 lanes = 12 per wave; 30 polys → 3 waves, last partial.
        let batch: Vec<Vec<u64>> = (0..30).map(|s| pseudo(8, 97, s + 1)).collect();
        let got = sharded.forward_batch(&batch).unwrap();
        assert_eq!(got.len(), 30);
        let t = TwiddleTable::new(&params);
        for (i, p) in batch.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[i], expect, "poly {i}");
        }
    }

    #[test]
    fn roundtrip_batch_is_identity() {
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        let batch: Vec<Vec<u64>> = (0..17).map(|s| pseudo(8, 97, s + 50)).collect();
        assert_eq!(sharded.roundtrip_batch(&batch).unwrap(), batch);
    }

    #[test]
    fn polymul_batch_matches_schoolbook() {
        let params = NttParams::new(8, 97).unwrap();
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        let a: Vec<Vec<u64>> = (0..11).map(|s| pseudo(8, 97, s + 100)).collect();
        let b: Vec<Vec<u64>> = (0..11).map(|s| pseudo(8, 97, s + 200)).collect();
        let got = sharded.polymul_batch(&a, &b).unwrap();
        assert_eq!(got.len(), 11);
        for i in 0..11 {
            let expect = polymul_schoolbook(&params, &a[i], &b[i]).unwrap();
            assert_eq!(got[i], expect, "pair {i}");
        }
    }

    #[test]
    fn polymul_batch_rejects_mismatched_operands() {
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        let a = vec![pseudo(8, 97, 1)];
        assert!(matches!(
            sharded.polymul_batch(&a, &[]),
            Err(BpNttError::BatchMismatch { a: 1, b: 0 })
        ));
    }

    #[test]
    fn sharded_stats_aggregate_and_match_single_array() {
        // Two shards fed the *same* chunk accumulate exactly 2× the
        // single-array statistics (the resolution loops are data-dependent,
        // so the chunks must match for exact doubling).
        let chunk: Vec<Vec<u64>> = (0..4).map(|s| pseudo(8, 97, s + 7)).collect();
        let mut batch = chunk.clone();
        batch.extend(chunk.iter().cloned());

        let mut single = ShardedBpNtt::new(&config(), 1).unwrap();
        single.forward_batch(&chunk).unwrap();
        let s1 = single.stats();

        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.forward_batch(&batch).unwrap();
        let s2 = sharded.stats();

        assert_eq!(s2.cycles, 2 * s1.cycles);
        assert_eq!(s2.counts.total(), 2 * s1.counts.total());
    }

    #[test]
    fn per_shard_wall_clock_is_recorded() {
        let mut sharded = ShardedBpNtt::new(&config(), 3).unwrap();
        assert!(sharded.last_wave_shard_secs().is_empty());
        // 2 full chunks + 1 partial → all three shards participate.
        let batch: Vec<Vec<u64>> = (0..9).map(|s| pseudo(8, 97, s + 60)).collect();
        sharded.forward_batch(&batch).unwrap();
        let secs = sharded.last_wave_shard_secs();
        assert_eq!(secs.len(), 3);
        assert!(secs.iter().all(|&s| s > 0.0));
        // A wave that fills only one shard reports only that shard.
        sharded.forward_batch(&batch[..2]).unwrap();
        assert_eq!(sharded.last_wave_shard_secs().len(), 1);
    }

    #[test]
    fn polymul_batch_refreshes_shard_timings() {
        // Regression: polymul_batch used to run its own untimed fan-out,
        // leaving last_wave_shard_secs describing the *previous*
        // forward/roundtrip wave. It now routes through the timed
        // run_wave path like every other batch op.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        // A 9-poly forward leaves 3 chunks → 2 participating shards.
        let batch: Vec<Vec<u64>> = (0..9).map(|s| pseudo(8, 97, s + 300)).collect();
        sharded.forward_batch(&batch).unwrap();
        let stale: Vec<f64> = sharded.last_wave_shard_secs().to_vec();
        assert_eq!(stale.len(), 2);

        // One pair → one chunk → exactly one participating shard. Before
        // the fix this call left the two forward entries in place.
        let a = vec![pseudo(8, 97, 310)];
        let b = vec![pseudo(8, 97, 311)];
        sharded.polymul_batch(&a, &b).unwrap();
        let secs = sharded.last_wave_shard_secs();
        assert_eq!(
            secs.len(),
            1,
            "polymul must report one entry per participating shard"
        );
        assert!(secs[0] > 0.0);

        // A full-width polymul reports every participating shard again.
        let a: Vec<Vec<u64>> = (0..9).map(|s| pseudo(8, 97, s + 320)).collect();
        let b: Vec<Vec<u64>> = (0..9).map(|s| pseudo(8, 97, s + 330)).collect();
        sharded.polymul_batch(&a, &b).unwrap();
        let secs = sharded.last_wave_shard_secs();
        assert_eq!(secs.len(), 2);
        assert!(secs.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn empty_batches_clear_timings_and_skip_work() {
        // Regression: empty batches used to warm/compile programs and
        // leave the previous wave's shard timings in place.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        let batch: Vec<Vec<u64>> = (0..4).map(|s| pseudo(8, 97, s + 400)).collect();
        sharded.forward_batch(&batch).unwrap();
        assert!(!sharded.last_wave_shard_secs().is_empty());

        assert_eq!(sharded.forward_batch(&[]).unwrap(), Vec::<Vec<u64>>::new());
        assert!(
            sharded.last_wave_shard_secs().is_empty(),
            "empty forward batch must clear stale timings"
        );

        sharded.roundtrip_batch(&batch).unwrap();
        assert!(!sharded.last_wave_shard_secs().is_empty());
        assert!(sharded.roundtrip_batch(&[]).unwrap().is_empty());
        assert!(sharded.last_wave_shard_secs().is_empty());

        sharded.polymul_batch(&batch, &batch).unwrap();
        assert!(!sharded.last_wave_shard_secs().is_empty());
        assert!(sharded.polymul_batch(&[], &[]).unwrap().is_empty());
        assert!(sharded.last_wave_shard_secs().is_empty());

        // And a fresh engine compiles nothing for an empty batch.
        let mut fresh = ShardedBpNtt::new(&config(), 2).unwrap();
        fresh.forward_batch(&[]).unwrap();
        fresh.roundtrip_batch(&[]).unwrap();
        fresh.polymul_batch(&[], &[]).unwrap();
        assert_eq!(fresh.cached_programs(), 0, "empty batches must not compile");
        assert_eq!(fresh.artifacts.entries(), 0);
    }

    #[test]
    fn work_stealing_preserves_input_order() {
        // 30 polys over 3 shards → 8 chunks stolen by 3 workers in
        // nondeterministic order; the reassembled output must still match
        // the reference in input order.
        let params = NttParams::new(8, 97).unwrap();
        let mut sharded = ShardedBpNtt::new(&config(), 3).unwrap();
        let batch: Vec<Vec<u64>> = (0..30).map(|s| pseudo(8, 97, s + 500)).collect();
        let got = sharded.forward_batch(&batch).unwrap();
        let t = TwiddleTable::new(&params);
        for (i, p) in batch.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[i], expect, "poly {i}");
        }
        // Workers spawn for min(shards, chunks) — all 3 here.
        assert_eq!(sharded.last_wave_shard_secs().len(), 3);
    }

    #[test]
    fn worker_panic_is_typed_and_scoped_to_one_wave() {
        // Regression for the old `join().expect("shard thread panicked")`:
        // an injected hard fault panics a worker mid-wave; the wave must
        // fail with the typed WorkerPanicked error (not abort the
        // process) and the very next wave must succeed on the same
        // engines.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        let batch: Vec<Vec<u64>> = (0..8).map(|s| pseudo(8, 97, s + 600)).collect();
        let clean = sharded.forward_batch(&batch).unwrap();
        sharded.install_fault_plan(&FaultPlan::seeded(5).hard_fault_at(0));
        let err = sharded.forward_batch(&batch).unwrap_err();
        assert!(
            matches!(err, BpNttError::WorkerPanicked { .. }),
            "got {err:?}"
        );
        assert!(sharded.last_recovery().worker_panics >= 1);
        // The hard fault fires once per shard, but a poisoned wave can
        // end before the *other* shard's worker ran (and consumed its
        // own fault) — each retry wave burns at least one remaining
        // fault, so the engines run clean within shards + 1 waves.
        let mut healed = None;
        for _ in 0..3 {
            match sharded.forward_batch(&batch) {
                Ok(out) => {
                    healed = Some(out);
                    break;
                }
                Err(BpNttError::WorkerPanicked { .. }) => {}
                Err(other) => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        assert_eq!(healed.expect("engines never ran clean"), clean);
    }

    #[test]
    fn chunk_error_propagates_instead_of_panicking() {
        // Regression for `expect("error-free wave fills every chunk")`:
        // a chunk failing verification mid-wave (ladder off except
        // detection) must surface its typed error.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 0,
            software_fallback: false,
        });
        // A dead wordline in the coefficient region corrupts every chunk.
        sharded.install_fault_plan(&FaultPlan::seeded(1).dead_row(0));
        let batch: Vec<Vec<u64>> = (0..8).map(|s| pseudo(8, 97, s + 650)).collect();
        match sharded.forward_batch(&batch) {
            Err(BpNttError::IntegrityFailure { .. }) => {}
            other => panic!("expected IntegrityFailure, got {other:?}"),
        }
        assert!(sharded.last_recovery().faults_detected >= 1);
    }

    #[test]
    fn ladder_recovers_hard_fault_via_retry() {
        // One hard fault per shard at instruction 0: the first attempt of
        // the first chunk on each shard panics, the retry (fault
        // consumed) succeeds. The full ladder returns a correct,
        // complete wave.
        let params = NttParams::new(8, 97).unwrap();
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions::resilient());
        sharded.install_fault_plan(&FaultPlan::seeded(9).hard_fault_at(0));
        let batch: Vec<Vec<u64>> = (0..12).map(|s| pseudo(8, 97, s + 660)).collect();
        let got = sharded.forward_batch(&batch).unwrap();
        let t = TwiddleTable::new(&params);
        for (i, p) in batch.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[i], expect, "poly {i}");
        }
        let r = sharded.recovery_totals();
        assert!(r.worker_panics >= 1);
        assert!(r.retries >= 1);
        assert!(r.faults_detected >= 1);
    }

    #[test]
    fn stuck_at_fault_quarantines_and_falls_back() {
        // A dead row on every shard corrupts persistently: retries are
        // useless, every shard quarantines, and the software fallback
        // still delivers the correct answer for every polynomial.
        let params = NttParams::new(8, 97).unwrap();
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 1,
            software_fallback: true,
        });
        sharded.install_fault_plan(&FaultPlan::seeded(3).dead_row(2));
        let batch: Vec<Vec<u64>> = (0..8).map(|s| pseudo(8, 97, s + 670)).collect();
        let got = sharded.forward_batch(&batch).unwrap();
        let t = TwiddleTable::new(&params);
        for (i, p) in batch.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[i], expect, "poly {i} must come from the fallback");
        }
        let r = sharded.last_recovery();
        assert!(r.degraded);
        assert!(r.fallback_polys > 0);
        assert_eq!(r.quarantined_shards, 2);
        assert_eq!(sharded.quarantined(), vec![0, 1]);

        // With every shard quarantined the next wave is pure software —
        // still correct, still complete.
        let got = sharded.forward_batch(&batch).unwrap();
        assert_eq!(got.len(), 8);
        assert_eq!(sharded.last_recovery().fallback_polys, 8);

        // Lifting the quarantine (fault cleared) restores hardware waves.
        sharded.clear_fault_plans();
        sharded.lift_all_quarantines();
        sharded.forward_batch(&batch).unwrap();
        assert_eq!(sharded.last_recovery().fallback_polys, 0);
        assert!(!sharded.last_recovery().degraded);
    }

    #[test]
    fn burst_fault_heals_through_probe_canary_reintegration() {
        // The full self-healing ladder with NO manual lift_quarantine:
        // a windowed dead-row burst corrupts the first wave on every
        // shard (quarantine), the burst window closes, scrubber probes
        // pass (canary), and a clean fully-verified wave reintegrates.
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        // 6 chunks per wave: enough that a canary shard reliably claims
        // work even when the healthy shard gets a head start.
        let batch: Vec<Vec<u64>> = (0..24).map(|s| pseudo(8, 97, s + 700)).collect();
        let expect: Vec<Vec<u64>> = batch
            .iter()
            .map(|p| {
                let mut e = p.clone();
                ntt_in_place(&params, &t, &mut e).unwrap();
                e
            })
            .collect();

        // Calibrate the burst window: instructions one shard spends on
        // one chunk (the clock is mode- and backend-independent).
        let mut probe = ShardedBpNtt::new(&config(), 1).unwrap();
        probe.forward_batch(&batch[..4]).unwrap();
        let chunk_instrs = probe.stats().counts.total();
        assert!(chunk_instrs > 0);

        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 0,
            software_fallback: true,
        });
        sharded.set_health_options(HealthOptions::aggressive());
        // Dead wordline for exactly the first chunk's worth of
        // instructions on each shard, then the array heals.
        sharded.install_fault_plan(
            &FaultPlan::seeded(3)
                .dead_row(2)
                .active_between(0, chunk_instrs),
        );

        // Wave 1: both shards corrupt, quarantine, fallback answers.
        let got = sharded.forward_batch(&batch).unwrap();
        assert_eq!(got, expect, "degraded wave still reference-exact");
        assert_eq!(sharded.quarantined(), vec![0, 1]);
        assert!(sharded.shard_score(0) > 0.0, "faults scored");

        // Scrub until the burst window closes under the probes
        // themselves (each probe advances the shard's instruction
        // clock, so a probe that still lands inside the window fails,
        // backs off, and the next one lands beyond it).
        let mut entered_canary = 0;
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            entered_canary += sharded.scrub_pass().entered_canary;
            if sharded.quarantined().is_empty() {
                break;
            }
        }
        assert_eq!(entered_canary, 2, "both shards promoted to canary");
        assert!(sharded.quarantined().is_empty());
        assert_eq!(
            sharded.shard_health(),
            vec![ShardHealthState::Canary, ShardHealthState::Canary]
        );

        // Canary shards run fully verified; one clean claimed wave each
        // reintegrates them (canary_waves_to_healthy = 1). Work-stealing
        // gives no claim guarantee per wave, so run a few.
        for _ in 0..10 {
            let got = sharded.forward_batch(&batch).unwrap();
            assert_eq!(got, expect);
            assert_eq!(sharded.last_recovery().fallback_polys, 0, "hardware wave");
            if sharded
                .shard_health()
                .iter()
                .all(|&s| s == ShardHealthState::Healthy)
            {
                break;
            }
        }
        assert_eq!(
            sharded.shard_health(),
            vec![ShardHealthState::Healthy, ShardHealthState::Healthy]
        );
        let c = sharded.health_counters();
        assert_eq!(c.reintegrations, 2);
        assert_eq!(c.canary_demotions, 0);
        assert!(c.probes_passed >= 2);

        // Wave 3: fully healed, full speed, no degradation.
        let got = sharded.forward_batch(&batch).unwrap();
        assert_eq!(got, expect);
        assert!(!sharded.last_recovery().degraded);
    }

    #[test]
    fn canary_claims_a_chunk_of_every_wave_it_may_serve() {
        // Shard 1 is a canary next to a healthy shard 0. A one-chunk
        // wave needs one worker: the canary serves it (and is
        // reintegrated by it) instead of idling behind shard 0. In a
        // two-chunk wave it claims its reserved chunk.
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        let mut opts = HealthOptions::aggressive();
        opts.canary_waves_to_healthy = 2;
        opts.patrol = false;
        let canary_next_to_healthy = || {
            let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
            sharded.set_recovery(RecoveryOptions::resilient());
            sharded.set_health_options(opts);
            sharded.quarantine(1);
            for _ in 0..100 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                if sharded.scrub_pass().entered_canary == 1 {
                    break;
                }
            }
            assert_eq!(
                sharded.shard_health(),
                vec![ShardHealthState::Healthy, ShardHealthState::Canary]
            );
            sharded
        };
        for chunks in [1, 2] {
            let mut sharded = canary_next_to_healthy();
            let batch: Vec<Vec<u64>> = (0..4 * chunks as u64 - 1)
                .map(|s| pseudo(8, 97, s + 730))
                .collect();
            for wave in 1..=2 {
                let got = sharded.forward_batch(&batch).unwrap();
                for (p, g) in batch.iter().zip(&got) {
                    let mut e = p.clone();
                    ntt_in_place(&params, &t, &mut e).unwrap();
                    assert_eq!(g, &e);
                }
                let want = if wave == 2 {
                    ShardHealthState::Healthy
                } else {
                    ShardHealthState::Canary
                };
                assert_eq!(
                    sharded.shard_health()[1],
                    want,
                    "{chunks} chunk(s), wave {wave}"
                );
            }
            assert_eq!(sharded.health_counters().reintegrations, 1);
        }
    }

    #[test]
    fn canary_failure_demotes_with_doubled_backoff() {
        // A persistent (un-windowed) dead row: probes executed while the
        // fault is live keep failing, so the shard stays benched and
        // never corrupts tenant output.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 0,
            software_fallback: true,
        });
        sharded.set_health_options(HealthOptions::aggressive());
        sharded.install_fault_plan(&FaultPlan::seeded(3).dead_row(2));
        let batch: Vec<Vec<u64>> = (0..8).map(|s| pseudo(8, 97, s + 710)).collect();
        sharded.forward_batch(&batch).unwrap();
        assert_eq!(sharded.quarantined(), vec![0, 1]);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let scrub = sharded.scrub_pass();
        assert_eq!(scrub.probes_run, 2);
        assert_eq!(scrub.probes_passed, 0, "probes catch the live fault");
        assert_eq!(sharded.quarantined(), vec![0, 1], "still benched");
        // Output stays reference-exact throughout (software fallback).
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        let got = sharded.forward_batch(&batch).unwrap();
        for (i, p) in batch.iter().enumerate() {
            let mut e = p.clone();
            ntt_in_place(&params, &t, &mut e).unwrap();
            assert_eq!(got[i], e, "poly {i}");
        }
    }

    #[test]
    fn per_shard_quarantine_and_lift() {
        // Satellite: operator-grade per-shard control.
        let mut sharded = ShardedBpNtt::new(&config(), 3).unwrap();
        sharded.quarantine(1);
        assert_eq!(sharded.quarantined(), vec![1]);
        assert_eq!(sharded.shard_health()[1], ShardHealthState::Quarantined);
        // Waves route around the benched shard and stay correct.
        let batch: Vec<Vec<u64>> = (0..12).map(|s| pseudo(8, 97, s + 720)).collect();
        let got = sharded.forward_batch(&batch).unwrap();
        assert_eq!(got.len(), 12);
        assert!(sharded.last_wave_shard_secs().len() <= 2);
        sharded.lift_quarantine(1);
        assert!(sharded.quarantined().is_empty());
        sharded.quarantine(0);
        sharded.quarantine(2);
        sharded.lift_all_quarantines();
        assert!(sharded.quarantined().is_empty());
    }

    #[test]
    fn patrol_probe_finds_latent_damage_before_traffic() {
        // A healthy-looking shard with a live persistent fault is
        // benched by the patrol scrubber, not by a tenant wave.
        let mut sharded = ShardedBpNtt::new(&config(), 2).unwrap();
        sharded.set_recovery(RecoveryOptions::resilient());
        let mut opts = HealthOptions::aggressive();
        opts.patrol_interval = std::time::Duration::from_millis(1);
        sharded.set_health_options(opts);
        sharded.install_fault_plan(&FaultPlan::seeded(3).dead_row(2));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let scrub = sharded.scrub_pass();
        assert_eq!(scrub.patrol_probes, 2);
        assert_eq!(scrub.patrol_quarantines, 2);
        assert_eq!(sharded.quarantined(), vec![0, 1]);
        assert_eq!(sharded.health_counters().patrol_quarantines, 2);
    }

    #[test]
    fn shared_programs_compile_once() {
        let mut sharded = ShardedBpNtt::new(&config(), 4).unwrap();
        let batch: Vec<Vec<u64>> = (0..16).map(|s| pseudo(8, 97, s + 9)).collect();
        sharded.forward_batch(&batch).unwrap();
        let compile_secs = sharded.artifacts.compile_secs();
        sharded.forward_batch(&batch).unwrap();
        assert_eq!(sharded.cached_programs(), 1, "one program for 4 shards");
        assert_eq!(sharded.artifacts.entries(), 1);
        assert_eq!(
            sharded.artifacts.compile_secs(),
            compile_secs,
            "a second wave compiles nothing"
        );
    }
}

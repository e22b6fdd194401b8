//! The backend HAL: one execution seam, many engines.
//!
//! [`NttBackend`] is the single trait through which every layer above the
//! engine — [`ShardedBpNtt`](crate::ShardedBpNtt) waves, the
//! [`NttService`](crate::NttService) multi-tenant front-end, benches and
//! drills — compiles and executes pipeline op-graphs. Two implementations
//! ship today:
//!
//! * [`SimBackend`] — the paper's simulated accelerator: every
//!   instruction is counted by class by the SRAM controller, which
//!   prices the counts into the [`Stats`] (cycles, energy, instruction
//!   mix) the equivalence proptests pin. This is the default everywhere and is
//!   behaviorally identical to the pre-HAL `BpNtt` stack.
//! * [`NativeBackend`] — direct execution: the *same* compiled programs
//!   replay through the same fused word-engine executors with cost
//!   accounting disabled in the controller, so the per-instruction
//!   class counting vanishes from the hot loop.
//!   No `Stats`, no energy model — the only honest metric is wall clock,
//!   which is exactly the "fast as the hardware allows" number the
//!   ROADMAP north-star asks for. Rows are bit-identical to the
//!   simulator's (enforced by the backend-equivalence proptests), and
//!   fault injection keeps firing at the same instruction indices: the
//!   controller maintains a native instruction clock whose increments
//!   mirror the costed instruction count exactly, so chaos drills and the
//!   recovery ladder behave identically on both backends.
//!
//! # What is shared, what is not
//!
//! Compiled artifacts ([`CompiledProgram`], [`CompiledPipeline`]) are
//! backend-independent: both backends keep the default timing/energy
//! models at compile time, so a program compiled on one replays
//! bit-identically on the other (`export_programs` / `install_program`
//! move them across the seam). The service layer still keys its
//! cross-tenant artifact cache by [`BackendKind`] — deliberately, so a
//! future backend whose compilation *does* diverge (a GPU lowering, a
//! cost-model experiment) slots in without corrupting another backend's
//! cache.
//!
//! # How a GPU backend would slot in
//!
//! Implement [`NttBackend`] for a type that uploads the compiled segment
//! streams (or a lowered form of them) to the device, executes per-lane
//! batches there, and reads rows back; `execute` returns wall clock in
//! [`BackendStats`] with `sim: None`, exactly like [`NativeBackend`].
//! The sharded and service layers need no changes — per-tenant backend
//! selection ([`crate::ServiceOptions::backend`],
//! [`crate::NttService::add_tenant_with_backend`]) and the
//! backend-keyed pipeline cache already route around engine-specific
//! state, and the recovery ladder only needs `execute` to fail typed and
//! the verifier hook to exist.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use crate::config::BpNttConfig;
use crate::engine::{BpNtt, ProgramKey};
use crate::error::BpNttError;
use crate::pipeline::{CompiledPipeline, ExecMode, PipelineSpec};
use crate::verify::{Verifier, VerifyPolicy};
use bpntt_sram::{CompiledProgram, FastPathStats, FaultPlan, FaultStats, Stats};

/// Which execution engine a backend is (the service's cache key
/// dimension and the bench/CI matrix axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// The cost-accounted SRAM simulator (the paper's accelerator model).
    #[default]
    Sim,
    /// Direct CPU execution of the same compiled programs with cost
    /// accounting compiled out — wall clock only.
    Native,
}

impl BackendKind {
    /// Every kind, in matrix order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    /// Stable lowercase name (`"sim"` / `"native"`), the CLI/JSON/CI
    /// spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!(
                "unknown backend kind {other:?} (expected sim|native)"
            )),
        }
    }
}

/// What one [`NttBackend::execute`] call cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Wall-clock seconds of the call (load + compute + read-back,
    /// including any verification the active policy performed).
    pub wall_secs: f64,
    /// The simulator's cumulative cost accounting *after* the call —
    /// `Some` only on [`SimBackend`] (reset the backend's stats before
    /// the call for a per-call reading). `None` on backends that do not
    /// model cost, which is the point of [`NativeBackend`].
    pub sim: Option<Stats>,
}

/// The execution seam: compile pipeline op-graphs once, execute them on
/// batches, and expose the capability surfaces the upper layers need
/// (artifact sharing, verification, fault injection, telemetry). All
/// methods are infallible passthroughs unless documented otherwise; see
/// [`BpNtt`] for the semantics each default implementation inherits.
///
/// The trait is object-safe — the sharded and service layers hold
/// `Box<dyn NttBackend>` — and `Send` so shard workers can run on scoped
/// threads.
pub trait NttBackend: Send + fmt::Debug {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// The configuration the backend was provisioned with.
    fn config(&self) -> &BpNttConfig;

    /// Compiles (and caches) the pipeline for `spec`.
    ///
    /// # Errors
    ///
    /// See [`BpNtt::compile_pipeline`].
    fn compile(&mut self, spec: &PipelineSpec) -> Result<Arc<CompiledPipeline>, BpNttError>;

    /// Executes an already compiled pipeline on one batch, returning the
    /// output rows and what the call cost. Rows are bit-identical across
    /// backends for the same compiled pipeline, mode, and inputs.
    ///
    /// # Errors
    ///
    /// See [`BpNtt::run_compiled_pipeline`].
    fn execute(
        &mut self,
        pipe: &CompiledPipeline,
        mode: ExecMode,
        inputs: &[&[Vec<u64>]],
    ) -> Result<(Vec<Vec<u64>>, BackendStats), BpNttError>;

    /// Installs an externally compiled pipeline (and its segment
    /// programs) into this backend's caches.
    fn install_pipeline(&mut self, pipe: &Arc<CompiledPipeline>);

    /// Whether `spec` is already compiled in this backend's cache.
    fn has_pipeline(&self, spec: &PipelineSpec) -> bool;

    /// Every compiled program this backend holds (the service layer's
    /// cross-tenant share path).
    fn export_programs(&self) -> Vec<(ProgramKey, Arc<CompiledProgram>)>;

    /// Installs one externally compiled program.
    fn install_program(&mut self, key: ProgramKey, prog: Arc<CompiledProgram>);

    /// Number of compiled programs in the cache.
    fn cached_programs(&self) -> usize;

    /// Number of compiled pipelines in the cache.
    fn cached_pipelines(&self) -> usize;

    /// Sets the output-verification policy (the ladder's detect rung).
    fn set_verify_policy(&mut self, policy: VerifyPolicy);

    /// The software reference verifier (built lazily; the degrade rung
    /// clones it for fallback recomputation).
    fn verifier(&mut self) -> &Verifier;

    /// Drains the wall-clock seconds spent verifying since the last call.
    fn take_verify_secs(&mut self) -> f64;

    /// Installs a fault-injection plan (chaos drills; see
    /// [`FaultPlan`]). Faults fire at the same instruction indices on
    /// every backend.
    fn install_fault_plan(&mut self, plan: FaultPlan);

    /// Removes the fault plan, returning injection counters.
    fn clear_fault_plan(&mut self) -> FaultStats;

    /// Injection counters of the active plan, if one is installed.
    fn fault_stats(&self) -> Option<FaultStats>;

    /// The simulator's cumulative cost accounting — `Some` only on
    /// backends that model cost ([`SimBackend`]); `None` on
    /// [`NativeBackend`], whose controller keeps `Stats` frozen at zero.
    fn sim_stats(&self) -> Option<Stats>;

    /// Resets cost accounting (and the native instruction clock).
    fn reset_stats(&mut self);

    /// Fast-path coverage telemetry: which execution strategy (fused
    /// superops vs generic) actually ran. Live on both backends — the
    /// native backend dispatches through the same matchers.
    fn fastpath_stats(&self) -> &FastPathStats;
}

/// The cost-accounted SRAM-simulator backend (the paper's accelerator
/// model); wraps [`BpNtt`] unchanged — `Stats` stays bit-identical to
/// the pre-HAL stack.
#[derive(Debug)]
pub struct SimBackend {
    engine: BpNtt,
}

impl SimBackend {
    /// Provisions a simulator backend.
    ///
    /// # Errors
    ///
    /// See [`BpNtt::new`].
    pub fn new(config: BpNttConfig) -> Result<Self, BpNttError> {
        Ok(SimBackend {
            engine: BpNtt::new(config)?,
        })
    }

    /// The underlying engine (simulator-specific surfaces: `peek_row`,
    /// timing-model swaps, direct `load_batch`/`read_batch`).
    #[must_use]
    pub fn engine(&self) -> &BpNtt {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut BpNtt {
        &mut self.engine
    }
}

/// The native direct-execution CPU backend: replays the same compiled
/// programs through the same fused word-engine executors with cost
/// accounting disabled — no per-instruction `Stats`, no energy model,
/// wall clock only. Rows and fault-injection behavior are bit-identical
/// to [`SimBackend`].
#[derive(Debug)]
pub struct NativeBackend {
    engine: BpNtt,
}

impl NativeBackend {
    /// Provisions a native backend (cost accounting is disabled in the
    /// controller before any row is touched, so `Stats` stays zero for
    /// the backend's whole life).
    ///
    /// # Errors
    ///
    /// See [`BpNtt::new`].
    pub fn new(config: BpNttConfig) -> Result<Self, BpNttError> {
        Ok(NativeBackend {
            engine: BpNtt::new_native(config)?,
        })
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &BpNtt {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut BpNtt {
        &mut self.engine
    }
}

/// Provisions a backend of the requested kind — the single construction
/// seam the sharded and service layers use.
///
/// # Errors
///
/// Propagates engine construction failures (see [`BpNtt::new`]).
pub fn new_backend(
    kind: BackendKind,
    config: &BpNttConfig,
) -> Result<Box<dyn NttBackend>, BpNttError> {
    Ok(match kind {
        BackendKind::Sim => Box::new(SimBackend::new(config.clone())?),
        BackendKind::Native => Box::new(NativeBackend::new(config.clone())?),
    })
}

/// Shared passthrough plumbing: both backends delegate to [`BpNtt`];
/// they differ only in construction (cost accounting on/off) and in what
/// [`NttBackend::execute`] reports.
macro_rules! delegate_backend {
    ($ty:ty, $kind:expr, $sim_stats:expr) => {
        impl NttBackend for $ty {
            fn kind(&self) -> BackendKind {
                $kind
            }

            fn config(&self) -> &BpNttConfig {
                self.engine.config()
            }

            fn compile(
                &mut self,
                spec: &PipelineSpec,
            ) -> Result<Arc<CompiledPipeline>, BpNttError> {
                self.engine.compile_pipeline(spec)
            }

            fn execute(
                &mut self,
                pipe: &CompiledPipeline,
                mode: ExecMode,
                inputs: &[&[Vec<u64>]],
            ) -> Result<(Vec<Vec<u64>>, BackendStats), BpNttError> {
                let t = Instant::now();
                let rows = self.engine.run_compiled_pipeline(pipe, mode, inputs)?;
                let stats = BackendStats {
                    wall_secs: t.elapsed().as_secs_f64(),
                    sim: ($sim_stats)(&self.engine),
                };
                Ok((rows, stats))
            }

            fn install_pipeline(&mut self, pipe: &Arc<CompiledPipeline>) {
                self.engine.install_pipeline(pipe);
            }

            fn has_pipeline(&self, spec: &PipelineSpec) -> bool {
                self.engine.has_pipeline(spec)
            }

            fn export_programs(&self) -> Vec<(ProgramKey, Arc<CompiledProgram>)> {
                self.engine.export_programs()
            }

            fn install_program(&mut self, key: ProgramKey, prog: Arc<CompiledProgram>) {
                self.engine.install_program(key, prog);
            }

            fn cached_programs(&self) -> usize {
                self.engine.cached_programs()
            }

            fn cached_pipelines(&self) -> usize {
                self.engine.cached_pipelines()
            }

            fn set_verify_policy(&mut self, policy: VerifyPolicy) {
                self.engine.set_verify_policy(policy);
            }

            fn verifier(&mut self) -> &Verifier {
                self.engine.verifier()
            }

            fn take_verify_secs(&mut self) -> f64 {
                self.engine.take_verify_secs()
            }

            fn install_fault_plan(&mut self, plan: FaultPlan) {
                self.engine.install_fault_plan(plan);
            }

            fn clear_fault_plan(&mut self) -> FaultStats {
                self.engine.clear_fault_plan()
            }

            fn fault_stats(&self) -> Option<FaultStats> {
                self.engine.fault_stats()
            }

            fn sim_stats(&self) -> Option<Stats> {
                ($sim_stats)(&self.engine)
            }

            fn reset_stats(&mut self) {
                self.engine.reset_stats();
            }

            fn fastpath_stats(&self) -> &FastPathStats {
                self.engine.fastpath_stats()
            }
        }
    };
}

delegate_backend!(SimBackend, BackendKind::Sim, |e: &BpNtt| Some(e.stats()));
delegate_backend!(NativeBackend, BackendKind::Native, |_: &BpNtt| None);

#[cfg(test)]
mod tests {
    use super::*;
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

    fn config() -> BpNttConfig {
        BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
    }

    #[test]
    fn kind_round_trips_through_str() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("gpu".parse::<BackendKind>().is_err());
    }

    #[test]
    fn native_rows_match_sim_and_stats_stay_frozen() {
        let a: Vec<Vec<u64>> = (0..2).map(|s| pseudo(8, 97, s + 10)).collect();
        let b: Vec<Vec<u64>> = (0..2).map(|s| pseudo(8, 97, s + 20)).collect();
        let spec = PipelineSpec::polymul();

        let mut sim = new_backend(BackendKind::Sim, &config()).unwrap();
        let pipe = sim.compile(&spec).unwrap();
        let (sim_rows, sim_cost) = sim.execute(&pipe, ExecMode::Replay, &[&a, &b]).unwrap();
        assert!(sim_cost.sim.is_some_and(|s| s.cycles > 0));
        assert!(sim.sim_stats().is_some());

        let mut native = NativeBackend::new(config()).unwrap();
        // Compiled artifacts cross the seam unchanged.
        native.install_pipeline(&pipe);
        assert!(native.has_pipeline(&spec));
        let (native_rows, native_cost) =
            native.execute(&pipe, ExecMode::Replay, &[&a, &b]).unwrap();
        assert_eq!(native_rows, sim_rows);
        assert!(native_cost.wall_secs > 0.0);
        assert_eq!(native_cost.sim, None);
        assert_eq!(native.sim_stats(), None);
        // The native engine's controller froze Stats at zero.
        assert_eq!(native.engine_mut().stats().cycles, 0);
        assert_eq!(native.engine_mut().stats().energy_pj, 0.0);
    }

    #[test]
    fn native_compiles_identical_artifacts() {
        // Compiling on the native backend (instead of importing) yields
        // the same programs: both keep default cost models at compile
        // time.
        let spec = PipelineSpec::roundtrip();
        let mut sim = SimBackend::new(config()).unwrap();
        let mut native = NativeBackend::new(config()).unwrap();
        let ps = sim.compile(&spec).unwrap();
        let pn = native.compile(&spec).unwrap();
        assert_eq!(ps.spec(), pn.spec());
        let polys: Vec<Vec<u64>> = (0..3).map(|s| pseudo(8, 97, s + 40)).collect();
        // Cross-execute: sim's pipeline on native and vice versa.
        let (r1, _) = native.execute(&ps, ExecMode::Replay, &[&polys]).unwrap();
        let (r2, _) = sim.execute(&pn, ExecMode::Replay, &[&polys]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, polys);
    }

    #[test]
    fn native_fault_clock_matches_sim() {
        // A transient at a fixed instruction index corrupts both
        // backends identically — the native instruction clock mirrors
        // the costed count exactly.
        let spec = PipelineSpec::forward_ntt();
        let polys: Vec<Vec<u64>> = (0..2).map(|s| pseudo(8, 97, s + 70)).collect();
        let run = |kind: BackendKind, plan: Option<FaultPlan>| {
            let mut be = new_backend(kind, &config()).unwrap();
            let pipe = be.compile(&spec).unwrap();
            if let Some(p) = plan {
                be.install_fault_plan(p);
            }
            let (rows, _) = be.execute(&pipe, ExecMode::Replay, &[&polys]).unwrap();
            (rows, be.clear_fault_plan())
        };
        let plan = || FaultPlan::seeded(11).transient_at(900, 1, 2);
        let (clean, _) = run(BackendKind::Sim, None);
        let (sim_rows, sim_faults) = run(BackendKind::Sim, Some(plan()));
        let (native_rows, native_faults) = run(BackendKind::Native, Some(plan()));
        assert_eq!(sim_faults.transients, 1, "the injected transient fired");
        assert_eq!(native_faults.transients, 1);
        assert_eq!(native_rows, sim_rows, "identical corruption on both");
        assert_ne!(sim_rows, clean, "the fault actually corrupted output");
    }
}

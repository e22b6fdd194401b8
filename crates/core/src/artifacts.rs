//! The compiled-artifact cache: one content-addressed store for every
//! compiled program and pipeline.
//!
//! The paper's bank (Fig. 4) gives its compute subarrays one CTRL/CMD
//! subarray holding one encoded instruction stream, and banks running
//! the same operations share it. [`ArtifactCache`] is that sharing in
//! software: a compiled artifact depends only on the configuration's
//! `ConfigFingerprint` (rows, cols, bitwidth, `n`, `q` — the fast-path
//! kind follows from `cols`), so it is keyed by exactly that plus the
//! [`ProgramKey`] or [`PipelineSpec`].
//!
//! One cache is shared by `Arc` between everything that should compile
//! once: every shard of a [`ShardedBpNtt`](crate::ShardedBpNtt), every
//! tenant and RNS limb engine of an [`NttService`](crate::NttService),
//! and sibling [`RnsContext`](crate::RnsContext)s handed the same cache.
//! A standalone [`BpNtt`](crate::BpNtt) gets a private one. There is
//! deliberately no process-global cache: cold-compile measurements and
//! unrelated tests must not see each other's artifacts.
//!
//! The lock is never held while compiling; when two threads race on one
//! key, the first insert wins and both get its `Arc`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::engine::ProgramKey;
use crate::error::BpNttError;
use crate::pipeline::{CompiledPipeline, ConfigFingerprint, PipelineSpec};
use bpntt_sram::CompiledProgram;

/// A shared store of compiled programs and pipelines with one counter
/// set: [`entries`](Self::entries), [`hits`](Self::hits) and
/// [`compile_secs`](Self::compile_secs). See the [module docs](self).
#[derive(Debug, Default)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    programs: HashMap<(ConfigFingerprint, ProgramKey), Arc<CompiledProgram>>,
    pipelines: HashMap<(ConfigFingerprint, PipelineSpec), Arc<CompiledPipeline>>,
    hits: u64,
    compile_secs: f64,
}

impl ArtifactCache {
    /// Compiled pipelines held, across every configuration.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.lock().pipelines.len()
    }

    /// Pipeline lookups served without compiling. Every lookup counts —
    /// tenant registrations, per-wave resolutions and scrub probes alike
    /// — so a compile-free consumer shows as unchanged
    /// [`entries`](Self::entries), not as a particular hit count.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Wall-clock seconds spent compiling programs on cache misses.
    #[must_use]
    pub fn compile_secs(&self) -> f64 {
        self.lock().compile_secs
    }

    /// Maps can only grow, and no compile runs under the lock, so a
    /// panic elsewhere never leaves them inconsistent: ignore poisoning.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The program for `key` on `fp`, running `compile` on a miss.
    pub(crate) fn program(
        &self,
        fp: ConfigFingerprint,
        key: ProgramKey,
        compile: impl FnOnce() -> Result<CompiledProgram, BpNttError>,
    ) -> Result<Arc<CompiledProgram>, BpNttError> {
        let id = (fp, key);
        if let Some(p) = self.lock().programs.get(&id) {
            return Ok(Arc::clone(p));
        }
        let t = Instant::now();
        let fresh = Arc::new(compile()?);
        let mut inner = self.lock();
        inner.compile_secs += t.elapsed().as_secs_f64();
        Ok(Arc::clone(inner.programs.entry(id).or_insert(fresh)))
    }

    /// The pipeline for `spec` on `fp`, running `compile` on a miss
    /// (which fetches its segments through [`Self::program`]).
    pub(crate) fn pipeline(
        &self,
        fp: ConfigFingerprint,
        spec: &PipelineSpec,
        compile: impl FnOnce() -> Result<CompiledPipeline, BpNttError>,
    ) -> Result<Arc<CompiledPipeline>, BpNttError> {
        let id = (fp, spec.clone());
        {
            let mut inner = self.lock();
            if let Some(p) = inner.pipelines.get(&id).cloned() {
                inner.hits += 1;
                return Ok(p);
            }
        }
        let fresh = Arc::new(compile()?);
        Ok(Arc::clone(self.lock().pipelines.entry(id).or_insert(fresh)))
    }

    /// The programs held for one configuration.
    pub(crate) fn programs_of(&self, fp: ConfigFingerprint) -> Vec<Arc<CompiledProgram>> {
        self.lock()
            .programs
            .iter()
            .filter(|((f, _), _)| *f == fp)
            .map(|(_, p)| Arc::clone(p))
            .collect()
    }

    /// Number of pipelines held for one configuration.
    pub(crate) fn pipelines_of(&self, fp: ConfigFingerprint) -> usize {
        self.lock()
            .pipelines
            .keys()
            .filter(|(f, _)| *f == fp)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BpNttConfig;
    use crate::engine::BpNtt;
    use crate::pipeline::ExecMode;
    use bpntt_ntt::NttParams;

    fn config(cols: usize, q: u64) -> BpNttConfig {
        BpNttConfig::new(32, cols, 8, NttParams::new(8, q).unwrap()).unwrap()
    }

    fn engine(cfg: &BpNttConfig, cache: &Arc<ArtifactCache>) -> BpNtt {
        BpNtt::with_artifacts(cfg.clone(), Arc::clone(cache)).unwrap()
    }

    #[test]
    fn racing_first_compiles_share_one_pipeline() {
        const THREADS: usize = 4;
        let cache = Arc::new(ArtifactCache::default());
        let cfg = config(32, 97);
        let barrier = std::sync::Barrier::new(THREADS);
        let pipes: Vec<Arc<CompiledPipeline>> = std::thread::scope(|s| {
            let legs: Vec<_> = (0..THREADS)
                .map(|_| {
                    let mut e = engine(&cfg, &cache);
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        e.compile_pipeline(&PipelineSpec::polymul()).unwrap()
                    })
                })
                .collect();
            legs.into_iter().map(|l| l.join().unwrap()).collect()
        });
        for p in &pipes[1..] {
            assert!(Arc::ptr_eq(p, &pipes[0]), "every racer gets the winner");
        }
        assert_eq!(cache.entries(), 1);
        assert!(cache.compile_secs() > 0.0);
    }

    #[test]
    fn configurations_differing_in_one_field_never_share() {
        let cache = Arc::new(ArtifactCache::default());
        let spec = PipelineSpec::forward_ntt();
        let pipes: Vec<Arc<CompiledPipeline>> = [config(32, 97), config(32, 113), config(64, 97)]
            .iter()
            .map(|cfg| engine(cfg, &cache).compile_pipeline(&spec).unwrap())
            .collect();
        assert_eq!(cache.entries(), 3, "q and cols each key apart");
        assert_eq!(cache.hits(), 0);
        for (i, a) in pipes.iter().enumerate() {
            for b in &pipes[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        // A second engine of the first configuration compiles nothing.
        let again = engine(&config(32, 97), &cache)
            .compile_pipeline(&spec)
            .unwrap();
        assert!(Arc::ptr_eq(&again, &pipes[0]));
        assert_eq!((cache.entries(), cache.hits()), (3, 1));
    }

    #[test]
    fn cached_pipelines_keep_the_fingerprint_check() {
        let cache = Arc::new(ArtifactCache::default());
        let cfg = config(32, 97);
        let pipe = engine(&cfg, &cache)
            .compile_pipeline(&PipelineSpec::forward_ntt())
            .unwrap();
        let polys = vec![vec![1u64, 2, 3, 4, 5, 6, 7, 8]];
        let mut matching = engine(&cfg, &cache);
        assert!(matching
            .run_compiled_pipeline(&pipe, ExecMode::Replay, &[&polys])
            .is_ok());
        let mut other = engine(&config(32, 113), &cache);
        assert!(matches!(
            other.run_compiled_pipeline(&pipe, ExecMode::Replay, &[&polys]),
            Err(BpNttError::InvalidPipeline { .. })
        ));
    }
}

//! Property tests for the backend HAL: the native direct-execution
//! backend must produce rows **bit-identical** to the cost-accounted
//! simulator backend for the same compiled pipelines — across the
//! Kyber-class (7681), Dilithium (8 380 417), and HE-level
//! (1 073 738 753) parameter sets, under **both** [`ExecMode`]s,
//! for both canned graphs (polymul and the spectral NTT-domain-cached
//! product). The native backend's `Stats` must stay frozen at zero (no
//! cost accounting ran), its outputs must match the software reference,
//! and the service layer must be able to run tenants on both backends in
//! one process — including the full detect→retry→quarantine→degrade
//! recovery ladder under injected faults, exercised per backend.

use proptest::prelude::*;

use bpntt_core::{
    new_backend, BackendKind, BpNttConfig, BpNttError, ExecMode, FaultPlan, NttService,
    PipelineSpec, RecoveryOptions, ServiceOptions, ShardedBpNtt, VerifyPolicy,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::{NttParams, TwiddleTable};

/// The three parameter sets on polymul-capable geometries (two operand
/// slots: `2N + 6 ≤ rows`, single tile) — the same sweep the pipeline
/// equivalence proptests use.
fn config(idx: usize) -> BpNttConfig {
    match idx {
        // Kyber-class prime, 14-bit tiles.
        0 => BpNttConfig::new(140, 128, 14, NttParams::new(64, 7681).unwrap()).unwrap(),
        // Dilithium prime, 24-bit tiles.
        1 => BpNttConfig::new(140, 128, 24, NttParams::new(64, 8_380_417).unwrap()).unwrap(),
        // HE RNS limb prime, 31-bit tiles.
        _ => BpNttConfig::new(140, 128, 31, NttParams::new(64, 1_073_738_753).unwrap()).unwrap(),
    }
}

fn pseudo_batch(cfg: &BpNttConfig, lanes: usize, seed: u64) -> Vec<Vec<u64>> {
    let n = cfg.params().n();
    let q = cfg.params().modulus();
    let mut x = seed | 1;
    (0..lanes)
        .map(|_| {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % q
                })
                .collect()
        })
        .collect()
}

/// Runs one spec on both backends in every `ExecMode` — the *same*
/// compiled pipeline crosses the seam (compiled on sim, executed as is
/// on native) — and asserts bit-identical rows, a frozen native `Stats`,
/// and agreement with the software reference outputs.
fn assert_backends_equivalent(cfg: &BpNttConfig, spec: &PipelineSpec, seed: u64) {
    let lanes = cfg.layout().lanes();
    let batch = 1 + (seed as usize) % lanes;
    let inputs: Vec<Vec<Vec<u64>>> = (0..spec.input_slots().len())
        .map(|s| {
            pseudo_batch(
                cfg,
                batch,
                seed.wrapping_add(s as u64 * 0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect();
    let slots: Vec<&[Vec<u64>]> = inputs.iter().map(Vec::as_slice).collect();

    let mut sim = new_backend(BackendKind::Sim, cfg).unwrap();
    let pipe = sim.compile(spec).unwrap();
    let mut native = new_backend(BackendKind::Native, cfg).unwrap();

    for mode in ExecMode::ALL {
        let (sim_rows, sim_cost) = sim.execute(&pipe, mode, &slots).unwrap();
        let (native_rows, native_cost) = native.execute(&pipe, mode, &slots).unwrap();
        assert_eq!(native_rows, sim_rows, "{mode:?} seed {seed}");
        // The simulator accounted; the native backend never does.
        assert!(
            sim_cost.sim.is_some_and(|s| s.cycles > 0),
            "{mode:?} sim accounting ran"
        );
        assert_eq!(native_cost.sim, None, "{mode:?}");
        assert_eq!(
            native.sim_stats(),
            None,
            "{mode:?}: native backends never expose Stats"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// native ≡ sim, polymul graph, Kyber-class set, all modes.
    #[test]
    fn kyber_native_matches_sim_polymul(seed in any::<u64>()) {
        assert_backends_equivalent(&config(0), &PipelineSpec::polymul(), seed);
    }

    /// native ≡ sim, polymul graph, Dilithium set, all modes.
    #[test]
    fn dilithium_native_matches_sim_polymul(seed in any::<u64>()) {
        assert_backends_equivalent(&config(1), &PipelineSpec::polymul(), seed);
    }

    /// native ≡ sim, polymul graph, HE-level set, all modes.
    #[test]
    fn he_level_native_matches_sim_polymul(seed in any::<u64>()) {
        assert_backends_equivalent(&config(2), &PipelineSpec::polymul(), seed);
    }

    /// native ≡ sim, spectral (NTT-domain-cached) graph, all sets, all
    /// modes.
    #[test]
    fn spectral_native_matches_sim(seed in any::<u64>(), idx in 0usize..3) {
        assert_backends_equivalent(&config(idx), &PipelineSpec::polymul_spectral(), seed);
    }
}

/// A native sharded wave agrees with a sim sharded wave on the same
/// batch, matches the software reference, and reports all-zero simulator
/// stats but nonzero wall clock.
#[test]
fn native_sharded_wave_matches_sim_wave() {
    let cfg = config(1);
    let params = cfg.params().clone();
    let lanes = cfg.layout().lanes();
    let batch = 2 * lanes + 1; // three chunks, last partial
    let a = pseudo_batch(&cfg, batch, 210);
    let b = pseudo_batch(&cfg, batch, 211);

    let mut sim = ShardedBpNtt::new(&cfg, 3).unwrap();
    assert_eq!(sim.backend_kind(), BackendKind::Sim);
    let sim_out = sim.polymul_batch(&a, &b).unwrap();

    let mut native = ShardedBpNtt::with_backend(&cfg, 3, BackendKind::Native).unwrap();
    assert_eq!(native.backend_kind(), BackendKind::Native);
    let native_out = native.polymul_batch(&a, &b).unwrap();

    assert_eq!(native_out, sim_out);
    for (i, out) in native_out.iter().enumerate() {
        let expect = polymul_schoolbook(&params, &a[i], &b[i]).unwrap();
        assert_eq!(out, &expect, "pair {i}");
    }
    assert!(sim.stats().cycles > 0, "sim shards account");
    let ns = native.stats();
    assert_eq!(ns.cycles, 0, "native shards never account");
    assert_eq!(ns.counts.total(), 0);
    assert_eq!(ns.energy_pj, 0.0);
    assert!(
        native.last_wave_shard_secs().iter().all(|&s| s > 0.0),
        "wall clock is the native metric"
    );
}

/// One service process, two tenants of the *same configuration* on
/// *different backends*: both answer correctly, and the artifact cache
/// keys them separately (registering the second kind compiles its own
/// entries; a second tenant of a kind compiles none).
#[test]
fn service_runs_mixed_backend_tenants_with_backend_keyed_cache() {
    let cfg = config(0);
    let params = cfg.params().clone();
    let t = TwiddleTable::new(&params);
    let service = NttService::start(&cfg, ServiceOptions::default()).unwrap();
    let sim_tenant = service.default_tenant();
    let sim_only = service.metrics();
    let native_tenant = service
        .add_tenant_with_backend(&cfg, BackendKind::Native)
        .unwrap();
    // Same configuration, different kind → keyed apart: the native
    // registration compiles as many entries as the sim one did, and
    // finds none of the sim tenant's.
    let m = service.metrics();
    assert_eq!(
        m.pipeline_cache_entries,
        2 * sim_only.pipeline_cache_entries,
        "one set of canned pipelines per backend kind"
    );
    assert_eq!(
        m.pipeline_cache_hits, sim_only.pipeline_cache_hits,
        "no cross-backend cache hit"
    );
    // A *third* tenant on the native backend compiles nothing.
    service
        .add_tenant_with_backend(&cfg, BackendKind::Native)
        .unwrap();
    let third = service.metrics();
    assert_eq!(third.pipeline_cache_entries, m.pipeline_cache_entries);
    assert_eq!(third.pipeline_compile_ms, m.pipeline_compile_ms);
    assert!(
        third.pipeline_cache_hits >= m.pipeline_cache_hits + 3,
        "same-kind registration looks up all 3 canned pipelines"
    );

    let poly = pseudo_batch(&cfg, 1, 300).remove(0);
    let mut expect = poly.clone();
    ntt_in_place(&params, &t, &mut expect).unwrap();
    let sim_got = service
        .submit_forward_as(sim_tenant, poly.clone())
        .unwrap()
        .wait()
        .unwrap();
    let native_got = service
        .submit_forward_as(native_tenant, poly)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(sim_got, expect);
    assert_eq!(native_got, expect, "native tenant answers bit-identically");
    let _ = service.shutdown();
}

/// The PR 6 recovery ladder under injected faults, exercised on one
/// backend kind end to end through the service: a persistent dead row
/// corrupts every chunk, verification detects it, retries burn out,
/// shards quarantine, and the software fallback still returns the
/// correct answer for every polynomial.
fn fault_drill(kind: BackendKind) {
    let cfg = config(0);
    let params = cfg.params().clone();
    let t = TwiddleTable::new(&params);
    let service = NttService::start(
        &cfg,
        ServiceOptions {
            shards: 2,
            verify: VerifyPolicy::Full,
            retry_budget: 1,
            fault_plan: Some(FaultPlan::seeded(17).dead_row(2)),
            backend: kind,
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let polys = pseudo_batch(&cfg, 6, 400 + kind as u64);
    let tickets: Vec<_> = polys
        .iter()
        .map(|p| service.submit_forward(p.clone()).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap();
        let mut expect = polys[i].clone();
        ntt_in_place(&params, &t, &mut expect).unwrap();
        assert_eq!(
            got, expect,
            "{kind}: poly {i} must be correct via the ladder"
        );
    }
    let m = service.shutdown();
    assert!(m.faults_detected > 0, "{kind}: detection fired");
    assert!(m.fallback_polys > 0, "{kind}: degrade rung answered");
    assert!(m.quarantined_shards > 0, "{kind}: quarantine engaged");
}

/// Recovery ladder drill on the simulator backend.
#[test]
fn recovery_ladder_drill_on_sim_backend() {
    fault_drill(BackendKind::Sim);
}

/// Recovery ladder drill on the native backend — fault injection fires
/// at the same instruction clock with cost accounting compiled out.
#[test]
fn recovery_ladder_drill_on_native_backend() {
    fault_drill(BackendKind::Native);
}

/// The native backend honors the retry rung without the full service: a
/// transient fault consumed by the failed attempt lets the same-shard
/// retry succeed, identically to the simulator.
#[test]
fn native_sharded_retry_consumes_transient() {
    for kind in BackendKind::ALL {
        let cfg = config(0);
        let params = cfg.params().clone();
        let t = TwiddleTable::new(&params);
        let mut sharded = ShardedBpNtt::with_backend(&cfg, 2, kind).unwrap();
        sharded.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 2,
            software_fallback: true,
        });
        sharded.install_fault_plan(&FaultPlan::seeded(23).transient_at(500, 1, 3));
        let batch = pseudo_batch(&cfg, 5, 510);
        let got = sharded.forward_batch(&batch).unwrap();
        for (i, p) in batch.iter().enumerate() {
            let mut expect = p.clone();
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got[i], expect, "{kind}: poly {i}");
        }
        let r = sharded.recovery_totals();
        assert!(
            r.faults_detected > 0 && r.retries > 0,
            "{kind}: the transient was detected and retried (report: {r:?})"
        );
    }
}

/// Cross-backend pipeline installs reject mismatched configurations the
/// same way same-backend installs do — the fingerprint check is
/// backend-independent.
#[test]
fn native_rejects_foreign_fingerprints() {
    let mut sim = new_backend(BackendKind::Sim, &config(0)).unwrap();
    let pipe = sim.compile(&PipelineSpec::forward_ntt()).unwrap();
    let mut native = new_backend(BackendKind::Native, &config(1)).unwrap();
    let batch = pseudo_batch(&config(0), 1, 600);
    let err = native
        .execute(&pipe, ExecMode::Replay, &[&batch])
        .unwrap_err();
    assert!(matches!(err, BpNttError::InvalidPipeline { .. }));
}

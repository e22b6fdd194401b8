//! Concurrent-client stress tests for the request-queue service: N
//! client threads submit interleaved forward and polymul requests, the
//! dispatcher coalesces them into waves over the sharded engines, and
//! every result must be bit-exact against the software NTT reference.
//!
//! The CI matrix runs this file twice — once with the runtime-dispatched
//! SIMD word-engine and once with `BPNTT_FORCE_SCALAR=1` — and
//! `mixed_clients_on_forced_scalar_path` additionally pins the scalar
//! fallback in-process so both kernel paths are exercised regardless of
//! the ambient environment (the two paths are bit-identical by
//! construction, so process-wide toggling is safe).

use std::time::Duration;

use bpntt_core::{
    BpNttConfig, BpNttError, ExecMode, NttService, PipelineRequest, PipelineSpec, ServiceOptions,
    TenantId,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::{NttParams, Polynomial, TwiddleTable};

fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
    Polynomial::pseudo_random(&NttParams::new(n, q).unwrap(), seed).into_coeffs()
}

/// 8-point mod-97 config with polymul capacity (2·8 + 6 ≤ 32 rows).
fn config8() -> BpNttConfig {
    BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
}

/// 16-point mod-193 config for the second tenant (2·16 + 6 ≤ 44 rows).
fn config16() -> BpNttConfig {
    BpNttConfig::new(44, 64, 9, NttParams::new(16, 193).unwrap()).unwrap()
}

/// Submits `per_client` mixed requests from each of `clients` threads
/// (2:1 forward:polymul) and verifies every ticket against the software
/// reference. Returns the completed-request count.
fn run_mixed_stress(
    service: &NttService,
    tenant: TenantId,
    params: &NttParams,
    clients: u64,
    per_client: u64,
) -> u64 {
    let n = params.n();
    let q = params.modulus();
    let twiddles = TwiddleTable::new(params);
    let mut completed = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let twiddles = &twiddles;
            handles.push(scope.spawn(move || {
                let mut done = 0u64;
                for r in 0..per_client {
                    let seed = c * 10_000 + r * 17 + 1;
                    if r % 3 == 2 {
                        let a = pseudo(n, q, seed);
                        let b = pseudo(n, q, seed + 7);
                        let ticket = submit_with_retry(|| {
                            service.submit_polymul_as(tenant, a.clone(), b.clone())
                        });
                        let got = ticket.wait().unwrap();
                        let expect = polymul_schoolbook(params, &a, &b).unwrap();
                        assert_eq!(got, expect, "polymul diverged (client {c}, req {r})");
                    } else {
                        let p = pseudo(n, q, seed);
                        let ticket =
                            submit_with_retry(|| service.submit_forward_as(tenant, p.clone()));
                        let got = ticket.wait().unwrap();
                        let mut expect = p.clone();
                        ntt_in_place(params, twiddles, &mut expect).unwrap();
                        assert_eq!(got, expect, "forward diverged (client {c}, req {r})");
                    }
                    done += 1;
                }
                done
            }));
        }
        for h in handles {
            completed += h.join().expect("client thread panicked");
        }
    });
    completed
}

/// Retries a submission through `Overloaded` backpressure (the typed
/// error is the signal to drain and retry, not a failure).
fn submit_with_retry<T>(mut submit: impl FnMut() -> Result<T, BpNttError>) -> T {
    loop {
        match submit() {
            Ok(t) => return t,
            Err(BpNttError::Overloaded { .. }) => std::thread::yield_now(),
            Err(e) => panic!("submission failed: {e}"),
        }
    }
}

#[test]
fn concurrent_mixed_clients_match_reference() {
    let params = NttParams::new(8, 97).unwrap();
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            shards: 2,
            max_queue: 64,
            coalesce_window: Duration::from_millis(2),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let tenant = service.default_tenant();
    let completed = run_mixed_stress(&service, tenant, &params, 4, 24);
    assert_eq!(completed, 96);
    let m = service.shutdown();
    assert_eq!(m.completed, 96);
    assert_eq!(m.failed, 0);
    assert!(m.waves >= 1);
    assert!(
        m.waves < m.completed,
        "coalescing must batch requests into fewer waves than requests \
         ({} waves for {} requests)",
        m.waves,
        m.completed
    );
    assert!(m.wave_occupancy > 0.0 && m.wave_occupancy <= 1.0);
    assert!(m.shard_secs_max >= m.shard_secs_p90);
    assert!(m.shard_secs_p90 >= m.shard_secs_p50);
    assert!(m.shard_secs_p50 > 0.0);
}

#[test]
fn mixed_clients_on_forced_scalar_path() {
    // Pin the scalar word-engine in-process; results must stay bit-exact
    // (they are bit-identical to the SIMD path by construction). Restore
    // the *prior* dispatch afterwards — force_scalar(false) ignores
    // BPNTT_FORCE_SCALAR, so unconditionally resetting would silently
    // un-pin the CI scalar leg for concurrently running tests.
    let was_simd = bpntt_sram::simd_active();
    bpntt_sram::force_scalar(true);
    let params = NttParams::new(8, 97).unwrap();
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            shards: 2,
            max_queue: 64,
            coalesce_window: Duration::from_micros(500),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let completed = run_mixed_stress(&service, service.default_tenant(), &params, 3, 12);
    bpntt_sram::force_scalar(!was_simd);
    assert_eq!(completed, 36);
    let m = service.shutdown();
    assert_eq!(m.completed, 36);
    assert_eq!(m.failed, 0);
}

#[test]
fn multi_tenant_clients_share_the_program_cache() {
    let params8 = NttParams::new(8, 97).unwrap();
    let params16 = NttParams::new(16, 193).unwrap();
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            shards: 2,
            max_queue: 128,
            coalesce_window: Duration::from_micros(500),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let t8 = service.default_tenant();
    let t16 = service.add_tenant(&config16()).unwrap();
    // A third tenant with the default tenant's exact configuration must
    // find its pipelines in the shared cache instead of recompiling.
    let two_configs = service.metrics();
    let t8_clone = service.add_tenant(&config8()).unwrap();
    let cloned = service.metrics();
    assert_eq!(
        cloned.pipeline_cache_entries, two_configs.pipeline_cache_entries,
        "the cloned tenant must compile nothing"
    );
    assert_eq!(cloned.pipeline_compile_ms, two_configs.pipeline_compile_ms);
    assert!(
        cloned.pipeline_cache_hits >= two_configs.pipeline_cache_hits + 3,
        "the cloned tenant must look up all 3 canned pipelines"
    );

    // Interleave clients of all three tenants.
    std::thread::scope(|scope| {
        let service = &service;
        let params8 = &params8;
        let params16 = &params16;
        scope.spawn(move || run_mixed_stress(service, t8, params8, 2, 12));
        scope.spawn(move || run_mixed_stress(service, t16, params16, 2, 12));
        scope.spawn(move || run_mixed_stress(service, t8_clone, params8, 2, 12));
    });

    let m = service.shutdown();
    assert_eq!(m.completed, 72);
    assert_eq!(m.failed, 0);
    assert_eq!(m.tenants, 3);
    assert_eq!(
        m.pipeline_cache_entries, two_configs.pipeline_cache_entries,
        "the mixed traffic runs only the two configurations' canned specs"
    );
}

#[test]
fn pipeline_requests_coalesce_and_match_reference() {
    // Custom op-graphs through submit_pipeline: concurrent clients run
    // the spectral (NTT-domain-cached) product — pointwise + scaled
    // inverse on host-cached spectra — and a roundtrip graph; every
    // result checks bit-exactly against the software reference.
    let params = NttParams::new(8, 97).unwrap();
    let twiddles = TwiddleTable::new(&params);
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            shards: 2,
            max_queue: 64,
            coalesce_window: Duration::from_micros(500),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let spectrum = |p: &[u64]| {
        let mut s = p.to_vec();
        ntt_in_place(&params, &twiddles, &mut s).unwrap();
        s
    };
    std::thread::scope(|scope| {
        for c in 0..3u64 {
            let service = &service;
            let params = &params;
            let spectrum = &spectrum;
            scope.spawn(move || {
                for r in 0..8u64 {
                    let seed = c * 1000 + r * 13 + 1;
                    let a = pseudo(8, 97, seed);
                    let b = pseudo(8, 97, seed + 5);
                    let ticket = submit_with_retry(|| {
                        service.submit_pipeline(PipelineRequest::new(
                            PipelineSpec::polymul_spectral(),
                            vec![spectrum(&a), spectrum(&b)],
                        ))
                    });
                    let expect = polymul_schoolbook(params, &a, &b).unwrap();
                    assert_eq!(ticket.wait().unwrap(), expect, "client {c} req {r}");

                    let p = pseudo(8, 97, seed + 11);
                    let ticket = submit_with_retry(|| {
                        service.submit_pipeline(PipelineRequest::new(
                            PipelineSpec::roundtrip(),
                            vec![p.clone()],
                        ))
                    });
                    assert_eq!(ticket.wait().unwrap(), p, "roundtrip client {c} req {r}");
                }
            });
        }
    });
    let m = service.shutdown();
    assert_eq!(m.completed, 48);
    assert_eq!(m.failed, 0);
    assert!(
        m.pipeline_cache_entries >= 4,
        "forward+roundtrip (registration) plus the novel spectral spec \
         must be cached ({} entries)",
        m.pipeline_cache_entries
    );
}

#[test]
fn pipeline_submission_validates_eagerly() {
    let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
    // Input-count mismatch against the spec's declared slots.
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::polymul(),
            vec![pseudo(8, 97, 1)],
        )),
        Err(BpNttError::InvalidPipeline { .. })
    ));
    // Wrong length and unreduced coefficients, validated per polynomial
    // against the tenant's params.n/q at submit time.
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::forward_ntt(),
            vec![vec![0; 7]],
        )),
        Err(BpNttError::WrongLength {
            expected: 8,
            actual: 7
        })
    ));
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::forward_ntt(),
            vec![vec![97; 8]],
        )),
        Err(BpNttError::Unreduced { value: 97, .. })
    ));
    // No output slot, no input slots, structural defects.
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::new().input(0).forward(0),
            vec![pseudo(8, 97, 2)],
        )),
        Err(BpNttError::InvalidPipeline { .. })
    ));
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::new().forward(0).output(0),
            vec![],
        )),
        Err(BpNttError::InvalidPipeline { .. })
    ));
    // Slot capacity against the tenant's layout (config8 fits 3 slots of
    // 8 points in 26 usable rows; slot 3 exceeds it).
    assert!(matches!(
        service.submit_pipeline(PipelineRequest::new(
            PipelineSpec::new().input(0).forward(3).output(0),
            vec![pseudo(8, 97, 3)],
        )),
        Err(BpNttError::CapacityExceeded { .. })
    ));
    let m = service.shutdown();
    assert_eq!(m.submitted, 0, "invalid requests never enter the queue");
}

#[test]
fn pipeline_modes_agree_through_the_service() {
    // The same graph under every execution mode returns the schoolbook
    // product through the service path.
    let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
    let a = pseudo(8, 97, 21);
    let b = pseudo(8, 97, 22);
    let params = NttParams::new(8, 97).unwrap();
    let expected = polymul_schoolbook(&params, &a, &b).unwrap();
    for mode in ExecMode::ALL {
        let ticket = service
            .submit_pipeline(
                PipelineRequest::new(PipelineSpec::polymul(), vec![a.clone(), b.clone()])
                    .with_mode(mode),
            )
            .unwrap();
        assert_eq!(ticket.wait().unwrap(), expected, "{mode:?}");
    }
}

#[test]
fn backpressure_is_typed_and_counted() {
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            max_queue: 0,
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    for _ in 0..3 {
        assert!(matches!(
            service.submit_forward(pseudo(8, 97, 5)),
            Err(BpNttError::Overloaded {
                depth: 0,
                capacity: 0,
                ..
            })
        ));
    }
    let m = service.shutdown();
    assert_eq!(m.rejected, 3);
    assert_eq!(m.submitted, 0);
}

/// Chaos scenario: mixed-tenant load under injected SRAM transients,
/// full verification, and a scattering of tight deadlines. Invariants:
/// every non-deadline request completes with the reference-exact
/// result (zero corrupted escapes), deadline-expired tickets fail typed
/// with `DeadlineExpired` and never block their callers, and the
/// recovery counters surface in the metrics JSON.
#[test]
fn chaos_mixed_tenants_with_faults_and_tight_deadlines() {
    use bpntt_core::{FaultPlan, VerifyPolicy};
    let params8 = NttParams::new(8, 97).unwrap();
    let params16 = NttParams::new(16, 193).unwrap();
    let service = NttService::start(
        &config8(),
        ServiceOptions {
            shards: 2,
            max_queue: 128,
            coalesce_window: Duration::from_millis(1),
            verify: VerifyPolicy::Full,
            retry_budget: 2,
            fault_plan: Some(FaultPlan::seeded(0xC0FFEE).transient_rate(2e-4)),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let t8 = service.default_tenant();
    let t16 = service.add_tenant(&config16()).unwrap();

    // Tight-deadline probes interleaved with the load: zero-deadline
    // requests expire on the dispatcher's first look, typed, and the
    // ticket resolves instead of hanging.
    let mut doomed = Vec::new();
    std::thread::scope(|scope| {
        let service = &service;
        let params8 = &params8;
        let params16 = &params16;
        scope.spawn(move || run_mixed_stress(service, t8, params8, 3, 16));
        scope.spawn(move || run_mixed_stress(service, t16, params16, 3, 16));
        for s in 0..6 {
            doomed.push(submit_with_retry(|| {
                service.submit_pipeline(
                    PipelineRequest::new(PipelineSpec::forward_ntt(), vec![pseudo(8, 97, 900 + s)])
                        .with_tenant(t8)
                        .with_deadline(Duration::ZERO),
                )
            }));
        }
    });
    let mut expired = 0u64;
    for t in doomed {
        // Bounded wait: an expired ticket must resolve, never block.
        match t
            .wait_timeout(Duration::from_secs(30))
            .expect("deadline ticket hung")
        {
            Err(BpNttError::DeadlineExpired { .. }) => expired += 1,
            Ok(out) => assert_eq!(out.len(), 8, "raced the dispatcher and completed"),
            Err(e) => panic!("unexpected error for deadline probe: {e}"),
        }
    }
    let m = service.shutdown();
    assert_eq!(
        m.completed + m.failed,
        m.submitted,
        "every accepted request resolved"
    );
    assert_eq!(
        m.failed, m.deadline_expired,
        "only deadline probes may fail"
    );
    assert_eq!(m.deadline_expired, expired);
    assert!(m.verify_ms > 0.0, "verification ran");
    let json = m.to_json();
    for key in [
        "\"faults_detected\"",
        "\"retries\"",
        "\"quarantined_shards\"",
        "\"fallback_polys\"",
        "\"deadline_expired\"",
        "\"verify_ms\"",
    ] {
        assert!(json.contains(key), "missing {key} in metrics JSON");
    }
}

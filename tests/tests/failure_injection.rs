//! Failure injection, in two halves:
//!
//! 1. **Rejection paths** — every public construction and loading path
//!    rejects invalid input with a specific, typed error.
//! 2. **Fault drills** — seeded SRAM [`FaultPlan`]s (transient bit
//!    flips, stuck-at cells, dead rows, hard faults) run against every
//!    execution mode with output verification armed, exercising the
//!    detect → retry → quarantine → degrade recovery ladder end to end.
//!    The drills' core invariant: **no corrupted polynomial is ever
//!    returned as verified** — a run either produces the
//!    reference-exact result or fails with a typed error.

use bpntt_core::{
    BpNtt, BpNttConfig, BpNttError, ExecMode, FaultPlan, Layout, NttService, PipelineSpec,
    RecoveryOptions, ServiceOptions, ShardedBpNtt, VerifyPolicy,
};
use bpntt_modmath::ModMathError;
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::{NttError, NttParams, Polynomial, TwiddleTable};
use bpntt_sram::{Controller, Instruction, RowAddr, SramArray, SramError};
use proptest::prelude::*;

#[test]
fn modmath_rejections() {
    use bpntt_modmath::montgomery::MontCtx;
    assert!(matches!(
        MontCtx::new(10, 8),
        Err(ModMathError::EvenModulus { .. })
    ));
    assert!(matches!(
        MontCtx::new(1, 8),
        Err(ModMathError::ModulusTooSmall { .. })
    ));
    assert!(matches!(
        MontCtx::new(511, 8),
        Err(ModMathError::ModulusTooWide { .. })
    ));
    assert!(matches!(
        bpntt_modmath::zq::inv_mod(4, 8),
        Err(ModMathError::NotInvertible { .. })
    ));
    assert!(matches!(
        bpntt_modmath::roots::primitive_nth_root(3, 17),
        Err(ModMathError::NoRootOfUnity { .. })
    ));
}

#[test]
fn ntt_rejections() {
    assert!(matches!(
        NttParams::new(100, 12_289),
        Err(NttError::InvalidLength { .. })
    ));
    assert!(matches!(
        NttParams::new(256, 12_288),
        Err(NttError::ModulusNotPrime { .. })
    ));
    assert!(matches!(
        NttParams::new(256, 3329),
        Err(NttError::UnsupportedModulus { .. })
    ));
    let p = NttParams::new(8, 97).unwrap();
    let tw = bpntt_ntt::TwiddleTable::new(&p);
    let mut wrong_len = vec![0u64; 4];
    assert!(matches!(
        bpntt_ntt::forward::ntt_in_place(&p, &tw, &mut wrong_len),
        Err(NttError::LengthMismatch { .. })
    ));
    let mut unreduced = vec![97u64; 8];
    assert!(matches!(
        bpntt_ntt::forward::ntt_in_place(&p, &tw, &mut unreduced),
        Err(NttError::UnreducedCoefficient { .. })
    ));
}

#[test]
fn sram_rejections() {
    assert!(matches!(
        SramArray::new(0, 64),
        Err(SramError::BadGeometry { .. })
    ));
    assert!(matches!(
        SramArray::new(2048, 64),
        Err(SramError::BadGeometry { .. })
    ));
    let arr = SramArray::new(8, 64).unwrap();
    assert!(matches!(
        Controller::new(arr, 48),
        Err(SramError::BadTileWidth { .. })
    ));

    let mut ctl = Controller::new(SramArray::new(8, 64).unwrap(), 16).unwrap();
    assert!(matches!(
        ctl.execute(&Instruction::CheckZero { src: RowAddr(8) }),
        Err(SramError::RowOutOfRange { .. })
    ));
    assert!(matches!(
        ctl.execute(&Instruction::Check {
            src: RowAddr(0),
            bit: 16
        }),
        Err(SramError::CheckBitOutOfRange { .. })
    ));
    // Unknown opcodes and malformed words fail to decode.
    assert!(matches!(
        Instruction::decode(0x7),
        Err(SramError::BadOpcode { .. })
    ));
    assert!(matches!(
        Instruction::decode(0xF),
        Err(SramError::BadOpcode { .. })
    ));
}

#[test]
fn config_rejections() {
    let p14 = NttParams::dac_256_14bit().unwrap();
    assert!(matches!(
        BpNttConfig::new(262, 256, 1, p14.clone()),
        Err(BpNttError::InvalidBitwidth { .. })
    ));
    assert!(matches!(
        BpNttConfig::new(262, 8, 16, p14.clone()),
        Err(BpNttError::ArrayTooNarrow { .. })
    ));
    assert!(matches!(
        BpNttConfig::new(262, 256, 14, p14.clone()),
        Err(BpNttError::NoHeadroom { .. })
    ));
    // 4096-point at 16 bits does not fit a 262×256 array.
    assert!(matches!(
        NttParams::new(4096, 40_961)
            .map_err(BpNttError::from)
            .and_then(|p| BpNttConfig::new(262, 256, 17, p)),
        Err(BpNttError::CapacityExceeded { .. })
    ));
}

#[test]
fn engine_load_rejections() {
    let cfg = BpNttConfig::new(16, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
    let mut acc = BpNtt::new(cfg).unwrap();
    assert!(matches!(
        acc.load_batch(&vec![vec![0u64; 8]; 99]),
        Err(BpNttError::BatchTooLarge { .. })
    ));
    assert!(matches!(
        acc.load_batch(&[vec![0u64; 9]]),
        Err(BpNttError::WrongLength { .. })
    ));
    assert!(matches!(
        acc.load_batch(&[vec![1000u64; 8]]),
        Err(BpNttError::Unreduced { .. })
    ));
    // Polynomial multiplication requires room for both operands.
    let a = vec![vec![0u64; 8]];
    assert!(matches!(
        acc.polymul(&a, &a),
        Err(BpNttError::CapacityExceeded { .. })
    ));
}

#[test]
fn layout_capacity_rejections() {
    assert!(matches!(
        Layout::new(256, 256, 16, 4096),
        Err(BpNttError::CapacityExceeded { .. })
    ));
    assert!(matches!(
        Layout::new(256, 8, 16, 8),
        Err(BpNttError::ArrayTooNarrow { .. })
    ));
}

#[test]
fn errors_format_and_chain() {
    use std::error::Error;
    let e = BpNttError::from(SramError::BadOpcode { opcode: 7 });
    assert!(e.source().is_some());
    assert!(!e.to_string().is_empty());
    let e = BpNttError::from(NttError::InvalidLength { n: 3 });
    assert!(e.to_string().contains('3'));
}

// ---------------------------------------------------------------------
// Fault drills
// ---------------------------------------------------------------------

/// 8-point mod-97 config with polymul capacity.
fn drill_config() -> BpNttConfig {
    BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
}

fn pseudo(seed: u64) -> Vec<u64> {
    Polynomial::pseudo_random(&NttParams::new(8, 97).unwrap(), seed).into_coeffs()
}

fn forward_reference(p: &[u64]) -> Vec<u64> {
    let params = NttParams::new(8, 97).unwrap();
    let tw = TwiddleTable::new(&params);
    let mut v = p.to_vec();
    ntt_in_place(&params, &tw, &mut v).unwrap();
    v
}

/// Every fault mode × every execution mode on a single verified engine:
/// a run either returns the reference-exact spectra or fails with
/// `IntegrityFailure` — corrupted output is never returned as verified.
/// The dead-row plan (certain corruption of pseudo-random data) must
/// additionally be *detected* at least once per mode.
#[test]
fn fault_drill_no_corrupted_output_escapes_any_mode() {
    let plans: [(&str, FaultPlan); 3] = [
        ("transient", FaultPlan::seeded(3).transient_rate(5e-4)),
        ("stuck-at", FaultPlan::seeded(4).stuck_at(1, 3, true)),
        ("dead-row", FaultPlan::seeded(5).dead_row(2)),
    ];
    let polys: Vec<Vec<u64>> = (1u64..=4).map(pseudo).collect();
    let expect: Vec<Vec<u64>> = polys.iter().map(|p| forward_reference(p)).collect();
    for mode in ExecMode::ALL {
        for (name, plan) in &plans {
            let mut acc = BpNtt::new(drill_config()).unwrap();
            acc.set_verify_policy(VerifyPolicy::Full);
            acc.install_fault_plan(plan.clone());
            let mut detected = 0u32;
            for round in 0..6 {
                match acc.run_pipeline(&PipelineSpec::forward_ntt(), mode, &[&polys]) {
                    Ok(out) => assert_eq!(
                        out, expect,
                        "corrupted output returned verified ({name}, {mode:?}, round {round})"
                    ),
                    Err(BpNttError::IntegrityFailure { .. }) => detected += 1,
                    Err(e) => panic!("unexpected error class ({name}, {mode:?}): {e}"),
                }
            }
            if *name == "dead-row" {
                assert!(detected > 0, "dead row escaped detection ({mode:?})");
            }
        }
    }
}

/// Transient chaos against the full recovery ladder, per execution
/// mode: every wave completes with reference-exact results, and the
/// ladder's counters show detection and retries actually happened.
#[test]
fn fault_drill_ladder_recovers_transients_every_mode() {
    let polys: Vec<Vec<u64>> = (10u64..18).map(pseudo).collect();
    let expect: Vec<Vec<u64>> = polys.iter().map(|p| forward_reference(p)).collect();
    for mode in ExecMode::ALL {
        let mut eng = ShardedBpNtt::new(&drill_config(), 2).unwrap();
        eng.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 3,
            software_fallback: true,
        });
        eng.install_fault_plan(&FaultPlan::seeded(11).transient_rate(1e-3));
        for round in 0..6 {
            let out = eng
                .run_pipeline_batch(&PipelineSpec::forward_ntt(), mode, &[&polys])
                .unwrap_or_else(|e| panic!("ladder failed ({mode:?}, round {round}): {e}"));
            assert_eq!(
                out, expect,
                "escape past the ladder ({mode:?}, round {round})"
            );
        }
        let totals = eng.recovery_totals();
        assert!(
            totals.faults_detected > 0,
            "chaos rate injected nothing ({mode:?}); raise the rate"
        );
        assert!(totals.retries > 0, "detections never retried ({mode:?})");
    }
}

/// A persistent dead row exhausts retries, quarantines the owning
/// shards, and degrades to the software reference — while every wave
/// still completes correctly. Clearing the plan and lifting quarantine
/// restores fault-free operation.
#[test]
fn fault_drill_persistent_fault_quarantines_then_recovers() {
    let polys: Vec<Vec<u64>> = (20u64..28).map(pseudo).collect();
    let expect: Vec<Vec<u64>> = polys.iter().map(|p| forward_reference(p)).collect();
    for mode in ExecMode::ALL {
        let mut eng = ShardedBpNtt::new(&drill_config(), 2).unwrap();
        eng.set_recovery(RecoveryOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 1,
            software_fallback: true,
        });
        eng.install_fault_plan(&FaultPlan::seeded(21).dead_row(2));
        let out = eng
            .run_pipeline_batch(&PipelineSpec::forward_ntt(), mode, &[&polys])
            .unwrap();
        assert_eq!(
            out, expect,
            "degraded wave still answers correctly ({mode:?})"
        );
        let wave = eng.last_recovery();
        assert!(wave.degraded, "persistent fault did not degrade ({mode:?})");
        assert!(wave.fallback_polys > 0, "no software fallback ({mode:?})");
        assert!(
            !eng.quarantined().is_empty(),
            "no shard quarantined ({mode:?})"
        );
        // Heal: remove the plan, readmit the shards, run clean.
        let stats = eng.clear_fault_plans();
        assert!(stats.persistent_imposications > 0, "dead row never imposed");
        eng.lift_all_quarantines();
        let out = eng
            .run_pipeline_batch(&PipelineSpec::forward_ntt(), mode, &[&polys])
            .unwrap();
        assert_eq!(out, expect);
        let wave = eng.last_recovery();
        assert!(!wave.degraded, "healed engine still degraded ({mode:?})");
        assert_eq!(wave.fallback_polys, 0);
    }
}

/// SpotCheck (not just Full) stops chaos escapes: with a transient rate
/// and the cheap O(N)-per-point policy, every completed wave is still
/// reference-exact.
#[test]
fn fault_drill_spotcheck_stops_escapes_under_chaos() {
    let polys: Vec<Vec<u64>> = (30u64..38).map(pseudo).collect();
    let expect: Vec<Vec<u64>> = polys.iter().map(|p| forward_reference(p)).collect();
    let mut eng = ShardedBpNtt::new(&drill_config(), 2).unwrap();
    eng.set_recovery(RecoveryOptions {
        verify: VerifyPolicy::SpotCheck { points: 2 },
        retry_budget: 3,
        software_fallback: true,
    });
    eng.install_fault_plan(&FaultPlan::seeded(31).transient_rate(1e-3));
    for round in 0..8 {
        let out = eng
            .run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&polys])
            .unwrap();
        assert_eq!(
            out, expect,
            "SpotCheck let a corrupted poly escape (round {round})"
        );
    }
    assert!(
        eng.recovery_totals().faults_detected > 0,
        "chaos was a no-op"
    );
}

/// A hard fault (worker panic) is contained: the wave that hits it
/// either recovers through the ladder or fails typed, and the engine
/// survives to serve the next wave.
#[test]
fn fault_drill_hard_fault_is_contained_and_typed() {
    let polys: Vec<Vec<u64>> = (40u64..44).map(pseudo).collect();
    let expect: Vec<Vec<u64>> = polys.iter().map(|p| forward_reference(p)).collect();
    // Ladder off: the panic surfaces as WorkerPanicked, not a crash.
    let mut bare = ShardedBpNtt::new(&drill_config(), 2).unwrap();
    bare.install_fault_plan(&FaultPlan::seeded(41).hard_fault_at(40));
    let r = bare.run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&polys]);
    assert!(
        matches!(r, Err(BpNttError::WorkerPanicked { .. })),
        "expected WorkerPanicked, got {r:?}"
    );
    // The hard fault is one-shot: the engine answers the next wave.
    let out = bare
        .run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&polys])
        .unwrap();
    assert_eq!(out, expect);

    // Ladder on: the same fault is absorbed by retry within one wave.
    let mut laddered = ShardedBpNtt::new(&drill_config(), 2).unwrap();
    laddered.set_recovery(RecoveryOptions {
        verify: VerifyPolicy::Full,
        retry_budget: 2,
        software_fallback: true,
    });
    laddered.install_fault_plan(&FaultPlan::seeded(41).hard_fault_at(40));
    let out = laddered
        .run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&polys])
        .unwrap();
    assert_eq!(out, expect);
    assert!(
        laddered.recovery_totals().worker_panics > 0,
        "panic not contained in-ladder"
    );
}

/// The same hard fault through the service, on one-poly waves: a
/// one-chunk wave runs its lone worker on the dispatcher thread, so the
/// containment must hold there too. Ladder off, the request fails typed
/// with `WorkerPanicked`; ladder armed, the retry absorbs it. Either
/// way the dispatcher survives (no respawn, nothing else failed) and
/// answers the next request.
#[test]
fn fault_drill_hard_fault_on_inline_service_wave_is_contained() {
    let plan = FaultPlan::seeded(41).hard_fault_at(40);
    let poly = pseudo(50);
    let expect = forward_reference(&poly);

    let bare = NttService::start(
        &drill_config(),
        ServiceOptions {
            fault_plan: Some(plan.clone()),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let r = bare.submit_forward(poly.clone()).unwrap().wait();
    assert!(
        matches!(r, Err(BpNttError::WorkerPanicked { .. })),
        "expected WorkerPanicked, got {r:?}"
    );
    assert_eq!(
        bare.submit_forward(poly.clone()).unwrap().wait().unwrap(),
        expect
    );
    let m = bare.shutdown();
    assert_eq!((m.completed, m.failed, m.respawns), (1, 1, 0));

    let armed = NttService::start(
        &drill_config(),
        ServiceOptions {
            verify: VerifyPolicy::Full,
            retry_budget: 2,
            fault_plan: Some(plan),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    for _ in 0..2 {
        assert_eq!(
            armed.submit_forward(poly.clone()).unwrap().wait().unwrap(),
            expect
        );
    }
    let m = armed.shutdown();
    assert_eq!((m.completed, m.failed, m.respawns), (2, 0, 0));
    assert!(m.faults_detected > 0, "the hard fault never fired");
    assert_eq!(m.fallback_polys, 0, "a retry, not the fallback, absorbs it");
}

/// The Kyber-class set (q = 7681, 14-bit tiles) on a polymul-capable
/// 140×128 geometry: 9 lanes of a 64-point transform.
fn kyber_config() -> BpNttConfig {
    BpNttConfig::new(140, 128, 14, NttParams::new(64, 7681).unwrap()).unwrap()
}

/// `lanes` seeded xorshift polynomials reduced mod `cfg`'s modulus.
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

/// The recovery ladder end to end through the service: a persistent
/// dead row corrupts every chunk, verification detects it, retries burn
/// out, shards quarantine, and the software fallback still returns the
/// correct answer for every polynomial.
#[test]
fn fault_drill_service_dead_row_quarantines_and_falls_back() {
    let cfg = kyber_config();
    let params = cfg.params().clone();
    let t = TwiddleTable::new(&params);
    let service = NttService::start(
        &cfg,
        ServiceOptions {
            shards: 2,
            verify: VerifyPolicy::Full,
            retry_budget: 1,
            fault_plan: Some(FaultPlan::seeded(17).dead_row(2)),
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let polys = pseudo_batch(&cfg, 6, 400);
    let tickets: Vec<_> = polys
        .iter()
        .map(|p| service.submit_forward(p.clone()).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap();
        let mut expect = polys[i].clone();
        ntt_in_place(&params, &t, &mut expect).unwrap();
        assert_eq!(got, expect, "poly {i} must be correct via the ladder");
    }
    let m = service.shutdown();
    assert!(m.faults_detected > 0, "detection fired");
    assert!(m.fallback_polys > 0, "degrade rung answered");
    assert!(m.quarantined_shards > 0, "quarantine engaged");
}

/// The retry rung without the service: a transient at instruction 500
/// corrupts the first attempt of one chunk and is consumed by it, so
/// the same-shard retry succeeds.
#[test]
fn fault_drill_sharded_retry_consumes_transient() {
    let cfg = kyber_config();
    let params = cfg.params().clone();
    let t = TwiddleTable::new(&params);
    let mut sharded = ShardedBpNtt::new(&cfg, 2).unwrap();
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
        assert_eq!(got[i], expect, "poly {i}");
    }
    let r = sharded.recovery_totals();
    assert!(
        r.faults_detected > 0 && r.retries > 0,
        "the transient was detected and retried (report: {r:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SpotCheck never false-positives on clean (fault-free) runs: for
    /// arbitrary inputs and point counts, verified forward, roundtrip,
    /// and polymul pipelines all pass.
    #[test]
    fn spotcheck_clean_runs_never_false_positive(seed in any::<u64>(), points in 1usize..4) {
        let mut acc = BpNtt::new(drill_config()).unwrap();
        acc.set_verify_policy(VerifyPolicy::SpotCheck { points });
        let a: Vec<Vec<u64>> = (0u64..3).map(|i| pseudo(seed ^ (i + 1))).collect();
        let b: Vec<Vec<u64>> = (0u64..3).map(|i| pseudo(seed ^ (i + 11))).collect();
        acc.run_pipeline(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&a])
            .expect("clean forward flagged");
        acc.run_pipeline(&PipelineSpec::roundtrip(), ExecMode::Replay, &[&a])
            .expect("clean roundtrip flagged");
        acc.run_pipeline(&PipelineSpec::polymul(), ExecMode::Replay, &[&a, &b])
            .expect("clean polymul flagged");
    }
}

//! Cross-crate RNS/CRT equivalence tests: the multi-limb engine against
//! the hand-rolled bigint reference, limb fan-out against the sequential
//! baseline, compiled-plan sharing across sibling contexts and service
//! tenant groups, a chaos drill (a dead row on one limb must heal
//! through that limb's own recovery ladder without ever corrupting the
//! CRT reconstruction), and the headline acceptance point: a 3-limb
//! ~90-bit negacyclic polymul at N = 256, bit-exact in **every**
//! [`ExecMode`].

use std::sync::Arc;

use proptest::prelude::*;

use bpntt_core::{
    ArtifactCache, BackendKind, BigUint, ExecMode, FaultPlan, NttService, PipelineSpec,
    RecoveryOptions, RnsBasis, RnsContext, RnsRequest, ServiceOptions, VerifyPolicy,
};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_rns::reference::negacyclic_polymul_basis;

/// 14-bit NTT-friendly primes, valid for n up to 512.
const P14: [u64; 3] = [12289, 13313, 15361];

/// Deterministic degree-`n` polynomial with coefficients spread over the
/// full multi-limb range `0..Q` (xorshift over two 64-bit limbs).
fn big_poly(basis: &RnsBasis, seed: u64) -> Vec<BigUint> {
    let mut x = seed | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..basis.n())
        .map(|_| {
            let limbs = vec![step(), step(), step()];
            BigUint::from_limbs(limbs).rem(basis.modulus())
        })
        .collect()
}

/// Polymul-capable geometry for degree `n`: two operand slots need
/// `2n + 6` rows (plus the intermediate rows every config carries).
fn rows_for(n: usize) -> usize {
    2 * n + 12
}

/// Runs one negacyclic polymul through an [`RnsContext`] and checks it
/// against the bigint reference.
fn check_polymul(n: usize, primes: &[u64], bitwidth: usize, mode: ExecMode, seed: u64) {
    let basis = Arc::new(RnsBasis::new(n, primes).unwrap());
    let mut ctx = RnsContext::new(
        Arc::clone(&basis),
        rows_for(n),
        128,
        bitwidth,
        basis.limbs(),
        BackendKind::Sim,
    )
    .unwrap();
    let a = big_poly(&basis, seed);
    let b = big_poly(&basis, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let got = ctx
        .run_rns(&PipelineSpec::polymul(), mode, &[a.clone(), b.clone()])
        .unwrap();
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    assert_eq!(got, expect, "n={n} primes={primes:?} {mode:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 2-limb (~28-bit Q) polymul ≡ bigint reference.
    #[test]
    fn two_limb_polymul_matches_reference(seed in any::<u64>()) {
        check_polymul(64, &P14[..2], 16, ExecMode::Replay, seed);
    }

    /// 3-limb (~42-bit Q) polymul ≡ bigint reference at n = 128.
    #[test]
    fn three_limb_polymul_matches_reference(seed in any::<u64>()) {
        check_polymul(128, &P14, 16, ExecMode::Replay, seed);
    }

    /// 5-limb (~70-bit Q) polymul ≡ bigint reference; the basis comes
    /// from the `find_ntt_primes` search the paper's RNS extension
    /// would use.
    #[test]
    fn five_limb_polymul_matches_reference(seed in any::<u64>()) {
        let primes = find_ntt_primes(14, 64, 5).unwrap();
        check_polymul(64, &primes, 16, ExecMode::Replay, seed);
    }

    /// Mixed scheme primes (Kyber's 3329 beside two 14-bit limbs) at the
    /// largest degree 3329 supports (n = 128 ⇒ 2n | 3328).
    #[test]
    fn mixed_scheme_basis_matches_reference(seed in any::<u64>()) {
        check_polymul(128, &[3329, 12289, 7681], 16, ExecMode::Replay, seed);
    }

    /// Decompose → reconstruct is the identity on random big polys.
    #[test]
    fn decompose_reconstruct_round_trips(seed in any::<u64>()) {
        let basis = RnsBasis::new(64, &P14).unwrap();
        let poly = big_poly(&basis, seed);
        let limbs = basis.decompose_poly(&poly).unwrap();
        prop_assert_eq!(basis.reconstruct_poly(&limbs).unwrap(), poly);
    }
}

/// Fan-out and the sequential baseline agree bit-for-bit, and fan-out
/// occupies strictly more of the shard budget in one wave.
fn assert_fanout_matches_sequential(n: usize, rows: usize, cols: usize, shards: usize) {
    let basis = Arc::new(RnsBasis::new(n, &P14).unwrap());
    let mut ctx =
        RnsContext::new(Arc::clone(&basis), rows, cols, 16, shards, BackendKind::Sim).unwrap();
    let a = big_poly(&basis, 7);
    let b = big_poly(&basis, 8);
    let spec = PipelineSpec::polymul();
    let slots_a = vec![a.clone()];
    let slots_b = vec![b.clone()];
    let inputs: Vec<&[Vec<BigUint>]> = vec![&slots_a, &slots_b];

    let fanned = ctx.run_rns_batch(&spec, ExecMode::Replay, &inputs).unwrap();
    let fanned_wave = ctx.last_wave().clone();
    let sequential = ctx
        .run_limbs_sequential(&spec, ExecMode::Replay, &inputs)
        .unwrap();
    let sequential_wave = ctx.last_wave().clone();

    assert_eq!(fanned, sequential, "n={n}: fan-out must not change results");
    assert_eq!(
        fanned[0],
        negacyclic_polymul_basis(&a, &b, &basis).unwrap(),
        "n={n}: reconstruction diverged"
    );
    assert!(
        fanned_wave.participating > sequential_wave.participating,
        "n={n}: fan-out must occupy more shards per wave ({} vs {})",
        fanned_wave.participating,
        sequential_wave.participating
    );
    assert!(
        fanned_wave.occupancy > sequential_wave.occupancy,
        "n={n}: occupancy {} fanned vs {} sequential",
        fanned_wave.occupancy,
        sequential_wave.occupancy
    );
}

#[test]
fn fanned_matches_sequential_and_raises_occupancy() {
    assert_fanout_matches_sequential(64, rows_for(64), 128, 2 * P14.len());
    // N = 256 on narrow 518×48 arrays (three 16-bit lanes), one shard
    // per limb.
    assert_fanout_matches_sequential(256, 518, 48, P14.len());
}

/// Sibling contexts over one shared artifact cache compile each limb
/// prime once: the second context adds no entry and finds all `L` plans
/// (hits ≥ L − 1 holds with margin).
fn assert_siblings_share_plans(n: usize, rows: usize, cols: usize) {
    let basis = Arc::new(RnsBasis::new(n, &P14).unwrap());
    let cache = Arc::new(ArtifactCache::default());
    let spec = PipelineSpec::polymul();
    let mk = |cache: &Arc<ArtifactCache>| {
        RnsContext::with_plan_cache(
            Arc::clone(&basis),
            rows,
            cols,
            16,
            basis.limbs(),
            Arc::clone(cache),
        )
        .unwrap()
    };
    let mut first = mk(&cache);
    first.compile(&spec).unwrap();
    let (baseline_entries, baseline_hits) = (cache.entries(), cache.hits());
    let mut second = mk(&cache);
    second.compile(&spec).unwrap();
    assert_eq!(
        cache.entries(),
        baseline_entries,
        "n={n}: the sibling context must compile nothing"
    );
    let hits = cache.hits() - baseline_hits;
    assert!(
        hits >= (basis.limbs() - 1) as u64,
        "n={n}: expected ≥ L−1 plan-cache hits, got {hits}"
    );
    // Shared plans execute correctly on the importing context.
    let a = big_poly(&basis, 9);
    let b = big_poly(&basis, 10);
    let got = second
        .run_rns(&spec, ExecMode::Replay, &[a.clone(), b.clone()])
        .unwrap();
    assert_eq!(got, negacyclic_polymul_basis(&a, &b, &basis).unwrap());
}

#[test]
fn sibling_contexts_share_compiled_plans() {
    assert_siblings_share_plans(64, rows_for(64), 128);
    assert_siblings_share_plans(256, 518, 48);
}

/// Chaos drill: a dead row seeded on ONE limb's engine corrupts that
/// limb persistently. Its own recovery ladder (verify → retry →
/// quarantine → software fallback) must heal it locally, the other
/// limbs must run clean, and the CRT reconstruction must stay exact.
#[test]
fn dead_row_on_one_limb_heals_without_corrupting_reconstruction() {
    let basis = Arc::new(RnsBasis::new(64, &P14).unwrap());
    let mut ctx = RnsContext::new(
        Arc::clone(&basis),
        rows_for(64),
        128,
        16,
        basis.limbs(),
        BackendKind::Sim,
    )
    .unwrap();
    ctx.set_recovery(RecoveryOptions {
        verify: VerifyPolicy::Full,
        retry_budget: 1,
        software_fallback: true,
    });
    ctx.install_fault_plan_on_limb(1, &FaultPlan::seeded(42).dead_row(3));

    let a = big_poly(&basis, 11);
    let b = big_poly(&basis, 12);
    let got = ctx
        .run_rns(
            &PipelineSpec::polymul(),
            ExecMode::Replay,
            &[a.clone(), b.clone()],
        )
        .unwrap();
    assert_eq!(
        got,
        negacyclic_polymul_basis(&a, &b, &basis).unwrap(),
        "reconstruction must be exact despite the dead row on limb 1"
    );
    // The corruption was detected and healed on limb 1 …
    let r1 = ctx.last_recovery(1);
    assert!(
        r1.faults_detected >= 1,
        "limb 1 must have detected its dead row"
    );
    // … and the healthy limbs never entered their ladders.
    for limb in [0, 2] {
        assert_eq!(
            ctx.last_recovery(limb).faults_detected,
            0,
            "limb {limb} ran clean"
        );
    }
}

/// The acceptance point: a 3-limb (~90-bit `Q`) negacyclic polymul at
/// N = 256, bit-exact against the bigint reference in every
/// [`ExecMode`].
#[test]
fn ninety_bit_acceptance_all_modes() {
    let primes = find_ntt_primes(30, 256, 3).unwrap();
    let basis = Arc::new(RnsBasis::new(256, &primes).unwrap());
    assert!(
        basis.modulus_bits() >= 88,
        "3 × 30-bit limbs must reach ~90 bits (got {})",
        basis.modulus_bits()
    );
    let a = big_poly(&basis, 21);
    let b = big_poly(&basis, 22);
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    let mut ctx = RnsContext::new(
        Arc::clone(&basis),
        rows_for(256),
        62,
        31,
        basis.limbs(),
        BackendKind::Sim,
    )
    .unwrap();
    for mode in ExecMode::ALL {
        let got = ctx
            .run_rns(&PipelineSpec::polymul(), mode, &[a.clone(), b.clone()])
            .unwrap();
        assert_eq!(got, expect, "{mode:?}");
    }
}

/// Service-level smoke: two tenant groups over one basis share compiled
/// artifacts (the second group adds no cache entry and makes ≥ L − 1
/// pipeline-cache hits) and both reconstruct exactly.
#[test]
fn service_rns_groups_share_artifacts_and_reconstruct() {
    let service = NttService::start(
        &bpntt_core::BpNttConfig::paper_256pt_16bit().unwrap(),
        ServiceOptions::default(),
    )
    .unwrap();
    let basis = Arc::new(RnsBasis::new(64, &P14).unwrap());
    let h1 = service
        .add_rns_tenant(rows_for(64), 128, 16, &basis)
        .unwrap();
    let before = service.metrics();
    let h2 = service
        .add_rns_tenant(rows_for(64), 128, 16, &basis)
        .unwrap();
    let after = service.metrics();
    assert_eq!(
        after.pipeline_cache_entries, before.pipeline_cache_entries,
        "the second group must compile nothing"
    );
    let hits = after.pipeline_cache_hits - before.pipeline_cache_hits;
    assert!(
        hits >= (basis.limbs() - 1) as u64,
        "second group must hit the artifact cache ≥ L−1 times (got {hits})"
    );
    let a = big_poly(&basis, 31);
    let b = big_poly(&basis, 32);
    let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
    for h in [&h1, &h2] {
        let got = service
            .submit_rns(h, RnsRequest::polymul(a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.coefficients, expect);
    }
    let m = service.shutdown();
    assert_eq!(m.rns_requests, 2);
    assert_eq!(m.rns_limbs, 2 * basis.limbs() as u64);
    assert!(m.rns_fanout_waves >= 1);
}

//! Property tests for the pipeline op-graph API: `run_pipeline` with the
//! canned polymul spec must be *indistinguishable* from the retained
//! pre-pipeline `polymul` implementation — bit-identical array rows (all
//! of them, scratch and constants included) and bit-identical
//! [`Stats`](bpntt_sram::Stats) (cycles, counts, row I/O, and the energy
//! bits) — under
//! **both** [`ExecMode`]s, across the Kyber-class (7681), Dilithium
//! (8 380 417), and HE-level (1 073 738 753) parameter sets. A sharded
//! wave running a compiled pipeline must agree with a single array
//! processing the same chunks sequentially, and the spectral
//! (NTT-domain-cached) graphs must match the software reference.

use proptest::prelude::*;

use bpntt_core::{BpNtt, BpNttConfig, BpNttError, ExecMode, PipelineSpec, ShardedBpNtt};
use bpntt_modmath::zq::mul_mod;
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::{NttParams, TwiddleTable};

/// The three parameter sets, on polymul-capable geometries
/// (`2N + 6 ≤ rows`, single tile). 64 points keeps the three-mode ×
/// three-set sweep fast while exercising the same kernels as the
/// 256-point paper geometry; `full_dilithium_config` covers that one.
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

/// The paper's 256-point Dilithium geometry with polymul capacity
/// (2·256 + 6 = 518 rows).
fn full_dilithium_config() -> BpNttConfig {
    BpNttConfig::new(518, 256, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap()
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

/// Runs the canned polymul pipeline in every `ExecMode` against the
/// retained legacy implementation on identical data and asserts
/// indistinguishability: every physical row and the full `Stats`
/// (counts, cycles and energy bits). Replay must also run its typed
/// multiplies and epilogues on the register-resident word kernels with
/// no fallback, and `Generic` must stay strictly per-instruction.
fn assert_pipeline_equivalent(cfg: &BpNttConfig, seed: u64) {
    let lanes = cfg.layout().lanes();
    let batch = 1 + (seed as usize) % lanes;
    let a = pseudo_batch(cfg, batch, seed);
    let b = pseudo_batch(cfg, batch, seed ^ 0x9E37_79B9_7F4A_7C15);

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
        assert_eq!(piped_out, legacy_out, "{mode:?} seed {seed}");
        for r in 0..cfg.rows() {
            assert_eq!(
                piped.peek_row(r),
                legacy.peek_row(r),
                "row {r} diverged ({mode:?}, seed {seed})"
            );
        }
        let ps = piped.stats();
        assert_eq!(ps.cycles, ls.cycles, "{mode:?} cycles");
        assert_eq!(ps.counts, ls.counts, "{mode:?} counts");
        assert_eq!(ps.row_loads, ls.row_loads, "{mode:?} row loads");
        assert_eq!(ps.row_stores, ls.row_stores, "{mode:?} row stores");
        assert_eq!(
            ps.energy_pj.to_bits(),
            ls.energy_pj.to_bits(),
            "{mode:?} energy"
        );
        let fp = *piped.fastpath_stats();
        match mode {
            ExecMode::Replay => {
                // Checked apart: a sum would hide multiplies that stopped
                // running resident while the epilogues still do.
                assert!(fp.chains_resident > 0, "no resident multiplier chain: {fp}");
                assert!(
                    fp.resolve_loops_resident > 0,
                    "no resident resolve loop: {fp}"
                );
                assert_eq!(fp.fallbacks, 0, "replay fell back: {fp}");
            }
            ExecMode::Generic => assert_eq!(fp.hits(), 0, "generic ran a fast path: {fp}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// polymul pipeline ≡ legacy polymul, Kyber-class set, all modes.
    #[test]
    fn kyber_polymul_pipeline_equivalent(seed in any::<u64>()) {
        assert_pipeline_equivalent(&config(0), seed);
    }

    /// polymul pipeline ≡ legacy polymul, Dilithium set, all modes.
    #[test]
    fn dilithium_polymul_pipeline_equivalent(seed in any::<u64>()) {
        assert_pipeline_equivalent(&config(1), seed);
    }

    /// polymul pipeline ≡ legacy polymul, HE-level set, all modes.
    #[test]
    fn he_level_polymul_pipeline_equivalent(seed in any::<u64>()) {
        assert_pipeline_equivalent(&config(2), seed);
    }
}

/// The paper's full 256-point Dilithium geometry: one non-prop run of
/// the three-mode equivalence (kept out of the proptest loop for time).
#[test]
fn full_geometry_polymul_pipeline_equivalent() {
    assert_pipeline_equivalent(&full_dilithium_config(), 42);
}

/// A sharded wave executing the compiled pipeline agrees with a single
/// array processing the same chunks sequentially (same programs, same
/// per-chunk data) — and with the software reference.
#[test]
fn sharded_wave_pipeline_matches_single_array() {
    let cfg = config(1);
    let params = cfg.params().clone();
    let lanes = cfg.layout().lanes();
    let batch = 2 * lanes + 1; // three chunks, last partial
    let a = pseudo_batch(&cfg, batch, 77);
    let b = pseudo_batch(&cfg, batch, 78);
    let spec = PipelineSpec::polymul();

    let mut sharded = ShardedBpNtt::new(&cfg, 3).unwrap();
    let wave_out = sharded
        .run_pipeline_batch(&spec, ExecMode::Replay, &[&a, &b])
        .unwrap();
    assert_eq!(wave_out.len(), batch);
    assert_eq!(
        sharded.last_wave_shard_secs().len(),
        3,
        "three chunks → three participating shards"
    );

    let mut single = BpNtt::new(cfg).unwrap();
    let mut expect = Vec::new();
    for (ca, cb) in a.chunks(lanes).zip(b.chunks(lanes)) {
        expect.extend(
            single
                .run_pipeline(&spec, ExecMode::Replay, &[ca, cb])
                .unwrap(),
        );
    }
    assert_eq!(wave_out, expect);

    for (i, out) in wave_out.iter().enumerate() {
        let reference = polymul_schoolbook(&params, &a[i], &b[i]).unwrap();
        assert_eq!(out, &reference, "pair {i}");
    }
}

/// The sharded batch wrappers are the canned pipelines: forward_batch,
/// roundtrip_batch and polymul_batch produce identical results to
/// explicit `run_pipeline_batch` calls with the corresponding specs.
#[test]
fn sharded_batch_wrappers_are_canned_pipelines() {
    let cfg = config(0);
    let batch = pseudo_batch(&cfg, 7, 31);
    let b = pseudo_batch(&cfg, 7, 32);

    let mut wrapped = ShardedBpNtt::new(&cfg, 2).unwrap();
    let mut explicit = ShardedBpNtt::new(&cfg, 2).unwrap();

    assert_eq!(
        wrapped.forward_batch(&batch).unwrap(),
        explicit
            .run_pipeline_batch(&PipelineSpec::forward_ntt(), ExecMode::Replay, &[&batch])
            .unwrap()
    );
    assert_eq!(
        wrapped.roundtrip_batch(&batch).unwrap(),
        explicit
            .run_pipeline_batch(&PipelineSpec::roundtrip(), ExecMode::Replay, &[&batch])
            .unwrap()
    );
    assert_eq!(
        wrapped.polymul_batch(&batch, &b).unwrap(),
        explicit
            .run_pipeline_batch(&PipelineSpec::polymul(), ExecMode::Replay, &[&batch, &b])
            .unwrap()
    );
}

/// NTT-domain caching through the spectral graph: forward once with one
/// pipeline, then run pointwise+inverse products against the cached
/// spectra — results must match the reference negacyclic product, in
/// every execution mode.
#[test]
fn spectral_polymul_matches_reference_in_all_modes() {
    let cfg = config(0);
    let params = cfg.params().clone();
    let t = TwiddleTable::new(&params);
    let a = pseudo_batch(&cfg, 3, 91);
    let b = pseudo_batch(&cfg, 3, 92);
    // Host-side NTT-domain cache: transform both operands via the plain
    // forward pipeline, then submit spectra to the spectral graph.
    let to_spectra = |polys: &[Vec<u64>]| -> Vec<Vec<u64>> {
        polys
            .iter()
            .map(|p| {
                let mut s = p.clone();
                ntt_in_place(&params, &t, &mut s).unwrap();
                s
            })
            .collect()
    };
    let sa = to_spectra(&a);
    let sb = to_spectra(&b);
    for mode in ExecMode::ALL {
        let mut acc = BpNtt::new(cfg.clone()).unwrap();
        let got = acc
            .run_pipeline(&PipelineSpec::polymul_spectral(), mode, &[&sa, &sb])
            .unwrap();
        for i in 0..3 {
            let expect = polymul_schoolbook(&params, &a[i], &b[i]).unwrap();
            assert_eq!(got[i], expect, "{mode:?} pair {i}");
        }
    }
}

/// Montgomery-debt bookkeeping across a multiply-accumulate chain: two
/// chained pointwise products (debt 2) fold into a single inverse scale
/// constant, and the result matches `a ⊛ b ⊛ c` computed by the software
/// reference.
#[test]
fn chained_pointwise_folds_debt_into_one_scale() {
    // Three 64-point operand slots need 3·64 + 6 = 198 rows.
    let cfg = BpNttConfig::new(200, 128, 14, NttParams::new(64, 7681).unwrap()).unwrap();
    let params = cfg.params().clone();
    let q = params.modulus();
    let a = pseudo_batch(&cfg, 2, 55);
    let b = pseudo_batch(&cfg, 2, 56);
    let c = pseudo_batch(&cfg, 2, 57);
    let spec = PipelineSpec::new()
        .input(0)
        .input(1)
        .input(2)
        .forward(0)
        .forward(1)
        .forward(2)
        .pointwise(0, 1)
        .pointwise(0, 2)
        .inverse(0)
        .output(0);
    let mut acc = BpNtt::new(cfg).unwrap();
    let pipe = acc.compile_pipeline(&spec).unwrap();
    assert_eq!(
        pipe.segments(),
        6,
        "no extra compensation segment: the debt folds into the inverse"
    );
    let got = acc
        .run_pipeline(&spec, ExecMode::Replay, &[&a, &b, &c])
        .unwrap();
    for i in 0..2 {
        let ab = polymul_schoolbook(&params, &a[i], &b[i]).unwrap();
        let abc = polymul_schoolbook(&params, &ab, &c[i]).unwrap();
        assert_eq!(got[i], abc, "pair {i} (q={q})");
    }
}

/// ScaleBy folds pending debt too: pointwise followed by a ScaleBy (no
/// inverse) yields the plainly scaled NTT-domain product.
#[test]
fn scale_by_folds_pending_debt() {
    let cfg = config(0);
    let params = cfg.params().clone();
    let q = params.modulus();
    let t = TwiddleTable::new(&params);
    let a = pseudo_batch(&cfg, 1, 60);
    let b = pseudo_batch(&cfg, 1, 61);
    let spec = PipelineSpec::new()
        .input(0)
        .input(1)
        .forward(0)
        .forward(1)
        .pointwise(0, 1)
        .scale_by(0, 5)
        .output(0);
    let mut acc = BpNtt::new(cfg).unwrap();
    let pipe = acc.compile_pipeline(&spec).unwrap();
    assert_eq!(pipe.segments(), 4, "debt folds into the ScaleBy constant");
    let got = acc
        .run_pipeline(&spec, ExecMode::Replay, &[&a, &b])
        .unwrap();
    let (mut ea, mut eb) = (a[0].clone(), b[0].clone());
    ntt_in_place(&params, &t, &mut ea).unwrap();
    ntt_in_place(&params, &t, &mut eb).unwrap();
    let expect: Vec<u64> = ea
        .iter()
        .zip(&eb)
        .map(|(&x, &y)| mul_mod(mul_mod(x, y, q), 5, q))
        .collect();
    assert_eq!(got[0], expect);
}

/// Sharded pipeline input validation is typed: input-count mismatches
/// and unequal slot batches are rejected before any compilation.
#[test]
fn sharded_pipeline_validation_is_typed() {
    let cfg = config(0);
    let mut sharded = ShardedBpNtt::new(&cfg, 2).unwrap();
    let a = pseudo_batch(&cfg, 2, 70);
    let b = pseudo_batch(&cfg, 1, 71);
    assert!(matches!(
        sharded.run_pipeline_batch(&PipelineSpec::polymul(), ExecMode::Replay, &[&a]),
        Err(BpNttError::InvalidPipeline { .. })
    ));
    // No-input (resident) graphs are a single-engine feature; the
    // sharded path rejects them instead of silently returning Ok(empty).
    assert!(matches!(
        sharded.run_pipeline_batch(
            &PipelineSpec::new().forward(0).output(0),
            ExecMode::Replay,
            &[]
        ),
        Err(BpNttError::InvalidPipeline { .. })
    ));
    assert!(matches!(
        sharded.run_pipeline_batch(&PipelineSpec::polymul(), ExecMode::Replay, &[&a, &b]),
        Err(BpNttError::BatchMismatch { a: 2, b: 1 })
    ));
    // Rejected calls clear the shard timings like every other early
    // return.
    assert!(sharded.last_wave_shard_secs().is_empty());
}

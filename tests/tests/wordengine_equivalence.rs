//! Property tests for the vectorized word-engine and the epilogue superop
//! fusion: replay through the fused superops — on the SIMD path *and* on
//! the forced-scalar fallback — must be indistinguishable from strictly
//! per-instruction emission (`ExecMode::Generic`, the oracle), and the
//! two kernel paths must be bit-identical to each other. `Stats` are
//! integer class counts; `cost.rs` prices cycles and energy from them on
//! read, so identical counts mean identical cycles and energy bits. Coverage
//! spans the Kyber-class (7681), Dilithium (8 380 417), and HE-level
//! (1 073 738 753) parameter sets, column counts whose storage word
//! counts are *not* chunk-aligned (1, 2, 3, and 5 words before padding),
//! and the wide HE-batch geometries (320/512/768/1024 columns — 2-, 3-,
//! and 4-chunk rows), which exercises every register-resident chunk
//! count of the multiplier-chain and resolution-loop fast paths.
//!
//! The kernel dispatch is process-wide, so every test that toggles it
//! serializes on one mutex. Toggling is safe by construction — both paths
//! are bit-identical — the lock only makes each test's choice observable.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use bpntt_core::{BpNtt, BpNttConfig, ExecMode};
use bpntt_ntt::NttParams;

static DISPATCH: Mutex<()> = Mutex::new(());

/// Locks the dispatch mutex and pins the requested kernel path.
fn pin_dispatch(scalar: bool) -> MutexGuard<'static, ()> {
    let guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    bpntt_sram::force_scalar(scalar);
    guard
}

/// The three cryptographic parameter sets at the paper's 256-column
/// geometry.
fn crypto_config(idx: usize) -> BpNttConfig {
    match idx {
        0 => BpNttConfig::paper_256pt_14bit().unwrap(),
        1 => BpNttConfig::new(262, 256, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap(),
        _ => BpNttConfig::new(262, 256, 31, NttParams::new(256, 1_073_738_753).unwrap()).unwrap(),
    }
}

/// Dilithium configs whose row storage is 1, 2, 3, and 5 words before
/// chunk padding — none of them a whole number of chunks.
fn nonaligned_config(cols: usize) -> BpNttConfig {
    BpNttConfig::new(262, cols, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap()
}

const NONALIGNED_COLS: [usize; 4] = [48, 96, 144, 312];

/// Wide HE-batch geometries: 2-chunk (320 → padded, 512), 3-chunk (768),
/// and 4-chunk (1024) rows — every multi-chunk register-resident variant.
const WIDE_COLS: [usize; 4] = [320, 512, 768, 1024];

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

/// Runs forward (+ optionally inverse) two ways on identical data —
/// compiled-program replay and strictly per-instruction emission — and
/// asserts every physical row and the full `Stats` (counts, cycles and
/// energy bits) match.
fn assert_replay_equivalent(cfg: &BpNttConfig, seed: u64, inverse_too: bool) {
    let lanes = cfg.layout().lanes();
    let batch = 1 + (seed as usize) % lanes;
    let polys = pseudo_batch(cfg, batch, seed);

    let mut replayed = BpNtt::new(cfg.clone()).unwrap();
    replayed.load_batch(&polys).unwrap();
    replayed.forward().unwrap();
    if inverse_too {
        replayed.inverse().unwrap();
    }

    let mut generic = BpNtt::new(cfg.clone()).unwrap();
    generic.load_batch(&polys).unwrap();
    generic.forward_mode(ExecMode::Generic).unwrap();
    if inverse_too {
        generic.inverse_mode(ExecMode::Generic).unwrap();
    }

    for r in 0..cfg.rows() {
        assert_eq!(
            replayed.peek_row(r),
            generic.peek_row(r),
            "replay row {r} diverged from generic emission (cols {}, seed {seed})",
            cfg.layout().active_cols()
        );
    }
    let (rs, gs) = (replayed.stats(), generic.stats());
    assert_eq!(rs.cycles, gs.cycles, "replay cycles");
    assert_eq!(rs.counts, gs.counts, "replay counts");
    assert_eq!(rs.row_loads, gs.row_loads, "replay row loads");
    assert_eq!(
        rs.energy_pj.to_bits(),
        gs.energy_pj.to_bits(),
        "replay energy"
    );
}

/// Runs one full replay roundtrip and returns every row image plus stats.
fn replay_snapshot(cfg: &BpNttConfig, seed: u64) -> (Vec<bpntt_sram::BitRow>, bpntt_sram::Stats) {
    let lanes = cfg.layout().lanes();
    let polys = pseudo_batch(cfg, lanes, seed);
    let mut acc = BpNtt::new(cfg.clone()).unwrap();
    acc.load_batch(&polys).unwrap();
    acc.forward().unwrap();
    acc.inverse().unwrap();
    let rows = (0..cfg.rows()).map(|r| acc.peek_row(r).clone()).collect();
    (rows, acc.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Fused epilogue superops + scalar kernels ≡ emission, all three
    /// crypto parameter sets.
    #[test]
    fn scalar_replay_equivalent_on_crypto_sets(seed in any::<u64>()) {
        let _guard = pin_dispatch(true);
        for idx in 0..3 {
            assert_replay_equivalent(&crypto_config(idx), seed, idx == 1);
        }
        bpntt_sram::force_scalar(false);
    }

    /// Fused epilogue superops + SIMD kernels (where the host supports
    /// them) ≡ emission, all three crypto parameter sets.
    #[test]
    fn simd_replay_equivalent_on_crypto_sets(seed in any::<u64>()) {
        let _guard = pin_dispatch(false);
        for idx in 0..3 {
            assert_replay_equivalent(&crypto_config(idx), seed, idx == 1);
        }
    }

    /// Non-chunk-aligned storage widths (1, 2, 3, 5 words) stay
    /// equivalent on both kernel paths — the multi-chunk carry chains and
    /// the padding invariants.
    #[test]
    fn nonaligned_cols_replay_equivalent(seed in any::<u64>()) {
        for scalar in [false, true] {
            let _guard = pin_dispatch(scalar);
            for cols in NONALIGNED_COLS {
                assert_replay_equivalent(&nonaligned_config(cols), seed, cols == 96);
            }
            bpntt_sram::force_scalar(false);
        }
    }

    /// Wide HE-batch geometries (2-/3-/4-chunk rows) stay equivalent on
    /// both kernel paths — the multi-chunk register-resident chains and
    /// loops against the per-step scalar reference, with `Stats`
    /// (counts, cycles and energy bits) pinned.
    #[test]
    fn wide_cols_replay_equivalent(seed in any::<u64>()) {
        for scalar in [false, true] {
            let _guard = pin_dispatch(scalar);
            for cols in WIDE_COLS {
                assert_replay_equivalent(&nonaligned_config(cols), seed, cols == 512);
            }
            bpntt_sram::force_scalar(false);
        }
    }
}

/// The register-resident fast paths actually fire under replay — on the
/// paper geometry *and* the wide HE-batch geometries — and never under
/// generic emission. This is the coverage telemetry's reason to exist: a
/// dispatch or matcher regression turns these counters to zero long
/// before anyone notices a wall-clock mystery.
#[test]
fn resident_fast_paths_fire_on_wide_geometries() {
    let _guard = pin_dispatch(false);
    if !bpntt_sram::simd_active() {
        eprintln!("no SIMD on this host; skipping coverage assertion");
        return;
    }
    for cols in [256usize, 512, 1024] {
        let cfg = nonaligned_config(cols);
        let polys = pseudo_batch(&cfg, 1, 42);
        let mut acc = BpNtt::new(cfg).unwrap();
        acc.load_batch(&polys).unwrap();
        acc.forward().unwrap();
        acc.reset_stats();
        acc.forward().unwrap();
        let replay = *acc.fastpath_stats();
        assert!(replay.chains_resident > 0, "cols={cols}: replay chains");
        assert!(
            replay.resolve_loops_resident > 0 && replay.borrow_loops_resident > 0,
            "cols={cols}: replay loops"
        );
        assert!(replay.superops_fused > 0, "cols={cols}: replay superops");
        acc.reset_stats();
        acc.forward_mode(ExecMode::Generic).unwrap();
        assert_eq!(
            acc.fastpath_stats().hits(),
            0,
            "cols={cols}: generic emission stays per-instruction"
        );
    }
}

/// The SIMD and forced-scalar paths produce bit-identical rows and
/// bit-identical `Stats` on every parameter set and geometry (trivially
/// true on non-AVX2 hosts, where both pins resolve to the scalar path).
#[test]
fn simd_and_scalar_paths_bit_identical() {
    let configs: Vec<BpNttConfig> = (0..3)
        .map(crypto_config)
        .chain(NONALIGNED_COLS.map(nonaligned_config))
        .chain(WIDE_COLS.map(nonaligned_config))
        .collect();
    for (i, cfg) in configs.iter().enumerate() {
        let seed = 1000 + i as u64;
        let scalar = {
            let _guard = pin_dispatch(true);
            let snap = replay_snapshot(cfg, seed);
            bpntt_sram::force_scalar(false);
            snap
        };
        let simd = {
            let _guard = pin_dispatch(false);
            replay_snapshot(cfg, seed)
        };
        assert_eq!(scalar.0, simd.0, "rows diverged (config {i})");
        assert_eq!(scalar.1.cycles, simd.1.cycles);
        assert_eq!(scalar.1.counts, simd.1.counts);
        assert_eq!(
            scalar.1.energy_pj.to_bits(),
            simd.1.energy_pj.to_bits(),
            "energy diverged (config {i})"
        );
    }
}

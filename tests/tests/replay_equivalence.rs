//! Property tests for the compile-once/replay-many pipeline: a cached
//! compiled program must be *indistinguishable* from instruction-by-
//! instruction emission (`ExecMode::Generic`, the oracle) — bit-identical
//! array rows (all of them, scratch and constants included) and
//! bit-identical [`Stats`] (cycles, counts, row I/O, and the
//! floating-point energy total) — across random batches and three
//! cryptographic parameter sets:
//!
//! * Kyber-class: the original 13-bit Kyber prime 7681, 256 points;
//! * Dilithium: the 23-bit prime 8 380 417, 256 points;
//! * one HE level: a 30-bit RNS limb prime 1 073 738 753, 256 points.

use proptest::prelude::*;

use bpntt_core::{BpNtt, BpNttConfig, ExecMode, ShardedBpNtt};
use bpntt_ntt::NttParams;

/// The three parameter sets under test.
fn config(idx: usize) -> BpNttConfig {
    match idx {
        // Kyber-class prime in the paper's 14-bit design point (18 lanes).
        0 => BpNttConfig::paper_256pt_14bit().unwrap(),
        // Dilithium prime: 24-bit tiles, 10 lanes on 256 columns.
        1 => BpNttConfig::new(262, 256, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap(),
        // HE RNS limb: 30-bit prime ≡ 1 (mod 512), 31-bit tiles, 8 lanes.
        _ => BpNttConfig::new(262, 256, 31, NttParams::new(256, 1_073_738_753).unwrap()).unwrap(),
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

/// Runs replay and generic emission side by side and asserts
/// indistinguishability.
fn assert_replay_equivalent(idx: usize, seed: u64, inverse_too: bool) {
    let cfg = config(idx);
    let lanes = cfg.layout().lanes();
    // Vary the batch size too: partial batches leave zeroed lanes.
    let batch = 1 + (seed as usize) % lanes;
    let polys = pseudo_batch(&cfg, batch, seed);

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

    // Every physical row — coefficients, accumulator, temporaries,
    // constants — must match bit for bit.
    for r in 0..cfg.rows() {
        prop_assert_eq!(
            replayed.peek_row(r),
            generic.peek_row(r),
            "row {} diverged (params {}, seed {})",
            r,
            idx,
            seed
        );
    }
    // And the statistics must be indistinguishable, including the
    // floating-point energy accumulator (same values, same order).
    let (rs, gs) = (*replayed.stats(), *generic.stats());
    prop_assert_eq!(rs.cycles, gs.cycles);
    prop_assert_eq!(rs.counts, gs.counts);
    prop_assert_eq!(rs.row_loads, gs.row_loads);
    prop_assert_eq!(rs.row_stores, gs.row_stores);
    prop_assert_eq!(rs.energy_pj.to_bits(), gs.energy_pj.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Forward replay ≡ forward emission on the Kyber-class set.
    #[test]
    fn kyber_forward_replay_equivalent(seed in any::<u64>()) {
        assert_replay_equivalent(0, seed, false);
    }

    /// Forward + inverse replay ≡ emission on the Dilithium set.
    #[test]
    fn dilithium_roundtrip_replay_equivalent(seed in any::<u64>()) {
        assert_replay_equivalent(1, seed, true);
    }

    /// Forward replay ≡ emission on the HE-level set.
    #[test]
    fn he_level_forward_replay_equivalent(seed in any::<u64>()) {
        assert_replay_equivalent(2, seed, false);
    }
}

/// Replaying twice on fresh data gives the same answer as the first time —
/// the program cache has no hidden state (regression guard for scratch-row
/// reuse in the controller).
#[test]
fn replay_is_stateless_across_calls() {
    let cfg = config(1);
    let lanes = cfg.layout().lanes();
    let batch_a = pseudo_batch(&cfg, lanes, 7);
    let batch_b = pseudo_batch(&cfg, lanes, 8);

    let mut acc = BpNtt::new(cfg.clone()).unwrap();
    acc.load_batch(&batch_a).unwrap();
    acc.forward().unwrap();
    let first_a = acc.read_batch(lanes).unwrap();
    acc.load_batch(&batch_b).unwrap();
    acc.forward().unwrap();
    let first_b = acc.read_batch(lanes).unwrap();

    let mut fresh = BpNtt::new(cfg).unwrap();
    fresh.load_batch(&batch_b).unwrap();
    fresh.forward().unwrap();
    assert_eq!(fresh.read_batch(lanes).unwrap(), first_b);
    assert_ne!(first_a, first_b);
}

/// The sharded engine agrees with a single array processing the same
/// chunks sequentially (same programs, same per-shard data).
#[test]
fn sharded_replay_matches_single_array() {
    let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
    let lanes = cfg.layout().lanes();
    let batch = pseudo_batch(&cfg, 3 * lanes, 42);

    let mut sharded = ShardedBpNtt::new(&cfg, 3).unwrap();
    let sharded_out = sharded.forward_batch(&batch).unwrap();

    let mut single = BpNtt::new(cfg).unwrap();
    let mut expect = Vec::new();
    for chunk in batch.chunks(lanes) {
        single.load_batch(chunk).unwrap();
        single.forward().unwrap();
        expect.extend(single.read_batch(chunk.len()).unwrap());
    }
    assert_eq!(sharded_out, expect);
}

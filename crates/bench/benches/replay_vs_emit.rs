//! The compile-once/replay-many win: per-call generic emission
//! (`ExecMode::Generic`) vs cached-program replay vs sharded replay, on
//! 256-point Dilithium forward NTTs (24-bit tiles, modulus 8 380 417).
//!
//! Emission pays a per-instruction cost (code generation, cost-model
//! evaluation, validation) and runs every instruction generically;
//! replay runs the same stream as fused word-engine superops. The
//! `bench_replay` bin records the resulting ratio per geometry in
//! `BENCH_replay.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use bpntt_core::{BpNtt, BpNttConfig, ExecMode, ShardedBpNtt};
use bpntt_ntt::NttParams;

fn dilithium_config(cols: usize) -> BpNttConfig {
    BpNttConfig::new(262, cols, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap()
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

fn bench_replay_vs_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("dilithium256_forward");
    g.sample_size(10);
    for cols in [48usize, 96, 144, 256] {
        let cfg = dilithium_config(cols);
        let lanes = cfg.layout().lanes();
        let batch = pseudo_batch(&cfg, lanes, 1);

        let mut emit = BpNtt::new(cfg.clone()).unwrap();
        emit.load_batch(&batch).unwrap();
        g.bench_function(format!("emit_per_call/{cols}cols_{lanes}lanes"), |b| {
            b.iter(|| emit.forward_mode(ExecMode::Generic).unwrap());
        });

        let mut replay = BpNtt::new(cfg.clone()).unwrap();
        replay.load_batch(&batch).unwrap();
        replay.forward().unwrap(); // compile + warm the cache
        g.bench_function(format!("replay_cached/{cols}cols_{lanes}lanes"), |b| {
            b.iter(|| replay.forward().unwrap());
        });
    }
    g.finish();
}

fn bench_sharded(c: &mut Criterion) {
    let mut g = c.benchmark_group("dilithium256_sharded_forward_batch");
    g.sample_size(10);
    let cfg = dilithium_config(256);
    let lanes = cfg.layout().lanes();
    for shards in [1usize, 2, 4] {
        let mut sharded = ShardedBpNtt::new(&cfg, shards).unwrap();
        let batch = pseudo_batch(&cfg, shards * lanes, 7);
        // Warm the shared program cache outside the timing loop.
        sharded.forward_batch(&batch).unwrap();
        g.bench_function(format!("shards={shards} ({} polys)", batch.len()), |b| {
            b.iter(|| sharded.forward_batch(&batch).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_replay_vs_emit, bench_sharded);
criterion_main!(benches);

//! Prints the replay compiler's fusion coverage for the benchmark
//! configurations: how much of the compiled stream runs as superops vs
//! generic instructions, the word-engine fast-path coverage counters
//! (register-resident chains/loops vs per-step fallbacks), and a
//! force_scalar A/B of replay and generic-emission wall-clock.

use std::time::Instant;

use bpntt_core::{BpNtt, BpNttConfig, ExecMode};
use bpntt_ntt::NttParams;

fn main() {
    for cols in [48usize, 256, 512, 1024] {
        let cfg = BpNttConfig::new(262, cols, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap();
        let lanes = cfg.layout().lanes();
        let mut acc = BpNtt::new(cfg).unwrap();
        let polys: Vec<Vec<u64>> = (0..lanes)
            .map(|s| {
                (0..256)
                    .map(|j| ((s * 131 + j * 7) as u64) % 8_380_417)
                    .collect()
            })
            .collect();
        acc.load_batch(&polys).unwrap();
        let prog = acc.compiled_forward().unwrap();
        println!(
            "cols={cols}: static_len={} fused_ops={} fused_chains={} fused_epilogues={} fast_path={:?}",
            prog.static_len(),
            prog.fused_ops(),
            prog.fused_chains(),
            prog.fused_epilogues(),
            prog.fast_path_kind(),
        );
        // Fast-path coverage: which execution strategy actually ran, per
        // path. "Zero resident hits" here is the canary for a silently
        // degraded fast path.
        acc.forward().unwrap();
        acc.reset_stats();
        acc.forward().unwrap();
        println!("  replay coverage: {}", acc.fastpath_stats());
        // In-process A/B: same program, toggled kernel implementation,
        // interleaved across both execution paths to cancel machine
        // drift.
        for (name, scalar) in [("simd", false), ("scalar", true)] {
            bpntt_sram::force_scalar(scalar);
            acc.forward().unwrap();
            let mut best_r = f64::MAX;
            let mut best_e = f64::MAX;
            for _ in 0..10 {
                let t = Instant::now();
                for _ in 0..3 {
                    acc.forward().unwrap();
                }
                best_r = best_r.min(t.elapsed().as_secs_f64() / 3.0);
                let t = Instant::now();
                for _ in 0..3 {
                    acc.forward_mode(ExecMode::Generic).unwrap();
                }
                best_e = best_e.min(t.elapsed().as_secs_f64() / 3.0);
            }
            println!(
                "  [{name}] generic emit = {:.3} ms, replay = {:.3} ms, replay speedup = {:.2}x",
                best_e * 1e3,
                best_r * 1e3,
                best_e / best_r
            );
        }
        bpntt_sram::force_scalar(false);
    }
}

//! The pipeline op-graph API, end to end: canned specs, custom graphs,
//! NTT-domain caching with a resident spectrum, and both execution
//! modes producing identical results.
//!
//! ```text
//! cargo run --release --example pipeline_graphs
//! ```
//!
//! The paper's Table 3 scores *polynomial multiplication* — forward,
//! forward, pointwise, inverse — end to end, not isolated transforms.
//! `PipelineSpec` makes that whole workload (and every variant HE/PQC
//! clients actually run) a single compiled, cacheable object: operands
//! load once, the graph executes in-SRAM, results read once.

use bpntt_core::{BpNtt, BpNttConfig, ExecMode, PipelineSpec};
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::NttParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 64-point Kyber-class parameters; 2·64 + 6 rows hosts two operand
    // slots on one tile.
    let params = NttParams::new(64, 7681)?;
    let cfg = BpNttConfig::new(134, 256, 14, params.clone())?;
    let lanes = cfg.layout().lanes();
    println!(
        "pipelines over Z_{}[x]/(x^{}+1), {} lanes",
        params.modulus(),
        params.n(),
        lanes
    );
    let mk_batch = |seed: u64, count: usize| -> Vec<Vec<u64>> {
        (0..count as u64)
            .map(|l| {
                (0..params.n() as u64)
                    .map(|j| ((seed + l) * 131 + j * 7) % params.modulus())
                    .collect()
            })
            .collect()
    };

    // 1. The canned negacyclic product, in both execution modes.
    let a = mk_batch(10, 3);
    let b = mk_batch(20, 3);
    let spec = PipelineSpec::polymul();
    let mut acc = BpNtt::new(cfg.clone())?;
    let plan = acc.compile_pipeline(&spec)?;
    println!(
        "polymul spec: {} ops -> {} compiled segments, {} typed ops",
        spec.ops().len(),
        plan.segments(),
        plan.fused_ops()
    );
    for mode in ExecMode::ALL {
        let out = acc.run_pipeline(&spec, mode, &[&a, &b])?;
        for lane in 0..3 {
            let expect = polymul_schoolbook(&params, &a[lane], &b[lane])?;
            assert_eq!(out[lane], expect, "{mode:?} lane {lane}");
        }
    }
    println!("  replay ≡ generic ≡ schoolbook on 3 lanes");

    // 2. NTT-domain caching: park a reused operand's spectrum in slot 1
    // once (no output — the array keeps it), then stream products
    // against it. Each product skips one operand reload and both
    // forward transforms of the naive per-call shape.
    let kernel = mk_batch(77, lanes);
    let cache_spec = PipelineSpec::new().input(1).forward(1);
    let mac_spec = PipelineSpec::new()
        .input(0)
        .forward(0)
        .pointwise(0, 1)
        .inverse(0)
        .output(0);
    let mut resident = BpNtt::new(cfg.clone())?;
    resident.run_pipeline(&cache_spec, ExecMode::Replay, &[&kernel])?;
    for round in 0..3u64 {
        let x = mk_batch(100 + round, lanes);
        let got = resident.run_pipeline(&mac_spec, ExecMode::Replay, &[&x])?;
        for lane in 0..lanes {
            let expect = polymul_schoolbook(&params, &x[lane], &kernel[lane])?;
            assert_eq!(got[lane], expect, "round {round} lane {lane}");
        }
    }
    println!("  resident-spectrum MAC: 3 rounds × {lanes} lanes verified");

    // 3. A custom graph with debt folding: (a ⊛ b) scaled by 5. The
    // pointwise step's R⁻¹ debt folds into the *next* constant multiply
    // on the slot — here the inverse's N⁻¹ scale (which becomes n⁻¹·R²)
    // — so the trailing ScaleBy compiles as a plain ×5 fifth segment
    // and no extra compensation segment is ever appended.
    let scaled_spec = PipelineSpec::new()
        .input(0)
        .input(1)
        .forward(0)
        .forward(1)
        .pointwise(0, 1)
        .inverse(0)
        .scale_by(0, 5)
        .output(0);
    let mut custom = BpNtt::new(cfg)?;
    let got = custom.run_pipeline(&scaled_spec, ExecMode::Replay, &[&a, &b])?;
    for lane in 0..3 {
        let prod = polymul_schoolbook(&params, &a[lane], &b[lane])?;
        let expect: Vec<u64> = prod.iter().map(|&c| c * 5 % params.modulus()).collect();
        assert_eq!(got[lane], expect, "lane {lane}");
    }
    println!("  custom scale-after-product graph verified (5 segments)");
    println!(
        "\nsimulator stats of the custom engine:\n{}",
        custom.stats()
    );
    Ok(())
}

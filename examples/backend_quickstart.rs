//! Backend HAL quickstart: one compiled pipeline, two backends.
//!
//! ```text
//! cargo run --release --example backend_quickstart
//! ```
//!
//! Compiles a polynomial-multiplication pipeline once and runs the same
//! compiled artifact on both backends:
//!
//! * [`BackendKind::Sim`] — the cost-accounted bit-accurate simulator;
//!   its [`BackendStats`] carries the full `Stats` snapshot (cycles,
//!   energy model) answering "what would the SRAM macro cost."
//! * [`BackendKind::Native`] — direct execution through the same fused
//!   word-engine executors with cost accounting compiled out; wall clock
//!   only, answering "how fast is this box."
//!
//! Every lane is checked bit-exactly against the Shoup software NTT
//! reference, and the two backends must agree row for row.

use bpntt_core::{new_backend, BackendKind, BpNttConfig, ExecMode, PipelineSpec};
use bpntt_ntt::polymul::polymul_ntt_with;
use bpntt_ntt::{NttParams, Polynomial, TwiddleTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Dilithium-class parameters; polymul needs two operand slots
    // (2·256 + 6 rows).
    let params = NttParams::new(256, 8_380_417)?;
    let cfg = BpNttConfig::new(518, 256, 24, params.clone())?;
    let lanes = cfg.layout().lanes();
    let spec = PipelineSpec::polymul();

    let a: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|l| Polynomial::pseudo_random(&params, 2 * l + 1).into_coeffs())
        .collect();
    let b: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|l| Polynomial::pseudo_random(&params, 2 * l + 2).into_coeffs())
        .collect();

    // Compile once on the simulator and execute the identical artifact
    // on the native backend — compiled pipelines are backend-independent.
    let mut sim = new_backend(BackendKind::Sim, &cfg)?;
    let plan = sim.compile(&spec)?;
    let mut native = new_backend(BackendKind::Native, &cfg)?;

    let (sim_rows, sim_cost) = sim.execute(&plan, ExecMode::Replay, &[&a, &b])?;
    let (nat_rows, nat_cost) = native.execute(&plan, ExecMode::Replay, &[&a, &b])?;
    assert_eq!(sim_rows, nat_rows, "backends diverged");

    // Both agree with the software reference, lane by lane.
    let twiddles = TwiddleTable::new(&params);
    for lane in 0..lanes {
        let expect = polymul_ntt_with(&params, &twiddles, &a[lane], &b[lane])?;
        assert_eq!(
            nat_rows[lane], expect,
            "lane {lane} diverged from software NTT"
        );
    }
    println!(
        "{lanes} lanes × {}-pt polymul, both backends reference-exact\n",
        params.n()
    );

    let stats = sim_cost.sim.expect("sim backend always reports Stats");
    println!(
        "sim backend:    {:>8.3} ms wall | {} modeled cycles, {:.1} nJ ({} instrs)",
        sim_cost.wall_secs * 1e3,
        stats.cycles,
        stats.energy_pj / 1e3,
        stats.counts.total(),
    );
    println!(
        "native backend: {:>8.3} ms wall | cost accounting compiled out (sim stats: {:?})",
        nat_cost.wall_secs * 1e3,
        nat_cost.sim,
    );
    println!(
        "\nnative is {:.2}x the costed simulator on this box",
        sim_cost.wall_secs / nat_cost.wall_secs,
    );
    Ok(())
}

//! Design-space exploration: throughput-per-area and throughput-per-power
//! across word widths and array geometries — the flexibility knob the
//! paper contrasts against fixed-function accelerators.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use bpntt_core::{BpNtt, BpNttConfig, PerfReport};
use bpntt_ntt::{NttParams, Polynomial};
use bpntt_sram::geometry::{AreaModel, FrequencyModel};

fn measure(rows: usize, cols: usize, bw: usize, params: &NttParams) -> Option<PerfReport> {
    let cfg = BpNttConfig::new(rows, cols, bw, params.clone()).ok()?;
    let geometry = cfg.geometry();
    let lanes = cfg.layout().lanes();
    let mut acc = BpNtt::new(cfg).ok()?;
    let polys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|s| Polynomial::pseudo_random(params, s + 3).into_coeffs())
        .collect();
    acc.load_batch(&polys).ok()?;
    acc.reset_stats();
    acc.forward().ok()?;
    Some(PerfReport::from_stats(
        &acc.stats(),
        lanes,
        geometry,
        &AreaModel::cmos_45nm(),
        &FrequencyModel::cmos_45nm(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("design space for the 256-point NTT (q chosen per width):\n");
    println!(
        "{:<12} {:>6} {:>7} {:>12} {:>12} {:>14} {:>12}",
        "array", "bits", "lanes", "latency(us)", "tput(k/s)", "TA(k/s/mm2)", "TP(k/mJ)"
    );
    let q14 = NttParams::new(256, 7681)?; // 13-bit prime → 14-bit words
    let q16 = NttParams::new(256, 12_289)?; // 14-bit prime → 16-bit words
    let cases: [(usize, usize, usize, &NttParams); 6] = [
        (262, 256, 14, &q14),
        (262, 256, 16, &q16),
        (262, 256, 32, &q16),
        (128, 128, 16, &q16),
        (512, 512, 16, &q16),
        (1024, 256, 16, &q16),
    ];
    for (rows, cols, bw, params) in cases {
        match measure(rows, cols, bw, params) {
            Some(r) => println!(
                "{:<12} {:>6} {:>7} {:>12.2} {:>12.1} {:>14.1} {:>12.1}",
                format!("{rows}x{cols}"),
                bw,
                r.batch,
                r.latency_us(),
                r.throughput_kntt_s(),
                r.tput_per_area,
                r.tput_per_power
            ),
            None => {
                println!(
                    "{:<12} {:>6}  (configuration not feasible)",
                    format!("{rows}x{cols}"),
                    bw
                );
            }
        }
    }
    println!("\nobservations: wider words shrink the lane count (throughput) at fixed");
    println!("area; larger arrays buy lanes but clock slower and cost area — the");
    println!("trade-off surface behind the paper's Fig. 8 and Table I.");
    Ok(())
}

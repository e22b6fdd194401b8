//! Quickstart: run the paper's headline configuration end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Loads 16 random 256-point polynomials (one per 16-bit tile), runs the
//! in-SRAM forward NTT, checks every lane against the software reference,
//! and prints the Table-I-style performance report.

use bpntt_core::{BpNtt, BpNttConfig, PerfReport};
use bpntt_ntt::{forward, Polynomial, TwiddleTable};
use bpntt_sram::geometry::{AreaModel, FrequencyModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The design point: 262×256 array (256 data rows + 6 intermediate),
    //    16-bit tiles, 256-point negacyclic NTT mod 12289.
    let cfg = BpNttConfig::paper_256pt_16bit()?;
    let geometry = cfg.geometry();
    let params = cfg.params().clone();
    let lanes = cfg.layout().lanes();
    println!(
        "BP-NTT quickstart: {} lanes × {}-point NTT mod {} on a {}×{} array",
        lanes,
        params.n(),
        params.modulus(),
        cfg.rows(),
        cfg.cols()
    );

    // 2. A batch of pseudo-random polynomials.
    let polys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|lane| Polynomial::pseudo_random(&params, lane + 1).into_coeffs())
        .collect();

    // 3. Run the accelerator.
    let mut acc = BpNtt::new(cfg)?;
    acc.load_batch(&polys)?;
    acc.reset_stats(); // measure the transform itself
    acc.forward()?;
    let spectra = acc.read_batch(lanes)?;

    // 4. Validate every lane against the software reference.
    let twiddles = TwiddleTable::new(&params);
    for (lane, poly) in polys.iter().enumerate() {
        let mut expect = poly.clone();
        forward::ntt_in_place(&params, &twiddles, &mut expect)?;
        assert_eq!(spectra[lane], expect, "lane {lane} diverged");
    }
    println!("all {lanes} lanes match the software NTT\n");

    // 5. The performance report in the paper's units.
    let report = PerfReport::from_stats(
        &acc.stats(),
        lanes,
        geometry,
        &AreaModel::cmos_45nm(),
        &FrequencyModel::cmos_45nm(),
    );
    println!("{report}");
    println!("\n(paper Table I: 61.9 us, 258.6 kNTT/s, 69.4 nJ, 0.063 mm2, 230.7 kNTT/mJ)");
    Ok(())
}

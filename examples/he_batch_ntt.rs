//! Homomorphic-encryption-scale NTT: 1024 points, BKZ.qsieve level-1
//! modulus, spanning multiple tiles of one array.
//!
//! ```text
//! cargo run --release --example he_batch_ntt
//! ```
//!
//! A 1024-point polynomial does not fit one tile (128 coefficients per
//! tile at this geometry), so the engine spreads it over 8 adjacent tiles
//! and pays explicit cross-tile shift traffic — the regime of the paper's
//! Fig. 8(b).

use bpntt_core::{BpNtt, BpNttConfig, PerfReport};
use bpntt_ntt::{NttParams, Polynomial};
use bpntt_sram::geometry::{AreaModel, FrequencyModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // HE level 1: N = 1024, q = 40961 (16-bit) → 17-bit words for headroom.
    let params = NttParams::he_1024_16bit()?;
    let cfg = BpNttConfig::new(262, 256, 17, params.clone())?;
    let layout = cfg.layout().clone();
    println!(
        "HE batch NTT: {}-point mod {} — {} tiles/polynomial, {} lane(s), {} coefficients/tile",
        params.n(),
        params.modulus(),
        layout.tiles_per_poly(),
        layout.lanes(),
        layout.coeffs_per_tile()
    );
    let geometry = cfg.geometry();
    let lanes = layout.lanes();
    let polys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|s| Polynomial::pseudo_random(&params, s + 5).into_coeffs())
        .collect();

    let mut acc = BpNtt::new(cfg)?;
    acc.load_batch(&polys)?;
    acc.reset_stats();
    acc.forward()?;
    let fwd_stats = acc.stats();
    acc.inverse()?;
    let roundtrip = acc.read_batch(lanes)?;
    assert_eq!(
        roundtrip, polys,
        "forward then inverse must be the identity"
    );
    println!("forward + inverse round-trip verified\n");

    let report = PerfReport::from_stats(
        &fwd_stats,
        lanes,
        geometry,
        &AreaModel::cmos_45nm(),
        &FrequencyModel::cmos_45nm(),
    );
    println!("forward-only report:\n{report}");
    println!(
        "\ncross-tile shift traffic: {} one-bit moves ({} explicit shifts)",
        fwd_stats.counts.shift_moves(),
        fwd_stats.counts.shift
    );
    Ok(())
}

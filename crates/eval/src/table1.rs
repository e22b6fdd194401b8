//! Table I: BP-NTT versus the state of the art on a 256-point NTT.
//!
//! The BP-NTT rows are **measured** on the simulator (real instruction
//! streams over random batches); the seven baseline rows come from
//! [`bpntt_baselines::published`] (the paper's own 45 nm projections).

use crate::render::{f, Table};
use bpntt_baselines::published;
use bpntt_baselines::spec::{DesignSpec, MemTechnology};
use bpntt_core::{BpNtt, BpNttConfig, BpNttError, PerfReport};
use bpntt_sram::geometry::{AreaModel, FrequencyModel};

/// Measured BP-NTT design point plus its Table-I row.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// The Table-I row derived from the measurement.
    pub spec: DesignSpec,
    /// The full performance report.
    pub report: PerfReport,
}

/// Runs one forward-NTT batch at a configuration and converts the result
/// into a Table-I row.
///
/// # Errors
///
/// Propagates configuration/simulation failures.
pub fn measure_bp_ntt(
    cfg: BpNttConfig,
    name: &'static str,
    coeff_bits: u32,
) -> Result<MeasuredPoint, BpNttError> {
    let geometry = cfg.geometry();
    let mut acc = BpNtt::new(cfg)?;
    let q = acc.config().params().modulus();
    let n = acc.config().params().n();
    let lanes = acc.config().layout().lanes();
    let polys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|s| {
            (0..n as u64)
                .map(|j| (s * 7919 + j * 104_729 + 13) % q)
                .collect()
        })
        .collect();
    acc.load_batch(&polys)?;
    acc.reset_stats(); // measure the transform, not the data loading
    acc.forward()?;
    let report = PerfReport::from_stats(
        &acc.stats(),
        lanes,
        geometry,
        &AreaModel::cmos_45nm(),
        &FrequencyModel::cmos_45nm(),
    );
    let spec = DesignSpec {
        name,
        technology: MemTechnology::InSram,
        tech_nm: 45,
        coeff_bits,
        max_freq_mhz: Some(report.f_hz / 1e6),
        latency_us: report.latency_us(),
        throughput_kntt_s: report.throughput_kntt_s(),
        energy_nj: report.energy_nj,
        area_mm2: Some(report.area_mm2),
        note: "measured on this reproduction's simulator",
    };
    Ok(MeasuredPoint { spec, report })
}

/// The measured 16-bit BP-NTT headline row.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn bp_ntt_16bit() -> Result<MeasuredPoint, BpNttError> {
    measure_bp_ntt(BpNttConfig::paper_256pt_16bit()?, "BP-NTT (ours)", 16)
}

/// The measured 14-bit BP-NTT row (18 lanes of 14-bit tiles).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn bp_ntt_14bit() -> Result<MeasuredPoint, BpNttError> {
    measure_bp_ntt(BpNttConfig::paper_256pt_14bit()?, "BP-NTT 14b (ours)", 14)
}

/// The complete Table I: measured BP-NTT rows first, then the published
/// baselines.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn build() -> Result<Vec<DesignSpec>, BpNttError> {
    let mut rows = vec![bp_ntt_16bit()?.spec, bp_ntt_14bit()?.spec];
    rows.extend(published::all_baselines());
    Ok(rows)
}

/// Renders Table I with the paper's columns.
#[must_use]
pub fn render(rows: &[DesignSpec]) -> String {
    let mut t = Table::new(vec![
        "Design",
        "Tech",
        "Bits",
        "MaxF(MHz)",
        "Latency(us)",
        "Tput(kNTT/s)",
        "Energy(nJ)",
        "Area(mm2)",
        "TA(kNTT/s/mm2)",
        "TP(kNTT/mJ)",
    ]);
    for d in rows {
        t.push_row(vec![
            d.name.to_string(),
            d.technology.to_string(),
            d.coeff_bits.to_string(),
            d.max_freq_mhz.map_or("-".into(), |v| f(v, 0)),
            f(d.latency_us, 2),
            f(d.throughput_kntt_s, 1),
            f(d.energy_nj, 1),
            d.area_mm2.map_or("-".into(), |v| f(v, 3)),
            d.tput_per_area().map_or("-".into(), |v| f(v, 1)),
            f(d.tput_per_power(), 2),
        ]);
    }
    t.render()
}

/// The headline efficiency ratios of the abstract, computed against a
/// measured BP-NTT row: throughput-per-power ratios over every in-memory /
/// ASIC baseline (paper: 10–138×) and the best throughput-per-area ratio
/// over the ASIC/FPGA designs (paper: up to 29–30×).
#[must_use]
pub fn headline_ratios(bp: &DesignSpec) -> (f64, f64, f64) {
    let baselines = published::all_baselines();
    let tp_ratios: Vec<f64> = baselines
        .iter()
        .filter(|d| !matches!(d.technology, MemTechnology::Cpu | MemTechnology::Fpga))
        .map(|d| bp.tput_per_power() / d.tput_per_power())
        .collect();
    let tp_min = tp_ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let tp_max = tp_ratios.iter().cloned().fold(0.0f64, f64::max);
    let ta_vs_asic = baselines
        .iter()
        .filter(|d| d.technology == MemTechnology::Asic)
        .filter_map(|d| Some(bp.tput_per_area()? / d.tput_per_area()?))
        .fold(0.0f64, f64::max);
    (tp_min, tp_max, ta_vs_asic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_all_rows() {
        // Rendering only (no simulation) keeps this test fast.
        let rows = published::all_baselines();
        let s = render(&rows);
        for name in [
            "MeNTT",
            "CryptoPIM",
            "RM-NTT",
            "LEIA",
            "Sapphire",
            "FPGA",
            "CPU",
        ] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}

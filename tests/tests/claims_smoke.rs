//! Smoke tests over the evaluation harness: the cheap claims exactly, one
//! medium simulation per harness path, and every paper claim inside its
//! reproduction band.

use bpntt_baselines::{footprint, published};
use bpntt_core::Layout;
use bpntt_eval::{ablation, claims, fig7, fig8, roofline, table1};
use bpntt_ntt::NttParams;
use bpntt_sram::geometry::{AreaModel, ArrayGeometry, FrequencyModel};

#[test]
fn capacity_and_geometry_claims() {
    assert_eq!(Layout::storage_capacity(256, 256, 256), 250);
    assert_eq!(Layout::storage_capacity(256, 256, 14), 4500);
    let b = AreaModel::cmos_45nm().breakdown(ArrayGeometry::paper_256x256());
    assert!((b.total_mm2() - 0.063).abs() < 0.004);
    assert!(b.overhead_fraction() < 0.02);
    let f = FrequencyModel::cmos_45nm().f_max_hz(ArrayGeometry::paper_256x256());
    assert!((f / 1e9 - 3.8).abs() < 0.1);
}

#[test]
fn table1_published_columns_consistent() {
    for d in published::all_baselines() {
        // TP recomputation is always possible and finite.
        assert!(
            d.tput_per_power().is_finite() && d.tput_per_power() > 0.0,
            "{}",
            d.name
        );
        if let Some(ta) = d.tput_per_area() {
            assert!(ta > 0.0, "{}", d.name);
        }
    }
    let s = table1::render(&published::all_baselines());
    assert!(s.contains("MeNTT") && s.contains("CPU"));
}

#[test]
fn fig7_footprints() {
    let cells: Vec<usize> = footprint::fig7(128, 32)
        .iter()
        .map(footprint::Footprint::cells)
        .collect();
    assert_eq!(cells, vec![4288, 16_640, 524_288]);
    assert!(fig7::render(128, 32).contains("BP-NTT"));
}

#[test]
fn roofline_is_cache_bound() {
    let m = roofline::Machine::typical_x86();
    for p in roofline::ntt_kernel_points(&NttParams::dilithium().unwrap(), &m) {
        assert!(
            p.bound_by == "L1" || p.bound_by == "L2",
            "{}: {}",
            p.name,
            p.bound_by
        );
        assert_eq!(p.bytes[3], 0, "steady state must not touch DRAM");
    }
}

#[test]
fn packing_claim_exact() {
    let (n, n1, loss) = ablation::packing_loss(256, 32);
    assert_eq!((n, n1), (8, 7));
    assert!((loss - 0.125).abs() < 1e-12);
}

#[test]
fn medium_simulation_shift_ratio() {
    // One real (small) accelerator run through the ablation path.
    let s = ablation::shift_accounting(70, 64, 14, 64, 7681).unwrap();
    assert!(s.bp_shifts > 0);
    assert!(s.ratio > 1.3 && s.ratio < 3.5, "ratio {:.2}", s.ratio);
}

#[test]
fn fig8a_small_sweep_monotonic() {
    let pts = fig8::fig8a(&[4, 8]).unwrap();
    assert!(pts[0].cycles < pts[1].cycles);
    assert!(pts[0].energy_per_ntt_nj < pts[1].energy_per_ntt_nj);
}

/// The claims CLI's gate: every quantitative claim of the paper falls
/// inside its reproduction band.
#[test]
fn every_paper_claim_is_inside_its_band() {
    let checks = claims::check_all().unwrap();
    let outside: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| {
            format!(
                "{} {}: paper {}, measured {}",
                c.id, c.description, c.paper, c.measured
            )
        })
        .collect();
    assert!(
        outside.is_empty(),
        "claims outside their band:\n{}",
        outside.join("\n")
    );
    assert_eq!(checks.len(), 18, "claims checked");
}

//! Fig. 8: flexibility sweeps — clock count and energy across bit widths
//! (a) and polynomial orders (b) — plus the array-size scaling study the
//! paper sketches under Fig. 8(b).
//!
//! Fig. 8(a) sweeps the *word width* of the hardware at a fixed order.
//! Below 14 bits no real 256-point NTT modulus exists (`q ≡ 1 mod 512`
//! needs 13 bits plus the headroom bit), and the paper still plots 2…64
//! bits: the quantity shown is the schedule's cost, which depends only on
//! the word width, not on the number-theoretic validity of the twiddles.
//! We therefore run the *exact* instruction schedule with synthetic odd
//! moduli and pseudo-random twiddles for the sweep (validated against a
//! real-modulus run at 16 bits), and use genuine parameter sets everywhere
//! a modulus exists — in particular for the whole of Fig. 8(b).

use crate::render::{f, Table};
use bpntt_core::{BpNtt, BpNttConfig, BpNttError, Kernels, Layout};
use bpntt_modmath::bits::low_mask;
use bpntt_ntt::NttParams;
use bpntt_sram::{BitRow, Controller, SramArray};

/// One sweep measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Configuration label.
    pub label: String,
    /// Word width in bits.
    pub bitwidth: usize,
    /// Polynomial order.
    pub n: usize,
    /// Parallel NTT lanes.
    pub lanes: usize,
    /// Whether one polynomial spans several tiles.
    pub multi_tile: bool,
    /// Clock cycles for one batch.
    pub cycles: u64,
    /// Whole-array batch energy (nJ).
    pub energy_nj: f64,
    /// Per-NTT energy (nJ) — the paper's Fig. 8 energy series.
    pub energy_per_ntt_nj: f64,
    /// One-bit shift operations executed.
    pub shift_moves: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs the forward-NTT schedule with a synthetic modulus (cost-accurate,
/// value-agnostic) and returns the measurement.
///
/// # Errors
///
/// Propagates layout/simulator failures.
pub fn run_synthetic_forward(
    rows: usize,
    cols: usize,
    bitwidth: usize,
    n: usize,
    seed: u64,
) -> Result<SweepPoint, BpNttError> {
    let layout = Layout::new(rows, cols, bitwidth, n)?;
    // Largest odd modulus with the headroom bit free.
    let q = (1u64 << (bitwidth - 1)) - 1;
    let array = SramArray::new(rows, layout.active_cols())?;
    let mut ctl = Controller::new(array, bitwidth)?;
    let kernels = Kernels::new(*layout.rowmap(), q, bitwidth);
    let mask = low_mask(bitwidth as u32);
    // Constant rows.
    let mut m_row = BitRow::zero(layout.active_cols());
    let mut c_row = BitRow::zero(layout.active_cols());
    for t in 0..layout.n_tiles() {
        m_row.set_tile_word(t, bitwidth, q);
        c_row.set_tile_word(t, bitwidth, q.wrapping_neg() & mask);
    }
    ctl.load_data_row(layout.rowmap().modulus.index(), m_row);
    ctl.load_data_row(layout.rowmap().comp_modulus.index(), c_row);
    // Random reduced data.
    let mut st = seed | 1;
    for r in 0..layout.coeffs_per_tile() {
        let mut row = BitRow::zero(layout.active_cols());
        for t in 0..layout.n_tiles() {
            row.set_tile_word(t, bitwidth, xorshift(&mut st) % q);
        }
        ctl.load_data_row(r, row);
    }
    ctl.reset_stats();
    // The engine's schedule, with pseudo-random twiddles.
    let cpt = layout.coeffs_per_tile();
    let mut len = n / 2;
    while len > 0 {
        if !layout.is_multi_tile() || len < cpt {
            if !layout.is_multi_tile() {
                let mut idx = 0;
                while idx < n {
                    let z = xorshift(&mut st) % q;
                    for j in idx..idx + len {
                        kernels.ct_butterfly_const(
                            &mut ctl,
                            layout.offset_row(j),
                            layout.offset_row(j + len),
                            z,
                        )?;
                    }
                    idx += 2 * len;
                }
            } else {
                let mut idx = 0;
                while idx < cpt {
                    load_random_twiddles(&mut ctl, &layout, q, &mut st);
                    for r in idx..idx + len {
                        kernels.ct_butterfly_data(
                            &mut ctl,
                            layout.offset_row(r),
                            layout.offset_row(r + len),
                        )?;
                    }
                    idx += 2 * len;
                }
            }
        } else {
            let d = len / cpt;
            for r in 0..cpt {
                load_random_twiddles(&mut ctl, &layout, q, &mut st);
                cross_tile_ct_synthetic(&mut ctl, &kernels, &layout, r, d)?;
            }
        }
        len /= 2;
    }
    let stats = ctl.stats();
    Ok(SweepPoint {
        label: format!("{bitwidth}b/{n}pt"),
        bitwidth,
        n,
        lanes: layout.lanes(),
        multi_tile: layout.is_multi_tile(),
        cycles: stats.cycles,
        energy_nj: stats.energy_nj(),
        energy_per_ntt_nj: stats.energy_nj() / layout.lanes() as f64,
        shift_moves: stats.counts.shift_moves(),
    })
}

fn load_random_twiddles(ctl: &mut Controller, layout: &Layout, q: u64, st: &mut u64) {
    let tw = layout.rowmap().twiddle.expect("multi-tile layout");
    let mut row = BitRow::zero(layout.active_cols());
    for t in 0..layout.n_tiles() {
        row.set_tile_word(t, layout.bitwidth(), xorshift(st) % q);
    }
    ctl.load_data_row(tw.index(), row);
}

fn cross_tile_ct_synthetic(
    ctl: &mut Controller,
    kernels: &Kernels,
    layout: &Layout,
    r: usize,
    d: usize,
) -> Result<(), BpNttError> {
    use bpntt_sram::{Instruction, PredMode, ShiftDir, UnaryKind};
    let rm = *layout.rowmap();
    let scratch = rm.scratch.expect("multi-tile layout");
    let row_r = layout.offset_row(r);
    let stride_log2 = d.trailing_zeros() as u8;
    kernels.move_tiles(ctl, scratch, row_r, d, ShiftDir::Right)?;
    kernels.modmul_data(ctl, scratch, rm.twiddle.expect("twiddle row"))?;
    kernels.finish_modmul(ctl)?;
    kernels.sub_mod(ctl, scratch, row_r, rm.sum, None)?;
    kernels.add_mod(ctl, row_r, row_r, rm.sum, Some((stride_log2, false)))?;
    kernels.move_tiles(ctl, scratch, scratch, d, ShiftDir::Left)?;
    ctl.execute(&Instruction::MaskTiles {
        stride_log2,
        phase: true,
    })?;
    ctl.execute(&Instruction::Unary {
        dst: row_r,
        src: scratch,
        kind: UnaryKind::Copy,
        pred: PredMode::Always,
    })?;
    ctl.execute(&Instruction::MaskAll)?;
    Ok(())
}

/// Runs a *real* forward batch (valid parameter set) and converts it to a
/// sweep point.
///
/// # Errors
///
/// Propagates configuration/simulation failures.
pub fn run_real_forward(
    rows: usize,
    cols: usize,
    bitwidth: usize,
    params: NttParams,
) -> Result<SweepPoint, BpNttError> {
    let n = params.n();
    let q = params.modulus();
    let cfg = BpNttConfig::new(rows, cols, bitwidth, params)?;
    let layout = cfg.layout().clone();
    let mut acc = BpNtt::new(cfg)?;
    let lanes = layout.lanes();
    let polys: Vec<Vec<u64>> = (0..lanes as u64)
        .map(|s| (0..n as u64).map(|j| (s * 31 + j * 131 + 7) % q).collect())
        .collect();
    acc.load_batch(&polys)?;
    acc.reset_stats();
    acc.forward()?;
    let stats = acc.stats();
    Ok(SweepPoint {
        label: format!("{bitwidth}b/{n}pt"),
        bitwidth,
        n,
        lanes,
        multi_tile: layout.is_multi_tile(),
        cycles: stats.cycles,
        energy_nj: stats.energy_nj(),
        energy_per_ntt_nj: stats.energy_nj() / lanes as f64,
        shift_moves: stats.counts.shift_moves(),
    })
}

/// Fig. 8(a): bit-width sweep at order 256 on the paper's 262×256 array.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig8a(widths: &[usize]) -> Result<Vec<SweepPoint>, BpNttError> {
    widths
        .iter()
        .map(|&w| run_synthetic_forward(262, 256, w, 256, 0xBEEF + w as u64))
        .collect()
}

/// Fig. 8(b): polynomial-order sweep at 16-bit words on the paper's
/// 262×256 array, using the genuine `q = 12289` parameter sets.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig8b(orders: &[usize]) -> Result<Vec<SweepPoint>, BpNttError> {
    orders
        .iter()
        .map(|&n| run_real_forward(262, 256, 16, NttParams::new(n, 12_289)?))
        .collect()
}

/// Array-size scaling at the 256-point / 16-bit workload (the remark under
/// Fig. 8(b): larger subarrays avoid the cross-tile overheads).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn array_scaling(geometries: &[(usize, usize)]) -> Result<Vec<SweepPoint>, BpNttError> {
    geometries
        .iter()
        .map(|&(rows, cols)| {
            let mut p = run_real_forward(rows, cols, 16, NttParams::new(256, 12_289)?)?;
            p.label = format!("{rows}x{cols}");
            Ok(p)
        })
        .collect()
}

/// Renders a sweep as the paper's two series (clock count, energy).
#[must_use]
pub fn render(points: &[SweepPoint]) -> String {
    let mut t = Table::new(vec![
        "config",
        "lanes",
        "multi-tile",
        "cycles",
        "energy/batch(nJ)",
        "energy/NTT(nJ)",
        "shifts",
    ]);
    for p in points {
        t.push_row(vec![
            p.label.clone(),
            p.lanes.to_string(),
            if p.multi_tile {
                "yes".into()
            } else {
                "no".to_string()
            },
            p.cycles.to_string(),
            f(p.energy_nj, 1),
            f(p.energy_per_ntt_nj, 2),
            p.shift_moves.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_matches_real_at_16bit() {
        // The synthetic scheduler must track the real engine's cost at the
        // one width where both exist (twiddle popcounts differ, so allow a
        // modest tolerance).
        let synth = run_synthetic_forward(262, 256, 16, 256, 42).unwrap();
        let real = run_real_forward(262, 256, 16, NttParams::new(256, 12_289).unwrap()).unwrap();
        let ratio = synth.cycles as f64 / real.cycles as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "synthetic/real cycle ratio {ratio:.3}"
        );
        assert_eq!(synth.lanes, real.lanes);
    }

    #[test]
    fn fig8a_grows_with_bitwidth() {
        let pts = fig8a(&[4, 8, 16]).unwrap();
        assert!(pts[0].cycles < pts[1].cycles && pts[1].cycles < pts[2].cycles);
        // Energy per NTT grows *steeper* than cycles: fewer lanes share the
        // array as words widen (the paper's stated reason).
        let cycle_growth = pts[2].cycles as f64 / pts[0].cycles as f64;
        let energy_growth = pts[2].energy_per_ntt_nj / pts[0].energy_per_ntt_nj;
        assert!(
            energy_growth > cycle_growth,
            "energy x{energy_growth:.2} should outpace cycles x{cycle_growth:.2}"
        );
    }

    #[test]
    fn fig8b_order_growth_is_superlinear_past_capacity() {
        let pts = fig8b(&[64, 128, 256, 512]).unwrap();
        assert!(!pts[2].multi_tile && pts[3].multi_tile);
        // Per-NTT cost (batch cycles / lanes): doubling the order within
        // tile capacity roughly doubles it; crossing the capacity boundary
        // (256 → 512) multiplies lanes down by 4 on top of the longer
        // schedule — the paper's "steeper increase".
        let per_ntt = |p: &SweepPoint| p.cycles as f64 / p.lanes as f64;
        let within = per_ntt(&pts[2]) / per_ntt(&pts[1]);
        let crossing = per_ntt(&pts[3]) / per_ntt(&pts[2]);
        assert!(
            within > 1.5 && within < 3.0,
            "in-capacity growth {within:.2}"
        );
        assert!(
            crossing > 2.5,
            "capacity-crossing growth {crossing:.2} must be steeper"
        );
        let energy_growth = pts[3].energy_per_ntt_nj / pts[2].energy_per_ntt_nj;
        assert!(energy_growth > 2.5, "energy growth {energy_growth:.2}");
    }
}

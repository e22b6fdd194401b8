//! Ablation studies quantifying the paper's design arguments with
//! measured instruction counts.
//!
//! 1. **Bit-parallel vs bit-serial** (§IV-D): Algorithm 2 against a
//!    Neural-Cache-style transposed multiplier on the same simulator.
//! 2. **Costless shifts** (§IV-B/E): shift operations of the tile-based
//!    layout against a Recryptor-style word-aligned layout where every
//!    butterfly must first align its operands by column shifting.
//! 3. **`n` vs `n+1` columns** (§IV-D): the packing observations buy one
//!    column, i.e. one extra lane on narrow arrays — the paper's "12.5%
//!    worse throughput" example.
//! 4. **Timing sensitivity**: the single-cycle-per-step model against a
//!    conservative one that charges every write-back.

use crate::fig8::run_real_forward;
use crate::render::{f, Table};
use bpntt_baselines::bitserial::{BitSerialKernel, BitSerialLayout};
use bpntt_core::{BpNtt, BpNttConfig, BpNttError};
use bpntt_ntt::NttParams;
use bpntt_sram::TimingModel;

/// Bit-parallel vs bit-serial modular multiplication, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SerialParallelComparison {
    /// Word width.
    pub width: usize,
    /// Cycles for one batch of bit-parallel multiplications (all lanes).
    pub bp_cycles: u64,
    /// Bit-parallel lanes (words per array).
    pub bp_lanes: usize,
    /// Cycles for one batch of bit-serial multiplications (all columns).
    pub bs_cycles: u64,
    /// Bit-serial columns (words per array).
    pub bs_cols: usize,
    /// Rows the bit-serial operand stack needs.
    pub bs_rows: usize,
    /// Shift operations in the bit-parallel run.
    pub bp_shifts: u64,
    /// Shift operations in the bit-serial run (always 0).
    pub bs_shifts: u64,
}

impl SerialParallelComparison {
    /// Words multiplied per cycle, bit-parallel.
    #[must_use]
    pub fn bp_words_per_cycle(&self) -> f64 {
        self.bp_lanes as f64 / self.bp_cycles as f64
    }

    /// Words multiplied per cycle, bit-serial.
    #[must_use]
    pub fn bs_words_per_cycle(&self) -> f64 {
        self.bs_cols as f64 / self.bs_cycles as f64
    }
}

/// Measures one modular multiplication in both styles at width `w`
/// (modulus `q`), on arrays of the paper's 256-column width.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn serial_vs_parallel(w: usize, q: u64) -> Result<SerialParallelComparison, BpNttError> {
    // Bit-parallel: one butterfly-free modmul per lane via a tiny config.
    use bpntt_core::{Kernels, Layout};
    use bpntt_modmath::bits::low_mask;
    use bpntt_sram::{BitRow, Controller, SramArray};
    let layout = Layout::new(16, 256, w, 8)?;
    let array = SramArray::new(16, layout.active_cols())?;
    let mut ctl = Controller::new(array, w)?;
    let kernels = Kernels::new(*layout.rowmap(), q, w);
    let mask = low_mask(w as u32);
    let mut m_row = BitRow::zero(layout.active_cols());
    let mut c_row = BitRow::zero(layout.active_cols());
    let mut b_row = BitRow::zero(layout.active_cols());
    for t in 0..layout.n_tiles() {
        m_row.set_tile_word(t, w, q);
        c_row.set_tile_word(t, w, q.wrapping_neg() & mask);
        b_row.set_tile_word(t, w, (t as u64 * 37 + 5) % q);
    }
    ctl.load_data_row(layout.rowmap().modulus.index(), m_row);
    ctl.load_data_row(layout.rowmap().comp_modulus.index(), c_row);
    ctl.load_data_row(0, b_row);
    ctl.reset_stats();
    kernels.modmul_const(&mut ctl, bpntt_sram::RowAddr(0), q / 3)?;
    kernels.finish_modmul(&mut ctl)?;
    let bp = ctl.stats();

    // Bit-serial: same multiplication across 256 columns.
    let mut bs = BitSerialKernel::new(256, w, q)?;
    let operands: Vec<u64> = (0..256u64).map(|c| (c * 37 + 5) % q).collect();
    bs.load_operands(&operands);
    bs.reset_stats();
    bs.modmul_const(q / 3)?;
    let bss = bs.stats();

    Ok(SerialParallelComparison {
        width: w,
        bp_cycles: bp.cycles,
        bp_lanes: layout.n_tiles(),
        bs_cycles: bss.cycles,
        bs_cols: 256,
        bs_rows: BitSerialLayout::for_width(w).total(),
        bp_shifts: bp.counts.shift_moves(),
        bs_shifts: bss.counts.shift_moves(),
    })
}

/// Shift accounting for one full forward NTT: BP-NTT's measured shifts vs
/// the same schedule on a word-aligned (Recryptor-style) layout, where
/// every butterfly additionally pays `2w` one-bit shifts to stage its
/// partner word onto shared bitlines and ship the result back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftAccounting {
    /// Measured shift moves in the BP-NTT run.
    pub bp_shifts: u64,
    /// Modeled shifts for the word-aligned layout (measured + alignment).
    pub word_aligned_shifts: u64,
    /// `word_aligned / bp` — the paper claims ≈2×.
    pub ratio: f64,
}

/// Computes the shift comparison at a configuration (with a caller-chosen
/// modulus so the width/headroom rules can be satisfied).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn shift_accounting(
    rows: usize,
    cols: usize,
    bw: usize,
    n: usize,
    q: u64,
) -> Result<ShiftAccounting, BpNttError> {
    let point = run_real_forward(rows, cols, bw, NttParams::new(n, q)?)?;
    let butterflies = (n as u64 / 2) * n.trailing_zeros() as u64;
    let alignment = butterflies * 2 * bw as u64;
    let word_aligned = point.shift_moves + alignment;
    Ok(ShiftAccounting {
        bp_shifts: point.shift_moves,
        word_aligned_shifts: word_aligned,
        ratio: word_aligned as f64 / point.shift_moves as f64,
    })
}

/// The `n` vs `n+1` columns packing claim: lanes available on a `cols`-wide
/// array with `w`-bit words against `w+1`-bit words, and the resulting
/// throughput loss (paper: 7 instead of 8 lanes at 32 bits on 256 columns,
/// −12.5%).
#[must_use]
pub fn packing_loss(cols: usize, w: usize) -> (usize, usize, f64) {
    let lanes_n = cols / w;
    let lanes_n1 = cols / (w + 1);
    let loss = 1.0 - lanes_n1 as f64 / lanes_n as f64;
    (lanes_n, lanes_n1, loss)
}

/// Latency under the paper timing model vs the conservative one.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn timing_sensitivity() -> Result<(u64, u64), BpNttError> {
    let run = |timing: TimingModel| -> Result<u64, BpNttError> {
        let cfg = BpNttConfig::new(70, 64, 14, NttParams::new(64, 7681)?)?;
        let mut acc = BpNtt::new(cfg)?;
        acc.set_timing_model(timing);
        let polys = vec![(0..64u64).map(|j| (j * 991) % 7681).collect::<Vec<_>>()];
        acc.load_batch(&polys)?;
        acc.reset_stats();
        acc.forward()?;
        Ok(acc.stats().cycles)
    };
    Ok((
        run(TimingModel::paper())?,
        run(TimingModel::conservative())?,
    ))
}

/// Renders every ablation at the default configurations.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn render_all() -> Result<String, BpNttError> {
    let mut out = String::new();

    out.push_str("== bit-parallel vs bit-serial modular multiplication ==\n");
    let mut t = Table::new(vec![
        "width",
        "bp cycles",
        "bp lanes",
        "bs cycles",
        "bs cols",
        "bs rows",
        "bp words/cyc",
        "bs words/cyc",
        "bp shifts",
        "bs shifts",
    ]);
    for (w, q) in [(8usize, 97u64), (14, 7681), (16, 12_289)] {
        let c = serial_vs_parallel(w, q)?;
        t.push_row(vec![
            c.width.to_string(),
            c.bp_cycles.to_string(),
            c.bp_lanes.to_string(),
            c.bs_cycles.to_string(),
            c.bs_cols.to_string(),
            c.bs_rows.to_string(),
            f(c.bp_words_per_cycle(), 4),
            f(c.bs_words_per_cycle(), 4),
            c.bp_shifts.to_string(),
            c.bs_shifts.to_string(),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n== shift accounting: tile layout vs word-aligned layout ==\n");
    let s = shift_accounting(262, 256, 16, 256, 12_289)?;
    out.push_str(&format!(
        "BP-NTT shifts: {}   word-aligned shifts: {}   ratio: {:.2}x (paper: ~2x)\n",
        s.bp_shifts, s.word_aligned_shifts, s.ratio
    ));

    out.push_str("\n== n vs n+1 column packing ==\n");
    let (lanes_n, lanes_n1, loss) = packing_loss(256, 32);
    out.push_str(&format!(
        "32-bit words on 256 columns: {lanes_n} lanes vs {lanes_n1} with n+1 bits \
         -> {:.1}% throughput loss (paper: 12.5%)\n",
        loss * 100.0
    ));

    out.push_str("\n== timing-model sensitivity ==\n");
    let (paper, conservative) = timing_sensitivity()?;
    out.push_str(&format!(
        "64-pt/8-bit forward: {paper} cycles (paper model) vs {conservative} \
         (conservative, every write-back charged) -> x{:.2}\n",
        conservative as f64 / paper as f64
    ));

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_loss_matches_paper_example() {
        let (n, n1, loss) = packing_loss(256, 32);
        assert_eq!((n, n1), (8, 7));
        assert!((loss - 0.125).abs() < 1e-9, "paper's 12.5%");
    }

    #[test]
    fn word_aligned_layout_needs_about_twice_the_shifts() {
        let s = shift_accounting(70, 64, 14, 64, 7681).unwrap();
        assert!(
            s.ratio > 1.4 && s.ratio < 3.0,
            "ratio {:.2} should be around the paper's 2x",
            s.ratio
        );
    }

    #[test]
    fn bit_serial_trades_shifts_for_cycles_and_rows() {
        let c = serial_vs_parallel(8, 97).unwrap();
        assert_eq!(c.bs_shifts, 0);
        assert!(c.bp_shifts > 0);
        assert!(c.bs_cycles > c.bp_cycles, "serialization over bit rows");
        assert!(c.bs_rows > 16, "tall operand stack");
    }

    #[test]
    fn conservative_timing_costs_more() {
        let (paper, conservative) = timing_sensitivity().unwrap();
        assert!(conservative > paper);
        assert!(
            conservative < 3 * paper,
            "bounded by the per-writeback surcharge"
        );
    }
}

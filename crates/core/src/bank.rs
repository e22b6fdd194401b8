//! Bank-level organization (paper Fig. 4(a–c)).
//!
//! A last-level-cache slice contains several SRAM banks; each bank
//! "usually has four subarrays", of which BP-NTT repurposes **one for
//! memory-mapped command/control** (the CTRL/CMD subarray holding the
//! encoded instruction stream) and the rest as vector compute units. All
//! compute subarrays of a bank execute the same broadcast instruction
//! stream, so throughput scales with the compute-subarray count at
//! unchanged latency, while the control subarray is amortized — and, as
//! the paper notes, "different banks performing the same operations can
//! share [the] CTRL/CMD subarray".
//!
//! This module models exactly that: `N` lock-stepped [`BpNtt`] engines plus
//! one control subarray charged in area and instruction-fetch energy.

use crate::config::BpNttConfig;
use crate::engine::BpNtt;
use crate::error::BpNttError;
use crate::metrics::PerfReport;
use bpntt_sram::geometry::{AreaModel, FrequencyModel};
use bpntt_sram::Stats;

/// A bank of lock-stepped BP-NTT subarrays sharing one CTRL/CMD subarray.
///
/// # Example
///
/// ```
/// use bpntt_core::{bank::Bank, BpNttConfig};
/// use bpntt_ntt::NttParams;
///
/// let cfg = BpNttConfig::new(16, 32, 8, NttParams::new(8, 97)?)?;
/// let mut bank = Bank::new(cfg, 3)?; // the paper's 1 ctrl + 3 compute
/// assert_eq!(bank.total_lanes(), 3 * 4);
/// # Ok::<(), bpntt_core::BpNttError>(())
/// ```
#[derive(Debug)]
pub struct Bank {
    compute: Vec<BpNtt>,
    config: BpNttConfig,
}

impl Bank {
    /// Builds a bank with `compute_subarrays` identical engines.
    ///
    /// # Errors
    ///
    /// Propagates configuration failures; rejects an empty bank.
    pub fn new(config: BpNttConfig, compute_subarrays: usize) -> Result<Self, BpNttError> {
        if compute_subarrays == 0 {
            return Err(BpNttError::CapacityExceeded { n: 0, capacity: 0 });
        }
        let compute = (0..compute_subarrays)
            .map(|_| BpNtt::new(config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bank { compute, config })
    }

    /// The paper's default bank: four subarrays, one repurposed for
    /// CTRL/CMD, three computing.
    ///
    /// # Errors
    ///
    /// Propagates configuration failures.
    pub fn paper_bank(config: BpNttConfig) -> Result<Self, BpNttError> {
        Self::new(config, 3)
    }

    /// Number of compute subarrays.
    #[must_use]
    pub fn compute_subarrays(&self) -> usize {
        self.compute.len()
    }

    /// Total parallel NTT lanes across the bank.
    #[must_use]
    pub fn total_lanes(&self) -> usize {
        self.compute.len() * self.config.layout().lanes()
    }

    /// Loads one batch per subarray (each up to the per-array lane count).
    ///
    /// # Errors
    ///
    /// Rejects more batches than subarrays; propagates per-array loading
    /// failures.
    pub fn load_batches(&mut self, batches: &[Vec<Vec<u64>>]) -> Result<(), BpNttError> {
        if batches.len() > self.compute.len() {
            return Err(BpNttError::BatchTooLarge {
                batch: batches.len(),
                lanes: self.compute.len(),
            });
        }
        for (engine, batch) in self.compute.iter_mut().zip(batches) {
            engine.load_batch(batch)?;
        }
        Ok(())
    }

    /// Runs the forward NTT on every subarray (lock-step broadcast).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn forward(&mut self) -> Result<(), BpNttError> {
        for engine in &mut self.compute {
            engine.forward()?;
        }
        Ok(())
    }

    /// Runs the inverse NTT on every subarray.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn inverse(&mut self) -> Result<(), BpNttError> {
        for engine in &mut self.compute {
            engine.inverse()?;
        }
        Ok(())
    }

    /// Reads `batch` polynomials back from subarray `idx`.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read_batch(&mut self, idx: usize, batch: usize) -> Result<Vec<Vec<u64>>, BpNttError> {
        self.compute[idx].read_batch(batch)
    }

    /// Resets statistics on every subarray.
    pub fn reset_stats(&mut self) {
        for engine in &mut self.compute {
            engine.reset_stats();
        }
    }

    /// Bank-level statistics: **cycles are the maximum** over subarrays
    /// (they run in lock step off one broadcast stream), energies and
    /// instruction counts **sum**.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        let mut max_cycles = 0;
        for engine in &self.compute {
            let s = engine.stats();
            max_cycles = max_cycles.max(s.cycles);
            total += s;
        }
        total.cycles = max_cycles;
        total
    }

    /// Bank-level performance report. The area charges the compute
    /// subarrays **plus one conventional subarray** for CTRL/CMD; the
    /// throughput counts every lane of every compute subarray.
    ///
    /// # Panics
    ///
    /// Panics if no work has been simulated yet.
    #[must_use]
    pub fn perf_report(&self, area: &AreaModel, freq: &FrequencyModel) -> PerfReport {
        let geometry = self.config.geometry();
        let stats = self.stats();
        let mut report = PerfReport::from_stats(&stats, self.total_lanes(), geometry, area, freq);
        // Replace the single-array area with the bank area: N compute
        // arrays (with the <2% compute additions) + 1 conventional
        // CTRL/CMD array.
        let breakdown = area.breakdown(geometry);
        let bank_area =
            breakdown.total_mm2() * self.compute.len() as f64 + breakdown.conventional_mm2();
        report.area_mm2 = bank_area;
        report.tput_per_area = report.throughput / 1e3 / bank_area;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_ntt::{forward, NttParams, Polynomial, TwiddleTable};

    fn config() -> BpNttConfig {
        BpNttConfig::new(16, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
    }

    #[test]
    fn bank_runs_independent_batches() {
        let params = NttParams::new(8, 97).unwrap();
        let mut bank = Bank::paper_bank(config()).unwrap();
        assert_eq!(bank.compute_subarrays(), 3);
        let batches: Vec<Vec<Vec<u64>>> = (0..3u64)
            .map(|s| {
                (0..4u64)
                    .map(|l| Polynomial::pseudo_random(&params, 10 * s + l + 1).into_coeffs())
                    .collect()
            })
            .collect();
        bank.load_batches(&batches).unwrap();
        bank.forward().unwrap();
        let tw = TwiddleTable::new(&params);
        for (i, batch) in batches.iter().enumerate() {
            let got = bank.read_batch(i, 4).unwrap();
            for (lane, p) in batch.iter().enumerate() {
                let mut expect = p.clone();
                forward::ntt_in_place(&params, &tw, &mut expect).unwrap();
                assert_eq!(got[lane], expect, "subarray {i} lane {lane}");
            }
        }
    }

    #[test]
    fn bank_roundtrip() {
        let params = NttParams::new(8, 97).unwrap();
        let mut bank = Bank::new(config(), 2).unwrap();
        let batches: Vec<Vec<Vec<u64>>> = (0..2u64)
            .map(|s| vec![Polynomial::pseudo_random(&params, s + 40).into_coeffs()])
            .collect();
        bank.load_batches(&batches).unwrap();
        bank.forward().unwrap();
        bank.inverse().unwrap();
        for (i, batch) in batches.iter().enumerate() {
            assert_eq!(&bank.read_batch(i, 1).unwrap(), batch);
        }
    }

    #[test]
    fn bank_scales_throughput_not_latency() {
        let params = NttParams::new(8, 97).unwrap();
        let run = |n_arrays: usize| {
            let mut bank = Bank::new(config(), n_arrays).unwrap();
            let batches: Vec<Vec<Vec<u64>>> = (0..n_arrays as u64)
                .map(|s| vec![Polynomial::pseudo_random(&params, s + 1).into_coeffs()])
                .collect();
            bank.load_batches(&batches).unwrap();
            bank.reset_stats();
            bank.forward().unwrap();
            bank.perf_report(&AreaModel::cmos_45nm(), &FrequencyModel::cmos_45nm())
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one.cycles, three.cycles, "lock-step: identical latency");
        assert!((three.throughput / one.throughput - 3.0).abs() < 1e-9);
        assert!(
            three.energy_nj > 2.9 * one.energy_nj,
            "energy sums across subarrays"
        );
        // The shared CTRL/CMD subarray is amortized: bank TA improves as
        // compute subarrays are added.
        assert!(three.tput_per_area > one.tput_per_area);
    }

    #[test]
    fn rejects_empty_bank_and_oversized_batches() {
        assert!(Bank::new(config(), 0).is_err());
        let mut bank = Bank::new(config(), 2).unwrap();
        let too_many = vec![vec![vec![0u64; 8]; 1]; 3];
        assert!(matches!(
            bank.load_batches(&too_many),
            Err(BpNttError::BatchTooLarge { .. })
        ));
    }

    #[test]
    fn stats_aggregate_max_cycles_sum_energy() {
        let params = NttParams::new(8, 97).unwrap();
        let mut bank = Bank::new(config(), 2).unwrap();
        bank.load_batches(&[
            vec![Polynomial::pseudo_random(&params, 1).into_coeffs()],
            vec![Polynomial::pseudo_random(&params, 2).into_coeffs()],
        ])
        .unwrap();
        bank.reset_stats();
        bank.forward().unwrap();
        let s = bank.stats();
        assert!(s.cycles > 0);
        assert!(s.counts.binary > 0);
    }
}

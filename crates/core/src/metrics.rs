//! Performance metrics: the paper's Table I units ([`PerfReport`]) and
//! the request-queue service's exportable snapshot ([`ServiceMetrics`]).

use bpntt_sram::geometry::{AreaModel, ArrayGeometry, FrequencyModel};
use bpntt_sram::Stats;
use std::fmt;
use std::fmt::Write as _;

/// A Table-I-style performance report for one accelerator run.
///
/// Conventions follow the paper: *latency* is the wall-clock time of one
/// batch (all lanes run in SIMD), *throughput* counts every NTT in the
/// batch, *energy* is the whole-array energy of the batch, and the two
/// efficiency metrics are throughput per mm² and throughput per milliwatt
/// (equivalently kNTT per mJ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Array geometry the run used.
    pub geometry: ArrayGeometry,
    /// Clock frequency from the frequency model (Hz).
    pub f_hz: f64,
    /// Simulated compute cycles for the batch.
    pub cycles: u64,
    /// Independent NTTs in the batch (lanes actually used).
    pub batch: usize,
    /// Batch latency in seconds.
    pub latency_s: f64,
    /// Throughput in NTT/s.
    pub throughput: f64,
    /// Whole-array batch energy in nanojoules.
    pub energy_nj: f64,
    /// Energy attributable to one NTT (nJ).
    pub energy_per_ntt_nj: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// Array area in mm² (including the compute modifications).
    pub area_mm2: f64,
    /// Throughput per area, kNTT/s/mm².
    pub tput_per_area: f64,
    /// Throughput per power, kNTT/mJ (= kNTT/s per mW).
    pub tput_per_power: f64,
}

impl PerfReport {
    /// Derives a report from simulator statistics.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or the stats carry no cycles.
    #[must_use]
    pub fn from_stats(
        stats: &Stats,
        batch: usize,
        geometry: ArrayGeometry,
        area: &AreaModel,
        freq: &FrequencyModel,
    ) -> Self {
        assert!(batch > 0, "batch must be nonzero");
        assert!(stats.cycles > 0, "run produced no cycles");
        let f_hz = freq.f_max_hz(geometry);
        let latency_s = stats.cycles as f64 / f_hz;
        let throughput = batch as f64 / latency_s;
        let energy_nj = stats.energy_nj();
        let power_w = energy_nj * 1e-9 / latency_s;
        let area_mm2 = area.breakdown(geometry).total_mm2();
        PerfReport {
            geometry,
            f_hz,
            cycles: stats.cycles,
            batch,
            latency_s,
            throughput,
            energy_nj,
            energy_per_ntt_nj: energy_nj / batch as f64,
            power_w,
            area_mm2,
            tput_per_area: throughput / 1e3 / area_mm2,
            tput_per_power: throughput / 1e3 / (power_w * 1e3),
        }
    }

    /// Latency in microseconds (the paper's unit).
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }

    /// Throughput in kNTT/s (the paper's unit).
    #[must_use]
    pub fn throughput_kntt_s(&self) -> f64 {
        self.throughput / 1e3
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "array:        {}×{} @ {:.2} GHz",
            self.geometry.rows,
            self.geometry.cols,
            self.f_hz / 1e9
        )?;
        writeln!(
            f,
            "batch:        {} NTTs in {} cycles",
            self.batch, self.cycles
        )?;
        writeln!(f, "latency:      {:.2} µs", self.latency_us())?;
        writeln!(f, "throughput:   {:.1} kNTT/s", self.throughput_kntt_s())?;
        writeln!(
            f,
            "energy:       {:.1} nJ/batch ({:.2} nJ/NTT)",
            self.energy_nj, self.energy_per_ntt_nj
        )?;
        writeln!(f, "power:        {:.3} mW", self.power_w * 1e3)?;
        writeln!(f, "area:         {:.4} mm²", self.area_mm2)?;
        writeln!(f, "tput/area:    {:.1} kNTT/s/mm²", self.tput_per_area)?;
        write!(f, "tput/power:   {:.1} kNTT/mJ", self.tput_per_power)
    }
}

/// Per-tenant slice of the service counters: how one tenant's traffic
/// fared through admission, the fair queue, and the waves. The fairness
/// observable — a starved tenant shows up as a low completed/submitted
/// ratio or a ballooning `queued` next to its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantMetrics {
    /// The tenant's raw id.
    pub tenant: u32,
    /// Requests accepted into this tenant's fair sub-queue.
    pub submitted: u64,
    /// Requests currently queued for this tenant.
    pub queued: usize,
    /// Requests shed at admission (queue overload or token-bucket rate
    /// limit) with a typed retry hint.
    pub shed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error (including deadline expiry).
    pub failed: u64,
    /// Requests that expired in the queue
    /// ([`DeadlineExpired`](crate::BpNttError::DeadlineExpired)).
    pub deadline_expired: u64,
    /// Requests dropped because their ticket was cancelled before
    /// execution ([`Cancelled`](crate::BpNttError::Cancelled)).
    pub cancelled: u64,
    /// Operand payload bytes accepted into the queue (the deficit
    /// round-robin cost unit: 8 bytes per input coefficient).
    pub bytes: u64,
}

impl TenantMetrics {
    fn to_json(self) -> String {
        format!(
            "{{\"tenant\": {}, \"submitted\": {}, \"queued\": {}, \"shed\": {}, \
             \"completed\": {}, \"failed\": {}, \"deadline_expired\": {}, \
             \"cancelled\": {}, \"bytes\": {}}}",
            self.tenant,
            self.submitted,
            self.queued,
            self.shed,
            self.completed,
            self.failed,
            self.deadline_expired,
            self.cancelled,
            self.bytes
        )
    }
}

/// A point-in-time snapshot of the request-queue service
/// ([`NttService`](crate::NttService)): queue pressure, wave coalescing
/// efficiency, throughput, per-shard wall-clock percentiles, and the
/// shared compiled-artifact cache. Exportable as JSON for scrapers
/// and the `loadgen` trajectory file, and as Prometheus text
/// format ([`Self::to_prometheus`]) for pull-based monitoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Requests queued right now.
    pub queue_depth: usize,
    /// High-water mark of the queue depth since start.
    pub peak_queue_depth: usize,
    /// The bounded queue's capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected with [`Overloaded`](crate::BpNttError::Overloaded).
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub failed: u64,
    /// Coalesced waves dispatched to the sharded engines.
    pub waves: u64,
    /// Polynomial results produced through waves (a polymul pair counts
    /// once: one result).
    pub wave_polys: u64,
    /// Mean wave fill: polynomials per wave relative to the serving
    /// engine's `lanes_total` capacity, capped at 1 per wave.
    pub wave_occupancy: f64,
    /// Wall-clock seconds the dispatcher spent inside engine calls,
    /// counted once per concurrent round of tenant groups (so it never
    /// exceeds wall time).
    pub busy_secs: f64,
    /// Results per second of dispatcher busy time (`wave_polys /
    /// busy_secs`).
    pub polys_per_sec: f64,
    /// Median of the recent per-shard wall-clock samples (seconds).
    pub shard_secs_p50: f64,
    /// 90th percentile of the recent per-shard samples (seconds).
    pub shard_secs_p90: f64,
    /// Maximum of the recent per-shard samples (seconds).
    pub shard_secs_max: f64,
    /// Compiled pipelines in the service's artifact cache, one per
    /// distinct `(backend, configuration, spec)`.
    pub pipeline_cache_entries: usize,
    /// Pipeline lookups the artifact cache served without compiling:
    /// tenant registrations, per-wave resolutions and scrub probes.
    pub pipeline_cache_hits: u64,
    /// Wall-clock milliseconds spent compiling programs on artifact
    /// cache misses.
    pub pipeline_compile_ms: f64,
    /// Chunk attempts the recovery ladder failed on detection
    /// (verification mismatch, simulator error, or contained panic),
    /// summed across tenant engines.
    pub faults_detected: u64,
    /// Chunk re-executions the ladder performed (same shard or
    /// re-dispatched after quarantine).
    pub retries: u64,
    /// High-water mark of simultaneously quarantined shards on any one
    /// tenant engine.
    pub quarantined_shards: u64,
    /// Polynomials answered by the software reference fallback (the
    /// ladder's last rung).
    pub fallback_polys: u64,
    /// Requests that expired in the queue and failed typed with
    /// [`DeadlineExpired`](crate::BpNttError::DeadlineExpired).
    pub deadline_expired: u64,
    /// Wall-clock milliseconds spent verifying outputs
    /// ([`VerifyPolicy`](crate::VerifyPolicy) overhead).
    pub verify_ms: f64,
    /// Requests rejected by a per-tenant token bucket
    /// ([`RateLimited`](crate::BpNttError::RateLimited)); a subset of
    /// [`Self::rejected`].
    pub rate_limited: u64,
    /// Requests dropped before execution because their ticket was
    /// cancelled (e.g. a disconnected network client).
    pub cancelled: u64,
    /// Big-modulus requests accepted through
    /// [`submit_rns`](crate::NttService::submit_rns) (one per group,
    /// however many limbs it decomposed into).
    pub rns_requests: u64,
    /// Limb sub-requests those RNS groups expanded to.
    pub rns_limbs: u64,
    /// Concurrent fan-out rounds holding at least one RNS limb group
    /// (each round runs several limb engines in one wall-clock window).
    pub rns_fanout_waves: u64,
    /// Mean occupancy of those rounds: busy lanes across every engine of
    /// the round over the round's total lane capacity.
    pub rns_fanout_occupancy: f64,
    /// Known-answer probes the scrubber executed against benched shards,
    /// summed across tenant engines.
    pub probes_run: u64,
    /// Probes whose output matched the precomputed reference exactly.
    pub probes_passed: u64,
    /// Quarantined shards returned to full service through the
    /// probe → canary → clean-wave ladder.
    pub reintegrations: u64,
    /// Canary shards demoted back to quarantine by a failed wave.
    pub canary_demotions: u64,
    /// Patrol probes run against healthy shards between waves.
    pub patrol_probes: u64,
    /// Healthy shards a patrol probe caught corrupting (benched before
    /// any tenant traffic reached them).
    pub patrol_quarantines: u64,
    /// Dispatcher or scrubber threads the watchdog respawned after a
    /// panic.
    pub respawns: u64,
    /// Per-shard health state of the default tenant's engine
    /// (0 healthy, 1 canary, 2 probing, 3 quarantined), refreshed by
    /// waves and scrub passes. Empty until the first wave or scrub.
    pub shard_health: Vec<u8>,
    /// Registered tenants.
    pub tenants: usize,
    /// Per-tenant counter slices, sorted by tenant id. Tenants with no
    /// traffic yet still appear (zeroed) once registered.
    pub per_tenant: Vec<TenantMetrics>,
}

impl ServiceMetrics {
    /// Renders the snapshot as a self-contained JSON object (no trailing
    /// newline), with the same hand-rolled discipline as the bench
    /// writers — the workspace builds offline, so no serde.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"queue_depth\": {}, \"peak_queue_depth\": {}, \"queue_capacity\": {}, ",
            self.queue_depth, self.peak_queue_depth, self.queue_capacity
        );
        let _ = write!(
            s,
            "\"submitted\": {}, \"rejected\": {}, \"completed\": {}, \"failed\": {}, ",
            self.submitted, self.rejected, self.completed, self.failed
        );
        let _ = write!(
            s,
            "\"waves\": {}, \"wave_polys\": {}, \"wave_occupancy\": {:.4}, ",
            self.waves, self.wave_polys, self.wave_occupancy
        );
        let _ = write!(
            s,
            "\"busy_secs\": {:.6}, \"polys_per_sec\": {:.1}, ",
            self.busy_secs, self.polys_per_sec
        );
        let _ = write!(
            s,
            "\"shard_ms_p50\": {:.4}, \"shard_ms_p90\": {:.4}, \"shard_ms_max\": {:.4}, ",
            self.shard_secs_p50 * 1e3,
            self.shard_secs_p90 * 1e3,
            self.shard_secs_max * 1e3
        );
        let _ = write!(
            s,
            "\"pipeline_cache_entries\": {}, \"pipeline_cache_hits\": {}, \
             \"pipeline_compile_ms\": {:.4}, ",
            self.pipeline_cache_entries, self.pipeline_cache_hits, self.pipeline_compile_ms
        );
        let _ = write!(
            s,
            "\"faults_detected\": {}, \"retries\": {}, \"quarantined_shards\": {}, ",
            self.faults_detected, self.retries, self.quarantined_shards
        );
        let _ = write!(
            s,
            "\"fallback_polys\": {}, \"deadline_expired\": {}, \"verify_ms\": {:.4}, ",
            self.fallback_polys, self.deadline_expired, self.verify_ms
        );
        let _ = write!(
            s,
            "\"rate_limited\": {}, \"cancelled\": {}, ",
            self.rate_limited, self.cancelled
        );
        let _ = write!(
            s,
            "\"rns_requests\": {}, \"rns_limbs\": {}, \"rns_fanout_waves\": {}, \
             \"rns_fanout_occupancy\": {:.4}, ",
            self.rns_requests, self.rns_limbs, self.rns_fanout_waves, self.rns_fanout_occupancy
        );
        let _ = write!(
            s,
            "\"health\": {{\"probes_run\": {}, \"probes_passed\": {}, \
             \"reintegrations\": {}, \"canary_demotions\": {}, \
             \"patrol_probes\": {}, \"patrol_quarantines\": {}, \
             \"respawns\": {}, \"shard_states\": [",
            self.probes_run,
            self.probes_passed,
            self.reintegrations,
            self.canary_demotions,
            self.patrol_probes,
            self.patrol_quarantines,
            self.respawns
        );
        for (i, st) in self.shard_health.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{st}");
        }
        s.push_str("]}, ");
        let _ = write!(s, "\"tenants\": {}, \"per_tenant\": [", self.tenants);
        for (i, t) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Renders the snapshot in Prometheus text exposition format (one
    /// `# TYPE` line per family, `bpntt_` prefix, per-tenant families
    /// labelled `{tenant="<id>"}`). Values agree exactly with
    /// [`Self::to_json`] — the parity is pinned by a test.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let mut gauge = |name: &str, help: &str, v: f64| {
            let _ = writeln!(s, "# HELP bpntt_{name} {help}");
            let _ = writeln!(s, "# TYPE bpntt_{name} gauge");
            if v.fract() == 0.0 && v.abs() < 9e15 {
                let _ = writeln!(s, "bpntt_{name} {}", v as i64);
            } else {
                let _ = writeln!(s, "bpntt_{name} {v}");
            }
        };
        gauge(
            "queue_depth",
            "Requests queued right now",
            self.queue_depth as f64,
        );
        gauge(
            "peak_queue_depth",
            "High-water mark of the queue depth",
            self.peak_queue_depth as f64,
        );
        gauge(
            "queue_capacity",
            "Bounded queue capacity",
            self.queue_capacity as f64,
        );
        gauge(
            "submitted_total",
            "Requests accepted",
            self.submitted as f64,
        );
        gauge(
            "rejected_total",
            "Requests shed at admission",
            self.rejected as f64,
        );
        gauge(
            "rate_limited_total",
            "Requests rejected by a tenant token bucket",
            self.rate_limited as f64,
        );
        gauge(
            "completed_total",
            "Requests completed successfully",
            self.completed as f64,
        );
        gauge(
            "failed_total",
            "Requests completed with an error",
            self.failed as f64,
        );
        gauge(
            "cancelled_total",
            "Requests dropped after ticket cancellation",
            self.cancelled as f64,
        );
        gauge(
            "waves_total",
            "Coalesced waves dispatched",
            self.waves as f64,
        );
        gauge(
            "wave_polys_total",
            "Polynomial results produced through waves",
            self.wave_polys as f64,
        );
        gauge(
            "wave_occupancy",
            "Mean wave fill ratio",
            self.wave_occupancy,
        );
        gauge(
            "busy_seconds_total",
            "Dispatcher wall-clock inside engine calls",
            self.busy_secs,
        );
        gauge(
            "polys_per_sec",
            "Results per busy second",
            self.polys_per_sec,
        );
        gauge(
            "shard_seconds_p50",
            "Median recent per-shard wall-clock",
            self.shard_secs_p50,
        );
        gauge(
            "shard_seconds_p90",
            "P90 recent per-shard wall-clock",
            self.shard_secs_p90,
        );
        gauge(
            "shard_seconds_max",
            "Max recent per-shard wall-clock",
            self.shard_secs_max,
        );
        gauge(
            "pipeline_cache_entries",
            "Compiled pipelines in the artifact cache",
            self.pipeline_cache_entries as f64,
        );
        gauge(
            "pipeline_cache_hits_total",
            "Pipeline lookups served without compiling",
            self.pipeline_cache_hits as f64,
        );
        gauge(
            "pipeline_compile_milliseconds_total",
            "Wall-clock spent compiling on cache misses",
            self.pipeline_compile_ms,
        );
        gauge(
            "faults_detected_total",
            "Chunk attempts failed on detection",
            self.faults_detected as f64,
        );
        gauge(
            "retries_total",
            "Chunk re-executions by the recovery ladder",
            self.retries as f64,
        );
        gauge(
            "quarantined_shards",
            "High-water mark of quarantined shards",
            self.quarantined_shards as f64,
        );
        gauge(
            "fallback_polys_total",
            "Polynomials answered by the software fallback",
            self.fallback_polys as f64,
        );
        gauge(
            "deadline_expired_total",
            "Requests expired in the queue",
            self.deadline_expired as f64,
        );
        gauge(
            "verify_milliseconds_total",
            "Wall-clock spent verifying outputs",
            self.verify_ms,
        );
        gauge(
            "rns_requests_total",
            "Big-modulus requests accepted through submit_rns",
            self.rns_requests as f64,
        );
        gauge(
            "rns_limbs_total",
            "Limb sub-requests RNS groups expanded to",
            self.rns_limbs as f64,
        );
        gauge(
            "rns_fanout_waves_total",
            "Concurrent RNS fan-out rounds executed",
            self.rns_fanout_waves as f64,
        );
        gauge(
            "rns_fanout_occupancy",
            "Mean lane occupancy of RNS fan-out rounds",
            self.rns_fanout_occupancy,
        );
        gauge(
            "health_probes_total",
            "Known-answer probes run by the scrubber",
            self.probes_run as f64,
        );
        gauge(
            "health_probes_passed_total",
            "Probes that matched the reference exactly",
            self.probes_passed as f64,
        );
        gauge(
            "health_reintegrations_total",
            "Quarantined shards returned to full service",
            self.reintegrations as f64,
        );
        gauge(
            "health_canary_demotions_total",
            "Canary shards demoted back to quarantine",
            self.canary_demotions as f64,
        );
        gauge(
            "health_patrol_probes_total",
            "Patrol probes run against healthy shards",
            self.patrol_probes as f64,
        );
        gauge(
            "health_patrol_quarantines_total",
            "Healthy shards benched by a failed patrol probe",
            self.patrol_quarantines as f64,
        );
        gauge(
            "respawns_total",
            "Service threads respawned by the watchdog",
            self.respawns as f64,
        );
        gauge("tenants", "Registered tenants", self.tenants as f64);
        // Per-shard health of the default tenant, one labelled sample
        // per shard (0 healthy, 1 canary, 2 probing, 3 quarantined).
        let _ = writeln!(
            s,
            "# HELP bpntt_shard_health_state Default-tenant shard health \
             (0 healthy, 1 canary, 2 probing, 3 quarantined)"
        );
        let _ = writeln!(s, "# TYPE bpntt_shard_health_state gauge");
        for (i, st) in self.shard_health.iter().enumerate() {
            let _ = writeln!(s, "bpntt_shard_health_state{{shard=\"{i}\"}} {st}");
        }
        // Per-tenant families: one TYPE line each, then one labelled
        // sample per tenant.
        type TenantField = fn(&TenantMetrics) -> u64;
        let families: [(&str, &str, TenantField); 7] = [
            (
                "tenant_submitted_total",
                "Requests accepted per tenant",
                |t| t.submitted,
            ),
            (
                "tenant_queued",
                "Requests currently queued per tenant",
                |t| t.queued as u64,
            ),
            (
                "tenant_shed_total",
                "Requests shed at admission per tenant",
                |t| t.shed,
            ),
            (
                "tenant_completed_total",
                "Requests completed per tenant",
                |t| t.completed,
            ),
            ("tenant_failed_total", "Requests failed per tenant", |t| {
                t.failed
            }),
            (
                "tenant_deadline_expired_total",
                "Requests expired in queue per tenant",
                |t| t.deadline_expired,
            ),
            (
                "tenant_bytes_total",
                "Operand bytes accepted per tenant",
                |t| t.bytes,
            ),
        ];
        for (name, help, get) in families {
            let _ = writeln!(s, "# HELP bpntt_{name} {help}");
            let _ = writeln!(s, "# TYPE bpntt_{name} gauge");
            for t in &self.per_tenant {
                let _ = writeln!(s, "bpntt_{name}{{tenant=\"{}\"}} {}", t.tenant, get(t));
            }
        }
        let _ = writeln!(
            s,
            "# HELP bpntt_tenant_cancelled_total Requests cancelled per tenant"
        );
        let _ = writeln!(s, "# TYPE bpntt_tenant_cancelled_total gauge");
        for t in &self.per_tenant {
            let _ = writeln!(
                s,
                "bpntt_tenant_cancelled_total{{tenant=\"{}\"}} {}",
                t.tenant, t.cancelled
            );
        }
        s
    }
}

/// Nearest-rank percentile of an **ascending-sorted** slice; 0.0 when
/// empty. `p` in `[0, 1]`.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn service_metrics_render_as_json() {
        let m = ServiceMetrics {
            queue_depth: 1,
            peak_queue_depth: 9,
            queue_capacity: 128,
            submitted: 40,
            rejected: 2,
            completed: 37,
            failed: 1,
            waves: 5,
            wave_polys: 38,
            wave_occupancy: 0.95,
            busy_secs: 0.5,
            polys_per_sec: 76.0,
            shard_secs_p50: 0.001,
            shard_secs_p90: 0.002,
            shard_secs_max: 0.003,
            pipeline_cache_entries: 5,
            pipeline_cache_hits: 4,
            pipeline_compile_ms: 2.5,
            faults_detected: 6,
            retries: 4,
            quarantined_shards: 1,
            fallback_polys: 2,
            deadline_expired: 3,
            verify_ms: 1.25,
            rate_limited: 2,
            cancelled: 1,
            rns_requests: 4,
            rns_limbs: 12,
            rns_fanout_waves: 4,
            rns_fanout_occupancy: 0.5,
            probes_run: 12,
            probes_passed: 10,
            reintegrations: 2,
            canary_demotions: 1,
            patrol_probes: 7,
            patrol_quarantines: 1,
            respawns: 1,
            shard_health: vec![0, 1, 3],
            tenants: 3,
            per_tenant: vec![
                TenantMetrics {
                    tenant: 0,
                    submitted: 30,
                    queued: 1,
                    shed: 2,
                    completed: 28,
                    failed: 1,
                    deadline_expired: 3,
                    cancelled: 1,
                    bytes: 15_360,
                },
                TenantMetrics {
                    tenant: 7,
                    submitted: 10,
                    completed: 9,
                    ..TenantMetrics::default()
                },
            ],
        };
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"queue_depth\": 1",
            "\"peak_queue_depth\": 9",
            "\"rejected\": 2",
            "\"waves\": 5",
            "\"wave_occupancy\": 0.9500",
            "\"polys_per_sec\": 76.0",
            "\"shard_ms_p90\": 2.0000",
            "\"pipeline_cache_entries\": 5",
            "\"pipeline_cache_hits\": 4",
            "\"pipeline_compile_ms\": 2.5000",
            "\"faults_detected\": 6",
            "\"retries\": 4",
            "\"quarantined_shards\": 1",
            "\"fallback_polys\": 2",
            "\"deadline_expired\": 3",
            "\"verify_ms\": 1.2500",
            "\"rate_limited\": 2",
            "\"cancelled\": 1",
            "\"rns_requests\": 4",
            "\"rns_limbs\": 12",
            "\"rns_fanout_waves\": 4",
            "\"rns_fanout_occupancy\": 0.5000",
            "\"health\": {\"probes_run\": 12, \"probes_passed\": 10",
            "\"reintegrations\": 2",
            "\"canary_demotions\": 1",
            "\"patrol_probes\": 7",
            "\"patrol_quarantines\": 1",
            "\"respawns\": 1",
            "\"shard_states\": [0, 1, 3]",
            "\"tenants\": 3",
            "\"per_tenant\": [{\"tenant\": 0,",
            "\"bytes\": 15360",
            "{\"tenant\": 7, \"submitted\": 10,",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// The JSON and Prometheus exports must agree on every shared value —
    /// a scraper watching one and a dashboard watching the other see the
    /// same service.
    #[test]
    fn json_and_prometheus_exports_agree() {
        let m = ServiceMetrics {
            queue_depth: 4,
            peak_queue_depth: 11,
            queue_capacity: 64,
            submitted: 123,
            rejected: 5,
            completed: 110,
            failed: 4,
            waves: 17,
            wave_polys: 120,
            wave_occupancy: 0.75,
            busy_secs: 1.5,
            polys_per_sec: 80.0,
            shard_secs_p50: 0.002,
            shard_secs_p90: 0.004,
            shard_secs_max: 0.006,
            pipeline_cache_entries: 3,
            pipeline_cache_hits: 6,
            pipeline_compile_ms: 4.0,
            faults_detected: 9,
            retries: 8,
            quarantined_shards: 1,
            fallback_polys: 2,
            deadline_expired: 4,
            verify_ms: 3.5,
            rate_limited: 3,
            cancelled: 2,
            rns_requests: 5,
            rns_limbs: 15,
            rns_fanout_waves: 5,
            rns_fanout_occupancy: 0.6,
            probes_run: 20,
            probes_passed: 18,
            reintegrations: 3,
            canary_demotions: 1,
            patrol_probes: 9,
            patrol_quarantines: 2,
            respawns: 1,
            shard_health: vec![0, 3],
            tenants: 2,
            per_tenant: vec![
                TenantMetrics {
                    tenant: 1,
                    submitted: 100,
                    queued: 3,
                    shed: 4,
                    completed: 90,
                    failed: 3,
                    deadline_expired: 3,
                    cancelled: 2,
                    bytes: 51_200,
                },
                TenantMetrics {
                    tenant: 2,
                    submitted: 23,
                    queued: 1,
                    shed: 1,
                    completed: 20,
                    failed: 1,
                    deadline_expired: 1,
                    cancelled: 0,
                    bytes: 11_776,
                },
            ],
        };
        let json = m.to_json();
        let prom = m.to_prometheus();
        // Pull a scalar out of each export and compare.
        let json_val = |key: &str| -> u64 {
            let pat = format!("\"{key}\": ");
            let at = json
                .find(&pat)
                .unwrap_or_else(|| panic!("no {key} in json"));
            let rest = &json[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap()
        };
        let prom_val = |sample: &str| -> u64 {
            let line = prom
                .lines()
                .find(|l| l.starts_with(sample) && l[sample.len()..].starts_with(' '))
                .unwrap_or_else(|| panic!("no sample {sample} in prometheus export"));
            line[sample.len() + 1..].parse().unwrap()
        };
        for (jk, pk) in [
            ("queue_depth", "bpntt_queue_depth"),
            ("submitted", "bpntt_submitted_total"),
            ("rejected", "bpntt_rejected_total"),
            ("rate_limited", "bpntt_rate_limited_total"),
            ("completed", "bpntt_completed_total"),
            ("failed", "bpntt_failed_total"),
            ("cancelled", "bpntt_cancelled_total"),
            ("waves", "bpntt_waves_total"),
            ("pipeline_cache_entries", "bpntt_pipeline_cache_entries"),
            ("pipeline_cache_hits", "bpntt_pipeline_cache_hits_total"),
            ("rns_requests", "bpntt_rns_requests_total"),
            ("rns_limbs", "bpntt_rns_limbs_total"),
            ("rns_fanout_waves", "bpntt_rns_fanout_waves_total"),
            ("faults_detected", "bpntt_faults_detected_total"),
            ("deadline_expired", "bpntt_deadline_expired_total"),
            ("probes_run", "bpntt_health_probes_total"),
            ("probes_passed", "bpntt_health_probes_passed_total"),
            ("reintegrations", "bpntt_health_reintegrations_total"),
            ("canary_demotions", "bpntt_health_canary_demotions_total"),
            ("patrol_probes", "bpntt_health_patrol_probes_total"),
            (
                "patrol_quarantines",
                "bpntt_health_patrol_quarantines_total",
            ),
            ("respawns", "bpntt_respawns_total"),
            ("tenants", "bpntt_tenants"),
        ] {
            assert_eq!(json_val(jk), prom_val(pk), "mismatch on {jk}");
        }
        // Per-shard health parity: each JSON shard_states entry matches
        // its labelled Prometheus sample.
        for (i, st) in m.shard_health.iter().enumerate() {
            assert_eq!(
                prom_val(&format!("bpntt_shard_health_state{{shard=\"{i}\"}}")),
                u64::from(*st)
            );
        }
        // Per-tenant parity: each tenant's JSON slice matches its
        // labelled Prometheus samples.
        for t in &m.per_tenant {
            let label = |fam: &str| format!("bpntt_{fam}{{tenant=\"{}\"}}", t.tenant);
            assert_eq!(prom_val(&label("tenant_submitted_total")), t.submitted);
            assert_eq!(prom_val(&label("tenant_queued")), t.queued as u64);
            assert_eq!(prom_val(&label("tenant_shed_total")), t.shed);
            assert_eq!(prom_val(&label("tenant_completed_total")), t.completed);
            assert_eq!(prom_val(&label("tenant_failed_total")), t.failed);
            assert_eq!(
                prom_val(&label("tenant_deadline_expired_total")),
                t.deadline_expired
            );
            assert_eq!(prom_val(&label("tenant_cancelled_total")), t.cancelled);
            assert_eq!(prom_val(&label("tenant_bytes_total")), t.bytes);
            let slice = t.to_json();
            assert!(json.contains(&slice), "json lacks tenant slice {slice}");
        }
    }

    #[test]
    fn unit_conversions_are_consistent() {
        let stats = Stats {
            cycles: 380_000,
            energy_pj: 69_400.0,
            ..Default::default()
        };
        let geom = ArrayGeometry::paper_256x256();
        let r = PerfReport::from_stats(
            &stats,
            16,
            geom,
            &AreaModel::cmos_45nm(),
            &FrequencyModel::cmos_45nm(),
        );
        // 380k cycles at ~3.8 GHz ≈ 100 µs.
        assert!((r.latency_us() - 100.0).abs() < 2.0);
        // throughput = batch / latency.
        assert!((r.throughput - 16.0 / r.latency_s).abs() < 1e-6);
        // TP(kNTT/mJ) = 1 / (energy per NTT in mJ) / 1000.
        let tp_expect = 1.0 / (r.energy_per_ntt_nj * 1e-6) / 1e3;
        assert!((r.tput_per_power - tp_expect).abs() / tp_expect < 1e-9);
        assert!(r.tput_per_area > 0.0);
    }

    #[test]
    #[should_panic(expected = "batch must be nonzero")]
    fn zero_batch_rejected() {
        let stats = Stats {
            cycles: 1,
            ..Default::default()
        };
        let _ = PerfReport::from_stats(
            &stats,
            0,
            ArrayGeometry::paper_256x256(),
            &AreaModel::cmos_45nm(),
            &FrequencyModel::cmos_45nm(),
        );
    }
}

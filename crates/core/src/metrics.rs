//! Performance metrics: the paper's Table I units ([`PerfReport`]) and
//! the request-queue service's exportable snapshot ([`ServiceMetrics`]).

use crate::health::HealthCounters;
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

/// A point-in-time snapshot of the request-queue service
/// ([`NttService`](crate::NttService)): queue pressure, wave coalescing
/// efficiency, throughput, per-shard wall-clock percentiles, and the
/// shared compiled-artifact cache. Exportable as JSON for scrapers
/// and the `loadgen` trajectory file, and as Prometheus text
/// format ([`Self::to_prometheus`]) for pull-based monitoring.
///
/// Both exports are rendered from one table of metric rows in this
/// module: adding a metric is one field here and one row there.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// summed across engines.
    pub faults_detected: u64,
    /// Chunk re-executions the ladder performed (same shard or
    /// re-dispatched after quarantine).
    pub retries: u64,
    /// High-water mark of simultaneously quarantined shards on any one
    /// engine. Tenants of one `(backend, configuration)` share an
    /// engine, so a quarantined shard is benched for all of them.
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
    /// Healing-ladder counters summed across engines: scrubber
    /// and patrol probes, reintegrations, canary demotions, patrol
    /// quarantines. They keep counting across a watchdog respawn.
    pub health: HealthCounters,
    /// Dispatcher or scrubber threads the watchdog respawned after a
    /// panic.
    pub respawns: u64,
    /// Per-shard health state of the default tenant's engine — shared
    /// by every tenant of its configuration (0 healthy, 1 canary, 2 probing, 3 quarantined), refreshed by
    /// waves and scrub passes. Empty until the first wave or scrub.
    pub shard_health: Vec<u8>,
    /// Registered tenants.
    pub tenants: usize,
    /// Sharded engines the dispatcher holds: one per distinct
    /// `(backend, configuration)` among the registered tenants.
    pub engines: usize,
    /// Per-tenant counter slices, sorted by tenant id. Tenants with no
    /// traffic yet still appear (zeroed) once registered.
    pub per_tenant: Vec<TenantMetrics>,
}

/// Prometheus type of an exported family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Only ever grows (named `…_total`).
    Counter,
    /// May go down: a level, a ratio, a percentile or a high-water mark.
    Gauge,
}

use Kind::{Counter, Gauge};

/// One exported service metric: its JSON key, its Prometheus family
/// (without the `bpntt_` prefix), kind and help, and how to read it
/// from the part `T` of the snapshot it describes.
struct Metric<T> {
    json: &'static str,
    prom: &'static str,
    kind: Kind,
    help: &'static str,
    get: fn(&T) -> f64,
}

impl<T> Metric<T> {
    /// The one number rendering both exports share (Rust's shortest
    /// round-trip decimal: `5`, `0.95`, `0.002`), so a JSON value and
    /// its Prometheus sample are the same text.
    fn value(&self, of: &T) -> String {
        (self.get)(of).to_string()
    }

    /// `"key": value`.
    fn push_json(&self, out: &mut String, of: &T) {
        let _ = write!(out, "\"{}\": {}", self.json, self.value(of));
    }

    /// The family's `# HELP` and `# TYPE` lines, then one sample per
    /// `(labels, part)`.
    fn push_prometheus<'a>(
        &self,
        out: &mut String,
        samples: impl IntoIterator<Item = (String, &'a T)>,
    ) where
        T: 'a,
    {
        let kind = match self.kind {
            Counter => "counter",
            Gauge => "gauge",
        };
        let _ = writeln!(out, "# HELP bpntt_{} {}", self.prom, self.help);
        let _ = writeln!(out, "# TYPE bpntt_{} {kind}", self.prom);
        for (labels, part) in samples {
            let _ = writeln!(out, "bpntt_{}{labels} {}", self.prom, self.value(part));
        }
    }
}

/// Top-level service scalars.
#[rustfmt::skip]
const SERVICE: &[Metric<ServiceMetrics>] = &[
    Metric { json: "queue_depth", prom: "queue_depth", kind: Gauge,
             help: "Requests queued right now", get: |s| s.queue_depth as f64 },
    Metric { json: "peak_queue_depth", prom: "peak_queue_depth", kind: Gauge,
             help: "High-water mark of the queue depth", get: |s| s.peak_queue_depth as f64 },
    Metric { json: "queue_capacity", prom: "queue_capacity", kind: Gauge,
             help: "Bounded queue capacity", get: |s| s.queue_capacity as f64 },
    Metric { json: "submitted", prom: "submitted_total", kind: Counter,
             help: "Requests accepted", get: |s| s.submitted as f64 },
    Metric { json: "rejected", prom: "rejected_total", kind: Counter,
             help: "Requests shed at admission", get: |s| s.rejected as f64 },
    Metric { json: "completed", prom: "completed_total", kind: Counter,
             help: "Requests completed successfully", get: |s| s.completed as f64 },
    Metric { json: "failed", prom: "failed_total", kind: Counter,
             help: "Requests completed with an error", get: |s| s.failed as f64 },
    Metric { json: "waves", prom: "waves_total", kind: Counter,
             help: "Coalesced waves dispatched", get: |s| s.waves as f64 },
    Metric { json: "wave_polys", prom: "wave_polys_total", kind: Counter,
             help: "Polynomial results produced through waves", get: |s| s.wave_polys as f64 },
    Metric { json: "wave_occupancy", prom: "wave_occupancy", kind: Gauge,
             help: "Mean wave fill ratio", get: |s| s.wave_occupancy },
    Metric { json: "busy_secs", prom: "busy_seconds_total", kind: Counter,
             help: "Dispatcher wall-clock inside engine calls", get: |s| s.busy_secs },
    Metric { json: "polys_per_sec", prom: "polys_per_sec", kind: Gauge,
             help: "Results per busy second", get: |s| s.polys_per_sec },
    Metric { json: "shard_secs_p50", prom: "shard_seconds_p50", kind: Gauge,
             help: "Median recent per-shard wall-clock", get: |s| s.shard_secs_p50 },
    Metric { json: "shard_secs_p90", prom: "shard_seconds_p90", kind: Gauge,
             help: "P90 recent per-shard wall-clock", get: |s| s.shard_secs_p90 },
    Metric { json: "shard_secs_max", prom: "shard_seconds_max", kind: Gauge,
             help: "Max recent per-shard wall-clock", get: |s| s.shard_secs_max },
    Metric { json: "pipeline_cache_entries", prom: "pipeline_cache_entries", kind: Gauge,
             help: "Compiled pipelines in the artifact cache",
             get: |s| s.pipeline_cache_entries as f64 },
    Metric { json: "pipeline_cache_hits", prom: "pipeline_cache_hits_total", kind: Counter,
             help: "Pipeline lookups served without compiling",
             get: |s| s.pipeline_cache_hits as f64 },
    Metric { json: "pipeline_compile_ms", prom: "pipeline_compile_milliseconds_total",
             kind: Counter, help: "Wall-clock spent compiling on cache misses",
             get: |s| s.pipeline_compile_ms },
    Metric { json: "faults_detected", prom: "faults_detected_total", kind: Counter,
             help: "Chunk attempts failed on detection", get: |s| s.faults_detected as f64 },
    Metric { json: "retries", prom: "retries_total", kind: Counter,
             help: "Chunk re-executions by the recovery ladder", get: |s| s.retries as f64 },
    Metric { json: "quarantined_shards", prom: "quarantined_shards", kind: Gauge,
             help: "High-water mark of quarantined shards",
             get: |s| s.quarantined_shards as f64 },
    Metric { json: "fallback_polys", prom: "fallback_polys_total", kind: Counter,
             help: "Polynomials answered by the software fallback",
             get: |s| s.fallback_polys as f64 },
    Metric { json: "deadline_expired", prom: "deadline_expired_total", kind: Counter,
             help: "Requests expired in the queue", get: |s| s.deadline_expired as f64 },
    Metric { json: "verify_ms", prom: "verify_milliseconds_total", kind: Counter,
             help: "Wall-clock spent verifying outputs", get: |s| s.verify_ms },
    Metric { json: "rate_limited", prom: "rate_limited_total", kind: Counter,
             help: "Requests rejected by a tenant token bucket", get: |s| s.rate_limited as f64 },
    Metric { json: "cancelled", prom: "cancelled_total", kind: Counter,
             help: "Requests dropped after ticket cancellation", get: |s| s.cancelled as f64 },
    Metric { json: "rns_requests", prom: "rns_requests_total", kind: Counter,
             help: "Big-modulus requests accepted through submit_rns",
             get: |s| s.rns_requests as f64 },
    Metric { json: "rns_limbs", prom: "rns_limbs_total", kind: Counter,
             help: "Limb sub-requests RNS groups expanded to", get: |s| s.rns_limbs as f64 },
    Metric { json: "rns_fanout_waves", prom: "rns_fanout_waves_total", kind: Counter,
             help: "Concurrent RNS fan-out rounds executed", get: |s| s.rns_fanout_waves as f64 },
    Metric { json: "rns_fanout_occupancy", prom: "rns_fanout_occupancy", kind: Gauge,
             help: "Mean lane occupancy of RNS fan-out rounds", get: |s| s.rns_fanout_occupancy },
    Metric { json: "tenants", prom: "tenants", kind: Gauge,
             help: "Registered tenants", get: |s| s.tenants as f64 },
    Metric { json: "engines", prom: "engines", kind: Gauge,
             help: "Sharded engines, one per (backend, configuration)",
             get: |s| s.engines as f64 },
];

/// The JSON `health` block (flat `bpntt_health_*` / `bpntt_respawns_*`
/// families in Prometheus), followed there by [`SHARD_STATE`].
#[rustfmt::skip]
const HEALTH: &[Metric<ServiceMetrics>] = &[
    Metric { json: "probes_run", prom: "health_probes_total", kind: Counter,
             help: "Known-answer probes run by the scrubber", get: |s| s.health.probes_run as f64 },
    Metric { json: "probes_passed", prom: "health_probes_passed_total", kind: Counter,
             help: "Probes that matched the reference exactly",
             get: |s| s.health.probes_passed as f64 },
    Metric { json: "reintegrations", prom: "health_reintegrations_total", kind: Counter,
             help: "Quarantined shards returned to full service",
             get: |s| s.health.reintegrations as f64 },
    Metric { json: "canary_demotions", prom: "health_canary_demotions_total", kind: Counter,
             help: "Canary shards demoted back to quarantine",
             get: |s| s.health.canary_demotions as f64 },
    Metric { json: "patrol_probes", prom: "health_patrol_probes_total", kind: Counter,
             help: "Patrol probes run against healthy shards",
             get: |s| s.health.patrol_probes as f64 },
    Metric { json: "patrol_quarantines", prom: "health_patrol_quarantines_total", kind: Counter,
             help: "Healthy shards benched by a failed patrol probe",
             get: |s| s.health.patrol_quarantines as f64 },
    Metric { json: "respawns", prom: "respawns_total", kind: Counter,
             help: "Service threads respawned by the watchdog", get: |s| s.respawns as f64 },
];

/// The default tenant's per-shard health: a JSON array closing the
/// `health` block, one `{shard="<i>"}` sample per shard in Prometheus.
const SHARD_STATE: Metric<u8> = Metric {
    json: "shard_states",
    prom: "shard_health_state",
    kind: Gauge,
    help: "Default-tenant shard health (0 healthy, 1 canary, 2 probing, 3 quarantined)",
    get: |st| f64::from(*st),
};

/// One object per tenant in the JSON `per_tenant` array, one
/// `{tenant="<id>"}` sample per tenant in Prometheus.
#[rustfmt::skip]
const TENANT: &[Metric<TenantMetrics>] = &[
    Metric { json: "submitted", prom: "tenant_submitted_total", kind: Counter,
             help: "Requests accepted per tenant", get: |t| t.submitted as f64 },
    Metric { json: "queued", prom: "tenant_queued", kind: Gauge,
             help: "Requests currently queued per tenant", get: |t| t.queued as f64 },
    Metric { json: "shed", prom: "tenant_shed_total", kind: Counter,
             help: "Requests shed at admission per tenant", get: |t| t.shed as f64 },
    Metric { json: "completed", prom: "tenant_completed_total", kind: Counter,
             help: "Requests completed per tenant", get: |t| t.completed as f64 },
    Metric { json: "failed", prom: "tenant_failed_total", kind: Counter,
             help: "Requests failed per tenant", get: |t| t.failed as f64 },
    Metric { json: "deadline_expired", prom: "tenant_deadline_expired_total", kind: Counter,
             help: "Requests expired in queue per tenant", get: |t| t.deadline_expired as f64 },
    Metric { json: "cancelled", prom: "tenant_cancelled_total", kind: Counter,
             help: "Requests cancelled per tenant", get: |t| t.cancelled as f64 },
    Metric { json: "bytes", prom: "tenant_bytes_total", kind: Counter,
             help: "Operand bytes accepted per tenant", get: |t| t.bytes as f64 },
];

impl ServiceMetrics {
    /// Renders the snapshot as a self-contained JSON object (no trailing
    /// newline), with the same hand-rolled discipline as the bench
    /// writers — the workspace builds offline, so no serde.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for row in SERVICE {
            row.push_json(&mut s, self);
            s.push_str(", ");
        }
        s.push_str("\"health\": {");
        for row in HEALTH {
            row.push_json(&mut s, self);
            s.push_str(", ");
        }
        let states: Vec<String> = self
            .shard_health
            .iter()
            .map(|st| SHARD_STATE.value(st))
            .collect();
        let _ = write!(
            s,
            "\"{}\": [{}]}}, \"per_tenant\": [",
            SHARD_STATE.json,
            states.join(", ")
        );
        for (i, t) in self.per_tenant.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"tenant\": {}",
                if i > 0 { ", " } else { "" },
                t.tenant
            );
            for row in TENANT {
                s.push_str(", ");
                row.push_json(&mut s, t);
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`bpntt_` prefix, one `# HELP` and one `# TYPE` line per family,
    /// `counter` for the `…_total` families and `gauge` for the rest;
    /// per-shard and per-tenant families labelled `{shard="<i>"}` and
    /// `{tenant="<id>"}`). Every sample is the same text as its
    /// [`Self::to_json`] value.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for row in SERVICE.iter().chain(HEALTH) {
            row.push_prometheus(&mut s, [(String::new(), self)]);
        }
        let shards = self.shard_health.iter().enumerate();
        SHARD_STATE.push_prometheus(
            &mut s,
            shards.map(|(i, st)| (format!("{{shard=\"{i}\"}}"), st)),
        );
        for row in TENANT {
            let tenants = self.per_tenant.iter();
            row.push_prometheus(
                &mut s,
                tenants.map(|t| (format!("{{tenant=\"{}\"}}", t.tenant), t)),
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
    use std::collections::HashSet;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    fn sample() -> ServiceMetrics {
        ServiceMetrics {
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
            health: HealthCounters {
                probes_run: 12,
                probes_passed: 10,
                reintegrations: 2,
                canary_demotions: 1,
                patrol_probes: 7,
                patrol_quarantines: 1,
            },
            respawns: 1,
            shard_health: vec![0, 1, 3],
            tenants: 3,
            engines: 2,
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
        }
    }

    #[test]
    fn service_metrics_render_as_json() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"queue_depth\": 1",
            "\"peak_queue_depth\": 9",
            "\"rejected\": 2",
            "\"waves\": 5",
            "\"wave_occupancy\": 0.95",
            "\"polys_per_sec\": 76",
            "\"shard_secs_p90\": 0.002",
            "\"pipeline_cache_entries\": 5",
            "\"pipeline_cache_hits\": 4",
            "\"pipeline_compile_ms\": 2.5",
            "\"faults_detected\": 6",
            "\"retries\": 4",
            "\"quarantined_shards\": 1",
            "\"fallback_polys\": 2",
            "\"deadline_expired\": 3",
            "\"verify_ms\": 1.25",
            "\"rate_limited\": 2",
            "\"cancelled\": 1",
            "\"rns_requests\": 4",
            "\"rns_limbs\": 12",
            "\"rns_fanout_waves\": 4",
            "\"rns_fanout_occupancy\": 0.5",
            "\"health\": {\"probes_run\": 12, \"probes_passed\": 10",
            "\"reintegrations\": 2",
            "\"canary_demotions\": 1",
            "\"patrol_probes\": 7",
            "\"patrol_quarantines\": 1",
            "\"respawns\": 1",
            "\"shard_states\": [0, 1, 3]",
            "\"tenants\": 3",
            "\"engines\": 2",
            "\"per_tenant\": [{\"tenant\": 0,",
            "\"bytes\": 15360",
            "{\"tenant\": 7, \"submitted\": 10,",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// The text after `"key": ` in `scope`, up to the next `,` `}` or `]`.
    fn json_value<'a>(scope: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\": ");
        let at = scope
            .find(&pat)
            .unwrap_or_else(|| panic!("no {key} in {scope}"));
        let rest = &scope[at + pat.len()..];
        &rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())]
    }

    /// The value text of the one Prometheus sample named exactly `sample`.
    fn prom_value<'a>(prom: &'a str, sample: &str) -> &'a str {
        let mut hits = prom
            .lines()
            .filter_map(|l| l.strip_prefix(sample)?.strip_prefix(' '));
        let v = hits.next().unwrap_or_else(|| panic!("no sample {sample}"));
        assert!(hits.next().is_none(), "sample {sample} repeated");
        v
    }

    fn assert_unique<'a>(scope: &str, names: impl IntoIterator<Item = &'a str>) {
        let mut seen = HashSet::new();
        for n in names {
            assert!(seen.insert(n), "{n} declared twice in {scope}");
        }
    }

    /// Walks the metric tables: every family has exactly one `# HELP`
    /// and one `# TYPE` line, is a `counter` exactly when its name ends
    /// in `_total`, names are unique in their scope, and every row's
    /// JSON value is the same text as its Prometheus sample — a scraper
    /// watching one export and a dashboard watching the other see the
    /// same service.
    #[test]
    fn exposition_shape_follows_the_tables() {
        let m = sample();
        let (json, prom) = (m.to_json(), m.to_prometheus());

        let families: Vec<(&str, Kind)> = SERVICE
            .iter()
            .chain(HEALTH)
            .map(|r| (r.prom, r.kind))
            .chain([(SHARD_STATE.prom, SHARD_STATE.kind)])
            .chain(TENANT.iter().map(|r| (r.prom, r.kind)))
            .collect();
        assert_unique("prometheus", families.iter().map(|f| f.0));
        for &(name, kind) in &families {
            let help = format!("# HELP bpntt_{name} ");
            assert_eq!(
                prom.lines().filter(|l| l.starts_with(&help)).count(),
                1,
                "{name}"
            );
            let want = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            assert_eq!(kind == Counter, want == "counter", "{name} kind");
            let typed = format!("# TYPE bpntt_{name} {want}");
            assert_eq!(prom.lines().filter(|l| *l == typed).count(), 1, "{typed}");
        }
        let type_lines = prom.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(type_lines, families.len(), "a family outside the tables");

        assert_unique(
            "json",
            SERVICE
                .iter()
                .map(|r| r.json)
                .chain(["health", "per_tenant"]),
        );
        assert_unique(
            "health",
            HEALTH.iter().map(|r| r.json).chain([SHARD_STATE.json]),
        );
        assert_unique(
            "per_tenant",
            TENANT.iter().map(|r| r.json).chain(["tenant"]),
        );

        // Top-level keys precede the nested blocks, so the first match
        // is the top-level one.
        for row in SERVICE {
            let sample = format!("bpntt_{}", row.prom);
            assert_eq!(
                json_value(&json, row.json),
                prom_value(&prom, &sample),
                "{}",
                row.json
            );
        }
        let health = &json[json.find("\"health\": {").expect("health block")..];
        for row in HEALTH {
            let sample = format!("bpntt_{}", row.prom);
            assert_eq!(
                json_value(health, row.json),
                prom_value(&prom, &sample),
                "{}",
                row.json
            );
        }
        let states = format!("\"{}\": [", SHARD_STATE.json);
        let states = &health[health.find(&states).expect("shard states") + states.len()..];
        let states: Vec<&str> = states[..states.find(']').unwrap()].split(", ").collect();
        assert_eq!(states.len(), m.shard_health.len());
        for (i, st) in states.iter().enumerate() {
            let sample = format!("bpntt_{}{{shard=\"{i}\"}}", SHARD_STATE.prom);
            assert_eq!(*st, prom_value(&prom, &sample));
        }
        for t in &m.per_tenant {
            let open = format!("{{\"tenant\": {},", t.tenant);
            let slice = &json[json.find(&open).expect("tenant slice")..];
            let slice = &slice[..=slice.find('}').unwrap()];
            for row in TENANT {
                let sample = format!("bpntt_{}{{tenant=\"{}\"}}", row.prom, t.tenant);
                assert_eq!(
                    json_value(slice, row.json),
                    prom_value(&prom, &sample),
                    "{sample}"
                );
            }
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

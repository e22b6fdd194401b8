//! Measurement plumbing shared by the workloads: the closed-loop client
//! runner, process CPU and memory probes, quantiles, seeded inputs, and
//! output fingerprints.

use std::time::{Duration, Instant};

use bpntt_core::{
    BpNtt, BpNttConfig, PipelineSpec, RecoveryOptions, RecoveryReport, ServiceMetrics,
    ServiceOptions, VerifyPolicy,
};

use crate::trace::Layers;

/// Named metrics in print order: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Appends one metric.
pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

/// Arrays per sharded engine (per tenant, on the service workloads).
pub const SHARDS: usize = 2;

/// Output verification on the service workloads.
pub const VERIFY: VerifyPolicy = VerifyPolicy::SpotCheck { points: 2 };

/// The service's recovery ladder under [`VERIFY`] (no retries, software
/// fallback armed and gated on), for the standalone engines a traced run
/// calls directly.
pub const LADDER: RecoveryOptions = RecoveryOptions {
    verify: VERIFY,
    retry_budget: 0,
    software_fallback: true,
};

/// The service both service workloads run: 2 shards per tenant,
/// spot-check verification, a 500 µs coalescing window, no fault plan.
pub fn service_options() -> ServiceOptions {
    ServiceOptions {
        shards: SHARDS,
        verify: VERIFY,
        coalesce_window: Duration::from_micros(500),
        ..ServiceOptions::default()
    }
}

/// How many times each workload builds its stack; `setup_s` is the
/// median, and the last stack built is the one measured.
pub const SETUPS: usize = 7;

/// Linux reports `/proc/self/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far (every thread).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics. Empty input yields 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A splitmix64 stream: the benchmark's only source of inputs, so a seed
/// fixes every operand a workload sends.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed` (streams are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A polynomial of `n` coefficients uniform below `q`.
    pub fn poly(&mut self, n: usize, q: u64) -> Vec<u64> {
        (0..n)
            .map(|_| ((u128::from(self.next_u64()) * u128::from(q)) >> 64) as u64)
            .collect()
    }
}

/// A 64-bit FNV-1a fingerprint of a word sequence. Results are kept as
/// fingerprints so a long run's outputs fit in memory; a wrong output
/// matches its reference's fingerprint with probability about 2^-64.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One client call: when it ended, how long it took, and what it
/// returned.
pub struct Sample<R> {
    pub end_ms: f64,
    pub lat_ms: f64,
    pub out: Result<R, String>,
}

/// What a closed loop did: the clients handed back, every sample per
/// client, and process CPU seconds read at each slice boundary.
pub struct Loop<C, R> {
    pub clients: Vec<C>,
    pub samples: Vec<Vec<Sample<R>>>,
    /// `SLICES + 1` readings of [`cpu_secs`], the first at the start.
    pub cpu_marks: Vec<f64>,
    pub slice_ms: f64,
}

/// The timed window is cut into this many equal slices. Load from
/// outside the benchmark on a shared machine only ever slows a slice, so
/// the rate and latency metrics come from the quieter half of them.
pub const SLICES: usize = 20;

impl<C, R> Loop<C, R> {
    fn all(&self) -> impl Iterator<Item = &Sample<R>> {
        self.samples.iter().flatten()
    }

    /// Calls attempted.
    pub fn attempted(&self) -> u64 {
        self.all().count() as u64
    }

    /// Calls that returned an error.
    pub fn failed(&self) -> u64 {
        self.all().filter(|s| s.out.is_err()).count() as u64
    }

    /// The first error, for the failure report.
    pub fn first_error(&self) -> Option<&str> {
        self.all()
            .find_map(|s| s.out.as_ref().err().map(String::as_str))
    }

    /// The end-to-end inputs of this window, for calls that each carry
    /// `polys_per_call` results.
    pub fn window(&self, polys_per_call: u64) -> Window {
        let mut slices = vec![Slice::default(); SLICES];
        let mut polys = 0;
        for s in self.all().filter(|s| s.out.is_ok()) {
            polys += polys_per_call;
            // Calls still running when the window closed fall in no slice.
            if let Some(slice) = slices.get_mut((s.end_ms / self.slice_ms) as usize) {
                slice.polys += polys_per_call;
                slice.latencies_ms.push(s.lat_ms);
            }
        }
        for (k, slice) in slices.iter_mut().enumerate() {
            slice.cpu_s = self.cpu_marks[k + 1] - self.cpu_marks[k];
        }
        // The quiet half: the slices that completed the most work.
        slices.sort_by_key(|s| std::cmp::Reverse(s.polys));
        slices.truncate(SLICES.div_ceil(2));
        let quiet_polys = slices.iter().map(|s| s.polys).sum::<u64>();
        let mut latencies_ms: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        latencies_ms.sort_by(f64::total_cmp);
        Window {
            attempted: self.attempted(),
            failed: self.failed(),
            polys,
            throughput: quiet_polys as f64 * 1e3 / (self.slice_ms * slices.len() as f64),
            cpu_us_per_poly: slices.iter().map(|s| s.cpu_s).sum::<f64>() * 1e6
                / quiet_polys.max(1) as f64,
            latencies_ms,
        }
    }
}

/// Runs one closed-loop thread per client for `window`: each client
/// sends its next call only after the previous one returned, and starts
/// no call after the window closes. `step(client, i)` makes call `i`.
pub fn closed_loop<C: Send, R: Send>(
    clients: Vec<C>,
    window: Duration,
    step: &(dyn Fn(&mut C, u64) -> Result<R, String> + Sync),
) -> Loop<C, R> {
    let mut cpu_marks = vec![cpu_secs()];
    let t0 = Instant::now();
    let end = t0 + window;
    let per_client: Vec<(C, Vec<Sample<R>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < end {
                        let t = Instant::now();
                        let out = step(&mut c, i);
                        samples.push(Sample {
                            end_ms: ms_since(t0),
                            lat_ms: ms_since(t),
                            out,
                        });
                        i += 1;
                    }
                    (c, samples)
                })
            })
            .collect();
        for k in 1..=SLICES {
            let boundary = t0 + window.mul_f64(k as f64 / SLICES as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_marks.push(cpu_secs());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (clients, samples) = per_client.into_iter().unzip();
    Loop {
        clients,
        samples,
        cpu_marks,
        slice_ms: window.as_secs_f64() * 1e3 / SLICES as f64,
    }
}

/// Slowest over fastest shard of a wave (1 when one shard ran it).
pub fn shard_imbalance(shard_secs: &[f64]) -> f64 {
    let (lo, hi) = shard_secs
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    hi / lo
}

/// Simulated cost of one result, from the array model's `Stats`.
#[derive(Clone, Copy, Default)]
pub struct SimCost {
    pub cycles: f64,
    pub energy_nj: f64,
}

/// Recovery-ladder and health counters that make a run invalid when
/// nonzero: any of them means some answer may have come from the
/// software reference rather than the array.
#[derive(Clone, Copy, Default)]
pub struct Gate {
    pub fallback_polys: u64,
    pub faults_detected: u64,
    pub quarantined_shards: u64,
}

impl Gate {
    pub fn absorb_recovery(&mut self, r: &RecoveryReport) {
        self.fallback_polys += r.fallback_polys;
        self.faults_detected += r.faults_detected;
        self.quarantined_shards += r.quarantined_shards;
    }

    pub fn absorb_service(&mut self, m: &ServiceMetrics) {
        self.fallback_polys += m.fallback_polys;
        self.faults_detected += m.faults_detected;
        self.quarantined_shards += m.quarantined_shards;
        // Any shard not healthy (state 0) counts as benched.
        self.quarantined_shards += m.shard_health.iter().filter(|&&s| s != 0).count() as u64;
    }

    pub fn clean(&self) -> bool {
        self.fallback_polys == 0 && self.faults_detected == 0 && self.quarantined_shards == 0
    }
}

/// One slice of a timed window.
#[derive(Clone, Default)]
struct Slice {
    polys: u64,
    cpu_s: f64,
    latencies_ms: Vec<f64>,
}

/// What an untraced timed window measured. Rates and latencies cover the
/// quiet half of its slices (see [`SLICES`]); counts cover all of it.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Results the whole window produced.
    pub polys: u64,
    /// Results per second over the quiet slices.
    pub throughput: f64,
    /// Process CPU per result over the quiet slices.
    pub cpu_us_per_poly: f64,
    /// Latencies of the calls that ended in the quiet slices, sorted.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// The reported `latency_p50_ms`.
    pub fn latency_p50(&self) -> f64 {
        median(&self.latencies_ms)
    }
}

/// The ten end-to-end metrics. `error_fraction` and `fallback_fraction`
/// are reported as their complements (`verified_fraction`,
/// `array_fraction`), so a healthy run reads 1, never 0.
pub fn end_to_end(w: &Window, setup_s: &[f64], sim: SimCost, fallback_polys: u64) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, "throughput_polys_per_s", w.throughput, "1/s");
    put(&mut m, "latency_p50_ms", w.latency_p50(), "ms");
    put(
        &mut m,
        "latency_p99_ms",
        quantile(&w.latencies_ms, 0.99),
        "ms",
    );
    put(&mut m, "cpu_us_per_poly", w.cpu_us_per_poly, "us");
    put(&mut m, "sim_cycles_per_poly", sim.cycles, "cycles");
    put(&mut m, "sim_energy_nj_per_poly", sim.energy_nj, "nJ");
    put(&mut m, "setup_s", median(setup_s), "s");
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    put(
        &mut m,
        "verified_fraction",
        1.0 - w.failed as f64 / w.attempted.max(1) as f64,
        "ratio",
    );
    put(
        &mut m,
        "array_fraction",
        1.0 - fallback_polys as f64 / w.polys.max(1) as f64,
        "ratio",
    );
    m
}

/// Rounds a simulated energy to 12 significant digits: the sharded
/// engine sums per-shard `f64` energies in an order work-stealing picks,
/// so the last bits would otherwise differ between identical runs.
pub fn steady_energy(nj: f64) -> f64 {
    if nj == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(11 - nj.abs().log10().floor() as i32);
    (nj * scale).round() / scale
}

/// Measures the engine layer on a standalone [`BpNtt`] with the
/// workload's configuration and batch: cold `compile_pipeline` per spec,
/// then `reps` timings of each public entry point (medians). The
/// pointwise segment has no entry point of its own, so it is a polymul
/// net of its two operand loads, one read-back, two forwards and one
/// inverse.
pub fn engine_probe(
    cfg: &BpNttConfig,
    a: &[Vec<u64>],
    b: &[Vec<u64>],
    reps: usize,
    layers: &mut Layers,
) {
    let cold = |spec: PipelineSpec| {
        let samples: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let mut e = BpNtt::new(cfg.clone()).expect("engine for the workload config");
                let t = Instant::now();
                e.compile_pipeline(&spec).expect("pipeline compiles");
                ms_since(t)
            })
            .collect();
        median(&samples)
    };
    layers.set(
        "engine.compile_ms.forward_ntt",
        cold(PipelineSpec::forward_ntt()),
    );
    layers.set("engine.compile_ms.polymul", cold(PipelineSpec::polymul()));

    let mut e = BpNtt::new(cfg.clone()).expect("engine for the workload config");
    e.polymul(a, b).expect("warm-up polymul");
    e.load_batch(a).expect("warm-up load");
    e.forward().expect("warm-up forward");
    e.inverse().expect("warm-up inverse");
    let (mut load, mut fwd, mut inv, mut read, mut pm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = |v: &mut Vec<f64>, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        v.push(ms_since(t));
    };
    for _ in 0..reps {
        timed(&mut load, &mut || e.load_batch(a).expect("load"));
        timed(&mut fwd, &mut || e.forward().expect("forward"));
        timed(&mut inv, &mut || e.inverse().expect("inverse"));
        timed(&mut read, &mut || {
            std::hint::black_box(e.read_batch(a.len()).expect("read"));
        });
        timed(&mut pm, &mut || {
            std::hint::black_box(e.polymul(a, b).expect("polymul"));
        });
    }
    let (load, read, fwd, inv) = (median(&load), median(&read), median(&fwd), median(&inv));
    layers.set("engine.load_ms", load);
    layers.set("engine.read_ms", read);
    layers.set("engine.segment_ms.forward", fwd);
    layers.set("engine.segment_ms.inverse", inv);
    layers.set(
        "engine.segment_ms.pointwise",
        median(&pm) - 2.0 * load - read - 2.0 * fwd - inv,
    );
}

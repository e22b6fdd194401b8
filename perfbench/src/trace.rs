//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API, the per-layer metrics computed from them, and the
//! span dump written at exit.
//!
//! A traced request is one client call (the root span) followed, on the
//! same inputs, by direct calls into the layers beneath it. Each direct
//! call is a child of the layer that would make it in production, so a
//! span's *self time* (its duration minus its children's) is the time
//! that layer adds on top of the layers below it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::harness::{median, quantile, Metrics};

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// The request this span belongs to (the client call's index).
    pub req: u64,
}

/// A per-client span recorder. Spans open and close in call order.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `t0` (shared by every
    /// client so their spans line up).
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx);
        out
    }
}

/// Per-name span durations, and per-request self times, in
/// milliseconds.
#[derive(Default)]
pub struct Summary {
    /// Every span's duration.
    dur: BTreeMap<&'static str, Vec<f64>>,
    /// One entry per request: the summed self time of that request's
    /// spans of this name (a wave replayed as two chunks counts once).
    own: BTreeMap<&'static str, Vec<f64>>,
}

impl Summary {
    /// Folds every tracer's spans into per-name samples.
    pub fn of(tracers: &[&Tracer]) -> Self {
        let mut s = Summary::default();
        for tr in tracers {
            let mut child_ns = vec![0u64; tr.spans.len()];
            for sp in &tr.spans {
                if let Some(p) = sp.parent {
                    child_ns[p] += sp.end_ns - sp.start_ns;
                }
            }
            let mut request: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut current = None;
            for (sp, kids) in tr.spans.iter().zip(child_ns) {
                if current != Some(sp.req) {
                    s.close_request(&mut request);
                    current = Some(sp.req);
                }
                let dur = (sp.end_ns - sp.start_ns) as f64 / 1e6;
                s.dur.entry(sp.name).or_default().push(dur);
                *request.entry(sp.name).or_default() += dur - kids as f64 / 1e6;
            }
            s.close_request(&mut request);
        }
        s
    }

    fn close_request(&mut self, request: &mut BTreeMap<&'static str, f64>) {
        for (name, own) in std::mem::take(request) {
            self.own.entry(name).or_default().push(own);
        }
    }

    /// Quantile `q` of a span's duration; 0 when it never ran.
    pub fn dur(&self, name: &str, q: f64) -> f64 {
        self.dur.get(name).map_or(0.0, |v| quantile(v, q))
    }

    /// Median over requests of a span's self time; 0 when it never ran.
    /// Negative when the layer overlaps its children (a sharded wave
    /// runs its chunks, and an RNS fan-out its limbs, in parallel, while
    /// the children are timed one after another).
    pub fn self_p50(&self, name: &str) -> f64 {
        self.own.get(name).map_or(0.0, |v| median(v))
    }

    /// Summed duration of every span of this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.dur.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// How many spans of this name ran.
    pub fn count(&self, name: &str) -> usize {
        self.dur.get(name).map_or(0, Vec::len)
    }
}

/// Writes every span as one JSON document (a list of objects with
/// name, start, end, parent, request id and client).
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut base = 0usize;
    for (client, tr) in tracers.iter().enumerate() {
        for sp in &tr.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| (base + p).to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"client\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, parent, sp.req, client
            );
        }
        base += tr.spans.len();
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Every per-layer metric with its unit, in report order, named as in
/// `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 42] = [
    ("net.codec_us_per_req", "us"),
    ("net.frame_bytes_per_req", "B"),
    ("net.self_ms_p50", "ms"),
    ("service.submit_wait_ms_p50", "ms"),
    ("service.submit_wait_ms_p99", "ms"),
    ("service.self_ms_p50", "ms"),
    ("service.waves_per_req", "ratio"),
    ("service.wave_occupancy", "ratio"),
    ("service.busy_fraction", "ratio"),
    ("service.peak_queue_depth", "count"),
    ("service.verify_ms_per_req", "ms"),
    ("service.rns_fanout_occupancy", "ratio"),
    ("service.pipeline_cache_hits", "count"),
    ("sharded.wave_ms_p50", "ms"),
    ("sharded.self_ms_p50", "ms"),
    ("sharded.shard_imbalance", "ratio"),
    ("sharded.faults_detected", "count"),
    ("sharded.retries", "count"),
    ("sharded.fallback_polys", "count"),
    ("engine.ms_p50", "ms"),
    ("engine.compile_ms.forward_ntt", "ms"),
    ("engine.compile_ms.polymul", "ms"),
    ("engine.load_ms", "ms"),
    ("engine.read_ms", "ms"),
    ("engine.segment_ms.forward", "ms"),
    ("engine.segment_ms.pointwise", "ms"),
    ("engine.segment_ms.inverse", "ms"),
    ("engine.host_ns_per_sim_instr", "ns"),
    ("sram.instrs_per_poly", "count"),
    ("sram.shift_moves_per_poly", "count"),
    ("sram.row_loads_per_poly", "count"),
    ("sram.row_stores_per_poly", "count"),
    ("sram.superops_fused_per_poly", "count"),
    ("sram.chains_resident_per_poly", "count"),
    ("sram.fastpath_fallbacks", "count"),
    ("verify.check_us_per_poly", "us"),
    ("rns.decompose_ms", "ms"),
    ("rns.reconstruct_ms", "ms"),
    ("rns.fanout_ms", "ms"),
    ("rns.sequential_ms", "ms"),
    ("trace.unattributed_ms_p50", "ms"),
    ("trace.overhead_ms_p50", "ms"),
];

/// The per-layer metrics of a traced run. A workload sets the layers on
/// its path; the rest read 0, which means "this layer does not run here".
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric; `name` must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Sets the `sram.*` metrics from the array model's counters summed
    /// over `polys` results.
    pub fn set_sram(
        &mut self,
        stats: &bpntt_sram::Stats,
        fastpath: &bpntt_sram::FastPathStats,
        polys: u64,
    ) {
        let per = |x: u64| x as f64 / polys.max(1) as f64;
        self.set("sram.instrs_per_poly", per(stats.counts.total()));
        self.set("sram.shift_moves_per_poly", per(stats.counts.shift_moves()));
        self.set("sram.row_loads_per_poly", per(stats.row_loads));
        self.set("sram.row_stores_per_poly", per(stats.row_stores));
        self.set("sram.superops_fused_per_poly", per(fastpath.superops_fused));
        self.set(
            "sram.chains_resident_per_poly",
            per(fastpath.chains_resident),
        );
        self.set("sram.fastpath_fallbacks", fastpath.fallbacks as f64);
    }

    /// Every per-layer metric, in report order.
    pub fn metrics(&self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    self.0.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    }
}

/// Prints the latency breakdown: each layer's median self time, in
/// order from the client inwards, plus the line no layer accounts for,
/// which closes the sum to the untraced `latency_p50_ms`. Returns the
/// unattributed milliseconds.
pub fn print_breakdown(
    workload: &str,
    summary: &Summary,
    spans: &[&str],
    latency_p50_ms: f64,
) -> f64 {
    let mut attributed = 0.0;
    println!("{workload}: latency_p50_ms {latency_p50_ms:.4} ms = self times (traced run):");
    for span in spans {
        let v = summary.self_p50(span);
        attributed += v;
        println!("{workload}:   {span:<16} {v:>10.4} ms");
    }
    let rest = latency_p50_ms - attributed;
    println!("{workload}:   {:<16} {rest:>10.4} ms", "unattributed");
    rest
}

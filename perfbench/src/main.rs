//! One benchmark for the whole BP-NTT stack: three workloads, the
//! end-to-end metrics a user sees, and a traced run that breaks each
//! request down layer by layer. See `README.md` for the workloads, the
//! metrics and the rules a run must pass.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload array_polymul|wire_mixed|rns_polymul|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is for people: each metric by name with its
//! unit, how many outputs were checked, and a stamp naming the machine
//! and inputs. The last line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics with `--trace 1`). A run whose outputs do not all match the
//! software reference, or in which any answer may have come from the
//! software fallback, exits non-zero.

mod array;
mod harness;
mod rns;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;

use harness::{Gate, Metrics};

const WORKLOADS: [&str; 3] = ["array_polymul", "wire_mixed", "rns_polymul"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Run {
    /// Client calls attempted (timed and traced windows).
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Results compared with the software reference after timing.
    pub checked: u64,
    /// Results that differed from it.
    pub mismatched: u64,
    /// What the results were compared with.
    pub reference: &'static str,
    pub first_error: Option<String>,
    pub gate: Gate,
    pub metrics: Metrics,
}

impl Run {
    fn valid(&self) -> bool {
        self.failed == 0 && self.mismatched == 0 && self.checked > 0 && self.gate.clean()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Where a traced run writes its spans: under the build directory,
/// which the repository ignores.
fn trace_path(args: &Args, workload: &str) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    dir.join("perfbench")
        .join(format!("trace-{workload}-seed{}.json", args.seed))
}

/// Writes a traced run's spans and says where.
pub fn dump_spans(args: &Args, workload: &str, tracers: &[&trace::Tracer]) {
    let path = trace_path(args, workload);
    match trace::write_spans(&path, tracers) {
        Ok(()) => println!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "{workload}: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn run_workload(name: &str, args: &Args) -> Run {
    match name {
        "array_polymul" => array::run(args),
        "wire_mixed" => wire::run(args),
        "rns_polymul" => rns::run(args),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Prints one workload's human-readable report; returns whether the run
/// is valid.
fn report(name: &str, args: &Args, run: &Run) -> bool {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{name}: stamp {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"requests\": {}, \"available_parallelism\": {parallelism}, \"simd_active\": {}, \"backend\": \"sim\"}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.attempted,
        bpntt_sram::simd_active()
    );
    for (metric, value, unit) in &run.metrics {
        println!("{name}: {metric:<34} {value} {unit}");
    }
    println!(
        "{name}: outputs checked: {} of {} results against {} after timing, {} mismatched",
        run.checked, run.checked, run.reference, run.mismatched
    );
    let errors = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "{name}: error_fraction {errors}, fallback_polys {}, faults_detected {}, quarantined_shards {}",
        run.gate.fallback_polys, run.gate.faults_detected, run.gate.quarantined_shards
    );
    if let Some(e) = &run.first_error {
        eprintln!("{name}: first error: {e}");
    }
    if run.mismatched > 0 {
        eprintln!(
            "{name}: INVALID: {} results differ from the reference",
            run.mismatched
        );
    }
    if !run.gate.clean() {
        eprintln!(
            "{name}: INVALID: some answers may come from the software fallback, not the array"
        );
    }
    if run.checked == 0 {
        eprintln!("{name}: INVALID: no result was produced to check");
    }
    if run.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("{name}: INVALID: a metric is not a finite number");
        return false;
    }
    run.valid()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut json_metrics = String::new();
    for name in &names {
        let run = run_workload(name, &args);
        ok &= report(name, &args, &run);
        attempted += run.attempted;
        failed += run.failed + run.mismatched;
        for (metric, value, unit) in &run.metrics {
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.clone()
            };
            if !json_metrics.is_empty() {
                json_metrics.push_str(", ");
            }
            let _ = write!(
                json_metrics,
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json_metrics}}}}}"
    );
    if !ok {
        std::process::exit(1);
    }
}

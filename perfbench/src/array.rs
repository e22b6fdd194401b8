//! `array_polymul`: the sharded engine alone, fed full waves.
//!
//! Dilithium-class polynomials (N = 256, q = 8380417) on 518×256 arrays
//! with 24-bit tiles: 10 lanes per shard, 2 shards. Each call is one
//! `polymul_batch` over 20 operand pairs, one per lane, so nearly all
//! host time is SRAM replay inside the engine. This is the workload that
//! reports the paper's own metrics, simulated cycles and energy.

use std::time::{Duration, Instant};

use bpntt_core::{BpNtt, BpNttConfig, PipelineSpec, ShardedBpNtt, Verifier};
use bpntt_ntt::polymul::polymul_ntt_with;
use bpntt_ntt::{NttParams, TwiddleTable};

use crate::harness::{
    closed_loop, end_to_end, engine_probe, fingerprint, median, shard_imbalance, steady_energy,
    Gate, Rng, SimCost, SETUPS, SHARDS, VERIFY,
};
use crate::trace::{print_breakdown, Summary, Tracer};
use crate::{Args, Run};

const N: usize = 256;
const Q: u64 = 8_380_417;
/// Operand pairs per call: every lane of both shards.
const PAIRS: usize = 20;
/// Distinct operand batches, cycled through by the calls.
const POOL: usize = 8;

struct Batch {
    a: Vec<Vec<u64>>,
    b: Vec<Vec<u64>>,
}

fn pool(seed: u64) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 1);
    (0..POOL)
        .map(|_| Batch {
            a: (0..PAIRS).map(|_| rng.poly(N, Q)).collect(),
            b: (0..PAIRS).map(|_| rng.poly(N, Q)).collect(),
        })
        .collect()
}

/// One call's result: which batch it multiplied and the fingerprint of
/// each product.
type Out = (usize, Vec<u64>);

fn call(engine: &mut ShardedBpNtt, batches: &[Batch], i: u64) -> Result<Out, String> {
    let k = i as usize % POOL;
    let out = engine
        .polymul_batch(&batches[k].a, &batches[k].b)
        .map_err(|e| e.to_string())?;
    Ok((
        k,
        out.iter().map(|p| fingerprint(p.iter().copied())).collect(),
    ))
}

pub fn run(args: &Args) -> Run {
    let params = NttParams::new(N, Q).expect("Dilithium parameters");
    let cfg = BpNttConfig::new(518, 256, 24, params.clone()).expect("518x256 24-bit layout");
    let batches = pool(args.seed);

    // Set-up: provision the shards and compile the polymul pipeline with
    // one warm-up call.
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut e = ShardedBpNtt::new(&cfg, SHARDS).expect("sharded engine");
        e.polymul_batch(&batches[0].a, &batches[0].b)
            .expect("warm-up polymul");
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    engine.reset_stats();

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let lp = closed_loop(vec![engine], window, &|e, i| call(e, &batches, i));
    let w = lp.window(PAIRS as u64);
    let first_error = lp.first_error().map(str::to_string);
    let mut engine = lp.clients.into_iter().next().expect("one client");
    // The array model's cost depends on the operands (carry-resolution
    // loops run until the carries clear), and the window's call count
    // weights the pool unevenly; one pass over the pool gives the
    // seed's exact cost per product.
    engine.reset_stats();
    for bt in &batches {
        let out = engine.polymul_batch(&bt.a, &bt.b).expect("cost pass");
        std::hint::black_box(out);
    }
    let stats = engine.stats();
    let sim_polys = (POOL * PAIRS) as f64;
    let mut results: Vec<Out> = lp
        .samples
        .into_iter()
        .flatten()
        .filter_map(|s| s.out.ok())
        .collect();

    let mut layers = crate::trace::Layers::default();
    let mut extra_attempted = 0;
    if args.trace {
        let traced = traced_phase(&mut engine, &cfg, &params, &batches, window, &mut layers);
        extra_attempted = traced.attempted;
        results.extend(traced.results);
        let summary = Summary::of(&[&traced.tracer]);
        let latency_p50 = w.latency_p50();
        layers.set(
            "trace.overhead_ms_p50",
            summary.dur("sharded", 0.5) - latency_p50,
        );
        layers.set(
            "trace.unattributed_ms_p50",
            print_breakdown(
                "array_polymul",
                &summary,
                &["sharded", "engine"],
                latency_p50,
            ),
        );
        crate::dump_spans(args, "array_polymul", &[&traced.tracer]);
    }

    // Check every result against the software NTT product.
    let twiddles = TwiddleTable::new(&params);
    let reference: Vec<Vec<u64>> = batches
        .iter()
        .map(|bt| {
            bt.a.iter()
                .zip(&bt.b)
                .map(|(a, b)| {
                    let c = polymul_ntt_with(&params, &twiddles, a, b).expect("reference product");
                    fingerprint(c)
                })
                .collect()
        })
        .collect();
    let mismatched = results
        .iter()
        .filter(|(k, fps)| fps != &reference[*k])
        .count() as u64;

    let mut gate = Gate::default();
    gate.absorb_recovery(engine.recovery_totals());
    gate.quarantined_shards += engine.quarantined().len() as u64;
    let sim = SimCost {
        cycles: stats.cycles as f64 / sim_polys,
        energy_nj: steady_energy(stats.energy_nj() / sim_polys),
    };
    let metrics = if args.trace {
        layers.metrics()
    } else {
        end_to_end(&w, &setup_s, sim, gate.fallback_polys)
    };
    Run {
        attempted: w.attempted + extra_attempted,
        failed: w.failed,
        checked: results.len() as u64,
        mismatched,
        reference: "polymul_ntt_with (software NTT product)",
        first_error,
        gate,
        metrics,
    }
}

struct Traced {
    tracer: Tracer,
    attempted: u64,
    results: Vec<Out>,
}

/// The traced run: each call is a `sharded` span, with the standalone
/// engine replaying each of its two 10-pair chunks as `engine` children.
/// Output verification is timed on the same outputs but is not part of
/// this workload's request path (the engine runs without a recovery
/// ladder), so its span has no parent.
fn traced_phase(
    engine: &mut ShardedBpNtt,
    cfg: &BpNttConfig,
    params: &NttParams,
    batches: &[Batch],
    window: Duration,
    layers: &mut crate::trace::Layers,
) -> Traced {
    let lanes = cfg.layout().lanes();
    engine_probe(
        cfg,
        &batches[0].a[..lanes],
        &batches[0].b[..lanes],
        30,
        layers,
    );

    let mut single = BpNtt::new(cfg.clone()).expect("standalone engine");
    single
        .polymul(&batches[0].a[..lanes], &batches[0].b[..lanes])
        .expect("warm-up polymul");
    single.reset_stats();
    engine.reset_stats();
    let verifier = Verifier::new(params);
    let spec = PipelineSpec::polymul();
    let mut tr = Tracer::new(Instant::now());
    let mut results = Vec::new();
    let mut imbalance = Vec::new();
    let end = Instant::now() + window;
    let mut i = 0u64;
    while Instant::now() < end {
        let k = i as usize % POOL;
        let bt = &batches[k];
        let root = tr.open("sharded", None, i);
        let out = engine.polymul_batch(&bt.a, &bt.b);
        tr.close(root);
        let out = out.expect("traced polymul_batch");
        imbalance.push(shard_imbalance(engine.last_wave_shard_secs()));
        for chunk in 0..PAIRS.div_ceil(lanes) {
            let r = chunk * lanes..((chunk + 1) * lanes).min(PAIRS);
            let part = tr.time("engine", Some(root), i, || {
                single.polymul(&bt.a[r.clone()], &bt.b[r.clone()])
            });
            let part = part.expect("standalone polymul");
            assert_eq!(
                part, out[r],
                "standalone engine disagrees with the sharded wave"
            );
        }
        tr.time("verify", None, i, || {
            verifier.check(&spec, &[&bt.a, &bt.b], &out, VERIFY, i)
        })
        .expect("spot-check of a correct product");
        results.push((
            k,
            out.iter().map(|p| fingerprint(p.iter().copied())).collect(),
        ));
        i += 1;
    }
    let summary = Summary::of(&[&tr]);
    let polys = i * PAIRS as u64;
    layers.set("sharded.wave_ms_p50", summary.dur("sharded", 0.5));
    layers.set("sharded.self_ms_p50", summary.self_p50("sharded"));
    layers.set("sharded.shard_imbalance", median(&imbalance));
    let totals = engine.recovery_totals();
    layers.set("sharded.faults_detected", totals.faults_detected as f64);
    layers.set("sharded.retries", totals.retries as f64);
    layers.set("sharded.fallback_polys", totals.fallback_polys as f64);
    layers.set("engine.ms_p50", summary.dur("engine", 0.5));
    let single_instrs = single.stats().counts.total();
    layers.set(
        "engine.host_ns_per_sim_instr",
        summary.total_ms("engine") * 1e6 / single_instrs.max(1) as f64,
    );
    layers.set_sram(&engine.stats(), single.fastpath_stats(), polys);
    layers.set(
        "verify.check_us_per_poly",
        summary.dur("verify", 0.5) * 1e3 / PAIRS as f64,
    );
    Traced {
        tracer: tr,
        attempted: i,
        results,
    }
}

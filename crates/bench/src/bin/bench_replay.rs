//! Emits `BENCH_replay.json`: the compile-once/replay-many perf
//! trajectory for future PRs. Run from the workspace root:
//!
//! ```text
//! cargo run --release -p bpntt-bench --bin bench_replay [-- OPTIONS]
//! ```
//!
//! Options:
//!
//! * `--cols A,B,...` — column geometries to sweep (default
//!   `48,96,144,256,512,1024` — the paper's ≤256-column points plus the
//!   HE-batch lane counts that exercise the multi-chunk
//!   register-resident word-engine).
//! * `--lanes N` — polynomials loaded per run (default: every lane the
//!   geometry provides; capped to the lane count).
//! * `--json-out PATH` — where to write the JSON (default
//!   `BENCH_replay.json`).
//!
//! Measurements are best-of-N interleaved wall-clock times on whatever
//! machine runs this (the JSON records its `available_parallelism`;
//! treat absolute numbers as indicative and the emit/replay ratios as
//! the signal). `emit_ms` is strictly per-instruction emission
//! (`forward_mode(ExecMode::Generic)`) — the same baseline every prior
//! trajectory used — and `speedup` is replay vs that baseline. Each
//! config also reports the compiled forward
//! program's fused epilogue-superop count and the replay run's
//! fast-path coverage counters, so "the fast path silently stopped
//! firing" is visible in the JSON rather than a bench-regression
//! mystery.
//!
//! The `pipeline` block measures the op-graph API end to end on a
//! polymul-capable geometry (2·256 + 6 rows): `pipeline_polymul_ms` is
//! the canned polymul spec through `run_pipeline`, interleaved
//! in-process against the retained pre-pipeline `polymul`
//! implementation (`legacy_polymul_ms`) — the only trustworthy A/B on
//! this box — plus `spectral_polymul_ms`, the NTT-domain-cached product
//! (pointwise + scaled inverse on host-cached spectra) that skips both
//! forward transforms and one operand reload per product, and the
//! pipeline replay run's fast-path coverage counters.
//!
//! The `backend` block measures the backend HAL per geometry: the same
//! compiled polymul pipeline on the simulator backend
//! (`sim_polymul_ms`, full cost accounting) and the native
//! direct-execution backend (`native_polymul_ms`, accounting compiled
//! out — honest wall clock), interleaved against the Shoup software NTT
//! (`shoup_sw_polymul_ms`, Harvey's word-sized formulation: one
//! forward/forward/pointwise/inverse product per lane).
//! `native_vs_shoup` > 1 means the bit-parallel native backend beats
//! the software NTT on this box.
//!
//! The `rns` block measures the RNS/CRT multi-limb engine on a 3-limb
//! basis at N = 256: `fanned_ms` fans the limbs out concurrently (one
//! engine per residue prime), `sequential_ms` runs the same limbs back
//! to back on the same engines — the wave-occupancy gap between the two
//! (`occupancy_fanout` vs `occupancy_single_limb`) is the utilisation
//! the fan-out recovers — and `bigint_reference_ms` is the hand-rolled
//! bigint schoolbook product mod `Q` the reconstruction is verified
//! against (`reconstruction_exact`). `plan_cache_hits` counts the
//! artifact-cache hits of one `compile` call on a sibling context that
//! shares the first context's cache: one per limb when it compiles
//! nothing.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bpntt_core::{
    new_backend, ArtifactCache, BackendKind, BigUint, BpNtt, BpNttConfig, ExecMode, PipelineSpec,
    RnsBasis, RnsContext, ShardedBpNtt,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_ntt_with;
use bpntt_ntt::{NttParams, TwiddleTable};
use bpntt_rns::reference::negacyclic_polymul_basis;

struct Options {
    cols: Vec<usize>,
    lanes: Option<usize>,
    json_out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        cols: vec![48, 96, 144, 256, 512, 1024],
        lanes: None,
        json_out: "BENCH_replay.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--cols" => {
                opts.cols = value("--cols")
                    .split(',')
                    .map(|c| c.trim().parse().expect("--cols takes integers"))
                    .collect();
            }
            "--lanes" => opts.lanes = Some(value("--lanes").parse().expect("--lanes integer")),
            "--json-out" => opts.json_out = value("--json-out"),
            other => panic!("unknown option {other} (see --cols/--lanes/--json-out)"),
        }
    }
    opts
}

fn pseudo_batch(cfg: &BpNttConfig, lanes: usize, seed: u64) -> Vec<Vec<u64>> {
    let n = cfg.params().n();
    let q = cfg.params().modulus();
    let mut x = seed | 1;
    (0..lanes)
        .map(|_| {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % q
                })
                .collect()
        })
        .collect()
}

fn best_of<F: FnMut()>(reps: usize, inner: usize, mut f: F) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / inner as f64);
    }
    best
}

fn main() {
    let opts = parse_args();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::from(
        "{\n  \"benchmark\": \"dilithium256_forward_replay_vs_emit\",\n  \"configs\": [\n",
    );
    let mut first = true;
    for &cols in &opts.cols {
        let cfg = BpNttConfig::new(262, cols, 24, NttParams::new(256, 8_380_417).unwrap()).unwrap();
        let lanes = opts
            .lanes
            .map_or(cfg.layout().lanes(), |l| l.min(cfg.layout().lanes()).max(1));
        let batch = pseudo_batch(&cfg, lanes, 1);

        let mut emit = BpNtt::new(cfg.clone()).unwrap();
        emit.load_batch(&batch).unwrap();
        let mut replay = BpNtt::new(cfg.clone()).unwrap();
        replay.load_batch(&batch).unwrap();
        replay.forward().unwrap();
        let fused_epilogue = replay.compiled_forward().unwrap().fused_epilogues();

        // Interleaved best-of to suppress machine noise: generic
        // emission (the trajectory baseline) vs replay.
        let mut be = f64::MAX;
        let mut br = f64::MAX;
        for _ in 0..8 {
            be = be.min(best_of(1, 3, || {
                emit.forward_mode(ExecMode::Generic).unwrap();
            }));
            br = br.min(best_of(1, 3, || replay.forward().unwrap()));
        }
        // Fast-path coverage of one replay call.
        replay.reset_stats();
        replay.forward().unwrap();
        let fp = *replay.fastpath_stats();
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"cols\": {cols}, \"lanes\": {lanes}, \"emit_ms\": {:.3}, \"replay_ms\": {:.3}, \"speedup\": {:.2}, \"fused_epilogue\": {fused_epilogue}, \"fastpath\": {{\"chains_resident\": {}, \"chains_per_step\": {}, \"resolve_loops_resident\": {}, \"superops_fused\": {}, \"fallbacks\": {}}}}}",
            be * 1e3,
            br * 1e3,
            be / br,
            fp.chains_resident,
            fp.chains_per_step,
            fp.resolve_loops_resident,
            fp.superops_fused,
            fp.fallbacks
        );
        println!(
            "cols={cols} lanes={lanes}: emit {:.2} ms, replay {:.2} ms, speedup {:.2}x, {fused_epilogue} fused epilogues, fastpath[{fp}]",
            be * 1e3,
            br * 1e3,
            be / br,
        );
    }
    json.push_str("\n  ],\n");

    // ---- pipeline A/B: the op-graph API vs the retained fixed-shape
    // polymul, interleaved in-process (the only trustworthy signal on a
    // noisy shared machine), on a polymul-capable geometry.
    {
        let params = NttParams::new(256, 8_380_417).unwrap();
        let cfg = BpNttConfig::new(518, 256, 24, params.clone()).unwrap();
        let lanes = opts
            .lanes
            .map_or(cfg.layout().lanes(), |l| l.min(cfg.layout().lanes()).max(1));
        let a = pseudo_batch(&cfg, lanes, 11);
        let b = pseudo_batch(&cfg, lanes, 12);
        let spec = PipelineSpec::polymul();

        let mut legacy = BpNtt::new(cfg.clone()).unwrap();
        legacy.polymul_legacy(&a, &b).unwrap();
        let mut piped = BpNtt::new(cfg.clone()).unwrap();
        // Compile once, execute many — the FFTW-style usage the API is
        // built around; legacy polymul re-derives its four program keys
        // (and the n⁻¹·R² constant) on every call.
        let plan = piped.compile_pipeline(&spec).unwrap();

        // Host-cached spectra for the NTT-domain-cached product.
        let t = TwiddleTable::new(&params);
        let to_spectra = |polys: &[Vec<u64>]| -> Vec<Vec<u64>> {
            polys
                .iter()
                .map(|p| {
                    let mut s = p.clone();
                    ntt_in_place(&params, &t, &mut s).unwrap();
                    s
                })
                .collect()
        };
        let (sa, sb) = (to_spectra(&a), to_spectra(&b));
        let spectral = PipelineSpec::polymul_spectral();
        piped
            .run_pipeline(&spectral, ExecMode::Replay, &[&sa, &sb])
            .unwrap();

        let mut bl = f64::MAX;
        let mut bp = f64::MAX;
        let mut bs = f64::MAX;
        for _ in 0..8 {
            bl = bl.min(best_of(1, 3, || {
                legacy.polymul_legacy(&a, &b).unwrap();
            }));
            bp = bp.min(best_of(1, 3, || {
                piped
                    .run_compiled_pipeline(&plan, ExecMode::Replay, &[&a, &b])
                    .unwrap();
            }));
            bs = bs.min(best_of(1, 3, || {
                piped
                    .run_pipeline(&spectral, ExecMode::Replay, &[&sa, &sb])
                    .unwrap();
            }));
        }
        // Fast-path coverage of one pipeline replay run.
        piped.reset_stats();
        piped
            .run_compiled_pipeline(&plan, ExecMode::Replay, &[&a, &b])
            .unwrap();
        let fp = *piped.fastpath_stats();
        let _ = writeln!(
            json,
            "  \"pipeline\": {{\"rows\": 518, \"cols\": 256, \"lanes\": {lanes}, \"legacy_polymul_ms\": {:.3}, \"pipeline_polymul_ms\": {:.3}, \"pipeline_vs_legacy\": {:.3}, \"spectral_polymul_ms\": {:.3}, \"fastpath\": {{\"chains_resident\": {}, \"chains_per_step\": {}, \"resolve_loops_resident\": {}, \"superops_fused\": {}, \"fallbacks\": {}}}}},",
            bl * 1e3,
            bp * 1e3,
            bl / bp,
            bs * 1e3,
            fp.chains_resident,
            fp.chains_per_step,
            fp.resolve_loops_resident,
            fp.superops_fused,
            fp.fallbacks
        );
        println!(
            "pipeline (518x256, {lanes} lanes): legacy polymul {:.2} ms, pipeline polymul {:.2} ms ({:.3}x), spectral (NTT-domain-cached) {:.2} ms, fastpath[{fp}]",
            bl * 1e3,
            bp * 1e3,
            bl / bp,
            bs * 1e3,
        );
    }

    // ---- backend dimension: the native direct-execution backend (cost
    // accounting compiled out, same compiled programs) against the Shoup
    // software NTT (Harvey-style word-sized baseline: forward both
    // operands, pointwise, inverse — one product per lane), per
    // geometry. The simulator backend runs interleaved too, so the JSON
    // shows what the cost accounting itself costs in wall clock.
    json.push_str("  \"backend\": [\n");
    {
        let params = NttParams::new(256, 8_380_417).unwrap();
        let t = TwiddleTable::new(&params);
        let mut first = true;
        for &cols in &opts.cols {
            // Polymul needs two operand slots: 2·256 + 6 rows.
            let cfg = BpNttConfig::new(518, cols, 24, params.clone()).unwrap();
            let lanes = opts
                .lanes
                .map_or(cfg.layout().lanes(), |l| l.min(cfg.layout().lanes()).max(1));
            let a = pseudo_batch(&cfg, lanes, 21);
            let b = pseudo_batch(&cfg, lanes, 22);
            let spec = PipelineSpec::polymul();

            let mut sim = new_backend(BackendKind::Sim, &cfg).unwrap();
            let plan = sim.compile(&spec).unwrap();
            let mut native = new_backend(BackendKind::Native, &cfg).unwrap();

            // Interleaved best-of: sim backend, native backend, Shoup
            // software NTT (the per-lane batch does `lanes` products per
            // timed call on every contender).
            let mut bsim = f64::MAX;
            let mut bnat = f64::MAX;
            let mut bsw = f64::MAX;
            for _ in 0..8 {
                bsim = bsim.min(best_of(1, 3, || {
                    sim.execute(&plan, ExecMode::Replay, &[&a, &b]).unwrap();
                }));
                bnat = bnat.min(best_of(1, 3, || {
                    native.execute(&plan, ExecMode::Replay, &[&a, &b]).unwrap();
                }));
                bsw = bsw.min(best_of(1, 3, || {
                    for (pa, pb) in a.iter().zip(&b) {
                        polymul_ntt_with(&params, &t, pa, pb).unwrap();
                    }
                }));
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"cols\": {cols}, \"lanes\": {lanes}, \"sim_polymul_ms\": {:.3}, \"native_polymul_ms\": {:.3}, \"shoup_sw_polymul_ms\": {:.3}, \"native_vs_sim\": {:.2}, \"native_vs_shoup\": {:.3}}}",
                bsim * 1e3,
                bnat * 1e3,
                bsw * 1e3,
                bsim / bnat,
                bsw / bnat
            );
            println!(
                "backend cols={cols} lanes={lanes}: sim {:.2} ms, native {:.2} ms ({:.2}x vs sim), shoup software {:.2} ms (native is {:.3}x the software NTT)",
                bsim * 1e3,
                bnat * 1e3,
                bsim / bnat,
                bsw * 1e3,
                bsw / bnat,
            );
        }
    }
    json.push_str("\n  ],\n");

    json.push_str("  \"sharded\": [\n");

    // Sharded trajectory rows stay at the paper's 256-column geometry
    // when it is in the sweep (continuity with prior PRs' JSON).
    let cols_sharded = if opts.cols.contains(&256) {
        256
    } else {
        *opts.cols.last().unwrap_or(&256)
    };
    let cfg = BpNttConfig::new(
        262,
        cols_sharded,
        24,
        NttParams::new(256, 8_380_417).unwrap(),
    )
    .unwrap();
    let lanes = cfg.layout().lanes();
    let mut first = true;
    for shards in [1usize, 2, 4] {
        let mut sharded = ShardedBpNtt::new(&cfg, shards).unwrap();
        let batch = pseudo_batch(&cfg, shards * lanes, 7);
        sharded.forward_batch(&batch).unwrap();
        let t = best_of(4, 2, || {
            sharded.forward_batch(&batch).unwrap();
        });
        let shard_ms: Vec<String> = sharded
            .last_wave_shard_secs()
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect();
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"shards\": {shards}, \"polys\": {}, \"batch_ms\": {:.3}, \"polys_per_sec\": {:.0}, \"shard_ms\": [{}]}}",
            batch.len(),
            t * 1e3,
            batch.len() as f64 / t,
            shard_ms.join(", ")
        );
        println!(
            "shards={shards}: {} polys in {:.2} ms ({:.0} polys/s; per-shard [{}] ms)",
            batch.len(),
            t * 1e3,
            batch.len() as f64 / t,
            shard_ms.join(", ")
        );
    }
    json.push_str("\n  ],\n");

    // ---- RNS dimension: a 3-limb (~42-bit Q) negacyclic polymul at
    // N = 256, limbs fanned out concurrently vs run back to back on the
    // same engines, verified against the bigint reference product.
    {
        let basis = Arc::new(RnsBasis::new(256, &[12289, 13313, 15361]).unwrap());
        let cache = Arc::new(ArtifactCache::default());
        let mut ctx = RnsContext::with_plan_cache(
            Arc::clone(&basis),
            518,
            cols_sharded,
            16,
            basis.limbs(),
            BackendKind::Sim,
            Arc::clone(&cache),
        )
        .unwrap();
        let spec = PipelineSpec::polymul();
        let mut x = 0xB16B_u64 | 1;
        let mut big = |count: usize| -> Vec<BigUint> {
            (0..count)
                .map(|_| {
                    let mut limbs = Vec::with_capacity(2);
                    for _ in 0..2 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        limbs.push(x);
                    }
                    BigUint::from_limbs(limbs).rem(basis.modulus())
                })
                .collect()
        };
        let a = big(256);
        let b = big(256);
        let slots_a = vec![a.clone()];
        let slots_b = vec![b.clone()];
        let inputs: Vec<&[Vec<BigUint>]> = vec![&slots_a, &slots_b];

        // Warm the compiled plans, then interleaved best-of.
        let fanned_out = ctx.run_rns_batch(&spec, ExecMode::Replay, &inputs).unwrap();
        let mut bf = f64::MAX;
        let mut bs = f64::MAX;
        let mut bref = f64::MAX;
        for _ in 0..6 {
            bf = bf.min(best_of(1, 2, || {
                ctx.run_rns_batch(&spec, ExecMode::Replay, &inputs).unwrap();
            }));
        }
        let occupancy_fanout = ctx.last_wave().occupancy;
        for _ in 0..6 {
            bs = bs.min(best_of(1, 2, || {
                ctx.run_limbs_sequential(&spec, ExecMode::Replay, &inputs)
                    .unwrap();
            }));
        }
        let occupancy_single = ctx.last_wave().occupancy;
        for _ in 0..6 {
            bref = bref.min(best_of(1, 1, || {
                negacyclic_polymul_basis(&a, &b, &basis).unwrap();
            }));
        }
        let expect = negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        let exact = fanned_out[0] == expect;

        // A sibling context over the same shared cache finds every
        // limb's compiled plan instead of recompiling: count the hits of
        // its compile call alone (the runs above looked plans up too).
        let mut sibling = RnsContext::with_plan_cache(
            Arc::clone(&basis),
            518,
            cols_sharded,
            16,
            basis.limbs(),
            BackendKind::Sim,
            Arc::clone(&cache),
        )
        .unwrap();
        let hits_before = cache.hits();
        sibling.compile(&spec).unwrap();
        let plan_cache_hits = cache.hits() - hits_before;

        let _ = writeln!(
            json,
            "  \"rns\": {{\"n\": 256, \"limbs\": {}, \"modulus_bits\": {}, \"cols\": {cols_sharded}, \"fanned_ms\": {:.3}, \"sequential_ms\": {:.3}, \"fanout_speedup\": {:.2}, \"bigint_reference_ms\": {:.3}, \"occupancy_fanout\": {:.3}, \"occupancy_single_limb\": {:.3}, \"plan_cache_hits\": {plan_cache_hits}, \"reconstruction_exact\": {exact}}},",
            basis.limbs(),
            basis.modulus_bits(),
            bf * 1e3,
            bs * 1e3,
            bs / bf,
            bref * 1e3,
            occupancy_fanout,
            occupancy_single,
        );
        println!(
            "rns (3 limbs, {}-bit Q, N=256): fanned {:.2} ms, sequential {:.2} ms ({:.2}x), bigint reference {:.2} ms, occupancy {:.3} fanned vs {:.3} single-limb, {plan_cache_hits} plan-cache hits, reconstruction exact: {exact}",
            basis.modulus_bits(),
            bf * 1e3,
            bs * 1e3,
            bs / bf,
            bref * 1e3,
            occupancy_fanout,
            occupancy_single,
        );
        assert!(
            exact,
            "RNS reconstruction diverged from the bigint reference"
        );
    }

    let _ = write!(
        json,
        "  \"note\": \"wall-clock best-of on the build machine; emit_ms is strictly per-instruction emission (the historical baseline); available_parallelism={parallelism}, so shard threads serialize when 1 and flat polys_per_sec scaling is expected\",\n  \"available_parallelism\": {parallelism},\n  \"simd_active\": {}\n}}\n",
        bpntt_sram::simd_active()
    );
    std::fs::write(&opts.json_out, &json).expect("write benchmark JSON");
    println!("wrote {}", opts.json_out);
}

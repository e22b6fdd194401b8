//! `rns_polymul`: big-modulus polymul through the service's RNS groups.
//!
//! A 3-limb ~90-bit basis of 30-bit NTT primes for N = 256. Each limb
//! tenant is a 518×256 array with 32-bit tiles (8 lanes per shard, 2
//! shards). Two closed-loop client threads, each with its own RNS group,
//! submit canned polymuls in process (`submit_rns`, no wire). This is
//! the only workload that exercises RNS decomposition, concurrent limb
//! fan-out, CRT reconstruction and grouped admission; its requests are
//! about ten times heavier than `wire_mixed`'s, at another tile width
//! and prime.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bpntt_core::{
    BackendKind, BigUint, BpNtt, BpNttConfig, ExecMode, NttService, PipelineSpec, RnsBasis,
    RnsContext, RnsHandle, RnsRequest, ServiceMetrics, ShardedBpNtt, Verifier,
};
use bpntt_modmath::primes::find_ntt_primes;
use bpntt_rns::reference::negacyclic_polymul_basis;

use crate::harness::{
    closed_loop, end_to_end, engine_probe, fingerprint, median, service_options, shard_imbalance,
    steady_energy, Gate, Rng, SimCost, LADDER, SETUPS, SHARDS, VERIFY,
};
use crate::trace::{print_breakdown, Layers, Summary, Tracer};
use crate::{Args, Run};

const N: usize = 256;
const LIMBS: usize = 3;
const ROWS: usize = 518;
const COLS: usize = 256;
const BITS: usize = 32;
const CLIENTS: usize = 2;
/// Distinct operand pairs, shared by both clients.
const POOL: usize = 8;
struct Pair {
    a: Vec<BigUint>,
    b: Vec<BigUint>,
}

fn pool(seed: u64, basis: &RnsBasis) -> Vec<Pair> {
    let mut rng = Rng::new(seed, 200);
    let mut poly = || -> Vec<BigUint> {
        (0..N)
            .map(|_| BigUint::from_limbs(vec![rng.next_u64(), rng.next_u64()]).rem(basis.modulus()))
            .collect()
    };
    (0..POOL)
        .map(|_| Pair {
            a: poly(),
            b: poly(),
        })
        .collect()
}

fn big_fingerprint(coeffs: &[BigUint]) -> u64 {
    fingerprint(
        coeffs
            .iter()
            .flat_map(|c| std::iter::once(c.limbs().len() as u64).chain(c.limbs().iter().copied())),
    )
}

/// Which pool pair client `id` multiplies on its call `i`.
fn pair_index(id: usize, i: u64) -> usize {
    (i as usize + id * POOL / CLIENTS) % POOL
}

/// One result: pool index and output fingerprint.
type Out = (usize, u64);

/// The standalone layers a traced client calls directly.
struct Probe {
    ctx: RnsContext,
    sharded: Vec<ShardedBpNtt>,
    engines: Vec<BpNtt>,
    verifiers: Vec<Verifier>,
    tracer: Tracer,
    imbalance: Vec<f64>,
}

struct Client<'a> {
    id: usize,
    service: &'a NttService,
    handle: RnsHandle,
    pairs: &'a [Pair],
    probe: Option<Probe>,
}

fn untraced_step(c: &mut Client, i: u64) -> Result<Out, String> {
    let k = pair_index(c.id, i);
    let p = &c.pairs[k];
    let res = c
        .service
        .submit_rns(&c.handle, RnsRequest::polymul(p.a.clone(), p.b.clone()))
        .and_then(|t| t.wait())
        .map_err(|e| e.to_string())?;
    Ok((k, big_fingerprint(&res.coefficients)))
}

/// One traced request: the in-process `submit_rns` call is the root
/// span. On the same operands the client then calls the RNS engine's
/// fan-out (with the basis's decompose and reconstruct as its
/// children), and replays each limb on a standalone sharded engine,
/// engine and verifier. The sequential-limb baseline is timed as a
/// separate root. Every layer's answer must agree with the service's.
fn traced_step(c: &mut Client, i: u64) -> Result<Out, String> {
    let Probe {
        ctx,
        sharded,
        engines,
        verifiers,
        tracer,
        imbalance,
    } = c.probe.as_mut().expect("traced clients carry a probe");
    let k = pair_index(c.id, i);
    let p = &c.pairs[k];
    let spec = PipelineSpec::polymul();
    let basis = Arc::clone(c.handle.basis());

    let root = tracer.open("service", None, i);
    let res = c
        .service
        .submit_rns(&c.handle, RnsRequest::polymul(p.a.clone(), p.b.clone()))
        .and_then(|t| t.wait());
    tracer.close(root);
    let res = res.map_err(|e| e.to_string())?;

    let (sa, sb) = (vec![p.a.clone()], vec![p.b.clone()]);
    let fan = tracer.open("rns.fanout", Some(root), i);
    // The RNS engine's entry points take an execution mode; replay is
    // the production one.
    let fanned = ctx.run_rns_batch(&spec, ExecMode::Replay, &[&sa, &sb]);
    tracer.close(fan);
    let fanned = fanned.map_err(|e| e.to_string())?;
    let (ra, rb) = tracer
        .time("rns.decompose", Some(fan), i, || {
            basis
                .decompose_poly(&p.a)
                .and_then(|ra| Ok((ra, basis.decompose_poly(&p.b)?)))
        })
        .map_err(|e| e.to_string())?;
    let rebuilt = tracer
        .time("rns.reconstruct", Some(fan), i, || {
            basis.reconstruct_poly(&res.limbs)
        })
        .map_err(|e| e.to_string())?;

    let mut agree = fanned[0] == res.coefficients && rebuilt == res.coefficients;
    for limb in 0..LIMBS {
        let (a, b) = (&ra[limb..=limb], &rb[limb..=limb]);
        let sh = tracer.open("sharded", Some(fan), i);
        let wave = sharded[limb].polymul_batch(a, b);
        tracer.close(sh);
        let wave = wave.map_err(|e| e.to_string())?;
        imbalance.push(shard_imbalance(sharded[limb].last_wave_shard_secs()));
        let direct = tracer.time("engine", Some(sh), i, || engines[limb].polymul(a, b));
        let direct = direct.map_err(|e| e.to_string())?;
        let out = [res.limbs[limb].clone()];
        tracer
            .time("verify", Some(sh), i, || {
                verifiers[limb].check(&spec, &[a, b], &out, VERIFY, i)
            })
            .map_err(|e| e.to_string())?;
        agree &= wave[0] == res.limbs[limb] && direct[0] == res.limbs[limb];
    }

    let sequential = tracer
        .time("rns.sequential", None, i, || {
            ctx.run_limbs_sequential(&spec, ExecMode::Replay, &[&sa, &sb])
        })
        .map_err(|e| e.to_string())?;
    agree &= sequential[0] == res.coefficients;
    if !agree {
        return Err(format!("request {i}: the layers disagree on the output"));
    }
    Ok((k, big_fingerprint(&res.coefficients)))
}

/// Starts the service (its default tenant is limb 0's configuration),
/// registers one RNS group per client, and sends one warm-up polymul per
/// group so every limb pipeline is compiled before timing.
fn start(
    cfg0: &BpNttConfig,
    basis: &Arc<RnsBasis>,
    pairs: &[Pair],
) -> (NttService, Vec<RnsHandle>) {
    let service = NttService::start(cfg0, service_options()).expect("service starts");
    let handles: Vec<RnsHandle> = (0..CLIENTS)
        .map(|_| {
            let h = service
                .add_rns_tenant(ROWS, COLS, BITS, basis)
                .expect("RNS tenant group");
            service
                .submit_rns(
                    &h,
                    RnsRequest::polymul(pairs[0].a.clone(), pairs[0].b.clone()),
                )
                .and_then(|t| t.wait())
                .expect("warm-up RNS polymul");
            h
        })
        .collect();
    (service, handles)
}

pub fn run(args: &Args) -> Run {
    let primes = find_ntt_primes(30, N as u64, LIMBS).expect("30-bit NTT primes");
    let basis = Arc::new(RnsBasis::new(N, &primes).expect("3-limb basis"));
    let cfgs: Vec<BpNttConfig> = basis
        .params()
        .iter()
        .map(|p| BpNttConfig::new(ROWS, COLS, BITS, p.clone()).expect("limb layout"))
        .collect();
    let pairs = pool(args.seed, &basis);

    let mut setup_s = Vec::new();
    let mut built: Option<(NttService, Vec<RnsHandle>)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = built.take() {
            let _ = old.shutdown();
        }
        let t = Instant::now();
        built = Some(start(&cfgs[0], &basis, &pairs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (service, handles) = built.expect("at least one set-up");

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let clients: Vec<Client> = handles
        .into_iter()
        .enumerate()
        .map(|(id, handle)| Client {
            id,
            service: &service,
            handle,
            pairs: &pairs,
            probe: None,
        })
        .collect();
    let t = Instant::now();
    let m0 = service.metrics();
    let lp = closed_loop(clients, window, &untraced_step);
    let m1 = service.metrics();
    let wall_s = t.elapsed().as_secs_f64();
    let w = lp.window(1);
    let mut first_error = lp.first_error().map(str::to_string);
    let mut results: Vec<Out> = lp
        .samples
        .into_iter()
        .flatten()
        .filter_map(|s| s.out.ok())
        .collect();
    let mut clients = lp.clients;

    let mut gate = Gate::default();
    let mut layers = Layers::default();
    let (mut extra_attempted, mut extra_failed) = (0, 0);
    if args.trace {
        let r0 = basis.decompose_poly(&pairs[0].a).expect("residues");
        let r1 = basis.decompose_poly(&pairs[0].b).expect("residues");
        engine_probe(&cfgs[0], &r0[..1], &r1[..1], 30, &mut layers);
        for c in &mut clients {
            let mut ctx = RnsContext::new(
                Arc::clone(&basis),
                ROWS,
                COLS,
                BITS,
                LIMBS * SHARDS,
                BackendKind::Sim,
            )
            .expect("RNS context");
            ctx.set_recovery(LADDER);
            let (sa, sb) = (vec![pairs[0].a.clone()], vec![pairs[0].b.clone()]);
            ctx.run_rns_batch(&PipelineSpec::polymul(), ExecMode::Replay, &[&sa, &sb])
                .expect("warm-up fan-out");
            let mut sharded = Vec::new();
            let mut engines = Vec::new();
            for (limb, cfg) in cfgs.iter().enumerate() {
                let (a, b) = (&r0[limb..=limb], &r1[limb..=limb]);
                let mut s = ShardedBpNtt::new(cfg, SHARDS).expect("standalone sharded engine");
                s.set_recovery(LADDER);
                s.polymul_batch(a, b).expect("warm-up polymul");
                s.reset_stats();
                let mut e = BpNtt::new(cfg.clone()).expect("standalone engine");
                e.polymul(a, b).expect("warm-up polymul");
                e.reset_stats();
                sharded.push(s);
                engines.push(e);
            }
            c.probe = Some(Probe {
                ctx,
                sharded,
                engines,
                verifiers: basis.params().iter().map(Verifier::new).collect(),
                tracer: Tracer::new(Instant::now()),
                imbalance: Vec::new(),
            });
        }
        let lt = closed_loop(clients, window, &traced_step);
        extra_attempted = lt.attempted();
        extra_failed = lt.failed();
        first_error = first_error.or_else(|| lt.first_error().map(str::to_string));
        results.extend(lt.samples.into_iter().flatten().filter_map(|s| s.out.ok()));
        let probes: Vec<Probe> = lt
            .clients
            .into_iter()
            .map(|c| c.probe.expect("traced clients carry a probe"))
            .collect();
        fill_layers(&mut layers, &probes, &m0, &m1, wall_s, &mut gate);
        let tracers: Vec<&Tracer> = probes.iter().map(|p| &p.tracer).collect();
        let summary = Summary::of(&tracers);
        let latency_p50 = w.latency_p50();
        layers.set(
            "trace.overhead_ms_p50",
            summary.dur("service", 0.5) - latency_p50,
        );
        layers.set(
            "trace.unattributed_ms_p50",
            print_breakdown(
                "rns_polymul",
                &summary,
                &[
                    "service",
                    "rns.fanout",
                    "rns.decompose",
                    "rns.reconstruct",
                    "sharded",
                    "engine",
                    "verify",
                ],
                latency_p50,
            ),
        );
        crate::dump_spans(args, "rns_polymul", &tracers);
    } else {
        drop(clients);
    }
    let m_end = service.shutdown();
    gate.absorb_service(&m_end);

    // Check every result against the bigint schoolbook product mod Q.
    let reference: Vec<u64> = pairs
        .iter()
        .map(|p| big_fingerprint(&negacyclic_polymul_basis(&p.a, &p.b, &basis).expect("reference")))
        .collect();
    let mismatched = results
        .iter()
        .filter(|(k, fp)| *fp != reference[*k])
        .count() as u64;

    let metrics = if args.trace {
        layers.metrics()
    } else {
        end_to_end(
            &w,
            &setup_s,
            shape_cost(&cfgs, &basis, &pairs),
            m_end.fallback_polys,
        )
    };
    Run {
        attempted: w.attempted + extra_attempted,
        failed: w.failed + extra_failed,
        checked: results.len() as u64,
        mismatched,
        reference: "negacyclic_polymul_basis (bigint schoolbook mod Q)",
        first_error,
        gate,
        metrics,
    }
}

/// Simulated cost of one big-modulus product: one one-pair polymul wave
/// per limb, replayed on identically configured sharded engines and
/// averaged over the pool.
fn shape_cost(cfgs: &[BpNttConfig], basis: &RnsBasis, pairs: &[Pair]) -> SimCost {
    let mut engines: Vec<ShardedBpNtt> = cfgs
        .iter()
        .map(|cfg| ShardedBpNtt::new(cfg, SHARDS).expect("shape engine"))
        .collect();
    for p in pairs {
        let ra = basis.decompose_poly(&p.a).expect("residues");
        let rb = basis.decompose_poly(&p.b).expect("residues");
        for (limb, e) in engines.iter_mut().enumerate() {
            e.polymul_batch(&ra[limb..=limb], &rb[limb..=limb])
                .expect("limb wave");
        }
    }
    let total = engines
        .iter()
        .fold(bpntt_sram::Stats::default(), |acc, e| acc + e.stats());
    SimCost {
        cycles: total.cycles as f64 / pairs.len() as f64,
        energy_nj: steady_energy(total.energy_nj() / pairs.len() as f64),
    }
}

/// Per-layer metrics of the traced run. Service counters come from the
/// untraced window (`m0` → `m1`).
fn fill_layers(
    layers: &mut Layers,
    probes: &[Probe],
    m0: &ServiceMetrics,
    m1: &ServiceMetrics,
    wall_s: f64,
    gate: &mut Gate,
) {
    let tracers: Vec<&Tracer> = probes.iter().map(|p| &p.tracer).collect();
    let s = Summary::of(&tracers);
    let requests = s.count("service") as u64;
    layers.set("service.submit_wait_ms_p50", s.dur("service", 0.50));
    layers.set("service.submit_wait_ms_p99", s.dur("service", 0.99));
    layers.set("service.self_ms_p50", s.self_p50("service"));
    let completed = (m1.rns_requests - m0.rns_requests).max(1) as f64;
    layers.set(
        "service.waves_per_req",
        (m1.waves - m0.waves) as f64 / completed,
    );
    layers.set("service.wave_occupancy", m1.wave_occupancy);
    layers.set(
        "service.busy_fraction",
        (m1.busy_secs - m0.busy_secs) / wall_s,
    );
    layers.set("service.peak_queue_depth", m1.peak_queue_depth as f64);
    layers.set(
        "service.verify_ms_per_req",
        (m1.verify_ms - m0.verify_ms) / completed,
    );
    layers.set("service.rns_fanout_occupancy", m1.rns_fanout_occupancy);
    layers.set("service.pipeline_cache_hits", m1.pipeline_cache_hits as f64);

    layers.set("rns.decompose_ms", s.dur("rns.decompose", 0.5));
    layers.set("rns.reconstruct_ms", s.dur("rns.reconstruct", 0.5));
    layers.set("rns.fanout_ms", s.dur("rns.fanout", 0.5));
    layers.set("rns.sequential_ms", s.dur("rns.sequential", 0.5));

    layers.set("sharded.wave_ms_p50", s.dur("sharded", 0.5));
    layers.set("sharded.self_ms_p50", s.self_p50("sharded"));
    let imbalance: Vec<f64> = probes
        .iter()
        .flat_map(|p| p.imbalance.iter().copied())
        .collect();
    layers.set("sharded.shard_imbalance", median(&imbalance));
    let mut ladder = Gate::default();
    let mut retries = m1.retries;
    let mut stats = bpntt_sram::Stats::default();
    let mut fastpath = bpntt_sram::FastPathStats::default();
    let mut instrs = 0u64;
    for p in probes {
        for limb in 0..LIMBS {
            for r in [
                p.ctx.engine(limb).recovery_totals(),
                p.sharded[limb].recovery_totals(),
            ] {
                ladder.absorb_recovery(r);
                retries += r.retries;
            }
            stats += p.sharded[limb].stats();
            fastpath += *p.engines[limb].fastpath_stats();
            instrs += p.engines[limb].stats().counts.total();
        }
    }
    layers.set(
        "sharded.faults_detected",
        (ladder.faults_detected + m1.faults_detected) as f64,
    );
    layers.set("sharded.retries", retries as f64);
    layers.set(
        "sharded.fallback_polys",
        (ladder.fallback_polys + m1.fallback_polys) as f64,
    );
    gate.fallback_polys += ladder.fallback_polys;
    gate.faults_detected += ladder.faults_detected;
    gate.quarantined_shards += ladder.quarantined_shards;

    layers.set("engine.ms_p50", s.dur("engine", 0.5));
    layers.set(
        "engine.host_ns_per_sim_instr",
        s.total_ms("engine") * 1e6 / instrs.max(1) as f64,
    );
    // Per big-modulus result: every limb's array work.
    layers.set_sram(&stats, &fastpath, requests);
    layers.set("verify.check_us_per_poly", s.dur("verify", 0.5) * 1e3);
}

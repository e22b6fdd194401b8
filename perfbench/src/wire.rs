//! `wire_mixed`: the TCP front-end over the queued service.
//!
//! Kyber-class polynomials (N = 64, q = 7681) on 134×256 arrays with
//! 14-bit tiles: 18 lanes per shard, 2 shards, spot-check verification,
//! no fault plan. Two closed-loop connections, each bound to its own
//! tenant, send forward NTTs and polymuls 2:1. Each wave carries one
//! 64-point polynomial in 36 lanes, so the frame codec, admission, fair
//! queue, coalescing window, dispatch and verification are a large share
//! of every request. One tenant per connection keeps wave formation
//! deterministic (one request per wave); with a shared tenant, how
//! requests coalesce depends on timing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bpntt_core::{
    BpNtt, BpNttConfig, ExecMode, NttService, PipelineSpec, ServiceMetrics, ShardedBpNtt, TenantId,
    Ticket, Verifier,
};
use bpntt_net::{
    decode_request, decode_response, encode_poly_body, encode_request, encode_response,
    FrameLimits, NetClient, NetOptions, NetServer, Request, Response, SubmitRequest,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_ntt_with;
use bpntt_ntt::{NttParams, TwiddleTable};

use crate::harness::{
    closed_loop, end_to_end, engine_probe, fingerprint, median, service_options, shard_imbalance,
    steady_energy, Gate, Rng, SimCost, LADDER, SETUPS, SHARDS, VERIFY,
};
use crate::trace::{print_breakdown, Layers, Summary, Tracer};
use crate::{Args, Run};

const N: usize = 64;
const Q: u64 = 7681;
const CONNS: usize = 2;
/// Distinct requests per connection, cycled through.
const POOL: usize = 48;
/// Request `i` of a connection: every third one is a polymul.
fn is_polymul(i: u64) -> bool {
    i % 3 == 2
}

/// A connection's operands: `a[k]` is a forward input or a polymul's
/// first operand, `b[k]` its second.
struct Pool {
    a: Vec<Vec<u64>>,
    b: Vec<Vec<u64>>,
}

impl Pool {
    fn new(seed: u64, conn: usize) -> Self {
        let mut rng = Rng::new(seed, 100 + conn as u64);
        Pool {
            a: (0..POOL).map(|_| rng.poly(N, Q)).collect(),
            b: (0..POOL).map(|_| rng.poly(N, Q)).collect(),
        }
    }

    /// The spec and inputs of request `i`.
    fn request(&self, i: u64) -> (PipelineSpec, Vec<Vec<u64>>) {
        let k = i as usize % POOL;
        if is_polymul(i) {
            (
                PipelineSpec::polymul(),
                vec![self.a[k].clone(), self.b[k].clone()],
            )
        } else {
            (PipelineSpec::forward_ntt(), vec![self.a[k].clone()])
        }
    }
}

fn submit_request(tenant: Option<u32>, pool: &Pool, i: u64) -> SubmitRequest {
    let (spec, inputs) = pool.request(i);
    SubmitRequest {
        tenant,
        // The wire frame carries an execution mode; replay is the
        // production one.
        mode: ExecMode::Replay,
        deadline_ms: 0,
        spec,
        inputs,
    }
}

/// One result: connection, request kind, pool index and output
/// fingerprint.
type Out = (usize, bool, usize, u64);

/// The service and its front-end.
struct Stack {
    service: Arc<NttService>,
    server: NetServer,
}

/// One connection with the tenant it is bound to.
struct Conn {
    net: NetClient,
    wire_tenant: Option<u32>,
    tenant: TenantId,
}

impl Stack {
    /// Starts the service with one tenant per connection, binds the
    /// server, connects, and sends one warm-up request per spec per
    /// tenant so every pipeline is compiled before timing.
    fn start(cfg: &BpNttConfig, pools: &[Pool]) -> (Stack, Vec<Conn>) {
        let service = Arc::new(NttService::start(cfg, service_options()).expect("service starts"));
        let second = service.add_tenant(cfg).expect("second tenant");
        let tenants = [
            (None, service.default_tenant()),
            (Some(second.raw()), second),
        ];
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetOptions {
                read_timeout: Duration::from_millis(200),
                write_timeout: Duration::from_secs(2),
                limits: FrameLimits::default(),
            },
        )
        .expect("server binds a loopback port");
        let conns = tenants
            .iter()
            .zip(pools)
            .map(|(&(wire_tenant, tenant), pool)| {
                let mut net = NetClient::connect(server.local_addr()).expect("client connects");
                net.set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("client read timeout");
                for i in [0, 2] {
                    net.submit(submit_request(wire_tenant, pool, i))
                        .expect("warm-up request");
                }
                Conn {
                    net,
                    wire_tenant,
                    tenant,
                }
            })
            .collect();
        (Stack { service, server }, conns)
    }

    /// Closes the server and drains the service; returns its final
    /// counters. Every connection must be dropped first.
    fn stop(self) -> ServiceMetrics {
        self.server.shutdown();
        Arc::try_unwrap(self.service)
            .unwrap_or_else(|_| panic!("a client still holds the service"))
            .shutdown()
    }
}

/// The standalone layers a traced client calls directly, and what it
/// measured on them.
struct Probe {
    service: Arc<NttService>,
    sharded: ShardedBpNtt,
    engine: BpNtt,
    verifier: Verifier,
    tracer: Tracer,
    imbalance: Vec<f64>,
    frame_bytes: Vec<f64>,
}

struct Client<'a> {
    id: usize,
    conn: Conn,
    pool: &'a Pool,
    probe: Option<Probe>,
}

fn untraced_step(c: &mut Client, i: u64) -> Result<Out, String> {
    let sub = submit_request(c.conn.wire_tenant, c.pool, i);
    let out = c.conn.net.submit(sub).map_err(|e| e.to_string())?;
    Ok((c.id, is_polymul(i), i as usize % POOL, fingerprint(out)))
}

/// One traced request: the wire call is the root span; the same inputs
/// then go through the codec, the in-process service, a standalone
/// sharded engine, a standalone engine, and the verifier. Every layer's
/// answer must agree with the wire's.
fn traced_step(c: &mut Client, i: u64) -> Result<Out, String> {
    let Probe {
        service,
        sharded,
        engine,
        verifier,
        tracer,
        imbalance,
        frame_bytes,
    } = c.probe.as_mut().expect("traced clients carry a probe");
    let polymul = is_polymul(i);
    let sub = submit_request(c.conn.wire_tenant, c.pool, i);
    let (spec, inputs) = (sub.spec.clone(), sub.inputs.clone());

    let root = tracer.open("net", None, i);
    let wire = c.conn.net.submit(sub.clone());
    tracer.close(root);
    let wire = wire.map_err(|e| e.to_string())?;

    let bytes = tracer.time("net.codec", None, i, || {
        let limits = FrameLimits::default();
        let req = encode_request(&Request::Submit(sub));
        decode_request(&req, &limits).expect("request frame decodes");
        let resp = encode_response(&Response::Ok(encode_poly_body(&wire)));
        decode_response(&resp).expect("response frame decodes");
        // Both frames plus their 4-byte length prefixes.
        req.len() + resp.len() + 8
    });
    frame_bytes.push(bytes as f64);

    let svc = tracer.open("service", Some(root), i);
    let ticket = if polymul {
        service.submit_polymul_as(c.conn.tenant, inputs[0].clone(), inputs[1].clone())
    } else {
        service.submit_forward_as(c.conn.tenant, inputs[0].clone())
    };
    let via_service = ticket.and_then(Ticket::wait);
    tracer.close(svc);
    let via_service = via_service.map_err(|e| e.to_string())?;

    let slots: Vec<&[Vec<u64>]> = inputs.chunks(1).collect();
    let sh = tracer.open("sharded", Some(svc), i);
    let via_sharded = if polymul {
        sharded.polymul_batch(slots[0], slots[1])
    } else {
        sharded.forward_batch(slots[0])
    };
    tracer.close(sh);
    let via_sharded = via_sharded.map_err(|e| e.to_string())?;
    imbalance.push(shard_imbalance(sharded.last_wave_shard_secs()));

    let via_engine = tracer.time("engine", Some(sh), i, || {
        if polymul {
            engine.polymul(slots[0], slots[1])
        } else {
            engine
                .load_batch(slots[0])
                .and_then(|()| engine.forward())
                .and_then(|()| engine.read_batch(1))
        }
    });
    let via_engine = via_engine.map_err(|e| e.to_string())?;

    let batch = [wire.clone()];
    tracer
        .time("verify", Some(sh), i, || {
            verifier.check(&spec, &slots, &batch, VERIFY, i)
        })
        .map_err(|e| e.to_string())?;

    if via_service != wire || via_sharded[0] != wire || via_engine[0] != wire {
        return Err(format!("request {i}: the layers disagree on the output"));
    }
    Ok((c.id, polymul, i as usize % POOL, fingerprint(wire)))
}

pub fn run(args: &Args) -> Run {
    let params = NttParams::new(N, Q).expect("Kyber-class parameters");
    let cfg = BpNttConfig::new(134, 256, 14, params.clone()).expect("134x256 14-bit layout");
    let pools: Vec<Pool> = (0..CONNS).map(|c| Pool::new(args.seed, c)).collect();

    let mut setup_s = Vec::new();
    let mut built: Option<(Stack, Vec<Conn>)> = None;
    for _ in 0..SETUPS {
        if let Some((stack, conns)) = built.take() {
            drop(conns);
            stack.stop();
        }
        let t = Instant::now();
        built = Some(Stack::start(&cfg, &pools));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (stack, conns) = built.expect("at least one set-up");

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let clients: Vec<Client> = conns
        .into_iter()
        .zip(&pools)
        .enumerate()
        .map(|(id, (conn, pool))| Client {
            id,
            conn,
            pool,
            probe: None,
        })
        .collect();
    let t = Instant::now();
    let m0 = stack.service.metrics();
    let lp = closed_loop(clients, window, &untraced_step);
    let m1 = stack.service.metrics();
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
        engine_probe(&cfg, &pools[0].a[..1], &pools[0].b[..1], 200, &mut layers);
        for c in &mut clients {
            let mut sharded = ShardedBpNtt::new(&cfg, SHARDS).expect("standalone sharded engine");
            sharded.set_recovery(LADDER);
            let mut engine = BpNtt::new(cfg.clone()).expect("standalone engine");
            let (a, b) = (&c.pool.a[..1], &c.pool.b[..1]);
            sharded.polymul_batch(a, b).expect("warm-up polymul");
            sharded.forward_batch(a).expect("warm-up forward");
            engine.polymul(a, b).expect("warm-up polymul");
            engine.load_batch(a).expect("warm-up load");
            engine.forward().expect("warm-up forward");
            sharded.reset_stats();
            engine.reset_stats();
            c.probe = Some(Probe {
                service: Arc::clone(&stack.service),
                sharded,
                engine,
                verifier: Verifier::new(&params),
                tracer: Tracer::new(Instant::now()),
                imbalance: Vec::new(),
                frame_bytes: Vec::new(),
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
            summary.dur("net", 0.5) - latency_p50,
        );
        layers.set(
            "trace.unattributed_ms_p50",
            print_breakdown(
                "wire_mixed",
                &summary,
                &["net", "service", "sharded", "engine", "verify"],
                latency_p50,
            ),
        );
        crate::dump_spans(args, "wire_mixed", &tracers);
        // Dropping the probes releases their handles on the service.
    } else {
        drop(clients);
    }
    let m_end = stack.stop();
    gate.absorb_service(&m_end);

    // Check every result against the software NTT.
    let twiddles = TwiddleTable::new(&params);
    let reference: Vec<Vec<(u64, u64)>> = pools
        .iter()
        .map(|p| {
            (0..POOL)
                .map(|k| {
                    let mut f = p.a[k].clone();
                    ntt_in_place(&params, &twiddles, &mut f).expect("reference forward");
                    let c = polymul_ntt_with(&params, &twiddles, &p.a[k], &p.b[k])
                        .expect("reference product");
                    (fingerprint(f), fingerprint(c))
                })
                .collect()
        })
        .collect();
    let mismatched = results
        .iter()
        .filter(|&&(conn, polymul, k, fp)| {
            let (f, c) = reference[conn][k];
            fp != if polymul { c } else { f }
        })
        .count() as u64;

    let metrics = if args.trace {
        layers.metrics()
    } else {
        end_to_end(
            &w,
            &setup_s,
            shape_cost(&cfg, &pools[0]),
            m_end.fallback_polys,
        )
    };
    Run {
        attempted: w.attempted + extra_attempted,
        failed: w.failed + extra_failed,
        checked: results.len() as u64,
        mismatched,
        reference: "ntt_in_place / polymul_ntt_with (software NTT)",
        first_error,
        gate,
        metrics,
    }
}

/// Simulated cost per result of the 2:1 forward:polymul mix. Each
/// request runs as its own one-lane wave (one request per wave, as the
/// service forms them here), so replaying one wave per pool entry and
/// shape on an identically configured sharded engine gives the array
/// work a request costs; the pool average makes it exact for a seed.
fn shape_cost(cfg: &BpNttConfig, pool: &Pool) -> SimCost {
    let mut e = ShardedBpNtt::new(cfg, SHARDS).expect("shape engine");
    for k in 0..POOL {
        e.forward_batch(&pool.a[k..=k]).expect("forward wave");
    }
    let f = e.stats();
    e.reset_stats();
    for k in 0..POOL {
        e.polymul_batch(&pool.a[k..=k], &pool.b[k..=k])
            .expect("polymul wave");
    }
    let p = e.stats();
    let per = POOL as f64 * 3.0;
    SimCost {
        cycles: (2.0 * f.cycles as f64 + p.cycles as f64) / per,
        energy_nj: steady_energy((2.0 * f.energy_nj() + p.energy_nj()) / per),
    }
}

/// Per-layer metrics of the traced run. Service counters come from the
/// untraced window (`m0` → `m1`), so tracing does not skew them.
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
    let all = |f: fn(&Probe) -> &Vec<f64>| -> Vec<f64> {
        probes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let requests = s.count("net") as u64;
    layers.set("net.codec_us_per_req", s.dur("net.codec", 0.5) * 1e3);
    let bytes = all(|p| &p.frame_bytes);
    layers.set(
        "net.frame_bytes_per_req",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );
    layers.set("net.self_ms_p50", s.self_p50("net"));

    layers.set("service.submit_wait_ms_p50", s.dur("service", 0.50));
    layers.set("service.submit_wait_ms_p99", s.dur("service", 0.99));
    layers.set("service.self_ms_p50", s.self_p50("service"));
    let completed = (m1.completed - m0.completed).max(1) as f64;
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

    layers.set("sharded.wave_ms_p50", s.dur("sharded", 0.5));
    layers.set("sharded.self_ms_p50", s.self_p50("sharded"));
    layers.set("sharded.shard_imbalance", median(&all(|p| &p.imbalance)));
    let mut ladder = Gate::default();
    for p in probes {
        ladder.absorb_recovery(p.sharded.recovery_totals());
    }
    layers.set(
        "sharded.faults_detected",
        (ladder.faults_detected + m1.faults_detected) as f64,
    );
    layers.set(
        "sharded.retries",
        (probes
            .iter()
            .map(|p| p.sharded.recovery_totals().retries)
            .sum::<u64>()
            + m1.retries) as f64,
    );
    layers.set(
        "sharded.fallback_polys",
        (ladder.fallback_polys + m1.fallback_polys) as f64,
    );
    gate.fallback_polys += ladder.fallback_polys;
    gate.faults_detected += ladder.faults_detected;
    gate.quarantined_shards += ladder.quarantined_shards;

    layers.set("engine.ms_p50", s.dur("engine", 0.5));
    let instrs: u64 = probes.iter().map(|p| p.engine.stats().counts.total()).sum();
    layers.set(
        "engine.host_ns_per_sim_instr",
        s.total_ms("engine") * 1e6 / instrs.max(1) as f64,
    );
    let stats = probes.iter().fold(bpntt_sram::Stats::default(), |acc, p| {
        acc + p.sharded.stats()
    });
    let fastpath = probes
        .iter()
        .fold(bpntt_sram::FastPathStats::default(), |acc, p| {
            acc + *p.engine.fastpath_stats()
        });
    layers.set_sram(&stats, &fastpath, requests);
    layers.set("verify.check_us_per_poly", s.dur("verify", 0.5) * 1e3);
}

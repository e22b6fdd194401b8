//! Emits `BENCH_service.json`: the network front-end under a zipf-hot
//! multi-tenant mix with connection chaos. This bin is both the service
//! trajectory benchmark and the chaos harness the CI smoke leg runs —
//! every assertion below is a release gate:
//!
//! * every **admitted** request completes reference-exact (the fault
//!   plan from the recovery ladder stays armed, so completion means
//!   *verified*, not merely returned);
//! * every **shed** request fails typed (`Overloaded`/`RateLimited`)
//!   with a `retry_after_ms ≥ 1` back-off hint on the wire;
//! * the per-tenant completion-ratio spread stays within a fairness
//!   bound under a 10:1 hot-tenant offered-load mix;
//! * the server survives disconnecting, malformed, and slow-loris
//!   clients and still answers a health probe afterwards.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p bpntt-bench --bin loadgen [-- OPTIONS]
//! ```
//!
//! Options (defaults in parentheses):
//!
//! * `--shards N` — arrays per configuration engine (2).
//! * `--tenants N` — tenant count; tenant 0 is the hot one (4).
//! * `--hot-conns N` — connections driving the hot tenant; each cold
//!   tenant gets one, so this is the offered-load skew (10).
//! * `--requests N` — requests per connection (40).
//! * `--queue N` — bounded queue capacity (10).
//! * `--shed X` — load-shed threshold as a fraction of the queue (0.8);
//!   below 1.0 leaves tenant-fair admission headroom.
//! * `--coalesce-us N` — dispatcher coalescing window, µs (500).
//! * `--chaos-rate R` — per-instruction transient bit-flip rate in every
//!   shard's SRAM (0.01); pair of the recovery ladder.
//! * `--verify POLICY` — `off|range|spot|full` (spot).
//! * `--rate-limit RPS` — arm per-tenant token buckets (off).
//! * `--disconnects N` — clients that submit then vanish mid-request (6).
//! * `--malformed N` — hostile frames: bad magic, truncated, oversized
//!   prefix, garbage payload (8).
//! * `--slowloris N` — connections that stall inside a frame (2).
//! * `--fairness-bound X` — max/min completion-ratio spread gate (1.5).
//! * `--json-out PATH` — output path (`BENCH_service.json`).
//! * `--burst` — the self-healing drill (off): swaps the transient
//!   chaos plan for a windowed `dead_row` **burst** that corrupts each
//!   shard's first chunk and then burns out, arms the service's
//!   background scrubber (fast probe cadence), forces `--verify full`,
//!   and gives every fair client an automatic retry policy. Release
//!   gates on top of the usual ones: at least one shard must be
//!   probed, canaried, and **reintegrated with no manual
//!   `lift_quarantine` call**, and zero corruptions may escape to any
//!   client.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bpntt_core::{
    BpNttConfig, FaultPlan, HealthOptions, NttService, RateLimit, ServiceOptions, ShardedBpNtt,
    VerifyPolicy,
};
use bpntt_core::{ExecMode, PipelineSpec};
use bpntt_net::{
    encode_request, write_frame, ClientError, FrameLimits, NetClient, NetOptions, NetServer,
    Request, RetryPolicy, SubmitRequest, WireErrorCode,
};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::{NttParams, Polynomial, TwiddleTable};

struct Options {
    shards: usize,
    tenants: usize,
    hot_conns: usize,
    requests: u64,
    queue: usize,
    shed: f64,
    coalesce_us: u64,
    chaos_rate: f64,
    verify: VerifyPolicy,
    rate_limit: Option<f64>,
    disconnects: usize,
    malformed: usize,
    slowloris: usize,
    fairness_bound: f64,
    json_out: String,
    burst: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        shards: 2,
        tenants: 4,
        hot_conns: 10,
        requests: 40,
        queue: 10,
        shed: 0.8,
        coalesce_us: 500,
        chaos_rate: 0.01,
        verify: VerifyPolicy::SpotCheck { points: 2 },
        rate_limit: None,
        disconnects: 6,
        malformed: 8,
        slowloris: 2,
        fairness_bound: 1.5,
        json_out: "BENCH_service.json".to_string(),
        burst: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--shards" => opts.shards = value("--shards").parse().expect("--shards integer"),
            "--tenants" => {
                opts.tenants = value("--tenants").parse().expect("--tenants integer");
                assert!(opts.tenants >= 1, "--tenants must be at least 1");
            }
            "--hot-conns" => {
                opts.hot_conns = value("--hot-conns").parse().expect("--hot-conns integer");
            }
            "--requests" => {
                opts.requests = value("--requests").parse().expect("--requests integer");
            }
            "--queue" => opts.queue = value("--queue").parse().expect("--queue integer"),
            "--shed" => {
                opts.shed = value("--shed").parse().expect("--shed float");
                assert!((0.0..=1.0).contains(&opts.shed), "--shed must be in [0, 1]");
            }
            "--coalesce-us" => {
                opts.coalesce_us = value("--coalesce-us")
                    .parse()
                    .expect("--coalesce-us integer");
            }
            "--chaos-rate" => {
                opts.chaos_rate = value("--chaos-rate").parse().expect("--chaos-rate float");
                assert!(
                    (0.0..=1.0).contains(&opts.chaos_rate),
                    "--chaos-rate must be in [0, 1]"
                );
            }
            "--verify" => {
                opts.verify = match value("--verify").as_str() {
                    "off" => VerifyPolicy::Off,
                    "range" => VerifyPolicy::Range,
                    "spot" => VerifyPolicy::SpotCheck { points: 2 },
                    "full" => VerifyPolicy::Full,
                    other => panic!("--verify must be off|range|spot|full, got {other}"),
                };
            }
            "--rate-limit" => {
                opts.rate_limit = Some(value("--rate-limit").parse().expect("--rate-limit float"));
            }
            "--disconnects" => {
                opts.disconnects = value("--disconnects")
                    .parse()
                    .expect("--disconnects integer");
            }
            "--malformed" => {
                opts.malformed = value("--malformed").parse().expect("--malformed integer");
            }
            "--slowloris" => {
                opts.slowloris = value("--slowloris").parse().expect("--slowloris integer");
            }
            "--fairness-bound" => {
                opts.fairness_bound = value("--fairness-bound")
                    .parse()
                    .expect("--fairness-bound float");
            }
            "--json-out" => opts.json_out = value("--json-out"),
            "--burst" => opts.burst = true,
            other => panic!("unknown option {other} (see the module docs for the full list)"),
        }
    }
    opts
}

#[derive(Default)]
struct TenantStats {
    offered: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
}

/// What the client-side resilience layer did, summed over every fair
/// connection (reported in the JSON `client` block).
#[derive(Default)]
struct ClientAgg {
    retries: AtomicU64,
    reconnects: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

impl ClientAgg {
    fn absorb(&self, s: bpntt_net::ClientStats) {
        self.retries.fetch_add(s.retries, Ordering::Relaxed);
        self.reconnects.fetch_add(s.reconnects, Ordering::Relaxed);
        self.hedges_launched
            .fetch_add(s.hedges_launched, Ordering::Relaxed);
        self.hedges_won.fetch_add(s.hedges_won, Ordering::Relaxed);
    }
}

fn pseudo(params: &NttParams, seed: u64) -> Vec<u64> {
    Polynomial::pseudo_random(params, seed).into_coeffs()
}

/// One well-behaved connection: `requests` submissions for one tenant,
/// each verified against the software reference, sheds counted typed.
#[allow(clippy::too_many_arguments)]
fn fair_client(
    addr: std::net::SocketAddr,
    tenant_raw: Option<u32>,
    tenant_idx: usize,
    conn_seed: u64,
    requests: u64,
    params: &NttParams,
    twiddles: &TwiddleTable,
    stats: &TenantStats,
    policy: RetryPolicy,
    agg: &ClientAgg,
) {
    let mut client = NetClient::connect_with_policy(addr, policy).expect("connect fair client");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    for r in 0..requests {
        let seed = conn_seed * 1_000_003 + r * 31 + 1;
        let polymul = r % 3 == 2;
        let (spec, inputs) = if polymul {
            (
                PipelineSpec::polymul(),
                vec![pseudo(params, seed), pseudo(params, seed + 13)],
            )
        } else {
            (PipelineSpec::forward_ntt(), vec![pseudo(params, seed)])
        };
        stats.offered.fetch_add(1, Ordering::Relaxed);
        let sent = inputs.clone();
        // With `max_attempts: 1` (the default run) this is the plain
        // submit path; the burst drill arms real retries, so sheds and
        // dropped sockets are healed inside the client and only
        // post-retry failures surface here.
        match client.submit_with_retry(&SubmitRequest {
            tenant: tenant_raw,
            mode: ExecMode::Replay,
            deadline_ms: 10_000,
            spec,
            inputs,
        }) {
            Ok(got) => {
                let expect = if polymul {
                    polymul_schoolbook(params, &sent[0], &sent[1]).unwrap()
                } else {
                    let mut e = sent[0].clone();
                    ntt_in_place(params, twiddles, &mut e).unwrap();
                    e
                };
                assert_eq!(
                    got, expect,
                    "admitted request diverged from the reference (tenant {tenant_idx}, req {r})"
                );
                stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(ClientError::Remote {
                code: code @ (WireErrorCode::Overloaded | WireErrorCode::RateLimited),
                retry_after_ms,
                ..
            }) => {
                assert!(
                    retry_after_ms >= 1,
                    "{code:?} shed must carry a nonzero retry_after_ms"
                );
                stats.shed.fetch_add(1, Ordering::Relaxed);
                // Honor the hint (capped so a pessimistic estimate
                // cannot stall the run): a shed client backing off is
                // the contract the retry_after_ms field exists for.
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).min(20)));
            }
            Err(e) => {
                eprintln!("tenant {tenant_idx} req {r} failed untyped: {e}");
                stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    agg.absorb(client.stats());
}

/// Chaos: submit a valid request, then vanish without reading the
/// response — exercises the mid-request-disconnect → cancel path.
fn disconnector(addr: std::net::SocketAddr, params: &NttParams, seed: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let req = Request::Submit(SubmitRequest {
        tenant: None,
        mode: ExecMode::Replay,
        deadline_ms: 10_000,
        spec: PipelineSpec::forward_ntt(),
        inputs: vec![pseudo(params, 0xD15C + seed)],
    });
    let _ = write_frame(&mut stream, &encode_request(&req));
    // Drop without reading: the server's peek sees EOF and cancels.
}

/// Chaos: four flavours of hostile bytes. None may crash the server.
fn malformed(addr: std::net::SocketAddr, flavour: usize) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    match flavour % 4 {
        0 => {
            // Bad magic: well-framed, hostile payload. Expect a typed
            // error response on a surviving connection.
            let _ = write_frame(&mut stream, b"XXXXGARBAGE");
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
        1 => {
            // Truncated: promise 100 bytes, deliver 10, hang up.
            let _ = stream.write_all(&100u32.to_le_bytes());
            let _ = stream.write_all(&[0u8; 10]);
        }
        2 => {
            // Oversized length prefix: the server must answer typed (or
            // just drop) without allocating 4 GiB.
            let _ = stream.write_all(&u32::MAX.to_le_bytes());
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
        _ => {
            // Garbage payload under a correct envelope length.
            let _ = write_frame(&mut stream, &[0xAA; 37]);
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
    }
}

/// Chaos: stall inside a length prefix longer than the server's read
/// timeout; the server must drop us, not dedicate a thread forever.
fn slowloris(addr: std::net::SocketAddr, hold: Duration) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.write_all(&[0x04, 0x00]); // half a length prefix
    std::thread::sleep(hold);
    // If the server dropped us (as it must), this read sees EOF/reset.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 8];
    let _ = stream.read(&mut buf);
}

fn main() {
    let mut opts = parse_args();
    // 64-point Kyber-class workload: 134 rows, 14-bit tiles in 256
    // columns → 18 lanes per shard.
    let params = NttParams::new(64, 7681).unwrap();
    let cfg = BpNttConfig::new(134, 256, 14, params.clone()).unwrap();
    let twiddles = TwiddleTable::new(&params);
    let n = params.n();
    let q = params.modulus();

    let chaos_plan = if opts.burst {
        // A dead row corrupts whole coefficients, so only a full check
        // is a reliable detector — anything weaker can let the burst
        // escape to a client and fail the run on the wrong gate.
        if opts.verify != VerifyPolicy::Full {
            eprintln!("--burst forces --verify full (was {:?})", opts.verify);
            opts.verify = VerifyPolicy::Full;
        }
        // Calibrate the burst window to one chunk's instruction count,
        // so each shard's dead row burns out after its first chunk and
        // the scrubber's probes (which advance the same per-shard
        // instruction clock) find a healable array.
        let mut probe_engine = ShardedBpNtt::new(&cfg, 1).expect("burst calibration engine");
        let warmup: Vec<Vec<u64>> = (0..4).map(|s| pseudo(&params, s + 1)).collect();
        probe_engine
            .forward_batch(&warmup)
            .expect("burst calibration wave");
        let chunk_instrs = probe_engine.stats().counts.total();
        Some(
            FaultPlan::seeded(0xB0057)
                .dead_row(2)
                .active_between(0, chunk_instrs),
        )
    } else {
        (opts.chaos_rate > 0.0)
            .then(|| FaultPlan::seeded(0xBEEF_CAFE).transient_rate(opts.chaos_rate))
    };
    let opts = opts;
    assert!(
        chaos_plan.is_none() || opts.verify.is_active(),
        "--chaos-rate needs an active --verify policy, or corruption escapes"
    );
    // The self-healing drill arms the background scrubber: quarantined
    // shards are probed on a fast cadence and walk back to duty through
    // canary mode with no manual lift_quarantine call anywhere below.
    let health = opts.burst.then(|| HealthOptions {
        probe_interval: Duration::from_millis(5),
        probes_to_canary: 2,
        canary_waves_to_healthy: 2,
        max_probe_backoff: Duration::from_millis(200),
        decay_half_life: Duration::from_millis(100),
        probe_score_threshold: 1e9,
        patrol: true,
        patrol_interval: Duration::from_millis(100),
    });
    let service = std::sync::Arc::new(
        NttService::start(
            &cfg,
            ServiceOptions {
                shards: opts.shards,
                max_queue: opts.queue,
                shed_threshold: opts.shed,
                coalesce_window: Duration::from_micros(opts.coalesce_us),
                verify: opts.verify,
                retry_budget: if opts.verify.is_active() { 2 } else { 0 },
                fault_plan: chaos_plan,
                rate_limit: opts.rate_limit.map(|rps| RateLimit {
                    requests_per_sec: rps,
                    burst: rps,
                }),
                health,
            },
        )
        .unwrap(),
    );
    // Tenant 0 is the service default; the cold tenants get their own
    // fair-queue lanes via add_tenant. All share one configuration, so
    // they share its engine and fill lanes of the same waves.
    let mut tenant_raws: Vec<Option<u32>> = vec![None];
    for _ in 1..opts.tenants {
        tenant_raws.push(Some(service.add_tenant(&cfg).unwrap().raw()));
    }

    let read_timeout = Duration::from_millis(500);
    let server = NetServer::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&service),
        NetOptions {
            read_timeout,
            write_timeout: Duration::from_secs(2),
            limits: FrameLimits::default(),
        },
    )
    .expect("bind loadgen server");
    let addr = server.local_addr();

    let stats: Vec<TenantStats> = (0..opts.tenants).map(|_| TenantStats::default()).collect();
    let agg = ClientAgg::default();
    // The burst drill gives every fair connection real resilience;
    // the plain benchmark keeps the one-shot submit path so the shed
    // accounting gates below stay meaningful.
    let policy = if opts.burst {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        }
    } else {
        RetryPolicy {
            max_attempts: 1,
            reconnect: false,
            ..RetryPolicy::default()
        }
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // 10:1 zipf-ish offered load: `hot_conns` connections hammer
        // tenant 0, one connection per cold tenant.
        let mut conn_seed = 0u64;
        for _ in 0..opts.hot_conns {
            conn_seed += 1;
            let (params, twiddles, stats, agg) = (&params, &twiddles, &stats[0], &agg);
            let seed = conn_seed;
            scope.spawn(move || {
                fair_client(
                    addr,
                    None,
                    0,
                    seed,
                    opts.requests,
                    params,
                    twiddles,
                    stats,
                    policy,
                    agg,
                );
            });
        }
        for (t, raw) in tenant_raws.iter().enumerate().skip(1) {
            conn_seed += 1;
            let (params, twiddles, stats, agg) = (&params, &twiddles, &stats[t], &agg);
            let (seed, raw) = (conn_seed, *raw);
            scope.spawn(move || {
                fair_client(
                    addr,
                    raw,
                    t,
                    seed,
                    opts.requests,
                    params,
                    twiddles,
                    stats,
                    policy,
                    agg,
                );
            });
        }
        // Chaos runs concurrently with the fair traffic.
        for d in 0..opts.disconnects {
            let params = &params;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(7 * d as u64));
                disconnector(addr, params, d as u64);
            });
        }
        for m in 0..opts.malformed {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5 * m as u64));
                malformed(addr, m);
            });
        }
        for _ in 0..opts.slowloris {
            scope.spawn(move || slowloris(addr, read_timeout * 3));
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    // The server must have survived the chaos: a fresh probe connection
    // still answers, and fetches both metrics exports.
    let mut probe = NetClient::connect(addr).expect("post-chaos probe connect");
    probe.ping().expect("post-chaos ping");
    let prom = probe.metrics_prometheus().expect("post-chaos prometheus");
    assert!(prom.contains("bpntt_tenant_completed_total"));
    // Families are typed: `…_total` counters, everything else gauges.
    for typed in [
        "# TYPE bpntt_completed_total counter",
        "# TYPE bpntt_queue_depth gauge",
    ] {
        assert!(prom.contains(typed), "prometheus export lacks `{typed}`");
    }
    if opts.burst {
        assert!(
            prom.contains("bpntt_shard_health_state"),
            "burst drill: shard health must be visible on the Prometheus wire"
        );
        // One hedged submission against the live server: with an
        // immediate hedge threshold both arms race for real, and the
        // loser's connection drop is absorbed as a normal cancel.
        let mut hedger = NetClient::connect_with_policy(
            addr,
            RetryPolicy {
                hedge_after: Some(Duration::ZERO),
                ..policy
            },
        )
        .expect("hedge drill connect");
        let sent = pseudo(&params, 0x4ED6E);
        let got = hedger
            .submit_hedged(&SubmitRequest {
                tenant: None,
                mode: ExecMode::Replay,
                deadline_ms: 10_000,
                spec: PipelineSpec::forward_ntt(),
                inputs: vec![sent.clone()],
            })
            .expect("hedged submit");
        let mut expect = sent;
        ntt_in_place(&params, &twiddles, &mut expect).unwrap();
        assert_eq!(got, expect, "hedged submit diverged from the reference");
        assert_eq!(hedger.stats().hedges_launched, 1);
        agg.absorb(hedger.stats());
    }
    server.shutdown();
    let metrics = std::sync::Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("server threads still hold the service"))
        .shutdown();

    // ---- gates -------------------------------------------------------
    let offered: u64 = stats
        .iter()
        .map(|s| s.offered.load(Ordering::Relaxed))
        .sum();
    let completed: u64 = stats
        .iter()
        .map(|s| s.completed.load(Ordering::Relaxed))
        .sum();
    let shed: u64 = stats.iter().map(|s| s.shed.load(Ordering::Relaxed)).sum();
    let failed: u64 = stats.iter().map(|s| s.failed.load(Ordering::Relaxed)).sum();
    assert_eq!(
        failed, 0,
        "every non-shed request must complete typed and verified"
    );
    assert_eq!(offered, completed + shed, "outcome accounting must close");
    let ratios: Vec<f64> = stats
        .iter()
        .map(|s| {
            let o = s.offered.load(Ordering::Relaxed).max(1);
            s.completed.load(Ordering::Relaxed) as f64 / o as f64
        })
        .collect();
    let (min_ratio, max_ratio) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    let spread = if min_ratio > 0.0 {
        max_ratio / min_ratio
    } else {
        f64::INFINITY
    };
    assert!(
        spread <= opts.fairness_bound,
        "per-tenant completion-ratio spread {spread:.3} exceeds the {:.2} fairness bound \
         (ratios {ratios:?})",
        opts.fairness_bound
    );
    if opts.burst {
        // The self-healing gates: the burst-benched shards must have
        // been probed and reintegrated by the scrubber alone, mid-run,
        // with every admitted request still reference-exact (failed==0
        // above covers the zero-escaped-corruptions half).
        assert!(
            metrics.health.probes_run >= 1 && metrics.health.probes_passed >= 1,
            "burst drill: the scrubber never probed a shard \
             (probes_run {}, probes_passed {})",
            metrics.health.probes_run,
            metrics.health.probes_passed
        );
        assert!(
            metrics.health.reintegrations >= 1,
            "burst drill: no shard was reintegrated by the scrubber"
        );
        assert_eq!(
            completed,
            offered - shed,
            "burst drill: every admitted request must complete"
        );
    }

    // ---- JSON --------------------------------------------------------
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::from("{\n  \"benchmark\": \"service_loadgen\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"n\": {n}, \"q\": {q}, \"tenants\": {}, \"hot_conns\": {}, \"requests_per_conn\": {}, \"mix\": \"2:1 forward:polymul, 10:1 hot-tenant zipf\"}},",
        opts.tenants, opts.hot_conns, opts.requests
    );
    let _ = writeln!(
        json,
        "  \"options\": {{\"shards\": {}, \"max_queue\": {}, \"shed_threshold\": {}, \"coalesce_us\": {}, \"chaos_rate\": {:e}, \"verify\": \"{:?}\", \"rate_limit_rps\": {}, \"disconnects\": {}, \"malformed\": {}, \"slowloris\": {}, \"burst\": {}}},",
        opts.shards,
        opts.queue,
        opts.shed,
        opts.coalesce_us,
        opts.chaos_rate,
        opts.verify,
        opts.rate_limit.map_or("null".to_string(), |r| format!("{r}")),
        opts.disconnects,
        opts.malformed,
        opts.slowloris,
        opts.burst
    );
    let _ = writeln!(
        json,
        "  \"wall_s\": {wall:.3},\n  \"offered\": {offered},\n  \"completed\": {completed},\n  \"shed\": {shed},\n  \"failed\": {failed},\n  \"fairness_spread\": {spread:.4},"
    );
    json.push_str("  \"per_tenant\": [");
    for (t, s) in stats.iter().enumerate() {
        if t > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"tenant\": {t}, \"offered\": {}, \"completed\": {}, \"shed\": {}, \"completion_ratio\": {:.4}}}",
            s.offered.load(Ordering::Relaxed),
            s.completed.load(Ordering::Relaxed),
            s.shed.load(Ordering::Relaxed),
            ratios[t]
        );
    }
    json.push_str("],\n");
    let _ = writeln!(
        json,
        "  \"client\": {{\"retries\": {}, \"reconnects\": {}, \"hedges_launched\": {}, \"hedges_won\": {}}},",
        agg.retries.load(Ordering::Relaxed),
        agg.reconnects.load(Ordering::Relaxed),
        agg.hedges_launched.load(Ordering::Relaxed),
        agg.hedges_won.load(Ordering::Relaxed)
    );
    let _ = writeln!(json, "  \"service\": {},", metrics.to_json());
    let _ = write!(
        json,
        "  \"note\": \"wall-clock on the build machine; every admitted request verified against the software NTT reference under armed fault injection and connection chaos\",\n  \"available_parallelism\": {parallelism},\n  \"simd_active\": {}\n}}\n",
        bpntt_sram::simd_active()
    );
    std::fs::write(&opts.json_out, &json).expect("write benchmark JSON");

    println!(
        "{offered} offered in {wall:.2} s → {completed} completed (all verified), {shed} shed typed, fairness spread {spread:.3}"
    );
    println!(
        "service: {} waves, {} submitted, {} rejected ({} rate-limited), {} cancelled, {} tenants",
        metrics.waves,
        metrics.submitted,
        metrics.rejected,
        metrics.rate_limited,
        metrics.cancelled,
        metrics.tenants
    );
    if opts.burst {
        println!(
            "health: {} probes ({} passed), {} reintegrations, {} canary demotions, shard states {:?}; client retries {}, reconnects {}, hedges {}/{}",
            metrics.health.probes_run,
            metrics.health.probes_passed,
            metrics.health.reintegrations,
            metrics.health.canary_demotions,
            metrics.shard_health,
            agg.retries.load(Ordering::Relaxed),
            agg.reconnects.load(Ordering::Relaxed),
            agg.hedges_won.load(Ordering::Relaxed),
            agg.hedges_launched.load(Ordering::Relaxed)
        );
    }
    println!("wrote {}", opts.json_out);
}

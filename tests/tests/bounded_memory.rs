//! Bounded memory: a service that keeps answering must hold a flat live
//! heap. A counting global allocator over `System` tracks live bytes in
//! this test binary; two closed-loop clients on two tenants of one
//! configuration drive a loopback `NetServer` over `NttService`, and the
//! live bytes after 4K requests must stay within a fixed slack of the
//! live bytes after K.
//!
//! Live bytes are what the program holds, not what the allocator has
//! mapped: a growing RSS over a flat count here is fragmentation or
//! allocator arenas, not a leak. The one bounded structure that still
//! fills between the two readings is the dispatcher's per-shard
//! wall-clock ring (4096 `f64` samples, 32 KiB at most; measured growth
//! 16 KiB, one doubling). The slack is that ring's full size, so 3K
//! requests leaking even 12 bytes each exceed it. A second test runs
//! the same load over clients that reconnect every 10 requests, 600
//! connections between the readings: connection threads exit with
//! their peers, and `NetServer`'s accept loop reaps their handles, so
//! the same slack holds (measured growth 16–24 KiB). Without the reaping
//! each connection keeps about 47 bytes and the growth measured 42–43 KiB.
//! A third test drives a bare two-shard `ShardedBpNtt` with K and then
//! 4K polymul waves, and pins the engine layer alone the same way.
//!
//! The count is process-wide, so every test here holds [`SERIAL`]: a
//! test running concurrently would move another's readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bpntt_core::{BpNttConfig, ExecMode, NttService, PipelineSpec, ServiceOptions, ShardedBpNtt};
use bpntt_net::{NetClient, NetOptions, NetServer, SubmitRequest};
use bpntt_ntt::forward::ntt_in_place;
use bpntt_ntt::polymul::polymul_schoolbook;
use bpntt_ntt::{NttParams, Polynomial, TwiddleTable};

/// A `System` allocator that keeps a running count of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held by every test for its whole run, so one test's readings never
/// see another's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Requests per client before the first reading (warm-up: engines,
/// caches, connection buffers), and per client in the K phase.
const WARMUP: usize = 100;
const K: usize = 500;
/// Allowed growth of live bytes from K to 4K requests.
const SLACK_BYTES: isize = 32 * 1024;
/// Requests per connection under churn: often enough that a handle
/// kept per connection outgrows the slack.
const RECONNECT_EVERY: usize = 10;
/// Allowed growth of live bytes from K to 4K waves of a bare
/// `ShardedBpNtt`. The engine holds no growing structure: a wave reuses
/// the shard-time vector's capacity and frees its outputs, claim queues
/// and worker threads before returning (measured growth 0 B). The slack
/// stays under one byte per wave of the 3K, so any per-wave retention
/// exceeds it.
const ENGINE_SLACK_BYTES: isize = 1024;

const N: usize = 8;
const Q: u64 = 97;

/// One precomputed request and its reference answer.
struct Case {
    sub: SubmitRequest,
    expect: Vec<u64>,
}

/// A 2:1 forward:polymul cycle of reference-checked requests for one
/// tenant.
fn cases(tenant: Option<u32>, salt: u64) -> Vec<Case> {
    let params = NttParams::new(N, Q).unwrap();
    let twiddles = TwiddleTable::new(&params);
    let poly = |seed| Polynomial::pseudo_random(&params, seed).into_coeffs();
    (0..12u64)
        .map(|i| {
            let a = poly(salt + 2 * i + 1);
            let (spec, inputs, expect) = if i % 3 == 2 {
                let b = poly(salt + 2 * i + 2);
                let product = polymul_schoolbook(&params, &a, &b).unwrap();
                (PipelineSpec::polymul(), vec![a, b], product)
            } else {
                let mut spectrum = a.clone();
                ntt_in_place(&params, &twiddles, &mut spectrum).unwrap();
                (PipelineSpec::forward_ntt(), vec![a], spectrum)
            };
            Case {
                sub: SubmitRequest {
                    tenant,
                    mode: ExecMode::Replay,
                    deadline_ms: 0,
                    spec,
                    inputs,
                },
                expect,
            }
        })
        .collect()
}

/// Runs `per_client` requests on every client concurrently, checking
/// each answer, and returns the live bytes once all have been answered.
/// With `reconnect`, each client drops its connection and opens a fresh
/// one to that address every [`RECONNECT_EVERY`] requests.
fn phase(
    clients: &mut [(NetClient, Vec<Case>)],
    per_client: usize,
    reconnect: Option<SocketAddr>,
) -> isize {
    std::thread::scope(|s| {
        for (client, cases) in clients.iter_mut() {
            s.spawn(move || {
                for r in 0..per_client {
                    if let Some(addr) = reconnect.filter(|_| r % RECONNECT_EVERY == 0) {
                        *client = NetClient::connect(addr).expect("reconnect failed");
                    }
                    let case = &cases[r % cases.len()];
                    let got = client.submit(case.sub.clone()).expect("request failed");
                    assert_eq!(got, case.expect, "request {r} diverged from the reference");
                }
            });
        }
    });
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn live_bytes_plateau_under_sustained_wire_load() {
    wire_load_plateau(false);
}

#[test]
fn live_bytes_plateau_under_connection_churn() {
    wire_load_plateau(true);
}

/// Two closed-loop clients on two tenants of one configuration, over
/// one connection each or (`churn`) a fresh connection every
/// [`RECONNECT_EVERY`] requests.
fn wire_load_plateau(churn: bool) {
    let _serial = serial();
    let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(N, Q).unwrap()).unwrap();
    let service = Arc::new(
        NttService::start(
            &cfg,
            ServiceOptions {
                coalesce_window: Duration::ZERO,
                ..ServiceOptions::default()
            },
        )
        .unwrap(),
    );
    let second = service.add_tenant(&cfg).unwrap().raw();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetOptions {
            read_timeout: Duration::from_millis(200),
            ..NetOptions::default()
        },
    )
    .unwrap();
    let mut clients: Vec<(NetClient, Vec<Case>)> = [(None, 0), (Some(second), 1000)]
        .into_iter()
        .map(|(tenant, salt)| {
            let client = NetClient::connect(server.local_addr()).unwrap();
            (client, cases(tenant, salt))
        })
        .collect();

    let reconnect = churn.then(|| server.local_addr());
    phase(&mut clients, WARMUP, reconnect);
    let at_k = phase(&mut clients, K, reconnect);
    let at_4k = phase(&mut clients, 3 * K, reconnect);
    let grown = at_4k - at_k;
    eprintln!("live bytes (churn: {churn}): {at_k} after K, {at_4k} after 4K (grew {grown})");
    assert!(
        grown <= SLACK_BYTES,
        "live bytes grew by {grown} B over {} requests ({at_k} -> {at_4k}): \
         something holds per-request state",
        3 * K * clients.len()
    );

    drop(clients);
    server.shutdown();
    let m = Arc::try_unwrap(service)
        .expect("server released the service")
        .shutdown();
    assert_eq!(m.completed, (WARMUP + 4 * K) as u64 * 2);
    assert_eq!(m.failed, 0);
}

#[test]
fn live_bytes_plateau_under_sustained_sharded_waves() {
    let _serial = serial();
    let params = NttParams::new(N, Q).unwrap();
    let cfg = BpNttConfig::new(32, 32, 8, params.clone()).unwrap();
    let mut sharded = ShardedBpNtt::new(&cfg, 2).unwrap();
    // Full waves: one chunk per shard, so every wave runs two workers.
    let pairs = sharded.lanes_total() as u64;
    let poly = |seed| Polynomial::pseudo_random(&params, seed).into_coeffs();
    let a: Vec<Vec<u64>> = (0..pairs).map(|i| poly(2 * i + 1)).collect();
    let b: Vec<Vec<u64>> = (0..pairs).map(|i| poly(2 * i + 2)).collect();
    let expect: Vec<Vec<u64>> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| polymul_schoolbook(&params, x, y).unwrap())
        .collect();
    let mut waves = |count: usize| {
        for w in 0..count {
            let got = sharded.polymul_batch(&a, &b).unwrap();
            assert_eq!(got, expect, "wave {w} diverged from the reference");
        }
        LIVE.load(Ordering::Relaxed)
    };

    waves(WARMUP);
    let at_k = waves(K);
    let at_4k = waves(3 * K);
    let grown = at_4k - at_k;
    eprintln!("live bytes: {at_k} after K waves, {at_4k} after 4K (grew {grown})");
    assert!(
        grown <= ENGINE_SLACK_BYTES,
        "live bytes grew by {grown} B over {} waves ({at_k} -> {at_4k}): \
         the sharded engine holds per-wave state",
        3 * K
    );
}

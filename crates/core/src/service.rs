//! A request-queue service over [`ShardedBpNtt`]: concurrent clients
//! submit single NTT requests, a dispatcher thread coalesces them into
//! full waves and fans them out across shards.
//!
//! The paper's scaling argument is that one instruction stream drives
//! hundreds of 0.063 mm² arrays; the sharded engine is that argument in
//! software, but server-side NTT workloads (HE ciphertext limbs, batch
//! signature verification) arrive as *streams of small requests*, not
//! pre-assembled batches. [`NttService`] closes the gap:
//!
//! * **Submission API** — every request is a pipeline:
//!   [`NttService::submit_pipeline`] takes a [`PipelineRequest`] (an
//!   arbitrary [`PipelineSpec`] op-graph plus one polynomial per
//!   declared input slot), validates it eagerly against the tenant's
//!   parameters — input count, lengths against `params.n`, coefficient
//!   reduction, slot capacity — so a malformed request fails its own
//!   submission with a typed [`BpNttError`] instead of failing inside
//!   the dispatcher thread, and returns a [`Ticket`]: a completion
//!   handle that is also a [`std::future::Future`] (waker wiring on the
//!   completion slot), so it `.await`s from any executor; `Ticket::wait`
//!   blocks and `Ticket::try_wait` polls for synchronous callers.
//!   [`NttService::submit_forward`] / [`NttService::submit_polymul`] are
//!   canned specs ([`PipelineSpec::forward_ntt`] /
//!   [`PipelineSpec::polymul`]) over the same path.
//! * **Wave coalescing** — a dispatcher thread drains the queue in
//!   batches: it waits for enough requests to fill every lane of every
//!   shard, but never past `coalesce_window` after the oldest queued
//!   request was admitted (or, while the requesters the last wave just
//!   answered are not yet back, one window from now), then executes one
//!   [`ShardedBpNtt::run_pipeline_batch`] call per
//!   `(engine, spec, mode)` group — the whole op-graph runs per lane
//!   with no intermediate load/read round-trips, and requests of every
//!   tenant on that engine's configuration fill lanes of the same call.
//!   Groups on distinct engines run **concurrently**: one on the
//!   dispatcher thread, the rest on scoped threads; one engine's groups
//!   run one after another in submission order. Inside the engine the
//!   chunks are **work-stolen** across shards, so a slow shard claims
//!   fewer chunks instead of stalling the wave.
//! * **Backpressure** — the queue is bounded; when it is full,
//!   submission fails fast with [`BpNttError::Overloaded`] instead of
//!   buffering without limit. Every submission, a single-prime request
//!   or an RNS limb group, passes the same admission (the crate's
//!   `admission` module): one rate-limit token per group, tenant-fair
//!   shedding, and all-or-nothing entry into the fair queue.
//! * **Deadlines** — each request may carry a queueing deadline
//!   ([`PipelineRequest::with_deadline`]). The dispatcher never
//!   coalesces past the earliest queued deadline, and a request that
//!   expires before dispatch resolves its ticket to
//!   [`BpNttError::DeadlineExpired`] — it fails typed, it never blocks a
//!   wave or its caller.
//! * **Fault tolerance** — [`ServiceOptions::verify`] applies a
//!   [`VerifyPolicy`] to every chunk of every wave and arms the
//!   detect → retry → quarantine → degrade ladder
//!   ([`RecoveryOptions`](crate::RecoveryOptions)) on each tenant
//!   engine, so a verified service completes every accepted request with
//!   a correct answer even while [`ServiceOptions::fault_plan`] injects
//!   SRAM faults. Ladder activity surfaces in [`ServiceMetrics`]
//!   (`faults_detected`, `retries`, `quarantined_shards`,
//!   `fallback_polys`, `verify_ms`).
//! * **Tenants and the cache** — each tenant registers a
//!   [`BpNttConfig`]; the dispatcher keeps one sharded engine per
//!   configuration — the key of the service's one [`ArtifactCache`],
//!   which adds the spec. A second tenant with an identical
//!   configuration builds no engine and compiles nothing; its requests
//!   share waves with every other tenant of that configuration.
//!   A novel spec compiles once per configuration, not once per tenant,
//!   and a dispatcher the watchdog respawns rebuilds one engine per
//!   configuration without recompiling. Admission (fair queue, rate
//!   limits, shedding, deadlines) and every reply and per-tenant counter
//!   stay per tenant. Two consequences of sharing: a shard the recovery
//!   ladder quarantines is benched for every tenant of its
//!   configuration, and a wave's resolve-round count — so its duration
//!   — depends on every lane in it, across tenants (the same data
//!   dependence one tenant's coalesced requests already have; a
//!   constant-time flavour is future work).
//! * **Metrics** — [`NttService::metrics`] snapshots queue depth, wave
//!   occupancy, throughput, and per-shard wall-clock percentiles as a
//!   [`ServiceMetrics`], exportable as JSON.
//!
//! # Example
//!
//! ```
//! use bpntt_core::{BpNttConfig, NttService, ServiceOptions};
//! use bpntt_ntt::NttParams;
//!
//! let cfg = BpNttConfig::new(32, 32, 8, NttParams::new(8, 97)?)?;
//! let service = NttService::start(&cfg, ServiceOptions::default())?;
//! let poly: Vec<u64> = (0..8).map(|j| (j * 13) as u64 % 97).collect();
//! let ticket = service.submit_forward(poly)?;
//! let spectrum = ticket.wait()?;
//! assert_eq!(spectrum.len(), 8);
//! let m = service.shutdown();
//! assert_eq!(m.completed, 1);
//! # Ok::<(), bpntt_core::BpNttError>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::{admit, FairQueue, TokenBucket, DRR_QUANTUM};
use crate::artifacts::ArtifactCache;
use crate::config::BpNttConfig;
use crate::error::BpNttError;
use crate::health::{HealthCounters, HealthOptions};
use crate::layout::Layout;
use crate::metrics::{percentile, ServiceMetrics, TenantMetrics};
use crate::pipeline::{ConfigFingerprint, ExecMode, PipelineSpec};
use crate::sharded::{RecoveryOptions, ShardedBpNtt};
use crate::verify::VerifyPolicy;
use bpntt_rns::{BigUint, RnsBasis};
use bpntt_sram::FaultPlan;

/// How many recent per-shard wall-clock samples the percentile window
/// keeps (a ring buffer; old samples fall off).
const SHARD_SAMPLE_WINDOW: usize = 4096;

/// Per-tenant token-bucket admission limit
/// ([`ServiceOptions::rate_limit`]). Each tenant gets its own bucket:
/// `burst` tokens to start, refilled at `requests_per_sec`, one token
/// per submission. An empty bucket rejects the submission typed with
/// [`BpNttError::RateLimited`] carrying a `retry_after_ms` refill
/// estimate — a per-tenant admission decision, independent of global
/// queue pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained refill rate, in requests per second.
    pub requests_per_sec: f64,
    /// Bucket capacity: how far a tenant may burst above the sustained
    /// rate.
    pub burst: f64,
}

/// Tuning knobs for [`NttService::start`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Arrays provisioned per configuration engine: every tenant
    /// registered on one configuration shares them.
    pub shards: usize,
    /// Bounded queue capacity; a full queue rejects submissions with
    /// [`BpNttError::Overloaded`].
    pub max_queue: usize,
    /// How long the dispatcher waits for more requests before running a
    /// partially filled wave. Zero dispatches immediately (lowest
    /// latency, worst occupancy).
    pub coalesce_window: Duration,
    /// Output verification applied by every engine to every
    /// chunk ([`VerifyPolicy::Off`] by default). An active policy also
    /// arms the software-reference fallback, so a verified service never
    /// returns a corrupted polynomial: a chunk that cannot be recovered
    /// on the array is recomputed in software.
    pub verify: VerifyPolicy,
    /// Extra attempts a shard gives a failing chunk before quarantining
    /// itself (the recovery ladder's retry rung).
    pub retry_budget: usize,
    /// Chaos knob: a fault plan installed on every configuration engine
    /// (reseeded per shard). Combine with an active [`Self::verify`]
    /// policy so injected corruption is detected and recovered rather
    /// than returned.
    pub fault_plan: Option<FaultPlan>,
    /// Per-tenant token-bucket admission limit; `None` (the default)
    /// admits on queue capacity alone.
    pub rate_limit: Option<RateLimit>,
    /// Queue-depth load shedding: submissions shed typed
    /// ([`BpNttError::Overloaded`] with a `retry_after_ms` hint) once the
    /// fair queue holds `shed_threshold × max_queue` requests or more.
    /// `1.0` (the default) sheds only at capacity — the historical
    /// bounded-queue behavior; lower values shed earlier, keeping
    /// headroom for latency-sensitive tenants. Shedding is tenant-fair:
    /// past the threshold, only tenants at or above their fair share
    /// (`shed_at / registered tenants`, at least one slot) of the queue
    /// shed, and below-share tenants may still be admitted into the
    /// `shed_at..max_queue` headroom — so set `shed_threshold < 1.0`
    /// whenever multi-tenant admission fairness matters.
    pub shed_threshold: f64,
    /// Arms the self-healing subsystem: a background **scrubber** thread
    /// that runs known-answer probes against quarantined shards (and
    /// patrols idle healthy ones) so a shard whose fault burst has
    /// passed reintegrates automatically through the
    /// quarantined → probing → canary → healthy ladder, plus a
    /// **watchdog** thread that respawns a panicked dispatcher or
    /// scrubber (failing requests queued at the crash typed with
    /// [`BpNttError::DispatcherRestarted`]). `None` (the default)
    /// disables both — quarantines then last until
    /// [`ShardedBpNtt::lift_quarantine`] is called, the pre-existing
    /// behavior.
    pub health: Option<HealthOptions>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            shards: 2,
            max_queue: 1024,
            coalesce_window: Duration::from_millis(2),
            verify: VerifyPolicy::Off,
            retry_budget: 0,
            fault_plan: None,
            rate_limit: None,
            shed_threshold: 1.0,
            health: None,
        }
    }
}

/// Identifies one registered tenant: a `(params, layout)` configuration
/// with its own admission state (fair-queue lane, rate-limit bucket,
/// metrics slice). Its requests run on the engine of its
/// configuration, which every tenant of that configuration shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The raw id (as reported in [`BpNttError::UnknownTenant`]).
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a tenant id from its raw value — the inverse of
    /// [`Self::raw`], used by front-ends that carry tenant ids over a
    /// wire. An id that was never registered with the target service
    /// fails its submission typed with [`BpNttError::UnknownTenant`];
    /// nothing else distinguishes a forged id from a stale one.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        TenantId(raw)
    }
}

/// Shared completion slot behind one [`Ticket`]: the dispatcher's send
/// side stores the result, wakes a parked [`Ticket::wait`] through the
/// condvar, and wakes a pending async task through the registered waker.
#[derive(Debug, Default)]
struct Completion {
    state: Mutex<CompletionState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct CompletionState {
    result: Option<Result<Vec<u64>, BpNttError>>,
    waker: Option<std::task::Waker>,
    /// Set when the send side is gone (result delivered, or dispatcher
    /// exited without answering).
    sender_gone: bool,
    /// Set by [`Ticket::cancel`] or the ticket's drop: the waiter is
    /// gone, so the dispatcher sheds the request instead of executing it
    /// (and an all-cancelled wave group aborts mid-flight).
    cancelled: bool,
    /// Set when a local [`Ticket::wait_timeout`] observed the request
    /// deadline pass: the ticket already resolved to `DeadlineExpired`,
    /// so a late wave result is discarded rather than delivered twice.
    expired: bool,
}

impl CompletionState {
    /// Takes the terminal outcome, if any: the result (at most once), or
    /// `ServiceShutdown` once the sender is gone.
    fn take_outcome(&mut self) -> Option<Result<Vec<u64>, BpNttError>> {
        if self.expired {
            // The local deadline already resolved this ticket; a result
            // that arrived late is discarded, and the slot reads as
            // spent.
            self.result = None;
            return self.sender_gone.then_some(Err(BpNttError::ServiceShutdown));
        }
        match self.result.take() {
            Some(r) => Some(r),
            None if self.sender_gone => Some(Err(BpNttError::ServiceShutdown)),
            None => None,
        }
    }
}

/// The dispatcher-held send side of one ticket. Dropping it without
/// [`TicketSender::send`] (dispatcher exit) resolves the ticket to
/// [`BpNttError::ServiceShutdown`].
#[derive(Debug)]
pub(crate) struct TicketSender(Arc<Completion>);

impl TicketSender {
    fn send(self, r: Result<Vec<u64>, BpNttError>) {
        self.0.state.lock().expect("ticket state poisoned").result = Some(r);
        // Drop wakes both kinds of waiters.
    }

    /// Whether the receiving ticket was cancelled (dropped, explicitly
    /// cancelled, or locally expired) — the dispatcher's shed probe.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0
            .state
            .lock()
            .expect("ticket state poisoned")
            .cancelled
    }
}

impl Drop for TicketSender {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.0.state.lock().expect("ticket state poisoned");
            st.sender_gone = true;
            st.waker.take()
        };
        self.0.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Completion handle for one submitted request.
///
/// The result arrives through a dedicated completion slot once the
/// dispatcher's wave completes, and is yielded **at most once**: after
/// [`Ticket::try_wait`], [`Ticket::wait_timeout`], or an `.await` has
/// returned the result, later polls of the same ticket report
/// [`BpNttError::ServiceShutdown`] (the slot is spent), not the result
/// again. Dropping the ticket **cancels** the request: a request still
/// queued is shed typed ([`BpNttError::Cancelled`]) instead of spending
/// a lane, and a wave whose every waiter is gone aborts mid-flight — the
/// behavior a disconnecting network client needs. Use [`Ticket::cancel`]
/// to cancel while keeping the handle.
///
/// `Ticket` implements [`std::future::Future`] (waker wiring on the
/// completion slot), so it can be `.await`ed from any executor; the
/// blocking [`Ticket::wait`] and polling [`Ticket::try_wait`] styles
/// remain for synchronous callers.
#[derive(Debug)]
pub struct Ticket {
    completion: Arc<Completion>,
    /// The request's absolute queueing deadline, mirrored from the
    /// [`Request`] so local waits clamp against it
    /// ([`Self::wait_timeout`]).
    deadline: Option<Instant>,
}

impl Ticket {
    /// Creates the connected `(ticket, sender)` pair.
    fn channel(deadline: Option<Instant>) -> (Ticket, TicketSender) {
        let completion = Arc::new(Completion::default());
        (
            Ticket {
                completion: Arc::clone(&completion),
                deadline,
            },
            TicketSender(completion),
        )
    }

    /// Cancels the request without consuming the handle: if it has not
    /// started executing, the dispatcher sheds it
    /// ([`BpNttError::Cancelled`]) instead of spending a wave lane; a
    /// mid-flight wave aborts once every request in its group is
    /// cancelled. A result that was already delivered stays readable —
    /// cancellation is advisory, not retroactive. Dropping the ticket
    /// cancels implicitly.
    pub fn cancel(&self) {
        self.completion
            .state
            .lock()
            .expect("ticket state poisoned")
            .cancelled = true;
    }

    /// Blocks until the result is ready.
    ///
    /// # Errors
    ///
    /// The request's own failure, or [`BpNttError::ServiceShutdown`] if
    /// the dispatcher exited without answering.
    pub fn wait(self) -> Result<Vec<u64>, BpNttError> {
        let mut st = self.completion.state.lock().expect("ticket state poisoned");
        loop {
            if let Some(outcome) = st.take_outcome() {
                return outcome;
            }
            st = self.completion.cv.wait(st).expect("ticket state poisoned");
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    /// One synchronous integration point — or just `.await` the ticket.
    pub fn try_wait(&self) -> Option<Result<Vec<u64>, BpNttError>> {
        self.completion
            .state
            .lock()
            .expect("ticket state poisoned")
            .take_outcome()
    }

    /// Blocks up to `timeout`, clamped against the request's own
    /// deadline; `None` on a plain timeout. A wait that reaches the
    /// *deadline* with no result resolves typed —
    /// `Some(Err(`[`BpNttError::DeadlineExpired`]`))` — instead of making
    /// the caller poll past its own deadline, and marks the ticket
    /// cancelled so the dispatcher sheds the request rather than
    /// computing a result nobody will read.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<u64>, BpNttError>> {
        let mut until = Instant::now() + timeout;
        if let Some(d) = self.deadline {
            until = until.min(d);
        }
        let mut st = self.completion.state.lock().expect("ticket state poisoned");
        loop {
            if let Some(outcome) = st.take_outcome() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= until {
                if let Some(d) = self.deadline {
                    if now >= d {
                        st.expired = true;
                        st.cancelled = true;
                        let late_ms = now.saturating_duration_since(d).as_millis() as u64;
                        return Some(Err(BpNttError::DeadlineExpired { late_ms }));
                    }
                }
                return None;
            }
            let (guard, _) = self
                .completion
                .cv
                .wait_timeout(st, until - now)
                .expect("ticket state poisoned");
            st = guard;
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // The waiter is gone: let the dispatcher shed the request (or
        // abort an all-cancelled wave) instead of computing into a slot
        // nobody reads. Harmless after delivery — the flag is only
        // consulted for work not yet resolved.
        self.cancel();
    }
}

impl std::future::Future for Ticket {
    type Output = Result<Vec<u64>, BpNttError>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let mut st = self.completion.state.lock().expect("ticket state poisoned");
        if let Some(outcome) = st.take_outcome() {
            return std::task::Poll::Ready(outcome);
        }
        // Keep only the latest waker (`Waker::will_wake` avoids a clone
        // when the same task polls repeatedly).
        match &mut st.waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            slot => *slot = Some(cx.waker().clone()),
        }
        std::task::Poll::Pending
    }
}

type Reply<T> = mpsc::Sender<Result<T, BpNttError>>;

/// One pipeline execution request: the spec, its input polynomials (one
/// per declared input slot, in declaration order), the execution mode,
/// and the target tenant. Built with [`PipelineRequest::new`] and the
/// `with_*` builders; `submit_forward`/`submit_polymul` construct canned
/// instances internally.
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    /// Target tenant; `None` routes to the service's default tenant.
    pub tenant: Option<TenantId>,
    /// The op-graph to execute. Must declare an output slot — a service
    /// request's result *is* the output read-back.
    pub spec: PipelineSpec,
    /// Execution mode (defaults to [`ExecMode::Replay`], the production
    /// path; [`ExecMode::Generic`] exists for equivalence auditing).
    pub mode: ExecMode,
    /// One polynomial per input slot the spec declares.
    pub inputs: Vec<Vec<u64>>,
    /// Per-request deadline, measured from submission; `None` waits
    /// without one. A request still queued when
    /// the deadline passes resolves its ticket to
    /// [`BpNttError::DeadlineExpired`] instead of joining a wave.
    pub deadline: Option<Duration>,
}

impl PipelineRequest {
    /// A replay-mode request for the default tenant.
    #[must_use]
    pub fn new(spec: PipelineSpec, inputs: Vec<Vec<u64>>) -> Self {
        PipelineRequest {
            tenant: None,
            spec,
            mode: ExecMode::Replay,
            inputs,
            deadline: None,
        }
    }

    /// Routes the request to a specific tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Overrides the execution mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Bounds how long this request may wait in the queue.
    /// `Duration::ZERO` expires the request on the dispatcher's first
    /// look — useful for probing.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A registered RNS tenant group ([`NttService::add_rns_tenant`]): one
/// limb tenant per residue prime of the basis, all sharing one array
/// geometry. Cheap to clone (the basis is shared behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct RnsHandle {
    basis: Arc<RnsBasis>,
    limbs: Vec<TenantId>,
}

impl RnsHandle {
    /// The residue basis this group decomposes against.
    #[must_use]
    pub fn basis(&self) -> &Arc<RnsBasis> {
        &self.basis
    }

    /// The per-limb tenant ids, in basis prime order. Useful for
    /// steering per-limb chaos (fault plans) or reading per-tenant
    /// metric slices.
    #[must_use]
    pub fn limb_tenants(&self) -> &[TenantId] {
        &self.limbs
    }

    /// Number of residue limbs (tenants) in the group.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.limbs.len()
    }
}

/// One big-modulus pipeline request ([`NttService::submit_rns`]): the
/// op-graph runs once per residue limb over the limb decomposition of
/// the big-integer inputs, and the limb outputs CRT-reconstruct into
/// coefficients mod `Q`.
#[derive(Debug, Clone)]
pub struct RnsRequest {
    /// The op-graph to execute on every limb. Must declare an output
    /// slot and at least one input slot, like any service pipeline.
    pub spec: PipelineSpec,
    /// Execution mode (defaults to [`ExecMode::Replay`]).
    pub mode: ExecMode,
    /// One big-integer polynomial per input slot, each of the basis
    /// degree `n` with coefficients reduced mod `Q`.
    pub inputs: Vec<Vec<BigUint>>,
    /// Per-request deadline, as [`PipelineRequest::deadline`]. Applies
    /// to every limb of the group.
    pub deadline: Option<Duration>,
}

impl RnsRequest {
    /// A replay-mode request.
    #[must_use]
    pub fn new(spec: PipelineSpec, inputs: Vec<Vec<BigUint>>) -> Self {
        RnsRequest {
            spec,
            mode: ExecMode::Replay,
            inputs,
            deadline: None,
        }
    }

    /// A negacyclic polynomial multiplication `a ⊛ b mod (x^n + 1, Q)`
    /// — the canned [`PipelineSpec::polymul`] per limb.
    #[must_use]
    pub fn polymul(a: Vec<BigUint>, b: Vec<BigUint>) -> Self {
        Self::new(PipelineSpec::polymul(), vec![a, b])
    }

    /// Overrides the execution mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Bounds how long the limb group may wait in the queue.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A claim on an in-flight RNS limb group: one [`Ticket`] per limb plus
/// the basis to CRT-reconstruct the limb outputs.
#[derive(Debug)]
pub struct RnsTicket {
    tickets: Vec<Ticket>,
    basis: Arc<RnsBasis>,
}

impl RnsTicket {
    /// Number of limb tickets in the group.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.tickets.len()
    }

    /// Cancels every limb of the group (best-effort, as
    /// [`Ticket::cancel`]).
    pub fn cancel(&self) {
        for t in &self.tickets {
            t.cancel();
        }
    }

    /// Blocks until every limb resolves, then CRT-reconstructs the
    /// big-integer result.
    ///
    /// # Errors
    ///
    /// The first limb failure (in limb order) — a limb that fails
    /// recovery fails its ticket exactly as a single-prime request
    /// would — or an [`BpNttError::Rns`] reconstruction defect.
    pub fn wait(self) -> Result<RnsResult, BpNttError> {
        let mut limbs = Vec::with_capacity(self.tickets.len());
        for t in self.tickets {
            limbs.push(t.wait()?);
        }
        let coefficients = self.basis.reconstruct_poly(&limbs)?;
        Ok(RnsResult {
            limbs,
            coefficients,
        })
    }
}

/// A completed RNS request: the raw per-limb residue outputs and their
/// CRT reconstruction mod `Q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsResult {
    /// Limb-major residue outputs: `limbs[i][k]` is output coefficient
    /// `k` mod `q_i`, in basis prime order.
    pub limbs: Vec<Vec<u64>>,
    /// The reconstructed output polynomial, coefficients in `0..Q`.
    pub coefficients: Vec<BigUint>,
}

/// One queued (validated) request. Control requests (tenant
/// registration) travel on a separate lane so data-plane coalescing
/// never delays them.
pub(crate) struct Request {
    pub(crate) tenant: TenantId,
    spec: PipelineSpec,
    mode: ExecMode,
    inputs: Vec<Vec<u64>>,
    pub(crate) reply: TicketSender,
    /// Absolute expiry instant (resolved at submission from the
    /// request's own deadline).
    pub(crate) deadline: Option<Instant>,
    /// Deficit-round-robin cost: operand payload bytes (8 per
    /// coefficient, floored so even tiny requests spend deficit).
    pub(crate) cost: u64,
    /// When the request entered the queue: the coalescing window runs
    /// from the oldest queued admission
    /// ([`FairQueue::coalesce_deadline`]).
    pub(crate) admitted: Instant,
    /// Part of an RNS limb group ([`NttService::submit_rns`]): admission
    /// counts the group in the `rns_*` counters, and a wave round holding
    /// it in the `rns_fanout_*` ones — scheduling does not read it.
    pub(crate) rns: bool,
}

impl Request {
    /// A request entering admission now, and the ticket its result
    /// resolves.
    fn new(
        tenant: TenantId,
        spec: PipelineSpec,
        mode: ExecMode,
        inputs: Vec<Vec<u64>>,
        deadline: Option<Instant>,
        rns: bool,
    ) -> (Ticket, Request) {
        let (ticket, reply) = Ticket::channel(deadline);
        let cost = inputs
            .iter()
            .map(|p| p.len() as u64 * 8)
            .sum::<u64>()
            .max(64);
        let request = Request {
            tenant,
            spec,
            mode,
            inputs,
            reply,
            deadline,
            cost,
            admitted: Instant::now(),
            rns,
        };
        (ticket, request)
    }
}

enum Control {
    AddTenant {
        config: Box<BpNttConfig>,
        reply: Reply<TenantId>,
    },
    /// Scrubber tick: run one scrub pass over every engine and
    /// publish the harvested health counters. At most one is queued at
    /// a time — ticks never pile up behind a slow wave.
    Scrub,
    /// Test-only: panic the dispatcher mid-loop, exercising the
    /// watchdog respawn path.
    #[cfg(test)]
    Crash,
}

/// What submit-side validation needs to know about a tenant without
/// touching the dispatcher-owned engine: the NTT parameters and the
/// layout every spec is checked against.
#[derive(Debug, Clone)]
pub(crate) struct TenantInfo {
    n: usize,
    q: u64,
    layout: Layout,
}

/// Queue state guarded by the service mutex.
pub(crate) struct QueueState {
    pub(crate) queue: FairQueue,
    control: VecDeque<Control>,
    pub(crate) shutdown: bool,
    /// With `shutdown`: fail queued requests typed instead of draining
    /// them through waves ([`NttService::shutdown_now`]).
    abort: bool,
}

/// Dispatcher-side counters behind their own lock (snapshots never block
/// the queue): the reported snapshot itself, counted into directly, and
/// the accumulators its derived fields are computed from.
#[derive(Default)]
pub(crate) struct MetricsState {
    /// Every reported counter; [`NttService::metrics`] clones it and
    /// fills in the derived fields. Request outcomes are counted only in
    /// the tenant slices; the service-wide totals are their sums.
    pub(crate) snap: ServiceMetrics,
    /// Sum of per-wave fill ratios (`wave_occupancy` = sum / waves).
    occupancy_sum: f64,
    /// Recent per-shard wall-clock samples (the `shard_secs_*`
    /// percentiles).
    shard_secs: VecDeque<f64>,
    /// Occupancy accumulator over RNS fan-out rounds: busy lanes across
    /// every engine of the round / the round's total lane capacity.
    rns_fanout_occupancy_sum: f64,
    /// EWMA of the dispatcher's recent drain rate (requests per second),
    /// the basis of the `retry_after_ms` back-off hints.
    pub(crate) drain_rate: f64,
}

impl MetricsState {
    /// The tenant's counter slice, inserted zeroed on first use (the
    /// snapshot's `per_tenant` stays sorted by id).
    pub(crate) fn tenant(&mut self, t: TenantId) -> &mut TenantMetrics {
        let slices = &mut self.snap.per_tenant;
        let i = slices
            .binary_search_by_key(&t.0, |m| m.tenant)
            .unwrap_or_else(|i| {
                let zeroed = TenantMetrics {
                    tenant: t.0,
                    ..TenantMetrics::default()
                };
                slices.insert(i, zeroed);
                i
            });
        &mut slices[i]
    }
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<QueueState>,
    pub(crate) cv: Condvar,
    pub(crate) tenants: Mutex<HashMap<TenantId, TenantInfo>>,
    pub(crate) metrics: Mutex<MetricsState>,
    /// Per-tenant token buckets (populated lazily on first submission).
    pub(crate) buckets: Mutex<HashMap<TenantId, TokenBucket>>,
    pub(crate) max_queue: usize,
    coalesce_window: Duration,
    recovery: RecoveryOptions,
    fault_plan: Option<FaultPlan>,
    pub(crate) rate_limit: Option<RateLimit>,
    pub(crate) shed_threshold: f64,
    /// The compiled-artifact cache every engine compiles through.
    /// It lives here, not on the dispatcher's stack, so a respawned
    /// dispatcher rebuilds its engines without recompiling.
    artifacts: Arc<ArtifactCache>,
    /// Self-healing knobs; `Some` arms the scrubber and watchdog.
    health: Option<HealthOptions>,
    /// Shards per configuration engine (the dispatcher needs it to
    /// rebuild engines after a watchdog respawn).
    shards: usize,
    /// The dispatcher's join handle, held shared so the watchdog can
    /// detect its death and replace it.
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    /// The scrubber's join handle, supervised the same way.
    scrubber: Mutex<Option<JoinHandle<()>>>,
    /// Every registered tenant's full configuration, in registration
    /// order — what a respawned dispatcher needs to rebuild one engine
    /// per configuration and route each tenant to it under its original
    /// id.
    registry: Mutex<Vec<(TenantId, BpNttConfig)>>,
    /// Test-only: a barrier every group reaches before its engine call,
    /// proving groups of one round overlap.
    #[cfg(test)]
    group_hook: Mutex<Option<Arc<std::sync::Barrier>>>,
}

#[cfg(test)]
impl Shared {
    fn reach_group_hook(&self) {
        let hook = self.group_hook.lock().expect("group hook poisoned").clone();
        if let Some(barrier) = hook {
            barrier.wait();
        }
    }
}

/// The async-capable request-queue service over per-configuration
/// [`ShardedBpNtt`] engines. See the [module docs](self) for the design
/// and an example.
///
/// All submission methods take `&self`, so one service instance can be
/// shared across client threads (e.g. behind an `Arc` or borrowed into
/// `std::thread::scope`). Dropping the service shuts the dispatcher down
/// after it drains the queue.
#[derive(Debug)]
pub struct NttService {
    shared: Arc<Shared>,
    /// The watchdog's handle (only under [`ServiceOptions::health`]).
    /// The dispatcher and scrubber handles live in [`Shared`], where the
    /// watchdog can replace them.
    watchdog: Option<JoinHandle<()>>,
    default_tenant: TenantId,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("max_queue", &self.max_queue)
            .field("coalesce_window", &self.coalesce_window)
            .finish_non_exhaustive()
    }
}

impl NttService {
    /// Starts the dispatcher and registers `config` as the default
    /// tenant (its programs are compiled now, not on the first request).
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidShardCount`] for zero shards; otherwise
    /// whatever tenant registration reports (engine construction or
    /// program compilation failures).
    pub fn start(config: &BpNttConfig, opts: ServiceOptions) -> Result<Self, BpNttError> {
        if opts.shards == 0 {
            return Err(BpNttError::InvalidShardCount { shards: 0 });
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: FairQueue::new(DRR_QUANTUM),
                control: VecDeque::new(),
                shutdown: false,
                abort: false,
            }),
            cv: Condvar::new(),
            tenants: Mutex::new(HashMap::new()),
            metrics: Mutex::new(MetricsState {
                snap: ServiceMetrics {
                    queue_capacity: opts.max_queue,
                    ..ServiceMetrics::default()
                },
                ..MetricsState::default()
            }),
            buckets: Mutex::new(HashMap::new()),
            max_queue: opts.max_queue,
            coalesce_window: opts.coalesce_window,
            recovery: RecoveryOptions {
                verify: opts.verify,
                retry_budget: opts.retry_budget,
                // An active ladder always keeps its last rung: the whole
                // point of verifying service output is never returning a
                // corrupted polynomial, and the software reference is
                // what guarantees an answer once the array is distrusted.
                software_fallback: opts.verify.is_active() || opts.retry_budget > 0,
            },
            fault_plan: opts.fault_plan.clone(),
            rate_limit: opts.rate_limit,
            shed_threshold: opts.shed_threshold,
            artifacts: Arc::default(),
            health: opts.health,
            shards: opts.shards,
            dispatcher: Mutex::new(None),
            scrubber: Mutex::new(None),
            registry: Mutex::new(Vec::new()),
            #[cfg(test)]
            group_hook: Mutex::new(None),
        });
        *shared
            .dispatcher
            .lock()
            .expect("dispatcher handle poisoned") = Some(spawn_dispatcher(&shared));
        let mut watchdog = None;
        if let Some(h) = opts.health {
            *shared.scrubber.lock().expect("scrubber handle poisoned") =
                Some(spawn_scrubber(&shared, h));
            watchdog = Some(spawn_watchdog(&shared));
        }
        let mut service = NttService {
            shared,
            watchdog,
            default_tenant: TenantId(0),
        };
        service.default_tenant = service.add_tenant(config)?;
        Ok(service)
    }

    /// Registers another tenant configuration and resolves its canned
    /// pipelines. The first tenant of a configuration builds that
    /// configuration's sharded engine and compiles; a later one shares
    /// the engine, builds nothing and only looks the pipelines up.
    ///
    /// # Errors
    ///
    /// Engine construction / program compilation failures, or
    /// [`BpNttError::ServiceShutdown`] after shutdown.
    pub fn add_tenant(&self, config: &BpNttConfig) -> Result<TenantId, BpNttError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            if st.shutdown {
                return Err(BpNttError::ServiceShutdown);
            }
            st.control.push_back(Control::AddTenant {
                config: Box::new(config.clone()),
                reply: tx,
            });
        }
        self.shared.cv.notify_all();
        rx.recv().unwrap_or(Err(BpNttError::ServiceShutdown))
    }

    /// The tenant registered by [`Self::start`].
    #[must_use]
    pub fn default_tenant(&self) -> TenantId {
        self.default_tenant
    }

    /// Submits one forward NTT for the default tenant.
    ///
    /// # Errors
    ///
    /// Validation failures ([`BpNttError::WrongLength`] /
    /// [`BpNttError::Unreduced`]), [`BpNttError::Overloaded`] under
    /// backpressure, [`BpNttError::ServiceShutdown`] after shutdown.
    pub fn submit_forward(&self, poly: Vec<u64>) -> Result<Ticket, BpNttError> {
        self.submit_forward_as(self.default_tenant, poly)
    }

    /// Submits one forward NTT for a specific tenant — the canned
    /// [`PipelineSpec::forward_ntt`] over [`Self::submit_pipeline`].
    ///
    /// # Errors
    ///
    /// As [`Self::submit_forward`], plus [`BpNttError::UnknownTenant`].
    pub fn submit_forward_as(
        &self,
        tenant: TenantId,
        poly: Vec<u64>,
    ) -> Result<Ticket, BpNttError> {
        self.submit_pipeline(
            PipelineRequest::new(PipelineSpec::forward_ntt(), vec![poly]).with_tenant(tenant),
        )
    }

    /// Submits one negacyclic polynomial multiplication (`a ⊛ b`) for
    /// the default tenant — the canned [`PipelineSpec::polymul`] over
    /// [`Self::submit_pipeline`].
    ///
    /// # Errors
    ///
    /// As [`Self::submit_forward`], plus
    /// [`BpNttError::CapacityExceeded`] when the tenant's layout cannot
    /// host two operands on one tile.
    pub fn submit_polymul(&self, a: Vec<u64>, b: Vec<u64>) -> Result<Ticket, BpNttError> {
        self.submit_polymul_as(self.default_tenant, a, b)
    }

    /// Submits one polynomial multiplication for a specific tenant.
    ///
    /// # Errors
    ///
    /// As [`Self::submit_polymul`], plus [`BpNttError::UnknownTenant`].
    pub fn submit_polymul_as(
        &self,
        tenant: TenantId,
        a: Vec<u64>,
        b: Vec<u64>,
    ) -> Result<Ticket, BpNttError> {
        self.submit_pipeline(
            PipelineRequest::new(PipelineSpec::polymul(), vec![a, b]).with_tenant(tenant),
        )
    }

    /// Submits one pipeline op-graph execution. The request is validated
    /// **at submit time** against the tenant's registered parameters —
    /// spec sanity and slot capacity ([`PipelineSpec::check`]), an
    /// output-slot requirement, input count against the spec's declared
    /// input slots, and every polynomial's length (`params.n`) and
    /// coefficient reduction — so a malformed request fails here with a
    /// typed error instead of poisoning the coalesced wave it would have
    /// joined. Requests coalesce into waves per `(engine, spec, mode)`
    /// group; identical specs from different clients — and from
    /// different tenants of one configuration — batch into one sharded
    /// pipeline call.
    ///
    /// # Errors
    ///
    /// [`BpNttError::UnknownTenant`], [`BpNttError::InvalidPipeline`]
    /// (graph defects, missing output, input-count mismatch),
    /// [`BpNttError::CapacityExceeded`], [`BpNttError::WrongLength`] /
    /// [`BpNttError::Unreduced`] per polynomial,
    /// [`BpNttError::Overloaded`] under backpressure, and
    /// [`BpNttError::ServiceShutdown`] after shutdown.
    pub fn submit_pipeline(&self, req: PipelineRequest) -> Result<Ticket, BpNttError> {
        let PipelineRequest {
            tenant,
            spec,
            mode,
            inputs,
            deadline,
        } = req;
        let tenant = tenant.unwrap_or(self.default_tenant);
        let info = self.validate(&spec, inputs.len(), &[tenant])?;
        for poly in &inputs {
            validate_poly(&info, poly)?;
        }
        let deadline = deadline.map(|d| Instant::now() + d);
        let (ticket, request) = Request::new(tenant, spec, mode, inputs, deadline, false);
        admit(&self.shared, [request])?;
        Ok(ticket)
    }

    /// Registers an RNS tenant group: one limb tenant per residue prime
    /// of `basis`, all with the same array geometry (`rows × cols`,
    /// `bitwidth`-bit words). Limb tenants whose configurations collide
    /// (e.g. two RNS groups over the same basis) share one engine per
    /// limb, not just compiled artifacts: the groups' limb requests fill
    /// lanes of the same limb waves.
    ///
    /// # Errors
    ///
    /// Per-limb configuration failures ([`BpNttError::NoHeadroom`] when
    /// a basis prime does not fit `bitwidth`-bit words,
    /// [`BpNttError::CapacityExceeded`], ...), plus everything
    /// [`Self::add_tenant`] can return.
    pub fn add_rns_tenant(
        &self,
        rows: usize,
        cols: usize,
        bitwidth: usize,
        basis: &Arc<RnsBasis>,
    ) -> Result<RnsHandle, BpNttError> {
        let mut limbs = Vec::with_capacity(basis.limbs());
        for params in basis.params() {
            let config = BpNttConfig::new(rows, cols, bitwidth, params.clone())?;
            limbs.push(self.add_tenant(&config)?);
        }
        Ok(RnsHandle {
            basis: Arc::clone(basis),
            limbs,
        })
    }

    /// Submits one big-modulus pipeline execution over an RNS tenant
    /// group. The big-integer inputs decompose into one residue
    /// polynomial per limb at submit time (validating degree and
    /// reduction mod `Q`); the limb requests enqueue **atomically** as
    /// one wave-coherent group, so the dispatcher picks them up in the
    /// same wave and fans them out concurrently across the limb
    /// configurations' engines. The returned [`RnsTicket`] resolves to
    /// the per-limb outputs plus their CRT reconstruction.
    ///
    /// Fault tolerance is per limb: a corrupted limb walks the ordinary
    /// detect → retry → quarantine → degrade ladder on its limb's engine
    /// and heals (or fails) before reconstruction ever sees it.
    ///
    /// # Errors
    ///
    /// [`BpNttError::InvalidPipeline`] (graph defects, missing output,
    /// input-count mismatch), [`BpNttError::Rns`] (wrong degree /
    /// unreduced coefficients), [`BpNttError::UnknownTenant`] for a
    /// stale handle, [`BpNttError::Overloaded`] /
    /// [`BpNttError::RateLimited`] under backpressure (the whole group
    /// is admitted or shed — never a partial limb set), and
    /// [`BpNttError::ServiceShutdown`] after shutdown.
    pub fn submit_rns(&self, handle: &RnsHandle, req: RnsRequest) -> Result<RnsTicket, BpNttError> {
        let RnsRequest {
            spec,
            mode,
            inputs,
            deadline,
        } = req;
        // The spec must hold under every limb modulus (scale factors
        // etc. are checked against each q_i) and the shared layout.
        self.validate(&spec, inputs.len(), &handle.limbs)?;
        // Decompose slot-by-slot into limb-major residues; this is also
        // where degree and mod-Q reduction are enforced.
        let mut limb_inputs: Vec<Vec<Vec<u64>>> =
            vec![Vec::with_capacity(inputs.len()); handle.limbs.len()];
        for poly in &inputs {
            for (limb, residues) in handle.basis.decompose_poly(poly)?.into_iter().enumerate() {
                limb_inputs[limb].push(residues);
            }
        }
        let deadline = deadline.map(|d| Instant::now() + d);
        let (tickets, requests): (Vec<Ticket>, Vec<Request>) = handle
            .limbs
            .iter()
            .zip(limb_inputs)
            .map(|(&tenant, inputs)| {
                Request::new(tenant, spec.clone(), mode, inputs, deadline, true)
            })
            .unzip();
        admit(&self.shared, requests)?;
        Ok(RnsTicket {
            tickets,
            basis: Arc::clone(&handle.basis),
        })
    }

    /// Snapshots the service counters.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let (queue_depth, tenant_depths) = {
            let st = self.shared.state.lock().expect("service state poisoned");
            (st.queue.len(), st.queue.depths())
        };
        let m = self.shared.metrics.lock().expect("metrics poisoned");
        let mut sorted: Vec<f64> = m.shard_secs.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("shard secs are finite"));
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let mut out = m.snap.clone();
        out.queue_depth = queue_depth;
        out.wave_occupancy = mean(m.occupancy_sum, out.waves);
        out.polys_per_sec = if out.busy_secs > 0.0 {
            out.wave_polys as f64 / out.busy_secs
        } else {
            0.0
        };
        out.shard_secs_p50 = percentile(&sorted, 0.50);
        out.shard_secs_p90 = percentile(&sorted, 0.90);
        out.shard_secs_max = sorted.last().copied().unwrap_or(0.0);
        let artifacts = &self.shared.artifacts;
        out.pipeline_cache_entries = artifacts.entries();
        out.pipeline_cache_hits = artifacts.hits();
        out.pipeline_compile_ms = artifacts.compile_secs() * 1e3;
        out.rns_fanout_occupancy = mean(m.rns_fanout_occupancy_sum, out.rns_fanout_waves);
        // Outcome totals are sums of the tenant slices, taken under the
        // metrics lock, so they agree with the slices in every snapshot.
        for t in &mut out.per_tenant {
            t.queued = tenant_depths.get(&TenantId(t.tenant)).copied().unwrap_or(0);
            out.submitted += t.submitted;
            out.rejected += t.shed;
            out.completed += t.completed;
            out.failed += t.failed;
            out.deadline_expired += t.deadline_expired;
            out.cancelled += t.cancelled;
        }
        out
    }

    /// Shuts the dispatcher down after it drains every queued request
    /// (drain mode), and returns the final metrics snapshot. Results
    /// already produced remain readable from their tickets.
    #[must_use = "the final metrics snapshot is the service's exit report"]
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.shutdown_inner();
        self.metrics()
    }

    /// Shuts down **now**: the wave currently executing completes (and
    /// its tickets resolve normally), but requests still queued fail
    /// typed with [`BpNttError::ServiceShutdown`] instead of draining
    /// through waves — no blocked [`Ticket::wait`] hangs, no queued work
    /// executes. Returns the final metrics snapshot.
    #[must_use = "the final metrics snapshot is the service's exit report"]
    pub fn shutdown_now(mut self) -> ServiceMetrics {
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.shutdown = true;
            st.abort = true;
        }
        self.shared.cv.notify_all();
        self.join_threads();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        self.join_threads();
    }

    /// Joins every service thread after the shutdown flag is up. The
    /// watchdog goes first, so no respawn can race the joins below; all
    /// joins tolerate a panicked thread (this runs from Drop, where a
    /// second panic would abort the process and swallow the original
    /// panic message — outstanding tickets already observe the failure
    /// typed).
    fn join_threads(&mut self) {
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
        let dispatcher = self
            .shared
            .dispatcher
            .lock()
            .expect("dispatcher handle poisoned")
            .take();
        if let Some(handle) = dispatcher {
            let _ = handle.join();
        }
        let scrubber = self
            .shared
            .scrubber
            .lock()
            .expect("scrubber handle poisoned")
            .take();
        if let Some(handle) = scrubber {
            let _ = handle.join();
        }
    }

    /// Test-only: make the dispatcher panic on its next control pop,
    /// exercising the drain guard and the watchdog respawn path.
    #[cfg(test)]
    fn crash_dispatcher(&self) {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        st.control.push_back(Control::Crash);
        drop(st);
        self.shared.cv.notify_all();
    }

    fn tenant_info(&self, tenant: TenantId) -> Result<TenantInfo, BpNttError> {
        self.shared
            .tenants
            .lock()
            .expect("tenant map poisoned")
            .get(&tenant)
            .cloned()
            .ok_or(BpNttError::UnknownTenant { tenant: tenant.0 })
    }

    /// The checks every submission passes before admission: the spec
    /// declares an output slot and at least one input slot, `inputs`
    /// polynomials fill those slots, and the spec holds under each target
    /// tenant's layout and modulus ([`PipelineSpec::check`]). Returns the
    /// first tenant's parameters.
    fn validate(
        &self,
        spec: &PipelineSpec,
        inputs: usize,
        tenants: &[TenantId],
    ) -> Result<TenantInfo, BpNttError> {
        if spec.output_slot().is_none() {
            return Err(BpNttError::InvalidPipeline {
                reason: "service pipelines must declare an output slot".into(),
            });
        }
        if spec.input_slots().is_empty() {
            // Resident (no-input) graphs are an engine-level feature; the
            // sharded work-stealing dispatcher has no stable chunk→shard
            // assignment for on-array state to survive between requests.
            return Err(BpNttError::InvalidPipeline {
                reason: "service pipelines must declare at least one input slot".into(),
            });
        }
        if inputs != spec.input_slots().len() {
            return Err(BpNttError::InvalidPipeline {
                reason: format!(
                    "spec declares {} input slot(s) but {inputs} polynomial(s) were supplied",
                    spec.input_slots().len(),
                ),
            });
        }
        let mut lead = None;
        for &tenant in tenants {
            let info = self.tenant_info(tenant)?;
            spec.check(&info.layout, info.q)?;
            lead.get_or_insert(info);
        }
        Ok(lead.expect("a submission targets at least one tenant"))
    }
}

impl Drop for NttService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Rejects wrong-length and unreduced polynomials at submission time, so
/// a malformed request fails its own submission instead of poisoning the
/// coalesced wave it would have joined.
fn validate_poly(info: &TenantInfo, poly: &[u64]) -> Result<(), BpNttError> {
    if poly.len() != info.n {
        return Err(BpNttError::WrongLength {
            expected: info.n,
            actual: poly.len(),
        });
    }
    if let Some((index, &value)) = poly.iter().enumerate().find(|(_, &v)| v >= info.q) {
        return Err(BpNttError::Unreduced {
            lane: 0,
            index,
            value,
        });
    }
    Ok(())
}

fn tenant_info_of(config: &BpNttConfig) -> TenantInfo {
    TenantInfo {
        n: config.params().n(),
        q: config.params().modulus(),
        layout: config.layout().clone(),
    }
}

/// One `(engine, spec, mode)` group of a drained wave, executed as a
/// single sharded pipeline call. `slots` is slot-major: one batch per
/// input slot the spec declares.
struct WaveGroup {
    engine: ConfigFingerprint,
    spec: PipelineSpec,
    mode: ExecMode,
    slots: Vec<Vec<Vec<u64>>>,
    /// One `(tenant, reply)` per lane, in lane order: tenants of one
    /// configuration share the group, and each result and counter goes
    /// to its request's own tenant.
    replies: Vec<(TenantId, TicketSender)>,
    /// Any member request was an RNS limb: a round holding such a group
    /// counts toward the `rns_fanout_*` metrics.
    rns: bool,
}

/// Dispatcher drop guard: however the dispatcher thread exits — normal
/// drain-mode shutdown (queue already empty), abort-mode shutdown (queue
/// deliberately left populated), or a panic unwinding out of a wave —
/// every request still queued resolves typed. This is the guarantee
/// that a blocked [`Ticket::wait`] can never hang forever on a dead
/// dispatcher.
///
/// The flavor depends on supervision: an unsupervised exit (or any
/// clean shutdown) marks the service shut down and fails the queue with
/// [`BpNttError::ServiceShutdown`]; a **panic under an armed watchdog**
/// fails the queue with [`BpNttError::DispatcherRestarted`] and leaves
/// the shutdown flag alone, so the respawned dispatcher keeps serving
/// new submissions.
struct QueueDrainGuard<'a>(&'a Shared);

impl Drop for QueueDrainGuard<'_> {
    fn drop(&mut self) {
        let respawning = std::thread::panicking() && self.0.health.is_some();
        let drained: Vec<Request> = {
            // A panic while holding the state lock poisons it; the
            // senders inside are then unreachable, but so is the queue —
            // nothing more can be done from here.
            let Ok(mut st) = self.0.state.lock() else {
                return;
            };
            if !respawning {
                st.shutdown = true;
            }
            st.queue.drain_all()
        };
        if drained.is_empty() {
            return;
        }
        if let Ok(mut m) = self.0.metrics.lock() {
            for r in &drained {
                m.tenant(r.tenant).failed += 1;
            }
        }
        let err = if respawning {
            BpNttError::DispatcherRestarted
        } else {
            BpNttError::ServiceShutdown
        };
        for req in drained {
            req.reply.send(Err(err.clone()));
        }
    }
}

fn spawn_dispatcher(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("bpntt-service-dispatcher".into())
        .spawn(move || dispatcher_loop(&shared))
        .expect("spawn service dispatcher")
}

/// The scrubber thread: on every tick, enqueue one [`Control::Scrub`]
/// for the dispatcher (which owns the engines) and wake it. The
/// tick is the finer of the probe and patrol intervals; a deadline (not
/// a plain `wait_timeout` restart) keeps submission-notify traffic from
/// starving the tick.
fn spawn_scrubber(shared: &Arc<Shared>, opts: HealthOptions) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let tick = opts
        .probe_interval
        .min(opts.patrol_interval)
        .max(Duration::from_millis(1));
    std::thread::Builder::new()
        .name("bpntt-service-scrubber".into())
        .spawn(move || scrubber_loop(&shared, tick))
        .expect("spawn service scrubber")
}

fn scrubber_loop(shared: &Shared, tick: Duration) {
    let mut next = Instant::now() + tick;
    loop {
        {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                let now = Instant::now();
                if now >= next {
                    break;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, next - now)
                    .expect("service state poisoned");
                st = guard;
            }
            if !st.control.iter().any(|c| matches!(c, Control::Scrub)) {
                st.control.push_back(Control::Scrub);
            }
        }
        shared.cv.notify_all();
        next = Instant::now() + tick;
    }
}

/// How often the watchdog checks its wards' pulses.
const WATCHDOG_TICK: Duration = Duration::from_millis(10);

fn spawn_watchdog(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("bpntt-service-watchdog".into())
        .spawn(move || watchdog_loop(&shared))
        .expect("spawn service watchdog")
}

fn watchdog_loop(shared: &Arc<Shared>) {
    loop {
        {
            let st = shared.state.lock().expect("service state poisoned");
            if st.shutdown {
                return;
            }
            let (st, _) = shared
                .cv
                .wait_timeout(st, WATCHDOG_TICK)
                .expect("service state poisoned");
            if st.shutdown {
                return;
            }
        }
        if !revive(shared, &shared.dispatcher, spawn_dispatcher) {
            return;
        }
        let spawn_scrub = |shared: &Arc<Shared>| {
            let opts = shared.health.expect("watchdog only runs supervised");
            spawn_scrubber(shared, opts)
        };
        if !revive(shared, &shared.scrubber, spawn_scrub) {
            return;
        }
    }
}

/// Respawns one supervised thread if it died. Returns `false` when the
/// service turned out to be shutting down (the watchdog should exit).
fn revive(
    shared: &Arc<Shared>,
    slot: &Mutex<Option<JoinHandle<()>>>,
    spawn: impl Fn(&Arc<Shared>) -> JoinHandle<()>,
) -> bool {
    let dead = slot
        .lock()
        .expect("thread handle poisoned")
        .as_ref()
        .is_some_and(JoinHandle::is_finished);
    if !dead {
        return true;
    }
    // Join outside the handle lock (the handle is finished, so this
    // cannot block meaningfully) to collect the panic payload.
    let handle = slot.lock().expect("thread handle poisoned").take();
    if let Some(h) = handle {
        let _ = h.join();
    }
    // A thread that exited because the service is shutting down must
    // stay down.
    if shared
        .state
        .lock()
        .expect("service state poisoned")
        .shutdown
    {
        return false;
    }
    let mut m = shared.metrics.lock().expect("metrics poisoned");
    m.snap.respawns += 1;
    drop(m);
    *slot.lock().expect("thread handle poisoned") = Some(spawn(shared));
    shared.cv.notify_all();
    true
}

/// The dispatcher's engines — one per configuration, keyed like the
/// [`ArtifactCache`] without its spec — and each tenant's route to its
/// configuration. Tenants of one configuration share one engine.
#[derive(Default)]
struct Engines {
    by_key: HashMap<ConfigFingerprint, ShardedBpNtt>,
    route: HashMap<TenantId, ConfigFingerprint>,
}

/// Adds what every engine's health counters grew by since the previous
/// harvest (`seen`, this dispatcher's last reading) to the metrics
/// snapshot, and refreshes the per-shard health states of the default
/// tenant's engine. A respawned dispatcher rebuilds its engines with
/// counters at zero and starts from a zero `seen`, so the published
/// counters never go backwards.
fn harvest_health(shared: &Shared, engines: &Engines, seen: &mut HealthCounters) {
    let mut now = HealthCounters::default();
    for engine in engines.by_key.values() {
        now.accumulate(engine.health_counters());
    }
    let shard_health: Vec<u8> = engines
        .route
        .get(&TenantId(0))
        .and_then(|key| engines.by_key.get(key))
        .map(|engine| engine.shard_health().iter().map(|s| s.as_code()).collect())
        .unwrap_or_default();
    let mut m = shared.metrics.lock().expect("metrics poisoned");
    m.snap.health.accumulate(now.since(*seen));
    m.snap.shard_health = shard_health;
    *seen = now;
}

fn dispatcher_loop(shared: &Shared) {
    let _guard = QueueDrainGuard(shared);
    let mut engines = Engines::default();
    // Rebuild one engine per distinct key in the registry and route
    // every tenant to it under its original id — a no-op on first
    // spawn (empty registry), the recovery path after a watchdog
    // respawn (every artifact is already in the shared cache, so
    // nothing recompiles). A tenant whose engine fails to rebuild stays
    // registered; its waves fail typed with `UnknownTenant`.
    let mut next_tenant: u32 = 0;
    let registry: Vec<(TenantId, BpNttConfig)> =
        shared.registry.lock().expect("registry poisoned").clone();
    for (id, config) in &registry {
        next_tenant = next_tenant.max(id.0 + 1);
        let key = ConfigFingerprint::of(config);
        engines.route.insert(*id, key);
        if let Entry::Vacant(slot) = engines.by_key.entry(key) {
            if let Ok(engine) = build_engine(shared, config) {
                slot.insert(engine);
            }
        }
    }
    shared
        .metrics
        .lock()
        .expect("metrics poisoned")
        .snap
        .engines = engines.by_key.len();
    // Requests per tenant in the last executed wave.
    let mut last_wave: HashMap<TenantId, usize> = HashMap::new();
    // These engines' health counters as last harvested.
    let mut health_seen = HealthCounters::default();
    loop {
        enum Action {
            Control(Control),
            Work,
            Exit,
        }
        let action = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if let Some(ctrl) = st.control.pop_front() {
                    break Action::Control(ctrl);
                }
                if st.shutdown && st.abort {
                    // Immediate shutdown: the drop guard fails whatever
                    // is still queued, typed.
                    break Action::Exit;
                }
                if !st.queue.is_empty() {
                    break Action::Work;
                }
                if st.shutdown {
                    break Action::Exit;
                }
                st = shared.cv.wait(st).expect("service state poisoned");
            }
        };
        match action {
            Action::Exit => break,
            Action::Control(Control::AddTenant { config, reply }) => {
                let result = register_tenant(shared, &config, &mut engines, &mut next_tenant);
                let _ = reply.send(result);
            }
            Action::Control(Control::Scrub) => {
                for engine in engines.by_key.values_mut() {
                    let _ = engine.scrub_pass();
                }
                harvest_health(shared, &engines, &mut health_seen);
            }
            #[cfg(test)]
            Action::Control(Control::Crash) => {
                panic!("dispatcher crash requested (test control)");
            }
            Action::Work => {
                // Coalesce: wait (bounded) until the queue could fill
                // every lane of the widest engine, then drain one fair
                // round of at most that many requests — a wave's worth,
                // deficit-round-robin across tenants, so a deep
                // hot-tenant backlog cannot monopolize the next wave.
                let target = engines
                    .by_key
                    .values()
                    .map(ShardedBpNtt::lanes_total)
                    .max()
                    .unwrap_or(1)
                    .min(shared.max_queue.max(1));
                let (dead, drained) = {
                    let mut st = shared.state.lock().expect("service state poisoned");
                    // Shed dead work (expired deadlines, cancelled
                    // tickets) from the whole queue first, so it neither
                    // joins this wave nor blocks live requests behind it.
                    let started = Instant::now();
                    let mut dead = st.queue.remove_dead(started);
                    // Dead work resolves before any coalescing wait, not
                    // one window later; the queue is then looked at anew.
                    while dead.is_empty()
                        && !st.shutdown
                        && st.control.is_empty()
                        && st.queue.len() < target
                    {
                        let deadline =
                            st.queue
                                .coalesce_deadline(&last_wave, started, shared.coalesce_window);
                        // Never coalesce past the earliest per-request
                        // deadline: a tight-deadline request would expire
                        // while the dispatcher idles waiting for company.
                        let cutoff = st
                            .queue
                            .earliest_deadline()
                            .map_or(deadline, |d| d.min(deadline));
                        let remaining = cutoff.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        let (guard, _) = shared
                            .cv
                            .wait_timeout(st, remaining)
                            .expect("service state poisoned");
                        st = guard;
                    }
                    let mut drained = Vec::new();
                    if dead.is_empty() && !st.abort {
                        // Work that died while the dispatcher coalesced
                        // sheds here too, so a wave holds live requests
                        // only.
                        dead = st.queue.remove_dead(Instant::now());
                        st.queue.drain_round(target.max(1), &mut drained);
                    }
                    (dead, drained)
                };
                resolve_dead(shared, dead);
                if !drained.is_empty() {
                    last_wave.clear();
                    for r in &drained {
                        *last_wave.entry(r.tenant).or_default() += 1;
                    }
                    execute_wave(shared, &mut engines, drained);
                    // Waves move the health machine too (faults scored,
                    // quarantines, canary credit).
                    harvest_health(shared, &engines, &mut health_seen);
                }
            }
        }
    }
}

/// Resolves requests [`FairQueue::remove_dead`] shed: expired ones fail
/// typed with their lateness, cancelled ones with
/// [`BpNttError::Cancelled`] (nobody reads it — the count is the
/// observable).
fn resolve_dead(shared: &Shared, dead: Vec<Request>) {
    if dead.is_empty() {
        return;
    }
    let now = Instant::now();
    for req in dead {
        let expired = req.deadline.filter(|&d| d <= now);
        {
            let mut m = shared.metrics.lock().expect("metrics poisoned");
            let tc = m.tenant(req.tenant);
            if expired.is_some() {
                tc.failed += 1;
                tc.deadline_expired += 1;
            } else {
                tc.cancelled += 1;
            }
        }
        match expired {
            Some(d) => {
                let late_ms = now.saturating_duration_since(d).as_millis() as u64;
                req.reply.send(Err(BpNttError::DeadlineExpired { late_ms }));
            }
            None => req.reply.send(Err(BpNttError::Cancelled)),
        }
    }
}

fn register_tenant(
    shared: &Shared,
    config: &BpNttConfig,
    engines: &mut Engines,
    next_tenant: &mut u32,
) -> Result<TenantId, BpNttError> {
    let info = tenant_info_of(config);
    let key = ConfigFingerprint::of(config);
    match engines.by_key.get_mut(&key) {
        // The configuration has an engine: build none. Resolving the
        // canned pipelines is all cache hits, the same registration
        // lookups a fresh engine's warm-up makes.
        Some(engine) => warm_canned(engine, config)?,
        None => {
            let engine = build_engine(shared, config)?;
            engines.by_key.insert(key, engine);
        }
    }
    let id = TenantId(*next_tenant);
    *next_tenant += 1;
    engines.route.insert(id, key);
    shared
        .tenants
        .lock()
        .expect("tenant map poisoned")
        .insert(id, info);
    // Record the full configuration so a watchdog-respawned dispatcher
    // can rebuild its engine and route this id to it.
    shared
        .registry
        .lock()
        .expect("registry poisoned")
        .push((id, config.clone()));
    // Count the tenant and seed its metrics slice, so a
    // registered-but-idle tenant appears (zeroed) in every snapshot.
    let mut m = shared.metrics.lock().expect("metrics poisoned");
    m.snap.tenants += 1;
    m.snap.engines = engines.by_key.len();
    let _ = m.tenant(id);
    Ok(id)
}

/// Builds one configuration's sharded engine on the shared artifact
/// cache: recovery ladder, fault plan, and health options applied,
/// canned pipelines warmed.
fn build_engine(shared: &Shared, config: &BpNttConfig) -> Result<ShardedBpNtt, BpNttError> {
    let mut engine =
        ShardedBpNtt::with_artifacts(config, shared.shards, Arc::clone(&shared.artifacts))?;
    if shared.recovery.is_active() {
        engine.set_recovery(shared.recovery);
    }
    if let Some(plan) = &shared.fault_plan {
        engine.install_fault_plan(plan);
    }
    if let Some(h) = shared.health {
        engine.set_health_options(h);
    }
    warm_canned(&mut engine, config)?;
    Ok(engine)
}

/// Resolves the canned specs every tenant is expected to run, so
/// registration, not the first request, pays any compile; polymul only
/// when two operand slots fit the layout. A configuration compiled
/// before makes these lookups.
fn warm_canned(engine: &mut ShardedBpNtt, config: &BpNttConfig) -> Result<(), BpNttError> {
    engine.compile(&PipelineSpec::forward_ntt())?;
    engine.compile(&PipelineSpec::roundtrip())?;
    if PipelineSpec::polymul()
        .check(config.layout(), config.params().modulus())
        .is_ok()
    {
        engine.compile(&PipelineSpec::polymul())?;
    }
    Ok(())
}

/// Executes one drained wave: requests are grouped by
/// `(engine, spec, mode)` preserving submission order inside each group
/// (tenants of one configuration share a group), each group runs as
/// **one** sharded pipeline call (the whole op-graph per lane, operands
/// loaded once, one read-back), groups on distinct engines run
/// concurrently, and every ticket receives its own result (or the
/// group's error). Every group's pipeline is resolved through the shared
/// artifact cache before the timed rounds, so a novel spec's compile
/// never counts toward `busy_secs`.
fn execute_wave(shared: &Shared, engines: &mut Engines, drained: Vec<Request>) {
    let mut groups: Vec<WaveGroup> = Vec::new();
    let mut index: HashMap<(ConfigFingerprint, PipelineSpec, ExecMode), usize> = HashMap::new();
    for req in drained {
        let Request {
            tenant,
            spec,
            mode,
            inputs,
            reply,
            deadline: _,
            cost: _,
            admitted: _,
            rns,
        } = req;
        let Some(&engine) = engines.route.get(&tenant) else {
            fail_replies(shared, vec![(tenant, reply)], unknown_tenant);
            continue;
        };
        let slot = *index
            .entry((engine, spec.clone(), mode))
            .or_insert_with(|| {
                groups.push(WaveGroup {
                    engine,
                    slots: vec![Vec::new(); spec.input_slots().len()],
                    spec,
                    mode,
                    replies: Vec::new(),
                    rns: false,
                });
                groups.len() - 1
            });
        let g = &mut groups[slot];
        g.rns |= rns;
        debug_assert_eq!(inputs.len(), g.slots.len(), "validated at submission");
        for (slot_batch, poly) in g.slots.iter_mut().zip(inputs) {
            slot_batch.push(poly);
        }
        g.replies.push((tenant, reply));
    }
    // Resolve every group's pipeline first (compiling a novel spec
    // here keeps it out of the timed rounds), then execute rounds of
    // groups on pairwise distinct engines: one group runs on this thread
    // and the rest on scoped threads, sharing the wall-clock window
    // instead of queueing behind each other. An engine's later groups
    // land in later rounds, in submission order.
    let mut ready: Vec<WaveGroup> = Vec::new();
    for group in groups {
        let Some(engine) = engines.by_key.get_mut(&group.engine) else {
            fail_replies(shared, group.replies, unknown_tenant);
            continue;
        };
        match engine.compile(&group.spec) {
            Ok(_) => ready.push(group),
            Err(e) => fail_replies(shared, group.replies, |_| e.clone()),
        }
    }
    while !ready.is_empty() {
        let mut seen: HashSet<ConfigFingerprint> = HashSet::new();
        let mut round: Vec<WaveGroup> = Vec::new();
        let mut rest: Vec<WaveGroup> = Vec::new();
        for g in ready {
            if seen.insert(g.engine) {
                round.push(g);
            } else {
                rest.push(g);
            }
        }
        ready = rest;
        // Pair each group with its engine in one mutable pass — engines
        // in a round are distinct, so the borrows are disjoint.
        let mut by_key: HashMap<ConfigFingerprint, &mut ShardedBpNtt> = engines
            .by_key
            .iter_mut()
            .filter(|(key, _)| seen.contains(key))
            .map(|(key, engine)| (*key, engine))
            .collect();
        let pairs: Vec<(&mut ShardedBpNtt, WaveGroup)> = round
            .into_iter()
            .map(|g| {
                let engine = by_key.remove(&g.engine).expect("engine resolved above");
                (engine, g)
            })
            .collect();
        if pairs.iter().any(|(_, g)| g.rns) {
            // RNS fan-out accounting: how full this concurrent window is
            // across every participating engine's lanes.
            let cap_sum: usize = pairs.iter().map(|(e, _)| e.lanes_total().max(1)).sum();
            let busy_sum: usize = pairs
                .iter()
                .map(|(e, g)| g.replies.len().min(e.lanes_total().max(1)))
                .sum();
            let mut m = shared.metrics.lock().expect("metrics poisoned");
            m.snap.rns_fanout_waves += 1;
            m.rns_fanout_occupancy_sum += (busy_sum as f64 / cap_sum.max(1) as f64).min(1.0);
        }
        let polys: usize = pairs.iter().map(|(_, g)| g.replies.len()).sum();
        let t = Instant::now();
        let done = std::thread::scope(|scope| {
            let mut pairs = pairs.into_iter();
            let inline = pairs.next();
            let legs: Vec<_> = pairs
                .map(|(engine, group)| scope.spawn(move || run_group(shared, engine, group)))
                .collect();
            let mut done = t;
            if let Some((engine, group)) = inline {
                done = done.max(run_group(shared, engine, group));
            }
            for leg in legs {
                let leg_done = leg.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                done = done.max(leg_done);
            }
            done
        });
        record_round(shared, polys, done.duration_since(t).as_secs_f64());
    }
}

/// The error of a request whose tenant has no engine. Unreachable in
/// practice — submission validates tenants, and only a failed rebuild
/// after a respawn leaves a tenant without one — but still counted as a
/// failure so `submitted == completed + failed` holds.
fn unknown_tenant(tenant: TenantId) -> BpNttError {
    BpNttError::UnknownTenant { tenant: tenant.0 }
}

/// Fails tickets before execution, each with `err` of its own tenant,
/// counted against that tenant.
fn fail_replies(
    shared: &Shared,
    replies: Vec<(TenantId, TicketSender)>,
    err: impl Fn(TenantId) -> BpNttError,
) {
    {
        let mut m = shared.metrics.lock().expect("metrics poisoned");
        for (tenant, _) in &replies {
            m.tenant(*tenant).failed += 1;
        }
    }
    for (tenant, reply) in replies {
        reply.send(Err(err(tenant)));
    }
}

/// Books one fan-out round: its wall-clock time, from dispatch until its
/// last group's results were ready (before any reply went out), counts
/// toward `busy_secs` once, however many groups overlapped in it. So busy
/// time never exceeds the wall time a client saw, and its `polys` feed
/// one drain-rate EWMA
/// sample — the basis of the `retry_after_ms` hints handed to shed
/// clients.
fn record_round(shared: &Shared, polys: usize, secs: f64) {
    let mut m = shared.metrics.lock().expect("metrics poisoned");
    m.snap.busy_secs += secs;
    let rate = polys as f64 / secs.max(1e-6);
    m.drain_rate = if m.drain_rate == 0.0 {
        rate
    } else {
        0.2 * rate + 0.8 * m.drain_rate
    };
}

/// Runs one resolved group as a single sharded pipeline call and
/// resolves every ticket — one leg of a fan-out round (engines are
/// disjoint across a round, so legs run on scoped threads; all counters
/// live behind the metrics lock). Returns when the group's results were
/// ready, just before its replies went out.
fn run_group(shared: &Shared, engine: &mut ShardedBpNtt, group: WaveGroup) -> Instant {
    #[cfg(test)]
    shared.reach_group_hook();
    let capacity = engine.lanes_total().max(1);
    let batch = group.replies.len();
    let slot_refs: Vec<&[Vec<u64>]> = group.slots.iter().map(Vec::as_slice).collect();
    // A group whose every waiter disconnects mid-wave aborts: the
    // workers stop claiming chunks and the call returns `Cancelled`.
    let replies = &group.replies;
    let all_cancelled = move || replies.iter().all(|(_, reply)| reply.is_cancelled());
    let result =
        engine.run_pipeline_batch_cancellable(&group.spec, group.mode, &slot_refs, &all_cancelled);
    {
        let mut m = shared.metrics.lock().expect("metrics poisoned");
        m.snap.waves += 1;
        m.snap.wave_polys += batch as u64;
        m.occupancy_sum += (batch as f64 / capacity as f64).min(1.0);
        for &s in engine.last_wave_shard_secs() {
            if m.shard_secs.len() == SHARD_SAMPLE_WINDOW {
                m.shard_secs.pop_front();
            }
            m.shard_secs.push_back(s);
        }
        // Harvest what the recovery ladder did during this wave.
        let rep = engine.last_recovery();
        m.snap.faults_detected += rep.faults_detected;
        m.snap.retries += rep.retries;
        m.snap.fallback_polys += rep.fallback_polys;
        m.snap.verify_ms += rep.verify_secs * 1e3;
        // Quarantine is a level, not a count: report the high-water
        // mark across waves and engines.
        m.snap.quarantined_shards = m.snap.quarantined_shards.max(rep.quarantined_shards);
        for (tenant, _) in &group.replies {
            let tc = m.tenant(*tenant);
            match &result {
                Ok(_) => tc.completed += 1,
                Err(BpNttError::Cancelled) => tc.cancelled += 1,
                Err(_) => tc.failed += 1,
            }
        }
    }
    let done = Instant::now();
    match result {
        Ok(outs) => {
            debug_assert_eq!(outs.len(), group.replies.len());
            for ((_, reply), out) in group.replies.into_iter().zip(outs) {
                reply.send(Ok(out));
            }
        }
        Err(e) => {
            for (_, reply) in group.replies {
                reply.send(Err(e.clone()));
            }
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpntt_ntt::forward::ntt_in_place;
    use bpntt_ntt::{NttParams, Polynomial, TwiddleTable};

    fn config8() -> BpNttConfig {
        BpNttConfig::new(32, 32, 8, NttParams::new(8, 97).unwrap()).unwrap()
    }

    fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
        Polynomial::pseudo_random(&NttParams::new(n, q).unwrap(), seed).into_coeffs()
    }

    #[test]
    fn forward_submission_round_trips() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        let tickets: Vec<(Vec<u64>, Ticket)> = (0..10)
            .map(|s| {
                let p = pseudo(8, 97, s + 1);
                let ticket = service.submit_forward(p.clone()).unwrap();
                (p, ticket)
            })
            .collect();
        for (p, ticket) in tickets {
            let mut expect = p;
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(ticket.wait().unwrap(), expect);
        }
        let m = service.shutdown();
        assert_eq!(m.completed, 10);
        assert_eq!(m.failed, 0);
        assert!(m.waves >= 1);
        assert!(m.polys_per_sec > 0.0);
    }

    #[test]
    fn submission_validates_before_enqueue() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        assert!(matches!(
            service.submit_forward(vec![0; 7]),
            Err(BpNttError::WrongLength {
                expected: 8,
                actual: 7
            })
        ));
        assert!(matches!(
            service.submit_forward(vec![97; 8]),
            Err(BpNttError::Unreduced { value: 97, .. })
        ));
        assert!(matches!(
            service.submit_forward_as(TenantId(99), vec![0; 8]),
            Err(BpNttError::UnknownTenant { tenant: 99 })
        ));
        let m = service.shutdown();
        assert_eq!(m.submitted, 0, "invalid requests never enter the queue");
    }

    #[test]
    fn zero_capacity_queue_rejects_with_overloaded() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                max_queue: 0,
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        match service.submit_forward(pseudo(8, 97, 1)) {
            Err(BpNttError::Overloaded {
                depth: 0,
                capacity: 0,
                retry_after_ms,
            }) => assert!(retry_after_ms >= 1, "back-off hint must be nonzero"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let m = service.shutdown();
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn rate_limit_sheds_typed_with_retry_hint() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                rate_limit: Some(RateLimit {
                    requests_per_sec: 0.001, // effectively no refill mid-test
                    burst: 2.0,
                }),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let a = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        let b = service.submit_forward(pseudo(8, 97, 2)).unwrap();
        match service.submit_forward(pseudo(8, 97, 3)) {
            Err(BpNttError::RateLimited {
                tenant: 0,
                retry_after_ms,
            }) => assert!(retry_after_ms >= 1),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let m = service.shutdown();
        assert_eq!(m.rate_limited, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.completed, 2);
        let t0 = &m.per_tenant[0];
        assert_eq!(t0.tenant, 0);
        assert_eq!(t0.submitted, 2);
        assert_eq!(t0.shed, 1);
        assert_eq!(t0.completed, 2);
        assert!(t0.bytes >= 2 * 64);
    }

    #[test]
    fn shutdown_now_fails_queued_typed_and_unblocks_waiters() {
        // Regression: a request still queued at shutdown must resolve a
        // blocked `Ticket::wait` with a typed ServiceShutdown, never hang.
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                // Long window so the requests are still queued when the
                // abort lands.
                coalesce_window: Duration::from_secs(30),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let blocked = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        let queued = service.submit_forward(pseudo(8, 97, 2)).unwrap();
        let waiter = std::thread::spawn(move || blocked.wait());
        // Give the waiter time to actually park in wait().
        std::thread::sleep(Duration::from_millis(50));
        let m = service.shutdown_now();
        assert!(matches!(
            waiter.join().unwrap(),
            Err(BpNttError::ServiceShutdown)
        ));
        assert!(matches!(queued.wait(), Err(BpNttError::ServiceShutdown)));
        assert_eq!(m.completed, 0, "abort mode must not execute queued work");
        assert_eq!(m.failed, 2);
    }

    #[test]
    fn dropped_ticket_cancels_queued_request() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                coalesce_window: Duration::from_secs(30),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let doomed = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        drop(doomed); // client disconnected
        let fine = service.submit_forward(pseudo(8, 97, 2)).unwrap();
        // Drain-mode shutdown: the live request completes, the cancelled
        // one is shed without costing a lane.
        let m = service.shutdown();
        assert!(fine.wait().is_ok());
        assert_eq!(m.completed, 1);
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.per_tenant[0].cancelled, 1);
    }

    #[test]
    fn wait_timeout_clamps_to_request_deadline() {
        // Regression: a caller could wait far past its own deadline
        // before learning of DeadlineExpired. Channel-level check: the
        // sender stays unanswered, so only the deadline clamp can end
        // this wait — a broken clamp would run the full 60 s.
        let deadline = Instant::now() + Duration::from_millis(30);
        let (ticket, sender) = Ticket::channel(Some(deadline));
        let t = Instant::now();
        let got = ticket.wait_timeout(Duration::from_secs(60));
        let waited = t.elapsed();
        assert!(matches!(got, Some(Err(BpNttError::DeadlineExpired { .. }))));
        assert!(
            waited < Duration::from_secs(10),
            "wait_timeout must clamp to the 30ms deadline, waited {waited:?}"
        );
        assert!(
            sender.is_cancelled(),
            "local expiry must mark the request shed-able"
        );
        // A result arriving after the local expiry is discarded — the
        // slot is spent and never yields a success.
        sender.send(Ok(vec![1]));
        match ticket.try_wait() {
            None | Some(Err(_)) => {}
            Some(Ok(_)) => panic!("spent ticket must not deliver a late result"),
        }
        // And a *plain* timeout (no deadline) still reports None.
        let (plain, _keep) = Ticket::channel(None);
        assert!(plain.wait_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn fair_queue_interleaves_tenants_per_round() {
        // Direct DRR check: tenant 0 floods 6 requests, tenant 1 queues
        // 2; with one quantum covering one request, a 4-request round
        // takes 2 from each instead of 4 from the flooder.
        let mk = |tenant: u32, seed: u64| {
            let (_t, reply) = Ticket::channel(None);
            Request {
                tenant: TenantId(tenant),
                spec: PipelineSpec::forward_ntt(),
                mode: ExecMode::Replay,
                inputs: vec![pseudo(8, 97, seed)],
                reply,
                deadline: None,
                cost: 64,
                admitted: Instant::now(),
                rns: false,
            }
        };
        let mut q = FairQueue::new(64);
        for s in 0..6 {
            q.push(mk(0, s + 1));
        }
        for s in 0..2 {
            q.push(mk(1, s + 10));
        }
        assert_eq!(q.len(), 8);
        let mut round = Vec::new();
        q.drain_round(4, &mut round);
        let hot = round.iter().filter(|r| r.tenant == TenantId(0)).count();
        let cold = round.iter().filter(|r| r.tenant == TenantId(1)).count();
        assert_eq!((hot, cold), (2, 2), "DRR must interleave the tenants");
        // Tenant 1 empties out; the rest of the backlog belongs to 0.
        let mut rest = Vec::new();
        q.drain_round(10, &mut rest);
        assert_eq!(rest.len(), 4);
        assert!(rest.iter().all(|r| r.tenant == TenantId(0)));
        assert!(q.is_empty());
    }

    #[test]
    fn fair_service_completes_all_tenants_under_hot_flood() {
        // End-to-end: a hot tenant floods, a cold tenant trickles; both
        // complete everything and the per-tenant slices account for it.
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let cold = service.add_tenant(&config8()).unwrap();
        let mut tickets = Vec::new();
        for s in 0..40 {
            tickets.push(service.submit_forward(pseudo(8, 97, s + 1)).unwrap());
        }
        for s in 0..4 {
            tickets.push(
                service
                    .submit_forward_as(cold, pseudo(8, 97, s + 100))
                    .unwrap(),
            );
        }
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let m = service.shutdown();
        assert_eq!(m.completed, 44);
        assert_eq!(m.per_tenant.len(), 2);
        assert_eq!(m.per_tenant[0].completed, 40);
        assert_eq!(m.per_tenant[1].completed, 4);
        assert_eq!(m.per_tenant[1].tenant, cold.raw());
    }

    #[test]
    fn polymul_capacity_is_checked_at_submit() {
        // 16 rows cannot host 2·8 + 6: polymul must be rejected eagerly.
        let tight = BpNttConfig::new(16, 32, 8, NttParams::new(8, 97).unwrap()).unwrap();
        let service = NttService::start(&tight, ServiceOptions::default()).unwrap();
        assert!(matches!(
            service.submit_polymul(pseudo(8, 97, 1), pseudo(8, 97, 2)),
            Err(BpNttError::CapacityExceeded { .. })
        ));
        // Forward still works on the same tenant.
        let ticket = service.submit_forward(pseudo(8, 97, 3)).unwrap();
        assert_eq!(ticket.wait().unwrap().len(), 8);
    }

    #[test]
    fn zero_deadline_expires_typed_without_blocking() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                coalesce_window: Duration::from_millis(20),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let doomed = service
            .submit_pipeline(
                PipelineRequest::new(PipelineSpec::forward_ntt(), vec![pseudo(8, 97, 1)])
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        // A generous-deadline companion still completes in the same wave.
        let fine = service
            .submit_pipeline(
                PipelineRequest::new(PipelineSpec::forward_ntt(), vec![pseudo(8, 97, 2)])
                    .with_deadline(Duration::from_secs(30)),
            )
            .unwrap();
        // The deadline of an RNS group applies to every limb.
        let doomed_group = service
            .submit_rns(
                &handle,
                RnsRequest::polymul(big_poly(&basis, 1), big_poly(&basis, 2))
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait(),
            Err(BpNttError::DeadlineExpired { .. })
        ));
        assert_eq!(fine.wait().unwrap().len(), 8);
        assert!(matches!(
            doomed_group.wait(),
            Err(BpNttError::DeadlineExpired { .. })
        ));
        let m = service.shutdown();
        assert_eq!(m.deadline_expired, 1 + basis.limbs() as u64);
        assert_eq!(m.failed, 1 + basis.limbs() as u64);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn request_accounting_closes_over_every_outcome() {
        // Shedding starts at 4 queued requests, one slot per tenant (5
        // tenants), and each tenant's bucket holds 2 tokens. Four shards
        // make the coalescing target wider than anything queued here, and
        // the window outlasts the test, so before shutdown only the
        // zero-deadline request can end a coalescing wait.
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                shards: 4,
                max_queue: 64,
                shed_threshold: 4.0 / 64.0,
                coalesce_window: Duration::from_secs(30),
                rate_limit: Some(RateLimit {
                    requests_per_sec: 0.001,
                    burst: 2.0,
                }),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let t0 = service.default_tenant();
        let t1 = service.add_tenant(&config8()).unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let group = |seed| RnsRequest::polymul(big_poly(&basis, seed), big_poly(&basis, seed + 1));

        let b = service.submit_forward_as(t1, pseudo(8, 97, 1)).unwrap();
        drop(service.submit_forward_as(t1, pseudo(8, 97, 2)).unwrap());
        let t = Instant::now();
        let doomed = service
            .submit_pipeline(
                PipelineRequest::new(PipelineSpec::forward_ntt(), vec![pseudo(8, 97, 3)])
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait(),
            Err(BpNttError::DeadlineExpired { .. })
        ));
        // Dead work resolves at once, not when the window ends, and the
        // dropped request goes with it. At most `b` stays queued.
        assert!(t.elapsed() < Duration::from_secs(10));
        let limbs = service.submit_rns(&handle, group(4)).unwrap();
        // t0 holds nothing queued, so it is admitted even past the
        // threshold.
        let a = service.submit_forward(pseudo(8, 97, 6)).unwrap();
        // 4 or 5 queued, and the lead limb holds its share: the next
        // group sheds whole, then finds the lead limb's bucket empty.
        assert!(matches!(
            service.submit_rns(&handle, group(7)),
            Err(BpNttError::Overloaded { .. })
        ));
        assert!(matches!(
            service.submit_rns(&handle, group(9)),
            Err(BpNttError::RateLimited { .. })
        ));

        let m = service.shutdown();
        assert!(b.wait().is_ok());
        assert!(limbs.wait().is_ok());
        assert!(a.wait().is_ok());
        assert_eq!(m.submitted, m.completed + m.failed + m.cancelled);
        let per = &m.per_tenant;
        let sum = |f: fn(&TenantMetrics) -> u64| per.iter().map(f).sum::<u64>();
        assert_eq!(m.rejected, sum(|t| t.shed));
        assert_eq!(m.submitted, sum(|t| t.submitted));
        assert_eq!(m.completed, sum(|t| t.completed));
        assert_eq!(m.failed, sum(|t| t.failed));
        assert_eq!(m.deadline_expired, sum(|t| t.deadline_expired));
        assert_eq!(m.cancelled, sum(|t| t.cancelled));
        assert_eq!((m.rns_requests, m.rns_limbs), (1, 3));
        assert_eq!((m.submitted, m.completed), (7, 5));
        assert_eq!((m.deadline_expired, m.cancelled), (1, 1));
        assert_eq!((m.rejected, m.rate_limited), (2, 1));
        assert_eq!(per[t0.raw() as usize].submitted, 2);
    }

    #[test]
    fn chaos_plan_with_verification_completes_all_requests_correctly() {
        let plan = FaultPlan::seeded(0xD15EA5E).transient_rate(1e-4);
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                shards: 2,
                verify: VerifyPolicy::Full,
                retry_budget: 2,
                fault_plan: Some(plan),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        let tickets: Vec<(Vec<u64>, Ticket)> = (0..48)
            .map(|s| {
                let p = pseudo(8, 97, s + 1);
                let ticket = service.submit_forward(p.clone()).unwrap();
                (p, ticket)
            })
            .collect();
        for (p, ticket) in tickets {
            let mut expect = p;
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(
                ticket.wait().unwrap(),
                expect,
                "no corrupted result escapes"
            );
        }
        let m = service.shutdown();
        assert_eq!(m.completed, 48, "every request completes despite faults");
        assert_eq!(m.failed, 0);
        assert!(m.verify_ms > 0.0, "verification time was accounted");
        let json = m.to_json();
        assert!(json.contains("\"faults_detected\""));
        assert!(json.contains("\"verify_ms\""));
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                // A long window so requests are still queued at shutdown.
                coalesce_window: Duration::from_secs(5),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|s| service.submit_forward(pseudo(8, 97, s + 40)).unwrap())
            .collect();
        let m = service.shutdown();
        assert_eq!(m.completed, 3, "shutdown must drain the queue first");
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    /// A minimal single-future executor: polls with a parker-backed
    /// waker, parking the thread between wakes. Exercises the real waker
    /// path — `poll` must register the waker and the dispatcher's send
    /// must wake it, or this blocks forever (caught by the spin guard).
    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        use std::task::{Context, Poll, Wake, Waker};

        struct ThreadWaker(std::thread::Thread);
        impl Wake for ThreadWaker {
            fn wake(self: std::sync::Arc<Self>) {
                self.0.unpark();
            }
        }

        let waker = Waker::from(std::sync::Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        let mut polls = 0u32;
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    polls += 1;
                    assert!(polls < 10_000, "future never completed");
                    // Park with a timeout so a lost wake fails the spin
                    // guard instead of hanging the suite.
                    std::thread::park_timeout(Duration::from_millis(10));
                }
            }
        }
    }

    #[test]
    fn tickets_are_futures() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);

        // Single await resolves to the transform.
        let poly = pseudo(8, 97, 77);
        let ticket = service.submit_forward(poly.clone()).unwrap();
        let mut expect = poly;
        ntt_in_place(&params, &t, &mut expect).unwrap();
        assert_eq!(block_on(ticket).unwrap(), expect);

        // An async block awaiting several tickets sequentially.
        let pairs: Vec<(Vec<u64>, Ticket)> = (0..4)
            .map(|s| {
                let p = pseudo(8, 97, 200 + s);
                let ticket = service.submit_forward(p.clone()).unwrap();
                (p, ticket)
            })
            .collect();
        let results = block_on(async {
            let mut done = Vec::new();
            for (p, ticket) in pairs {
                done.push((p, ticket.await));
            }
            done
        });
        for (p, got) in results {
            let mut expect = p;
            ntt_in_place(&params, &t, &mut expect).unwrap();
            assert_eq!(got.unwrap(), expect);
        }
        let m = service.shutdown();
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn awaiting_after_shutdown_reports_shutdown() {
        // A ticket that was already answered before shutdown still
        // resolves; polling a spent ticket reports ServiceShutdown.
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let ticket = service.submit_forward(pseudo(8, 97, 5)).unwrap();
        let _ = service.shutdown();
        let mut ticket = ticket;
        let first = block_on(&mut ticket);
        assert!(first.is_ok(), "drained result still readable");
        let second = block_on(&mut ticket);
        assert!(matches!(second, Err(BpNttError::ServiceShutdown)));
    }

    #[test]
    fn scrubber_reintegrates_burst_quarantined_shards_unattended() {
        // The tentpole drill at the service layer: a windowed dead-row
        // burst corrupts the first wave on both shards (quarantine +
        // software fallback), then the background scrubber probes,
        // canaries, and reintegrates them with NO manual lift — tenant
        // traffic keeps completing reference-exact throughout, and the
        // whole transition is visible in the metrics exports.
        let params = NttParams::new(8, 97).unwrap();
        let t = TwiddleTable::new(&params);
        let polys: Vec<Vec<u64>> = (0..24).map(|s| pseudo(8, 97, s + 500)).collect();
        let expect: Vec<Vec<u64>> = polys
            .iter()
            .map(|p| {
                let mut e = p.clone();
                ntt_in_place(&params, &t, &mut e).unwrap();
                e
            })
            .collect();
        // Calibrate the burst window to one chunk's worth of
        // instructions (the clock is mode-independent).
        let mut probe = ShardedBpNtt::new(&config8(), 1).unwrap();
        probe.forward_batch(&polys[..4]).unwrap();
        let chunk_instrs = probe.stats().counts.total();
        assert!(chunk_instrs > 0);

        let service = NttService::start(
            &config8(),
            ServiceOptions {
                shards: 2,
                verify: VerifyPolicy::Full,
                fault_plan: Some(
                    FaultPlan::seeded(3)
                        .dead_row(2)
                        .active_between(0, chunk_instrs),
                ),
                health: Some(HealthOptions::aggressive()),
                coalesce_window: Duration::from_millis(5),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        // Keep waves flowing until the scrubber has walked both shards
        // back to healthy (canary promotion needs claimed clean waves).
        let mut healed = false;
        for _round in 0..40 {
            let tickets: Vec<Ticket> = polys
                .iter()
                .map(|p| service.submit_forward(p.clone()).unwrap())
                .collect();
            for (ticket, e) in tickets.into_iter().zip(&expect) {
                assert_eq!(
                    &ticket.wait().unwrap(),
                    e,
                    "no corruption escapes mid-drill"
                );
            }
            let m = service.metrics();
            if m.health.reintegrations >= 2 && m.shard_health.iter().all(|&s| s == 0) {
                healed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            healed,
            "scrubber never reintegrated the burst-faulted shards"
        );
        let m = service.shutdown();
        assert_eq!(m.failed, 0);
        assert!(
            m.health.probes_run >= 2,
            "scrubber probed the benched shards"
        );
        assert!(m.health.probes_passed >= 2);
        assert!(m.health.reintegrations >= 2);
        assert!(m.fallback_polys >= 1, "burst wave answered by fallback");
        // Observability: the transition shows up in both exports.
        let json = m.to_json();
        assert!(json.contains("\"health\": {\"probes_run\""));
        assert!(json.contains("\"reintegrations\""));
        assert!(m
            .to_prometheus()
            .contains("bpntt_shard_health_state{shard=\"0\"} 0"));
    }

    #[test]
    fn watchdog_respawns_crashed_dispatcher_and_fails_queued_typed() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                health: Some(HealthOptions::aggressive()),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let warm = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        assert!(warm.wait().is_ok());
        let before = service.metrics();
        // Queue a request and the crash control under one lock: the
        // dispatcher pops controls before work, so it panics with the
        // request still queued — the drain guard must fail it typed
        // without marking the service shut down.
        let doomed = {
            let (ticket, reply) = Ticket::channel(None);
            let mut st = service.shared.state.lock().unwrap();
            st.queue.push(Request {
                tenant: service.default_tenant,
                spec: PipelineSpec::forward_ntt(),
                mode: ExecMode::Replay,
                inputs: vec![pseudo(8, 97, 2)],
                reply,
                deadline: None,
                cost: 64,
                admitted: Instant::now(),
                rns: false,
            });
            st.control.push_back(Control::Crash);
            drop(st);
            service.shared.cv.notify_all();
            ticket
        };
        assert!(matches!(
            doomed.wait(),
            Err(BpNttError::DispatcherRestarted)
        ));
        // The watchdog notices within a few ticks and respawns.
        let mut respawned = false;
        for _ in 0..500 {
            if service.metrics().respawns >= 1 {
                respawned = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(respawned, "watchdog never respawned the dispatcher");
        // The respawned dispatcher rebuilt the tenant engine from the
        // registry and keeps serving under the original tenant id.
        let after = service.submit_forward(pseudo(8, 97, 3)).unwrap();
        assert_eq!(after.wait().unwrap().len(), 8);
        let m = service.shutdown();
        // The rebuild found every artifact in the shared cache: it looked
        // them up and compiled nothing.
        assert_eq!(m.pipeline_cache_entries, before.pipeline_cache_entries);
        assert_eq!(m.pipeline_compile_ms, before.pipeline_compile_ms);
        assert!(m.pipeline_cache_hits > before.pipeline_cache_hits);
        assert!(m.respawns >= 1);
        assert_eq!(m.completed, 2);
        assert_eq!(m.failed, 1, "the queued request failed typed, once");
    }

    #[test]
    fn respawn_rebuilds_one_engine_per_configuration() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                health: Some(HealthOptions::aggressive()),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let q17 = BpNttConfig::new(32, 32, 8, NttParams::new(8, 17).unwrap()).unwrap();
        let twin = service.add_tenant(&config8()).unwrap();
        let other = service.add_tenant(&q17).unwrap();
        assert_eq!(service.metrics().engines, 2);
        service.crash_dispatcher();
        let give_up = Instant::now() + Duration::from_secs(20);
        while service.metrics().respawns == 0 {
            assert!(Instant::now() < give_up, "watchdog never respawned");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Every tenant is routed to its configuration's rebuilt engine.
        let a = service.submit_forward_as(twin, pseudo(8, 97, 3)).unwrap();
        let b = service.submit_forward_as(other, pseudo(8, 17, 4)).unwrap();
        assert_eq!(a.wait().unwrap(), reference_forward(97, &pseudo(8, 97, 3)));
        assert_eq!(b.wait().unwrap(), reference_forward(17, &pseudo(8, 17, 4)));
        let m = service.shutdown();
        assert_eq!(m.engines, 2, "three tenants, two configurations");
    }

    /// A respawned dispatcher rebuilds its engines with fresh health
    /// monitors; the published counters must keep counting from where
    /// they were instead of restarting near zero.
    #[test]
    fn health_counters_never_go_backwards_across_a_respawn() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                health: Some(HealthOptions::aggressive()),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let give_up = Instant::now() + Duration::from_secs(20);
        while service.metrics().health.patrol_probes < 20 {
            assert!(Instant::now() < give_up, "the patrol never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        service.crash_dispatcher();
        let counters = |m: &ServiceMetrics| {
            let h = m.health;
            [
                ("probes_run", h.probes_run),
                ("probes_passed", h.probes_passed),
                ("reintegrations", h.reintegrations),
                ("canary_demotions", h.canary_demotions),
                ("patrol_probes", h.patrol_probes),
                ("patrol_quarantines", h.patrol_quarantines),
                ("respawns", m.respawns),
            ]
        };
        let mut last = counters(&service.metrics());
        // Patrol probes seen when the respawn became visible; stop once
        // the rebuilt engines' harvests have added a few more.
        let mut at_respawn = None;
        loop {
            assert!(Instant::now() < give_up, "no harvest after the respawn");
            std::thread::sleep(Duration::from_millis(1));
            let m = service.metrics();
            let now = counters(&m);
            for ((name, was), (_, is)) in last.iter().zip(&now) {
                assert!(is >= was, "{name} went backwards: {was} -> {is}");
            }
            last = now;
            if m.respawns >= 1 {
                let base = *at_respawn.get_or_insert(m.health.patrol_probes);
                if m.health.patrol_probes >= base + 5 {
                    break;
                }
            }
        }
    }

    #[test]
    fn unsupervised_crash_stays_down_typed() {
        // Without a watchdog, a dispatcher panic keeps the historical
        // contract: the service marks itself shut down and every later
        // submission fails typed.
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        service.crash_dispatcher();
        let mut down = false;
        for _ in 0..500 {
            if matches!(
                service.submit_forward(pseudo(8, 97, 1)),
                Err(BpNttError::ServiceShutdown)
            ) {
                down = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(down, "unsupervised crash must shut the service down");
        let m = service.shutdown();
        assert_eq!(m.respawns, 0);
    }

    #[test]
    fn tickets_poll_without_blocking() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let ticket = service.submit_forward(pseudo(8, 97, 9)).unwrap();
        // Poll until completion — exercises the async-integration path.
        let mut spins = 0u64;
        let result = loop {
            if let Some(r) = ticket.try_wait() {
                break r;
            }
            spins += 1;
            assert!(spins < 1_000_000, "service never completed the request");
            std::thread::yield_now();
        };
        assert_eq!(result.unwrap().len(), 8);
    }

    /// Runs one round of two single-poly groups on two tenants of
    /// distinct configurations (so two engines), each group parked at a
    /// shared `Barrier(2)` until the other arrives — which only happens
    /// when the round runs them concurrently. Returns the wall time from
    /// first submission to both results.
    fn two_tenant_round(service: &NttService) -> Duration {
        let q17 = BpNttConfig::new(32, 32, 8, NttParams::new(8, 17).unwrap()).unwrap();
        let other = service.add_tenant(&q17).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        *service.shared.group_hook.lock().unwrap() = Some(Arc::clone(&barrier));
        let t0 = Instant::now();
        let a = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        let b = service.submit_forward_as(other, pseudo(8, 17, 2)).unwrap();
        let timeout = Duration::from_secs(30);
        let (ra, rb) = (a.wait_timeout(timeout), b.wait_timeout(timeout));
        let wall = t0.elapsed();
        *service.shared.group_hook.lock().unwrap() = None;
        if ra.is_none() || rb.is_none() {
            // Serialized: one group is parked alone. Release it (the hook
            // is disarmed) so the service can still shut down.
            barrier.wait();
            panic!("the two tenants' groups never overlapped");
        }
        assert_eq!(
            ra.unwrap().unwrap(),
            reference_forward(97, &pseudo(8, 97, 1))
        );
        assert_eq!(
            rb.unwrap().unwrap(),
            reference_forward(17, &pseudo(8, 17, 2))
        );
        wall
    }

    /// Both requests land in one wave: the queue cap makes two the
    /// coalescing target, and the window outlasts any submission gap.
    fn one_wave_options() -> ServiceOptions {
        ServiceOptions {
            max_queue: 2,
            coalesce_window: Duration::from_secs(30),
            ..ServiceOptions::default()
        }
    }

    fn reference_forward(q: u64, p: &[u64]) -> Vec<u64> {
        let params = NttParams::new(p.len(), q).unwrap();
        let mut v = p.to_vec();
        ntt_in_place(&params, &TwiddleTable::new(&params), &mut v).unwrap();
        v
    }

    #[test]
    fn distinct_tenant_groups_run_concurrently() {
        let service = NttService::start(&config8(), one_wave_options()).unwrap();
        two_tenant_round(&service);
        let m = service.shutdown();
        assert_eq!((m.waves, m.completed), (2, 2));
    }

    #[test]
    fn concurrent_groups_count_busy_time_once_per_round() {
        let service = NttService::start(&config8(), one_wave_options()).unwrap();
        let wall = two_tenant_round(&service);
        // Tickets resolve inside the round; its books close after it, so
        // read them once the dispatcher has exited.
        let shared = Arc::clone(&service.shared);
        let polys_per_sec = service.shutdown().polys_per_sec;
        let (busy, drain_rate) = {
            let m = shared.metrics.lock().unwrap();
            (m.snap.busy_secs, m.drain_rate)
        };
        // One round of wall-clock time, never the sum of its overlapped
        // groups: busy time fits inside the window that contained it.
        assert!(
            busy > 0.0 && busy <= wall.as_secs_f64(),
            "busy {busy}s, wall {wall:?}"
        );
        // One drain-rate sample for the round: both polys over its time.
        assert!(
            (drain_rate - 2.0 / busy).abs() <= 1e-9 * drain_rate,
            "drain rate {drain_rate} is not one round sample (busy {busy}s)"
        );
        assert!(polys_per_sec >= 2.0 / wall.as_secs_f64());
    }

    #[test]
    fn same_configuration_tenants_share_one_wave() {
        let service = NttService::start(&config8(), one_wave_options()).unwrap();
        let other = service.add_tenant(&config8()).unwrap();
        let a = service.submit_forward(pseudo(8, 97, 1)).unwrap();
        let b = service.submit_forward_as(other, pseudo(8, 97, 2)).unwrap();
        assert_eq!(a.wait().unwrap(), reference_forward(97, &pseudo(8, 97, 1)));
        assert_eq!(b.wait().unwrap(), reference_forward(97, &pseudo(8, 97, 2)));
        let m = service.shutdown();
        assert_eq!(m.engines, 1, "the second tenant built no engine");
        assert_eq!(m.waves, 1, "both tenants' requests filled one wave");
        assert_eq!(m.wave_polys, 2);
        assert_eq!(m.per_tenant.len(), 2);
        for (pt, id) in m.per_tenant.iter().zip([0, other.raw()]) {
            assert_eq!((pt.tenant, pt.submitted, pt.completed), (id, 1, 1));
        }
    }

    #[test]
    fn coalescing_window_runs_from_oldest_admission() {
        let window = Duration::from_secs(60);
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                coalesce_window: window,
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        // A lone request that has already been queued for a full window
        // (as if it waited behind a long wave) dispatches at once instead
        // of waiting another window for company.
        let ticket = {
            let (ticket, reply) = Ticket::channel(None);
            let mut st = service.shared.state.lock().unwrap();
            st.queue.push(Request {
                tenant: service.default_tenant,
                spec: PipelineSpec::forward_ntt(),
                mode: ExecMode::Replay,
                inputs: vec![pseudo(8, 97, 5)],
                reply,
                deadline: None,
                cost: 64,
                admitted: Instant::now()
                    .checked_sub(window)
                    .expect("monotonic clock is older than the window"),
                rns: false,
            });
            drop(st);
            service.shared.cv.notify_all();
            ticket
        };
        let got = ticket.wait_timeout(window / 3);
        assert_eq!(
            got.expect("the window restarted instead of running from admission")
                .unwrap(),
            reference_forward(97, &pseudo(8, 97, 5))
        );
    }

    #[test]
    fn coalescing_awaits_the_last_waves_requesters_for_one_window() {
        let window = Duration::from_millis(500);
        let started = Instant::now();
        let admitted = started
            .checked_sub(3 * window)
            .expect("clock older than 1.5 s");
        let (a, b) = (TenantId(0), TenantId(1));
        let mk = |tenant| {
            let (_t, reply) = Ticket::channel(None);
            Request {
                tenant,
                spec: PipelineSpec::forward_ntt(),
                mode: ExecMode::Replay,
                inputs: vec![pseudo(8, 97, 1)],
                reply,
                deadline: None,
                cost: 64,
                admitted,
                rns: false,
            }
        };
        let mut q = FairQueue::new(64);
        q.push(mk(a));
        // No wave yet: the window runs from the oldest admission, which
        // already lies in the past — dispatch at once.
        let fresh = HashMap::new();
        assert_eq!(
            q.coalesce_deadline(&fresh, started, window),
            admitted + window
        );
        // The last wave answered A and B; only A is back, so B gets one
        // window from now to resubmit and share the round.
        let last_wave = HashMap::from([(a, 1), (b, 1)]);
        assert_eq!(
            q.coalesce_deadline(&last_wave, started, window),
            started + window
        );
        // B is back: the oldest admission rules again.
        q.push(mk(b));
        assert_eq!(
            q.coalesce_deadline(&last_wave, started, window),
            admitted + window
        );
    }

    #[test]
    fn three_tenants_two_specs_keep_ticket_mapping_and_order() {
        // Three tenants on different primes, each submitting interleaved
        // forward and polymul requests; the whole set coalesces into one
        // wave of six groups (two concurrent rounds of three tenants).
        // Every ticket must get its own request's answer.
        let primes = [97u64, 113, 17];
        let per_spec = 2;
        let total = primes.len() * 2 * per_spec;
        let cfg = |q: u64| BpNttConfig::new(32, 32, 8, NttParams::new(8, q).unwrap()).unwrap();
        let service = NttService::start(
            &cfg(primes[0]),
            ServiceOptions {
                shards: 4,
                max_queue: total,
                coalesce_window: Duration::from_secs(30),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let mut tenants = vec![service.default_tenant()];
        for &q in &primes[1..] {
            tenants.push(service.add_tenant(&cfg(q)).unwrap());
        }
        let mut pending = Vec::new();
        for r in 0..per_spec as u64 {
            for (t, (&tenant, &q)) in tenants.iter().zip(&primes).enumerate() {
                let seed = 100 * t as u64 + 10 * r;
                let params = NttParams::new(8, q).unwrap();
                let a = pseudo(8, q, seed + 1);
                let b = pseudo(8, q, seed + 2);
                let mut spectrum = a.clone();
                ntt_in_place(&params, &TwiddleTable::new(&params), &mut spectrum).unwrap();
                let product = bpntt_ntt::polymul::polymul_schoolbook(&params, &a, &b).unwrap();
                let fwd = service.submit_forward_as(tenant, a.clone()).unwrap();
                let mul = service.submit_polymul_as(tenant, a, b).unwrap();
                pending.push((t, r, "forward", fwd, spectrum));
                pending.push((t, r, "polymul", mul, product));
            }
        }
        for (t, r, what, ticket, expect) in pending {
            assert_eq!(ticket.wait().unwrap(), expect, "tenant {t} {what} #{r}");
        }
        let m = service.shutdown();
        assert_eq!(m.completed, total as u64);
        assert_eq!(m.waves, 6, "one wave of six (tenant, spec) groups");
        for pt in &m.per_tenant {
            assert_eq!(pt.completed, 2 * per_spec as u64);
        }
    }

    /// 14-bit NTT-friendly primes valid for n up to 512.
    const RNS_P: [u64; 3] = [12289, 13313, 15361];

    fn rns_basis64() -> Arc<RnsBasis> {
        Arc::new(RnsBasis::new(64, &RNS_P).unwrap())
    }

    /// A deterministic degree-n polynomial with coefficients spread over
    /// the full multi-limb range `0..Q`.
    fn big_poly(basis: &RnsBasis, seed: u64) -> Vec<BigUint> {
        (0..basis.n())
            .map(|k| {
                let lo = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((k as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                let hi = lo.rotate_left(23) ^ (k as u64);
                BigUint::from_limbs(vec![lo, hi]).rem(basis.modulus())
            })
            .collect()
    }

    #[test]
    fn rns_polymul_reconstructs_exactly() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        assert_eq!(handle.limbs(), 3);
        let a = big_poly(&basis, 1);
        let b = big_poly(&basis, 2);
        let expect = bpntt_rns::reference::negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        let ticket = service
            .submit_rns(&handle, RnsRequest::polymul(a, b))
            .unwrap();
        let result = ticket.wait().unwrap();
        assert_eq!(result.limbs.len(), 3);
        assert_eq!(result.coefficients, expect);
        // Each raw limb output is the reference reduced mod that prime.
        for (limb, &q) in basis.primes().iter().enumerate() {
            for (k, c) in expect.iter().enumerate() {
                assert_eq!(result.limbs[limb][k], c.rem_u64(q));
            }
        }
        let m = service.shutdown();
        assert_eq!(m.rns_requests, 1);
        assert_eq!(m.rns_limbs, 3);
        assert!(m.rns_fanout_waves >= 1, "limb group never fanned out");
        assert!(m.rns_fanout_occupancy > 0.0);
        assert_eq!(m.completed, 3, "three limb requests completed");
    }

    #[test]
    fn rns_submission_validates_before_enqueue() {
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let a = big_poly(&basis, 3);
        let b = big_poly(&basis, 4);
        // Input-count mismatch against the spec's declared slots.
        assert!(matches!(
            service.submit_rns(
                &handle,
                RnsRequest::new(PipelineSpec::polymul(), vec![a.clone()]),
            ),
            Err(BpNttError::InvalidPipeline { .. })
        ));
        // Wrong degree.
        assert!(matches!(
            service.submit_rns(&handle, RnsRequest::polymul(a[..63].to_vec(), b.clone())),
            Err(BpNttError::Rns(bpntt_rns::RnsError::WrongLength { .. }))
        ));
        // Unreduced coefficient (≥ Q).
        let mut bad = a.clone();
        bad[5] = basis.modulus().clone();
        assert!(matches!(
            service.submit_rns(&handle, RnsRequest::polymul(bad, b)),
            Err(BpNttError::Rns(bpntt_rns::RnsError::Unreduced { index: 5 }))
        ));
        let m = service.shutdown();
        assert_eq!(m.submitted, 0, "invalid RNS requests never enter the queue");
        assert_eq!(m.rns_requests, 0);
    }

    #[test]
    fn rns_group_admits_all_limbs_or_sheds_whole() {
        // Queue of 2 cannot hold a 3-limb group: the submission sheds as
        // one unit — no partial limb set is ever admitted.
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                max_queue: 2,
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let a = big_poly(&basis, 5);
        let b = big_poly(&basis, 6);
        match service.submit_rns(&handle, RnsRequest::polymul(a, b)) {
            Err(BpNttError::Overloaded { capacity: 2, .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let m = service.shutdown();
        assert_eq!(m.submitted, 0, "no limb of a shed group is enqueued");
        assert_eq!(m.rejected, 1, "the group sheds once, not per limb");
        assert_eq!(m.rns_requests, 0);
    }

    #[test]
    fn rns_group_spends_one_rate_limit_token() {
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                rate_limit: Some(RateLimit {
                    requests_per_sec: 0.001,
                    burst: 2.0,
                }),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        // Two whole groups fit the burst of 2 — a group is one logical
        // request, not three.
        let t1 = service
            .submit_rns(
                &handle,
                RnsRequest::polymul(big_poly(&basis, 7), big_poly(&basis, 8)),
            )
            .unwrap();
        let t2 = service
            .submit_rns(
                &handle,
                RnsRequest::polymul(big_poly(&basis, 9), big_poly(&basis, 10)),
            )
            .unwrap();
        // The third group exhausts the lead limb's bucket.
        assert!(matches!(
            service.submit_rns(
                &handle,
                RnsRequest::polymul(big_poly(&basis, 11), big_poly(&basis, 12)),
            ),
            Err(BpNttError::RateLimited { .. })
        ));
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        let m = service.shutdown();
        assert_eq!(m.rns_requests, 2);
        assert_eq!(m.rate_limited, 1);
    }

    #[test]
    fn rns_limb_groups_share_compiled_artifacts() {
        // A second RNS group over the same basis and geometry compiles
        // nothing: registration warms 3 canned specs per limb, all found
        // in the shared artifact cache.
        let service = NttService::start(&config8(), ServiceOptions::default()).unwrap();
        let basis = rns_basis64();
        let h1 = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let before = service.metrics();
        let h2 = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let after = service.metrics();
        assert_eq!(
            after.pipeline_cache_entries, before.pipeline_cache_entries,
            "every limb of the second group must reuse compiled plans"
        );
        assert_eq!(after.pipeline_compile_ms, before.pipeline_compile_ms);
        assert!(
            after.pipeline_cache_hits - before.pipeline_cache_hits >= 3 * basis.limbs() as u64,
            "one hit per canned spec per limb"
        );
        // Both groups still compute correctly.
        let a = big_poly(&basis, 13);
        let b = big_poly(&basis, 14);
        let expect = bpntt_rns::reference::negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        for h in [&h1, &h2] {
            let got = service
                .submit_rns(h, RnsRequest::polymul(a.clone(), b.clone()))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(got.coefficients, expect);
        }
        let _ = service.shutdown();
    }

    #[test]
    fn rns_groups_over_one_basis_share_limb_waves() {
        // Two groups over one basis register six limb tenants on three
        // limb configurations: three engines, not six. Submitted
        // together (the queue cap makes their six limbs the coalescing
        // target), they run as three limb waves of two lanes each.
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                max_queue: 6,
                coalesce_window: Duration::from_secs(30),
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let basis = rns_basis64();
        let h1 = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let h2 = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let (a1, b1) = (big_poly(&basis, 21), big_poly(&basis, 22));
        let (a2, b2) = (big_poly(&basis, 23), big_poly(&basis, 24));
        let expect1 = bpntt_rns::reference::negacyclic_polymul_basis(&a1, &b1, &basis).unwrap();
        let expect2 = bpntt_rns::reference::negacyclic_polymul_basis(&a2, &b2, &basis).unwrap();
        let t1 = service
            .submit_rns(&h1, RnsRequest::polymul(a1, b1))
            .unwrap();
        let t2 = service
            .submit_rns(&h2, RnsRequest::polymul(a2, b2))
            .unwrap();
        assert_eq!(t1.wait().unwrap().coefficients, expect1);
        assert_eq!(t2.wait().unwrap().coefficients, expect2);
        let m = service.shutdown();
        assert_eq!(
            m.engines,
            1 + basis.limbs(),
            "default + one engine per limb"
        );
        assert_eq!(
            m.waves,
            basis.limbs() as u64,
            "one wave per limb, not per limb tenant"
        );
        assert_eq!(m.wave_polys, 2 * basis.limbs() as u64);
        assert_eq!(
            m.rns_fanout_waves, 1,
            "the three limb waves share one round"
        );
        for &limb in h1.limb_tenants().iter().chain(h2.limb_tenants()) {
            let pt = &m.per_tenant[limb.raw() as usize];
            assert_eq!((pt.tenant, pt.completed), (limb.raw(), 1));
        }
    }

    #[test]
    fn rns_limb_fault_heals_before_reconstruction() {
        // A service-wide fault plan corrupts rows on every limb engine;
        // the per-limb recovery ladder (verify + retry) must heal each
        // limb before CRT reconstruction ever sees a corrupted residue.
        let service = NttService::start(
            &config8(),
            ServiceOptions {
                fault_plan: Some(FaultPlan::seeded(0xC0FFEE).transient_rate(1e-4)),
                verify: VerifyPolicy::Full,
                retry_budget: 2,
                ..ServiceOptions::default()
            },
        )
        .unwrap();
        let basis = rns_basis64();
        let handle = service.add_rns_tenant(140, 128, 16, &basis).unwrap();
        let a = big_poly(&basis, 15);
        let b = big_poly(&basis, 16);
        let expect = bpntt_rns::reference::negacyclic_polymul_basis(&a, &b, &basis).unwrap();
        let got = service
            .submit_rns(&handle, RnsRequest::polymul(a, b))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            got.coefficients, expect,
            "reconstruction must be exact despite injected limb faults"
        );
        let _ = service.shutdown();
    }
}

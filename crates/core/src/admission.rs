//! Admission: the one path every submission takes into the service's
//! queue. A single-prime request is a group of one request; an RNS
//! submission is a group of one request per residue limb. [`admit`]
//! treats both alike:
//!
//! * **Rate limit** — the group spends one token from its lead
//!   tenant's [`TokenBucket`] ([`RateLimit`]); an empty bucket sheds it
//!   typed with [`BpNttError::RateLimited`].
//! * **Tenant-fair shedding** — the group sheds typed with
//!   [`BpNttError::Overloaded`] when it does not fit the bounded queue,
//!   or when the queue is past its shedding threshold and the lead
//!   tenant already holds its fair share of it.
//! * **All or nothing** — an admitted group enters the [`FairQueue`]
//!   whole, so an RNS ticket never waits on a limb that was shed.
//!
//! The fair queue then releases requests to the dispatcher by deficit
//! round robin across tenants.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::error::BpNttError;
use crate::service::{RateLimit, Request, Shared, TenantId};

/// Deficit-round-robin quantum in bytes: the operand payload each tenant
/// with queued work may drain per round. It covers one request of two
/// 256-coefficient operands (8 bytes per coefficient); a larger request
/// takes several rounds to release.
pub(crate) const DRR_QUANTUM: u64 = 4096;

/// Deficit-round-robin fair queue keyed by tenant: one sub-queue per
/// tenant with pending work, a ring of those tenants in round order, and
/// a byte-weighted deficit per tenant. Each round the tenant at the ring
/// head gains `quantum` bytes of deficit and releases queued requests
/// while its deficit covers their operand cost; an exhausted deficit
/// rotates the ring. A zipf-hot tenant therefore drains at the same
/// byte rate as everyone else once the queue contends — it can saturate
/// idle capacity, never starve a peer.
pub(crate) struct FairQueue {
    sub: HashMap<TenantId, VecDeque<Request>>,
    /// Tenants with queued requests, in round order.
    ring: VecDeque<TenantId>,
    deficit: HashMap<TenantId, u64>,
    quantum: u64,
    len: usize,
}

impl FairQueue {
    pub(crate) fn new(quantum: u64) -> Self {
        FairQueue {
            sub: HashMap::new(),
            ring: VecDeque::new(),
            deficit: HashMap::new(),
            quantum: quantum.max(1),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, req: Request) {
        let q = self.sub.entry(req.tenant).or_default();
        if q.is_empty() {
            // (Re-)entering the ring starts from a clean deficit: credit
            // does not accrue while a tenant has nothing queued.
            self.ring.push_back(req.tenant);
            self.deficit.insert(req.tenant, 0);
        }
        q.push_back(req);
        self.len += 1;
    }

    pub(crate) fn earliest_deadline(&self) -> Option<Instant> {
        self.sub.values().flatten().filter_map(|r| r.deadline).min()
    }

    /// When the dispatcher, coalescing since `started`, stops waiting for
    /// company: one `window` after the oldest queued admission, so a
    /// request that already waited behind a wave does not wait a second
    /// window. The exception is the requesters the last wave answered
    /// (`last_wave`: requests per tenant): closed-loop clients about to
    /// resubmit are awaited for up to one window from `started`, so they
    /// share a concurrent round instead of alternating rounds.
    pub(crate) fn coalesce_deadline(
        &self,
        last_wave: &HashMap<TenantId, usize>,
        started: Instant,
        window: Duration,
    ) -> Instant {
        if !last_wave.iter().all(|(t, &n)| self.depth_of(*t) >= n) {
            return started + window;
        }
        // Sub-queues are FIFO: the oldest admission is at some head.
        let oldest = self
            .sub
            .values()
            .filter_map(VecDeque::front)
            .map(|r| r.admitted)
            .min();
        oldest.unwrap_or(started) + window
    }

    /// Per-tenant queued depths, for the metrics snapshot.
    pub(crate) fn depths(&self) -> HashMap<TenantId, usize> {
        self.sub.iter().map(|(t, q)| (*t, q.len())).collect()
    }

    /// One tenant's queued depth, for fair-share admission.
    pub(crate) fn depth_of(&self, tenant: TenantId) -> usize {
        self.sub.get(&tenant).map_or(0, VecDeque::len)
    }

    /// One DRR drain of up to `max` requests into `out`. The ring head
    /// gains `quantum` deficit per visit and releases requests while the
    /// deficit covers their cost; an emptied tenant leaves the ring, an
    /// exhausted one rotates behind its peers.
    pub(crate) fn drain_round(&mut self, max: usize, out: &mut Vec<Request>) {
        while out.len() < max && self.len > 0 {
            let Some(&tenant) = self.ring.front() else {
                break;
            };
            let deficit = self.deficit.entry(tenant).or_insert(0);
            *deficit = deficit.saturating_add(self.quantum);
            let q = self
                .sub
                .get_mut(&tenant)
                .expect("ring tenant has a sub-queue");
            while out.len() < max {
                let Some(head) = q.front() else { break };
                if head.cost > *deficit {
                    break;
                }
                *deficit -= head.cost;
                out.push(q.pop_front().expect("front() was Some"));
                self.len -= 1;
            }
            if q.is_empty() {
                self.ring.pop_front();
                self.sub.remove(&tenant);
                self.deficit.remove(&tenant);
            } else if out.len() < max {
                // Deficit exhausted with work left: next tenant's turn.
                self.ring.rotate_left(1);
            }
        }
    }

    /// Removes every queued request that already expired or whose ticket
    /// was cancelled, so dead work sheds typed before it costs a wave
    /// lane (or blocks a live request behind it in the sub-queue).
    pub(crate) fn remove_dead(&mut self, now: Instant) -> Vec<Request> {
        let mut dead = Vec::new();
        for q in self.sub.values_mut() {
            // In place: the dispatcher looks twice per wave, and dead
            // work is rare.
            let mut i = 0;
            while i < q.len() {
                let r = &q[i];
                if r.deadline.is_some_and(|d| d <= now) || r.reply.is_cancelled() {
                    dead.push(q.remove(i).expect("index is in bounds"));
                } else {
                    i += 1;
                }
            }
        }
        if !dead.is_empty() {
            self.len -= dead.len();
            let emptied: Vec<TenantId> = self
                .sub
                .iter()
                .filter(|(_, q)| q.is_empty())
                .map(|(t, _)| *t)
                .collect();
            for t in &emptied {
                self.sub.remove(t);
                self.deficit.remove(t);
            }
            self.ring.retain(|t| !emptied.contains(t));
        }
        dead
    }

    /// Empties the whole queue (shutdown paths; fairness no longer
    /// matters when every drained request fails typed).
    pub(crate) fn drain_all(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.len);
        for (_, q) in self.sub.drain() {
            out.extend(q);
        }
        self.ring.clear();
        self.deficit.clear();
        self.len = 0;
        out
    }
}

/// One tenant's token bucket ([`RateLimit`] admission state).
pub(crate) struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// Refills for elapsed time, then takes one token — or reports how
    /// many milliseconds until one is available.
    fn admit(&mut self, limit: RateLimit, now: Instant) -> Result<(), u64> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * limit.requests_per_sec).min(limit.burst.max(1.0));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let need = 1.0 - self.tokens;
        let ms = if limit.requests_per_sec > 0.0 {
            (need / limit.requests_per_sec * 1e3).ceil() as u64
        } else {
            // A zero-rate limit never refills; report a long, finite
            // back-off instead of dividing by zero.
            60_000
        };
        Err(ms.max(1))
    }
}

/// `retry_after_ms` hint: how long until the dispatcher has likely
/// drained `depth` requests at its recent rate. Never zero; clamped so a
/// cold or stalled estimate cannot tell clients "never retry".
fn retry_hint(drain_rate: f64, depth: usize) -> u64 {
    if drain_rate > 1e-9 {
        ((((depth + 1) as f64) / drain_rate * 1e3).ceil() as u64).clamp(1, 30_000)
    } else {
        50
    }
}

/// Admits one group of validated requests into the fair queue, or sheds
/// it whole. The group's first request leads it: the group spends one
/// rate-limit token from the lead tenant's bucket, and the shedding rule
/// weighs the lead tenant's share of the queue. Every member is counted
/// against its own tenant; an RNS group also counts once in
/// `rns_requests` and per limb in `rns_limbs`.
///
/// # Errors
///
/// [`BpNttError::RateLimited`], [`BpNttError::Overloaded`] (both with a
/// `retry_after_ms` hint), or [`BpNttError::ServiceShutdown`].
pub(crate) fn admit<G>(shared: &Shared, group: G) -> Result<(), BpNttError>
where
    G: IntoIterator<Item = Request>,
    G::IntoIter: ExactSizeIterator,
{
    let mut group = group.into_iter();
    let len = group.len();
    let lead = group.next().expect("an admission group has a lead request");
    let tenant = lead.tenant;
    // Token-bucket admission runs before queue-depth shedding: a
    // rate-limited tenant is told to back off even when the queue has
    // room, so its burst cannot crowd the shared queue.
    if let Some(limit) = shared.rate_limit {
        let now = Instant::now();
        let verdict = {
            let mut buckets = shared.buckets.lock().expect("rate buckets poisoned");
            buckets
                .entry(tenant)
                .or_insert_with(|| TokenBucket {
                    tokens: limit.burst.max(1.0),
                    last: now,
                })
                .admit(limit, now)
        };
        if let Err(retry_after_ms) = verdict {
            let mut m = shared.metrics.lock().expect("metrics poisoned");
            m.snap.rate_limited += 1;
            m.tenant(tenant).shed += 1;
            return Err(BpNttError::RateLimited {
                tenant: tenant.raw(),
                retry_after_ms,
            });
        }
    }
    let registered = shared.tenants.lock().expect("tenants poisoned").len();
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        if st.shutdown {
            return Err(BpNttError::ServiceShutdown);
        }
        // Load shedding: the configured threshold of the bounded
        // queue (1.0 = the historical full-queue backpressure).
        // Admission is *tenant-fair*: past the threshold, only
        // tenants at or above their fair share of the congested
        // queue shed; a below-share tenant may still use the
        // `shed_at..max_queue` headroom, so a flooding hot tenant
        // cannot crowd everyone else out of admission (it can still
        // starve itself — its own slots are the ones full).
        let shed_at = ((shared.shed_threshold * shared.max_queue as f64).floor() as usize)
            .min(shared.max_queue);
        let fair_share = (shed_at / registered.max(1)).max(1);
        let depth = st.queue.len();
        if depth + len > shared.max_queue
            || (depth >= shed_at && st.queue.depth_of(tenant) >= fair_share)
        {
            drop(st);
            let mut m = shared.metrics.lock().expect("metrics poisoned");
            let retry_after_ms = retry_hint(m.drain_rate, depth);
            m.tenant(tenant).shed += 1;
            return Err(BpNttError::Overloaded {
                depth,
                capacity: shared.max_queue,
                retry_after_ms,
            });
        }
        // Count the group before the state lock drops: once it does,
        // the dispatcher may complete its requests, and a snapshot must
        // never show completed > submitted. (Metrics nests inside state
        // here; nothing locks them the other way round.)
        let mut m = shared.metrics.lock().expect("metrics poisoned");
        if lead.rns {
            m.snap.rns_requests += 1;
            m.snap.rns_limbs += len as u64;
        }
        for req in std::iter::once(lead).chain(group) {
            let tc = m.tenant(req.tenant);
            tc.submitted += 1;
            tc.bytes += req.cost;
            st.queue.push(req);
        }
        m.snap.peak_queue_depth = m.snap.peak_queue_depth.max(st.queue.len());
    }
    shared.cv.notify_all();
    Ok(())
}

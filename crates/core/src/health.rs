//! Self-healing shard health: scoring, scrubbing, and canary
//! reintegration.
//!
//! PR 6's recovery ladder (detect → retry → quarantine → degrade, see
//! [`crate::RecoveryOptions`]) made quarantine a **one-way door**: a
//! shard hit by a transient fault burst stayed benched until an operator
//! called `lift_quarantine`, and under sustained chaos a service degraded
//! monotonically toward the ~5-6× slower software fallback. This module
//! is the missing half of that fault model — automated recovery:
//!
//! * [`HealthMonitor`] keeps a per-shard state machine
//!   (`healthy → quarantined → probing → canary → healthy`) plus a fault
//!   history with **exponential time decay**, so a burst that stopped
//!   minutes ago scores near zero while persistent damage (every probe
//!   keeps failing, every canary wave keeps faulting) keeps the score —
//!   and therefore the bench — high.
//! * The **scrubber** ([`ShardedBpNtt::scrub_pass`](crate::ShardedBpNtt::scrub_pass),
//!   driven periodically by the service's background scrubber thread)
//!   runs seeded **known-answer probes** against quarantined shards: a
//!   compiled pipeline executes probe-owned inputs and the rows are
//!   compared reference-exact against precomputed software-reference
//!   output. Between waves it also *patrol-scrubs* idle healthy shards,
//!   so a latent stuck-at cell is found by a probe instead of by tenant
//!   traffic.
//! * A quarantined shard that passes [`HealthOptions::probes_to_canary`]
//!   consecutive probes re-enters service in **canary** mode: it may
//!   claim wave chunks again, but every chunk it touches is checked
//!   under [`VerifyPolicy::Full`](crate::VerifyPolicy), regardless of
//!   the wave's configured policy — a still-flaky shard cannot corrupt a
//!   spot-checked chunk. After
//!   [`HealthOptions::canary_waves_to_healthy`] clean canary waves the
//!   shard is promoted back to full duty (a **reintegration**); a canary
//!   failure re-quarantines it with **doubled** probe backoff (capped at
//!   [`HealthOptions::max_probe_backoff`]).
//!
//! # Contract with the fault model
//!
//! The PR 6 contract was: transients are consumed by the failing run
//! (retry helps), persistent faults are re-imposed every tick (retry
//! cannot help; quarantine the array). This module extends it: *all*
//! quarantines are now leases, not verdicts. The probe/canary ladder is
//! the proof-of-repair protocol — a shard only regains full duty by
//! producing reference-exact output repeatedly, first on probe data
//! (zero tenant exposure), then on fully verified tenant chunks (zero
//! unverified exposure). Persistent damage therefore converges to
//! "benched with exponentially backed-off probes", while a healed burst
//! (e.g. a [`FaultPlan::active_between`](bpntt_sram::FaultPlan::active_between)
//! window that closed) converges back to full-speed hardware waves with
//! no operator involvement.
//!
//! All transition logic takes time as an explicit `now` in seconds, so
//! every threshold is deterministic and unit-testable without sleeping.

use std::time::Duration;

/// Knobs for the scrubbing / canary-reintegration ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthOptions {
    /// Base interval between known-answer probes of a quarantined
    /// shard (doubled per canary demotion, capped at
    /// [`Self::max_probe_backoff`]).
    pub probe_interval: Duration,
    /// Consecutive probe passes required to promote a quarantined shard
    /// to canary duty (the ISSUE's `N`).
    pub probes_to_canary: u32,
    /// Clean canary waves required to promote a canary back to full
    /// duty (the ISSUE's `M`).
    pub canary_waves_to_healthy: u32,
    /// Upper bound on the per-shard probe backoff.
    pub max_probe_backoff: Duration,
    /// Half-life of the exponentially decayed per-shard fault score:
    /// after one half-life, a recorded fault counts half.
    pub decay_half_life: Duration,
    /// A quarantined shard is only probed once its decayed score falls
    /// to this threshold — a shard still being hammered is not worth
    /// probe cycles yet.
    pub probe_score_threshold: f64,
    /// Patrol-scrub idle healthy shards between waves.
    pub patrol: bool,
    /// Interval between patrol probes of one healthy shard.
    pub patrol_interval: Duration,
}

impl Default for HealthOptions {
    fn default() -> Self {
        HealthOptions {
            probe_interval: Duration::from_millis(100),
            probes_to_canary: 2,
            canary_waves_to_healthy: 2,
            max_probe_backoff: Duration::from_secs(5),
            decay_half_life: Duration::from_secs(10),
            probe_score_threshold: 8.0,
            patrol: true,
            patrol_interval: Duration::from_secs(1),
        }
    }
}

impl HealthOptions {
    /// Aggressive knobs for tests and chaos drills: tiny intervals,
    /// single-probe promotion, one clean canary wave.
    #[must_use]
    pub fn aggressive() -> Self {
        HealthOptions {
            probe_interval: Duration::from_millis(1),
            probes_to_canary: 1,
            canary_waves_to_healthy: 1,
            max_probe_backoff: Duration::from_millis(50),
            decay_half_life: Duration::from_millis(20),
            probe_score_threshold: 1e9,
            patrol: true,
            patrol_interval: Duration::from_millis(5),
        }
    }
}

/// Where one shard sits in the healing state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealthState {
    /// Full duty: claims chunks under the wave's configured verify
    /// policy.
    Healthy,
    /// Benched and under scrub: at least one known-answer probe has
    /// passed since quarantine, but not yet enough for canary duty.
    Probing,
    /// Back in service on a leash: claims chunks, but every chunk it
    /// touches is verified under `VerifyPolicy::Full`.
    Canary,
    /// Benched: claims no chunks; eligible for known-answer probes.
    Quarantined,
}

impl ShardHealthState {
    /// Stable metrics encoding (`0` healthy, `1` canary, `2` probing,
    /// `3` quarantined) — ordered by distance from full duty.
    #[must_use]
    pub fn as_code(self) -> u8 {
        match self {
            ShardHealthState::Healthy => 0,
            ShardHealthState::Canary => 1,
            ShardHealthState::Probing => 2,
            ShardHealthState::Quarantined => 3,
        }
    }

    /// Stable lowercase name for exports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealthState::Healthy => "healthy",
            ShardHealthState::Probing => "probing",
            ShardHealthState::Canary => "canary",
            ShardHealthState::Quarantined => "quarantined",
        }
    }
}

/// A state-machine edge a probe or canary wave just took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// Enough consecutive probe passes: quarantined/probing → canary.
    EnteredCanary,
    /// Enough clean canary waves: canary → healthy.
    Reintegrated,
    /// A canary wave faulted: canary → quarantined, backoff doubled.
    Demoted,
}

/// Cumulative healing-ladder counters (their growth is harvested into
/// [`ServiceMetrics::health`](crate::ServiceMetrics::health) by the
/// service layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Known-answer probes executed (quarantine scrub + patrol).
    pub probes_run: u64,
    /// Probes whose rows matched the reference exactly.
    pub probes_passed: u64,
    /// Shards promoted canary → healthy (full reintegrations).
    pub reintegrations: u64,
    /// Canary shards re-quarantined by a faulting wave.
    pub canary_demotions: u64,
    /// Patrol probes of healthy shards (subset of `probes_run`).
    pub patrol_probes: u64,
    /// Healthy shards quarantined *by a patrol probe* (latent damage
    /// found before tenant traffic hit it).
    pub patrol_quarantines: u64,
}

impl HealthCounters {
    /// Adds `other`, counter by counter.
    pub(crate) fn accumulate(&mut self, other: Self) {
        *self = self.zip(other, u64::saturating_add);
    }

    /// Growth since an earlier reading of the same counters (saturating
    /// at zero per counter).
    pub(crate) fn since(self, earlier: Self) -> Self {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(self, other: Self, f: fn(u64, u64) -> u64) -> Self {
        Self {
            probes_run: f(self.probes_run, other.probes_run),
            probes_passed: f(self.probes_passed, other.probes_passed),
            reintegrations: f(self.reintegrations, other.reintegrations),
            canary_demotions: f(self.canary_demotions, other.canary_demotions),
            patrol_probes: f(self.patrol_probes, other.patrol_probes),
            patrol_quarantines: f(self.patrol_quarantines, other.patrol_quarantines),
        }
    }
}

/// Per-shard healing state.
#[derive(Debug, Clone)]
struct ShardSlot {
    state: ShardHealthState,
    /// Consecutive probe passes since (re-)quarantine.
    probe_passes: u32,
    /// Clean canary waves since canary entry.
    clean_canary_waves: u32,
    /// Current probe backoff in seconds (doubles per demotion).
    backoff_secs: f64,
    /// Monotonic second at which the next probe is allowed.
    next_probe_at: f64,
    /// Monotonic second at which the next patrol probe is allowed.
    next_patrol_at: f64,
    /// Exponentially decayed fault score…
    score: f64,
    /// …as of this monotonic second.
    score_at: f64,
}

/// The per-shard healing state machine: fault scoring with exponential
/// time decay, probe scheduling with backoff, and the
/// quarantined → probing → canary → healthy promotion ladder. Pure and
/// deterministic — callers supply monotonic time as `now` seconds (the
/// sharded engine uses its construction instant's elapsed time).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    opts: HealthOptions,
    slots: Vec<ShardSlot>,
    counters: HealthCounters,
}

impl HealthMonitor {
    /// A monitor for `shards` shards, all healthy.
    #[must_use]
    pub fn new(shards: usize, opts: HealthOptions) -> Self {
        HealthMonitor {
            slots: (0..shards)
                .map(|_| ShardSlot {
                    state: ShardHealthState::Healthy,
                    probe_passes: 0,
                    clean_canary_waves: 0,
                    backoff_secs: opts.probe_interval.as_secs_f64(),
                    next_probe_at: 0.0,
                    next_patrol_at: opts.patrol_interval.as_secs_f64(),
                    score: 0.0,
                    score_at: 0.0,
                })
                .collect(),
            opts,
            counters: HealthCounters::default(),
        }
    }

    /// The active knobs.
    #[must_use]
    pub fn options(&self) -> &HealthOptions {
        &self.opts
    }

    /// Replaces the knobs and re-arms every shard's probe backoff and
    /// patrol timer at the new cadence: a demotion-doubled backoff in
    /// progress resets to the new base, and every shard becomes
    /// immediately eligible for its next probe/patrol — the first scrub
    /// pass after a reconfiguration is a full baseline check.
    pub fn set_options(&mut self, opts: HealthOptions) {
        let base = opts.probe_interval.as_secs_f64();
        for s in &mut self.slots {
            s.backoff_secs = base;
            s.next_probe_at = 0.0;
            s.next_patrol_at = 0.0;
        }
        self.opts = opts;
    }

    /// Number of shards tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the monitor tracks zero shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Cumulative ladder counters.
    #[must_use]
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// The state of shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn state(&self, idx: usize) -> ShardHealthState {
        self.slots[idx].state
    }

    /// Every shard's state, indexed by shard.
    #[must_use]
    pub fn states(&self) -> Vec<ShardHealthState> {
        self.slots.iter().map(|s| s.state).collect()
    }

    /// Whether shard `idx` is benched (quarantined or probing) and must
    /// not claim wave chunks.
    #[must_use]
    pub fn is_benched(&self, idx: usize) -> bool {
        matches!(
            self.slots[idx].state,
            ShardHealthState::Quarantined | ShardHealthState::Probing
        )
    }

    /// Whether shard `idx` is on canary duty (claims chunks, but only
    /// under `VerifyPolicy::Full`).
    #[must_use]
    pub fn is_canary(&self, idx: usize) -> bool {
        self.slots[idx].state == ShardHealthState::Canary
    }

    /// The decayed fault score of shard `idx` at `now` seconds.
    #[must_use]
    pub fn score(&self, idx: usize, now: f64) -> f64 {
        let s = &self.slots[idx];
        decay(s.score, now - s.score_at, self.opts.decay_half_life)
    }

    /// Records one detected fault on shard `idx` (wave verification
    /// failure, worker panic, failed probe): the score decays to `now`,
    /// then gains 1.
    pub fn record_fault(&mut self, idx: usize, now: f64) {
        let half_life = self.opts.decay_half_life;
        let s = &mut self.slots[idx];
        s.score = decay(s.score, now - s.score_at, half_life) + 1.0;
        s.score_at = now;
    }

    /// Benches shard `idx` (ladder exhaustion, operator action, or a
    /// failed patrol probe). Resets the promotion progress; the probe
    /// backoff is kept (it only grows via canary demotion and resets on
    /// reintegration or an operator lift).
    pub fn quarantine(&mut self, idx: usize, now: f64) {
        let s = &mut self.slots[idx];
        s.state = ShardHealthState::Quarantined;
        s.probe_passes = 0;
        s.clean_canary_waves = 0;
        s.next_probe_at = now + s.backoff_secs;
    }

    /// Operator override: returns shard `idx` straight to full duty and
    /// forgets its fault history and backoff.
    pub fn lift(&mut self, idx: usize) {
        let base = self.opts.probe_interval.as_secs_f64();
        let s = &mut self.slots[idx];
        s.state = ShardHealthState::Healthy;
        s.probe_passes = 0;
        s.clean_canary_waves = 0;
        s.backoff_secs = base;
        s.score = 0.0;
    }

    /// Whether the scrubber should run a known-answer probe against
    /// benched shard `idx` now: the backoff interval has elapsed *and*
    /// the decayed score has cooled below the probe threshold.
    #[must_use]
    pub fn due_for_probe(&self, idx: usize, now: f64) -> bool {
        self.is_benched(idx)
            && now >= self.slots[idx].next_probe_at
            && self.score(idx, now) <= self.opts.probe_score_threshold
    }

    /// Whether the scrubber should patrol-probe *healthy* shard `idx`.
    #[must_use]
    pub fn due_for_patrol(&self, idx: usize, now: f64) -> bool {
        self.opts.patrol
            && self.slots[idx].state == ShardHealthState::Healthy
            && now >= self.slots[idx].next_patrol_at
    }

    /// Records a patrol probe of a healthy shard. A failure benches the
    /// shard immediately — the probe found latent damage before tenant
    /// traffic did.
    pub fn record_patrol(&mut self, idx: usize, passed: bool, now: f64) {
        self.counters.probes_run += 1;
        self.counters.patrol_probes += 1;
        self.slots[idx].next_patrol_at = now + self.opts.patrol_interval.as_secs_f64();
        if passed {
            self.counters.probes_passed += 1;
        } else {
            self.counters.patrol_quarantines += 1;
            self.record_fault(idx, now);
            self.quarantine(idx, now);
        }
    }

    /// Records a known-answer probe of a benched shard. Enough
    /// consecutive passes promote it to canary duty; a failure resets
    /// the streak and re-arms the backoff.
    pub fn record_probe(&mut self, idx: usize, passed: bool, now: f64) -> Option<HealthTransition> {
        self.counters.probes_run += 1;
        if !passed {
            self.record_fault(idx, now);
            let s = &mut self.slots[idx];
            s.state = ShardHealthState::Quarantined;
            s.probe_passes = 0;
            s.next_probe_at = now + s.backoff_secs;
            return None;
        }
        self.counters.probes_passed += 1;
        let probes_to_canary = self.opts.probes_to_canary;
        let s = &mut self.slots[idx];
        s.probe_passes += 1;
        s.next_probe_at = now + s.backoff_secs;
        if s.probe_passes >= probes_to_canary {
            s.state = ShardHealthState::Canary;
            s.probe_passes = 0;
            s.clean_canary_waves = 0;
            Some(HealthTransition::EnteredCanary)
        } else {
            s.state = ShardHealthState::Probing;
            None
        }
    }

    /// Records the outcome of one wave in which canary shard `idx`
    /// participated. Enough clean waves reintegrate it (backoff and
    /// score reset — the shard has proven itself); a faulting wave
    /// demotes it back to quarantine with **doubled** probe backoff.
    pub fn record_canary_wave(
        &mut self,
        idx: usize,
        clean: bool,
        now: f64,
    ) -> Option<HealthTransition> {
        let opts = self.opts;
        if clean {
            let s = &mut self.slots[idx];
            s.clean_canary_waves += 1;
            if s.clean_canary_waves >= opts.canary_waves_to_healthy {
                s.state = ShardHealthState::Healthy;
                s.clean_canary_waves = 0;
                s.backoff_secs = opts.probe_interval.as_secs_f64();
                s.score = 0.0;
                s.next_patrol_at = now + opts.patrol_interval.as_secs_f64();
                self.counters.reintegrations += 1;
                Some(HealthTransition::Reintegrated)
            } else {
                None
            }
        } else {
            self.record_fault(idx, now);
            let cap = opts.max_probe_backoff.as_secs_f64();
            let s = &mut self.slots[idx];
            s.backoff_secs = (s.backoff_secs * 2.0).min(cap);
            s.state = ShardHealthState::Quarantined;
            s.probe_passes = 0;
            s.clean_canary_waves = 0;
            s.next_probe_at = now + s.backoff_secs;
            self.counters.canary_demotions += 1;
            Some(HealthTransition::Demoted)
        }
    }
}

/// `score` after `dt` seconds of exponential decay with `half_life`.
fn decay(score: f64, dt: f64, half_life: Duration) -> f64 {
    let hl = half_life.as_secs_f64();
    if score == 0.0 || dt <= 0.0 || hl <= 0.0 {
        return score;
    }
    score * (-std::f64::consts::LN_2 * dt / hl).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> HealthOptions {
        HealthOptions {
            probe_interval: Duration::from_secs(1),
            probes_to_canary: 2,
            canary_waves_to_healthy: 2,
            max_probe_backoff: Duration::from_secs(8),
            decay_half_life: Duration::from_secs(10),
            probe_score_threshold: 4.0,
            patrol: true,
            patrol_interval: Duration::from_secs(5),
        }
    }

    #[test]
    fn score_decays_with_the_configured_half_life() {
        let mut m = HealthMonitor::new(1, opts());
        m.record_fault(0, 0.0);
        m.record_fault(0, 0.0);
        assert!((m.score(0, 0.0) - 2.0).abs() < 1e-12);
        // One half-life: exactly half remains.
        assert!((m.score(0, 10.0) - 1.0).abs() < 1e-12);
        // Two half-lives: a quarter.
        assert!((m.score(0, 20.0) - 0.5).abs() < 1e-12);
        // Recording at t=10 decays first, then adds: 1 + 1 = 2.
        m.record_fault(0, 10.0);
        assert!((m.score(0, 10.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn persistent_hammering_defers_probes_until_scores_cool() {
        let mut m = HealthMonitor::new(1, opts());
        for _ in 0..8 {
            m.record_fault(0, 0.0);
        }
        m.quarantine(0, 0.0);
        // Backoff elapsed but the score (8) is above the threshold (4):
        // a shard still being hammered is not probed.
        assert!(!m.due_for_probe(0, 2.0));
        // One half-life later the score is 4 → eligible.
        assert!(m.due_for_probe(0, 10.0));
    }

    #[test]
    fn probe_passes_promote_to_canary_and_failures_reset_the_streak() {
        let mut m = HealthMonitor::new(1, opts());
        m.quarantine(0, 0.0);
        assert_eq!(m.state(0), ShardHealthState::Quarantined);
        assert!(!m.due_for_probe(0, 0.5), "backoff not yet elapsed");
        assert!(m.due_for_probe(0, 1.0));

        assert_eq!(m.record_probe(0, true, 1.0), None);
        assert_eq!(m.state(0), ShardHealthState::Probing);
        assert!(m.is_benched(0), "probing shards still claim no chunks");
        // A failure resets the streak to zero…
        assert_eq!(m.record_probe(0, false, 2.0), None);
        assert_eq!(m.state(0), ShardHealthState::Quarantined);
        // …so two more passes are needed for canary.
        assert_eq!(m.record_probe(0, true, 3.0), None);
        assert_eq!(
            m.record_probe(0, true, 4.0),
            Some(HealthTransition::EnteredCanary)
        );
        assert_eq!(m.state(0), ShardHealthState::Canary);
        assert!(!m.is_benched(0));
        assert!(m.is_canary(0));
        let c = m.counters();
        assert_eq!(c.probes_run, 4);
        assert_eq!(c.probes_passed, 3);
    }

    #[test]
    fn clean_canary_waves_reintegrate_and_reset_backoff() {
        let mut m = HealthMonitor::new(1, opts());
        m.quarantine(0, 0.0);
        m.record_probe(0, true, 1.0);
        m.record_probe(0, true, 2.0);
        assert!(m.is_canary(0));
        assert_eq!(m.record_canary_wave(0, true, 3.0), None);
        assert_eq!(
            m.record_canary_wave(0, true, 4.0),
            Some(HealthTransition::Reintegrated)
        );
        assert_eq!(m.state(0), ShardHealthState::Healthy);
        assert_eq!(m.counters().reintegrations, 1);
        assert!(
            (m.score(0, 4.0)).abs() < 1e-12,
            "reintegration clears history"
        );
    }

    #[test]
    fn canary_failure_requarantines_with_doubled_capped_backoff() {
        let mut m = HealthMonitor::new(1, opts());
        m.quarantine(0, 0.0);
        // First demotion: backoff 1 s → 2 s.
        m.record_probe(0, true, 1.0);
        m.record_probe(0, true, 2.0);
        assert_eq!(
            m.record_canary_wave(0, false, 3.0),
            Some(HealthTransition::Demoted)
        );
        assert_eq!(m.state(0), ShardHealthState::Quarantined);
        assert!(!m.due_for_probe(0, 4.9), "doubled backoff: due at 3 + 2 s");
        assert!(m.due_for_probe(0, 5.0));
        // Keep demoting: 4, 8, then capped at 8.
        for (demote_at, expect_next) in [(6.0, 10.0), (11.0, 19.0), (20.0, 28.0)] {
            m.record_probe(0, true, demote_at - 1.0);
            m.record_probe(0, true, demote_at - 0.5);
            m.record_canary_wave(0, false, demote_at);
            assert!(!m.due_for_probe(0, expect_next - 0.1));
            assert!(m.due_for_probe(0, expect_next));
        }
        assert_eq!(m.counters().canary_demotions, 4);
        // An operator lift resets the backoff to base.
        m.lift(0);
        assert_eq!(m.state(0), ShardHealthState::Healthy);
        m.quarantine(0, 100.0);
        assert!(m.due_for_probe(0, 101.0));
    }

    #[test]
    fn patrol_failure_benches_a_healthy_shard() {
        let mut m = HealthMonitor::new(2, opts());
        assert!(!m.due_for_patrol(0, 1.0), "patrol interval not elapsed");
        assert!(m.due_for_patrol(0, 5.0));
        m.record_patrol(0, true, 5.0);
        assert_eq!(m.state(0), ShardHealthState::Healthy);
        assert!(!m.due_for_patrol(0, 6.0), "re-armed after the pass");
        assert!(m.due_for_patrol(1, 5.0));
        m.record_patrol(1, false, 5.0);
        assert_eq!(m.state(1), ShardHealthState::Quarantined);
        let c = m.counters();
        assert_eq!(c.patrol_probes, 2);
        assert_eq!(c.patrol_quarantines, 1);
        // Patrol can be disabled wholesale.
        let mut off = opts();
        off.patrol = false;
        m.set_options(off);
        assert!(!m.due_for_patrol(0, 1000.0));
    }
}

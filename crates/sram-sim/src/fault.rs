//! Deterministic fault injection for the in-SRAM substrate.
//!
//! BP-NTT computes *inside* 6T SRAM subarrays — exactly the class of
//! compute-in-memory hardware where transient read upsets, stuck-at
//! cells, and dead wordlines are first-order reliability concerns. This
//! module models those failure modes as a seeded, fully deterministic
//! [`FaultPlan`] installed on a [`Controller`](crate::Controller):
//!
//! * **Transient bit-flips** — a one-shot inversion of one stored bit,
//!   modeling a read upset that corrupts the cell it sensed. Addressed
//!   (`(instruction index, row, bit)`) via [`FaultPlan::transient_at`],
//!   or drawn at a per-instruction rate via [`FaultPlan::transient_rate`]
//!   from the plan's seeded xorshift generator. A transient fires once
//!   and is consumed, so re-running the same computation (the recovery
//!   ladder's *retry* rung) observes clean state.
//! * **Stuck-at cells** — a cell pinned to 0 or 1
//!   ([`FaultPlan::stuck_at`]). Re-imposed at every injection point, so
//!   writes through the cell are overridden — retry does not help; the
//!   recovery ladder must *quarantine* the owning array.
//! * **Dead rows / wordlines** — an entire row reading as zero
//!   ([`FaultPlan::dead_row`]), the wordline-driver failure mode.
//! * **Hard faults** — [`FaultPlan::hard_fault_at`] panics the executing
//!   thread at a chosen instruction index, modeling the
//!   assertion-on-latch-up class of failures that takes down the whole
//!   array controller rather than corrupting data. The sharded engine's
//!   `catch_unwind` isolation converts this into a typed error.
//!
//! # Injection points and determinism
//!
//! Faults are applied by `Controller::fault_tick`, a single hook called
//! once per *instruction batch boundary* on both execution paths —
//! compiled-program replay and strictly per-instruction generic
//! emission — plus every costed data-row load/read. The
//! instruction clock is `Stats::counts.total()`, which the bit-identity
//! contract guarantees is mode-independent, so an addressed fault at
//! instruction `i` lands at the first batch boundary where the clock has
//! passed `i` in *every* mode. Boundaries never fall inside a
//! zero-terminated resolution loop or inside a typed butterfly epilogue
//! (each [`EpilogueOp`](crate::EpilogueOp) is one batch on both paths),
//! so injected data corruption is always presented to a *complete*
//! subsequent computation (the loops' `max_checks` convergence bound
//! holds for arbitrary data states at loop entry, not for mid-loop
//! mutation).
//!
//! Rate-based draws use geometric skipping (O(faults), not
//! O(instructions)) from the plan's seed, so a given
//! `(seed, rate, execution trace)` always injects the same faults.
//!
//! When no plan is installed the hook is a single `Option` check;
//! [`Stats`](crate::Stats) are never touched by injection, so the
//! replay ≡ emission bit-identity contract is unaffected (and with an
//! empty plan the contract holds verbatim).

/// One addressed transient: flip `bit` of `row` once the instruction
/// clock reaches `at_instr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TransientAt {
    pub(crate) at_instr: u64,
    pub(crate) row: usize,
    pub(crate) bit: usize,
}

/// One stuck-at cell: `bit` of `row` always reads as `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StuckCell {
    pub(crate) row: usize,
    pub(crate) bit: usize,
    pub(crate) value: bool,
}

/// A seeded, deterministic description of the faults to inject into one
/// [`Controller`](crate::Controller). Build with the chained setters and
/// install with `Controller::install_fault_plan`; see the
/// [module docs](self) for the fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub(crate) seed: u64,
    pub(crate) transients: Vec<TransientAt>,
    pub(crate) transient_rate: f64,
    pub(crate) stuck: Vec<StuckCell>,
    pub(crate) dead_rows: Vec<usize>,
    pub(crate) hard_fault_at: Option<u64>,
    /// Inclusive instruction-clock window outside which the plan is
    /// inert (see [`FaultPlan::active_between`]).
    pub(crate) active_lo: u64,
    pub(crate) active_hi: u64,
}

impl FaultPlan {
    /// An empty plan with the given RNG seed (used by rate-based
    /// transient draws and random flip placement).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            transients: Vec::new(),
            transient_rate: 0.0,
            stuck: Vec::new(),
            dead_rows: Vec::new(),
            hard_fault_at: None,
            active_lo: 0,
            active_hi: u64::MAX,
        }
    }

    /// Adds an addressed transient: flip `bit` of `row` at the first
    /// batch boundary where the instruction clock has reached
    /// `at_instr`.
    #[must_use]
    pub fn transient_at(mut self, at_instr: u64, row: usize, bit: usize) -> Self {
        self.transients.push(TransientAt { at_instr, row, bit });
        self
    }

    /// Sets a per-instruction transient probability in `[0, 1]`: each
    /// executed instruction independently flips one uniformly chosen bit
    /// with probability `rate` (realized deterministically from the
    /// seed via geometric skipping).
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not a probability.
    #[must_use]
    pub fn transient_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate) && rate.is_finite(),
            "transient rate must lie in [0, 1]"
        );
        self.transient_rate = rate;
        self
    }

    /// Pins `bit` of `row` to `value` (re-imposed at every injection
    /// point, so writes through the cell are overridden).
    #[must_use]
    pub fn stuck_at(mut self, row: usize, bit: usize, value: bool) -> Self {
        self.stuck.push(StuckCell { row, bit, value });
        self
    }

    /// Kills an entire row: it reads as all-zero from the first
    /// injection point onward (a dead wordline).
    #[must_use]
    pub fn dead_row(mut self, row: usize) -> Self {
        self.dead_rows.push(row);
        self
    }

    /// Trips a controller panic at the first batch boundary where the
    /// instruction clock has reached `at_instr` — the hard-fault mode
    /// the sharded engine's `catch_unwind` isolation must contain.
    #[must_use]
    pub fn hard_fault_at(mut self, at_instr: u64) -> Self {
        self.hard_fault_at = Some(at_instr);
        self
    }

    /// Bounds the plan to the inclusive instruction-clock window
    /// `[instr_lo, instr_hi]`: outside it no fault of any kind fires and
    /// persistent (stuck-at / dead-row) state is *not* re-imposed — the
    /// substrate behaves as if fully repaired. This is how tests and
    /// chaos drills model a transient *burst* that should heal (and be
    /// healed from, by the scrubber) rather than permanent damage.
    ///
    /// Addressed transients and hard faults whose trigger index falls
    /// before `instr_lo` fire at the first boundary inside the window;
    /// ones still pending when the clock passes `instr_hi` expire
    /// silently.
    ///
    /// # Panics
    ///
    /// Panics when `instr_lo > instr_hi`.
    #[must_use]
    pub fn active_between(mut self, instr_lo: u64, instr_hi: u64) -> Self {
        assert!(
            instr_lo <= instr_hi,
            "fault window must be non-empty (lo {instr_lo} > hi {instr_hi})"
        );
        self.active_lo = instr_lo;
        self.active_hi = instr_hi;
        self
    }

    /// The inclusive instruction-clock window in which the plan is live
    /// (`(0, u64::MAX)` unless [`FaultPlan::active_between`] bounded it).
    #[must_use]
    pub fn active_window(&self) -> (u64, u64) {
        (self.active_lo, self.active_hi)
    }

    /// Whether the instruction clock `now` falls inside the active
    /// window.
    #[must_use]
    pub fn window_contains(&self, now: u64) -> bool {
        (self.active_lo..=self.active_hi).contains(&now)
    }

    /// Returns the same plan reseeded with `seed` — how a sharded engine
    /// derives per-shard-independent randomness from one chaos plan.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transients.is_empty()
            && self.transient_rate == 0.0
            && self.stuck.is_empty()
            && self.dead_rows.is_empty()
            && self.hard_fault_at.is_none()
    }
}

/// Counters describing what an installed plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient bit-flips applied (addressed + rate-drawn).
    pub transients: u64,
    /// Batch boundaries at which stuck-at / dead-row state was
    /// re-imposed (0 when the plan has no persistent faults).
    pub persistent_imposications: u64,
}

/// Runtime state of an installed [`FaultPlan`]: the seeded generator,
/// the cursor over addressed transients, and the next rate-drawn
/// injection point. Owned by the controller behind an `Option<Box<_>>`
/// so the absent case costs one pointer test.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: u64,
    /// Next addressed transient to fire (`plan.transients` is sorted by
    /// `at_instr` at install).
    cursor: usize,
    /// Instruction-clock value at which the next rate-drawn transient
    /// fires (`u64::MAX` when rate is zero).
    next_rate_at: u64,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(mut plan: FaultPlan) -> Self {
        plan.transients.sort_by_key(|t| t.at_instr);
        let mut st = FaultState {
            rng: plan.seed | 1,
            plan,
            cursor: 0,
            next_rate_at: u64::MAX,
            stats: FaultStats::default(),
        };
        // Burn a few draws so small seeds decorrelate.
        for _ in 0..4 {
            st.next_u64();
        }
        st.next_rate_at = st.draw_next_rate_at(0);
        st
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Uniform f64 in `(0, 1]` (never exactly zero, so `ln` is finite).
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Geometric skip: the clock value of the next rate-drawn transient
    /// strictly after `now`.
    fn draw_next_rate_at(&mut self, now: u64) -> u64 {
        let p = self.plan.transient_rate;
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return now.saturating_add(1);
        }
        let u = self.next_unit();
        let skip = (u.ln() / (1.0 - p).ln()).floor();
        let skip = if skip.is_finite() && skip >= 0.0 {
            skip as u64
        } else {
            0
        };
        now.saturating_add(1).saturating_add(skip)
    }

    /// Collects every transient flip due at instruction clock `now` into
    /// `out` as `(row, bit)` pairs (addressed faults first, then
    /// rate-drawn ones placed uniformly in `rows × cols`). Also reports
    /// whether a hard fault is due.
    pub(crate) fn collect_due(
        &mut self,
        now: u64,
        rows: usize,
        cols: usize,
        out: &mut Vec<(usize, usize)>,
    ) -> bool {
        let (lo, hi) = (self.plan.active_lo, self.plan.active_hi);
        while let Some(t) = self.plan.transients.get(self.cursor) {
            if t.at_instr > now || now < lo {
                // Not yet due, or the window has not opened: an
                // addressed fault before the window fires at the first
                // boundary inside it.
                break;
            }
            // Past `hi` the pending fault expires silently.
            if now <= hi {
                out.push((t.row.min(rows - 1), t.bit.min(cols - 1)));
            }
            self.cursor += 1;
        }
        while self.next_rate_at <= now {
            let at = self.next_rate_at;
            let r = (self.next_u64() % rows as u64) as usize;
            let b = (self.next_u64() % cols as u64) as usize;
            // The draw sequence is window-independent (same seed, same
            // trace → same draws); the window only gates delivery.
            if (lo..=hi).contains(&at) {
                out.push((r, b));
            }
            self.next_rate_at = self.draw_next_rate_at(at);
        }
        self.stats.transients += out.len() as u64;
        match self.plan.hard_fault_at {
            Some(at) if at.max(lo) <= now => {
                // Fire at most once even if the panic is caught; a hard
                // fault still pending when the window closes expires.
                self.plan.hard_fault_at = None;
                now <= hi
            }
            _ => false,
        }
    }

    /// Whether the plan carries persistent (stuck-at / dead-row) state
    /// that must be re-imposed at instruction clock `now` — false
    /// outside the plan's active window, which is how a windowed plan
    /// models damage that heals.
    pub(crate) fn persistent_active(&self, now: u64) -> bool {
        (!self.plan.stuck.is_empty() || !self.plan.dead_rows.is_empty())
            && self.plan.window_contains(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_reports_empty() {
        assert!(FaultPlan::seeded(7).is_empty());
        let p = FaultPlan::seeded(7)
            .transient_at(10, 3, 5)
            .stuck_at(1, 0, true)
            .dead_row(2)
            .transient_rate(0.5)
            .hard_fault_at(99);
        assert!(!p.is_empty());
        assert_eq!(p.transients.len(), 1);
        assert_eq!(p.stuck.len(), 1);
        assert_eq!(p.dead_rows, vec![2]);
        assert_eq!(p.hard_fault_at, Some(99));
    }

    #[test]
    #[should_panic(expected = "transient rate")]
    fn rejects_non_probability_rate() {
        let _ = FaultPlan::seeded(1).transient_rate(1.5);
    }

    #[test]
    fn addressed_transients_fire_once_in_order() {
        let mut st = FaultState::new(
            FaultPlan::seeded(3)
                .transient_at(20, 1, 1)
                .transient_at(10, 0, 0),
        );
        let mut out = Vec::new();
        assert!(!st.collect_due(5, 8, 8, &mut out));
        assert!(out.is_empty());
        assert!(!st.collect_due(15, 8, 8, &mut out));
        assert_eq!(out, vec![(0, 0)]);
        out.clear();
        assert!(!st.collect_due(100, 8, 8, &mut out));
        assert_eq!(out, vec![(1, 1)]);
        out.clear();
        // Consumed: nothing fires again.
        assert!(!st.collect_due(1000, 8, 8, &mut out));
        assert!(out.is_empty());
        assert_eq!(st.stats.transients, 2);
    }

    #[test]
    fn rate_draws_are_deterministic_and_scale() {
        let count = |seed: u64, rate: f64, horizon: u64| {
            let mut st = FaultState::new(FaultPlan::seeded(seed).transient_rate(rate));
            let mut out = Vec::new();
            st.collect_due(horizon, 64, 64, &mut out);
            out
        };
        assert_eq!(count(9, 0.01, 10_000), count(9, 0.01, 10_000));
        let lo = count(9, 0.001, 100_000).len() as f64;
        let hi = count(9, 0.01, 100_000).len() as f64;
        assert!(
            hi > 4.0 * lo,
            "10× rate must draw far more faults ({lo} vs {hi})"
        );
        // Roughly rate × horizon (loose 3× band: it is one random draw).
        assert!((hi / 1000.0) > 0.33 && (hi / 1000.0) < 3.0, "hi = {hi}");
        assert!(count(9, 0.0, 1_000_000).is_empty());
    }

    #[test]
    fn window_gates_every_fault_class() {
        // Rate draws outside [lo, hi] are suppressed; inside they fire.
        let mut st = FaultState::new(
            FaultPlan::seeded(9)
                .transient_rate(0.5)
                .active_between(100, 200),
        );
        let mut out = Vec::new();
        st.collect_due(99, 8, 8, &mut out);
        assert!(out.is_empty(), "no rate draws before the window opens");
        st.collect_due(200, 8, 8, &mut out);
        assert!(!out.is_empty(), "the window admits the burst");
        out.clear();
        st.collect_due(10_000, 8, 8, &mut out);
        assert!(out.is_empty(), "the burst heals after the window closes");

        // An addressed transient before the window fires at the first
        // boundary inside it; one pending past the window expires.
        let mut st = FaultState::new(
            FaultPlan::seeded(9)
                .transient_at(50, 1, 1)
                .transient_at(150, 2, 2)
                .active_between(100, 120),
        );
        let mut out = Vec::new();
        st.collect_due(60, 8, 8, &mut out);
        assert!(out.is_empty());
        st.collect_due(110, 8, 8, &mut out);
        assert_eq!(out, vec![(1, 1)]);
        out.clear();
        st.collect_due(500, 8, 8, &mut out);
        assert!(out.is_empty(), "transient due past the window expires");

        // Persistent state is only re-imposed inside the window.
        let st = FaultState::new(
            FaultPlan::seeded(9)
                .stuck_at(0, 0, true)
                .active_between(10, 20),
        );
        assert!(!st.persistent_active(9));
        assert!(st.persistent_active(10));
        assert!(st.persistent_active(20));
        assert!(!st.persistent_active(21));

        // Hard faults: deferred into the window, expired past it.
        let mut st = FaultState::new(FaultPlan::seeded(9).hard_fault_at(5).active_between(10, 20));
        let mut out = Vec::new();
        assert!(!st.collect_due(9, 8, 8, &mut out));
        assert!(st.collect_due(10, 8, 8, &mut out));
        let mut st = FaultState::new(FaultPlan::seeded(9).hard_fault_at(5).active_between(1, 3));
        assert!(!st.collect_due(50, 8, 8, &mut out), "expired hard fault");
    }

    #[test]
    #[should_panic(expected = "fault window")]
    fn rejects_inverted_window() {
        let _ = FaultPlan::seeded(1).active_between(10, 5);
    }

    #[test]
    fn hard_fault_fires_once() {
        let mut st = FaultState::new(FaultPlan::seeded(1).hard_fault_at(10));
        let mut out = Vec::new();
        assert!(!st.collect_due(9, 8, 8, &mut out));
        assert!(st.collect_due(10, 8, 8, &mut out));
        assert!(!st.collect_due(11, 8, 8, &mut out));
    }
}

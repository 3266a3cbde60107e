//! Fault injection for the round engine: lossy links, adversarial
//! bandwidth schedules, crashing nodes, and transient errors — all
//! seeded and deterministic.
//!
//! The paper's CONGEST algorithms assume a flawless synchronous network;
//! a production simulator must also answer *"what happens when the
//! network is not flawless?"*. This module provides the answer's
//! vocabulary:
//!
//! * a [`FaultPlan`] is an immutable, seeded description of everything
//!   that goes wrong during a run — per-half-edge message **drops** and
//!   **truncations**, a **budget schedule** that tightens or restores the
//!   CONGEST bit budget mid-run, **crash/sleep windows** during which a
//!   node neither sends nor receives, probabilistic per-round node
//!   **sleeps**, and **injected transient errors** that abort a round the
//!   way a `BandwidthExceeded` violation would;
//! * a [`RetryPolicy`] tells the engine how often to re-execute a failed
//!   round (`max_retries`) and how many idle *stall* rounds each retry
//!   costs (`backoff_rounds`).
//!
//! Every fault decision is a **pure function** of
//! `(plan seed, round, attempt, index)` — never of executor, thread
//! count, or iteration order — so pooled and sequential
//! execution of the same plan produce byte-identical states and metrics
//! (asserted by `tests/faults.rs`). A plan with all rates zero, no
//! windows, and no schedule is a true no-op: the run is byte-identical
//! to one with no plan attached at all.
//!
//! Semantics (see DESIGN.md §9 for the full contract):
//!
//! * a **dropped** message is lost at the sender: it is not delivered,
//!   costs no bits, and is counted in `messages_dropped`;
//! * a **truncated** message crosses the wire cut down to the configured
//!   cap: it is not delivered (the simulator transports typed values, so
//!   a partial value is a lost value), is charged `min(bits, cap)` bits,
//!   and is counted in `messages_dropped`;
//! * a **crashed/sleeping** node composes and consumes nothing that
//!   round; its state is untouched, messages addressed to it are spent
//!   but unprocessed, and it is counted in `faulted_nodes`;
//! * an **injected error** (or a bandwidth violation under a tightened
//!   budget) aborts the attempt before any state changes; with a
//!   [`RetryPolicy`] the engine re-runs the round with the sender states
//!   unchanged (compose never mutates state, so rollback is free) and a
//!   bumped attempt counter, re-deriving every fault decision.

use ldc_graph::NodeId;

use crate::engine::Bandwidth;

/// splitmix64 finalizer — the deterministic mixing step behind every
/// fault decision.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain-separation salts for the fault families (distinct streams per
/// family from one seed).
const SALT_DROP: u64 = 0xD80F;
const SALT_TRUNCATE: u64 = 0x7123;
const SALT_SLEEP: u64 = 0x51EE;
const SALT_ERROR: u64 = 0xE443;

/// A crash/sleep window: `node` is down for rounds
/// `from_round..until_round` (half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The affected node.
    pub node: NodeId,
    /// First faulty round (0-based engine round index).
    pub from_round: usize,
    /// First round the node is back up (exclusive end).
    pub until_round: usize,
}

/// A seeded, deterministic description of the faults injected into a run.
///
/// Build one with the `with_*` methods, attach it via
/// [`crate::Network::set_fault_plan`]:
///
/// ```
/// use ldc_sim::{FaultPlan, RetryPolicy};
///
/// let plan = FaultPlan::new(7)
///     .with_drop_rate(0.05)
///     .with_budget_step(10, Some(8))   // tighten to 8 bits from round 10
///     .with_budget_step(20, None)      // restore the configured budget
///     .with_crash(3, 5, 9);            // node 3 down for rounds 5..9
/// assert!(!plan.is_noop());
/// let retry = RetryPolicy { max_retries: 3, backoff_rounds: 1 };
/// assert_eq!(retry.max_retries, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    truncate_rate: f64,
    truncate_cap_bits: u64,
    sleep_rate: f64,
    error_rate: f64,
    /// `(from_round, budget)` steps, sorted by round; `Some(bits)` imposes
    /// a CONGEST budget of `bits` (use `u64::MAX` for ∞), `None` restores
    /// the network's configured bandwidth.
    budget_schedule: Vec<(usize, Option<u64>)>,
    crash_windows: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan with the given seed and *no* faults (a no-op until
    /// configured).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            truncate_cap_bits: 0,
            sleep_rate: 0.0,
            error_rate: 0.0,
            budget_schedule: Vec::new(),
            crash_windows: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive the same plan with `epoch` folded into the seed. Restart
    /// layers (e.g. `ldc_core`'s `Resilient` wrapper) use this so each
    /// restart faces fresh — but still deterministic — fault draws.
    #[must_use]
    pub fn with_epoch(&self, epoch: u64) -> FaultPlan {
        let mut p = self.clone();
        p.seed = mix64(self.seed ^ mix64(epoch.wrapping_add(0xE90C)));
        p
    }

    /// Drop each half-edge message independently with probability `rate`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0,1]");
        self.drop_rate = rate;
        self
    }

    /// Truncate each (surviving) message independently with probability
    /// `rate`: the message is charged `min(bits, cap_bits)` bits and lost.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_truncation(mut self, rate: f64, cap_bits: u64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&rate),
            "truncate rate must be in [0,1]"
        );
        self.truncate_rate = rate;
        self.truncate_cap_bits = cap_bits;
        self
    }

    /// Put each node to sleep each round independently with probability
    /// `rate` (in addition to any [`CrashWindow`]s).
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_sleep_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "sleep rate must be in [0,1]");
        self.sleep_rate = rate;
        self
    }

    /// Abort each round attempt with probability `rate` via an injected
    /// [`crate::SimError::InjectedFault`] — the transient-error family.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_error_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0,1]");
        self.error_rate = rate;
        self
    }

    /// Add a budget-schedule step: from round `from_round` on, enforce a
    /// per-message budget of `bits` (`Some(u64::MAX)` lifts the limit,
    /// `None` restores the network's configured bandwidth). Steps apply in
    /// round order; the latest step at or before the current round wins.
    #[must_use]
    pub fn with_budget_step(mut self, from_round: usize, bits: Option<u64>) -> FaultPlan {
        self.budget_schedule.push((from_round, bits));
        self.budget_schedule.sort_by_key(|&(r, _)| r);
        self
    }

    /// Crash `node` for rounds `from_round..until_round`.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, from_round: usize, until_round: usize) -> FaultPlan {
        self.crash_windows.push(CrashWindow {
            node,
            from_round,
            until_round,
        });
        self
    }

    /// `true` iff this plan can never perturb a run: all rates zero, no
    /// crash windows, and every budget step either restores the configured
    /// bandwidth or lifts the limit entirely.
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.truncate_rate == 0.0
            && self.sleep_rate == 0.0
            && self.error_rate == 0.0
            && self.crash_windows.is_empty()
            && self
                .budget_schedule
                .iter()
                .all(|&(_, b)| b.is_none() || b == Some(u64::MAX))
    }

    #[inline]
    fn chance(&self, salt: u64, round: usize, attempt: u32, idx: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut h = mix64(self.seed ^ salt);
        h = mix64(h ^ round as u64);
        h = mix64(h ^ u64::from(attempt));
        h = mix64(h ^ idx);
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// Is the half-edge message in wire slot `slot` dropped this
    /// round/attempt?
    #[inline]
    pub fn drops(&self, round: usize, attempt: u32, slot: u64) -> bool {
        self.chance(SALT_DROP, round, attempt, slot, self.drop_rate)
    }

    /// Is the half-edge message in wire slot `slot` truncated this
    /// round/attempt? Returns the bit cap when so.
    #[inline]
    pub fn truncates(&self, round: usize, attempt: u32, slot: u64) -> Option<u64> {
        if self.chance(SALT_TRUNCATE, round, attempt, slot, self.truncate_rate) {
            Some(self.truncate_cap_bits)
        } else {
            None
        }
    }

    /// Is `node` down (crashed or asleep) this round/attempt?
    #[inline]
    pub fn faulted(&self, round: usize, attempt: u32, node: NodeId) -> bool {
        if self
            .crash_windows
            .iter()
            .any(|w| w.node == node && (w.from_round..w.until_round).contains(&round))
        {
            return true;
        }
        self.chance(SALT_SLEEP, round, attempt, u64::from(node), self.sleep_rate)
    }

    /// Does this round attempt fail with an injected transient error?
    #[inline]
    pub fn injects_error(&self, round: usize, attempt: u32) -> bool {
        self.chance(SALT_ERROR, round, attempt, 0, self.error_rate)
    }

    /// The bandwidth in force at `round`: the latest budget-schedule step
    /// at or before it, or `configured` if no step applies (or the
    /// applicable step is a restore).
    #[inline]
    pub fn bandwidth_at(&self, round: usize, configured: Bandwidth) -> Bandwidth {
        let mut cur: Option<Option<u64>> = None;
        for &(from, bits) in &self.budget_schedule {
            if from <= round {
                cur = Some(bits);
            } else {
                break;
            }
        }
        match cur {
            Some(Some(bits)) => Bandwidth::Congest {
                bits_per_message: bits,
            },
            Some(None) | None => configured,
        }
    }
}

/// How the engine re-executes failed rounds when a [`FaultPlan`] is
/// attached.
///
/// A failed attempt (injected error or bandwidth violation) is retried up
/// to `max_retries` times; each retry is preceded by `backoff_rounds`
/// idle *stall* rounds. Retries and stalls are counted in
/// [`crate::Metrics::rounds_retried`] / [`crate::Metrics::stalled_rounds`]
/// and attributed to the innermost open trace span. With no fault plan
/// attached the policy is inert: errors surface immediately, exactly as
/// without a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Maximum failed attempts to absorb per round (0 = fail fast).
    pub max_retries: u32,
    /// Idle rounds charged per retry (synchronous backoff).
    pub backoff_rounds: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let p = FaultPlan::new(1);
        assert!(p.is_noop());
        for r in 0..50 {
            for s in 0..50 {
                assert!(!p.drops(r, 0, s));
                assert!(p.truncates(r, 0, s).is_none());
                assert!(!p.faulted(r, 0, s as NodeId));
            }
            assert!(!p.injects_error(r, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_keyed() {
        let a = FaultPlan::new(7).with_drop_rate(0.3);
        let b = FaultPlan::new(7).with_drop_rate(0.3);
        let c = FaultPlan::new(8).with_drop_rate(0.3);
        let mut diverged = false;
        for r in 0..20 {
            for s in 0..100 {
                assert_eq!(a.drops(r, 0, s), b.drops(r, 0, s));
                diverged |= a.drops(r, 0, s) != c.drops(r, 0, s);
            }
        }
        assert!(diverged, "distinct seeds must give distinct streams");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let p = FaultPlan::new(3).with_drop_rate(0.25);
        let hits = (0..40_000u64).filter(|&s| p.drops(0, 0, s)).count();
        assert!((9_000..11_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn attempt_changes_the_draw() {
        let p = FaultPlan::new(5).with_error_rate(0.5);
        let per_attempt: Vec<bool> = (0..64).map(|a| p.injects_error(3, a)).collect();
        assert!(per_attempt.iter().any(|&x| x));
        assert!(per_attempt.iter().any(|&x| !x));
    }

    #[test]
    fn budget_schedule_steps_apply_in_order() {
        let p = FaultPlan::new(1)
            .with_budget_step(10, Some(8))
            .with_budget_step(5, Some(32))
            .with_budget_step(20, None)
            .with_budget_step(30, Some(u64::MAX));
        let local = Bandwidth::Local;
        assert_eq!(p.bandwidth_at(0, local), local);
        assert_eq!(
            p.bandwidth_at(5, local),
            Bandwidth::Congest {
                bits_per_message: 32
            }
        );
        assert_eq!(
            p.bandwidth_at(19, local),
            Bandwidth::Congest {
                bits_per_message: 8
            }
        );
        assert_eq!(p.bandwidth_at(25, local), local);
        assert_eq!(
            p.bandwidth_at(31, local),
            Bandwidth::Congest {
                bits_per_message: u64::MAX
            }
        );
        assert!(!p.is_noop(), "tightening steps are not a no-op");
    }

    #[test]
    fn restore_and_infinity_only_schedules_are_noops() {
        let p = FaultPlan::new(1)
            .with_budget_step(5, None)
            .with_budget_step(9, Some(u64::MAX));
        assert!(p.is_noop());
    }

    #[test]
    fn crash_windows_are_half_open() {
        let p = FaultPlan::new(1).with_crash(4, 2, 5);
        assert!(!p.faulted(1, 0, 4));
        assert!(p.faulted(2, 0, 4));
        assert!(p.faulted(4, 0, 4));
        assert!(!p.faulted(5, 0, 4));
        assert!(!p.faulted(3, 0, 5), "other nodes unaffected");
    }

    #[test]
    fn epoch_decorrelates_restarts() {
        let p = FaultPlan::new(9).with_drop_rate(0.5);
        let e1 = p.with_epoch(1);
        assert_eq!(e1, p.with_epoch(1), "epoch derivation is deterministic");
        assert_ne!(e1.seed(), p.seed(), "epochs rekey the plan");
        let same = (0..200u64)
            .filter(|&s| p.drops(0, 0, s) == e1.drops(0, 0, s))
            .count();
        assert!(same < 150, "epochs must decorrelate ({same}/200 agree)");
    }

    #[test]
    #[should_panic(expected = "drop rate")]
    fn rejects_out_of_range_rates() {
        let _ = FaultPlan::new(0).with_drop_rate(1.5);
    }
}

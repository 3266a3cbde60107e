//! Integration tests for the fault-injection layer: zero-fault plans are
//! proven no-ops, serial (one-thread) and pooled runs agree byte-for-byte
//! under the same seeded `FaultPlan`, metrics/trace attribution stays exact under faults, the
//! retry policy recovers from transient errors with sender state rolled
//! back, and the hot-path invariants (zero steady-state wire allocations)
//! survive fault application.

use ldc_graph::generators;
use ldc_rand::Rng;
use ldc_sim::trace::{
    CTR_FAULTED_NODES, CTR_MESSAGES_DROPPED, CTR_ROUNDS_RETRIED, CTR_STALLED_ROUNDS,
};
use ldc_sim::{
    Bandwidth, FaultPlan, MessageSize, Network, Outbox, RetryPolicy, RoundStats, SimError, Tracer,
};

#[derive(Clone, PartialEq, Debug)]
struct Ping(u64);

impl MessageSize for Ping {
    fn bits(&self) -> u64 {
        1 + (self.0 % 64)
    }
}

/// One deterministic mixing round (same as `engine_modes.rs`): any change
/// in which messages arrive changes the final states.
fn mix_round(net: &mut Network<'_>, states: &mut [u64]) -> Result<(), SimError> {
    net.exchange(
        states,
        |_v, s, out: &mut Outbox<'_, Ping>| out.broadcast(&Ping(*s)),
        |v, s, inbox| {
            let mut acc = *s ^ u64::from(v);
            for (port, m) in inbox.iter() {
                acc = acc
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(m.0 ^ port as u64);
            }
            *s = acc;
        },
    )
}

/// Final states, per-round metrics, messages dropped, faulted node-rounds.
type Mix = (Vec<u64>, Vec<RoundStats>, u64, u64);

/// Run `rounds` mixing rounds on `threads` engine threads (every round
/// eligible for the parallel path) under `plan` (if any); return the
/// outcome and how many rounds actually ran in parallel.
fn run_mix(
    g: &ldc_graph::Graph,
    plan: Option<FaultPlan>,
    threads: usize,
    rounds: usize,
) -> (Mix, usize) {
    let mut net = Network::new(g, Bandwidth::Local);
    net.set_threads(threads);
    net.set_parallel_threshold(0);
    if let Some(p) = plan {
        net.set_fault_plan(p);
    }
    let n = g.num_nodes();
    let mut states: Vec<u64> = (0..n as u64)
        .map(|v| v.wrapping_mul(7).rotate_left(9))
        .collect();
    for _ in 0..rounds {
        mix_round(&mut net, &mut states).unwrap();
    }
    let m = net.metrics();
    let mix = (
        states,
        m.per_round().to_vec(),
        m.messages_dropped(),
        m.faulted_nodes(),
    );
    (mix, net.parallel_rounds())
}

/// Satellite: a `FaultPlan` with drop-rate 0 and an all-∞ / all-restore
/// budget schedule must be byte-identical to a fault-free run — faults
/// off is a true no-op. Seeded property loop over graphs and plan seeds.
#[test]
fn zero_fault_plans_are_noops() {
    for case in 0..10u64 {
        let mut r = Rng::seed_from_u64(0xFA017 + case);
        let n = 30 + (r.gen_range(0..120u64) as usize);
        let p = 0.03 + (case as f64) * 0.015;
        let g = generators::gnp(n, p, case);
        let rounds = 2 + (case as usize % 4);

        let plan = FaultPlan::new(r.gen_range(0..u64::MAX))
            .with_drop_rate(0.0)
            .with_truncation(0.0, 1)
            .with_sleep_rate(0.0)
            .with_error_rate(0.0)
            .with_budget_step(0, Some(u64::MAX))
            .with_budget_step(rounds / 2, None);
        assert!(plan.is_noop());

        let (baseline, _) = run_mix(&g, None, 1, rounds);
        for threads in [1, 4] {
            let (faulty, _) = run_mix(&g, Some(plan.clone()), threads, rounds);
            assert_eq!(faulty, baseline, "case {case}: t{threads} diverged");
        }
        assert_eq!(baseline.2, 0, "no drops in a fault-free run");
        assert_eq!(baseline.3, 0, "no faulted nodes in a fault-free run");
    }
}

/// Pooled and serial (one-thread) runs produce
/// byte-identical final states and identical `Metrics` (including the new
/// drop/fault counters) under the *same* seeded lossy `FaultPlan`.
#[test]
fn all_exec_modes_agree_under_seeded_faults() {
    for case in 0..8u64 {
        let mut r = Rng::seed_from_u64(0xFA115 + case);
        let n = 40 + (r.gen_range(0..150u64) as usize);
        let g = generators::gnp(n, 0.08, case);
        let rounds = 3 + (case as usize % 3);

        let plan = FaultPlan::new(0xBEEF + case)
            .with_drop_rate(0.15)
            .with_truncation(0.10, 3)
            .with_sleep_rate(0.05)
            .with_crash((case % n as u64) as u32, 1, rounds);

        let (baseline, serial_parallel) = run_mix(&g, Some(plan.clone()), 1, rounds);
        assert_eq!(
            serial_parallel, 0,
            "case {case}: the reference must run serially"
        );
        assert!(
            baseline.2 > 0,
            "case {case}: the plan must actually drop something"
        );
        assert!(baseline.3 > 0, "case {case}: some node-round faults");
        let (faulty, parallel) = run_mix(&g, Some(plan.clone()), 4, rounds);
        assert!(parallel > 0, "case {case}: the pooled run must go parallel");
        assert_eq!(faulty, baseline, "case {case}: pooled diverged");
    }
}

/// A crashed node neither sends nor updates state for the whole window,
/// and is counted once per round in `faulted_nodes`.
#[test]
fn crash_window_freezes_the_node() {
    let g = generators::complete(10);
    let mut net = Network::new(&g, Bandwidth::Local);
    net.set_fault_plan(FaultPlan::new(1).with_crash(4, 1, 3));
    let mut states: Vec<u64> = (0..10).collect();
    mix_round(&mut net, &mut states).unwrap(); // round 0: all up
    let frozen = states[4];
    let before_others = states.clone();
    mix_round(&mut net, &mut states).unwrap(); // round 1: node 4 down
    mix_round(&mut net, &mut states).unwrap(); // round 2: node 4 down
    assert_eq!(states[4], frozen, "crashed node's state must not move");
    assert_ne!(states, before_others, "live nodes keep mixing");
    let pr = net.metrics().per_round();
    assert_eq!(
        pr.iter().map(|r| r.faulted_nodes).collect::<Vec<_>>(),
        vec![0, 1, 1]
    );
    // Its 9 outgoing messages are missing in the crashed rounds (messages
    // *to* it are still sent and charged).
    assert_eq!(pr[0].messages, 90);
    assert_eq!(pr[1].messages, 81);
    mix_round(&mut net, &mut states).unwrap(); // round 3: back up
    assert_ne!(states[4], frozen, "recovered node rejoins the protocol");
}

/// The budget schedule tightens and restores the CONGEST budget mid-run;
/// the violation reports the *effective* limit.
#[test]
fn budget_schedule_tightens_and_restores() {
    let g = generators::ring(8);
    let mut net = Network::new(
        &g,
        Bandwidth::Congest {
            bits_per_message: 16,
        },
    );
    net.set_fault_plan(
        FaultPlan::new(2)
            .with_budget_step(1, Some(4))
            .with_budget_step(2, None),
    );
    let mut states = vec![0u64; 8];
    let send_bits = |net: &mut Network<'_>, states: &mut Vec<u64>, payload: u64| {
        net.broadcast_exchange(states, move |_, _| Some(Ping(payload)), |_, _, _| {})
    };
    // Round 0: configured budget (16 bits) in force, 9-bit message fine.
    send_bits(&mut net, &mut states, 8).unwrap();
    // Round 1: tightened to 4 bits — the same message now violates.
    let err = send_bits(&mut net, &mut states, 8).unwrap_err();
    match err {
        SimError::BandwidthExceeded {
            bits, limit, round, ..
        } => {
            assert_eq!((bits, limit, round), (9, 4, 1));
        }
        other => panic!("expected BandwidthExceeded, got {other:?}"),
    }
    // A compliant message passes under the tight budget...
    send_bits(&mut net, &mut states, 2).unwrap();
    // ...and round 2 is back on the configured budget.
    send_bits(&mut net, &mut states, 8).unwrap();
    assert_eq!(net.metrics().rounds(), 3, "failed round is not counted");
}

/// Transient injected errors are absorbed by the retry policy: the round
/// eventually succeeds from unchanged sender state, retries/stalls are
/// counted in `Metrics` and mirrored into the open trace span, and failed
/// attempts never appear in `per_round`.
#[test]
fn retry_policy_recovers_from_injected_errors() {
    let g = generators::complete(12);
    let mut net = Network::new(&g, Bandwidth::Local);
    // error_rate 1/2: with 30 retries the chance of a full failure chain
    // is 2^-31 per round — deterministic in practice, and the *draws* are
    // seeded so the test itself is exactly reproducible.
    net.set_fault_plan(FaultPlan::new(0x7E57).with_error_rate(0.5));
    net.set_retry_policy(RetryPolicy {
        max_retries: 30,
        backoff_rounds: 2,
    });
    let tracer = Tracer::new();
    net.set_tracer(tracer.clone());

    let mut states: Vec<u64> = (0..12).collect();
    let mut clean = Network::new(&g, Bandwidth::Local);
    let mut clean_states = states.clone();
    {
        let _span = tracer.span("lossy-phase");
        for _ in 0..20 {
            mix_round(&mut net, &mut states).unwrap();
            mix_round(&mut clean, &mut clean_states).unwrap();
        }
    }
    assert_eq!(
        states, clean_states,
        "absorbed retries must not perturb the protocol"
    );
    let m = net.metrics();
    assert_eq!(m.rounds(), 20, "failed attempts are not rounds");
    assert!(
        m.rounds_retried() > 0,
        "error rate 0.5 must trigger retries"
    );
    assert_eq!(m.stalled_rounds(), m.rounds_retried() * 2);
    assert_eq!(m.per_round(), clean.metrics().per_round());

    // Trace counters sum exactly to the Metrics scalars.
    let span = tracer.report();
    let lossy = span.find("lossy-phase").unwrap();
    assert_eq!(lossy.counters[CTR_ROUNDS_RETRIED], m.rounds_retried());
    assert_eq!(lossy.counters[CTR_STALLED_ROUNDS], m.stalled_rounds());
    assert_eq!(span.total().rounds as usize, m.rounds());
}

/// With retries exhausted the transient error surfaces, the failed round
/// is invisible, and the network stays usable.
#[test]
fn exhausted_retries_surface_the_injected_fault() {
    let g = generators::ring(6);
    let mut net = Network::new(&g, Bandwidth::Local);
    net.set_fault_plan(FaultPlan::new(3).with_error_rate(1.0));
    net.set_retry_policy(RetryPolicy {
        max_retries: 2,
        backoff_rounds: 1,
    });
    let mut states = vec![0u64; 6];
    let err = mix_round(&mut net, &mut states).unwrap_err();
    match err {
        SimError::InjectedFault { round, attempt } => {
            assert_eq!((round, attempt), (0, 2), "fails on the last attempt");
        }
        other => panic!("expected InjectedFault, got {other:?}"),
    }
    assert_eq!(net.metrics().rounds(), 0);
    assert_eq!(net.metrics().rounds_retried(), 2);
    assert_eq!(net.metrics().stalled_rounds(), 2);
    assert!(err.to_string().contains("injected"));

    // Dropping the plan restores a fully usable fault-free network.
    net.clear_fault_plan();
    mix_round(&mut net, &mut states).unwrap();
    assert_eq!(net.metrics().rounds(), 1);
}

/// Without a fault plan the retry policy is inert: errors surface
/// immediately and nothing is counted as retried.
#[test]
fn retry_policy_is_inert_without_a_plan() {
    let g = generators::ring(6);
    let mut net = Network::new(
        &g,
        Bandwidth::Congest {
            bits_per_message: 4,
        },
    );
    net.set_retry_policy(RetryPolicy {
        max_retries: 5,
        backoff_rounds: 3,
    });
    let mut states = vec![0u64; 6];
    let err = net
        .broadcast_exchange(&mut states, |_, _| Some(Ping(40)), |_, _, _| {})
        .unwrap_err();
    assert!(matches!(err, SimError::BandwidthExceeded { .. }));
    assert_eq!(net.metrics().rounds_retried(), 0);
    assert_eq!(net.metrics().stalled_rounds(), 0);
}

/// Fault application must not break the PR 2 hot-path invariant: steady
/// state allocates no wire buffers, even with drops/truncations/sleeps
/// rewriting slots every round.
#[test]
fn fault_rounds_stay_allocation_free() {
    let g = generators::gnp(150, 0.1, 11);
    let mut net = Network::new(&g, Bandwidth::Local);
    net.set_fault_plan(
        FaultPlan::new(5)
            .with_drop_rate(0.2)
            .with_truncation(0.1, 2)
            .with_sleep_rate(0.1),
    );
    let mut states: Vec<u64> = (0..150).collect();
    for _ in 0..60 {
        mix_round(&mut net, &mut states).unwrap();
    }
    assert_eq!(
        net.wire_allocations(),
        1,
        "fault paths must reuse the wire buffer"
    );
    assert!(net.metrics().messages_dropped() > 0);
}

/// Drops and truncations are charged per the model: a dropped message
/// costs nothing, a truncated one is charged at the cap, and both are
/// counted in `messages_dropped`; per-span tracer counters mirror the
/// totals exactly.
#[test]
fn drop_accounting_and_trace_attribution_agree() {
    let g = generators::complete(20);
    let mut net = Network::new(&g, Bandwidth::Local);
    net.set_fault_plan(
        FaultPlan::new(21)
            .with_drop_rate(0.3)
            .with_truncation(0.2, 2),
    );
    let tracer = Tracer::new();
    net.set_tracer(tracer.clone());
    let mut states = vec![0u64; 20];
    {
        let _s = tracer.span("lossy");
        for _ in 0..10 {
            // 33-bit payload: truncation to 2 bits is observable in bits.
            net.broadcast_exchange(&mut states, |_, _| Some(Ping(32)), |_, _, _| {})
                .unwrap();
        }
    }
    let m = net.metrics();
    let slots = (20 * 19) as u64;
    let sent: u64 = m.total_messages();
    let dropped = m.messages_dropped();
    assert!(dropped > 0);
    // Every slot is either delivered+charged, truncated (charged, counted
    // dropped), or dropped (uncharged): sent counts delivered + truncated.
    assert!(sent <= slots * 10);
    assert!(sent + dropped >= slots * 10, "truncated are in both counts");
    // Max message is the full 33 bits; truncated ones contribute 2 bits.
    assert_eq!(m.max_message_bits(), 33);
    let lossy = tracer.report().find("lossy").unwrap().clone();
    assert_eq!(lossy.counters[CTR_MESSAGES_DROPPED], dropped);
    assert!(!lossy.counters.contains_key(CTR_FAULTED_NODES));
    assert_eq!(lossy.total_bits, m.total_bits());
}

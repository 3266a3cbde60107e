//! Integration tests for the round-engine hot path: steady-state buffer
//! reuse, zero per-round thread spawns in pooled mode, serial/parallel
//! equivalence (a pooled run and a one-thread run must be
//! indistinguishable in states and metrics), and recovery after a CONGEST
//! violation.

use ldc_graph::generators;
use ldc_rand::Rng;
use ldc_sim::pool::threads_spawned;
use ldc_sim::{Bandwidth, MessageSize, Metrics, Network, Outbox, RoundStats, SimError};

#[derive(Clone, PartialEq, Debug)]
struct Ping(u64);

impl MessageSize for Ping {
    fn bits(&self) -> u64 {
        1 + (self.0 % 64)
    }
}

/// One deterministic mixing round: every node broadcasts its state and
/// folds its inbox with a non-commutative hash, so any routing or
/// chunk-boundary mistake changes the final states.
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

/// Steady-state `exchange` must not touch the heap for wire buffers: one
/// allocation per message type at warm-up, zero afterwards.
#[test]
fn wire_buffers_allocated_once_across_many_rounds() {
    let g = generators::gnp(200, 0.05, 7);
    let mut net = Network::new(&g, Bandwidth::Local);
    let mut states: Vec<u64> = (0..200).collect();
    for _ in 0..100 {
        mix_round(&mut net, &mut states).unwrap();
    }
    assert_eq!(
        net.wire_allocations(),
        1,
        "wire must be reused, not reallocated"
    );

    // Alternating message types each keep their own reusable buffer.
    let mut flags = vec![false; 200];
    for _ in 0..20 {
        net.broadcast_exchange(&mut flags, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        mix_round(&mut net, &mut states).unwrap();
    }
    assert_eq!(net.wire_allocations(), 2, "one buffer per message type");
}

/// Pooled mode must spawn threads at most once (warm-up), never per round.
#[test]
fn pooled_mode_spawns_no_threads_per_round() {
    let g = generators::complete(120); // 14 280 slots
    let mut net = Network::new(&g, Bandwidth::Local);
    net.set_threads(4);
    net.set_parallel_threshold(0); // force the parallel path
    let mut states: Vec<u64> = (0..120).collect();
    // Warm up: pool workers spawn here at the latest.
    for _ in 0..3 {
        mix_round(&mut net, &mut states).unwrap();
    }
    assert!(
        net.parallel_rounds() >= 3,
        "rounds must take the pooled path"
    );
    let spawned = threads_spawned();
    for _ in 0..50 {
        mix_round(&mut net, &mut states).unwrap();
    }
    assert_eq!(
        threads_spawned(),
        spawned,
        "steady-state rounds must not spawn threads"
    );
}

/// Pooled-parallel and serial (one-thread) execution must produce
/// byte-identical states and identical per-round metrics, across seeds,
/// graph shapes, and thread counts (t = 2/4/8 — the bench sweep's
/// widths; chunking changes with `t`, output must not).
#[test]
fn all_exec_modes_agree_across_seeds() {
    for case in 0..12u64 {
        let mut r = Rng::seed_from_u64(0xE9E9 + case);
        let n = 50 + (r.gen_range(0..200u64) as usize);
        let p = 0.02 + (case as f64) * 0.01;
        let g = generators::gnp(n, p, case);
        let rounds = 3 + (case as usize % 4);

        let run = |threads: usize| -> (Vec<u64>, Vec<RoundStats>, usize) {
            let mut net = Network::new(&g, Bandwidth::Local);
            net.set_threads(threads);
            net.set_parallel_threshold(0);
            let mut states: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(case + 1)).collect();
            for _ in 0..rounds {
                mix_round(&mut net, &mut states).unwrap();
            }
            (
                states,
                net.metrics().per_round().to_vec(),
                net.parallel_rounds(),
            )
        };

        let (seq_states, seq_rounds, seq_parallel) = run(1);
        assert_eq!(
            seq_parallel, 0,
            "case {case}: the reference must run serially"
        );
        for threads in [2usize, 4, 8] {
            let (states, per_round, parallel) = run(threads);
            assert_eq!(
                parallel, rounds,
                "case {case}: pooled@t{threads} must go parallel"
            );
            assert_eq!(
                states, seq_states,
                "case {case}: pooled@t{threads} states diverged"
            );
            assert_eq!(
                per_round, seq_rounds,
                "case {case}: pooled@t{threads} metrics diverged"
            );
        }
    }
}

/// A `BandwidthExceeded` round must leave the network fully usable: the
/// failed round is not counted in metrics or trace, and the next round
/// starts from a clean wire (no stale messages).
#[test]
fn network_recovers_after_bandwidth_exceeded() {
    for threads in [1, 4] {
        let g = generators::complete(64);
        let mut net = Network::new(
            &g,
            Bandwidth::Congest {
                bits_per_message: 8,
            },
        );
        net.set_threads(threads);
        net.set_parallel_threshold(0);
        let tracer = ldc_sim::Tracer::new();
        net.set_tracer(tracer.clone());
        let mut states = vec![0u64; 64];

        // One clean round first, so recovery is measured against real state.
        net.broadcast_exchange(
            &mut states,
            |_, _| Some(Ping(5)),
            |_, s, inbox| {
                *s += inbox.iter().count() as u64;
            },
        )
        .unwrap();
        let clean = net.metrics().clone();
        assert_eq!(clean.rounds(), 1);

        // Violating round: node 7 sends an oversized message on port 2.
        let err = net
            .exchange(
                &mut states,
                |v, _, out: &mut Outbox<'_, Ping>| {
                    if v == 7 {
                        out.send(2, Ping(63)); // 1 + 63 = 64 bits > 8
                    } else {
                        out.broadcast(&Ping(1));
                    }
                },
                |_, _, _| panic!("consume must not run on a failed round"),
            )
            .unwrap_err();
        match err {
            SimError::BandwidthExceeded {
                round,
                node,
                port,
                bits,
                limit,
            } => {
                assert_eq!((round, node, port, bits, limit), (1, 7, 2, 64, 8));
            }
            other => panic!("expected BandwidthExceeded, got {other:?}"),
        }
        // Failed round is invisible in metrics...
        assert_eq!(net.metrics().rounds(), clean.rounds(), "t{threads}");
        assert_eq!(net.metrics().total_bits(), clean.total_bits(), "t{threads}");

        // ...and the next round is clean: every node sees exactly its
        // neighbors' fresh messages, no leftovers from the failed round.
        net.broadcast_exchange(
            &mut states,
            |_, _| Some(Ping(2)),
            |_, s, inbox| {
                assert_eq!(inbox.iter().count(), 63);
                assert!(inbox.iter().all(|(_, m)| *m == Ping(2)));
                *s += 1;
            },
        )
        .unwrap();
        assert_eq!(net.metrics().rounds(), 2, "t{threads}");

        // Tracer agrees with metrics (the trace_attribution invariant):
        // only successful rounds were emitted.
        let root = tracer.report();
        assert_eq!(
            root.total().rounds as usize,
            net.metrics().rounds(),
            "t{threads}"
        );
        assert_eq!(
            root.total().total_bits,
            net.metrics().total_bits(),
            "t{threads}"
        );
    }
}

/// The violation reported by a parallel run must be the same one a
/// sequential scan finds: the globally first in (node, port) order.
#[test]
fn violation_choice_is_deterministic_across_modes() {
    let g = generators::complete(100);
    let offenders = [13u32, 41, 77];
    let run = |threads: usize| -> SimError {
        let mut net = Network::new(
            &g,
            Bandwidth::Congest {
                bits_per_message: 4,
            },
        );
        net.set_threads(threads);
        net.set_parallel_threshold(0);
        let mut states = vec![0u8; 100];
        net.exchange(
            &mut states,
            |v, _, out: &mut Outbox<'_, Ping>| {
                if offenders.contains(&v) {
                    out.broadcast(&Ping(40)); // 41 bits, oversized
                }
            },
            |_, _, _| {},
        )
        .unwrap_err()
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4));
    match sequential {
        SimError::BandwidthExceeded { node, port, .. } => {
            assert_eq!((node, port), (13, 0), "first offender in node order");
        }
        other => panic!("expected BandwidthExceeded, got {other:?}"),
    }
}

/// Metrics from runs split across differently-parallel networks still
/// compose (mirrors multi-phase pipelines that mix dense and sparse
/// subgraphs).
#[test]
fn metrics_compose_across_modes() {
    let g = generators::gnp(150, 0.1, 3);
    let mut seq = Network::new(&g, Bandwidth::Local);
    seq.set_threads(1);
    let mut par = Network::new(&g, Bandwidth::Local);
    par.set_threads(4);
    par.set_parallel_threshold(0);
    // Run the same round on identical copies of the initial state so the
    // two networks must account identically.
    let init: Vec<u64> = (0..150).collect();
    let mut states = init.clone();
    mix_round(&mut seq, &mut states).unwrap();
    let mut states = init;
    mix_round(&mut par, &mut states).unwrap();
    let mut total = Metrics::default();
    total.extend_from(seq.metrics());
    total.extend_from(par.metrics());
    assert_eq!(total.rounds(), 2);
    assert_eq!(
        total.per_round()[0],
        total.per_round()[1],
        "same round on same states must account identically"
    );
}

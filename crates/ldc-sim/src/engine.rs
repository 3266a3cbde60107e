//! The synchronous round engine.

use crate::faults::{FaultPlan, RetryPolicy};
use crate::message::MessageSize;
use crate::metrics::{Metrics, RoundStats};
use crate::pool::{default_threads, pool_execute, DisjointChunks, MAX_CHUNKS};
use crate::trace::Tracer;
use crate::wire::WireBuf;
pub use crate::wire::{Inbox, Outbox};
use ldc_graph::{Graph, NodeId};
use std::any::{Any, TypeId};
use std::fmt;

/// Message-size regime of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bandwidth {
    /// The LOCAL model: unbounded messages.
    Local,
    /// The CONGEST model: every message is at most this many bits.
    Congest {
        /// Per-message bit budget (the paper uses `O(log n)`).
        bits_per_message: u64,
    },
}

impl Bandwidth {
    /// The customary `CONGEST(c·⌈log₂ n⌉)` budget.
    pub fn congest_log(n: usize, c: u64) -> Bandwidth {
        let logn = crate::message::bits_for_value(n.max(2) as u64 - 1).max(1);
        Bandwidth::Congest {
            bits_per_message: c * logn,
        }
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message exceeded the CONGEST budget.
    BandwidthExceeded {
        /// Round index (0-based) in which the violation happened.
        round: usize,
        /// Sending node.
        node: NodeId,
        /// Port (index into the sender's adjacency list) used.
        port: usize,
        /// Size of the offending message.
        bits: u64,
        /// The configured budget.
        limit: u64,
    },
    /// A transient injected error aborted the round attempt (fault
    /// injection; see [`FaultPlan::with_error_rate`]).
    InjectedFault {
        /// Round index (0-based) whose attempt was aborted.
        round: usize,
        /// Which attempt at that round failed (0 = the first).
        attempt: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BandwidthExceeded { round, node, port, bits, limit } => write!(
                f,
                "round {round}: node {node} sent {bits} bits on port {port}, exceeding CONGEST budget of {limit} bits"
            ),
            SimError::InjectedFault { round, attempt } => write!(
                f,
                "round {round}: injected transient fault (attempt {attempt})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-chunk result of the fused compose + accounting pass.
#[derive(Default, Clone)]
struct ChunkOutcome {
    stats: RoundStats,
    /// First CONGEST violation in this chunk: `(node, port, bits)`.
    violation: Option<(NodeId, usize, u64)>,
}

/// Work-stealing oversubscription: chunks per worker the pool cursor gets
/// to hand out. More than one so a straggler chunk can be balanced; a
/// small constant so per-chunk fixed overhead (job-cursor RMW, outcome
/// slot, boundary-cache misses when a bitmap word straddles the cut) stays
/// negligible against the chunk's work.
const CHUNKS_PER_WORKER: usize = 4;

/// Minimum half-edge slots a chunk must carry to amortize its fixed
/// overhead. Below this, extra chunks cost more than the balancing they
/// buy — the root cause of the original dense-graph pooled regression,
/// where a ~1M-slot round was cut into 60 sub-17k-slot chunks and the
/// dispatch overhead ate the parallel win.
const MIN_CHUNK_SLOTS: usize = 1 << 12;

/// Number of parallel chunks for a round with `total_slots` half-edge
/// slots: [`CHUNKS_PER_WORKER`] per worker for the pool cursor to balance,
/// capped by what the round's work can afford (each chunk must carry at
/// least [`MIN_CHUNK_SLOTS`]), by the node count (chunks are cut at node
/// boundaries), and by [`MAX_CHUNKS`]. Chunk count only shapes the
/// parallel split — violation selection and stats reduction are
/// chunk-count independent.
pub(crate) fn chunk_count(total_slots: usize, threads: usize, n: usize) -> usize {
    let desired = threads.saturating_mul(CHUNKS_PER_WORKER);
    let affordable = (total_slots / MIN_CHUNK_SLOTS).max(1);
    desired.min(affordable).min(n).clamp(1, MAX_CHUNKS)
}

/// `0, 1, 2, …` — unit chunk bounds for per-chunk outcome slots.
static IOTA: [usize; MAX_CHUNKS + 1] = {
    let mut a = [0usize; MAX_CHUNKS + 1];
    let mut i = 0;
    while i <= MAX_CHUNKS {
        a[i] = i;
        i += 1;
    }
    a
};

/// Reusable per-round scratch owned by the network: wire buffers (one per
/// message type seen, cleared not freed between rounds), chunk boundaries,
/// and per-chunk accounting slots. This is what makes the steady-state
/// `exchange` allocation-free.
#[derive(Default)]
struct RoundBuffers {
    /// Wire buffers keyed by `TypeId` of [`WireBuf<M>`]. An algorithm
    /// phase alternating a handful of message types keeps one buffer per
    /// type alive; each is cleared and reused, never reallocated, once
    /// grown to the graph's slot count.
    wires: Vec<(TypeId, Box<dyn Any + Send>)>,
    /// Wire-buffer growth events (a fresh buffer's first sizing counts);
    /// stays at its warm-up value in steady state.
    wire_allocs: u64,
    /// Node-index chunk boundaries, length `chunks + 1`.
    chunk_bounds: Vec<usize>,
    /// `prefix[chunk_bounds[i]]`: the same boundaries in slot space.
    chunk_slot_bounds: Vec<usize>,
    /// Chunk count the boundary tables were computed for (0 = none).
    chunk_key: usize,
    /// Per-chunk compose outcomes, reduced after the phase.
    outcomes: Vec<ChunkOutcome>,
}

impl RoundBuffers {
    /// Check out the wire buffer for message type `M`, sized and cleared.
    fn take_wire<M: Send + 'static>(&mut self, total: usize) -> WireBuf<M> {
        let tid = TypeId::of::<WireBuf<M>>();
        let mut wire = match self.wires.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, boxed)) => std::mem::take(
                boxed
                    .downcast_mut::<WireBuf<M>>()
                    .expect("wire buffer type matches its TypeId"),
            ),
            None => {
                self.wires.push((tid, Box::new(WireBuf::<M>::default())));
                WireBuf::default()
            }
        };
        if wire.reset(total) {
            self.wire_allocs += 1;
        }
        wire
    }

    /// Return the wire buffer for reuse by the next round.
    fn store_wire<M: Send + 'static>(&mut self, wire: WireBuf<M>) {
        let tid = TypeId::of::<WireBuf<M>>();
        if let Some((_, boxed)) = self.wires.iter_mut().find(|(t, _)| *t == tid) {
            *boxed
                .downcast_mut::<WireBuf<M>>()
                .expect("wire buffer type matches its TypeId") = wire;
        }
    }

    /// (Re)compute chunk boundaries balanced by half-edge slots. Cached:
    /// recomputed only when the requested chunk count changes.
    fn ensure_chunk_bounds(&mut self, prefix: &[usize], chunks: usize) {
        if self.chunk_key == chunks {
            return;
        }
        let n = prefix.len() - 1;
        let total = prefix[n];
        self.chunk_bounds.clear();
        self.chunk_slot_bounds.clear();
        self.chunk_bounds.push(0);
        self.chunk_slot_bounds.push(0);
        let mut v = 0usize;
        for c in 1..=chunks {
            // Nodes are cheap, slots are the work: advance until this
            // chunk's share of slots is reached (c/chunks of the total),
            // but never past the nodes the remaining chunks still need.
            // Every chunk takes at least one node (`v == start`), so a
            // degree-skewed graph — where one hub node can already carry a
            // later chunk's slot target — still yields non-empty chunks
            // instead of zero-work dispatches.
            let target = total * c / chunks;
            let start = v;
            while v < n && (v == start || prefix[v] < target) && (n - v) > (chunks - c) {
                v += 1;
            }
            if c == chunks {
                v = n;
            }
            self.chunk_bounds.push(v);
            self.chunk_slot_bounds.push(prefix[v]);
        }
        self.chunk_key = chunks;
    }
}

/// A simulation instance bound to a communication graph.
///
/// The network owns the routing tables, reusable round buffers, and the
/// accumulated [`Metrics`]; node *state* is owned by the algorithm (as a
/// `&mut [S]` passed to every round) so multi-phase algorithms can thread
/// their own state types.
pub struct Network<'g> {
    graph: &'g Graph,
    bandwidth: Bandwidth,
    /// CSR offsets (length n+1) for slicing the flat port arrays.
    prefix: Vec<usize>,
    /// Involution mapping a half-edge's global slot to its reverse slot.
    /// `u32` (the graph crate caps `2m` at `u32::MAX`): the consume
    /// phase's dominant traffic is gathering through this table, and
    /// halving the entry size halves it.
    reverse: Vec<u32>,
    metrics: Metrics,
    /// Below this many total half-edge slots a round runs sequentially
    /// (threading overhead beats the parallelism).
    parallel_threshold: usize,
    /// Worker count for parallel rounds; `1` is the serial reference.
    threads: usize,
    /// Rounds that actually took a parallel path.
    parallel_rounds: usize,
    /// Reusable per-round scratch (wire, chunk tables, outcomes).
    buffers: RoundBuffers,
    /// Phase-span tracer; disabled (free) unless attached via
    /// [`Network::set_tracer`].
    tracer: Tracer,
    /// Injected-fault plan; `None` (free) unless attached via
    /// [`Network::set_fault_plan`].
    faults: Option<FaultPlan>,
    /// Round-retry policy; inert unless a fault plan is attached.
    retry: RetryPolicy,
}

/// Default work threshold: rounds moving fewer total half-edge slots than
/// this run sequentially. Keyed on *work*, not node count: a 2 000-node
/// clique (≈ 4 M slots) parallelizes, a 5 000-node ring (10 k slots) does
/// not.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 16;

impl<'g> Network<'g> {
    /// Create a network over `graph` with the given bandwidth regime.
    pub fn new(graph: &'g Graph, bandwidth: Bandwidth) -> Self {
        let n = graph.num_nodes();
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for v in graph.nodes() {
            acc += graph.degree(v);
            prefix.push(acc);
        }
        debug_assert!(
            u32::try_from(acc).is_ok(),
            "half-edge slots exceed u32 (graph builder enforces MAX_EDGES)"
        );
        let mut reverse = vec![0u32; acc];
        for v in graph.nodes() {
            for (i, &u) in graph.neighbors(v).iter().enumerate() {
                let j = graph.port_of(u, v).expect("symmetric adjacency");
                reverse[prefix[v as usize] + i] = (prefix[u as usize] + j) as u32;
            }
        }
        Network {
            graph,
            bandwidth,
            prefix,
            reverse,
            metrics: Metrics::default(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            threads: default_threads(),
            parallel_rounds: 0,
            buffers: RoundBuffers::default(),
            tracer: Tracer::disabled(),
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// The underlying communication graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The bandwidth regime this network enforces.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Accumulated metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of communication rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.metrics.rounds()
    }

    /// Override the sequential/parallel switch-over point. The threshold
    /// is compared against the round's *work* — the total number of
    /// half-edge slots (`Σ_v deg(v)`) — not the node count, so dense
    /// small-n graphs parallelize and sparse large-n graphs don't pay
    /// threading overhead. `0` forces parallel, `usize::MAX` forces
    /// sequential.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// Override the worker count used for parallel rounds (defaults to
    /// [`default_threads`]). `1` runs every round serially — the
    /// reference the parallel path is checked against. Values above the
    /// chunk cap are clamped at dispatch.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Rounds so far that took a parallel path (work ≥ threshold, > 1
    /// thread, > 1 node).
    pub fn parallel_rounds(&self) -> usize {
        self.parallel_rounds
    }

    /// Wire-buffer heap allocations so far (including growths). In steady
    /// state this stays at its warm-up value — one per message type — so
    /// tests can assert the hot path is allocation-free.
    pub fn wire_allocations(&self) -> u64 {
        self.buffers.wire_allocs
    }

    /// Attach a tracer: every finished round is emitted into its innermost
    /// open span. Pass a clone of the pipeline's tracer so auxiliary
    /// networks (e.g. substrate instances) account into the same tree.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer attached to this network (disabled by default). Clone it
    /// to open spans or to attach it to an auxiliary network.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach a fault plan: subsequent rounds draw deterministic fault
    /// decisions from it (keyed on the plan seed, round index, attempt,
    /// and global half-edge slot / node id — never on thread count or
    /// chunking, so serial and parallel rounds stay byte-identical under
    /// the same plan). Fault events are counted in [`Metrics`] and attributed to
    /// the open trace span.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Detach the fault plan; subsequent rounds run fault-free.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Configure round retries. The policy only engages while a fault
    /// plan is attached: a failed attempt (injected error or bandwidth
    /// violation) is re-executed up to `max_retries` times with the
    /// sender states unchanged — compose never mutates state and consume
    /// only runs on success, so rollback is implicit. Each retry charges
    /// `backoff_rounds` stall rounds ([`Metrics::stalled_rounds`]).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Execute one communication round.
    ///
    /// `compose(v, &state_v, outbox)` fills `v`'s outgoing messages from its
    /// local state only; after all messages are routed,
    /// `consume(v, &mut state_v, inbox)` updates the state from the inbox.
    ///
    /// CONGEST accounting is fused into the compose pass (each chunk
    /// reduces its own [`RoundStats`]); a failed round leaves the network
    /// fully usable and is not counted in metrics or trace.
    ///
    /// With a [`FaultPlan`] attached, faults are applied deterministically
    /// (drops/truncations per half-edge slot, crash/sleep skips per node,
    /// the plan's budget schedule overriding the configured bandwidth,
    /// injected transient errors), and a failed attempt is re-executed
    /// under the configured [`RetryPolicy`] — sender states are untouched
    /// by a failed attempt, so the retry replays the round from the same
    /// consistent state with a bumped attempt counter (fresh fault draws).
    /// Retries are counted in [`Metrics::rounds_retried`] and attributed
    /// to the open trace span; a deterministically-violating round (e.g. a
    /// message over a schedule-tightened budget) still fails after
    /// exhausting its retries.
    ///
    /// # Panics
    /// Panics if `states.len() != n`.
    pub fn exchange<S, M, FC, FU>(
        &mut self,
        states: &mut [S],
        compose: FC,
        consume: FU,
    ) -> Result<(), SimError>
    where
        S: Send + Sync,
        M: MessageSize + Send + Sync + 'static,
        FC: Fn(NodeId, &S, &mut Outbox<'_, M>) + Sync,
        FU: Fn(NodeId, &mut S, Inbox<'_, M>) + Sync,
    {
        // Retries only engage when faults can occur; without a plan this
        // is the plain single-attempt path.
        let retries = if self.faults.is_some() {
            self.retry.max_retries
        } else {
            0
        };
        let mut attempt = 0u32;
        loop {
            match self.exchange_attempt(states, &compose, &consume, attempt) {
                Ok(()) => return Ok(()),
                Err(_) if attempt < retries => {
                    self.metrics.record_retry(self.retry.backoff_rounds);
                    self.tracer.on_retry(self.retry.backoff_rounds);
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// One attempt at a round: the pre-PR-3 `exchange` body plus fault
    /// application. A failed attempt mutates nothing but scratch buffers.
    fn exchange_attempt<S, M, FC, FU>(
        &mut self,
        states: &mut [S],
        compose: &FC,
        consume: &FU,
        attempt: u32,
    ) -> Result<(), SimError>
    where
        S: Send + Sync,
        M: MessageSize + Send + Sync + 'static,
        FC: Fn(NodeId, &S, &mut Outbox<'_, M>) + Sync,
        FU: Fn(NodeId, &mut S, Inbox<'_, M>) + Sync,
    {
        let n = self.graph.num_nodes();
        assert_eq!(states.len(), n, "one state per node required");
        let total_slots = *self.prefix.last().unwrap_or(&0);

        // Shape of this round: parallel iff there is enough work (total
        // half-edge slots, not node count), more than one thread, and more
        // than one node.
        let parallel = self.threads > 1 && total_slots >= self.parallel_threshold && n > 1;
        let chunks = if parallel {
            chunk_count(total_slots, self.threads, n)
        } else {
            1
        };
        self.buffers.ensure_chunk_bounds(&self.prefix, chunks);
        // A non-parallel round is one chunk, which `pool_execute` runs inline.
        let threads = self.threads;
        let round = self.metrics.rounds();

        // Fault plan hooks: an injected transient error aborts the attempt
        // before any work; the plan's budget schedule overrides the
        // configured bandwidth for this round.
        let faults = self.faults.as_ref();
        if let Some(plan) = faults {
            if plan.injects_error(round, attempt) {
                return Err(SimError::InjectedFault { round, attempt });
            }
        }
        let bandwidth = match faults {
            Some(plan) => plan.bandwidth_at(round, self.bandwidth),
            None => self.bandwidth,
        };

        let mut wire: WireBuf<M> = self.buffers.take_wire(total_slots);

        // Compose + fused accounting: each chunk fills its nodes' outbox
        // slices and reduces its own RoundStats in the same pass — no
        // separate O(total_slots) scan afterwards. The payload arena is
        // split into disjoint chunk ranges; the presence bitmap is shared
        // (a 64-slot word can straddle a chunk cut) and mutated through
        // atomics — see the `wire` module.
        self.buffers.outcomes.clear();
        self.buffers
            .outcomes
            .resize_with(chunks, ChunkOutcome::default);
        {
            let bounds = &self.buffers.chunk_bounds;
            let (bits_map, payload) = wire.compose_parts();
            let payload_chunks = DisjointChunks::new(payload, &self.buffers.chunk_slot_bounds);
            let outcome_chunks = DisjointChunks::new(&mut self.buffers.outcomes, &IOTA[..=chunks]);
            let prefix = &self.prefix;
            let states_ro: &[S] = states;
            let run_chunk = move |c: usize| {
                let chunk_payload = payload_chunks.take(c);
                let outcome = &mut outcome_chunks.take(c)[0];
                let (lo, hi) = (bounds[c], bounds[c + 1]);
                let chunk_base = prefix[lo];
                for v in lo..hi {
                    let base = prefix[v] - chunk_base;
                    let deg = prefix[v + 1] - prefix[v];
                    let node_payload = &mut chunk_payload[base..base + deg];
                    // A crashed/sleeping node composes nothing this round
                    // (its slots stay empty) and is counted exactly once.
                    if let Some(plan) = faults {
                        if plan.faulted(round, attempt, v as NodeId) {
                            outcome.stats.faulted_nodes += 1;
                            continue;
                        }
                    }
                    let mut outbox = Outbox::new(bits_map, node_payload, prefix[v]);
                    compose(v as NodeId, &states_ro[v], &mut outbox);
                    for port in 0..deg {
                        let Some(mut bits) = outbox.peek_bits(port) else {
                            continue;
                        };
                        if let Some(plan) = faults {
                            // Faults key on the *global* slot index, so the
                            // draw is identical in every chunking.
                            let gslot = (prefix[v] + port) as u64;
                            if plan.drops(round, attempt, gslot) {
                                // Lost at the sender: no charge, no delivery.
                                outbox.clear(port);
                                outcome.stats.messages_dropped += 1;
                                continue;
                            }
                            if let Some(cap) = plan.truncates(round, attempt, gslot) {
                                // Crossed the wire cut to `cap` bits: charged
                                // (truncated) below, but unusable — the
                                // simulator transports typed values, so a
                                // partial value is a lost value.
                                bits = bits.min(cap);
                                outbox.clear(port);
                                outcome.stats.messages_dropped += 1;
                            }
                        }
                        outcome.stats.messages += 1;
                        outcome.stats.total_bits += bits;
                        outcome.stats.max_message_bits = outcome.stats.max_message_bits.max(bits);
                        if let Bandwidth::Congest { bits_per_message } = bandwidth {
                            if bits > bits_per_message && outcome.violation.is_none() {
                                outcome.violation = Some((v as NodeId, port, bits));
                            }
                        }
                    }
                }
            };
            pool_execute(threads, chunks, &run_chunk);
        }

        // Reduce per-chunk outcomes. Chunks are in node order, so the
        // first violation of the earliest chunk is the globally first one
        // — identical to what a sequential scan reports.
        let mut stats = RoundStats::default();
        let mut violation = None;
        for outcome in &self.buffers.outcomes {
            stats.messages += outcome.stats.messages;
            stats.total_bits += outcome.stats.total_bits;
            stats.max_message_bits = stats.max_message_bits.max(outcome.stats.max_message_bits);
            stats.messages_dropped += outcome.stats.messages_dropped;
            stats.faulted_nodes += outcome.stats.faulted_nodes;
            if violation.is_none() {
                violation = outcome.violation;
            }
        }
        if let Some((node, port, bits)) = violation {
            // `bandwidth` is the effective budget for this round (the
            // plan's schedule may have tightened the configured one).
            let limit = match bandwidth {
                Bandwidth::Congest { bits_per_message } => bits_per_message,
                Bandwidth::Local => unreachable!("violations only exist under CONGEST"),
            };
            // The failed round is not counted and the buffers are kept:
            // the next exchange starts from a clean wire.
            self.buffers.store_wire(wire);
            return Err(SimError::BandwidthExceeded {
                round,
                node,
                port,
                bits,
                limit,
            });
        }

        // Consume: no routing pass — `reverse` is an involution on
        // half-edge slots, so inboxes read the sender's outbox slot
        // directly through it.
        {
            let bounds = &self.buffers.chunk_bounds;
            let state_chunks = DisjointChunks::new(states, bounds);
            let (bits_map, payload) = wire.read_parts();
            let prefix = &self.prefix;
            let reverse: &[u32] = &self.reverse;
            let run_chunk = move |c: usize| {
                let chunk_states = state_chunks.take(c);
                let (lo, hi) = (bounds[c], bounds[c + 1]);
                for v in lo..hi {
                    // A crashed/sleeping node consumes nothing either: its
                    // state is untouched for the whole round. (Already
                    // counted once, in the compose pass.)
                    if let Some(plan) = faults {
                        if plan.faulted(round, attempt, v as NodeId) {
                            continue;
                        }
                    }
                    consume(
                        v as NodeId,
                        &mut chunk_states[v - lo],
                        Inbox::new(
                            bits_map,
                            payload,
                            reverse,
                            prefix[v],
                            prefix[v + 1] - prefix[v],
                        ),
                    );
                }
            };
            pool_execute(threads, chunks, &run_chunk);
        }

        self.buffers.store_wire(wire);
        if parallel {
            self.parallel_rounds += 1;
        }
        self.tracer.on_round(&stats);
        self.metrics.push_round(stats);
        Ok(())
    }

    /// Convenience: broadcast one message per node to all neighbors, then
    /// consume inboxes. Nodes may send `None` to stay silent this round.
    pub fn broadcast_exchange<S, M, FC, FU>(
        &mut self,
        states: &mut [S],
        msg_of: FC,
        consume: FU,
    ) -> Result<(), SimError>
    where
        S: Send + Sync,
        M: MessageSize + Clone + Send + Sync + 'static,
        FC: Fn(NodeId, &S) -> Option<M> + Sync,
        FU: Fn(NodeId, &mut S, Inbox<'_, M>) + Sync,
    {
        self.exchange(
            states,
            |v, s, out: &mut Outbox<'_, M>| {
                if let Some(m) = msg_of(v, s) {
                    out.broadcast(&m);
                }
            },
            consume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_graph::generators;

    #[test]
    fn chunk_count_balances_against_fixed_overhead() {
        // Dense clique shape (1000 nodes, ~1M slots, 2 threads): more than
        // one chunk per worker so the pool cursor can balance, but a small
        // multiple — not the 60 micro-chunks the old slot-stride formula
        // produced (whose per-chunk overhead made pooled *slower* than
        // serial on dense_complete_1000).
        let dense = chunk_count(999_000, 2, 1000);
        assert_eq!(dense, 2 * CHUNKS_PER_WORKER);
        assert!(dense > 2, "must oversubscribe beyond one chunk per worker");
        // A round too small to afford oversubscription collapses: each
        // chunk must carry at least MIN_CHUNK_SLOTS of work.
        assert_eq!(chunk_count(400, 2, 200), 1);
        assert_eq!(chunk_count(2 * MIN_CHUNK_SLOTS, 8, 10_000), 2);
        // Never more chunks than nodes, never more than MAX_CHUNKS, never 0.
        assert_eq!(chunk_count(1 << 20, 4, 3), 3);
        assert!(chunk_count(usize::MAX / 2, 64, usize::MAX / 2) <= MAX_CHUNKS);
        assert_eq!(chunk_count(0, 1, 1), 1);
    }

    /// Regression (ISSUE 10 satellite): the `dense_complete_1000` shape —
    /// ~1M slots over 1000 nodes — must split into >1 balanced chunk per
    /// worker, and pooled execution must stay byte-identical to serial.
    #[test]
    fn dense_shape_gets_balanced_chunks_and_pooled_matches_serial() {
        let g = generators::complete(300); // same shape, CI-sized: 89 700 slots
        let threads = 2;
        let slots = 300 * 299;
        let chunks = chunk_count(slots, threads, 300);
        assert!(
            chunks > threads,
            "dense shape must give the pool cursor more than one chunk per worker"
        );
        // Chunk bounds (node-boundary cuts over the slot prefix sums) must
        // be balanced: no chunk more than 2× the ideal share.
        let mut net = Network::new(&g, Bandwidth::Local);
        net.set_threads(threads);
        net.buffers.ensure_chunk_bounds(&net.prefix.clone(), chunks);
        let slot_bounds = net.buffers.chunk_slot_bounds.clone();
        assert_eq!(slot_bounds.len(), chunks + 1);
        assert_eq!(*slot_bounds.last().unwrap(), slots);
        for w in slot_bounds.windows(2) {
            assert!(
                w[1] - w[0] <= 2 * slots / chunks,
                "unbalanced chunk: {} slots of {slots} over {chunks} chunks",
                w[1] - w[0],
            );
        }
        // Pooled vs serial (one thread) byte-equality on the dense shape.
        let run = |threads: usize| -> (Vec<u64>, usize) {
            let mut net = Network::new(&g, Bandwidth::Local);
            net.set_parallel_threshold(0);
            net.set_threads(threads);
            let mut states: Vec<u64> = g.nodes().map(u64::from).collect();
            for _ in 0..3 {
                net.broadcast_exchange(
                    &mut states,
                    |_, s| Some(*s),
                    |_, s, inbox| {
                        let mut acc = *s;
                        for (_, m) in inbox.iter() {
                            acc = acc.wrapping_mul(1_000_003).wrapping_add(*m);
                        }
                        *s = acc;
                    },
                )
                .unwrap();
            }
            (states, net.parallel_rounds())
        };
        let (serial, serial_parallel_rounds) = run(1);
        let (pooled, pooled_parallel_rounds) = run(threads);
        assert_eq!(serial_parallel_rounds, 0, "one thread must stay serial");
        assert!(
            pooled_parallel_rounds > 0,
            "the pooled run must go parallel"
        );
        assert_eq!(pooled, serial);
    }

    /// Property test for the degree-aware chunk cuts on degree-skewed
    /// graphs: for every chunk count the bounds must cover all nodes
    /// exactly once (coverage + disjointness follow from the bounds being
    /// a monotone partition), land on node boundaries in slot space
    /// (`chunk_slot_bounds[i] == prefix[chunk_bounds[i]]`), and leave no
    /// chunk empty of nodes when chunks ≤ n.
    #[test]
    fn chunk_bounds_cover_skewed_graphs_at_node_boundaries() {
        let skewed: Vec<(&str, ldc_graph::Graph)> = vec![
            ("star", generators::star(500)),
            ("lollipop", generators::lollipop(400, 80)),
            (
                "powerlaw-ish",
                generators::preferential_attachment(300, 3, 7),
            ),
            ("gnp", generators::gnp(256, 0.05, 11)),
            ("ring", generators::ring(64)),
        ];
        for (name, g) in &skewed {
            let net = Network::new(g, Bandwidth::Local);
            let prefix = net.prefix.clone();
            let n = g.num_nodes();
            let total = *prefix.last().unwrap();
            for chunks in [1usize, 2, 3, 5, 8, 17, MAX_CHUNKS] {
                let chunks = chunks.min(n);
                let mut buffers = RoundBuffers::default();
                buffers.ensure_chunk_bounds(&prefix, chunks);
                let bounds = &buffers.chunk_bounds;
                let slot_bounds = &buffers.chunk_slot_bounds;
                assert_eq!(bounds.len(), chunks + 1, "{name}/{chunks}");
                assert_eq!(bounds[0], 0, "{name}/{chunks}");
                assert_eq!(bounds[chunks], n, "{name}/{chunks}: full coverage");
                assert_eq!(slot_bounds[chunks], total, "{name}/{chunks}");
                for i in 0..chunks {
                    // Monotone partition ⇒ disjoint, gap-free node ranges;
                    // ≤ n chunks ⇒ every chunk owns at least one node.
                    assert!(
                        bounds[i] < bounds[i + 1],
                        "{name}/{chunks}: empty chunk {i}"
                    );
                    // Slot bounds are the same cuts through the half-edge
                    // prefix sums — node-boundary aligned by construction.
                    assert_eq!(
                        slot_bounds[i], prefix[bounds[i]],
                        "{name}/{chunks}: cut {i} off node boundary"
                    );
                }
            }
        }
    }

    /// Flood the maximum node id: after diam(G) rounds every node knows it.
    #[test]
    fn flood_max_id_on_ring() {
        let g = generators::ring(16);
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states: Vec<u32> = g.nodes().collect();
        for _ in 0..8 {
            net.broadcast_exchange(
                &mut states,
                |_, s| Some(*s),
                |_, s, inbox| {
                    for (_, m) in inbox.iter() {
                        *s = (*s).max(*m);
                    }
                },
            )
            .unwrap();
        }
        assert!(states.iter().all(|&s| s == 15));
        assert_eq!(net.rounds(), 8);
        // 16 nodes × 2 neighbors × 8 rounds messages.
        assert_eq!(net.metrics().total_messages(), 16 * 2 * 8);
    }

    #[test]
    fn directed_port_messages_arrive_at_right_port() {
        // Path 0-1-2: node 1 sends distinct values to ports.
        let g = ldc_graph::builder::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states = vec![0u64; 3];
        net.exchange(
            &mut states,
            |v, _, out: &mut Outbox<'_, u64>| {
                if v == 1 {
                    out.send(0, 100); // to neighbor 0
                    out.send(1, 200); // to neighbor 2
                }
            },
            |v, s, inbox| {
                if let Some(&m) = inbox.iter().next().map(|(_, m)| m) {
                    *s = m;
                }
                if v == 1 {
                    assert_eq!(inbox.iter().count(), 0);
                }
            },
        )
        .unwrap();
        assert_eq!(states, vec![100, 0, 200]);
    }

    #[test]
    fn congest_budget_enforced() {
        let g = generators::ring(8);
        let mut net = Network::new(
            &g,
            Bandwidth::Congest {
                bits_per_message: 4,
            },
        );
        let mut states = vec![0u64; 8];
        let err = net
            .broadcast_exchange(&mut states, |_, _| Some(1u64 << 40), |_, _, _| {})
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::BandwidthExceeded {
                limit: 4,
                bits: 41,
                ..
            }
        ));
        // A compliant round still works.
        net.broadcast_exchange(&mut states, |_, _| Some(7u64), |_, _, _| {})
            .unwrap();
        assert_eq!(net.metrics().max_message_bits(), 3);
    }

    #[test]
    fn congest_log_budget() {
        match Bandwidth::congest_log(1024, 2) {
            Bandwidth::Congest { bits_per_message } => assert_eq!(bits_per_message, 20),
            _ => unreachable!(),
        }
    }

    #[test]
    fn silent_nodes_send_nothing() {
        let g = generators::ring(6);
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states = vec![(); 6];
        net.broadcast_exchange(
            &mut states,
            |_, _| None::<u32>,
            |_, _, inbox| {
                assert_eq!(inbox.iter().count(), 0);
            },
        )
        .unwrap();
        assert_eq!(net.metrics().total_messages(), 0);
        assert_eq!(net.metrics().total_bits(), 0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = generators::gnp(600, 0.02, 3);
        let run = |threshold: usize| -> Vec<u64> {
            let mut net = Network::new(&g, Bandwidth::Local);
            net.set_parallel_threshold(threshold);
            net.set_threads(4);
            let mut states: Vec<u64> = g.nodes().map(u64::from).collect();
            for _ in 0..5 {
                net.broadcast_exchange(
                    &mut states,
                    |_, s| Some(*s),
                    |_, s, inbox| {
                        let mut acc = *s;
                        for (_, m) in inbox.iter() {
                            acc = acc.wrapping_mul(31).wrapping_add(*m);
                        }
                        *s = acc;
                    },
                )
                .unwrap();
            }
            states
        };
        let sequential = run(usize::MAX);
        assert_eq!(sequential, run(0));
    }

    /// Regression for the node-count-keyed switch: a small-n/high-degree
    /// graph (more slots than the threshold, fewer nodes than the old
    /// 4096-node cutoff) must take the parallel path, while a sparse
    /// larger-n graph below the work threshold must not.
    #[test]
    fn parallel_switch_keys_on_work_not_node_count() {
        let dense = generators::complete(300); // 300 nodes, 89 700 slots
        let mut net = Network::new(&dense, Bandwidth::Local);
        net.set_threads(4);
        let mut states = vec![0u64; dense.num_nodes()];
        net.broadcast_exchange(&mut states, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        assert_eq!(net.parallel_rounds(), 1, "dense graph must parallelize");

        let sparse = generators::ring(5000); // 5000 nodes, 10 000 slots
        let mut net = Network::new(&sparse, Bandwidth::Local);
        net.set_threads(4);
        let mut states = vec![0u64; sparse.num_nodes()];
        net.broadcast_exchange(&mut states, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        assert_eq!(net.parallel_rounds(), 0, "sparse ring must stay serial");
    }

    #[test]
    fn wire_buffer_reused_across_rounds() {
        let g = generators::ring(64);
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states = vec![0u64; 64];
        for _ in 0..10 {
            net.broadcast_exchange(&mut states, |_, s| Some(*s), |_, _, _| {})
                .unwrap();
        }
        assert_eq!(
            net.wire_allocations(),
            1,
            "one wire allocation at warm-up, zero after"
        );
        // A second message type gets its own buffer, also reused.
        let mut flags = vec![false; 64];
        for _ in 0..10 {
            net.broadcast_exchange(&mut flags, |_, s| Some(*s), |_, _, _| {})
                .unwrap();
        }
        assert_eq!(net.wire_allocations(), 2);
    }

    #[test]
    fn isolated_nodes_have_empty_ports() {
        let g = ldc_graph::builder::from_edges(4, &[(0, 1)]).unwrap();
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states = vec![0u8; 4];
        net.exchange(
            &mut states,
            |v, _, out: &mut Outbox<'_, u8>| {
                if v == 2 || v == 3 {
                    assert_eq!(out.ports(), 0);
                } else {
                    out.send(0, 7);
                }
            },
            |v, s, inbox| {
                if v == 2 || v == 3 {
                    assert_eq!(inbox.ports(), 0);
                } else {
                    assert_eq!(inbox.get(0), Some(&7));
                    *s = *inbox.get(0).unwrap();
                }
            },
        )
        .unwrap();
        assert_eq!(states, vec![7, 7, 0, 0]);
    }

    #[test]
    fn metrics_compose_across_phases() {
        let g = generators::ring(6);
        let mut a = Network::new(&g, Bandwidth::Local);
        let mut b = Network::new(&g, Bandwidth::Local);
        let mut st = vec![1u8; 6];
        a.broadcast_exchange(&mut st, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        b.broadcast_exchange(&mut st, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        b.broadcast_exchange(&mut st, |_, s| Some(*s), |_, _, _| {})
            .unwrap();
        let mut total = crate::Metrics::default();
        total.extend_from(a.metrics());
        total.extend_from(b.metrics());
        assert_eq!(total.rounds(), 3);
        assert_eq!(total.total_messages(), 3 * 12);
    }

    #[test]
    fn metrics_track_bits() {
        let g = generators::path(3);
        let mut net = Network::new(&g, Bandwidth::Local);
        let mut states = vec![(); 3];
        net.exchange(
            &mut states,
            |v, _, out: &mut Outbox<'_, u64>| {
                if v == 0 {
                    out.send(0, 0b1111); // 4 bits
                }
            },
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(net.metrics().total_bits(), 4);
        assert_eq!(net.metrics().per_round()[0].messages, 1);
    }
}

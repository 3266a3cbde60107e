//! Synchronous LOCAL / CONGEST message-passing simulator.
//!
//! This crate is the distributed-computing substrate of the workspace: it
//! executes algorithms in the standard synchronous message-passing model
//! (Peleg, *Distributed Computing: A Locality-Sensitive Approach*, 2000)
//! that the paper's LOCAL and CONGEST results are stated in.
//!
//! # Model
//!
//! * The communication network is an undirected [`ldc_graph::Graph`]; in
//!   every *round* each node may send one message per incident edge,
//!   receives all messages sent to it in the same round, and performs
//!   arbitrary local computation.
//! * [`Bandwidth::Local`] places no limit on message size;
//!   [`Bandwidth::Congest`] enforces a per-message bit budget (the paper
//!   uses `O(log n)` bits) and fails loudly on violation.
//! * Message sizes are accounted in *bits* through the [`MessageSize`]
//!   trait, so algorithms implement the paper's canonical encodings (e.g. a
//!   color list costs `min{|𝒞|, Λ·⌈log|𝒞|⌉}` bits) and the harness can
//!   report maximum/total message size per round.
//!
//! # Programming model
//!
//! Algorithms are written SPMD-style: a round is one call to
//! [`Network::exchange`], which runs a *compose* closure for every node
//! (producing outgoing messages from that node's state only) and then a
//! *consume* closure (updating the node's state from its inbox only). The
//! engine enforces the information-flow discipline by construction — node
//! code never sees another node's state — and steps nodes in parallel above
//! a configurable *work* threshold (total half-edge slots per round), on a
//! persistent worker [`pool`] by default. Per-round scratch (the wire
//! buffer, chunk tables, accounting slots) lives in a reusable arena owned
//! by the [`Network`], so the steady-state hot path neither allocates nor
//! spawns threads. Purely local computation between `exchange` calls costs
//! zero rounds, matching the paper's accounting of "zero-round"
//! constructions.
//!
//! # Observability
//!
//! The [`trace`] module attributes engine rounds to hierarchical *phase
//! spans* (one per paper artifact — theorem, lemma, phase). Attach a
//! [`Tracer`] with [`Network::set_tracer`]; span totals are then
//! engine-accounted and sum exactly to the flat [`Metrics`].
//!
//! # Fault injection
//!
//! The [`faults`] module perturbs the flawless synchronous model with
//! seeded, deterministic fault families — message drops/truncations,
//! adversarial bandwidth schedules, crash/sleep windows, injected
//! transient errors. Attach a [`FaultPlan`] with
//! [`Network::set_fault_plan`] and (optionally) a [`RetryPolicy`] with
//! [`Network::set_retry_policy`]; fault events are counted in [`Metrics`]
//! and attributed to the open trace span.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod json;
pub mod message;
pub mod metrics;
#[allow(unsafe_code)]
pub mod pool;
pub mod telemetry;
pub mod trace;
#[allow(unsafe_code)]
pub mod wire;

pub use engine::{Bandwidth, Inbox, Network, Outbox, SimError};
pub use faults::{CrashWindow, FaultPlan, RetryPolicy};
pub use message::{bits_for_value, MessageSize};
pub use metrics::{Metrics, RoundStats};
pub use telemetry::{strip_timing, EventSink, Histogram, Registry, RunManifest};
pub use trace::{SpanGuard, SpanNode, SpanTotals, Tracer};

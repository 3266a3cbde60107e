//! **Batch execution layer**: run many coloring jobs — (graph × algorithm
//! × seed × fault plan) instances — across the persistent worker pool,
//! deterministically.
//!
//! The paper's deliverables are claim-sweep families (one per theorem of
//! Fuchs & Kuhn), and a production deployment serves many coloring
//! requests concurrently; both reduce to the same primitive: a
//! [`JobSpec`] list sharded over threads with byte-reproducible output.
//! The rules (DESIGN.md §10):
//!
//! * **Sharding** reuses [`ldc_sim::pool`] — no per-fleet thread spawns —
//!   and is work-conserving: executors claim jobs in index order from one
//!   shared cursor.
//! * **Graph caching**: generated graphs are built once per distinct
//!   generator spec (keyed by a content hash of the spec), so sweeps
//!   over seeds/algorithms on one topology don't rebuild it per job.
//! * **Determinism**: results are collected per job and emitted in
//!   job-index order, so the JSONL stream is byte-identical for every
//!   shard count and completion order, and contains no wall-clock or
//!   host-dependent fields. The same promise extends to every execution
//!   knob: [`Fleet::with_kernel_mode`] (Fast vs Reference solver
//!   kernels), [`Fleet::with_solver_threads`], and
//!   [`Fleet::with_shared_kernels`] all leave rows byte-identical —
//!   the soak harness (`ldc soak`, DESIGN.md §14) re-runs every scenario
//!   across these knobs and byte-diffs the streams.
//!
//! ```
//! use ldc_batch::{Fleet, JobSpec};
//!
//! let jobs = ldc_batch::parse_spec_file(
//!     r#"[{"graph":{"family":"ring","n":8},"algorithm":"congest"}]"#,
//! ).unwrap();
//! let run = Fleet::new(2).run(&jobs);
//! assert_eq!(run.summary.ok, 1);
//! assert!(run.to_jsonl().ends_with("\n"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod jsonin;
pub mod spec;

pub use fleet::{sharded_map, Fleet, FleetRun, FleetSummary, GraphCache, JobOutcome};
pub use spec::{
    parse_spec_file, parse_spec_file_strict, Algorithm, FaultSpec, GraphSource, JobSpec, ListSpec,
    SPEC_VERSION,
};

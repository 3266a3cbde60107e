//! **List Defective Colorings: Distributed Algorithms and Applications.**
//!
//! A from-scratch Rust implementation of the algorithms of Fuchs & Kuhn
//! (SPAA 2023): list defective colorings, their oriented and arbdefective
//! variants, the distributed algorithms of Sections 3–5, and the sequential
//! existence results of Appendix A — all running on the `ldc-sim`
//! LOCAL/CONGEST simulator.
//!
//! Entry points, in the order the paper builds them:
//!
//! * [`problem`] — Definition 1.1 instance types; [`validate`] — exact
//!   checkers; [`existence`] — Lemmas A.1/A.2 (with [`euler`]).
//! * [`conflict`], [`params`], [`cover`] — the machinery of Section 3.
//! * [`single_defect`] — the basic generalized OLDC engine (§3.2).
//! * [`multi_defect`] — Lemma 3.6 (per-color defects).
//! * [`oldc`] — Lemmas 3.7/3.8 ⇒ **Theorem 1.1**.
//! * [`colorspace`] — **Theorem 1.2** and Corollaries 4.1/4.2.
//! * [`arbdefective`] — **Theorem 1.3** (list arbdefective /
//!   `(degree+1)`-list coloring driver, with the recursive substrate
//!   bootstrap of DESIGN.md §S3).
//! * [`congest`] — **Theorem 1.4** (CONGEST `(degree+1)`-list coloring in
//!   `√Δ·polylog Δ + O(log* n)` rounds with `O(log n)`-bit messages).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod applications;
pub mod arbdefective;
pub mod colorspace;
pub mod conflict;
pub mod congest;
pub mod cover;
pub mod ctx;
pub mod edge_coloring;
pub mod euler;
pub mod existence;
pub mod kernels;
pub mod mt20;
pub mod multi_defect;
pub mod oldc;
pub mod params;
pub mod problem;
pub mod single_defect;
mod steps;
pub mod validate;

pub use api::{FaultEnv, FaultStats, Resilient, ResilientReport, Solution, SolveOptions};
pub use ctx::{CoreError, OldcCtx};
pub use kernels::{KernelConfig, KernelMode, KernelStats};
pub use params::ParamProfile;
pub use problem::{Color, ColorSpace, DefectList, LdcInstance, OldcInstance};

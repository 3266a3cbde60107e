//! **Theorem 1.4** — deterministic `(degree+1)`-list coloring in the
//! CONGEST model in `√Δ·polylog Δ + O(log* n)` rounds.
//!
//! The pipeline composes everything built so far:
//!
//! 1. Linial's algorithm gives a proper `O(Δ²)`-coloring in `O(log* n)`
//!    rounds with `O(log n)`-bit messages,
//! 2. Theorem 1.1's OLDC solver is wrapped in Corollary 4.2's color-space
//!    reduction with block size `p` chosen so every candidate message fits
//!    the CONGEST budget (`min{ℓ·log p, p} + O(log n)` bits),
//! 3. Theorem 1.3 turns that solver into a `(degree+1)`-list coloring
//!    algorithm; its per-stage arbdefective decomposition uses `q ≈
//!    √(Λ·κ)` buckets, which is where the `√Δ` shows up.
//!
//! The paper's Theorem 1.4 dispatches to \[GK21\]'s
//! `O(log²Δ·log n)`-round algorithm when `Δ > log² n`; per DESIGN.md §S4
//! this implementation substitutes the classic `O(Δ² + log* n)` color-class
//! iteration for that branch (the *new* contribution — the
//! `Δ ∈ [ω(log n), o(log² n)]` gap — is the branch below and is what the
//! E6 experiments exercise).

use crate::api::{FaultStats, SolveOptions};
use crate::arbdefective::{solve_degree_plus_one, ArbConfig, ArbReport, Substrate};
use crate::colorspace::{reduce_color_space, OldcSolver, ReductionConfig, Theorem11Solver};
use crate::ctx::{span, CoreError, OldcCtx};
use crate::kernels::KernelStats;
use crate::params::{practical_kappa, ParamProfile};
use crate::problem::{Color, DefectList};
use ldc_sim::{Bandwidth, Network};

/// Which branch of Theorem 1.4 ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestBranch {
    /// The new `√Δ·polylog Δ + O(log* n)` algorithm (Δ ≲ log² n regime).
    SqrtDelta,
    /// The classic color-class iteration (stand-in for \[GK21\], §S4).
    ClassIteration,
}

/// Outcome report for [`congest_degree_plus_one`].
#[derive(Debug, Clone)]
pub struct CongestReport {
    /// Branch taken.
    pub branch: CongestBranch,
    /// Rounds on the main network.
    pub rounds_main: usize,
    /// Rounds inside substrate sub-networks (0 for the classic branch).
    pub rounds_substrate: usize,
    /// Largest message observed anywhere, in bits.
    pub max_message_bits: u64,
    /// The enforced CONGEST budget, in bits.
    pub bandwidth_bits: u64,
    /// Total messages across the main and all substrate networks.
    pub messages_total: u64,
    /// Total bits across the main and all substrate networks.
    pub bits_total: u64,
    /// Fault accounting for the *main* network (substrate sub-networks
    /// run fault-free; all-zero unless the options carried a
    /// [`crate::api::FaultEnv`]).
    pub faults: FaultStats,
    /// Arbdefective-driver details (√Δ branch only).
    pub arb: Option<ArbReport>,
    /// Kernel cache statistics folded over every OLDC solve of the
    /// pipeline (all-zero for the classic branch, which never runs the
    /// type-keyed kernels).
    pub kernels: KernelStats,
}

impl CongestReport {
    /// Total rounds across all networks involved.
    pub fn rounds_total(&self) -> usize {
        self.rounds_main + self.rounds_substrate
    }
}

/// Algorithmic configuration for [`congest_degree_plus_one`].
///
/// The split with [`SolveOptions`]: `CongestConfig` holds the knobs that
/// define *which computation runs* (CONGEST budget, constant profile,
/// selection seed, branch/substrate choice) and therefore pins the
/// checked-in experiment numbers; `SolveOptions` carries only the
/// *execution environment* (tracer, fault plan + retries, kernel
/// configuration).
/// This entry point ignores `SolveOptions::bandwidth` / `profile` /
/// `seed` — those live here.
#[derive(Debug, Clone, Copy)]
pub struct CongestConfig {
    /// CONGEST budget = `bandwidth_factor · ⌈log₂ n⌉` bits per message.
    pub bandwidth_factor: u64,
    /// Parameter profile.
    pub profile: ParamProfile,
    /// Selection seed.
    pub seed: u64,
    /// Force a branch (default: pick by the `Δ ≤ log² n` rule).
    pub force_branch: Option<CongestBranch>,
    /// Substrate for the √Δ branch.
    pub substrate: Substrate,
}

impl Default for CongestConfig {
    fn default() -> Self {
        CongestConfig {
            bandwidth_factor: 16,
            profile: ParamProfile::practical_default(),
            seed: 0xC01057,
            force_branch: None,
            substrate: Substrate::Sequential,
        }
    }
}

/// Theorem 1.1 behind Corollary 4.2's message compression: an
/// [`OldcSolver`] whose messages are sized for `p`-color blocks.
#[derive(Debug, Clone)]
pub struct ReducedTheorem11 {
    /// Block size per reduction level.
    pub p: u64,
    /// `κ(p)` used to apportion auxiliary defects.
    pub kappa_p: f64,
    /// The Theorem 1.1 solver run at every level (carries the caller's
    /// kernel configuration).
    pub inner: Theorem11Solver,
}

impl OldcSolver for ReducedTheorem11 {
    fn solve(
        &self,
        net: &mut Network<'_>,
        ctx: &OldcCtx<'_, '_>,
        lists: &[DefectList],
        kernels: &mut KernelStats,
    ) -> Result<Vec<Option<Color>>, CoreError> {
        let cfg = ReductionConfig {
            p: self.p,
            nu: 1.0,
            kappa_p: self.kappa_p,
        };
        reduce_color_space(net, ctx, lists, cfg, &self.inner, kernels)
    }
}

/// Solve a `(degree+1)`-list coloring instance in the CONGEST model
/// (Theorem 1.4). `lists[v]` needs more than `deg(v)` colors from
/// `0..space` with `space ≤ poly(Δ)` for the stated bounds.
///
/// `opts` supplies the execution environment: its [`Tracer`](ldc_sim::Tracer) rides on the
/// main network and is propagated into every substrate sub-network (so
/// the span tree accounts for *all* rounds of the pipeline), its
/// [`crate::api::FaultEnv`] — if any — attaches to the *main* network
/// only (the fault model targets the long-lived communication graph, not
/// the solver's internal scratch instances), and its kernel configuration
/// runs every Theorem 1.1 solve of the pipeline. See [`CongestConfig`]
/// for which knobs live where.
///
/// ```
/// use ldc_core::congest::{congest_degree_plus_one, CongestConfig};
/// use ldc_core::SolveOptions;
/// use ldc_graph::generators;
///
/// let g = generators::random_regular(128, 6, 1);
/// let lists: Vec<Vec<u64>> = (0..128).map(|_| (0..7).collect()).collect();
/// let (colors, report) = congest_degree_plus_one(
///     &g, 7, &lists, &CongestConfig::default(), &SolveOptions::default())
/// .unwrap();
/// assert!(report.max_message_bits <= report.bandwidth_bits);
/// for (_, u, v) in g.edges() {
///     assert_ne!(colors[u as usize], colors[v as usize]);
/// }
/// ```
pub fn congest_degree_plus_one(
    g: &ldc_graph::Graph,
    space: u64,
    lists: &[Vec<Color>],
    cfg: &CongestConfig,
    opts: &SolveOptions,
) -> Result<(Vec<Color>, CongestReport), CoreError> {
    let n = g.num_nodes();
    assert_eq!(lists.len(), n);
    let delta = g.max_degree();
    let bandwidth = Bandwidth::congest_log(n, cfg.bandwidth_factor);
    let budget = match bandwidth {
        Bandwidth::Congest { bits_per_message } => bits_per_message,
        Bandwidth::Local => unreachable!(),
    };
    let tracer = opts.tracer.clone();
    let mut net = Network::new(g, bandwidth);
    opts.configure(&mut net);
    let _thm14 = tracer.span(span::THM14);

    // Step 1: Linial's O(Δ²)-coloring in O(log* n) rounds.
    let init = {
        let _linial = tracer.span(span::LINIAL_INIT);
        ldc_classic::linial_coloring(&mut net, None)?
    };

    // Branch rule: the √Δ pipeline is the paper's contribution for
    // Δ ≲ log² n; above that the classic O(Δ²) baseline loses and GK21
    // (substituted per §S4) would take over.
    let log_n = (n.max(2) as f64).log2();
    let branch = cfg
        .force_branch
        .unwrap_or(if (delta as f64) <= log_n * log_n {
            CongestBranch::SqrtDelta
        } else {
            CongestBranch::ClassIteration
        });

    match branch {
        CongestBranch::ClassIteration => {
            let colors = {
                let _ci = tracer.span(span::CLASS_ITERATION);
                ldc_classic::reduction::class_iteration_list_coloring(&mut net, &init, lists)?
            };
            let report = CongestReport {
                branch,
                rounds_main: net.rounds(),
                rounds_substrate: 0,
                max_message_bits: net.metrics().max_message_bits(),
                bandwidth_bits: budget,
                messages_total: net.metrics().total_messages(),
                bits_total: net.metrics().total_bits(),
                faults: FaultStats::from_metrics(net.metrics()),
                arb: None,
                kernels: KernelStats::default(),
            };
            Ok((colors, report))
        }
        CongestBranch::SqrtDelta => {
            // Corollary 4.2: pick p so candidate messages (≤ p + O(log n)
            // bits) fit the budget; then κ_eff = κ(p)^⌈log_p |𝒞|⌉.
            let p = (budget / 2).clamp(8, space.max(8));
            let kappa_p = practical_kappa(cfg.profile, delta as u64, p, init.palette_size());
            let mut levels = 0u32;
            let mut cap = 1u128;
            while cap < u128::from(space) {
                cap = cap.saturating_mul(u128::from(p));
                levels += 1;
            }
            let kappa_eff = kappa_p.powi(levels.max(1) as i32);
            let solver = ReducedTheorem11 {
                p,
                kappa_p,
                inner: Theorem11Solver {
                    kernels: opts.kernels.clone(),
                },
            };
            let arb_cfg = ArbConfig {
                nu: 1.0,
                kappa: kappa_eff,
                substrate: cfg.substrate,
                profile: cfg.profile,
                seed: cfg.seed,
            };
            let (colors, arb) =
                solve_degree_plus_one(&mut net, space, lists, &init, &arb_cfg, &solver)?;
            let report = CongestReport {
                branch,
                rounds_main: net.rounds(),
                rounds_substrate: arb.rounds_substrate,
                max_message_bits: net.metrics().max_message_bits().max(arb.max_message_bits),
                bandwidth_bits: budget,
                messages_total: net.metrics().total_messages() + arb.substrate_messages,
                bits_total: net.metrics().total_bits() + arb.substrate_bits,
                faults: FaultStats::from_metrics(net.metrics()),
                kernels: arb.kernels,
                arb: Some(arb),
            };
            Ok((colors, report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_proper_list_coloring;
    use ldc_graph::generators;
    use ldc_sim::{FaultPlan, RetryPolicy};

    fn degree_plus_one_lists(g: &ldc_graph::Graph, space: u64, salt: u64) -> Vec<Vec<Color>> {
        g.nodes()
            .map(|v| {
                let need = g.degree(v) + 1;
                let mut l: Vec<Color> = (0..need as u64)
                    .map(|i| (u64::from(v) * 31 + i * 71 + salt) % space)
                    .collect();
                l.sort_unstable();
                l.dedup();
                let mut c = 0;
                while l.len() < need {
                    if !l.contains(&c) {
                        l.push(c);
                    }
                    c += 1;
                }
                l.sort_unstable();
                l
            })
            .collect()
    }

    fn plain(
        g: &ldc_graph::Graph,
        space: u64,
        lists: &[Vec<Color>],
        cfg: &CongestConfig,
    ) -> Result<(Vec<Color>, CongestReport), CoreError> {
        congest_degree_plus_one(g, space, lists, cfg, &SolveOptions::default())
    }

    #[test]
    fn sqrt_branch_solves_within_congest_budget() {
        let g = generators::random_regular(300, 8, 6);
        let space = 256;
        let lists = degree_plus_one_lists(&g, space, 3);
        let cfg = CongestConfig {
            force_branch: Some(CongestBranch::SqrtDelta),
            ..CongestConfig::default()
        };
        let (colors, report) = plain(&g, space, &lists, &cfg).unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        assert!(report.max_message_bits <= report.bandwidth_bits);
        assert_eq!(report.branch, CongestBranch::SqrtDelta);
        assert!(report.faults.is_clean());
    }

    #[test]
    fn classic_branch_solves_within_congest_budget() {
        let g = generators::gnp(200, 0.05, 8);
        let space = 1024;
        let lists = degree_plus_one_lists(&g, space, 9);
        let cfg = CongestConfig {
            force_branch: Some(CongestBranch::ClassIteration),
            ..CongestConfig::default()
        };
        let (colors, report) = plain(&g, space, &lists, &cfg).unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        assert!(report.max_message_bits <= report.bandwidth_bits);
    }

    #[test]
    fn auto_branch_follows_delta_rule() {
        // Δ = 4 ≤ log²(200) ≈ 58: √Δ branch.
        let g = generators::random_regular(200, 4, 1);
        let space = 128;
        let lists = degree_plus_one_lists(&g, space, 1);
        let (_, report) = plain(&g, space, &lists, &CongestConfig::default()).unwrap();
        assert_eq!(report.branch, CongestBranch::SqrtDelta);
    }

    #[test]
    fn auto_branch_uses_classic_for_large_delta() {
        // K24: Δ = 23 > log²(24) ≈ 21 ⇒ the §S4 fallback branch.
        let g = generators::complete(24);
        let space = 24;
        let lists: Vec<Vec<Color>> = (0..24).map(|_| (0..24).collect()).collect();
        let (colors, report) = plain(&g, space, &lists, &CongestConfig::default()).unwrap();
        validate_proper_list_coloring(&g, &lists, &colors).unwrap();
        assert_eq!(report.branch, CongestBranch::ClassIteration);
        assert!(report.arb.is_none());
    }

    #[test]
    fn error_types_render() {
        use crate::ctx::CoreError;
        let e = CoreError::Precondition {
            node: 3,
            detail: "too small".into(),
        };
        assert!(e.to_string().contains("node 3"));
        let e = CoreError::SelectionExhausted {
            node: 1,
            attempts: 48,
        };
        assert!(e.to_string().contains("48"));
        let e = CoreError::PigeonholeFailed {
            node: 2,
            best: 5,
            budget: 1,
        };
        assert!(e.to_string().contains("budget"));
        let e = CoreError::Sim(ldc_sim::SimError::BandwidthExceeded {
            round: 0,
            node: 0,
            port: 0,
            bits: 10,
            limit: 4,
        });
        assert!(e.to_string().contains("CONGEST"));
    }

    #[test]
    fn bootstrap_and_randomized_substrates_work_in_congest() {
        let g = generators::random_regular(160, 6, 21);
        let space = 28;
        let lists = degree_plus_one_lists(&g, space, 2);
        for substrate in [
            crate::arbdefective::Substrate::Randomized,
            crate::arbdefective::Substrate::Bootstrap { levels: 1 },
        ] {
            let cfg = CongestConfig {
                force_branch: Some(CongestBranch::SqrtDelta),
                substrate,
                ..CongestConfig::default()
            };
            let (colors, report) = plain(&g, space, &lists, &cfg).unwrap();
            validate_proper_list_coloring(&g, &lists, &colors).unwrap();
            assert!(
                report.max_message_bits <= report.bandwidth_bits,
                "{substrate:?}"
            );
        }
    }

    #[test]
    fn faulted_options_match_clean_run_under_noop_plan() {
        let g = generators::random_regular(150, 6, 5);
        let space = 64;
        let lists = degree_plus_one_lists(&g, space, 4);
        let cfg = CongestConfig::default();
        let (clean, clean_report) = plain(&g, space, &lists, &cfg).unwrap();
        let opts = SolveOptions::default().with_faults(FaultPlan::new(13), RetryPolicy::default()); // no-op plan
        let (colors, report) = congest_degree_plus_one(&g, space, &lists, &cfg, &opts).unwrap();
        assert_eq!(colors, clean);
        assert_eq!(report.rounds_main, clean_report.rounds_main);
        assert_eq!(report.bits_total, clean_report.bits_total);
        assert!(report.faults.is_clean());
    }

    #[test]
    fn faulted_options_retry_through_transient_errors() {
        let g = generators::random_regular(150, 6, 5);
        let space = 64;
        let lists = degree_plus_one_lists(&g, space, 4);
        let cfg = CongestConfig::default();
        let (clean, _) = plain(&g, space, &lists, &cfg).unwrap();
        let opts = SolveOptions::default().with_faults(
            FaultPlan::new(0xFA).with_error_rate(0.2),
            RetryPolicy {
                max_retries: 25,
                backoff_rounds: 1,
            },
        );
        let (colors, report) = congest_degree_plus_one(&g, space, &lists, &cfg, &opts).unwrap();
        assert_eq!(colors, clean, "absorbed retries must not change output");
        validate_proper_list_coloring(&g, &lists, &colors).unwrap();
        assert!(report.max_message_bits <= report.bandwidth_bits);
        assert!(report.faults.rounds_retried > 0);
    }

    #[test]
    fn standard_delta_plus_one_instance() {
        // The plain (Δ+1)-coloring problem: space = Δ+1, full lists.
        let g = generators::random_regular(150, 6, 5);
        let space = 7;
        let lists: Vec<Vec<Color>> = (0..150).map(|_| (0..7).collect()).collect();
        let (colors, report) = plain(&g, space, &lists, &CongestConfig::default()).unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        assert!(report.max_message_bits <= report.bandwidth_bits);
    }
}

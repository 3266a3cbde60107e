//! High-level one-call solvers for [`LdcInstance`] and [`OldcInstance`] —
//! the API a downstream user reaches for first. Each call sets up the
//! network, runs the appropriate algorithm from the paper, validates the
//! output exactly, and reports rounds/message statistics.
//!
//! [`SolveOptions`] is the *unified* options surface: besides the
//! algorithmic knobs (bandwidth, profile, seed) it carries the execution
//! environment — a phase-span [`Tracer`], an optional fault environment
//! ([`FaultEnv`]: plan + round-retry policy), and the kernel
//! configuration — attached builder-style with
//! [`SolveOptions::with_trace`] / [`SolveOptions::with_faults`] /
//! [`SolveOptions::with_kernel_mode`] and friends. Every solver entry
//! point takes one `&SolveOptions`; there are no `_traced` / `_faulted`
//! variants.
//!
//! The [`Resilient`] wrapper runs the same solvers on a *faulty* network:
//! transient round failures are absorbed by the engine's retry loop, and a
//! solver run the network-level retries could not save is **restarted from
//! its last consistent round** — which for these deterministic,
//! checkpoint-free pipelines is round 0 of a fresh attempt with re-keyed
//! fault draws (see DESIGN.md §9).

use crate::arbdefective::{solve_list_arbdefective, ArbConfig, Substrate};
use crate::colorspace::Theorem11Solver;
use crate::ctx::{CoreError, OldcCtx};
use crate::existence;
use crate::kernels::{KernelConfig, KernelMode, KernelStats, SharedTypeCache};
use crate::oldc::solve_oldc;
use crate::params::{practical_kappa, ParamProfile};
use crate::problem::{Color, LdcInstance, OldcInstance};
use crate::validate;
use ldc_graph::{Orientation, ProperColoring};
use ldc_sim::{Bandwidth, FaultPlan, Metrics, Network, RetryPolicy, Tracer};
use std::sync::Arc;

/// A fault environment: the seeded plan driving the fault draws plus the
/// engine's round-retry policy. Carried by [`SolveOptions::faults`].
#[derive(Debug, Clone)]
pub struct FaultEnv {
    /// Seeded, deterministic fault plan attached to the main network.
    pub plan: FaultPlan,
    /// Round-retry policy handed to the engine.
    pub retry: RetryPolicy,
}

/// Options shared by the high-level solvers: the algorithmic knobs plus
/// the execution environment (tracer, faults, kernels). Build with the
/// `with_*` methods; the default is a flawless untraced network.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Bandwidth regime of the simulated network.
    pub bandwidth: Bandwidth,
    /// Constant profile (see DESIGN.md §S2).
    pub profile: ParamProfile,
    /// Seed for all type-keyed selections.
    pub seed: u64,
    /// Phase-span tracer attached to every network the solve creates
    /// (disabled — free — by default).
    pub tracer: Tracer,
    /// Fault environment for the solver's main network (`None` = flawless).
    pub faults: Option<FaultEnv>,
    /// How every Theorem 1.1 solve runs its kernels (fast, sequential,
    /// private cache by default). Colors, rounds, and bits are
    /// byte-identical under every configuration (DESIGN.md §13); set it
    /// with [`Self::with_kernel_mode`], [`Self::with_solver_threads`], and
    /// [`Self::with_shared_kernels`].
    pub(crate) kernels: KernelConfig,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            bandwidth: Bandwidth::Local,
            profile: ParamProfile::practical_default(),
            seed: 0x1dc,
            tracer: Tracer::disabled(),
            faults: None,
            kernels: KernelConfig::default(),
        }
    }
}

impl SolveOptions {
    /// Replace the selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a phase-span tracer.
    pub fn with_trace(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a fault environment (plan + round-retry policy).
    pub fn with_faults(mut self, plan: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = Some(FaultEnv { plan, retry });
        self
    }

    /// Set the worker-thread count for the solver's batched per-node
    /// phases (clamped to ≥ 1; `1` runs them inline). Outputs and kernel
    /// call/miss counters are byte-identical at every thread count.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.kernels = self.kernels.with_threads(threads);
        self
    }

    /// Attach a fleet-shared kernel cache: warm subset-selection and
    /// conflict-verdict entries are reused across solves that share it.
    pub fn with_shared_kernels(mut self, shared: Arc<SharedTypeCache>) -> Self {
        self.kernels = self.kernels.with_shared(shared);
        self
    }

    /// Select the kernel implementations. [`KernelMode::Reference`]
    /// re-routes every kernel through the naive loops — colors, rounds,
    /// and bits stay byte-identical (the soak harness checks it on every
    /// scenario), only the cache counters differ.
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernels.mode = mode;
        self
    }

    /// Attach the execution environment these options carry — tracer,
    /// fault plan + retry policy — to `net`. Bandwidth is a
    /// construction-time property of the network and is not touched.
    pub fn configure(&self, net: &mut Network<'_>) {
        net.set_tracer(self.tracer.clone());
        if let Some(env) = &self.faults {
            net.set_fault_plan(env.plan.clone());
            net.set_retry_policy(env.retry);
        }
    }
}

/// The engine's fault counters, shared by [`Solution`],
/// [`ResilientReport`], [`crate::congest::CongestReport`], and the batch
/// runner's JSONL schema (one struct, one meaning everywhere).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Round attempts retried under a fault plan (0 on a clean run).
    pub rounds_retried: u64,
    /// Idle backoff rounds charged by retries (0 on a clean run).
    pub stalled_rounds: u64,
    /// Messages lost to injected faults (0 on a clean run).
    pub messages_dropped: u64,
    /// Node-round crash/sleep events (0 on a clean run).
    pub faulted_nodes: u64,
}

impl FaultStats {
    /// Extract the fault counters from a network's metrics.
    pub fn from_metrics(m: &Metrics) -> FaultStats {
        FaultStats {
            rounds_retried: m.rounds_retried(),
            stalled_rounds: m.stalled_rounds(),
            messages_dropped: m.messages_dropped(),
            faulted_nodes: m.faulted_nodes(),
        }
    }

    /// Fold `other` into `self` (sequential composition of runs, or the
    /// batch runner's fleet-level roll-up).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.rounds_retried += other.rounds_retried;
        self.stalled_rounds += other.stalled_rounds;
        self.messages_dropped += other.messages_dropped;
        self.faulted_nodes += other.faulted_nodes;
    }

    /// True when no fault, retry, or stall was recorded.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// A validated solution with its execution statistics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The coloring (validated before return).
    pub colors: Vec<Color>,
    /// The witnessing orientation (list *arbdefective* solves only).
    pub orientation: Option<Orientation>,
    /// Communication rounds used (main network).
    pub rounds: usize,
    /// Largest message in bits.
    pub max_message_bits: u64,
    /// Total bits on the wire.
    pub total_bits: u64,
    /// Fault accounting for this run (all-zero on a clean network).
    pub faults: FaultStats,
    /// Kernel cache statistics of the solve (all-zero for paths that never
    /// run the type-keyed kernels, e.g. the sequential existence search).
    pub kernels: KernelStats,
}

/// Build a [`Solution`] from a finished network's metrics.
fn solution_from(
    net: &Network<'_>,
    colors: Vec<Color>,
    orientation: Option<Orientation>,
    kernels: KernelStats,
) -> Solution {
    let m = net.metrics();
    Solution {
        colors,
        orientation,
        rounds: net.rounds(),
        max_message_bits: m.max_message_bits(),
        total_bits: m.total_bits(),
        faults: FaultStats::from_metrics(m),
        kernels,
    }
}

/// One solve attempt: the outcome plus the network's complete metrics —
/// which the caller receives *even when the attempt failed*, so the
/// [`Resilient`] wrapper can account abandoned attempts without a
/// metrics side-channel in the solver signatures.
struct Attempt {
    result: Result<Solution, CoreError>,
    metrics: Metrics,
}

impl<'g> OldcInstance<'g> {
    /// Solve this oriented list defective coloring instance with the
    /// algorithm of Theorem 1.1. The output is checked by
    /// [`validate::validate_oldc`] before it is returned. The execution
    /// environment (tracer, faults, kernels) comes from `opts`.
    pub fn solve(&self, opts: &SolveOptions) -> Result<Solution, CoreError> {
        self.attempt(opts).result
    }

    /// One attempt under `opts`, returning the network metrics alongside
    /// the outcome (failed attempts included).
    fn attempt(&self, opts: &SolveOptions) -> Attempt {
        let g = self.view.graph();
        let n = g.num_nodes();
        let init = ProperColoring::by_id(g);
        let init_colors: Vec<u64> = g.nodes().map(|v| init.color(v)).collect();
        let active = vec![true; n];
        let group = vec![0u64; n];
        let ctx = OldcCtx {
            view: &self.view,
            space: self.space.size,
            init: &init_colors,
            m: init.palette_size(),
            active: &active,
            group: &group,
            profile: opts.profile,
            seed: opts.seed,
        };
        let mut net = Network::new(g, opts.bandwidth);
        opts.configure(&mut net);
        let result = (|| {
            let out = solve_oldc(&mut net, &ctx, &self.lists, &opts.kernels)?;
            let kernels = out.stats.kernels;
            let colors: Vec<Color> = out
                .colors
                .into_iter()
                .map(|c| c.expect("all nodes active"))
                .collect();
            validate::validate_oldc(&self.view, &self.lists, &colors).map_err(|e| {
                CoreError::Precondition {
                    node: 0,
                    detail: format!("internal: output invalid: {e}"),
                }
            })?;
            Ok(solution_from(&net, colors, None, kernels))
        })();
        Attempt {
            result,
            metrics: net.metrics().clone(),
        }
    }
}

impl<'g> LdcInstance<'g> {
    /// Solve sequentially via the potential-function search of Lemma A.1
    /// (requires the existence condition Σ(d+1) > deg).
    pub fn solve_sequential(&self) -> Result<Solution, CoreError> {
        let sol = existence::solve_ldc(self).map_err(|e| CoreError::Precondition {
            node: match e {
                existence::ExistenceError::ConditionViolated(v) => v,
            },
            detail: e.to_string(),
        })?;
        Ok(Solution {
            colors: sol.colors,
            orientation: None,
            rounds: 0,
            max_message_bits: 0,
            total_bits: 0,
            faults: FaultStats::default(),
            kernels: KernelStats::default(),
        })
    }

    /// Solve distributedly: the undirected instance is lifted to the
    /// bidirected oriented instance (β_v = deg(v), the reduction noted
    /// after Theorem 1.2) and solved with Theorem 1.1.
    pub fn solve_distributed(&self, opts: &SolveOptions) -> Result<Solution, CoreError> {
        self.attempt_distributed(opts).result
    }

    fn attempt_distributed(&self, opts: &SolveOptions) -> Attempt {
        let view = ldc_graph::DirectedView::bidirected(self.graph);
        let inst = OldcInstance::new(view, self.space, self.lists.clone());
        let mut attempt = inst.attempt(opts);
        attempt.result = attempt.result.and_then(|sol| {
            validate::validate_ldc(self.graph, &self.lists, &sol.colors).map_err(|e| {
                CoreError::Precondition {
                    node: 0,
                    detail: format!("internal: output invalid: {e}"),
                }
            })?;
            Ok(sol)
        });
        attempt
    }

    /// Solve as a **list arbdefective** instance with Theorem 1.3
    /// (requires only the linear condition Σ(d+1) > deg); returns the
    /// witnessing orientation. The execution environment of `opts` —
    /// tracer, fault plan + retries — rides on the main
    /// network (substrate sub-networks stay fault-free, as in
    /// [`crate::congest::congest_degree_plus_one`]).
    pub fn solve_arbdefective(&self, opts: &SolveOptions) -> Result<Solution, CoreError> {
        self.attempt_arbdefective(opts).result
    }

    fn attempt_arbdefective(&self, opts: &SolveOptions) -> Attempt {
        let g = self.graph;
        let init = ProperColoring::by_id(g);
        let cfg = ArbConfig {
            nu: 1.0,
            kappa: practical_kappa(
                opts.profile,
                g.max_degree() as u64,
                self.space.size,
                g.num_nodes() as u64,
            ),
            substrate: Substrate::Sequential,
            profile: opts.profile,
            seed: opts.seed,
        };
        let mut net = Network::new(g, opts.bandwidth);
        opts.configure(&mut net);
        let result = (|| {
            let (colors, orientation, report) = solve_list_arbdefective(
                &mut net,
                self.space.size,
                &self.lists,
                &init,
                &cfg,
                &Theorem11Solver {
                    kernels: opts.kernels.clone(),
                },
            )?;
            validate::validate_arbdefective(g, &self.lists, &colors, &orientation).map_err(
                |e| CoreError::Precondition {
                    node: 0,
                    detail: format!("internal: output invalid: {e}"),
                },
            )?;
            Ok(solution_from(
                &net,
                colors,
                Some(orientation),
                report.kernels,
            ))
        })();
        Attempt {
            result,
            metrics: net.metrics().clone(),
        }
    }
}

/// Runs the high-level solvers on a faulty network and restarts them when
/// round-level retries cannot save a run.
///
/// Layered recovery, outermost to innermost:
///
/// 1. **Engine retries** ([`RetryPolicy`]): a failed round attempt is
///    re-executed with the sender states rolled back (see
///    [`ldc_sim::Network::set_retry_policy`]).
/// 2. **Solver restarts** (this wrapper): if a run still fails with a
///    *network* error ([`CoreError::Sim`] — injected transient fault or a
///    budget violation under an adversarial schedule), the solver is
///    restarted from its last consistent round. The paper's pipelines are
///    deterministic and keep no mid-run checkpoints, so the last
///    consistent round is round 0: each restart replays the whole solve
///    under a re-keyed plan ([`FaultPlan::with_epoch`]) — deterministic,
///    but with fresh fault draws.
///
/// Algorithmic errors (preconditions, selection exhaustion, …) are *not*
/// retried: they indicate a bad instance, not a bad network.
///
/// The wrapper's own plan and retry policy override any [`FaultEnv`]
/// already carried by the caller's [`SolveOptions`] (each restart needs
/// its epoch-keyed plan). All attempts — including abandoned ones — are
/// accounted in the returned [`ResilientReport`].
#[derive(Debug, Clone)]
pub struct Resilient {
    /// Base fault plan; restart `k` runs under `plan.with_epoch(k)`.
    pub plan: FaultPlan,
    /// Round-level retry policy handed to the engine.
    pub retry: RetryPolicy,
    /// Solver restarts allowed after round-level retries fail.
    pub max_restarts: u32,
}

impl Resilient {
    /// Wrap `plan` with a moderate default recovery budget: 3 round
    /// retries (1 stall round each) and 3 solver restarts.
    pub fn new(plan: FaultPlan) -> Resilient {
        Resilient {
            plan,
            retry: RetryPolicy {
                max_retries: 3,
                backoff_rounds: 1,
            },
            max_restarts: 3,
        }
    }

    /// [`OldcInstance::solve`] under this fault environment.
    pub fn solve_oldc(
        &self,
        inst: &OldcInstance<'_>,
        opts: &SolveOptions,
    ) -> Result<(Solution, ResilientReport), CoreError> {
        self.drive(opts, |o| inst.attempt(o))
    }

    /// [`LdcInstance::solve_distributed`] under this fault environment.
    pub fn solve_distributed(
        &self,
        inst: &LdcInstance<'_>,
        opts: &SolveOptions,
    ) -> Result<(Solution, ResilientReport), CoreError> {
        self.drive(opts, |o| inst.attempt_distributed(o))
    }

    /// [`LdcInstance::solve_arbdefective`] under this fault environment.
    pub fn solve_arbdefective(
        &self,
        inst: &LdcInstance<'_>,
        opts: &SolveOptions,
    ) -> Result<(Solution, ResilientReport), CoreError> {
        self.drive(opts, |o| inst.attempt_arbdefective(o))
    }

    /// The restart loop shared by the solver entry points: attempt `k`
    /// runs under `opts` with this wrapper's epoch-`k` fault environment
    /// attached; every attempt's metrics fold into the report.
    fn drive(
        &self,
        opts: &SolveOptions,
        mut attempt: impl FnMut(&SolveOptions) -> Attempt,
    ) -> Result<(Solution, ResilientReport), CoreError> {
        let mut acc = Metrics::default();
        let mut restarts = 0u32;
        loop {
            let epoch_opts = opts
                .clone()
                .with_faults(self.plan.with_epoch(u64::from(restarts)), self.retry);
            let Attempt { result, metrics } = attempt(&epoch_opts);
            acc.extend_from(&metrics);
            match result {
                Ok(sol) => {
                    return Ok((
                        sol,
                        ResilientReport {
                            restarts,
                            rounds_all_attempts: acc.rounds(),
                            faults: FaultStats::from_metrics(&acc),
                        },
                    ));
                }
                Err(CoreError::Sim(_)) if restarts < self.max_restarts => restarts += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Fault accounting over *all* attempts of a [`Resilient`] solve,
/// including the abandoned ones (the [`Solution`]'s own counters cover
/// only the final, successful attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientReport {
    /// Solver restarts that were needed (0 = first attempt succeeded).
    pub restarts: u32,
    /// Rounds executed across every attempt.
    pub rounds_all_attempts: usize,
    /// Fault counters summed across every attempt.
    pub faults: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ColorSpace, DefectList};
    use ldc_graph::generators;

    #[test]
    fn oldc_instance_one_call() {
        let g = generators::random_regular(80, 6, 4);
        let view = ldc_graph::DirectedView::bidirected(&g);
        let space = 1 << 13;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| DefectList::uniform((0..3000u64).map(|i| (i * 3 + u64::from(v)) % space), 3))
            .collect();
        let inst = OldcInstance::new(view, ColorSpace::new(space), lists);
        let sol = inst.solve(&SolveOptions::default()).unwrap();
        assert!(sol.rounds > 0);
        assert!(sol.max_message_bits > 0);
        assert!(sol.faults.is_clean());
    }

    #[test]
    fn ldc_instance_three_ways() {
        let g = generators::gnp(70, 0.08, 6);
        let delta = g.max_degree() as u64;
        let space = 1 << 13;
        // Rich lists so both the sequential and the distributed route work.
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                DefectList::uniform(
                    (0..3000u64).map(|i| (i * 5 + u64::from(v)) % space),
                    delta / 2,
                )
            })
            .collect();
        let inst = LdcInstance::new(&g, ColorSpace::new(space), lists);
        let seq = inst.solve_sequential().unwrap();
        assert_eq!(seq.rounds, 0);
        let dist = inst.solve_distributed(&SolveOptions::default()).unwrap();
        assert!(dist.rounds > 0);
        let arb = inst.solve_arbdefective(&SolveOptions::default()).unwrap();
        assert!(arb.orientation.is_some());
    }

    fn rich_oldc_instance(g: &ldc_graph::Graph) -> OldcInstance<'_> {
        let view = ldc_graph::DirectedView::bidirected(g);
        let space = 1 << 13;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| DefectList::uniform((0..3000u64).map(|i| (i * 3 + u64::from(v)) % space), 3))
            .collect();
        OldcInstance::new(view, ColorSpace::new(space), lists)
    }

    fn rich_ldc_instance(g: &ldc_graph::Graph) -> LdcInstance<'_> {
        let delta = g.max_degree() as u64;
        let space = 1 << 13;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                DefectList::uniform(
                    (0..3000u64).map(|i| (i * 5 + u64::from(v)) % space),
                    delta / 2,
                )
            })
            .collect();
        LdcInstance::new(g, ColorSpace::new(space), lists)
    }

    #[test]
    fn resilient_noop_plan_matches_plain_solve() {
        let g = generators::random_regular(80, 6, 4);
        let inst = rich_oldc_instance(&g);
        let opts = SolveOptions::default();
        let plain = inst.solve(&opts).unwrap();
        let plan = ldc_sim::FaultPlan::new(99); // all rates zero: a no-op
        let (sol, report) = Resilient::new(plan).solve_oldc(&inst, &opts).unwrap();
        assert_eq!(sol.colors, plain.colors);
        assert_eq!(sol.rounds, plain.rounds);
        assert_eq!(sol.total_bits, plain.total_bits);
        assert_eq!(report.restarts, 0);
        assert!(report.faults.is_clean());
        assert_eq!(report.rounds_all_attempts, plain.rounds);
    }

    #[test]
    fn solve_with_faults_in_options_matches_clean_run_under_noop_plan() {
        // The unified surface: faults ride on SolveOptions directly, no
        // wrapper and no separate entry point.
        let g = generators::random_regular(80, 6, 4);
        let inst = rich_oldc_instance(&g);
        let plain = inst.solve(&SolveOptions::default()).unwrap();
        let opts = SolveOptions::default()
            .with_faults(ldc_sim::FaultPlan::new(42), RetryPolicy::default());
        let sol = inst.solve(&opts).unwrap();
        assert_eq!(sol.colors, plain.colors);
        assert_eq!(sol.total_bits, plain.total_bits);
        assert!(sol.faults.is_clean());
    }

    #[test]
    fn resilient_arbdefective_noop_plan_matches_plain_solve() {
        // Mirror of resilient_noop_plan_matches_plain_solve for the
        // Theorem 1.3 entry point, which previously had no fault path.
        let g = generators::gnp(70, 0.08, 6);
        let inst = rich_ldc_instance(&g);
        let opts = SolveOptions::default();
        let plain = inst.solve_arbdefective(&opts).unwrap();
        let plan = ldc_sim::FaultPlan::new(99); // all rates zero: a no-op
        let (sol, report) = Resilient::new(plan)
            .solve_arbdefective(&inst, &opts)
            .unwrap();
        assert_eq!(sol.colors, plain.colors);
        assert_eq!(sol.rounds, plain.rounds);
        assert_eq!(sol.total_bits, plain.total_bits);
        assert_eq!(sol.orientation, plain.orientation);
        assert_eq!(report.restarts, 0);
        assert!(report.faults.is_clean());
        assert_eq!(report.rounds_all_attempts, plain.rounds);
    }

    #[test]
    fn resilient_arbdefective_absorbs_transient_errors() {
        let g = generators::gnp(70, 0.08, 6);
        let inst = rich_ldc_instance(&g);
        let opts = SolveOptions::default();
        let plain = inst.solve_arbdefective(&opts).unwrap();
        let wrapper = Resilient {
            plan: ldc_sim::FaultPlan::new(0xA2B).with_error_rate(0.2),
            retry: ldc_sim::RetryPolicy {
                max_retries: 6,
                backoff_rounds: 1,
            },
            max_restarts: 20,
        };
        let (sol, report) = wrapper.solve_arbdefective(&inst, &opts).unwrap();
        assert_eq!(sol.colors, plain.colors, "recovered run = clean run");
        assert!(
            report.faults.rounds_retried > 0,
            "errors must have been retried"
        );
        assert!(report.rounds_all_attempts >= sol.rounds);
    }

    #[test]
    fn resilient_absorbs_transient_errors() {
        let g = generators::random_regular(80, 6, 4);
        let inst = rich_oldc_instance(&g);
        let opts = SolveOptions::default();
        let plain = inst.solve(&opts).unwrap();
        // Round-level retries plus solver restarts soak up a 30% per-round
        // transient error rate; the pipeline is deterministic, so once the
        // faults are absorbed the coloring is exactly the clean one.
        let wrapper = Resilient {
            plan: ldc_sim::FaultPlan::new(0x0BAD).with_error_rate(0.3),
            retry: ldc_sim::RetryPolicy {
                max_retries: 4,
                backoff_rounds: 1,
            },
            max_restarts: 30,
        };
        let (sol, report) = wrapper.solve_oldc(&inst, &opts).unwrap();
        assert_eq!(sol.colors, plain.colors, "recovered run = clean run");
        assert!(
            report.faults.rounds_retried > 0,
            "errors must have been retried"
        );
        assert_eq!(report.faults.stalled_rounds, report.faults.rounds_retried);
        assert!(report.rounds_all_attempts >= sol.rounds);
    }

    #[test]
    fn resilient_gives_up_on_persistent_faults() {
        let g = generators::random_regular(80, 6, 4);
        let inst = rich_oldc_instance(&g);
        // A 1-bit budget from round 0 fails every attempt deterministically
        // (the schedule is not epoch-keyed), so the wrapper must surface
        // the simulator error after its restart budget.
        let wrapper = Resilient {
            plan: ldc_sim::FaultPlan::new(7).with_budget_step(0, Some(1)),
            retry: ldc_sim::RetryPolicy {
                max_retries: 1,
                backoff_rounds: 0,
            },
            max_restarts: 2,
        };
        let err = wrapper
            .solve_oldc(&inst, &SolveOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::Sim(_)), "got {err:?}");
    }

    #[test]
    fn resilient_distributed_entry_point_works() {
        let g = generators::gnp(70, 0.08, 6);
        let inst = rich_ldc_instance(&g);
        let wrapper = Resilient::new(ldc_sim::FaultPlan::new(11).with_error_rate(0.1));
        let (sol, _report) = wrapper
            .solve_distributed(&inst, &SolveOptions::default())
            .unwrap();
        assert!(sol.rounds > 0);
    }

    #[test]
    fn under_provisioned_instances_error_cleanly() {
        let g = generators::complete(8);
        let lists: Vec<DefectList> = (0..8).map(|_| DefectList::uniform(0..4, 0)).collect();
        let inst = LdcInstance::new(&g, ColorSpace::new(8), lists);
        assert!(inst.solve_sequential().is_err());
        assert!(inst.solve_arbdefective(&SolveOptions::default()).is_err());
    }

    #[test]
    fn fault_stats_absorb_and_clean() {
        let mut a = FaultStats {
            rounds_retried: 1,
            stalled_rounds: 2,
            messages_dropped: 3,
            faulted_nodes: 4,
        };
        assert!(!a.is_clean());
        assert!(FaultStats::default().is_clean());
        a.absorb(&a.clone());
        assert_eq!(
            a,
            FaultStats {
                rounds_retried: 2,
                stalled_rounds: 4,
                messages_dropped: 6,
                faulted_nodes: 8,
            }
        );
    }
}

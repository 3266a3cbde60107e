//! Solver entry points driven directly, for the two things
//! `Fleet::run_one` cannot do: run with the solver's span tree on
//! (`SolveOptions::with_trace`), and survive a solver panic.

use ldc_batch::{Algorithm, Fleet, JobOutcome, JobSpec};
use ldc_core::congest::{congest_degree_plus_one, CongestConfig};
use ldc_core::edge_coloring::edge_coloring;
use ldc_core::kernels::SharedTypeCache;
use ldc_core::problem::ColorSpace;
use ldc_core::{LdcInstance, OldcInstance, Resilient, Solution, SolveOptions};
use ldc_graph::{DirectedView, Graph};
use ldc_sim::Tracer;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The numbers a job's row reports, recomputed by a traced solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Rounds.
    pub rounds: u64,
    /// Bits on the wire.
    pub bits: u64,
    /// Distinct output colors.
    pub colors: u64,
}

impl Counts {
    /// The counts a finished job's row reports.
    pub fn of(o: &JobOutcome) -> Counts {
        Counts {
            rounds: o.rounds,
            bits: o.total_bits,
            colors: o.colors_used,
        }
    }
}

fn distinct(colors: &[u64]) -> u64 {
    colors.iter().collect::<BTreeSet<_>>().len() as u64
}

fn from_solution(sol: &Solution) -> Counts {
    Counts {
        rounds: sol.rounds as u64,
        bits: sol.total_bits,
        colors: distinct(&sol.colors),
    }
}

/// Solve `job` on `g` with the same options `Fleet::run_one` builds for
/// `fleet`, plus `tracer`. The dispatch mirrors the batch runner's, so
/// the counts must equal the job's row; the caller checks that.
pub fn traced_solve(
    job: &JobSpec,
    g: &Graph,
    fleet: &Fleet,
    shared: Option<&Arc<SharedTypeCache>>,
    tracer: Tracer,
) -> Result<Counts, String> {
    let mut opts = SolveOptions::default()
        .with_seed(job.seed)
        .with_solver_threads(fleet.solver_threads)
        .with_kernel_mode(fleet.kernel_mode)
        .with_trace(tracer);
    if let Some(sc) = shared {
        opts = opts.with_shared_kernels(sc.clone());
    }
    let space = job.lists.space(g);
    let resilient = job.faults.map(|f| Resilient {
        plan: f.plan(),
        retry: f.retry(),
        max_restarts: f.max_restarts,
    });
    let err = |e: ldc_core::CoreError| e.to_string();
    match job.algorithm {
        Algorithm::Oldc => {
            let inst = OldcInstance::new(
                DirectedView::bidirected(g),
                ColorSpace::new(space),
                job.lists.defect_lists(g),
            );
            match &resilient {
                Some(r) => r.solve_oldc(&inst, &opts).map(|(s, _)| from_solution(&s)),
                None => inst.solve(&opts).map(|s| from_solution(&s)),
            }
            .map_err(err)
        }
        Algorithm::LdcDistributed | Algorithm::Arbdefective => {
            let inst = LdcInstance::new(g, ColorSpace::new(space), job.lists.defect_lists(g));
            let arb = job.algorithm == Algorithm::Arbdefective;
            match (&resilient, arb) {
                (Some(r), true) => r.solve_arbdefective(&inst, &opts).map(|(s, _)| s),
                (Some(r), false) => r.solve_distributed(&inst, &opts).map(|(s, _)| s),
                (None, true) => inst.solve_arbdefective(&opts),
                (None, false) => inst.solve_distributed(&opts),
            }
            .map(|s| from_solution(&s))
            .map_err(err)
        }
        Algorithm::Congest | Algorithm::EdgeColoring => {
            let cfg = CongestConfig {
                seed: job.seed,
                ..CongestConfig::default()
            };
            if let Some(f) = &job.faults {
                opts = opts.with_faults(f.plan(), f.retry());
            }
            if job.algorithm == Algorithm::Congest {
                let lists = job.lists.color_lists(g);
                congest_degree_plus_one(g, space, &lists, &cfg, &opts)
                    .map(|(colors, report)| Counts {
                        rounds: report.rounds_total() as u64,
                        bits: report.bits_total,
                        colors: distinct(&colors),
                    })
                    .map_err(err)
            } else {
                edge_coloring(g, &cfg, &opts)
                    .map(|ec| Counts {
                        rounds: ec.report.rounds_total() as u64,
                        bits: ec.report.bits_total,
                        colors: ec.colors_used() as u64,
                    })
                    .map_err(err)
            }
        }
    }
}

/// Run every job of `spec` once through `Fleet::run_one` under
/// `catch_unwind` and count the solver panics. The default panic hook
/// is muted meanwhile, and each panic is reported as one line.
pub fn count_panics(spec: &str) -> Result<u64, String> {
    let jobs = ldc_batch::parse_spec_file(spec)?;
    let fleet = Fleet::new(1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panics = 0;
    for (i, job) in jobs.iter().enumerate() {
        let graph = job.graph.build();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.run_one(i, job, &graph, None)
        }));
        if let Err(payload) = run {
            panics += 1;
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            eprintln!("probe: job {} panicked: {msg}", job.to_json());
        }
    }
    std::panic::set_hook(hook);
    Ok(panics)
}

//! **Theorem 1.3** — solving *list arbdefective* coloring instances (and
//! thus `(degree+1)`-list coloring) with an OLDC solver.
//!
//! Given any instance with `Σ_{x∈L_v}(d_v(x)+1) > deg(v)` for all `v`, the
//! driver repeatedly halves the maximum degree of the uncolored subgraph:
//!
//! 1. compute a `δ`-arbdefective `q`-coloring of the uncolored subgraph
//!    (`q ≈ Λ^{ν/(1+ν)}·κ^{1/(1+ν)}`, `δ ≈ Δ/(2q)` — Eq. (13)),
//! 2. iterate over the `q` buckets; in bucket `i`, the nodes that still
//!    have at least `Δ/2` uncolored neighbors solve the *residual* OLDC
//!    instance (`d'_v(x) = d_v(x) − a_v(x)` where `a_v(x)` counts
//!    already-colored neighbors of color `x`) on the bucket's low-outdegree
//!    oriented subgraph, and announce their colors,
//! 3. recurse on the remaining nodes, whose uncolored degree has halved.
//!
//! Edges are oriented from later- to earlier-colored endpoints (same-call
//! pairs inherit the stage orientation), which is exactly what makes the
//! residual defects compose: earlier neighbors are accounted in `a_v`,
//! same-call neighbors by the OLDC guarantee, later neighbors point away.
//!
//! The arbdefective substrate is pluggable (DESIGN.md §S3):
//! [`Substrate::Sequential`] uses the `O((Δ/δ)² + log* n)`-round sweep of
//! `ldc-classic`; [`Substrate::Bootstrap`] applies this very theorem to the
//! substrate problem (lists `[q]`, uniform defect `δ`), restoring the
//! `Õ(√(Δ/(d+1)))`-round shape needed by Theorem 1.4.

use crate::colorspace::OldcSolver;
use crate::ctx::{span, CoreError, OldcCtx};
use crate::kernels::KernelStats;
use crate::params::ParamProfile;
use crate::problem::{Color, DefectList};
use ldc_graph::orientation::EdgeDir;
use ldc_graph::{DirectedView, Graph, NodeId, Orientation, ProperColoring};
use ldc_sim::{bits_for_value, MessageSize, Network, Tracer};

/// How the per-stage arbdefective decomposition is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// `ldc-classic`'s sequential sweep: `O((Δ/δ)² + log* n)` rounds.
    Sequential,
    /// `ldc-classic`'s seeded randomized draw-and-settle: `O(log n)` rounds
    /// w.h.p. Used by the shape experiments; outputs are checked by the
    /// same validator as the deterministic substrates.
    Randomized,
    /// Recurse through Theorem 1.3 itself `levels` times before falling
    /// back to the sequential sweep.
    Bootstrap {
        /// Remaining recursion depth.
        levels: u32,
    },
}

/// Configuration for the Theorem 1.3 driver.
#[derive(Debug, Clone, Copy)]
pub struct ArbConfig {
    /// Condition exponent `ν` of the OLDC solver (Theorem 1.1: `ν = 1`).
    pub nu: f64,
    /// Defect-mass factor `κ` the solver needs (see
    /// [`crate::params::practical_kappa`]).
    pub kappa: f64,
    /// Substrate choice.
    pub substrate: Substrate,
    /// Parameter profile.
    pub profile: ParamProfile,
    /// Selection seed.
    pub seed: u64,
}

/// Round/message accounting across the driver and its substrate calls
/// (substrates run on induced subgraphs with their own networks, so the
/// main network's counters alone would undercount).
#[derive(Debug, Clone, Default)]
pub struct ArbReport {
    /// Rounds on the main network (OLDC calls + color announcements).
    pub rounds_main: usize,
    /// Rounds spent inside substrate calls (including recursive ones).
    pub rounds_substrate: usize,
    /// Number of degree-halving stages executed.
    pub stages: u32,
    /// Number of per-bucket OLDC calls.
    pub oldc_calls: u32,
    /// Largest message over main + substrate networks.
    pub max_message_bits: u64,
    /// Messages sent inside substrate calls (including recursive ones).
    pub substrate_messages: u64,
    /// Bits sent inside substrate calls (including recursive ones).
    pub substrate_bits: u64,
    /// Kernel cache statistics folded over every OLDC solve (per-bucket
    /// calls and recursive substrate calls alike).
    pub kernels: KernelStats,
}

impl ArbReport {
    /// Total rounds across main and substrate networks.
    pub fn rounds_total(&self) -> usize {
        self.rounds_main + self.rounds_substrate
    }
}

#[derive(Clone)]
struct ColorAnnounce {
    /// Transmitted payload (receivers in a real deployment read this; the
    /// simulator driver updates its table directly).
    #[allow(dead_code)]
    color: Color,
    space: u64,
}

impl MessageSize for ColorAnnounce {
    fn bits(&self) -> u64 {
        bits_for_value(self.space.saturating_sub(1)).max(1)
    }
}

/// Solve a list arbdefective coloring instance satisfying
/// `Σ(d_v(x)+1) > deg(v)` for all `v` (the `(degree+1)`-condition of
/// Theorem 1.3). Returns the coloring and the witnessing orientation.
///
/// Kernel-mode wiring: the inner OLDC calls go through the generic
/// `solver` parameter, so a [`crate::colorspace::Theorem11Solver`] runs
/// whatever [`crate::kernels::KernelConfig`] it carries — the
/// packed/memoized kernels by default, the naive ones under
/// `KernelMode::Reference` — and `tests/kernels.rs` diffs the two end to
/// end (colors, orientation, rounds, bits must be byte-identical).
pub fn solve_list_arbdefective<S: OldcSolver>(
    net: &mut Network<'_>,
    space: u64,
    lists: &[DefectList],
    init: &ProperColoring,
    cfg: &ArbConfig,
    solver: &S,
) -> Result<(Vec<Color>, Orientation, ArbReport), CoreError> {
    let g = net.graph();
    let n = g.num_nodes();
    assert_eq!(lists.len(), n);
    for v in g.nodes() {
        if lists[v as usize].linear_mass() <= g.degree(v) as u64 {
            return Err(CoreError::Precondition {
                node: v,
                detail: format!(
                    "Theorem 1.3 needs Σ(d+1) > deg: {} ≤ {}",
                    lists[v as usize].linear_mass(),
                    g.degree(v)
                ),
            });
        }
    }

    let tracer = net.tracer().clone();
    let _thm13 = tracer.span(span::THM13);
    let mut report = ArbReport::default();
    let rounds_before = net.rounds();
    let mut colors: Vec<Option<Color>> = vec![None; n];
    let mut color_time: Vec<u64> = vec![u64::MAX; n];
    let mut dirs: Vec<EdgeDir> = vec![EdgeDir::Forward; g.num_edges()];
    let mut time = 0u64;
    let init_colors: Vec<u64> = g.nodes().map(|v| init.color(v)).collect();

    let uncolored_degree = |v: NodeId, colors: &[Option<Color>]| -> usize {
        g.neighbors(v)
            .iter()
            .filter(|&&u| colors[u as usize].is_none())
            .count()
    };
    // a_v(x): colored neighbors of v wearing x. (Node-local knowledge: every
    // colored node announced its color on the main network when it decided.)
    let residual_list = |v: NodeId, colors: &[Option<Color>]| -> DefectList {
        let mut taken: std::collections::HashMap<Color, u64> = std::collections::HashMap::new();
        for &u in g.neighbors(v) {
            if let Some(c) = colors[u as usize] {
                *taken.entry(c).or_insert(0) += 1;
            }
        }
        lists[v as usize]
            .iter()
            .filter_map(|(c, d)| {
                let a = taken.get(&c).copied().unwrap_or(0);
                d.checked_sub(a).map(|rest| (c, rest))
            })
            .collect()
    };

    let announce = |net: &mut Network<'_>,
                    colors: &mut [Option<Color>],
                    fresh: &[Option<Color>]|
     -> Result<(), CoreError> {
        // One round: freshly colored nodes broadcast their color. The driver
        // updates the `colors` table directly (receivers would do the same).
        let _announce = tracer.span(span::ANNOUNCE);
        let mut states: Vec<Option<Color>> = fresh.to_vec();
        net.broadcast_exchange(
            &mut states,
            |_, s| s.map(|c| ColorAnnounce { color: c, space }),
            |_, _, _| {},
        )?;
        for (v, f) in fresh.iter().enumerate() {
            if let Some(c) = f {
                colors[v] = Some(*c);
            }
        }
        Ok(())
    };

    let max_stages = 2 * (usize::BITS - (g.max_degree().max(1)).leading_zeros()) + 8;
    'stages: loop {
        if colors.iter().all(Option::is_some) {
            break;
        }
        report.stages += 1;
        assert!(report.stages <= max_stages, "degree halving must terminate");
        let _stage = tracer.span(span::stage(report.stages as usize));
        tracer.add(span::CTR_STAGES, 1);
        let delta_s = g
            .nodes()
            .filter(|&v| colors[v as usize].is_none())
            .map(|v| uncolored_degree(v, &colors))
            .max()
            .unwrap_or(0);

        if delta_s == 0 {
            // Isolated uncolored nodes: any residual color works.
            let mut fresh: Vec<Option<Color>> = vec![None; n];
            for v in g.nodes() {
                if colors[v as usize].is_none() {
                    let rl = residual_list(v, &colors);
                    let c = rl
                        .colors()
                        .next()
                        .expect("Σ(d+1) > deg keeps lists non-empty");
                    fresh[v as usize] = Some(c);
                    color_time[v as usize] = time;
                }
            }
            time += 1;
            announce(net, &mut colors, &fresh)?;
            for (e, u, v) in g.edges() {
                resolve_edge(e, u, v, &color_time, None, &mut dirs);
            }
            break 'stages;
        }

        // Eq. (13): bucket count and arbdefect of the stage decomposition.
        let lambda = g
            .nodes()
            .filter(|&v| colors[v as usize].is_none())
            .map(|v| lists[v as usize].len())
            .max()
            .unwrap_or(1) as f64;
        let q_target = (lambda.powf(cfg.nu / (1.0 + cfg.nu)) * cfg.kappa.powf(1.0 / (1.0 + cfg.nu)))
            .ceil()
            .max(1.0) as u64;
        let delta_arb = (delta_s as u64) / (2 * q_target);

        // Substrate: δ-arbdefective q-coloring of the uncolored subgraph.
        let (sub, old_of_new) = g.induced_subgraph(|v| colors[v as usize].is_none());
        let sub_init = restrict_coloring(init, &old_of_new);
        let (buckets_sub, orient_sub, sub_report) = {
            let _substrate = tracer.span(span::SUBSTRATE);
            arbdefective_substrate(
                &sub,
                &sub_init,
                delta_arb,
                cfg,
                solver,
                net.bandwidth(),
                &tracer,
            )?
        };
        report.rounds_substrate += sub_report.rounds;
        report.max_message_bits = report.max_message_bits.max(sub_report.max_bits);
        report.substrate_messages += sub_report.messages;
        report.substrate_bits += sub_report.bits;
        report.kernels.absorb(&sub_report.kernels);
        let q = buckets_sub.q;

        // Map the stage orientation back to the full graph.
        let mut stage_dirs = vec![EdgeDir::Forward; g.num_edges()];
        let mut new_of_old = vec![u32::MAX; n];
        for (nv, &ov) in old_of_new.iter().enumerate() {
            new_of_old[ov as usize] = nv as u32;
        }
        for (e_sub, su, sv) in sub.edges() {
            let (ou, ov) = (old_of_new[su as usize], old_of_new[sv as usize]);
            let e = g.edge_id(ou, ov).expect("induced edge exists in g");
            // Forward in sub means su → sv; in g, edge e is stored (min,max).
            let (a, _) = g.endpoints(e);
            let sub_forward = matches!(orient_sub.dir(e_sub), EdgeDir::Forward);
            let tail_old = if sub_forward { ou } else { ov };
            stage_dirs[e as usize] = if tail_old == a {
                EdgeDir::Forward
            } else {
                EdgeDir::Backward
            };
        }
        let stage_orientation = Orientation::from_dirs(g, stage_dirs.clone());
        let stage_view = DirectedView::from_orientation(g, &stage_orientation);

        // Iterate the buckets.
        for bucket in 0..q {
            report.oldc_calls += 1;
            let mut active = vec![false; n];
            let mut any = false;
            for (nv, &ov) in old_of_new.iter().enumerate() {
                let ovz = ov as usize;
                if colors[ovz].is_none()
                    && buckets_sub.buckets[nv] == bucket
                    && 2 * uncolored_degree(ov, &colors) >= delta_s
                {
                    active[ovz] = true;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let _bucket = tracer.span(span::BUCKET_OLDC);
            tracer.add(span::CTR_OLDC_CALLS, 1);
            let mut call_lists: Vec<DefectList> = vec![DefectList::default(); n];
            for v in g.nodes() {
                if active[v as usize] {
                    call_lists[v as usize] = residual_list(v, &colors);
                }
            }
            let group = vec![0u64; n];
            let ctx = OldcCtx {
                view: &stage_view,
                space,
                init: &init_colors,
                m: init.palette_size(),
                active: &active,
                group: &group,
                profile: cfg.profile,
                seed: cfg.seed ^ (u64::from(report.oldc_calls) << 32),
            };
            let picked = solver.solve(net, &ctx, &call_lists, &mut report.kernels)?;

            let mut fresh: Vec<Option<Color>> = vec![None; n];
            for v in 0..n {
                if active[v] {
                    let c = picked[v].expect("solver colors active nodes");
                    fresh[v] = Some(c);
                    color_time[v] = time;
                }
            }
            time += 1;
            announce(net, &mut colors, &fresh)?;
            // Resolve orientations of edges touching freshly colored nodes.
            for (v, f) in fresh.iter().enumerate() {
                if f.is_none() {
                    continue;
                }
                for &e in g.incident_edges(v as NodeId) {
                    let (a, b) = g.endpoints(e);
                    resolve_edge(e, a, b, &color_time, Some(&stage_dirs), &mut dirs);
                }
            }
        }
    }

    let _ = time; // the final timestamp has no successor
    report.rounds_main = net.rounds() - rounds_before;
    report.max_message_bits = report
        .max_message_bits
        .max(net.metrics().max_message_bits());
    let orientation = Orientation::from_dirs(g, dirs);
    let colors: Vec<Color> = colors
        .into_iter()
        .map(|c| c.expect("loop colors all"))
        .collect();
    Ok((colors, orientation, report))
}

/// Decide the direction of edge `e = {u, v}`: from the later-colored to the
/// earlier-colored endpoint; same-time pairs inherit the stage orientation.
fn resolve_edge(
    e: ldc_graph::EdgeId,
    u: NodeId,
    v: NodeId,
    color_time: &[u64],
    stage_dirs: Option<&[EdgeDir]>,
    dirs: &mut [EdgeDir],
) {
    let (tu, tv) = (color_time[u as usize], color_time[v as usize]);
    if tu == u64::MAX || tv == u64::MAX {
        return; // not both colored yet
    }
    dirs[e as usize] = match tu.cmp(&tv) {
        std::cmp::Ordering::Greater => EdgeDir::Forward, // u later ⇒ u → v
        std::cmp::Ordering::Less => EdgeDir::Backward,   // v later ⇒ v → u
        std::cmp::Ordering::Equal => match stage_dirs {
            Some(sd) => sd[e as usize],
            None => EdgeDir::Forward,
        },
    };
}

fn restrict_coloring(init: &ProperColoring, old_of_new: &[NodeId]) -> Vec<u64> {
    old_of_new.iter().map(|&ov| init.color(ov)).collect()
}

/// Engine totals of one substrate call (its own sub-network plus any
/// recursive substrate calls underneath it).
#[derive(Debug, Clone, Copy, Default)]
struct SubStats {
    rounds: usize,
    max_bits: u64,
    messages: u64,
    bits: u64,
    kernels: KernelStats,
}

impl SubStats {
    fn of(net: &Network<'_>) -> Self {
        SubStats {
            rounds: net.rounds(),
            max_bits: net.metrics().max_message_bits(),
            messages: net.metrics().total_messages(),
            bits: net.metrics().total_bits(),
            kernels: KernelStats::default(),
        }
    }
}

/// A `δ`-arbdefective coloring of `sub` via the configured substrate.
/// Returns `(buckets, orientation, engine totals)`. The caller's tracer is
/// attached to the substrate's own network, so its rounds land in the
/// caller's open `substrate` span rather than vanishing off-tree.
fn arbdefective_substrate<S: OldcSolver>(
    sub: &Graph,
    sub_init: &[u64],
    delta_arb: u64,
    cfg: &ArbConfig,
    solver: &S,
    bandwidth: ldc_sim::Bandwidth,
    tracer: &Tracer,
) -> Result<(ldc_classic::ArbdefectiveColoring, Orientation, SubStats), CoreError> {
    let mut sub_net = Network::new(sub, bandwidth);
    sub_net.set_tracer(tracer.clone());
    let init = ProperColoring::new(
        sub,
        sub_init.to_vec(),
        sub_init.iter().copied().max().unwrap_or(0) + 1,
    )
    .expect("restriction of a proper coloring is proper");

    match cfg.substrate {
        Substrate::Randomized => {
            let _s = tracer.span(span::RAND_ARBDEFECTIVE);
            let q = (2 * (sub.max_degree() as u64).max(1))
                .div_ceil(delta_arb + 1)
                .max(2);
            let a = ldc_classic::randomized_arbdefective(&mut sub_net, delta_arb, q, cfg.seed)
                .map_err(CoreError::Sim)?;
            let o = a.orientation.clone();
            let stats = SubStats::of(&sub_net);
            Ok((a, o, stats))
        }
        Substrate::Sequential => {
            let _s = tracer.span(span::SEQ_ARBDEFECTIVE);
            let q =
                ldc_classic::ArbdefectiveColoring::min_buckets(sub.max_degree() as u64, delta_arb);
            let a = ldc_classic::sequential_arbdefective(&mut sub_net, Some(&init), delta_arb, q)?;
            let o = a.orientation.clone();
            let stats = SubStats::of(&sub_net);
            Ok((a, o, stats))
        }
        Substrate::Bootstrap { levels } => {
            let next = if levels == 0 {
                Substrate::Sequential
            } else {
                Substrate::Bootstrap { levels: levels - 1 }
            };
            let inner = ArbConfig {
                substrate: next,
                ..*cfg
            };
            arbdefective_substrate_inner(sub, &init, delta_arb, &inner, solver, &mut sub_net)
        }
    }
}

/// The bootstrap: the substrate problem — `q` buckets, uniform arbdefect
/// `δ` — *is* a list arbdefective instance (`q·(δ+1) > Δ`), so Theorem 1.3
/// solves it recursively.
fn arbdefective_substrate_inner<S: OldcSolver>(
    sub: &Graph,
    init: &ProperColoring,
    delta_arb: u64,
    inner_cfg: &ArbConfig,
    solver: &S,
    sub_net: &mut Network<'_>,
) -> Result<(ldc_classic::ArbdefectiveColoring, Orientation, SubStats), CoreError> {
    let delta = sub.max_degree() as u64;
    let q = (delta / (delta_arb + 1) + 1).max(1);
    let lists: Vec<DefectList> = (0..sub.num_nodes())
        .map(|_| DefectList::uniform(0..q, delta_arb))
        .collect();
    let (buckets, orientation, rep) =
        solve_list_arbdefective(sub_net, q, &lists, init, inner_cfg, solver)?;
    let a = ldc_classic::ArbdefectiveColoring {
        buckets,
        q,
        arbdefect: delta_arb,
        orientation: orientation.clone(),
    };
    let stats = SubStats {
        rounds: rep.rounds_total(),
        max_bits: rep.max_message_bits,
        messages: sub_net.metrics().total_messages() + rep.substrate_messages,
        bits: sub_net.metrics().total_bits() + rep.substrate_bits,
        kernels: rep.kernels,
    };
    Ok((a, orientation, stats))
}

/// `(degree+1)`-list coloring via Theorem 1.3 (all defects zero).
pub fn solve_degree_plus_one<S: OldcSolver>(
    net: &mut Network<'_>,
    space: u64,
    lists: &[Vec<Color>],
    init: &ProperColoring,
    cfg: &ArbConfig,
    solver: &S,
) -> Result<(Vec<Color>, ArbReport), CoreError> {
    let dls: Vec<DefectList> = lists
        .iter()
        .map(|l| DefectList::uniform(l.iter().copied(), 0))
        .collect();
    let (colors, _orientation, report) =
        solve_list_arbdefective(net, space, &dls, init, cfg, solver)?;
    Ok((colors, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colorspace::Theorem11Solver;
    use crate::params::practical_kappa;
    use crate::validate::{validate_arbdefective, validate_proper_list_coloring};
    use ldc_graph::generators;
    use ldc_sim::Bandwidth;

    fn cfg_for(delta: usize, space: u64, n: usize) -> ArbConfig {
        let profile = ParamProfile::practical_default();
        ArbConfig {
            nu: 1.0,
            kappa: practical_kappa(profile, delta as u64, space, n as u64),
            substrate: Substrate::Sequential,
            profile,
            seed: 7,
        }
    }

    fn degree_plus_one_lists(g: &Graph, space: u64) -> Vec<Vec<Color>> {
        g.nodes()
            .map(|v| {
                let need = g.degree(v) as u64 + 1;
                let mut l: Vec<Color> = (0..need)
                    .map(|i| (u64::from(v) * 13 + i * 97) % space)
                    .collect();
                l.sort_unstable();
                l.dedup();
                let mut c = 0;
                while (l.len() as u64) < need {
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

    #[test]
    fn degree_plus_one_on_regular_graph() {
        let g = generators::random_regular(120, 8, 4);
        let space = 1024;
        let lists = degree_plus_one_lists(&g, space);
        let mut net = Network::new(&g, Bandwidth::Local);
        let init = ProperColoring::by_id(&g);
        let cfg = cfg_for(8, space, 120);
        let (colors, report) = solve_degree_plus_one(
            &mut net,
            space,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        assert!(report.stages >= 1 && report.oldc_calls >= 1);
    }

    #[test]
    fn degree_plus_one_on_gnp() {
        let g = generators::gnp(150, 0.06, 2);
        let space = 2048;
        let lists = degree_plus_one_lists(&g, space);
        let mut net = Network::new(&g, Bandwidth::Local);
        let init = ProperColoring::by_id(&g);
        let cfg = cfg_for(g.max_degree(), space, 150);
        let (colors, _) = solve_degree_plus_one(
            &mut net,
            space,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
    }

    #[test]
    fn plain_delta_plus_one_coloring() {
        let g = generators::complete(20);
        let space = 20;
        let lists: Vec<Vec<Color>> = (0..20).map(|_| (0..20).collect()).collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let init = ProperColoring::by_id(&g);
        let cfg = cfg_for(19, space, 20);
        let (colors, _) = solve_degree_plus_one(
            &mut net,
            space,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap();
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
    }

    #[test]
    fn list_arbdefective_with_defects() {
        // Lists of ~deg/3 colors with defect 2: Σ(d+1) = 3·|L| > deg.
        let g = generators::random_regular(90, 9, 8);
        let space = 512;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                let need = g.degree(v) as u64 / 3 + 1;
                DefectList::new(
                    (0..need)
                        .map(|i| ((u64::from(v) + i * 31) % space, 2))
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let init = ProperColoring::by_id(&g);
        let cfg = cfg_for(9, space, 90);
        let (colors, orientation, _) = solve_list_arbdefective(
            &mut net,
            space,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap();
        assert_eq!(
            validate_arbdefective(&g, &lists, &colors, &orientation),
            Ok(())
        );
    }

    #[test]
    fn rejects_undersized_lists() {
        let g = generators::complete(6);
        let lists: Vec<DefectList> = (0..6).map(|_| DefectList::uniform(0..5, 0)).collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let init = ProperColoring::by_id(&g);
        let cfg = cfg_for(5, 5, 6);
        let err = solve_list_arbdefective(
            &mut net,
            5,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Precondition { .. }));
    }

    #[test]
    fn bootstrap_substrate_matches_sequential() {
        let g = generators::random_regular(80, 6, 12);
        let space = 512;
        let lists = degree_plus_one_lists(&g, space);
        let init = ProperColoring::by_id(&g);
        for substrate in [Substrate::Sequential, Substrate::Bootstrap { levels: 1 }] {
            let mut net = Network::new(&g, Bandwidth::Local);
            let cfg = ArbConfig {
                substrate,
                ..cfg_for(6, space, 80)
            };
            let (colors, _) = solve_degree_plus_one(
                &mut net,
                space,
                &lists,
                &init,
                &cfg,
                &Theorem11Solver::default(),
            )
            .unwrap();
            assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        }
    }
}

//! End-to-end integration tests spanning all crates: the full Theorem 1.4
//! pipeline, Theorem 1.3 on heterogeneous instances, baseline agreement,
//! and cross-validation of the distributed outputs against the sequential
//! existence solvers.

use ldc::classic;
use ldc::core::arbdefective::{solve_list_arbdefective, ArbConfig, Substrate};
use ldc::core::colorspace::Theorem11Solver;
use ldc::core::congest::{congest_degree_plus_one, CongestBranch, CongestConfig};
use ldc::core::existence::solve_ldc;
use ldc::core::params::practical_kappa;
use ldc::core::validate::{validate_arbdefective, validate_ldc, validate_proper_list_coloring};
use ldc::core::{ColorSpace, DefectList, LdcInstance, ParamProfile, SolveOptions};
use ldc::graph::{generators, Graph, ProperColoring};
use ldc::sim::{Bandwidth, Network};

fn degree_plus_one_lists(g: &Graph, space: u64, salt: u64) -> Vec<Vec<u64>> {
    g.nodes()
        .map(|v| {
            let need = g.degree(v) + 1;
            let mut l: Vec<u64> = (0..need as u64)
                .map(|i| (u64::from(v) * 29 + i * 83 + salt) % space)
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

#[test]
fn theorem_1_4_across_graph_families() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("ring", generators::ring(128)),
        ("torus", generators::torus(10, 12)),
        ("regular-8", generators::random_regular(180, 8, 3)),
        ("gnp", generators::gnp(160, 0.05, 4)),
        ("tree", generators::complete_tree(150, 3)),
        ("power-law", generators::preferential_attachment(150, 3, 5)),
        ("lollipop", generators::lollipop(80, 12)),
    ];
    for (name, g) in graphs {
        let space = 4 * (g.max_degree() as u64 + 1);
        let lists = degree_plus_one_lists(&g, space, 7);
        let (colors, report) = congest_degree_plus_one(
            &g,
            space,
            &lists,
            &CongestConfig::default(),
            &SolveOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        validate_proper_list_coloring(&g, &lists, &colors)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.max_message_bits <= report.bandwidth_bits,
            "{name}: {} > {}",
            report.max_message_bits,
            report.bandwidth_bits
        );
    }
}

#[test]
fn theorem_1_4_agrees_with_all_baselines_on_validity() {
    let g = generators::random_regular(200, 6, 9);
    let space = 7u64;
    let lists: Vec<Vec<u64>> = (0..200).map(|_| (0..7).collect()).collect();

    // Paper pipeline.
    let (c1, _) = congest_degree_plus_one(
        &g,
        space,
        &lists,
        &CongestConfig::default(),
        &SolveOptions::default(),
    )
    .unwrap();
    // Classic class iteration.
    let mut net = Network::new(&g, Bandwidth::congest_log(200, 8));
    let lin = classic::linial_coloring(&mut net, None).unwrap();
    let c2 = classic::reduction::class_iteration_list_coloring(&mut net, &lin, &lists).unwrap();
    // Luby.
    let mut net = Network::new(&g, Bandwidth::Local);
    let c3 = classic::luby::luby_list_coloring(&mut net, &lists, 5).unwrap();
    // LOCAL full-list greedy.
    let mut net = Network::new(&g, Bandwidth::Local);
    let c4 = classic::list_baseline::local_greedy_list_coloring(&mut net, &lists, space).unwrap();
    // Sequential greedy.
    let c5 = classic::greedy::greedy_list_coloring(&g, &lists).unwrap();

    for (i, c) in [c1, c2, c3, c4, c5].iter().enumerate() {
        validate_proper_list_coloring(&g, &lists, c).unwrap_or_else(|e| panic!("algo {i}: {e}"));
    }
}

#[test]
fn theorem_1_3_heterogeneous_defects_all_substrates() {
    let g = generators::gnp(120, 0.08, 11);
    let space = 600u64;
    // Mixed lists: a few defect-2 colors plus defect-0 fill-up so that
    // Σ(d+1) = deg+2 > deg.
    let lists: Vec<DefectList> = g
        .nodes()
        .map(|v| {
            let deg = g.degree(v) as u64;
            let twos = deg / 4;
            let zeros = deg + 2 - 3 * twos;
            let mut entries: Vec<(u64, u64)> = (0..twos)
                .map(|i| ((u64::from(v) * 7 + i * 11) % 256, 2))
                .collect();
            entries.extend((0..zeros).map(|i| (256 + ((u64::from(v) * 13 + i * 17) % 344), 0)));
            entries.sort_unstable();
            entries.dedup_by_key(|e| e.0);
            // Top up after dedup to restore the budget.
            let mut c = 0;
            while entries.iter().map(|&(_, d)| d + 1).sum::<u64>() <= deg {
                if !entries.iter().any(|&(x, _)| x == c) {
                    entries.push((c, 0));
                }
                c += 1;
            }
            DefectList::new(entries)
        })
        .collect();
    let init = ProperColoring::by_id(&g);
    let profile = ParamProfile::practical_default();
    for substrate in [
        Substrate::Sequential,
        Substrate::Randomized,
        Substrate::Bootstrap { levels: 1 },
    ] {
        let cfg = ArbConfig {
            nu: 1.0,
            kappa: practical_kappa(profile, g.max_degree() as u64, space, 120),
            substrate,
            profile,
            seed: 13,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let (colors, orientation, _) = solve_list_arbdefective(
            &mut net,
            space,
            &lists,
            &init,
            &cfg,
            &Theorem11Solver::default(),
        )
        .unwrap_or_else(|e| panic!("{substrate:?}: {e}"));
        validate_arbdefective(&g, &lists, &colors, &orientation)
            .unwrap_or_else(|e| panic!("{substrate:?}: {e}"));
    }
}

#[test]
fn distributed_and_sequential_solvers_accept_the_same_instances() {
    // Above the existence threshold the sequential solver (Lemma A.1) must
    // succeed; the distributed OLDC machinery must then also produce a
    // coloring at least as constrained (its outputs validate under the
    // *undirected* checker when run on the bidirected view).
    let g = generators::random_regular(64, 4, 21);
    let space = ColorSpace::new(1 << 12);
    let lists: Vec<DefectList> = g
        .nodes()
        .map(|v| DefectList::uniform((0..1024u64).map(|i| (i * 3 + u64::from(v)) % (1 << 12)), 1))
        .collect();
    let inst = LdcInstance::new(&g, space, lists.clone());
    let seq = solve_ldc(&inst).unwrap();
    validate_ldc(&g, &lists, &seq.colors).unwrap();

    use ldc::core::colorspace::OldcSolver;
    use ldc::core::{KernelStats, OldcCtx};
    use ldc::graph::DirectedView;
    let view = DirectedView::bidirected(&g);
    let init: Vec<u64> = g.nodes().map(u64::from).collect();
    let active = vec![true; 64];
    let group = vec![0u64; 64];
    let ctx = OldcCtx {
        view: &view,
        space: 1 << 12,
        init: &init,
        m: 64,
        active: &active,
        group: &group,
        profile: ParamProfile::practical_default(),
        seed: 2,
    };
    let mut net = Network::new(&g, Bandwidth::Local);
    let dist = Theorem11Solver::default()
        .solve(&mut net, &ctx, &lists, &mut KernelStats::default())
        .unwrap();
    let dist: Vec<u64> = dist.into_iter().map(|c| c.unwrap()).collect();
    // Bidirected OLDC validity == undirected LDC validity.
    validate_ldc(&g, &lists, &dist).unwrap();
}

#[test]
fn congest_budget_failures_are_loud() {
    // A 4-bit budget cannot carry Linial's id-colors on a 1024-node graph
    // (the palette is above the O(Δ²) fixpoint, so reduction rounds *do*
    // run): the simulator must return a bandwidth error, never truncate.
    let g = generators::random_regular(1024, 4, 2);
    let mut net = Network::new(
        &g,
        Bandwidth::Congest {
            bits_per_message: 4,
        },
    );
    let err = classic::linial_coloring(&mut net, None);
    assert!(err.is_err(), "10-bit ids cannot fit 4-bit messages");
}

#[test]
fn forced_branches_both_work() {
    let g = generators::random_regular(150, 6, 31);
    let space = 7u64;
    let lists: Vec<Vec<u64>> = (0..150).map(|_| (0..7).collect()).collect();
    for branch in [CongestBranch::SqrtDelta, CongestBranch::ClassIteration] {
        let cfg = CongestConfig {
            force_branch: Some(branch),
            ..CongestConfig::default()
        };
        let (colors, report) =
            congest_degree_plus_one(&g, space, &lists, &cfg, &SolveOptions::default()).unwrap();
        validate_proper_list_coloring(&g, &lists, &colors).unwrap();
        assert_eq!(report.branch, branch);
    }
}

/// Heavy end-to-end run kept out of the default suite:
/// `cargo test --release -- --ignored` exercises Theorem 1.4 at
/// n = 20 000 with the randomized substrate.
#[test]
#[ignore]
fn theorem_1_4_at_scale() {
    let g = generators::random_regular(20_000, 10, 99);
    let space = 44;
    let lists = degree_plus_one_lists(&g, space, 3);
    let cfg = CongestConfig {
        substrate: Substrate::Randomized,
        ..CongestConfig::default()
    };
    let (colors, report) =
        congest_degree_plus_one(&g, space, &lists, &cfg, &SolveOptions::default()).unwrap();
    validate_proper_list_coloring(&g, &lists, &colors).unwrap();
    assert!(report.max_message_bits <= report.bandwidth_bits);
}

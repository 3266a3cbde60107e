//! Property-style tests for the core invariants: existence above the
//! threshold, validator/brute-force agreement, conflict-machinery algebra,
//! Euler balance, and graph invariants.
//!
//! Each property is driven by a deterministic seeded case loop (the
//! workspace builds hermetically, so no proptest): every case derives its
//! inputs from `ldc_rand::Rng`, and failures print the case seed for
//! replay.

use ldc::classic::greedy::brute_force_list_defective;
use ldc::core::conflict::{best_residue, conflict_weight, mu_g, residue_restrict};
use ldc::core::euler::{balanced_orientation, out_degrees};
use ldc::core::existence::{solve_arbdefective, solve_ldc};
use ldc::core::validate::{validate_arbdefective, validate_ldc};
use ldc::core::{ColorSpace, DefectList, LdcInstance};
use ldc::graph::{builder::from_edges, generators, GraphBuilder};
use ldc_rand::Rng;

/// A random simple graph on `2..24` nodes drawn from `r` (mirrors the old
/// proptest strategy: a multiset of unranked pair indices, deduplicated by
/// the builder).
fn arb_graph(r: &mut Rng) -> ldc::graph::Graph {
    let n = r.gen_range(2usize..24);
    let max_edges = n * (n - 1) / 2;
    let m = r.gen_range(0usize..max_edges.min(60) + 1);
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let idx = r.gen_range(0usize..max_edges);
        // unrank pair
        let mut u = 0usize;
        let mut rem = idx;
        loop {
            let row = n - 1 - u;
            if rem < row {
                b.add_edge(u as u32, (u + 1 + rem) as u32);
                break;
            }
            rem -= row;
            u += 1;
        }
    }
    b.build().expect("generated edges are simple")
}

/// Run `body` for `cases` deterministic cases; panics carry the case index.
fn cases(count: u64, body: impl Fn(&mut Rng)) {
    for case in 0..count {
        let mut r = Rng::seed_from_u64(0xC0FFEE ^ (case.wrapping_mul(0x9e3779b97f4a7c15)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut r)));
        if let Err(e) = result {
            eprintln!("property failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Lemma A.1: any instance satisfying Σ(d+1) > deg is solvable, and the
/// solution passes the exact validator.
#[test]
fn existence_above_threshold_always_solves() {
    cases(96, |r| {
        let g = arb_graph(r);
        let defect = r.gen_range(0u64..3);
        let extra = r.gen_range(1u64..4);
        let seed = r.gen_range(0u64..1000);
        let space = 64u64;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                let deg = g.degree(v) as u64;
                let need = deg / (defect + 1) + extra; // Σ(d+1) = need·(defect+1) > deg
                DefectList::uniform(
                    (0..need)
                        .map(|i| (u64::from(v) * 7 + i * 5 + seed) % space)
                        .collect::<std::collections::BTreeSet<_>>(),
                    defect,
                )
            })
            .collect();
        // Deduplication may have shrunk lists below the threshold; skip then.
        let inst = LdcInstance::new(&g, ColorSpace::new(space), lists.clone());
        if inst.check_existence_condition().is_err() {
            return;
        }
        let sol = solve_ldc(&inst).unwrap();
        assert_eq!(validate_ldc(&g, &lists, &sol.colors), Ok(()));
    });
}

/// Lemma A.2: the arbdefective condition Σ(2d+1) > deg suffices, and the
/// produced orientation witnesses the defects.
#[test]
fn arb_existence_above_threshold() {
    cases(96, |r| {
        let g = arb_graph(r);
        let defect = r.gen_range(1u64..3);
        let space = 64u64;
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                let deg = g.degree(v) as u64;
                let need = deg / (2 * defect + 1) + 1;
                DefectList::uniform(
                    (0..need)
                        .map(|i| (u64::from(v) + i * 11) % space)
                        .collect::<std::collections::BTreeSet<_>>(),
                    defect,
                )
            })
            .collect();
        let inst = LdcInstance::new(&g, ColorSpace::new(space), lists.clone());
        if inst.check_arb_existence_condition().is_err() {
            return;
        }
        let sol = solve_arbdefective(&inst).unwrap();
        assert_eq!(
            validate_arbdefective(&g, &lists, &sol.colors, &sol.orientation),
            Ok(())
        );
    });
}

/// The validator agrees with brute force on tiny instances: whenever the
/// brute force finds no solution, the local-search precondition must fail
/// too (contrapositive of Lemma A.1).
#[test]
fn brute_force_agrees_with_lemma_a1() {
    cases(96, |r| {
        let n = r.gen_range(2usize..6);
        let colors = r.gen_range(1u64..4);
        let defect = r.gen_range(0u64..2);
        let g = generators::complete(n);
        let lists: Vec<Vec<u64>> = (0..n).map(|_| (0..colors).collect()).collect();
        let dls: Vec<DefectList> = (0..n)
            .map(|_| DefectList::uniform(0..colors, defect))
            .collect();
        let inst = LdcInstance::new(&g, ColorSpace::new(colors), dls.clone());
        let brute = brute_force_list_defective(&g, &lists, &|_, _| defect);
        if inst.check_existence_condition().is_ok() {
            // Lemma A.1 ⇒ solvable ⇒ brute force must find it too.
            assert!(brute.is_some());
            let sol = solve_ldc(&inst).unwrap();
            assert_eq!(validate_ldc(&g, &dls, &sol.colors), Ok(()));
        }
        if let Some(b) = brute {
            assert_eq!(validate_ldc(&g, &dls, &b), Ok(()));
        }
    });
}

/// Conflict weight is symmetric and matches the naive double loop.
#[test]
fn conflict_weight_symmetric_and_exact() {
    cases(96, |r| {
        let mut a: Vec<u64> = (0..r.gen_range(0usize..12))
            .map(|_| r.gen_range(0u64..64))
            .collect();
        let mut b: Vec<u64> = (0..r.gen_range(0usize..12))
            .map(|_| r.gen_range(0u64..64))
            .collect();
        let gap = r.gen_range(0u64..5);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let naive: u64 = a
            .iter()
            .map(|&x| b.iter().filter(|&&y| x.abs_diff(y) <= gap).count() as u64)
            .sum();
        assert_eq!(conflict_weight(&a, &b, gap), naive);
        assert_eq!(conflict_weight(&b, &a, gap), naive);
    });
}

/// μ_g over a residue-restricted list is at most 1 (the §3.2.2 trick).
#[test]
fn residue_restriction_bounds_mu() {
    cases(96, |r| {
        let count = r.gen_range(1usize..64);
        let colors: std::collections::BTreeSet<u64> =
            (0..count).map(|_| r.gen_range(0u64..512)).collect();
        let colors: Vec<u64> = colors.into_iter().collect();
        let gap = r.gen_range(1u64..6);
        let probe = r.gen_range(0u64..512);
        let a = best_residue(&colors, gap);
        let restricted = residue_restrict(&colors, a, gap);
        assert!(restricted.len() as u64 * (2 * gap + 1) + 2 * gap >= colors.len() as u64);
        assert!(mu_g(probe, &restricted, gap) <= 1);
    });
}

/// Euler orientation always balances to ⌈deg/2⌉.
#[test]
fn euler_orientation_is_balanced() {
    cases(96, |r| {
        let m = r.gen_range(0usize..40);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (r.gen_range(0u32..12), r.gen_range(0u32..12)))
            .filter(|&(u, v)| u != v)
            .collect();
        let fwd = balanced_orientation(12, &edges);
        let mut deg = [0usize; 12];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let out = out_degrees(12, &edges, &fwd);
        for v in 0..12 {
            assert!(out[v] <= deg[v].div_ceil(2));
        }
    });
}

/// Graph invariants: degree sum = 2m, adjacency sorted, edges shared.
#[test]
fn graph_invariants() {
    cases(96, |r| {
        let g = arb_graph(r);
        assert_eq!(g.degree_sum(), 2 * g.num_edges());
        for v in g.nodes() {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]));
            for (&u, &e) in nb.iter().zip(g.incident_edges(v)) {
                assert_eq!(g.other_endpoint(e, v), u);
                assert!(g.has_edge(u, v));
            }
        }
    });
}

/// Message size accounting: bits_for_value is the bit length.
#[test]
fn bits_for_value_is_bit_length() {
    cases(256, |r| {
        let x = r.next_u64();
        let b = ldc::sim::bits_for_value(x);
        if x == 0 {
            assert_eq!(b, 0);
        } else {
            assert!(x >= 1u64 << (b - 1).min(63));
            assert!(b == 64 || x < 1u64 << b);
        }
    });
    assert_eq!(ldc::sim::bits_for_value(0), 0);
    assert_eq!(ldc::sim::bits_for_value(1), 1);
    assert_eq!(ldc::sim::bits_for_value(u64::MAX), 64);
}

/// DefectList masses are consistent under filtering.
#[test]
fn defect_list_mass_monotone() {
    cases(96, |r| {
        let count = r.gen_range(1usize..32);
        let entries: std::collections::BTreeMap<u64, u64> = (0..count)
            .map(|_| (r.gen_range(0u64..128), r.gen_range(0u64..8)))
            .collect();
        let cut = r.gen_range(0u64..128);
        let dl = DefectList::new(entries.into_iter().collect());
        let filtered = dl.filtered(|c, _| c < cut);
        assert!(filtered.linear_mass() <= dl.linear_mass());
        assert!(filtered.square_mass() <= dl.square_mass());
        assert!(filtered.arb_mass() <= dl.arb_mass());
        assert!(filtered.len() <= dl.len());
    });
}

/// The full Theorem 1.1 engine solves random uniform instances sized by
/// `practical_kappa`, and the output always passes the exact validator.
#[test]
fn theorem11_engine_solves_conditioned_instances() {
    cases(12, |r| {
        use ldc::core::params::practical_kappa;
        use ldc::core::ParamProfile;
        use ldc::core::{OldcInstance, SolveOptions};

        let d = r.gen_range(3usize..7);
        let defect_div = r.gen_range(2u64..4);
        let seed = r.gen_range(0u64..50);
        let n = 24 * d;
        let g = generators::random_regular(n, d, seed);
        let view = ldc::graph::DirectedView::bidirected(&g);
        let profile = ParamProfile::practical_default();
        let defect = (d as u64) / defect_div;
        let kappa = practical_kappa(profile, d as u64, 1 << 14, n as u64);
        let len =
            ((kappa * (d * d) as f64) / ((defect + 1) * (defect + 1)) as f64).ceil() as u64 * 2;
        let space = (len * 4).next_power_of_two();
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                DefectList::new(
                    (0..len)
                        .map(|i| ((i * 3 + u64::from(v) * 7) % space, defect))
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect();
        let inst = OldcInstance::new(view, ColorSpace::new(space), lists);
        let opts = SolveOptions::default().with_seed(seed);
        // `solve` validates internally before returning.
        let sol = inst.solve(&opts);
        assert!(sol.is_ok(), "{:?}", sol.err());
    });
}

/// Theorem 1.3 solves random (degree+1)-list instances end to end.
#[test]
fn theorem13_solves_degree_plus_one() {
    cases(12, |r| {
        use ldc::core::congest::{congest_degree_plus_one, CongestConfig};
        use ldc::core::validate::validate_proper_list_coloring;

        let p_milli = r.gen_range(30u64..90);
        let seed = r.gen_range(0u64..50);
        let n = 120;
        let g = generators::gnp(n, p_milli as f64 / 1000.0, seed);
        let space = 4 * (g.max_degree() as u64 + 1);
        let lists: Vec<Vec<u64>> = g
            .nodes()
            .map(|v| {
                let need = g.degree(v) + 1;
                let mut l: Vec<u64> = (0..need as u64)
                    .map(|i| (u64::from(v) * 31 + i * 71 + seed) % space)
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
            .collect();
        let cfg = CongestConfig {
            seed,
            ..CongestConfig::default()
        };
        let (colors, rep) =
            congest_degree_plus_one(&g, space, &lists, &cfg, &ldc::core::SolveOptions::default())
                .expect("congest pipeline solves");
        assert_eq!(validate_proper_list_coloring(&g, &lists, &colors), Ok(()));
        assert!(rep.max_message_bits <= rep.bandwidth_bits);
    });
}

/// Orientation invariants: out-degrees sum to m; flipping every edge swaps
/// out-degrees; the bidirected view's β equals the degree.
#[test]
fn orientation_invariants() {
    cases(64, |r| {
        use ldc::graph::{DirectedView, Orientation};
        let g = arb_graph(r);
        let seed = r.gen_range(0u64..100);
        let o = Orientation::by_rank(&g, |v| u64::from(v).wrapping_mul(seed | 1));
        let total: usize = g.nodes().map(|v| o.out_degree(&g, v)).sum();
        assert_eq!(total, g.num_edges());
        for (e, u, v) in g.edges() {
            assert_ne!(o.is_out(&g, e, u), o.is_out(&g, e, v));
            assert_eq!(o.head(&g, e) == v, o.tail(&g, e) == u);
        }
        let dv = DirectedView::bidirected(&g);
        for v in g.nodes() {
            assert_eq!(dv.out_degree(v), g.degree(v));
            assert_eq!(dv.beta(v), g.degree(v).max(1));
        }
        let dvo = DirectedView::from_orientation(&g, &o);
        for v in g.nodes() {
            assert_eq!(dvo.out_degree(v), o.out_degree(&g, v));
            assert_eq!(dvo.out_neighbors(v).len(), o.out_degree(&g, v));
        }
    });
}

/// Edge-list I/O round-trips every generated graph.
#[test]
fn io_roundtrip() {
    cases(64, |r| {
        let g = arb_graph(r);
        let mut buf = Vec::new();
        ldc::graph::io::write_edge_list(&g, &mut buf).unwrap();
        let h = ldc::graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, h);
    });
}

#[test]
fn pre_partitioned_groups_solve_independently() {
    // Two groups fixed by the caller (not by color-space reduction): the
    // engine must scope conflicts within groups, so colors may repeat
    // across groups even at defect 0.
    use ldc::core::colorspace::{OldcSolver, Theorem11Solver};
    use ldc::core::{DefectList, KernelStats, OldcCtx, ParamProfile};
    use ldc::graph::DirectedView;
    use ldc::sim::{Bandwidth, Network};

    let g = generators::complete_bipartite(8, 8);
    let view = DirectedView::bidirected(&g);
    let init: Vec<u64> = g.nodes().map(u64::from).collect();
    let active = vec![true; 16];
    // Group = side of the bipartition: each node's same-group neighbors are
    // empty (all edges cross sides), so every node is trivial and any list
    // works even at defect 0.
    let group: Vec<u64> = (0..16u64).map(|v| u64::from(v < 8)).collect();
    let ctx = OldcCtx {
        view: &view,
        space: 4,
        init: &init,
        m: 16,
        active: &active,
        group: &group,
        profile: ParamProfile::practical_default(),
        seed: 1,
    };
    let lists: Vec<DefectList> = (0..16).map(|_| DefectList::uniform(0..1, 0)).collect();
    let mut net = Network::new(&g, Bandwidth::Local);
    let colors = Theorem11Solver::default()
        .solve(&mut net, &ctx, &lists, &mut KernelStats::default())
        .unwrap();
    // Everyone gets color 0 — legal because all conflicts are cross-group.
    assert!(colors.iter().all(|c| *c == Some(0)));
}

#[test]
fn graph_from_edges_roundtrip() {
    let g = from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    assert_eq!(edges, vec![(0, 1), (1, 2), (3, 4)]);
}

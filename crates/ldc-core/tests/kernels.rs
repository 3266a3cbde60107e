//! Seeded equivalence suite for the solver kernels (`ldc_core::kernels`).
//!
//! Two layers of evidence that the packed/memoized kernels change nothing:
//!
//! 1. **Property loops** — thousands of PRNG-driven random sorted lists
//!    (including `g > 0` windows and large-offset / word-boundary shapes)
//!    where every packed-set operation must agree with its naive
//!    counterpart in `ldc_core::conflict` on every probe.
//! 2. **Full-solve differentials** — the Theorem 1.1 / §3.2 / Theorem 1.3
//!    drivers run twice, `KernelMode::Fast` vs `KernelMode::Reference`, on
//!    fresh networks; colors, retries, rounds, and total message bits must
//!    be **byte-identical** (not merely both valid). The lollipop instance
//!    also covers Theorem 1.1's Phase 0 and laggard chain.

mod common;

use ldc_core::arbdefective::{solve_list_arbdefective, ArbConfig, Substrate};
use ldc_core::colorspace::Theorem11Solver;
use ldc_core::conflict::{conflict_weight, mu_g, psi_g, tau_g_conflict};
use ldc_core::cover::SeededSubset;
use ldc_core::kernels::{conflict_weight_at_least, psi_g_fast, KernelMode, PackedSet};
use ldc_core::oldc::solve_oldc;
use ldc_core::params::{practical_kappa, ParamProfile};
use ldc_core::single_defect::solve_single_defect;
use ldc_core::{Color, DefectList, OldcCtx};
use ldc_graph::{generators, DirectedView, ProperColoring};
use ldc_rand::Rng;
use ldc_sim::{Bandwidth, Network, Tracer};

/// A random sorted, deduplicated list of up to `max_len` colors drawn from
/// `[base, base + span)`.
fn random_list(r: &mut Rng, max_len: u64, base: u64, span: u64) -> Vec<Color> {
    let len = r.gen_range(1..max_len.max(2));
    let mut v: Vec<Color> = (0..len).map(|_| base + r.gen_range(0..span)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn packed_set_matches_naive_on_random_lists() {
    let mut r = Rng::seed_from_u64(0xC0FFEE);
    for round in 0..400u64 {
        // Cycle through offset regimes: tiny colors, word-straddling bases,
        // and far-out bases (the aux instances live near 0, the main color
        // space can sit anywhere).
        let base = match round % 4 {
            0 => 0,
            1 => 63,
            2 => r.gen_range(1u64..1 << 20),
            _ => (1u64 << 45) + r.gen_range(0u64..1 << 10),
        };
        let span = [64u64, 65, 300, 4096][(round % 4) as usize];
        let a = random_list(&mut r, 80, base, span);
        let shift = r.gen_range(0..span);
        let b = random_list(&mut r, 80, base + shift, span);
        let (pa, pb) = (PackedSet::from_sorted(&a), PackedSet::from_sorted(&b));
        assert_eq!(pa.len(), a.len() as u64);

        // Membership and μ_g windows on probes inside and around the span.
        for _ in 0..40 {
            let x = base + r.gen_range(0..2 * span);
            assert_eq!(pa.contains(x), a.binary_search(&x).is_ok());
            for g in [0u64, 1, 7, 64, 129] {
                assert_eq!(
                    pa.count_range(x.saturating_sub(g), x.saturating_add(g)),
                    mu_g(x, &a, g),
                    "x={x} g={g} a={a:?}"
                );
            }
        }

        // g = 0 intersection is the popcount kernel.
        assert_eq!(pa.intersection_size(&pb), conflict_weight(&a, &b, 0));
        assert_eq!(pb.intersection_size(&pa), conflict_weight(&a, &b, 0));

        // The early-exit merge agrees with the naive threshold test for
        // every τ near the true weight, for several g.
        for g in [0u64, 1, 3, 50] {
            let w = conflict_weight(&a, &b, g);
            for tau in [0, 1, w.saturating_sub(1), w, w + 1, w + 17] {
                assert_eq!(
                    conflict_weight_at_least(&a, &b, tau, g),
                    tau_g_conflict(&a, &b, tau.max(1), g) || tau == 0,
                    "g={g} tau={tau} w={w}"
                );
            }
        }
    }
}

#[test]
fn psi_fast_matches_naive_on_random_families() {
    let mut r = Rng::seed_from_u64(7);
    for _ in 0..200 {
        let k1: Vec<Vec<Color>> = (0..r.gen_range(1u64..5))
            .map(|_| random_list(&mut r, 12, 0, 40))
            .collect();
        let k2: Vec<Vec<Color>> = (0..r.gen_range(1u64..5))
            .map(|_| random_list(&mut r, 12, 0, 40))
            .collect();
        for g in [0u64, 1, 2] {
            for tau in 1..4u64 {
                for tp in 1..4u64 {
                    assert_eq!(
                        psi_g_fast(&k1, &k2, tp, tau, g),
                        psi_g(&k1, &k2, tp, tau, g)
                    );
                }
            }
        }
    }
}

#[test]
fn select_into_matches_select_across_attempts() {
    let mut r = Rng::seed_from_u64(99);
    let strategy = SeededSubset { seed: 0xFEED };
    let mut buf = Vec::new();
    for _ in 0..200 {
        let base = r.gen_range(0u64..1 << 30);
        let list = random_list(&mut r, 300, base, 5000);
        let k = r.gen_range(0u64..list.len() as u64 + 1) as usize;
        let attempt = r.gen_range(0u64..5) as u32;
        let init = r.gen_range(0u64..1000);
        strategy.select_into(init, &list, k, attempt, &mut buf);
        assert_eq!(buf, strategy.select(init, &list, k, attempt));
    }
}

fn full_ctx<'a, 'g>(
    view: &'a DirectedView<'g>,
    space: u64,
    init: &'a [u64],
    m: u64,
    active: &'a [bool],
    group: &'a [u64],
    seed: u64,
) -> OldcCtx<'a, 'g> {
    OldcCtx {
        view,
        space,
        init,
        m,
        active,
        group,
        profile: ParamProfile::practical_default(),
        seed,
    }
}

/// Run `solve_oldc` under both kernel modes on fresh traced networks
/// and assert byte-identical colors, stats, classes, rounds, and bits.
/// Returns [`common::laggard_trace`] of the runs (equal in both modes).
fn assert_oldc_differential(
    g: &ldc_graph::Graph,
    lists: &[DefectList],
    space: u64,
    seed: u64,
) -> (bool, u64) {
    let n = g.num_nodes();
    let view = DirectedView::bidirected(g);
    let init: Vec<u64> = (0..n as u64).collect();
    let active = vec![true; n];
    let group = vec![0u64; n];
    let ctx = full_ctx(&view, space, &init, n as u64, &active, &group, seed);

    let mut net_fast = Network::new(g, Bandwidth::Local);
    net_fast.set_tracer(Tracer::new());
    let fast = solve_oldc(&mut net_fast, &ctx, lists, &KernelMode::Fast.into()).unwrap();
    let mut net_ref = Network::new(g, Bandwidth::Local);
    net_ref.set_tracer(Tracer::new());
    let refr = solve_oldc(&mut net_ref, &ctx, lists, &KernelMode::Reference.into()).unwrap();

    assert_eq!(fast.colors, refr.colors, "colors must be byte-identical");
    assert_eq!(fast.classes, refr.classes);
    assert_eq!(fast.stats.selection_retries, refr.stats.selection_retries);
    assert_eq!(fast.stats.pruned_colors, refr.stats.pruned_colors);
    assert_eq!(net_fast.rounds(), net_ref.rounds());
    assert_eq!(
        net_fast.metrics().total_bits(),
        net_ref.metrics().total_bits()
    );
    // The memo must actually fire: fewer conflict computations than calls
    // whenever any pair repeats (guaranteed on these dense shapes).
    assert!(fast.stats.kernels.conflict_misses <= fast.stats.kernels.conflict_calls);
    let laggards = common::laggard_trace(&net_fast.tracer().report());
    assert_eq!(laggards, common::laggard_trace(&net_ref.tracer().report()));
    laggards
}

#[test]
fn cached_solve_oldc_is_byte_identical_uniform() {
    // The E2-shaped instance from the oldc test suite.
    let g = generators::random_regular(90, 6, 7);
    let space = 1u64 << 13;
    let lists: Vec<DefectList> = (0..90u64)
        .map(|v| {
            DefectList::new(
                (0..2048u64)
                    .map(|i| ((i * 3 + v) % space, 2))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect();
    assert_oldc_differential(&g, &lists, space, 11);
}

#[test]
fn cached_solve_oldc_is_byte_identical_on_dense_multipartite() {
    // Few-types regime: same-part nodes share their list; the cache's
    // select memo and verdict table should carry nearly all the work, and
    // the outputs still must not move by a byte.
    let g = generators::complete_multipartite(8, 8);
    let space = 1u64 << 14;
    let lists: Vec<DefectList> = (0..64u64)
        .map(|v| {
            let part = v / 8;
            DefectList::new(
                (0..3000u64)
                    .map(|i| ((i * 5 + part) % space, 7))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect();
    assert_oldc_differential(&g, &lists, space, 3);
}

#[test]
fn cached_solve_oldc_is_byte_identical_with_laggards() {
    let (g, lists, space) = common::laggard_lollipop();
    let (phase0, depth) = assert_oldc_differential(&g, &lists, space, 5);
    assert!(phase0, "Phase 0 ran");
    assert!(depth > 0, "the laggard chain ran");
}

#[test]
fn cached_single_defect_is_byte_identical_with_color_distance() {
    // g > 0 exercises the μ_g window kernels and the merge-based conflict
    // path (popcount shortcut only covers g = 0).
    let g = generators::random_regular(80, 4, 11);
    let n = g.num_nodes();
    let view = DirectedView::bidirected(&g);
    let space = 3600u64;
    let init: Vec<u64> = (0..n as u64).collect();
    let active = vec![true; n];
    let group = vec![0u64; n];
    let ctx = full_ctx(&view, space, &init, n as u64, &active, &group, 13);
    let lists: Vec<Vec<Color>> = (0..n)
        .map(|v| {
            let mut l: Vec<Color> = (0..900u64)
                .map(|i| (i * 3 + v as u64 % 2) % space)
                .collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let defects = vec![1u64; n];

    let mut net_fast = Network::new(&g, Bandwidth::Local);
    let fast = solve_single_defect(
        &mut net_fast,
        &ctx,
        &lists,
        &defects,
        2,
        &KernelMode::Fast.into(),
    )
    .unwrap();
    let mut net_ref = Network::new(&g, Bandwidth::Local);
    let refr = solve_single_defect(
        &mut net_ref,
        &ctx,
        &lists,
        &defects,
        2,
        &KernelMode::Reference.into(),
    )
    .unwrap();

    assert_eq!(fast.colors, refr.colors);
    assert_eq!(fast.selection_retries, refr.selection_retries);
    assert_eq!(fast.selection_rounds, refr.selection_rounds);
    assert_eq!(net_fast.rounds(), net_ref.rounds());
    assert_eq!(
        net_fast.metrics().total_bits(),
        net_ref.metrics().total_bits()
    );
}

#[test]
fn cached_theorem13_driver_is_byte_identical_e6_shape() {
    // The Theorem 1.3 (degree+1)-style driver — the instance shape E6
    // feeds into Theorem 1.4 — run through `Theorem11Solver` in both kernel
    // modes. The mode must not move a byte of the coloring, the
    // orientation, or the round/bit accounting.
    let delta = 12usize;
    let n = 24 * delta;
    let g = generators::random_regular(n, delta, 13);
    let init = ProperColoring::by_id(&g);
    let profile = ParamProfile::practical_default();
    let d = 3u64;
    let q = (delta as u64) / (d + 1) + 1;
    let lists: Vec<DefectList> = (0..n).map(|_| DefectList::uniform(0..q, d)).collect();
    let cfg = ArbConfig {
        nu: 1.0,
        kappa: practical_kappa(profile, delta as u64, q, n as u64),
        substrate: Substrate::Sequential,
        profile,
        seed: 3,
    };

    let run = |mode: KernelMode| {
        let mut net = Network::new(&g, Bandwidth::Local);
        let solver = Theorem11Solver {
            kernels: mode.into(),
        };
        let out = solve_list_arbdefective(&mut net, q, &lists, &init, &cfg, &solver).unwrap();
        (out, net)
    };
    let ((colors_f, orient_f, report_f), net_fast) = run(KernelMode::Fast);
    let ((colors_r, orient_r, report_r), net_ref) = run(KernelMode::Reference);

    assert_eq!(colors_f, colors_r, "colors must be byte-identical");
    assert_eq!(orient_f, orient_r, "orientations must be identical");
    assert_eq!(report_f.oldc_calls, report_r.oldc_calls);
    assert_eq!(report_f.stages, report_r.stages);
    assert_eq!(net_fast.rounds(), net_ref.rounds());
    assert_eq!(
        net_fast.metrics().total_bits(),
        net_ref.metrics().total_bits()
    );
}

//! Pinned outputs of the §3.2 engine and Theorem 1.1: seeded instances run
//! through `solve_single_defect` (at `g = 0` and `g = 2`, with inactive
//! nodes, two conflict groups and trivial nodes), `solve_multi_defect`,
//! and `solve_oldc` (regular γ-classes, Phase 0 plus the laggard chain,
//! and the star and path laggard instances). Each case runs under both
//! kernel modes and records the exact colors (as a digest), rounds, total
//! wire bits, selection retries, pruned colors, every `KernelStats`
//! counter, and the deterministic span trace (names, per-span rounds and
//! bits, counters) as a digest.
//!
//! The expected lines are recorded values, not derived ones: any change
//! to how the engines select, verify, decide or announce shows up here
//! even when the result stays valid.

mod common;

use ldc_core::kernels::{KernelMode, KernelStats};
use ldc_core::multi_defect::solve_multi_defect;
use ldc_core::oldc::solve_oldc;
use ldc_core::params::ParamProfile;
use ldc_core::single_defect::solve_single_defect;
use ldc_core::validate::validate_oldc;
use ldc_core::{Color, DefectList, OldcCtx};
use ldc_graph::{generators, DirectedView, Graph, Orientation};
use ldc_sim::{Bandwidth, Network, Tracer};
use std::collections::BTreeMap;

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn colors_digest(colors: &[Option<Color>]) -> u64 {
    digest(colors.iter().map(|c| c.map_or(u64::MAX, |x| x)))
}

/// One pinned line: everything the engines' callers can observe.
#[allow(clippy::too_many_arguments)]
fn line(
    case: &str,
    mode: KernelMode,
    colors: &[Option<Color>],
    net: &Network<'_>,
    retries: u64,
    pruned: u64,
    k: &KernelStats,
) -> String {
    let trace = net.tracer().report().to_jsonl(false);
    format!(
        "{case} {mode:?} colors={:016x} rounds={} bits={} retries={retries} pruned={pruned} \
         kernels={}/{}/{}/{}/{}/{}/{}/{} trace={:016x}",
        colors_digest(colors),
        net.rounds(),
        net.metrics().total_bits(),
        k.select_calls,
        k.select_misses,
        k.conflict_calls,
        k.conflict_misses,
        k.distinct_sets,
        k.evictions,
        k.shared_hits,
        k.shared_misses,
        digest(trace.bytes().map(u64::from)),
    )
}

fn traced(g: &Graph) -> Network<'_> {
    let mut net = Network::new(g, Bandwidth::Local);
    net.set_tracer(Tracer::new());
    net
}

fn ctx<'a, 'g>(
    view: &'a DirectedView<'g>,
    space: u64,
    init: &'a [u64],
    active: &'a [bool],
    group: &'a [u64],
    seed: u64,
) -> OldcCtx<'a, 'g> {
    OldcCtx {
        view,
        space,
        init,
        m: init.iter().max().map_or(1, |&c| c + 1),
        active,
        group,
        profile: ParamProfile::practical_default(),
        seed,
    }
}

/// §3.2 engine on a bidirected 6-regular graph: every ninth node is
/// inactive, nodes split into two conflict groups by parity, and every
/// fifth node's defect covers its whole out-degree (a trivial node).
fn single_defect_case(gap: u64, mode: KernelMode) -> String {
    let g = generators::random_regular(60, 6, 3);
    let view = DirectedView::bidirected(&g);
    let n = g.num_nodes();
    let space = 1u64 << 13;
    // Lists just above the selection threshold, so the P1 verification
    // rejects some candidate sets and the retry path runs.
    let len = if gap == 0 { 300 } else { 1200 };
    let init: Vec<u64> = (0..n as u64).collect();
    let active: Vec<bool> = (0..n).map(|v| v % 9 != 4).collect();
    let group: Vec<u64> = (0..n as u64).map(|v| v % 2).collect();
    let lists: Vec<Vec<Color>> = (0..n as u64)
        .map(|v| {
            let mut l: Vec<Color> = (0..len).map(|i| (i * 3 + v) % space).collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let defects: Vec<u64> = (0..n).map(|v| if v % 5 == 0 { 8 } else { 1 }).collect();
    let c = ctx(&view, space, &init, &active, &group, 21);
    let mut net = traced(&g);
    let out = solve_single_defect(&mut net, &c, &lists, &defects, gap, &mode.into())
        .expect("single-defect pin instance solves");
    for (v, (c, &a)) in out.colors.iter().zip(&active).enumerate() {
        assert_eq!(c.is_some(), a, "node {v}");
    }
    line(
        &format!("single_defect_g{gap}"),
        mode,
        &out.colors,
        &net,
        out.selection_retries,
        0,
        &out.kernels,
    )
}

/// Lemma 3.6 on mixed defect buckets: a defect-0 slab, a defect-3 slab,
/// and on every fourth node a high-defect slab whose square mass wins, so
/// that node takes the trivial path.
fn multi_defect_case(mode: KernelMode) -> String {
    let g = generators::random_regular(100, 6, 5);
    let view = DirectedView::bidirected(&g);
    let n = g.num_nodes();
    let space = 8192u64;
    let lists: Vec<DefectList> = (0..n as u64)
        .map(|v| {
            let mut m = BTreeMap::new();
            for i in 0..256u64 {
                m.insert((i * 5 + v) % 2048, 0);
            }
            for i in 0..1024u64 {
                m.insert(2048 + (i * 5 + v) % 4096, 3);
            }
            if v % 4 == 0 {
                for i in 0..64u64 {
                    m.insert(6144 + (i * 7 + v) % 2048, 20);
                }
            }
            DefectList::new(m.into_iter().collect())
        })
        .collect();
    let init: Vec<u64> = (0..n as u64).collect();
    let active = vec![true; n];
    let group = vec![0u64; n];
    let c = ctx(&view, space, &init, &active, &group, 12);
    let mut net = traced(&g);
    let out = solve_multi_defect(&mut net, &c, &lists, 0, &mode.into())
        .expect("multi-defect pin instance solves");
    let colors: Vec<u64> = out.inner.colors.iter().map(|c| c.unwrap()).collect();
    assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    line(
        "multi_defect",
        mode,
        &out.inner.colors,
        &net,
        out.inner.selection_retries,
        0,
        &out.inner.kernels,
    )
}

/// Theorem 1.1 end to end; validates the coloring before pinning it, and
/// also records whether Phase 0 ran and how deep the laggard chain went.
#[allow(clippy::too_many_arguments)]
fn oldc_line(
    case: &str,
    mode: KernelMode,
    g: &Graph,
    view: &DirectedView<'_>,
    lists: &[DefectList],
    space: u64,
    init: &[u64],
    seed: u64,
) -> String {
    let n = g.num_nodes();
    let active = vec![true; n];
    let group = vec![0u64; n];
    let c = ctx(view, space, init, &active, &group, seed);
    let mut net = traced(g);
    let out = solve_oldc(&mut net, &c, lists, &mode.into()).expect("OLDC pin instance solves");
    let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
    assert_eq!(validate_oldc(view, lists, &colors), Ok(()), "{case}");
    let mut l = line(
        case,
        mode,
        &out.colors,
        &net,
        out.stats.selection_retries,
        out.stats.pruned_colors,
        &out.stats.kernels,
    );
    let (phase0, depth) = common::laggard_trace(&net.tracer().report());
    l.push_str(&format!(" phase0={phase0} laggard_depth={depth}"));
    l.push_str(&format!(
        " classes={:016x}",
        digest(out.classes.iter().map(|&c| u64::from(c)))
    ));
    l
}

/// Regular γ-classes only: even nodes take class 2 (defect 3), odd nodes
/// class 3 (defect 1). Class 3 prunes against class 2's candidate sets,
/// and its lists sit just above the class-3 requirement, so Phase I also
/// retries some selections.
fn oldc_regular_case(mode: KernelMode) -> String {
    let g = generators::random_regular(80, 4, 9);
    let view = DirectedView::bidirected(&g);
    let space = 1u64 << 14;
    let lists: Vec<DefectList> = (0..80u64)
        .map(|v| {
            let mut m = BTreeMap::new();
            if v % 2 == 0 {
                for i in 0..1024u64 {
                    m.insert((i * 5 + v) % (space / 2), 3);
                }
            } else {
                for i in 0..1160u64 {
                    m.insert((i * 3 + v) % (space / 2), 1);
                }
            }
            DefectList::new(m.into_iter().collect())
        })
        .collect();
    let init: Vec<u64> = (0..80).collect();
    oldc_line("oldc_regular", mode, &g, &view, &lists, space, &init, 17)
}

/// Regular classes next to Phase 0 and the laggard chain.
fn oldc_lollipop_case(mode: KernelMode) -> String {
    let (g, lists, space) = common::laggard_lollipop();
    let view = DirectedView::bidirected(&g);
    let init: Vec<u64> = (0..g.num_nodes() as u64).collect();
    oldc_line("oldc_lollipop", mode, &g, &view, &lists, space, &init, 5)
}

/// Star oriented into its center: the center is trivial, every leaf a
/// laggard.
fn oldc_star_case(mode: KernelMode) -> String {
    let g = generators::star(24);
    let o = Orientation::by_rank(&g, |v| u64::from(u32::MAX - v));
    let view = DirectedView::from_orientation(&g, &o);
    let lists: Vec<DefectList> = (0..24u64)
        .map(|v| DefectList::uniform((v % 4)..(v % 4 + 8), 0))
        .collect();
    let init: Vec<u64> = (0..24).collect();
    oldc_line("oldc_star", mode, &g, &view, &lists, 16, &init, 9)
}

/// Forward-oriented path with 2-color lists: a laggard chain as long as
/// the path.
fn oldc_path_case(mode: KernelMode) -> String {
    let g = generators::path(64);
    let o = Orientation::forward(&g);
    let view = DirectedView::from_orientation(&g, &o);
    let lists: Vec<DefectList> = (0..64).map(|_| DefectList::uniform(0..2, 0)).collect();
    let init: Vec<u64> = (0..64).map(|v| v % 2).collect();
    oldc_line("oldc_path", mode, &g, &view, &lists, 4, &init, 3)
}

const EXPECTED: &[&str] = &[
    "single_defect_g0 Fast colors=bfb62dea295cb1be rounds=13 bits=5456160 retries=11 pruned=0 kernels=40/40/344/60/40/0/0/0 trace=a36a248479c5838f",
    "single_defect_g2 Fast colors=7e819b8520947c4e rounds=12 bits=3824736 retries=15 pruned=0 kernels=44/44/301/68/44/0/0/0 trace=2adefa6417a38c29",
    "multi_defect Fast colors=b3de82a421b4506f rounds=6 bits=3704850 retries=0 pruned=0 kernels=75/75/340/170/75/0/0/0 trace=494b02d9fdb839a0",
    "oldc_regular Fast colors=c9a7c2732ed9ecef rounds=14 bits=7427168 retries=2 pruned=726 kernels=82/82/246/88/81/0/0/0 trace=014349654c8d2478 phase0=false laggard_depth=0 classes=25c869272b80fa25",
    "oldc_lollipop Fast colors=5c718df7dcab8d86 rounds=10 bits=758683 retries=0 pruned=0 kernels=39/39/0/0/39/0/0/0 trace=2417f94ab0984419 phase0=true laggard_depth=1 classes=f05e74aa1eda9c25",
    "oldc_star Fast colors=9664fe1ead33e805 rounds=10 bits=1587 retries=0 pruned=0 kernels=23/23/0/0/0/0/0/0 trace=16f4699ee5b895de phase0=true laggard_depth=1 classes=ab0c262759a1d225",
    "oldc_path Fast colors=206ea505cb03c725 rounds=72 bits=19389 retries=0 pruned=0 kernels=63/2/0/0/2/0/0/0 trace=9e625b0bfdff4a8d phase0=true laggard_depth=63 classes=7da144b97d054b25",
    "single_defect_g0 Reference colors=bfb62dea295cb1be rounds=13 bits=5456160 retries=11 pruned=0 kernels=40/40/344/344/0/0/0/0 trace=a36a248479c5838f",
    "single_defect_g2 Reference colors=7e819b8520947c4e rounds=12 bits=3824736 retries=15 pruned=0 kernels=44/44/301/301/0/0/0/0 trace=2adefa6417a38c29",
    "multi_defect Reference colors=b3de82a421b4506f rounds=6 bits=3704850 retries=0 pruned=0 kernels=75/75/340/340/0/0/0/0 trace=494b02d9fdb839a0",
    "oldc_regular Reference colors=c9a7c2732ed9ecef rounds=14 bits=7427168 retries=2 pruned=726 kernels=82/82/246/246/0/0/0/0 trace=014349654c8d2478 phase0=false laggard_depth=0 classes=25c869272b80fa25",
    "oldc_lollipop Reference colors=5c718df7dcab8d86 rounds=10 bits=758683 retries=0 pruned=0 kernels=39/39/0/0/0/0/0/0 trace=2417f94ab0984419 phase0=true laggard_depth=1 classes=f05e74aa1eda9c25",
    "oldc_star Reference colors=9664fe1ead33e805 rounds=10 bits=1587 retries=0 pruned=0 kernels=23/23/0/0/0/0/0/0 trace=16f4699ee5b895de phase0=true laggard_depth=1 classes=ab0c262759a1d225",
    "oldc_path Reference colors=206ea505cb03c725 rounds=72 bits=19389 retries=0 pruned=0 kernels=63/63/0/0/0/0/0/0 trace=9e625b0bfdff4a8d phase0=true laggard_depth=63 classes=7da144b97d054b25",
];

#[test]
fn engine_outputs_are_pinned() {
    let mut got = Vec::new();
    for mode in [KernelMode::Fast, KernelMode::Reference] {
        got.push(single_defect_case(0, mode));
        got.push(single_defect_case(2, mode));
        got.push(multi_defect_case(mode));
        got.push(oldc_regular_case(mode));
        got.push(oldc_lollipop_case(mode));
        got.push(oldc_star_case(mode));
        got.push(oldc_path_case(mode));
    }
    for (got, want) in got.iter().zip(EXPECTED) {
        assert_eq!(got, want);
    }
    assert_eq!(got.len(), EXPECTED.len());
}

//! The basic generalized OLDC engine of Section 3.2 (single defect per
//! node, color-distance parameter `g`).
//!
//! Every active node `v` holds a color list `L_v`, one defect value `d_v`,
//! and must output `x_v ∈ L_v` such that at most `d_v` of its (active,
//! same-group) out-neighbors `w` pick a color with `|x_v − x_w| ≤ g`.
//!
//! Structure (Sections 3.2.1–3.2.3):
//! 1. **census** (1 round) — learn the active same-group out-degree `β_v`,
//! 2. **γ-classes** (0 rounds) — `i_v` = smallest `i` with
//!    `2^i ≥ 2β_v/(d_v+1)`; parameters `τ`, `k_i = 2^i·τ`,
//! 3. **residue restriction** (0 rounds) — keep the congruence class mod
//!    `2g+1` maximizing the list (so `μ_g(x, C) ≤ 1` per color),
//! 4. **`P2`/`P1`** — type-keyed candidate sets `C_v` of size `k_{i_v}`
//!    (strategy of DESIGN.md §S1) with a verification exchange enforcing
//!    the `P1` budget: at most `⌊d_v/2⌋` same-or-lower-class out-neighbors
//!    whose sets `τ&g`-conflict with `C_v`,
//! 5. **decision** (`h` rounds) — classes decide in descending order; each
//!    node picks the `x ∈ C_v` minimizing the frequency
//!    `f_v(x) = Σ_{u: i_u ≤ i_v} μ_g(x, C_u) + #{decided u: |x_u−x| ≤ g}`,
//!    which the pigeonhole of §3.2.3 bounds by `d_v`.
//!
//! Steps 1, 4 and 5 are the shared round steps (`steps`) that Lemma 3.7
//! also runs; this module supplies the γ-classes, the residue restriction,
//! and the §3.2 budgets (`⌊d_v/2⌋` for `P1`, `d_v` for the decision).

use crate::conflict::{best_residue, residue_restrict};
use crate::cover::SeededSubset;
use crate::ctx::{span, CoreError, DecisionMsg, OldcCtx};
use crate::kernels::{KernelConfig, KernelStats, TypeCache};
use crate::params::{gamma_class, k_of_class};
use crate::problem::Color;
use crate::steps::{self, Node, Port};
use ldc_graph::NodeId;
use ldc_sim::Network;

/// Result of [`solve_single_defect`].
#[derive(Debug, Clone)]
pub struct SingleDefectOutcome {
    /// Chosen color per node (`None` for inactive nodes).
    pub colors: Vec<Option<Color>>,
    /// Total selection re-draws across all nodes (0 in every experiment at
    /// the paper's list sizes; recorded for E8).
    pub selection_retries: u64,
    /// Number of verification exchanges used by the selection loop.
    pub selection_rounds: u32,
    /// Kernel-cache accounting (selections, conflict verdicts, interning).
    pub kernels: KernelStats,
}

/// Solve the generalized single-defect OLDC instance described in the
/// module docs. `lists[v]`/`defects[v]` are read for active nodes only.
///
/// `cfg` sets the kernel mode, worker threads for the batched phases and
/// shared cache. Colors, retries, rounds, and message bits are
/// byte-identical across every configuration — batches gather in node
/// order, compute pure kernel functions in parallel, and publish in node
/// order.
pub fn solve_single_defect(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    lists: &[Vec<Color>],
    defects: &[u64],
    g: u64,
    cfg: &KernelConfig,
) -> Result<SingleDefectOutcome, CoreError> {
    let n = ctx.view.graph().num_nodes();
    assert_eq!(lists.len(), n);
    assert_eq!(defects.len(), n);
    let mut states = steps::nodes(ctx);
    for (s, &defect) in states.iter_mut().zip(defects) {
        s.defect = defect;
    }

    // --- 1. census: learn β_v (active same-group out-degree). -------------
    steps::census(net, ctx, &mut states, false)?;
    let beta = |s: &Node| s.out_count.max(1);

    // --- 2. γ-classes and parameters (global h, Δ-style knowledge). -------
    let acts = |s: &Node| s.active && !s.trivial;
    for s in states.iter_mut().filter(|s| acts(s)) {
        s.class = gamma_class(2, beta(s), s.defect + 1);
    }
    let h = states
        .iter()
        .filter(|s| acts(s))
        .map(|s| s.class)
        .max()
        .unwrap_or(1);
    let tau = ctx.profile.tau(u64::from(h), ctx.space, ctx.m);

    // --- 3. residue restriction + candidate sizes. -------------------------
    for (v, s) in states.iter_mut().enumerate() {
        if !s.active {
            continue;
        }
        let list = &lists[v];
        if s.trivial {
            if list.is_empty() {
                return Err(CoreError::Precondition {
                    node: v as NodeId,
                    detail: "empty color list".into(),
                });
            }
            // Any color meets a trivial node's budget: it takes the first.
            s.list = list[..1].to_vec();
            continue;
        }
        s.list = residue_restrict(list, best_residue(list, g), g);
        s.k = k_of_class(s.class, tau).min(u64::MAX >> 1) as usize;
        if s.k > s.list.len() {
            return Err(CoreError::Precondition {
                node: v as NodeId,
                detail: format!(
                    "restricted list has {} colors but class {} needs k = {} (τ = {tau}, β = {}, d = {})",
                    s.list.len(),
                    s.class,
                    s.k,
                    beta(s),
                    s.defect
                ),
            });
        }
    }

    // --- 4. P2 selection + P1 verification loop: at most ⌊d/2⌋
    // conflicting same-or-lower-class out-neighbors. ------------------------
    let tracer = net.tracer().clone();
    let selection_span = tracer.span(span::SELECTION);
    // One type cache per solve: τ and g are fixed from here on, so the
    // memoized selections and conflict verdicts are pure functions of their
    // keys (see `kernels`).
    let mut cache = TypeCache::new(SeededSubset { seed: ctx.seed }, tau, g, cfg);
    let lower_or_same = |s: &Node, nb: &Port| nb.class <= s.class;
    let (selection_retries, selection_rounds) = steps::select_until_verified(
        net,
        ctx,
        &mut cache,
        &mut states,
        acts,
        lower_or_same,
        2,
        beta,
    )?;
    drop(selection_span);

    // --- 5. decisions: trivial nodes first, then γ-classes in descending
    // order, each within its full budget d. ---------------------------------
    let _decide_span = tracer.span(span::DECIDE);
    steps::decide_trivial(net, ctx, &mut states)?;
    for class in (1..=h).rev() {
        let in_class = |s: &Node| acts(s) && s.class == class;
        steps::decide(ctx, &mut cache, &mut states, in_class, lower_or_same, 1)?;
        steps::announce::<DecisionMsg>(net, ctx, &mut states, in_class)?;
    }

    Ok(SingleDefectOutcome {
        colors: states.iter().map(|s| s.decided).collect(),
        selection_retries,
        selection_rounds,
        kernels: cache.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamProfile;
    use ldc_graph::{generators, DirectedView, Orientation};
    use ldc_sim::Bandwidth;

    /// Run the engine on a whole graph (one group) and validate.
    fn run_uniform(
        g: &ldc_graph::Graph,
        view: &DirectedView<'_>,
        list_len: u64,
        defect: u64,
        gap: u64,
        seed: u64,
    ) -> SingleDefectOutcome {
        let n = g.num_nodes();
        let space = list_len * 4;
        let init: Vec<u64> = g.nodes().map(u64::from).collect();
        let active = vec![true; n];
        let group = vec![0u64; n];
        let ctx = OldcCtx {
            view,
            space,
            init: &init,
            m: n as u64,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed,
        };
        let lists: Vec<Vec<Color>> = (0..n)
            .map(|v| {
                (0..list_len)
                    .map(|i| (i * 3 + v as u64 % 2) % space)
                    .collect::<Vec<_>>()
            })
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let defects = vec![defect; n];
        let mut net = Network::new(g, Bandwidth::Local);
        let out = solve_single_defect(
            &mut net,
            &ctx,
            &lists,
            &defects,
            gap,
            &KernelConfig::default(),
        )
        .unwrap();

        // Validate: at most `defect` out-neighbors within `gap`.
        for v in g.nodes() {
            let x = out.colors[v as usize].expect("all active");
            assert!(lists[v as usize].contains(&x), "node {v} off-list");
            let close = g
                .neighbors(v)
                .iter()
                .enumerate()
                .filter(|&(p, &u)| {
                    view.is_out_port(v, p)
                        && out.colors[u as usize].expect("active").abs_diff(x) <= gap
                })
                .count() as u64;
            assert!(
                close <= defect,
                "node {v}: {close} close out-neighbors > {defect}"
            );
        }
        out
    }

    #[test]
    fn oriented_ring_with_zero_defect() {
        let g = generators::ring(64);
        let o = Orientation::forward(&g);
        let view = DirectedView::from_orientation(&g, &o);
        // β = 1, d = 0 ⇒ γ-class 1; modest lists suffice.
        let out = run_uniform(&g, &view, 64, 0, 0, 5);
        assert_eq!(out.selection_retries, 0);
    }

    #[test]
    fn bidirected_regular_graph_with_defect() {
        let g = generators::random_regular(120, 6, 3);
        let view = DirectedView::bidirected(&g);
        run_uniform(&g, &view, 512, 2, 0, 7);
    }

    #[test]
    fn color_distance_g_is_respected() {
        let g = generators::random_regular(80, 4, 11);
        let view = DirectedView::bidirected(&g);
        run_uniform(&g, &view, 900, 1, 2, 13);
    }

    #[test]
    fn high_defect_shrinks_gamma_class_and_lists() {
        let g = generators::complete(24);
        let view = DirectedView::bidirected(&g);
        // d = 22 ≥ β−1 = 22 ⇒ class 1; small lists fine.
        run_uniform(&g, &view, 48, 22, 0, 2);
    }

    #[test]
    fn inactive_nodes_are_ignored() {
        let g = generators::complete(12);
        let view = DirectedView::bidirected(&g);
        let n = 12;
        let init: Vec<u64> = (0..12).collect();
        let mut active = vec![false; n];
        active[..6].fill(true);
        let group = vec![0u64; n];
        let ctx = OldcCtx {
            view: &view,
            space: 1024,
            init: &init,
            m: 12,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 1,
        };
        // β = 5 among the active half; defect 4 keeps the γ-class at 1, so
        // lists of 256 colors comfortably exceed α·4·τ.
        let lists: Vec<Vec<Color>> = (0..n).map(|_| (0..256).collect()).collect();
        let defects = vec![4u64; n];
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_single_defect(
            &mut net,
            &ctx,
            &lists,
            &defects,
            0,
            &KernelConfig::default(),
        )
        .unwrap();
        for v in 0..6 {
            assert!(out.colors[v].is_some());
        }
        for v in 6..12 {
            assert!(out.colors[v].is_none());
        }
    }

    #[test]
    fn groups_partition_conflicts() {
        // Eight interleaved groups on a clique: members only compete within
        // their group (β = 1 each), so defect-0 lists stay modest.
        let g = generators::complete(16);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..16).collect();
        let active = vec![true; 16];
        let group: Vec<u64> = (0..16).map(|v| v % 8).collect();
        let ctx = OldcCtx {
            view: &view,
            space: 2048,
            init: &init,
            m: 16,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 3,
        };
        let lists: Vec<Vec<Color>> = (0..16).map(|_| (0..512).collect()).collect();
        let defects = vec![0u64; 16];
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_single_defect(
            &mut net,
            &ctx,
            &lists,
            &defects,
            0,
            &KernelConfig::default(),
        )
        .unwrap();
        // Proper within each group.
        for (_, u, v) in g.edges() {
            if group[u as usize] == group[v as usize] {
                assert_ne!(out.colors[u as usize], out.colors[v as usize]);
            }
        }
    }

    #[test]
    fn too_small_lists_report_precondition() {
        let g = generators::complete(16);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..16).collect();
        let active = vec![true; 16];
        let group = vec![0u64; 16];
        let ctx = OldcCtx {
            view: &view,
            space: 64,
            init: &init,
            m: 16,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 3,
        };
        // β = 15, d = 0 ⇒ class ≥ 5, k = 32·τ ≫ 8.
        let lists: Vec<Vec<Color>> = (0..16).map(|_| (0..8).collect()).collect();
        let defects = vec![0u64; 16];
        let mut net = Network::new(&g, Bandwidth::Local);
        let err = solve_single_defect(
            &mut net,
            &ctx,
            &lists,
            &defects,
            0,
            &KernelConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Precondition { .. }), "{err}");
    }

    #[test]
    fn round_complexity_is_census_plus_selection_plus_h() {
        let g = generators::random_regular(200, 8, 1);
        let view = DirectedView::bidirected(&g);
        let mut net = Network::new(&g, Bandwidth::Local);
        let init: Vec<u64> = (0..200).collect();
        let active = vec![true; 200];
        let group = vec![0u64; 200];
        let ctx = OldcCtx {
            view: &view,
            space: 1 << 14,
            init: &init,
            m: 200,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 9,
        };
        let lists: Vec<Vec<Color>> = (0..200).map(|_| (0..4096).collect()).collect();
        let defects = vec![1u64; 200];
        let out = solve_single_defect(
            &mut net,
            &ctx,
            &lists,
            &defects,
            0,
            &KernelConfig::default(),
        )
        .unwrap();
        // h ≤ ⌈log 2β⌉ = 4; rounds = 1 census + selection + h.
        assert!(net.rounds() <= 1 + out.selection_rounds as usize + 4);
    }
}

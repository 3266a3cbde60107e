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

use crate::conflict::{best_residue, residue_restrict};
use crate::cover::SeededSubset;
use crate::ctx::{span, CandidateMsg, CensusMsg, CoreError, DecisionMsg, OldcCtx};
use crate::kernels::{DecisionBatch, KernelConfig, KernelStats, ListPair, SelectReq, TypeCache};
use crate::params::{gamma_class, k_of_class};
use crate::problem::Color;
use ldc_graph::NodeId;
use ldc_sim::Network;
use std::sync::Arc;

/// Cap on selection retries before reporting [`CoreError::SelectionExhausted`].
const MAX_SELECTION_ROUNDS: u32 = 48;

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

#[derive(Clone)]
struct Ns {
    active: bool,
    group: u64,
    init_color: u64,
    defect: u64,
    beta: u64,
    /// Unclamped count of active same-group out-neighbors.
    out_count: u64,
    /// Defect ≥ out_count: any list color trivially satisfies the budget,
    /// so the node skips the candidate machinery and decides first (this is
    /// how the paper's auxiliary γ-class instances — whose defects exceed
    /// β — are actually solved).
    trivial: bool,
    class: u32,
    restricted: Vec<Color>,
    k: usize,
    attempt: u32,
    cand: Arc<[Color]>,
    failed: bool,
    /// Per-port: is the neighbor an active same-group node?
    nb_relevant: Vec<bool>,
    nb_class: Vec<u32>,
    nb_cand: Vec<Option<Arc<[Color]>>>,
    nb_decided: Vec<Option<Color>>,
    decided: Option<Color>,
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
    let graph = ctx.view.graph();
    let n = graph.num_nodes();
    assert_eq!(lists.len(), n);
    assert_eq!(defects.len(), n);

    let mut states: Vec<Ns> = graph
        .nodes()
        .map(|v| {
            let vz = v as usize;
            let deg = graph.degree(v);
            Ns {
                active: ctx.active[vz],
                group: ctx.group[vz],
                init_color: ctx.init[vz],
                defect: defects[vz],
                beta: 1,
                out_count: 0,
                trivial: false,
                class: 1,
                restricted: Vec::new(),
                k: 0,
                attempt: 0,
                cand: Arc::from([]),
                failed: false,
                nb_relevant: vec![false; deg],
                nb_class: vec![0; deg],
                nb_cand: vec![None; deg],
                nb_decided: vec![None; deg],
                decided: None,
            }
        })
        .collect();

    let tracer = net.tracer().clone();

    // --- 1. census: learn β_v (active same-group out-degree). -------------
    let view = ctx.view;
    let census_span = tracer.span(span::CENSUS);
    net.exchange(
        &mut states,
        |_, s, out: &mut ldc_sim::Outbox<'_, CensusMsg>| {
            if s.active {
                out.broadcast(&CensusMsg { group: s.group });
            }
        },
        |v, s, inbox| {
            if !s.active {
                return;
            }
            let mut beta = 0u64;
            for (p, m) in inbox.iter() {
                if m.group == s.group {
                    s.nb_relevant[p] = true;
                    if view.is_out_port(v, p) {
                        beta += 1;
                    }
                }
            }
            s.out_count = beta;
            s.beta = beta.max(1);
            s.trivial = s.defect >= s.out_count;
        },
    )?;

    drop(census_span);

    // --- 2. γ-classes and parameters (global h, Δ-style knowledge). -------
    for s in states.iter_mut().filter(|s| s.active && !s.trivial) {
        s.class = gamma_class(2, s.beta, s.defect + 1);
    }
    let h = states
        .iter()
        .filter(|s| s.active && !s.trivial)
        .map(|s| s.class)
        .max()
        .unwrap_or(1);
    let tau = ctx.profile.tau(u64::from(h), ctx.space, ctx.m);

    // --- 3. residue restriction + candidate sizes. -------------------------
    for (v, s) in states.iter_mut().enumerate() {
        if !s.active {
            continue;
        }
        if s.trivial {
            if lists[v].is_empty() {
                return Err(CoreError::Precondition {
                    node: v as NodeId,
                    detail: "empty color list".into(),
                });
            }
            continue;
        }
        let list = &lists[v];
        let a = best_residue(list, g);
        s.restricted = residue_restrict(list, a, g);
        s.k = k_of_class(s.class, tau).min(u64::MAX >> 1) as usize;
        if s.k > s.restricted.len() {
            return Err(CoreError::Precondition {
                node: v as NodeId,
                detail: format!(
                    "restricted list has {} colors but class {} needs k = {} (τ = {tau}, β = {}, d = {})",
                    s.restricted.len(),
                    s.class,
                    s.k,
                    s.beta,
                    s.defect
                ),
            });
        }
    }

    // --- 4. P2 selection + P1 verification loop. ---------------------------
    let selection_span = tracer.span(span::SELECTION);
    let strategy = SeededSubset { seed: ctx.seed };
    // One type cache per solve: τ and g are fixed from here on, so the
    // memoized selections and conflict verdicts are pure functions of their
    // keys (see `kernels`).
    let mut cache = TypeCache::new(strategy, tau, g, cfg);
    let mut selection_retries = 0u64;
    let mut selection_rounds = 0u32;
    let mut first_failed: Option<usize> = None;
    loop {
        selection_rounds += 1;
        if selection_rounds > MAX_SELECTION_ROUNDS {
            // Tracked during the previous verification pass (satellite: no
            // O(n) rescan here).
            let node = first_failed.expect("loop only continues while some node failed");
            return Err(CoreError::SelectionExhausted {
                node: node as NodeId,
                attempts: MAX_SELECTION_ROUNDS,
            });
        }
        // Batched selection (results and stats identical at every thread
        // count — see `oldc`).
        let sel_nodes: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active && !s.trivial && (s.cand.is_empty() || s.failed))
            .map(|(v, _)| v)
            .collect();
        let sel_reqs: Vec<SelectReq<'_>> = sel_nodes
            .iter()
            .map(|&v| {
                let s = &states[v];
                SelectReq {
                    init_color: s.init_color,
                    list: &s.restricted,
                    k: s.k,
                    attempt: s.attempt,
                }
            })
            .collect();
        let sel_sets = cache.select_batch(&sel_reqs);
        drop(sel_reqs);
        for (&v, set) in sel_nodes.iter().zip(sel_sets) {
            states[v].cand = set;
            states[v].failed = false;
        }
        net.exchange(
            &mut states,
            |_, s, out: &mut ldc_sim::Outbox<'_, CandidateMsg>| {
                if s.active && !s.trivial {
                    out.broadcast(&CandidateMsg {
                        class: s.class,
                        group: s.group,
                        set: s.cand.clone(),
                        declared_bits: CandidateMsg::type_bits(
                            s.restricted.len() as u64,
                            ctx.space,
                            ctx.m,
                            s.beta,
                        ),
                    });
                }
            },
            |_, s, inbox| {
                if !s.active || s.trivial {
                    return;
                }
                for (p, m) in inbox.iter() {
                    if m.group == s.group {
                        s.nb_class[p] = m.class;
                        s.nb_cand[p] = Some(m.set.clone());
                    }
                }
            },
        )?;
        // P1 budget check (outside the consume closure so the cache
        // memoizes verdicts across nodes; pure local recomputation —
        // rounds and message bits are untouched): at most ⌊d/2⌋
        // conflicting same-or-lower-class out-neighbors. Pairs gather in
        // node/port order, resolve through `conflict_batch`, and apply in
        // the same order.
        let mut pairs: Vec<ListPair> = Vec::new();
        for (v, s) in states.iter().enumerate() {
            if !s.active || s.trivial {
                continue;
            }
            for p in 0..s.nb_relevant.len() {
                if !(s.nb_relevant[p] && view.is_out_port(v as NodeId, p)) {
                    continue;
                }
                if s.nb_class[p] > s.class {
                    continue;
                }
                if let Some(cu) = &s.nb_cand[p] {
                    pairs.push((s.cand.clone(), cu.clone()));
                }
            }
        }
        let verdicts = cache.conflict_batch(&pairs);
        let mut at = 0usize;
        first_failed = None;
        for (v, s) in states.iter_mut().enumerate() {
            if !s.active || s.trivial {
                continue;
            }
            let mut conflicts = 0u64;
            for p in 0..s.nb_relevant.len() {
                if !(s.nb_relevant[p] && view.is_out_port(v as NodeId, p)) {
                    continue;
                }
                if s.nb_class[p] > s.class {
                    continue;
                }
                if s.nb_cand[p].is_some() {
                    if verdicts[at] {
                        conflicts += 1;
                    }
                    at += 1;
                }
            }
            if conflicts > s.defect / 2 {
                s.failed = true;
                s.attempt += 1;
                first_failed.get_or_insert(v);
            }
        }
        debug_assert_eq!(at, verdicts.len(), "gather/apply passes agree");
        let failures = states.iter().filter(|s| s.failed).count() as u64;
        selection_retries += failures;
        tracer.add(span::CTR_SELECTION_RETRIES, failures);
        if failures == 0 {
            break;
        }
    }
    drop(selection_span);

    // --- 5. decisions, γ-classes in descending order. ----------------------
    let _decide_span = tracer.span(span::DECIDE);
    // Trivial nodes (defect ≥ out-degree) decide first so everyone else can
    // account for their exact colors.
    if states.iter().any(|s| s.active && s.trivial) {
        for (v, s) in states.iter_mut().enumerate() {
            if s.active && s.trivial {
                s.decided = Some(lists[v][0]);
            }
        }
        net.exchange(
            &mut states,
            |_, s, out: &mut ldc_sim::Outbox<'_, DecisionMsg>| {
                if s.active && s.trivial {
                    out.broadcast(&DecisionMsg {
                        color: s.decided.expect("decided above"),
                        group: s.group,
                        space: ctx.space,
                    });
                }
            },
            |_, s, inbox| {
                if !s.active {
                    return;
                }
                for (p, m) in inbox.iter() {
                    if m.group == s.group {
                        s.nb_decided[p] = Some(m.color);
                    }
                }
            },
        )?;
    }
    let mut batch = DecisionBatch::new();
    for class in (1..=h).rev() {
        // Batched decisions: gather every node's frequency job in node
        // order, evaluate in parallel chunks, apply in node order —
        // identical to the per-node sequential pass.
        let mut stuck: Option<(NodeId, u64, u64)> = None;
        batch.clear();
        let mut dec_nodes: Vec<usize> = Vec::new();
        for (v, s) in states.iter().enumerate() {
            if !(s.active && !s.trivial && s.class == class) {
                continue;
            }
            dec_nodes.push(v);
            cache.push_decision(
                &mut batch,
                &s.cand,
                (0..s.nb_relevant.len()).filter_map(|p| {
                    if !(s.nb_relevant[p] && view.is_out_port(v as NodeId, p)) {
                        return None;
                    }
                    if let Some(c) = s.nb_decided[p] {
                        Some((Some(c), None))
                    } else if s.nb_class[p] <= s.class {
                        s.nb_cand[p].as_ref().map(|cu| (None, Some(cu)))
                    } else {
                        None
                    }
                }),
            );
        }
        let results = cache.best_color_batch(&batch);
        for (&v, best) in dec_nodes.iter().zip(results) {
            let s = &mut states[v];
            let (f, x) = best.expect("candidate set is non-empty");
            if f > s.defect {
                stuck.get_or_insert((v as NodeId, f, s.defect));
                continue;
            }
            s.decided = Some(x);
        }
        if let Some((node, best, budget)) = stuck {
            return Err(CoreError::PigeonholeFailed { node, best, budget });
        }
        // Announce.
        net.exchange(
            &mut states,
            |_, s, out: &mut ldc_sim::Outbox<'_, DecisionMsg>| {
                if s.active && !s.trivial && s.class == class {
                    if let Some(c) = s.decided {
                        out.broadcast(&DecisionMsg {
                            color: c,
                            group: s.group,
                            space: ctx.space,
                        });
                    }
                }
            },
            |_, s, inbox| {
                if !s.active {
                    return;
                }
                for (p, m) in inbox.iter() {
                    if m.group == s.group {
                        s.nb_decided[p] = Some(m.color);
                    }
                }
            },
        )?;
    }

    let colors = states.iter().map(|s| s.decided).collect();
    Ok(SingleDefectOutcome {
        colors,
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

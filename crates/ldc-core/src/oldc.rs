//! The main oriented list defective coloring algorithm — Lemma 3.7,
//! Lemma 3.8, and thus **Theorem 1.1**.
//!
//! Theorem 1.1 (practical form): if every node satisfies
//! `Σ_{x∈L_v}(d_v(x)+1)² ≥ α·β_v²·κ(β,𝒞,m)` with
//! `κ = (log β + loglog|𝒞| + loglog m)·(loglog β + loglog m)·log²log β`,
//! the OLDC instance is solvable in `O(log β)` rounds with messages of
//! `O(min{|𝒞|, Λ·log|𝒞|} + log β + log m)` bits.
//!
//! The two-layer structure:
//!
//! 1. **γ-class assignment** (Lemma 3.8): defect buckets `L_{v,μ}` (powers
//!    of four), weights `λ_{v,μ}`, candidate classes `𝓛_v ⊆ [h]` with
//!    class-defects `δ_{v,i}` (Cases I/II), and an *auxiliary generalized
//!    OLDC instance over the tiny color space `[h]`* solved by Lemma 3.6
//!    with color distance `g = ⌊log h⌋` — this is where the improvement
//!    from `log β` to `polyloglog β` in the list requirement comes from.
//! 2. **per-class two-phase coloring** (Lemma 3.7): ascending classes
//!    prune "bad" colors against lower-class candidate sets and select a
//!    candidate set competing only *within* the class; descending classes
//!    pick the final color by the frequency argument.
//!
//! Lemma 3.7 is the §3.2 engine plus pruning against lower classes: its
//! census, selection and verification, trivial-first decisions and
//! decision rounds are the engine's round steps (`steps`), called with
//! Lemma 3.7's acting nodes, counted neighbors and budgets. Pruning,
//! the laggards' Phase 0 set sizes and the laggard loop stay here.

use crate::cover::SeededSubset;
use crate::ctx::{span, CoreError, DecisionMsg, OldcCtx};
use crate::kernels::{KernelConfig, KernelStats, TypeCache};
use crate::multi_defect::{rounded_defect, solve_multi_defect};
use crate::params::k_of_class;
use crate::problem::{Color, DefectList};
use crate::steps::{self, Announcement, Node, Port};
use ldc_graph::NodeId;
use ldc_sim::Network;

/// Per-node input to [`solve_with_classes`] (Lemma 3.7).
#[derive(Debug, Clone, Default)]
pub struct ClassedInput {
    /// The node's γ-class `i_v ∈ [h]` (ignored if inactive).
    pub class: u32,
    /// The node's color list (sorted, deduplicated).
    pub list: Vec<Color>,
    /// The node's single defect value `d_v`.
    pub defect: u64,
}

/// Statistics shared by the Theorem 1.1 solvers.
#[derive(Debug, Clone, Default)]
pub struct OldcStats {
    /// Selection re-draws (0 when lists meet the α·4^i·τ requirement).
    pub selection_retries: u64,
    /// Colors pruned in Phase I (against lower-class candidate sets).
    pub pruned_colors: u64,
    /// Kernel-cache accounting (selections, conflict verdicts, interning);
    /// deterministic, and independent of the outputs either way.
    pub kernels: KernelStats,
}

/// Lemma 3.7: solve a single-defect OLDC instance whose γ-classes have
/// already been assigned (each node competes only with its own class, plus
/// pruning against lower classes), in `O(h)` rounds.
///
/// Guarantee per active node `v` with color `x_v`: at most `defect_v`
/// active same-group out-neighbors share `x_v`.
///
/// `cfg` sets the kernel mode, worker threads for the batched selection /
/// verification / decision phases, the interned-list bound, and an
/// optional fleet-shared cache. Colors, stats (minus the cache counters
/// across modes and the scheduling-dependent shared-hit split), rounds,
/// and message bits are byte-identical across every configuration — the
/// batches gather in node order, compute pure kernel functions in
/// parallel, and publish in node order.
pub fn solve_with_classes(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    inputs: &[ClassedInput],
    cfg: &KernelConfig,
) -> Result<(Vec<Option<Color>>, OldcStats), CoreError> {
    let n = ctx.view.graph().num_nodes();
    assert_eq!(inputs.len(), n);
    let tracer = net.tracer().clone();
    let mut states = steps::nodes(ctx);
    for (s, input) in states.iter_mut().zip(inputs) {
        s.class = input.class; // 0 = laggard (greedy by priority)
        s.defect = input.defect;
        s.list = input.list.clone();
    }

    // Census: relevance + neighbor classes (β itself is not needed here;
    // classes come preassigned).
    steps::census(net, ctx, &mut states, true)?;

    let h = states
        .iter()
        .filter(|s| s.active)
        .map(|s| s.class)
        .max()
        .unwrap_or(1);
    let tau = ctx.profile.tau(u64::from(h), ctx.space, ctx.m);
    let strategy = SeededSubset {
        seed: ctx.seed ^ 0x517cc1b727220a95,
    };
    // One type cache per solve: this engine runs with g = 0, and τ is fixed
    // for its whole lifetime, so selections and conflict verdicts are pure
    // functions of their (type-)keys — see `kernels` for why every memo hit
    // is byte-identical to recomputation.
    let mut cache = TypeCache::new(strategy, tau, 0, cfg);
    let mut stats = OldcStats::default();
    // Every candidate message declares β = 2^h.
    let beta = |_: &Node| 1u64 << h;
    let laggard = |s: &Node| s.active && !s.trivial && s.class == 0;

    // ---------------- Phase 0: laggard candidate sets. ----------------------
    // Laggards (class 0; see `solve_oldc`) decide *last*, so every regular
    // class must be able to prune against their future choices exactly like
    // against a lower class. They therefore commit, type-deterministically,
    // a candidate set of the pigeonhole size ⌊out/(d̂+1)⌋+1 — small enough
    // that pruning costs regular neighbors only O(β_w) colors each — and
    // will pick their final color inside it.
    if states.iter().any(laggard) {
        let _phase0 = tracer.span(span::PHASE0);
        for (v, s) in states.iter_mut().enumerate() {
            if !laggard(s) {
                continue;
            }
            if (s.list.len() as u64) * (s.defect + 1) <= s.out_count {
                return Err(CoreError::Precondition {
                    node: v as NodeId,
                    detail: format!(
                        "laggard needs ℓ(d+1) > out-degree: {}·{} ≤ {}",
                        s.list.len(),
                        s.defect + 1,
                        s.out_count
                    ),
                });
            }
            s.k = (s.out_count / (s.defect + 1) + 1).min(s.list.len() as u64) as usize;
        }
        steps::select_and_announce(net, ctx, &mut cache, &mut states, laggard, beta)?;
    }

    // ---------------- Phase I: ascending classes. --------------------------
    for class in 1..=h {
        let _phase = tracer.span(span::phase_i(class));
        let in_class = |s: &Node| s.active && !s.trivial && s.class == class;
        // Prune + size the candidate set for this class's nodes.
        for (v, s) in states.iter_mut().enumerate() {
            if !in_class(s) {
                continue;
            }
            // Bad colors: > d/4 lower-class out-neighbors already carry x in
            // their committed candidate set.
            let before = s.list.len();
            cache.prune(
                &mut s.list,
                s.defect / 4,
                s.nb.iter()
                    .enumerate()
                    .filter(|&(p, nb)| steps::out_port(ctx, v, p, nb) && nb.class < class)
                    .filter_map(|(_, nb)| nb.cand.as_ref()),
            );
            let pruned = (before - s.list.len()) as u64;
            stats.pruned_colors += pruned;
            tracer.add(span::CTR_PRUNED_COLORS, pruned);
            s.k = k_of_class(s.class, tau) as usize;
            if s.k > s.list.len() {
                return Err(CoreError::Precondition {
                    node: v as NodeId,
                    detail: format!(
                        "after pruning {pruned} colors, {} remain but class {} needs k = {} (τ = {tau})",
                        s.list.len(),
                        s.class,
                        s.k
                    ),
                });
            }
        }
        // Selection + verification within the class: at most ⌊d/4⌋
        // conflicting same-class out-neighbors.
        let same_class = |s: &Node, nb: &Port| nb.class == s.class;
        let (retries, _) = steps::select_until_verified(
            net,
            ctx,
            &mut cache,
            &mut states,
            in_class,
            same_class,
            4,
            beta,
        )?;
        stats.selection_retries += retries;
    }

    // ---------------- Phase II: descending classes. -------------------------
    let phase2 = tracer.span(span::PHASE2);
    steps::decide_trivial(net, ctx, &mut states)?;
    for class in (1..=h).rev() {
        tracer.add(
            span::CTR_UNDECIDED_NODE_ROUNDS,
            states
                .iter()
                .filter(|s| s.active && s.decided.is_none())
                .count() as u64,
        );
        // Charged: decided out-neighbors and non-conflicting same-class
        // candidate sets. Lower classes are covered by Phase I pruning,
        // conflicting same-class neighbors by the d/4 budget.
        let in_class = |s: &Node| s.active && !s.trivial && s.class == class;
        let unconflicted = |s: &Node, nb: &Port| nb.class == s.class && !nb.conflicting;
        steps::decide(ctx, &mut cache, &mut states, in_class, unconflicted, 2)?;
        steps::announce::<DecisionMsg>(net, ctx, &mut states, in_class)?;
    }
    drop(phase2);

    // ---------------- Laggard phase (class 0). -----------------------------
    // Small-β nodes whose lists only satisfy the linear condition decide
    // last. A laggard's frequency charges (a) decided same-group
    // out-neighbors exactly and (b) *undecided* laggard out-neighbors
    // through their Phase-0 candidate sets (their eventual pick lies inside
    // C_u, so charging the whole set is a safe over-approximation — the
    // same later-decider accounting the regular classes get from pruning).
    // A laggard commits as soon as some candidate color fits its budget;
    // sinks of the laggard sub-DAG always can (plain pigeonhole over
    // decided out-neighbors), so each round makes progress and the phase is
    // bounded by the longest directed laggard chain — linear in the worst
    // case (the price of sub-threshold lists; see DESIGN.md §S2b), short
    // in the pipelines where laggards are sparse.
    let waiting = |s: &Node| laggard(s) && s.decided.is_none();
    if states.iter().any(waiting) {
        let _laggard = tracer.span(span::LAGGARD_CHAIN);
        let laggard_cap = n + 8;
        let mut iters = 0usize;
        let mut stall: Option<CoreError> = None;
        loop {
            let remaining = states.iter().filter(|s| waiting(s)).count();
            if remaining == 0 {
                break;
            }
            tracer.add(span::CTR_UNDECIDED_NODE_ROUNDS, remaining as u64);
            iters += 1;
            tracer.set_max(span::CTR_LAGGARD_CHAIN_DEPTH, iters as u64);
            if iters > laggard_cap {
                // Past the directed-chain bound the phase has stalled:
                // every remaining laggard missed its budget last round.
                return Err(stall.expect("an undecided laggard was stuck"));
            }
            // Try to commit. No laggard reads another's same-round
            // decision, so the round is one decision batch; every
            // undecided out-neighbor is charged its whole candidate set.
            stall = steps::decide(ctx, &mut cache, &mut states, waiting, |_, _| true, 1).err();
            // Announce commitments (undecided laggards stay silent — their
            // candidate sets were already shared in Phase 0).
            steps::announce::<LaggardMsg>(net, ctx, &mut states, laggard)?;
        }
    }

    stats.kernels = cache.stats;
    Ok((states.iter().map(|s| s.decided).collect(), stats))
}

/// Wire message of the laggard phase: a commitment announcement.
#[derive(Clone)]
struct LaggardMsg {
    color: Color,
    group: u64,
    space: u64,
    m: u64,
}

impl ldc_sim::MessageSize for LaggardMsg {
    fn bits(&self) -> u64 {
        ldc_sim::bits_for_value(self.space.saturating_sub(1)).max(1)
            + ldc_sim::bits_for_value(self.m.saturating_sub(1)).max(1)
            + ldc_sim::bits_for_value(self.group).max(1)
    }
}

impl Announcement for LaggardMsg {
    fn of(color: Color, group: u64, ctx: &OldcCtx<'_, '_>) -> Self {
        LaggardMsg {
            color,
            group,
            space: ctx.space,
            m: ctx.m,
        }
    }

    fn color_group(&self) -> (Color, u64) {
        (self.color, self.group)
    }
}

/// Outcome of [`solve_oldc`].
#[derive(Debug, Clone)]
pub struct OldcOutcome {
    /// Chosen colors (`None` for inactive nodes).
    pub colors: Vec<Option<Color>>,
    /// Engine statistics.
    pub stats: OldcStats,
    /// The γ-class each active node was assigned by the auxiliary OLDC.
    pub classes: Vec<u32>,
}

/// Lemma 3.8 / **Theorem 1.1**: solve a multi-defect OLDC instance
/// (`g = 0`) whose lists satisfy (the profile-scaled form of) Eq. (6).
///
/// `cfg` is threaded through the auxiliary Lemma 3.6 instance and the
/// Lemma 3.7 engine alike. Outputs are byte-identical across kernel
/// modes, thread counts and shared-cache settings.
pub fn solve_oldc(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    lists: &[DefectList],
    cfg: &KernelConfig,
) -> Result<OldcOutcome, CoreError> {
    let n = ctx.view.graph().num_nodes();
    assert_eq!(lists.len(), n);
    let tracer = net.tracer().clone();
    let _thm11 = tracer.span(span::THM11);

    // Census: β per node (active same-group out-degree; unclamped count
    // kept for the trivial/laggard regimes).
    let out_count = steps::out_counts(net, ctx)?;
    let beta: Vec<u64> = out_count.iter().map(|&c| c.max(1)).collect();

    // Global parameters (Δ/β-style knowledge).
    let beta_hat_max = (0..n)
        .filter(|&v| ctx.active[v])
        .map(|v| beta[v].next_power_of_two())
        .max()
        .unwrap_or(1);
    let h = u64::from(beta_hat_max.max(2).ilog2()).max(1);
    // γ-classes run up to log₂(4β̂) = h + 2 (the factor-4 condition of
    // Lemma 3.7 can push the smallest-defect class two above log β̂).
    let h_classes = h + 2;
    let g_aux = u64::from(h_classes.max(1).ilog2()); // ⌊log h⌋
    let alpha = u64::max(2, ctx.profile.alpha());
    // τ as the downstream per-class engine will see it (conservative: it
    // recomputes with its actual max class ≤ h, and τ is monotone in h).
    let tau_est = ctx.profile.tau(h, ctx.space, ctx.m);

    // Candidate γ-classes per node. The paper encodes this step through the
    // budget R_v and the weights λ_{v,μ} (Cases I/II of Lemma 3.8); under a
    // scaled profile those formulas degenerate (every μ clamps to h), so we
    // apply the *feasibility calculus they encode* directly. For each defect
    // bucket (colors sharing the rounded defect d̂):
    //   • Lemma 3.7's class condition 2^i ≥ 4·(β_v/q)/(d̂+1) with q = h
    //     gives the smallest admissible class i_min,
    //   • its list requirement ℓ ≥ 2α·4^i·τ gives the largest class i_max,
    //   • within [i_min, i_max] we take the natural γ-class
    //     2^i ≈ 4β_v/(d̂+1), clamped,
    // and the class defect δ_{v,i} = ⌊2^i·(d̂+1)/4⌋ is exactly the number of
    // same-window out-neighbors that keeps Lemma 3.7's first condition true.
    let mut bucket_of_class: Vec<std::collections::HashMap<u32, u64>> =
        vec![std::collections::HashMap::new(); n];
    let mut aux_lists: Vec<DefectList> = vec![DefectList::default(); n];
    for v in 0..n {
        if !ctx.active[v] {
            continue;
        }
        if lists[v].is_empty() {
            return Err(CoreError::Precondition {
                node: v as u32,
                detail: "empty list".into(),
            });
        }

        // Bucket sizes by rounded defect.
        let mut bucket_len: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for (_, d) in lists[v].iter() {
            *bucket_len.entry(rounded_defect(d)).or_insert(0) += 1;
        }

        let mut entries: Vec<(u64, u64)> = Vec::new();
        let mut best_len_for_class: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for (&dhat, &len) in &bucket_len {
            // The natural class 2^i ≥ 4β_v/(d̂+1) satisfies both parts of
            // Lemma 3.7's degree condition outright (β_{v,i} ≤ β_v and
            // β_v/q ≤ β_v), so the window defect δ = 2^i(d̂+1)/4 ≥ β_v and
            // the auxiliary class-assignment instance is trivially
            // satisfiable — exactly the regime the paper's galactic R_v
            // produces. A bucket is *feasible* if its list covers the
            // class's candidate-set requirement ℓ ≥ 2·4^i·τ (the α·4^i·τ
            // form with the selection-retry safety net absorbing the
            // remaining constant).
            let i_nat = u64::from(crate::params::gamma_class(4, beta[v], dhat + 1));
            if i_nat > h_classes {
                continue;
            }
            let feasible = len / (2 * tau_est).max(1) >= (1u64 << (2 * i_nat).min(62));
            if !feasible {
                continue;
            }
            let delta_aux = ((1u64 << i_nat.min(40)) * (dhat + 1)) / 4;
            let class = i_nat as u32;
            let keep = best_len_for_class.get(&class).map_or(true, |&l| len > l);
            if keep {
                best_len_for_class.insert(class, len);
                entries.retain(|&(c, _)| c != i_nat);
                entries.push((i_nat, delta_aux));
                bucket_of_class[v].insert(class, dhat);
            }
        }
        if entries.is_empty() {
            // Laggard fallback (class 0): no bucket affords the candidate
            // machinery, but a bucket satisfying the *linear* condition
            // ℓ·(d̂+1) > β_v can be colored greedily by initial-color
            // priority after all regular classes decided (small-β regime;
            // the asymptotic machinery only engages for β ≫ τ).
            let lag = bucket_len
                .iter()
                .map(|(&dhat, &len)| (len.saturating_mul(dhat + 1), dhat))
                .max();
            match lag {
                Some((lin_mass, dhat)) if lin_mass > out_count[v] => {
                    entries.push((0, u64::MAX >> 1)); // aux-trivial
                    bucket_of_class[v].insert(0, dhat);
                }
                _ => {
                    return Err(CoreError::Precondition {
                        node: v as u32,
                        detail: format!(
                            "no feasible γ-class and no laggard bucket: β = {}, buckets = {:?}, τ = {tau_est}, α = {alpha}",
                            beta[v], bucket_len
                        ),
                    });
                }
            }
        }
        aux_lists[v] = DefectList::new(entries);
    }

    // Auxiliary generalized OLDC over color space [1, h]: assign γ-classes
    // such that ≤ δ_{v,i} out-neighbors pick a class within distance
    // g_aux = ⌊log h⌋ below i_v.
    let aux_ctx = OldcCtx {
        space: h_classes + 1,
        ..*ctx
    };
    let aux = {
        let _aux_span = tracer.span(span::AUX_CLASSES);
        solve_multi_defect(net, &aux_ctx, &aux_lists, g_aux, cfg)?
    };

    // Build Lemma 3.7 inputs from the class assignment.
    let mut inputs: Vec<ClassedInput> = vec![ClassedInput::default(); n];
    let mut classes = vec![0u32; n];
    for v in 0..n {
        if !ctx.active[v] {
            continue;
        }
        let i_v = aux.inner.colors[v].expect("aux solved for active nodes") as u32;
        classes[v] = i_v;
        let dhat = *bucket_of_class[v]
            .get(&i_v)
            .expect("class maps back to a bucket");
        let list: Vec<Color> = lists[v]
            .iter()
            .filter(|&(_, d)| rounded_defect(d) == dhat)
            .map(|(c, _)| c)
            .collect();
        inputs[v] = ClassedInput {
            class: i_v,
            list,
            defect: dhat,
        };
    }

    let (colors, mut stats) = solve_with_classes(net, ctx, &inputs, cfg)?;
    stats.kernels.absorb(&aux.inner.kernels);
    Ok(OldcOutcome {
        colors,
        stats,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamProfile;
    use crate::validate::validate_oldc;
    use ldc_graph::{generators, DirectedView, Orientation};
    use ldc_sim::Bandwidth;

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

    #[test]
    fn classed_solver_on_two_class_instance() {
        // Random 8-regular bidirected graph; classes assigned by degree
        // bucket artificially: all nodes class 2 with defect 3.
        let g = generators::random_regular(120, 8, 2);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..120).collect();
        let active = vec![true; 120];
        let group = vec![0u64; 120];
        let ctx = full_ctx(&view, 1 << 13, &init, 120, &active, &group, 5);
        let inputs: Vec<ClassedInput> = (0..120)
            .map(|v| ClassedInput {
                class: 2,
                list: (0..1024u64)
                    .map(|i| (i * 7 + v) % (1 << 13))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                defect: 3,
            })
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let (colors, _) =
            solve_with_classes(&mut net, &ctx, &inputs, &KernelConfig::default()).unwrap();
        for v in g.nodes() {
            let x = colors[v as usize].unwrap();
            let same = g
                .neighbors(v)
                .iter()
                .filter(|&&u| colors[u as usize] == Some(x))
                .count() as u64;
            assert!(same <= 3, "node {v}: defect {same} > 3");
        }
    }

    #[test]
    fn theorem_1_1_uniform_defects() {
        // β = 6 bidirected; uniform defect 2 ⇒ γ ≈ 4(?); square mass must
        // exceed αβ²·κ-ish. Lists of 2048 colors with defect 2 give
        // Σ(d+1)² = 2048·9 ≈ 18k ≫ β² κ for practical κ.
        let g = generators::random_regular(90, 6, 7);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..90).collect();
        let active = vec![true; 90];
        let group = vec![0u64; 90];
        let space = 1 << 13;
        let ctx = full_ctx(&view, space, &init, 90, &active, &group, 11);
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
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn theorem_1_1_mixed_defects() {
        let g = generators::random_regular(80, 4, 9);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..80).collect();
        let active = vec![true; 80];
        let group = vec![0u64; 80];
        let space = 1 << 14;
        let ctx = full_ctx(&view, space, &init, 80, &active, &group, 17);
        // Mixture: a slab of defect-1 colors and a slab of defect-3 colors.
        let lists: Vec<DefectList> = (0..80u64)
            .map(|v| {
                let mut m = std::collections::BTreeMap::new();
                for i in 0..1024u64 {
                    m.insert((i * 5 + v) % (space / 2), 1);
                }
                for i in 0..512u64 {
                    m.insert(space / 2 + ((i * 11 + v) % (space / 2)), 3);
                }
                DefectList::new(m.into_iter().collect())
            })
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn theorem_1_1_on_oriented_low_outdegree_graph() {
        // Forward-oriented torus: β = 2; with defect 0 the square-mass
        // requirement is tiny, exercising the proper-coloring special case.
        let g = generators::torus(10, 10);
        let o = Orientation::by_rank(&g, u64::from);
        let view = DirectedView::from_orientation(&g, &o);
        let init: Vec<u64> = (0..100).collect();
        let active = vec![true; 100];
        let group = vec![0u64; 100];
        let space = 1 << 10;
        let ctx = full_ctx(&view, space, &init, 100, &active, &group, 23);
        let lists: Vec<DefectList> = (0..100u64)
            .map(|v| {
                DefectList::new(
                    (0..512u64)
                        .map(|i| ((i * 2 + v) % space, 0))
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn laggard_path_on_star() {
        // A star's leaves have β ∈ {0,1}; with tiny lists every node either
        // is trivial or takes the laggard path — exactly the small-β regime
        // of DESIGN.md §S2b.
        let g = generators::star(24);
        let o = Orientation::by_rank(&g, |v| u64::from(u32::MAX - v));
        // Center (id 0) has highest rank ⇒ all edges point to it: center
        // β = 0 (trivial), leaves β = 1.
        let view = DirectedView::from_orientation(&g, &o);
        assert_eq!(view.out_degree(0), 0);
        assert_eq!(view.out_degree(1), 1);
        let init: Vec<u64> = (0..24).collect();
        let active = vec![true; 24];
        let group = vec![0u64; 24];
        let ctx = full_ctx(&view, 16, &init, 24, &active, &group, 9);
        let lists: Vec<DefectList> = (0..24u64)
            .map(|v| DefectList::uniform((v % 4)..(v % 4 + 8), 0))
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn laggard_chain_on_path_respects_priorities() {
        // A long oriented path with exactly-threshold 2-color lists: every
        // node is a laggard (β = 1, defect 0) whose candidate set is its
        // whole list, so the candidate-set accounting degenerates to
        // deciding downstream along the orientation — the documented
        // linear-chain worst case of the laggard fallback (§S2b). The
        // output must still be exactly proper along the orientation.
        let g = generators::path(64);
        let o = Orientation::forward(&g);
        let view = DirectedView::from_orientation(&g, &o);
        let init: Vec<u64> = (0..64).map(|v| v % 2).collect(); // proper 2-coloring
        let active = vec![true; 64];
        let group = vec![0u64; 64];
        let ctx = full_ctx(&view, 4, &init, 2, &active, &group, 3);
        let lists: Vec<DefectList> = (0..64).map(|_| DefectList::uniform(0..2, 0)).collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
        // Worst case: one laggard per round along the directed chain.
        assert!(net.rounds() <= 64 + 12, "rounds = {}", net.rounds());
    }

    #[test]
    fn mixed_regular_and_laggard_nodes() {
        // Lollipop: clique nodes have big β (regular classes), path nodes
        // tiny β (laggards/trivial); validity must hold across the seam.
        let g = generators::lollipop(40, 10);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..40).collect();
        let active = vec![true; 40];
        let group = vec![0u64; 40];
        let space = 1 << 13;
        let ctx = full_ctx(&view, space, &init, 40, &active, &group, 5);
        let lists: Vec<DefectList> = g
            .nodes()
            .map(|v| {
                let len = if g.degree(v) > 4 { 3000 } else { 8 };
                DefectList::uniform(
                    (0..len)
                        .map(|i| (i * 3 + u64::from(v)) % space)
                        .collect::<std::collections::BTreeSet<_>>(),
                    2,
                )
            })
            .collect();
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn rounds_scale_logarithmically_in_beta() {
        // Shape check for Theorem 1.1's O(log β) round bound: β = 4 vs
        // β = 16 should differ by a small additive amount, far below linear.
        let mut rounds = Vec::new();
        for (d, n, seed) in [(4usize, 64usize, 1u64), (16, 64, 2)] {
            let g = generators::random_regular(n, d, seed);
            let view = DirectedView::bidirected(&g);
            let init: Vec<u64> = (0..n as u64).collect();
            let active = vec![true; n];
            let group = vec![0u64; n];
            let space = 1 << 14;
            let ctx = full_ctx(&view, space, &init, n as u64, &active, &group, 3);
            let defect = (d / 2) as u64; // keep γ small and lists feasible
            let lists: Vec<DefectList> = (0..n as u64)
                .map(|v| {
                    DefectList::new(
                        (0..3000u64)
                            .map(|i| ((i * 5 + v) % space, defect))
                            .collect::<std::collections::BTreeMap<_, _>>()
                            .into_iter()
                            .collect(),
                    )
                })
                .collect();
            let mut net = Network::new(&g, Bandwidth::Local);
            let out = solve_oldc(&mut net, &ctx, &lists, &KernelConfig::default()).unwrap();
            let colors: Vec<u64> = out.colors.iter().map(|c| c.unwrap()).collect();
            assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
            rounds.push(net.rounds());
        }
        assert!(
            rounds[1] <= rounds[0] + 24,
            "rounds {:?} not logarithmic-ish",
            rounds
        );
    }
}

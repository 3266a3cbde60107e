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

use crate::cover::SeededSubset;
use crate::ctx::{span, CandidateMsg, CensusMsg, CoreError, DecisionMsg, OldcCtx};
use crate::kernels::{DecisionBatch, KernelConfig, KernelStats, ListPair, SelectReq, TypeCache};
use crate::multi_defect::solve_multi_defect;
use crate::params::k_of_class;
use crate::problem::{Color, DefectList};
use ldc_graph::NodeId;
use ldc_sim::Network;
use std::sync::Arc;

const MAX_SELECTION_ROUNDS: u32 = 48;

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

#[derive(Clone)]
struct Ns {
    active: bool,
    group: u64,
    init_color: u64,
    class: u32,
    defect: u64,
    /// Unclamped count of active same-group out-neighbors.
    out_count: u64,
    /// Defect ≥ out_count: decide first, skip the machinery (see
    /// `single_defect` for why this regime exists).
    trivial: bool,
    list: Vec<Color>,
    k: usize,
    attempt: u32,
    cand: Option<Arc<[Color]>>,
    failed: bool,
    committed: bool,
    nb_relevant: Vec<bool>,
    nb_class: Vec<u32>,
    nb_cand: Vec<Option<Arc<[Color]>>>,
    nb_conflicting: Vec<bool>,
    nb_decided: Vec<Option<Color>>,
    decided: Option<Color>,
    pruned: u64,
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
    let graph = ctx.view.graph();
    let view = ctx.view;
    let n = graph.num_nodes();
    assert_eq!(inputs.len(), n);
    let tracer = net.tracer().clone();

    let mut states: Vec<Ns> = graph
        .nodes()
        .map(|v| {
            let vz = v as usize;
            let deg = graph.degree(v);
            Ns {
                active: ctx.active[vz],
                group: ctx.group[vz],
                init_color: ctx.init[vz],
                class: inputs[vz].class, // 0 = laggard (greedy by priority)
                defect: inputs[vz].defect,
                out_count: 0,
                trivial: false,
                list: inputs[vz].list.clone(),
                k: 0,
                attempt: 0,
                cand: None,
                failed: false,
                committed: false,
                nb_relevant: vec![false; deg],
                nb_class: vec![0; deg],
                nb_cand: vec![None; deg],
                nb_conflicting: vec![false; deg],
                nb_decided: vec![None; deg],
                decided: None,
                pruned: 0,
            }
        })
        .collect();

    // Census: relevance + neighbor classes (β itself is not needed here;
    // classes come preassigned).
    let census_span = tracer.span(span::CENSUS);
    net.exchange(
        &mut states,
        |_, s, out: &mut ldc_sim::Outbox<'_, (CensusMsg, u32)>| {
            if s.active {
                out.broadcast(&(CensusMsg { group: s.group }, s.class));
            }
        },
        |v, s, inbox| {
            if !s.active {
                return;
            }
            for (p, (m, class)) in inbox.iter() {
                if m.group == s.group {
                    s.nb_relevant[p] = true;
                    s.nb_class[p] = *class;
                    if view.is_out_port(v, p) {
                        s.out_count += 1;
                    }
                }
            }
            s.trivial = s.defect >= s.out_count;
        },
    )?;
    drop(census_span);

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

    // ---------------- Phase 0: laggard candidate sets. ----------------------
    // Laggards (class 0; see `solve_oldc`) decide *last*, so every regular
    // class must be able to prune against their future choices exactly like
    // against a lower class. They therefore commit, type-deterministically,
    // a candidate set of the pigeonhole size ⌊out/(d̂+1)⌋+1 — small enough
    // that pruning costs regular neighbors only O(β_w) colors each — and
    // will pick their final color inside it.
    if states
        .iter()
        .any(|s| s.active && !s.trivial && s.class == 0)
    {
        let _phase0 = tracer.span(span::PHASE0);
        let mut lag_nodes: Vec<usize> = Vec::new();
        let mut lag_reqs: Vec<SelectReq<'_>> = Vec::new();
        for (v, s) in states.iter().enumerate() {
            if !(s.active && !s.trivial && s.class == 0) {
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
            lag_nodes.push(v);
            lag_reqs.push(SelectReq {
                init_color: s.init_color,
                list: &s.list,
                k: (s.out_count / (s.defect + 1) + 1).min(s.list.len() as u64) as usize,
                attempt: 0,
            });
        }
        let lag_sets = cache.select_batch(&lag_reqs);
        drop(lag_reqs);
        for (&v, set) in lag_nodes.iter().zip(lag_sets) {
            states[v].cand = Some(set);
        }
        net.exchange(
            &mut states,
            |_, s, out: &mut ldc_sim::Outbox<'_, CandidateMsg>| {
                if s.active && !s.trivial && s.class == 0 {
                    out.broadcast(&CandidateMsg {
                        class: 0,
                        group: s.group,
                        set: s.cand.clone().expect("selected above"),
                        declared_bits: CandidateMsg::type_bits(
                            s.list.len() as u64,
                            ctx.space,
                            ctx.m,
                            1 << h,
                        ),
                    });
                }
            },
            |_, s, inbox| {
                if !s.active {
                    return;
                }
                for (p, m) in inbox.iter() {
                    if m.group == s.group {
                        s.nb_cand[p] = Some(m.set.clone());
                        s.nb_class[p] = m.class;
                    }
                }
            },
        )?;
    }

    // ---------------- Phase I: ascending classes. --------------------------
    let mut first_failed: Option<usize> = None;
    for class in 1..=h {
        let _phase = tracer.span(span::phase_i(class));
        // Prune + size the candidate set for this class's nodes.
        for (v, s) in states.iter_mut().enumerate() {
            if !(s.active && !s.trivial && s.class == class) {
                continue;
            }
            // Bad colors: > d/4 lower-class out-neighbors already carry x in
            // their committed candidate set.
            let before = s.list.len();
            let (nb_relevant, nb_class, nb_cand) = (&s.nb_relevant, &s.nb_class, &s.nb_cand);
            cache.prune(
                &mut s.list,
                s.defect / 4,
                (0..nb_relevant.len())
                    .filter(|&p| {
                        nb_relevant[p] && view.is_out_port(v as NodeId, p) && nb_class[p] < class
                    })
                    .filter_map(|p| nb_cand[p].as_ref()),
            );
            s.pruned = (before - s.list.len()) as u64;
            stats.pruned_colors += s.pruned;
            tracer.add(span::CTR_PRUNED_COLORS, s.pruned);
            s.k = k_of_class(s.class, tau) as usize;
            if s.k > s.list.len() {
                return Err(CoreError::Precondition {
                    node: v as NodeId,
                    detail: format!(
                        "after pruning {} colors, {} remain but class {} needs k = {} (τ = {tau})",
                        s.pruned,
                        s.list.len(),
                        s.class,
                        s.k
                    ),
                });
            }
        }

        // Selection + verification loop within the class.
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            if rounds > MAX_SELECTION_ROUNDS {
                // `first_failed` was tracked during the previous
                // verification pass (satellite: no O(n) rescan here).
                let node = first_failed.unwrap_or(0);
                return Err(CoreError::SelectionExhausted {
                    node: node as NodeId,
                    attempts: MAX_SELECTION_ROUNDS,
                });
            }
            // Batched selection: requests gather in node order and resolve
            // through `select_batch` — each result equals
            // `SeededSubset::select`, and results and stats are identical at
            // every thread count (draws run in parallel and publish in node
            // order; an in-batch duplicate type costs one miss).
            let sel_nodes: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.active && !s.trivial && s.class == class && (s.cand.is_none() || s.failed)
                })
                .map(|(v, _)| v)
                .collect();
            let sel_reqs: Vec<SelectReq<'_>> = sel_nodes
                .iter()
                .map(|&v| {
                    let s = &states[v];
                    SelectReq {
                        init_color: s.init_color,
                        list: &s.list,
                        k: s.k,
                        attempt: s.attempt,
                    }
                })
                .collect();
            let sel_sets = cache.select_batch(&sel_reqs);
            drop(sel_reqs);
            for (&v, set) in sel_nodes.iter().zip(sel_sets) {
                states[v].cand = Some(set);
                states[v].failed = false;
            }
            net.exchange(
                &mut states,
                |_, s, out: &mut ldc_sim::Outbox<'_, CandidateMsg>| {
                    if s.active && !s.trivial && s.class == class {
                        out.broadcast(&CandidateMsg {
                            class: s.class,
                            group: s.group,
                            set: s.cand.clone().expect("selected above"),
                            declared_bits: CandidateMsg::type_bits(
                                s.list.len() as u64,
                                ctx.space,
                                ctx.m,
                                1 << h,
                            ),
                        });
                    }
                },
                |_, s, inbox| {
                    if !s.active {
                        return;
                    }
                    for (p, m) in inbox.iter() {
                        if m.group == s.group {
                            s.nb_cand[p] = Some(m.set.clone());
                            s.nb_class[p] = m.class;
                        }
                    }
                },
            )?;
            // Verification pass (outside the consume closure so the cache
            // can memoize verdicts across nodes; pure local recomputation —
            // rounds and message bits are untouched). The candidate `Arc`s
            // received above are clones of cache-produced sets, so in Fast
            // mode each unordered pair of distinct sets is checked once per
            // solve instead of once per edge. The checked pairs gather in
            // node/port order, resolve through `conflict_batch` (byte- and
            // stats-identical to checking them one at a time), and the
            // verdicts apply in the same order.
            let mut pairs: Vec<ListPair> = Vec::new();
            for (v, s) in states.iter().enumerate() {
                if !s.active || s.trivial || s.class != class || s.committed {
                    continue;
                }
                let cand = s.cand.as_ref().expect("selected above");
                for p in 0..s.nb_relevant.len() {
                    if !(s.nb_relevant[p]
                        && view.is_out_port(v as NodeId, p)
                        && s.nb_class[p] == class)
                    {
                        continue;
                    }
                    if let Some(cu) = &s.nb_cand[p] {
                        pairs.push((cand.clone(), cu.clone()));
                    }
                }
            }
            let verdicts = cache.conflict_batch(&pairs);
            let mut at = 0usize;
            first_failed = None;
            for (v, s) in states.iter_mut().enumerate() {
                if !s.active || s.trivial || s.class != class || s.committed {
                    continue;
                }
                let mut conflicts = 0u64;
                for p in 0..s.nb_relevant.len() {
                    s.nb_conflicting[p] = false;
                    if !(s.nb_relevant[p]
                        && view.is_out_port(v as NodeId, p)
                        && s.nb_class[p] == class)
                    {
                        continue;
                    }
                    if s.nb_cand[p].is_some() {
                        if verdicts[at] {
                            s.nb_conflicting[p] = true;
                            conflicts += 1;
                        }
                        at += 1;
                    }
                }
                if conflicts > s.defect / 4 {
                    s.failed = true;
                    s.attempt += 1;
                    first_failed.get_or_insert(v);
                }
            }
            debug_assert_eq!(at, verdicts.len(), "gather/apply passes agree");
            let failures = states
                .iter()
                .filter(|s| s.class == class && s.failed)
                .count() as u64;
            stats.selection_retries += failures;
            tracer.add(span::CTR_SELECTION_RETRIES, failures);
            if failures == 0 {
                break;
            }
        }
        for s in states.iter_mut() {
            if s.active && s.class == class {
                s.committed = true;
            }
        }
    }

    // ---------------- Phase II: descending classes. -------------------------
    let phase2 = tracer.span(span::PHASE2);
    let mut batch = DecisionBatch::new();
    // Trivial nodes decide first (cf. `single_defect`).
    if states.iter().any(|s| s.active && s.trivial) {
        for s in states.iter_mut() {
            if s.active && s.trivial {
                s.decided = Some(*s.list.first().expect("non-empty list"));
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
    for class in (1..=h).rev() {
        tracer.add(
            span::CTR_UNDECIDED_NODE_ROUNDS,
            states
                .iter()
                .filter(|s| s.active && s.decided.is_none())
                .count() as u64,
        );
        // Batched decisions: jobs gather in node order (the packed-id
        // interning inside `push_decision` is part of the deterministic
        // stats stream), run through `best_color_batch`, and apply in node
        // order — so the first stuck node matches the sequential scan.
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
                s.cand.as_ref().expect("committed in Phase I"),
                (0..s.nb_relevant.len()).filter_map(|p| {
                    if !(s.nb_relevant[p] && view.is_out_port(v as NodeId, p)) {
                        return None;
                    }
                    if let Some(c) = s.nb_decided[p] {
                        Some((Some(c), None))
                    } else if s.nb_class[p] == class && !s.nb_conflicting[p] {
                        s.nb_cand[p].as_ref().map(|cu| (None, Some(cu)))
                    } else {
                        None
                    }
                    // Lower classes: covered by Phase I pruning;
                    // conflicting same-class neighbors: covered by the d/4
                    // budget.
                }),
            );
        }
        let results = cache.best_color_batch(&batch);
        for (&v, best) in dec_nodes.iter().zip(results) {
            let s = &mut states[v];
            let (f, x) = best.expect("k ≥ 1 candidate colors");
            if f > s.defect / 2 {
                stuck.get_or_insert((v as NodeId, f, s.defect / 2));
                continue;
            }
            s.decided = Some(x);
        }
        if let Some((node, best, budget)) = stuck {
            return Err(CoreError::PigeonholeFailed { node, best, budget });
        }
        net.exchange(
            &mut states,
            |_, s, out: &mut ldc_sim::Outbox<'_, DecisionMsg>| {
                if s.active && !s.trivial && s.class == class {
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
    let any_laggards = states
        .iter()
        .any(|s| s.active && !s.trivial && s.class == 0 && s.decided.is_none());
    if any_laggards {
        let _laggard = tracer.span(span::LAGGARD_CHAIN);
        let laggard_cap = n + 8;
        let mut iters = 0usize;
        let mut stuck: Option<(NodeId, u64, u64)> = None;
        loop {
            let remaining = states
                .iter()
                .filter(|s| s.active && !s.trivial && s.class == 0 && s.decided.is_none())
                .count();
            if remaining == 0 {
                break;
            }
            tracer.add(span::CTR_UNDECIDED_NODE_ROUNDS, remaining as u64);
            iters += 1;
            tracer.set_max(span::CTR_LAGGARD_CHAIN_DEPTH, iters as u64);
            if iters > laggard_cap {
                // Past the directed-chain bound the phase has stalled:
                // every remaining laggard missed its budget last round.
                let (node, best, budget) = stuck.expect("an undecided laggard was stuck");
                return Err(CoreError::PigeonholeFailed { node, best, budget });
            }
            // Try to commit. No laggard reads another's same-round
            // decision, so the round is one decision batch.
            stuck = None;
            batch.clear();
            let mut dec_nodes: Vec<usize> = Vec::new();
            for (v, s) in states.iter().enumerate() {
                if !(s.active && !s.trivial && s.class == 0 && s.decided.is_none()) {
                    continue;
                }
                dec_nodes.push(v);
                cache.push_decision(
                    &mut batch,
                    s.cand.as_ref().expect("committed in Phase 0"),
                    (0..s.nb_relevant.len()).filter_map(|p| {
                        if !(s.nb_relevant[p] && view.is_out_port(v as NodeId, p)) {
                            return None;
                        }
                        if let Some(c) = s.nb_decided[p] {
                            Some((Some(c), None))
                        } else {
                            // Undecided laggard out-neighbor: charge its
                            // whole candidate set.
                            s.nb_cand[p].as_ref().map(|cu| (None, Some(cu)))
                        }
                    }),
                );
            }
            let results = cache.best_color_batch(&batch);
            for (&v, best) in dec_nodes.iter().zip(results) {
                let s = &mut states[v];
                let (f, x) = best.expect("laggard candidate sets are non-empty");
                if f <= s.defect {
                    s.decided = Some(x);
                } else {
                    stuck.get_or_insert((v as NodeId, f, s.defect));
                }
            }
            // Announce commitments (undecided laggards stay silent — their
            // candidate sets were already shared in Phase 0).
            net.exchange(
                &mut states,
                |_, s, out: &mut ldc_sim::Outbox<'_, LaggardMsg>| {
                    if s.active && !s.trivial && s.class == 0 {
                        if let Some(c) = s.decided {
                            out.broadcast(&LaggardMsg {
                                color: c,
                                group: s.group,
                                space: ctx.space,
                                m: ctx.m,
                            });
                        }
                    }
                },
                |_, s, inbox| {
                    if !s.active {
                        return;
                    }
                    for (p, msg) in inbox.iter() {
                        if msg.group == s.group {
                            s.nb_decided[p] = Some(msg.color);
                        }
                    }
                },
            )?;
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
    let graph = ctx.view.graph();
    let view = ctx.view;
    let n = graph.num_nodes();
    assert_eq!(lists.len(), n);
    let tracer = net.tracer().clone();
    let _thm11 = tracer.span(span::THM11);

    // Census: β per node (active same-group out-degree; unclamped count
    // kept for the trivial/laggard regimes).
    let mut beta = vec![1u64; n];
    let mut out_count = vec![0u64; n];
    {
        let _census = tracer.span(span::CENSUS);
        let mut st: Vec<(bool, u64, u64)> = (0..n)
            .map(|v| (ctx.active[v], ctx.group[v], 0u64))
            .collect();
        net.exchange(
            &mut st,
            |_, s, out: &mut ldc_sim::Outbox<'_, CensusMsg>| {
                if s.0 {
                    out.broadcast(&CensusMsg { group: s.1 });
                }
            },
            |v, s, inbox| {
                if !s.0 {
                    return;
                }
                let mut b = 0u64;
                for (p, m) in inbox.iter() {
                    if m.group == s.1 && view.is_out_port(v, p) {
                        b += 1;
                    }
                }
                s.2 = b;
            },
        )?;
        for (v, s) in st.iter().enumerate() {
            out_count[v] = s.2;
            beta[v] = s.2.max(1);
        }
    }

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
    let q_aux = h_classes.max(2);
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
        let _ = (alpha, q_aux);
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

/// Round a defect down so `d̂+1` is a power of two (the bucket key of
/// Lemma 3.8; using `d̂ ≤ d` keeps every guarantee valid for the original
/// defects).
fn rounded_defect(d: u64) -> u64 {
    (1u64 << (63 - (d + 1).leading_zeros())) - 1
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

//! The round steps of the §3.2 engine, each written once: the census, P2
//! select-and-announce, P1 verification, trivial-first decisions, and the
//! frequency decisions with their announcement. The single-defect engine
//! (`single_defect`), Lemma 3.7 (`oldc::solve_with_classes`) and the
//! censuses of Lemma 3.6 and Theorem 1.1 are built from these steps.
//!
//! What differs between the lemmas comes in as arguments: which nodes act,
//! which neighbors count, the budget divisor (`d/2`, `d/4`, `d`), the β
//! declared in candidate messages, and the announcement message type.
//!
//! Every batched step gathers in node order, resolves through the
//! [`TypeCache`] kernels, and applies in node order, so colors, rounds,
//! bits and kernel counters are the same at every thread count.

use crate::ctx::{span, CandidateMsg, CensusMsg, CoreError, DecisionMsg, OldcCtx};
use crate::kernels::{DecisionBatch, ListPair, SelectReq, TypeCache};
use crate::problem::Color;
use ldc_graph::NodeId;
use ldc_sim::{MessageSize, Network, Outbox};
use std::sync::Arc;

/// Cap on selection retries before reporting [`CoreError::SelectionExhausted`].
const MAX_SELECTION_ROUNDS: u32 = 48;

/// One node's state across the round steps.
pub(crate) struct Node {
    pub(crate) active: bool,
    pub(crate) group: u64,
    pub(crate) init_color: u64,
    /// γ-class (`0`: a Theorem 1.1 laggard).
    pub(crate) class: u32,
    pub(crate) defect: u64,
    /// Unclamped count of active same-group out-neighbors.
    pub(crate) out_count: u64,
    /// Defect ≥ out_count: any list color satisfies the budget, so the
    /// node skips the candidate machinery and decides first (this is how
    /// the paper's auxiliary γ-class instances — whose defects exceed β —
    /// are actually solved).
    pub(crate) trivial: bool,
    /// The list candidate sets are drawn from; a trivial node takes its
    /// first color.
    pub(crate) list: Vec<Color>,
    /// Candidate-set size.
    pub(crate) k: usize,
    pub(crate) attempt: u32,
    pub(crate) cand: Option<Arc<[Color]>>,
    pub(crate) failed: bool,
    /// What the node knows about each neighbor, by port (empty for an
    /// inactive node, which no step reads or writes).
    pub(crate) nb: Vec<Port>,
    pub(crate) decided: Option<Color>,
}

/// A node's knowledge of the neighbor behind one port.
#[derive(Clone, Default)]
pub(crate) struct Port {
    /// Is the neighbor an active same-group node?
    pub(crate) relevant: bool,
    pub(crate) class: u32,
    pub(crate) cand: Option<Arc<[Color]>>,
    /// Did the last verification find the neighbor's set in conflict with
    /// this node's?
    pub(crate) conflicting: bool,
    pub(crate) decided: Option<Color>,
}

/// Every node of `ctx` before the census: no class, defect, list or
/// neighbor knowledge yet. Active nodes get one [`Port`] per neighbor.
pub(crate) fn nodes(ctx: &OldcCtx<'_, '_>) -> Vec<Node> {
    let graph = ctx.view.graph();
    (0..graph.num_nodes())
        .map(|v| {
            let ports = if ctx.active[v] {
                graph.degree(v as NodeId)
            } else {
                0
            };
            node(ctx, v, ports)
        })
        .collect()
}

fn node(ctx: &OldcCtx<'_, '_>, v: usize, ports: usize) -> Node {
    Node {
        active: ctx.active[v],
        group: ctx.group[v],
        init_color: ctx.init[v],
        class: 0,
        defect: 0,
        out_count: 0,
        trivial: false,
        list: Vec::new(),
        k: 0,
        attempt: 0,
        cand: None,
        failed: false,
        nb: vec![Port::default(); ports],
        decided: None,
    }
}

/// Port `p` of node `v`, known as `nb`, leads to an active same-group
/// out-neighbor, the only kind of neighbor a budget counts.
pub(crate) fn out_port(ctx: &OldcCtx<'_, '_>, v: usize, p: usize, nb: &Port) -> bool {
    nb.relevant && ctx.view.is_out_port(v as NodeId, p)
}

/// The census message: the sender's group, plus its γ-class when classes
/// are preassigned.
#[derive(Clone)]
struct CensusClassMsg {
    census: CensusMsg,
    class: Option<u32>,
}

impl MessageSize for CensusClassMsg {
    fn bits(&self) -> u64 {
        self.census.bits() + self.class.map_or(0, |c| c.bits())
    }
}

/// The census round (span `census`): every active node announces its
/// group, and its γ-class if `with_class`. Active nodes count their active
/// same-group out-neighbors, turn trivial if their defect covers that
/// count, and mark those neighbors' ports relevant (with their classes);
/// a node without port state only counts.
pub(crate) fn census(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    states: &mut [Node],
    with_class: bool,
) -> Result<(), CoreError> {
    let _census = net.tracer().clone().span(span::CENSUS);
    let view = ctx.view;
    net.exchange(
        states,
        |_, s, out: &mut Outbox<'_, CensusClassMsg>| {
            if s.active {
                out.broadcast(&CensusClassMsg {
                    census: CensusMsg { group: s.group },
                    class: with_class.then_some(s.class),
                });
            }
        },
        |v, s, inbox| {
            if !s.active {
                return;
            }
            for (p, m) in inbox.iter() {
                if m.census.group == s.group {
                    if let Some(nb) = s.nb.get_mut(p) {
                        nb.relevant = true;
                        if let Some(class) = m.class {
                            nb.class = class;
                        }
                    }
                    if view.is_out_port(v, p) {
                        s.out_count += 1;
                    }
                }
            }
            s.trivial = s.defect >= s.out_count;
        },
    )?;
    Ok(())
}

/// The census alone: each node's count of active same-group
/// out-neighbors (0 for inactive nodes).
pub(crate) fn out_counts(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
) -> Result<Vec<u64>, CoreError> {
    let n = ctx.view.graph().num_nodes();
    let mut states: Vec<Node> = (0..n).map(|v| node(ctx, v, 0)).collect();
    census(net, ctx, &mut states, false)?;
    Ok(states.iter().map(|s| s.out_count).collect())
}

/// P2: every acting node without a candidate set, or whose set failed its
/// last verification, draws one (`select_batch`); then every acting node
/// broadcasts its set, declaring the type-encoding cost of its list with
/// `beta(s)` as β. Active nodes record the sets and classes of same-group
/// neighbors.
pub(crate) fn select_and_announce(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    cache: &mut TypeCache,
    states: &mut [Node],
    acts: impl Fn(&Node) -> bool + Sync,
    beta: impl Fn(&Node) -> u64 + Sync,
) -> Result<(), CoreError> {
    let selecting: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| acts(s) && (s.cand.is_none() || s.failed))
        .map(|(v, _)| v)
        .collect();
    let reqs: Vec<SelectReq<'_>> = selecting
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
    let sets = cache.select_batch(&reqs);
    drop(reqs);
    for (&v, set) in selecting.iter().zip(sets) {
        states[v].cand = Some(set);
        states[v].failed = false;
    }
    net.exchange(
        states,
        |_, s, out: &mut Outbox<'_, CandidateMsg>| {
            if acts(s) {
                out.broadcast(&CandidateMsg {
                    class: s.class,
                    group: s.group,
                    set: s.cand.clone().expect("selected above"),
                    declared_bits: CandidateMsg::type_bits(
                        s.list.len() as u64,
                        ctx.space,
                        ctx.m,
                        beta(s),
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
                    s.nb[p].cand = Some(m.set.clone());
                    s.nb[p].class = m.class;
                }
            }
        },
    )?;
    Ok(())
}

/// P1, a local pass (no round): every acting node counts the out-ports
/// `counts` selects whose candidate sets τ&g-conflict with its own, and
/// fails, moving to its next attempt, if more than `defect / budget_div`
/// do. Pairs gather in node/port order, resolve through `conflict_batch`,
/// and apply in the same order. Returns the failures and the first
/// failing node.
fn verify(
    ctx: &OldcCtx<'_, '_>,
    cache: &mut TypeCache,
    states: &mut [Node],
    acts: impl Fn(&Node) -> bool,
    counts: impl Fn(&Node, &Port) -> bool,
    budget_div: u64,
) -> (u64, Option<usize>) {
    let checked = |s: &Node, v: usize, p: usize| {
        out_port(ctx, v, p, &s.nb[p]) && counts(s, &s.nb[p]) && s.nb[p].cand.is_some()
    };
    let mut pairs: Vec<ListPair> = Vec::new();
    for (v, s) in states.iter().enumerate().filter(|(_, s)| acts(s)) {
        let cand = s.cand.as_ref().expect("selected before verification");
        for p in (0..s.nb.len()).filter(|&p| checked(s, v, p)) {
            pairs.push((cand.clone(), s.nb[p].cand.clone().expect("checked")));
        }
    }
    let verdicts = cache.conflict_batch(&pairs);
    let mut at = 0usize;
    let (mut failures, mut first_failed) = (0u64, None);
    for (v, s) in states.iter_mut().enumerate() {
        if !acts(s) {
            continue;
        }
        let mut conflicts = 0u64;
        for p in 0..s.nb.len() {
            let mut conflicting = false;
            if checked(s, v, p) {
                conflicting = verdicts[at];
                at += 1;
            }
            s.nb[p].conflicting = conflicting;
            conflicts += u64::from(conflicting);
        }
        if conflicts > s.defect / budget_div {
            s.failed = true;
            s.attempt += 1;
            failures += 1;
            first_failed.get_or_insert(v);
        }
    }
    debug_assert_eq!(at, verdicts.len(), "gather/apply passes agree");
    (failures, first_failed)
}

/// The §3.2 selection loop: [`select_and_announce`] and [`verify`] until
/// no acting node fails, adding each pass's failures to the
/// `selection-retries` counter. Returns the total retries and the number
/// of passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_until_verified(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    cache: &mut TypeCache,
    states: &mut [Node],
    acts: impl Fn(&Node) -> bool + Sync,
    counts: impl Fn(&Node, &Port) -> bool,
    budget_div: u64,
    beta: impl Fn(&Node) -> u64 + Sync,
) -> Result<(u64, u32), CoreError> {
    let tracer = net.tracer().clone();
    let (mut retries, mut passes, mut first_failed) = (0u64, 0u32, None);
    loop {
        passes += 1;
        if passes > MAX_SELECTION_ROUNDS {
            let node = first_failed.expect("loop only continues while some node failed");
            return Err(CoreError::SelectionExhausted {
                node: node as NodeId,
                attempts: MAX_SELECTION_ROUNDS,
            });
        }
        select_and_announce(net, ctx, cache, states, &acts, &beta)?;
        let (failures, first) = verify(ctx, cache, states, &acts, &counts, budget_div);
        first_failed = first;
        retries += failures;
        tracer.add(span::CTR_SELECTION_RETRIES, failures);
        if failures == 0 {
            return Ok((retries, passes));
        }
    }
}

/// The frequency decision, a local pass (no round): every acting node
/// picks the candidate color of least frequency, charging decided
/// out-neighbors exactly and undecided ones that `charges` selects
/// through their candidate sets. A node whose best frequency exceeds
/// `defect / budget_div` stays undecided; the first such node comes back
/// as [`CoreError::PigeonholeFailed`].
pub(crate) fn decide(
    ctx: &OldcCtx<'_, '_>,
    cache: &mut TypeCache,
    states: &mut [Node],
    acts: impl Fn(&Node) -> bool,
    charges: impl Fn(&Node, &Port) -> bool,
    budget_div: u64,
) -> Result<(), CoreError> {
    let mut batch = DecisionBatch::new();
    let mut deciding: Vec<usize> = Vec::new();
    for (v, s) in states.iter().enumerate().filter(|(_, s)| acts(s)) {
        deciding.push(v);
        cache.push_decision(
            &mut batch,
            s.cand.as_ref().expect("candidate set selected"),
            s.nb.iter().enumerate().filter_map(|(p, nb)| {
                if !out_port(ctx, v, p, nb) {
                    return None;
                }
                match nb.decided {
                    Some(c) => Some((Some(c), None)),
                    None if charges(s, nb) => nb.cand.as_ref().map(|cu| (None, Some(cu))),
                    None => None,
                }
            }),
        );
    }
    let mut stuck = None;
    for (&v, best) in deciding.iter().zip(cache.best_color_batch(&batch)) {
        let s = &mut states[v];
        let (best, x) = best.expect("candidate sets are non-empty");
        let budget = s.defect / budget_div;
        if best <= budget {
            s.decided = Some(x);
        } else {
            stuck.get_or_insert(CoreError::PigeonholeFailed {
                node: v as NodeId,
                best,
                budget,
            });
        }
    }
    stuck.map_or(Ok(()), Err)
}

/// A final-color announcement as [`announce`] sends it.
pub(crate) trait Announcement: MessageSize + Clone + Send + Sync + 'static {
    /// The message announcing `color` for a node of `group`.
    fn of(color: Color, group: u64, ctx: &OldcCtx<'_, '_>) -> Self;
    /// The announced color and the sender's group.
    fn color_group(&self) -> (Color, u64);
}

impl Announcement for DecisionMsg {
    fn of(color: Color, group: u64, ctx: &OldcCtx<'_, '_>) -> Self {
        DecisionMsg {
            color,
            group,
            space: ctx.space,
        }
    }

    fn color_group(&self) -> (Color, u64) {
        (self.color, self.group)
    }
}

/// One round: every decided node that `sends` selects broadcasts its
/// color as an `M`; active nodes record the colors of same-group
/// neighbors.
pub(crate) fn announce<M: Announcement>(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    states: &mut [Node],
    sends: impl Fn(&Node) -> bool + Sync,
) -> Result<(), CoreError> {
    net.exchange(
        states,
        |_, s, out: &mut Outbox<'_, M>| {
            if let Some(c) = s.decided.filter(|_| sends(s)) {
                out.broadcast(&M::of(c, s.group, ctx));
            }
        },
        |_, s, inbox| {
            if !s.active {
                return;
            }
            for (p, m) in inbox.iter() {
                let (color, group) = m.color_group();
                if group == s.group {
                    s.nb[p].decided = Some(color);
                }
            }
        },
    )?;
    Ok(())
}

/// Trivial nodes decide first, on their list's first color, and announce
/// it, so everyone else can account for their exact colors. No round if
/// there is no trivial node.
pub(crate) fn decide_trivial(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    states: &mut [Node],
) -> Result<(), CoreError> {
    let trivial = |s: &Node| s.active && s.trivial;
    if !states.iter().any(trivial) {
        return Ok(());
    }
    for s in states.iter_mut().filter(|s| trivial(s)) {
        s.decided = Some(*s.list.first().expect("non-empty list"));
    }
    announce::<DecisionMsg>(net, ctx, states, trivial)
}

//! Standard color-class elimination: reduce a proper `m`-coloring to a
//! proper `(Δ+1)`-coloring in `m − (Δ+1)` rounds (one class per round).
//!
//! Combined with Linial's algorithm this is the classic
//! `O(Δ² + log* n)`-round `(Δ+1)`-coloring \[Lin87, GPS88\] that serves as
//! the simplest deterministic baseline in experiment E6.

use crate::ClassicError;
use ldc_graph::{NodeId, ProperColoring};
use ldc_sim::{Network, SimError};

#[derive(Clone)]
struct NodeState {
    color: u64,
    neighbor_colors: Vec<u64>,
}

/// Reduce the proper coloring `initial` to a `(Δ+1)`-coloring.
///
/// One round per eliminated color class: the nodes of the currently largest
/// class form an independent set and simultaneously recolor to their
/// smallest free color in `0..=Δ`.
pub fn reduce_to_delta_plus_one(
    net: &mut Network<'_>,
    initial: &ProperColoring,
) -> Result<ProperColoring, ClassicError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let m = initial.palette_size();
    let mut states: Vec<NodeState> = g
        .nodes()
        .map(|v| NodeState {
            color: initial.color(v),
            neighbor_colors: Vec::new(),
        })
        .collect();

    // One initial exchange so everyone knows its neighbors' colors.
    net.broadcast_exchange(
        &mut states,
        |_, s| Some(s.color),
        |_, s, inbox| {
            s.neighbor_colors = vec![0; inbox.ports()];
            for (p, &c) in inbox.iter() {
                s.neighbor_colors[p] = c;
            }
        },
    )?;

    let mut current = m;
    while current > delta + 1 {
        let class = current - 1;
        net.broadcast_exchange(
            &mut states,
            |_, s| {
                if s.color == class {
                    let free = (0..=delta)
                        .find(|c| !s.neighbor_colors.contains(c))
                        .expect("≤ Δ neighbors leave a free color in 0..=Δ");
                    Some(free)
                } else {
                    None
                }
            },
            |_, s, inbox| {
                if s.color == class {
                    // Recompute deterministically; identical to the sent value.
                    let free = (0..=delta)
                        .find(|c| !s.neighbor_colors.contains(c))
                        .expect("≤ Δ neighbors leave a free color in 0..=Δ");
                    s.color = free;
                }
                for (p, &c) in inbox.iter() {
                    s.neighbor_colors[p] = c;
                }
            },
        )?;
        current -= 1;
    }

    let colors = states.into_iter().map(|s| s.color).collect();
    ProperColoring::new(g, colors, delta + 1).map_err(ClassicError::Improper)
}

/// Kuhn–Wattenhofer divide-and-conquer color reduction \[KW06\]: reduce a
/// proper `m`-coloring to `(Δ+1)` colors in `O(Δ·log(m/Δ))` rounds (the
/// paper's footnote-2 baseline, vs `O(m)` for plain class elimination).
///
/// Bottom-up over the palette: nodes are grouped by their color's
/// `2(Δ+1)`-wide block; each group eliminates its excess classes in
/// parallel (classes are independent sets *within* a group, and different
/// groups never share current colors); then sibling groups merge — the
/// right sibling shifts its colors up by `Δ+1` — and eliminate again.
pub fn kw_reduce_to_delta_plus_one(
    net: &mut Network<'_>,
    initial: &ProperColoring,
) -> Result<ProperColoring, ClassicError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let target = delta + 1;
    let block = 2 * target;

    #[derive(Clone)]
    struct S {
        /// Current color, in `0..block` *relative* to the group base.
        color: u64,
        /// Group id (palette block); halves every level.
        group: u64,
        neighbor: Vec<Option<(u64, u64)>>, // (group, color) per port
    }
    let m0 = initial.palette_size();
    let mut states: Vec<S> = g
        .nodes()
        .map(|v| {
            let c = initial.color(v);
            S {
                color: c % block,
                group: c / block,
                neighbor: vec![None; g.degree(v)],
            }
        })
        .collect();
    let mut groups = m0.div_ceil(block);

    // One elimination pass: every group shrinks its palette from `width`
    // down to `target`, one class per round (a class is independent within
    // its group).
    let eliminate =
        |net: &mut Network<'_>, states: &mut Vec<S>, width: u64| -> Result<(), SimError> {
            // Refresh each node's view of neighbor (group, color).
            net.broadcast_exchange(
                states,
                |_, s| Some((s.group, s.color)),
                |_, s, inbox| {
                    for (p, &gc) in inbox.iter() {
                        s.neighbor[p] = Some(gc);
                    }
                },
            )?;
            let mut current = width;
            while current > target {
                let class = current - 1;
                net.broadcast_exchange(
                    states,
                    |_, s| {
                        if s.color == class {
                            let free = (0..target)
                                .find(|&c| {
                                    s.neighbor
                                        .iter()
                                        .flatten()
                                        .all(|&(ng, nc)| ng != s.group || nc != c)
                                })
                                .expect("≤ Δ same-group neighbors leave a free color");
                            Some((s.group, free))
                        } else {
                            None
                        }
                    },
                    |_, s, inbox| {
                        if s.color == class {
                            let free = (0..target)
                                .find(|&c| {
                                    s.neighbor
                                        .iter()
                                        .flatten()
                                        .all(|&(ng, nc)| ng != s.group || nc != c)
                                })
                                .expect("≤ Δ same-group neighbors leave a free color");
                            s.color = free;
                        }
                        for (p, &gc) in inbox.iter() {
                            s.neighbor[p] = Some(gc);
                        }
                    },
                )?;
                current -= 1;
            }
            Ok(())
        };

    // Level 0: shrink every block from `block` to `target` colors.
    eliminate(net, &mut states, block)?;
    // Merge levels: sibling groups (2i, 2i+1) fuse; the odd sibling shifts
    // its colors up by `target`, then the fused group eliminates again.
    while groups > 1 {
        for s in states.iter_mut() {
            if s.group % 2 == 1 {
                s.color += target;
            }
            s.group /= 2;
        }
        eliminate(net, &mut states, 2 * target)?;
        groups = groups.div_ceil(2);
    }

    let colors: Vec<u64> = states.iter().map(|s| s.color).collect();
    ProperColoring::new(g, colors, target).map_err(ClassicError::Improper)
}

/// CONGEST-compatible `(degree+1)`-*list* coloring by iterating the color
/// classes of a proper `m`-coloring: in round `t`, the uncolored nodes of
/// class `t` (an independent set) pick their first list color not yet taken
/// by a neighbor and announce it (`O(log|𝒞|)`-bit messages). `m` rounds;
/// with a Linial initialization this is the classic `O(Δ² + log* n)`
/// deterministic baseline that experiment E6 compares Theorem 1.4 against.
///
/// A node that a fault plan keeps from acting in its class round (crashed
/// or asleep) never decides; that is reported as
/// [`ClassicError::Undecided`] for the lowest such node.
pub fn class_iteration_list_coloring(
    net: &mut Network<'_>,
    initial: &ProperColoring,
    lists: &[Vec<u64>],
) -> Result<Vec<u64>, ClassicError> {
    let g = net.graph();
    assert_eq!(lists.len(), g.num_nodes());
    for v in g.nodes() {
        assert!(
            lists[v as usize].len() > g.degree(v),
            "list of node {v} too short"
        );
    }

    #[derive(Clone)]
    struct S {
        class: u64,
        list: Vec<u64>,
        color: Option<u64>,
    }
    let mut states: Vec<S> = g
        .nodes()
        .map(|v| S {
            class: initial.color(v),
            list: lists[v as usize].clone(),
            color: None,
        })
        .collect();

    for t in 0..initial.palette_size() {
        net.broadcast_exchange(
            &mut states,
            |_, s| (s.class == t).then(|| *s.list.first().expect("list outlasts taken colors")),
            |_, s, inbox| {
                if s.class == t {
                    s.color = Some(*s.list.first().expect("list outlasts taken colors"));
                }
                for (_, &c) in inbox.iter() {
                    s.list.retain(|&x| x != c);
                }
            },
        )?;
    }
    states
        .into_iter()
        .enumerate()
        .map(|(v, s)| s.color.ok_or(ClassicError::Undecided(v as NodeId)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_coloring;
    use ldc_graph::generators;
    use ldc_sim::Bandwidth;

    #[test]
    fn reduces_to_delta_plus_one() {
        let g = generators::gnp(120, 0.08, 3);
        let mut net = Network::new(&g, Bandwidth::Local);
        let lin = linial_coloring(&mut net, None).unwrap();
        let reduced = reduce_to_delta_plus_one(&mut net, &lin).unwrap();
        assert!(reduced.validate(&g).is_ok());
        assert_eq!(reduced.palette_size(), g.max_degree() as u64 + 1);
    }

    #[test]
    fn round_count_is_m_minus_palette() {
        let g = generators::ring(64);
        let mut net = Network::new(&g, Bandwidth::Local);
        let lin = linial_coloring(&mut net, None).unwrap();
        let before = net.rounds();
        let m = lin.palette_size();
        let _ = reduce_to_delta_plus_one(&mut net, &lin).unwrap();
        let used = net.rounds() - before;
        assert_eq!(used as u64, 1 + (m - 3)); // 1 setup + (m - (Δ+1)) classes
    }

    #[test]
    fn kw_reduction_reaches_delta_plus_one() {
        let g = generators::gnp(200, 0.05, 6);
        let mut net = Network::new(&g, Bandwidth::congest_log(200, 8));
        let lin = linial_coloring(&mut net, None).unwrap();
        let reduced = kw_reduce_to_delta_plus_one(&mut net, &lin).unwrap();
        assert!(reduced.validate(&g).is_ok());
        assert_eq!(reduced.palette_size(), g.max_degree() as u64 + 1);
    }

    #[test]
    fn kw_beats_plain_elimination_on_large_palettes() {
        // From an n-coloring with n ≫ Δ², KW uses O(Δ·log(n/Δ)) rounds vs
        // the plain eliminator's Θ(n).
        let g = generators::random_regular(4096, 6, 3);
        let id = ldc_graph::ProperColoring::by_id(&g);

        let mut net_kw = Network::new(&g, Bandwidth::Local);
        let kw = kw_reduce_to_delta_plus_one(&mut net_kw, &id).unwrap();
        assert!(kw.validate(&g).is_ok());

        let mut net_plain = Network::new(&g, Bandwidth::Local);
        let plain = reduce_to_delta_plus_one(&mut net_plain, &id).unwrap();
        assert!(plain.validate(&g).is_ok());

        assert!(
            net_kw.rounds() * 4 < net_plain.rounds(),
            "KW {} rounds vs plain {}",
            net_kw.rounds(),
            net_plain.rounds()
        );
    }

    #[test]
    fn kw_handles_small_palettes() {
        let g = generators::ring(12);
        let greedy = ldc_graph::coloring::greedy_by_id(&g);
        let mut net = Network::new(&g, Bandwidth::Local);
        let r = kw_reduce_to_delta_plus_one(&mut net, &greedy).unwrap();
        assert!(r.validate(&g).is_ok());
        assert_eq!(r.palette_size(), 3);
    }

    #[test]
    fn class_iteration_solves_lists_in_congest() {
        let g = generators::gnp(120, 0.07, 4);
        let mut net = Network::new(&g, Bandwidth::congest_log(120, 4));
        let lin = linial_coloring(&mut net, None).unwrap();
        let lists: Vec<Vec<u64>> = g
            .nodes()
            .map(|v| {
                (0..=g.degree(v) as u64)
                    .map(|i| i * 3 + u64::from(v % 2))
                    .collect()
            })
            .collect();
        let colors = class_iteration_list_coloring(&mut net, &lin, &lists).unwrap();
        for (_, u, v) in g.edges() {
            assert_ne!(colors[u as usize], colors[v as usize]);
        }
        for v in g.nodes() {
            assert!(lists[v as usize].contains(&colors[v as usize]));
        }
        // Rounds ≈ log* n + m (the Θ(Δ²) baseline cost).
        assert!(net.rounds() as u64 >= lin.palette_size());
    }

    #[test]
    fn already_small_palette_is_a_noop_after_setup() {
        let g = generators::complete(5); // Δ+1 = 5 = n
        let mut net = Network::new(&g, Bandwidth::Local);
        let id = ldc_graph::ProperColoring::by_id(&g);
        let reduced = reduce_to_delta_plus_one(&mut net, &id).unwrap();
        assert!(reduced.validate(&g).is_ok());
        assert_eq!(net.rounds(), 1);
    }
}

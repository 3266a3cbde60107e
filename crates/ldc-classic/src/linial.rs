//! Linial's coloring \[Lin87\] and Kuhn's defective coloring \[Kuh09\].
//!
//! Both algorithms iterate the one-round polynomial reduction of
//! [`crate::coverfree`]: starting from the unique-id `n`-coloring, each
//! round every node broadcasts its current color and moves to a point of
//! its cover-free set with small coverage. `O(log* n)` proper rounds reach
//! the `O(Δ² log Δ)`-color fixpoint; one final round with defect budget `d`
//! yields a `d`-defective coloring with `O((Δ/(d+1))² )`-ish colors.

use crate::coverfree::PolyScheme;
use crate::ClassicError;
use ldc_graph::coloring::ColoringError;
use ldc_graph::{Graph, ProperColoring};
use ldc_sim::Network;

/// Output of [`defective_coloring`]: colors in `0..palette` such that every
/// node has at most `defect` same-colored neighbors.
#[derive(Debug, Clone)]
pub struct DefectiveColoring {
    /// Per-node colors.
    pub colors: Vec<u64>,
    /// Palette size.
    pub palette: u64,
    /// The defect budget the coloring was computed for.
    pub defect: u64,
}

impl DefectiveColoring {
    /// Exact check: every node has at most `defect` same-colored neighbors.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.colors.len() != g.num_nodes() {
            return Err("wrong number of colors".into());
        }
        for v in g.nodes() {
            let c = self.colors[v as usize];
            if c >= self.palette {
                return Err(format!(
                    "node {v} color {c} outside palette {}",
                    self.palette
                ));
            }
            let same = g
                .neighbors(v)
                .iter()
                .filter(|&&u| self.colors[u as usize] == c)
                .count();
            if same as u64 > self.defect {
                return Err(format!(
                    "node {v} has {same} same-colored neighbors > defect {}",
                    self.defect
                ));
            }
        }
        Ok(())
    }
}

#[derive(Clone)]
struct NodeState {
    color: u64,
    /// Why this round's input was not a proper coloring around this node
    /// (a fault plan lost an announcement or froze a node earlier).
    broken: Option<ColoringError>,
}

/// One reduction round on the network: all nodes broadcast their color and
/// apply `scheme.reduce` with defect budget `d`. The reduction's guarantee
/// needs a proper `scheme.m`-coloring as input, so a node that sees its
/// own color repeated or a color outside `0..scheme.m` keeps its color
/// instead, and the round fails with what it saw.
fn reduction_round(
    net: &mut Network<'_>,
    states: &mut [NodeState],
    scheme: PolyScheme,
    d: u64,
) -> Result<(), ClassicError> {
    let g = net.graph();
    let m = scheme.m;
    net.broadcast_exchange(
        states,
        |_, s| Some(s.color),
        |v, s, inbox| {
            let bad = inbox.iter().find(|&(_, &c)| c == s.color || c >= m);
            s.broken = match bad {
                _ if s.color >= m => Some(ColoringError::ColorOutOfPalette {
                    node: v,
                    color: s.color,
                    m,
                }),
                Some((port, &color)) if color == s.color => Some(ColoringError::Monochromatic {
                    u: v,
                    v: g.neighbors(v)[port],
                    color,
                }),
                Some((port, &color)) => Some(ColoringError::ColorOutOfPalette {
                    node: g.neighbors(v)[port],
                    color,
                    m,
                }),
                None => {
                    let neighbor_colors: Vec<u64> = inbox.iter().map(|(_, &c)| c).collect();
                    s.color = scheme.reduce(s.color, &neighbor_colors, d);
                    None
                }
            };
        },
    )?;
    match states.iter().find_map(|s| s.broken.clone()) {
        Some(e) => Err(ClassicError::Improper(e)),
        None => Ok(()),
    }
}

/// Linial's algorithm: a proper `O(Δ² log Δ)`-coloring in `O(log* m₀)`
/// rounds, starting from the proper `m₀`-coloring `initial` (defaults to
/// the id coloring when `None`).
///
/// On a faulty network a lost color announcement or a sleeping node can
/// break properness; that is reported as [`ClassicError::Improper`],
/// never a panic.
pub fn linial_coloring(
    net: &mut Network<'_>,
    initial: Option<&ProperColoring>,
) -> Result<ProperColoring, ClassicError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let fallback = ProperColoring::by_id(g);
    let init = initial.unwrap_or(&fallback);
    let mut states: Vec<NodeState> = g
        .nodes()
        .map(|v| NodeState {
            color: init.color(v),
            broken: None,
        })
        .collect();
    let mut m = init.palette_size();
    while let Some(scheme) = PolyScheme::choose(m, delta, 0) {
        reduction_round(net, &mut states, scheme, 0)?;
        m = scheme.output_palette();
    }
    let colors: Vec<u64> = states.into_iter().map(|s| s.color).collect();
    ProperColoring::new(g, colors, m).map_err(ClassicError::Improper)
}

/// Kuhn's defective coloring: from a proper `m`-coloring, one extra round
/// yields a `d`-defective coloring with `O((k·Δ/(d+1))²)` colors.
///
/// Internally runs [`linial_coloring`] first so the final defective step
/// starts from a small palette.
pub fn defective_coloring(
    net: &mut Network<'_>,
    initial: Option<&ProperColoring>,
    d: u64,
) -> Result<DefectiveColoring, ClassicError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let proper = linial_coloring(net, initial)?;
    let m = proper.palette_size();
    let mut states: Vec<NodeState> = g
        .nodes()
        .map(|v| NodeState {
            color: proper.color(v),
            broken: None,
        })
        .collect();
    let (palette, used_defective_step) = match PolyScheme::choose(m, delta, d) {
        Some(scheme) if d > 0 => {
            reduction_round(net, &mut states, scheme, d)?;
            (scheme.output_palette(), true)
        }
        _ => (m, false),
    };
    let _ = used_defective_step;
    let colors: Vec<u64> = states.into_iter().map(|s| s.color).collect();
    let out = DefectiveColoring {
        colors,
        palette,
        defect: d,
    };
    debug_assert!(out.validate(g).is_ok());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_graph::generators;
    use ldc_sim::Bandwidth;

    #[test]
    fn linial_on_ring_reaches_small_palette_fast() {
        let g = generators::ring(1 << 12);
        let mut net = Network::new(&g, Bandwidth::congest_log(1 << 12, 4));
        let c = linial_coloring(&mut net, None).unwrap();
        assert!(c.validate(&g).is_ok());
        // Δ = 2 ⇒ fixpoint palette is a small constant (q² for small prime q).
        assert!(c.palette_size() <= 121, "palette {}", c.palette_size());
        // log* of 4096 is tiny.
        assert!(net.rounds() <= 6, "rounds {}", net.rounds());
    }

    #[test]
    fn linial_palette_is_quadratic_in_delta() {
        for d in [3usize, 5, 8] {
            let g = generators::random_regular(300, d, 7);
            let mut net = Network::new(&g, Bandwidth::Local);
            let c = linial_coloring(&mut net, None).unwrap();
            assert!(c.validate(&g).is_ok());
            let bound = (40 * d * d) as u64; // generous constant; shape check
            assert!(
                c.palette_size() <= bound,
                "palette {} vs Δ={d}",
                c.palette_size()
            );
        }
    }

    #[test]
    fn defective_coloring_trades_colors_for_defect() {
        let g = generators::random_regular(400, 16, 3);
        let mut net0 = Network::new(&g, Bandwidth::Local);
        let proper = linial_coloring(&mut net0, None).unwrap();
        let mut net = Network::new(&g, Bandwidth::Local);
        let def = defective_coloring(&mut net, None, 4).unwrap();
        def.validate(&g).unwrap();
        assert!(
            def.palette < proper.palette_size(),
            "defective palette {} should beat proper {}",
            def.palette,
            proper.palette_size()
        );
    }

    #[test]
    fn defective_with_zero_defect_is_proper() {
        let g = generators::gnp(150, 0.05, 2);
        let mut net = Network::new(&g, Bandwidth::Local);
        let def = defective_coloring(&mut net, None, 0).unwrap();
        def.validate(&g).unwrap();
        let proper = ProperColoring::new(&g, def.colors.clone(), def.palette);
        assert!(proper.is_ok());
    }

    #[test]
    fn works_from_custom_initial_coloring() {
        let g = generators::torus(6, 6);
        let greedy = ldc_graph::coloring::greedy_by_id(&g);
        let mut net = Network::new(&g, Bandwidth::Local);
        let c = linial_coloring(&mut net, Some(&greedy)).unwrap();
        assert!(c.validate(&g).is_ok());
        assert!(c.palette_size() <= greedy.palette_size().max(25 * 25));
    }

    #[test]
    fn congest_budget_suffices_for_linial() {
        // Colors stay ≤ n² throughout, so 4·log n bits per message suffice.
        let g = generators::gnp(500, 0.02, 11);
        let mut net = Network::new(&g, Bandwidth::congest_log(500, 4));
        let c = linial_coloring(&mut net, None);
        assert!(c.is_ok());
    }
}

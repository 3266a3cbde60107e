//! Fixtures shared by the `kernels` and `threads` suites.

use ldc_core::ctx::span;
use ldc_core::problem::DefectList;
use ldc_graph::{generators, Graph};
use ldc_sim::SpanNode;
use std::collections::BTreeSet;

/// The lollipop(40, 10) OLDC instance: clique nodes get long lists and
/// take regular γ-classes, the short-list path nodes are laggards, so
/// Theorem 1.1's Phase 0 and laggard chain run next to the regular
/// classes. Returns the graph, its lists, and the color-space size.
pub fn laggard_lollipop() -> (Graph, Vec<DefectList>, u64) {
    let g = generators::lollipop(40, 10);
    let space = 1u64 << 13;
    let lists = g
        .nodes()
        .map(|v| {
            let len = if g.degree(v) > 4 { 3000 } else { 8 };
            DefectList::uniform(
                (0..len)
                    .map(|i| (i * 3 + u64::from(v)) % space)
                    .collect::<BTreeSet<_>>(),
                2,
            )
        })
        .collect();
    (g, lists, space)
}

/// Whether Theorem 1.1's Phase 0 ran in a traced run, and the deepest
/// laggard chain it recorded.
pub fn laggard_trace(report: &SpanNode) -> (bool, u64) {
    let walk = report.walk();
    let phase0 = walk.iter().any(|(_, n)| n.name == span::PHASE0);
    let depth = walk
        .iter()
        .filter_map(|(_, n)| n.counters.get(span::CTR_LAGGARD_CHAIN_DEPTH))
        .copied()
        .max()
        .unwrap_or(0);
    (phase0, depth)
}

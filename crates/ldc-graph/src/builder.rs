//! Validating builder for [`Graph`].

use crate::graph::{EdgeId, Graph, NodeId};
use std::fmt;

/// Hard size ceiling: a graph may carry at most this many undirected
/// edges. [`crate::NodeId`]/[`EdgeId`] are `u32` and the simulator indexes
/// *half-edges* (2·m slots) with `u32`, so `2m` must fit in `u32`; beyond
/// that, edge ids would silently truncate and a multi-gigabyte allocation
/// would abort the process instead of reporting a typed error.
pub const MAX_EDGES: usize = (u32::MAX / 2) as usize;

/// Hard size ceiling on nodes (`NodeId` is `u32`).
pub const MAX_NODES: usize = u32::MAX as usize;

/// Errors produced when assembling a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The number of nodes of the graph under construction.
        n: usize,
    },
    /// An edge `{v, v}` was added.
    SelfLoop(
        /// The node with the self-loop.
        NodeId,
    ),
    /// The requested graph exceeds the `u32` id space ([`MAX_NODES`]
    /// nodes / [`MAX_EDGES`] edges, i.e. `2m` half-edge slots must fit in
    /// `u32`) or an intermediate size computation overflowed `usize`.
    /// Returned *before* any proportional allocation is attempted, so
    /// huge requests fail closed instead of OOM-aborting.
    TooLarge {
        /// Requested node count.
        nodes: usize,
        /// Requested (or so-far-counted) edge count; `usize::MAX` when the
        /// count itself overflowed.
        edges: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n}-node graph")
            }
            BuildError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            BuildError::TooLarge { nodes, edges } => write!(
                f,
                "graph of {nodes} nodes / {edges} edges exceeds the u32 id space \
                 (max {MAX_NODES} nodes, {MAX_EDGES} edges)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder producing validated CSR [`Graph`]s.
///
/// Duplicate edges are deduplicated silently (adding `{u,v}` twice yields a
/// single edge); self-loops and out-of-range endpoints are reported at
/// [`GraphBuilder::build`] time.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    error: Option<BuildError>,
}

impl GraphBuilder {
    /// Start building an `n`-node graph.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            error: None,
        }
    }

    /// Start building with an edge-capacity hint.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            error: None,
        }
    }

    /// Add the undirected edge `{u, v}`. Order of endpoints is irrelevant.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        if u == v {
            self.error = Some(BuildError::SelfLoop(u));
            return self;
        }
        for w in [u, v] {
            if (w as usize) >= self.n {
                self.error = Some(BuildError::NodeOutOfRange { node: w, n: self.n });
                return self;
            }
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        self
    }

    /// Add many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, it: I) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Finish, validating all invariants.
    pub fn build(&mut self) -> Result<Graph, BuildError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut edges = std::mem::take(&mut self.edges);
        edges.sort_unstable();
        edges.dedup();

        let n = self.n;
        if n > MAX_NODES || edges.len() > MAX_EDGES {
            return Err(BuildError::TooLarge {
                nodes: n,
                edges: edges.len(),
            });
        }
        let mut deg = vec![0usize; n];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        let mut half_edge_ids = vec![0 as EdgeId; acc];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let e = e as EdgeId;
            let cu = &mut cursor[u as usize];
            neighbors[*cu] = v;
            half_edge_ids[*cu] = e;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            neighbors[*cv] = u;
            half_edge_ids[*cv] = e;
            *cv += 1;
        }
        // Sort each adjacency list (stable pairing of neighbor and edge id).
        for v in 0..n {
            let range = offsets[v]..offsets[v + 1];
            let mut pairs: Vec<(NodeId, EdgeId)> = neighbors[range.clone()]
                .iter()
                .copied()
                .zip(half_edge_ids[range.clone()].iter().copied())
                .collect();
            pairs.sort_unstable();
            for (i, (nb, eid)) in pairs.into_iter().enumerate() {
                neighbors[offsets[v] + i] = nb;
                half_edge_ids[offsets[v] + i] = eid;
            }
        }
        Ok(Graph::from_parts(
            n,
            offsets,
            neighbors,
            half_edge_ids,
            edges,
        ))
    }
}

/// Build a graph directly from an edge list.
pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, BuildError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

/// Build a CSR [`Graph`] by **streaming** a sorted edge sequence straight
/// into the final layout, without ever materializing an intermediate edge
/// list — the memory-scaling path for million-node generators.
///
/// `stream` is invoked exactly twice with an `emit(u, v)` sink and must
/// replay the identical sequence both times (deterministic generators
/// re-run their seeded sampling): pass 1 counts degrees and validates,
/// pass 2 fills the CSR arrays in place. The sequence must be emitted in
/// **strictly increasing lexicographic order** with `u < v` per edge —
/// exactly the order [`GraphBuilder::build`] sorts into — so edge ids,
/// adjacency order (each node's down-neighbors arrive before its
/// up-neighbors, both ascending), and therefore every downstream seeded
/// experiment byte-match the builder path. Equivalence is pinned by the
/// generator tests.
///
/// Size guards run *before* any `O(m)` allocation: an oversized stream
/// returns [`BuildError::TooLarge`] instead of OOM-aborting, and
/// out-of-range/self-loop/unsorted emissions surface as typed errors from
/// the counting pass.
pub fn from_sorted_edge_stream<F>(n: usize, mut stream: F) -> Result<Graph, BuildError>
where
    F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
{
    if n > MAX_NODES {
        return Err(BuildError::TooLarge { nodes: n, edges: 0 });
    }

    // Pass 1: count degrees, validate order and ranges. The only
    // allocation is the O(n) degree table.
    let mut deg = vec![0u32; n];
    let mut m = 0usize;
    let mut prev: Option<(NodeId, NodeId)> = None;
    let mut error: Option<BuildError> = None;
    stream(&mut |u, v| {
        if error.is_some() {
            return; // fail-closed: first error wins, rest of the stream is drained
        }
        if u == v {
            error = Some(BuildError::SelfLoop(u));
            return;
        }
        if u > v || prev.is_some_and(|p| p >= (u, v)) {
            // An unsorted stream is a generator bug, but it must not
            // silently mis-assign edge ids; report it as out-of-contract.
            panic!("from_sorted_edge_stream: edges must be strictly increasing (u < v), got ({u}, {v}) after {prev:?}");
        }
        for w in [u, v] {
            if (w as usize) >= n {
                error = Some(BuildError::NodeOutOfRange { node: w, n });
                return;
            }
        }
        if m >= MAX_EDGES {
            error = Some(BuildError::TooLarge {
                nodes: n,
                edges: m.saturating_add(1),
            });
            return;
        }
        prev = Some((u, v));
        m += 1;
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }

    // Prefix sums; `2m <= u32::MAX` is guaranteed by the MAX_EDGES guard,
    // and the accumulator is checked anyway (belt and braces).
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in &deg {
        acc = match acc.checked_add(d as usize) {
            Some(a) => a,
            None => return Err(BuildError::TooLarge { nodes: n, edges: m }),
        };
        offsets.push(acc);
    }
    drop(deg);

    // Pass 2: fill the final arrays in place. The write cursors reuse the
    // offsets table cloned once (O(n)); the stream's order contract makes
    // each adjacency list come out sorted without a per-node sort.
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0 as NodeId; acc];
    let mut half_edge_ids = vec![0 as EdgeId; acc];
    let mut endpoints = Vec::with_capacity(m);
    stream(&mut |u, v| {
        let e = endpoints.len();
        assert!(e < m, "stream emitted more edges on pass 2 than pass 1");
        let e32 = e as EdgeId;
        let cu = &mut cursor[u as usize];
        neighbors[*cu] = v;
        half_edge_ids[*cu] = e32;
        *cu += 1;
        let cv = &mut cursor[v as usize];
        neighbors[*cv] = u;
        half_edge_ids[*cv] = e32;
        *cv += 1;
        endpoints.push((u, v));
    });
    assert_eq!(
        endpoints.len(),
        m,
        "stream emitted fewer edges on pass 2 than pass 1"
    );
    Ok(Graph::from_parts(
        n,
        offsets,
        neighbors,
        half_edge_ids,
        endpoints,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let g = from_edges(3, &[(2, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            from_edges(2, &[(1, 1)]).unwrap_err(),
            BuildError::SelfLoop(1)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            from_edges(2, &[(0, 5)]).unwrap_err(),
            BuildError::NodeOutOfRange { node: 5, n: 2 }
        ));
    }

    #[test]
    fn error_is_sticky_until_build() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1);
        assert!(b.build().is_err());
        // Builder is reusable after the error was reported.
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap().num_edges(), 1);
    }

    #[test]
    fn degrees_match_edge_list() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn oversized_builder_graph_is_rejected() {
        let mut b = GraphBuilder::new(MAX_NODES + 1);
        b.add_edge(0, 1);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::TooLarge { edges: 1, .. }
        ));
    }

    /// Streaming a sorted edge sequence must produce the exact graph the
    /// sort-then-build path does — same edge ids, same adjacency layout.
    #[test]
    fn stream_matches_from_edges() {
        let edges: &[(NodeId, NodeId)] = &[(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)];
        let streamed = from_sorted_edge_stream(5, |emit| {
            for &(u, v) in edges {
                emit(u, v);
            }
        })
        .unwrap();
        assert_eq!(streamed, from_edges(5, edges).unwrap());
        let empty = from_sorted_edge_stream(4, |_emit| {}).unwrap();
        assert_eq!(empty, from_edges(4, &[]).unwrap());
    }

    #[test]
    fn stream_validates_endpoints() {
        assert_eq!(
            from_sorted_edge_stream(3, |emit| emit(1, 1)).unwrap_err(),
            BuildError::SelfLoop(1)
        );
        assert!(matches!(
            from_sorted_edge_stream(3, |emit| emit(0, 7)).unwrap_err(),
            BuildError::NodeOutOfRange { node: 7, n: 3 }
        ));
        assert!(matches!(
            from_sorted_edge_stream(MAX_NODES + 1, |_emit| {}).unwrap_err(),
            BuildError::TooLarge { edges: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn stream_rejects_unsorted_emission() {
        let _ = from_sorted_edge_stream(4, |emit| {
            emit(1, 2);
            emit(0, 3);
        });
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn stream_rejects_duplicate_emission() {
        let _ = from_sorted_edge_stream(4, |emit| {
            emit(1, 2);
            emit(1, 2);
        });
    }
}

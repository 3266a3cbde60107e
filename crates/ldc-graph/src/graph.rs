//! CSR-encoded simple undirected graphs with stable edge identifiers.

use std::fmt;

/// Identifier of a node; nodes of an `n`-node graph are `0..n`.
pub type NodeId = u32;

/// Identifier of an (undirected) edge; edges of an `m`-edge graph are `0..m`.
pub type EdgeId = u32;

/// An immutable simple undirected graph in compressed-sparse-row form.
///
/// Invariants (checked at construction time by [`crate::GraphBuilder`]):
/// no self-loops, no parallel edges, adjacency lists sorted by neighbor id.
/// Every undirected edge `{u, v}` has a single [`EdgeId`] shared by both of
/// its half-edges, so per-edge data (orientations, message accounting) can
/// be stored in arrays of length [`Graph::num_edges`].
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists, length `2m`.
    neighbors: Vec<NodeId>,
    /// For each half-edge (parallel to `neighbors`), the id of its edge.
    half_edge_ids: Vec<EdgeId>,
    /// Endpoints of each edge with `endpoints[e].0 < endpoints[e].1`.
    endpoints: Vec<(NodeId, NodeId)>,
}

impl Graph {
    pub(crate) fn from_parts(
        n: usize,
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        half_edge_ids: Vec<EdgeId>,
        endpoints: Vec<(NodeId, NodeId)>,
    ) -> Self {
        Graph {
            n,
            offsets,
            neighbors,
            half_edge_ids,
            endpoints,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ` of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Edge ids incident to `v`, parallel to [`Graph::neighbors`].
    #[inline]
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        let v = v as usize;
        &self.half_edge_ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e as usize]
    }

    /// Iterate over all edges as `(edge id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n as NodeId
    }

    /// Whether `{u, v}` is an edge (binary search; `O(log deg)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The edge id of `{u, v}` if it exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.incident_edges(u)[pos])
    }

    /// Position of `v` in `u`'s adjacency list (its *port number* from `u`).
    pub fn port_of(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.neighbors(u).binary_search(&v).ok()
    }

    /// The other endpoint of edge `e` as seen from `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else if v == b {
            a
        } else {
            panic!("node {v} is not an endpoint of edge {e}");
        }
    }

    /// Sum of degrees (= `2m`).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// The subgraph induced by `keep` (as a predicate over nodes), along
    /// with the mapping from new node ids to original ids.
    ///
    /// Nodes are renumbered in increasing order of their original id.
    pub fn induced_subgraph<F: Fn(NodeId) -> bool>(&self, keep: F) -> (Graph, Vec<NodeId>) {
        let mut old_of_new = Vec::new();
        let mut new_of_old = vec![NodeId::MAX; self.n];
        for v in self.nodes() {
            if keep(v) {
                new_of_old[v as usize] = old_of_new.len() as NodeId;
                old_of_new.push(v);
            }
        }
        let mut b = crate::GraphBuilder::new(old_of_new.len());
        for (_, u, v) in self.edges() {
            let (nu, nv) = (new_of_old[u as usize], new_of_old[v as usize]);
            if nu != NodeId::MAX && nv != NodeId::MAX {
                b.add_edge(nu, nv);
            }
        }
        (
            b.build()
                .expect("induced subgraph of a valid graph is valid"),
            old_of_new,
        )
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.n)
            .field("edges", &self.num_edges())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build().unwrap()
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sum(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn edge_ids_are_shared_between_half_edges() {
        let g = triangle();
        for (e, u, v) in g.edges() {
            assert_eq!(g.edge_id(u, v), Some(e));
            assert_eq!(g.edge_id(v, u), Some(e));
            assert_eq!(g.other_endpoint(e, u), v);
            assert_eq!(g.other_endpoint(e, v), u);
            assert!(u < v);
        }
    }

    #[test]
    fn has_edge_and_ports() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 0);
        let g = b.build().unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(3, 3));
        assert_eq!(g.port_of(0, 2), Some(1));
        assert_eq!(g.port_of(0, 3), None);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = triangle();
        let (h, map) = g.induced_subgraph(|v| v != 1);
        assert_eq!(h.num_nodes(), 2);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(map, vec![0, 2]);
        assert!(h.has_edge(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_id(0, 1).unwrap();
        g.other_endpoint(e, 2);
    }
}

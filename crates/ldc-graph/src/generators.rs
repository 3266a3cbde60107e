//! Deterministic, seedable graph generators.
//!
//! Every random family takes an explicit `seed`; the same `(parameters,
//! seed)` pair always yields the same graph, on every platform, so the
//! experiment tables in `EXPERIMENTS.md` are reproducible bit-for-bit.

use crate::builder::{from_edges, from_sorted_edge_stream, BuildError, GraphBuilder, MAX_EDGES};
use crate::graph::{Graph, NodeId};
use ldc_rand::Rng;

fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// The `n`-cycle (ring network of Linial's lower bound), `n >= 3`.
///
/// Streams edges straight into the final CSR (never materializes an edge
/// list), so multi-million-node rings cost one `O(n)` pass plus the graph
/// itself. Byte-identical to the historical builder path: emission order
/// `(0,1), (0,n-1), (1,2), …, (n-2,n-1)` is exactly what sorting the
/// normalized cycle edges produces, so edge ids match.
pub fn try_ring(n: usize) -> Result<Graph, BuildError> {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    if n > MAX_EDGES {
        // n nodes ⇒ n edges; half-edge slots (2n) must fit u32.
        return Err(BuildError::TooLarge { nodes: n, edges: n });
    }
    from_sorted_edge_stream(n, |emit| {
        emit(0, 1);
        emit(0, (n - 1) as NodeId);
        for v in 1..(n - 1) {
            emit(v as NodeId, (v + 1) as NodeId);
        }
    })
}

/// Panicking convenience wrapper around [`try_ring`].
pub fn ring(n: usize) -> Graph {
    try_ring(n).expect("ring fits the u32 id space")
}

/// The path on `n` nodes.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    b.build().expect("path is simple")
}

/// The complete graph `K_n` (the tight instance for the existence lemmas).
///
/// Checks `n(n-1)/2 ≤ MAX_EDGES` with checked arithmetic *before* any
/// allocation — a huge `n` returns [`BuildError::TooLarge`] instead of
/// OOM-aborting — then streams the pairs in lexicographic order into the
/// final CSR.
pub fn try_complete(n: usize) -> Result<Graph, BuildError> {
    let m = match n.checked_mul(n.saturating_sub(1)) {
        Some(nn) => nn / 2,
        None => usize::MAX, // the count itself overflowed
    };
    if m > MAX_EDGES {
        return Err(BuildError::TooLarge { nodes: n, edges: m });
    }
    from_sorted_edge_stream(n, |emit| {
        for u in 0..n {
            for v in (u + 1)..n {
                emit(u as NodeId, v as NodeId);
            }
        }
    })
}

/// Panicking convenience wrapper around [`try_complete`].
pub fn complete(n: usize) -> Graph {
    try_complete(n).expect("clique fits the u32 id space")
}

/// The star `K_{1,n-1}` centered at node 0.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n {
        b.add_edge(0, v as NodeId);
    }
    b.build().expect("star is simple")
}

/// The complete bipartite graph `K_{a,b}` (left part `0..a`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::with_capacity(a + b, a * b);
    for u in 0..a {
        for v in 0..b {
            builder.add_edge(u as NodeId, (a + v) as NodeId);
        }
    }
    builder.build().expect("complete bipartite is simple")
}

/// The complete multipartite graph with `parts` parts of `size` nodes each
/// (part `i` holds nodes `i*size .. (i+1)*size`): every pair of nodes from
/// different parts is adjacent. Same-part nodes are interchangeable, which
/// makes this the canonical dense instance with few node *types*.
///
/// Checked size arithmetic up front (typed [`BuildError::TooLarge`]
/// instead of an OOM abort), then a lexicographic stream: for each node
/// `a`, every `b > a` outside `a`'s part — the order the historical
/// sort-then-build path produced, so edge ids are byte-identical.
pub fn try_complete_multipartite(parts: usize, size: usize) -> Result<Graph, BuildError> {
    let n = parts.saturating_mul(size);
    let cross = parts
        .checked_mul(parts.saturating_sub(1))
        .map(|pp| pp / 2)
        .and_then(|pairs| pairs.checked_mul(size))
        .and_then(|ps| ps.checked_mul(size))
        .unwrap_or(usize::MAX);
    if n == usize::MAX || cross > MAX_EDGES {
        return Err(BuildError::TooLarge {
            nodes: n,
            edges: cross,
        });
    }
    from_sorted_edge_stream(n, |emit| {
        for a in 0..n {
            // b ranges over every node after a's own part; same-part
            // successors of a are exactly (a+1)..(pa+1)*size.
            let next_part = (a / size + 1) * size;
            for b in next_part..n {
                emit(a as NodeId, b as NodeId);
            }
        }
    })
}

/// Panicking convenience wrapper around [`try_complete_multipartite`].
pub fn complete_multipartite(parts: usize, size: usize) -> Graph {
    try_complete_multipartite(parts, size).expect("multipartite fits the u32 id space")
}

/// Erdős–Rényi `G(n, p)`.
///
/// Geometric skipping visits each sampled pair exactly once in strictly
/// increasing lexicographic order, which is precisely the contract of
/// [`from_sorted_edge_stream`]: the sampler is re-seeded and re-run for
/// the count and fill passes (drawing the identical sequence), so a
/// million-node `G(n, p)` never materializes an intermediate edge list.
/// Seeded graphs are byte-identical to the historical builder path.
pub fn try_gnp(n: usize, p: f64, seed: u64) -> Result<Graph, BuildError> {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if p >= 1.0 {
        return try_complete(n);
    }
    from_sorted_edge_stream(n, |emit| {
        if p <= 0.0 {
            return;
        }
        // Geometric skipping: visit each potential edge once in expectation
        // O(pn²) time. Indices are strictly increasing across the skip
        // loop, so the (row, offset) cursor advances monotonically instead
        // of rescanning rows from u = 0 per edge — unranking all m edges is
        // O(n + m) total rather than O(n·m).
        let mut r = rng(seed);
        let ln_q = (1.0 - p).ln();
        let total = n.saturating_mul(n.saturating_sub(1)) / 2;
        let mut cursor = PairCursor::new(n);
        let mut idx: usize = 0;
        loop {
            let u: f64 = r.gen_range(f64::EPSILON..1.0);
            let skip = (u.ln() / ln_q).floor() as usize;
            idx = match idx.checked_add(skip) {
                Some(i) => i,
                None => break,
            };
            if idx >= total {
                break;
            }
            let (u, v) = cursor.advance_to(idx);
            emit(u, v);
            idx += 1;
        }
    })
}

/// Panicking convenience wrapper around [`try_gnp`].
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    try_gnp(n, p, seed).expect("G(n,p) fits the u32 id space")
}

/// Map a linear index in `0..n(n-1)/2` to the pair `(u, v)`, `u < v`.
///
/// Test-only reference implementation: `gnp` uses the equivalent (asserted
/// by `pair_cursor_matches_unrank_pair_on_all_pairs`) incremental
/// [`PairCursor`], which does not rescan rows from `u = 0` per call.
#[cfg(test)]
fn unrank_pair(idx: usize, n: usize) -> (NodeId, NodeId) {
    // Row u holds (n - 1 - u) pairs.
    let mut u = 0usize;
    let mut rem = idx;
    loop {
        let row = n - 1 - u;
        if rem < row {
            return (u as NodeId, (u + 1 + rem) as NodeId);
        }
        rem -= row;
        u += 1;
    }
}

/// Incremental [`unrank_pair`]: unranks a *non-decreasing* sequence of
/// linear indices by carrying the `(row, row_start)` position between
/// calls, so a full pass over m sampled edges costs O(n + m) row steps
/// total instead of O(n) per edge.
struct PairCursor {
    n: usize,
    /// Current row `u`.
    u: usize,
    /// Linear index of pair `(u, u+1)`, the first pair of the current row.
    row_start: usize,
}

impl PairCursor {
    fn new(n: usize) -> PairCursor {
        PairCursor {
            n,
            u: 0,
            row_start: 0,
        }
    }

    /// The pair for `idx`; `idx` must be `>=` every previously passed index
    /// and `< n(n-1)/2`.
    fn advance_to(&mut self, idx: usize) -> (NodeId, NodeId) {
        debug_assert!(idx >= self.row_start, "indices must be non-decreasing");
        loop {
            let row_len = self.n - 1 - self.u;
            if idx < self.row_start + row_len {
                let rem = idx - self.row_start;
                return (self.u as NodeId, (self.u + 1 + rem) as NodeId);
            }
            self.row_start += row_len;
            self.u += 1;
        }
    }
}

/// A random `d`-regular graph via the configuration model with edge-swap
/// repair: a random perfect matching on stubs is sampled and the (few)
/// self-loops / parallel edges are removed by double-edge swaps that
/// preserve all degrees.
///
/// # Panics
/// Panics if `n * d` is odd, `d >= n`, or repair does not converge (only
/// possible for extreme `d` close to `n`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d) % 2 == 0, "n*d must be even");
    assert!(d < n, "degree must be below n");
    if d == 0 {
        return GraphBuilder::new(n).build().unwrap();
    }
    let mut r = rng(seed);
    let mut stubs: Vec<NodeId> = (0..n)
        .flat_map(|v| std::iter::repeat(v as NodeId).take(d))
        .collect();
    r.shuffle(&mut stubs);
    let mut edges: Vec<(NodeId, NodeId)> = stubs
        .chunks(2)
        .map(|p| {
            if p[0] < p[1] {
                (p[0], p[1])
            } else {
                (p[1], p[0])
            }
        })
        .collect();

    let is_bad = |edges: &[(NodeId, NodeId)],
                  seen: &std::collections::HashMap<(NodeId, NodeId), usize>,
                  i: usize| {
        let (u, v) = edges[i];
        u == v || seen[&(u, v)] > 1
    };
    let mut budget = 200usize * n * d + 10_000;
    loop {
        let mut seen: std::collections::HashMap<(NodeId, NodeId), usize> =
            std::collections::HashMap::with_capacity(edges.len());
        for &(u, v) in &edges {
            *seen.entry((u, v)).or_insert(0) += 1;
        }
        let bad: Vec<usize> = (0..edges.len())
            .filter(|&i| is_bad(&edges, &seen, i))
            .collect();
        if bad.is_empty() {
            break;
        }
        for i in bad {
            if !is_bad(&edges, &seen, i) {
                continue; // fixed as a side effect of an earlier swap
            }
            // Swap the bad edge with a uniformly random partner edge,
            // keeping `seen` consistent so acceptance checks stay exact.
            loop {
                budget = budget.checked_sub(1).unwrap_or_else(|| {
                    panic!("edge-swap repair did not converge for n={n}, d={d}")
                });
                let j = r.gen_range(0..edges.len());
                if j == i {
                    continue;
                }
                let (a, b) = edges[i];
                let (c, e) = edges[j];
                // Propose (a,c) and (b,e); accept if both are new simple edges.
                let p1 = if a < c { (a, c) } else { (c, a) };
                let p2 = if b < e { (b, e) } else { (e, b) };
                if a == c || b == e || seen.contains_key(&p1) || seen.contains_key(&p2) || p1 == p2
                {
                    continue;
                }
                for old in [edges[i], edges[j]] {
                    if let Some(cnt) = seen.get_mut(&old) {
                        *cnt -= 1;
                        if *cnt == 0 {
                            seen.remove(&old);
                        }
                    }
                }
                edges[i] = p1;
                edges[j] = p2;
                *seen.entry(p1).or_insert(0) += 1;
                *seen.entry(p2).or_insert(0) += 1;
                break;
            }
        }
        // Outer loop re-checks from scratch in case a partner edge `j` that
        // was itself bad got replaced without clearing its badness.
    }
    from_edges(n, &edges).expect("simple after repair")
}

/// 2D torus (wrap-around grid) of `rows × cols`; 4-regular when both ≥ 3.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id((r + 1) % rows, c));
            b.add_edge(id(r, c), id(r, (c + 1) % cols));
        }
    }
    b.build().expect("torus is simple")
}

/// Complete `arity`-ary tree with `n` nodes (node 0 is the root).
pub fn complete_tree(n: usize, arity: usize) -> Graph {
    assert!(arity >= 1);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v as NodeId, ((v - 1) / arity) as NodeId);
    }
    b.build().expect("tree is simple")
}

/// Preferential-attachment (Barabási–Albert style) power-law graph: start
/// from a clique on `m0 = m + 1` nodes, each new node attaches to `m`
/// distinct existing nodes chosen proportionally to degree.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is degree-biased.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.add_edge(u as NodeId, v as NodeId);
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }
    for v in (m + 1)..n {
        // Targets in draw order (not hash order), so the graph is a pure
        // function of the seed.
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[r.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v as NodeId, t);
            endpoints.push(v as NodeId);
            endpoints.push(t);
        }
    }
    b.build().expect("preferential attachment is simple")
}

/// The `dim`-dimensional hypercube (`2^dim` nodes, `dim`-regular).
pub fn hypercube(dim: u32) -> Graph {
    assert!((1..=24).contains(&dim), "dimension out of supported range");
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_capacity(n, n * dim as usize / 2);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v as NodeId, u as NodeId);
            }
        }
    }
    b.build().expect("hypercube is simple")
}

/// A random bipartite graph: parts `0..a` and `a..a+b`, each cross pair an
/// edge independently with probability `p`.
pub fn random_bipartite(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut r = rng(seed);
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in 0..b {
            if r.gen_bool(p) {
                builder.add_edge(u as NodeId, (a + v) as NodeId);
            }
        }
    }
    builder.build().expect("bipartite is simple")
}

/// The line graph `L(G)`: one node per edge of `g`, adjacent iff the edges
/// share an endpoint. Line graphs have bounded neighborhood independence —
/// the family for which the paper's color-space reduction shines.
pub fn line_graph(g: &Graph) -> Graph {
    let m = g.num_edges();
    let mut b = GraphBuilder::new(m);
    for v in g.nodes() {
        let inc = g.incident_edges(v);
        for i in 0..inc.len() {
            for j in (i + 1)..inc.len() {
                b.add_edge(inc[i], inc[j]);
            }
        }
    }
    b.build().expect("line graph is simple")
}

/// A "lollipop": clique on `k` nodes with a path of `n - k` nodes attached.
/// Mixes a dense and a sparse regime in one instance.
pub fn lollipop(n: usize, k: usize) -> Graph {
    assert!(k >= 1 && k <= n);
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    for v in k..n {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    b.build().expect("lollipop is simple")
}

/// A disjoint union of `copies` copies of `g`.
pub fn disjoint_union(g: &Graph, copies: usize) -> Graph {
    let n = g.num_nodes();
    let mut b = GraphBuilder::with_capacity(n * copies, g.num_edges() * copies);
    for c in 0..copies {
        let base = (c * n) as NodeId;
        for (_, u, v) in g.edges() {
            b.add_edge(base + u, base + v);
        }
    }
    b.build()
        .expect("disjoint union of simple graphs is simple")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_2_regular() {
        let g = ring(10);
        assert_eq!(g.num_edges(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn complete_has_all_edges() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(20, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(20, 1.0, 1).num_edges(), 190);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = gnp(50, 0.2, 42);
        let b = gnp(50, 0.2, 42);
        let c = gnp(50, 0.2, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_density_is_plausible() {
        let g = gnp(400, 0.05, 9);
        let expected = 0.05 * (400.0 * 399.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 0.25 * expected,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn unrank_pair_is_bijective_on_small_n() {
        let n = 9;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (u, v) = unrank_pair(idx, n);
            assert!(u < v && (v as usize) < n);
            assert!(seen.insert((u, v)));
        }
    }

    /// The cursor must reproduce the scan version exactly — `gnp` edge
    /// streams (and hence every seeded experiment table) depend on it.
    #[test]
    fn pair_cursor_matches_unrank_pair_on_all_pairs() {
        for n in [2usize, 3, 5, 9, 16] {
            let total = n * (n - 1) / 2;
            // Dense walk: every index in order.
            let mut cursor = PairCursor::new(n);
            for idx in 0..total {
                assert_eq!(
                    cursor.advance_to(idx),
                    unrank_pair(idx, n),
                    "n={n} idx={idx}"
                );
            }
            // Sparse walks with varied (including zero) skips, as produced
            // by geometric skipping; repeated indices are allowed.
            for skips in [&[0usize, 0, 1, 3, 7][..], &[2, 2, 5], &[total / 2]] {
                let mut cursor = PairCursor::new(n);
                let mut idx = 0usize;
                for &skip in skips {
                    idx = (idx + skip).min(total.saturating_sub(1));
                    assert_eq!(
                        cursor.advance_to(idx),
                        unrank_pair(idx, n),
                        "n={n} idx={idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_regular_is_regular() {
        for (n, d) in [(20, 3), (31, 4), (50, 6)] {
            let g = random_regular(n, d, 5);
            assert_eq!(g.num_nodes(), n);
            for v in g.nodes() {
                assert_eq!(g.degree(v), d, "node {v} in {n},{d}");
            }
        }
    }

    #[test]
    fn random_regular_zero_degree() {
        let g = random_regular(8, 0, 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert_eq!(g.num_nodes(), 20);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn tree_has_n_minus_one_edges() {
        let g = complete_tree(22, 3);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(200, 3, 11);
        assert_eq!(g.num_nodes(), 200);
        // Minimum degree is m; hubs should exceed it substantially.
        assert!(g.nodes().all(|v| g.degree(v) >= 3));
        assert!(
            g.max_degree() > 8,
            "expected a hub, max deg = {}",
            g.max_degree()
        );
    }

    #[test]
    fn preferential_attachment_is_a_function_of_the_seed() {
        for (n, m, seed) in [(200, 3, 11), (500, 2, 7), (1000, 5, 3)] {
            let a = preferential_attachment(n, m, seed);
            let b = preferential_attachment(n, m, seed);
            assert!(
                a == b,
                "n={n} m={m} seed={seed}: same seed, different graphs"
            );
        }
    }

    #[test]
    fn hypercube_is_dim_regular_and_bipartite() {
        let g = hypercube(4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 32);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        // Bipartition by popcount parity.
        for (_, u, v) in g.edges() {
            assert_ne!(u.count_ones() % 2, v.count_ones() % 2);
        }
        assert_eq!(crate::analysis::diameter(&g), 4);
    }

    #[test]
    fn random_bipartite_has_no_intra_edges() {
        let g = random_bipartite(10, 14, 0.3, 5);
        for (_, u, v) in g.edges() {
            assert!((u < 10) != (v < 10), "edge {{{u},{v}}} inside a part");
        }
        assert_eq!(random_bipartite(5, 5, 1.0, 1).num_edges(), 25);
        assert_eq!(random_bipartite(5, 5, 0.0, 1).num_edges(), 0);
    }

    #[test]
    fn line_graph_of_star_is_clique() {
        let g = star(5);
        let l = line_graph(&g);
        assert_eq!(l.num_nodes(), 4);
        assert_eq!(l.num_edges(), 6); // K4
    }

    #[test]
    fn line_graph_of_path_is_path() {
        let g = path(5);
        let l = line_graph(&g);
        assert_eq!(l.num_nodes(), 4);
        assert_eq!(l.num_edges(), 3);
        assert_eq!(l.max_degree(), 2);
    }

    #[test]
    fn complete_bipartite_degrees() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 3);
    }

    #[test]
    fn complete_multipartite_degrees() {
        let g = complete_multipartite(4, 3);
        assert_eq!(g.num_nodes(), 12);
        // Each node is adjacent to everything outside its part.
        assert_eq!(g.num_edges(), 4 * 3 / 2 * 9);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 9);
        }
        // Same-part nodes are non-adjacent, cross-part nodes adjacent.
        assert!(!g.neighbors(0).contains(&1));
        assert!(g.neighbors(0).contains(&3));
        // Degenerate shapes.
        assert_eq!(complete_multipartite(1, 5).num_edges(), 0);
        assert_eq!(complete_multipartite(3, 1).num_edges(), 3);
    }

    /// Streaming generators must stay byte-identical to the historical
    /// sort-then-build path — every seeded experiment table depends on
    /// edge ids and adjacency order not shifting. The references below are
    /// the pre-streaming generator bodies, inlined.
    #[test]
    fn streamed_ring_matches_builder_path() {
        for n in [3usize, 4, 7, 64] {
            let mut b = GraphBuilder::with_capacity(n, n);
            for v in 0..n {
                b.add_edge(v as NodeId, ((v + 1) % n) as NodeId);
            }
            assert_eq!(ring(n), b.build().unwrap(), "ring({n})");
        }
    }

    #[test]
    fn streamed_complete_matches_builder_path() {
        for n in [0usize, 1, 2, 9, 40] {
            let mut b = GraphBuilder::with_capacity(n, n * n / 2);
            for u in 0..n {
                for v in (u + 1)..n {
                    b.add_edge(u as NodeId, v as NodeId);
                }
            }
            assert_eq!(complete(n), b.build().unwrap(), "complete({n})");
        }
    }

    #[test]
    fn streamed_multipartite_matches_builder_path() {
        for (parts, size) in [(1usize, 5usize), (3, 1), (4, 3), (2, 10), (5, 7)] {
            let mut b = GraphBuilder::new(parts * size);
            for pu in 0..parts {
                for pv in (pu + 1)..parts {
                    for u in 0..size {
                        for v in 0..size {
                            b.add_edge((pu * size + u) as NodeId, (pv * size + v) as NodeId);
                        }
                    }
                }
            }
            assert_eq!(
                complete_multipartite(parts, size),
                b.build().unwrap(),
                "multipartite({parts},{size})"
            );
        }
    }

    #[test]
    fn streamed_gnp_matches_builder_path() {
        for (n, p, seed) in [
            (50usize, 0.2f64, 42u64),
            (200, 0.05, 9),
            (30, 0.9, 7),
            (20, 0.0, 1),
        ] {
            let mut r = rng(seed);
            let mut b = GraphBuilder::new(n);
            if p > 0.0 {
                let ln_q = (1.0 - p).ln();
                let total = n * (n - 1) / 2;
                let mut idx = 0usize;
                loop {
                    let u: f64 = r.gen_range(f64::EPSILON..1.0);
                    idx += (u.ln() / ln_q).floor() as usize;
                    if idx >= total {
                        break;
                    }
                    let (u, v) = unrank_pair(idx, n);
                    b.add_edge(u, v);
                    idx += 1;
                }
            }
            assert_eq!(gnp(n, p, seed), b.build().unwrap(), "gnp({n},{p},{seed})");
        }
    }

    /// Oversized requests must come back as typed errors *before* any
    /// proportional allocation, not OOM-abort. The boundary is
    /// `MAX_EDGES = u32::MAX / 2` (half-edge slots are u32-indexed).
    #[test]
    fn oversized_generators_return_too_large() {
        use crate::builder::MAX_EDGES;
        // K_65536 has 2_147_450_880 ≤ MAX_EDGES pairs; K_65537 crosses it.
        const _: () = assert!(65_537usize * 65_536 / 2 > MAX_EDGES);
        assert!(matches!(
            try_complete(65_537),
            Err(BuildError::TooLarge { nodes: 65_537, .. })
        ));
        // n(n-1) overflows usize entirely.
        assert!(matches!(
            try_complete(usize::MAX),
            Err(BuildError::TooLarge { .. })
        ));
        // 46_342² cross edges > MAX_EDGES.
        assert!(matches!(
            try_complete_multipartite(2, 46_342),
            Err(BuildError::TooLarge { .. })
        ));
        assert!(matches!(
            try_complete_multipartite(usize::MAX, 2),
            Err(BuildError::TooLarge { .. })
        ));
        // A ring needs 2n half-edge slots.
        assert!(matches!(
            try_ring(MAX_EDGES + 1),
            Err(BuildError::TooLarge { .. })
        ));
        // gnp guards the node-id space before allocating its degree table,
        // and p = 1 routes through the complete() guard.
        assert!(matches!(
            try_gnp(u32::MAX as usize + 1, 0.5, 1),
            Err(BuildError::TooLarge { .. })
        ));
        assert!(matches!(
            try_gnp(65_537, 1.0, 1),
            Err(BuildError::TooLarge { .. })
        ));
        // Small instances still succeed through the same paths.
        assert_eq!(try_complete(5).unwrap().num_edges(), 10);
        assert_eq!(try_ring(5).unwrap().num_edges(), 5);
        assert_eq!(try_complete_multipartite(2, 2).unwrap().num_edges(), 4);
        assert_eq!(try_gnp(10, 0.0, 1).unwrap().num_edges(), 0);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(10, 4);
        assert_eq!(g.num_edges(), 6 + 6);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(3), 4); // in clique + path attach
    }

    #[test]
    fn disjoint_union_scales() {
        let g = disjoint_union(&ring(5), 3);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_edges(), 15);
        assert!(!g.has_edge(4, 5));
    }
}

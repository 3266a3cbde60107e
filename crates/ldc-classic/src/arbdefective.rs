//! A `d`-arbdefective `q`-coloring substrate.
//!
//! Interface of \[BEG18\] (used by the paper's Theorem 1.3): partition the
//! nodes into `q` *buckets* together with an edge orientation such that
//! every node has at most `d` out-neighbors in its own bucket.
//!
//! Per DESIGN.md §S3 this implementation substitutes BEG18's
//! locally-iterative technique with an equally correct two-step scheme:
//!
//! 1. Kuhn's `⌊d/2⌋`-defective coloring (`O(log* n)` rounds,
//!    `c₀ = O((Δ/(d+1))²)` classes), then
//! 2. a sequential sweep over the defective classes (`c₀` rounds): when a
//!    node's class is processed it joins the bucket currently least used
//!    among its already-decided neighbors, and edges are oriented from
//!    later- to earlier-deciding endpoints (ties by node id).
//!
//! With `q ≥ 4Δ/(d+1)` the pigeonhole argument bounds the same-bucket
//! out-degree by `⌊(d+1)/4⌋ + ⌊d/2⌋ ≤ d`. The faster
//! `Õ(√(Δ/(d+1)))`-round route is `ldc-core`'s Theorem 1.3 bootstrap,
//! which uses this substrate only at the base of its recursion.

use crate::linial::defective_coloring;
use crate::ClassicError;
use ldc_graph::orientation::EdgeDir;
use ldc_graph::{Graph, Orientation, ProperColoring};
use ldc_sim::{Network, SimError};

/// Result of an arbdefective coloring: buckets plus an orientation.
#[derive(Debug, Clone)]
pub struct ArbdefectiveColoring {
    /// Per-node bucket in `0..q`.
    pub buckets: Vec<u64>,
    /// Number of buckets.
    pub q: u64,
    /// Arbdefect budget `d`.
    pub arbdefect: u64,
    /// Orientation witnessing the arbdefect bound.
    pub orientation: Orientation,
}

impl ArbdefectiveColoring {
    /// Exact check: every node has at most `arbdefect` out-neighbors in its
    /// own bucket.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.buckets.len() != g.num_nodes() {
            return Err("wrong number of buckets".into());
        }
        for v in g.nodes() {
            let b = self.buckets[v as usize];
            if b >= self.q {
                return Err(format!("node {v} bucket {b} out of range 0..{}", self.q));
            }
            let mut out_same = 0u64;
            for &e in g.incident_edges(v) {
                let u = g.other_endpoint(e, v);
                if self.orientation.is_out(g, e, v) && self.buckets[u as usize] == b {
                    out_same += 1;
                }
            }
            if out_same > self.arbdefect {
                return Err(format!(
                    "node {v} has {out_same} same-bucket out-neighbors > arbdefect {}",
                    self.arbdefect
                ));
            }
        }
        Ok(())
    }

    /// The smallest bucket count this implementation supports for a graph
    /// of maximum degree `delta` and arbdefect `d`.
    pub fn min_buckets(delta: u64, d: u64) -> u64 {
        ((4 * delta).div_ceil(d + 1)).max(1)
    }
}

#[derive(Clone)]
struct NodeState {
    class: u64,
    bucket: Option<u64>,
    decide_round: u64,
    /// How many decided neighbors sit in each bucket.
    neighbor_bucket_counts: Vec<u64>,
}

/// Compute a `d`-arbdefective `q`-coloring in `O((Δ/(d+1))² + log* n)`
/// rounds. `q` must be at least [`ArbdefectiveColoring::min_buckets`].
///
/// # Errors
/// Propagates simulator errors (CONGEST violations).
///
/// # Panics
/// Panics if `q` is below the supported minimum.
pub fn sequential_arbdefective(
    net: &mut Network<'_>,
    initial: Option<&ProperColoring>,
    d: u64,
    q: u64,
) -> Result<ArbdefectiveColoring, ClassicError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    let min_q = ArbdefectiveColoring::min_buckets(delta, d);
    assert!(
        q >= min_q,
        "q = {q} buckets insufficient: need at least {min_q} for Δ = {delta}, d = {d}"
    );
    let def = defective_coloring(net, initial, d / 2)?;
    let c0 = def.palette;

    let mut states: Vec<NodeState> = g
        .nodes()
        .map(|v| NodeState {
            class: def.colors[v as usize],
            bucket: None,
            decide_round: 0,
            neighbor_bucket_counts: vec![0; q as usize],
        })
        .collect();

    for t in 0..c0 {
        // Nodes of class t decide now, based on decisions heard so far, and
        // announce their bucket; everyone updates neighbor counts.
        for s in states.iter_mut() {
            if s.class == t {
                let b = (0..q)
                    .min_by_key(|&b| s.neighbor_bucket_counts[b as usize])
                    .expect("q >= 1");
                s.bucket = Some(b);
                s.decide_round = t;
            }
        }
        net.broadcast_exchange(
            &mut states,
            |_, s| {
                if s.class == t {
                    Some(s.bucket.expect("just decided"))
                } else {
                    None
                }
            },
            |_, s, inbox| {
                for (_, &b) in inbox.iter() {
                    s.neighbor_bucket_counts[b as usize] += 1;
                }
            },
        )?;
    }

    let buckets: Vec<u64> = states
        .iter()
        .map(|s| s.bucket.expect("all classes processed"))
        .collect();
    // Orient each edge from the later-deciding endpoint to the earlier one
    // (ties broken toward the smaller id), witnessing the arbdefect bound.
    let later = |v: u32| (states[v as usize].decide_round, v);
    let dirs: Vec<EdgeDir> = g
        .edges()
        .map(|(_, u, v)| {
            // Forward means u -> v (tail u); we want tail = later endpoint.
            if later(u) > later(v) {
                EdgeDir::Forward
            } else {
                EdgeDir::Backward
            }
        })
        .collect();
    let orientation = Orientation::from_dirs(g, dirs);
    let out = ArbdefectiveColoring {
        buckets,
        q,
        arbdefect: d,
        orientation,
    };
    debug_assert!(out.validate(g).is_ok(), "{:?}", out.validate(g));
    Ok(out)
}

/// Randomized `d`-arbdefective `q`-coloring in `O(log n)` rounds w.h.p.
/// (seeded, deterministic given the seed).
///
/// Every unsettled node draws a uniform bucket; it *settles* if its
/// same-bucket out-degree — toward already-settled neighbors and same-round
/// neighbors of smaller id (the orientation is "later/larger → earlier/
/// smaller") — is at most `d`. Settled nodes can never be violated later
/// because later settlers point *toward* them. Needs `q·(d+1) ≥ 2Δ` for
/// constant per-round settle probability.
///
/// This is the fast substrate option for the shape experiments (DESIGN.md
/// §S3); outputs satisfy exactly the same contract as
/// [`sequential_arbdefective`] and are validated by the same checker.
pub fn randomized_arbdefective(
    net: &mut Network<'_>,
    d: u64,
    q: u64,
    seed: u64,
) -> Result<ArbdefectiveColoring, SimError> {
    let g = net.graph();
    let delta = g.max_degree() as u64;
    assert!(
        q * (d + 1) >= 2 * delta.max(1),
        "need q(d+1) ≥ 2Δ for convergence"
    );

    #[derive(Clone)]
    struct S {
        rng: ldc_rand::Rng,
        draw: u64,
        settled: bool,
        settle_round: u64,
        nb_bucket: Vec<Option<(u64, bool)>>, // (bucket, settled?)
    }
    let mut states: Vec<S> = g
        .nodes()
        .map(|v| S {
            rng: ldc_rand::Rng::seed_from_u64(
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(u64::from(v) + 1)),
            ),
            draw: 0,
            settled: false,
            settle_round: 0,
            nb_bucket: vec![None; g.degree(v)],
        })
        .collect();

    let mut round = 0u64;
    loop {
        round += 1;
        assert!(round < 64 * 64, "randomized arbdefective did not converge");
        for s in states.iter_mut().filter(|s| !s.settled) {
            s.draw = s.rng.gen_range(0..q);
        }
        net.broadcast_exchange(
            &mut states,
            |_, s| Some((s.draw, s.settled)),
            |v, s, inbox| {
                for (p, &(b, settled)) in inbox.iter() {
                    s.nb_bucket[p] = Some((b, settled));
                }
                if s.settled {
                    return;
                }
                // Out-edges: settled neighbors, plus same-round unsettled
                // neighbors with smaller id.
                let mut out_same = 0u64;
                for (p, &u) in g.neighbors(v).iter().enumerate() {
                    if let Some((b, settled)) = s.nb_bucket[p] {
                        if b == s.draw && (settled || u < v) {
                            out_same += 1;
                        }
                    }
                }
                if out_same <= d {
                    s.settled = true;
                    s.settle_round = round;
                }
            },
        )?;
        if states.iter().all(|s| s.settled) {
            break;
        }
    }

    let buckets: Vec<u64> = states.iter().map(|s| s.draw).collect();
    // Orientation: later settle round → earlier; ties toward the smaller id
    // (matching the settling rule above).
    let later = |v: u32| (states[v as usize].settle_round, v);
    let dirs: Vec<EdgeDir> = g
        .edges()
        .map(|(_, u, v)| {
            if later(u) > later(v) {
                EdgeDir::Forward
            } else {
                EdgeDir::Backward
            }
        })
        .collect();
    let orientation = Orientation::from_dirs(g, dirs);
    let out = ArbdefectiveColoring {
        buckets,
        q,
        arbdefect: d,
        orientation,
    };
    debug_assert!(out.validate(g).is_ok(), "{:?}", out.validate(g));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_graph::generators;
    use ldc_sim::Bandwidth;

    fn check(g: &Graph, d: u64) {
        let q = ArbdefectiveColoring::min_buckets(g.max_degree() as u64, d);
        let mut net = Network::new(g, Bandwidth::Local);
        let a = sequential_arbdefective(&mut net, None, d, q).unwrap();
        a.validate(g).unwrap();
        assert_eq!(a.q, q);
    }

    #[test]
    fn arbdefective_on_regular_graphs() {
        for d in [0u64, 1, 2, 5] {
            check(&generators::random_regular(200, 8, 3), d);
        }
    }

    #[test]
    fn arbdefective_on_clique() {
        for d in [0u64, 3, 10] {
            check(&generators::complete(24), d);
        }
    }

    #[test]
    fn arbdefective_on_gnp() {
        check(&generators::gnp(300, 0.05, 17), 3);
    }

    #[test]
    fn zero_arbdefect_buckets_are_independent_given_orientation() {
        let g = generators::torus(8, 8);
        let mut net = Network::new(&g, Bandwidth::Local);
        let q = ArbdefectiveColoring::min_buckets(4, 0);
        let a = sequential_arbdefective(&mut net, None, 0, q).unwrap();
        // d = 0: *oriented* same-bucket degree is 0, i.e. buckets are
        // independent sets (every same-bucket edge would be out for one side).
        for (_, u, v) in g.edges() {
            assert_ne!(a.buckets[u as usize], a.buckets[v as usize]);
        }
    }

    #[test]
    fn round_complexity_is_classes_plus_logstar() {
        let g = generators::random_regular(500, 10, 9);
        let d = 4;
        let q = ArbdefectiveColoring::min_buckets(10, d);
        let mut net = Network::new(&g, Bandwidth::congest_log(500, 8));
        sequential_arbdefective(&mut net, None, d, q).unwrap();
        // c₀ is O((Δ/(d+1))²) = O(4); plus a handful of Linial rounds.
        assert!(net.rounds() < 200, "rounds = {}", net.rounds());
    }

    #[test]
    fn randomized_matches_contract() {
        for (d, seed) in [(0u64, 1u64), (2, 2), (5, 3)] {
            let g = generators::random_regular(200, 10, seed);
            let q = (2 * 10u64).div_ceil(d + 1).max(2);
            let mut net = Network::new(&g, Bandwidth::congest_log(200, 4));
            let a = randomized_arbdefective(&mut net, d, q, 77 + seed).unwrap();
            a.validate(&g).unwrap();
            assert!(net.rounds() <= 64, "rounds {}", net.rounds());
        }
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let g = generators::gnp(120, 0.06, 5);
        let delta = g.max_degree() as u64;
        let run = |seed| {
            let mut net = Network::new(&g, Bandwidth::Local);
            randomized_arbdefective(&mut net, 1, delta.max(1), seed)
                .unwrap()
                .buckets
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "buckets insufficient")]
    fn too_few_buckets_panics() {
        let g = generators::complete(10);
        let mut net = Network::new(&g, Bandwidth::Local);
        let _ = sequential_arbdefective(&mut net, None, 0, 2);
    }
}

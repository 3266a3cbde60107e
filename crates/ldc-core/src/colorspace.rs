//! **Theorem 1.2** — recursive color-space reduction — and its two
//! corollaries (time: Cor 4.1, message size: Cor 4.2).
//!
//! Given any OLDC solver `𝒜` that needs defect mass
//! `Σ(d+1)^{1+ν} ≥ β^{1+ν}·κ(Λ)`, partitioning the color space `𝒞` into
//! `p` blocks and letting an *auxiliary* OLDC instance over `[p]` choose
//! each node's block yields a solver `𝒜'` that needs mass
//! `β^{1+ν}·κ(p)^{⌈log_p|𝒞|⌉}`, runs in `O(T(p)·log_p|𝒞|)` rounds, and —
//! crucially for CONGEST — only ever ships messages sized for a `p`-color
//! space (`M(p)` bits).
//!
//! Nodes that picked different blocks can never conflict (their remaining
//! lists are disjoint), which this implementation realizes through the
//! engine's *group* mechanism: the group id is refined by the chosen block
//! at every level.

use crate::ctx::{span as spans, CoreError, OldcCtx};
use crate::kernels::{KernelConfig, KernelStats};
use crate::oldc::solve_oldc;
use crate::problem::{Color, DefectList};
use ldc_sim::Network;

/// An abstract OLDC solver, the `𝒜` of Theorem 1.2.
pub trait OldcSolver: Sync {
    /// Solve the instance on the context's active/group scope; returns one
    /// color per node (`None` for inactive nodes) and folds the solve's
    /// kernel cache statistics into `kernels` (solvers without a
    /// [`crate::kernels::TypeCache`] underneath add nothing).
    fn solve(
        &self,
        net: &mut Network<'_>,
        ctx: &OldcCtx<'_, '_>,
        lists: &[DefectList],
        kernels: &mut KernelStats,
    ) -> Result<Vec<Option<Color>>, CoreError>;
}

/// Theorem 1.1's algorithm as a solver (the `𝒜` used by Theorem 1.4),
/// run under one [`KernelConfig`]: kernel mode, worker threads for the
/// batched solver phases, optional [`crate::kernels::SharedTypeCache`].
/// Colors, rounds, and bits are byte-identical for every configuration;
/// only wall-clock (threads), recomputation (shared cache), and the
/// cache counters (reference mode memoizes nothing) change. `Default` is
/// the fast, sequential, private-cache solver.
#[derive(Debug, Clone, Default)]
pub struct Theorem11Solver {
    /// How the solve runs its kernels.
    pub kernels: KernelConfig,
}

impl OldcSolver for Theorem11Solver {
    fn solve(
        &self,
        net: &mut Network<'_>,
        ctx: &OldcCtx<'_, '_>,
        lists: &[DefectList],
        kernels: &mut KernelStats,
    ) -> Result<Vec<Option<Color>>, CoreError> {
        let out = solve_oldc(net, ctx, lists, &self.kernels)?;
        kernels.absorb(&out.stats.kernels);
        Ok(out.colors)
    }
}

/// Configuration of the recursion.
#[derive(Debug, Clone, Copy)]
pub struct ReductionConfig {
    /// Block count `p ∈ (1, |𝒞|]` per level.
    pub p: u64,
    /// The solver's condition exponent `ν ≥ 0` (Theorem 1.1 has `ν = 1`).
    pub nu: f64,
    /// The solver's `κ(p)` — how much defect mass per `β^{1+ν}` the inner
    /// solver needs on a `p`-color space. Used to apportion the auxiliary
    /// defects `β_{v,i}`.
    pub kappa_p: f64,
}

/// Theorem 1.2: solve an OLDC instance over a large color space by
/// recursively choosing color-space blocks with `inner`, then solving the
/// final `≤ p`-color instances with `inner` as well.
///
/// All blocks proceed *in parallel* (they are independent after group
/// refinement), so the round complexity is `O(T(p)·⌈log_p |𝒞|⌉)`. Every
/// inner solve's kernel cache statistics — auxiliary block choices and
/// the base solve alike — fold into `kernels`.
pub fn reduce_color_space<S: OldcSolver>(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    lists: &[DefectList],
    cfg: ReductionConfig,
    inner: &S,
    kernels: &mut KernelStats,
) -> Result<Vec<Option<Color>>, CoreError> {
    assert!(cfg.p >= 2, "need at least two blocks per level");
    let n = ctx.view.graph().num_nodes();
    assert_eq!(lists.len(), n);

    // Number of levels k with p^k ≥ |𝒞|.
    let mut levels = 0u32;
    {
        let mut cap = 1u128;
        while cap < u128::from(ctx.space) {
            cap = cap.saturating_mul(u128::from(cfg.p));
            levels += 1;
        }
    }
    if levels <= 1 {
        return inner.solve(net, ctx, lists, kernels);
    }
    let tracer = net.tracer().clone();
    let _thm12 = tracer.span(spans::THM12);
    tracer.set_max(spans::CTR_RECURSION_DEPTH, u64::from(levels));

    // Mutable recursion state.
    let mut cur_lists: Vec<DefectList> = lists.to_vec();
    let mut offset: Vec<u64> = vec![0; n]; // block base in absolute colors
    let mut group: Vec<u64> = ctx.group.to_vec();
    let mut span: Vec<u64> = vec![ctx.space; n]; // current block width

    for level in (1..levels).rev() {
        let _lvl = tracer.span(spans::reduce_level((levels - level) as usize));
        // Each node partitions its current span into p blocks and builds the
        // auxiliary instance over [p].
        let kappa_rem = cfg.kappa_p.powi(level as i32); // κ(p)^(remaining levels)
        let mut aux_lists: Vec<DefectList> = vec![DefectList::default(); n];
        let mut block_width: Vec<u64> = vec![1; n];
        for v in 0..n {
            if !ctx.active[v] {
                continue;
            }
            let width = span[v].div_ceil(cfg.p);
            block_width[v] = width.max(1);
            let mut mass = vec![0f64; cfg.p as usize];
            for (c, d) in cur_lists[v].iter() {
                let rel = c - offset[v];
                let b = (rel / block_width[v]).min(cfg.p - 1);
                mass[b as usize] += ((d + 1) as f64).powf(1.0 + cfg.nu);
            }
            let entries: Vec<(u64, u64)> = (0..cfg.p)
                .filter(|&b| mass[b as usize] > 0.0)
                .map(|b| {
                    // β_{v,b} = ⌊(mass_b / κ_rem)^{1/(1+ν)}⌋ — the out-degree
                    // the block-b sub-instance can support.
                    let beta_b = (mass[b as usize] / kappa_rem).powf(1.0 / (1.0 + cfg.nu));
                    (b, (beta_b.floor() as u64))
                })
                .collect();
            if entries.is_empty() {
                return Err(CoreError::Precondition {
                    node: v as u32,
                    detail: "empty list during color-space reduction".into(),
                });
            }
            aux_lists[v] = DefectList::new(entries);
        }

        // Solve the auxiliary block-choice instance over [p].
        let aux_ctx = OldcCtx {
            space: cfg.p,
            group: &group,
            ..*ctx
        };
        tracer.add(spans::CTR_OLDC_CALLS, 1);
        let picks = inner.solve(net, &aux_ctx, &aux_lists, kernels)?;

        // Refine: shrink lists/spans, derive new groups.
        for v in 0..n {
            if !ctx.active[v] {
                continue;
            }
            let b = picks[v].expect("active nodes pick a block");
            let lo = offset[v] + b * block_width[v];
            let hi = (lo + block_width[v]).min(offset[v] + span[v]);
            cur_lists[v] = cur_lists[v].filtered(|c, _| c >= lo && c < hi);
            offset[v] = lo;
            span[v] = block_width[v];
            // Group refinement. Deep recursions may wrap and alias group
            // ids across branches; aliasing is harmless for validity (the
            // branches' color blocks are disjoint, so "same color" cannot
            // occur) — it only conservatively inflates the census β.
            group[v] = group[v]
                .wrapping_mul(cfg.p.wrapping_add(1))
                .wrapping_add(b + 1);
        }
    }

    // Base level: solve within each node's final block. Colors are
    // translated to block-relative values so messages are sized for a
    // `≤ p·width`-color space (Corollary 4.2's saving), then mapped back.
    let base_space = (0..n)
        .filter(|&v| ctx.active[v])
        .map(|v| span[v])
        .max()
        .unwrap_or(1);
    let translated: Vec<DefectList> = (0..n)
        .map(|v| {
            cur_lists[v]
                .iter()
                .map(|(c, d)| (c - offset[v], d))
                .collect()
        })
        .collect();
    let base_ctx = OldcCtx {
        space: base_space,
        group: &group,
        ..*ctx
    };
    let base = {
        let _base = tracer.span(spans::BASE_SOLVE);
        tracer.add(spans::CTR_OLDC_CALLS, 1);
        inner.solve(net, &base_ctx, &translated, kernels)?
    };
    Ok((0..n).map(|v| base[v].map(|c| c + offset[v])).collect())
}

/// Corollary 4.1's block-size choice: `p = 2^Θ(√(log β · log κ))`
/// balances the per-level solver cost `poly(p)` against the recursion
/// depth `log_p |𝒞|`, yielding the overall `2^{O(√(log β·log κ))}`-round
/// list coloring algorithm. Clamped into `[2, |𝒞|]`.
pub fn corollary_41_block_size(beta: u64, kappa: f64, space: u64) -> u64 {
    let log_beta = (beta.max(2) as f64).log2();
    let log_kappa = kappa.max(2.0).log2();
    let exp = (log_beta * log_kappa).sqrt().ceil();
    (2f64.powf(exp) as u64).clamp(2, space.max(2))
}

/// Corollary 4.1 end-to-end: solve with the block size
/// [`corollary_41_block_size`] picks from the instance's own parameters
/// (max β among active nodes is read from the lists' scope by one census
/// inside the reduction; here we take the caller's β estimate).
pub fn solve_with_corollary_41<S: OldcSolver>(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    lists: &[DefectList],
    beta_estimate: u64,
    nu: f64,
    kappa_of_p: impl Fn(u64) -> f64,
    inner: &S,
) -> Result<Vec<Option<Color>>, CoreError> {
    // Balance point uses κ at a provisional p, then re-evaluates once.
    let provisional = corollary_41_block_size(beta_estimate, kappa_of_p(64), ctx.space);
    let p = corollary_41_block_size(beta_estimate, kappa_of_p(provisional), ctx.space);
    let cfg = ReductionConfig {
        p,
        nu,
        kappa_p: kappa_of_p(p),
    };
    reduce_color_space(net, ctx, lists, cfg, inner, &mut KernelStats::default())
}

/// Corollary 4.2's block-size choice for message compression: the largest
/// power of two with `p ≤ |𝒞|^{1/r}`, so `r` levels cover the space and
/// every message is sized for a `p`-color block.
pub fn corollary_42_block_size(space: u64, r: u32) -> u64 {
    let root = (space.max(2) as f64).powf(1.0 / f64::from(r.max(1)));
    let p = 1u64 << (root.log2().floor() as u32).min(62);
    p.clamp(2, space.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamProfile;
    use crate::validate::validate_oldc;
    use ldc_graph::{generators, DirectedView};
    use ldc_sim::Bandwidth;

    fn uniform_oldc_lists(n: usize, space: u64, len: u64, defect: u64) -> Vec<DefectList> {
        (0..n as u64)
            .map(|v| {
                DefectList::new(
                    (0..len)
                        .map(|i| ((i * 3 + v * 7) % space, defect))
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn reduction_solves_and_respects_lists() {
        let g = generators::random_regular(80, 4, 3);
        let view = DirectedView::bidirected(&g);
        let n = 80;
        let space = 1 << 16;
        let init: Vec<u64> = (0..n as u64).collect();
        let active = vec![true; n];
        let group = vec![0u64; n];
        let profile = ParamProfile::practical_default();
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: n as u64,
            active: &active,
            group: &group,
            profile,
            seed: 21,
        };
        // Two levels at p = 256: need Σ(d+1)² ≥ β²·κ(p)² per node.
        let kappa = crate::params::practical_kappa(profile, 4, 256, n as u64);
        let lists = uniform_oldc_lists(n, space, 16384, 15);
        let mass = 16384.0 * 256.0;
        assert!(
            mass >= 16.0 * kappa * kappa,
            "test must satisfy Thm 1.2 condition"
        );
        let cfg = ReductionConfig {
            p: 256,
            nu: 1.0,
            kappa_p: kappa,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let colors = reduce_color_space(
            &mut net,
            &ctx,
            &lists,
            cfg,
            &Theorem11Solver::default(),
            &mut KernelStats::default(),
        )
        .unwrap();
        let colors: Vec<u64> = colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn reduction_shrinks_messages() {
        // Corollary 4.2's point: with p ≪ |𝒞| the candidate messages are
        // sized for p-color spaces, so the max message shrinks.
        let g = generators::random_regular(60, 4, 9);
        let view = DirectedView::bidirected(&g);
        let n = 60;
        let space = 1 << 16;
        let init: Vec<u64> = (0..n as u64).collect();
        let active = vec![true; n];
        let group = vec![0u64; n];
        let profile = ParamProfile::practical_default();
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: n as u64,
            active: &active,
            group: &group,
            profile,
            seed: 5,
        };
        // Defect 3 < β = 4 keeps nodes non-trivial, so the direct solver
        // really ships |𝒞|-sized type messages; the mass 46656·16 covers
        // two reduction levels of κ(256)².
        let lists = uniform_oldc_lists(n, space, 46656, 3);

        let mut net_direct = Network::new(&g, Bandwidth::Local);
        let direct =
            crate::oldc::solve_oldc(&mut net_direct, &ctx, &lists, &KernelConfig::default())
                .unwrap();
        let direct_colors: Vec<u64> = direct.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &direct_colors), Ok(()));

        let mut net_reduced = Network::new(&g, Bandwidth::Local);
        let kappa = crate::params::practical_kappa(profile, 4, 256, n as u64);
        let cfg = ReductionConfig {
            p: 256,
            nu: 1.0,
            kappa_p: kappa,
        };
        let reduced = reduce_color_space(
            &mut net_reduced,
            &ctx,
            &lists,
            cfg,
            &Theorem11Solver::default(),
            &mut KernelStats::default(),
        )
        .unwrap();
        let reduced_colors: Vec<u64> = reduced.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &reduced_colors), Ok(()));

        assert!(
            net_reduced.metrics().max_message_bits() < net_direct.metrics().max_message_bits(),
            "reduced {} vs direct {}",
            net_reduced.metrics().max_message_bits(),
            net_direct.metrics().max_message_bits()
        );
        // …at the cost of more rounds (the T(p)·log_p|𝒞| factor).
        assert!(net_reduced.rounds() >= net_direct.rounds());
    }

    #[test]
    fn corollary_41_grows_subpolynomially() {
        // p = 2^√(log β · log κ) sits strictly between polylog(β) and β^ε.
        let p16 = corollary_41_block_size(1 << 16, 64.0, u64::MAX >> 1);
        let p32 = corollary_41_block_size(1 << 32, 64.0, u64::MAX >> 1);
        assert!(p16 >= 2 && p32 > p16);
        // Doubling log β multiplies log p by √2, not by 2.
        let ratio = (p32 as f64).log2() / (p16 as f64).log2();
        assert!(ratio < 1.6, "log p grew by {ratio} (> √2·slack)");
        // Clamped by the space.
        assert_eq!(corollary_41_block_size(1 << 16, 64.0, 17), 17);
    }

    #[test]
    fn corollary_41_end_to_end() {
        let g = generators::random_regular(60, 4, 3);
        let view = DirectedView::bidirected(&g);
        let profile = ParamProfile::practical_default();
        let space = 1u64 << 16;
        let lists = uniform_oldc_lists(60, space, 16384, 15);
        let init: Vec<u64> = (0..60).collect();
        let active = vec![true; 60];
        let group = vec![0u64; 60];
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: 60,
            active: &active,
            group: &group,
            profile,
            seed: 6,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let colors = solve_with_corollary_41(
            &mut net,
            &ctx,
            &lists,
            4,
            1.0,
            |p| crate::params::practical_kappa(profile, 4, p, 60),
            &Theorem11Solver::default(),
        )
        .unwrap();
        let colors: Vec<u64> = colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn corollary_42_roots() {
        assert_eq!(corollary_42_block_size(1 << 16, 2), 256);
        assert_eq!(corollary_42_block_size(1 << 16, 4), 16);
        let p = corollary_42_block_size(1000, 3);
        assert!(
            p.pow(3) >= 1000 / 2,
            "p={p} cubed should cover most of 1000"
        );
        assert!(u128::from(p).pow(3) <= 8 * 1000, "p={p} not wildly over");
    }

    #[test]
    fn single_level_delegates_to_inner() {
        let g = generators::ring(16);
        let view = DirectedView::bidirected(&g);
        let init: Vec<u64> = (0..16).collect();
        let active = vec![true; 16];
        let group = vec![0u64; 16];
        let space = 256u64;
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: 16,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 2,
        };
        let lists = uniform_oldc_lists(16, space, 128, 1);
        let cfg = ReductionConfig {
            p: 256,
            nu: 1.0,
            kappa_p: 10.0,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let colors = reduce_color_space(
            &mut net,
            &ctx,
            &lists,
            cfg,
            &Theorem11Solver::default(),
            &mut KernelStats::default(),
        )
        .unwrap();
        let colors: Vec<u64> = colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }
}

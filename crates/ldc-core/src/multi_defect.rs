//! Lemma 3.6: OLDC with per-color defects, via defect bucketing.
//!
//! Rounding `β_v` up and every `d_v(x)+1` down to powers of two partitions
//! each list into buckets of equal (rounded) defect; the bucket with the
//! largest square mass `Σ (d(x)+1)²` retains at least a `1/h` fraction of
//! the total, so restricting to it reduces the problem to the single-defect
//! engine of §3.2 at the cost of the `h` factor in the list-size
//! requirement (the factor Theorem 1.1 later improves to `polyloglog β`).

use crate::ctx::{CoreError, OldcCtx};
use crate::kernels::KernelConfig;
use crate::problem::{Color, DefectList};
use crate::single_defect::{solve_single_defect, SingleDefectOutcome};
use crate::steps;
use ldc_sim::Network;

/// Round `x` down to a power of two (`x ≥ 1`).
fn prev_pow2(x: u64) -> u64 {
    debug_assert!(x >= 1);
    1u64 << (63 - x.leading_zeros())
}

/// The bucket a color with defect `d` falls into: the rounded defect value
/// `d̂ ≤ d` with `d̂+1` a power of two (also the bucket key of Lemma 3.8;
/// `d̂ ≤ d` keeps every guarantee valid for the original defects).
pub(crate) fn rounded_defect(d: u64) -> u64 {
    prev_pow2(d + 1) - 1
}

/// Outcome of [`solve_multi_defect`] — the single-defect outcome plus the
/// per-node bucket choice (for the E3 ablation).
#[derive(Debug, Clone)]
pub struct MultiDefectOutcome {
    /// The underlying engine outcome.
    pub inner: SingleDefectOutcome,
    /// The rounded defect each active node committed to.
    pub chosen_defect: Vec<u64>,
}

/// Lemma 3.6: solve an OLDC instance with per-color defects and color
/// distance `g`. For each active node the algorithm guarantees at most
/// `d_v(x_v)` active same-group out-neighbors within distance `g` of the
/// chosen color `x_v`. `cfg` configures the kernels of the underlying
/// §3.2 engine (the bucket choice itself is kernel-free).
pub fn solve_multi_defect(
    net: &mut Network<'_>,
    ctx: &OldcCtx<'_, '_>,
    lists: &[DefectList],
    g: u64,
    cfg: &KernelConfig,
) -> Result<MultiDefectOutcome, CoreError> {
    let n = ctx.view.graph().num_nodes();
    assert_eq!(lists.len(), n);

    // Census: the single-defect engine re-derives β itself, but the bucket
    // choice needs β too; we compute it the same way (one extra round).
    let beta: Vec<u64> = steps::out_counts(net, ctx)?
        .into_iter()
        .map(|c| c.max(1))
        .collect();

    // Bucket choice (0 rounds): restrict each list to the rounded-defect
    // value with the largest square mass.
    let mut sub_lists: Vec<Vec<Color>> = vec![Vec::new(); n];
    let mut sub_defects: Vec<u64> = vec![0; n];
    for v in 0..n {
        if !ctx.active[v] {
            continue;
        }
        if lists[v].is_empty() {
            return Err(CoreError::Precondition {
                node: v as u32,
                detail: "empty color list".into(),
            });
        }
        // Colors whose defect already covers the whole out-degree go into a
        // "free" bucket keyed u64::MAX and keep their exact defects —
        // rounding them down could spuriously re-enter the non-trivial
        // regime (a node whose defect covers its out-degree is trivial).
        let bucket_key = |d: u64| {
            if d >= beta[v] {
                u64::MAX
            } else {
                rounded_defect(d)
            }
        };
        let mut masses: std::collections::BTreeMap<u64, u128> = std::collections::BTreeMap::new();
        for (_, d) in lists[v].iter() {
            let dh = bucket_key(d);
            let weight = if dh == u64::MAX { d } else { dh };
            *masses.entry(dh).or_insert(0) += u128::from(weight + 1).pow(2);
        }
        let (&best_bucket, _) = masses
            .iter()
            .max_by_key(|&(&dh, &mass)| (mass, dh))
            .expect("non-empty list");
        sub_lists[v] = lists[v]
            .iter()
            .filter(|&(_, d)| bucket_key(d) == best_bucket)
            .map(|(c, _)| c)
            .collect();
        sub_defects[v] = if best_bucket == u64::MAX {
            lists[v]
                .iter()
                .filter(|&(_, d)| bucket_key(d) == u64::MAX)
                .map(|(_, d)| d)
                .min()
                .expect("bucket non-empty")
        } else {
            best_bucket
        };
    }

    let inner = solve_single_defect(net, ctx, &sub_lists, &sub_defects, g, cfg)?;
    Ok(MultiDefectOutcome {
        inner,
        chosen_defect: sub_defects,
    })
}

/// The Lemma 3.6 list-mass requirement, for experiment bookkeeping:
/// `Σ_{x∈L_v}(d_v(x)+1)² ≥ α·β_v²·τ(h,𝒞,m)·h·(2g+1)`.
pub fn lemma36_requirement(
    profile: crate::params::ParamProfile,
    beta: u64,
    h: u64,
    space: u64,
    m: u64,
    g: u64,
) -> u128 {
    let tau = profile.tau(h, space, m);
    u128::from(profile.alpha())
        * u128::from(beta).pow(2)
        * u128::from(tau)
        * u128::from(h)
        * u128::from(2 * g + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamProfile;
    use crate::validate::validate_oldc;
    use ldc_graph::{generators, DirectedView};
    use ldc_sim::Bandwidth;

    #[test]
    fn pow2_roundings() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(5), 4);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(rounded_defect(0), 0);
        assert_eq!(rounded_defect(2), 1);
        assert_eq!(rounded_defect(6), 3);
        assert_eq!(rounded_defect(7), 7);
    }

    /// Mixed-defect instance: half the colors defect 0, half defect 3.
    #[test]
    fn mixed_defects_on_regular_graph() {
        let g = generators::random_regular(100, 6, 5);
        let view = DirectedView::bidirected(&g);
        let n = 100;
        let space = 8192u64;
        // β = 6. Defect-0 colors would demand γ-class 4 and huge lists; the
        // defect-3 bucket (γ-class 2) has both the bigger square mass and
        // enough colors (1024 ≥ α·4²·τ), so Lemma 3.6's bucket choice must
        // land there and succeed.
        let lists: Vec<DefectList> = (0..n)
            .map(|v| {
                let mut entries: Vec<(u64, u64)> = (0..256u64)
                    .map(|i| ((i * 5 + v as u64) % 2048, 0))
                    .collect();
                entries.extend((0..1024u64).map(|i| (2048 + ((i * 5 + v as u64) % 4096), 3)));
                entries.sort_unstable();
                entries.dedup_by_key(|e| e.0);
                DefectList::new(entries)
            })
            .collect();
        let init: Vec<u64> = (0..n as u64).collect();
        let active = vec![true; n];
        let group = vec![0u64; n];
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: n as u64,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 12,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_multi_defect(&mut net, &ctx, &lists, 0, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.inner.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
        // The chosen (rounded) defect never exceeds the original defect of
        // the chosen color.
        for v in 0..n {
            let x = colors[v];
            assert!(out.chosen_defect[v] <= lists[v].defect(x).unwrap());
        }
    }

    #[test]
    fn all_high_defect_colors_collapse_to_class_one() {
        // Defects ≥ β everywhere: every node is trivially satisfiable.
        let g = generators::complete(16);
        let view = DirectedView::bidirected(&g);
        let lists: Vec<DefectList> = (0..16).map(|_| DefectList::uniform(0..32, 31)).collect();
        let init: Vec<u64> = (0..16).collect();
        let active = vec![true; 16];
        let group = vec![0u64; 16];
        let ctx = OldcCtx {
            view: &view,
            space: 32,
            init: &init,
            m: 16,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 4,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_multi_defect(&mut net, &ctx, &lists, 0, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.inner.colors.iter().map(|c| c.unwrap()).collect();
        assert_eq!(validate_oldc(&view, &lists, &colors), Ok(()));
    }

    #[test]
    fn color_distance_g_with_mixed_defects() {
        // g = 1: chosen colors must differ by > 1 from out-neighbors beyond
        // the defect budget.
        let g = generators::random_regular(80, 4, 3);
        let view = DirectedView::bidirected(&g);
        let space = 1 << 13;
        let lists: Vec<DefectList> = (0..80u64)
            .map(|v| {
                DefectList::new(
                    (0..1500u64)
                        .map(|i| ((i * 5 + v) % space, 2))
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect();
        let init: Vec<u64> = (0..80).collect();
        let active = vec![true; 80];
        let group = vec![0u64; 80];
        let ctx = OldcCtx {
            view: &view,
            space,
            init: &init,
            m: 80,
            active: &active,
            group: &group,
            profile: ParamProfile::practical_default(),
            seed: 8,
        };
        let mut net = Network::new(&g, Bandwidth::Local);
        let out = solve_multi_defect(&mut net, &ctx, &lists, 1, &KernelConfig::default()).unwrap();
        let colors: Vec<u64> = out.inner.colors.iter().map(|c| c.unwrap()).collect();
        for v in g.nodes() {
            let close = g
                .neighbors(v)
                .iter()
                .filter(|&&u| colors[u as usize].abs_diff(colors[v as usize]) <= 1)
                .count();
            assert!(close <= 2, "node {v}: {close} close neighbors > defect 2");
        }
    }

    #[test]
    fn requirement_formula_shape() {
        let p = ParamProfile::Faithful;
        let r1 = lemma36_requirement(p, 8, 3, 1 << 10, 64, 0);
        let r2 = lemma36_requirement(p, 16, 3, 1 << 10, 64, 0);
        assert_eq!(r2 / r1, 4, "quadratic in β");
        let r3 = lemma36_requirement(p, 8, 3, 1 << 10, 64, 1);
        assert_eq!(r3 / r1, 3, "linear in 2g+1");
    }
}

//! Shared workload builders for the experiment suite and the solver
//! bench. Everything is seeded and deterministic.

use ldc_core::problem::{Color, DefectList};
use ldc_core::{OldcCtx, ParamProfile};
use ldc_graph::{DirectedView, Graph};

/// A `(degree+1)`-list coloring instance: per-node lists of exactly
/// `deg(v)+1` distinct colors from `0..space`.
pub fn degree_plus_one_lists(g: &Graph, space: u64, salt: u64) -> Vec<Vec<Color>> {
    g.nodes()
        .map(|v| {
            let need = g.degree(v) + 1;
            let mut l: Vec<Color> = (0..need as u64)
                .map(|i| (u64::from(v) * 37 + i * 101 + salt) % space)
                .collect();
            l.sort_unstable();
            l.dedup();
            let mut c = 0;
            while l.len() < need {
                if !l.contains(&c) {
                    l.push(c);
                }
                c += 1;
            }
            l.sort_unstable();
            l
        })
        .collect()
}

/// Uniform-defect OLDC lists: `len` distinct colors, all with `defect`.
pub fn uniform_oldc_lists(g: &Graph, space: u64, len: u64, defect: u64) -> Vec<DefectList> {
    g.nodes()
        .map(|v| {
            DefectList::new(
                (0..len)
                    .map(|i| ((i * 3 + u64::from(v) * 7) % space, defect))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect()
}

/// Everything an OLDC context needs, owned (contexts borrow from this).
pub struct CtxOwner {
    /// Initial proper coloring values (id coloring).
    pub init: Vec<u64>,
    /// Active mask (all true).
    pub active: Vec<bool>,
    /// Group ids (all zero).
    pub group: Vec<u64>,
}

impl CtxOwner {
    /// All-active, one-group context backing for `g`.
    pub fn whole(g: &Graph) -> Self {
        CtxOwner {
            init: g.nodes().map(u64::from).collect(),
            active: vec![true; g.num_nodes()],
            group: vec![0u64; g.num_nodes()],
        }
    }

    /// Borrow an [`OldcCtx`] over `view`.
    pub fn ctx<'a, 'g>(
        &'a self,
        view: &'a DirectedView<'g>,
        space: u64,
        profile: ParamProfile,
        seed: u64,
    ) -> OldcCtx<'a, 'g> {
        OldcCtx {
            view,
            space,
            init: &self.init,
            m: self.init.len() as u64,
            active: &self.active,
            group: &self.group,
            profile,
            seed,
        }
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_graph::generators;

    #[test]
    fn degree_plus_one_lists_have_right_sizes() {
        let g = generators::gnp(60, 0.1, 3);
        let lists = degree_plus_one_lists(&g, 256, 5);
        for v in g.nodes() {
            assert_eq!(lists[v as usize].len(), g.degree(v) + 1);
            assert!(lists[v as usize].windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn ctx_owner_builds() {
        let g = generators::ring(8);
        let view = DirectedView::bidirected(&g);
        let owner = CtxOwner::whole(&g);
        let ctx = owner.ctx(&view, 64, ParamProfile::practical_default(), 1);
        assert_eq!(ctx.m, 8);
        assert!(ctx.active.iter().all(|&a| a));
    }
}

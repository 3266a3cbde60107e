//! Problem definitions: list defective coloring instances (Definition 1.1).
//!
//! A *list defective coloring* instance equips every node `v` with a color
//! list `L_v ⊆ 𝒞` and a defect function `d_v : L_v → ℕ₀`; a solution colors
//! each node from its list such that at most `d_v(φ(v))` neighbors (or
//! *out*-neighbors, in the oriented/arbdefective variants) share its color.

use ldc_graph::{DirectedView, Graph, NodeId};

/// A color. The paper takes `𝒞 ⊆ ℕ`; we use `u64` values below the space
/// size.
pub type Color = u64;

/// The color space `𝒞 = {0, …, size−1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorSpace {
    /// Number of colors in the space.
    pub size: u64,
}

impl ColorSpace {
    /// A space of `size` colors.
    pub fn new(size: u64) -> Self {
        ColorSpace { size }
    }

    /// Whether `c` is a color of this space.
    pub fn contains(&self, c: Color) -> bool {
        c < self.size
    }
}

/// One node's color list with per-color defects, sorted by color.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefectList {
    entries: Vec<(Color, u64)>,
}

impl DefectList {
    /// Build from `(color, defect)` pairs; sorts and rejects duplicates.
    ///
    /// # Panics
    /// Panics on duplicate colors.
    pub fn new(mut entries: Vec<(Color, u64)>) -> Self {
        entries.sort_unstable_by_key(|&(c, _)| c);
        for w in entries.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate color {} in defect list", w[0].0);
        }
        DefectList { entries }
    }

    /// A list where every color has the same defect.
    pub fn uniform(colors: impl IntoIterator<Item = Color>, defect: u64) -> Self {
        Self::new(colors.into_iter().map(|c| (c, defect)).collect())
    }

    /// Number of colors `|L_v|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The defect of color `c`, if `c ∈ L_v`.
    pub fn defect(&self, c: Color) -> Option<u64> {
        self.entries
            .binary_search_by_key(&c, |&(x, _)| x)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether `c ∈ L_v`.
    pub fn contains(&self, c: Color) -> bool {
        self.defect(c).is_some()
    }

    /// Iterate `(color, defect)` in color order.
    pub fn iter(&self) -> impl Iterator<Item = (Color, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Just the colors, sorted.
    pub fn colors(&self) -> impl Iterator<Item = Color> + '_ {
        self.entries.iter().map(|&(c, _)| c)
    }

    /// `Σ_{x∈L} (d(x)+1)` — the existence budget of Lemma A.1 / Eq. (1).
    pub fn linear_mass(&self) -> u64 {
        self.entries.iter().map(|&(_, d)| d + 1).sum()
    }

    /// `Σ_{x∈L} (2·d(x)+1)` — the arbdefective budget of Eq. (2).
    pub fn arb_mass(&self) -> u64 {
        self.entries.iter().map(|&(_, d)| 2 * d + 1).sum()
    }

    /// `Σ_{x∈L} (d(x)+1)²` — the OLDC budget of Theorem 1.1 / Eq. (3).
    pub fn square_mass(&self) -> u128 {
        self.entries
            .iter()
            .map(|&(_, d)| u128::from(d + 1).pow(2))
            .sum()
    }

    /// `Σ_{x∈L} (d(x)+1)^{1+ν}` for real `ν ≥ 0` (Theorem 1.2 bookkeeping).
    pub fn power_mass(&self, nu: f64) -> f64 {
        self.entries
            .iter()
            .map(|&(_, d)| ((d + 1) as f64).powf(1.0 + nu))
            .sum()
    }

    /// Retain only the colors satisfying `keep`.
    pub fn filtered<F: Fn(Color, u64) -> bool>(&self, keep: F) -> DefectList {
        DefectList {
            entries: self
                .entries
                .iter()
                .copied()
                .filter(|&(c, d)| keep(c, d))
                .collect(),
        }
    }

    /// Map the defects (e.g. reduce budgets by already-spent defect).
    pub fn map_defects<F: Fn(Color, u64) -> u64>(&self, f: F) -> DefectList {
        DefectList {
            entries: self.entries.iter().map(|&(c, d)| (c, f(c, d))).collect(),
        }
    }

    /// Minimum defect over the list (`None` when empty).
    pub fn min_defect(&self) -> Option<u64> {
        self.entries.iter().map(|&(_, d)| d).min()
    }
}

impl FromIterator<(Color, u64)> for DefectList {
    fn from_iter<T: IntoIterator<Item = (Color, u64)>>(iter: T) -> Self {
        DefectList::new(iter.into_iter().collect())
    }
}

/// A list defective coloring instance on an *undirected* graph.
#[derive(Debug, Clone)]
pub struct LdcInstance<'g> {
    /// The communication / conflict graph.
    pub graph: &'g Graph,
    /// The color space.
    pub space: ColorSpace,
    /// Per-node defect lists.
    pub lists: Vec<DefectList>,
}

impl<'g> LdcInstance<'g> {
    /// Assemble an instance, checking shapes and palette bounds.
    ///
    /// # Panics
    /// Panics if `lists.len() != n` or a list color is outside the space.
    pub fn new(graph: &'g Graph, space: ColorSpace, lists: Vec<DefectList>) -> Self {
        assert_eq!(lists.len(), graph.num_nodes(), "one list per node");
        for (v, l) in lists.iter().enumerate() {
            for c in l.colors() {
                assert!(
                    space.contains(c),
                    "node {v}: color {c} outside space {:?}",
                    space
                );
            }
        }
        LdcInstance {
            graph,
            space,
            lists,
        }
    }

    /// Eq. (1): `Σ (d+1) > deg(v)` for every node — the existence condition
    /// of Lemma A.1. Returns the first violating node.
    pub fn check_existence_condition(&self) -> Result<(), NodeId> {
        for v in self.graph.nodes() {
            if self.lists[v as usize].linear_mass() <= self.graph.degree(v) as u64 {
                return Err(v);
            }
        }
        Ok(())
    }

    /// Eq. (2): `Σ (2d+1) > deg(v)` — the arbdefective existence condition
    /// of Lemma A.2.
    pub fn check_arb_existence_condition(&self) -> Result<(), NodeId> {
        for v in self.graph.nodes() {
            if self.lists[v as usize].arb_mass() <= self.graph.degree(v) as u64 {
                return Err(v);
            }
        }
        Ok(())
    }

    /// The maximum list size `Λ`.
    pub fn lambda(&self) -> usize {
        self.lists.iter().map(DefectList::len).max().unwrap_or(0)
    }
}

/// An *oriented* list defective coloring (OLDC) instance: defects bind only
/// against out-neighbors of the [`DirectedView`].
#[derive(Debug, Clone)]
pub struct OldcInstance<'g> {
    /// The directed view (communication still bidirectional).
    pub view: DirectedView<'g>,
    /// The color space.
    pub space: ColorSpace,
    /// Per-node defect lists.
    pub lists: Vec<DefectList>,
}

impl<'g> OldcInstance<'g> {
    /// Assemble an oriented instance.
    ///
    /// # Panics
    /// Panics if `lists.len() != n` or a list color is outside the space.
    pub fn new(view: DirectedView<'g>, space: ColorSpace, lists: Vec<DefectList>) -> Self {
        assert_eq!(lists.len(), view.graph().num_nodes(), "one list per node");
        for (v, l) in lists.iter().enumerate() {
            for c in l.colors() {
                assert!(
                    space.contains(c),
                    "node {v}: color {c} outside space {:?}",
                    space
                );
            }
        }
        OldcInstance { view, space, lists }
    }

    /// Eq. (3)-style slack: `min_v Σ(d+1)² / β_v²` — how much square mass
    /// each node has per unit of squared out-degree. The algorithms of
    /// Section 3 need this to be at least `α·κ`.
    pub fn square_slack(&self) -> f64 {
        self.view
            .graph()
            .nodes()
            .map(|v| {
                let beta = self.view.beta(v) as f64;
                self.lists[v as usize].square_mass() as f64 / (beta * beta)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The maximum list size `Λ`.
    pub fn lambda(&self) -> usize {
        self.lists.iter().map(DefectList::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_graph::generators;

    #[test]
    fn defect_list_masses() {
        let l = DefectList::new(vec![(3, 1), (1, 0), (7, 2)]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.linear_mass(), 2 + 1 + 3);
        assert_eq!(l.arb_mass(), 3 + 1 + 5);
        assert_eq!(l.square_mass(), 4 + 1 + 9);
        assert_eq!(l.defect(3), Some(1));
        assert_eq!(l.defect(4), None);
        let colors: Vec<Color> = l.colors().collect();
        assert_eq!(colors, vec![1, 3, 7]);
    }

    #[test]
    fn power_mass_matches_square_mass_at_nu_one() {
        let l = DefectList::new(vec![(0, 0), (1, 3), (2, 7)]);
        assert!((l.power_mass(1.0) - l.square_mass() as f64).abs() < 1e-9);
        assert!((l.power_mass(0.0) - l.linear_mass() as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duplicate color")]
    fn rejects_duplicate_colors() {
        DefectList::new(vec![(1, 0), (1, 2)]);
    }

    #[test]
    fn filtered_and_mapped() {
        let l = DefectList::uniform(0..5, 2);
        let f = l.filtered(|c, _| c % 2 == 0);
        assert_eq!(f.len(), 3);
        let m = f.map_defects(|_, d| d - 1);
        assert_eq!(m.defect(0), Some(1));
        assert_eq!(m.min_defect(), Some(1));
    }

    #[test]
    fn existence_conditions_on_clique() {
        // K4 with uniform lists: Σ(d+1) = 4 = Δ+1 > Δ = 3 holds; one color
        // fewer fails.
        let g = generators::complete(4);
        let space = ColorSpace::new(8);
        let ok = LdcInstance::new(
            &g,
            space,
            (0..4).map(|_| DefectList::uniform(0..4, 0)).collect(),
        );
        assert!(ok.check_existence_condition().is_ok());
        let bad = LdcInstance::new(
            &g,
            space,
            (0..4).map(|_| DefectList::uniform(0..3, 0)).collect(),
        );
        assert_eq!(bad.check_existence_condition(), Err(0));
        // Arb condition: Σ(2d+1) with d=0 is the same count.
        assert!(bad.check_arb_existence_condition().is_err());
        let arb_ok = LdcInstance::new(
            &g,
            space,
            (0..4).map(|_| DefectList::uniform(0..2, 1)).collect(),
        );
        assert!(arb_ok.check_arb_existence_condition().is_ok());
    }

    #[test]
    fn oldc_square_slack() {
        let g = generators::ring(6);
        let view = DirectedView::bidirected(&g); // β = 2
        let lists: Vec<DefectList> = (0..6).map(|_| DefectList::uniform(0..16, 1)).collect();
        let inst = OldcInstance::new(view, ColorSpace::new(16), lists);
        // Σ(d+1)² = 16·4 = 64, β² = 4 ⇒ slack 16.
        assert!((inst.square_slack() - 16.0).abs() < 1e-9);
        assert_eq!(inst.lambda(), 16);
    }
}

//! Parameter schedules of Section 3 (Eqs. (4), (5)) and the
//! faithful/practical profiles of DESIGN.md §S2.
//!
//! The paper's formulas — `τ(h,𝒞,m) = ⌈8h + 2loglog|𝒞| + 2loglog m + 16⌉`
//! and `τ' = 2^{τ−⌈2h+log 2e⌉}` — are *galactic*: at `β = 64` they demand
//! color lists of millions of entries. `ParamProfile::Faithful` implements
//! them verbatim (used on miniature instances and in unit tests);
//! `ParamProfile::Practical` keeps the same functional form with small
//! constants so shape experiments run at realistic scale. Outputs are
//! always validated exactly regardless of profile.

/// `log₂log₂(max(x, 4))` — the double-logarithm used by Eq. (4).
pub fn loglog(x: u64) -> f64 {
    (x.max(4) as f64).log2().log2()
}

/// Constant-selection profile (see DESIGN.md §S2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamProfile {
    /// The paper's constants, verbatim.
    Faithful,
    /// Scaled-down constants with the same functional form.
    Practical {
        /// Multiplier on the `h + loglog|𝒞| + loglog m` term of `τ`.
        tau_scale: f64,
        /// Floor for `τ`.
        tau_min: u64,
        /// The constant `α` of Theorem 1.1 / Lemma 3.6.
        alpha: u64,
    },
}

impl ParamProfile {
    /// Defaults tuned so the E2–E8 experiments run at realistic scale with
    /// zero selection retries (see EXPERIMENTS.md).
    pub fn practical_default() -> Self {
        ParamProfile::Practical {
            tau_scale: 1.0,
            tau_min: 6,
            alpha: 4,
        }
    }

    /// Eq. (4): `τ(h, 𝒞, m)`.
    pub fn tau(&self, h: u64, space: u64, m: u64) -> u64 {
        match *self {
            ParamProfile::Faithful => {
                (8.0 * h as f64 + 2.0 * loglog(space) + 2.0 * loglog(m) + 16.0).ceil() as u64
            }
            ParamProfile::Practical {
                tau_scale, tau_min, ..
            } => {
                let raw = tau_scale * (h as f64 + loglog(space) + loglog(m));
                (raw.ceil() as u64).max(tau_min)
            }
        }
    }

    /// Eq. (5): `τ'(h, 𝒞, m) = 2^{τ − ⌈2h + log(2e)⌉}`, clamped to
    /// `[1, 2⁴⁰]` so it stays representable (only the exact tiny-parameter
    /// greedy ever materializes `τ'` candidate sets).
    pub fn tau_prime(&self, h: u64, space: u64, m: u64) -> u64 {
        let tau = self.tau(h, space, m);
        let drop = (2.0 * h as f64 + (2.0 * std::f64::consts::E).log2()).ceil() as u64;
        let exp = tau.saturating_sub(drop).min(40);
        1u64 << exp
    }

    /// The "sufficiently large constant" `α`.
    pub fn alpha(&self) -> u64 {
        match *self {
            ParamProfile::Faithful => 16,
            ParamProfile::Practical { alpha, .. } => alpha,
        }
    }
}

/// The defect mass per `β²` that the Theorem 1.1 engine needs in practice
/// (the profile-scaled form of Eq. (6)'s `κ`). The *faithful* composition
/// constant `α²·τ·τ̄·h'²` is galactic — see DESIGN.md §S2; experiments
/// E2/E8 chart how little slack is really needed.
pub fn practical_kappa(profile: ParamProfile, beta: u64, space: u64, m: u64) -> f64 {
    let h = u64::from((2 * beta.max(1)).next_power_of_two().ilog2()).max(1);
    let tau = profile.tau(h, space, m);
    // Lemma 3.7 uses factor-4 γ-classes: 4^i can reach 16·β²/(d+1)², so the
    // per-bucket bar ℓ ≥ 2·4^i·τ translates to Σ(d+1)² ≥ ~32τβ²; the α/4
    // factor keeps the aggressive profile proportionally cheaper.
    10.0 * profile.alpha() as f64 * tau as f64
}

/// The γ-class of a node (Section 3.2.3): the smallest `i ≥ 1` such that
/// `2^i ≥ factor·num/den` (`factor = 2` for the basic algorithm, `4` in
/// Lemma 3.7).
pub fn gamma_class(factor: u64, num: u64, den: u64) -> u32 {
    debug_assert!(den > 0);
    let mut i = 1u32;
    // 2^i ≥ factor·num/den  ⇔  2^i · den ≥ factor · num.
    while (1u128 << i) * u128::from(den) < u128::from(factor) * u128::from(num) {
        i += 1;
    }
    i
}

/// `k_i = 2^i · τ` — the size of the `P1` output set `C_v` for γ-class `i`.
pub fn k_of_class(i: u32, tau: u64) -> u64 {
    (1u64 << i.min(40)) * tau
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_is_monotone_and_small() {
        assert!(loglog(2) <= loglog(16));
        assert!((loglog(16) - 2.0).abs() < 1e-9);
        assert!((loglog(256) - 3.0).abs() < 1e-9);
        assert!(loglog(u64::MAX) < 6.01);
    }

    #[test]
    fn faithful_tau_matches_formula() {
        let p = ParamProfile::Faithful;
        // h = 3, |𝒞| = 256 (loglog = 3), m = 16 (loglog = 2):
        // 24 + 6 + 4 + 16 = 50.
        assert_eq!(p.tau(3, 256, 16), 50);
    }

    #[test]
    fn practical_tau_is_small_but_grows_with_h() {
        let p = ParamProfile::practical_default();
        let t1 = p.tau(1, 1 << 20, 1 << 10);
        let t8 = p.tau(8, 1 << 20, 1 << 10);
        assert!(t1 >= 6);
        assert!(t8 > t1);
        assert!(t8 < 30);
    }

    #[test]
    fn tau_prime_clamped() {
        let p = ParamProfile::Faithful;
        // Large τ ⇒ hits the 2⁴⁰ clamp.
        assert_eq!(p.tau_prime(10, 1 << 30, 1 << 20), 1u64 << 40);
        let q = ParamProfile::Practical {
            tau_scale: 0.1,
            tau_min: 1,
            alpha: 2,
        };
        // τ = 1, drop ≥ 2·h ⇒ exponent saturates at 0 ⇒ τ' = 1.
        assert_eq!(q.tau_prime(5, 4, 4), 1);
    }

    #[test]
    fn gamma_class_thresholds() {
        // 2β/(d+1) = 8 ⇒ class 3.
        assert_eq!(gamma_class(2, 4, 1), 3);
        // 2β/(d+1) = 1 ⇒ class 1 (classes start at 1).
        assert_eq!(gamma_class(2, 1, 2), 1);
        // Lemma 3.7's factor-4 version.
        assert_eq!(gamma_class(4, 6, 1), 5); // 4·6 = 24 ≤ 32 = 2⁵
                                             // Exact power: 4·8/1 = 32 = 2⁵.
        assert_eq!(gamma_class(4, 8, 1), 5);
    }

    #[test]
    fn k_scales_geometrically() {
        assert_eq!(k_of_class(1, 6), 12);
        assert_eq!(k_of_class(4, 6), 96);
    }
}

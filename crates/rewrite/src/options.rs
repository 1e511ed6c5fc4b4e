//! Pass configuration for the rewrite pipeline.

/// How `qarith-core`'s decomposed measurement splits the error budget
/// across factors that still need sampling (exactly-evaluated factors
/// consume no budget either way — they contribute zero error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FactorBudget {
    /// Rejoin all sampled factors into one conjunction and sample it
    /// once with the **full** ε: the exact factors multiply in error-free,
    /// so `|ν̂ᵣ·∏νₑ − νᵣ·∏νₑ| ≤ ε` already. This never draws more
    /// directions than the unrewritten run and the joint formula is no
    /// larger than the original — the default.
    #[default]
    Residual,
    /// Sample each of the `k` remaining factors independently with an
    /// `ε/k` additive budget (and `δ/k` failure probability, by the
    /// union bound). For `[0, 1]`-valued factors the product telescopes:
    /// `|∏ν̂ᵢ − ∏νᵢ| ≤ Σ|ν̂ᵢ − νᵢ| ≤ Σεᵢ = ε`. Draws `k·⌈(k/ε)²⌉`
    /// directions in the worst case — useful when the factors' direction
    /// spaces are so much smaller that per-direction work dominates, and
    /// as the literal product-rule estimator the soundness suite pins.
    Split,
}

/// Which rewrite passes run, and how. Folded into
/// `MeasureOptions::fingerprint` by `qarith-core`: any field here can
/// change the bits of an estimate, so two configurations never share
/// ν-cache entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RewriteOptions {
    /// Master switch. When `false` the engine runs the historical
    /// pipeline ([`crate::ae_simplify`] on the `Auto` and `ExactOnly`
    /// routes, formulas measured whole) and produces bit-identical
    /// estimates to releases without this crate.
    pub enabled: bool,
    /// Pass 1: constant-sign folding of trivially-decidable atoms via
    /// exact ℚ bound propagation. (The measure-zero equality /
    /// disequality elimination always runs; this flag controls only the
    /// stronger interval analysis.)
    pub fold: bool,
    /// Pass 2: Boolean normalization — child dedup, complement
    /// annihilation, absorption.
    pub normalize: bool,
    /// Pass 3: independence decomposition of top-level conjunctions
    /// into variable-disjoint factors.
    pub decompose: bool,
    /// Error-budget policy for sampled factors (see [`FactorBudget`]).
    pub budget: FactorBudget,
    /// Fixpoint cap for the simplification loop. Rarely more than two
    /// iterations are needed; the cap guards against pathological
    /// ping-ponging ever being introduced.
    pub max_passes: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            enabled: false,
            fold: true,
            normalize: true,
            decompose: true,
            budget: FactorBudget::Residual,
            max_passes: 8,
        }
    }
}

impl RewriteOptions {
    /// All passes enabled — the configuration benchmarks and the smoke
    /// suites run.
    pub fn full() -> RewriteOptions {
        RewriteOptions { enabled: true, ..RewriteOptions::default() }
    }

    /// Only the measure-zero equality/disequality elimination — the
    /// configuration that reproduces [`crate::ae_simplify`] bit for bit.
    pub fn ae_only() -> RewriteOptions {
        RewriteOptions {
            enabled: true,
            fold: false,
            normalize: false,
            decompose: false,
            ..RewriteOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_but_fully_configured() {
        let d = RewriteOptions::default();
        assert!(!d.enabled);
        assert!(d.fold && d.normalize && d.decompose);
        assert_eq!(d.budget, FactorBudget::Residual);
        assert!(RewriteOptions::full().enabled);
        let ae = RewriteOptions::ae_only();
        assert!(ae.enabled && !ae.fold && !ae.normalize && !ae.decompose);
    }
}

//! Configuration of covering queries: exhaustive vs ε-approximate.

use acd_sfc::CurveKind;
use serde::{Deserialize, Serialize};

use crate::error::CoveringError;
use crate::Result;

/// How much of the covering region a query must search before answering
/// "empty".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QueryMode {
    /// Search the entire covering region; a negative answer is exact.
    Exhaustive,
    /// Search at least a `1 − ε` fraction (by volume) of the covering
    /// region; a negative answer may miss covering subscriptions that lie in
    /// the unsearched `ε` fraction (the paper's Problem 2).
    Approximate {
        /// The approximation parameter ε in `(0, 1)`.
        epsilon: f64,
    },
}

impl QueryMode {
    /// The ε of an approximate mode, or 0 for the exhaustive mode.
    pub fn epsilon(&self) -> f64 {
        match self {
            QueryMode::Exhaustive => 0.0,
            QueryMode::Approximate { epsilon } => *epsilon,
        }
    }

    /// Whether the mode is exhaustive.
    pub fn is_exhaustive(&self) -> bool {
        matches!(self, QueryMode::Exhaustive)
    }
}

/// Default value of [`ApproxConfig::work_cap`]: the number of standard cubes
/// a single query may enumerate before switching to the exact point scan.
pub const DEFAULT_WORK_CAP: usize = 8_192;

/// Which algorithm a dominance query runs over the SFC array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryEngine {
    /// The paper's Section 5 algorithm: enumerate the greedy decomposition
    /// cube by cube (largest volume first), merge adjacent key ranges into
    /// runs on the fly and probe every run. The cost is governed by
    /// `runs(T)` no matter how sparsely the array is populated, which makes
    /// it the right engine for reproducing the paper's cost bounds — and a
    /// poor one for serving queries against realistic, sparse populations.
    EagerRuns,
    /// The populated-key sweep: gallop through the *stored* keys in key
    /// order, probe a cell only when it lies inside the dominance orthant,
    /// and jump over a gap with the Z curve's closed-form orthant seek. Exact
    /// for both query modes (it searches the whole region), with per-query
    /// work bounded by populated-key/gap alternations instead of `runs(T)`.
    /// The default engine, and a Z-curve property: Hilbert and Gray indexes
    /// reject it with [`CoveringError::UnsupportedEngine`].
    SkipPopulated,
}

impl QueryEngine {
    /// Short label used in index names and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            QueryEngine::EagerRuns => "eager",
            QueryEngine::SkipPopulated => "skip",
        }
    }

    /// The engine an index on `curve` serves with: the skip engine on the Z
    /// curve, the only one with an orthant seek, and the eager engine on
    /// the others.
    pub fn for_curve(curve: CurveKind) -> Self {
        match curve {
            CurveKind::Z => QueryEngine::SkipPopulated,
            CurveKind::Hilbert | CurveKind::Gray => QueryEngine::EagerRuns,
        }
    }

    /// Rejects the skip engine on any curve but Z.
    pub(crate) fn check_curve(self, curve: CurveKind) -> Result<()> {
        if self == Self::for_curve(curve) || self == QueryEngine::EagerRuns {
            return Ok(());
        }
        Err(CoveringError::UnsupportedEngine {
            curve,
            engine: self,
        })
    }
}

/// Full configuration of an SFC covering index's query behaviour.
///
/// The [`QueryEngine`] selects the algorithm: the default
/// [`QueryEngine::SkipPopulated`] sweep (Z curve only) probes only populated
/// cells inside the dominance orthant, while [`QueryEngine::EagerRuns`]
/// reproduces the paper's decomposition-driven probing on every curve.
///
/// The [`QueryMode`]'s ε and the `work_cap` act on the eager engine only.
/// The sweep always searches the whole region, and it takes at most one
/// iteration per populated cell, so neither can save it work. `work_cap` is
/// the maximum number of standard cubes one eager query may enumerate from
/// the greedy decomposition. The paper's cost bounds grow as
/// `(2d/ε)^{d−1}` (Theorem 3.1) and `ℓ^{d−1}` (Theorem 4.1); when a query
/// region is so fragmented that its decomposition exceeds this budget, the
/// index abandons the decomposition and falls back to an *exact* scan of the
/// stored points, which costs O(n) dominance checks. The fallback only ever
/// searches **more** volume than requested, so answers stay correct for both
/// exhaustive and ε-approximate modes; it simply bounds every eager query by
/// `O(work_cap + n)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxConfig {
    /// The query mode (exhaustive or ε-approximate).
    pub mode: QueryMode,
    /// Maximum number of cubes the eager engine enumerates before falling
    /// back to the exact point scan; `None` disables the fallback.
    pub work_cap: Option<usize>,
    /// The query algorithm to run.
    pub engine: QueryEngine,
}

impl ApproxConfig {
    /// An exhaustive configuration (ε = 0, default work cap, populated-key
    /// skip engine).
    pub fn exhaustive() -> Self {
        ApproxConfig {
            mode: QueryMode::Exhaustive,
            work_cap: Some(DEFAULT_WORK_CAP),
            engine: QueryEngine::SkipPopulated,
        }
    }

    /// An ε-approximate configuration with the default work cap and the
    /// populated-key skip engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoveringError::InvalidEpsilon`] if `epsilon` is not in the
    /// open interval `(0, 1)`.
    pub fn with_epsilon(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoveringError::InvalidEpsilon { epsilon });
        }
        Ok(ApproxConfig {
            mode: QueryMode::Approximate { epsilon },
            work_cap: Some(DEFAULT_WORK_CAP),
            engine: QueryEngine::SkipPopulated,
        })
    }

    /// Returns a copy with a different cube-enumeration budget, or `None` to
    /// disable the exact-scan fallback entirely.
    pub fn work_cap(mut self, cap: Option<usize>) -> Self {
        self.work_cap = cap;
        self
    }

    /// Returns a copy running the given query engine.
    pub fn engine(mut self, engine: QueryEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The ε of the configuration (0 for exhaustive).
    pub fn epsilon(&self) -> f64 {
        self.mode.epsilon()
    }
}

impl Default for ApproxConfig {
    /// The default configuration is a 0.05-approximate query (searching at
    /// least 95% of the covering region), the paper's running example.
    fn default() -> Self {
        ApproxConfig::with_epsilon(0.05).expect("0.05 is a valid epsilon")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_and_approximate_constructors() {
        let e = ApproxConfig::exhaustive();
        assert!(e.mode.is_exhaustive());
        assert_eq!(e.epsilon(), 0.0);
        let a = ApproxConfig::with_epsilon(0.1).unwrap();
        assert!(!a.mode.is_exhaustive());
        assert_eq!(a.epsilon(), 0.1);
    }

    #[test]
    fn rejects_bad_epsilon() {
        for eps in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(
                ApproxConfig::with_epsilon(eps).is_err(),
                "epsilon {eps} should be rejected"
            );
        }
    }

    #[test]
    fn default_is_the_papers_running_example() {
        let d = ApproxConfig::default();
        assert_eq!(d.epsilon(), 0.05);
        assert_eq!(d.work_cap, Some(DEFAULT_WORK_CAP));
        assert_eq!(d.engine, QueryEngine::SkipPopulated);
    }

    #[test]
    fn the_work_cap_is_preserved() {
        let c = ApproxConfig::exhaustive().work_cap(Some(64));
        assert_eq!(c.work_cap, Some(64));
        let unbounded = ApproxConfig::exhaustive().work_cap(None);
        assert_eq!(unbounded.work_cap, None);
    }

    #[test]
    fn engine_selection_is_preserved_and_labelled() {
        let eager = ApproxConfig::exhaustive().engine(QueryEngine::EagerRuns);
        assert_eq!(eager.engine, QueryEngine::EagerRuns);
        assert_eq!(eager.engine.label(), "eager");
        assert_eq!(QueryEngine::SkipPopulated.label(), "skip");
    }
}

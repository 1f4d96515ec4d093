//! Covering policies: how a router uses (or ignores) covering detection.

use acd_subscription::Schema;

use crate::config::ApproxConfig;
use crate::flooding::Flooding;
use crate::index::CoveringIndex;
use crate::linear::LinearScanIndex;
use crate::sfc_index::SfcCoveringIndex;
use crate::Result;

/// The covering policy of a broker (or of one routing-table interface).
///
/// This is the knob the paper's motivation section turns: ignoring covering
/// floods every subscription; exact covering minimizes propagation but pays
/// the full covering-detection cost; approximate covering keeps most of the
/// propagation savings at a fraction of the detection cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoveringPolicy {
    /// Never detect covering: every subscription is propagated.
    None,
    /// Detect covering exactly with a linear scan (the classic baseline).
    ExactLinear,
    /// Detect covering exactly with an exhaustive SFC dominance query.
    ExactSfc,
    /// Detect covering approximately with an ε-approximate SFC query.
    Approximate {
        /// The approximation parameter ε in `(0, 1)`.
        epsilon: f64,
    },
}

impl CoveringPolicy {
    /// Whether the policy performs any covering detection at all.
    pub fn detects_covering(&self) -> bool {
        !matches!(self, CoveringPolicy::None)
    }

    /// Builds the covering index this policy prescribes. That of
    /// [`CoveringPolicy::None`] stores what it is given and never finds a
    /// cover.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy's parameters are invalid (e.g. ε
    /// outside `(0, 1)`).
    pub fn build_index(&self, schema: &Schema) -> Result<Box<dyn CoveringIndex>> {
        Ok(match self {
            CoveringPolicy::None => Box::<Flooding>::default(),
            CoveringPolicy::ExactLinear => Box::new(LinearScanIndex::new(schema)),
            CoveringPolicy::ExactSfc => Box::new(SfcCoveringIndex::exhaustive(schema)?),
            CoveringPolicy::Approximate { epsilon } => Box::new(SfcCoveringIndex::approximate(
                schema,
                ApproxConfig::with_epsilon(*epsilon)?,
            )?),
        })
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            CoveringPolicy::None => "none".to_string(),
            CoveringPolicy::ExactLinear => "exact-linear".to_string(),
            CoveringPolicy::ExactSfc => "exact-sfc".to_string(),
            CoveringPolicy::Approximate { epsilon } => format!("approx(eps={epsilon})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acd_subscription::SubscriptionBuilder;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", 0.0, 10.0)
            .attribute("b", 0.0, 10.0)
            .bits_per_attribute(6)
            .build()
            .unwrap()
    }

    #[test]
    fn build_index_matches_policy() {
        let s = schema();
        assert_eq!(CoveringPolicy::None.build_index(&s).unwrap().name(), "none");
        let lin = CoveringPolicy::ExactLinear.build_index(&s).unwrap();
        assert_eq!(lin.name(), "linear-scan");
        let sfc = CoveringPolicy::ExactSfc.build_index(&s).unwrap();
        assert_eq!(sfc.name(), "sfc-z-exhaustive");
        let approx = CoveringPolicy::Approximate { epsilon: 0.05 }
            .build_index(&s)
            .unwrap();
        assert_eq!(approx.name(), "sfc-z-approximate");
        assert!(CoveringPolicy::Approximate { epsilon: 2.0 }
            .build_index(&s)
            .is_err());
    }

    #[test]
    fn the_none_index_stores_what_it_is_given_and_never_covers() {
        let s = schema();
        let mut none = CoveringPolicy::None.build_index(&s).unwrap();
        let wide = SubscriptionBuilder::new(&s).build(1).unwrap();
        let narrow = SubscriptionBuilder::new(&s)
            .range("a", 4.0, 6.0)
            .build(2)
            .unwrap();
        none.insert(&wide).unwrap();
        assert!(none.insert(&wide).is_err());
        assert_eq!(none.find_covering(&narrow).unwrap().covering, None);
        assert_eq!((none.len(), none.ids().collect::<Vec<_>>()), (1, vec![1]));
        assert_eq!(none.get(1), Some(&wide));
        none.remove(1).unwrap();
        assert!(none.remove(1).is_err() && none.is_empty());
        assert_eq!(none.stats().queries, 0);
    }

    #[test]
    fn built_indexes_answer_queries_through_the_trait() {
        let s = schema();
        for policy in [
            CoveringPolicy::ExactLinear,
            CoveringPolicy::ExactSfc,
            CoveringPolicy::Approximate { epsilon: 0.1 },
        ] {
            let mut idx = policy.build_index(&s).unwrap();
            let wide = SubscriptionBuilder::new(&s)
                .range("a", 0.0, 10.0)
                .range("b", 0.0, 10.0)
                .build(1)
                .unwrap();
            let narrow = SubscriptionBuilder::new(&s)
                .range("a", 4.0, 6.0)
                .range("b", 4.0, 6.0)
                .build(2)
                .unwrap();
            idx.insert(&wide).unwrap();
            let outcome = idx.find_covering(&narrow).unwrap();
            assert_eq!(outcome.covering, Some(1), "policy {}", policy.label());
        }
    }

    #[test]
    fn labels_and_flags() {
        assert!(!CoveringPolicy::None.detects_covering());
        assert!(CoveringPolicy::ExactSfc.detects_covering());
        assert_eq!(
            CoveringPolicy::Approximate { epsilon: 0.05 }.label(),
            "approx(eps=0.05)"
        );
        assert_eq!(CoveringPolicy::ExactLinear.label(), "exact-linear");
    }
}

//! Covering policies: how a router uses (or ignores) covering detection.

use serde::{Deserialize, Serialize};

use acd_subscription::Schema;

use crate::config::ApproxConfig;
use crate::index::CoveringIndex;
use crate::linear::LinearScanIndex;
use crate::sfc_index::SfcCoveringIndex;
use crate::sharded::ShardedCoveringIndex;
use crate::Result;

/// The covering policy of a broker (or of one routing-table interface).
///
/// This is the knob the paper's motivation section turns: ignoring covering
/// floods every subscription; exact covering minimizes propagation but pays
/// the full covering-detection cost; approximate covering keeps most of the
/// propagation savings at a fraction of the detection cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoveringPolicy {
    /// Never detect covering: every subscription is propagated.
    None,
    /// Detect covering exactly with a linear scan (the classic baseline).
    ExactLinear,
    /// Detect covering exactly with an exhaustive SFC dominance query.
    ExactSfc,
    /// Detect covering exactly with an exhaustive SFC dominance query over a
    /// key-range sharded index ([`crate::ShardedCoveringIndex`]): the same
    /// answers as [`CoveringPolicy::ExactSfc`], with per-shard locking so a
    /// broker serving churn-heavy links can process concurrent queries and
    /// updates.
    ShardedSfc {
        /// Number of key-range shards, in `1..=`[`crate::sharded::MAX_SHARDS`].
        shards: usize,
    },
    /// Detect covering approximately with an ε-approximate SFC query.
    Approximate {
        /// The approximation parameter ε in `(0, 1)`.
        epsilon: f64,
    },
}

/// When a [`ShardedCoveringIndex`] re-cuts its shard boundaries.
///
/// The trigger is the imbalance factor reported by
/// [`crate::rebalance::imbalance_of`] over `shard_lens()`: the largest
/// shard's length over the ideal per-shard length. A pass is only attempted
/// once the population reaches `min_len` (rebalancing a few hundred
/// subscriptions buys nothing), and in auto mode
/// ([`ShardedCoveringIndex::set_rebalance_policy`]) the trigger is evaluated
/// every `check_interval` updates rather than on every insert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalancePolicy {
    /// Rebalance when the imbalance factor exceeds this (must be ≥ 1).
    pub max_imbalance: f64,
    /// Do nothing while the population is smaller than this.
    pub min_len: usize,
    /// Auto mode checks the trigger every this many updates (must be ≥ 1).
    pub check_interval: u64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            max_imbalance: 1.5,
            min_len: 256,
            check_interval: 1024,
        }
    }
}

impl RebalancePolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoveringError::InvalidPolicy`] if `max_imbalance`
    /// is below 1 (or not finite) or `check_interval` is zero.
    pub fn validate(&self) -> Result<()> {
        if !self.max_imbalance.is_finite() || self.max_imbalance < 1.0 {
            return Err(crate::CoveringError::InvalidPolicy {
                reason: format!(
                    "max_imbalance must be a finite value >= 1, got {}",
                    self.max_imbalance
                ),
            });
        }
        if self.check_interval == 0 {
            return Err(crate::CoveringError::InvalidPolicy {
                reason: "check_interval must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

impl CoveringPolicy {
    /// Whether the policy performs any covering detection at all.
    pub fn detects_covering(&self) -> bool {
        !matches!(self, CoveringPolicy::None)
    }

    /// Builds the covering index this policy prescribes, or `None` for
    /// [`CoveringPolicy::None`].
    ///
    /// # Errors
    ///
    /// Returns an error if the policy's parameters are invalid (e.g. ε
    /// outside `(0, 1)`).
    pub fn build_index(&self, schema: &Schema) -> Result<Option<Box<dyn CoveringIndex>>> {
        Ok(match self {
            CoveringPolicy::None => None,
            CoveringPolicy::ExactLinear => Some(Box::new(LinearScanIndex::new(schema))),
            CoveringPolicy::ExactSfc => Some(Box::new(SfcCoveringIndex::exhaustive(schema)?)),
            CoveringPolicy::ShardedSfc { shards } => Some(Box::new(ShardedCoveringIndex::new(
                schema,
                ApproxConfig::exhaustive(),
                acd_sfc::CurveKind::Z,
                *shards,
            )?)),
            CoveringPolicy::Approximate { epsilon } => Some(Box::new(
                SfcCoveringIndex::approximate(schema, ApproxConfig::with_epsilon(*epsilon)?)?,
            )),
        })
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            CoveringPolicy::None => "none".to_string(),
            CoveringPolicy::ExactLinear => "exact-linear".to_string(),
            CoveringPolicy::ExactSfc => "exact-sfc".to_string(),
            CoveringPolicy::ShardedSfc { shards } => format!("sharded-sfc(shards={shards})"),
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
        assert!(CoveringPolicy::None.build_index(&s).unwrap().is_none());
        let lin = CoveringPolicy::ExactLinear
            .build_index(&s)
            .unwrap()
            .unwrap();
        assert_eq!(lin.name(), "linear-scan");
        let sfc = CoveringPolicy::ExactSfc.build_index(&s).unwrap().unwrap();
        assert_eq!(sfc.name(), "sfc-z-exhaustive");
        let sharded = CoveringPolicy::ShardedSfc { shards: 4 }
            .build_index(&s)
            .unwrap()
            .unwrap();
        assert_eq!(sharded.name(), "sharded-sfc-z-exhaustive");
        assert!(CoveringPolicy::ShardedSfc { shards: 0 }
            .build_index(&s)
            .is_err());
        let approx = CoveringPolicy::Approximate { epsilon: 0.05 }
            .build_index(&s)
            .unwrap()
            .unwrap();
        assert_eq!(approx.name(), "sfc-z-approximate");
        assert!(CoveringPolicy::Approximate { epsilon: 2.0 }
            .build_index(&s)
            .is_err());
    }

    #[test]
    fn built_indexes_answer_queries_through_the_trait() {
        let s = schema();
        for policy in [
            CoveringPolicy::ExactLinear,
            CoveringPolicy::ExactSfc,
            CoveringPolicy::ShardedSfc { shards: 3 },
            CoveringPolicy::Approximate { epsilon: 0.1 },
        ] {
            let mut idx = policy.build_index(&s).unwrap().unwrap();
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
    fn rebalance_policy_validation() {
        assert!(RebalancePolicy::default().validate().is_ok());
        for bad in [
            RebalancePolicy {
                max_imbalance: 0.9,
                ..Default::default()
            },
            RebalancePolicy {
                max_imbalance: f64::NAN,
                ..Default::default()
            },
            RebalancePolicy {
                check_interval: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
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
        assert_eq!(
            CoveringPolicy::ShardedSfc { shards: 4 }.label(),
            "sharded-sfc(shards=4)"
        );
        assert!(CoveringPolicy::ShardedSfc { shards: 4 }.detects_covering());
    }
}

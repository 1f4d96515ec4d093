//! Named application scenarios used by the examples and the broker
//! experiments.
//!
//! Each scenario bundles a realistic schema with a workload configuration
//! whose distributions mimic the application the paper's introduction
//! motivates (financial tickers, wide-area sensor monitoring).

use acd_subscription::Schema;

use crate::churn::ChurnConfig;
use crate::config::{CenterDistribution, WidthModel, WorkloadConfig};
use crate::Result;

/// A named application scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A stock-ticker feed: subscriptions constrain symbol rank, traded
    /// volume and price; interest is heavily skewed toward a few hot
    /// symbols.
    StockTicker,
    /// A wide-area sensor network: subscriptions constrain temperature,
    /// humidity and battery level; interest clusters around a few geographic
    /// hot spots.
    SensorNetwork,
    /// A synthetic uniform workload with moderate selectivity, useful as a
    /// neutral baseline.
    UniformBaseline,
    /// A churn-heavy deployment: Zipf-skewed interest (a few hot topics
    /// dominate) with subscriptions continuously arriving and leaving while
    /// events flow. Use [`Scenario::churn_config`] to obtain the mixed
    /// operation stream; the plain [`Scenario::workload_config`] exposes the
    /// same content model for insert-only comparisons.
    Churn,
    /// A churn-heavy deployment whose hot region *moves*: interest is
    /// sharply Zipf-skewed and narrow, and the driver is expected to advance
    /// the generator's center offset over time
    /// ([`crate::SubscriptionWorkload::set_center_offset`] /
    /// [`crate::ChurnWorkload::set_center_offset`]). New subscriptions then
    /// land in a region the standing population is leaving, so the keys an
    /// index holds keep concentrating in one moving stretch of the curve.
    SkewedDrift,
}

impl Scenario {
    /// All built-in scenarios.
    pub fn all() -> [Scenario; 5] {
        [
            Scenario::StockTicker,
            Scenario::SensorNetwork,
            Scenario::UniformBaseline,
            Scenario::Churn,
            Scenario::SkewedDrift,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::StockTicker => "stock-ticker",
            Scenario::SensorNetwork => "sensor-network",
            Scenario::UniformBaseline => "uniform",
            Scenario::Churn => "churn",
            Scenario::SkewedDrift => "skewed-drift",
        }
    }

    /// The application-flavoured schema of this scenario.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in scenarios; the `Result` mirrors the
    /// schema builder's signature.
    pub fn schema(self) -> Result<Schema> {
        let schema = match self {
            Scenario::StockTicker => Schema::builder()
                .attribute("symbol_rank", 0.0, 5000.0)
                .attribute("volume", 0.0, 1_000_000.0)
                .attribute("price", 0.0, 10_000.0)
                .bits_per_attribute(10)
                .build()?,
            Scenario::SensorNetwork => Schema::builder()
                .attribute("temperature", -40.0, 60.0)
                .attribute("humidity", 0.0, 100.0)
                .attribute("battery", 0.0, 100.0)
                .bits_per_attribute(10)
                .build()?,
            Scenario::UniformBaseline => Schema::builder()
                .attribute("attr0", 0.0, WorkloadConfig::DOMAIN_MAX)
                .attribute("attr1", 0.0, WorkloadConfig::DOMAIN_MAX)
                .attribute("attr2", 0.0, WorkloadConfig::DOMAIN_MAX)
                .bits_per_attribute(10)
                .build()?,
            Scenario::Churn | Scenario::SkewedDrift => Schema::builder()
                .attribute("topic_rank", 0.0, 10_000.0)
                .attribute("priority", 0.0, 100.0)
                .attribute("size", 0.0, 1_000_000.0)
                .bits_per_attribute(10)
                .build()?,
        };
        Ok(schema)
    }

    /// The workload configuration of this scenario (3 attributes, 10 bits).
    ///
    /// The generated subscriptions use the generic `attr0..attr2` schema of
    /// the workload crate; the scenario-specific [`Scenario::schema`] is
    /// intended for the hand-written examples. Both have the same shape
    /// (3 × 10 bits), so measured costs are directly comparable.
    pub fn workload_config(self, seed: u64) -> WorkloadConfig {
        let builder = WorkloadConfig::builder()
            .attributes(3)
            .bits_per_attribute(10)
            .seed(seed);
        let builder = match self {
            Scenario::StockTicker => builder
                .center_distribution(CenterDistribution::Zipf { exponent: 1.1 })
                .width_model(WidthModel::UniformFraction {
                    min: 0.02,
                    max: 0.3,
                }),
            Scenario::SensorNetwork => builder
                .center_distribution(CenterDistribution::Clustered {
                    clusters: 8,
                    spread: 0.05,
                })
                .width_model(WidthModel::UniformFraction {
                    min: 0.05,
                    max: 0.25,
                }),
            Scenario::UniformBaseline => builder
                .center_distribution(CenterDistribution::Uniform)
                .width_model(WidthModel::UniformFraction {
                    min: 0.05,
                    max: 0.5,
                }),
            Scenario::Churn => builder
                .center_distribution(CenterDistribution::Zipf { exponent: 1.2 })
                .width_model(WidthModel::UniformFraction {
                    min: 0.02,
                    max: 0.35,
                }),
            // Sharper skew and narrower widths than `Churn`: the hot region
            // is compact enough that drifting it really does concentrate
            // keys into one stretch of the curve.
            Scenario::SkewedDrift => builder
                .center_distribution(CenterDistribution::Zipf { exponent: 1.4 })
                .width_model(WidthModel::UniformFraction {
                    min: 0.01,
                    max: 0.2,
                }),
        };
        builder.build().expect("built-in scenarios are valid")
    }

    /// The mixed subscribe/unsubscribe/publish stream of this scenario: the
    /// balanced operation ratios of [`ChurnConfig::balanced`] over the
    /// scenario's content model. Defined for every scenario (churn over a
    /// sensor-network population is meaningful), with [`Scenario::Churn`]
    /// as the canonical churn-heavy shape.
    pub fn churn_config(self, seed: u64) -> ChurnConfig {
        ChurnConfig::balanced(self.workload_config(seed))
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscriptions::SubscriptionWorkload;

    #[test]
    fn all_scenarios_produce_valid_schemas_and_configs() {
        for s in Scenario::all() {
            let schema = s.schema().unwrap();
            assert_eq!(schema.arity(), 3);
            let config = s.workload_config(1);
            assert!(config.validate().is_ok());
            let mut w = SubscriptionWorkload::new(&config).unwrap();
            assert_eq!(w.take(10).len(), 10);
            assert!(!s.label().is_empty());
            assert_eq!(s.to_string(), s.label());
        }
    }

    #[test]
    fn stock_ticker_is_skewed_sensor_network_is_clustered() {
        assert!(matches!(
            Scenario::StockTicker.workload_config(1).center_distribution,
            CenterDistribution::Zipf { .. }
        ));
        assert!(matches!(
            Scenario::SensorNetwork
                .workload_config(1)
                .center_distribution,
            CenterDistribution::Clustered { .. }
        ));
        assert!(matches!(
            Scenario::UniformBaseline
                .workload_config(1)
                .center_distribution,
            CenterDistribution::Uniform
        ));
        assert!(matches!(
            Scenario::Churn.workload_config(1).center_distribution,
            CenterDistribution::Zipf { .. }
        ));
        assert!(matches!(
            Scenario::SkewedDrift.workload_config(1).center_distribution,
            CenterDistribution::Zipf { exponent } if exponent > 1.2
        ));
    }

    #[test]
    fn skewed_drift_shifts_its_hot_region_with_the_offset() {
        let config = Scenario::SkewedDrift.workload_config(7);
        let mut workload = SubscriptionWorkload::new(&config).unwrap();
        let mean_center = |subs: &[acd_subscription::Subscription]| -> f64 {
            let grid = subs[0].schema().grid_size() as f64;
            subs.iter()
                .map(|s| {
                    let (lo, hi) = s.grid_bounds()[0];
                    (lo as f64 + hi as f64) / 2.0 / grid
                })
                .sum::<f64>()
                / subs.len() as f64
        };
        let stationary = workload.take(300);
        workload.set_center_offset(0.5);
        assert!((workload.center_offset() - 0.5).abs() < 1e-12);
        let drifted = workload.take(300);
        let (before, after) = (mean_center(&stationary), mean_center(&drifted));
        // Zipf mass sits near the low end; a half-domain shift moves it to
        // the middle of the domain.
        assert!(
            after > before + 0.25,
            "drift did not move the hot region: {before} -> {after}"
        );
    }

    #[test]
    fn every_scenario_yields_a_runnable_churn_stream() {
        use crate::churn::{ChurnOp, ChurnWorkload};
        for s in Scenario::all() {
            let config = s.churn_config(3);
            assert!(config.validate().is_ok());
            let mut churn = ChurnWorkload::new(&config).unwrap();
            let ops = churn.take(200);
            assert!(ops.iter().any(|op| matches!(op, ChurnOp::Subscribe(_))));
            assert!(
                ops.iter().any(|op| matches!(op, ChurnOp::Publish(_))),
                "scenario {s} produced no publishes"
            );
        }
    }
}

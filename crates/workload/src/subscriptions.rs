//! The subscription population generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use acd_subscription::{RangePredicate, Schema, SubId, Subscription};

use crate::config::{CenterDistribution, WidthModel, WorkloadConfig};
use crate::distributions::{sample_clamped_gaussian, Zipf};
use crate::Result;

/// A reproducible stream of synthetic subscriptions following a
/// [`WorkloadConfig`].
///
/// The generator is an iterator-like source: [`next_subscription`] draws the
/// next subscription, [`take`] draws a batch. Identifiers start at 1 and
/// increase monotonically.
///
/// [`next_subscription`]: SubscriptionWorkload::next_subscription
/// [`take`]: SubscriptionWorkload::take
#[derive(Debug)]
pub struct SubscriptionWorkload {
    config: WorkloadConfig,
    schema: Schema,
    rng: StdRng,
    zipf: Option<Zipf>,
    cluster_centers: Vec<Vec<f64>>,
    next_id: SubId,
    /// Additive center drift in raw domain units, wrapped modulo the
    /// domain. See [`SubscriptionWorkload::set_center_offset`].
    center_offset: f64,
}

impl SubscriptionWorkload {
    /// Creates a generator for `config`, building the schema it implies.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: &WorkloadConfig) -> Result<Self> {
        config.validate()?;
        let schema = build_schema(config)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let zipf = match config.center_distribution {
            CenterDistribution::Zipf { exponent } => Some(Zipf::new(4096, exponent)),
            _ => None,
        };
        let cluster_centers = match config.center_distribution {
            CenterDistribution::Clustered { clusters, .. } => (0..clusters)
                .map(|_| {
                    (0..config.attributes)
                        .map(|_| rng.gen_range(0.0..WorkloadConfig::DOMAIN_MAX))
                        .collect()
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(SubscriptionWorkload {
            config: config.clone(),
            schema,
            rng,
            zipf,
            cluster_centers,
            next_id: 1,
            center_offset: 0.0,
        })
    }

    /// Shifts every subsequently drawn center by `fraction` of the domain
    /// (wrapping around its upper end). This models a *drifting* hot
    /// region: a Zipf or clustered workload whose popular values migrate
    /// over time, so that what was popular when an index was built is not
    /// what arrives later. The fraction is taken modulo 1;
    /// `0.0` restores the stationary distribution.
    pub fn set_center_offset(&mut self, fraction: f64) {
        self.center_offset = fraction.rem_euclid(1.0) * WorkloadConfig::DOMAIN_MAX;
    }

    /// The current center drift as a fraction of the domain.
    pub fn center_offset(&self) -> f64 {
        self.center_offset / WorkloadConfig::DOMAIN_MAX
    }

    /// The schema the generated subscriptions are built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration this workload follows.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Draws one center coordinate for attribute `attr`, applying the
    /// current drift offset (wrapped modulo the domain).
    fn sample_center(&mut self, attr: usize) -> f64 {
        let max = WorkloadConfig::DOMAIN_MAX;
        let raw = match self.config.center_distribution {
            CenterDistribution::Uniform => self.rng.gen_range(0.0..max),
            CenterDistribution::Zipf { .. } => {
                let z = self.zipf.as_ref().expect("zipf sampler exists");
                let bucket = z.sample(&mut self.rng);
                let bucket_width = max / z.buckets() as f64;
                bucket as f64 * bucket_width + self.rng.gen_range(0.0..bucket_width)
            }
            CenterDistribution::Clustered { spread, .. } => {
                let c = self.rng.gen_range(0..self.cluster_centers.len());
                let mean = self.cluster_centers[c][attr];
                sample_clamped_gaussian(&mut self.rng, mean, spread * max, 0.0, max)
            }
        };
        (raw + self.center_offset).rem_euclid(max)
    }

    /// Draws the width (in raw units) of every attribute of one
    /// subscription.
    fn sample_widths(&mut self) -> Vec<f64> {
        let max = WorkloadConfig::DOMAIN_MAX;
        let d = self.config.attributes;
        match self.config.width_model {
            WidthModel::UniformFraction { min, max: maxf } => (0..d)
                .map(|_| self.rng.gen_range(min..=maxf) * max)
                .collect(),
            WidthModel::EqualSides { min, max: maxf } => {
                let f = self.rng.gen_range(min..=maxf);
                vec![f * max; d]
            }
            WidthModel::SkewedAspect {
                wide_fraction,
                alpha_bits,
            } => {
                let wide = wide_fraction * max;
                let narrow = wide / 2f64.powi(alpha_bits as i32);
                let mut widths = vec![wide; d];
                // The last attribute is the narrow one, matching the paper's
                // lower-bound construction.
                widths[d - 1] = narrow.max(max / self.schema.grid_size() as f64);
                widths
            }
        }
    }

    /// Draws the next subscription.
    pub fn next_subscription(&mut self) -> Subscription {
        let max = WorkloadConfig::DOMAIN_MAX;
        let d = self.config.attributes;
        let widths = self.sample_widths();
        let mut predicates = Vec::with_capacity(d);
        for (attr, &width) in widths.iter().enumerate() {
            let center = self.sample_center(attr);
            let half = width / 2.0;
            let lo = (center - half).max(0.0);
            let hi = (center + half).min(max);
            predicates.push(
                RangePredicate::between(self.schema.attributes()[attr].name(), lo, hi)
                    .expect("generated ranges are non-empty"),
            );
        }
        let id = self.next_id;
        self.next_id += 1;
        Subscription::from_predicates(&self.schema, id, &predicates)
            .expect("generated subscriptions are valid")
    }

    /// Draws a batch of `n` subscriptions.
    pub fn take(&mut self, n: usize) -> Vec<Subscription> {
        (0..n).map(|_| self.next_subscription()).collect()
    }
}

/// Builds the schema implied by a workload configuration: attributes named
/// `attr0..attrN` over `[0, DOMAIN_MAX]`.
pub fn build_schema(config: &WorkloadConfig) -> Result<Schema> {
    let mut builder = Schema::builder().bits_per_attribute(config.bits_per_attribute);
    for i in 0..config.attributes {
        builder = builder.attribute(format!("attr{i}"), 0.0, WorkloadConfig::DOMAIN_MAX);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CenterDistribution, WidthModel};

    fn base_config() -> WorkloadConfig {
        WorkloadConfig::builder()
            .attributes(3)
            .bits_per_attribute(10)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn generation_is_reproducible_for_equal_seeds() {
        let c = base_config();
        let a: Vec<_> = SubscriptionWorkload::new(&c).unwrap().take(50);
        let b: Vec<_> = SubscriptionWorkload::new(&c).unwrap().take(50);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.grid_bounds(), y.grid_bounds());
            assert_eq!(x.id(), y.id());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c1 = base_config();
        let mut c2 = base_config();
        c2.seed = 12;
        let a = SubscriptionWorkload::new(&c1).unwrap().take(20);
        let b = SubscriptionWorkload::new(&c2).unwrap().take(20);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.grid_bounds() != y.grid_bounds()));
    }

    #[test]
    fn ids_are_monotone_and_start_at_one() {
        let mut w = SubscriptionWorkload::new(&base_config()).unwrap();
        let subs = w.take(10);
        for (i, s) in subs.iter().enumerate() {
            assert_eq!(s.id(), i as u64 + 1);
        }
    }

    #[test]
    fn subscriptions_stay_inside_the_domain() {
        for dist in [
            CenterDistribution::Uniform,
            CenterDistribution::Zipf { exponent: 1.2 },
            CenterDistribution::Clustered {
                clusters: 4,
                spread: 0.05,
            },
        ] {
            let c = WorkloadConfig::builder()
                .attributes(2)
                .center_distribution(dist)
                .seed(5)
                .build()
                .unwrap();
            let mut w = SubscriptionWorkload::new(&c).unwrap();
            for s in w.take(200) {
                for &(lo, hi) in s.raw_bounds() {
                    assert!(lo >= 0.0 && hi <= WorkloadConfig::DOMAIN_MAX && lo <= hi);
                }
            }
        }
    }

    #[test]
    fn equal_sides_model_produces_small_aspect_ratio() {
        let c = WorkloadConfig::builder()
            .attributes(3)
            .bits_per_attribute(12)
            .width_model(WidthModel::EqualSides { min: 0.2, max: 0.2 })
            .seed(9)
            .build()
            .unwrap();
        let mut w = SubscriptionWorkload::new(&c).unwrap();
        for s in w.take(50) {
            // Clipping at the domain boundary can shave a bit off, so allow
            // aspect ratio 1.
            assert!(s.aspect_ratio() <= 1, "aspect ratio {}", s.aspect_ratio());
        }
    }

    #[test]
    fn skewed_aspect_model_hits_the_requested_ratio() {
        let alpha = 4u32;
        let c = WorkloadConfig::builder()
            .attributes(3)
            .bits_per_attribute(12)
            .width_model(WidthModel::SkewedAspect {
                wide_fraction: 0.5,
                alpha_bits: alpha,
            })
            .seed(3)
            .build()
            .unwrap();
        let mut w = SubscriptionWorkload::new(&c).unwrap();
        let mut ratios = Vec::new();
        for s in w.take(50) {
            ratios.push(s.aspect_ratio());
        }
        let mean: f64 = ratios.iter().map(|&r| r as f64).sum::<f64>() / ratios.len() as f64;
        assert!(
            (mean - alpha as f64).abs() <= 1.5,
            "mean aspect ratio {mean} vs requested {alpha}"
        );
    }

    #[test]
    fn zipf_centers_are_skewed_toward_low_values() {
        let c = WorkloadConfig::builder()
            .attributes(1)
            .center_distribution(CenterDistribution::Zipf { exponent: 1.5 })
            .width_model(WidthModel::UniformFraction {
                min: 0.01,
                max: 0.02,
            })
            .seed(21)
            .build()
            .unwrap();
        let mut w = SubscriptionWorkload::new(&c).unwrap();
        let subs = w.take(500);
        let low_half = subs
            .iter()
            .filter(|s| s.raw_bounds()[0].0 < WorkloadConfig::DOMAIN_MAX / 2.0)
            .count();
        assert!(
            low_half > 400,
            "zipf workload should concentrate in the low half, got {low_half}/500"
        );
    }
}

//! Workload configuration: what the subscription and event populations look
//! like.

use crate::error::WorkloadError;
use crate::Result;

/// How subscription (and event) centers are distributed over the attribute
/// space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CenterDistribution {
    /// Centers are uniform over the whole domain of every attribute.
    Uniform,
    /// Centers follow a Zipf distribution per attribute: low attribute values
    /// are much more popular than high ones (models skewed interest, e.g. a
    /// few hot stock symbols).
    Zipf {
        /// The Zipf exponent (`s > 0`); larger means more skew.
        exponent: f64,
    },
    /// Centers are drawn around `clusters` randomly-placed hot spots with the
    /// given relative spread (fraction of the domain used as the standard
    /// deviation of a rounded Gaussian).
    Clustered {
        /// Number of hot spots.
        clusters: usize,
        /// Spread of each cluster as a fraction of the domain width.
        spread: f64,
    },
}

/// How subscription widths (one per attribute) are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WidthModel {
    /// Every attribute's width is a uniform fraction of its domain drawn from
    /// `[min, max]`.
    UniformFraction {
        /// Minimum width as a fraction of the domain, in `(0, 1]`.
        min: f64,
        /// Maximum width as a fraction of the domain, in `(0, 1]`.
        max: f64,
    },
    /// All attributes share the same width fraction per subscription
    /// (aspect ratio ≈ 0), drawn uniformly from `[min, max]`.
    EqualSides {
        /// Minimum width as a fraction of the domain, in `(0, 1]`.
        min: f64,
        /// Maximum width as a fraction of the domain, in `(0, 1]`.
        max: f64,
    },
    /// One designated attribute is `2^alpha_bits` times narrower than the
    /// others, producing query rectangles with a controlled aspect ratio
    /// (used by the aspect-ratio experiment, E9).
    SkewedAspect {
        /// Width fraction of the wide attributes, in `(0, 1]`.
        wide_fraction: f64,
        /// Aspect ratio in bits: the narrow attribute is `2^alpha_bits`
        /// narrower.
        alpha_bits: u32,
    },
}

/// Full description of a synthetic workload.
///
/// Build one through [`WorkloadConfig::builder`]; the generated schema has
/// `attributes` attributes named `attr0`, `attr1`, … each with domain
/// `[0, 1_000_000]` and `bits_per_attribute` bits of quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of subscription attributes β.
    pub attributes: usize,
    /// Quantization precision per attribute.
    pub bits_per_attribute: u32,
    /// Distribution of subscription/event centers.
    pub center_distribution: CenterDistribution,
    /// Model for subscription widths.
    pub width_model: WidthModel,
    /// RNG seed; the same seed always reproduces the same workload.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Starts building a configuration.
    pub fn builder() -> WorkloadConfigBuilder {
        WorkloadConfigBuilder::default()
    }

    /// The upper end of every attribute's domain.
    pub const DOMAIN_MAX: f64 = 1_000_000.0;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<()> {
        if self.attributes == 0 || self.attributes > 16 {
            return Err(WorkloadError::InvalidConfig {
                reason: format!("attributes must be in 1..=16, got {}", self.attributes),
            });
        }
        if self.bits_per_attribute == 0 || self.bits_per_attribute > 20 {
            return Err(WorkloadError::InvalidConfig {
                reason: format!(
                    "bits_per_attribute must be in 1..=20, got {}",
                    self.bits_per_attribute
                ),
            });
        }
        match self.center_distribution {
            CenterDistribution::Zipf { exponent } if exponent <= 0.0 => {
                return Err(WorkloadError::InvalidConfig {
                    reason: format!("zipf exponent must be positive, got {exponent}"),
                });
            }
            CenterDistribution::Clustered { clusters, spread } => {
                if clusters == 0 {
                    return Err(WorkloadError::InvalidConfig {
                        reason: "clustered distribution needs at least one cluster".into(),
                    });
                }
                if !(spread > 0.0 && spread <= 1.0) {
                    return Err(WorkloadError::InvalidConfig {
                        reason: format!("cluster spread must be in (0, 1], got {spread}"),
                    });
                }
            }
            _ => {}
        }
        let check_fraction = |name: &str, v: f64| -> Result<()> {
            if !(v > 0.0 && v <= 1.0) {
                return Err(WorkloadError::InvalidConfig {
                    reason: format!("{name} must be in (0, 1], got {v}"),
                });
            }
            Ok(())
        };
        match self.width_model {
            WidthModel::UniformFraction { min, max } | WidthModel::EqualSides { min, max } => {
                check_fraction("width min", min)?;
                check_fraction("width max", max)?;
                if min > max {
                    return Err(WorkloadError::InvalidConfig {
                        reason: format!("width min {min} exceeds max {max}"),
                    });
                }
            }
            WidthModel::SkewedAspect {
                wide_fraction,
                alpha_bits,
            } => {
                check_fraction("wide_fraction", wide_fraction)?;
                if alpha_bits >= self.bits_per_attribute {
                    return Err(WorkloadError::InvalidConfig {
                        reason: format!(
                            "alpha_bits {alpha_bits} must be smaller than bits_per_attribute {}",
                            self.bits_per_attribute
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct WorkloadConfigBuilder {
    attributes: usize,
    bits_per_attribute: u32,
    center_distribution: CenterDistribution,
    width_model: WidthModel,
    seed: u64,
}

impl Default for WorkloadConfigBuilder {
    fn default() -> Self {
        WorkloadConfigBuilder {
            attributes: 2,
            bits_per_attribute: 10,
            center_distribution: CenterDistribution::Uniform,
            width_model: WidthModel::UniformFraction {
                min: 0.05,
                max: 0.5,
            },
            seed: 42,
        }
    }
}

impl WorkloadConfigBuilder {
    /// Sets the number of attributes β.
    pub fn attributes(mut self, attributes: usize) -> Self {
        self.attributes = attributes;
        self
    }

    /// Sets the quantization precision per attribute.
    pub fn bits_per_attribute(mut self, bits: u32) -> Self {
        self.bits_per_attribute = bits;
        self
    }

    /// Sets the center distribution.
    pub fn center_distribution(mut self, d: CenterDistribution) -> Self {
        self.center_distribution = d;
        self
    }

    /// Sets the width model.
    pub fn width_model(mut self, w: WidthModel) -> Self {
        self.width_model = w;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn build(self) -> Result<WorkloadConfig> {
        let config = WorkloadConfig {
            attributes: self.attributes,
            bits_per_attribute: self.bits_per_attribute,
            center_distribution: self.center_distribution,
            width_model: self.width_model,
            seed: self.seed,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = WorkloadConfig::builder().build().unwrap();
        assert_eq!(c.attributes, 2);
        assert_eq!(c.bits_per_attribute, 10);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(WorkloadConfig::builder().attributes(0).build().is_err());
        assert!(WorkloadConfig::builder().attributes(17).build().is_err());
        assert!(WorkloadConfig::builder()
            .bits_per_attribute(0)
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .bits_per_attribute(21)
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .center_distribution(CenterDistribution::Zipf { exponent: 0.0 })
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .center_distribution(CenterDistribution::Clustered {
                clusters: 0,
                spread: 0.1
            })
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .width_model(WidthModel::UniformFraction { min: 0.5, max: 0.1 })
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .width_model(WidthModel::UniformFraction { min: 0.0, max: 0.1 })
            .build()
            .is_err());
        assert!(WorkloadConfig::builder()
            .bits_per_attribute(8)
            .width_model(WidthModel::SkewedAspect {
                wide_fraction: 0.5,
                alpha_bits: 8
            })
            .build()
            .is_err());
    }
}

//! Range predicates: the per-attribute constraints a subscription is made
//! of.
//!
//! The paper considers subscriptions that are conjunctions of range
//! constraints, one per attribute — e.g. `volume > 500 AND current < 95`.
//! A [`RangePredicate`] is a closed interval `[low, high]` over one named
//! attribute; open-ended comparisons are expressed by leaving one side at the
//! attribute's domain boundary.

use std::fmt;

use crate::error::SubscriptionError;
use crate::schema::Schema;
use crate::Result;

/// A closed-interval constraint `low ≤ attribute ≤ high` on one attribute.
///
/// # Example
///
/// ```
/// use acd_subscription::RangePredicate;
///
/// let p = RangePredicate::between("price", 10.0, 95.0).unwrap();
/// assert!(p.accepts(42.0));
/// assert!(!p.accepts(95.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RangePredicate {
    attribute: String,
    low: f64,
    high: f64,
}

impl RangePredicate {
    /// Creates the constraint `low ≤ attribute ≤ high`.
    ///
    /// # Errors
    ///
    /// Returns [`SubscriptionError::EmptyRange`] if `low > high` or either
    /// bound is not finite.
    pub fn between(attribute: impl Into<String>, low: f64, high: f64) -> Result<Self> {
        let attribute = attribute.into();
        if !low.is_finite() || !high.is_finite() || low > high {
            return Err(SubscriptionError::EmptyRange {
                attribute,
                low,
                high,
            });
        }
        Ok(RangePredicate {
            attribute,
            low,
            high,
        })
    }

    /// The constraint `attribute ≥ low`, with the upper end left at the
    /// schema's domain maximum.
    pub fn at_least(schema: &Schema, attribute: impl Into<String>, low: f64) -> Result<Self> {
        let attribute = attribute.into();
        let idx = schema.attribute_index(&attribute)?;
        let max = schema.attributes()[idx].max();
        Self::between(attribute, low, max)
    }

    /// The constraint `attribute ≤ high`, with the lower end left at the
    /// schema's domain minimum.
    pub fn at_most(schema: &Schema, attribute: impl Into<String>, high: f64) -> Result<Self> {
        let attribute = attribute.into();
        let idx = schema.attribute_index(&attribute)?;
        let min = schema.attributes()[idx].min();
        Self::between(attribute, min, high)
    }

    /// The equality constraint `attribute = value`.
    pub fn equals(attribute: impl Into<String>, value: f64) -> Result<Self> {
        Self::between(attribute, value, value)
    }

    /// The unconstrained predicate covering the attribute's whole domain.
    pub fn any(schema: &Schema, attribute: impl Into<String>) -> Result<Self> {
        let attribute = attribute.into();
        let idx = schema.attribute_index(&attribute)?;
        let def = &schema.attributes()[idx];
        Self::between(attribute, def.min(), def.max())
    }

    /// The attribute this predicate constrains.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Lower bound (inclusive).
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound (inclusive).
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Whether a raw value satisfies the constraint.
    pub fn accepts(&self, value: f64) -> bool {
        value >= self.low && value <= self.high
    }

    /// Whether this predicate accepts every value that `other` accepts
    /// (interval containment).
    pub fn covers(&self, other: &RangePredicate) -> bool {
        self.attribute == other.attribute && self.low <= other.low && self.high >= other.high
    }

    /// Width of the interval in raw units.
    pub fn width(&self) -> f64 {
        self.high - self.low
    }
}

impl fmt::Display for RangePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in [{}, {}]", self.attribute, self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("volume", 0.0, 1000.0)
            .attribute("price", -50.0, 50.0)
            .bits_per_attribute(8)
            .build()
            .unwrap()
    }

    #[test]
    fn between_validates_bounds() {
        assert!(RangePredicate::between("a", 1.0, 2.0).is_ok());
        assert!(RangePredicate::between("a", 2.0, 2.0).is_ok());
        assert!(matches!(
            RangePredicate::between("a", 3.0, 2.0),
            Err(SubscriptionError::EmptyRange { .. })
        ));
        assert!(RangePredicate::between("a", f64::NAN, 2.0).is_err());
        assert!(RangePredicate::between("a", 0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn convenience_constructors_use_schema_domains() {
        let s = schema();
        let ge = RangePredicate::at_least(&s, "volume", 500.0).unwrap();
        assert_eq!((ge.low(), ge.high()), (500.0, 1000.0));
        let le = RangePredicate::at_most(&s, "price", 95.0).unwrap();
        assert_eq!((le.low(), le.high()), (-50.0, 95.0));
        let eq = RangePredicate::equals("price", 7.0).unwrap();
        assert!(eq.accepts(7.0) && !eq.accepts(7.1));
        let any = RangePredicate::any(&s, "volume").unwrap();
        assert_eq!(any.width(), 1000.0);
        assert!(RangePredicate::at_least(&s, "missing", 1.0).is_err());
    }

    #[test]
    fn accepts_is_inclusive_on_both_ends() {
        let p = RangePredicate::between("x", 1.0, 3.0).unwrap();
        assert!(p.accepts(1.0));
        assert!(p.accepts(3.0));
        assert!(!p.accepts(0.999));
        assert!(!p.accepts(3.001));
    }

    #[test]
    fn covering_is_interval_containment_on_the_same_attribute() {
        let wide = RangePredicate::between("x", 0.0, 10.0).unwrap();
        let narrow = RangePredicate::between("x", 2.0, 8.0).unwrap();
        let other_attr = RangePredicate::between("y", 2.0, 8.0).unwrap();
        assert!(wide.covers(&narrow));
        assert!(wide.covers(&wide), "covering is reflexive");
        assert!(!narrow.covers(&wide));
        assert!(!wide.covers(&other_attr));
    }

    #[test]
    fn display_is_readable() {
        let p = RangePredicate::between("volume", 500.0, 1000.0).unwrap();
        assert_eq!(p.to_string(), "volume in [500, 1000]");
    }
}

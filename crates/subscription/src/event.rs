//! Events: published messages, i.e. points in attribute space.

use std::fmt;

use acd_sfc::{Point, Universe};

use crate::error::SubscriptionError;
use crate::schema::Schema;
use crate::Result;

/// A published message: one raw value per schema attribute.
///
/// # Example
///
/// ```
/// use acd_subscription::{Schema, Event};
/// # fn main() -> Result<(), acd_subscription::SubscriptionError> {
/// let schema = Schema::builder()
///     .attribute("volume", 0.0, 10_000.0)
///     .attribute("price", 0.0, 500.0)
///     .build()?;
/// let event = Event::new(&schema, vec![1_000.0, 88.0])?;
/// assert_eq!(event.value(1), 88.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    schema: Schema,
    values: Vec<f64>,
}

impl Event {
    /// Creates an event with one value per schema attribute, in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`SubscriptionError::ArityMismatch`] if the number of values
    /// does not match the schema and
    /// [`SubscriptionError::ValueOutOfDomain`] if any value lies outside its
    /// attribute's domain.
    pub fn new(schema: &Schema, values: Vec<f64>) -> Result<Self> {
        if values.len() != schema.arity() {
            return Err(SubscriptionError::ArityMismatch {
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            schema.check_value(i, v)?;
        }
        Ok(Event {
            schema: schema.clone(),
            values,
        })
    }

    /// The schema this event was built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The raw value of attribute `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn value(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// All raw values in attribute declaration order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The event as a point on the β-dimensional quantization grid.
    ///
    /// # Errors
    ///
    /// Returns an error if any value fails to quantize (cannot happen for an
    /// event constructed through [`Event::new`]).
    pub fn grid_point(&self) -> Result<Point> {
        let coords: Result<Vec<u64>> = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| self.schema.quantize(i, v))
            .collect();
        Ok(Point::new(coords?).expect("schemas have at least one attribute"))
    }

    /// The β-dimensional universe events of this schema live in.
    pub fn universe(&self) -> Universe {
        Universe::new(self.schema.arity(), self.schema.bits_per_attribute())
            .expect("schema arity and precision are validated at construction")
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (a, v)) in self
            .schema
            .attributes()
            .iter()
            .zip(self.values.iter())
            .enumerate()
        {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", a.name(), v)?;
        }
        write!(f, "]")
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
    fn construction_validates_arity_and_domain() {
        let s = schema();
        assert!(Event::new(&s, vec![10.0, 0.0]).is_ok());
        assert!(matches!(
            Event::new(&s, vec![10.0]),
            Err(SubscriptionError::ArityMismatch { .. })
        ));
        assert!(matches!(
            Event::new(&s, vec![10.0, 100.0]),
            Err(SubscriptionError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn grid_point_matches_schema_quantization() {
        let s = schema();
        let e = Event::new(&s, vec![1000.0, -50.0]).unwrap();
        let p = e.grid_point().unwrap();
        assert_eq!(p.coords(), &[255, 0]);
        assert_eq!(e.universe().dims(), 2);
        assert_eq!(e.universe().bits_per_dim(), 8);
    }

    #[test]
    fn accessors_and_display() {
        let s = schema();
        let e = Event::new(&s, vec![500.0, 7.5]).unwrap();
        assert_eq!(e.value(0), 500.0);
        assert_eq!(e.values(), &[500.0, 7.5]);
        assert_eq!(e.to_string(), "[volume = 500, price = 7.5]");
        assert_eq!(e.schema(), &s);
    }
}

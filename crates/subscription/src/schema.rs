//! Schemas: the set of numeric attributes messages carry and the discrete
//! grid they are quantized onto.
//!
//! The paper assumes "each message has β numerical attributes" drawn from a
//! bounded domain that is discretized to `2^k` values per attribute. A
//! [`Schema`] records the attribute names, their real-valued domains and the
//! number of quantization bits `k`; it owns the mapping between raw attribute
//! values (`f64`) and grid coordinates (`u64`) that the SFC index operates
//! on.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::error::SubscriptionError;
use crate::Result;

/// Maximum number of attributes a schema may declare.
///
/// The dominance transform doubles the dimensionality, and the SFC substrate
/// supports up to 64 dimensions, so schemas are capped at 32 attributes.
pub const MAX_ATTRIBUTES: usize = 32;

/// One attribute: a name plus a closed real-valued domain `[min, max]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttributeDef {
    name: String,
    min: f64,
    max: f64,
}

impl AttributeDef {
    /// Creates an attribute definition.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is empty, the bounds are not finite or
    /// `min >= max`.
    pub fn new(name: impl Into<String>, min: f64, max: f64) -> Result<Self> {
        let name = name.into();
        if name.is_empty() {
            return Err(SubscriptionError::InvalidSchema {
                reason: "attribute names must be non-empty".into(),
            });
        }
        if !min.is_finite() || !max.is_finite() || min >= max {
            return Err(SubscriptionError::InvalidSchema {
                reason: format!("attribute `{name}` has an invalid domain [{min}, {max}]"),
            });
        }
        Ok(AttributeDef { name, min, max })
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lower end of the attribute's domain.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper end of the attribute's domain.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// The message schema: an ordered list of attributes plus the quantization
/// precision.
///
/// Schemas are immutable and cheaply cloneable ([`Arc`]-backed); equality is
/// structural. Two subscriptions can only be compared (matched, covered,
/// indexed) when they were built against equal schemas.
#[derive(Debug, Clone, Serialize)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        // Clones share the same inner allocation, so the common "same
        // schema object" case is a pointer compare, not a structural walk
        // over attribute names — this runs once per covering query.
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

impl Eq for Schema {}

#[derive(Debug, Clone, PartialEq, Serialize)]
struct SchemaInner {
    attributes: Vec<AttributeDef>,
    bits_per_attribute: u32,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Number of attributes β.
    pub fn arity(&self) -> usize {
        self.inner.attributes.len()
    }

    /// Quantization precision `k` in bits per attribute.
    pub fn bits_per_attribute(&self) -> u32 {
        self.inner.bits_per_attribute
    }

    /// Number of grid cells per attribute, `2^k`.
    pub fn grid_size(&self) -> u64 {
        1u64 << self.inner.bits_per_attribute
    }

    /// The attribute definitions in declaration order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.inner.attributes
    }

    /// Looks up an attribute index by name.
    ///
    /// # Errors
    ///
    /// Returns [`SubscriptionError::UnknownAttribute`] if no attribute has
    /// that name.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.inner
            .attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| SubscriptionError::UnknownAttribute { name: name.into() })
    }

    /// Quantizes a raw attribute value to its grid coordinate in
    /// `0..2^k`.
    ///
    /// Values are clamped-free: out-of-domain values are rejected rather than
    /// clamped, so that a subscription's semantics are never silently
    /// altered.
    ///
    /// # Errors
    ///
    /// Returns [`SubscriptionError::ValueOutOfDomain`] if the value lies
    /// outside the attribute's declared domain and
    /// [`SubscriptionError::UnknownAttribute`] if the index is out of range.
    pub fn quantize(&self, attribute: usize, value: f64) -> Result<u64> {
        let def = self.check_value(attribute, value)?;
        Ok(self.cell(def, value))
    }

    /// The definition of `attribute`, once `value` is known to lie in its
    /// domain: the one domain rule events, subscriptions and
    /// [`quantize`](Self::quantize) obey.
    pub(crate) fn check_value(&self, attribute: usize, value: f64) -> Result<&AttributeDef> {
        let def = self.attribute_def(attribute)?;
        if !value.is_finite() || value < def.min || value > def.max {
            return Err(SubscriptionError::ValueOutOfDomain {
                attribute: def.name.clone(),
                value,
                min: def.min,
                max: def.max,
            });
        }
        Ok(def)
    }

    /// The grid cell of `value`, which lies in `def`'s domain:
    /// [`quantize`](Self::quantize) without the check.
    pub(crate) fn cell(&self, def: &AttributeDef, value: f64) -> u64 {
        let cells = self.grid_size();
        // In [0, 1], so truncation is the floor, without the libm call
        // `f64::floor` compiles to on baseline x86-64.
        let normalized = (value - def.min) / (def.max - def.min);
        let cell = (normalized * cells as f64) as u64;
        cell.min(cells - 1)
    }

    /// The raw value at the lower edge of grid cell `cell` of `attribute`.
    ///
    /// # Errors
    ///
    /// Returns an error if the attribute index is out of range.
    pub fn dequantize(&self, attribute: usize, cell: u64) -> Result<f64> {
        let def = self.attribute_def(attribute)?;
        let cells = self.grid_size();
        let span = def.max - def.min;
        Ok(def.min + (cell.min(cells - 1) as f64 / cells as f64) * span)
    }

    fn attribute_def(&self, index: usize) -> Result<&AttributeDef> {
        self.inner
            .attributes
            .get(index)
            .ok_or_else(|| SubscriptionError::UnknownAttribute {
                name: format!("#{index}"),
            })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema(")?;
        for (i, a) in self.inner.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:[{}, {}]", a.name, a.min, a.max)?;
        }
        write!(f, "; {} bits)", self.inner.bits_per_attribute)
    }
}

/// Decodes through [`SchemaBuilder`], so a decoded schema obeys its rules.
impl Deserialize for Schema {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
            let map = v
                .as_map()
                .ok_or_else(|| serde::Error::custom("expected a map"))?;
            T::from_value(serde::get_field(map, name))
        }
        let inner: Value = field(v, "inner")?;
        let mut builder =
            Schema::builder().bits_per_attribute(field(&inner, "bits_per_attribute")?);
        for a in field::<Vec<Value>>(&inner, "attributes")? {
            builder = builder.attribute(
                field::<String>(&a, "name")?,
                field(&a, "min")?,
                field(&a, "max")?,
            );
        }
        builder.build().map_err(serde::Error::custom)
    }
}

/// Builder for [`Schema`].
///
/// # Example
///
/// ```
/// use acd_subscription::Schema;
/// # fn main() -> Result<(), acd_subscription::SubscriptionError> {
/// let schema = Schema::builder()
///     .attribute("temperature", -40.0, 60.0)
///     .attribute("humidity", 0.0, 100.0)
///     .bits_per_attribute(12)
///     .build()?;
/// assert_eq!(schema.arity(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct SchemaBuilder {
    attributes: Vec<Result<AttributeDef>>,
    bits_per_attribute: Option<u32>,
}

impl SchemaBuilder {
    /// Adds an attribute with the given real-valued domain.
    pub fn attribute(mut self, name: impl Into<String>, min: f64, max: f64) -> Self {
        self.attributes.push(AttributeDef::new(name, min, max));
        self
    }

    /// Sets the quantization precision in bits per attribute (default 16).
    pub fn bits_per_attribute(mut self, bits: u32) -> Self {
        self.bits_per_attribute = Some(bits);
        self
    }

    /// Builds the schema.
    ///
    /// # Errors
    ///
    /// Returns [`SubscriptionError::InvalidSchema`] if no attributes were
    /// declared, more than [`MAX_ATTRIBUTES`] were declared, names collide,
    /// any domain is invalid, or the precision is outside `1..=31` bits.
    pub fn build(self) -> Result<Schema> {
        let mut attributes = Vec::with_capacity(self.attributes.len());
        for a in self.attributes {
            attributes.push(a?);
        }
        if attributes.is_empty() {
            return Err(SubscriptionError::InvalidSchema {
                reason: "a schema needs at least one attribute".into(),
            });
        }
        if attributes.len() > MAX_ATTRIBUTES {
            return Err(SubscriptionError::InvalidSchema {
                reason: format!(
                    "a schema may declare at most {MAX_ATTRIBUTES} attributes, got {}",
                    attributes.len()
                ),
            });
        }
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(SubscriptionError::InvalidSchema {
                    reason: format!("duplicate attribute name `{}`", a.name),
                });
            }
        }
        let bits = self.bits_per_attribute.unwrap_or(16);
        if bits == 0 || bits > 31 {
            return Err(SubscriptionError::InvalidSchema {
                reason: format!("bits per attribute must be in 1..=31, got {bits}"),
            });
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner {
                attributes,
                bits_per_attribute: bits,
            }),
        })
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
    fn builder_produces_expected_shape() {
        let s = schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.bits_per_attribute(), 8);
        assert_eq!(s.grid_size(), 256);
        assert_eq!(s.attributes()[0].name(), "volume");
        assert_eq!(s.attribute_index("price").unwrap(), 1);
        assert!(s.attribute_index("missing").is_err());
        assert!(s.to_string().contains("volume"));
    }

    #[test]
    fn builder_rejects_bad_schemas() {
        assert!(Schema::builder().build().is_err(), "no attributes");
        assert!(
            Schema::builder().attribute("a", 1.0, 1.0).build().is_err(),
            "degenerate domain"
        );
        assert!(
            Schema::builder()
                .attribute("a", 0.0, 1.0)
                .attribute("a", 0.0, 2.0)
                .build()
                .is_err(),
            "duplicate names"
        );
        assert!(
            Schema::builder()
                .attribute("a", 0.0, 1.0)
                .bits_per_attribute(0)
                .build()
                .is_err(),
            "zero precision"
        );
        assert!(
            Schema::builder()
                .attribute("a", 0.0, 1.0)
                .bits_per_attribute(32)
                .build()
                .is_err(),
            "too much precision"
        );
        let mut b = Schema::builder();
        for i in 0..=MAX_ATTRIBUTES {
            b = b.attribute(format!("a{i}"), 0.0, 1.0);
        }
        assert!(b.build().is_err(), "too many attributes");
    }

    #[test]
    fn quantization_spans_the_grid() {
        let s = schema();
        assert_eq!(s.quantize(0, 0.0).unwrap(), 0);
        assert_eq!(s.quantize(0, 1000.0).unwrap(), 255);
        assert_eq!(s.quantize(1, -50.0).unwrap(), 0);
        assert_eq!(s.quantize(1, 50.0).unwrap(), 255);
        // Mid-domain values land mid-grid.
        let mid = s.quantize(0, 500.0).unwrap();
        assert!((120..=135).contains(&mid));
    }

    #[test]
    fn quantization_is_monotone() {
        let s = schema();
        let mut prev = 0;
        for i in 0..=100 {
            let v = i as f64 * 10.0;
            let cell = s.quantize(0, v).unwrap();
            assert!(cell >= prev, "quantization must be monotone");
            prev = cell;
        }
    }

    #[test]
    fn quantize_rejects_out_of_domain_values() {
        let s = schema();
        assert!(matches!(
            s.quantize(0, -1.0),
            Err(SubscriptionError::ValueOutOfDomain { .. })
        ));
        assert!(s.quantize(0, 1000.1).is_err());
        assert!(s.quantize(0, f64::NAN).is_err());
        assert!(s.quantize(5, 0.0).is_err(), "attribute index out of range");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `quantize` truncates where it used to call `floor`: the cells
        /// agree at every precision, on random values and where a slip
        /// would show: the domain's ends, `-0.0`, and one ulp either side of
        /// a cell edge.
        #[test]
        fn truncation_agrees_with_floor(
            bits in 1u32..=31,
            zero_min in proptest::prelude::any::<bool>(),
            (low, width) in (-1e6f64..1e6, 1e-3f64..1e6),
            fractions in proptest::collection::vec(0.0f64..=1.0, 16),
            edges in proptest::collection::vec(0u64..1 << 31, 16),
        ) {
            let min = if zero_min { 0.0 } else { low };
            let max = min + width;
            let s = Schema::builder()
                .attribute("a", min, max)
                .bits_per_attribute(bits)
                .build()
                .unwrap();
            let cells = s.grid_size();
            let floor = |v: f64| {
                let cell = ((v - min) / (max - min) * cells as f64).floor() as u64;
                cell.min(cells - 1)
            };
            let mut values = vec![min, max, -0.0];
            values.extend(fractions.iter().map(|f| min + f * width));
            for edge in edges.iter().map(|&c| s.dequantize(0, c % cells).unwrap()) {
                values.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for v in values.into_iter().filter(|v| (min..=max).contains(v)) {
                let cell = s.quantize(0, v).unwrap();
                proptest::prop_assert_eq!(cell, floor(v), "{} bits, {}", bits, v);
            }
        }
    }

    #[test]
    fn dequantize_inverts_quantize_up_to_cell_width() {
        let s = schema();
        for v in [0.0, 1.3, 499.9, 731.0, 1000.0] {
            let cell = s.quantize(0, v).unwrap();
            let back = s.dequantize(0, cell).unwrap();
            let cell_width = 1000.0 / 256.0;
            assert!((back - v).abs() <= cell_width + 1e-9, "v={v} back={back}");
        }
    }

    #[test]
    fn schemas_compare_structurally() {
        let a = schema();
        let b = schema();
        assert_eq!(a, b);
        let c = Schema::builder()
            .attribute("volume", 0.0, 1000.0)
            .attribute("price", -50.0, 50.0)
            .bits_per_attribute(9)
            .build()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn serde_round_trip() {
        let s = schema();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            r#"{"inner":{"attributes":[{"name":"volume","min":0.0,"max":1000.0},{"name":"price","min":-50.0,"max":50.0}],"bits_per_attribute":8}}"#
        );
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // A decoded schema goes through the builder, so it is refused on the
        // builder's terms.
        let decode = |attributes: &[(&str, f64, f64)], bits: u32| {
            let attributes: Vec<String> = attributes
                .iter()
                .map(|(name, min, max)| format!(r#"{{"name":"{name}","min":{min},"max":{max}}}"#))
                .collect();
            let json = format!(
                r#"{{"inner":{{"attributes":[{}],"bits_per_attribute":{bits}}}}}"#,
                attributes.join(",")
            );
            serde_json::from_str::<Schema>(&json)
        };
        assert_eq!(decode(&[("a", 0.0, 1.0)], 8).unwrap().arity(), 1);
        let names: Vec<String> = (0..=MAX_ATTRIBUTES).map(|i| format!("a{i}")).collect();
        let too_many: Vec<_> = names.iter().map(|n| (n.as_str(), 0.0, 1.0)).collect();
        for (attributes, bits, why) in [
            (&[][..], 8, "no attributes"),
            (&too_many[..], 8, "too many attributes"),
            (&[("a", 1.0, 0.0)][..], 8, "inverted domain"),
            (
                &[("a", 0.0, 1.0), ("a", 0.0, 2.0)][..],
                8,
                "duplicate names",
            ),
            (&[("a", 0.0, 1.0)][..], 0, "zero precision"),
            (&[("a", 0.0, 1.0)][..], 64, "too much precision"),
        ] {
            assert!(decode(attributes, bits).is_err(), "{why}");
        }
    }
}

//! Subscriptions: conjunctions of per-attribute range constraints, i.e.
//! axis-aligned rectangles in attribute space.

use std::fmt;
use std::sync::Arc;

use acd_sfc::Rect;

use crate::error::SubscriptionError;
use crate::event::Event;
use crate::predicate::RangePredicate;
use crate::schema::Schema;
use crate::Result;

/// Identifier of a subscription, unique within the process that created it.
pub type SubId = u64;

/// A subscription: one closed range constraint per schema attribute.
///
/// Attributes the subscriber does not care about are constrained to their
/// full domain, so a subscription is always a full-dimensional rectangle —
/// exactly the model of the paper. Subscriptions are immutable once built;
/// construct them through [`crate::SubscriptionBuilder`] or
/// [`Subscription::from_predicates`].
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    id: SubId,
    schema: Schema,
    /// Per-attribute raw bounds `[low, high]` (inclusive), in attribute
    /// declaration order: the subscription's only allocation, shared by its
    /// clones. Everything derived from them, the grid cells and the
    /// dominance point, is computed where it is used
    /// ([`grid_cells`](Self::grid_cells)), never stored.
    raw_bounds: Arc<[(f64, f64)]>,
}

// Every routing table, offer and replay list holds subscriptions by value;
// a cached field would grow each of them.
const _: () = assert!(size_of::<Subscription>() <= 32);

impl Subscription {
    /// Builds a subscription from a set of predicates; unconstrained
    /// attributes default to their full domain.
    ///
    /// # Errors
    ///
    /// Returns an error if a predicate names an unknown attribute, the same
    /// attribute is constrained twice, or any bound is outside its domain.
    pub fn from_predicates(
        schema: &Schema,
        id: SubId,
        predicates: &[RangePredicate],
    ) -> Result<Self> {
        let mut bounds: Vec<Option<(f64, f64)>> = vec![None; schema.arity()];
        for p in predicates {
            let idx = schema.attribute_index(p.attribute())?;
            if bounds[idx].is_some() {
                return Err(SubscriptionError::DuplicateAttribute {
                    name: p.attribute().to_string(),
                });
            }
            bounds[idx] = Some((p.low(), p.high()));
        }
        let domains = bounds.iter().zip(schema.attributes());
        let bounds: Vec<(f64, f64)> = domains
            .map(|(maybe, def)| maybe.unwrap_or((def.min(), def.max())))
            .collect();
        Self::from_raw_bounds(schema, id, &bounds)
    }

    /// Builds a subscription from per-attribute raw bounds in schema
    /// declaration order, in one allocation: no predicate list, no
    /// attribute-name lookups. Bounds from a hostile source are checked as
    /// strictly as [`Subscription::from_predicates`] checks its own.
    ///
    /// # Errors
    ///
    /// Returns an error if `bounds.len()` differs from the schema arity,
    /// any range has `low > high`, or any bound is outside its domain.
    pub fn from_raw_bounds(schema: &Schema, id: SubId, bounds: &[(f64, f64)]) -> Result<Self> {
        let arity = schema.arity();
        if bounds.len() != arity {
            return Err(SubscriptionError::ArityMismatch {
                expected: arity,
                actual: bounds.len(),
            });
        }
        for (idx, &(low, high)) in bounds.iter().enumerate() {
            if low > high {
                return Err(SubscriptionError::EmptyRange {
                    attribute: schema.attributes()[idx].name().to_string(),
                    low,
                    high,
                });
            }
            schema.check_value(idx, low)?;
            schema.check_value(idx, high)?;
        }
        Ok(Subscription {
            id,
            schema: schema.clone(),
            raw_bounds: Arc::from(bounds),
        })
    }

    /// The subscription's identifier.
    pub fn id(&self) -> SubId {
        self.id
    }

    /// The schema the subscription was built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-attribute quantized bounds `[lo, hi]` (inclusive), each the
    /// [`Schema::quantize`] cell of its raw bound. Derived on each call
    /// without allocating.
    pub fn grid_cells(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        let domains = self.raw_bounds.iter().zip(self.schema.attributes());
        domains.map(|(&(low, high), def)| (self.schema.cell(def, low), self.schema.cell(def, high)))
    }

    /// [`grid_cells`](Self::grid_cells), collected.
    pub fn grid_bounds(&self) -> Vec<(u64, u64)> {
        self.grid_cells().collect()
    }

    /// Per-attribute raw bounds `[low, high]` (inclusive).
    pub fn raw_bounds(&self) -> &[(f64, f64)] {
        &self.raw_bounds
    }

    /// A copy of this subscription with a different identifier.
    pub fn with_id(&self, id: SubId) -> Subscription {
        Subscription { id, ..self.clone() }
    }

    /// The subscription as a rectangle on the quantization grid.
    pub fn grid_rect(&self) -> Rect {
        let (lo, hi) = self.grid_cells().unzip();
        Rect::new(lo, hi).expect("subscription bounds are validated at construction")
    }

    /// Whether the event satisfies every range constraint (the paper's
    /// `e ∈ N(s)`), evaluated on raw values. An event of a different schema
    /// matches nothing.
    pub fn matches(&self, event: &Event) -> bool {
        if event.schema() != &self.schema {
            return false;
        }
        self.raw_bounds
            .iter()
            .zip(event.values())
            .all(|(&(lo, hi), &v)| v >= lo && v <= hi)
    }

    /// Whether this subscription covers `other`, i.e. `N(self) ⊇ N(other)`:
    /// its raw bounds contain `other`'s on every attribute, so every event
    /// `other` [`matches`](Self::matches) this one matches too.
    ///
    /// Quantisation is monotone, so a cover is also a cover on the grid
    /// (`p(self)` dominates `p(other)`, see [`crate::dominance_point`]). The
    /// converse fails where both bounds of an attribute fall in one cell: the
    /// grid relation is a filter, and this is the verdict.
    pub fn covers(&self, other: &Subscription) -> bool {
        if other.schema != self.schema {
            return false;
        }
        self.raw_bounds
            .iter()
            .zip(other.raw_bounds.iter())
            .all(|(&(alo, ahi), &(blo, bhi))| alo <= blo && ahi >= bhi)
    }

    /// Selectivity of the subscription: the fraction of the grid volume it
    /// matches, in `(0, 1]`.
    pub fn selectivity(&self) -> f64 {
        let k = self.schema.bits_per_attribute() as f64;
        self.grid_cells()
            .map(|(lo, hi)| ((hi - lo + 1) as f64) / 2f64.powf(k))
            .product()
    }

    /// The aspect ratio (in bits) of the subscription's grid rectangle, per
    /// the paper's definition.
    pub fn aspect_ratio(&self) -> u32 {
        self.grid_rect().aspect_ratio()
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{} {{", self.id)?;
        for (i, (a, &(lo, hi))) in self
            .schema
            .attributes()
            .iter()
            .zip(self.raw_bounds.iter())
            .enumerate()
        {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} in [{}, {}]", a.name(), lo, hi)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("volume", 0.0, 1000.0)
            .attribute("price", 0.0, 100.0)
            .bits_per_attribute(10)
            .build()
            .unwrap()
    }

    fn sub(id: SubId, v: (f64, f64), p: (f64, f64)) -> Subscription {
        let s = schema();
        Subscription::from_predicates(
            &s,
            id,
            &[
                RangePredicate::between("volume", v.0, v.1).unwrap(),
                RangePredicate::between("price", p.0, p.1).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_fills_unconstrained_attributes() {
        let s = schema();
        let only_volume = Subscription::from_predicates(
            &s,
            7,
            &[RangePredicate::between("volume", 500.0, 800.0).unwrap()],
        )
        .unwrap();
        assert_eq!(only_volume.raw_bounds()[1], (0.0, 100.0));
        assert_eq!(only_volume.grid_bounds()[1], (0, 1023));
        assert_eq!(only_volume.id(), 7);
        // The cells are derived: each is its raw bound's `quantize` cell.
        let quantized = only_volume.raw_bounds().iter().enumerate();
        let quantized: Vec<(u64, u64)> = quantized
            .map(|(i, &(lo, hi))| (s.quantize(i, lo).unwrap(), s.quantize(i, hi).unwrap()))
            .collect();
        assert_eq!(only_volume.grid_bounds(), quantized);
    }

    #[test]
    fn construction_rejects_duplicates_and_unknowns() {
        let s = schema();
        let dup = Subscription::from_predicates(
            &s,
            1,
            &[
                RangePredicate::between("volume", 0.0, 1.0).unwrap(),
                RangePredicate::between("volume", 2.0, 3.0).unwrap(),
            ],
        );
        assert!(matches!(
            dup,
            Err(SubscriptionError::DuplicateAttribute { .. })
        ));
        let unknown = Subscription::from_predicates(
            &s,
            1,
            &[RangePredicate::between("pressure", 0.0, 1.0).unwrap()],
        );
        assert!(matches!(
            unknown,
            Err(SubscriptionError::UnknownAttribute { .. })
        ));
        let out = Subscription::from_predicates(
            &s,
            1,
            &[RangePredicate::between("volume", 0.0, 2000.0).unwrap()],
        );
        assert!(matches!(
            out,
            Err(SubscriptionError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn matching_follows_the_paper_example() {
        // Subscription [volume > 500, price < 95] matches the event
        // [volume = 1000, price = 88].
        let s = schema();
        let subscription = Subscription::from_predicates(
            &s,
            1,
            &[
                RangePredicate::at_least(&s, "volume", 500.0).unwrap(),
                RangePredicate::at_most(&s, "price", 95.0).unwrap(),
            ],
        )
        .unwrap();
        let event = Event::new(&s, vec![1000.0, 88.0]).unwrap();
        assert!(subscription.matches(&event));
        let too_cheap_volume = Event::new(&s, vec![400.0, 88.0]).unwrap();
        assert!(!subscription.matches(&too_cheap_volume));
        let too_expensive = Event::new(&s, vec![1000.0, 96.0]).unwrap();
        assert!(!subscription.matches(&too_expensive));
    }

    #[test]
    fn covering_is_rectangle_containment() {
        let wide = sub(1, (0.0, 1000.0), (0.0, 95.0));
        let narrow = sub(2, (100.0, 200.0), (10.0, 90.0));
        let overlapping = sub(3, (500.0, 1000.0), (90.0, 100.0));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide), "covering is reflexive");
        assert!(!wide.covers(&overlapping));
        assert!(!overlapping.covers(&wide));
    }

    #[test]
    fn covering_implies_matching_containment() {
        // If s1 covers s2 then every event matching s2 matches s1 — checked
        // on a grid of sample events.
        let s = schema();
        let s1 = sub(1, (100.0, 900.0), (5.0, 95.0));
        let s2 = sub(2, (200.0, 800.0), (20.0, 80.0));
        assert!(s1.covers(&s2));
        for i in 0..=20 {
            for j in 0..=20 {
                let e = Event::new(&s, vec![i as f64 * 50.0, j as f64 * 5.0]).unwrap();
                if s2.matches(&e) {
                    assert!(s1.matches(&e), "event {e} matched by s2 but not s1");
                }
            }
        }
    }

    #[test]
    fn subscriptions_from_different_schemas_never_interact() {
        let other_schema = Schema::builder()
            .attribute("volume", 0.0, 1000.0)
            .attribute("price", 0.0, 100.0)
            .bits_per_attribute(8) // different precision => different schema
            .build()
            .unwrap();
        let a = sub(1, (0.0, 1000.0), (0.0, 100.0));
        let b = Subscription::from_predicates(&other_schema, 2, &[]).unwrap();
        assert!(!a.covers(&b));
        let e = Event::new(&other_schema, vec![1.0, 1.0]).unwrap();
        assert!(!a.matches(&e));
    }

    #[test]
    fn selectivity_and_aspect_ratio() {
        let full = sub(1, (0.0, 1000.0), (0.0, 100.0));
        assert!((full.selectivity() - 1.0).abs() < 1e-9);
        let half = sub(2, (0.0, 500.0), (0.0, 100.0));
        assert!(half.selectivity() > 0.4 && half.selectivity() < 0.6);
        assert!(half.aspect_ratio() >= 1);
        let square = sub(3, (0.0, 500.0), (0.0, 50.0));
        assert_eq!(square.aspect_ratio(), 0);
    }

    #[test]
    fn from_raw_bounds_agrees_with_the_builder_path() {
        let s = schema();
        let via_predicates = sub(11, (100.0, 900.0), (5.0, 95.0));
        let via_bounds =
            Subscription::from_raw_bounds(&s, 11, &[(100.0, 900.0), (5.0, 95.0)]).unwrap();
        assert_eq!(via_bounds, via_predicates);

        assert!(matches!(
            Subscription::from_raw_bounds(&s, 1, &[(0.0, 1.0)]),
            Err(SubscriptionError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            Subscription::from_raw_bounds(&s, 1, &[(9.0, 3.0), (0.0, 100.0)]),
            Err(SubscriptionError::EmptyRange { .. })
        ));
        assert!(matches!(
            Subscription::from_raw_bounds(&s, 1, &[(0.0, 2000.0), (0.0, 100.0)]),
            Err(SubscriptionError::ValueOutOfDomain { .. })
        ));
    }

    #[test]
    fn grid_rect_and_with_id() {
        let a = sub(9, (0.0, 1000.0), (0.0, 100.0));
        assert_eq!(a.grid_rect().side_lengths(), vec![1024, 1024]);
        let b = a.with_id(10);
        assert_eq!(b.id(), 10);
        assert_eq!(a.grid_bounds(), b.grid_bounds());
        assert!(a.to_string().contains("sub#9"));
    }
}

//! The Edelsbrunner–Overmars transform: rectangle enclosure as point
//! dominance.
//!
//! The paper (Section 1.1) reduces subscription covering to point dominance:
//! a β-dimensional subscription `s = ([ℓ_1, r_1], …, [ℓ_β, r_β])` is mapped
//! to the 2β-dimensional point `p(s) = (−ℓ_1, r_1, …, −ℓ_β, r_β)`; then `s1`
//! covers `s2` iff every coordinate of `p(s1)` is at least the corresponding
//! coordinate of `p(s2)`.
//!
//! This crate works on an unsigned grid, so the negation `−ℓ_i` is realized
//! as the mirror `(2^k − 1) − ℓ_i`, which preserves the order reversal the
//! transform needs. The dominance universe therefore has `d = 2β` dimensions
//! with the same `k` bits per dimension as the schema grid. On the grid,
//! dominance is containment of the quantized rectangles: every
//! [`Subscription::covers`] pair dominates, but a pair whose bounds share a
//! cell can dominate without covering, so dominance filters candidates and
//! the raw bounds confirm them.

use acd_sfc::{Point, Universe};

use crate::schema::Schema;
use crate::subscription::Subscription;
use crate::Result;

/// The `2β`-dimensional universe that dominance points of subscriptions over
/// `schema` live in.
///
/// # Errors
///
/// Returns an error if the schema's shape exceeds the SFC substrate's limits
/// (cannot happen for schemas built through [`Schema::builder`]).
pub fn dominance_universe(schema: &Schema) -> Result<Universe> {
    Ok(Universe::new(
        schema.arity() * 2,
        schema.bits_per_attribute(),
    )?)
}

/// The Edelsbrunner–Overmars dominance point `p(s)` of a subscription.
///
/// Coordinate layout: for attribute `i` with quantized bounds `[ℓ_i, r_i]`,
/// dimension `2i` holds the mirrored lower bound `(2^k − 1) − ℓ_i` and
/// dimension `2i + 1` holds the upper bound `r_i`. With this layout,
/// `dominance_point(s1)` dominates `dominance_point(s2)` component-wise ⇔
/// `s1`'s quantized bounds contain `s2`'s, which `s1.covers(s2)` implies.
///
/// # Errors
///
/// Returns an error if the dominance universe cannot be constructed.
pub fn dominance_point(subscription: &Subscription) -> Result<Point> {
    let max = subscription.schema().grid_size() - 1;
    let cells = subscription.grid_cells();
    if cells.len() == 0 {
        return Err(acd_sfc::SfcError::Empty.into());
    }
    let dims = cells.len() * 2;
    let mut coords = cells.flat_map(|(lo, hi)| [max - lo, hi]);
    // `build` asks for each dimension once, in order.
    Ok(Point::build(dims, |_| coords.next().unwrap_or(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::RangePredicate;

    fn schema(bits: u32) -> Schema {
        Schema::builder()
            .attribute("a", 0.0, 1.0)
            .attribute("b", 0.0, 1.0)
            .attribute("c", 0.0, 1.0)
            .bits_per_attribute(bits)
            .build()
            .unwrap()
    }

    fn sub(schema: &Schema, id: u64, bounds: &[(f64, f64)]) -> Subscription {
        let predicates: Vec<RangePredicate> = schema
            .attributes()
            .iter()
            .zip(bounds)
            .map(|(a, &(lo, hi))| RangePredicate::between(a.name(), lo, hi).unwrap())
            .collect();
        Subscription::from_predicates(schema, id, &predicates).unwrap()
    }

    #[test]
    fn dominance_universe_doubles_the_dimensions() {
        let s = schema(6);
        let u = dominance_universe(&s).unwrap();
        assert_eq!(u.dims(), 6);
        assert_eq!(u.bits_per_dim(), 6);
    }

    #[test]
    fn dominance_point_layout() {
        let s = schema(4);
        // Bounds chosen so quantized cells are easy to compute: grid 16.
        let sub = sub(&s, 1, &[(0.0, 1.0), (0.25, 0.5), (0.5, 0.75)]);
        let p = dominance_point(&sub).unwrap();
        let gb = sub.grid_bounds();
        assert_eq!(p.dims(), 6);
        for (i, &(lo, hi)) in gb.iter().enumerate() {
            assert_eq!(p.coord(2 * i), 15 - lo);
            assert_eq!(p.coord(2 * i + 1), hi);
        }
    }

    /// Whether `a`'s quantized bounds contain `b`'s on every attribute.
    fn grid_contains(a: &Subscription, b: &Subscription) -> bool {
        let mut bounds = a.grid_cells().zip(b.grid_cells());
        bounds.all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    #[test]
    fn grid_containment_iff_dominance() {
        // Exhaustive-ish check: for a sample of subscription pairs, grid
        // containment agrees exactly with dominance of the transformed
        // points, and a raw cover always dominates.
        let s = schema(5);
        let mut subs = Vec::new();
        let mut id = 0;
        for lo_a in [0.0, 0.2, 0.4] {
            for hi_a in [0.5, 0.8, 1.0] {
                for lo_b in [0.0, 0.3] {
                    for hi_b in [0.6, 1.0] {
                        id += 1;
                        subs.push(sub(&s, id, &[(lo_a, hi_a), (lo_b, hi_b), (0.1, 0.9)]));
                    }
                }
            }
        }
        for a in &subs {
            for b in &subs {
                let pa = dominance_point(a).unwrap();
                let pb = dominance_point(b).unwrap();
                assert_eq!(
                    grid_contains(a, b),
                    pa.dominates(&pb),
                    "containment/dominance mismatch for {a} vs {b}"
                );
                assert!(!a.covers(b) || pa.dominates(&pb), "{a} covers {b}");
            }
        }
    }

    #[test]
    fn bounds_in_one_cell_dominate_without_covering() {
        // Grid 32 on [0, 1]: both ranges span cells 6..=12 on every
        // attribute, so the points are equal, yet neither range holds the
        // other.
        let s = schema(5);
        let a = sub(&s, 1, &[(0.20, 0.39); 3]);
        let b = sub(&s, 2, &[(0.21, 0.40); 3]);
        let (pa, pb) = (dominance_point(&a).unwrap(), dominance_point(&b).unwrap());
        assert_eq!(pa, pb);
        assert!(!a.covers(&b) && !b.covers(&a));
    }

    #[test]
    fn full_domain_subscription_dominates_everything() {
        let s = schema(5);
        let full = sub(&s, 1, &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]);
        let p = dominance_point(&full).unwrap();
        let u = dominance_universe(&s).unwrap();
        assert_eq!(
            p,
            u.top_corner(),
            "the universal subscription maps to the top corner"
        );
    }
}

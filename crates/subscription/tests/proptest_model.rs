//! Property-based tests of the subscription data model and the
//! Edelsbrunner–Overmars transform.

use proptest::prelude::*;

use acd_subscription::{dominance_point, Event, RangePredicate, Schema, Subscription};

fn schema(attributes: usize, bits: u32) -> Schema {
    let mut builder = Schema::builder().bits_per_attribute(bits);
    for i in 0..attributes {
        builder = builder.attribute(format!("a{i}"), 0.0, 1000.0);
    }
    builder.build().unwrap()
}

/// Strategy for a subscription over `attributes` attributes: per-attribute
/// fractional bounds.
fn bounds_strategy(attributes: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), attributes).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| {
                let lo = a.min(b) * 1000.0;
                let hi = a.max(b) * 1000.0;
                (lo, hi)
            })
            .collect()
    })
}

/// Whether `a`'s quantized bounds contain `b`'s on every attribute.
fn grid_contains(a: &Subscription, b: &Subscription) -> bool {
    let mut bounds = a.grid_cells().zip(b.grid_cells());
    bounds.all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
}

fn build_sub(schema: &Schema, id: u64, bounds: &[(f64, f64)]) -> Subscription {
    let predicates: Vec<RangePredicate> = schema
        .attributes()
        .iter()
        .zip(bounds)
        .map(|(a, &(lo, hi))| RangePredicate::between(a.name(), lo, hi).unwrap())
        .collect();
    Subscription::from_predicates(schema, id, &predicates).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The EO transform preserves grid containment exactly: s1's quantized
    /// rectangle contains s2's iff p(s1) dominates p(s2). A raw cover is a
    /// grid cover, so it always dominates.
    #[test]
    fn grid_containment_iff_dominance(
        attrs in 1usize..=4,
        a in bounds_strategy(4),
        b in bounds_strategy(4),
    ) {
        let schema = schema(attrs, 8);
        let s1 = build_sub(&schema, 1, &a[..attrs]);
        let s2 = build_sub(&schema, 2, &b[..attrs]);
        let p1 = dominance_point(&s1).unwrap();
        let p2 = dominance_point(&s2).unwrap();
        prop_assert_eq!(grid_contains(&s1, &s2), p1.dominates(&p2));
        prop_assert_eq!(grid_contains(&s2, &s1), p2.dominates(&p1));
        prop_assert!(!s1.covers(&s2) || p1.dominates(&p2));
        prop_assert!(!s2.covers(&s1) || p2.dominates(&p1));
    }

    /// Covering is sound with respect to matching: if s1 covers s2 then every
    /// event matched by s2 is matched by s1, on raw values and on the
    /// quantized grid alike.
    #[test]
    fn covering_implies_match_containment(
        a in bounds_strategy(2),
        b in bounds_strategy(2),
        events in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 32),
    ) {
        let schema = schema(2, 10);
        let s1 = build_sub(&schema, 1, &a);
        let s2 = build_sub(&schema, 2, &b);
        if s1.covers(&s2) {
            for (x, y) in events {
                let e = Event::new(&schema, vec![x, y]).unwrap();
                if s2.matches(&e) {
                    prop_assert!(s1.matches(&e), "event {:?} matched by s2 but not s1", (x, y));
                }
                // Compare on the grid: quantize the event's point and check
                // rectangle membership, which is what the router indexes.
                let p = e.grid_point().unwrap();
                let in_s2 = s2.grid_rect().contains_point(&p);
                let in_s1 = s1.grid_rect().contains_point(&p);
                if in_s2 {
                    prop_assert!(in_s1, "event {:?} in covered sub but not in covering sub", (x, y));
                }
            }
        }
    }

    /// Covering is reflexive and transitive on arbitrary subscription
    /// triples.
    #[test]
    fn covering_is_a_preorder(
        a in bounds_strategy(3),
        b in bounds_strategy(3),
        c in bounds_strategy(3),
    ) {
        let schema = schema(3, 8);
        let s1 = build_sub(&schema, 1, &a);
        let s2 = build_sub(&schema, 2, &b);
        let s3 = build_sub(&schema, 3, &c);
        prop_assert!(s1.covers(&s1));
        if s1.covers(&s2) && s2.covers(&s3) {
            prop_assert!(s1.covers(&s3));
        }
    }

    /// Quantization keeps events inside the subscriptions that match them in
    /// raw space, never the reverse direction (the grid rectangle of a
    /// subscription contains the grid point of every raw-matching event).
    #[test]
    fn quantization_is_conservative(
        bounds in bounds_strategy(2),
        events in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 16),
    ) {
        let schema = schema(2, 12);
        let sub = build_sub(&schema, 1, &bounds);
        for (x, y) in events {
            let e = Event::new(&schema, vec![x, y]).unwrap();
            if sub.matches(&e) {
                let p = e.grid_point().unwrap();
                prop_assert!(sub.grid_rect().contains_point(&p));
            }
        }
    }
}

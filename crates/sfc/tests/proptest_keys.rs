//! Property-based tests of the [`Key`] representations: the inline `u128`
//! layout and the spilled word-vector layout must be observationally
//! identical on every operation, across random widths — including the
//! 127/128-bit boundary where the layout switches — and the Z curve's
//! orthant seek built on inline keys must agree with a brute-force scan.

use proptest::prelude::*;

use acd_sfc::{Key, Point, Rect, SpaceFillingCurve, Universe, ZCurve};

/// Builds a key of arbitrary width from up to 192 random value bits: the
/// low 128 via `from_u128`, bits 128.. via `set_bit`.
fn key_from_parts(lo: u128, hi: u64, bits: u32) -> Key {
    let masked_lo = if bits >= 128 {
        lo
    } else {
        lo & ((1u128 << bits) - 1)
    };
    let mut key = Key::from_u128(masked_lo, bits);
    for b in 128..bits.min(192) {
        if (hi >> (b - 128)) & 1 == 1 {
            key.set_bit(b, true);
        }
    }
    key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All unary operations agree between the inline and spilled layouts,
    /// and mixed-layout comparison, equality and formatting are coherent.
    #[test]
    fn inline_and_spilled_layouts_agree(
        bits in 1u32..=192,
        lo in any::<u128>(),
        hi in any::<u64>(),
        low_bits in 0u32..=200,
    ) {
        let key = key_from_parts(lo, hi, bits);
        let spill = key.with_spilled_repr();
        prop_assert_eq!(key.repr_is_inline(), bits <= 128);
        prop_assert!(!spill.repr_is_inline());

        // Identity and ordering across layouts.
        prop_assert_eq!(&key, &spill);
        prop_assert_eq!(key.cmp(&spill), std::cmp::Ordering::Equal);
        prop_assert_eq!(key.is_zero(), spill.is_zero());
        prop_assert_eq!(key.to_u128(), spill.to_u128());

        // Bit accessors.
        for b in 0..bits {
            prop_assert_eq!(key.bit(b), spill.bit(b));
        }

        // Increment / decrement.
        prop_assert_eq!(key.successor(), spill.successor());
        prop_assert_eq!(key.predecessor(), spill.predecessor());

        // Low-bit masking.
        prop_assert_eq!(
            key.with_low_bits_cleared(low_bits),
            spill.with_low_bits_cleared(low_bits)
        );
        prop_assert_eq!(
            key.with_low_bits_set(low_bits),
            spill.with_low_bits_set(low_bits)
        );

        // Formatting.
        prop_assert_eq!(format!("{key}"), format!("{spill}"));
        prop_assert_eq!(format!("{key:b}"), format!("{spill:b}"));
    }

    /// Ordering of keys matches the numeric order of their bit patterns
    /// regardless of layout mixture.
    #[test]
    fn ordering_matches_numeric_order_across_layouts(
        bits in 1u32..=192,
        a_lo in any::<u128>(),
        a_hi in any::<u64>(),
        b_lo in any::<u128>(),
        b_hi in any::<u64>(),
        spill_a in any::<bool>(),
        spill_b in any::<bool>(),
    ) {
        let a = key_from_parts(a_lo, a_hi, bits);
        let b = key_from_parts(b_lo, b_hi, bits);
        // Reference order: compare the binary expansions.
        let expected = format!("{a:b}").cmp(&format!("{b:b}"));
        let a = if spill_a { a.with_spilled_repr() } else { a };
        let b = if spill_b { b.with_spilled_repr() } else { b };
        prop_assert_eq!(a.cmp(&b), expected);
    }

    /// `from_u128` round-trips through `to_u128` at every width, including
    /// the 127/128-bit boundary, and the width assertion accepts exactly
    /// the values that fit.
    #[test]
    fn from_u128_round_trip_and_bounds(bits in 1u32..=192, value in any::<u128>()) {
        let masked = if bits >= 128 { value } else { value & ((1u128 << bits) - 1) };
        let key = Key::from_u128(masked, bits);
        prop_assert_eq!(key.to_u128(), Some(masked));
        prop_assert_eq!(key.bits(), bits);
        // One bit past the width must be rejected (when representable).
        if bits < 128 {
            let too_big = masked | (1u128 << bits);
            let res = std::panic::catch_unwind(|| Key::from_u128(too_big, bits));
            prop_assert!(res.is_err());
        }
    }

    /// Successor and predecessor are inverses and respect numeric order, on
    /// both layouts.
    #[test]
    fn successor_predecessor_inverse(
        bits in 1u32..=192,
        lo in any::<u128>(),
        hi in any::<u64>(),
        spilled in any::<bool>(),
    ) {
        let key = key_from_parts(lo, hi, bits);
        let key = if spilled { key.with_spilled_repr() } else { key };
        if let Some(next) = key.successor() {
            prop_assert!(next > key);
            prop_assert_eq!(next.predecessor().as_ref(), Some(&key));
        } else {
            prop_assert_eq!(&key, &Key::max_value(bits));
        }
        if let Some(prev) = key.predecessor() {
            prop_assert!(prev < key);
            prop_assert_eq!(prev.successor().as_ref(), Some(&key));
        } else {
            prop_assert!(key.is_zero());
        }
    }

    /// The Z curve's orthant seek agrees with a brute-force scan over every
    /// cell of a random small universe, for random orthant corners and every
    /// probe key, and a rectangle short of the top corner gets no seeker.
    #[test]
    fn orthant_seek_matches_brute_force(
        (dims, bits) in (1usize..=3, 1u32..=3),
        seed in any::<u64>(),
    ) {
        let universe = Universe::new(dims, bits).unwrap();
        let curve = ZCurve::new(universe.clone());
        let side = universe.side();
        let top = universe.max_coord();
        let total_bits = universe.key_bits();
        let total_cells = side.pow(dims as u32);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4 {
            let lo: Vec<u64> = (0..dims).map(|_| next() % side).collect();
            let rect = Rect::new(lo.clone(), vec![top; dims]).unwrap();
            let mut in_rect: Vec<u128> = Vec::new();
            for idx in 0..total_cells {
                let mut coords = vec![0u64; dims];
                let mut rem = idx;
                for c in coords.iter_mut() {
                    *c = rem % side;
                    rem /= side;
                }
                if rect.contains_coords(&coords) {
                    let key = curve.key_of_point(&Point::new(coords).unwrap()).unwrap();
                    in_rect.push(key.to_u128().unwrap());
                }
            }
            in_rect.sort_unstable();
            let seeker = curve.region_seeker(&rect).unwrap();
            for probe in 0..(1u128 << total_bits) {
                let got = seeker
                    .seek(&Key::from_u128(probe, total_bits))
                    .map(|k| k.to_u128().unwrap());
                let expected = in_rect.iter().copied().find(|&v| v >= probe);
                prop_assert_eq!(got, expected, "rect {} probe {}", rect, probe);
            }
            if top > 0 {
                let mut hi = vec![top; dims];
                let short = (next() % dims as u64) as usize;
                hi[short] = lo[short] + next() % (top - lo[short]).max(1);
                if hi[short] < top {
                    let rect = Rect::new(lo, hi).unwrap();
                    prop_assert!(curve.region_seeker(&rect).is_none(), "rect {}", rect);
                }
            }
        }
    }
}

//! SFC keys and key ranges with an allocation-free inline representation.
//!
//! A key for a `d`-dimensional universe with `k` bits per dimension has
//! exactly `d·k` bits. The common subscription shapes (`d = 2β` with β up to
//! 4–8 attributes, `k` up to 16 bits) fit in 128 bits, so a [`Key`] stores
//! such values *inline* in a `u128` — construction, comparison and increment
//! never touch the heap. Wider universes spill to a
//! big-endian `Vec<u64>` word vector ([`Key`] is an enum over the two
//! layouts); every operation is defined on both and the two representations
//! are observationally identical (property-tested via
//! [`Key::with_spilled_repr`]).
//!
//! Keys compare numerically, which for equal bit widths is the order the
//! space filling curve induces on cells.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::SfcError;
use crate::Result;

/// The storage of a key's value: inline for widths that fit a `u128`,
/// spilled to big-endian words otherwise.
#[derive(Debug, Clone)]
enum Repr {
    /// The value of a key of width ≤ 128 bits. Invariant: bits above the
    /// key's width are zero.
    Inline(u128),
    /// Big-endian words: `words[0]` holds the most significant bits.
    /// Invariant: `words.len() == ceil(bits / 64)` and any unused high bits
    /// of `words[0]` are zero.
    Spill(Vec<u64>),
}

/// An SFC key: an unsigned integer of a fixed bit width (`d·k` bits),
/// ordered numerically.
///
/// Keys of width ≤ 128 bits are stored inline (no heap allocation anywhere
/// in their lifecycle); wider keys use a word vector. All operations treat
/// the two layouts identically.
///
/// # Example
///
/// ```
/// use acd_sfc::Key;
///
/// let a = Key::from_u128(5, 8);
/// let b = Key::from_u128(9, 8);
/// assert!(a < b);
/// assert_eq!(a.bits(), 8);
/// assert_eq!(a.to_u128(), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct Key {
    /// Total number of significant bits.
    bits: u32,
    repr: Repr,
}

impl Key {
    /// Number of 64-bit words needed for `bits` bits.
    fn words_for(bits: u32) -> usize {
        (bits as usize).div_ceil(64)
    }

    /// Number of unused (always-zero) high bits in the first word of the
    /// spilled layout.
    fn slack(bits: u32) -> u32 {
        (Self::words_for(bits) as u32) * 64 - bits
    }

    /// A mask of the low `bits` bits of a `u128` (`bits ≤ 128`).
    fn inline_mask(bits: u32) -> u128 {
        debug_assert!(bits <= 128);
        if bits >= 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        }
    }

    /// The all-zero key of the given width.
    pub fn zero(bits: u32) -> Self {
        if bits <= 128 {
            Key {
                bits,
                repr: Repr::Inline(0),
            }
        } else {
            Key {
                bits,
                repr: Repr::Spill(vec![0; Self::words_for(bits)]),
            }
        }
    }

    /// The all-ones key (maximum value) of the given width.
    pub fn max_value(bits: u32) -> Self {
        let mut key = Key::zero(bits);
        match &mut key.repr {
            Repr::Inline(v) => *v = Self::inline_mask(bits),
            Repr::Spill(words) => {
                for w in words.iter_mut() {
                    *w = u64::MAX;
                }
            }
        }
        key.mask_slack();
        key
    }

    /// Builds a key of width `bits` from a `u128` value.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `bits` bits, i.e. if any bit of
    /// `value` at position `bits` or above is set.
    pub fn from_u128(value: u128, bits: u32) -> Self {
        assert!(
            bits >= 128 || value >> bits == 0,
            "value {value} does not fit in {bits} bits"
        );
        if bits <= 128 {
            return Key {
                bits,
                repr: Repr::Inline(value),
            };
        }
        let mut words = vec![0u64; Self::words_for(bits)];
        let n = words.len();
        words[n - 1] = value as u64;
        words[n - 2] = (value >> 64) as u64;
        Key {
            bits,
            repr: Repr::Spill(words),
        }
    }

    /// Returns the value as a `u128` if it fits, `None` otherwise.
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Inline(v) => Some(*v),
            Repr::Spill(words) => {
                let n = words.len();
                if n > 2 && words[..n - 2].iter().any(|&w| w != 0) {
                    return None;
                }
                let lo = words[n - 1] as u128;
                let hi = if n >= 2 { words[n - 2] as u128 } else { 0 };
                Some((hi << 64) | lo)
            }
        }
    }

    /// Width of the key in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether this key uses the inline (`u128`) layout. Exposed for the
    /// representation-agreement property tests.
    #[doc(hidden)]
    pub fn repr_is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Returns a copy of this key forced into the spilled (word-vector)
    /// layout, regardless of width. Observationally identical to `self`;
    /// exposed so property tests can check the two layouts agree on every
    /// operation.
    #[doc(hidden)]
    pub fn with_spilled_repr(&self) -> Key {
        Key {
            bits: self.bits,
            repr: Repr::Spill((0..self.word_count()).map(|i| self.word(i)).collect()),
        }
    }

    /// The key of width `bits` whose big-endian word view is `words`, with
    /// the bits above the width zero, in the width's canonical layout.
    pub(crate) fn from_words(bits: u32, words: Vec<u64>) -> Key {
        let repr = if bits <= 128 {
            Repr::Inline(words.iter().fold(0u128, |v, &w| v << 64 | u128::from(w)))
        } else {
            Repr::Spill(words)
        };
        Key { bits, repr }
    }

    /// Number of words in the (logical) big-endian word view.
    pub(crate) fn word_count(&self) -> usize {
        Self::words_for(self.bits).max(1)
    }

    /// The `i`-th word of the big-endian word view (index 0 is the most
    /// significant word), independent of layout.
    pub(crate) fn word(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Spill(words) => words[i],
            Repr::Inline(v) => {
                let shift = (self.word_count() - 1 - i) * 64;
                if shift >= 128 {
                    0
                } else {
                    (v >> shift) as u64
                }
            }
        }
    }

    /// Zeroes out the unused high bits of the layout.
    fn mask_slack(&mut self) {
        match &mut self.repr {
            Repr::Inline(v) => *v &= Self::inline_mask(self.bits),
            Repr::Spill(words) => {
                let slack = Self::slack(self.bits);
                if slack > 0 && slack < 64 {
                    words[0] &= u64::MAX >> slack;
                } else if slack >= 64 {
                    // Can only happen for bits == 0 with one allocated word.
                    words[0] = 0;
                }
            }
        }
    }

    /// Gets bit `index`, where index 0 is the least significant bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.bits()`.
    pub fn bit(&self, index: u32) -> bool {
        assert!(index < self.bits, "bit index {index} out of range");
        match &self.repr {
            Repr::Inline(v) => (v >> index) & 1 == 1,
            Repr::Spill(words) => {
                let pos = self.bits - 1 - index + Self::slack(self.bits);
                let word = (pos / 64) as usize;
                let offset = 63 - (pos % 64);
                (words[word] >> offset) & 1 == 1
            }
        }
    }

    /// Sets bit `index` (LSB = 0) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.bits()`.
    pub fn set_bit(&mut self, index: u32, value: bool) {
        assert!(index < self.bits, "bit index {index} out of range");
        match &mut self.repr {
            Repr::Inline(v) => {
                if value {
                    *v |= 1u128 << index;
                } else {
                    *v &= !(1u128 << index);
                }
            }
            Repr::Spill(words) => {
                let pos = self.bits - 1 - index + Self::slack(self.bits);
                let word = (pos / 64) as usize;
                let offset = 63 - (pos % 64);
                if value {
                    words[word] |= 1u64 << offset;
                } else {
                    words[word] &= !(1u64 << offset);
                }
            }
        }
    }

    /// Returns a copy with the low `low_bits` bits cleared.
    ///
    /// Used to form the first key of a standard cube from the key of any cell
    /// inside it: the cube at level `ℓ` shares the top `d·ℓ` bits.
    pub fn with_low_bits_cleared(&self, low_bits: u32) -> Key {
        let low = low_bits.min(self.bits);
        match &self.repr {
            Repr::Inline(v) => Key {
                bits: self.bits,
                repr: Repr::Inline(v & !Self::inline_mask(low)),
            },
            Repr::Spill(_) => {
                let mut out = self.clone();
                for i in 0..low {
                    out.set_bit(i, false);
                }
                out
            }
        }
    }

    /// Returns a copy with the low `low_bits` bits set to one.
    pub fn with_low_bits_set(&self, low_bits: u32) -> Key {
        let low = low_bits.min(self.bits);
        match &self.repr {
            Repr::Inline(v) => Key {
                bits: self.bits,
                repr: Repr::Inline(v | Self::inline_mask(low)),
            },
            Repr::Spill(_) => {
                let mut out = self.clone();
                for i in 0..low {
                    out.set_bit(i, true);
                }
                out
            }
        }
    }

    /// The key immediately after this one, or `None` if this is the maximum.
    pub fn successor(&self) -> Option<Key> {
        match &self.repr {
            Repr::Inline(v) => {
                if *v == Self::inline_mask(self.bits) {
                    None
                } else {
                    Some(Key {
                        bits: self.bits,
                        repr: Repr::Inline(v + 1),
                    })
                }
            }
            Repr::Spill(words) => {
                // Work on a copy of the words and rebuild the key at the
                // end; matching the payload directly keeps every arm total.
                let mut words = words.clone();
                for i in (0..words.len()).rev() {
                    let (new, overflow) = words[i].overflowing_add(1);
                    words[i] = new;
                    if !overflow {
                        let out = Key {
                            bits: self.bits,
                            repr: Repr::Spill(words),
                        };
                        // Check the carry did not escape past the
                        // significant bits.
                        let mut check = out.clone();
                        check.mask_slack();
                        if check == out {
                            return Some(out);
                        }
                        return None;
                    }
                }
                None
            }
        }
    }

    /// The key immediately before this one, or `None` if this is zero.
    pub fn predecessor(&self) -> Option<Key> {
        if self.is_zero() {
            return None;
        }
        match &self.repr {
            Repr::Inline(v) => Some(Key {
                bits: self.bits,
                repr: Repr::Inline(v - 1),
            }),
            Repr::Spill(words) => {
                let mut words = words.clone();
                for w in words.iter_mut().rev() {
                    let (new, borrow) = w.overflowing_sub(1);
                    *w = new;
                    if !borrow {
                        break;
                    }
                }
                let mut out = Key {
                    bits: self.bits,
                    repr: Repr::Spill(words),
                };
                out.mask_slack();
                Some(out)
            }
        }
    }

    /// Whether the key is all zeros.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => *v == 0,
            Repr::Spill(words) => words.iter().all(|&w| w == 0),
        }
    }

    /// Validates that the key has the expected number of bits.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::KeyLengthMismatch`] on a mismatch.
    pub fn expect_bits(&self, expected: u32) -> Result<()> {
        if self.bits != expected {
            return Err(SfcError::KeyLengthMismatch {
                expected,
                actual: self.bits,
            });
        }
        Ok(())
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        // Width-sensitive (like the historical derived implementation, and
        // consistent with `Hash`, which also covers `bits`): keys of
        // different widths are simply unequal, with no debug assertion —
        // only *ordering* across widths is a caller error.
        if self.bits != other.bits {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            (Repr::Spill(a), Repr::Spill(b)) => a == b,
            // Mixed layouts only occur in representation-agreement tests.
            _ => (0..self.word_count()).all(|i| self.word(i) == other.word(i)),
        }
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical big-endian word view so the inline and spilled
        // layouts of the same value hash identically.
        self.bits.hash(state);
        for i in 0..self.word_count() {
            self.word(i).hash(state);
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Numeric comparison. Keys of different widths should not normally be
    /// compared; in debug builds this asserts equal widths.
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(
            self.bits, other.bits,
            "comparing keys of different bit widths"
        );
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a.cmp(b),
            (Repr::Spill(a), Repr::Spill(b)) => a.cmp(b),
            // Mixed layouts only occur in representation-agreement tests.
            _ => (0..self.word_count().max(other.word_count()))
                .map(|i| (self.word(i), other.word(i)))
                .find_map(|(a, b)| match a.cmp(&b) {
                    Ordering::Equal => None,
                    unequal => Some(unequal),
                })
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hexadecimal, most significant word first, without leading zeros
        // beyond the first digit.
        let n = self.word_count();
        let mut started = false;
        for i in 0..n {
            let w = self.word(i);
            if !started {
                if w == 0 && i + 1 != n {
                    continue;
                }
                write!(f, "{w:x}")?;
                started = true;
            } else {
                write!(f, "{w:016x}")?;
            }
        }
        Ok(())
    }
}

impl fmt::LowerHex for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Binary for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.bits).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// An inclusive range of keys `[lo, hi]`, used to describe the segment of the
/// SFC array occupied by a standard cube or a run.
///
/// # Example
///
/// ```
/// use acd_sfc::{Key, KeyRange};
///
/// let r = KeyRange::new(Key::from_u128(4, 8), Key::from_u128(7, 8)).unwrap();
/// assert!(r.contains(&Key::from_u128(5, 8)));
/// assert!(!r.contains(&Key::from_u128(8, 8)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyRange {
    lo: Key,
    hi: Key,
}

impl KeyRange {
    /// Creates the inclusive range `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::Empty`] if `lo > hi` and
    /// [`SfcError::KeyLengthMismatch`] if the bit widths differ.
    pub fn new(lo: Key, hi: Key) -> Result<Self> {
        hi.expect_bits(lo.bits())?;
        if lo > hi {
            return Err(SfcError::Empty);
        }
        Ok(KeyRange { lo, hi })
    }

    /// Lower (inclusive) endpoint.
    pub fn lo(&self) -> &Key {
        &self.lo
    }

    /// Upper (inclusive) endpoint.
    pub fn hi(&self) -> &Key {
        &self.hi
    }

    /// Whether `key` lies in the range.
    pub fn contains(&self, key: &Key) -> bool {
        *key >= self.lo && *key <= self.hi
    }

    /// Whether this range ends immediately before `next` begins, so that the
    /// two can be merged into a single run.
    pub fn is_adjacent_to(&self, next: &KeyRange) -> bool {
        match self.hi.successor() {
            Some(succ) => succ == next.lo,
            None => false,
        }
    }

    /// Whether this range overlaps `other`.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Merges this range with an adjacent or overlapping range.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the ranges are neither adjacent nor
    /// overlapping.
    pub fn merge(&self, other: &KeyRange) -> KeyRange {
        debug_assert!(
            self.overlaps(other) || self.is_adjacent_to(other) || other.is_adjacent_to(self)
        );
        KeyRange {
            lo: self.lo.clone().min(other.lo.clone()),
            hi: self.hi.clone().max(other.hi.clone()),
        }
    }

    /// Number of keys in the range if it fits in a `u128`.
    pub fn len(&self) -> Option<u128> {
        let lo = self.lo.to_u128()?;
        let hi = self.hi.to_u128()?;
        hi.checked_sub(lo)?.checked_add(1)
    }

    /// A key range is never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_and_to_u128_round_trip() {
        for bits in [1u32, 7, 8, 63, 64, 65, 127, 128, 130, 192] {
            let vals: Vec<u128> = vec![0, 1, 2, 5, 100, (1u128 << (bits.min(127))) - 1];
            for v in vals {
                if bits < 128 && v >= (1u128 << bits) {
                    continue;
                }
                let k = Key::from_u128(v, bits);
                assert_eq!(k.to_u128(), Some(v), "bits={bits} v={v}");
                assert_eq!(k.bits(), bits);
                assert_eq!(k.repr_is_inline(), bits <= 128);
            }
        }
    }

    #[test]
    fn from_u128_width_check_accepts_exact_fits_and_rejects_overflow() {
        // The widest values that fit.
        assert_eq!(Key::from_u128(1, 1).to_u128(), Some(1));
        assert_eq!(Key::from_u128(127, 7).to_u128(), Some(127));
        assert_eq!(
            Key::from_u128((1u128 << 127) - 1, 127).to_u128(),
            Some((1u128 << 127) - 1)
        );
        assert_eq!(Key::from_u128(u128::MAX, 128).to_u128(), Some(u128::MAX));
        // Any width ≥ 128 accepts any u128.
        assert_eq!(Key::from_u128(u128::MAX, 129).to_u128(), Some(u128::MAX));
        // One past the width must panic.
        for (v, bits) in [(2u128, 1u32), (128, 7), (1u128 << 127, 127)] {
            let res = std::panic::catch_unwind(|| Key::from_u128(v, bits));
            assert!(res.is_err(), "value {v} must not fit in {bits} bits");
        }
    }

    #[test]
    fn ordering_matches_numeric_order() {
        let mut keys: Vec<Key> = [0u128, 1, 5, 17, 255, 256, 1_000_000]
            .iter()
            .map(|&v| Key::from_u128(v, 96))
            .collect();
        let sorted = keys.clone();
        keys.reverse();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn bit_get_and_set_round_trip() {
        let mut k = Key::zero(130);
        k.set_bit(0, true);
        k.set_bit(64, true);
        k.set_bit(129, true);
        assert!(k.bit(0));
        assert!(k.bit(64));
        assert!(k.bit(129));
        assert!(!k.bit(1));
        assert!(!k.bit(128));
        k.set_bit(64, false);
        assert!(!k.bit(64));
    }

    #[test]
    fn bit_positions_match_numeric_value() {
        let k = Key::from_u128(0b1011, 8);
        assert!(k.bit(0));
        assert!(k.bit(1));
        assert!(!k.bit(2));
        assert!(k.bit(3));
        assert!(!k.bit(7));
    }

    #[test]
    fn low_bits_cleared_and_set() {
        let k = Key::from_u128(0b1101_1011, 8);
        assert_eq!(k.with_low_bits_cleared(4).to_u128(), Some(0b1101_0000));
        assert_eq!(k.with_low_bits_set(4).to_u128(), Some(0b1101_1111));
    }

    #[test]
    fn successor_and_predecessor() {
        let k = Key::from_u128(41, 16);
        assert_eq!(k.successor().unwrap().to_u128(), Some(42));
        assert_eq!(k.predecessor().unwrap().to_u128(), Some(40));

        let max = Key::max_value(16);
        assert_eq!(max.to_u128(), Some(65535));
        assert!(max.successor().is_none());
        assert!(Key::zero(16).predecessor().is_none());
    }

    #[test]
    fn successor_carries_across_words() {
        let k = Key::from_u128(u64::MAX as u128, 80);
        let s = k.successor().unwrap();
        assert_eq!(s.to_u128(), Some(1u128 << 64));
    }

    #[test]
    fn max_value_masks_slack_bits() {
        let max = Key::max_value(70);
        // The top word must only have 6 significant bits set.
        assert_eq!(max.to_u128(), Some((1u128 << 70) - 1));
        assert!(max.successor().is_none());
    }

    #[test]
    fn spilled_repr_agrees_with_inline_on_every_operation() {
        for bits in [1u32, 8, 63, 64, 65, 127, 128] {
            for v in [
                0u128,
                1,
                41,
                (1u128 << bits.min(127)) - 1,
                (1u128 << (bits / 2).max(1)) - 1,
            ] {
                if bits < 128 && v >> bits != 0 {
                    continue;
                }
                let inline = Key::from_u128(v, bits);
                let spill = inline.with_spilled_repr();
                assert!(inline.repr_is_inline());
                assert!(!spill.repr_is_inline());
                assert_eq!(inline, spill);
                assert_eq!(inline.cmp(&spill), Ordering::Equal);
                assert_eq!(spill.to_u128(), Some(v));
                assert_eq!(inline.successor(), spill.successor());
                assert_eq!(inline.predecessor(), spill.predecessor());
                assert_eq!(
                    inline.with_low_bits_cleared(bits / 2),
                    spill.with_low_bits_cleared(bits / 2)
                );
                assert_eq!(
                    inline.with_low_bits_set(bits / 2),
                    spill.with_low_bits_set(bits / 2)
                );
                for i in 0..bits {
                    assert_eq!(inline.bit(i), spill.bit(i));
                }
                assert_eq!(format!("{inline}"), format!("{spill}"));
                assert_eq!(format!("{inline:b}"), format!("{spill:b}"));
            }
        }
    }

    #[test]
    fn equality_is_width_sensitive_without_panicking() {
        // Same numeric value, different widths: unequal (and no debug
        // assertion fires — only ordering across widths is a caller error).
        assert_ne!(Key::from_u128(5, 8), Key::from_u128(5, 16));
        assert_ne!(Key::from_u128(5, 64), Key::from_u128(5, 200));
        assert_eq!(Key::from_u128(5, 16), Key::from_u128(5, 16));
    }

    #[test]
    fn mixed_repr_keys_collide_in_hash_maps() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Key::from_u128(99, 64));
        assert!(!set.insert(Key::from_u128(99, 64).with_spilled_repr()));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn expect_bits_detects_mismatch() {
        let k = Key::zero(12);
        assert!(k.expect_bits(12).is_ok());
        assert!(matches!(
            k.expect_bits(16),
            Err(SfcError::KeyLengthMismatch {
                expected: 16,
                actual: 12
            })
        ));
    }

    #[test]
    fn display_formats() {
        let k = Key::from_u128(0xdead_beef, 64);
        assert_eq!(format!("{k}"), "deadbeef");
        assert_eq!(format!("{k:x}"), "deadbeef");
        let b = Key::from_u128(0b101, 4);
        assert_eq!(format!("{b:b}"), "0101");
    }

    #[test]
    fn key_range_construction_and_queries() {
        let lo = Key::from_u128(10, 32);
        let hi = Key::from_u128(20, 32);
        let r = KeyRange::new(lo.clone(), hi.clone()).unwrap();
        assert_eq!(r.len(), Some(11));
        assert!(r.contains(&Key::from_u128(10, 32)));
        assert!(r.contains(&Key::from_u128(20, 32)));
        assert!(!r.contains(&Key::from_u128(21, 32)));
        assert!(KeyRange::new(hi, lo).is_err());
    }

    #[test]
    fn key_range_adjacency_and_merge() {
        let a = KeyRange::new(Key::from_u128(0, 16), Key::from_u128(3, 16)).unwrap();
        let b = KeyRange::new(Key::from_u128(4, 16), Key::from_u128(7, 16)).unwrap();
        let c = KeyRange::new(Key::from_u128(9, 16), Key::from_u128(12, 16)).unwrap();
        assert!(a.is_adjacent_to(&b));
        assert!(!b.is_adjacent_to(&a));
        assert!(!b.is_adjacent_to(&c));
        let merged = a.merge(&b);
        assert_eq!(merged.len(), Some(8));
        assert!(a.overlaps(&merged));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn adjacency_at_word_boundary() {
        let a = KeyRange::new(Key::from_u128(0, 80), Key::from_u128(u64::MAX as u128, 80)).unwrap();
        let b = KeyRange::new(
            Key::from_u128(1u128 << 64, 80),
            Key::from_u128((1u128 << 64) + 10, 80),
        )
        .unwrap();
        assert!(a.is_adjacent_to(&b));
    }
}

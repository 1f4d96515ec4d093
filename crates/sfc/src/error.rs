use std::error::Error;
use std::fmt;

/// Error type for the space-filling-curve substrate.
///
/// Every fallible public operation in this crate returns [`SfcError`], which
/// implements [`std::error::Error`] and is `Send + Sync + 'static` so it can
/// be boxed and propagated by downstream crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SfcError {
    /// A universe was requested with an unsupported shape.
    InvalidUniverse {
        /// Number of dimensions requested.
        dims: usize,
        /// Bits per dimension requested.
        bits_per_dim: u32,
        /// Human readable reason.
        reason: &'static str,
    },
    /// A point has the wrong number of coordinates for the universe.
    DimensionMismatch {
        /// Dimensions the universe has.
        expected: usize,
        /// Dimensions the argument has.
        actual: usize,
    },
    /// A coordinate lies outside the universe.
    CoordinateOutOfRange {
        /// Dimension of the offending coordinate.
        dim: usize,
        /// Offending value.
        value: u64,
        /// Exclusive upper bound (`2^k`).
        bound: u64,
    },
    /// A key has the wrong bit-length for the universe.
    KeyLengthMismatch {
        /// Expected number of bits (`d·k`).
        expected: u32,
        /// Actual number of bits.
        actual: u32,
    },
    /// A rectangle was given with `lo > hi` along some dimension.
    EmptyRectangle {
        /// Dimension along which the rectangle is inverted.
        dim: usize,
    },
    /// A side length of an extremal rectangle is zero or exceeds the universe.
    InvalidSideLength {
        /// Dimension of the offending side.
        dim: usize,
        /// Offending length.
        length: u64,
        /// Inclusive upper bound (`2^k`).
        bound: u64,
    },
    /// The epsilon parameter of an approximate query is outside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// An empty point set or region where a non-empty one is required.
    Empty,
}

impl fmt::Display for SfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SfcError::InvalidUniverse {
                dims,
                bits_per_dim,
                reason,
            } => write!(
                f,
                "invalid universe with {dims} dimensions and {bits_per_dim} bits per dimension: {reason}"
            ),
            SfcError::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: universe has {expected} dimensions but argument has {actual}"
            ),
            SfcError::CoordinateOutOfRange { dim, value, bound } => write!(
                f,
                "coordinate {value} on dimension {dim} is outside the universe (must be < {bound})"
            ),
            SfcError::KeyLengthMismatch { expected, actual } => write!(
                f,
                "key length mismatch: expected {expected} bits but key has {actual}"
            ),
            SfcError::EmptyRectangle { dim } => {
                write!(f, "rectangle is empty along dimension {dim} (lo > hi)")
            }
            SfcError::InvalidSideLength { dim, length, bound } => write!(
                f,
                "side length {length} on dimension {dim} is invalid (must be in 1..={bound})"
            ),
            SfcError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon {epsilon} is outside the open interval (0, 1)")
            }
            SfcError::Empty => write!(f, "operation requires a non-empty region or point set"),
        }
    }
}

impl Error for SfcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SfcError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('2'));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_traits<T: Send + Sync + 'static>() {}
        assert_traits::<SfcError>();
    }

    #[test]
    fn errors_compare_equal_structurally() {
        assert_eq!(SfcError::Empty, SfcError::Empty,);
        assert_ne!(SfcError::Empty, SfcError::EmptyRectangle { dim: 0 },);
    }
}

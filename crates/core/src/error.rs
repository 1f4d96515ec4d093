use std::error::Error;
use std::fmt;
use std::sync::Arc;

use acd_sfc::{CurveKind, SfcError};
use acd_storage::StorageError;
use acd_subscription::SubscriptionError;

use crate::config::QueryEngine;

/// Error type for the covering-detection indexes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoveringError {
    /// The epsilon parameter of an approximate query is outside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// A subscription built against a different schema was passed to an
    /// index.
    SchemaMismatch,
    /// A subscription identifier was not found in the index.
    UnknownSubscription {
        /// The offending identifier.
        id: u64,
    },
    /// A subscription identifier was inserted twice.
    DuplicateSubscription {
        /// The offending identifier.
        id: u64,
    },
    /// The query engine cannot run on the curve: the populated-key skip
    /// engine needs the Z curve's closed-form orthant seek.
    UnsupportedEngine {
        /// The index's curve.
        curve: CurveKind,
        /// The engine asked for.
        engine: QueryEngine,
    },
    /// An error bubbled up from the subscription data model.
    Subscription(SubscriptionError),
    /// An error bubbled up from the space-filling-curve substrate.
    Sfc(SfcError),
    /// An error bubbled up from the storage layer
    /// (`Arc`-wrapped so this enum stays `Clone` — `std::io::Error` is not).
    Storage(Arc<StorageError>),
}

// Not derivable: `StorageError` carries an `std::io::Error`, which has no
// equality. Storage errors compare by identity; every other variant keeps
// its structural comparison.
impl PartialEq for CoveringError {
    fn eq(&self, other: &Self) -> bool {
        use CoveringError::*;
        match (self, other) {
            (InvalidEpsilon { epsilon: a }, InvalidEpsilon { epsilon: b }) => a == b,
            (SchemaMismatch, SchemaMismatch) => true,
            (UnknownSubscription { id: a }, UnknownSubscription { id: b }) => a == b,
            (DuplicateSubscription { id: a }, DuplicateSubscription { id: b }) => a == b,
            (
                UnsupportedEngine { curve, engine },
                UnsupportedEngine {
                    curve: c,
                    engine: e,
                },
            ) => (curve, engine) == (c, e),
            (Subscription(a), Subscription(b)) => a == b,
            (Sfc(a), Sfc(b)) => a == b,
            (Storage(a), Storage(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for CoveringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoveringError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon {epsilon} is outside the open interval (0, 1)")
            }
            CoveringError::SchemaMismatch => {
                write!(
                    f,
                    "subscription belongs to a different schema than the index"
                )
            }
            CoveringError::UnknownSubscription { id } => {
                write!(f, "subscription {id} is not in the index")
            }
            CoveringError::DuplicateSubscription { id } => {
                write!(f, "subscription {id} is already in the index")
            }
            CoveringError::UnsupportedEngine { curve, engine } => {
                write!(f, "no {} engine on the {curve} curve", engine.label())
            }
            CoveringError::Subscription(e) => write!(f, "subscription error: {e}"),
            CoveringError::Sfc(e) => write!(f, "space filling curve error: {e}"),
            CoveringError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl Error for CoveringError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoveringError::Subscription(e) => Some(e),
            CoveringError::Sfc(e) => Some(e),
            CoveringError::Storage(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<SubscriptionError> for CoveringError {
    fn from(e: SubscriptionError) -> Self {
        CoveringError::Subscription(e)
    }
}

impl From<SfcError> for CoveringError {
    fn from(e: SfcError) -> Self {
        CoveringError::Sfc(e)
    }
}

impl From<StorageError> for CoveringError {
    fn from(e: StorageError) -> Self {
        CoveringError::Storage(Arc::new(e))
    }
}

impl CoveringError {
    /// The underlying storage error, if this is a storage failure. Callers
    /// recovering from on-disk corruption match on
    /// [`StorageError::is_corrupt`] through this accessor.
    pub fn as_storage(&self) -> Option<&StorageError> {
        match self {
            CoveringError::Storage(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoveringError = SfcError::Empty.into();
        assert!(Error::source(&e).is_some());
        let e: CoveringError = SubscriptionError::SchemaMismatch.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoveringError::SchemaMismatch).is_none());
    }

    #[test]
    fn display_is_informative() {
        assert!(CoveringError::UnknownSubscription { id: 9 }
            .to_string()
            .contains('9'));
        assert!(CoveringError::InvalidEpsilon { epsilon: 2.0 }
            .to_string()
            .contains('2'));
        let unsupported = CoveringError::UnsupportedEngine {
            curve: CurveKind::Gray,
            engine: QueryEngine::SkipPopulated,
        };
        assert!(unsupported.to_string().contains("gray-code"));
        assert_eq!(unsupported.clone(), unsupported);
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_traits<T: Send + Sync + 'static>() {}
        assert_traits::<CoveringError>();
    }
}

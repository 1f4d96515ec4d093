use std::error::Error;
use std::fmt;

use acd_covering::CoveringError;
use acd_subscription::SubscriptionError;

/// Error type for the broker overlay simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BrokerError {
    /// A topology was requested with an invalid shape.
    InvalidTopology {
        /// Human readable reason.
        reason: String,
    },
    /// A broker identifier is out of range for the topology.
    UnknownBroker {
        /// The offending identifier.
        id: usize,
        /// Number of brokers in the network.
        brokers: usize,
    },
    /// A subscription identifier was registered twice in the network.
    DuplicateSubscription {
        /// The offending identifier.
        id: u64,
    },
    /// An unsubscribe referenced an identifier that is not registered at the
    /// given broker.
    UnknownSubscription {
        /// The offending identifier.
        id: u64,
    },
    /// An error bubbled up from the covering index.
    Covering(CoveringError),
    /// An error bubbled up from the subscription data model.
    Subscription(SubscriptionError),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            BrokerError::UnknownBroker { id, brokers } => {
                write!(
                    f,
                    "broker {id} does not exist (network has {brokers} brokers)"
                )
            }
            BrokerError::DuplicateSubscription { id } => {
                write!(f, "subscription {id} is already registered in the network")
            }
            BrokerError::UnknownSubscription { id } => {
                write!(f, "subscription {id} is not registered at that broker")
            }
            BrokerError::Covering(e) => write!(f, "covering index error: {e}"),
            BrokerError::Subscription(e) => write!(f, "subscription error: {e}"),
        }
    }
}

impl Error for BrokerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrokerError::Covering(e) => Some(e),
            BrokerError::Subscription(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoveringError> for BrokerError {
    fn from(e: CoveringError) -> Self {
        BrokerError::Covering(e)
    }
}

impl From<SubscriptionError> for BrokerError {
    fn from(e: SubscriptionError) -> Self {
        BrokerError::Subscription(e)
    }
}

/// Error type for the daemon/client service layer: transport failures, wire
/// corruption, protocol violations, and broker errors relayed back to the
/// caller.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A socket operation failed (the `io::Error` rendered to text so the
    /// variant stays `Clone + PartialEq` for tests).
    Io(String),
    /// A frame failed structural validation: bad magic, bad length, a
    /// checksum mismatch, or a truncated stream.
    CorruptFrame {
        /// What exactly failed to validate.
        reason: String,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version byte the peer sent.
        found: u8,
    },
    /// A structurally valid frame arrived where the protocol does not allow
    /// it (e.g. a request frame on a client, or a second `Hello`).
    UnexpectedFrame {
        /// The frame kind that arrived.
        kind: String,
    },
    /// The daemon rejected the request; the broker error is relayed as text
    /// so client and server need not share error representations.
    Rejected {
        /// The daemon-side error message.
        message: String,
    },
    /// The daemon is shedding load: it refused the connection or declined
    /// to execute the request. Unlike [`Rejected`](Self::Rejected) nothing
    /// was applied, so the operation is safe to retry after backing off.
    Overloaded {
        /// The daemon-side shedding reason.
        reason: String,
    },
    /// An error from the in-process broker overlay.
    Broker(BrokerError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::CorruptFrame { reason } => write!(f, "corrupt frame: {reason}"),
            ServiceError::VersionMismatch { found } => {
                write!(
                    f,
                    "peer speaks protocol version {found}, expected {}",
                    crate::wire::VERSION
                )
            }
            ServiceError::UnexpectedFrame { kind } => {
                write!(f, "unexpected {kind} frame at this point of the protocol")
            }
            ServiceError::Rejected { message } => write!(f, "request rejected: {message}"),
            ServiceError::Overloaded { reason } => write!(f, "daemon overloaded: {reason}"),
            ServiceError::Broker(e) => write!(f, "broker error: {e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Broker(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e.to_string())
    }
}

impl From<BrokerError> for ServiceError {
    fn from(e: BrokerError) -> Self {
        ServiceError::Broker(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BrokerError = CoveringError::SchemaMismatch.into();
        assert!(Error::source(&e).is_some());
        let e: BrokerError = SubscriptionError::SchemaMismatch.into();
        assert!(e.to_string().contains("subscription"));
        let e = BrokerError::UnknownBroker { id: 7, brokers: 3 };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_traits<T: Send + Sync + 'static>() {}
        assert_traits::<BrokerError>();
        assert_traits::<ServiceError>();
    }

    #[test]
    fn service_error_conversions_and_display() {
        let e: ServiceError = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone").into();
        assert!(e.to_string().contains("gone"));
        let e: ServiceError = BrokerError::UnknownSubscription { id: 4 }.into();
        assert!(Error::source(&e).is_some());
        let e = ServiceError::CorruptFrame {
            reason: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("checksum"));
        assert!(ServiceError::VersionMismatch { found: 9 }
            .to_string()
            .contains('9'));
        let e = ServiceError::Overloaded {
            reason: "connection cap reached".into(),
        };
        assert!(e.to_string().contains("overloaded"));
    }
}

use std::error::Error;
use std::fmt;

/// Error type for the storage layer.
///
/// The variant that matters for robustness is [`CorruptSegment`]: **every**
/// malformation of on-disk bytes — a flipped bit anywhere in a file, a
/// truncation, a count that disagrees with the bytes behind it, a stored
/// value the reader refuses — surfaces as this typed error. Decoding never
/// panics on file bytes and never constructs a silently wrong index.
///
/// [`CorruptSegment`]: StorageError::CorruptSegment
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// The operating system failed an I/O operation.
    Io {
        /// File (or directory) the operation touched.
        file: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file's bytes are not valid for its kind (a saved index, a journal
    /// header or a snapshot): bad magic, wrong kind, checksum mismatch,
    /// truncation, impossible lengths or counts, or stored values the
    /// reader refuses.
    CorruptSegment {
        /// File the corruption was detected in.
        file: String,
        /// Human-readable description of the malformation.
        reason: String,
    },
    /// The file checks out (magic and checksum are valid) but was written
    /// by a newer codec version this build cannot read.
    UnsupportedVersion {
        /// File carrying the foreign version.
        file: String,
        /// The version byte found.
        found: u8,
    },
    /// A directory was opened for reading but holds no saved index
    /// (`index.acd`).
    NoCommit {
        /// The directory that was scanned.
        dir: String,
    },
}

impl StorageError {
    /// Shorthand constructor for [`StorageError::CorruptSegment`].
    pub fn corrupt(file: impl Into<String>, reason: impl Into<String>) -> Self {
        StorageError::CorruptSegment {
            file: file.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`StorageError::Io`].
    pub fn io(file: impl Into<String>, source: std::io::Error) -> Self {
        StorageError::Io {
            file: file.into(),
            source,
        }
    }

    /// Whether this error is the typed corruption variant.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StorageError::CorruptSegment { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { file, source } => write!(f, "i/o error on {file}: {source}"),
            StorageError::CorruptSegment { file, reason } => {
                write!(f, "corrupt file {file}: {reason}")
            }
            StorageError::UnsupportedVersion { file, found } => write!(
                f,
                "{file} was written by codec version {found}, which this build cannot read"
            ),
            StorageError::NoCommit { dir } => {
                write!(f, "no saved index found in {dir}")
            }
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_static() {
        fn assert_traits<T: Send + Sync + 'static>() {}
        assert_traits::<StorageError>();
    }

    #[test]
    fn corrupt_is_typed_and_displayed() {
        let e = StorageError::corrupt("journal.acd", "checksum mismatch");
        assert!(e.is_corrupt());
        assert_eq!(e.to_string(), "corrupt file journal.acd: checksum mismatch");
    }
}

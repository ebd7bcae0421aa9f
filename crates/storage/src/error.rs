//! Typed errors of the durability subsystem.
//!
//! Everything on the persistence path — snapshot encode/decode, backend
//! I/O, write-ahead-log corruption — surfaces as a [`StorageError`]
//! instead of a stringly `ChangeError` or a swallowed `unwrap()`:
//! callers can distinguish an unreadable disk from a corrupt record
//! stream and react accordingly (retry vs. refuse to start).

use adept_core::ChangeError;
use std::fmt;

/// A failure of the storage/durability subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// An I/O operation against a backend failed (disk full, permission,
    /// unreadable file). Retryable in principle.
    Io {
        /// The backend operation that failed (`"append"`, `"sync"`, ...).
        op: &'static str,
        /// The rendered OS error.
        detail: String,
    },
    /// A persisted document or log is structurally damaged — an
    /// undecodable interior record, a sequence gap, an unsupported
    /// format. Never retryable; refusing to start is the only safe
    /// reaction.
    Corrupt {
        /// What is damaged and how.
        detail: String,
    },
    /// Serialisation of an in-memory value failed (an engine bug, not a
    /// medium fault).
    Encode {
        /// What failed to encode.
        detail: String,
    },
}

impl StorageError {
    /// Shorthand for a [`StorageError::Corrupt`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`StorageError::Io`].
    pub fn io(op: &'static str, e: &std::io::Error) -> Self {
        StorageError::Io {
            op,
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, detail } => write!(f, "storage i/o failed ({op}): {detail}"),
            StorageError::Corrupt { detail } => write!(f, "corrupt storage: {detail}"),
            StorageError::Encode { detail } => write!(f, "serialisation failed: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

// Restore re-deploys schemas through the change machinery; a change-level
// failure while rebuilding from a snapshot means the snapshot does not
// describe a constructible world — i.e. it is corrupt.
impl From<ChangeError> for StorageError {
    fn from(e: ChangeError) -> Self {
        StorageError::Corrupt {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let io = StorageError::Io {
            op: "append",
            detail: "disk full".into(),
        };
        assert!(io.to_string().contains("append"));
        assert!(StorageError::corrupt("bad record")
            .to_string()
            .contains("bad record"));
    }

    #[test]
    fn change_error_maps_to_corrupt() {
        let e: StorageError = ChangeError::Precondition("broken".into()).into();
        assert!(matches!(e, StorageError::Corrupt { .. }));
    }
}

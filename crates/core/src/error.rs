//! Error types shared by the engine, the protocols, and the baselines.

use mvcc_model::ObjectId;
use std::fmt;

/// Why a read-write transaction was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Timestamp-ordering conflict: the write arrived too late
    /// (`r-ts(x) > tn(T)` or `w-ts(x) > tn(T)`, paper Figure 3).
    TimestampConflict,
    /// Two-phase locking deadlock; this transaction was chosen as victim.
    Deadlock,
    /// Optimistic validation failed: a read object changed before commit.
    ValidationFailed,
    /// A lock or storage wait exceeded its configured timeout.
    WaitTimeout,
    /// Baseline-specific: the completed-transaction-list check failed
    /// (Chan MV2PL) or a timestamp race forced a retry (Weihl TI).
    BaselineConflict,
    /// The application requested the abort.
    UserRequested,
    /// The stall reaper force-discarded the registration after its TTL
    /// expired; the commit's `start_complete` claim failed. Retryable —
    /// a fresh attempt gets a fresh registration.
    Reaped,
    /// The write-ahead log rejected the commit record (disk full, torn
    /// write, failed fsync). Not retryable: a durability fault is a
    /// property of the medium, not of this transaction's timing — the
    /// application must surface it, not spin against a dead disk.
    LogFailed,
    /// The transaction's deadline budget expired at a blocking point
    /// (lock wait, version wait, commit entry) or between retries. Not
    /// retryable: the budget is a property of the whole request, and it
    /// is already gone.
    DeadlineExceeded,
}

impl AbortReason {
    /// Every abort reason, in declaration order. Table-driven
    /// retryability audits iterate this so a new variant cannot be added
    /// without classifying it.
    pub const ALL: [AbortReason; 9] = [
        AbortReason::TimestampConflict,
        AbortReason::Deadlock,
        AbortReason::ValidationFailed,
        AbortReason::WaitTimeout,
        AbortReason::BaselineConflict,
        AbortReason::UserRequested,
        AbortReason::Reaped,
        AbortReason::LogFailed,
        AbortReason::DeadlineExceeded,
    ];
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::TimestampConflict => "timestamp-ordering conflict",
            AbortReason::Deadlock => "deadlock victim",
            AbortReason::ValidationFailed => "optimistic validation failed",
            AbortReason::WaitTimeout => "wait timeout",
            AbortReason::BaselineConflict => "baseline protocol conflict",
            AbortReason::UserRequested => "user requested",
            AbortReason::Reaped => "reaped after registration stall",
            AbortReason::LogFailed => "write-ahead log append failed",
            AbortReason::DeadlineExceeded => "deadline exceeded",
        };
        f.write_str(s)
    }
}

/// Errors surfaced by transaction operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The transaction was (or must now be) aborted; the caller may retry
    /// a fresh transaction.
    Aborted(AbortReason),
    /// A snapshot read found its version garbage-collected (paper:
    /// "barring the unavailability of an appropriate version to read due
    /// to garbage-collection … a read request of T is never rejected").
    VersionPruned {
        /// The object whose old version is gone.
        obj: ObjectId,
        /// The start number whose snapshot needed it.
        sn: u64,
    },
    /// Operation on a transaction that already committed or aborted.
    TxnFinished,
    /// An invariant violation inside the engine (a bug, not a user error).
    Internal(String),
}

impl DbError {
    /// Whether retrying the whole transaction can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::Aborted(
                AbortReason::TimestampConflict
                    | AbortReason::Deadlock
                    | AbortReason::ValidationFailed
                    | AbortReason::WaitTimeout
                    | AbortReason::BaselineConflict
                    | AbortReason::Reaped
            )
        )
    }

    /// The abort reason, if this error is an abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            DbError::Aborted(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Aborted(r) => write!(f, "transaction aborted: {r}"),
            DbError::VersionPruned { obj, sn } => {
                write!(
                    f,
                    "version of {obj} visible at sn {sn} was garbage-collected"
                )
            }
            DbError::TxnFinished => write!(f, "transaction already finished"),
            DbError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability() {
        assert!(DbError::Aborted(AbortReason::Deadlock).is_retryable());
        assert!(DbError::Aborted(AbortReason::TimestampConflict).is_retryable());
        assert!(DbError::Aborted(AbortReason::ValidationFailed).is_retryable());
        assert!(DbError::Aborted(AbortReason::Reaped).is_retryable());
        assert!(!DbError::Aborted(AbortReason::LogFailed).is_retryable());
        assert!(!DbError::Aborted(AbortReason::UserRequested).is_retryable());
        assert!(!DbError::Aborted(AbortReason::DeadlineExceeded).is_retryable());
        assert!(!DbError::TxnFinished.is_retryable());
        assert!(!DbError::VersionPruned {
            obj: ObjectId(1),
            sn: 2
        }
        .is_retryable());
    }

    #[test]
    fn abort_reason_extraction() {
        assert_eq!(
            DbError::Aborted(AbortReason::Deadlock).abort_reason(),
            Some(AbortReason::Deadlock)
        );
        assert_eq!(DbError::TxnFinished.abort_reason(), None);
    }

    #[test]
    fn display_is_informative() {
        let e = DbError::VersionPruned {
            obj: ObjectId(0),
            sn: 9,
        };
        assert!(e.to_string().contains("garbage-collected"));
        assert!(DbError::Aborted(AbortReason::Deadlock)
            .to_string()
            .contains("deadlock"));
    }
}

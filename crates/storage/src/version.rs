//! Version records: committed versions and pending ("version φ") writes.

use crate::value::Value;
use crate::VersionNo;
use mvcc_model::TxnId;

/// A committed version of an object.
///
/// `number` is the transaction number of the creator — the paper's
/// convention that version numbers "correspond to the transaction number
/// of the transaction that wrote that version" (Section 3.2) — and chains
/// keep committed versions sorted by it.
///
/// `read_ts` is the per-version read timestamp used by timestamp-based
/// protocols: the paper's TO integration tracks it on the most recent
/// version only (Figure 3), while Reed's original MVTO (the baseline)
/// tracks it on every version. It is bookkeeping, not payload.
#[derive(Clone, Debug)]
pub struct CommittedVersion {
    /// Version number = creator's transaction number.
    pub number: VersionNo,
    /// Payload.
    pub value: Value,
    /// Largest transaction number that has read this version (0 if none).
    pub read_ts: VersionNo,
}

impl CommittedVersion {
    /// A fresh committed version with no readers yet.
    pub fn new(number: VersionNo, value: Value) -> Self {
        CommittedVersion {
            number,
            value,
            read_ts: 0,
        }
    }
}

/// An uncommitted version installed by an in-flight read-write transaction.
///
/// Under timestamp ordering the writer's number is already known,
/// recorded in `reserved_number`, and younger readers block on it
/// (Figure 3). A writer that stages before it has a number (the
/// distributed sites' 2PL) installs the paper's "version φ" (Figure 4):
/// no number until it is stamped at commit. (Single-site 2PL keeps φ in
/// its write set instead: nobody else may see it.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingVersion {
    /// The transaction that installed this version.
    pub writer: TxnId,
    /// The version number it will take if committed (`Some` under TO,
    /// `None` = φ, whose number is assigned at the lock point).
    pub reserved_number: Option<VersionNo>,
    /// Payload.
    pub value: Value,
}

impl PendingVersion {
    /// Pending write with an a-priori number (timestamp ordering).
    pub fn stamped(writer: TxnId, number: VersionNo, value: Value) -> Self {
        PendingVersion {
            writer,
            reserved_number: Some(number),
            value,
        }
    }

    /// Pending write with no number yet ("version φ").
    pub fn phi(writer: TxnId, value: Value) -> Self {
        PendingVersion {
            writer,
            reserved_number: None,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = PendingVersion::stamped(TxnId(3), 3, Value::from_u64(1));
        assert_eq!(p.reserved_number, Some(3));
        let q = PendingVersion::phi(TxnId(4), Value::empty());
        assert_eq!(q.reserved_number, None);
        assert_eq!(q.writer, TxnId(4));
    }

    #[test]
    fn fresh_committed_version_has_no_readers() {
        let v = CommittedVersion::new(7, Value::from_u64(9));
        assert_eq!(v.number, 7);
        assert_eq!(v.read_ts, 0);
        assert_eq!(v.value.as_u64(), Some(9));
    }
}

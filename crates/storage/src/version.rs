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
/// A version carries no read timestamp. The paper's TO integration
/// tracks `r-ts` on the most recent version only (Figure 3), so the chain
/// keeps that one ([`VersionChain::read_ts`](crate::VersionChain::read_ts));
/// Reed's original MVTO, which tracks it on every version, is a baseline
/// and keeps its own. Every older version a chain holds is therefore 32
/// bytes, not 40.
#[derive(Clone, Debug)]
pub struct CommittedVersion {
    /// Version number = creator's transaction number.
    pub number: VersionNo,
    /// Payload.
    pub value: Value,
}

impl CommittedVersion {
    /// A committed version numbered `number` carrying `value`.
    pub fn new(number: VersionNo, value: Value) -> Self {
        CommittedVersion { number, value }
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
    fn committed_version_is_number_and_payload() {
        let v = CommittedVersion::new(7, Value::from_u64(9));
        assert_eq!(v.number, 7);
        assert_eq!(v.value.as_u64(), Some(9));
        assert_eq!(std::mem::size_of::<CommittedVersion>(), 32);
    }
}

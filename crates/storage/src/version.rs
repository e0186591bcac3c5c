//! Version records: the committed versions a chain holds.

use crate::value::Value;
use crate::VersionNo;

/// A committed version of an object.
///
/// `number` is the transaction number of the creator — the paper's
/// convention that version numbers "correspond to the transaction number
/// of the transaction that wrote that version" (Section 3.2) — and chains
/// keep committed versions sorted by it.
///
/// A version carries nothing a concurrency-control protocol needs: no
/// read timestamp, no writer, no reservation. Timestamp ordering keeps
/// Figure 3's `r-ts` and pending reservations in its own table
/// (`mvcc_cc::pending`), and Reed's MVTO baseline keeps per-version
/// `r-ts` in its own map, so every version a chain holds is 32 bytes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_version_is_number_and_payload() {
        let v = CommittedVersion::new(7, Value::from_u64(9));
        assert_eq!(v.number, 7);
        assert_eq!(v.value.as_u64(), Some(9));
        assert_eq!(std::mem::size_of::<CommittedVersion>(), 24);
    }
}

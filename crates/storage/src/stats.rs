//! Storage statistics.

use std::fmt;

/// Aggregate counters over every chain in a store, produced by
/// [`crate::MvStore::stats`]. Used by the garbage-collection experiment
/// (E9) to report versions retained under different watermark policies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects with a materialized chain.
    pub objects: usize,
    /// Total committed versions across chains.
    pub committed_versions: usize,
    /// Total payload bytes across all versions.
    pub payload_bytes: usize,
}

impl StoreStats {
    /// Mean committed versions per object (0 for an empty store).
    pub fn versions_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.committed_versions as f64 / self.objects as f64
        }
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} objects, {} committed versions ({:.2}/object), {} payload bytes",
            self.objects,
            self.committed_versions,
            self.versions_per_object(),
            self.payload_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_per_object_handles_empty() {
        assert_eq!(StoreStats::default().versions_per_object(), 0.0);
    }

    #[test]
    fn versions_per_object_mean() {
        let s = StoreStats {
            objects: 4,
            committed_versions: 10,
            ..Default::default()
        };
        assert!((s.versions_per_object() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = StoreStats {
            objects: 1,
            committed_versions: 2,
            payload_bytes: 4,
        };
        let out = s.to_string();
        for needle in ["1 objects", "2 committed", "4 payload"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }
}

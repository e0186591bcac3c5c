//! The store's memory layout, pinned: a chain is one cache line.
//!
//! Every read in the paper's Figures 2–4 picks one version from one
//! chain, and almost every such read picks the newest. A store slot is
//! the object's 8-byte key and its 56-byte chain, aligned to 64 bytes,
//! so the newest version (the chain's first 24 bytes) sits in the same
//! line as the key the probe compares. Growing any of these types, or
//! losing the slot's alignment, is a decision this test makes visible.
//! Run it in release too (`cargo test --release --test store_layout`):
//! the benchmark measures the optimised build.

use mvdb::cc::presets;
use mvdb::core::prelude::*;
use mvdb::storage::store::Slot;
use mvdb::storage::{CommittedVersion, VersionChain};
use std::mem::{align_of, size_of};

#[test]
fn version_chain_and_slot_sizes_are_pinned() {
    // 14 payload bytes inline, or one shared pointer.
    assert_eq!(size_of::<Value>(), 16);
    // The number and the value.
    assert_eq!(size_of::<CommittedVersion>(), 24);
    // `newest`, `prev` (its `None` lives in the value's niche) and the
    // pointer to the heap history.
    assert_eq!(size_of::<VersionChain>(), 56);
    // The key and the chain, on one line.
    assert_eq!((size_of::<Slot>(), align_of::<Slot>()), (64, 64));
}

/// Seeded the way the benchmark seeds its engines, every one of 200k
/// chains starts 8 bytes into a cache line, so its newest version
/// (bytes 8–32) never straddles two lines.
#[test]
fn every_chain_starts_eight_bytes_into_a_line() {
    const KEYS: u64 = 200_000;
    let db = presets::vc_2pl(DbConfig::default());
    for k in 0..KEYS {
        db.seed(ObjectId(k), Value::from_u64(k));
    }
    for k in 0..KEYS {
        let addr = db
            .store()
            .with(ObjectId(k), |c| c as *const VersionChain as usize);
        assert_eq!(addr % 64, 8, "chain of key {k} at {addr:#x}");
    }
}

//! Run outcomes: counters, oracle verdicts and the canonical trace.

use crate::spec::SimSpec;
use std::fmt;

/// One oracle failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (`vc_invariant`, `mvsg_cycle`, `conservation`,
    /// `recovery_conservation`, `reserved_keyspace`, `in_doubt_stuck`,
    /// `engine_error`, …).
    pub oracle: &'static str,
    /// Human-readable detail (counter values, the cycle, the error).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Everything one simulated run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The spec that produced this run (print it, reproduce the run).
    pub spec: SimSpec,
    /// Completed transactions (any outcome).
    pub steps_done: u64,
    /// Scheduler ticks consumed.
    pub ticks: u64,
    /// Committed read-write transactions.
    pub commits: u64,
    /// Protocol aborts (retryable conflicts, timeouts, deadlock victims).
    pub aborts: u64,
    /// Clients stalled mid-transaction by fault injection.
    pub stalls: u64,
    /// Clients crashed at commit entry by fault injection.
    pub crashes: u64,
    /// Commits rejected by an injected WAL fault (`LogFailed`).
    pub wal_aborts: u64,
    /// Registrations force-discarded by the stall reaper.
    pub reaped: u64,
    /// Successful read-only reads.
    pub ro_reads: u64,
    /// Read-only transactions cut short (pruned version, visibility wait).
    pub ro_aborts: u64,
    /// Read-write transactions aborted with `DeadlineExceeded` (nonzero
    /// only when the spec sets a deadline).
    pub deadline_aborts: u64,
    /// Oracle failures; empty means the run passed.
    pub violations: Vec<Violation>,
    /// Canonical deterministic trace: normalized event log, the model
    /// history, and the counter line. Two runs of the same spec must
    /// produce byte-identical traces.
    pub trace: String,
    /// FNV-1a 64 hash of `trace`, hex — the run's fingerprint.
    pub fingerprint: String,
}

impl RunReport {
    /// `true` when every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line outcome summary.
    pub fn summary(&self) -> String {
        let deadline_aborts = match self.spec.deadline {
            Some(_) => format!(" deadline_aborts={}", self.deadline_aborts),
            None => String::new(),
        };
        format!(
            "{} | steps={} ticks={} commits={} aborts={} stalls={} crashes={} wal_aborts={} \
             reaped={} ro_reads={} ro_aborts={}{} violations={} fp={}",
            self.spec,
            self.steps_done,
            self.ticks,
            self.commits,
            self.aborts,
            self.stalls,
            self.crashes,
            self.wal_aborts,
            self.reaped,
            self.ro_reads,
            self.ro_aborts,
            deadline_aborts,
            self.violations.len(),
            self.fingerprint,
        )
    }

    /// The last `n` lines of the trace — the post-mortem tail.
    pub fn trace_tail(&self, n: usize) -> String {
        let lines: Vec<&str> = self.trace.lines().collect();
        let start = lines.len().saturating_sub(n);
        lines[start..].join("\n")
    }
}

/// FNV-1a 64-bit hash (stable across platforms and runs; no `Hasher`
/// randomness).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}

//! Run specifications: the few knobs that, together with a seed, fully
//! determine a simulated run.
//!
//! A [`SimSpec`] is the *entire* input of a simulation. Everything the
//! run does — which client acts each tick, which objects a transaction
//! touches, when virtual time advances, which faults fire — derives from
//! `seed` through [`SplitMixRng`](mvcc_core::SplitMixRng) streams, so
//! printing the spec *is* printing the repro.

use mvcc_core::FaultConfig;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Concurrency-control protocol under test (single-node mode; the
/// cluster's sites are strict-2PL by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Version control + strict two-phase locking (paper Figure 4).
    TwoPl,
    /// Version control + timestamp ordering (paper Figure 3).
    To,
    /// Version control + optimistic validation.
    Occ,
}

impl Protocol {
    /// Every protocol, in sweep order.
    pub const ALL: [Protocol; 3] = [Protocol::TwoPl, Protocol::To, Protocol::Occ];

    /// Short stable name (used in CLI flags and artifact names).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::TwoPl => "2pl",
            Protocol::To => "to",
            Protocol::Occ => "occ",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Protocol {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "2pl" => Ok(Protocol::TwoPl),
            "to" => Ok(Protocol::To),
            "occ" => Ok(Protocol::Occ),
            other => Err(format!("unknown protocol {other:?} (want 2pl|to|occ)")),
        }
    }
}

/// Which topology the run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One engine, one WAL, cooperative clients.
    Single,
    /// A whole cluster: N sites, 2PC commit, lossy messaging.
    Cluster,
}

impl Mode {
    /// Every mode, in sweep order.
    pub const ALL: [Mode; 2] = [Mode::Single, Mode::Cluster];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Cluster => "cluster",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Mode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "single" => Ok(Mode::Single),
            "cluster" => Ok(Mode::Cluster),
            other => Err(format!("unknown mode {other:?} (want single|cluster)")),
        }
    }
}

/// How hard the fault injector leans on the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No injected faults: pure interleaving exploration.
    None,
    /// Occasional stalls, crashes, WAL write failures and message chaos.
    Light,
    /// Frequent everything; liveness comes from retries and the reaper.
    Heavy,
}

impl FaultProfile {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Light => "light",
            FaultProfile::Heavy => "heavy",
        }
    }

    /// The concrete probabilities this profile injects.
    ///
    /// WAL bit-flips and partial fsyncs are deliberately left at zero:
    /// both make *later, unrelated* commits unrecoverable (the scan stops
    /// at the first bad CRC), so the harness's exact recovery oracle —
    /// "replaying the log reproduces every committed value" — would flag
    /// medium corruption as an engine bug. Torn writes and disk-full
    /// errors abort the affected commit cleanly and keep the oracle exact.
    pub fn fault_config(self, seed: u64) -> FaultConfig {
        let mut f = FaultConfig {
            seed,
            ..FaultConfig::default()
        };
        match self {
            FaultProfile::None => {}
            FaultProfile::Light => {
                f.stall_after_register = 0.02;
                f.crash_before_complete = 0.02;
                f.wal_torn_write = 0.01;
                f.wal_disk_full = 0.01;
                f.msg_drop = 0.05;
                f.msg_duplicate = 0.03;
                f.msg_delay = 0.10;
                f.msg_extra_delay = Duration::from_micros(300);
            }
            FaultProfile::Heavy => {
                f.stall_after_register = 0.06;
                f.crash_before_complete = 0.06;
                f.wal_torn_write = 0.04;
                f.wal_disk_full = 0.02;
                f.msg_drop = 0.20;
                f.msg_duplicate = 0.08;
                f.msg_delay = 0.25;
                f.msg_extra_delay = Duration::from_millis(1);
            }
        }
        f
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultProfile {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(FaultProfile::None),
            "light" => Ok(FaultProfile::Light),
            "heavy" => Ok(FaultProfile::Heavy),
            other => Err(format!(
                "unknown fault profile {other:?} (want none|light|heavy)"
            )),
        }
    }
}

/// Deliberately planted defects, used to prove the oracles (and the
/// explorer's minimize-and-replay loop) actually catch violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// No sabotage: a clean engine should pass every oracle.
    None,
    /// Single-node: mid-run, write a committed version into a reserved
    /// object *behind the engine's back* (no locks, no registration, no
    /// WAL record) — the reserved-keyspace oracle must flag it.
    RogueWrite,
    /// Cluster: run read-only transactions in the deliberately broken
    /// per-site-snapshots mode from the paper's discussion of \[8\]; the
    /// MVSG oracle catches the resulting cycle on susceptible schedules.
    PerSiteSnapshots,
}

impl Sabotage {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Sabotage::None => "none",
            Sabotage::RogueWrite => "rogue-write",
            Sabotage::PerSiteSnapshots => "per-site-snapshots",
        }
    }
}

impl fmt::Display for Sabotage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Sabotage {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Sabotage::None),
            "rogue-write" => Ok(Sabotage::RogueWrite),
            "per-site-snapshots" => Ok(Sabotage::PerSiteSnapshots),
            other => Err(format!(
                "unknown sabotage {other:?} (want none|rogue-write|per-site-snapshots)"
            )),
        }
    }
}

/// Everything that determines one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSpec {
    /// Master seed: scheduler, workload, fault and jitter streams all
    /// derive from it.
    pub seed: u64,
    /// Protocol under test (ignored in cluster mode).
    pub protocol: Protocol,
    /// Topology.
    pub mode: Mode,
    /// Number of sites (cluster mode).
    pub sites: u16,
    /// Read-write client slots.
    pub clients: usize,
    /// Read-only client slots.
    pub ro_clients: usize,
    /// Completed transactions (committed, aborted, stalled or crashed)
    /// before the run checks its terminal oracles.
    pub steps: u64,
    /// Workload keyspace size (objects `0..objects` per site).
    pub objects: u64,
    /// Fault injection intensity.
    pub faults: FaultProfile,
    /// Deliberately planted defect, if any.
    pub sabotage: Sabotage,
    /// Enable contention attribution (hot-key sketches + blame ledger)
    /// in the engine under test. Attribution is passive — it draws no
    /// randomness and emits no events — so a run's canonical trace must
    /// be byte-identical with it on or off (covered by a determinism
    /// test).
    pub attribution: bool,
    /// Latency budget handed to every read-write begin (single-node mode
    /// only). Tests set it to check the deadline oracle; the explorer
    /// never does, and `None` leaves the run exactly as without it.
    pub deadline: Option<Duration>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            seed: 1,
            protocol: Protocol::TwoPl,
            mode: Mode::Single,
            sites: 3,
            clients: 4,
            ro_clients: 2,
            steps: 150,
            objects: 8,
            faults: FaultProfile::Light,
            sabotage: Sabotage::None,
            attribution: false,
            deadline: None,
        }
    }
}

impl SimSpec {
    /// The explorer CLI flags that reproduce exactly this run.
    pub fn repro_args(&self) -> String {
        format!(
            "--seed-start {} --seeds 1 --modes {} --protocols {} --faults {} --sabotage {} \
             --sites {} --clients {} --ro-clients {} --steps {} --objects {}",
            self.seed,
            self.mode,
            self.protocol,
            self.faults,
            self.sabotage,
            self.sites,
            self.clients,
            self.ro_clients,
            self.steps,
            self.objects,
        )
    }
}

impl fmt::Display for SimSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} mode={} proto={} faults={} sabotage={} sites={} clients={}+{}ro steps={} objects={}",
            self.seed,
            self.mode,
            self.protocol,
            self.faults,
            self.sabotage,
            self.sites,
            self.clients,
            self.ro_clients,
            self.steps,
            self.objects,
        )?;
        if let Some(d) = self.deadline {
            write!(f, " deadline={d:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(p.name().parse::<Protocol>().unwrap(), p);
        }
        for m in Mode::ALL {
            assert_eq!(m.name().parse::<Mode>().unwrap(), m);
        }
        for f in [FaultProfile::None, FaultProfile::Light, FaultProfile::Heavy] {
            assert_eq!(f.name().parse::<FaultProfile>().unwrap(), f);
        }
        for s in [
            Sabotage::None,
            Sabotage::RogueWrite,
            Sabotage::PerSiteSnapshots,
        ] {
            assert_eq!(s.name().parse::<Sabotage>().unwrap(), s);
        }
    }

    #[test]
    fn corrupting_wal_faults_stay_off() {
        for p in [FaultProfile::Light, FaultProfile::Heavy] {
            let f = p.fault_config(7);
            assert_eq!(f.wal_bit_flip, 0.0);
            assert_eq!(f.wal_partial_fsync, 0.0);
        }
    }
}

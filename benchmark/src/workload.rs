//! The four workloads and their seeded transaction scripts.
//!
//! A script is generated before any round runs and is a pure function of
//! `(workload, seed, thread)`; the engine only ever sees the generated
//! transactions. Client threads walk their script round after round and
//! wrap around at its end.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Keys preloaded into every engine on every workload. 200k uniform keys
/// overflow this host's L2; the 10k-key hot set of `contended` fits.
pub const KEYS: u32 = 200_000;
/// Initial value of every key. Large enough that no `long_reader` debit
/// can underflow; the conservation checks subtract it.
pub const INITIAL: u64 = 1 << 32;
/// Transactions per thread script.
pub const SCRIPT_TXNS: usize = 1 << 16;
/// `contended`: Zipf exponent and hot-set size.
pub const ZIPF_THETA: f64 = 0.9;
pub const HOT_KEYS: u32 = 10_000;
/// `long_reader`: keys per scanned block; blocks are aligned and cover
/// `BLOCKS * BLOCK_KEYS` ≤ `KEYS` keys.
pub const BLOCK_KEYS: u32 = 512;
pub const BLOCKS: u32 = KEYS / BLOCK_KEYS;

/// Which of the four workloads runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UniformMix,
    Durable,
    Contended,
    LongReader,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UniformMix,
        Workload::Durable,
        Workload::Contended,
        Workload::LongReader,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformMix => "uniform_mix",
            Workload::Durable => "durable",
            Workload::Contended => "contended",
            Workload::LongReader => "long_reader",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn threads(self) -> usize {
        match self {
            Workload::UniformMix | Workload::Durable => 1,
            Workload::Contended | Workload::LongReader => 2,
        }
    }

    /// Whether engines are opened on a write-ahead log.
    pub fn wal(self) -> bool {
        self == Workload::Durable
    }

    /// Whether `thread`'s slices count towards `txn_per_s`. On
    /// `long_reader` thread 0 only scans; the rate is the writer's.
    pub fn counts_towards_rate(self, thread: usize) -> bool {
        self != Workload::LongReader || thread == 1
    }
}

/// One scripted transaction. `keys` holds what `op` needs and no more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Txn {
    pub op: Op,
    pub keys: [u32; 8],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read-only: read `keys[0..8]`.
    Ro8,
    /// Read-write: read `keys[0..4]`, increment `keys[4..8]`.
    Rw4r4w,
    /// Read-write: increment `keys[0..4]`.
    Rw4w,
    /// Read-only: read the 512 keys of block `keys[0]`.
    Scan,
    /// Read-write: move one unit from `keys[0]` to `keys[1]`.
    Transfer,
}

impl Op {
    pub fn is_read_only(self) -> bool {
        matches!(self, Op::Ro8 | Op::Scan)
    }

    /// Increments a committed transaction of this kind adds to the sum of
    /// all values.
    pub fn increments(self) -> u64 {
        match self {
            Op::Rw4r4w | Op::Rw4w => 4,
            Op::Ro8 | Op::Scan | Op::Transfer => 0,
        }
    }
}

/// Zipf(θ) over ranks `0..n` by inverse-CDF lookup; rank `r` is key `r`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        let u: f64 = rng.random();
        (self.cdf.partition_point(|&c| c < u) as u32).min(self.cdf.len() as u32 - 1)
    }
}

/// Fill `out` with distinct keys drawn from `draw` (a transaction touches
/// each object once: the engine's one-write-per-object model).
fn distinct(out: &mut [u32], mut draw: impl FnMut() -> u32) {
    for i in 0..out.len() {
        out[i] = loop {
            let k = draw();
            if !out[..i].contains(&k) {
                break k;
            }
        };
    }
}

/// The script of `thread` on `workload` under `seed`.
pub fn script(workload: Workload, seed: u64, thread: usize) -> Vec<Txn> {
    // One independent stream per (seed, thread).
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = (workload == Workload::Contended).then(|| Zipf::new(HOT_KEYS, ZIPF_THETA));
    (0..SCRIPT_TXNS)
        .map(|_| {
            let mut keys = [0u32; 8];
            let op = match workload {
                Workload::UniformMix | Workload::Durable => {
                    let op = if rng.random_bool(0.5) {
                        Op::Ro8
                    } else {
                        Op::Rw4r4w
                    };
                    distinct(&mut keys, || rng.random_range(0..KEYS));
                    op
                }
                Workload::Contended => {
                    let zipf = zipf.as_ref().expect("built above");
                    if rng.random_bool(0.2) {
                        distinct(&mut keys, || zipf.sample(&mut rng));
                        Op::Ro8
                    } else {
                        distinct(&mut keys[..4], || zipf.sample(&mut rng));
                        Op::Rw4w
                    }
                }
                Workload::LongReader if thread == 0 => {
                    keys[0] = rng.random_range(0..BLOCKS);
                    Op::Scan
                }
                Workload::LongReader => {
                    let base = rng.random_range(0..BLOCKS) * BLOCK_KEYS;
                    distinct(&mut keys[..2], || base + rng.random_range(0..BLOCK_KEYS));
                    Op::Transfer
                }
            };
            Txn { op, keys }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            for thread in 0..w.threads() {
                assert_eq!(script(w, 7, thread), script(w, 7, thread), "{w:?}");
                assert_ne!(script(w, 7, thread), script(w, 8, thread), "{w:?}");
            }
        }
        assert_ne!(
            script(Workload::Contended, 7, 0),
            script(Workload::Contended, 7, 1),
            "threads draw from different streams"
        );
    }

    #[test]
    fn scripts_respect_their_workload() {
        for t in script(Workload::UniformMix, 1, 0) {
            assert!(matches!(t.op, Op::Ro8 | Op::Rw4r4w));
            let mut k = t.keys.to_vec();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), 8, "keys of one transaction are distinct");
            assert!(t.keys.iter().all(|&k| k < KEYS));
        }
        for t in script(Workload::Contended, 1, 1) {
            assert!(matches!(t.op, Op::Ro8 | Op::Rw4w));
            assert!(t.keys.iter().all(|&k| k < HOT_KEYS));
        }
        assert!(script(Workload::LongReader, 1, 0)
            .iter()
            .all(|t| t.op == Op::Scan && t.keys[0] < BLOCKS));
        for t in script(Workload::LongReader, 1, 1) {
            assert_eq!(t.op, Op::Transfer);
            assert_ne!(t.keys[0], t.keys[1]);
            assert_eq!(t.keys[0] / BLOCK_KEYS, t.keys[1] / BLOCK_KEYS);
        }
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let share = |w, thread| {
            let s = script(w, 3, thread);
            s.iter().filter(|t| t.op.is_read_only()).count() as f64 / s.len() as f64
        };
        assert!((share(Workload::UniformMix, 0) - 0.5).abs() < 0.02);
        assert!((share(Workload::Contended, 0) - 0.2).abs() < 0.02);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(HOT_KEYS, ZIPF_THETA);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) < 10).count() as f64 / n as f64;
        let mass = |upto: u32| {
            (1..=upto)
                .map(|r| (r as f64).powf(-ZIPF_THETA))
                .sum::<f64>()
        };
        let expected = mass(10) / mass(HOT_KEYS);
        assert!(
            expected > 0.15,
            "ten of 10k keys draw {expected} of the accesses"
        );
        assert!((top10 - expected).abs() < 0.01, "{top10} vs {expected}");
    }
}

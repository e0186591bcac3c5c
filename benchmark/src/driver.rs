//! The measured pass: closed-loop client threads, rounds, slices.
//!
//! * A **slice** is [`SLICE`] consecutive transactions of one client thread.
//!   Only transaction boundaries are timed (one clock read each), and the
//!   rate estimator uses slice boundaries only.
//! * A **round** is [`ROUND`] of one arm; a thread stops at the first slice
//!   boundary past the deadline. Arms rotate, and the arm a cycle starts
//!   with shifts every cycle, so host drift lands on all arms equally.
//! * Between rounds, outside every slice, the main thread harvests the
//!   threads' buffers and runs the engine's maintenance.
//!
//! Client threads live for the whole pass (the engine keeps per-thread
//! state, as it would for a server's workers) and meet the main thread at
//! a barrier before and after every round.

use crate::engine::{with_db, Engines, Proto};
use crate::stats::{median, quantile_sorted, Hist};
use crate::trace::{self_times, Kind, Off, Rec, Span, Spans, NO_PARENT};
use crate::workload::{Op, Txn, Workload, BLOCK_KEYS, INITIAL};
use mvcc_core::{ConcurrencyControl, DbError, MetricsSnapshot, MvDatabase, RwTxn};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Transactions per slice.
pub const SLICE: usize = 64;
/// Length of one round of one arm.
pub const ROUND: Duration = Duration::from_millis(250);
/// Attempts after which a read-write transaction counts as failed.
pub const MAX_ATTEMPTS: u32 = 64;
/// `durable`: rounds of one engine between two checkpoints + log rotations.
const CHECKPOINT_EVERY: usize = 4;
/// Spans per thread and arm kept for the Chrome trace file (cut at the
/// last transaction boundary before it).
const TRACE_SAMPLE_SPANS: usize = 4096;
/// Span buffer capacity per thread: above the spans of one traced round on
/// this host (≈ 0.5 M), so recording never reallocates.
const SPAN_CAPACITY: usize = 1 << 20;

/// How many rounds a pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Rounds per arm, warm-up included.
    pub cycles: usize,
    /// Leading rounds per arm that are run but not measured.
    pub warmup: usize,
    /// Whether each protocol also runs as a traced arm.
    pub traced: bool,
}

/// Outcome counts of executed transactions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Transactions that finished (read-only) or committed (read-write).
    pub done: u64,
    /// Transactions that failed: 64 attempts exhausted, a non-retryable
    /// error, any read-only error, or a failed value check.
    pub failed: u64,
    /// Increments applied by committed transactions.
    pub increments: u64,
    /// Read-write commits.
    pub commits: u64,
    /// Read-only transactions that errored or saw an inconsistent snapshot
    /// (also counted in `failed`): a correctness violation, not a cost.
    pub bad_ro: u64,
    /// `vc().lag()` sampled at read-only begin (traced rounds only).
    pub lag_sum: u64,
    pub lag_samples: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.done += o.done;
        self.failed += o.failed;
        self.increments += o.increments;
        self.commits += o.commits;
        self.bad_ro += o.bad_ro;
        self.lag_sum += o.lag_sum;
        self.lag_samples += o.lag_samples;
    }
}

/// Timing samples of one arm (one protocol, traced or not).
#[derive(Default)]
pub struct ArmStats {
    /// Slice times per client thread, nanoseconds.
    pub slices: Vec<Vec<u64>>,
    /// Per-transaction latency (boundary to boundary, retries included).
    pub ro: Hist,
    pub rw: Hist,
    /// Outcomes of the measured rounds.
    pub tally: Tally,
}

/// Folded spans of one protocol's traced rounds.
pub struct SpanStats {
    /// Self time per span kind, indexed by `Kind as usize`.
    pub self_ns: Vec<Hist>,
    /// Σ duration of engine-call spans.
    pub engine_ns: u64,
    /// Σ duration of attempts that aborted.
    pub aborted_ns: u64,
    /// Σ time of the traced slices the spans were recorded in.
    pub slice_ns: u64,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            self_ns: vec![Hist::default(); Kind::COUNT],
            engine_ns: 0,
            aborted_ns: 0,
            slice_ns: 0,
        }
    }
}

/// Everything a pass learned about one protocol.
#[derive(Default)]
pub struct ProtoStats {
    pub plain: ArmStats,
    pub traced: ArmStats,
    pub spans: SpanStats,
    /// All rounds, warm-up included (what the value checks need).
    pub total: Tally,
    /// Engine counters over the measured rounds (and the maintenance
    /// between them).
    pub counters: MetricsSnapshot,
    pub gc_ns: Vec<u64>,
    pub gc_pruned: u64,
    pub checkpoint_ns: Vec<u64>,
    /// `store_stats()` committed versions per object at each traced
    /// pass's round end, before GC.
    pub versions_per_key: Vec<f64>,
}

/// A sample of raw spans for the trace file.
pub struct TraceSample {
    pub proto: Proto,
    pub thread: usize,
    pub spans: Vec<Span>,
}

pub struct PassResult {
    /// Indexed like [`Proto::ALL`].
    pub protos: [ProtoStats; 3],
    pub samples: Vec<TraceSample>,
}

// ---- the transaction executor ----------------------------------------------

fn read<C: ConcurrencyControl, R: Rec>(
    t: &mut RwTxn<'_, C>,
    key: u32,
    rec: &mut R,
) -> Result<u64, DbError> {
    let s = rec.open(Kind::RwRead);
    let v = t.read(ObjectId(key as u64));
    rec.close(s);
    as_u64(&v?)
}

fn as_u64(v: &Value) -> Result<u64, DbError> {
    v.as_u64()
        .ok_or_else(|| DbError::Internal("benchmark: value is not a u64".into()))
}

/// `read_for_update` + `write` of `value + delta`.
fn add<C: ConcurrencyControl, R: Rec>(
    t: &mut RwTxn<'_, C>,
    key: u32,
    delta: i64,
    rec: &mut R,
) -> Result<(), DbError> {
    let obj = ObjectId(key as u64);
    let s = rec.open(Kind::RwRfu);
    let v = t.read_for_update(obj);
    rec.close(s);
    let next = Value::from_u64(as_u64(&v?)?.wrapping_add_signed(delta));
    let s = rec.open(Kind::RwWrite);
    let r = t.write(obj, next);
    rec.close(s);
    r
}

/// One attempt at a read-write transaction. On `Err` the handle is dropped
/// here, which runs the engine's abort path inside the attempt span.
fn attempt<C: ConcurrencyControl, R: Rec>(
    db: &MvDatabase<C>,
    txn: &Txn,
    rec: &mut R,
) -> Result<(), DbError> {
    let s = rec.open(Kind::RwBegin);
    let t = db.begin_read_write();
    rec.close(s);
    let mut t = t?;
    match txn.op {
        Op::Rw4r4w => {
            for &k in &txn.keys[..4] {
                std::hint::black_box(read(&mut t, k, rec)?);
            }
            for &k in &txn.keys[4..] {
                add(&mut t, k, 1, rec)?;
            }
        }
        Op::Rw4w => {
            for &k in &txn.keys[..4] {
                add(&mut t, k, 1, rec)?;
            }
        }
        Op::Transfer => {
            add(&mut t, txn.keys[0], -1, rec)?;
            add(&mut t, txn.keys[1], 1, rec)?;
        }
        Op::Ro8 | Op::Scan => unreachable!("read-only ops run in `read_only`"),
    }
    let s = rec.open(Kind::RwCommit);
    let r = t.commit();
    rec.close(s);
    r.map(drop)
}

fn read_only<C: ConcurrencyControl, R: Rec>(
    db: &MvDatabase<C>,
    txn: &Txn,
    rec: &mut R,
    tally: &mut Tally,
) {
    let (first, count) = match txn.op {
        Op::Scan => (txn.keys[0] * BLOCK_KEYS, BLOCK_KEYS as usize),
        _ => (0, txn.keys.len()),
    };
    let s = rec.open(Kind::RoBegin);
    let mut ro = db.begin_read_only();
    rec.close(s);
    if R::ON {
        tally.lag_sum += db.vc().lag();
        tally.lag_samples += 1;
    }
    let mut sum = 0u64;
    let mut ok = true;
    for i in 0..count {
        let key = match txn.op {
            Op::Scan => first + i as u32,
            _ => txn.keys[i],
        };
        let s = rec.open(Kind::RoRead);
        let v = ro.read(ObjectId(key as u64));
        rec.close(s);
        match v.as_ref().map(Value::as_u64) {
            Ok(Some(v)) => sum = sum.wrapping_add(v),
            _ => ok = false,
        }
    }
    let s = rec.open(Kind::RoFinish);
    ro.finish();
    rec.close(s);
    // Transfers stay inside a block, so every snapshot of a block sums to
    // its preload: the live check that scans see consistent snapshots.
    if txn.op == Op::Scan && sum != BLOCK_KEYS as u64 * INITIAL {
        ok = false;
    }
    std::hint::black_box(sum);
    if ok {
        tally.done += 1;
    } else {
        tally.failed += 1;
        tally.bad_ro += 1;
    }
}

/// Busy-wait `min(2^aborts, 4096)` µs before the next attempt. Retrying at
/// once starves a deadlock partner that has to be woken from a futex: on
/// this host the victim re-takes its first lock 64 times before the woken
/// thread runs (measured: 25 transactions per 12 s of `contended` 2PL ran
/// out of attempts). The cap makes 64 attempts outlast a vCPU that the
/// host stalls for tens of milliseconds (with a 64 µs cap, 1 transaction in
/// 40 runs still ran out). Spinning, not sleeping, keeps the host's timer
/// slack out of the measurement; the wait is part of the aborted attempt's
/// span.
fn back_off(aborts: u32) {
    let wait = Duration::from_micros(1 << aborts.min(12));
    let t = Instant::now();
    while t.elapsed() < wait {
        std::hint::spin_loop();
    }
}

fn execute<C: ConcurrencyControl, R: Rec>(
    db: &MvDatabase<C>,
    txn: &Txn,
    rec: &mut R,
    tally: &mut Tally,
) {
    if txn.op.is_read_only() {
        let root = rec.open(Kind::TxnRo);
        read_only(db, txn, rec, tally);
        rec.close(root);
        return;
    }
    let root = rec.open(Kind::TxnRw);
    let mut committed = false;
    for aborts in 0..MAX_ATTEMPTS {
        let a = rec.open(Kind::Attempt);
        match attempt(db, txn, rec) {
            Ok(()) => {
                rec.close(a);
                committed = true;
                break;
            }
            Err(e) if e.is_retryable() => {
                back_off(aborts);
                rec.close_aborted(a);
            }
            Err(_) => {
                rec.close_aborted(a);
                break;
            }
        }
    }
    rec.close(root);
    if committed {
        tally.done += 1;
        tally.commits += 1;
        tally.increments += txn.op.increments();
    } else {
        tally.failed += 1;
    }
}

// ---- client threads --------------------------------------------------------

#[derive(Clone, Copy)]
enum Cmd {
    Run { proto: Proto, traced: bool },
    Stop,
}

struct Worker {
    /// Next script position; `round_start` is where this round began.
    cursor: usize,
    round_start: usize,
    /// Transaction-boundary timestamps of the round: `n + 1` for `n`
    /// transactions, `n` a multiple of [`SLICE`].
    stamps: Vec<u64>,
    spans: Option<Spans>,
    tally: Tally,
    panicked: bool,
}

fn run_round<C: ConcurrencyControl, R: Rec>(
    db: &MvDatabase<C>,
    script: &[Txn],
    epoch: Instant,
    w: &mut Worker,
    rec: &mut R,
) {
    let deadline = (epoch.elapsed() + ROUND).as_nanos() as u64;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        let at_slice_boundary = w.stamps.len().is_multiple_of(SLICE);
        w.stamps.push(now);
        if at_slice_boundary && now >= deadline {
            return;
        }
        execute(db, &script[w.cursor], rec, &mut w.tally);
        w.cursor = (w.cursor + 1) % script.len();
    }
}

fn client_thread(
    engines: &Engines,
    script: &[Txn],
    epoch: Instant,
    barrier: &Barrier,
    cmd: &Mutex<Cmd>,
    worker: &Mutex<Worker>,
) {
    loop {
        barrier.wait();
        let Cmd::Run { proto, traced } = *cmd.lock().expect("cmd lock") else {
            return;
        };
        {
            let mut guard = worker.lock().expect("worker lock");
            let w = &mut *guard;
            w.round_start = w.cursor;
            // An engine panic must not leave the main thread at the barrier
            // forever; it is reported as a failed pass instead.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_db!(engines, proto, |db| {
                    if traced {
                        let mut spans = w.spans.take().expect("traced pass allocates spans");
                        run_round(db, script, epoch, w, &mut spans);
                        w.spans = Some(spans);
                    } else {
                        run_round(db, script, epoch, w, &mut Off);
                    }
                })
            }));
            w.panicked |= outcome.is_err();
        }
        barrier.wait();
    }
}

// ---- harvesting ------------------------------------------------------------

/// Fold the timestamps and outcomes of one thread's round into `arm`.
fn harvest_timing(w: &Worker, script: &[Txn], thread: usize, arm: &mut ArmStats) {
    arm.tally.add(&w.tally);
    for (i, pair) in w.stamps.windows(2).enumerate() {
        let latency = pair[1] - pair[0];
        if script[(w.round_start + i) % script.len()].op.is_read_only() {
            arm.ro.record(latency);
        } else {
            arm.rw.record(latency);
        }
    }
    arm.slices[thread].extend(
        w.stamps
            .chunks_exact(SLICE)
            .zip(w.stamps.iter().skip(SLICE).step_by(SLICE))
            .map(|(chunk, &end)| end - chunk[0]),
    );
}

/// Fold the spans of one thread's traced round into `stats`; with `sample`,
/// also keep a prefix of them for the trace file.
fn harvest_spans(w: &Worker, stats: &mut SpanStats, sample: Option<&mut Vec<Span>>) {
    let spans = &w.spans.as_ref().expect("traced pass allocates spans").buf;
    stats.slice_ns += w.stamps.last().unwrap_or(&0) - w.stamps.first().unwrap_or(&0);
    for (span, own) in spans.iter().zip(self_times(spans)) {
        stats.self_ns[span.kind as usize].record(own);
        if span.kind.is_engine_call() {
            stats.engine_ns += span.dur();
        } else if span.kind == Kind::Attempt && span.aborted {
            stats.aborted_ns += span.dur();
        }
    }
    if let Some(sample) = sample {
        // A prefix that ends at a transaction boundary, so parent indices
        // stay valid.
        let end = spans
            .iter()
            .take(TRACE_SAMPLE_SPANS + 1)
            .rposition(|s| s.parent == NO_PARENT)
            .unwrap_or(0);
        sample.extend_from_slice(&spans[..end]);
    }
}

/// Run one pass of `plan` over `engines` with `scripts[thread]`.
pub fn run_pass(engines: &Engines, scripts: &[Vec<Txn>], plan: Plan) -> io::Result<PassResult> {
    let threads = scripts.len();
    let epoch = Instant::now();
    let barrier = Barrier::new(threads + 1);
    let cmd = Mutex::new(Cmd::Stop);
    let workers: Vec<Mutex<Worker>> = (0..threads)
        .map(|_| {
            Mutex::new(Worker {
                cursor: 0,
                round_start: 0,
                // Twice the transactions a round reaches on this host.
                stamps: Vec::with_capacity(1 << 17),
                spans: plan.traced.then(|| Spans::new(epoch, SPAN_CAPACITY)),
                tally: Tally::default(),
                panicked: false,
            })
        })
        .collect();
    let mut arms: Vec<(Proto, bool)> = Proto::ALL.iter().map(|&p| (p, false)).collect();
    if plan.traced {
        arms.extend(Proto::ALL.iter().map(|&p| (p, true)));
    }
    let mut result = PassResult {
        protos: Default::default(),
        samples: Vec::new(),
    };
    for stats in &mut result.protos {
        stats.plain.slices = vec![Vec::new(); threads];
        stats.traced.slices = vec![Vec::new(); threads];
    }
    let mut counters_at_start: [Option<MetricsSnapshot>; 3] = [None; 3];
    let rounds_per_proto = plan.cycles * arms.len() / 3;
    let mut rounds_left = [rounds_per_proto; 3];

    let outcome = std::thread::scope(|scope| {
        for (script, worker) in scripts.iter().zip(&workers) {
            let (barrier, cmd) = (&barrier, &cmd);
            scope.spawn(move || client_thread(engines, script, epoch, barrier, cmd, worker));
        }
        let mut rounds = || -> io::Result<()> {
            for cycle in 0..plan.cycles {
                let measured = cycle >= plan.warmup;
                for pos in 0..arms.len() {
                    let (proto, traced) = arms[(pos + cycle) % arms.len()];
                    let pi = proto as usize;
                    if measured && counters_at_start[pi].is_none() {
                        counters_at_start[pi] = Some(with_db!(engines, proto, |db| db.metrics()));
                    }
                    *cmd.lock().expect("cmd lock") = Cmd::Run { proto, traced };
                    barrier.wait();
                    barrier.wait();

                    let stats = &mut result.protos[pi];
                    // The first measured traced round of a protocol is sampled
                    // for the trace file.
                    let sampled =
                        traced && measured && !result.samples.iter().any(|s| s.proto == proto);
                    for (thread, worker) in workers.iter().enumerate() {
                        let mut w = worker.lock().expect("worker lock");
                        if w.panicked {
                            return Err(io::Error::other(format!(
                                "client thread {thread} panicked in arm {}",
                                proto.name()
                            )));
                        }
                        stats.total.add(&w.tally);
                        if measured && traced {
                            harvest_timing(&w, &scripts[thread], thread, &mut stats.traced);
                            let mut sample = sampled.then(Vec::new);
                            harvest_spans(&w, &mut stats.spans, sample.as_mut());
                            result.samples.extend(sample.map(|spans| TraceSample {
                                proto,
                                thread,
                                spans,
                            }));
                        } else if measured {
                            harvest_timing(&w, &scripts[thread], thread, &mut stats.plain);
                        }
                        w.tally = Tally::default();
                        w.stamps.clear();
                        if let Some(spans) = &mut w.spans {
                            spans.clear();
                        }
                    }
                    if plan.traced && measured {
                        let st = with_db!(engines, proto, |db| db.store_stats());
                        stats.versions_per_key.push(st.versions_per_object());
                    }
                    // Checkpoint after an engine's 1st, 5th, 9th … round (one
                    // costs ≈ 0.2 s on the 200k-key store, as much as the
                    // round itself) but never after its last: `verify`
                    // recovers a log that still holds commit records.
                    rounds_left[pi] -= 1;
                    let done = rounds_per_proto - rounds_left[pi];
                    let rotate = rounds_left[pi] > 0 && done % CHECKPOINT_EVERY == 1;
                    let m = engines.maintain(proto, rotate)?;
                    if measured {
                        stats.gc_ns.push(m.gc_ns);
                        stats.gc_pruned += m.pruned;
                        stats.checkpoint_ns.extend(m.checkpoint_ns);
                    }
                }
            }
            Ok(())
        };
        let outcome = rounds();
        *cmd.lock().expect("cmd lock") = Cmd::Stop;
        barrier.wait();
        outcome
    });
    outcome?;

    for (proto, (stats, start)) in Proto::ALL
        .into_iter()
        .zip(result.protos.iter_mut().zip(counters_at_start))
    {
        if let Some(start) = start {
            stats.counters = with_db!(engines, proto, |db| db.metrics()).delta(&start);
        }
    }
    Ok(result)
}

// ---- estimators ------------------------------------------------------------

/// The slice times of the client threads that count towards the rate.
fn counted_slices(workload: Workload, arm: &ArmStats) -> impl Iterator<Item = Vec<u64>> + '_ {
    arm.slices
        .iter()
        .enumerate()
        .filter(move |(thread, s)| workload.counts_towards_rate(*thread) && !s.is_empty())
        .map(|(_, s)| s.clone())
}

/// Committed transactions per second: Σ over the threads that count of
/// `SLICE / median(slice time)`. The whole-run mean sits 20–25 % below the
/// typical rate on this host and spreads twice as much between runs,
/// because the vCPU stalls; the median slice does not see the stalls.
pub fn rate_per_s(workload: Workload, arm: &ArmStats) -> f64 {
    counted_slices(workload, arm)
        .map(|mut s| SLICE as f64 * 1e9 / median(&mut s))
        .sum()
}

/// `(IQR / median, 1 − n·median / Σ)` of the slice times, averaged over the
/// threads that count: how noisy the run was, and the share of wall time
/// above the typical rate's.
pub fn slice_noise(workload: Workload, arm: &ArmStats) -> (f64, f64) {
    let (mut iqr, mut stall, mut n) = (0.0, 0.0, 0.0);
    for mut s in counted_slices(workload, arm) {
        let med = median(&mut s);
        iqr += (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / med;
        stall += 1.0 - s.len() as f64 * med / s.iter().sum::<u64>() as f64;
        n += 1.0;
    }
    if n == 0.0 {
        (0.0, 0.0)
    } else {
        (iqr / n, stall / n)
    }
}

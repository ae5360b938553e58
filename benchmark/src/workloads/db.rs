//! `db_read` and `db_write` — the paper's database, one table used two
//! ways so that the same layer (`sunmt-sync`) is measured on its
//! uncontended fast path and on its blocking path.
//!
//! 64 pre-spawned unbound client threads over 4 096 records; each record
//! is a `Mutex` (`SyncType::DEFAULT`) plus a balance, under one table-wide
//! `RwLock`. Operation = one transaction. Closed loop, 64 clients.
//!
//! * `db_read`: uniform keys; 95 % lookups (`rw_enter(Reader)` + one
//!   record mutex), 5 % transfers (two record mutexes in address order).
//!   Enter/exit pairs that never block dominate.
//! * `db_write`: transfers with Zipf(0.99) keys over a 64-record hot set,
//!   1 % checkpoints (`rw_enter(Writer)`), and every 16th transaction
//!   appends to a log bounded by a `Sema` of 2 whose holder works ~1 µs.
//!   Contended enter, block on the user-level sleep queue, wake/handoff —
//!   64 threads on 2 LWPs is the oversubscribed regime of "Basic Lock
//!   Algorithms in Lightweight Thread Environments".
//!
//! A checkpoint takes a checkpoint `Mutex` before the writer lock, as a
//! database serializes its checkpoints, so the table never has two writers
//! at once. That is also what keeps the workload from hanging: with two
//! writers the library's `RwLock` can lose a wakeup. A writer's exit
//! stores the state word and then loads the waiting-writer count with no
//! store-load fence between them (`rwlock.rs`, `exit` →
//! `wake_after_release`), so a second writer that arrives just then can
//! park unseen while the woken readers queue up behind it. The benchmark
//! measures the library as it is and may not change it; the fix is a
//! later issue.
//!
//! Preemption is off by default and a transaction that never blocks never
//! reschedules, so a client yields after every 64 transactions, between
//! operations and outside any span: all 64 clients make progress and the
//! yield is think time, not operation latency.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use sunmt::sync::{Mutex, RwLock, RwType, Sema, SyncType};

use super::Prepared;
use crate::harness::{join_all, now, ns_to_cycles, unbound, wait_go, Checksum, Rec, SmallRng};
use crate::span::{sampled, Name, Spans};

pub const CLIENTS: usize = 64;
pub const RECORDS: usize = 4096;
pub const HOT: usize = 64;
pub const ZIPF_S: f64 = 0.99;
pub const LOG_EVERY: u64 = 16;
pub const LOG_SLOTS: u32 = 2;
pub const LOG_HOLD_NS: u64 = 1000;
pub const YIELD_EVERY: u64 = 64;
/// Transactions generated per client; the client cycles through them.
const OPS_PER_CLIENT: usize = 1 << 14;
const SPAN_SHIFT: u32 = 8;
/// Every record keeps `a + b == BALANCE`; `a` is the balance transfers
/// move, so the table total of `a` is conserved.
const BALANCE: i64 = 1 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Read,
    Write,
}

#[derive(Clone, Copy)]
enum Kind {
    Lookup,
    Transfer,
    Checkpoint,
}

#[derive(Clone, Copy)]
struct Txn {
    kind: Kind,
    k1: u16,
    k2: u16,
    amount: u8,
}

#[repr(align(64))]
struct Record {
    lock: Mutex,
    a: AtomicI64,
    b: AtomicI64,
}

/// Keeps a shared variable on a cache line of its own, so that where the
/// allocator happens to put the table does not decide which variables
/// share a line (that alone moved throughput by 10 % between processes).
#[repr(align(64))]
struct Line<T>(T);

struct Table {
    rw: Line<RwLock>,
    checkpoint_lock: Line<Mutex>,
    log_slots: Line<Sema>,
    log_len: Line<AtomicU64>,
    log_expected: AtomicU64,
    records: Vec<Record>,
    hot: Vec<u16>,
}

fn generate(rng: &mut SmallRng, mix: Mix, hot: &[u16], zipf_cdf: &[f64]) -> Vec<Txn> {
    let zipf = |rng: &mut SmallRng| {
        let u = rng.unit();
        hot[zipf_cdf.partition_point(|c| *c < u).min(HOT - 1)]
    };
    (0..OPS_PER_CLIENT)
        .map(|_| {
            let amount = 1 + rng.below(100) as u8;
            let roll = rng.below(100);
            match mix {
                Mix::Read => {
                    let k1 = rng.below(RECORDS as u64) as u16;
                    let k2 = (k1 + 1 + rng.below(RECORDS as u64 - 1) as u16) % RECORDS as u16;
                    let kind = if roll < 95 {
                        Kind::Lookup
                    } else {
                        Kind::Transfer
                    };
                    Txn {
                        kind,
                        k1,
                        k2,
                        amount,
                    }
                }
                Mix::Write => {
                    let k1 = zipf(rng);
                    let mut k2 = zipf(rng);
                    while k2 == k1 {
                        k2 = hot[rng.below(HOT as u64) as usize];
                    }
                    let kind = if roll < 1 {
                        Kind::Checkpoint
                    } else {
                        Kind::Transfer
                    };
                    Txn {
                        kind,
                        k1,
                        k2,
                        amount,
                    }
                }
            }
        })
        .collect()
}

pub fn setup(seed: u64, mix: Mix) -> Prepared {
    let mut rng = SmallRng::new(seed);
    // The hot set is a seeded choice of records, so that it is spread
    // over the table rather than one contiguous run of cache lines.
    let mut perm: Vec<u16> = (0..RECORDS as u16).collect();
    for i in 0..HOT {
        perm.swap(i, i + rng.below((RECORDS - i) as u64) as usize);
    }
    perm.truncate(HOT);
    let weights: Vec<f64> = (1..=HOT).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let zipf_cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let table: &'static Table = Box::leak(Box::new(Table {
        rw: Line(RwLock::new(SyncType::DEFAULT)),
        checkpoint_lock: Line(Mutex::new(SyncType::DEFAULT)),
        records: (0..RECORDS)
            .map(|_| Record {
                lock: Mutex::new(SyncType::DEFAULT),
                a: AtomicI64::new(BALANCE),
                b: AtomicI64::new(0),
            })
            .collect(),
        hot: perm,
        log_slots: Line(Sema::new(LOG_SLOTS, SyncType::DEFAULT)),
        log_len: Line(AtomicU64::new(0)),
        log_expected: AtomicU64::new(0),
    }));

    let mut sum = Checksum::new();
    let clients = (0..CLIENTS)
        .map(|c| {
            let txns = generate(&mut rng, mix, &table.hot, &zipf_cdf);
            for t in &txns {
                sum.add(t.kind as u64 | u64::from(t.k1) << 8 | u64::from(t.k2) << 24);
                sum.add(u64::from(t.amount));
            }
            unbound(move || client(c, table, mix, txns))
        })
        .collect();

    Prepared {
        checksum: sum.get(),
        sizes: match mix {
            Mix::Read => format!(
                "clients={CLIENTS} records={RECORDS} keys=uniform lookups=95% transfers=5% \
                 yield_every={YIELD_EVERY}"
            ),
            Mix::Write => format!(
                "clients={CLIENTS} records={RECORDS} hot_set={HOT} keys=zipf({ZIPF_S}) \
                 transfers=99% checkpoints=1% log_every={LOG_EVERY} \
                 log_slots={LOG_SLOTS} log_hold_ns={LOG_HOLD_NS} yield_every={YIELD_EVERY}"
            ),
        },
        op_unit: "txn/s",
        span_shift: SPAN_SHIFT,
        finish: Box::new(move || {
            join_all(clients);
            final_oracle(table)
        }),
    }
}

/// End-of-run oracle: every record consistent, the table total conserved,
/// every log append accounted for. Returns the number of violations.
fn final_oracle(t: &Table) -> u64 {
    let torn = t
        .records
        .iter()
        .filter(|r| r.a.load(Relaxed) + r.b.load(Relaxed) != BALANCE)
        .count() as u64;
    let total: i64 = t.records.iter().map(|r| r.a.load(Relaxed)).sum();
    torn + u64::from(total != BALANCE * RECORDS as i64)
        + u64::from(t.log_len.0.load(Relaxed) != t.log_expected.load(Relaxed))
}

fn client(c: usize, t: &'static Table, mix: Mix, txns: Vec<Txn>) {
    let hold = ns_to_cycles(LOG_HOLD_NS);
    let mut spans = Spans::new();
    let mut appended = 0u64;
    wait_go();
    let mut rec = Rec::new();
    let mut seq = 0u64;
    loop {
        let txn = txns[seq as usize & (OPS_PER_CLIENT - 1)];
        let on = sampled(seq, SPAN_SHIFT);
        let op = ((c as u64) << 48) | seq;
        let t0 = now();
        let failed = match txn.kind {
            Kind::Lookup => lookup(t, txn, on, op, &mut spans),
            Kind::Transfer => transfer(t, txn, on, op, &mut spans),
            Kind::Checkpoint => checkpoint(t, on, op, &mut spans),
        };
        if mix == Mix::Write && seq % LOG_EVERY == LOG_EVERY - 1 {
            log_append(t, hold, on, op, &mut spans);
            appended += 1;
        }
        let t1 = now();
        if on {
            spans.push(Name::Op, 0, op, t0, t1);
        }
        if !rec.op(t0, t1, 1, u64::from(failed)) {
            break;
        }
        seq += 1;
        if seq.is_multiple_of(YIELD_EVERY) {
            sunmt::yield_now();
        }
    }
    t.log_expected.fetch_add(appended, Relaxed);
}

/// Whether the record, read under its mutex, breaks its invariant.
fn torn(r: &Record) -> bool {
    r.a.load(Relaxed) + r.b.load(Relaxed) != BALANCE
}

fn lookup(t: &Table, txn: Txn, on: bool, op: u64, s: &mut Spans) -> bool {
    let r = &t.records[txn.k1 as usize];
    s.call(on, Name::SyncRwReadEnter, 0, op, || {
        t.rw.0.enter(RwType::Reader)
    });
    s.call(on, Name::SyncMutexEnter, 0, op, || r.lock.enter());
    let bad = torn(r);
    s.call(on, Name::SyncMutexExit, 0, op, || r.lock.exit());
    s.call(on, Name::SyncRwExit, 0, op, || t.rw.0.exit());
    bad
}

fn transfer(t: &Table, txn: Txn, on: bool, op: u64, s: &mut Spans) -> bool {
    let (from, to) = (&t.records[txn.k1 as usize], &t.records[txn.k2 as usize]);
    // Address order, so that two transfers over the same pair cannot
    // deadlock.
    let (first, second) = if txn.k1 < txn.k2 {
        (from, to)
    } else {
        (to, from)
    };
    let amount = i64::from(txn.amount);
    s.call(on, Name::SyncRwReadEnter, 0, op, || {
        t.rw.0.enter(RwType::Reader)
    });
    s.call(on, Name::SyncMutexEnter, 0, op, || first.lock.enter());
    s.call(on, Name::SyncMutexEnter, 1, op, || second.lock.enter());
    let bad = torn(from) || torn(to);
    // Plain load-then-store pairs: only the record mutexes keep these
    // updates whole, which is what the oracle tests.
    from.a.store(from.a.load(Relaxed) - amount, Relaxed);
    from.b.store(from.b.load(Relaxed) + amount, Relaxed);
    to.a.store(to.a.load(Relaxed) + amount, Relaxed);
    to.b.store(to.b.load(Relaxed) - amount, Relaxed);
    s.call(on, Name::SyncMutexExit, 1, op, || second.lock.exit());
    s.call(on, Name::SyncMutexExit, 0, op, || first.lock.exit());
    s.call(on, Name::SyncRwExit, 0, op, || t.rw.0.exit());
    bad
}

/// Under the writer lock no transfer is in flight, and `db_write` moves
/// balance only inside the hot set, so its total must be exact.
fn checkpoint(t: &Table, on: bool, op: u64, s: &mut Spans) -> bool {
    s.call(on, Name::SyncMutexEnter, 2, op, || {
        t.checkpoint_lock.0.enter()
    });
    s.call(on, Name::SyncRwWriteEnter, 0, op, || {
        t.rw.0.enter(RwType::Writer)
    });
    let total: i64 = t
        .hot
        .iter()
        .map(|k| t.records[*k as usize].a.load(Relaxed))
        .sum();
    s.call(on, Name::SyncRwExit, 0, op, || t.rw.0.exit());
    s.call(on, Name::SyncMutexExit, 2, op, || {
        t.checkpoint_lock.0.exit()
    });
    total != BALANCE * HOT as i64
}

/// The log has `LOG_SLOTS` writers at a time; one holds its slot for
/// `hold` cycles. The end-of-run oracle counts the appends.
fn log_append(t: &Table, hold: u64, on: bool, op: u64, s: &mut Spans) {
    s.call(on, Name::SyncSemaP, 0, op, || t.log_slots.0.p());
    let start = now();
    t.log_len.0.fetch_add(1, Relaxed);
    while now() - start < hold {
        std::hint::spin_loop();
    }
    s.call(on, Name::SyncSemaV, 0, op, || t.log_slots.0.v());
}

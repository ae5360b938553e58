//! Seeded randomized property tests on the synchronization variables. Each
//! property runs many generated cases from a fixed-seed `SmallRng` stream,
//! so failures replay exactly.

use sunmt_bench::rng::SmallRng;
use sunmt_bench::row_chunk;
use sunos_mt::sync::{Mutex, RwLock, RwType, Sema, SyncType};

const CASES: usize = 64;

// ---------------------------------------------------------------------
// Semaphore counting: any single-threaded sequence of try_p/v preserves
// token conservation.

#[test]
fn sema_token_conservation() {
    let mut rng = SmallRng::seed_from_u64(0x5E3A);
    for case in 0..CASES {
        let initial = rng.gen_range(0u32..16);
        let s = Sema::new(initial, SyncType::DEFAULT);
        let mut model = initial as i64;
        for _ in 0..rng.gen_range(0usize..200) {
            match rng.gen_range(0u8..2) {
                0 => {
                    let got = s.try_p();
                    assert_eq!(got, model > 0, "case {case}: try_p disagrees with model");
                    if got {
                        model -= 1;
                    }
                }
                _ => {
                    s.v();
                    model += 1;
                }
            }
            assert_eq!(s.count() as i64, model, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// RwLock single-threaded protocol: any valid sequence of acquire /
// release / downgrade / try_upgrade keeps the holder invariant
// (writer XOR readers).

#[test]
fn rwlock_holder_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x4377);
    for case in 0..CASES {
        let l = RwLock::new(SyncType::DEFAULT);
        // Model: our own holds only (single-threaded).
        let mut readers = 0u32;
        let mut writer = false;
        for _ in 0..rng.gen_range(0usize..200) {
            match rng.gen_range(0u8..5) {
                0 => {
                    // try reader
                    let got = l.try_enter(RwType::Reader);
                    assert_eq!(got, !writer, "case {case}: reader admission");
                    if got {
                        readers += 1;
                    }
                }
                1 => {
                    // try writer
                    let got = l.try_enter(RwType::Writer);
                    assert_eq!(
                        got,
                        !writer && readers == 0,
                        "case {case}: writer admission"
                    );
                    if got {
                        writer = true;
                    }
                }
                2 => {
                    // release one hold
                    if writer {
                        l.exit();
                        writer = false;
                    } else if readers > 0 {
                        l.exit();
                        readers -= 1;
                    }
                }
                3 => {
                    // downgrade
                    if writer {
                        l.downgrade();
                        writer = false;
                        readers = 1;
                    }
                }
                _ => {
                    // try_upgrade: succeeds iff we are the sole reader.
                    if readers == 1 && !writer {
                        let got = l.try_upgrade();
                        assert!(got, "case {case}: sole reader must upgrade");
                        readers = 0;
                        writer = true;
                    }
                }
            }
            let (w, r) = l.holders();
            assert_eq!(w, writer, "case {case}");
            assert_eq!(r, readers, "case {case}");
            assert!(!(w && r > 0), "case {case}: writer and readers coexist");
        }
    }
}

// ---------------------------------------------------------------------
// Mutex try/exit protocol against a model.

#[test]
fn mutex_try_protocol() {
    let mut rng = SmallRng::seed_from_u64(0x307E);
    for case in 0..CASES {
        let m = Mutex::new(SyncType::DEFAULT);
        let mut held = false;
        for _ in 0..rng.gen_range(0usize..200) {
            match rng.gen_range(0u8..2) {
                0 => {
                    let got = m.try_enter();
                    assert_eq!(got, !held, "case {case}");
                    if got {
                        held = true;
                    }
                }
                _ => {
                    if held {
                        m.exit();
                        held = false;
                    }
                }
            }
            assert_eq!(m.is_locked(), held, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Splitting an array's rows among 1..=64 threads covers every row exactly
// once, in order, whether or not the thread count divides the row count.

#[test]
fn row_partition_covers_every_row_once() {
    let mut rng = SmallRng::seed_from_u64(0x0B0D);
    for rows in [512usize, 1, 63, 64, 65, rng.gen_range(1usize..5_000)] {
        for parts in 1..=64 {
            let covered: Vec<usize> = (0..parts)
                .flat_map(|part| row_chunk(rows, parts, part))
                .collect();
            assert_eq!(
                covered,
                (0..rows).collect::<Vec<_>>(),
                "{rows} rows over {parts} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Contended downgrade/upgrade: 4 host threads hammer one RwLock with
// randomized enter / try_upgrade / downgrade sequences. Occupancy
// counters (maintained only while holding the lock) must always satisfy
// writer-exclusivity: a writer sees no readers and no other writer; a
// reader sees no writer. Both the default (process-private futex) and
// SYNC_SHARED (cross-process futex scope) variants are exercised.

#[test]
fn rwlock_downgrade_upgrade_under_contention() {
    for (variant, kind) in [("DEFAULT", SyncType::DEFAULT), ("SHARED", SyncType::SHARED)] {
        let base_seed: u64 = 0xD06_u64 ^ (variant.len() as u64);
        contended_rwlock_case(variant, kind, base_seed);
    }
}

fn contended_rwlock_case(variant: &'static str, kind: SyncType, base_seed: u64) {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    const THREADS: usize = 4;
    const OPS: usize = 400;

    let lock = Arc::new(RwLock::new(kind));
    let readers = Arc::new(AtomicU32::new(0));
    let writers = Arc::new(AtomicU32::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let lock = Arc::clone(&lock);
            let readers = Arc::clone(&readers);
            let writers = Arc::clone(&writers);
            std::thread::spawn(move || {
                let seed = base_seed.wrapping_add(tid as u64);
                let mut rng = SmallRng::seed_from_u64(seed);
                let ctx = move || format!("[{variant} seed={seed:#x} thread={tid}]");
                let check_writer = |site: &str| {
                    assert_eq!(
                        writers.load(Ordering::SeqCst),
                        1,
                        "{} {site}: another writer inside",
                        ctx()
                    );
                    assert_eq!(
                        readers.load(Ordering::SeqCst),
                        0,
                        "{} {site}: reader inside a write section",
                        ctx()
                    );
                };
                for _ in 0..OPS {
                    if rng.gen_bool(0.5) {
                        // Reader path, with a chance to try upgrading.
                        lock.enter(RwType::Reader);
                        readers.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(
                            writers.load(Ordering::SeqCst),
                            0,
                            "{} read: writer inside",
                            ctx()
                        );
                        if rng.gen_bool(0.4) && {
                            readers.fetch_sub(1, Ordering::SeqCst);
                            let up = lock.try_upgrade();
                            if !up {
                                readers.fetch_add(1, Ordering::SeqCst);
                            }
                            up
                        } {
                            writers.fetch_add(1, Ordering::SeqCst);
                            check_writer("upgraded");
                            if rng.gen_bool(0.5) {
                                // Downgrade back to reader before leaving.
                                writers.fetch_sub(1, Ordering::SeqCst);
                                readers.fetch_add(1, Ordering::SeqCst);
                                lock.downgrade();
                                assert_eq!(
                                    writers.load(Ordering::SeqCst),
                                    0,
                                    "{} downgraded: writer inside",
                                    ctx()
                                );
                                readers.fetch_sub(1, Ordering::SeqCst);
                            } else {
                                writers.fetch_sub(1, Ordering::SeqCst);
                            }
                        } else {
                            readers.fetch_sub(1, Ordering::SeqCst);
                        }
                        lock.exit();
                    } else {
                        // Writer path, with a chance to downgrade.
                        lock.enter(RwType::Writer);
                        writers.fetch_add(1, Ordering::SeqCst);
                        check_writer("write");
                        if rng.gen_bool(0.5) {
                            writers.fetch_sub(1, Ordering::SeqCst);
                            readers.fetch_add(1, Ordering::SeqCst);
                            lock.downgrade();
                            assert_eq!(
                                writers.load(Ordering::SeqCst),
                                0,
                                "{} downgraded: writer inside",
                                ctx()
                            );
                            readers.fetch_sub(1, Ordering::SeqCst);
                        } else {
                            writers.fetch_sub(1, Ordering::SeqCst);
                        }
                        lock.exit();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap_or_else(|_| {
            panic!("[{variant} base_seed={base_seed:#x}] a property thread panicked")
        });
    }
    assert_eq!(
        readers.load(Ordering::SeqCst),
        0,
        "[{variant}] readers leaked"
    );
    assert_eq!(
        writers.load(Ordering::SeqCst),
        0,
        "[{variant}] writers leaked"
    );
    let (w, r) = lock.holders();
    assert!(
        !w && r == 0,
        "[{variant}] lock must end free (writer={w}, readers={r})"
    );
}

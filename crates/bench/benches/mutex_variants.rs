//! Micro-benchmarks of every synchronization variable's fast path, plus
//! the mutex implementation variants.

use sunmt_bench::harness::Group;
use sunmt_sync::{Condvar, Mutex, RwLock, RwType, Sema, SyncType};

fn main() {
    let mut g = Group::new("sync_fast_paths");

    for (name, kind) in [
        ("mutex_default", SyncType::DEFAULT),
        ("mutex_spin", SyncType::SPIN),
        ("mutex_adaptive", SyncType::ADAPTIVE),
        ("mutex_shared", SyncType::SHARED),
    ] {
        let m = Mutex::new(kind);
        g.bench_function(name, |b| {
            b.iter(|| {
                m.enter();
                m.exit();
            })
        });
    }

    let s = Sema::new(1, SyncType::DEFAULT);
    g.bench_function("sema_p_v", |b| {
        b.iter(|| {
            s.p();
            s.v();
        })
    });

    let rw = RwLock::new(SyncType::DEFAULT);
    g.bench_function("rw_reader", |b| {
        b.iter(|| {
            rw.enter(RwType::Reader);
            rw.exit();
        })
    });
    g.bench_function("rw_writer", |b| {
        b.iter(|| {
            rw.enter(RwType::Writer);
            rw.exit();
        })
    });
    // A lock's life when it is read once: a private lock allocates its
    // reader slots under the writer bit on the first read and frees them on
    // drop; a SHARED lock counts in its state word and allocates nothing.
    for (name, kind) in [
        ("rw_new_first_read_drop", SyncType::DEFAULT),
        ("rw_new_first_read_drop_shared", SyncType::SHARED),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let l = RwLock::new(kind);
                l.enter(RwType::Reader);
                l.exit();
                l
            })
        });
    }

    let cv = Condvar::new(SyncType::DEFAULT);
    g.bench_function("cv_signal_no_waiter", |b| b.iter(|| cv.signal()));

    g.finish();
}

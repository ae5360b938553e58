//! FIG1 integration: synchronization variables in `MAP_SHARED` files used
//! by *real* cooperating processes (re-executions of this test binary).
//!
//! Each test checks `child_role()` first: when this binary is re-executed
//! as a cooperating child, exactly one test body performs the child
//! protocol and every other test no-ops, so recursion stops at depth one.

use std::sync::atomic::{AtomicU64, Ordering};

use sunos_mt::shm::{ipc, SharedFile};
use sunos_mt::sync::{Mutex, RwLock, RwType, Sema, SyncType};

fn in_child_for(role: &str) -> Option<SharedFile> {
    match ipc::child_role() {
        Some(r) if r == role => {
            let path = ipc::child_shared_path().expect("child shared path");
            Some(SharedFile::open(path).expect("child open"))
        }
        _ => None,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sunmt-xp-{}-{name}", std::process::id()))
}

#[test]
fn cross_process_mutex_excludes() {
    const ITERS: u64 = 10_000;
    if let Some(f) = in_child_for("xp-mutex") {
        // SAFETY: Parent laid out (Mutex, AtomicU64, Sema) at 0/64/128.
        let (m, counter, done): (&Mutex, &AtomicU64, &Sema) =
            unsafe { (f.sync_var(0), f.sync_var(64), f.sync_var(128)) };
        for _ in 0..ITERS {
            m.enter();
            let v = counter.load(Ordering::Relaxed);
            counter.store(v + 1, Ordering::Relaxed);
            m.exit();
        }
        done.v();
        std::process::exit(0);
    }
    if ipc::child_role().is_some() {
        return; // Some other test's child run; not ours.
    }

    let path = tmp("mutex");
    let f = SharedFile::create(&path, 4096).expect("create");
    // SAFETY: Aligned, in-bounds, zero-valid.
    let (m, counter, done): (&Mutex, &AtomicU64, &Sema) =
        unsafe { (f.sync_var(0), f.sync_var(64), f.sync_var(128)) };
    m.init(SyncType::SHARED);
    done.init(0, SyncType::SHARED);
    let mut child = ipc::spawn_cooperating_env("xp-mutex", &path).expect("spawn");
    for _ in 0..ITERS {
        m.enter();
        let v = counter.load(Ordering::Relaxed);
        counter.store(v + 1, Ordering::Relaxed);
        m.exit();
    }
    done.p();
    assert!(child.wait().expect("child").success());
    assert_eq!(
        counter.load(Ordering::SeqCst),
        2 * ITERS,
        "cross-process mutual exclusion violated"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cross_process_sema_ping_pong() {
    const ROUNDS: usize = 2_000;
    if let Some(f) = in_child_for("xp-sema") {
        // SAFETY: Parent laid out two shared semaphores at 0/64.
        let (s1, s2): (&Sema, &Sema) = unsafe { (f.sync_var(0), f.sync_var(64)) };
        for _ in 0..ROUNDS {
            s1.p();
            s2.v();
        }
        std::process::exit(0);
    }
    if ipc::child_role().is_some() {
        return;
    }

    let path = tmp("sema");
    let f = SharedFile::create(&path, 4096).expect("create");
    // SAFETY: Aligned, in-bounds, zero-valid.
    let (s1, s2): (&Sema, &Sema) = unsafe { (f.sync_var(0), f.sync_var(64)) };
    s1.init(0, SyncType::SHARED);
    s2.init(0, SyncType::SHARED);
    let mut child = ipc::spawn_cooperating_env("xp-sema", &path).expect("spawn");
    for _ in 0..ROUNDS {
        s1.v();
        s2.p();
    }
    assert!(child.wait().expect("child").success());
    assert_eq!(s1.count(), 0);
    assert_eq!(s2.count(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cross_process_rwlock_readers_share_writers_exclude() {
    if let Some(f) = in_child_for("xp-rw") {
        // SAFETY: Parent laid out (RwLock, Sema go, Sema ack) at 0/64/128.
        let (l, go, ack): (&RwLock, &Sema, &Sema) =
            unsafe { (f.sync_var(0), f.sync_var(64), f.sync_var(128)) };
        // Step 1: take a reader lock, tell the parent, hold until told.
        l.enter(RwType::Reader);
        ack.v();
        go.p();
        l.exit();
        ack.v();
        std::process::exit(0);
    }
    if ipc::child_role().is_some() {
        return;
    }

    let path = tmp("rw");
    let f = SharedFile::create(&path, 4096).expect("create");
    // SAFETY: Aligned, in-bounds, zero-valid.
    let (l, go, ack): (&RwLock, &Sema, &Sema) =
        unsafe { (f.sync_var(0), f.sync_var(64), f.sync_var(128)) };
    l.init(SyncType::SHARED);
    go.init(0, SyncType::SHARED);
    ack.init(0, SyncType::SHARED);
    let mut child = ipc::spawn_cooperating_env("xp-rw", &path).expect("spawn");

    ack.p(); // Child holds a reader lock now.
    assert!(
        l.try_enter(RwType::Reader),
        "two processes must share the read lock"
    );
    l.exit();
    assert!(
        !l.try_enter(RwType::Writer),
        "a writer must be excluded by the other process's reader"
    );
    go.v(); // Release the child.
    ack.p(); // Child dropped its lock.
    assert!(l.try_enter(RwType::Writer), "lock must be free now");
    l.exit();
    assert!(child.wait().expect("child").success());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lock_state_outlives_a_processes_mapping() {
    if ipc::child_role().is_some() {
        return;
    }
    // "Synchronization variables can also be placed in files and have
    // lifetimes beyond that of the creating process."
    let path = tmp("lifetime");
    {
        let f = SharedFile::create(&path, 4096).expect("create");
        // SAFETY: Aligned, in-bounds, zero-valid.
        let s: &Sema = unsafe { f.sync_var(0) };
        s.init(0, SyncType::SHARED);
        s.v();
        s.v();
    } // Mapping gone; file remains.
    let f = SharedFile::open(&path).expect("reopen");
    // SAFETY: Same layout.
    let s: &Sema = unsafe { f.sync_var(0) };
    assert_eq!(s.count(), 2, "semaphore state must persist in the file");
    assert!(s.try_p());
    assert!(s.try_p());
    assert!(!s.try_p());
    let _ = std::fs::remove_file(&path);
}

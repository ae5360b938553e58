//! FIG3 — constructs the paper's Figure 3: the five multi-thread process
//! shapes, in the real library (procs 1–4) and the simulator (proc 5's
//! CPU-bound LWP), verifying that bound and unbound threads still
//! synchronize "in the usual way".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_simkernel::{Op, SchedClass, SimConfig, SimKernel};
use sunmt_sync::{Sema, SyncType};

fn main() {
    sunmt::init();
    println!("Figure 3: multi-thread architecture examples");

    // Process 1: "the traditional UNIX process with a single thread
    // attached to a single LWP" — the adopted initial thread.
    let me = sunmt::get_id();
    println!("proc 1: single thread on single LWP (initial thread {me:?}): OK");

    // Process 2: threads multiplexed on a single LWP ("as in typical
    // coroutine packages, such as SunOS 4.0 liblwp").
    sunmt::set_concurrency(1).expect("setconcurrency");
    run_batch("proc 2: N threads on 1 LWP", 8, CreateFlags::WAIT);

    // Process 3: several threads multiplexed on a lesser number of LWPs.
    sunmt::set_concurrency(2).expect("setconcurrency");
    run_batch("proc 3: N threads on 2 LWPs", 8, CreateFlags::WAIT);

    // Process 4: threads permanently bound to LWPs.
    run_batch(
        "proc 4: threads bound to LWPs",
        4,
        CreateFlags::WAIT | CreateFlags::BIND_LWP,
    );

    // Process 5: the mixture — multiplexed group + bound threads, with the
    // bound and unbound threads synchronizing with each other.
    let gate = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let hits = Arc::new(AtomicUsize::new(0));
    let mut ids = Vec::new();
    for i in 0..6 {
        let flags = if i < 2 {
            CreateFlags::WAIT | CreateFlags::BIND_LWP
        } else {
            CreateFlags::WAIT
        };
        let (g, h) = (Arc::clone(&gate), Arc::clone(&hits));
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    g.p(); // Bound and unbound block on the same variable.
                    h.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn"),
        );
    }
    for _ in 0..6 {
        gate.v();
    }
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    assert_eq!(hits.load(Ordering::SeqCst), 6);
    println!("proc 5 (real half): 2 bound + 4 unbound synchronized on one semaphore: OK");

    // Proc 5's CPU binding, which the host cannot guarantee, in the
    // simulator: an LWP bound to CPU 1 only ever dispatches there.
    let mut k = SimKernel::new(SimConfig {
        cpus: 2,
        ts_quantum: 1_000,
        dispatch_cost: 0,
    });
    let pid = k.add_process();
    let bound = k.add_lwp(
        pid,
        SchedClass::Ts,
        sunmt_simkernel::LwpProgram::Script(vec![Op::Compute(5_000), Op::Exit]),
    );
    k.bind_cpu(bound, Some(1));
    k.add_lwp(
        pid,
        SchedClass::Ts,
        sunmt_simkernel::LwpProgram::Script(vec![Op::Compute(5_000), Op::Exit]),
    );
    k.run_until_idle(1_000_000);
    for (_, e) in k.trace().events() {
        if let sunmt_simkernel::TraceEvent::Dispatch { lwp, cpu } = e {
            if *lwp == bound {
                assert_eq!(*cpu, 1, "CPU-bound LWP escaped its CPU");
            }
        }
    }
    println!("proc 5 (sim half): LWP bound to CPU 1 never dispatched elsewhere: OK");

    // Restore automatic concurrency for any following benches.
    sunmt::set_concurrency(0).expect("setconcurrency");
    println!("all five process shapes constructed: OK");
}

fn run_batch(label: &str, n: usize, flags: CreateFlags) {
    let hits = Arc::new(AtomicUsize::new(0));
    let ids: Vec<_> = (0..n)
        .map(|_| {
            let h = Arc::clone(&hits);
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    sunmt::yield_now();
                    h.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn")
        })
        .collect();
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    assert_eq!(hits.load(Ordering::SeqCst), n);
    println!("{label}: OK (pool now {} LWPs)", sunmt::concurrency());
}

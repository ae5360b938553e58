//! Drives the deterministic simulated kernel through the paper's process
//! model — scheduling classes, fork vs fork1, SIGWAITING, /proc — and
//! prints the annotated trace.
//!
//! Run with: `cargo run --release --example simkernel_trace`

use sunos_mt::simkernel::{LwpProgram, Op, SchedClass, SimConfig, SimKernel};

fn main() {
    // Scene 1: fork vs fork1.
    println!("== fork() vs fork1() ==");
    let mut k = SimKernel::new(SimConfig::default());
    let pid = k.add_process();
    k.add_lwp(
        pid,
        SchedClass::Ts,
        LwpProgram::Script(vec![
            Op::Syscall {
                latency: 50_000,
                interruptible: true,
            },
            Op::Exit,
        ]),
    );
    k.add_lwp(
        pid,
        SchedClass::Ts,
        LwpProgram::Script(vec![
            Op::Compute(100),
            Op::Fork,
            Op::Compute(50),
            Op::Fork1,
            Op::Exit,
        ]),
    );
    k.run_until_idle(1_000_000);
    for (t, e) in k.trace().events() {
        println!("[{t:>7} us] {e:?}");
    }
    println!("processes at end:");
    for snap in k.proc_snapshots() {
        println!(
            "  {:?}: {} LWPs ({:?})",
            snap.pid,
            snap.lwps.len(),
            snap.lwps.iter().map(|l| l.state).collect::<Vec<_>>()
        );
    }

    // Scene 2: SIGWAITING is posted once every LWP of the process waits
    // for an indefinite, external event. (The real library's reaction,
    // growing its LWP pool, runs in `abl_concurrency` and `poll_server`.)
    println!("\n== SIGWAITING: every LWP in an indefinite wait ==");
    let mut k = SimKernel::new(SimConfig {
        cpus: 2,
        ts_quantum: 10_000,
        dispatch_cost: 10,
    });
    let pid = k.add_process();
    let waiter = k.add_lwp(
        pid,
        SchedClass::Ts,
        LwpProgram::Script(vec![Op::Compute(500), Op::WaitIndefinite, Op::Exit]),
    );
    k.add_lwp(
        pid,
        SchedClass::Ts,
        LwpProgram::Script(vec![
            Op::IndefiniteSyscall { latency: 3_000 },
            Op::WakeLwp(waiter),
            Op::Exit,
        ]),
    );
    let end = k.run_until_idle(10_000_000);
    for (t, e) in k.trace().events() {
        println!("[{t:>7} us] {e:?}");
    }
    println!(
        "finished at {end} virtual us; SIGWAITING posted {} time(s)",
        k.sigwaiting_count(pid)
    );
    assert_eq!(k.sigwaiting_count(pid), 1);
    println!("both LWPs completed: OK");
}

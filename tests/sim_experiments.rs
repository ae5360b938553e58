//! Fast versions of the experiments the ablation binaries report, so a
//! regression in the shape of any result fails `cargo test`: the
//! simulator-backed ones deterministically, and ABL-SIGW's on the real
//! library (alone in this binary, so no other test loads its pool).

use std::time::{Duration, Instant};

use sunos_mt::baselines::coro::N1Scheduler;
use sunos_mt::simkernel::lwp::LwpRunState;
use sunos_mt::simkernel::{LwpProgram, Op, SchedClass, SimConfig, SimKernel, TraceEvent};
use sunos_mt::threads::{self, blocking, CreateFlags, ThreadBuilder};

/// The paper's case for kernel help: a blocking call stalls every thread
/// of an N:1 package, while the two-level library gives the caller's LWP
/// to the call and grows the pool (SIGWAITING) so the other threads run.
#[test]
fn a_blocking_call_stalls_n_to_1_not_m_to_n() {
    const K: u32 = 4;
    const D: Duration = Duration::from_millis(25);

    threads::set_concurrency(1).expect("setconcurrency");
    let start = Instant::now();
    let ids: Vec<_> = (0..K)
        .map(|_| {
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(|| blocking(|| std::thread::sleep(D)))
                .expect("spawn")
        })
        .collect();
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    let mn = start.elapsed();
    threads::set_concurrency(0).expect("setconcurrency");

    let sched = N1Scheduler::new();
    let start = Instant::now();
    for _ in 0..K {
        sched.spawn(|| std::thread::sleep(D));
    }
    assert_eq!(sched.run(), 0);
    let n1 = start.elapsed();

    assert!(
        mn < D * K / 2,
        "M:N sleeps must overlap: {mn:?} for {K} x {D:?}"
    );
    assert!(
        n1 >= D * K,
        "N:1 sleeps must serialize: {n1:?} for {K} x {D:?}"
    );
}

#[test]
fn gang_beats_timeshare_for_barrier_pairs_under_load() {
    let run = |gang: bool| {
        let mut k = SimKernel::new(SimConfig {
            cpus: 2,
            ts_quantum: 1_000,
            dispatch_cost: 10,
        });
        let pid = k.add_process();
        let bar = k.add_kbarrier(2);
        let class = if gang {
            SchedClass::Gang(1)
        } else {
            SchedClass::Ts
        };
        let mut ops = Vec::new();
        for _ in 0..20 {
            ops.push(Op::Compute(2_500));
            ops.push(Op::Barrier(bar));
        }
        ops.push(Op::Exit);
        let a = k.add_lwp(pid, class, LwpProgram::Script(ops.clone()));
        let b = k.add_lwp(pid, class, LwpProgram::Script(ops));
        for _ in 0..3 {
            k.add_lwp(
                pid,
                SchedClass::Ts,
                LwpProgram::Script(vec![Op::Compute(40_000), Op::Exit]),
            );
        }
        k.run_until_idle(u64::MAX);
        let mut done = 0;
        for (t, e) in k.trace().events() {
            if let TraceEvent::LwpExit { lwp } = e {
                if *lwp == a || *lwp == b {
                    done = done.max(*t);
                }
            }
        }
        done
    };
    let ts = run(false);
    let gang = run(true);
    assert!(gang < ts, "gang ({gang}) must beat timeshare ({ts})");
}

#[test]
fn fork_semantics_match_the_paper() {
    // fork(): all LWPs duplicated, others' interruptible syscalls EINTR'd.
    // fork1(): only the caller duplicated, no EINTR.
    for (op, expect_lwps, expect_eintr) in [(Op::Fork, 2, 1usize), (Op::Fork1, 1, 0)] {
        let mut k = SimKernel::new(SimConfig {
            cpus: 2,
            ts_quantum: 10_000,
            dispatch_cost: 0,
        });
        let pid = k.add_process();
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![
                Op::Syscall {
                    latency: 1_000_000,
                    interruptible: true,
                },
                Op::Exit,
            ]),
        );
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(10), op, Op::Exit]),
        );
        k.run_until_idle(u64::MAX);
        let child_pid = *k.pids().iter().max().expect("child exists");
        assert_ne!(child_pid, pid);
        assert_eq!(k.lwps_of(child_pid).len(), expect_lwps);
        let eintr = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::SyscallDone { eintr: true, .. }))
            .count();
        assert_eq!(eintr, expect_eintr);
    }
}

#[test]
fn rt_class_always_dispatches_before_ts() {
    let mut k = SimKernel::new(SimConfig {
        cpus: 1,
        ts_quantum: 500,
        dispatch_cost: 0,
    });
    let pid = k.add_process();
    let ts = k.add_lwp(
        pid,
        SchedClass::Ts,
        LwpProgram::Script(vec![Op::Compute(10_000), Op::Exit]),
    );
    let rt = k.add_lwp(
        pid,
        SchedClass::Rt(5),
        LwpProgram::Script(vec![
            Op::Compute(1_000),
            Op::Syscall {
                latency: 300,
                interruptible: false,
            },
            Op::Compute(1_000),
            Op::Exit,
        ]),
    );
    k.run_until_idle(u64::MAX);
    // The RT LWP must exit before the TS LWP despite the TS LWP's head
    // start opportunities at every RT block.
    let exits: Vec<_> = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::LwpExit { .. }))
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(exits.len(), 2);
    assert_eq!(k.lwp_run_state(rt), LwpRunState::Zombie);
    assert_eq!(k.lwp_run_state(ts), LwpRunState::Zombie);
    // RT total = 2000 compute + 300 block; it must finish at exactly 2300,
    // i.e. the TS LWP never ran while RT was runnable.
    assert_eq!(exits[0], 2_300);
}

#[test]
fn proc_snapshots_expose_the_whole_machine_state() {
    let mut k = SimKernel::new(SimConfig::default());
    let p1 = k.add_process();
    let p2 = k.add_process();
    k.add_lwp(
        p1,
        SchedClass::Ts,
        LwpProgram::Script(vec![Op::WaitIndefinite]),
    );
    k.add_lwp(
        p2,
        SchedClass::Rt(1),
        LwpProgram::Script(vec![Op::Compute(10), Op::Exit]),
    );
    k.run_until_idle(u64::MAX);
    let snaps = k.proc_snapshots();
    assert_eq!(snaps.len(), 2);
    assert_eq!(snaps[0].pid, p1);
    assert_eq!(snaps[0].lwps[0].state, LwpRunState::Blocked);
    assert_eq!(snaps[1].lwps[0].state, LwpRunState::Zombie);
    assert_eq!(
        snaps[1].lwps[0].cpu_time,
        10 + SimConfig::default().dispatch_cost
    );
}

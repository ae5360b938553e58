//! The model catalogue: the sync-variable suite under the checker.
//!
//! Positive models must pass under *every* explored schedule — their
//! oracles (critical-section occupancy, final counter values, stable
//! reads, timed-wait outcomes) convict any interleaving the primitives
//! fail to serialize. Negative models seed a real bug — a check-then-wait
//! lost wakeup, an AB-BA lock cycle, a `DEBUG`-variant misuse — that the
//! explorer is *required* to find; they are the checker's own
//! self-test, proving the sweep actually reaches the bad interleavings.

use crate::model::{Expect, Model, SyncOp, Variant};

use SyncOp::*;

fn base(name: &'static str, about: &'static str, threads: Vec<Vec<SyncOp>>) -> Model {
    Model {
        name,
        about,
        threads,
        thread_pris: vec![],
        mutexes: 0,
        cvs: 0,
        sema_init: vec![],
        rws: 0,
        counters: 0,
        flags: 0,
        crits: 0,
        runq_shards: 0,
        chan_caps: vec![],
        io_shards: 0,
        io_fds: 0,
        final_counters: vec![],
        expect: Expect::Pass,
        min_schedules: 0,
        preemption_bound: None,
        variants: Variant::ALL.to_vec(),
    }
}

/// Every model the checker knows, positive and negative.
pub fn catalogue() -> Vec<Model> {
    vec![
        // -------------------------------------------------------- mutex
        Model {
            mutexes: 1,
            counters: 1,
            crits: 1,
            final_counters: vec![(0, 2)],
            min_schedules: 1_000,
            ..base(
                "mutex_basic",
                "two threads contend one mutex around a torn increment",
                vec![
                    vec![
                        Work(1),
                        MutexEnter(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                        Work(1),
                    ],
                    vec![
                        Work(1),
                        MutexEnter(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                        Work(1),
                    ],
                ],
            )
        },
        Model {
            mutexes: 1,
            counters: 1,
            crits: 1,
            // Whoever loses the try skips the increment: any count is
            // legal, but the section must stay exclusive.
            ..base(
                "mutex_tryenter",
                "mutex_tryenter either claims the lock or skips the section",
                vec![
                    vec![
                        TryenterElseSkip { mutex: 0, skip: 4 },
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                    ],
                    vec![
                        TryenterElseSkip { mutex: 0, skip: 4 },
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                    ],
                ],
            )
        },
        // ----------------------------------------------------------- cv
        Model {
            mutexes: 1,
            cvs: 1,
            flags: 1,
            min_schedules: 1_000,
            ..base(
                "cv_pingpong",
                "producer sets a flag and signals; consumer monitor-waits for it",
                vec![
                    vec![
                        Work(1),
                        MutexEnter(0),
                        SetFlag(0),
                        CvSignal(0),
                        MutexExit(0),
                    ],
                    vec![
                        MutexEnter(0),
                        WaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                        },
                        MutexExit(0),
                        AssertFlag(0),
                    ],
                ],
            )
        },
        Model {
            mutexes: 1,
            cvs: 1,
            flags: 1,
            preemption_bound: Some(3),
            ..base(
                "cv_broadcast",
                "cv_broadcast releases every monitor waiter",
                vec![
                    vec![
                        Work(1),
                        MutexEnter(0),
                        SetFlag(0),
                        CvBroadcast(0),
                        MutexExit(0),
                    ],
                    vec![
                        MutexEnter(0),
                        WaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                        },
                        MutexExit(0),
                        AssertFlag(0),
                    ],
                    vec![
                        MutexEnter(0),
                        WaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                        },
                        MutexExit(0),
                        AssertFlag(0),
                    ],
                ],
            )
        },
        Model {
            mutexes: 1,
            cvs: 1,
            flags: 1,
            ..base(
                "cv_timedwait_signal",
                "a signal always beats a far deadline in virtual time",
                vec![
                    vec![
                        MutexEnter(0),
                        TimedWaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                            timeout: 1_000_000,
                        },
                        AssertTimedOut(false),
                        AssertFlag(0),
                        MutexExit(0),
                    ],
                    vec![
                        Work(2),
                        MutexEnter(0),
                        SetFlag(0),
                        CvSignal(0),
                        MutexExit(0),
                    ],
                ],
            )
        },
        Model {
            mutexes: 1,
            cvs: 1,
            flags: 1,
            counters: 1,
            ..base(
                "cv_timedwait_timeout",
                "with no signaller the timed wait expires and reports it",
                vec![
                    vec![
                        MutexEnter(0),
                        TimedWaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                            timeout: 50,
                        },
                        AssertTimedOut(true),
                        MutexExit(0),
                    ],
                    // Unrelated mutex traffic; never sets the flag.
                    vec![MutexEnter(0), Incr(0), MutexExit(0)],
                ],
            )
        },
        // --------------------------------------------------------- sema
        Model {
            sema_init: vec![1],
            counters: 1,
            crits: 1,
            final_counters: vec![(0, 2)],
            ..base(
                "sema_binary",
                "a binary semaphore serializes a critical section",
                vec![
                    vec![SemaP(0), CritEnter(0), Incr(0), CritExit(0), SemaV(0)],
                    vec![SemaP(0), CritEnter(0), Incr(0), CritExit(0), SemaV(0)],
                ],
            )
        },
        Model {
            sema_init: vec![0],
            flags: 1,
            ..base(
                "sema_handoff",
                "sema_v publishes a flag write to the sema_p side",
                vec![
                    vec![Work(1), SetFlag(0), SemaV(0)],
                    vec![SemaP(0), AssertFlag(0)],
                ],
            )
        },
        // ----------------------------------------------------------- rw
        Model {
            rws: 1,
            counters: 1,
            preemption_bound: Some(3),
            ..base(
                "rw_basic",
                "readers see no torn state while a writer mutates under rw_enter",
                vec![
                    vec![RwEnter { rw: 0, write: true }, Incr(0), Incr(0), RwExit(0)],
                    vec![
                        RwEnter {
                            rw: 0,
                            write: false,
                        },
                        ReadStable(0),
                        RwExit(0),
                    ],
                    vec![
                        RwEnter {
                            rw: 0,
                            write: false,
                        },
                        ReadStable(0),
                        RwExit(0),
                    ],
                ],
            )
        },
        Model {
            rws: 1,
            counters: 1,
            ..base(
                "rw_downgrade",
                "rw_downgrade keeps the hold while readers join",
                vec![
                    vec![
                        RwEnter { rw: 0, write: true },
                        Incr(0),
                        RwDowngrade(0),
                        ReadStable(0),
                        RwExit(0),
                    ],
                    vec![
                        RwEnter {
                            rw: 0,
                            write: false,
                        },
                        ReadStable(0),
                        RwExit(0),
                    ],
                ],
            )
        },
        Model {
            rws: 1,
            counters: 1,
            crits: 1,
            final_counters: vec![(0, 2)],
            ..base(
                "rw_tryupgrade",
                "both readers race to upgrade; the loser falls back to a write enter",
                vec![
                    vec![
                        RwEnter {
                            rw: 0,
                            write: false,
                        },
                        RwTryupgradeOrWrite(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        RwExit(0),
                    ],
                    vec![
                        RwEnter {
                            rw: 0,
                            write: false,
                        },
                        RwTryupgradeOrWrite(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        RwExit(0),
                    ],
                ],
            )
        },
        Model {
            // The per-LWP reader-slot protocol of private locks. Reader 1
            // enters on slot 0 and leaves through slot 1 (an unbound reader
            // that migrated), so the slots are only right as a sum, and the
            // writer's drain must neither pass a reader nor sleep through
            // the last one's exit.
            rws: 1,
            counters: 1,
            final_counters: vec![(0, 2)],
            preemption_bound: Some(3),
            min_schedules: 200,
            variants: vec![Variant::Default],
            ..base(
                "rw_slots",
                "reader slots: publish, check, back off, drain, gated wake; one reader \
                 leaves through the other's slot",
                vec![
                    vec![
                        RwSlotRead { rw: 0, slot: 0 },
                        ReadStable(0),
                        RwSlotExit { rw: 0, slot: 1 },
                    ],
                    vec![
                        RwSlotRead { rw: 0, slot: 1 },
                        ReadStable(0),
                        RwSlotExit { rw: 0, slot: 1 },
                    ],
                    vec![
                        RwSlotWrite(0),
                        Incr(0),
                        Incr(0),
                        RwSlotExit { rw: 0, slot: 0 },
                    ],
                ],
            )
        },
        // ----------------------------------------------- adaptive mutex
        Model {
            mutexes: 1,
            counters: 1,
            crits: 1,
            final_counters: vec![(0, 2)],
            preemption_bound: Some(3),
            min_schedules: 400,
            ..base(
                "mutex_adaptive",
                "adaptive mutex_enter spins while the holder runs, then parks",
                vec![
                    vec![
                        MutexEnterAdaptive(0),
                        CritEnter(0),
                        Work(2),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                    ],
                    vec![
                        MutexEnterAdaptive(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExit(0),
                    ],
                ],
            )
        },
        Model {
            // Low-priority holder, middle-priority CPU hog, high-priority
            // waiter — the classic inversion triangle. The tick may land
            // on the holder at any micro-step, critical section included;
            // the waiter's park pushes its priority onto the holder, so
            // the hog can never keep the section off the processor while
            // the waiter sleeps. Every schedule must still serialize both
            // increments and terminate.
            thread_pris: vec![10, 20, 40],
            mutexes: 1,
            counters: 1,
            crits: 1,
            final_counters: vec![(0, 2)],
            preemption_bound: Some(3),
            min_schedules: 400,
            variants: vec![Variant::Default],
            ..base(
                "mutex_adaptive_pi",
                "priority inheritance keeps a preempted adaptive-mutex holder schedulable",
                vec![
                    vec![
                        MutexEnterAdaptivePi(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExitPi(0),
                    ],
                    vec![Work(1), TickPreempt(0), Work(6)],
                    vec![
                        Work(2),
                        MutexEnterAdaptivePi(0),
                        CritEnter(0),
                        Incr(0),
                        CritExit(0),
                        MutexExitPi(0),
                    ],
                ],
            )
        },
        // ------------------------------------------ hashed sleep queues
        Model {
            mutexes: 2,
            cvs: 2,
            flags: 2,
            preemption_bound: Some(3),
            min_schedules: 1_000,
            variants: vec![Variant::Default],
            ..base(
                "sleepq_shard",
                "two independent monitors broadcast concurrently on separate sleep-queue shards",
                vec![
                    vec![
                        MutexEnter(0),
                        WaitUntilFlag {
                            flag: 0,
                            cv: 0,
                            mutex: 0,
                        },
                        MutexExit(0),
                    ],
                    vec![
                        MutexEnter(1),
                        WaitUntilFlag {
                            flag: 1,
                            cv: 1,
                            mutex: 1,
                        },
                        MutexExit(1),
                    ],
                    vec![
                        MutexEnter(0),
                        SetFlag(0),
                        CvBroadcast(0),
                        MutexExit(0),
                        MutexEnter(1),
                        SetFlag(1),
                        CvBroadcast(1),
                        MutexExit(1),
                    ],
                ],
            )
        },
        // ------------------------------------------- sharded run queue
        Model {
            runq_shards: 2,
            preemption_bound: Some(3),
            min_schedules: 200,
            ..base(
                "runq_steal",
                "shard-0 work and an injected item drain via owner pop, steal, or park/wake",
                vec![
                    vec![RunqPush { shard: 0 }, RunqInjectPush],
                    vec![RunqPop { shard: 0 }],
                    vec![RunqPop { shard: 1 }],
                ],
            )
        },
        // ------------------------------------------- sharded I/O poller
        Model {
            io_shards: 2,
            io_fds: 2,
            preemption_bound: Some(2),
            min_schedules: 200,
            variants: vec![Variant::Default],
            ..base(
                "io_shard",
                "two waiters register on separate poller shards; each shard's own \
                 flusher arms its fd, kernel events deliver both wakeups",
                vec![
                    vec![IoWait { shard: 0, fd: 0 }],
                    vec![IoWait { shard: 1, fd: 1 }],
                    vec![IoFlush { shard: 0 }],
                    vec![IoFlush { shard: 1 }],
                    vec![IoEvent { fd: 0 }, IoEvent { fd: 1 }],
                ],
            )
        },
        // ----------------------------------------------------- channels
        Model {
            chan_caps: vec![2],
            preemption_bound: Some(3),
            min_schedules: 1_000,
            variants: vec![Variant::Default],
            ..base(
                "chan_mpsc",
                "two producers fill a depth-2 bounded channel; one consumer drains all four",
                vec![
                    vec![ChanSend { chan: 0 }, ChanSend { chan: 0 }],
                    vec![ChanSend { chan: 0 }, ChanSend { chan: 0 }],
                    vec![
                        ChanRecv { chan: 0 },
                        ChanRecv { chan: 0 },
                        ChanRecv { chan: 0 },
                        ChanRecv { chan: 0 },
                    ],
                ],
            )
        },
        Model {
            chan_caps: vec![2, 2],
            preemption_bound: Some(3),
            min_schedules: 400,
            variants: vec![Variant::Default],
            ..base(
                "chan_select",
                "a selector multi-waits on two channels fed by independent producers",
                vec![
                    vec![ChanSend { chan: 0 }],
                    vec![Work(1), ChanSend { chan: 1 }],
                    vec![ChanSelect { a: 0, b: 1 }, ChanSelect { a: 0, b: 1 }],
                ],
            )
        },
        // ----------------------------------------- negatives (seeded bugs)
        Model {
            runq_shards: 3,
            preemption_bound: Some(3),
            expect: Expect::FailContaining("dispatched twice"),
            ..base(
                "neg_runq_double_steal",
                "lockless steal: two thieves peek the same victim head and double-dispatch it",
                vec![
                    vec![RunqPush { shard: 0 }, RunqPush { shard: 0 }],
                    vec![RunqStealRacy { victim: 0 }],
                    vec![RunqStealRacy { victim: 0 }],
                ],
            )
        },
        Model {
            mutexes: 1,
            cvs: 1,
            flags: 1,
            expect: Expect::FailContaining("lost wakeup"),
            ..base(
                "neg_lost_wakeup",
                "flag checked outside the mutex: the signal can land before the wait",
                vec![
                    // The producer takes no lock around set+signal...
                    vec![Work(1), SetFlag(0), CvSignal(0)],
                    // ...and the consumer tests the flag before locking:
                    // between its check and its cv_wait the signal fires
                    // into empty air.
                    vec![
                        SkipIfFlag { flag: 0, skip: 4 },
                        MutexEnter(0),
                        CvWaitOnce { cv: 0, mutex: 0 },
                        MutexExit(0),
                        AssertFlag(0),
                    ],
                ],
            )
        },
        Model {
            mutexes: 2,
            expect: Expect::FailContaining("deadlock"),
            ..base(
                "neg_lock_cycle",
                "AB-BA lock ordering: some schedules deadlock, all runs cycle in lockdep",
                vec![
                    vec![
                        MutexEnter(0),
                        Work(1),
                        MutexEnter(1),
                        MutexExit(1),
                        MutexExit(0),
                    ],
                    vec![
                        MutexEnter(1),
                        Work(1),
                        MutexEnter(0),
                        MutexExit(0),
                        MutexExit(1),
                    ],
                ],
            )
        },
        Model {
            chan_caps: vec![2],
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("lost wakeup"),
            ..base(
                "neg_chan_lost_wakeup",
                "receiver parks without re-checking the queue after registering as a waiter",
                vec![
                    vec![Work(1), ChanSend { chan: 0 }],
                    vec![ChanRecvNoRecheck { chan: 0 }],
                ],
            )
        },
        Model {
            chan_caps: vec![2],
            preemption_bound: Some(3),
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("received twice"),
            ..base(
                "neg_chan_double_recv",
                "two receivers peek the head and pop in a second step; both account one message",
                vec![
                    vec![ChanSend { chan: 0 }, ChanSend { chan: 0 }],
                    vec![ChanRecvRacyPeek { chan: 0 }],
                    vec![ChanRecvRacyPeek { chan: 0 }],
                ],
            )
        },
        Model {
            chan_caps: vec![2, 2],
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("lost wakeup"),
            ..base(
                "neg_chan_select_race",
                "select scans for readiness before registering hooks; a send lands in the gap",
                vec![
                    vec![Work(1), ChanSend { chan: 0 }],
                    vec![ChanSelectRacy { a: 0, b: 1 }],
                ],
            )
        },
        Model {
            io_shards: 1,
            io_fds: 1,
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("lost wakeup"),
            ..base(
                "neg_io_lost_wakeup",
                "waiter enqueues its arm op before joining the fd table; the readiness \
                 event lands in the gap and is dropped",
                vec![
                    vec![IoWaitRacy { shard: 0, fd: 0 }],
                    vec![IoFlush { shard: 0 }],
                    vec![IoEvent { fd: 0 }],
                ],
            )
        },
        Model {
            // The same inversion triangle as `mutex_adaptive_pi`, with the
            // boost compiled out of the waiter's park. Some schedules
            // reach the convicted state: holder (pri 10) preempted by the
            // tick, high waiter (pri 40) parked on its mutex, middle hog
            // (pri 20) runnable — nothing will run the holder until the
            // hog finishes, so the waiter's latency is bounded only by the
            // hog's whim. The oracle convicts the state at park commit.
            thread_pris: vec![10, 20, 40],
            mutexes: 1,
            counters: 1,
            preemption_bound: Some(3),
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("unbounded priority inversion"),
            ..base(
                "neg_pi_unbounded_inversion",
                "no priority inheritance: a preempted low-pri holder starves under a \
                 middle-pri hog while a high-pri waiter sleeps",
                vec![
                    vec![MutexEnterAdaptiveNoPi(0), Incr(0), MutexExit(0)],
                    vec![Work(1), TickPreempt(0), Work(40)],
                    vec![Work(2), MutexEnterAdaptiveNoPi(0), Incr(0), MutexExit(0)],
                ],
            )
        },
        Model {
            rws: 1,
            counters: 1,
            preemption_bound: Some(3),
            variants: vec![Variant::Default],
            expect: Expect::FailContaining("torn read"),
            ..base(
                "neg_rw_check_before_publish",
                "slot reader checks for a writer before publishing its slot: the writer's \
                 drain sums past it and it reads beside the writer",
                vec![
                    vec![
                        RwSlotReadRacy { rw: 0, slot: 0 },
                        ReadStable(0),
                        RwSlotExit { rw: 0, slot: 0 },
                    ],
                    vec![RwSlotWrite(0), Incr(0), RwSlotExit { rw: 0, slot: 0 }],
                ],
            )
        },
        Model {
            mutexes: 1,
            expect: Expect::FailContaining("recursive"),
            variants: vec![Variant::Debug],
            ..base(
                "neg_debug_recursive",
                "DEBUG variant convicts a recursive mutex_enter",
                vec![vec![MutexEnter(0), MutexEnter(0), MutexExit(0)]],
            )
        },
        Model {
            mutexes: 1,
            expect: Expect::FailContaining("non-owner"),
            variants: vec![Variant::Debug],
            ..base(
                "neg_debug_unlock",
                "DEBUG variant convicts mutex_exit by a non-owner",
                vec![vec![MutexExit(0)]],
            )
        },
    ]
}

/// Looks a model up by name.
pub fn by_name<'a>(models: &'a [Model], name: &str) -> Option<&'a Model> {
    models.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RW_SLOTS;

    #[test]
    fn names_are_unique_and_wellformed() {
        let models = catalogue();
        for (i, m) in models.iter().enumerate() {
            assert!(!m.name.is_empty() && !m.name.contains('/'));
            assert!(!m.threads.is_empty());
            assert!(!m.variants.is_empty());
            for other in &models[i + 1..] {
                assert_ne!(m.name, other.name);
            }
        }
        assert!(by_name(&models, "mutex_basic").is_some());
        assert!(by_name(&models, "nope").is_none());
    }

    #[test]
    fn op_indices_are_in_range() {
        // Cheap static sanity: every index an op names exists in the
        // model's declared variable counts.
        for m in catalogue() {
            for ops in &m.threads {
                for op in ops {
                    match *op {
                        SyncOp::MutexEnter(i)
                        | SyncOp::MutexExit(i)
                        | SyncOp::MutexEnterAdaptive(i)
                        | SyncOp::MutexEnterAdaptivePi(i)
                        | SyncOp::MutexEnterAdaptiveNoPi(i)
                        | SyncOp::MutexExitPi(i)
                        | SyncOp::TryenterElseSkip { mutex: i, .. } => {
                            assert!(i < m.mutexes, "{}: mutex {i}", m.name)
                        }
                        SyncOp::TickPreempt(v) => {
                            assert!(v < m.threads.len(), "{}: thread {v}", m.name)
                        }
                        SyncOp::CvWaitOnce { cv, mutex }
                        | SyncOp::WaitUntilFlag { cv, mutex, .. }
                        | SyncOp::TimedWaitUntilFlag { cv, mutex, .. } => {
                            assert!(cv < m.cvs && mutex < m.mutexes, "{}", m.name)
                        }
                        SyncOp::CvSignal(i) | SyncOp::CvBroadcast(i) => {
                            assert!(i < m.cvs, "{}: cv {i}", m.name)
                        }
                        SyncOp::SemaP(i) | SyncOp::SemaV(i) => {
                            assert!(i < m.sema_init.len(), "{}: sema {i}", m.name)
                        }
                        SyncOp::RwEnter { rw, .. }
                        | SyncOp::RwExit(rw)
                        | SyncOp::RwDowngrade(rw)
                        | SyncOp::RwTryupgradeOrWrite(rw)
                        | SyncOp::RwSlotWrite(rw) => {
                            assert!(rw < m.rws, "{}: rw {rw}", m.name)
                        }
                        SyncOp::RwSlotRead { rw, slot }
                        | SyncOp::RwSlotReadRacy { rw, slot }
                        | SyncOp::RwSlotExit { rw, slot } => {
                            assert!(rw < m.rws && slot < RW_SLOTS, "{}: rw {rw}", m.name)
                        }
                        SyncOp::Incr(i) | SyncOp::ReadStable(i) => {
                            assert!(i < m.counters, "{}: counter {i}", m.name)
                        }
                        SyncOp::SetFlag(i)
                        | SyncOp::AssertFlag(i)
                        | SyncOp::SkipIfFlag { flag: i, .. } => {
                            assert!(i < m.flags, "{}: flag {i}", m.name)
                        }
                        SyncOp::CritEnter(i) | SyncOp::CritExit(i) => {
                            assert!(i < m.crits, "{}: crit {i}", m.name)
                        }
                        SyncOp::RunqPush { shard: i }
                        | SyncOp::RunqPop { shard: i }
                        | SyncOp::RunqStealRacy { victim: i } => {
                            assert!(i < m.runq_shards, "{}: runq shard {i}", m.name)
                        }
                        SyncOp::RunqInjectPush => {
                            assert!(m.runq_shards > 0, "{}: injection without a runq", m.name)
                        }
                        SyncOp::ChanSend { chan }
                        | SyncOp::ChanRecv { chan }
                        | SyncOp::ChanRecvNoRecheck { chan }
                        | SyncOp::ChanRecvRacyPeek { chan } => {
                            assert!(chan < m.chan_caps.len(), "{}: chan {chan}", m.name)
                        }
                        SyncOp::ChanSelect { a, b } | SyncOp::ChanSelectRacy { a, b } => {
                            assert!(
                                a < m.chan_caps.len() && b < m.chan_caps.len(),
                                "{}: select chans {a},{b}",
                                m.name
                            )
                        }
                        SyncOp::IoWait { shard, fd } | SyncOp::IoWaitRacy { shard, fd } => {
                            assert!(
                                shard < m.io_shards && fd < m.io_fds,
                                "{}: io shard {shard} fd {fd}",
                                m.name
                            )
                        }
                        SyncOp::IoFlush { shard } => {
                            assert!(shard < m.io_shards, "{}: io shard {shard}", m.name)
                        }
                        SyncOp::IoEvent { fd } => {
                            assert!(fd < m.io_fds, "{}: io fd {fd}", m.name)
                        }
                        SyncOp::Work(_) | SyncOp::AssertTimedOut(_) => {}
                    }
                }
            }
        }
    }
}

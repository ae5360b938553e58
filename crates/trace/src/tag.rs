//! The shared event vocabulary.
//!
//! One tag namespace serves the real threads library (probes in
//! `sunmt-core` / `sunmt-sync` / `sunmt-lwp`) and the schedule checker
//! (`sunmt-check` logs its models' events with these tags), so one
//! collector/exporter and one lock-order graph understand both.

vocabulary! {
    /// A probe's event kind. Stored in events as its `u16` discriminant,
    /// which follows list order: add new tags at the end.
    pub enum Tag: u16, NTAGS {
        /// Scheduler gave a thread the CPU (`a` = thread id, `b` = priority).
        Dispatch => "dispatch",
        /// Running thread left the CPU (`a` = thread id, `b` = reason code:
        /// 0 yield, 1 sleep, 2 stop, 3 exit).
        SwitchOut => "switch-out",
        /// Thread pushed on the run queue (`a` = thread id, `b` = priority).
        RunqPush => "runq-push",
        /// Thread popped off the run queue (`a` = thread id, `b` = priority).
        RunqPop => "runq-pop",
        /// Thread created (`a` = thread id, `b` = 1 if bound to an LWP).
        ThreadCreate => "thread-create",
        /// Thread exited (`a` = thread id).
        ThreadExit => "thread-exit",
        /// Thread blocked on a sleep queue (`a` = thread id, `b` = wait word).
        Sleep => "sleep",
        /// Sleeping thread made runnable again (`a` = thread id).
        Wakeup => "wakeup",
        /// Thread stopped via `thr_suspend`-style stop (`a` = thread id).
        Stop => "stop",
        /// Stopped thread continued (`a` = thread id).
        Continue => "continue",
        /// Mutex contended slow path entered (`a` = lock address, `b` = variant).
        MutexBlock => "mutex-block",
        /// Condition-variable wait blocked (`a` = cv address).
        CvBlock => "cv-block",
        /// Semaphore `p()` blocked (`a` = sema address).
        SemaBlock => "sema-block",
        /// Readers/writer lock blocked (`a` = lock address, `b` = 0 reader /
        /// 1 writer).
        RwBlock => "rw-block",
        /// Signal delivered to a thread (`a` = signal number, `b` = thread id).
        SignalDeliver => "signal-deliver",
        /// SIGWAITING-style "all LWPs blocked" notification (`a` = pool size).
        SigwaitingPost => "sigwaiting",
        /// Pool grew by one LWP (`a` = new pool size).
        PoolGrow => "pool-grow",
        /// LWP spawned (`a` = kernel tid).
        LwpSpawn => "lwp-spawn",
        /// LWP exited (`a` = kernel tid).
        LwpExit => "lwp-exit",
        /// LWP parked in the kernel (futex wait).
        LwpPark => "lwp-park",
        /// LWP unparked (`a` = target kernel tid).
        LwpUnpark => "lwp-unpark",
        /// I/O interest registered with the poller (`a` = fd, `b` = 0 read /
        /// 1 write).
        IoRegister => "io-register",
        /// Poller observed an fd ready (`a` = fd, `b` = epoll event mask).
        IoReady => "io-ready",
        /// Thread parked waiting for I/O readiness (`a` = fd).
        IoPark => "io-park",
        /// Poller unparked an I/O waiter (`a` = fd).
        IoUnpark => "io-unpark",
        /// A timed I/O wait expired (`a` = fd).
        IoTimeout => "io-timeout",
        /// A user-level sleep's deadline expired; the timer LWP made the
        /// thread runnable (`a` = thread id, `b` = wait word).
        SleepTimeout => "sleep-timeout",
        /// Mutex acquired (`a` = lock id/address, `b` = owner thread id). The
        /// lockdep-style checker pairs this with [`Tag::MutexRelease`] to build
        /// lock hold spans and the lock-order graph.
        MutexAcquire => "mutex-acquire",
        /// Mutex released (`a` = lock id/address, `b` = former owner).
        MutexRelease => "mutex-release",
        /// `cv_signal` issued (`a` = cv id/address, `b` = 1 if a waiter was
        /// present to receive it, 0 if the signal found no waiter).
        CvSignal => "cv-signal",
        /// `cv_broadcast` issued (`a` = cv id/address, `b` = waiters woken).
        CvBroadcast => "cv-broadcast",
        /// Semaphore `v()` posted (`a` = sema id/address, `b` = new count).
        SemaPost => "sema-post",
        /// Readers/writer lock acquired (`a` = lock id/address, `b` = 0 reader
        /// / 1 writer / 2 via downgrade / 3 via tryupgrade).
        RwAcquire => "rw-acquire",
        /// Readers/writer lock released (`a` = lock id/address, `b` = 0 reader
        /// / 1 writer).
        RwRelease => "rw-release",
        /// A thread was stolen from another LWP's run-queue shard (`a` =
        /// thread id, `b` = victim shard index).
        RunqSteal => "runq-steal",
        /// A thread was enqueued on the global injection queue — a wakeup
        /// from a non-LWP context or a shard overflow (`a` = thread id).
        RunqInject => "runq-inject",
        /// Adaptive mutex finished its spin phase (`a` = lock address, `b` =
        /// spins burned before acquiring or falling back to the sleep path).
        MutexSpin => "mutex-spin",
        /// A thread was inserted into a hashed sleep-queue shard (`a` = wait
        /// word, `b` = shard index).
        SleepqShard => "sleepq-shard",
        /// Thread create satisfied from the per-LWP magazine (`a` = 1 if the
        /// thread struct was recycled, `b` = 1 if the stack was).
        MagazineHit => "magazine-hit",
        /// Thread create fell through the magazine to a fresh allocation
        /// (`a` = 1 if the thread struct missed, `b` = 1 if the stack did).
        MagazineMiss => "magazine-miss",
        /// A `FUTEX_WAKE` system call was issued by the sync layer (`a` = wait
        /// word, `b` = wake count requested).
        FutexWake => "futex-wake",
        /// A message was committed into a channel slot (`a` = channel address,
        /// `b` = queue depth after the send).
        ChanSend => "chan-send",
        /// A message was taken out of a channel slot (`a` = channel address,
        /// `b` = queue depth after the receive).
        ChanRecv => "chan-recv",
        /// A channel operation found no slot/message and parked the caller
        /// (`a` = channel address, `b` = 0 receiver / 1 sender).
        ChanPark => "chan-park",
        /// A select wait was woken by one of its registered channels (`a` =
        /// channel address that fired, `b` = waiter's wait-word address).
        SelectWake => "select-wake",
        /// A timer tick forced the running thread off the CPU because a
        /// higher-priority thread was runnable (`a` = preempted thread id,
        /// `b` = the effective priority it was preempted at).
        Preempt => "preempt",
        /// A tick decayed the running thread's timeshare priority (`a` =
        /// thread id, `b` = the new effective priority).
        PrioDecay => "prio-decay",
        /// A blocked waiter inherited its priority to the mutex holder's LWP
        /// (`a` = lock address, `b` = the priority pushed to the owner).
        PiBoost => "pi-boost",
        /// A mutex release stripped the inherited priority from the former
        /// owner's LWP (`a` = lock address, `b` = the boost removed).
        PiStrip => "pi-strip",
    }
}

impl Tag {
    /// Decodes a stored discriminant.
    pub fn from_u16(v: u16) -> Option<Tag> {
        Tag::ALL.get(v as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, t) in Tag::ALL.iter().enumerate() {
            assert_eq!(*t as usize, i);
            assert_eq!(Tag::from_u16(i as u16), Some(*t));
        }
        assert_eq!(Tag::from_u16(NTAGS as u16), None);
    }
}

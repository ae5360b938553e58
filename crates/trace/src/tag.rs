//! The shared event vocabulary.
//!
//! One tag namespace serves both the real threads library (probes in
//! `sunmt-core` / `sunmt-sync` / `sunmt-lwp`) and the simulated kernel
//! (`sunmt-simkernel` converts its `TraceEvent` log into these tags), so a
//! single collector/exporter understands either world.

/// A probe's event kind. Stored in events as its `u16` discriminant.
#[repr(u16)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tag {
    /// Scheduler gave a thread the CPU (`a` = thread id, `b` = priority).
    Dispatch = 0,
    /// Running thread left the CPU (`a` = thread id, `b` = reason code:
    /// 0 yield, 1 sleep, 2 stop, 3 exit).
    SwitchOut = 1,
    /// Thread pushed on the run queue (`a` = thread id, `b` = priority).
    RunqPush = 2,
    /// Thread popped off the run queue (`a` = thread id, `b` = priority).
    RunqPop = 3,
    /// Thread created (`a` = thread id, `b` = 1 if bound to an LWP).
    ThreadCreate = 4,
    /// Thread exited (`a` = thread id).
    ThreadExit = 5,
    /// Thread blocked on a sleep queue (`a` = thread id, `b` = wait word).
    Sleep = 6,
    /// Sleeping thread made runnable again (`a` = thread id).
    Wakeup = 7,
    /// Thread stopped via `thr_suspend`-style stop (`a` = thread id).
    Stop = 8,
    /// Stopped thread continued (`a` = thread id).
    Continue = 9,
    /// Mutex contended slow path entered (`a` = lock address, `b` = variant).
    MutexBlock = 10,
    /// Condition-variable wait blocked (`a` = cv address).
    CvBlock = 11,
    /// Semaphore `p()` blocked (`a` = sema address).
    SemaBlock = 12,
    /// Readers/writer lock blocked (`a` = lock address, `b` = 0 reader /
    /// 1 writer).
    RwBlock = 13,
    /// Signal delivered to a thread (`a` = signal number, `b` = thread id).
    SignalDeliver = 14,
    /// SIGWAITING-style "all LWPs blocked" notification (`a` = pool size).
    SigwaitingPost = 15,
    /// Pool grew by one LWP (`a` = new pool size).
    PoolGrow = 16,
    /// LWP spawned (`a` = kernel tid).
    LwpSpawn = 17,
    /// LWP exited (`a` = kernel tid).
    LwpExit = 18,
    /// LWP parked in the kernel (futex wait).
    LwpPark = 19,
    /// LWP unparked (`a` = target kernel tid).
    LwpUnpark = 20,
    /// Simulated kernel: LWP entered a blocking system call.
    SyscallEnter = 21,
    /// Simulated kernel: system call completed (`a` = 1 if EINTR).
    SyscallDone = 22,
    /// I/O interest registered with the poller (`a` = fd, `b` = 0 read /
    /// 1 write).
    IoRegister = 23,
    /// Poller observed an fd ready (`a` = fd, `b` = epoll event mask).
    IoReady = 24,
    /// Thread parked waiting for I/O readiness (`a` = fd).
    IoPark = 25,
    /// Poller unparked an I/O waiter (`a` = fd).
    IoUnpark = 26,
    /// A timed I/O wait expired (`a` = fd).
    IoTimeout = 27,
    /// A user-level sleep's deadline expired; the timer LWP made the
    /// thread runnable (`a` = thread id, `b` = wait word).
    SleepTimeout = 28,
    /// Mutex acquired (`a` = lock id/address, `b` = owner thread id). The
    /// lockdep-style checker pairs this with [`Tag::MutexRelease`] to build
    /// lock hold spans and the lock-order graph.
    MutexAcquire = 29,
    /// Mutex released (`a` = lock id/address, `b` = former owner).
    MutexRelease = 30,
    /// `cv_signal` issued (`a` = cv id/address, `b` = 1 if a waiter was
    /// present to receive it, 0 if the signal found no waiter).
    CvSignal = 31,
    /// `cv_broadcast` issued (`a` = cv id/address, `b` = waiters woken).
    CvBroadcast = 32,
    /// Semaphore `v()` posted (`a` = sema id/address, `b` = new count).
    SemaPost = 33,
    /// Readers/writer lock acquired (`a` = lock id/address, `b` = 0 reader
    /// / 1 writer / 2 via downgrade / 3 via tryupgrade).
    RwAcquire = 34,
    /// Readers/writer lock released (`a` = lock id/address, `b` = 0 reader
    /// / 1 writer).
    RwRelease = 35,
    /// A thread was stolen from another LWP's run-queue shard (`a` =
    /// thread id, `b` = victim shard index).
    RunqSteal = 36,
    /// A thread was enqueued on the global injection queue — a wakeup
    /// from a non-LWP context or a shard overflow (`a` = thread id).
    RunqInject = 37,
    /// Adaptive mutex finished its spin phase (`a` = lock address, `b` =
    /// spins burned before acquiring or falling back to the sleep path).
    MutexSpin = 38,
    /// A thread was inserted into a hashed sleep-queue shard (`a` = wait
    /// word, `b` = shard index).
    SleepqShard = 39,
    /// Thread create satisfied from the per-LWP magazine (`a` = 1 if the
    /// thread struct was recycled, `b` = 1 if the stack was).
    MagazineHit = 40,
    /// Thread create fell through the magazine to a fresh allocation
    /// (`a` = 1 if the thread struct missed, `b` = 1 if the stack did).
    MagazineMiss = 41,
    /// A `FUTEX_WAKE` system call was issued by the sync layer (`a` = wait
    /// word, `b` = wake count requested).
    FutexWake = 42,
    /// A message was committed into a channel slot (`a` = channel address,
    /// `b` = queue depth after the send).
    ChanSend = 43,
    /// A message was taken out of a channel slot (`a` = channel address,
    /// `b` = queue depth after the receive).
    ChanRecv = 44,
    /// A channel operation found no slot/message and parked the caller
    /// (`a` = channel address, `b` = 0 receiver / 1 sender).
    ChanPark = 45,
    /// A select wait was woken by one of its registered channels (`a` =
    /// channel address that fired, `b` = waiter's wait-word address).
    SelectWake = 46,
    /// A poller shard applied its coalesced epoll_ctl batch (`a` = shard
    /// index, `b` = ops applied).
    IoBatchFlush = 47,
    /// A timer tick forced the running thread off the CPU because a
    /// higher-priority thread was runnable (`a` = preempted thread id,
    /// `b` = the effective priority it was preempted at).
    Preempt = 48,
    /// A tick decayed the running thread's timeshare priority (`a` =
    /// thread id, `b` = the new effective priority).
    PrioDecay = 49,
    /// A blocked waiter inherited its priority to the mutex holder's LWP
    /// (`a` = lock address, `b` = the priority pushed to the owner).
    PiBoost = 50,
    /// A mutex release stripped the inherited priority from the former
    /// owner's LWP (`a` = lock address, `b` = the boost removed).
    PiStrip = 51,
}

/// Number of distinct tags (length of [`Tag::ALL`]).
pub const NTAGS: usize = 52;

impl Tag {
    /// Every tag, indexed by discriminant.
    pub const ALL: [Tag; NTAGS] = [
        Tag::Dispatch,
        Tag::SwitchOut,
        Tag::RunqPush,
        Tag::RunqPop,
        Tag::ThreadCreate,
        Tag::ThreadExit,
        Tag::Sleep,
        Tag::Wakeup,
        Tag::Stop,
        Tag::Continue,
        Tag::MutexBlock,
        Tag::CvBlock,
        Tag::SemaBlock,
        Tag::RwBlock,
        Tag::SignalDeliver,
        Tag::SigwaitingPost,
        Tag::PoolGrow,
        Tag::LwpSpawn,
        Tag::LwpExit,
        Tag::LwpPark,
        Tag::LwpUnpark,
        Tag::SyscallEnter,
        Tag::SyscallDone,
        Tag::IoRegister,
        Tag::IoReady,
        Tag::IoPark,
        Tag::IoUnpark,
        Tag::IoTimeout,
        Tag::SleepTimeout,
        Tag::MutexAcquire,
        Tag::MutexRelease,
        Tag::CvSignal,
        Tag::CvBroadcast,
        Tag::SemaPost,
        Tag::RwAcquire,
        Tag::RwRelease,
        Tag::RunqSteal,
        Tag::RunqInject,
        Tag::MutexSpin,
        Tag::SleepqShard,
        Tag::MagazineHit,
        Tag::MagazineMiss,
        Tag::FutexWake,
        Tag::ChanSend,
        Tag::ChanRecv,
        Tag::ChanPark,
        Tag::SelectWake,
        Tag::IoBatchFlush,
        Tag::Preempt,
        Tag::PrioDecay,
        Tag::PiBoost,
        Tag::PiStrip,
    ];

    /// Decodes a stored discriminant.
    pub fn from_u16(v: u16) -> Option<Tag> {
        Tag::ALL.get(v as usize).copied()
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Dispatch => "dispatch",
            Tag::SwitchOut => "switch-out",
            Tag::RunqPush => "runq-push",
            Tag::RunqPop => "runq-pop",
            Tag::ThreadCreate => "thread-create",
            Tag::ThreadExit => "thread-exit",
            Tag::Sleep => "sleep",
            Tag::Wakeup => "wakeup",
            Tag::Stop => "stop",
            Tag::Continue => "continue",
            Tag::MutexBlock => "mutex-block",
            Tag::CvBlock => "cv-block",
            Tag::SemaBlock => "sema-block",
            Tag::RwBlock => "rw-block",
            Tag::SignalDeliver => "signal-deliver",
            Tag::SigwaitingPost => "sigwaiting",
            Tag::PoolGrow => "pool-grow",
            Tag::LwpSpawn => "lwp-spawn",
            Tag::LwpExit => "lwp-exit",
            Tag::LwpPark => "lwp-park",
            Tag::LwpUnpark => "lwp-unpark",
            Tag::SyscallEnter => "syscall-enter",
            Tag::SyscallDone => "syscall-done",
            Tag::IoRegister => "io-register",
            Tag::IoReady => "io-ready",
            Tag::IoPark => "io-park",
            Tag::IoUnpark => "io-unpark",
            Tag::IoTimeout => "io-timeout",
            Tag::SleepTimeout => "sleep-timeout",
            Tag::MutexAcquire => "mutex-acquire",
            Tag::MutexRelease => "mutex-release",
            Tag::CvSignal => "cv-signal",
            Tag::CvBroadcast => "cv-broadcast",
            Tag::SemaPost => "sema-post",
            Tag::RwAcquire => "rw-acquire",
            Tag::RwRelease => "rw-release",
            Tag::RunqSteal => "runq-steal",
            Tag::RunqInject => "runq-inject",
            Tag::MutexSpin => "mutex-spin",
            Tag::SleepqShard => "sleepq-shard",
            Tag::MagazineHit => "magazine-hit",
            Tag::MagazineMiss => "magazine-miss",
            Tag::FutexWake => "futex-wake",
            Tag::ChanSend => "chan-send",
            Tag::ChanRecv => "chan-recv",
            Tag::ChanPark => "chan-park",
            Tag::SelectWake => "select-wake",
            Tag::IoBatchFlush => "io-batch-flush",
            Tag::Preempt => "preempt",
            Tag::PrioDecay => "prio-decay",
            Tag::PiBoost => "pi-boost",
            Tag::PiStrip => "pi-strip",
        }
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

//! Micro-step models of the sync-variable suite.
//!
//! A [`Model`] is a small concurrent program over modelled synchronization
//! variables — the paper's suite: `mutex_enter/exit/tryenter`,
//! `cv_wait/timedwait/signal/broadcast`, `sema_p/v`, and
//! `rw_enter/exit/downgrade/tryupgrade` — executed by [`run_model`]'s
//! one-processor run loop, one schedulable thread per model thread.
//!
//! Every [`SyncOp`] decomposes into *micro-steps*, each of which performs
//! one atomic action on the shared [`World`] state and then gives up the
//! processor. The races the checker hunts live between those
//! micro-steps, exactly where the futex-shaped implementation in
//! `sunmt-sync` has its windows: the read of a lock word, the CAS that
//! claims it, and the check-then-park of the slow path are separate
//! schedulable actions. A [`Chooser`] picks which runnable thread performs
//! the next micro-step, so the explorer sweeps interleavings at the same
//! granularity the hardware would.
//!
//! Blocking is modelled faithfully: a parking micro-step enqueues the
//! thread on the variable's wait queue and blocks it in one atomic
//! action, and a waker *dequeues* the sleeper and redirects its resume
//! point before the run loop makes it runnable again — so a signal
//! landing between enqueue and park is consumed, never lost (the
//! `cv_wait` atomicity guarantee). `cv_timedwait` parks with a
//! virtual-time deadline that fires only if no wakeup ever arrives,
//! mirroring the timed paths the `sunmt-io` poller added.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sunmt_trace::Tag;

/// Micro-steps one run may execute before the checker declares a livelock.
const STEP_BUDGET: u64 = 100_000;

/// Spin iterations the adaptive `mutex_enter` model allows before it falls
/// back to the park path. Tiny compared to the library's real cap: each
/// spin is a scheduling point, and three of them already expose every
/// spin/release/park interleaving the explorer needs.
const ADAPTIVE_MODEL_SPINS: u64 = 3;

/// Which implementation variant of the suite a run models (the paper's
/// initialization-time variants: default, `DEBUG`, and `SYNC_SHARED`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// The default sleep variant.
    Default,
    /// The `DEBUG` variant: ownership is tracked and misuse (recursive
    /// `mutex_enter`, `mutex_exit` by a non-owner, `rw_exit` without a
    /// hold, `cv_wait` without the mutex) fails the run instead of
    /// corrupting state silently.
    Debug,
    /// The `SYNC_SHARED` variant: every park/unpark goes through the
    /// kernel and is visible as `LwpPark`/`LwpUnpark` events, since a
    /// user-level sleep queue is invisible to other processes.
    Shared,
}

impl Variant {
    /// All variants, in fixed order.
    pub const ALL: [Variant; 3] = [Variant::Default, Variant::Debug, Variant::Shared];

    /// Short lowercase name (used in schedule strings and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Debug => "debug",
            Variant::Shared => "shared",
        }
    }

    /// Parses [`Variant::name`] output.
    pub fn parse(s: &str) -> Option<Variant> {
        Variant::ALL.iter().copied().find(|v| v.name() == s)
    }
}

/// One high-level operation of a model thread's program. Each expands into
/// one or more micro-steps (see the module docs).
#[derive(Clone, Debug)]
pub enum SyncOp {
    /// `n` steps of non-critical work (each one scheduling point).
    Work(u32),
    /// `mutex_enter`: read word, CAS, park-on-contention.
    MutexEnter(usize),
    /// `mutex_exit`: release word, then wake one waiter.
    MutexExit(usize),
    /// One atomic `mutex_tryenter` attempt; on failure skip the next
    /// `skip` ops (the critical section it guards).
    TryenterElseSkip {
        /// The mutex.
        mutex: usize,
        /// Ops to skip when the try fails.
        skip: usize,
    },
    /// A *single* `cv_wait` with no predicate re-check loop — the misuse
    /// the negative lost-wakeup model needs. Caller must hold `mutex`.
    CvWaitOnce {
        /// The condition variable.
        cv: usize,
        /// The mutex released while waiting and re-acquired after.
        mutex: usize,
    },
    /// The canonical monitor wait: `while !flag { cv_wait(cv, mutex) }`,
    /// with the predicate checked under the mutex.
    WaitUntilFlag {
        /// Predicate flag.
        flag: usize,
        /// The condition variable.
        cv: usize,
        /// The mutex held around the predicate.
        mutex: usize,
    },
    /// `while !flag { if cv_timedwait(..) == TIMEOUT { break } }` — each
    /// wait gives up after `timeout` virtual microseconds.
    TimedWaitUntilFlag {
        /// Predicate flag.
        flag: usize,
        /// The condition variable.
        cv: usize,
        /// The mutex held around the predicate.
        mutex: usize,
        /// Virtual-time deadline for each wait.
        timeout: u64,
    },
    /// `cv_signal`: wake one waiter (records whether one was present).
    CvSignal(usize),
    /// `cv_broadcast`: wake every waiter.
    CvBroadcast(usize),
    /// `sema_p`: decrement or park.
    SemaP(usize),
    /// `sema_v`: increment, then wake one waiter.
    SemaV(usize),
    /// `rw_enter`: acquire for reading (`write = false`) or writing.
    RwEnter {
        /// The readers/writer lock.
        rw: usize,
        /// Writer side?
        write: bool,
    },
    /// `rw_exit`: release whichever side the thread holds.
    RwExit(usize),
    /// `rw_downgrade`: writer becomes reader without releasing.
    RwDowngrade(usize),
    /// `rw_tryupgrade`, falling back to release-and-`rw_enter(write)` when
    /// the atomic upgrade loses the race.
    RwTryupgradeOrWrite(usize),
    /// `rw_enter(Reader)` on a private lock's reader slots, as `rwlock.rs`
    /// does it: check, publish (`slot += 1`), check again; on conflict back
    /// off (`slot -= 1`), run the gated drain wake, and wait for the
    /// writer's release.
    RwSlotRead {
        /// The readers/writer lock.
        rw: usize,
        /// The reader slot the caller's LWP names.
        slot: usize,
    },
    /// The seeded-buggy slot read: checks for a writer *before* publishing
    /// and never after, so a writer that claims the lock and sums the slots
    /// in between lets the reader in beside it.
    RwSlotReadRacy {
        /// The readers/writer lock.
        rw: usize,
        /// The reader slot the caller's LWP names.
        slot: usize,
    },
    /// `rw_enter(Writer)` on reader slots: announce, claim the writer bit
    /// (or park until released), then drain — sum the slots, arm the drain
    /// word, sum again, park while armed — and mark the hold drained.
    RwSlotWrite(usize),
    /// `rw_exit` on reader slots: the drained mark says whether the caller
    /// is the writer (release, wake) or a reader (`slot -= 1`, then the
    /// gated drain wake). A reader may leave through another slot than it
    /// entered by, as an unbound reader that migrated LWPs does.
    RwSlotExit {
        /// The readers/writer lock.
        rw: usize,
        /// The reader slot the caller's LWP names at exit.
        slot: usize,
    },
    /// Non-atomic read-modify-write of a counter (load then store — torn
    /// by design, so unprotected access is *observable*).
    Incr(usize),
    /// Load a counter, yield, and assert it did not move (a reader's
    /// oracle that no writer interleaved).
    ReadStable(usize),
    /// Set a flag (one atomic step).
    SetFlag(usize),
    /// If the flag is set, skip the next `skip` ops. Racy by design: the
    /// check takes no lock (for negative models).
    SkipIfFlag {
        /// The flag to test.
        flag: usize,
        /// Ops to skip when set.
        skip: usize,
    },
    /// Assert the flag is set (fails the run otherwise).
    AssertFlag(usize),
    /// Assert this thread's last timed wait did / did not time out.
    AssertTimedOut(bool),
    /// Enter an exclusive critical-section oracle: fails the run if
    /// another thread is inside the same section.
    CritEnter(usize),
    /// Leave the critical-section oracle.
    CritExit(usize),
    /// Adaptive `mutex_enter`: spin while the owner is running, then fall
    /// back to the park path (read / CAS / spin / check-then-park).
    MutexEnterAdaptive(usize),
    /// Push one fresh work item onto runq shard `shard`, then wake one
    /// parked dispatcher — publish and wake are separate steps, the real
    /// store-then-unpark ordering whose window the dispatchers' atomic
    /// check-then-park must tolerate.
    RunqPush {
        /// Destination shard.
        shard: usize,
    },
    /// Push one fresh work item onto the runq injection queue (a wakeup
    /// arriving from a non-LWP context), then wake one parked dispatcher.
    RunqInjectPush,
    /// Dispatch exactly one item: own shard, then injection, then a steal
    /// scan — each probe its own scheduling point, each take atomic (the
    /// shard lock); parks when everything is empty.
    RunqPop {
        /// The dispatcher's home shard.
        shard: usize,
    },
    /// The seeded bug: steal from `victim` by *peeking* its head and
    /// removing it in a second, separate step — the race a per-shard lock
    /// exists to prevent. Two racing thieves dispatch the same item.
    RunqStealRacy {
        /// The shard robbed without holding its lock.
        victim: usize,
    },
    /// `chan::send` on a bounded channel: commit the message in one
    /// atomic step, read the waiter count and wake in the next (the
    /// store-then-wake window `sunmt-chan`'s eventcount fence guards);
    /// park on a full queue via register / re-check / atomic park.
    ChanSend {
        /// The channel.
        chan: usize,
    },
    /// `chan::recv`: pop in one atomic step (every message id must be
    /// received exactly once — the double-recv oracle), wake one parked
    /// sender in the next; when empty, register as a waiter, *re-check
    /// the queue*, and only then park — the lost-wakeup-free discipline.
    ChanRecv {
        /// The channel.
        chan: usize,
    },
    /// The seeded-buggy `chan::recv`: registers and parks without the
    /// post-registration re-check, so a message committed between its
    /// empty-probe and its registration sleeps forever — the lost
    /// wakeup the real receiver's re-check exists to close.
    ChanRecvNoRecheck {
        /// The channel.
        chan: usize,
    },
    /// The seeded-buggy MPMC `chan::recv`: *peeks* the head and pops in
    /// a second, separate step. Two racing receivers peek the same
    /// message and both account it — the double-recv race a single
    /// claim-CAS exists to prevent.
    ChanRecvRacyPeek {
        /// The channel.
        chan: usize,
    },
    /// `Select` over two channels: register a one-shot hook on each
    /// (separate steps), then scan-and-consume or atomically park; a
    /// send fires the hooks and the woken selector re-registers and
    /// re-scans (the crossbeam `ready()` contract).
    ChanSelect {
        /// First channel, scanned first.
        a: usize,
        /// Second channel.
        b: usize,
    },
    /// The seeded-buggy select: scans for readiness *before* registering
    /// its hooks and parks without a re-scan, so a send landing in the
    /// gap fires no hook and the selector sleeps on a ready channel.
    ChanSelectRacy {
        /// First channel, scanned first.
        a: usize,
        /// Second channel.
        b: usize,
    },
    /// Read one unit from an fd through `sunmt-io`'s poller wait: try the
    /// nonblocking read; on `EAGAIN`, one step under the shard's fd-table
    /// lock takes the fd's ready flag (and retries the read) or joins the
    /// waiter list, arming the fd edge-triggered on its first wait; then
    /// park until an edge wakes it, and retry.
    IoWait {
        /// The fd index.
        fd: usize,
    },
    /// The driver: one unit of data arrives on an fd (one step; the
    /// kernel queues an edge if the fd is armed), then the shard LWP's
    /// locked step for that edge wakes every listed waiter or, with none
    /// listed, sets the fd's ready flag.
    IoEvent {
        /// The fd index.
        fd: usize,
    },
    /// The seeded-buggy edge: an edge-triggered poller without the ready
    /// flag. An edge that finds no listed waiter is dropped, so a reader
    /// between its `EAGAIN` and joining the list parks on data that no
    /// further edge will report.
    IoEventNoFlag {
        /// The fd index.
        fd: usize,
    },
    /// A timer tick landing on thread `v` (one atomic step): raises its
    /// preempt flag. `v`'s *next* step runs the safepoint gate — if any
    /// runnable thread outranks it (effective priorities), it is switched
    /// off its processor and stays off until it outranks the field again
    /// (a PI boost, or a runnable thread completing, re-evaluates it).
    /// Preemption may thus land at *any* micro-step boundary of `v`'s
    /// machine — including mid-critical-section.
    TickPreempt(usize),
    /// Adaptive `mutex_enter` with priority inheritance: identical to
    /// [`SyncOp::MutexEnterAdaptive`] except that the park step first
    /// pushes the waiter's priority onto the recorded owner (boost and
    /// park are one atomic step, as in the real library where the boost
    /// happens before the futex wait commits).
    MutexEnterAdaptivePi(usize),
    /// The seeded-buggy PI enter: the same machine with the boost compiled
    /// out. A high-priority waiter parks behind a preempted owner without
    /// raising it, so a middle-priority hog holds the processor — the
    /// unbounded-priority-inversion state the oracle convicts.
    MutexEnterAdaptiveNoPi(usize),
    /// Adaptive `mutex_exit` with priority inheritance: strips the boost
    /// this thread carries and releases the word in one atomic step (the
    /// real release clears the owner hint, strips, then stores UNLOCKED),
    /// then wakes one waiter in the next.
    MutexExitPi(usize),
    /// Wait until kernel word `word` is set, parking in the kernel as
    /// `sunmt_sync::strategy::kernel_park` does: check the word, announce
    /// in its bucket's parker count, then `futex_wait` — the kernel
    /// compares the word and sleeps in one step — and withdraw; repeat
    /// until the word is set.
    KernelPark {
        /// The kernel word.
        word: usize,
    },
    /// The seeded-buggy kernel park: announces itself only *after* the one
    /// check of the word that decides the sleep. This is the order a
    /// missing fence lets a store buffer produce from the correct code
    /// (the word is read before the increment is visible), so a waker in
    /// between reads a zero count, skips its wake, and the parker sleeps on
    /// a word that is already set.
    KernelParkRacy {
        /// The kernel word.
        word: usize,
    },
    /// Set kernel word `word`, then run the gated kernel wake of
    /// `sunmt_sync::strategy::kernel_unpark`: read the bucket's parker
    /// count (after the fence) and make the `futex_wake` in a later step
    /// only if it is non-zero.
    KernelWake {
        /// The kernel word.
        word: usize,
    },
}

/// What the explorer expects from a model.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Every schedule must pass.
    Pass,
    /// At least one schedule must fail with a message containing this
    /// needle (the model seeds a real bug the checker must find).
    FailContaining(&'static str),
}

/// A checkable concurrent program.
pub struct Model {
    /// Unique name (used in schedule strings).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// One op-script per thread.
    pub threads: Vec<Vec<SyncOp>>,
    /// Base scheduling priority per thread (resized with zeros to the
    /// thread count). Only meaningful to models using [`SyncOp::TickPreempt`]
    /// and the PI enter/exit ops; everything else ignores priorities.
    pub thread_pris: Vec<i32>,
    /// Number of modelled mutexes.
    pub mutexes: usize,
    /// Number of modelled condition variables.
    pub cvs: usize,
    /// Initial counts of the modelled semaphores (length = sema count).
    pub sema_init: Vec<u32>,
    /// Number of modelled readers/writer locks.
    pub rws: usize,
    /// Number of shared counters.
    pub counters: usize,
    /// Number of shared flags.
    pub flags: usize,
    /// Number of critical-section oracles.
    pub crits: usize,
    /// Number of run-queue shards (0 = no run queue modelled). When
    /// non-zero the final-state oracle requires every pushed item to have
    /// been dispatched exactly once and every queue to drain.
    pub runq_shards: usize,
    /// Capacities of the modelled bounded channels (length = channel
    /// count). The final-state oracle requires every channel to drain;
    /// the double-recv oracle convicts any message received twice.
    pub chan_caps: Vec<usize>,
    /// Number of modelled I/O fds (0 = no poller). Each lives on its own
    /// shard, so the fds share no state.
    pub io_fds: usize,
    /// The address bucket of each modelled kernel word (length = word
    /// count). Words with the same bucket share one parker count.
    pub kernel_buckets: Vec<usize>,
    /// Expected final counter values, checked after all threads exit.
    pub final_counters: Vec<(usize, u64)>,
    /// What the explorer should find.
    pub expect: Expect,
    /// Floor on the distinct schedules an uncapped exhaustive sweep must
    /// visit — a guard against the model (or the explorer) silently
    /// degenerating to a handful of interleavings.
    pub min_schedules: u64,
    /// Preemption bound for the exhaustive sweep (`None` = unbounded;
    /// 3-thread models use a context bound to stay tractable).
    pub preemption_bound: Option<u32>,
    /// Variants this model runs under (`Variant::ALL` for the suite;
    /// DEBUG-misuse negatives run under `Debug` only).
    pub variants: Vec<Variant>,
}

impl Model {
    /// Whether `v` is among this model's applicable variants.
    pub fn has_variant(&self, v: Variant) -> bool {
        self.variants.contains(&v)
    }
}

/// One record in a run's event log, using the shared `sunmt-trace` tag
/// vocabulary so the same lockdep / lost-wakeup analysis could consume a
/// real library trace.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Model thread index that produced the event.
    pub thread: usize,
    /// Event kind.
    pub tag: Tag,
    /// First payload (variable index).
    pub a: u64,
    /// Second payload (tag-specific).
    pub b: u64,
}

struct MutexSt {
    /// 0 free, 1 held, 2 held-contended — the real lock-word protocol.
    word: u32,
    owner: Option<usize>,
    /// `(thread, resume_micro)`: where the thread continues once woken.
    waiters: VecDeque<(usize, u32)>,
}

struct CvSt {
    waiters: VecDeque<(usize, u32)>,
}

struct SemaSt {
    count: u32,
    waiters: VecDeque<(usize, u32)>,
}

/// Reader slots per modelled lock in the `RwSlot*` protocol.
pub const RW_SLOTS: usize = 2;

struct RwSt {
    readers: Vec<usize>,
    /// Holder of the writer bit (in the slot protocol: also while draining).
    writer: Option<usize>,
    /// `(thread, wants_write, resume_micro)`.
    waiters: VecDeque<(usize, bool, u32)>,
    /// Slot protocol: the signed per-slot reader counts.
    slots: [i64; RW_SLOTS],
    /// Slot protocol: writers announced and not yet holding the bit.
    wrwait: u32,
    /// Slot protocol: the writer bit's holder has drained the slots.
    drained: bool,
    /// Slot protocol: the drain word (the drainer is armed to park).
    armed: bool,
    /// Slot protocol: the drainer parked on the drain word, with its
    /// resume point.
    drainer: Option<(usize, u32)>,
}

impl RwSt {
    fn can_enter(&self, write: bool) -> bool {
        if write {
            self.writer.is_none() && self.readers.is_empty()
        } else {
            // Writer preference: new readers also yield to *waiting*
            // writers, the starvation-avoidance rule.
            self.writer.is_none() && !self.waiters.iter().any(|(_, w, _)| *w)
        }
    }
}

/// The modelled sharded run queue: per-shard FIFOs, an injection queue,
/// and the parked dispatchers a push must wake. Items are plain ids; the
/// oracle is handoff integrity, not item behaviour.
struct RunqSt {
    shards: Vec<VecDeque<u64>>,
    inject: VecDeque<u64>,
    /// Parked dispatchers: `(thread, resume_micro)`.
    waiters: VecDeque<(usize, u32)>,
    /// Items created so far (the next item's id).
    pushed: u64,
    /// Every id dispatched, in order — duplicates convict the handoff.
    dispatched: Vec<u64>,
}

/// The modelled bounded channel: a FIFO of message ids plus the two
/// waiter queues and the select hook list the real `Chan` carries. The
/// oracle is delivery integrity — every id received exactly once.
struct ChanSt {
    cap: usize,
    queue: VecDeque<u64>,
    /// Next message id (and the count of messages ever sent).
    next_id: u64,
    /// Every id received, in receive order — duplicates convict.
    received: Vec<u64>,
    /// Parked receivers: `(thread, resume_micro)`.
    recv_waiters: VecDeque<(usize, u32)>,
    /// Parked senders: `(thread, resume_micro)`.
    send_waiters: VecDeque<(usize, u32)>,
    /// One-shot select hooks, drained when a send fires them.
    hooks: VecDeque<(usize, u32)>,
}

/// The modelled poller: per fd, the kernel's readiness and registration
/// and the shard's fd-table entry. The oracle is wakeup integrity — no
/// reader may park on readable data that no edge is left to report.
struct IoSt {
    /// fd -> units of data the kernel holds (a read takes one).
    data: Vec<u32>,
    /// fd -> registered with its shard's epoll set, edge-triggered.
    armed: Vec<bool>,
    /// fd -> an edge the kernel queued and the shard LWP has not yet
    /// handled.
    edge: Vec<bool>,
    /// fd -> the entry's ready flag: an edge found no listed waiter.
    flag: Vec<bool>,
    /// The fd table: listed waiters as `(thread, fd, resume_micro)`.
    waiters: VecDeque<(usize, usize, u32)>,
}

/// The modelled kernel-wake gate: private words parked on in the kernel,
/// the per-bucket counts of kernel parkers, and the futex wait queue. The
/// oracle is wakeup integrity: no thread may sleep on a word that is set.
struct KernelSt {
    /// Word -> set by its waker.
    set: Vec<bool>,
    /// Word -> its bucket.
    bucket: Vec<usize>,
    /// Bucket -> parkers announced and not yet withdrawn.
    parkers: Vec<u32>,
    /// The futex wait queue: `(thread, word, resume_micro)`.
    sleepers: VecDeque<(usize, usize, u32)>,
}

struct ThreadSt {
    ops: Vec<SyncOp>,
    pc: usize,
    micro: u32,
    scratch: u64,
    parked: bool,
    timed_out: bool,
    done: bool,
    /// A [`SyncOp::TickPreempt`] flagged this thread; its next step runs
    /// the safepoint gate instead of its op.
    preempted: bool,
}

/// Where a thread was stuck when the run went idle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockedOn {
    /// Parked on a mutex.
    Mutex(usize),
    /// Parked on a condition variable.
    Cv(usize),
    /// Parked on a semaphore.
    Sema(usize),
    /// Parked on a readers/writer lock.
    Rw(usize),
    /// An idle run-queue dispatcher parked waiting for work.
    Runq,
    /// Parked on a channel (as receiver, sender, or select waiter).
    Chan(usize),
    /// Parked in the poller's fd table waiting for an edge on this fd.
    Io(usize),
    /// Asleep in the kernel on this modelled kernel word.
    Kernel(usize),
    /// Switched out by a timer preemption, waiting to outrank the
    /// runnable field again.
    Preempted,
}

/// What a micro-step asks the run loop to do with its thread next.
enum NextStep {
    /// Stay runnable, behind everything already queued.
    Yield,
    /// Block until a waker makes the thread runnable.
    Block,
    /// Block, but fire a wake after this many virtual microseconds unless
    /// a waker comes first.
    BlockTimed(u64),
    /// The thread is done.
    Exit,
}

/// Shared state of one model execution.
pub struct World {
    variant: Variant,
    mutexes: Vec<MutexSt>,
    cvs: Vec<CvSt>,
    semas: Vec<SemaSt>,
    rws: Vec<RwSt>,
    counters: Vec<u64>,
    flags: Vec<bool>,
    crit: Vec<Option<usize>>,
    runq: RunqSt,
    chans: Vec<ChanSt>,
    io: IoSt,
    kernel: KernelSt,
    threads: Vec<ThreadSt>,
    /// Base priority per thread (from the model, zero-padded).
    pris: Vec<i32>,
    /// Inherited (PI) priority per thread; 0 = no boost in effect.
    boost: Vec<i32>,
    /// Threads switched out by the preemption gate: `(thread,
    /// resume_micro)`. Woken by a PI boost targeting them or by any
    /// thread completing (both shrink the field they must outrank).
    preempt_parked: Vec<(usize, u32)>,
    /// The run's event log (shared tag vocabulary).
    pub events: Vec<Event>,
    /// First assertion/misuse failure, if any.
    pub failure: Option<String>,
    steps: u64,
}

impl World {
    fn new(model: &Model, variant: Variant) -> World {
        World {
            variant,
            mutexes: (0..model.mutexes)
                .map(|_| MutexSt {
                    word: 0,
                    owner: None,
                    waiters: VecDeque::new(),
                })
                .collect(),
            cvs: (0..model.cvs)
                .map(|_| CvSt {
                    waiters: VecDeque::new(),
                })
                .collect(),
            semas: model
                .sema_init
                .iter()
                .map(|c| SemaSt {
                    count: *c,
                    waiters: VecDeque::new(),
                })
                .collect(),
            rws: (0..model.rws)
                .map(|_| RwSt {
                    readers: Vec::new(),
                    writer: None,
                    waiters: VecDeque::new(),
                    slots: [0; RW_SLOTS],
                    wrwait: 0,
                    drained: false,
                    armed: false,
                    drainer: None,
                })
                .collect(),
            counters: vec![0; model.counters],
            flags: vec![false; model.flags],
            crit: vec![None; model.crits],
            runq: RunqSt {
                shards: vec![VecDeque::new(); model.runq_shards],
                inject: VecDeque::new(),
                waiters: VecDeque::new(),
                pushed: 0,
                dispatched: Vec::new(),
            },
            chans: model
                .chan_caps
                .iter()
                .map(|cap| ChanSt {
                    cap: *cap,
                    queue: VecDeque::new(),
                    next_id: 0,
                    received: Vec::new(),
                    recv_waiters: VecDeque::new(),
                    send_waiters: VecDeque::new(),
                    hooks: VecDeque::new(),
                })
                .collect(),
            io: IoSt {
                data: vec![0; model.io_fds],
                armed: vec![false; model.io_fds],
                edge: vec![false; model.io_fds],
                flag: vec![false; model.io_fds],
                waiters: VecDeque::new(),
            },
            kernel: KernelSt {
                set: vec![false; model.kernel_buckets.len()],
                bucket: model.kernel_buckets.clone(),
                parkers: vec![0; model.kernel_buckets.iter().max().map_or(0, |b| b + 1)],
                sleepers: VecDeque::new(),
            },
            threads: model
                .threads
                .iter()
                .map(|ops| ThreadSt {
                    ops: ops.clone(),
                    pc: 0,
                    micro: 0,
                    scratch: 0,
                    parked: false,
                    timed_out: false,
                    done: false,
                    preempted: false,
                })
                .collect(),
            pris: {
                let mut p = model.thread_pris.clone();
                p.resize(model.threads.len(), 0);
                p
            },
            boost: vec![0; model.threads.len()],
            preempt_parked: Vec::new(),
            events: Vec::new(),
            failure: None,
            steps: 0,
        }
    }

    /// True once every thread ran its program to completion.
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.done)
    }

    /// Threads that never completed, with what they were parked on.
    pub fn blocked(&self) -> Vec<(usize, BlockedOn)> {
        let mut out = Vec::new();
        for t in 0..self.threads.len() {
            if self.threads[t].done {
                continue;
            }
            let on = self
                .mutexes
                .iter()
                .position(|m| m.waiters.iter().any(|(w, _)| *w == t))
                .map(BlockedOn::Mutex)
                .or_else(|| {
                    self.cvs
                        .iter()
                        .position(|c| c.waiters.iter().any(|(w, _)| *w == t))
                        .map(BlockedOn::Cv)
                })
                .or_else(|| {
                    self.semas
                        .iter()
                        .position(|s| s.waiters.iter().any(|(w, _)| *w == t))
                        .map(BlockedOn::Sema)
                })
                .or_else(|| {
                    self.rws
                        .iter()
                        .position(|r| {
                            r.waiters.iter().any(|(w, _, _)| *w == t)
                                || r.drainer.is_some_and(|(w, _)| w == t)
                        })
                        .map(BlockedOn::Rw)
                })
                .or_else(|| {
                    self.runq
                        .waiters
                        .iter()
                        .any(|(w, _)| *w == t)
                        .then_some(BlockedOn::Runq)
                })
                .or_else(|| {
                    self.chans
                        .iter()
                        .position(|c| {
                            c.recv_waiters.iter().any(|(w, _)| *w == t)
                                || c.send_waiters.iter().any(|(w, _)| *w == t)
                                || c.hooks.iter().any(|(w, _)| *w == t)
                        })
                        .map(BlockedOn::Chan)
                })
                .or_else(|| {
                    self.io
                        .waiters
                        .iter()
                        .find(|(w, _, _)| *w == t)
                        .map(|(_, fd, _)| BlockedOn::Io(*fd))
                })
                .or_else(|| {
                    self.kernel
                        .sleepers
                        .iter()
                        .find(|(w, _, _)| *w == t)
                        .map(|(_, word, _)| BlockedOn::Kernel(*word))
                })
                .or_else(|| {
                    self.preempt_parked
                        .iter()
                        .any(|(w, _)| *w == t)
                        .then_some(BlockedOn::Preempted)
                });
            if let Some(on) = on {
                out.push((t, on));
            }
        }
        out
    }

    /// Final value of a shared counter.
    pub fn counter(&self, i: usize) -> u64 {
        self.counters[i]
    }

    fn fail(&mut self, t: usize, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(format!("thread {t}: {msg}"));
        }
    }

    fn push_event(&mut self, thread: usize, tag: Tag, a: u64, b: u64) {
        self.events.push(Event { thread, tag, a, b });
    }

    fn advance(&mut self, t: usize) {
        self.threads[t].pc += 1;
        self.threads[t].micro = 0;
    }

    /// Wakes `w` out of a park. The caller has already dequeued it; this
    /// redirects its resume point and records the kernel round trip. The
    /// run loop makes `w` runnable from the wake list.
    fn wake(&mut self, w: usize, resume: u32, wakes: &mut Vec<usize>) {
        self.threads[w].micro = resume;
        self.threads[w].parked = false;
        self.push_event(w, Tag::Wakeup, w as u64, 0);
        if self.variant == Variant::Shared {
            self.push_event(w, Tag::LwpUnpark, w as u64, 0);
        }
        wakes.push(w);
    }

    /// Marks `t` parked and returns the blocking step (timed when a
    /// deadline is given).
    fn park(&mut self, t: usize, timeout: Option<u64>) -> NextStep {
        self.threads[t].parked = true;
        if self.variant == Variant::Shared {
            self.push_event(t, Tag::LwpPark, t as u64, 0);
        }
        match timeout {
            Some(us) => NextStep::BlockTimed(us),
            None => NextStep::Block,
        }
    }

    /// Executes one micro-step of thread `t`: returns what the run loop
    /// does with `t` next, and appends the model threads to wake to
    /// `wakes`.
    fn step(&mut self, t: usize, wakes: &mut Vec<usize>) -> NextStep {
        if self.failure.is_some() {
            // Tear the run down once anything failed.
            self.threads[t].done = true;
            return NextStep::Exit;
        }
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            self.fail(t, "step budget exceeded (livelock?)".into());
            self.threads[t].done = true;
            return NextStep::Exit;
        }
        // The safepoint gate: a preempted thread re-checks the runnable
        // field before anything else (the real library's preempt-flag
        // check at a safepoint). While outranked it parks on the preempt
        // queue — off the processor at whatever micro-step the tick caught
        // it, critical sections included.
        if self.threads[t].preempted {
            let outranked = (0..self.threads.len()).any(|u| {
                u != t
                    && !self.threads[u].done
                    && !self.threads[u].parked
                    && self.eff(u) > self.eff(t)
            });
            if outranked {
                let resume = self.threads[t].micro;
                self.preempt_parked.push((t, resume));
                self.push_event(t, Tag::Preempt, t as u64, self.eff(t) as u64);
                let step = self.park(t, None);
                self.check_unbounded_inversion();
                return step;
            }
            self.threads[t].preempted = false;
        }
        let pc = self.threads[t].pc;
        let Some(op) = self.threads[t].ops.get(pc).cloned() else {
            self.threads[t].done = true;
            // A completion shrinks the field every preempted thread must
            // outrank: re-evaluate them all (each re-parks if still
            // outranked, so this terminates — completions are finite).
            let pp = std::mem::take(&mut self.preempt_parked);
            for (w, resume) in pp {
                self.wake(w, resume, wakes);
            }
            return NextStep::Exit;
        };
        self.exec(t, &op, wakes)
    }

    // -----------------------------------------------------------------
    // The micro-step machines.

    fn exec(&mut self, t: usize, op: &SyncOp, wakes: &mut Vec<usize>) -> NextStep {
        match *op {
            SyncOp::Work(n) => {
                self.threads[t].micro += 1;
                if self.threads[t].micro >= n {
                    self.advance(t);
                }
                NextStep::Yield
            }
            SyncOp::MutexEnter(m) => self.mutex_enter_machine(t, m, 0, None),
            SyncOp::MutexExit(m) => self.mutex_exit_machine(t, m, wakes),
            SyncOp::TryenterElseSkip { mutex, skip } => {
                // One atomic try: claim or skip, never park.
                if self.variant == Variant::Debug && self.mutexes[mutex].owner == Some(t) {
                    self.fail(
                        t,
                        format!("DEBUG: recursive mutex_tryenter of mutex {mutex}"),
                    );
                    return NextStep::Yield;
                }
                if self.mutexes[mutex].word == 0 {
                    self.mutexes[mutex].word = 1;
                    self.mutexes[mutex].owner = Some(t);
                    self.push_event(t, Tag::MutexAcquire, mutex as u64, t as u64);
                    self.advance(t);
                } else {
                    self.threads[t].pc += 1 + skip;
                    self.threads[t].micro = 0;
                }
                NextStep::Yield
            }
            SyncOp::CvWaitOnce { cv, mutex } => {
                let step = self.cv_wait_machine(t, cv, mutex, None, 0, wakes);
                if self.threads[t].micro == 5 {
                    self.advance(t);
                }
                step
            }
            SyncOp::WaitUntilFlag { flag, cv, mutex } => {
                self.flag_wait_machine(t, flag, cv, mutex, None, wakes)
            }
            SyncOp::TimedWaitUntilFlag {
                flag,
                cv,
                mutex,
                timeout,
            } => self.flag_wait_machine(t, flag, cv, mutex, Some(timeout), wakes),
            SyncOp::CvSignal(cv) => {
                if let Some((w, resume)) = self.cvs[cv].waiters.pop_front() {
                    self.push_event(t, Tag::CvSignal, cv as u64, 1);
                    self.wake(w, resume, wakes);
                } else {
                    // A signal that found no waiter: legal on its own, but
                    // the lost-wakeup analysis pairs it with a
                    // forever-blocked waiter to diagnose check-then-wait
                    // races.
                    self.push_event(t, Tag::CvSignal, cv as u64, 0);
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::CvBroadcast(cv) => {
                let n = self.cvs[cv].waiters.len() as u64;
                while let Some((w, resume)) = self.cvs[cv].waiters.pop_front() {
                    self.wake(w, resume, wakes);
                }
                self.push_event(t, Tag::CvBroadcast, cv as u64, n);
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::SemaP(s) => {
                if self.semas[s].count > 0 {
                    self.semas[s].count -= 1;
                    self.advance(t);
                    NextStep::Yield
                } else {
                    // Park; `sema_v` wakes us back to micro 0 and we retry
                    // (another `p()` may have taken the count first).
                    self.push_event(t, Tag::SemaBlock, s as u64, 0);
                    self.semas[s].waiters.push_back((t, 0));
                    self.park(t, None)
                }
            }
            SyncOp::SemaV(s) => {
                if self.threads[t].micro == 0 {
                    self.semas[s].count += 1;
                    self.push_event(t, Tag::SemaPost, s as u64, u64::from(self.semas[s].count));
                    if self.semas[s].waiters.is_empty() {
                        self.advance(t);
                    } else {
                        self.threads[t].micro = 1;
                    }
                } else {
                    if let Some((w, resume)) = self.semas[s].waiters.pop_front() {
                        self.wake(w, resume, wakes);
                    }
                    self.advance(t);
                }
                NextStep::Yield
            }
            SyncOp::RwEnter { rw, write } => self.rw_enter_machine(t, rw, write, 0),
            SyncOp::RwExit(rw) => {
                if self.threads[t].micro == 0 {
                    if self.rws[rw].writer == Some(t) {
                        self.rws[rw].writer = None;
                        self.push_event(t, Tag::RwRelease, rw as u64, 1);
                    } else if let Some(i) = self.rws[rw].readers.iter().position(|r| *r == t) {
                        self.rws[rw].readers.swap_remove(i);
                        self.push_event(t, Tag::RwRelease, rw as u64, 0);
                    } else {
                        if self.variant == Variant::Debug {
                            self.fail(t, format!("DEBUG: rw_exit of rwlock {rw} without a hold"));
                        }
                        self.advance(t);
                        return NextStep::Yield;
                    }
                    if self.rws[rw].waiters.is_empty() {
                        self.advance(t);
                    } else {
                        self.threads[t].micro = 1;
                    }
                } else {
                    // Wake every waiter; each re-runs its entry check
                    // (retry semantics — writer preference is enforced at
                    // acquire time, not by direct handoff).
                    let woken: Vec<(usize, u32)> = self.rws[rw]
                        .waiters
                        .drain(..)
                        .map(|(w, _, resume)| (w, resume))
                        .collect();
                    for (w, resume) in woken {
                        self.wake(w, resume, wakes);
                    }
                    self.advance(t);
                }
                NextStep::Yield
            }
            SyncOp::RwDowngrade(rw) => {
                if self.rws[rw].writer != Some(t) {
                    self.fail(t, format!("rw_downgrade of rwlock {rw} without write hold"));
                    return NextStep::Yield;
                }
                self.rws[rw].writer = None;
                self.rws[rw].readers.push(t);
                self.push_event(t, Tag::RwRelease, rw as u64, 1);
                self.push_event(t, Tag::RwAcquire, rw as u64, 2);
                // Waiting readers may now enter (unless a queued writer
                // wins the re-run of the entry check).
                let woken: Vec<(usize, u32)> = self.rws[rw]
                    .waiters
                    .drain(..)
                    .map(|(w, _, resume)| (w, resume))
                    .collect();
                for (w, resume) in woken {
                    self.wake(w, resume, wakes);
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::RwTryupgradeOrWrite(rw) => {
                if self.threads[t].micro == 0 {
                    // The atomic upgrade attempt: sole reader, no writer.
                    if self.rws[rw].readers == [t] && self.rws[rw].writer.is_none() {
                        self.rws[rw].readers.clear();
                        self.rws[rw].writer = Some(t);
                        self.push_event(t, Tag::RwAcquire, rw as u64, 3);
                        self.advance(t);
                    } else if !self.rws[rw].readers.contains(&t) {
                        self.fail(t, format!("rw_tryupgrade of rwlock {rw} without read hold"));
                    } else {
                        // Lost the race: drop the read hold, queue as a
                        // plain writer.
                        self.threads[t].micro = 1;
                    }
                    NextStep::Yield
                } else if self.threads[t].micro == 1 {
                    let i = self.rws[rw]
                        .readers
                        .iter()
                        .position(|r| *r == t)
                        .expect("read hold checked at micro 0");
                    self.rws[rw].readers.swap_remove(i);
                    self.push_event(t, Tag::RwRelease, rw as u64, 0);
                    self.threads[t].micro = 2;
                    NextStep::Yield
                } else {
                    self.rw_enter_machine(t, rw, true, 2)
                }
            }
            SyncOp::RwSlotRead { rw, slot } => self.rw_slot_read_machine(t, rw, slot, false, wakes),
            SyncOp::RwSlotReadRacy { rw, slot } => {
                self.rw_slot_read_machine(t, rw, slot, true, wakes)
            }
            SyncOp::RwSlotWrite(rw) => self.rw_slot_write_machine(t, rw),
            SyncOp::RwSlotExit { rw, slot } => self.rw_slot_exit_machine(t, rw, slot, wakes),
            SyncOp::Incr(c) => {
                if self.threads[t].micro == 0 {
                    self.threads[t].scratch = self.counters[c];
                    self.threads[t].micro = 1;
                } else {
                    self.counters[c] = self.threads[t].scratch + 1;
                    self.advance(t);
                }
                NextStep::Yield
            }
            SyncOp::ReadStable(c) => {
                if self.threads[t].micro == 0 {
                    self.threads[t].scratch = self.counters[c];
                    self.threads[t].micro = 1;
                } else {
                    let seen = self.threads[t].scratch;
                    let now = self.counters[c];
                    if now != seen {
                        self.fail(
                            t,
                            format!("torn read: counter {c} moved {seen} -> {now} under rw hold"),
                        );
                    }
                    self.advance(t);
                }
                NextStep::Yield
            }
            SyncOp::SetFlag(f) => {
                self.flags[f] = true;
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::SkipIfFlag { flag, skip } => {
                if self.flags[flag] {
                    self.threads[t].pc += 1 + skip;
                } else {
                    self.threads[t].pc += 1;
                }
                self.threads[t].micro = 0;
                NextStep::Yield
            }
            SyncOp::AssertFlag(f) => {
                if !self.flags[f] {
                    self.fail(t, format!("assertion failed: flag {f} not set"));
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::AssertTimedOut(expect) => {
                let got = self.threads[t].timed_out;
                if got != expect {
                    self.fail(
                        t,
                        format!("assertion failed: timed_out={got}, expected {expect}"),
                    );
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::CritEnter(c) => {
                if let Some(other) = self.crit[c] {
                    self.fail(
                        t,
                        format!(
                            "mutual exclusion violated: section {c} already held by thread {other}"
                        ),
                    );
                } else {
                    self.crit[c] = Some(t);
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::CritExit(c) => {
                if self.crit[c] == Some(t) {
                    self.crit[c] = None;
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::MutexEnterAdaptive(m) => self.mutex_enter_adaptive_machine(t, m, false, wakes),
            SyncOp::MutexEnterAdaptivePi(m) => self.mutex_enter_adaptive_machine(t, m, true, wakes),
            SyncOp::MutexEnterAdaptiveNoPi(m) => {
                self.mutex_enter_adaptive_machine(t, m, false, wakes)
            }
            SyncOp::MutexExitPi(m) => {
                // Strip-and-release is one atomic step (micro 0 of the
                // exit machine), mirroring the real release path.
                if self.threads[t].micro == 0 && self.boost[t] > 0 {
                    let stripped = self.boost[t];
                    self.boost[t] = 0;
                    self.push_event(t, Tag::PiStrip, m as u64, stripped as u64);
                }
                self.mutex_exit_machine(t, m, wakes)
            }
            SyncOp::TickPreempt(v) => {
                // One step: raise `v`'s preempt flag (the ticker LWP's
                // cross-LWP store). A parked or finished thread is not on
                // a processor, so there is nothing to preempt.
                if !self.threads[v].done && !self.threads[v].parked {
                    self.threads[v].preempted = true;
                    self.push_event(t, Tag::PrioDecay, v as u64, self.eff(v) as u64);
                }
                self.advance(t);
                NextStep::Yield
            }
            SyncOp::RunqPush { shard } => self.runq_push_machine(t, Some(shard), wakes),
            SyncOp::RunqInjectPush => self.runq_push_machine(t, None, wakes),
            SyncOp::RunqPop { shard } => self.runq_pop_machine(t, shard),
            SyncOp::RunqStealRacy { victim } => self.runq_racy_steal_machine(t, victim),
            SyncOp::ChanSend { chan } => self.chan_send_machine(t, chan, wakes),
            SyncOp::ChanRecv { chan } => self.chan_recv_machine(t, chan, true, wakes),
            SyncOp::ChanRecvNoRecheck { chan } => self.chan_recv_machine(t, chan, false, wakes),
            SyncOp::ChanRecvRacyPeek { chan } => self.chan_racy_peek_machine(t, chan),
            SyncOp::ChanSelect { a, b } => self.chan_select_machine(t, a, b, false, wakes),
            SyncOp::ChanSelectRacy { a, b } => self.chan_select_machine(t, a, b, true, wakes),
            SyncOp::IoWait { fd } => self.io_wait_machine(t, fd),
            SyncOp::IoEvent { fd } => self.io_event_machine(t, fd, true, wakes),
            SyncOp::IoEventNoFlag { fd } => self.io_event_machine(t, fd, false, wakes),
            SyncOp::KernelPark { word } => self.kernel_park_machine(t, word, false),
            SyncOp::KernelParkRacy { word } => self.kernel_park_machine(t, word, true),
            SyncOp::KernelWake { word } => self.kernel_wake_machine(t, word, wakes),
        }
    }

    /// `KernelPark` and the seeded `KernelParkRacy`. Micro-states: `0`
    /// check the word (set: done), `1` announce in the bucket, `2` the
    /// futex wait — the correct machine sleeps only if the word is still
    /// clear, the racy one sleeps on the verdict of step `0` — and `3`
    /// withdraw, back to `0`. A sleeper resumes at `3`.
    fn kernel_park_machine(&mut self, t: usize, word: usize, racy: bool) -> NextStep {
        let b = self.kernel.bucket[word];
        match self.threads[t].micro {
            0 if self.kernel.set[word] => self.advance(t),
            0 => self.threads[t].micro = 1,
            1 => {
                self.kernel.parkers[b] += 1;
                self.threads[t].micro = 2;
            }
            2 if racy || !self.kernel.set[word] => {
                self.push_event(t, Tag::Sleep, t as u64, word as u64);
                self.kernel.sleepers.push_back((t, word, 3));
                return self.park(t, None);
            }
            2 => self.threads[t].micro = 3,
            _ => {
                self.kernel.parkers[b] -= 1;
                self.threads[t].micro = 0;
            }
        }
        NextStep::Yield
    }

    /// `KernelWake`. Micro-states: `0` set the word, `1` read the bucket's
    /// parker count (zero: the wake is skipped and the op is done), `2`
    /// the `futex_wake`, which wakes every sleeper on the word.
    fn kernel_wake_machine(&mut self, t: usize, word: usize, wakes: &mut Vec<usize>) -> NextStep {
        match self.threads[t].micro {
            0 => {
                self.kernel.set[word] = true;
                self.threads[t].micro = 1;
            }
            1 if self.kernel.parkers[self.kernel.bucket[word]] == 0 => self.advance(t),
            1 => self.threads[t].micro = 2,
            _ => {
                self.push_event(t, Tag::FutexWake, word as u64, u64::from(u32::MAX));
                let (woken, rest): (VecDeque<_>, VecDeque<_>) = self
                    .kernel
                    .sleepers
                    .drain(..)
                    .partition(|(_, w, _)| *w == word);
                self.kernel.sleepers = rest;
                for (w, _, resume) in woken {
                    self.wake(w, resume, wakes);
                }
                self.advance(t);
            }
        }
        NextStep::Yield
    }

    /// The `mutex_enter` machine. Micro-states (relative to `base`):
    /// `base+0` read the word, `base+1` CAS it, `base+2` park-or-retry.
    /// On acquisition the thread advances to its next op, or jumps to
    /// micro `done` when embedded inside a larger machine (cv re-acquire,
    /// rw upgrade fallback). A parked waiter resumes at `base+0` and
    /// re-runs the full read/CAS — the retry loop that tolerates barging.
    fn mutex_enter_machine(
        &mut self,
        t: usize,
        m: usize,
        base: u32,
        done: Option<u32>,
    ) -> NextStep {
        match self.threads[t].micro - base {
            0 => {
                if self.variant == Variant::Debug && self.mutexes[m].owner == Some(t) {
                    self.fail(t, format!("DEBUG: recursive mutex_enter of mutex {m}"));
                    return NextStep::Yield;
                }
                // Read the word; deciding on a stale value is the race
                // window the explorer probes.
                let free = self.mutexes[m].word == 0;
                self.threads[t].micro = base + if free { 1 } else { 2 };
                NextStep::Yield
            }
            1 => {
                // The CAS: claim only if still free.
                if self.mutexes[m].word == 0 {
                    self.mutexes[m].word = 1;
                    self.mutexes[m].owner = Some(t);
                    self.push_event(t, Tag::MutexAcquire, m as u64, t as u64);
                    match done {
                        None => self.advance(t),
                        Some(d) => self.threads[t].micro = d,
                    }
                } else {
                    self.threads[t].micro = base + 2;
                }
                NextStep::Yield
            }
            _ => {
                if self.mutexes[m].word == 0 {
                    // Released since we decided to park: retry the CAS.
                    self.threads[t].micro = base;
                    NextStep::Yield
                } else {
                    // Atomic check-then-park (futex `wait(word, expected)`):
                    // mark contended, enqueue, sleep.
                    self.mutexes[m].word = 2;
                    self.push_event(t, Tag::MutexBlock, m as u64, 0);
                    self.mutexes[m].waiters.push_back((t, base));
                    self.park(t, None)
                }
            }
        }
    }

    /// The `mutex_exit` machine: release the word (making the lock
    /// claimable) in one step, wake one waiter in the next — the real
    /// store-then-futex-wake sequence, whose window lets a third thread
    /// barge in (which the woken waiter's retry loop must tolerate).
    fn mutex_exit_machine(&mut self, t: usize, m: usize, wakes: &mut Vec<usize>) -> NextStep {
        if self.threads[t].micro == 0 {
            if self.variant == Variant::Debug && self.mutexes[m].owner != Some(t) {
                self.fail(t, format!("DEBUG: mutex_exit of mutex {m} by non-owner"));
                return NextStep::Yield;
            }
            if self.mutexes[m].owner == Some(t) {
                self.mutexes[m].owner = None;
            }
            self.mutexes[m].word = 0;
            self.push_event(t, Tag::MutexRelease, m as u64, t as u64);
            if self.mutexes[m].waiters.is_empty() {
                self.advance(t);
            } else {
                self.threads[t].micro = 1;
            }
        } else {
            if let Some((w, resume)) = self.mutexes[m].waiters.pop_front() {
                self.wake(w, resume, wakes);
            }
            self.advance(t);
        }
        NextStep::Yield
    }

    /// The `cv_wait` machine (one full wait, no predicate loop).
    ///
    /// Micro-states relative to `base`: `+0` atomically enqueue on the cv
    /// and release the mutex (waking one mutex waiter — the release must
    /// not strand them); `+1` park, timed or not; `+2..+4` re-acquire the
    /// mutex; `+5` done (the caller's machine takes over).
    ///
    /// A signaller dequeues the thread and redirects it to `base+2`, so a
    /// signal landing between enqueue and park is consumed, not lost —
    /// the `cv_wait` atomicity guarantee. A timer wake finds the thread
    /// still queued (`parked` set, micro still `base+1`): it dequeues
    /// itself and reports the timeout. A thread leaves the cv's queue only
    /// through a signal or its own deadline, so a parked thread whose timer
    /// fires is always still on it.
    fn cv_wait_machine(
        &mut self,
        t: usize,
        cv: usize,
        m: usize,
        timeout: Option<u64>,
        base: u32,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        match self.threads[t].micro - base {
            0 => {
                if self.variant == Variant::Debug && self.mutexes[m].owner != Some(t) {
                    self.fail(t, format!("DEBUG: cv_wait without holding mutex {m}"));
                    return NextStep::Yield;
                }
                self.threads[t].timed_out = false;
                // Queue on the cv and release the mutex in one atomic
                // step: queue-before-release is what makes the wakeup
                // un-losable for signallers that hold the mutex.
                self.cvs[cv].waiters.push_back((t, base + 2));
                self.push_event(t, Tag::CvBlock, cv as u64, 0);
                self.mutexes[m].owner = None;
                self.mutexes[m].word = 0;
                self.push_event(t, Tag::MutexRelease, m as u64, t as u64);
                if let Some((w, resume)) = self.mutexes[m].waiters.pop_front() {
                    self.wake(w, resume, wakes);
                }
                self.threads[t].micro = base + 1;
                NextStep::Yield
            }
            1 => {
                if self.threads[t].parked {
                    // The deadline fired while we were still on the cv: no
                    // wakeup ever picked us — a true timeout. Dequeue and
                    // report it.
                    self.threads[t].parked = false;
                    self.cvs[cv].waiters.retain(|(w, _)| *w != t);
                    self.threads[t].timed_out = true;
                    self.push_event(t, Tag::SleepTimeout, cv as u64, t as u64);
                    self.threads[t].micro = base + 2;
                    NextStep::Yield
                } else {
                    // Still queued (a signal would have redirected us past
                    // this state): park for real.
                    self.park(t, timeout)
                }
            }
            _ => self.mutex_enter_machine(t, m, base + 2, Some(base + 5)),
        }
    }

    /// `while !flag { cv_wait / cv_timedwait }` with the predicate checked
    /// under the mutex; a timed wait that expires gives up the loop.
    ///
    /// Micro-states: `0` predicate check; `1..=5` the wait machine
    /// (base 1); `6` post-wait re-check.
    fn flag_wait_machine(
        &mut self,
        t: usize,
        flag: usize,
        cv: usize,
        m: usize,
        timeout: Option<u64>,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        if self.threads[t].micro == 0 {
            if self.variant == Variant::Debug && self.mutexes[m].owner != Some(t) {
                self.fail(t, format!("DEBUG: cv predicate check without mutex {m}"));
                return NextStep::Yield;
            }
            if self.flags[flag] {
                self.advance(t);
            } else {
                self.threads[t].micro = 1;
            }
            return NextStep::Yield;
        }
        let step = self.cv_wait_machine(t, cv, m, timeout, 1, wakes);
        if self.threads[t].micro == 6 {
            // Re-acquired after a wake: re-check the predicate under the
            // mutex, or give up if the deadline fired.
            if self.flags[flag] || self.threads[t].timed_out {
                self.advance(t);
            } else {
                self.threads[t].micro = 1;
            }
        }
        step
    }

    /// The `rw_enter` machine: read the lock state, commit on a re-check,
    /// park-or-retry on contention (same shape as `mutex_enter`).
    fn rw_enter_machine(&mut self, t: usize, rw: usize, write: bool, base: u32) -> NextStep {
        match self.threads[t].micro - base {
            0 => {
                let can = self.rws[rw].can_enter(write);
                self.threads[t].micro = base + if can { 1 } else { 2 };
                NextStep::Yield
            }
            1 => {
                if self.rws[rw].can_enter(write) {
                    if write {
                        self.rws[rw].writer = Some(t);
                    } else {
                        self.rws[rw].readers.push(t);
                    }
                    self.push_event(t, Tag::RwAcquire, rw as u64, u64::from(write));
                    self.advance(t);
                } else {
                    self.threads[t].micro = base + 2;
                }
                NextStep::Yield
            }
            _ => {
                if self.rws[rw].can_enter(write) {
                    self.threads[t].micro = base;
                    NextStep::Yield
                } else {
                    self.push_event(t, Tag::RwBlock, rw as u64, u64::from(write));
                    self.rws[rw].waiters.push_back((t, write, base));
                    self.park(t, None)
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The reader-slot machines: the protocol `rwlock.rs` runs for private
    // locks, one shared access per micro-step, so the publish/check pair
    // and the drain's sum can interleave at every point the hardware
    // allows. The slots exist from the start; the one-time switch to them
    // happens under the writer bit and is not modelled.

    /// Whether a slot reader may enter: no writer bit, no announced writer.
    fn rw_slot_may_read(&self, rw: usize) -> bool {
        self.rws[rw].writer.is_none() && self.rws[rw].wrwait == 0
    }

    fn rw_slot_acquired(&mut self, t: usize, rw: usize, write: bool) {
        self.push_event(t, Tag::RwAcquire, rw as u64, u64::from(write));
        self.advance(t);
    }

    /// One micro-step of the gated drain wake a reader runs after backing
    /// off or leaving, at `micro - base`: `0` load the state and the drain
    /// word (go on only if a drainer is armed and not done), `1..=RW_SLOTS`
    /// sum the slots, then disarm and wake if the sum was 0 and the drain
    /// word was still armed. Returns whether the gate is done.
    fn rw_slot_gate(&mut self, t: usize, rw: usize, base: u32, wakes: &mut Vec<usize>) -> bool {
        let step = (self.threads[t].micro - base) as usize;
        let r = &self.rws[rw];
        if step == 0 {
            if r.writer.is_none() || r.drained || !r.armed {
                return true;
            }
            self.threads[t].scratch = 0;
        } else if step <= RW_SLOTS {
            let sum = self.threads[t].scratch as i64 + r.slots[step - 1];
            self.threads[t].scratch = sum as u64;
        } else {
            if self.threads[t].scratch == 0 && self.rws[rw].armed {
                self.rws[rw].armed = false;
                if let Some((w, resume)) = self.rws[rw].drainer.take() {
                    self.wake(w, resume, wakes);
                }
            }
            return true;
        }
        self.threads[t].micro += 1;
        false
    }

    /// `RwSlotRead` and the seeded `RwSlotReadRacy`. Micro-states of the
    /// correct machine: `0` check, `1` publish, `2` check again (in, or:)
    /// `3` back off, `4..` the gate, then an atomic check-then-park on the
    /// writer's release, resuming at `0`. The racy machine checks at `0`,
    /// publishes at `1`, and is in.
    fn rw_slot_read_machine(
        &mut self,
        t: usize,
        rw: usize,
        slot: usize,
        racy: bool,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        const GATE: u32 = 4;
        const WAIT: u32 = GATE + RW_SLOTS as u32 + 2;
        match self.threads[t].micro {
            0 => self.threads[t].micro = if self.rw_slot_may_read(rw) { 1 } else { WAIT },
            1 => {
                self.rws[rw].slots[slot] += 1;
                if racy {
                    self.rw_slot_acquired(t, rw, false);
                } else {
                    self.threads[t].micro = 2;
                }
            }
            2 if self.rw_slot_may_read(rw) => self.rw_slot_acquired(t, rw, false),
            2 => self.threads[t].micro = 3,
            3 => {
                self.rws[rw].slots[slot] -= 1;
                self.threads[t].micro = GATE;
            }
            m if m < WAIT => {
                if self.rw_slot_gate(t, rw, GATE, wakes) {
                    self.threads[t].micro = WAIT;
                }
            }
            _ if self.rw_slot_may_read(rw) => self.threads[t].micro = 0,
            _ => {
                self.push_event(t, Tag::RwBlock, rw as u64, 0);
                self.rws[rw].waiters.push_back((t, false, 0));
                return self.park(t, None);
            }
        }
        NextStep::Yield
    }

    /// `RwSlotWrite`. Micro-states: `0` announce, `1` claim the writer bit,
    /// `2` atomic check-then-park on the holder's release (resuming at
    /// `1`), then the drain: sum the slots one per step, arm the drain
    /// word, sum again, park while still armed (resuming at the first
    /// sum), and finally disarm and mark the hold drained.
    fn rw_slot_write_machine(&mut self, t: usize, rw: usize) -> NextStep {
        const N: u32 = RW_SLOTS as u32;
        const SUM: u32 = 3;
        const ARM: u32 = SUM + N;
        const RESUM: u32 = ARM + 1;
        const PARK: u32 = RESUM + N;
        let m = self.threads[t].micro;
        match m {
            0 => {
                self.rws[rw].wrwait += 1;
                self.threads[t].micro = 1;
            }
            1 if self.rws[rw].writer.is_none() => {
                self.rws[rw].writer = Some(t);
                self.rws[rw].wrwait -= 1;
                self.threads[t].micro = SUM;
            }
            1 => self.threads[t].micro = 2,
            2 if self.rws[rw].writer.is_none() => self.threads[t].micro = 1,
            2 => {
                self.push_event(t, Tag::RwBlock, rw as u64, 1);
                self.rws[rw].waiters.push_back((t, true, 1));
                return self.park(t, None);
            }
            ARM => {
                self.rws[rw].armed = true;
                self.threads[t].micro = RESUM;
            }
            PARK if self.rws[rw].armed => {
                self.push_event(t, Tag::RwBlock, rw as u64, 1);
                self.rws[rw].drainer = Some((t, SUM));
                return self.park(t, None);
            }
            PARK => self.threads[t].micro = SUM,
            _ if m < PARK => {
                let i = (if m < ARM { m - SUM } else { m - RESUM }) as usize;
                let before = if i == 0 {
                    0
                } else {
                    self.threads[t].scratch as i64
                };
                let sum = before + self.rws[rw].slots[i];
                self.threads[t].scratch = sum as u64;
                self.threads[t].micro = if i + 1 < RW_SLOTS {
                    m + 1
                } else if sum == 0 {
                    PARK + 1
                } else if m < ARM {
                    ARM
                } else {
                    PARK
                };
            }
            _ => {
                self.rws[rw].armed = false;
                self.rws[rw].drained = true;
                self.rw_slot_acquired(t, rw, true);
            }
        }
        NextStep::Yield
    }

    /// `RwSlotExit`. Micro-states: `0` load the state; the drained mark
    /// sends the writer to `1` (release) and `2` (wake one announced writer,
    /// else every parked reader), a reader to `3` (leave the slot) and the
    /// gate from `4`.
    fn rw_slot_exit_machine(
        &mut self,
        t: usize,
        rw: usize,
        slot: usize,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        const GATE: u32 = 4;
        match self.threads[t].micro {
            0 => self.threads[t].micro = if self.rws[rw].drained { 1 } else { 3 },
            1 => {
                self.rws[rw].writer = None;
                self.rws[rw].drained = false;
                self.push_event(t, Tag::RwRelease, rw as u64, 1);
                self.threads[t].micro = 2;
            }
            2 => {
                let r = &mut self.rws[rw];
                let woken: Vec<(usize, bool, u32)> = if r.wrwait > 0 {
                    let first = r.waiters.iter().position(|(_, w, _)| *w);
                    first
                        .and_then(|i| r.waiters.remove(i))
                        .into_iter()
                        .collect()
                } else {
                    let (rd, wr): (VecDeque<_>, VecDeque<_>) =
                        r.waiters.drain(..).partition(|(_, w, _)| !*w);
                    r.waiters = wr;
                    rd.into()
                };
                for (w, _, resume) in woken {
                    self.wake(w, resume, wakes);
                }
                self.advance(t);
            }
            3 => {
                self.rws[rw].slots[slot] -= 1;
                self.push_event(t, Tag::RwRelease, rw as u64, 0);
                self.threads[t].micro = GATE;
            }
            _ => {
                if self.rw_slot_gate(t, rw, GATE, wakes) {
                    self.advance(t);
                }
            }
        }
        NextStep::Yield
    }

    /// The adaptive `mutex_enter` machine. Micro-states: `0` read the
    /// word and pick a path, `1` CAS, `2` spin (bounded, only while the
    /// owner is running), `3` atomic check-then-park.
    ///
    /// "Owner running" in the model means the owning thread is neither
    /// parked nor done — the discrete analogue of the library's owner-LWP
    /// hint. A spinner re-checks it every iteration, so an owner that
    /// blocks mid-hold flips the spinner onto the park path; the hard
    /// [`ADAPTIVE_MODEL_SPINS`] cap bounds the schedule tree the same way
    /// the library's spin cap bounds wasted cycles. A parked waiter
    /// resumes at micro 0 and re-runs the whole decision.
    fn mutex_enter_adaptive_machine(
        &mut self,
        t: usize,
        m: usize,
        boost: bool,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        match self.threads[t].micro {
            0 => {
                if self.variant == Variant::Debug && self.mutexes[m].owner == Some(t) {
                    self.fail(t, format!("DEBUG: recursive mutex_enter of mutex {m}"));
                    return NextStep::Yield;
                }
                if self.mutexes[m].word == 0 {
                    self.threads[t].micro = 1;
                } else if self.owner_running(m) {
                    self.threads[t].scratch = 0;
                    self.threads[t].micro = 2;
                } else {
                    self.threads[t].micro = 3;
                }
                NextStep::Yield
            }
            1 => {
                if self.mutexes[m].word == 0 {
                    self.mutexes[m].word = 1;
                    self.mutexes[m].owner = Some(t);
                    self.push_event(t, Tag::MutexAcquire, m as u64, t as u64);
                    self.advance(t);
                } else {
                    // Lost the CAS: re-read and decide spin-vs-park again.
                    self.threads[t].micro = 0;
                }
                NextStep::Yield
            }
            2 => {
                let spins = self.threads[t].scratch;
                self.push_event(t, Tag::MutexSpin, m as u64, spins);
                if self.mutexes[m].word == 0 {
                    self.threads[t].micro = 1;
                } else if spins + 1 >= ADAPTIVE_MODEL_SPINS || !self.owner_running(m) {
                    self.threads[t].micro = 3;
                } else {
                    self.threads[t].scratch = spins + 1;
                }
                NextStep::Yield
            }
            _ => {
                if self.mutexes[m].word == 0 {
                    self.threads[t].micro = 0;
                    NextStep::Yield
                } else {
                    if boost {
                        // Priority inheritance, atomically with the park
                        // commit (the real boost lands before the futex
                        // wait): raise the recorded owner to our priority
                        // and pull it back onto a processor if the
                        // preemption gate had switched it out.
                        if let Some(o) = self.mutexes[m].owner {
                            if self.pris[t] > self.eff(o) {
                                self.boost[o] = self.pris[t];
                                self.push_event(t, Tag::PiBoost, m as u64, self.pris[t] as u64);
                                if let Some(pos) =
                                    self.preempt_parked.iter().position(|(w, _)| *w == o)
                                {
                                    let (w, resume) = self.preempt_parked.remove(pos);
                                    self.wake(w, resume, wakes);
                                }
                            }
                        }
                    }
                    self.mutexes[m].word = 2;
                    self.push_event(t, Tag::MutexBlock, m as u64, 0);
                    self.mutexes[m].waiters.push_back((t, 0));
                    let step = self.park(t, None);
                    self.check_unbounded_inversion();
                    step
                }
            }
        }
    }

    /// The effective priority of thread `t`: its base, or the PI boost
    /// pushed onto it, whichever is higher.
    fn eff(&self, t: usize) -> i32 {
        self.pris[t].max(self.boost[t])
    }

    /// The unbounded-priority-inversion oracle, checked whenever a park
    /// commits (a waiter's or the preemption gate's — the two orderings in
    /// which the signature can complete). Convicts the *state*, not a
    /// timeout: a high-priority waiter parked on a mutex whose preempted,
    /// unboosted owner is outranked by a runnable middle-priority thread.
    /// With inheritance the boost and the park are one atomic step, so the
    /// owner is never simultaneously preempted-and-outranked by a middle
    /// hog while a boosted-priority waiter sleeps — the signature cannot
    /// form.
    fn check_unbounded_inversion(&mut self) {
        for m in 0..self.mutexes.len() {
            let Some(o) = self.mutexes[m].owner else {
                continue;
            };
            if !self.preempt_parked.iter().any(|(w, _)| *w == o) {
                continue;
            }
            let eo = self.eff(o);
            let Some(&(w, _)) = self.mutexes[m]
                .waiters
                .iter()
                .max_by_key(|(w, _)| self.pris[*w])
            else {
                continue;
            };
            let pw = self.pris[w];
            if pw <= eo {
                continue;
            }
            let hog = (0..self.threads.len()).find(|&u| {
                u != o
                    && u != w
                    && !self.threads[u].done
                    && !self.threads[u].parked
                    && self.eff(u) > eo
                    && self.eff(u) < pw
            });
            if let Some(u) = hog {
                let eu = self.eff(u);
                self.fail(
                    w,
                    format!(
                        "unbounded priority inversion: waiter (pri {pw}) parked on mutex {m} \
                         whose preempted owner (thread {o}, effective pri {eo}) is starved \
                         by runnable thread {u} (effective pri {eu}) — owner priority not \
                         boosted"
                    ),
                );
                return;
            }
        }
    }

    /// Whether mutex `m`'s owner would publish a "running" hint: it
    /// exists and is neither parked nor done.
    fn owner_running(&self, m: usize) -> bool {
        self.mutexes[m]
            .owner
            .is_some_and(|o| !self.threads[o].parked && !self.threads[o].done)
    }

    // -----------------------------------------------------------------
    // The sharded run-queue machines. The modelled protocol matches the
    // library: pushers publish first and wake an idle dispatcher second;
    // dispatchers probe own shard / injection / steal victims in separate
    // steps, and the final park atomically re-checks everything (the
    // idle-list-then-recheck dance the real dispatcher does before its
    // futex wait). Each *take* from a queue is one atomic micro-step —
    // that is the per-shard lock.

    /// Take an id out of the dispatched set's future: fails the run when
    /// the same item is dispatched twice (the handoff integrity oracle).
    fn runq_dispatch(&mut self, t: usize, id: u64, stolen_from: Option<usize>) {
        if let Some(v) = stolen_from {
            self.push_event(t, Tag::RunqSteal, id, v as u64);
        }
        if self.runq.dispatched.contains(&id) {
            self.fail(t, format!("runq item {id} dispatched twice"));
            return;
        }
        self.runq.dispatched.push(id);
    }

    /// `RunqPush` / `RunqInjectPush`: micro 0 publishes the item (and
    /// decides whether a wake is owed), micro 1 wakes one parked
    /// dispatcher. A dispatcher that parks *between* the two micro-steps
    /// is still safe: its park re-checked the queues and saw this item.
    fn runq_push_machine(
        &mut self,
        t: usize,
        shard: Option<usize>,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        if self.threads[t].micro == 0 {
            let id = self.runq.pushed;
            self.runq.pushed += 1;
            match shard {
                Some(s) => self.runq.shards[s].push_back(id),
                None => {
                    self.runq.inject.push_back(id);
                    self.push_event(t, Tag::RunqInject, id, 0);
                }
            }
            if self.runq.waiters.is_empty() {
                self.advance(t);
            } else {
                self.threads[t].micro = 1;
            }
        } else {
            if let Some((w, resume)) = self.runq.waiters.pop_front() {
                self.wake(w, resume, wakes);
            }
            self.advance(t);
        }
        NextStep::Yield
    }

    /// One atomic scan in dispatch order: own shard, injection queue,
    /// then the first non-empty victim. Returns the item and where it
    /// was stolen from, if anywhere.
    fn runq_scan(&mut self, shard: usize) -> Option<(u64, Option<usize>)> {
        if let Some(id) = self.runq.shards[shard].pop_front() {
            return Some((id, None));
        }
        if let Some(id) = self.runq.inject.pop_front() {
            return Some((id, None));
        }
        for v in 0..self.runq.shards.len() {
            if v == shard {
                continue;
            }
            if let Some(id) = self.runq.shards[v].pop_front() {
                return Some((id, Some(v)));
            }
        }
        None
    }

    /// `RunqPop`: micro 0 probes the own shard, 1 the injection queue,
    /// 2 runs the steal scan, 3 atomically re-checks everything and
    /// parks. Consumes exactly one item before advancing.
    fn runq_pop_machine(&mut self, t: usize, shard: usize) -> NextStep {
        match self.threads[t].micro {
            0 => {
                if let Some(id) = self.runq.shards[shard].pop_front() {
                    self.runq_dispatch(t, id, None);
                    self.advance(t);
                } else {
                    self.threads[t].micro = 1;
                }
                NextStep::Yield
            }
            1 => {
                if let Some(id) = self.runq.inject.pop_front() {
                    self.runq_dispatch(t, id, None);
                    self.advance(t);
                } else {
                    self.threads[t].micro = 2;
                }
                NextStep::Yield
            }
            2 => {
                let stolen = (0..self.runq.shards.len())
                    .filter(|v| *v != shard)
                    .find_map(|v| self.runq.shards[v].pop_front().map(|id| (id, v)));
                match stolen {
                    Some((id, v)) => {
                        self.runq_dispatch(t, id, Some(v));
                        self.advance(t);
                    }
                    None => self.threads[t].micro = 3,
                }
                NextStep::Yield
            }
            _ => {
                // Atomic check-then-park: one last full scan under "the
                // idle-list lock"; anything published since the probes
                // is taken instead of sleeping on it.
                if let Some((id, from)) = self.runq_scan(shard) {
                    self.runq_dispatch(t, id, from);
                    self.advance(t);
                    NextStep::Yield
                } else {
                    self.runq.waiters.push_back((t, 0));
                    self.push_event(t, Tag::LwpPark, t as u64, 0);
                    self.park(t, None)
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The channel machines. The modelled protocol matches `sunmt-chan`:
    // a send commits the message in one atomic step and reads the waiter
    // count in the next (the window the eventcount fence guards); every
    // blocking path registers, re-checks, and only then parks atomically
    // (`strategy::park` on an event word). Each pop is one atomic step —
    // the Vyukov claim-CAS.

    /// Records a receive of `id` on channel `c`; fails the run when the
    /// same message is accounted twice (the double-recv oracle).
    fn chan_account_recv(&mut self, t: usize, c: usize, id: u64) {
        if self.chans[c].received.contains(&id) {
            self.fail(t, format!("chan {c} message {id} received twice"));
            return;
        }
        self.chans[c].received.push(id);
        let depth = self.chans[c].queue.len() as u64;
        self.push_event(t, Tag::ChanRecv, c as u64, depth);
    }

    /// The send-side epilogue: read the receiver-waiter count, wake one,
    /// and fire every registered select hook (one-shot: drained here).
    fn chan_fire(&mut self, t: usize, c: usize, wakes: &mut Vec<usize>) {
        if let Some((w, resume)) = self.chans[c].recv_waiters.pop_front() {
            self.wake(w, resume, wakes);
        }
        let hooks: Vec<(usize, u32)> = self.chans[c].hooks.drain(..).collect();
        for (w, resume) in hooks {
            self.push_event(t, Tag::SelectWake, c as u64, w as u64);
            self.wake(w, resume, wakes);
        }
    }

    /// `ChanSend`: micro 0 commits the message (or routes to the park
    /// path when full), micro 1 wakes — commit and wake are separate
    /// steps, the real store-then-wake ordering. Micro 2 registers as a
    /// send waiter, micro 3 re-checks capacity and parks atomically.
    fn chan_send_machine(&mut self, t: usize, c: usize, wakes: &mut Vec<usize>) -> NextStep {
        match self.threads[t].micro {
            0 => {
                if self.chans[c].queue.len() < self.chans[c].cap {
                    let id = self.chans[c].next_id;
                    self.chans[c].next_id += 1;
                    self.chans[c].queue.push_back(id);
                    let depth = self.chans[c].queue.len() as u64;
                    self.push_event(t, Tag::ChanSend, c as u64, depth);
                    self.threads[t].micro = 1;
                } else {
                    self.threads[t].micro = 2;
                }
                NextStep::Yield
            }
            1 => {
                self.chan_fire(t, c, wakes);
                self.advance(t);
                NextStep::Yield
            }
            2 => {
                self.chans[c].send_waiters.push_back((t, 0));
                self.threads[t].micro = 3;
                NextStep::Yield
            }
            _ => {
                if self.chans[c].queue.len() < self.chans[c].cap {
                    // A receiver drained a slot since the probe: retry
                    // instead of parking (the event word moved).
                    self.chans[c].send_waiters.retain(|(w, _)| *w != t);
                    self.threads[t].micro = 0;
                    NextStep::Yield
                } else {
                    self.push_event(t, Tag::ChanPark, c as u64, 1);
                    self.park(t, None)
                }
            }
        }
    }

    /// `ChanRecv` (`recheck = true`) and the seeded `ChanRecvNoRecheck`
    /// (`recheck = false`). Micro 0 pops atomically, micro 1 wakes one
    /// parked sender, micro 2 registers as a receive waiter, micro 3
    /// re-checks the queue (the correct machine only) and parks.
    fn chan_recv_machine(
        &mut self,
        t: usize,
        c: usize,
        recheck: bool,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        match self.threads[t].micro {
            0 => {
                if let Some(id) = self.chans[c].queue.pop_front() {
                    self.chan_account_recv(t, c, id);
                    if self.chans[c].send_waiters.is_empty() {
                        self.advance(t);
                    } else {
                        self.threads[t].micro = 1;
                    }
                } else {
                    self.threads[t].micro = 2;
                }
                NextStep::Yield
            }
            1 => {
                if let Some((w, resume)) = self.chans[c].send_waiters.pop_front() {
                    self.wake(w, resume, wakes);
                }
                self.advance(t);
                NextStep::Yield
            }
            2 => {
                self.chans[c].recv_waiters.push_back((t, 0));
                self.threads[t].micro = 3;
                NextStep::Yield
            }
            _ => {
                if recheck && !self.chans[c].queue.is_empty() {
                    // A message was committed between the empty probe and
                    // the registration; the re-check consumes the wakeup
                    // the sender never sent.
                    self.chans[c].recv_waiters.retain(|(w, _)| *w != t);
                    self.threads[t].micro = 0;
                    NextStep::Yield
                } else {
                    self.push_event(t, Tag::ChanPark, c as u64, 0);
                    self.park(t, None)
                }
            }
        }
    }

    /// `ChanRecvRacyPeek`: micro 0 *peeks* the head (or registers and
    /// parks, atomically, when empty); micro 1 pops whatever is at the
    /// head *now* but accounts the peeked id — two racing receivers peek
    /// the same message and the double-recv oracle convicts.
    fn chan_racy_peek_machine(&mut self, t: usize, c: usize) -> NextStep {
        if self.threads[t].micro == 0 {
            match self.chans[c].queue.front() {
                Some(&id) => {
                    self.threads[t].scratch = id;
                    self.threads[t].micro = 1;
                    NextStep::Yield
                }
                None => {
                    self.chans[c].recv_waiters.push_back((t, 0));
                    self.push_event(t, Tag::ChanPark, c as u64, 0);
                    self.park(t, None)
                }
            }
        } else {
            let id = self.threads[t].scratch;
            self.chans[c].queue.pop_front();
            self.chan_account_recv(t, c, id);
            self.advance(t);
            NextStep::Yield
        }
    }

    /// Registers `t`'s select hook on channel `c` (idempotent, like the
    /// real `register_hook`'s dedup).
    fn chan_hook_register(&mut self, t: usize, c: usize) {
        if !self.chans[c].hooks.iter().any(|(w, _)| *w == t) {
            self.chans[c].hooks.push_back((t, 0));
        }
    }

    /// One ready-scan in add order: consume the head of the first
    /// non-empty channel and drop both hook registrations.
    fn chan_select_consume(&mut self, t: usize, a: usize, b: usize) -> bool {
        for c in [a, b] {
            if let Some(id) = self.chans[c].queue.pop_front() {
                self.chan_account_recv(t, c, id);
                self.chans[a].hooks.retain(|(w, _)| *w != t);
                self.chans[b].hooks.retain(|(w, _)| *w != t);
                return true;
            }
        }
        false
    }

    /// `ChanSelect` (`racy = false`): register a hook on each channel
    /// (micro 0 and 1, separate steps), then scan-and-consume or park
    /// atomically (micro 2); a fired hook re-enters at micro 0 and
    /// re-registers — one-shot hooks make that idempotent.
    ///
    /// `ChanSelectRacy` scans *first* (micro 0), registers after (micro
    /// 1 and 2), and parks blind (micro 3) — a send landing between the
    /// scan and the registrations fires no hook and is never noticed.
    fn chan_select_machine(
        &mut self,
        t: usize,
        a: usize,
        b: usize,
        racy: bool,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        let _ = wakes;
        if racy {
            match self.threads[t].micro {
                0 => {
                    if self.chan_select_consume(t, a, b) {
                        self.advance(t);
                    } else {
                        self.threads[t].micro = 1;
                    }
                    NextStep::Yield
                }
                1 => {
                    self.chan_hook_register(t, a);
                    self.threads[t].micro = 2;
                    NextStep::Yield
                }
                2 => {
                    self.chan_hook_register(t, b);
                    self.threads[t].micro = 3;
                    NextStep::Yield
                }
                _ => {
                    // Parks without re-scanning: the seeded bug.
                    self.push_event(t, Tag::ChanPark, a as u64, 0);
                    self.park(t, None)
                }
            }
        } else {
            match self.threads[t].micro {
                0 => {
                    self.chan_hook_register(t, a);
                    self.threads[t].micro = 1;
                    NextStep::Yield
                }
                1 => {
                    self.chan_hook_register(t, b);
                    self.threads[t].micro = 2;
                    NextStep::Yield
                }
                _ => {
                    if self.chan_select_consume(t, a, b) {
                        self.advance(t);
                        NextStep::Yield
                    } else {
                        // Atomic scan-then-park: anything committed after
                        // the registrations would have fired our hook.
                        self.push_event(t, Tag::ChanPark, a as u64, 0);
                        self.park(t, None)
                    }
                }
            }
        }
    }

    /// `RunqStealRacy`: micro 0 *peeks* the victim's head (or parks when
    /// it is empty), micro 1 dispatches the peeked id and pops whatever
    /// is at the head *now* — the lost-lock window two racing thieves
    /// fall into by both peeking the same item.
    fn runq_racy_steal_machine(&mut self, t: usize, victim: usize) -> NextStep {
        if self.threads[t].micro == 0 {
            match self.runq.shards[victim].front() {
                Some(&id) => {
                    self.threads[t].scratch = id;
                    self.threads[t].micro = 1;
                    NextStep::Yield
                }
                None => {
                    self.runq.waiters.push_back((t, 0));
                    self.push_event(t, Tag::LwpPark, t as u64, 0);
                    self.park(t, None)
                }
            }
        } else {
            let id = self.threads[t].scratch;
            // Remove blindly — under a race this drops a *different* item
            // than the one we account for.
            self.runq.shards[victim].pop_front();
            self.runq_dispatch(t, id, Some(victim));
            self.advance(t);
            NextStep::Yield
        }
    }

    // -----------------------------------------------------------------
    // The poller machines. The modelled protocol matches `sunmt-io`'s
    // poller: a reader that sees `EAGAIN` takes the fd's ready flag or
    // joins the fd table in one locked step, arming the fd edge-triggered
    // on its first wait, and parks; each edge's locked step on the shard
    // LWP wakes every listed waiter or sets the flag. Edge-triggered
    // readiness is reported once, so an edge that neither wakes a waiter
    // nor sets the flag is lost — the oracle convicts a reader parked on
    // data with no edge left.

    /// `IoWait`: micro 0 is the nonblocking read (one unit, or `EAGAIN`);
    /// micro 1 the locked step: take the flag and retry, or join the
    /// table — arming the fd first if this is its first wait, where an
    /// ADD that finds data already there reports it at once (retry
    /// instead of joining, the edge the shard would deliver to this
    /// waiter). Micro 2 parks. An edge redirects the waiter to micro 0,
    /// also between the join and the park — the wait-word check
    /// `strategy::park` performs.
    fn io_wait_machine(&mut self, t: usize, fd: usize) -> NextStep {
        let io = &mut self.io;
        match self.threads[t].micro {
            0 => {
                if io.data[fd] > 0 {
                    io.data[fd] -= 1;
                    self.advance(t);
                } else {
                    self.threads[t].micro = 1;
                }
                NextStep::Yield
            }
            1 => {
                if std::mem::take(&mut io.flag[fd]) {
                    self.threads[t].micro = 0;
                } else if !io.armed[fd] && io.data[fd] > 0 {
                    io.armed[fd] = true;
                    self.threads[t].micro = 0;
                } else {
                    io.armed[fd] = true;
                    io.waiters.push_back((t, fd, 0));
                    self.push_event(t, Tag::IoRegister, fd as u64, 0);
                    self.threads[t].micro = 2;
                }
                NextStep::Yield
            }
            _ => {
                self.push_event(t, Tag::IoPark, fd as u64, 0);
                self.park(t, None)
            }
        }
    }

    /// `IoEvent` / `IoEventNoFlag`: micro 0 is the kernel — one unit of
    /// data arrives, and an armed fd gets an edge; micro 1 is the shard
    /// LWP's locked step for that edge, if there is one: wake every
    /// listed waiter, or set the ready flag (`flag = false`: drop it).
    fn io_event_machine(
        &mut self,
        t: usize,
        fd: usize,
        flag: bool,
        wakes: &mut Vec<usize>,
    ) -> NextStep {
        if self.threads[t].micro == 0 {
            self.io.data[fd] += 1;
            self.io.edge[fd] |= self.io.armed[fd];
            self.threads[t].micro = 1;
            return NextStep::Yield;
        }
        if std::mem::take(&mut self.io.edge[fd]) {
            self.push_event(t, Tag::IoReady, fd as u64, 1);
            let mut taken = Vec::new();
            self.io.waiters.retain(|&(w, f, resume)| {
                if f == fd {
                    taken.push((w, resume));
                    false
                } else {
                    true
                }
            });
            if taken.is_empty() && flag {
                self.io.flag[fd] = true;
            }
            for (w, resume) in taken {
                self.push_event(t, Tag::IoUnpark, fd as u64, w as u64);
                self.wake(w, resume, wakes);
            }
        }
        self.advance(t);
        NextStep::Yield
    }
}

/// Result of one complete schedule run.
pub struct RunOutcome {
    /// Every multi-candidate scheduling decision of the run, in order.
    pub points: Vec<ChoicePointRec>,
    /// The chosen column of `points` — the replayable schedule.
    pub taken: Vec<u32>,
    /// Classified failure, if the run failed.
    pub failure: Option<String>,
    /// The run's event log.
    pub events: Vec<Event>,
}

/// One recorded scheduling decision.
#[derive(Clone, Copy, Debug)]
pub struct ChoicePointRec {
    /// Number of candidates.
    pub arity: u32,
    /// Which one ran.
    pub chosen: u32,
    /// Candidate index that would have continued the previously running
    /// thread, when that thread is among the candidates — picking any
    /// other index is a preemption.
    pub cont: Option<u32>,
}

/// How a run picks schedule choices. Implementations must be
/// deterministic in their own state: the same chooser fed the same run
/// produces the same schedule.
pub trait Chooser {
    /// Picks a candidate index given the runnable model threads in
    /// dispatch order (see [`run_model`]), the continuation index
    /// (previously running thread, if runnable), and the ordinal of this
    /// multi-candidate decision within the run.
    fn choose(&mut self, cands: &[usize], cont: Option<u32>, pos: usize) -> u32;
}

/// Follows a recorded prefix, then keeps running the current thread
/// (fewest-preemption completion) — the canonical leaf of a DFS subtree
/// and the replay chooser for schedule strings.
pub struct PrefixChooser {
    /// The recorded choices to follow.
    pub prefix: Vec<u32>,
}

impl Chooser for PrefixChooser {
    fn choose(&mut self, cands: &[usize], cont: Option<u32>, pos: usize) -> u32 {
        match self.prefix.get(pos) {
            Some(c) => (*c).min(cands.len() as u32 - 1),
            None => cont.unwrap_or(0),
        }
    }
}

/// Where a model thread stands in [`run_model`]'s loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked,
    Done,
}

/// The run loop's view of one model thread.
struct Slot {
    run: Run,
    /// Woken out of a block at least once: offered ahead of every thread
    /// that never was, as a timeshare kernel boosts a thread that slept.
    woken: bool,
    /// When the thread last became runnable (FIFO order among equals).
    since: u64,
    /// Bumped by every wake, so a timed wake armed before it is stale.
    token: u64,
}

impl Slot {
    /// Queues the thread behind everything already runnable.
    fn requeue(&mut self, clock: &mut u64) {
        self.since = *clock;
        *clock += 1;
    }

    /// Ends a block: runnable again, boosted, and any timed wake still
    /// pending for this block cancelled.
    fn wake(&mut self, clock: &mut u64) {
        self.run = Run::Runnable;
        self.woken = true;
        self.token += 1;
        self.requeue(clock);
    }
}

/// Runs `model` under `variant` with schedule decisions from `chooser`.
///
/// One virtual processor runs one micro-step at a time. The runnable
/// threads are offered in dispatch order: threads woken at least once
/// first, then FIFO by the time each became runnable. Virtual time moves
/// only when nothing is runnable: it jumps to the earliest pending timed
/// wake (ties fire in arm order), which ends its block unless a wake got
/// there first.
///
/// The run is fully deterministic in `(model, variant, chooser)`; feeding
/// [`RunOutcome::taken`] back through a [`PrefixChooser`] reproduces it
/// exactly — that property is what makes printed schedule strings
/// replayable.
pub fn run_model(model: &Model, variant: Variant, chooser: &mut dyn Chooser) -> RunOutcome {
    let mut world = World::new(model, variant);
    let n = model.threads.len();
    let mut slots: Vec<Slot> = (0..n)
        .map(|t| Slot {
            run: Run::Runnable,
            woken: false,
            since: t as u64,
            token: 0,
        })
        .collect();
    let mut clock = n as u64;
    // Pending timed wakes: `(deadline, arm order, thread, token)`.
    let mut timers: BinaryHeap<Reverse<(u64, u64, usize, u64)>> = BinaryHeap::new();
    let (mut now, mut armed) = (0u64, 0u64);
    let mut last = None;
    let mut points = Vec::new();
    let mut cands = Vec::with_capacity(n);
    let mut wakes = Vec::new();
    loop {
        cands.clear();
        cands.extend((0..n).filter(|&t| slots[t].run == Run::Runnable));
        if cands.is_empty() {
            let Some(Reverse((deadline, _, t, token))) = timers.pop() else {
                break;
            };
            now = deadline;
            if slots[t].run == Run::Blocked && slots[t].token == token {
                slots[t].wake(&mut clock);
            }
            continue;
        }
        cands.sort_unstable_by_key(|&t| (!slots[t].woken, slots[t].since));
        let mut chosen = 0;
        if cands.len() > 1 {
            let cont = last
                .and_then(|l| cands.iter().position(|&c| c == l))
                .map(|i| i as u32);
            chosen = chooser
                .choose(&cands, cont, points.len())
                .min(cands.len() as u32 - 1);
            points.push(ChoicePointRec {
                arity: cands.len() as u32,
                chosen,
                cont,
            });
        }
        let t = cands[chosen as usize];
        last = Some(t);
        let next = world.step(t, &mut wakes);
        for w in wakes.drain(..) {
            if slots[w].run == Run::Blocked {
                slots[w].wake(&mut clock);
            }
        }
        match next {
            NextStep::Yield => slots[t].requeue(&mut clock),
            NextStep::Block => slots[t].run = Run::Blocked,
            NextStep::BlockTimed(us) => {
                slots[t].run = Run::Blocked;
                timers.push(Reverse((now + us, armed, t, slots[t].token)));
                armed += 1;
            }
            NextStep::Exit => slots[t].run = Run::Done,
        }
    }
    let failure = classify(model, &world);
    RunOutcome {
        taken: points.iter().map(|p| p.chosen).collect(),
        points,
        failure,
        events: world.events,
    }
}

/// Classifies the end state of a run: explicit failure, lost wakeup,
/// deadlock, or final-value assertion.
fn classify(model: &Model, world: &World) -> Option<String> {
    if let Some(f) = &world.failure {
        return Some(f.clone());
    }
    let blocked = world.blocked();
    if !blocked.is_empty() {
        // A cv-blocked thread plus a no-waiter signal on the same cv is
        // the lost-wakeup signature (check-then-wait race).
        for (t, on) in &blocked {
            if let BlockedOn::Cv(cv) = on {
                let lost = world
                    .events
                    .iter()
                    .any(|e| e.tag == Tag::CvSignal && e.a == *cv as u64 && e.b == 0);
                if lost {
                    return Some(format!(
                        "lost wakeup: thread {t} blocked forever on cv {cv}, which was \
                         signalled while no waiter was present"
                    ));
                }
            }
        }
        // A thread parked on a channel that has a message queued (or a
        // free slot, for senders) is the channel lost-wakeup signature:
        // the wake it needed was issued while it was not yet registered.
        for (t, on) in &blocked {
            if let BlockedOn::Chan(_) = on {
                for (c, ch) in world.chans.iter().enumerate() {
                    let recv_side = ch.recv_waiters.iter().any(|(w, _)| w == t)
                        || ch.hooks.iter().any(|(w, _)| w == t);
                    if recv_side && !ch.queue.is_empty() {
                        return Some(format!(
                            "lost wakeup: thread {t} parked on chan {c} with {} message(s) queued",
                            ch.queue.len()
                        ));
                    }
                    let send_side = ch.send_waiters.iter().any(|(w, _)| w == t);
                    if send_side && ch.queue.len() < ch.cap {
                        return Some(format!(
                            "lost wakeup: thread {t} parked sending on chan {c} with free capacity"
                        ));
                    }
                }
            }
        }
        // A reader parked in the poller's fd table while its fd holds
        // data and no edge is queued can never be woken: edge-triggered
        // readiness is reported once, and that report was dropped.
        for (t, on) in &blocked {
            if let BlockedOn::Io(fd) = on {
                let io = &world.io;
                if io.data[*fd] > 0 && !io.edge[*fd] {
                    return Some(format!(
                        "lost wakeup: thread {t} parked on io fd {fd}, which holds data \
                         no edge is left to report"
                    ));
                }
            }
        }
        // A thread asleep in the kernel on a word that is already set was
        // missed by the wake that set it: the gate read a parker count
        // that did not yet include it.
        for (t, on) in &blocked {
            if let BlockedOn::Kernel(word) = on {
                if world.kernel.set[*word] {
                    return Some(format!(
                        "lost wakeup: thread {t} asleep in the kernel on word {word}, which \
                         was set and its wake skipped"
                    ));
                }
            }
        }
        let desc: Vec<String> = blocked
            .iter()
            .map(|(t, on)| format!("thread {t} on {on:?}"))
            .collect();
        return Some(format!("deadlock: {}", desc.join(", ")));
    }
    if !world.all_done() {
        return Some("stuck: a thread is neither done nor parked (model bug)".into());
    }
    for (c, expect) in &model.final_counters {
        let got = world.counter(*c);
        if got != *expect {
            return Some(format!(
                "assertion failed: counter {c} ended at {got}, expected {expect} \
                 (lost update: mutual exclusion broken)"
            ));
        }
    }
    // Run-queue handoff integrity: every item pushed was dispatched
    // exactly once (duplicates were convicted eagerly) and nothing is
    // left sitting in a queue after all dispatchers finished.
    let rq = &world.runq;
    let queued: usize = rq.shards.iter().map(VecDeque::len).sum::<usize>() + rq.inject.len();
    if queued > 0 || (rq.dispatched.len() as u64) < rq.pushed {
        return Some(format!(
            "runq lost work: pushed {}, dispatched {}, {queued} still queued",
            rq.pushed,
            rq.dispatched.len(),
        ));
    }
    // Channel delivery integrity: duplicates were convicted eagerly;
    // here every sent message must also have been drained.
    for (c, ch) in world.chans.iter().enumerate() {
        if !ch.queue.is_empty() {
            return Some(format!(
                "chan {c} lost work: sent {}, received {}, {} still queued",
                ch.next_id,
                ch.received.len(),
                ch.queue.len(),
            ));
        }
    }
    // Poller delivery integrity: every unit of data that arrived was read.
    let unread: u32 = world.io.data.iter().sum();
    if unread > 0 {
        return Some(format!(
            "io lost data: {unread} unit(s) unread after all threads finished"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_thread_mutex() -> Model {
        Model {
            name: "t",
            about: "",
            threads: vec![
                vec![SyncOp::MutexEnter(0), SyncOp::Incr(0), SyncOp::MutexExit(0)],
                vec![SyncOp::MutexEnter(0), SyncOp::Incr(0), SyncOp::MutexExit(0)],
            ],
            thread_pris: vec![],
            mutexes: 1,
            cvs: 0,
            sema_init: vec![],
            rws: 0,
            counters: 1,
            flags: 0,
            crits: 0,
            runq_shards: 0,
            chan_caps: vec![],
            io_fds: 0,
            kernel_buckets: vec![],
            final_counters: vec![(0, 2)],
            expect: Expect::Pass,
            min_schedules: 0,
            preemption_bound: None,
            variants: vec![Variant::Default],
        }
    }

    /// Alternates threads at every decision — a maximally adversarial
    /// round-robin.
    struct Alt;
    impl Chooser for Alt {
        fn choose(&mut self, cands: &[usize], _cont: Option<u32>, pos: usize) -> u32 {
            (pos as u32 + 1) % cands.len() as u32
        }
    }

    #[test]
    fn serial_schedule_passes() {
        let m = two_thread_mutex();
        let out = run_model(&m, Variant::Default, &mut PrefixChooser { prefix: vec![] });
        assert_eq!(out.failure, None);
        assert!(out
            .events
            .iter()
            .any(|e| e.tag == Tag::MutexAcquire && e.thread == 0));
    }

    #[test]
    fn replay_reproduces_choices_and_outcome() {
        let m = two_thread_mutex();
        let out = run_model(&m, Variant::Default, &mut Alt);
        let mut replay = PrefixChooser {
            prefix: out.taken.clone(),
        };
        let again = run_model(&m, Variant::Default, &mut replay);
        assert_eq!(out.taken, again.taken);
        assert_eq!(out.failure, again.failure);
        assert_eq!(out.events.len(), again.events.len());
    }

    #[test]
    fn mutex_protects_against_adversarial_schedule() {
        let m = two_thread_mutex();
        let out = run_model(&m, Variant::Default, &mut Alt);
        assert_eq!(out.failure, None);
    }

    #[test]
    fn unlocked_increment_is_torn_under_some_schedule() {
        // Without the mutex, an interleaved load/store loses an update:
        // both threads load 0, both store 1.
        let m = Model {
            threads: vec![vec![SyncOp::Incr(0)], vec![SyncOp::Incr(0)]],
            mutexes: 0,
            final_counters: vec![(0, 2)],
            ..two_thread_mutex()
        };
        let out = run_model(&m, Variant::Default, &mut Alt);
        assert!(
            out.failure
                .as_deref()
                .is_some_and(|f| f.contains("counter")),
            "expected a lost update, got {:?}",
            out.failure
        );
    }

    #[test]
    fn debug_variant_catches_non_owner_exit() {
        let m = Model {
            threads: vec![vec![SyncOp::MutexExit(0)]],
            final_counters: vec![],
            variants: vec![Variant::Debug],
            ..two_thread_mutex()
        };
        let out = run_model(&m, Variant::Debug, &mut PrefixChooser { prefix: vec![] });
        assert!(out
            .failure
            .as_deref()
            .is_some_and(|f| f.contains("non-owner")));
    }

    #[test]
    fn timed_wait_times_out_without_signal() {
        let m = Model {
            threads: vec![vec![
                SyncOp::MutexEnter(0),
                SyncOp::TimedWaitUntilFlag {
                    flag: 0,
                    cv: 0,
                    mutex: 0,
                    timeout: 100,
                },
                SyncOp::AssertTimedOut(true),
                SyncOp::MutexExit(0),
            ]],
            cvs: 1,
            flags: 1,
            final_counters: vec![],
            ..two_thread_mutex()
        };
        let out = run_model(&m, Variant::Default, &mut PrefixChooser { prefix: vec![] });
        assert_eq!(out.failure, None, "{:?}", out.failure);
    }

    #[test]
    fn signal_beats_timeout_in_virtual_time() {
        // All compute happens at virtual time 0, so a signaller that
        // exists always lands before any deadline fires.
        let m = Model {
            threads: vec![
                vec![
                    SyncOp::MutexEnter(0),
                    SyncOp::TimedWaitUntilFlag {
                        flag: 0,
                        cv: 0,
                        mutex: 0,
                        timeout: 1_000_000,
                    },
                    SyncOp::AssertTimedOut(false),
                    SyncOp::AssertFlag(0),
                    SyncOp::MutexExit(0),
                ],
                vec![
                    SyncOp::Work(3),
                    SyncOp::MutexEnter(0),
                    SyncOp::SetFlag(0),
                    SyncOp::CvSignal(0),
                    SyncOp::MutexExit(0),
                ],
            ],
            cvs: 1,
            flags: 1,
            final_counters: vec![],
            ..two_thread_mutex()
        };
        let choosers: [&mut dyn Chooser; 2] = [&mut PrefixChooser { prefix: vec![] }, &mut Alt];
        for chooser in choosers {
            let out = run_model(&m, Variant::Default, chooser);
            assert_eq!(out.failure, None, "{:?}", out.failure);
        }
    }

    /// Always takes the first candidate, and records every offer.
    #[derive(Default)]
    struct Record(Vec<Vec<usize>>);
    impl Chooser for Record {
        fn choose(&mut self, cands: &[usize], _cont: Option<u32>, _pos: usize) -> u32 {
            self.0.push(cands.to_vec());
            0
        }
    }

    #[test]
    fn woken_thread_is_offered_first_and_the_rest_fifo() {
        // Thread 0 parks on the semaphore; thread 1 posts it; thread 2
        // never blocks.
        let m = Model {
            threads: vec![
                vec![SyncOp::Work(1), SyncOp::SemaP(0)],
                vec![SyncOp::Work(1), SyncOp::SemaV(0)],
                vec![SyncOp::Work(4)],
            ],
            mutexes: 0,
            sema_init: vec![0],
            final_counters: vec![],
            ..two_thread_mutex()
        };
        let mut rec = Record::default();
        let out = run_model(&m, Variant::Default, &mut rec);
        assert_eq!(out.failure, None, "{:?}", out.failure);
        // Never-blocked threads rotate FIFO: the first offer is in
        // creation order, and each step sends its thread to the back.
        assert_eq!(rec.0[0], vec![0, 1, 2]);
        assert_eq!(rec.0[1], vec![1, 2, 0]);
        // Once posted, thread 0 is offered ahead of thread 2, which has
        // been runnable all along.
        let back = rec
            .0
            .iter()
            .skip_while(|c| c.contains(&0))
            .find(|c| c.contains(&0))
            .expect("thread 0 is woken while thread 2 still runs");
        assert_eq!(back[0], 0, "{back:?}");
        assert!(back.contains(&2), "{back:?}");
    }

    #[test]
    fn a_timed_block_ended_by_a_wake_never_fires_later() {
        // Thread 0's first wait is signalled long before its deadline.
        // Its second wait is untimed and never signalled, so only the
        // first wait's cancelled deadline could end it.
        let m = Model {
            threads: vec![
                vec![
                    SyncOp::MutexEnter(0),
                    SyncOp::TimedWaitUntilFlag {
                        flag: 0,
                        cv: 0,
                        mutex: 0,
                        timeout: 100,
                    },
                    SyncOp::AssertTimedOut(false),
                    SyncOp::WaitUntilFlag {
                        flag: 1,
                        cv: 0,
                        mutex: 0,
                    },
                    SyncOp::MutexExit(0),
                ],
                vec![
                    SyncOp::MutexEnter(0),
                    SyncOp::SetFlag(0),
                    SyncOp::CvSignal(0),
                    SyncOp::MutexExit(0),
                ],
            ],
            cvs: 1,
            flags: 2,
            final_counters: vec![],
            ..two_thread_mutex()
        };
        let out = run_model(&m, Variant::Default, &mut PrefixChooser { prefix: vec![] });
        assert_eq!(out.failure.as_deref(), Some("deadlock: thread 0 on Cv(0)"));
        assert!(!out.events.iter().any(|e| e.tag == Tag::SleepTimeout));
    }

    #[test]
    fn equal_deadlines_fire_in_arm_order() {
        let timed_wait = |i: usize| {
            vec![
                SyncOp::MutexEnter(i),
                SyncOp::TimedWaitUntilFlag {
                    flag: i,
                    cv: i,
                    mutex: i,
                    timeout: 100,
                },
                SyncOp::AssertTimedOut(true),
                SyncOp::MutexExit(i),
            ]
        };
        let m = Model {
            threads: vec![timed_wait(0), timed_wait(1)],
            mutexes: 2,
            cvs: 2,
            flags: 2,
            final_counters: vec![],
            ..two_thread_mutex()
        };
        // Thread 1 runs first, so it arms its deadline first.
        let out = run_model(&m, Variant::Default, &mut PrefixChooser { prefix: vec![1] });
        assert_eq!(out.failure, None, "{:?}", out.failure);
        let fired: Vec<usize> = out
            .events
            .iter()
            .filter(|e| e.tag == Tag::SleepTimeout)
            .map(|e| e.thread)
            .collect();
        assert_eq!(fired, vec![1, 0]);
    }
}

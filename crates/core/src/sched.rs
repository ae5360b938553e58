//! The user-level scheduler: unbound threads multiplexed on the LWP pool.
//!
//! This module is the paper's Figure 2 made concrete. Each pool LWP runs
//! [`sched_loop`]: it picks the highest-priority runnable thread from the
//! run queue (a), switches into its saved context (b), and when the thread
//! yields, blocks, stops, or exits, control switches back here (c) where the
//! thread's fate is committed and the next thread is chosen (d). None of
//! this enters the kernel except to park an LWP that has nothing to run.
//!
//! The pool grows three ways, all from the paper: `thread_setconcurrency`,
//! the `THREAD_NEW_LWP` creation flag, and `SIGWAITING` (every pool LWP in
//! a `blocking` region while runnable threads exist, [`sigwaiting`]).

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use sunmt_context::arch::{self, MachContext};
use sunmt_context::stack::{Stack, StackCache};
use sunmt_lwp::{Lwp, LwpState};
use sunmt_trace::gauge::{self, Gauge};
use sunmt_trace::{probe, Tag};

use crate::runq::{unpoisoned, Placement, ShardedRunQueue};
use crate::signals::Disposition;
use crate::sleepq::ShardedSleepQueue;
use crate::thread::{Thread, CLAIMED, EXITED, LIVE};
use crate::types::{CreateFlags, MtError, Result, ThreadId, ThreadState};

/// Hard ceiling on pool size; a backstop against runaway SIGWAITING growth.
const POOL_MAX: usize = 256;

/// What a thread asked the scheduler to do with it when it switched out.
#[derive(Debug, Default)]
pub(crate) enum Action {
    /// Nothing pending (scheduler-side resting value).
    #[default]
    None,
    /// Requeue as runnable (voluntary yield).
    Yield,
    /// Sleep on the word at `addr` while it still holds `expected`.
    Sleep {
        /// Address of the `AtomicU32` wait word.
        addr: usize,
        /// Value the word must still hold for the sleep to commit.
        expected: u32,
        /// Absolute monotonic deadline for a timed sleep; the timer LWP
        /// wakes the thread when it passes.
        deadline: Option<core::time::Duration>,
    },
    /// Transition to `Stopped` without requeueing.
    Stop,
    /// The thread exited; reap it.
    Exit,
}

/// Consecutive thread ids an LWP takes at a time. The registry shard is
/// chosen by id block, and an LWP takes its blocks from the registry shard
/// that matches its home run-queue shard, so the threads one LWP creates
/// share a shard and two pool LWPs creating at once never do (while there
/// are no more LWPs than processors).
const ID_BLOCK: u32 = 64;

/// One registry shard and the id blocks it hands out, on a cache line of
/// its own.
#[repr(align(64))]
pub(crate) struct RegistryShard {
    map: Mutex<HashMap<u32, Arc<Thread>>>,
    /// Id blocks handed out from this shard so far. Shard `i` of `n` hands
    /// out the blocks whose index is `i` modulo `n`, so the ids of its
    /// blocks land in it.
    blocks: AtomicU32,
}

/// Every live thread, and every exited `THREAD_WAIT` thread not yet
/// reaped, by id: one locked map per processor (rounded up to a power of
/// two), chosen by id block.
pub(crate) struct Registry {
    shards: Box<[RegistryShard]>,
}

impl Registry {
    fn new(processors: usize) -> Registry {
        Registry {
            shards: (0..processors.next_power_of_two())
                .map(|_| RegistryShard {
                    map: Mutex::new(HashMap::new()),
                    blocks: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    fn shard(&self, id: ThreadId) -> MutexGuard<'_, HashMap<u32, Arc<Thread>>> {
        let i = (id.0 / ID_BLOCK) as usize & (self.shards.len() - 1);
        unpoisoned(&self.shards[i].map)
    }

    /// The first id of a fresh block of [`ID_BLOCK`] ids, all of which land
    /// in the registry shard that `home` (a run-queue shard) maps to.
    fn claim_block(&self, home: usize) -> u32 {
        let n = self.shards.len() as u32;
        let i = home as u32 & (n - 1);
        let k = self.shards[i as usize]
            .blocks
            .fetch_add(1, Ordering::Relaxed);
        k.wrapping_mul(n).wrapping_add(i).wrapping_mul(ID_BLOCK)
    }

    fn insert(&self, t: &Arc<Thread>) {
        self.shard(t.id).insert(t.id.0, Arc::clone(t));
    }

    pub(crate) fn get(&self, id: ThreadId) -> Option<Arc<Thread>> {
        self.shard(id).get(&id.0).cloned()
    }

    fn remove(&self, id: ThreadId) -> Option<Arc<Thread>> {
        self.shard(id).remove(&id.0)
    }

    /// Registered threads, counted shard by shard.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoisoned(&s.map).len()).sum()
    }

    /// Every registered thread, collected shard by shard (so not one
    /// atomic snapshot of the process).
    pub(crate) fn all(&self) -> Vec<Arc<Thread>> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(unpoisoned(&s.map).values().cloned());
        }
        out
    }
}

/// Process-global state of the threads library.
pub(crate) struct Mt {
    /// The thread registry, sharded by id block.
    pub threads: Registry,
    /// `wait(None)` callers currently registered. Written only by
    /// any-waits; read by every `THREAD_WAIT` exit and claim, which post
    /// [`Self::anywait`] only while it is nonzero.
    any_waiters: AtomicUsize,
    /// The any-wait eventcount: bumped, with its sleepers woken, when a
    /// `THREAD_WAIT` thread exits unclaimed or is claimed while an any-wait
    /// is registered. With no any-wait registered nothing touches it, so
    /// unclaimed exits bank nothing.
    anywait: AtomicU32,
    /// The sharded run queues: one per-LWP shard plus the injection queue.
    pub runq: ShardedRunQueue<Arc<Thread>>,
    /// The hashed sleep queues (their shard locks are internal).
    pub sleepers: ShardedSleepQueue,
    /// Pool LWPs currently parked with nothing to run, with their home
    /// shard so a push can wake the LWP whose queue received the work.
    pub idle: Mutex<Vec<(Arc<LwpState>, usize)>>,
    /// `idle.len()`, republished under the `idle` lock; a push that reads
    /// 0 skips the lock.
    idle_count: AtomicUsize,
    pub stacks: StackCache,
    /// Retired unbound thread objects awaiting reuse — the global depot
    /// behind the per-LWP thread magazines ([`crate::magazine`]).
    pub thread_depot: Mutex<Vec<Arc<Thread>>>,
    pub pool_count: AtomicUsize,
    /// Pool LWPs currently inside a `blocking()` region (their thread is
    /// "temporarily bound" and the LWP serves nobody else).
    pub pool_blocked: AtomicUsize,
    /// The pool size surplus LWPs retire down to when idle: the
    /// `set_concurrency` level (1 in automatic mode), plus one per
    /// `NEW_LWP` create since.
    pub pool_target: AtomicUsize,
    /// Process-wide signal dispositions (shared by all threads, as the
    /// paper requires).
    pub handlers: Mutex<HashMap<u32, Disposition>>,
    /// Interrupts sent while every thread had them masked "pend on the
    /// process until a thread unmasks that signal".
    pub proc_pending: std::sync::atomic::AtomicU64,
}

static MT: OnceLock<Mt> = OnceLock::new();

/// The library singleton; first use installs the blocking strategy.
pub(crate) fn mt() -> &'static Mt {
    MT.get_or_init(|| {
        sunmt_sync::strategy::install(&crate::strategy::MT_STRATEGY);
        sunmt_stat::register_source("sched", sched_stat_source);
        Mt {
            threads: Registry::new(default_shards()),
            any_waiters: AtomicUsize::new(0),
            anywait: AtomicU32::new(0),
            runq: ShardedRunQueue::new(default_shards()),
            sleepers: ShardedSleepQueue::new(),
            idle: Mutex::new(Vec::new()),
            idle_count: AtomicUsize::new(0),
            stacks: StackCache::new(),
            thread_depot: Mutex::new(Vec::new()),
            pool_count: AtomicUsize::new(0),
            pool_blocked: AtomicUsize::new(0),
            pool_target: AtomicUsize::new(1),
            handlers: Mutex::new(HashMap::new()),
            proc_pending: std::sync::atomic::AtomicU64::new(0),
        }
    })
}

// ---------------------------------------------------------------------------
// Timer-driven preemption.
//
// The paper's timeshare scheduling needs a clock: "each LWP has two private
// interval timers ... when these interval timers expire either SIGVTALRM or
// SIGPROF, as appropriate, is sent to the LWP". This library has no kernel
// push into running user code, so a tick is a *flag* the running LWP
// notices at its next safepoint (a scheduling point or an explicit
// `preempt_point` call) — the same poll-based substitution already
// documented for signals and `thread_stop`. With `SUNMT_PREEMPT=timer`
// the tick is one periodic deadline of the timer LWP ([`crate::timeoutq`]):
// every `QUANTUM` it raises every LWP's flag. Any other value leaves the
// tick off.
//
// The flag *check* runs in every mode — cross-LWP `thread_priority` changes
// raise it directly so a priority drop takes effect within one safepoint
// even with the tick off.

/// The preemption quantum: the classic 10 ms clock tick.
pub(crate) const QUANTUM: core::time::Duration = core::time::Duration::from_millis(10);

/// Whether `SUNMT_PREEMPT=timer` turned the preemption tick on.
pub(crate) fn preempt_ticks() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var("SUNMT_PREEMPT").as_deref() == Ok("timer"))
}

/// A preemption safepoint — where a kernel would deliver SIGVTALRM, this
/// library checks at its scheduling points and at explicit
/// [`crate::api::thread_preempt_point`] calls.
///
/// On a pending tick the running thread's timeshare priority decays one
/// step, and it is switched out iff a higher-priority thread is visible to
/// this LWP (its own shard or the injection queue — one atomic load each).
/// A PI boost pushed onto this LWP shields the holder's critical section:
/// its effective claim to the processor is the boosting waiter's priority.
pub(crate) fn preempt_check() {
    if !on_pool_lwp() {
        return;
    }
    let Some(t) = maybe_current() else { return };
    if t.bound {
        return;
    }
    let me = sunmt_lwp::current();
    if !me.take_preempt() {
        return;
    }
    let m = mt();
    let decayed = t.decay_tick();
    gauge::inc(Gauge::Decays);
    probe!(Tag::PrioDecay, t.id.0, decayed);
    let eff = decayed.max(sunmt_lwp::boost_of(me.running_hint()));
    let Some(shard) = my_shard() else { return };
    if m.runq.preempt_priority(shard) > eff {
        gauge::inc(Gauge::Preempts);
        probe!(Tag::Preempt, t.id.0, eff);
        drop(t);
        drop(me);
        // Requeued at the decayed priority (RunItem::priority is the
        // effective priority), so the thread it starved dispatches first.
        deschedule(Action::Yield);
    }
}

/// Number of run-queue shards: one per hardware context (more would only
/// lengthen steal scans, fewer would re-serialize dispatch). LWPs beyond
/// this share shards round-robin. The same count sizes a private
/// `RwLock`'s reader slots, which a pool LWP picks by its home shard.
fn default_shards() -> usize {
    sunmt_sync::strategy::processors()
}

/// Ensures the library is initialized (idempotent). Called implicitly by
/// every public entry point; exposed for programs that want the strategy
/// installed before their first synchronization operation.
pub fn init() {
    let _ = mt();
}

// ---------------------------------------------------------------------------
// Per-LWP dispatcher state.

struct LwpCtl {
    sched_ctx: MachContext,
    action: Action,
}

thread_local! {
    static LWP_CTL: UnsafeCell<LwpCtl> = const {
        UnsafeCell::new(LwpCtl {
            sched_ctx: MachContext::zeroed(),
            action: Action::None,
        })
    };
    static CURRENT: RefCell<Option<Arc<Thread>>> = const { RefCell::new(None) };
}

/// The thread currently executing on this LWP, if any.
pub(crate) fn maybe_current() -> Option<Arc<Thread>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The calling thread, adopting the host thread as a bound thread on first
/// touch — "one lightweight process is created by the kernel when a program
/// is started, and it starts executing the thread compiled as the main
/// program".
pub(crate) fn current_thread() -> Arc<Thread> {
    if let Some(t) = maybe_current() {
        return t;
    }
    let m = mt();
    let id = alloc_id(m);
    let t = Thread::new(
        id,
        CreateFlags::NONE,
        true,
        0,
        0,
        None,
        crate::tls::freeze_and_len(),
        ThreadState::Running,
    );
    // Register the host thread as an LWP, so the live LWP count sees it.
    let _ = sunmt_lwp::current();
    t.dispatch_cpu0_ns
        .store(sunmt_lwp::cpu_time().as_nanos() as u64, Ordering::Relaxed);
    m.threads.insert(&t);
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&t)));
    // `try_with`: a host thread touching the library from a late TLS
    // destructor keeps an entry rather than panicking.
    let _ = ADOPTED.try_with(|a| a.0.set(Some(id)));
    t
}

/// The adopted identity of this host thread, if it has one. Its drop at
/// host-thread exit takes the entry out of the registry, so the registry
/// never offers a dead host thread to `send_interrupt` or `stats()`.
struct Adopted(std::cell::Cell<Option<ThreadId>>);

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(id) = self.0.get() {
            if let Some(t) = mt().threads.remove(id) {
                t.set_state(ThreadState::Dead);
            }
        }
    }
}

thread_local! {
    static ADOPTED: Adopted = const { Adopted(std::cell::Cell::new(None)) };
}

/// Whether `t` is an adopted host thread (the initial thread or a test
/// harness thread) rather than a library-created one.
pub(crate) fn is_adopted(t: &Arc<Thread>) -> bool {
    maybe_current().is_some_and(|c| Arc::ptr_eq(&c, t))
        && ADOPTED.try_with(|a| a.0.get().is_some()).unwrap_or(false)
}

thread_local! {
    /// The next id of this LWP's current block; a multiple of [`ID_BLOCK`]
    /// means the block is used up (or none was taken yet).
    static NEXT_ID: Cell<u32> = const { Cell::new(0) };
}

/// A fresh thread id from the calling LWP's block, which it refills
/// [`ID_BLOCK`] ids at a time from the registry shard matching its home
/// run-queue shard (shard 0 off the pool): one write per 64 creates, on a
/// line no other pool LWP writes. Id 0 is never handed out.
fn alloc_id(m: &Mt) -> ThreadId {
    NEXT_ID.with(|next| {
        let mut id = next.get();
        if id % ID_BLOCK == 0 {
            id = m.threads.claim_block(my_shard().unwrap_or(0)).max(1);
        }
        next.set(id.wrapping_add(1));
        ThreadId(id)
    })
}

// ---------------------------------------------------------------------------
// Thread creation.

pub(crate) fn create_thread(
    flags: CreateFlags,
    stack: Option<Stack>,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> Result<ThreadId> {
    let m = mt();
    // "The initial thread priority and signal mask is set to the same
    // values as its creator."
    let creator = current_thread();
    let priority = creator.priority();
    let sigmask = creator.sigmask.load(Ordering::SeqCst);
    let id = alloc_id(m);
    let stopped = flags.contains(CreateFlags::STOP);
    let tls_len = crate::tls::freeze_and_len();
    probe!(
        Tag::ThreadCreate,
        id.0,
        flags.contains(CreateFlags::BIND_LWP) as u64
    );

    if flags.contains(CreateFlags::BIND_LWP) {
        let t = Thread::new(
            id,
            flags,
            true,
            priority,
            sigmask,
            None,
            tls_len,
            if stopped {
                ThreadState::Stopped
            } else {
                ThreadState::Running
            },
        );
        m.threads.insert(&t);
        let t2 = Arc::clone(&t);
        let lwp = Lwp::spawn_named("sunmt-bound".to_string(), move || bound_main(t2, f))
            .map_err(MtError::SpawnFailed)?;
        drop(lwp); // Detach; lifetime is tracked through the registry.
        return Ok(id);
    }

    let stack = stack.expect("unbound thread creation requires a stack");
    let cont = new_continuation(stack, f);
    let initial = if stopped {
        ThreadState::Stopped
    } else {
        ThreadState::Runnable
    };
    // Steady state recycles a retired thread object from the LWP's magazine
    // instead of allocating one; `take_thread` guarantees sole ownership.
    let t = match crate::magazine::take_thread(m) {
        Some(mut t) => {
            Arc::get_mut(&mut t)
                .expect("magazine returned a shared thread object")
                .reinit(id, flags, priority, sigmask, cont, tls_len, initial);
            gauge::inc(Gauge::MagazineHits);
            probe!(Tag::MagazineHit, 1u64, 0u64);
            t
        }
        None => {
            gauge::inc(Gauge::MagazineMisses);
            probe!(Tag::MagazineMiss, 1u64, 0u64);
            Thread::new(
                id,
                flags,
                false,
                priority,
                sigmask,
                Some(cont),
                tls_len,
                initial,
            )
        }
    };
    m.threads.insert(&t);
    if flags.contains(CreateFlags::NEW_LWP) {
        m.pool_target.fetch_add(1, Ordering::SeqCst);
        add_pool_lwp();
    }
    ensure_pool_min();
    if !stopped {
        // New threads carry no stop request; enqueue directly.
        t.set_state(ThreadState::Runnable);
        push_runnable(t);
    }
    Ok(id)
}

fn new_continuation(
    stack: Stack,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> sunmt_context::Continuation {
    sunmt_context::Continuation::new(
        stack,
        move || crate::thread::run_thread_body(f),
        exit_current,
    )
}

/// An unbound thread's exit hook: its body has returned and everything it
/// owned is dropped; hand the carcass to the scheduler, never resumed.
fn exit_current() -> ! {
    deschedule(Action::Exit);
    unreachable!("exited thread was rescheduled");
}

fn bound_main(t: Arc<Thread>, f: Box<dyn FnOnce() + Send + 'static>) {
    // A bound thread's CPU time is its LWP's clock (which starts near 0
    // for a fresh kernel thread).
    t.dispatch_cpu0_ns
        .store(sunmt_lwp::cpu_time().as_nanos() as u64, Ordering::Relaxed);
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&t)));
    sunmt_trace::set_current_thread(t.id.0);
    if t.flags.contains(CreateFlags::STOP) {
        // Created suspended; the parker's permit makes the
        // continue-before-park race benign.
        t.stop_park.park();
        t.set_state(ThreadState::Running);
    }
    crate::thread::run_thread_body(f);
    finish_thread_common(&t);
    CURRENT.with(|c| c.borrow_mut().take());
    sunmt_trace::set_current_thread(0);
}

// ---------------------------------------------------------------------------
// The dispatcher.

thread_local! {
    /// Whether this host thread is a pool LWP (set once by `sched_loop`).
    static IS_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// This pool LWP's home run-queue shard (`None` off the pool: bound
    /// threads, the timer LWP and signal contexts push via injection).
    static MY_SHARD: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Whether the calling host thread is one of the pool's LWPs.
pub(crate) fn on_pool_lwp() -> bool {
    IS_POOL.with(|c| c.get())
}

/// The calling pool LWP's home run-queue shard, if it has one.
pub(crate) fn my_shard() -> Option<usize> {
    MY_SHARD.with(|c| c.get())
}

fn sched_loop() {
    let me = sunmt_lwp::current();
    IS_POOL.with(|c| c.set(true));
    let m = mt();
    // Home shard for the life of this LWP: owner-side push/pop stay on it;
    // everything else arrives by steal or injection.
    let shard = m.runq.assign_shard();
    MY_SHARD.with(|c| c.set(Some(shard)));
    loop {
        if let Some(t) = m.runq.pop(shard) {
            run_one(t);
            continue;
        }
        // Nothing runnable. Surplus LWPs retire here — only when idle, so
        // a shrunk target never abandons queued work ("LWPs are removed
        // from the pool" lazily). A retire that races another retries, so
        // no surplus LWP parks.
        let surplus = |c: usize| (c > m.pool_target.load(Ordering::SeqCst)).then(|| c - 1);
        if m.pool_count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, surplus)
            .is_ok()
        {
            return;
        }
        // About to park: the one place the stack depot returns memory, so
        // no create or exit ever waits on an `madvise`. A depot still
        // holding stacks that may go cold bounds the park by when they do.
        let trim = m.stacks.trim();
        // Advertise as idle, then re-check to close the race with a
        // concurrent make_runnable, then park in the kernel. Count, fence,
        // re-check: with `wake_one_idle`'s push, fence, count read, one
        // side always sees the other (DESIGN §9, "Idle handoff").
        {
            let mut idle = unpoisoned(&m.idle);
            idle.push((Arc::clone(&me), shard));
            m.idle_count.store(idle.len(), Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
        if let Some(t) = m.runq.pop(shard) {
            remove_self_from_idle(&me);
            run_one(t);
            continue;
        }
        match trim {
            Some(wait) => {
                me.parker().park_timeout(wait);
            }
            None => me.parker().park(),
        }
        remove_self_from_idle(&me);
    }
}

fn remove_self_from_idle(me: &Arc<LwpState>) {
    let m = mt();
    let mut idle = unpoisoned(&m.idle);
    if let Some(pos) = idle.iter().position(|(x, _)| Arc::ptr_eq(x, me)) {
        idle.remove(pos);
        m.idle_count.store(idle.len(), Ordering::Relaxed);
    }
}

fn run_one(t: Arc<Thread>) {
    t.set_state(ThreadState::Running);
    let q0 = t.queued_cy.swap(0, Ordering::Relaxed);
    sunmt_trace::record_since(sunmt_trace::Hs::RunqWait, q0);
    gauge::inc(Gauge::Dispatches);
    t.ctx_switches.fetch_add(1, Ordering::Relaxed);
    // A fresh quantum: a tick aimed at the previous occupant of this LWP
    // and any PI boost it carried die here, and the thread publishes where
    // it runs so cross-LWP priority changes (and PI waiters) can find it.
    let me = sunmt_lwp::current();
    let hint = me.running_hint();
    let _ = me.take_preempt();
    sunmt_lwp::boost_clear(hint);
    t.on_lwp_hint.store(hint, Ordering::Release);
    probe!(Tag::Dispatch, t.id.0, t.priority());
    sunmt_trace::set_current_thread(t.id.0);
    // Charge this dispatch interval to the thread (per-thread CPU time) —
    // but only once somebody asked for accounting; the clock reads would
    // otherwise dominate the user-level switch cost.
    if crate::timers::accounting_enabled() {
        t.dispatch_cpu0_ns
            .store(sunmt_lwp::cpu_time().as_nanos() as u64, Ordering::Relaxed);
    } else {
        t.dispatch_cpu0_ns
            .store(crate::timers::NOT_SAMPLED, Ordering::Relaxed);
    }
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&t)));
    let sched_ctx: *mut MachContext = LWP_CTL.with(|c| {
        // SAFETY: Only this host thread touches its LwpCtl, and the pointer
        // is consumed before any reentrant access (the switch itself).
        unsafe { &mut (*c.get()).sched_ctx as *mut MachContext }
    });
    {
        // SAFETY: The scheduler owns `t` exclusively right now (it was just
        // popped from the run queue), so the continuation may be resumed;
        // `sched_ctx` stays valid for the lifetime of this LWP.
        let cont = unsafe {
            (*t.cont.get())
                .as_mut()
                .expect("unbound thread without context")
        };
        // SAFETY: As above; no other LWP can resume this continuation.
        unsafe { cont.resume(&mut *sched_ctx) };
    }
    // The thread switched back: commit its requested fate.
    let t = CURRENT
        .with(|c| c.borrow_mut().take())
        .expect("dispatcher lost its current thread");
    t.on_lwp_hint.store(0, Ordering::Release);
    let d0 = t.dispatch_cpu0_ns.load(Ordering::Relaxed);
    if d0 != crate::timers::NOT_SAMPLED {
        let ran = (sunmt_lwp::cpu_time().as_nanos() as u64).saturating_sub(d0);
        t.cpu_ns.fetch_add(ran, Ordering::Relaxed);
        t.dispatch_cpu0_ns
            .store(crate::timers::NOT_SAMPLED, Ordering::Relaxed);
    }
    let action = LWP_CTL.with(|c| {
        // SAFETY: Same single-thread access argument as above.
        unsafe { std::mem::take(&mut (*c.get()).action) }
    });
    let reason: u64 = match &action {
        Action::Yield | Action::None => 0,
        Action::Sleep { .. } => 1,
        Action::Stop => 2,
        Action::Exit => 3,
    };
    probe!(Tag::SwitchOut, t.id.0, reason);
    sunmt_trace::set_current_thread(0);
    match action {
        Action::Yield => make_runnable(t),
        Action::Sleep {
            addr,
            expected,
            deadline,
        } => commit_sleep(t, addr, expected, deadline),
        Action::Stop => commit_stop(t),
        Action::Exit => reap(t),
        Action::None => unreachable!("thread switched out without an action"),
    }
}

/// Suspends the calling unbound thread with `action` and runs the
/// scheduler. Returns when the thread is next dispatched.
pub(crate) fn deschedule(action: Action) {
    let t = maybe_current().expect("deschedule outside a thread");
    debug_assert!(!t.bound, "bound threads block in the kernel, not here");
    let t_ctx: *mut MachContext = {
        // SAFETY: The running thread exclusively owns its own continuation.
        let cont = unsafe {
            (*t.cont.get())
                .as_mut()
                .expect("running thread without context")
        };
        cont.context_ptr()
    };
    let sched_ctx: *const MachContext = LWP_CTL.with(|c| {
        // SAFETY: Single-thread access to this LWP's control block.
        unsafe {
            (*c.get()).action = action;
            &(*c.get()).sched_ctx as *const MachContext
        }
    });
    drop(t);
    // SAFETY: `t_ctx` is this thread's own save slot; `sched_ctx` holds the
    // context the dispatcher saved when it resumed us, on this same LWP.
    unsafe { arch::switch_context(t_ctx, sched_ctx) };
    // Dispatched again (possibly on a different LWP): this is a signal
    // delivery point and a preemption safepoint. The dispatch just consumed
    // this LWP's flag, so the check only fires when a tick (or a priority
    // change) was raised while signal handlers ran — nesting is bounded by
    // the tick.
    crate::signals::poll();
    preempt_check();
}

// ---------------------------------------------------------------------------
// State transitions (executed on the dispatcher stack, or by third parties).

/// Makes a thread runnable, diverting it to `Stopped` if a stop is pending.
pub(crate) fn make_runnable(t: Arc<Thread>) {
    if t.stop_requested.swap(false, Ordering::SeqCst) {
        commit_stop(t);
        return;
    }
    t.set_state(ThreadState::Runnable);
    push_runnable(t);
}

fn push_runnable(t: Arc<Thread>) {
    let m = mt();
    // Run-queue wait clock starts at the enqueue (0 when stats are off, so
    // the dispatcher's matching record is a no-op).
    t.queued_cy.store(sunmt_trace::tick(), Ordering::Relaxed);
    // Pool LWPs enqueue on their own shard (one uncontended lock); every
    // other context — bound threads, the timer LWP, signal handlers —
    // injects globally.
    let placement = match MY_SHARD.with(|c| c.get()) {
        Some(shard) => m.runq.push(shard, t),
        None => m.runq.push_inject(t),
    };
    wake_one_idle(placement);
}

fn wake_one_idle(placement: Placement) {
    let m = mt();
    // The pusher's half of the idle handshake (see `sched_loop`).
    fence(Ordering::SeqCst);
    let lwp = if m.idle_count.load(Ordering::Relaxed) == 0 {
        None
    } else {
        let mut idle = unpoisoned(&m.idle);
        // Prefer the parked LWP whose home shard just received the work —
        // its pop is a local hit; any other idle LWP must steal.
        let pos = match placement {
            Placement::Shard(s) => idle.iter().position(|(_, sh)| *sh == s),
            Placement::Injected => None,
        };
        let lwp = match pos {
            Some(p) => Some(idle.remove(p).0),
            None => idle.pop().map(|(l, _)| l),
        };
        m.idle_count.store(idle.len(), Ordering::Relaxed);
        lwp
    };
    if let Some(lwp) = lwp {
        gauge::inc(Gauge::IdleWakes);
        lwp.parker().unpark();
        return;
    }
    // No idle LWP. Grow if the pool is empty; otherwise the enqueued
    // thread waits for a pool LWP, unless every one is held by a blocking
    // region.
    if m.pool_count.load(Ordering::SeqCst) == 0 {
        add_pool_lwp();
    } else {
        sigwaiting(m);
    }
}

/// Every pool LWP is in a blocking region, and work is queued.
fn all_blocked_with_work(m: &Mt) -> bool {
    m.pool_blocked.load(Ordering::SeqCst) >= m.pool_count.load(Ordering::SeqCst)
        && !m.runq.is_empty()
}

/// The library's `SIGWAITING`, "sent to the process when all its LWPs are
/// waiting for some indefinite, external event", and its handler, which
/// "cause[s] extra LWPs to be created as required to avoid deadlock".
///
/// `pool_blocked` falls only when an LWP runs again after its call
/// returned, so an LWP that is ready but has no CPU yet still counts as
/// blocked. The caller therefore gives up its CPU once before deciding,
/// and grows only if the condition still holds. The grown LWP is surplus
/// over `pool_target`, so it retires once it finds nothing to run.
fn sigwaiting(m: &Mt) {
    if !all_blocked_with_work(m) {
        return;
    }
    sunmt_sys::task::sched_yield();
    if all_blocked_with_work(m) {
        probe!(Tag::SigwaitingPost, m.pool_count.load(Ordering::SeqCst));
        add_pool_lwp();
    }
}

/// Accounting bracket around a pool LWP entering a blocking region: the
/// last available pool LWP to block with work queued posts [`sigwaiting`].
pub(crate) fn pool_enter_blocking() {
    if !on_pool_lwp() {
        return;
    }
    let m = mt();
    m.pool_blocked.fetch_add(1, Ordering::SeqCst);
    sigwaiting(m);
}

/// See [`pool_enter_blocking`].
pub(crate) fn pool_exit_blocking() {
    if on_pool_lwp() {
        mt().pool_blocked.fetch_sub(1, Ordering::SeqCst);
    }
}

fn ensure_pool_min() {
    let m = mt();
    if m.pool_count.load(Ordering::SeqCst) == 0 {
        add_pool_lwp();
    }
}

fn commit_sleep(
    t: Arc<Thread>,
    addr: usize,
    expected: u32,
    deadline: Option<core::time::Duration>,
) {
    let (shard, mut tbl) = mt().sleepers.shard(addr);
    // SAFETY: The park contract (inherited from the futex-shaped
    // BlockStrategy) requires `addr` to point at a live AtomicU32 for as
    // long as anyone may sleep on it.
    let word = unsafe { &*(addr as *const AtomicU32) };
    if word.load(Ordering::SeqCst) == expected && !t.stop_requested.load(Ordering::SeqCst) {
        probe!(Tag::Sleep, t.id.0, addr);
        probe!(Tag::SleepqShard, addr, shard);
        t.set_state(ThreadState::Sleeping);
        let seq = t.sleep_seq.fetch_add(1, Ordering::Relaxed) + 1;
        tbl.insert(addr, Arc::clone(&t));
        drop(tbl);
        if let Some(deadline) = deadline {
            // Armed after the insert so an already-passed deadline finds
            // the thread on its queue; registered outside the sleepers lock
            // (the timer LWP takes sleepers when it fires).
            crate::timeoutq::register(deadline, addr, seq, Arc::downgrade(&t));
        }
    } else {
        drop(tbl);
        // The wake (or a stop) already happened; go straight back around.
        // It still counts as a completed sleep for the timeshare class.
        t.wake_restore();
        make_runnable(t);
    }
}

/// Timer-LWP upcall: a timed user-level sleep reached its deadline. Wakes
/// the thread only if it is still in that same sleep — on `addr`, with the
/// sleep number `seq` that [`commit_sleep`] gave it. Both are checked under
/// `addr`'s shard lock, where a sleep on `addr` is committed, so a deadline
/// whose sleep ended (the thread was woken, and may be asleep again, even
/// on the same word) is a no-op.
pub(crate) fn timeout_wakeup(addr: usize, seq: u64, t: Arc<Thread>) {
    let removed = {
        let (_, mut tbl) = mt().sleepers.shard(addr);
        t.sleep_seq.load(Ordering::Relaxed) == seq && tbl.remove_thread_at(addr, &t)
    };
    if removed {
        gauge::inc(Gauge::TimeoutWakeups);
        probe!(Tag::SleepTimeout, t.id.0, addr);
        t.wake_restore();
        make_runnable(t);
    }
}

pub(crate) fn commit_stop(t: Arc<Thread>) {
    probe!(Tag::Stop, t.id.0);
    t.set_state(ThreadState::Stopped);
    t.stop_requested.store(false, Ordering::SeqCst);
    let waiters = t.stop_waiters.swap(0, Ordering::SeqCst);
    for _ in 0..waiters {
        t.stop_event.v();
    }
}

fn reap(t: Arc<Thread>) {
    // Return the stack to the cache ("a default stack that is cached by the
    // threads package"); borrowed stacks are released untouched.
    let cont = {
        // SAFETY: The thread has exited; nothing will resume it, and the
        // dispatcher owns it exclusively.
        unsafe { (*t.cont.get()).take() }
    };
    if let Some(cont) = cont {
        // SAFETY: The continuation's closure ran to completion (Exit action).
        let stack = unsafe { cont.into_stack() };
        crate::magazine::put_stack(&mt().stacks, stack);
    }
    finish_thread_common(&t);
}

/// Zombie/wait bookkeeping shared by unbound reap and bound-thread exit.
pub(crate) fn finish_thread_common(t: &Arc<Thread>) {
    let m = mt();
    probe!(Tag::ThreadExit, t.id.0);
    if t.flags.contains(CreateFlags::WAIT) {
        t.set_state(ThreadState::Zombie);
        // One RMW on the thread's own word decides who reaps it: a waiter
        // that claimed it first (`CLAIMED -> REAPED`) gets the permit;
        // otherwise (`LIVE -> EXITED`) the next waiter takes it by CAS.
        if t.exit.fetch_or(EXITED, Ordering::SeqCst) == CLAIMED {
            t.exit_sema.v();
        } else {
            notify_any_waiters(m);
        }
    } else {
        t.set_state(ThreadState::Dead);
        m.threads.remove(t.id);
        if !t.bound {
            crate::magazine::retire_thread(m, Arc::clone(t));
        }
    }
}

// ---------------------------------------------------------------------------
// Waiting (thread_wait / waitid).

pub(crate) fn lookup(id: ThreadId) -> Result<Arc<Thread>> {
    mt().threads.get(id).ok_or(MtError::UnknownThread(id))
}

/// Wakes the registered `wait(None)` callers, if there are any, to rescan:
/// a `THREAD_WAIT` thread just exited unclaimed or was claimed. The
/// caller's SeqCst RMW on the thread's exit word comes first, then this
/// SeqCst load; `wait_any` registers, then scans the exit words. So
/// either the scan sees the change or this load sees the registration.
fn notify_any_waiters(m: &Mt) {
    if m.any_waiters.load(Ordering::SeqCst) != 0 {
        m.anywait.fetch_add(1, Ordering::SeqCst);
        sunmt_sync::strategy::unpark(&m.anywait, u32::MAX, false);
    }
}

fn finish_reap(t: &Arc<Thread>) {
    let m = mt();
    m.threads.remove(t.id);
    if !t.bound {
        crate::magazine::retire_thread(m, Arc::clone(t));
    }
}

/// Takes a default-sized stack through the calling LWP's magazine (the
/// depot is the process [`StackCache`]).
pub(crate) fn take_default_stack() -> std::result::Result<Stack, sunmt_sys::Errno> {
    crate::magazine::take_stack(&mt().stacks)
}

pub(crate) fn wait_specific(id: ThreadId) -> Result<ThreadId> {
    let t = lookup(id)?;
    if !t.flags.contains(CreateFlags::WAIT) {
        return Err(MtError::NotWaitable(id));
    }
    if Arc::ptr_eq(&t, &current_thread()) {
        return Err(MtError::CurrentThread);
    }
    match t
        .exit
        .compare_exchange(LIVE, CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
    {
        Ok(_) => {
            // Claimed before it exited: the exit posts `exit_sema` for us
            // alone. The thread left the any-wait pool, which may leave a
            // parked any-waiter with nothing to wait for.
            notify_any_waiters(mt());
            t.exit_sema.p();
        }
        // Exited unclaimed: reap it without blocking, unless an any-wait
        // takes it first.
        Err(EXITED) if t.take_exited() => {}
        Err(_) => return Err(MtError::AlreadyWaited(id)),
    }
    finish_reap(&t);
    Ok(id)
}

/// `wait(None)`: reaps any exited `THREAD_WAIT` thread that no specific
/// waiter claimed. "Any" is the paper's word; the order is not FIFO.
///
/// Registers in `any_waiters`, then scans the registry: an exited thread
/// is taken by its `EXITED -> REAPED` CAS. When none has exited but some
/// unclaimed one is still live, parks on the `anywait` eventcount, which
/// that thread's exit (or claim) bumps; when none is left at all, returns
/// [`MtError::NothingToWait`].
pub(crate) fn wait_any() -> Result<ThreadId> {
    let m = mt();
    let me = current_thread();
    m.any_waiters.fetch_add(1, Ordering::SeqCst);
    let taken = 'scan: loop {
        let seen = m.anywait.load(Ordering::SeqCst);
        let mut live = false;
        for shard in m.threads.shards.iter() {
            for t in unpoisoned(&shard.map).values() {
                if !t.flags.contains(CreateFlags::WAIT) || Arc::ptr_eq(t, &me) {
                    continue;
                }
                match t.exit.load(Ordering::SeqCst) {
                    LIVE => live = true,
                    EXITED if t.take_exited() => break 'scan Some(Arc::clone(t)),
                    _ => {}
                }
            }
        }
        if !live {
            break None;
        }
        sunmt_sync::strategy::park(&m.anywait, seen, false);
    };
    m.any_waiters.fetch_sub(1, Ordering::SeqCst);
    let t = taken.ok_or(MtError::NothingToWait)?;
    finish_reap(&t);
    Ok(t.id)
}

// ---------------------------------------------------------------------------
// Stop / continue.

pub(crate) fn stop_thread(which: Option<ThreadId>) -> Result<()> {
    match which {
        None => {
            stop_self();
            Ok(())
        }
        Some(id) => {
            let t = lookup(id)?;
            if Arc::ptr_eq(&t, &current_thread()) {
                stop_self();
                Ok(())
            } else {
                stop_other(t)
            }
        }
    }
}

fn stop_self() {
    let t = current_thread();
    if t.bound {
        t.set_state(ThreadState::Stopped);
        notify_stoppers(&t);
        t.stop_park.park();
        t.set_state(ThreadState::Running);
    } else {
        deschedule(Action::Stop);
    }
}

fn notify_stoppers(t: &Arc<Thread>) {
    let waiters = t.stop_waiters.swap(0, Ordering::SeqCst);
    for _ in 0..waiters {
        t.stop_event.v();
    }
}

fn stop_other(t: Arc<Thread>) -> Result<()> {
    loop {
        match t.state() {
            ThreadState::Stopped => return Ok(()),
            ThreadState::Zombie | ThreadState::Dead => {
                return Err(MtError::UnknownThread(t.id));
            }
            ThreadState::Runnable => {
                let removed = mt().runq.remove(&t);
                if removed {
                    commit_stop(Arc::clone(&t));
                    return Ok(());
                }
                // It was dispatched under us; re-observe.
            }
            ThreadState::Sleeping => {
                let removed = mt().sleepers.remove_thread(&t);
                if removed {
                    commit_stop(Arc::clone(&t));
                    return Ok(());
                }
            }
            ThreadState::Running => {
                // "thread_stop() does not return until the specified thread
                // is stopped": flag it and wait for the next scheduling
                // point to divert it.
                t.stop_requested.store(true, Ordering::SeqCst);
                t.stop_waiters.fetch_add(1, Ordering::SeqCst);
                if t.state() == ThreadState::Stopped {
                    // commit_stop published `Stopped` before collecting
                    // waiters, so we may have registered too late; withdraw.
                    t.stop_waiters.fetch_sub(1, Ordering::SeqCst);
                    return Ok(());
                }
                t.stop_event.p();
                // Loop to confirm (a racing continue may have restarted it).
            }
        }
    }
}

pub(crate) fn continue_thread(id: ThreadId) -> Result<()> {
    let t = lookup(id)?;
    match t.state() {
        ThreadState::Stopped => {
            probe!(Tag::Continue, t.id.0);
            if t.bound {
                t.set_state(ThreadState::Running);
                t.stop_park.unpark();
            } else {
                t.wake_restore();
                make_runnable(t);
            }
            Ok(())
        }
        ThreadState::Zombie | ThreadState::Dead => Err(MtError::UnknownThread(id)),
        // "The effect of thread_continue() may be delayed" — continuing a
        // thread that is not stopped is a no-op.
        _ => Ok(()),
    }
}

/// Delivery-point check used by bound threads (and the strategy's kernel
/// path): honor a pending `thread_stop`.
pub(crate) fn check_stop_current() {
    let Some(t) = maybe_current() else { return };
    if t.bound {
        if t.stop_requested.swap(false, Ordering::SeqCst) {
            t.set_state(ThreadState::Stopped);
            notify_stoppers(&t);
            t.stop_park.park();
            t.set_state(ThreadState::Running);
        }
    } else if t.stop_requested.load(Ordering::SeqCst) {
        // make_runnable/commit_sleep consume the flag and divert us.
        deschedule(Action::Yield);
    }
}

// ---------------------------------------------------------------------------
// Yield and concurrency control.

pub(crate) fn yield_current() {
    let t = current_thread();
    if t.bound {
        check_stop_current();
        crate::signals::poll();
        sunmt_sys::task::sched_yield();
    } else {
        deschedule(Action::Yield);
    }
}

/// Wakes up to `n` user-level sleepers on `addr` and returns how many it
/// found. A return of `n` tells the caller every requested wake was
/// satisfied at user level, so the kernel-futex half can be skipped.
pub(crate) fn user_unpark(addr: usize, n: usize) -> usize {
    let woken = mt().sleepers.take(addr, n);
    let count = woken.len();
    for t in woken {
        probe!(Tag::Wakeup, t.id.0, addr);
        // The paper's timeshare sleep boost: a completed sleep clears the
        // accumulated CPU penalty, so interactive threads come back at
        // full priority while hogs keep their decay.
        t.wake_restore();
        make_runnable(t);
    }
    count
}

pub(crate) fn set_concurrency(n: usize) {
    let m = mt();
    let target = if n == 0 { 1 } else { n.min(POOL_MAX) };
    m.pool_target.store(target, Ordering::SeqCst);
    while m.pool_count.load(Ordering::SeqCst) < target {
        add_pool_lwp();
    }
    // Prod idle LWPs so surplus ones notice the lower target and retire.
    let idle: Vec<(Arc<LwpState>, usize)> = unpoisoned(&m.idle).clone();
    for (lwp, _) in idle {
        lwp.parker().unpark();
    }
}

pub(crate) fn pool_size() -> usize {
    mt().pool_count.load(Ordering::SeqCst)
}

fn add_pool_lwp() {
    let m = mt();
    if m.pool_count.fetch_add(1, Ordering::SeqCst) >= POOL_MAX {
        m.pool_count.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    match Lwp::spawn_named("sunmt-pool".to_string(), sched_loop) {
        Ok(lwp) => {
            drop(lwp); // Detached; pool membership is the identity.
            gauge::inc(Gauge::PoolGrows);
            probe!(Tag::PoolGrow, m.pool_count.load(Ordering::SeqCst));
            if preempt_ticks() {
                crate::timeoutq::start();
            }
        }
        Err(_) => {
            m.pool_count.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Diagnostic snapshot used by tests and the experiment harness.
///
/// The locked collections are read under one consistent hold. `runnable`
/// sums the run-queue shards' and the injection queue's length
/// advertisements, and the event counts sum every LWP's gauge block
/// ([`sunmt_trace::gauge`]); both are read without stopping the LWPs, so
/// they can lag a concurrent transition. Quiesce the process for exact
/// snapshots, as the tests do.
///
/// Lock ordering (the library's canonical order — nothing else in the
/// library holds two of these at once, so this function defines it):
/// `idle` → a registry shard (one at a time), with any single run-queue
/// shard lock strictly innermost. Sleep-queue shard locks are self-contained: no code path
/// holds two of them, or one together with the locks above, and `sleeping`
/// below sums them shard by shard before `idle` is taken. Any future code
/// that must nest them has to follow the same order.
pub fn stats() -> SchedStats {
    let m = mt();
    let sleeping = m.sleepers.len();
    let g = gauge::totals();
    let idle = unpoisoned(&m.idle);
    let live_threads = m.threads.len();
    SchedStats {
        runnable: m.runq.len(),
        sleeping,
        pool_lwps: m.pool_count.load(Ordering::SeqCst),
        idle_lwps: idle.len(),
        live_threads,
        dispatches: g.get(Gauge::Dispatches),
        pool_grows: g.get(Gauge::PoolGrows),
        timeout_wakeups: g.get(Gauge::TimeoutWakeups),
        steals: m.runq.steal_count(),
        injects: m.runq.inject_count(),
        overflows: m.runq.overflow_count(),
        idle_wakes: g.get(Gauge::IdleWakes),
        preempts: g.get(Gauge::Preempts),
        decays: g.get(Gauge::Decays),
        pi_boosts: g.get(Gauge::PiBoosts),
        magazine_hits: g.get(Gauge::MagazineHits),
        magazine_misses: g.get(Gauge::MagazineMisses),
        futex_wakes_avoided: g.get(Gauge::FutexWakesAvoided),
    }
}

/// The `"sched"` gauge source `sunmt-stat` snapshots: the [`stats`]
/// aggregates, the stack depot's `madvise` calls and magazine exchanges,
/// the per-shard run-queue traffic and the sleep-queue occupancy
/// distribution.
fn sched_stat_source() -> Vec<(String, u64)> {
    let s = stats();
    let m = mt();
    let depot = m.stacks.counts();
    let mut out = vec![
        ("runnable".to_string(), s.runnable as u64),
        ("sleeping".to_string(), s.sleeping as u64),
        ("pool_lwps".to_string(), s.pool_lwps as u64),
        ("idle_lwps".to_string(), s.idle_lwps as u64),
        ("live_threads".to_string(), s.live_threads as u64),
        ("dispatches".to_string(), s.dispatches),
        ("pool_grows".to_string(), s.pool_grows),
        ("timeout_wakeups".to_string(), s.timeout_wakeups),
        ("steals".to_string(), s.steals),
        ("injects".to_string(), s.injects),
        ("overflows".to_string(), s.overflows),
        ("idle_wakes".to_string(), s.idle_wakes),
        ("preempts".to_string(), s.preempts),
        ("decays".to_string(), s.decays),
        ("pi_boosts".to_string(), s.pi_boosts),
        ("magazine_hits".to_string(), s.magazine_hits),
        ("magazine_misses".to_string(), s.magazine_misses),
        ("futex_wakes_avoided".to_string(), s.futex_wakes_avoided),
        ("timeouts_armed".into(), crate::timeoutq::armed() as u64),
        ("stack_advises".into(), depot.advises),
        ("stack_depot_batches".into(), depot.batches),
    ];
    for (i, sh) in m.runq.shard_stats().iter().enumerate() {
        out.push((format!("runq_shard{i}_pushes"), sh.pushes));
        out.push((format!("runq_shard{i}_pops"), sh.pops));
        out.push((format!("runq_shard{i}_stolen"), sh.stolen));
        out.push((format!("runq_shard{i}_len"), sh.len as u64));
    }
    let lens = m.sleepers.shard_lens();
    out.push((
        "sleepq_occupied_shards".to_string(),
        lens.iter().filter(|l| **l > 0).count() as u64,
    ));
    out.push((
        "sleepq_max_shard_len".to_string(),
        lens.iter().copied().max().unwrap_or(0) as u64,
    ));
    out
}

/// See [`stats`].
#[derive(Clone, Copy, Debug)]
pub struct SchedStats {
    /// Threads on the run queue.
    pub runnable: usize,
    /// Threads on sleep queues.
    pub sleeping: usize,
    /// Pool LWPs serving unbound threads.
    pub pool_lwps: usize,
    /// Pool LWPs currently parked idle.
    pub idle_lwps: usize,
    /// Registered thread objects (incl. zombies and adopted host threads
    /// that are still running).
    pub live_threads: usize,
    /// Total user-level dispatches since library init.
    pub dispatches: u64,
    /// Total pool-growth events since library init.
    pub pool_grows: u64,
    /// Timed user-level sleeps ended by their own deadline since library
    /// init: real expiries only. A deadline whose sleep was already ended
    /// by a wake — even if the thread sleeps on the same word again —
    /// does nothing and is not counted.
    pub timeout_wakeups: u64,
    /// Threads taken from another LWP's run-queue shard since library init.
    pub steals: u64,
    /// Pushes routed through the global injection queue since library init.
    pub injects: u64,
    /// Owner pushes that spilled to injection because their shard was full
    /// (a subset of `injects`).
    pub overflows: u64,
    /// Parked pool LWPs unparked because a push handed them work.
    pub idle_wakes: u64,
    /// Running threads switched out at a preemption tick because a
    /// higher-priority thread was runnable.
    pub preempts: u64,
    /// Timeshare decay steps applied at preemption ticks.
    pub decays: u64,
    /// Effective priority-inheritance boosts pushed by blocked waiters.
    pub pi_boosts: u64,
    /// Create-path magazine/depot hits (stacks and thread objects).
    pub magazine_hits: u64,
    /// Create-path magazine/depot misses (fresh allocations).
    pub magazine_misses: u64,
    /// Kernel `futex_wake` calls skipped on private words because no
    /// kernel thread was parked in the word's address bucket (process
    /// lifetime, including wakes made before library init).
    pub futex_wakes_avoided: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exits that nobody any-waits for post nothing. (An any-wait
    /// semaphore once gained a permit per unclaimed exit, and its `u32`
    /// count wrapped after 2^32 of them.) No unit test in this crate
    /// any-waits, so the eventcount must not move at all.
    #[test]
    fn unclaimed_exits_post_nothing_without_an_any_wait() {
        const BATCH: usize = 32;
        const CHILDREN: usize = 100_000;
        init();
        let before = mt().anywait.load(Ordering::SeqCst);
        let mut ids = Vec::with_capacity(BATCH);
        for _ in 0..CHILDREN / BATCH {
            for _ in 0..BATCH {
                ids.push(
                    crate::ThreadBuilder::new()
                        .flags(CreateFlags::WAIT)
                        .spawn(|| {})
                        .expect("spawn"),
                );
            }
            // Every child exits before its waiter comes for it by id.
            for &id in &ids {
                let t = lookup(id).expect("unreaped child is registered");
                while t.exit.load(Ordering::SeqCst) != EXITED {
                    std::thread::yield_now();
                }
            }
            for id in ids.drain(..) {
                assert_eq!(crate::wait(Some(id)).expect("join"), id);
            }
        }
        assert_eq!(mt().any_waiters.load(Ordering::SeqCst), 0);
        assert_eq!(
            mt().anywait.load(Ordering::SeqCst),
            before,
            "an exit with no any-wait registered posted the any-wait count"
        );
    }
}

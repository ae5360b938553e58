//! The I/O demultiplexer: per-pool-LWP poller shards, many parked threads.
//!
//! The window-server scenario in the paper needs "one thread per client"
//! without one *LWP* per client. The first cut of this module met that with
//! a single `epoll`-owning poller LWP — and inherited its serial
//! bottleneck: every register, every readiness event, and every wakeup in
//! the process funneled through one descriptor table, one `epoll_ctl`
//! stream, and one LWP's attention. This version shards the poller the
//! same way `ShardedRunQueue` shards the dispatcher:
//!
//! * **One shard per pool LWP** (capped at [`MAX_SHARDS`]; the count is
//!   the pool size when the poller first runs, i.e. the `set_concurrency`
//!   level): a shard owns an epoll set, a wakeup eventfd, a descriptor
//!   table, and a pending batch of `epoll_ctl` operations. An unbound
//!   thread arms its fd on the shard of the LWP it is running on
//!   ([`sunmt::current_shard`]), so register/ready/unpark traffic stays
//!   LWP-local exactly like owner-side run-queue push/pop; callers off the
//!   pool fall back to round-robin, the run queue's injection discipline.
//! * **Batched control traffic**: `wait` does not call `epoll_ctl`. It
//!   appends the operation to the shard's pending batch (under the fd
//!   table lock, so two racing waiters' ADD/MOD ops cannot reorder against
//!   the table's armed-mask bookkeeping) and kicks the shard's eventfd
//!   only on the empty→non-empty transition. The shard's poller LWP — the
//!   batch's only flusher — applies the whole batch with a plain
//!   `epoll_ctl` loop at its park boundary, after processing events and
//!   before re-entering `epoll_wait`. That keeps the control system calls
//!   off the pool LWP the waiter was running on. The flush swaps the batch
//!   out under its lock, so operations reach the kernel in enqueue order
//!   (a close-enqueued `DEL` can never leapfrog the `ADD` of a reused fd
//!   number). Level-triggered registration makes the deferral safe:
//!   readiness that exists at flush time is reported by the very next
//!   `epoll_wait`.
//!
//! Deferred arming moves failure reporting off the caller: a bad
//! descriptor is discovered at flush time, so each waiter carries an error
//! word beside its ready word and the flusher wakes it with the real errno
//! (`EBADF`, `EPERM`, ...) instead of letting it hang. [`cancel_fd`] uses
//! the same path to resolve the close-while-parked race: `sunmt_io::close`
//! errors out every parked waiter on the fd *before* `close(2)` runs.
//!
//! Lock order: a shard's fd table lock is taken before its batch lock
//! (waiter enqueue path). The flusher takes the batch lock only to swap
//! the batch out and the fd table lock only to deliver an arm failure,
//! never both at once. No lock is held across park, unpark, `epoll_ctl`
//! or `epoll_wait`.

use core::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use core::time::Duration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, OnceLock};

use sunmt::runq::unpoisoned;
use sunmt_lwp::{registry, Lwp};
use sunmt_sync::strategy;
use sunmt_sys::fd::{self, EpollEvent};
use sunmt_sys::time::monotonic_now;
use sunmt_sys::Errno;
use sunmt_trace::{probe, Tag};

/// Which readiness a waiter needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    /// Readable (also used for `accept`).
    Read,
    /// Writable.
    Write,
}

/// Ready-word values.
const WAITING: u32 = 0;
const READY: u32 = 1;

/// `epoll_event.data` key reserved for a shard's wakeup eventfd.
const WAKE_KEY: u64 = u64::MAX;

/// Hard cap on poller shards (each costs an epoll fd, an eventfd, and an
/// LWP).
const MAX_SHARDS: usize = 64;

/// One parked (or about-to-park) thread's ready flag. The waiter parks on
/// `word` while it holds [`WAITING`]; a waker stores the raw errno into
/// `err` (0 = genuine readiness), flips `word` to [`READY`], and unparks.
/// Shared `Arc` ownership keeps the words alive for whichever side
/// finishes last.
struct Waiter {
    word: AtomicU32,
    err: AtomicI32,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            word: AtomicU32::new(WAITING),
            err: AtomicI32::new(0),
        })
    }
}

/// Waiters interested in one fd, plus the event mask the shard intends to
/// have armed in the kernel for it (0 = not registered). With batching the
/// mask is *intent*: the matching `epoll_ctl` may still sit in the pending
/// batch, which is harmless because batch order matches intent order.
#[derive(Default)]
struct FdEntry {
    read: Vec<Arc<Waiter>>,
    write: Vec<Arc<Waiter>>,
    armed: u32,
}

impl FdEntry {
    fn wanted_mask(&self) -> u32 {
        let mut mask = 0;
        if !self.read.is_empty() {
            mask |= fd::EPOLLIN | fd::EPOLLRDHUP;
        }
        if !self.write.is_empty() {
            mask |= fd::EPOLLOUT;
        }
        mask
    }

    fn take_waiters(&mut self) -> Vec<Arc<Waiter>> {
        let mut all = std::mem::take(&mut self.read);
        all.append(&mut self.write);
        all
    }
}

/// One queued `epoll_ctl` operation of a shard's batch.
#[derive(Clone, Copy)]
struct CtlOp {
    /// `EPOLL_CTL_ADD` / `EPOLL_CTL_MOD` / `EPOLL_CTL_DEL`.
    op: i32,
    fd: i32,
    /// Requested event mask (ignored for `EPOLL_CTL_DEL`).
    events: u32,
}

/// Per-shard monotonic counters, exported through the `"io"` stat source.
#[derive(Default)]
struct ShardCounters {
    registrations: AtomicU64,
    readies: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    timeouts: AtomicU64,
    epoll_waits: AtomicU64,
    batch_flushes: AtomicU64,
    batched_ops: AtomicU64,
    ctl_syscalls: AtomicU64,
    pending: AtomicUsize,
}

/// One poller shard: an epoll set, its wakeup eventfd, the fds parked on
/// it, and the pending control-plane batch.
struct Shard {
    index: usize,
    epfd: i32,
    /// Kicks this shard's LWP out of `epoll_wait` when the pending batch
    /// goes empty→non-empty (interest changes are *deferred*, so unlike
    /// the single-poller design the sleeping LWP must be told).
    evfd: i32,
    fds: Mutex<HashMap<i32, FdEntry>>,
    /// Coalesced `epoll_ctl` operations awaiting a flush. Appended under
    /// the `fds` lock; drained only by this shard's LWP ([`Shard::flush`]).
    batch: Mutex<Vec<CtlOp>>,
    n: ShardCounters,
}

impl Shard {
    fn new(index: usize) -> Shard {
        let epfd = fd::epoll_create1(fd::EPOLL_CLOEXEC).expect("epoll_create1 failed");
        let evfd = fd::eventfd2(0, fd::EFD_NONBLOCK | fd::EFD_CLOEXEC).expect("eventfd2 failed");
        let ev = EpollEvent {
            events: fd::EPOLLIN,
            data: WAKE_KEY,
        };
        fd::epoll_ctl(epfd, fd::EPOLL_CTL_ADD, evfd, Some(&ev))
            .expect("failed to register the wakeup eventfd");
        Shard {
            index,
            epfd,
            evfd,
            fds: Mutex::new(HashMap::new()),
            batch: Mutex::new(Vec::new()),
            n: ShardCounters::default(),
        }
    }

    /// Appends one control operation to the pending batch and kicks the
    /// shard LWP on the empty→non-empty transition. Call with the fd
    /// table locked — that is what keeps two racing waiters' operations
    /// in the same order as their `armed`-mask updates.
    fn enqueue_ctl_locked(&self, op: CtlOp) {
        let was_empty = {
            let mut batch = unpoisoned(&self.batch);
            let was_empty = batch.is_empty();
            batch.push(op);
            was_empty
        };
        if was_empty {
            // EAGAIN (counter at max) still leaves the eventfd readable.
            let _ = fd::write(self.evfd, &1u64.to_ne_bytes());
        }
    }

    /// Records the intent `want` for `io_fd` and enqueues the control
    /// operation realizing it. Call with the fd table locked.
    fn arm_locked(&self, io_fd: i32, entry: &mut FdEntry, want: u32) {
        if want == entry.armed {
            return;
        }
        let op = if entry.armed == 0 {
            fd::EPOLL_CTL_ADD
        } else if want == 0 {
            fd::EPOLL_CTL_DEL
        } else {
            fd::EPOLL_CTL_MOD
        };
        self.enqueue_ctl_locked(CtlOp {
            op,
            fd: io_fd,
            events: want,
        });
        entry.armed = want;
    }

    /// Re-arms `io_fd` for the waiters that remain, or drops it from the
    /// table (enqueueing the kernel-side `DEL`) when none do. Call with
    /// the table locked.
    fn rearm_or_remove_locked(&self, io_fd: i32, fds: &mut HashMap<i32, FdEntry>) {
        let Some(entry) = fds.get_mut(&io_fd) else {
            return;
        };
        let want = entry.wanted_mask();
        self.arm_locked(io_fd, entry, want);
        if want == 0 {
            fds.remove(&io_fd);
        }
    }

    /// Takes and applies the pending batch. Called only from this shard's
    /// own LWP.
    fn flush(&self) {
        let ops = std::mem::take(&mut *unpoisoned(&self.batch));
        if ops.is_empty() {
            return;
        }
        self.n.batch_flushes.fetch_add(1, Ordering::Relaxed);
        self.n
            .batched_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        probe!(Tag::IoBatchFlush, self.index as u64, ops.len() as u64);
        for op in &ops {
            let Err(e) = self.apply(*op) else {
                continue;
            };
            if op.op == fd::EPOLL_CTL_DEL {
                continue;
            }
            // Deliver a deferred arm failure: the waiters of a failed
            // ADD/MOD would otherwise park forever on a descriptor the
            // kernel refused to watch.
            let entry = unpoisoned(&self.fds).remove(&op.fd);
            for w in entry.map(|mut e| e.take_waiters()).unwrap_or_default() {
                self.wake(&w, op.fd, e.raw());
            }
        }
    }

    /// Applies one operation against this shard's epoll set, with the
    /// EEXIST→MOD / ENOENT→ADD memo-loss fallbacks (a dup'd or recycled
    /// descriptor can make the kernel's view diverge from the table's).
    fn apply(&self, op: CtlOp) -> Result<(), Errno> {
        let retry = match (op.op, self.epoll_ctl(op)) {
            (_, Ok(())) => return Ok(()),
            (fd::EPOLL_CTL_ADD, Err(Errno::EEXIST)) => fd::EPOLL_CTL_MOD,
            (fd::EPOLL_CTL_MOD, Err(Errno::ENOENT)) => fd::EPOLL_CTL_ADD,
            // The fd was closed (the kernel auto-removed it) or never
            // armed; either way "not watched" is what DEL wanted.
            (fd::EPOLL_CTL_DEL, Err(Errno::ENOENT | Errno::EBADF)) => return Ok(()),
            (_, Err(e)) => return Err(e),
        };
        self.epoll_ctl(CtlOp { op: retry, ..op })
    }

    /// One direct `epoll_ctl(2)`.
    fn epoll_ctl(&self, op: CtlOp) -> Result<(), Errno> {
        self.n.ctl_syscalls.fetch_add(1, Ordering::Relaxed);
        let ev = EpollEvent {
            events: op.events,
            data: op.fd as u64,
        };
        let arg = (op.op != fd::EPOLL_CTL_DEL).then_some(&ev);
        fd::epoll_ctl(self.epfd, op.op, op.fd, arg)
    }

    /// Hands a claimed waiter its verdict (`err` = 0 for readiness, else
    /// a raw errno) and unparks it.
    fn wake(&self, w: &Waiter, io_fd: i32, err: i32) {
        w.err.store(err, Ordering::SeqCst);
        w.word.store(READY, Ordering::SeqCst);
        probe!(Tag::IoUnpark, io_fd as u64);
        self.n.unparks.fetch_add(1, Ordering::Relaxed);
        strategy::unpark(&w.word, u32::MAX, false);
    }
}

/// The process-wide demultiplexer: all shards plus the round-robin cursor
/// for callers with no home shard.
pub(crate) struct Poller {
    shards: Box<[Shard]>,
    rr: AtomicUsize,
}

static POLLER: OnceLock<Poller> = OnceLock::new();
static START: Once = Once::new();

/// The poller singleton, spawning one shard LWP per pool LWP on first use.
pub(crate) fn global() -> &'static Poller {
    let p = POLLER.get_or_init(|| {
        let nshards = sunmt::concurrency().clamp(1, MAX_SHARDS);
        Poller {
            shards: (0..nshards).map(Shard::new).collect(),
            rr: AtomicUsize::new(0),
        }
    });
    // The LWPs are spawned outside get_or_init: their loops touch the
    // singleton, and re-entering a OnceLock initializer deadlocks.
    START.call_once(|| {
        sunmt_stat::register_source("io", io_stat_source);
        for i in 0..p.shards.len() {
            let lwp = Lwp::spawn_named(format!("sunmt-io-shard-{i}"), move || {
                shard_loop(&global().shards[i])
            })
            .expect("failed to spawn a poller shard LWP");
            drop(lwp); // Detached; it serves the whole process lifetime.
        }
    });
    p
}

/// The poller if it has ever been started (for stats without side effects).
pub(crate) fn maybe_global() -> Option<&'static Poller> {
    POLLER.get()
}

/// The `"io"` gauge source `sunmt-stat` snapshots: process-wide totals
/// plus per-shard rows, so the lockstat report shows whether arm/ready
/// traffic actually spread across the shards.
fn io_stat_source() -> Vec<(String, u64)> {
    let Some(p) = maybe_global() else {
        return Vec::new();
    };
    let t = p.totals();
    let mut rows = vec![
        ("shards".to_string(), p.shards.len() as u64),
        ("registrations".to_string(), t.registrations),
        ("readies".to_string(), t.readies),
        ("parks".to_string(), t.parks),
        ("unparks".to_string(), t.unparks),
        ("timeouts".to_string(), t.timeouts),
        ("epoll_waits".to_string(), t.epoll_waits),
        ("batch_flushes".to_string(), t.batch_flushes),
        ("batched_ops".to_string(), t.batched_ops),
        ("ctl_syscalls".to_string(), t.ctl_syscalls),
        ("pending".to_string(), t.pending_waiters as u64),
    ];
    for s in p.shards.iter() {
        let i = s.index;
        rows.push((
            format!("shard{i}_registrations"),
            s.n.registrations.load(Ordering::Relaxed),
        ));
        rows.push((
            format!("shard{i}_readies"),
            s.n.readies.load(Ordering::Relaxed),
        ));
        rows.push((
            format!("shard{i}_flushes"),
            s.n.batch_flushes.load(Ordering::Relaxed),
        ));
        rows.push((
            format!("shard{i}_pending"),
            s.n.pending.load(Ordering::Relaxed) as u64,
        ));
    }
    rows
}

/// Everything `sunmt_io::stats` reports, summed over the shards.
pub(crate) struct Totals {
    pub registrations: u64,
    pub readies: u64,
    pub parks: u64,
    pub unparks: u64,
    pub timeouts: u64,
    pub epoll_waits: u64,
    pub batch_flushes: u64,
    pub batched_ops: u64,
    pub ctl_syscalls: u64,
    pub pending_waiters: usize,
}

impl Poller {
    /// The shard an arm from this calling context belongs on: the current
    /// pool LWP's home shard, or round-robin for strangers (bound
    /// threads, host threads) — registration's analogue of run-queue
    /// injection.
    fn pick(&self) -> &Shard {
        let i = match sunmt::current_shard() {
            Some(s) => s % self.shards.len(),
            None => self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len(),
        };
        &self.shards[i]
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn totals(&self) -> Totals {
        let mut t = Totals {
            registrations: 0,
            readies: 0,
            parks: 0,
            unparks: 0,
            timeouts: 0,
            epoll_waits: 0,
            batch_flushes: 0,
            batched_ops: 0,
            ctl_syscalls: 0,
            pending_waiters: 0,
        };
        for s in self.shards.iter() {
            t.registrations += s.n.registrations.load(Ordering::Relaxed);
            t.readies += s.n.readies.load(Ordering::Relaxed);
            t.parks += s.n.parks.load(Ordering::Relaxed);
            t.unparks += s.n.unparks.load(Ordering::Relaxed);
            t.timeouts += s.n.timeouts.load(Ordering::Relaxed);
            t.epoll_waits += s.n.epoll_waits.load(Ordering::Relaxed);
            t.batch_flushes += s.n.batch_flushes.load(Ordering::Relaxed);
            t.batched_ops += s.n.batched_ops.load(Ordering::Relaxed);
            t.ctl_syscalls += s.n.ctl_syscalls.load(Ordering::Relaxed);
            t.pending_waiters += s.n.pending.load(Ordering::Relaxed);
        }
        t
    }

    /// Registers interest and parks until `fd` is ready in direction `dir`
    /// or `deadline` (absolute monotonic) passes — then `Err(ETIMEDOUT)`.
    ///
    /// Must be called from an unbound thread: the park goes through the
    /// installed blocking strategy and lands on the user-level sleep queue,
    /// freeing this LWP.
    pub(crate) fn wait(
        &self,
        io_fd: i32,
        dir: Dir,
        deadline: Option<Duration>,
    ) -> Result<(), Errno> {
        let shard = self.pick();
        let w = Waiter::new();
        {
            let mut fds = unpoisoned(&shard.fds);
            let entry = fds.entry(io_fd).or_default();
            match dir {
                Dir::Read => entry.read.push(Arc::clone(&w)),
                Dir::Write => entry.write.push(Arc::clone(&w)),
            }
            let want = entry.wanted_mask();
            shard.arm_locked(io_fd, entry, want);
        }
        probe!(Tag::IoRegister, io_fd as u64, (dir == Dir::Write) as u64);
        shard.n.registrations.fetch_add(1, Ordering::Relaxed);
        shard.n.pending.fetch_add(1, Ordering::Relaxed);
        let t0 = sunmt_trace::tick();
        let result = self.park(shard, io_fd, dir, deadline, &w);
        sunmt_trace::record_since(sunmt_trace::Hs::IoWait, t0);
        shard.n.pending.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn park(
        &self,
        shard: &Shard,
        io_fd: i32,
        dir: Dir,
        deadline: Option<Duration>,
        w: &Arc<Waiter>,
    ) -> Result<(), Errno> {
        loop {
            if w.word.load(Ordering::SeqCst) == READY {
                let raw = w.err.load(Ordering::SeqCst);
                return if raw == 0 {
                    Ok(())
                } else {
                    Err(Errno::from_raw(raw))
                };
            }
            match deadline {
                None => {
                    probe!(Tag::IoPark, io_fd as u64);
                    shard.n.parks.fetch_add(1, Ordering::Relaxed);
                    strategy::park(&w.word, WAITING, false);
                }
                Some(d) => {
                    let now = monotonic_now();
                    if now >= d {
                        let mut fds = unpoisoned(&shard.fds);
                        if let Some(entry) = fds.get_mut(&io_fd) {
                            let list = match dir {
                                Dir::Read => &mut entry.read,
                                Dir::Write => &mut entry.write,
                            };
                            if let Some(pos) = list.iter().position(|x| Arc::ptr_eq(x, w)) {
                                // Still queued: no waker has claimed us, so
                                // the timeout wins. Deregister.
                                list.remove(pos);
                                shard.rearm_or_remove_locked(io_fd, &mut fds);
                                drop(fds);
                                probe!(Tag::IoTimeout, io_fd as u64);
                                shard.n.timeouts.fetch_add(1, Ordering::Relaxed);
                                return Err(Errno::ETIMEDOUT);
                            }
                        }
                        // A waker claimed us concurrently; its verdict wins
                        // (the unpark of our word is benign).
                        drop(fds);
                        let raw = w.err.load(Ordering::SeqCst);
                        return if raw == 0 {
                            Ok(())
                        } else {
                            Err(Errno::from_raw(raw))
                        };
                    }
                    probe!(Tag::IoPark, io_fd as u64);
                    shard.n.parks.fetch_add(1, Ordering::Relaxed);
                    strategy::park_timeout(&w.word, WAITING, false, d - now);
                }
            }
        }
    }

    /// Resolves the close-while-parked race: errors out (with `EBADF`)
    /// every waiter parked on `io_fd`, on every shard, and enqueues the
    /// kernel-side deregistration. Called by `sunmt_io::close` *before*
    /// `close(2)`, because the kernel silently drops a closed fd from its
    /// epoll sets — without this sweep a parked waiter would hang forever.
    pub(crate) fn cancel_fd(&self, io_fd: i32) {
        for shard in self.shards.iter() {
            let woken = {
                let mut fds = unpoisoned(&shard.fds);
                let Some(mut entry) = fds.remove(&io_fd) else {
                    continue;
                };
                if entry.armed != 0 {
                    // Applied after close(2) it reports ENOENT/EBADF, which
                    // the flusher ignores; enqueueing (FIFO) rather than
                    // calling keeps it ordered before any re-registration
                    // of a recycled fd number on this shard.
                    shard.enqueue_ctl_locked(CtlOp {
                        op: fd::EPOLL_CTL_DEL,
                        fd: io_fd,
                        events: 0,
                    });
                }
                entry.take_waiters()
            };
            for w in woken {
                shard.wake(&w, io_fd, Errno::EBADF.raw());
            }
        }
    }
}

/// One shard's poller loop: flush the pending control batch at the park
/// boundary, sleep in `epoll_wait`, wake the ready fds' waiters, repeat.
fn shard_loop(shard: &Shard) {
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    loop {
        // Park boundary: apply this shard's coalesced epoll_ctl traffic
        // before sleeping (level-triggered ⇒ anything already ready is
        // reported by the epoll_wait below; nothing is lost to deferral).
        shard.flush();
        shard.n.epoll_waits.fetch_add(1, Ordering::Relaxed);
        // A shard LWP's wait is the canonical "indefinite, external wait"
        // of the paper's SIGWAITING accounting.
        let t0 = sunmt_trace::tick();
        let n = registry::global().indefinite_wait(|| fd::epoll_wait(shard.epfd, &mut events, -1));
        sunmt_trace::record_since(sunmt_trace::Hs::PollerWait, t0);
        let n = match n {
            Ok(n) => n,
            Err(Errno::EINTR) => continue,
            Err(e) => unreachable!("epoll_wait on a private epoll fd failed: {e}"),
        };
        for ev in &events[..n] {
            let data = ev.data;
            let mask = ev.events;
            if data == WAKE_KEY {
                let mut drain = [0u8; 8];
                let _ = fd::read(shard.evfd, &mut drain);
                // The batch this kick announced is flushed at the top of
                // the loop, before the next sleep.
                continue;
            }
            let io_fd = data as i32;
            probe!(Tag::IoReady, io_fd as u64, mask as u64);
            shard.n.readies.fetch_add(1, Ordering::Relaxed);
            let woken = {
                let mut fds = unpoisoned(&shard.fds);
                let Some(entry) = fds.get_mut(&io_fd) else {
                    // Every waiter timed out (or the fd was cancelled)
                    // between the kernel queueing this event and us
                    // processing it; the deregistration DEL is already in
                    // the batch.
                    continue;
                };
                let error = mask & (fd::EPOLLERR | fd::EPOLLHUP | fd::EPOLLRDHUP) != 0;
                let mut woken = Vec::new();
                if error || mask & fd::EPOLLIN != 0 {
                    woken.append(&mut entry.read);
                }
                if error || mask & fd::EPOLLOUT != 0 {
                    woken.append(&mut entry.write);
                }
                shard.rearm_or_remove_locked(io_fd, &mut fds);
                woken
            };
            for w in woken {
                shard.wake(&w, io_fd, 0);
            }
        }
    }
}

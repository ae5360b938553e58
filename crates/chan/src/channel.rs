//! Channel endpoints and the shared channel core.
//!
//! A channel is the [`Ring`] fast path plus an eventcount-style parking
//! protocol borrowed from the condvar's seq-word discipline:
//!
//! * Uncontended send/recv is a ring CAS — no locks, no event-word
//!   writes, no syscalls.
//! * A blocked side registers in a waiter count, snapshots its event
//!   word, re-checks the queue, and parks through
//!   [`sunmt_sync::strategy::park`] — an unbound thread lands on the
//!   user-level sleep queue and its LWP runs something else.
//! * The waking side bumps the event word and issues one
//!   `strategy::unpark(1)` *only when the waiter count says someone is
//!   parked*, so a send to a polling receiver is free and a send to a
//!   blocked unbound receiver is one user-level wake. The waiter count
//!   still includes a receiver that was woken but not yet dispatched, so
//!   a send in that window finds nobody on the sleep queue; the strategy
//!   then makes the kernel `futex_wake` only if a kernel thread (a bound
//!   receiver) is parked in the event word's address bucket, and an
//!   all-unbound pipeline makes no wake system call at all.
//!
//! Unbounded channels keep the same ring as their fast path and spill
//! into a mutex-guarded `VecDeque` only while the ring is full; per-sender
//! FIFO is preserved because a sender never writes the ring while the
//! spill holds messages.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU32, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sunmt_sync::strategy;
use sunmt_trace::gauge::{self, Gauge};
use sunmt_trace::{Hs, Tag};

use crate::error::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};
use crate::queue::Ring;

// ---------------------------------------------------------------------
// Always-on gauges (counted per LWP by `sunmt_trace::gauge`), reported
// through the "chan" stat source.

fn chan_stat_source() -> Vec<(String, u64)> {
    let t = gauge::totals();
    [
        ("channels", Gauge::Channels),
        ("sends", Gauge::Sends),
        ("recvs", Gauge::Recvs),
        ("recv_parks", Gauge::RecvParks),
        ("send_parks", Gauge::SendParks),
        ("spills", Gauge::Spills),
        ("select_waits", Gauge::SelectWaits),
        ("select_wakes", Gauge::SelectWakes),
    ]
    .into_iter()
    .map(|(k, g)| (k.to_string(), t.get(g)))
    .collect()
}

fn register_stat_source_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| sunmt_stat::register_source("chan", chan_stat_source));
}

// ---------------------------------------------------------------------
// One-shot wake registrations (select waiters).

/// A select waiter's private event word; registered as a one-shot hook
/// with every channel the select covers, fired (once) by whichever sends
/// first. Hooks are drained when they fire and select re-registers on
/// every wait, so a stale hook is at worst one spurious wake. (`pub` for
/// visibility bookkeeping only — the `channel` module is private, so
/// this never leaves the crate.)
pub struct SelectEvent {
    pub(crate) word: AtomicU32,
}

impl SelectEvent {
    pub(crate) fn new() -> Arc<SelectEvent> {
        Arc::new(SelectEvent {
            word: AtomicU32::new(0),
        })
    }

    fn fire(&self) {
        self.word.fetch_add(1, SeqCst);
        strategy::unpark(&self.word, 1, false);
    }
}

// ---------------------------------------------------------------------
// The shared channel core.

/// Spill storage for unbounded channels: a FIFO the senders overflow
/// into while the ring is full. `len` is read lock-free to keep the
/// empty-spill fast path away from the mutex.
struct Spill<T> {
    len: AtomicUsize,
    q: Mutex<VecDeque<T>>,
}

pub(crate) struct Chan<T> {
    ring: Ring<T>,
    /// `Some` for unbounded channels.
    spill: Option<Spill<T>>,
    /// Bumped when a message arrives (or the channel disconnects);
    /// blocked receivers park on it.
    recv_event: AtomicU32,
    /// Bumped when capacity frees up; blocked senders park on it.
    send_event: AtomicU32,
    recv_waiters: AtomicU32,
    send_waiters: AtomicU32,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// One-shot select wake registrations, gated by `hook_count` so the
    /// send fast path never touches the mutex.
    hooks: Mutex<Vec<Arc<SelectEvent>>>,
    hook_count: AtomicUsize,
}

impl<T> Chan<T> {
    fn addr(&self) -> usize {
        self as *const Chan<T> as *const () as usize
    }

    pub(crate) fn len(&self) -> usize {
        let spilled = self.spill.as_ref().map_or(0, |s| s.len.load(SeqCst));
        self.ring.len() + spilled
    }

    /// Whether a `recv` would return without parking: a message is (or
    /// appears to be) present, or the senders are gone.
    pub(crate) fn recv_ready(&self) -> bool {
        self.len() > 0 || self.senders.load(SeqCst) == 0
    }

    /// Registers a select waiter's event word, deduplicating
    /// re-registrations from the same waiter (select loops re-register
    /// every pass).
    pub(crate) fn register_hook(&self, ev: Arc<SelectEvent>) {
        let mut hooks = self.hooks.lock().unwrap_or_else(|e| e.into_inner());
        if !hooks.iter().any(|e| Arc::ptr_eq(e, &ev)) {
            hooks.push(ev);
        }
        self.hook_count.store(hooks.len(), SeqCst);
    }

    fn fire_hooks(&self) {
        let drained = {
            let mut hooks = self.hooks.lock().unwrap_or_else(|e| e.into_inner());
            self.hook_count.store(0, SeqCst);
            std::mem::take(&mut *hooks)
        };
        for ev in drained {
            sunmt_trace::probe!(Tag::SelectWake, self.addr(), ev.word.as_ptr() as usize);
            gauge::inc(Gauge::SelectWakes);
            ev.fire();
        }
    }

    /// Wakes everything on both sides; called when either side's last
    /// endpoint drops so no waiter sleeps through a disconnect.
    fn wake_all_for_disconnect(&self) {
        self.recv_event.fetch_add(1, SeqCst);
        strategy::unpark(&self.recv_event, u32::MAX, false);
        self.send_event.fetch_add(1, SeqCst);
        strategy::unpark(&self.send_event, u32::MAX, false);
        if self.hook_count.load(SeqCst) > 0 {
            self.fire_hooks();
        }
    }
}

impl<T: Send> Chan<T> {
    fn new(cap: Option<usize>) -> Arc<Chan<T>> {
        register_stat_source_once();
        gauge::inc(Gauge::Channels);
        Arc::new(Chan {
            ring: Ring::with_capacity(cap.unwrap_or(UNBOUNDED_RING)),
            spill: cap.is_none().then(|| Spill {
                len: AtomicUsize::new(0),
                q: Mutex::new(VecDeque::new()),
            }),
            recv_event: AtomicU32::new(0),
            send_event: AtomicU32::new(0),
            recv_waiters: AtomicU32::new(0),
            send_waiters: AtomicU32::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            hooks: Mutex::new(Vec::new()),
            hook_count: AtomicUsize::new(0),
        })
    }

    fn lock_spill<'a>(&self, s: &'a Spill<T>) -> std::sync::MutexGuard<'a, VecDeque<T>> {
        s.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    // -- send side ----------------------------------------------------

    fn try_send_inner(&self, v: T) -> Result<(), TrySendError<T>> {
        if self.receivers.load(SeqCst) == 0 {
            return Err(TrySendError::Disconnected(v));
        }
        let Some(sp) = &self.spill else {
            // Bounded: the ring is the whole queue.
            return match self.ring.try_push(v) {
                Ok(()) => {
                    self.after_send();
                    Ok(())
                }
                Err(v) => Err(TrySendError::Full(v)),
            };
        };
        // Unbounded: ring while the spill is empty (per-sender FIFO —
        // once this sender observes a spill it keeps appending there
        // until a receiver drains it), spill otherwise.
        let mut v = v;
        if sp.len.load(SeqCst) == 0 {
            match self.ring.try_push(v) {
                Ok(()) => {
                    self.after_send();
                    return Ok(());
                }
                Err(back) => v = back,
            }
        }
        let mut q = self.lock_spill(sp);
        // The spill may have drained while we took the lock; retry the
        // ring under it so the spill is only ever used while truly full.
        if sp.len.load(SeqCst) == 0 {
            match self.ring.try_push(v) {
                Ok(()) => {
                    drop(q);
                    self.after_send();
                    return Ok(());
                }
                Err(back) => v = back,
            }
        }
        q.push_back(v);
        sp.len.fetch_add(1, SeqCst);
        drop(q);
        gauge::inc(Gauge::Spills);
        self.after_send();
        Ok(())
    }

    /// Publish-side epilogue: trace/stat the committed message, then
    /// wake one parked receiver and any select/async registrations.
    ///
    /// The `SeqCst` fence closes the store→load race between publishing
    /// the message and reading the waiter count: without it a receiver
    /// could register + re-check + park entirely inside our store
    /// buffer's shadow and the wake would be lost.
    ///
    /// The depth is read only for an enabled probe: it loads the consumers'
    /// `head` line, which a send otherwise never needs.
    fn after_send(&self) {
        if sunmt_trace::enabled() {
            let depth = self.len() as u64;
            sunmt_trace::emit(Tag::ChanSend, self.addr() as u64, depth);
            sunmt_trace::record(Hs::ChanDepth, depth);
        }
        gauge::inc(Gauge::Sends);
        fence(SeqCst);
        if self.recv_waiters.load(SeqCst) > 0 {
            self.recv_event.fetch_add(1, SeqCst);
            strategy::unpark(&self.recv_event, 1, false);
        }
        if self.hook_count.load(SeqCst) > 0 {
            self.fire_hooks();
        }
    }

    pub(crate) fn send(&self, v: T) -> Result<(), SendError<T>> {
        let t0 = sunmt_trace::tick();
        let mut v = v;
        loop {
            match self.try_send_inner(v) {
                Ok(()) => {
                    sunmt_trace::record_since(Hs::ChanSend, t0);
                    return Ok(());
                }
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(back)) => v = back,
            }
            // Same park discipline as the receive side, on the
            // capacity event word.
            self.send_waiters.fetch_add(1, SeqCst);
            let seen = self.send_event.load(SeqCst);
            if self.ring.len() < self.ring.capacity() || self.receivers.load(SeqCst) == 0 {
                self.send_waiters.fetch_sub(1, SeqCst);
                continue;
            }
            sunmt_trace::probe!(Tag::ChanPark, self.addr(), 1u32);
            gauge::inc(Gauge::SendParks);
            strategy::park(&self.send_event, seen, false);
            self.send_waiters.fetch_sub(1, SeqCst);
        }
    }

    pub(crate) fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
        let t0 = sunmt_trace::tick();
        let r = self.try_send_inner(v);
        if r.is_ok() {
            sunmt_trace::record_since(Hs::ChanSend, t0);
        }
        r
    }

    // -- receive side -------------------------------------------------

    /// One pass over ring + spill, oldest first.
    fn pop_any(&self) -> Option<T> {
        if let Some(v) = self.ring.try_pop() {
            return Some(v);
        }
        let sp = self.spill.as_ref()?;
        if sp.len.load(SeqCst) == 0 {
            return None;
        }
        let mut q = self.lock_spill(sp);
        let v = q.pop_front();
        if v.is_some() {
            sp.len.fetch_sub(1, SeqCst);
        }
        v
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        if let Some(v) = self.pop_any() {
            self.after_recv();
            return Ok(v);
        }
        if self.senders.load(SeqCst) == 0 {
            // A message may have been committed between the pop and the
            // sender-count read; disconnect only reports after a final
            // drain attempt so no message is stranded.
            if let Some(v) = self.pop_any() {
                self.after_recv();
                return Ok(v);
            }
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Consume-side epilogue: trace the message out and wake one parked
    /// sender (same fence rationale as [`Chan::after_send`]).
    fn after_recv(&self) {
        sunmt_trace::probe!(Tag::ChanRecv, self.addr(), self.len());
        gauge::inc(Gauge::Recvs);
        fence(SeqCst);
        if self.send_waiters.load(SeqCst) > 0 {
            self.send_event.fetch_add(1, SeqCst);
            strategy::unpark(&self.send_event, 1, false);
        }
    }

    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let t0 = sunmt_trace::tick();
        loop {
            match self.try_recv() {
                Ok(v) => {
                    sunmt_trace::record_since(Hs::ChanRecv, t0);
                    return Ok(v);
                }
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            self.recv_waiters.fetch_add(1, SeqCst);
            let seen = self.recv_event.load(SeqCst);
            // Re-check *after* registering: a sender that committed
            // before our fetch_add has already seen recv_waiters == 0
            // and will not wake anyone.
            if self.recv_ready() {
                self.recv_waiters.fetch_sub(1, SeqCst);
                continue;
            }
            sunmt_trace::probe!(Tag::ChanPark, self.addr(), 0u32);
            gauge::inc(Gauge::RecvParks);
            strategy::park(&self.recv_event, seen, false);
            self.recv_waiters.fetch_sub(1, SeqCst);
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let t0 = sunmt_trace::tick();
        let deadline = sunmt_sys::time::monotonic_now().saturating_add(timeout);
        loop {
            match self.try_recv() {
                Ok(v) => {
                    sunmt_trace::record_since(Hs::ChanRecv, t0);
                    return Ok(v);
                }
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            self.recv_waiters.fetch_add(1, SeqCst);
            let seen = self.recv_event.load(SeqCst);
            if self.recv_ready() {
                self.recv_waiters.fetch_sub(1, SeqCst);
                continue;
            }
            // Deadline is checked only after the message re-check, the
            // cv_timedwait discipline: a message that arrived during a
            // stale sleep beats an expired clock.
            let now = sunmt_sys::time::monotonic_now();
            if now >= deadline {
                self.recv_waiters.fetch_sub(1, SeqCst);
                return Err(RecvTimeoutError::Timeout);
            }
            sunmt_trace::probe!(Tag::ChanPark, self.addr(), 0u32);
            gauge::inc(Gauge::RecvParks);
            strategy::park_timeout(&self.recv_event, seen, false, deadline - now);
            self.recv_waiters.fetch_sub(1, SeqCst);
        }
    }
}

impl<T> Drop for Chan<T> {
    fn drop(&mut self) {
        gauge::dec(Gauge::Channels);
    }
}

/// Ring size backing unbounded channels before they spill.
const UNBOUNDED_RING: usize = 64;

// ---------------------------------------------------------------------
// Public endpoints.

/// The sending half of a channel. Cloneable: every channel is
/// multi-producer.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel. Cloneable: cloning makes the
/// channel multi-consumer (MPMC); keep a single `Receiver` for MPSC.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// A bounded channel holding at least `cap` messages (rounded up to a
/// power of two). `send` parks when full; `recv` parks when empty.
pub fn bounded<T: Send>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Chan::new(Some(cap));
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// An unbounded channel: `send` never blocks, `recv` parks when empty.
pub fn unbounded<T: Send>() -> (Sender<T>, Receiver<T>) {
    let chan = Chan::new(None);
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T: Send> Sender<T> {
    /// Delivers `v`, parking while the channel is full. Fails only when
    /// every receiver is gone, handing the message back.
    pub fn send(&self, v: T) -> Result<(), SendError<T>> {
        self.chan.send(v)
    }

    /// Non-blocking send.
    pub fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
        self.chan.try_send(v)
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.chan.len() == 0
    }
}

impl<T: Send> Receiver<T> {
    /// Takes the oldest message, parking while the channel is empty.
    /// Fails only when every sender is gone *and* the queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.chan.recv()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.chan.try_recv()
    }

    /// Like [`Receiver::recv`] with a deadline, layered on the same
    /// timed-sleep mechanism as `cv_timedwait` (the timer LWP enforces
    /// the deadline for unbound threads; no kernel timer is armed).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.chan.recv_timeout(timeout)
    }

    /// A blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.chan.len() == 0
    }

    pub(crate) fn chan(&self) -> &Chan<T> {
        &self.chan
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.chan.senders.fetch_add(1, SeqCst);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.chan.receivers.fetch_add(1, SeqCst);
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, SeqCst) == 1 {
            self.chan.wake_all_for_disconnect();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.chan.receivers.fetch_sub(1, SeqCst) == 1 {
            self.chan.wake_all_for_disconnect();
        }
    }
}

/// Blocking iterator over a receiver; see [`Receiver::iter`].
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T: Send> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

//! Multi-channel wait: block until any of several receive endpoints has
//! a message (or disconnects).
//!
//! A [`Select`] owns one private event word. `wait` registers that word
//! as a one-shot hook with every covered channel, scans for an already
//! ready port, and parks on the word through the same strategy path the
//! channels use — so a select waiter costs each channel nothing until a
//! message actually fires the hook. Hooks are one-shot and deduplicated,
//! so the re-register/scan/park loop is idempotent across spurious
//! wakes.
//!
//! `wait` reports *readiness*, not a message: the caller completes the
//! operation with `try_recv` on the winning port and loops if another
//! consumer got there first (exactly crossbeam's `ready()` contract —
//! the only race-proof shape for MPMC select).

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

use sunmt_sync::strategy;
use sunmt_trace::gauge::{self, Gauge};

use crate::channel::{Receiver, SelectEvent};

pub(crate) mod sealed {
    use std::sync::Arc;

    use crate::channel::SelectEvent;

    /// Internal registration surface; implemented by receive endpoints.
    pub trait Port {
        fn register(&self, ev: Arc<SelectEvent>);
        fn ready(&self) -> bool;
    }
}

/// A receive endpoint [`Select`] can wait on. Sealed: implemented by
/// this crate's receiver types only.
pub trait Selectable: sealed::Port {}

impl<T: Send> sealed::Port for Receiver<T> {
    fn register(&self, ev: Arc<SelectEvent>) {
        self.chan().register_hook(ev);
    }

    fn ready(&self) -> bool {
        self.chan().recv_ready()
    }
}

impl<T: Send> Selectable for Receiver<T> {}

/// A multi-wait over receive endpoints. Ports are indexed in the order
/// they were added; `wait` returns the index of a ready one.
#[derive(Default)]
pub struct Select<'a> {
    ports: Vec<&'a dyn sealed::Port>,
    ev: Option<Arc<SelectEvent>>,
}

impl<'a> Select<'a> {
    /// An empty select; add ports with [`Select::recv`].
    pub fn new() -> Select<'a> {
        Select {
            ports: Vec::new(),
            ev: None,
        }
    }

    /// Adds a receive endpoint; returns its index as reported by
    /// [`Select::wait`].
    pub fn recv(&mut self, port: &'a impl Selectable) -> usize {
        self.ports.push(port);
        self.ports.len() - 1
    }

    /// The index of a currently ready port (a message queued or the
    /// port disconnected), scanning in add order; `None` if none is.
    pub fn ready(&self) -> Option<usize> {
        self.ports.iter().position(|p| p.ready())
    }

    fn event(&mut self) -> Arc<SelectEvent> {
        Arc::clone(self.ev.get_or_insert_with(SelectEvent::new))
    }

    /// Blocks until some port is ready and returns its index. The
    /// caller finishes with `try_recv` on that port and calls `wait`
    /// again if the message was snatched by another consumer.
    ///
    /// Panics if no ports were added (there is nothing to wait for).
    pub fn wait(&mut self) -> usize {
        assert!(!self.ports.is_empty(), "select with no ports");
        gauge::inc(Gauge::SelectWaits);
        let ev = self.event();
        loop {
            let seen = ev.word.load(SeqCst);
            for p in &self.ports {
                p.register(Arc::clone(&ev));
            }
            if let Some(i) = self.ready() {
                return i;
            }
            // A hook that fired between registration and here moved the
            // word past `seen`, so this park returns immediately.
            strategy::park(&ev.word, seen, false);
        }
    }

    /// Like [`Select::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<usize> {
        assert!(!self.ports.is_empty(), "select with no ports");
        gauge::inc(Gauge::SelectWaits);
        let deadline = sunmt_sys::time::monotonic_now().saturating_add(timeout);
        let ev = self.event();
        loop {
            let seen = ev.word.load(SeqCst);
            for p in &self.ports {
                p.register(Arc::clone(&ev));
            }
            if let Some(i) = self.ready() {
                return Some(i);
            }
            // Readiness re-check beats the clock (cv_timedwait rule).
            let now = sunmt_sys::time::monotonic_now();
            if now >= deadline {
                return None;
            }
            strategy::park_timeout(&ev.word, seen, false, deadline - now);
        }
    }
}

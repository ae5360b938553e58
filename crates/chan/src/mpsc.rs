//! Single-consumer channels: the same core as the MPMC endpoints with
//! the receive half made `!Clone`, so "exactly one consumer" is a type
//! guarantee rather than a convention. This is the shape most pipelines
//! want — many producers, one owner draining in order.

use std::time::Duration;

use crate::channel;
use crate::error::{RecvError, RecvTimeoutError, TryRecvError};

pub use crate::channel::Sender;

/// The single receive endpoint of an MPSC channel. Not cloneable; use
/// the crate-root [`crate::bounded`]/[`crate::unbounded`] constructors
/// when multiple consumers are wanted.
pub struct Receiver<T>(channel::Receiver<T>);

/// A bounded MPSC channel holding at least `cap` messages.
pub fn channel<T: Send>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = channel::bounded(cap);
    (tx, Receiver(rx))
}

/// An unbounded MPSC channel.
pub fn unbounded<T: Send>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = channel::unbounded();
    (tx, Receiver(rx))
}

impl<T: Send> Receiver<T> {
    /// See [`channel::Receiver::recv`].
    pub fn recv(&self) -> Result<T, RecvError> {
        self.0.recv()
    }

    /// See [`channel::Receiver::try_recv`].
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv()
    }

    /// See [`channel::Receiver::recv_timeout`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.recv_timeout(timeout)
    }

    /// See [`channel::Receiver::iter`].
    pub fn iter(&self) -> channel::Iter<'_, T> {
        self.0.iter()
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: Send> crate::select::sealed::Port for Receiver<T> {
    fn register(&self, ev: std::sync::Arc<crate::channel::SelectEvent>) {
        crate::select::sealed::Port::register(&self.0, ev);
    }

    fn ready(&self) -> bool {
        crate::select::sealed::Port::ready(&self.0)
    }
}

impl<T: Send> crate::select::Selectable for Receiver<T> {}

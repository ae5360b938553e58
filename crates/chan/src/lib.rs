//! Message passing for the M:N threads library: channels and select.
//!
//! The paper's synchronization variables (mutex/cv/sema/rwlock) are the
//! substrate; production M:N servers are written against *channels* and
//! selectable events. This crate builds that layer directly on the
//! library's blocking strategy so every channel wait inherits the
//! architecture's central property: an unbound thread that blocks does
//! so at user level, and its LWP immediately runs another thread.
//!
//! * [`bounded`] / [`unbounded`] — MPMC channels (both endpoints
//!   `Clone`) with a lock-free Vyukov-ring fast path: an uncontended
//!   send or receive is one CAS, no locks and no event-word traffic.
//! * [`mpsc`] — the same channels with a `!Clone` receiver, for
//!   pipelines that want single-consumer ordering as a type guarantee.
//! * [`Select`] — block on any of several receive endpoints via
//!   one-shot wake hooks; channels pay nothing for selectability until
//!   a waiter actually registers.
//! * [`Receiver::recv_timeout`] — timed receives ride the same
//!   timer-LWP deadline mechanism as `cv_timedwait`.
//!
//! A send to a blocked receiver is one wake through
//! [`sunmt_sync::strategy::unpark`]; when the sleeper is an unbound
//! thread on the user-level sleep queue the scheduler satisfies the
//! wake without any futex syscall at all. Every blocking path follows
//! the register → snapshot → re-check → park discipline the condvar
//! established, so wakeups cannot be lost (the `sunmt-check` models
//! `chan_mpsc` and `chan_select` explore exactly those interleavings).
//!
//! Instrumentation: trace tags `ChanSend`/`ChanRecv`/`ChanPark`/
//! `SelectWake`, send/recv latency and queue-depth histograms in
//! `sunmt-stat`, and a "chan" gauge source (sends, recvs, parks,
//! spills, select traffic) in every statistics report.

#![deny(missing_docs)]

mod channel;
mod error;
pub mod mpsc;
mod queue;
mod select;

pub use channel::{bounded, unbounded, Iter, Receiver, Sender};
pub use error::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};
pub use select::{Select, Selectable};

//! A deterministic simulated kernel for the SunOS multi-thread architecture.
//!
//! The real library in `sunmt` runs on the host kernel, which neither
//! exposes SunOS scheduling classes (timeshare decay, real-time, **gang**
//! scheduling, CPU binding) nor lets tests assert exact dispatch orders.
//! This crate models only what needs that kernel support: a discrete-event
//! kernel with virtual CPUs and virtual time, faithful to the paper's LWP
//! semantics, on which scheduling experiments run *deterministically* —
//! same inputs, same trace, every run. Everything the real library can
//! show (M:N multiplexing, SIGWAITING pool growth, the 1:1 and N:1
//! comparisons) is measured on the real library, not here.
//!
//! What it models (paper section → module):
//!
//! * LWPs as kernel-dispatched virtual CPUs — [`lwp`], [`kernel`];
//! * scheduling classes and priorities, including the "new scheduling class
//!   for 'gang' scheduling" and "the LWP may also ask to be bound to a
//!   CPU" — [`sched`];
//! * blocking system calls, page faults, and indefinite waits with
//!   `SIGWAITING` counted "when all its LWPs are waiting for some
//!   indefinite, external event" — [`kernel`];
//! * `fork()` (duplicate all LWPs, `EINTR` to the others' interruptible
//!   calls) vs `fork1()` (duplicate the calling LWP only) — [`kernel`];
//! * kernel-level synchronization objects LWPs can block on — [`ksync`];
//! * the `/proc`-style introspection the paper's debugging section
//!   describes — [`procfs`].
//!
//! LWP behaviour is a script of [`Op`]s, or a closure that picks each next
//! op (the checker's models run that way).
//!
//! Everything is driven from [`kernel::SimKernel::run_until_idle`]; the
//! result is a [`trace::Trace`] of timestamped events plus per-LWP and
//! per-process accounting.

#![deny(missing_docs)]

pub mod kernel;
pub mod ksync;
pub mod lwp;
pub mod procfs;
pub mod sched;
pub mod trace;

pub use kernel::{SimConfig, SimKernel};
pub use lwp::{LwpProgram, Op, SimLwpId};
pub use sched::SchedClass;
pub use trace::{Trace, TraceEvent};

/// Process identifier within the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u32);

/// Virtual time in microseconds since simulation start.
pub type SimTime = u64;

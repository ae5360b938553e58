//! SunOS-style synchronization variables.
//!
//! The paper defines four synchronization types — mutual-exclusion locks,
//! condition variables, counting semaphores, and multiple-readers /
//! single-writer locks — with these architectural properties, all of which
//! this crate reproduces:
//!
//! * **Zero means ready.** "Any synchronization variable that is statically
//!   or dynamically allocated as zero may be used immediately without
//!   further initialization, and provides the default implementation variant
//!   in the default initial state." Every type here is `repr(C)`, contains
//!   only atomics, and treats the all-zero bit pattern as
//!   unlocked/empty/default.
//! * **Implementation variants.** The programmer picks a variant at
//!   initialization: default (sleep), spin, or adaptive locks, and the
//!   [`SyncType::SHARED`] bit (`THREAD_SYNC_SHARED` in the paper) for
//!   variables shared between processes.
//! * **Position independence.** A `SHARED` variable carries no
//!   process-local pointer, so it "may be shared between processes even
//!   though they are mapped at different virtual addresses". (The one
//!   pointer in the suite is a private `RwLock`'s reader slots, which a
//!   `SHARED` lock never allocates or reads.)
//! * **Two-level blocking.** Blocking goes through a process-global
//!   [`strategy::BlockStrategy`]. The default strategy blocks the calling
//!   LWP in the kernel (futex). The threads library installs a strategy that
//!   puts an unbound thread to sleep entirely in user space — "switching
//!   from one thread to another occurs without the kernel knowing it" — and
//!   falls back to the kernel for bound threads and shared variables, where
//!   "the thread is temporarily bound to the LWP that is blocked by the
//!   kernel".
//!
//! The [`api`] module exposes the exact function names of the paper's
//! Figure 4 (`mutex_enter`, `cv_wait`, `sema_p`, `rw_tryupgrade`, ...).

#![deny(missing_docs)]

pub mod api;
pub mod condvar;
pub mod mutex;
pub mod rwlock;
pub mod sema;
pub mod strategy;
mod types;

pub use condvar::Condvar;
pub use mutex::Mutex;
pub use rwlock::{RwLock, RwType};
pub use sema::Sema;
pub use types::SyncType;

//! # sunos-mt — SunOS Multi-thread Architecture, reproduced in Rust
//!
//! Umbrella crate for the workspace reproducing Powell, Kleiman, Barton,
//! Shah, Stein & Weeks, *"SunOS Multi-thread Architecture"*, USENIX Winter
//! 1991. It re-exports every layer; see each crate for the deep
//! documentation:
//!
//! | Layer | Crate | Paper concept |
//! |---|---|---|
//! | [`threads`] | `sunmt` | user-level threads on LWPs (the contribution) |
//! | [`sync`] | `sunmt-sync` | mutex / condvar / semaphore / rwlock variables |
//! | [`io`] | `sunmt-io` | thread-aware blocking I/O (poller LWP) |
//! | [`chan`] | `sunmt-chan` | channels, select, event bus, async bridge |
//! | [`lwp`] | `sunmt-lwp` | kernel-supported threads of control |
//! | [`context`] | `sunmt-context` | register context switch + stacks |
//! | [`shm`] | `sunmt-shm` | sync variables in `MAP_SHARED` files |
//! | [`baselines`] | `sunmt-baselines` | N:1 (`liblwp`) and 1:1 (C Threads) comparisons |
//! | [`trace`] | `sunmt-trace` | TNF-style probes, per-LWP rings, Chrome export |
//! | [`stat`] | `sunmt-stat` | lockstat/mpstat-style contention & latency stats |
//! | [`sys`] | `sunmt-sys` | raw Linux syscalls (mmap/futex/clocks) |
//!
//! ## Quickstart
//!
//! ```
//! use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};
//! use sunos_mt::sync::{Sema, SyncType};
//! use std::sync::Arc;
//!
//! let done = Arc::new(Sema::new(0, SyncType::DEFAULT));
//! let d = Arc::clone(&done);
//! let id = ThreadBuilder::new()
//!     .flags(CreateFlags::WAIT)
//!     .spawn(move || d.v())
//!     .unwrap();
//! done.p();
//! threads::wait(Some(id)).unwrap();
//! ```

#![deny(missing_docs)]

/// The threads library (`sunmt`): the paper's primary contribution.
pub mod threads {
    pub use sunmt::*;
}

/// Synchronization variables (`sunmt-sync`).
pub mod sync {
    pub use sunmt_sync::*;
}

/// Thread-aware blocking I/O (`sunmt-io`).
pub mod io {
    pub use sunmt_io::*;
}

/// Channels, select, event bus, and the async bridge (`sunmt-chan`).
pub mod chan {
    pub use sunmt_chan::*;
}

/// Lightweight processes (`sunmt-lwp`).
pub mod lwp {
    pub use sunmt_lwp::*;
}

/// Machine context switching and stacks (`sunmt-context`).
pub mod context {
    pub use sunmt_context::*;
}

/// Shared-memory mappings (`sunmt-shm`).
pub mod shm {
    pub use sunmt_shm::*;
}

/// Baseline thread packages (`sunmt-baselines`).
pub mod baselines {
    pub use sunmt_baselines::*;
}

/// Raw kernel substrate (`sunmt-sys`).
pub mod sys {
    pub use sunmt_sys::*;
}

/// TNF-style tracing and metrics (`sunmt-trace`).
pub mod trace {
    pub use sunmt_trace::*;
}

/// Contention and latency statistics (`sunmt-stat`).
pub mod stat {
    pub use sunmt_stat::*;
}

//! Baseline thread packages the paper compares against.
//!
//! The comparison section of the paper positions the SunOS two-level model
//! against single-level alternatives. This crate implements both poles as
//! real (non-simulated) packages on the same substrate crates, so the
//! benchmark harness can measure all three side by side:
//!
//! * [`coro`] — an **N:1** user-level-only package in the style of the
//!   SunOS 4.0 `liblwp` library: "a classic user-level-only threads
//!   package. It contained no explicit kernel support. ... If an LWP called
//!   a blocking system call or took a page fault, the entire application
//!   blocked."
//! * [`cthreads`] — a **1:1** package in the style of Mach 2.5 C Threads
//!   "wired" to kernel threads: every thread is a kernel entity, every
//!   create and every block is a kernel operation.
//!
//! These are the only versions of the comparison: `abl_mn_vs_11` (ABL-MN)
//! and `abl_concurrency`'s no-kernel-help row (ABL-SIGW) measure them
//! beside `sunmt` in wall-clock time.

#![deny(missing_docs)]

pub mod coro;
pub mod cthreads;

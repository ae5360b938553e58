//! Raw Linux system-call substrate for the SunOS multi-thread reproduction.
//!
//! The paper's threads library sits on top of a kernel interface (LWPs,
//! blocking system calls, shared mappings). This crate is our equivalent of
//! that interface: a small, libc-free set of raw x86-64 Linux system calls —
//! memory mapping for thread stacks and shared files, `futex` for
//! kernel-level blocking (including between processes), clocks, and thread
//! identity. Everything above this crate is portable Rust.
//!
//! Only `x86_64-unknown-linux-*` is supported; the context-switch assembly in
//! `sunmt-context` has the same restriction.

#![deny(missing_docs)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("sunmt-sys supports only x86_64 Linux");

pub mod errno;
pub mod fd;
pub mod futex;
pub mod mem;
pub mod resource;
pub mod syscall;
pub mod task;
pub mod time;

pub use errno::Errno;

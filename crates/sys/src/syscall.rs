//! Raw system-call entry points.
//!
//! x86-64 Linux calling convention: number in `rax`, arguments in
//! `rdi, rsi, rdx, r10, r8, r9`; the `syscall` instruction clobbers `rcx`
//! and `r11`; the result is returned in `rax`, with values in
//! `-4095..=-1` denoting `-errno`.

use core::arch::asm;

use crate::errno::Errno;

/// System-call numbers used by this workspace (x86-64 Linux ABI).
#[allow(missing_docs)]
pub mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const POLL: usize = 7;
    pub const MMAP: usize = 9;
    pub const MPROTECT: usize = 10;
    pub const MUNMAP: usize = 11;
    pub const SCHED_YIELD: usize = 24;
    pub const MADVISE: usize = 28;
    pub const NANOSLEEP: usize = 35;
    pub const GETPID: usize = 39;
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const BIND: usize = 49;
    pub const LISTEN: usize = 50;
    pub const GETSOCKNAME: usize = 51;
    pub const SOCKETPAIR: usize = 53;
    pub const FCNTL: usize = 72;
    pub const GETTID: usize = 186;
    pub const FUTEX: usize = 202;
    pub const SCHED_SETAFFINITY: usize = 203;
    pub const SCHED_GETAFFINITY: usize = 204;
    pub const CLOCK_GETTIME: usize = 228;
    pub const EPOLL_WAIT: usize = 232;
    pub const EPOLL_CTL: usize = 233;
    pub const ACCEPT4: usize = 288;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PIPE2: usize = 293;
    pub const PRLIMIT64: usize = 302;
}

/// Converts a raw kernel return value into a `Result`.
///
/// Values in `-4095..=-1` are negated error numbers; everything else is a
/// successful result.
#[inline]
pub fn check(ret: usize) -> Result<usize, Errno> {
    let signed = ret as isize;
    if (-4095..0).contains(&signed) {
        Err(Errno::from_raw(-signed as i32))
    } else {
        Ok(ret)
    }
}

/// Performs a system call with no arguments.
///
/// # Safety
///
/// The caller must ensure `n` is a valid system-call number whose invocation
/// with no arguments cannot violate memory safety (e.g. `GETPID`).
#[inline]
pub unsafe fn syscall0(n: usize) -> usize {
    let ret: usize;
    // SAFETY: The caller guarantees the call itself is sound; the asm block
    // only clobbers the registers the `syscall` instruction is defined to
    // clobber.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Performs a system call with one argument.
///
/// # Safety
///
/// As for [`syscall0`], and `a1` must satisfy the kernel's contract for `n`.
#[inline]
pub unsafe fn syscall1(n: usize, a1: usize) -> usize {
    let ret: usize;
    // SAFETY: See `syscall0`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Performs a system call with two arguments.
///
/// # Safety
///
/// As for [`syscall1`].
#[inline]
pub unsafe fn syscall2(n: usize, a1: usize, a2: usize) -> usize {
    let ret: usize;
    // SAFETY: See `syscall0`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Performs a system call with three arguments.
///
/// # Safety
///
/// As for [`syscall1`].
#[inline]
pub unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> usize {
    let ret: usize;
    // SAFETY: See `syscall0`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Performs a system call with four arguments.
///
/// # Safety
///
/// As for [`syscall1`].
#[inline]
pub unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> usize {
    let ret: usize;
    // SAFETY: See `syscall0`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

/// Performs a system call with six arguments.
///
/// # Safety
///
/// As for [`syscall1`].
#[inline]
pub unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> usize {
    let ret: usize;
    // SAFETY: See `syscall0`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn getpid_matches_std() {
        // SAFETY: `GETPID` takes no arguments and has no memory effects.
        let pid = unsafe { syscall0(nr::GETPID) };
        assert_eq!(pid as u32, std::process::id());
    }

    #[test]
    fn check_maps_errno_range() {
        assert_eq!(check(0), Ok(0));
        assert_eq!(check(usize::MAX - 21), Err(Errno::from_raw(22)));
        // Large positive values (e.g. mmap addresses) are not errors.
        assert!(check((-5000isize) as usize).is_ok());
    }
}

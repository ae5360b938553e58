//! Process resource limits (`prlimit64`).
//!
//! The C100K workloads need more file descriptors than the default soft
//! limit of 1024 allows: a 100k-connection echo sweep holds two fds per
//! connection plus one epoll fd per poller shard. [`raise_nofile`]
//! lifts `RLIMIT_NOFILE` as far as the hard limit (or the caller's
//! privileges) permit and reports what it actually achieved, so benches
//! can scale their workload to the environment instead of dying on
//! `EMFILE`.

use crate::errno::Errno;
use crate::syscall::{check, nr, syscall4};

/// `RLIMIT_NOFILE`: one greater than the maximum file descriptor number.
pub const RLIMIT_NOFILE: u32 = 7;

/// `struct rlimit64`.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rlimit {
    /// Soft limit, enforced by the kernel.
    pub cur: u64,
    /// Hard limit, the ceiling an unprivileged process may raise `cur` to.
    pub max: u64,
}

/// Reads a limit of the calling process via `prlimit64(0, ...)`.
pub fn getrlimit(resource: u32) -> Result<Rlimit, Errno> {
    let mut old = Rlimit { cur: 0, max: 0 };
    // SAFETY: pid 0 targets the calling process; `old` is a live rlimit64
    // the kernel writes, and the NULL new-limit pointer requests no change.
    check(unsafe {
        syscall4(
            nr::PRLIMIT64,
            0,
            resource as usize,
            0,
            &mut old as *mut Rlimit as usize,
        )
    })?;
    Ok(old)
}

/// Sets a limit of the calling process via `prlimit64(0, ...)`.
pub fn setrlimit(resource: u32, rlim: Rlimit) -> Result<(), Errno> {
    // SAFETY: pid 0 targets the calling process; `rlim` is a live rlimit64
    // the kernel reads, and the NULL old-limit pointer discards the
    // previous value.
    check(unsafe {
        syscall4(
            nr::PRLIMIT64,
            0,
            resource as usize,
            &rlim as *const Rlimit as usize,
            0,
        )
    })
    .map(|_| ())
}

/// Raises the open-file soft limit toward `target` and returns the soft
/// limit now in effect.
///
/// Privileged callers get the hard limit raised too; unprivileged callers
/// get `min(target, hard)`. Never lowers anything and never fails on a
/// denied raise — the achieved limit is the answer either way, and the
/// caller sizes its workload to it.
pub fn raise_nofile(target: u64) -> Result<u64, Errno> {
    let lim = getrlimit(RLIMIT_NOFILE)?;
    if lim.cur >= target {
        return Ok(lim.cur);
    }
    // Privileged path first: lift both limits to the target.
    if lim.max < target
        && setrlimit(
            RLIMIT_NOFILE,
            Rlimit {
                cur: target,
                max: target,
            },
        )
        .is_ok()
    {
        return Ok(target);
    }
    let cur = target.min(lim.max);
    if cur > lim.cur {
        setrlimit(RLIMIT_NOFILE, Rlimit { cur, max: lim.max })?;
        return Ok(cur);
    }
    Ok(lim.cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn getrlimit_reports_a_sane_nofile() {
        let lim = getrlimit(RLIMIT_NOFILE).unwrap();
        assert!(lim.cur >= 64, "soft NOFILE below any real default: {lim:?}");
        assert!(lim.max >= lim.cur);
    }

    #[test]
    fn raise_nofile_never_lowers_and_reports_achieved() {
        let before = getrlimit(RLIMIT_NOFILE).unwrap();
        let got = raise_nofile(before.cur).unwrap();
        assert!(got >= before.cur);
        // Raising toward the current hard limit must succeed exactly.
        let got = raise_nofile(before.max.min(before.cur + 16)).unwrap();
        assert!(got >= before.cur);
        assert!(getrlimit(RLIMIT_NOFILE).unwrap().cur == got);
    }
}

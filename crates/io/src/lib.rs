//! # sunmt-io — thread-aware blocking I/O
//!
//! The paper's motivating server workload: "a window system server can have
//! one thread per client", with most of those threads sitting in blocking
//! I/O calls. Giving each one an LWP would defeat the two-level design, so
//! this crate makes `read`/`write`/`accept` *thread-aware*, mirroring the
//! strategy split the synchronization variables already use:
//!
//! * An **unbound thread** calling [`read`] on a nonblocking fd that would
//!   block waits on a *poller shard* (`crates/io/src/poller.rs` — one
//!   epoll set per pool LWP; a descriptor's shard is fixed by its number)
//!   and parks on the user-level sleep queue — its LWP immediately runs
//!   other threads, and no `SIGWAITING` pool growth is needed. The first
//!   wait in each direction registers the fd, edge-triggered; it stays
//!   registered until [`close`], so later waits make no `epoll_ctl` call.
//!   The shard count is the pool size when the poller first runs (the
//!   `set_concurrency` level).
//! * A **bound thread**, an adopted host thread, or a caller that has never
//!   touched the threads library falls through to a plain blocking wait
//!   (`poll(2)` + retry), blocking only its own LWP — "much like locking
//!   down pages turns virtual memory into real memory".
//!
//! Timed variants ([`read_timeout`], [`write_timeout`]) return
//! `Err(ETIMEDOUT)`, implemented with the same deadline machinery as
//! `cv_timedwait` (kernel futex timeout for LWP blocks, the timer LWP for
//! user-level sleeps).
//!
//! Descriptors are plain `i32`s created nonblocking by the helpers
//! ([`pipe`], [`socketpair_stream`], [`listen_loopback`]); ownership and
//! lifetime stay with the caller, who must close a descriptor that was
//! waited on with [`close`] (see there).

#![deny(missing_docs)]

use core::time::Duration;

use sunmt_sys::fd;
use sunmt_sys::time::monotonic_now;
use sunmt_sys::Errno;

mod poller;

use poller::Dir;

/// Creates a nonblocking pipe; returns `(read_end, write_end)`.
pub fn pipe() -> Result<(i32, i32), Errno> {
    fd::pipe2(fd::O_NONBLOCK | fd::O_CLOEXEC)
}

/// Creates a connected, nonblocking `AF_UNIX` stream pair.
pub fn socketpair_stream() -> Result<(i32, i32), Errno> {
    fd::socketpair(
        fd::AF_UNIX,
        fd::SOCK_STREAM | fd::SOCK_NONBLOCK | fd::SOCK_CLOEXEC,
        0,
    )
}

/// Creates a nonblocking TCP listener on `127.0.0.1` (ephemeral port);
/// returns `(listener_fd, port)`.
pub fn listen_loopback(backlog: i32) -> Result<(i32, u16), Errno> {
    let l = fd::socket(
        fd::AF_INET,
        fd::SOCK_STREAM | fd::SOCK_NONBLOCK | fd::SOCK_CLOEXEC,
        0,
    )?;
    let setup = (|| {
        fd::bind_in(l, &fd::SockAddrIn::loopback(0))?;
        fd::listen(l, backlog)?;
        Ok(fd::getsockname_in(l)?.port())
    })();
    match setup {
        Ok(port) => Ok((l, port)),
        Err(e) => {
            let _ = fd::close(l);
            Err(e)
        }
    }
}

/// Connects to `127.0.0.1:port` and returns a nonblocking fd.
///
/// The connect itself runs in blocking mode (a loopback connect completes
/// as soon as the kernel matches it to a listener's backlog), which avoids
/// the `EINPROGRESS` dance; the fd is switched to nonblocking before it is
/// returned so subsequent I/O takes the thread-aware paths.
pub fn connect_loopback(port: u16) -> Result<i32, Errno> {
    let c = fd::socket(fd::AF_INET, fd::SOCK_STREAM | fd::SOCK_CLOEXEC, 0)?;
    let setup = (|| {
        fd::retry_eintr(|| fd::connect_in(c, &fd::SockAddrIn::loopback(port)))?;
        fd::set_nonblocking(c, true)
    })();
    match setup {
        Ok(()) => Ok(c),
        Err(e) => {
            let _ = fd::close(c);
            Err(e)
        }
    }
}

/// Closes a descriptor.
///
/// Poller-aware: it deregisters `io_fd` from its poller shard and wakes
/// any thread parked on it with `EBADF` *before* the `close(2)` runs. The
/// order matters — no readiness event will ever arrive for a closed fd,
/// so a close racing a parked waiter would otherwise strand that waiter
/// forever.
///
/// A descriptor that a thread has waited on stays registered until this
/// call. Closing it another way (`close(2)` directly) and getting the
/// same number back from a later `pipe`/`socket` leaves the new file
/// unwatched: waits on it would find the old registration and never be
/// woken.
pub fn close(io_fd: i32) -> Result<(), Errno> {
    if let Some(p) = poller::maybe_global() {
        p.cancel_fd(io_fd);
    }
    fd::close(io_fd)
}

/// Thread-aware blocking read. Returns bytes read; 0 is end-of-file.
pub fn read(io_fd: i32, buf: &mut [u8]) -> Result<usize, Errno> {
    io_loop(io_fd, Dir::Read, None, || fd::read(io_fd, buf))
}

/// [`read`] with a deadline; `Err(ETIMEDOUT)` if nothing arrives in time.
pub fn read_timeout(io_fd: i32, buf: &mut [u8], timeout: Duration) -> Result<usize, Errno> {
    let deadline = Some(monotonic_now().saturating_add(timeout));
    io_loop(io_fd, Dir::Read, deadline, || fd::read(io_fd, buf))
}

/// Thread-aware blocking write. Returns bytes written (possibly short).
pub fn write(io_fd: i32, buf: &[u8]) -> Result<usize, Errno> {
    io_loop(io_fd, Dir::Write, None, || fd::write(io_fd, buf))
}

/// [`write`] with a deadline; `Err(ETIMEDOUT)` if the fd never drains.
pub fn write_timeout(io_fd: i32, buf: &[u8], timeout: Duration) -> Result<usize, Errno> {
    let deadline = Some(monotonic_now().saturating_add(timeout));
    io_loop(io_fd, Dir::Write, deadline, || fd::write(io_fd, buf))
}

/// Writes the whole buffer, waiting thread-aware between short writes.
pub fn write_all(io_fd: i32, mut buf: &[u8]) -> Result<(), Errno> {
    while !buf.is_empty() {
        let n = write(io_fd, buf)?;
        buf = &buf[n..];
    }
    Ok(())
}

/// Thread-aware blocking accept; the returned connection is nonblocking.
pub fn accept(listener: i32) -> Result<i32, Errno> {
    io_loop(listener, Dir::Read, None, || {
        fd::accept4(listener, fd::SOCK_NONBLOCK | fd::SOCK_CLOEXEC)
    })
}

/// The retry loop shared by every thread-aware call: issue the nonblocking
/// system call; on `EAGAIN` wait for readiness the way the calling context
/// demands (see crate docs), then retry.
fn io_loop<T>(
    io_fd: i32,
    dir: Dir,
    deadline: Option<Duration>,
    mut op: impl FnMut() -> Result<T, Errno>,
) -> Result<T, Errno> {
    loop {
        match op() {
            Err(Errno::EINTR) => continue,
            Err(Errno::EAGAIN) => {}
            other => return other,
        }
        if sunmt::current_is_unbound() {
            poller::global().wait(io_fd, dir, deadline)?;
        } else {
            wait_blocking(io_fd, dir, deadline)?;
        }
    }
}

/// The fall-through wait: block this LWP in `poll(2)` until `io_fd` is
/// ready or the deadline passes. Callers with a thread identity route it
/// through `sunmt::blocking`, so a pool LWP held by it counts as blocked
/// for `SIGWAITING` pool growth; pre-init callers get the bare system
/// call (touching `blocking` would initialize the threads library behind
/// their back).
fn wait_blocking(io_fd: i32, dir: Dir, deadline: Option<Duration>) -> Result<(), Errno> {
    let events = match dir {
        Dir::Read => fd::POLLIN,
        Dir::Write => fd::POLLOUT,
    };
    loop {
        let timeout_ms: i32 = match deadline {
            None => -1,
            Some(d) => {
                let now = monotonic_now();
                if now >= d {
                    return Err(Errno::ETIMEDOUT);
                }
                // Round up so the final poll cannot spin at deadline-1ns.
                (d - now)
                    .as_millis()
                    .saturating_add(1)
                    .min(i32::MAX as u128) as i32
            }
        };
        let mut pfd = [fd::PollFd {
            fd: io_fd,
            events,
            revents: 0,
        }];
        let polled = if sunmt::current_has_thread() {
            sunmt::blocking(|| fd::poll(&mut pfd, timeout_ms))
        } else {
            fd::poll(&mut pfd, timeout_ms)
        };
        match polled {
            // 0 = poll timed out; loop to re-check the deadline precisely.
            Ok(0) => continue,
            Ok(_) => return Ok(()),
            Err(Errno::EINTR) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A snapshot of the sharded poller's counters, summed over all shards
/// (all zero before the first I/O wait).
#[derive(Clone, Copy, Debug, Default)]
pub struct IoStats {
    /// Poller shards serving this process (0 before first use).
    pub shards: usize,
    /// Waits that joined an fd's waiter list (one per `EAGAIN` wait by an
    /// unbound thread that did not find a ready flag set).
    pub registrations: u64,
    /// Readiness events the shard pollers received from `epoll_wait`.
    pub readies: u64,
    /// User-level parks performed by I/O waiters.
    pub parks: u64,
    /// Waiters the shard pollers unparked.
    pub unparks: u64,
    /// Timed I/O waits that expired.
    pub timeouts: u64,
    /// Times a shard LWP entered `epoll_wait`.
    pub epoll_waits: u64,
    /// `epoll_ctl` calls: at most two per descriptor waited on (an ADD,
    /// and one MOD when the other direction first waits) and one DEL per
    /// [`close`] of a registered fd. The scaling bench divides it by ops
    /// to report syscalls per op.
    pub ctl_syscalls: u64,
    /// Always 0: no shard serves another's descriptors. Kept so existing
    /// readers of the field still build.
    pub steals: u64,
    /// Threads currently waiting on I/O readiness.
    pub pending_waiters: usize,
}

/// Reads [`IoStats`] without starting the poller.
pub fn stats() -> IoStats {
    match poller::maybe_global() {
        None => IoStats::default(),
        Some(p) => {
            let t = p.totals();
            IoStats {
                shards: p.num_shards(),
                registrations: t.registrations,
                readies: t.readies,
                parks: t.parks,
                unparks: t.unparks,
                timeouts: t.timeouts,
                epoll_waits: t.epoll_waits,
                ctl_syscalls: t.ctl_syscalls,
                steals: 0,
                pending_waiters: t.pending_waiters,
            }
        }
    }
}

/// The poller's backend: always `"epoll"` (edge-triggered, one `epoll_ctl`
/// per direction per descriptor). A constant; it does not start the
/// poller.
pub fn backend_name() -> &'static str {
    "epoll"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn plain_host_thread_falls_through_to_poll() {
        // No threads-library state on this host thread: the read must take
        // the bare blocking path and still work.
        let (r, w) = pipe().unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            write_all(w, b"late").unwrap();
        });
        let mut buf = [0u8; 8];
        assert_eq!(read(r, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"late");
        h.join().unwrap();
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn read_timeout_reports_etimedout() {
        let (r, w) = pipe().unwrap();
        let mut buf = [0u8; 1];
        let t0 = monotonic_now();
        assert_eq!(
            read_timeout(r, &mut buf, Duration::from_millis(30)),
            Err(Errno::ETIMEDOUT)
        );
        let waited = monotonic_now() - t0;
        assert!(
            waited >= Duration::from_millis(25),
            "returned after {waited:?}"
        );
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn unbound_thread_parks_and_resumes_via_poller() {
        sunmt::init();
        let (r, w) = pipe().unwrap();
        let got = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let g = Arc::clone(&got);
        let id = sunmt::ThreadBuilder::new()
            .flags(sunmt::CreateFlags::WAIT)
            .spawn(move || {
                let mut buf = [0u8; 4];
                let n = read(r, &mut buf).unwrap();
                g.store(
                    u32::from(buf[0]) * 100 + n as u32,
                    std::sync::atomic::Ordering::SeqCst,
                );
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        write_all(w, &[7u8]).unwrap();
        sunmt::wait(Some(id)).unwrap();
        assert_eq!(got.load(std::sync::atomic::Ordering::SeqCst), 701);
        assert!(stats().registrations >= 1);
        assert!(stats().unparks >= 1);
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn eof_wakes_a_parked_reader_with_zero() {
        sunmt::init();
        let (r, w) = pipe().unwrap();
        let id = sunmt::ThreadBuilder::new()
            .flags(sunmt::CreateFlags::WAIT)
            .spawn(move || {
                let mut buf = [0u8; 4];
                assert_eq!(read(r, &mut buf).unwrap(), 0, "EOF must read as 0");
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        close(w).unwrap();
        sunmt::wait(Some(id)).unwrap();
        close(r).unwrap();
    }

    #[test]
    fn close_while_parked_errors_the_waiter_out() {
        sunmt::init();
        let (r, w) = pipe().unwrap();
        let id = sunmt::ThreadBuilder::new()
            .flags(sunmt::CreateFlags::WAIT)
            .spawn(move || {
                let mut buf = [0u8; 4];
                // The read end is closed under us while we are parked on
                // the sharded poller; we must see EBADF, not hang (the
                // kernel silently drops closed fds from epoll sets).
                assert_eq!(read(r, &mut buf), Err(Errno::EBADF));
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(stats().pending_waiters >= 1, "reader should be parked");
        close(r).unwrap();
        sunmt::wait(Some(id)).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn accept_and_echo_over_loopback() {
        sunmt::init();
        let (l, port) = listen_loopback(8).unwrap();
        let id = sunmt::ThreadBuilder::new()
            .flags(sunmt::CreateFlags::WAIT)
            .spawn(move || {
                let conn = accept(l).unwrap();
                let mut buf = [0u8; 16];
                let n = read(conn, &mut buf).unwrap();
                write_all(conn, &buf[..n]).unwrap();
                close(conn).unwrap();
            })
            .unwrap();
        let c = connect_loopback(port).unwrap();
        write_all(c, b"window").unwrap();
        let mut buf = [0u8; 16];
        let n = read(c, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"window");
        sunmt::wait(Some(id)).unwrap();
        close(c).unwrap();
        close(l).unwrap();
    }
}

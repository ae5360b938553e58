//! File descriptors, pipes, Unix/IPv4 sockets, and `epoll` — raw, libc-free.
//!
//! The paper's I/O story is that a blocking system call only has to block an
//! *LWP*; the threads library keeps the other threads running. This module
//! is the kernel half of that story: the plain blocking calls (`read`,
//! `write`, `poll`) that a bound thread issues directly, and the
//! `epoll` readiness machinery that `sunmt-io`'s poller shards use to
//! demultiplex nonblocking descriptors for unbound threads.
//!
//! All wrappers return `Result<_, Errno>` and perform exactly one system
//! call; retry policy (`EINTR`, `EAGAIN`) belongs to the caller, with
//! [`retry_eintr`] as the standard helper.

use crate::errno::Errno;
use crate::syscall::{check, nr, syscall1, syscall2, syscall3, syscall4};

/// `O_NONBLOCK`.
pub const O_NONBLOCK: u32 = 0o4000;
/// `O_CLOEXEC`.
pub const O_CLOEXEC: u32 = 0o2000000;

/// `AF_UNIX`.
pub const AF_UNIX: i32 = 1;
/// `AF_INET`.
pub const AF_INET: i32 = 2;
/// `SOCK_STREAM`.
pub const SOCK_STREAM: i32 = 1;
/// `SOCK_NONBLOCK` (same bit as `O_NONBLOCK`).
pub const SOCK_NONBLOCK: i32 = O_NONBLOCK as i32;
/// `SOCK_CLOEXEC` (same bit as `O_CLOEXEC`).
pub const SOCK_CLOEXEC: i32 = O_CLOEXEC as i32;

/// `EPOLL_CLOEXEC`.
pub const EPOLL_CLOEXEC: u32 = O_CLOEXEC;

/// `epoll_ctl` op: register a new descriptor.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: deregister a descriptor.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change the event mask of a registered descriptor.
pub const EPOLL_CTL_MOD: i32 = 3;

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, need not be requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, need not be requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered: report a readiness change once, not while it lasts.
pub const EPOLLET: u32 = 1 << 31;

/// `fcntl` command: get file status flags.
pub const F_GETFL: i32 = 3;
/// `fcntl` command: set file status flags.
pub const F_SETFL: i32 = 4;

/// `struct epoll_event` with the kernel's x86-64 layout (packed to 12
/// bytes).
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Requested/reported event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// Opaque caller data returned verbatim with the event.
    pub data: u64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Default, Debug)]
pub struct PollFd {
    /// Descriptor to watch.
    pub fd: i32,
    /// Requested events (`POLLIN` | `POLLOUT`).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// `POLLIN`.
pub const POLLIN: i16 = 0x001;
/// `POLLOUT`.
pub const POLLOUT: i16 = 0x004;

/// `struct sockaddr_in` (fields in network byte order where noted).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct SockAddrIn {
    /// Address family (`AF_INET`).
    pub family: u16,
    /// Port, big-endian.
    pub port_be: u16,
    /// IPv4 address, big-endian.
    pub addr_be: u32,
    /// Padding up to `sizeof(struct sockaddr)`.
    pub zero: [u8; 8],
}

impl SockAddrIn {
    /// An address on `127.0.0.1` with the given host-order port (0 lets the
    /// kernel pick an ephemeral port).
    pub fn loopback(port: u16) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET as u16,
            port_be: port.to_be(),
            addr_be: 0x7f00_0001u32.to_be(),
            zero: [0; 8],
        }
    }

    /// The port in host byte order.
    pub fn port(&self) -> u16 {
        u16::from_be(self.port_be)
    }
}

/// `read(2)`. Returns the number of bytes read; 0 is end-of-file.
pub fn read(fd: i32, buf: &mut [u8]) -> Result<usize, Errno> {
    // SAFETY: `buf` is a live, writable slice; the kernel writes at most
    // `buf.len()` bytes into it.
    check(unsafe { syscall3(nr::READ, fd as usize, buf.as_mut_ptr() as usize, buf.len()) })
}

/// `write(2)`. Returns the number of bytes written (possibly short).
pub fn write(fd: i32, buf: &[u8]) -> Result<usize, Errno> {
    // SAFETY: `buf` is a live, readable slice of the stated length.
    check(unsafe { syscall3(nr::WRITE, fd as usize, buf.as_ptr() as usize, buf.len()) })
}

/// `close(2)`.
pub fn close(fd: i32) -> Result<(), Errno> {
    // SAFETY: closing an arbitrary integer is memory-safe (worst case EBADF).
    check(unsafe { syscall1(nr::CLOSE, fd as usize) }).map(|_| ())
}

/// `pipe2(2)`: returns `(read_end, write_end)`.
pub fn pipe2(flags: u32) -> Result<(i32, i32), Errno> {
    let mut fds = [0i32; 2];
    // SAFETY: the kernel writes two i32s into `fds`.
    check(unsafe { syscall2(nr::PIPE2, fds.as_mut_ptr() as usize, flags as usize) })?;
    Ok((fds[0], fds[1]))
}

/// `socketpair(2)`: a pair of connected descriptors.
pub fn socketpair(domain: i32, ty: i32, protocol: i32) -> Result<(i32, i32), Errno> {
    let mut fds = [0i32; 2];
    // SAFETY: the kernel writes two i32s into `fds`.
    check(unsafe {
        syscall4(
            nr::SOCKETPAIR,
            domain as usize,
            ty as usize,
            protocol as usize,
            fds.as_mut_ptr() as usize,
        )
    })?;
    Ok((fds[0], fds[1]))
}

/// `socket(2)`.
pub fn socket(domain: i32, ty: i32, protocol: i32) -> Result<i32, Errno> {
    // SAFETY: no pointers are passed.
    check(unsafe { syscall3(nr::SOCKET, domain as usize, ty as usize, protocol as usize) })
        .map(|fd| fd as i32)
}

/// `bind(2)` to an IPv4 address.
pub fn bind_in(fd: i32, addr: &SockAddrIn) -> Result<(), Errno> {
    // SAFETY: `addr` is a live sockaddr_in of the stated size.
    check(unsafe {
        syscall3(
            nr::BIND,
            fd as usize,
            addr as *const SockAddrIn as usize,
            core::mem::size_of::<SockAddrIn>(),
        )
    })
    .map(|_| ())
}

/// `listen(2)`.
pub fn listen(fd: i32, backlog: i32) -> Result<(), Errno> {
    // SAFETY: no pointers are passed.
    check(unsafe { syscall2(nr::LISTEN, fd as usize, backlog as usize) }).map(|_| ())
}

/// `getsockname(2)` for an IPv4 socket (used to learn an ephemeral port).
pub fn getsockname_in(fd: i32) -> Result<SockAddrIn, Errno> {
    let mut addr = SockAddrIn::default();
    let mut len: u32 = core::mem::size_of::<SockAddrIn>() as u32;
    // SAFETY: `addr` and `len` are live; the kernel writes at most `len`
    // bytes of address plus the updated length.
    check(unsafe {
        syscall3(
            nr::GETSOCKNAME,
            fd as usize,
            &mut addr as *mut SockAddrIn as usize,
            &mut len as *mut u32 as usize,
        )
    })?;
    Ok(addr)
}

/// `accept4(2)` with the peer address discarded.
pub fn accept4(fd: i32, flags: i32) -> Result<i32, Errno> {
    // SAFETY: NULL addr/addrlen ask the kernel not to report the peer.
    check(unsafe { syscall4(nr::ACCEPT4, fd as usize, 0, 0, flags as usize) }).map(|fd| fd as i32)
}

/// `connect(2)` to an IPv4 address.
pub fn connect_in(fd: i32, addr: &SockAddrIn) -> Result<(), Errno> {
    // SAFETY: `addr` is a live sockaddr_in of the stated size.
    check(unsafe {
        syscall3(
            nr::CONNECT,
            fd as usize,
            addr as *const SockAddrIn as usize,
            core::mem::size_of::<SockAddrIn>(),
        )
    })
    .map(|_| ())
}

/// `epoll_create1(2)`.
pub fn epoll_create1(flags: u32) -> Result<i32, Errno> {
    // SAFETY: no pointers are passed.
    check(unsafe { syscall1(nr::EPOLL_CREATE1, flags as usize) }).map(|fd| fd as i32)
}

/// `epoll_ctl(2)`. `event` may be `None` only for `EPOLL_CTL_DEL`.
pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<&EpollEvent>) -> Result<(), Errno> {
    let ev_ptr = event.map_or(0, |e| e as *const EpollEvent as usize);
    // SAFETY: `ev_ptr` is either NULL (DEL) or a live epoll_event.
    check(unsafe {
        syscall4(
            nr::EPOLL_CTL,
            epfd as usize,
            op as usize,
            fd as usize,
            ev_ptr,
        )
    })
    .map(|_| ())
}

/// `epoll_wait(2)`. Blocks up to `timeout_ms` (-1 = forever); returns the
/// number of events written into `events`.
pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> Result<usize, Errno> {
    // SAFETY: `events` is a live, writable slice; the kernel writes at most
    // `events.len()` entries.
    check(unsafe {
        syscall4(
            nr::EPOLL_WAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
        )
    })
}

/// `poll(2)`. The plain one-LWP-blocks path a bound thread uses.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> Result<usize, Errno> {
    // SAFETY: `fds` is a live, writable slice of pollfd.
    check(unsafe {
        syscall3(
            nr::POLL,
            fds.as_mut_ptr() as usize,
            fds.len(),
            timeout_ms as usize,
        )
    })
}

/// Sets or clears `O_NONBLOCK` via `fcntl(2)`.
pub fn set_nonblocking(fd: i32, nonblocking: bool) -> Result<(), Errno> {
    // SAFETY: F_GETFL/F_SETFL take no pointers.
    let flags = check(unsafe { syscall3(nr::FCNTL, fd as usize, F_GETFL as usize, 0) })? as u32;
    let new = if nonblocking {
        flags | O_NONBLOCK
    } else {
        flags & !O_NONBLOCK
    };
    if new != flags {
        // SAFETY: as above.
        check(unsafe { syscall3(nr::FCNTL, fd as usize, F_SETFL as usize, new as usize) })?;
    }
    Ok(())
}

/// Calls `f` until it returns anything other than `Err(EINTR)`.
///
/// This is the standard "EINTR-aware wrapper" shape: signals (SIGWAITING,
/// the library's directed stop signal) interrupt slow system calls, and
/// every I/O path in the workspace must resume them.
pub fn retry_eintr<T>(mut f: impl FnMut() -> Result<T, Errno>) -> Result<T, Errno> {
    loop {
        match f() {
            Err(Errno::EINTR) => continue,
            other => return other,
        }
    }
}

/// Writes the whole buffer, resuming after `EINTR` and short writes and
/// blocking the calling LWP in `poll()` on `EAGAIN`.
///
/// This is the bound-thread convenience; unbound threads should go through
/// `sunmt-io`, which parks at user level instead.
pub fn write_all_blocking(fd: i32, mut buf: &[u8]) -> Result<(), Errno> {
    while !buf.is_empty() {
        match write(fd, buf) {
            Ok(n) => buf = &buf[n..],
            Err(Errno::EINTR) => continue,
            Err(Errno::EAGAIN) => {
                let mut pfd = [PollFd {
                    fd,
                    events: POLLOUT,
                    revents: 0,
                }];
                retry_eintr(|| poll(&mut pfd, -1))?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn pipe_round_trips_bytes() {
        let (r, w) = pipe2(O_CLOEXEC).unwrap();
        assert_eq!(write(w, b"abc").unwrap(), 3);
        let mut buf = [0u8; 8];
        assert_eq!(read(r, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn nonblocking_read_reports_eagain() {
        let (r, w) = pipe2(O_NONBLOCK | O_CLOEXEC).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(read(r, &mut buf), Err(Errno::EAGAIN));
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn epoll_reports_readability() {
        let (r, w) = pipe2(O_NONBLOCK | O_CLOEXEC).unwrap();
        let ep = epoll_create1(EPOLL_CLOEXEC).unwrap();
        let ev = EpollEvent {
            events: EPOLLIN,
            data: r as u64,
        };
        epoll_ctl(ep, EPOLL_CTL_ADD, r, Some(&ev)).unwrap();
        let mut out = [EpollEvent::default(); 4];
        // Nothing readable yet.
        assert_eq!(epoll_wait(ep, &mut out, 0).unwrap(), 0);
        write(w, b"x").unwrap();
        assert_eq!(epoll_wait(ep, &mut out, 1000).unwrap(), 1);
        let data = out[0].data;
        assert_eq!(data as i32, r);
        for fd in [r, w, ep] {
            close(fd).unwrap();
        }
    }

    #[test]
    fn socketpair_and_poll_work() {
        let (a, b) = socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0).unwrap();
        write_all_blocking(a, b"ping").unwrap();
        let mut pfd = [PollFd {
            fd: b,
            events: POLLIN,
            revents: 0,
        }];
        assert_eq!(poll(&mut pfd, 1000).unwrap(), 1);
        let mut buf = [0u8; 8];
        assert_eq!(read(b, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        close(a).unwrap();
        close(b).unwrap();
    }

    #[test]
    fn loopback_listen_accept_connect() {
        let l = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0).unwrap();
        bind_in(l, &SockAddrIn::loopback(0)).unwrap();
        listen(l, 8).unwrap();
        let port = getsockname_in(l).unwrap().port();
        assert_ne!(port, 0);
        let c = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0).unwrap();
        connect_in(c, &SockAddrIn::loopback(port)).unwrap();
        let s = accept4(l, SOCK_CLOEXEC).unwrap();
        write_all_blocking(c, b"hello").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(retry_eintr(|| read(s, &mut buf)).unwrap(), 5);
        for fd in [l, c, s] {
            close(fd).unwrap();
        }
    }

    #[test]
    fn set_nonblocking_toggles_eagain() {
        let (r, w) = pipe2(O_CLOEXEC).unwrap();
        set_nonblocking(r, true).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(read(r, &mut buf), Err(Errno::EAGAIN));
        set_nonblocking(r, false).unwrap();
        write(w, b"y").unwrap();
        assert_eq!(read(r, &mut buf).unwrap(), 1);
        close(r).unwrap();
        close(w).unwrap();
    }

    #[test]
    fn retry_eintr_passes_other_results_through() {
        let flag = AtomicBool::new(false);
        let r: Result<u32, Errno> = retry_eintr(|| {
            if flag.swap(true, Ordering::Relaxed) {
                Ok(7)
            } else {
                Err(Errno::EINTR)
            }
        });
        assert_eq!(r, Ok(7));
        assert_eq!(
            retry_eintr(|| Err::<u32, _>(Errno::EAGAIN)),
            Err(Errno::EAGAIN)
        );
    }
}

//! The poller's one-registration protocol at the public API.
//!
//! A descriptor is armed edge-triggered on its first wait in each
//! direction and stays registered until `sunmt_io::close`. These tests pin
//! the paths that protocol moves: a writer's first wait (an ADD, or the
//! MOD that adds `EPOLLOUT` to a read-registered socket), a timed-out
//! writer, a closed fd number coming back for a new file, and the race
//! between an edge and a reader that has seen `EAGAIN` but not yet joined
//! the fd's waiter list.
//!
//! The tests hold one lock while they run: the fd-reuse case needs fd
//! numbers nobody else in the process is allocating, and the stress case
//! wants the pool to itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sunos_mt::io as sunmt_io;
use sunos_mt::sys::errno::Errno;
use sunos_mt::sys::fd;
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Round trips per pair of the lost-edge stress.
const ROUND_TRIPS: usize = 100_000;

/// Socketpairs the lost-edge stress runs at once.
const PAIRS: usize = 2;

/// A reader that waits this long for a byte its peer already sent has
/// lost an edge.
const EDGE_TIMEOUT: Duration = Duration::from_secs(5);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn_unbound(f: impl FnOnce() + Send + 'static) -> threads::ThreadId {
    threads::init();
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn unbound thread")
}

/// Fills a nonblocking pipe's buffer with plain writes until `EAGAIN`.
fn fill(w: i32) -> usize {
    let chunk = [0u8; 4096];
    let mut total = 0;
    loop {
        match fd::write(w, &chunk) {
            Ok(n) => total += n,
            Err(Errno::EAGAIN) => return total,
            Err(e) => panic!("filling the pipe: {e:?}"),
        }
    }
}

/// Has an unbound thread run `first` on `w`, then write far more to `w`
/// than its buffer holds, while this thread waits until the writer is
/// blocked and then drains `r`. The write must complete intact.
fn blocked_writer_completes(w: i32, r: i32, first: impl FnOnce(i32) + Send + 'static) {
    const LEN: usize = 1024 * 1024;
    let written = Arc::new(AtomicUsize::new(0));
    let writer = {
        let written = Arc::clone(&written);
        spawn_unbound(move || {
            first(w);
            let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            sunmt_io::write_all(w, &data).expect("writer");
            written.store(LEN, Ordering::SeqCst);
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(written.load(Ordering::SeqCst), 0, "the buffer never filled");
    let mut got = Vec::with_capacity(LEN);
    let mut buf = [0u8; 8192];
    while got.len() < LEN {
        let n = sunmt_io::read_timeout(r, &mut buf, EDGE_TIMEOUT).expect("drain");
        assert!(n > 0, "writer end closed early");
        got.extend_from_slice(&buf[..n]);
    }
    threads::wait(Some(writer)).expect("join writer");
    assert_eq!(written.load(Ordering::SeqCst), LEN);
    assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    sunmt_io::close(r).unwrap();
    sunmt_io::close(w).unwrap();
}

#[test]
fn unbound_writer_blocks_on_a_full_pipe_and_completes() {
    let _g = serial();
    let (r, w) = sunmt_io::pipe().expect("pipe");
    // The write end's first wait is the writer's: an ADD of EPOLLOUT.
    blocked_writer_completes(w, r, |_| {});
}

#[test]
fn a_read_registered_socket_is_rearmed_for_its_writer() {
    let _g = serial();
    let (x, y) = sunmt_io::socketpair_stream().expect("socketpair");
    // x first waits to read (an ADD of EPOLLIN), then to write: the MOD
    // that adds EPOLLOUT.
    let peer = spawn_unbound(move || {
        std::thread::sleep(Duration::from_millis(10));
        sunmt_io::write_all(y, &[7]).expect("wake the reader");
    });
    blocked_writer_completes(x, y, |x| {
        let mut one = [0u8; 1];
        assert_eq!(sunmt_io::read_timeout(x, &mut one, EDGE_TIMEOUT), Ok(1));
    });
    threads::wait(Some(peer)).expect("join peer");
}

#[test]
fn write_timeout_on_a_full_pipe_reports_etimedout() {
    let _g = serial();
    let (r, w) = sunmt_io::pipe().expect("pipe");
    let id = spawn_unbound(move || {
        assert!(fill(w) > 0);
        let t0 = Instant::now();
        assert_eq!(
            sunmt_io::write_timeout(w, &[1], Duration::from_millis(30)),
            Err(Errno::ETIMEDOUT)
        );
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(25),
            "returned after {waited:?}"
        );
    });
    threads::wait(Some(id)).expect("join writer");
    sunmt_io::close(r).unwrap();
    sunmt_io::close(w).unwrap();
}

#[test]
fn a_reused_fd_number_is_watched_again() {
    let _g = serial();
    // A reader parks on fd N, which `close` then takes away.
    let (n, w) = sunmt_io::pipe().expect("pipe");
    let first = spawn_unbound(move || {
        let mut buf = [0u8; 1];
        assert_eq!(sunmt_io::read(n, &mut buf), Err(Errno::EBADF));
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while sunmt_io::stats().pending_waiters == 0 {
        assert!(Instant::now() < deadline, "the first reader never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    sunmt_io::close(n).unwrap();
    threads::wait(Some(first)).expect("join first reader");
    sunmt_io::close(w).unwrap();

    // Get N back for a new file: a socketpair end, so whichever end
    // lands on N can be read while the other is written.
    let mut pairs = Vec::new();
    let (x, y) = loop {
        let (a, b) = sunmt_io::socketpair_stream().expect("socketpair");
        pairs.push((a, b));
        if a == n {
            break (a, b);
        }
        if b == n {
            break (b, a);
        }
        assert!(pairs.len() < 64, "fd {n} never came back");
    };
    let second = spawn_unbound(move || {
        let mut buf = [0u8; 1];
        assert_eq!(
            sunmt_io::read_timeout(x, &mut buf, EDGE_TIMEOUT),
            Ok(1),
            "a reader on the reused fd {x} was not woken"
        );
        assert_eq!(buf[0], 42);
    });
    std::thread::sleep(Duration::from_millis(20));
    sunmt_io::write_all(y, &[42]).unwrap();
    threads::wait(Some(second)).expect("join second reader");
    for (a, b) in pairs {
        sunmt_io::close(a).unwrap();
        sunmt_io::close(b).unwrap();
    }
}

#[test]
fn ping_pong_loses_no_edge() {
    let _g = serial();
    threads::init();
    // Two LWPs, so an edge can land between a reader's EAGAIN and its
    // joining the waiter list; two pairs, so that gap is often preempted.
    threads::set_concurrency(2).expect("two pool LWPs");
    let mut ids = Vec::new();
    let mut fds = Vec::new();
    for _ in 0..PAIRS {
        let (a, b) = sunmt_io::socketpair_stream().expect("socketpair");
        fds.extend([a, b]);
        ids.push(spawn_unbound(move || {
            let mut buf = [0u8; 1];
            for i in 0..ROUND_TRIPS {
                match sunmt_io::read_timeout(b, &mut buf, EDGE_TIMEOUT) {
                    Ok(1) => sunmt_io::write_all(b, &buf).expect("echo write"),
                    other => panic!("echo read {i}: {other:?} (a lost edge if ETIMEDOUT)"),
                }
            }
        }));
        ids.push(spawn_unbound(move || {
            let mut buf = [0u8; 1];
            for i in 0..ROUND_TRIPS {
                sunmt_io::write_all(a, &[i as u8]).expect("client write");
                match sunmt_io::read_timeout(a, &mut buf, EDGE_TIMEOUT) {
                    Ok(1) => assert_eq!(buf[0], i as u8),
                    other => panic!("client read {i}: {other:?} (a lost edge if ETIMEDOUT)"),
                }
            }
        }));
    }
    for id in ids {
        threads::wait(Some(id)).expect("join ping-pong thread");
    }
    for f in fds {
        sunmt_io::close(f).unwrap();
    }
}

//! `echo_idle` — the window server: one thread per client, most of them
//! idle.
//!
//! 512 `socketpair_stream` connections, one pre-spawned unbound thread per
//! connection looping `read_timeout(conn, 1 s)` → `write_all`. One driver
//! kernel thread keeps 8 requests in flight, rotating over all 512
//! connections in a seeded order, so every server thread has parked again
//! before its next request. 16-byte payload (id + stamp).
//! `sunmt-io` registration/park/poller wake, the `timeoutq` insert/remove
//! on every park and the LWP idle park/unpark dominate; no channel and no
//! contended synchronization variable.
//!
//! Operation = one echo; latency = driver write → driver read of the echo.
//! Closed loop, 8 in flight. Oracle: the payload comes back unchanged.

use std::collections::VecDeque;
use std::time::Duration;

use sunmt_sys::Errno;

use super::Prepared;
use crate::harness::{join_all, now, unbound, wait_go, Checksum, Rec, SmallRng};
use crate::span::{sampled, Name, Spans};

pub const CONNS: usize = 512;
pub const IN_FLIGHT: usize = 8;
pub const READ_TIMEOUT: Duration = Duration::from_secs(1);
const MSG: usize = 16;
const SPAN_SHIFT: u32 = 3;

fn encode(id: u64, stamp: u64) -> [u8; MSG] {
    let mut m = [0u8; MSG];
    m[..8].copy_from_slice(&id.to_le_bytes());
    m[8..].copy_from_slice(&stamp.to_le_bytes());
    m
}

fn word(m: &[u8]) -> u64 {
    u64::from_le_bytes(m[..8].try_into().expect("eight bytes"))
}

pub fn setup(seed: u64) -> Prepared {
    sunmt_sys::resource::raise_nofile((2 * CONNS + 64) as u64).expect("raise RLIMIT_NOFILE");
    let mut rng = SmallRng::new(seed);
    let mut sum = Checksum::new();
    // The order in which the driver visits the connections.
    let mut order: Vec<usize> = (0..CONNS).collect();
    for i in (1..CONNS).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order.iter().for_each(|c| sum.add(*c as u64));

    let pairs: Vec<(i32, i32)> = (0..CONNS)
        .map(|_| sunmt_io::socketpair_stream().expect("socketpair"))
        .collect();
    let servers: Vec<_> = pairs
        .iter()
        .map(|&(srv, _)| unbound(move || server(srv)))
        .collect();
    let clients: Vec<i32> = pairs.iter().map(|&(_, cli)| cli).collect();
    let driver = std::thread::Builder::new()
        .name("bench-driver".into())
        .spawn(move || driver(&clients, &order))
        .expect("spawn driver thread");

    Prepared {
        checksum: sum.get(),
        sizes: format!(
            "conns={CONNS} in_flight={IN_FLIGHT} payload_bytes={MSG} read_timeout_s={} \
             driver_threads=1 io_backend={}",
            READ_TIMEOUT.as_secs(),
            sunmt_io::backend_name()
        ),
        op_unit: "echoes/s",
        span_shift: SPAN_SHIFT,
        finish: Box::new(move || {
            // The driver closes the client ends when it is done; every
            // server then reads end-of-file and exits.
            driver.join().expect("driver thread panicked");
            join_all(servers);
            for (srv, _) in pairs {
                let _ = sunmt_io::close(srv);
            }
            0
        }),
    }
}

fn server(fd: i32) {
    let mut spans = Spans::new();
    let mut buf = [0u8; 64];
    loop {
        let n = match sunmt_io::read_timeout(fd, &mut buf, READ_TIMEOUT) {
            Ok(0) => return,
            Ok(n) => n,
            Err(Errno::ETIMEDOUT) => continue,
            Err(e) => panic!("server read: {e}"),
        };
        let id = word(&buf);
        let on = n == MSG && sampled(id, SPAN_SHIFT);
        if on {
            // From the stamp the driver took just before its write to this
            // thread running again: registration, park, poller wake.
            spans.push(Name::IoWake, 0, id, word(&buf[8..]), now());
        }
        spans.call(on, Name::IoWrite, 1, id, || {
            sunmt_io::write_all(fd, &buf[..n]).expect("server echo")
        });
    }
}

fn driver(clients: &[i32], order: &[usize]) {
    let mut spans = Spans::new();
    let mut in_flight: VecDeque<(i32, [u8; MSG], bool)> = VecDeque::with_capacity(IN_FLIGHT);
    wait_go();
    let mut rec = Rec::new();
    let mut seq = 0u64;
    let mut running = true;
    loop {
        while running && in_flight.len() < IN_FLIGHT {
            let fd = clients[order[seq as usize % CONNS]];
            let on = sampled(seq, SPAN_SHIFT);
            let msg = encode(seq, now());
            spans.call(on, Name::IoWrite, 0, seq, || {
                sunmt_io::write_all(fd, &msg).expect("driver write")
            });
            in_flight.push_back((fd, msg, on));
            seq += 1;
        }
        let Some((fd, sent, on)) = in_flight.pop_front() else {
            break;
        };
        let mut echo = [0u8; MSG];
        let mut got = 0;
        spans.call(on, Name::IoRead, 0, word(&sent), || {
            while got < MSG {
                match sunmt_io::read(fd, &mut echo[got..]) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got += n,
                }
            }
        });
        let (t0, t1) = (word(&sent[8..]), now());
        if on {
            spans.push(Name::Op, 0, word(&sent), t0, t1);
        }
        running &= rec.op(t0, t1, 1, u64::from(echo != sent));
    }
    for fd in clients {
        let _ = sunmt_io::close(*fd);
    }
}

//! A network-server-shaped demo of `SIGWAITING` deadlock avoidance: many
//! unbound threads block in "indefinite, external" waits (the paper's
//! `poll()` case) while new requests keep arriving — the pool grows so the
//! process never wedges.
//!
//! "A network server may indirectly need its own service (and therefore
//! another thread of control) to handle requests."
//!
//! Run with: `cargo run --release --example poll_server`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sunos_mt::threads::{self, blocking, CreateFlags, ThreadBuilder};

const CONNECTIONS: usize = 12;
const REQUESTS_PER_CONN: usize = 5;

fn main() {
    threads::init();
    let start_pool = threads::concurrency();
    let grows_before = threads::stats().pool_grows;

    // Each "connection" is a channel; its handler thread blocks
    // indefinitely (from the library's perspective) waiting for requests.
    let handled = Arc::new(AtomicUsize::new(0));
    let mut conns = Vec::new();
    let mut ids = Vec::new();
    for c in 0..CONNECTIONS {
        let (tx, rx) = mpsc::channel::<Option<u32>>();
        conns.push(tx);
        let handled = Arc::clone(&handled);
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    loop {
                        // The paper's poll(): an indefinite wait on an
                        // external event, keeping the thread bound to its
                        // LWP. `blocking` counts the LWP as blocked, so
                        // the last one to block posts SIGWAITING.
                        let req = blocking(|| rx.recv().expect("request channel"));
                        match req {
                            Some(n) => {
                                // "Service" the request.
                                std::hint::black_box(n.wrapping_mul(2654435761));
                                handled.fetch_add(1, Ordering::Relaxed);
                            }
                            None => break,
                        }
                    }
                    let _ = c;
                })
                .expect("handler"),
        );
    }

    // Drive requests round-robin; the handlers' indefinite waits force the
    // pool to grow past its initial size.
    for r in 0..REQUESTS_PER_CONN {
        for tx in &conns {
            tx.send(Some(r as u32)).expect("send");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    while handled.load(Ordering::Relaxed) < CONNECTIONS * REQUESTS_PER_CONN {
        std::thread::sleep(Duration::from_millis(1));
    }
    for tx in &conns {
        tx.send(None).expect("send close");
    }
    for id in ids {
        threads::wait(Some(id)).expect("thread_wait");
    }

    let grows = threads::stats().pool_grows - grows_before;
    println!(
        "{} requests over {CONNECTIONS} connections handled",
        CONNECTIONS * REQUESTS_PER_CONN
    );
    println!(
        "LWP pool: {start_pool} -> {} ({grows} LWPs grown on SIGWAITING)",
        threads::concurrency()
    );
    println!("no request starved despite every handler blocking indefinitely: OK");
}

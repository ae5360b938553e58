//! An LWP that never records a probe must not pin probe memory.
//!
//! Every bound thread runs on a fresh LWP, and the scheduler tells the
//! tracer which user thread runs there. That must be a plain TLS store:
//! the per-LWP probe block (ring, counters, histogram cells) is made only
//! on the LWP's first recorded probe, and the registry keeps every block
//! it ever made. With observability off, a thousand bound create/join
//! cycles must leave resident memory flat.
//!
//! Its own binary, so no other test's LWPs or blocks skew `VmRSS`.

use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

fn bound_create_join(n: usize) {
    for _ in 0..n {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::BIND_LWP | CreateFlags::WAIT)
            .spawn(|| {})
            .expect("spawn bound thread");
        threads::wait(Some(id)).expect("join bound thread");
    }
}

#[test]
fn bound_threads_pin_no_probe_memory_while_observability_is_off() {
    threads::init();
    assert!(!sunos_mt::trace::enabled(), "observability must be off");
    // Warm the allocator, the stack cache and the pool first.
    bound_create_join(50);
    let before = vm_rss_kb();
    bound_create_join(1_000);
    let grown = vm_rss_kb().saturating_sub(before);
    assert!(
        grown < 2 * 1024,
        "1000 bound create/join cycles grew VmRSS by {grown} kB"
    );
}

//! The five workloads. Names and sizes are fixed: later issues cite them.

pub mod chan_pipeline;
pub mod db;
pub mod echo_idle;
pub mod spawn_join;

use crate::harness::nproc;

pub const NAMES: [&str; 5] = [
    "spawn_join",
    "db_read",
    "db_write",
    "chan_pipeline",
    "echo_idle",
];

/// A workload after set-up: its generator threads exist and wait at the
/// start gate (or are parked in the library, for servers).
pub struct Prepared {
    /// Checksum of the inputs generated from the seed.
    pub checksum: u64,
    /// The sizes in effect, for the printed header.
    pub sizes: String,
    /// Unit of `ops_per_s`.
    pub op_unit: &'static str,
    /// Log2 of the span sampling stride (one operation in `2^shift`).
    pub span_shift: u32,
    /// Joins the generator threads once the clock has run out, applies
    /// the end-of-run oracles and returns the operations they failed.
    pub finish: Box<dyn FnOnce() -> u64>,
}

/// Pool LWPs for a workload: `min(nproc, 4)`, except that `echo_idle`
/// leaves one processor to its driver kernel thread.
pub fn pool_lwps(name: &str) -> usize {
    if name == "echo_idle" {
        nproc().saturating_sub(1).max(1)
    } else {
        nproc().min(4)
    }
}

pub fn setup(name: &str, seed: u64) -> Option<Prepared> {
    Some(match name {
        "spawn_join" => spawn_join::setup(seed),
        "db_read" => db::setup(seed, db::Mix::Read),
        "db_write" => db::setup(seed, db::Mix::Write),
        "chan_pipeline" => chan_pipeline::setup(seed),
        "echo_idle" => echo_idle::setup(seed),
        _ => return None,
    })
}

//! Seeded PCT-style randomized schedule fuzzing.
//!
//! The exhaustive sweep owns the small end of the schedule space; this
//! module samples the rest. The strategy is probabilistic concurrency
//! testing (Burckhardt et al., ASPLOS '10): give every thread a random
//! priority, always run the highest-priority runnable one, and demote the
//! leader at a few random *change points* during the run. For a bug of
//! depth `d` this finds it with probability ≥ 1/(n·k^(d-1)) per run —
//! far better than uniform random walks, which almost never chain the
//! ordered switches a lost wakeup or torn read needs.
//!
//! Everything is seeded: the same `(model, variant, seed, iters)` fuzzes
//! the same schedules, and every failure is reported as a replayable
//! [`ScheduleString`] recorded from the run's actual choices — replay
//! does not need the RNG at all.

use crate::explore::{Failure, ScheduleString};
use crate::lockdep::LockGraph;
use crate::model::{run_model, Chooser, Model, Variant};

/// How many failing schedules a report keeps (the rest are counted only).
const MAX_KEPT_FAILURES: usize = 5;

/// SplitMix64, same construction as `sunmt-bench`'s workload RNG (the
/// repo builds with no external crates, so no `rand` here either).
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The PCT chooser: highest random priority runs; at each change point
/// the current leader is demoted below everyone.
struct PctChooser {
    rng: Rng,
    /// Priority per model thread index, drawn lazily in the order the
    /// threads are first met.
    prio: Vec<i64>,
    /// Decision ordinals at which to demote the leader.
    change_points: Vec<usize>,
    /// Next demotion value; always below every initial priority.
    next_low: i64,
}

/// Decision-ordinal horizon the change points are sampled from. Runs are
/// short (well under this many contested decisions), so points past the
/// run's end simply never fire — harmless.
const CHANGE_HORIZON: u64 = 64;

/// Number of change points per run: depth-3 bugs and shallower.
const CHANGE_POINTS: usize = 3;

impl PctChooser {
    fn new(seed: u64) -> PctChooser {
        let mut rng = Rng::new(seed);
        let change_points = (0..CHANGE_POINTS)
            .map(|_| rng.below(CHANGE_HORIZON) as usize)
            .collect();
        PctChooser {
            rng,
            prio: Vec::new(),
            change_points,
            next_low: -1,
        }
    }

    fn prio_of(&mut self, i: usize) -> i64 {
        if self.prio.len() <= i {
            self.prio.resize(i + 1, 0);
        }
        if self.prio[i] == 0 {
            // Initial priorities are positive; demotions go negative, so
            // a demoted thread stays below every fresh one.
            self.prio[i] = self.rng.below(1 << 32) as i64 + 1;
        }
        self.prio[i]
    }
}

impl Chooser for PctChooser {
    fn choose(&mut self, cands: &[usize], _cont: Option<u32>, pos: usize) -> u32 {
        let leader = (0..cands.len())
            .max_by_key(|i| self.prio_of(cands[*i]))
            .expect("cands is non-empty") as u32;
        if self.change_points.contains(&pos) {
            // Demote the leader below everyone and re-pick.
            self.prio[cands[leader as usize]] = self.next_low;
            self.next_low -= 1;
            return (0..cands.len())
                .max_by_key(|i| self.prio_of(cands[*i]))
                .expect("cands is non-empty") as u32;
        }
        leader
    }
}

/// Knobs for the fuzz pass.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` runs with `seed + i`.
    pub seed: u64,
    /// Number of randomized schedules to run.
    pub iters: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0x5_0a05,
            iters: 2_000,
        }
    }
}

/// What a fuzz pass found.
pub struct FuzzReport {
    /// Schedules executed (= `iters`).
    pub schedules: u64,
    /// Runs that failed.
    pub failed_runs: u64,
    /// Representative failures, at most [`MAX_KEPT_FAILURES`], recorded
    /// as replayable schedule strings.
    pub failures: Vec<Failure>,
    /// Lock-order graph aggregated across every run.
    pub lockdep: LockGraph,
}

/// Runs `iters` PCT-randomized schedules of `model` under `variant`.
pub fn fuzz(model: &Model, variant: Variant, cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        schedules: 0,
        failed_runs: 0,
        failures: Vec::new(),
        lockdep: LockGraph::new(),
    };
    for i in 0..cfg.iters {
        let mut chooser = PctChooser::new(cfg.seed.wrapping_add(i));
        let out = run_model(model, variant, &mut chooser);
        report.schedules += 1;
        report.lockdep.ingest(&out.events);
        if let Some(msg) = &out.failure {
            report.failed_runs += 1;
            let dup = report.failures.iter().any(|f| f.message == *msg);
            if !dup && report.failures.len() < MAX_KEPT_FAILURES {
                report.failures.push(Failure {
                    schedule: ScheduleString {
                        model: model.name.to_string(),
                        variant,
                        choices: out.taken.clone(),
                    },
                    message: msg.clone(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::replay;
    use crate::model::{Expect, SyncOp};

    #[test]
    fn fuzz_is_deterministic_per_seed_and_finds_races() {
        let m = Model {
            name: "racy",
            about: "",
            threads: vec![vec![SyncOp::Incr(0)], vec![SyncOp::Incr(0)]],
            mutexes: 0,
            cvs: 0,
            sema_init: vec![],
            rws: 0,
            counters: 1,
            flags: 0,
            crits: 0,
            runq_shards: 0,
            chan_caps: vec![],
            io_fds: 0,
            kernel_buckets: vec![],
            thread_pris: vec![],
            final_counters: vec![(0, 2)],
            expect: Expect::FailContaining("counter"),
            min_schedules: 0,
            preemption_bound: None,
            variants: vec![Variant::Default],
        };
        let cfg = FuzzConfig {
            seed: 42,
            iters: 200,
        };
        let a = fuzz(&m, Variant::Default, &cfg);
        let b = fuzz(&m, Variant::Default, &cfg);
        assert_eq!(a.failed_runs, b.failed_runs, "fuzzing must be seeded");
        assert!(a.failed_runs > 0, "PCT should tear a bare increment race");
        // Failures replay without the RNG.
        let f = &a.failures[0];
        let out = replay(&[m], &f.schedule).unwrap();
        assert_eq!(out.failure.as_deref(), Some(f.message.as_str()));
    }
}

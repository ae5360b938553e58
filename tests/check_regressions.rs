//! The seeded regression corpus for the schedule-exploration checker.
//!
//! Each entry is a schedule string that `sunmt-check` printed during
//! development — harvested from real exhaustive-DFS and PCT-fuzz runs —
//! committed so the exact interleaving replays deterministically forever.
//! If a model, the micro-step machines, or the run loop's dispatch
//! placement ever changes behaviour, these replays are the first thing
//! that notices: a corpus entry either stops producing its recorded
//! outcome or stops being replayable at all.
//!
//! Harvest new entries with `cargo run -p sunmt-check -- run` (failures
//! print `FAILING SCHEDULE: v1/...`) and verify them with
//! `cargo run -p sunmt-check -- replay <string>` before committing.

use sunmt_check::{models, replay, ScheduleString};

/// `(schedule string, substring the classified failure must contain;
/// empty string = the run must pass)`.
const CORPUS: &[(&str, &str)] = &[
    // The check-then-wait race: the consumer tests the flag outside the
    // mutex, the producer's signal lands while nobody waits, and the
    // consumer sleeps forever. Found by the exhaustive sweep.
    ("v1/neg_lost_wakeup/default/1.0.1.1.1", "lost wakeup"),
    // Same interleaving under the kernel-visible SYNC_SHARED parking.
    ("v1/neg_lost_wakeup/shared/1.0.1.1.1", "lost wakeup"),
    // AB-BA: both threads get their first lock, then both park on the
    // other's. Found by the exhaustive sweep.
    ("v1/neg_lock_cycle/default/1.0.0.0.1.1.1", "deadlock"),
    ("v1/neg_lock_cycle/shared/1.0.0.0.1.1.1", "deadlock"),
    // DEBUG-variant misuse models fail on every schedule, including the
    // empty (serial) one.
    ("v1/neg_debug_recursive/debug/-", "recursive"),
    ("v1/neg_debug_unlock/debug/-", "non-owner"),
    // Adversarial passing schedules: maximal alternation through the
    // mutex fast/slow paths, the cv consumer-first handoff, and the
    // tryupgrade race (one upgrades, the loser falls back to a write
    // enter) must all stay correct.
    ("v1/mutex_basic/default/1.1.1.1.1.1.1.1.1", ""),
    ("v1/cv_pingpong/shared/1.1.0.1", ""),
    ("v1/rw_tryupgrade/default/1.1.1.1.1", ""),
    // Reader slots: reader 0 enters on slot 0, the writer claims the lock,
    // sums the slots, arms the drain word and parks; reader 0 then leaves
    // through slot 1, sees the slots sum to 0 and wakes the drainer.
    ("v1/rw_slots/default/0.2.2.0", ""),
    // Check before publish: the racy reader sees no writer, the writer
    // claims the lock and sums empty slots, the reader publishes and reads
    // while the writer increments. Found by the exhaustive sweep.
    (
        "v1/neg_rw_check_before_publish/default/0.0.1.1.0.1.0",
        "torn read",
    ),
    // The lockless-steal negative: both thieves peek shard 0's head
    // before either removes it, and the same item dispatches twice.
    // Found by the exhaustive sweep.
    (
        "v1/neg_runq_double_steal/default/1.1.0.1.1.1.1.1.0.0",
        "dispatched twice",
    ),
    (
        "v1/neg_runq_double_steal/shared/1.1.0.1.1.1.1.1.0.0",
        "dispatched twice",
    ),
    // Sharded-runq handoff: shard 1's dispatcher steals shard 0's item,
    // shard 0's dispatcher parks idle, and the injected item wakes it —
    // steal, park, and injection wakeup in one passing schedule.
    ("v1/runq_steal/default/0.1", ""),
    // Adaptive mutex: the second thread spins while the holder runs,
    // then acquires cleanly on release.
    ("v1/mutex_adaptive/default/0.1.0.1.0.1", ""),
    // Channel lost wakeup: the receiver finds the ring empty, the send
    // commits and fires its wakeup before the receiver registers, and
    // the buggy no-recheck variant parks anyway with a message queued.
    // Found by the exhaustive sweep.
    ("v1/neg_chan_lost_wakeup/default/1.0.1.1.1", "lost wakeup"),
    // Peek-then-pop double receive: both racy receivers peek message 0
    // before either pops, so one accounts a message the other already
    // took. Found by the exhaustive sweep.
    (
        "v1/neg_chan_double_recv/default/1.1.0.1.1.1.1.1.0.0",
        "received twice",
    ),
    // Select variant of the lost wakeup: the racy selector scans its
    // ports *before* registering hooks, so the send that lands between
    // scan and park never fires a hook. Found by the exhaustive sweep.
    ("v1/neg_chan_select_race/default/1.0.1.1.1", "lost wakeup"),
    // Adversarial passing schedules: maximal alternation through the
    // MPSC commit/wake/park machine, and a select interleaving where
    // both producers race the selector's hook registration, must both
    // deliver every message exactly once.
    ("v1/chan_mpsc/default/1.1.1.1.1.1.1.1.1.1.1.1", ""),
    ("v1/chan_select/default/1.1.0.1.1.0.1.1", ""),
    // Edge-triggered poller without the ready flag: the first unit lands
    // on the unarmed fd after the reader's EAGAIN (no edge); the reader's
    // arm finds it and reads it. Its second wait sees EAGAIN, the next
    // unit's edge lands before it joins the fd table and is dropped, and
    // it parks on data that no further edge will report. Found by the
    // exhaustive sweep.
    (
        "v1/neg_io_lost_wakeup/default/0.0.0.0.0.1.0.1.1",
        "lost wakeup",
    ),
    // Adversarial passing schedule through the poller: both readers arm
    // on first wait and park, each is woken by its fd's edge, and fd 0's
    // second edge finds no listed waiter, so it sets the ready flag; the
    // reader's second wait takes the flag instead of parking and reads
    // the data. Found by an exhaustive enumeration.
    ("v1/io_shard/default/0.2.2.0.1.1.1.1.2.2.2.1.1", ""),
    // The kernel-wake gate's lost wakeup: the racy parker checks the word
    // (clear), the waker sets it and reads the bucket's parker count before
    // the parker's increment lands, so it skips the futex wake; the parker
    // then sleeps on its stale check. Found by the exhaustive sweep.
    ("v1/neg_kernel_wake_gate/default/0.0.1.1", "lost wakeup"),
    // Adversarial passing schedule through the gate on a shared bucket:
    // parker 1 sleeps on word 1; the waker of word 0 reads a non-zero count
    // in the shared bucket and makes a wake that finds nobody on word 0;
    // the waker of word 1 then wakes parker 1. Parker 0 never sleeps.
    ("v1/kernel_wake_gate/default/0.0.0.1.1.1.2.2.2", ""),
    // The unbounded priority inversion: the tick preempts the low-priority
    // lock holder while the high-priority waiter is already parked on its
    // mutex, and the middle-priority hog stays runnable — without priority
    // inheritance nothing ever outranks the hog on the holder's behalf, so
    // the waiter's wait is unbounded. Found by the exhaustive sweep.
    (
        "v1/neg_pi_unbounded_inversion/default/0.2.2.2.1.2.2.2.2.2.2.0.1.0",
        "unbounded priority inversion",
    ),
    // Adversarial passing schedule through the same triangle with priority
    // inheritance on: the parking waiter boosts the holder to its own
    // priority (pi-boost fires), the tick then finds the boosted holder
    // outranking the middle hog so the preempt gate holds it on its
    // processor, and the release strips the boost (pi-strip fires) before
    // handing the lock over — the inversion oracle must stay silent.
    (
        "v1/mutex_adaptive_pi/default/0.2.2.2.1.2.2.2.2.2.2.0.1.0",
        "",
    ),
];

#[test]
fn corpus_replays_to_recorded_outcomes() {
    let catalogue = models::catalogue();
    for (s, needle) in CORPUS {
        let sched = ScheduleString::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        let out = replay(&catalogue, &sched).unwrap_or_else(|e| panic!("{s}: {e}"));
        match (needle.is_empty(), &out.failure) {
            (true, None) => {}
            (false, Some(msg)) if msg.contains(needle) => {}
            (_, got) => panic!("{s}: expected {needle:?}, got {got:?}"),
        }
    }
}

#[test]
fn corpus_replays_are_deterministic() {
    // Replaying twice gives byte-identical choices and event logs —
    // the property that makes a printed schedule string a bug report.
    let catalogue = models::catalogue();
    for (s, _) in CORPUS {
        let sched = ScheduleString::parse(s).unwrap();
        let a = replay(&catalogue, &sched).unwrap();
        let b = replay(&catalogue, &sched).unwrap();
        assert_eq!(a.taken, b.taken, "{s}");
        assert_eq!(a.failure, b.failure, "{s}");
        assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events), "{s}");
    }
}

#[test]
fn corpus_strings_round_trip_their_schedules() {
    // A failure found live must print a string that parses back to the
    // same choices the run took (taken[..] extends or equals the forced
    // prefix once the run ends).
    let catalogue = models::catalogue();
    for (s, _) in CORPUS {
        let sched = ScheduleString::parse(s).unwrap();
        let out = replay(&catalogue, &sched).unwrap();
        let reprinted = ScheduleString {
            model: sched.model.clone(),
            variant: sched.variant,
            choices: out.taken.clone(),
        };
        let again = replay(&catalogue, &reprinted).unwrap();
        assert_eq!(out.taken, again.taken, "{s}");
        assert_eq!(out.failure, again.failure, "{s}");
    }
}

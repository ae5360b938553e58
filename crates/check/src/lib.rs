//! `sunmt-check`: a deterministic schedule-exploration checker for the
//! sync-variable suite.
//!
//! The repo's stress tests run the real library on the host kernel, where
//! the scheduler picks one interleaving per run and the interesting ones —
//! the CAS that loses, the signal that lands in the park window — may
//! never happen on a quiet machine. This crate is a model checker in the
//! loom/CHESS tradition: models of the paper's synchronization primitives
//! run on a one-processor run loop whose every dispatch decision is
//! explicit, and the explorer drives the system through *many* schedules
//! instead of one.
//!
//! The pieces:
//!
//! * [`model`] — micro-step models of `mutex_enter/exit/tryenter`,
//!   `cv_wait/timedwait/signal/broadcast`, `sema_p/v`,
//!   `rw_enter/exit/downgrade/tryupgrade`, the adaptive `mutex_enter`
//!   spin/park decision, and the sharded run-queue handoff (owner pop,
//!   steal, injection, idle park/wake), across the paper's
//!   initialization variants (default, `DEBUG`, `SYNC_SHARED`), with
//!   assertion oracles (mutual exclusion, lost updates, torn reads, and
//!   no-loss / no-double-dispatch handoff integrity).
//! * [`models`] — the catalogue: positive models that must pass under
//!   *every* schedule, and negative models seeding a real lost wakeup,
//!   lock-order cycle, or `DEBUG` misuse the checker must find.
//! * [`explore`] — bounded-exhaustive DFS over preemption points (a
//!   configurable preemption bound keeps 3-thread models tractable) and
//!   the replayable [`explore::ScheduleString`]: any failure prints as
//!   `v1/<model>/<variant>/<choices>`, and replaying that string
//!   reproduces the identical run.
//! * [`fuzz`] — seeded PCT-style randomized schedule fuzzing for depths
//!   the exhaustive sweep cannot reach.
//! * [`lockdep`] — a lock-order graph built from the shared
//!   `sunmt-trace` acquire/release tags, reporting cycles (potential
//!   deadlocks) even on runs where the deadlock did not strike.
//!
//! The `sunmt-check` binary wires these into the CI correctness matrix;
//! `tests/check_regressions.rs` at the workspace root replays schedule
//! strings found during development as a permanent regression corpus.

#![deny(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod lockdep;
pub mod model;
pub mod models;

pub use explore::{explore, replay, ExploreConfig, ExploreReport, ScheduleString};
pub use fuzz::{fuzz, FuzzConfig};
pub use lockdep::LockGraph;
pub use model::{run_model, Chooser, Expect, Model, PrefixChooser, RunOutcome, SyncOp, Variant};

//! Timestamped event traces — the simulation's observable output.

use crate::lwp::SimLwpId;
use crate::{Pid, SimTime};

/// One observable kernel event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// An LWP was dispatched onto a CPU.
    Dispatch {
        /// The LWP.
        lwp: SimLwpId,
        /// The CPU index it runs on.
        cpu: usize,
    },
    /// An LWP left its CPU (preempted, blocked, or exited).
    OffCpu {
        /// The LWP.
        lwp: SimLwpId,
        /// Why it left.
        reason: OffCpuReason,
    },
    /// An LWP entered a blocking system call.
    SyscallEnter {
        /// The LWP.
        lwp: SimLwpId,
    },
    /// A blocking system call completed.
    SyscallDone {
        /// The LWP.
        lwp: SimLwpId,
        /// Whether it was aborted with `EINTR` (by `fork()`).
        eintr: bool,
    },
    /// `SIGWAITING` was posted to a process (all LWPs in indefinite waits).
    Sigwaiting {
        /// The process.
        pid: Pid,
    },
    /// A process forked; `all_lwps` distinguishes `fork()` from `fork1()`.
    Fork {
        /// Parent process.
        parent: Pid,
        /// Child process.
        child: Pid,
        /// True for `fork()` (duplicate every LWP), false for `fork1()`.
        all_lwps: bool,
    },
    /// An LWP exited.
    LwpExit {
        /// The LWP.
        lwp: SimLwpId,
    },
}

/// How an LWP left its CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OffCpuReason {
    /// Quantum expired or a higher-priority LWP preempted it.
    Preempted,
    /// Blocked (syscall, page fault, kernel sync object, indefinite wait).
    Blocked,
    /// Exited.
    Exited,
    /// Stopped by debugger/`thread_stop`-style request.
    Stopped,
}

/// The full, ordered record of a simulation run.
#[derive(Default)]
pub struct Trace {
    events: Vec<(SimTime, TraceEvent)>,
}

impl Trace {
    /// Appends an event at time `now`.
    pub fn push(&mut self, now: SimTime, ev: TraceEvent) {
        self.events.push((now, ev));
    }

    /// All events in time order (stable for equal timestamps).
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events
    }

    /// Events matching a predicate.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (SimTime, TraceEvent)> + 'a {
        self.events.iter().filter(move |(_, e)| pred(e))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace as one line per event (for the FIG2 harness).
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for (t, e) in &self.events {
            let _ = writeln!(out, "[{t:>8} us] {e:?}");
        }
        out
    }

    /// Converts the simulation trace into the shared `sunmt-trace` event
    /// vocabulary, so the same collector tooling (rendering, Chrome
    /// export) serves the simulated kernel and the real library alike.
    ///
    /// Simulated microseconds become nanoseconds; events with no shared
    /// tag (`Fork`) are dropped.
    pub fn to_events(&self) -> Vec<sunmt_trace::Event> {
        use sunmt_trace::Tag;
        let mut out = Vec::with_capacity(self.events.len());
        for (t, e) in &self.events {
            let (lwp, tag, a, b) = match e {
                TraceEvent::Dispatch { lwp, cpu } => {
                    (lwp.0, Tag::Dispatch, lwp.0 as u64, *cpu as u64)
                }
                TraceEvent::OffCpu { lwp, reason } => {
                    (lwp.0, Tag::SwitchOut, lwp.0 as u64, *reason as u64)
                }
                TraceEvent::SyscallEnter { lwp } => (lwp.0, Tag::SyscallEnter, 0, 0),
                TraceEvent::SyscallDone { lwp, eintr } => {
                    (lwp.0, Tag::SyscallDone, *eintr as u64, 0)
                }
                TraceEvent::Sigwaiting { pid } => (0, Tag::SigwaitingPost, pid.0 as u64, 0),
                TraceEvent::LwpExit { lwp } => (lwp.0, Tag::LwpExit, lwp.0 as u64, 0),
                TraceEvent::Fork { .. } => continue,
            };
            out.push(sunmt_trace::Event {
                ts_ns: t * 1_000,
                lwp,
                thread: 0,
                tag,
                a,
                b,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_preserves_order_and_filters() {
        let mut tr = Trace::default();
        tr.push(
            5,
            TraceEvent::Dispatch {
                lwp: SimLwpId(1),
                cpu: 0,
            },
        );
        tr.push(9, TraceEvent::LwpExit { lwp: SimLwpId(1) });
        assert_eq!(tr.len(), 2);
        assert!(!tr.is_empty());
        let exits: Vec<_> = tr
            .filter(|e| matches!(e, TraceEvent::LwpExit { .. }))
            .collect();
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].0, 9);
        assert!(tr.render().contains("Dispatch"));
    }

    #[test]
    fn to_events_maps_into_the_shared_vocabulary() {
        use sunmt_trace::Tag;
        let mut tr = Trace::default();
        tr.push(
            5,
            TraceEvent::Dispatch {
                lwp: SimLwpId(3),
                cpu: 1,
            },
        );
        tr.push(
            8,
            TraceEvent::OffCpu {
                lwp: SimLwpId(3),
                reason: OffCpuReason::Blocked,
            },
        );
        tr.push(
            9,
            TraceEvent::Fork {
                parent: Pid(1),
                child: Pid(2),
                all_lwps: true,
            },
        );
        tr.push(12, TraceEvent::LwpExit { lwp: SimLwpId(3) });
        let evs = tr.to_events();
        // Fork has no shared tag and is dropped.
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].tag, Tag::Dispatch);
        assert_eq!(evs[0].ts_ns, 5_000);
        assert_eq!(evs[0].lwp, 3);
        assert_eq!(evs[1].tag, Tag::SwitchOut);
        assert_eq!(evs[1].b, OffCpuReason::Blocked as u64);
        assert_eq!(evs[2].tag, Tag::LwpExit);
        // The shared collector tooling accepts the converted events.
        let json = sunmt_trace::export_chrome(&evs);
        assert!(json.contains("traceEvents"));
    }
}

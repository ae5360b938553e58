//! Simulated LWPs and the operations their programs perform.

use crate::{Pid, SimTime};

/// LWP identifier within the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SimLwpId(pub u32);

/// One step of an LWP's behaviour.
///
/// Programs are sequences of these; the kernel charges virtual time and
/// performs the state transitions. This is the standard way to make
/// scheduling experiments reproducible: behaviour is data, not live code.
#[derive(Clone, Debug)]
pub enum Op {
    /// Consume `0` CPU time and immediately fetch the next op (useful for
    /// dynamic programs that need a decision point).
    Nop,
    /// Consume the given CPU time (preemptible by quantum expiry).
    Compute(SimTime),
    /// A blocking system call completing after `latency` of wall time.
    /// Interruptible calls are aborted with `EINTR` by a concurrent
    /// `fork()` in the same process, as the paper specifies.
    Syscall {
        /// Wall-clock latency until completion.
        latency: SimTime,
        /// Whether `fork()` aborts it with `EINTR`.
        interruptible: bool,
    },
    /// A page fault: like a short non-interruptible system call.
    PageFault {
        /// Fault service latency.
        latency: SimTime,
    },
    /// Block until [`crate::SimKernel::post_wakeup`] — the paper's
    /// "waiting for some indefinite, external event (e.g. in `poll()`)".
    /// This is what makes `SIGWAITING` accounting fire.
    WaitIndefinite,
    /// Acquire a kernel sync object (blocking).
    KmutexLock(usize),
    /// Release a kernel sync object.
    KmutexUnlock(usize),
    /// Arrive at a kernel barrier; blocks until the whole cohort arrives.
    Barrier(usize),
    /// A blocking call the kernel classifies as an *indefinite, external*
    /// wait (`poll()`-like) — it counts toward `SIGWAITING` — whose
    /// external event happens to arrive after `latency`.
    IndefiniteSyscall {
        /// When the external event arrives.
        latency: SimTime,
    },
    /// Wake one LWP blocked in [`Op::WaitIndefinite`], by id (models a
    /// kernel-assisted wakeup such as a futex wake or LWP unpark).
    WakeLwp(SimLwpId),
    /// Voluntarily yield the CPU.
    Yield,
    /// `fork()`: duplicate the whole process (all LWPs). The child LWPs
    /// resume at the same program point.
    Fork,
    /// `fork1()`: duplicate only the calling LWP into a new process.
    Fork1,
    /// Terminate this LWP.
    Exit,
}

/// The behaviour of one LWP: a fixed script or a dynamic closure (used by
/// the checker's models, which decide each next step from shared model
/// state).
pub enum LwpProgram {
    /// A fixed list of operations, executed once.
    Script(Vec<Op>),
    /// A decision procedure invoked each time the LWP needs its next op.
    /// Returning [`Op::Exit`] ends the LWP.
    Dynamic(Box<dyn FnMut(&mut LwpView) -> Op>),
}

impl core::fmt::Debug for LwpProgram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LwpProgram::Script(ops) => f.debug_tuple("Script").field(&ops.len()).finish(),
            LwpProgram::Dynamic(_) => f.write_str("Dynamic(..)"),
        }
    }
}

/// What a dynamic program can see when choosing its next op.
#[derive(Debug)]
pub struct LwpView {
    /// This LWP's id.
    pub lwp: SimLwpId,
    /// The owning process.
    pub pid: Pid,
    /// Current virtual time.
    pub now: SimTime,
    /// Side-channel to the kernel: requests honored after the op is chosen.
    pub requests: Vec<KernelRequest>,
}

/// Requests a dynamic program may issue alongside its next op.
#[derive(Debug)]
pub enum KernelRequest {
    /// Wake an LWP blocked in an indefinite wait (like
    /// [`crate::SimKernel::post_wakeup`], but issuable from inside a
    /// dynamic program — e.g. a modelled `cv_broadcast` releasing several
    /// sleepers in one step).
    Wake(SimLwpId),
}

/// Scheduler-relevant run states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LwpRunState {
    /// Eligible to run.
    Runnable,
    /// On a CPU.
    Running,
    /// Blocked in the kernel (syscall, fault, sync object, indefinite).
    Blocked,
    /// Exited.
    Zombie,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_debug_is_cheap() {
        let s = LwpProgram::Script(vec![Op::Compute(5), Op::Exit]);
        assert!(format!("{s:?}").contains("Script"));
        let d = LwpProgram::Dynamic(Box::new(|_| Op::Exit));
        assert!(format!("{d:?}").contains("Dynamic"));
    }
}

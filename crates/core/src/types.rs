//! Public identifier, flag, and error types of the threads library.

use std::fmt;

/// A thread identifier.
///
/// "The thread IDs have meaning only within a process." Ids of threads
/// created without [`CreateFlags::WAIT`] may be reused after the thread
/// exits; ids of `WAIT` threads are not reused until `thread_wait` returns
/// them. Ids are unique among live threads but not increasing: each LWP
/// hands them out from its own block of consecutive ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The or-able `flags` argument of `thread_create()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CreateFlags(pub u32);

impl CreateFlags {
    /// No flags: an immediately runnable, unbound, non-waitable thread.
    pub const NONE: CreateFlags = CreateFlags(0);
    /// `THREAD_STOP`: "The thread is to be immediately suspended after it is
    /// created. The thread will not run until another thread executes
    /// `thread_continue()` to start it."
    pub const STOP: CreateFlags = CreateFlags(1);
    /// `THREAD_NEW_LWP`: "A new LWP is created along with the thread. The
    /// new LWP is added to the pool of LWPs used to execute threads."
    pub const NEW_LWP: CreateFlags = CreateFlags(2);
    /// `THREAD_BIND_LWP`: "A new LWP is created and the new thread is
    /// permanently bound to it."
    pub const BIND_LWP: CreateFlags = CreateFlags(4);
    /// `THREAD_WAIT`: "Specifies that another thread will eventually wait
    /// for this thread to exit."
    pub const WAIT: CreateFlags = CreateFlags(8);

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: CreateFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for CreateFlags {
    type Output = CreateFlags;
    fn bitor(self, rhs: CreateFlags) -> CreateFlags {
        CreateFlags(self.0 | rhs.0)
    }
}

/// Lifecycle states of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ThreadState {
    /// On a run queue (or being created runnable).
    Runnable = 0,
    /// Executing on an LWP right now.
    Running = 1,
    /// Blocked on a synchronization variable's sleep queue.
    Sleeping = 2,
    /// Suspended by `THREAD_STOP` or `thread_stop()`.
    Stopped = 3,
    /// Exited, retained for `thread_wait()`.
    Zombie = 4,
    /// Fully reaped.
    Dead = 5,
}

impl ThreadState {
    pub(crate) fn from_u8(v: u8) -> ThreadState {
        match v {
            0 => ThreadState::Runnable,
            1 => ThreadState::Running,
            2 => ThreadState::Sleeping,
            3 => ThreadState::Stopped,
            4 => ThreadState::Zombie,
            5 => ThreadState::Dead,
            _ => unreachable!("invalid thread state {v}"),
        }
    }
}

/// Errors reported by the thread interfaces.
#[derive(Debug)]
pub enum MtError {
    /// The thread id names no live thread.
    UnknownThread(ThreadId),
    /// `thread_wait()` on a thread created without `THREAD_WAIT`.
    NotWaitable(ThreadId),
    /// A second `thread_wait()` on the same thread.
    AlreadyWaited(ThreadId),
    /// The operation may not target the calling thread.
    CurrentThread,
    /// No `THREAD_WAIT` thread is outstanding for an any-wait: every one
    /// left is reaped or already claimed by a specific waiter.
    NothingToWait,
    /// A priority below zero ("the priority must be greater than or equal
    /// to zero").
    BadPriority(i32),
    /// An invalid signal number.
    BadSignal(u32),
    /// The kernel refused to create an LWP.
    SpawnFailed(std::io::Error),
}

impl fmt::Display for MtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtError::UnknownThread(id) => write!(f, "no such thread: {id:?}"),
            MtError::NotWaitable(id) => {
                write!(f, "{id:?} was not created with THREAD_WAIT")
            }
            MtError::AlreadyWaited(id) => {
                write!(f, "{id:?} already has a waiter")
            }
            MtError::CurrentThread => write!(f, "operation may not target the calling thread"),
            MtError::NothingToWait => write!(f, "no THREAD_WAIT thread is outstanding"),
            MtError::BadPriority(p) => write!(f, "priority {p} is negative"),
            MtError::BadSignal(s) => write!(f, "invalid signal number {s}"),
            MtError::SpawnFailed(e) => write!(f, "LWP creation failed: {e}"),
        }
    }
}

impl std::error::Error for MtError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_compose_and_test() {
        let f = CreateFlags::WAIT | CreateFlags::STOP;
        assert!(f.contains(CreateFlags::WAIT));
        assert!(f.contains(CreateFlags::STOP));
        assert!(!f.contains(CreateFlags::BIND_LWP));
        assert!(f.contains(CreateFlags::NONE));
    }

    #[test]
    fn state_round_trips() {
        for s in [
            ThreadState::Runnable,
            ThreadState::Running,
            ThreadState::Sleeping,
            ThreadState::Stopped,
            ThreadState::Zombie,
            ThreadState::Dead,
        ] {
            assert_eq!(ThreadState::from_u8(s as u8), s);
        }
    }

    #[test]
    fn errors_render() {
        let e = MtError::UnknownThread(ThreadId(7));
        assert!(format!("{e}").contains("t7"));
    }
}

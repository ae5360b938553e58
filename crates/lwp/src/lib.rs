//! Lightweight processes (LWPs).
//!
//! "A UNIX process consists mainly of an address space and a set of
//! lightweight processes (LWPs) that share that address space. Each LWP can
//! be thought of as a virtual CPU which is available for executing code or
//! system calls."
//!
//! On our substrate the kernel-supported threads of control are host kernel
//! tasks: each [`Lwp`] wraps one, is separately dispatched by the host
//! kernel, performs independent system calls, and runs in parallel on a
//! multiprocessor — exactly the properties the paper requires of LWPs. This
//! crate adds the process-level bookkeeping the paper's kernel keeps for
//! them:
//!
//! * identity ([`LwpId`], the kernel task id),
//! * kernel-level suspension ([`parker::Parker`]),
//! * per-LWP CPU-time accounting ([`cpu_time`]),
//! * the per-LWP preempt flags a preemption tick raises
//!   ([`raise_preempt_all`]),
//! * the count of live LWPs ([`registry`]).
//!
//! CPU binding is the host's own: a bound thread binds its LWP with
//! `sunmt_sys::task::sched_setaffinity`. Scheduling classes (`priocntl`,
//! gang scheduling) are kernel policies the host does not offer, and are
//! not reproduced (DESIGN §2).

#![deny(missing_docs)]

pub mod parker;
pub mod registry;

use std::cell::OnceCell;
use std::sync::atomic::{AtomicI32, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parker::Parker;

/// Size of the run-flag hint table. Slots are handed out round-robin and
/// reused modulo this, so the hints stay merely advisory for processes with
/// more than `RUN_SLOTS` concurrently-live LWPs — safe, because a wrong
/// answer only mis-sizes an adaptive mutex's spin phase.
const RUN_SLOTS: usize = 1024;

/// One cell per LWP slot: 0 while the LWP is (presumed) on a processor,
/// 1 while its parker has it asleep in the kernel or it has exited.
static RUN_FLAGS: [AtomicU32; RUN_SLOTS] = [const { AtomicU32::new(0) }; RUN_SLOTS];
/// One cell per LWP slot: non-zero once a tick (or a cross-LWP priority
/// change) asked the LWP to run a preemption check at its next safepoint —
/// the user-level stand-in for the pending-SIGVTALRM bit.
static PREEMPT_FLAGS: [AtomicU32; RUN_SLOTS] = [const { AtomicU32::new(0) }; RUN_SLOTS];
/// One cell per LWP slot: the priority a blocked waiter pushed onto whatever
/// thread is currently running on that LWP (priority inheritance), 0 when no
/// boost is in effect. Like the run flags, advisory across slot reuse.
static BOOST_PRI: [AtomicI32; RUN_SLOTS] = [const { AtomicI32::new(0) }; RUN_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// The kernel-visible identity of an LWP.
///
/// "There is no system-wide name space for threads or lightweight
/// processes" — ids are meaningful only for bookkeeping within the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LwpId(pub u32);

/// Shared, kernel-adjacent state of one LWP.
#[derive(Debug)]
pub struct LwpState {
    id: LwpId,
    park: Parker,
    /// Index of this LWP's cell in the run-flag hint table.
    slot: usize,
}

impl LwpState {
    /// The LWP's id.
    pub fn id(&self) -> LwpId {
        self.id
    }

    /// The LWP's kernel parker (used to suspend it while it has no thread
    /// to run, and to block bound threads).
    pub fn parker(&self) -> &Parker {
        &self.park
    }

    /// An opaque, non-zero "which LWP am I" hint for [`hint_is_running`].
    pub fn running_hint(&self) -> u32 {
        self.slot as u32 + 1
    }

    /// Consumes this LWP's pending preempt request, if one was raised since
    /// the last take. Called at scheduler safepoints.
    pub fn take_preempt(&self) -> bool {
        // Cheap-path load first: safepoints run on every dispatch and the
        // flag is almost always clear.
        PREEMPT_FLAGS[self.slot].load(Ordering::Relaxed) != 0
            && PREEMPT_FLAGS[self.slot].swap(0, Ordering::Acquire) != 0
    }
}

/// TLS cell owning this host thread's LWP identity. Its drop at host-thread
/// exit balances the registration made when the identity was created, so
/// the registry's `total` tracks *live* LWPs even for adopted threads.
struct Registered(Arc<LwpState>);

impl Drop for Registered {
    fn drop(&mut self) {
        // Runs during TLS teardown: the probe degrades gracefully (counter
        // only) if the tracer's own TLS is already gone.
        sunmt_trace::probe!(sunmt_trace::Tag::LwpExit, self.0.id.0);
        // A dead LWP is not running; spinners waiting on its hint should
        // stop immediately rather than burn out their budget. Its pending
        // preempt/boost state dies with it.
        RUN_FLAGS[self.0.slot].store(1, Ordering::Release);
        PREEMPT_FLAGS[self.0.slot].store(0, Ordering::Release);
        BOOST_PRI[self.0.slot].store(0, Ordering::Release);
        registry::global().lwp_exited();
    }
}

thread_local! {
    static CURRENT: OnceCell<Registered> = const { OnceCell::new() };
}

fn make_state() -> Arc<LwpState> {
    let slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % RUN_SLOTS;
    let state = Arc::new(LwpState {
        id: LwpId(sunmt_sys::task::gettid()),
        park: Parker::new(),
        slot,
    });
    // The parker raises this cell while the LWP sleeps in the kernel, which
    // is what makes `hint_is_running` answer "is the owner on a processor".
    state.park.bind_run_flag(&RUN_FLAGS[slot]);
    // A recycled slot must not inherit its previous occupant's pending
    // preempt request or boost.
    PREEMPT_FLAGS[slot].store(0, Ordering::Release);
    BOOST_PRI[slot].store(0, Ordering::Release);
    state
}

/// Whether the LWP behind `hint` (a [`LwpState::running_hint`] value) is
/// believed to be running on a processor right now.
///
/// This is the user-level stand-in for the kernel query the paper's
/// adaptive locks make ("spin if the owner is currently running"). It is a
/// best-effort hint: zero hints, recycled slots and LWPs blocked in plain
/// system calls all degrade to a conservative answer, and callers bound the
/// damage with a spin cap either way.
pub fn hint_is_running(hint: u32) -> bool {
    // No hint (an owner that never published one) reads as running: the
    // caller keeps spinning toward its cap instead of parking on a guess.
    hint == 0 || RUN_FLAGS[(hint as usize - 1) % RUN_SLOTS].load(Ordering::Acquire) == 0
}

/// Asks the LWP behind `hint` to run a preemption check at its next
/// safepoint. Raised by cross-LWP priority changes; consumed by
/// [`LwpState::take_preempt`]. A zero hint is ignored.
pub fn raise_preempt(hint: u32) {
    if hint != 0 {
        PREEMPT_FLAGS[(hint as usize - 1) % RUN_SLOTS].store(1, Ordering::Release);
    }
}

/// One preemption tick: asks every LWP slot handed out so far to run a
/// preemption check at its next safepoint. Slots of idle, bound-thread or
/// exited LWPs are raised too; nothing there acts on the flag, and a
/// dispatch clears it.
pub fn raise_preempt_all() {
    let used = NEXT_SLOT.load(Ordering::Relaxed).min(RUN_SLOTS);
    for flag in &PREEMPT_FLAGS[..used] {
        flag.store(1, Ordering::Release);
    }
}

/// Pushes an inherited priority onto the LWP behind `hint` (the thread
/// currently running there is the recorded owner of a contended lock).
/// Returns whether the boost actually raised the slot's value — callers
/// count only effective boosts. A zero hint is a no-op.
pub fn boost_raise(hint: u32, pri: i32) -> bool {
    if hint == 0 {
        return false;
    }
    BOOST_PRI[(hint as usize - 1) % RUN_SLOTS].fetch_max(pri, Ordering::AcqRel) < pri
}

/// The inherited priority currently pushed onto the LWP behind `hint`
/// (0 = none).
pub fn boost_of(hint: u32) -> i32 {
    if hint == 0 {
        return 0;
    }
    BOOST_PRI[(hint as usize - 1) % RUN_SLOTS].load(Ordering::Acquire)
}

/// Strips the inherited priority from the LWP behind `hint`, returning the
/// boost that was in effect (0 = there was none).
///
/// Every dispatch calls this, and the slots of all LWPs are packed into
/// one array, so it loads first and writes only a non-zero boost, as
/// [`LwpState::take_preempt`] does with its flag.
pub fn boost_clear(hint: u32) -> i32 {
    if hint == 0 {
        return 0;
    }
    let slot = &BOOST_PRI[(hint as usize - 1) % RUN_SLOTS];
    if slot.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    slot.swap(0, Ordering::AcqRel)
}

/// The calling LWP's state.
///
/// A host thread that was not created through [`Lwp::spawn`] (e.g. the
/// initial thread — "one lightweight process is created by the kernel when a
/// program is started") is adopted and registered on first call, so the
/// degenerate single-LWP process behaves like a standard UNIX process
/// without setup. The registration is dropped when the host thread exits.
pub fn current() -> Arc<LwpState> {
    CURRENT.with(|c| {
        Arc::clone(
            &c.get_or_init(|| {
                registry::global().lwp_started();
                Registered(make_state())
            })
            .0,
        )
    })
}

/// The calling LWP's consumed CPU time ("user and system CPU usage" is kept
/// per LWP).
pub fn cpu_time() -> Duration {
    sunmt_sys::time::thread_cpu_now()
}

/// The whole process's consumed CPU time — "the sum of the resource usage
/// ... for all LWPs in the process is available via `getrusage()`".
pub fn process_cpu_time() -> Duration {
    sunmt_sys::time::clock_gettime(sunmt_sys::time::Clock::ProcessCpu)
        .expect("CLOCK_PROCESS_CPUTIME_ID must exist")
        .to_duration()
}

/// An owned kernel-supported thread of control.
pub struct Lwp {
    state: Arc<LwpState>,
    handle: std::thread::JoinHandle<()>,
}

impl Lwp {
    /// Creates a new LWP executing `f`.
    ///
    /// The LWP is registered with the global [`registry`] before it starts,
    /// so the live count never misses a started LWP.
    pub fn spawn<F>(f: F) -> std::io::Result<Lwp>
    where
        F: FnOnce() + Send + 'static,
    {
        Self::spawn_named("lwp".to_string(), f)
    }

    /// [`Lwp::spawn`] with a diagnostic name.
    pub fn spawn_named<F>(name: String, f: F) -> std::io::Result<Lwp>
    where
        F: FnOnce() + Send + 'static,
    {
        // Register from the parent so the live count includes the LWP as
        // soon as `spawn` returns; the child's `Registered` TLS cell
        // balances it when the LWP exits (even by panic).
        registry::global().lwp_started();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Arc<LwpState>>(1);
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            let state = make_state();
            let _ = tx.send(Arc::clone(&state));
            CURRENT.with(|c| {
                let _ = c.set(Registered(state));
            });
            sunmt_trace::probe!(sunmt_trace::Tag::LwpSpawn, sunmt_sys::task::gettid());
            f();
        });
        let handle = match spawned {
            Ok(h) => h,
            Err(e) => {
                registry::global().lwp_exited();
                return Err(e);
            }
        };
        let state = rx
            .recv()
            .expect("LWP must publish its state before running user code");
        Ok(Lwp { state, handle })
    }

    /// This LWP's id.
    pub fn id(&self) -> LwpId {
        self.state.id()
    }

    /// Shared handle to this LWP's state.
    pub fn state(&self) -> &Arc<LwpState> {
        &self.state
    }

    /// Waits for the LWP to finish.
    ///
    /// Panics raised by the LWP's closure are propagated, like
    /// `std::thread::JoinHandle::join` misuse, as an `Err`-less panic —
    /// LWP code in this workspace treats escaping panics as fatal.
    pub fn join(self) {
        if self.handle.join().is_err() {
            panic!("LWP panicked");
        }
    }
}

impl core::fmt::Debug for Lwp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Lwp").field("id", &self.state.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn spawned_lwp_runs_and_joins() {
        let ran = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&ran);
        let lwp = Lwp::spawn(move || {
            r2.store(1, Ordering::SeqCst);
        })
        .expect("spawn");
        lwp.join();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lwp_ids_are_distinct_kernel_tasks() {
        let a = Lwp::spawn(|| {}).expect("spawn");
        let b = Lwp::spawn(|| {}).expect("spawn");
        assert_ne!(a.id(), b.id());
        a.join();
        b.join();
    }

    #[test]
    fn current_adopts_the_calling_thread() {
        let me = current();
        assert_eq!(me.id().0, sunmt_sys::task::gettid());
        // Stable across calls.
        assert_eq!(current().id(), me.id());
    }

    #[test]
    fn running_hint_tracks_parked_state() {
        // Hint 0 (no hint) must read as "running" — the conservative
        // default that keeps an uninstrumented owner spin-worthy.
        assert!(hint_is_running(0));
        let lwp = Lwp::spawn(|| {
            current().parker().park();
        })
        .expect("spawn");
        let hint = lwp.state().running_hint();
        assert_ne!(hint, 0);
        // Wait for the LWP to actually reach the kernel park.
        let t0 = std::time::Instant::now();
        while hint_is_running(hint) && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert!(!hint_is_running(hint), "parked LWP still reads as running");
        lwp.state().parker().unpark();
        lwp.join();
    }

    #[test]
    fn preempt_and_boost_slots_round_trip() {
        let me = current();
        let hint = me.running_hint();
        assert!(!me.take_preempt());
        raise_preempt(hint);
        assert!(me.take_preempt());
        assert!(!me.take_preempt(), "take must consume the request");
        assert_eq!(boost_of(hint), 0);
        assert!(boost_raise(hint, 30));
        assert!(!boost_raise(hint, 20), "a lower boost is not an increase");
        assert_eq!(boost_of(hint), 30);
        assert_eq!(boost_clear(hint), 30);
        assert_eq!(boost_of(hint), 0);
        // Zero hints (no published owner) are inert.
        assert!(!boost_raise(0, 99));
        assert_eq!(boost_of(0), 0);
        assert_eq!(boost_clear(0), 0);
        raise_preempt(0);
        assert!(!me.take_preempt());
        // A tick reaches every slot handed out so far, this one included.
        raise_preempt_all();
        assert!(me.take_preempt());
    }

    #[test]
    fn parker_reaches_the_target_lwp() {
        let lwp = Lwp::spawn(|| {
            current().parker().park();
        })
        .expect("spawn");
        std::thread::sleep(Duration::from_millis(10));
        lwp.state().parker().unpark();
        lwp.join();
    }

    #[test]
    fn process_cpu_covers_all_lwps() {
        let before = process_cpu_time();
        let lwp = Lwp::spawn(|| {
            let start = cpu_time();
            let mut x = 1u64;
            while cpu_time() - start < Duration::from_millis(20) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        })
        .expect("spawn");
        lwp.join();
        assert!(process_cpu_time() - before >= Duration::from_millis(15));
    }
}

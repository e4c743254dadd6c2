//! The discrete-event simulation kernel.
//!
//! The kernel is a *conservative, sequential* event executor: exactly one
//! simulated process runs at any moment, so a run with a fixed seed is fully
//! deterministic. Processes are backed by OS threads for ergonomics — a
//! simulated GPU server or serverless function is written as ordinary
//! straight-line Rust that calls blocking primitives ([`ProcCtx::sleep`],
//! channel `recv`, resource `acquire`) — but the kernel only ever lets one of
//! those threads make progress.
//!
//! # One core per simulation
//!
//! [`Sim::new`] records the CPU its calling thread is on, and every process
//! thread pins itself to that one CPU before it first runs (Linux only).
//! Since only the baton holder runs, one core loses no parallelism, and each
//! handoff's futex wake becomes a same-core switch (about 2.5 µs on a 2-vCPU
//! VM) instead of a cross-core wake (7–14 µs). The driver thread is never
//! pinned. If the CPU cannot be read, does not fit the 1024-bit mask, or the
//! pin call fails, the thread simply runs unpinned; pinning changes wall time
//! only, never virtual time or event order.
//!
//! # Baton protocol
//!
//! Exactly one thread holds the *baton* — the right to run — at a time:
//! either the driver (the thread inside [`Sim::run_until`]) or one process.
//! Whoever holds it runs the single dispatch loop, `Shared::dispatch`. It
//! pops events with `time <= deadline` under the state lock, runs each
//! `Call` inline (resources use these as cancellable completion timers),
//! drops stale wakes, and stops at the first live `Wake`. If that wake
//! targets the caller, the caller simply keeps running; otherwise it sends
//! the target a resume token and blocks on its own. When the queue is empty,
//! the next event lies past the deadline or the run is shutting down, the
//! baton goes back to the driver.
//!
//! A process that parks dispatches on its own behalf; one that exits marks
//! itself dead and dispatches on the driver's. The driver itself dispatches
//! once per [`Sim::run_until`] and then blocks until the baton returns, so
//! a wake from one process to another costs one thread switch, not the two
//! of a round trip through the driver. A process panic (other than
//! [`ShutdownSignal`]) sends its payload straight to the driver, which
//! re-raises it.
//!
//! # Wake generations
//!
//! Every park increments the process's generation counter; wake events carry
//! the generation they were scheduled for and are ignored if stale. This is
//! what makes `recv_timeout` (a race between a sender's wake and a timer
//! wake) correct without any cancellation machinery.
//!
//! # Shutdown
//!
//! Dropping [`Sim`] (or finishing `run` with processes still blocked) raises
//! a shutdown flag and resumes every parked process; blocking primitives then
//! unwind the process via a [`ShutdownSignal`] panic, which the process
//! wrapper catches. Well-behaved loops exit earlier by observing `None` from
//! channel `recv`.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::telemetry::Telemetry;
use crate::time::{Dur, SimTime};

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Panic payload used to unwind simulated processes when the run shuts down.
pub struct ShutdownSignal;

pub(crate) type BoxCall = Box<dyn FnOnce(&mut SimState) + Send>;

pub(crate) enum EventKind {
    /// Resume a parked process, if its park generation still matches.
    Wake { pid: ProcId, generation: u64 },
    /// Run a closure against the kernel state (resource completion timers).
    Call(BoxCall),
}

pub(crate) struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct ProcRec {
    name: String,
    resume_tx: Sender<()>,
    /// Park generation; incremented on every park.
    generation: u64,
    parked: bool,
    alive: bool,
}

/// A process's panic payload, carried to the driver to be re-raised.
type Payload = Box<dyn Any + Send>;

/// What the baton holder does once [`Shared::dispatch`] returns.
enum Handoff {
    /// The next live wake targets the caller itself: keep running.
    Continue,
    /// Resume another process and give it the baton.
    Resume(Sender<()>),
    /// Nothing runs before the deadline, or the run is shutting down: give
    /// the baton back to the driver.
    Driver,
}

/// Mutable kernel state, guarded by a single mutex. Lock ordering throughout
/// the crate is: kernel state first, then any resource/channel state.
pub(crate) struct SimState {
    pub(crate) now: SimTime,
    seq: u64,
    next_pid: u64,
    queue: BinaryHeap<Event>,
    procs: HashMap<ProcId, ProcRec>,
    pub(crate) shutdown: bool,
    pub(crate) rng: StdRng,
    /// Events popped and executed so far (wakes + calls, stale wakes
    /// included). The scale harness divides this by wall time to report
    /// kernel throughput.
    executed: u64,
    /// The current `run_until` deadline: dispatch leaves later events queued.
    deadline: SimTime,
    /// The process holding the baton; `None` while the driver holds it.
    baton: Option<ProcId>,
}

impl SimState {
    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    pub(crate) fn schedule_wake(&mut self, time: SimTime, pid: ProcId, generation: u64) {
        self.schedule(time, EventKind::Wake { pid, generation });
    }

    pub(crate) fn schedule_call(&mut self, time: SimTime, f: BoxCall) {
        self.schedule(time, EventKind::Call(f));
    }

    /// Mark `pid` as about to park and return the generation a waker must
    /// present to resume it.
    pub(crate) fn begin_park(&mut self, pid: ProcId) -> u64 {
        let rec = self.procs.get_mut(&pid).expect("begin_park: unknown pid");
        rec.generation += 1;
        rec.parked = true;
        rec.generation
    }
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<SimState>,
    /// Returns the baton to the driver: `None` when dispatch ran dry or the
    /// run is shutting down, `Some(payload)` when a process panicked.
    baton_tx: Sender<Option<Payload>>,
    handles: Mutex<Vec<(ProcId, JoinHandle<()>)>>,
    /// The CPU every process thread pins itself to; `None` leaves them
    /// unpinned.
    cpu: Option<usize>,
    /// Per-simulation telemetry registry (disabled by default). Lives
    /// outside the state mutex: recording must never contend with the
    /// scheduler.
    telemetry: Arc<Telemetry>,
}

impl Shared {
    /// The dispatch loop, run by whichever thread holds the baton. `me` is
    /// the parking process, or `None` when dispatching for the driver (from
    /// [`Sim::run_until`] or an exiting process).
    fn dispatch(&self, me: Option<ProcId>) -> Handoff {
        let mut st = self.state.lock();
        debug_assert_eq!(st.baton, me, "only the baton holder may dispatch");
        let deadline = st.deadline;
        while !st.shutdown && st.queue.peek().is_some_and(|ev| ev.time <= deadline) {
            let ev = st.queue.pop().expect("peeked");
            st.now = st.now.max(ev.time);
            st.executed += 1;
            match ev.kind {
                EventKind::Call(f) => f(&mut st),
                EventKind::Wake { pid, generation } => {
                    let Some(rec) = st.procs.get_mut(&pid) else {
                        continue;
                    };
                    if !(rec.alive && rec.parked && rec.generation == generation) {
                        continue; // stale wake
                    }
                    rec.parked = false;
                    let next = if me == Some(pid) {
                        Handoff::Continue
                    } else {
                        Handoff::Resume(rec.resume_tx.clone())
                    };
                    st.baton = Some(pid);
                    return next;
                }
            }
        }
        st.baton = None;
        Handoff::Driver
    }

    /// Give up the baton as [`Shared::dispatch`] decided.
    fn hand_off(&self, next: Handoff) {
        match next {
            Handoff::Continue => {}
            Handoff::Resume(tx) => tx
                .send(())
                .expect("a live process keeps its resume endpoint"),
            Handoff::Driver => {
                let _ = self.baton_tx.send(None);
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use dgsf_sim::{Sim, Dur};
/// let mut sim = Sim::new(42);
/// let (tx, rx) = sim.channel::<u32>();
/// sim.spawn("producer", move |ctx| {
///     ctx.sleep(Dur::from_millis(5));
///     tx.send(ctx, 7);
/// });
/// sim.spawn("consumer", move |ctx| {
///     let v = rx.recv(ctx).unwrap();
///     assert_eq!(v, 7);
///     assert_eq!(ctx.now().as_nanos(), 5_000_000);
/// });
/// sim.run();
/// ```
pub struct Sim {
    pub(crate) shared: Arc<Shared>,
    baton_rx: Receiver<Option<Payload>>,
}

impl Sim {
    /// Create a simulation whose internal RNG is seeded with `seed`. Its
    /// process threads run on the CPU the calling thread is on now.
    pub fn new(seed: u64) -> Sim {
        Sim::on_cpu(seed, affinity::current_cpu())
    }

    /// [`Sim::new`] with the process threads pinned to `cpu`, if any.
    fn on_cpu(seed: u64, cpu: Option<usize>) -> Sim {
        let (baton_tx, baton_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            state: Mutex::new(SimState {
                now: SimTime::ZERO,
                seq: 0,
                next_pid: 0,
                queue: BinaryHeap::new(),
                procs: HashMap::new(),
                shutdown: false,
                rng: StdRng::seed_from_u64(seed),
                executed: 0,
                deadline: SimTime::ZERO,
                baton: None,
            }),
            baton_tx,
            handles: Mutex::new(Vec::new()),
            cpu,
            telemetry: Arc::new(Telemetry::new()),
        });
        Sim { shared, baton_rx }
    }

    /// This simulation's telemetry registry (disabled until
    /// [`Telemetry::enable`] is called).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Spawn a process that becomes runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Spawn a process that becomes runnable at virtual time `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_inner(&self.shared, name, at, f)
    }

    /// Create an MPMC simulation channel (see [`SimReceiver`](crate::SimReceiver)).
    pub fn channel<T: Send + 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
        crate::channel::channel()
    }

    /// Run until the event queue is exhausted, then shut down any processes
    /// still blocked on channels. Returns the final virtual time.
    ///
    /// Panics (re-raising the payload) if any simulated process panicked.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run events with `time <= deadline`; later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.shared.state.lock().deadline = deadline;
        match self.shared.dispatch(None) {
            Handoff::Driver => {}
            next => {
                self.shared.hand_off(next);
                self.await_baton();
            }
        }
        self.now()
    }

    /// Block the driver until the baton comes back; re-raise the payload
    /// of a process that panicked.
    fn await_baton(&self) {
        if let Ok(Some(payload)) = self.baton_rx.recv() {
            panic::resume_unwind(payload);
        }
    }

    /// Total kernel events executed so far (process wakes and call timers).
    /// Monotone across `run_until` calls; deterministic per seed.
    pub fn events_executed(&self) -> u64 {
        self.shared.state.lock().executed
    }

    /// Names of processes still alive (parked); useful for debugging hangs.
    pub fn blocked_processes(&self) -> Vec<String> {
        let st = self.shared.state.lock();
        st.procs
            .values()
            .filter(|r| r.alive)
            .map(|r| r.name.clone())
            .collect()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Raise the shutdown flag, then resume every parked process one at a
        // time so each can unwind via ShutdownSignal. While shutting down,
        // dispatch always hands the baton straight back to the driver.
        let pids: Vec<ProcId> = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.queue.clear();
            st.procs
                .iter()
                .filter(|(_, r)| r.alive)
                .map(|(pid, _)| *pid)
                .collect()
        };
        for pid in pids {
            // A process may park a bounded number of times while unwinding.
            for _ in 0..64 {
                let tx = {
                    let mut st = self.shared.state.lock();
                    let Some(rec) = st.procs.get_mut(&pid).filter(|r| r.alive && r.parked) else {
                        break;
                    };
                    rec.parked = false;
                    let tx = rec.resume_tx.clone();
                    st.baton = Some(pid);
                    tx
                };
                self.shared.hand_off(Handoff::Resume(tx));
                self.await_baton();
            }
        }
        // A process that catches ShutdownSignal and parks again is still
        // alive here, and its own ProcCtx keeps its resume endpoint open, so
        // joining it would block forever: leave it detached and name it.
        let stuck: Vec<(ProcId, String)> = {
            let st = self.shared.state.lock();
            st.procs
                .iter()
                .filter(|(_, r)| r.alive)
                .map(|(pid, r)| (*pid, r.name.clone()))
                .collect()
        };
        let handles = std::mem::take(&mut *self.shared.handles.lock());
        for (pid, h) in handles {
            if stuck.iter().all(|(p, _)| *p != pid) {
                let _ = h.join();
            }
        }
        if !stuck.is_empty() && !std::thread::panicking() {
            let names: Vec<&str> = stuck.iter().map(|(_, name)| name.as_str()).collect();
            panic!("processes still parked after 64 shutdown resumes: {names:?}");
        }
    }
}

fn spawn_inner<F>(shared: &Arc<Shared>, name: &str, at: SimTime, f: F) -> ProcId
where
    F: FnOnce(&ProcCtx) + Send + 'static,
{
    let (resume_tx, resume_rx) = mpsc::channel();
    let pid;
    {
        let mut st = shared.state.lock();
        pid = ProcId(st.next_pid);
        st.next_pid += 1;
        st.procs.insert(
            pid,
            ProcRec {
                name: name.to_string(),
                resume_tx,
                generation: 0,
                parked: true, // parked on its initial resume
                alive: true,
            },
        );
        let at = at.max(st.now);
        st.schedule_wake(at, pid, 0);
    }
    let ctx = ProcCtx {
        pid,
        name: Arc::from(name),
        shared: Arc::clone(shared),
        resume_rx,
    };
    let thread_name = format!("sim-{}-{}", pid.0, name);
    let handle = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            affinity::pin_current_thread(ctx.shared.cpu);
            // Wait for the first resume.
            if ctx.resume_rx.recv().is_err() {
                return;
            }
            // Shutdown may already have been requested before we first ran.
            let early_shutdown = ctx.shared.state.lock().shutdown;
            let body = if early_shutdown {
                Ok(())
            } else {
                panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)))
            };
            ctx.exit(body);
        })
        .expect("failed to spawn simulation process thread");
    shared.handles.lock().push((pid, handle));
    pid
}

/// A cloneable, `Send` handle onto a simulation: lets library code create
/// channels and resources and spawn processes without borrowing [`Sim`]
/// itself (which stays with the driver) or a [`ProcCtx`] (which is pinned to
/// its process thread).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Arc<Shared>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Spawn a process runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Spawn a process runnable at `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_inner(&self.shared, name, at, f)
    }

    /// Create an MPMC simulation channel.
    pub fn channel<T: Send + 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
        crate::channel::channel()
    }

    /// Create a processor-sharing resource with the given capacity
    /// (work units per second).
    pub fn gps(&self, capacity: f64) -> crate::GpsResource {
        crate::resource::GpsResource::with_shared_pub(&self.shared, capacity)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        let mut st = self.shared.state.lock();
        f(&mut st.rng)
    }

    /// This simulation's telemetry registry.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }
}

impl Sim {
    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Handle a simulated process uses to interact with virtual time and the
/// kernel. Not `Clone`: it owns the process's resume endpoint and must stay
/// on the process's thread.
pub struct ProcCtx {
    pub(crate) pid: ProcId,
    name: Arc<str>,
    pub(crate) shared: Arc<Shared>,
    resume_rx: Receiver<()>,
}

impl ProcCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The name this process was spawned with — telemetry uses it as the
    /// span track.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This simulation's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Advance this process's virtual clock by `d`.
    pub fn sleep(&self, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        {
            let mut st = self.lock_state();
            let generation = st.begin_park(self.pid);
            let at = st.now + d;
            st.schedule_wake(at, self.pid, generation);
        }
        self.yield_parked();
    }

    /// Sleep until absolute time `t` (no-op if `t` is in the past).
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.sleep(t.since(now));
        }
    }

    /// Spawn a child process runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        let mut st = self.shared.state.lock();
        f(&mut st.rng)
    }

    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    pub(crate) fn lock_state(&self) -> parking_lot::MutexGuard<'_, SimState> {
        self.shared.state.lock()
    }

    /// Hand the baton on after having registered a park (via
    /// [`SimState::begin_park`]) and return once resumed. Panics with
    /// [`ShutdownSignal`] if the simulation is shutting down.
    pub(crate) fn yield_parked(&self) {
        if self.yield_parked_impl() && !std::thread::panicking() {
            panic::panic_any(ShutdownSignal);
        }
    }

    /// Like [`ProcCtx::yield_parked`], but reports shutdown by returning
    /// `true` instead of panicking, so blocking primitives can offer a
    /// clean-exit path.
    pub(crate) fn yield_parked_impl(&self) -> bool {
        match self.shared.dispatch(Some(self.pid)) {
            Handoff::Continue => false,
            next => {
                self.shared.hand_off(next);
                // A vanished resume endpoint means the driver is gone.
                self.resume_rx.recv().is_err() || self.shared.state.lock().shutdown
            }
        }
    }

    /// Mark this process dead and pass the baton on: after a clean exit or
    /// a shutdown unwind, dispatch for the driver; send any other panic
    /// payload straight to the driver.
    fn exit(&self, body: std::thread::Result<()>) {
        {
            let mut st = self.shared.state.lock();
            debug_assert_eq!(st.baton, Some(self.pid), "only the baton holder may exit");
            if let Some(rec) = st.procs.get_mut(&self.pid) {
                rec.alive = false;
                rec.parked = false;
            }
            st.baton = None;
        }
        let clean = match body {
            Err(p) if p.is::<ShutdownSignal>() => Ok(()),
            other => other,
        };
        // The dispatch runs resource timers, which may panic too: the driver
        // must re-raise that as well rather than wait for a lost baton.
        let handed_off = clean.and_then(|()| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                self.shared.hand_off(self.shared.dispatch(None));
            }))
        });
        if let Err(payload) = handed_off {
            let _ = self.shared.baton_tx.send(Some(payload));
        }
    }
}

/// CPU affinity of process threads, via `sched_getcpu` and
/// `sched_setaffinity`.
#[cfg(target_os = "linux")]
mod affinity {
    use std::ffi::{c_int, c_ulong};

    const WORD_BITS: usize = c_ulong::BITS as usize;

    /// glibc's `cpu_set_t`: a 1024-bit mask in `unsigned long` words.
    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub(super) struct CpuSet([c_ulong; 1024 / WORD_BITS]);

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
        #[cfg(test)]
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    }

    pub(super) enum Call<'a> {
        GetCpu,
        SetAffinity(&'a CpuSet),
        #[cfg(test)]
        GetAffinity(&'a mut CpuSet),
    }

    /// The one place this crate calls into libc; returns its result.
    pub(super) fn sched(call: Call<'_>) -> c_int {
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `sched_getcpu` takes no arguments. Each mask is a live
        // `CpuSet` borrowed for the whole call, `size` is its exact byte
        // size, and pid 0 names the calling thread. `GetAffinity` borrows
        // its mask mutably, so the kernel may write all `size` bytes.
        unsafe {
            match call {
                Call::GetCpu => sched_getcpu(),
                Call::SetAffinity(mask) => sched_setaffinity(0, size, mask),
                #[cfg(test)]
                Call::GetAffinity(mask) => sched_getaffinity(0, size, mask),
            }
        }
    }

    /// The CPU the calling thread is on, or `None` if it cannot be read.
    pub(super) fn current_cpu() -> Option<usize> {
        usize::try_from(sched(Call::GetCpu)).ok()
    }

    /// The mask holding only `cpu`, or `None` when there is no CPU or it
    /// does not fit in the mask.
    pub(super) fn single_cpu_mask(cpu: Option<usize>) -> Option<CpuSet> {
        let cpu = cpu?;
        let mut mask = CpuSet::default();
        *mask.0.get_mut(cpu / WORD_BITS)? = 1 << (cpu % WORD_BITS);
        Some(mask)
    }

    /// Pin the calling thread to `cpu`. An absent or out-of-range CPU makes
    /// no call, and a failed call leaves the thread unpinned.
    pub(super) fn pin_current_thread(cpu: Option<usize>) {
        if let Some(mask) = single_cpu_mask(cpu) {
            let _ = sched(Call::SetAffinity(&mask));
        }
    }
}

/// Other targets report no CPU and never pin.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    pub(super) fn pin_current_thread(_cpu: Option<usize>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimReceiver, SimSender};

    #[test]
    fn sleep_advances_virtual_time_instantly() {
        let mut sim = Sim::new(1);
        let t = std::sync::Arc::new(Mutex::new(SimTime::ZERO));
        let t2 = t.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(Dur::from_secs(3600)); // an hour of virtual time
            *t2.lock() = ctx.now();
        });
        let wall = std::time::Instant::now();
        sim.run();
        assert_eq!(t.lock().as_nanos(), 3600 * 1_000_000_000);
        assert!(
            wall.elapsed().as_secs() < 5,
            "virtual time must not be wall time"
        );
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_tiebreak() {
        let mut sim = Sim::new(1);
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..5u32 {
            let log = log.clone();
            // All spawned at t=0; same wake time; must run in spawn order.
            sim.spawn(&format!("p{i}"), move |_ctx| {
                log.lock().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_runs_at_parent_time() {
        let mut sim = Sim::new(1);
        let seen = std::sync::Arc::new(Mutex::new(None));
        let seen2 = seen.clone();
        sim.spawn("parent", move |ctx| {
            ctx.sleep(Dur::from_millis(10));
            let seen2 = seen2.clone();
            ctx.spawn("child", move |c| {
                *seen2.lock() = Some(c.now());
            });
            ctx.sleep(Dur::from_millis(10));
        });
        sim.run();
        assert_eq!(seen.lock().unwrap(), SimTime::ZERO + Dur::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let hits = std::sync::Arc::new(Mutex::new(0u32));
        let h = hits.clone();
        sim.spawn("ticker", move |ctx| {
            for _ in 0..10 {
                ctx.sleep(Dur::from_secs(1));
                *h.lock() += 1;
            }
        });
        sim.run_until(SimTime::ZERO + Dur::from_millis(3500));
        assert_eq!(*hits.lock(), 3);
    }

    #[test]
    fn process_panic_propagates() {
        let mut sim = Sim::new(1);
        sim.spawn("bad", |_ctx| panic!("boom"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(err.is_err());
    }

    #[test]
    fn drop_shuts_down_blocked_processes() {
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u8>();
        sim.spawn("blocked-forever", move |ctx| {
            // recv returns None at shutdown; process exits cleanly.
            assert!(rx.recv(ctx).is_none());
        });
        sim.run();
        drop(sim); // must not hang or leak the thread
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let sample = |seed: u64| {
            let mut sim = Sim::new(seed);
            let out = std::sync::Arc::new(Mutex::new(Vec::new()));
            let o = out.clone();
            sim.spawn("r", move |ctx| {
                for _ in 0..8 {
                    let v: u64 = ctx.with_rng(rand::Rng::gen);
                    o.lock().push(v);
                }
            });
            sim.run();
            let v = out.lock().clone();
            v
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    type Log = Arc<Mutex<Vec<(u64, u64, u32)>>>;

    /// A ring member: log each token, hold it for a pid-dependent time and
    /// pass it on with one hop fewer, until it has no hops left.
    fn ring_member(ctx: &ProcCtx, rx: &SimReceiver<u32>, tx: &SimSender<u32>, log: &Log) {
        while let Some(hops) = rx.recv(ctx) {
            log.lock().push((ctx.now().as_nanos(), ctx.pid().0, hops));
            if hops > 0 {
                ctx.sleep(Dur::from_micros(100 + 37 * ctx.pid().0));
                tx.send(ctx, hops - 1);
            }
        }
    }

    /// Three processes pass a token round a ring of channels. A fourth,
    /// spawned by the driver at `late_at` (before the run when there are no
    /// `cuts`, otherwise right after the first cut), waits for a quiet
    /// moment and injects a second token. Returns the log, the event count
    /// and the time of the first cut.
    fn ring(cuts: &[SimTime], late_at: SimTime) -> (Vec<(u64, u64, u32)>, u64, SimTime) {
        let mut sim = Sim::new(3);
        let log = Log::default();
        let chans: Vec<_> = (0..3).map(|_| sim.channel::<u32>()).collect();
        for i in 0..3 {
            let rx = chans[i].1.clone();
            let tx = chans[(i + 1) % 3].0.clone();
            let log = log.clone();
            sim.spawn(&format!("ring{i}"), move |ctx| {
                if i == 0 {
                    tx.send(ctx, 30);
                }
                ring_member(ctx, &rx, &tx, &log);
            });
        }
        let inject = chans[0].0.clone();
        let late = move |ctx: &ProcCtx| {
            // Event times are whole microseconds, so this one is unshared.
            ctx.sleep_until(SimTime(2_345_678));
            inject.send(ctx, 20);
        };
        let mut first_cut = SimTime::ZERO;
        if cuts.is_empty() {
            sim.spawn_at("late", late_at, late.clone());
        }
        for (i, &cut) in cuts.iter().enumerate() {
            sim.run_until(cut);
            if i == 0 {
                first_cut = sim.now();
                sim.spawn("late", late.clone());
            }
        }
        sim.run();
        let executed = sim.events_executed();
        drop(sim);
        let log = log.lock().clone();
        (log, executed, first_cut)
    }

    #[test]
    fn sliced_ring_matches_unsliced_run() {
        let cuts: Vec<SimTime> = [700_000, 1_500_000, 1_500_001, 2_345_678, 4_000_000]
            .into_iter()
            .map(SimTime)
            .collect();
        let (sliced, sliced_events, late_at) = ring(&cuts, SimTime::ZERO);
        let (whole, whole_events, _) = ring(&[], late_at);
        assert!(late_at > SimTime::ZERO, "the first cut falls mid-run");
        assert_eq!(sliced.len(), 31 + 21, "both tokens travel every hop");
        assert_eq!(sliced, whole);
        assert_eq!(sliced_events, whole_events);
    }

    #[test]
    fn panic_at_the_end_of_a_wake_chain_reaches_run() {
        let mut sim = Sim::new(1);
        let (to_b, at_b) = sim.channel::<()>();
        let (to_c, at_c) = sim.channel::<()>();
        sim.spawn("c", move |ctx| {
            at_c.recv(ctx);
            panic!("boom in c");
        });
        sim.spawn("b", move |ctx| {
            at_b.recv(ctx);
            to_c.send(ctx, ());
            ctx.sleep(Dur::from_secs(1));
        });
        sim.spawn("a", move |ctx| {
            ctx.sleep(Dur::from_millis(5));
            to_b.send(ctx, ());
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom in c"));
    }

    #[test]
    fn timer_panic_reaches_run_from_a_parking_or_exiting_process() {
        for exits in [false, true] {
            let mut sim = Sim::new(1);
            sim.shared
                .state
                .lock()
                .schedule_call(SimTime(2_000_000), Box::new(|_| panic!("timer boom")));
            sim.spawn("p", move |ctx| {
                ctx.sleep(Dur::from_millis(1));
                if !exits {
                    // The timer fires inside this park's dispatch.
                    ctx.sleep(Dur::from_millis(5));
                }
            });
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"timer boom"),
                "exits: {exits}"
            );
        }
    }

    #[test]
    fn drop_after_run_until_joins_every_parked_process() {
        let unwound = Arc::new(Mutex::new(Vec::new()));
        let (joined_tx, joined_rx) = mpsc::channel();
        let u = unwound.clone();
        let driver = std::thread::spawn(move || {
            let mut sim = Sim::new(1);
            let (_tx, rx) = sim.channel::<u8>();
            let gpu = Arc::new(crate::GpsResource::new(&sim, 1.0));
            let log = |what: &'static str| {
                let u = u.clone();
                move || u.lock().push(what)
            };
            let after = log("timer");
            sim.spawn("timer", move |ctx| {
                ctx.sleep(Dur::from_secs(60));
                after();
            });
            let after = log("recv");
            sim.spawn("recv", move |ctx| {
                assert!(rx.recv(ctx).is_none(), "shutdown closes recv");
                after();
            });
            let after = log("gps");
            sim.spawn("gps", move |ctx| {
                gpu.acquire(ctx, 60.0);
                after();
            });
            sim.run_until(SimTime::ZERO + Dur::from_secs(1));
            assert_eq!(sim.blocked_processes().len(), 3);
            drop(sim);
            joined_tx.send(()).unwrap();
        });
        joined_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("dropping the simulation must join every process thread");
        driver
            .join()
            .expect("the driver thread finished without panicking");
        // Only recv offers a clean exit; the timer and GPS parks unwind.
        assert_eq!(*unwound.lock(), vec!["recv"]);
    }

    #[test]
    fn drop_names_a_process_that_parks_again_after_shutdown() {
        let (dropped_tx, dropped_rx) = mpsc::channel();
        let driver = std::thread::spawn(move || {
            let mut sim = Sim::new(1);
            sim.spawn("stubborn", |ctx| loop {
                let _ = panic::catch_unwind(AssertUnwindSafe(|| ctx.sleep(Dur::from_secs(1))));
            });
            sim.run_until(SimTime::ZERO + Dur::from_millis(1500));
            let err = panic::catch_unwind(AssertUnwindSafe(|| drop(sim)))
                .expect_err("a process that outlives shutdown makes drop panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            dropped_tx.send(msg).unwrap();
        });
        let msg = dropped_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("dropping the simulation must not join a thread that never exits");
        assert!(msg.contains("\"stubborn\""), "{msg}");
        driver
            .join()
            .expect("the driver thread caught the drop panic");
    }

    /// Process threads read their own affinity with `sched_getaffinity`.
    #[cfg(target_os = "linux")]
    mod pinning {
        use super::*;

        /// The calling thread's CPU affinity mask.
        fn thread_mask() -> affinity::CpuSet {
            let mut mask = affinity::CpuSet::default();
            let rc = affinity::sched(affinity::Call::GetAffinity(&mut mask));
            assert_eq!(rc, 0, "sched_getaffinity on the calling thread");
            mask
        }

        type Masks = Arc<Mutex<Vec<affinity::CpuSet>>>;

        /// Log `(time, pid, step)` and this thread's affinity mask at each of
        /// three steps; a parent spawns a child process at its second step.
        fn stepper(ctx: &ProcCtx, log: &Log, masks: &Masks, parent: bool) {
            for step in 0..3 {
                log.lock().push((ctx.now().as_nanos(), ctx.pid().0, step));
                masks.lock().push(thread_mask());
                if parent && step == 1 {
                    let (log, masks) = (log.clone(), masks.clone());
                    ctx.spawn("child", move |c| stepper(c, &log, &masks, false));
                }
                ctx.sleep(Dur::from_micros(10 + 7 * ctx.pid().0));
            }
        }

        /// Two driver-spawned parents, each with one process-spawned child.
        fn affinity_run(mut sim: Sim) -> (Vec<(u64, u64, u32)>, Vec<affinity::CpuSet>) {
            let (log, masks) = (Log::default(), Masks::default());
            for i in 0..2 {
                let (log, masks) = (log.clone(), masks.clone());
                sim.spawn(&format!("parent{i}"), move |ctx| {
                    stepper(ctx, &log, &masks, true)
                });
            }
            sim.run();
            drop(sim);
            let log = log.lock().clone();
            let masks = masks.lock().clone();
            assert_eq!(log.len(), 12, "four processes, three steps each");
            (log, masks)
        }

        #[test]
        fn process_threads_run_on_the_one_cpu_the_sim_recorded() {
            let sim = Sim::new(5);
            let cpu = sim.shared.cpu;
            assert!(cpu.is_some(), "Linux reports the driver's CPU");
            let pinned = affinity::single_cpu_mask(cpu).expect("a real CPU id fits the mask");
            let (_, masks) = affinity_run(sim);
            assert!(masks.iter().all(|m| *m == pinned), "{masks:?}");
        }

        #[test]
        fn an_unhonoured_pin_leaves_processes_unpinned_with_the_same_log() {
            let (pinned_log, _) = affinity_run(Sim::new(5));
            let unpinned = thread_mask();
            for cpu in [None, Some(1024)] {
                assert!(
                    affinity::single_cpu_mask(cpu).is_none(),
                    "{cpu:?} makes no sched_setaffinity call"
                );
                let (log, masks) = affinity_run(Sim::on_cpu(5, cpu));
                assert_eq!(log, pinned_log, "{cpu:?}");
                assert!(masks.iter().all(|m| *m == unpinned), "{cpu:?}: {masks:?}");
            }
        }
    }

    #[test]
    fn recv_timeout_race_counts_the_stale_wake() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u32>();
        let got = Arc::new(Mutex::new(None));
        let g = got.clone();
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Dur::from_millis(10));
            tx.send(ctx, 7);
        });
        sim.spawn("rx", move |ctx| {
            let r = rx.recv_timeout(ctx, Dur::from_millis(10));
            *g.lock() = Some((r, ctx.now()));
        });
        sim.run();
        assert_eq!(
            got.lock().take(),
            Some((Ok(7), SimTime::ZERO + Dur::from_millis(10)))
        );
        // Two spawn wakes, the sender's sleep, then at 10 ms the receiver's
        // timer (scheduled first, so it resumes the receiver) and the
        // sender's wake for the same park, which is stale but still counts.
        assert_eq!(sim.events_executed(), 5);
    }
}

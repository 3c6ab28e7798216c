//! The SPMD runtime: the one launch path, the world, and the thread engine.
//!
//! `mp::run(n, f)` is the moral equivalent of `mpirun -np n`: it spawns `n`
//! rank threads, hands each a world [`Comm`](crate::comm::Comm), runs `f`
//! to completion on every rank and returns the per-rank results in rank
//! order. Message delivery is eager (a send copies the payload into the
//! destination mailbox and completes immediately), mirroring MPI's eager
//! protocol for the message sizes the benchmarks use; this also makes
//! `sendrecv`-style exchange patterns trivially deadlock-free.
//!
//! Every world starts and ends here, whatever its [`Engine`]: one builder
//! ([`World::new`]), two engines that hand back the same per-rank
//! [`Outcomes`] ([`rank_threads`], `coop::execute`), one read of the
//! ambient hook ([`launch`]) and one fold of outcomes into a result
//! ([`end`], [`checked`]).
//!
//! Rank threads are spawned through [`std::thread::Builder`] with a
//! bounded per-rank stack (`RANK_STACK_BYTES`, 2 MiB), and a
//! failed spawn tears the world down with a clear "cannot spawn rank r of
//! n" panic instead of aborting the process. Rank counts beyond what one
//! host can thread, and every virtual world (sweeps at 16k–100k ranks),
//! run on the cooperative engine in [`crate::coop`] instead.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use simnet::Transfer;

use simnet::Time;

use crate::check::{self, Checked, Deadlock, Inspector, LaneInfo, RunLog, Settings};
use crate::comm::Comm;
use crate::coop::ScheduleController;
use crate::mailbox::Mailbox;
use crate::msg::Message;
use crate::transport::RemoteWorld;
use crate::virt::{Clock, VirtualNet};

/// Which engine runs a world's ranks: the choice a door's `_coop` suffix
/// carries. Either way a rank body is a future over an owned world
/// [`Comm`]; the engines differ only in what polls it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per rank, each driving its body with [`block_on`]:
    /// kernels and wake-ups cost what they cost on the host.
    Threads,
    /// Every rank a task on the calling thread, polled off one
    /// deterministic FIFO run queue ([`crate::run_coop`]).
    Coop,
}

impl Engine {
    /// Runs `f` on every rank of `world` on this engine.
    pub(crate) fn drive<R, F, Fut>(self, world: &Arc<World>, f: &F) -> Outcomes<R>
    where
        R: Send,
        F: Fn(Comm) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        match self {
            Engine::Threads => rank_threads(world, &world.world_group, f),
            Engine::Coop => crate::coop::execute(world, f),
        }
    }
}

/// How a world's ranks ended, whichever engine ran them: each hosted
/// rank's result (`None` where it panicked), and the caught panics as
/// `(rank, message)`.
pub(crate) type Outcomes<R> = (Vec<Option<R>>, Vec<(usize, String)>);

/// How a world is instrumented: its settings, and the controller that
/// makes a cooperative world's scheduling decisions, if any.
pub(crate) type Instrument = (Settings, Option<Arc<dyn ScheduleController>>);

/// Per-rank thread stack: far below the 8 MiB thread default — rank
/// bodies here are benchmark kernels, not deep recursions — so a native
/// world of a few thousand ranks does not exhaust address space.
const RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

#[cfg(test)]
thread_local! {
    /// Test-only override of the rank stack size, thread-local so a spawn
    /// failure can be provoked without an env var racing parallel tests
    /// (spawning happens on the calling thread, which owns this cell).
    static STACK_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Per-rank stack size for spawned rank threads: `RANK_STACK_BYTES`,
/// unless a test asked for a spawn that fails.
fn rank_stack_bytes() -> usize {
    #[cfg(test)]
    if let Some(s) = STACK_OVERRIDE.with(std::cell::Cell::get) {
        return s;
    }
    RANK_STACK_BYTES
}

/// Extracts the human-readable message from a caught panic payload.
/// The one helper behind every join path (native, traced, checked,
/// cooperative), so no path drops the payload on the floor.
pub(crate) fn panic_message(e: &(dyn Any + Send)) -> &str {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// Start gate for rank threads: spawned threads park here until every
/// sibling spawned successfully. If any spawn fails, the gate aborts and
/// the already-spawned threads return without running the rank body —
/// otherwise rank 0 could block forever in a collective waiting for a
/// rank that never existed, turning a spawn error into a hang.
struct StartGate {
    state: Mutex<Option<bool>>,
    cv: Condvar,
}

impl StartGate {
    fn new() -> StartGate {
        StartGate {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.state.lock() = Some(true);
        self.cv.notify_all();
    }

    fn abort(&self) {
        *self.state.lock() = Some(false);
        self.cv.notify_all();
    }

    /// Parks until the gate resolves; true means "run the rank body".
    fn wait(&self) -> bool {
        let mut st = self.state.lock();
        loop {
            if let Some(go) = *st {
                return go;
            }
            self.cv.wait(&mut st);
        }
    }
}

/// Panics with the uniform spawn-failure diagnostic (satellite bugfix:
/// previously an unchecked `scope.spawn` aborted the whole process).
fn spawn_failure(rank: usize, n: usize, stack: usize, err: &std::io::Error) -> ! {
    panic!("mp: cannot spawn rank {rank} of {n}: {err} (per-rank stack {stack} bytes)");
}

/// Whether a blocked receive in a world of `ranks` ranks on this host
/// spins on its thread's waker before it parks: exactly when every
/// rank can have a CPU to itself, `ranks <=
/// smp::topo::detect().online_cpus` (which honours affinity masks and
/// cgroup quotas). With more ranks than CPUs a spinner would hold the CPU
/// its sender needs, so the wait parks at once. `ranks` is the whole
/// world — the processes of a tcp-loopback fleet share the host.
/// Derived, never set: there is no knob.
pub fn receives_spin(ranks: usize) -> bool {
    ranks <= smp::topo::detect().online_cpus
}

/// One line naming the regime a native world of `ranks` ranks runs in on
/// this host — ranks, online CPUs, and how a blocked receive waits — for a
/// driver to print beside the native numbers it reports: a latency caught
/// spinning and one that paid a futex wake are different measurements.
pub fn waiting_regime(ranks: usize) -> String {
    let cpus = smp::topo::detect().online_cpus;
    let waits = if receives_spin(ranks) {
        format!("spin {} us before parking", SPIN_BUDGET.as_micros())
    } else {
        "park at once (more ranks than CPUs)".to_string()
    };
    format!("{ranks} ranks on {cpus} online CPUs: blocked receives {waits}")
}

/// How long a rank thread watches its waker's flag before it parks, in a
/// world whose ranks each have a CPU (see [`receives_spin`]). A park and
/// its cross-CPU futex wake cost about 16 µs on the 2-vCPU reference
/// container, so the budget is three of them: a reply that is on its way
/// is caught (8 B ping-pong 17.8 → 1.8 µs), a peer that is busy computing
/// costs its waiter 50 µs of one CPU and then nothing. Not a tuning
/// surface: 15, 50 and 200 µs measured the same.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Flag polls between two reads of the clock while spinning.
const SPIN_POLLS_PER_CLOCK_READ: u32 = 64;

/// The waker of every [`block_on`] on one thread: a wake raises the flag,
/// which a spinning waiter is watching, and unparks the thread, which a
/// parked one is waiting for (an unpark of a thread that is not parked
/// costs one atomic swap, so a spinning receiver costs its sender no
/// syscall).
pub(crate) struct ThreadWaker {
    /// Raised by a wake (`Release`) and read by the waiter (`Acquire`),
    /// so a waiter that sees it also sees the fill behind it; the poll
    /// that follows retakes the mailbox lock regardless. The waiter
    /// lowers it before each poll, which a wake then cannot overtake.
    woken: AtomicBool,
    thread: std::thread::Thread,
    /// Times a wait of this thread watched the flag, and times it parked;
    /// test builds only, where the wait tests read them.
    #[cfg(test)]
    spun: std::sync::atomic::AtomicU64,
    #[cfg(test)]
    parked: std::sync::atomic::AtomicU64,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl ThreadWaker {
    /// Watches the flag until a wake raises it (true) or `budget` runs
    /// out (false).
    fn spin(&self, budget: Duration) -> bool {
        #[cfg(test)]
        self.spun.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now(); // arch_lint: block_on spin budget
        let mut polls = 0u32;
        while !self.woken.load(Ordering::Acquire) {
            polls += 1;
            if polls.is_multiple_of(SPIN_POLLS_PER_CLOCK_READ) && start.elapsed() >= budget {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }

    /// Parks until a wake raises the flag; an unpark that raised nothing
    /// (a stale one, or none at all) parks again.
    fn park(&self) {
        #[cfg(test)]
        self.parked.fetch_add(1, Ordering::Relaxed);
        while !self.woken.load(Ordering::Acquire) {
            std::thread::park();
        }
    }
}

thread_local! {
    /// This thread's waker, made on its first blocking wait, and the
    /// `Waker` around it.
    static WAKER: (Arc<ThreadWaker>, Waker) = {
        let thread = Arc::new(ThreadWaker {
            woken: AtomicBool::new(false),
            thread: std::thread::current(),
            #[cfg(test)]
            spun: Default::default(),
            #[cfg(test)]
            parked: Default::default(),
        });
        (Arc::clone(&thread), Waker::from(thread))
    };
    /// How long this thread's blocked waits spin before they park:
    /// installed for a rank thread's life by [`rank_threads`], zero
    /// on every other thread.
    static SPIN: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    /// Which rank this thread is of the world whose [`Runnable`] count
    /// lives at that address; unset on other threads, helpers included.
    static RANK_OF: Cell<Option<(usize, *const Runnable)>> = const { Cell::new(None) };
}

/// Sets how long this thread's blocked waits spin before they park.
pub(crate) fn spin_before_parking(budget: Duration) {
    SPIN.set(budget);
}

/// Drives `fut` to completion on the calling thread: the rank thread's
/// executor, and how a plain closure body or a world's door waits on an
/// operation, whose one form is its `*_async` body. It polls; while the
/// future is pending it watches its waker's flag for the thread's spin
/// budget, then parks until a wake, and polls again. It keeps no clock
/// past the budget: a wait that no sender will end is the world's stall,
/// which its `Runnable` count names and whose poison wakes the wait to
/// unwind. Inside a cooperative task this would park the whole executor,
/// so it panics with a pointer at the async API instead.
///
/// The wait is spin-then-park for three reasons. *A budget*, because a
/// peer that answers within microseconds is the common case worth a CPU
/// and a peer that does not is not. *On a flag, outside every lock*,
/// because a rendezvous send encodes up to 4 MiB while holding the
/// receiver's mailbox lock: a spinner that polled by locking would go to
/// sleep on the mutex instead. *Zero when ranks outnumber CPUs*, because
/// then the spinner holds the CPU its sender needs (two ranks pinned to
/// one CPU: a forced spin took the `native_mp` benchmark pass from 0.92 s
/// to 2.63 s) — so the runtime derives the budget from the world, and
/// this is one loop whose budget is sometimes zero.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    assert!(
        !crate::coop::in_coop(),
        "mp: blocking call inside a cooperative task; use the async (*_async) API"
    );
    let mut fut = std::pin::pin!(fut);
    let budget = SPIN.get();
    WAKER.with(|(thread, waker)| loop {
        thread.woken.store(false, Ordering::Relaxed);
        if let Poll::Ready(out) = fut.as_mut().poll(&mut Context::from_waker(waker)) {
            return out;
        }
        if budget.is_zero() || !thread.spin(budget) {
            thread.park();
        }
    })
}

/// How many rank threads of a thread world can run: the unfinished ones,
/// less those waiting on a receive whose waker has not fired. Every change
/// to a wait is made under the lock of the mailbox waited on, which is
/// where delivery fills it, so at zero no rank thread of this process can
/// run until a receive is filled from outside it: by a frame from another
/// process in a fleet, never in a world hosted whole by this process.
/// There, whoever takes the count to zero unparks the launching thread; a
/// fleet's launching thread samples the count instead (`transport`'s
/// monitor). DESIGN.md §5 states the rule and its limits.
///
/// Orderings: a body's end releases `unfinished` before it decrements
/// `count`, and every `count` change is a read-modify-write, so an
/// `Acquire` load that reads zero sees every `unfinished` decrement made
/// before the ends it counted.
#[derive(Default)]
pub(crate) struct Runnable {
    count: AtomicUsize,
    /// Rank threads whose body has not ended.
    unfinished: AtomicUsize,
    /// The thread parked on the count, unparked when it reaches zero.
    launcher: OnceLock<std::thread::Thread>,
}

impl Runnable {
    /// Starts the count at `n` rank threads; `launcher`, if given, is
    /// unparked each time the count reaches zero.
    fn start(&self, n: usize, launcher: Option<std::thread::Thread>) {
        if let Some(launcher) = launcher {
            let once = self.launcher.set(launcher);
            once.expect("a thread world is launched once");
        }
        self.unfinished.store(n, Ordering::Relaxed);
        self.count.store(n, Ordering::Release);
    }

    /// Whether the calling thread is rank `rank`'s own in this world.
    pub(crate) fn is_rank_thread(&self, rank: usize) -> bool {
        RANK_OF.get() == Some((rank, self as *const Runnable))
    }

    /// One fewer rank thread can run: it left its waker in an unfilled
    /// receive, or its body ended.
    pub(crate) fn stop(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(launcher) = self.launcher.get() {
                launcher.unpark();
            }
        }
    }

    /// A counted waiter's waker was taken: its thread can run again.
    pub(crate) fn resume(&self) {
        self.count.fetch_add(1, Ordering::AcqRel);
    }

    /// A rank thread's body ended, for good; true for the last one.
    fn end(&self) -> bool {
        let last = self.unfinished.fetch_sub(1, Ordering::Release) == 1;
        self.stop();
        last
    }

    /// Whether no rank thread can run (every one waits or has ended).
    pub(crate) fn idle(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// Whether every rank thread's body has ended.
    pub(crate) fn finished(&self) -> bool {
        self.unfinished.load(Ordering::Acquire) == 0
    }

    /// Parks the launching thread until the count reaches zero; true when
    /// rank threads are left unfinished there, which is a stall.
    fn stalled(&self) -> bool {
        while !self.idle() {
            std::thread::park();
        }
        !self.finished()
    }
}

/// A rank thread's spin budget and rank, installed for the life of its
/// body; dropping it, by return or unwind, takes the thread off its
/// world's runnable count for good, and the last one to go wakes a fleet's
/// monitor, which sends the epoch's flush barrier.
struct RankThread<'w> {
    world: &'w World,
}

impl RankThread<'_> {
    fn enter(world: &World, rank: usize, spin: Duration) -> RankThread<'_> {
        spin_before_parking(spin);
        RANK_OF.set(world.runnable.as_ref().map(|r| (rank, Arc::as_ptr(r))));
        RankThread { world }
    }
}

impl Drop for RankThread<'_> {
    fn drop(&mut self) {
        RANK_OF.set(None);
        if self.world.runnable().end() {
            if let Some(remote) = &self.world.remote {
                remote.wake_monitor();
            }
        }
    }
}

/// Shared state of a running SPMD world.
pub(crate) struct World {
    pub n: usize,
    pub mailboxes: Vec<Mailbox>,
    /// World group (identity mapping), shared by every rank's world
    /// [`Comm`]: built once here instead of per rank, which at 65536
    /// ranks is the difference between one 512 KiB table and an O(n²)
    /// allocation storm.
    pub world_group: Arc<Vec<usize>>,
    /// Collective object rendezvous (used by RMA window creation):
    /// key -> (shared object, fetches remaining before cleanup).
    #[allow(clippy::type_complexity)]
    pub rendezvous: Mutex<HashMap<u64, (Arc<dyn Any + Send + Sync>, usize)>>,
    /// Virtual-execution pricing model (None for native runs).
    pub virtual_net: Option<Box<dyn VirtualNet>>,
    /// Per-rank virtual clocks (empty for native runs).
    pub virtual_clocks: Vec<Clock>,
    /// Messages priced since the net last heard the minimum clock.
    virtual_priced: AtomicUsize,
    /// Instrumentation registry of a checked run (None otherwise).
    pub inspector: Option<Arc<Inspector>>,
    /// Schedule controller of a controlled cooperative run (None
    /// otherwise): consulted by the executor at ready-set picks and by
    /// mailboxes at wildcard matches. Thread-based engines ignore it —
    /// real parallelism has no enumerable schedule to control.
    pub controller: Option<Arc<dyn ScheduleController>>,
    /// Multi-process session handle: present when this world is one epoch
    /// of a cross-process world, consulted by [`World::deliver`] to route
    /// messages for ranks hosted by other processes over the transport.
    pub remote: Option<RemoteWorld>,
    /// The runnable count of a thread world (None for cooperative worlds,
    /// whose waits pay nothing).
    runnable: Option<Arc<Runnable>>,
    /// The diagnosis the world was poisoned with, if it stalled.
    poison: OnceLock<Arc<Deadlock>>,
}

impl World {
    /// The one world builder: `n` ranks for `engine`, priced by `net` if
    /// given, instrumented as `check` says if given — a controller decides
    /// a cooperative world's schedule, and rank threads ignore it: real
    /// parallelism has no enumerable schedule — and one epoch of a fleet
    /// when `remote` is given. A thread world keeps a [`Runnable`] count,
    /// which names its stall; every world but a fleet's refuses a
    /// multi-process session.
    pub(crate) fn new(
        n: usize,
        engine: Engine,
        net: Option<Box<dyn VirtualNet>>,
        check: Option<Instrument>,
        remote: Option<RemoteWorld>,
    ) -> World {
        assert!(n > 0, "an SPMD world needs at least one rank");
        if remote.is_none() {
            crate::transport::assert_no_session();
        }
        let (inspector, controller) = match check {
            None => (None, None),
            Some((settings, controller)) => {
                let controller = controller.filter(|_| engine == Engine::Coop);
                if let Some(ctl) = &controller {
                    ctl.note_world(n);
                }
                let inspector = Inspector::new(n, settings, controller.clone());
                (Some(Arc::new(inspector)), controller)
            }
        };
        let runnable: Option<Arc<Runnable>> = (engine == Engine::Threads).then(Arc::default);
        let clocks = if net.is_some() { n } else { 0 };
        World {
            n,
            mailboxes: (0..n)
                .map(|rank| {
                    let (insp, ctl, count) = (&inspector, &controller, &runnable);
                    Mailbox::with_instrumentation(rank, insp.clone(), ctl.clone(), count.clone())
                })
                .collect(),
            world_group: Arc::new((0..n).collect()),
            rendezvous: Mutex::new(HashMap::new()),
            virtual_net: net,
            virtual_clocks: (0..clocks).map(|_| Clock::default()).collect(),
            virtual_priced: AtomicUsize::new(0),
            inspector,
            controller,
            remote,
            runnable,
            poison: OnceLock::new(),
        }
    }

    /// Poisons the world with `diagnosis` (the first one sticks) and wakes
    /// every waiting receive, mailbox by mailbox in rank order, to unwind
    /// with it: the one way a stall ends, whoever detected it.
    pub(crate) fn poison(&self, diagnosis: Arc<Deadlock>) {
        let diagnosis = self.poison.get_or_init(|| diagnosis);
        for mailbox in &self.mailboxes {
            mailbox.poison(diagnosis);
        }
    }

    /// The runnable count of a thread world.
    pub(crate) fn runnable(&self) -> &Runnable {
        let runnable = self.runnable.as_deref();
        runnable.expect("a thread world keeps a runnable count")
    }

    /// The diagnosis the world was poisoned with, if any.
    pub(crate) fn poisoned(&self) -> Option<Arc<Deadlock>> {
        self.poison.get().cloned()
    }

    /// Counts one priced message and, every world-size messages, tells
    /// `net` the minimum rank clock ([`VirtualNet::retire_before`]): an
    /// O(ranks) minimum every O(ranks) messages, O(1) a message. The
    /// count is a cadence and publishes nothing: a plain load and store
    /// (no read-modify-write on the per-message path) can only lose a
    /// step under concurrent senders, which delays a report, and a
    /// horizon read late is only lower than it could be — so relaxed
    /// ordering suffices throughout.
    pub(crate) fn priced_one(&self, net: &dyn VirtualNet) {
        let priced = self.virtual_priced.load(Ordering::Relaxed) + 1;
        if priced < self.n {
            self.virtual_priced.store(priced, Ordering::Relaxed);
            return;
        }
        self.virtual_priced.store(0, Ordering::Relaxed);
        let clocks = self.virtual_clocks.iter().map(Clock::get);
        let horizon = clocks.reduce(Time::min).expect("a priced world has ranks");
        net.retire_before(horizon);
    }

    /// The run log of a finished instrumented world: its event rings, the
    /// unmatched traffic left in its mailboxes, the deadlock diagnosis if
    /// it stalled, and its ranks' caught `panics` but the poison unwinds
    /// (the stall's doing, which the diagnosis already carries).
    pub(crate) fn run_log(&self, mut panics: Vec<(usize, String)>) -> RunLog {
        let inspector = self.inspector.as_ref().expect("an instrumented world");
        let (events, dropped) = inspector.drain_events();
        panics.retain(|(_, msg)| !msg.starts_with(check::POISON_MARK));
        panics.sort_by_key(|&(rank, _)| rank);
        RunLog {
            n: self.n,
            events,
            dropped,
            leftover: self.inventory(),
            deadlock: self.poisoned(),
            panics,
        }
    }

    /// Every queued, unmatched message lane of the world's mailboxes.
    pub(crate) fn inventory(&self) -> Vec<LaneInfo> {
        self.mailboxes.iter().flat_map(Mailbox::inventory).collect()
    }

    /// The per-rank virtual clocks, read once every rank has finished.
    pub(crate) fn final_clocks(&self) -> Vec<Time> {
        self.virtual_clocks.iter().map(Clock::get).collect()
    }

    /// Delivers `msg` to global rank `dst`. Under a multi-process session, a message for a rank hosted by
    /// another process is framed and sent over the transport instead of
    /// pushed into a local mailbox — the one point where residency is
    /// decided, so everything above (collectives, rendezvous fallback,
    /// instrumentation) is transport-agnostic by construction.
    pub(crate) fn deliver(&self, dst: usize, msg: Message) {
        if let Some(remote) = &self.remote {
            if !remote.resident(dst) {
                remote.send_data(dst, &msg);
                return;
            }
        }
        self.mailboxes[dst].push(msg);
    }

    /// Rendezvous attempt for a large typed send: if rank `dst` has a
    /// matching posted receive with a right-sized buffer, encode `words`
    /// directly into it and complete the transfer (one copy end to end).
    /// Returns false — and performs nothing — when no such receive is
    /// posted; the caller falls back to the eager path.
    pub(crate) fn rendezvous_words<T: crate::datatype::Word>(
        &self,
        src: usize,
        dst: usize,
        full_tag: u64,
        words: &[T],
    ) -> bool {
        if let Some(remote) = &self.remote {
            if !remote.resident(dst) {
                // No visibility into a remote mailbox's posted receives;
                // the caller falls back to the eager (framed) path.
                return false;
            }
        }
        if !self.mailboxes[dst].rendezvous_send(src, full_tag, words, None) {
            return false;
        }
        if let Some(insp) = &self.inspector {
            insp.record(
                src,
                crate::check::Event::Send {
                    dst,
                    comm: (full_tag >> 32) as u32,
                    tag: (full_tag & 0xFFFF_FFFF) as u32,
                    bytes: words.len() * T::SIZE,
                },
            );
        }
        true
    }
}

/// Runs `f` as an SPMD program over `n` ranks and returns the per-rank
/// results in rank order.
///
/// `f` is a plain closure on each rank's thread: it waits on an
/// operation, awaitable only, with [`block_on`].
///
/// Panics if any rank panics, naming the cause: the lowest-rank panic
/// that is not a stall's unwind, else the lowest-rank unwind.
///
/// Under a multi-process session
/// ([`transport::init_from_env`](crate::transport::init_from_env) found
/// `MP_NPROCS`), `n` must equal the launcher-fixed world size, the ranks
/// resident in this process run here while the rest run in their own
/// processes, and only the *resident* ranks' results come back (in
/// ascending rank order) — every process of the world must make the same
/// `run` calls in the same order.
///
/// # Examples
///
/// ```
/// let sums = mp::run(4, |comm| {
///     let mut x = [comm.rank() as u64];
///     mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
///     x[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub fn run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let f = &f;
    let body = move |comm: Comm| async move { f(&comm) };
    // A multi-process session reroutes delivery through its transport;
    // it takes precedence over the ambient hook (the session runs its own
    // cross-process detector).
    if let Some(sess) = crate::transport::session() {
        return crate::transport::run_multiproc(&sess, n, &body);
    }
    launch(n, Engine::Threads, None, |world| {
        rank_threads(world, &world.world_group, &body)
    })
    .0
}

/// Like [`run`] on `engine`, but returns the run's point-to-point
/// transfers too: a checked world's `RunLog::transfers` — each rank's
/// sends as (src, dst, bytes), in program order, ranks in order. Failures
/// propagate as [`run`]'s do. Used to cross-validate the real collective
/// implementations against their schedule generators.
pub fn run_traced<R, F, Fut>(n: usize, engine: Engine, f: F) -> (Vec<R>, Vec<Transfer>)
where
    R: Send,
    F: Fn(Comm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let settings = Settings {
        ring_capacity: usize::MAX,
    };
    let check = Some((settings, None));
    let (outcomes, world) = start(n, engine, None, check, |world| engine.drive(world, &f));
    let mut transfers = Vec::new();
    let results = end(&world, outcomes, |log| {
        let dropped = log.dropped.iter().sum::<u64>();
        assert_eq!(dropped, 0, "mp: a traced world dropped send events");
        transfers = log.transfers();
    });
    (results, transfers)
}

/// The one launch path's first half: builds the world of `n` ranks for
/// `engine` — priced by `net`, instrumented as `check` says — and runs its
/// ranks through `drive`, the engine's run of the rank body. Hands back
/// their outcomes, and the world.
pub(crate) fn start<R>(
    n: usize,
    engine: Engine,
    net: Option<Box<dyn VirtualNet>>,
    check: Option<Instrument>,
    drive: impl FnOnce(&Arc<World>) -> Outcomes<R>,
) -> (Outcomes<R>, Arc<World>) {
    let world = Arc::new(World::new(n, engine, net, check, None));
    (drive(&world), world)
}

/// A plain door's world ([`run`], [`run_coop`](crate::run_coop),
/// [`run_virtual_coop`](crate::run_virtual_coop)), and the one read of the
/// ambient hook ([`check::install_scoped`]): without one the world runs
/// uninstrumented; with one it runs instrumented — a cooperative world
/// under the hook's controller, if it names one — and its log reaches the
/// hook's sink before a failure propagates. Returns the results, and the
/// world.
pub(crate) fn launch<R>(
    n: usize,
    engine: Engine,
    net: Option<Box<dyn VirtualNet>>,
    drive: impl FnOnce(&Arc<World>) -> Outcomes<R>,
) -> (Vec<R>, Arc<World>) {
    let scoped = check::scoped();
    let check = scoped
        .as_ref()
        .map(|s| (s.settings.clone(), s.controller.clone()));
    let (outcomes, world) = start(n, engine, net, check, drive);
    let sink = |log: RunLog| {
        if let Some(s) = &scoped {
            (s.sink)(log);
        }
    };
    (end(&world, outcomes, sink), world)
}

/// The one fold of a world that answers as a plain run does (the plain
/// doors, a traced run, a fleet's epoch): every rank's result, or a panic.
/// An uninstrumented world names its cause — the lowest-rank panic that is
/// not a poison unwind, else the lowest-rank unwind — whichever engine ran
/// it. An instrumented one is [`checked`], hands its log to `sink` and then
/// propagates as [`Checked::sink_then_propagate`] says.
pub(crate) fn end<R>(world: &World, outcomes: Outcomes<R>, sink: impl FnOnce(RunLog)) -> Vec<R> {
    if world.inspector.is_some() {
        return checked(world, outcomes).sink_then_propagate(sink);
    }
    let (results, mut panics) = outcomes;
    panics.sort_by_key(|&(rank, _)| rank);
    let cause = panics
        .iter()
        .find(|(_, msg)| !msg.starts_with(check::POISON_MARK));
    if let Some((rank, msg)) = cause.or(panics.first()) {
        panic!("rank {rank} panicked: {msg}");
    }
    results
        .into_iter()
        .map(|r| r.expect("no rank panicked"))
        .collect()
}

/// The checked fold: the results when every rank completed, and the
/// world's run log, which carries the panics.
pub(crate) fn checked<R>(world: &World, (results, panics): Outcomes<R>) -> Checked<R> {
    Checked {
        results: results.into_iter().collect(),
        log: world.run_log(panics),
    }
}

/// The thread engine, and the one place a rank thread is spawned: one per
/// entry of `ranks` against `world` (whose size may exceed `ranks.len()` —
/// a fleet process hosts only its residents), each driving `f` over its
/// world [`Comm`] with [`block_on`]; joined, outcomes in `ranks` order.
/// The *full* world size sizes each rank's SMP worker share (hybrid SMP:
/// a native rank's kernels may fan out over an even share of the host's
/// cores) exactly as a single-process run of that world would — a parity
/// requirement, not a nicety: the `threads` field of emitted records must
/// not depend on how ranks were packed into processes.
///
/// The launching thread then waits on the world's [`Runnable`] count: a
/// world hosted whole by this process parks on it, and a stall left at zero
/// is diagnosed and poisoned; a fleet's epoch runs its monitor, which
/// returns once the epoch's flush barrier is in.
pub(crate) fn rank_threads<R, F, Fut>(world: &Arc<World>, ranks: &[usize], f: &F) -> Outcomes<R>
where
    R: Send,
    F: Fn(Comm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let n = world.n;
    // Decided once per world (see `receives_spin`).
    let spin = if receives_spin(n) {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    };
    let gate = StartGate::new();
    let stack = rank_stack_bytes();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            let world = Arc::clone(world);
            let gate = &gate;
            let spawned = std::thread::Builder::new()
                .name(format!("mp-rank-{rank}"))
                .stack_size(stack)
                .spawn_scoped(scope, move || {
                    if !gate.wait() {
                        return None;
                    }
                    let _pool = smp::AmbientGuard::install(smp::pool::rank_threads(n));
                    let _rank = RankThread::enter(&world, rank, spin);
                    Some(block_on(f(Comm::world(Arc::clone(&world), rank))))
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    gate.abort();
                    for h in handles {
                        let _ = h.join();
                    }
                    spawn_failure(rank, n, stack, &e);
                }
            }
        }
        let runnable = world.runnable();
        let parks = world.remote.is_none();
        runnable.start(ranks.len(), parks.then(std::thread::current));
        gate.open();
        match &world.remote {
            Some(remote) => remote.monitor(world),
            None if runnable.stalled() => world.poison(check::diagnose(world)),
            None => {}
        }
        let (mut results, mut panics) = (Vec::with_capacity(ranks.len()), Vec::new());
        for (h, &rank) in handles.into_iter().zip(ranks) {
            match h.join() {
                Ok(Some(r)) => results.push(Some(r)),
                Ok(None) => unreachable!("the gate opened, so every spawn succeeded"),
                Err(e) => {
                    results.push(None);
                    panics.push((rank, panic_message(&*e).to_string()));
                }
            }
        }
        (results, panics)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl ThreadWaker {
        /// The calling thread's waker, whose counters any thread may read.
        pub(crate) fn current() -> Arc<ThreadWaker> {
            WAKER.with(|(thread, _)| Arc::clone(thread))
        }

        /// How often this thread's waits have watched the flag and how
        /// often they have parked: `(spun, parked)`.
        pub(crate) fn wait_counts(&self) -> (u64, u64) {
            (
                self.spun.load(Ordering::Relaxed),
                self.parked.load(Ordering::Relaxed),
            )
        }
    }

    /// `f` on every rank thread of `world`, a thread world built by hand
    /// so a test can reach into its mailboxes: [`run`]'s path with the
    /// world in view.
    pub(crate) fn on_threads<R: Send>(
        world: &Arc<World>,
        f: impl Fn(usize, &Comm) -> R + Sync,
    ) -> Vec<R> {
        let f = &f;
        let body = move |comm: Comm| async move { f(comm.rank(), &comm) };
        end(
            world,
            rank_threads(world, &world.world_group, &body),
            |_| (),
        )
    }

    /// A thread world of `n` ranks with nothing attached.
    pub(crate) fn thread_world(n: usize) -> Arc<World> {
        Arc::new(World::new(n, Engine::Threads, None, None, None))
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let out = run(8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn rank_panic_propagates() {
        run(4, |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
        });
    }

    /// A rank that panics is the cause; the rank waiting on it is a
    /// consequence. The stall its panic leaves behind is named at once
    /// and unwinds the waiter, and `run` reports the cause — within
    /// 100 ms, read off a bounded channel wait rather than a clock.
    #[test]
    fn a_panic_is_reported_before_the_stall_it_caused() {
        let (tx, rx) = std::sync::mpsc::channel();
        let world = std::thread::spawn(move || {
            let err = std::panic::catch_unwind(|| {
                run(2, |comm| {
                    if comm.rank() == 1 {
                        panic!("boom");
                    }
                    block_on(comm.recv_async(&mut [0u8], 1, 3));
                })
            })
            .expect_err("rank 1 panicked");
            tx.send(panic_message(&*err).to_string()).unwrap();
        });
        let msg = rx
            .recv_timeout(Duration::from_millis(100))
            .expect("the run ends within 100 ms");
        assert_eq!(msg, "rank 1 panicked: boom");
        world.join().unwrap();
    }

    /// A rank thread waiting on two receives at once is off the runnable
    /// count once, not twice: while its peer is still computing (until
    /// both receives wait), its world is no stall.
    #[test]
    fn a_rank_waiting_on_two_receives_at_once_counts_once() {
        let both_wait = AtomicBool::new(false);
        let out = run(2, |comm| {
            if comm.rank() == 1 {
                while !both_wait.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                comm.send(&[1u64], 0, 1);
                comm.send(&[2u64], 0, 2);
                return 0;
            }
            let (mut a, mut b) = ([0u64], [0u64]);
            {
                let mut first = std::pin::pin!(comm.recv_async(&mut a, 1, 1));
                let mut second = std::pin::pin!(comm.recv_async(&mut b, 1, 2));
                let (mut one, mut two) = (false, false);
                block_on(std::future::poll_fn(|cx| {
                    one = one || first.as_mut().poll(cx).is_ready();
                    two = two || second.as_mut().poll(cx).is_ready();
                    both_wait.store(true, Ordering::Release);
                    if one && two {
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                }));
            }
            a[0] + b[0]
        });
        assert_eq!(out, [3, 0]);
    }

    /// A traced run's transfers are its send events: each rank's sends in
    /// program order, ranks in order, whatever order they arrived in.
    #[test]
    fn traced_run_records_messages() {
        let (_, trace) = run_traced(3, Engine::Threads, |comm| async move {
            let me = comm.rank();
            if me > 0 {
                comm.send(&vec![0u8; me], 0, 1);
                comm.send(&vec![0u8; 10 * me], 0, 2);
            } else {
                let mut buf = vec![0u8; 20];
                block_on(comm.recv_async(&mut buf, 2, 2));
                block_on(comm.recv_async(&mut buf[..10], 1, 2));
                block_on(comm.recv_async(&mut buf[..2], 2, 1));
                block_on(comm.recv_async(&mut buf[..1], 1, 1));
            }
        });
        let t = |src, bytes| Transfer { src, dst: 0, bytes };
        assert_eq!(trace, [t(1, 1), t(1, 10), t(2, 2), t(2, 20)]);
    }

    /// `rounds` 8-byte ping-pongs between ranks 0 and 1 of a fresh world
    /// of `n` ranks (the rest finish at once), run the way `run` runs
    /// them; returns `(spun, parked)` summed over its rank threads.
    fn ping_pong_wait_counts(n: usize, rounds: u64) -> (u64, u64) {
        let counts = on_threads(&thread_world(n), |rank, comm| {
            let mut buf = [0u64];
            for i in 0..rounds {
                match rank {
                    0 => {
                        comm.send(&[i], 1, 3);
                        block_on(comm.recv_async(&mut buf, 1, 3));
                        assert_eq!(buf[0], i);
                    }
                    1 => {
                        block_on(comm.recv_async(&mut buf, 0, 3));
                        comm.send(&buf, 0, 3);
                    }
                    _ => break,
                }
            }
            ThreadWaker::current().wait_counts()
        });
        let sum = |(s, p), (spun, parked)| (s + spun, p + parked);
        counts.into_iter().fold((0, 0), sum)
    }

    /// The rule, observed from the counters — whatever else the host is
    /// doing, which is why *how rarely* a fitting world parks is measured
    /// by `tests/spin_rule.rs`, alone in its own process: beside the other
    /// tests of this binary a rank's peer is off its CPU most of the time.
    #[test]
    fn a_world_spins_exactly_when_its_ranks_fit_the_cpus() {
        let cpus = smp::topo::detect().online_cpus;
        let (spun, _) = ping_pong_wait_counts(cpus.max(2), 1_000);
        if cpus >= 2 {
            assert!(
                receives_spin(cpus) && spun > 0,
                "{cpus} ranks on {cpus} CPUs"
            );
        } else {
            eprintln!("one online CPU: no two ranks fit it, only the other side is checked");
            assert_eq!(spun, 0);
        }
        let (spun, parked) = ping_pong_wait_counts(cpus + 1, 1_000);
        assert!(!receives_spin(cpus + 1));
        assert_eq!(spun, 0, "more ranks than CPUs: the budget is zero");
        assert!(parked > 0, "its receives park at once, as they always did");
    }

    /// A failed rank spawn must fail cleanly with the rank named — not
    /// abort the process, not hang already-spawned siblings (they park
    /// behind the start gate), not leave the launcher waiting on a count
    /// that never started — through every door onto the thread engine:
    /// each leg panics *and returns*, so whatever the launcher started has
    /// been joined. (The session launcher's leg is
    /// `transport::tests::spawn_failure_ends_the_epoch`.)
    #[test]
    fn spawn_failure_names_the_rank() {
        use check::run_checked;
        async fn rank(comm: Comm) -> usize {
            comm.rank()
        }
        let launchers: [(&str, fn()); 3] = [
            ("run", || drop(run(4, Comm::rank))),
            ("run_traced", || drop(run_traced(4, Engine::Threads, rank))),
            ("run_checked", || {
                drop(run_checked(4, Engine::Threads, Settings::default(), rank))
            }),
        ];
        for (name, launch) in launchers {
            let err = with_failing_spawns(|| std::panic::catch_unwind(launch))
                .expect_err("the spawn cannot succeed");
            let msg = panic_message(&*err);
            assert!(
                msg.starts_with("mp: cannot spawn rank 0 of 4"),
                "{name}: {msg}"
            );
        }
    }

    /// Both engines name the same failing rank: rank 2 panics at once,
    /// rank 0 after a receive. A cooperative world runs its other ranks on
    /// past the first panic, as a thread world does, and the one fold
    /// names the lowest-rank cause.
    #[test]
    fn both_engines_name_the_same_failing_rank() {
        async fn program(comm: &Comm) {
            match comm.rank() {
                0 => {
                    comm.recv_async(&mut [0u8], 1, 1).await;
                    panic!("late");
                }
                1 => comm.send(&[1u8], 0, 1),
                _ => panic!("early"),
            }
        }
        let launchers: [(&str, fn()); 2] = [
            ("run", || drop(run(3, |c| block_on(program(c))))),
            ("run_coop", || {
                drop(crate::run_coop(3, |c| async move { program(&c).await }))
            }),
        ];
        for (name, launch) in launchers {
            let err = std::panic::catch_unwind(launch).expect_err("two ranks panicked");
            assert_eq!(panic_message(&*err), "rank 0 panicked: late", "{name}");
        }
    }

    /// Runs `f` with an absurd rank stack request, which makes the *first*
    /// spawn on this thread fail deterministically; the override is cleared
    /// even when `f` unwinds.
    pub(crate) fn with_failing_spawns<T>(f: impl FnOnce() -> T) -> T {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                STACK_OVERRIDE.with(|c| c.set(None));
            }
        }
        STACK_OVERRIDE.with(|c| c.set(Some(usize::MAX)));
        let _restore = Restore;
        f()
    }
}

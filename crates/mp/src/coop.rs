//! Cooperative rank scheduler: ranks as resumable tasks, not OS threads.
//!
//! Host limits (pid_max, vm.max_map_count, per-thread stacks) cap the
//! thread-per-rank runtime at a few thousand ranks; the paper-scale
//! virtual sweeps need 16k–100k. The **cooperative executor**
//! ([`run_coop`], [`run_traced_coop`], [`run_virtual_coop`],
//! [`run_checked_coop`]) hosts the whole world on the caller's thread:
//! each rank body is an `async` future, and every blocking receive
//! ([`Mailbox::wait_ticket`](crate::mailbox) and friends) becomes a yield
//! point, so a 100k-rank virtual run is just 100k boxed futures. Ranks
//! are polled off one deterministic FIFO run queue; the `simnet`
//! first-fit reservation timelines are order-dependent under contention,
//! so schedule determinism is what buys byte-identical virtual clocks
//! run to run. It is the only engine virtual worlds run on.
//!
//! Every entry point is a projection of one private `launch` (build the
//! world — traced? priced? instrumented? controlled? — and run `execute`),
//! so a hook on how a cooperative world starts or ends has one place to go.
//!
//! Task states (see DESIGN.md "Cooperative scheduler"): *queued* (rank id
//! in the run queue), *running* (being polled), *blocked* (pending on a
//! receive, waker parked in the hand-off slot), *finished*. A blocked
//! rank is woken by the sender that fills its hand-off slot; wakes push
//! the rank id back onto the FIFO queue. Deadlock detection is *instant*
//! — an empty queue with unfinished ranks is definitive, no wall-clock
//! timeout needed — and composes with `mp::check`'s wait edges: a checked
//! cooperative run calls [`check::diagnose`] at the stall and unwinds the
//! blocked tasks with the cycle diagnosis.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;
use simnet::{Time, Transfer};

use crate::check::{self, Checked, Event, RunLog, Settings};
use crate::comm::Comm;
use crate::runtime::{panic_message, World};
use crate::virt::VirtualNet;

thread_local! {
    /// True while this thread is polling a cooperative task.
    static IN_COOP: Cell<bool> = const { Cell::new(false) };
    /// Ambient exploration configuration (see [`install_explore`]).
    static EXPLORE: RefCell<Option<ScopedExplore>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------
// Schedule controllers: every engine choice as an enumerable decision
// ---------------------------------------------------------------------

/// One matchable lane at a wildcard-receive choice point, in arrival
/// order (`seq` is the global arrival stamp of the lane front).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WildcardCandidate {
    /// Global source rank of the candidate lane.
    pub src: usize,
    /// Communicator id of the lane.
    pub comm: u32,
    /// In-communicator tag of the lane.
    pub tag: u32,
    /// Arrival stamp of the lane front (the message that would match).
    pub seq: u64,
}

/// A scheduling decision procedure for cooperative runs.
///
/// The cooperative engine has exactly two sources of schedule freedom:
/// which ready rank to poll next, and which queued lane a wildcard
/// receive matches when several hold messages. A controller is consulted
/// at both — each call is an enumerable choice point, which is the
/// substrate the `mpcheck` DPOR explorer drives. The engine's default
/// behaviour (no controller installed) is index 0 at every choice, i.e.
/// exactly [`FifoController`]; parity tests pin that equivalence.
///
/// The `note_*` hooks let a controller attribute communication effects
/// (sends, receive matches, posted receives) to scheduling steps without
/// a second instrumentation layer; default implementations ignore them.
pub trait ScheduleController: Send + Sync {
    /// Picks the next rank to poll from `ready` (engine FIFO order).
    /// Called only when `ready.len() >= 2`. Returns an index into `ready`.
    fn pick_ready(&self, ready: &[usize]) -> usize;

    /// Picks which candidate lane a wildcard receive on `rank` matches.
    /// `candidates` is sorted oldest-arrival-first and has length >= 2.
    /// Returns an index into `candidates`.
    fn pick_wildcard(&self, rank: usize, candidates: &[WildcardCandidate]) -> usize;

    /// Called immediately before `rank` is polled (every step, whether
    /// the pick was a real choice or forced).
    fn note_step(&self, rank: usize) {
        let _ = rank;
    }

    /// Called for every instrumentation event recorded on `rank`'s ring.
    fn note_event(&self, rank: usize, event: &Event) {
        let _ = (rank, event);
    }

    /// Called when `rank` registers a posted receive — a visible effect
    /// on its mailbox even before any message matches it.
    fn note_touch(&self, rank: usize) {
        let _ = rank;
    }

    /// Called when a new controlled world of `n` ranks starts.
    fn note_world(&self, n: usize) {
        let _ = n;
    }
}

/// The trivial controller: index 0 at every choice point, reproducing
/// the engine's FIFO ready order and oldest-arrival wildcard matching
/// byte for byte. Exists so parity tests can pin "controlled run with
/// FIFO controller == uncontrolled run".
pub struct FifoController;

impl ScheduleController for FifoController {
    fn pick_ready(&self, _ready: &[usize]) -> usize {
        0
    }

    fn pick_wildcard(&self, _rank: usize, _candidates: &[WildcardCandidate]) -> usize {
        0
    }
}

/// Ambient exploration configuration: while installed on a thread (see
/// [`install_explore`]), every cooperative run started from that thread
/// ([`run_coop`], [`run_virtual_coop`]) is instrumented, its scheduling
/// decisions are routed through `controller`, and its [`RunLog`] reaches
/// `sink` *before* any deadlock or rank panic propagates — so a schedule
/// explorer always sees what happened, even on failing schedules.
#[derive(Clone)]
pub struct ScopedExplore {
    /// Decides every ready-set pick and wildcard match of the run.
    pub controller: Arc<dyn ScheduleController>,
    /// Instrumentation settings.
    pub settings: Settings,
    /// Receives the log of every controlled run, on the installing
    /// thread, before failures propagate.
    pub sink: Arc<dyn Fn(RunLog) + Send + Sync>,
}

/// Installs `explore` on the current thread until the returned guard
/// drops. Cooperative runs started while installed run controlled; see
/// [`ScopedExplore`].
pub fn install_explore(explore: ScopedExplore) -> ExploreGuard {
    EXPLORE.with(|e| *e.borrow_mut() = Some(explore));
    ExploreGuard { _private: () }
}

/// Uninstalls the thread's ambient exploration configuration on drop.
pub struct ExploreGuard {
    _private: (),
}

impl Drop for ExploreGuard {
    fn drop(&mut self) {
        EXPLORE.with(|e| *e.borrow_mut() = None);
    }
}

fn explore_scoped() -> Option<ScopedExplore> {
    EXPLORE.with(|e| e.borrow().clone())
}

/// Whether the current thread is inside a cooperative task poll.
pub(crate) fn in_coop() -> bool {
    IN_COOP.with(Cell::get)
}

/// RAII: marks the current thread as polling a cooperative task. Also
/// pins the ambient worker pool to size 1 for the duration: a
/// cooperative world hosts up to 65k ranks on one OS thread, and a
/// kernel fanning out per rank would oversubscribe the host by orders
/// of magnitude (see `smp::pool`).
struct CoopGuard {
    prev: bool,
    _pool: smp::AmbientGuard,
}

impl CoopGuard {
    fn enter() -> CoopGuard {
        CoopGuard {
            prev: IN_COOP.with(|c| c.replace(true)),
            _pool: smp::AmbientGuard::serial(),
        }
    }
}

impl Drop for CoopGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_COOP.with(|c| c.set(prev));
    }
}

/// FIFO run queue of rank ids, shared by wakers and the engine draining
/// it. The queue owns liveness: it only ever holds live (unfinished)
/// ranks, each at most once — [`push`](RunQueue::push) drops wakes for
/// finished or already-queued ranks, and [`finish`](RunQueue::finish)
/// clears the finishing rank's own entry. Push and FIFO pop are O(1); a
/// controller pick copies the ready set, so it is O(ready).
pub(crate) struct RunQueue {
    state: Mutex<QueueState>,
}

struct QueueState {
    queue: VecDeque<usize>,
    enqueued: Vec<bool>,
    finished: Vec<bool>,
}

#[cfg(test)]
thread_local! {
    /// Queue entries examined by pops, picks and finishes on this thread.
    static EXAMINED: Cell<u64> = const { Cell::new(0) };
    /// Wakes that actually enqueued a rank on this thread.
    static PUSHES: Cell<u64> = const { Cell::new(0) };
}

/// Test-only complexity accounting: adds `n` to a per-thread counter.
#[cfg(test)]
fn count(counter: &'static std::thread::LocalKey<Cell<u64>>, n: usize) {
    counter.with(|c| c.set(c.get() + n as u64));
}

impl RunQueue {
    fn new(n: usize) -> Arc<RunQueue> {
        Arc::new(RunQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(n),
                enqueued: vec![false; n],
                finished: vec![false; n],
            }),
        })
    }

    fn push(&self, rank: usize) {
        let mut st = self.state.lock();
        if !st.enqueued[rank] && !st.finished[rank] {
            st.enqueued[rank] = true;
            st.queue.push_back(rank);
            #[cfg(test)]
            count(&PUSHES, 1);
        }
    }

    /// Pops the next rank to poll: the controller's pick when one is
    /// given and there is a real choice (two or more ready ranks), the
    /// queue front otherwise.
    fn pop_controlled(&self, ctl: Option<&Arc<dyn ScheduleController>>) -> Option<usize> {
        let mut st = self.state.lock();
        let rank = match ctl {
            Some(ctl) if st.queue.len() >= 2 => {
                let ready: Vec<usize> = st.queue.iter().copied().collect();
                #[cfg(test)]
                count(&EXAMINED, ready.len());
                let pick = ctl.pick_ready(&ready);
                assert!(
                    pick < ready.len(),
                    "controller ready pick {pick} out of range (ready set of {})",
                    ready.len()
                );
                st.queue.remove(pick)
            }
            _ => {
                #[cfg(test)]
                count(&EXAMINED, 1);
                st.queue.pop_front()
            }
        }?;
        st.enqueued[rank] = false;
        Some(rank)
    }

    /// Marks `rank` finished: later wakes for it are dropped, and a wake
    /// that already queued it (a self-wake during its final poll) is
    /// cleared. Returns false if the rank had already finished.
    fn finish(&self, rank: usize) -> bool {
        let mut st = self.state.lock();
        if std::mem::replace(&mut st.finished[rank], true) {
            return false;
        }
        if std::mem::replace(&mut st.enqueued[rank], false) {
            // The self-wake was pushed during the poll that just ended,
            // so the entry sits at (or near) the back.
            let idx = st.queue.iter().rposition(|&r| r == rank);
            #[cfg(test)]
            count(&EXAMINED, st.queue.len() - idx.unwrap_or(0));
            st.queue
                .remove(idx.expect("an enqueued rank is in the queue"));
        }
        true
    }

    /// The unfinished ranks, ascending.
    fn live(&self) -> Vec<usize> {
        let st = self.state.lock();
        (0..st.finished.len())
            .filter(|&r| !st.finished[r])
            .collect()
    }
}

/// Waker of one rank task: waking pushes the rank onto the run queue.
struct TaskWaker {
    queue: Arc<RunQueue>,
    rank: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.rank);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.rank);
    }
}

/// Drives a future that must complete without yielding: the bridge that
/// lets one source of truth (the `*_async` bodies) serve the synchronous
/// API. On rank threads every receive blocks the thread and completes
/// synchronously, so the future is ready after a single poll. Inside a
/// cooperative task this would park the whole executor, so it panics
/// with a pointer at the async API instead.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    assert!(
        !in_coop(),
        "mp: blocking call inside a cooperative task; use the async (*_async) API"
    );
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(r) => r,
        Poll::Pending => unreachable!(
            "mp: future pended outside the cooperative executor; blocking receives \
             complete synchronously on rank threads"
        ),
    }
}

/// Formats the instant-stall diagnosis of an uninstrumented cooperative
/// run: which ranks are blocked and what unmatched traffic the
/// world still holds.
fn stall_message(world: &World, blocked: &[usize]) -> String {
    use std::fmt::Write;
    let mut msg = format!(
        "mp: deadlock: {} rank(s) blocked in receives with no runnable rank (ranks ",
        blocked.len()
    );
    for (i, r) in blocked.iter().take(8).enumerate() {
        if i > 0 {
            msg.push_str(", ");
        }
        let _ = write!(msg, "{r}");
    }
    if blocked.len() > 8 {
        msg.push_str(", ...");
    }
    msg.push(')');
    let lanes = world.inventory();
    if !lanes.is_empty() {
        let queued: usize = lanes.iter().map(|l| l.queued).sum();
        let _ = write!(msg, "; {queued} unmatched message(s) queued:");
        for lane in lanes {
            msg.push_str("\n  ");
            msg.push_str(&lane.to_string());
        }
    }
    msg
}

/// The cooperative executor: polls every rank task to completion on the
/// calling thread, FIFO over the shared run queue. Returns per-rank
/// results (`None` for panicked ranks) and the non-poison panics.
///
/// Uninstrumented worlds panic immediately on the first rank panic or
/// stall; instrumented worlds (world.inspector set) record panics, run
/// the remaining ranks on, and on a stall diagnose + poison-drain the
/// blocked tasks so the run log carries the deadlock.
fn execute<R, F, Fut>(world: &Arc<World>, f: &F) -> (Vec<Option<R>>, Vec<(usize, String)>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let n = world.n;
    let insp = world.inspector.clone();
    let ctl = world.controller.clone();
    let results: RefCell<Vec<Option<R>>> = RefCell::new((0..n).map(|_| None).collect());
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = ()> + '_>>>> = (0..n)
        .map(|rank| {
            let fut = f(Comm::world(Arc::clone(world), rank));
            let results = &results;
            let task: Pin<Box<dyn Future<Output = ()> + '_>> = Box::pin(async move {
                let r = fut.await;
                results.borrow_mut()[rank] = Some(r);
            });
            Some(task)
        })
        .collect();
    let queue = RunQueue::new(n);
    for rank in 0..n {
        queue.push(rank);
    }
    let wakers: Vec<Waker> = (0..n)
        .map(|rank| {
            Waker::from(Arc::new(TaskWaker {
                queue: Arc::clone(&queue),
                rank,
            }))
        })
        .collect();

    let mut remaining = n;
    let mut panics: Vec<(usize, String)> = Vec::new();
    let mut poisoned_drain = false;
    loop {
        // Controller choices are suppressed during the poison drain: the
        // drained polls only unwind, so their order is not a schedule
        // decision an explorer should enumerate.
        let step_ctl = if poisoned_drain { None } else { ctl.as_ref() };
        while let Some(rank) = queue.pop_controlled(step_ctl) {
            let task = tasks[rank]
                .as_mut()
                .expect("the run queue holds only live ranks");
            if let Some(ctl) = step_ctl {
                ctl.note_step(rank);
            }
            let mut cx = Context::from_waker(&wakers[rank]);
            let polled = {
                let _in = CoopGuard::enter();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    task.as_mut().poll(&mut cx)
                }))
            };
            match polled {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(())) => {
                    tasks[rank] = None;
                    queue.finish(rank);
                    remaining -= 1;
                    if let Some(insp) = &insp {
                        insp.finish(rank);
                    }
                }
                Err(e) => {
                    tasks[rank] = None;
                    queue.finish(rank);
                    remaining -= 1;
                    let msg = panic_message(&*e).to_string();
                    match &insp {
                        None => panic!("rank {rank} panicked: {msg}"),
                        Some(insp) => {
                            insp.finish(rank);
                            if !msg.starts_with(check::POISON_MARK) {
                                panics.push((rank, msg));
                            }
                        }
                    }
                }
            }
        }
        if remaining == 0 || poisoned_drain {
            break;
        }
        // The queue is empty with unfinished ranks: on a single-threaded
        // executor that is a definitive deadlock (wakes happen during
        // polls; none are in flight).
        let blocked = queue.live();
        match &insp {
            None => panic!("{}", stall_message(world, &blocked)),
            Some(insp) => match check::diagnose(world, insp) {
                Some(diagnosis) => {
                    insp.set_poison(diagnosis);
                    // Re-run every blocked task once: each receive future
                    // notices the poison and unwinds with the diagnosis.
                    for &r in &blocked {
                        queue.push(r);
                    }
                    poisoned_drain = true;
                }
                None => panic!("{}", stall_message(world, &blocked)),
            },
        }
    }
    drop(tasks);
    (results.into_inner(), panics)
}

/// The one way a cooperative world starts and ends: `n` rank tasks of `f`
/// on the calling thread, recording transfers if `traced`, pricing every
/// message by `net` if given, instrumented under `check`'s settings if
/// given — and then with every scheduling decision made by its controller,
/// if it names one. Returns what [`execute`] returned, and the world.
/// `entry` is the public door, for the no-session rule.
#[allow(clippy::type_complexity)]
fn launch<R, F, Fut>(
    entry: &str,
    n: usize,
    traced: bool,
    net: Option<Box<dyn VirtualNet>>,
    check: Option<(Settings, Option<Arc<dyn ScheduleController>>)>,
    f: &F,
) -> (Vec<Option<R>>, Vec<(usize, String)>, Arc<World>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session(entry);
    let (inspector, controller) = match check {
        None => (None, None),
        Some((settings, controller)) => {
            if let Some(ctl) = &controller {
                ctl.note_world(n);
            }
            let inspector = check::Inspector::new(n, settings, controller.clone());
            (Some(Arc::new(inspector)), controller)
        }
    };
    let mut world = World::new(n, traced, inspector, controller);
    if let Some(net) = net {
        world.price_with(net);
    }
    let world = Arc::new(world);
    let (results, panics) = execute(&world, f);
    (results, panics, world)
}

/// Every rank's result from an uninstrumented world, which has completed
/// on every rank or panicked inside [`execute`].
fn complete<R>(results: Vec<Option<R>>) -> Vec<R> {
    let results = results.into_iter();
    let complete = results.map(|r| r.expect("uninstrumented cooperative runs panic on failure"));
    complete.collect()
}

/// [`launch`], instrumented: the run's outcome, and its world.
fn launch_checked<R, F, Fut>(
    entry: &str,
    n: usize,
    net: Option<Box<dyn VirtualNet>>,
    check: (Settings, Option<Arc<dyn ScheduleController>>),
    f: &F,
) -> (Checked<R>, Arc<World>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let (results, panics, world) = launch(entry, n, false, net, Some(check), f);
    let checked = Checked {
        results: results.into_iter().collect(),
        panics,
        log: world.run_log(),
    };
    (checked, world)
}

/// [`launch`] as [`run_coop`] and [`run_virtual_coop`] see it: plain, or —
/// under an ambient [`ScopedExplore`] — instrumented and controlled, with
/// the log sunk before any failure propagates.
fn launch_ambient<R, F, Fut>(
    entry: &str,
    n: usize,
    net: Option<Box<dyn VirtualNet>>,
    f: &F,
) -> (Vec<R>, Arc<World>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let Some(explore) = explore_scoped() else {
        let (results, _, world) = launch(entry, n, false, net, None, f);
        return (complete(results), world);
    };
    let check = (explore.settings, Some(explore.controller));
    let (checked, world) = launch_checked(entry, n, net, check, f);
    (checked.sink_then_propagate(&*explore.sink), world)
}

/// Runs `f` as an SPMD program over `n` cooperative rank tasks on the
/// calling thread and returns per-rank results in rank order. The
/// cooperative mirror of [`crate::run`]: `f` receives an owned world
/// [`Comm`] and returns a future (write `move |comm| async move { .. }`).
/// Panics if any rank panics or the world deadlocks (detected instantly,
/// no timeout).
pub fn run_coop<R, F, Fut>(n: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    launch_ambient("run_coop", n, None, &f).0
}

/// Cooperative mirror of [`crate::run_traced`]: returns per-rank results
/// plus every point-to-point transfer in (deterministic) delivery order.
pub fn run_traced_coop<R, F, Fut>(n: usize, f: F) -> (Vec<R>, Vec<Transfer>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let (results, _, world) = launch("run_traced_coop", n, true, None, None, &f);
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank tasks completed");
    let trace = world.trace.expect("tracing was enabled");
    (complete(results), trace.into_inner())
}

/// Virtual-execution entry point (see [`crate::virt`]): runs `f` over
/// `n` rank tasks with every message priced by `net`, and returns the
/// per-rank results and final virtual clocks. Deterministic: the FIFO
/// schedule fixes the order in which messages hit the simulated resource
/// timelines, so clocks are byte-identical run to run.
pub fn run_virtual_coop<R, F, Fut>(n: usize, net: Box<dyn VirtualNet>, f: F) -> (Vec<R>, Vec<Time>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let (results, world) = launch_ambient("run_virtual_coop", n, Some(net), &f);
    (results, world.final_clocks())
}

/// Cooperative mirror of the instrumented (checked) run path: rank
/// panics are collected rather than propagated, and a deadlock is
/// diagnosed at the instant of the stall — no detector thread, no poll
/// interval — then poison-drained so the [`RunLog`] carries the cycle.
pub fn run_checked_coop<R, F, Fut>(n: usize, settings: Settings, f: F) -> Checked<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    launch_checked("run_checked_coop", n, None, (settings, None), &f).0
}

/// Like [`run_checked_coop`], but with every scheduling decision made by
/// `controller`: the direct entry point of the schedule explorer. Rank
/// panics are collected and deadlocks diagnosed into the log rather than
/// propagated.
pub fn run_controlled_coop<R, F, Fut>(
    n: usize,
    settings: Settings,
    controller: Arc<dyn ScheduleController>,
    f: F,
) -> Checked<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let check = (settings, Some(controller));
    launch_checked("run_controlled_coop", n, None, check, &f).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::schedule::P2pCost;

    #[test]
    fn coop_results_come_back_in_rank_order() {
        let out = run_coop(8, |comm| async move { comm.rank() * 10 });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn coop_ring_passes_messages() {
        let n = 5;
        let out = run_coop(n, move |comm| async move {
            let me = comm.rank();
            comm.send(&[me as u64], (me + 1) % n, 1);
            let mut buf = [0u64; 1];
            comm.recv_async(&mut buf, (me + n - 1) % n, 1).await;
            buf[0]
        });
        let expect: Vec<u64> = (0..n).map(|r| ((r + n - 1) % n) as u64).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn coop_rank_panic_propagates() {
        run_coop(4, |comm| async move {
            if comm.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "mp: deadlock: 2 rank(s) blocked")]
    fn coop_deadlock_is_detected_instantly() {
        // Both ranks receive, nobody sends: with threads this waits out
        // a 20 s timeout; the executor sees the empty run queue at once.
        run_coop(2, |comm| async move {
            let mut b = [0u8; 1];
            let from = comm.rank() ^ 1;
            comm.recv_async(&mut b, from, 1).await;
        });
    }

    #[test]
    #[should_panic(expected = "blocking call inside a cooperative task")]
    fn blocking_collective_inside_coop_is_rejected() {
        run_coop(2, |comm| async move {
            comm.barrier();
        });
    }

    #[test]
    fn traced_coop_matches_traced_threads() {
        let (r_thread, mut t_thread) = crate::runtime::run_traced(4, |comm| {
            let mut v = vec![0u64; 4];
            comm.allgather(&[comm.rank() as u64 + 7], &mut v);
            v
        });
        let (r_coop, mut t_coop) = run_traced_coop(4, |comm| async move {
            let mut v = vec![0u64; 4];
            comm.allgather_async(&[comm.rank() as u64 + 7], &mut v)
                .await;
            v
        });
        assert_eq!(r_thread, r_coop);
        // Thread delivery order is nondeterministic; compare as multisets.
        let key = |t: &Transfer| (t.src, t.dst, t.bytes);
        t_thread.sort_by_key(key);
        t_coop.sort_by_key(key);
        assert_eq!(t_thread, t_coop);
    }

    /// Fixed-cost pricing for clock tests (mirrors virt.rs).
    struct TestNet;

    impl VirtualNet for TestNet {
        fn p2p(&self, _s: usize, _d: usize, bytes: u64, ready: Time) -> P2pCost {
            let dur = Time::from_us(10.0) + Time::from_secs(bytes as f64 / 1e9);
            P2pCost {
                sender_done: ready + Time::from_us(1.0),
                arrival: ready + dur,
            }
        }
        fn compute(&self, flops: f64, eff: f64) -> Time {
            Time::from_secs(flops / (1e9 * eff))
        }
        fn stream(&self, bytes: f64) -> Time {
            Time::from_secs(bytes / 1e9)
        }
    }

    #[test]
    fn virtual_coop_ping_pong_accumulates_latency() {
        let iters = 5;
        let (_, clocks) = run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
            let me = comm.rank();
            let buf = [0u8; 0];
            for _ in 0..iters {
                if me == 0 {
                    comm.send(&buf, 1, 1);
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 1, 1).await;
                } else {
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 0, 1).await;
                    comm.send(&buf, 0, 1);
                }
            }
        });
        let expect = 2.0 * 10.0 * iters as f64;
        assert!(
            (clocks[0].as_us() - expect).abs() < 1e-6,
            "clock {} vs {expect}",
            clocks[0].as_us()
        );
    }

    /// Parity pin of the one-queue design: a run driven by the trivial
    /// [`FifoController`] must be byte-identical to the uncontrolled
    /// default — same results and same virtual clocks (clocks are
    /// schedule-order-sensitive, so equality here means the interleaving
    /// itself was identical). 256 ranks keeps hundreds of ranks ready at
    /// once on both pop paths; the controller path is O(ready) per pick
    /// by design, so no larger.
    #[test]
    fn fifo_controller_is_byte_identical_to_default() {
        const RANKS: usize = 256;
        async fn body(comm: Comm) -> Vec<f64> {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            comm.allreduce_async(&mut x, crate::reduce::Op::Sum).await;
            comm.v_sync_async().await;
            x
        }
        let (r_plain, c_plain) = run_virtual_coop(RANKS, Box::new(TestNet), body);
        let logs: Arc<Mutex<Vec<RunLog>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_logs = Arc::clone(&logs);
        let guard = install_explore(ScopedExplore {
            controller: Arc::new(FifoController),
            settings: Settings::default(),
            sink: Arc::new(move |log| sink_logs.lock().push(log)),
        });
        let (r_ctl, c_ctl) = run_virtual_coop(RANKS, Box::new(TestNet), body);
        drop(guard);
        assert_eq!(r_plain, r_ctl);
        assert_eq!(
            c_plain, c_ctl,
            "FIFO-controlled clocks must be byte-identical"
        );
        let logs = logs.lock();
        assert_eq!(
            logs.len(),
            1,
            "the controlled run hands its log to the sink"
        );
        assert!(logs[0].deadlock.is_none());
    }

    /// The run-queue invariant: only live ranks are queued. A wake for a
    /// finished rank — including a self-wake during its final poll, which
    /// is already queued when the rank finishes — is never yielded.
    #[test]
    fn run_queue_drops_stale_wakes() {
        let q = RunQueue::new(3);
        for rank in 0..3 {
            q.push(rank);
        }
        assert_eq!(q.pop_controlled(None), Some(0));
        q.push(0); // self-wake during the final poll...
        assert!(q.finish(0)); // ...which then completes
        assert!(!q.finish(0), "a second finish is a no-op");
        assert_eq!(q.pop_controlled(None), Some(1));
        q.push(0); // stale wake from a peer
        q.push(1);
        assert_eq!(q.pop_controlled(None), Some(2));
        assert_eq!(q.pop_controlled(None), Some(1));
        assert_eq!(
            q.pop_controlled(None),
            None,
            "rank 0 was never yielded again"
        );
        assert_eq!(q.live(), vec![1, 2]);
    }

    /// The same stale wake through the executor: the final poll of every
    /// rank wakes itself before returning `Ready`.
    #[test]
    fn self_wake_during_final_poll_is_harmless() {
        let out = run_coop(4, |comm| async move {
            std::future::poll_fn(|cx| {
                cx.waker().wake_by_ref();
                Poll::Ready(())
            })
            .await;
            comm.rank()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    /// Scheduling work is linear in wakes, by count rather than by
    /// wall-clock: every FIFO pop examines one entry, so a 4096-rank
    /// barrier examines at most twice as many queue entries as it pushes
    /// (the parent's per-pop liveness scan examined ~n per pop).
    #[test]
    fn barrier_examines_linear_queue_entries() {
        let (examined0, pushes0) = (EXAMINED.with(Cell::get), PUSHES.with(Cell::get));
        run_coop(4096, |comm| async move {
            comm.barrier_async().await;
        });
        let examined = EXAMINED.with(Cell::get) - examined0;
        let pushes = PUSHES.with(Cell::get) - pushes0;
        assert!(pushes >= 4096, "every rank is queued at least once");
        assert!(
            examined <= 2 * pushes,
            "{examined} queue entries examined for {pushes} pushes"
        );
    }

    /// A controller's wildcard pick really selects the matched message:
    /// picking the *newest* candidate must reverse the arrival order the
    /// default (oldest-first) discipline would have produced.
    #[test]
    fn controller_wildcard_pick_selects_the_match() {
        struct NewestWins;
        impl ScheduleController for NewestWins {
            fn pick_ready(&self, _ready: &[usize]) -> usize {
                0
            }
            fn pick_wildcard(&self, _rank: usize, candidates: &[WildcardCandidate]) -> usize {
                candidates.len() - 1
            }
        }
        let run = |ctl: Arc<dyn ScheduleController>| {
            let checked = run_controlled_coop(3, Settings::default(), ctl, |comm| async move {
                match comm.rank() {
                    0 => {
                        // Pin both senders' arrivals before the wildcard
                        // receives so two candidate lanes are queued.
                        let mut sync = [0u8; 1];
                        comm.recv_async(&mut sync, 1, 99).await;
                        comm.recv_async(&mut sync, 2, 99).await;
                        let (_, a, _) = comm.recv_any_async::<u64>(None, Some(1)).await;
                        let (_, b, _) = comm.recv_any_async::<u64>(None, Some(1)).await;
                        vec![a, b]
                    }
                    me => {
                        comm.send(&[me as u64], 0, 1);
                        comm.send(&[1u8], 0, 99);
                        Vec::new()
                    }
                }
            });
            checked.results.expect("clean program")[0].clone()
        };
        let oldest = run(Arc::new(FifoController));
        let newest = run(Arc::new(NewestWins));
        assert_eq!(oldest, vec![1, 2], "default matches in arrival order");
        assert_eq!(newest, vec![2, 1], "controller reversed the match order");
    }

    #[test]
    fn checked_coop_names_a_recv_cycle() {
        // Satellite: the deadlock detector still names the recv cycle
        // when the cycling ranks are cooperative tasks, not threads.
        let checked = run_checked_coop(2, Settings::default(), |comm| async move {
            let mut b = [0u8; 1];
            let from = comm.rank() ^ 1;
            comm.recv_async(&mut b, from, 1).await;
        });
        assert!(checked.results.is_none());
        let deadlock = checked.log.deadlock.expect("stall must be diagnosed");
        let cycle = deadlock.cycle.as_ref().expect("a 0 -> 1 -> 0 recv cycle");
        assert_eq!(cycle.len(), 2, "cycle: {cycle:?}");
        assert!(checked.panics.is_empty(), "poison unwinds are not panics");
    }

    #[test]
    fn coop_barrier_at_4096_ranks() {
        // High-rank smoke: ~4096 * 12 messages, one thread, no spawns.
        run_coop(4096, |comm| async move {
            comm.barrier_async().await;
        });
    }

    #[test]
    #[ignore = "release-scale: 65536 ranks, ~1M messages; run with --ignored --release"]
    fn coop_barrier_at_65536_ranks() {
        run_coop(65536, |comm| async move {
            comm.barrier_async().await;
        });
    }
}

//! Cooperative rank scheduler: ranks as resumable tasks, not OS threads.
//!
//! Host limits (pid_max, vm.max_map_count, per-thread stacks) cap the
//! thread-per-rank runtime at a few thousand ranks; the paper-scale
//! virtual sweeps need 16k–100k. The **cooperative engine**
//! ([`Engine::Coop`]: [`run_coop`], [`run_virtual_coop`], and the traced
//! and checked doors given that engine) hosts the whole world on the
//! caller's thread: each rank body is an `async` future, and every
//! blocking receive — the
//! mailbox's one wait, which a rank thread's [`block_on`](crate::block_on)
//! polls too — is a yield point, so a 100k-rank virtual run is just 100k
//! boxed futures. Ranks are polled off one deterministic FIFO run queue;
//! the `simnet` first-fit reservation timelines are order-dependent under
//! contention, so schedule determinism is what buys byte-identical
//! virtual clocks run to run. It is the only engine virtual worlds run on.
//!
//! This module is the engine alone: [`execute`] polls a built world's
//! ranks and hands back their outcomes, exactly what the thread engine
//! hands back. Building the world — priced? instrumented? controlled? —
//! reading the ambient hook ([`check::install_scoped`]) and folding the
//! outcomes into a result happen once for both engines, on the launch path
//! in `runtime`.
//!
//! Task states (see DESIGN.md "Cooperative scheduler"): *queued* (rank id
//! in the run queue), *running* (being polled), *blocked* (pending on a
//! receive, waker left in its posted receive), *finished*. A blocked rank
//! is woken by the sender that fills its posted receive; wakes push the
//! rank id back onto the FIFO queue. Deadlock detection is *instant*
//! — an empty queue with unfinished ranks is definitive, no wall-clock
//! timeout needed — and reads the same wait edges as the thread engine's
//! count: the executor calls [`check::diagnose`] at the stall and poisons
//! the world, whose wakers queue the blocked tasks to unwind with the
//! cycle diagnosis.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;
use simnet::{Time, Transfer};

use crate::check::{self, Event};
use crate::comm::Comm;
use crate::runtime::{launch, panic_message, Engine, Outcomes, World};
use crate::virt::VirtualNet;

thread_local! {
    /// True while this thread is polling a cooperative task.
    static IN_COOP: Cell<bool> = const { Cell::new(false) };
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
    #[cfg(test)]
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

/// The cooperative engine: polls every rank task to completion on the
/// calling thread, FIFO over the shared run queue. Returns per-rank
/// results (`None` for panicked ranks) and the caught panics.
///
/// A rank panic is recorded and the remaining ranks run on until they
/// finish or stall, as rank threads do, so the fold names the cause by
/// rank whichever engine ran the world. On a stall the world is diagnosed
/// and poisoned, and the poison's wakes drain the blocked tasks.
pub(crate) fn execute<R, F, Fut>(world: &Arc<World>, f: &F) -> Outcomes<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let n = world.n;
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
            let panicked = match polled {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(())) => None,
                Err(e) => Some(panic_message(&*e).to_string()),
            };
            tasks[rank] = None;
            queue.finish(rank);
            remaining -= 1;
            if let Some(msg) = panicked {
                panics.push((rank, msg));
            }
        }
        if remaining == 0 || poisoned_drain {
            break;
        }
        // The queue is empty with unfinished ranks: on a single-threaded
        // executor that is a definitive deadlock (wakes happen during
        // polls; none are in flight). The poison wakes every blocked task,
        // in rank order; each receive future unwinds with the diagnosis.
        world.poison(check::diagnose(world));
        poisoned_drain = true;
    }
    drop(tasks);
    (results.into_inner(), panics)
}

/// Runs `f` as an SPMD program over `n` cooperative rank tasks on the
/// calling thread and returns per-rank results in rank order. The
/// cooperative mirror of [`crate::run`]: `f` receives an owned world
/// [`Comm`] and returns a future (write `move |comm| async move { .. }`).
/// Panics if any rank panics or the world deadlocks (detected instantly,
/// no timeout), naming the cause as [`crate::run`] does.
pub fn run_coop<R, F, Fut>(n: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    launch(n, Engine::Coop, None, |world| execute(world, &f)).0
}

/// [`crate::run_traced`] on the cooperative engine.
pub fn run_traced_coop<R, F, Fut>(n: usize, f: F) -> (Vec<R>, Vec<Transfer>)
where
    R: Send,
    F: Fn(Comm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    crate::run_traced(n, Engine::Coop, f)
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
    let (results, world) = launch(n, Engine::Coop, Some(net), |world| execute(world, &f));
    (results, world.final_clocks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Settings;
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
    #[should_panic(expected = "wait-for cycle: 0 -> 1 -> 0")]
    fn coop_deadlock_is_detected_instantly() {
        // Both ranks receive, nobody sends: the executor sees the empty
        // run queue at once, as a thread world sees its count reach zero.
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
        let ((r_ctl, c_ctl), logs) = controlled(Arc::new(FifoController), || {
            run_virtual_coop(RANKS, Box::new(TestNet), body)
        });
        assert_eq!(r_plain, r_ctl);
        assert_eq!(
            c_plain, c_ctl,
            "FIFO-controlled clocks must be byte-identical"
        );
        assert_eq!(
            logs.len(),
            1,
            "the controlled run hands its log to the sink"
        );
        assert!(logs[0].deadlock.is_none());
    }

    /// Runs `f` under the ambient hook with `controller` deciding every
    /// cooperative world it starts; returns what `f` returned and the
    /// worlds' logs.
    fn controlled<T>(
        controller: Arc<dyn ScheduleController>,
        f: impl FnOnce() -> T,
    ) -> (T, Vec<check::RunLog>) {
        let logs = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&logs);
        let guard = check::install_scoped(check::ScopedCheck {
            settings: Settings::default(),
            controller: Some(controller),
            sink: Arc::new(move |log| sink.lock().push(log)),
        });
        let out = f();
        drop(guard);
        let logs = std::mem::take(&mut *logs.lock());
        (out, logs)
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
            let program = |comm: Comm| async move {
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
            };
            controlled(ctl, || run_coop(3, program)).0[0].clone()
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
        let checked = check::run_checked(2, Engine::Coop, Settings::default(), |comm| async move {
            let mut b = [0u8; 1];
            let from = comm.rank() ^ 1;
            comm.recv_async(&mut b, from, 1).await;
        });
        assert!(checked.results.is_none());
        let deadlock = checked.log.deadlock.expect("stall must be diagnosed");
        let cycle = deadlock.cycle.as_ref().expect("a 0 -> 1 -> 0 recv cycle");
        assert_eq!(cycle.len(), 2, "cycle: {cycle:?}");
        assert!(
            checked.log.panics.is_empty(),
            "poison unwinds are not panics"
        );
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

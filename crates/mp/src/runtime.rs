//! The SPMD runtime: one OS thread per rank, in-process message delivery.
//!
//! `mp::run(n, f)` is the moral equivalent of `mpirun -np n`: it spawns `n`
//! rank threads, hands each a world [`Comm`](crate::comm::Comm), runs `f`
//! to completion on every rank and returns the per-rank results in rank
//! order. Message delivery is eager (a send copies the payload into the
//! destination mailbox and completes immediately), mirroring MPI's eager
//! protocol for the message sizes the benchmarks use; this also makes
//! `sendrecv`-style exchange patterns trivially deadlock-free.
//!
//! Rank threads are spawned through [`std::thread::Builder`] with a
//! bounded per-rank stack (`MP_RANK_STACK_BYTES`, default 2 MiB), and a
//! failed spawn tears the world down with a clear "cannot spawn rank r of
//! n" panic instead of aborting the process. Rank counts beyond what one
//! host can thread, and every virtual world (sweeps at 16k–100k ranks),
//! run on the cooperative scheduler in [`crate::coop`] instead.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use simnet::Transfer;

use simnet::Time;

use crate::check::{self, Inspector, LaneInfo, RunLog};
use crate::comm::Comm;
use crate::mailbox::{Mailbox, SPIN_BUDGET};
use crate::msg::Message;
use crate::virt::{Clock, VirtualNet};

/// Default per-rank thread stack: far below the 8 MiB thread default —
/// rank bodies here are benchmark kernels, not deep recursions — so a
/// native world of a few thousand ranks does not exhaust address space.
const DEFAULT_RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

#[cfg(test)]
thread_local! {
    /// Test-only override of the rank stack size, thread-local so a spawn
    /// failure can be provoked without an env var racing parallel tests
    /// (spawning happens on the calling thread, which owns this cell).
    static STACK_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Per-rank stack size for spawned rank threads, overridable via the
/// `MP_RANK_STACK_BYTES` environment variable (read per run, not cached,
/// for the same reason as `MP_DEADLOCK_TIMEOUT_SECS`). Unparsable values
/// fall back to the default.
fn rank_stack_bytes() -> usize {
    #[cfg(test)]
    if let Some(s) = STACK_OVERRIDE.with(std::cell::Cell::get) {
        return s;
    }
    std::env::var("MP_RANK_STACK_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RANK_STACK_BYTES)
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
    panic!(
        "mp: cannot spawn rank {rank} of {n}: {err} \
         (per-rank stack {stack} bytes; tune MP_RANK_STACK_BYTES)"
    );
}

/// Whether a blocked receive in a world of `ranks` ranks on this host
/// spins on its mailbox's wake word before it parks: exactly when every
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

/// Shared state of a running SPMD world.
pub(crate) struct World {
    pub n: usize,
    pub mailboxes: Vec<Mailbox>,
    /// World group (identity mapping), shared by every rank's world
    /// [`Comm`]: built once here instead of per rank, which at 65536
    /// ranks is the difference between one 512 KiB table and an O(n²)
    /// allocation storm.
    pub world_group: Arc<Vec<usize>>,
    /// When tracing, every point-to-point payload is recorded here as a
    /// (global src, global dst, bytes) transfer.
    pub trace: Option<Mutex<Vec<Transfer>>>,
    /// Collective object rendezvous (used by RMA window creation):
    /// key -> (shared object, fetches remaining before cleanup).
    #[allow(clippy::type_complexity)]
    pub rendezvous: Mutex<HashMap<u64, (Arc<dyn Any + Send + Sync>, usize)>>,
    pub rendezvous_cv: Condvar,
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
    pub controller: Option<Arc<dyn crate::coop::ScheduleController>>,
    /// Multi-process session handle: present when this world is one epoch
    /// of a cross-process world, consulted by [`World::deliver`] to route
    /// messages for ranks hosted by other processes over the transport.
    pub remote: Option<crate::transport::RemoteWorld>,
}

impl World {
    pub(crate) fn new(
        n: usize,
        traced: bool,
        inspector: Option<Arc<Inspector>>,
        controller: Option<Arc<dyn crate::coop::ScheduleController>>,
    ) -> World {
        let world_group: Arc<Vec<usize>> = Arc::new((0..n).collect());
        // Decided once per world (see `receives_spin`).
        let spin_budget = if receives_spin(n) {
            SPIN_BUDGET
        } else {
            Duration::ZERO
        };
        World {
            n,
            mailboxes: (0..n)
                .map(|rank| {
                    Mailbox::with_instrumentation(
                        rank,
                        inspector.clone(),
                        controller.clone(),
                        spin_budget,
                    )
                })
                .collect(),
            world_group,
            trace: traced.then(|| Mutex::new(Vec::new())),
            rendezvous: Mutex::new(HashMap::new()),
            rendezvous_cv: Condvar::new(),
            virtual_net: None,
            virtual_clocks: Vec::new(),
            virtual_priced: AtomicUsize::new(0),
            inspector,
            controller,
            remote: None,
        }
    }

    /// Switches the world to virtual execution: every message is priced
    /// by `net` against per-rank clocks starting at zero.
    pub(crate) fn price_with(&mut self, net: Box<dyn VirtualNet>) {
        self.virtual_net = Some(net);
        self.virtual_clocks = (0..self.n).map(|_| Clock::default()).collect();
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
    /// unmatched traffic left in its mailboxes and, if it stalled, the
    /// deadlock diagnosis.
    pub(crate) fn run_log(&self) -> RunLog {
        let inspector = self.inspector.as_ref().expect("an instrumented world");
        let (events, dropped) = inspector.drain_events();
        RunLog {
            n: self.n,
            events,
            dropped,
            leftover: self.inventory(),
            deadlock: inspector.poisoned(),
        }
    }

    /// Every queued, unmatched message lane of the world's mailboxes.
    pub(crate) fn inventory(&self) -> Vec<LaneInfo> {
        self.mailboxes.iter().flat_map(Mailbox::inventory).collect()
    }

    /// How often this world's rank threads have watched a wake word and
    /// how often they have parked, summed over its mailboxes:
    /// `(spun, parked_waits)`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn wait_counts(&self) -> (u64, u64) {
        self.mailboxes
            .iter()
            .map(Mailbox::wait_counts)
            .fold((0, 0), |(s, p), (spun, parked)| (s + spun, p + parked))
    }

    /// The per-rank virtual clocks, read once every rank has finished.
    pub(crate) fn final_clocks(&self) -> Vec<Time> {
        self.virtual_clocks.iter().map(Clock::get).collect()
    }

    /// Delivers `msg` to global rank `dst`, recording it if tracing.
    /// Under a multi-process session, a message for a rank hosted by
    /// another process is framed and sent over the transport instead of
    /// pushed into a local mailbox — the one point where residency is
    /// decided, so everything above (collectives, rendezvous fallback,
    /// instrumentation) is transport-agnostic by construction.
    pub fn deliver(&self, dst: usize, msg: Message) {
        if let Some(remote) = &self.remote {
            if !remote.resident(dst) {
                remote.send_data(dst, &msg);
                return;
            }
        }
        if let Some(trace) = &self.trace {
            trace.lock().push(Transfer {
                src: msg.src,
                dst,
                bytes: msg.data.len() as u64,
            });
        }
        self.mailboxes[dst].push(msg);
    }

    /// Rendezvous attempt for a large typed send: if rank `dst` has a
    /// matching posted receive with a right-sized buffer, encode `words`
    /// directly into it and complete the transfer (one copy end to end).
    /// Returns false — and performs nothing — when no such receive is
    /// posted; the caller falls back to the eager path.
    pub fn rendezvous_words<T: crate::datatype::Word>(
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
        if let Some(trace) = &self.trace {
            trace.lock().push(Transfer {
                src,
                dst,
                bytes: (words.len() * T::SIZE) as u64,
            });
        }
        true
    }
}

/// Runs `f` as an SPMD program over `n` ranks and returns the per-rank
/// results in rank order.
///
/// Panics if any rank panics (the panic is propagated with its message).
///
/// Under a multi-process session
/// ([`transport::init_from_env`](crate::transport::init_from_env) found a
/// backend), `n` must equal the launcher-fixed world size, the ranks
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
///     comm.allreduce(&mut x, mp::Op::Sum);
///     x[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub fn run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    // A multi-process session reroutes delivery through its transport;
    // it takes precedence over scoped checking (the session runs its own
    // cross-process detector).
    if let Some(sess) = crate::transport::session() {
        return crate::transport::run_multiproc(&sess, n, f);
    }
    // An ambient check configuration (installed on *this* thread via
    // `check::install_scoped`) reroutes the run through the instrumented
    // path: deadlocks are diagnosed, the run log goes to the sink, and
    // rank panics still propagate like the plain path's.
    if let Some(scoped) = check::scoped() {
        let checked = check::run_checked(n, scoped.settings.clone(), &f);
        return checked.sink_then_propagate(&*scoped.sink);
    }
    run_inner(n, false, f).0
}

/// Like [`run`], but records every point-to-point message. Returns the
/// per-rank results and the trace as a list of (src, dst, bytes) transfers
/// in delivery order. Used to cross-validate the real collective
/// implementations against their schedule generators.
pub fn run_traced<R, F>(n: usize, f: F) -> (Vec<R>, Vec<Transfer>)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    crate::transport::assert_no_session("run_traced");
    let (results, trace) = run_inner(n, true, f);
    (results, trace.expect("tracing was enabled"))
}

fn run_inner<R, F>(n: usize, traced: bool, f: F) -> (Vec<R>, Option<Vec<Transfer>>)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    let world = Arc::new(World::new(n, traced, None, None));
    let results = spawn_rank_threads(&world, &world.world_group, |_, comm| f(comm));
    let trace = Arc::try_unwrap(world)
        .ok()
        .expect("all rank threads joined")
        .trace
        .map(Mutex::into_inner);
    (results, trace)
}

/// The one place a rank thread is spawned: one per entry of `ranks`
/// against `world` (whose size may exceed `ranks.len()` — the
/// multi-process runtime hosts only the resident subset of a larger
/// world), joined, results in `ranks` order. The *full* world size sizes
/// each rank's SMP worker share (hybrid SMP: a native rank's kernels may
/// fan out over an even share of the host's cores) exactly as a
/// single-process run of that world would — a parity requirement, not a
/// nicety: the `threads` field of emitted records must not depend on how
/// ranks were packed into processes.
pub(crate) fn spawn_rank_threads<R, F>(world: &Arc<World>, ranks: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &Comm) -> R + Send + Sync,
{
    let (f, n) = (&f, world.n);
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
                    let comm = Comm::world(world, rank);
                    Some(f(rank, &comm))
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
        gate.open();
        handles
            .into_iter()
            .zip(ranks)
            .map(|(h, &rank)| match h.join() {
                Ok(Some(r)) => r,
                Ok(None) => unreachable!("the gate opened, so every spawn succeeded"),
                Err(e) => panic!("rank {rank} panicked: {}", panic_message(&*e)),
            })
            .collect()
    })
}

/// [`spawn_rank_threads`] for an instrumented world: every rank body runs
/// under `catch_unwind` and reports to the inspector that it finished, so
/// a stall detector sees a dead rank as done rather than runnable.
pub(crate) fn spawn_caught_ranks<R, F>(
    world: &Arc<World>,
    ranks: &[usize],
    f: &F,
) -> Vec<std::thread::Result<R>>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let inspector = world.inspector.as_ref().expect("an instrumented world");
    spawn_rank_threads(world, ranks, |rank, comm| {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
        inspector.finish(rank);
        out
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    #[test]
    fn traced_run_records_messages() {
        let (_, trace) = run_traced(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64, 2.0], 1, 7);
            } else {
                let mut buf = [0.0f64; 2];
                comm.recv(&mut buf, 0, 7);
            }
        });
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace[0],
            Transfer {
                src: 0,
                dst: 1,
                bytes: 16
            }
        );
    }

    /// `rounds` 8-byte ping-pongs between ranks 0 and 1 of a fresh world
    /// of `n` ranks (the rest finish at once), run the way `run` runs
    /// them; returns the world's `(spun, parked_waits)`.
    fn ping_pong_wait_counts(n: usize, rounds: u64) -> (u64, u64) {
        let world = Arc::new(World::new(n, false, None, None));
        spawn_rank_threads(&world, &world.world_group, |rank, comm| {
            let mut buf = [0u64];
            for i in 0..rounds {
                match rank {
                    0 => {
                        comm.send(&[i], 1, 3);
                        comm.recv(&mut buf, 1, 3);
                        assert_eq!(buf[0], i);
                    }
                    1 => {
                        comm.recv(&mut buf, 0, 3);
                        comm.send(&buf, 0, 3);
                    }
                    _ => return,
                }
            }
        });
        world.wait_counts()
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
    /// behind the start gate), not leave a stall detector polling — through
    /// every thread launcher: each leg panics *and returns*, so whatever
    /// the launcher started has been joined. (The session launcher's leg
    /// is `transport::tests::spawn_failure_ends_the_epoch`.)
    #[test]
    fn spawn_failure_names_the_rank() {
        use check::{run_checked, Settings};
        let launchers: [(&str, fn()); 3] = [
            ("run", || drop(run(4, Comm::rank))),
            ("run_traced", || drop(run_traced(4, Comm::rank))),
            ("run_checked", || {
                drop(run_checked(4, Settings::default(), Comm::rank))
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

//! Runtime verification instrumentation: the substrate the `mpcheck`
//! crate's analyses are built on.
//!
//! When a run is *instrumented* (via [`run_checked`] or a scoped install,
//! see [`ScopedCheck`]), the runtime attaches an [`Inspector`] to the
//! world:
//!
//! - every blocking point (mailbox receives, rendezvous posts — and
//!   through them every collective phase) registers a *wait edge* in a
//!   shared per-rank registry before parking, so a detector thread can
//!   run wait-for-graph cycle detection while the program is live and
//!   convert a silent hang into a [`Deadlock`] diagnosis naming the
//!   actual cycle, call sites and pending-message inventory;
//! - every send, receive and collective call is appended to a cheap
//!   per-rank ring buffer of [`Event`]s, which the post-run lint pass in
//!   `mpcheck` scans for MPI-misuse classes (unmatched sends, collective
//!   divergence, tag leaks, wildcard races);
//!
//! Those are the two analyses. Seeing a *second* schedule is not done
//! here: the cooperative engine turns every scheduling choice into a
//! decision a [`ScheduleController`](crate::coop::ScheduleController)
//! makes, and the `mpcheck` explorer enumerates those decisions.
//!
//! The uninstrumented fast path pays one `Option` check per operation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::runtime::{panic_message, spawn_caught_ranks, World};

/// Configuration of one instrumented run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Capacity of each rank's event ring buffer; older events are
    /// dropped (and counted) past this.
    pub ring_capacity: usize,
    /// Detector thread polling interval.
    pub poll: Duration,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            ring_capacity: 1 << 16,
            poll: Duration::from_millis(10),
        }
    }
}

/// One recorded communication event. Ranks, communicator ids and tags are
/// *global* (world ranks, packed communicator ids), so events from
/// different ranks of one communicator compare directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A point-to-point payload left this rank.
    Send {
        /// Destination world rank.
        dst: usize,
        /// Communicator id.
        comm: u32,
        /// In-communicator tag.
        tag: u32,
        /// Encoded payload size.
        bytes: usize,
    },
    /// A receive matched on this rank (recorded at match time).
    Recv {
        /// Source world rank of the matched message.
        src: usize,
        /// Communicator id.
        comm: u32,
        /// In-communicator tag of the matched message.
        tag: u32,
        /// Encoded payload size.
        bytes: usize,
        /// Whether the receive's filter was a wildcard (source and/or
        /// tag unpinned).
        wildcard: bool,
        /// Number of distinct queued lanes that matched the filter at
        /// match time. A wildcard receive with `candidates >= 2` chose
        /// by arrival order — a race.
        candidates: u32,
    },
    /// A collective call entered on this rank.
    CollBegin {
        /// Communicator id.
        comm: u32,
        /// Per-communicator collective call index on this rank.
        index: u32,
        /// Operation name ("bcast", "allreduce", ...).
        op: &'static str,
        /// Root argument, if the operation has one.
        root: Option<usize>,
        /// Per-rank payload shape in bytes for operations whose shape
        /// must agree across ranks; `None` for vector variants.
        shape: Option<u64>,
    },
    /// The matching collective call returned.
    CollEnd {
        /// Communicator id.
        comm: u32,
        /// Per-communicator collective call index on this rank.
        index: u32,
    },
}

/// What a blocked rank is waiting on.
#[derive(Clone, Debug)]
pub enum WaitOn {
    /// Blocked in a receive: `(source, comm, tag)`, wildcards as `None`.
    Recv {
        /// Communicator id the receive is posted on.
        comm: u32,
        /// Expected source world rank (`None` = any source).
        src: Option<usize>,
        /// Expected tag (`None` = any tag).
        tag: Option<u32>,
    },
    /// Blocked in a collective-object rendezvous (RMA window creation)
    /// waiting for the keyed object to be published.
    Rendezvous {
        /// Rendezvous key (packed communicator id + sequence).
        key: u64,
    },
}

impl std::fmt::Display for WaitOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitOn::Recv { comm, src, tag } => {
                let src = src.map_or("any".into(), |s| s.to_string());
                let tag = tag.map_or("any".into(), |t| format!("{t:#x}"));
                write!(f, "receive (src {src}, comm {comm:#x}, tag {tag})")
            }
            WaitOn::Rendezvous { key } => write!(f, "rendezvous (key {key:#x})"),
        }
    }
}

/// The collective call a rank is currently inside (for wait annotation).
#[derive(Clone, Copy, Debug)]
pub struct CollSite {
    /// Operation name.
    pub op: &'static str,
    /// Communicator id.
    pub comm: u32,
    /// Per-communicator collective call index on this rank.
    pub index: u32,
}

impl std::fmt::Display for CollSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} #{} on comm {:#x}", self.op, self.index, self.comm)
    }
}

/// A blocked rank in a [`Deadlock`] diagnosis.
#[derive(Clone, Debug)]
pub struct WaitSnapshot {
    /// The blocked world rank.
    pub rank: usize,
    /// What it is waiting on.
    pub on: WaitOn,
    /// The collective call it is inside, if any.
    pub coll: Option<CollSite>,
}

/// One queued-but-unmatched message lane in a mailbox (used both in
/// deadlock diagnoses and in the finalize leftover inventory).
#[derive(Clone, Debug)]
pub struct LaneInfo {
    /// Receiving world rank (the mailbox owner).
    pub dst: usize,
    /// Sending world rank.
    pub src: usize,
    /// Communicator id.
    pub comm: u32,
    /// In-communicator tag.
    pub tag: u32,
    /// Messages queued in the lane.
    pub queued: usize,
    /// Total payload bytes queued in the lane.
    pub bytes: usize,
}

impl std::fmt::Display for LaneInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "-> rank {}: from {} (comm {:#x}, tag {:#x}): {} message(s), {} byte(s)",
            self.dst, self.src, self.comm, self.tag, self.queued, self.bytes
        )
    }
}

/// A deadlock diagnosis: the wait-for cycle (when one exists among
/// pinned-source receive edges), every blocked rank's wait, and the
/// pending-message inventory per mailbox lane.
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// Ranks forming a wait-for cycle, in cycle order; `None` when the
    /// stall has no pinned-source cycle (e.g. wildcard waits).
    pub cycle: Option<Vec<usize>>,
    /// Every blocked rank and what it waits on.
    pub waits: Vec<WaitSnapshot>,
    /// Queued unmatched messages across all mailboxes.
    pub inventory: Vec<LaneInfo>,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cycle {
            Some(cycle) => {
                let mut path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
                path.push(cycle[0].to_string());
                writeln!(f, "wait-for cycle: {}", path.join(" -> "))?;
            }
            None => writeln!(
                f,
                "global stall: {} rank(s) blocked, no sender can run",
                self.waits.len()
            )?,
        }
        for w in &self.waits {
            write!(f, "  rank {}: blocked in {}", w.rank, w.on)?;
            match &w.coll {
                Some(site) => writeln!(f, " inside {site}")?,
                None => writeln!(f)?,
            }
        }
        if self.inventory.is_empty() {
            writeln!(f, "pending messages: none")?;
        } else {
            writeln!(f, "pending messages:")?;
            for lane in &self.inventory {
                writeln!(f, "  {lane}")?;
            }
        }
        Ok(())
    }
}

/// Marker prefix of poison-panic messages, so callers can distinguish a
/// detector-initiated unwind from an ordinary rank panic.
pub const POISON_MARK: &str = "mp: deadlock detected\n";

/// Everything an instrumented run recorded, handed to the analysis layer.
pub struct RunLog {
    /// World size.
    pub n: usize,
    /// Per-rank event logs, in per-rank program order.
    pub events: Vec<Vec<Event>>,
    /// Per-rank count of events dropped to ring-buffer overflow.
    pub dropped: Vec<u64>,
    /// Messages still queued (unmatched) at finalize.
    pub leftover: Vec<LaneInfo>,
    /// The deadlock diagnosis, if the detector fired.
    pub deadlock: Option<Arc<Deadlock>>,
}

/// Outcome of [`run_checked`].
pub struct Checked<R> {
    /// Per-rank results, present only when every rank completed normally.
    pub results: Option<Vec<R>>,
    /// Ranks that panicked for reasons other than deadlock poisoning,
    /// with their panic messages.
    pub panics: Vec<(usize, String)>,
    /// The recorded run log.
    pub log: RunLog,
}

impl<R> Checked<R> {
    /// Folds the caught outcomes of `ranks`' threads (in that order) and
    /// the world's log into a run's outcome.
    pub(crate) fn from_outcomes(
        ranks: &[usize],
        outcomes: Vec<std::thread::Result<R>>,
        log: RunLog,
    ) -> Checked<R> {
        let mut results = Vec::with_capacity(ranks.len());
        let mut panics = Vec::new();
        for (&rank, out) in ranks.iter().zip(outcomes) {
            match out {
                Ok(r) => results.push(r),
                Err(e) => {
                    let msg = panic_message(&*e);
                    // Poison unwinds are the detector's doing, not the
                    // program's; the deadlock diagnosis already carries them.
                    if !msg.starts_with(POISON_MARK) {
                        panics.push((rank, msg.to_string()));
                    }
                }
            }
        }
        Checked {
            results: (results.len() == ranks.len()).then_some(results),
            panics,
            log,
        }
    }

    /// Ends a checked run that stands in for an unchecked one (under
    /// [`install_scoped`], `install_explore` or a session) the way that one
    /// would have ended: the log reaches `sink` first — the observer sees
    /// failing runs too — then a deadlock propagates as a panic carrying
    /// the diagnosis, then the first rank panic; a clean run returns.
    pub(crate) fn sink_then_propagate(self, sink: &dyn Fn(RunLog)) -> Vec<R> {
        let deadlock = self.log.deadlock.clone();
        sink(self.log);
        if let Some(d) = deadlock {
            panic!("{POISON_MARK}{d}");
        }
        if let Some((rank, msg)) = self.panics.first() {
            panic!("rank {rank} panicked: {msg}");
        }
        self.results
            .expect("no deadlock, no panics, so every rank completed")
    }
}

// ---------------------------------------------------------------------
// Inspector
// ---------------------------------------------------------------------

struct Wait {
    on: WaitOn,
    /// Ticket id of the posted receive a blocked receive waits on; the
    /// detector probes it to rule out a wake already in flight.
    ticket: Option<u64>,
}

#[derive(Default)]
struct RankState {
    waiting: Option<Wait>,
    coll: Option<CollSite>,
    /// Per-communicator collective call counter.
    coll_index: HashMap<u32, u32>,
    /// Collective nesting depth (only the outermost call is recorded).
    coll_depth: u32,
    finished: bool,
}

struct EventRing {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    fn push(&mut self, e: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }
}

/// The shared instrumentation registry of one instrumented world: wait
/// states, event rings and the poison flag.
pub struct Inspector {
    settings: Settings,
    ranks: Vec<Mutex<RankState>>,
    events: Vec<Mutex<EventRing>>,
    /// Bumped on every wait transition; the detector requires it stable
    /// across polls before diagnosing.
    activity: AtomicU64,
    poisoned: AtomicBool,
    poison: Mutex<Option<Arc<Deadlock>>>,
    /// A schedule controller observing every recorded event (controlled
    /// cooperative runs); `None` on plain checked runs.
    observer: Option<Arc<dyn crate::coop::ScheduleController>>,
}

impl Inspector {
    pub(crate) fn new(
        n: usize,
        settings: Settings,
        observer: Option<Arc<dyn crate::coop::ScheduleController>>,
    ) -> Inspector {
        Inspector {
            ranks: (0..n).map(|_| Mutex::new(RankState::default())).collect(),
            events: (0..n)
                .map(|_| {
                    Mutex::new(EventRing {
                        buf: VecDeque::new(),
                        cap: settings.ring_capacity.max(16),
                        dropped: 0,
                    })
                })
                .collect(),
            settings,
            activity: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            poison: Mutex::new(None),
            observer,
        }
    }

    pub(crate) fn record(&self, rank: usize, event: Event) {
        if let Some(obs) = &self.observer {
            obs.note_event(rank, &event);
        }
        self.events[rank].lock().push(event);
    }

    pub(crate) fn begin_wait(&self, rank: usize, on: WaitOn, ticket: Option<u64>) {
        let mut st = self.ranks[rank].lock();
        st.waiting = Some(Wait { on, ticket });
        drop(st);
        self.activity.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn end_wait(&self, rank: usize) {
        self.ranks[rank].lock().waiting = None;
        self.activity.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn finish(&self, rank: usize) {
        self.ranks[rank].lock().finished = true;
        self.activity.fetch_add(1, Ordering::Release);
    }

    /// Enters a collective call; returns the recorded site for the
    /// outermost call on this rank, `None` when nested inside another.
    pub(crate) fn coll_begin(
        &self,
        rank: usize,
        comm: u32,
        op: &'static str,
        root: Option<usize>,
        shape: Option<u64>,
    ) -> Option<CollSite> {
        let mut st = self.ranks[rank].lock();
        st.coll_depth += 1;
        if st.coll_depth > 1 {
            return None;
        }
        let counter = st.coll_index.entry(comm).or_insert(0);
        let index = *counter;
        *counter += 1;
        let site = CollSite { op, comm, index };
        st.coll = Some(site);
        drop(st);
        self.record(
            rank,
            Event::CollBegin {
                comm,
                index,
                op,
                root,
                shape,
            },
        );
        Some(site)
    }

    pub(crate) fn coll_end(&self, rank: usize, site: Option<CollSite>) {
        let mut st = self.ranks[rank].lock();
        st.coll_depth -= 1;
        if let Some(site) = site {
            st.coll = None;
            drop(st);
            self.record(
                rank,
                Event::CollEnd {
                    comm: site.comm,
                    index: site.index,
                },
            );
        }
    }

    /// Parks the calling thread for one detector poll interval: the one
    /// sleep of this module, behind every [`Detector`], so that wall-clock
    /// sleeps stay confined to it, the process transports and the harness
    /// (enforced by `ci/arch_lint.sh`).
    pub(crate) fn poll_sleep(&self) {
        std::thread::sleep(self.settings.poll);
    }

    pub(crate) fn poisoned(&self) -> Option<Arc<Deadlock>> {
        if !self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        self.poison.lock().clone()
    }

    pub(crate) fn set_poison(&self, d: Arc<Deadlock>) {
        *self.poison.lock() = Some(d);
        self.poisoned.store(true, Ordering::Release);
    }

    pub(crate) fn activity(&self) -> u64 {
        self.activity.load(Ordering::Acquire)
    }

    /// Drains the per-rank event rings (call after all ranks joined).
    pub(crate) fn drain_events(&self) -> (Vec<Vec<Event>>, Vec<u64>) {
        let mut events = Vec::with_capacity(self.events.len());
        let mut dropped = Vec::with_capacity(self.events.len());
        for ring in &self.events {
            let mut ring = ring.lock();
            events.push(std::mem::take(&mut ring.buf).into_iter().collect());
            dropped.push(ring.dropped);
        }
        (events, dropped)
    }
}

// ---------------------------------------------------------------------
// Detector
// ---------------------------------------------------------------------

impl Deadlock {
    /// The one assembly of a diagnosis from raw wait edges and pending
    /// lanes, whoever collected them (one process or a fleet): orders both
    /// by rank, and names the cycle among pinned-source receives if there
    /// is one. Each blocked rank has at most one such successor, so the
    /// wait-for graph is functional and a coloured walk finds the cycle.
    pub(crate) fn from_waits(
        world_size: usize,
        mut waits: Vec<WaitSnapshot>,
        mut inventory: Vec<LaneInfo>,
    ) -> Deadlock {
        waits.sort_by_key(|w| w.rank);
        inventory.sort_by_key(|l| (l.dst, l.src));
        let mut succ: Vec<Option<usize>> = vec![None; world_size];
        for w in &waits {
            if let WaitOn::Recv { src: Some(s), .. } = w.on {
                succ[w.rank] = Some(s);
            }
        }
        Deadlock {
            cycle: find_cycle(&succ),
            waits,
            inventory,
        }
    }
}

/// Attempts a deadlock diagnosis of a world hosted whole by this process:
/// [`snapshot_ranks`] over every rank, so `None` when any rank can still
/// make progress (or none is left to).
pub(crate) fn diagnose(world: &World, insp: &Inspector) -> Option<Arc<Deadlock>> {
    let waits = snapshot_ranks(world, insp, &world.world_group)?;
    if waits.is_empty() {
        return None;
    }
    let diagnosis = Deadlock::from_waits(world.n, waits, world.inventory());
    Some(Arc::new(diagnosis))
}

/// The one wait snapshot, over `ranks`: a world's every rank for
/// [`diagnose`], a process's residents for the cross-process detector
/// (which sends the raw edges to process 0, where the cycle is found once
/// every process's are in). Returns `None` when some listed rank is
/// runnable or has a wake already in flight (filled hand-off slot,
/// published rendezvous object); an empty vector when every listed rank
/// has finished.
pub(crate) fn snapshot_ranks(
    world: &World,
    insp: &Inspector,
    ranks: &[usize],
) -> Option<Vec<WaitSnapshot>> {
    let mut waits: Vec<WaitSnapshot> = Vec::new();
    let mut tickets: Vec<Option<u64>> = Vec::new();
    for &rank in ranks {
        let st = insp.ranks[rank].lock();
        if st.finished {
            continue;
        }
        match &st.waiting {
            None => return None, // someone is runnable after all
            Some(w) => {
                waits.push(WaitSnapshot {
                    rank,
                    on: w.on.clone(),
                    coll: st.coll,
                });
                tickets.push(w.ticket);
            }
        }
    }
    for (w, ticket) in waits.iter().zip(&tickets) {
        if let Some(id) = *ticket {
            if world.mailboxes[w.rank].ticket_filled(id) {
                return None;
            }
        }
        if let WaitOn::Rendezvous { key } = &w.on {
            if world.rendezvous.lock().contains_key(key) {
                return None;
            }
        }
    }
    Some(waits)
}

/// Whether every unfinished rank among `ranks` is currently parked in a
/// wait. True when every listed rank has finished — a process whose
/// residents are all done contributes no wait edges but must not block
/// the global stall from being declared.
fn ranks_stable(insp: &Inspector, ranks: &[usize]) -> bool {
    for &rank in ranks {
        let st = insp.ranks[rank].lock();
        if !st.finished && st.waiting.is_none() {
            return false;
        }
    }
    true
}

/// The quiet-poll rule of both polling detectors (a native checked
/// world's, a fleet process's monitor): a stall is worth snapshotting only
/// after several consecutive polls with no wait-state transition and every
/// unfinished rank parked — a notified-but-unscheduled thread looks
/// blocked for one poll, never for three.
#[derive(Default)]
pub(crate) struct QuietPolls {
    /// The activity counter as the last poll read it.
    pub(crate) activity: u64,
    quiet: u32,
}

impl QuietPolls {
    /// Takes one poll of `ranks`; true once the last three were quiet.
    pub(crate) fn poll(&mut self, insp: &Inspector, ranks: &[usize]) -> bool {
        let activity = insp.activity();
        if activity == self.activity && ranks_stable(insp, ranks) {
            self.quiet += 1;
        } else {
            self.quiet = 0;
        }
        self.activity = activity;
        self.quiet >= 3
    }

    /// Starts the count over (a wake was in flight after all).
    pub(crate) fn reset(&mut self) {
        self.quiet = 0;
    }
}

/// A running stall detector thread. Dropping the guard tells the thread
/// the world is over and joins it, so it ends with the run on every path
/// out — the normal one, a rank-spawn failure, any other unwind.
pub(crate) struct Detector {
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Detector {
    /// Spawns thread `name`, which calls `step` once per poll interval of
    /// `insp` until the guard drops or `step` returns false.
    pub(crate) fn spawn(
        name: &str,
        insp: Arc<Inspector>,
        mut step: impl FnMut(&Inspector) -> bool + Send + 'static,
    ) -> Detector {
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || loop {
                insp.poll_sleep();
                if stop.load(Ordering::Acquire) || !step(&insp) {
                    break;
                }
            })
            .unwrap_or_else(|e| panic!("mp: cannot spawn the stall detector {name}: {e}"));
        Detector {
            done,
            thread: Some(thread),
        }
    }

    /// The detector of a world hosted whole by this process: after three
    /// quiet polls it diagnoses, and poisons the run with what it found.
    pub(crate) fn of_world(world: Arc<World>, insp: Arc<Inspector>) -> Detector {
        let mut quiet = QuietPolls::default();
        Detector::spawn("mp-check-detector", insp, move |insp| {
            if quiet.poll(insp, &world.world_group) {
                match diagnose(&world, insp) {
                    Some(diagnosis) => {
                        insp.set_poison(diagnosis);
                        return false;
                    }
                    None => quiet.reset(),
                }
            }
            true
        })
    }
}

impl Drop for Detector {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // A detector that panicked has already said so through the
            // panic hook; a second panic from a drop could only abort.
            let _ = thread.join();
        }
    }
}

/// Finds a cycle in a functional graph (`succ[v]` = at most one edge).
fn find_cycle(succ: &[Option<usize>]) -> Option<Vec<usize>> {
    // 0 = unvisited, 1 = on current path, 2 = done.
    let mut color = vec![0u8; succ.len()];
    for start in 0..succ.len() {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut v = start;
        loop {
            if color[v] == 1 {
                // Found: the cycle is the path suffix starting at v.
                let at = path.iter().position(|&p| p == v).expect("on path");
                return Some(path[at..].to_vec());
            }
            if color[v] == 2 {
                break;
            }
            color[v] = 1;
            path.push(v);
            match succ[v] {
                Some(next) => v = next,
                None => break,
            }
        }
        for p in path {
            color[p] = 2;
        }
    }
    None
}

// ---------------------------------------------------------------------
// Scoped (ambient) instrumentation
// ---------------------------------------------------------------------

/// An ambient check configuration: while installed on a thread, every
/// [`crate::run`] call made *from that thread* runs instrumented and
/// hands its [`RunLog`] to `sink`. Thread-local on purpose: a campaign
/// driver checks every workload it executes without other threads (e.g.
/// concurrently running tests) being affected.
#[derive(Clone)]
pub struct ScopedCheck {
    /// Settings for each instrumented run.
    pub settings: Settings,
    /// Receives the log of every instrumented run, on the installing
    /// thread, after the run's ranks have joined.
    pub sink: Arc<dyn Fn(RunLog) + Send + Sync>,
}

thread_local! {
    static SCOPED: std::cell::RefCell<Option<ScopedCheck>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `check` on the current thread until the returned guard drops.
pub fn install_scoped(check: ScopedCheck) -> ScopedGuard {
    SCOPED.with(|s| *s.borrow_mut() = Some(check));
    ScopedGuard { _private: () }
}

/// Uninstalls the thread's ambient check configuration on drop.
pub struct ScopedGuard {
    _private: (),
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| *s.borrow_mut() = None);
    }
}

pub(crate) fn scoped() -> Option<ScopedCheck> {
    SCOPED.with(|s| s.borrow().clone())
}

/// Runs `f` as an instrumented SPMD program over `n` ranks: an
/// [`Inspector`] is attached to the world, every rank runs under
/// `catch_unwind`, every communication event is recorded, and a
/// [`Detector`] thread polls wait states — a deadlock is diagnosed instead
/// of hanging, and poisons the run, which unwinds the blocked ranks.
///
/// Unlike [`crate::run`], rank panics do not propagate: they come back in
/// [`Checked::panics`], and a detected deadlock in
/// [`RunLog::deadlock`](RunLog).
pub fn run_checked<R, F>(n: usize, settings: Settings, f: F) -> Checked<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_checked");
    let inspector = Arc::new(Inspector::new(n, settings, None));
    let world = Arc::new(World::new(n, false, Some(Arc::clone(&inspector)), None));
    let outcomes = {
        let _detector = Detector::of_world(Arc::clone(&world), Arc::clone(&inspector));
        spawn_caught_ranks(&world, &world.world_group, &f)
    };
    Checked::from_outcomes(&world.world_group, outcomes, world.run_log())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection_on_functional_graphs() {
        // 0 -> 1 -> 0 plus a tail 2 -> 0.
        let succ = vec![Some(1), Some(0), Some(0)];
        let cycle = find_cycle(&succ).unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&0) && cycle.contains(&1));
        // Chain without a cycle.
        assert_eq!(find_cycle(&[Some(1), Some(2), None]), None);
        // Self-loop.
        assert_eq!(find_cycle(&[Some(0)]), Some(vec![0]));
        // Empty.
        assert_eq!(find_cycle(&[]), None);
    }

    #[test]
    fn event_ring_drops_oldest() {
        let mut ring = EventRing {
            buf: VecDeque::new(),
            cap: 2,
            dropped: 0,
        };
        for dst in 0..3 {
            ring.push(Event::Send {
                dst,
                comm: 0,
                tag: 0,
                bytes: 1,
            });
        }
        assert_eq!(ring.dropped, 1);
        assert_eq!(ring.buf.len(), 2);
        assert!(matches!(ring.buf[0], Event::Send { dst: 1, .. }));
    }

    #[test]
    fn run_checked_clean_program_completes() {
        let checked = run_checked(4, Settings::default(), |comm| {
            let mut x = [comm.rank() as u64];
            comm.allreduce(&mut x, crate::Op::Sum);
            x[0]
        });
        assert_eq!(checked.results, Some(vec![6, 6, 6, 6]));
        assert!(checked.panics.is_empty());
        assert!(checked.log.deadlock.is_none());
        assert!(checked.log.leftover.is_empty());
        // Every rank recorded its collective.
        for rank in 0..4 {
            assert!(checked.log.events[rank].iter().any(|e| matches!(
                e,
                Event::CollBegin {
                    op: "allreduce",
                    ..
                }
            )));
        }
    }

    #[test]
    fn run_checked_diagnoses_recv_recv_cycle() {
        let checked = run_checked(
            2,
            Settings {
                poll: Duration::from_millis(5),
                ..Settings::default()
            },
            |comm| {
                // Head-to-head receives: the classic deadlock.
                let mut buf = [0u8];
                let peer = 1 - comm.rank();
                comm.recv(&mut buf, peer, 1);
                comm.send(&buf, peer, 1);
            },
        );
        assert!(checked.results.is_none());
        let d = checked.log.deadlock.expect("deadlock must be diagnosed");
        let cycle = d.cycle.clone().expect("a recv/recv cycle is pinned-source");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&0) && cycle.contains(&1));
        assert_eq!(d.waits.len(), 2);
    }

    #[test]
    fn run_checked_reports_ordinary_panics() {
        let checked = run_checked(2, Settings::default(), |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 blocks on a message that never comes; the detector
            // must report the stall rather than hang.
            let mut buf = [0u8];
            comm.recv(&mut buf, 1, 1);
        });
        assert!(checked.results.is_none());
        assert_eq!(checked.panics.len(), 1);
        assert_eq!(checked.panics[0].0, 1);
        assert!(checked.panics[0].1.contains("boom"));
        // Rank 0's stall is diagnosed (no cycle: its peer is gone).
        assert!(checked.log.deadlock.is_some());
    }
}

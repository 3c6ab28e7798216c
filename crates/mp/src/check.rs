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
//! - an optional seeded *schedule perturbation* shim injects
//!   deterministic yields and micro-delays at the instrumented points so
//!   arrival-order-dependent behaviour is exercised under many
//!   interleavings.
//!
//! The uninstrumented fast path pays one `Option` check per operation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::runtime::World;

/// Configuration of one instrumented run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Seed for the deterministic schedule-perturbation shim. Two runs
    /// with the same seed perturb identically.
    pub seed: u64,
    /// Whether to inject deterministic yields/delays at instrumented
    /// points (off: record + detect only).
    pub perturb: bool,
    /// Capacity of each rank's event ring buffer; older events are
    /// dropped (and counted) past this.
    pub ring_capacity: usize,
    /// Detector thread polling interval.
    pub poll: Duration,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            seed: 0,
            perturb: false,
            ring_capacity: 1 << 16,
            poll: Duration::from_millis(10),
        }
    }
}

impl Settings {
    /// A perturbing variant of these settings under `seed` (seed 0 keeps
    /// perturbation off, so seed sweeps include the unperturbed order).
    pub fn with_seed(&self, seed: u64) -> Settings {
        Settings {
            seed,
            perturb: seed != 0,
            ..self.clone()
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
    /// Perturbation seed the run used.
    pub seed: u64,
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
    perturb_ctr: u64,
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
/// states, event rings, the poison flag and the perturbation shim.
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
    pub(crate) fn new(n: usize, settings: Settings) -> Inspector {
        Inspector::new_observed(n, settings, None)
    }

    pub(crate) fn new_observed(
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

    /// Deterministic schedule perturbation: occasionally yield or briefly
    /// sleep at an instrumented point, chosen by a hash of
    /// `(seed, rank, per-rank call counter)`.
    pub(crate) fn maybe_perturb(&self, rank: usize) {
        if !self.settings.perturb {
            return;
        }
        let ctr = {
            let mut st = self.ranks[rank].lock();
            st.perturb_ctr += 1;
            st.perturb_ctr
        };
        let h = splitmix64(
            self.settings
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((rank as u64) << 32)
                .wrapping_add(ctr),
        );
        if h.is_multiple_of(31) {
            std::thread::sleep(Duration::from_micros(50 + h % 200));
        } else if h.is_multiple_of(3) {
            std::thread::yield_now();
        }
    }

    /// Parks the calling thread for one watchdog poll interval. The
    /// native deadlock watchdog in `runtime.rs` calls through here so
    /// that wall-clock sleeps stay confined to this module, the process
    /// transports and the harness (enforced by `ci/arch_lint.sh`).
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

    /// Whether every unfinished rank is currently parked in a wait (and
    /// at least one rank is unfinished).
    pub(crate) fn all_unfinished_waiting(&self) -> bool {
        let mut any_live = false;
        for st in &self.ranks {
            let st = st.lock();
            if st.finished {
                continue;
            }
            any_live = true;
            if st.waiting.is_none() {
                return false;
            }
        }
        any_live
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

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// Detector
// ---------------------------------------------------------------------

/// Attempts a deadlock diagnosis. Call only after the caller has observed
/// a stable all-waiting snapshot; re-verifies against in-flight wakes
/// (filled hand-off slots, published rendezvous objects) and returns
/// `None` when any rank can still make progress.
pub(crate) fn diagnose(world: &World, insp: &Inspector) -> Option<Arc<Deadlock>> {
    let n = world.n;
    let mut waits: Vec<WaitSnapshot> = Vec::new();
    let mut tickets: Vec<Option<u64>> = Vec::new();
    for (rank, st) in insp.ranks.iter().enumerate() {
        let st = st.lock();
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
    if waits.is_empty() {
        return None;
    }
    // Rule out wakes already in flight.
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
    // Wait-for edges from pinned-source receives: each blocked rank has
    // at most one successor, so the graph is functional and a simple
    // coloured walk finds a cycle if one exists.
    let mut succ: Vec<Option<usize>> = vec![None; n];
    for w in &waits {
        if let WaitOn::Recv { src: Some(s), .. } = w.on {
            succ[w.rank] = Some(s);
        }
    }
    let cycle = find_cycle(&succ);
    let mut inventory: Vec<LaneInfo> = Vec::new();
    for mb in &world.mailboxes {
        inventory.extend(mb.inventory());
    }
    Some(Arc::new(Deadlock {
        cycle,
        waits,
        inventory,
    }))
}

/// Wait snapshot of a *subset* of the world's ranks: the per-process half
/// of the cross-process deadlock detector. Like [`diagnose`], but only
/// over `ranks` (the ranks resident in this process) and returning the
/// raw wait edges rather than a full diagnosis — cycle finding happens on
/// process 0 once every process's edges are in. Returns `None` when some
/// listed rank is runnable or has a wake already in flight (filled
/// hand-off slot, published rendezvous object); an empty vector when
/// every listed rank has finished.
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
pub(crate) fn ranks_stable(insp: &Inspector, ranks: &[usize]) -> bool {
    for &rank in ranks {
        let st = insp.ranks[rank].lock();
        if !st.finished && st.waiting.is_none() {
            return false;
        }
    }
    true
}

/// Finds a cycle in a functional graph (`succ[v]` = at most one edge).
pub(crate) fn find_cycle(succ: &[Option<usize>]) -> Option<Vec<usize>> {
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

/// Runs `f` as an instrumented SPMD program over `n` ranks: deadlocks are
/// detected live (and diagnosed instead of hanging), every communication
/// event is recorded, and — when `settings.perturb` — the schedule is
/// deterministically perturbed under `settings.seed`.
///
/// Unlike [`crate::run`], rank panics do not propagate: they come back in
/// [`Checked::panics`], and a detected deadlock in
/// [`RunLog::deadlock`](RunLog).
pub fn run_checked<R, F>(n: usize, settings: Settings, f: F) -> Checked<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    crate::runtime::run_checked_inner(n, settings, &f)
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
    fn perturbation_is_deterministic_in_seed() {
        // Same seed -> same decision sequence (hash is pure).
        let h1: Vec<u64> = (0..100).map(|i| splitmix64(7 ^ i)).collect();
        let h2: Vec<u64> = (0..100).map(|i| splitmix64(7 ^ i)).collect();
        assert_eq!(h1, h2);
        let h3: Vec<u64> = (0..100).map(|i| splitmix64(8 ^ i)).collect();
        assert_ne!(h1, h3);
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

    #[test]
    fn perturbed_run_stays_correct() {
        for seed in 1..4u64 {
            let checked = run_checked(3, Settings::default().with_seed(seed), |comm| {
                let mut all = vec![0u64; comm.size()];
                comm.allgather(&[comm.rank() as u64], &mut all);
                all
            });
            let results = checked.results.expect("clean program");
            for r in results {
                assert_eq!(r, vec![0, 1, 2]);
            }
        }
    }
}

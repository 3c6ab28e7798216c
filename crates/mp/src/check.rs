//! Runtime verification instrumentation: the substrate the `mpcheck`
//! crate's analyses are built on.
//!
//! When a run is *instrumented* (via [`run_checked`], a traced door or a
//! scoped install, see [`ScopedCheck`]), the runtime attaches an
//! `Inspector` to the world:
//!
//! - every collective call is noted in a shared per-rank registry, so a
//!   stall's [`Deadlock`] diagnosis — assembled from the *wait edges*
//!   every blocked rank leaves in its mailbox's posted receives, at the
//!   instant the world's last runnable rank blocks — names the cycle, the
//!   call sites and the pending-message inventory;
//! - every send, receive and collective call is appended to a cheap
//!   per-rank ring buffer of [`Event`]s, which the post-run lint pass in
//!   `mpcheck` scans for MPI-misuse classes (unmatched sends, collective
//!   divergence, tag leaks, wildcard races), and whose sends are a traced
//!   run's transfers (`RunLog::transfers`).
//!
//! Those are the two analyses, and the world's [`RunLog`] (rank panics
//! included) is the one record they read. Seeing a *second* schedule is
//! not done here: the cooperative engine turns every scheduling choice
//! into a decision a [`ScheduleController`] makes, and the `mpcheck`
//! explorer enumerates those decisions. Nothing here sleeps or spawns:
//! every thread world detects its stall from its runnable count, and a
//! fleet's monitor (in `transport`) combines its processes' stalls.
//!
//! The uninstrumented fast path pays one `Option` check per operation.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::Transfer;

use crate::comm::Comm;
use crate::coop::ScheduleController;
use crate::runtime::{checked, start, Engine, World};

/// Configuration of one instrumented run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Capacity of each rank's event ring buffer; older events are
    /// dropped (and counted) past this.
    pub ring_capacity: usize,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            ring_capacity: 1 << 16,
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

/// The receive a blocked rank is waiting in: `(source, comm, tag)`,
/// wildcards as `None`. A receive is the one thing a rank blocks on that a
/// peer can release (a passive-target window lock waits on a mutex, not on
/// a peer's progress).
#[derive(Clone, Debug)]
pub struct WaitOn {
    /// Communicator id the receive is posted on.
    pub comm: u32,
    /// Expected source world rank (`None` = any source).
    pub src: Option<usize>,
    /// Expected tag (`None` = any tag).
    pub tag: Option<u32>,
}

impl std::fmt::Display for WaitOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let src = self.src.map_or("any".into(), |s| s.to_string());
        let tag = self.tag.map_or("any".into(), |t| format!("{t:#x}"));
        write!(f, "receive (src {src}, comm {:#x}, tag {tag})", self.comm)
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
/// pinned-source receive edges) or the fleet peer whose loss stalled the
/// world, every blocked rank's wait, and the pending-message inventory per
/// mailbox lane.
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// Ranks forming a wait-for cycle, in cycle order; `None` when the
    /// stall has no pinned-source cycle (e.g. wildcard waits).
    pub cycle: Option<Vec<usize>>,
    /// Every blocked rank and what it waits on.
    pub waits: Vec<WaitSnapshot>,
    /// Queued unmatched messages across all mailboxes.
    pub inventory: Vec<LaneInfo>,
    /// The peer process a fleet lost before it flushed the epoch, named
    /// with the epoch and the last frame that came from it; the stall is
    /// then that loss, whatever the waits say.
    pub lost: Option<String>,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.lost, &self.cycle) {
            (Some(lost), _) => writeln!(f, "peer lost: {lost}")?,
            (None, Some(cycle)) => {
                let mut path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
                path.push(cycle[0].to_string());
                writeln!(f, "wait-for cycle: {}", path.join(" -> "))?;
            }
            (None, None) => writeln!(
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
/// stall's unwind from an ordinary rank panic.
pub const POISON_MARK: &str = "mp: deadlock detected\n";

/// Everything an instrumented world recorded: the one record of a run,
/// which the analyses read and a traced run projects to its transfers.
#[derive(Default)]
pub struct RunLog {
    /// World size.
    pub n: usize,
    /// Per-rank event logs, in per-rank program order.
    pub events: Vec<Vec<Event>>,
    /// Per-rank count of events dropped to ring-buffer overflow.
    pub dropped: Vec<u64>,
    /// Messages still queued (unmatched) at finalize.
    pub leftover: Vec<LaneInfo>,
    /// The deadlock diagnosis, if the world stalled.
    pub deadlock: Option<Arc<Deadlock>>,
    /// Ranks that panicked for reasons other than deadlock poisoning,
    /// with their panic messages, ascending by rank.
    pub panics: Vec<(usize, String)>,
}

impl RunLog {
    /// The world's point-to-point transfers: each rank's
    /// [`Event::Send`]s in program order, ranks in order.
    pub(crate) fn transfers(&self) -> Vec<Transfer> {
        let mut sends = Vec::new();
        for (src, events) in self.events.iter().enumerate() {
            for event in events {
                if let Event::Send { dst, bytes, .. } = *event {
                    let bytes = bytes as u64;
                    sends.push(Transfer { src, dst, bytes });
                }
            }
        }
        sends
    }
}

/// Outcome of [`run_checked`].
pub struct Checked<R> {
    /// Per-rank results, present only when every rank completed normally.
    pub results: Option<Vec<R>>,
    /// The recorded run log.
    pub log: RunLog,
}

impl<R> Checked<R> {
    /// Ends a checked run that stands in for an unchecked one (under
    /// [`install_scoped`], a traced door or a session) the way that one
    /// would have ended: the log, every rank panic in it, reaches `sink`
    /// first, then a deadlock propagates as a panic carrying the
    /// diagnosis, then the first rank panic; a clean run returns.
    pub(crate) fn sink_then_propagate(self, sink: impl FnOnce(RunLog)) -> Vec<R> {
        let deadlock = self.log.deadlock.clone();
        let panic = self.log.panics.first().cloned();
        sink(self.log);
        if let Some(d) = deadlock {
            panic!("{POISON_MARK}{d}");
        }
        if let Some((rank, msg)) = panic {
            panic!("rank {rank} panicked: {msg}");
        }
        self.results
            .expect("no deadlock, no panics, so every rank completed")
    }
}

// ---------------------------------------------------------------------
// Inspector
// ---------------------------------------------------------------------

#[derive(Default)]
struct RankState {
    coll: Option<CollSite>,
    /// Per-communicator collective call counter.
    coll_index: HashMap<u32, u32>,
    /// Collective nesting depth (only the outermost call is recorded).
    coll_depth: u32,
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

/// The shared instrumentation registry of one instrumented world: rank
/// states (collective site) and event rings.
pub(crate) struct Inspector {
    ranks: Vec<Mutex<RankState>>,
    events: Vec<Mutex<EventRing>>,
    /// A schedule controller observing every recorded event (controlled
    /// cooperative runs); `None` on plain checked runs.
    observer: Option<Arc<dyn ScheduleController>>,
}

impl Inspector {
    pub(crate) fn new(
        n: usize,
        settings: Settings,
        observer: Option<Arc<dyn ScheduleController>>,
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
            observer,
        }
    }

    pub(crate) fn record(&self, rank: usize, event: Event) {
        if let Some(obs) = &self.observer {
            obs.note_event(rank, &event);
        }
        self.events[rank].lock().push(event);
    }

    /// The collective call `rank` is inside, if any.
    pub(crate) fn coll(&self, rank: usize) -> Option<CollSite> {
        self.ranks[rank].lock().coll
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
// Diagnosis
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
            succ[w.rank] = w.on.src;
        }
        Deadlock {
            cycle: find_cycle(&succ),
            waits,
            inventory,
            lost: None,
        }
    }
}

/// The diagnosis of a stalled world hosted whole by this process — its
/// runnable count or its run queue said nothing can run any more — from
/// every rank's wait edge and the unmatched traffic in its mailboxes.
pub(crate) fn diagnose(world: &World) -> Arc<Deadlock> {
    let waits = snapshot_ranks(world, &world.world_group);
    Arc::new(Deadlock::from_waits(world.n, waits, world.inventory()))
}

/// The one wait snapshot, over `ranks`: a world's every rank for
/// [`diagnose`], a process's residents for a fleet's monitor (which sends
/// the raw edges to process 0, where the cycle is found once every
/// process's are in). A rank's edge is what its mailbox says it is blocked
/// on ([`Mailbox::blocked_on`](crate::mailbox::Mailbox::blocked_on)), with
/// the collective it is inside when an inspector is attached; a rank with
/// no edge is left out.
pub(crate) fn snapshot_ranks(world: &World, ranks: &[usize]) -> Vec<WaitSnapshot> {
    let mut waits = Vec::new();
    for &rank in ranks {
        if let Some(on) = world.mailboxes[rank].blocked_on() {
            let coll = world.inspector.as_ref().and_then(|insp| insp.coll(rank));
            waits.push(WaitSnapshot { rank, on, coll });
        }
    }
    waits
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

/// The one ambient hook, for both engines: while installed on a thread,
/// every [`crate::run`], [`crate::run_coop`] and [`crate::run_virtual_coop`]
/// world started *from that thread* runs instrumented and hands its
/// [`RunLog`] to `sink` before any failure propagates. The launch path
/// reads it once per world. Thread-local on
/// purpose: a campaign driver checks every workload it executes without
/// other threads (e.g. concurrently running tests) being affected.
#[derive(Clone)]
pub struct ScopedCheck {
    /// Settings for each instrumented run.
    pub settings: Settings,
    /// Decides every ready-set pick and wildcard match of a cooperative
    /// world (`None`: the FIFO default); rank threads ignore it.
    pub controller: Option<Arc<dyn ScheduleController>>,
    /// Receives the log of every instrumented run, on the installing
    /// thread, after the run's ranks have finished.
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

/// Runs `f` as an instrumented SPMD program over `n` ranks on `engine`:
/// an `Inspector` is attached to the world and every communication event
/// is recorded. A deadlock is diagnosed the instant the last runnable rank
/// blocks, instead of hanging, and poisons the run, which unwinds the
/// blocked ranks.
///
/// Unlike [`crate::run`], rank panics do not propagate: they come back in
/// [`RunLog::panics`](RunLog), and a detected deadlock in
/// [`RunLog::deadlock`](RunLog).
pub fn run_checked<R, F, Fut>(n: usize, engine: Engine, settings: Settings, f: F) -> Checked<R>
where
    R: Send,
    F: Fn(Comm) -> Fut + Sync,
    Fut: std::future::Future<Output = R>,
{
    let check = Some((settings, None));
    let (outcomes, world) = start(n, engine, None, check, |world| engine.drive(world, &f));
    checked(&world, outcomes)
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
        let checked = run_checked(4, Engine::Threads, Settings::default(), |comm| async move {
            let mut x = [comm.rank() as u64];
            comm.allreduce(&mut x, crate::Op::Sum);
            x[0]
        });
        assert_eq!(checked.results, Some(vec![6, 6, 6, 6]));
        assert!(checked.log.panics.is_empty());
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
        let checked = run_checked(2, Engine::Threads, Settings::default(), |comm| async move {
            // Head-to-head receives: the classic deadlock.
            let mut buf = [0u8];
            let peer = 1 - comm.rank();
            comm.recv(&mut buf, peer, 1);
            comm.send(&buf, peer, 1);
        });
        assert!(checked.results.is_none());
        let d = checked.log.deadlock.expect("deadlock must be diagnosed");
        let cycle = d.cycle.clone().expect("a recv/recv cycle is pinned-source");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&0) && cycle.contains(&1));
        assert_eq!(d.waits.len(), 2);
    }

    #[test]
    fn run_checked_reports_ordinary_panics() {
        let checked = run_checked(2, Engine::Threads, Settings::default(), |comm| async move {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 blocks on a message that never comes; the world
            // must report the stall rather than hang.
            let mut buf = [0u8];
            comm.recv(&mut buf, 1, 1);
        });
        assert!(checked.results.is_none());
        let panics = &checked.log.panics;
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].0, 1);
        assert!(panics[0].1.contains("boom"));
        // Rank 0's stall is diagnosed (no cycle: its peer is gone).
        assert!(checked.log.deadlock.is_some());
    }
}

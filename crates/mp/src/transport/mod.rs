//! Cross-process message delivery: one matching-semantics contract, one
//! wire.
//!
//! Everything above message delivery — [`Payload`](crate::payload),
//! per-(src, comm, tag) mailboxes with non-overtaking wildcard matching,
//! rendezvous, the collectives, `mp::check` instrumentation — is
//! transport-agnostic: a send terminates in
//! [`World::deliver`](crate::runtime::World::deliver), and `deliver`
//! routes on *residency*:
//!
//! * the destination rank lives in this process: the message is pushed
//!   straight into its mailbox, exactly the seed runtime's path;
//! * the destination rank lives in another process, on this host or
//!   another: the message is framed ([`wire`]) and goes over a
//!   length-prefixed socket (see [`tcp`]). A receive blocks on a stream,
//!   it never polls a file.
//!
//! # Sessions, worlds and epochs
//!
//! A *session* is this process's membership in a world of at least two
//! processes: process index, the block rank→process map and a
//! [`Transport`]. The process count is the only way to ask for one. It is
//! installed explicitly from the environment ([`init_from_env`]) — the
//! variables are wired by the [`launcher`] — and every subsequent [`crate::run`]
//! call in the process becomes one *epoch* of that world: all processes
//! must call `run` with the same world size in the same order (the SPMD
//! discipline, process-level). Each epoch, `run` spawns rank threads for
//! the ranks *resident* in this process and returns only their results.
//!
//! Epoch teardown uses a flush barrier: after its residents join, each
//! process sends a `Barrier` frame to every peer and waits for theirs.
//! Channels are FIFO, so receipt of a peer's barrier proves every data
//! frame that peer sent this epoch has already been buffered — no frame
//! can leak into the next epoch.
//!
//! # Cross-process deadlock detection
//!
//! A world hosted whole by one process names its stall exactly, from its
//! runnable count; a fleet cannot, because frames in flight between
//! processes are invisible to a local count. So each process runs a
//! monitor thread — the one polling stall detector — that watches its
//! resident ranks' wait edges (read from their mailboxes' posted receives
//! holding an unfired waker): once the inspector's activity counter has
//! been quiet for several polls with every unfinished resident blocked,
//! it serializes its wait edges as a `Stable` control frame to process 0.
//! Process 0 aggregates: when every process has reported, the global
//! sent/received data-frame counts balance (no frame in flight — the
//! classic counting method for distributed termination detection), and a
//! `Confirm`/`ConfirmAck` round proves every snapshot is still current,
//! it assembles the global wait-for graph, reuses the single-process
//! cycle finder, and broadcasts the [`Deadlock`](crate::check::Deadlock)
//! as a `Poison` frame — blocked ranks on every process unwind with the
//! diagnosis naming the cycle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::check::{self, Inspector, Settings};
use crate::comm::Comm;
use crate::msg::Message;
use crate::payload::Payload;
use crate::runtime::{end, rank_threads, Engine, World};

pub mod launcher;
pub(crate) mod tcp;
pub(crate) mod wire;

use wire::{Frame, FrameKind, StableReport};

/// Environment variable carrying the world size (total ranks).
pub(crate) const ENV_WORLD_SIZE: &str = "MP_WORLD_SIZE";
/// Environment variable carrying the number of processes (at least two);
/// its presence is what makes a process a fleet worker.
pub(crate) const ENV_NPROCS: &str = "MP_NPROCS";
/// Environment variable carrying this process's index.
pub(crate) const ENV_PROC: &str = "MP_PROC";
/// Environment variable carrying the session directory (where tcp
/// processes publish their listener addresses for rendezvous).
pub(crate) const ENV_WORLD_DIR: &str = "MP_WORLD_DIR";
/// Optional comma-separated `host:port` listener address per process;
/// defaults to loopback rendezvous via the session dir.
pub(crate) const ENV_TCP_PEERS: &str = "MP_TCP_PEERS";
/// Optional bind address for this process's tcp listener
/// (default `127.0.0.1:0`).
pub(crate) const ENV_TCP_BIND: &str = "MP_TCP_BIND";

/// The rule every way into a fleet enforces, named in its refusal.
pub(crate) const FLEET_RULE: &str = "a fleet has at least two processes (one process is `mp::run`)";

/// How often a fleet process's monitor looks at its residents.
const POLL: Duration = Duration::from_millis(10);

/// How long an epoch's flush barrier waits for its peers' barriers before
/// it declares a peer process dead.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(300);

/// The world topology of a multi-process session: which process hosts
/// which rank. Always the balanced contiguous block mapping, which is also
/// how `ClusterSim` places ranks on nodes.
#[derive(Clone, Debug)]
struct Topology {
    world: usize,
    nprocs: usize,
    me: usize,
    /// Global rank -> hosting process.
    rank_proc: Vec<u32>,
}

impl Topology {
    /// Process `i` hosts ranks `[i*world/nprocs, (i+1)*world/nprocs)`.
    fn blocks(world: usize, nprocs: usize, me: usize) -> Topology {
        assert!(world > 0, "an SPMD world needs at least one rank");
        assert!(nprocs > 0 && me < nprocs, "proc {me} of {nprocs}");
        let mut rank_proc = vec![0u32; world];
        for p in 0..nprocs {
            let lo = p * world / nprocs;
            let hi = (p + 1) * world / nprocs;
            for r in rank_proc.iter_mut().take(hi).skip(lo) {
                *r = p as u32;
            }
        }
        Topology {
            world,
            nprocs,
            me,
            rank_proc,
        }
    }

    /// The process hosting global rank `rank`.
    fn proc_of(&self, rank: usize) -> usize {
        self.rank_proc[rank] as usize
    }

    /// Whether global rank `rank` lives in this process.
    fn resident(&self, rank: usize) -> bool {
        self.rank_proc[rank] as usize == self.me
    }

    /// The global ranks resident in this process, ascending.
    fn resident_ranks(&self) -> Vec<usize> {
        (0..self.world).filter(|&r| self.resident(r)).collect()
    }
}

/// Reliable, FIFO-per-ordered-process-pair frame delivery. `send` may
/// block briefly (a socket write) but never deadlocks against
/// `recv`; `recv` returns `None` on timeout.
pub(crate) trait Transport: Send + Sync {
    /// Sends `frame` to process `dst_proc`. FIFO with respect to every
    /// other send from this process to `dst_proc`.
    fn send(&self, dst_proc: usize, frame: &Frame);
    /// Receives the next frame from any peer, waiting up to `timeout`.
    fn recv(&self, timeout: Duration) -> Option<Frame>;
}

/// One process's membership in a multi-process world.
pub(crate) struct Session {
    topo: Topology,
    transport: Box<dyn Transport>,
    state: Mutex<SessState>,
    cv: Condvar,
    /// Data frames sent / received by this process (all epochs): the
    /// conservation check behind the cross-process deadlock detector.
    data_sent: AtomicU64,
    data_recvd: AtomicU64,
}

impl Session {
    fn new(topo: Topology, transport: Box<dyn Transport>) -> Session {
        Session {
            topo,
            transport,
            state: Mutex::new(SessState::default()),
            cv: Condvar::new(),
            data_sent: AtomicU64::new(0),
            data_recvd: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct SessState {
    next_epoch: u32,
    current: Option<(u32, Arc<World>)>,
    /// Data frames for epochs this process has not installed yet.
    pending: HashMap<u32, Vec<(usize, Message)>>,
    /// Peer flush barriers received, per epoch.
    barriers: HashMap<u32, usize>,
    /// Latest stable report per process (process 0 only), tagged with
    /// the epoch it was taken in.
    reports: HashMap<usize, (u32, StableReport)>,
    /// Latest confirm ack per process: (gen, activity, sent, recvd).
    acks: HashMap<usize, (u64, u64, u64, u64)>,
}

static SESSION: OnceLock<Option<Arc<Session>>> = OnceLock::new();

/// The installed session, if [`init_from_env`] found one.
pub(crate) fn session() -> Option<Arc<Session>> {
    SESSION.get().and_then(Clone::clone)
}

/// A handle onto this process's multi-process session.
#[derive(Clone)]
pub struct Proc {
    sess: Arc<Session>,
}

impl Proc {
    /// Total ranks in the world.
    pub fn world(&self) -> usize {
        self.sess.topo.world
    }

    /// Whether global rank `rank` is hosted by this process.
    pub fn resident(&self, rank: usize) -> bool {
        self.sess.topo.resident(rank)
    }
}

/// Installs the process-global session described by the `MP_*`
/// environment variables (wired by the [`launcher`]) and returns a
/// handle to it. A session exists exactly when `MP_NPROCS` is set; without
/// it this returns `None` and the process runs every rank in-process as
/// always. `MP_NPROCS` below two is refused: one process is `mp::run`.
/// Subsequent calls return the same session; the environment is read once.
///
/// Worker binaries call this at startup, *before* any [`crate::run`]:
/// the session changes `run`'s contract (it returns only resident
/// ranks' results), so installation is explicit rather than ambient.
pub fn init_from_env() -> Option<Proc> {
    SESSION
        .get_or_init(|| {
            let sess = Arc::new(build_session_from_env()?);
            spawn_pump(&sess);
            Some(sess)
        })
        .as_ref()
        .map(|sess| Proc {
            sess: Arc::clone(sess),
        })
}

/// Panics when a multi-process session is installed: every world but a
/// session's own epochs — traced, virtual, checked and cooperative ones —
/// is single-process by design (they all need global visibility — a full
/// trace, a global clock, a whole wait-for graph, a shared scheduler —
/// that one process of a larger world cannot have).
pub(crate) fn assert_no_session() {
    assert!(
        session().is_none(),
        "mp: a traced, checked, virtual or cooperative world is not available under a \
         multiprocess session (worlds spanning processes support plain run() only)"
    );
}

fn env_usize(name: &str) -> usize {
    let v = std::env::var(name)
        .unwrap_or_else(|_| panic!("mp transport: {name} must be set alongside {ENV_NPROCS}"));
    v.parse()
        .unwrap_or_else(|_| panic!("mp transport: {name}={v:?} is not a number"))
}

fn build_session_from_env() -> Option<Session> {
    std::env::var_os(ENV_NPROCS)?;
    let nprocs = env_usize(ENV_NPROCS);
    assert!(
        nprocs >= 2,
        "mp transport: {ENV_NPROCS}={nprocs}: {FLEET_RULE}"
    );
    let world = env_usize(ENV_WORLD_SIZE);
    let me = env_usize(ENV_PROC);
    let dir = std::path::PathBuf::from(std::env::var(ENV_WORLD_DIR).unwrap_or_else(|_| {
        panic!("mp transport: {ENV_WORLD_DIR} must point at the session directory")
    }));
    let transport = tcp::TcpTransport::connect(&dir, me, nprocs);
    Some(Session::new(
        Topology::blocks(world, nprocs, me),
        Box::new(transport),
    ))
}

/// Spawns the session's pump thread, once, as the session is installed.
/// Detached on purpose: it serves the whole process lifetime and exits
/// with it.
fn spawn_pump(sess: &Arc<Session>) {
    let sess = Arc::clone(sess);
    std::thread::Builder::new()
        .name("mp-transport-pump".to_string())
        .spawn(move || pump(&sess))
        .expect("mp transport: cannot spawn the pump thread");
}

/// The receive pump: drains the transport and dispatches frames — data
/// into mailboxes (or the pending stash for not-yet-installed epochs),
/// control frames into the session/detector state.
fn pump(sess: &Arc<Session>) {
    loop {
        let Some(frame) = sess.transport.recv(Duration::from_millis(25)) else {
            continue;
        };
        let src_proc = frame.src_proc as usize;
        match frame.kind {
            FrameKind::Data => {
                sess.data_recvd.fetch_add(1, Ordering::Release);
                let dst = frame.b as usize;
                let msg = Message {
                    src: frame.a as usize,
                    full_tag: frame.c,
                    data: Payload::from_vec(frame.payload),
                    arrival: None,
                };
                let mut st = sess.state.lock();
                match &st.current {
                    Some((epoch, world)) if *epoch == frame.epoch => {
                        let world = Arc::clone(world);
                        drop(st);
                        world.deliver(dst, msg);
                    }
                    Some((epoch, _)) if *epoch > frame.epoch => {
                        panic!(
                            "mp transport: stale data frame for epoch {} while epoch {} is live \
                             (flush-barrier protocol violated)",
                            frame.epoch, epoch
                        );
                    }
                    _ => {
                        st.pending.entry(frame.epoch).or_default().push((dst, msg));
                    }
                }
            }
            FrameKind::Barrier => {
                let mut st = sess.state.lock();
                *st.barriers.entry(frame.epoch).or_insert(0) += 1;
                drop(st);
                sess.cv.notify_all();
            }
            FrameKind::Stable => {
                let report = wire::decode_report(&frame.payload);
                let mut st = sess.state.lock();
                st.reports.insert(src_proc, (frame.epoch, report));
                drop(st);
                sess.cv.notify_all();
            }
            FrameKind::Confirm => {
                // Reply with the counters as of *now*; proc 0 compares
                // them against the snapshot it is trying to confirm.
                let st = sess.state.lock();
                let activity = match &st.current {
                    Some((epoch, world)) if *epoch == frame.epoch => world
                        .inspector
                        .as_ref()
                        .map_or(u64::MAX, |insp| insp.activity()),
                    _ => u64::MAX, // no such epoch here: never confirms
                };
                drop(st);
                let ack = Frame {
                    kind: FrameKind::ConfirmAck,
                    epoch: frame.epoch,
                    src_proc: sess.topo.me as u32,
                    a: frame.a, // gen echo
                    b: activity,
                    c: sess.data_sent.load(Ordering::Acquire),
                    payload: sess
                        .data_recvd
                        .load(Ordering::Acquire)
                        .to_le_bytes()
                        .to_vec(),
                };
                sess.transport.send(src_proc, &ack);
            }
            FrameKind::ConfirmAck => {
                let recvd =
                    u64::from_le_bytes(frame.payload[..8].try_into().expect("8-byte ack payload"));
                let mut st = sess.state.lock();
                st.acks.insert(src_proc, (frame.a, frame.b, frame.c, recvd));
                drop(st);
                sess.cv.notify_all();
            }
            FrameKind::Poison => {
                let diagnosis = Arc::new(wire::decode_deadlock(&frame.payload));
                let st = sess.state.lock();
                if let Some((epoch, world)) = &st.current {
                    if *epoch == frame.epoch {
                        let world = Arc::clone(world);
                        drop(st);
                        world.poison(diagnosis);
                    }
                }
            }
            FrameKind::Hello | FrameKind::Shutdown => {
                // Connection management; handled inside the transports.
            }
        }
    }
}

// ---------------------------------------------------------------------
// Residency routing
// ---------------------------------------------------------------------

/// A world's handle onto its session: consulted by
/// [`World::deliver`](crate::runtime::World::deliver) to route messages
/// for non-resident ranks over the transport.
pub(crate) struct RemoteWorld {
    sess: Arc<Session>,
    epoch: u32,
}

impl RemoteWorld {
    /// Whether `rank` lives in this process.
    pub(crate) fn resident(&self, rank: usize) -> bool {
        self.sess.topo.resident(rank)
    }

    /// Frames `msg` and sends it to the process hosting `dst`.
    pub(crate) fn send_data(&self, dst: usize, msg: &Message) {
        debug_assert!(!self.resident(dst));
        debug_assert!(msg.arrival.is_none(), "virtual worlds are single-process");
        let payload = msg.data.bytes().unwrap_or_else(|| {
            panic!(
                "mp transport: length-only payload of {} bytes from rank {} to rank {dst}, tag \
                 {:#x} cannot be framed: ghost words never leave their process",
                msg.data.len(),
                msg.src,
                msg.full_tag & 0xFFFF_FFFF,
            )
        });
        let frame = Frame {
            kind: FrameKind::Data,
            epoch: self.epoch,
            src_proc: self.sess.topo.me as u32,
            a: msg.src as u64,
            b: dst as u64,
            c: msg.full_tag,
            payload: payload.to_vec(),
        };
        self.sess.data_sent.fetch_add(1, Ordering::Release);
        self.sess
            .transport
            .send(self.sess.topo.proc_of(dst), &frame);
    }
}

// ---------------------------------------------------------------------
// The multi-process run path
// ---------------------------------------------------------------------

/// Runs one epoch of the session's world: rank threads for the resident
/// ranks, non-resident traffic routed over the transport, and the
/// resident ranks' results in ascending rank order — the launch path's
/// builder, thread engine and fold, inside the epoch's guards.
pub(crate) fn run_multiproc<R, F, Fut>(sess: &Arc<Session>, n: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> Fut + Sync,
    Fut: std::future::Future<Output = R>,
{
    assert_eq!(
        n, sess.topo.world,
        "mp: run({n}) under a multiprocess session with world size {} — \
         the world size is fixed by the launcher",
        sess.topo.world
    );
    let residents = sess.topo.resident_ranks();
    let epoch = {
        let mut st = sess.state.lock();
        assert!(
            st.current.is_none(),
            "mp: nested run() under a multiprocess session"
        );
        let epoch = st.next_epoch;
        st.next_epoch += 1;
        epoch
    };
    let remote = RemoteWorld {
        sess: Arc::clone(sess),
        epoch,
    };
    // Every multiprocess world is instrumented: the cross-process
    // deadlock detector needs wait edges, and a poison channel is the
    // only way to unwind ranks blocked on a peer process that died.
    // The ring is kept tiny — event history belongs to `run_checked`.
    let check = Some((Settings { ring_capacity: 16 }, None));
    let world = Arc::new(World::new(n, Engine::Threads, None, check, Some(remote)));
    let inspector = world.inspector.clone().expect("an instrumented world");
    let outcomes = {
        // Dropped in reverse order on every path out, a rank-spawn failure
        // included: the monitor stops first, then the epoch ends.
        let _epoch = install_world(sess, epoch, &world);
        let _monitor = spawn_monitor(sess, epoch, &world, inspector, &residents);
        let outcomes = rank_threads(&world, &residents, f);

        // Flush barrier: FIFO channels guarantee every data frame this
        // process sent in this epoch precedes its barrier, so once every
        // peer's barrier has arrived no frame of this epoch is in flight.
        let barrier = Frame::control(FrameKind::Barrier, epoch, sess.topo.me as u32);
        for p in 0..sess.topo.nprocs {
            if p != sess.topo.me {
                sess.transport.send(p, &barrier);
            }
        }
        wait_peer_barriers(sess, epoch);
        outcomes
    };
    // Reported as every checked stand-in is (nobody reads the log): a
    // deadlock diagnosis first, then real rank panics.
    end(&world, outcomes, |_| ())
}

/// One installed epoch of a session; dropping it ends the epoch.
struct Epoch<'a> {
    sess: &'a Session,
    epoch: u32,
}

impl Drop for Epoch<'_> {
    fn drop(&mut self) {
        let mut st = self.sess.state.lock();
        st.current = None;
        st.barriers.remove(&self.epoch);
        st.reports.clear();
        st.acks.clear();
        // A protocol check of the ordinary way out; an unwind already in
        // flight is the failure to report, and a second panic would abort.
        assert!(
            std::thread::panicking() || !st.pending.contains_key(&self.epoch),
            "mp transport: data frames for epoch {} arrived after its flush barrier",
            self.epoch
        );
    }
}

fn install_world<'a>(sess: &'a Session, epoch: u32, world: &Arc<World>) -> Epoch<'a> {
    let mut st = sess.state.lock();
    st.current = Some((epoch, Arc::clone(world)));
    let pending = st.pending.remove(&epoch).unwrap_or_default();
    drop(st);
    for (dst, msg) in pending {
        world.deliver(dst, msg);
    }
    Epoch { sess, epoch }
}

fn wait_peer_barriers(sess: &Arc<Session>, epoch: u32) {
    let peers = sess.topo.nprocs - 1;
    let timeout = BARRIER_TIMEOUT;
    let slice = Duration::from_millis(50);
    let mut waited = Duration::ZERO;
    let mut st = sess.state.lock();
    while st.barriers.get(&epoch).copied().unwrap_or(0) < peers {
        if sess.cv.wait_for(&mut st, slice).timed_out() {
            waited += slice;
            if waited >= timeout {
                panic!(
                    "mp transport: flush barrier for epoch {epoch} timed out after {timeout:?} \
                     ({} of {peers} peer barriers arrived) — a peer process likely died",
                    st.barriers.get(&epoch).copied().unwrap_or(0)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The cross-process stall monitor
// ---------------------------------------------------------------------

/// Whether every unfinished rank among `ranks` is blocked on a receive.
/// True when every listed rank has finished — a process whose residents
/// are all done contributes no wait edges but must not block the global
/// stall from being declared.
fn ranks_stable(world: &World, insp: &Inspector, ranks: &[usize]) -> bool {
    ranks
        .iter()
        .all(|&rank| insp.finished(rank) || world.mailboxes[rank].blocked_on().is_some())
}

/// The quiet-poll rule of the monitor: a stall is worth snapshotting only
/// after several consecutive polls with no wait transition and every
/// unfinished resident blocked — a notified-but-unscheduled thread looks
/// blocked for one poll, never for three.
#[derive(Default)]
struct QuietPolls {
    /// The activity counter as the last poll read it.
    activity: u64,
    quiet: u32,
}

impl QuietPolls {
    /// Takes one poll of `ranks`; true once the last three were quiet.
    fn poll(&mut self, world: &World, insp: &Inspector, ranks: &[usize]) -> bool {
        let activity = insp.activity();
        if activity == self.activity && ranks_stable(world, insp, ranks) {
            self.quiet += 1;
        } else {
            self.quiet = 0;
        }
        self.activity = activity;
        self.quiet >= 3
    }

    /// Starts the count over (something moved after all).
    fn reset(&mut self) {
        self.quiet = 0;
    }
}

/// A running monitor thread, `mp-proc-monitor`. Dropping the guard tells
/// the thread the epoch is over and joins it, so it ends with the run on
/// every path out — the normal one, a rank-spawn failure, any other
/// unwind.
struct Detector {
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Detector {
    /// Spawns the thread, which calls `step` once per [`POLL`] until the
    /// guard drops or `step` returns false.
    fn spawn(mut step: impl FnMut() -> bool + Send + 'static) -> Detector {
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let thread = std::thread::Builder::new()
            .name("mp-proc-monitor".to_string())
            .spawn(move || loop {
                std::thread::sleep(POLL);
                if stop.load(Ordering::Acquire) || !step() {
                    break;
                }
            })
            .unwrap_or_else(|e| panic!("mp: cannot spawn the stall monitor: {e}"));
        Detector {
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Detector {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // A monitor that panicked has already said so through the
            // panic hook; a second panic from a drop could only abort.
            let _ = thread.join();
        }
    }
}

/// Spawns the per-process monitor: it detects local stability (every
/// resident unfinished rank blocked, activity quiet), publishes the
/// serialized wait snapshot to process 0, and — on process 0 — aggregates
/// the global diagnosis. It ends when the returned guard drops, or the
/// run is poisoned and there is nothing left to watch.
fn spawn_monitor(
    sess: &Arc<Session>,
    epoch: u32,
    world: &Arc<World>,
    insp: Arc<Inspector>,
    residents: &[usize],
) -> Detector {
    let (sess, world, residents) = (Arc::clone(sess), Arc::clone(world), residents.to_vec());
    let mut quiet = QuietPolls::default();
    let (mut gen, mut published) = (0u64, false);
    Detector::spawn(move || {
        if world.poisoned().is_some() {
            return false;
        }
        if !quiet.poll(&world, &insp, &residents) {
            published = false;
        } else if !published {
            let waits = check::snapshot_ranks(&world, &residents);
            let lanes = residents
                .iter()
                .flat_map(|&r| world.mailboxes[r].inventory());
            // Counter sampling order matters: activity after the
            // snapshot, so any wait transition between the quiet poll and
            // the confirm round shows up as a counter change.
            gen += 1;
            let report = StableReport {
                gen,
                activity: insp.activity(),
                sent: sess.data_sent.load(Ordering::Acquire),
                recvd: sess.data_recvd.load(Ordering::Acquire),
                waits,
                inventory: lanes.collect(),
            };
            if report.activity != quiet.activity {
                quiet.reset();
                return true;
            }
            if sess.topo.me == 0 {
                sess.state.lock().reports.insert(0, (epoch, report));
            } else {
                let frame = Frame {
                    kind: FrameKind::Stable,
                    epoch,
                    src_proc: sess.topo.me as u32,
                    a: 0,
                    b: 0,
                    c: 0,
                    payload: wire::encode_report(&report),
                };
                sess.transport.send(0, &frame);
            }
            published = true;
        }
        if sess.topo.me == 0 {
            try_global_diagnosis(&sess, epoch, &world, &insp);
        }
        true
    })
}

/// Process 0's aggregation step: with a stable report from every process
/// and balanced global data-frame counters, run a confirm round and — if
/// every snapshot is still current — assemble and broadcast the global
/// deadlock diagnosis.
fn try_global_diagnosis(sess: &Arc<Session>, epoch: u32, world: &World, insp: &Inspector) {
    let nprocs = sess.topo.nprocs;
    let reports: Vec<StableReport> = {
        let st = sess.state.lock();
        let mut out = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            match st.reports.get(&p) {
                Some((e, r)) if *e == epoch => out.push(r.clone()),
                _ => return, // not every process is stable yet
            }
        }
        out
    };
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let recvd: u64 = reports.iter().map(|r| r.recvd).sum();
    if sent != recvd {
        return; // data frames still in flight
    }
    // Confirm round: every worker must still be exactly at its snapshot.
    {
        let mut st = sess.state.lock();
        st.acks.clear();
    }
    for (p, report) in reports.iter().enumerate().skip(1) {
        let frame = Frame {
            kind: FrameKind::Confirm,
            epoch,
            src_proc: 0,
            a: report.gen,
            b: 0,
            c: 0,
            payload: Vec::new(),
        };
        sess.transport.send(p, &frame);
    }
    // Collect acks (with a bounded wait so a woken world never wedges
    // the monitor).
    let deadline_slices = 50u32;
    let mut slices = 0u32;
    let confirmed = loop {
        let st = sess.state.lock();
        let have_all = (1..nprocs).all(|p| st.acks.contains_key(&p));
        if have_all {
            let ok = (1..nprocs).all(|p| {
                let (gen, activity, psent, precvd) = st.acks[&p];
                let r = &reports[p];
                gen == r.gen && activity == r.activity && psent == r.sent && precvd == r.recvd
            });
            break ok;
        }
        drop(st);
        std::thread::sleep(POLL);
        slices += 1;
        if slices >= deadline_slices {
            break false;
        }
    };
    // Re-validate process 0's own snapshot the same way.
    let self_ok = insp.activity() == reports[0].activity
        && sess.data_sent.load(Ordering::Acquire) == reports[0].sent
        && sess.data_recvd.load(Ordering::Acquire) == reports[0].recvd;
    if !confirmed || !self_ok {
        // Something moved: drop every report and wait for fresh ones.
        let mut st = sess.state.lock();
        st.reports.clear();
        st.acks.clear();
        return;
    }
    // A genuine global stall: assemble the world-wide diagnosis.
    let diagnosis = Arc::new(check::Deadlock::from_waits(
        sess.topo.world,
        reports.iter().flat_map(|r| r.waits.clone()).collect(),
        reports.iter().flat_map(|r| r.inventory.clone()).collect(),
    ));
    for p in 1..nprocs {
        let frame = Frame {
            kind: FrameKind::Poison,
            epoch,
            src_proc: 0,
            a: 0,
            b: 0,
            c: 0,
            payload: wire::encode_deadlock(&diagnosis),
        };
        sess.transport.send(p, &frame);
    }
    world.poison(diagnosis);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_topology_is_balanced_and_contiguous() {
        let t = Topology::blocks(10, 4, 1);
        let sizes: Vec<usize> = (0..4)
            .map(|p| (0..10).filter(|&r| t.proc_of(r) == p).count())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
        // Contiguity: proc index is monotone in rank.
        for r in 1..10 {
            assert!(t.proc_of(r) >= t.proc_of(r - 1));
        }
        assert_eq!(t.resident_ranks(), vec![2, 3, 4]);
    }

    /// The transport of a session whose ranks all live in this process:
    /// no peers, nothing to move. A test fake; every real session is tcp.
    struct LocalTransport;

    impl Transport for LocalTransport {
        fn send(&self, dst_proc: usize, _frame: &Frame) {
            unreachable!("mp transport: local send to proc {dst_proc}");
        }

        fn recv(&self, timeout: Duration) -> Option<Frame> {
            std::thread::sleep(timeout);
            None
        }
    }

    /// A session over the local transport, never installed process-wide.
    fn local_session(topo: Topology) -> Arc<Session> {
        Arc::new(Session::new(topo, Box::new(LocalTransport)))
    }

    /// The session leg of `runtime::tests::spawn_failure_names_the_rank`:
    /// a rank-spawn failure under a session panics with the spawn error
    /// and *returns* (the monitor is joined), and it ends the epoch — the
    /// next `run` meets the spawn error again, not "nested run()", and
    /// once spawning works the session carries on.
    #[test]
    fn spawn_failure_ends_the_epoch() {
        let sess = local_session(Topology::blocks(4, 1, 0));
        for _ in 0..2 {
            let err = crate::runtime::tests::with_failing_spawns(|| {
                let run = || run_multiproc(&sess, 4, &|comm: Comm| async move { comm.rank() });
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            })
            .expect_err("the spawn cannot succeed");
            let msg = crate::runtime::panic_message(&*err);
            assert!(msg.starts_with("mp: cannot spawn rank 0 of 4"), "{msg}");
        }
        let rank = |comm: Comm| async move { comm.rank() };
        assert_eq!(run_multiproc(&sess, 4, &rank), vec![0, 1, 2, 3]);
    }

    /// Ghost words have no bytes to frame: a length-only payload bound
    /// for another process stops at the transport, named.
    #[test]
    #[should_panic(
        expected = "length-only payload of 32 bytes from rank 0 to rank 1, tag 0x7 cannot be framed"
    )]
    fn a_length_only_payload_never_reaches_a_frame() {
        let remote = RemoteWorld {
            sess: local_session(Topology::blocks(2, 2, 0)),
            epoch: 0,
        };
        let msg = Message {
            src: 0,
            full_tag: crate::msg::pack_tag(0, 7),
            data: Payload::encode(&[crate::Ghost::<8>; 4], Vec::new()),
            arrival: None,
        };
        remote.send_data(1, &msg);
    }

    #[test]
    fn one_proc_hosts_everything() {
        let t = Topology::blocks(4, 1, 0);
        assert_eq!(t.resident_ranks(), vec![0, 1, 2, 3]);
    }
}

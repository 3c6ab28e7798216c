//! Pluggable message-delivery backends: one matching-semantics contract,
//! two transports.
//!
//! Everything above message delivery — [`Payload`](crate::payload),
//! per-(src, comm, tag) mailboxes with non-overtaking wildcard matching,
//! rendezvous, the collectives, `mp::check` instrumentation — is
//! transport-agnostic: a send terminates in
//! [`World::deliver`](crate::runtime::World::deliver), and `deliver`
//! routes on *residency*:
//!
//! * **local** — the destination rank lives in this process: the message
//!   is pushed straight into its mailbox, exactly the seed runtime's
//!   path (byte-identical; see [`local`]).
//! * **tcp** — the destination rank lives in another process, on this
//!   host or another: the message is framed ([`wire`]) and goes over a
//!   length-prefixed socket (see [`tcp`]). It is the one cross-process
//!   backend: a receive blocks on a stream, it never polls a file.
//!
//! # Sessions, worlds and epochs
//!
//! A *session* is this process's membership in a multi-process world:
//! process index, rank→process map and a [`Transport`]. It is installed
//! explicitly from the environment ([`init_from_env`]) — the variables
//! are wired by the [`launcher`] — and every subsequent [`crate::run`]
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
//! `mp::check`'s wait-edge instrumentation keeps working when the
//! wait-for graph spans processes. Each process runs a monitor thread
//! that watches its resident ranks exactly like the single-process
//! detector (stable activity across polls, every unfinished rank parked,
//! in-flight wakes ruled out via hand-off probes); on local stability it
//! serializes its wait edges as a `Stable` control frame to process 0.
//! Process 0 aggregates: when every process has reported, the global
//! sent/received data-frame counts balance (no frame in flight — the
//! classic counting method for distributed termination detection), and a
//! `Confirm`/`ConfirmAck` round proves every snapshot is still current,
//! it assembles the global wait-for graph, reuses the single-process
//! cycle finder, and broadcasts the [`Deadlock`](crate::check::Deadlock)
//! as a `Poison` frame — blocked ranks on every process unwind with the
//! diagnosis naming the cycle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::check::{self, Inspector, Settings};
use crate::comm::Comm;
use crate::msg::Message;
use crate::payload::Payload;
use crate::runtime::World;

pub mod launcher;
pub(crate) mod local;
pub(crate) mod tcp;
pub(crate) mod wire;

use wire::{Frame, FrameKind, StableReport};

/// Environment variable selecting the backend (`local`, `tcp`).
pub const ENV_BACKEND: &str = "MP_BACKEND";
/// Environment variable carrying the world size (total ranks).
pub const ENV_WORLD_SIZE: &str = "MP_WORLD_SIZE";
/// Environment variable carrying the number of processes.
pub const ENV_NPROCS: &str = "MP_NPROCS";
/// Environment variable carrying this process's index.
pub const ENV_PROC: &str = "MP_PROC";
/// Environment variable carrying the session directory (where tcp
/// processes publish their listener addresses for rendezvous).
pub const ENV_WORLD_DIR: &str = "MP_WORLD_DIR";
/// Optional comma-separated rank→process map (`MP_RANK_PROCS=0,0,1,1`);
/// defaults to balanced contiguous blocks.
pub const ENV_RANK_PROCS: &str = "MP_RANK_PROCS";
/// Optional comma-separated `host:port` listener address per process for
/// the tcp backend; defaults to loopback rendezvous via the session dir.
pub const ENV_TCP_PEERS: &str = "MP_TCP_PEERS";
/// Optional bind address for this process's tcp listener
/// (default `127.0.0.1:0`).
pub const ENV_TCP_BIND: &str = "MP_TCP_BIND";

/// A message-delivery backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-process delivery (the seed path): every rank is a thread of
    /// this process.
    Local,
    /// Multiple processes exchanging frames over length-prefixed
    /// sockets; worlds may span hosts.
    Tcp,
}

impl Backend {
    /// The backend's canonical flag/env spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Local => "local",
            Backend::Tcp => "tcp",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "local" => Ok(Backend::Local),
            "tcp" => Ok(Backend::Tcp),
            "shm" => Err(
                "backend \"shm\" (file channels) is gone; tcp is the one cross-process \
                 backend (expected local|tcp)"
                    .to_string(),
            ),
            other => Err(format!("unknown backend {other:?} (expected local|tcp)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The world topology of a multi-process session: which process hosts
/// which rank.
#[derive(Clone, Debug)]
pub struct Topology {
    world: usize,
    nprocs: usize,
    me: usize,
    /// Global rank -> hosting process.
    rank_proc: Vec<u32>,
}

impl Topology {
    /// Balanced contiguous block mapping: process `i` hosts ranks
    /// `[i*world/nprocs, (i+1)*world/nprocs)`.
    pub fn blocks(world: usize, nprocs: usize, me: usize) -> Topology {
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

    /// Explicit rank→process mapping (the `MP_RANK_PROCS` form).
    pub fn explicit(rank_proc: Vec<u32>, nprocs: usize, me: usize) -> Topology {
        assert!(
            !rank_proc.is_empty(),
            "an SPMD world needs at least one rank"
        );
        assert!(nprocs > 0 && me < nprocs, "proc {me} of {nprocs}");
        for (r, &p) in rank_proc.iter().enumerate() {
            assert!(
                (p as usize) < nprocs,
                "rank {r} mapped to proc {p} of {nprocs}"
            );
        }
        Topology {
            world: rank_proc.len(),
            nprocs,
            me,
            rank_proc,
        }
    }

    /// Total ranks in the world.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Number of processes the world spans.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// This process's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// The process hosting global rank `rank`.
    pub fn proc_of(&self, rank: usize) -> usize {
        self.rank_proc[rank] as usize
    }

    /// Whether global rank `rank` lives in this process.
    pub fn resident(&self, rank: usize) -> bool {
        self.rank_proc[rank] as usize == self.me
    }

    /// The global ranks resident in this process, ascending.
    pub fn resident_ranks(&self) -> Vec<usize> {
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
    /// Which backend this is (diagnostics).
    fn backend(&self) -> Backend;
}

/// One process's membership in a multi-process world.
pub(crate) struct Session {
    pub(crate) topo: Topology,
    backend: Backend,
    transport: Box<dyn Transport>,
    state: Mutex<SessState>,
    cv: Condvar,
    /// Data frames sent / received by this process (all epochs): the
    /// conservation check behind the cross-process deadlock detector.
    data_sent: AtomicU64,
    data_recvd: AtomicU64,
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
    /// The backend the session runs on. For a single-process session the
    /// *transport* degenerates to local even when `tcp` was asked for;
    /// this reports what is actually carrying frames.
    pub fn backend(&self) -> Backend {
        if self.sess.topo.nprocs == 1 {
            self.sess.transport.backend()
        } else {
            self.sess.backend
        }
    }

    /// This process's index.
    pub fn index(&self) -> usize {
        self.sess.topo.me
    }

    /// Number of processes in the world.
    pub fn nprocs(&self) -> usize {
        self.sess.topo.nprocs
    }

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
/// handle to it. Returns `None` when no multi-process backend is
/// requested (`MP_BACKEND` unset or `local`) — the process then runs
/// every rank in-process as always. Subsequent calls return the same
/// session; the environment is read once.
///
/// Worker binaries call this at startup, *before* any [`crate::run`]:
/// the session changes `run`'s contract (it returns only resident
/// ranks' results), so installation is explicit rather than ambient.
pub fn init_from_env() -> Option<Proc> {
    SESSION
        .get_or_init(|| build_session_from_env().map(Arc::new))
        .as_ref()
        .map(|sess| Proc {
            sess: Arc::clone(sess),
        })
}

/// The installed session handle, if any ([`init_from_env`] ran and found
/// a backend).
pub fn active() -> Option<Proc> {
    session().map(|sess| Proc { sess })
}

/// Panics when a multi-process session is installed: the traced, virtual,
/// checked and cooperative run paths are single-process by design (they
/// all need global visibility — a full trace, a global clock, a whole
/// wait-for graph, a shared scheduler — that one process of a larger
/// world cannot have).
pub(crate) fn assert_no_session(what: &str) {
    assert!(
        session().is_none(),
        "mp: {what} is not available under a multiprocess session \
         (worlds spanning processes support plain run() only)"
    );
}

fn env_usize(name: &str) -> usize {
    let v = std::env::var(name)
        .unwrap_or_else(|_| panic!("mp transport: {name} must be set alongside {ENV_BACKEND}"));
    v.parse()
        .unwrap_or_else(|_| panic!("mp transport: {name}={v:?} is not a number"))
}

fn build_session_from_env() -> Option<Session> {
    let backend = match std::env::var(ENV_BACKEND) {
        Ok(v) if !v.is_empty() && v != "local" => v
            .parse::<Backend>()
            .unwrap_or_else(|e| panic!("mp transport: {ENV_BACKEND}: {e}")),
        _ => return None,
    };
    let world = env_usize(ENV_WORLD_SIZE);
    let nprocs = env_usize(ENV_NPROCS);
    let me = env_usize(ENV_PROC);
    let topo = match std::env::var(ENV_RANK_PROCS) {
        Ok(map) => {
            let rank_proc: Vec<u32> = map
                .split(',')
                .map(|t| {
                    t.trim().parse().unwrap_or_else(|_| {
                        panic!("mp transport: bad {ENV_RANK_PROCS} entry {t:?}")
                    })
                })
                .collect();
            assert_eq!(
                rank_proc.len(),
                world,
                "mp transport: {ENV_RANK_PROCS} must name a proc for each of the {world} ranks"
            );
            Topology::explicit(rank_proc, nprocs, me)
        }
        Err(_) => Topology::blocks(world, nprocs, me),
    };
    let dir = std::path::PathBuf::from(std::env::var(ENV_WORLD_DIR).unwrap_or_else(|_| {
        panic!("mp transport: {ENV_WORLD_DIR} must point at the session directory")
    }));
    let transport: Box<dyn Transport> = if nprocs == 1 {
        Box::new(local::LocalTransport)
    } else {
        match backend {
            Backend::Local => unreachable!("local returns above"),
            Backend::Tcp => Box::new(tcp::TcpTransport::connect(&dir, me, nprocs)),
        }
    };
    let sess = Session {
        topo,
        backend,
        transport,
        state: Mutex::new(SessState::default()),
        cv: Condvar::new(),
        data_sent: AtomicU64::new(0),
        data_recvd: AtomicU64::new(0),
    };
    Some(sess)
}

/// Spawns the session's pump thread. Called once, after the session Arc
/// exists (the pump holds a clone). Detached on purpose: it serves the
/// whole process lifetime and exits with it.
fn spawn_pump(sess: &Arc<Session>) {
    static PUMP_STARTED: OnceLock<()> = OnceLock::new();
    let sess = Arc::clone(sess);
    PUMP_STARTED.get_or_init(move || {
        if sess.topo.nprocs > 1 {
            std::thread::Builder::new()
                .name("mp-transport-pump".to_string())
                .spawn(move || pump(&sess))
                .expect("mp transport: cannot spawn the pump thread");
        }
    });
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
                        if let Some(insp) = &world.inspector {
                            insp.set_poison(diagnosis);
                        }
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

/// Runs one epoch of the session's world: spawns rank threads for the
/// resident ranks, routes non-resident traffic over the transport, and
/// returns the resident ranks' results in ascending rank order.
pub(crate) fn run_multiproc<R, F>(sess: &Arc<Session>, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert_eq!(
        n, sess.topo.world,
        "mp: run({n}) under a multiprocess session with world size {} — \
         the world size is fixed by the launcher",
        sess.topo.world
    );
    spawn_pump(sess);
    let residents = sess.topo.resident_ranks();
    // Every multiprocess world is instrumented: the cross-process
    // deadlock detector needs wait edges, and a poison channel is the
    // only way to unwind ranks blocked on a peer process that died.
    // The ring is kept tiny — event history belongs to `run_checked`.
    let settings = Settings {
        ring_capacity: 16,
        ..Settings::default()
    };
    let inspector = Arc::new(Inspector::new(n, settings, None));
    let mut world = World::new(n, false, Some(Arc::clone(&inspector)), None);
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
    world.remote = Some(RemoteWorld {
        sess: Arc::clone(sess),
        epoch,
    });
    let world = Arc::new(world);
    let outcomes = {
        // Dropped in reverse order on every path out, a rank-spawn failure
        // included: the monitor stops first, then the epoch ends.
        let _epoch = install_world(sess, epoch, &world);
        let _monitor = spawn_monitor(sess, epoch, &world, &inspector, &residents);
        let outcomes = crate::runtime::spawn_caught_ranks(&world, &residents, &f);

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

    // Report as the single-process checked path does (nobody reads the
    // log): a deadlock diagnosis first, then real rank panics.
    check::Checked::from_outcomes(&residents, outcomes, world.run_log())
        .sink_then_propagate(&|_| ())
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
    let timeout = crate::mailbox::deadlock_timeout();
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

/// Spawns the per-process monitor: it detects local stability (every
/// resident unfinished rank parked, activity quiet, no wake in flight),
/// publishes the serialized wait snapshot to process 0, and — on process
/// 0 — aggregates the global diagnosis. It ends when the returned guard
/// drops, or the run is poisoned and there is nothing left to watch.
fn spawn_monitor(
    sess: &Arc<Session>,
    epoch: u32,
    world: &Arc<World>,
    insp: &Arc<Inspector>,
    residents: &[usize],
) -> check::Detector {
    let (sess, world, residents) = (Arc::clone(sess), Arc::clone(world), residents.to_vec());
    let mut quiet = check::QuietPolls::default();
    let (mut gen, mut published) = (0u64, false);
    check::Detector::spawn("mp-proc-monitor", Arc::clone(insp), move |insp| {
        if insp.poisoned().is_some() {
            return false;
        }
        if !quiet.poll(insp, &residents) {
            published = false;
        } else if !published {
            let Some(waits) = check::snapshot_ranks(&world, insp, &residents) else {
                quiet.reset(); // a wake was in flight after all
                return true;
            };
            let lanes = residents
                .iter()
                .flat_map(|&r| world.mailboxes[r].inventory());
            // Counter sampling order matters: activity after the
            // snapshot, so any wake between snapshot and the confirm
            // round shows up as a counter change.
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
            try_global_diagnosis(&sess, epoch, insp);
        }
        true
    })
}

/// Process 0's aggregation step: with a stable report from every process
/// and balanced global data-frame counters, run a confirm round and — if
/// every snapshot is still current — assemble and broadcast the global
/// deadlock diagnosis.
fn try_global_diagnosis(sess: &Arc<Session>, epoch: u32, insp: &Inspector) {
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
        insp.poll_sleep();
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
    insp.set_poison(diagnosis);
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

    /// A session over the local transport, never installed process-wide.
    fn local_session(topo: Topology) -> Arc<Session> {
        Arc::new(Session {
            topo,
            backend: Backend::Local,
            transport: Box::new(local::LocalTransport),
            state: Mutex::new(SessState::default()),
            cv: Condvar::new(),
            data_sent: AtomicU64::new(0),
            data_recvd: AtomicU64::new(0),
        })
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
                let run = || run_multiproc(&sess, 4, |comm| comm.rank());
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            })
            .expect_err("the spawn cannot succeed");
            let msg = crate::runtime::panic_message(&*err);
            assert!(msg.starts_with("mp: cannot spawn rank 0 of 4"), "{msg}");
        }
        assert_eq!(
            run_multiproc(&sess, 4, |comm| comm.rank()),
            vec![0, 1, 2, 3]
        );
    }

    /// Ghost words have no bytes to frame: a length-only payload bound
    /// for another process stops at the transport, named.
    #[test]
    #[should_panic(
        expected = "length-only payload of 32 bytes from rank 0 to rank 1, tag 0x7 cannot be framed"
    )]
    fn a_length_only_payload_never_reaches_a_frame() {
        let remote = RemoteWorld {
            sess: local_session(Topology::explicit(vec![0, 1], 2, 0)),
            epoch: 0,
        };
        let msg = Message {
            src: 0,
            full_tag: crate::msg::pack_tag(0, 7),
            data: Payload::encode(&[crate::Ghost::<8>; 4]),
            arrival: None,
        };
        remote.send_data(1, &msg);
    }

    #[test]
    fn one_proc_hosts_everything() {
        let t = Topology::blocks(4, 1, 0);
        assert_eq!(t.resident_ranks(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn explicit_topology_round_robin() {
        let t = Topology::explicit(vec![0, 1, 0, 1], 2, 0);
        assert_eq!(t.resident_ranks(), vec![0, 2]);
        assert!(!t.resident(1));
    }

    #[test]
    fn backend_parses_both_ways() {
        for b in [Backend::Local, Backend::Tcp] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("rdma".parse::<Backend>().is_err());
        // The deleted file-channel backend is refused by name, with its
        // replacement: `--backend` and `MP_BACKEND` both parse through here.
        let refusal = "shm".parse::<Backend>().expect_err("shm is gone");
        assert!(
            refusal.contains("tcp") && refusal.contains("local|tcp"),
            "{refusal}"
        );
    }
}

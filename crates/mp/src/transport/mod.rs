//! Cross-process message delivery: one matching-semantics contract, one
//! wire.
//!
//! Everything above message delivery — `Payload`,
//! per-(src, comm, tag) mailboxes with non-overtaking wildcard matching,
//! rendezvous, the collectives, `mp::check` instrumentation — is
//! transport-agnostic: a send terminates in
//! `World::deliver`, and `deliver`
//! routes on *residency*:
//!
//! * the destination rank lives in this process: the message is pushed
//!   straight into its mailbox, exactly the seed runtime's path;
//! * the destination rank lives in another process, on this host or
//!   another: the message is framed (`wire`) and goes over a
//!   length-prefixed socket (see `tcp`). A receive blocks on a stream,
//!   it never polls a file.
//!
//! # Sessions, worlds and epochs
//!
//! A *session* is this process's membership in a world of at least two
//! processes: process index, the block rank→process map and a
//! `Transport`. The process count is the only way to ask for one. It is
//! installed explicitly from the environment ([`init_from_env`]) — the
//! variables are wired by the [`launcher`] — and every subsequent [`crate::run`]
//! call in the process becomes one *epoch* of that world: all processes
//! must call `run` with the same world size in the same order (the SPMD
//! discipline, process-level). Each epoch, `run` spawns rank threads for
//! the ranks *resident* in this process and returns only their results.
//!
//! Epoch teardown uses a flush barrier: once its residents have finished,
//! each process sends a `Barrier` frame to every peer and waits for theirs.
//! Channels are FIFO, so receipt of a peer's barrier proves every data
//! frame that peer sent this epoch has already been buffered — no frame
//! can leak into the next epoch.
//!
//! # Cross-process deadlock detection
//!
//! Every thread world keeps a runnable count (`runtime::Runnable`), a
//! fleet's epoch too: at zero no resident can run until a data frame from
//! another process fills a receive, or the world is poisoned. Frames in
//! flight are invisible to a local count, so the thread that launched an
//! epoch's residents is the process's monitor: every `POLL` (10 ms), and
//! whenever the pump hands it control traffic, it samples the count. At
//! zero, and moved since its last report, it snapshots its residents' wait
//! edges (read from their mailboxes' posted receives holding an unfired
//! waker) under the session lock, which the pump holds while it delivers
//! and counts a frame, and sends them to process 0 as a `Stable` control
//! frame. Process 0 aggregates: when every process has reported, some rank
//! is blocked, the global sent/received data-frame counts balance (no frame
//! in flight — the classic counting method for distributed termination
//! detection), and a `Confirm`/`ConfirmAck` round proves every process
//! still has no runnable resident and the counts it reported, it assembles
//! the global wait-for graph, reuses the single-process cycle finder, and
//! broadcasts the [`Deadlock`] as a `Poison` frame
//! — blocked ranks on every process unwind with the diagnosis naming the
//! cycle. The tick bounds reports at 100 a second per process; a report
//! sent the moment the count reached zero would cost a tcp ping-pong one
//! control frame per round trip.
//!
//! Once every resident has finished, the monitor sends the flush barrier
//! and watches on — process 0 aggregating — until every peer's is in. A
//! peer whose connection ends before it flushed the live epoch is *lost*:
//! the pump poisons the epoch with a diagnosis naming the peer, the epoch
//! and the last frame that came from it, and the barrier stops waiting for
//! it. A peer that closes after its barrier has left normally.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::check::{self, Deadlock, Settings};
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

/// How often a fleet process's monitor samples its residents' runnable
/// count.
const POLL: Duration = Duration::from_millis(10);

/// How long process 0 waits for a confirm round's acks before it tries
/// again on a later tick.
const ACK_TIMEOUT: Duration = Duration::from_millis(500);

/// How long an epoch's flush barrier waits for a peer that is still
/// connected (a lost one is named at once).
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
/// block briefly (a socket write) but never deadlocks against `recv`.
pub(crate) trait Transport: Send + Sync {
    /// Sends `frame` to process `dst_proc`. FIFO with respect to every
    /// other send from this process to `dst_proc`.
    fn send(&self, dst_proc: usize, frame: &Frame);
    /// Waits for the next frame from any peer, or for a peer whose
    /// connection ended; `None` once every peer's has.
    fn recv(&self) -> Option<Result<Frame, LostPeer>>;
}

/// A peer whose connection ended: what ended it, and the kind and epoch
/// of the last frame that came over it.
pub(crate) struct LostPeer {
    pub(crate) peer: usize,
    pub(crate) error: String,
    pub(crate) last: Option<(FrameKind, u32)>,
}

impl LostPeer {
    /// Names the loss in the diagnosis of `epoch`, which it stalled.
    fn describe(&self, epoch: u32) -> String {
        let last = match self.last {
            Some((kind, e)) => format!("the last frame from it was {kind:?} of epoch {e}"),
            None => "no frame came from it".to_string(),
        };
        let (peer, error) = (self.peer, &self.error);
        format!("proc {peer} left epoch {epoch} before its flush barrier ({error}); {last}")
    }
}

/// One process's membership in a multi-process world.
pub(crate) struct Session {
    topo: Topology,
    transport: Box<dyn Transport>,
    state: Mutex<SessState>,
    cv: Condvar,
    /// Data frames sent by this process (all epochs): the send side of the
    /// conservation check behind the cross-process deadlock detector.
    data_sent: AtomicU64,
}

impl Session {
    fn new(topo: Topology, transport: Box<dyn Transport>) -> Session {
        let nprocs = topo.nprocs;
        Session {
            topo,
            transport,
            state: Mutex::new(SessState {
                next_epoch: 0,
                current: None,
                pending: HashMap::new(),
                recvd: 0,
                flushed: vec![0; nprocs],
                lost: (0..nprocs).map(|_| None).collect(),
                reports: HashMap::new(),
                round: 0,
                acks: HashMap::new(),
            }),
            cv: Condvar::new(),
            data_sent: AtomicU64::new(0),
        }
    }
}

struct SessState {
    next_epoch: u32,
    current: Option<(u32, Arc<World>)>,
    /// Data frames for epochs this process has not installed yet.
    pending: HashMap<u32, Vec<(usize, Message)>>,
    /// Data frames received by this process (all epochs), each counted
    /// under this lock as it is delivered or stashed: the receive side of
    /// the conservation check.
    recvd: u64,
    /// Per process, the epochs it has flushed: its barriers received.
    flushed: Vec<u32>,
    /// Per process, how its connection ended, if it has.
    lost: Vec<Option<LostPeer>>,
    /// Latest stall report per process (process 0 only), tagged with the
    /// epoch it was taken in.
    reports: HashMap<usize, (u32, StableReport)>,
    /// The last confirm round process 0 started, and the acks to its
    /// rounds per process: (round, idle, sent, recvd).
    round: u64,
    acks: HashMap<usize, (u64, bool, u64, u64)>,
}

impl SessState {
    /// Whether every peer of process `me` has flushed `epoch`, or left.
    fn peers_flushed(&self, me: usize, epoch: u32) -> bool {
        let left = |p: usize| self.flushed[p] > epoch || self.lost[p].is_some();
        (0..self.flushed.len()).all(|p| p == me || left(p))
    }

    /// Poisons `world`, epoch `epoch`, if a peer was lost before it
    /// flushed that epoch: the diagnosis names the peer, the epoch and the
    /// last frame that came from it, beside the residents' waits.
    fn poison_if_lost(&self, epoch: u32, world: &World) {
        let mut peers = self.lost.iter().zip(&self.flushed);
        let unflushed =
            peers.find_map(|(lost, &flushed)| lost.as_ref().filter(|_| flushed <= epoch));
        if let Some(lost) = unflushed {
            let stall = Arc::unwrap_or_clone(check::diagnose(world));
            let lost = Some(lost.describe(epoch));
            world.poison(Arc::new(Deadlock { lost, ..stall }));
        }
    }
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
/// Detached on purpose: it serves the session until every peer is gone.
fn spawn_pump(sess: &Arc<Session>) {
    let sess = Arc::clone(sess);
    std::thread::Builder::new()
        .name("mp-transport-pump".to_string())
        .spawn(move || pump(&sess))
        .expect("mp transport: cannot spawn the pump thread");
}

/// The receive pump: drains the transport and dispatches frames — data
/// into mailboxes (or the pending stash for not-yet-installed epochs),
/// control frames into the session/detector state — and lost peers, until
/// every peer is gone.
fn pump(sess: &Session) {
    while let Some(incoming) = sess.transport.recv() {
        match incoming {
            Ok(frame) => dispatch(sess, frame),
            Err(lost) => lose_peer(sess, lost),
        }
    }
}

/// Dispatches one frame (see [`pump`]); control state that a monitor
/// waits for is announced on the session condvar.
fn dispatch(sess: &Session, frame: Frame) {
    let src_proc = frame.src_proc as usize;
    let mut st = sess.state.lock();
    match frame.kind {
        FrameKind::Data => {
            let dst = frame.b as usize;
            let msg = Message {
                src: frame.a as usize,
                full_tag: frame.c,
                data: Payload::from_vec(frame.payload),
                arrival: None,
            };
            match &st.current {
                Some((epoch, world)) if *epoch == frame.epoch => world.deliver(dst, msg),
                Some((epoch, _)) if *epoch > frame.epoch => {
                    panic!(
                        "mp transport: stale data frame for epoch {} while epoch {} is live \
                         (flush-barrier protocol violated)",
                        frame.epoch, epoch
                    );
                }
                _ => st.pending.entry(frame.epoch).or_default().push((dst, msg)),
            }
            // Delivered and counted under the lock a monitor's snapshot
            // holds: no report straddles a delivery.
            st.recvd += 1;
            return;
        }
        FrameKind::Barrier => st.flushed[src_proc] = frame.epoch + 1,
        FrameKind::Stable => {
            let report = wire::decode_report(&frame.payload);
            st.reports.insert(src_proc, (frame.epoch, report));
        }
        FrameKind::Confirm => {
            // Reply with the state as of now, every earlier frame
            // delivered; proc 0 compares it against the snapshot it is
            // trying to confirm.
            let idle = match &st.current {
                Some((epoch, world)) => *epoch == frame.epoch && world.runnable().idle(),
                None => false, // no such epoch here: never confirms
            };
            let ack = Frame {
                a: frame.a, // the round
                b: idle.into(),
                c: sess.data_sent.load(Ordering::Acquire),
                payload: st.recvd.to_le_bytes().to_vec(),
                ..Frame::control(FrameKind::ConfirmAck, frame.epoch, sess.topo.me as u32)
            };
            drop(st);
            sess.transport.send(src_proc, &ack);
            return;
        }
        FrameKind::ConfirmAck => {
            let recvd = frame.payload[..8].try_into().expect("8-byte ack payload");
            let ack = (frame.a, frame.b == 1, frame.c, u64::from_le_bytes(recvd));
            st.acks.insert(src_proc, ack);
        }
        FrameKind::Poison => {
            let world = match &st.current {
                Some((epoch, world)) if *epoch == frame.epoch => Arc::clone(world),
                _ => return,
            };
            drop(st);
            world.poison(Arc::new(wire::decode_deadlock(&frame.payload)));
            return;
        }
        FrameKind::Hello => return, // connection setup, inside the transport
    }
    drop(st);
    sess.cv.notify_all();
}

/// A peer's connection ended. One that flushed the live epoch has left
/// normally; otherwise that epoch can never complete and is poisoned,
/// naming the peer — as is any later epoch, when it is installed.
fn lose_peer(sess: &Session, lost: LostPeer) {
    let mut st = sess.state.lock();
    let peer = lost.peer;
    st.lost[peer] = Some(lost);
    if let Some((epoch, world)) = &st.current {
        st.poison_if_lost(*epoch, world);
    }
    drop(st);
    sess.cv.notify_all();
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

    /// The epoch's monitor (see the module docs), run by the thread that
    /// launched its residents; returns once the flush barrier is in.
    pub(crate) fn monitor(&self, world: &World) {
        monitor(&self.sess, self.epoch, world);
    }

    /// Wakes the epoch's monitor: every resident has finished.
    pub(crate) fn wake_monitor(&self) {
        let _state = self.sess.state.lock();
        self.sess.cv.notify_all();
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
            a: msg.src as u64,
            b: dst as u64,
            c: msg.full_tag,
            payload: payload.to_vec(),
            ..Frame::control(FrameKind::Data, self.epoch, self.sess.topo.me as u32)
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
    // Every multiprocess world is instrumented, though wait edges come
    // from the mailboxes and poison works without an inspector: it only
    // adds the collective call sites to a diagnosis. The ring is kept
    // tiny — event history belongs to `run_checked`.
    let check = Some((Settings { ring_capacity: 16 }, None));
    let world = Arc::new(World::new(n, Engine::Threads, None, check, Some(remote)));
    let outcomes = {
        // Dropped on every path out, a rank-spawn failure included. The
        // launching thread monitors the epoch until its flush barrier is
        // in (`RemoteWorld::monitor`).
        let _epoch = install_world(sess, epoch, &world);
        rank_threads(&world, &residents, f)
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
        st.reports.retain(|_, (epoch, _)| *epoch > self.epoch);
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
    for (dst, msg) in st.pending.remove(&epoch).unwrap_or_default() {
        world.deliver(dst, msg);
    }
    st.poison_if_lost(epoch, world);
    Epoch { sess, epoch }
}

// ---------------------------------------------------------------------
// The cross-process stall monitor
// ---------------------------------------------------------------------

/// The monitor of epoch `epoch` (see the module docs): once per [`POLL`],
/// or sooner when the pump announces control traffic, it reports this
/// process's stall, sends the flush barrier once every resident has
/// finished and, on process 0, aggregates; it returns once every peer's
/// barrier is in, or its peer is lost.
fn monitor(sess: &Session, epoch: u32, world: &World) {
    let (me, runnable) = (sess.topo.me, world.runnable());
    let residents = sess.topo.resident_ranks();
    let (mut gen, mut reported, mut flushed) = (0, None, false);
    let mut waited = Duration::ZERO;
    loop {
        // No resident can run, and something moved since the last report:
        // at zero only a delivered frame moves anything, and the pump
        // delivers and counts it under the lock the snapshot holds.
        let st = sess.state.lock();
        let counters = (sess.data_sent.load(Ordering::Acquire), st.recvd);
        if world.poisoned().is_none() && runnable.idle() && reported != Some(counters) {
            (reported, gen) = (Some(counters), gen + 1);
            let lanes = residents
                .iter()
                .flat_map(|&r| world.mailboxes[r].inventory());
            let report = StableReport {
                gen,
                sent: counters.0,
                recvd: counters.1,
                waits: check::snapshot_ranks(world, &residents),
                inventory: lanes.collect(),
            };
            drop(st);
            publish(sess, epoch, report);
        } else {
            drop(st);
        }
        if !flushed && runnable.finished() {
            // FIFO channels: every data frame this process sent in the
            // epoch precedes its barrier.
            flushed = true;
            let barrier = Frame::control(FrameKind::Barrier, epoch, me as u32);
            for p in (0..sess.topo.nprocs).filter(|&p| p != me) {
                sess.transport.send(p, &barrier);
            }
        }
        if me == 0 && world.poisoned().is_none() {
            try_global_diagnosis(sess, epoch, world);
        }
        let mut st = sess.state.lock();
        if flushed && st.peers_flushed(me, epoch) {
            return;
        }
        if !flushed {
            // Unless a resident finished since: then the barrier is due.
            if !runnable.finished() {
                sess.cv.wait_for(&mut st, POLL);
            }
        } else if sess.cv.wait_for(&mut st, POLL).timed_out() {
            waited += POLL;
            if waited >= BARRIER_TIMEOUT {
                let peers = sess.topo.nprocs - 1;
                let arrived = st.flushed.iter().filter(|&&f| f > epoch).count();
                panic!(
                    "mp transport: flush barrier for epoch {epoch} timed out after \
                     {BARRIER_TIMEOUT:?} ({arrived} of {peers} peer barriers arrived)"
                );
            }
        }
    }
}

/// Hands process 0 this process's stall report.
fn publish(sess: &Session, epoch: u32, report: StableReport) {
    let me = sess.topo.me;
    if me == 0 {
        sess.state.lock().reports.insert(0, (epoch, report));
    } else {
        let frame = Frame {
            payload: wire::encode_report(&report),
            ..Frame::control(FrameKind::Stable, epoch, me as u32)
        };
        sess.transport.send(0, &frame);
    }
}

/// Process 0's aggregation step: with a stall report from every process,
/// some rank blocked and balanced global data-frame counters, run a
/// confirm round and — if every process still has no runnable resident
/// and the counters it reported — assemble and broadcast the global
/// deadlock diagnosis. A process whose report went stale loses it until it
/// sends a fresh one.
fn try_global_diagnosis(sess: &Session, epoch: u32, world: &World) {
    let nprocs = sess.topo.nprocs;
    let (reports, round) = {
        let mut st = sess.state.lock();
        let of = |p| match st.reports.get(&p) {
            Some((e, report)) if *e == epoch => Some(report.clone()),
            _ => None,
        };
        let Some(reports) = (0..nprocs).map(of).collect::<Option<Vec<_>>>() else {
            return; // not every process has stalled yet
        };
        let sent: u64 = reports.iter().map(|r| r.sent).sum();
        let recvd: u64 = reports.iter().map(|r| r.recvd).sum();
        if sent != recvd || reports.iter().all(|r| r.waits.is_empty()) {
            return; // data frames in flight, or every rank has finished
        }
        st.round += 1;
        (reports, st.round)
    };
    for p in 1..nprocs {
        let confirm = Frame {
            a: round,
            ..Frame::control(FrameKind::Confirm, epoch, 0)
        };
        sess.transport.send(p, &confirm);
    }
    let mut st = sess.state.lock();
    let mut waited = Duration::ZERO;
    while !(1..nprocs).all(|p| st.acks.get(&p).is_some_and(|ack| ack.0 == round)) {
        if waited >= ACK_TIMEOUT || world.poisoned().is_some() {
            return; // a later tick tries again, or a lost peer ended it
        }
        if sess.cv.wait_for(&mut st, POLL).timed_out() {
            waited += POLL;
        }
    }
    let mine = (
        round,
        world.runnable().idle(),
        sess.data_sent.load(Ordering::Acquire),
        st.recvd,
    );
    let stale: Vec<usize> = (0..nprocs)
        .filter(|&p| {
            let (_, idle, sent, recvd) = if p == 0 { mine } else { st.acks[&p] };
            !(idle && sent == reports[p].sent && recvd == reports[p].recvd)
        })
        .collect();
    if !stale.is_empty() {
        for p in stale {
            let taken = |(e, r): &(u32, StableReport)| *e == epoch && r.gen == reports[p].gen;
            if st.reports.get(&p).is_some_and(taken) {
                st.reports.remove(&p);
            }
        }
        return;
    }
    drop(st);
    // A genuine global stall: assemble the world-wide diagnosis.
    let diagnosis = Arc::new(Deadlock::from_waits(
        sess.topo.world,
        reports.iter().flat_map(|r| r.waits.clone()).collect(),
        reports.iter().flat_map(|r| r.inventory.clone()).collect(),
    ));
    let payload = wire::encode_deadlock(&diagnosis);
    for p in 1..nprocs {
        let poison = Frame {
            payload: payload.clone(),
            ..Frame::control(FrameKind::Poison, epoch, 0)
        };
        sess.transport.send(p, &poison);
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

        fn recv(&self) -> Option<Result<Frame, LostPeer>> {
            None
        }
    }

    /// A session over the local transport, never installed process-wide.
    fn local_session(topo: Topology) -> Arc<Session> {
        Arc::new(Session::new(topo, Box::new(LocalTransport)))
    }

    /// The session leg of `runtime::tests::spawn_failure_names_the_rank`:
    /// a rank-spawn failure under a session panics with the spawn error
    /// and *returns*, and it ends the epoch — the
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

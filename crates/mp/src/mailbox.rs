//! Per-rank incoming-message queues with MPI-style (source, tag) matching.
//!
//! The mailbox is *indexed*: messages live in per-`(source, comm, tag)`
//! lanes (hash-addressed, FIFO within a lane — MPI's non-overtaking
//! guarantee by construction) and every message carries a global arrival
//! sequence number, so wildcard receives fall back to a scan over lane
//! fronts in true arrival order. Blocked receivers register in a
//! posted-receive table; a matching send fills the oldest matching posted
//! receive in place, under the one mailbox lock, and wakes its receiver:
//! the parked waker of a cooperative task, the wake word a rank thread is
//! watching, or the mailbox condvar when that thread is parked on it. A
//! mailbox is only ever waited on by the rank that owns it, so one word
//! and one condvar per mailbox wake exactly the receiver — and a send to
//! a world with no waiting thread (every cooperative world) costs no
//! allocation, no second lock, no atomic write and no `notify` syscall
//! per receive.
//!
//! A rank thread waits *spin-then-park* (see
//! [`wait_ticket`](Mailbox::wait_ticket)): it watches the wake word for
//! [`SPIN_BUDGET`] before it parks, so a short message never pays a futex
//! wake — when, and only when, the world's ranks each have a CPU.
//!
//! Posted receives may also carry a destination byte buffer sized to the
//! expected message: a large send that finds such a posted receive encodes
//! its payload straight into that buffer — the rendezvous fast path (see
//! [`rendezvous_send`](Mailbox::rendezvous_send)).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::check::{Event, Inspector, LaneInfo, WaitOn};
use crate::coop::{ScheduleController, WildcardCandidate};
use crate::datatype::Word;
use crate::msg::{Match, Message};
use crate::payload::Payload;

/// Wake interval of instrumented waits: short enough that a detector
/// poison is noticed promptly, long enough to stay off the hot path.
const INSTRUMENTED_WAIT_SLICE: Duration = Duration::from_millis(25);

/// How long a rank thread watches its mailbox's wake word before it parks
/// on the condvar, in a world whose ranks each have a CPU (the runtime
/// hands a mailbox this or zero, see `runtime::receives_spin`). A park and
/// its cross-CPU futex wake cost about 16 µs on the 2-vCPU reference
/// container, so the budget is three of them: a reply that is on its way
/// is caught (8 B ping-pong 17.8 → 1.8 µs), a peer that is busy computing
/// costs its waiter 50 µs of one CPU and then nothing. Not a tuning
/// surface: 15, 50 and 200 µs measured the same.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Wake-word polls between two reads of the clock while spinning.
const SPIN_POLLS_PER_CLOCK_READ: u32 = 64;

/// Default for how long a blocking receive waits before declaring a
/// deadlock: generous in production builds, short under `cfg(test)` so a
/// deadlocked test fails in seconds instead of hanging CI for five
/// minutes per rank.
#[cfg(not(test))]
const DEFAULT_DEADLOCK_TIMEOUT_SECS: u64 = 300;
#[cfg(test)]
const DEFAULT_DEADLOCK_TIMEOUT_SECS: u64 = 20;

/// How long a blocking receive waits before declaring a deadlock.
///
/// A correct SPMD program never waits this long for an in-process message;
/// the timeout converts silent hangs into actionable panics. Overridable
/// via the `MP_DEADLOCK_TIMEOUT_SECS` environment variable, which is read
/// on *every* wait (not cached into a process-wide static): tests and
/// long-running drivers may legitimately adjust the timeout between runs,
/// and a stale first-read value would silently win. Once per wait, and
/// only by a wait about to park — the read takes the process environment
/// lock and allocates. Unparsable values fall back to the default.
pub(crate) fn deadlock_timeout() -> Duration {
    let secs = std::env::var("MP_DEADLOCK_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_DEADLOCK_TIMEOUT_SECS);
    Duration::from_secs(secs)
}

/// Lane address: (global source rank, packed comm id + tag).
type LaneKey = (usize, u64);

/// A nonempty FIFO lane of unexpected messages. Most lanes hold exactly
/// one message between a send and its receive, so the front lives inline
/// in the lane table and only a backlog behind it allocates.
struct Lane {
    front: Arrived,
    rest: VecDeque<Arrived>,
}

impl Lane {
    fn one(front: Arrived) -> Lane {
        Lane {
            front,
            rest: VecDeque::new(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Arrived> {
        std::iter::once(&self.front).chain(&self.rest)
    }
}

/// A queued message stamped with its global arrival order.
pub(crate) struct Arrived {
    seq: u64,
    msg: Message,
}

/// One entry in the posted-receive table.
struct PostedRecv {
    id: u64,
    filter: Match,
    /// Rendezvous destination: a buffer of exactly the expected encoded
    /// size that a matching large send writes into directly. Still here
    /// once `arrived` is set if the message came through the eager path
    /// instead; the receiver recycles it.
    buf: Option<Vec<u8>>,
    /// The matched message, once a sender delivers it. A filled entry
    /// stays in the table, invisible to matching, until its receiver
    /// collects it.
    arrived: Option<Arrived>,
    /// Waker of a cooperative task blocked on this receive; the sender
    /// takes and fires it on fill.
    waker: Option<Waker>,
}

impl PostedRecv {
    /// Completes this receive with its matched message and fires the
    /// waker parked on it, if any.
    fn fill(&mut self, arrived: Arrived) {
        self.arrived = Some(arrived);
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }
}

#[derive(Default)]
struct Inner {
    /// Per-(source, comm+tag) FIFO lanes of unexpected messages.
    lanes: HashMap<LaneKey, Lane>,
    /// Global arrival counter (stamps wildcard ordering).
    seq: u64,
    /// Queued message count across all lanes.
    queued: usize,
    /// Posted receives in posting order (the MPI matching order).
    posted: Vec<PostedRecv>,
    next_posted_id: u64,
    /// Threads parked on the mailbox condvar. Counted under this lock
    /// just before a wait releases it, so a sender that fills a posted
    /// receive knows whether anyone needs the signal.
    parked: usize,
    /// Threads watching the wake word, announced the same way: a sender
    /// moves the word only when this is nonzero.
    spinning: usize,
    /// Times a rank thread announced itself and watched the wake word.
    /// With `parked_waits`, the first entries of a per-world counter
    /// block: plain counts under the lock the waiter already holds.
    spun: u64,
    /// Times a rank thread parked on the condvar (an instrumented wait
    /// parks once per slice).
    parked_waits: u64,
}

impl Inner {
    /// Removes and returns the oldest queued message matching `filter`,
    /// together with the number of distinct nonempty lanes that matched:
    /// O(1) lane pop for exact filters (candidates = 1), arrival-ordered
    /// scan over lane fronts for wildcards. A wildcard match with two or
    /// more candidate lanes depended on arrival order — the race the
    /// trace lint flags, and the choice point a schedule controller
    /// (`ctl` = controller + receiving rank) enumerates instead of
    /// always taking the oldest.
    fn take_queued(
        &mut self,
        filter: Match,
        ctl: Option<(&Arc<dyn ScheduleController>, usize)>,
    ) -> Option<(Arrived, u32)> {
        let (key, candidates): (LaneKey, u32) = if filter.is_exact() {
            let src = filter.src.expect("exact filter");
            let tag = filter.tag.expect("exact filter");
            ((src, crate::msg::pack_tag(filter.comm_id, tag)), 1)
        } else if let Some((ctl, rank)) = ctl {
            // Controlled wildcard: materialise every matching lane front
            // in arrival order and let the controller pick. Index 0 (the
            // oldest) reproduces the default engine behaviour.
            let mut fronts: Vec<(u64, LaneKey)> = Vec::new();
            for ((src, full_tag), lane) in &self.lanes {
                if filter.accepts_parts(*src, *full_tag) {
                    fronts.push((lane.front.seq, (*src, *full_tag)));
                }
            }
            if fronts.is_empty() {
                return None;
            }
            fronts.sort_unstable_by_key(|&(seq, _)| seq);
            let idx = if fronts.len() >= 2 {
                let cands: Vec<WildcardCandidate> = fronts
                    .iter()
                    .map(|&(seq, (src, full_tag))| WildcardCandidate {
                        src,
                        comm: (full_tag >> 32) as u32,
                        tag: (full_tag & 0xFFFF_FFFF) as u32,
                        seq,
                    })
                    .collect();
                let pick = ctl.pick_wildcard(rank, &cands);
                assert!(
                    pick < cands.len(),
                    "controller wildcard pick {pick} out of range ({} candidates)",
                    cands.len()
                );
                pick
            } else {
                0
            };
            (fronts[idx].1, fronts.len() as u32)
        } else {
            // Wildcard: the oldest matching message overall is the oldest
            // among matching lanes' fronts (lanes are FIFO).
            let mut candidates = 0u32;
            let mut best: Option<(LaneKey, u64)> = None;
            for ((src, full_tag), lane) in &self.lanes {
                if !filter.accepts_parts(*src, *full_tag) {
                    continue;
                }
                candidates += 1;
                let older = match best {
                    None => true,
                    Some((_, seq)) => lane.front.seq < seq,
                };
                if older {
                    best = Some(((*src, *full_tag), lane.front.seq));
                }
            }
            (best?.0, candidates)
        };
        let Entry::Occupied(mut lane) = self.lanes.entry(key) else {
            return None;
        };
        let arrived = match lane.get_mut().rest.pop_front() {
            Some(next) => std::mem::replace(&mut lane.get_mut().front, next),
            None => lane.remove().front,
        };
        self.queued -= 1;
        Some((arrived, candidates))
    }

    /// Reinserts a previously-matched message at the front of its lane;
    /// its original arrival stamp keeps wildcard ordering exact. Only
    /// valid for a message that was the oldest match of its filter (which
    /// every [`take_queued`](Inner::take_queued)/hand-off result is).
    fn requeue_front(&mut self, arrived: Arrived) {
        match self.lanes.entry((arrived.msg.src, arrived.msg.full_tag)) {
            Entry::Occupied(mut lane) => {
                let lane = lane.get_mut();
                let second = std::mem::replace(&mut lane.front, arrived);
                lane.rest.push_front(second);
            }
            Entry::Vacant(slot) => {
                slot.insert(Lane::one(arrived));
            }
        }
        self.queued += 1;
    }

    /// Registers a posted receive and returns its claim ticket.
    fn register(&mut self, filter: Match, buf: Option<Vec<u8>>) -> Ticket {
        let id = self.next_posted_id;
        self.next_posted_id += 1;
        if self.posted.capacity() == 0 {
            // A rank nearly always has exactly one receive posted; the
            // first growth of a `Vec` would take four entries per mailbox.
            self.posted.reserve_exact(1);
        }
        self.posted.push(PostedRecv {
            id,
            filter,
            buf,
            arrived: None,
            waker: None,
        });
        Ticket { id }
    }

    /// The oldest unfilled posted receive accepting `(src, full_tag)` —
    /// the one MPI matching would pick.
    fn oldest_posted(&mut self, src: usize, full_tag: u64) -> Option<&mut PostedRecv> {
        self.posted
            .iter_mut()
            .find(|p| p.arrived.is_none() && p.filter.accepts_parts(src, full_tag))
    }

    /// Table index of the posted receive behind `ticket`.
    fn index_of(&self, ticket: &Ticket) -> usize {
        self.posted
            .iter()
            .position(|p| p.id == ticket.id)
            .expect("a posted receive stays in the table until its ticket resolves")
    }

    /// Removes the posted receive behind `ticket` and returns it.
    fn withdraw(&mut self, ticket: &Ticket) -> PostedRecv {
        let idx = self.index_of(ticket);
        self.posted.remove(idx)
    }

    /// Collects the posted receive behind `ticket` if a sender has filled
    /// it: the message and the rendezvous buffer it did not use, if any.
    /// Otherwise parks `waker` (a task's; threads park on the condvar) in
    /// the entry and returns `None`.
    fn collect(
        &mut self,
        ticket: &Ticket,
        waker: Option<&Waker>,
    ) -> Option<(Arrived, Option<Vec<u8>>)> {
        let idx = self.index_of(ticket);
        if self.posted[idx].arrived.is_none() {
            self.posted[idx].waker = waker.cloned();
            return None;
        }
        let p = self.posted.remove(idx);
        Some((p.arrived.expect("checked above"), p.buf))
    }

    /// Delivers `msg`: to the oldest matching posted receive if there is
    /// one (before lane insertion, so posted receives match in MPI
    /// order), else onto its lane. Returns whether a thread waiting on
    /// the mailbox needs waking.
    fn enqueue(&mut self, msg: Message) -> bool {
        self.seq += 1;
        let arrived = Arrived { seq: self.seq, msg };
        if let Some(posted) = self.oldest_posted(arrived.msg.src, arrived.msg.full_tag) {
            posted.fill(arrived);
            return self.parked + self.spinning > 0;
        }
        match self.lanes.entry((arrived.msg.src, arrived.msg.full_tag)) {
            Entry::Occupied(mut lane) => lane.get_mut().rest.push_back(arrived),
            Entry::Vacant(slot) => {
                slot.insert(Lane::one(arrived));
            }
        }
        self.queued += 1;
        false
    }
}

/// A rank's incoming-message queue (see the module docs).
pub(crate) struct Mailbox {
    inner: Mutex<Inner>,
    /// Signalled when a posted receive is filled while a thread is parked.
    /// `notify_all`, since every waiter re-checks its own ticket: the one
    /// waiter is normally the owning rank's thread, but a communicator
    /// moved to a helper thread could add a second.
    ready: Condvar,
    /// The wake word: moved, under the lock, when a posted receive is
    /// filled while a thread has announced it is watching, and read by
    /// that thread *outside* the lock. It publishes nothing — the watcher
    /// retakes the lock before it looks at its ticket — so every access
    /// is relaxed.
    wake: AtomicU32,
    /// How long a thread watches the wake word before it parks:
    /// [`SPIN_BUDGET`], or zero in a world with more ranks than CPUs.
    spin_budget: Duration,
    /// The owning rank (0 for standalone test mailboxes).
    rank: usize,
    /// Instrumentation registry of a checked run, if any.
    inspector: Option<Arc<Inspector>>,
    /// Schedule controller of a controlled run, if any: picks wildcard
    /// matches and learns about posted receives.
    controller: Option<Arc<dyn ScheduleController>>,
}

/// A registered nonblocking receive: either the message was already
/// queued (taken immediately, arrival stamp kept so cancellation can
/// restore it exactly, candidate-lane count alongside), or a table entry
/// now waits for it. Opaque to callers; resolve with
/// [`Mailbox::complete`] or [`Mailbox::cancel`].
pub(crate) enum PostedHandle {
    Ready(Arrived, u32),
    Pending(Ticket),
}

/// Claim ticket for a pending posted receive.
pub(crate) struct Ticket {
    id: u64,
}

impl Mailbox {
    /// A standalone uninstrumented mailbox whose waits park at once
    /// (unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new() -> Mailbox {
        Mailbox::with_instrumentation(0, None, None, Duration::ZERO)
    }

    /// A mailbox owned by `rank`, instrumented when `inspector` is set
    /// and schedule-controlled when `controller` is set, whose owner
    /// spins for `spin_budget` before it parks.
    pub fn with_instrumentation(
        rank: usize,
        inspector: Option<Arc<Inspector>>,
        controller: Option<Arc<dyn ScheduleController>>,
        spin_budget: Duration,
    ) -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            wake: AtomicU32::new(0),
            spin_budget,
            rank,
            inspector,
            controller,
        }
    }

    /// The controller choice-point context of this mailbox, if any.
    fn ctl(&self) -> Option<(&Arc<dyn ScheduleController>, usize)> {
        self.controller.as_ref().map(|c| (c, self.rank))
    }

    /// Tells the controller this rank registered a posted receive — a
    /// mailbox effect a schedule explorer must treat as a dependency
    /// even before any message matches it.
    fn note_touch(&self) {
        if let Some(ctl) = &self.controller {
            ctl.note_touch(self.rank);
        }
    }

    /// The queued-but-unmatched messages per lane (deadlock diagnoses and
    /// the finalize leftover inventory), in deterministic order.
    pub fn inventory(&self) -> Vec<LaneInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<LaneInfo> = inner
            .lanes
            .iter()
            .map(|((src, full_tag), lane)| LaneInfo {
                dst: self.rank,
                src: *src,
                comm: (full_tag >> 32) as u32,
                tag: (full_tag & 0xFFFF_FFFF) as u32,
                queued: 1 + lane.rest.len(),
                bytes: lane.iter().map(|a| a.msg.data.len()).sum(),
            })
            .collect();
        out.sort_by_key(|l| (l.src, l.comm, l.tag));
        out
    }

    /// Records a matched receive into the event ring, if instrumented.
    fn record_recv(&self, arrived: &Arrived, filter: Match, candidates: u32) {
        if let Some(insp) = &self.inspector {
            insp.record(
                self.rank,
                Event::Recv {
                    src: arrived.msg.src,
                    comm: (arrived.msg.full_tag >> 32) as u32,
                    tag: (arrived.msg.full_tag & 0xFFFF_FFFF) as u32,
                    bytes: arrived.msg.data.len(),
                    wildcard: !filter.is_exact(),
                    candidates,
                },
            );
        }
    }

    /// Delivers a message (called from the sending rank's thread): direct
    /// hand-off to the oldest matching posted receive, else lane-enqueue.
    pub fn push(&self, msg: Message) {
        let mut inner = self.inner.lock();
        if inner.enqueue(msg) {
            self.wake_threads(inner);
        }
    }

    /// Wakes the threads waiting on this mailbox once a posted receive
    /// has been filled under `inner`: moves the wake word, still under
    /// the lock, if any thread announced it is watching it, and signals
    /// the condvar only if one is parked — a spinning receiver costs its
    /// sender no syscall.
    fn wake_threads(&self, inner: MutexGuard<'_, Inner>) {
        if inner.spinning > 0 {
            self.wake.fetch_add(1, Ordering::Relaxed);
        }
        let parked = inner.parked > 0;
        drop(inner);
        if parked {
            self.ready.notify_all();
        }
    }

    /// Watches the wake word until it moves away from `seen` (true) or
    /// the spin budget runs out (false).
    fn watch(&self, seen: u32) -> bool {
        let start = Instant::now(); // arch_lint: Mailbox::watch spin budget
        let mut polls = 0u32;
        while self.wake.load(Ordering::Relaxed) == seen {
            polls += 1;
            if polls.is_multiple_of(SPIN_POLLS_PER_CLOCK_READ)
                && start.elapsed() >= self.spin_budget
            {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }

    /// How often this mailbox's owner has watched the wake word and how
    /// often it has parked: `(spun, parked_waits)`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn wait_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.spun, inner.parked_waits)
    }

    /// Whether a sender has filled the posted receive behind ticket `id`
    /// (the deadlock detector probes this to rule out a wake already in
    /// flight). False once the receive has been collected or cancelled.
    pub(crate) fn ticket_filled(&self, id: u64) -> bool {
        let inner = self.inner.lock();
        inner
            .posted
            .iter()
            .any(|p| p.id == id && p.arrived.is_some())
    }

    /// Rendezvous fast path for large typed sends: if the oldest posted
    /// receive matching `(src, full_tag)` carries a destination buffer of
    /// exactly `words.len() * T::SIZE` bytes, encode `words` straight into
    /// it — one copy, no intermediate allocation — and wake that receiver.
    /// Returns false (and performs nothing) when no such posted receive
    /// exists; the caller then falls back to the eager path.
    ///
    /// Ordering safety: a matching posted receive exists only if no queued
    /// message matched its filter at post time, and any later matching
    /// arrival would itself have been handed to it — so the table entry
    /// found here cannot be overtaking queued traffic.
    pub fn rendezvous_send<T: Word>(
        &self,
        src: usize,
        full_tag: u64,
        words: &[T],
        arrival: Option<simnet::Time>,
    ) -> bool {
        let bytes = words.len() * T::SIZE;
        let mut inner = self.inner.lock();
        let seq = inner.seq + 1;
        // The *oldest* matching entry is the one MPI matching would pick;
        // if it cannot take a rendezvous delivery we must not skip past it.
        let Some(posted) = inner.oldest_posted(src, full_tag) else {
            return false;
        };
        if posted.buf.as_ref().map(Vec::len) != Some(bytes) {
            return false;
        }
        let mut buf = posted.buf.take().expect("checked above");
        T::encode_slice(words, &mut buf);
        let arrived = Arrived {
            seq,
            msg: Message {
                src,
                full_tag,
                data: Payload::from_vec(buf),
                arrival,
            },
        };
        posted.fill(arrived);
        inner.seq = seq;
        self.wake_threads(inner);
        true
    }

    /// Registers a nonblocking receive: takes an already-queued match
    /// immediately, otherwise enters the posted-receive table so a future
    /// send (including a rendezvous send, when the caller supplies `buf`)
    /// can complete it before the receiver waits.
    pub fn post(&self, filter: Match, buf: Option<Vec<u8>>) -> PostedHandle {
        let mut inner = self.inner.lock();
        if let Some((arrived, candidates)) = inner.take_queued(filter, self.ctl()) {
            return PostedHandle::Ready(arrived, candidates);
        }
        let ticket = inner.register(filter, buf);
        drop(inner);
        self.note_touch();
        PostedHandle::Pending(ticket)
    }

    /// Cancels a posted receive. Any message it already matched is put
    /// back at the front of its lane with its original arrival stamp, as
    /// if the receive had never been posted.
    pub fn cancel(&self, handle: PostedHandle) {
        match handle {
            PostedHandle::Ready(arrived, _) => self.inner.lock().requeue_front(arrived),
            PostedHandle::Pending(ticket) => self.cancel_ticket(ticket),
        }
    }

    /// Blocks until the posted receive behind `ticket` is matched.
    /// `filter` is only used for wait registration and the deadlock
    /// diagnostic.
    ///
    /// Instrumented runs publish a wait edge first, then park in short
    /// slices, checking the detector's poison flag on every wake: a
    /// diagnosed deadlock unwinds this rank with the diagnosis instead of
    /// waiting out the wall-clock timeout, which is demoted to a backstop.
    ///
    /// The wait is spin-then-park. Finding its ticket unfilled, the
    /// thread announces itself under the lock, drops the lock and watches
    /// the wake word for the mailbox's spin budget; only then does it
    /// park, and everything the park path checks is reached at most one
    /// budget later. Three reasons shape it. *A budget*, because a peer
    /// that answers within microseconds is the common case worth a CPU
    /// and a peer that does not is not. *Outside the lock*, because
    /// [`rendezvous_send`](Mailbox::rendezvous_send) encodes up to 4 MiB
    /// while holding it: a spinner that polled by locking would go to
    /// sleep on the mutex instead. *Zero when ranks outnumber CPUs*,
    /// because then the spinner holds the CPU its sender needs (two ranks
    /// pinned to one CPU: a forced spin took the `native_mp` benchmark
    /// pass from 0.92 s to 2.63 s) — so the runtime derives the budget
    /// from the world, and this is one loop whose budget is sometimes
    /// zero.
    pub fn wait_ticket(&self, ticket: Ticket, filter: Match) -> (Message, Option<Vec<u8>>) {
        assert!(
            !crate::coop::in_coop(),
            "mp: synchronous receive inside a cooperative task; use the async receive API"
        );
        if let Some(insp) = &self.inspector {
            insp.begin_wait(
                self.rank,
                WaitOn::Recv {
                    comm: filter.comm_id,
                    src: filter.src,
                    tag: filter.tag,
                },
                Some(ticket.id),
            );
        }
        let mut spin = !self.spin_budget.is_zero();
        let mut timeout = None;
        let mut waited = Duration::ZERO;
        let mut inner = self.inner.lock();
        loop {
            if let Some((arrived, spare)) = inner.collect(&ticket, None) {
                drop(inner);
                if let Some(insp) = &self.inspector {
                    insp.end_wait(self.rank);
                }
                // A handed-off message is the only candidate by
                // construction: had another queued message matched the
                // filter, it would have been taken at post time.
                self.record_recv(&arrived, filter, 1);
                return (arrived.msg, spare);
            }
            if spin {
                // Announced and snapshotted under the lock: a fill before
                // this point was seen by `collect` above, one after it
                // finds `spinning` nonzero and moves the word off `seen`.
                inner.spinning += 1;
                inner.spun += 1;
                let seen = self.wake.load(Ordering::Relaxed);
                drop(inner);
                // A wake for another ticket of this mailbox is a message
                // delivered, not a stall: watch again. A spent budget
                // parks for the rest of this wait.
                spin = self.watch(seen);
                inner = self.inner.lock();
                inner.spinning -= 1;
                continue;
            }
            if let Some(insp) = &self.inspector {
                if let Some(diagnosis) = insp.poisoned() {
                    inner.withdraw(&ticket);
                    drop(inner);
                    panic!("{}{diagnosis}", crate::check::POISON_MARK);
                }
            }
            let timeout = *timeout.get_or_insert_with(deadlock_timeout);
            if waited >= timeout {
                // Still unmatched after the timeout: declare deadlock.
                inner.withdraw(&ticket);
                let queued = inner.queued;
                drop(inner);
                let mut lanes = String::new();
                for lane in self.inventory() {
                    lanes.push_str("\n  ");
                    lanes.push_str(&lane.to_string());
                }
                panic!(
                    "mp: rank {} waited {}s for a message matching {filter:?}; \
                     likely deadlock ({} unmatched messages queued{}{}). Tune via \
                     MP_DEADLOCK_TIMEOUT_SECS.",
                    self.rank,
                    timeout.as_secs(),
                    queued,
                    if lanes.is_empty() { "" } else { ":" },
                    lanes,
                );
            }
            let slice = if self.inspector.is_some() {
                INSTRUMENTED_WAIT_SLICE.min(timeout)
            } else {
                timeout
            };
            inner.parked += 1;
            inner.parked_waits += 1;
            let timed_out = self.ready.wait_for(&mut inner, slice).timed_out();
            inner.parked -= 1;
            if timed_out {
                waited += slice;
            }
        }
    }

    /// Removes and returns the oldest message matching `filter`, waiting
    /// until one arrives; also posts `buf` as a rendezvous destination
    /// while waiting (see [`rendezvous_send`](Mailbox::rendezvous_send)).
    /// Returns the message and, if the rendezvous buffer went unused, the
    /// buffer itself for recycling. On a rank thread the wait parks the
    /// thread; inside a cooperative task it is a yield point.
    pub async fn recv_posting_async(
        &self,
        filter: Match,
        buf: Option<Vec<u8>>,
    ) -> (Message, Option<Vec<u8>>) {
        let mut inner = self.inner.lock();
        if let Some((arrived, candidates)) = inner.take_queued(filter, self.ctl()) {
            drop(inner);
            self.record_recv(&arrived, filter, candidates);
            return (arrived.msg, buf);
        }
        let ticket = inner.register(filter, buf);
        drop(inner);
        self.note_touch();
        if crate::coop::in_coop() {
            TicketWait::new(self, ticket, filter).await
        } else {
            self.wait_ticket(ticket, filter)
        }
    }

    /// Removes and returns the oldest message matching `filter`, waiting
    /// until one arrives. FIFO per (source, tag) pair (non-overtaking);
    /// wildcard filters match in global arrival order.
    pub async fn recv_async(&self, filter: Match) -> Message {
        self.recv_posting_async(filter, None).await.0
    }

    /// Blocking [`recv_async`](Mailbox::recv_async), for thread-based
    /// unit tests.
    #[cfg(test)]
    pub fn recv(&self, filter: Match) -> Message {
        crate::coop::block_on(self.recv_async(filter))
    }

    /// Blocking [`recv_posting_async`](Mailbox::recv_posting_async), for
    /// thread-based unit tests.
    #[cfg(test)]
    pub fn recv_posting(&self, filter: Match, buf: Option<Vec<u8>>) -> (Message, Option<Vec<u8>>) {
        crate::coop::block_on(self.recv_posting_async(filter, buf))
    }

    /// Resolves a posted receive: immediate for an already-matched one,
    /// waiting until a sender matches it otherwise.
    pub async fn complete_async(
        &self,
        handle: PostedHandle,
        filter: Match,
    ) -> (Message, Option<Vec<u8>>) {
        match handle {
            PostedHandle::Ready(arrived, candidates) => {
                self.record_recv(&arrived, filter, candidates);
                (arrived.msg, None)
            }
            PostedHandle::Pending(ticket) => {
                if crate::coop::in_coop() {
                    TicketWait::new(self, ticket, filter).await
                } else {
                    self.wait_ticket(ticket, filter)
                }
            }
        }
    }

    /// Cancels a pending posted receive. If a sender matched it in the
    /// meantime, the message is put back at the front of its lane (its
    /// original arrival stamp preserved), exactly as if it had never been
    /// matched.
    pub fn cancel_ticket(&self, ticket: Ticket) {
        let mut inner = self.inner.lock();
        if let Some(arrived) = inner.withdraw(&ticket).arrived {
            inner.requeue_front(arrived);
        }
    }

    /// Non-blocking variant: removes the oldest matching message if present.
    /// Exercised by tests and kept for `iprobe`-style extensions.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn try_recv(&self, filter: Match) -> Option<Message> {
        let taken = self.inner.lock().take_queued(filter, self.ctl());
        taken.map(|(arrived, candidates)| {
            self.record_recv(&arrived, filter, candidates);
            arrived.msg
        })
    }

    /// Number of queued (unmatched) messages.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pending(&self) -> usize {
        self.inner.lock().queued
    }
}

/// The cooperative executor's blocking point: a future that resolves
/// when the posted receive behind `ticket` is matched. Each poll checks
/// the detector poison first and publishes the wait edge *before*
/// probing the posted receive (rank-state and mailbox locks are never
/// held together, here or in `check::diagnose`), then either takes the
/// arrival or parks its waker in the table entry.
/// Dropping an unresolved wait cancels the posting, requeueing any
/// message it had already matched.
struct TicketWait<'a> {
    mailbox: &'a Mailbox,
    ticket: Option<Ticket>,
    filter: Match,
    registered_wait: bool,
}

impl<'a> TicketWait<'a> {
    fn new(mailbox: &'a Mailbox, ticket: Ticket, filter: Match) -> TicketWait<'a> {
        TicketWait {
            mailbox,
            ticket: Some(ticket),
            filter,
            registered_wait: false,
        }
    }
}

impl Future for TicketWait<'_> {
    type Output = (Message, Option<Vec<u8>>);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(insp) = &this.mailbox.inspector {
            if let Some(diagnosis) = insp.poisoned() {
                let ticket = this.ticket.take().expect("polled after completion");
                this.mailbox.inner.lock().withdraw(&ticket);
                panic!("{}{diagnosis}", crate::check::POISON_MARK);
            }
            if !this.registered_wait {
                let ticket = this.ticket.as_ref().expect("polled after completion");
                insp.begin_wait(
                    this.mailbox.rank,
                    WaitOn::Recv {
                        comm: this.filter.comm_id,
                        src: this.filter.src,
                        tag: this.filter.tag,
                    },
                    Some(ticket.id),
                );
                this.registered_wait = true;
            }
        }
        let ticket = this.ticket.as_ref().expect("polled after completion");
        let collected = this.mailbox.inner.lock().collect(ticket, Some(cx.waker()));
        if let Some((arrived, spare)) = collected {
            if this.registered_wait {
                if let Some(insp) = &this.mailbox.inspector {
                    insp.end_wait(this.mailbox.rank);
                }
            }
            // Hand-offs have exactly one candidate by construction (see
            // wait_ticket).
            this.mailbox.record_recv(&arrived, this.filter, 1);
            this.ticket = None;
            return Poll::Ready((arrived.msg, spare));
        }
        Poll::Pending
    }
}

impl Drop for TicketWait<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            if self.registered_wait {
                if let Some(insp) = &self.mailbox.inspector {
                    insp.end_wait(self.mailbox.rank);
                }
            }
            self.mailbox.cancel_ticket(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::pack_tag;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn msg(src: usize, tag: u32, data: Vec<u8>) -> Message {
        Message {
            src,
            full_tag: pack_tag(0, tag),
            data: Payload::from_vec(data),
            arrival: None,
        }
    }

    fn exact(src: usize, tag: u32) -> Match {
        Match {
            comm_id: 0,
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn any() -> Match {
        Match {
            comm_id: 0,
            src: None,
            tag: None,
        }
    }

    #[test]
    fn fifo_within_matching_pair() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, vec![1]));
        mb.push(msg(1, 5, vec![2]));
        assert_eq!(mb.recv(exact(1, 5)).data.bytes().unwrap(), &[1]);
        assert_eq!(mb.recv(exact(1, 5)).data.bytes().unwrap(), &[2]);
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        mb.push(msg(2, 9, vec![9]));
        mb.push(msg(1, 5, vec![5]));
        assert_eq!(mb.recv(exact(1, 5)).data.bytes().unwrap(), &[5]);
        assert_eq!(mb.pending(), 1);
        assert_eq!(mb.recv(exact(2, 9)).data.bytes().unwrap(), &[9]);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mb = Mailbox::new();
        assert!(mb.try_recv(exact(0, 0)).is_none());
        mb.push(msg(0, 0, vec![]));
        assert!(mb.try_recv(exact(0, 0)).is_some());
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.recv(exact(3, 1)).data.bytes().unwrap().to_vec());
        std::thread::sleep(Duration::from_millis(20));
        mb.push(msg(3, 1, vec![42]));
        assert_eq!(t.join().unwrap(), vec![42]);
    }

    #[test]
    fn deadlock_timeout_tracks_env_changes() {
        // Regression: the timeout used to be read once into a process-wide
        // OnceLock, so the *second* override below was silently ignored.
        let original = std::env::var("MP_DEADLOCK_TIMEOUT_SECS").ok();
        std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "123");
        assert_eq!(super::deadlock_timeout().as_secs(), 123);
        std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "77");
        assert_eq!(super::deadlock_timeout().as_secs(), 77);
        std::env::remove_var("MP_DEADLOCK_TIMEOUT_SECS");
        assert_eq!(super::deadlock_timeout().as_secs(), 20, "cfg(test) default");
        match original {
            Some(v) => std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", v),
            None => std::env::remove_var("MP_DEADLOCK_TIMEOUT_SECS"),
        }
    }

    #[test]
    fn wildcard_candidates_counted_for_race_detection() {
        use crate::check::{Event, Inspector, Settings};
        let insp = Arc::new(Inspector::new(1, Settings::default(), None));
        let mb = Mailbox::with_instrumentation(0, Some(Arc::clone(&insp)), None, Duration::ZERO);
        mb.push(msg(1, 5, vec![1]));
        mb.push(msg(2, 6, vec![2]));
        assert_eq!(mb.recv(any()).src, 1, "oldest arrival wins");
        assert_eq!(mb.recv(any()).src, 2);
        let (events, _) = insp.drain_events();
        assert!(
            matches!(
                events[0][0],
                Event::Recv {
                    wildcard: true,
                    candidates: 2,
                    ..
                }
            ),
            "first wildcard receive had two candidate lanes: {:?}",
            events[0][0]
        );
        assert!(matches!(
            events[0][1],
            Event::Recv {
                wildcard: true,
                candidates: 1,
                ..
            }
        ));
    }

    #[test]
    fn wildcard_receive_takes_first_arrival() {
        let mb = Mailbox::new();
        mb.push(msg(7, 3, vec![7]));
        mb.push(msg(8, 4, vec![8]));
        assert_eq!(mb.recv(any()).src, 7);
        assert_eq!(mb.recv(any()).src, 8);
    }

    #[test]
    fn wildcard_arrival_order_across_lanes() {
        let mb = Mailbox::new();
        // Interleave three lanes; wildcard receives must replay exactly
        // the arrival order regardless of lane hashing.
        let order = [(4, 1), (2, 9), (4, 1), (9, 9), (2, 9), (4, 2)];
        for (i, (src, tag)) in order.iter().enumerate() {
            mb.push(msg(*src, *tag, vec![i as u8]));
        }
        for (i, (src, tag)) in order.iter().enumerate() {
            let m = mb.recv(any());
            assert_eq!(m.src, *src);
            assert_eq!((m.full_tag & 0xFFFF_FFFF) as u32, *tag);
            assert_eq!(m.data.bytes().unwrap(), &[i as u8]);
        }
    }

    #[test]
    fn posted_receive_gets_direct_handoff() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(exact(1, 7), None) else {
            panic!("nothing queued yet");
        };
        mb.push(msg(1, 7, vec![3]));
        assert_eq!(mb.pending(), 0, "message must go to the posted receive");
        let (m, spare) = mb.wait_ticket(ticket, exact(1, 7));
        assert_eq!(m.data.bytes().unwrap(), &[3]);
        assert!(spare.is_none());
    }

    #[test]
    fn post_takes_already_queued_message() {
        let mb = Mailbox::new();
        mb.push(msg(1, 7, vec![4]));
        match mb.post(exact(1, 7), None) {
            PostedHandle::Ready(a, candidates) => {
                assert_eq!(a.msg.data.bytes().unwrap(), &[4]);
                assert_eq!(candidates, 1);
            }
            PostedHandle::Pending(_) => panic!("should match the queued message"),
        }
    }

    #[test]
    fn cancelling_a_ready_posted_receive_restores_order() {
        let mb = Mailbox::new();
        mb.push(msg(1, 7, vec![1]));
        mb.push(msg(1, 7, vec![2]));
        let handle = mb.post(exact(1, 7), None);
        assert!(matches!(handle, PostedHandle::Ready(..)));
        mb.cancel(handle);
        assert_eq!(mb.recv(exact(1, 7)).data.bytes().unwrap(), &[1]);
        assert_eq!(mb.recv(exact(1, 7)).data.bytes().unwrap(), &[2]);
    }

    #[test]
    fn posted_receives_match_in_posting_order() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(t1) = mb.post(exact(1, 7), None) else {
            panic!()
        };
        let PostedHandle::Pending(t2) = mb.post(exact(1, 7), None) else {
            panic!()
        };
        mb.push(msg(1, 7, vec![1]));
        mb.push(msg(1, 7, vec![2]));
        assert_eq!(
            mb.wait_ticket(t1, exact(1, 7)).0.data.bytes().unwrap(),
            &[1]
        );
        assert_eq!(
            mb.wait_ticket(t2, exact(1, 7)).0.data.bytes().unwrap(),
            &[2]
        );
    }

    #[test]
    fn cancelled_posted_receive_requeues_its_message() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(any(), None) else {
            panic!()
        };
        mb.push(msg(5, 1, vec![10]));
        mb.push(msg(5, 1, vec![11]));
        assert_eq!(mb.pending(), 1, "first message went to the posted receive");
        mb.cancel_ticket(ticket);
        assert_eq!(mb.pending(), 2);
        // Order restored: the handed-off message is back at the front.
        assert_eq!(mb.recv(exact(5, 1)).data.bytes().unwrap(), &[10]);
        assert_eq!(mb.recv(exact(5, 1)).data.bytes().unwrap(), &[11]);
    }

    #[test]
    fn rendezvous_send_fills_posted_buffer() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(exact(2, 4), Some(vec![0u8; 8])) else {
            panic!()
        };
        let words = [0x0102_0304_0506_0708u64];
        assert!(mb.rendezvous_send(2, pack_tag(0, 4), &words, None));
        let (m, spare) = mb.wait_ticket(ticket, exact(2, 4));
        assert!(spare.is_none(), "buffer was consumed by the rendezvous");
        assert_eq!(m.data.bytes().unwrap(), &[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn rendezvous_send_refuses_without_matching_posted_buffer() {
        let mb = Mailbox::new();
        // No posted receive at all.
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Posted receive without a buffer.
        let PostedHandle::Pending(t1) = mb.post(exact(2, 4), None) else {
            panic!()
        };
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Eager delivery still reaches it, returning no spare.
        mb.push(msg(2, 4, vec![1]));
        let (m, spare) = mb.wait_ticket(t1, exact(2, 4));
        assert_eq!(m.data.bytes().unwrap(), &[1]);
        assert!(spare.is_none());
        // Posted buffer of the wrong size: rendezvous declines.
        let PostedHandle::Pending(t2) = mb.post(exact(2, 4), Some(vec![0u8; 4])) else {
            panic!()
        };
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        mb.push(msg(2, 4, vec![9; 8]));
        let (m, spare) = mb.wait_ticket(t2, exact(2, 4));
        assert_eq!(m.data.len(), 8);
        assert_eq!(spare, Some(vec![0u8; 4]), "unused buffer comes back");
    }

    #[test]
    fn eager_delivery_returns_spare_rendezvous_buffer() {
        let mb = Mailbox::new();
        let (m, spare) = {
            let mb = &mb;
            std::thread::scope(|s| {
                let h = s.spawn(move || mb.recv_posting(exact(1, 2), Some(vec![0u8; 16])));
                std::thread::sleep(Duration::from_millis(20));
                mb.push(msg(1, 2, vec![5; 4]));
                h.join().unwrap()
            })
        };
        assert_eq!(m.data.bytes().unwrap(), &[5; 4]);
        assert_eq!(spare, Some(vec![0u8; 16]));
    }

    /// A standalone mailbox whose owner watches the wake word for `budget`
    /// before it parks, whatever the host (the runtime would hand it
    /// [`SPIN_BUDGET`] or zero).
    fn spinning(budget: Duration) -> Mailbox {
        Mailbox::with_instrumentation(0, None, None, budget)
    }

    /// A budget no test outlives: a waiter given it is still watching the
    /// wake word whenever its sender gets round to sending.
    const NEVER_PARKS: Duration = Duration::from_secs(60);

    /// How a test message reaches its posted receive.
    #[derive(Clone, Copy, Debug)]
    enum Path {
        /// `push`: the payload arrives already encoded.
        Eager,
        /// `rendezvous_send` into the buffer posted with the receive.
        Rendezvous,
    }

    /// When, relative to the waiter, the sender delivers.
    #[derive(Clone, Copy, Debug)]
    enum When {
        BeforeTheWait,
        WhileItSpins,
        OnceItHasParked,
    }

    /// Polls `cond` (an observation made under the mailbox lock) until it
    /// holds, failing the test instead of hanging it.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "never {what}");
            std::thread::yield_now();
        }
    }

    /// Posts one receive on `mb`, waits on it from a second thread and
    /// delivers its eight bytes by `path` at `when` — the interleaving is
    /// read off the mailbox's own counters, which move under its lock, not
    /// guessed with a sleep. Returns `(spun, parked_waits)` afterwards.
    fn delivered(mb: &Mailbox, path: Path, when: When) -> (u64, u64) {
        let buf = matches!(path, Path::Rendezvous).then(|| vec![0u8; 8]);
        let PostedHandle::Pending(ticket) = mb.post(exact(1, 7), buf) else {
            panic!("nothing queued yet");
        };
        let deliver = || match path {
            Path::Eager => mb.push(msg(1, 7, vec![8, 7, 6, 5, 4, 3, 2, 1])),
            Path::Rendezvous => {
                assert!(mb.rendezvous_send(1, pack_tag(0, 7), &[0x0102_0304_0506_0708u64], None))
            }
        };
        let (m, spare) = std::thread::scope(|s| {
            if matches!(when, When::BeforeTheWait) {
                deliver();
            }
            let waiter = s.spawn(|| mb.wait_ticket(ticket, exact(1, 7)));
            match when {
                When::BeforeTheWait => {}
                When::WhileItSpins => {
                    until("announced a spin", || mb.wait_counts().0 >= 1);
                    deliver();
                }
                When::OnceItHasParked => {
                    until("parked", || mb.wait_counts().1 >= 1);
                    deliver();
                }
            }
            waiter.join().unwrap()
        });
        assert_eq!(
            m.data.bytes().unwrap(),
            &[8, 7, 6, 5, 4, 3, 2, 1],
            "{path:?} {when:?}"
        );
        assert!(spare.is_none(), "{path:?} {when:?}");
        mb.wait_counts()
    }

    #[test]
    fn a_message_delivered_before_the_wait_is_collected_without_waiting() {
        for path in [Path::Eager, Path::Rendezvous] {
            for mb in [Mailbox::new(), spinning(SPIN_BUDGET)] {
                assert_eq!(
                    delivered(&mb, path, When::BeforeTheWait),
                    (0, 0),
                    "{path:?}"
                );
            }
        }
    }

    #[test]
    fn a_message_delivered_while_the_waiter_spins_wakes_it_through_the_word() {
        for path in [Path::Eager, Path::Rendezvous] {
            let counts = delivered(&spinning(NEVER_PARKS), path, When::WhileItSpins);
            assert_eq!(counts, (1, 0), "{path:?}: one spin, caught, never parked");
        }
    }

    #[test]
    fn a_message_delivered_after_the_waiter_parked_wakes_it_through_the_condvar() {
        for path in [Path::Eager, Path::Rendezvous] {
            let (spun, parked) = delivered(&Mailbox::new(), path, When::OnceItHasParked);
            assert_eq!(spun, 0, "{path:?}: a zero budget never watches the word");
            assert!(parked >= 1, "{path:?}");
            // The spinning twin: the sender outlasts the budget.
            let (spun, parked) = delivered(&spinning(SPIN_BUDGET), path, When::OnceItHasParked);
            assert_eq!(spun, 1, "{path:?}: the budget is spent once per wait");
            assert!(parked >= 1, "{path:?}");
        }
    }

    #[test]
    fn a_fill_of_another_ticket_leaves_the_spinner_waiting_for_its_own() {
        let mb = spinning(NEVER_PARKS);
        let PostedHandle::Pending(other) = mb.post(exact(1, 7), None) else {
            panic!()
        };
        let PostedHandle::Pending(mine) = mb.post(exact(2, 8), None) else {
            panic!()
        };
        let (m, _) = std::thread::scope(|s| {
            let waiter = s.spawn(|| mb.wait_ticket(mine, exact(2, 8)));
            until("announced a spin", || mb.wait_counts().0 >= 1);
            // Moves the wake word, but for the other posted receive: the
            // waiter looks, finds its own ticket unfilled and watches again.
            mb.push(msg(1, 7, vec![1]));
            until("went back to watching", || mb.wait_counts().0 >= 2);
            assert!(!waiter.is_finished());
            mb.push(msg(2, 8, vec![2]));
            waiter.join().unwrap()
        });
        assert_eq!(m.data.bytes().unwrap(), &[2], "its own message");
        assert_eq!(mb.wait_counts(), (2, 0));
        let (m, _) = mb.wait_ticket(other, exact(1, 7));
        assert_eq!(m.data.bytes().unwrap(), &[1], "the other one kept its fill");
    }

    /// 100 000 8-byte round trips between two threads over a pair of
    /// mailboxes; a lost wake-up ends in the 20 s deadlock panic, a
    /// mismatched one in the payload check.
    fn ping_pong(ping: &Mailbox, pong: &Mailbox) {
        const ROUNDS: u64 = 100_000;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..ROUNDS {
                    let m = pong.recv(exact(0, 1));
                    ping.push(msg(1, 1, m.data.bytes().unwrap().to_vec()));
                    assert_eq!(m.data.bytes().unwrap(), &i.to_le_bytes());
                }
            });
            for i in 0..ROUNDS {
                pong.push(msg(0, 1, i.to_le_bytes().to_vec()));
                assert_eq!(
                    ping.recv(exact(1, 1)).data.bytes().unwrap(),
                    &i.to_le_bytes()
                );
            }
        });
    }

    /// Over mailboxes built not to spin, then over ones built to — one
    /// after the other, so the two pairs of threads do not take turns on
    /// the same CPUs. The spinning pair gets a budget of about one round
    /// trip instead of [`SPIN_BUDGET`]: some waits are caught watching
    /// and most run out (four in five on an idle host), so the hand-over
    /// from the word to the condvar — where a wake-up could be lost — is
    /// crossed tens of thousands of times; the full budget would cross it
    /// a handful (and, beside the other tests of this binary, would burn
    /// 50 µs a round doing so).
    #[test]
    fn ping_pong_loses_no_wakeup_on_either_side_of_the_rule() {
        let (ping, pong) = (Mailbox::new(), Mailbox::new());
        ping_pong(&ping, &pong);
        assert_eq!(ping.wait_counts().0 + pong.wait_counts().0, 0);

        let round_trip = Duration::from_micros(3);
        let (ping, pong) = (spinning(round_trip), spinning(round_trip));
        ping_pong(&ping, &pong);
        let (spun, parked) = (
            ping.wait_counts().0 + pong.wait_counts().0,
            ping.wait_counts().1 + pong.wait_counts().1,
        );
        assert!(spun > 0 && parked > 0, "{spun} spins, {parked} parks");
    }

    /// Reference model: the legacy single linear-scan queue the indexed
    /// mailbox replaced. Matching takes the first (oldest) message in
    /// arrival order satisfying the filter.
    #[derive(Default)]
    struct LinearModel {
        queue: Vec<(usize, u64, Vec<u8>)>,
    }

    impl LinearModel {
        fn push(&mut self, src: usize, tag: u32, data: Vec<u8>) {
            self.queue.push((src, pack_tag(0, tag), data));
        }
        fn try_recv(&mut self, filter: Match) -> Option<(usize, u64, Vec<u8>)> {
            let pos = self
                .queue
                .iter()
                .position(|(src, full_tag, _)| filter.accepts_parts(*src, *full_tag))?;
            Some(self.queue.remove(pos))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed mailbox is observationally equivalent to the legacy
        /// linear scan: same matched envelope and payload for every
        /// interleaving of pushes with exact, half-wildcard and full
        /// wildcard receives — FIFO per (src, tag), non-overtaking,
        /// wildcard receives in global arrival order.
        #[test]
        fn indexed_mailbox_matches_linear_scan_semantics(
            ops in prop::collection::vec((0u8..6, 0usize..3, 0u32..3), 1..120),
        ) {
            let mb = Mailbox::new();
            let mut model = LinearModel::default();
            let mut payload = 0u8;
            for (kind, src, tag) in ops {
                match kind {
                    // Push: both sides enqueue the same message.
                    0..=2 => {
                        payload = payload.wrapping_add(1);
                        mb.push(msg(src, tag, vec![payload]));
                        model.push(src, tag, vec![payload]);
                    }
                    // Exact receive.
                    3 => {
                        let f = exact(src, tag);
                        let got = mb.try_recv(f);
                        let want = model.try_recv(f);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.bytes().unwrap(), &w.2[..]);
                        }
                    }
                    // Wildcard source (tag pinned).
                    4 => {
                        let f = Match { comm_id: 0, src: None, tag: Some(tag) };
                        let got = mb.try_recv(f);
                        let want = model.try_recv(f);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.bytes().unwrap(), &w.2[..]);
                        }
                    }
                    // Full wildcard.
                    _ => {
                        let got = mb.try_recv(any());
                        let want = model.try_recv(any());
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.bytes().unwrap(), &w.2[..]);
                        }
                    }
                }
            }
            // Drain both completely; remainders must agree.
            loop {
                let got = mb.try_recv(any());
                let want = model.try_recv(any());
                prop_assert_eq!(got.is_some(), want.is_some());
                match (got, want) {
                    (Some(g), Some(w)) => {
                        prop_assert_eq!(g.src, w.0);
                        prop_assert_eq!(g.full_tag, w.1);
                        prop_assert_eq!(g.data.bytes().unwrap(), &w.2[..]);
                    }
                    _ => break,
                }
            }
        }
    }
}

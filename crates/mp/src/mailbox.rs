//! Per-rank incoming-message queues with MPI-style (source, tag) matching.
//!
//! The mailbox is *indexed*: messages live in per-`(source, comm, tag)`
//! lanes (hash-addressed, FIFO within a lane — MPI's non-overtaking
//! guarantee by construction) and every message carries a global arrival
//! sequence number, so wildcard receives fall back to a scan over lane
//! fronts in true arrival order. A queued message is stored without its
//! envelope, which is its lane's key. Storage follows what is live: a lane
//! holding one message, the common case, is one 64 B bucket of the lane
//! table and allocates nothing of its own; a lane with messages behind its
//! front holds them in a deque in the same bucket; and the table gives its
//! capacity back as it drains, so a burst of early messages leaves nothing
//! resident once it has been received. Blocked receivers register in a
//! posted-receive table; a matching send fills the oldest matching posted
//! receive in place, under the one mailbox lock, and — once it has
//! released the lock — fires the `Waker` the receive's future left there.
//! There is one wait, [`Recv`], and the mailbox does not know who polls
//! it: a cooperative task, whose waker queues it on the executor's run
//! queue, or a rank thread in [`block_on`](crate::block_on), whose waker
//! raises the flag it spins on and unparks it. How a thread spins and
//! parks is `block_on`'s business. What a blocked rank waits on is read
//! here, from the posted receives holding an unfired waker
//! ([`Mailbox::blocked_on`]), by every engine's stall diagnosis; in a
//! thread world the same table keeps the world's runnable count exact
//! (see [`Runnable`]), and a poisoned world's diagnosis reaches its
//! waiters by waking them.
//!
//! Posted receives may also carry a destination byte buffer sized to the
//! expected message: a large send that finds such a posted receive encodes
//! its payload straight into that buffer — the rendezvous fast path (see
//! [`rendezvous_send`](Mailbox::rendezvous_send)).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::num::NonZeroU64;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::check::{Deadlock, Event, Inspector, LaneInfo, WaitOn, POISON_MARK};
use crate::coop::{ScheduleController, WildcardCandidate};
use crate::datatype::Word;
use crate::msg::{Match, Message};
use crate::payload::Payload;
use crate::runtime::Runnable;

/// Lane address: (global source rank, packed comm id + tag).
type LaneKey = (usize, u64);

/// The hash of a lane key: a multiply-rotate mix of its two words (the
/// `FxHash` step). Keys come from the world's own ranks and tags, not
/// from outside, so a keyed hash buys nothing; this one is a few
/// instructions and needs no per-table seed. Against the std hasher, on a
/// 2-vCPU x86-64 host, it cuts the `virt_highrank` benchmark's wall time
/// by about 6 % and raises its ring and free-net message rates by 12–18 %.
#[derive(Default)]
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The lane table: every nonempty lane, by key.
type Lanes = HashMap<LaneKey, Lane, BuildHasherDefault<LaneHasher>>;

/// A message queued in a lane: its envelope (source and packed tag) is
/// the lane's key.
struct Queued {
    seq: u64,
    data: Payload,
    arrival: Option<simnet::Time>,
}

impl Queued {
    /// The message again, its envelope rebuilt from its lane's key.
    fn arrived(self, (src, full_tag): LaneKey) -> Arrived {
        let Queued { seq, data, arrival } = self;
        let msg = Message {
            src,
            full_tag,
            data,
            arrival,
        };
        Arrived { seq, msg }
    }
}

/// A nonempty FIFO lane of unexpected messages.
enum Lane {
    /// One message, the common case: nothing allocated.
    One(Queued),
    /// Two or more, oldest first.
    Many(VecDeque<Queued>),
}

impl Lane {
    /// The oldest message of the lane.
    fn front(&self) -> &Queued {
        match self {
            Lane::One(q) => q,
            Lane::Many(q) => q.front().expect("a lane of many holds two or more"),
        }
    }

    /// The messages of the lane, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Queued> {
        let (one, many) = match self {
            Lane::One(q) => (Some(q), None),
            Lane::Many(q) => (None, Some(q)),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Adds `queued` to the lane: at its back, or at its front for a
    /// message a cancelled receive gives back.
    fn add(&mut self, queued: Queued, at_front: bool) {
        let mut rest = match std::mem::replace(self, Lane::Many(VecDeque::new())) {
            Lane::One(first) => {
                let mut rest = VecDeque::with_capacity(2);
                rest.push_back(first);
                rest
            }
            Lane::Many(rest) => rest,
        };
        if at_front {
            rest.push_front(queued);
        } else {
            rest.push_back(queued);
        }
        *self = Lane::Many(rest);
    }

    /// Removes the lane's oldest message if another one stays behind it;
    /// `None` for a lane of one, whose message goes with the lane.
    fn pop_front(&mut self) -> Option<Queued> {
        let Lane::Many(rest) = self else {
            return None;
        };
        let front = rest.pop_front().expect("a lane of many holds two or more");
        if rest.len() == 1 {
            let last = rest.pop_front().expect("one message left");
            *self = Lane::One(last);
        }
        Some(front)
    }
}

/// A message stamped with its global arrival order.
pub(crate) struct Arrived {
    seq: u64,
    msg: Message,
}

impl Arrived {
    /// The message's lane key and its lane entry.
    fn queued(self) -> (LaneKey, Queued) {
        let Message {
            src,
            full_tag,
            data,
            arrival,
        } = self.msg;
        let seq = self.seq;
        ((src, full_tag), Queued { seq, data, arrival })
    }
}

/// One entry in the posted-receive table.
struct PostedRecv {
    id: NonZeroU64,
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
    /// Waker of the future blocked on this receive — a task's or a
    /// thread's; the sender takes it on fill and fires it once it has
    /// released the mailbox lock.
    waker: Option<Waker>,
    /// Whether the waiter is the owning rank's own thread, whose wait a
    /// fill of this receive ends on its world's runnable count.
    counted: bool,
}

#[derive(Default)]
struct Inner {
    /// Every nonempty per-(source, comm+tag) FIFO lane of unexpected
    /// messages. Most lanes hold one message between a send and its
    /// receive, so a lane costs one bucket here, 64 B with its key, and
    /// nothing else. The table shrinks as it drains
    /// ([`Inner::give_back`]).
    lanes: Lanes,
    /// Global arrival counter (stamps wildcard ordering).
    seq: u64,
    /// Posted receives in posting order (the MPI matching order).
    posted: Vec<PostedRecv>,
    /// The id of the last posted receive (ids start at 1).
    last_posted_id: u64,
    /// Whether the owning rank's thread is off its world's runnable count,
    /// waiting on a counted receive: once however many it waits on.
    rank_waiting: bool,
    /// The diagnosis of the stall this mailbox's world was poisoned with:
    /// a waiting receive that finds it unwinds with it.
    poisoned: Option<Arc<Deadlock>>,
}

impl Inner {
    /// Removes and returns the oldest queued message matching `filter`,
    /// together with the number of distinct nonempty lanes that matched:
    /// O(1) lane pop for exact filters (candidates = 1), arrival-ordered
    /// scan over lane fronts for wildcards. A wildcard match with two or
    /// more candidate lanes depended on arrival order — the race the
    /// trace lint flags, and the choice point a schedule controller
    /// (`ctl` = controller + receiving rank) enumerates instead of
    /// always taking the oldest — which is what
    /// [`FifoController`](crate::FifoController) picks too.
    fn take_queued(
        &mut self,
        filter: Match,
        ctl: Option<(&Arc<dyn ScheduleController>, usize)>,
    ) -> Option<(Arrived, u32)> {
        let (key, candidates): (LaneKey, u32) = if filter.is_exact() {
            let src = filter.src.expect("exact filter");
            let tag = filter.tag.expect("exact filter");
            ((src, crate::msg::pack_tag(filter.comm_id, tag)), 1)
        } else {
            // Wildcard: every matching lane front, oldest arrival first —
            // lanes are FIFO, so index 0 is the oldest matching message
            // overall. A controller picks when there is a real choice.
            let mut fronts: Vec<(u64, LaneKey)> = Vec::new();
            for (&key, lane) in &self.lanes {
                if filter.accepts_parts(key.0, key.1) {
                    fronts.push((lane.front().seq, key));
                }
            }
            fronts.sort_unstable_by_key(|&(seq, _)| seq);
            let idx = match ctl {
                Some((ctl, rank)) if fronts.len() >= 2 => {
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
                }
                _ => 0,
            };
            (fronts.get(idx)?.1, fronts.len() as u32)
        };
        // A lookup, not `entry`: a vacant entry reserves room for the
        // insert it expects, which would allocate a table for a receive
        // that finds nothing queued.
        let queued = match self.lanes.get_mut(&key)?.pop_front() {
            Some(front) => front,
            None => {
                let Some(Lane::One(front)) = self.lanes.remove(&key) else {
                    unreachable!("only a lane of one has nothing behind its front")
                };
                self.give_back();
                front
            }
        };
        Some((queued.arrived(key), candidates))
    }

    /// Shrinks the lane table once it holds at most a quarter of what it
    /// has room for, to twice its live lanes: a burst of early messages
    /// leaves no capacity behind once it is received, and an emptied
    /// table holds no allocation at all.
    fn give_back(&mut self) {
        let live = self.lanes.len();
        if live * 4 <= self.lanes.capacity() {
            self.lanes.shrink_to(live * 2);
        }
    }

    /// Reinserts a previously-matched message at the front of its lane;
    /// its original arrival stamp keeps wildcard ordering exact. Only
    /// valid for a message that was the oldest match of its filter (which
    /// every [`take_queued`](Inner::take_queued)/hand-off result is).
    fn requeue_front(&mut self, arrived: Arrived) {
        let (key, queued) = arrived.queued();
        self.queue(key, queued, true);
    }

    /// Queues `queued` on its lane, at the lane's front or back.
    fn queue(&mut self, key: LaneKey, queued: Queued, at_front: bool) {
        match self.lanes.entry(key) {
            Entry::Occupied(mut lane) => lane.get_mut().add(queued, at_front),
            Entry::Vacant(slot) => {
                slot.insert(Lane::One(queued));
            }
        }
    }

    /// Registers a posted receive and returns its claim ticket.
    fn register(&mut self, filter: Match, buf: Option<Vec<u8>>) -> Ticket {
        self.last_posted_id += 1;
        let id = NonZeroU64::new(self.last_posted_id).expect("ids start at 1");
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
            counted: false,
        });
        Ticket { id }
    }

    /// Table index of the oldest unfilled posted receive accepting
    /// `(src, full_tag)` — the one MPI matching would pick.
    fn oldest_posted(&self, src: usize, full_tag: u64) -> Option<usize> {
        self.posted
            .iter()
            .position(|p| p.arrived.is_none() && p.filter.accepts_parts(src, full_tag))
    }

    /// Table index of the posted receive behind `ticket`.
    fn index_of(&self, ticket: &Ticket) -> usize {
        self.posted
            .iter()
            .position(|p| p.id == ticket.id)
            .expect("a posted receive stays in the table until its ticket resolves")
    }

    /// Delivers `msg`: to the oldest matching posted receive if there is
    /// one (before lane insertion, so posted receives match in MPI
    /// order), whose table index it returns, else onto its lane.
    fn enqueue(&mut self, msg: Message) -> Option<usize> {
        self.seq += 1;
        let arrived = Arrived { seq: self.seq, msg };
        if let Some(idx) = self.oldest_posted(arrived.msg.src, arrived.msg.full_tag) {
            self.posted[idx].arrived = Some(arrived);
            return Some(idx);
        }
        let (key, queued) = arrived.queued();
        self.queue(key, queued, false);
        None
    }
}

/// A rank's incoming-message queue (see the module docs).
pub(crate) struct Mailbox {
    inner: Mutex<Inner>,
    /// The owning rank (0 for standalone test mailboxes).
    rank: usize,
    /// Instrumentation registry of a checked run, if any.
    inspector: Option<Arc<Inspector>>,
    /// Schedule controller of a controlled run, if any: picks wildcard
    /// matches and learns about posted receives.
    controller: Option<Arc<dyn ScheduleController>>,
    /// The runnable count of the owning thread world, if it keeps one.
    runnable: Option<Arc<Runnable>>,
}

/// A nonblocking receive registered ahead of its wait: either the message
/// was already queued (taken immediately, arrival stamp kept so
/// cancellation can restore it exactly, with its candidate-lane count), or
/// a table entry now waits for it. Opaque to callers; resolve with
/// [`Mailbox::collect`] or [`Mailbox::wait`], or [`Mailbox::cancel`].
pub(crate) enum PostedHandle {
    Ready(Arrived, u32),
    Pending(Ticket),
}

/// Claim ticket for a pending posted receive.
pub(crate) struct Ticket {
    id: NonZeroU64,
}

impl Mailbox {
    /// A mailbox owned by `rank`, instrumented when `inspector` is set,
    /// schedule-controlled when `controller` is set, and counting its
    /// rank thread's waits when `runnable` is set.
    pub(crate) fn with_instrumentation(
        rank: usize,
        inspector: Option<Arc<Inspector>>,
        controller: Option<Arc<dyn ScheduleController>>,
        runnable: Option<Arc<Runnable>>,
    ) -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner::default()),
            rank,
            inspector,
            controller,
            runnable,
        }
    }

    /// Leaves `waker` in the unfilled receive at table index `idx` (under
    /// the lock). A poll from the owning rank's own thread marks the
    /// receive and takes that thread off its world's runnable count,
    /// unless it is off already — a re-poll counts nothing twice.
    fn arm(&self, inner: &mut Inner, idx: usize, waker: &Waker) {
        let p = &mut inner.posted[idx];
        p.waker = Some(waker.clone());
        if let Some(runnable) = &self.runnable {
            if runnable.is_rank_thread(self.rank) {
                p.counted = true;
                if !std::mem::replace(&mut inner.rank_waiting, true) {
                    runnable.stop();
                }
            }
        }
    }

    /// Takes the waker left in the receive at table index `idx` (under the
    /// lock), whose wait a fill, withdrawal or poison is ending; a marked
    /// receive puts a waiting rank thread back on the runnable count
    /// before the caller fires the waker.
    fn disarm(&self, inner: &mut Inner, idx: usize) -> Option<Waker> {
        let p = &mut inner.posted[idx];
        if std::mem::take(&mut p.counted) && std::mem::take(&mut inner.rank_waiting) {
            let runnable = self.runnable.as_ref();
            runnable.expect("a counted wait has a count").resume();
        }
        inner.posted[idx].waker.take()
    }

    /// What this mailbox's rank is blocked on: the oldest posted receive
    /// holding a waker that has not fired. `None` once every waiting
    /// receive has been filled (a wake may be in flight) or withdrawn.
    pub(crate) fn blocked_on(&self) -> Option<WaitOn> {
        let inner = self.inner.lock();
        let p = inner.posted.iter().find(|p| p.waker.is_some())?;
        Some(WaitOn {
            comm: p.filter.comm_id,
            src: p.filter.src,
            tag: p.filter.tag,
        })
    }

    /// Marks the mailbox poisoned with `diagnosis` and wakes every
    /// receive waiting in it, after unlocking, to unwind with it.
    pub(crate) fn poison(&self, diagnosis: &Arc<Deadlock>) {
        let mut inner = self.inner.lock();
        inner.poisoned = Some(Arc::clone(diagnosis));
        let armed = 0..inner.posted.len();
        let wakers: Vec<Waker> = armed
            .filter_map(|idx| self.disarm(&mut inner, idx))
            .collect();
        drop(inner);
        for waker in wakers {
            waker.wake();
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
    pub(crate) fn inventory(&self) -> Vec<LaneInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<LaneInfo> = inner
            .lanes
            .iter()
            .map(|(&(src, full_tag), lane)| LaneInfo {
                dst: self.rank,
                src,
                comm: (full_tag >> 32) as u32,
                tag: (full_tag & 0xFFFF_FFFF) as u32,
                queued: lane.iter().count(),
                bytes: lane.iter().map(|q| q.data.len()).sum(),
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
    /// The filled receive's waker fires after the lock is released.
    pub(crate) fn push(&self, msg: Message) {
        let mut inner = self.inner.lock();
        let filled = inner.enqueue(msg);
        let waker = filled.and_then(|idx| self.disarm(&mut inner, idx));
        drop(inner);
        if let Some(waker) = waker {
            waker.wake();
        }
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
    pub(crate) fn rendezvous_send<T: Word>(
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
        let Some(idx) = inner.oldest_posted(src, full_tag) else {
            return false;
        };
        let posted = &mut inner.posted[idx];
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
        posted.arrived = Some(arrived);
        let waker = self.disarm(&mut inner, idx);
        inner.seq = seq;
        drop(inner);
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }

    /// Registers a nonblocking receive ahead of its wait: takes an
    /// already-queued match immediately, otherwise enters the
    /// posted-receive table so a future send can complete it before the
    /// receiver waits.
    pub(crate) fn post(&self, filter: Match) -> PostedHandle {
        let mut inner = self.inner.lock();
        if let Some((arrived, candidates)) = inner.take_queued(filter, self.ctl()) {
            return PostedHandle::Ready(arrived, candidates);
        }
        let ticket = inner.register(filter, None);
        drop(inner);
        self.note_touch();
        PostedHandle::Pending(ticket)
    }

    /// Collects the message a posted receive took when it was posted.
    pub(crate) fn collect(&self, arrived: Arrived, filter: Match, candidates: u32) -> Message {
        self.record_recv(&arrived, filter, candidates);
        arrived.msg
    }

    /// Cancels a posted receive. Any message it already matched — taken
    /// at post time or handed to it since — is put back at the front of
    /// its lane with its original arrival stamp, as if the receive had
    /// never been posted.
    pub(crate) fn cancel(&self, handle: PostedHandle) {
        match handle {
            PostedHandle::Ready(arrived, _) => self.inner.lock().requeue_front(arrived),
            PostedHandle::Pending(ticket) => self.withdraw_ticket(ticket),
        }
    }

    /// Withdraws the pending posted receive behind `ticket`, requeueing
    /// the message a sender may have handed it meanwhile.
    pub(crate) fn withdraw_ticket(&self, ticket: Ticket) {
        let mut inner = self.inner.lock();
        if let Some(arrived) = self.withdraw(&mut inner, &ticket).arrived {
            inner.requeue_front(arrived);
        }
    }

    /// The wait of a receive whose caller holds its state between polls:
    /// `ticket` is its posted receive, once a poll has registered one
    /// ([`Recv::into_ticket`] hands it back). Its caller withdraws a ticket
    /// it stops polling ([`withdraw_ticket`](Mailbox::withdraw_ticket)).
    pub(crate) fn resume(&self, filter: Match, ticket: Option<Ticket>) -> Recv<'_> {
        Recv {
            mailbox: self,
            filter,
            ticket,
            buf: None,
        }
    }

    /// The oldest message matching `filter`, once one arrives, with the
    /// rendezvous buffer `buf` posted meanwhile (see
    /// [`rendezvous_send`](Mailbox::rendezvous_send)) and handed back if
    /// the message did not use it. FIFO per (source, tag) pair
    /// (non-overtaking); wildcard filters match in global arrival order.
    /// Posts at its first poll.
    pub(crate) fn recv(&self, filter: Match, buf: Option<Vec<u8>>) -> Recv<'_> {
        Recv {
            mailbox: self,
            filter,
            ticket: None,
            buf,
        }
    }

    /// Removes the posted receive behind `ticket` from the table (under
    /// the lock), ending its wait, and returns it.
    fn withdraw(&self, inner: &mut Inner, ticket: &Ticket) -> PostedRecv {
        let idx = inner.index_of(ticket);
        self.disarm(inner, idx);
        inner.posted.remove(idx)
    }
}

/// The one wait for a receive: a future that resolves to the oldest
/// message matching its filter, polled by the cooperative executor or by
/// a rank thread's [`block_on`](crate::block_on) alike. Each poll takes
/// the mailbox lock once. The first poll takes an already-queued match and
/// hands it back at once, or else registers a posted receive (with the
/// rendezvous buffer, if any); from then on a poll unwinds with the
/// world's poison, or takes the arrival, or leaves its waker in the table
/// entry. It holds only what a wait needs — the mailbox, the filter, the
/// ticket and the buffer — and never a message. Dropping an unresolved
/// wait cancels the posting, requeueing any message it had already
/// matched. Like any future it is not polled once it has resolved: it
/// would post a second receive.
pub(crate) struct Recv<'a> {
    mailbox: &'a Mailbox,
    filter: Match,
    /// The posted receive, once a poll has registered it.
    ticket: Option<Ticket>,
    /// Rendezvous destination, until the receive is posted with it.
    buf: Option<Vec<u8>>,
}

impl Future for Recv<'_> {
    type Output = (Message, Option<Vec<u8>>);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mailbox = this.mailbox;
        let mut inner = mailbox.inner.lock();
        let (ticket, posted_now) = match this.ticket.take() {
            Some(ticket) => (ticket, false),
            None => {
                if let Some((arrived, candidates)) = inner.take_queued(this.filter, mailbox.ctl()) {
                    drop(inner);
                    let msg = mailbox.collect(arrived, this.filter, candidates);
                    return Poll::Ready((msg, this.buf.take()));
                }
                (inner.register(this.filter, this.buf.take()), true)
            }
        };
        let poisoned = inner.poisoned.clone();
        let taken = match poisoned {
            Some(_) => {
                mailbox.withdraw(&mut inner, &ticket);
                None
            }
            None => {
                let idx = inner.index_of(&ticket);
                if inner.posted[idx].arrived.is_none() {
                    mailbox.arm(&mut inner, idx, cx.waker());
                    this.ticket = Some(ticket);
                    None
                } else {
                    Some(inner.posted.remove(idx))
                }
            }
        };
        drop(inner);
        if posted_now {
            mailbox.note_touch();
        }
        if let Some(diagnosis) = poisoned {
            panic!("{POISON_MARK}{diagnosis}");
        }
        let Some(p) = taken else {
            return Poll::Pending;
        };
        let arrived = p.arrived.expect("checked above");
        // A handed-off message is the only candidate by construction: had
        // another queued message matched the filter, it would have been
        // taken at post time.
        Poll::Ready((mailbox.collect(arrived, this.filter, 1), p.buf))
    }
}

impl Recv<'_> {
    /// The posted receive's ticket, for a caller that holds the wait
    /// between polls itself (see [`Mailbox::resume`]).
    pub(crate) fn into_ticket(mut self) -> Option<Ticket> {
        self.ticket.take()
    }
}

impl Drop for Recv<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            self.mailbox.withdraw_ticket(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use crate::msg::pack_tag;
    use crate::runtime::{ThreadWaker, SPIN_BUDGET};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    impl Mailbox {
        /// A standalone uninstrumented mailbox.
        fn new() -> Mailbox {
            Mailbox::with_instrumentation(0, None, None, None)
        }

        /// Blocking [`recv`](Mailbox::recv), for thread-based unit tests.
        fn recv_blocking(&self, filter: Match) -> Message {
            block_on(self.recv(filter, None)).0
        }

        /// Non-blocking variant: removes the oldest matching message if present.
        fn try_recv(&self, filter: Match) -> Option<Message> {
            let taken = self.inner.lock().take_queued(filter, self.ctl());
            taken.map(|(arrived, candidates)| self.collect(arrived, filter, candidates))
        }

        /// Registers a receive with the rendezvous buffer `buf` ahead of its
        /// wait, as a [`Recv`]'s first poll does when nothing is queued.
        fn post_buffer(&self, filter: Match, buf: Option<Vec<u8>>) -> Ticket {
            let mut inner = self.inner.lock();
            assert!(inner.lanes.is_empty(), "nothing queued yet");
            inner.register(filter, buf)
        }

        /// Blocks the calling thread on the pending posted receive behind
        /// `ticket`.
        fn wait_blocking(&self, ticket: Ticket, filter: Match) -> (Message, Option<Vec<u8>>) {
            block_on(self.resume(filter, Some(ticket)))
        }

        /// Number of queued (unmatched) messages.
        fn pending(&self) -> usize {
            let inner = self.inner.lock();
            inner.lanes.values().map(|lane| lane.iter().count()).sum()
        }

        /// Buckets the lane table has room for, live or not.
        fn lane_capacity(&self) -> usize {
            self.inner.lock().lanes.capacity()
        }
    }

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
        assert_eq!(mb.recv_blocking(exact(1, 5)).data.bytes().unwrap(), &[1]);
        assert_eq!(mb.recv_blocking(exact(1, 5)).data.bytes().unwrap(), &[2]);
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        mb.push(msg(2, 9, vec![9]));
        mb.push(msg(1, 5, vec![5]));
        assert_eq!(mb.recv_blocking(exact(1, 5)).data.bytes().unwrap(), &[5]);
        assert_eq!(mb.pending(), 1);
        assert_eq!(mb.recv_blocking(exact(2, 9)).data.bytes().unwrap(), &[9]);
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
        let t = std::thread::spawn(move || {
            mb2.recv_blocking(exact(3, 1))
                .data
                .bytes()
                .unwrap()
                .to_vec()
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.push(msg(3, 1, vec![42]));
        assert_eq!(t.join().unwrap(), vec![42]);
    }

    #[test]
    fn wildcard_candidates_counted_for_race_detection() {
        use crate::check::{Event, Inspector, Settings};
        let insp = Arc::new(Inspector::new(1, Settings::default(), None));
        let mb = Mailbox::with_instrumentation(0, Some(Arc::clone(&insp)), None, None);
        mb.push(msg(1, 5, vec![1]));
        mb.push(msg(2, 6, vec![2]));
        assert_eq!(mb.recv_blocking(any()).src, 1, "oldest arrival wins");
        assert_eq!(mb.recv_blocking(any()).src, 2);
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
        assert_eq!(mb.recv_blocking(any()).src, 7);
        assert_eq!(mb.recv_blocking(any()).src, 8);
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
            let m = mb.recv_blocking(any());
            assert_eq!(m.src, *src);
            assert_eq!((m.full_tag & 0xFFFF_FFFF) as u32, *tag);
            assert_eq!(m.data.bytes().unwrap(), &[i as u8]);
        }
    }

    #[test]
    fn posted_receive_gets_direct_handoff() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(exact(1, 7)) else {
            panic!("nothing queued yet");
        };
        mb.push(msg(1, 7, vec![3]));
        assert_eq!(mb.pending(), 0, "message must go to the posted receive");
        let (m, spare) = mb.wait_blocking(ticket, exact(1, 7));
        assert_eq!(m.data.bytes().unwrap(), &[3]);
        assert!(spare.is_none());
    }

    #[test]
    fn post_takes_already_queued_message() {
        let mb = Mailbox::new();
        mb.push(msg(1, 7, vec![4]));
        match mb.post(exact(1, 7)) {
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
        let handle = mb.post(exact(1, 7));
        assert!(matches!(handle, PostedHandle::Ready(..)));
        mb.cancel(handle);
        assert_eq!(mb.recv_blocking(exact(1, 7)).data.bytes().unwrap(), &[1]);
        assert_eq!(mb.recv_blocking(exact(1, 7)).data.bytes().unwrap(), &[2]);
    }

    /// A lane-table bucket (key and lane) holds one queued message in
    /// 64 B: the envelope is the key's, and a lane of many keeps its deque
    /// where a lane of one keeps its message.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_lane_bucket_holds_one_message_in_64_bytes() {
        assert_eq!(std::mem::size_of::<(LaneKey, Lane)>(), 64);
    }

    /// A burst of early messages from `k` distinct sources, one of them
    /// with three messages behind each other, grows the lane table; once
    /// every message is received the table holds no capacity at all.
    #[test]
    fn a_drained_burst_leaves_no_lane_capacity() {
        let k = 24;
        let mb = Mailbox::new();
        for src in 0..k {
            mb.push(msg(src, 3, vec![src as u8]));
        }
        mb.push(msg(5, 3, vec![100]));
        mb.push(msg(5, 3, vec![101]));
        assert!(mb.lane_capacity() >= k, "{}", mb.lane_capacity());
        for src in (0..k).rev() {
            assert_eq!(
                mb.recv_blocking(exact(src, 3)).data.bytes().unwrap(),
                &[src as u8]
            );
            if src == k / 4 {
                assert!(mb.lane_capacity() < k, "a table down to a quarter shrinks");
            }
        }
        assert_eq!(mb.pending(), 2);
        assert_eq!(mb.recv_blocking(exact(5, 3)).data.bytes().unwrap(), &[100]);
        assert_eq!(mb.recv_blocking(exact(5, 3)).data.bytes().unwrap(), &[101]);
        assert_eq!(mb.pending(), 0);
        assert_eq!(mb.lane_capacity(), 0);
    }

    #[test]
    fn inventory_counts_a_lane_with_its_backlog() {
        let mb = Mailbox::new();
        mb.push(msg(2, 1, vec![1, 2]));
        mb.push(msg(1, 3, vec![3]));
        mb.push(msg(2, 1, vec![4, 5, 6]));
        mb.push(msg(2, 1, vec![]));
        let lanes: Vec<_> = mb
            .inventory()
            .iter()
            .map(|l| (l.src, l.tag, l.queued, l.bytes))
            .collect();
        assert_eq!(lanes, [(1, 3, 1, 1), (2, 1, 3, 5)]);
    }

    #[test]
    fn posted_receives_match_in_posting_order() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(t1) = mb.post(exact(1, 7)) else {
            panic!()
        };
        let PostedHandle::Pending(t2) = mb.post(exact(1, 7)) else {
            panic!()
        };
        mb.push(msg(1, 7, vec![1]));
        mb.push(msg(1, 7, vec![2]));
        assert_eq!(
            mb.wait_blocking(t1, exact(1, 7)).0.data.bytes().unwrap(),
            &[1]
        );
        assert_eq!(
            mb.wait_blocking(t2, exact(1, 7)).0.data.bytes().unwrap(),
            &[2]
        );
    }

    #[test]
    fn cancelled_posted_receive_requeues_its_message() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(any()) else {
            panic!()
        };
        mb.push(msg(5, 1, vec![10]));
        mb.push(msg(5, 1, vec![11]));
        assert_eq!(mb.pending(), 1, "first message went to the posted receive");
        mb.cancel(PostedHandle::Pending(ticket));
        assert_eq!(mb.pending(), 2);
        // Order restored: the handed-off message is back at the front.
        assert_eq!(mb.recv_blocking(exact(5, 1)).data.bytes().unwrap(), &[10]);
        assert_eq!(mb.recv_blocking(exact(5, 1)).data.bytes().unwrap(), &[11]);
    }

    #[test]
    fn rendezvous_send_fills_posted_buffer() {
        let mb = Mailbox::new();
        let ticket = mb.post_buffer(exact(2, 4), Some(vec![0u8; 8]));
        let words = [0x0102_0304_0506_0708u64];
        assert!(mb.rendezvous_send(2, pack_tag(0, 4), &words, None));
        let (m, spare) = mb.wait_blocking(ticket, exact(2, 4));
        assert!(spare.is_none(), "buffer was consumed by the rendezvous");
        assert_eq!(m.data.bytes().unwrap(), &[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn rendezvous_send_refuses_without_matching_posted_buffer() {
        let mb = Mailbox::new();
        // No posted receive at all.
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Posted receive without a buffer.
        let PostedHandle::Pending(t1) = mb.post(exact(2, 4)) else {
            panic!()
        };
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Eager delivery still reaches it, returning no spare.
        mb.push(msg(2, 4, vec![1]));
        let (m, spare) = mb.wait_blocking(t1, exact(2, 4));
        assert_eq!(m.data.bytes().unwrap(), &[1]);
        assert!(spare.is_none());
        // Posted buffer of the wrong size: rendezvous declines.
        let t2 = mb.post_buffer(exact(2, 4), Some(vec![0u8; 4]));
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        mb.push(msg(2, 4, vec![9; 8]));
        let (m, spare) = mb.wait_blocking(t2, exact(2, 4));
        assert_eq!(m.data.len(), 8);
        assert_eq!(spare, Some(vec![0u8; 4]), "unused buffer comes back");
    }

    #[test]
    fn eager_delivery_returns_spare_rendezvous_buffer() {
        let mb = Mailbox::new();
        let (m, spare) = {
            let mb = &mb;
            std::thread::scope(|s| {
                let recv = mb.recv(exact(1, 2), Some(vec![0u8; 16]));
                let h = s.spawn(move || block_on(recv));
                std::thread::sleep(Duration::from_millis(20));
                mb.push(msg(1, 2, vec![5; 4]));
                h.join().unwrap()
            })
        };
        assert_eq!(m.data.bytes().unwrap(), &[5; 4]);
        assert_eq!(spare, Some(vec![0u8; 16]));
    }

    /// A budget no test outlives: a waiter given it is still watching its
    /// waker's flag whenever its sender gets round to sending.
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

    /// Polls `cond` (an observation of another thread's counters or of the
    /// mailbox under its lock) until it holds, failing the test instead of
    /// hanging it.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "never {what}");
            std::thread::yield_now();
        }
    }

    /// A waiting thread's handle, which joins to what it received.
    type Waiter<'scope> = std::thread::ScopedJoinHandle<'scope, (Message, Option<Vec<u8>>)>;

    /// Starts a thread of `scope` that spins for `budget` before it parks,
    /// as a rank thread would, and blocks on `ticket`; returns its handle
    /// and its waker, whose counters move as it spins and parks.
    fn waiter<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        mb: &'scope Mailbox,
        ticket: Ticket,
        filter: Match,
        budget: Duration,
    ) -> (Waiter<'scope>, Arc<ThreadWaker>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = scope.spawn(move || {
            crate::runtime::spin_before_parking(budget);
            tx.send(ThreadWaker::current())
                .expect("the test is listening");
            mb.wait_blocking(ticket, filter)
        });
        (handle, rx.recv().expect("the waiter starts"))
    }

    /// Posts one receive on a fresh mailbox, waits on it from a thread
    /// that spins for `budget`, and delivers its eight bytes by `path` at
    /// `when` — the interleaving is read off the waiter's own counters,
    /// not guessed with a sleep. Returns its `(spun, parked)` afterwards.
    fn delivered(budget: Duration, path: Path, when: When) -> (u64, u64) {
        let mb = Mailbox::new();
        let buf = matches!(path, Path::Rendezvous).then(|| vec![0u8; 8]);
        let ticket = mb.post_buffer(exact(1, 7), buf);
        let deliver = || match path {
            Path::Eager => mb.push(msg(1, 7, vec![8, 7, 6, 5, 4, 3, 2, 1])),
            Path::Rendezvous => {
                assert!(mb.rendezvous_send(1, pack_tag(0, 7), &[0x0102_0304_0506_0708u64], None))
            }
        };
        let ((m, spare), thread) = std::thread::scope(|s| {
            if matches!(when, When::BeforeTheWait) {
                deliver();
            }
            let (handle, thread) = waiter(s, &mb, ticket, exact(1, 7), budget);
            match when {
                When::BeforeTheWait => {}
                When::WhileItSpins => {
                    until("spun", || thread.wait_counts().0 >= 1);
                    deliver();
                }
                When::OnceItHasParked => {
                    until("parked", || thread.wait_counts().1 >= 1);
                    deliver();
                }
            }
            (handle.join().unwrap(), thread)
        });
        assert_eq!(
            m.data.bytes().unwrap(),
            &[8, 7, 6, 5, 4, 3, 2, 1],
            "{path:?} {when:?}"
        );
        assert!(spare.is_none(), "{path:?} {when:?}");
        thread.wait_counts()
    }

    #[test]
    fn a_message_delivered_before_the_wait_is_collected_without_waiting() {
        for path in [Path::Eager, Path::Rendezvous] {
            for budget in [Duration::ZERO, SPIN_BUDGET] {
                assert_eq!(
                    delivered(budget, path, When::BeforeTheWait),
                    (0, 0),
                    "{path:?}"
                );
            }
        }
    }

    #[test]
    fn a_message_delivered_while_the_waiter_spins_wakes_it_through_the_flag() {
        for path in [Path::Eager, Path::Rendezvous] {
            let counts = delivered(NEVER_PARKS, path, When::WhileItSpins);
            assert_eq!(counts, (1, 0), "{path:?}: one spin, caught, never parked");
        }
    }

    #[test]
    fn a_message_delivered_after_the_waiter_parked_wakes_it_through_the_unpark() {
        for path in [Path::Eager, Path::Rendezvous] {
            let (spun, parked) = delivered(Duration::ZERO, path, When::OnceItHasParked);
            assert_eq!(spun, 0, "{path:?}: a zero budget never watches the flag");
            assert!(parked >= 1, "{path:?}");
            // The spinning twin: the sender outlasts the budget.
            let (spun, parked) = delivered(SPIN_BUDGET, path, When::OnceItHasParked);
            assert_eq!(spun, 1, "{path:?}: the budget is spent once per wait");
            assert!(parked >= 1, "{path:?}");
        }
    }

    /// Whether the posted receive behind ticket `id` still holds the waker
    /// its waiter left there — a fill takes it to fire it.
    fn holds_waker(mb: &Mailbox, id: NonZeroU64) -> bool {
        let inner = mb.inner.lock();
        inner.posted.iter().any(|p| p.id == id && p.waker.is_some())
    }

    /// Whether a sender has filled the posted receive behind ticket `id`.
    fn filled(mb: &Mailbox, id: NonZeroU64) -> bool {
        let inner = mb.inner.lock();
        inner
            .posted
            .iter()
            .any(|p| p.id == id && p.arrived.is_some())
    }

    #[test]
    fn a_fill_of_another_ticket_leaves_the_spinner_waiting_for_its_own() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(other) = mb.post(exact(1, 7)) else {
            panic!()
        };
        let PostedHandle::Pending(mine) = mb.post(exact(2, 8)) else {
            panic!()
        };
        let mine_id = mine.id;
        let (m, counts) = std::thread::scope(|s| {
            let (handle, thread) = waiter(s, &mb, mine, exact(2, 8), NEVER_PARKS);
            until("spun", || thread.wait_counts().0 >= 1);
            // Fills the other posted receive, whose waker is not the
            // spinner's: its waker stays in its own entry, unfired.
            mb.push(msg(1, 7, vec![1]));
            assert!(filled(&mb, other.id));
            assert!(holds_waker(&mb, mine_id), "the spinner was not woken");
            assert!(!handle.is_finished());
            mb.push(msg(2, 8, vec![2]));
            let (m, _) = handle.join().unwrap();
            (m, thread.wait_counts())
        });
        assert_eq!(m.data.bytes().unwrap(), &[2], "its own message");
        assert_eq!(counts, (1, 0), "one spin, woken once, never parked");
        let (m, _) = mb.wait_blocking(other, exact(1, 7));
        assert_eq!(m.data.bytes().unwrap(), &[1], "the other one kept its fill");
    }

    /// Two threads of one rank waiting on its mailbox at once — one on
    /// the world communicator, one on a split child moved to a helper
    /// thread — are both woken: each receive carries its own thread's
    /// waker. Only the rank thread's wait comes off the world's runnable
    /// count, so rank 1 waiting for both to be posted is no stall.
    #[test]
    fn two_threads_of_one_rank_waiting_at_once_are_both_woken() {
        let world = crate::runtime::tests::thread_world(2);
        let waiting = || {
            let inner = world.mailboxes[0].inner.lock();
            inner.posted.iter().filter(|p| p.waker.is_some()).count()
        };
        let out = crate::runtime::tests::on_threads(&world, |rank, comm| {
            let child = block_on(comm.split_async(0, 0));
            if rank == 1 {
                until("both of rank 0's receives wait", || waiting() == 2);
                child.send(&[20u64], 0, 2);
                comm.send(&[10u64], 0, 1);
                return 0;
            }
            std::thread::scope(|s| {
                let helper = s.spawn(move || {
                    let mut b = [0u64];
                    block_on(child.recv_async(&mut b, 1, 2));
                    b[0]
                });
                let mut a = [0u64];
                block_on(comm.recv_async(&mut a, 1, 1));
                a[0] + helper.join().unwrap()
            })
        });
        assert_eq!(out, [30, 0]);
    }

    /// 100 000 8-byte round trips between the two ranks of a thread
    /// world, each side spinning for `budget` before it parks; a wake-up
    /// the mailbox loses leaves both ranks counted as waiting, a stall
    /// the world names and panics with, and a mismatched one fails the
    /// payload check. Returns `(spun, parked)` summed over both sides.
    fn ping_pong(budget: Duration) -> (u64, u64) {
        const ROUNDS: u64 = 100_000;
        let world = crate::runtime::tests::thread_world(2);
        let mailboxes = &world.mailboxes;
        let counts = crate::runtime::tests::on_threads(&world, |rank, _| {
            crate::runtime::spin_before_parking(budget);
            let (mine, theirs) = (&mailboxes[rank], &mailboxes[1 - rank]);
            for i in 0..ROUNDS {
                let word = i.to_le_bytes().to_vec();
                if rank == 0 {
                    theirs.push(msg(0, 1, word.clone()));
                    assert_eq!(mine.recv_blocking(exact(1, 1)).data.bytes().unwrap(), &word);
                } else {
                    let m = mine.recv_blocking(exact(0, 1));
                    theirs.push(msg(1, 1, m.data.bytes().unwrap().to_vec()));
                    assert_eq!(m.data.bytes().unwrap(), &word);
                }
            }
            ThreadWaker::current().wait_counts()
        });
        counts
            .into_iter()
            .fold((0, 0), |(s, p), (spun, parked)| (s + spun, p + parked))
    }

    /// Without a budget, then with one — one after the other, so the two
    /// pairs of threads do not take turns on the same CPUs. The spinning
    /// pair gets a budget of about one round trip instead of
    /// [`SPIN_BUDGET`]: some waits are caught watching and most run out
    /// (four in five on an idle host), so the hand-over from the flag to
    /// the park — where a wake-up could be lost — is crossed tens of
    /// thousands of times; the full budget would cross it a handful (and,
    /// beside the other tests of this binary, would burn 50 µs a round
    /// doing so).
    #[test]
    fn ping_pong_loses_no_wakeup_on_either_side_of_the_rule() {
        assert_eq!(ping_pong(Duration::ZERO).0, 0);
        let (spun, parked) = ping_pong(Duration::from_micros(3));
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

    /// The property tests' input source: xorshift64*, seeded through
    /// splitmix64 so that neighbouring seeds draw unrelated inputs.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Rng((z ^ (z >> 31)) | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A uniform draw from `r`.
        fn range(&mut self, r: std::ops::Range<u64>) -> u64 {
            r.start + self.next() % (r.end - r.start)
        }
    }

    /// The indexed mailbox is observationally equivalent to the legacy
    /// linear scan: same matched envelope and payload for every
    /// interleaving of pushes with exact, half-wildcard and full wildcard
    /// receives — FIFO per (src, tag), non-overtaking, wildcard receives
    /// in global arrival order. 256 seeded cases of 1 to 119 operations.
    #[test]
    fn indexed_mailbox_matches_linear_scan_semantics() {
        for case in 0..256 {
            let seed = 0x6d61_696c_0000 + case;
            let mut rng = Rng::new(seed);
            let at = format!("case {case}, seed {seed:#x}");
            // Both sides answer a receive alike: both empty, or the same
            // envelope and payload.
            let same = |got: Option<Message>, want: Option<(usize, u64, Vec<u8>)>| {
                assert_eq!(got.is_some(), want.is_some(), "{at}");
                if let (Some(g), Some(w)) = (got, want) {
                    assert_eq!(g.src, w.0, "{at}");
                    assert_eq!(g.full_tag, w.1, "{at}");
                    assert_eq!(g.data.bytes().unwrap(), &w.2[..], "{at}");
                }
            };
            let mb = Mailbox::new();
            let mut model = LinearModel::default();
            let mut payload = 0u8;
            for _ in 0..rng.range(1..120) {
                let kind = rng.range(0..6);
                let (src, tag) = (rng.range(0..3) as usize, rng.range(0..3) as u32);
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
                        same(mb.try_recv(f), model.try_recv(f));
                    }
                    // Wildcard source (tag pinned).
                    4 => {
                        let f = Match {
                            comm_id: 0,
                            src: None,
                            tag: Some(tag),
                        };
                        same(mb.try_recv(f), model.try_recv(f));
                    }
                    // Full wildcard.
                    _ => same(mb.try_recv(any()), model.try_recv(any())),
                }
            }
            // Drain both completely; remainders must agree.
            loop {
                let got = mb.try_recv(any());
                let drained = got.is_none();
                same(got, model.try_recv(any()));
                if drained {
                    break;
                }
            }
        }
    }
}

//! Communicators: rank naming, point-to-point operations, splitting.
//!
//! A [`Comm`] is a rank's handle onto an ordered group of ranks, mirroring
//! `MPI_Comm`. Point-to-point sends are *eager* below
//! [`LONG_MSG_THRESHOLD`](crate::coll::LONG_MSG_THRESHOLD) — the payload
//! is copied into the destination mailbox and the send completes locally,
//! so symmetric exchange patterns (ring `sendrecv`, pairwise all-to-all)
//! cannot deadlock. At and above the threshold, typed sends first try the
//! *rendezvous* fast path: if the destination rank has already posted a
//! matching receive of the right size, the sender encodes straight into
//! that receive's buffer — one payload copy end to end and no
//! intermediate allocation. When no receive is posted, large sends fall
//! back to the eager path, preserving the no-deadlock property. Virtual
//! sends and sends of [`Ghost`](crate::Ghost) words are always eager, and
//! receives post a buffer only where a send would look for one.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use crate::check::{CollSite, Event, Inspector};
use crate::coll::LONG_MSG_THRESHOLD;
use crate::datatype::{is_ghost, Word};
use crate::mailbox::PostedHandle;
use crate::msg::{pack_tag, Match, Message, Tag, COLL_BIT, MAX_USER_TAG};
use crate::payload::{Envelope, Payload};
use crate::runtime::World;
use crate::virt::VirtualNet;

/// A communicator: this rank's view of an ordered group of ranks.
///
/// Each rank thread owns its own `Comm` value (the type is intentionally
/// not `Sync`): collective calls sequence themselves through an internal
/// per-rank counter, which is correct precisely because every rank of the
/// group executes the same collective calls in the same order — the MPI
/// contract.
pub struct Comm {
    world: Arc<World>,
    /// Local rank -> global rank.
    group: Arc<Vec<usize>>,
    /// Global rank -> local rank (the inverse of `group`), so receives
    /// translate sources in O(1) instead of scanning.
    inverse: Inverse,
    rank: usize,
    id: u32,
    coll_seq: Cell<u32>,
    /// Recycled rendezvous receive buffer: posted with large blocking
    /// receives so matching sends encode straight into it, then taken
    /// back. Grows to the largest message received and is reused for the
    /// rest of the communicator's life — steady-state large receives
    /// allocate nothing.
    scratch: RefCell<Vec<u8>>,
}

/// The inverse of a communicator's group. The world group is the
/// identity, so its inverse needs no table: a table costs n hashed
/// inserts per world and a hashed probe per receive, which a 65536-rank
/// world pays for nothing.
enum Inverse {
    Identity,
    Table(Arc<HashMap<usize, usize>>),
}

fn invert(group: &[usize]) -> Inverse {
    Inverse::Table(Arc::new(
        group.iter().enumerate().map(|(l, &g)| (g, l)).collect(),
    ))
}

impl Comm {
    /// The world communicator for `rank` (all ranks, identity mapping).
    /// The group is a shared table built once per world: building it per
    /// rank was O(n²) memory, which at 65536 ranks is fatal long before
    /// the compute is.
    pub(crate) fn world(world: Arc<World>, rank: usize) -> Comm {
        let group = Arc::clone(&world.world_group);
        Comm {
            world,
            group,
            inverse: Inverse::Identity,
            rank,
            id: 0,
            coll_seq: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Reserves a fresh internal tag for one collective call. All ranks call
    /// collectives in the same order, so the per-rank counters agree.
    pub(crate) fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLL_BIT | (seq & (COLL_BIT - 1))
    }

    fn local_of_global(&self, global: usize) -> usize {
        match &self.inverse {
            Inverse::Identity => global,
            Inverse::Table(table) => *table
                .get(&global)
                .expect("message from a rank outside this communicator"),
        }
    }

    /// Opens an instrumented collective scope (records `CollBegin`, and
    /// `CollEnd` when the returned guard drops). `root`, when present, is
    /// a *local* rank and is recorded as its global rank, so divergence
    /// comparison across members is mapping-independent. No-op guard on
    /// unchecked runs.
    pub(crate) fn coll_scope(
        &self,
        op: &'static str,
        root: Option<usize>,
        shape: Option<u64>,
    ) -> CollScope {
        match &self.world.inspector {
            None => CollScope { state: None },
            Some(insp) => {
                let grank = self.group[self.rank];
                let root = root.map(|r| self.group[r]);
                let site = insp.coll_begin(grank, self.id, op, root, shape);
                CollScope {
                    state: Some((Arc::clone(insp), grank, site)),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends a (possibly shared) payload to local rank `dst` with `tag`.
    /// Cloning a [`Payload`] only bumps a refcount, so fan-out callers
    /// deliver one buffer to many destinations without per-edge copies.
    pub(crate) fn send_payload(&self, data: Payload, dst: usize, tag: Tag) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        let (gsrc, gdst) = (self.group[self.rank], self.group[dst]);
        if let Some(insp) = &self.world.inspector {
            insp.record(
                gsrc,
                Event::Send {
                    dst: gdst,
                    comm: self.id,
                    tag,
                    bytes: data.len(),
                },
            );
        }
        // Under virtual execution, price the message and stamp its
        // simulated arrival before delivery.
        let arrival = self
            .v_price(self.rank, dst, data.len() as u64, None, |c| c.sender_done)
            .map(|c| c.arrival);
        let msg = Message {
            src: gsrc,
            full_tag: pack_tag(self.id, tag),
            data,
            arrival,
        };
        self.world.deliver(gdst, msg);
    }

    /// The one pricing step of virtual execution (`None` natively): prices
    /// `bytes` from local rank `src` to local rank `dst`, ready at `ready`
    /// (this rank's clock when `None`), raises this rank's clock to
    /// `clock_to` of the cost, and counts the transfer toward the net's
    /// horizon ([`World::priced_one`]). Sends and one-sided accesses both
    /// price through it.
    pub(crate) fn v_price(
        &self,
        src: usize,
        dst: usize,
        bytes: u64,
        ready: Option<simnet::Time>,
        clock_to: fn(&simnet::P2pCost) -> simnet::Time,
    ) -> Option<simnet::P2pCost> {
        let (clock, net) = self.virtual_clock()?;
        let ready = ready.unwrap_or_else(|| clock.get());
        let cost = net.p2p(self.group[src], self.group[dst], bytes, ready);
        clock.set(clock.get().max(clock_to(&cost)));
        self.world.priced_one(net);
        Some(cost)
    }

    /// Receives a payload from local rank `src` with `tag`, without
    /// forcing ownership of the bytes (zero-copy for forwarding). The wait
    /// is the mailbox's one wait: a rank thread's `block_on` spins and
    /// parks on it, a cooperative task yields.
    pub(crate) async fn recv_payload_async(&self, src: usize, tag: Tag) -> Payload {
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let filter = Match {
            comm_id: self.id,
            src: Some(self.group[src]),
            tag: Some(tag),
        };
        let msg = self.world.mailboxes[self.group[self.rank]]
            .recv_async(filter)
            .await;
        self.observe_arrival(msg.arrival);
        msg.data
    }

    /// Receives from local rank `src` with `tag` into `buf`, which must
    /// be of the message's length. The payload comes back still shared,
    /// for forwarding.
    pub(crate) async fn recv_into_async<T: Word>(
        &self,
        buf: &mut [T],
        src: usize,
        tag: Tag,
    ) -> Payload {
        let data = self.recv_payload_async(src, tag).await;
        data.decode_into(buf, self.envelope(src, tag));
        data
    }

    /// Receives a message of any length from local rank `src` with `tag`
    /// as a fresh vector of words (a reduction's operand).
    pub(crate) async fn recv_vec_async<T: Word>(&self, src: usize, tag: Tag) -> Vec<T> {
        let data = self.recv_payload_async(src, tag).await;
        data.decode(self.envelope(src, tag))
    }

    /// The envelope of a message from local rank `src` to this rank.
    pub(crate) fn envelope(&self, src: usize, tag: Tag) -> Envelope {
        Envelope {
            src: self.group[src],
            dst: self.group[self.rank],
            tag,
        }
    }

    /// The envelope of a received message.
    fn envelope_of(&self, msg: &Message) -> Envelope {
        Envelope {
            src: msg.src,
            dst: self.group[self.rank],
            tag: (msg.full_tag & 0xFFFF_FFFF) as Tag,
        }
    }

    /// Advances this rank's virtual clock to a received message's
    /// simulated arrival (no-op natively).
    fn observe_arrival(&self, arrival: Option<simnet::Time>) {
        if let Some(arr) = arrival {
            self.set_virtual_clock_at_least(arr);
        }
    }

    /// Sends `buf` to local rank `dst` with a user `tag`
    /// (< `MAX_USER_TAG`).
    pub fn send<T: Word>(&self, buf: &[T], dst: usize, tag: Tag) {
        assert!(tag < MAX_USER_TAG, "tag {tag:#x} is in the reserved range");
        self.send_words(buf, dst, tag);
    }

    /// Whether a typed message of `bytes` may take the rendezvous path
    /// (see the module docs), which both ends must agree on: the receive
    /// posts a buffer only for a send that would look for one. Virtual
    /// execution always sends eagerly so that message pricing stays in one
    /// place, and ghost words have no bytes to encode into a posted buffer.
    fn may_rendezvous<T: Word>(&self, bytes: usize) -> bool {
        bytes >= LONG_MSG_THRESHOLD && self.world.virtual_net.is_none() && !is_ghost::<T>()
    }

    /// Typed send with the rendezvous fast path for large messages.
    pub(crate) fn send_words<T: Word>(&self, words: &[T], dst: usize, tag: Tag) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        if self.may_rendezvous::<T>(words.len() * T::SIZE) {
            let (gsrc, gdst) = (self.group[self.rank], self.group[dst]);
            if self
                .world
                .rendezvous_words(gsrc, gdst, pack_tag(self.id, tag), words)
            {
                return;
            }
        }
        self.send_payload(Payload::encode(words), dst, tag);
    }

    /// Receives exactly `buf.len()` words from local rank `src` with `tag`.
    /// Panics if the matched message has a different length (MPI would
    /// raise `MPI_ERR_TRUNCATE`).
    pub fn recv<T: Word>(&self, buf: &mut [T], src: usize, tag: Tag) {
        crate::block_on(self.recv_async(buf, src, tag));
    }

    /// Awaitable mirror of [`recv`](Comm::recv), for rank bodies running
    /// on the cooperative scheduler.
    pub async fn recv_async<T: Word>(&self, buf: &mut [T], src: usize, tag: Tag) {
        assert!(tag < MAX_USER_TAG, "tag {tag:#x} is in the reserved range");
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let filter = Match {
            comm_id: self.id,
            src: Some(self.group[src]),
            tag: Some(tag),
        };
        self.recv_words_into_async(filter, buf).await;
    }

    /// Typed receive; posts a rendezvous buffer for large messages so a
    /// matching send can encode straight into it. The scratch `RefCell`
    /// is only borrowed between awaits, never across.
    async fn recv_words_into_async<T: Word>(&self, filter: Match, buf: &mut [T]) -> (usize, Tag) {
        let bytes = buf.len() * T::SIZE;
        let mailbox = &self.world.mailboxes[self.group[self.rank]];
        let (msg, spare) = if self.may_rendezvous::<T>(bytes) {
            let posted = self.take_scratch(bytes);
            mailbox.recv_posting_async(filter, Some(posted)).await
        } else {
            mailbox.recv_posting_async(filter, None).await
        };
        self.observe_arrival(msg.arrival);
        let env = self.envelope_of(&msg);
        msg.data.decode_into(buf, env);
        let envelope = (self.local_of_global(env.src), env.tag);
        // Recycle for the next large receive: the unused posted buffer,
        // or the payload itself when we are its only holder.
        if let Some(v) = spare {
            self.put_scratch(v);
        } else if let Some(v) = msg.data.try_into_unique_vec() {
            self.put_scratch(v);
        }
        envelope
    }

    /// Takes the recycled receive buffer, sized to exactly `len` bytes.
    fn take_scratch(&self, len: usize) -> Vec<u8> {
        let mut v = self.scratch.take();
        v.resize(len, 0);
        v
    }

    fn put_scratch(&self, v: Vec<u8>) {
        // Keep the larger allocation so alternating message sizes still
        // converge on an allocation-free steady state.
        if v.capacity() > self.scratch.borrow().capacity() {
            self.scratch.replace(v);
        }
    }

    /// Sends an untyped byte buffer (`MPI_BYTE`) to local rank `dst`. The
    /// entire transfer costs exactly one copy: the bytes are captured into
    /// a payload here (into a buffer recycled from this rank's previous
    /// receives, so steady-state traffic allocates nothing) and the
    /// receiver takes ownership of that payload.
    pub fn send_raw(&self, data: &[u8], dst: usize, tag: Tag) {
        assert!(tag < MAX_USER_TAG, "tag {tag:#x} is in the reserved range");
        let mut v = self.scratch.take();
        v.clear();
        v.extend_from_slice(data);
        self.send_payload(Payload::from_vec(v), dst, tag);
    }

    /// Receives an untyped byte message from local rank `src`, replacing
    /// `buf`'s contents (and length) with the payload. Zero-copy on the
    /// receive side: ownership of the payload allocation moves into `buf`
    /// whenever the sender's buffer has no other holders, which is always
    /// the case for point-to-point [`send_raw`](Comm::send_raw) traffic.
    /// The displaced buffer is kept for recycling by later sends and
    /// rendezvous receives.
    pub async fn recv_raw_async(&self, buf: &mut Vec<u8>, src: usize, tag: Tag) {
        assert!(tag < MAX_USER_TAG, "tag {tag:#x} is in the reserved range");
        let data = self.recv_payload_async(src, tag).await;
        let old = std::mem::replace(buf, data.into_vec(self.envelope(src, tag)));
        self.put_scratch(old);
    }

    /// Receives a message of any length, optionally constrained by source
    /// and/or tag. Returns the payload and the actual (source, tag).
    pub fn recv_any<T: Word>(&self, src: Option<usize>, tag: Option<Tag>) -> (Vec<T>, usize, Tag) {
        crate::block_on(self.recv_any_async(src, tag))
    }

    /// Awaitable mirror of [`recv_any`](Comm::recv_any).
    pub async fn recv_any_async<T: Word>(
        &self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> (Vec<T>, usize, Tag) {
        if let Some(t) = tag {
            assert!(t < MAX_USER_TAG, "tag {t:#x} is in the reserved range");
        }
        let filter = Match {
            comm_id: self.id,
            src: src.map(|s| self.group[s]),
            tag,
        };
        let msg = self.world.mailboxes[self.group[self.rank]]
            .recv_async(filter)
            .await;
        self.observe_arrival(msg.arrival);
        let env = self.envelope_of(&msg);
        (msg.data.decode(env), self.local_of_global(env.src), env.tag)
    }

    /// Combined send+receive (both with tag `tag`), the workhorse of ring
    /// and exchange patterns. Deadlock-free because sends are eager (the
    /// large-message rendezvous path only fires when the matching receive
    /// is already posted, so it cannot introduce a send-send wait cycle).
    pub fn sendrecv<T: Word>(&self, sbuf: &[T], dst: usize, rbuf: &mut [T], src: usize, tag: Tag) {
        crate::block_on(self.sendrecv_async(sbuf, dst, rbuf, src, tag));
    }

    /// Awaitable mirror of [`sendrecv`](Comm::sendrecv). The send half is
    /// eager and completes synchronously; only the receive can suspend.
    pub async fn sendrecv_async<T: Word>(
        &self,
        sbuf: &[T],
        dst: usize,
        rbuf: &mut [T],
        src: usize,
        tag: Tag,
    ) {
        self.send(sbuf, dst, tag);
        self.recv_async(rbuf, src, tag).await;
    }

    /// Posts a nonblocking receive into the mailbox's posted-receive
    /// table. An already-queued matching message is claimed immediately;
    /// otherwise any matching send from now on — including sends that
    /// happen before [`RecvHandle::wait`] — completes the receive
    /// directly, exactly as if the wait were already in progress.
    pub fn irecv<T: Word>(&self, src: usize, tag: Tag) -> RecvHandle<T> {
        assert!(tag < MAX_USER_TAG, "tag {tag:#x} is in the reserved range");
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let filter = Match {
            comm_id: self.id,
            src: Some(self.group[src]),
            tag: Some(tag),
        };
        let grank = self.group[self.rank];
        let posted = self.world.mailboxes[grank].post(filter, None);
        RecvHandle {
            world: Arc::clone(&self.world),
            grank,
            filter,
            posted: Some(posted),
            _marker: std::marker::PhantomData,
        }
    }

    /// Nonblocking send. With the eager/rendezvous protocol the payload is
    /// already delivered when this returns, so there is no send handle to
    /// wait on; the name exists for API parity with MPI-style code.
    pub fn isend<T: Word>(&self, buf: &[T], dst: usize, tag: Tag) {
        self.send(buf, dst, tag);
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Splits the communicator by `color`; ranks with equal color form a new
    /// communicator ordered by `(key, old rank)`. Mirrors `MPI_Comm_split`.
    pub fn split(&self, color: u32, key: i64) -> Comm {
        crate::block_on(self.split_async(color, key))
    }

    /// Awaitable mirror of [`split`](Comm::split).
    pub async fn split_async(&self, color: u32, key: i64) -> Comm {
        let _scope = self.coll_scope("split", None, None);
        // Share (color, key) among all ranks via the existing allgather.
        let mine = [u64::from(color), key as u64, self.rank as u64];
        let mut all = vec![0u64; 3 * self.size()];
        crate::coll::allgather::ring_async(self, &mine, &mut all).await;

        let mut members: Vec<(i64, usize)> = (0..self.size())
            .filter(|&r| all[3 * r] as u32 == color)
            .map(|r| (all[3 * r + 1] as i64, all[3 * r + 2] as usize))
            .collect();
        members.sort_unstable();

        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("calling rank must be in its own color group");

        // Deterministic child id: identical on every member of the new
        // communicator, distinct (whp) from sibling/parent communicators.
        let seq = self.coll_seq.get();
        let id = mix32(self.id, seq, color);

        let inverse = invert(&group);
        Comm {
            world: Arc::clone(&self.world),
            group: Arc::new(group),
            inverse,
            rank,
            id,
            coll_seq: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
        }
    }
}

/// Deterministic 3-input mixer for communicator ids (splitmix-style).
fn mix32(a: u32, b: u32, c: u32) -> u32 {
    let mut x = (u64::from(a) << 32) ^ (u64::from(b) << 16) ^ u64::from(c);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x = x ^ (x >> 31);
    (x as u32) | 1 // never 0, which is reserved for the world communicator
}

impl Comm {
    /// This rank's virtual clock and the net that prices it (`None`
    /// natively).
    pub(crate) fn virtual_clock(&self) -> Option<(&crate::virt::Clock, &dyn VirtualNet)> {
        let net = self.world.virtual_net.as_deref()?;
        Some((&self.world.virtual_clocks[self.group[self.rank]], net))
    }

    /// Raises this rank's virtual clock to at least `t`.
    pub(crate) fn set_virtual_clock_at_least(&self, t: simnet::Time) {
        if let Some((clock, _)) = self.virtual_clock() {
            clock.set(clock.get().max(t));
        }
    }

    /// Collective rendezvous on a shared object: every member receives
    /// the same `Arc`. All members must call this in the same collective
    /// order (the internal sequence number is the key). Get-or-create
    /// under the world's map lock: the first member to arrive calls `make`
    /// and leaves the object for the others, and the last to fetch it
    /// removes the entry — no member ever waits here. Used by RMA window
    /// creation, whose size allgather has every member on its way already.
    pub(crate) fn rendezvous_storage<T: Send + Sync + 'static>(
        &self,
        make: impl FnOnce() -> std::sync::Arc<T>,
    ) -> std::sync::Arc<T> {
        if let Some(remote) = &self.world.remote {
            // The shared object lives in one address space; a window over
            // ranks in different processes has nowhere to live.
            for &g in self.group.iter() {
                assert!(
                    remote.resident(g),
                    "mp: rendezvous_storage (RMA window creation) requires every communicator \
                     member to be resident in one process (rank {g} is hosted elsewhere)"
                );
            }
        }
        let seq = self.next_coll_tag();
        let key = (u64::from(self.id) << 32) | u64::from(seq & 0x7FFF_FFFF);
        let mut map = self.world.rendezvous.lock();
        let Some(entry) = map.get_mut(&key) else {
            let arc = make();
            if self.size() > 1 {
                map.insert(key, (arc.clone(), self.size() - 1));
            }
            return arc;
        };
        let arc = entry
            .0
            .clone()
            .downcast::<T>()
            .expect("rendezvous type mismatch");
        entry.1 -= 1;
        if entry.1 == 0 {
            map.remove(&key);
        }
        arc
    }
}

/// RAII guard of one instrumented collective call (see
/// [`Comm::coll_scope`]); records `CollEnd` on drop. Inert on unchecked
/// runs.
pub(crate) struct CollScope {
    state: Option<(Arc<Inspector>, usize, Option<CollSite>)>,
}

impl Drop for CollScope {
    fn drop(&mut self) {
        if let Some((insp, grank, site)) = self.state.take() {
            insp.coll_end(grank, site);
        }
    }
}

/// A posted nonblocking receive; call [`wait`](RecvHandle::wait) to match it.
///
/// The receive is live in the mailbox's posted-receive table from the
/// moment [`Comm::irecv`] returns: a matching send completes it whether
/// it lands before or after `wait` is called, and both orders observe the
/// same message. Dropping an unawaited handle cancels the posting; a
/// message it had already claimed is restored to the queue unreordered.
pub struct RecvHandle<T> {
    world: Arc<World>,
    grank: usize,
    filter: Match,
    posted: Option<PostedHandle>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Word> RecvHandle<T> {
    /// Blocks until the receive matches; fills `buf` (exact length).
    /// `comm` must be the communicator the receive was posted on.
    pub fn wait(self, comm: &Comm, buf: &mut [T]) {
        crate::block_on(self.wait_async(comm, buf));
    }

    /// Awaitable mirror of [`wait`](RecvHandle::wait).
    pub async fn wait_async(mut self, comm: &Comm, buf: &mut [T]) {
        let posted = self.posted.take().expect("posting survives until wait");
        let (msg, _) = self.world.mailboxes[self.grank]
            .complete_async(posted, self.filter)
            .await;
        comm.observe_arrival(msg.arrival);
        msg.data.decode_into(buf, comm.envelope_of(&msg));
    }
}

impl<T> Drop for RecvHandle<T> {
    fn drop(&mut self) {
        if let Some(posted) = self.posted.take() {
            self.world.mailboxes[self.grank].cancel(posted);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{run, run_traced, Engine};

    const DATA_TAG: crate::msg::Tag = 7;
    const SYNC_TAG: crate::msg::Tag = 8;

    /// Satellite: a pre-posted `irecv` must observe exactly the same
    /// message whether the matching send lands before or after the post.
    #[test]
    fn irecv_post_before_send_and_send_before_post_agree() {
        let expect: Vec<u32> = (0..257).map(|i| i * 3 + 1).collect();
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                // Case A: rank 1 posts first (it tells us once it has).
                let mut ready = [0u8];
                comm.recv(&mut ready, 1, SYNC_TAG);
                comm.send(
                    &(0..257).map(|i| i * 3 + 1).collect::<Vec<u32>>(),
                    1,
                    DATA_TAG,
                );
                // Case B: the payload is delivered (and a marker behind it
                // in program order) before rank 1 posts its receive.
                comm.send(
                    &(0..257).map(|i| i * 3 + 1).collect::<Vec<u32>>(),
                    1,
                    DATA_TAG,
                );
                comm.send(&[1u8], 1, SYNC_TAG);
                Vec::new()
            } else {
                // Case A: post, signal, then let the send complete it.
                let handle = comm.irecv::<u32>(0, DATA_TAG);
                comm.send(&[1u8], 0, SYNC_TAG);
                let mut a = vec![0u32; 257];
                handle.wait(comm, &mut a);
                // Case B: the marker on SYNC_TAG was sent *after* the data,
                // so once it arrives the data message is already queued and
                // the posting takes the eager-claimed path.
                let mut marker = [0u8];
                comm.recv(&mut marker, 0, SYNC_TAG);
                let handle = comm.irecv::<u32>(0, DATA_TAG);
                let mut b = vec![0u32; 257];
                handle.wait(comm, &mut b);
                assert_eq!(a, b, "both orders must observe the same message");
                a
            }
        });
        assert_eq!(results[1], expect);
    }

    /// Dropping an unawaited `irecv` must not lose a message it had
    /// already claimed: a later receive still sees it, in order.
    #[test]
    fn dropping_an_irecv_requeues_its_message() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[10u8], 1, DATA_TAG);
                comm.send(&[20u8], 1, DATA_TAG);
            } else {
                let mut sync = [0u8; 1];
                // Wait until both messages are queued (non-overtaking per
                // lane: the second send is behind the first).
                comm.recv_any::<u8>(Some(0), Some(DATA_TAG)); // takes the 10
                {
                    let _claimed = comm.irecv::<u8>(0, DATA_TAG); // claims the 20
                } // dropped unawaited -> message restored
                comm.recv(&mut sync, 0, DATA_TAG);
                assert_eq!(sync[0], 20, "requeued message must come back");
            }
        });
    }

    /// Large typed messages take the rendezvous path when the receive is
    /// already posted and the eager path otherwise; the observable result
    /// (data and trace) is identical either way.
    #[test]
    fn large_messages_roundtrip_on_both_paths() {
        let n_words = crate::coll::LONG_MSG_THRESHOLD / 8 + 13;
        let expect: Vec<u64> = (0..n_words as u64)
            .map(|i| i.wrapping_mul(0x9E37))
            .collect();
        for sender_delay in [false, true] {
            let ((), trace) = {
                let expect = &expect[..];
                let (mut results, trace) = run_traced(2, Engine::Threads, move |comm| async move {
                    if comm.rank() == 0 {
                        let mut ready = [0u8];
                        comm.recv(&mut ready, 1, SYNC_TAG);
                        if sender_delay {
                            // Give the receiver time to block in recv() so
                            // the rendezvous path can fire.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        comm.send(expect, 1, DATA_TAG);
                    } else {
                        comm.send(&[1u8], 0, SYNC_TAG);
                        if !sender_delay {
                            // Let the send land first -> eager fallback.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        let mut buf = vec![0u64; expect.len()];
                        comm.recv(&mut buf, 0, DATA_TAG);
                        assert_eq!(buf, expect);
                    }
                });
                (results.pop().map(|_| ()).unwrap(), trace)
            };
            let data_bytes = (n_words * 8) as u64;
            assert!(
                trace
                    .iter()
                    .any(|t| t.src == 0 && t.dst == 1 && t.bytes == data_bytes),
                "large transfer must be traced identically on both paths"
            );
        }
    }

    /// A virtual send never looks for a posted buffer, so a virtual
    /// receive must not take and zero-fill one: the payload that arrived
    /// is what the receive recycles, not an unused posting.
    #[test]
    fn virtual_receives_post_no_rendezvous_buffer() {
        let words = crate::coll::LONG_MSG_THRESHOLD / 8 + 5;
        let net = Box::new(crate::virt::tests::TestNet);
        crate::run_virtual_coop(2, net, move |comm| async move {
            if comm.rank() == 0 {
                comm.send(&vec![1.5f64; words], 1, DATA_TAG);
            } else {
                let mut buf = vec![0.0f64; words];
                comm.recv_async(&mut buf, 0, DATA_TAG).await;
                assert_eq!(buf[words - 1], 1.5);
                assert_eq!(comm.scratch.borrow()[..8], 1.5f64.to_le_bytes());
            }
        });
    }

    /// Ghost words sent to a receive of real words: the receive names the
    /// message instead of handing out zeros — on the eager path and past
    /// the rendezvous threshold, where a posted buffer is waiting.
    #[test]
    fn ghost_send_to_a_real_receive_is_named() {
        for words in [3, crate::coll::LONG_MSG_THRESHOLD / 8] {
            let err = std::panic::catch_unwind(|| {
                run(3, move |comm| match comm.rank() {
                    2 => comm.send(&vec![crate::Ghost::<8>; words], 1, DATA_TAG),
                    1 => comm.recv(&mut vec![0.0f64; words], 2, DATA_TAG),
                    _ => {}
                })
            })
            .expect_err("the receive must refuse");
            let msg = err.downcast_ref::<String>().expect("panic message");
            let named = format!(
                "length-only payload of {} bytes from rank 2 to rank 1, tag 0x7 met a receive of \
                 {words} real words of 8",
                words * 8
            );
            assert!(msg.contains(&named), "{msg}");
        }
    }

    /// `recv_any` returns the actual envelope alongside well-formed data.
    #[test]
    fn recv_any_reports_envelope() {
        run(3, |comm| {
            if comm.rank() == 1 {
                comm.send(&[0.5f64, 1.5], 2, 11);
            } else if comm.rank() == 2 {
                let (data, src, tag) = comm.recv_any::<f64>(None, None);
                assert_eq!((data.as_slice(), src, tag), ([0.5, 1.5].as_slice(), 1, 11));
            }
        });
    }
}

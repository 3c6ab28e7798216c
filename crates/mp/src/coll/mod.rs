//! Collective operations: the eight the suite runs, and no others.
//!
//! An operation or algorithm body is here because a registry workload, the
//! IMB or HPCC model, `mp::rma`, `Comm::split_async` or the `mpcheck` gallery
//! reaches it (DESIGN.md §3, "Which collectives exist"). Each comes in the
//! algorithm variants MPI libraries of the paper's era picked (MPICH/MVAPICH
//! ancestry, which the Dell cluster's Topspin MPI was based on): binomial
//! trees for short rooted operations, recursive doubling for power-of-two
//! groups, ring and pairwise exchanges for long messages, Bruck for small
//! all-to-all, and Rabenseifner's recursive-halving algorithms for long
//! reductions.
//!
//! Every algorithm states its geometry once, as a `<algo>_steps` function
//! yielding the `Step`s one rank takes — which peer, which range, which
//! round — and [`crate::sched`] buckets the same steps of every rank by
//! round into the schedule the fabric simulator prices. A call executes
//! them as one hand-written future, `Run`: `Comm::<op>_async`
//! picks the algorithm synchronously, with the size/shape heuristics of
//! those libraries (the pure `picks_*` predicates the schedule generators
//! ask too), and its module's constructor returns a `Run` over an enum of
//! the op's step iterators. A new algorithm is one `*_steps` function and
//! one arm of that enum.
//!
//! The step functions are compact on purpose: each is a range of step
//! indices and a closure of a few words that computes the step it is
//! asked for, not a chain of adaptors, because every cooperative rank
//! holds one for as long as its collective runs.
//!
//! Collectives are awaitable-only, here and on [`Comm`]: a rank thread
//! waits on one by polling `Comm::<op>_async` with the
//! [`block_on`](crate::block_on) that drives its body.

pub(crate) mod allgather;
pub(crate) mod allgatherv;
pub(crate) mod allreduce;
pub(crate) mod alltoall;
pub(crate) mod barrier;
pub(crate) mod bcast;
pub(crate) mod reduce;
pub(crate) mod reduce_scatter;

use std::future::Future;
use std::ops::{Deref, DerefMut, Range};
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::comm::Comm;
use crate::datatype::Word;
use crate::mailbox::Ticket;
use crate::msg::Tag;
use crate::payload::Payload;

/// Message-size threshold (bytes) between "short" (latency-optimised) and
/// "long" (bandwidth-optimised) collective algorithms, matching the era's
/// common 8-64 KiB switchover points.
pub const LONG_MSG_THRESHOLD: usize = 32 * 1024;

/// Translates a rank to its root-relative ("virtual") rank.
#[inline]
pub(crate) fn vrank(rank: usize, root: usize, n: usize) -> usize {
    (rank + n - root) % n
}

/// Translates a root-relative rank back to a real rank.
#[inline]
pub(crate) fn unvrank(v: usize, root: usize, n: usize) -> usize {
    (v + root) % n
}

/// `ceil(log2 n)`: the round count of every tree and doubling algorithm.
pub(crate) fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().ilog2() as usize
}

/// One thing a rank does in a collective: an optional send and an optional
/// receive, sends first. Ranges are in the units of the length the
/// `<algo>_steps` function was given (elements for most bodies, bytes for
/// the schedule builder) and index the buffer the algorithm's doc names.
pub(crate) struct Step {
    /// The schedule round the step's messages travel in.
    pub round: usize,
    /// Destination rank and the range sent.
    pub send: Option<(usize, Range<usize>)>,
    /// Source rank and the range received.
    pub recv: Option<(usize, Range<usize>)>,
    /// How many times the received operand is folded into local state
    /// (0: it is stored, not reduced).
    pub folds: usize,
}

impl Step {
    /// A step in `round` that so far does nothing.
    pub(crate) fn at(round: usize) -> Step {
        Step {
            round,
            send: None,
            recv: None,
            folds: 0,
        }
    }

    pub(crate) fn send(mut self, to: usize, range: Range<usize>) -> Step {
        self.send = Some((to, range));
        self
    }

    pub(crate) fn recv(mut self, from: usize, range: Range<usize>) -> Step {
        self.recv = Some((from, range));
        self
    }

    /// The received operand is reduced into local state `folds` times.
    pub(crate) fn folding(mut self, folds: usize) -> Step {
        self.folds = folds;
        self
    }

    /// The same step `rounds` later: how an algorithm becomes a later
    /// phase of another.
    pub(crate) fn later(mut self, rounds: usize) -> Step {
        self.round += rounds;
        self
    }

    /// The step of the mirror-image algorithm (gather for scatter, fan-in
    /// for fan-out) of `rounds` rounds: the same message the other way,
    /// as many rounds from the end as it was from the start.
    pub(crate) fn reversed(mut self, rounds: usize) -> Step {
        std::mem::swap(&mut self.send, &mut self.recv);
        self.round = rounds - 1 - self.round;
        self
    }

    /// The same step with every peer renamed by `rank_of`: how an
    /// algorithm over participant or root-relative indices becomes one
    /// over real ranks.
    pub(crate) fn rename(mut self, rank_of: impl Fn(usize) -> usize) -> Step {
        for (peer, _) in self.send.iter_mut().chain(self.recv.iter_mut()) {
            *peer = rank_of(*peer);
        }
        self
    }
}

/// Ring pipeline, the allgather phase of three algorithms: in round
/// `round0 + k` a rank passes block `me - k` to its right neighbour and
/// takes block `me - k - 1` from its left. `at(b)` is block `b`'s range.
pub(crate) fn ring_steps(
    me: usize,
    n: usize,
    round0: usize,
    at: impl Fn(usize) -> Range<usize>,
) -> impl Iterator<Item = Step> {
    (0..n.saturating_sub(1)).map(move |k| ring_step(me, n, round0, &at, k))
}

/// Step `k` of [`ring_steps`].
fn ring_step(
    me: usize,
    n: usize,
    round0: usize,
    at: impl Fn(usize) -> Range<usize>,
    k: usize,
) -> Step {
    let (give, take) = ((me + n - k) % n, (me + n - k - 1) % n);
    Step::at(round0 + k)
        .send((me + 1) % n, at(give))
        .recv((me + n - 1) % n, at(take))
}

/// The steps of one of an operation's two algorithms.
pub(crate) enum Either<A, B> {
    Left(A),
    Right(B),
}

impl<A: Iterator<Item = Step>, B: Iterator<Item = Step>> Iterator for Either<A, B> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        match self {
            Either::Left(a) => a.next(),
            Either::Right(b) => b.next(),
        }
    }
}

/// The `fold` of algorithms whose steps only gather.
pub(crate) fn no_fold<T>(_: &mut [T], _: &[T]) {
    unreachable!("a gather step never reduces");
}

/// Vrank `v`'s edges in the binomial broadcast tree over `n`: the parent
/// is `v` with its top bit cleared and data arrives in round `log2(top
/// bit)` (the root starts with it); `v` then feeds `v + 2^k` in every
/// later round `k` with `v + 2^k < n`. Returns `(parent, round)` and the
/// rounds `k` of the children, in order.
pub(crate) fn binomial_edges(v: usize, n: usize) -> (Option<(usize, usize)>, Range<usize>) {
    let arrival = v.checked_ilog2().map(|r| r as usize);
    // v + 2^k < n exactly while 2^k <= n - v - 1.
    let end = (n - v - 1).checked_ilog2().map_or(0, |k| k as usize + 1);
    (
        arrival.map(|r| (v - (1 << r), r)),
        arrival.map_or(0, |r| r + 1)..end,
    )
}

/// An edge of the halving tree as one endpoint sees it: the vrank at the
/// other end, the vrank range that crosses it, and the depth of the split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TreeEdge {
    pub peer: usize,
    pub range: Range<usize>,
    pub depth: usize,
}

/// The recursive-halving block tree behind the binomial scatter
/// ([`scatter_step`]): walking from the full range `[0, n)`, each holder
/// `lo` of a range splits off the upper part `[mid, hi)` to vrank `mid`,
/// where `mid = lo + next_pow2(hi-lo)/2`. The tree is `ceil(log2 n)`
/// splits deep.
///
/// Yields vrank `v`'s edges in the order of the walk: the edge to the
/// parent it receives from (none for the root; its peer is below `v`),
/// then the edges to the children it sends to (peers above `v`), from the
/// outermost split inwards.
pub(crate) fn halving_edges(v: usize, n: usize) -> impl Iterator<Item = TreeEdge> {
    let (mut lo, mut hi, mut depth) = (0, n, 0);
    std::iter::from_fn(move || {
        while hi - lo > 1 {
            let mid = lo + (hi - lo).next_power_of_two() / 2;
            let edge = |peer| TreeEdge {
                peer,
                range: mid..hi,
                depth,
            };
            let taken = if v < mid {
                let child = (v == lo).then(|| edge(mid));
                hi = mid;
                child
            } else {
                let parent = (v == mid).then(|| edge(lo));
                lo = mid;
                parent
            };
            depth += 1;
            if taken.is_some() {
                return taken;
            }
        }
        None
    })
}

/// Step `i` of a binomial scatter down the [`halving_edges`] tree over the
/// `n` blocks in root-relative rank order, block `b` starting at `cut(b)`:
/// vrank `v` receives its subtree's blocks (its own first) from its parent
/// in the round of that split's depth, then hands each child its subtree,
/// outermost split first. The first phase of long broadcast; run
/// backwards (a node takes its children innermost first, then sends the
/// lot), the gather that ends Rabenseifner's reduce.
pub(crate) fn scatter_step(
    v: usize,
    n: usize,
    root: usize,
    cut: impl Fn(usize) -> usize,
    i: usize,
) -> Step {
    let e = halving_edges(v, n).nth(i).expect("a step of the scatter");
    let (peer, blocks) = (
        unvrank(e.peer, root, n),
        cut(e.range.start)..cut(e.range.end),
    );
    if e.peer < v {
        Step::at(e.depth).recv(peer, blocks)
    } else {
        Step::at(e.depth).send(peer, blocks)
    }
}

// ---------------------------------------------------------------------
// Run: one collective call as one hand-written future
// ---------------------------------------------------------------------

/// The operation a run performs, as its instrumented scope names it: the
/// name, the root (a local rank) and which buffer's byte count is the
/// shape every member must agree on (vector variants record none).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coll {
    Barrier,
    Bcast(u32),
    Allgather,
    Allgatherv,
    Alltoall,
    Reduce(u32),
    Allreduce,
    ReduceScatter,
    /// `Comm::split_async`'s allgather of colours and keys.
    Split,
}

impl Coll {
    fn name(self) -> &'static str {
        match self {
            Coll::Barrier => "barrier",
            Coll::Bcast(_) => "bcast",
            Coll::Allgather => "allgather",
            Coll::Allgatherv => "allgatherv",
            Coll::Alltoall => "alltoall",
            Coll::Reduce(_) => "reduce",
            Coll::Allreduce => "allreduce",
            Coll::ReduceScatter => "reduce_scatter",
            Coll::Split => "split",
        }
    }
}

/// How a run's steps move data. A send ships `give` and a receive lands
/// in `take`, in the buffer the mode names.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A send encodes `buf[give]`; a receive overwrites `buf[take]` or, on
    /// a folding step, is folded into it straight from the wire.
    InPlace,
    /// As `InPlace`, but a send encodes `send[give]`.
    Between,
    /// The payload in hand is what a rank sends: its own encoding to start
    /// with, then each arrival, decoded into `buf[take]` as it passes
    /// through. A step that also receives hands its payload on; one that
    /// only sends shares it (a refcount bump per edge, never a copy).
    /// Binomial broadcast and ring allgather.
    Forward,
    /// Scatter-allgather broadcast: every send is a zero-copy slice of the
    /// payload in hand (bytes `take` of the whole), which each arrival
    /// replaces; what the ring forwards, and its last arrival, are copied
    /// into an assembly of the whole, decoded into `buf` at the end.
    Scatter,
    /// Bruck alltoall over `buf` in slot order: slot `j` is block
    /// `me - j` (mod n), so the inverse rotation is where the blocks
    /// already are. Round `k` packs every slot with bit `k` set.
    Bruck,
}

/// Where a run's steps land: the caller's buffer, or one the run owns (a
/// non-root's reduce accumulator).
pub(crate) enum Buf<'a, T> {
    Borrowed(&'a mut [T]),
    Owned(Vec<T>),
}

impl<T> Deref for Buf<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Buf::Borrowed(b) => b,
            Buf::Owned(v) => v,
        }
    }
}

impl<T> DerefMut for Buf<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Buf::Borrowed(b) => b,
            Buf::Owned(v) => v,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet polled: no tag taken, no scope open.
    Unpolled,
    Running,
    /// A receive is in flight from `Run::from`.
    Receiving,
    Done,
}

/// One collective call of one rank: it holds what the rank needs across
/// a receive and nothing twice. How a step moves data is its [`Mode`];
/// the work before the first step (buffer checks, the copy of a rank's
/// own block, Bruck's rotation, Reduce's accumulator) is done by the
/// constructor in the algorithm's module. Like an `async fn`, a run takes
/// its collective tag and opens its instrumented scope at its first poll,
/// so a future dropped unpolled leaves no trace; dropped mid-way, it
/// withdraws its receive and closes its scope.
pub(crate) struct Run<'a, T, S, F> {
    comm: &'a Comm,
    send: &'a [T],
    buf: Buf<'a, T>,
    steps: S,
    fold: F,
    /// The posted receive of the message in flight, once it waits.
    ticket: Option<Ticket>,
    /// The in-flight receive's range; in `Scatter` mode, once it has
    /// landed, the range of the payload in hand.
    take: Range<usize>,
    /// The payload in hand (`Forward`, `Scatter`).
    held: Payload,
    /// The assembly of the whole (`Scatter`).
    whole: Payload,
    /// The source of the receive in flight.
    from: u32,
    coll: Coll,
    tag: Tag,
    /// The trace's index of this call, when it recorded a scope.
    site: Option<u32>,
    /// The in-flight receive's round (`Bruck`) and whether it folds.
    round: u32,
    folds: bool,
    mode: Mode,
    phase: Phase,
}

// A run is never pinned in place: it polls its parts by `&mut`.
impl<T, S, F> Unpin for Run<'_, T, S, F> {}

impl<'a, T, S, F> Run<'a, T, S, F>
where
    T: Word,
    S: Iterator<Item = Step>,
    F: Fn(&mut [T], &[T]),
{
    pub(crate) fn new(
        comm: &'a Comm,
        coll: Coll,
        mode: Mode,
        send: &'a [T],
        buf: Buf<'a, T>,
        steps: S,
        fold: F,
    ) -> Self {
        Run {
            comm,
            send,
            buf,
            steps,
            fold,
            ticket: None,
            take: 0..0,
            held: Payload::default(),
            whole: Payload::default(),
            from: 0,
            coll,
            tag: 0,
            site: None,
            round: 0,
            folds: false,
            mode,
            phase: Phase::Unpolled,
        }
    }

    /// The first poll: opens the scope, takes the tag and encodes what a
    /// forwarding mode has in hand to start with.
    fn start(&mut self) {
        let comm = self.comm;
        let bytes = |len: usize| Some((len * T::SIZE) as u64);
        let (root, shape) = match self.coll {
            Coll::Barrier => (None, Some(0)),
            Coll::Bcast(root) => (Some(root as usize), bytes(self.buf.len())),
            Coll::Allreduce => (None, bytes(self.buf.len())),
            Coll::Reduce(root) => (Some(root as usize), bytes(self.send.len())),
            Coll::Allgather | Coll::Alltoall => (None, bytes(self.send.len())),
            Coll::Allgatherv | Coll::ReduceScatter | Coll::Split => (None, None),
        };
        self.site = comm.coll_begin(self.coll.name(), root, shape);
        self.tag = comm.next_coll_tag();
        if matches!(self.mode, Mode::Forward | Mode::Scatter) {
            let own: &[T] = match self.coll {
                Coll::Bcast(root) if comm.rank() == root as usize => &self.buf,
                Coll::Bcast(_) => &[],
                _ => self.send,
            };
            self.held = comm.encode(own);
        }
        if self.mode == Mode::Scatter {
            let total = self.buf.len() * T::SIZE;
            self.take = 0..total;
            self.whole = Payload::zeroed::<T>(total);
        }
    }

    /// A step's send of `give` to `dst`; `hands_on` when the step also
    /// receives.
    fn ship(&mut self, dst: usize, give: Range<usize>, hands_on: bool) {
        let comm = self.comm;
        let data = match self.mode {
            Mode::InPlace => comm.encode(&self.buf[give]),
            Mode::Between => comm.encode(&self.send[give]),
            Mode::Forward if hands_on => std::mem::take(&mut self.held),
            Mode::Forward => self.held.clone(),
            Mode::Scatter => {
                let out = self
                    .held
                    .slice(give.start - self.take.start..give.end - self.take.start);
                if hands_on {
                    self.whole.put(give.start, &out);
                }
                out
            }
            Mode::Bruck => {
                let mut packed = Vec::with_capacity(give.len());
                for b in slots(comm, self.buf.len(), self.round) {
                    packed.extend_from_slice(&self.buf[b]);
                }
                comm.encode(&packed)
            }
        };
        comm.send_payload(data, dst, self.tag);
    }

    /// The in-flight receive's message, arrived.
    fn land(&mut self, data: Payload) {
        let comm = self.comm;
        let env = comm.envelope(self.from as usize, self.tag);
        let take = self.take.clone();
        match self.mode {
            Mode::Forward => {
                data.decode_into(&mut self.buf[take], env);
                self.held = data;
            }
            Mode::Scatter => {
                assert_eq!(data.len(), take.len(), "bcast block size mismatch");
                self.held = data;
            }
            Mode::Bruck => {
                assert_eq!(
                    data.len(),
                    take.len() * T::SIZE,
                    "bruck round size mismatch"
                );
                let bytes = self.buf.len() / comm.size() * T::SIZE;
                for (j, b) in slots(comm, self.buf.len(), self.round).enumerate() {
                    data.slice(j * bytes..(j + 1) * bytes)
                        .decode_into(&mut self.buf[b], env);
                }
                comm.recycle(data);
            }
            Mode::InPlace | Mode::Between => {
                if self.folds {
                    data.fold_into(&mut self.buf[take], env, &self.fold);
                } else {
                    data.decode_into(&mut self.buf[take], env);
                }
                comm.recycle(data);
            }
        }
    }

    /// After the last step: what a forwarding mode still has in hand.
    fn finish(&mut self) {
        let comm = self.comm;
        match self.mode {
            Mode::Forward => comm.recycle(std::mem::take(&mut self.held)),
            Mode::Scatter => {
                let (held, mut whole) = (
                    std::mem::take(&mut self.held),
                    std::mem::take(&mut self.whole),
                );
                whole.put(self.take.start, &held);
                let root = match self.coll {
                    Coll::Bcast(root) => root,
                    _ => unreachable!("only a broadcast scatters"),
                };
                whole.decode_into(&mut self.buf, comm.envelope(root as usize, self.tag));
                comm.recycle(whole);
                comm.recycle(held);
            }
            _ => {}
        }
    }
}

/// Bruck's slots with bit `round` set, in slot order, as the ranges of
/// a buffer of `len` words that hold them.
fn slots(comm: &Comm, len: usize, round: u32) -> impl Iterator<Item = Range<usize>> {
    let (me, n) = (comm.rank(), comm.size());
    let block = len / n;
    (0..n)
        .filter(move |j| j >> round & 1 == 1)
        .map(move |j| (me + n - j) % n * block..((me + n - j) % n + 1) * block)
}

impl<T, S, F> Future for Run<'_, T, S, F>
where
    T: Word,
    S: Iterator<Item = Step>,
    F: Fn(&mut [T], &[T]),
{
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let comm = this.comm;
        match this.phase {
            Phase::Done => return Poll::Ready(()),
            Phase::Unpolled => {
                this.start();
                this.phase = Phase::Running;
            }
            Phase::Running | Phase::Receiving => {}
        }
        loop {
            if this.phase == Phase::Receiving {
                let from = this.from as usize;
                let Poll::Ready(data) = comm.poll_coll_recv(from, this.tag, &mut this.ticket, cx)
                else {
                    return Poll::Pending;
                };
                this.phase = Phase::Running;
                this.land(data);
            }
            let Some(step) = this.steps.next() else {
                break;
            };
            if let Some((dst, give)) = step.send {
                this.round = step.round as u32;
                this.ship(dst, give, step.recv.is_some());
            }
            if let Some((src, take)) = step.recv {
                (this.from, this.take) = (src as u32, take);
                (this.round, this.folds) = (step.round as u32, step.folds > 0);
                this.phase = Phase::Receiving;
            }
        }
        this.finish();
        this.phase = Phase::Done;
        comm.coll_end(this.coll.name(), this.site);
        Poll::Ready(())
    }
}

impl<T, S, F> Drop for Run<'_, T, S, F> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            self.comm.withdraw(ticket);
        }
        if matches!(self.phase, Phase::Running | Phase::Receiving) {
            self.comm.coll_end(self.coll.name(), self.site);
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn vrank_roundtrip() {
        for n in 1..10 {
            for root in 0..n {
                for r in 0..n {
                    assert_eq!(unvrank(vrank(r, root, n), root, n), r);
                }
            }
        }
    }

    /// Vrank `v`'s children in the binomial tree, with their rounds.
    fn children(v: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
        binomial_edges(v, n).1.map(move |k| (v + (1 << k), k))
    }

    /// [`halving_edges`] split into the parent edge and the child edges.
    fn halving_tree(v: usize, n: usize) -> (Option<TreeEdge>, Vec<TreeEdge>) {
        let mut edges = halving_edges(v, n).peekable();
        (edges.next_if(|e| e.peer < v), edges.collect())
    }

    #[test]
    fn binomial_tree_shape() {
        let parent = |v| binomial_edges(v, 8).0;
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some((0, 0)));
        assert_eq!(parent(5), Some((1, 2)));
        assert_eq!(parent(6), Some((2, 2)));
        assert!(children(0, 8).eq([(1, 0), (2, 1), (4, 2)]));
        assert!(children(1, 8).eq([(3, 1), (5, 2)]));
        assert!(children(5, 16).eq([(13, 3)]));
    }

    #[test]
    fn binomial_children_are_fed_once_after_their_parent() {
        assert_eq!([1, 2, 8, 9].map(ceil_log2), [0, 1, 3, 4]);
        for n in 1..40usize {
            let mut fed = vec![false; n];
            for v in 0..n {
                let parent = binomial_edges(v, n).0;
                for (child, round) in children(v, n) {
                    assert!(parent.is_none_or(|(_, arrival)| arrival < round));
                    assert_eq!(binomial_edges(child, n).0, Some((v, round)));
                    assert!(!std::mem::replace(&mut fed[child], true));
                }
            }
            assert!(fed[1..].iter().all(|&f| f), "n={n}");
        }
    }

    #[test]
    fn halving_tree_partitions_ranks() {
        for n in 1..33usize {
            let mut seen = vec![false; n];
            for v in 0..n {
                let (parent, _) = halving_tree(v, n);
                if v == 0 {
                    assert!(parent.is_none());
                } else {
                    let edge = parent.unwrap();
                    assert!(edge.peer < v);
                    assert_eq!(edge.range.start, v, "a node receives its own range");
                    assert!(edge.depth < ceil_log2(n));
                    assert!(!seen[v]);
                    seen[v] = true;
                }
            }
            assert!(seen[1..].iter().all(|&s| s), "every non-root receives once");
        }
    }

    #[test]
    fn halving_tree_children_cover_parent_range() {
        for n in 2..33usize {
            for v in 0..n {
                let (parent, children) = halving_tree(v, n);
                // Both ends of an edge agree on it.
                for edge in &children {
                    let back = TreeEdge {
                        peer: v,
                        ..edge.clone()
                    };
                    assert_eq!(halving_tree(edge.peer, n).0, Some(back));
                }
                // A node splits only after its own range arrived.
                let arrived = parent.as_ref().map(|e| e.depth + 1).unwrap_or(0);
                assert!(children.iter().all(|e| e.depth >= arrived));
                let my_range = parent.map(|e| e.range).unwrap_or(0..n);
                // Children ranges plus {v} partition my range.
                let mut covered: Vec<usize> = vec![v];
                for edge in &children {
                    assert_eq!(edge.peer, edge.range.start);
                    covered.extend(edge.range.clone());
                }
                covered.sort_unstable();
                let expect: Vec<usize> = my_range.collect();
                assert_eq!(covered, expect);
            }
        }
    }
}

#[cfg(test)]
mod run_tests {
    use crate::check::{run_checked, Event, Settings};
    use crate::{Engine, Op};

    /// A collective future dropped unpolled takes no tag and opens no
    /// scope, as an `async fn`'s would not: ranks that drop different
    /// numbers of them still match on the barrier after, and each rank's
    /// trace holds the barrier's scope alone.
    #[test]
    fn an_unpolled_collective_leaves_no_trace() {
        for engine in [Engine::Threads, Engine::Coop] {
            let checked = run_checked(4, engine, Settings::default(), |comm| async move {
                // Every rank drops one of each; odd ranks drop two.
                for _ in 0..=comm.rank() % 2 {
                    let (mut buf, mut all) = ([1.0f64; 4], [0.0f64; 16]);
                    drop(comm.allreduce_async(&mut buf, Op::Sum));
                    drop(comm.bcast_async(&mut buf, 1));
                    drop(comm.allgather_async(&[1.0], &mut all[..4]));
                    drop(comm.barrier_async());
                }
                comm.barrier_async().await;
            });
            assert!(
                checked.results.is_some(),
                "{engine:?}: {:?}",
                checked.log.panics
            );
            for (rank, events) in checked.log.events.iter().enumerate() {
                let scopes: Vec<_> = events
                    .iter()
                    .filter_map(|e| match e {
                        Event::CollBegin { index, op, .. } => Some((*op, *index, true)),
                        Event::CollEnd { index, .. } => Some(("", *index, false)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    scopes,
                    [("barrier", 0, true), ("", 0, false)],
                    "{engine:?}: rank {rank}"
                );
            }
        }
    }
}

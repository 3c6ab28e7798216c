//! Collective operations.
//!
//! Each collective comes in the classical algorithm variants MPI libraries
//! of the paper's era used (MPICH/MVAPICH ancestry, which the Dell cluster's
//! Topspin MPI was based on): binomial trees for rooted short-message
//! operations, recursive doubling/halving for power-of-two groups, ring and
//! pairwise exchanges for long messages, Bruck for small all-to-all, and
//! Rabenseifner's reduce-scatter-based algorithms for long reductions.
//!
//! The `auto_async` entry point of each module follows the size/shape
//! heuristics of those libraries. Every algorithm states its geometry once,
//! as a `<algo>_steps` function yielding the `Step`s one rank takes — which
//! peer, which range, which round. The `<algo>_async` body loops over those
//! steps moving real payloads; [`crate::sched`] buckets the same steps of
//! every rank by round into the schedule the fabric simulator prices.
//!
//! This module is awaitable-only: the blocking form of a collective is the
//! [`Comm`] method of its name, one [`block_on`](crate::block_on) around
//! `Comm::<op>_async`. A caller that wants one algorithm by name on a rank
//! thread writes that `block_on` itself.

pub mod allgather;
pub mod allgatherv;
pub mod allreduce;
pub mod alltoall;
pub mod alltoallv;
pub mod barrier;
pub mod bcast;
pub mod gather;
pub mod gatherv;
pub mod reduce;
pub mod reduce_scatter;
pub mod scan;
pub mod scatter;

use std::ops::Range;

use crate::comm::Comm;
use crate::datatype::Word;
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

    /// The two halves of a step that has both.
    pub(crate) fn exchange(self) -> ((usize, Range<usize>), (usize, Range<usize>)) {
        (
            self.send.expect("step sends"),
            self.recv.expect("step receives"),
        )
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
    (0..n.saturating_sub(1)).map(move |k| {
        let (give, take) = ((me + n - k) % n, (me + n - k - 1) % n);
        Step::at(round0 + k)
            .send((me + 1) % n, at(give))
            .recv((me + n - 1) % n, at(take))
    })
}

/// Runs `steps` in place on `buf`: a send ships `buf[range]`, a receive
/// overwrites `buf[range]` or, on a folding step, is combined into it by
/// `fold(acc, operand)`. (The steps come by reference so that they live
/// once, in the caller's future: an async fn stores its arguments twice,
/// and every cooperative rank holds one such future.)
pub(crate) async fn run_in_place<T: Word>(
    comm: &Comm,
    tag: Tag,
    buf: &mut [T],
    steps: &mut impl Iterator<Item = Step>,
    fold: impl Fn(&mut [T], &[T]),
) {
    for Step {
        send, recv, folds, ..
    } in steps
    {
        if let Some((dst, give)) = send {
            comm.send_payload(Payload::encode(&buf[give]), dst, tag);
        }
        if let Some((src, take)) = recv {
            if folds > 0 {
                fold(&mut buf[take], &comm.recv_vec_async(src, tag).await);
            } else {
                comm.recv_into_async(&mut buf[take], src, tag).await;
            }
        }
    }
}

/// Runs `steps` between two buffers: a send ships `send[range]`, a receive
/// lands in `recv[range]`.
pub(crate) async fn run_between<T: Word>(
    comm: &Comm,
    tag: Tag,
    send: &[T],
    recv: &mut [T],
    steps: &mut impl Iterator<Item = Step>,
) {
    for Step {
        send: to,
        recv: from,
        ..
    } in steps
    {
        if let Some((dst, give)) = to {
            comm.send_payload(Payload::encode(&send[give]), dst, tag);
        }
        if let Some((src, take)) = from {
            comm.recv_into_async(&mut recv[take], src, tag).await;
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
/// `(child, round)`s in round order.
pub(crate) fn binomial_edges(
    v: usize,
    n: usize,
) -> (
    Option<(usize, usize)>,
    impl DoubleEndedIterator<Item = (usize, usize)>,
) {
    let arrival = v.checked_ilog2().map(|r| r as usize);
    let children = (arrival.map_or(0, |r| r + 1)..ceil_log2(n))
        .map(move |k| (v + (1 << k), k))
        .filter(move |&(child, _)| child < n);
    (arrival.map(|r| (v - (1 << r), r)), children)
}

/// An edge of the halving tree as one endpoint sees it: the vrank at the
/// other end, the vrank range that crosses it, and the depth of the split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TreeEdge {
    pub peer: usize,
    pub range: Range<usize>,
    pub depth: usize,
}

/// The recursive-halving block tree used by binomial scatter/gather and
/// Rabenseifner reductions: walking from the full range `[0, n)`, each
/// holder `lo` of a range splits off the upper part `[mid, hi)` to vrank
/// `mid`, where `mid = lo + next_pow2(hi-lo)/2`. The tree is
/// `ceil(log2 n)` splits deep.
///
/// Returns, for vrank `v`: the edge to the parent it receives from (None
/// for the root) and the edges to the children it sends to, from the
/// outermost split inwards.
pub(crate) fn halving_tree(v: usize, n: usize) -> (Option<TreeEdge>, Vec<TreeEdge>) {
    let (mut lo, mut hi) = (0usize, n);
    let mut parent = None;
    let mut children = Vec::new();
    let mut depth = 0;
    while hi - lo > 1 {
        let half = (hi - lo).next_power_of_two() / 2;
        let mid = lo + half;
        let edge = |peer| TreeEdge {
            peer,
            range: mid..hi,
            depth,
        };
        if v < mid {
            if v == lo {
                children.push(edge(mid));
            }
            hi = mid;
        } else {
            if v == mid {
                parent = Some(edge(lo));
            }
            lo = mid;
        }
        depth += 1;
    }
    debug_assert_eq!(lo, v);
    (parent, children)
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

    #[test]
    fn binomial_tree_shape() {
        let parent = |v| binomial_edges(v, 8).0;
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some((0, 0)));
        assert_eq!(parent(5), Some((1, 2)));
        assert_eq!(parent(6), Some((2, 2)));
        assert!(binomial_edges(0, 8).1.eq([(1, 0), (2, 1), (4, 2)]));
        assert!(binomial_edges(1, 8).1.eq([(3, 1), (5, 2)]));
        assert!(binomial_edges(5, 16).1.eq([(13, 3)]));
    }

    #[test]
    fn binomial_children_are_fed_once_after_their_parent() {
        assert_eq!([1, 2, 8, 9].map(ceil_log2), [0, 1, 3, 4]);
        for n in 1..40usize {
            let mut fed = vec![false; n];
            for v in 0..n {
                let (parent, children) = binomial_edges(v, n);
                for (child, round) in children {
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

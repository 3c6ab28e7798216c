//! The step-bucketing producer: the one place outside [`super::p2p`] that
//! writes `Transfer`s and `LocalWork`s.

use simnet::{LocalWork, Round, Rounds, Transfer};

use crate::coll::Step;

/// The schedule of `n` ranks each taking `steps_of(rank)`, produced a
/// round at a time: every send becomes a transfer of its range's length in
/// its step's round, every folding receive becomes local work on the
/// operand, once per fold. Ranks are visited in rank order starting from
/// `first` (a rooted algorithm's root), which fixes the order of transfers
/// within a round — the order they queue on a contended resource — and a
/// rank's steps in a round come in the order it takes them. A round with
/// nothing to price before the last one is still produced.
///
/// Each rank's steps must come in round order: the producer holds every
/// rank's next step, not its history, so it holds one round of transfers
/// however many rounds the schedule has.
pub(super) fn build<I: Iterator<Item = Step>>(
    n: usize,
    first: usize,
    steps_of: impl Fn(usize) -> I,
) -> Stream<I> {
    let lanes: Vec<Lane<I>> = (0..n)
        .map(|v| (v + first) % n)
        .map(|rank| {
            let mut steps = steps_of(rank);
            let next = steps.next();
            Lane { rank, steps, next }
        })
        .collect();
    Stream {
        live: lanes.iter().filter(|l| l.next.is_some()).count(),
        lanes,
        round: Round::default(),
        index: 0,
    }
}

/// The rounds [`build`] produces, into one reusable [`Round`].
pub(super) struct Stream<I> {
    /// The ranks in visiting order.
    lanes: Vec<Lane<I>>,
    /// Lanes with a step left.
    live: usize,
    round: Round,
    /// The round produced next.
    index: usize,
}

/// One rank's steps, and the next of them not yet produced.
struct Lane<I> {
    rank: usize,
    steps: I,
    next: Option<Step>,
}

impl<I: Iterator<Item = Step>> Rounds for Stream<I> {
    fn nranks(&self) -> usize {
        self.lanes.len()
    }

    fn next_round(&mut self) -> Option<&Round> {
        if self.live == 0 {
            return None;
        }
        let r = self.index;
        self.index += 1;
        let round = &mut self.round;
        round.transfers.clear();
        round.work.clear();
        for lane in &mut self.lanes {
            while let Some(step) = lane.next.take_if(|s| s.round == r) {
                let rank = lane.rank;
                if let Some((dst, range)) = step.send {
                    round.transfers.push(Transfer {
                        src: rank,
                        dst,
                        bytes: range.len() as u64,
                    });
                }
                if step.folds > 0 {
                    let (_, operand) = step.recv.expect("a folding step receives");
                    round.work.push(LocalWork {
                        rank,
                        bytes: (step.folds * operand.len()) as u64,
                    });
                }
                lane.next = lane.steps.next();
                match &lane.next {
                    None => self.live -= 1,
                    Some(s) => assert!(
                        s.round >= r,
                        "rank {rank}'s steps go back from round {r} to {}",
                        s.round
                    ),
                }
            }
        }
        Some(&self.round)
    }
}

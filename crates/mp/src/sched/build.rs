//! The step-bucketing builder: the one place outside [`super::p2p`] that
//! writes `Transfer`s and `LocalWork`s.

use simnet::{LocalWork, Round, Schedule, Transfer};

use crate::coll::Step;

/// The schedule of `n` ranks each taking `steps_of(rank)`: every send
/// becomes a transfer of its range's length in its step's round, every
/// folding receive becomes local work on the operand, once per fold.
/// Ranks are visited in rank order starting from `first` (a rooted
/// algorithm's root), which fixes the order of transfers within a round —
/// the order they queue on a contended resource.
pub(super) fn build<I: Iterator<Item = Step>>(
    n: usize,
    first: usize,
    steps_of: impl Fn(usize) -> I,
) -> Schedule {
    let mut rounds: Vec<Round> = Vec::new();
    for rank in (0..n).map(|v| (v + first) % n) {
        let mut sent_in = 0;
        for step in steps_of(rank) {
            if rounds.len() <= step.round {
                // Most rounds hold a transfer per rank.
                rounds.resize_with(step.round + 1, || Round::of(Vec::with_capacity(n)));
            }
            let round = &mut rounds[step.round];
            if let Some((dst, range)) = step.send {
                // So a rank's transfers are listed in the order it sends them.
                debug_assert!(sent_in <= step.round, "sends go round by round");
                sent_in = step.round;
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
        }
    }
    Schedule { nranks: n, rounds }
}

//! Communication schedules: the lingua franca between the message-passing
//! runtime's collective algorithms and the fabric simulator.
//!
//! A schedule is a sequence of rounds; each round lists point-to-point
//! transfers (by *rank*) and local reduction work. The `mp` crate's schedule
//! generators produce them as a [`Rounds`] source, one round at a time,
//! and `machines::ClusterSim` prices each round against a machine model as
//! it comes, so pricing holds one round, not the p(p−1) transfers of a
//! pairwise exchange. A [`Schedule`] is the same rounds materialised
//! ([`Schedule::collect`]): what tests and trace comparisons read, and
//! what [`Replay`] lends back to a pricer.

use crate::time::Time;

/// One point-to-point transfer within a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Transfer {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// Local computation performed by a rank within a round (e.g. combining a
/// received reduction operand with the local accumulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalWork {
    /// The rank doing the work.
    pub rank: usize,
    /// Bytes of operand data streamed through the reduction.
    pub bytes: u64,
}

/// One communication round: transfers that may proceed concurrently,
/// followed by per-rank local work that depends on the received data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Concurrent transfers.
    pub transfers: Vec<Transfer>,
    /// Post-transfer local work.
    pub work: Vec<LocalWork>,
}

impl Round {
    /// A round containing only the given transfers.
    pub fn of(transfers: Vec<Transfer>) -> Round {
        Round {
            transfers,
            work: Vec::new(),
        }
    }
}

/// A schedule produced round by round, in dependency order. A round is
/// lent, not returned, so a producer can refill one buffer for every
/// round.
pub trait Rounds {
    /// Number of participating ranks.
    fn nranks(&self) -> usize;

    /// The next round, or `None` after the last one.
    fn next_round(&mut self) -> Option<&Round>;
}

impl<R: Rounds + ?Sized> Rounds for Box<R> {
    fn nranks(&self) -> usize {
        (**self).nranks()
    }

    fn next_round(&mut self) -> Option<&Round> {
        (**self).next_round()
    }
}

/// A materialised [`Schedule`], owned or borrowed, lent round by round.
pub struct Replay<S> {
    schedule: S,
    next: usize,
}

impl<S: std::borrow::Borrow<Schedule>> Replay<S> {
    /// Replays `schedule` from its first round.
    pub fn new(schedule: S) -> Replay<S> {
        Replay { schedule, next: 0 }
    }
}

impl<S: std::borrow::Borrow<Schedule>> Rounds for Replay<S> {
    fn nranks(&self) -> usize {
        self.schedule.borrow().nranks
    }

    fn next_round(&mut self) -> Option<&Round> {
        let round = self.schedule.borrow().rounds.get(self.next)?;
        self.next += 1;
        Some(round)
    }
}

/// A complete communication schedule over `nranks` ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Number of participating ranks.
    pub nranks: usize,
    /// Rounds in dependency order.
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// An empty schedule over `nranks` ranks.
    pub fn new(nranks: usize) -> Schedule {
        Schedule {
            nranks,
            rounds: Vec::new(),
        }
    }

    /// Appends a round.
    pub fn push(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Every round of `rounds`, materialised. Pricing never needs this
    /// (it reads one round at a time); tests and trace comparisons do.
    pub fn collect(mut rounds: impl Rounds) -> Schedule {
        let mut schedule = Schedule::new(rounds.nranks());
        while let Some(round) = rounds.next_round() {
            schedule.push(round.clone());
        }
        schedule
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.transfers.iter())
            .map(|t| t.bytes)
            .sum()
    }

    /// Total number of point-to-point messages.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.transfers.len()).sum()
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// All transfers as a sorted multiset — the canonical form used when
    /// comparing a schedule against a recorded execution trace.
    pub fn transfer_multiset(&self) -> Vec<Transfer> {
        let mut v: Vec<Transfer> = self
            .rounds
            .iter()
            .flat_map(|r| r.transfers.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Validates rank bounds and non-self transfers. Returns an error string
    /// naming the first offending entry.
    pub fn validate(&self) -> Result<(), String> {
        for (i, round) in self.rounds.iter().enumerate() {
            for t in &round.transfers {
                if t.src >= self.nranks || t.dst >= self.nranks {
                    return Err(format!(
                        "round {i}: transfer {t:?} out of range for {} ranks",
                        self.nranks
                    ));
                }
                if t.src == t.dst {
                    return Err(format!("round {i}: self-transfer {t:?}"));
                }
            }
            for w in &round.work {
                if w.rank >= self.nranks {
                    return Err(format!("round {i}: work {w:?} out of range"));
                }
            }
        }
        Ok(())
    }
}

/// Costs of a point-to-point transfer as seen by the two endpoints.
#[derive(Clone, Copy, Debug)]
pub struct P2pCost {
    /// When the sender may proceed (its send buffer is drained).
    pub sender_done: Time,
    /// When the last byte is available at the receiver.
    pub arrival: Time,
}

/// Prices a schedule's rounds, as `rounds` produces them, against
/// per-rank virtual clocks.
///
/// `transfer(src, dst, bytes, ready)` prices one message given the sender's
/// readiness; `work(rank, bytes, start)` prices local reduction work.
/// Both callbacks may carry mutable fabric state. Returns the completion
/// time (the maximum clock over all ranks).
///
/// `retire(t)` is told, at the start of every round, the minimum rank
/// clock: clocks only rise and a send is ready no earlier than its
/// sender's round-start clock, so no later `transfer` is ready before `t`
/// and a pricer may forget its timelines behind it
/// ([`Fabric::retire_before`](crate::Fabric::retire_before)).
///
/// Transfers within a round are *concurrent*: every send becomes ready at
/// its sender's round-start clock (several sends by one rank in the same
/// round serialise after one another), matching MPI semantics where a
/// `sendrecv` posts its send before blocking on the receive. Receivers
/// advance to `max(clock, arrival)`. Across rounds the dependency
/// structure of tree/ring/doubling collectives is preserved: a rank that
/// receives in round *r* forwards in round *r+1* no earlier than its
/// arrival.
pub fn execute<FT, FW, FR>(
    mut rounds: impl Rounds,
    clocks: &mut [Time],
    mut transfer: FT,
    mut work: FW,
    mut retire: FR,
) -> Time
where
    FT: FnMut(usize, usize, u64, Time) -> P2pCost,
    FW: FnMut(usize, u64, Time) -> Time,
    FR: FnMut(Time),
{
    assert_eq!(clocks.len(), rounds.nranks(), "clock vector size mismatch");
    // Send cursors decouple this round's send readiness from this round's
    // arrivals; reused across rounds to avoid per-round allocation.
    let mut send_cursor: Vec<Time> = clocks.to_vec();
    while let Some(round) = rounds.next_round() {
        // One pass over the clocks: this round's send cursors, and the
        // horizon nothing later can be ready before.
        let mut horizon = clocks.first().copied().unwrap_or(Time::ZERO);
        for (cursor, &clock) in send_cursor.iter_mut().zip(clocks.iter()) {
            *cursor = clock;
            horizon = horizon.min(clock);
        }
        retire(horizon);
        for t in &round.transfers {
            let cost = transfer(t.src, t.dst, t.bytes, send_cursor[t.src]);
            send_cursor[t.src] = send_cursor[t.src].max(cost.sender_done);
            clocks[t.src] = clocks[t.src].max(cost.sender_done);
            clocks[t.dst] = clocks[t.dst].max(cost.arrival);
        }
        for w in &round.work {
            clocks[w.rank] = work(w.rank, w.bytes, clocks[w.rank]);
        }
    }
    clocks.iter().copied().fold(Time::ZERO, Time::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_cost(latency_us: f64, bw: f64) -> impl FnMut(usize, usize, u64, Time) -> P2pCost {
        move |_s, _d, bytes, ready| {
            let dur = Time::from_secs(bytes as f64 / bw) + Time::from_us(latency_us);
            P2pCost {
                sender_done: ready + Time::from_us(0.5),
                arrival: ready + dur,
            }
        }
    }

    fn no_work(_r: usize, _b: u64, start: Time) -> Time {
        start
    }

    fn keep(_t: Time) {}

    #[test]
    fn schedule_accounting() {
        let mut s = Schedule::new(4);
        s.push(Round::of(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 100,
            },
            Transfer {
                src: 2,
                dst: 3,
                bytes: 200,
            },
        ]));
        s.push(Round::of(vec![Transfer {
            src: 1,
            dst: 2,
            bytes: 50,
        }]));
        assert_eq!(s.total_bytes(), 350);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.num_rounds(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_entries() {
        let mut s = Schedule::new(2);
        s.push(Round::of(vec![Transfer {
            src: 0,
            dst: 2,
            bytes: 1,
        }]));
        assert!(s.validate().is_err());
        let mut s2 = Schedule::new(2);
        s2.push(Round::of(vec![Transfer {
            src: 1,
            dst: 1,
            bytes: 1,
        }]));
        assert!(s2.validate().is_err());
    }

    #[test]
    fn dependency_chain_accumulates() {
        // 0 -> 1 -> 2 -> 3, 1 MB each at 1 GB/s: three sequential milliseconds.
        let mut s = Schedule::new(4);
        for i in 0..3 {
            s.push(Round::of(vec![Transfer {
                src: i,
                dst: i + 1,
                bytes: 1_000_000,
            }]));
        }
        let mut clocks = vec![Time::ZERO; 4];
        let t = execute(
            Replay::new(&s),
            &mut clocks,
            fixed_cost(0.0, 1e9),
            no_work,
            keep,
        );
        assert!((t.as_secs() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn parallel_transfers_overlap() {
        let mut s = Schedule::new(4);
        s.push(Round::of(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            },
            Transfer {
                src: 2,
                dst: 3,
                bytes: 1_000_000,
            },
        ]));
        let mut clocks = vec![Time::ZERO; 4];
        let t = execute(
            Replay::new(&s),
            &mut clocks,
            fixed_cost(0.0, 1e9),
            no_work,
            keep,
        );
        assert!((t.as_secs() - 1e-3).abs() < 1e-9, "one round, not two");
    }

    #[test]
    fn work_extends_the_receiving_rank() {
        let mut s = Schedule::new(2);
        s.push(Round {
            transfers: vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 1000,
            }],
            work: vec![LocalWork {
                rank: 1,
                bytes: 1000,
            }],
        });
        let mut clocks = vec![Time::ZERO; 2];
        let work = |_r, bytes: u64, start| start + Time::from_secs(bytes as f64 / 1e8);
        let t = execute(
            Replay::new(&s),
            &mut clocks,
            fixed_cost(0.0, 1e9),
            work,
            keep,
        );
        let expected = 1000.0 / 1e9 + 1000.0 / 1e8;
        assert!((t.as_secs() - expected).abs() < 1e-12);
    }

    #[test]
    fn retire_hears_the_minimum_clock_before_every_round() {
        // 0 -> 1 -> 2 with rank 3 idle: the horizon is the idle rank's
        // clock, and no transfer is ever ready before the last one heard.
        let mut s = Schedule::new(4);
        for i in 0..2 {
            s.push(Round::of(vec![Transfer {
                src: i,
                dst: i + 1,
                bytes: 1_000_000,
            }]));
        }
        let mut clocks = [3e-3, 2e-3, 1e-3, 5e-4].map(Time::from_secs);
        let heard = std::cell::RefCell::new(Vec::new());
        let mut price = fixed_cost(0.0, 1e9);
        execute(
            Replay::new(&s),
            &mut clocks,
            |src, dst, bytes, ready| {
                assert!(ready >= *heard.borrow().last().expect("retire runs first"));
                price(src, dst, bytes, ready)
            },
            no_work,
            |t| heard.borrow_mut().push(t),
        );
        assert_eq!(*heard.borrow(), [Time::from_secs(5e-4); 2]);
    }

    #[test]
    fn transfer_multiset_is_order_independent() {
        let mut a = Schedule::new(3);
        a.push(Round::of(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 10,
            },
            Transfer {
                src: 1,
                dst: 2,
                bytes: 20,
            },
        ]));
        let mut b = Schedule::new(3);
        b.push(Round::of(vec![Transfer {
            src: 1,
            dst: 2,
            bytes: 20,
        }]));
        b.push(Round::of(vec![Transfer {
            src: 0,
            dst: 1,
            bytes: 10,
        }]));
        assert_eq!(a.transfer_multiset(), b.transfer_multiset());
    }
}

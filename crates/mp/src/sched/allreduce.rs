//! Schedule generators for [`crate::coll::allreduce`].

use simnet::{LocalWork, Round, Schedule, Transfer};

use crate::coll::allreduce::picks_rabenseifner;

/// The non-power-of-two fold parameters (mirrors the private `Fold` in the
/// real implementation).
fn fold_params(n: usize) -> (usize, usize) {
    let pow2 = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    };
    (pow2, n - pow2)
}

fn oldrank(newrank: usize, rem: usize) -> usize {
    if newrank < rem {
        2 * newrank + 1
    } else {
        newrank + rem
    }
}

/// Fold-in round: even ranks below `2*rem` donate their vector to their odd
/// neighbour, which folds it.
fn fold_in_round(rem: usize, bytes: u64) -> Round {
    Round {
        transfers: (0..rem)
            .map(|j| Transfer {
                src: 2 * j,
                dst: 2 * j + 1,
                bytes,
            })
            .collect(),
        work: (0..rem)
            .map(|j| LocalWork {
                rank: 2 * j + 1,
                bytes,
            })
            .collect(),
    }
}

/// Fold-out round: the odd survivors hand the result back.
fn fold_out_round(rem: usize, bytes: u64) -> Round {
    Round::of(
        (0..rem)
            .map(|j| Transfer {
                src: 2 * j + 1,
                dst: 2 * j,
                bytes,
            })
            .collect(),
    )
}

/// Recursive-doubling allreduce of `bytes`: optional fold, `log2 p` full-
/// vector exchange rounds, optional unfold.
pub fn recursive_doubling(n: usize, bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n == 1 {
        return s;
    }
    let (pow2, rem) = fold_params(n);
    if rem > 0 {
        s.push(fold_in_round(rem, bytes));
    }
    let mut span = 1;
    while span < pow2 {
        s.push(Round {
            transfers: (0..pow2)
                .map(|p| Transfer {
                    src: oldrank(p, rem),
                    dst: oldrank(p ^ span, rem),
                    bytes,
                })
                .collect(),
            work: (0..pow2)
                .map(|p| LocalWork {
                    rank: oldrank(p, rem),
                    bytes,
                })
                .collect(),
        });
        span <<= 1;
    }
    if rem > 0 {
        s.push(fold_out_round(rem, bytes));
    }
    s
}

/// Rabenseifner allreduce: optional fold, recursive-halving reduce-scatter,
/// recursive-doubling allgather, optional unfold. Bandwidth-optimal for
/// long vectors — the algorithm shape behind the paper's 1 MB Allreduce
/// measurements (Fig. 7).
pub fn rabenseifner(n: usize, bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n == 1 {
        return s;
    }
    let (pow2, rem) = fold_params(n);
    if rem > 0 {
        s.push(fold_in_round(rem, bytes));
    }

    // Reduce-scatter by recursive halving.
    let mut group = pow2;
    let mut chunk = bytes;
    while group > 1 {
        chunk /= 2;
        let half = group / 2;
        s.push(Round {
            transfers: (0..pow2)
                .map(|v| {
                    let partner = if v & half == 0 { v + half } else { v - half };
                    Transfer {
                        src: oldrank(v, rem),
                        dst: oldrank(partner, rem),
                        bytes: chunk,
                    }
                })
                .collect(),
            work: (0..pow2)
                .map(|v| LocalWork {
                    rank: oldrank(v, rem),
                    bytes: chunk,
                })
                .collect(),
        });
        group /= 2;
    }

    // Allgather by recursive doubling.
    let slice = bytes / pow2 as u64;
    let mut span = 1;
    while span < pow2 {
        s.push(Round::of(
            (0..pow2)
                .map(|v| Transfer {
                    src: oldrank(v, rem),
                    dst: oldrank(v ^ span, rem),
                    bytes: span as u64 * slice,
                })
                .collect(),
        ));
        span <<= 1;
    }

    if rem > 0 {
        s.push(fold_out_round(rem, bytes));
    }
    s
}

/// Mirrors [`crate::coll::allreduce::auto`]'s dispatch (`elem_size` as in
/// [`super::reduce::auto`]).
pub fn auto(n: usize, bytes: u64, elem_size: u64) -> Schedule {
    if picks_rabenseifner(n, bytes as usize, (bytes / elem_size) as usize) {
        rabenseifner(n, bytes)
    } else {
        recursive_doubling(n, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::reduce::Op;
    use crate::runtime::run_traced;

    #[test]
    fn recursive_doubling_matches_real_execution() {
        for n in [1, 2, 3, 4, 5, 7, 8, 13] {
            let (_, trace) = run_traced(n, |comm| {
                let mut buf = vec![1.0f64; 10];
                coll::allreduce::recursive_doubling(comm, &mut buf, Op::Sum);
            });
            assert_trace_matches(trace, &super::recursive_doubling(n, 80));
        }
    }

    #[test]
    fn rabenseifner_matches_real_execution() {
        for n in [2, 3, 4, 5, 8, 12, 16] {
            let (_, trace) = run_traced(n, |comm| {
                let mut buf = vec![1.0f64; 240];
                coll::allreduce::rabenseifner(comm, &mut buf, Op::Sum);
            });
            assert_trace_matches(trace, &super::rabenseifner(n, 240 * 8));
        }
    }

    #[test]
    fn auto_matches_real_dispatch() {
        for len in [4usize, 8192] {
            for n in [4usize, 7] {
                let (_, trace) = run_traced(n, |comm| {
                    let mut buf = vec![1.0f64; len];
                    coll::allreduce::auto(comm, &mut buf, Op::Sum);
                });
                assert_trace_matches(trace, &super::auto(n, (len * 8) as u64, 8));
            }
        }
    }

    #[test]
    fn rabenseifner_bandwidth_advantage() {
        let n = 16;
        let bytes = 1 << 20;
        let rd = super::recursive_doubling(n, bytes);
        let rab = super::rabenseifner(n, bytes);
        // Recursive doubling: log2(n) * bytes per rank; Rabenseifner:
        // ~2 * bytes * (n-1)/n per rank.
        assert!(rab.total_bytes() * 2 < rd.total_bytes());
    }
}

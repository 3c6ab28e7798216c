//! Schedule generators for [`crate::coll::reduce`].

use simnet::{LocalWork, Round, Schedule, Transfer};

use crate::coll::reduce::picks_rabenseifner;
use crate::coll::unvrank;

/// Binomial-tree reduce of `bytes` to `root`: the broadcast tree run
/// upwards, folding at every parent.
pub fn binomial(n: usize, root: usize, bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for round in super::binomial_rounds(n).iter().rev() {
        s.push(Round {
            transfers: round
                .iter()
                .map(|&(parent, child)| Transfer {
                    src: unvrank(child, root, n),
                    dst: unvrank(parent, root, n),
                    bytes,
                })
                .collect(),
            work: round
                .iter()
                .map(|&(parent, _)| LocalWork {
                    rank: unvrank(parent, root, n),
                    bytes,
                })
                .collect(),
        });
    }
    s
}

/// Rabenseifner reduce (power-of-two groups, divisible vectors):
/// recursive-halving reduce-scatter, then binomial gather of the slices.
pub fn rabenseifner(n: usize, root: usize, bytes: u64) -> Schedule {
    assert!(n.is_power_of_two(), "rabenseifner reduce needs 2^k ranks");
    let mut s = Schedule::new(n);
    if n == 1 {
        return s;
    }

    // Phase 1: recursive halving, largest distance first.
    let mut group = n as u64;
    let mut chunk = bytes;
    while group > 1 {
        chunk /= 2;
        let half = (group / 2) as usize;
        s.push(Round {
            transfers: (0..n)
                .map(|v| {
                    let in_lower = v & half == 0;
                    let partner = if in_lower { v + half } else { v - half };
                    Transfer {
                        src: unvrank(v, root, n),
                        dst: unvrank(partner, root, n),
                        bytes: chunk,
                    }
                })
                .collect(),
            work: (0..n)
                .map(|v| LocalWork {
                    rank: unvrank(v, root, n),
                    bytes: chunk,
                })
                .collect(),
        });
        group /= 2;
    }

    // Phase 2: binomial gather of the n slices to vrank 0.
    let slice = bytes / n as u64;
    for level in super::halving_bfs(n).iter().rev() {
        s.push(Round::of(
            level
                .iter()
                .map(|(holder, child, range)| Transfer {
                    src: unvrank(*child, root, n),
                    dst: unvrank(*holder, root, n),
                    bytes: (range.end - range.start) as u64 * slice,
                })
                .collect(),
        ));
    }
    s
}

/// Mirrors [`crate::coll::reduce::auto`]'s dispatch. `elem_size` is the
/// datatype width used for the divisibility check (8 for the `f64`
/// vectors the IMB benchmarks reduce).
pub fn auto(n: usize, root: usize, bytes: u64, elem_size: u64) -> Schedule {
    if picks_rabenseifner(n, bytes as usize, (bytes / elem_size) as usize) {
        rabenseifner(n, root, bytes)
    } else {
        binomial(n, root, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::reduce::Op;
    use crate::runtime::run_traced;

    #[test]
    fn binomial_matches_real_execution() {
        for n in [1, 2, 3, 5, 8, 13] {
            for root in [0, n - 1] {
                let (_, trace) = run_traced(n, |comm| {
                    let send = vec![1.0f64; 8];
                    let mut recv = (comm.rank() == root).then(|| vec![0.0f64; 8]);
                    coll::reduce::binomial(comm, &send, recv.as_deref_mut(), root, Op::Sum);
                });
                assert_trace_matches(trace, &super::binomial(n, root, 64));
            }
        }
    }

    #[test]
    fn rabenseifner_matches_real_execution() {
        for n in [2, 4, 8, 16] {
            for root in [0, n / 3] {
                let len = 16 * n;
                let (_, trace) = run_traced(n, |comm| {
                    let send = vec![1.0f64; len];
                    let mut recv = (comm.rank() == root).then(|| vec![0.0f64; len]);
                    coll::reduce::rabenseifner(comm, &send, recv.as_deref_mut(), root, Op::Sum);
                });
                assert_trace_matches(trace, &super::rabenseifner(n, root, (len * 8) as u64));
            }
        }
    }

    #[test]
    fn auto_matches_real_dispatch() {
        for len in [8usize, 8192] {
            let (_, trace) = run_traced(8, |comm| {
                let send = vec![1.0f64; len];
                let mut recv = (comm.rank() == 0).then(|| vec![0.0f64; len]);
                coll::reduce::auto(comm, &send, recv.as_deref_mut(), 0, Op::Sum);
            });
            assert_trace_matches(trace, &super::auto(8, 0, (len * 8) as u64, 8));
        }
    }

    #[test]
    fn rabenseifner_has_shorter_critical_path_for_large_vectors() {
        // Rabenseifner's win is the per-rank critical path (~2*bytes vs
        // log2(n)*bytes for the binomial tree), not total volume.
        let critical_path_bytes = |s: &simnet::Schedule| -> u64 {
            s.rounds
                .iter()
                .map(|r| r.transfers.iter().map(|t| t.bytes).max().unwrap_or(0))
                .sum()
        };
        let n = 16;
        let bytes = 1 << 20;
        let bin = critical_path_bytes(&super::binomial(n, 0, bytes));
        let rab = critical_path_bytes(&super::rabenseifner(n, 0, bytes));
        assert!(
            rab < bin / 2,
            "rabenseifner critical path {rab} should beat binomial {bin}"
        );
    }
}

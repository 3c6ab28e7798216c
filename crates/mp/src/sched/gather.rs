//! Schedule generators for [`crate::coll::gather`].

use simnet::{Round, Schedule, Transfer};

use crate::coll::gather::picks_linear;
use crate::coll::unvrank;

/// Linear gather: every non-root rank sends its block straight to the root.
pub fn linear(n: usize, root: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n > 1 {
        s.push(Round::of(
            (0..n)
                .filter(|&r| r != root)
                .map(|r| Transfer {
                    src: r,
                    dst: root,
                    bytes: block_bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Binomial-tree gather: the halving tree run upwards — deepest level
/// first, each child forwarding its whole contiguous subtree range.
pub fn binomial(n: usize, root: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for level in super::halving_bfs(n).iter().rev() {
        s.push(Round::of(
            level
                .iter()
                .map(|(holder, child, range)| Transfer {
                    src: unvrank(*child, root, n),
                    dst: unvrank(*holder, root, n),
                    bytes: (range.end - range.start) as u64 * block_bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Mirrors [`crate::coll::gather::auto`] (linear for n <= 2, else binomial).
pub fn auto(n: usize, root: usize, block_bytes: u64) -> Schedule {
    if picks_linear(n) {
        linear(n, root, block_bytes)
    } else {
        binomial(n, root, block_bytes)
    }
}

#[cfg(test)]
fn scatter_schedule_reversed(n: usize, root: usize, block_bytes: u64) -> simnet::Schedule {
    let fwd = super::scatter::binomial(n, root, block_bytes);
    let mut s = simnet::Schedule::new(n);
    for round in fwd.rounds.iter().rev() {
        s.push(simnet::Round::of(
            round
                .transfers
                .iter()
                .map(|t| simnet::Transfer {
                    src: t.dst,
                    dst: t.src,
                    bytes: t.bytes,
                })
                .collect(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::runtime::run_traced;

    #[test]
    fn binomial_matches_real_execution() {
        for n in [1, 2, 3, 5, 8, 11] {
            for root in [0, n - 1] {
                let (_, trace) = run_traced(n, |comm| {
                    let send = vec![comm.rank() as u64; 3];
                    let mut recv = (comm.rank() == root).then(|| vec![0u64; 3 * n]);
                    coll::gather::binomial(comm, &send, recv.as_deref_mut(), root);
                });
                assert_trace_matches(trace, &super::binomial(n, root, 24));
            }
        }
    }

    #[test]
    fn linear_matches_real_execution() {
        let (_, trace) = run_traced(5, |comm| {
            let send = vec![comm.rank() as u64; 2];
            let mut recv = (comm.rank() == 1).then(|| vec![0u64; 10]);
            coll::gather::linear(comm, &send, recv.as_deref_mut(), 1);
        });
        assert_trace_matches(trace, &super::linear(5, 1, 16));
    }

    #[test]
    fn gather_is_scatter_reversed() {
        let g = super::binomial(13, 4, 8);
        let sc = super::scatter_schedule_reversed(13, 4, 8);
        assert_eq!(g.transfer_multiset(), sc.transfer_multiset());
    }
}

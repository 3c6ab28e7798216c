//! Schedule generators for [`crate::coll::scatter`].

use simnet::{Round, Schedule, Transfer};

use crate::coll::scatter::picks_linear;
use crate::coll::unvrank;

/// Linear scatter: the root sends every non-root rank its block in one
/// conceptual round (all sends are eager).
pub fn linear(n: usize, root: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n > 1 {
        s.push(Round::of(
            (0..n)
                .filter(|&r| r != root)
                .map(|r| Transfer {
                    src: root,
                    dst: r,
                    bytes: block_bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Binomial-tree scatter down the halving tree: each split forwards the
/// child's whole subtree range.
pub fn binomial(n: usize, root: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for level in super::halving_bfs(n) {
        s.push(Round::of(
            level
                .iter()
                .map(|(holder, child, range)| Transfer {
                    src: unvrank(*holder, root, n),
                    dst: unvrank(*child, root, n),
                    bytes: (range.end - range.start) as u64 * block_bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Mirrors [`crate::coll::scatter::auto`] (linear for n <= 2, else binomial).
pub fn auto(n: usize, root: usize, block_bytes: u64) -> Schedule {
    if picks_linear(n) {
        linear(n, root, block_bytes)
    } else {
        binomial(n, root, block_bytes)
    }
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
                    let send: Option<Vec<u64>> = (comm.rank() == root).then(|| vec![7u64; 3 * n]);
                    let mut recv = vec![0u64; 3];
                    coll::scatter::binomial(comm, send.as_deref(), &mut recv, root);
                });
                assert_trace_matches(trace, &super::binomial(n, root, 24));
            }
        }
    }

    #[test]
    fn linear_matches_real_execution() {
        let (_, trace) = run_traced(5, |comm| {
            let send: Option<Vec<u64>> = (comm.rank() == 2).then(|| vec![7u64; 10]);
            let mut recv = vec![0u64; 2];
            coll::scatter::linear(comm, send.as_deref(), &mut recv, 2);
        });
        assert_trace_matches(trace, &super::linear(5, 2, 16));
    }

    #[test]
    fn binomial_total_volume() {
        // Every rank's block crosses each tree level above it exactly once:
        // total = sum over non-root ranks of (depth-weighted)... just check
        // the known value for n=8: 4+2+1 blocks + 2+1 + 1 = log-structured.
        let s = super::binomial(8, 0, 10);
        assert_eq!(s.num_rounds(), 3);
        assert_eq!(s.total_messages(), 7);
        assert_eq!(s.total_bytes(), (4 + 2 + 1 + 2 + 1 + 1 + 1) * 10);
    }
}

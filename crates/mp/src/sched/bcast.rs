//! Schedule generators for [`crate::coll::bcast`].

use simnet::{Round, Schedule, Transfer};

use crate::coll::bcast::picks_scatter_allgather;
use crate::coll::unvrank;

/// Binomial-tree broadcast of `bytes` from `root`.
pub fn binomial(n: usize, root: usize, bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for round in super::binomial_rounds(n) {
        s.push(Round::of(
            round
                .iter()
                .map(|&(src, dst)| Transfer {
                    src: unvrank(src, root, n),
                    dst: unvrank(dst, root, n),
                    bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Van de Geijn broadcast: binomial scatter (BFS levels of the halving
/// tree) followed by a ring allgather of the `n` blocks.
pub fn scatter_allgather(n: usize, root: usize, bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n == 1 {
        return s;
    }
    let cut = |b: usize| -> u64 { (b as u64) * bytes / (n as u64) };

    for level in super::halving_bfs(n) {
        s.push(Round::of(
            level
                .iter()
                .map(|(holder, child, range)| Transfer {
                    src: unvrank(*holder, root, n),
                    dst: unvrank(*child, root, n),
                    bytes: cut(range.end) - cut(range.start),
                })
                .collect(),
        ));
    }

    for k in 0..n - 1 {
        s.push(Round::of(
            (0..n)
                .map(|v| {
                    let send_block = (v + n - k) % n;
                    Transfer {
                        src: unvrank(v, root, n),
                        dst: unvrank((v + 1) % n, root, n),
                        bytes: cut(send_block + 1) - cut(send_block),
                    }
                })
                .collect(),
        ));
    }
    s
}

/// Mirrors [`crate::coll::bcast::auto`]'s size dispatch.
pub fn auto(n: usize, root: usize, bytes: u64) -> Schedule {
    if picks_scatter_allgather(n, bytes as usize) {
        scatter_allgather(n, root, bytes)
    } else {
        binomial(n, root, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::runtime::run_traced;

    #[test]
    fn binomial_matches_real_execution() {
        for n in [1, 2, 3, 5, 8] {
            for root in [0, n - 1] {
                let (_, trace) = run_traced(n, |comm| {
                    let mut buf = vec![1.0f64; 17];
                    coll::bcast::binomial(comm, &mut buf, root);
                });
                assert_trace_matches(trace, &super::binomial(n, root, 17 * 8));
            }
        }
    }

    #[test]
    fn scatter_allgather_matches_real_execution() {
        for n in [2, 3, 4, 7, 8] {
            for root in [0, n / 2] {
                let (_, trace) = run_traced(n, |comm| {
                    let mut buf = vec![1.0f64; 1000];
                    coll::bcast::scatter_allgather(comm, &mut buf, root);
                });
                assert_trace_matches(trace, &super::scatter_allgather(n, root, 8000));
            }
        }
    }

    #[test]
    fn auto_matches_real_dispatch() {
        for len in [8usize, 16384] {
            let (_, trace) = run_traced(6, |comm| {
                let mut buf = vec![1.0f64; len];
                coll::bcast::auto(comm, &mut buf, 0);
            });
            assert_trace_matches(trace, &super::auto(6, 0, (len * 8) as u64));
        }
    }

    #[test]
    fn binomial_volume_is_payload_times_edges() {
        let s = super::binomial(8, 0, 100);
        assert_eq!(s.total_messages(), 7);
        assert_eq!(s.total_bytes(), 700);
    }

    #[test]
    fn scatter_allgather_volume_is_roughly_2x_payload() {
        let s = super::scatter_allgather(8, 0, 8000);
        // Scatter moves (n-1)/n of the payload total; ring moves (n-1)x blocks.
        let per_rank_equiv = s.total_bytes() as f64 / 8000.0;
        assert!(
            per_rank_equiv > 7.0 && per_rank_equiv < 9.0,
            "{per_rank_equiv}"
        );
    }
}

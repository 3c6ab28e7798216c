//! Schedule generators for [`crate::coll::allgather`].

use simnet::{Round, Schedule, Transfer};

use crate::coll::allgather::picks_recursive_doubling;

/// Ring allgather: `n-1` rounds; every rank passes one block of
/// `block_bytes` to its right neighbour each round.
pub fn ring(n: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for _ in 0..n.saturating_sub(1) {
        s.push(Round::of(
            (0..n)
                .map(|i| Transfer {
                    src: i,
                    dst: (i + 1) % n,
                    bytes: block_bytes,
                })
                .collect(),
        ));
    }
    s
}

/// Recursive-doubling allgather (power-of-two groups): round `k` exchanges
/// `2^k` blocks with the partner at XOR-distance `2^k`.
pub fn recursive_doubling(n: usize, block_bytes: u64) -> Schedule {
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    let mut s = Schedule::new(n);
    let mut span = 1u64;
    while (span as usize) < n {
        s.push(Round::of(
            (0..n)
                .map(|i| Transfer {
                    src: i,
                    dst: i ^ span as usize,
                    bytes: span * block_bytes,
                })
                .collect(),
        ));
        span <<= 1;
    }
    s
}

/// Mirrors [`crate::coll::allgather::auto`]'s dispatch.
pub fn auto(n: usize, block_bytes: u64) -> Schedule {
    if picks_recursive_doubling(n, block_bytes as usize) {
        recursive_doubling(n, block_bytes)
    } else {
        ring(n, block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::runtime::run_traced;

    #[test]
    fn ring_matches_real_execution() {
        for n in [1, 2, 3, 5, 8] {
            let (_, trace) = run_traced(n, |comm| {
                let send = vec![comm.rank() as u64; 4];
                let mut recv = vec![0u64; 4 * n];
                coll::allgather::ring(comm, &send, &mut recv);
            });
            assert_trace_matches(trace, &super::ring(n, 32));
        }
    }

    #[test]
    fn recursive_doubling_matches_real_execution() {
        for n in [1, 2, 4, 8, 16] {
            let (_, trace) = run_traced(n, |comm| {
                let send = vec![comm.rank() as u64; 4];
                let mut recv = vec![0u64; 4 * n];
                coll::allgather::recursive_doubling(comm, &send, &mut recv);
            });
            assert_trace_matches(trace, &super::recursive_doubling(n, 32));
        }
    }

    #[test]
    fn auto_matches_real_dispatch() {
        for (n, len) in [(8usize, 2usize), (8, 4096), (6, 2)] {
            let (_, trace) = run_traced(n, |comm| {
                let send = vec![comm.rank() as u64; len];
                let mut recv = vec![0u64; len * n];
                coll::allgather::auto(comm, &send, &mut recv);
            });
            assert_trace_matches(trace, &super::auto(n, (len * 8) as u64));
        }
    }

    #[test]
    fn both_algorithms_move_the_same_volume() {
        // (n-1) blocks arrive at every rank regardless of algorithm.
        let n = 16;
        let b = 100;
        assert_eq!(
            super::ring(n, b).total_bytes(),
            super::recursive_doubling(n, b).total_bytes()
        );
        assert_eq!(super::ring(n, b).total_bytes(), (n * (n - 1)) as u64 * b);
    }
}

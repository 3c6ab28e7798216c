//! Schedule generators for [`crate::coll::alltoall`].

use simnet::{Round, Schedule, Transfer};

use crate::coll::alltoall::picks_bruck;

/// Pairwise-exchange alltoall: `n-1` rounds; XOR pairing on power-of-two
/// groups, rotation otherwise.
pub fn pairwise(n: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    for step in 1..n {
        s.push(Round::of(
            (0..n)
                .map(|i| {
                    let dst = if n.is_power_of_two() {
                        i ^ step
                    } else {
                        (i + step) % n
                    };
                    Transfer {
                        src: i,
                        dst,
                        bytes: block_bytes,
                    }
                })
                .collect(),
        ));
    }
    s
}

/// Bruck alltoall: `ceil(log2 n)` rounds; round `k` ships every slot with
/// bit `k` set (about half the payload) a distance `2^k` around the ring.
pub fn bruck(n: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    let mut step = 1usize;
    while step < n {
        let moving = (0..n).filter(|i| i & step != 0).count() as u64;
        s.push(Round::of(
            (0..n)
                .map(|i| Transfer {
                    src: i,
                    dst: (i + step) % n,
                    bytes: moving * block_bytes,
                })
                .collect(),
        ));
        step <<= 1;
    }
    s
}

/// Linear alltoall: all `n(n-1)` direct messages in one eager round.
pub fn linear(n: usize, block_bytes: u64) -> Schedule {
    let mut s = Schedule::new(n);
    if n > 1 {
        s.push(Round::of(
            (0..n)
                .flat_map(|i| {
                    (1..n).map(move |off| Transfer {
                        src: i,
                        dst: (i + off) % n,
                        bytes: block_bytes,
                    })
                })
                .collect(),
        ));
    }
    s
}

/// Mirrors [`crate::coll::alltoall::auto`]'s dispatch.
pub fn auto(n: usize, block_bytes: u64) -> Schedule {
    if n == 1 {
        Schedule::new(1)
    } else if picks_bruck(n, block_bytes as usize) {
        bruck(n, block_bytes)
    } else {
        pairwise(n, block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_trace_matches;
    use crate::coll;
    use crate::runtime::run_traced;

    fn trace_of(
        n: usize,
        block: usize,
        algo: fn(&crate::Comm, &[u64], &mut [u64]),
    ) -> Vec<simnet::Transfer> {
        let (_, trace) = run_traced(n, |comm| {
            let send = vec![comm.rank() as u64; n * block];
            let mut recv = vec![0u64; n * block];
            algo(comm, &send, &mut recv);
        });
        trace
    }

    #[test]
    fn pairwise_matches_real_execution() {
        for n in [1, 2, 3, 4, 7, 8] {
            let trace = trace_of(n, 3, coll::alltoall::pairwise::<u64>);
            assert_trace_matches(trace, &super::pairwise(n, 24));
        }
    }

    #[test]
    fn bruck_matches_real_execution() {
        for n in [1, 2, 3, 5, 8, 11] {
            let trace = trace_of(n, 2, coll::alltoall::bruck::<u64>);
            assert_trace_matches(trace, &super::bruck(n, 16));
        }
    }

    #[test]
    fn linear_matches_real_execution() {
        let trace = trace_of(6, 2, coll::alltoall::linear::<u64>);
        assert_trace_matches(trace, &super::linear(6, 16));
    }

    #[test]
    fn auto_matches_real_dispatch() {
        for (n, block) in [(12usize, 1usize), (12, 512)] {
            let trace = trace_of(n, block, coll::alltoall::auto::<u64>);
            assert_trace_matches(trace, &super::auto(n, (block * 8) as u64));
        }
    }

    #[test]
    fn pairwise_moves_every_block_once() {
        let s = super::pairwise(8, 10);
        assert_eq!(s.total_messages(), 8 * 7);
        assert_eq!(s.total_bytes(), 8 * 7 * 10);
    }

    #[test]
    fn bruck_fewer_messages_more_bytes() {
        let p = super::pairwise(16, 10);
        let b = super::bruck(16, 10);
        assert!(b.total_messages() < p.total_messages());
        assert!(b.total_bytes() > p.total_bytes());
        assert_eq!(b.num_rounds(), 4);
    }
}

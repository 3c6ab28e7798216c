//! Schedules: the communication pattern of every collective algorithm as
//! a [`simnet::Rounds`] source.
//!
//! A schedule is the algorithm's own per-rank steps bucketed by round:
//! each generator hands `build` the `<algo>_steps` function that the
//! real implementation in [`crate::coll`] loops over, with lengths in
//! bytes, so the fabric simulator prices the pattern the runtime executes.
//! A generator produces its rounds one at a time, holding every rank's
//! next step and one round, so a pairwise exchange over `p` ranks is
//! priced without ever holding its p(p−1) transfers;
//! [`simnet::Schedule::collect`] materialises one where a test needs it.
//! The `auto` generators ask the `picks_*` predicates that
//! `Comm::<op>_async` dispatches on.
//! [`p2p`] holds the IMB transfer patterns, which have no collective twin.

mod build;
pub mod p2p;

use std::sync::Arc;

use simnet::Rounds;

use build::build;

/// Schedules of `crate::coll::allgather`: `n` blocks of `block` bytes.
pub mod allgather {
    use super::*;
    use crate::coll::allgather::*;

    /// The ring: `n-1` rounds of one block.
    pub fn ring(n: usize, block: u64) -> impl Rounds {
        build(n, 0, move |me| ring_steps(me, n, block as usize))
    }

    /// Recursive doubling.
    pub fn recursive_doubling(n: usize, block: u64) -> impl Rounds {
        build(n, 0, move |me| {
            recursive_doubling_steps(me, n, block as usize)
        })
    }

    /// `Comm::allgather_async`'s dispatch.
    pub fn auto(n: usize, block: u64) -> Box<dyn Rounds> {
        if picks_recursive_doubling(n, block as usize) {
            Box::new(recursive_doubling(n, block))
        } else {
            Box::new(ring(n, block))
        }
    }
}

/// Schedules of `crate::coll::allgatherv`: `counts` bytes from each rank.
pub mod allgatherv {
    use super::*;
    use crate::coll::allgatherv::*;

    /// The ring.
    pub fn ring(counts: &[u64]) -> impl Rounds {
        let displs: Arc<[usize]> = displs(counts.iter().map(|&c| c as usize)).into();
        build(counts.len(), 0, move |me| {
            ring_steps(me, Arc::clone(&displs))
        })
    }

    /// `Comm::allgatherv_async` is the ring.
    pub use ring as auto;
}

/// Schedules of `crate::coll::allreduce` on a vector of `bytes`.
pub mod allreduce {
    use super::*;
    use crate::coll::allreduce::*;

    /// Recursive doubling.
    pub fn recursive_doubling(n: usize, bytes: u64) -> impl Rounds {
        build(n, 0, move |me| {
            recursive_doubling_steps(me, n, bytes as usize)
        })
    }

    /// Rabenseifner's algorithm: the shape
    /// behind the paper's 1 MB Allreduce measurements (Fig. 7).
    pub fn rabenseifner(n: usize, bytes: u64) -> impl Rounds {
        build(n, 0, move |me| rabenseifner_steps(me, n, bytes as usize))
    }

    /// `Comm::allreduce_async`'s dispatch; `elem_size` as in
    /// [`super::reduce::auto`].
    pub fn auto(n: usize, bytes: u64, elem_size: u64) -> Box<dyn Rounds> {
        if picks_rabenseifner(n, bytes as usize, (bytes / elem_size) as usize) {
            Box::new(rabenseifner(n, bytes))
        } else {
            Box::new(recursive_doubling(n, bytes))
        }
    }
}

/// Schedules of `crate::coll::alltoall`: `block` bytes per rank pair.
pub mod alltoall {
    use super::*;
    use crate::coll::alltoall::*;

    /// Pairwise exchange: `n-1` rounds.
    pub fn pairwise(n: usize, block: u64) -> impl Rounds {
        build(n, 0, move |me| pairwise_steps(me, n, block as usize))
    }

    /// Bruck: `ceil(log2 n)` rounds.
    pub fn bruck(n: usize, block: u64) -> impl Rounds {
        build(n, 0, move |me| bruck_steps(me, n, block as usize))
    }

    /// `Comm::alltoall_async`'s dispatch.
    pub fn auto(n: usize, block: u64) -> Box<dyn Rounds> {
        if picks_bruck(n, block as usize) {
            Box::new(bruck(n, block))
        } else {
            Box::new(pairwise(n, block))
        }
    }
}

/// Schedules of `crate::coll::barrier`: zero-byte messages.
pub mod barrier {
    use super::*;
    use crate::coll::barrier::*;

    /// Dissemination.
    pub fn dissemination(n: usize) -> impl Rounds {
        build(n, 0, move |me| dissemination_steps(me, n))
    }

    /// `Comm::barrier_async` is dissemination.
    pub use dissemination as auto;
}

/// Schedules of `crate::coll::bcast` of `bytes` from `root`.
pub mod bcast {
    use super::*;
    use crate::coll::bcast::*;

    /// The binomial tree.
    pub fn binomial(n: usize, root: usize, bytes: u64) -> impl Rounds {
        build(n, root, move |me| {
            binomial_steps(me, n, bytes as usize, root)
        })
    }

    /// Scatter+allgather.
    pub fn scatter_allgather(n: usize, root: usize, bytes: u64) -> impl Rounds {
        build(n, root, move |me| {
            scatter_allgather_steps(me, n, bytes as usize, root)
        })
    }

    /// `Comm::bcast_async`'s size dispatch.
    pub fn auto(n: usize, root: usize, bytes: u64) -> Box<dyn Rounds> {
        if picks_scatter_allgather(n, bytes as usize) {
            Box::new(scatter_allgather(n, root, bytes))
        } else {
            Box::new(binomial(n, root, bytes))
        }
    }
}

/// Schedules of `crate::coll::reduce` of a vector of `bytes` to `root`.
pub mod reduce {
    use super::*;
    use crate::coll::reduce::*;

    /// The binomial tree, whose steps a node takes folding its children in
    /// broadcast order: read here in round order.
    pub fn binomial(n: usize, root: usize, bytes: u64) -> impl Rounds {
        build(n, root, move |me| {
            binomial_steps_by_round(me, n, bytes as usize, root)
        })
    }

    /// Rabenseifner's algorithm.
    pub fn rabenseifner(n: usize, root: usize, bytes: u64) -> impl Rounds {
        build(n, root, move |me| {
            rabenseifner_steps(me, n, bytes as usize, root)
        })
    }

    /// `Comm::reduce_async`'s dispatch. `elem_size` is the datatype width its
    /// divisibility check uses (8 for the `f64` vectors the IMB benchmarks reduce).
    pub fn auto(n: usize, root: usize, bytes: u64, elem_size: u64) -> Box<dyn Rounds> {
        if picks_rabenseifner(n, bytes as usize, (bytes / elem_size) as usize) {
            Box::new(rabenseifner(n, root, bytes))
        } else {
            Box::new(binomial(n, root, bytes))
        }
    }
}

/// Schedules of `crate::coll::reduce_scatter`.
pub mod reduce_scatter {
    use super::*;
    use crate::coll::{allgatherv::displs, reduce_scatter::*};

    /// Pairwise exchange to slices of `counts` bytes.
    pub fn pairwise(counts: &[u64]) -> impl Rounds {
        let displs: Arc<[usize]> = displs(counts.iter().map(|&c| c as usize)).into();
        build(counts.len(), 0, move |me| {
            pairwise_steps(me, Arc::clone(&displs))
        })
    }
}

#[cfg(test)]
mod tests {
    use simnet::{Schedule, Transfer};

    use super::*;
    use crate::block_on;
    use crate::coll;
    use crate::reduce::Op;
    use crate::runtime::{run_traced, Engine};
    use crate::Comm;

    /// One algorithm: the real collective on `len` words (per block, or in
    /// the vector), the schedule for the same `len * 8` bytes, and the
    /// algorithm's own geometry (none for an `auto` dispatch).
    struct Case {
        name: &'static str,
        rooted: bool,
        /// Whether the algorithm accepts `n` ranks and `len` words.
        fits: fn(usize, usize) -> bool,
        run: fn(&Comm, usize, usize),
        schedule: fn(usize, usize, u64) -> Schedule,
        steps: Option<Steps>,
    }

    /// Rank `me`'s `*_steps` in a world.
    type Steps = for<'a> fn(&'a World, usize) -> Box<dyn Iterator<Item = coll::Step> + 'a>;

    /// The world a geometry is read in: `n` ranks, a root, `len` elements
    /// (per block, in the vector, or a ragged block of allgatherv and
    /// reduce_scatter, whose offsets `displs` holds).
    struct World {
        n: usize,
        root: usize,
        len: usize,
        displs: Vec<usize>,
    }

    const SIZES: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16];
    /// Odd and short, divisible by every power of two in `SIZES`, and past
    /// `LONG_MSG_THRESHOLD` (so each `auto` takes both its branches).
    const LENS: [usize; 3] = [17, 240, 8192];

    /// Per-rank counts with empty, short and long blocks.
    fn ragged(n: usize, len: usize) -> Vec<usize> {
        (0..n).map(|i| (i + n) % 3 * len).collect()
    }
    fn ragged_bytes(n: usize, bytes: u64) -> Vec<u64> {
        ragged(n, 1)
            .iter()
            .map(|&blocks| blocks as u64 * bytes)
            .collect()
    }

    /// `algo`: the algorithm's flag, or `None` for `Comm`'s dispatch.
    fn allgather(algo: Option<bool>, c: &Comm, len: usize) {
        let (send, mut recv) = (vec![c.rank() as u64; len], vec![0; len * c.size()]);
        match algo {
            Some(doubling) => block_on(coll::allgather::allgather(c, &send, &mut recv, doubling)),
            None => block_on(c.allgather_async(&send, &mut recv)),
        }
    }
    fn alltoall(algo: Option<bool>, c: &Comm, len: usize) {
        let total = len * c.size();
        let (send, mut recv) = (vec![c.rank() as u64; total], vec![0; total]);
        match algo {
            Some(bruck) => block_on(coll::alltoall::alltoall(c, &send, &mut recv, bruck)),
            None => block_on(c.alltoall_async(&send, &mut recv)),
        }
    }
    fn allreduce(algo: Option<bool>, c: &Comm, len: usize) {
        let mut buf = vec![1.0f64; len];
        match algo {
            Some(long) => block_on(coll::allreduce::allreduce(c, &mut buf, Op::Sum, long)),
            None => block_on(c.allreduce_async(&mut buf, Op::Sum)),
        }
    }
    fn bcast(algo: Option<bool>, c: &Comm, root: usize, len: usize) {
        let mut buf = vec![1.0f64; len];
        match algo {
            Some(long) => block_on(coll::bcast::bcast(c, &mut buf, root, long)),
            None => block_on(c.bcast_async(&mut buf, root)),
        }
    }
    fn reduce(algo: Option<bool>, c: &Comm, root: usize, len: usize) {
        let (send, mut recv) = (
            vec![1.0; len],
            (c.rank() == root).then(|| vec![0.0f64; len]),
        );
        match algo {
            Some(long) => {
                let recv = recv.as_deref_mut();
                block_on(coll::reduce::reduce(c, &send, recv, root, Op::Sum, long));
            }
            None => block_on(c.reduce_async(&send, recv.as_deref_mut(), root, Op::Sum)),
        }
    }

    #[rustfmt::skip]
    const CASES: &[Case] = &[
        Case { name: "allgather::ring", rooted: false, fits: |_, _| true,
            run: |c, _, len| allgather(Some(false), c, len),
            schedule: |n, _, b| Schedule::collect(allgather::ring(n, b)),
            steps: Some(|w, me| Box::new(coll::allgather::ring_steps(me, w.n, w.len))) },
        Case { name: "allgather::recursive_doubling", rooted: false, fits: |n, _| n.is_power_of_two(),
            run: |c, _, len| allgather(Some(true), c, len),
            schedule: |n, _, b| Schedule::collect(allgather::recursive_doubling(n, b)),
            steps: Some(|w, me| Box::new(coll::allgather::recursive_doubling_steps(me, w.n, w.len))) },
        Case { name: "allgather::auto", rooted: false, fits: |_, _| true,
            run: |c, _, len| allgather(None, c, len),
            schedule: |n, _, b| Schedule::collect(allgather::auto(n, b)), steps: None },
        Case { name: "allgatherv::ring", rooted: false, fits: |_, _| true,
            run: |c, _, len| {
                let counts = ragged(c.size(), len);
                let mut recv = vec![0u64; counts.iter().sum()];
                block_on(c.allgatherv_async(&vec![1; counts[c.rank()]], &mut recv, &counts));
            },
            schedule: |n, _, b| Schedule::collect(allgatherv::auto(&ragged_bytes(n, b))),
            steps: Some(|w, me| Box::new(coll::allgatherv::ring_steps(me, &w.displs))) },
        Case { name: "allreduce::recursive_doubling", rooted: false, fits: |_, _| true,
            run: |c, _, len| allreduce(Some(false), c, len),
            schedule: |n, _, b| Schedule::collect(allreduce::recursive_doubling(n, b)),
            steps: Some(|w, me| Box::new(coll::allreduce::recursive_doubling_steps(me, w.n, w.len))) },
        Case { name: "allreduce::rabenseifner", rooted: false,
            fits: |n, len| len.is_multiple_of(1 << n.ilog2()),
            run: |c, _, len| allreduce(Some(true), c, len),
            schedule: |n, _, b| Schedule::collect(allreduce::rabenseifner(n, b)),
            steps: Some(|w, me| Box::new(coll::allreduce::rabenseifner_steps(me, w.n, w.len))) },
        Case { name: "allreduce::auto", rooted: false, fits: |_, _| true,
            run: |c, _, len| allreduce(None, c, len),
            schedule: |n, _, b| Schedule::collect(allreduce::auto(n, b, 8)), steps: None },
        Case { name: "alltoall::pairwise", rooted: false, fits: |_, _| true,
            run: |c, _, len| alltoall(Some(false), c, len),
            schedule: |n, _, b| Schedule::collect(alltoall::pairwise(n, b)),
            steps: Some(|w, me| Box::new(coll::alltoall::pairwise_steps(me, w.n, w.len))) },
        Case { name: "alltoall::bruck", rooted: false, fits: |_, _| true,
            run: |c, _, len| alltoall(Some(true), c, len),
            schedule: |n, _, b| Schedule::collect(alltoall::bruck(n, b)),
            steps: Some(|w, me| Box::new(coll::alltoall::bruck_steps(me, w.n, w.len))) },
        Case { name: "alltoall::auto", rooted: false, fits: |_, _| true,
            run: |c, _, len| alltoall(None, c, len),
            schedule: |n, _, b| Schedule::collect(alltoall::auto(n, b)), steps: None },
        Case { name: "barrier::dissemination", rooted: false, fits: |_, _| true,
            run: |c, _, _| block_on(c.barrier_async()),
            schedule: |n, _, _| Schedule::collect(barrier::auto(n)),
            steps: Some(|w, me| Box::new(coll::barrier::dissemination_steps(me, w.n))) },
        Case { name: "bcast::binomial", rooted: true, fits: |_, _| true,
            run: |c, root, len| bcast(Some(false), c, root, len),
            schedule: |n, root, b| Schedule::collect(bcast::binomial(n, root, b)),
            steps: Some(|w, me| Box::new(coll::bcast::binomial_steps(me, w.n, w.len, w.root))) },
        Case { name: "bcast::scatter_allgather", rooted: true, fits: |_, _| true,
            run: |c, root, len| bcast(Some(true), c, root, len),
            schedule: |n, root, b| Schedule::collect(bcast::scatter_allgather(n, root, b)),
            steps: Some(|w, me| Box::new(coll::bcast::scatter_allgather_steps(me, w.n, w.len, w.root))) },
        Case { name: "bcast::auto", rooted: true, fits: |_, _| true,
            run: |c, root, len| bcast(None, c, root, len),
            schedule: |n, root, b| Schedule::collect(bcast::auto(n, root, b)), steps: None },
        Case { name: "reduce::binomial", rooted: true, fits: |_, _| true,
            run: |c, root, len| reduce(Some(false), c, root, len),
            schedule: |n, root, b| Schedule::collect(reduce::binomial(n, root, b)),
            steps: Some(|w, me| Box::new(coll::reduce::binomial_steps(me, w.n, w.len, w.root))) },
        Case { name: "reduce::rabenseifner", rooted: true, fits: |n, len| n.is_power_of_two() && len.is_multiple_of(n),
            run: |c, root, len| reduce(Some(true), c, root, len),
            schedule: |n, root, b| Schedule::collect(reduce::rabenseifner(n, root, b)),
            steps: Some(|w, me| Box::new(coll::reduce::rabenseifner_steps(me, w.n, w.len, w.root))) },
        Case { name: "reduce::auto", rooted: true, fits: |_, _| true,
            run: |c, root, len| reduce(None, c, root, len),
            schedule: |n, root, b| Schedule::collect(reduce::auto(n, root, b, 8)), steps: None },
        Case { name: "reduce_scatter::pairwise", rooted: false, fits: |_, _| true,
            run: |c, _, len| {
                let counts = ragged(c.size(), len);
                let send = vec![1.0f64; counts.iter().sum()];
                let mut recv = vec![0.0; counts[c.rank()]];
                block_on(c.reduce_scatter_async(&send, &mut recv, &counts, Op::Sum));
            },
            schedule: |n, _, b| Schedule::collect(reduce_scatter::pairwise(&ragged_bytes(n, b))),
            steps: Some(|w, me| Box::new(coll::reduce_scatter::pairwise_steps(me, &w.displs))) },
    ];

    /// A traced real execution of every algorithm moves exactly the
    /// messages of its schedule, and every rank sends them in the order
    /// the schedule lists them — the order of its `*_steps`, since
    /// [`build`] produces a rank's sends as they come and asserts its steps
    /// come round by round.
    #[test]
    fn schedules_match_real_execution() {
        for case in CASES {
            for n in SIZES {
                let mut roots = vec![0, n / 3, n / 2, n - 1];
                roots.dedup();
                roots.truncate(if case.rooted { 4 } else { 1 });
                for (root, len) in roots.iter().flat_map(|&r| LENS.map(|len| (r, len))) {
                    if !(case.fits)(n, len) {
                        continue;
                    }
                    let what = format!("{} n={n} root={root} len={len}", case.name);
                    let run = case.run;
                    let body = |comm: Comm| async move { run(&comm, root, len) };
                    let (_, trace) = run_traced(n, Engine::Threads, body);
                    let schedule = (case.schedule)(n, root, (len * 8) as u64);
                    schedule.validate().expect(&what);

                    let mut sorted = trace.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, schedule.transfer_multiset(), "{what}: messages");
                    let listed = schedule.rounds.iter().flat_map(|r| &r.transfers);
                    for rank in 0..n {
                        let sent = |t: &&Transfer| t.src == rank;
                        assert!(
                            trace.iter().filter(sent).eq(listed.clone().filter(sent)),
                            "{what}: rank {rank}'s send order"
                        );
                    }
                }
            }
        }
    }

    /// One end of a message at its receiver, as a word: the source, the
    /// length, and a send (`0b11`) or a receive (`0b10`), so the two ends
    /// of one message differ in bit 0 and neither is 0.
    fn end(src: usize, len: usize, sends: bool) -> u64 {
        assert!(src < 1 << 24 && len < 1 << 38, "{src}, {len}");
        (src as u64) << 40 | (len as u64) << 2 | 2 | u64::from(sends)
    }

    /// Reads every geometry at `n` ranks, executing nothing: every rank's
    /// step iterator ends (within `4n + 64` steps, more than any algorithm
    /// here takes), and in every round each send `r -> d` of length `L`
    /// meets exactly one receive at `d` from `r` of length `L`, and every
    /// receive one such send — nothing arrives unsent. A rank need not list
    /// its steps in round order (a binomial reduce folds its children in
    /// broadcast order), so the rounds are read in windows of `HELD / n`,
    /// each window a pass over every rank's steps; up to a thousand ranks
    /// one window holds them all.
    fn check_geometries_at(n: usize) {
        const HELD: usize = 1 << 22;
        let (cap, window) = (4 * n + 64, (HELD / n).max(1));
        for (g, steps) in CASES.iter().filter_map(|g| Some((g, g.steps?))) {
            let mut roots = vec![0, n / 3, n - 1];
            roots.dedup();
            roots.truncate(if g.rooted { 3 } else { 1 });
            // Divisible by every power of two up to n; and up to 64 ranks
            // also odd and short, which leaves some ranks' blocks empty.
            let whole = 3 * n.next_power_of_two();
            let lens = if n <= 64 {
                vec![17, whole]
            } else {
                vec![whole]
            };
            for len in lens.into_iter().filter(|&len| (g.fits)(n, len)) {
                for &root in &roots {
                    let what = format!("{} n={n} root={root} len={len}", g.name);
                    let displs = coll::allgatherv::displs(ragged(n, len));
                    let world = World {
                        n,
                        root,
                        len,
                        displs,
                    };
                    let (mut lo, mut rounds) = (0, 1);
                    while lo < rounds {
                        // Per (round, receiving rank) of the window, the
                        // `end` seen on one side only (0: none); a second
                        // one waits in `spill`.
                        let (mut open, mut spill) = (Vec::<u64>::new(), Vec::new());
                        for me in 0..n {
                            for (taken, step) in steps(&world, me).enumerate() {
                                assert!(taken < cap, "{what}: rank {me}'s steps do not end");
                                rounds = rounds.max(step.round + 1);
                                if step.round < lo || step.round >= lo + window {
                                    continue;
                                }
                                for (side, sends) in [(step.send, true), (step.recv, false)] {
                                    let Some((peer, range)) = side else { continue };
                                    let (src, dst) = if sends { (me, peer) } else { (peer, me) };
                                    let at = (step.round - lo) * n + dst;
                                    if open.len() <= at {
                                        open.resize((step.round - lo + 1) * n, 0);
                                    }
                                    let this = end(src, range.end - range.start, sends);
                                    if open[at] == this ^ 1 {
                                        open[at] = 0;
                                    } else if let Some(i) =
                                        spill.iter().position(|&m| m == (at, this ^ 1))
                                    {
                                        spill.swap_remove(i);
                                    } else if open[at] == 0 {
                                        open[at] = this;
                                    } else {
                                        spill.push((at, this));
                                    }
                                }
                            }
                        }
                        let mut left = open.into_iter().enumerate().chain(spill);
                        if let Some((at, m)) = left.find(|&(_, m)| m != 0) {
                            let (round, dst, src, len) =
                                (lo + at / n, at % n, m >> 40, (m >> 2) & ((1 << 38) - 1));
                            let side = if m & 1 == 1 { "no receive" } else { "no send" };
                            panic!("{what}: round {round}: {src} -> {dst} of {len} has {side}");
                        }
                        lo += window;
                    }
                }
            }
        }
    }

    /// The static geometry check over every rank count to 64 and the
    /// paper's odd installation sizes (440, 506, 576 CPUs).
    #[test]
    fn every_send_has_its_receive_at_every_rank_count() {
        for n in (1..=64).chain([440, 506, 576]) {
            check_geometries_at(n);
        }
    }

    /// The same check at release scale: the paper's 2 024 CPUs and every
    /// power of two to 4 096.
    #[test]
    #[ignore = "release-scale: up to 4096 ranks; run with --ignored --release"]
    fn every_send_has_its_receive_at_release_scale() {
        for n in std::iter::once(2024).chain((0..=12).map(|k| 1 << k)) {
            check_geometries_at(n);
        }
    }

    #[test]
    fn allgather_algorithms_move_the_same_volume() {
        // (n-1) blocks arrive at every rank regardless of algorithm.
        let (n, b) = (16, 100);
        let ring = Schedule::collect(allgather::ring(n, b));
        assert_eq!(
            ring.total_bytes(),
            Schedule::collect(allgather::recursive_doubling(n, b)).total_bytes()
        );
        assert_eq!(ring.total_bytes(), (n * (n - 1)) as u64 * b);
        assert_eq!(
            ring,
            Schedule::collect(allgatherv::ring(&[b; 16])),
            "equal counts are an allgather"
        );
    }

    #[test]
    fn rabenseifner_bandwidth_advantage() {
        let (n, bytes) = (16, 1 << 20);
        // Allreduce by recursive doubling: log2(n) * bytes per rank;
        // Rabenseifner: ~2 * bytes * (n-1)/n per rank.
        let rd = Schedule::collect(allreduce::recursive_doubling(n, bytes));
        let rab = Schedule::collect(allreduce::rabenseifner(n, bytes));
        assert!(rab.total_bytes() * 2 < rd.total_bytes());
        // Reduce: the win is the per-rank critical path (~2*bytes vs
        // log2(n)*bytes for the binomial tree), not total volume.
        let critical_path_bytes = |s: &Schedule| -> u64 {
            s.rounds
                .iter()
                .map(|r| r.transfers.iter().map(|t| t.bytes).max().unwrap_or(0))
                .sum()
        };
        let bin = critical_path_bytes(&Schedule::collect(reduce::binomial(n, 0, bytes)));
        let rab = critical_path_bytes(&Schedule::collect(reduce::rabenseifner(n, 0, bytes)));
        assert!(
            rab < bin / 2,
            "rabenseifner {rab} should beat binomial {bin}"
        );
    }

    #[test]
    fn alltoall_shapes() {
        let p = Schedule::collect(alltoall::pairwise(16, 10));
        assert_eq!(p.total_messages(), 16 * 15, "every block moves once");
        assert_eq!(p.total_bytes(), 16 * 15 * 10);
        let b = Schedule::collect(alltoall::bruck(16, 10));
        assert!(b.total_messages() < p.total_messages());
        assert!(b.total_bytes() > p.total_bytes());
        assert_eq!(b.num_rounds(), 4);
    }

    #[test]
    fn round_counts() {
        let rounds = |n| Schedule::collect(barrier::dissemination(n)).num_rounds();
        assert_eq!([rounds(1), rounds(8), rounds(9)], [0, 3, 4]);
    }

    #[test]
    fn tree_volumes() {
        let s = Schedule::collect(bcast::binomial(8, 0, 100));
        assert_eq!((s.total_messages(), s.total_bytes()), (7, 700));
        // Scatter moves (n-1)/n of the payload in total, the ring (n-1)
        // blocks per rank: roughly n payloads altogether.
        let payloads =
            Schedule::collect(bcast::scatter_allgather(8, 0, 8000)).total_bytes() as f64 / 8000.0;
        assert!(payloads > 7.0 && payloads < 9.0, "{payloads}");
    }

    #[test]
    fn halving_moves_what_pairwise_moves() {
        let (n, slice) = (8, 1024u64);
        let p = Schedule::collect(reduce_scatter::pairwise(&vec![slice; n]));
        // Each rank sends (n-1) slices in a pairwise reduce-scatter, and
        // as many in each half of Rabenseifner's allreduce (recursive
        // halving, then recursive doubling), in log2(n) rounds each.
        assert_eq!(p.total_bytes(), (n * (n - 1)) as u64 * slice);
        let r = Schedule::collect(allreduce::rabenseifner(n, slice * n as u64));
        assert_eq!(r.total_bytes(), 2 * p.total_bytes());
        assert_eq!((p.num_rounds(), r.num_rounds()), (n - 1, 6));
    }
}

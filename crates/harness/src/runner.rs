//! The mode-agnostic runner: warm-up, repetition policy and IMB-style
//! statistics live here, so no benchmark crate hand-rolls timing loops
//! or iteration tables.

use mp::{Comm, Op};

use crate::record::Stats;

/// How many timed repetitions a measurement runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepetitionPolicy {
    /// IMB 2.3's rule: 1000 iterations, scaled down for large messages.
    Imb,
    /// The IMB rule divided by 50 (floor 3): the fast CI mode the
    /// `--smoke` flag of `campaign` maps to.
    Smoke,
    /// An explicit iteration count, regardless of message size.
    Fixed(usize),
}

impl RepetitionPolicy {
    /// Timed repetitions for a message of `bytes`.
    pub fn repetitions(&self, bytes: u64) -> usize {
        let full = match bytes {
            0..=4096 => 1000,
            4097..=65536 => 640,
            65537..=1048576 => 80,
            _ => 20,
        };
        match self {
            RepetitionPolicy::Imb => full,
            RepetitionPolicy::Smoke => (full / 50).max(3),
            RepetitionPolicy::Fixed(n) => *n,
        }
    }
}

/// Owns warm-up and repetition policy for every execution path. One
/// `Runner` drives native HPCC components, native IMB loops and virtual
/// runs alike; every one of them runs [`Runner::WARMUP`] untimed passes.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    /// Repetition policy for the timed loop.
    pub policy: RepetitionPolicy,
}

impl Runner {
    /// Untimed warm-up iterations before every timed loop.
    pub const WARMUP: usize = 1;

    /// Full-fidelity runner: the IMB repetition rule.
    pub fn standard() -> Runner {
        Runner {
            policy: RepetitionPolicy::Imb,
        }
    }

    /// Fast-CI runner: the smoke repetition rule.
    pub fn smoke() -> Runner {
        Runner {
            policy: RepetitionPolicy::Smoke,
        }
    }

    /// A runner with an explicit iteration count.
    pub fn fixed(iters: usize) -> Runner {
        Runner {
            policy: RepetitionPolicy::Fixed(iters),
        }
    }

    /// Timed repetitions for a message of `bytes` (unsized workloads
    /// pass `None`, which follows the small-message rule).
    pub fn repetitions(&self, bytes: Option<u64>) -> usize {
        self.policy.repetitions(bytes.unwrap_or(0)).max(1)
    }

    /// The collective timed loop, IMB convention: [`Runner::WARMUP`]
    /// untimed passes, a barrier, then `iters` timed passes. Returns this
    /// rank's per-call time in microseconds.
    pub fn time_collective(&self, comm: &Comm, iters: usize, mut body: impl FnMut(usize)) -> f64 {
        assert!(iters > 0, "need at least one iteration");
        for w in 0..Self::WARMUP {
            body(w);
        }
        mp::block_on(comm.barrier_async());
        let clock = crate::timer::Stopwatch::start();
        for it in 0..iters {
            body(it);
        }
        clock.elapsed_secs() / iters as f64 * 1e6
    }

    /// IMB cross-rank statistics: min/avg/max over the participating
    /// ranks' per-call averages. Collective; every rank returns the same
    /// stats.
    pub async fn rank_stats_async(
        comm: &Comm,
        per_call_us: f64,
        participated: bool,
        iters: usize,
    ) -> Stats {
        let mut maxv = [if participated { per_call_us } else { 0.0 }];
        let mut minv = [if participated {
            per_call_us
        } else {
            f64::INFINITY
        }];
        let mut sums = [
            if participated { per_call_us } else { 0.0 },
            if participated { 1.0 } else { 0.0 },
        ];
        comm.allreduce_async(&mut maxv, Op::Max).await;
        comm.allreduce_async(&mut minv, Op::Min).await;
        comm.allreduce_async(&mut sums, Op::Sum).await;
        Stats {
            repetitions: iters,
            t_min_us: minv[0],
            t_avg_us: sums[0] / sums[1].max(1.0),
            t_max_us: maxv[0],
        }
    }

    /// Best-of-`reps` wall time of one invocation of `f`, in seconds
    /// (floored at 1 ns so rates stay finite).
    pub fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best.max(1e-9)
    }

    /// Times one awaited collective region, returning its result together
    /// with IMB-style cross-rank wall-time statistics (repetitions = 1, no
    /// warm-up — suited to one-shot components whose re-execution would be
    /// prohibitively expensive).
    pub async fn timed_stats_async<T, Fut>(comm: &Comm, f: impl FnOnce() -> Fut) -> (T, Stats)
    where
        Fut: std::future::Future<Output = T>,
    {
        let clock = crate::timer::Stopwatch::start();
        let out = f().await;
        let elapsed_us = clock.elapsed_secs() * 1e6;
        (
            out,
            Runner::rank_stats_async(comm, elapsed_us, true, 1).await,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imb_repetition_rule() {
        assert_eq!(RepetitionPolicy::Imb.repetitions(1024), 1000);
        assert_eq!(RepetitionPolicy::Imb.repetitions(65536), 640);
        assert_eq!(RepetitionPolicy::Imb.repetitions(1 << 20), 80);
        assert_eq!(RepetitionPolicy::Imb.repetitions(4 << 20), 20);
    }

    #[test]
    fn smoke_scales_down_with_floor() {
        assert_eq!(RepetitionPolicy::Smoke.repetitions(1024), 20);
        assert_eq!(RepetitionPolicy::Smoke.repetitions(4 << 20), 3);
    }

    #[test]
    fn fixed_ignores_bytes() {
        assert_eq!(RepetitionPolicy::Fixed(7).repetitions(0), 7);
        assert_eq!(RepetitionPolicy::Fixed(7).repetitions(4 << 20), 7);
    }

    #[test]
    fn timed_loop_runs_warmup_and_iters() {
        let counts = mp::run(2, |comm| {
            let runner = Runner::fixed(4);
            let mut calls = 0usize;
            let per_call = runner.time_collective(comm, 4, |_| calls += 1);
            assert!(per_call >= 0.0);
            calls
        });
        // 1 warm-up + 4 timed.
        assert_eq!(counts, vec![5, 5]);
    }

    #[test]
    fn rank_stats_cover_all_ranks() {
        let stats = mp::run(4, |comm| {
            let per_call = (comm.rank() + 1) as f64;
            mp::block_on(Runner::rank_stats_async(comm, per_call, true, 10))
        });
        for s in stats {
            assert_eq!(s.t_min_us, 1.0);
            assert_eq!(s.t_max_us, 4.0);
            assert!((s.t_avg_us - 2.5).abs() < 1e-12);
            assert_eq!(s.repetitions, 10);
            assert!(s.is_ordered());
        }
    }

    #[test]
    fn rank_stats_ignore_non_participants() {
        let stats = mp::run(4, |comm| {
            let participated = comm.rank() < 2;
            mp::block_on(Runner::rank_stats_async(comm, 3.0, participated, 1))
        });
        for s in stats {
            assert_eq!(s.t_min_us, 3.0, "idle ranks must not drag the min to 0");
            assert_eq!(s.t_max_us, 3.0);
        }
    }
}

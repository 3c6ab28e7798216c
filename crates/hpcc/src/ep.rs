//! The embarrassingly parallel HPCC benchmarks: EP-STREAM and EP-DGEMM.
//!
//! "All the computational nodes execute the benchmark simultaneously, and
//! the arithmetic average is reported."
//!
//! Both bodies await their start barrier before they allocate. They then
//! build, run and verify one rank's arrays in a synchronous block that
//! drops them before the closing reductions, so no await holds a rank's
//! working set. A cooperative world runs its ranks one after another on
//! one thread, so it holds one rank's arrays at a time, not every rank's.
//! Natively each rank starts its kernels after its own initialisation,
//! not after a barrier that follows every rank's: a rank's first
//! repetition may overlap another rank's initialisation. The kernels are
//! timed best-of, so that overlap shows only if it spans every repetition.

use mp::Comm;

use crate::kernels::dgemm::{dgemm, dgemm_flops};
use crate::kernels::stream::{StreamArrays, StreamKernel};

/// EP-STREAM configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StreamConfig {
    /// Vector length per rank (STREAM requires arrays well beyond cache).
    pub len: usize,
    /// Timed repetitions (best-of, per STREAM convention).
    pub iters: usize,
}

/// Per-kernel EP-STREAM outcome (GB/s averaged over ranks, as the suite
/// reports).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StreamResult {
    /// Bandwidth of each kernel of [`StreamKernel::ALL`], in that order
    /// (copy, scale, add, triad): GB/s per rank, arithmetic mean.
    pub gbs: [f64; 4],
    /// Whether the built-in solution check passed on every rank.
    pub passed: bool,
}

/// Runs EP-STREAM: every rank simultaneously, mean bandwidths reported.
/// The arrays live between the start barrier and the closing reductions.
pub(crate) async fn stream_async(comm: &Comm, cfg: &StreamConfig) -> StreamResult {
    comm.barrier_async().await;
    let (best, ok) = {
        let mut arrays = StreamArrays::new(cfg.len);
        let mut best = [f64::INFINITY; 4]; // seconds per kernel
        for _ in 0..cfg.iters {
            for (k, kernel) in StreamKernel::ALL.into_iter().enumerate() {
                let t = harness::Stopwatch::start();
                arrays.run(kernel);
                best[k] = best[k].min(t.elapsed_secs().max(1e-9));
            }
        }
        (best, arrays.verify(cfg.iters).is_ok())
    };

    // Mean over ranks of each kernel's bandwidth + min of the check flag.
    let mut sums: Vec<f64> = StreamKernel::ALL
        .iter()
        .enumerate()
        .map(|(k, kernel)| cfg.len as f64 * kernel.bytes_per_element() as f64 / best[k] / 1e9)
        .collect();
    sums.push(if ok { 1.0 } else { 0.0 });
    comm.allreduce_async(&mut sums[..4], mp::Op::Sum).await;
    comm.allreduce_async(&mut sums[4..], mp::Op::Min).await;
    let p = comm.size() as f64;
    StreamResult {
        gbs: [sums[0] / p, sums[1] / p, sums[2] / p, sums[3] / p],
        passed: sums[4] > 0.5,
    }
}

/// EP-DGEMM configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DgemmConfig {
    /// Matrix order per rank.
    pub n: usize,
    /// Timed repetitions (best-of).
    pub iters: usize,
}

/// EP-DGEMM outcome.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DgemmResult {
    /// Gflop/s per rank (arithmetic mean over ranks).
    pub gflops: f64,
    /// Result checksum sanity flag.
    pub passed: bool,
}

/// Runs EP-DGEMM: every rank multiplies its own `n x n` matrices.
/// The matrices live between the start barrier and the closing reductions.
pub(crate) async fn ep_dgemm_async(comm: &Comm, cfg: &DgemmConfig) -> DgemmResult {
    comm.barrier_async().await;
    let (best, ok) = {
        let n = cfg.n;
        let a: Vec<f64> = (0..n * n)
            .map(|k| crate::hpl::matrix_element(k / n, k % n))
            .collect();
        let b: Vec<f64> = (0..n * n)
            .map(|k| crate::hpl::matrix_element(k % n, k / n))
            .collect();
        let mut c = vec![0.0f64; n * n];
        let mut best = f64::INFINITY;
        for _ in 0..cfg.iters {
            c.fill(0.0);
            let t = harness::Stopwatch::start();
            dgemm(n, &a, &b, &mut c);
            best = best.min(t.elapsed_secs().max(1e-9));
        }

        // Spot-check a few entries against the naive dot product.
        let mut ok = true;
        for &(i, j) in &[(0usize, 0usize), (n / 2, n / 3), (n - 1, n - 1)] {
            let expect: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
            if (c[i * n + j] - expect).abs() > 1e-9 * expect.abs().max(1.0) {
                ok = false;
            }
        }
        (best, ok)
    };

    let mut vals = [dgemm_flops(cfg.n) / best / 1e9, if ok { 1.0 } else { 0.0 }];
    comm.allreduce_async(&mut vals[..1], mp::Op::Sum).await;
    comm.allreduce_async(&mut vals[1..], mp::Op::Min).await;
    DgemmResult {
        gflops: vals[0] / comm.size() as f64,
        passed: vals[1] > 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_reports_positive_bandwidths() {
        let cfg = StreamConfig {
            len: 100_000,
            iters: 2,
        };
        let results = mp::run(2, |comm| mp::block_on(stream_async(comm, &cfg)));
        for r in &results {
            assert!(r.passed);
            for v in r.gbs {
                assert!(v > 0.0 && v.is_finite());
            }
            // All ranks agree (the result is a collective mean).
            assert_eq!(r.gbs, results[0].gbs);
        }
    }

    #[test]
    fn dgemm_reports_positive_gflops() {
        let cfg = DgemmConfig { n: 96, iters: 1 };
        let results = mp::run(3, |comm| mp::block_on(ep_dgemm_async(comm, &cfg)));
        for r in &results {
            assert!(r.passed);
            assert!(r.gflops > 0.0);
            assert_eq!(r.gflops, results[0].gflops);
        }
    }
}

//! The embarrassingly parallel HPCC benchmarks: EP-STREAM and EP-DGEMM.
//!
//! "All the computational nodes execute the benchmark simultaneously, and
//! the arithmetic average is reported."

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

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            len: 4_000_000,
            iters: 5,
        }
    }
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
pub(crate) async fn stream_async(comm: &Comm, cfg: &StreamConfig) -> StreamResult {
    let mut arrays = StreamArrays::new(cfg.len);
    let mut best = [f64::INFINITY; 4]; // seconds per kernel
    comm.barrier_async().await;
    for _ in 0..cfg.iters {
        for (k, kernel) in StreamKernel::ALL.into_iter().enumerate() {
            let t = harness::Stopwatch::start();
            arrays.run(kernel);
            best[k] = best[k].min(t.elapsed_secs().max(1e-9));
        }
    }
    let ok = arrays.verify(cfg.iters).is_ok();

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

impl Default for DgemmConfig {
    fn default() -> DgemmConfig {
        DgemmConfig { n: 512, iters: 3 }
    }
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
pub(crate) async fn ep_dgemm_async(comm: &Comm, cfg: &DgemmConfig) -> DgemmResult {
    let n = cfg.n;
    let a: Vec<f64> = (0..n * n)
        .map(|k| crate::hpl::matrix_element(k / n, k % n))
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|k| crate::hpl::matrix_element(k % n, k / n))
        .collect();
    let mut c = vec![0.0f64; n * n];

    comm.barrier_async().await;
    let mut best = f64::INFINITY;
    for _ in 0..cfg.iters {
        for v in c.iter_mut() {
            *v = 0.0;
        }
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

    let mut vals = [dgemm_flops(n) / best / 1e9, if ok { 1.0 } else { 0.0 }];
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

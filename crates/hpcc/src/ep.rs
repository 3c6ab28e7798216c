//! The embarrassingly parallel HPCC benchmarks: EP-STREAM and EP-DGEMM.
//!
//! "All the computational nodes execute the benchmark simultaneously, and
//! the arithmetic average is reported."
//!
//! Both bodies await their start barrier, then run and verify one rank's
//! arrays in a synchronous block, so no await holds a rank's working set.
//! The arrays are the thread's `Workspace`: a block takes it,
//! re-initialises it in place and puts it back, and the body drops it
//! after its closing reduction. A cooperative world runs its ranks one
//! after another on one thread, so they hand one set of arrays on from
//! rank to rank, allocated and faulted in once per component rather than
//! once per rank. A native rank has a thread of its own, so it finds no
//! workspace and allocates its own arrays. No working set
//! outlives its component: the closing allreduce completes on no rank
//! until every rank has contributed, and a rank contributes only after
//! its block, so when the first rank drops the arrays every rank is past
//! them.
//!
//! Natively each rank starts its kernels after its own initialisation,
//! not after a barrier that follows every rank's: a rank's first
//! repetition may overlap another rank's initialisation. The kernels are
//! timed best-of, so that overlap shows only if it spans every repetition.

use std::cell::Cell;
use std::mem::ManuallyDrop;

use mp::Comm;

use crate::kernels::dgemm::{dgemm, dgemm_flops};
use crate::kernels::stream::{StreamArrays, StreamKernel};

/// The EP arrays of the ranks a thread runs: whichever component built
/// them, at the size its arrays have.
enum Workspace {
    Stream(StreamArrays),
    Dgemm(DgemmOperands),
}

thread_local! {
    // `ManuallyDrop` gives the slot no destructor, so its first use on a
    // thread registers none: registering one allocates in the thread's
    // heap mid-run, and that alone moved glibc's arena retention under
    // native EP-DGEMM (one `native_kernels` process peaked at 321 MB, not
    // 266). The cost is that a set still held when a thread ends is not
    // freed; the bodies release theirs at every closing reduction.
    static WORKSPACE: Cell<ManuallyDrop<Option<Workspace>>> =
        const { Cell::new(ManuallyDrop::new(None)) };
}

/// Takes the thread's working set, leaving it none.
fn take() -> Option<Workspace> {
    ManuallyDrop::into_inner(WORKSPACE.replace(ManuallyDrop::new(None)))
}

/// Makes `ws` the thread's working set, dropping any it held.
fn put(ws: Option<Workspace>) {
    drop(ManuallyDrop::into_inner(
        WORKSPACE.replace(ManuallyDrop::new(ws)),
    ));
}

#[cfg(test)]
thread_local! {
    static BUILDS: Cell<usize> = const { Cell::new(0) };
    static SEQUENCES: Cell<usize> = const { Cell::new(0) };
}

/// Builds a working set the thread did not have (counted in tests).
fn build<T>(new: impl FnOnce() -> T) -> T {
    #[cfg(test)]
    BUILDS.set(BUILDS.get() + 1);
    new()
}

/// EP-STREAM configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StreamConfig {
    /// Vector length per rank (STREAM requires arrays well beyond cache).
    pub len: usize,
    /// Timed repetitions (best-of, per STREAM convention). Virtual runs
    /// do one: their records are virtual time, so the host times are
    /// discarded and one sequence is all the check needs.
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
pub(crate) async fn stream_async(comm: &Comm, cfg: &StreamConfig) -> StreamResult {
    comm.barrier_async().await;
    let (best, ok) = {
        let mut arrays = match take() {
            Some(Workspace::Stream(mut arrays)) if arrays.a.len() == cfg.len => {
                arrays.reset();
                arrays
            }
            _ => build(|| StreamArrays::new(cfg.len)),
        };
        let mut best = [f64::INFINITY; 4]; // seconds per kernel
        for _ in 0..cfg.iters {
            #[cfg(test)]
            SEQUENCES.set(SEQUENCES.get() + 1);
            for (k, kernel) in StreamKernel::ALL.into_iter().enumerate() {
                let t = harness::Stopwatch::start();
                arrays.run(kernel);
                best[k] = best[k].min(t.elapsed_secs().max(1e-9));
            }
        }
        let ok = arrays.verify(cfg.iters).is_ok();
        put(Some(Workspace::Stream(arrays)));
        (best, ok)
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
    // Every rank has contributed, so every rank is past its block.
    put(None);
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

/// EP-DGEMM's `n x n` operands and product.
struct DgemmOperands {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl DgemmOperands {
    /// The deterministic operands of order `n` and a zero product.
    fn new(n: usize) -> DgemmOperands {
        DgemmOperands {
            a: (0..n * n)
                .map(|k| crate::hpl::matrix_element(k / n, k % n))
                .collect(),
            b: (0..n * n)
                .map(|k| crate::hpl::matrix_element(k % n, k / n))
                .collect(),
            c: vec![0.0; n * n],
        }
    }
}

/// Runs EP-DGEMM: every rank multiplies its own `n x n` matrices.
pub(crate) async fn ep_dgemm_async(comm: &Comm, cfg: &DgemmConfig) -> DgemmResult {
    comm.barrier_async().await;
    let (best, ok) = {
        let n = cfg.n;
        // `dgemm` only reads `a` and `b`, so a working set of this order
        // still holds them; `c` is zeroed before every repetition.
        let DgemmOperands { a, b, mut c } = match take() {
            Some(Workspace::Dgemm(ops)) if ops.a.len() == n * n => ops,
            _ => build(|| DgemmOperands::new(n)),
        };
        let mut best = f64::INFINITY;
        for _ in 0..cfg.iters {
            c.fill(0.0);
            let t = harness::Stopwatch::start();
            dgemm(n, &a, &b, &mut c);
            best = best.min(t.elapsed_secs().max(1e-9));
        }
        let ok = spot_check(n, &a, &b, &c);
        put(Some(Workspace::Dgemm(DgemmOperands { a, b, c })));
        (best, ok)
    };

    let mut vals = [dgemm_flops(cfg.n) / best / 1e9, if ok { 1.0 } else { 0.0 }];
    comm.allreduce_async(&mut vals[..1], mp::Op::Sum).await;
    comm.allreduce_async(&mut vals[1..], mp::Op::Min).await;
    // Every rank has contributed, so every rank is past its block.
    put(None);
    DgemmResult {
        gflops: vals[0] / comm.size() as f64,
        passed: vals[1] > 0.5,
    }
}

/// Spot-checks a few entries of the `n x n` product `c = a b` against the
/// naive dot product. An entry passes only if its error is within
/// tolerance, so a NaN fails.
fn spot_check(n: usize, a: &[f64], b: &[f64], c: &[f64]) -> bool {
    let close = |(i, j): (usize, usize)| {
        let expect: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
        (c[i * n + j] - expect).abs() <= 1e-9 * expect.abs().max(1.0)
    };
    [(0, 0), (n / 2, n / 3), (n - 1, n - 1)]
        .into_iter()
        .all(close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Component, SuiteConfig};
    use machines::systems::dell_xeon;

    /// Whether this thread holds a working set.
    fn held() -> bool {
        let ws = take();
        let held = ws.is_some();
        put(ws);
        held
    }

    /// Runs virtual EP-STREAM and then EP-DGEMM at 16 ranks on this
    /// thread, each in a world of its own and after leaving it a working
    /// set of the sizes in `leftover`, if any. Returns how many working
    /// sets each built.
    fn virtual_ep_builds(
        stream_len: usize,
        dgemm_n: usize,
        leftover: Option<(usize, usize)>,
    ) -> [usize; 2] {
        let mut cfg = SuiteConfig::small(16);
        cfg.stream_len = stream_len;
        cfg.dgemm_n = dgemm_n;
        [Component::Stream, Component::Dgemm].map(|c| {
            if let Some((len, n)) = leftover {
                put(Some(match c {
                    Component::Stream => Workspace::Stream(StreamArrays::new(len)),
                    _ => Workspace::Dgemm(DgemmOperands::new(n)),
                }));
            }
            let before = BUILDS.get();
            let recs = crate::virtual_run::run_virtual_components(&dell_xeon(), 16, &cfg, &[c]);
            assert!(recs[0].passed, "{}", c.name());
            assert!(!held(), "{}'s working set outlived it", c.name());
            BUILDS.get() - before
        })
    }

    #[test]
    fn a_cooperative_world_builds_one_working_set_per_component() {
        // Sixteen ranks on one thread hand the arrays on: one build per
        // component, where every rank building its own would be 16.
        assert_eq!(virtual_ep_builds(200_000, 128, None), [1, 1]);
        // Other sizes back to back, over leftovers of the first sizes (a
        // world unwound in its closing reduction leaves one): replaced,
        // not reused.
        assert_eq!(virtual_ep_builds(50_000, 96, Some((200_000, 128))), [1, 1]);
    }

    #[test]
    fn a_virtual_rank_runs_one_sequence_and_a_native_rank_two() {
        let cfg = SuiteConfig::small(16);
        let before = SEQUENCES.get();
        let recs = crate::virtual_run::run_virtual_components(
            &dell_xeon(),
            16,
            &cfg,
            &[Component::Stream],
        );
        assert!(recs[0].passed);
        let sequences = SEQUENCES.get() - before;
        assert_eq!(sequences, 16, "one sequence per virtual rank");
        // Each native rank counts its sequences on a thread of its own.
        let native = mp::run(2, |comm| {
            let before = SEQUENCES.get();
            let recs = crate::suite::run_component_on(comm, Component::Stream, &cfg);
            assert!(recs[0].passed);
            SEQUENCES.get() - before
        });
        assert_eq!(native, [2, 2], "best of two per native rank");
    }

    #[test]
    fn spot_check_fails_a_nan_product_entry() {
        let n = 16;
        let DgemmOperands { a, b, mut c } = DgemmOperands::new(n);
        dgemm(n, &a, &b, &mut c);
        assert!(spot_check(n, &a, &b, &c));
        for (i, j) in [(0, 0), (n / 2, n / 3), (n - 1, n - 1)] {
            let mut bad = c.clone();
            bad[i * n + j] = f64::NAN;
            assert!(!spot_check(n, &a, &b, &bad), "NaN at ({i}, {j}) passed");
        }
    }

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

//! `hpcc` — a pure-Rust implementation of the HPC Challenge benchmark
//! suite, as evaluated in Saini et al.'s five-supercomputer study.
//!
//! "The local and global performance are characterized by the following
//! four benchmarks from HPCC suite that represent combinations of minimal
//! and maximal spatial and temporal locality: (a) HPL for high temporal
//! and spatial locality, (b) STREAM and PTRANS for low temporal and high
//! spatial locality, (c) RANDOM ACCESS for low temporal and spatial
//! locality, and (d) FFT for high temporal and low spatial locality."
//!
//! Every benchmark runs *natively* on the [`mp`] runtime (real data, real
//! wall-clock timing, built-in verification) via [`suite::run_native`],
//! and is also *modelled* against the paper's machine descriptions via
//! [`sim::summary`], which is how the figure harness reproduces the
//! paper's HPCC analysis without the original hardware.
//!
//! ```
//! let cfg = hpcc::suite::SuiteConfig::small(2);
//! let s = hpcc::suite::run_native(2, &cfg);
//! assert!(s.all_passed);
//! ```

pub(crate) mod ep;
pub mod fft_dist;
pub mod hpl;
pub mod kernels;
pub mod ptrans;
pub mod random_access;
pub mod ring;
pub mod sim;
pub mod suite;
pub mod virtual_run;

pub use suite::{Component, HpccSummary, SuiteConfig};

/// The largest `|e|` over a check's errors, +∞ if one is NaN. `f64::max`
/// drops a NaN, so a check folded with it passes a NaN result, and an
/// `Op::Max` reduction of the check's value drops it again; +∞ fails the
/// check and survives the reduction. The fold is an integer maximum of
/// bit patterns: a non-negative `f64`'s bits order as its value does, and
/// every NaN's lie above +∞'s, so it keeps a NaN and still vectorises (a
/// branch on `is_nan` in the loop made G-PTRANS's check 2.6x slower).
pub(crate) fn worst_error(errors: impl IntoIterator<Item = f64>) -> f64 {
    let worst = f64::from_bits(errors.into_iter().fold(0, |m, e| m.max(e.abs().to_bits())));
    if worst.is_nan() {
        f64::INFINITY
    } else {
        worst
    }
}

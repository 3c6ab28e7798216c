//! Wall-clock timing helpers for native benchmark runs.
//!
//! This is the workspace's only home for `std::time::Instant`: the
//! runtime and benchmark-kernel crates must stay wall-clock-free so
//! simulated and virtual execution remain deterministic (the invariant
//! `ci/arch_lint.sh` enforces).

use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since start.
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed_secs() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let w = Stopwatch::start();
        let a = w.elapsed_secs();
        let b = w.elapsed_secs();
        assert!(a >= 0.0 && b >= a);
        assert!(w.elapsed_us() >= 0.0);
    }
}

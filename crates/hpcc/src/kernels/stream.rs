//! The STREAM kernels (McCalpin): sustainable memory bandwidth via four
//! simple vector operations. Backs the EP-STREAM benchmark, "a synthetic
//! benchmark program that measures sustainable memory bandwidth (in GB/s)
//! and the corresponding computation rate for simple vector kernels".
//!
//! Sweeps fan out over the ambient [`smp::Pool`]: the arrays are cut
//! into per-worker contiguous bands (window-aligned, so every band
//! keeps the vectorised `chunks_exact` fast path) and each worker
//! streams its own band. The kernels are element-wise over disjoint
//! indices, so the threaded sweep is bitwise identical to serial.

/// Below this array length a threaded sweep costs more in fork-join
/// overhead than it saves; run serial regardless of pool size.
const SPLIT_MIN_LEN: usize = 1 << 15;

/// Window width the kernels iterate by: `chunks_exact` blocks of this
/// many `f64`s give LLVM a constant trip count per window, which is what
/// makes the autovectorization of all four loops reliable (one 64-byte
/// window = a full cache line).
pub(crate) const STREAM_LANES: usize = 8;

/// One STREAM kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]` — 16 bytes/iteration.
    Copy,
    /// `b[i] = s * c[i]` — 16 bytes/iteration.
    Scale,
    /// `c[i] = a[i] + b[i]` — 24 bytes/iteration.
    Add,
    /// `a[i] = b[i] + s * c[i]` — 24 bytes/iteration.
    Triad,
}

impl StreamKernel {
    /// All four kernels in STREAM's canonical order.
    pub(crate) const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// Bytes moved per element (STREAM's counting convention: one read
    /// plus one write per operand actually touched).
    pub fn bytes_per_element(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }
}

/// Working arrays for the STREAM kernels.
pub struct StreamArrays {
    /// Operand/destination vectors.
    pub a: Vec<f64>,
    /// Operand/destination vectors.
    pub b: Vec<f64>,
    /// Operand/destination vectors.
    pub c: Vec<f64>,
}

impl StreamArrays {
    /// Allocates and initialises the canonical STREAM starting state
    /// (a = 1, b = 2, c = 0).
    pub fn new(len: usize) -> StreamArrays {
        StreamArrays {
            a: vec![1.0; len],
            b: vec![2.0; len],
            c: vec![0.0; len],
        }
    }

    /// Restores, in place, the part of the starting state the canonical
    /// sequence reads: `a = 1`. Copy writes `c` and scale writes `b`
    /// before either is read, so what they held reaches neither the
    /// results of a sequence nor [`Self::verify`]'s verdict after one.
    pub(crate) fn reset(&mut self) {
        self.a.fill(1.0);
    }

    /// Runs one kernel over the arrays (scalar s = 3.0, as in STREAM).
    ///
    /// Each kernel walks fixed-width `chunks_exact` windows: the constant
    /// trip count per window lets LLVM drop the bounds checks and emit
    /// straight packed loads/stores, where the fused iterator chains left
    /// vectorization at the mercy of alias analysis. The sub-window tail
    /// (at most `STREAM_LANES - 1` elements) runs scalar. Large sweeps
    /// band out over the ambient worker pool.
    pub fn run(&mut self, kernel: StreamKernel) {
        let pool = smp::Pool::current();
        match kernel {
            StreamKernel::Copy => banded2(&pool, &mut self.c, &self.a, copy_band),
            StreamKernel::Scale => banded2(&pool, &mut self.b, &self.c, scale_band),
            StreamKernel::Add => banded3(&pool, &mut self.c, &self.a, &self.b, add_band),
            StreamKernel::Triad => banded3(&pool, &mut self.a, &self.b, &self.c, triad_band),
        }
    }

    /// STREAM's built-in solution check after running the canonical
    /// sequence copy, scale, add, triad `iters` times. An element passes
    /// only if its error is within tolerance, so a NaN fails.
    ///
    /// Each array is one fold without early exit, so that it vectorises;
    /// the failing element is searched for only once a fold has failed.
    pub(crate) fn verify(&self, iters: usize) -> Result<(), String> {
        let (mut ea, mut eb, mut ec) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..iters {
            ec = ea;
            eb = 3.0 * ec;
            ec = ea + eb;
            ea = eb + 3.0 * ec;
        }
        for (name, arr, expect) in [("a", &self.a, ea), ("b", &self.b, eb), ("c", &self.c, ec)] {
            let tol = 1e-8 * expect.abs().max(1.0);
            let close = |v: f64| (v - expect).abs() <= tol;
            if !arr.iter().fold(true, |ok, &v| ok & close(v)) {
                let i = arr.iter().position(|&v| !close(v)).expect("a failed fold");
                return Err(format!("array {name}[{i}] = {}, expected {expect}", arr[i]));
            }
        }
        Ok(())
    }
}

/// STREAM scalar, as in the reference implementation.
const S: f64 = 3.0;

/// `dst[i] = src[i]` over one band.
fn copy_band(dst: &mut [f64], src: &[f64]) {
    let mut s = src.chunks_exact(STREAM_LANES);
    let mut d = dst.chunks_exact_mut(STREAM_LANES);
    for (d, s) in (&mut d).zip(&mut s) {
        d.copy_from_slice(s);
    }
    for (d, s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d = *s;
    }
}

/// `dst[i] = S * src[i]` over one band.
fn scale_band(dst: &mut [f64], src: &[f64]) {
    let mut s = src.chunks_exact(STREAM_LANES);
    let mut d = dst.chunks_exact_mut(STREAM_LANES);
    for (d, s) in (&mut d).zip(&mut s) {
        for j in 0..STREAM_LANES {
            d[j] = S * s[j];
        }
    }
    for (d, s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d = S * *s;
    }
}

/// `dst[i] = s1[i] + s2[i]` over one band.
fn add_band(dst: &mut [f64], s1: &[f64], s2: &[f64]) {
    let mut x = s1.chunks_exact(STREAM_LANES);
    let mut y = s2.chunks_exact(STREAM_LANES);
    let mut d = dst.chunks_exact_mut(STREAM_LANES);
    for ((d, x), y) in (&mut d).zip(&mut x).zip(&mut y) {
        for j in 0..STREAM_LANES {
            d[j] = x[j] + y[j];
        }
    }
    for ((d, x), y) in d
        .into_remainder()
        .iter_mut()
        .zip(x.remainder())
        .zip(y.remainder())
    {
        *d = *x + *y;
    }
}

/// `dst[i] = s1[i] + S * s2[i]` over one band.
fn triad_band(dst: &mut [f64], s1: &[f64], s2: &[f64]) {
    let mut x = s1.chunks_exact(STREAM_LANES);
    let mut y = s2.chunks_exact(STREAM_LANES);
    let mut d = dst.chunks_exact_mut(STREAM_LANES);
    for ((d, x), y) in (&mut d).zip(&mut x).zip(&mut y) {
        for j in 0..STREAM_LANES {
            d[j] = x[j] + S * y[j];
        }
    }
    for ((d, x), y) in d
        .into_remainder()
        .iter_mut()
        .zip(x.remainder())
        .zip(y.remainder())
    {
        *d = *x + S * *y;
    }
}

/// Runs a two-operand kernel over window-aligned per-worker bands.
fn banded2(pool: &smp::Pool, dst: &mut [f64], src: &[f64], f: fn(&mut [f64], &[f64])) {
    if pool.size() <= 1 || dst.len() < SPLIT_MIN_LEN {
        return f(dst, src);
    }
    let ranges = smp::pool::chunk_ranges(dst.len(), pool.size(), STREAM_LANES);
    let mut parts: Vec<(&mut [f64], &[f64])> = Vec::with_capacity(ranges.len());
    let mut rest = dst;
    for r in &ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        rest = tail;
        parts.push((head, &src[r.clone()]));
    }
    pool.run_parts(&mut parts, |_, part| f(&mut part.0[..], part.1));
}

/// Runs a three-operand kernel over window-aligned per-worker bands.
fn banded3(
    pool: &smp::Pool,
    dst: &mut [f64],
    s1: &[f64],
    s2: &[f64],
    f: fn(&mut [f64], &[f64], &[f64]),
) {
    if pool.size() <= 1 || dst.len() < SPLIT_MIN_LEN {
        return f(dst, s1, s2);
    }
    let ranges = smp::pool::chunk_ranges(dst.len(), pool.size(), STREAM_LANES);
    let mut parts: Vec<(&mut [f64], &[f64], &[f64])> = Vec::with_capacity(ranges.len());
    let mut rest = dst;
    for r in &ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        rest = tail;
        parts.push((head, &s1[r.clone()], &s2[r.clone()]));
    }
    pool.run_parts(&mut parts, |_, part| f(&mut part.0[..], part.1, part.2));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sequence_verifies() {
        let mut s = StreamArrays::new(1000);
        for _ in 0..3 {
            for k in StreamKernel::ALL {
                s.run(k);
            }
        }
        s.verify(3).unwrap();
    }

    /// An element off by one, or a NaN in any of the arrays, fails the
    /// check and is named.
    #[test]
    fn verify_catches_corruption() {
        // After one sequence `c` holds 4.0 everywhere.
        for (name, i, v) in [
            ("c", 42, 5.0),
            ("a", 0, f64::NAN),
            ("b", 57, f64::NAN),
            ("c", 99, f64::NAN),
        ] {
            let mut s = StreamArrays::new(100);
            for k in StreamKernel::ALL {
                s.run(k);
            }
            let arr = match name {
                "a" => &mut s.a,
                "b" => &mut s.b,
                _ => &mut s.c,
            };
            arr[i] = v;
            let err = s.verify(1).unwrap_err();
            assert!(err.contains(&format!("{name}[{i}] = {v},")), "{err}");
        }
    }

    /// Arrays a finished sequence left behind, with `b` and `c` poisoned:
    /// `reset` refills `a` alone, and one sequence must still verify.
    #[test]
    fn resetting_a_alone_restores_the_sequence() {
        let sequence = |s: &mut StreamArrays| {
            for k in StreamKernel::ALL {
                s.run(k);
            }
        };
        let used = || {
            let mut s = StreamArrays::new(1003);
            sequence(&mut s);
            s.b.fill(f64::NAN);
            s.c.fill(f64::NAN);
            s
        };
        let mut reset = used();
        reset.reset();
        sequence(&mut reset);
        reset.verify(1).unwrap();
        // Without the reset, `a` starts from where the last sequence left it.
        let mut stale = used();
        sequence(&mut stale);
        assert!(stale.verify(1).unwrap_err().contains("array a[0]"));
    }

    /// Lengths that are not a multiple of the window width must still be
    /// fully processed (the `chunks_exact` remainder path).
    #[test]
    fn ragged_lengths_cover_the_tail() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 1003] {
            let mut s = StreamArrays::new(len);
            for _ in 0..2 {
                for k in StreamKernel::ALL {
                    s.run(k);
                }
            }
            s.verify(2).unwrap_or_else(|e| panic!("len={len}: {e}"));
        }
    }

    /// Threaded sweeps (array above the split threshold, pool > 1) are
    /// bitwise identical to serial: the bands are disjoint and the
    /// kernels element-wise.
    #[test]
    fn pooled_sweep_matches_serial_bitwise() {
        let len = SPLIT_MIN_LEN + 13; // ragged tail crosses band + window edges
        let run_all = |threads: usize| {
            let _pool = smp::AmbientGuard::install(threads);
            let mut s = StreamArrays::new(len);
            for _ in 0..2 {
                for k in StreamKernel::ALL {
                    s.run(k);
                }
            }
            (s.a, s.b, s.c)
        };
        let serial = run_all(1);
        for threads in [2, 3, 5] {
            let pooled = run_all(threads);
            assert_eq!(pooled.0, serial.0, "{threads} threads: a drifted");
            assert_eq!(pooled.1, serial.1, "{threads} threads: b drifted");
            assert_eq!(pooled.2, serial.2, "{threads} threads: c drifted");
        }
    }

    #[test]
    fn byte_counts_match_stream_conventions() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
    }
}

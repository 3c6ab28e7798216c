//! Threaded DGEMM determinism: the pool-split packed GEMM must be
//! **bitwise identical** to the single-thread result for every thread
//! count, shape, and layout. The split partitions C along M or N while
//! per-element summation order depends only on the KC depth blocking,
//! so not a single ULP of drift is tolerated here — `==`, not epsilon.

use hpcc::kernels::dgemm::{gemm_update, MR, NR};

/// The tests' input source: xorshift64*. [`Rng::new`] seeds a property
/// case through splitmix64, so that neighbouring seeds draw unrelated
/// inputs; [`fill`] seeds a matrix directly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw from `r`.
    fn range(&mut self, r: std::ops::Range<u64>) -> u64 {
        r.start + self.next() % (r.end - r.start)
    }
}

/// `len` values uniform in `[-0.5, 0.5)`, drawn from `seed`.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng(seed | 1);
    (0..len)
        .map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Runs `gemm_update` under an ambient pool of `threads` workers.
#[allow(clippy::too_many_arguments)]
fn run_with_threads(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    strides_a: (usize, usize),
    b: &[f64],
    strides_b: (usize, usize),
    c0: &[f64],
    strides_c: (usize, usize),
) -> Vec<f64> {
    let _pool = smp::AmbientGuard::install(threads);
    let mut c = c0.to_vec();
    gemm_update(
        m,
        n,
        k,
        alpha,
        a,
        strides_a.0,
        strides_a.1,
        b,
        strides_b.0,
        strides_b.1,
        &mut c,
        strides_c.0,
        strides_c.1,
    );
    c
}

/// Row-major C forces the M-split path, column-major C the N-split
/// path; both must be bitwise equal to the serial run at every thread
/// count, including counts that exceed the band count.
#[test]
fn both_split_paths_match_serial_bitwise() {
    // Big enough to clear the serial-fallback volume threshold.
    let (m, n, k) = (96, 80, 48);
    let a = fill(m * k, 11);
    let b = fill(k * n, 22);
    let c0 = fill(m * n, 33);

    // Row-major everywhere: M-split.
    let serial_rm = run_with_threads(1, m, n, k, -1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    // Column-major everywhere (the HPL trailing-update shape): N-split.
    let serial_cm = run_with_threads(1, m, n, k, -1.0, &a, (1, m), &b, (1, k), &c0, (1, m));

    for threads in [2, 3, 4, 7, 64] {
        let rm = run_with_threads(threads, m, n, k, -1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
        assert_eq!(
            rm, serial_rm,
            "row-major M-split drifted at {threads} threads"
        );
        let cm = run_with_threads(threads, m, n, k, -1.0, &a, (1, m), &b, (1, k), &c0, (1, m));
        assert_eq!(
            cm, serial_cm,
            "column-major N-split drifted at {threads} threads"
        );
    }
}

/// Shapes too small to thread still honour the ambient pool without
/// drifting (they take the serial fallback inline).
#[test]
fn tiny_shapes_are_stable_under_pool() {
    let (m, n, k) = (MR + 3, NR + 5, 9);
    let a = fill(m * k, 5);
    let b = fill(k * n, 6);
    let c0 = fill(m * n, 7);
    let serial = run_with_threads(1, m, n, k, 1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    let pooled = run_with_threads(4, m, n, k, 1.0, &a, (k, 1), &b, (n, 1), &c0, (n, 1));
    assert_eq!(pooled, serial);
}

/// Random shapes (straddling the macro-block and split-volume
/// boundaries), random layouts, random alpha: the threaded result equals
/// the single-thread result bit for bit at every thread count. 24 seeded
/// cases.
#[test]
fn threaded_gemm_is_bitwise_deterministic() {
    for case in 0..24 {
        let case_seed = 0x6467_656d_0000 + case;
        let mut rng = Rng::new(case_seed);
        let (m, n, k) = (
            rng.range(1..140) as usize,
            rng.range(1..140) as usize,
            rng.range(1..96) as usize,
        );
        let seed = rng.range(0..1 << 48);
        let row_major_c = rng.range(0..2) == 1;
        let threads = rng.range(2..6) as usize;
        let alpha = if seed.is_multiple_of(3) { -1.0 } else { 1.0 };
        let a = fill(m * k, seed ^ 0xA);
        let b = fill(k * n, seed ^ 0xB);
        let c0 = fill(m * n, seed ^ 0xC);
        let (sa, sb) = ((k, 1), (n, 1));
        let sc = if row_major_c { (n, 1) } else { (1, m) };
        let serial = run_with_threads(1, m, n, k, alpha, &a, sa, &b, sb, &c0, sc);
        let pooled = run_with_threads(threads, m, n, k, alpha, &a, sa, &b, sb, &c0, sc);
        assert_eq!(
            pooled, serial,
            "case {case}, seed {case_seed:#x}: {m}x{n}x{k} at {threads} threads"
        );
    }
}

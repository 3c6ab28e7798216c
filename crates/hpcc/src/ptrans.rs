//! G-PTRANS: parallel matrix transpose, `A = A + B^T`.
//!
//! "This benchmark heavily exercises the communication subsystem where
//! pairs of processors communicate with each other simultaneously. It
//! measures the total communications capacity of the network."
//!
//! Distribution: 1-D block by rows — rank `r` owns rows
//! `[r*n/p, (r+1)*n/p)` of both A and B. Computing `A += B^T` requires,
//! for my row block and rank `s`'s column range, the sub-block
//! `B[rows_s][cols_me]` — a pairwise all-to-all of `(n/p)^2` tiles,
//! exactly the simultaneous-pairs pattern the paper describes.

use mp::Comm;

/// Configuration: matrix order (must be divisible by the rank count).
#[derive(Clone, Copy, Debug)]
pub struct PtransConfig {
    /// Matrix order.
    pub n: usize,
}

/// Benchmark outcome.
#[derive(Clone, Copy, Debug)]
pub struct PtransResult {
    /// Matrix order.
    pub n: usize,
    /// Achieved rate in GB/s (8 n^2 bytes over the measured time).
    pub gb_per_s: f64,
    /// Wall time, seconds.
    pub time_s: f64,
    /// Max |error| against the analytically known result.
    pub max_error: f64,
    /// Whether verification passed.
    pub passed: bool,
}

/// Deterministic element generators (distinct for A and B).
fn a_elem(i: usize, j: usize) -> f64 {
    crate::hpl::matrix_element(i, j + 1_000_003)
}

fn b_elem(i: usize, j: usize) -> f64 {
    crate::hpl::matrix_element(i + 2_000_033, j)
}

/// Tile size (elements) below which the transpose-accumulate stays
/// serial: a fork-join region costs more than a small tile's arithmetic.
const PAR_MIN_ELEMS: usize = 64 * 64;

/// Edge of the cache tiles the transpose-accumulate walks: a tile of `a`
/// and the `src` lines it reads take 8 KiB each.
const TILE: usize = 32;

/// The local transpose-accumulate at the heart of PTRANS:
/// `a[r][col0 + c] += src[c * ld + r]` over the `rows x rows` block, in
/// [`TILE`]-square tiles, fanned out over the rank's worker pool in
/// contiguous row bands (`a` is row-major, so a row band is one contiguous
/// `&mut` split). Every output element receives exactly one addition from
/// exactly one worker — the same addition the serial loop performs — so
/// the result is bitwise identical for any thread count.
fn transpose_accumulate(a: &mut [f64], n: usize, rows: usize, col0: usize, src: &[f64], ld: usize) {
    let pool = smp::Pool::current();
    if pool.size() <= 1 || rows * rows < PAR_MIN_ELEMS {
        accumulate_band(&mut a[..rows * n], n, 0, rows, col0, src, ld);
        return;
    }
    let ranges = pool.chunk_ranges(rows, 1);
    let mut bands: Vec<(usize, &mut [f64])> = Vec::with_capacity(ranges.len());
    let mut rest: &mut [f64] = a;
    for rng in ranges {
        let (band, tail) = std::mem::take(&mut rest).split_at_mut((rng.end - rng.start) * n);
        bands.push((rng.start, band));
        rest = tail;
    }
    pool.run_parts(&mut bands, |_, (r0, band)| {
        accumulate_band(band, n, *r0, rows, col0, src, ld);
    });
}

/// [`transpose_accumulate`] on the band of `a` whose first row is `r0`,
/// one tile at a time.
fn accumulate_band(
    band: &mut [f64],
    n: usize,
    r0: usize,
    rows: usize,
    col0: usize,
    src: &[f64],
    ld: usize,
) {
    let band_rows = band.len() / n;
    for t0 in (0..band_rows).step_by(TILE) {
        for c0 in (0..rows).step_by(TILE) {
            let c1 = (c0 + TILE).min(rows);
            for dr in t0..(t0 + TILE).min(band_rows) {
                let r = r0 + dr;
                let row = &mut band[dr * n + col0..][c0..c1];
                for (x, c) in row.iter_mut().zip(c0..c1) {
                    *x += src[c * ld + r];
                }
            }
        }
    }
}

/// Largest |error| of my row block of `A + B^T` (rows from `my0`, `n`
/// wide) against the closed form `a(i,j) + b(j,i)`; +∞ if it meets a NaN.
fn max_error(a: &[f64], n: usize, my0: usize) -> f64 {
    crate::worst_error(a.chunks_exact(n).enumerate().flat_map(|(r, row)| {
        row.iter()
            .enumerate()
            .map(move |(j, &v)| v - (a_elem(my0 + r, j) + b_elem(j, my0 + r)))
    }))
}

/// Runs G-PTRANS on `comm`.
pub async fn run_async(comm: &Comm, cfg: &PtransConfig) -> PtransResult {
    let n = cfg.n;
    let p = comm.size();
    let me = comm.rank();
    assert!(
        n.is_multiple_of(p),
        "PTRANS requires n divisible by the rank count"
    );
    let rows = n / p;
    let my0 = me * rows;

    // Local row blocks, row-major.
    let mut a: Vec<f64> = (0..rows * n).map(|k| a_elem(my0 + k / n, k % n)).collect();
    let b: Vec<f64> = (0..rows * n).map(|k| b_elem(my0 + k / n, k % n)).collect();

    comm.barrier_async().await;
    let clock = harness::Stopwatch::start();

    // My own block needs no exchange: A[my rows][my cols] += its
    // transpose, read straight out of B.
    transpose_accumulate(&mut a, n, rows, my0, &b[my0..], n);
    if p > 1 {
        // Pairwise tile exchange: in step s I trade tiles with partner
        // (me + s) mod p / (me - s) mod p.
        let mut tile = vec![0.0f64; rows * rows];
        let mut incoming = vec![0.0f64; rows * rows];
        for s in 1..p {
            let dst = (me + s) % p;
            let src = (me + p - s) % p;
            // Tile for dst: my rows, dst's column range.
            for r in 0..rows {
                let off = r * n + dst * rows;
                tile[r * rows..(r + 1) * rows].copy_from_slice(&b[off..off + rows]);
            }
            comm.sendrecv_async(&tile, dst, &mut incoming, src, 3).await;
            // incoming = B[rows_src][cols_me]; A[my rows][cols_src] += its
            // transpose, fanned over the rank's worker pool.
            transpose_accumulate(&mut a, n, rows, src * rows, &incoming, rows);
        }
    }

    let time_s = clock.elapsed_secs();

    let mut reduced = [max_error(&a, n, my0), time_s];
    comm.allreduce_async(&mut reduced, mp::Op::Max).await;

    let bytes = 8.0 * (n as f64) * (n as f64);
    PtransResult {
        n,
        gb_per_s: bytes / reduced[1] / 1e9,
        time_s: reduced[1],
        max_error: reduced[0],
        passed: reduced[0] < 1e-12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_correct() {
        // Blocks of 16 and 8 rows sit inside one tile; 100, 65 and 50 rows
        // end in a ragged tile, on their own and beside peers' blocks.
        for (p, n) in [
            (1, 16),
            (2, 16),
            (4, 32),
            (8, 64),
            (1, 100),
            (2, 130),
            (3, 150),
        ] {
            let results = mp::run(p, |comm| mp::block_on(run_async(comm, &PtransConfig { n })));
            for r in &results {
                assert!(r.passed, "p={p} n={n}: max error {}", r.max_error);
                assert!(r.gb_per_s > 0.0);
            }
        }
    }

    #[test]
    fn check_fails_a_nan_element() {
        let (n, rows, my0) = (16, 8, 8);
        let mut a: Vec<f64> = (0..rows * n)
            .map(|k| a_elem(my0 + k / n, k % n) + b_elem(k % n, my0 + k / n))
            .collect();
        assert_eq!(max_error(&a, n, my0), 0.0);
        a[rows * n / 2 + 3] = f64::NAN;
        assert_eq!(max_error(&a, n, my0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_order() {
        mp::run(3, |comm| {
            mp::block_on(run_async(comm, &PtransConfig { n: 16 }))
        });
    }

    #[test]
    fn transpose_accumulate_is_bitwise_identical_across_thread_counts() {
        let n = 512;
        let rows = 128; // rows * rows >= PAR_MIN_ELEMS: the banded path runs.
        let col0 = 256;
        let mk = || -> Vec<f64> { (0..rows * n).map(|k| a_elem(k / n, k % n)).collect() };
        let incoming: Vec<f64> = (0..rows * rows)
            .map(|k| b_elem(k % rows, k / rows))
            .collect();
        let reference = {
            let _serial = smp::AmbientGuard::install(1);
            let mut a = mk();
            transpose_accumulate(&mut a, n, rows, col0, &incoming, rows);
            a
        };
        for threads in [2usize, 3, 4, 8] {
            let _guard = smp::AmbientGuard::install(threads);
            let mut a = mk();
            transpose_accumulate(&mut a, n, rows, col0, &incoming, rows);
            let identical = reference
                .iter()
                .zip(&a)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(identical, "{threads}-thread transpose drifted from serial");
        }
    }
}

//! G-FFT: distributed 1-D complex FFT "across the entire computer by
//! distributing the input vector in block fashion across all the nodes".
//!
//! Binary-exchange algorithm, decimation in frequency: the first
//! `log2(p)` butterfly stages span multiple ranks — each rank exchanges
//! its whole block with the partner at XOR distance and computes its half
//! of the butterflies — and the remaining stages are a local DIF
//! transform. The result is globally bit-reversed; the benchmark (like
//! FFTE's internal representation) leaves it so, and the verifier
//! accounts for it.
//!
//! Hot-path structure (see DESIGN.md, "FFT engine"): each cross-rank
//! stage's twiddle slice is precomputed from the shared
//! [`twiddle`](crate::kernels::twiddle) table before the first exchange
//! (per-rank global offsets make every slice a contiguous stride of
//! `W_n`), the block is flattened into one reusable byte buffer, and the
//! partner exchange rides the `send_raw`/`recv_raw_async` zero-copy transport
//! path — steady-state stages perform no allocation and no trig.

// Index-heavy numeric code: explicit indices mirror the maths.
#![allow(clippy::needless_range_loop)]

use mp::Comm;

use crate::kernels::fft::{self, fft_flops, Complex};
use crate::kernels::twiddle::{table_for, TwiddleTable};

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct FftConfig {
    /// log2 of the global transform length.
    pub log2_n: u32,
}

/// Benchmark outcome.
#[derive(Clone, Copy, Debug)]
pub struct FftResult {
    /// Global transform length.
    pub n: u64,
    /// Gflop/s by the 5 n log2 n convention.
    pub gflops: f64,
    /// Wall time, seconds.
    pub time_s: f64,
    /// Max |error| of an inverse-transform round trip, relative.
    pub max_error: f64,
    /// Whether the round trip reproduced the input.
    pub passed: bool,
}

/// The deterministic input signal.
fn input_element(g: u64) -> Complex {
    let x = crate::hpl::matrix_element(g as usize, 77);
    let y = crate::hpl::matrix_element(g as usize, 78);
    Complex::new(x, y)
}

/// Tag of the cross-rank block exchanges.
const EXCHANGE_TAG: mp::Tag = 19;

/// One cross-rank stage: its global butterfly span and, when this rank
/// holds the high half, the precomputed twiddle slice `W_span^{base+l}`
/// (direction already folded in).
struct CrossStage {
    span: usize,
    twiddles: Option<Vec<Complex>>,
}

/// Precomputes every cross-rank stage's twiddle slice for this rank,
/// descending span order (the forward stage order). The high half's
/// twiddle index `k = (me*ln + l) mod (span/2)` is contiguous in `l`
/// because `ln` divides `span/2`, so each slice is one strided read of
/// the shared `W_n` table — nothing is recomputed per stage.
fn cross_stages(
    table: &TwiddleTable,
    me: usize,
    ln: usize,
    p: usize,
    inverse: bool,
) -> Vec<CrossStage> {
    let n = ln * p;
    let mut stages = Vec::with_capacity(p.trailing_zeros() as usize);
    let mut span = n;
    while span > ln {
        let dist_ranks = span / 2 / ln;
        let twiddles = (me & dist_ranks != 0).then(|| {
            let stride = n / span;
            let base = (me * ln) % (span / 2);
            (0..ln)
                .map(|l| table.w((base + l) * stride, inverse))
                .collect()
        });
        stages.push(CrossStage { span, twiddles });
        span /= 2;
    }
    stages
}

/// Flattens the local block into a reusable little-endian byte buffer
/// (the raw-transport wire format). After the first stage this is a
/// plain in-place overwrite — no allocation.
fn pack(local: &[Complex], buf: &mut Vec<u8>) {
    buf.resize(16 * local.len(), 0);
    for (dst, c) in buf.chunks_exact_mut(16).zip(local) {
        dst[..8].copy_from_slice(&c.re.to_le_bytes());
        dst[8..].copy_from_slice(&c.im.to_le_bytes());
    }
}

#[inline]
fn unpack(bytes: &[u8]) -> Complex {
    Complex::new(
        f64::from_le_bytes(bytes[..8].try_into().expect("8-byte re")),
        f64::from_le_bytes(bytes[8..16].try_into().expect("8-byte im")),
    )
}

/// Exchanges the packed local block with `partner`, reusing both buffers:
/// `send_raw` copies into the transport's recycled scratch and `recv_raw_async`
/// transfers payload ownership into `recvbuf`, recycling the displaced
/// allocation — so per-stage traffic allocates nothing in steady state.
async fn exchange_blocks(
    comm: &Comm,
    local: &[Complex],
    partner: usize,
    sendbuf: &mut Vec<u8>,
    recvbuf: &mut Vec<u8>,
) {
    pack(local, sendbuf);
    comm.send_raw(sendbuf, partner, EXCHANGE_TAG);
    comm.recv_raw_async(recvbuf, partner, EXCHANGE_TAG).await;
    debug_assert_eq!(recvbuf.len(), 16 * local.len(), "partner block length");
}

/// One forward distributed DIF transform over `comm`; `local` is this
/// rank's block (length `n/p`). Output is globally bit-reversed in place.
pub(crate) async fn distributed_fft_async(comm: &Comm, local: &mut [Complex]) {
    let p = comm.size();
    let me = comm.rank();
    assert!(p.is_power_of_two(), "G-FFT needs a power-of-two rank count");
    let ln = local.len();
    assert!(ln.is_power_of_two(), "local block must be a power of two");

    if p > 1 {
        let table = table_for(ln * p);
        let stages = cross_stages(&table, me, ln, p, false);
        let mut sendbuf: Vec<u8> = Vec::new();
        let mut recvbuf: Vec<u8> = Vec::new();
        for stage in &stages {
            let partner = me ^ (stage.span / 2 / ln);
            exchange_blocks(comm, local, partner, &mut sendbuf, &mut recvbuf).await;
            match &stage.twiddles {
                // I hold `a`; partner holds `b`: a' = a + b.
                None => {
                    for (c, bytes) in local.iter_mut().zip(recvbuf.chunks_exact(16)) {
                        *c = *c + unpack(bytes);
                    }
                }
                // I hold `b`: b' = (a - b) * W_span^k, table-driven.
                Some(tw) => {
                    for ((c, bytes), w) in local.iter_mut().zip(recvbuf.chunks_exact(16)).zip(tw) {
                        *c = (unpack(bytes) - *c) * *w;
                    }
                }
            }
        }
    }

    fft::dif_in_place(local, false);
}

/// Exactly undoes a forward [`distributed_fft_async`], unscaled:
/// afterwards every rank holds `n` times its original input block. The
/// local inverse transform runs first — [`fft::fft_from_bit_reversed`]
/// takes the rank's bit-reversed block back to natural order — then the
/// cross-rank stages in ascending span order with conjugate twiddles.
/// Stays O(n/p) memory per rank (this is what the benchmark's
/// verification uses instead of gathering the spectrum to rank 0).
pub(crate) async fn distributed_ifft_unscaled_async(comm: &Comm, local: &mut [Complex]) {
    let p = comm.size();
    let me = comm.rank();
    assert!(p.is_power_of_two(), "G-FFT needs a power-of-two rank count");
    let ln = local.len();
    assert!(ln.is_power_of_two(), "local block must be a power of two");

    fft::fft_from_bit_reversed(local, true);

    if p > 1 {
        let table = table_for(ln * p);
        let stages = cross_stages(&table, me, ln, p, true);
        let mut sendbuf: Vec<u8> = Vec::new();
        let mut recvbuf: Vec<u8> = Vec::new();
        for stage in stages.iter().rev() {
            let partner = me ^ (stage.span / 2 / ln);
            // Forward: a' = a + b (low), b' = (a - b) W (high). Undo with
            // t = b' * conj(W) = a - b: low gets a' + t = 2a, high gets
            // a' - t = 2b. The high half premultiplies in place, both
            // sides exchange, and each combines with one pass.
            if let Some(tw) = &stage.twiddles {
                for (c, w) in local.iter_mut().zip(tw) {
                    *c = *c * *w;
                }
            }
            exchange_blocks(comm, local, partner, &mut sendbuf, &mut recvbuf).await;
            match &stage.twiddles {
                None => {
                    for (c, bytes) in local.iter_mut().zip(recvbuf.chunks_exact(16)) {
                        *c = *c + unpack(bytes);
                    }
                }
                Some(_) => {
                    for (c, bytes) in local.iter_mut().zip(recvbuf.chunks_exact(16)) {
                        *c = unpack(bytes) - *c;
                    }
                }
            }
        }
    }
}

/// Runs G-FFT: forward transform (timed), then a *distributed* inverse
/// round trip for verification — O(n/p) memory per rank, no gather.
pub fn run(comm: &Comm, cfg: &FftConfig) -> FftResult {
    mp::block_on(run_async(comm, cfg))
}

/// Awaitable mirror of [`run`], for cooperative rank tasks.
pub(crate) async fn run_async(comm: &Comm, cfg: &FftConfig) -> FftResult {
    let p = comm.size();
    let me = comm.rank();
    let n = 1u64 << cfg.log2_n;
    assert!(
        n as usize >= p * p.max(2),
        "transform too small for the rank count"
    );
    let ln = (n as usize) / p;
    let base = (me * ln) as u64;
    let mut data: Vec<Complex> = (0..ln as u64).map(|l| input_element(base + l)).collect();

    comm.barrier_async().await;
    let clock = harness::Stopwatch::start();
    distributed_fft_async(comm, &mut data).await;
    comm.barrier_async().await;
    let time_s = clock.elapsed_secs();

    // Round trip entirely in place: the distributed inverse returns n * input
    // in the original block layout, so each rank checks its own slice
    // against the deterministic generator and only the scalar error is
    // reduced. (The old gather-to-rank-0 check needed O(n) memory on one
    // rank; it survives as a cross-check in the small-n tests.)
    distributed_ifft_unscaled_async(comm, &mut data).await;
    let mut stats = [roundtrip_error(&data, base, n), time_s];
    comm.allreduce_async(&mut stats, mp::Op::Max).await;

    FftResult {
        n,
        gflops: fft_flops(n as usize) / stats[1] / 1e9,
        time_s: stats[1],
        max_error: stats[0],
        passed: stats[0] < 1e-10,
    }
}

/// Largest |x / n - input| over a rank's block `data` (global offset
/// `base`) after the unscaled inverse of a length-`n` transform; +∞ if it
/// meets a NaN. It folds squared norms and takes one `hypot`, of the
/// worst element: `hypot` grows with the squared norm, so up to a tie in
/// the rounded squared norms that is the element a `hypot` per element
/// picks, for one libm call instead of one per element.
fn roundtrip_error(data: &[Complex], base: u64, n: u64) -> f64 {
    let scale = 1.0 / n as f64;
    let (mut worst, mut worst_sq) = (Complex::default(), 0.0f64);
    for (l, v) in data.iter().enumerate() {
        let expect = input_element(base + l as u64);
        let d = Complex::new(v.re * scale, v.im * scale) - expect;
        let sq = d.re * d.re + d.im * d.im;
        if sq.is_nan() {
            return f64::INFINITY;
        }
        if sq > worst_sq {
            (worst, worst_sq) = (d, sq);
        }
    }
    worst.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_matches_serial_across_rank_counts() {
        for (p, log2_n) in [(1usize, 8u32), (2, 8), (4, 10), (8, 12)] {
            let results = mp::run(p, |comm| run(comm, &FftConfig { log2_n }));
            for r in &results {
                assert!(r.passed, "p={p} n=2^{log2_n}: max error {}", r.max_error);
                // Tables make the transform exact to rounding: hold the
                // tightened bound, not just `passed`.
                assert!(
                    r.max_error <= 1e-10,
                    "p={p} n=2^{log2_n}: max error {} above 1e-10",
                    r.max_error
                );
                assert!(r.gflops > 0.0);
            }
        }
    }

    /// The retired full-gather verification, kept as a small-n
    /// cross-check (n ≤ 2^12): allgather the bit-reversed spectrum, and
    /// rank 0 undoes the reversal, serial-inverses and compares to the
    /// generator.
    fn gathered_roundtrip_error(comm: &Comm, data: &[Complex], log2_n: u32) -> f64 {
        let n = 1usize << log2_n;
        let ln = data.len();
        let mut g = vec![0.0f64; 2 * n];
        let mut flat = vec![0.0f64; 2 * ln];
        for (i, c) in data.iter().enumerate() {
            flat[2 * i] = c.re;
            flat[2 * i + 1] = c.im;
        }
        mp::block_on(comm.allgather_async(&flat, &mut g));

        let mut max_err = 0.0f64;
        if comm.rank() == 0 {
            let mut spectrum = vec![Complex::default(); n];
            for i in 0..n {
                let rev = (i as u64).reverse_bits() >> (64 - log2_n) as u64;
                spectrum[rev as usize] = Complex::new(g[2 * i], g[2 * i + 1]);
            }
            crate::kernels::fft::fft(&mut spectrum, true);
            for (i, v) in spectrum.iter().enumerate() {
                let expect = input_element(i as u64);
                let scaled = Complex::new(v.re / n as f64, v.im / n as f64);
                max_err = max_err.max((scaled - expect).abs());
            }
        }
        let mut stats = [max_err];
        mp::block_on(comm.bcast_async(&mut stats, 0));
        stats[0]
    }

    /// The distributed inverse verification and the full-gather check
    /// must agree that the forward transform is correct.
    #[test]
    fn distributed_inverse_agrees_with_full_gather_check() {
        for (p, log2_n) in [(2usize, 8u32), (4, 10), (8, 12)] {
            let errs = mp::run(p, |comm| {
                let n = 1usize << log2_n;
                let ln = n / p;
                let base = (comm.rank() * ln) as u64;
                let mut data: Vec<Complex> =
                    (0..ln as u64).map(|l| input_element(base + l)).collect();
                mp::block_on(distributed_fft_async(comm, &mut data));
                let gather_err = gathered_roundtrip_error(comm, &data, log2_n);

                mp::block_on(distributed_ifft_unscaled_async(comm, &mut data));
                let mut stats = [roundtrip_error(&data, base, n as u64)];
                mp::block_on(comm.allreduce_async(&mut stats, mp::Op::Max));
                (gather_err, stats[0])
            });
            for (gather_err, dist_err) in errs {
                assert!(gather_err <= 1e-10, "p={p}: gather check {gather_err}");
                assert!(dist_err <= 1e-10, "p={p}: distributed check {dist_err}");
            }
        }
    }

    #[test]
    fn roundtrip_check_fails_a_nan_element() {
        let (n, base) = (64u64, 16u64);
        let mut data: Vec<Complex> = (0..16)
            .map(|l| {
                let c = input_element(base + l);
                Complex::new(c.re * n as f64, c.im * n as f64)
            })
            .collect();
        assert_eq!(roundtrip_error(&data, base, n), 0.0);
        data[5].im = f64::NAN;
        assert_eq!(roundtrip_error(&data, base, n), f64::INFINITY);
    }

    #[test]
    fn local_dif_is_a_bit_reversed_fft() {
        let n = 64usize;
        let input: Vec<Complex> = (0..n as u64).map(input_element).collect();
        let mut dif = input.clone();
        fft::dif_in_place(&mut dif, false);
        let mut reference = input;
        crate::kernels::fft::fft(&mut reference, false);
        let bits = n.trailing_zeros();
        for i in 0..n {
            let rev = i.reverse_bits() >> (usize::BITS - bits);
            let d = dif[i] - reference[rev];
            assert!(d.abs() < 1e-9, "index {i}");
        }
    }

    /// The timed forward transform's output, pinned bit for bit: an
    /// FNV-1a hash over the bytes of every rank's spectrum block, in rank
    /// order, at n = 2^12. A change to the engine that moves any bit of
    /// the G-FFT spectrum fails here, however small the error it adds.
    #[test]
    fn gfft_forward_spectrum_is_unchanged() {
        let log2_n = 12u32;
        for (p, golden) in [
            (1usize, 0x7537_9358_6717_50dc_u64),
            (2, 0xdaf1_4b40_217a_ff46),
            (4, 0x6c53_cba4_d16d_4771),
        ] {
            let blocks = mp::run(p, |comm| {
                let ln = (1usize << log2_n) / p;
                let base = (comm.rank() * ln) as u64;
                let mut data: Vec<Complex> =
                    (0..ln as u64).map(|l| input_element(base + l)).collect();
                mp::block_on(distributed_fft_async(comm, &mut data));
                data
            });
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for c in blocks.iter().flatten() {
                for byte in c.re.to_le_bytes().into_iter().chain(c.im.to_le_bytes()) {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(hash, golden, "p={p}: {hash:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two rank count")]
    fn rejects_odd_rank_counts() {
        mp::run(3, |comm| {
            let mut block = vec![Complex::default(); 8];
            mp::block_on(distributed_fft_async(comm, &mut block));
        });
    }
}

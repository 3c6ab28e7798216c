//! Table-driven complex FFT engine (the local compute of G-FFT).
//!
//! The butterflies run on a **split-complex** (structure-of-arrays)
//! workspace: the interleaved `Complex` caller data is deinterleaved
//! into separate `re`/`im` planes, transformed, and reinterleaved. With
//! plane-separated `f64` streams the merged radix-2^2 inner loops are
//! plain contiguous array arithmetic — no shuffles — so they compile to
//! packed FMA under `-C target-cpu=native`. Every twiddle is a
//! sequential load from a per-stage pack in the shared
//! [`twiddle`](super::twiddle) table — no trig and no recurrence in any
//! butterfly loop.
//!
//! Large transforms are limited by how many times the passes sweep the
//! array, so the engine minimises full-size sweeps instead of striding:
//!
//! * the bit-reverse permutation is fused with the deinterleave into a
//!   single **COBRA-tiled** sweep (32x32 tiles staged through an
//!   L1-resident buffer, so both the gather and the scatter side move
//!   whole cache lines);
//! * the merged radix-2^2 stages are paired into fused **radix-16
//!   macro passes**: two merged stages applied back to back while the
//!   sixteen butterfly legs are in registers, halving the number of
//!   full-array sweeps;
//! * the pass schedule is **hierarchical**: every stage small enough to
//!   fit an L1 block runs block by block while the block is cache-hot,
//!   the next band runs over L2-resident blocks, and only the last few
//!   stages sweep the full array.
//!
//! The DIT/DIF butterfly passes are also exported stand-alone
//! ([`dit_in_place`], [`dif_in_place`]): the distributed FFT runs DIF
//! locally after its cross-rank stages, and verifies with the DIT
//! mirror. Both use the same hierarchical schedule.

use std::cell::RefCell;
use std::ops::{Add, Mul, Sub};

use super::twiddle::{table_for, Stage, TwiddleTable};

/// A double-precision complex number.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs `re + im*i`.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// `e^{i theta}`.
    pub fn cis(theta: f64) -> Complex {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// Block schedule for a length-`n` transform: the `(l1, l2)` block sizes
/// of [`smp::TUNED`], no larger than `n`. Both are powers of two with
/// `l1 <= l2` (checked at build time), so every `chunks_exact` block is
/// exact.
fn fft_blocks(n: usize) -> (usize, usize) {
    let t = smp::TUNED;
    (t.fft_l1_block.min(n), t.fft_l2_block.min(n))
}

/// Tile bits of the COBRA bit-reverse: 2^5 x 2^5 tiles staged through
/// an L1 buffer. Sizes below 2^(2*COBRA_T) use the plain permutation.
const COBRA_T: u32 = 5;

/// Smallest stage `h` eligible for radix-16 macro pairing. Below this
/// the macro pass's `k` loop is too narrow to vectorize (the unrolled
/// 16-leg body defeats SLP), while the plain merged passes on these
/// L1-resident blocks are already compute-bound and cheap.
const MACRO_MIN_H: usize = 16;

/// Largest stage `h` eligible for radix-16 macro pairing. At `h >= 512`
/// the sixteen legs sit `8h` bytes apart — a power-of-two multiple of
/// 4 KiB — so they all map to the same L1 set and evict each other
/// (sixteen ways needed, twelve present); those stages run as single
/// merged passes instead.
const MACRO_MAX_H: usize = 256;

/// In-place iterative FFT (decimation in time, natural-order output).
/// `inverse` computes the unscaled inverse transform (divide by `n`
/// afterwards to invert exactly). Length must be a power of two.
pub fn fft(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    let table = table_for(n);
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let (re, im) = s.planes(n);
        if n.trailing_zeros() >= 2 * COBRA_T {
            cobra_split(data, re, im);
        } else {
            deinterleave(data, re, im);
            soa_bit_reverse(re, im);
        }
        soa_dit(re, im, &table, inverse);
        interleave(data, re, im);
    });
}

/// Bit-reversal permutation. The engine fuses the permutation into its
/// tiled gather; the tests use this standalone copy to express the
/// kernel's semantics independently.
#[cfg(test)]
fn bit_reverse(data: &mut [Complex]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// DIT butterfly passes on *bit-reverse permuted* input, producing
/// natural order: the second half of [`fft`], exported because the
/// distributed FFT's inverse mirror runs it on data that is already in
/// bit-reversed layout.
pub fn dit_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    let table = table_for(n);
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let (re, im) = s.planes(n);
        deinterleave(data, re, im);
        soa_dit(re, im, &table, inverse);
        interleave(data, re, im);
    });
}

/// DIF butterfly passes on natural-order input, producing bit-reversed
/// order: the local stages of the distributed FFT.
pub fn dif_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    let table = table_for(n);
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let (re, im) = s.planes(n);
        deinterleave(data, re, im);
        soa_dif(re, im, &table, inverse);
        interleave(data, re, im);
    });
}

/// In-place bit-reversal permutation of a split-complex pair (plain
/// pairwise swaps; only used below the COBRA size floor).
fn soa_bit_reverse(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
}

#[inline(always)]
fn brev(x: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (usize::BITS - bits)
    }
}

/// Fused deinterleave + bit-reverse in one tiled sweep (the COBRA
/// scheme). Indices split as `i = x·2^(b-t) | a·2^t | y` with `t`-bit
/// `x`, `y`; a 32x32 tile holding every `(x, y)` combination for one
/// middle index `a` is staged through an L1 buffer, so the reads are 32
/// sequentially-advancing streams of whole cache lines and the writes
/// land as contiguous 32-element runs at `brev(y)·2^(b-t) | brev(a)·2^t`.
/// The row permutation `x -> brev(x)` is applied for free while filling
/// the tile.
fn cobra_split(data: &[Complex], re: &mut [f64], im: &mut [f64]) {
    let n = data.len();
    let b = n.trailing_zeros();
    debug_assert!(b >= 2 * COBRA_T);
    let t = COBRA_T;
    let mid = b - 2 * t;
    let tsz = 1usize << t;
    let mut bre = [0.0f64; 1 << (2 * COBRA_T)];
    let mut bim = [0.0f64; 1 << (2 * COBRA_T)];
    for a in 0..1usize << mid {
        let arev = brev(a, mid);
        for x in 0..tsz {
            let row = brev(x, t) * tsz;
            let src = &data[(x << (b - t)) | (a << t)..][..tsz];
            for (y, c) in src.iter().enumerate() {
                bre[row + y] = c.re;
                bim[row + y] = c.im;
            }
        }
        for y in 0..tsz {
            let dst = (brev(y, t) << (b - t)) | (arev << t);
            let dr = &mut re[dst..dst + tsz];
            let di = &mut im[dst..dst + tsz];
            for x2 in 0..tsz {
                dr[x2] = bre[x2 * tsz + y];
                di[x2] = bim[x2 * tsz + y];
            }
        }
    }
}

// ----------------------------------------------------------------------
// Split-complex workspace
// ----------------------------------------------------------------------

/// Grow-only split-complex scratch, one per thread. Buffers never
/// shrink, so steady-state transforms of a repeated size perform no
/// allocation.
#[derive(Default)]
struct FftScratch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl FftScratch {
    fn planes(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        if self.re.len() < n {
            self.re.resize(n, 0.0);
            self.im.resize(n, 0.0);
        }
        (&mut self.re[..n], &mut self.im[..n])
    }
}

thread_local! {
    static SCRATCH: RefCell<FftScratch> = RefCell::new(FftScratch::default());
}

fn deinterleave(data: &[Complex], re: &mut [f64], im: &mut [f64]) {
    for ((c, r), i) in data.iter().zip(re.iter_mut()).zip(im.iter_mut()) {
        *r = c.re;
        *i = c.im;
    }
}

fn interleave(data: &mut [Complex], re: &[f64], im: &[f64]) {
    for ((c, r), i) in data.iter_mut().zip(re.iter()).zip(im.iter()) {
        c.re = *r;
        c.im = *i;
    }
}

// ----------------------------------------------------------------------
// Split-complex butterfly passes
// ----------------------------------------------------------------------

fn soa_dit(re: &mut [f64], im: &mut [f64], table: &TwiddleTable, inverse: bool) {
    if inverse {
        soa_dit_passes::<true>(re, im, table);
    } else {
        soa_dit_passes::<false>(re, im, table);
    }
}

fn soa_dif(re: &mut [f64], im: &mut [f64], table: &TwiddleTable, inverse: bool) {
    if inverse {
        soa_dif_passes::<true>(re, im, table);
    } else {
        soa_dif_passes::<false>(re, im, table);
    }
}

#[inline(always)]
fn split4(x: &mut [f64], h: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    let (a, x) = x.split_at_mut(h);
    let (b, x) = x.split_at_mut(h);
    let (c, d) = x.split_at_mut(h);
    (a, b, c, d)
}

/// The twiddle-free radix-2 stage pairing adjacent elements (the DIT
/// opener / DIF closer for odd `log2 n`).
fn soa_adjacent(re: &mut [f64], im: &mut [f64]) {
    for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
        let (ar, br) = (r[0], r[1]);
        r[0] = ar + br;
        r[1] = ar - br;
        let (ai, bi) = (i[0], i[1]);
        i[0] = ai + bi;
        i[1] = ai - bi;
    }
}

/// The `h = 1` merged stage: a radix-4 butterfly on adjacent elements
/// whose twiddles are exactly `1` and `-i`, so it is pure add/sub (plus
/// the sign-folded `-i` rotation) on contiguous 4-element chunks — no
/// loads from the pack, and the chunk loop vectorizes across blocks.
fn soa_quad_dit<const INV: bool>(re: &mut [f64], im: &mut [f64]) {
    let s = if INV { -1.0 } else { 1.0 };
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let a0r = r[0] + r[1];
        let a0i = i[0] + i[1];
        let a1r = r[0] - r[1];
        let a1i = i[0] - i[1];
        let a2r = r[2] + r[3];
        let a2i = i[2] + i[3];
        let a3r = r[2] - r[3];
        let a3i = i[2] - i[3];
        // (a3r, a3i) * (-i * sign): forward -i is (a3i, -a3r).
        let cr = s * a3i;
        let ci = -s * a3r;
        r[0] = a0r + a2r;
        r[1] = a1r + cr;
        r[2] = a0r - a2r;
        r[3] = a1r - cr;
        i[0] = a0i + a2i;
        i[1] = a1i + ci;
        i[2] = a0i - a2i;
        i[3] = a1i - ci;
    }
}

/// DIF mirror of [`soa_quad_dit`] (spans `4` then `2`, same exact
/// twiddles, so also multiply-free).
fn soa_quad_dif<const INV: bool>(re: &mut [f64], im: &mut [f64]) {
    let s = if INV { -1.0 } else { 1.0 };
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let t0r = r[0] + r[2];
        let t0i = i[0] + i[2];
        let d0r = r[0] - r[2];
        let d0i = i[0] - i[2];
        let t1r = r[1] + r[3];
        let t1i = i[1] + i[3];
        let d1r = r[1] - r[3];
        let d1i = i[1] - i[3];
        // (d1r, d1i) * (-i * sign).
        let t3r = s * d1i;
        let t3i = -s * d1r;
        r[0] = t0r + t1r;
        r[1] = t0r - t1r;
        r[2] = d0r + t3r;
        r[3] = d0r - t3r;
        i[0] = t0i + t1i;
        i[1] = t0i - t1i;
        i[2] = d0i + t3i;
        i[3] = d0i - t3i;
    }
}

/// One merged radix-2^2 DIT butterfly on four complex legs at distance
/// `h`: halves at distance `h` take `W_{2h}^k`, halves at distance `2h`
/// take `W_{4h}^k` (and `-i W_{4h}^k` via an exact rotation). Every
/// complex product is two mul + two `mul_add`, so after the callers'
/// loops vectorize the codegen is packed FMA.
#[inline(always)]
fn bf4_dit<const INV: bool>(
    pr: [f64; 4],
    pi: [f64; 4],
    w1r: f64,
    w1i: f64,
    w2r: f64,
    w2i: f64,
) -> ([f64; 4], [f64; 4]) {
    let s = if INV { -1.0 } else { 1.0 };
    let w1is = s * w1i;
    let w2is = s * w2i;
    let w2rs = s * w2r;
    let v0r = f64::mul_add(pi[1], -w1is, pr[1] * w1r);
    let v0i = f64::mul_add(pi[1], w1r, pr[1] * w1is);
    let v1r = f64::mul_add(pi[3], -w1is, pr[3] * w1r);
    let v1i = f64::mul_add(pi[3], w1r, pr[3] * w1is);
    let a0r = pr[0] + v0r;
    let a0i = pi[0] + v0i;
    let a1r = pr[0] - v0r;
    let a1i = pi[0] - v0i;
    let a2r = pr[2] + v1r;
    let a2i = pi[2] + v1i;
    let a3r = pr[2] - v1r;
    let a3i = pi[2] - v1i;
    let br = f64::mul_add(a2i, -w2is, a2r * w2r);
    let bi = f64::mul_add(a2i, w2r, a2r * w2is);
    let cr = f64::mul_add(a3i, w2rs, a3r * w2i);
    let ci = f64::mul_add(a3r, -w2rs, a3i * w2i);
    (
        [a0r + br, a1r + cr, a0r - br, a1r - cr],
        [a0i + bi, a1i + ci, a0i - bi, a1i - ci],
    )
}

/// One merged radix-2^2 DIF butterfly, the mirror of [`bf4_dit`]:
/// spans `4h` first (`W_{4h}^k`), then `2h` (`W_{2h}^k`).
#[inline(always)]
fn bf4_dif<const INV: bool>(
    pr: [f64; 4],
    pi: [f64; 4],
    w1r: f64,
    w1i: f64,
    w2r: f64,
    w2i: f64,
) -> ([f64; 4], [f64; 4]) {
    let s = if INV { -1.0 } else { 1.0 };
    let w1is = s * w1i;
    let w2is = s * w2i;
    let w2rs = s * w2r;
    let t0r = pr[0] + pr[2];
    let t0i = pi[0] + pi[2];
    let d0r = pr[0] - pr[2];
    let d0i = pi[0] - pi[2];
    let t2r = f64::mul_add(d0i, -w2is, d0r * w2r);
    let t2i = f64::mul_add(d0i, w2r, d0r * w2is);
    let t1r = pr[1] + pr[3];
    let t1i = pi[1] + pi[3];
    let d1r = pr[1] - pr[3];
    let d1i = pi[1] - pi[3];
    let t3r = f64::mul_add(d1i, w2rs, d1r * w2i);
    let t3i = f64::mul_add(d1r, -w2rs, d1i * w2i);
    let e0r = t0r - t1r;
    let e0i = t0i - t1i;
    let e1r = t2r - t3r;
    let e1i = t2i - t3i;
    (
        [
            t0r + t1r,
            f64::mul_add(e0i, -w1is, e0r * w1r),
            t2r + t3r,
            f64::mul_add(e1i, -w1is, e1r * w1r),
        ],
        [
            t0i + t1i,
            f64::mul_add(e0i, w1r, e0r * w1is),
            t2i + t3i,
            f64::mul_add(e1i, w1r, e1r * w1is),
        ],
    )
}

/// One vectorizable row of merged radix-2^2 DIT butterflies: four
/// disjoint equal-length legs combined element by element with
/// sequential twiddle loads. Eight data slices plus four twiddle
/// slices keep the pointer count low enough for LLVM's alias analysis,
/// so the loop compiles to packed FMA.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dit_row<const INV: bool>(
    (r0, r1, r2, r3): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    (i0, i1, i2, i3): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    w1r: &[f64],
    w1i: &[f64],
    w2r: &[f64],
    w2i: &[f64],
) {
    for k in 0..r0.len() {
        let (or, oi) = bf4_dit::<INV>(
            [r0[k], r1[k], r2[k], r3[k]],
            [i0[k], i1[k], i2[k], i3[k]],
            w1r[k],
            w1i[k],
            w2r[k],
            w2i[k],
        );
        r0[k] = or[0];
        r1[k] = or[1];
        r2[k] = or[2];
        r3[k] = or[3];
        i0[k] = oi[0];
        i1[k] = oi[1];
        i2[k] = oi[2];
        i3[k] = oi[3];
    }
}

/// DIF mirror of [`dit_row`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dif_row<const INV: bool>(
    (r0, r1, r2, r3): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    (i0, i1, i2, i3): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    w1r: &[f64],
    w1i: &[f64],
    w2r: &[f64],
    w2i: &[f64],
) {
    for k in 0..r0.len() {
        let (or, oi) = bf4_dif::<INV>(
            [r0[k], r1[k], r2[k], r3[k]],
            [i0[k], i1[k], i2[k], i3[k]],
            w1r[k],
            w1i[k],
            w2r[k],
            w2i[k],
        );
        r0[k] = or[0];
        r1[k] = or[1];
        r2[k] = or[2];
        r3[k] = or[3];
        i0[k] = oi[0];
        i1[k] = oi[1];
        i2[k] = oi[2];
        i3[k] = oi[3];
    }
}

/// Single merged radix-2^2 DIT pass over `re`/`im` for one stage
/// (`h = 1` routes to the multiply-free quad stage).
fn merged_dit<const INV: bool>(re: &mut [f64], im: &mut [f64], stage: &Stage) {
    let h = stage.h;
    if h == 1 {
        soa_quad_dit::<INV>(re, im);
        return;
    }
    let w1r = &stage.w1re[..h];
    let w1i = &stage.w1im[..h];
    let w2r = &stage.w2re[..h];
    let w2i = &stage.w2im[..h];
    for (rb, ib) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        dit_row::<INV>(split4(rb, h), split4(ib, h), w1r, w1i, w2r, w2i);
    }
}

/// Single merged radix-2^2 DIF pass over `re`/`im` for one stage
/// (`h = 1` routes to the multiply-free quad stage).
fn merged_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], stage: &Stage) {
    let h = stage.h;
    if h == 1 {
        soa_quad_dif::<INV>(re, im);
        return;
    }
    let w1r = &stage.w1re[..h];
    let w1i = &stage.w1im[..h];
    let w2r = &stage.w2re[..h];
    let w2i = &stage.w2im[..h];
    for (rb, ib) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        dif_row::<INV>(split4(rb, h), split4(ib, h), w1r, w1i, w2r, w2i);
    }
}

/// Fused radix-16 DIT macro pass: two consecutive merged stages
/// (`sa` at distance `h`, `sb` at `4h`) applied back to back while all
/// sixteen butterfly legs are in registers, so the pair costs one sweep
/// over the array instead of two. Layer A runs `sa`'s butterfly inside
/// each quarter of a `16h` block; layer B runs `sb`'s butterfly across
/// the quarters at pack offsets `q*h + k`. Only used for `h >=`
/// [`MACRO_MIN_H`], where the `k` loop is wide enough to vectorize.
fn macro16_dit<const INV: bool>(re: &mut [f64], im: &mut [f64], sa: &Stage, sb: &Stage) {
    debug_assert_eq!(sb.h, 4 * sa.h, "macro pass needs consecutive stages");
    let h = sa.h;
    let wa1r = &sa.w1re[..h];
    let wa1i = &sa.w1im[..h];
    let wa2r = &sa.w2re[..h];
    let wa2i = &sa.w2im[..h];
    let wb1r = &sb.w1re[..4 * h];
    let wb1i = &sb.w1im[..4 * h];
    let wb2r = &sb.w2re[..4 * h];
    let wb2i = &sb.w2im[..4 * h];
    // Flat indexing off one base slice per plane (leg (c, q) lives at
    // offset (4c + q) * h): a single pointer pair keeps the 32 streams
    // analyzable, so the k loop vectorizes.
    for (rb, ib) in re.chunks_exact_mut(16 * h).zip(im.chunks_exact_mut(16 * h)) {
        for k in 0..h {
            let mut vr = [[0.0f64; 4]; 4];
            let mut vi = [[0.0f64; 4]; 4];
            // Layer A: sa's butterfly on each quarter's four rows.
            for c in 0..4 {
                let base = 4 * c * h + k;
                let (or, oi) = bf4_dit::<INV>(
                    [rb[base], rb[base + h], rb[base + 2 * h], rb[base + 3 * h]],
                    [ib[base], ib[base + h], ib[base + 2 * h], ib[base + 3 * h]],
                    wa1r[k],
                    wa1i[k],
                    wa2r[k],
                    wa2i[k],
                );
                vr[c] = or;
                vi[c] = oi;
            }
            // Layer B: sb's butterfly across quarters, pack index q*h+k.
            for q in 0..4 {
                let tw = q * h + k;
                let (or, oi) = bf4_dit::<INV>(
                    [vr[0][q], vr[1][q], vr[2][q], vr[3][q]],
                    [vi[0][q], vi[1][q], vi[2][q], vi[3][q]],
                    wb1r[tw],
                    wb1i[tw],
                    wb2r[tw],
                    wb2i[tw],
                );
                for c in 0..4 {
                    rb[(4 * c + q) * h + k] = or[c];
                    ib[(4 * c + q) * h + k] = oi[c];
                }
            }
        }
    }
}

/// Fused radix-16 DIF macro pass, the mirror of [`macro16_dit`]:
/// layer B (`sb`, spans `16h`/`8h`) runs across the quarters first,
/// then layer A (`sa`) inside each quarter.
fn macro16_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], sa: &Stage, sb: &Stage) {
    debug_assert_eq!(sb.h, 4 * sa.h, "macro pass needs consecutive stages");
    let h = sa.h;
    let wa1r = &sa.w1re[..h];
    let wa1i = &sa.w1im[..h];
    let wa2r = &sa.w2re[..h];
    let wa2i = &sa.w2im[..h];
    let wb1r = &sb.w1re[..4 * h];
    let wb1i = &sb.w1im[..4 * h];
    let wb2r = &sb.w2re[..4 * h];
    let wb2i = &sb.w2im[..4 * h];
    for (rb, ib) in re.chunks_exact_mut(16 * h).zip(im.chunks_exact_mut(16 * h)) {
        for k in 0..h {
            let mut vr = [[0.0f64; 4]; 4];
            let mut vi = [[0.0f64; 4]; 4];
            // Layer B first: sb's butterfly across quarters.
            for q in 0..4 {
                let base = q * h + k;
                let (or, oi) = bf4_dif::<INV>(
                    [
                        rb[base],
                        rb[base + 4 * h],
                        rb[base + 8 * h],
                        rb[base + 12 * h],
                    ],
                    [
                        ib[base],
                        ib[base + 4 * h],
                        ib[base + 8 * h],
                        ib[base + 12 * h],
                    ],
                    wb1r[base],
                    wb1i[base],
                    wb2r[base],
                    wb2i[base],
                );
                for c in 0..4 {
                    vr[c][q] = or[c];
                    vi[c][q] = oi[c];
                }
            }
            // Layer A: sa's butterfly inside each quarter.
            for c in 0..4 {
                let (or, oi) = bf4_dif::<INV>(vr[c], vi[c], wa1r[k], wa1i[k], wa2r[k], wa2i[k]);
                for q in 0..4 {
                    rb[(4 * c + q) * h + k] = or[q];
                    ib[(4 * c + q) * h + k] = oi[q];
                }
            }
        }
    }
}

/// Tile width (in butterfly indices `k`) of the staged wide passes: 16
/// legs x 64 `f64` is an 8 KiB buffer per plane, and every gathered leg
/// is a contiguous 512-byte run, so the gather/scatter moves whole
/// cache lines on sixteen concurrently-advancing streams.
const STAGE2_KT: usize = 64;

/// Tile width of the triple staged pass: 64 legs x 32 `f64` keeps the
/// pair of plane buffers at 2 x 16 KiB, still L1-resident.
const STAGE3_KT: usize = 32;

/// Two consecutive wide stages (`sb.h == 4 * sa.h`, `h` beyond
/// [`MACRO_MAX_H`]) applied in one sweep: for each tile of `STAGE2_KT`
/// butterfly indices the sixteen legs are gathered into a contiguous
/// L1 buffer, both butterfly layers run on the buffer (unit-stride,
/// alias-free, so they vectorize), and the legs scatter back. Memory
/// traffic is one read and one write of the array for two stages, and
/// the gathered legs never collide in L1 the way the direct `8h`-byte
/// power-of-two strides do.
fn staged2_dit<const INV: bool>(re: &mut [f64], im: &mut [f64], sa: &Stage, sb: &Stage) {
    let h = sa.h;
    debug_assert_eq!(sb.h, 4 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(h % STAGE2_KT, 0, "wide stage not tileable");
    const KT: usize = STAGE2_KT;
    let mut br = [0.0f64; 16 * KT];
    let mut bi = [0.0f64; 16 * KT];
    for (rb, ib) in re.chunks_exact_mut(16 * h).zip(im.chunks_exact_mut(16 * h)) {
        for kt in (0..h).step_by(KT) {
            for r in 0..16 {
                br[r * KT..(r + 1) * KT].copy_from_slice(&rb[r * h + kt..][..KT]);
                bi[r * KT..(r + 1) * KT].copy_from_slice(&ib[r * h + kt..][..KT]);
            }
            // Layer A: sa's butterfly on rows {4c .. 4c+3} (contiguous
            // in the buffer), pack index k.
            for (cr, ci) in br.chunks_exact_mut(4 * KT).zip(bi.chunks_exact_mut(4 * KT)) {
                dit_row::<INV>(
                    split4(cr, KT),
                    split4(ci, KT),
                    &sa.w1re[kt..kt + KT],
                    &sa.w1im[kt..kt + KT],
                    &sa.w2re[kt..kt + KT],
                    &sa.w2im[kt..kt + KT],
                );
            }
            // Layer B: sb's butterfly on rows {q, 4+q, 8+q, 12+q}, pack
            // index q*h + k.
            {
                let (q0, q1, q2, q3) = split4(&mut br, 4 * KT);
                let (p0, p1, p2, p3) = split4(&mut bi, 4 * KT);
                for q in 0..4 {
                    let b0 = q * KT;
                    let tw = q * h + kt;
                    dit_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sb.w1re[tw..tw + KT],
                        &sb.w1im[tw..tw + KT],
                        &sb.w2re[tw..tw + KT],
                        &sb.w2im[tw..tw + KT],
                    );
                }
            }
            for r in 0..16 {
                rb[r * h + kt..][..KT].copy_from_slice(&br[r * KT..(r + 1) * KT]);
                ib[r * h + kt..][..KT].copy_from_slice(&bi[r * KT..(r + 1) * KT]);
            }
        }
    }
}

/// DIF mirror of [`staged2_dit`]: layer B first, then layer A.
fn staged2_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], sa: &Stage, sb: &Stage) {
    let h = sa.h;
    debug_assert_eq!(sb.h, 4 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(h % STAGE2_KT, 0, "wide stage not tileable");
    const KT: usize = STAGE2_KT;
    let mut br = [0.0f64; 16 * KT];
    let mut bi = [0.0f64; 16 * KT];
    for (rb, ib) in re.chunks_exact_mut(16 * h).zip(im.chunks_exact_mut(16 * h)) {
        for kt in (0..h).step_by(KT) {
            for r in 0..16 {
                br[r * KT..(r + 1) * KT].copy_from_slice(&rb[r * h + kt..][..KT]);
                bi[r * KT..(r + 1) * KT].copy_from_slice(&ib[r * h + kt..][..KT]);
            }
            // Layer B first (mirror of the DIT order).
            {
                let (q0, q1, q2, q3) = split4(&mut br, 4 * KT);
                let (p0, p1, p2, p3) = split4(&mut bi, 4 * KT);
                for q in 0..4 {
                    let b0 = q * KT;
                    let tw = q * h + kt;
                    dif_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sb.w1re[tw..tw + KT],
                        &sb.w1im[tw..tw + KT],
                        &sb.w2re[tw..tw + KT],
                        &sb.w2im[tw..tw + KT],
                    );
                }
            }
            for (cr, ci) in br.chunks_exact_mut(4 * KT).zip(bi.chunks_exact_mut(4 * KT)) {
                dif_row::<INV>(
                    split4(cr, KT),
                    split4(ci, KT),
                    &sa.w1re[kt..kt + KT],
                    &sa.w1im[kt..kt + KT],
                    &sa.w2re[kt..kt + KT],
                    &sa.w2im[kt..kt + KT],
                );
            }
            for r in 0..16 {
                rb[r * h + kt..][..KT].copy_from_slice(&br[r * KT..(r + 1) * KT]);
                ib[r * h + kt..][..KT].copy_from_slice(&bi[r * KT..(r + 1) * KT]);
            }
        }
    }
}

/// Three consecutive wide stages in one sweep (radix-64 staging): the
/// 64 legs of a `64h` block gather into a 2 x 16 KiB L1 buffer, the
/// three butterfly layers run there, and the legs scatter back — one
/// read and one write of the array for three stages.
fn staged3_dit<const INV: bool>(
    re: &mut [f64],
    im: &mut [f64],
    sa: &Stage,
    sb: &Stage,
    sc: &Stage,
) {
    let h = sa.h;
    debug_assert_eq!(sb.h, 4 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(sc.h, 16 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(h % STAGE3_KT, 0, "wide stage not tileable");
    const KT: usize = STAGE3_KT;
    let mut br = [0.0f64; 64 * KT];
    let mut bi = [0.0f64; 64 * KT];
    for (rb, ib) in re.chunks_exact_mut(64 * h).zip(im.chunks_exact_mut(64 * h)) {
        for kt in (0..h).step_by(KT) {
            for r in 0..64 {
                br[r * KT..(r + 1) * KT].copy_from_slice(&rb[r * h + kt..][..KT]);
                bi[r * KT..(r + 1) * KT].copy_from_slice(&ib[r * h + kt..][..KT]);
            }
            // Layer A: rows {4a .. 4a+3} (contiguous), pack index k.
            for (cr, ci) in br.chunks_exact_mut(4 * KT).zip(bi.chunks_exact_mut(4 * KT)) {
                dit_row::<INV>(
                    split4(cr, KT),
                    split4(ci, KT),
                    &sa.w1re[kt..kt + KT],
                    &sa.w1im[kt..kt + KT],
                    &sa.w2re[kt..kt + KT],
                    &sa.w2im[kt..kt + KT],
                );
            }
            // Layer B: rows {16b+q, 16b+4+q, 16b+8+q, 16b+12+q}, pack
            // index q*h + k, within each 16-row super-block.
            for (sr, si) in br
                .chunks_exact_mut(16 * KT)
                .zip(bi.chunks_exact_mut(16 * KT))
            {
                let (q0, q1, q2, q3) = split4(sr, 4 * KT);
                let (p0, p1, p2, p3) = split4(si, 4 * KT);
                for q in 0..4 {
                    let b0 = q * KT;
                    let tw = q * h + kt;
                    dit_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sb.w1re[tw..tw + KT],
                        &sb.w1im[tw..tw + KT],
                        &sb.w2re[tw..tw + KT],
                        &sb.w2im[tw..tw + KT],
                    );
                }
            }
            // Layer C: rows {s, 16+s, 32+s, 48+s}, pack index s*h + k.
            {
                let (q0, q1, q2, q3) = split4(&mut br, 16 * KT);
                let (p0, p1, p2, p3) = split4(&mut bi, 16 * KT);
                for s in 0..16 {
                    let b0 = s * KT;
                    let tw = s * h + kt;
                    dit_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sc.w1re[tw..tw + KT],
                        &sc.w1im[tw..tw + KT],
                        &sc.w2re[tw..tw + KT],
                        &sc.w2im[tw..tw + KT],
                    );
                }
            }
            for r in 0..64 {
                rb[r * h + kt..][..KT].copy_from_slice(&br[r * KT..(r + 1) * KT]);
                ib[r * h + kt..][..KT].copy_from_slice(&bi[r * KT..(r + 1) * KT]);
            }
        }
    }
}

/// DIF mirror of [`staged3_dit`]: layers C, B, A.
fn staged3_dif<const INV: bool>(
    re: &mut [f64],
    im: &mut [f64],
    sa: &Stage,
    sb: &Stage,
    sc: &Stage,
) {
    let h = sa.h;
    debug_assert_eq!(sb.h, 4 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(sc.h, 16 * h, "staged pass needs consecutive stages");
    debug_assert_eq!(h % STAGE3_KT, 0, "wide stage not tileable");
    const KT: usize = STAGE3_KT;
    let mut br = [0.0f64; 64 * KT];
    let mut bi = [0.0f64; 64 * KT];
    for (rb, ib) in re.chunks_exact_mut(64 * h).zip(im.chunks_exact_mut(64 * h)) {
        for kt in (0..h).step_by(KT) {
            for r in 0..64 {
                br[r * KT..(r + 1) * KT].copy_from_slice(&rb[r * h + kt..][..KT]);
                bi[r * KT..(r + 1) * KT].copy_from_slice(&ib[r * h + kt..][..KT]);
            }
            // Layer C first (mirror of the DIT order).
            {
                let (q0, q1, q2, q3) = split4(&mut br, 16 * KT);
                let (p0, p1, p2, p3) = split4(&mut bi, 16 * KT);
                for s in 0..16 {
                    let b0 = s * KT;
                    let tw = s * h + kt;
                    dif_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sc.w1re[tw..tw + KT],
                        &sc.w1im[tw..tw + KT],
                        &sc.w2re[tw..tw + KT],
                        &sc.w2im[tw..tw + KT],
                    );
                }
            }
            for (sr, si) in br
                .chunks_exact_mut(16 * KT)
                .zip(bi.chunks_exact_mut(16 * KT))
            {
                let (q0, q1, q2, q3) = split4(sr, 4 * KT);
                let (p0, p1, p2, p3) = split4(si, 4 * KT);
                for q in 0..4 {
                    let b0 = q * KT;
                    let tw = q * h + kt;
                    dif_row::<INV>(
                        (
                            &mut q0[b0..b0 + KT],
                            &mut q1[b0..b0 + KT],
                            &mut q2[b0..b0 + KT],
                            &mut q3[b0..b0 + KT],
                        ),
                        (
                            &mut p0[b0..b0 + KT],
                            &mut p1[b0..b0 + KT],
                            &mut p2[b0..b0 + KT],
                            &mut p3[b0..b0 + KT],
                        ),
                        &sb.w1re[tw..tw + KT],
                        &sb.w1im[tw..tw + KT],
                        &sb.w2re[tw..tw + KT],
                        &sb.w2im[tw..tw + KT],
                    );
                }
            }
            for (cr, ci) in br.chunks_exact_mut(4 * KT).zip(bi.chunks_exact_mut(4 * KT)) {
                dif_row::<INV>(
                    split4(cr, KT),
                    split4(ci, KT),
                    &sa.w1re[kt..kt + KT],
                    &sa.w1im[kt..kt + KT],
                    &sa.w2re[kt..kt + KT],
                    &sa.w2im[kt..kt + KT],
                );
            }
            for r in 0..64 {
                rb[r * h + kt..][..KT].copy_from_slice(&br[r * KT..(r + 1) * KT]);
                ib[r * h + kt..][..KT].copy_from_slice(&bi[r * KT..(r + 1) * KT]);
            }
        }
    }
}

/// Runs the wide tail of a DIT band (stages beyond [`MACRO_MAX_H`]),
/// grouping consecutive stages into staged triple/pair sweeps so `m`
/// stages cost `ceil(m/3) .. ceil(m/2)` array sweeps instead of `m`.
fn wide_dit<const INV: bool>(re: &mut [f64], im: &mut [f64], stages: &[Stage]) {
    let mut i = 0;
    let m = stages.len();
    while m - i > 4 {
        staged3_dit::<INV>(re, im, &stages[i], &stages[i + 1], &stages[i + 2]);
        i += 3;
    }
    match m - i {
        4 => {
            staged2_dit::<INV>(re, im, &stages[i], &stages[i + 1]);
            staged2_dit::<INV>(re, im, &stages[i + 2], &stages[i + 3]);
        }
        3 => staged3_dit::<INV>(re, im, &stages[i], &stages[i + 1], &stages[i + 2]),
        2 => staged2_dit::<INV>(re, im, &stages[i], &stages[i + 1]),
        1 => merged_dit::<INV>(re, im, &stages[i]),
        _ => {}
    }
}

/// Mirror of [`wide_dit`]: the same grouping executed in reverse with
/// the DIF staged passes.
fn wide_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], stages: &[Stage]) {
    // Recompute the DIT grouping boundaries.
    let m = stages.len();
    let mut head = 0;
    while m - head > 4 {
        head += 3;
    }
    match m - head {
        4 => {
            staged2_dif::<INV>(re, im, &stages[head + 2], &stages[head + 3]);
            staged2_dif::<INV>(re, im, &stages[head], &stages[head + 1]);
        }
        3 => staged3_dif::<INV>(re, im, &stages[head], &stages[head + 1], &stages[head + 2]),
        2 => staged2_dif::<INV>(re, im, &stages[head], &stages[head + 1]),
        1 => merged_dif::<INV>(re, im, &stages[head]),
        _ => {}
    }
    let mut i = head;
    while i >= 3 {
        staged3_dif::<INV>(re, im, &stages[i - 3], &stages[i - 2], &stages[i - 1]);
        i -= 3;
    }
}

/// Runs a band of consecutive merged DIT stages: narrow stages
/// (`h < MACRO_MIN_H`) as plain merged passes, neighbours between
/// [`MACRO_MIN_H`] and [`MACRO_MAX_H`] paired into in-register radix-16
/// macro passes, and the wide tail grouped into staged L1-tile sweeps.
fn dit_band<const INV: bool>(re: &mut [f64], im: &mut [f64], stages: &[Stage]) {
    let mut i = 0;
    while i < stages.len() && stages[i].h < MACRO_MIN_H {
        merged_dit::<INV>(re, im, &stages[i]);
        i += 1;
    }
    while i + 1 < stages.len() && stages[i].h <= MACRO_MAX_H {
        macro16_dit::<INV>(re, im, &stages[i], &stages[i + 1]);
        i += 2;
    }
    if i + 1 < stages.len() {
        wide_dit::<INV>(re, im, &stages[i..]);
    } else if i < stages.len() {
        merged_dit::<INV>(re, im, &stages[i]);
    }
}

/// Mirror of [`dit_band`] for DIF order: the same grouping run in
/// reverse — unpaired largest stage first, macro pairs descending, then
/// the narrow merged stages descending.
fn dif_band<const INV: bool>(re: &mut [f64], im: &mut [f64], stages: &[Stage]) {
    // Recompute the DIT grouping (pairs occupy fw..pe in steps of two),
    // then run it in reverse.
    let fw = stages.partition_point(|s| s.h < MACRO_MIN_H);
    let mut pe = fw;
    while pe + 1 < stages.len() && stages[pe].h <= MACRO_MAX_H {
        pe += 2;
    }
    if pe + 1 < stages.len() {
        wide_dif::<INV>(re, im, &stages[pe..]);
    } else if pe < stages.len() {
        merged_dif::<INV>(re, im, &stages[pe]);
    }
    let mut i = pe;
    while i >= fw + 2 {
        macro16_dif::<INV>(re, im, &stages[i - 2], &stages[i - 1]);
        i -= 2;
    }
    for s in stages[..fw].iter().rev() {
        merged_dif::<INV>(re, im, s);
    }
}

/// Hierarchical DIT schedule: the L1 band (every stage whose `4h`
/// block fits an L1 block) runs block by block while the block is
/// cache-hot, the L2 band runs over L2-resident blocks, and only the
/// top band sweeps the full array — with macro pairing, a 2^20
/// transform touches the full working set just three times after the
/// bit-reverse instead of ten.
fn soa_dit_passes<const INV: bool>(re: &mut [f64], im: &mut [f64], table: &TwiddleTable) {
    let n = re.len();
    let stages = table.stages();
    let (l1b, l2b) = fft_blocks(n);
    let l1 = stages.partition_point(|s| 4 * s.h <= l1b);
    let l2 = stages.partition_point(|s| 4 * s.h <= l2b);
    let dit_block = |rb: &mut [f64], ib: &mut [f64]| {
        for (r1, i1) in rb.chunks_exact_mut(l1b).zip(ib.chunks_exact_mut(l1b)) {
            if table.has_odd_stage() {
                soa_adjacent(r1, i1);
            }
            dit_band::<INV>(r1, i1, &stages[..l1]);
        }
        dit_band::<INV>(rb, ib, &stages[l1..l2]);
    };
    let pool = smp::Pool::current();
    if pool.size() > 1 && n / l2b >= 2 {
        // The L2 blocks are disjoint and all butterflies in stages
        // below `l2` stay inside one block, so the blocks fan out over
        // the pool with bitwise-identical results.
        let mut parts: Vec<(&mut [f64], &mut [f64])> = re
            .chunks_exact_mut(l2b)
            .zip(im.chunks_exact_mut(l2b))
            .collect();
        pool.run_parts(&mut parts, |_, part| {
            dit_block(&mut part.0[..], &mut part.1[..]);
        });
    } else {
        for (rb, ib) in re.chunks_exact_mut(l2b).zip(im.chunks_exact_mut(l2b)) {
            dit_block(rb, ib);
        }
    }
    dit_band::<INV>(re, im, &stages[l2..]);
}

/// Hierarchical DIF schedule, the mirror of [`soa_dit_passes`]: top
/// band first, then L2 blocks, then L1 blocks finishing with the
/// adjacent stage.
fn soa_dif_passes<const INV: bool>(re: &mut [f64], im: &mut [f64], table: &TwiddleTable) {
    let n = re.len();
    let stages = table.stages();
    let (l1b, l2b) = fft_blocks(n);
    let l1 = stages.partition_point(|s| 4 * s.h <= l1b);
    let l2 = stages.partition_point(|s| 4 * s.h <= l2b);
    dif_band::<INV>(re, im, &stages[l2..]);
    let dif_block = |rb: &mut [f64], ib: &mut [f64]| {
        dif_band::<INV>(rb, ib, &stages[l1..l2]);
        for (r1, i1) in rb.chunks_exact_mut(l1b).zip(ib.chunks_exact_mut(l1b)) {
            dif_band::<INV>(r1, i1, &stages[..l1]);
            if table.has_odd_stage() {
                soa_adjacent(r1, i1);
            }
        }
    };
    let pool = smp::Pool::current();
    if pool.size() > 1 && n / l2b >= 2 {
        let mut parts: Vec<(&mut [f64], &mut [f64])> = re
            .chunks_exact_mut(l2b)
            .zip(im.chunks_exact_mut(l2b))
            .collect();
        pool.run_parts(&mut parts, |_, part| {
            dif_block(&mut part.0[..], &mut part.1[..]);
        });
    } else {
        for (rb, ib) in re.chunks_exact_mut(l2b).zip(im.chunks_exact_mut(l2b)) {
            dif_block(rb, ib);
        }
    }
}

/// Floating-point operations of one radix-2 FFT of length `n`
/// (HPCC's 5 n log2 n convention).
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Naive O(n^2) DFT for validation.
pub fn dft_reference(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, &x) in data.iter().enumerate() {
                let theta = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * Complex::cis(theta);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.7).sin() + 0.3, (t * 1.3).cos() * 0.5)
            })
            .collect()
    }

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn matches_reference_dft() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = signal(n);
            let expect = dft_reference(&x, false);
            let mut got = x.clone();
            fft(&mut got, false);
            for (g, e) in got.iter().zip(&expect) {
                assert!(close(*g, *e, 1e-8 * n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let n = 1024;
        let x = signal(n);
        let mut y = x.clone();
        fft(&mut y, false);
        fft(&mut y, true);
        for (g, e) in y.iter().zip(&x) {
            let scaled = Complex::new(g.re / n as f64, g.im / n as f64);
            assert!(close(scaled, *e, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 512;
        let x = signal(n);
        let mut y = x.clone();
        fft(&mut y, false);
        let ex: f64 = x.iter().map(|c| c.abs() * c.abs()).sum();
        let ey: f64 = y.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-8 * ex);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 16;
        let mut x = vec![Complex::default(); n];
        x[0] = Complex::new(1.0, 0.0);
        fft(&mut x, false);
        for v in &x {
            assert!(close(*v, Complex::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut x = signal(12);
        fft(&mut x, false);
    }

    /// The COBRA-tiled fused bit-reverse must be exactly the plain
    /// pairwise-swap permutation: `fft` (COBRA path) and `bit_reverse`
    /// followed by the shared DIT passes run identical arithmetic, so
    /// the outputs agree bit for bit. Covers even/odd log2 n and middle
    /// widths 0..=7, both directions.
    #[test]
    fn cobra_permutation_matches_plain_bit_reverse() {
        for bits in [10u32, 11, 12, 13, 16, 17] {
            let n = 1usize << bits;
            let x = signal(n);
            for inverse in [false, true] {
                let mut via_plain = x.clone();
                bit_reverse(&mut via_plain);
                dit_in_place(&mut via_plain, inverse);
                let mut via_cobra = x.clone();
                fft(&mut via_cobra, inverse);
                assert_eq!(via_plain, via_cobra, "bits={bits} inverse={inverse}");
            }
        }
    }

    /// Past-the-cache sizes checked against the analytic transform of a
    /// tone mixture: a sum of complex exponentials at power-of-two-free
    /// frequencies maps to isolated spikes of height `amp * n`, which
    /// validates every output position (any permutation or butterfly
    /// error smears the spikes).
    #[test]
    fn large_sizes_match_analytic_tones() {
        for bits in [16u32, 17, 18] {
            let n = 1usize << bits;
            let tones: &[(usize, f64)] = &[(3, 1.0), (n / 5, 0.5), (n / 3, 0.25), (n - 7, 0.125)];
            let mut x = vec![Complex::default(); n];
            for (j, v) in x.iter_mut().enumerate() {
                for &(f, amp) in tones {
                    let theta = 2.0 * std::f64::consts::PI * (f * j % n) as f64 / n as f64;
                    *v = *v + Complex::new(amp * theta.cos(), amp * theta.sin());
                }
            }
            fft(&mut x, false);
            let tol = 1e-7 * n as f64;
            for (k, v) in x.iter().enumerate() {
                let expect = tones
                    .iter()
                    .find(|&&(f, _)| f == k)
                    .map_or(Complex::default(), |&(_, amp)| {
                        Complex::new(amp * n as f64, 0.0)
                    });
                assert!(
                    close(*v, expect, tol),
                    "bits={bits} k={k}: {v:?} vs {expect:?}"
                );
            }
        }
    }

    /// DIF to bit-reversed order, then DIT back to natural order, is the
    /// identity times n — the exact pipeline the distributed FFT and its
    /// verification mirror run.
    #[test]
    fn dif_then_inverse_dit_roundtrips() {
        for n in [2usize, 8, 64, 1024, 4096, 1 << 17] {
            let x = signal(n);
            let mut y = x.clone();
            dif_in_place(&mut y, false);
            dit_in_place(&mut y, true);
            for (g, e) in y.iter().zip(&x) {
                let scaled = Complex::new(g.re / n as f64, g.im / n as f64);
                assert!(close(scaled, *e, 1e-12), "n={n}");
            }
        }
    }

    /// Tables make the transform exact to rounding: the seed kernel's
    /// recurrence drifted at ~1e-9 by n=4096; the table kernel must hold
    /// a 1e-10 round-trip bound with margin.
    #[test]
    fn table_twiddles_hold_tight_roundtrip_error() {
        let n = 4096;
        let x = signal(n);
        let mut y = x.clone();
        fft(&mut y, false);
        fft(&mut y, true);
        let mut worst = 0.0f64;
        for (g, e) in y.iter().zip(&x) {
            let scaled = Complex::new(g.re / n as f64, g.im / n as f64);
            worst = worst.max((scaled - *e).abs());
        }
        assert!(worst < 1e-12, "round-trip error {worst}");
    }

    /// Threaded L2-block schedule: a transform spanning several L2
    /// blocks run under a multi-worker pool is bitwise identical to the
    /// serial schedule — every butterfly below the top band stays
    /// inside one disjoint block.
    #[test]
    fn pooled_fft_matches_serial_bitwise() {
        let n = 4 * smp::TUNED.fft_l2_block; // four L2 blocks to fan out
        let run = |threads: usize, inverse: bool| {
            let _pool = smp::AmbientGuard::install(threads);
            let mut x = signal(n);
            fft(&mut x, inverse);
            x
        };
        for inverse in [false, true] {
            let serial = run(1, inverse);
            for threads in [2, 3] {
                let pooled = run(threads, inverse);
                for (p, s) in pooled.iter().zip(&serial) {
                    assert_eq!(
                        (p.re, p.im),
                        (s.re, s.im),
                        "inverse={inverse} threads={threads}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: the table-driven FFT matches the naive DFT on
        /// random signals across random power-of-two lengths.
        #[test]
        fn random_signals_match_reference_dft(log2_n in 0u32..10, seed in 0u64..(1u64 << 48)) {
            let n = 1usize << log2_n;
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
                    / (1u64 << 53) as f64
                    - 0.5
            };
            let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let expect = dft_reference(&x, false);
            let mut got = x.clone();
            fft(&mut got, false);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!(
                    close(*g, *e, 1e-9 * (n as f64).max(1.0)),
                    "n={} {:?} vs {:?}", n, g, e
                );
            }
        }
    }
}

//! Precomputed FFT twiddle factors: symmetry-folded tables behind a
//! process-wide cache.
//!
//! The seed kernels evaluated `sin`/`cos` (or an error-accumulating
//! `w = w * wlen` recurrence) inside the butterfly loops; here every
//! twiddle the FFT engine touches comes from a table that is computed
//! once per transform length and shared across ranks and iterations via
//! an `Arc` cache. Storage is folded with the exact symmetries of the
//! roots of unity:
//!
//! * only the first quadrant `k in 0..=n/4` of `W_n^k = e^{-2*pi*i*k/n}`
//!   is stored;
//! * within the quadrant, entries above the eighth-wave point come from
//!   the sin/cos swap `W^{n/4-j} = -i * conj(W^j)`, so mirrored entries
//!   are bit-identical to their partners;
//! * the second quadrant is `W^{n/2-j} = -conj(W^j)` and the second half
//!   is `W^{k+n/2} = -W^k`, applied by the accessor, never stored.
//!
//! On top of the folded quarter wave the table carries *stage packs*: the
//! twiddle pairs `(W_{2h}^k, W_{4h}^k)` each merged radix-2^2 butterfly
//! stage of the iterative kernels consumes, laid out contiguously so the
//! inner loops are branch-free sequential loads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::fft::Complex;

/// Twiddle pairs for one merged radix-2^2 DIF stage: its butterfly
/// spans `4h` first (`W_{4h}^k`), then `2h` (`W_{2h}^k`).
///
/// The pairs are stored twice: interleaved as `Complex` (the layout the
/// tests validate against) and as four split-complex planes, which is
/// what the vectorized butterfly kernels load — plane-separated `f64`
/// streams keep the inner loops free of shuffles so they compile to
/// packed FMA. Dropping the interleaved copy (22 MB of a cached 2^21-point
/// table) left the table small enough to share a glibc arena heap with an
/// FFT's transient planes, which the heap then kept: a `native_kernels`
/// process peaked ~45 MB higher, not lower.
pub(crate) struct Stage {
    /// The stage's half-pair parameter: butterflies combine elements at
    /// distances `h` and `2h` within blocks of `4h`.
    pub h: usize,
    /// Interleaved per butterfly index `k < h`:
    /// `w[2k] = W_{2h}^k`, `w[2k+1] = W_{4h}^k` (forward sign).
    pub w: Vec<Complex>,
    /// `Re W_{2h}^k` for `k < h` (split-complex plane of `w[2k]`).
    pub w1re: Vec<f64>,
    /// `Im W_{2h}^k` for `k < h`.
    pub w1im: Vec<f64>,
    /// `Re W_{4h}^k` for `k < h` (split-complex plane of `w[2k+1]`).
    pub w2re: Vec<f64>,
    /// `Im W_{4h}^k` for `k < h`.
    pub w2im: Vec<f64>,
}

/// Forward twiddle table for one power-of-two transform length.
pub struct TwiddleTable {
    n: usize,
    /// `W_n^k` for `k in 0..=n/4`, forward sign (`e^{-2*pi*i*k/n}`).
    quarter: Vec<Complex>,
    /// Stage packs for the merged radix-2^2 kernels, ascending `h`.
    stages: Vec<Stage>,
}

impl TwiddleTable {
    /// Whether the merged stages are followed by a single twiddle-free
    /// radix-2 stage (odd `log2 n`).
    #[inline]
    pub(crate) fn has_odd_stage(&self) -> bool {
        self.n >= 2 && self.n.trailing_zeros() % 2 == 1
    }

    /// The merged radix-2^2 stage packs, ascending in `h`.
    #[inline]
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Forward twiddle `W_n^k = e^{-2*pi*i*k/n}` for any `k < n`,
    /// reconstructed from the folded quarter-wave storage.
    #[inline]
    pub(crate) fn w_forward(&self, k: usize) -> Complex {
        debug_assert!(
            k < self.n,
            "twiddle index {k} out of range for n={}",
            self.n
        );
        let half = self.n / 2;
        if k >= half {
            let w = self.w_first_half(k - half);
            Complex::new(-w.re, -w.im)
        } else {
            self.w_first_half(k)
        }
    }

    /// Twiddle with the transform direction folded in: forward for
    /// `inverse = false`, conjugate for `inverse = true`.
    #[inline]
    pub(crate) fn w(&self, k: usize, inverse: bool) -> Complex {
        let w = self.w_forward(k);
        if inverse {
            w.conj()
        } else {
            w
        }
    }

    /// `W_n^k` for `k < n/2` via the second-quadrant fold
    /// `W^{n/2-j} = -conj(W^j)`.
    #[inline]
    fn w_first_half(&self, k: usize) -> Complex {
        let quart = self.n / 4;
        if k <= quart {
            self.quarter[k]
        } else {
            let w = self.quarter[self.n / 2 - k];
            Complex::new(-w.re, w.im)
        }
    }

    fn build(n: usize) -> TwiddleTable {
        assert!(n.is_power_of_two(), "twiddle tables need a power of two");
        if n < 4 {
            // n <= 2 only ever uses W^0 = 1.
            return TwiddleTable {
                n,
                quarter: vec![Complex::new(1.0, 0.0)],
                stages: Vec::new(),
            };
        }

        // First quadrant, folded again at the eighth-wave point: entries
        // k <= n/8 are evaluated directly, the rest come from the exact
        // sin/cos swap W^{n/4-j} = -i * conj(W^j) = (sin t_j, -cos t_j).
        let quart = n / 4;
        let eighth = n / 8;
        let mut quarter = vec![Complex::default(); quart + 1];
        for (k, w) in quarter.iter_mut().enumerate().take(eighth + 1) {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            *w = Complex::new(theta.cos(), theta.sin());
        }
        for k in eighth + 1..=quart {
            let m = quarter[quart - k];
            quarter[k] = Complex::new(-m.im, -m.re);
        }
        // Pin the exact lattice points.
        quarter[0] = Complex::new(1.0, 0.0);
        quarter[quart] = Complex::new(0.0, -1.0);
        if n >= 8 {
            use std::f64::consts::FRAC_1_SQRT_2;
            quarter[eighth] = Complex::new(FRAC_1_SQRT_2, -FRAC_1_SQRT_2);
        }

        let mut table = TwiddleTable {
            n,
            quarter,
            stages: Vec::new(),
        };

        // Stage packs: h starts at 1 (even log2 n) or 2 (odd, after the
        // twiddle-free radix-2 stage) and advances by factors of 4.
        let mut h = if table.has_odd_stage() { 2 } else { 1 };
        while 4 * h <= n {
            let mut stage = Stage {
                h,
                w: Vec::with_capacity(2 * h),
                w1re: Vec::with_capacity(h),
                w1im: Vec::with_capacity(h),
                w2re: Vec::with_capacity(h),
                w2im: Vec::with_capacity(h),
            };
            for k in 0..h {
                // W_{2h}^k and W_{4h}^k as strided reads of W_n.
                let w1 = table.w_forward(k * (n / (2 * h)));
                let w2 = table.w_forward(k * (n / (4 * h)));
                stage.w.push(w1);
                stage.w.push(w2);
                stage.w1re.push(w1.re);
                stage.w1im.push(w1.im);
                stage.w2re.push(w2.re);
                stage.w2im.push(w2.im);
            }
            table.stages.push(stage);
            h *= 4;
        }
        table
    }
}

/// Process-wide table cache: each length is computed once and shared
/// (`Arc`) across every rank, transform and iteration that needs it.
pub fn table_for(n: usize) -> Arc<TwiddleTable> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<TwiddleTable>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(t) = cache.lock().expect("twiddle cache poisoned").get(&n) {
        return Arc::clone(t);
    }
    // Build outside the lock so concurrent ranks are not serialised on
    // the trig evaluation; the second builder loses and drops its copy.
    let fresh = Arc::new(TwiddleTable::build(n));
    let mut map = cache.lock().expect("twiddle cache poisoned");
    Arc::clone(map.entry(n).or_insert(fresh))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cis_forward(k: usize, n: usize) -> Complex {
        Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
    }

    /// Satellite: every symmetry-folded entry must agree with a direct
    /// `cis` evaluation of the same root of unity.
    #[test]
    fn folded_entries_match_direct_cis() {
        for n in [4usize, 8, 16, 64, 256, 1024, 4096] {
            let t = table_for(n);
            for k in 0..n {
                let got = t.w_forward(k);
                let expect = cis_forward(k, n);
                assert!(
                    (got - expect).abs() < 1e-12,
                    "n={n} k={k}: {got:?} vs {expect:?}"
                );
            }
        }
    }

    #[test]
    fn lattice_points_are_exact() {
        let t = table_for(64);
        assert_eq!(t.w_forward(0), Complex::new(1.0, 0.0));
        assert_eq!(t.w_forward(16), Complex::new(0.0, -1.0));
        assert_eq!(t.w_forward(32), Complex::new(-1.0, 0.0));
        assert_eq!(t.w_forward(48), Complex::new(0.0, 1.0));
        // Eighth-wave mirror pairs are bit-identical in |re|/|im| swap.
        let w8 = t.w_forward(8);
        assert_eq!(w8.re, -w8.im);
    }

    #[test]
    fn stage_packs_match_direct_cis() {
        for n in [8usize, 16, 128, 1024] {
            let t = table_for(n);
            for stage in t.stages() {
                for k in 0..stage.h {
                    let w1 = stage.w[2 * k];
                    let w2 = stage.w[2 * k + 1];
                    assert!((w1 - cis_forward(k, 2 * stage.h)).abs() < 1e-12);
                    assert!((w2 - cis_forward(k, 4 * stage.h)).abs() < 1e-12);
                    // Split-complex planes are bit-identical to the pack.
                    assert_eq!((stage.w1re[k], stage.w1im[k]), (w1.re, w1.im));
                    assert_eq!((stage.w2re[k], stage.w2im[k]), (w2.re, w2.im));
                }
            }
            // Stage structure covers every butterfly length exactly once.
            let merged: u32 = t.stages().iter().map(|_| 2).sum();
            let odd = u32::from(t.has_odd_stage());
            assert_eq!(merged + odd, n.trailing_zeros());
        }
    }

    #[test]
    fn inverse_direction_is_the_conjugate() {
        let t = table_for(32);
        for k in 0..32 {
            let f = t.w(k, false);
            let i = t.w(k, true);
            assert_eq!(f.re, i.re);
            assert_eq!(f.im, -i.im);
        }
    }

    #[test]
    fn cache_shares_one_table_per_length() {
        let a = table_for(512);
        let b = table_for(512);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one table");
        let c = table_for(256);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}

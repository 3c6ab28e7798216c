//! Double-precision matrix multiplication: the DGEMM kernel behind
//! EP-DGEMM and the trailing-matrix updates of both HPL variants.
//!
//! The implementation is a packed, register-blocked GEMM in the BLIS
//! style: operand panels are packed into contiguous micro-panel buffers
//! (`MR`-row slivers of A, `NR`-column slivers of B) sized to stay cache
//! resident, and an `MR x NR` register-accumulator microkernel streams
//! through them with one broadcast-multiply-accumulate per element. Edges
//! are handled by zero-padding the packed slivers, so the microkernel
//! always runs full tiles and only the final accumulate into C is ragged.
//! When the build target has FMA (the workspace `.cargo/config.toml`
//! compiles with `target-cpu=native`), the accumulate lowers to fused
//! multiply-adds; elsewhere a portable mul+add body is used.
//!
//! The general entry point is [`gemm_update`]: a rectangular, arbitrary-
//! stride `C += alpha * A * B`, which serves row-major kernels (EP-DGEMM)
//! and the column-major trailing updates of `hpl`.
//!
//! ## Threading and tuning
//!
//! `gemm_update` consults the ambient [`smp::Pool`]: with more than one
//! worker it splits `C` along whichever of M/N yields disjoint
//! contiguous subslices (boundaries aligned to the register block) and
//! runs the serial packed GEMM on each part. Per-element summation
//! order depends only on the `KC` depth blocking — never on how M or N
//! are partitioned — so the threaded result is **bitwise identical** to
//! the single-thread result. Macro-blocking parameters (`MC`/`NC`/`KC`)
//! are the constants in [`smp::TUNED`].

/// Microkernel register block: `MR x NR` f64 accumulators.
pub const MR: usize = 8;
/// Microkernel register block width.
pub const NR: usize = 8;

// Packed slivers tile a macro block exactly.
const _: () = assert!(smp::TUNED.dgemm_mc.is_multiple_of(MR));
const _: () = assert!(smp::TUNED.dgemm_nc.is_multiple_of(NR));

/// Below this `m * n * k` volume the thread-split overhead outweighs
/// the work; run serial regardless of pool size.
const SPLIT_MIN_VOLUME: usize = 1 << 16;

/// Macro-blocking parameters `(MC, NC, KC)`.
fn blocking() -> (usize, usize, usize) {
    let t = smp::TUNED;
    (t.dgemm_mc, t.dgemm_nc, t.dgemm_kc)
}

/// `C += A * B` for row-major `n x n` matrices (the EP-DGEMM shape).
pub fn dgemm(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), n * n, "A must be n x n");
    assert_eq!(b.len(), n * n, "B must be n x n");
    assert_eq!(c.len(), n * n, "C must be n x n");
    gemm_update(n, n, n, 1.0, a, n, 1, b, n, 1, c, n, 1);
}

/// Rectangular strided GEMM: `C += alpha * A * B` where `A` is `m x k`,
/// `B` is `k x n` and `C` is `m x n`.
///
/// Each operand is addressed as `x[i * rs + j * cs]`, so both row-major
/// (`rs = width, cs = 1`) and column-major (`rs = 1, cs = height`)
/// storage — and sub-views of either — plug in directly. All layouts are
/// packed into the same contiguous micro-panel format before the
/// microkernel runs, so the stride choice does not change the hot loop.
#[allow(clippy::too_many_arguments)]
pub fn gemm_update(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    rsa: usize,
    csa: usize,
    b: &[f64],
    rsb: usize,
    csb: usize,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    assert!(
        (m - 1) * rsa + (k - 1) * csa < a.len(),
        "A view out of bounds: m={m} k={k} rsa={rsa} csa={csa} len={}",
        a.len()
    );
    assert!(
        (k - 1) * rsb + (n - 1) * csb < b.len(),
        "B view out of bounds: k={k} n={n} rsb={rsb} csb={csb} len={}",
        b.len()
    );
    assert!(
        (m - 1) * rsc + (n - 1) * csc < c.len(),
        "C view out of bounds: m={m} n={n} rsc={rsc} csc={csc} len={}",
        c.len()
    );

    let pool = smp::Pool::current();
    let threads = pool.size();
    if threads <= 1 || m * n * k < SPLIT_MIN_VOLUME {
        return gemm_update_serial(m, n, k, alpha, a, rsa, csa, b, rsb, csb, c, rsc, csc);
    }

    // A dimension is splittable when its C subslices are disjoint
    // contiguous ranges: columns [j0, j1) span c[j0*csc .. j1*csc) iff
    // every row offset fits inside one column stride (and dually for
    // rows). Both row-major and column-major C satisfy exactly one of
    // these; exotic interleaved strides fall back to serial.
    let n_splittable = csc > (m - 1) * rsc;
    let m_splittable = rsc > (n - 1) * csc;

    if n_splittable && (n >= m || !m_splittable) {
        // Split C by column bands; each part sees the matching columns
        // of B and all of A.
        let ranges = smp::pool::chunk_ranges(n, threads, NR);
        let mut parts: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(ranges.len());
        let mut rest = c;
        let mut off = 0usize;
        for (i, r) in ranges.iter().enumerate() {
            let end = if i + 1 < ranges.len() {
                ranges[i + 1].start * csc
            } else {
                off + rest.len()
            };
            let (head, tail) = rest.split_at_mut(end - off);
            off = end;
            rest = tail;
            parts.push((r.start, r.len(), head));
        }
        pool.run_parts(&mut parts, |_, part| {
            let (j0, nn, cpart) = part;
            gemm_update_serial(
                m,
                *nn,
                k,
                alpha,
                a,
                rsa,
                csa,
                &b[*j0 * csb..],
                rsb,
                csb,
                &mut cpart[..],
                rsc,
                csc,
            );
        });
    } else if m_splittable {
        // Split C by row bands; each part sees the matching rows of A
        // and all of B.
        let ranges = smp::pool::chunk_ranges(m, threads, MR);
        let mut parts: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(ranges.len());
        let mut rest = c;
        let mut off = 0usize;
        for (i, r) in ranges.iter().enumerate() {
            let end = if i + 1 < ranges.len() {
                ranges[i + 1].start * rsc
            } else {
                off + rest.len()
            };
            let (head, tail) = rest.split_at_mut(end - off);
            off = end;
            rest = tail;
            parts.push((r.start, r.len(), head));
        }
        pool.run_parts(&mut parts, |_, part| {
            let (i0, mm, cpart) = part;
            gemm_update_serial(
                *mm,
                n,
                k,
                alpha,
                &a[*i0 * rsa..],
                rsa,
                csa,
                b,
                rsb,
                csb,
                &mut cpart[..],
                rsc,
                csc,
            );
        });
    } else {
        gemm_update_serial(m, n, k, alpha, a, rsa, csa, b, rsb, csb, c, rsc, csc);
    }
}

/// The serial packed GEMM core: macro-blocked loops around the
/// register microkernel, blocking parameters from the host tuning
/// table. Callers guarantee in-bounds views.
#[allow(clippy::too_many_arguments)]
fn gemm_update_serial(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    rsa: usize,
    csa: usize,
    b: &[f64],
    rsb: usize,
    csb: usize,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    let (mc_blk, nc_blk, kc_blk) = blocking();
    let mut apack = vec![0.0f64; mc_blk * kc_blk];
    let mut bpack = vec![0.0f64; kc_blk * nc_blk];

    for jc in (0..n).step_by(nc_blk) {
        let nc = nc_blk.min(n - jc);
        let nr_panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(kc_blk) {
            let kc = kc_blk.min(k - pc);
            pack_b(&mut bpack, b, pc, jc, kc, nc, rsb, csb, alpha);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                let mr_panels = mc.div_ceil(MR);
                pack_a(&mut apack, a, ic, pc, mc, kc, rsa, csa);
                for jp in 0..nr_panels {
                    let jr = jp * NR;
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                    for ip in 0..mr_panels {
                        let ir = ip * MR;
                        let mr = MR.min(mc - ir);
                        let ap = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                        let mut acc = [[0.0f64; NR]; MR];
                        microkernel(kc, ap, bp, &mut acc);
                        // Ragged-edge accumulate: only the valid mr x nr
                        // corner of the padded tile lands in C.
                        for (i, row) in acc.iter().enumerate().take(mr) {
                            let cbase = (ic + ir + i) * rsc + (jc + jr) * csc;
                            for (j, &v) in row.iter().enumerate().take(nr) {
                                c[cbase + j * csc] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packs an `mc x kc` block of A into `MR`-row micro-panels laid out
/// depth-major (`panel[p * MR + i]`), zero-padding the last panel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    apack: &mut [f64],
    a: &[f64],
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    rsa: usize,
    csa: usize,
) {
    for ip in 0..mc.div_ceil(MR) {
        let ir = ip * MR;
        let mr = MR.min(mc - ir);
        let panel = &mut apack[ip * kc * MR..(ip + 1) * kc * MR];
        for p in 0..kc {
            let sliver = &mut panel[p * MR..(p + 1) * MR];
            for i in 0..mr {
                sliver[i] = a[(ic + ir + i) * rsa + (pc + p) * csa];
            }
            sliver[mr..].fill(0.0);
        }
    }
}

/// Packs a `kc x nc` block of B into `NR`-column micro-panels laid out
/// depth-major (`panel[p * NR + j]`), folding `alpha` in and zero-padding
/// the last panel.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bpack: &mut [f64],
    b: &[f64],
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    rsb: usize,
    csb: usize,
    alpha: f64,
) {
    for jp in 0..nc.div_ceil(NR) {
        let jr = jp * NR;
        let nr = NR.min(nc - jr);
        let panel = &mut bpack[jp * kc * NR..(jp + 1) * kc * NR];
        for p in 0..kc {
            let sliver = &mut panel[p * NR..(p + 1) * NR];
            let bbase = (pc + p) * rsb + (jc + jr) * csb;
            for j in 0..nr {
                sliver[j] = alpha * b[bbase + j * csb];
            }
            sliver[nr..].fill(0.0);
        }
    }
}

/// Fused multiply-add when the target guarantees a hardware FMA (then
/// `mul_add` is a single `vfmadd` instruction); plain multiply-add
/// otherwise, where `mul_add` would fall back to a slow libm call.
#[cfg(target_feature = "fma")]
#[inline(always)]
fn madd(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

#[cfg(not(target_feature = "fma"))]
#[inline(always)]
fn madd(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

/// The register-blocked inner loop: `acc += Ap * Bp` over `kc` depth
/// steps, where `Ap` is an `MR`-row sliver and `Bp` an `NR`-column
/// sliver of the packed operands. The fixed-trip `MR`/`NR` loops unroll
/// and vectorise: each depth step is `MR` broadcast-multiply-accumulate
/// updates of an `NR`-wide accumulator row held in registers.
fn microkernel(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    let (ap, bp) = (&ap[..kc * MR], &bp[..kc * NR]);
    for p in 0..kc {
        let asl = &ap[p * MR..p * MR + MR];
        let bsl = &bp[p * NR..p * NR + NR];
        for i in 0..MR {
            let ai = asl[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] = madd(ai, bsl[j], row[j]);
            }
        }
    }
}

/// Floating-point operations performed by one `n x n` DGEMM.
pub fn dgemm_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Reference (naive) triple loop, for validation.
pub fn dgemm_reference(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_reference(n, n, n, 1.0, a, n, 1, b, n, 1, c, n, 1);
}

/// Strided reference GEMM (`C += alpha * A * B`), for validating
/// [`gemm_update`] across layouts and shapes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    rsa: usize,
    csa: usize,
    b: &[f64],
    rsb: usize,
    csb: usize,
    c: &mut [f64],
    rsc: usize,
    csc: usize,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * rsa + p * csa] * b[p * rsb + j * csb];
            }
            c[i * rsc + j * csc] += alpha * acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_reference_various_sizes() {
        // Exercise full tiles, ragged edges, and sub-tile matrices.
        for n in [1, 2, 7, 48, 49, 100] {
            let a = fill(n * n, 1);
            let b = fill(n * n, 2);
            let mut c1 = fill(n * n, 3);
            let mut c2 = c1.clone();
            dgemm(n, &a, &b, &mut c1);
            dgemm_reference(n, &a, &b, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-10, "n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn rectangular_shapes_match_reference() {
        // m != n != k, prime sizes, sub-tile sizes, blocking-boundary
        // straddlers.
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (17, 13, 29),
            (8, 8, 8),
            (9, 7, 65),
            (65, 64, 63),
            (100, 3, 257),
            (2, 300, 5),
            (31, 257, 31),
        ] {
            let a = fill(m * k, 11);
            let b = fill(k * n, 22);
            let mut c1 = fill(m * n, 33);
            let mut c2 = c1.clone();
            gemm_update(m, n, k, 1.0, &a, k, 1, &b, n, 1, &mut c1, n, 1);
            gemm_reference(m, n, k, 1.0, &a, k, 1, &b, n, 1, &mut c2, n, 1);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-10, "m={m} n={n} k={k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn column_major_and_negative_alpha() {
        // The HPL trailing-update shape: column-major views, alpha = -1.
        let (m, n, k) = (37, 23, 17);
        let a = fill(m * k, 5); // column-major m x k: a[i + p*m]
        let b = fill(k * n, 6); // column-major k x n: b[p + j*k]
        let mut c1 = fill(m * n, 7); // column-major m x n
        let mut c2 = c1.clone();
        gemm_update(m, n, k, -1.0, &a, 1, m, &b, 1, k, &mut c1, 1, m);
        gemm_reference(m, n, k, -1.0, &a, 1, m, &b, 1, k, &mut c2, 1, m);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn mixed_layouts_match() {
        // Row-major A, column-major B and C.
        let (m, n, k) = (19, 31, 41);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let mut c1 = fill(m * n, 10);
        let mut c2 = c1.clone();
        gemm_update(m, n, k, 0.5, &a, k, 1, &b, 1, k, &mut c1, 1, m);
        gemm_reference(m, n, k, 0.5, &a, k, 1, &b, 1, k, &mut c2, 1, m);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_sized_and_zero_alpha_are_noops() {
        let a = fill(16, 1);
        let b = fill(16, 2);
        let mut c = fill(16, 3);
        let before = c.clone();
        gemm_update(0, 4, 4, 1.0, &a, 4, 1, &b, 4, 1, &mut c, 4, 1);
        gemm_update(4, 0, 4, 1.0, &a, 4, 1, &b, 4, 1, &mut c, 4, 1);
        gemm_update(4, 4, 0, 1.0, &a, 4, 1, &b, 4, 1, &mut c, 4, 1);
        gemm_update(4, 4, 4, 0.0, &a, 4, 1, &b, 4, 1, &mut c, 4, 1);
        assert_eq!(c, before);
    }

    #[test]
    fn identity_multiplication() {
        let n = 10;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let a = fill(n * n, 7);
        let mut c = vec![0.0; n * n];
        dgemm(n, &a, &eye, &mut c);
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulates_into_c() {
        let n = 4;
        let a = fill(n * n, 1);
        let b = fill(n * n, 2);
        let mut c = vec![1.0; n * n];
        dgemm(n, &a, &b, &mut c);
        let mut expect = vec![1.0; n * n];
        dgemm_reference(n, &a, &b, &mut expect);
        // Blocking reorders the summation; compare within rounding noise.
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(100), 2e6);
    }
}

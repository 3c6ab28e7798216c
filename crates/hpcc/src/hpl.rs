//! G-HPL: the High Performance LINPACK benchmark — solving a dense linear
//! system by right-looking LU factorisation with partial pivoting,
//! distributed over `mp` ranks.
//!
//! Distribution: block-cyclic, square blocks of `nb`, over a `P x Q`
//! process grid with ranks numbered row-major — the ScaLAPACK/HPL layout,
//! with `P` an input ([`HplConfig::p_rows`]). Each iteration
//!
//! 1. the process column owning the panel factors it, one all-gather per
//!    column choosing the pivot *and* carrying the winning row;
//! 2. pivots and factored panel travel along process rows in one
//!    broadcast;
//! 3. every rank applies the row interchanges to its other columns;
//! 4. the process row owning the block row solves `L11 U12 = A12` and
//!    broadcasts U12 down process columns;
//! 5. every rank applies the rank-`nb` trailing update to its corner —
//!
//! HPL's `pfact / bcast / update` pipeline, always with panel lookahead:
//! the process column owning panel `k+1` factors it as soon as its columns
//! are updated, before finishing the rest of its trailing update for
//! panel `k`, overlapping the next factor with everyone else's update.
//! With `P = 1` every rank holds full columns and steps 1, 3 and 4 are
//! local: the column-cyclic LU is the `1 x Q` grid of this code, not a
//! second one. The O(N^2) triangular solve is performed on rank 0 after a
//! gather (the factorisation dominates at 2/3 N^3 flops).
//!
//! Grid shape changes the schedule and the messages, never the
//! arithmetic: pivot ties go to the lowest row on every grid and every
//! element sees the same operations in the same order, so the residual is
//! bit-identical across all of them (DESIGN.md "One HPL").

// Index-heavy distributed linear algebra: explicit indices mirror the
// block-cyclic maths.
#![allow(clippy::needless_range_loop)]

use std::ops::Range;

use mp::Comm;

use crate::kernels::dgemm::gemm_update;

/// Problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Matrix order.
    pub n: usize,
    /// Block size: panel width and block-cyclic tile edge.
    pub nb: usize,
    /// Process rows `P`; the grid is `P x Q` with `Q = comm.size() / P`.
    /// 1 gives every rank full columns.
    pub p_rows: usize,
}

impl Default for HplConfig {
    fn default() -> HplConfig {
        HplConfig {
            n: 512,
            nb: smp::TUNED.hpl_nb,
            p_rows: 1,
        }
    }
}

impl HplConfig {
    /// Picks the most nearly square grid that tiles `size` ranks (a prime
    /// world falls back to `1 x size`).
    pub(crate) fn near_square(n: usize, nb: usize, size: usize) -> HplConfig {
        let mut p = (size as f64).sqrt() as usize;
        while p > 1 && !size.is_multiple_of(p) {
            p -= 1;
        }
        HplConfig {
            n,
            nb,
            p_rows: p.max(1),
        }
    }
}

/// Benchmark outcome.
#[derive(Clone, Copy, Debug)]
pub struct HplResult {
    /// Matrix order solved.
    pub n: usize,
    /// Sustained Gflop/s (2/3 N^3 + 2 N^2 over the measured time).
    pub gflops: f64,
    /// Wall time of factorisation + solve, seconds.
    pub time_s: f64,
    /// Scaled residual `||Ax-b||_inf / (eps (||A|| ||x|| + ||b||) N)`.
    pub residual: f64,
    /// Whether the residual passes HPL's threshold (16.0).
    pub passed: bool,
}

/// Deterministic matrix element in [-0.5, 0.5) (every rank generates its
/// own columns without communication).
pub(crate) fn matrix_element(i: usize, j: usize) -> f64 {
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Deterministic right-hand-side element.
pub(crate) fn rhs_element(i: usize) -> f64 {
    matrix_element(i, usize::MAX / 2)
}

/// Global indices owned by coordinate `coord` of a grid axis of `grid`
/// processes, ascending.
fn owned(n: usize, nb: usize, grid: usize, coord: usize) -> Vec<usize> {
    (0..n).filter(|i| (i / nb) % grid == coord).collect()
}

/// The global rows and columns of `rank` on a `P x Q` grid.
fn owned_by(n: usize, nb: usize, (p, q): (usize, usize), rank: usize) -> (Vec<usize>, Vec<usize>) {
    (owned(n, nb, p, rank / q), owned(n, nb, q, rank % q))
}

/// Local block-cyclic storage: the rows and columns this rank owns,
/// column-major as `data[lc * rows.len() + lr]`. Both index lists
/// ascend, so "global index `>= g`" is a suffix of either, and a block
/// (never split across processes) is a contiguous run.
struct Local {
    /// Global row index of each local row.
    rows: Vec<usize>,
    /// Global column index of each local column.
    cols: Vec<usize>,
    data: Vec<f64>,
}

impl Local {
    fn generate(n: usize, nb: usize, grid: (usize, usize), rank: usize) -> Local {
        let (rows, cols) = owned_by(n, nb, grid, rank);
        let lrows = rows.len();
        let mut data = vec![0.0f64; lrows * cols.len()];
        for (lc, &gc) in cols.iter().enumerate() {
            for (lr, &gr) in rows.iter().enumerate() {
                data[lc * lrows + lr] = matrix_element(gr, gc);
            }
        }
        Local { rows, cols, data }
    }

    fn lrows(&self) -> usize {
        self.rows.len()
    }

    /// First local row whose global index is `>= g`.
    fn lr_from(&self, g: usize) -> usize {
        self.rows.partition_point(|&gr| gr < g)
    }

    /// First local column whose global index is `>= g`.
    fn lc_from(&self, g: usize) -> usize {
        self.cols.partition_point(|&gc| gc < g)
    }
}

/// One axis of the process grid as this rank sees it: the ranks of its
/// process row or column, indexed by the other coordinate. An axis of one
/// rank has no communicator — its collectives are identities — so a
/// `1 x Q` grid puts nothing on the wire the column algorithm does not.
#[derive(Clone, Copy)]
struct Axis<'a>(Option<&'a Comm>);

impl<'a> Axis<'a> {
    /// The degenerate-communicator rule: one rank needs none, an axis as
    /// long as the world *is* the world, and only a proper `P x Q` grid
    /// pays for a `split`.
    fn new(len: usize, split: &'a Option<Comm>, world: &'a Comm) -> Axis<'a> {
        Axis((len > 1).then(|| split.as_ref().unwrap_or(world)))
    }

    fn size(self) -> usize {
        self.0.map_or(1, Comm::size)
    }

    fn rank(self) -> usize {
        self.0.map_or(0, Comm::rank)
    }

    async fn bcast(self, buf: &mut [f64], root: usize) {
        if let Some(comm) = self.0 {
            comm.bcast_async(buf, root).await;
        }
    }

    async fn allgather(self, mine: &[f64], all: &mut [f64]) {
        match self.0 {
            Some(comm) => comm.allgather_async(mine, all).await,
            None => all.copy_from_slice(mine),
        }
    }
}

/// Swaps global rows `ga` and `gb` across the local columns `lcs`: in
/// place when one process row owns both, otherwise by exchange between
/// the two owners. Collective over the process column `col`, which must
/// pass the same `lcs` on every rank.
async fn swap_rows(
    local: &mut Local,
    col: Axis<'_>,
    nb: usize,
    ga: usize,
    gb: usize,
    lcs: impl Iterator<Item = usize> + Clone,
) {
    const TAG: mp::Tag = 29;
    if ga == gb {
        return;
    }
    let (owner_a, owner_b) = ((ga / nb) % col.size(), (gb / nb) % col.size());
    let me = col.rank();
    if me != owner_a && me != owner_b {
        return;
    }
    let lrows = local.lrows();
    let (la, lb) = (local.lr_from(ga), local.lr_from(gb));
    if owner_a == owner_b {
        for lc in lcs {
            local.data.swap(lc * lrows + la, lc * lrows + lb);
        }
    } else {
        let (lr, peer) = if me == owner_a {
            (la, owner_b)
        } else {
            (lb, owner_a)
        };
        let mine: Vec<f64> = lcs.clone().map(|lc| local.data[lc * lrows + lr]).collect();
        let mut theirs = vec![0.0f64; mine.len()];
        col.0
            .expect("two owners make a communicator")
            .sendrecv_async(&mine, peer, &mut theirs, peer, TAG)
            .await;
        for (lc, v) in lcs.zip(theirs) {
            local.data[lc * lrows + lr] = v;
        }
    }
}

/// Factors the panel `[k0, k1)` in place (partial pivoting, column
/// scaling, in-panel elimination), collectively over the process column
/// `col` that owns it, and returns the broadcast payload: `kw` pivot rows
/// followed by the factored panel columns (my rows `>= k0` of each).
/// Caller guarantees the panel columns are fully updated through
/// iteration `k0/nb - 1`.
///
/// The pivot search is fused with the pivot-row transport: each rank's
/// all-gather contribution is `[best, best_row, that row of the panel]`,
/// so once the winner is chosen every rank holds the pivot row — one
/// collective per column, none on a one-rank axis.
async fn factor_panel(
    local: &mut Local,
    col: Axis<'_>,
    nb: usize,
    k0: usize,
    k1: usize,
) -> Vec<f64> {
    let kw = k1 - k0;
    let lrows = local.lrows();
    // A block lives in one process column: the panel is kw adjacent
    // local columns.
    let lc0 = local.lc_from(k0);
    let stride = 2 + kw;
    let mut contrib = vec![0.0f64; stride];
    let mut all = vec![0.0f64; stride * col.size()];
    let lr_k0 = local.lr_from(k0);
    let height = lrows - lr_k0;
    let mut payload = vec![0.0f64; kw + kw * height];
    for j in 0..kw {
        let gj = k0 + j;
        // My pivot candidate in column j: rows gj.. are a local suffix.
        let lr_j = local.lr_from(gj);
        let (mut best, mut best_lr) = (-1.0f64, lr_j);
        for (lr, v) in local.data[(lc0 + j) * lrows..][lr_j..lrows]
            .iter()
            .enumerate()
        {
            if v.abs() > best {
                (best, best_lr) = (v.abs(), lr_j + lr);
            }
        }
        contrib[0] = best;
        if lr_j < lrows {
            contrib[1] = local.rows[best_lr] as f64;
            for c in 0..kw {
                contrib[2 + c] = local.data[(lc0 + c) * lrows + best_lr];
            }
        }
        // Global argmax over the process column; ties to the lowest row,
        // which is what serial partial pivoting picks.
        col.allgather(&contrib, &mut all).await;
        let (mut gbest, mut grow, mut win) = (0.0f64, usize::MAX, 0usize);
        for c in 0..col.size() {
            let (v, r) = (all[stride * c], all[stride * c + 1] as usize);
            if v > gbest || (v == gbest && r < grow) {
                (gbest, grow, win) = (v, r, c);
            }
        }
        assert!(gbest > 0.0, "HPL hit an exactly singular pivot");
        payload[j] = grow as f64;
        let urow = &all[stride * win + 2..][..kw];

        // Swap within the panel columns only; the others follow after
        // the broadcast.
        swap_rows(local, col, nb, gj, grow, lc0..lc0 + kw).await;

        // Scale my part of L's column j and eliminate within the panel,
        // one column at a time (unit stride).
        let below = local.lr_from(gj + 1);
        let (left, right) =
            local.data[lc0 * lrows..(lc0 + kw) * lrows].split_at_mut((j + 1) * lrows);
        let l = &mut left[j * lrows + below..];
        // (Scalars hoisted: a load from `all` inside the loops keeps them
        // from vectorising.)
        let ajj = urow[j];
        for v in l.iter_mut() {
            *v /= ajj;
        }
        for c in j + 1..kw {
            let target = &mut right[(c - j - 1) * lrows + below..(c - j) * lrows];
            let u = urow[c];
            for (x, lv) in target.iter_mut().zip(l.iter()) {
                *x -= u * lv;
            }
        }
    }
    for j in 0..kw {
        let src = &local.data[(lc0 + j) * lrows + lr_k0..(lc0 + j + 1) * lrows];
        payload[kw + j * height..][..height].copy_from_slice(src);
    }
    payload
}

/// Runs G-HPL on `comm`. All ranks receive the same result.
pub fn run(comm: &Comm, cfg: &HplConfig) -> HplResult {
    mp::block_on(run_async(comm, cfg))
}

/// Awaitable mirror of [`run`], for cooperative rank tasks.
pub(crate) async fn run_async(comm: &Comm, cfg: &HplConfig) -> HplResult {
    let (n, nb) = (cfg.n, cfg.nb);
    let (size, me) = (comm.size(), comm.rank());
    assert!(
        n > 0 && nb > 0,
        "HPL needs positive n and nb, got n={n} nb={nb}"
    );
    assert!(
        cfg.p_rows >= 1 && size.is_multiple_of(cfg.p_rows),
        "HPL grid of p_rows={} does not tile {size} ranks",
        cfg.p_rows
    );
    let grid @ (grid_p, grid_q) = (cfg.p_rows, size / cfg.p_rows);
    let (pi, qj) = (me / grid_q, me % grid_q);
    let (row_split, col_split) = if grid_p > 1 && grid_q > 1 {
        (
            Some(comm.split_async(pi as u32, qj as i64).await),
            Some(comm.split_async((grid_p + qj) as u32, pi as i64).await),
        )
    } else {
        (None, None)
    };
    let row = Axis::new(grid_q, &row_split, comm);
    let col = Axis::new(grid_p, &col_split, comm);

    let mut local = Local::generate(n, nb, grid, me);
    let (lrows, lcols) = (local.lrows(), local.cols.len());
    let nblocks = n.div_ceil(nb);
    let mut pivots: Vec<usize> = Vec::with_capacity(n);
    // Lookahead pipeline: the payload for panel `kb` factored one
    // iteration early (owning process column only, `None` elsewhere).
    let mut pending: Option<Vec<f64>> = None;

    comm.barrier_async().await;
    let clock = harness::Stopwatch::start();

    for kb in 0..nblocks {
        let k0 = kb * nb;
        let k1 = ((kb + 1) * nb).min(n);
        let kw = k1 - k0;
        let panel_q = kb % grid_q;
        let lr_k0 = local.lr_from(k0);
        let height = lrows - lr_k0;

        // --- Panel factorisation (owning column) + broadcast along rows -
        // Payload: kw pivot rows followed by the factored panel columns
        // (my rows >= k0 of each). Past the first panel the owners have
        // usually factored it already, during the previous iteration's
        // trailing update (the lookahead below).
        let mut payload = match pending.take() {
            Some(ready) => ready,
            None if qj == panel_q => factor_panel(&mut local, col, nb, k0, k1).await,
            None => vec![0.0f64; kw + kw * height],
        };
        row.bcast(&mut payload, panel_q).await;
        let (panel_pivots, panel) = payload.split_at(kw);

        // --- Apply row interchanges to all non-panel columns ------------
        // Panel columns were swapped by their owners while factoring.
        let panel_lcs: Range<usize> = if qj == panel_q {
            local.lc_from(k0)..local.lc_from(k1)
        } else {
            0..0
        };
        for (j, &piv) in panel_pivots.iter().enumerate() {
            let others = (0..panel_lcs.start).chain(panel_lcs.end..lcols);
            swap_rows(&mut local, col, nb, k0 + j, piv as usize, others).await;
            pivots.push(piv as usize);
        }

        // --- Trailing update on my columns right of the panel -----------
        // Rows and columns ascend, so the trailing submatrix is the
        // bottom-right corner of the local block. A process column with
        // nothing right of the panel has no part in the rest.
        let lc1 = local.lc_from(k1);
        let ntrail = lcols - lc1;
        if ntrail == 0 {
            continue;
        }
        // U12 = L11^{-1} A12: unit-lower triangular solve on the kw panel
        // rows of each trailing column, in place on the process row that
        // owns them (L11 is the top of its `panel`), copied out row-major
        // because it aliases the update target's backing store, and
        // broadcast down process columns.
        let pi_k = kb % grid_p;
        let mut u12 = vec![0.0f64; kw * ntrail];
        if pi == pi_k {
            for t in 0..ntrail {
                let u = &mut local.data[(lc1 + t) * lrows + lr_k0..][..kw];
                for j in 0..kw {
                    let ujk = u[j];
                    let l = &panel[j * height..][..kw];
                    for jj in j + 1..kw {
                        u[jj] -= l[jj] * ujk;
                    }
                    u12[j * ntrail + t] = ujk;
                }
            }
        }
        col.bcast(&mut u12, pi_k).await;

        // A22 -= L21 * U12 as a rectangular GEMM on column-major views;
        // L21 is my rows >= k1 of the broadcast panel.
        //
        // Lookahead: the process column owning the next panel holds its
        // columns as its first `w` trailing columns. It updates just
        // those, factors the panel early, then finishes the rest of the
        // update — the next iteration broadcasts the stashed payload
        // immediately, and the factor's latency-bound collectives hide
        // behind every other column's big GEMM.
        let lr1 = local.lr_from(k1);
        let next_k1 = (k1 + nb).min(n);
        let w = if (kb + 1) % grid_q == qj {
            local.cols[lc1..].partition_point(|&gc| gc < next_k1)
        } else {
            0
        };
        let l21 = &panel[lr1 - lr_k0..];
        if w > 0 {
            gemm_update(
                lrows - lr1,
                w,
                kw,
                -1.0,
                l21,
                1,
                height,
                &u12,
                ntrail,
                1,
                &mut local.data[lc1 * lrows + lr1..],
                1,
                lrows,
            );
            pending = Some(factor_panel(&mut local, col, nb, k1, next_k1).await);
        }
        if ntrail > w {
            gemm_update(
                lrows - lr1,
                ntrail - w,
                kw,
                -1.0,
                l21,
                1,
                height,
                &u12[w..],
                ntrail,
                1,
                &mut local.data[(lc1 + w) * lrows + lr1..],
                1,
                lrows,
            );
        }
    }

    // --- Gather the factors to rank 0 and solve -------------------------
    let x = solve_on_root(comm, &local, &pivots, cfg).await;
    let time_s = clock.elapsed_secs();

    // --- Verification on rank 0, result broadcast ----------------------
    let mut stats = [0.0f64; 2]; // residual, time (rank 0's)
    if me == 0 {
        stats[0] = scaled_residual(n, &x);
        stats[1] = time_s;
    }
    comm.bcast_async(&mut stats, 0).await;

    let flops = 2.0 / 3.0 * (n as f64).powi(3) + 2.0 * (n as f64).powi(2);
    HplResult {
        n,
        gflops: flops / stats[1] / 1e9,
        time_s: stats[1],
        residual: stats[0],
        passed: stats[0] < 16.0,
    }
}

/// Gathers the distributed factors to rank 0 and performs the P L U
/// solve. Returns x on rank 0 (empty elsewhere). The root works out
/// which rows and columns each rank's block holds from its grid
/// coordinate, so a rank ships its data and nothing else.
async fn solve_on_root(comm: &Comm, local: &Local, pivots: &[usize], cfg: &HplConfig) -> Vec<f64> {
    const TAG: mp::Tag = 17;
    let (n, size) = (cfg.n, comm.size());

    if comm.rank() != 0 {
        comm.send(&local.data, 0, TAG);
        return Vec::new();
    }

    let mut full = vec![0.0f64; n * n]; // column-major
    let mut place = |rows: &[usize], cols: &[usize], data: &[f64]| {
        for (lc, &gc) in cols.iter().enumerate() {
            for (lr, &gr) in rows.iter().enumerate() {
                full[gc * n + gr] = data[lc * rows.len() + lr];
            }
        }
    };
    place(&local.rows, &local.cols, &local.data);
    for src in 1..size {
        let (rows, cols) = owned_by(n, cfg.nb, (cfg.p_rows, size / cfg.p_rows), src);
        let mut data = vec![0.0f64; rows.len() * cols.len()];
        comm.recv_async(&mut data, src, TAG).await;
        place(&rows, &cols, &data);
    }

    // b with the recorded row interchanges applied.
    let mut b: Vec<f64> = (0..n).map(rhs_element).collect();
    for (j, &piv) in pivots.iter().enumerate() {
        b.swap(j, piv);
    }
    // Forward substitution (L unit lower), then back substitution (U).
    for j in 0..n {
        let yj = b[j];
        if yj != 0.0 {
            let col = &full[j * n..(j + 1) * n];
            for r in j + 1..n {
                b[r] -= col[r] * yj;
            }
        }
    }
    for j in (0..n).rev() {
        let col = &full[j * n..(j + 1) * n];
        b[j] /= col[j];
        let xj = b[j];
        for r in 0..j {
            b[r] -= col[r] * xj;
        }
    }
    b
}

/// HPL's scaled residual for the solution `x` against the regenerated
/// system.
pub(crate) fn scaled_residual(n: usize, x: &[f64]) -> f64 {
    let mut r_inf = 0.0f64;
    let mut a_inf = 0.0f64;
    let mut b_inf = 0.0f64;
    for i in 0..n {
        let mut ax = 0.0;
        let mut arow = 0.0;
        for j in 0..n {
            let a = matrix_element(i, j);
            ax += a * x[j];
            arow += a.abs();
        }
        let b = rhs_element(i);
        r_inf = r_inf.max((ax - b).abs());
        a_inf = a_inf.max(arow);
        b_inf = b_inf.max(b.abs());
    }
    let x_inf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    r_inf / (f64::EPSILON * (a_inf * x_inf + b_inf) * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(size: usize, cfg: HplConfig) -> Vec<HplResult> {
        mp::run(size, move |comm| run(comm, &cfg))
    }

    /// `(ranks, p_rows, n, nb)`: every shape the LU must solve.
    const SHAPES: &[(usize, usize, usize, usize)] = &[
        // Full columns per rank (1 x Q), down to one rank.
        (1, 1, 64, 8),
        (1, 1, 48, 8),
        (2, 1, 64, 8),
        (3, 1, 65, 8),
        (4, 1, 96, 16),
        (5, 1, 50, 7),
        (1, 1, 50, 7),
        // One world, every grid: pure column, pure row, square.
        (4, 1, 64, 8),
        (4, 4, 64, 8),
        (4, 2, 64, 8),
        // Rectangular grids, and block = panel.
        (6, 2, 60, 8),
        (6, 3, 60, 8),
        (8, 2, 64, 16),
        // n not a multiple of nb or the grid; prime n with odd nb, where
        // every panel edge is ragged and row/column owners never align.
        (4, 2, 50, 7),
        (9, 3, 81, 9),
        (6, 2, 97, 17),
        // nb sweep (8 = many small panels, 17 = ragged edges everywhere,
        // 32 = few wide panels) on a column grid and a square one, where
        // the lookahead factor is itself a collective.
        (3, 1, 96, 8),
        (3, 1, 96, 17),
        (3, 1, 96, 32),
        (4, 2, 96, 8),
        (4, 2, 96, 17),
        (4, 2, 96, 32),
        // More ranks than blocks: idle process rows and idle columns.
        (8, 1, 16, 8),
        (8, 4, 16, 8),
        (8, 2, 16, 8),
        (8, 8, 16, 8),
        // n < nb: one ragged panel, three of four ranks idle.
        (1, 1, 5, 8),
        (4, 1, 5, 8),
        (4, 2, 5, 8),
    ];

    #[test]
    fn solves_every_shape_to_one_residual() {
        // Grid shape is a schedule input, not a numerics input: every run
        // of one (n, nb) returns the same residual bits.
        let mut bits = std::collections::HashMap::new();
        for &(size, p_rows, n, nb) in SHAPES {
            let shape = format!("{size} ranks P={p_rows} n={n} nb={nb}");
            let results = solve(size, HplConfig { n, nb, p_rows });
            for r in &results {
                assert!(r.passed, "{shape}: residual {} too large", r.residual);
                assert!(r.gflops > 0.0, "{shape}");
            }
            let got = results[0].residual.to_bits();
            let first = *bits.entry((n, nb)).or_insert(got);
            assert_eq!(got, first, "{shape}: the schedule changed the arithmetic");
        }
    }

    #[test]
    fn residual_equivalent_across_block_sizes() {
        // nb is a performance knob, not a numerics knob: 8 (many small
        // panels), 17 (odd — ragged edges in every trailing update) and
        // 32 must all solve the same system to the same quality.
        let residuals: Vec<f64> = [8usize, 17, 32]
            .iter()
            .map(|&nb| {
                let r = solve(
                    2,
                    HplConfig {
                        n: 128,
                        nb,
                        ..HplConfig::default()
                    },
                )[0];
                assert!(r.passed, "nb={nb}: residual {}", r.residual);
                r.residual
            })
            .collect();
        let max = residuals.iter().cloned().fold(f64::MIN, f64::max);
        let min = residuals.iter().cloned().fold(f64::MAX, f64::min);
        // Summation order differs with the blocking, so demand the same
        // order of magnitude rather than bitwise equality.
        assert!(
            max < 8.0 * min.max(1e-6),
            "residuals diverge across nb: {residuals:?}"
        );
    }

    #[test]
    fn all_ranks_agree_on_the_result() {
        let results = solve(
            4,
            HplConfig {
                n: 48,
                nb: 6,
                ..HplConfig::default()
            },
        );
        for r in &results[1..] {
            assert_eq!(r.residual, results[0].residual);
            assert_eq!(r.time_s, results[0].time_s);
        }
    }

    #[test]
    fn block_cyclic_mapping_partitions_the_matrix() {
        let (n, nb, grid) = (100, 8, (2, 3));
        let mut seen = vec![0u32; n * n];
        for rank in 0..grid.0 * grid.1 {
            let (rows, cols) = owned_by(n, nb, grid, rank);
            assert!(rows.is_sorted() && cols.is_sorted());
            for &c in &cols {
                for &r in &rows {
                    seen[c * n + r] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "an element is owned 0 or 2+ times"
        );
    }

    #[test]
    fn near_square_grid_selection() {
        assert_eq!(HplConfig::near_square(100, 8, 16).p_rows, 4);
        assert_eq!(HplConfig::near_square(100, 8, 6).p_rows, 2);
        assert_eq!(
            HplConfig::near_square(100, 8, 7).p_rows,
            1,
            "prime worlds fall back to 1xN"
        );
        assert_eq!(HplConfig::near_square(100, 8, 1).p_rows, 1);
    }

    #[test]
    #[should_panic(expected = "HPL needs positive n and nb, got n=8 nb=0")]
    fn zero_block_size_fails_named() {
        solve(
            1,
            HplConfig {
                n: 8,
                nb: 0,
                ..HplConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "HPL grid of p_rows=3 does not tile 4 ranks")]
    fn grid_that_does_not_tile_the_world_fails_named() {
        solve(
            4,
            HplConfig {
                n: 8,
                nb: 2,
                p_rows: 3,
            },
        );
    }

    #[test]
    fn matrix_elements_are_deterministic_and_spread() {
        assert_eq!(matrix_element(3, 5), matrix_element(3, 5));
        assert_ne!(matrix_element(3, 5), matrix_element(5, 3));
        let vals: Vec<f64> = (0..100).map(|i| matrix_element(i, i)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean} suspiciously biased");
    }
}

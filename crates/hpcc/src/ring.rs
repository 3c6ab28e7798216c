//! Random-Ring bandwidth and latency (the HPCC `b_eff` component).
//!
//! "Randomly Ordered Ring bandwidth reports bandwidth achieved per CPU in
//! a ring communication pattern \[where\] the communicating nodes are
//! ordered randomly", averaged over several random permutations. With 8+
//! SMP nodes most neighbours land on other nodes, which is why the paper
//! uses this metric as *the* inter-node bandwidth per MPI process.

use mp::Comm;

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    /// Message length for the bandwidth measurement, bytes (HPCC uses
    /// 2,000,000 bytes).
    pub bw_bytes: usize,
    /// Number of random ring permutations to average over.
    pub patterns: usize,
    /// Iterations per pattern.
    pub iters: usize,
    /// RNG seed for the permutations (fixed for reproducibility).
    pub seed: u64,
}

impl Default for RingConfig {
    fn default() -> RingConfig {
        RingConfig {
            bw_bytes: 2_000_000,
            patterns: 4,
            iters: 3,
            seed: 0xBEEF,
        }
    }
}

/// Outcome: per-CPU ring bandwidth and latency.
#[derive(Clone, Copy, Debug)]
pub struct RingResult {
    /// Random-ring bandwidth per CPU, GB/s.
    pub random_bw: f64,
    /// Random-ring latency, microseconds.
    pub random_latency_us: f64,
    /// Natural-ring bandwidth per CPU, GB/s.
    pub natural_bw: f64,
    /// Natural-ring latency, microseconds.
    pub natural_latency_us: f64,
    /// Whether every rank received its neighbours' data in every pass.
    pub passed: bool,
}

/// Deterministic Fisher-Yates permutation of `0..n` from a splitmix64
/// stream.
pub(crate) fn ring_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// One timed ring pass: every rank exchanges `words` f64s with both ring
/// neighbours (`perm` defines the ring order). Returns seconds (max over
/// ranks), or infinity if some rank's check failed.
///
/// A rank sends its rank in every word to its right and hands what it
/// received from its left back to the left. Once the clock has stopped,
/// `from_left` must hold the left neighbour's rank and `own` this rank's,
/// back from the right: each link is checked both ways with no buffer,
/// message or byte beyond the exchange's own.
async fn ring_pass(comm: &Comm, perm: &[usize], words: usize, iters: usize) -> f64 {
    let me = comm.rank();
    let pos = perm.iter().position(|&r| r == me).expect("rank in ring");
    let n = perm.len();
    let right = perm[(pos + 1) % n];
    let left = perm[(pos + n - 1) % n];

    let mut own = vec![me as f64; words];
    // NaN is no rank, so words that never landed fail the check.
    let mut from_left = vec![f64::NAN; words];
    comm.barrier_async().await;
    let clock = harness::Stopwatch::start();
    for _ in 0..iters {
        // Both directions, as in b_eff's ring pattern.
        comm.sendrecv_async(&own, right, &mut from_left, left, 23)
            .await;
        comm.sendrecv_async(&from_left, left, &mut own, right, 23)
            .await;
    }
    let secs = clock.elapsed_secs() / iters as f64;
    let ok = arrived(&from_left, left) && arrived(&own, me);
    let mut t = [if ok { secs } else { f64::INFINITY }];
    comm.allreduce_async(&mut t, mp::Op::Max).await;
    t[0]
}

/// Whether every word of `buf` is `rank`. A fold without early exit, so
/// that it vectorises, where `all` would compare one word at a time.
fn arrived(buf: &[f64], rank: usize) -> bool {
    let r = rank as f64;
    buf.iter().fold(true, |ok, &w| ok & (w == r))
}

/// Runs the ring benchmarks on `comm`.
pub async fn run_async(comm: &Comm, cfg: &RingConfig) -> RingResult {
    let n = comm.size();
    let words = cfg.bw_bytes / 8;
    let natural: Vec<usize> = (0..n).collect();

    let nat_bw_t = ring_pass(comm, &natural, words, cfg.iters).await;
    let nat_lat_t = ring_pass(comm, &natural, 1, cfg.iters.max(4)).await;

    let mut rnd_bw_t = 0.0;
    let mut rnd_lat_t = 0.0;
    for k in 0..cfg.patterns {
        let perm = ring_permutation(n, cfg.seed.wrapping_add(k as u64));
        rnd_bw_t += ring_pass(comm, &perm, words, cfg.iters).await;
        rnd_lat_t += ring_pass(comm, &perm, 1, cfg.iters.max(4)).await;
    }
    rnd_bw_t /= cfg.patterns as f64;
    rnd_lat_t /= cfg.patterns as f64;

    // Each pass moves 2 messages out + 2 in per rank; per b_eff's
    // convention the per-CPU ring bandwidth counts both (in + out), and
    // latency is the one-way time.
    let bytes_out = 4.0 * cfg.bw_bytes as f64;
    let passed = [nat_bw_t, nat_lat_t, rnd_bw_t, rnd_lat_t]
        .iter()
        .all(|t| t.is_finite());
    RingResult {
        random_bw: bytes_out / rnd_bw_t / 1e9,
        random_latency_us: rnd_lat_t / 2.0 * 1e6,
        natural_bw: bytes_out / nat_bw_t / 1e9,
        natural_latency_us: nat_lat_t / 2.0 * 1e6,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [1, 2, 5, 64] {
            let mut p = ring_permutation(n, 42);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn permutation_is_seed_deterministic() {
        assert_eq!(ring_permutation(16, 7), ring_permutation(16, 7));
        assert_ne!(ring_permutation(16, 7), ring_permutation(16, 8));
    }

    #[test]
    fn ring_benchmark_reports_sane_numbers() {
        let cfg = RingConfig {
            bw_bytes: 80_000,
            patterns: 2,
            iters: 2,
            seed: 1,
        };
        let results = mp::run(4, |comm| mp::block_on(run_async(comm, &cfg)));
        for r in &results {
            assert!(r.passed);
            assert!(r.random_bw > 0.0 && r.random_bw.is_finite());
            assert!(r.natural_bw > 0.0);
            assert!(r.random_latency_us > 0.0);
            assert!(r.natural_latency_us > 0.0);
        }
    }

    #[test]
    fn two_rank_ring_degenerates_gracefully() {
        let cfg = RingConfig {
            bw_bytes: 8_000,
            patterns: 1,
            iters: 1,
            seed: 1,
        };
        let results = mp::run(2, |comm| mp::block_on(run_async(comm, &cfg)));
        assert!(results[0].passed);
        assert!(results[0].natural_bw > 0.0);
    }

    #[test]
    fn a_mismatched_buffer_is_rejected() {
        assert!(arrived(&[3.0; 4], 3));
        assert!(!arrived(&[3.0, 3.0, 2.0, 3.0], 3));
        assert!(!arrived(&[f64::NAN; 4], 0), "words that never landed");
    }
}

//! G-RandomAccess: giga-updates per second (GUPS).
//!
//! "It measures the rate at which the computer can update pseudo-random
//! locations of its memory." The global table of `2^log2_size` 64-bit
//! words is block-distributed; each rank generates its slice of the
//! official HPCC update stream, buckets the updates by owner, and the
//! ranks exchange buckets with an all-to-all-v round per batch, applying
//! `table[addr] ^= value` locally. Verification exploits the XOR
//! update's self-inverse property: replaying the identical stream must
//! restore the initial table.

use mp::Comm;

use crate::kernels::ra_rng;

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct RandomAccessConfig {
    /// log2 of the global table size in words.
    pub log2_size: u32,
    /// Updates to perform, as a multiple of the table size (the official
    /// run uses 4x).
    pub updates_per_entry: usize,
    /// Updates generated per rank between bucket exchanges (the official
    /// benchmark also limits look-ahead, to 1024).
    pub batch: usize,
}

impl Default for RandomAccessConfig {
    fn default() -> RandomAccessConfig {
        RandomAccessConfig {
            log2_size: 16,
            updates_per_entry: 4,
            batch: 1024,
        }
    }
}

/// Benchmark outcome.
#[derive(Clone, Copy, Debug)]
pub struct RandomAccessResult {
    /// Global table words.
    pub table_size: u64,
    /// Total updates applied.
    pub updates: u64,
    /// Giga-updates per second.
    pub gups: f64,
    /// Wall time, seconds.
    pub time_s: f64,
    /// Whether the self-inverse verification restored the table.
    pub passed: bool,
}

/// Bucket size below which the XOR apply stays serial: with the default
/// 1024-update look-ahead a fork-join region would dwarf the updates.
const PAR_MIN_UPDATES: usize = 4096;

/// Applies one bucket of XOR updates to the local table slice, fanning
/// the scan over the rank's worker pool when the bucket is large: the
/// table splits into contiguous bands and every worker scans the whole
/// bucket, applying only the updates that land in its band. Each table
/// word belongs to exactly one band, so updates to it are applied by one
/// worker in stream order — and XOR is exact and order-independent
/// anyway — making the result bitwise identical to the serial loop for
/// any thread count.
fn apply_updates(table: &mut [u64], my_base: u64, table_bits: u32, incoming: &[u64]) {
    let mask = (1u64 << table_bits) - 1;
    let pool = smp::Pool::current();
    if pool.size() <= 1 || incoming.len() < PAR_MIN_UPDATES {
        for &v in incoming {
            let local = (v & mask) - my_base;
            debug_assert!((local as usize) < table.len());
            table[local as usize] ^= v;
        }
        return;
    }
    let ranges = pool.chunk_ranges(table.len(), 1);
    let mut bands: Vec<(u64, &mut [u64])> = Vec::with_capacity(ranges.len());
    let mut rest: &mut [u64] = table;
    for rng in ranges {
        let (band, tail) = std::mem::take(&mut rest).split_at_mut(rng.end - rng.start);
        bands.push((rng.start as u64, band));
        rest = tail;
    }
    pool.run_parts(&mut bands, |_, (lo, band)| {
        let hi = *lo + band.len() as u64;
        for &v in incoming {
            let local = (v & mask) - my_base;
            if local >= *lo && local < hi {
                band[(local - *lo) as usize] ^= v;
            }
        }
    });
}

/// One pass over this rank's update stream, exchanging buckets and
/// applying XOR updates to the local table slice.
async fn apply_stream(
    comm: &Comm,
    table: &mut [u64],
    my_base: u64,
    cfg: &RandomAccessConfig,
    total_updates: u64,
) {
    let p = comm.size();
    let me = comm.rank();
    let per_rank = total_updates / p as u64;
    let mut stream = ra_rng::UpdateStream::at((per_rank * me as u64) as i64);
    let table_bits = cfg.log2_size;

    let mut remaining = per_rank;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::with_capacity(cfg.batch); p];
    while remaining > 0 {
        let now = (cfg.batch as u64).min(remaining) as usize;
        for b in buckets.iter_mut() {
            b.clear();
        }
        for _ in 0..now {
            let v = stream.next().expect("stream is infinite");
            let addr = v & ((1u64 << table_bits) - 1);
            let owner = (addr >> (table_bits - log2(p as u64))) as usize;
            // For p == 1 the shift above would be the full width; handle
            // uniformly by arithmetic below.
            let owner = if p == 1 { 0 } else { owner.min(p - 1) };
            buckets[owner].push(v);
        }
        // Exchange bucket sizes, then buckets (allgatherv-of-pairs style:
        // pairwise rounds keep it simple and deadlock-free).
        for s in 0..p {
            let dst = (me + s) % p;
            let src = (me + p - s) % p;
            let incoming: Vec<u64> = if dst == me {
                buckets[me].clone()
            } else {
                comm.send(&buckets[dst], dst, 11);
                let (data, _, _) = comm.recv_any_async::<u64>(Some(src), Some(11)).await;
                data
            };
            apply_updates(table, my_base, table_bits, &incoming);
        }
        remaining -= now as u64;
    }
}

fn log2(x: u64) -> u32 {
    63 - x.leading_zeros()
}

/// Runs G-RandomAccess on `comm`. Rank count must be a power of two (an
/// HPCC-style restriction that keeps address-to-owner mapping a shift).
pub async fn run_async(comm: &Comm, cfg: &RandomAccessConfig) -> RandomAccessResult {
    let p = comm.size();
    let me = comm.rank();
    assert!(
        p.is_power_of_two(),
        "RandomAccess needs a power-of-two rank count"
    );
    assert!(
        cfg.log2_size >= log2(p as u64),
        "table must have at least one word per rank"
    );
    let table_size = 1u64 << cfg.log2_size;
    let local_size = table_size / p as u64;
    let my_base = local_size * me as u64;
    let total_updates = table_size * cfg.updates_per_entry as u64;

    // table[i] = global index, the official initialisation.
    let mut table: Vec<u64> = (0..local_size).map(|i| my_base + i).collect();

    comm.barrier_async().await;
    let clock = harness::Stopwatch::start();
    apply_stream(comm, &mut table, my_base, cfg, total_updates).await;
    comm.barrier_async().await;
    let time_s = clock.elapsed_secs();

    // Verification: replay the identical stream; XOR self-inverts.
    apply_stream(comm, &mut table, my_base, cfg, total_updates).await;
    let ok = table
        .iter()
        .enumerate()
        .all(|(i, &v)| v == my_base + i as u64);

    let mut reduced = [time_s, if ok { 1.0 } else { 0.0 }];
    comm.allreduce_async(&mut reduced[..1], mp::Op::Max).await;
    comm.allreduce_async(&mut reduced[1..], mp::Op::Min).await;

    let updates = (total_updates / p as u64) * p as u64;
    RandomAccessResult {
        table_size,
        updates,
        gups: updates as f64 / reduced[0] / 1e9,
        time_s: reduced[0],
        passed: reduced[1] > 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_verify_on_various_rank_counts() {
        for p in [1usize, 2, 4, 8] {
            let cfg = RandomAccessConfig {
                log2_size: 10,
                updates_per_entry: 2,
                batch: 128,
            };
            let results = mp::run(p, |comm| mp::block_on(run_async(comm, &cfg)));
            for r in &results {
                assert!(r.passed, "p={p}: verification failed");
                assert_eq!(r.table_size, 1024);
                assert!(r.gups > 0.0);
            }
        }
    }

    #[test]
    fn owner_mapping_is_block_distribution() {
        let p = 4u64;
        let bits = 10u32;
        let block = (1u64 << bits) / p;
        for addr in 0..(1u64 << bits) {
            let owner = addr >> (bits - super::log2(p));
            assert_eq!(owner, addr / block);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_ranks() {
        mp::run(3, |comm| {
            mp::block_on(run_async(comm, &RandomAccessConfig::default()))
        });
    }

    #[test]
    fn banded_apply_is_bitwise_identical_across_thread_counts() {
        let bits = 14u32;
        let mut stream = ra_rng::UpdateStream::at(0);
        // Large enough to clear PAR_MIN_UPDATES: the banded path runs.
        let incoming: Vec<u64> = (0..2 * PAR_MIN_UPDATES)
            .map(|_| stream.next().expect("stream is infinite"))
            .collect();
        let mk = || (0..(1u64 << bits)).collect::<Vec<u64>>();
        let reference = {
            let _serial = smp::AmbientGuard::install(1);
            let mut table = mk();
            apply_updates(&mut table, 0, bits, &incoming);
            table
        };
        for threads in [2usize, 3, 4, 8] {
            let _guard = smp::AmbientGuard::install(threads);
            let mut table = mk();
            apply_updates(&mut table, 0, bits, &incoming);
            assert_eq!(
                table, reference,
                "{threads}-thread apply drifted from serial"
            );
        }
    }
}

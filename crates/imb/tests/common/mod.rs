//! What a cooperative rank keeps resident, read from the process's peak
//! resident set (`VmHWM`). A virtual world is a boxed future and a mailbox
//! per rank, so its peak grows with the rank count. A case that runs after
//! another in the same process reuses the heap the first one freed and
//! reads less than it would alone, so each benchmark's cases live in a
//! test binary of their own, and its release-scale case (`-- --ignored`)
//! is run alone (`--exact`).

use std::sync::Mutex;

use imb::Benchmark;
use machines::systems::exascale_cluster;

/// Held by a case while it reads the peak, which a concurrent case would
/// disturb.
static PEAK: Mutex<()> = Mutex::new(());

/// One `/proc/self/status` field, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Growth of `VmHWM`, in bytes per rank, over a virtual run of
/// `benchmark` with 1 KiB messages (a Barrier sends none) on `procs` ranks
/// of the exascale model.
fn growth_per_rank(benchmark: Benchmark, procs: usize) -> u64 {
    let _alone = PEAK.lock().unwrap_or_else(|e| e.into_inner());
    // Writing 5 resets VmHWM to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let base = status_kib("VmHWM:");
    let rec = imb::run_virtual(&exascale_cluster(), benchmark, procs, 1024, 1);
    assert!(rec.t_max_us() > 0.0);
    (status_kib("VmHWM:") - base) * 1024 / procs as u64
}

/// Asserts the growth per rank of a `procs`-rank virtual `benchmark`
/// stays under `bound` bytes.
pub(crate) fn assert_footprint(benchmark: Benchmark, procs: usize, bound: u64) {
    let per_rank = growth_per_rank(benchmark, procs);
    let peak = status_kib("VmPeak:");
    println!("{benchmark} at {procs} ranks: {per_rank} B per rank, VmPeak {peak} KiB");
    assert!(
        per_rank < bound,
        "a {procs}-rank virtual {benchmark} grew the peak by {per_rank} B per rank; the bound is \
         {bound} B",
    );
}

//! What a cooperative rank keeps resident. A virtual world is a boxed
//! future and a mailbox per rank, so its peak resident set grows with the
//! rank count; this binary bounds that growth per rank for a virtual
//! Barrier on the exascale model. It reads the process's peak resident set
//! (`VmHWM`), which a concurrent test would disturb, so its two cases take
//! one lock and the release-scale one is run alone (`-- --ignored`).
#![cfg(target_os = "linux")]

use std::sync::Mutex;

use imb::Benchmark;
use machines::systems::exascale_cluster;

/// Held by a case while it reads the peak.
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

/// Growth of `VmHWM`, in bytes per rank, over a virtual Barrier of
/// `procs` ranks on the exascale model.
fn barrier_growth_per_rank(procs: usize) -> u64 {
    let _alone = PEAK.lock().unwrap_or_else(|e| e.into_inner());
    // Writing 5 resets VmHWM to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let base = status_kib("VmHWM:");
    let rec = imb::run_virtual(&exascale_cluster(), Benchmark::Barrier, procs, 0, 1);
    assert!(rec.t_max_us() > 0.0);
    (status_kib("VmHWM:") - base) * 1024 / procs as u64
}

/// Asserts the growth per rank of a `procs`-rank Barrier stays under
/// `bound` bytes.
fn assert_footprint(procs: usize, bound: u64) {
    let per_rank = barrier_growth_per_rank(procs);
    assert!(
        per_rank < bound,
        "a {procs}-rank virtual Barrier grew the peak by {per_rank} B per rank; the bound is {bound} B",
    );
}

/// 4 096 ranks in a debug build: about 3.0 KiB a rank (3 050–3 100 B
/// over four runs on x86-64), 4.7 KiB (4 810–4 880 B) when a rank's task
/// held its body future twice and a lane bucket took 112 B.
#[test]
fn a_virtual_rank_stays_within_its_footprint() {
    assert_footprint(4096, 4096);
}

/// 65 536 ranks in a release build: 4 001–4 005 B a rank on x86-64,
/// against 6 231 B when a rank held its body future twice and a lane
/// bucket took 112 B.
#[test]
#[ignore = "65 536 ranks: run alone, in release"]
fn a_virtual_rank_stays_within_its_footprint_at_65536_ranks() {
    assert_footprint(65_536, 5120);
}

//! A virtual world runs its ranks one after another on one thread, so
//! EP-STREAM and EP-DGEMM should hold one rank's arrays at a time. This
//! binary holds one test because it reads the process's peak resident
//! set (`VmHWM`), which a concurrent test would disturb.
#![cfg(target_os = "linux")]

use hpcc::suite::{Component, SuiteConfig};
use machines::systems::dell_xeon;

/// One `/proc/self/status` field, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn virtual_ep_holds_one_ranks_arrays_at_a_time() {
    const PROCS: u64 = 16;
    const MIB: u64 = 1 << 20;
    // STREAM's three arrays of 1 MiB each: 3 MiB per rank, 48 MiB for
    // all 16 ranks at once.
    let per_rank = 3 * MIB;
    let mut cfg = SuiteConfig::small(PROCS as usize);
    cfg.stream_len = (MIB / 8) as usize;

    // Writing 5 resets VmHWM to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let base = status_kib("VmHWM:");
    let recs = hpcc::virtual_run::run_virtual_components(
        &dell_xeon(),
        PROCS as usize,
        &cfg,
        &[Component::Stream, Component::Dgemm],
    );
    let growth = (status_kib("VmHWM:") - base) * 1024;

    assert!(recs.iter().all(|r| r.passed));
    let bound = 4 * per_rank;
    assert!(
        growth < bound,
        "peak grew {:.1} MiB over {PROCS} ranks; every rank's arrays at once would be {} MiB, \
         the bound is {} MiB",
        growth as f64 / MIB as f64,
        PROCS * per_rank / MIB,
        bound / MIB,
    );
}

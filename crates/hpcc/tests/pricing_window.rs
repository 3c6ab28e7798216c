//! Simulated G-FFT and G-PTRANS price pairwise all-to-all exchanges, p(p−1)
//! transfers each. Pricing should hold one round of them and the live
//! window of each fabric timeline, not the exchange or its history. This
//! binary holds one test because it reads the process's peak resident set
//! (`VmHWM`), which a concurrent test would disturb.
#![cfg(target_os = "linux")]

use hpcc::suite::Component;
use machines::systems::exascale_cluster;

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
fn simulated_gfft_and_gptrans_price_a_window_at_1024_ranks() {
    const PROCS: usize = 1024;
    const MIB: u64 = 1 << 20;
    let m = exascale_cluster();

    // Writing 5 resets VmHWM to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let base = status_kib("VmHWM:");
    let gfft = hpcc::sim::component_records(&m, PROCS, Component::Fft);
    let gptrans = hpcc::sim::component_records(&m, PROCS, Component::Ptrans);
    let growth = (status_kib("VmHWM:") - base) * 1024;

    // The values a materialised schedule priced, bit for bit.
    assert_eq!(gfft[0].benchmark, "G-FFT");
    assert_eq!(gfft[0].value.to_bits(), 0x407a_4259_9fa5_98c4);
    assert_eq!(gptrans[0].benchmark, "G-PTRANS");
    assert_eq!(gptrans[0].value.to_bits(), 0x4065_459f_6289_e8b0);
    // A materialised exchange is 1 047 552 transfers; holding them and
    // every interval they reserve takes about 25 MiB.
    let bound = 4 * MIB;
    assert!(
        growth < bound,
        "peak grew {:.1} MiB pricing G-FFT and G-PTRANS at {PROCS} ranks; the bound is {} MiB",
        growth as f64 / MIB as f64,
        bound / MIB,
    );
}

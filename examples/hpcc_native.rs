//! Runs the complete HPCC suite natively on this machine — the same
//! benchmarks the paper ran on the five supercomputers, executed on host
//! threads through the `mp` runtime, with every kernel's built-in
//! verification active.
//!
//! ```text
//! cargo run --example hpcc_native --release -- [ranks]
//! ```

use hpcc::suite::{run_native, SuiteConfig};

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // Sizes chosen so a laptop-class host finishes in seconds while the
    // arrays still exceed typical caches.
    let cfg = SuiteConfig {
        hpl_n: 768,
        hpl_nb: 64,
        ptrans_n: 64 * ranks,
        ra_log2_size: 20,
        stream_len: 4_000_000,
        fft_log2_n: 18,
        dgemm_n: 384,
        ring_bytes: 2_000_000,
        // G-HPL on a near-square process grid (1 x ranks on a prime world).
        hpl_2d: true,
    };

    println!("HPCC suite, {ranks} ranks (native, this host)");
    println!("{}", mp::waiting_regime(ranks));
    let hpl = cfg.hpl_config(ranks);
    println!(
        "G-HPL grid {}x{}, n {}, nb {}",
        hpl.p_rows,
        ranks / hpl.p_rows,
        hpl.n,
        hpl.nb
    );
    println!("---------------------------------------------");
    let s = run_native(ranks, &cfg);
    println!("G-HPL             {:>12.3} Gflop/s", s.ghpl);
    println!("G-PTRANS          {:>12.3} GB/s", s.ptrans);
    println!("G-RandomAccess    {:>12.6} GUP/s", s.gups);
    println!("EP-STREAM copy    {:>12.3} GB/s per rank", s.stream_copy);
    println!("EP-STREAM triad   {:>12.3} GB/s per rank", s.stream_triad);
    println!("G-FFT             {:>12.3} Gflop/s", s.gfft);
    println!("EP-DGEMM          {:>12.3} Gflop/s per rank", s.ep_dgemm);
    println!("RandomRing BW     {:>12.3} GB/s per rank", s.ring_bw);
    println!("RandomRing lat    {:>12.3} us", s.ring_latency_us);
    println!(
        "verification      {:>12}",
        if s.all_passed { "PASSED" } else { "FAILED" }
    );
    if s.gups == 0.0 || s.gfft == 0.0 {
        println!("(RandomAccess/FFT need a power-of-two rank count)");
    }
    assert!(s.all_passed, "a benchmark failed verification");
}

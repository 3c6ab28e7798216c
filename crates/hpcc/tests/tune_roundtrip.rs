//! Autotuner round-trip: persist a tuning table, reload it in a fresh
//! process (this test binary), and observe the kernels picking the
//! tuned parameters up transparently through `smp::tuned`.
//!
//! Everything lives in ONE test function: `smp::tuned()` latches once
//! per process, so the table and `HPCB_TUNE_FILE` must be in place
//! before the first access anywhere in this binary.

use hpcc::kernels::dgemm::dgemm;
use smp::tune::{TuneTable, Tuned};

fn distinctive() -> Tuned {
    Tuned {
        threads: 2,
        dgemm_mc: 40,
        dgemm_nc: 72,
        dgemm_kc: 48,
        fft_l1_block: 512,
        fft_l2_block: 1 << 14,
        hpl_nb: 24,
        hpl_lookahead: false,
    }
}

#[test]
fn persisted_table_reloads_and_reaches_the_kernels() {
    // Persist a table holding distinctive (non-default) parameters for
    // THIS host's topology key.
    let dir = std::env::temp_dir().join("hpcb-tune-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("table-{}", std::process::id()));
    let host = smp::topo::host_key();
    let mut table = TuneTable::new();
    table.set(&host, distinctive());
    table.store(&path).unwrap();

    // A fresh load (as another process would do) sees the same entry.
    let reloaded = TuneTable::load(&path).unwrap();
    assert_eq!(reloaded.get(&host), Some(distinctive().sanitized()));

    // Point the transparent loader at the table BEFORE the process-wide
    // `tuned()` latch fires, then confirm the kernels' view matches the
    // persisted entry, not the built-in defaults.
    std::env::set_var("HPCB_TUNE_FILE", &path);
    let seen = *smp::tuned();
    assert_eq!(seen, distinctive().sanitized());
    assert_ne!(seen, Tuned::default(), "defaults would mask the reload");
    // The trial-aware accessor the kernels actually call serves the
    // same entry when no trial is installed.
    assert_eq!(smp::tuned_now(), seen);

    // The DGEMM macro-loops now run under mc=40 / nc=72 / kc=48; the
    // result must still be the correct product.
    let n = 96;
    let a: Vec<f64> = (0..n * n)
        .map(|i| ((i * 7 + 3) % 13) as f64 - 6.0)
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| ((i * 5 + 1) % 11) as f64 - 5.0)
        .collect();
    let mut c = vec![0.0f64; n * n];
    dgemm(n, &a, &b, &mut c);
    let mut reference = vec![0.0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                reference[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    for (got, want) in c.iter().zip(&reference) {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }

    std::fs::remove_file(&path).ok();
}

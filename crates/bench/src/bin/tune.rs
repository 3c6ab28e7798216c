//! Per-host kernel autotuner: sweeps the DGEMM blocking, FFT block
//! schedule, HPL panel width and per-rank thread count on this host,
//! then persists the winners to the versioned tuning table
//! (`TUNE.hpcc`, or `HPCB_TUNE_FILE`) keyed by the host topology.
//! Kernels pick the entry up transparently on their next run.
//!
//! ```text
//! cargo run -p bench --bin tune --release            # full sweep
//! cargo run -p bench --bin tune --release -- --smoke # trimmed CI sweep
//! cargo run -p bench --bin tune --release -- --out F # alternate table
//! ```
//!
//! Each trial installs its candidate through [`smp::tune::set_trial`],
//! times the kernel with the harness best-of policy, and keeps the
//! fastest. The sweep is coordinate descent — one parameter group at a
//! time, winners feeding forward — which keeps the trial count linear
//! in the grid sizes while still capturing the dominant interactions
//! (DGEMM blocking first, since HPL inherits it).

use harness::Runner;
use hpcc::hpl::{self, HplConfig};
use hpcc::kernels::dgemm::{dgemm, dgemm_flops};
use hpcc::kernels::fft::{fft, Complex};
use smp::tune::{self, TuneTable, Tuned};

fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Times one closure under a trial parameter set, restoring the
/// no-trial state afterwards.
fn trial_secs(candidate: Tuned, reps: usize, mut f: impl FnMut()) -> f64 {
    tune::set_trial(Some(candidate));
    let t = Runner::best_secs(reps, &mut f);
    tune::set_trial(None);
    t
}

fn main() {
    let mut runner = Runner::standard();
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => runner = Runner::smoke(),
            "--out" => out = Some(args.next().expect("--out needs a path").into()),
            other => {
                eprintln!("unknown argument: {other}\nusage: tune [--smoke] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let smoke = runner.policy.is_smoke();
    let reps = runner.policy.best_reps(3);
    let path = out.unwrap_or_else(tune::tune_file_path);
    let host = smp::topo::host_key();
    let cpus = smp::topo::detect().online_cpus;
    println!("tuning host {host} -> {}", path.display());

    let mut best = Tuned::default();

    // --- DGEMM blocking: coordinate sweep MC, NC, KC ---------------------
    let n = if smoke { 192 } else { 384 };
    let a = fill(n * n, 1);
    let b = fill(n * n, 2);
    let mut c = vec![0.0f64; n * n];
    let time_dgemm = |cand: Tuned, c: &mut Vec<f64>| {
        trial_secs(cand, reps, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            dgemm(n, &a, &b, c);
        })
    };
    for (pick, grid) in [
        (0usize, [32usize, 64, 128].as_slice()),
        (1, [128, 256, 512].as_slice()),
        (2, [128, 256, 512].as_slice()),
    ] {
        let mut best_t = f64::INFINITY;
        let mut best_v = 0;
        for &v in grid {
            let mut cand = best;
            match pick {
                0 => cand.dgemm_mc = v,
                1 => cand.dgemm_nc = v,
                _ => cand.dgemm_kc = v,
            }
            let t = time_dgemm(cand, &mut c);
            if t < best_t {
                (best_t, best_v) = (t, v);
            }
        }
        match pick {
            0 => best.dgemm_mc = best_v,
            1 => best.dgemm_nc = best_v,
            _ => best.dgemm_kc = best_v,
        }
    }
    println!(
        "dgemm blocking: mc {} nc {} kc {} ({:.2} Gflop/s at n={n})",
        best.dgemm_mc,
        best.dgemm_nc,
        best.dgemm_kc,
        dgemm_flops(n) / time_dgemm(best, &mut c) / 1e9
    );

    // --- FFT block schedule ---------------------------------------------
    let fft_n = 1usize << if smoke { 14 } else { 18 };
    let signal: Vec<Complex> = fill(2 * fft_n, 3)
        .chunks_exact(2)
        .map(|p| Complex::new(p[0], p[1]))
        .collect();
    let mut data = signal.clone();
    let time_fft = |cand: Tuned, data: &mut Vec<Complex>| {
        trial_secs(cand, reps, || {
            data.copy_from_slice(&signal);
            fft(data, false);
        })
    };
    for (pick, grid) in [
        (0usize, [512usize, 1024, 2048].as_slice()),
        (1, [1 << 14, 1 << 15, 1 << 16].as_slice()),
    ] {
        let mut best_t = f64::INFINITY;
        let mut best_v = 0;
        for &v in grid {
            let mut cand = best;
            if pick == 0 {
                cand.fft_l1_block = v;
            } else {
                cand.fft_l2_block = v.max(cand.fft_l1_block);
            }
            let t = time_fft(cand, &mut data);
            if t < best_t {
                (best_t, best_v) = (t, v);
            }
        }
        if pick == 0 {
            best.fft_l1_block = best_v;
        } else {
            best.fft_l2_block = best_v.max(best.fft_l1_block);
        }
    }
    println!(
        "fft blocks: l1 {} l2 {} (n=2^{})",
        best.fft_l1_block,
        best.fft_l2_block,
        fft_n.trailing_zeros()
    );

    // --- HPL panel width -------------------------------------------------
    let hpl_n = if smoke { 192 } else { 384 };
    let mut best_t = f64::INFINITY;
    let mut best_nb = best.hpl_nb;
    for nb in [16usize, 32, 64] {
        let mut cand = best;
        cand.hpl_nb = nb;
        let t = trial_secs(cand, reps, || {
            let r = mp::run(1, move |comm| {
                hpl::run(
                    comm,
                    &HplConfig {
                        n: hpl_n,
                        nb,
                        p_rows: 1,
                        lookahead: true,
                    },
                )
            })[0];
            assert!(
                r.passed,
                "HPL trial nb={nb} failed: residual {}",
                r.residual
            );
        });
        if t < best_t {
            (best_t, best_nb) = (t, nb);
        }
    }
    best.hpl_nb = best_nb;
    best.hpl_lookahead = true;
    println!("hpl: nb {} lookahead on (n={hpl_n})", best.hpl_nb);

    // --- Thread count: rescale the DGEMM winner under real pools ---------
    let max_t = cpus.clamp(1, 4);
    let mut best_t = f64::INFINITY;
    let mut best_threads = 1;
    for t in 1..=max_t {
        let guard = smp::AmbientGuard::install(t);
        let secs = time_dgemm(best, &mut c);
        drop(guard);
        println!("threads {t}: {:.2} Gflop/s", dgemm_flops(n) / secs / 1e9);
        if secs < best_t {
            (best_t, best_threads) = (secs, t);
        }
    }
    best.threads = best_threads;
    println!("threads: {} (of {cpus} online)", best.threads);

    // --- Persist ---------------------------------------------------------
    let mut table = TuneTable::load(&path).unwrap_or_else(|e| {
        if !matches!(e, tune::TuneError::Io(_)) {
            eprintln!("tune: replacing unusable table at {}: {e}", path.display());
        }
        TuneTable::new()
    });
    table.set(&host, best.sanitized());
    table.store(&path).expect("cannot write tuning table");
    println!("wrote {} ({} host entries)", path.display(), table.len());
}

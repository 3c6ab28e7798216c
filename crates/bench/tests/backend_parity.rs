//! Backend parity: a campaign over a multi-process transport must emit
//! the *same record stream* as the in-process local backend — same
//! benchmarks, modes, machines, proc counts, sizes, repetition counts
//! and verification verdicts, in the same order. Only the timing
//! numbers (`value`, `t_min/avg/max_us`) may differ, because those are
//! wall-clock measurements.
//!
//! The tests drive the real `campaign` binary (the fleet path re-execs
//! it per native cell via `mp::transport::launcher`), so this exercises
//! the full stack: plan enumeration, fleet launch, `MP_*` topology
//! wiring, session install, cross-process delivery, rank-0 record
//! emission and the driver's stream splice.

use std::path::{Path, PathBuf};
use std::process::Command;

/// All 19 registry workloads (7 HPCC + 12 IMB), the coverage floor for
/// the local-vs-tcp sweep.
const ALL_WORKLOADS: [&str; 19] = [
    "G-HPL",
    "G-PTRANS",
    "G-RandomAccess",
    "EP-STREAM",
    "G-FFT",
    "EP-DGEMM",
    "RandomRing",
    "PingPong",
    "PingPing",
    "Sendrecv",
    "Exchange",
    "Bcast",
    "Allgather",
    "Allgatherv",
    "Alltoall",
    "Reduce",
    "Reduce_scatter",
    "Allreduce",
    "Barrier",
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("backend-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the campaign binary with `args` (plus scratch `--out`/`--records`
/// wiring and `--high-rank 0`, which is identical on every backend and
/// only slows the comparison down) and returns the raw record lines.
fn campaign(dir: &Path, args: &[&str]) -> Vec<String> {
    let records = dir.join("records.json");
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .args(["--high-rank", "0"])
        .arg("--out")
        .arg(dir)
        .arg("--records")
        .arg(&records)
        .output()
        .expect("spawn campaign");
    assert!(
        output.status.success(),
        "campaign {args:?} failed\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let body = std::fs::read_to_string(&records).expect("records.json written");
    body.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{ \"benchmark\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// Blanks the span from `from` (exclusive of the key itself) up to
/// `upto`, so timing-valued fields compare as placeholders.
fn blank(line: &str, from: &str, upto: &str) -> String {
    let a = line
        .find(from)
        .unwrap_or_else(|| panic!("{from:?} missing in {line}"));
    let b = line[a..]
        .find(upto)
        .unwrap_or_else(|| panic!("{upto:?} missing in {line}"))
        + a;
    format!("{}{from}_{}", &line[..a], &line[b..])
}

/// A record line with the measured timings blanked: everything that
/// must agree across backends — identity, mode, machine, procs,
/// threads, bytes, metric, unit, repetitions, passed — survives.
fn normalize(line: &str) -> String {
    let line = blank(line, "\"value\": ", ", \"unit\"");
    blank(&line, "\"t_min_us\": ", ", \"passed\"")
}

fn normalized(lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| normalize(l)).collect()
}

/// The acceptance sweep: every registry workload over the full smoke
/// cross product, local in-process versus two tcp worker processes on
/// loopback. Identity with the local stream implies the multiset
/// cross-validation passed on every rank (`passed` is allreduced into
/// every record).
#[test]
fn local_and_tcp_smoke_streams_are_identical_modulo_timing() {
    let dir = scratch("tcp");
    let local = campaign(&dir, &["--smoke", "--backend", "local"]);
    let tcp = campaign(&dir, &["--smoke", "--backend", "tcp", "--nprocs", "2"]);
    assert!(!local.is_empty(), "local stream must not be empty");
    assert_eq!(
        normalized(&local),
        normalized(&tcp),
        "record streams diverge between local and tcp"
    );
    // Every workload contributed at least one *native* (measured,
    // cross-process) record, and every record verified.
    for name in ALL_WORKLOADS {
        let needle = format!("\"benchmark\": \"{name}\"");
        assert!(
            tcp.iter()
                .any(|l| l.contains(&needle) && l.contains("\"mode\": \"native\"")),
            "{name}: no native record in the tcp stream"
        );
    }
    assert!(
        tcp.iter().all(|l| l.contains("\"passed\": true")),
        "every tcp record must verify"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A four-process fleet hosts one rank per process at the p=4 grid
/// points (the two-process sweep hosts two) and is clamped to two
/// processes at p=2 — the stream must still match local exactly.
#[test]
fn tcp_four_process_fleets_preserve_parity() {
    let dir = scratch("tcp4");
    let slice = ["--workloads", "Allreduce,Alltoall,G-PTRANS"];
    let mut local_args = vec!["--smoke", "--backend", "local"];
    local_args.extend_from_slice(&slice);
    let mut tcp_args = vec!["--smoke", "--backend", "tcp", "--nprocs", "4"];
    tcp_args.extend_from_slice(&slice);
    let local = campaign(&dir, &local_args);
    let tcp = campaign(&dir, &tcp_args);
    assert!(!local.is_empty());
    assert_eq!(normalized(&local), normalized(&tcp));
    let _ = std::fs::remove_dir_all(&dir);
}

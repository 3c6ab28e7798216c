//! Tier-1 reaches the transport: a two-process tcp world on loopback runs
//! the native IMB body, and what the rank-0 host reports equals what the
//! same cells report in-process, timings aside. One test, so plain
//! `cargo test -q` exercises wire framing, connection setup, the
//! launcher, the epoch flush barrier and residency routing.
//!
//! The test binary re-execs itself as the fleet (the pattern of
//! `crates/mp/tests/multiproc.rs`): workers are this binary filtered down
//! to [`worker_entry`], told where to write by `FLEET_RECORDS_OUT`.

use std::time::Duration;

use imb::Benchmark;
use mp::transport::launcher::Launcher;
use mp::transport::Backend;
use mpcheck::json::{self, Value};

/// Where the worker hosting rank 0 writes its record lines; its presence
/// is what makes [`worker_entry`] a worker.
const RECORDS_OUT: &str = "FLEET_RECORDS_OUT";

const ITERS: usize = 4;

/// One point-to-point and one collective benchmark, each at an eager
/// size and at one past the rendezvous threshold.
fn cells() -> Vec<(Benchmark, u64)> {
    let long = 2 * mp::coll::LONG_MSG_THRESHOLD as u64;
    [Benchmark::PingPong, Benchmark::Allreduce]
        .into_iter()
        .flat_map(|b| [(b, 1024), (b, long)])
        .collect()
}

/// Runs every cell as one epoch of a 2-rank world and returns the record
/// line of each rank resident in this process, cell by cell.
fn record_lines() -> Vec<Vec<String>> {
    cells()
        .into_iter()
        .map(|(benchmark, bytes)| {
            mp::run(2, move |comm| {
                imb::native::run_on(comm, benchmark, bytes, ITERS).to_json()
            })
        })
        .collect()
}

/// A record line without its measured fields.
fn untimed(line: &str) -> Value {
    let Ok(Value::Obj(mut fields)) = json::parse(line) else {
        panic!("not a record object: {line}");
    };
    for timing in ["value", "t_min_us", "t_avg_us", "t_max_us"] {
        fields
            .remove(timing)
            .expect("every record carries its timings");
    }
    Value::Obj(fields)
}

/// Worker processes enter here; under a plain `cargo test` it is a no-op.
#[test]
fn worker_entry() {
    let Ok(out) = std::env::var(RECORDS_OUT) else {
        return;
    };
    let proc = mp::transport::init_from_env().expect("workers are launched with a session");
    let lines = record_lines();
    if proc.resident(0) {
        let rank0: Vec<&str> = lines.iter().map(|cell| cell[0].as_str()).collect();
        std::fs::write(&out, rank0.join("\n")).expect("write the rank-0 records");
    }
}

#[test]
fn a_two_process_tcp_world_reports_what_the_in_process_world_reports() {
    let out = std::env::temp_dir().join(format!("transport-fleet-{}.jsonl", std::process::id()));
    Launcher::new(
        Backend::Tcp,
        2,
        2,
        std::env::current_exe().expect("test binary path"),
    )
    .arg("worker_entry")
    .arg("--exact")
    .arg("--nocapture")
    .env(RECORDS_OUT, out.display().to_string())
    .timeout(Duration::from_secs(120))
    .run();
    let fleet = std::fs::read_to_string(&out).expect("the rank-0 host wrote its records");
    let _ = std::fs::remove_file(&out);
    let fleet: Vec<Value> = fleet.lines().map(untimed).collect();
    let local: Vec<Value> = record_lines()
        .iter()
        .map(|cell| untimed(&cell[0]))
        .collect();
    assert_eq!(local.len(), cells().len());
    assert_eq!(fleet, local);
    for record in &fleet {
        assert_eq!(record.get("passed").and_then(Value::as_bool), Some(true));
        assert_eq!(record.get("procs").and_then(Value::as_u64), Some(2));
    }
}

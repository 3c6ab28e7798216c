//! Scheduler benchmark for the cooperative rank runtime: measures how
//! fast the run queue can switch between rank tasks — the capacity
//! limit behind 100k-rank virtual worlds — and writes
//! `BENCH_sched.json`, so scheduler regressions are caught the same way
//! `bench_mp` pins the transport paths.
//!
//! ```text
//! cargo run -p bench --bin bench_sched --release                 # writes BENCH_sched.json
//! cargo run -p bench --bin bench_sched --release -- --smoke      # fast CI mode
//! cargo run -p bench --bin bench_sched --release -- --baseline F # merge a prior run
//! ```
//!
//! Metrics, in events per second unless noted:
//!
//! * `spawn_teardown_ranks_per_s_4k`, `_16k` and
//!   `spawn_teardown_ranks_per_s` (65 536 ranks, the original lane) —
//!   world construction: spawn a world of trivial rank tasks, run it to
//!   completion, tear it down.
//! * `spawn_rate_16k_over_4k` — the 16 384-rank rate over the 4 096-rank
//!   one: 0.25 when world construction is quadratic, 1.0 when the cost
//!   per rank is flat, in between (≈ 0.6 on the dev container) when the
//!   smaller world fits a cache level the larger one does not. A ratio,
//!   so hosts agree on it far better than on the rates, and
//!   `ci/bench_gate.sh` gates it.
//! * `ring_switches_per_s` — steady-state switching under load: every
//!   rank of a ring passes a token; each receive suspends the task and
//!   each delivery resumes it, so switches = ranks x rounds.
//! * `pingpong_switches_per_s` — the two-task minimum: the pure
//!   suspend/resume round trip without fan-out effects.
//! * `timeline_reserves_per_s` — `simnet::Resource` first-fit
//!   reservations under the fragmenting mid-timeline backfill pattern
//!   high-rank virtual worlds produce on hot resources.
//! * `timeline_naive_reserves_per_s` — the same pattern through the
//!   frozen flat sorted-`Vec` algorithm (the pre-chunking structure),
//!   kept as the before lane so the speedup stays visible in
//!   `BENCH_sched.json`.

use harness::{metrics, Stopwatch};
use simnet::{Resource, Time};

/// One context switch per (rank, round): each receive parks the task
/// until its predecessor's token lands.
fn ring_switch_rate(n: usize, rounds: usize) -> f64 {
    let sw = Stopwatch::start();
    mp::run_coop(n, move |comm| async move {
        let r = comm.rank();
        let n = comm.size();
        let mut token = [r as u64];
        for _ in 0..rounds {
            comm.send(&token, (r + 1) % n, 7);
            comm.recv_async(&mut token, (r + n - 1) % n, 7).await;
        }
    });
    (n * rounds) as f64 / sw.elapsed_secs()
}

/// Two ranks bouncing one word: two switches per iteration.
fn pingpong_switch_rate(iters: usize) -> f64 {
    let sw = Stopwatch::start();
    mp::run_coop(2, move |comm| async move {
        let mut buf = [0u64];
        for _ in 0..iters {
            if comm.rank() == 0 {
                comm.send(&buf, 1, 9);
                comm.recv_async(&mut buf, 1, 9).await;
            } else {
                comm.recv_async(&mut buf, 0, 9).await;
                comm.send(&buf, 0, 9);
            }
        }
    });
    (2 * iters) as f64 / sw.elapsed_secs()
}

/// Whole-world lifecycle rate for trivial rank tasks.
fn spawn_teardown_rate(n: usize) -> f64 {
    let sw = Stopwatch::start();
    mp::run_coop(n, |comm| async move { comm.rank() });
    n as f64 / sw.elapsed_secs()
}

/// One deterministic LCG step (the reservation pattern generator).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The ready time / size of the `i`-th synthetic reservation: loosely
/// increasing ready times with a wide jitter window, the fragmentation
/// and mid-timeline backfill mix profiled on hot resources of 16k-rank
/// virtual worlds (interval lists grow into the tens of thousands and
/// most reservations land mid-timeline).
fn reservation(i: u64, state: &mut u64) -> (f64, u64) {
    let s = lcg(state);
    let jitter_us = ((s >> 33) % 1_000_000) as f64;
    (i as f64 * 0.5 + jitter_us, 1 + (s >> 55) % 4096)
}

/// First-fit reservation rate of the production timeline.
fn timeline_reserve_rate(n: usize) -> f64 {
    let mut r = Resource::new(1e9);
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let sw = Stopwatch::start();
    for i in 0..n as u64 {
        let (ready_us, bytes) = reservation(i, &mut state);
        r.reserve(Time::from_us(ready_us), bytes);
    }
    n as f64 / sw.elapsed_secs()
}

/// The frozen flat sorted-`Vec` first-fit (verbatim, the pre-chunking
/// structure), the "before" lane. `simnet`'s tests pin the production
/// timeline to this algorithm grant-for-grant; here it pins the
/// speedup.
fn naive_reserve_rate(n: usize) -> f64 {
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let sw = Stopwatch::start();
    for i in 0..n as u64 {
        let (ready_us, bytes) = reservation(i, &mut state);
        let ready = ready_us * 1e-6;
        let service = bytes as f64 / 1e9;
        let mut idx = intervals.partition_point(|iv| iv.1 <= ready);
        let mut candidate = ready;
        while idx < intervals.len() {
            let (s, e) = intervals[idx];
            if s >= candidate + service {
                break;
            }
            candidate = candidate.max(e);
            idx += 1;
        }
        let start = candidate;
        let end = start + service;
        let merges_prev = idx > 0 && intervals[idx - 1].1 == start;
        let merges_next = idx < intervals.len() && intervals[idx].0 == end;
        match (merges_prev, merges_next) {
            (true, true) => {
                intervals[idx - 1].1 = intervals[idx].1;
                intervals.remove(idx);
            }
            (true, false) => intervals[idx - 1].1 = end,
            (false, true) => intervals[idx].0 = start,
            (false, false) => intervals.insert(idx, (start, end)),
        }
    }
    n as f64 / sw.elapsed_secs()
}

/// Repetitions of each spawn lane (best-of).
const SPAWN_REPS: usize = 7;

fn best_of(reps: usize, f: impl Fn() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(0.0f64, f64::max)
}

fn main() {
    let mut out_path = String::from("BENCH_sched.json");
    let mut baseline_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: bench_sched [--smoke] [--out FILE] [--baseline FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    let (ring_n, rounds, iters, reps, reserves) = if smoke {
        (256, 50, 2_000, 2, 50_000)
    } else {
        (1024, 200, 20_000, 3, 200_000)
    };

    let mut sink = metrics::MetricSink::new("coop-sched");

    // Milliseconds each, so the same sizes and repetitions in both modes:
    // the ratio lane needs steady operands more than it needs speed.
    let spawn = |world: usize, lane: &str, sink: &mut metrics::MetricSink| {
        let rate = best_of(SPAWN_REPS, || spawn_teardown_rate(world));
        println!("spawn+teardown {world} ranks: {rate:.0} ranks/s");
        sink.push(lane, rate, "ranks/s");
        rate
    };
    let spawn_4k = spawn(4096, "spawn_teardown_ranks_per_s_4k", &mut sink);
    let spawn_16k = spawn(16_384, "spawn_teardown_ranks_per_s_16k", &mut sink);
    spawn(65_536, "spawn_teardown_ranks_per_s", &mut sink);
    println!(
        "spawn rate 16k over 4k: {:.3} (0.25 is quadratic)",
        spawn_16k / spawn_4k
    );
    sink.push("spawn_rate_16k_over_4k", spawn_16k / spawn_4k, "x");

    let ring = best_of(reps, || ring_switch_rate(ring_n, rounds));
    println!("ring {ring_n}x{rounds}: {ring:.0} switches/s");
    sink.push("ring_switches_per_s", ring, "switch/s");

    let pp = best_of(reps, || pingpong_switch_rate(iters));
    println!("pingpong x{iters}: {pp:.0} switches/s");
    sink.push("pingpong_switches_per_s", pp, "switch/s");

    let timeline = best_of(reps, || timeline_reserve_rate(reserves));
    println!("timeline x{reserves}: {timeline:.0} reserves/s");
    sink.push("timeline_reserves_per_s", timeline, "reserve/s");

    let naive = best_of(reps, || naive_reserve_rate(reserves));
    println!(
        "timeline (naive vec) x{reserves}: {naive:.0} reserves/s ({:.1}x slower)",
        timeline / naive
    );
    sink.push("timeline_naive_reserves_per_s", naive, "reserve/s");

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = metrics::parse_baseline(&text);
        for (name, speedup) in sink.merge_baseline(&baseline) {
            println!("{name}: {speedup:.2}x vs baseline");
        }
    }

    sink.write(&out_path);
    println!("wrote {out_path}");
}

#!/usr/bin/env bash
# Architectural lints the compiler cannot express. Run from the repo root:
#
#   ci/arch_lint.sh               # lint this repository
#   ci/arch_lint.sh --self-test   # prove the lint catches what it claims
#   ci/arch_lint.sh --root DIR    # lint an arbitrary tree (self-test fixtures)
#
# Enforced invariants:
#
#   1. Wall-clock time (`std::time::Instant`) appears only in
#      `crates/harness`. The runtime and kernel crates must stay
#      wall-clock-free so simulated and virtual execution remain
#      deterministic and a schedule the mpcheck explorer recorded
#      replays to the same run. One named exemption: the spin clock of
#      `block_on` in `crates/mp/src/runtime.rs`, which bounds a blocked
#      rank thread's spin at `SPIN_BUDGET` before it parks. Only rank
#      threads of worlds with a CPU per rank have a budget, so no
#      cooperative, virtual or explored run ever reads it, and it decides
#      how a thread waits, never what it receives. The line carries the
#      marker `// arch_lint: block_on spin budget`; any other `Instant`
#      in that file or in `mp` is still an error.
#   2. `std::thread::sleep` and `std::time::SystemTime` stay out of
#      non-test code everywhere except the harness, two files of the
#      process transport that wait on real OS processes —
#      `transport/tcp.rs` (the connect retry, `CONNECT_SLEEP`) and
#      `transport/launcher.rs` (the child watchdog) — and the vendored
#      `parking_lot` shim. A fleet's monitor ticks on the session condvar,
#      which the pump's control frames wake, not in a sleep. A sleep
#      anywhere else would desynchronise the deterministic schedules the
#      DPOR explorer enumerates.
#   3. Every workspace crate opts into the shared `[workspace.lints]`
#      policy via `[lints] workspace = true`, so a new crate cannot
#      silently skip `forbid(unsafe_code)`.
#   4. No source file re-enables a workspace-forbidden lint with
#      `#[allow(...)]` / `#[expect(...)]` — the forbidden set is read
#      from the root manifest, not hard-coded here.
#   5. Traffic is derived, never listed. A non-test `Transfer {` or
#      `LocalWork {` literal appears only in `crates/simnet/src` (which
#      defines them), `crates/mp/src/sched/p2p.rs` (IMB patterns with no
#      collective twin), `crates/mp/src/sched/build.rs` (the step-bucketing
#      builder) and `crates/mp/src/check.rs` (`RunLog::transfers`, rule 14);
#      doc-comment examples are exempt. Every other schedule is the builder
#      run over the `*_steps` function its `mp::coll` body loops over, and
#      one-sided traffic is what `mp::rma` prices as the program runs; a
#      literal elsewhere is a second, hand-written encoding of traffic the
#      code already sends, growing back.
#   6. No `bench_*.rs` under `crates/bench/src/bin/` and no
#      `BENCH_*.json` anywhere outside `target/`. `benchmark/` +
#      `BENCHMARK.json` are the one measurement system; a lane binary
#      or a committed per-host baseline is the second one growing back.
#   7. One launch path, one stall detector. Every world, on either engine,
#      starts and ends on one private path in `crates/mp/src/runtime.rs`:
#      one builder (`World::new`), two engines (`rank_threads`,
#      `coop::execute`), one read of the ambient hook (`launch`) and one
#      fold (`end`). In `crates/mp/src` the rank-thread name literal
#      `"mp-rank-{` and `gate.abort()` each appear exactly once
#      (`runtime::rank_threads` is the only spawn loop), `scoped()` — the
#      ambient hook — and `sink_then_propagate(` are each defined once and
#      called from one place (`runtime::launch`, `runtime::end`), and
#      `find_cycle(` is defined once and
#      called from one place (`Deadlock::from_waits`). A thread world
#      detects its stall when its runnable count (`runtime::Runnable`)
#      reaches zero — a fleet process when the thread that launched its
#      ranks samples the count at zero, and process 0 confirms that no
#      frame is in flight — and a cooperative one when its run queue
#      empties; every one reads the mailboxes' wait edges and assembles its
#      diagnosis there.
#   8. One cross-process transport, one frame decoder. Under
#      `crates/mp/src/transport/` the frame magic is compared in exactly
#      one place (`wire::read_frame`, the only header parser) and
#      `read_at(` does not appear: a receive blocks on a stream, it does
#      not poll a file. A second parser or a polled channel file is the
#      deleted file-channel backend growing back.
#   9. One set of kernel parameters. Non-test code under `crates/smp/src`
#      and `crates/hpcc/src` reads no environment variable (`env::var*`),
#      no `TUNE.hpcc` exists outside `target/`, and there is no
#      `crates/bench/src/bin/tune.rs`. Blocking and pool sizing are
#      constants and code (`smp::TUNED`, `set_process_threads`); an env
#      knob, a per-host table or a tuner binary is a second source of
#      them growing back.
#  10. The collectives the suite runs, and no others. `crates/mp/src/coll/`
#      holds exactly `mod.rs` and the eight operation files (allgather,
#      allgatherv, allreduce, alltoall, barrier, bcast, reduce,
#      reduce_scatter), and `crates/mp/src/sched/mod.rs` declares generator
#      modules only for those eight and `p2p` (plus its private `build`).
#      An operation exists because a registry workload, the IMB or HPCC
#      model, `mp::rma`, `Comm::split` or the mpcheck gallery reaches it
#      (DESIGN.md §3, "Which collectives exist"): a new operation comes
#      with the registry workload that reaches it, and grows this list in
#      the same change.
#  11. The environment a program reads. Non-test code under
#      `crates/*/src` names no `MP_*` or `HPCB_*` variable outside this
#      list: the fleet wiring (`MP_WORLD_SIZE MP_NPROCS MP_PROC
#      MP_WORLD_DIR MP_TCP_PEERS MP_TCP_BIND`) and the campaign's cell
#      description (`HPCB_CELL_WORKLOAD HPCB_CELL_BYTES HPCB_CELL_OUT`). And
#      `env::var*` appears only in `mp/src/transport/{mod,tcp}.rs` and
#      `bench/src/bin/campaign.rs`. A fleet is asked for by its process
#      count; a variable that restates it, or that every caller sets the
#      same way, is a configuration nobody tests growing back.
#  12. Artefacts price through the registry. Non-test code under
#      `crates/core/src` and `crates/bench/src` names a benchmark's own
#      execution path (`imb::sim::`, `hpcc::sim::`, `imb::native::`,
#      `imb::run_virtual`, `hpcc::suite::run_`, `hpcc::virtual_run::`)
#      only in `crates/core/src/registry.rs`, which wires those paths into
#      `Workload` entries; everything else runs a `RunPlan` over the
#      registry. `imb::ext::run_virtual` appears only in
#      `crates/core/src/extensions.rs`: IMB-EXT has no registry entry yet.
#      A figure that calls a model directly is a second pricing route
#      growing back.
#  13. One butterfly network. Non-test code under `crates/hpcc/src`
#      defines no function whose name contains `dit`. The FFT engine's
#      decimation-in-frequency passes serve every transform ordering, with
#      the bit reversal fused into the copies around them; a `*_dit`
#      kernel is the deleted decimation-in-time mirror growing back.
#  14. One record of a run, one hook to get it. Non-test code under
#      `crates/` names none of `install_explore`, `ScopedExplore`,
#      `run_controlled_coop` and `classify_panic`, and under
#      `crates/mp/src` a `Transfer {` literal outside `sched/` appears
#      exactly once, in `check.rs` (`RunLog::transfers`). A world's
#      `RunLog` carries its events, its diagnosis and its rank panics; a
#      trace is a projection of its send events, and
#      `check::install_scoped` instruments every world a thread starts, on
#      either engine. A trace recorded beside the events, a second ambient
#      hook, a controlled door or a panic parsed back out of its message is
#      a second record growing back.
#  15. The public surface is what another crate reads. `ci/pub_surface.sh`
#      lists no unused public definition: every `pub` fn, type, trait,
#      const, static and mod under `crates/*/src` is spelled by another
#      crate, a crate's `tests/`, the umbrella's `src/`, `tests/` or
#      `examples/`, or `benchmark/`, or is handed to one through a kept
#      public signature. Names only `benchmark/` spells are allowed (the
#      script lists them apart). Anything else is `pub(crate)`, so
#      `dead_code` sees it, and the `unreachable_pub` lint in the root
#      manifest keeps the rest of the surface honest.
#  16. A blocked rank parks until it is woken. Non-test code under
#      `crates/mp/src` outside `transport/` has no `park_timeout(`: a
#      waiting rank thread, and a launcher waiting for its world's
#      runnable count, park with no deadline, and a stall is named by the
#      count, not by a clock. A timed park is the poll-based detector (the
#      park slices counted against a deadlock timeout) growing back.
#  17. Collectives send through `Comm::encode`. Non-test code under
#      `crates/mp/src/coll/` spells neither `Payload::encode(` nor an
#      operand-vector receive (`recv_vec`, `.decode(`): a typed message is
#      written once, into the communicator's recycled buffer when it is
#      large, and read once, decoded into the caller's words or folded
#      straight from the wire (`Payload::fold_into`). A bare encode or a
#      fresh operand vector is the extra allocation and pass over every
#      large message growing back.
#  18. Pricing paths price rounds. Non-test code under `crates/*/src`
#      calls no `schedule_for(` (the materialising adaptor that tests and
#      `benchmark/` read), and `crates/imb/src/sim.rs` and
#      `crates/hpcc/src/sim.rs` spell `Schedule::collect(` only inside
#      that adaptor's body. A pricer takes a generator's rounds as they
#      come; a collected schedule is the p(p-1)-transfer pairwise exchange
#      materialised again before the first round is priced.
#
# Test modules (a column-0 `#[cfg(test)]` on an inline `mod`, to its
# column-0 closing brace; `ci/nontest.awk`) are exempt from the source
# scans: tests may sleep to provoke blocking paths. A `#[cfg(test)]` on any
# other item hides nothing below it.
set -u

# Rule 10: the collective operations `mp` has.
coll_ops="allgather allgatherv allreduce alltoall barrier bcast reduce reduce_scatter"
# Rule 11: the environment variables a program reads, and where it reads them.
env_names="MP_WORLD_SIZE MP_NPROCS MP_PROC MP_WORLD_DIR MP_TCP_PEERS MP_TCP_BIND \
HPCB_CELL_WORKLOAD HPCB_CELL_BYTES HPCB_CELL_OUT"
env_readers="mp/src/transport/mod.rs|mp/src/transport/tcp.rs|bench/src/bin/campaign.rs"

root=""
selftest=0
while [ $# -gt 0 ]; do
    case "$1" in
        --root)
            root=$2
            shift 2
            ;;
        --self-test)
            selftest=1
            shift
            ;;
        *)
            echo "usage: arch_lint.sh [--root DIR] [--self-test]" >&2
            exit 2
            ;;
    esac
done

if [ "$selftest" -eq 1 ]; then
    self=$(cd "$(dirname "$0")" && pwd)/$(basename "$0")
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT

    # --- The passing fixture: a compliant miniature workspace ----------
    pass="$tmp/pass"
    mkdir -p "$pass/crates/ok/src"
    cat > "$pass/Cargo.toml" <<'EOF'
[workspace.lints.rust]
unsafe_code = "forbid"

[lints]
workspace = true
EOF
    cat > "$pass/crates/ok/Cargo.toml" <<'EOF'
[package]
name = "ok"

[lints]
workspace = true
EOF
    # Rule 15: a name only benchmark/ spells stays public; an item nobody
    # outside its crate reads is pub(crate).
    cat > "$pass/crates/ok/src/lib.rs" <<'EOF'
pub fn f() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn sleeps_are_fine_in_tests() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
EOF
    mkdir -p "$pass/benchmark/src"
    echo 'fn main() { let _ = ok::f(); }' > "$pass/benchmark/src/main.rs"
    echo 'pub(crate) fn unread_helper() {}' > "$pass/crates/ok/src/surface.rs"
    # A test module behind a second attribute is still a test module, and
    # the one named clock of rule 1 is let through where it is named.
    cat > "$pass/crates/ok/src/attr.rs" <<'EOF'
#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }
}
EOF
    mkdir -p "$pass/crates/mp/src/sched"
    # One spawn loop, one read of the ambient hook, one propagation, one
    # cycle finder with one caller, one spin clock.
    cat > "$pass/crates/mp/src/runtime.rs" <<'EOF'
fn spin() {
    let start = Instant::now(); // arch_lint: block_on spin budget
}
fn rank_threads() {
    builder.name(format!("mp-rank-{rank}"));
    gate.abort();
}
fn launch() { let scoped = check::scoped(); let _g = install_scoped(check); }
fn end(checked: Checked) { checked.sink_then_propagate(sink); }
fn scoped() -> Option<ScopedCheck> { None }
fn sink_then_propagate(self, sink: impl FnOnce(RunLog)) {}
fn from_waits() { find_cycle(&succ); }
fn find_cycle(succ: &[Option<usize>]) {}
EOF
    # A trace is the log's projection of its send events; a test may build
    # the transfers it expects.
    cat > "$pass/crates/mp/src/check.rs" <<'EOF'
pub(crate) fn transfers(log: &RunLog) -> Vec<Transfer> {
    sends(log).map(|(src, dst, bytes)| Transfer { src, dst, bytes }).collect()
}

#[cfg(test)]
mod tests {
    fn want() -> Transfer { Transfer { src: 1, dst: 0, bytes: 8 } }
}
EOF
    # One header parser; writing the magic is not checking it.
    mkdir -p "$pass/crates/mp/src/transport"
    cat > "$pass/crates/mp/src/transport/wire.rs" <<'EOF'
const MAGIC: u32 = u32::from_le_bytes(*b"MPW1");
fn encode_into(out: &mut Vec<u8>) { out.extend_from_slice(&MAGIC.to_le_bytes()); }
fn read_frame() { assert_eq!(magic, MAGIC, "bad frame magic"); }
EOF
    # The builder may write transfers; that is its job.
    cat > "$pass/crates/mp/src/sched/build.rs" <<'EOF'
pub(crate) fn push(round: &mut Round) {
    round.transfers.push(Transfer { src: 0, dst: 1, bytes: 8 });
    round.work.push(LocalWork { rank: 1, bytes: 8 });
}
EOF
    # Binaries that are not lane binaries, and the one benchmark spec.
    mkdir -p "$pass/crates/bench/src/bin"
    echo 'fn main() {}' > "$pass/crates/bench/src/bin/campaign.rs"
    echo '{}' > "$pass/BENCHMARK.json"
    # Kernel parameters as constants; a test may read the environment.
    mkdir -p "$pass/crates/hpcc/src"
    cat > "$pass/crates/hpcc/src/fft.rs" <<'EOF'
fn fft_blocks(n: usize) -> usize { smp::TUNED.fft_l1_block.min(n) }

#[cfg(test)]
mod tests {
    fn home() -> String { std::env::var("HOME").unwrap() }
}
EOF
    # The eight operations and their generators; a test module may
    # declare what it likes.
    mkdir -p "$pass/crates/mp/src/coll"
    for op in mod $coll_ops; do touch "$pass/crates/mp/src/coll/$op.rs"; done
    # Sends through the communicator's encoder; receives decode into the
    # caller's words or fold from the wire; a test may build its own wire.
    cat > "$pass/crates/mp/src/coll/reduce_scatter.rs" <<'EOF'
fn step(comm: &Comm, send: &[f64], recv: &mut [f64], op: Op) {
    comm.send_payload(comm.encode(&send[give]), dst, tag);
    data.fold_into(recv, comm.envelope(src, tag), |a, x| op.fold_into(a, x));
    data.decode_into(&mut recv[take], env);
}

#[cfg(test)]
mod tests {
    fn wire() -> Payload { Payload::encode(&[1.0f64], Vec::new()) }
    fn back(p: &Payload) -> Vec<f64> { p.decode(ENV) }
}
EOF
    cat > "$pass/crates/mp/src/sched/mod.rs" <<'EOF'
mod build;
pub(crate) mod p2p;
pub(crate) mod reduce_scatter {
    pub(crate) fn pairwise() {}
}

#[cfg(test)]
mod tests {
    mod scan {}
}
EOF
    # A listed variable read where reads live; an identifier that merely
    # contains `MP_`; a test module's variable of its own.
    cat > "$pass/crates/mp/src/transport/mod.rs" <<'EOF'
pub(crate) const ENV_NPROCS: &str = "MP_NPROCS";
static PUMP_STARTED: bool = false;
fn nprocs() -> Option<String> { std::env::var(ENV_NPROCS).ok() }
fn monitor() { sess.cv.wait_for(&mut st, POLL); std::thread::park_timeout(POLL); }

#[cfg(test)]
mod tests {
    fn case() -> String { std::env::var("MP_TEST_CASE").unwrap() }
}
EOF
    # The transport sleeps where it waits on other processes.
    echo 'fn dial() { std::thread::sleep(CONNECT_SLEEP); }' > "$pass/crates/mp/src/transport/tcp.rs"
    echo 'fn wait() { std::thread::sleep(WAIT_POLL); }' > "$pass/crates/mp/src/transport/launcher.rs"
    # The registry wires the models; a figure runs a plan over it; a test
    # may compare with a model directly.
    mkdir -p "$pass/crates/core/src"
    cat > "$pass/crates/core/src/registry.rs" <<'EOF'
fn sim(m: &Machine, b: Benchmark, p: usize) -> Record { imb::sim::simulate(m, b, p, 8) }
EOF
    cat > "$pass/crates/core/src/figures.rs" <<'EOF'
pub(crate) fn fig(cfg: &FigureConfig) -> Vec<Record> { paper_plan(cfg).execute(&crate::registry()) }

#[cfg(test)]
mod tests {
    fn direct(m: &Machine) -> Record { imb::sim::simulate(m, Benchmark::Barrier, 4, 0) }
}
EOF
    cat > "$pass/crates/core/src/extensions.rs" <<'EOF'
fn put(m: &Machine, r: &Runner) -> f64 { imb::ext::run_virtual(m, UnidirPut, Fence, 8, r).mbs }
EOF
    # The types' own crate defines them, and a doc example may spell one.
    mkdir -p "$pass/crates/simnet/src" "$pass/crates/machines/src"
    cat > "$pass/crates/simnet/src/schedule.rs" <<'EOF'
pub struct Transfer {
    pub bytes: u64,
}
EOF
    cat > "$pass/crates/machines/src/lib.rs" <<'EOF'
//! sched.push(simnet::Round::of(vec![simnet::Transfer { src: 0, dst: 63, bytes: 1024 }]));
EOF
    # Pricing streams rounds; the adaptor collects them for its readers,
    # and a test may call it.
    mkdir -p "$pass/crates/imb/src"
    cat > "$pass/crates/imb/src/sim.rs" <<'EOF'
fn rounds_for(b: Benchmark, p: usize, n: u64) -> Box<dyn Rounds> { Box::new(sched::barrier::auto(p)) }
pub(crate) fn schedule_for(b: Benchmark, p: usize, n: u64) -> Schedule {
    Schedule::collect(rounds_for(b, p, n))
}
fn simulate(sim: &ClusterSim, b: Benchmark, p: usize, n: u64) -> Time { sim.run(rounds_for(b, p, n)) }

#[cfg(test)]
mod tests {
    fn sched() -> Schedule { super::schedule_for(Benchmark::Barrier, 4, 0) }
}
EOF
    # The DIF kernels; a test may name a helper after what it checks.
    mkdir -p "$pass/crates/hpcc/src/kernels"
    cat > "$pass/crates/hpcc/src/kernels/fft.rs" <<'EOF'
fn merged_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], stage: &Stage) {}

#[cfg(test)]
mod tests {
    fn naive_dit(x: &[f64]) {}
}
EOF
    if ! "$self" --root "$pass" > "$tmp/pass.log" 2>&1; then
        echo "arch_lint --self-test: compliant fixture was rejected:" >&2
        cat "$tmp/pass.log" >&2
        exit 1
    fi

    # --- The failing fixture: one of each violation --------------------
    bad="$tmp/bad"
    mkdir -p "$bad/crates/bad/src"
    cat > "$bad/Cargo.toml" <<'EOF'
[workspace.lints.rust]
unsafe_code = "forbid"

[lints]
workspace = true
EOF
    # Manifest that skips the workspace lint policy.
    cat > "$bad/crates/bad/Cargo.toml" <<'EOF'
[package]
name = "bad"
EOF
    # Wall-clock, a stray sleep, and a forbidden-lint opt-out.
    cat > "$bad/crates/bad/src/lib.rs" <<'EOF'
#[allow(unsafe_code)]
pub fn f() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
}
EOF
    # A `#[cfg(test)]` that gates one item hides nothing below it, and
    # the spin clock's exemption is one line, not the file.
    cat > "$bad/crates/bad/src/below_const.rs" <<'EOF'
#[cfg(test)]
const TEST_ONLY_TIMEOUT_SECS: u64 = 20;

pub fn g() {
    let _ = std::time::Instant::now();
}
EOF
    mkdir -p "$bad/crates/mp/src/sched"
    # A second spawn loop, a second assembly of the wait-for graph, and a
    # second read of the ambient hook that propagates on its own.
    cat > "$bad/crates/mp/src/runtime.rs" <<'EOF'
fn rank_threads() {
    builder.name(format!("mp-rank-{rank}"));
    gate.abort();
}
fn run_checked_inner() {
    builder.name(format!("mp-rank-{rank}"));
    gate.abort();
    find_cycle(&succ);
}
fn from_waits() { find_cycle(&succ); }
fn find_cycle(succ: &[Option<usize>]) {}
pub struct World {
    pub trace: Option<Mutex<Vec<Transfer>>>,
}
fn deliver(world: &World, dst: usize, msg: Message) {
    world.trace.as_ref().unwrap().lock().push(Transfer { src: msg.src, dst, bytes: msg.len() });
}
fn block_on() {
    let deadline = Instant::now() + timeout;
    std::thread::park_timeout(PARK_SLICE);
}
fn launch() { let scoped = check::scoped(); }
fn run_coop_inner() { if let Some(s) = check::scoped() { checked.sink_then_propagate(&*s.sink); } }
fn scoped() -> Option<ScopedCheck> { None }
fn sink_then_propagate(self, sink: impl FnOnce(RunLog)) {}
fn end(checked: Checked) { checked.sink_then_propagate(sink); }
EOF
    # A second ambient hook, and a panic parsed back out of its message.
    mkdir -p "$bad/crates/harness/src"
    cat > "$bad/crates/harness/src/explore.rs" <<'EOF'
fn run_scripted(ctl: Arc<Guided>) { let _g = mp::install_explore(explore(ctl)); }
fn rank_of(msg: &str) -> Option<(usize, String)> { mpcheck::classify_panic(msg) }
EOF
    # A second header parser, polling a channel file; a second way to ask
    # for a fleet, read where reads are allowed but not on the list; and a
    # monitor that sleeps.
    mkdir -p "$bad/crates/mp/src/transport"
    cat > "$bad/crates/mp/src/transport/mod.rs" <<'EOF'
fn backend() -> Option<String> { std::env::var("MP_BACKEND").ok() }
fn monitor() { std::thread::sleep(POLL); }
EOF
    cat > "$bad/crates/mp/src/transport/wire.rs" <<'EOF'
fn read_frame() { assert_eq!(magic, MAGIC, "bad frame magic"); }
EOF
    cat > "$bad/crates/mp/src/transport/chan.rs" <<'EOF'
fn poll(file: &File, chunk: &mut [u8], offset: u64) {
    let n = file.read_at(chunk, offset);
    if magic != MAGIC { panic!("bad frame magic"); }
}
EOF
    # A hand-written schedule generator beside the builder.
    cat > "$bad/crates/mp/src/sched/allgather.rs" <<'EOF'
pub fn ring(n: usize, bytes: u64) -> Round {
    Round::of((0..n).map(|i| Transfer { src: i, dst: (i + 1) % n, bytes }).collect())
}
EOF
    # A lane binary and its committed baseline.
    mkdir -p "$bad/crates/bench/src/bin"
    echo 'fn main() {}' > "$bad/crates/bench/src/bin/bench_mp.rs"
    echo '{}' > "$bad/BENCH_mp.json"
    # A kernel reading its blocking from the environment, and a committed
    # per-host table.
    mkdir -p "$bad/crates/hpcc/src"
    cat > "$bad/crates/hpcc/src/fft.rs" <<'EOF'
fn fft_blocks(n: usize) -> usize {
    std::env::var("HPCB_FFT_L1").ok().and_then(|v| v.parse().ok()).unwrap_or(n)
}
EOF
    printf 'hpcbench-tune-v1\n' > "$bad/TUNE.hpcc"
    echo 'fn main() {}' > "$bad/crates/bench/src/bin/tune.rs"
    # A ninth collective that no workload reaches, and its generator.
    mkdir -p "$bad/crates/mp/src/coll"
    for op in mod $coll_ops scan; do touch "$bad/crates/mp/src/coll/$op.rs"; done
    # A bare encode beside the recycled buffer, and a fresh operand vector.
    cat > "$bad/crates/mp/src/coll/reduce_scatter.rs" <<'EOF'
fn step(comm: &Comm, send: &[f64], recv: &mut [f64], op: Op) {
    comm.send_payload(Payload::encode(&send[give]), dst, tag);
    let operand: Vec<f64> = comm.recv_vec_async(src, tag).await;
    let got = comm.recv_payload_async(src, tag).await.decode::<f64>(env);
}
EOF
    cat > "$bad/crates/mp/src/sched/mod.rs" <<'EOF'
pub mod p2p;
pub mod scan {
    pub fn linear() {}
}
EOF
    # A figure that prices its cells by calling the model, and a one-sided
    # model call outside the extension studies.
    mkdir -p "$bad/crates/core/src"
    cat > "$bad/crates/core/src/figures.rs" <<'EOF'
pub fn barrier_figure(m: &Machine, p: usize) -> Record {
    imb::sim::simulate(m, Benchmark::Barrier, p, 0)
}
EOF
    cat > "$bad/crates/bench/src/bin/campaign.rs" <<'EOF'
fn put(m: &Machine, r: &Runner) -> f64 { imb::ext::run_virtual(m, UnidirPut, Fence, 8, r).mbs }
EOF
    # A hand-listed one-sided epoch beside the program that sends it.
    mkdir -p "$bad/crates/imb/src"
    cat > "$bad/crates/imb/src/ext.rs" <<'EOF'
pub(crate) fn schedule_for(bytes: u64) -> Schedule {
    Schedule::of(vec![Round::of(vec![Transfer { src: 0, dst: 1, bytes }])])
}
EOF
    # A public function no other crate, test, example or benchmark reads.
    echo 'pub fn unread_helper() {}' > "$bad/crates/bad/src/surface.rs"
    # A test module ends at its closing brace: what follows is scanned and
    # counted again.
    cat > "$bad/crates/bad/src/after_tests.rs" <<'EOF'
#[cfg(test)]
mod tests {
    fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }
}

pub fn after_tests() { let _ = std::time::Instant::now(); }
EOF
    # A pricer that prices through the adaptor, and one that collects a
    # pairwise exchange before pricing it.
    cat > "$bad/crates/imb/src/sim.rs" <<'EOF'
fn simulate(sim: &ClusterSim, b: Benchmark, p: usize, n: u64) -> Time {
    sim.run(Replay::new(&schedule_for(b, p, n)))
}
EOF
    cat > "$bad/crates/hpcc/src/sim.rs" <<'EOF'
fn gfft(sim: &ClusterSim, p: usize, block: u64) {
    let transpose = Schedule::collect(sched::alltoall::pairwise(p, block));
}
EOF
    # A decimation-in-time mirror beside the DIF passes.
    mkdir -p "$bad/crates/hpcc/src/kernels"
    cat > "$bad/crates/hpcc/src/kernels/fft.rs" <<'EOF'
fn merged_dif<const INV: bool>(re: &mut [f64], im: &mut [f64], stage: &Stage) {}
fn merged_dit<const INV: bool>(re: &mut [f64], im: &mut [f64], stage: &Stage) {}
EOF
    if "$self" --root "$bad" > "$tmp/bad.log" 2>&1; then
        echo "arch_lint --self-test: violating fixture was accepted" >&2
        exit 1
    fi
    for needle in "lib.rs:3: .*Instant" "below_const.rs:5: .*Instant" \
        "runtime.rs:19: .*Instant" "thread::sleep" "SystemTime" "does not opt into" \
        "allow(unsafe_code)" "hand-written schedule" \
        'runtime.rs:6: .*mp-rank-' "runtime.rs:7: .*gate.abort" "runtime.rs:8: .*find_cycle" \
        "chan.rs:2: .*read_at" "chan.rs:3: .*MAGIC" \
        "bin/bench_mp.rs" "/BENCH_mp.json" "fft.rs:2: .*HPCB_FFT_L1" "/TUNE.hpcc" "bin/tune.rs" \
        "unexpected crates/mp/src/coll/scan.rs" "sched/mod.rs:2: pub mod scan" \
        "transport/mod.rs:1: .*<- MP_BACKEND" "transport/mod.rs:2: .*thread::sleep" \
        "hpcc/src/fft.rs:2: .*env::var" \
        "core/src/figures.rs:2: .*imb::sim::simulate" "bin/campaign.rs:1: .*imb::ext::run_virtual" \
        "imb/src/ext.rs:2: .*Transfer {" \
        "kernels/fft.rs:2: fn merged_dit" "mp/src/runtime.rs:16: .*push(Transfer {" \
        "mp/src/runtime.rs:20: .*park_timeout" \
        "scoped() (one definition, one call): 3 line" \
        "sink_then_propagate( (one definition, one call): 3 line" \
        "mp/src/runtime.rs:23: fn run_coop_inner" \
        "harness/src/explore.rs:1: .*install_explore" "harness/src/explore.rs:2: .*classify_panic" \
        "bad/src/surface.rs:1: pub fn unread_helper" "after_tests.rs:6: .*Instant" \
        "bad/src/after_tests.rs:6: pub fn after_tests" \
        "coll/reduce_scatter.rs:2: .*Payload::encode" "coll/reduce_scatter.rs:3: .*recv_vec_async" \
        "coll/reduce_scatter.rs:4: .*decode::<f64>" \
        "imb/src/sim.rs:2: .*schedule_for(" "hpcc/src/sim.rs:2: .*Schedule::collect("; do
        if ! grep -q "$needle" "$tmp/bad.log"; then
            echo "arch_lint --self-test: missing diagnostic for '$needle':" >&2
            cat "$tmp/bad.log" >&2
            exit 1
        fi
    done
    echo "arch_lint: self-test ok (pass and fail fixtures behave)"
    exit 0
fi

nontest=$(cd "$(dirname "$0")" && pwd)/nontest.awk
surface=$(cd "$(dirname "$0")" && pwd)/pub_surface.sh
if [ -n "$root" ]; then
    cd "$root"
else
    cd "$(dirname "$0")/.."
fi

fail=0
err() {
    echo "arch_lint: $1" >&2
    fail=1
}

# Prints PATTERN matches in crates/**/*.rs as file:line: text, ignoring
# every file's test module (see ci/nontest.awk, which ci/loc.sh counts by).
scan() {
    find crates -name '*.rs' -print0 2>/dev/null | sort -z | \
        xargs -0 -r awk -v pat="$1" -f "$nontest"
}

# --- 1. Instant stays inside the harness --------------------------------
offenders=$(scan 'time::Instant|Instant::now' \
    | grep -v '^crates/harness/' \
    | grep -v '^crates/mp/src/runtime\.rs:.* // arch_lint: block_on spin budget$' \
    || true)
if [ -n "$offenders" ]; then
    err "std::time::Instant outside crates/harness (wall-clock belongs to the harness only):
$offenders"
fi

# --- 2. Sleeps and SystemTime stay out of the deterministic layers ------
offenders=$(scan 'thread::sleep|time::SystemTime|SystemTime::now' \
    | grep -v '^crates/harness/' \
    | grep -vE '^crates/mp/src/transport/(tcp|launcher)\.rs:' \
    | grep -v '^crates/parking_lot/' || true)
if [ -n "$offenders" ]; then
    err "thread::sleep / SystemTime outside the harness, tcp's connect retry and the \
launcher's watchdog (deterministic layers must not touch the wall clock, and a fleet's \
monitor ticks on the session condvar):
$offenders"
fi

# --- 3. Every manifest opts into the workspace lint policy --------------
for manifest in Cargo.toml crates/*/Cargo.toml; do
    [ -f "$manifest" ] || continue
    if ! grep -q '^\[lints\]' "$manifest" \
        || ! grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace *= *true'; then
        err "$manifest does not opt into [workspace.lints] ([lints] workspace = true)"
    fi
done

# --- 4. The policy itself stays strict, and nothing opts back out ------
if ! grep -q '^unsafe_code *= *"forbid"' Cargo.toml; then
    err "root Cargo.toml must keep unsafe_code = \"forbid\" under [workspace.lints.rust]"
fi
forbidden=$(awk '
    /^\[workspace\.lints/ { insec = 1; next }
    /^\[/ { insec = 0 }
    insec && /= *"forbid"/ { print $1 }
' Cargo.toml)
for lint in $forbidden; do
    # Opt-outs are forbidden in test code too: forbid is crate-wide.
    optouts=$(grep -rnE "(allow|expect)\($lint\)" crates --include='*.rs' 2>/dev/null || true)
    if [ -n "$optouts" ]; then
        err "allow($lint) / expect($lint) found, but the workspace forbids $lint:
$optouts"
    fi
done

# --- 5. Traffic is derived, never listed ----------------------------------
offenders=$(scan 'Transfer \{|LocalWork \{' \
    | grep -vE '^[^:]*:[0-9]+: *//[/!]' \
    | grep -vE '^crates/(simnet/src/|mp/src/sched/(p2p|build)\.rs:|mp/src/check\.rs:)' || true)
if [ -n "$offenders" ]; then
    err "hand-written schedule (derive collective traffic from the mp::coll *_steps \
function through sched::build, and price one-sided traffic as mp::rma executes it):
$offenders"
fi

# --- 6. One measurement system: benchmark/ + BENCHMARK.json -------------
offenders=$(
    find crates/bench/src/bin -name 'bench_*.rs' 2>/dev/null
    find . \( -name target -o -name .git \) -prune -o -name 'BENCH_*.json' -print
)
if [ -n "$offenders" ]; then
    err "second measurement system (add a probe to benchmark/ and a row to \
BENCHMARK.json instead of a lane binary or a committed baseline):
$offenders"
fi

# --- 7. One way to start a world, one stall detector ---------------------
# Errors unless PATTERN ($2) has exactly $3 non-test lines under DIR ($4);
# $5 says where the one copy lives.
exactly() {
    hits=$(scan "$2" | grep "^$4/" || true)
    count=$(printf '%s' "$hits" | grep -c . || true)
    if [ "$count" -ne "$3" ]; then
        err "$1: $count line(s) in $4, expected $3 ($5):
$hits"
    fi
}
if [ -f crates/mp/src/runtime.rs ]; then
    one_launch="a world starts and ends on the one launch path in runtime.rs (rank threads \
in rank_threads, the ambient hook read in launch, the fold in end) and a diagnosis is \
assembled in Deadlock::from_waits; call those instead of growing a second copy"
    exactly 'the rank-thread name "mp-rank-{' '"mp-rank-[{]' 1 crates/mp/src "$one_launch"
    exactly 'gate.abort()' 'gate[.]abort[(][)]' 1 crates/mp/src "$one_launch"
    exactly 'scoped() (one definition, one call)' '(^|[^A-Za-z0-9_])scoped[(][)]' 2 crates/mp/src \
        "$one_launch"
    exactly 'sink_then_propagate( (one definition, one call)' 'sink_then_propagate[(]' 2 \
        crates/mp/src "$one_launch"
    exactly 'find_cycle( (one definition, one call)' 'find_cycle[(]' 2 crates/mp/src "$one_launch"
fi

# --- 8. One cross-process transport, one frame decoder -------------------
if [ -d crates/mp/src/transport ]; then
    exactly 'a comparison with the frame MAGIC' '(==|!=|,) *MAGIC' 1 crates/mp/src/transport \
        "wire::read_frame is the one header parser; decode through it"
    offenders=$(scan 'read_at[(]' | grep '^crates/mp/src/transport/' || true)
    if [ -n "$offenders" ]; then
        err "read_at( in crates/mp/src/transport (a receive blocks on a stream; a polled \
channel file is the deleted file-channel backend growing back):
$offenders"
    fi
fi

# --- 9. One set of kernel parameters -------------------------------------
offenders=$(
    find crates/bench/src/bin -name 'tune.rs' 2>/dev/null
    find . \( -name target -o -name .git \) -prune -o -name 'TUNE.hpcc' -print
)
if [ -n "$offenders" ]; then
    err "second source of kernel parameters (blocking lives in smp::TUNED, pool sizing in \
smp::pool; no per-host table or tuner binary):
$offenders"
fi

# --- 10. The collectives the suite runs, and no others -------------------
if [ -d crates/mp/src/coll ]; then
    want=$(for op in mod $coll_ops; do echo "crates/mp/src/coll/$op.rs"; done | sort)
    have=$(find crates/mp/src/coll -mindepth 1 | sort)
    files=$(comm -3 <(echo "$want") <(echo "$have") \
        | sed -e 's/^\t/unexpected /' -e t -e 's/^/missing /')
    alts=$(echo "$coll_ops p2p build" | tr ' ' '|')
    mods=$(scan '^ *(pub([(][a-z]+[)])? )?mod [a-z_0-9]+' \
        | grep '^crates/mp/src/sched/mod\.rs:' | grep -vE ": *(pub([(][a-z]+[)])? )?mod ($alts)\b" || true)
    offenders=$(printf '%s\n%s\n' "$files" "$mods" | grep . || true)
    if [ -n "$offenders" ]; then
        err "a collective no workload reaches (crates/mp/src/coll is mod.rs + $coll_ops; \
sched/mod.rs generates those and p2p; a new operation comes with the registry workload \
that reaches it and extends rule 10's list):
$offenders"
    fi
fi

# --- 11. The environment a program reads ---------------------------------
name_re='(^|[^A-Za-z0-9_])(MP|HPCB)_[A-Z0-9_]*[A-Z0-9]'
offenders=$(
    scan "$name_re" | grep '^crates/[^/]*/src/' | while IFS= read -r line; do
        for name in $(echo "$line" | grep -oE "$name_re" | sed 's/^[^A-Z]//'); do
            case " $env_names " in
                *" $name "*) ;;
                *) echo "$line   <- $name" ;;
            esac
        done
    done
    scan 'env::var' | grep '^crates/[^/]*/src/' | grep -vE "^crates/($env_readers):" || true
)
if [ -n "$offenders" ]; then
    err "an environment variable outside rule 11's list, or read outside its four files \
(a fleet is asked for by its process count; a new variable joins rule 11's list in the \
same change):
$offenders"
fi

# --- 12. Artefacts price through the registry ----------------------------
offenders=$(
    scan 'imb::sim::|hpcc::sim::|imb::native::|imb::run_virtual|hpcc::suite::run_|hpcc::virtual_run::' \
        | grep -E '^crates/(core|bench)/src/' | grep -v '^crates/core/src/registry\.rs:' || true
    scan 'imb::ext::run_virtual' \
        | grep -E '^crates/(core|bench)/src/' | grep -v '^crates/core/src/extensions\.rs:' || true
)
if [ -n "$offenders" ]; then
    err "a benchmark's execution path called outside the registry (run a RunPlan over \
hpcbench::registry(); only crates/core/src/registry.rs wires those paths, and only \
extensions.rs calls imb::ext::run_virtual):
$offenders"
fi

# --- 13. One butterfly network --------------------------------------------
offenders=$(scan 'fn [a-z0-9_]*dit' | grep '^crates/hpcc/src/' || true)
if [ -n "$offenders" ]; then
    err "a decimation-in-time kernel in crates/hpcc/src (the DIF passes serve every \
transform; fuse a bit reversal into the copies around them instead):
$offenders"
fi

# --- 14. One record of a run, one hook to get it --------------------------
offenders=$(
    scan 'install_explore|ScopedExplore|run_controlled_coop|classify_panic'
    scan 'Transfer \{' | grep '^crates/mp/src/' | grep -v '^crates/mp/src/sched/' \
        | grep -v '^crates/mp/src/check\.rs:' || true
)
if [ -n "$offenders" ]; then
    err "a second record of a run (a world's RunLog holds its events, diagnosis and rank \
panics; a trace is RunLog::transfers, the one Transfer literal outside sched/; \
check::install_scoped is the one hook, for both engines):
$offenders"
fi
if [ -f crates/mp/src/check.rs ]; then
    hits=$(scan 'Transfer \{' | grep '^crates/mp/src/check\.rs:' || true)
    if [ "$(printf '%s' "$hits" | grep -c .)" -ne 1 ]; then
        err "a Transfer literal in crates/mp/src/check.rs other than the one in \
RunLog::transfers (a trace is that projection of the send events):
$hits"
    fi
fi

# --- 15. The public surface is what another crate reads ------------------
offenders=$("$surface" --root . | awk '/^unused:/ { s = 1; next } /^[a-z]/ { s = 0 } s' || true)
if [ -n "$offenders" ]; then
    err "a public definition no other crate, test, example or benchmark reads (make it \
pub(crate), then delete what dead_code reports; see ci/pub_surface.sh):
$offenders"
fi

# --- 16. A blocked rank parks until it is woken ---------------------------
offenders=$(scan 'park_timeout[(]' | grep '^crates/mp/src/' | grep -v '^crates/mp/src/transport/' || true)
if [ -n "$offenders" ]; then
    err "park_timeout( in crates/mp/src outside transport/ (a blocked rank parks until it is \
woken, and its world's runnable count names a stall; a timed park is the poll-based detector \
growing back):
$offenders"
fi

# --- 17. Collectives send through Comm::encode ----------------------------
offenders=$(scan 'Payload::encode[(]|recv_vec|[.]decode(::<[^>]*>)?[(]' \
    | grep '^crates/mp/src/coll/' || true)
if [ -n "$offenders" ]; then
    err "a collective encoding or decoding beside the recycled buffer (send comm.encode(..); \
receive into the caller's words with decode_into or fold from the wire with \
Payload::fold_into, then comm.recycle the payload):
$offenders"
fi

# --- 18. Pricing paths price rounds --------------------------------------
offenders=$(
    scan 'schedule_for[(]' | grep '^crates/[^/]*/src/' | grep -vE '^[^:]*:[0-9]+: *//[/!]' \
        | grep -vE '^[^:]*:[0-9]+: *(pub(\([a-z]+\))? )?fn schedule_for[(]' || true
    # In the two pricers, a collect is allowed from `fn schedule_for(` to
    # the column-0 brace that closes it.
    scan 'fn schedule_for[(]|^}|Schedule::collect[(]' | grep -E '^crates/(imb|hpcc)/src/sim\.rs:' \
        | awk '{ f = $0; sub(/:.*/, "", f); t = $0; sub(/^[^:]*:[0-9]+: /, "", t) }
            f != file { file = f; adaptor = 0 }
            t ~ /fn schedule_for[(]/ { adaptor = 1; next }
            t ~ /^}/ { adaptor = 0; next }
            !adaptor' || true
)
if [ -n "$offenders" ]; then
    err "a pricing path that materialises a schedule (price a generator's rounds as they \
come with ClusterSim::run; schedule_for and Schedule::collect are the adaptor for tests and \
benchmark/):
$offenders"
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "arch_lint: ok"

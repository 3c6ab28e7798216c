//! Isolated layer probes of the traced run: each calls one layer's public
//! functions directly, at fixed inputs that do not depend on the workload
//! or the seed, so the same number can be compared across workloads and
//! commits. Rates are the best of a few repetitions; counts are exact.

use harness::{records_json, Mode, Runner, Stopwatch};
use hpcc::kernels::fft::Complex;
use hpcc::kernels::stream::{StreamArrays, StreamKernel};
use imb::Benchmark;
use machines::{systems, ClusterSim};
use simnet::schedule::P2pCost;
use simnet::units::{KIB, MIB};
use simnet::{Resource, Schedule, Time};

use crate::cells::Rng;
use crate::host;
use crate::trace::Tracer;

/// One measured value of a probe.
pub type Sample = (&'static str, f64);

/// Mean wall time of one of `iters` back-to-back calls of `f`, microseconds.
fn mean_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let clock = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    clock.elapsed_us() / iters as f64
}

/// `hpcc.kernels`: the kernels called directly, below the HPCC components.
fn kernels(out: &mut Vec<Sample>) {
    // Twiddle table of a length no workload transforms, so it is built
    // here and not served from the process-wide cache.
    let clock = Stopwatch::start();
    std::hint::black_box(hpcc::kernels::twiddle::table_for(1 << 17));
    out.push(("kernels.twiddle_build_ms", clock.elapsed_secs() * 1e3));

    let n = 768;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 * 0.5 - 3.0).collect();
    let mut c = vec![0.0; n * n];
    let secs = Runner::best_secs(3, || {
        hpcc::kernels::dgemm::dgemm(n, &a, &b, &mut c);
        std::hint::black_box(&mut c);
    });
    let flops = hpcc::kernels::dgemm::dgemm_flops(n);
    out.push(("kernels.dgemm_flops", flops));
    out.push(("kernels.dgemm_gflops", flops / secs / 1e9));

    let len = 1 << 20;
    let mut data: Vec<Complex> = (0..len)
        .map(|i| Complex::new((i % 7) as f64 - 3.0, (i % 5) as f64 - 2.0))
        .collect();
    let scale = 1.0 / len as f64;
    let secs = Runner::best_secs(3, || {
        hpcc::kernels::fft::fft(&mut data, false);
        // Keep magnitudes bounded across repetitions (untimed work is a
        // small share: one pass over the data against log2(n) passes).
        for v in data.iter_mut() {
            *v = Complex::new(v.re * scale, v.im * scale);
        }
    });
    let flops = hpcc::kernels::fft::fft_flops(len);
    out.push(("kernels.fft_flops", flops));
    out.push(("kernels.fft_gflops", flops / secs / 1e9));

    let len = 1 << 22;
    let mut arrays = StreamArrays::new(len);
    for (kernel, name) in [
        (StreamKernel::Copy, "kernels.stream_copy_gbs"),
        (StreamKernel::Triad, "kernels.stream_triad_gbs"),
    ] {
        let secs = Runner::best_secs(5, || arrays.run(kernel));
        out.push((name, (kernel.bytes_per_element() * len) as f64 / secs / 1e9));
    }
    // Computed from array sizes, not measured: bytes one triad sweep moves.
    out.push((
        "kernels.stream_bytes",
        (StreamKernel::Triad.bytes_per_element() * len) as f64,
    ));
    // Below 4 the arrays may stay in the last-level cache and the GB/s
    // above are not memory bandwidth.
    let llc = host::facts().llc_bytes().max(1);
    out.push((
        "kernels.stream_array_per_llc",
        (8 * len) as f64 / llc as f64,
    ));
}

/// `hpcc`: verification residues of small G-HPL and G-FFT runs (exact on
/// one host: one rank, one thread, fixed reduction order).
fn hpcc_residues(out: &mut Vec<Sample>) {
    let hpl = mp::run(1, |comm| {
        hpcc::hpl::run(
            comm,
            &hpcc::hpl::HplConfig {
                n: 512,
                ..hpcc::hpl::HplConfig::default()
            },
        )
    })[0];
    out.push(("hpcc.hpl_residual", hpl.residual));
    let fft = mp::run(1, |comm| {
        hpcc::fft_dist::run(comm, &hpcc::fft_dist::FftConfig { log2_n: 16 })
    })[0];
    out.push(("hpcc.gfft_max_error", fft.max_error));
}

/// `smp`: pool size in force and the cost of one two-way fork-join.
fn smp_pool(out: &mut Vec<Sample>) {
    out.push(("smp.pool_threads", smp::ambient_threads() as f64));
    let pool = smp::Pool::new(2);
    let mut parts = [0u64; 2];
    let us = mean_us(200, || pool.run_parts(&mut parts, |i, p| *p += i as u64));
    std::hint::black_box(parts);
    out.push(("smp.fork_join_us", us));
}

/// `mp`: native two-rank IMB cells at exact sizes, world spawn, and the
/// exact message count of three collectives.
fn mp_native(out: &mut Vec<Sample>) {
    let runner = Runner::standard();
    let cell = |b, bytes| imb::run_native_with(b, 2, bytes, &runner);
    out.push(("mp.pingpong_8b_us", cell(Benchmark::PingPong, 8).t_max_us()));
    out.push((
        "mp.pingpong_64k_mbs",
        cell(Benchmark::PingPong, 64 * KIB).value,
    ));
    out.push(("mp.pingpong_1m_mbs", cell(Benchmark::PingPong, MIB).value));
    out.push((
        "mp.sendrecv_1k_us",
        cell(Benchmark::Sendrecv, KIB).t_max_us(),
    ));
    out.push(("mp.bcast_1k_us", cell(Benchmark::Bcast, KIB).t_max_us()));
    out.push((
        "mp.allreduce_1m_us",
        cell(Benchmark::Allreduce, MIB).t_max_us(),
    ));
    out.push((
        "mp.alltoall_1m_us",
        cell(Benchmark::Alltoall, MIB).t_max_us(),
    ));

    out.push((
        "mp.world_spawn_us",
        mean_us(50, || {
            mp::run(2, |comm| comm.rank());
        }),
    ));

    let words = (64 * KIB / 8) as usize;
    let (_, trace) = mp::run_traced_coop(8, move |comm| async move {
        let n = comm.size();
        let mut buf = vec![1.0f64; words];
        comm.bcast_async(&mut buf, 0).await;
        comm.allreduce_async(&mut buf, mp::Op::Sum).await;
        let send = vec![1.0f64; words * n];
        let mut recv = vec![0.0f64; words * n];
        comm.alltoall_async(&send, &mut recv).await;
    });
    out.push(("mp.traced_msgs", trace.len() as f64));
    out.push((
        "mp.traced_bytes",
        trace.iter().map(|t| t.bytes).sum::<u64>() as f64,
    ));
}

/// `mp.coop`: world construction and task switching, as `bench_sched`
/// measures them.
fn coop(out: &mut Vec<Sample>) {
    let spawn_secs = |n: usize| {
        Runner::best_secs(2, || {
            mp::run_coop(n, |comm| async move { comm.rank() });
        })
    };
    let (t4k, t16k) = (spawn_secs(4096), spawn_secs(16_384));
    out.push(("coop.spawn_ranks_per_s_4k", 4096.0 / t4k));
    out.push(("coop.spawn_ranks_per_s_16k", 16_384.0 / t16k));
    // 4x the ranks: linear construction doubles log2 twice, so 1.0 is
    // linear and 2.0 quadratic.
    out.push(("coop.spawn_scale_exp", (t16k / t4k).log2() / 2.0));

    let (n, rounds) = (1024usize, 200usize);
    let secs = Runner::best_secs(2, || {
        mp::run_coop(n, move |comm| async move {
            let (r, n) = (comm.rank(), comm.size());
            let mut token = [r as u64];
            for _ in 0..rounds {
                comm.send(&token, (r + 1) % n, 7);
                comm.recv_async(&mut token, (r + n - 1) % n, 7).await;
            }
        });
    });
    out.push(("coop.ring_switches_per_s", (n * rounds) as f64 / secs));

    let iters = 20_000usize;
    let secs = Runner::best_secs(2, || {
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
    });
    out.push(("coop.pingpong_switches_per_s", (2 * iters) as f64 / secs));
}

/// A `VirtualNet` that prices everything at zero: virtual clocks, the
/// cooperative scheduler and the mailboxes run, the machine model does not.
struct FreeNet;

impl mp::VirtualNet for FreeNet {
    fn p2p(&self, _src: usize, _dst: usize, _bytes: u64, ready: Time) -> P2pCost {
        P2pCost {
            sender_done: ready,
            arrival: ready,
        }
    }
    fn compute(&self, _flops: f64, _eff: f64) -> Time {
        Time::ZERO
    }
    fn stream(&self, _bytes: f64) -> Time {
        Time::ZERO
    }
}

/// `mp.virt`: message rate of a 1 KiB ring under virtual clocks with
/// pricing taken out.
fn virt(out: &mut Vec<Sample>) {
    let (n, rounds) = (1024usize, 50usize);
    let secs = Runner::best_secs(2, || {
        mp::run_virtual_coop(n, Box::new(FreeNet), move |comm| async move {
            let (r, n) = (comm.rank(), comm.size());
            let token = [r as u8; KIB as usize];
            let mut got = [0u8; KIB as usize];
            for _ in 0..rounds {
                comm.send(&token, (r + 1) % n, 7);
                comm.recv_async(&mut got, (r + n - 1) % n, 7).await;
            }
        });
    });
    out.push(("virt.free_net_msgs_per_s", (n * rounds) as f64 / secs));
}

/// The four all-rank collectives the simulated figures spend longest in.
const SCHED_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Alltoall,
    Benchmark::Allgather,
    Benchmark::Allreduce,
    Benchmark::ReduceScatter,
];
const SCHED_PROCS: usize = 256;

/// `mp.sched`, `simnet` and `machines`: generating the schedules of four
/// collectives at 256 ranks and 1 MiB, pricing them transfer by transfer on
/// a fabric, replaying them through `ClusterSim`, and the two on-line uses
/// (`Resource::reserve` mid-timeline, `price_p2p` at 4096 ranks).
fn simulator(out: &mut Vec<Sample>) {
    let mut schedules: Vec<Schedule> = Vec::new();
    let secs = Runner::best_secs(3, || {
        schedules = SCHED_BENCHMARKS
            .iter()
            .map(|&b| imb::sim::schedule_for(b, SCHED_PROCS, MIB))
            .collect();
    });
    let transfers: usize = schedules.iter().map(Schedule::total_messages).sum();
    out.push(("sched.gen_transfers", transfers as f64));
    out.push(("sched.gen_transfers_per_s", transfers as f64 / secs));

    // `bench_sched`'s fragmenting pattern: loosely increasing ready times
    // under a wide jitter window, so most reservations land mid-timeline.
    let reserves = 200_000u64;
    let secs = Runner::best_secs(2, || {
        let mut r = Resource::new(1e9);
        let mut rng = Rng::new(0x243f_6a88_85a3_08d3);
        for i in 0..reserves {
            let s = rng.next_u64();
            let ready_us = i as f64 * 0.5 + ((s >> 33) % 1_000_000) as f64;
            r.reserve(Time::from_us(ready_us), 1 + (s >> 55) % 4096);
        }
        std::hint::black_box(r.fragments());
    });
    out.push(("simnet.reserves_per_s", reserves as f64 / secs));

    let machine = systems::dell_xeon();
    let node_of = |rank: usize| rank / machine.node.cpus;
    let mut stats = simnet::fabric::FabricStats::default();
    let secs = Runner::best_secs(2, || {
        let mut fabric = machine.fabric(SCHED_PROCS);
        for schedule in &schedules {
            let mut ready = Time::ZERO;
            for round in &schedule.rounds {
                let mut done = ready;
                for t in &round.transfers {
                    let (s, d) = (node_of(t.src), node_of(t.dst));
                    if s != d {
                        done = done.max(fabric.transfer(s, d, t.bytes, ready));
                    }
                }
                ready = done;
            }
        }
        stats = fabric.stats();
    });
    out.push(("simnet.fabric_transfers", stats.transfers as f64));
    out.push(("simnet.fabric_bytes", stats.bytes));
    out.push(("simnet.max_busy_s", stats.max_busy));
    out.push((
        "simnet.fabric_transfers_per_s",
        stats.transfers as f64 / secs,
    ));

    out.push((
        "machines.model_build_us",
        mean_us(100, || {
            std::hint::black_box((systems::all_variants(), systems::exascale_cluster()));
        }),
    ));
    let sim = ClusterSim::new(&machine, SCHED_PROCS);
    let secs = Runner::best_secs(2, || {
        for schedule in &schedules {
            std::hint::black_box(sim.run_fresh(schedule));
        }
    });
    out.push(("machines.run_schedule_per_s", transfers as f64 / secs));

    let ranks = 4096usize;
    let exa = systems::exascale_cluster();
    let prices = 200_000usize;
    let secs = Runner::best_secs(2, || {
        let sim = ClusterSim::new(&exa, ranks);
        let mut rng = Rng::new(7);
        for i in 0..prices {
            let s = rng.next_u64();
            let (src, hop) = (s as usize % ranks, 1 + (s >> 32) as usize % (ranks - 1));
            let ready = Time::from_us(i as f64 * 0.01);
            std::hint::black_box(sim.price_p2p(src, (src + hop) % ranks, KIB, ready));
        }
    });
    out.push(("machines.price_p2p_per_s", prices as f64 / secs));
}

/// `harness` and `core`: registry construction, record serialisation and
/// the cost of the repetition loop itself.
fn harness_core(out: &mut Vec<Sample>) {
    out.push((
        "core.registry_build_us",
        mean_us(20, || {
            std::hint::black_box(hpcbench::registry());
        }),
    ));

    let registry = hpcbench::registry();
    let machine = systems::dell_xeon();
    let one = registry
        .get("PingPong")
        .expect("an IMB entry")
        .run(
            Mode::Simulated,
            &Runner::standard(),
            Some(&machine),
            2,
            Some(MIB),
        )
        .expect("admissible")[0];
    let records = vec![one; 20_000];
    let mut bytes = 0usize;
    let secs = Runner::best_secs(3, || {
        bytes = std::hint::black_box(records_json(&records)).len()
    });
    out.push(("harness.records_json_mbs", bytes as f64 / secs / 1e6));

    let iters = 1_000_000usize;
    let us = mp::run(1, |comm| {
        Runner::standard().time_collective(comm, iters, |it| {
            std::hint::black_box(it);
        })
    })[0];
    out.push(("harness.runner_empty_us", us));
}

/// Runs every probe, each inside a span of its layer, and returns the
/// samples in a fixed order.
pub fn run_all(t: &mut Tracer) -> Vec<Sample> {
    let mut out = Vec::new();
    t.span("hpcc.kernels", "probe:kernels", |_| kernels(&mut out));
    t.span("hpcc", "probe:hpcc_residues", |_| hpcc_residues(&mut out));
    t.span("smp", "probe:smp_pool", |_| smp_pool(&mut out));
    t.span("mp", "probe:mp_native", |_| mp_native(&mut out));
    t.span("mp.coop", "probe:coop", |_| coop(&mut out));
    t.span("mp.virt", "probe:virt", |_| virt(&mut out));
    t.span("simnet", "probe:simulator", |_| simulator(&mut out));
    t.span("harness", "probe:harness_core", |_| harness_core(&mut out));
    out
}

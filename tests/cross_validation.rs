//! Cross-crate validation: the *native* benchmark executions (real data
//! movement on the `mp` runtime) move exactly the messages the schedule
//! generators predict, which is what makes pricing those schedules on
//! the machine models a faithful simulation of the benchmarks.

use mp::Engine::{Coop, Threads};
use simnet::Transfer;

fn sorted(mut t: Vec<Transfer>) -> Vec<Transfer> {
    t.sort_unstable();
    t
}

/// Every sized IMB benchmark's native execution matches its simulated
/// schedule, message for message. The native run's world is checked
/// through the ambient hook, and its sends are read from the log it sinks.
#[test]
fn imb_native_traces_match_sim_schedules() {
    use mp::check::{install_scoped, Event, RunLog, ScopedCheck, Settings};
    use std::sync::{Arc, Mutex};

    for bench in imb::Benchmark::ALL {
        let procs = 6usize.max(bench.min_procs());
        let bytes = 4096u64;
        let logs: Arc<Mutex<Vec<RunLog>>> = Arc::default();
        let sink = Arc::clone(&logs);
        let guard = install_scoped(ScopedCheck {
            settings: Settings {
                ring_capacity: usize::MAX,
            },
            controller: None,
            sink: Arc::new(move |log| sink.lock().unwrap().push(log)),
        });
        imb::run_native_with(bench, procs, bytes, &harness::Runner::fixed(1));
        drop(guard);
        let logs = std::mem::take(&mut *logs.lock().unwrap());
        assert_eq!(logs.len(), 1, "{bench}: one world, one log");
        assert!(logs[0].dropped.iter().all(|&d| d == 0), "{bench}");
        let mut trace = Vec::new();
        for (src, events) in logs[0].events.iter().enumerate() {
            for event in events {
                if let Event::Send { dst, bytes, .. } = *event {
                    let bytes = bytes as u64;
                    trace.push(Transfer { src, dst, bytes });
                }
            }
        }
        // The native run has one warm-up and one timed iteration.
        let sched_procs = match bench.class() {
            imb::Class::SingleTransfer => 2,
            _ => procs,
        };
        let one = imb::sim::schedule_for(bench, sched_procs, bytes);
        let mut expected = one.transfer_multiset();
        expected.extend(one.transfer_multiset());
        // Plus the barrier between warm-up and timed loop, plus the
        // result reduction (3 allreduces) — strip those by filtering the
        // exact multiset of the benchmark payload sizes instead.
        let expected = sorted(expected);
        let traced: Vec<Transfer> = trace
            .into_iter()
            .filter(|t| {
                expected
                    .binary_search_by(|e| (e.src, e.dst, e.bytes).cmp(&(t.src, t.dst, t.bytes)))
                    .is_ok()
            })
            .collect();
        if bench == imb::Benchmark::ReduceScatter {
            // The schedule now reproduces the native per-rank word split
            // (e.g. 86/86/85/... words) exactly, and the payload sizes
            // cannot collide with the 0-byte barrier or the 8-byte stat
            // reductions — so demand exact multiset equality.
            assert_eq!(
                sorted(traced),
                expected,
                "{bench}: native payload transfers must equal the schedule's multiset"
            );
            continue;
        }
        // Every expected transfer appears (the filter keeps only matching
        // shapes; counts must cover 2 iterations).
        assert!(
            traced.len() >= expected.len(),
            "{bench}: traced {} matching transfers, schedule expects {}",
            traced.len(),
            expected.len()
        );
    }
}

/// Rooted-collective rotation: a traced Bcast from each root matches the
/// root-parameterised generator.
#[test]
fn bcast_root_rotation_traces() {
    let n = 7;
    let len = 64usize;
    for root in 0..n {
        let (_, trace) = mp::run_traced(n, Threads, |comm| async move {
            let mut buf = vec![0.0f64; len];
            if comm.rank() == root {
                buf.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
            }
            // 512 B: short, so the broadcast is the binomial tree.
            comm.bcast_async(&mut buf, root).await;
        });
        let sched =
            simnet::Schedule::collect(mp::sched::bcast::binomial(n, root, (len * 8) as u64));
        assert_eq!(sorted(trace), sched.transfer_multiset(), "root {root}");
    }
}

/// The allreduce dispatcher and its schedule mirror agree across the
/// short/long and power-of-two/odd boundary.
#[test]
fn allreduce_dispatch_agreement_across_shapes() {
    for n in [2usize, 3, 4, 6, 8] {
        for len in [8usize, 240, 6000] {
            let (_, trace) = mp::run_traced(n, Threads, |comm| async move {
                let mut buf = vec![1.0f64; len];
                mp::block_on(comm.allreduce_async(&mut buf, mp::Op::Sum));
            });
            let sched =
                simnet::Schedule::collect(mp::sched::allreduce::auto(n, (len * 8) as u64, 8));
            assert_eq!(sorted(trace), sched.transfer_multiset(), "n={n} len={len}");
        }
    }
}

/// Simulated timings respect byte monotonicity for every benchmark on
/// every machine model, the figures' seven variants and the five
/// follow-up systems: more payload never finishes earlier.
#[test]
fn simulated_times_are_monotone_in_message_size() {
    let mut models = machines::systems::all_variants();
    models.extend(machines::systems::future_systems());
    for m in models {
        for bench in imb::Benchmark::ALL {
            if !bench.sized() {
                continue;
            }
            let p = 8.min(m.max_cpus);
            let small = imb::sim::simulate(&m, bench, p, 1024).t_max_us();
            let large = imb::sim::simulate(&m, bench, p, 1 << 20).t_max_us();
            assert!(large > small, "{bench} on {}: {large} !> {small}", m.name);
        }
    }
}

/// Simulated collective times grow (weakly) with the processor count.
#[test]
fn simulated_times_grow_with_procs() {
    let m = machines::systems::dell_xeon();
    for bench in [
        imb::Benchmark::Allreduce,
        imb::Benchmark::Alltoall,
        imb::Benchmark::Allgather,
        imb::Benchmark::Bcast,
    ] {
        let t16 = imb::sim::simulate(&m, bench, 16, 1 << 20).t_max_us();
        let t128 = imb::sim::simulate(&m, bench, 128, 1 << 20).t_max_us();
        assert!(t128 > t16, "{bench}: {t128} !> {t16}");
    }
}

/// Virtual execution preserves program semantics exactly: an HPCC PTRANS
/// run on a modelled machine still verifies its closed-form result.
#[test]
fn hpcc_verifies_under_virtual_execution() {
    let net = machines::SharedClusterNet::new(&machines::systems::dell_xeon(), 4);
    let (results, clocks) = mp::run_virtual_coop(4, Box::new(net), |comm| async move {
        hpcc::ptrans::run_async(&comm, &hpcc::ptrans::PtransConfig { n: 32 })
            .await
            .passed
    });
    assert!(
        results.iter().all(|&ok| ok),
        "PTRANS must verify under virtual time"
    );
    assert!(clocks.iter().any(|c| c.as_us() > 0.0));
}

/// Ghost words run the real program: Bcast, Allreduce and Alltoall over
/// `mp::Ghost`s put the transfers on the wire that `u8`/`f64` put there —
/// the same (src, dst, bytes) under tracing and, rank by rank in program
/// order, the same (dst, communicator, tag, bytes) sends and matched
/// receives under the checker — at sizes on both sides of every dispatch.
#[test]
fn ghost_word_traces_equal_real_word_traces() {
    use mp::{Ghost, Numeric, Op, Word};
    async fn program<B: Word, F: Numeric>(comm: mp::Comm, bytes: usize) {
        let n = comm.size();
        let mut buf = vec![B::ZERO; bytes];
        comm.bcast_async(&mut buf, n / 2).await;
        let mut v = vec![F::one(); bytes / 8];
        comm.allreduce_async(&mut v, Op::Sum).await;
        let send = vec![B::ZERO; bytes * n];
        let mut recv = vec![B::ZERO; bytes * n];
        comm.alltoall_async(&send, &mut recv).await;
    }
    for n in [3, 8, 12] {
        for bytes in [24, 4096, 128 << 10] {
            let (_, real) = mp::run_traced(n, Coop, |c| program::<u8, f64>(c, bytes));
            let (_, ghost) = mp::run_traced(n, Coop, |c| program::<Ghost<1>, Ghost<8>>(c, bytes));
            assert!(!real.is_empty());
            assert_eq!(sorted(ghost), sorted(real), "n={n} bytes={bytes}");

            let settings = mp::check::Settings::default;
            let real =
                mp::check::run_checked(n, Coop, settings(), |c| program::<u8, f64>(c, bytes));
            let ghost = mp::check::run_checked(n, Coop, settings(), |c| {
                program::<Ghost<1>, Ghost<8>>(c, bytes)
            });
            assert!(ghost.results.is_some() && ghost.log.leftover.is_empty());
            assert_eq!(ghost.log.events, real.log.events, "n={n} bytes={bytes}");
        }
    }
}

/// Every door is a projection of one launch path: a ring exchange, an
/// allreduce and a broadcast (pinned sources throughout, so nothing is
/// schedule-dependent) give the same per-rank results through `run`,
/// `run_coop`, `run_virtual_coop`, `run_traced` and `run_checked` on both
/// engines, and `run_coop` under the one ambient hook with a FIFO
/// controller; the same transfers through the traced runs; the same
/// per-rank event sequences through the checked runs and the hooked run;
/// and the same clocks, bit for bit, from two virtual runs.
#[test]
fn every_launcher_runs_the_same_program() {
    use mp::check::{install_scoped, run_checked, RunLog, ScopedCheck, Settings};
    use mp::Op::Sum;
    use std::sync::{Arc, Mutex};

    async fn program(c: &mp::Comm) -> Vec<u64> {
        let (me, n) = (c.rank(), c.size());
        let (to, from, mut got) = ((me + 1) % n, (me + n - 1) % n, [0u64]);
        c.sendrecv_async(&[me as u64 + 1], to, &mut got, from, 5)
            .await;
        let mut sum = [got[0], me as u64];
        c.allreduce_async(&mut sum, Sum).await;
        let mut word = [sum[0] * 10 + me as u64];
        c.bcast_async(&mut word, n / 2).await;
        vec![got[0], sum[0], sum[1], word[0]]
    }
    let body = |c: mp::Comm| async move { program(&c).await };

    for n in [3, 4, 8] {
        let results = mp::run(n, |c| mp::block_on(program(c)));
        assert_eq!(results[0][0], n as u64, "rank 0 hears from rank n-1");

        let mut others = vec![mp::run_coop(n, body)];
        let (mut traces, mut logs) = (Vec::new(), Vec::new());
        for engine in [Threads, Coop] {
            let (traced, trace) = mp::run_traced(n, engine, body);
            assert!(!trace.is_empty(), "{engine:?} n={n}");
            traces.push(sorted(trace));
            let checked = run_checked(n, engine, Settings::default(), body);
            others.push(traced);
            others.push(checked.results.expect("every rank completed"));
            logs.push(checked.log);
        }
        assert_eq!(traces[0], traces[1], "n={n}");

        let hooked: Arc<Mutex<Vec<RunLog>>> = Arc::default();
        let sink = Arc::clone(&hooked);
        let guard = install_scoped(ScopedCheck {
            settings: Settings::default(),
            controller: Some(Arc::new(mp::FifoController)),
            sink: Arc::new(move |log| sink.lock().unwrap().push(log)),
        });
        others.push(mp::run_coop(n, body));
        drop(guard);
        let hooked = std::mem::take(&mut *hooked.lock().unwrap());
        assert_eq!(hooked.len(), 1, "the hooked run sinks one log, n={n}");
        logs.extend(hooked);
        for log in &logs {
            assert!(log.deadlock.is_none() && log.leftover.is_empty(), "n={n}");
            assert!(log.panics.is_empty(), "n={n}");
            assert_eq!(log.events, logs[0].events, "n={n}");
        }

        let xeon = machines::systems::dell_xeon();
        let net = || Box::new(machines::SharedClusterNet::new(&xeon, n));
        let (virt, clocks) = mp::run_virtual_coop(n, net(), body);
        let (_, again) = mp::run_virtual_coop(n, net(), body);
        let ticked = clocks.iter().filter(|&&t| t > simnet::Time::ZERO);
        assert_eq!(ticked.count(), n, "every rank's clock was priced");
        assert_eq!(clocks, again, "n={n}");
        others.push(virt);

        for (door, other) in others.iter().enumerate() {
            assert_eq!(other, &results, "n={n} door {door}");
        }
    }
}

/// One body per operation, on either engine: each of the 8 collectives
/// moves the same transfers and leaves the same buffers whether rank
/// threads poll its awaited body with `block_on` or cooperative tasks
/// await it.
#[test]
fn collectives_move_the_same_traffic_on_either_engine() {
    use mp::{Comm, Op::Sum};

    #[rustfmt::skip]
    const OPS: [&str; 8] = [
        "barrier", "bcast", "allgather", "allgatherv", "alltoall", "reduce", "allreduce",
        "reduce_scatter",
    ];

    /// What a rank brings to every operation: the root, `2n` words of its
    /// own and ragged per-rank counts for the vector variants. Every count
    /// sum is at most `2n`; the result buffer starts as a copy of the
    /// words, so in-place operations have an operand.
    fn rank(c: &Comm) -> (usize, Vec<u64>, Vec<usize>) {
        let (me, n) = (c.rank(), c.size());
        let words = (0..2 * n).map(|i| (me * 100 + i) as u64).collect();
        let counts = (0..n).map(|r| r % 3 + 1).collect();
        (n / 2, words, counts)
    }

    #[rustfmt::skip]
    async fn awaited(c: Comm, op: usize) -> Vec<u64> {
        let (root, words, counts) = rank(&c);
        let (at_root, mut out) = (c.rank() == root, words.clone());
        let (mine, total) = (counts[c.rank()], counts.iter().sum());
        match OPS[op] {
            "barrier" => c.barrier_async().await,
            "bcast" => c.bcast_async(&mut out[..2], root).await,
            "allgather" => c.allgather_async(&words[..2], &mut out).await,
            "allgatherv" => c.allgatherv_async(&words[..mine], &mut out[..total], &counts).await,
            "alltoall" => c.alltoall_async(&words, &mut out).await,
            "reduce" => c.reduce_async(&words, at_root.then_some(&mut out[..]), root, Sum).await,
            "allreduce" => c.allreduce_async(&mut out, Sum).await,
            "reduce_scatter" => c.reduce_scatter_async(&words[..total], &mut out[..mine], &counts, Sum).await,
            _ => unreachable!(),
        }
        out
    }

    for n in [3, 4, 8] {
        for (op, name) in OPS.iter().enumerate() {
            let (on_threads, threaded) = mp::run_traced(n, Threads, |c| awaited(c, op));
            let (on_tasks, polled) = mp::run_traced(n, Coop, |c| awaited(c, op));
            assert!(!threaded.is_empty(), "{name} n={n} moved nothing");
            assert_eq!(sorted(threaded), sorted(polled), "{name} n={n}: transfers");
            assert_eq!(on_threads, on_tasks, "{name} n={n}: buffers");
        }
    }
}

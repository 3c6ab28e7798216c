//! IMB-EXT: the one-sided (MPI-2 RMA) benchmarks — the study the paper's
//! conclusion announces as future work ("one-sided (GET/PUT) MPI
//! communication functions with three synchronization schemes").
//!
//! Mirrors IMB-EXT's structure: `Unidir_Put`/`Unidir_Get` (one origin,
//! passive partner), `Bidir_Put`/`Bidir_Get` (both ranks acting as
//! origins simultaneously) and `Accumulate`, each timed over a chosen
//! synchronisation scheme.

use std::fmt;

use harness::Runner;
use mp::{Comm, Op, Window};

/// An IMB-EXT benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExtBenchmark {
    /// One rank puts to a passive partner.
    UnidirPut,
    /// One rank gets from a passive partner.
    UnidirGet,
    /// Both ranks put simultaneously.
    BidirPut,
    /// Both ranks get simultaneously.
    BidirGet,
    /// MPI_Accumulate (sum) into the partner's window.
    Accumulate,
}

impl ExtBenchmark {
    /// All IMB-EXT benchmarks.
    pub const ALL: [ExtBenchmark; 5] = [
        ExtBenchmark::UnidirPut,
        ExtBenchmark::UnidirGet,
        ExtBenchmark::BidirPut,
        ExtBenchmark::BidirGet,
        ExtBenchmark::Accumulate,
    ];
}

impl fmt::Display for ExtBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExtBenchmark::UnidirPut => "Unidir_Put",
            ExtBenchmark::UnidirGet => "Unidir_Get",
            ExtBenchmark::BidirPut => "Bidir_Put",
            ExtBenchmark::BidirGet => "Bidir_Get",
            ExtBenchmark::Accumulate => "Accumulate",
        })
    }
}

/// The three MPI-2 synchronisation schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncScheme {
    /// Collective `MPI_Win_fence` epochs.
    Fence,
    /// Post-start-complete-wait (generalised active target).
    Pscw,
    /// Passive-target lock/unlock.
    Lock,
}

impl SyncScheme {
    /// All three schemes, in the order the paper lists them.
    pub const ALL: [SyncScheme; 3] = [SyncScheme::Fence, SyncScheme::Pscw, SyncScheme::Lock];
}

impl fmt::Display for SyncScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncScheme::Fence => "fence",
            SyncScheme::Pscw => "pscw",
            SyncScheme::Lock => "lock",
        })
    }
}

/// One IMB-EXT measurement.
#[derive(Clone, Copy, Debug)]
pub struct ExtMeasurement {
    /// Which benchmark.
    pub benchmark: ExtBenchmark,
    /// Which synchronisation scheme.
    pub scheme: SyncScheme,
    /// Message bytes per epoch.
    pub bytes: u64,
    /// Time per epoch (max over ranks), microseconds.
    pub t_us: f64,
    /// Achieved bandwidth, MB/s (payload bytes over epoch time).
    pub mbs: f64,
}

/// Runs one IMB-EXT benchmark on ranks 0 and 1 of `comm` (other ranks
/// participate in the collective window operations only).
pub(crate) fn run_on(
    comm: &Comm,
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
    iters: usize,
) -> ExtMeasurement {
    assert!(comm.size() >= 2, "IMB-EXT needs at least two ranks");
    let words = (bytes / 8).max(1) as usize;
    let win = Window::create::<f64>(comm, words);
    let me = comm.rank();
    let data = vec![1.25f64; words];

    // One epoch of the chosen scheme around the access.
    let epoch = |win: &Window, origin_active: bool| {
        match scheme {
            SyncScheme::Fence => {
                if origin_active {
                    access(win, benchmark, me, &data);
                }
                win.fence();
            }
            SyncScheme::Pscw => {
                // Symmetric epoch (works for unidirectional and
                // bidirectional benchmarks): expose first (non-blocking
                // post), then open the access epoch, access, and close
                // both sides.
                let partner = 1 - me;
                win.post(&[partner]);
                win.start(&[partner]);
                if origin_active {
                    access(win, benchmark, me, &data);
                }
                win.complete(&[partner]);
                win.wait(&[partner]);
            }
            SyncScheme::Lock => {
                if origin_active {
                    let partner = 1 - me;
                    let _guard = win.lock(partner);
                    access(win, benchmark, me, &data);
                }
            }
        }
    };
    fn access(win: &Window, benchmark: ExtBenchmark, me: usize, data: &[f64]) {
        let partner = 1 - me;
        match benchmark {
            ExtBenchmark::UnidirPut | ExtBenchmark::BidirPut => win.put(data, partner, 0),
            ExtBenchmark::UnidirGet | ExtBenchmark::BidirGet => {
                let mut tmp = vec![0.0f64; data.len()];
                win.get(&mut tmp, partner, 0);
            }
            ExtBenchmark::Accumulate => win.accumulate(data, partner, 0, Op::Sum),
        }
    }

    let active = match benchmark {
        ExtBenchmark::BidirPut | ExtBenchmark::BidirGet => me < 2,
        _ => me == 0,
    };
    let participant = me < 2;

    // Warm up, synchronise, time — the harness runner's IMB convention.
    let per_call_us = Runner::fixed(iters).time_collective(comm, iters, |_| {
        if participant || scheme == SyncScheme::Fence {
            epoch(&win, active && participant);
        }
    });
    let t = per_call_us / 1e6;

    let mut reduced = [if participant { t } else { 0.0 }];
    comm.allreduce(&mut reduced, Op::Max);
    let t = reduced[0];
    ExtMeasurement {
        benchmark,
        scheme,
        bytes,
        t_us: t * 1e6,
        mbs: bytes as f64 / t / 1e6,
    }
}

/// Spawns a fresh 2-rank world and runs one IMB-EXT measurement.
pub fn run_native(
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
    iters: usize,
) -> ExtMeasurement {
    mp::run(2, |comm| run_on(comm, benchmark, scheme, bytes, iters))[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_under_every_scheme() {
        for b in ExtBenchmark::ALL {
            for s in SyncScheme::ALL {
                let m = run_native(b, s, 4096, 3);
                assert!(m.t_us > 0.0, "{b}/{s}");
                assert!(m.mbs > 0.0, "{b}/{s}");
            }
        }
    }

    #[test]
    fn put_actually_transfers_data() {
        mp::run(2, |comm| {
            let win = Window::create::<f64>(comm, 8);
            win.fence();
            if comm.rank() == 0 {
                win.put(&[9.5; 8], 1, 0);
            }
            win.fence();
            if comm.rank() == 1 {
                let mut got = [0.0f64; 8];
                win.get(&mut got, 1, 0);
                assert_eq!(got, [9.5; 8]);
            }
        });
    }

    #[test]
    fn larger_messages_take_longer() {
        let small = run_native(ExtBenchmark::UnidirPut, SyncScheme::Fence, 1 << 10, 10);
        let large = run_native(ExtBenchmark::UnidirPut, SyncScheme::Fence, 1 << 22, 3);
        assert!(large.t_us > small.t_us, "{large:?} vs {small:?}");
    }

    #[test]
    fn schemes_have_distinct_overheads() {
        // Lock (no partner round trips) should not be slower than PSCW
        // (two sync message pairs per epoch) at tiny sizes... on a real
        // network; in-process both are cheap, so just assert they all
        // complete and report sane numbers.
        for s in SyncScheme::ALL {
            let m = run_native(ExtBenchmark::UnidirPut, s, 8, 50);
            assert!(m.t_us.is_finite() && m.t_us > 0.0);
        }
    }
}

/// Builds the 2-rank communication schedule of one EXT epoch (access +
/// synchronisation) for the fabric simulator. One-sided accesses are
/// RDMA-like single transfers; `get` costs a small request plus the data
/// response; synchronisation contributes the zero-byte handshakes of the
/// chosen scheme.
pub fn schedule_for(benchmark: ExtBenchmark, scheme: SyncScheme, bytes: u64) -> simnet::Schedule {
    use simnet::{Round, Transfer};
    let mut s = simnet::Schedule::new(2);

    // Epoch-opening synchronisation.
    match scheme {
        SyncScheme::Fence => {
            // Dissemination barrier over two ranks: one exchange.
            s.push(Round::of(vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 0,
                },
                Transfer {
                    src: 1,
                    dst: 0,
                    bytes: 0,
                },
            ]));
        }
        SyncScheme::Pscw => {
            // post: target -> origin.
            s.push(Round::of(vec![Transfer {
                src: 1,
                dst: 0,
                bytes: 0,
            }]));
        }
        SyncScheme::Lock => {
            // Lock acquisition round trip.
            s.push(Round::of(vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 0,
            }]));
            s.push(Round::of(vec![Transfer {
                src: 1,
                dst: 0,
                bytes: 0,
            }]));
        }
    }

    // The access(es).
    match benchmark {
        ExtBenchmark::UnidirPut => {
            s.push(Round::of(vec![Transfer {
                src: 0,
                dst: 1,
                bytes,
            }]));
        }
        ExtBenchmark::UnidirGet => {
            s.push(Round::of(vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 8,
            }]));
            s.push(Round::of(vec![Transfer {
                src: 1,
                dst: 0,
                bytes,
            }]));
        }
        ExtBenchmark::BidirPut => {
            s.push(Round::of(vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes,
                },
                Transfer {
                    src: 1,
                    dst: 0,
                    bytes,
                },
            ]));
        }
        ExtBenchmark::BidirGet => {
            s.push(Round::of(vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 8,
                },
                Transfer {
                    src: 1,
                    dst: 0,
                    bytes: 8,
                },
            ]));
            s.push(Round::of(vec![
                Transfer {
                    src: 1,
                    dst: 0,
                    bytes,
                },
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes,
                },
            ]));
        }
        ExtBenchmark::Accumulate => {
            s.push(simnet::Round {
                transfers: vec![Transfer {
                    src: 0,
                    dst: 1,
                    bytes,
                }],
                work: vec![simnet::LocalWork { rank: 1, bytes }],
            });
        }
    }

    // Epoch-closing synchronisation.
    match scheme {
        SyncScheme::Fence => {
            s.push(Round::of(vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 0,
                },
                Transfer {
                    src: 1,
                    dst: 0,
                    bytes: 0,
                },
            ]));
        }
        SyncScheme::Pscw => {
            // complete: origin -> target.
            s.push(Round::of(vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 0,
            }]));
        }
        SyncScheme::Lock => {
            // Unlock notification.
            s.push(Round::of(vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 0,
            }]));
        }
    }
    s
}

/// Prices one EXT epoch on a machine model. The two ranks land on
/// distinct nodes (inter-node RMA, the interesting case).
pub fn simulate(
    machine: &machines::Machine,
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
) -> ExtMeasurement {
    // Place the two ranks on different nodes by simulating one rank per
    // node: a 2-rank cluster on a machine with cpus >= 2 per node would
    // be intra-node, so spread with a stride-sized world.
    let stride = machine.node.cpus;
    let world = stride + 1; // ranks 0 and `stride` are on nodes 0 and 1
    let sim = machines::ClusterSim::new(machine, world.min(machine.max_cpus));
    let base = schedule_for(benchmark, scheme, bytes);
    // Re-target rank 1 -> rank `stride` when the machine packs >= 2 CPUs
    // per node (keeps the schedule inter-node).
    let mut sched = simnet::Schedule::new(sim.nranks());
    let map = |r: usize| {
        if r == 0 {
            0
        } else {
            stride.min(sim.nranks() - 1)
        }
    };
    for round in &base.rounds {
        sched.push(simnet::Round {
            transfers: round
                .transfers
                .iter()
                .map(|t| simnet::Transfer {
                    src: map(t.src),
                    dst: map(t.dst),
                    bytes: t.bytes,
                })
                .collect(),
            work: round
                .work
                .iter()
                .map(|w| simnet::LocalWork {
                    rank: map(w.rank),
                    bytes: w.bytes,
                })
                .collect(),
        });
    }
    let warm = sim.run(&sched);
    let t = (sim.run(&sched) - warm).as_secs();
    ExtMeasurement {
        benchmark,
        scheme,
        bytes,
        t_us: t * 1e6,
        mbs: bytes as f64 / t / 1e6,
    }
}

#[cfg(test)]
mod sim_tests {
    use super::*;

    #[test]
    fn schedules_validate_for_all_combinations() {
        for b in ExtBenchmark::ALL {
            for s in SyncScheme::ALL {
                let sched = schedule_for(b, s, 1 << 20);
                sched.validate().unwrap();
                assert!(sched.total_bytes() >= 1 << 20, "{b}/{s}");
            }
        }
    }

    #[test]
    fn get_costs_more_than_put() {
        // A get is a round trip; a put is one way.
        let m = machines::systems::dell_xeon();
        let put = simulate(&m, ExtBenchmark::UnidirPut, SyncScheme::Lock, 1 << 20);
        let get = simulate(&m, ExtBenchmark::UnidirGet, SyncScheme::Lock, 1 << 20);
        assert!(get.t_us > put.t_us);
    }

    #[test]
    fn lock_pays_the_acquisition_round_trip() {
        // Passive-target lock adds a full request/grant round trip that
        // the active-target schemes do not need at tiny sizes.
        let m = machines::systems::nec_sx8();
        let pscw = simulate(&m, ExtBenchmark::UnidirPut, SyncScheme::Pscw, 8);
        let lock = simulate(&m, ExtBenchmark::UnidirPut, SyncScheme::Lock, 8);
        assert!(lock.t_us > pscw.t_us, "{} vs {}", lock.t_us, pscw.t_us);
    }

    #[test]
    fn every_machine_prices_ext_epochs() {
        for m in machines::systems::all_variants() {
            let e = simulate(&m, ExtBenchmark::BidirPut, SyncScheme::Pscw, 65536);
            assert!(e.t_us > 0.0 && e.mbs > 0.0, "{}", m.name);
        }
    }
}

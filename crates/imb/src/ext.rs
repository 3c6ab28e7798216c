//! IMB-EXT: the one-sided (MPI-2 RMA) benchmarks — the study the paper's
//! conclusion announces as future work ("one-sided (GET/PUT) MPI
//! communication functions with three synchronization schemes").
//!
//! Mirrors IMB-EXT's structure: `Unidir_Put`/`Unidir_Get` (one origin,
//! passive partner), `Bidir_Put`/`Bidir_Get` (both ranks acting as
//! origins simultaneously) and `Accumulate`, each timed over a chosen
//! synchronisation scheme.
//!
//! One epoch body serves two timers: [`run_native`] runs it on two rank
//! threads under the wall clock, and [`run_virtual`] runs it as a
//! cooperative task on a modelled machine, where `mp::rma` prices every
//! access and every synchronisation message the body sends.

use std::fmt;

use harness::Runner;
use machines::{Machine, SharedClusterNet};
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

/// One IMB-EXT cell on a two-rank window: the access the active ranks
/// make (rank 0, or both for the `Bidir_*` benchmarks) inside one epoch of
/// the synchronisation scheme. The window holds bytes, as IMB-EXT's puts
/// and gets move `MPI_BYTE`, so every access moves exactly the cell's size
/// (`Accumulate` sums bytes where IMB sums floats; its fold is priced per
/// byte either way).
struct Epoch {
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
    data: Vec<u8>,
}

impl Epoch {
    fn new(benchmark: ExtBenchmark, scheme: SyncScheme, bytes: u64) -> Epoch {
        Epoch {
            benchmark,
            scheme,
            bytes,
            data: vec![1u8; bytes.max(1) as usize],
        }
    }

    /// Creates the window the epochs run on, one `data` wide.
    async fn window<'c>(&self, comm: &'c Comm) -> Window<'c> {
        assert_eq!(comm.size(), 2, "an IMB-EXT window joins two ranks");
        Window::create::<u8>(comm, self.data.len()).await
    }

    /// One epoch, as window rank `me` runs it.
    async fn run(&self, win: &Window<'_>, me: usize) {
        let partner = 1 - me;
        let active = me == 0
            || matches!(
                self.benchmark,
                ExtBenchmark::BidirPut | ExtBenchmark::BidirGet
            );
        match self.scheme {
            SyncScheme::Fence => {
                if active {
                    self.access(win, partner);
                }
                win.fence().await;
            }
            SyncScheme::Pscw => {
                // Symmetric epoch (works for unidirectional and
                // bidirectional benchmarks): expose first (non-blocking
                // post), then open the access epoch, access, and close
                // both sides.
                win.post(&[partner]);
                win.start(&[partner]).await;
                if active {
                    self.access(win, partner);
                }
                win.complete(&[partner]);
                win.wait(&[partner]).await;
            }
            SyncScheme::Lock => {
                if active {
                    let _guard = win.lock(partner);
                    self.access(win, partner);
                }
            }
        }
    }

    fn access(&self, win: &Window<'_>, partner: usize) {
        match self.benchmark {
            ExtBenchmark::UnidirPut | ExtBenchmark::BidirPut => win.put(&self.data, partner, 0),
            ExtBenchmark::UnidirGet | ExtBenchmark::BidirGet => {
                let mut tmp = vec![0u8; self.data.len()];
                win.get(&mut tmp, partner, 0);
            }
            ExtBenchmark::Accumulate => win.accumulate(&self.data, partner, 0, Op::Sum),
        }
    }

    fn measured(&self, t_us: f64) -> ExtMeasurement {
        ExtMeasurement {
            benchmark: self.benchmark,
            scheme: self.scheme,
            bytes: self.bytes,
            t_us,
            mbs: self.bytes as f64 / t_us,
        }
    }
}

/// Spawns a fresh 2-rank world and runs one IMB-EXT measurement under the
/// wall clock: the harness runner's IMB convention (warm up, synchronise,
/// time), slowest rank.
pub fn run_native(
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
    iters: usize,
) -> ExtMeasurement {
    let epoch = Epoch::new(benchmark, scheme, bytes);
    let t_us = mp::run(2, |comm| {
        let win = mp::block_on(epoch.window(comm));
        let per_call_us = Runner::fixed(iters).time_collective(comm, iters, |_| {
            mp::block_on(epoch.run(&win, comm.rank()));
        });
        let mut slowest = [per_call_us];
        mp::block_on(comm.allreduce_async(&mut slowest, Op::Max));
        slowest[0]
    });
    epoch.measured(t_us[0])
}

/// Runs one IMB-EXT measurement on the modelled `machine` under virtual
/// clocks, timed as `crate::virtual_run` times IMB: [`Runner::WARMUP`]
/// epochs, a clock sync, `runner`'s repetitions, a clock sync. The two
/// ranks sit on two nodes (inter-node RMA, the interesting case): world
/// ranks 0 and `node.cpus` of a world one rank past the first node, joined
/// by a split communicator.
pub fn run_virtual(
    machine: &Machine,
    benchmark: ExtBenchmark,
    scheme: SyncScheme,
    bytes: u64,
    runner: &Runner,
) -> ExtMeasurement {
    let epoch = Epoch::new(benchmark, scheme, bytes);
    let world = (machine.node.cpus + 1).min(machine.max_cpus);
    let partner = machine.node.cpus.min(world - 1);
    let iters = runner.repetitions(Some(bytes));
    let net = SharedClusterNet::new(machine, world);
    let epoch = &epoch;
    let (t_us, _) = mp::run_virtual_coop(world, Box::new(net), |comm| async move {
        let on = comm.rank() == 0 || comm.rank() == partner;
        let pair = comm.split_async(u32::from(!on), 0).await;
        if !on {
            return 0.0;
        }
        let win = epoch.window(&pair).await;
        for _ in 0..Runner::WARMUP {
            epoch.run(&win, pair.rank()).await;
        }
        let t0 = pair.v_sync_async().await;
        for _ in 0..iters {
            epoch.run(&win, pair.rank()).await;
        }
        let t1 = pair.v_sync_async().await;
        (t1 - t0).as_us() / iters as f64
    });
    epoch.measured(t_us[0])
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use machines::systems;
    use simnet::{P2pCost, Time};

    use super::*;

    #[test]
    fn larger_messages_take_longer() {
        let small = run_native(ExtBenchmark::UnidirPut, SyncScheme::Fence, 1 << 10, 10);
        let large = run_native(ExtBenchmark::UnidirPut, SyncScheme::Fence, 1 << 22, 3);
        assert!(large.t_us > small.t_us, "{large:?} vs {small:?}");
    }

    /// A fixed-cost net that logs every transfer it prices as
    /// `src>dst bytes` and every fold as `fold bytes`.
    struct Recording(Arc<Mutex<Vec<String>>>);

    impl mp::VirtualNet for Recording {
        fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
            self.0.lock().unwrap().push(format!("{src}>{dst} {bytes}"));
            P2pCost {
                sender_done: ready + Time::from_us(1.0),
                arrival: ready + Time::from_us(5.0),
            }
        }
        fn compute(&self, _flops: f64, _eff: f64) -> Time {
            unreachable!("an IMB-EXT epoch computes nothing")
        }
        fn stream(&self, bytes: f64) -> Time {
            self.0.lock().unwrap().push(format!("fold {bytes}"));
            Time::from_us(1.0)
        }
    }

    /// The traffic a 2-rank world prices creating one window and running
    /// `epochs` epochs of the cell at 1 KiB.
    fn traffic(benchmark: ExtBenchmark, scheme: SyncScheme, epochs: usize) -> Vec<String> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let epoch = Epoch::new(benchmark, scheme, 1024);
        let epoch = &epoch;
        let net = Box::new(Recording(Arc::clone(&log)));
        mp::run_virtual_coop(2, net, |comm| async move {
            let win = epoch.window(&comm).await;
            for _ in 0..epochs {
                epoch.run(&win, comm.rank()).await;
            }
        });
        let log = log.lock().unwrap().clone();
        log
    }

    /// What one epoch of every benchmark under every scheme sends: the
    /// accesses `mp::rma` prices (a put one transfer; a get an 8-byte
    /// request and the reply; an accumulate a put and the target's fold; a
    /// lock a request and grant, its unlock one notification) and the
    /// synchronisation messages of the scheme (a fence one barrier
    /// exchange; PSCW post and complete tokens both ways, the epoch being
    /// symmetric). The order is the cooperative schedule's: window rank 1
    /// finishes creating the window first, so it starts the epoch first.
    #[test]
    fn executed_epochs_send_exactly_this_traffic() {
        use ExtBenchmark::*;
        use SyncScheme::*;
        #[rustfmt::skip]
        let cells: [(ExtBenchmark, SyncScheme, &[&str]); 15] = [
            (UnidirPut, Fence, &["1>0 0", "0>1 1024", "0>1 0"]),
            (UnidirPut, Pscw, &["1>0 0", "0>1 0", "0>1 1024", "0>1 0", "1>0 0"]),
            (UnidirPut, Lock, &["0>1 0", "1>0 0", "0>1 1024", "0>1 0"]),
            (UnidirGet, Fence, &["1>0 0", "0>1 8", "1>0 1024", "0>1 0"]),
            (UnidirGet, Pscw, &["1>0 0", "0>1 0", "0>1 8", "1>0 1024", "0>1 0", "1>0 0"]),
            (UnidirGet, Lock, &["0>1 0", "1>0 0", "0>1 8", "1>0 1024", "0>1 0"]),
            (BidirPut, Fence, &["1>0 1024", "1>0 0", "0>1 1024", "0>1 0"]),
            (BidirPut, Pscw, &["1>0 0", "0>1 0", "0>1 1024", "0>1 0", "1>0 1024", "1>0 0"]),
            (BidirPut, Lock, &["1>0 0", "0>1 0", "1>0 1024", "1>0 0",
                               "0>1 0", "1>0 0", "0>1 1024", "0>1 0"]),
            (BidirGet, Fence, &["1>0 8", "0>1 1024", "1>0 0", "0>1 8", "1>0 1024", "0>1 0"]),
            (BidirGet, Pscw, &["1>0 0", "0>1 0", "0>1 8", "1>0 1024", "0>1 0",
                               "1>0 8", "0>1 1024", "1>0 0"]),
            (BidirGet, Lock, &["1>0 0", "0>1 0", "1>0 8", "0>1 1024", "1>0 0",
                               "0>1 0", "1>0 0", "0>1 8", "1>0 1024", "0>1 0"]),
            (Accumulate, Fence, &["1>0 0", "0>1 1024", "fold 1536", "0>1 0"]),
            (Accumulate, Pscw, &["1>0 0", "0>1 0", "0>1 1024", "fold 1536", "0>1 0", "1>0 0"]),
            (Accumulate, Lock, &["0>1 0", "1>0 0", "0>1 1024", "fold 1536", "0>1 0"]),
        ];
        for (benchmark, scheme, want) in cells {
            let setup = traffic(benchmark, scheme, 0);
            assert_eq!(setup, ["0>1 8", "1>0 8"], "window creation's size exchange");
            let all = traffic(benchmark, scheme, 1);
            assert!(all.starts_with(&setup), "{benchmark}/{scheme}: {all:?}");
            assert_eq!(&all[setup.len()..], want, "{benchmark}/{scheme}");
        }
    }

    fn virtual_at(m: &Machine, b: ExtBenchmark, s: SyncScheme, bytes: u64) -> ExtMeasurement {
        run_virtual(m, b, s, bytes, &Runner::fixed(3))
    }

    /// A passive-target lock pays a request, a grant and an unlock that
    /// the active-target schemes do not, which is what an 8-byte put
    /// costs on the SX-8's fast fabric.
    #[test]
    fn lock_pays_the_acquisition_round_trip() {
        let m = systems::nec_sx8();
        let pscw = virtual_at(&m, ExtBenchmark::UnidirPut, SyncScheme::Pscw, 8);
        let lock = virtual_at(&m, ExtBenchmark::UnidirPut, SyncScheme::Lock, 8);
        assert!(lock.t_us > pscw.t_us, "{} vs {}", lock.t_us, pscw.t_us);
    }

    /// The target's fold is priced: an accumulate is a put plus streaming
    /// the operand through the target's memory.
    #[test]
    fn accumulate_pays_the_fold() {
        for m in systems::paper_systems() {
            let put = virtual_at(&m, ExtBenchmark::UnidirPut, SyncScheme::Fence, 1 << 20);
            let acc = virtual_at(&m, ExtBenchmark::Accumulate, SyncScheme::Fence, 1 << 20);
            assert!(
                acc.t_us > put.t_us,
                "{}: {} vs {}",
                m.name,
                acc.t_us,
                put.t_us
            );
        }
    }

    #[test]
    fn every_machine_prices_ext_epochs() {
        for m in systems::all_variants() {
            let e = virtual_at(&m, ExtBenchmark::BidirPut, SyncScheme::Pscw, 65536);
            assert!(e.t_us > 0.0 && e.mbs > 0.0, "{}", m.name);
        }
    }
}

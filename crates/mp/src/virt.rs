//! Virtual-time execution: run any `mp` program on a *simulated* fabric.
//!
//! [`run_virtual_coop`](crate::run_virtual_coop) hosts the ranks as
//! cooperative tasks, with every message priced by a [`VirtualNet`]
//! (supplied by the `machines` crate's models): sends advance the
//! sender's virtual clock by its overhead, receives advance the
//! receiver's clock to the message's simulated arrival, and compute
//! phases are charged explicitly via [`Comm::v_compute`], while
//! `Comm::v_time` reads the timeline of the modelled machine.
//!
//! What moves is decided per message by its word type, here as in every
//! mode: real words move real bytes — results stay bit-identical to a
//! native run, which is what HPCC's virtual mode verifies residuals on —
//! and [`Ghost`](crate::Ghost) words move lengths only, priced the same,
//! which is what IMB's virtual mode runs on since it checks no result.
//! Virtual time is not a reason to skip the bytes (this module's own
//! [`Comm::v_sync_async`] reduces a real `f64` among ghost traffic), so
//! no world flag does.
//!
//! This is a third execution mode alongside native timing and
//! schedule-replay simulation, and the integration tests use it to
//! cross-validate the other two: a benchmark *executed* under virtual
//! time must land near the price of its generated schedule.
//!
//! Determinism: the cooperative executor polls the rank tasks off one
//! FIFO run queue, so every run replays the identical message order into
//! the net's first-fit reservation timelines (see `simnet::resource`) and
//! produces byte-identical per-rank clocks.

use std::sync::atomic::{AtomicU64, Ordering};

use simnet::schedule::P2pCost;
use simnet::Time;

use crate::comm::Comm;

/// A pricing model for virtual execution. Implemented by
/// `machines::SharedClusterNet` for the paper's machine models.
pub trait VirtualNet: Send + Sync {
    /// Prices one message of `bytes` from `src` to `dst` (global ranks),
    /// ready at `ready` on the sender's clock.
    fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost;

    /// Prices `flops` floating-point operations on one rank at `eff`
    /// fraction of peak.
    fn compute(&self, flops: f64, eff: f64) -> Time;

    /// Prices a memory-streaming phase of `bytes` on one rank.
    fn stream(&self, bytes: f64) -> Time;

    /// Hears the minimum virtual clock over all ranks, once every
    /// world-size messages. A rank's clock never goes back and a message
    /// is ready at its sender's clock, so no later [`p2p`](Self::p2p) is
    /// ready before `min_clock` — a rank blocked in a receive, or
    /// finished, only holds the minimum lower than it need be. A net that
    /// keeps timelines may forget them behind it; one that keeps none
    /// ignores the call.
    fn retire_before(&self, _min_clock: Time) {}
}

/// One rank's virtual clock. Only the owning rank writes it (sends
/// charge the sender, receives advance the receiver) and the value
/// publishes no other data, so relaxed loads and stores suffice; whoever
/// reads the final clocks has joined or finished every rank first.
#[derive(Default)]
pub(crate) struct Clock(AtomicU64);

impl Clock {
    pub(crate) fn get(&self) -> Time {
        Time::from_secs(f64::from_bits(self.0.load(Ordering::Relaxed)))
    }

    pub(crate) fn set(&self, t: Time) {
        self.0.store(t.as_secs().to_bits(), Ordering::Relaxed);
    }
}

impl Comm {
    /// This rank's current virtual time. Zero outside virtual execution.
    pub(crate) fn v_time(&self) -> Time {
        self.virtual_clock()
            .map_or(Time::ZERO, |(clock, _)| clock.get())
    }

    /// Charges a compute phase of `flops` at `eff` fraction of peak to
    /// this rank's virtual clock. No-op outside virtual execution.
    pub fn v_compute(&self, flops: f64, eff: f64) {
        if let Some((clock, net)) = self.virtual_clock() {
            clock.set(clock.get() + net.compute(flops, eff));
        }
    }

    /// Charges a memory-streaming phase of `bytes` to this rank's virtual
    /// clock. No-op outside virtual execution.
    pub(crate) fn v_stream(&self, bytes: f64) {
        if let Some((clock, net)) = self.virtual_clock() {
            clock.set(clock.get() + net.stream(bytes));
        }
    }

    /// Synchronises virtual clocks through a max-allreduce of every rank's
    /// clock on entry, and returns that maximum *entry* clock, which it
    /// also installs as this rank's floor. The allreduce's own messages
    /// are priced too, so a rank leaves with the larger of the returned
    /// clock and its clock after them — later than the return value, and
    /// not the same on every rank. (A convenience for benchmark timing;
    /// returning the exit clock is ROADMAP item 1(a), a model change.)
    pub async fn v_sync_async(&self) -> Time {
        let mut t = [self.v_time().as_secs()];
        self.allreduce_async(&mut t, crate::reduce::Op::Max).await;
        let target = Time::from_secs(t[0]);
        self.set_virtual_clock_at_least(target);
        target
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block_on;
    use crate::run_virtual_coop;
    use std::sync::Arc;

    /// A fixed-cost test net: latency 10 us, 1 GB/s, full overlap.
    pub(crate) struct TestNet;

    impl VirtualNet for TestNet {
        fn p2p(&self, _s: usize, _d: usize, bytes: u64, ready: Time) -> P2pCost {
            let dur = Time::from_us(10.0) + Time::from_secs(bytes as f64 / 1e9);
            P2pCost {
                sender_done: ready + Time::from_us(1.0),
                arrival: ready + dur,
            }
        }
        fn compute(&self, flops: f64, eff: f64) -> Time {
            Time::from_secs(flops / (1e9 * eff))
        }
        fn stream(&self, bytes: f64) -> Time {
            Time::from_secs(bytes / 1e9)
        }
    }

    #[test]
    fn ping_pong_accumulates_latency() {
        let iters = 5;
        let (_, clocks) = run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
            let me = comm.rank();
            let buf = [0u8; 0];
            for _ in 0..iters {
                if me == 0 {
                    comm.send(&buf, 1, 1);
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 1, 1).await;
                } else {
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 0, 1).await;
                    comm.send(&buf, 0, 1);
                }
            }
        });
        // 2 messages x 10 us per iteration on the critical path.
        let expect = 2.0 * 10.0 * iters as f64;
        assert!(
            (clocks[0].as_us() - expect).abs() < 1e-6,
            "clock {} vs {expect}",
            clocks[0].as_us()
        );
    }

    #[test]
    fn the_net_hears_the_minimum_clock_every_world_size_messages() {
        use parking_lot::Mutex;

        /// `TestNet`, logging every ready time and every horizon heard.
        #[derive(Default)]
        struct Listening {
            ready: Mutex<Vec<Time>>,
            heard: Mutex<Vec<(usize, Time)>>,
        }
        struct ArcNet(Arc<Listening>);
        impl VirtualNet for ArcNet {
            fn p2p(&self, s: usize, d: usize, bytes: u64, ready: Time) -> P2pCost {
                self.0.ready.lock().push(ready);
                TestNet.p2p(s, d, bytes, ready)
            }
            fn compute(&self, flops: f64, eff: f64) -> Time {
                TestNet.compute(flops, eff)
            }
            fn stream(&self, bytes: f64) -> Time {
                TestNet.stream(bytes)
            }
            fn retire_before(&self, min_clock: Time) {
                let priced = self.0.ready.lock().len();
                self.0.heard.lock().push((priced, min_clock));
            }
        }

        let (n, rounds) = (6usize, 10usize);
        let log = Arc::new(Listening::default());
        run_virtual_coop(
            n,
            Box::new(ArcNet(Arc::clone(&log))),
            move |comm| async move {
                let (r, n) = (comm.rank(), comm.size());
                let mut got = [0u8; 64];
                for _ in 0..rounds {
                    comm.send(&[r as u8; 64], (r + 1) % n, 7);
                    comm.recv_async(&mut got, (r + n - 1) % n, 7).await;
                }
            },
        );
        let (ready, heard) = (log.ready.lock(), log.heard.lock());
        assert_eq!(ready.len(), n * rounds);
        let at: Vec<usize> = heard.iter().map(|&(priced, _)| priced).collect();
        assert_eq!(at, (1..=rounds).map(|k| k * n).collect::<Vec<_>>());
        for &(priced, horizon) in heard.iter() {
            assert!(ready[priced..].iter().all(|&r| r >= horizon));
        }
        // The ring moves every clock, so the horizon really advances.
        assert!(heard.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(heard.last().expect("heard").1 > Time::ZERO);
    }

    #[test]
    fn results_match_native_execution() {
        // Virtual time must not change computed values.
        let native = crate::run(4, |comm| {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            block_on(comm.allreduce_async(&mut x, crate::Op::Sum));
            x
        });
        let (virt, clocks) = run_virtual_coop(4, Box::new(TestNet), |comm| async move {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            comm.allreduce_async(&mut x, crate::Op::Sum).await;
            x
        });
        assert_eq!(native, virt);
        assert!(
            clocks.iter().all(|c| c.as_us() > 0.0),
            "allreduce costs time"
        );
    }

    #[test]
    fn ghost_words_keep_every_clock_and_move_no_bytes() {
        // The same program over real and over ghost words: the nets see
        // the same messages, so every clock agrees to the bit.
        async fn program<B: crate::Word, F: crate::Numeric>(comm: Comm) {
            let n = comm.size();
            let mut bytes = vec![B::ZERO; 100_000];
            comm.bcast_async(&mut bytes, 1).await;
            let mut gathered = vec![B::ZERO; 100_000 * n];
            comm.allgather_async(&bytes, &mut gathered).await;
            let mut v = vec![F::one(); 8192];
            comm.allreduce_async(&mut v, crate::Op::Sum).await;
            comm.v_sync_async().await;
        }
        for n in [3, 8] {
            let (_, real) = run_virtual_coop(n, Box::new(TestNet), program::<u8, f64>);
            let (_, ghost) = run_virtual_coop(
                n,
                Box::new(TestNet),
                program::<crate::Ghost<1>, crate::Ghost<8>>,
            );
            assert_eq!(real, ghost, "n={n}");
            assert!(ghost[0].as_us() > 0.0);
        }
    }

    #[test]
    fn compute_charging_and_sync() {
        let (_, clocks) = run_virtual_coop(3, Box::new(TestNet), |comm| async move {
            if comm.rank() == 1 {
                comm.v_compute(5e9, 1.0); // 5 seconds
            }
            comm.v_sync_async().await;
        });
        for c in &clocks {
            assert!(c.as_secs() >= 5.0, "sync must propagate the slowest clock");
        }
    }

    #[test]
    fn outside_virtual_mode_clocks_are_zero() {
        crate::run(2, |comm| {
            assert_eq!(comm.v_time(), Time::ZERO);
            comm.v_compute(1e12, 1.0); // no-op
            assert_eq!(comm.v_time(), Time::ZERO);
        });
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let run_bytes = |bytes: usize| -> f64 {
            let (_, clocks) = run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
                if comm.rank() == 0 {
                    comm.send(&vec![1u8; bytes], 1, 2);
                } else {
                    let mut r = vec![0u8; bytes];
                    comm.recv_async(&mut r, 0, 2).await;
                }
            });
            clocks[1].as_us()
        };
        let t1 = run_bytes(1000);
        let t2 = run_bytes(1_000_000);
        assert!(t2 > t1 + 900.0, "1 MB adds ~1 ms: {t1} -> {t2}");
    }

    #[test]
    fn shared_net_instances_are_reusable() {
        // The Arc pattern machines uses: one net across several worlds.
        struct ArcNet(Arc<TestNet>);
        impl VirtualNet for ArcNet {
            fn p2p(&self, s: usize, d: usize, b: u64, r: Time) -> P2pCost {
                self.0.p2p(s, d, b, r)
            }
            fn compute(&self, f: f64, e: f64) -> Time {
                self.0.compute(f, e)
            }
            fn stream(&self, b: f64) -> Time {
                self.0.stream(b)
            }
        }
        let shared = Arc::new(TestNet);
        for _ in 0..3 {
            let net = Box::new(ArcNet(Arc::clone(&shared)));
            let (_, clocks) = run_virtual_coop(2, net, |comm| async move {
                comm.barrier_async().await;
            });
            assert!(clocks[0].as_us() > 0.0);
        }
    }
}

//! Bridge between the machine models and `mp`'s virtual execution: a
//! thread-safe [`VirtualNet`](mp::VirtualNet) wrapping a [`ClusterSim`],
//! so any real `mp` program can run *on* a modelled machine.

use parking_lot::Mutex;
use simnet::schedule::P2pCost;
use simnet::Time;

use crate::cluster::ClusterSim;
use crate::model::Machine;

/// A `VirtualNet` over one machine model at a fixed rank count.
pub struct SharedClusterNet {
    machine: Machine,
    sim: Mutex<ClusterSim>,
}

impl SharedClusterNet {
    /// Builds the net for `machine` at `nranks` (optimised MPI path).
    pub fn new(machine: &Machine, nranks: usize) -> SharedClusterNet {
        SharedClusterNet {
            machine: machine.clone(),
            sim: Mutex::new(ClusterSim::new(machine, nranks)),
        }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl mp::VirtualNet for SharedClusterNet {
    fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
        self.sim.lock().price_p2p(src, dst, bytes, ready)
    }

    fn compute(&self, flops: f64, eff: f64) -> Time {
        Time::from_secs(flops / (self.machine.node.peak_gflops * 1e9 * eff))
    }

    fn stream(&self, bytes: f64) -> Time {
        Time::from_secs(bytes / self.machine.node.stream_bw)
    }

    fn retire_before(&self, min_clock: Time) {
        self.sim.lock().retire_before(min_clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{dell_xeon, nec_sx8};

    #[test]
    fn real_program_runs_on_a_modelled_machine() {
        let net = SharedClusterNet::new(&dell_xeon(), 4);
        let (results, clocks) = mp::run_virtual_coop(4, Box::new(net), |comm| async move {
            let mut x = vec![comm.rank() as f64 + 1.0];
            comm.allreduce_async(&mut x, mp::Op::Sum).await;
            x[0]
        });
        assert!(
            results.iter().all(|&v| v == 10.0),
            "data correctness preserved"
        );
        assert!(clocks.iter().all(|c| c.as_us() > 0.0), "time was charged");
    }

    #[test]
    fn faster_machine_finishes_sooner() {
        let time_on = |m: &Machine| {
            let net = SharedClusterNet::new(m, 8);
            let (_, clocks) = mp::run_virtual_coop(8, Box::new(net), |comm| async move {
                let mut x = vec![1.0f64; 131072]; // 1 MiB
                comm.allreduce_async(&mut x, mp::Op::Sum).await;
                comm.v_sync_async().await.as_us()
            });
            clocks.iter().map(|c| c.as_us()).fold(0.0, f64::max)
        };
        let sx8 = time_on(&nec_sx8());
        let xeon = time_on(&dell_xeon());
        assert!(sx8 < xeon, "SX-8 {sx8} us !< Xeon {xeon} us");
    }

    #[test]
    fn a_virtual_world_retires_its_timelines_and_keeps_its_clocks() {
        use std::sync::Arc;

        /// The shared net, hearing the world's horizon or not.
        struct Net(Arc<SharedClusterNet>, bool);
        impl mp::VirtualNet for Net {
            fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
                self.0.p2p(src, dst, bytes, ready)
            }
            fn compute(&self, flops: f64, eff: f64) -> Time {
                self.0.compute(flops, eff)
            }
            fn stream(&self, bytes: f64) -> Time {
                self.0.stream(bytes)
            }
            fn retire_before(&self, min_clock: Time) {
                if self.1 {
                    self.0.retire_before(min_clock);
                }
            }
        }

        // A 1 KiB ring with a little compute between rounds, so every
        // NIC's timeline is thousands of separate intervals.
        let run = |retire: bool| {
            let net = Arc::new(SharedClusterNet::new(&dell_xeon(), 16));
            let boxed = Box::new(Net(Arc::clone(&net), retire));
            let (_, clocks) = mp::run_virtual_coop(16, boxed, |comm| async move {
                let (r, n) = (comm.rank(), comm.size());
                let mut got = [0u8; 1024];
                for _ in 0..3000 {
                    comm.send(&[0u8; 1024], (r + 1) % n, 3);
                    comm.recv_async(&mut got, (r + n - 1) % n, 3).await;
                    comm.v_compute(7.2e3, 1.0);
                }
            });
            let held = net.sim.lock().fragments();
            (clocks, held)
        };
        let (retired_clocks, retired) = run(true);
        let (kept_clocks, kept) = run(false);
        assert_eq!(retired_clocks, kept_clocks);
        assert!(kept > 40_000, "the ring fragments: {kept}");
        assert!(retired * 4 < kept, "{retired} of {kept} intervals held");
    }

    #[test]
    fn compute_pricing_uses_the_node_model() {
        let m = dell_xeon();
        let net = SharedClusterNet::new(&m, 2);
        let (_, clocks) = mp::run_virtual_coop(2, Box::new(net), |comm| async move {
            if comm.rank() == 0 {
                comm.v_compute(7.2e9, 1.0); // exactly 1 s at peak
            }
        });
        assert!((clocks[0].as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(clocks[1].as_secs(), 0.0);
    }
}

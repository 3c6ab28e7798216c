//! `ClusterSim`: prices communication schedules and compute phases
//! against a machine model.
//!
//! Ranks map onto SMP nodes in blocks (`rank / cpus_per_node`), exactly as
//! `mpirun` fills nodes. Intra-node messages take the shared-memory fast
//! path (per-pair pipe bandwidth plus a per-node aggregate memory engine);
//! inter-node messages go through the [`simnet::Fabric`] with NIC and link
//! contention. Reduction arithmetic is priced at a memory-bandwidth-derived
//! rate — which is why the vector machines of the paper sit an order of
//! magnitude above the scalar clusters on the 1 MB Reduce/Allreduce
//! figures.

use std::cell::RefCell;

use simnet::schedule::{execute, P2pCost};
use simnet::{Fabric, Resource, Schedule, Time};

use crate::model::Machine;

struct Resources {
    fabric: Fabric,
    /// Per-node aggregate shared-memory copy engine.
    shm: Vec<Resource>,
}

/// A simulated cluster: one machine model instantiated at a rank count.
pub struct ClusterSim {
    machine: Machine,
    nranks: usize,
    res: RefCell<Resources>,
    clocks: RefCell<Vec<Time>>,
}

impl ClusterSim {
    /// Builds a simulation of `machine` running `nranks` MPI ranks on
    /// the optimised MPI path (what the IMB runs of the paper used).
    ///
    /// Panics if `nranks` exceeds the modelled installation's size.
    pub fn new(machine: &Machine, nranks: usize) -> ClusterSim {
        ClusterSim::build(machine, nranks, false)
    }

    /// Like [`new`](Self::new), but NICs run at the plain-buffer MPI rate
    /// (`plain_link_bw`) — the path HPCC's communication benchmarks
    /// exercise.
    pub fn new_plain(machine: &Machine, nranks: usize) -> ClusterSim {
        ClusterSim::build(machine, nranks, true)
    }

    fn build(machine: &Machine, nranks: usize, plain: bool) -> ClusterSim {
        assert!(nranks > 0, "need at least one rank");
        assert!(
            nranks <= machine.max_cpus,
            "{} supports at most {} CPUs, asked for {nranks}",
            machine.name,
            machine.max_cpus
        );
        let nodes = machine.nodes_for(nranks);
        // Copy traffic is read + write: half the node bandwidth is the
        // effective aggregate copy rate.
        let shm_bw = machine.node.mem_bw_node / 2.0;
        let fabric = if plain {
            machine.plain_fabric(nranks)
        } else {
            machine.fabric(nranks)
        };
        let mut m = machine.clone();
        if plain {
            // Sender-side pacing in `p2p` follows the NIC rate.
            m.net.link_bw = m.net.plain_link_bw;
        }
        ClusterSim {
            machine: m,
            nranks,
            res: RefCell::new(Resources {
                fabric,
                shm: (0..nodes).map(|_| Resource::new(shm_bw)).collect(),
            }),
            clocks: RefCell::new(vec![Time::ZERO; nranks]),
        }
    }

    /// SMP node hosting `rank` (block mapping).
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        rank / self.machine.node.cpus
    }

    /// Every rank's clock.
    pub fn clocks(&self) -> Vec<Time> {
        self.clocks.borrow().clone()
    }

    /// Current virtual time (the maximum rank clock).
    pub fn time(&self) -> Time {
        self.clocks
            .borrow()
            .iter()
            .copied()
            .fold(Time::ZERO, Time::max)
    }

    /// Resets all clocks and resource timelines.
    pub(crate) fn reset(&self) {
        self.res.borrow_mut().fabric.reset();
        for r in &mut self.res.borrow_mut().shm {
            r.reset();
        }
        for c in self.clocks.borrow_mut().iter_mut() {
            *c = Time::ZERO;
        }
    }

    /// Prices one point-to-point message.
    fn p2p(&self, res: &mut Resources, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
        let (sn, dn) = (self.node_of(src), self.node_of(dst));
        let net = &self.machine.net;
        if sn == dn {
            // Shared-memory path: per-pair pipe rate, per-node aggregate
            // engine, small latency.
            let (s, e) = res.shm[sn].reserve(ready, bytes);
            let pipe = Time::from_secs(bytes as f64 / net.intra_bw);
            let lat = Time::from_us(net.intra_latency_us);
            P2pCost {
                sender_done: s + pipe,
                arrival: e.max(s + pipe) + lat,
            }
        } else {
            let inj_ready = ready + Time::from_us(net.overhead_us);
            let (arrival, latency) = res.fabric.transfer_with_latency(sn, dn, bytes, inj_ready);
            // A single message cannot exceed the per-stream wire rate,
            // even on an idle fabric.
            let pipe = inj_ready + Time::from_secs(bytes as f64 / net.per_msg_bw) + latency;
            P2pCost {
                sender_done: inj_ready + Time::from_secs(bytes as f64 / net.link_bw),
                arrival: arrival.max(pipe),
            }
        }
    }

    /// Prices one point-to-point message without touching the rank
    /// clocks — the entry point for virtual execution, where the `mp`
    /// runtime owns the clocks. Nothing is retired on this path: the
    /// clocks here stay where they were and say nothing about the
    /// caller's ready times, so the caller reports its own horizon
    /// through `retire_before`.
    pub fn price_p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
        self.p2p(&mut self.res.borrow_mut(), src, dst, bytes, ready)
    }

    /// Retires every fabric and shared-memory timeline before `t`: the
    /// caller promises that no later message is ready before `t` (see
    /// [`simnet::Resource::retire_before`]). Prices are unchanged.
    pub(crate) fn retire_before(&self, t: Time) {
        let res = &mut *self.res.borrow_mut();
        res.fabric.retire_before(t);
        for r in &mut res.shm {
            r.retire_before(t);
        }
    }

    /// Busy intervals held over every timeline (what retirement bounds).
    pub fn fragments(&self) -> usize {
        let res = self.res.borrow();
        res.fabric.fragments() + res.shm.iter().map(Resource::fragments).sum::<usize>()
    }

    /// Rate at which one CPU streams reduction arithmetic, bytes/s.
    /// A fold reads operand + accumulator and writes the accumulator:
    /// 3 bytes of traffic per operand byte against a 2-bytes-per-byte
    /// copy rate, hence 2/3 of the STREAM-copy figure.
    pub(crate) fn reduce_bw(&self) -> f64 {
        self.machine.node.stream_bw * 2.0 / 3.0
    }

    /// Replays `schedule` from the current clocks; returns the completion
    /// time (maximum clock after the schedule). Every round first retires
    /// the timelines behind the minimum rank clock, which nothing later
    /// can be ready before: the clocks only ever rise (`advance`, `sync`
    /// and replay all move them forward; `reset` clears the timelines
    /// with them).
    pub fn run(&self, schedule: &Schedule) -> Time {
        self.replay(schedule, true)
    }

    /// [`run`](Self::run) with every timeline kept whole: the oracle the
    /// tests hold retirement to, clock for clock.
    #[doc(hidden)]
    pub fn run_keeping_timelines(&self, schedule: &Schedule) -> Time {
        self.replay(schedule, false)
    }

    fn replay(&self, schedule: &Schedule, retire: bool) -> Time {
        assert_eq!(schedule.nranks, self.nranks, "schedule rank count mismatch");
        let mut clocks = self.clocks.borrow_mut();
        let reduce_bw = self.reduce_bw();
        execute(
            schedule,
            &mut clocks,
            |src, dst, bytes, ready| self.p2p(&mut self.res.borrow_mut(), src, dst, bytes, ready),
            |_rank, bytes, start| start + Time::from_secs(bytes as f64 / reduce_bw),
            |horizon| {
                if retire {
                    self.retire_before(horizon);
                }
            },
        )
    }

    /// Replays `schedule` on a fresh cluster state and returns its
    /// duration.
    pub fn run_fresh(&self, schedule: &Schedule) -> Time {
        self.reset();
        self.run(schedule)
    }

    /// Advances `rank`'s clock by a compute phase of `flops` floating
    /// point operations at `eff` fraction of peak.
    pub fn compute_flops(&self, rank: usize, flops: f64, eff: f64) {
        let rate = self.machine.node.peak_gflops * 1e9 * eff;
        self.advance(rank, Time::from_secs(flops / rate));
    }

    /// Advances `rank`'s clock by a memory-streaming phase of `bytes`.
    pub fn compute_stream(&self, rank: usize, bytes: f64) {
        self.advance(rank, Time::from_secs(bytes / self.machine.node.stream_bw));
    }

    /// Advances `rank`'s clock by `dt`.
    pub fn advance(&self, rank: usize, dt: Time) {
        let mut clocks = self.clocks.borrow_mut();
        clocks[rank] += dt;
    }

    /// Synchronises all clocks to the current maximum (an idealised,
    /// free barrier used between modelled benchmark phases).
    pub fn sync(&self) -> Time {
        let t = self.time();
        for c in self.clocks.borrow_mut().iter_mut() {
            *c = t;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{cray_opteron, dell_xeon, nec_sx8};
    use simnet::{Round, Transfer};

    fn one_transfer(n: usize, src: usize, dst: usize, bytes: u64) -> Schedule {
        let mut s = Schedule::new(n);
        s.push(Round::of(vec![Transfer { src, dst, bytes }]));
        s
    }

    #[test]
    fn intra_node_is_faster_than_inter_node() {
        let m = nec_sx8();
        let sim = ClusterSim::new(&m, 16);
        let intra = sim.run_fresh(&one_transfer(16, 0, 1, 1 << 20));
        let inter = sim.run_fresh(&one_transfer(16, 0, 8, 1 << 20));
        assert!(intra < inter, "{intra} !< {inter}");
    }

    #[test]
    fn sx8_two_cpu_sendrecv_anchor() {
        // Paper Fig. 13: 47.4 GB/s reported for the 2-processor Sendrecv
        // (IMB counts 2 x message bytes). Check within 15%.
        let m = nec_sx8();
        let sim = ClusterSim::new(&m, 2);
        let bytes = 1u64 << 20;
        let mut s = Schedule::new(2);
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
        let t = sim.run_fresh(&s);
        let reported = 2.0 * bytes as f64 / t.as_secs();
        assert!(
            (reported - 47.4e9).abs() / 47.4e9 < 0.15,
            "sendrecv bandwidth {:.1} GB/s vs paper 47.4",
            reported / 1e9
        );
    }

    #[test]
    fn vector_machine_reduces_an_order_of_magnitude_faster() {
        let fast = ClusterSim::new(&nec_sx8(), 2).reduce_bw();
        let slow = ClusterSim::new(&dell_xeon(), 2).reduce_bw();
        assert!(fast > 10.0 * slow);
    }

    #[test]
    fn half_duplex_myrinet_hurts_bidirectional_traffic() {
        let m = cray_opteron();
        let sim = ClusterSim::new(&m, 4);
        let bytes = 1u64 << 20;
        // Node 0 <-> node 1 simultaneous exchange (ranks 0,1 on node 0).
        let mut s = Schedule::new(4);
        s.push(Round::of(vec![
            Transfer {
                src: 0,
                dst: 2,
                bytes,
            },
            Transfer {
                src: 2,
                dst: 0,
                bytes,
            },
        ]));
        let t_both = sim.run_fresh(&s);
        let t_one = sim.run_fresh(&one_transfer(4, 0, 2, bytes));
        // Half duplex: the two directions serialise almost fully.
        assert!(t_both.as_secs() > 1.7 * t_one.as_secs());
    }

    #[test]
    fn clocks_accumulate_across_runs_until_reset() {
        let m = dell_xeon();
        let sim = ClusterSim::new(&m, 2);
        let s = one_transfer(2, 0, 1, 1000);
        let t1 = sim.run(&s);
        let t2 = sim.run(&s);
        assert!(t2 > t1);
        sim.reset();
        assert_eq!(sim.time(), Time::ZERO);
    }

    #[test]
    fn compute_charging() {
        let m = dell_xeon();
        let sim = ClusterSim::new(&m, 2);
        sim.compute_flops(0, 7.2e9, 1.0); // exactly one second at peak
        assert!((sim.time().as_secs() - 1.0).abs() < 1e-9);
        sim.reset();
        sim.compute_stream(1, m.node.stream_bw);
        assert!((sim.time().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sync_aligns_clocks() {
        let m = dell_xeon();
        let sim = ClusterSim::new(&m, 4);
        sim.advance(2, Time::from_secs(0.5));
        let t = sim.sync();
        assert_eq!(t, Time::from_secs(0.5));
        sim.advance(0, Time::from_secs(0.1));
        assert!((sim.time().as_secs() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn rank_count_capped_at_installation_size() {
        ClusterSim::new(&cray_opteron(), 1024);
    }
}

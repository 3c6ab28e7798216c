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
use simnet::{Fabric, Replay, Resource, Rounds, Schedule, Time};

use crate::model::Machine;

struct Resources {
    fabric: Fabric,
    /// Per-node aggregate shared-memory copy engine.
    shm: Vec<Resource>,
    /// Messages priced since the last retirement sweep.
    priced: usize,
}

impl Resources {
    /// Every timeline a retirement sweep visits.
    fn timelines(&self) -> usize {
        self.fabric.timelines() + self.shm.len()
    }
}

/// A simulated cluster: one machine model instantiated at a rank count.
pub struct ClusterSim {
    machine: Machine,
    /// Per-message constants of the machine's MPI path, built once: the
    /// software overhead before an inter-node message is injected, and
    /// the shared-memory latency of an intra-node one.
    overhead: Time,
    intra_latency: Time,
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
            overhead: Time::from_us(m.net.overhead_us),
            intra_latency: Time::from_us(m.net.intra_latency_us),
            machine: m,
            nranks,
            res: RefCell::new(Resources {
                fabric,
                shm: (0..nodes).map(|_| Resource::new(shm_bw)).collect(),
                priced: 0,
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
        res.priced += 1;
        let (sn, dn) = (self.node_of(src), self.node_of(dst));
        let net = &self.machine.net;
        if sn == dn {
            // Shared-memory path: per-pair pipe rate, per-node aggregate
            // engine, small latency.
            let (s, e) = res.shm[sn].reserve(ready, bytes);
            let pipe = Time::from_secs(bytes as f64 / net.intra_bw);
            P2pCost {
                sender_done: s + pipe,
                arrival: e.max(s + pipe) + self.intra_latency,
            }
        } else {
            let inj_ready = ready + self.overhead;
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
    ///
    /// A sweep visits every timeline, so it runs only once the messages
    /// priced since the last one reach the number of timelines: O(1)
    /// amortised per message however often a horizon is heard. A skipped
    /// sweep changes no price; it only holds intervals a little longer.
    pub(crate) fn retire_before(&self, t: Time) {
        let res = &mut *self.res.borrow_mut();
        if res.priced < res.timelines() {
            return;
        }
        res.priced = 0;
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

    /// Prices `rounds` from the current clocks, each round as it is
    /// produced; returns the completion time (maximum clock after the
    /// schedule). Every round first retires the timelines behind the
    /// minimum rank clock, which nothing later can be ready before: the
    /// clocks only ever rise (`advance`, `sync` and replay all move them
    /// forward; `reset` clears the timelines with them). So what pricing
    /// holds is one round and the live window of each timeline.
    pub fn run(&self, rounds: impl Rounds) -> Time {
        self.replay(rounds, true)
    }

    /// [`run`](Self::run) with every timeline kept whole: the oracle the
    /// tests hold retirement to, clock for clock.
    #[doc(hidden)]
    pub fn run_keeping_timelines(&self, rounds: impl Rounds) -> Time {
        self.replay(rounds, false)
    }

    fn replay(&self, rounds: impl Rounds, retire: bool) -> Time {
        assert_eq!(rounds.nranks(), self.nranks, "schedule rank count mismatch");
        let mut clocks = self.clocks.borrow_mut();
        let reduce_bw = self.reduce_bw();
        execute(
            rounds,
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

    /// Replays a materialised `schedule` on a fresh cluster state and
    /// returns its duration.
    pub fn run_fresh(&self, schedule: &Schedule) -> Time {
        self.reset();
        self.run(Replay::new(schedule))
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
    fn clocks_accumulate_across_runs_until_reset() {
        let m = dell_xeon();
        let sim = ClusterSim::new(&m, 2);
        let s = one_transfer(2, 0, 1, 1000);
        let t1 = sim.run(Replay::new(&s));
        let t2 = sim.run(Replay::new(&s));
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

    /// A horizon heard before as many messages as there are timelines
    /// waits; the next one heard after them sweeps, and every timeline
    /// keeps its last interval.
    #[test]
    fn a_sweep_waits_for_as_many_messages_as_timelines() {
        let sim = ClusterSim::new(&dell_xeon(), 16);
        let timelines = sim.res.borrow().timelines();
        // Messages 1 ms apart between two nodes: one interval each on
        // every resource of the route, none merging.
        let send = |i: usize| sim.price_p2p(0, 15, 1000, Time::from_secs(i as f64 * 1e-3));
        for i in 0..timelines - 1 {
            send(i);
        }
        let held = sim.fragments();
        sim.retire_before(Time::from_secs(1e3));
        assert_eq!(
            sim.fragments(),
            held,
            "swept after {} messages",
            timelines - 1
        );
        send(timelines - 1);
        sim.retire_before(Time::from_secs(1e3));
        assert!(
            held > 3 * timelines && sim.fragments() < timelines,
            "{}",
            sim.fragments()
        );
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn rank_count_capped_at_installation_size() {
        ClusterSim::new(&cray_opteron(), 1024);
    }
}

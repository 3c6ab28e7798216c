//! `simnet` — a deterministic interconnect-fabric simulator.
//!
//! This crate is the substrate beneath the machine models used to reproduce
//! the figures of Saini et al., *"Performance evaluation of supercomputers
//! using HPCC and IMB Benchmarks"*: virtual [`time`], contended
//! [`resource`]s with occupancy timelines, the interconnect [`topology`]
//! families of the paper's five systems (fat-tree, hypercube, crossbar,
//! Clos), the cut-through [`fabric`] model built from them, and the
//! [`schedule`] representation shared with the `mp` runtime's collective
//! algorithms, produced and priced a round at a time.
//!
//! Everything here is deterministic: replaying the same schedule against the
//! same fabric yields bit-identical timings, which keeps the regenerated
//! figures stable across runs.

pub mod fabric;
pub mod resource;
pub mod schedule;
pub mod time;
pub mod topology;
pub mod units;

pub use fabric::{Fabric, FabricParams, FabricStats, ResourceKind, ResourceStats};
pub use resource::Resource;
pub use schedule::{LocalWork, P2pCost, Replay, Round, Rounds, Schedule, Transfer};
pub use time::Time;
pub use topology::{Clos, Crossbar, FatTree, Hypercube, LinkId, NodeId, Topology, Torus3D};

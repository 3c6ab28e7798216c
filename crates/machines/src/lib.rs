//! `machines` — architecture models of the five supercomputers evaluated
//! by Saini et al. with the HPCC and IMB benchmark suites.
//!
//! Each model is built from the paper's own architecture descriptions
//! (Section 2, Tables 1-2) plus a small set of calibration anchors quoted
//! from the measurement figures; every constant cites its source in the
//! system's module documentation. The [`ClusterSim`] prices communication
//! schedules and compute phases against a model, which is how the figure
//! harness regenerates the paper's measurements without the hardware.
//!
//! ```
//! use machines::{systems, ClusterSim};
//!
//! let sx8 = systems::nec_sx8();
//! let sim = ClusterSim::new(&sx8, 64);
//! let mut sched = simnet::Schedule::new(64);
//! sched.push(simnet::Round::of(vec![simnet::Transfer { src: 0, dst: 63, bytes: 1024 }]));
//! let t = sim.run_fresh(&sched);
//! assert!(t.as_us() > 0.0);
//! ```

pub mod cluster;
pub mod model;
pub mod systems;
pub mod tables;
pub(crate) mod virtnet;

pub use cluster::ClusterSim;
pub use model::{Machine, NetworkModel, NodeModel, SystemClass, TopologyKind};
pub use virtnet::SharedClusterNet;

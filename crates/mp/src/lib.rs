//! `mp` — an in-process SPMD message-passing runtime ("mini-MPI").
//!
//! The HPCC and IMB benchmark suites are MPI programs; this crate supplies
//! the message-passing substrate they run on in this workspace. Eager
//! in-process message delivery with MPI matching semantics (source + tag,
//! non-overtaking), communicators with `split`/`dup`, and the full family
//! of collective operations in the classical algorithm variants (binomial,
//! recursive doubling/halving, ring, pairwise, Bruck, Rabenseifner).
//!
//! Ranks run one of two ways. Native worlds ([`run`], [`run_traced`]) give
//! every rank an OS thread, so kernels and wake-ups cost what they cost on
//! the host. Cooperative worlds ([`run_coop`], [`run_traced_coop`],
//! [`run_virtual_coop`]) host every rank as an `async` task on the calling
//! thread; virtual execution (messages priced by a [`VirtualNet`]) runs
//! only there, on one deterministic FIFO schedule. Each engine starts a
//! world in one place (`runtime::spawn_rank_threads`, `coop::launch`);
//! every launcher, checked or not, in a session or not, projects that one.
//!
//! # Quickstart
//!
//! ```
//! let totals = mp::run(4, |comm| {
//!     let mut x = [comm.rank() as u64 + 1];
//!     comm.allreduce(&mut x, mp::Op::Sum);
//!     x[0]
//! });
//! assert_eq!(totals, vec![10, 10, 10, 10]);
//! ```
//!
//! Every collective algorithm has a mirror *schedule generator* in
//! [`sched`] that emits its exact per-round communication pattern as a
//! [`simnet::Schedule`]; the fabric simulator replays those schedules
//! against the paper's machine models, and tests assert that traced real
//! executions ([`run_traced`]) move exactly the messages the generators
//! predict.

mod api;
pub mod check;
pub mod coll;
mod comm;
mod coop;
pub mod datatype;
mod mailbox;
mod msg;
mod payload;
pub mod reduce;
pub mod rma;
mod runtime;
pub mod sched;
pub mod transport;
pub mod virt;

pub use comm::{Comm, RecvHandle};
pub use coop::{
    block_on, install_explore, run_checked_coop, run_controlled_coop, run_coop, run_traced_coop,
    run_virtual_coop, ExploreGuard, FifoController, ScheduleController, ScopedExplore,
    WildcardCandidate,
};
pub use datatype::{Ghost, Word};
pub use msg::{Tag, MAX_USER_TAG};
pub use reduce::{Numeric, Op};
pub use rma::Window;
pub use runtime::{receives_spin, run, run_traced, waiting_regime};
pub use transport::{Backend, Proc};
pub use virt::VirtualNet;

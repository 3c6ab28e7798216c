//! `mp` — an in-process SPMD message-passing runtime ("mini-MPI").
//!
//! The HPCC and IMB benchmark suites are MPI programs; this crate supplies
//! the message-passing substrate they run on in this workspace. Eager
//! in-process message delivery with MPI matching semantics (source + tag,
//! non-overtaking), communicators with `split`, and the eight collective
//! operations the suite runs — barrier, bcast, allgather(v), alltoall,
//! reduce, allreduce, reduce_scatter — in the classical algorithm variants
//! the era's libraries picked (binomial, recursive doubling, ring,
//! pairwise, Bruck, Rabenseifner). An operation exists because a workload
//! reaches it; see [`coll`].
//!
//! A rank body is a future over an owned world [`Comm`], and an [`Engine`]
//! polls it. [`Engine::Threads`] gives every rank an OS thread that drives
//! its body with [`block_on`], so kernels and wake-ups cost what they cost
//! on the host; [`Engine::Coop`] hosts every rank as a task on the calling
//! thread, polled off one deterministic FIFO run queue. Virtual execution
//! (messages priced by a [`VirtualNet`]) runs only there. Every [`Comm`]
//! operation is awaitable only: there is no blocking twin below a door.
//!
//! The doors: [`run`] (a plain closure on rank threads, which waits on an
//! operation with [`block_on`]; under a multi-process session, this
//! process's ranks of a fleet), [`run_coop`],
//! [`run_virtual_coop`] (the one priced door), and [`run_traced`] and
//! [`check::run_checked`], which take the engine as an argument.
//! [`run_traced_coop`] is `run_traced` on [`Engine::Coop`]. Every door
//! goes through one private launch path: one world builder, two engines
//! that hand back the same per-rank outcomes, one read of the ambient hook
//! and one fold from outcomes to result — so a failing world names the
//! same cause (the lowest-rank panic that is not a stall's unwind) on
//! either engine.
//!
//! An instrumented world's one record is its [`check::RunLog`] (the traced
//! doors return its send events), and one ambient hook,
//! [`check::install_scoped`], instruments every world a thread starts
//! through a plain door on either engine.
//!
//! # Quickstart
//!
//! ```
//! let totals = mp::run(4, |comm| {
//!     let mut x = [comm.rank() as u64 + 1];
//!     mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
//!     x[0]
//! });
//! assert_eq!(totals, vec![10, 10, 10, 10]);
//! ```
//!
//! Every collective algorithm has a mirror *schedule generator* in
//! [`sched`] that emits its exact per-round communication pattern as a
//! [`simnet::Schedule`]; the fabric simulator replays those schedules
//! against the paper's machine models, and tests assert that the sends of
//! real executions ([`run_traced`]) are exactly the messages the
//! generators predict.

mod api;
pub mod check;
pub mod coll;
mod comm;
mod coop;
pub(crate) mod datatype;
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
    run_coop, run_traced_coop, run_virtual_coop, FifoController, ScheduleController,
    WildcardCandidate,
};
pub use datatype::{Ghost, Word};
pub use msg::Tag;
pub use reduce::{Numeric, Op};
pub use rma::Window;
pub use runtime::{block_on, receives_spin, run, run_traced, waiting_regime, Engine};
pub use transport::Proc;
pub use virt::VirtualNet;

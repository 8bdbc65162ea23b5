//! # pic-comm — an MPI-like message-passing substrate
//!
//! The paper's reference implementations are MPI programs. This crate
//! provides the subset of MPI semantics they need, with a **threads
//! backend**: each rank is an OS thread, point-to-point messages are
//! tag-matched byte payloads over in-process channels, and the collectives
//! (barrier, broadcast, reduce/allreduce, gather/allgather, alltoallv) are
//! built on top of point-to-point exactly as a textbook MPI would build
//! them — so the communication *structure* of the ported kernels is
//! faithful even though the transport is shared memory.
//!
//! Key MPI semantics preserved:
//!
//! * **Tag + source matching with out-of-order delivery tolerance** — a
//!   receive for `(src, tag)` skips over and queues non-matching messages.
//! * **Communicator contexts** — messages sent on one communicator can
//!   never be matched by receives on another (each communicator carries a
//!   distinct context id, like `MPI_Comm` contexts).
//! * **`split`** — collective sub-communicator creation by color/key, used
//!   by the diffusion load balancer for per-processor-column reductions.
//! * **Deterministic collectives** — reductions are performed in rank
//!   order, so floating-point results are reproducible run to run.
//!
//! ```
//! use pic_comm::world::run_threads;
//! use pic_comm::collective::allreduce_u64;
//! use pic_comm::comm::ReduceOp;
//!
//! let sums = run_threads(4, |comm| {
//!     allreduce_u64(&comm, comm.rank() as u64, ReduceOp::Sum)
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

pub mod chan;
pub mod collective;
pub mod comm;
pub mod endpoint;
pub mod payload;
pub mod world;

pub use collective::*;
pub use comm::{Communicator, RecvHandle, ReduceOp, SendHandle, Tag};
pub use payload::{Payload, PayloadKind, WirePayload};
pub use world::{run_threads, ThreadWorld};

//! The Offload runtime library.
//!
//! Offload C++ (paper §3) is a compiler *plus a runtime library*; this
//! crate is the runtime library half for the simulated machine, holding
//! the three mechanisms §4 of the paper is about:
//!
//! - **Accessor classes** ([`accessor`]): "portable accessor classes
//!   (efficient data access abstractions)" — the `Array` accessor that
//!   replaces one high-latency transfer per loop iteration with a single
//!   bulk transfer (paper §4.2).
//! - **Uniform-type streaming** ([`stream`]): "processing objects in
//!   groups of uniform type permits prefetching and double buffered
//!   transfers, for further performance increases" (paper §4.1).
//! - **Dispatch domains** ([`domain`]): the outer/inner-domain virtual
//!   method machinery of Figure 3, including the informative miss
//!   exception that tells the programmer which method annotation is
//!   missing.
//!
//! Everything here runs against [`simcell::AccelCtx`], so each
//! abstraction carries its real (simulated) cost: the benchmarks in
//! `bench` measure exactly these code paths.
//!
//! # Example
//!
//! ```
//! use offload_rt::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let mut machine = Machine::new(MachineConfig::small())?;
//! let remote = machine.alloc_main_slice::<u32>(64)?;
//! machine.main_mut().write_pod_slice(remote, &(0..64).collect::<Vec<u32>>())?;
//! let sum = machine.offload(0).run(|ctx| -> Result<u32, SimError> {
//!     let array = ArrayAccessor::<u32>::fetch(ctx, remote, 64)?;
//!     let mut sum = 0;
//!     for i in 0..array.len() {
//!         sum += array.get(ctx, i)?;
//!     }
//!     Ok(sum)
//! })??;
//! assert_eq!(sum, (0..64).sum());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod accessor;
pub mod codeload;
pub mod domain;
pub mod pipeline;
pub mod prelude;
pub mod remote;
pub mod sched;
pub mod stream;

pub use accessor::ArrayAccessor;
pub use codeload::{dispatch_with_loading, CodeLoader, CodeLoaderStats, DEFAULT_CODE_SIZE};
pub use domain::{
    accel_virtual_dispatch, class_of, host_virtual_dispatch, set_class, ClassId, ClassRegistry,
    Domain, DuplicateId, FnAddr, LookupCost, MethodSlot, MethodTable,
};
pub use pipeline::{MachinePipelineExt, PipeReport, PipelineBuilder};
pub use remote::{GatherView, RemoteSlice};
pub use sched::{LaneReport, SchedExt, SchedPolicy, SchedReport, TileScheduler};
pub use stream::{process_chunked, process_stream, StreamConfig};

/// DMA tag used by [`ArrayAccessor`] bulk transfers. Gather batches
/// issued through [`simcell::AccelCtx::gather`] use the runtime's
/// reserved `GATHER_TAG` (28), so accessor and gather traffic never
/// share a queue.
pub const ACCESSOR_TAG: u8 = 26;
/// DMA tags used by the double-buffered streamer (one per buffer).
pub const STREAM_TAGS: [u8; 2] = [24, 25];

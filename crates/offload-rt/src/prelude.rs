//! The working set of the Offload runtime, in one import.
//!
//! `use offload_rt::prelude::*;` brings in everything a typical
//! offloaded frame touches: the machine and its fluent offload
//! builder, the accessor and streaming abstractions, the cache choice
//! and its autotuner, and the tile scheduler. Examples and doc tests across
//! the repository import exactly this.

pub use memspace::{Addr, Pod, SpaceId};
pub use simcell::{
    AccelCtx, AccessMode, DispatchFault, FaultError, FaultPlan, GatherPlan, LaunchSettings,
    Machine, MachineConfig, ModeDecl, ModeSet, OffloadBuilder, OffloadHandle, RecoverySettings,
    SimError,
};
pub use softcache::{autotune::autotune, CacheChoice, CacheConfig};

pub use crate::accessor::ArrayAccessor;
pub use crate::pipeline::{MachinePipelineExt, PipeReport, PipelineBuilder};
pub use crate::remote::{GatherView, RemoteSlice};
pub use crate::sched::{LaneReport, SchedExt, SchedPolicy, SchedReport, TileScheduler};
pub use crate::stream::{process_chunked, process_stream, StreamConfig};

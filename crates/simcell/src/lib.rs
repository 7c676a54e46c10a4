//! A deterministic, cycle-accounted heterogeneous machine simulator.
//!
//! The paper's experiments ran on the Cell BE inside the PlayStation 3: a
//! host core (PPE) with ordinary access to main memory, plus accelerator
//! cores (SPEs) that can *only* address their private 256 KiB local
//! stores and must move everything else with explicit, tagged DMA. This
//! crate simulates that machine shape so every experiment in the
//! workspace runs on a laptop.
//!
//! # Execution model
//!
//! Simulation is *timed but sequential*: each core owns a cycle counter,
//! and work is charged to the counter of the core that performs it.
//! An [`Machine::offload`] call runs the accelerator closure immediately
//! (to completion) while recording the interval it would have occupied on
//! the accelerator; the host's counter keeps advancing through whatever
//! the host does next; [`Machine::join`] advances the host to the
//! maximum of both, exactly the fork/join semantics of the paper's
//! Figure 2 frame loop ("parallel, distinct tasks with well-defined
//! synchronisation points"). DMA commands complete at issue time plus
//! setup, streaming and latency costs; `wait` advances the waiting core
//! to the completion time. Everything is deterministic: the same program
//! produces the same cycle counts on every run.
//!
//! # Example
//!
//! ```
//! use simcell::{Machine, MachineConfig};
//! use memspace::{Pod, SpaceId};
//!
//! # fn main() -> Result<(), simcell::SimError> {
//! let mut machine = Machine::new(MachineConfig::default())?;
//! let data = machine.alloc_main_pod::<u32>()?;
//! machine.host_write_pod(data, &41u32)?;
//!
//! let handle = machine.offload(0).spawn(|ctx| -> Result<(), simcell::SimError> {
//!     let v: u32 = ctx.outer_read_pod(data)?;
//!     ctx.compute(100);
//!     ctx.outer_write_pod(data, &(v + 1))?;
//!     Ok(())
//! })?;
//! machine.host_compute(500); // host works in parallel
//! machine.join(handle)?;
//! assert_eq!(machine.host_read_pod::<u32>(data)?, 42);
//! # Ok(())
//! # }
//! ```

//! # Observability
//!
//! Every machine carries an always-on [`trace::MachineStats`] counter
//! block and an opt-in [`EventLog`] timeline. Both are zero
//! *simulated* cost: recording spends host memory, never cycles, so
//! traced and untraced runs produce bit-identical results. See the
//! [`trace`] module for the Chrome-trace/Perfetto exporter and the
//! repository's `PROFILING.md` for the reading guide.

#![warn(missing_docs)]

pub mod cost;
pub mod ctx;
pub mod error;
pub mod event;
pub mod fault;
pub mod gather;
pub mod launch;
pub mod machine;
pub mod snapshot;
pub mod trace;

pub use cost::{CostModel, MAX_CYCLES};
pub use ctx::AccelCtx;
pub use error::{DispatchFault, SimError};
pub use event::{CoreId, Event, EventKind, EventLog, Lane};
pub use fault::{FaultError, FaultKind, FaultPlan, RecoveryKind};
pub use gather::{GatherDescriptor, GatherPlan};
pub use launch::{Launch, LaunchSettings, RecoverySettings, MAX_RETRIES};
pub use machine::{Machine, MachineConfig, OffloadBuilder, OffloadHandle};
pub use memspace::{AccessMode, ModeDecl, ModeSet};
pub use snapshot::{Divergence, MemorySnapshot, Snapshot};
pub use trace::{
    ascii_timeline, chrome_trace_json, parse_chrome_trace, AccessRecord, AccessTrace, ChromeEvent,
    MachineStats, TraceOp,
};

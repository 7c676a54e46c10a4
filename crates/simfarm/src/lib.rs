//! # simfarm — fleet execution of deterministic worlds
//!
//! The rest of the workspace runs exactly one [`simcell::Machine`] on
//! one thread. This crate is the layer that turns that sequential
//! runtime into a scalable one, following the farm pattern FastFlow
//! popularised for self-offloading runtimes (PAPERS.md, arXiv
//! 1002.4668): a fixed pool of OS worker threads fed by a submit
//! queue, draining into a reap queue.
//!
//! - [`WorldSpec`] describes one world: a seed, a machine shape, a
//!   [`WorldProgram`], and an optional fault plan. A spec is plain
//!   `Copy` data — the *description* of a run, never the run itself —
//!   which is what makes a farm world bit-identical to its solo twin.
//! - [`Farm::new`]`(threads)` spins up the pool. [`Farm::submit`]
//!   returns a [`Ticket`]; [`Farm::reap`] / [`Farm::collect`] yield
//!   [`WorldReport`]s **in submission order** regardless of which
//!   worker finished first.
//! - Each worker owns its `Machine` outright (`Machine` is `Send` by
//!   compile-time assertion) and recycles it between worlds through
//!   [`simcell::Machine::reset_for_seed`] — zero per-world allocation
//!   churn once every worker has warmed up.
//! - [`Farm::worker_busy_nanos`] reports the wall time each worker
//!   spent running worlds, so a caller can split a batch's wall time
//!   into world time and farm overhead.
//! - [`run_world`] is the solo entry point. It shares the
//!   [`run_world_in`] code path with the workers, so "farm output ==
//!   solo output" is a structural guarantee, pinned by the CI
//!   determinism gate rather than hoped for.
//!
//! ```
//! use simfarm::{Farm, WorldSpec, run_world};
//!
//! let mut farm = Farm::new(2).unwrap();
//! let spec = WorldSpec::quick(42);
//! farm.submit(spec);
//! let report = farm.reap().unwrap();
//! let solo = run_world(&spec).unwrap();
//! assert_eq!(report.outcome.unwrap().world_hash, solo.world_hash);
//! ```

pub mod farm;
pub mod spec;

pub use farm::{Farm, Ticket, WorldReport};
pub use spec::{run_world, run_world_in, WorldOutput, WorldProgram, WorldSpec};

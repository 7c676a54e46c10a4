//! The experiment harness of the Offload reproduction.
//!
//! Every quantitative or mechanistic claim in the paper maps to one
//! experiment here (DESIGN.md §3 has the full index); each experiment
//! builds its workload on the simulated machine, runs every compared
//! configuration, and emits a [`Table`] whose *shape* — who wins, by
//! roughly what factor, where crossovers fall — is what the
//! reproduction checks against the paper's text. Absolute cycle counts
//! depend on the cost model and are not the claim.
//!
//! Run `cargo run -p bench --bin paper_tables` for the full tables (add
//! `--markdown` for EXPERIMENTS.md-ready output). `paper_tables --trace
//! <file>` / `--stats` capture a profiling trace instead of tables (see
//! `PROFILING.md`). Host wall-clock speed is measured by `perfbench`
//! (its own workspace under `perfbench/`), not by this crate.
//!
//! # Example
//!
//! ```
//! // Every experiment returns a Table whose shape (not absolute
//! // cycles) carries the claim; E2 in quick mode runs one sweep row.
//! let table = bench::exp::e02_offload_overlap::run(true);
//! assert_eq!(table.rows.len(), 1);
//! assert!(table.columns.iter().any(|c| c == "speedup"));
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod exp;
pub mod profile;
pub mod table;

pub use exp::run_all;
pub use table::Table;

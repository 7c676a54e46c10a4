//! A fleet of deterministic worlds on the sim farm.
//!
//! ```text
//! cargo run --release --example sim_farm
//! ```
//!
//! Submits 64 seeded worlds to a 4-worker farm, reaps the reports in
//! submission order, and verifies the farm's central invariant live:
//! a world picked from the middle of the batch is re-run solo on a
//! fresh machine and must hash bit-for-bit the same. The farm recycles
//! each worker's machine between worlds (`Machine::reset_for_seed`),
//! so the 64 worlds cost 4 machine constructions, not 64.

use offload_repro::simfarm::{run_world, Farm, WorldSpec};

const WORLDS: u64 = 64;
const WORKERS: usize = 4;

fn main() {
    let mut farm = Farm::new(WORKERS).expect("worker count is positive");
    println!("submitting {WORLDS} worlds to {WORKERS} workers…");
    for seed in 0..WORLDS {
        farm.submit(WorldSpec::quick(seed * 0x9E37 + 1));
    }

    let reports = farm.collect();
    assert_eq!(reports.len(), WORLDS as usize);
    println!("  ticket  seed              hash              cycles   worker");
    for report in reports.iter().step_by(9) {
        let output = report.outcome.as_ref().expect("worlds are well-formed");
        println!(
            "  {:>6}  {:016x}  {:016x}  {:>7}  {:>5}",
            report.ticket.index(),
            report.seed,
            output.world_hash,
            output.sim_cycles,
            report.worker
        );
    }

    let busy = farm.worker_busy_nanos();
    let total_ms: f64 = busy.iter().sum::<u64>() as f64 / 1e6;
    println!("time running worlds: {total_ms:.2} ms total across {WORKERS} workers");

    // The invariant, demonstrated: a farm world equals its solo twin.
    let probe = &reports[reports.len() / 2];
    let solo = run_world(&WorldSpec::quick(probe.seed)).expect("solo twin runs");
    let farmed = probe.outcome.as_ref().expect("world is well-formed");
    assert_eq!(
        farmed.world_hash, solo.world_hash,
        "farm world diverged from its solo run"
    );
    assert_eq!(farmed.stats, solo.stats);
    assert_eq!(farmed.sim_cycles, solo.sim_cycles);
    println!(
        "world {:#x}: farm hash {:016x} == solo hash {:016x} ✓",
        probe.seed, farmed.world_hash, solo.world_hash
    );
}

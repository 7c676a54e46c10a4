//! E16 (extension) — recovery overhead under a rising fault rate.
//!
//! The consoles the paper's teams shipped on treat a flaky DMA or a
//! wedged coprocessor as a fatal bug; a robust runtime treats them as
//! schedulable events. This experiment arms `simcell`'s deterministic
//! fault plane over the E15 AI frame and dispatches it under all three
//! `offload_rt::sched` policies with the full recovery stack on:
//! transient faults (corrupted/dropped transfers, tag timeouts) retry
//! with a cycle-accounted backoff, accelerators the plane kills are
//! evicted mid-run, and tiles nothing can run degrade to the host at
//! the cost model's honest penalty.
//!
//! Two invariants anchor the table. First, recovery is *exact*: every
//! run, at every fault rate, produces the faultless frame's world
//! bit-for-bit — retries restart tiles from a clean local-store mark,
//! and completed writes overwrite any scribble damage. Second, the
//! plane is *free when quiet*: an armed all-zero plan draws nothing
//! from the fault RNG, so its cycles equal the no-plan run exactly.
//! What the table shows is the price of the rest: overhead climbs with
//! the rate, and work stealing absorbs evictions most gracefully
//! because survivors inherit and rebalance dead lanes' queues.
//!
//! The last two columns re-measure the storm with access-mode
//! declarations (the double-buffered frame of
//! [`ai_frame_sched_recovering_buffered`]): declaring the inputs `read`
//! and the output `write` elides the conservative table flush and lets
//! the put journal skip pre-image snapshots for the fully-rewritten
//! output — recovery gets cheaper exactly where the modes prove
//! rollback unnecessary, and the world stays bit-identical at every
//! rate.

use gamekit::{
    ai_frame_sched, ai_frame_sched_recovering, ai_frame_sched_recovering_buffered, AiConfig,
    EntityArray, GameEntity, WorldGen,
};
use offload_rt::sched::{SchedPolicy, SchedReport};
use simcell::{FaultPlan, Machine, MachineConfig, Snapshot};

use crate::table::{cycles, speedup, Table};

/// Accelerator lanes the dispatch uses.
pub const ACCELS: u16 = 6;
/// Tiles the frame is cut into.
pub const TILES: u32 = 24;
/// Retries per transient fault before the host fallback takes the tile.
pub const RETRIES: u32 = 3;
/// Backoff cycles charged per retry.
pub const BACKOFF: u64 = 1_000;
/// Seed of every fault plan (the schedule is a pure function of it).
pub const FAULT_SEED: u64 = 0xE16;

/// The fault rates the table sweeps (0 = armed-but-quiet plan).
pub const RATES: [f32; 4] = [0.0, 0.02, 0.05, 0.10];

/// Runs one frame under `policy` with a uniform fault plan at `rate`
/// (`None` = no plan armed at all); returns the scheduler report, the
/// machine's snapshot and the resulting entities.
pub fn measure(
    n: u32,
    policy: SchedPolicy,
    rate: Option<f32>,
) -> (SchedReport, Snapshot, Vec<GameEntity>) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE16);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = match rate {
        None => ai_frame_sched(
            &mut machine,
            &entities,
            table,
            &config,
            ACCELS,
            TILES,
            policy,
            &[],
        )
        .expect("tiles fit"),
        Some(rate) => ai_frame_sched_recovering(
            &mut machine,
            &entities,
            table,
            &config,
            ACCELS,
            TILES,
            policy,
            FaultPlan::uniform(FAULT_SEED, rate),
            RETRIES,
            BACKOFF,
        )
        .expect("recovery absorbs every fault"),
    };
    assert_eq!(machine.races_detected(), 0);
    let world = entities.snapshot(&machine).expect("snapshot reads");
    (report, machine.snapshot(), world)
}

/// Runs the double-buffered E16 frame (sanitize pass + conservative
/// table flush, decisions into a separate output array) at `rate`, with
/// or without access-mode declarations; returns the report, the
/// machine's snapshot (its counters fill the journal and elision
/// columns) and the output entities.
pub fn measure_buffered(
    n: u32,
    policy: SchedPolicy,
    rate: f32,
    declare_modes: bool,
) -> (SchedReport, Snapshot, Vec<GameEntity>) {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let out = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(0xE16);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    let report = ai_frame_sched_recovering_buffered(
        &mut machine,
        &entities,
        &out,
        table,
        &config,
        ACCELS,
        TILES,
        policy,
        FaultPlan::uniform(FAULT_SEED, rate),
        RETRIES,
        BACKOFF,
        declare_modes,
    )
    .expect("recovery absorbs every fault");
    assert_eq!(machine.races_detected(), 0);
    let world = out.snapshot(&machine).expect("snapshot reads");
    (report, machine.snapshot(), world)
}

/// Runs E16.
pub fn run(quick: bool) -> Table {
    let n = if quick { 512 } else { 1024 };
    let mut table = Table::new(
        "E16",
        "Extension: fault injection and recovery overhead by scheduling policy",
        "a deterministic fault plane (corrupt/dropped DMA, tag timeouts, accelerator death) \
         plus retry/evict/host-fallback recovery; every run reproduces the faultless world \
         bit-for-bit, and the armed-but-quiet plan costs zero cycles",
        vec![
            "policy",
            "fault rate",
            "frame AI cycles",
            "vs faultless",
            "faults",
            "retries",
            "fallbacks",
            "evicted",
            "journal B (undecl->modes)",
            "WB elided B",
        ],
    );
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ShortestQueue,
        SchedPolicy::WorkStealing,
    ] {
        let (clean, clean_state, clean_world) = measure(n, policy, None);
        for rate in RATES {
            let at = format!("{} @ {rate}", policy.name());
            let (report, state, _) = measure(n, policy, Some(rate));
            let diff = if rate == 0.0 {
                // An armed all-zero plan must cost nothing at all.
                clean_state.diff(&state)
            } else {
                clean_state.memory().diff(state.memory())
            };
            diff.unwrap_or_else(|d| panic!("{at}: recovery must be exact and free: {d}"));
            // The double-buffered frame, undeclared vs mode-annotated:
            // identical worlds, but the declarations elide the
            // conservative flush and skip the output journal.
            let (_, undeclared, world_u) = measure_buffered(n, policy, rate, false);
            let (_, declared, _) = measure_buffered(n, policy, rate, true);
            assert_eq!(
                world_u, clean_world,
                "{at}: the buffered frame computes the same world"
            );
            undeclared
                .memory()
                .diff(declared.memory())
                .unwrap_or_else(|d| panic!("{at}: access modes must not change the world: {d}"));
            let (stats_u, stats_d) = (undeclared.stats(), declared.stats());
            assert!(
                stats_d.journal_bytes <= stats_u.journal_bytes,
                "{at}: modes can only shrink the journal"
            );
            table.push_row(vec![
                policy.name().to_string(),
                format!("{rate:.2}"),
                cycles(report.cycles),
                speedup(report.cycles, clean.cycles),
                report.faults.to_string(),
                report.retries.to_string(),
                report.fallbacks.to_string(),
                report.evicted.len().to_string(),
                format!("{}->{}", stats_u.journal_bytes, stats_d.journal_bytes),
                stats_d.dma_writeback_bytes_elided.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_is_cycle_identical_to_no_plan() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let (_, clean, _) = measure(512, policy, None);
            let (armed, armed_state, _) = measure(512, policy, Some(0.0));
            clean
                .diff(&armed_state)
                .unwrap_or_else(|d| panic!("{}: {d}", policy.name()));
            assert_eq!(armed.faults, 0);
        }
    }

    #[test]
    fn recovery_reproduces_the_faultless_world_under_fire() {
        let (_, clean, _) = measure(512, SchedPolicy::WorkStealing, None);
        let (report, stormy, _) = measure(512, SchedPolicy::WorkStealing, Some(0.10));
        assert!(report.faults > 0, "a 10% rate must inject something");
        assert!(
            report.retries > 0 || report.fallbacks > 0,
            "and something must have recovered"
        );
        clean
            .memory()
            .diff(stormy.memory())
            .unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn overhead_rises_with_the_fault_rate() {
        let (clean, _, _) = measure(512, SchedPolicy::Static, None);
        let (low, _, _) = measure(512, SchedPolicy::Static, Some(0.02));
        let (high, _, _) = measure(512, SchedPolicy::Static, Some(0.10));
        assert!(low.cycles >= clean.cycles);
        assert!(
            high.cycles > clean.cycles,
            "10% faults cannot be free: {} vs {}",
            high.cycles,
            clean.cycles
        );
        assert!(high.faults > low.faults);
    }

    #[test]
    fn runs_are_bit_identical_across_repeats() {
        let (report_a, a, _) = measure(512, SchedPolicy::WorkStealing, Some(0.05));
        let (report_b, b, _) = measure(512, SchedPolicy::WorkStealing, Some(0.05));
        a.diff(&b).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 12, "3 policies x 4 rates");
        assert_eq!(t.columns.len(), 10);
    }

    #[test]
    fn mode_declarations_shrink_recovery_without_changing_the_world() {
        let (undeclared, state_u, _) =
            measure_buffered(512, SchedPolicy::WorkStealing, 0.05, false);
        let (declared, state_d, _) = measure_buffered(512, SchedPolicy::WorkStealing, 0.05, true);
        state_u
            .memory()
            .diff(state_d.memory())
            .unwrap_or_else(|d| panic!("modes must not change the world: {d}"));
        let (stats_u, stats_d) = (state_u.stats(), state_d.stats());
        assert!(
            stats_d.journal_bytes < stats_u.journal_bytes,
            "`write`-declared output skips snapshots: {} vs {}",
            stats_d.journal_bytes,
            stats_u.journal_bytes
        );
        assert!(stats_d.journal_bytes_skipped > 0);
        assert!(
            stats_d.dma_writeback_bytes_elided > 0,
            "the conservative flush must elide under `reads`"
        );
        assert_eq!(stats_u.dma_writeback_bytes_elided, 0);
        assert!(
            declared.cycles < undeclared.cycles,
            "elided flush puts make recovery cheaper: {} vs {}",
            declared.cycles,
            undeclared.cycles
        );
    }
}

//! Surviving a fault storm: deterministic injection, retry, eviction,
//! and host fallback through the fluent builder chain.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```
//!
//! The consoles the paper's teams shipped on treat a flaky DMA or a
//! wedged coprocessor as a fatal bug. This example arms `simcell`'s
//! seeded fault plane — the same machine, the same frame, zero
//! wall-clock nondeterminism — and lets the recovery stack absorb the
//! damage: transient faults retry with a cycle-accounted backoff, dead
//! accelerators are evicted mid-run, and tiles nothing can run degrade
//! to the host at the cost model's honest penalty. Every run finishes
//! with the faultless frame's world bit-for-bit; the storm only costs
//! cycles, and the printout shows exactly how many.

use offload_repro::gamekit::{
    ai_frame_sched, ai_frame_sched_recovering, AiConfig, EntityArray, WorldGen,
};
use offload_repro::offload_rt::prelude::*;
use offload_repro::simcell::MemorySnapshot;

const ENTITIES: u32 = 1024;
const ACCELS: u16 = 6;
const TILES: u32 = 24;

/// Runs one AI frame under `policy`; `rate` arms a uniform fault plan
/// (None = faultless baseline). Returns the report and final world.
fn frame(
    policy: SchedPolicy,
    rate: Option<f32>,
) -> Result<(SchedReport, MemorySnapshot), SimError> {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default())?;
    let entities = EntityArray::alloc(&mut machine, ENTITIES)?;
    let mut gen = WorldGen::new(0xF457);
    gen.populate(&mut machine, &entities, 70.0)?;
    let table = gen.candidate_table(&mut machine, ENTITIES, config.candidates)?;
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
        )?,
        Some(rate) => ai_frame_sched_recovering(
            &mut machine,
            &entities,
            table,
            &config,
            ACCELS,
            TILES,
            policy,
            FaultPlan::uniform(0xF457, rate),
            3,     // retries per transient fault
            1_000, // backoff cycles per retry
        )?,
    };
    assert_eq!(machine.races_detected(), 0);
    Ok((report, machine.memory_snapshot()))
}

fn main() -> Result<(), SimError> {
    println!(
        "AI frame over {ENTITIES} entities, {TILES} tiles on {ACCELS} lanes, \
         under a rising fault storm:\n"
    );
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ShortestQueue,
        SchedPolicy::WorkStealing,
    ] {
        let (clean, clean_world) = frame(policy, None)?;
        println!("  {} (faultless: {} cycles)", policy.name(), clean.cycles);
        println!("    rate    cycles     overhead   faults  retries  fallbacks  evicted");
        for rate in [0.0f32, 0.02, 0.05, 0.10] {
            let (report, world) = frame(policy, Some(rate))?;
            // The anchor invariant: recovery is exact. Retries restart
            // tiles from a clean local-store mark and completed writes
            // overwrite any scribble damage, so the world matches the
            // faultless frame bit-for-bit at every rate.
            clean_world
                .diff(&world)
                .unwrap_or_else(|d| panic!("recovery must be exact: {d}"));
            println!(
                "    {rate:.2}   {:>8}   {:>7.3}x   {:>6}  {:>7}  {:>9}  {:>7}",
                report.cycles,
                report.cycles as f64 / clean.cycles as f64,
                report.faults,
                report.retries,
                report.fallbacks,
                report.evicted.len(),
            );
        }
        println!();
    }

    // The same stack on a synthetic storm so heavy it kills lanes: a
    // death-loaded plan through the raw builder chain. Dead lanes are
    // evicted, their queues redistributed, and when every lane is gone
    // the remaining tiles degrade to host execution.
    let mut machine = Machine::new(MachineConfig::default())?;
    let plan = FaultPlan::new(0xDEAD)
        .with_accel_death(0.35)
        .with_dma_corrupt(0.05);
    let (_, report) = machine
        .offload(0)
        .label("storm tile")
        .faults(plan)
        .sched(SchedPolicy::WorkStealing)
        .accels(4)
        .retry(2)
        .backoff(500)
        .fallback_host()
        .run_tiles(16, |ctx, _tile| {
            ctx.compute(40_000);
            Ok(())
        })?;
    println!(
        "Death-heavy storm (35% launch deaths on 4 lanes, 16 tiles): {} cycles, \
         {} lanes evicted {:?}, {} tiles fell back to the host.",
        report.cycles,
        report.evicted.len(),
        report.evicted,
        report.fallbacks,
    );
    println!(
        "\nSame seed, same storm: re-run this binary and every number above is identical.\n\
         Trace it: cargo run --release -p bench --bin paper_tables -- --trace e2.json\n\
         writes e2-faults.json with the `faults N` lanes (see PROFILING.md)."
    );
    Ok(())
}

//! The staged frame as a streaming pipeline: skinning → collision →
//! resolve, one stage per accelerator, chunks flowing through bounded
//! queues — overlap measured in simulated cycles, world bit-identical
//! to the sequential schedule.
//!
//! ```text
//! cargo run --release --example pipeline_frame
//! ```
//!
//! The paper's teams chained dependent tasks over the same data and
//! paid a full barrier between every pair. This example runs the same
//! three-stage chain both ways: sequentially (stage k streams the whole
//! array before stage k+1 starts) and through `machine.pipeline()`
//! (stage k+1 starts chewing chunk 0 the moment stage k pushes it).
//! Because every stage is an entity-local transform, the worlds match
//! bit for bit — the pipeline's only effect is the overlapped cycles,
//! and the printout shows where the remaining stalls sit (input waits
//! vs backpressure) at each queue depth. A final run arms a fault plan
//! to show recovery keeps the bit-identity guarantee.

use offload_repro::gamekit::{
    stage_fn, staged_frame_pipeline, staged_frame_sequential, EntityArray, WorldGen, FRAME_STAGES,
};
use offload_repro::offload_rt::prelude::*;

const ENTITIES: u32 = 1024;
const CHUNK: u32 = 64;
const WORLD_SEED: u64 = 0xE17;

/// A fresh machine with a populated entity world, identical every call.
fn build_world() -> Result<(Machine, EntityArray), SimError> {
    let mut machine = Machine::new(MachineConfig::default())?;
    let entities = EntityArray::alloc(&mut machine, ENTITIES)?;
    WorldGen::new(WORLD_SEED).populate(&mut machine, &entities, 100.0)?;
    Ok((machine, entities))
}

fn main() -> Result<(), SimError> {
    println!(
        "Staged frame over {ENTITIES} entities, {CHUNK}-entity chunks, \
         three dependent stages:\n"
    );

    // The baseline: stage-by-stage on one accelerator, full barrier
    // between stages.
    let (mut seq_machine, seq_entities) = build_world()?;
    let seq_cycles = staged_frame_sequential(&mut seq_machine, &seq_entities, CHUNK)?;
    let seq_world = seq_machine.memory_snapshot();
    println!("  sequential (1 accel, full barriers): {seq_cycles} cycles\n");

    // The pipeline at increasing queue depths. Shallow queues
    // backpressure the producer; deeper queues drain the stalls until
    // the slowest stage is the only limit.
    println!("  pipeline (3 accels, bounded queues):");
    println!("    buffers   cycles    speedup   input-wait   backpressure");
    for buffers in [1u32, 2, 4] {
        let (mut machine, entities) = build_world()?;
        let report = staged_frame_pipeline(&mut machine, &entities, CHUNK, buffers)?;
        seq_world
            .diff(&machine.memory_snapshot())
            .unwrap_or_else(|d| panic!("the pipeline must produce the sequential world: {d}"));
        println!(
            "    {buffers:>7}   {:>6}   {:>6.3}x   {:>10}   {:>12}",
            report.cycles,
            seq_cycles as f64 / report.cycles as f64,
            report.input_wait_cycles,
            report.backpressure_cycles,
        );
    }

    // Per-stage lane occupancy at the default depth: busy is cycles
    // spent running chunks, idle is everything else (waiting for input,
    // waiting for queue space, waiting for the frame to end).
    let (mut machine, entities) = build_world()?;
    let report = staged_frame_pipeline(&mut machine, &entities, CHUNK, 2)?;
    println!("\n  lane report (buffers = 2):");
    for lane in &report.lanes {
        println!(
            "    accel {} [{:>7}]: {} chunks, {} busy cycles, {} idle",
            lane.accel, lane.name, lane.items, lane.busy, lane.idle
        );
    }

    // The same chain under fire: a seeded fault plan corrupts DMA and
    // wedges tags mid-stream; retries replay chunks from a clean mark
    // and the world still matches the faultless run bit for bit.
    let (mut machine, entities) = build_world()?;
    let (base, len) = (entities.base(), entities.len());
    let mut builder = machine.pipeline();
    for stage in FRAME_STAGES {
        builder = builder.stage_named(stage.name(), stage_fn(stage));
    }
    let stormy = builder
        .chunk(CHUNK)
        .buffers(2)
        .faults(FaultPlan::uniform(WORLD_SEED, 0.03))
        .retry(4)
        .backoff(1_000)
        .fallback_host()
        .run(base, len)?;
    seq_world
        .diff(&machine.memory_snapshot())
        .unwrap_or_else(|d| panic!("recovery must be exact: {d}"));
    assert_eq!(machine.races_detected(), 0);
    println!(
        "\n  under a 3% fault storm: {} cycles ({} faults, {} retries, {} host \
         fallbacks) — world still bit-identical.",
        stormy.cycles, stormy.faults, stormy.retries, stormy.fallbacks,
    );
    println!(
        "\nSame seeds, same schedule: re-run this binary and every number above is \
         identical.\nTrace it: cargo run --release -p bench --bin paper_tables -- --trace e2.json\n\
         writes e2-pipe.json with the `pipe N` lanes (see PROFILING.md)."
    );
    Ok(())
}

//! Trace-driven cache-policy autotuning of a naive AI frame.
//!
//! ```text
//! cargo run --release --example cache_tuner
//! ```
//!
//! The paper (§4.2) ships a *family* of software caches and tells the
//! programmer to pick one by profiling. This example closes that loop
//! mechanically on one Figure-2 AI frame written the worst way possible
//! — every entity, candidate index and candidate target fetched with a
//! blocking outer access:
//!
//! 1. run the naive frame once with access-trace capture enabled,
//! 2. `softcache::autotune` replays the trace through an analytic cost
//!    model for every candidate cache configuration and validates the
//!    top picks by exact simulated replay,
//! 3. re-run the identical frame with the winning cache installed by
//!    the offload builder's `cache` — the measured cycles land
//!    *exactly* on the tuner's replay prediction, and the world state
//!    matches the naive run bit-for-bit.

use offload_repro::gamekit::{ai, AiConfig, EntityArray, GameEntity, WorldGen};
use offload_repro::offload_rt::prelude::*;
use offload_repro::softcache::autotune::{replay_exact, TuneOptions};
use offload_repro::softcache::AccessRecord;

const ENTITIES: u32 = 256;
const WORLD_SEED: u64 = 0xE2;

fn build_world() -> Result<(Machine, EntityArray, Addr), SimError> {
    let mut machine = Machine::new(MachineConfig::small())?;
    let entities = EntityArray::alloc(&mut machine, ENTITIES)?;
    let mut gen = WorldGen::new(WORLD_SEED);
    gen.populate(&mut machine, &entities, 80.0)?;
    let table = gen.candidate_table(&mut machine, ENTITIES, AiConfig::default().candidates)?;
    Ok((machine, entities, table))
}

/// One naive per-entity AI frame: the un-ported inner loop of Figure 2,
/// every access through the offload's installed cache (plain outer
/// accesses when none is installed). Returns the cycles of the access
/// loop (the window the captured trace covers); the end-of-block flush
/// falls outside it.
fn ai_frame(
    ctx: &mut AccelCtx<'_>,
    entities: &EntityArray,
    table: Addr,
    config: &AiConfig,
) -> Result<u64, SimError> {
    let k = config.candidates;
    let t0 = ctx.now();
    for i in 0..entities.len() {
        let mut me: GameEntity = ctx.cached_read_pod(entities.addr_of(i)?)?;
        let mut candidates = Vec::with_capacity(k as usize);
        for j in 0..k {
            let idx: u32 = ctx.cached_read_pod(table.element(i * k + j, 4)?)?;
            let c: GameEntity = ctx.cached_read_pod(entities.addr_of(idx)?)?;
            ctx.compute(config.per_candidate_compute);
            candidates.push((idx, c.pos, c.health));
        }
        ai::decide(&mut me, i, &candidates);
        ctx.compute(config.think_compute);
        ctx.cached_write_pod(entities.addr_of(i)?, &me)?;
    }
    Ok(ctx.now() - t0)
}

fn run_frame(
    choice: CacheChoice,
    capture: bool,
) -> Result<(u64, Vec<AccessRecord>, Vec<GameEntity>), SimError> {
    let (mut machine, entities, table) = build_world()?;
    machine.access_trace_mut().set_enabled(capture);
    let config = AiConfig::default();
    let cycles = machine
        .offload(0)
        .cache(choice)
        .run(|ctx| ai_frame(ctx, &entities, table, &config))??;
    let world = entities.snapshot(&machine)?;
    Ok((cycles, machine.access_trace().records().to_vec(), world))
}

fn main() -> Result<(), SimError> {
    println!("cache_tuner: autotuning one naive Figure-2 AI frame ({ENTITIES} entities)\n");

    // 1. Profile: run naively, capturing the access trace.
    let (naive_cycles, trace, naive_world) = run_frame(CacheChoice::Naive, true)?;
    println!(
        "naive frame: {naive_cycles} cycles, {} recorded accesses",
        trace.len()
    );

    // 2. Tune: model every candidate, exactly replay the top picks.
    let opts = TuneOptions::default();
    let report = autotune(&trace, &opts).expect("candidate space is valid");
    println!("\n{:<22} {:>12} {:>12}", "candidate", "model", "exact");
    for c in report.candidates() {
        match c.exact_cycles {
            Some(exact) => println!(
                "{:<22} {:>12} {:>12}",
                c.choice.to_string(),
                c.model_cycles,
                exact
            ),
            None => println!(
                "{:<22} {:>12} {:>12}",
                c.choice.to_string(),
                c.model_cycles,
                "-"
            ),
        }
    }
    let winner = report.winner();
    let predicted = winner.exact_cycles.expect("winner was validated by replay");
    println!("\nwinner: {} (predicted {predicted} cycles)", winner.choice);

    // The naive run itself must replay bit-identically — the evidence
    // that the trace plus cost model capture everything that matters.
    let naive_replay =
        replay_exact(&CacheChoice::Naive, &trace, &opts).expect("naive replay succeeds");
    assert_eq!(naive_cycles, naive_replay, "naive replay is bit-identical");

    // 3. Apply: re-run the same frame with the tuned cache.
    let (tuned_cycles, _, tuned_world) = run_frame(winner.choice, false)?;
    assert_eq!(
        tuned_cycles, predicted,
        "the tuned run must land exactly on the replay prediction"
    );
    assert_eq!(
        naive_world, tuned_world,
        "the cache must not change what the frame computes"
    );

    println!(
        "tuned frame: {tuned_cycles} cycles — measured == predicted, world state identical, \
         {:.2}x faster than naive",
        naive_cycles as f64 / tuned_cycles as f64
    );
    Ok(())
}

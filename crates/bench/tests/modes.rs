//! Mode-misuse and mode-identity property tests — the CI half of the
//! access-mode redesign's safety claim.
//!
//! Declaring access modes buys cheaper recovery (journal skips, elided
//! write-backs), but only because the runtime *enforces* them: a put
//! outside every declared `write`/`update` range, or a genuine
//! mutation of a `reads`-declared buffer, is an [`SimError::UndeclaredWrite`]
//! and a race note, not a silent scribble. These tests pin the
//! rejection paths, and a seeded [`xrng::Rng`] property test pins the
//! other half of the contract: under random fault seeds and rates,
//! with the full retry/evict/host-fallback recovery stack armed, the
//! mode-annotated frame produces the undeclared frame's world
//! bit-for-bit while journaling no more bytes.

use bench::exp::e16_fault_recovery::{self, measure_buffered};
use gamekit::{ai_frame_sched_recovering_buffered, AiConfig, EntityArray, WorldGen};
use memspace::AccessMode;
use offload_rt::sched::SchedPolicy;
use offload_rt::{ArrayAccessor, RemoteSlice};
use simcell::{
    FaultPlan, LaunchSettings, Machine, MachineConfig, MemorySnapshot, SimError, Snapshot,
};
use xrng::Rng;

const LEN: u32 = 64;

/// A small machine with `LEN` seeded words in main memory.
fn seeded_machine() -> (Machine, memspace::Addr) {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let addr = machine.alloc_main_slice::<u32>(LEN).expect("fits");
    let values: Vec<u32> = (0..LEN).map(|v| v.wrapping_mul(31) ^ 7).collect();
    machine
        .main_mut()
        .write_pod_slice(addr, &values)
        .expect("fits");
    (machine, addr)
}

#[test]
fn put_outside_every_declared_range_is_rejected() {
    let (mut machine, input) = seeded_machine();
    let output = machine.alloc_main_slice::<u32>(LEN).expect("fits");
    // The offload declares its input but forgets the output entirely.
    // The moment any range is declared, the mode set is strict: the
    // output put must be rejected, not silently allowed.
    let result = machine
        .offload(0)
        .label("forgot the output")
        .reads(input, LEN * 4)
        .run(|ctx| {
            let tile = ArrayAccessor::<u32>::fetch(ctx, input, LEN)?;
            let mut out = ArrayAccessor::<u32>::for_output(ctx, output, LEN)?;
            for i in 0..LEN {
                let v = tile.get(ctx, i)?;
                out.set(ctx, i, &v.wrapping_add(1))?;
            }
            out.write_back(ctx)
        })
        .expect("accel 0 exists");
    match result {
        Err(SimError::UndeclaredWrite { declared, .. }) => {
            assert_eq!(declared, None, "the output range was never declared")
        }
        other => panic!("undeclared put must be rejected, got {other:?}"),
    }
    assert!(
        machine.races_detected() > 0,
        "the race analyzer must log the undeclared write"
    );
}

#[test]
fn mutating_a_reads_declared_buffer_is_rejected() {
    let (mut machine, addr) = seeded_machine();
    // The offload swears the buffer is read-only, then genuinely
    // mutates it. The write-back is not elidable — the bytes differ —
    // so the race analyzer rejects it instead of letting the broken
    // declaration corrupt main memory.
    let result = machine
        .offload(0)
        .label("lying reads declaration")
        .reads(addr, LEN * 4)
        .run(|ctx| {
            let mut tile = ArrayAccessor::<u32>::fetch(ctx, addr, LEN)?;
            let v = tile.get(ctx, 3)?;
            tile.set(ctx, 3, &v.wrapping_add(1))?;
            tile.write_back(ctx)
        })
        .expect("accel 0 exists");
    match result {
        Err(SimError::UndeclaredWrite { declared, .. }) => {
            assert_eq!(declared, Some(AccessMode::Read))
        }
        other => panic!("a mutated `reads` buffer must be rejected, got {other:?}"),
    }
    assert!(machine.races_detected() > 0);
    assert_eq!(
        machine.stats().dma_writebacks_elided,
        0,
        "a differing buffer must never be elided"
    );
}

#[test]
fn conservative_flush_of_untouched_reads_buffer_is_elided() {
    let (mut machine, addr) = seeded_machine();
    let before: Vec<u32> = machine.main().read_pod_slice(addr, LEN).expect("fits");
    machine
        .offload(0)
        .label("honest reads declaration")
        .reads(addr, LEN * 4)
        .run(|ctx| {
            let mut tile = ArrayAccessor::<u32>::fetch(ctx, addr, LEN)?;
            // Dirty-but-unchanged: the defensive rewrite stores the
            // value each slot already holds.
            for i in 0..LEN {
                let v = tile.get(ctx, i)?;
                tile.set(ctx, i, &v)?;
            }
            tile.write_back(ctx)
        })
        .expect("accel 0 exists")
        .expect("elided flush succeeds");
    assert_eq!(machine.stats().dma_writebacks_elided, 1);
    assert_eq!(
        machine.stats().dma_writeback_bytes_elided,
        u64::from(LEN) * 4
    );
    assert_eq!(machine.races_detected(), 0);
    let after: Vec<u32> = machine.main().read_pod_slice(addr, LEN).expect("fits");
    assert_eq!(before, after);
}

/// The cycle win of `reads`-declared write-back elision, pinned
/// exactly: a 2,048-word read-only tile whose 8 header slots are
/// stored back with the values they already hold, so the generic
/// epilogue flushes the whole dirty-but-unchanged buffer unless the
/// declaration lets it skip the put.
#[test]
fn mode_elision_cycles_on_a_read_only_tile() {
    const TILE: u32 = 2048;
    let run = |declare: bool| -> (u64, MemorySnapshot) {
        let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
        let remote = machine.alloc_main_slice::<u32>(TILE).expect("fits");
        let values: Vec<u32> = (0..TILE).map(|v| v.wrapping_mul(7)).collect();
        machine
            .main_mut()
            .write_pod_slice(remote, &values)
            .expect("fits");
        let mut builder = machine.offload(0).label("read-only tile");
        if declare {
            builder = builder.reads(remote, TILE * 4);
        }
        let handle = builder
            .spawn(move |ctx| {
                let mut tile = ArrayAccessor::<u32>::fetch(ctx, remote, TILE)?;
                for i in 0..8 {
                    let v = tile.get(ctx, i)?;
                    tile.set(ctx, i, &v)?;
                }
                tile.write_back(ctx)
            })
            .expect("accel 0 exists");
        let elapsed = handle.elapsed();
        machine.join(handle).expect("tile succeeds");
        (elapsed, machine.memory_snapshot())
    };
    let (undeclared, undeclared_world) = run(false);
    let (declared, declared_world) = run(true);
    undeclared_world
        .diff(&declared_world)
        .unwrap_or_else(|d| panic!("eliding the flush must not change a single byte: {d}"));
    assert_eq!(undeclared, 2048, "undeclared: fetch + full write-back");
    assert_eq!(declared, 1072, "declared: fetch only, write-back elided");
}

/// Runs the double-buffered recovering AI frame with a caller-chosen
/// fault seed, with or without mode declarations.
fn buffered_frame(n: u32, seed: u64, rate: f32, declare_modes: bool) -> Snapshot {
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    let out = EntityArray::alloc(&mut machine, n).expect("fits");
    let mut gen = WorldGen::new(seed);
    gen.populate(&mut machine, &entities, 70.0).expect("fits");
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .expect("fits");
    ai_frame_sched_recovering_buffered(
        &mut machine,
        &entities,
        &out,
        table,
        &config,
        e16_fault_recovery::ACCELS,
        e16_fault_recovery::TILES,
        SchedPolicy::WorkStealing,
        FaultPlan::uniform(seed ^ 0xFA11, rate),
        e16_fault_recovery::RETRIES,
        e16_fault_recovery::BACKOFF,
        declare_modes,
    )
    .expect("recovery absorbs every fault");
    assert_eq!(machine.races_detected(), 0);
    machine.snapshot()
}

/// The identity property: for random worlds, fault seeds, and fault
/// rates — retries, evictions, and host fallbacks all in play — mode
/// declarations never change a byte of the world and never journal
/// more than the undeclared run.
#[test]
fn modes_replay_bit_identically_under_random_fault_storms() {
    let mut rng = Rng::new(0x40DE5);
    for round in 0..4 {
        let seed = rng.next_u64();
        let rate = rng.range_u32(0, 12) as f32 / 100.0;
        let n = 64 * rng.range_u32(2, 6);
        let at = format!("round {round} (seed {seed:#x}, rate {rate})");
        let undeclared = buffered_frame(n, seed, rate, false);
        let declared = buffered_frame(n, seed, rate, true);
        undeclared
            .memory()
            .diff(declared.memory())
            .unwrap_or_else(|d| panic!("{at}: modes changed the world: {d}"));
        let (journal_u, journal_d) = (
            undeclared.stats().journal_bytes,
            declared.stats().journal_bytes,
        );
        assert!(
            journal_d <= journal_u,
            "{at}: modes must never journal more ({journal_d} vs {journal_u})"
        );
        // No cycle ordering is asserted: an elided transfer also skips
        // its fault-RNG draw, so the declared run sees a *different*
        // fault schedule and can retry more or less than the
        // undeclared one. What must hold is that its own replay is
        // exact.
        declared
            .diff(&buffered_frame(n, seed, rate, true))
            .unwrap_or_else(|d| panic!("{at}: the declared replay diverged: {d}"));
    }
}

/// The E16 determinism diff the CI gate runs: the mode-annotated storm
/// vs the undeclared baseline at the table's middle rate — equal worlds,
/// strictly fewer journal bytes, and real elided write-backs.
#[test]
fn e16_mode_annotated_storm_matches_undeclared_baseline() {
    let (_, undeclared, _) = measure_buffered(512, SchedPolicy::WorkStealing, 0.05, false);
    let (_, declared, _) = measure_buffered(512, SchedPolicy::WorkStealing, 0.05, true);
    undeclared
        .memory()
        .diff(declared.memory())
        .unwrap_or_else(|d| panic!("the worlds must be equal: {d}"));
    let (stats_u, stats_d) = (undeclared.stats(), declared.stats());
    assert!(
        stats_d.journal_bytes < stats_u.journal_bytes,
        "modes must shrink the journal: {} vs {}",
        stats_d.journal_bytes,
        stats_u.journal_bytes
    );
    assert!(stats_d.journal_snapshots_skipped > 0);
    assert!(stats_d.dma_writeback_bytes_elided > 0);
    assert_eq!(stats_u.dma_writeback_bytes_elided, 0);
}

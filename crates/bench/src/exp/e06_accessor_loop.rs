//! E6 — §4.2: the pointer-chasing `move()` loop and the Array accessor.
//!
//! The paper's motivating loop iterates over a main-memory array of
//! object pointers, virtually calling `move()` on each: "each iteration
//! therefore incurs the latency of two dependent memory transfer
//! operations". Interposing the `Array` accessor bulk-transfers the
//! pointer array; routing the object accesses through a software cache
//! removes most of the rest.

use gamekit::{GameEntity, WorldGen};
use memspace::Addr;
use offload_rt::{ArrayAccessor, RemoteSlice};
use simcell::{Machine, MachineConfig, SimError};
use softcache::{CacheChoice, CacheConfig};

use crate::table::{cycles, speedup, Table};

/// Cycles of compute per `move()` body.
const MOVE_COMPUTE: u64 = 30;

struct Rig {
    machine: Machine,
    /// Array of pointers (byte offsets into main memory) to entities.
    pointer_table: Addr,
    count: u32,
}

fn rig(count: u32) -> Rig {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    // A pool of entities, larger than the pointer table, pointed into
    // in shuffled order (as a real scene graph would).
    let pool = 2 * count;
    let entities = machine
        .alloc_main_slice::<GameEntity>(pool)
        .expect("fits main memory");
    let mut gen = WorldGen::new(0xE6);
    let perm = gen.permutation(pool);
    let pointers: Vec<u32> = perm[..count as usize]
        .iter()
        .map(|&i| {
            entities
                .element(i, GameEntity::STRIDE)
                .expect("in range")
                .offset()
        })
        .collect();
    let pointer_table = machine.alloc_main_slice::<u32>(count).expect("fits");
    machine
        .main_mut()
        .write_pod_slice(pointer_table, &pointers)
        .expect("fits");
    Rig {
        machine,
        pointer_table,
        count,
    }
}

fn apply_move(e: &mut GameEntity) {
    e.pos = e.pos.add(e.vel.scale(1.0 / 60.0));
}

/// Style A: both the pointer table and the objects accessed naively.
fn naive(rig: &mut Rig) -> u64 {
    let table = rig.pointer_table;
    let count = rig.count;
    let handle = rig
        .machine
        .offload(0)
        .spawn(move |ctx| -> Result<(), SimError> {
            for i in 0..count {
                // Transfer 1: the pointer itself.
                let ptr: u32 = ctx.outer_read_pod(table.element(i, 4)?)?;
                let obj = Addr::new(memspace::SpaceId::MAIN, ptr);
                // Transfer 2 (dependent): the object.
                let mut e: GameEntity = ctx.outer_read_pod(obj)?;
                apply_move(&mut e);
                ctx.compute(MOVE_COMPUTE);
                ctx.outer_write_pod(obj, &e)?;
            }
            Ok(())
        })
        .expect("accel 0 exists");
    let elapsed = handle.elapsed();
    rig.machine.join(handle).expect("runs");
    elapsed
}

/// Style B: the paper's fix — `Array` accessor for the pointer table.
fn pointer_accessor(rig: &mut Rig) -> u64 {
    let table = rig.pointer_table;
    let count = rig.count;
    let handle = rig
        .machine
        .offload(0)
        .spawn(move |ctx| -> Result<(), SimError> {
            let pointers = ArrayAccessor::<u32>::fetch(ctx, table, count)?;
            for i in 0..count {
                let ptr = pointers.get(ctx, i)?;
                let obj = Addr::new(memspace::SpaceId::MAIN, ptr);
                let mut e: GameEntity = ctx.outer_read_pod(obj)?;
                apply_move(&mut e);
                ctx.compute(MOVE_COMPUTE);
                ctx.outer_write_pod(obj, &e)?;
            }
            Ok(())
        })
        .expect("accel 0 exists");
    let elapsed = handle.elapsed();
    rig.machine.join(handle).expect("runs");
    elapsed
}

/// Style C: accessor for the pointers plus a software cache for the
/// objects.
fn accessor_plus_cache(rig: &mut Rig) -> u64 {
    let table = rig.pointer_table;
    let count = rig.count;
    let handle = rig
        .machine
        .offload(0)
        .cache(CacheChoice::SetAssoc(CacheConfig::four_way_16k()))
        .spawn(move |ctx| -> Result<(), SimError> {
            let pointers = ArrayAccessor::<u32>::fetch(ctx, table, count)?;
            for i in 0..count {
                let ptr = pointers.get(ctx, i)?;
                let obj = Addr::new(memspace::SpaceId::MAIN, ptr);
                let mut e: GameEntity = ctx.cached_read_pod(obj)?;
                apply_move(&mut e);
                ctx.compute(MOVE_COMPUTE);
                ctx.cached_write_pod(obj, &e)?;
            }
            Ok(())
        })
        .expect("accel 0 exists");
    let elapsed = handle.elapsed();
    rig.machine.join(handle).expect("runs");
    elapsed
}

/// `(naive, accessor, accessor+cache)` cycles for `n` objects.
pub fn measure(n: u32) -> (u64, u64, u64) {
    (
        naive(&mut rig(n)),
        pointer_accessor(&mut rig(n)),
        accessor_plus_cache(&mut rig(n)),
    )
}

/// Runs E6.
pub fn run(quick: bool) -> Table {
    let sweeps: &[u32] = if quick { &[128] } else { &[64, 256, 1024] };
    let mut table = Table::new(
        "E6",
        "The move() loop: naive outer access vs Array accessor (Sec. 4.2)",
        "dereferencing the pointer array costs one high-latency transfer per iteration, plus a \
         dependent one for the object; the Array accessor bulk-transfers the pointer array \
         (paper Sec. 4.2)",
        vec![
            "objects",
            "naive",
            "ptr accessor",
            "accessor+cache",
            "accessor vs naive",
            "cache vs naive",
        ],
    );
    for &n in sweeps {
        let (naive, accessor, cached) = measure(n);
        table.push_row(vec![
            n.to_string(),
            cycles(naive),
            cycles(accessor),
            cycles(cached),
            speedup(naive, accessor),
            speedup(naive, cached),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_each_optimisation_step_wins() {
        let (naive, accessor, cached) = measure(256);
        assert!(
            accessor < naive,
            "accessor removes a transfer per iteration: {accessor} vs {naive}"
        );
        assert!(
            cached < accessor,
            "the object cache removes more: {cached} vs {accessor}"
        );
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.columns.len(), 6);
    }
}

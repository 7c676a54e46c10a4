//! The staged frame: skinning → collision → resolve as a pipeline.
//!
//! The paper's frame loop offloads *distinct* tasks; this module carves
//! one task chain into *dependent* per-entity stages so the streaming
//! pipeline ([`offload_rt::pipeline`]) has a game-shaped workload to
//! chew on:
//!
//! 1. **Skinning** ([`FrameStage::Skin`]): advance the pose — integrate
//!    position by velocity and damp the animation blend.
//! 2. **Collision** ([`FrameStage::Collide`]): test the skinned pose
//!    against the world bounds, reflecting velocity and clamping the
//!    position on contact.
//! 3. **Resolve** ([`FrameStage::Resolve`]): apply the contact response
//!    — chip health on impact, settle the AI state.
//!
//! Every stage is an *entity-local* transform (entity `i`'s output
//!  depends only on entity `i`'s input), so any chunking of the entity
//! array — sequential stage-by-stage, tile fan-out with barriers, or
//! the overlapped pipeline — produces the bit-identical world; only the
//! simulated cycle counts differ. That property is what E17 and the
//! pipeline determinism gate in CI assert.
//!
//! Per-entity costs are charged explicitly ([`FrameStage::cost`]),
//! sized like the paper's tasks: complex processing on hundreds to
//! thousands of objects, heavy enough that transfer and launch overhead
//! can actually be hidden behind compute.

use memspace::Pod;
use offload_rt::pipeline::MachinePipelineExt;
use offload_rt::sched::{SchedExt, SchedPolicy};
use offload_rt::stream::{process_stream, StreamConfig};
use offload_rt::{PipeReport, SchedReport};
use simcell::{AccelCtx, Machine, SimError};

use crate::entity::{state, EntityArray, GameEntity};

/// Frame timestep the skinning stage integrates by.
pub const FRAME_DT: f32 = 1.0 / 60.0;

/// Half-extent of the world box the collision stage tests against.
pub const WORLD_HALF: f32 = 50.0;

/// The dependent stages of the staged frame, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameStage {
    /// Pose integration (animation/skinning).
    Skin,
    /// World-bounds collision test and reflection.
    Collide,
    /// Contact response: health and AI state settlement.
    Resolve,
}

/// All stages, in the order the frame runs them.
pub const FRAME_STAGES: [FrameStage; 3] =
    [FrameStage::Skin, FrameStage::Collide, FrameStage::Resolve];

impl FrameStage {
    /// The stage's trace label.
    pub fn name(self) -> &'static str {
        match self {
            FrameStage::Skin => "skin",
            FrameStage::Collide => "collide",
            FrameStage::Resolve => "resolve",
        }
    }

    /// Simulated compute cycles the stage charges per entity (the
    /// "complex processing" the paper's tasks do between transfers).
    pub fn cost(self) -> u64 {
        match self {
            FrameStage::Skin => 220,
            FrameStage::Collide => 180,
            FrameStage::Resolve => 160,
        }
    }

    /// Applies the stage's transform to one entity. Entity-local and
    /// bit-deterministic: fixed-order `f32` arithmetic on this entity
    /// alone, so any chunking/ordering of the array yields the same
    /// world.
    pub fn apply(self, e: &mut GameEntity) {
        match self {
            FrameStage::Skin => {
                e.pos = e.pos.add(e.vel.scale(FRAME_DT));
                // Damp the blend the way an animation mixer settles.
                e.vel = e.vel.scale(0.995);
                e.pad[0] = 0;
            }
            FrameStage::Collide => {
                let mut hit = 0u32;
                let limit = WORLD_HALF - e.radius;
                let axes = [
                    (&mut e.pos.x, &mut e.vel.x),
                    (&mut e.pos.y, &mut e.vel.y),
                    (&mut e.pos.z, &mut e.vel.z),
                ];
                for (p, v) in axes {
                    if *p > limit {
                        *p = limit;
                        *v = -*v;
                        hit += 1;
                    } else if *p < -limit {
                        *p = -limit;
                        *v = -*v;
                        hit += 1;
                    }
                }
                // Stash the contact count for the resolve stage.
                e.pad[0] = hit;
            }
            FrameStage::Resolve => {
                let hits = e.pad[0];
                if hits > 0 {
                    // Impact chip proportional to speed, one per axis hit.
                    let speed_sq = e.vel.length_sq();
                    e.health -= hits as f32 * (0.01 * speed_sq + 0.1);
                    e.state = if e.health < 15.0 {
                        state::FLEE
                    } else {
                        state::SEEK
                    };
                } else if e.state == state::SEEK && e.vel.length_sq() < 0.25 {
                    e.state = state::IDLE;
                }
                e.pad[0] = 0;
            }
        }
    }
}

/// The stage as a streaming closure: applies [`FrameStage::apply`] to
/// every entity in the chunk and charges [`FrameStage::cost`] cycles
/// per entity — the shape both [`process_stream`] and the pipeline
/// builder take.
pub fn stage_fn(
    stage: FrameStage,
) -> impl FnMut(&mut AccelCtx<'_>, u32, &mut [GameEntity]) -> Result<(), SimError> {
    move |ctx, _, chunk| {
        for e in chunk.iter_mut() {
            stage.apply(e);
        }
        ctx.compute(stage.cost() * chunk.len() as u64);
        Ok(())
    }
}

/// Runs the staged frame sequentially: one offload per stage on
/// accelerator 0, each streaming the whole entity array before the
/// next stage starts — the baseline the pipeline's overlap is measured
/// against. Returns the host cycles the frame took.
///
/// # Errors
///
/// Propagates machine and transfer errors.
pub fn staged_frame_sequential(
    machine: &mut Machine,
    entities: &EntityArray,
    chunk_elems: u32,
) -> Result<u64, SimError> {
    let t0 = machine.host_now();
    let (base, len) = (entities.base(), entities.len());
    // Match the pipeline's half-chunk double buffering so the only
    // difference is the overlap, not the transfer schedule.
    let config = StreamConfig {
        chunk_elems: (chunk_elems / 2).max(1),
        write_back: true,
    };
    for stage in FRAME_STAGES {
        machine.offload(0).label(stage.name()).run(|ctx| {
            process_stream::<GameEntity, _>(ctx, base, len, config, stage_fn(stage))
        })??;
    }
    Ok(machine.host_now() - t0)
}

/// Runs the staged frame through the streaming pipeline: stage `k` on
/// accelerator `k`, chunks of `chunk_elems` entities flowing through
/// bounded queues `buffers` deep.
///
/// # Errors
///
/// Propagates machine and transfer errors; [`SimError::BadConfig`] if
/// the machine has fewer than three accelerators.
pub fn staged_frame_pipeline(
    machine: &mut Machine,
    entities: &EntityArray,
    chunk_elems: u32,
    buffers: u32,
) -> Result<PipeReport, SimError> {
    let (base, len) = (entities.base(), entities.len());
    machine
        .pipeline()
        .stage_named(FrameStage::Skin.name(), stage_fn(FrameStage::Skin))
        .stage_named(FrameStage::Collide.name(), stage_fn(FrameStage::Collide))
        .stage_named(FrameStage::Resolve.name(), stage_fn(FrameStage::Resolve))
        .chunk(chunk_elems)
        .buffers(buffers)
        .run(base, len)
}

/// Runs the staged frame as barriered tile fan-outs: each stage is
/// split into one tile per accelerator across *all* lanes, and the
/// next stage starts only after the previous one fully joins (stages
/// are dependent, so the barrier is mandatory). Returns the host
/// cycles plus the last stage's [`SchedReport`].
///
/// # Errors
///
/// Propagates machine and scheduler errors.
pub fn staged_frame_fanout(
    machine: &mut Machine,
    entities: &EntityArray,
    chunk_elems: u32,
) -> Result<(u64, SchedReport), SimError> {
    let t0 = machine.host_now();
    let (base, len) = (entities.base(), entities.len());
    let lanes = u32::from(machine.accel_count());
    let tiles = len.div_ceil(chunk_elems).min(lanes).max(1);
    let per_tile = len.div_ceil(tiles);
    let config = StreamConfig {
        chunk_elems: (chunk_elems / 2).max(1),
        write_back: true,
    };
    let mut last = None;
    for stage in FRAME_STAGES {
        let mut f = stage_fn(stage);
        let (_, report) = machine
            .offload(0)
            .label(stage.name())
            .sched(SchedPolicy::Static)
            .run_tiles(tiles, |ctx, tile| {
                let first = tile * per_tile;
                let n = per_tile.min(len - first);
                let remote = base.element(first, GameEntity::SIZE as u32)?;
                process_stream::<GameEntity, _>(ctx, remote, n, config, |ctx, off, slice| {
                    f(ctx, first + off, slice)
                })
            })?;
        last = Some(report);
    }
    let report = last.expect("FRAME_STAGES is non-empty");
    Ok((machine.host_now() - t0, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorldGen;
    use simcell::MachineConfig;

    fn world(n: u32) -> (Machine, EntityArray) {
        let mut m = Machine::new(MachineConfig::default()).unwrap();
        let arr = EntityArray::alloc(&mut m, n).unwrap();
        WorldGen::new(42)
            .populate(&mut m, &arr, 2.0 * WORLD_HALF)
            .unwrap();
        (m, arr)
    }

    #[test]
    fn all_three_schedules_agree_bit_for_bit() {
        let (mut seq, e1) = world(512);
        staged_frame_sequential(&mut seq, &e1, 64).unwrap();
        let (mut pipe, e2) = world(512);
        staged_frame_pipeline(&mut pipe, &e2, 64, 2).unwrap();
        let (mut fan, e3) = world(512);
        staged_frame_fanout(&mut fan, &e3, 64).unwrap();
        let seq = seq.memory_snapshot();
        for (schedule, m) in [("pipeline", pipe), ("fan-out", fan)] {
            seq.diff(&m.memory_snapshot())
                .unwrap_or_else(|d| panic!("{schedule} vs sequential: {d}"));
        }
    }

    #[test]
    fn pipeline_overlap_beats_sequential() {
        let (mut seq, e1) = world(1024);
        let seq_cycles = staged_frame_sequential(&mut seq, &e1, 64).unwrap();
        let (mut pipe, e2) = world(1024);
        let report = staged_frame_pipeline(&mut pipe, &e2, 64, 2).unwrap();
        assert!(
            (report.cycles as f64) * 1.3 <= seq_cycles as f64,
            "overlap must win by 1.3x: pipeline {} vs sequential {seq_cycles}",
            report.cycles
        );
    }

    #[test]
    fn stages_actually_do_something() {
        let (mut m, arr) = world(64);
        let before = arr.snapshot(&m).unwrap();
        staged_frame_sequential(&mut m, &arr, 32).unwrap();
        let after = arr.snapshot(&m).unwrap();
        assert_ne!(before, after, "the frame must move the world");
        // Collisions happen in a world populated out to the walls.
        assert!(
            after.iter().any(|e| e.state != state::IDLE),
            "some entity should have settled into a non-idle state"
        );
        assert!(after.iter().all(|e| e.pad[0] == 0), "scratch cleared");
    }

    #[test]
    fn collision_reflects_and_clamps() {
        let mut e = GameEntity {
            pos: crate::math::Vec3::new(WORLD_HALF + 1.0, 0.0, 0.0),
            vel: crate::math::Vec3::new(3.0, 0.0, 0.0),
            radius: 1.0,
            health: 50.0,
            ..GameEntity::default()
        };
        FrameStage::Collide.apply(&mut e);
        assert_eq!(e.pad[0], 1);
        assert_eq!(e.pos.x, WORLD_HALF - 1.0);
        assert_eq!(e.vel.x, -3.0);
        FrameStage::Resolve.apply(&mut e);
        assert!(e.health < 50.0);
        assert_eq!(e.state, state::SEEK);
        assert_eq!(e.pad[0], 0);
    }
}

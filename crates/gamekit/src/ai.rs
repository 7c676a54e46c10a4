//! The offloadable AI strategy task (paper §4.1, Figure 2).
//!
//! "It took 1 developer 2 months to offload the very complex existing
//! AI code of a AAA game to SPU, with ~200 lines of additional code
//! resulting in a ~50% performance increase." This module is that task
//! at reproduction scale: a per-entity strategy computation (scan
//! candidate targets, pick one, choose a state, steer) that exists in a
//! host form ([`ai_frame_host`]) and an offloaded form
//! ([`ai_frame_offloaded`]) whose *additions* are exactly the
//! memory-space plumbing — accessors in, bulk write-back out — the
//! paper describes.
//!
//! The decision function only reads candidates' positions and health
//! and only writes the deciding entity's velocity/state/target, so the
//! sequential host order and the snapshot-based offloaded order compute
//! identical results (asserted in tests).

use memspace::Addr;
use offload_rt::sched::{SchedExt, SchedPolicy, SchedReport};
use offload_rt::{ArrayAccessor, RemoteSlice};
use simcell::{AccelCtx, FaultPlan, LaunchSettings, Machine, RecoverySettings, SimError};

use crate::entity::{state, EntityArray, GameEntity};
use crate::math::Vec3;

/// Tuning knobs of the AI task.
#[derive(Clone, Copy, Debug)]
pub struct AiConfig {
    /// Candidate targets considered per entity.
    pub candidates: u32,
    /// Cycles of pure "thinking" per entity (behaviour-tree traversal,
    /// scoring, etc.).
    pub think_compute: u64,
    /// Cycles per candidate evaluated (distance math + compare).
    pub per_candidate_compute: u64,
}

impl Default for AiConfig {
    fn default() -> AiConfig {
        AiConfig {
            candidates: 8,
            think_compute: 150,
            per_candidate_compute: 12,
        }
    }
}

/// Squared distance below which an entity attacks.
const ATTACK_RANGE_SQ: f32 = 25.0;
/// Health below which an entity flees.
const FLEE_HEALTH: f32 = 25.0;

/// The pure strategy decision for one entity.
///
/// `candidates` holds `(index, position, health)` of each considered
/// target. Mutates only `vel`, `state` and `target` of `me`.
pub fn decide(me: &mut GameEntity, my_index: u32, candidates: &[(u32, Vec3, f32)]) {
    let mut best: Option<(u32, f32, Vec3)> = None;
    for &(idx, pos, health) in candidates {
        if idx == my_index || health <= 0.0 {
            continue;
        }
        let d = me.pos.distance_sq(pos);
        if best.is_none_or(|(_, bd, _)| d < bd) {
            best = Some((idx, d, pos));
        }
    }
    match best {
        None => {
            me.state = state::IDLE;
            me.vel = Vec3::ZERO;
        }
        Some((idx, dist_sq, pos)) => {
            me.target = idx;
            let toward = pos.sub(me.pos).normalized();
            if me.health < FLEE_HEALTH {
                me.state = state::FLEE;
                me.vel = toward.scale(-3.0);
            } else if dist_sq < ATTACK_RANGE_SQ {
                me.state = state::ATTACK;
                me.vel = toward.scale(2.0);
            } else {
                me.state = state::SEEK;
                me.vel = toward.scale(1.5);
            }
        }
    }
}

/// Runs one AI frame on the host.
///
/// Per entity: load it, load its candidate indices from the candidate
/// table, load each candidate, decide, store — every access through the
/// host's charged memory path.
///
/// # Errors
///
/// Fails on bounds violations.
pub fn ai_frame_host(
    machine: &mut Machine,
    entities: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
) -> Result<(), SimError> {
    let n = entities.len();
    let k = config.candidates;
    for i in 0..n {
        let mut me = entities.host_load(machine, i)?;
        let idx_addr = candidate_table.element(i * k, 4)?;
        let indices = machine.host_read_slice::<u32>(idx_addr, k)?;
        let mut candidates = Vec::with_capacity(k as usize);
        for idx in indices {
            let c = entities.host_load(machine, idx)?;
            machine.host_compute(config.per_candidate_compute);
            candidates.push((idx, c.pos, c.health));
        }
        decide(&mut me, i, &candidates);
        machine.host_compute(config.think_compute);
        entities.host_store(machine, i, &me)?;
    }
    Ok(())
}

/// Runs one AI frame on an accelerator.
///
/// The "≈200 additional lines" of the paper's port are exactly what this
/// function adds over [`ai_frame_host`]: a bulk [`ArrayAccessor`] fetch
/// of the entity array and the candidate table into local store, local
/// accesses in the loop, and one bulk write-back. The decision logic is
/// shared, unmodified.
///
/// # Errors
///
/// Fails if the working set does not fit the local store (use more,
/// smaller offloads at larger entity counts), or on transfer failures.
pub fn ai_frame_offloaded(
    ctx: &mut AccelCtx<'_>,
    entities: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
) -> Result<(), SimError> {
    let n = entities.len();
    let k = config.candidates;
    let mut local = ArrayAccessor::<GameEntity>::fetch(ctx, entities.base(), n)?;
    let table = ArrayAccessor::<u32>::fetch(ctx, candidate_table, n * k)?;
    for i in 0..n {
        let mut me = local.get(ctx, i)?;
        let mut candidates = Vec::with_capacity(k as usize);
        for j in 0..k {
            let idx = table.get(ctx, i * k + j)?;
            let c = local.get(ctx, idx)?;
            ctx.compute(config.per_candidate_compute);
            candidates.push((idx, c.pos, c.health));
        }
        decide(&mut me, i, &candidates);
        ctx.compute(config.think_compute);
        local.set(ctx, i, &me)?;
    }
    local.write_back(ctx)
}

/// Runs one AI frame tiled across `accels` accelerators.
///
/// Each accelerator bulk-fetches the (read-only) entity array plus its
/// slice of the candidate table, decides for its own slice of entities,
/// and writes back *only that slice* — the data-parallel decomposition
/// game teams use once one SPE is not enough. All offloads are launched
/// before any is joined, so they overlap; the host time from first
/// launch to last join is returned.
///
/// Results are bit-identical to [`ai_frame_offloaded`]: decisions read
/// only position/health (which the AI never writes), so tile order
/// cannot matter.
///
/// This is [`ai_frame_sched`] under [`SchedPolicy::Static`] with one
/// tile per accelerator — the cycle accounting is bit-identical to the
/// hand-rolled launch-all-then-join-all loop it replaced.
///
/// # Errors
///
/// Fails if `accels` is zero or exceeds the machine, or if a tile does
/// not fit the local store.
pub fn ai_frame_offloaded_tiled(
    machine: &mut Machine,
    entities: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
    accels: u16,
) -> Result<u64, SimError> {
    let report = ai_frame_sched(
        machine,
        entities,
        candidate_table,
        config,
        accels,
        u32::from(accels),
        SchedPolicy::Static,
        &[],
    )?;
    Ok(report.cycles)
}

/// Runs one AI frame as `tiles` tiles dispatched by a scheduler
/// policy over the first `accels` accelerators.
///
/// Each tile bulk-fetches the (read-only) entity array plus its slice
/// of the candidate table, decides for its own slice of entities, and
/// writes back only that slice; `extra` optionally charges tile `t` an
/// additional `extra[t]` cycles of synthetic work *before* its real
/// work (the E15 skewed-cost experiment uses this to model the hot
/// tiles — pathfinding-heavy regions, crowded cells — a real frame
/// contains). With `tiles == accels`, [`SchedPolicy::Static`] and no
/// extras this is exactly [`ai_frame_offloaded_tiled`].
///
/// World results are policy-independent: decisions read only
/// position/health (which the AI never writes), so tile placement
/// cannot matter — only the cycle accounting moves.
///
/// # Errors
///
/// Fails if `accels` is zero or exceeds the machine, or if a tile does
/// not fit the local store.
#[allow(clippy::too_many_arguments)] // an experiment entry point: all knobs are the point
pub fn ai_frame_sched(
    machine: &mut Machine,
    entities: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
    accels: u16,
    tiles: u32,
    policy: SchedPolicy,
    extra: &[u64],
) -> Result<SchedReport, SimError> {
    let sched = machine
        .offload(0)
        .label("ai tile")
        .sched(policy)
        .accels(accels);
    let body = ai_tile(entities, None, candidate_table, config, tiles, extra);
    let (_, report) = sched.run_tiles(tiles, body)?;
    Ok(report)
}

/// Runs one AI frame as scheduled tiles under an armed fault plan —
/// the E16 workload: [`ai_frame_sched`]'s tile body behind the
/// recovery layer (`retries`/`backoff` per transient fault, dead-lane
/// eviction, host fallback for whatever is left).
///
/// World results still match the fault-free frame bit-for-bit: every
/// retried tile restarts from a clean local-store mark and re-fetches
/// its inputs, and host-fallback tiles run the same body with faults
/// suppressed.
///
/// # Errors
///
/// As for [`ai_frame_sched`], and if the scheduler refuses `plan`,
/// `retries` or `backoff` (see [`simcell::Launch::arm`]); with the host
/// fallback armed, injected faults never surface as errors.
#[allow(clippy::too_many_arguments)] // an experiment entry point: all knobs are the point
pub fn ai_frame_sched_recovering(
    machine: &mut Machine,
    entities: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
    accels: u16,
    tiles: u32,
    policy: SchedPolicy,
    plan: FaultPlan,
    retries: u32,
    backoff: u64,
) -> Result<SchedReport, SimError> {
    let sched = machine
        .offload(0)
        .label("ai tile")
        .faults(plan)
        .sched(policy)
        .accels(accels)
        .retry(retries)
        .backoff(backoff)
        .fallback_host();
    let body = ai_tile(entities, None, candidate_table, config, tiles, &[]);
    let (_, report) = sched.run_tiles(tiles, body)?;
    Ok(report)
}

/// The tile kernel of every scheduled AI frame, which differ only in
/// the launch their scheduler carries and in this kernel's knobs: tile
/// `t` of `tiles` first charges `extra[t]` cycles, then decides for its
/// slice of `input` and writes the decisions into the same slice of
/// `out`, or back into `input` when `out` is `None`. A separate `out`
/// is the double-buffered frame, whose tiles also run a defensive
/// sanitize pass over their candidate-table slice and flush it at the
/// end.
fn ai_tile<'a>(
    input: &'a EntityArray,
    out: Option<&'a EntityArray>,
    candidate_table: Addr,
    config: &'a AiConfig,
    tiles: u32,
    extra: &'a [u64],
) -> impl FnMut(&mut AccelCtx<'_>, u32) -> Result<(), SimError> + 'a {
    let n = input.len();
    let k = config.candidates;
    move |ctx, tile| {
        if let Some(&cost) = extra.get(tile as usize) {
            ctx.compute(cost);
        }
        let begin = n * tile / tiles;
        let end = n * (tile + 1) / tiles;
        let all = ArrayAccessor::<GameEntity>::fetch(ctx, input.base(), n)?;
        let count = end - begin;
        if count == 0 {
            return Ok(());
        }
        let mut table_slice =
            ArrayAccessor::<u32>::fetch(ctx, candidate_table.element(begin * k, 4)?, count * k)?;
        if out.is_some() {
            // Clamp every candidate index into range. On a valid table
            // this rewrites each slot with the value it already holds —
            // the buffer ends dirty but unchanged.
            for j in 0..count * k {
                let idx = table_slice.get(ctx, j)?;
                table_slice.set(ctx, j, &idx.min(n - 1))?;
            }
        }
        let target = out.unwrap_or(input).addr_of(begin)?;
        let mut decisions = ArrayAccessor::<GameEntity>::for_output(ctx, target, count)?;
        for i in 0..count {
            let mut me = all.get(ctx, begin + i)?;
            let mut candidates = Vec::with_capacity(k as usize);
            for j in 0..k {
                let idx = table_slice.get(ctx, i * k + j)?;
                let c = all.get(ctx, idx)?;
                ctx.compute(config.per_candidate_compute);
                candidates.push((idx, c.pos, c.health));
            }
            decide(&mut me, begin + i, &candidates);
            ctx.compute(config.think_compute);
            decisions.set(ctx, i, &me)?;
        }
        // The conservative flush of a sanitized slice: without
        // declarations this is a real put; with `reads(table)` it is
        // elided (and a table that actually changed would be an
        // undeclared write). A clean slice flushes nothing.
        table_slice.write_back(ctx)?;
        decisions.write_back(ctx)
    }
}

/// Runs one AI frame as recovering scheduled tiles in *double-buffered*
/// form — the access-mode showcase of E16.
///
/// The frame reads `entities_in` and the candidate table, and writes
/// every decision into the separate `out` array (frame N reads, frame
/// N+1 receives — the double-buffered component-array idiom). Each tile
/// also runs a defensive sanitize pass over its candidate-table slice
/// (clamping indices in place) and conservatively flushes the slice at
/// the end, because generic engine code cannot know the pass was a
/// no-op.
///
/// With `declare_modes` the offload declares what it actually does —
/// `entities_in` and the table are `read`, `out` is `write` — and every
/// layer spends the declaration:
///
/// - the conservative table flush is **elided** (the slice is
///   byte-identical to main memory, so the put never issues);
/// - the put journal **skips** pre-image snapshots for `out` (a
///   `write` range is fully rewritten by any retry, so rollback is
///   unnecessary by declaration);
/// - a store outside the declared ranges would be rejected as
///   [`SimError::UndeclaredWrite`] before a byte moved.
///
/// Without it, the same body pays the legacy price: the flush is a real
/// DMA put and every put under a noisy plan journals its pre-image.
/// Both runs produce bit-identical worlds at every fault rate; the
/// declarations change only what the machine has to do to guarantee it.
///
/// # Errors
///
/// As for [`ai_frame_sched_recovering`]; additionally fails if `out`
/// is smaller than `entities_in`.
#[allow(clippy::too_many_arguments)] // an experiment entry point: all knobs are the point
pub fn ai_frame_sched_recovering_buffered(
    machine: &mut Machine,
    entities_in: &EntityArray,
    out: &EntityArray,
    candidate_table: Addr,
    config: &AiConfig,
    accels: u16,
    tiles: u32,
    policy: SchedPolicy,
    plan: FaultPlan,
    retries: u32,
    backoff: u64,
    declare_modes: bool,
) -> Result<SchedReport, SimError> {
    if out.len() < entities_in.len() {
        return Err(SimError::BadConfig {
            reason: format!(
                "output array holds {} entities, input has {}",
                out.len(),
                entities_in.len()
            ),
        });
    }
    let n = entities_in.len();
    let k = config.candidates;
    let mut sched = machine
        .offload(0)
        .label("ai tile")
        .faults(plan)
        .sched(policy)
        .accels(accels)
        .retry(retries)
        .backoff(backoff)
        .fallback_host();
    if declare_modes {
        sched = sched
            .reads(entities_in.base(), n * GameEntity::STRIDE)
            .reads(candidate_table, n * k * 4)
            .writes(out.base(), n * GameEntity::STRIDE);
    }
    let body = ai_tile(entities_in, Some(out), candidate_table, config, tiles, &[]);
    let (_, report) = sched.run_tiles(tiles, body)?;
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // building test fixtures field-by-field reads best
mod tests {
    use super::*;
    use crate::workload::WorldGen;
    use simcell::{Machine, MachineConfig};

    fn setup(n: u32, seed: u64) -> (Machine, EntityArray, Addr) {
        let mut machine = Machine::new(MachineConfig::small()).unwrap();
        let entities = EntityArray::alloc(&mut machine, n).unwrap();
        let mut gen = WorldGen::new(seed);
        gen.populate(&mut machine, &entities, 80.0).unwrap();
        let table = gen
            .candidate_table(&mut machine, n, AiConfig::default().candidates)
            .unwrap();
        (machine, entities, table)
    }

    #[test]
    fn decide_picks_the_nearest_living_candidate() {
        let mut me = GameEntity::default();
        me.pos = Vec3::ZERO;
        me.health = 100.0;
        let candidates = vec![
            (1, Vec3::new(10.0, 0.0, 0.0), 50.0),
            (2, Vec3::new(3.0, 0.0, 0.0), 50.0),
            (3, Vec3::new(1.0, 0.0, 0.0), 0.0), // dead, skipped
        ];
        decide(&mut me, 0, &candidates);
        assert_eq!(me.target, 2);
        assert_eq!(me.state, state::ATTACK, "3 < attack range 5");
        assert!(me.vel.x > 0.0, "moving toward the target");
    }

    #[test]
    fn decide_seeks_when_far_and_flees_when_hurt() {
        let mut me = GameEntity::default();
        me.health = 100.0;
        let far = vec![(1, Vec3::new(50.0, 0.0, 0.0), 50.0)];
        decide(&mut me, 0, &far);
        assert_eq!(me.state, state::SEEK);

        me.health = 10.0;
        decide(&mut me, 0, &far);
        assert_eq!(me.state, state::FLEE);
        assert!(me.vel.x < 0.0, "fleeing away");
    }

    #[test]
    fn decide_idles_without_candidates() {
        let mut me = GameEntity::default();
        me.state = state::SEEK;
        decide(&mut me, 0, &[(0, Vec3::ZERO, 100.0)]); // only itself
        assert_eq!(me.state, state::IDLE);
        assert_eq!(me.vel, Vec3::ZERO);
    }

    #[test]
    fn host_and_offloaded_compute_identical_frames() {
        let config = AiConfig::default();
        let (mut m1, e1, t1) = setup(256, 11);
        ai_frame_host(&mut m1, &e1, t1, &config).unwrap();
        let host_result = e1.snapshot(&m1).unwrap();

        let (mut m2, e2, t2) = setup(256, 11);
        m2.offload(0)
            .run(|ctx| ai_frame_offloaded(ctx, &e2, t2, &config))
            .unwrap()
            .unwrap();
        let offl_result = e2.snapshot(&m2).unwrap();
        assert_eq!(host_result, offl_result);
        assert_eq!(m2.races_detected(), 0);
    }

    #[test]
    fn offloaded_ai_is_faster_by_roughly_the_papers_factor() {
        // The paper reports ~50% performance increase (~1.5x).
        let config = AiConfig::default();
        let (mut m1, e1, t1) = setup(1024, 11);
        let t0 = m1.host_now();
        ai_frame_host(&mut m1, &e1, t1, &config).unwrap();
        let host_cycles = m1.host_now() - t0;

        let (mut m2, e2, t2) = setup(1024, 11);
        let handle = m2
            .offload(0)
            .spawn(|ctx| ai_frame_offloaded(ctx, &e2, t2, &config))
            .unwrap();
        let offl_cycles = handle.elapsed();
        m2.join(handle).unwrap();

        let speedup = host_cycles as f64 / offl_cycles as f64;
        assert!(
            speedup > 1.2 && speedup < 4.0,
            "expected a moderate (paper: ~1.5x) speedup, got {speedup:.2}x \
             ({host_cycles} vs {offl_cycles})"
        );
    }

    #[test]
    fn tiled_ai_matches_single_accelerator_results() {
        let config = AiConfig::default();
        let build = |n: u32| {
            let mut machine = Machine::new(MachineConfig::default()).unwrap();
            let entities = EntityArray::alloc(&mut machine, n).unwrap();
            let mut gen = WorldGen::new(31);
            gen.populate(&mut machine, &entities, 70.0).unwrap();
            let table = gen
                .candidate_table(&mut machine, n, config.candidates)
                .unwrap();
            (machine, entities, table)
        };

        let (mut m1, e1, t1) = build(512);
        m1.offload(0)
            .run(|ctx| ai_frame_offloaded(ctx, &e1, t1, &config))
            .unwrap()
            .unwrap();
        let reference = e1.snapshot(&m1).unwrap();

        for accels in [1u16, 2, 3, 6] {
            let (mut m, e, t) = build(512);
            ai_frame_offloaded_tiled(&mut m, &e, t, &config, accels).unwrap();
            assert_eq!(
                e.snapshot(&m).unwrap(),
                reference,
                "{accels} tiles diverged"
            );
            assert_eq!(m.races_detected(), 0);
        }
    }

    #[test]
    fn tiling_scales_across_accelerators() {
        let config = AiConfig::default();
        let run = |accels: u16| {
            let mut machine = Machine::new(MachineConfig::default()).unwrap();
            let entities = EntityArray::alloc(&mut machine, 1024).unwrap();
            let mut gen = WorldGen::new(32);
            gen.populate(&mut machine, &entities, 70.0).unwrap();
            let table = gen
                .candidate_table(&mut machine, 1024, config.candidates)
                .unwrap();
            ai_frame_offloaded_tiled(&mut machine, &entities, table, &config, accels).unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 2 < one,
            "4 accelerators should be >2x faster: {four} vs {one}"
        );
    }

    #[test]
    fn tiling_validates_the_accelerator_count() {
        let config = AiConfig::default();
        let mut machine = Machine::new(MachineConfig::small()).unwrap();
        let entities = EntityArray::alloc(&mut machine, 16).unwrap();
        let table = WorldGen::new(1)
            .candidate_table(&mut machine, 16, config.candidates)
            .unwrap();
        assert!(ai_frame_offloaded_tiled(&mut machine, &entities, table, &config, 0).is_err());
        assert!(ai_frame_offloaded_tiled(&mut machine, &entities, table, &config, 9).is_err());
    }

    #[test]
    fn recovered_frame_matches_the_faultless_world_bit_for_bit() {
        let config = AiConfig::default();
        let build = |n: u32| {
            let mut machine = Machine::new(MachineConfig::default()).unwrap();
            let entities = EntityArray::alloc(&mut machine, n).unwrap();
            let mut gen = WorldGen::new(47);
            gen.populate(&mut machine, &entities, 70.0).unwrap();
            let table = gen
                .candidate_table(&mut machine, n, config.candidates)
                .unwrap();
            (machine, entities, table)
        };

        let (mut m1, e1, t1) = build(256);
        ai_frame_sched(
            &mut m1,
            &e1,
            t1,
            &config,
            4,
            8,
            SchedPolicy::WorkStealing,
            &[],
        )
        .unwrap();
        let reference = e1.snapshot(&m1).unwrap();

        let (mut m2, e2, t2) = build(256);
        let plan = FaultPlan::new(0xe16)
            .with_dma_corrupt(0.02)
            .with_tag_timeout(0.02)
            .with_accel_death(0.02);
        let report = ai_frame_sched_recovering(
            &mut m2,
            &e2,
            t2,
            &config,
            4,
            8,
            SchedPolicy::WorkStealing,
            plan,
            3,
            1_000,
        )
        .unwrap();
        assert!(
            report.faults > 0,
            "this seed must inject something for the test to mean anything"
        );
        assert_eq!(
            e2.snapshot(&m2).unwrap(),
            reference,
            "recovery must reproduce the faultless world exactly"
        );
        assert_eq!(m2.races_detected(), 0);
    }

    #[test]
    fn buffered_mode_run_matches_undeclared_and_saves_work() {
        let config = AiConfig::default();
        let build = |n: u32| {
            let mut machine = Machine::new(MachineConfig::default()).unwrap();
            let entities = EntityArray::alloc(&mut machine, n).unwrap();
            let out = EntityArray::alloc(&mut machine, n).unwrap();
            let mut gen = WorldGen::new(47);
            gen.populate(&mut machine, &entities, 70.0).unwrap();
            let table = gen
                .candidate_table(&mut machine, n, config.candidates)
                .unwrap();
            (machine, entities, out, table)
        };
        let plan = FaultPlan::uniform(0xe16, 0.05);
        let run = |declare: bool| {
            let (mut m, e, out, t) = build(256);
            let report = ai_frame_sched_recovering_buffered(
                &mut m,
                &e,
                &out,
                t,
                &config,
                4,
                8,
                SchedPolicy::WorkStealing,
                plan,
                3,
                1_000,
                declare,
            )
            .unwrap();
            let world = out.snapshot(&m).unwrap();
            let stats = *m.stats();
            assert_eq!(m.races_detected(), 0, "declare={declare}");
            (report, world, stats)
        };
        let (undeclared, world_u, stats_u) = run(false);
        let (declared, world_d, stats_d) = run(true);
        assert_eq!(world_u, world_d, "modes must not change the world");
        assert!(
            stats_d.dma_writebacks_elided > 0,
            "the conservative table flush must be elided under `reads`"
        );
        assert_eq!(
            stats_u.dma_writebacks_elided, 0,
            "the undeclared run has no licence to elide"
        );
        assert!(
            stats_d.journal_bytes < stats_u.journal_bytes,
            "`write`-declared output must skip journal snapshots: {} vs {}",
            stats_d.journal_bytes,
            stats_u.journal_bytes
        );
        assert!(stats_d.journal_bytes_skipped > 0);
        assert!(
            declared.cycles < undeclared.cycles,
            "eliding the flush puts must make the frame cheaper: {} vs {}",
            declared.cycles,
            undeclared.cycles
        );
    }

    #[test]
    fn ai_only_touches_ai_fields() {
        let config = AiConfig::default();
        let (mut m, e, t) = setup(64, 5);
        let before = e.snapshot(&m).unwrap();
        ai_frame_host(&mut m, &e, t, &config).unwrap();
        let after = e.snapshot(&m).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.pos, a.pos);
            assert_eq!(b.health, a.health);
            assert_eq!(b.radius, a.radius);
            assert_eq!(b.class, a.class);
        }
    }
}

//! World descriptions and the single world-running code path.
//!
//! A [`WorldSpec`] is plain `Copy` data: everything a run needs and
//! nothing it produces. Both the solo entry point ([`run_world`]) and
//! every farm worker execute specs through the same [`run_world_in`],
//! so a world's observable result cannot depend on *where* it ran —
//! the bit-identity invariant the determinism gate pins.

use gamekit::ai::{ai_frame_sched, ai_frame_sched_recovering, AiConfig};
use gamekit::{EntityArray, WorldGen};
use offload_rt::sched::SchedReport;
use offload_rt::SchedPolicy;
use simcell::fault::FaultPlan;
use simcell::trace::MachineStats;
use simcell::{Machine, MachineConfig, SimError};

/// What a world computes.
///
/// Variants are scalar-only so a [`WorldSpec`] stays `Copy` and
/// comparable; the workload data itself is generated deterministically
/// from the spec's seed on whichever machine runs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorldProgram {
    /// The gamekit AI frame driven through the offload-rt tile
    /// scheduler: seeded entities, a candidate table, and `frames`
    /// scheduled dispatches across `accels` accelerators.
    AiFrame {
        /// Entities in the world.
        entities: u32,
        /// Tiles per scheduled frame.
        tiles: u32,
        /// Accelerator lanes the scheduler may use.
        accels: u16,
        /// Tile-placement policy.
        policy: SchedPolicy,
        /// Frames to simulate.
        frames: u32,
    },
    /// A chain of labelled offload-builder kernels: each kernel reads
    /// the seeded payload through outer accesses, folds it with
    /// `compute` cycles of work, and writes its digest back to main
    /// memory for the next kernel to observe.
    KernelChain {
        /// Kernels to launch, round-robined over the accelerators.
        kernels: u32,
        /// Pure compute cycles per kernel.
        compute: u64,
        /// Payload length in 64-bit words.
        payload_words: u32,
    },
}

/// A complete, self-contained description of one world run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorldSpec {
    /// World seed: drives entity placement, candidate tables, and
    /// payload contents.
    pub seed: u64,
    /// Machine shape the world runs on.
    pub config: MachineConfig,
    /// The workload.
    pub program: WorldProgram,
    /// Optional deterministic fault plan, armed before the workload.
    pub faults: Option<FaultPlan>,
    /// Per-tile retry budget when `faults` is set (see
    /// [`gamekit::ai::ai_frame_sched_recovering`]).
    pub retries: u32,
    /// Retry backoff in cycles when `faults` is set.
    pub backoff: u64,
    /// Capture the event log and return it as a Chrome trace.
    pub capture_trace: bool,
}

impl WorldSpec {
    /// A small, fast AI-frame world — the default unit for examples,
    /// tests, and the farm bench lanes. Two accelerators keep the
    /// scheduler honest without paying for a full six-lane machine,
    /// and the memories are sized so a whole *fleet* of these machines
    /// stays cache-resident: a worker's arena (main + local stores) is
    /// ~384 KiB, so even 4–8 time-sliced workers fit in a typical L2/L3
    /// instead of evicting each other every switch.
    pub fn quick(seed: u64) -> WorldSpec {
        WorldSpec {
            seed,
            config: MachineConfig {
                accel_count: 2,
                main_capacity: 256 * 1024,
                local_store_size: 64 * 1024,
                ..MachineConfig::default()
            },
            program: WorldProgram::AiFrame {
                entities: 64,
                tiles: 8,
                accels: 2,
                policy: SchedPolicy::ShortestQueue,
                frames: 1,
            },
            faults: None,
            retries: 0,
            backoff: 0,
            capture_trace: false,
        }
    }
}

/// Everything a finished world reports back.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldOutput {
    /// The seed the world ran with.
    pub seed: u64,
    /// Digest of the machine's observable end state: allocated main
    /// memory, the host clock and each accelerator's busy cycles (see
    /// [`simcell::Machine::world_hash`], the run snapshot's view).
    pub world_hash: u64,
    /// The machine's counter block at the end of the run.
    pub stats: MachineStats,
    /// Simulated host cycles the world took end to end.
    pub sim_cycles: u64,
    /// The last frame's scheduler report, for `AiFrame` programs.
    pub sched: Option<SchedReport>,
    /// Chrome trace JSON, when the spec asked for capture.
    pub trace_json: Option<String>,
}

/// Runs `spec` on a machine built for the occasion. The solo twin of a
/// farm submission: same code path, same bits.
///
/// # Errors
///
/// Propagates machine construction and workload errors.
pub fn run_world(spec: &WorldSpec) -> Result<WorldOutput, SimError> {
    let mut machine = Machine::new(spec.config)?;
    run_world_in(&mut machine, spec)
}

/// Runs `spec` on `machine`, resetting it first.
///
/// This is *the* world-running code path: farm workers call it with
/// their recycled machines, [`run_world`] calls it with a fresh one,
/// and because [`simcell::Machine::reset_for_seed`] restores the
/// as-constructed state exactly, both produce identical output.
///
/// # Errors
///
/// Rejects a machine whose configuration differs from the spec's
/// (recycling across shapes would silently change the world); then as
/// for the workload.
pub fn run_world_in(machine: &mut Machine, spec: &WorldSpec) -> Result<WorldOutput, SimError> {
    if *machine.config() != spec.config {
        return Err(SimError::BadConfig {
            reason: "machine configuration does not match the world spec".into(),
        });
    }
    machine.reset_for_seed(spec.seed);
    if spec.capture_trace {
        machine.events_mut().set_enabled(true);
    }
    let sched = match spec.program {
        WorldProgram::AiFrame {
            entities,
            tiles,
            accels,
            policy,
            frames,
        } => run_ai_frames(machine, spec, entities, tiles, accels, policy, frames)?,
        WorldProgram::KernelChain {
            kernels,
            compute,
            payload_words,
        } => {
            run_kernel_chain(machine, spec.seed, kernels, compute, payload_words)?;
            None
        }
    };
    let trace_json = spec
        .capture_trace
        .then(|| simcell::trace::chrome_trace_json(machine.events()));
    Ok(WorldOutput {
        seed: spec.seed,
        world_hash: machine.world_hash(),
        stats: *machine.stats(),
        sim_cycles: machine.host_now(),
        sched,
        trace_json,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_ai_frames(
    machine: &mut Machine,
    spec: &WorldSpec,
    entities: u32,
    tiles: u32,
    accels: u16,
    policy: SchedPolicy,
    frames: u32,
) -> Result<Option<SchedReport>, SimError> {
    let config = AiConfig::default();
    let array = EntityArray::alloc(machine, entities)?;
    let mut gen = WorldGen::new(spec.seed);
    gen.populate(machine, &array, 100.0)?;
    let table = gen.candidate_table(machine, entities, config.candidates)?;
    let mut last = None;
    for _ in 0..frames {
        let report = match spec.faults {
            Some(plan) => ai_frame_sched_recovering(
                machine,
                &array,
                table,
                &config,
                accels,
                tiles,
                policy,
                plan,
                spec.retries,
                spec.backoff,
            )?,
            None => ai_frame_sched(machine, &array, table, &config, accels, tiles, policy, &[])?,
        };
        last = Some(report);
    }
    Ok(last)
}

fn run_kernel_chain(
    machine: &mut Machine,
    seed: u64,
    kernels: u32,
    compute: u64,
    payload_words: u32,
) -> Result<(), SimError> {
    let payload = machine.alloc_main_slice::<u64>(payload_words.max(1))?;
    let fill: Vec<u64> = (0..u64::from(payload_words.max(1)))
        .map(|i| {
            seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        })
        .collect();
    machine.host_write_slice(payload, &fill)?;
    let accel_count = machine.accel_count();
    for k in 0..kernels {
        let accel = (k % u32::from(accel_count)) as u16;
        let words = payload_words.max(1);
        let digest = machine.offload(accel).label("farm_kernel").run(|ctx| {
            ctx.compute(compute);
            let mut acc = 0u64;
            for i in 0..words {
                let word: u64 = ctx.outer_read_pod(payload.offset_by(i * 8)?)?;
                acc = acc.rotate_left(7) ^ word;
            }
            Ok::<u64, SimError>(acc)
        })??;
        // Feed the digest back so the chain (and the world hash)
        // observes every kernel.
        machine.host_write_pod(payload, &digest)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_runs_are_reproducible() {
        let spec = WorldSpec::quick(77);
        let a = run_world(&spec).unwrap();
        let b = run_world(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.sim_cycles > 0);
        assert!(a.sched.is_some());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_world(&WorldSpec::quick(1)).unwrap();
        let b = run_world(&WorldSpec::quick(2)).unwrap();
        assert_ne!(a.world_hash, b.world_hash);
    }

    #[test]
    fn recycled_machine_matches_fresh_machine() {
        let warm = WorldSpec::quick(5);
        let target = WorldSpec::quick(6);
        let mut machine = Machine::new(warm.config).unwrap();
        run_world_in(&mut machine, &warm).unwrap();
        let reused = run_world_in(&mut machine, &target).unwrap();
        let fresh = run_world(&target).unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn kernel_chain_runs_and_depends_on_every_kernel() {
        let mut spec = WorldSpec::quick(9);
        spec.program = WorldProgram::KernelChain {
            kernels: 4,
            compute: 200,
            payload_words: 16,
        };
        let four = run_world(&spec).unwrap();
        spec.program = WorldProgram::KernelChain {
            kernels: 3,
            compute: 200,
            payload_words: 16,
        };
        let three = run_world(&spec).unwrap();
        assert_ne!(four.world_hash, three.world_hash);
        assert!(four.sim_cycles > three.sim_cycles);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let spec = WorldSpec::quick(3);
        let mut machine = Machine::new(MachineConfig::small()).unwrap();
        let err = run_world_in(&mut machine, &spec).unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }));
    }

    #[test]
    fn trace_capture_round_trips() {
        let mut spec = WorldSpec::quick(11);
        spec.capture_trace = true;
        let out = run_world(&spec).unwrap();
        let json = out.trace_json.expect("trace requested");
        let events = simcell::trace::parse_chrome_trace(&json).unwrap();
        assert!(!events.is_empty());
        // Capture must not perturb the simulation itself.
        let mut quiet = spec;
        quiet.capture_trace = false;
        let silent = run_world(&quiet).unwrap();
        assert_eq!(out.world_hash, silent.world_hash);
        assert_eq!(out.sim_cycles, silent.sim_cycles);
    }

    #[test]
    fn faulty_worlds_are_deterministic_too() {
        let mut spec = WorldSpec::quick(13);
        spec.faults = Some(FaultPlan {
            accel_stall: 0.3,
            stall_cycles: 64,
            ..FaultPlan::new(13)
        });
        spec.retries = 2;
        spec.backoff = 32;
        let a = run_world(&spec).unwrap();
        let b = run_world(&spec).unwrap();
        assert_eq!(a, b);
    }
}

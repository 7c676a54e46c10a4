//! `trace`: one profiling capture per op.
//!
//! Each op records, with the event log on, the three graph traversals
//! at quick size, a work-stealing AI frame, an AI frame under a 5%
//! fault storm and a pipelined staged frame, after running the same
//! six with the event log off (the untraced twin). Every capture is
//! exported with `chrome_trace_json` and parsed back with
//! `parse_chrome_trace`; its payload count is checked against the event
//! log the way `paper_tables --trace` checks it, each frame's entities
//! are checked against a host reference computed in set-up, and every
//! run's simulated cycles against its twin's.

use gamekit::{
    ai_frame_host, ai_frame_sched, ai_frame_sched_recovering, staged_frame_pipeline,
    staged_frame_sequential, AiConfig, EntityArray, GameEntity, WorldGen,
};
use offload_rt::SchedPolicy;
use simcell::{
    chrome_trace_json, parse_chrome_trace, EventKind, FaultPlan, Machine, MachineConfig,
};

use crate::graph::{derive_ratio, GraphWorld, PathOutput, QUICK};
use crate::harness::{seeded, Checked, Counts, Values, Workload};
use crate::spans::Recorder;

/// Entities in each frame.
const ENTITIES: u32 = 512;
/// Accelerators the scheduled frames use.
const ACCELS: u16 = 6;
/// Tiles each scheduled frame is cut into.
const TILES: u32 = 24;
/// Tiles given extra work, so the work-stealing scheduler steals.
const HOT_TILES: usize = 6;
/// Extra strategy cycles per hot tile.
const HOT_EXTRA: u64 = 150_000;
/// Stream chunk of the pipelined frame, in entities.
const CHUNK: u32 = 64;

/// The frames a capture records after the graph traversals.
#[derive(Clone, Copy, Debug)]
enum Frame {
    /// A work-stealing AI frame with seeded hot tiles.
    Stealing,
    /// A work-stealing AI frame under a 5% uniform fault plan.
    FaultStorm,
    /// The skin -> collide -> resolve chain through the pipeline runtime.
    Pipelined,
}

const FRAMES: [Frame; 3] = [Frame::Stealing, Frame::FaultStorm, Frame::Pipelined];

/// The `trace` workload's state.
pub struct TraceBench {
    graph: GraphWorld,
    frames: Machine,
    world_seed: u64,
    fault_seed: u64,
    tile_costs: Vec<u64>,
    /// Entities after an AI frame, computed on the host.
    ai_reference: Vec<GameEntity>,
    /// Entities after the staged frame, run sequentially.
    staged_reference: Vec<GameEntity>,
}

/// What one exported capture held.
#[derive(Debug)]
struct Capture {
    events: usize,
    json_bytes: usize,
    payload: usize,
    expected_payload: usize,
}

/// One op's captures, outputs and simulated cycles.
pub struct TraceOutput {
    paths: Vec<(&'static str, PathOutput)>,
    frames: Vec<(Frame, Vec<GameEntity>)>,
    cycles: Vec<u64>,
    /// The same runs' cycles with the event log off.
    twin_cycles: Vec<u64>,
    captures: Vec<Capture>,
}

/// Exports the machine's event log, parses it back, and counts the
/// payload records against the log: the export adds `M` records for
/// lane names and folds each completed offload's start/end pair into
/// one `X` slice.
fn capture(rec: &mut Recorder, machine: &Machine) -> Result<Capture, String> {
    let log = machine.events();
    let json = rec.span("simcell.export", || chrome_trace_json(log));
    let parsed = rec.span("simcell.parse", || parse_chrome_trace(&json))?;
    let completed = log
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::OffloadEnd { .. }))
        .count();
    Ok(Capture {
        events: log.len(),
        json_bytes: json.len(),
        payload: parsed.iter().filter(|e| e.ph != 'M').count(),
        expected_payload: log.len() - completed,
    })
}

impl TraceBench {
    /// Runs `frame` on the recycled frame machine with the event log
    /// on or off; returns the entities and the simulated cycles.
    fn run_frame(&mut self, frame: Frame, traced: bool) -> Result<(Vec<GameEntity>, u64), String> {
        let err = |e: simcell::SimError| e.to_string();
        let m = &mut self.frames;
        m.reset_for_seed(self.world_seed);
        m.events_mut().set_enabled(traced);
        let config = AiConfig::default();
        let entities = EntityArray::alloc(m, ENTITIES).map_err(err)?;
        let mut gen = WorldGen::new(self.world_seed);
        gen.populate(m, &entities, 70.0).map_err(err)?;
        match frame {
            Frame::Stealing => {
                let table = gen
                    .candidate_table(m, ENTITIES, config.candidates)
                    .map_err(err)?;
                ai_frame_sched(
                    m,
                    &entities,
                    table,
                    &config,
                    ACCELS,
                    TILES,
                    SchedPolicy::WorkStealing,
                    &self.tile_costs,
                )
                .map_err(err)?;
            }
            Frame::FaultStorm => {
                let table = gen
                    .candidate_table(m, ENTITIES, config.candidates)
                    .map_err(err)?;
                ai_frame_sched_recovering(
                    m,
                    &entities,
                    table,
                    &config,
                    ACCELS,
                    TILES,
                    SchedPolicy::WorkStealing,
                    FaultPlan::uniform(self.fault_seed, 0.05),
                    3,
                    1_000,
                )
                .map_err(err)?;
            }
            Frame::Pipelined => {
                staged_frame_pipeline(m, &entities, CHUNK, 2).map_err(err)?;
            }
        }
        Ok((entities.snapshot(m).map_err(err)?, m.host_now()))
    }

    /// Rebuilds the graph, then runs the three paths with the event log
    /// on or off; returns their outputs and cycles.
    fn run_paths(
        &mut self,
        rec: &mut Recorder,
        traced: bool,
    ) -> Result<Vec<(&'static str, PathOutput, u64)>, String> {
        self.graph.rebuild(rec)?;
        self.graph.machine.events_mut().set_enabled(traced);
        let mut out = Vec::with_capacity(3);
        for (label, access) in self.graph.paths.clone() {
            let before = self.graph.machine.host_now();
            let path = self.graph.traverse(&access)?;
            out.push((label, path, self.graph.machine.host_now() - before));
        }
        Ok(out)
    }

    /// Simulated cycles of every graph path and frame, in capture order,
    /// with the event log off: the untraced twin of one capture.
    fn untraced_twin(&mut self, rec: &mut Recorder) -> Result<Vec<u64>, String> {
        let mut cycles: Vec<u64> = self
            .run_paths(rec, false)?
            .into_iter()
            .map(|p| p.2)
            .collect();
        for frame in FRAMES {
            cycles.push(self.run_frame(frame, false)?.1);
        }
        Ok(cycles)
    }
}

impl Workload for TraceBench {
    type Output = TraceOutput;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<TraceBench, String> {
        let err = |e: simcell::SimError| e.to_string();
        let graph = GraphWorld::new(seed, QUICK, rec)?;
        let mut s = seeded(seed, 4);
        let world_seed = s.next_u64();
        let fault_seed = s.next_u64();
        let mut tile_costs = vec![0; TILES as usize];
        while tile_costs.iter().filter(|&&c| c > 0).count() < HOT_TILES {
            tile_costs[s.below_u32(TILES) as usize] = HOT_EXTRA;
        }

        let config = AiConfig::default();
        let mut host = Machine::new(MachineConfig::default()).map_err(err)?;
        host.reset_for_seed(world_seed);
        let entities = EntityArray::alloc(&mut host, ENTITIES).map_err(err)?;
        let mut gen = WorldGen::new(world_seed);
        gen.populate(&mut host, &entities, 70.0).map_err(err)?;
        let table = gen
            .candidate_table(&mut host, ENTITIES, config.candidates)
            .map_err(err)?;
        ai_frame_host(&mut host, &entities, table, &config).map_err(err)?;
        let ai_reference = entities.snapshot(&host).map_err(err)?;

        host.reset_for_seed(world_seed);
        let entities = EntityArray::alloc(&mut host, ENTITIES).map_err(err)?;
        WorldGen::new(world_seed)
            .populate(&mut host, &entities, 70.0)
            .map_err(err)?;
        staged_frame_sequential(&mut host, &entities, CHUNK).map_err(err)?;
        let staged_reference = entities.snapshot(&host).map_err(err)?;

        Ok(TraceBench {
            graph,
            frames: host,
            world_seed,
            fault_seed,
            tile_costs,
            ai_reference,
            staged_reference,
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Result<TraceOutput, String> {
        // The untraced twin runs first, in the same op, so the traced ÷
        // untraced ratio compares runs made under the same conditions.
        let twin = rec.enter("simcell.untraced_twin");
        let twin_cycles = self.untraced_twin(rec);
        rec.exit(twin);
        let mut out = TraceOutput {
            paths: Vec::with_capacity(3),
            frames: Vec::with_capacity(FRAMES.len()),
            cycles: Vec::with_capacity(3 + FRAMES.len()),
            twin_cycles: twin_cycles?,
            captures: Vec::with_capacity(1 + FRAMES.len()),
        };
        let record = rec.enter("simcell.record");
        let paths = self.run_paths(rec, true)?;
        rec.exit(record);
        out.captures.push(capture(rec, &self.graph.machine)?);
        for (label, path, cycles) in paths {
            out.paths.push((label, path));
            out.cycles.push(cycles);
        }
        for frame in FRAMES {
            let (entities, cycles) = rec.span("simcell.record", || self.run_frame(frame, true))?;
            out.captures.push(capture(rec, &self.frames)?);
            out.frames.push((frame, entities));
            out.cycles.push(cycles);
        }
        Ok(out)
    }

    fn check(&mut self, out: TraceOutput) -> Result<Checked, String> {
        for (label, path) in &out.paths {
            self.graph.check(label, path)?;
        }
        for (frame, entities) in &out.frames {
            let reference = match frame {
                Frame::Stealing | Frame::FaultStorm => &self.ai_reference,
                Frame::Pipelined => &self.staged_reference,
            };
            if entities != reference {
                return Err(format!(
                    "{frame:?} frame: entities differ from the host reference"
                ));
            }
        }
        if out.cycles != out.twin_cycles {
            return Err(format!(
                "recording moved simulated cycles: {:?} traced vs {:?} untraced",
                out.cycles, out.twin_cycles
            ));
        }
        let mut counts = Counts {
            sim_cycles: out.cycles.iter().sum(),
            ..Counts::default()
        };
        for c in &out.captures {
            if c.payload != c.expected_payload {
                return Err(format!(
                    "parsed payload {} != {} expected from the event log",
                    c.payload, c.expected_payload
                ));
            }
            *counts.exact.entry("simcell.events").or_default() += c.events as u64;
            *counts.exact.entry("simcell.json_bytes").or_default() += c.json_bytes as u64;
        }
        Ok(counts.into())
    }

    fn derive(values: &mut Values) {
        if let Some(&bytes) = values.get("simcell.json_bytes") {
            values.insert("simcell.json_mb".into(), bytes / 1e6);
        }
        derive_ratio(
            values,
            "simcell.export_ns_per_event",
            "simcell.export_ms",
            "simcell.events",
            1e6,
        );
        derive_ratio(
            values,
            "simcell.parse_ns_per_event",
            "simcell.parse_ms",
            "simcell.events",
            1e6,
        );
        derive_ratio(
            values,
            "simcell.record_overhead",
            "simcell.record_ms",
            "simcell.untraced_twin_ms",
            1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ClosedLoop;

    #[test]
    fn a_wrong_expectation_counts_as_a_failed_op() {
        let mut rec = Recorder::new(false);
        let mut w = TraceBench::setup(1, &mut rec).unwrap();
        w.staged_reference[3].health += 1.0;
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 2);
        assert_eq!((phase.attempted, phase.failed), (2, 2));
        assert!(phase.errors[0].contains("Pipelined"), "{:?}", phase.errors);
    }
}

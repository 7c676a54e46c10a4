//! E17 (extension) — streaming the staged frame through a pipeline.
//!
//! The scheduler experiments (E14/E15) fan *independent* tiles out;
//! real frames also contain *dependent* stage chains — skin, then
//! collide, then resolve the same entities. This experiment runs that
//! chain three ways over the same seeded world and asserts the worlds
//! come out bit-identical:
//!
//! - **sequential**: one offload per stage on a single accelerator,
//!   each stage streaming the whole array before the next starts;
//! - **pipeline**: `machine.pipeline()` — stage `k` on accelerator
//!   `k`, chunks flowing through bounded queues, stage `k` computing
//!   chunk `i` while stage `k-1` computes chunk `i+1` (the FastFlow
//!   self-offloading shape, arXiv 1002.4668);
//! - **fan-out**: each stage block-split over *all six* accelerators
//!   with a full join barrier between stages.
//!
//! The pipeline's win over sequential is pure overlap (same memory
//! image, ≥1.3x fewer cycles on three accelerators); the barriered
//! fan-out buys more with six lanes but pays a barrier per stage and
//! needs every lane idle and available — the table shows all three so
//! the trade reads off directly.

use gamekit::{
    staged_frame_fanout, staged_frame_pipeline, staged_frame_sequential, EntityArray, WorldGen,
};
use simcell::{Machine, MachineConfig, MemorySnapshot};

use crate::table::{cycles, speedup, Table};

/// Elements per pipeline chunk (entities handed stage to stage).
const CHUNK: u32 = 64;

/// Seeded world shared by every variant.
fn world(n: u32) -> (Machine, EntityArray) {
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let entities = EntityArray::alloc(&mut machine, n).expect("fits");
    WorldGen::new(0xE17)
        .populate(&mut machine, &entities, 100.0)
        .expect("fits");
    (machine, entities)
}

/// Host cycles for the sequential stage-by-stage frame, plus the
/// world's memory afterwards.
pub fn measure_sequential(n: u32) -> (u64, MemorySnapshot) {
    let (mut machine, entities) = world(n);
    let t = staged_frame_sequential(&mut machine, &entities, CHUNK).expect("fits");
    assert_eq!(machine.races_detected(), 0);
    (t, machine.memory_snapshot())
}

/// Host cycles for the pipelined frame with queues `buffers` deep,
/// plus the world's memory and the charged stall cycles
/// `(input_wait, backpressure)`.
pub fn measure_pipeline(n: u32, buffers: u32) -> (u64, MemorySnapshot, (u64, u64)) {
    let (mut machine, entities) = world(n);
    let report = staged_frame_pipeline(&mut machine, &entities, CHUNK, buffers).expect("fits");
    assert_eq!(machine.races_detected(), 0);
    (
        report.cycles,
        machine.memory_snapshot(),
        (report.input_wait_cycles, report.backpressure_cycles),
    )
}

/// Host cycles for the barriered all-lanes fan-out, plus the world's
/// memory.
pub fn measure_fanout(n: u32) -> (u64, MemorySnapshot) {
    let (mut machine, entities) = world(n);
    let (t, _) = staged_frame_fanout(&mut machine, &entities, CHUNK).expect("fits");
    assert_eq!(machine.races_detected(), 0);
    (t, machine.memory_snapshot())
}

/// Runs E17.
pub fn run(quick: bool) -> Table {
    let n = if quick { 512 } else { 1024 };
    let mut table = Table::new(
        "E17",
        "Extension: pipelining dependent frame stages across accelerators",
        "dependent stages (skin -> collide -> resolve) cannot fan out without barriers; a \
         bounded-queue pipeline overlaps stage k's compute with stage k+1's fetch and beats the \
         sequential chain by >=1.3x in simulated cycles while producing the bit-identical world \
         (FastFlow self-offloading, arXiv 1002.4668; paper Sec. 4.1 streaming context)",
        vec![
            "schedule",
            "accels",
            "frame cycles",
            "speedup vs sequential",
            "input-wait cycles",
            "backpressure cycles",
        ],
    );
    let (seq, seq_world) = measure_sequential(n);
    let (fan, fan_world) = measure_fanout(n);
    seq_world
        .diff(&fan_world)
        .unwrap_or_else(|d| panic!("fan-out must not change the world: {d}"));
    table.push_row(vec![
        "sequential (1 accel)".into(),
        "1".into(),
        cycles(seq),
        speedup(seq, seq),
        "0".into(),
        "0".into(),
    ]);
    for buffers in [1u32, 2, 4] {
        let (pipe, pipe_world, (wait, bp)) = measure_pipeline(n, buffers);
        seq_world
            .diff(&pipe_world)
            .unwrap_or_else(|d| panic!("the pipeline must not change the world: {d}"));
        table.push_row(vec![
            format!("pipeline, {buffers}-deep queues"),
            "3".into(),
            cycles(pipe),
            speedup(seq, pipe),
            wait.to_string(),
            bp.to_string(),
        ]);
    }
    table.push_row(vec![
        "fan-out + barriers".into(),
        "6".into(),
        cycles(fan),
        speedup(seq, fan),
        "0".into(),
        "0".into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_wins_by_the_budgeted_margin() {
        let (seq, seq_world) = measure_sequential(1024);
        let (pipe, pipe_world, _) = measure_pipeline(1024, 2);
        seq_world
            .diff(&pipe_world)
            .unwrap_or_else(|d| panic!("bit-identical world required: {d}"));
        assert!(
            (pipe as f64) * 1.3 <= seq as f64,
            "the acceptance budget is 1.3x: pipeline {pipe} vs sequential {seq}"
        );
    }

    #[test]
    fn deeper_queues_never_lose() {
        let (one, _, _) = measure_pipeline(512, 1);
        let (four, _, _) = measure_pipeline(512, 4);
        assert!(
            four <= one,
            "deeper queues can only relax stalls: {four} vs {one}"
        );
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.columns.len(), 6);
    }
}

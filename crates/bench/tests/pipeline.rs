//! Property tests for the streaming pipeline — the CI half of E17's
//! bit-identity claim.
//!
//! The pipeline's contract is that overlap is *free*: for any stage
//! count, queue depth, and chunk size — and even under a fault plan
//! with the recovery stack armed — running the chain through
//! `machine.pipeline()` produces the same main-memory bytes as running
//! the stages one after another. These tests draw random shapes from a
//! seeded [`xrng::Rng`] and pin that equality, plus the determinism of
//! the trace itself (same seed → same snapshot, event timeline
//! included).

use memspace::Addr;
use offload_rt::pipeline::MachinePipelineExt;
use offload_rt::stream::{process_stream, StreamConfig};
use offload_rt::PipeReport;
use simcell::{
    AccelCtx, FaultPlan, LaunchSettings, Machine, MachineConfig, RecoverySettings, SimError,
};
use xrng::Rng;

/// One randomly drawn pipeline shape.
#[derive(Clone, Copy, Debug)]
struct Shape {
    len: u32,
    chunk: u32,
    stages: u16,
    buffers: u32,
}

/// Draws a shape the default machine (6 accelerators) can always run:
/// 1–4 stages, 1–4 buffered chunks per queue, chunk sizes from single
/// elements up to larger than the whole stream.
fn draw(rng: &mut Rng) -> Shape {
    Shape {
        len: rng.range_u32(1, 600),
        chunk: rng.range_u32(1, 96),
        stages: rng.range_u32(1, 5) as u16,
        buffers: rng.range_u32(1, 5),
    }
}

/// Stage `k`'s element-local transform: fixed wrapping arithmetic keyed
/// on the stage index and the element's global index, so every
/// chunking/ordering of the stream yields the same bytes and a
/// misrouted index shows up as a hash mismatch.
fn stage_fn(k: u16) -> impl FnMut(&mut AccelCtx<'_>, u32, &mut [u32]) -> Result<(), SimError> {
    let mul = 2 * u32::from(k) + 3;
    let add = 0x9e37_79b9u32.wrapping_mul(u32::from(k) + 1);
    move |ctx, first, slice| {
        for (i, v) in slice.iter_mut().enumerate() {
            let idx = first + i as u32;
            *v = v.wrapping_mul(mul).wrapping_add(add) ^ idx.rotate_left(u32::from(k) % 31 + 1);
        }
        ctx.compute(50 * slice.len() as u64);
        Ok(())
    }
}

/// A fresh machine holding `len` seeded words in main memory.
fn seeded_world(seed: u64, len: u32) -> (Machine, Addr) {
    let mut machine = Machine::new(MachineConfig::default()).expect("config valid");
    let addr = machine.alloc_main_slice::<u32>(len).expect("fits");
    let mut rng = Rng::new(seed);
    let values: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
    machine
        .main_mut()
        .write_pod_slice(addr, &values)
        .expect("in bounds");
    (machine, addr)
}

/// The reference schedule: each stage is one offload on accelerator 0
/// streaming the whole array, full barrier between stages — the
/// definition the pipeline must match bit for bit.
fn run_sequential(machine: &mut Machine, addr: Addr, shape: Shape) -> u64 {
    let t0 = machine.host_now();
    let config = StreamConfig {
        chunk_elems: (shape.chunk / 2).max(1),
        write_back: true,
    };
    for k in 0..shape.stages {
        let mut f = stage_fn(k);
        machine
            .offload(0)
            .label("seq-stage")
            .run(|ctx| process_stream::<u32, _>(ctx, addr, shape.len, config, &mut f))
            .expect("offload runs")
            .expect("stream runs");
    }
    machine.host_now() - t0
}

/// Runs the same stage chain through the pipeline builder, optionally
/// under a fault plan with the full retry + host-fallback stack armed.
fn run_pipeline(
    machine: &mut Machine,
    addr: Addr,
    shape: Shape,
    faults: Option<FaultPlan>,
) -> PipeReport {
    let mut builder = machine.pipeline::<u32>();
    for k in 0..shape.stages {
        builder = builder.stage_named("pipe-stage", stage_fn(k));
    }
    builder = builder.chunk(shape.chunk).buffers(shape.buffers);
    if let Some(plan) = faults {
        builder = builder.faults(plan).retry(4).backoff(800).fallback_host();
    }
    builder.run(addr, shape.len).expect("pipeline runs")
}

/// The core property: for random stage counts, buffer depths and chunk
/// sizes, pipeline execution leaves main memory bit-identical to the
/// sequential stage-by-stage schedule.
#[test]
fn pipeline_matches_sequential_for_random_shapes() {
    let mut rng = Rng::new(0x17_917E);
    for round in 0..16u64 {
        let shape = draw(&mut rng);
        let world_seed = 0xB00 + round;
        let (mut seq, seq_addr) = seeded_world(world_seed, shape.len);
        run_sequential(&mut seq, seq_addr, shape);
        let (mut pipe, pipe_addr) = seeded_world(world_seed, shape.len);
        let report = run_pipeline(&mut pipe, pipe_addr, shape, None);
        seq.memory_snapshot()
            .diff(&pipe.memory_snapshot())
            .unwrap_or_else(|d| panic!("worlds diverged at {shape:?} ({report:?}): {d}"));
        assert_eq!(pipe.races_detected(), 0, "no races at {shape:?}");
        assert_eq!(
            u64::from(report.chunks) * u64::from(report.stages),
            u64::from(shape.len.div_ceil(shape.chunk)) * u64::from(shape.stages),
            "every chunk ran once per stage at {shape:?}"
        );
    }
}

/// The same property under fire: a seeded uniform fault plan injects
/// transient and fatal faults mid-stream, retries replay chunks from a
/// clean mark, dead lanes degrade to the host — and the bytes still
/// match the faultless sequential run exactly.
#[test]
fn faulted_pipeline_still_matches_sequential() {
    let mut rng = Rng::new(0xFA_017E);
    for round in 0..8u64 {
        let shape = draw(&mut rng);
        let world_seed = 0xF00 + round;
        let (mut seq, seq_addr) = seeded_world(world_seed, shape.len);
        run_sequential(&mut seq, seq_addr, shape);
        let (mut pipe, pipe_addr) = seeded_world(world_seed, shape.len);
        let plan = FaultPlan::uniform(0xDEC0 + round, 0.04);
        let report = run_pipeline(&mut pipe, pipe_addr, shape, Some(plan));
        seq.memory_snapshot()
            .diff(&pipe.memory_snapshot())
            .unwrap_or_else(|d| panic!("recovery must be exact at {shape:?} ({report:?}): {d}"));
    }
}

/// Determinism of the run *and* its observability: the same seed gives
/// the same snapshot, event timeline included, and the same report,
/// the timeline round-trips through the Chrome trace parser, and
/// recording it costs zero simulated cycles.
#[test]
fn same_seed_same_world_hash_same_trace_json() {
    let mut rng = Rng::new(0x7_2ACE);
    let shape = draw(&mut rng);
    let run_traced = |trace: bool| {
        let (mut machine, addr) = seeded_world(0xCAFE, shape.len);
        machine.events_mut().set_enabled(trace);
        let report = run_pipeline(&mut machine, addr, shape, None);
        (machine, report)
    };
    let (a, report_a) = run_traced(true);
    let (b, report_b) = run_traced(true);
    let (untraced, report_untraced) = run_traced(false);
    let snapshot = a.snapshot();
    snapshot
        .diff(&b.snapshot())
        .unwrap_or_else(|d| panic!("same seed: {d}"));
    snapshot
        .diff(&untraced.snapshot())
        .unwrap_or_else(|d| panic!("tracing must be zero simulated cost: {d}"));
    assert_eq!(report_a, report_b, "same seed, same report");
    assert_eq!(report_a, report_untraced);
    let json = simcell::chrome_trace_json(a.events());
    let parsed = simcell::parse_chrome_trace(&json).expect("trace round-trips");
    assert!(!parsed.is_empty());
}

//! Cycle-accounted streaming pipelines across accelerators.
//!
//! The scheduler ([`crate::sched`]) fans *independent* tiles out over
//! accelerators; this module chains *dependent* stages across them, the
//! self-offloading pipeline shape of FastFlow (arXiv 1002.4668) mapped
//! onto the paper's machine: sequential code carved into stages
//! connected by bounded queues, with compute/transfer overlap doing the
//! accelerating.
//!
//! `machine.pipeline().stage(k1).stage(k2).buffers(2).run(remote, len)`
//! places stage `k` on accelerator `base + k` and streams the array
//! through all stages in chunks. Stage `k` processes chunk `i` while
//! stage `k-1` is already computing chunk `i+1`; inside each
//! stage/chunk the transfer itself is double-buffered through
//! [`process_stream`], so DMA for the next sub-chunk overlaps compute
//! on the current one.
//!
//! # The bounded-queue cycle model
//!
//! The inter-stage queues are not materialised — chunks live in main
//! memory, and what the queue really bounds is *timing*. Two stalls are
//! charged on the accelerator clocks, both visible on the trace's
//! `pipe` lanes and in [`MachineStats`](simcell::MachineStats):
//!
//! - **Input wait**: stage `k` cannot start chunk `i` before stage
//!   `k-1` finished pushing it. If the accelerator is ready earlier,
//!   the gap is charged as an input-wait stall.
//! - **Backpressure**: the queue between stages `k` and `k+1` holds
//!   [`PipelineBuilder::buffers`] chunks. Stage `k` finishes pushing
//!   chunk `i` only once stage `k+1` has started consuming chunk
//!   `i - buffers`; until then the producer blocks, and the gap is
//!   charged as a backpressure stall.
//!
//! Because every stall is paid in simulated cycles on the lane that
//! stalls, a pipeline's win over running the same stages sequentially
//! is purely the overlap — the memory image it produces is
//! bit-identical (stages must be chunk-local transforms: chunk `i`'s
//! output may depend only on chunk `i`'s input).
//!
//! # Recovery
//!
//! The `.faults(plan)` / `.retry(n)` / `.backoff(c)` / `.fallback_host()`
//! chain arms the recovery policy documented once, on
//! [`simcell::RecoverySettings`], with each stage/chunk item as the unit
//! that retries or degrades to the host.
//!
//! # Example
//!
//! ```
//! use offload_rt::pipeline::MachinePipelineExt;
//! use simcell::{Machine, MachineConfig, SimError};
//!
//! # fn main() -> Result<(), SimError> {
//! let mut machine = Machine::new(MachineConfig::default())?;
//! let remote = machine.alloc_main_slice::<u32>(256)?;
//! machine
//!     .main_mut()
//!     .write_pod_slice(remote, &(0..256).collect::<Vec<u32>>())?;
//! let report = machine
//!     .pipeline()
//!     .stage_named("double", |ctx, _, chunk: &mut [u32]| {
//!         for v in chunk.iter_mut() {
//!             *v *= 2;
//!         }
//!         ctx.compute(chunk.len() as u64);
//!         Ok(())
//!     })
//!     .stage_named("inc", |ctx, _, chunk: &mut [u32]| {
//!         for v in chunk.iter_mut() {
//!             *v += 1;
//!         }
//!         ctx.compute(chunk.len() as u64);
//!         Ok(())
//!     })
//!     .buffers(2)
//!     .run(remote, 256)?;
//! assert_eq!(report.chunks, 4);
//! let out = machine.main().read_pod_slice::<u32>(remote, 256)?;
//! assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32 + 1));
//! # Ok(())
//! # }
//! ```

use memspace::{Addr, Pod};
use simcell::{
    AccelCtx, EventKind, Launch, LaunchSettings, Machine, ModeSet, OffloadHandle, RecoverySettings,
    SimError,
};

use crate::sched::{fold_lanes, recovery_since, LaneReport};
use crate::stream::{process_stream, StreamConfig};

/// Default bounded-queue depth between adjacent stages, in chunks —
/// the classic double buffer: one chunk in flight downstream while the
/// producer fills the next.
pub const DEFAULT_PIPE_BUFFERS: u32 = 2;

/// Default elements per pipeline chunk (the unit handed from stage to
/// stage; matches [`StreamConfig::default`]'s chunk).
pub const DEFAULT_PIPE_CHUNK: u32 = 64;

/// Extends [`Machine`] with the pipeline entry point, so a staged
/// stream reads as one fluent chain:
/// `machine.pipeline().stage(k1).stage(k2).buffers(2).run(remote, len)`.
pub trait MachinePipelineExt {
    /// Starts building a pipeline over elements of type `T`. Stage `k`
    /// runs on accelerator `k` (shift with [`PipelineBuilder::base`]).
    fn pipeline<T: Pod>(&mut self) -> PipelineBuilder<'_, T>;
}

impl MachinePipelineExt for Machine {
    fn pipeline<T: Pod>(&mut self) -> PipelineBuilder<'_, T> {
        PipelineBuilder {
            machine: self,
            base: 0,
            stages: Vec::new(),
            buffers: DEFAULT_PIPE_BUFFERS,
            chunk_elems: DEFAULT_PIPE_CHUNK,
            launch: Launch::default(),
        }
    }
}

/// A pipeline stage: a chunk-local transform plus its trace label and
/// declared access modes.
struct PipeStage<'m, T> {
    name: &'static str,
    modes: ModeSet,
    #[allow(clippy::type_complexity)]
    f: Box<dyn FnMut(&mut AccelCtx<'_>, u32, &mut [T]) -> Result<(), SimError> + 'm>,
}

/// A configured streaming pipeline over several accelerators.
///
/// Built by [`MachinePipelineExt::pipeline`]; consumed by
/// [`PipelineBuilder::run`].
#[must_use = "a pipeline does nothing until run"]
pub struct PipelineBuilder<'m, T> {
    machine: &'m mut Machine,
    base: u16,
    stages: Vec<PipeStage<'m, T>>,
    buffers: u32,
    chunk_elems: u32,
    launch: Launch,
}

/// Mode declarations apply to the most recently added stage; made
/// before any stage, they land on the pipeline's own [`Launch`], which
/// [`PipelineBuilder::run`] refuses.
impl<T: Pod> LaunchSettings for PipelineBuilder<'_, T> {
    fn launch_mut(&mut self) -> &mut Launch {
        &mut self.launch
    }

    fn modes_mut(&mut self) -> &mut ModeSet {
        match self.stages.last_mut() {
            Some(stage) => &mut stage.modes,
            None => &mut self.launch.modes,
        }
    }
}

impl<T: Pod> RecoverySettings for PipelineBuilder<'_, T> {}

/// What a [`PipelineBuilder::run`] did, for reports and assertions.
/// All cycle figures are simulated cycles; busy, idle and stall are
/// defined on [`LaneReport`], and
/// [`stall_cycles`](PipeReport::stall_cycles) here is input waits plus
/// backpressure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeReport {
    /// Stages in the pipeline.
    pub stages: u16,
    /// Chunks streamed through every stage.
    pub chunks: u32,
    /// Bounded-queue depth between adjacent stages, in chunks.
    pub buffers: u32,
    /// Elements per chunk.
    pub chunk_elems: u32,
    /// Host cycles from entering `run` to the last join.
    pub cycles: u64,
    /// Cycle at which the last stage/chunk item finished (absolute
    /// machine time).
    pub finished_at: u64,
    /// One row per stage, in stage order.
    pub lanes: Vec<LaneReport>,
    /// Cycles stages stalled waiting for their input chunk.
    pub input_wait_cycles: u64,
    /// Cycles stages stalled on a full downstream queue.
    pub backpressure_cycles: u64,
    /// Faults the plane injected during the run (all kinds).
    pub faults: u64,
    /// Stage/chunk retries the recovery layer performed.
    pub retries: u64,
    /// Stage/chunk items that degraded to host execution.
    pub fallbacks: u64,
}

impl PipeReport {
    /// Total busy cycles: the sum of [`LaneReport::busy`] over every
    /// stage lane.
    pub fn busy_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.busy).sum()
    }

    /// Total idle cycles: the sum of [`LaneReport::idle`] over every
    /// stage lane.
    pub fn idle_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.idle).sum()
    }

    /// Total coordination-stall cycles: for a pipeline, cycles stages
    /// spent waiting for input ([`PipeReport::input_wait_cycles`]) plus
    /// cycles they stalled on a full downstream queue
    /// ([`PipeReport::backpressure_cycles`]).
    pub fn stall_cycles(&self) -> u64 {
        self.input_wait_cycles + self.backpressure_cycles
    }
}

impl<'m, T: Pod> PipelineBuilder<'m, T> {
    /// Appends a stage running on the next accelerator. The closure
    /// receives the index of the chunk's first element and the chunk
    /// contents, exactly as for [`process_stream`]; it must be a
    /// chunk-local transform (chunk `i`'s output depends only on chunk
    /// `i`'s input) for the pipeline to stay bit-identical to the
    /// sequential stage-by-stage run.
    pub fn stage<F>(self, f: F) -> PipelineBuilder<'m, T>
    where
        F: FnMut(&mut AccelCtx<'_>, u32, &mut [T]) -> Result<(), SimError> + 'm,
    {
        self.stage_named("pipe-stage", f)
    }

    /// Like [`PipelineBuilder::stage`], but names the stage: the name
    /// labels its offload slices on the accelerator trace lane.
    pub fn stage_named<F>(mut self, name: &'static str, f: F) -> PipelineBuilder<'m, T>
    where
        F: FnMut(&mut AccelCtx<'_>, u32, &mut [T]) -> Result<(), SimError> + 'm,
    {
        self.stages.push(PipeStage {
            name,
            modes: ModeSet::new(),
            f: Box::new(f),
        });
        self
    }

    /// Places stage 0 on accelerator `accel` (stage `k` on
    /// `accel + k`). Defaults to 0.
    pub fn base(mut self, accel: u16) -> PipelineBuilder<'m, T> {
        self.base = accel;
        self
    }

    /// Sets the bounded-queue depth between adjacent stages, in chunks
    /// (default [`DEFAULT_PIPE_BUFFERS`]). A producer finishes pushing
    /// chunk `i` only once its consumer has started chunk
    /// `i - buffers`; the wait is charged as backpressure cycles.
    pub fn buffers(mut self, chunks: u32) -> PipelineBuilder<'m, T> {
        self.buffers = chunks;
        self
    }

    /// Sets the elements per chunk handed from stage to stage (default
    /// [`DEFAULT_PIPE_CHUNK`]). Within a stage/chunk item the transfer
    /// is double-buffered in half-chunks.
    pub fn chunk(mut self, elems: u32) -> PipelineBuilder<'m, T> {
        self.chunk_elems = elems;
        self
    }

    /// Streams `len` elements starting at `remote` through every
    /// stage, in chunks, and joins everything.
    ///
    /// Stage/chunk items are dispatched wavefront by wavefront (all
    /// items whose `stage + chunk` sum is equal form one diagonal), so
    /// stage `k` computes chunk `i` while stage `k-1` computes chunk
    /// `i+1` — that overlap is the entire win, the memory image being
    /// bit-identical to running the stages sequentially.
    ///
    /// # Errors
    ///
    /// Fails before anything is armed with [`SimError::BadConfig`] if
    /// mode declarations precede every stage, the queue depth is zero,
    /// or [`Launch::arm`] refuses the run (no stages, more stages than
    /// accelerators from [`PipelineBuilder::base`] up, a bad plan or
    /// recovery policy); otherwise propagates the first stage error or
    /// unrecovered fault.
    pub fn run(self, remote: Addr, len: u32) -> Result<PipeReport, SimError> {
        let PipelineBuilder {
            machine,
            base,
            mut stages,
            buffers,
            chunk_elems,
            launch,
        } = self;
        if !launch.modes.is_empty() {
            return Err(SimError::BadConfig {
                reason: "pipeline mode declarations (.reads/.writes/.updates) must follow \
                         the .stage() they describe"
                    .into(),
            });
        }
        if buffers == 0 {
            return Err(SimError::BadConfig {
                reason: "a pipeline needs at least one buffer between stages".into(),
            });
        }
        let stage_count = stages.len() as u32;
        launch.arm(machine, base, stage_count.try_into().unwrap_or(u16::MAX))?;
        let chunk_elems = chunk_elems.max(1);
        let chunks = len.div_ceil(chunk_elems);
        let elem = T::SIZE as u32;
        // The transfer inside one stage/chunk item double-buffers in
        // half-chunks, so DMA genuinely overlaps compute within the
        // item too.
        let stream = StreamConfig {
            chunk_elems: (chunk_elems / 2).max(1),
            write_back: true,
        };

        let t0 = machine.host_now();
        let s0 = *machine.stats();
        // Per stage/chunk: when the chunk landed in the downstream
        // queue (its consumer may start then), and when the stage
        // started consuming it (its producer's slot frees then).
        let mut pushed = vec![vec![0u64; chunks as usize]; stages.len()];
        let mut popped = vec![vec![0u64; chunks as usize]; stages.len()];
        // (accel, start, end) of every item, for the lane reports.
        let mut runs: Vec<(u16, u64, u64)> = Vec::with_capacity((stage_count * chunks) as usize);
        let mut pending: Vec<OffloadHandle<Result<(), SimError>>> = Vec::new();

        for diagonal in 0..stage_count + chunks.saturating_sub(1) {
            // Within a diagonal, stages run back to front so that with
            // a one-deep queue the consumer's pop time for chunk
            // `i - 1` exists before its producer needs it.
            for k in (0..stages.len()).rev() {
                let Some(i) = diagonal.checked_sub(k as u32) else {
                    continue;
                };
                if i >= chunks {
                    continue;
                }
                let stage_idx = k as u16;
                let accel = base + stage_idx;
                let first = i * chunk_elems;
                let n = chunk_elems.min(len - first);
                let item_remote = remote.element(first, elem)?;
                let input_ready = if k == 0 { 0 } else { pushed[k - 1][i as usize] };
                let queue_slot = if k + 1 < stages.len() && i >= buffers {
                    Some(popped[k + 1][(i - buffers) as usize])
                } else {
                    None
                };
                let stage = &mut stages[k];
                let mut body = |ctx: &mut AccelCtx<'_>, _chunk: u32| {
                    process_stream::<T, _>(ctx, item_remote, n, stream, |ctx, off, slice| {
                        (stage.f)(ctx, first + off, slice)
                    })
                };
                let mut pop_at = 0u64;
                let mut push_at = 0u64;
                let spawned = machine
                    .offload(accel)
                    .label(stage.name)
                    .with_modes(stage.modes.clone())
                    .spawn(|ctx| {
                        // Block until the producer pushed this chunk.
                        let wait = input_ready.saturating_sub(ctx.now());
                        if wait > 0 {
                            ctx.note(EventKind::PipeWait {
                                accel,
                                stage: stage_idx,
                                chunk: i,
                                until: ctx.now() + wait,
                                backpressure: false,
                            });
                            ctx.compute(wait);
                        }
                        pop_at = ctx.now();
                        let result = launch.run_item(ctx, i, &mut body);
                        // Block until the downstream queue has a free slot;
                        // only then is the chunk really pushed.
                        if let Some(pop) = queue_slot {
                            let wait = pop.saturating_sub(ctx.now());
                            if wait > 0 {
                                ctx.note(EventKind::PipeWait {
                                    accel,
                                    stage: stage_idx,
                                    chunk: i,
                                    until: ctx.now() + wait,
                                    backpressure: true,
                                });
                                ctx.compute(wait);
                            }
                        }
                        push_at = ctx.now();
                        result
                    });
                let ran = match spawned {
                    Ok(handle) if handle.peek().is_ok() => {
                        let span = (handle.start(), handle.end(), pop_at, push_at);
                        pending.push(handle);
                        Ok(span)
                    }
                    // A failed attempt occupied the lane to its end; the
                    // host learns of it at join.
                    Ok(handle) => Err(machine
                        .join(handle)
                        .expect_err("peeked an error just above")),
                    Err(e) => Err(e),
                };
                let (start, end, pop, push) = match ran {
                    Ok(span) => span,
                    // A faulted item, or a dead stage accelerator: only
                    // the host can run the item now.
                    Err(SimError::Fault(_)) if launch.fallback => {
                        let start = machine.host_now();
                        let modes = stage.modes.clone();
                        machine
                            .run_host_fallback(accel, i, stage.name, modes, |ctx| body(ctx, i))??;
                        let end = machine.host_now();
                        (start, end, start, end)
                    }
                    Err(e) => return Err(e),
                };
                let run = EventKind::PipeRun {
                    accel,
                    stage: stage_idx,
                    chunk: i,
                    end,
                    last: k + 1 == stages.len(),
                };
                machine.note(start, run);
                runs.push((accel, start, end));
                popped[k][i as usize] = pop;
                pushed[k][i as usize] = push;
            }
        }

        // Join in dispatch order: every result was peeked Ok above.
        for handle in pending {
            machine.join(handle)?;
        }

        let named = stages
            .iter()
            .zip(base..)
            .map(|(stage, accel)| (accel, stage.name));
        let (lanes, finished_at) = fold_lanes(t0, named, &mut runs, |_, _, _| {});
        let (faults, retries, fallbacks) = recovery_since(machine, &s0);
        let stats = machine.stats();
        Ok(PipeReport {
            stages: stage_count as u16,
            chunks,
            buffers,
            chunk_elems,
            cycles: machine.host_now() - t0,
            finished_at,
            lanes,
            input_wait_cycles: stats.pipe_input_wait_cycles - s0.pipe_input_wait_cycles,
            backpressure_cycles: stats.pipe_backpressure_cycles - s0.pipe_backpressure_cycles,
            faults,
            retries,
            fallbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::{FaultPlan, MachineConfig};

    fn prepared(m: &mut Machine, len: u32) -> Addr {
        let remote = m.alloc_main_slice::<u32>(len).unwrap();
        let values: Vec<u32> = (0..len).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        remote
    }

    /// Three chunk-local transforms with per-element compute, shared by
    /// the pipeline and the sequential baseline.
    fn run_sequential(m: &mut Machine, remote: Addr, len: u32, chunk: u32) -> u64 {
        let t0 = m.host_now();
        for stage in 0..3u32 {
            m.offload(0)
                .run(|ctx| {
                    process_stream::<u32, _>(
                        ctx,
                        remote,
                        len,
                        StreamConfig {
                            chunk_elems: (chunk / 2).max(1),
                            write_back: true,
                        },
                        |ctx, base, slice| transform(stage)(ctx, base, slice),
                    )
                })
                .unwrap()
                .unwrap();
        }
        m.host_now() - t0
    }

    fn transform(
        stage: u32,
    ) -> impl FnMut(&mut AccelCtx<'_>, u32, &mut [u32]) -> Result<(), SimError> {
        move |ctx, _, slice: &mut [u32]| {
            for v in slice.iter_mut() {
                *v = match stage {
                    0 => v.wrapping_mul(3),
                    1 => v.wrapping_add(17),
                    _ => *v ^ 0x5a5a_5a5a,
                };
            }
            // Heavy enough per element that the overlap dwarfs the
            // per-item launch overhead.
            ctx.compute(40 * slice.len() as u64);
            Ok(())
        }
    }

    fn run_pipeline(m: &mut Machine, remote: Addr, len: u32, chunk: u32) -> PipeReport {
        m.pipeline()
            .stage_named("s0", transform(0))
            .stage_named("s1", transform(1))
            .stage_named("s2", transform(2))
            .chunk(chunk)
            .run(remote, len)
            .unwrap()
    }

    #[test]
    fn pipeline_matches_sequential_memory() {
        let mut a = Machine::new(MachineConfig::default()).unwrap();
        let ra = prepared(&mut a, 1000);
        let report = run_pipeline(&mut a, ra, 1000, 128);
        let mut b = Machine::new(MachineConfig::default()).unwrap();
        let rb = prepared(&mut b, 1000);
        let seq_cycles = run_sequential(&mut b, rb, 1000, 128);
        a.memory_snapshot()
            .diff(&b.memory_snapshot())
            .unwrap_or_else(|d| panic!("bit-identical output: {d}"));
        assert!(
            report.cycles < seq_cycles,
            "overlap must win: pipeline {} vs sequential {seq_cycles}",
            report.cycles
        );
        assert_eq!(report.stages, 3);
        assert_eq!(report.chunks, 8);
        assert_eq!(a.races_detected(), 0, "{:?}", a.take_race_reports());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let run = || {
            let mut m = Machine::new(MachineConfig::default()).unwrap();
            let remote = prepared(&mut m, 500);
            let report = run_pipeline(&mut m, remote, 500, 64);
            (m.snapshot(), report)
        };
        let (s1, r1) = run();
        let (s2, r2) = run();
        s1.diff(&s2).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(r1, r2);
    }

    #[test]
    fn shallow_queue_backpressures() {
        // Stage 1 is much slower than stage 0: with a one-deep queue
        // the producer must stall; deeper buffers absorb more of it.
        let run = |buffers: u32| {
            let mut m = Machine::new(MachineConfig::default()).unwrap();
            let remote = prepared(&mut m, 1024);
            m.pipeline()
                .stage(|ctx, _, chunk: &mut [u32]| {
                    ctx.compute(chunk.len() as u64);
                    Ok(())
                })
                .stage(|ctx, _, chunk: &mut [u32]| {
                    ctx.compute(64 * chunk.len() as u64);
                    Ok(())
                })
                .buffers(buffers)
                .chunk(128)
                .run(remote, 1024)
                .unwrap()
        };
        let shallow = run(1);
        let deep = run(4);
        assert!(shallow.backpressure_cycles > 0, "{shallow:?}");
        assert!(deep.backpressure_cycles < shallow.backpressure_cycles);
    }

    #[test]
    fn fast_consumer_waits_for_input() {
        // Stage 0 is the bottleneck: stage 1 drains each chunk quickly
        // and then stalls until the producer pushes the next one.
        let mut m = Machine::new(MachineConfig::default()).unwrap();
        let remote = prepared(&mut m, 1024);
        let report = m
            .pipeline()
            .stage(|ctx, _, chunk: &mut [u32]| {
                ctx.compute(64 * chunk.len() as u64);
                Ok(())
            })
            .stage(|ctx, _, chunk: &mut [u32]| {
                ctx.compute(chunk.len() as u64);
                Ok(())
            })
            .chunk(128)
            .run(remote, 1024)
            .unwrap();
        assert!(report.input_wait_cycles > 0, "{report:?}");
        assert_eq!(report.backpressure_cycles, 0, "queue never fills");
    }

    #[test]
    fn too_many_stages_is_bad_config() {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let remote = prepared(&mut m, 64);
        let err = m
            .pipeline()
            .stage(|_, _, _: &mut [u32]| Ok(()))
            .stage(|_, _, _: &mut [u32]| Ok(()))
            .run(remote, 64)
            .unwrap_err();
        assert!(matches!(err, SimError::BadConfig { .. }), "{err:?}");
        let err = m.pipeline::<u32>().run(remote, 64).expect_err("no stages");
        assert!(matches!(err, SimError::BadConfig { .. }), "{err:?}");
    }

    #[test]
    fn faults_recovered_bit_identically() {
        let clean = {
            let mut m = Machine::new(MachineConfig::default()).unwrap();
            let remote = prepared(&mut m, 1000);
            run_pipeline(&mut m, remote, 1000, 128);
            m.memory_snapshot()
        };
        let mut m = Machine::new(MachineConfig::default()).unwrap();
        let remote = prepared(&mut m, 1000);
        let report = m
            .pipeline()
            .stage_named("s0", transform(0))
            .stage_named("s1", transform(1))
            .stage_named("s2", transform(2))
            .chunk(128)
            .faults(FaultPlan::uniform(9, 0.05))
            .retry(4)
            .fallback_host()
            .run(remote, 1000)
            .unwrap();
        clean
            .diff(&m.memory_snapshot())
            .unwrap_or_else(|d| panic!("recovery must not change output: {d}"));
        assert!(report.faults > 0, "the plan should have fired: {report:?}");
    }

    #[test]
    fn report_lanes_cover_every_stage() {
        let mut m = Machine::new(MachineConfig::default()).unwrap();
        let remote = prepared(&mut m, 256);
        let report = run_pipeline(&mut m, remote, 256, 64);
        assert_eq!(report.lanes.len(), 3);
        for (k, lane) in report.lanes.iter().enumerate() {
            assert_eq!(lane.name, ["s0", "s1", "s2"][k]);
            assert_eq!(lane.accel, k as u16);
            assert_eq!(lane.items, 4);
            assert!(lane.busy > 0);
            assert_eq!(
                lane.busy + lane.idle,
                report.lanes[0].busy + report.lanes[0].idle,
                "busy + idle spans the same window on every lane"
            );
        }
        assert_eq!(m.stats().pipe_stage_runs, 12);
        assert_eq!(m.stats().pipe_chunks, 4);
    }
}

//! The simulated machine: host core + accelerators.

use std::ops::Range;

use dma::{DmaEngine, DmaStats, RaceReport};
use memspace::{AccessMode, Addr, MemError, MemoryRegion, ModeSet, Pod, SpaceId, SpaceKind};
use softcache::CacheChoice;

use crate::cost::CostModel;
use crate::ctx::AccelCtx;
use crate::error::SimError;
use crate::event::{CoreId, EventKind, EventLog};
use crate::fault::{FaultError, FaultKind, FaultPlan, FaultPlane, RecoveryKind};
use crate::gather::GatherPlan;
use crate::launch::{Launch, LaunchSettings};
use crate::snapshot::{
    chunk_digest, memory_digest, world_digest, AccelSnapshot, MemorySnapshot, Snapshot, CHUNK,
};
use crate::trace::MachineStats;

/// Machine shape and cost parameters.
///
/// The default is PS3-like: six available accelerators with 256 KiB
/// local stores and a 16 MiB simulated main memory (large enough for
/// every workload in the workspace while keeping regions cheap to
/// clone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of accelerator cores.
    pub accel_count: u16,
    /// Main-memory capacity in bytes.
    pub main_capacity: u32,
    /// Local-store capacity per accelerator, in bytes.
    pub local_store_size: u32,
    /// Per-accelerator staging buffer for synchronous outer accesses.
    pub staging_size: u32,
    /// The cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            accel_count: 6,
            main_capacity: 16 * 1024 * 1024,
            local_store_size: memspace::LOCAL_STORE_SIZE,
            staging_size: 4096,
            cost: CostModel::cell_like(),
        }
    }
}

impl MachineConfig {
    /// A smaller machine for unit tests (1 accelerator, 1 MiB main).
    pub fn small() -> MachineConfig {
        MachineConfig {
            accel_count: 1,
            main_capacity: 1024 * 1024,
            ..MachineConfig::default()
        }
    }
}

#[derive(Debug)]
struct Accel {
    ls: MemoryRegion,
    dma: DmaEngine,
    busy_until: u64,
    busy_cycles: u64,
    staging: Addr,
}

/// A completed-but-unjoined offload thread.
///
/// Produced by [`Machine::offload`]; pass it to [`Machine::join`] to
/// synchronise the host with the accelerator and obtain the closure's
/// result (the `__offload_join` of paper §3).
#[must_use = "an offload handle must be joined for the host clock to observe the accelerator"]
#[derive(Debug)]
pub struct OffloadHandle<R> {
    result: R,
    accel: u16,
    start: u64,
    end: u64,
}

impl<R> OffloadHandle<R> {
    /// The accelerator the thread ran on.
    pub fn accel(&self) -> u16 {
        self.accel
    }

    /// Cycle at which the thread started on the accelerator.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Cycle at which the thread finished on the accelerator.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Cycles the thread occupied the accelerator.
    pub fn elapsed(&self) -> u64 {
        self.end - self.start
    }

    /// The closure's result, without joining: the handle stays
    /// joinable and the host clock does not move. Runtimes that keep
    /// many handles in flight (the pipeline) peek to learn whether a
    /// finished item faulted before deciding to launch its dependents.
    pub fn peek(&self) -> &R {
        &self.result
    }
}

/// A fluent, in-flight offload: created by [`Machine::offload`], it
/// accumulates the label, the cache choice and the
/// [`LaunchSettings`] (fault plan, access modes) and launches with
/// [`OffloadBuilder::spawn`] (returning a joinable [`OffloadHandle`])
/// or [`OffloadBuilder::run`] (spawn + join in one step).
///
/// ```
/// use simcell::{Machine, MachineConfig, SimError};
///
/// # fn main() -> Result<(), SimError> {
/// let mut machine = Machine::new(MachineConfig::small())?;
/// let handle = machine
///     .offload(0)
///     .label("calculateStrategy")
///     .spawn(|ctx| ctx.compute(500))?;
/// machine.join(handle);
/// # Ok(())
/// # }
/// ```
#[must_use = "an offload builder does nothing until spawn or run"]
#[derive(Debug)]
pub struct OffloadBuilder<'m> {
    machine: &'m mut Machine,
    accel: u16,
    gathers: Vec<GatherPlan>,
    /// Why the first bad gather cannot run; [`OffloadBuilder::spawn`]
    /// returns it before anything is armed.
    gather_error: Option<MemError>,
    launch: Launch,
}

impl LaunchSettings for OffloadBuilder<'_> {
    fn launch_mut(&mut self) -> &mut Launch {
        &mut self.launch
    }
}

impl<'m> OffloadBuilder<'m> {
    /// Names the offload: the label shows up on its trace slice (e.g.
    /// `"calculateStrategy"` in the Figure 2 frame) instead of the
    /// generic `"offload"`. Cycle accounting is identical.
    pub fn label(mut self, name: &'static str) -> OffloadBuilder<'m> {
        self.launch.label = name;
        self
    }

    /// Installs the software cache `choice` describes — hand-picked or
    /// autotuned — as the one cache the offload's code can reach. The
    /// cache is built in the accelerator's local store when the block
    /// starts (allocation only — zero cycles), every
    /// [`AccelCtx::cached_read_pod`] / [`AccelCtx::cached_write_pod`]
    /// (and their byte forms) goes through it, and its dirty lines are
    /// flushed, on the accelerator clock, when the closure returns. With
    /// the default [`CacheChoice::Naive`] nothing is built and the
    /// `cached_*` accessors are plain outer accesses. [`Launch::arm`]
    /// refuses a choice the local store cannot hold before anything is
    /// charged.
    pub fn cache(mut self, choice: CacheChoice) -> OffloadBuilder<'m> {
        self.launch.cache = choice;
        self
    }

    /// Declares a gather the kernel needs up front: `indices` into the
    /// `elem_size`-byte-element array at `base` in main memory.
    ///
    /// The plan executes on the accelerator clock right before the
    /// kernel closure runs — coalesced into the fewest DMA descriptors
    /// that cover the index list and drained with a single wait — and
    /// the packed local buffer is handed to the kernel via
    /// [`AccelCtx::gathered`] in declaration order. This replaces the
    /// hand-rolled per-element accessor loop for irregular inputs whose
    /// index list is known at launch; for data-*dependent* gathers
    /// (e.g. a BFS frontier discovered mid-kernel) call
    /// [`AccelCtx::gather`] directly.
    ///
    /// Declaring a gather also declares its main-memory span as
    /// [`reads`](LaunchSettings::reads): a gather is a declared read,
    /// so the offload joins the strict access-mode contract and every
    /// *store* the kernel makes must be declared too. A span that
    /// leaves main memory is refused by [`OffloadBuilder::spawn`].
    pub fn gather(mut self, base: Addr, elem_size: u32, indices: Vec<u32>) -> OffloadBuilder<'m> {
        let plan = GatherPlan::new(base, elem_size, indices);
        let declared = plan.span().and_then(|span| {
            if let Some((start, len)) = span {
                // Fails unless the whole span lies in main memory.
                self.machine.main.read_bytes(start, len)?;
                self.launch.modes.declare(start, len, AccessMode::Read);
            }
            Ok(())
        });
        if let Err(e) = declared {
            self.gather_error.get_or_insert(e);
        }
        self.gathers.push(plan);
        self
    }

    /// Launches the closure as an offload thread and returns the
    /// joinable handle (see [`Machine::join`]).
    ///
    /// The closure runs to completion immediately (the simulation is
    /// sequential) against an [`AccelCtx`] whose clock starts when the
    /// accelerator is free; the host is charged only the launch
    /// overhead and keeps its own clock. Local-store allocations made
    /// inside the closure are released when it returns.
    ///
    /// # Errors
    ///
    /// Fails with the [`SimError::Memory`] error of the first declared
    /// gather whose span leaves main memory, or if [`Launch::arm`]
    /// rejects the launch (the accelerator does not exist, the local
    /// store cannot hold the cache, or the fault plan is bad).
    pub fn spawn<R>(
        self,
        f: impl FnOnce(&mut AccelCtx<'_>) -> R,
    ) -> Result<OffloadHandle<R>, SimError> {
        if let Some(e) = self.gather_error {
            return Err(e.into());
        }
        self.launch.arm(self.machine, self.accel, 1)?;
        self.machine
            .launch(self.accel, self.launch, self.gathers, f)
    }

    /// Launches and joins immediately (no host work in between) — the
    /// convenience for purely sequential offload use.
    ///
    /// # Errors
    ///
    /// As for [`OffloadBuilder::spawn`].
    pub fn run<R>(self, f: impl FnOnce(&mut AccelCtx<'_>) -> R) -> Result<R, SimError> {
        let handle = OffloadBuilder {
            machine: &mut *self.machine,
            ..self
        }
        .spawn(f)?;
        Ok(self.machine.join(handle))
    }

    /// Hands the offload to a front-end that launches it on several
    /// accelerators, such as `offload_rt`'s tile scheduler: checks and
    /// arms the [`Launch`] for `lanes` accelerators from the builder's
    /// own (`None`: every one from there up), then moves the machine,
    /// the lane range and the launch across whole. Builder-declared
    /// gathers run once per launch and do not fan out, so they are
    /// refused.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] if gathers were declared; otherwise as
    /// for [`Launch::arm`].
    pub fn fan_out(
        self,
        lanes: Option<u16>,
    ) -> Result<(&'m mut Machine, Range<u16>, Launch), SimError> {
        if !self.gathers.is_empty() {
            return Err(SimError::BadConfig {
                reason: "builder-declared gathers do not fan out; gather inside each item \
                         with AccelCtx::gather"
                    .into(),
            });
        }
        let lanes = lanes.unwrap_or_else(|| self.machine.accel_count().saturating_sub(self.accel));
        self.launch.arm(self.machine, self.accel, lanes)?;
        Ok((self.machine, self.accel..self.accel + lanes, self.launch))
    }
}

/// The simulated heterogeneous machine.
///
/// See the crate documentation for the execution model and an example.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    main: MemoryRegion,
    accels: Vec<Accel>,
    host_now: u64,
    events: EventLog,
    stats: MachineStats,
    accesses: softcache::AccessTrace,
    faults: FaultPlane,
    world_seed: u64,
}

// Workers in a sim farm own machines outright and carry them across OS
// threads; keep that a compile-time guarantee rather than an accident
// of today's field types.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Machine>();

impl Machine {
    /// Builds a machine.
    ///
    /// # Errors
    ///
    /// Rejects configurations with no accelerators, no main memory,
    /// staging buffers that do not fit the local store, or a cost model
    /// that fails [`CostModel::check`].
    pub fn new(config: MachineConfig) -> Result<Machine, SimError> {
        config.cost.check()?;
        if config.accel_count == 0 {
            return Err(SimError::BadConfig {
                reason: "at least one accelerator is required".into(),
            });
        }
        if config.main_capacity == 0 {
            return Err(SimError::BadConfig {
                reason: "main memory capacity must be positive".into(),
            });
        }
        if config.staging_size == 0 || config.staging_size >= config.local_store_size {
            return Err(SimError::BadConfig {
                reason: format!(
                    "staging size {} must be positive and smaller than the local store ({})",
                    config.staging_size, config.local_store_size
                ),
            });
        }
        let main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, config.main_capacity);
        let mut accels = Vec::with_capacity(usize::from(config.accel_count));
        for index in 0..config.accel_count {
            let space = SpaceId::local_store(index);
            let mut ls = MemoryRegion::new(
                space,
                SpaceKind::LocalStore { accel: index },
                config.local_store_size,
            );
            let staging = ls.alloc(config.staging_size, memspace::DMA_ALIGN)?;
            let mut dma = DmaEngine::with_timing(space, config.cost.dma);
            dma.set_race_mode(dma::RaceMode::Record);
            accels.push(Accel {
                ls,
                dma,
                busy_until: 0,
                busy_cycles: 0,
                staging,
            });
        }
        Ok(Machine {
            config,
            main,
            accels,
            host_now: 0,
            events: EventLog::new(),
            stats: MachineStats::default(),
            accesses: softcache::AccessTrace::new(),
            faults: FaultPlane::new(),
            world_seed: 0,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// Number of accelerators.
    pub fn accel_count(&self) -> u16 {
        self.config.accel_count
    }

    /// The host core's current cycle.
    pub fn host_now(&self) -> u64 {
        self.host_now
    }

    /// The event log (disabled by default).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Mutable access to the event log, e.g. to enable it.
    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// The access trace capturing offload outer/cached accesses for the
    /// cache-policy autotuner (disabled by default; allocation-free
    /// while disabled). Hand its records to `softcache::autotune`.
    pub fn access_trace(&self) -> &softcache::AccessTrace {
        &self.accesses
    }

    /// Mutable access to the access trace, e.g. to enable capture with
    /// `access_trace_mut().set_enabled(true)` before an offload.
    pub fn access_trace_mut(&mut self) -> &mut softcache::AccessTrace {
        &mut self.accesses
    }

    /// The always-on machine counter block (see [`MachineStats`]).
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Resets the counter block (e.g. between measured phases). The
    /// event log, clocks, and memories are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::default();
    }

    /// Restores the machine to the state a fresh [`Machine::new`] with
    /// the same configuration would have, then tags it with `seed`:
    /// every memory region is zeroed and its allocator rewound, the DMA
    /// engines, clocks, stats, event log, access trace, and fault plane
    /// all return to their as-constructed defaults, and the per-accel
    /// staging buffers are re-carved at their original addresses.
    ///
    /// The backing storage is reused, so a reset allocates nothing —
    /// this is the arena-reuse path the sim farm leans on to recycle
    /// worker machines between worlds. A world run on a recycled
    /// machine is bit-identical to the same world run on a fresh one
    /// (pinned by test).
    pub fn reset_for_seed(&mut self, seed: u64) {
        self.host_now = 0;
        self.main.reset();
        for accel in &mut self.accels {
            accel.ls.reset();
            accel.dma.reset();
            accel.busy_until = 0;
            accel.busy_cycles = 0;
            // The staging carve-out succeeded at construction against
            // the same capacity, so it cannot fail after a rewind; it
            // lands back at the identical address.
            accel.staging = accel
                .ls
                .alloc(self.config.staging_size, memspace::DMA_ALIGN)
                .expect("staging buffer fit at construction");
        }
        self.events.clear();
        self.events.set_enabled(false);
        self.stats = MachineStats::default();
        self.accesses.clear();
        self.accesses.set_enabled(false);
        self.faults.reset();
        self.world_seed = seed;
    }

    /// The seed the machine was last reset for (0 on a fresh machine).
    pub fn world_seed(&self) -> u64 {
        self.world_seed
    }

    /// A digest of the observable end-of-run state: every allocated
    /// main-memory byte, the host clock, and each accelerator's
    /// busy-cycle total — the [`Snapshot::world_hash`] of
    /// [`Machine::snapshot`], computed in place without allocating. Two
    /// runs that diverge anywhere the simulation can observe produce
    /// different digests, which is what the farm determinism gate
    /// compares between a farm world and its solo twin. The digest is
    /// four 64-bit lanes over little-endian words with a length
    /// finaliser, applied per [`CHUNK`] of memory and then over the
    /// chunk digests, the clock and the busy cycles (see
    /// [`crate::snapshot`]).
    pub fn world_hash(&self) -> u64 {
        world_digest(
            self.chunk_digests(),
            self.host_now,
            self.accels.iter().map(|accel| accel.busy_cycles),
        )
    }

    /// A digest of every allocated main-memory byte —
    /// [`Machine::world_hash`] without the clocks, and the
    /// [`MemorySnapshot::hash`] of [`Machine::memory_snapshot`], computed
    /// in place without allocating. Two executions that schedule the
    /// same work differently (e.g. a pipeline vs. the same stages run
    /// sequentially) necessarily differ in busy-cycle totals, so
    /// `world_hash` cannot compare them; `memory_hash` is the "same
    /// final world, different schedule" check.
    pub fn memory_hash(&self) -> u64 {
        memory_digest(self.chunk_digests()).finish()
    }

    /// Everything this run leaves behind that a second run of the same
    /// work must reproduce: clocks, counters, DMA statistics, the race
    /// count, main memory in digested chunks and, when it is on, the
    /// event log. Compare two with [`Snapshot::diff`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            host_now: self.host_now,
            accels: self
                .accels
                .iter()
                .map(|accel| AccelSnapshot {
                    busy_cycles: accel.busy_cycles,
                    dma: accel.dma.stats(),
                })
                .collect(),
            stats: self.stats,
            races: self.races_detected(),
            memory: self.memory_snapshot(),
            events: self
                .events
                .is_enabled()
                .then(|| self.events.events().to_vec()),
        }
    }

    /// The memory-only view of [`Machine::snapshot`], for runs that
    /// schedule the same work differently.
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        let extent = self.extent();
        MemorySnapshot {
            len: extent.len() as u32,
            chunks: self.chunk_digests().collect(),
        }
    }

    /// The allocated main-memory extent.
    fn extent(&self) -> &[u8] {
        let used = self.main.capacity() - self.main.bytes_free();
        self.main
            .read_bytes(Addr::new(SpaceId::MAIN, 0), used)
            .expect("the allocated extent is in bounds")
    }

    /// The digest of each [`CHUNK`] of the allocated extent, computed
    /// on demand.
    fn chunk_digests(&self) -> impl Iterator<Item = u64> + '_ {
        self.extent().chunks(CHUNK as usize).map(chunk_digest)
    }

    // ---- fault plane -------------------------------------------------------

    /// Arms the deterministic fault plane with `plan` (see
    /// [`crate::fault`]): the plan's RNG stream is reset to its seed and
    /// every accelerator is revived. With no plan installed, every
    /// fault hook is a single always-false branch — the zero-cost
    /// guarantee the determinism tests pin.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] if the plan fails [`FaultPlan::check`];
    /// nothing is installed then.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.check()?;
        self.faults.install(plan);
        Ok(())
    }

    /// Disarms the fault plane and revives every accelerator.
    pub fn clear_fault_plan(&mut self) {
        self.faults.clear();
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.plan()
    }

    /// True if the fault plane has killed accelerator `accel`.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn accel_is_dead(&self, accel: u16) -> Result<bool, SimError> {
        self.check_accel(accel)?;
        Ok(self.faults.is_dead(accel))
    }

    /// Cycles accelerator `accel` has spent executing offload threads.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn accel_busy_cycles(&self, accel: u16) -> Result<u64, SimError> {
        self.check_accel(accel)?;
        Ok(self.accels[usize::from(accel)].busy_cycles)
    }

    /// Peak local-store allocation (bytes) accelerator `accel` ever
    /// reached, across scoped offload blocks.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn ls_high_water(&self, accel: u16) -> Result<u32, SimError> {
        self.check_accel(accel)?;
        Ok(self.accels[usize::from(accel)].ls.alloc_high_water())
    }

    /// Opens a named span on the host timeline (zero simulated cycles;
    /// a no-op unless the event log is enabled). Pair with
    /// [`Machine::span_end`] using the same `name`.
    pub fn span_start(&mut self, name: &'static str) {
        let core = CoreId::Host;
        self.note(self.host_now, EventKind::SpanStart { core, name });
    }

    /// Closes a named span on the host timeline.
    pub fn span_end(&mut self, name: &'static str) {
        let core = CoreId::Host;
        self.note(self.host_now, EventKind::SpanEnd { core, name });
    }

    /// Counts `kind` in [`MachineStats`] (see [`MachineStats::count`])
    /// and, when the event log is on, records it at cycle `at`: the one
    /// step by which the machine and its front-ends, such as
    /// `offload_rt`'s tile scheduler and pipeline, report what happened.
    /// Zero simulated cost.
    #[inline(always)]
    pub fn note(&mut self, at: u64, kind: EventKind) {
        self.stats.count(at, &kind);
        self.events.record(at, kind);
    }

    /// Records a static annotation at the host's current cycle without
    /// allocating (see [`EventLog::note_static`]).
    pub fn note_static(&mut self, text: &'static str) {
        self.events.note_static(self.host_now, text);
    }

    pub(crate) fn check_accel(&self, index: u16) -> Result<(), SimError> {
        if index >= self.config.accel_count {
            return Err(SimError::NoSuchAccel {
                index,
                count: self.config.accel_count,
            });
        }
        Ok(())
    }

    // ---- main memory (host view) -----------------------------------------

    /// Direct, *cost-free* access to main memory, for scenario setup and
    /// result inspection outside the measured region.
    #[inline]
    pub fn main(&self) -> &MemoryRegion {
        &self.main
    }

    /// Direct, cost-free mutable access to main memory (setup only).
    #[inline]
    pub fn main_mut(&mut self) -> &mut MemoryRegion {
        &mut self.main
    }

    /// Allocates `size` bytes of main memory.
    ///
    /// # Errors
    ///
    /// Fails when main memory is exhausted.
    pub fn alloc_main(&mut self, size: u32, align: u32) -> Result<Addr, SimError> {
        Ok(self.main.alloc(size, align)?)
    }

    /// Allocates room for one `T` in main memory.
    ///
    /// # Errors
    ///
    /// As for [`Machine::alloc_main`].
    pub fn alloc_main_pod<T: Pod>(&mut self) -> Result<Addr, SimError> {
        Ok(self.main.alloc_pod::<T>()?)
    }

    /// Allocates room for `count` consecutive `T`s in main memory.
    ///
    /// # Errors
    ///
    /// As for [`Machine::alloc_main`].
    pub fn alloc_main_slice<T: Pod>(&mut self, count: u32) -> Result<Addr, SimError> {
        Ok(self.main.alloc_pod_slice::<T>(count)?)
    }

    fn host_cycles(&self, bytes: u32) -> u64 {
        // Host accesses go through a conventional cache hierarchy; charge
        // per cache line touched (amortised cost per 64-byte line).
        self.config.cost.host_mem_access * u64::from(bytes.div_ceil(64).max(1))
    }

    /// Reads a `T` from main memory on the host, charging host time.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_read_pod<T: Pod>(&mut self, addr: Addr) -> Result<T, SimError> {
        self.host_now += self.host_cycles(T::SIZE as u32);
        self.stats.host_bytes_read += T::SIZE as u64;
        Ok(self.main.read_pod(addr)?)
    }

    /// Writes a `T` to main memory on the host, charging host time.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_write_pod<T: Pod>(&mut self, addr: Addr, value: &T) -> Result<(), SimError> {
        self.host_now += self.host_cycles(T::SIZE as u32);
        self.stats.host_bytes_written += T::SIZE as u64;
        Ok(self.main.write_pod(addr, value)?)
    }

    /// Reads `count` consecutive `T`s on the host, charging host time.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_read_slice<T: Pod>(&mut self, addr: Addr, count: u32) -> Result<Vec<T>, SimError> {
        self.host_now += self.host_cycles((T::SIZE as u32) * count);
        self.stats.host_bytes_read += (T::SIZE as u64) * u64::from(count);
        Ok(self.main.read_pod_slice(addr, count)?)
    }

    /// Writes consecutive `T`s on the host, charging host time.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_write_slice<T: Pod>(&mut self, addr: Addr, values: &[T]) -> Result<(), SimError> {
        self.host_now += self.host_cycles((T::SIZE * values.len()) as u32);
        self.stats.host_bytes_written += (T::SIZE * values.len()) as u64;
        Ok(self.main.write_pod_slice(addr, values)?)
    }

    /// Reads raw bytes on the host, charging host time per cache line.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_read_bytes(&mut self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        self.host_now += self.host_cycles(out.len() as u32);
        self.stats.host_bytes_read += out.len() as u64;
        Ok(self.main.read_into(addr, out)?)
    }

    /// Writes raw bytes on the host, charging host time per cache line.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn host_write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        self.host_now += self.host_cycles(data.len() as u32);
        self.stats.host_bytes_written += data.len() as u64;
        Ok(self.main.write_bytes(addr, data)?)
    }

    /// Charges `cycles` of host computation.
    #[inline]
    pub fn host_compute(&mut self, cycles: u64) {
        self.host_now += cycles;
    }

    // ---- offload ----------------------------------------------------------

    /// Begins a fluent offload onto accelerator `accel`.
    ///
    /// The returned [`OffloadBuilder`] carries the optional label,
    /// cache choice and launch settings; finish it with
    /// [`OffloadBuilder::spawn`] (for a joinable handle) or
    /// [`OffloadBuilder::run`] (spawn + join):
    ///
    /// ```
    /// use simcell::{Machine, MachineConfig, SimError};
    ///
    /// # fn main() -> Result<(), SimError> {
    /// let mut machine = Machine::new(MachineConfig::small())?;
    /// let cycles = machine
    ///     .offload(0)
    ///     .label("ai")
    ///     .run(|ctx| {
    ///         let t0 = ctx.now();
    ///         ctx.compute(100);
    ///         ctx.now() - t0
    ///     })?;
    /// assert_eq!(cycles, 100);
    /// # Ok(())
    /// # }
    /// ```
    pub fn offload(&mut self, accel: u16) -> OffloadBuilder<'_> {
        OffloadBuilder {
            machine: self,
            accel,
            gathers: Vec::new(),
            gather_error: None,
            launch: Launch::default(),
        }
    }

    /// The full launch path every offload goes through once
    /// [`Launch::arm`] has checked it: charge the host the launch
    /// overhead, run the closure on the accelerator clock
    /// (installing and flushing the launch's cache around it), and
    /// hand back the joinable handle.
    fn launch<R>(
        &mut self,
        accel: u16,
        launch: Launch,
        gathers: Vec<GatherPlan>,
        f: impl FnOnce(&mut AccelCtx<'_>) -> R,
    ) -> Result<OffloadHandle<R>, SimError> {
        // A launch on a known-dead accelerator fails fast and free: the
        // runtime already knows, so no launch overhead is charged.
        if self.faults.active() && self.faults.is_dead(accel) {
            return Err(FaultError::AccelDead { accel }.into());
        }
        self.host_now += self.config.cost.offload_launch;
        // Fault plane: one death roll and one stall roll per launch (a
        // zero rate skips its draw entirely). A fresh death still costs
        // the host the launch overhead it just paid to discover it.
        if self.faults.active() {
            let plan = *self.faults.plan().expect("active plane has a plan");
            if self.faults.roll(plan.accel_death) {
                self.faults.mark_dead(accel);
                let fault = FaultKind::AccelDeath;
                self.note(self.host_now, EventKind::FaultInjected { accel, fault });
                // In-flight transfers die with the core.
                self.accels[usize::from(accel)].dma.purge();
                return Err(FaultError::AccelDead { accel }.into());
            }
        }
        let span = self.stats.offloads as u32;
        let mut start = self
            .host_now
            .max(self.accels[usize::from(accel)].busy_until);
        if self.faults.active() {
            let plan = *self.faults.plan().expect("active plane has a plan");
            if self.faults.roll(plan.accel_stall) {
                let cycles = plan.stall_cycles;
                let fault = FaultKind::AccelStall { cycles };
                self.note(start, EventKind::FaultInjected { accel, fault });
                start += cycles;
            }
        }
        let name = launch.label;
        self.note(start, EventKind::OffloadStart { accel, name });
        let mark = self.accels[usize::from(accel)].ls.save_alloc();
        let mut ctx = self.accel_ctx(accel, start, span, launch.modes);
        // Building the cache is allocation only (zero cycles); the
        // closure, and the final dirty-line flush, run on the
        // accelerator clock. Builder-declared gather plans execute
        // first, on the accelerator clock, so their packed buffers are
        // ready when the kernel enters (see AccelCtx::gathered).
        let outcome = match ctx.install_cache(&launch.cache) {
            Err(e) => Err(e),
            Ok(()) => match gathers.iter().try_for_each(|plan| {
                let local = ctx.gather(plan)?;
                ctx.gathered.push(local);
                Ok(())
            }) {
                Err(e) => Err(e),
                Ok(()) => {
                    let result = f(&mut ctx);
                    match ctx.cache_flush() {
                        Err(e) => Err(e),
                        Ok(()) => Ok((result, ctx.now)),
                    }
                }
            },
        };
        let slot = &mut self.accels[usize::from(accel)];
        let (result, end) = match outcome {
            Ok(v) => v,
            Err(e) => {
                slot.ls.restore_alloc(mark);
                return Err(e);
            }
        };
        let bytes = slot.ls.alloc_high_water();
        slot.ls.restore_alloc(mark);
        slot.busy_until = end;
        slot.busy_cycles += end - start;
        self.stats.accel_busy_cycles += end - start;
        self.note(end, EventKind::LsHighWater { accel, bytes });
        self.note(end, EventKind::OffloadEnd { accel });
        Ok(OffloadHandle {
            result,
            accel,
            start,
            end,
        })
    }

    /// The execution context of accelerator `accel` starting at cycle
    /// `now` — the one constructor behind every offload launch and host
    /// fallback. `span` attributes its outer accesses in the autotuner's
    /// access trace; `modes` are the access modes it is held to.
    fn accel_ctx(&mut self, accel: u16, now: u64, span: u32, modes: ModeSet) -> AccelCtx<'_> {
        let slot = &mut self.accels[usize::from(accel)];
        AccelCtx {
            now,
            cost: self.config.cost,
            accel_index: accel,
            main: &mut self.main,
            ls: &mut slot.ls,
            dma: &mut slot.dma,
            staging: slot.staging,
            staging_size: self.config.staging_size,
            events: &mut self.events,
            stats: &mut self.stats,
            accesses: &mut self.accesses,
            span,
            cache: None,
            faults: &mut self.faults,
            fault_sticky: None,
            put_journal: Vec::new(),
            modes,
            gathered: Vec::new(),
        }
    }

    /// Joins an offload thread: the host blocks until the accelerator
    /// finished, then resumes with the closure's result.
    pub fn join<R>(&mut self, handle: OffloadHandle<R>) -> R {
        self.host_now = self.host_now.max(handle.end) + self.config.cost.join_overhead;
        let accel = handle.accel;
        self.note(self.host_now, EventKind::Join { accel });
        handle.result
    }

    /// Runs `f` *on the host*, as the degraded form of offload item
    /// `item` (a tile, or a pipeline stage's chunk) whose accelerator has
    /// failed it — the recovery layer's last resort (see
    /// [`RecoverySettings`](crate::RecoverySettings)) and its one
    /// host-fallback step: the fallback is counted and noted on the
    /// faults lane, then run.
    ///
    /// The closure runs against accelerator `accel`'s context (its
    /// local store and DMA engine still work as scratch even when the
    /// core itself is dead) starting at the *host's* current cycle,
    /// with fault injection suppressed — the host does not share the
    /// accelerators' failure modes. The honest penalty is charged by
    /// scaling the elapsed accelerator-style cycles by
    /// [`CostModel::host_fallback_factor`] on the host clock; the
    /// accelerator's busy accounting is untouched because it did no
    /// work.
    ///
    /// The fallback honours the same access-mode declarations (`modes`)
    /// the failed offload ran under: replaying a tile on the host must
    /// not be allowed to store where the accelerator could not.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist, or with [`SimError::BadConfig`]
    /// if the penalty does not fit the host clock; the clock is then
    /// left where the fallback started, and its span is closed there.
    pub fn run_host_fallback<R>(
        &mut self,
        accel: u16,
        item: u32,
        name: &'static str,
        modes: ModeSet,
        f: impl FnOnce(&mut AccelCtx<'_>) -> R,
    ) -> Result<R, SimError> {
        self.check_accel(accel)?;
        let start = self.host_now;
        let recovery = RecoveryKind::HostFallback { tile: item };
        self.note(start, EventKind::RecoveryApplied { accel, recovery });
        let core = CoreId::Host;
        self.note(start, EventKind::SpanStart { core, name });
        self.faults.push_suppress();
        let mark = self.accels[usize::from(accel)].ls.save_alloc();
        // Fallbacks are not offload spans; keep them out of the
        // autotuner's per-span attribution.
        let mut ctx = self.accel_ctx(accel, start, u32::MAX, modes);
        let result = f(&mut ctx);
        let elapsed = ctx.now - start;
        self.accels[usize::from(accel)].ls.restore_alloc(mark);
        self.faults.pop_suppress();
        let factor = self.config.cost.host_fallback_factor;
        let charge = elapsed
            .checked_mul(factor)
            .and_then(|penalty| Some((penalty, start.checked_add(penalty)?)));
        // The span closes either way: at the charged clock, or where it
        // opened when the charge does not fit the clock.
        self.note(
            charge.map_or(start, |(_, end)| end),
            EventKind::SpanEnd { core, name },
        );
        let Some((penalty, end)) = charge else {
            return Err(SimError::BadConfig {
                reason: format!(
                    "a host fallback of {elapsed} cycles at a {factor}x penalty overflows \
                     the host clock at cycle {start}"
                ),
            });
        };
        self.host_now = end;
        self.stats.recovery_fallback_cycles += penalty;
        Ok(result)
    }

    /// The cycle at which accelerator `accel` finishes its last launched
    /// offload (0 if it never ran one). Schedulers use this to pick the
    /// least-loaded accelerator before committing a launch.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn accel_free_at(&self, accel: u16) -> Result<u64, SimError> {
        self.check_accel(accel)?;
        Ok(self.accels[usize::from(accel)].busy_until)
    }

    // ---- inspection --------------------------------------------------------

    /// DMA statistics for one accelerator.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn dma_stats(&self, accel: u16) -> Result<DmaStats, SimError> {
        self.check_accel(accel)?;
        Ok(self.accels[usize::from(accel)].dma.stats())
    }

    /// Drains DMA race reports from every accelerator.
    pub fn take_race_reports(&mut self) -> Vec<RaceReport> {
        let mut all = Vec::new();
        for accel in &mut self.accels {
            all.extend(accel.dma.take_race_reports());
        }
        all
    }

    /// Total races detected across all accelerators (including drained
    /// ones).
    pub fn races_detected(&self) -> u64 {
        self.accels
            .iter()
            .map(|a| a.dma.race_checker().detected())
            .sum()
    }

    /// Read-only view of an accelerator's local store.
    ///
    /// # Errors
    ///
    /// Fails if `accel` does not exist.
    pub fn local_store(&self, accel: u16) -> Result<&MemoryRegion, SimError> {
        self.check_accel(accel)?;
        Ok(&self.accels[usize::from(accel)].ls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    #[test]
    fn config_validation() {
        let bad = MachineConfig {
            accel_count: 0,
            ..MachineConfig::default()
        };
        assert!(matches!(Machine::new(bad), Err(SimError::BadConfig { .. })));
        let bad = MachineConfig {
            staging_size: 0,
            ..MachineConfig::default()
        };
        assert!(matches!(Machine::new(bad), Err(SimError::BadConfig { .. })));
        let bad = MachineConfig {
            main_capacity: 0,
            ..MachineConfig::default()
        };
        assert!(matches!(Machine::new(bad), Err(SimError::BadConfig { .. })));
    }

    #[test]
    fn host_accesses_charge_time() {
        let mut m = machine();
        let a = m.alloc_main_pod::<u64>().unwrap();
        let t0 = m.host_now();
        m.host_write_pod(a, &5u64).unwrap();
        let t1 = m.host_now();
        assert_eq!(t1 - t0, m.cost().host_mem_access);
        assert_eq!(m.host_read_pod::<u64>(a).unwrap(), 5);
    }

    #[test]
    fn host_slice_access_charges_per_cache_line() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(64).unwrap(); // 256 bytes = 4 lines
        let t0 = m.host_now();
        m.host_read_slice::<u32>(a, 64).unwrap();
        assert_eq!(m.host_now() - t0, 4 * m.cost().host_mem_access);
    }

    #[test]
    fn setup_access_is_free() {
        let mut m = machine();
        let a = m.alloc_main_pod::<u32>().unwrap();
        m.main_mut().write_pod(a, &9u32).unwrap();
        assert_eq!(m.host_now(), 0);
        assert_eq!(m.main().read_pod::<u32>(a).unwrap(), 9);
    }

    #[test]
    fn offload_runs_in_parallel_with_host() {
        let mut m = machine();
        let handle = m
            .offload(0)
            .spawn(|ctx| {
                ctx.compute(10_000);
            })
            .unwrap();
        // Host does 4k cycles of its own work; the accel took 10k.
        m.host_compute(4_000);
        let host_before_join = m.host_now();
        m.join(handle);
        // Join waits for the accelerator, not host+accel serially.
        assert!(m.host_now() >= 10_000);
        assert!(m.host_now() < host_before_join + 10_000);
    }

    #[test]
    fn join_is_free_when_accel_already_finished() {
        let mut m = machine();
        let handle = m.offload(0).spawn(|ctx| ctx.compute(100)).unwrap();
        m.host_compute(50_000);
        let before = m.host_now();
        m.join(handle);
        assert_eq!(m.host_now(), before + m.cost().join_overhead);
    }

    #[test]
    fn sequential_offloads_to_same_accel_queue_up() {
        let mut m = machine();
        let h1 = m.offload(0).spawn(|ctx| ctx.compute(5_000)).unwrap();
        let h2 = m.offload(0).spawn(|ctx| ctx.compute(5_000)).unwrap();
        assert!(h2.start() >= h1.end(), "same accelerator serialises");
        m.join(h1);
        m.join(h2);
    }

    #[test]
    fn offloads_to_different_accels_overlap() {
        let mut m = Machine::new(MachineConfig::default()).unwrap();
        let h1 = m.offload(0).spawn(|ctx| ctx.compute(5_000)).unwrap();
        let h2 = m.offload(1).spawn(|ctx| ctx.compute(5_000)).unwrap();
        assert!(h2.start() < h1.end(), "different accelerators overlap");
        m.join(h1);
        m.join(h2);
        assert!(
            m.host_now() < 12_000,
            "parallel, not serial: {}",
            m.host_now()
        );
    }

    #[test]
    fn outer_access_round_trips_through_dma() {
        let mut m = machine();
        let a = m.alloc_main_pod::<u32>().unwrap();
        m.main_mut().write_pod(a, &123u32).unwrap();
        let result = m
            .offload(0)
            .run(|ctx| -> Result<u32, SimError> {
                let start = ctx.now();
                let v: u32 = ctx.outer_read_pod(a)?;
                let cost = ctx.now() - start;
                // A full DMA round trip: far more than a local access.
                assert!(cost > ctx.cost().dma.latency);
                ctx.outer_write_pod(a, &(v * 2))?;
                Ok(v)
            })
            .unwrap()
            .unwrap();
        assert_eq!(result, 123);
        assert_eq!(m.main().read_pod::<u32>(a).unwrap(), 246);
        let stats = m.dma_stats(0).unwrap();
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.puts, 1);
    }

    #[test]
    fn local_allocations_are_scoped_to_the_offload() {
        let mut m = machine();
        let first = m
            .offload(0)
            .run(|ctx| ctx.alloc_local(1024, 16).unwrap())
            .unwrap();
        let second = m
            .offload(0)
            .run(|ctx| ctx.alloc_local(1024, 16).unwrap())
            .unwrap();
        assert_eq!(first, second, "local data died with the first offload");
    }

    #[test]
    fn local_store_exhaustion_surfaces() {
        let mut m = machine();
        let result = m
            .offload(0)
            .run(|ctx| ctx.alloc_local(512 * 1024, 16))
            .unwrap();
        assert!(matches!(result, Err(SimError::Memory(_))));
    }

    #[test]
    fn explicit_dma_with_tags_works_in_ctx() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(16).unwrap();
        let values: Vec<u32> = (0..16).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        let out = m
            .offload(0)
            .run(|ctx| -> Result<Vec<u32>, SimError> {
                let local = ctx.alloc_local_slice::<u32>(16)?;
                let tag = dma::Tag::new(0).unwrap();
                ctx.dma_get(local, remote, 64, tag)?;
                ctx.dma_wait_tag(tag);
                ctx.local_read_slice::<u32>(local, 16)
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, values);
        assert_eq!(m.races_detected(), 0);
    }

    #[test]
    fn missing_wait_is_detected_as_a_race() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(16).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let local = ctx.alloc_local_slice::<u32>(16)?;
                let tag = dma::Tag::new(0).unwrap();
                ctx.dma_get(local, remote, 64, tag)?;
                // BUG: read without waiting.
                let _: u32 = ctx.local_read_pod(local)?;
                ctx.dma_wait_tag(tag);
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.races_detected(), 1);
        let reports = m.take_race_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].to_string().contains("missing dma_wait"));
    }

    #[test]
    fn cached_access_through_ctx() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(64).unwrap();
        m.main_mut()
            .write_pod_slice(a, &(0..64).collect::<Vec<u32>>())
            .unwrap();
        let sum = m
            .offload(0)
            .cache(CacheChoice::SetAssoc(
                softcache::CacheConfig::direct_mapped_4k(),
            ))
            .run(|ctx| -> Result<(u32, u64, u64), SimError> {
                let t0 = ctx.now();
                let mut sum = 0u32;
                for i in 0..64u32 {
                    sum += ctx.cached_read_pod::<u32>(a.element(i, 4)?)?;
                }
                let cached_cycles = ctx.now() - t0;
                let t1 = ctx.now();
                let mut sum2 = 0u32;
                for i in 0..64u32 {
                    sum2 += ctx.outer_read_pod::<u32>(a.element(i, 4)?)?;
                }
                let naive_cycles = ctx.now() - t1;
                assert_eq!(sum, sum2);
                Ok((sum, cached_cycles, naive_cycles))
            })
            .unwrap()
            .unwrap();
        let (total, cached, naive) = sum;
        assert_eq!(total, (0..64).sum::<u32>());
        assert!(
            cached * 4 < naive,
            "cache should be >4x faster: {cached} vs {naive}"
        );
    }

    #[test]
    fn no_such_accel_is_reported() {
        let mut m = machine();
        assert!(matches!(
            m.offload(5).spawn(|_| ()),
            Err(SimError::NoSuchAccel { index: 5, count: 1 })
        ));
        assert!(m.dma_stats(3).is_err());
    }

    #[test]
    fn events_record_the_offload_lifecycle() {
        let mut m = machine();
        m.events_mut().set_enabled(true);
        let h = m.offload(0).spawn(|ctx| ctx.compute(100)).unwrap();
        m.join(h);
        let kinds: Vec<_> = m.events().events().iter().map(|e| &e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::OffloadStart {
                accel: 0,
                name: "offload"
            }
        ));
        // The end of the offload reports the local-store high-water mark
        // before the lifecycle events resume.
        assert!(matches!(kinds[1], EventKind::LsHighWater { accel: 0, .. }));
        assert!(matches!(kinds[2], EventKind::OffloadEnd { accel: 0 }));
        assert!(matches!(kinds[3], EventKind::Join { accel: 0 }));
        assert_eq!(m.stats().offloads, 1);
        assert_eq!(m.stats().joins, 1);
        assert_eq!(m.stats().accel_busy_cycles, 100);
    }

    #[test]
    fn labeled_offloads_carry_their_name() {
        let mut m = machine();
        m.events_mut().set_enabled(true);
        let h = m
            .offload(0)
            .label("calculateStrategy")
            .spawn(|ctx| ctx.compute(10))
            .unwrap();
        m.join(h);
        assert!(m.events().events().iter().any(|e| matches!(
            e.kind,
            EventKind::OffloadStart {
                accel: 0,
                name: "calculateStrategy"
            }
        )));
    }

    #[test]
    fn outer_byte_access_chunks_through_the_staging_buffer() {
        // 10 KiB > the 4 KiB staging buffer: the transfer splits into
        // three synchronous round trips, each paying full latency.
        let mut m = machine();
        let remote = m.alloc_main(10 * 1024, 16).unwrap();
        let pattern: Vec<u8> = (0..10 * 1024).map(|i| (i % 251) as u8).collect();
        m.main_mut().write_bytes(remote, &pattern).unwrap();
        let (data, elapsed) = m
            .offload(0)
            .run(|ctx| -> Result<(Vec<u8>, u64), SimError> {
                let t0 = ctx.now();
                let mut buf = vec![0u8; 10 * 1024];
                ctx.outer_read_bytes(remote, &mut buf)?;
                Ok((buf, ctx.now() - t0))
            })
            .unwrap()
            .unwrap();
        assert_eq!(data, pattern);
        let latency = m.cost().dma.latency;
        assert!(
            elapsed >= 3 * latency,
            "three chunked round trips pay 3x latency: {elapsed}"
        );
        assert_eq!(m.dma_stats(0).unwrap().gets, 3);
    }

    #[test]
    fn outer_byte_writes_round_trip() {
        let mut m = machine();
        let remote = m.alloc_main(256, 16).unwrap();
        m.offload(0)
            .run(|ctx| ctx.outer_write_bytes(remote, &[7u8; 100]))
            .unwrap()
            .unwrap();
        assert_eq!(m.main().read_bytes(remote, 100).unwrap(), &[7u8; 100][..]);
    }

    #[test]
    fn peek_and_poke_are_cost_free() {
        let mut m = machine();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let local = ctx.alloc_local(64, 16)?;
                let before = ctx.now();
                ctx.poke_local(local, &[1, 2, 3])?;
                let mut out = [0u8; 3];
                ctx.peek_local(local, &mut out)?;
                assert_eq!(out, [1, 2, 3]);
                assert_eq!(ctx.now(), before, "bookkeeping access charges nothing");
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(
            m.races_detected(),
            0,
            "bookkeeping access is not race-tracked"
        );
    }

    #[test]
    fn local_byte_access_charges_quadword_granularity() {
        let mut m = machine();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let local = ctx.alloc_local(256, 16)?;
                let ls = ctx.cost().ls_access;
                let t0 = ctx.now();
                ctx.local_write_bytes(local, &[0u8; 16])?;
                assert_eq!(ctx.now() - t0, ls, "one quadword");
                let t1 = ctx.now();
                ctx.local_write_bytes(local, &[0u8; 64])?;
                assert_eq!(ctx.now() - t1, 4 * ls, "four quadwords");
                Ok(())
            })
            .unwrap()
            .unwrap();
    }

    #[test]
    fn host_byte_helpers_charge_per_cache_line() {
        let mut m = machine();
        let addr = m.alloc_main(256, 16).unwrap();
        let t0 = m.host_now();
        m.host_write_bytes(addr, &[1u8; 130]).unwrap();
        assert_eq!(
            m.host_now() - t0,
            3 * m.cost().host_mem_access,
            "130 bytes touch three 64-byte lines"
        );
        let mut out = [0u8; 130];
        m.host_read_bytes(addr, &mut out).unwrap();
        assert_eq!(out, [1u8; 130]);
    }

    #[test]
    fn builder_cache_routes_tuned_accesses_and_flushes_on_exit() {
        let values: Vec<u32> = (0..512).map(|i| i * 3).collect();
        let expected: u32 = values.iter().sum();
        let mut naive_cycles = None;
        for choice in [
            CacheChoice::Naive,
            CacheChoice::SetAssoc(softcache::CacheConfig::direct_mapped_4k()),
            CacheChoice::SetAssoc(softcache::CacheConfig::four_way_16k()),
            CacheChoice::Stream(softcache::CacheConfig::new(1024, 1, 1)),
        ] {
            let mut m = machine();
            let a = m.alloc_main_slice::<u32>(512).unwrap();
            m.main_mut().write_pod_slice(a, &values).unwrap();
            let (sum, cycles) = m
                .offload(0)
                .cache(choice)
                .run(|ctx| -> Result<(u32, u64), SimError> {
                    // A naive choice builds nothing; the cached
                    // accessors are then plain outer accesses.
                    assert_eq!(ctx.has_cache(), choice != CacheChoice::Naive, "{choice}");
                    let t0 = ctx.now();
                    let mut sum = 0u32;
                    for i in 0..512u32 {
                        sum += ctx.cached_read_pod::<u32>(a.element(i, 4)?)?;
                    }
                    let cycles = ctx.now() - t0;
                    ctx.cached_write_pod(a.element(0, 4)?, &777u32)?;
                    Ok((sum, cycles))
                })
                .unwrap()
                .unwrap();
            assert_eq!(sum, expected, "{choice}");
            // A write-back line was flushed when the block ended.
            assert_eq!(m.main().read_pod::<u32>(a).unwrap(), 777, "{choice}");
            match naive_cycles {
                None => {
                    naive_cycles = Some(cycles);
                    assert_eq!(m.stats().cache_hits + m.stats().cache_misses, 0);
                }
                Some(naive) => {
                    assert!(cycles * 4 < naive, "{choice}: {cycles} vs {naive}");
                    assert!(m.stats().cache_hits > 0, "{choice}");
                }
            }
        }
    }

    #[test]
    fn builder_with_naive_cache_matches_the_plain_builder_bit_identically() {
        let run = |cache: bool| -> u64 {
            let mut m = machine();
            let a = m.alloc_main_pod::<u32>().unwrap();
            m.main_mut().write_pod(a, &3u32).unwrap();
            let b = m.offload(0);
            let b = if cache {
                b.cache(CacheChoice::Naive)
            } else {
                b
            };
            b.run(|ctx| -> Result<(), SimError> {
                let v: u32 = ctx.outer_read_pod(a)?;
                ctx.compute(u64::from(v));
                Ok(())
            })
            .unwrap()
            .unwrap();
            m.host_now()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn quiet_fault_plan_is_bit_identical_to_no_plan() {
        use crate::fault::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let mut m = machine();
            if let Some(p) = plan {
                m.install_fault_plan(p).unwrap();
            }
            let a = m.alloc_main_slice::<u32>(64).unwrap();
            m.main_mut().write_pod_slice(a, &vec![7u32; 64]).unwrap();
            m.offload(0)
                .run(|ctx| -> Result<(), SimError> {
                    let local = ctx.alloc_local(256, 16)?;
                    let tag = dma::Tag::new(5).unwrap();
                    ctx.dma_get(local, a, 256, tag)?;
                    ctx.dma_wait_tag(tag);
                    let v: u32 = ctx.local_read_pod(local)?;
                    ctx.compute(u64::from(v));
                    Ok(())
                })
                .unwrap()
                .unwrap();
            m.host_now()
        };
        // All-zero rates short-circuit every roll, so an armed-but-quiet
        // plane costs nothing and consumes no randomness.
        assert_eq!(run(None), run(Some(FaultPlan::new(12345))));
    }

    #[test]
    fn accel_death_fails_launches_and_is_sticky() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.install_fault_plan(FaultPlan::new(1).with_accel_death(1.0))
            .unwrap();
        let err = m
            .offload(0)
            .run(|ctx| ctx.compute(1))
            .expect_err("certain death must fail the launch");
        assert_eq!(err, SimError::Fault(FaultError::AccelDead { accel: 0 }));
        assert!(m.accel_is_dead(0).unwrap());
        let t0 = m.host_now();
        let err = m.offload(0).run(|ctx| ctx.compute(1)).unwrap_err();
        assert!(matches!(err, SimError::Fault(FaultError::AccelDead { .. })));
        assert_eq!(m.host_now(), t0, "known-dead launches are free");
        // Clearing the plan revives the machine.
        m.clear_fault_plan();
        m.offload(0).run(|ctx| ctx.compute(1)).unwrap();
    }

    #[test]
    fn accel_stall_delays_the_block_start() {
        use crate::fault::FaultPlan;
        let stalled = {
            let mut m = machine();
            m.install_fault_plan(
                FaultPlan::new(2)
                    .with_accel_stall(1.0)
                    .with_stall_cycles(9_000),
            )
            .unwrap();
            let h = m.offload(0).spawn(|ctx| ctx.compute(100)).unwrap();
            h.start()
        };
        let clean = {
            let mut m = machine();
            let h = m.offload(0).spawn(|ctx| ctx.compute(100)).unwrap();
            h.start()
        };
        assert_eq!(stalled, clean + 9_000);
    }

    #[test]
    fn host_fallback_charges_the_penalty_factor() {
        let mut m = machine();
        let a = m.alloc_main_pod::<u32>().unwrap();
        m.main_mut().write_pod(a, &20u32).unwrap();
        let t0 = m.host_now();
        let v = m
            .run_host_fallback(
                0,
                7,
                "tile-fallback",
                ModeSet::new(),
                |ctx| -> Result<u32, SimError> {
                    let v: u32 = ctx.outer_read_pod(a)?;
                    ctx.compute(1_000);
                    ctx.outer_write_pod(a, &(v + 1))?;
                    Ok(v)
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(v, 20);
        assert_eq!(m.main().read_pod::<u32>(a).unwrap(), 21);
        let elapsed = m.host_now() - t0;
        assert!(
            elapsed >= 3 * 1_000,
            "fallback must charge at least factor x compute: {elapsed}"
        );
        assert_eq!(elapsed % m.cost().host_fallback_factor, 0);
        assert_eq!(m.stats().recovery_fallback_cycles, elapsed);
        // The accelerator did no work.
        assert_eq!(m.accel_busy_cycles(0).unwrap(), 0);
    }

    #[test]
    fn accel_free_at_tracks_queue_depth() {
        let mut m = machine();
        assert_eq!(m.accel_free_at(0).unwrap(), 0);
        let h = m.offload(0).spawn(|ctx| ctx.compute(5_000)).unwrap();
        assert_eq!(m.accel_free_at(0).unwrap(), h.end());
        m.join(h);
        assert!(m.accel_free_at(9).is_err());
    }

    #[test]
    fn value_too_large_for_staging() {
        let mut m = machine();
        let a = m.alloc_main(8192, 16).unwrap();
        let result = m
            .offload(0)
            .run(|ctx| ctx.outer_read_pod::<[u8; 8192]>(a))
            .unwrap();
        assert!(matches!(result, Err(SimError::ValueTooLarge { .. })));
    }

    /// A representative workload that exercises every piece of state a
    /// reset must clear: host accesses, an offload with DMA and events,
    /// faults, and the access trace.
    fn dirty_the_machine(m: &mut Machine) {
        m.events_mut().set_enabled(true);
        m.access_trace_mut().set_enabled(true);
        m.install_fault_plan(FaultPlan {
            accel_stall: 0.5,
            stall_cycles: 40,
            ..FaultPlan::new(7)
        })
        .unwrap();
        let a = m.alloc_main_slice::<u32>(64).unwrap();
        m.host_write_slice(a, &[3u32; 64]).unwrap();
        let _ = m.offload(0).label("dirty").run(|ctx| {
            ctx.compute(1_000);
            let local = ctx.alloc_local(256, memspace::DMA_ALIGN)?;
            ctx.dma_get(local, a, 256, dma::Tag::new(0).unwrap())?;
            ctx.dma_wait_all();
            Ok::<(), SimError>(())
        });
        m.host_compute(123);
    }

    fn run_seeded_world(m: &mut Machine, seed: u64) {
        m.reset_for_seed(seed);
        let a = m.alloc_main_slice::<u64>(32).unwrap();
        let fill: Vec<u64> = (0..32)
            .map(|i| seed.wrapping_mul(31).wrapping_add(i))
            .collect();
        m.host_write_slice(a, &fill).unwrap();
        let sum = m
            .offload(0)
            .run(|ctx| {
                ctx.compute(seed % 997);
                let local = ctx.alloc_local(256, memspace::DMA_ALIGN)?;
                ctx.dma_get(local, a, 256, dma::Tag::new(1).unwrap())?;
                ctx.dma_wait_all();
                let mut sum = 0u64;
                for i in 0..32u32 {
                    sum = sum
                        .wrapping_add(ctx.local_read_pod::<u64>(local.offset_by(i * 8).unwrap())?);
                }
                Ok::<u64, SimError>(sum)
            })
            .unwrap()
            .unwrap();
        m.host_write_pod(a, &sum).unwrap();
    }

    #[test]
    fn reset_machine_is_bit_identical_to_fresh() {
        let config = MachineConfig::small();
        let mut reused = Machine::new(config).unwrap();
        dirty_the_machine(&mut reused);
        run_seeded_world(&mut reused, 42);

        let mut fresh = Machine::new(config).unwrap();
        run_seeded_world(&mut fresh, 42);

        reused
            .snapshot()
            .diff(&fresh.snapshot())
            .unwrap_or_else(|d| panic!("reset vs fresh: {d}"));
        assert_eq!(reused.world_seed(), fresh.world_seed());
        assert_eq!(
            reused.ls_high_water(0).unwrap(),
            fresh.ls_high_water(0).unwrap()
        );
        assert!(reused.fault_plan().is_none());
        assert!(!reused.events().is_enabled());
        assert!(!reused.access_trace().is_enabled());
        assert_eq!(reused.events().len(), fresh.events().len());
    }

    #[test]
    fn reset_for_seed_clears_all_observable_state() {
        let mut m = machine();
        dirty_the_machine(&mut m);
        m.reset_for_seed(9);
        let pristine = Machine::new(MachineConfig::small()).unwrap();
        assert_eq!(m.host_now(), 0);
        assert_eq!(m.stats(), pristine.stats());
        assert_eq!(m.world_seed(), 9);
        assert_eq!(m.main().bytes_free(), pristine.main().bytes_free());
        assert_eq!(
            m.ls_high_water(0).unwrap(),
            pristine.ls_high_water(0).unwrap()
        );
        assert_eq!(m.accel_busy_cycles(0).unwrap(), 0);
        assert!(m.fault_plan().is_none());
        assert_eq!(m.events().len(), 0);
    }

    #[test]
    fn world_hash_tracks_observable_state() {
        let mut a = machine();
        let mut b = machine();
        run_seeded_world(&mut a, 5);
        run_seeded_world(&mut b, 5);
        assert_eq!(a.world_hash(), b.world_hash());
        let mut c = machine();
        run_seeded_world(&mut c, 6);
        assert_ne!(a.world_hash(), c.world_hash());
        // Host-visible memory writes change the digest even when the
        // clocks agree.
        let before = a.world_hash();
        let addr = Addr::new(SpaceId::MAIN, memspace::DMA_ALIGN);
        a.main_mut().write_pod(addr, &0xdead_beefu32).unwrap();
        assert_ne!(a.world_hash(), before);
    }

    #[test]
    fn machine_config_equality() {
        assert_eq!(MachineConfig::small(), MachineConfig::small());
        assert_ne!(MachineConfig::small(), MachineConfig::default());
    }

    // ---- gather ----------------------------------------------------------

    #[test]
    fn gather_packs_elements_in_index_order() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(64).unwrap();
        let values: Vec<u32> = (0..64).map(|i| i * 100).collect();
        m.main_mut().write_pod_slice(a, &values).unwrap();
        let out = m
            .offload(0)
            .run(|ctx| -> Result<Vec<u32>, SimError> {
                let plan = crate::GatherPlan::new(a, 4, vec![9, 3, 4, 5, 60]);
                let local = ctx.gather(&plan)?;
                ctx.local_read_slice::<u32>(local, 5)
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, vec![900, 300, 400, 500, 6000]);
        let s = m.stats();
        assert_eq!(s.gathers, 1);
        assert_eq!(s.gather_elems, 5);
        // 9 | 3,4,5 | 60 coalesces to three descriptors.
        assert_eq!(s.gather_descriptors, 3);
        assert_eq!(s.gather_bytes, 20);
        assert_eq!(m.dma_stats(0).unwrap().gets, 3);
    }

    #[test]
    fn gather_beats_per_element_outer_reads() {
        let run_gather = |gather: bool| {
            let mut m = machine();
            let a = m.alloc_main_slice::<u32>(256).unwrap();
            m.main_mut().write_pod_slice(a, &vec![1u32; 256]).unwrap();
            let indices: Vec<u32> = (0..128).map(|i| (i * 37) % 256).collect();
            m.offload(0)
                .run(|ctx| -> Result<u64, SimError> {
                    let t0 = ctx.now();
                    if gather {
                        let plan = crate::GatherPlan::new(a, 4, indices.clone());
                        let local = ctx.gather(&plan)?;
                        let _ = ctx.local_read_slice::<u32>(local, 128)?;
                    } else {
                        for &i in &indices {
                            let _: u32 = ctx.outer_read_pod(a.element(i, 4)?)?;
                        }
                    }
                    Ok(ctx.now() - t0)
                })
                .unwrap()
                .unwrap()
        };
        let naive = run_gather(false);
        let gathered = run_gather(true);
        assert!(
            gathered * 2 <= naive,
            "batched gather must at least halve the naive cost: {gathered} vs {naive}"
        );
    }

    #[test]
    fn builder_gather_hands_packed_buffer_to_the_kernel() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(32).unwrap();
        let values: Vec<u32> = (0..32).map(|i| i + 1).collect();
        m.main_mut().write_pod_slice(a, &values).unwrap();
        let sum = m
            .offload(0)
            .label("declared-gather")
            .gather(a, 4, vec![0, 31, 2])
            .run(|ctx| -> Result<u32, SimError> {
                let local = ctx.gathered(0);
                let v = ctx.local_read_slice::<u32>(local, 3)?;
                Ok(v.iter().sum())
            })
            .unwrap()
            .unwrap();
        assert_eq!(sum, 1 + 32 + 3);
        assert_eq!(m.stats().gathers, 1);
    }

    #[test]
    fn builder_gather_declares_reads_so_stray_stores_fail() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(16).unwrap();
        let b = m.alloc_main_pod::<u32>().unwrap();
        let err = m
            .offload(0)
            .gather(a, 4, vec![0, 1])
            .run(|ctx| ctx.outer_write_pod(b, &7u32))
            .unwrap()
            .unwrap_err();
        assert!(
            matches!(err, SimError::UndeclaredWrite { .. }),
            "a declared gather flips the offload into the strict mode contract: {err:?}"
        );
    }

    #[test]
    fn gather_outside_declared_ranges_is_rejected_before_any_byte_moves() {
        let mut m = machine();
        let a = m.alloc_main_slice::<u32>(16).unwrap();
        let b = m.alloc_main_slice::<u32>(16).unwrap();
        let (err, cycles, gets) = m
            .offload(0)
            .reads(a, 64)
            .run(|ctx| {
                let t0 = ctx.now();
                let plan = crate::GatherPlan::new(b, 4, vec![0, 1]);
                let err = ctx.gather(&plan).unwrap_err();
                (err, ctx.now() - t0, ctx.stats.dma_gets)
            })
            .unwrap();
        assert!(matches!(err, SimError::UndeclaredRead { .. }), "{err:?}");
        assert_eq!(cycles, 0, "rejected before any cycle was charged");
        assert_eq!(gets, 0, "rejected before any transfer was issued");
    }

    #[test]
    fn faulted_gather_rolls_back_the_whole_batch_bit_identically() {
        use crate::fault::FaultPlan;
        // Seeded property sweep: under a corrupting fault plan, a kernel
        // that retries its gather until the whole batch lands must
        // observe exactly the bytes a fault-free run observes, and the
        // local store must not leak across attempts. The rates are kept
        // low enough that a fully clean batch stays likely per attempt
        // (the batch has ~12 descriptors; at 7% per transfer a retry
        // loop converges in a handful of rounds).
        let clean = gather_retry_run(None);
        for seed in 0..32u64 {
            let faulty = gather_retry_run(Some(
                FaultPlan::new(seed)
                    .with_dma_corrupt(0.05)
                    .with_dma_drop(0.02),
            ));
            assert_eq!(
                clean.0, faulty.0,
                "seed {seed}: recovered gather must be bit-identical"
            );
            assert_eq!(
                clean.1, faulty.1,
                "seed {seed}: retries must reuse the same local address"
            );
        }
    }

    /// One machine run of the retry-until-clean gather kernel: returns
    /// the gathered bytes and the local address of the final attempt.
    fn gather_retry_run(plan: Option<crate::fault::FaultPlan>) -> (Vec<u32>, Addr) {
        let mut m = machine();
        if let Some(p) = plan {
            m.install_fault_plan(p).unwrap();
        }
        let a = m.alloc_main_slice::<u32>(512).unwrap();
        let values: Vec<u32> = (0..512).map(|i| i ^ 0xC0FFEE).collect();
        m.main_mut().write_pod_slice(a, &values).unwrap();
        let indices: Vec<u32> = (0..12).map(|i| (i * 53) % 512).collect();
        m.offload(0)
            .run(move |ctx| -> Result<(Vec<u32>, Addr), SimError> {
                let plan = crate::GatherPlan::new(a, 4, indices);
                let mark = ctx.local_alloc_mark();
                loop {
                    match ctx.gather(&plan) {
                        Ok(local) => {
                            assert_eq!(
                                ctx.local_alloc_mark(),
                                mark + plan.total_bytes().unwrap(),
                                "exactly one packed buffer may remain allocated"
                            );
                            let v = ctx.local_read_slice::<u32>(local, plan.len() as u32)?;
                            return Ok((v, local));
                        }
                        Err(SimError::Fault(_)) => {
                            assert_eq!(
                                ctx.local_alloc_mark(),
                                mark,
                                "a faulted gather must release its whole batch"
                            );
                        }
                        Err(other) => return Err(other),
                    }
                }
            })
            .unwrap()
            .unwrap()
    }

    #[test]
    fn gather_shows_up_on_its_own_trace_lane() {
        let mut m = machine();
        m.events_mut().set_enabled(true);
        let a = m.alloc_main_slice::<u32>(8).unwrap();
        m.main_mut().write_pod_slice(a, &[5u32; 8]).unwrap();
        m.offload(0)
            .run(|ctx| {
                let plan = crate::GatherPlan::new(a, 4, vec![7, 0]);
                ctx.gather(&plan).map(|_| ())
            })
            .unwrap()
            .unwrap();
        let json = crate::chrome_trace_json(m.events());
        assert!(json.contains("\"gather 0\""), "gather lane is named");
        assert!(json.contains("\"elems\":2"), "{json}");
        let report = m.utilization_report();
        assert!(report.contains("gathers: 1 plans"), "{report}");
    }
}

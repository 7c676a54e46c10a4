//! The accelerator execution context.

use dma::{AccessKind, DmaDirection, DmaEngine, DmaRequest, Tag, TagMask};
use memspace::{AccessMode, Addr, AddrRange, MemoryRegion, ModeSet, Pod};
use softcache::{CacheBacking, CacheChoice, CacheError, SoftwareCache, TunedCache};

use crate::cost::CostModel;
use crate::error::SimError;
use crate::event::{CoreId, EventKind, EventLog};
use crate::fault::{DmaFault, FaultError, FaultKind, FaultPlane};
use crate::trace::MachineStats;

/// DMA tag reserved for synchronous "outer" accesses (the naive
/// dereference-of-a-host-pointer path). User code should use tags
/// `0..=26`; `27..=31` are reserved by the runtime and caches.
pub const OUTER_ACCESS_TAG: u8 = 27;

/// DMA tag reserved for gather-plan descriptor batches (see
/// [`AccelCtx::gather`]). Reserved alongside [`OUTER_ACCESS_TAG`]: a
/// gather drains its whole batch with one wait on this tag, so user
/// transfers must never share it.
pub const GATHER_TAG: u8 = 28;

/// Stack-buffer size for per-element Pod marshalling: any `T` up to
/// this size round-trips through cached accessors without touching the
/// heap. Covers every Pod in the workspace (the largest, a full game
/// entity, is 48 bytes).
const POD_STACK_BUF: usize = 64;

/// Everything an offloaded thread can do, with every operation charged
/// to the accelerator's cycle counter.
///
/// An `AccelCtx` is handed to the closure passed to
/// [`crate::Machine::offload`]. It exposes exactly the operations an SPE
/// thread has (paper §3):
///
/// - allocate and access *local store* data (fast),
/// - issue tagged, non-blocking DMA to main memory and wait on tags,
/// - perform naive synchronous "outer" accesses — each one a full DMA
///   round trip, which is what makes unoptimised pointer-chasing code so
///   slow on these machines (paper §4.2),
/// - route outer accesses through the software cache its launch
///   installed ([`AccelCtx::cached_read_pod`] and friends).
///
/// Direct local accesses are reported to the DMA race checker, so a
/// missing `dma_wait` is caught even though the simulation itself is
/// sequential.
#[derive(Debug)]
pub struct AccelCtx<'m> {
    pub(crate) now: u64,
    pub(crate) cost: CostModel,
    pub(crate) accel_index: u16,
    pub(crate) main: &'m mut MemoryRegion,
    pub(crate) ls: &'m mut MemoryRegion,
    pub(crate) dma: &'m mut DmaEngine,
    pub(crate) staging: Addr,
    pub(crate) staging_size: u32,
    pub(crate) events: &'m mut EventLog,
    pub(crate) stats: &'m mut MachineStats,
    pub(crate) accesses: &'m mut softcache::AccessTrace,
    pub(crate) span: u32,
    /// The software cache the launch installed (boxed: most offloads
    /// carry none, and the context stays small).
    pub(crate) cache: Option<Box<TunedCache>>,
    pub(crate) faults: &'m mut FaultPlane,
    pub(crate) fault_sticky: Option<FaultError>,
    pub(crate) put_journal: Vec<(Addr, Vec<u8>)>,
    pub(crate) modes: ModeSet,
    pub(crate) gathered: Vec<Addr>,
}

impl<'m> AccelCtx<'m> {
    /// The accelerator's current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This accelerator's index.
    pub fn accel_index(&self) -> u16 {
        self.accel_index
    }

    /// The local-store space of this accelerator.
    #[inline]
    pub fn local_space(&self) -> memspace::SpaceId {
        self.ls.id()
    }

    /// The machine's cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `cycles` of pure computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.accesses.record_compute(self.span, cycles);
        self.now += cycles;
    }

    #[inline]
    fn ls_cycles(&self, bytes: u32) -> u64 {
        self.cost.ls_access * u64::from(bytes.div_ceil(16).max(1))
    }

    /// One direct local-store access of `bytes` at `addr`: charges it,
    /// notes it for the race checker (so a missing `dma_wait` is
    /// caught), and rolls a read for poison.
    #[inline]
    fn local_access(&mut self, addr: Addr, bytes: u32, kind: AccessKind) -> Result<(), SimError> {
        self.now += self.ls_cycles(bytes);
        self.dma
            .note_local_access(AddrRange::new(addr, bytes)?, kind, self.now);
        if kind == AccessKind::Read {
            self.roll_ls_poison()?;
        }
        Ok(())
    }

    // ---- fault plane ------------------------------------------------------

    /// The sticky fault left by an operation that cannot report errors
    /// directly (tag-timeout during a `dma_wait`), without clearing it.
    pub fn pending_fault(&self) -> Option<FaultError> {
        self.fault_sticky
    }

    /// Takes (and clears) the sticky fault, if any. The recovery layer
    /// calls this after the tile closure returns; fallible DMA
    /// operations surface it automatically via
    /// [`AccelCtx::check_faults`].
    pub fn take_fault(&mut self) -> Option<FaultError> {
        self.fault_sticky.take()
    }

    /// Errors out with the sticky fault if one is pending. Called at
    /// the head of every fallible DMA entry point so a timed-out wait
    /// surfaces at the next opportunity; call it explicitly before
    /// returning from a closure that only uses infallible operations.
    ///
    /// # Errors
    ///
    /// Returns the pending [`FaultError`], if any.
    #[inline]
    pub fn check_faults(&mut self) -> Result<(), SimError> {
        match self.fault_sticky.take() {
            Some(fault) => Err(fault.into()),
            None => Ok(()),
        }
    }

    /// Counts `kind` in [`MachineStats`] (see [`MachineStats::count`])
    /// and, when the event log is on, records it at this accelerator's
    /// current cycle. Zero simulated cost: a pipeline stage, for one,
    /// notes an [`EventKind::PipeWait`] here and charges the stall
    /// itself with [`AccelCtx::compute`].
    #[inline(always)]
    pub fn note(&mut self, kind: EventKind) {
        self.note_at(self.now, kind);
    }

    /// [`AccelCtx::note`] stamped at cycle `at`: a DMA command, a wait
    /// and a gather are stamped where they began, after the clock moved.
    #[inline(always)]
    fn note_at(&mut self, at: u64, kind: EventKind) {
        self.stats.count(at, &kind);
        self.events.record(at, kind);
    }

    // ---- access modes ----------------------------------------------------

    /// The access-mode declarations this offload was built with (empty
    /// when the offload declared nothing — the legacy permissive
    /// contract).
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// The declared mode covering `len` bytes at `addr`, if any. Used
    /// by the runtime's transfer layers to elide write-backs for
    /// `Read`-declared ranges.
    pub fn declared_mode(&self, addr: Addr, len: u32) -> Option<AccessMode> {
        self.modes.mode_for(addr, len)
    }

    /// Checks one `dir` transfer of `size` bytes at `remote` against
    /// the declared access modes: the single point where an offload's
    /// mode contract is enforced.
    ///
    /// `Ok(None)` means the offload declared nothing (legacy permissive
    /// contract: puts journal conservatively). `Ok(Some(mode))` is a
    /// declared range licensing `dir` — `write`/`update` for a put,
    /// `read`/`update` for a get. Anything else in a mode-annotated
    /// offload, including a range no declaration covers, is rejected
    /// before any byte moves: an undeclared write (which the dynamic
    /// race analyzer also records) or an undeclared read.
    #[inline]
    fn check_mode(
        &mut self,
        dir: DmaDirection,
        remote: Addr,
        size: u32,
    ) -> Result<Option<AccessMode>, SimError> {
        if self.modes.is_empty() {
            return Ok(None);
        }
        let declared = self.modes.mode_for(remote, size);
        match (dir, declared) {
            (_, Some(AccessMode::Update))
            | (DmaDirection::Get, Some(AccessMode::Read))
            | (DmaDirection::Put, Some(AccessMode::Write)) => Ok(declared),
            (DmaDirection::Get, _) => Err(SimError::UndeclaredRead {
                addr: remote,
                len: size,
                declared,
            }),
            (DmaDirection::Put, _) => {
                self.dma.note_undeclared_write(
                    AddrRange::new(remote, size)?,
                    declared == Some(AccessMode::Read),
                    self.now,
                );
                Err(SimError::UndeclaredWrite {
                    addr: remote,
                    len: size,
                    declared,
                })
            }
        }
    }

    /// Notes one write-back DMA the runtime elided because the target
    /// range was declared `read` — bookkeeping only, zero simulated
    /// cost (that is the point: the transfer never happens).
    pub fn note_writeback_elided(&mut self, bytes: u32) {
        self.stats.dma_writebacks_elided += 1;
        self.stats.dma_writeback_bytes_elided += u64::from(bytes);
        self.events
            .note_static(self.now, "writeback elided (read-only)");
    }

    /// Mode-aware gate for the runtime's conservative-flush idioms
    /// (`ArrayAccessor::write_back`, the streaming helpers in
    /// `offload_rt`): returns `true` when the put of `bytes` from
    /// `local` to `remote` may be skipped because the target range is
    /// declared `read` and the local image is byte-identical to main
    /// memory (the elision is counted via
    /// [`AccelCtx::note_writeback_elided`]). The comparison is
    /// host-side bookkeeping — zero simulated cycles either way, which
    /// is exactly the declaration's value: the transfer itself never
    /// happens.
    ///
    /// # Errors
    ///
    /// A *differing* local image under a `read` declaration is a
    /// genuine mutation: the dynamic race analyzer records it and the
    /// call fails with [`SimError::UndeclaredWrite`] instead of
    /// silently dropping the kernel's stores.
    pub fn writeback_elidable(
        &mut self,
        local: Addr,
        remote: Addr,
        bytes: u32,
    ) -> Result<bool, SimError> {
        if self.declared_mode(remote, bytes) != Some(AccessMode::Read) {
            return Ok(false);
        }
        let mut ours = vec![0u8; bytes as usize];
        let mut theirs = vec![0u8; bytes as usize];
        self.ls.read_into(local, &mut ours)?;
        self.main.read_into(remote, &mut theirs)?;
        if ours != theirs {
            self.dma
                .note_undeclared_write(AddrRange::new(remote, bytes)?, true, self.now);
            return Err(SimError::UndeclaredWrite {
                addr: remote,
                len: bytes,
                declared: Some(AccessMode::Read),
            });
        }
        self.note_writeback_elided(bytes);
        Ok(true)
    }

    /// The local store's current allocation mark; pass it to
    /// [`AccelCtx::local_alloc_restore`] to release everything
    /// allocated after it. The recovery layer brackets each tile
    /// attempt with a mark/restore pair so retries do not leak local
    /// store.
    pub fn local_alloc_mark(&self) -> u32 {
        self.ls.save_alloc()
    }

    /// Releases every local-store allocation made since `mark` was
    /// taken (see [`AccelCtx::local_alloc_mark`]).
    pub fn local_alloc_restore(&mut self, mark: u32) {
        self.ls.restore_alloc(mark);
    }

    /// Restores, newest-first, the main-memory pre-image of every put
    /// recorded since the journal held `mark` entries, then forgets
    /// them. While a fault plan is armed, every `dma_put` records its
    /// destination's pre-image (the journal is empty, and free, without
    /// one), and the recovery loop
    /// ([`Launch::run_item`](crate::Launch::run_item)) brackets each
    /// attempt with the journal's length. A failed tile attempt
    /// may have committed puts before it faulted (or scribbled its
    /// destination on a corrupted put); voiding them is what lets the
    /// retry — or the host fallback — re-read the exact input the
    /// failed attempt saw, which is what makes recovery bit-exact for
    /// in-place workloads. Call only after the attempt's in-flight
    /// transfers have drained. Zero simulated cost: this models a
    /// transactional tile commit, not a data transfer.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations (the journaled ranges were
    /// valid when written, so failures indicate memory reconfiguration).
    pub(crate) fn put_journal_rollback(&mut self, mark: usize) -> Result<(), SimError> {
        while self.put_journal.len() > mark {
            let (addr, bytes) = self.put_journal.pop().expect("len > mark");
            self.main.write_bytes(addr, &bytes)?;
        }
        Ok(())
    }

    /// XORs the first quadword at `addr` (in `region`) with a marker —
    /// the observable damage of a corrupted transfer.
    fn scribble(region: &mut MemoryRegion, addr: Addr, len: u32) -> Result<(), SimError> {
        let n = (len.min(16)) as usize;
        let mut buf = [0u8; 16];
        region.read_into(addr, &mut buf[..n])?;
        for b in &mut buf[..n] {
            *b ^= 0xA5;
        }
        region.write_bytes(addr, &buf[..n])?;
        Ok(())
    }

    /// Rolls the local-store poison decision for one charged read; a
    /// hit models a detected parity error (the access was paid for,
    /// the data is unusable).
    fn roll_ls_poison(&mut self) -> Result<(), SimError> {
        if self.faults.active() {
            let rate = self.faults.plan().map(|p| p.ls_poison).unwrap_or(0.0);
            if self.faults.roll(rate) {
                let (accel, fault) = (self.accel_index, FaultKind::LsPoison);
                self.note(EventKind::FaultInjected { accel, fault });
                return Err(FaultError::LsPoisoned {
                    accel: self.accel_index,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Diffs a cache's counters across one routed access and emits
    /// cache events / [`MachineStats`] updates for the delta.
    fn trace_cache_delta(
        &mut self,
        at: u64,
        before: softcache::CacheStats,
        after: softcache::CacheStats,
    ) {
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let evictions = after.evictions - before.evictions;
        let bytes_fetched = after.bytes_fetched - before.bytes_fetched;
        let bytes_written_back = after.bytes_written_back - before.bytes_written_back;
        self.stats.cache_hits += hits;
        self.stats.cache_misses += misses;
        self.stats.cache_evictions += evictions;
        self.stats.cache_bytes_fetched += bytes_fetched;
        self.stats.cache_bytes_written_back += bytes_written_back;
        // The cache counters are the direct adds above, so with the log
        // off the cache events have nothing left to count.
        if !self.events.is_enabled() {
            return;
        }
        let accel = self.accel_index;
        if hits > 0 {
            let count = hits as u32;
            self.note_at(at, EventKind::CacheHit { accel, count });
        }
        if misses > 0 {
            let count = misses as u32;
            self.note_at(
                at,
                EventKind::CacheMiss {
                    accel,
                    count,
                    bytes_fetched,
                },
            );
        }
        if evictions > 0 {
            let count = evictions as u32;
            self.note_at(at, EventKind::CacheEvict { accel, count });
        }
    }

    // ---- annotation ------------------------------------------------------

    /// Opens a named span on this accelerator's timeline (free: recording
    /// never advances the clock). Pair with [`AccelCtx::span_end`] using
    /// the same name.
    pub fn span_start(&mut self, name: &'static str) {
        let core = CoreId::Accel(self.accel_index);
        self.note(EventKind::SpanStart { core, name });
    }

    /// Closes the innermost span opened with [`AccelCtx::span_start`].
    pub fn span_end(&mut self, name: &'static str) {
        let core = CoreId::Accel(self.accel_index);
        self.note(EventKind::SpanEnd { core, name });
    }

    /// Records a static annotation stamped at this accelerator's current
    /// cycle, without allocating (see [`EventLog::note_static`]).
    pub fn note_static(&mut self, text: &'static str) {
        self.events.note_static(self.now, text);
    }

    // ---- local store ----------------------------------------------------

    /// Allocates `size` bytes in the local store. Allocations made inside
    /// an offload block are released when the block ends, matching the
    /// paper's rule that "data declared inside the offload block should
    /// be allocated in scratch-pad memory".
    ///
    /// # Errors
    ///
    /// Fails when the 256 KiB local store is exhausted — the everyday
    /// constraint of SPE programming.
    pub fn alloc_local(&mut self, size: u32, align: u32) -> Result<Addr, SimError> {
        Ok(self.ls.alloc(size, align)?)
    }

    /// Allocates room for one `T` in the local store.
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::alloc_local`].
    pub fn alloc_local_pod<T: Pod>(&mut self) -> Result<Addr, SimError> {
        Ok(self.ls.alloc_pod::<T>()?)
    }

    /// Allocates room for `count` consecutive `T`s in the local store.
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::alloc_local`].
    pub fn alloc_local_slice<T: Pod>(&mut self, count: u32) -> Result<Addr, SimError> {
        Ok(self.ls.alloc_pod_slice::<T>(count)?)
    }

    /// Reads a `T` from the local store (fast path).
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_read_pod<T: Pod>(&mut self, addr: Addr) -> Result<T, SimError> {
        self.local_access(addr, T::SIZE as u32, AccessKind::Read)?;
        Ok(self.ls.read_pod(addr)?)
    }

    /// Writes a `T` to the local store (fast path).
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_write_pod<T: Pod>(&mut self, addr: Addr, value: &T) -> Result<(), SimError> {
        self.local_access(addr, T::SIZE as u32, AccessKind::Write)?;
        Ok(self.ls.write_pod(addr, value)?)
    }

    /// Reads `count` consecutive `T`s from the local store.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_read_slice<T: Pod>(&mut self, addr: Addr, count: u32) -> Result<Vec<T>, SimError> {
        let mut out = Vec::with_capacity(count as usize);
        self.local_read_slice_into(addr, count, &mut out)?;
        Ok(out)
    }

    /// Reads `count` consecutive `T`s from the local store, appending
    /// them to `out`. Charges exactly the same cycles as
    /// [`AccelCtx::local_read_slice`]; the only difference is that
    /// callers iterating over chunks can clear and refill one scratch
    /// `Vec` instead of allocating a fresh one per chunk.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_read_slice_into<T: Pod>(
        &mut self,
        addr: Addr,
        count: u32,
        out: &mut Vec<T>,
    ) -> Result<(), SimError> {
        self.local_access(addr, (T::SIZE as u32) * count, AccessKind::Read)?;
        self.ls.read_pod_slice_into(addr, count, out)?;
        Ok(())
    }

    /// Writes consecutive `T`s to the local store.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_write_slice<T: Pod>(&mut self, addr: Addr, values: &[T]) -> Result<(), SimError> {
        self.local_access(addr, (T::SIZE * values.len()) as u32, AccessKind::Write)?;
        Ok(self.ls.write_pod_slice(addr, values)?)
    }

    /// Reads raw bytes from the local store (fast path).
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_read_bytes(&mut self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        self.local_access(addr, out.len() as u32, AccessKind::Read)?;
        Ok(self.ls.read_into(addr, out)?)
    }

    /// Writes raw bytes to the local store (fast path).
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    pub fn local_write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        self.local_access(addr, data.len() as u32, AccessKind::Write)?;
        Ok(self.ls.write_bytes(addr, data)?)
    }

    /// Reads local-store bytes *without charging time* — for runtime
    /// bookkeeping of register-modelled data (e.g. a language VM's frame
    /// slots). Not a modelled memory access; no race note.
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    #[inline]
    pub fn peek_local(&self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        Ok(self.ls.read_into(addr, out)?)
    }

    /// Writes local-store bytes without charging time (see
    /// [`AccelCtx::peek_local`]).
    ///
    /// # Errors
    ///
    /// Fails on bounds or space violations.
    #[inline]
    pub fn poke_local(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        Ok(self.ls.write_bytes(addr, data)?)
    }

    // ---- remote-transfer core and explicit DMA --------------------------

    /// The remote-transfer core. Every DMA command this accelerator
    /// issues — explicit [`AccelCtx::dma_get`]/[`AccelCtx::dma_put`],
    /// each staging chunk of an outer access, each gather descriptor —
    /// runs these steps exactly once, in this order:
    ///
    /// 1. **Mode check** (puts): a put the declared access modes do not
    ///    license fails before any byte moves ([`AccelCtx::check_mode`];
    ///    a gather checks its whole batch as reads up front).
    /// 2. **Journal** (puts, noisy fault plan): the destination's
    ///    main-memory pre-image is recorded for
    ///    [`AccelCtx::put_journal_rollback`].
    /// 3. **Fault roll**: the plan's per-transfer corrupt/drop draw.
    /// 4. **Issue**: the engine validates, copies, race-scans and
    ///    charges the command.
    /// 5. **Counters and trace**: [`MachineStats`] always, an
    ///    [`EventKind::DmaIssue`] when the event log is on.
    /// 6. **Damage**: a dropped transfer gets its destination's old
    ///    bytes back, a corrupted one is scribbled; either is noted and
    ///    returned as a [`FaultError`]. A faulted command still costs
    ///    its cycles.
    /// 7. **Retire** (`sync` only): a clean command is waited on, via
    ///    [`AccelCtx::dma_wait`] on its tag, before the caller resumes.
    ///
    /// A `sync` transfer fuses steps 4 and 7 into one engine step when
    /// nothing could observe the difference: no fault plan (no rolls,
    /// journals or timeouts), no event log (the split path records
    /// `DmaIssue`/`DmaWait` events) and an idle tag queue (the fused
    /// retire assumes the wait retires exactly this command). Both
    /// paths are bit-identical in every simulated observable.
    #[inline]
    fn transfer(
        &mut self,
        direction: DmaDirection,
        local: Addr,
        remote: Addr,
        size: u32,
        tag: Tag,
        sync: bool,
    ) -> Result<(), SimError> {
        let put = direction == DmaDirection::Put;
        let mode = if put {
            self.check_mode(direction, remote, size)?
        } else {
            None
        };
        // A quiet plan can never need a rollback, so it journals
        // nothing; a declared `Write` range is fully rewritten by any
        // retry, so its snapshot is skipped too.
        if put && self.faults.noisy() {
            if mode == Some(AccessMode::Write) {
                self.stats.journal_snapshots_skipped += 1;
                self.stats.journal_bytes_skipped += u64::from(size);
            } else {
                let mut bytes = vec![0u8; size as usize];
                self.main.read_into(remote, &mut bytes)?;
                self.put_journal.push((remote, bytes));
                self.stats.journal_snapshots += 1;
                self.stats.journal_bytes += u64::from(size);
            }
        }
        let fault = if self.faults.active() {
            self.faults.roll_dma()
        } else {
            None
        };
        // The engine copies eagerly; a dropped transfer must leave its
        // destination untouched, so snapshot it first.
        let (dest, dest_addr) = if put {
            (&mut *self.main, remote)
        } else {
            (&mut *self.ls, local)
        };
        let mut saved = Vec::new();
        if fault == Some(DmaFault::Drop) {
            saved.resize(size as usize, 0);
            dest.read_into(dest_addr, &mut saved)?;
        }
        let issued_at = self.now;
        let fused =
            sync && !self.faults.active() && !self.events.is_enabled() && !self.dma.tag_busy(tag);
        self.now = if fused {
            let request = DmaRequest {
                local,
                remote,
                size,
                tag,
                direction,
            };
            self.dma.sync(self.now, request, self.main, self.ls)?
        } else if put {
            self.dma
                .put(self.now, local, remote, size, tag, self.main, self.ls)?
        } else {
            self.dma
                .get(self.now, local, remote, size, tag, self.main, self.ls)?
        };
        self.note_at(
            issued_at,
            EventKind::DmaIssue {
                accel: self.accel_index,
                tag: tag.raw(),
                bytes: size,
                dir: direction,
                complete_at: self.dma.last_complete_at(),
            },
        );
        if let Some(fault) = fault {
            let dest = if put { &mut *self.main } else { &mut *self.ls };
            let (accel, tag, bytes) = (self.accel_index, tag.raw(), size);
            let (kind, error) = match fault {
                DmaFault::Drop => {
                    dest.write_bytes(dest_addr, &saved)?;
                    let error = FaultError::DmaDropped { accel, tag, bytes };
                    (FaultKind::DmaDrop { tag, bytes }, error)
                }
                DmaFault::Corrupt => {
                    Self::scribble(dest, dest_addr, size)?;
                    let error = FaultError::DmaCorrupted { accel, tag, bytes };
                    (FaultKind::DmaCorrupt { tag, bytes }, error)
                }
            };
            self.note(EventKind::FaultInjected { accel, fault: kind });
            return Err(error.into());
        }
        if sync && !fused {
            self.dma_wait(tag.mask());
        }
        Ok(())
    }

    /// Rolls the tag-timeout decision after a wait that actually had
    /// commands pending (a free wait cannot time out), stalling the
    /// clock and leaving the sticky fault on a hit.
    fn after_wait_roll(&mut self, pending: usize, mask: TagMask) {
        if pending == 0 {
            return;
        }
        let plan = match self.faults.plan() {
            Some(plan) => *plan,
            None => return,
        };
        if self.faults.roll(plan.tag_timeout) {
            let (accel, stall) = (self.accel_index, plan.timeout_stall);
            let fault = FaultKind::TagTimeout { stall };
            self.note(EventKind::FaultInjected { accel, fault });
            self.now += stall;
            self.fault_sticky = Some(FaultError::TagTimeout {
                accel: self.accel_index,
                mask: mask.bits(),
            });
        }
    }

    /// Issues a non-blocking `dma_get` of `size` bytes from main memory
    /// into the local store, under `tag`.
    ///
    /// # Errors
    ///
    /// As for [`dma::DmaEngine::get`]; additionally surfaces pending
    /// sticky faults and injected transfer faults when a fault plan is
    /// armed.
    pub fn dma_get(
        &mut self,
        local: Addr,
        remote: Addr,
        size: u32,
        tag: Tag,
    ) -> Result<(), SimError> {
        self.check_faults()?;
        self.transfer(DmaDirection::Get, local, remote, size, tag, false)
    }

    /// Issues a non-blocking `dma_put` of `size` bytes from the local
    /// store out to main memory, under `tag`.
    ///
    /// # Errors
    ///
    /// As for [`dma::DmaEngine::put`]; additionally surfaces pending
    /// sticky faults and injected transfer faults when a fault plan is
    /// armed.
    pub fn dma_put(
        &mut self,
        local: Addr,
        remote: Addr,
        size: u32,
        tag: Tag,
    ) -> Result<(), SimError> {
        self.check_faults()?;
        self.transfer(DmaDirection::Put, local, remote, size, tag, false)
    }

    /// Blocks until every command in `mask` has completed.
    ///
    /// With a fault plan armed, a wait that had commands pending may
    /// time out: the clock stalls and a sticky
    /// [`FaultError::TagTimeout`] is left on the context, surfaced by
    /// the next fallible DMA operation or [`AccelCtx::check_faults`].
    pub fn dma_wait(&mut self, mask: TagMask) {
        let issued_at = self.now;
        let pending = if self.faults.active() {
            self.dma.pending_on(mask)
        } else {
            0
        };
        self.now = self.dma.wait(mask, self.now);
        self.note_at(
            issued_at,
            EventKind::DmaWait {
                accel: self.accel_index,
                mask: mask.bits(),
                resumed_at: self.now,
            },
        );
        self.after_wait_roll(pending, mask);
    }

    /// Blocks until every command under `tag` has completed.
    pub fn dma_wait_tag(&mut self, tag: Tag) {
        self.dma_wait(tag.mask());
    }

    /// Blocks until the DMA engine is idle.
    pub fn dma_wait_all(&mut self) {
        self.dma_wait(TagMask::ALL);
    }

    // ---- gather ----------------------------------------------------------

    /// Executes a [`GatherPlan`](crate::GatherPlan): allocates a packed
    /// local buffer, issues the plan's coalesced descriptor batch as
    /// non-blocking `dma_get`s on [`GATHER_TAG`], and drains the whole
    /// batch with one wait. Returns the local address of the packed
    /// buffer, which holds the requested elements in index-list order.
    ///
    /// This is the declared primitive for irregular reads: one call
    /// replaces N synchronous outer accesses, the engine sees the
    /// fewest transfers that cover the index list, and the batch shows
    /// up as a single slice on the gather trace lane.
    ///
    /// The buffer is block-scoped like any [`AccelCtx::alloc_local`]
    /// allocation; bracket with [`AccelCtx::local_alloc_mark`] /
    /// [`AccelCtx::local_alloc_restore`] to recycle it inside a loop.
    ///
    /// # Fault atomicity
    ///
    /// A transfer fault anywhere in the batch rolls back the *whole*
    /// gather: in-flight descriptors drain, the packed buffer is
    /// released, and the error returns with the local store exactly as
    /// it was before the call — so a retry re-runs the entire plan at
    /// the identical address and recovery is bit-exact.
    ///
    /// # Errors
    ///
    /// Surfaces pending sticky faults and injected transfer faults;
    /// fails with [`memspace::MemError::AddressOverflow`] when an
    /// element's byte offset passes the 32-bit address range, and with
    /// [`SimError::UndeclaredRead`] when the offload
    /// declared access modes and a descriptor is not covered by a
    /// `read`/`update` declaration (checked before any byte moves);
    /// fails on local-store exhaustion or bounds violations.
    pub fn gather(&mut self, plan: &crate::GatherPlan) -> Result<Addr, SimError> {
        self.check_faults()?;
        let tag = Tag::new(GATHER_TAG).expect("constant tag is valid");
        let descs = plan.descriptors()?;
        // Reject undeclared reads before any byte moves or cycles are
        // charged: the whole batch is licensed or none of it is.
        for d in &descs {
            let remote = plan.base().offset_by(d.remote_offset)?;
            self.check_mode(DmaDirection::Get, remote, d.bytes)?;
        }
        // The descriptors tile the packed buffer from zero, so the last
        // one ends at its size.
        let total = descs.last().map_or(0, |d| d.local_offset + d.bytes);
        let mark = self.ls.save_alloc();
        let local = self.alloc_local(total, memspace::DMA_ALIGN)?;
        let issued_at = self.now;
        let mut failed = None;
        for d in &descs {
            let remote = plan
                .base()
                .offset_by(d.remote_offset)
                .expect("descriptor range mode-checked above");
            self.accesses
                .record_read(self.span, remote.offset(), d.bytes);
            let dst = match local.offset_by(d.local_offset) {
                Ok(dst) => dst,
                Err(err) => {
                    failed = Some(err.into());
                    break;
                }
            };
            if let Err(err) = self.transfer(DmaDirection::Get, dst, remote, d.bytes, tag, false) {
                failed = Some(err);
                break;
            }
        }
        if failed.is_none() {
            self.dma_wait(tag.mask());
            // A timeout rolled on the batch's own wait poisons the
            // batch: surface it here and roll back like any other
            // mid-gather fault.
            failed = self.check_faults().err();
        }
        if let Some(err) = failed {
            // Whole-batch rollback: drain whatever is still in flight
            // (so releasing the buffer is safe), then release it. A
            // retry reallocates at the identical mark, making recovery
            // bit-exact.
            self.dma_wait(tag.mask());
            self.ls.restore_alloc(mark);
            return Err(err);
        }
        self.note_at(
            issued_at,
            EventKind::Gather {
                accel: self.accel_index,
                elems: plan.len() as u32,
                descriptors: descs.len() as u32,
                bytes: total,
                complete_at: self.now,
            },
        );
        Ok(local)
    }

    /// The packed local buffer of the `index`-th gather declared on the
    /// offload builder (see `OffloadBuilder::gather`), in declaration
    /// order. Builder-declared plans execute before the kernel closure
    /// runs, so the buffers are ready on entry.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range — fewer gathers were
    /// declared than the kernel assumes, which is a plain programming
    /// error.
    pub fn gathered(&self, index: usize) -> Addr {
        self.gathered[index]
    }

    // ---- naive outer access ----------------------------------------------

    /// One synchronous staging round trip of `size` bytes between the
    /// staging buffer and `remote` on [`OUTER_ACCESS_TAG`], then
    /// surfaces any fault its wait left.
    #[inline]
    fn staged(&mut self, direction: DmaDirection, remote: Addr, size: u32) -> Result<(), SimError> {
        let tag = Tag::new(OUTER_ACCESS_TAG).expect("constant tag is valid");
        self.transfer(direction, self.staging, remote, size, tag, true)?;
        self.check_faults()
    }

    /// Reads a `T` from main memory *synchronously*: one full DMA round
    /// trip through a staging buffer. This is the cost of dereferencing
    /// an `__outer` pointer without any caching or batching.
    ///
    /// # Errors
    ///
    /// Fails if `T` exceeds the staging buffer or the transfer fails.
    #[inline]
    pub fn outer_read_pod<T: Pod>(&mut self, addr: Addr) -> Result<T, SimError> {
        let size = T::SIZE as u32;
        if size > self.staging_size {
            return Err(SimError::ValueTooLarge {
                size,
                staging: self.staging_size,
            });
        }
        self.accesses.record_read(self.span, addr.offset(), size);
        self.check_faults()?;
        self.staged(DmaDirection::Get, addr, size)?;
        self.now += self.ls_cycles(size);
        Ok(self.ls.read_pod(self.staging)?)
    }

    /// Writes a `T` to main memory synchronously (staging + DMA put +
    /// wait).
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::outer_read_pod`].
    #[inline]
    pub fn outer_write_pod<T: Pod>(&mut self, addr: Addr, value: &T) -> Result<(), SimError> {
        let size = T::SIZE as u32;
        if size > self.staging_size {
            return Err(SimError::ValueTooLarge {
                size,
                staging: self.staging_size,
            });
        }
        self.accesses.record_write(self.span, addr.offset(), size);
        self.check_faults()?;
        self.now += self.ls_cycles(size);
        self.ls.write_pod(self.staging, value)?;
        self.staged(DmaDirection::Put, addr, size)
    }

    /// Reads raw bytes from main memory synchronously, chunked through
    /// the staging buffer (one DMA round trip per chunk).
    ///
    /// # Errors
    ///
    /// Fails on transfer errors.
    #[inline]
    pub fn outer_read_bytes(&mut self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        self.accesses
            .record_read(self.span, addr.offset(), out.len() as u32);
        self.check_faults()?;
        // Single-chunk accesses (every scalar VM load) skip the chunk
        // loop; the sequence below is the loop body with `done == 0`.
        if !out.is_empty() && out.len() <= self.staging_size as usize {
            let size = out.len() as u32;
            self.staged(DmaDirection::Get, addr, size)?;
            self.now += self.ls_cycles(size);
            self.ls.read_into(self.staging, out)?;
            return Ok(());
        }
        let mut done = 0usize;
        while done < out.len() {
            let chunk = (out.len() - done).min(self.staging_size as usize);
            let remote = addr.offset_by(done as u32)?;
            self.staged(DmaDirection::Get, remote, chunk as u32)?;
            self.now += self.ls_cycles(chunk as u32);
            self.ls
                .read_into(self.staging, &mut out[done..done + chunk])?;
            done += chunk;
        }
        Ok(())
    }

    /// Writes raw bytes to main memory synchronously through the staging
    /// buffer.
    ///
    /// # Errors
    ///
    /// Fails on transfer errors.
    #[inline]
    pub fn outer_write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        self.accesses
            .record_write(self.span, addr.offset(), data.len() as u32);
        self.check_faults()?;
        // Single-chunk fast path; see `outer_read_bytes`.
        if !data.is_empty() && data.len() <= self.staging_size as usize {
            let size = data.len() as u32;
            self.now += self.ls_cycles(size);
            self.ls.write_bytes(self.staging, data)?;
            return self.staged(DmaDirection::Put, addr, size);
        }
        let mut done = 0usize;
        while done < data.len() {
            let chunk = (data.len() - done).min(self.staging_size as usize);
            let remote = addr.offset_by(done as u32)?;
            self.now += self.ls_cycles(chunk as u32);
            self.ls
                .write_bytes(self.staging, &data[done..done + chunk])?;
            self.staged(DmaDirection::Put, remote, chunk as u32)?;
            done += chunk;
        }
        Ok(())
    }

    // ---- cached outer access ----------------------------------------------
    //
    // The one software cache offload code reaches is the one its launch
    // installs (`OffloadBuilder::cache`): built before the closure runs
    // (allocation only, zero cycles), reached through the `cached_*`
    // accessors below, and flushed on the accelerator clock when the
    // closure returns. Under `CacheChoice::Naive` nothing is installed
    // and every `cached_*` access is the plain outer access.

    /// Builds the cache `choice` describes in this accelerator's local
    /// store. An offload whose access-mode declarations are all `read`
    /// gets the write-through variant of the choice
    /// ([`CacheChoice::for_read_only`]): no dirty line can form, so the
    /// end-of-block flush is guaranteed empty by construction.
    pub(crate) fn install_cache(&mut self, choice: &CacheChoice) -> Result<(), SimError> {
        let choice = if self.modes.all_read_only() {
            choice.for_read_only()
        } else {
            *choice
        };
        self.cache = choice
            .build(memspace::SpaceId::MAIN, self.ls)?
            .map(Box::new);
        Ok(())
    }

    /// Whether this offload's launch installed a software cache (a
    /// choice other than [`CacheChoice::Naive`]).
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Runs one operation on the installed cache, on this accelerator's
    /// clock: hands the cache its local store, main memory and DMA
    /// engine, then folds the cache's counter delta into
    /// [`MachineStats`] and cache events. Without a cache there is
    /// nothing to run.
    #[inline]
    fn cache_op(
        &mut self,
        op: impl FnOnce(&mut TunedCache, u64, &mut CacheBacking<'_>) -> Result<u64, CacheError>,
    ) -> Result<(), SimError> {
        let Some(cache) = self.cache.as_deref_mut() else {
            return Ok(());
        };
        let before = cache.stats();
        let at = self.now;
        let mut backing = CacheBacking {
            main: self.main,
            ls: self.ls,
            dma: self.dma,
        };
        self.now = op(cache, self.now, &mut backing)?;
        let after = cache.stats();
        self.trace_cache_delta(at, before, after);
        Ok(())
    }

    /// Reads through the installed cache, which the caller has checked
    /// exists.
    #[inline]
    fn cache_read(&mut self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        self.accesses
            .record_read(self.span, addr.offset(), out.len() as u32);
        self.cache_op(|c, now, backing| c.read(now, addr, out, backing))
    }

    /// Writes through the installed cache, which the caller has checked
    /// exists.
    #[inline]
    fn cache_write(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        self.check_mode(DmaDirection::Put, addr, data.len() as u32)?;
        self.accesses
            .record_write(self.span, addr.offset(), data.len() as u32);
        self.cache_op(|c, now, backing| c.write(now, addr, data, backing))
    }

    /// Reads raw bytes from main memory through the installed cache, or
    /// with [`AccelCtx::outer_read_bytes`] when there is none.
    ///
    /// # Errors
    ///
    /// As for [`softcache::SoftwareCache::read`] or
    /// [`AccelCtx::outer_read_bytes`].
    #[inline]
    pub fn cached_read_bytes(&mut self, addr: Addr, out: &mut [u8]) -> Result<(), SimError> {
        if self.cache.is_none() {
            return self.outer_read_bytes(addr, out);
        }
        self.cache_read(addr, out)
    }

    /// Writes raw bytes to main memory through the installed cache, or
    /// with [`AccelCtx::outer_write_bytes`] when there is none.
    ///
    /// # Errors
    ///
    /// As for [`softcache::SoftwareCache::write`] or
    /// [`AccelCtx::outer_write_bytes`], plus
    /// [`SimError::UndeclaredWrite`] when the offload declared access
    /// modes and `addr..addr+len` is not covered by a `write`/`update`
    /// declaration — the line never even turns dirty.
    #[inline]
    pub fn cached_write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), SimError> {
        if self.cache.is_none() {
            return self.outer_write_bytes(addr, data);
        }
        self.cache_write(addr, data)
    }

    /// Reads a `T` from main memory through the installed cache, or with
    /// [`AccelCtx::outer_read_pod`] when there is none.
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::cached_read_bytes`] or
    /// [`AccelCtx::outer_read_pod`].
    #[inline]
    pub fn cached_read_pod<T: Pod>(&mut self, addr: Addr) -> Result<T, SimError> {
        if self.cache.is_none() {
            return self.outer_read_pod(addr);
        }
        with_pod_buf::<T, _>(|buf| {
            self.cache_read(addr, buf)?;
            Ok(T::read_from(buf))
        })
    }

    /// Writes a `T` to main memory through the installed cache, or with
    /// [`AccelCtx::outer_write_pod`] when there is none.
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::cached_write_bytes`] or
    /// [`AccelCtx::outer_write_pod`].
    #[inline]
    pub fn cached_write_pod<T: Pod>(&mut self, addr: Addr, value: &T) -> Result<(), SimError> {
        if self.cache.is_none() {
            return self.outer_write_pod(addr, value);
        }
        with_pod_buf::<T, _>(|buf| {
            value.write_to(buf);
            self.cache_write(addr, buf)
        })
    }

    /// Writes the installed cache's dirty lines back to main memory, on
    /// this accelerator's clock; the launch also does this when the
    /// closure returns. Does nothing without a cache.
    ///
    /// # Errors
    ///
    /// As for [`softcache::SoftwareCache::flush`].
    pub fn cache_flush(&mut self) -> Result<(), SimError> {
        self.cache_op(|c, now, backing| c.flush(now, backing))
    }
}

/// Runs `f` on a zeroed buffer of exactly `T::SIZE` bytes: on the stack
/// for every Pod up to [`POD_STACK_BUF`] bytes (per-element cached
/// accesses are the hottest path in cached offload loops), on the heap
/// only for larger ones.
#[inline]
fn with_pod_buf<T: Pod, R>(f: impl FnOnce(&mut [u8]) -> R) -> R {
    if T::SIZE <= POD_STACK_BUF {
        f(&mut [0u8; POD_STACK_BUF][..T::SIZE])
    } else {
        f(&mut vec![0u8; T::SIZE])
    }
}

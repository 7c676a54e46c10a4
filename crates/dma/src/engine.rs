//! The per-accelerator DMA engine and its timing model.

use std::error::Error;
use std::fmt;

use memspace::{copy_between, Addr, AddrRange, MemError, MemoryRegion, DMA_ALIGN};

use crate::race::{RaceChecker, RaceMode};
use crate::MAX_TRANSFER;

/// A DMA tag group identifier, `0..=31` as on the Cell MFC.
///
/// Commands issued under the same tag can be waited on collectively; the
/// engine imposes no ordering between commands of the same tag (the
/// source of many of the races the checkers catch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tag(u8);

impl Tag {
    /// Number of distinct tags.
    pub const COUNT: u8 = 32;

    /// Creates a tag.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::InvalidTag`] if `raw` is 32 or more.
    pub fn new(raw: u8) -> Result<Tag, DmaError> {
        if raw < Tag::COUNT {
            Ok(Tag(raw))
        } else {
            Err(DmaError::InvalidTag { raw })
        }
    }

    /// The raw tag number.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// The single-tag mask for this tag.
    pub fn mask(self) -> TagMask {
        TagMask(1 << self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// A set of tags, one bit per tag (as in the MFC tag-status mask).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TagMask(u32);

impl TagMask {
    /// The empty mask.
    pub const EMPTY: TagMask = TagMask(0);
    /// The mask containing every tag.
    pub const ALL: TagMask = TagMask(u32::MAX);

    /// Creates a mask from raw bits.
    pub fn from_bits(bits: u32) -> TagMask {
        TagMask(bits)
    }

    /// Raw bits of the mask.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether `tag` is in the mask.
    pub fn contains(self, tag: Tag) -> bool {
        self.0 & (1 << tag.raw()) != 0
    }

    /// Returns the union of two masks.
    pub fn union(self, other: TagMask) -> TagMask {
        TagMask(self.0 | other.0)
    }

    /// Whether the mask is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the tags in the mask.
    pub fn iter(self) -> impl Iterator<Item = Tag> {
        (0..Tag::COUNT).filter_map(move |raw| {
            if self.0 & (1 << raw) != 0 {
                Some(Tag(raw))
            } else {
                None
            }
        })
    }
}

impl fmt::Debug for TagMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagMask({:#010x})", self.0)
    }
}

impl From<Tag> for TagMask {
    fn from(tag: Tag) -> TagMask {
        tag.mask()
    }
}

/// Direction of a transfer, from the issuing accelerator's viewpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DmaDirection {
    /// `dma_get`: remote (main) memory into the local store.
    Get,
    /// `dma_put`: local store out to remote (main) memory.
    Put,
}

impl fmt::Display for DmaDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaDirection::Get => write!(f, "get"),
            DmaDirection::Put => write!(f, "put"),
        }
    }
}

/// A transfer request, before timing.
///
/// `local` must lie in the engine's local store and `remote` in another
/// space (main memory on the simulated machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DmaRequest {
    /// Local-store endpoint of the transfer.
    pub local: Addr,
    /// Remote endpoint of the transfer.
    pub remote: Addr,
    /// Transfer size in bytes.
    pub size: u32,
    /// Tag group for completion tracking.
    pub tag: Tag,
    /// Transfer direction.
    pub direction: DmaDirection,
}

/// Timing parameters of the engine, in cycles (and bytes/cycle).
///
/// Defaults are Cell-like: commands cost issue overhead on the issuing
/// core, the engine processes them serially at `bytes_per_cycle`, and
/// completion is visible `latency` cycles after processing finishes.
/// Transfers not aligned to [`memspace::DMA_ALIGN`] on both endpoints
/// (or whose size is not a multiple of it) pay `misalign_penalty`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DmaTiming {
    /// Cycles the issuing core spends enqueueing a command.
    pub issue_cost: u64,
    /// Fixed per-command engine setup cost, in cycles.
    pub setup: u64,
    /// Round-trip latency added after a command finishes streaming.
    pub latency: u64,
    /// Streaming bandwidth, in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Extra cycles for transfers violating the preferred alignment.
    pub misalign_penalty: u64,
}

impl DmaTiming {
    /// Cell-like defaults (the values are in one place so experiments can
    /// sweep them): issue 32, setup 64, latency 400, 16 B/cycle,
    /// misalignment penalty 96.
    pub fn cell_like() -> DmaTiming {
        DmaTiming {
            issue_cost: 32,
            setup: 64,
            latency: 400,
            bytes_per_cycle: 16,
            misalign_penalty: 96,
        }
    }

    /// Cycles the engine needs to stream `size` bytes for a request with
    /// the given endpoints (excluding latency).
    pub fn stream_cycles(&self, request: &DmaRequest) -> u64 {
        let aligned = request.local.is_aligned_to(DMA_ALIGN)
            && request.remote.is_aligned_to(DMA_ALIGN)
            && request.size.is_multiple_of(DMA_ALIGN);
        self.stream_cycles_aligned(request.size, aligned)
    }

    /// [`DmaTiming::stream_cycles`] with the alignment of the request
    /// already decided, so issue paths that also need the alignment for
    /// statistics compute it exactly once.
    #[inline]
    pub fn stream_cycles_aligned(&self, size: u32, aligned: bool) -> u64 {
        let bw = self.bytes_per_cycle.max(1);
        // Bandwidths are powers of two in every shipped config; the
        // shift avoids a 64-bit division on the per-transfer hot path.
        let streamed = if bw.is_power_of_two() {
            (u64::from(size) + bw - 1) >> bw.trailing_zeros()
        } else {
            u64::from(size).div_ceil(bw)
        };
        let mut cycles = self.setup + streamed;
        if !aligned {
            cycles += self.misalign_penalty;
        }
        cycles
    }
}

impl Default for DmaTiming {
    fn default() -> DmaTiming {
        DmaTiming::cell_like()
    }
}

/// Errors raised when issuing or waiting on DMA commands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DmaError {
    /// Tag number out of range.
    InvalidTag {
        /// The offending raw tag value.
        raw: u8,
    },
    /// Transfer larger than the per-command hardware limit.
    TransferTooLarge {
        /// Requested size in bytes.
        size: u32,
    },
    /// Zero-byte transfers are rejected (as on the MFC).
    EmptyTransfer,
    /// The local endpoint does not lie in this engine's local store.
    WrongLocalSpace {
        /// Space the local endpoint named.
        found: memspace::SpaceId,
        /// Space of this engine's local store.
        expected: memspace::SpaceId,
    },
    /// Both endpoints name the same space; DMA moves data *between*
    /// spaces.
    SameSpace {
        /// The space named by both endpoints.
        space: memspace::SpaceId,
    },
    /// A memory error from either endpoint (bounds, overflow…).
    Memory(MemError),
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::InvalidTag { raw } => write!(f, "invalid DMA tag {raw} (must be 0..=31)"),
            DmaError::TransferTooLarge { size } => write!(
                f,
                "transfer of {size} bytes exceeds the {MAX_TRANSFER}-byte per-command limit"
            ),
            DmaError::EmptyTransfer => write!(f, "zero-byte DMA transfer"),
            DmaError::WrongLocalSpace { found, expected } => write!(
                f,
                "local endpoint names space {found} but this engine serves {expected}"
            ),
            DmaError::SameSpace { space } => {
                write!(f, "both endpoints lie in space {space}; DMA crosses spaces")
            }
            DmaError::Memory(err) => write!(f, "memory error during DMA: {err}"),
        }
    }
}

impl Error for DmaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DmaError::Memory(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MemError> for DmaError {
    fn from(err: MemError) -> DmaError {
        DmaError::Memory(err)
    }
}

/// Counters describing an engine's activity so far.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct DmaStats {
    /// Number of `get` commands issued.
    pub gets: u64,
    /// Number of `put` commands issued.
    pub puts: u64,
    /// Bytes moved into the local store.
    pub bytes_in: u64,
    /// Bytes moved out of the local store.
    pub bytes_out: u64,
    /// Cycles cores spent blocked in `wait` calls.
    pub stall_cycles: u64,
    /// Number of commands that paid the misalignment penalty.
    pub misaligned: u64,
}

/// The in-flight commands of one tag: everything `wait`/`tag_busy`
/// need to retire them.
///
/// Commands are not kept one by one — the race checker holds the
/// address ranges it needs, and a wait retires the whole group, so
/// completion tracking only needs the count and the latest time.
#[derive(Clone, Copy, Debug, Default)]
struct TagGroup {
    pending: usize,
    done_at: u64,
}

/// An MFC-like DMA engine serving one accelerator's local store.
///
/// The engine performs the byte movement *eagerly* at issue time (the
/// workspace's execution model is deterministic and sequential) while
/// modelling *when* the transfer would complete on real hardware; `wait`
/// returns the cycle at which the caller may proceed. The attached
/// [`RaceChecker`] flags accesses that would have observed incomplete
/// data on the real machine — eager data movement never masks a race.
///
/// # Example
///
/// ```
/// use dma::{DmaEngine, DmaRequest, DmaDirection, Tag};
/// use memspace::{Addr, MemoryRegion, SpaceId, SpaceKind};
///
/// # fn main() -> Result<(), dma::DmaError> {
/// let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 4096);
/// let mut ls = MemoryRegion::new(
///     SpaceId::local_store(0),
///     SpaceKind::LocalStore { accel: 0 },
///     4096,
/// );
/// let mut engine = DmaEngine::new(SpaceId::local_store(0));
/// main.write_bytes(Addr::new(SpaceId::MAIN, 64), &[1, 2, 3, 4])?;
///
/// let tag = Tag::new(0)?;
/// engine.get(
///     0, // current cycle
///     Addr::new(SpaceId::local_store(0), 128),
///     Addr::new(SpaceId::MAIN, 64),
///     4,
///     tag,
///     &mut main,
///     &mut ls,
/// )?;
/// let done_at = engine.wait(tag.mask(), 0);
/// assert!(done_at > 0, "completion takes simulated time");
/// assert_eq!(ls.read_bytes(Addr::new(SpaceId::local_store(0), 128), 4).unwrap(), &[1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DmaEngine {
    local_space: memspace::SpaceId,
    timing: DmaTiming,
    engine_free_at: u64,
    // One group per tag. A wait retires every command of a tag at once
    // and resumes at the group's latest completion, so `wait` is
    // O(tags-in-mask) plus one race-checker pass, and issue and wait
    // allocate nothing.
    groups: [TagGroup; Tag::COUNT as usize],
    inflight_count: usize,
    next_id: u64,
    last_complete_at: u64,
    stats: DmaStats,
    checker: RaceChecker,
}

impl DmaEngine {
    /// Creates an engine for the given local-store space with Cell-like
    /// timing and a recording race checker.
    pub fn new(local_space: memspace::SpaceId) -> DmaEngine {
        DmaEngine::with_timing(local_space, DmaTiming::cell_like())
    }

    /// Creates an engine with explicit timing parameters.
    pub fn with_timing(local_space: memspace::SpaceId, timing: DmaTiming) -> DmaEngine {
        DmaEngine {
            local_space,
            timing,
            engine_free_at: 0,
            groups: [TagGroup::default(); Tag::COUNT as usize],
            inflight_count: 0,
            next_id: 1,
            last_complete_at: 0,
            stats: DmaStats::default(),
            checker: RaceChecker::new(RaceMode::Record),
        }
    }

    /// The local-store space this engine serves.
    pub fn local_space(&self) -> memspace::SpaceId {
        self.local_space
    }

    /// The engine's timing parameters.
    pub fn timing(&self) -> DmaTiming {
        self.timing
    }

    /// Sets the race-checking mode (recording by default).
    pub fn set_race_mode(&mut self, mode: RaceMode) {
        self.checker.set_mode(mode);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// The race checker, for inspecting recorded reports.
    pub fn race_checker(&self) -> &RaceChecker {
        &self.checker
    }

    /// Drains recorded race reports.
    pub fn take_race_reports(&mut self) -> Vec<crate::race::RaceReport> {
        self.checker.take_reports()
    }

    #[inline]
    fn validate(&self, request: &DmaRequest) -> Result<(), DmaError> {
        if request.size == 0 {
            return Err(DmaError::EmptyTransfer);
        }
        if request.size > MAX_TRANSFER {
            return Err(DmaError::TransferTooLarge { size: request.size });
        }
        if request.local.space() != self.local_space {
            return Err(DmaError::WrongLocalSpace {
                found: request.local.space(),
                expected: self.local_space,
            });
        }
        if request.remote.space() == request.local.space() {
            return Err(DmaError::SameSpace {
                space: request.remote.space(),
            });
        }
        Ok(())
    }

    /// Issues a `get`: copies `size` bytes from `remote` (in `remote_mem`)
    /// to `local` (in `local_mem`), completing asynchronously under `tag`.
    ///
    /// Returns the cycle at which the issuing core resumes (issue
    /// overhead only — the transfer itself continues in the background).
    ///
    /// # Errors
    ///
    /// Rejects oversized, empty, mis-spaced, or out-of-bounds requests.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &mut self,
        now: u64,
        local: Addr,
        remote: Addr,
        size: u32,
        tag: Tag,
        remote_mem: &mut MemoryRegion,
        local_mem: &mut MemoryRegion,
    ) -> Result<u64, DmaError> {
        let request = DmaRequest {
            local,
            remote,
            size,
            tag,
            direction: DmaDirection::Get,
        };
        self.start(now, request, remote_mem, local_mem, false)
    }

    /// Issues a `put`: copies `size` bytes from `local` out to `remote`,
    /// completing asynchronously under `tag`.
    ///
    /// # Errors
    ///
    /// As for [`DmaEngine::get`].
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        now: u64,
        local: Addr,
        remote: Addr,
        size: u32,
        tag: Tag,
        remote_mem: &mut MemoryRegion,
        local_mem: &mut MemoryRegion,
    ) -> Result<u64, DmaError> {
        let request = DmaRequest {
            local,
            remote,
            size,
            tag,
            direction: DmaDirection::Put,
        };
        self.start(now, request, remote_mem, local_mem, false)
    }

    /// Issues `request` and immediately waits on its tag, for callers
    /// that know the tag's queue is idle (the synchronous outer-access
    /// staging path). The command is issued and retired in one step, so
    /// the tag group and the race tracker's in-flight list are never
    /// touched — every observable (statistics, command ids, race
    /// reports, engine and caller clocks) is bit-identical to
    /// [`DmaEngine::get`] or [`DmaEngine::put`] followed by
    /// [`DmaEngine::wait`] on the tag's mask.
    ///
    /// Returns the cycle at which the caller resumes (the wait's return
    /// value).
    ///
    /// # Errors
    ///
    /// As for [`DmaEngine::get`].
    #[inline]
    pub fn sync(
        &mut self,
        now: u64,
        request: DmaRequest,
        remote_mem: &mut MemoryRegion,
        local_mem: &mut MemoryRegion,
    ) -> Result<u64, DmaError> {
        debug_assert!(
            !self.tag_busy(request.tag),
            "sync transfer requires an idle tag queue"
        );
        self.start(now, request, remote_mem, local_mem, true)
    }

    /// The one validate → copy → schedule body behind `get`, `put` and
    /// `sync`. The engine processes commands serially, starting when
    /// both the command arrives and the engine is free. A `sync`
    /// command is retired on the spot: it is race-scanned against
    /// everything in flight but never queued, and the caller resumes
    /// when it completes.
    #[inline]
    fn start(
        &mut self,
        now: u64,
        request: DmaRequest,
        remote_mem: &mut MemoryRegion,
        local_mem: &mut MemoryRegion,
        sync: bool,
    ) -> Result<u64, DmaError> {
        self.validate(&request)?;
        let DmaRequest {
            local,
            remote,
            size,
            tag,
            direction,
        } = request;
        match direction {
            DmaDirection::Get => {
                copy_between(remote_mem, remote, local_mem, local, size)?;
                self.stats.gets += 1;
                self.stats.bytes_in += u64::from(size);
            }
            DmaDirection::Put => {
                copy_between(local_mem, local, remote_mem, remote, size)?;
                self.stats.puts += 1;
                self.stats.bytes_out += u64::from(size);
            }
        }
        let aligned = local.is_aligned_to(DMA_ALIGN)
            && remote.is_aligned_to(DMA_ALIGN)
            && size.is_multiple_of(DMA_ALIGN);
        if !aligned {
            self.stats.misaligned += 1;
        }
        let start = now.max(self.engine_free_at);
        self.engine_free_at = start + self.timing.stream_cycles_aligned(size, aligned);
        let complete_at = self.engine_free_at + self.timing.latency;
        self.last_complete_at = complete_at;
        let id = self.next_id;
        self.next_id += 1;
        let issued = now + self.timing.issue_cost;
        if sync {
            self.checker.note_sync(id, &request, now);
            // The wait, viewed from the issuing core's resume point: with
            // the tag queue otherwise empty the group's finish time is
            // this command's completion.
            let resume = issued.max(complete_at);
            self.stats.stall_cycles += resume - issued;
            return Ok(resume);
        }
        self.checker.note_issue(id, &request, now);
        let group = &mut self.groups[tag.raw() as usize];
        group.pending += 1;
        group.done_at = group.done_at.max(complete_at);
        self.inflight_count += 1;
        Ok(issued)
    }

    /// Waits for every in-flight command whose tag is in `mask`.
    ///
    /// Returns the cycle at which the caller resumes: `now` if everything
    /// already completed, otherwise the latest completion time. Matching
    /// commands are retired.
    pub fn wait(&mut self, mask: TagMask, now: u64) -> u64 {
        let mut resume = now;
        let mut retired = 0;
        let mut bits = mask.bits();
        while bits != 0 {
            let raw = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let group = std::mem::take(&mut self.groups[raw]);
            if group.pending > 0 {
                resume = resume.max(group.done_at);
                retired += group.pending;
            }
        }
        if retired > 0 {
            self.inflight_count -= retired;
            self.checker.note_wait(mask);
        }
        self.stats.stall_cycles += resume - now;
        resume
    }

    /// Waits for *all* in-flight commands (a full barrier).
    pub fn wait_all(&mut self, now: u64) -> u64 {
        self.wait(TagMask::ALL, now)
    }

    /// Completion cycle of the most recently issued command (0 if none
    /// was ever issued). The timing model is deterministic, so the
    /// completion time is known at issue time; tracing layers read this
    /// right after `get`/`put` to stamp transfer intervals without
    /// perturbing the engine.
    pub fn last_complete_at(&self) -> u64 {
        self.last_complete_at
    }

    /// Number of commands still in flight.
    pub fn inflight_len(&self) -> usize {
        self.inflight_count
    }

    /// Whether any command under `tag` is still in flight.
    #[inline]
    pub fn tag_busy(&self, tag: Tag) -> bool {
        self.groups[tag.raw() as usize].pending > 0
    }

    /// Number of in-flight commands whose tag is in `mask`.
    ///
    /// Pure inspection: nothing is retired and no time passes. Fault
    /// layers use this to ask "would this wait actually block?" before
    /// deciding whether a timeout can plausibly be injected.
    pub fn pending_on(&self, mask: TagMask) -> usize {
        let mut bits = mask.bits();
        let mut pending = 0;
        while bits != 0 {
            let raw = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            pending += self.groups[raw].pending;
        }
        pending
    }

    /// Drops every in-flight command without waiting for it.
    ///
    /// Models the engine of a dead accelerator: queued transfers are
    /// abandoned (their eager byte movement already happened and is not
    /// undone — on real hardware the data is simply in an undefined
    /// state, which the simulation approximates as "whatever landed").
    /// Retires the commands with the race checker so later accesses are
    /// not flagged against ghosts.
    pub fn purge(&mut self) {
        self.groups = [TagGroup::default(); Tag::COUNT as usize];
        self.inflight_count = 0;
        self.checker.note_wait(TagMask::ALL);
    }

    /// Restores the engine to its as-constructed state: in-flight
    /// commands, statistics, the race checker's history, the command
    /// id counter and every clock are discarded. The race checker keeps
    /// its capacity, so a reset engine reissues without allocating —
    /// the machine-reuse path of the sim farm depends on a reset engine
    /// being indistinguishable from a new one.
    pub fn reset(&mut self) {
        self.groups = [TagGroup::default(); Tag::COUNT as usize];
        self.inflight_count = 0;
        self.engine_free_at = 0;
        self.next_id = 1;
        self.last_complete_at = 0;
        self.stats = DmaStats::default();
        self.checker.reset();
    }

    /// Records a direct core access to the local store so the race
    /// checker can flag conflicts with in-flight transfers.
    ///
    /// The `offload-rt` contexts call this on every local load/store.
    pub fn note_local_access(&mut self, range: AddrRange, kind: crate::race::AccessKind, now: u64) {
        self.checker.note_access(range, kind, now);
    }

    /// Reports a put that a mode-annotated offload never declared
    /// writable (see [`RaceChecker::note_undeclared_write`]).
    pub fn note_undeclared_write(&mut self, range: AddrRange, read_only: bool, now: u64) {
        self.checker.note_undeclared_write(range, read_only, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memspace::{SpaceId, SpaceKind};

    fn setup() -> (MemoryRegion, MemoryRegion, DmaEngine) {
        let main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64 * 1024);
        let ls = MemoryRegion::new(
            SpaceId::local_store(0),
            SpaceKind::LocalStore { accel: 0 },
            64 * 1024,
        );
        let engine = DmaEngine::new(SpaceId::local_store(0));
        (main, ls, engine)
    }

    fn tag(n: u8) -> Tag {
        Tag::new(n).unwrap()
    }

    #[test]
    fn tag_validation() {
        assert!(Tag::new(31).is_ok());
        assert!(matches!(
            Tag::new(32),
            Err(DmaError::InvalidTag { raw: 32 })
        ));
    }

    #[test]
    fn tag_mask_operations() {
        let m = tag(0).mask().union(tag(5).mask());
        assert!(m.contains(tag(0)));
        assert!(m.contains(tag(5)));
        assert!(!m.contains(tag(1)));
        assert_eq!(m.iter().count(), 2);
        assert!(TagMask::EMPTY.is_empty());
        assert!(TagMask::ALL.contains(tag(31)));
        assert_eq!(TagMask::from(tag(3)).bits(), 8);
    }

    #[test]
    fn get_moves_data_and_costs_time() {
        let (mut main, mut ls, mut engine) = setup();
        let src = Addr::new(SpaceId::MAIN, 256);
        let dst = Addr::new(SpaceId::local_store(0), 512);
        main.write_bytes(src, &[7; 64]).unwrap();

        let resume = engine
            .get(0, dst, src, 64, tag(1), &mut main, &mut ls)
            .unwrap();
        assert_eq!(resume, engine.timing().issue_cost, "issue is non-blocking");
        assert!(engine.tag_busy(tag(1)));

        let done = engine.wait(tag(1).mask(), resume);
        let timing = engine.timing();
        let expected = timing.setup + 64 / timing.bytes_per_cycle + timing.latency;
        assert_eq!(done, expected);
        assert_eq!(ls.read_bytes(dst, 64).unwrap(), &[7u8; 64][..]);
        assert!(!engine.tag_busy(tag(1)));
    }

    #[test]
    fn reset_matches_a_fresh_engine() {
        let (mut main, mut ls, mut engine) = setup();
        let src = Addr::new(SpaceId::MAIN, 256);
        let dst = Addr::new(SpaceId::local_store(0), 512);
        main.write_bytes(src, &[7; 64]).unwrap();
        let resume = engine
            .get(0, dst, src, 64, tag(1), &mut main, &mut ls)
            .unwrap();
        // A race on purpose, so the checker has history to forget.
        engine.note_local_access(
            AddrRange::new(dst, 16).unwrap(),
            crate::race::AccessKind::Read,
            resume,
        );
        assert_eq!(engine.race_checker().detected(), 1);

        engine.reset();
        assert_eq!(engine.stats(), DmaStats::default());
        assert_eq!(engine.inflight_len(), 0);
        assert_eq!(engine.last_complete_at(), 0);
        assert_eq!(engine.race_checker().detected(), 0);
        assert!(engine.race_checker().reports().is_empty());

        // The replayed transfer behaves exactly like the first one on a
        // fresh engine: same issue cost, same completion time.
        let (mut main2, mut ls2, mut fresh) = setup();
        main2.write_bytes(src, &[7; 64]).unwrap();
        let r1 = engine
            .get(0, dst, src, 64, tag(1), &mut main, &mut ls)
            .unwrap();
        let r2 = fresh
            .get(0, dst, src, 64, tag(1), &mut main2, &mut ls2)
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(
            engine.wait(tag(1).mask(), r1),
            fresh.wait(tag(1).mask(), r2)
        );
        assert_eq!(engine.stats(), fresh.stats());
    }

    #[test]
    fn put_moves_data_out() {
        let (mut main, mut ls, mut engine) = setup();
        let local = Addr::new(SpaceId::local_store(0), 1024);
        let remote = Addr::new(SpaceId::MAIN, 2048);
        ls.write_bytes(local, &[3; 32]).unwrap();

        engine
            .put(0, local, remote, 32, tag(2), &mut main, &mut ls)
            .unwrap();
        engine.wait_all(0);
        assert_eq!(main.read_bytes(remote, 32).unwrap(), &[3u8; 32][..]);
        assert_eq!(engine.stats().puts, 1);
        assert_eq!(engine.stats().bytes_out, 32);
    }

    #[test]
    fn same_tag_commands_overlap_the_engine_pipeline() {
        // Two gets issued back-to-back: the engine streams them serially,
        // but both are in flight concurrently (latency overlaps), so the
        // pair completes sooner than two fully-serialised round trips —
        // the Figure 1 motivation for tagged, non-blocking DMA.
        let (mut main, mut ls, mut engine) = setup();
        let t = tag(0);
        let a = Addr::new(SpaceId::local_store(0), 0x100);
        let b = Addr::new(SpaceId::local_store(0), 0x200);
        let ra = Addr::new(SpaceId::MAIN, 0x1000);
        let rb = Addr::new(SpaceId::MAIN, 0x2000);

        let after_a = engine.get(0, a, ra, 256, t, &mut main, &mut ls).unwrap();
        let after_b = engine
            .get(after_a, b, rb, 256, t, &mut main, &mut ls)
            .unwrap();
        let done_parallel = engine.wait(t.mask(), after_b);

        // Fully blocking alternative: wait after each get.
        let (mut main2, mut ls2, mut engine2) = setup();
        let after_a = engine2.get(0, a, ra, 256, t, &mut main2, &mut ls2).unwrap();
        let done_a = engine2.wait(t.mask(), after_a);
        let after_b = engine2
            .get(done_a, b, rb, 256, t, &mut main2, &mut ls2)
            .unwrap();
        let done_blocking = engine2.wait(t.mask(), after_b);

        assert!(
            done_parallel < done_blocking,
            "tagged overlap ({done_parallel}) should beat blocking ({done_blocking})"
        );
    }

    #[test]
    fn wait_on_idle_tag_is_free() {
        let (_, _, mut engine) = setup();
        assert_eq!(engine.wait(tag(7).mask(), 123), 123);
        assert_eq!(engine.stats().stall_cycles, 0);
    }

    #[test]
    fn wait_only_retires_matching_tags() {
        let (mut main, mut ls, mut engine) = setup();
        let a = Addr::new(SpaceId::local_store(0), 0x100);
        let ra = Addr::new(SpaceId::MAIN, 0x1000);
        engine
            .get(0, a, ra, 16, tag(1), &mut main, &mut ls)
            .unwrap();
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x200),
                Addr::new(SpaceId::MAIN, 0x2000),
                16,
                tag(2),
                &mut main,
                &mut ls,
            )
            .unwrap();
        engine.wait(tag(1).mask(), 0);
        assert!(!engine.tag_busy(tag(1)));
        assert!(engine.tag_busy(tag(2)));
        assert_eq!(engine.inflight_len(), 1);
    }

    #[test]
    fn union_masks_wait_on_several_tags_at_once() {
        let (mut main, mut ls, mut engine) = setup();
        for (i, t) in [tag(1), tag(2), tag(3)].into_iter().enumerate() {
            engine
                .get(
                    0,
                    Addr::new(SpaceId::local_store(0), 0x100 * (i as u32 + 1)),
                    Addr::new(SpaceId::MAIN, 0x1000 * (i as u32 + 1)),
                    32,
                    t,
                    &mut main,
                    &mut ls,
                )
                .unwrap();
        }
        let done = engine.wait(tag(1).mask().union(tag(3).mask()), 0);
        assert!(done > 0);
        assert!(!engine.tag_busy(tag(1)));
        assert!(engine.tag_busy(tag(2)), "tag 2 was not in the mask");
        assert!(!engine.tag_busy(tag(3)));
    }

    #[test]
    fn misaligned_transfers_pay_a_penalty() {
        let (mut main, mut ls, mut engine) = setup();
        let t = tag(0);
        // Aligned transfer.
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x100),
                Addr::new(SpaceId::MAIN, 0x1000),
                64,
                t,
                &mut main,
                &mut ls,
            )
            .unwrap();
        let aligned_done = engine.wait(t.mask(), 0);

        let (mut main2, mut ls2, mut engine2) = setup();
        engine2
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x101),
                Addr::new(SpaceId::MAIN, 0x1001),
                64,
                t,
                &mut main2,
                &mut ls2,
            )
            .unwrap();
        let misaligned_done = engine2.wait(t.mask(), 0);
        assert_eq!(
            misaligned_done,
            aligned_done + engine2.timing().misalign_penalty
        );
        assert_eq!(engine2.stats().misaligned, 1);
        assert_eq!(engine.stats().misaligned, 0);
    }

    #[test]
    fn oversized_and_empty_transfers_are_rejected() {
        let (mut main, mut ls, mut engine) = setup();
        let local = Addr::new(SpaceId::local_store(0), 0);
        let remote = Addr::new(SpaceId::MAIN, 0);
        let err = engine
            .get(
                0,
                local,
                remote,
                MAX_TRANSFER + 1,
                tag(0),
                &mut main,
                &mut ls,
            )
            .unwrap_err();
        assert!(matches!(err, DmaError::TransferTooLarge { .. }));
        let err = engine
            .get(0, local, remote, 0, tag(0), &mut main, &mut ls)
            .unwrap_err();
        assert!(matches!(err, DmaError::EmptyTransfer));
    }

    #[test]
    fn wrong_spaces_are_rejected() {
        let (mut main, mut ls, mut engine) = setup();
        // Local endpoint in main memory.
        let err = engine
            .get(
                0,
                Addr::new(SpaceId::MAIN, 0),
                Addr::new(SpaceId::MAIN, 64),
                16,
                tag(0),
                &mut main,
                &mut ls,
            )
            .unwrap_err();
        assert!(matches!(err, DmaError::WrongLocalSpace { .. }));
        // Both endpoints in the local store.
        let err = engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0),
                Addr::new(SpaceId::local_store(0), 64),
                16,
                tag(0),
                &mut main,
                &mut ls,
            )
            .unwrap_err();
        assert!(matches!(err, DmaError::SameSpace { .. }));
    }

    #[test]
    fn out_of_bounds_transfer_is_a_memory_error() {
        let (mut main, mut ls, mut engine) = setup();
        let err = engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x100),
                Addr::new(SpaceId::MAIN, 64 * 1024 - 4),
                16,
                tag(0),
                &mut main,
                &mut ls,
            )
            .unwrap_err();
        assert!(matches!(err, DmaError::Memory(_)));
    }

    #[test]
    fn stall_cycles_are_accounted() {
        let (mut main, mut ls, mut engine) = setup();
        let resume = engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x100),
                Addr::new(SpaceId::MAIN, 0x1000),
                1024,
                tag(0),
                &mut main,
                &mut ls,
            )
            .unwrap();
        let done = engine.wait(tag(0).mask(), resume);
        assert_eq!(engine.stats().stall_cycles, done - resume);
    }

    #[test]
    fn pending_on_counts_only_masked_tags() {
        let (mut main, mut ls, mut engine) = setup();
        assert_eq!(engine.pending_on(TagMask::ALL), 0);
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x100),
                Addr::new(SpaceId::MAIN, 0x1000),
                16,
                tag(1),
                &mut main,
                &mut ls,
            )
            .unwrap();
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x200),
                Addr::new(SpaceId::MAIN, 0x2000),
                16,
                tag(1),
                &mut main,
                &mut ls,
            )
            .unwrap();
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x300),
                Addr::new(SpaceId::MAIN, 0x3000),
                16,
                tag(4),
                &mut main,
                &mut ls,
            )
            .unwrap();
        assert_eq!(engine.pending_on(tag(1).mask()), 2);
        assert_eq!(engine.pending_on(tag(4).mask()), 1);
        assert_eq!(engine.pending_on(tag(9).mask()), 0);
        assert_eq!(engine.pending_on(TagMask::ALL), 3);
        // Inspection retires nothing.
        assert_eq!(engine.inflight_len(), 3);
        engine.wait(tag(1).mask(), 0);
        assert_eq!(engine.pending_on(TagMask::ALL), 1);
    }

    #[test]
    fn purge_abandons_in_flight_commands() {
        let (mut main, mut ls, mut engine) = setup();
        engine
            .get(
                0,
                Addr::new(SpaceId::local_store(0), 0x100),
                Addr::new(SpaceId::MAIN, 0x1000),
                64,
                tag(3),
                &mut main,
                &mut ls,
            )
            .unwrap();
        engine
            .put(
                0,
                Addr::new(SpaceId::local_store(0), 0x200),
                Addr::new(SpaceId::MAIN, 0x2000),
                64,
                tag(7),
                &mut main,
                &mut ls,
            )
            .unwrap();
        assert_eq!(engine.inflight_len(), 2);
        engine.purge();
        assert_eq!(engine.inflight_len(), 0);
        assert!(!engine.tag_busy(tag(3)));
        assert!(!engine.tag_busy(tag(7)));
        // A purged engine waits for nothing: the caller resumes at once.
        assert_eq!(engine.wait_all(5), 5);
    }

    #[test]
    fn error_display_is_informative() {
        let err = DmaError::TransferTooLarge { size: 99999 };
        assert!(err.to_string().contains("99999"));
        let err = DmaError::InvalidTag { raw: 40 };
        assert!(err.to_string().contains("40"));
    }
}

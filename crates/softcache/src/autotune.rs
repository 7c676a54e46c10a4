//! Trace-driven cache-policy autotuning.
//!
//! Paper §4.2 says the right software cache is found by *profiling and
//! choosing*: "several cache implementations favouring different types
//! of application behaviour" ship with the runtime and the programmer
//! picks one per offload. This module closes that loop mechanically:
//!
//! 1. capture an [`AccessTrace`] of an offload's outer accesses
//!    (`simcell` records one when its access-trace mode is enabled),
//! 2. replay the trace through a lightweight analytic cost model for
//!    every candidate [`CacheChoice`] in a [`TuneOptions`] search grid
//!    ([`model_cycles`]),
//! 3. validate the top-k model picks with an *exact* simulated replay
//!    against the real cache implementations and DMA engine
//!    ([`replay_exact`]), and return the minimum-cycle configuration
//!    ([`autotune`]).
//!
//! The model replicates the caches' metadata machinery (LRU sets,
//! write-through pipelining, stream prefetch) and the DMA engine's
//! serial-channel timing exactly, with one deliberate simplification:
//! it is **alignment-blind** — it never charges the engine's
//! misalignment penalty. On DMA-aligned traces the model is therefore
//! bit-identical to the exact replay; on arbitrary traces it
//! underestimates by at most [`MODEL_ALIGNMENT_TOLERANCE`] (property
//! tests pin both bounds). The exact replay of the top-k candidates is
//! what the final ranking trusts.
//!
//! Traces with no [`dominant_stride`] — graph frontiers, hash probes —
//! get an extra treatment when [`TuneOptions::reuse_prune`] is on: an
//! LRU [`ReuseHistogram`] predicts each candidate capacity's misses
//! analytically (within [`REUSE_MISS_TOLERANCE`] of the real cache,
//! property-tested), and the search drops streaming candidates plus
//! any capacity that buys no predicted misses over a smaller one.

use std::fmt;

use dma::{DmaEngine, DmaTiming, Tag};
use memspace::{Addr, MemoryRegion, SpaceId, SpaceKind, DMA_ALIGN, LOCAL_STORE_SIZE};

use crate::cache::SetAssociativeCache;
use crate::config::{CacheConfig, WritePolicy};
use crate::stream::StreamCache;
use crate::{CacheBacking, CacheError, SoftwareCache};

/// Relative tolerance of the cost model on arbitrary (possibly
/// misaligned) traces: the model is alignment-blind, and the engine's
/// misalignment penalty (96 cycles under [`DmaTiming::cell_like`]) is at
/// most ~21% of the cheapest possible round trip it can attach to, so
/// the model never under-estimates the exact replay by more than this
/// fraction. On 16-byte-aligned traces the model is bit-exact.
pub const MODEL_ALIGNMENT_TOLERANCE: f64 = 0.25;

// ---- the captured trace --------------------------------------------------

/// One operation in a captured access trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceOp {
    /// A read of `len` bytes from remote offset `offset`.
    Read {
        /// Byte offset in the remote (main) space.
        offset: u32,
        /// Length in bytes.
        len: u32,
    },
    /// A write of `len` bytes to remote offset `offset`.
    Write {
        /// Byte offset in the remote (main) space.
        offset: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Pure computation between accesses (needed so replayed totals
    /// match measured offload durations bit-for-bit).
    Compute {
        /// Cycles of computation.
        cycles: u64,
    },
}

impl TraceOp {
    /// Transfer length of the operation (0 for compute).
    pub fn len(&self) -> u32 {
        match *self {
            TraceOp::Read { len, .. } | TraceOp::Write { len, .. } => len,
            TraceOp::Compute { .. } => 0,
        }
    }

    /// Whether this operation transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One recorded access, tagged with the offload span it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessRecord {
    /// Ordinal of the offload that issued the access (the machine's
    /// offload counter at the time, starting from 0).
    pub span: u32,
    /// The operation.
    pub op: TraceOp,
}

/// A captured access trace: the address/size/direction stream of an
/// offload's outer accesses, in issue order.
///
/// Disabled by default and allocation-free while disabled, mirroring the
/// event log's zero-cost-when-off contract. Enable with
/// [`AccessTrace::set_enabled`], run the workload, then hand
/// [`AccessTrace::records`] to [`autotune`].
#[derive(Debug, Default)]
pub struct AccessTrace {
    enabled: bool,
    records: Vec<AccessRecord>,
}

impl AccessTrace {
    /// Creates a disabled, empty trace.
    pub fn new() -> AccessTrace {
        AccessTrace::default()
    }

    /// Creates an enabled trace pre-filled with `records` (for building
    /// traces by hand in tests and tools).
    pub fn from_records(records: Vec<AccessRecord>) -> AccessTrace {
        AccessTrace {
            enabled: true,
            records,
        }
    }

    /// Enables or disables capture. Disabling keeps existing records.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether capture is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops all records (capacity is released too, so a disabled trace
    /// goes back to owning no heap memory).
    pub fn clear(&mut self) {
        self.records = Vec::new();
    }

    /// The recorded accesses, in issue order.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Heap capacity currently held (0 while disabled and never used —
    /// pinned by the zero-cost observability tests).
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Records a read; no-op (and allocation-free) while disabled.
    #[inline]
    pub fn record_read(&mut self, span: u32, offset: u32, len: u32) {
        if self.enabled && len > 0 {
            self.records.push(AccessRecord {
                span,
                op: TraceOp::Read { offset, len },
            });
        }
    }

    /// Records a write; no-op (and allocation-free) while disabled.
    #[inline]
    pub fn record_write(&mut self, span: u32, offset: u32, len: u32) {
        if self.enabled && len > 0 {
            self.records.push(AccessRecord {
                span,
                op: TraceOp::Write { offset, len },
            });
        }
    }

    /// Records pure compute cycles between accesses; consecutive compute
    /// records in the same span coalesce. No-op while disabled.
    #[inline]
    pub fn record_compute(&mut self, span: u32, cycles: u64) {
        if !self.enabled || cycles == 0 {
            return;
        }
        if let Some(last) = self.records.last_mut() {
            if last.span == span {
                if let TraceOp::Compute { cycles: ref mut c } = last.op {
                    *c += cycles;
                    return;
                }
            }
        }
        self.records.push(AccessRecord {
            span,
            op: TraceOp::Compute { cycles },
        });
    }

    /// The records belonging to one offload span.
    pub fn span_records(&self, span: u32) -> Vec<AccessRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| r.span == span)
            .collect()
    }

    /// One past the highest remote byte touched (0 if no transfers).
    pub fn max_extent(&self) -> u32 {
        max_extent(&self.records)
    }

    /// Whether the trace contains any write.
    pub fn has_writes(&self) -> bool {
        has_writes(&self.records)
    }
}

fn max_extent(records: &[AccessRecord]) -> u32 {
    records
        .iter()
        .map(|r| match r.op {
            TraceOp::Read { offset, len } | TraceOp::Write { offset, len } => {
                u64::from(offset) + u64::from(len)
            }
            TraceOp::Compute { .. } => 0,
        })
        .max()
        .unwrap_or(0)
        .min(u64::from(u32::MAX)) as u32
}

fn has_writes(records: &[AccessRecord]) -> bool {
    records
        .iter()
        .any(|r| matches!(r.op, TraceOp::Write { .. }))
}

// ---- irregular traces: reuse-distance analysis ---------------------------

/// Relative tolerance of the reuse-distance miss model on irregular
/// traces: the histogram predicts misses for a *fully associative* LRU
/// cache of the candidate's capacity, so a set-associative cache's
/// conflict misses are invisible to it. Property tests pin that the
/// prediction never undercounts the real cache's misses by more than
/// this fraction (mirroring [`MODEL_ALIGNMENT_TOLERANCE`] for cycles).
pub const REUSE_MISS_TOLERANCE: f64 = 0.25;

/// An LRU stack-distance histogram of a trace at one line granularity.
///
/// For every line-granule touch, the *reuse distance* is the number of
/// distinct lines touched since the previous touch of the same line
/// (cold touches have no distance). The classic stack property then
/// gives an analytic miss count for any capacity in one pass: a fully
/// associative LRU cache of `c` lines misses exactly the touches whose
/// distance is `>= c`, plus the cold touches
/// ([`ReuseHistogram::predicted_misses`]).
///
/// This is the autotuner's handle on *irregular* traces — graph
/// frontiers, hash probes — where stride detection
/// ([`dominant_stride`]) finds nothing and streaming prefetch is
/// useless, but capacity still matters in a way the histogram exposes
/// directly.
#[derive(Clone, Debug)]
pub struct ReuseHistogram {
    line_size: u32,
    /// `bins[d]` = touches whose reuse distance is exactly `d`.
    bins: Vec<u64>,
    cold: u64,
    touches: u64,
}

impl ReuseHistogram {
    /// Builds the histogram of `records` at `line_size` granularity
    /// (reads and writes both count as touches; compute records are
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a power of two.
    pub fn from_records(records: &[AccessRecord], line_size: u32) -> ReuseHistogram {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        let mut stack: Vec<u32> = Vec::new();
        let mut bins: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut touches = 0u64;
        for rec in records {
            let (offset, len) = match rec.op {
                TraceOp::Read { offset, len } | TraceOp::Write { offset, len } => (offset, len),
                TraceOp::Compute { .. } => continue,
            };
            let first = offset / line_size;
            // The line of the last byte, with the end clamped to the
            // 32-bit address space; an empty access at offset 0 has none.
            let Some(last_byte) = offset.saturating_add(len).checked_sub(1) else {
                continue;
            };
            let last = last_byte / line_size;
            for line in first..=last {
                touches += 1;
                match stack.iter().position(|&l| l == line) {
                    Some(depth) => {
                        if bins.len() <= depth {
                            bins.resize(depth + 1, 0);
                        }
                        bins[depth] += 1;
                        stack.remove(depth);
                    }
                    None => cold += 1,
                }
                stack.insert(0, line);
            }
        }
        ReuseHistogram {
            line_size,
            bins,
            cold,
            touches,
        }
    }

    /// The line granularity the histogram was built at.
    pub fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Total line-granule touches observed.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Touches of never-before-seen lines (compulsory misses at any
    /// capacity).
    pub fn cold_touches(&self) -> u64 {
        self.cold
    }

    /// Analytic miss count for a fully associative LRU cache holding
    /// `capacity_lines` lines: cold touches plus every reuse at
    /// distance `>= capacity_lines`. Monotone non-increasing in
    /// capacity; equals [`ReuseHistogram::cold_touches`] once the
    /// capacity covers the whole reuse stack.
    pub fn predicted_misses(&self, capacity_lines: u32) -> u64 {
        let far: u64 = self
            .bins
            .iter()
            .skip(capacity_lines as usize)
            .copied()
            .sum();
        self.cold + far
    }
}

/// The dominant successive-access stride of a trace, if one exists: the
/// byte delta between consecutive transfer offsets that accounts for at
/// least half of all deltas. Streaming workloads report their stride;
/// irregular workloads (graph frontiers, hash probes) report `None`,
/// which is what flips [`autotune`] from stride thinking to the
/// reuse-distance histogram when [`TuneOptions::reuse_prune`] is set.
/// A zero delta (the same offset again) is never a stride.
///
/// Linear time: a two-counter majority vote keeps every delta that
/// could account for more than a third of all deltas, and one more pass
/// counts those candidates exactly. When two deltas each account for
/// exactly half, the smaller magnitude wins.
pub fn dominant_stride(records: &[AccessRecord]) -> Option<u32> {
    let mut votes = [(0i64, 0usize); 2];
    let mut deltas = 0usize;
    for_each_delta(records, |delta| {
        deltas += 1;
        if let Some(vote) = votes.iter_mut().find(|v| v.1 > 0 && v.0 == delta) {
            vote.1 += 1;
        } else if let Some(vote) = votes.iter_mut().find(|v| v.1 == 0) {
            *vote = (delta, 1);
        } else {
            for vote in &mut votes {
                vote.1 -= 1;
            }
        }
    });
    // A slot the vote emptied still names a delta; counting it too is
    // harmless, because only exact counts decide.
    let mut counts = votes.map(|(delta, _)| (delta, 0usize));
    for_each_delta(records, |delta| {
        for (candidate, count) in &mut counts {
            if *candidate == delta {
                *count += 1;
            }
        }
    });
    let (delta, _) = counts
        .into_iter()
        .filter(|&(_, count)| count * 2 >= deltas)
        .max_by_key(|&(delta, count)| (count, std::cmp::Reverse(delta.unsigned_abs())))?;
    if delta == 0 {
        None
    } else {
        u32::try_from(delta.unsigned_abs()).ok()
    }
}

/// Calls `f` with the delta between each pair of consecutive transfer
/// offsets in `records`.
fn for_each_delta(records: &[AccessRecord], mut f: impl FnMut(i64)) {
    let mut previous: Option<i64> = None;
    for rec in records {
        let offset = match rec.op {
            TraceOp::Read { offset, .. } | TraceOp::Write { offset, .. } => i64::from(offset),
            TraceOp::Compute { .. } => continue,
        };
        if let Some(previous) = previous {
            f(offset - previous);
        }
        previous = Some(offset);
    }
}

/// Prunes the candidate list for an irregular trace using reuse
/// distances: streaming caches are dropped (next-line prefetch is pure
/// waste without a stride), and within each set-associative geometry
/// family (same line size, ways and write policy) only capacities that
/// strictly reduce the histogram's predicted misses survive — capacity
/// past the trace's reuse working set buys nothing, so the tuner stops
/// modelling it.
fn prune_irregular(choices: Vec<CacheChoice>, records: &[AccessRecord]) -> Vec<CacheChoice> {
    let mut histograms: Vec<(u32, ReuseHistogram)> = Vec::new();
    let mut predicted = |config: &CacheConfig| -> u64 {
        let line = config.line_size;
        if let Some((_, h)) = histograms.iter().find(|(l, _)| *l == line) {
            return h.predicted_misses(config.capacity_bytes() / line);
        }
        let h = ReuseHistogram::from_records(records, line);
        let misses = h.predicted_misses(config.capacity_bytes() / line);
        histograms.push((line, h));
        misses
    };
    // Group keys in first-seen order; within a group, candidates arrive
    // capacity-ascending (TuneOptions::candidates iterates capacities
    // outermost, so re-sort per group to be safe).
    let mut groups: Vec<((u32, u32, WritePolicy), Vec<CacheConfig>)> = Vec::new();
    let mut kept: Vec<CacheChoice> = Vec::new();
    for choice in choices {
        match choice {
            CacheChoice::Naive => kept.push(choice),
            CacheChoice::Stream(_) => {}
            CacheChoice::SetAssoc(config) => {
                let key = (config.line_size, config.ways, config.write);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(config),
                    None => groups.push((key, vec![config])),
                }
            }
        }
    }
    for (_, mut members) in groups {
        members.sort_by_key(|c| c.capacity_bytes());
        let mut best = u64::MAX;
        for config in members {
            let misses = predicted(&config);
            if misses < best {
                best = misses;
                kept.push(CacheChoice::SetAssoc(config));
            }
        }
    }
    if kept.is_empty() {
        kept.push(CacheChoice::Naive);
    }
    kept
}

// ---- the candidate space -------------------------------------------------

/// A cache policy candidate: which cache family to interpose (if any)
/// and its geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheChoice {
    /// No cache: every access is a synchronous outer DMA round trip.
    Naive,
    /// An N-way set-associative cache ([`SetAssociativeCache`]).
    SetAssoc(CacheConfig),
    /// A two-buffer streaming cache ([`StreamCache`]; only `line_size`
    /// and the cost fields of the config apply).
    Stream(CacheConfig),
}

impl CacheChoice {
    /// The family name used when comparing against hand-picked winners:
    /// `"naive"`, `"set-associative"` or `"stream"`.
    pub fn family(&self) -> &'static str {
        match self {
            CacheChoice::Naive => "naive",
            CacheChoice::SetAssoc(_) => "set-associative",
            CacheChoice::Stream(_) => "stream",
        }
    }

    /// The cache configuration, if this choice uses a cache.
    pub fn config(&self) -> Option<CacheConfig> {
        match self {
            CacheChoice::Naive => None,
            CacheChoice::SetAssoc(c) | CacheChoice::Stream(c) => Some(*c),
        }
    }

    /// The write-policy-adjusted variant of this choice for an offload
    /// whose access-mode declarations are all `read`: the same
    /// geometry with [`WritePolicy::WriteThrough`], so no dirty line
    /// can ever form and the end-of-block flush has nothing to write
    /// back. For a genuinely read-only working set this costs the same
    /// cycles (stores are what the policies disagree on, and a store
    /// would be rejected as an undeclared write anyway) — the value is
    /// making "no deferred write-back exists" a property of the cache,
    /// not an accident of the access pattern.
    pub fn for_read_only(&self) -> CacheChoice {
        match self {
            CacheChoice::Naive => CacheChoice::Naive,
            CacheChoice::SetAssoc(c) => {
                CacheChoice::SetAssoc(c.write_policy(WritePolicy::WriteThrough))
            }
            CacheChoice::Stream(c) => {
                CacheChoice::Stream(c.write_policy(WritePolicy::WriteThrough))
            }
        }
    }
}

impl fmt::Display for CacheChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheChoice::Naive => write!(f, "no cache"),
            CacheChoice::SetAssoc(c) => {
                let cap = c.capacity_bytes();
                if cap.is_multiple_of(1024) {
                    write!(f, "{}-way {}K/{}B", c.ways, cap / 1024, c.line_size)?;
                } else {
                    write!(f, "{}-way {}B/{}B", c.ways, cap, c.line_size)?;
                }
                if c.write == WritePolicy::WriteThrough {
                    write!(f, " wt")?;
                }
                Ok(())
            }
            CacheChoice::Stream(c) => write!(f, "stream 2x{}B", c.line_size),
        }
    }
}

/// The search space and machine parameters for [`autotune`].
///
/// The machine-parameter defaults mirror `simcell`'s cell-like cost
/// model: [`DmaTiming::cell_like`], 6 cycles per 16-byte local-store
/// access, a 4 KiB staging buffer for naive outer accesses and a 1 MiB
/// main memory. Callers tuning for a differently configured machine
/// should overwrite them from its actual cost model.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// DMA timing of the target accelerator.
    pub dma: DmaTiming,
    /// Cycles per 16-byte local-store access (`CostModel::ls_access`).
    pub ls_access_cost: u64,
    /// Staging-buffer size used by naive outer accesses.
    pub staging_size: u32,
    /// Main-memory capacity (line fetches clip against it).
    pub main_capacity: u32,
    /// Local-store budget a candidate cache may occupy.
    pub ls_budget: u32,
    /// How many model-ranked candidates to validate with exact replay.
    pub top_k: usize,
    /// Whether "no cache" competes in the search.
    pub include_naive: bool,
    /// Candidate line sizes (powers of two ≥ 16).
    pub line_sizes: Vec<u32>,
    /// Candidate total capacities in bytes for set-associative caches.
    pub capacities: Vec<u32>,
    /// Candidate associativities.
    pub ways: Vec<u32>,
    /// Candidate line sizes for the streaming cache.
    pub stream_lines: Vec<u32>,
    /// Whether to also try write-through variants (only meaningful when
    /// the trace contains writes; read-only traces skip them).
    pub try_write_through: bool,
    /// Whether [`autotune`] should apply reuse-distance pruning to
    /// traces with no [`dominant_stride`]: streaming candidates are
    /// dropped and capacities past the reuse working set are skipped
    /// (see [`ReuseHistogram`]). Off by default so strided workloads
    /// and existing tuning gates are untouched. E18's graph traversal
    /// switches it on, but its trace has a dominant +4 B stride
    /// (consecutive CSR column reads), so nothing is pruned there.
    pub reuse_prune: bool,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions {
            dma: DmaTiming::cell_like(),
            ls_access_cost: 6,
            staging_size: 4096,
            main_capacity: 1024 * 1024,
            ls_budget: 64 * 1024,
            top_k: 4,
            include_naive: true,
            line_sizes: vec![64, 128, 256],
            capacities: vec![4 * 1024, 8 * 1024, 16 * 1024],
            ways: vec![1, 2, 4],
            stream_lines: vec![256, 512, 1024],
            try_write_through: true,
            reuse_prune: false,
        }
    }
}

impl TuneOptions {
    /// Every candidate the options describe, given what the trace needs
    /// (write-through variants only appear for traces with writes).
    /// Always returns at least one choice.
    pub fn candidates(&self, records: &[AccessRecord]) -> Vec<CacheChoice> {
        self.grid(has_writes(records))
    }

    /// [`TuneOptions::candidates`] for a trace that does or does not
    /// write.
    fn grid(&self, writes: bool) -> Vec<CacheChoice> {
        let mut out = Vec::new();
        if self.include_naive {
            out.push(CacheChoice::Naive);
        }
        for &cap in &self.capacities {
            if cap > self.ls_budget {
                continue;
            }
            for &line in &self.line_sizes {
                if !line.is_power_of_two() || line < DMA_ALIGN {
                    continue;
                }
                for &ways in &self.ways {
                    let Some(set_bytes) = line.checked_mul(ways) else {
                        continue;
                    };
                    if set_bytes == 0 || !cap.is_multiple_of(set_bytes) {
                        continue;
                    }
                    let sets = cap / set_bytes;
                    if sets == 0 || !sets.is_power_of_two() {
                        continue;
                    }
                    let config = CacheConfig::new(line, sets, ways);
                    out.push(CacheChoice::SetAssoc(config));
                    if writes && self.try_write_through {
                        out.push(CacheChoice::SetAssoc(
                            config.write_policy(WritePolicy::WriteThrough),
                        ));
                    }
                }
            }
        }
        for &line in &self.stream_lines {
            if !line.is_power_of_two() || line < DMA_ALIGN {
                continue;
            }
            let buffers = line.checked_mul(2).and_then(|b| b.checked_add(DMA_ALIGN));
            if buffers.is_none_or(|bytes| bytes > self.ls_budget) {
                continue;
            }
            out.push(CacheChoice::Stream(CacheConfig::new(line, 1, 1)));
        }
        if out.is_empty() {
            out.push(CacheChoice::Naive);
        }
        out
    }

    fn ls_cycles(&self, bytes: u32) -> u64 {
        self.ls_access_cost * u64::from(bytes.div_ceil(16).max(1))
    }
}

// ---- the decode pass -----------------------------------------------------

fn untunable(reason: &'static str) -> CacheError {
    CacheError::Untunable { reason }
}

/// What the models and replays need to know about a trace, read in one
/// pass: the main memory a replay runs against, the longest transfer,
/// whether the trace writes, and the totals that bound every replay's
/// clock ([`TraceFacts::check`]).
#[derive(Debug)]
struct TraceFacts {
    /// The configured main-memory capacity, grown to cover every
    /// transfer.
    capacity: u32,
    /// Length of the longest transfer, in bytes.
    max_len: u32,
    /// Whether the trace contains a write.
    writes: bool,
    /// Number of read and write records.
    accesses: u128,
    /// Bytes over all reads and writes.
    bytes: u128,
    /// Cycles over all compute records.
    compute: u128,
}

impl TraceFacts {
    /// Reads `records` once and checks what every replay under `opts`
    /// relies on: a non-empty staging buffer, transfers that end inside
    /// the 32-bit address space, and a main memory of non-zero size.
    fn decode(records: &[AccessRecord], opts: &TuneOptions) -> Result<TraceFacts, CacheError> {
        if opts.staging_size == 0 {
            return Err(untunable("the naive path's staging buffer is empty"));
        }
        let mut facts = TraceFacts {
            capacity: 0,
            max_len: 0,
            writes: false,
            accesses: 0,
            bytes: 0,
            compute: 0,
        };
        let mut extent = 0u32;
        for rec in records {
            let (offset, len) = match rec.op {
                TraceOp::Read { offset, len } => (offset, len),
                TraceOp::Write { offset, len } => {
                    facts.writes = true;
                    (offset, len)
                }
                TraceOp::Compute { cycles } => {
                    facts.compute += u128::from(cycles);
                    continue;
                }
            };
            let end = offset
                .checked_add(len)
                .ok_or(untunable("a transfer ends past the 32-bit address space"))?;
            extent = extent.max(end);
            facts.max_len = facts.max_len.max(len);
            facts.accesses += 1;
            facts.bytes += u128::from(len);
        }
        facts.capacity = opts.main_capacity.max(extent);
        if facts.capacity == 0 {
            return Err(untunable("no main memory: zero capacity and no transfers"));
        }
        Ok(facts)
    }

    /// Checks that `choice` can be modelled and replayed over the trace:
    /// a cache's geometry must be indexable, and no clock in the model
    /// or the exact replay may pass `u64::MAX`, so none of their adds
    /// can overflow.
    ///
    /// Every cycle a replay charges comes from a compute record, from a
    /// chunk's lookup and copy work, or from a DMA transfer, at most
    /// three per chunk (write-back, fetch and write-through put; or
    /// fetch and prefetch). A transfer adds at most its issue, setup,
    /// streaming, misalignment and latency cycles to any clock, and a
    /// record of `len` bytes splits into at most `len / granule + 2`
    /// chunks. The clock check is that the sum of these maxima fits.
    fn check(&self, choice: &CacheChoice, opts: &TuneOptions) -> Result<(), CacheError> {
        if let Some(config) = choice.config() {
            config.validate()?;
        }
        let (granule, largest, chunk_cycles) = match choice {
            CacheChoice::Naive => {
                let staging = opts.staging_size;
                let ls = u128::from(opts.ls_access_cost) * u128::from(staging / 16 + 1);
                (staging, staging, ls)
            }
            CacheChoice::SetAssoc(c) | CacheChoice::Stream(c) => {
                let lookup = u128::from(c.lookup_cost)
                    + u128::from(c.probe_cost) * u128::from(c.ways.max(2));
                let copy = u128::from(c.copy_cost) * u128::from(c.line_size / 16 + 1);
                (c.line_size.min(16), c.line_size.max(16), lookup + copy)
            }
        };
        let dma = &opts.dma;
        let transfer = u128::from(dma.issue_cost)
            + u128::from(dma.setup)
            + u128::from(largest).div_ceil(u128::from(dma.bytes_per_cycle.max(1)))
            + u128::from(dma.misalign_penalty)
            + u128::from(dma.latency);
        let chunks = self.bytes / u128::from(granule.max(1)) + 2 * self.accesses;
        let bound = chunks
            .saturating_mul(3 * transfer + chunk_cycles)
            .saturating_add(self.compute);
        if bound > u128::from(u64::MAX) {
            Err(untunable("cycle counts could overflow a 64-bit clock"))
        } else {
            Ok(())
        }
    }
}

// ---- the trace as same-line runs ------------------------------------------

/// Consecutive read touches of one line with only compute between them.
/// The first touch goes through the cache's lookup; the others hit the
/// slot it left the line in.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Compute cycles before the first touch.
    pre: u64,
    /// The line touched.
    line: u32,
    /// Number of touches (at least 1).
    touches: u64,
    /// 16-byte copy units over all touches (each touch counts at least
    /// one), so the copy charge is `copy_cost * units`.
    units: u64,
    /// Compute cycles between the run's touches.
    between: u64,
}

/// One step of a compressed trace.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A read run.
    Read(Run),
    /// A write, after `pre` compute cycles.
    Write { pre: u64, offset: u32, len: u32 },
}

/// A trace compressed at one line size for the cache models: read runs
/// and single writes in trace order, then the trailing compute.
/// Zero-length transfers do nothing in any cache, so they are dropped.
#[derive(Debug, Default)]
struct Steps {
    steps: Vec<Step>,
    tail: u64,
}

impl Steps {
    /// Replaces the contents with `records` compressed at `line_size`
    /// (a power of two), reusing the allocation.
    fn compress(&mut self, records: &[AccessRecord], line_size: u32) {
        let shift = line_size.trailing_zeros();
        self.steps.clear();
        let mut open: Option<Run> = None;
        let mut compute = 0u64;
        for rec in records {
            match rec.op {
                TraceOp::Compute { cycles } => compute += cycles,
                TraceOp::Read { offset, len } => {
                    let mut done = 0u32;
                    while done < len {
                        let abs = offset + done;
                        let line = abs >> shift;
                        let chunk = (line_size - (abs & (line_size - 1))).min(len - done);
                        let units = u64::from(chunk.div_ceil(16).max(1));
                        match &mut open {
                            Some(run) if run.line == line => {
                                run.touches += 1;
                                run.units += units;
                                run.between += compute;
                            }
                            _ => {
                                self.steps.extend(open.map(Step::Read));
                                open = Some(Run {
                                    pre: compute,
                                    line,
                                    touches: 1,
                                    units,
                                    between: 0,
                                });
                            }
                        }
                        compute = 0;
                        done += chunk;
                    }
                }
                TraceOp::Write { offset, len } => {
                    if len == 0 {
                        continue;
                    }
                    self.steps.extend(open.take().map(Step::Read));
                    self.steps.push(Step::Write {
                        pre: compute,
                        offset,
                        len,
                    });
                    compute = 0;
                }
            }
        }
        self.steps.extend(open.map(Step::Read));
        self.tail = compute;
    }
}

// ---- the analytic cost model ---------------------------------------------

/// The serial DMA channel, reduced to timing: one `free_at` horizon and
/// the engine's issue/setup/bandwidth/latency parameters. Deliberately
/// alignment-blind (see [`MODEL_ALIGNMENT_TOLERANCE`]).
struct ModelDma {
    timing: DmaTiming,
    free_at: u64,
}

impl ModelDma {
    fn new(timing: DmaTiming) -> ModelDma {
        ModelDma { timing, free_at: 0 }
    }

    /// Issues a non-blocking transfer; returns `(resume, complete_at)`.
    fn issue(&mut self, now: u64, bytes: u32) -> (u64, u64) {
        let stream = self.timing.stream_cycles_aligned(bytes, true);
        let start = now.max(self.free_at);
        self.free_at = start + stream;
        (
            now + self.timing.issue_cost,
            self.free_at + self.timing.latency,
        )
    }

    /// A blocking issue-then-wait round trip.
    fn round_trip(&mut self, now: u64, bytes: u32) -> u64 {
        let (resume, complete) = self.issue(now, bytes);
        resume.max(complete)
    }
}

/// A cache model that steps through a compressed trace.
trait StepModel {
    /// Models a read run whose first touch starts at `now`; returns the
    /// cycle its last touch ends, counting the compute between touches.
    fn read_run(&mut self, now: u64, run: &Run, capacity: u32, dma: &mut ModelDma) -> u64;

    /// Models a write starting at `now`.
    fn write(&mut self, now: u64, offset: u32, len: u32, capacity: u32, dma: &mut ModelDma) -> u64;
}

/// Total cycles of `model` over `steps`, from cycle 0 on an idle
/// channel.
fn walk(model: &mut impl StepModel, steps: &Steps, capacity: u32, timing: DmaTiming) -> u64 {
    let mut dma = ModelDma::new(timing);
    let mut t = 0u64;
    for step in &steps.steps {
        t = match *step {
            Step::Read(ref run) => model.read_run(t + run.pre, run, capacity, &mut dma),
            Step::Write { pre, offset, len } => {
                model.write(t + pre, offset, len, capacity, &mut dma)
            }
        };
    }
    t + steps.tail
}

/// One slot of [`SetAssocModel`].
#[derive(Clone, Copy, Default)]
struct Slot {
    valid: bool,
    dirty: bool,
    line: u32,
    len: u32,
    last_use: u64,
}

/// Metadata replica of [`SetAssociativeCache`]: same LRU, same victim
/// choice, same write-through pipelining — minus the data movement.
struct SetAssocModel {
    config: CacheConfig,
    /// `log2(line_size)`, as in [`SetAssociativeCache`].
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u32,
    slots: Vec<Slot>,
    lru_clock: u64,
    wt_pending: Vec<(u32, u32)>, // (remote start, len)
    wt_done_at: u64,
}

impl SetAssocModel {
    fn new(config: CacheConfig) -> SetAssocModel {
        SetAssocModel {
            config,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: config.num_sets - 1,
            slots: vec![Slot::default(); (config.num_sets * config.ways) as usize],
            lru_clock: 0,
            wt_pending: Vec::new(),
            wt_done_at: 0,
        }
    }

    /// Makes `line` resident; returns the cycle it is ready, its slot
    /// index and its way.
    fn ensure_line(
        &mut self,
        now: u64,
        line: u32,
        capacity: u32,
        dma: &mut ModelDma,
    ) -> (u64, usize, u32) {
        let ways = self.config.ways;
        let base = ((line & self.set_mask) * ways) as usize;
        self.lru_clock += 1;
        let clock = self.lru_clock;
        for way in 0..ways {
            let slot = &mut self.slots[base + way as usize];
            if slot.valid && slot.line == line {
                slot.last_use = clock;
                return (
                    now + self.config.lookup_cycles(way + 1),
                    base + way as usize,
                    way,
                );
            }
        }
        let mut t = now + self.config.lookup_cycles(ways);
        let victim = (0..ways)
            .min_by_key(|&way| {
                let slot = self.slots[base + way as usize];
                (slot.valid, slot.last_use)
            })
            .expect("ways >= 1");
        let index = base + victim as usize;
        if !self.wt_pending.is_empty() {
            self.wt_pending.clear();
            t = t.max(self.wt_done_at);
        }
        let evicted = self.slots[index];
        if evicted.valid && evicted.dirty {
            t = dma.round_trip(t, evicted.len);
        }
        let line_start = line << self.line_shift;
        let len = self
            .config
            .line_size
            .min(capacity.saturating_sub(line_start));
        t = dma.round_trip(t, len);
        self.slots[index] = Slot {
            valid: true,
            dirty: false,
            line,
            len,
            last_use: clock,
        };
        (t, index, victim)
    }
}

impl StepModel for SetAssocModel {
    fn read_run(&mut self, now: u64, run: &Run, capacity: u32, dma: &mut ModelDma) -> u64 {
        // LRU order only compares last uses, and no other slot is used
        // during the run, so the first touch's clock tick orders the
        // slots as one tick per touch would.
        let (t, _, way) = self.ensure_line(now, run.line, capacity, dma);
        t + self.config.copy_cost * run.units
            + (run.touches - 1) * self.config.lookup_cycles(way + 1)
            + run.between
    }

    fn write(
        &mut self,
        now: u64,
        offset: u32,
        total: u32,
        capacity: u32,
        dma: &mut ModelDma,
    ) -> u64 {
        let line_size = self.config.line_size;
        let mut t = now;
        let mut done = 0u32;
        while done < total {
            let abs = offset + done;
            let chunk = (line_size - (abs & (line_size - 1))).min(total - done);
            let (after, slot, _) = self.ensure_line(t, abs >> self.line_shift, capacity, dma);
            t = after + self.config.copy_cycles(chunk);
            match self.config.write {
                WritePolicy::WriteBack => self.slots[slot].dirty = true,
                WritePolicy::WriteThrough => {
                    if self
                        .wt_pending
                        .iter()
                        .any(|&(s, l)| abs < s + l && s < abs + chunk)
                    {
                        self.wt_pending.clear();
                        t = t.max(self.wt_done_at);
                    }
                    let (resume, complete) = dma.issue(t, chunk);
                    t = resume;
                    self.wt_done_at = complete;
                    self.wt_pending.push((abs, chunk));
                }
            }
            done += chunk;
        }
        t
    }
}

/// Metadata replica of [`StreamCache`]: current/prefetched line tracking
/// plus the prefetch completion horizon.
struct StreamModel {
    config: CacheConfig,
    line_shift: u32,
    current: Option<(u32, u32)>,     // (line, len)
    prefetching: Option<(u32, u32)>, // (line, len)
    prefetch_done_at: u64,
}

impl StreamModel {
    fn new(config: CacheConfig) -> StreamModel {
        StreamModel {
            config,
            line_shift: config.line_size.trailing_zeros(),
            current: None,
            prefetching: None,
            prefetch_done_at: 0,
        }
    }

    fn line_len(&self, line: u32, capacity: u32) -> u32 {
        let start = u64::from(line) << self.line_shift;
        let left = u64::from(capacity).saturating_sub(start);
        self.config.line_size.min(left as u32)
    }

    fn issue_prefetch(&mut self, now: u64, line: u32, capacity: u32, dma: &mut ModelDma) -> u64 {
        let len = self.line_len(line, capacity);
        if len == 0 {
            return now;
        }
        let (resume, complete) = dma.issue(now, len);
        self.prefetching = Some((line, len));
        self.prefetch_done_at = complete;
        resume
    }

    fn cancel_prefetch(&mut self, now: u64) -> u64 {
        if self.prefetching.take().is_some() {
            now.max(self.prefetch_done_at)
        } else {
            now
        }
    }

    fn ensure_line(&mut self, now: u64, line: u32, capacity: u32, dma: &mut ModelDma) -> u64 {
        if let Some((current, _)) = self.current {
            if current == line {
                return now + self.config.lookup_cycles(1);
            }
        }
        if let Some(pending) = self.prefetching {
            if pending.0 == line {
                let mut t = now + self.config.lookup_cycles(2);
                t = t.max(self.prefetch_done_at);
                self.prefetching = None;
                self.current = Some(pending);
                return self.issue_prefetch(t, line + 1, capacity, dma);
            }
        }
        let mut t = now + self.config.lookup_cycles(2);
        t = self.cancel_prefetch(t);
        let len = self.line_len(line, capacity);
        t = dma.round_trip(t, len);
        self.current = Some((line, len));
        self.issue_prefetch(t, line + 1, capacity, dma)
    }
}

impl StepModel for StreamModel {
    fn read_run(&mut self, now: u64, run: &Run, capacity: u32, dma: &mut ModelDma) -> u64 {
        // After the first touch the line is current: every other touch
        // is a one-probe hit.
        let t = self.ensure_line(now, run.line, capacity, dma);
        t + self.config.copy_cost * run.units
            + (run.touches - 1) * self.config.lookup_cycles(1)
            + run.between
    }

    fn write(
        &mut self,
        now: u64,
        offset: u32,
        total: u32,
        _capacity: u32,
        dma: &mut ModelDma,
    ) -> u64 {
        let mut t = now;
        let mut done = 0u32;
        while done < total {
            let chunk = (total - done).min(DMA_ALIGN);
            let abs = offset + done;
            if let Some((pl, plen)) = self.prefetching {
                let p_start = pl << self.line_shift;
                let p_end = p_start + plen;
                if abs < p_end && p_start < abs + chunk {
                    t = self.cancel_prefetch(t);
                }
            }
            t = dma.round_trip(t, chunk);
            done += chunk;
        }
        t
    }
}

/// The naive path, per record: each transfer is chunked through the
/// staging buffer, one blocking round trip and one local-store copy per
/// chunk.
fn model_naive(records: &[AccessRecord], opts: &TuneOptions) -> u64 {
    let mut dma = ModelDma::new(opts.dma);
    let mut t = 0u64;
    for rec in records {
        match rec.op {
            TraceOp::Read { len, .. } => {
                let mut done = 0u32;
                while done < len {
                    let chunk = (len - done).min(opts.staging_size);
                    t = dma.round_trip(t, chunk);
                    t += opts.ls_cycles(chunk);
                    done += chunk;
                }
            }
            TraceOp::Write { len, .. } => {
                let mut done = 0u32;
                while done < len {
                    let chunk = (len - done).min(opts.staging_size);
                    t += opts.ls_cycles(chunk);
                    t = dma.round_trip(t, chunk);
                    done += chunk;
                }
            }
            TraceOp::Compute { cycles } => t += cycles,
        }
    }
    t
}

/// Models `choice`: the naive path per record, a cache per step of
/// `steps` (the trace compressed at the cache's line size).
fn model_choice(
    choice: &CacheChoice,
    records: &[AccessRecord],
    steps: &Steps,
    capacity: u32,
    opts: &TuneOptions,
) -> u64 {
    match *choice {
        CacheChoice::Naive => model_naive(records, opts),
        CacheChoice::SetAssoc(config) => {
            walk(&mut SetAssocModel::new(config), steps, capacity, opts.dma)
        }
        CacheChoice::Stream(config) => {
            walk(&mut StreamModel::new(config), steps, capacity, opts.dma)
        }
    }
}

/// Predicts the total cycles of replaying `records` under `choice`
/// using the analytic model (no memory regions, no data movement).
///
/// Bit-identical to [`replay_exact`] on DMA-aligned traces; within
/// [`MODEL_ALIGNMENT_TOLERANCE`] (and never above the exact cost)
/// otherwise.
///
/// # Cost
///
/// One decode pass over `records`. For a cache, one more pass
/// compresses the trace into runs of consecutive reads of one line, and
/// the model then takes one step per run or write: the first touch of
/// a run is a full lookup, the rest are same-slot hits charged in one
/// sum. The naive path is modelled per record. On a trace of small
/// sequential reads that is far fewer steps than records.
///
/// # Errors
///
/// Fails with [`CacheError::Untunable`] on input no replay can run (an
/// empty staging buffer, no main memory, a transfer past the 32-bit
/// address space, or costs that could overflow the clock), and with
/// [`CacheError::BadGeometry`] on a cache configuration that cannot be
/// indexed.
pub fn model_cycles(
    choice: &CacheChoice,
    records: &[AccessRecord],
    opts: &TuneOptions,
) -> Result<u64, CacheError> {
    let facts = TraceFacts::decode(records, opts)?;
    facts.check(choice, opts)?;
    let mut steps = Steps::default();
    if let Some(config) = choice.config() {
        steps.compress(records, config.line_size);
    }
    Ok(model_choice(choice, records, &steps, facts.capacity, opts))
}

// ---- exact replay --------------------------------------------------------

/// DMA tag for replayed naive outer accesses (mirrors the runtime's
/// reserved outer-access tag).
const REPLAY_OUTER_TAG: u8 = 27;

/// Replays `records` against the *real* cache implementation and DMA
/// engine, from cycle 0 on a fresh rig, and returns the total cycles.
///
/// Cache cycle accounting is fully self-contained (config costs plus the
/// DMA engine) and the engine's timing is translation-invariant from an
/// idle start, so this reproduces the in-offload cycle delta of the
/// traced run bit-for-bit when `opts` mirror the traced machine.
///
/// # Errors
///
/// Fails with [`CacheError::Untunable`] on the input [`model_cycles`]
/// rejects, and otherwise if a candidate cache cannot be built (local
/// store budget) or a replayed transfer is invalid.
pub fn replay_exact(
    choice: &CacheChoice,
    records: &[AccessRecord],
    opts: &TuneOptions,
) -> Result<u64, CacheError> {
    let facts = TraceFacts::decode(records, opts)?;
    facts.check(choice, opts)?;
    replay_decoded(choice, records, &facts, opts)
}

/// [`replay_exact`] of a trace already decoded into `facts`.
fn replay_decoded(
    choice: &CacheChoice,
    records: &[AccessRecord],
    facts: &TraceFacts,
    opts: &TuneOptions,
) -> Result<u64, CacheError> {
    let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, facts.capacity);
    let mut ls = MemoryRegion::new(
        SpaceId::local_store(0),
        SpaceKind::LocalStore { accel: 0 },
        LOCAL_STORE_SIZE,
    );
    let mut dma = DmaEngine::with_timing(SpaceId::local_store(0), opts.dma);
    let mut buf = vec![0u8; facts.max_len as usize];

    match choice {
        CacheChoice::Naive => replay_naive(records, opts, &mut main, &mut ls, &mut dma),
        CacheChoice::SetAssoc(config) => {
            let mut cache = SetAssociativeCache::new(*config, SpaceId::MAIN, &mut ls)?;
            replay_cached(&mut cache, records, &mut main, &mut ls, &mut dma, &mut buf)
        }
        CacheChoice::Stream(config) => {
            let mut cache = StreamCache::new(*config, SpaceId::MAIN, &mut ls)?;
            replay_cached(&mut cache, records, &mut main, &mut ls, &mut dma, &mut buf)
        }
    }
}

fn replay_cached<C: SoftwareCache>(
    cache: &mut C,
    records: &[AccessRecord],
    main: &mut MemoryRegion,
    ls: &mut MemoryRegion,
    dma: &mut DmaEngine,
    buf: &mut [u8],
) -> Result<u64, CacheError> {
    let mut t = 0u64;
    for rec in records {
        match rec.op {
            TraceOp::Read { offset, len } => {
                let mut backing = CacheBacking { main, ls, dma };
                t = cache.read(
                    t,
                    Addr::new(SpaceId::MAIN, offset),
                    &mut buf[..len as usize],
                    &mut backing,
                )?;
            }
            TraceOp::Write { offset, len } => {
                let mut backing = CacheBacking { main, ls, dma };
                t = cache.write(
                    t,
                    Addr::new(SpaceId::MAIN, offset),
                    &buf[..len as usize],
                    &mut backing,
                )?;
            }
            TraceOp::Compute { cycles } => t += cycles,
        }
    }
    Ok(t)
}

/// Replays the naive outer-access path: each record is chunked through a
/// staging buffer with one blocking DMA round trip plus the local-store
/// copy charge per chunk — exactly what `AccelCtx`'s outer accessors do.
fn replay_naive(
    records: &[AccessRecord],
    opts: &TuneOptions,
    main: &mut MemoryRegion,
    ls: &mut MemoryRegion,
    dma: &mut DmaEngine,
) -> Result<u64, CacheError> {
    let staging = ls.alloc(opts.staging_size, DMA_ALIGN)?;
    let tag = Tag::new(REPLAY_OUTER_TAG).expect("constant tag is valid");
    let mut t = 0u64;
    for rec in records {
        match rec.op {
            TraceOp::Read { offset, len } => {
                let mut done = 0u32;
                while done < len {
                    let chunk = (len - done).min(opts.staging_size);
                    let remote = Addr::new(SpaceId::MAIN, offset + done);
                    let resume = dma.get(t, staging, remote, chunk, tag, main, ls)?;
                    t = dma.wait(tag.mask(), resume);
                    t += opts.ls_cycles(chunk);
                    done += chunk;
                }
            }
            TraceOp::Write { offset, len } => {
                let mut done = 0u32;
                while done < len {
                    let chunk = (len - done).min(opts.staging_size);
                    let remote = Addr::new(SpaceId::MAIN, offset + done);
                    t += opts.ls_cycles(chunk);
                    let resume = dma.put(t, staging, remote, chunk, tag, main, ls)?;
                    t = dma.wait(tag.mask(), resume);
                    done += chunk;
                }
            }
            TraceOp::Compute { cycles } => t += cycles,
        }
    }
    Ok(t)
}

// ---- the search ----------------------------------------------------------

/// One evaluated candidate.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The cache policy evaluated.
    pub choice: CacheChoice,
    /// Cycles predicted by the analytic model.
    pub model_cycles: u64,
    /// Cycles measured by exact replay (`None` if the candidate ranked
    /// outside the validated top-k).
    pub exact_cycles: Option<u64>,
}

/// The result of an [`autotune`] search: every candidate ranked by the
/// model, with the top-k validated by exact replay.
#[derive(Clone, Debug)]
pub struct TuneReport {
    candidates: Vec<Candidate>,
    winner: usize,
}

impl TuneReport {
    /// All candidates, best model rank first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The winning candidate: minimum *exact* replay cycles among the
    /// validated top-k (model rank breaks ties).
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.winner]
    }

    /// Index of the winner within [`TuneReport::candidates`].
    pub fn winner_index(&self) -> usize {
        self.winner
    }
}

/// Searches the [`TuneOptions`] candidate space for the minimum-cycle
/// cache policy for `records`: ranks every candidate with the analytic
/// model, validates the top-k by exact simulated replay, and picks the
/// exact-cycle minimum.
///
/// # Cost
///
/// One decode pass over `records` (plus the two passes of
/// [`dominant_stride`] when [`TuneOptions::reuse_prune`] is on). Then
/// one compression pass per distinct line size among the candidates,
/// each keeping only that line size's runs alive, and one pass over
/// the runs per cache candidate ([`model_cycles`] has the details).
/// The naive candidate is modelled per record. Last, `top_k` exact
/// replays run every record through the real cache and DMA engine; on
/// E18's full graph trace these four replays are about half of the
/// search.
///
/// # Errors
///
/// Fails on the input [`model_cycles`] rejects, or if an exact replay
/// fails (local-store budget, bad transfer).
pub fn autotune(records: &[AccessRecord], opts: &TuneOptions) -> Result<TuneReport, CacheError> {
    let facts = TraceFacts::decode(records, opts)?;
    let mut choices = opts.grid(facts.writes);
    if opts.reuse_prune && dominant_stride(records).is_none() {
        choices = prune_irregular(choices, records);
    }
    for choice in &choices {
        facts.check(choice, opts)?;
    }
    // The naive path needs no runs (line size `None`); each cache is
    // modelled while its line size's runs are the ones alive.
    let mut line_sizes: Vec<Option<u32>> = choices
        .iter()
        .map(|c| c.config().map(|config| config.line_size))
        .collect();
    line_sizes.sort_unstable();
    line_sizes.dedup();
    let mut modelled = vec![0u64; choices.len()];
    let mut steps = Steps::default();
    for line_size in line_sizes {
        if let Some(line_size) = line_size {
            steps.compress(records, line_size);
        }
        for (choice, cycles) in choices.iter().zip(&mut modelled) {
            if choice.config().map(|config| config.line_size) == line_size {
                *cycles = model_choice(choice, records, &steps, facts.capacity, opts);
            }
        }
    }
    let mut candidates: Vec<Candidate> = choices
        .into_iter()
        .zip(modelled)
        .map(|(choice, model_cycles)| Candidate {
            choice,
            model_cycles,
            exact_cycles: None,
        })
        .collect();
    candidates.sort_by_key(|c| c.model_cycles);
    let k = opts.top_k.clamp(1, candidates.len());
    for candidate in &mut candidates[..k] {
        candidate.exact_cycles = Some(replay_decoded(&candidate.choice, records, &facts, opts)?);
    }
    let winner = candidates[..k]
        .iter()
        .enumerate()
        .min_by_key(|(index, c)| (c.exact_cycles.expect("top-k was validated"), *index))
        .map(|(index, _)| index)
        .expect("at least one candidate");
    Ok(TuneReport { candidates, winner })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential_trace(accesses: u32, stride: u32, len: u32) -> Vec<AccessRecord> {
        (0..accesses)
            .map(|i| AccessRecord {
                span: 0,
                op: TraceOp::Read {
                    offset: i * stride,
                    len,
                },
            })
            .collect()
    }

    fn hot_trace(accesses: u32) -> Vec<AccessRecord> {
        // 90% of accesses in a 2 KiB hot region, deterministic LCG.
        let mut state = 0x905eed_u64;
        (0..accesses)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as u32;
                let offset = if r % 10 < 9 {
                    (r % (2 * 1024 / 16)) * 16
                } else {
                    (r % (60 * 1024 / 16)) * 16
                };
                AccessRecord {
                    span: 0,
                    op: TraceOp::Read { offset, len: 16 },
                }
            })
            .collect()
    }

    fn families() -> Vec<CacheChoice> {
        vec![
            CacheChoice::Naive,
            CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()),
            CacheChoice::SetAssoc(CacheConfig::four_way_16k()),
            CacheChoice::SetAssoc(
                CacheConfig::four_way_16k().write_policy(WritePolicy::WriteThrough),
            ),
            CacheChoice::Stream(CacheConfig::new(1024, 1, 1)),
        ]
    }

    #[test]
    fn model_is_bit_exact_on_aligned_traces() {
        let mut trace = sequential_trace(256, 16, 16);
        // Mix in writes and compute so every model path is exercised.
        for i in 0..64u32 {
            trace.push(AccessRecord {
                span: 0,
                op: TraceOp::Write {
                    offset: i * 48 % 4096,
                    len: 16,
                },
            });
            trace.push(AccessRecord {
                span: 0,
                op: TraceOp::Compute { cycles: 8 },
            });
        }
        let opts = TuneOptions::default();
        for choice in families() {
            let model = model_cycles(&choice, &trace, &opts).unwrap();
            let exact = replay_exact(&choice, &trace, &opts).unwrap();
            assert_eq!(model, exact, "model must be exact for {choice}");
        }
    }

    #[test]
    fn model_never_overestimates_and_stays_in_tolerance_when_misaligned() {
        // Odd offsets/lengths: every transfer pays the misalignment
        // penalty that the model deliberately ignores.
        let trace: Vec<AccessRecord> = (0..128u32)
            .map(|i| AccessRecord {
                span: 0,
                op: TraceOp::Read {
                    offset: i * 17 + 3,
                    len: 13,
                },
            })
            .collect();
        let opts = TuneOptions::default();
        for choice in families() {
            let model = model_cycles(&choice, &trace, &opts).unwrap();
            let exact = replay_exact(&choice, &trace, &opts).unwrap();
            assert!(model <= exact, "{choice}: model {model} > exact {exact}");
            let error = (exact - model) as f64 / exact.max(1) as f64;
            assert!(
                error <= MODEL_ALIGNMENT_TOLERANCE,
                "{choice}: error {error} exceeds tolerance"
            );
        }
    }

    #[test]
    fn autotune_picks_stream_for_sequential_scans() {
        let trace = sequential_trace(512, 16, 16);
        let report = autotune(&trace, &TuneOptions::default()).unwrap();
        assert_eq!(report.winner().choice.family(), "stream");
        assert!(report.winner().exact_cycles.is_some());
    }

    #[test]
    fn autotune_picks_set_associative_for_hot_sets() {
        let trace = hot_trace(1024);
        let report = autotune(&trace, &TuneOptions::default()).unwrap();
        assert_eq!(report.winner().choice.family(), "set-associative");
    }

    #[test]
    fn winner_is_the_exact_minimum_of_the_validated_set() {
        let trace = hot_trace(256);
        let report = autotune(&trace, &TuneOptions::default()).unwrap();
        let winner = report.winner().exact_cycles.unwrap();
        for candidate in report.candidates() {
            if let Some(exact) = candidate.exact_cycles {
                assert!(winner <= exact);
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = hot_trace(200);
        let opts = TuneOptions::default();
        for choice in families() {
            let a = replay_exact(&choice, &trace, &opts).unwrap();
            let b = replay_exact(&choice, &trace, &opts).unwrap();
            assert_eq!(a, b);
        }
    }

    /// A seeded irregular trace: 80% of reads in a hot 4 KiB region,
    /// the rest across 256 KiB — no stride for a prefetcher to ride.
    fn irregular_trace(seed: u64, accesses: u32) -> Vec<AccessRecord> {
        let mut rng = xrng::Rng::new(seed);
        (0..accesses)
            .map(|_| {
                let offset = if rng.below_u32(10) < 8 {
                    rng.below_u32(4 * 1024 / 16) * 16
                } else {
                    rng.below_u32(256 * 1024 / 16) * 16
                };
                AccessRecord {
                    span: 0,
                    op: TraceOp::Read { offset, len: 16 },
                }
            })
            .collect()
    }

    /// Replays `records` through the *real* set-associative cache and
    /// returns its measured miss count.
    fn real_misses(config: CacheConfig, records: &[AccessRecord], opts: &TuneOptions) -> u64 {
        let facts = TraceFacts::decode(records, opts).unwrap();
        let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, facts.capacity);
        let mut ls = MemoryRegion::new(
            SpaceId::local_store(0),
            SpaceKind::LocalStore { accel: 0 },
            LOCAL_STORE_SIZE,
        );
        let mut dma = DmaEngine::with_timing(SpaceId::local_store(0), opts.dma);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut ls).unwrap();
        let mut buf = vec![0u8; facts.max_len as usize];
        replay_cached(&mut cache, records, &mut main, &mut ls, &mut dma, &mut buf).unwrap();
        cache.stats().misses
    }

    #[test]
    fn reuse_histogram_counts_a_known_trace_exactly() {
        // Lines touched (64 B granularity): 0, 1, 0, 2, 1.
        let trace: Vec<AccessRecord> = [0u32, 64, 16, 128, 100]
            .iter()
            .map(|&offset| AccessRecord {
                span: 0,
                op: TraceOp::Read { offset, len: 16 },
            })
            .collect();
        let hist = ReuseHistogram::from_records(&trace, 64);
        assert_eq!(hist.touches(), 5);
        assert_eq!(hist.cold_touches(), 3);
        // Reuses: line 0 at distance 1, line 1 at distance 2.
        assert_eq!(hist.predicted_misses(1), 5);
        assert_eq!(hist.predicted_misses(2), 4);
        assert_eq!(hist.predicted_misses(3), 3);
        assert_eq!(hist.predicted_misses(1024), hist.cold_touches());
    }

    #[test]
    fn reuse_prediction_is_exact_for_a_fully_associative_cache() {
        // One set of 16 ways under LRU *is* the stack model; the
        // histogram's prediction must match the real cache bit-for-bit.
        let opts = TuneOptions::default();
        let config = CacheConfig::new(64, 1, 16);
        for seed in 0..6u64 {
            let trace = irregular_trace(seed, 400);
            let hist = ReuseHistogram::from_records(&trace, 64);
            assert_eq!(
                hist.predicted_misses(16),
                real_misses(config, &trace, &opts),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn reuse_model_never_undercounts_misses_beyond_tolerance() {
        // The irregular-trace mirror of the aligned-trace cycle bound:
        // the fully-associative prediction is blind to conflict misses,
        // but across seeds and geometries it never undercounts the real
        // set-associative cache by more than REUSE_MISS_TOLERANCE.
        let opts = TuneOptions::default();
        let configs = [
            CacheConfig::new(64, 32, 2),
            CacheConfig::new(128, 16, 4),
            CacheConfig::four_way_16k(),
        ];
        for seed in 0..12u64 {
            let trace = irregular_trace(seed, 800);
            for config in configs {
                let hist = ReuseHistogram::from_records(&trace, config.line_size);
                let predicted = hist.predicted_misses(config.capacity_bytes() / config.line_size);
                let actual = real_misses(config, &trace, &opts);
                let undercount = actual.saturating_sub(predicted) as f64 / actual.max(1) as f64;
                assert!(
                    undercount <= REUSE_MISS_TOLERANCE,
                    "seed {seed} {config:?}: predicted {predicted} vs actual {actual} \
                     (undercount {undercount:.3})"
                );
            }
        }
    }

    #[test]
    fn predicted_misses_are_monotone_in_capacity() {
        let trace = irregular_trace(7, 600);
        let hist = ReuseHistogram::from_records(&trace, 64);
        let mut last = u64::MAX;
        for capacity in [1u32, 4, 16, 64, 256, 1024, 4096] {
            let misses = hist.predicted_misses(capacity);
            assert!(misses <= last);
            last = misses;
        }
        assert_eq!(last, hist.cold_touches());
    }

    #[test]
    fn dominant_stride_detects_streams_and_rejects_irregularity() {
        assert_eq!(dominant_stride(&sequential_trace(128, 16, 16)), Some(16));
        assert_eq!(dominant_stride(&sequential_trace(128, 48, 16)), Some(48));
        assert_eq!(dominant_stride(&irregular_trace(3, 400)), None);
        assert_eq!(dominant_stride(&[]), None);
    }

    /// The stride rule as a frequency table: the most frequent delta,
    /// ties to the smaller magnitude, taken when it covers at least half
    /// of all deltas and is not zero.
    fn stride_by_table(records: &[AccessRecord]) -> Option<u32> {
        let mut counts = std::collections::BTreeMap::new();
        let mut deltas = 0usize;
        for_each_delta(records, |delta| {
            *counts.entry(delta).or_insert(0usize) += 1;
            deltas += 1;
        });
        let (delta, count) = counts
            .into_iter()
            .max_by_key(|&(delta, count)| (count, std::cmp::Reverse(delta.unsigned_abs())))?;
        if delta != 0 && count * 2 >= deltas {
            u32::try_from(delta.unsigned_abs()).ok()
        } else {
            None
        }
    }

    #[test]
    fn linear_stride_matches_the_frequency_table() {
        let trace = |offsets: &[u32]| -> Vec<AccessRecord> {
            offsets
                .iter()
                .flat_map(|&offset| {
                    [
                        AccessRecord {
                            span: 0,
                            op: TraceOp::Read { offset, len: 4 },
                        },
                        AccessRecord {
                            span: 0,
                            op: TraceOp::Compute { cycles: 3 },
                        },
                    ]
                })
                .collect()
        };
        // Exact-half ties: +4/-4 (same magnitude), 0/+4 (zero is the
        // smaller magnitude, so no stride), +8/+4 (the smaller wins).
        let crafted: [&[u32]; 8] = [
            &[0, 4, 8, 4, 0],
            &[0, 0, 0, 4, 8],
            &[0, 8, 16, 20, 24],
            &[0, 4, 8, 100, 104, 108],
            &[0, 4, 9, 20, 13],
            &[5],
            &[],
            &[7, 7],
        ];
        for offsets in crafted {
            let records = trace(offsets);
            assert_eq!(
                dominant_stride(&records),
                stride_by_table(&records),
                "{offsets:?}"
            );
        }
        // Short walks over a five-delta alphabet make exact-half ties and
        // near-majorities common.
        let mut rng = xrng::Rng::new(0x57_21DE);
        for round in 0..400 {
            let mut offset = 1u32 << 20;
            let offsets: Vec<u32> = (0..rng.below_u32(14))
                .map(|_| {
                    offset = offset.wrapping_add(
                        [0, 4, 8, 4u32.wrapping_neg(), 8u32.wrapping_neg()]
                            [rng.below_u32(5) as usize],
                    );
                    offset
                })
                .collect();
            let records = trace(&offsets);
            assert_eq!(
                dominant_stride(&records),
                stride_by_table(&records),
                "round {round}: {offsets:?}"
            );
        }
    }

    #[test]
    fn irregular_prune_drops_streams_and_redundant_capacities() {
        let trace = irregular_trace(5, 600);
        assert!(dominant_stride(&trace).is_none());
        let opts = TuneOptions {
            reuse_prune: true,
            ..TuneOptions::default()
        };
        let report = autotune(&trace, &opts).unwrap();
        assert!(
            report
                .candidates()
                .iter()
                .all(|c| c.choice.family() != "stream"),
            "prefetching candidates are pointless on an irregular trace"
        );
        let full = TuneOptions::default().candidates(&trace).len();
        assert!(report.candidates().len() < full);
        assert!(report.winner().exact_cycles.is_some());
    }

    #[test]
    fn strided_traces_bypass_the_reuse_prune() {
        let trace = sequential_trace(512, 16, 16);
        let opts = TuneOptions {
            reuse_prune: true,
            ..TuneOptions::default()
        };
        let report = autotune(&trace, &opts).unwrap();
        // Same winner as the unpruned search: the stride keeps the
        // stream family in play.
        assert_eq!(report.winner().choice.family(), "stream");
    }

    #[test]
    fn disabled_trace_records_nothing_and_never_allocates() {
        let mut trace = AccessTrace::new();
        trace.record_read(0, 0, 16);
        trace.record_write(0, 16, 16);
        trace.record_compute(0, 100);
        assert!(trace.is_empty());
        assert_eq!(trace.capacity(), 0);
    }

    #[test]
    fn compute_records_coalesce_within_a_span() {
        let mut trace = AccessTrace::new();
        trace.set_enabled(true);
        trace.record_compute(0, 10);
        trace.record_compute(0, 5);
        trace.record_read(0, 0, 16);
        trace.record_compute(0, 3);
        trace.record_compute(1, 2);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.records()[0].op, TraceOp::Compute { cycles: 15 });
    }

    #[test]
    fn candidate_grid_contains_the_hand_picked_e7_configs() {
        let opts = TuneOptions::default();
        let choices = opts.candidates(&[]);
        let has = |target: CacheConfig| {
            choices
                .iter()
                .any(|c| matches!(c, CacheChoice::SetAssoc(cfg) if *cfg == target))
        };
        assert!(has(CacheConfig::direct_mapped_4k()));
        assert!(has(CacheConfig::new(64, 64, 2)));
        assert!(has(CacheConfig::four_way_16k()));
        assert!(choices
            .iter()
            .any(|c| matches!(c, CacheChoice::Stream(cfg) if cfg.line_size == 1024)));
        assert!(choices.contains(&CacheChoice::Naive));
    }

    #[test]
    fn display_names_are_compact() {
        assert_eq!(CacheChoice::Naive.to_string(), "no cache");
        assert_eq!(
            CacheChoice::SetAssoc(CacheConfig::four_way_16k()).to_string(),
            "4-way 16K/128B"
        );
        assert_eq!(
            CacheChoice::Stream(CacheConfig::new(512, 1, 1)).to_string(),
            "stream 2x512B"
        );
    }
}

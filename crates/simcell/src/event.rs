//! A lightweight, zero-simulated-cycle timeline of machine events.
//!
//! Every event carries the cycle at which it happened on *some* core's
//! clock, plus a structured [`EventKind`]. Recording is disabled by
//! default and costs **host memory only, never simulated cycles**: the
//! determinism regression test pins that enabling the log leaves every
//! cycle count bit-identical. When the log is disabled, recording is a
//! single branch and the backing vector never allocates.
//!
//! The raw log is in *emission* order (host and accelerator clocks
//! interleave, and DMA completions are known at issue time), so
//! consumers that need a strict timeline use [`EventLog::sorted`] or
//! the exporters in [`crate::trace`], which sort stably by cycle.

use std::borrow::Cow;
use std::fmt;

use dma::DmaDirection;

/// Which core's clock an event was stamped against.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CoreId {
    /// The host core.
    Host,
    /// An accelerator core, by index.
    Accel(u16),
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreId::Host => write!(f, "host"),
            CoreId::Accel(index) => write!(f, "accel {index}"),
        }
    }
}

/// What happened.
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// An offload thread started on an accelerator.
    OffloadStart {
        /// The accelerator index.
        accel: u16,
        /// Label of the offloaded task ("offload" when unlabeled).
        name: &'static str,
    },
    /// An offload thread finished.
    OffloadEnd {
        /// The accelerator index.
        accel: u16,
    },
    /// The host joined an offload thread.
    Join {
        /// The accelerator index.
        accel: u16,
    },
    /// A free-form annotation from user code.
    ///
    /// Static text records without allocating (see
    /// [`EventLog::note_static`]); owned text is for genuinely dynamic
    /// annotations off the hot path.
    Note {
        /// The annotation text.
        text: Cow<'static, str>,
    },
    /// A named span opened on some core (paired with [`EventKind::SpanEnd`]).
    SpanStart {
        /// The core whose clock stamps the span.
        core: CoreId,
        /// Span label, e.g. `"detectCollisions"`.
        name: &'static str,
    },
    /// A named span closed on some core.
    SpanEnd {
        /// The core whose clock stamps the span.
        core: CoreId,
        /// Span label; must match the innermost open span on this core.
        name: &'static str,
    },
    /// A DMA command was issued by an accelerator.
    DmaIssue {
        /// The issuing accelerator.
        accel: u16,
        /// Tag group of the command (`0..=31`).
        tag: u8,
        /// Transfer size in bytes.
        bytes: u32,
        /// Transfer direction (`Get` into the local store, `Put` out).
        dir: DmaDirection,
        /// Cycle at which the transfer completes (known at issue time —
        /// the engine's timing model is deterministic).
        complete_at: u64,
    },
    /// An accelerator blocked on a DMA tag mask.
    DmaWait {
        /// The waiting accelerator.
        accel: u16,
        /// Raw tag mask waited on (bit *n* = tag *n*).
        mask: u32,
        /// Cycle at which the wait returned (equals the event's `at`
        /// when nothing was in flight — a free wait).
        resumed_at: u64,
    },
    /// An accelerator executed a whole gather plan: a batch of
    /// coalesced DMA descriptors fetching an index list into a packed
    /// local buffer. Stamped at issue; `complete_at` is when the batch
    /// drained (the batch's `dma_wait` returned).
    Gather {
        /// The gathering accelerator.
        accel: u16,
        /// Elements the plan requested.
        elems: u32,
        /// Coalesced descriptors the plan compiled to.
        descriptors: u32,
        /// Total bytes fetched into the packed buffer.
        bytes: u32,
        /// Cycle at which the batch's wait returned.
        complete_at: u64,
    },
    /// A software-cache access hit (possibly several lines at once).
    CacheHit {
        /// The accelerator owning the cache.
        accel: u16,
        /// Line-grain hits this access produced.
        count: u32,
    },
    /// A software-cache access missed and fetched lines.
    CacheMiss {
        /// The accelerator owning the cache.
        accel: u16,
        /// Line-grain misses this access produced.
        count: u32,
        /// Bytes fetched from remote memory to fill them.
        bytes_fetched: u64,
    },
    /// A software cache evicted lines to make room.
    CacheEvict {
        /// The accelerator owning the cache.
        accel: u16,
        /// Lines evicted by this access.
        count: u32,
    },
    /// Local-store allocation high-water mark at the end of an offload.
    LsHighWater {
        /// The accelerator whose local store is reported.
        accel: u16,
        /// Peak allocated bytes observed so far.
        bytes: u32,
    },
    /// The scheduler placed a tile on an accelerator's work queue.
    ///
    /// Zero simulated cost: queue bookkeeping is the scheduler's, not
    /// the machine's. Stamped at the host cycle of the dispatch pass.
    SchedEnqueue {
        /// The accelerator whose queue received the tile.
        accel: u16,
        /// Tile index within the scheduled task.
        tile: u32,
    },
    /// An accelerator ran a tile from `at` (the event cycle) to `end`.
    SchedRun {
        /// The accelerator that executed the tile.
        accel: u16,
        /// Tile index within the scheduled task.
        tile: u32,
        /// Accelerator cycle at which the tile finished.
        end: u64,
        /// Set when the tile was stolen: the queue it originally sat on.
        stolen_from: Option<u16>,
    },
    /// An accelerator sat idle from `at` (the event cycle) to `until`.
    SchedIdle {
        /// The idle accelerator.
        accel: u16,
        /// Accelerator cycle at which the idle gap ended.
        until: u64,
    },
    /// A work-stealing scheduler moved a tile between queues.
    SchedSteal {
        /// The accelerator that stole the tile.
        thief: u16,
        /// The accelerator it was stolen from.
        victim: u16,
        /// Tile index within the scheduled task.
        tile: u32,
        /// Simulated cycles charged to the thief for the steal.
        cost: u64,
    },
    /// A pipeline stage processed one chunk on its accelerator, from
    /// `at` (the event cycle) to `end`.
    ///
    /// Zero simulated cost: the chunk's compute and DMA charge the
    /// clock; this record is bookkeeping.
    PipeRun {
        /// The accelerator the stage runs on.
        accel: u16,
        /// Pipeline stage index (stage 0 is the producer).
        stage: u16,
        /// Chunk index within the stream.
        chunk: u32,
        /// Accelerator cycle at which the chunk finished (push complete).
        end: u64,
        /// Whether the stage is the pipeline's last, so the chunk left
        /// the pipeline (counted in `pipe_chunks`; not exported).
        last: bool,
    },
    /// A pipeline stage stalled from `at` (the event cycle) to `until`,
    /// either waiting for its input chunk to be produced or blocked by
    /// a full inter-stage queue (backpressure).
    PipeWait {
        /// The stalled accelerator.
        accel: u16,
        /// Pipeline stage index.
        stage: u16,
        /// Chunk index the stage was about to process (input wait) or
        /// hand off (backpressure).
        chunk: u32,
        /// Accelerator cycle at which the stall ended.
        until: u64,
        /// `true` for a full-queue (backpressure) stall, `false` for an
        /// input-not-ready stall.
        backpressure: bool,
    },
    /// The fault plane injected a fault.
    ///
    /// Recording is free (simulated cycles are charged by the fault
    /// itself, e.g. a stall, never by the bookkeeping).
    FaultInjected {
        /// The accelerator the fault hit.
        accel: u16,
        /// What was injected.
        fault: crate::fault::FaultKind,
    },
    /// The runtime took a recovery action after a fault.
    RecoveryApplied {
        /// The accelerator the recovery concerns.
        accel: u16,
        /// What was done.
        recovery: crate::fault::RecoveryKind,
    },
}

/// One timestamped event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Cycle at which the event happened.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The lane an event draws on: a thread of the Chrome export and a row
/// of the ASCII timeline. [`Lane::tid`] owns the export's thread-id
/// layout.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lane {
    /// The host core (tid 0).
    Host,
    /// An accelerator's execution lane (tid `1 + n`).
    Accel(u16),
    /// An accelerator's DMA transfers, issue to completion (tid `100 + n`).
    Dma(u16),
    /// An accelerator's scheduler lane: tile runs, idle gaps, enqueues
    /// and steals (tid `200 + n`; see `offload_rt::sched`).
    Sched(u16),
    /// An accelerator's injected faults and recovery actions (tid
    /// `300 + n`; see [`crate::fault`]).
    Faults(u16),
    /// An accelerator's pipeline stage runs and stalls (tid `400 + n`;
    /// see `offload_rt::pipeline`).
    Pipe(u16),
    /// An accelerator's gather batches, issue to drain (tid `500 + n`;
    /// see [`crate::AccelCtx::gather`]).
    Gather(u16),
}

impl Lane {
    /// The lane's label, tid base and accelerator (`None` for the host).
    const fn parts(self) -> (&'static str, u64, Option<u16>) {
        match self {
            Lane::Host => ("host", 0, None),
            Lane::Accel(n) => ("accel", 1, Some(n)),
            Lane::Dma(n) => ("dma", 100, Some(n)),
            Lane::Sched(n) => ("sched", 200, Some(n)),
            Lane::Faults(n) => ("faults", 300, Some(n)),
            Lane::Pipe(n) => ("pipe", 400, Some(n)),
            Lane::Gather(n) => ("gather", 500, Some(n)),
        }
    }

    /// The lane's thread id in the Chrome export.
    pub const fn tid(self) -> u64 {
        match self.parts() {
            (_, base, Some(n)) => base + n as u64,
            (_, base, None) => base,
        }
    }

    /// The accelerator the lane belongs to; `None` for the host.
    pub(crate) const fn accel(self) -> Option<u16> {
        self.parts().2
    }

    /// The execution lane of `core`.
    pub(crate) fn of(core: CoreId) -> Lane {
        match core {
            CoreId::Host => Lane::Host,
            CoreId::Accel(n) => Lane::Accel(n),
        }
    }
}

/// The lane's thread name in the Chrome export: `host`, `accel 0`,
/// `dma 0`, `sched 0`, `faults 0`, `pipe 0` or `gather 0`.
impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parts() {
            (label, _, Some(n)) => write!(f, "{label} {n}"),
            (label, _, None) => f.write_str(label),
        }
    }
}

/// How an event draws in the Chrome export: its trace-event phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// A point in time (`i`).
    Instant,
    /// A slice from the event's cycle to the shape's end (`X`).
    Complete,
    /// Opens a span that an [`Phase::End`] of the same name on the same
    /// lane closes (`B`).
    Begin,
    /// Closes the innermost open span of its name on its lane (`E`).
    End,
    /// A counter-track sample (`C`).
    Counter,
    /// Opens a slice that the next [`Phase::Close`] on the same lane
    /// completes. The pair exports as one complete slice named by the
    /// open, and an open the log never closes as a `B`.
    Open,
    /// Completes the innermost [`Phase::Open`] on its lane.
    Close,
}

impl Phase {
    /// The Chrome `ph` letter of a phase written as is.
    pub(crate) fn ph(self) -> u8 {
        match self {
            Phase::Instant => b'i',
            Phase::Complete => b'X',
            Phase::Begin | Phase::Open => b'B',
            Phase::End | Phase::Close => b'E',
            Phase::Counter => b'C',
        }
    }
}

/// An event's name in the Chrome export and on timeline bars.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Name<'a> {
    /// Text as it stands (JSON-escaped on export).
    Text(&'a str),
    /// A scheduler tile run: `tile N`.
    Tile(u32),
    /// A pipeline chunk run: `s<stage> chunk N`.
    StageChunk(u16, u32),
}

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Text(text) => f.write_str(text),
            Name::Tile(tile) => write!(f, "tile {tile}"),
            Name::StageChunk(stage, chunk) => write!(f, "s{stage} chunk {chunk}"),
        }
    }
}

/// One export arg's value: a number, or a stable kind string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Arg {
    Num(u64),
    Str(&'static str),
}

/// What an event looks like to the Chrome exporter, the ASCII timeline
/// and [`Event::core`]: its lane, Chrome phase, name, end cycle and
/// export args. Built by [`Event::shape`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Shape<'a> {
    pub(crate) lane: Lane,
    pub(crate) phase: Phase,
    /// A [`Phase::Close`] takes its open's name.
    pub(crate) name: Name<'a>,
    /// The cycle its slice ends at: the event's own cycle for anything
    /// but a complete slice, and never before it.
    pub(crate) end: u64,
    args: [(&'static str, Arg); 5],
    len: usize,
}

impl<'a> Shape<'a> {
    #[inline(always)]
    fn new(lane: Lane, phase: Phase, name: Name<'a>) -> Shape<'a> {
        let (end, args, len) = (0, [("", Arg::Num(0)); 5], 0);
        Shape {
            lane,
            phase,
            name,
            end,
            args,
            len,
        }
    }

    /// The shape with its slice ending at `end`.
    #[inline(always)]
    fn until(self, end: u64) -> Shape<'a> {
        Shape { end, ..self }
    }

    /// The shape with `key: value` appended to its args.
    #[inline(always)]
    fn arg(mut self, key: &'static str, value: Arg) -> Shape<'a> {
        self.args[self.len] = (key, value);
        self.len += 1;
        self
    }

    /// The shape with the number `key: value` appended to its args.
    #[inline(always)]
    fn num(self, key: &'static str, value: impl Into<u64>) -> Shape<'a> {
        self.arg(key, Arg::Num(value.into()))
    }

    /// The export args, in order.
    pub(crate) fn args(&self) -> &[(&'static str, Arg)] {
        &self.args[..self.len]
    }

    /// Whether this shape closes `open`: an end closes a begin of its
    /// name on its lane, a close any open on its lane.
    pub(crate) fn closes(&self, open: &Shape<'_>) -> bool {
        self.lane == open.lane
            && match (open.phase, self.phase) {
                (Phase::Begin, Phase::End) => open.name == self.name,
                (Phase::Open, Phase::Close) => true,
                _ => false,
            }
    }
}

impl Event {
    /// How the event draws: the one place each kind declares its lane,
    /// Chrome phase, name, end cycle and args, in export order.
    #[inline(always)]
    pub(crate) fn shape(&self) -> Shape<'_> {
        use crate::fault::{FaultKind, RecoveryKind};
        use Name::{StageChunk, Text, Tile};
        use Phase::{Begin, Close, Complete, Counter, End, Instant, Open};
        let shape = match self.kind {
            EventKind::OffloadStart { accel, name } => {
                Shape::new(Lane::Accel(accel), Open, Text(name)).num("accel", accel)
            }
            EventKind::OffloadEnd { accel } => {
                Shape::new(Lane::Accel(accel), Close, Text("")).num("accel", accel)
            }
            EventKind::Join { accel } => {
                Shape::new(Lane::Host, Instant, Text("join")).num("accel", accel)
            }
            EventKind::Note { ref text } => Shape::new(Lane::Host, Instant, Text(text)),
            EventKind::SpanStart { core, name } => Shape::new(Lane::of(core), Begin, Text(name)),
            EventKind::SpanEnd { core, name } => Shape::new(Lane::of(core), End, Text(name)),
            EventKind::DmaIssue {
                accel,
                tag,
                bytes,
                dir,
                complete_at,
            } => {
                let name = match dir {
                    DmaDirection::Get => "dma_get",
                    DmaDirection::Put => "dma_put",
                };
                Shape::new(Lane::Dma(accel), Complete, Text(name))
                    .until(complete_at)
                    .num("tag", tag)
                    .num("bytes", bytes)
            }
            EventKind::DmaWait {
                accel,
                mask,
                resumed_at,
            } => Shape::new(Lane::Accel(accel), Complete, Text("dma_wait"))
                .until(resumed_at)
                .num("mask", mask),
            EventKind::Gather {
                accel,
                elems,
                descriptors,
                bytes,
                complete_at,
            } => Shape::new(Lane::Gather(accel), Complete, Text("gather"))
                .until(complete_at)
                .num("elems", elems)
                .num("descriptors", descriptors)
                .num("bytes", bytes),
            EventKind::CacheHit { accel, count } => {
                Shape::new(Lane::Accel(accel), Instant, Text("cache_hit")).num("count", count)
            }
            EventKind::CacheMiss {
                accel,
                count,
                bytes_fetched,
            } => Shape::new(Lane::Accel(accel), Instant, Text("cache_miss"))
                .num("count", count)
                .num("bytes_fetched", bytes_fetched),
            EventKind::CacheEvict { accel, count } => {
                Shape::new(Lane::Accel(accel), Instant, Text("cache_evict")).num("count", count)
            }
            EventKind::LsHighWater { accel, bytes } => {
                Shape::new(Lane::Accel(accel), Counter, Text("ls_high_water")).num("bytes", bytes)
            }
            EventKind::SchedEnqueue { accel, tile } => {
                Shape::new(Lane::Sched(accel), Instant, Text("enqueue")).num("tile", tile)
            }
            EventKind::SchedRun {
                accel,
                tile,
                end,
                stolen_from,
            } => {
                let shape = Shape::new(Lane::Sched(accel), Complete, Tile(tile))
                    .until(end)
                    .num("tile", tile)
                    .num("accel", accel);
                match stolen_from {
                    Some(victim) => shape.num("stolen_from", victim),
                    None => shape,
                }
            }
            EventKind::SchedIdle { accel, until } => {
                Shape::new(Lane::Sched(accel), Complete, Text("idle"))
                    .until(until)
                    .num("accel", accel)
            }
            EventKind::SchedSteal {
                thief,
                victim,
                tile,
                cost,
            } => Shape::new(Lane::Sched(thief), Instant, Text("steal"))
                .num("victim", victim)
                .num("tile", tile)
                .num("cost", cost),
            EventKind::PipeRun {
                accel,
                stage,
                chunk,
                end,
                last: _,
            } => Shape::new(Lane::Pipe(accel), Complete, StageChunk(stage, chunk))
                .until(end)
                .num("accel", accel)
                .num("stage", stage)
                .num("chunk", chunk),
            EventKind::PipeWait {
                accel,
                stage,
                chunk,
                until,
                backpressure,
            } => {
                let name = if backpressure {
                    "backpressure"
                } else {
                    "input wait"
                };
                Shape::new(Lane::Pipe(accel), Complete, Text(name))
                    .until(until)
                    .num("accel", accel)
                    .num("stage", stage)
                    .num("chunk", chunk)
            }
            EventKind::FaultInjected { accel, fault } => {
                let shape = Shape::new(Lane::Faults(accel), Instant, Text(fault.name()))
                    .num("accel", accel)
                    .arg("kind", Arg::Str(fault.name()));
                match fault {
                    FaultKind::DmaCorrupt { tag, bytes } | FaultKind::DmaDrop { tag, bytes } => {
                        shape.num("tag", tag).num("bytes", bytes)
                    }
                    FaultKind::TagTimeout { stall } => shape.num("stall", stall),
                    FaultKind::AccelStall { cycles } => shape.num("cycles", cycles),
                    FaultKind::AccelDeath | FaultKind::LsPoison => shape,
                }
            }
            EventKind::RecoveryApplied { accel, recovery } => {
                let shape = Shape::new(Lane::Faults(accel), Instant, Text(recovery.name()))
                    .num("accel", accel)
                    .arg("kind", Arg::Str(recovery.name()));
                match recovery {
                    RecoveryKind::Retry {
                        tile,
                        attempt,
                        backoff,
                    } => shape
                        .num("tile", tile)
                        .num("attempt", attempt)
                        .num("backoff", backoff),
                    RecoveryKind::Evict { tiles_moved } => shape.num("tiles_moved", tiles_moved),
                    RecoveryKind::HostFallback { tile } => shape.num("tile", tile),
                }
            }
        };
        shape.until(shape.end.max(self.at))
    }

    /// The core whose clock stamped this event: the core of the lane it
    /// draws on.
    pub fn core(&self) -> CoreId {
        self.shape()
            .lane
            .accel()
            .map_or(CoreId::Host, CoreId::Accel)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::fault::{FaultKind, RecoveryKind};
        write!(f, "[{:>10}] ", self.at)?;
        match &self.kind {
            EventKind::OffloadStart { accel, name } => {
                write!(f, "offload start on accel {accel} ({name})")
            }
            EventKind::OffloadEnd { accel } => write!(f, "offload end on accel {accel}"),
            EventKind::Join { accel } => write!(f, "join accel {accel}"),
            EventKind::Note { text } => write!(f, "{text}"),
            EventKind::SpanStart { core, name } => write!(f, "{core}: begin {name}"),
            EventKind::SpanEnd { core, name } => write!(f, "{core}: end   {name}"),
            EventKind::DmaIssue {
                accel,
                tag,
                bytes,
                dir,
                complete_at,
            } => write!(
                f,
                "accel {accel}: dma_{dir} tag{tag} {bytes} B (completes at {complete_at})"
            ),
            EventKind::DmaWait {
                accel,
                mask,
                resumed_at,
            } => write!(
                f,
                "accel {accel}: dma_wait mask {mask:#010x} (resumed at {resumed_at})"
            ),
            EventKind::Gather {
                accel,
                elems,
                descriptors,
                bytes,
                complete_at,
            } => write!(
                f,
                "accel {accel}: gather {elems} elems via {descriptors} descriptors, \
                 {bytes} B (drained at {complete_at})"
            ),
            EventKind::CacheHit { accel, count } => write!(f, "accel {accel}: cache hit x{count}"),
            EventKind::CacheMiss {
                accel,
                count,
                bytes_fetched,
            } => write!(
                f,
                "accel {accel}: cache miss x{count} ({bytes_fetched} B fetched)"
            ),
            EventKind::CacheEvict { accel, count } => {
                write!(f, "accel {accel}: cache evict x{count}")
            }
            EventKind::LsHighWater { accel, bytes } => {
                write!(f, "accel {accel}: local-store high water {bytes} B")
            }
            EventKind::SchedEnqueue { accel, tile } => {
                write!(f, "sched: tile {tile} -> accel {accel}")
            }
            EventKind::SchedRun {
                accel,
                tile,
                end,
                stolen_from,
            } => {
                write!(f, "accel {accel}: run tile {tile} until {end}")?;
                match stolen_from {
                    Some(victim) => write!(f, " (stolen from accel {victim})"),
                    None => Ok(()),
                }
            }
            EventKind::SchedIdle { accel, until } => write!(f, "accel {accel}: idle until {until}"),
            EventKind::SchedSteal {
                thief,
                victim,
                tile,
                cost,
            } => write!(
                f,
                "sched: accel {thief} steals tile {tile} from accel {victim} (+{cost} cycles)"
            ),
            EventKind::PipeRun {
                accel,
                stage,
                chunk,
                end,
                ..
            } => write!(
                f,
                "accel {accel}: pipe stage {stage} chunk {chunk} until {end}"
            ),
            EventKind::PipeWait {
                accel,
                stage,
                chunk,
                until,
                backpressure,
            } => {
                let why = if *backpressure {
                    "backpressure"
                } else {
                    "input wait"
                };
                write!(
                    f,
                    "accel {accel}: pipe stage {stage} chunk {chunk} {why} until {until}"
                )
            }
            EventKind::FaultInjected { accel, fault } => {
                write!(f, "accel {accel}: fault ")?;
                match fault {
                    FaultKind::DmaCorrupt { tag, bytes } => {
                        write!(f, "dma_corrupt tag{tag} {bytes} B")
                    }
                    FaultKind::DmaDrop { tag, bytes } => write!(f, "dma_drop tag{tag} {bytes} B"),
                    FaultKind::TagTimeout { stall } => write!(f, "tag_timeout (+{stall} cycles)"),
                    FaultKind::AccelStall { cycles } => {
                        write!(f, "accel_stall (+{cycles} cycles)")
                    }
                    FaultKind::AccelDeath => write!(f, "accel_death"),
                    FaultKind::LsPoison => write!(f, "ls_poison"),
                }
            }
            EventKind::RecoveryApplied { accel, recovery } => {
                write!(f, "accel {accel}: recovery ")?;
                match recovery {
                    RecoveryKind::Retry {
                        tile,
                        attempt,
                        backoff,
                    } => write!(f, "retry tile {tile} attempt {attempt} (+{backoff} cycles)"),
                    RecoveryKind::Evict { tiles_moved } => {
                        write!(f, "evict ({tiles_moved} tiles redistributed)")
                    }
                    RecoveryKind::HostFallback { tile } => write!(f, "host_fallback tile {tile}"),
                }
            }
        }
    }
}

/// An append-only event log, disabled by default (recording costs host
/// memory, not simulated cycles).
///
/// # Example
///
/// ```
/// use simcell::{EventKind, EventLog};
///
/// let mut log = EventLog::new();
/// log.note_static(10, "ignored while disabled");
/// assert_eq!(log.len(), 0);
/// assert_eq!(log.capacity(), 0, "a disabled log never allocates");
///
/// log.set_enabled(true);
/// log.note_static(42, "frame 1 begins");
/// assert_eq!(log.len(), 1);
/// assert!(log.events()[0].to_string().contains("frame 1"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// Creates a disabled log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled.
    #[inline(always)]
    pub fn record(&mut self, at: u64, kind: EventKind) {
        if self.enabled {
            self.push(Event { at, kind });
        }
    }

    /// The recording half of [`EventLog::record`], out of line so that
    /// each call site, inlined into hot paths such as local-store reads,
    /// stays a flag test.
    #[inline(never)]
    fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Records a static annotation without allocating: the text is a
    /// `&'static str`, so enabled-log experiments pay one `Vec` push and
    /// nothing else. Prefer this over [`EventKind::Note`] with an owned
    /// `String` anywhere near a hot path.
    pub fn note_static(&mut self, at: u64, text: &'static str) {
        if self.enabled {
            self.events.push(Event {
                at,
                kind: EventKind::Note {
                    text: Cow::Borrowed(text),
                },
            });
        }
    }

    /// Records a dynamically built annotation (allocates; keep off hot
    /// paths).
    pub fn note(&mut self, at: u64, text: String) {
        if self.enabled {
            self.events.push(Event {
                at,
                kind: EventKind::Note {
                    text: Cow::Owned(text),
                },
            });
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity of the backing storage, in events. Stays 0 for a log
    /// that was never enabled — the allocation-free guarantee the test
    /// suite pins.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The events, borrowed from the log and sorted stably by cycle
    /// (emission order breaks ties, so causally ordered same-cycle
    /// events keep their order).
    pub fn sorted(&self) -> Vec<&Event> {
        let mut sorted: Vec<&Event> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.at);
        sorted
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing_and_never_allocates() {
        let mut log = EventLog::new();
        log.record(5, EventKind::Note { text: "x".into() });
        log.note_static(6, "y");
        log.note(7, String::from("z"));
        assert!(log.events().is_empty());
        assert!(log.is_empty());
        assert_eq!(log.capacity(), 0);
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        log.record(
            1,
            EventKind::OffloadStart {
                accel: 0,
                name: "offload",
            },
        );
        log.record(9, EventKind::OffloadEnd { accel: 0 });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].at, 1);
        log.clear();
        assert!(log.events().is_empty());
        assert!(log.is_enabled());
    }

    #[test]
    fn note_static_does_not_allocate_text() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        log.note_static(3, "static text");
        match &log.events()[0].kind {
            EventKind::Note { text } => {
                assert!(matches!(text, Cow::Borrowed(_)), "static note must borrow")
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn sorted_is_stable_by_cycle() {
        let mut log = EventLog::new();
        log.set_enabled(true);
        // A DMA completion timestamped in the future, then an earlier
        // local event: sorted() restores the timeline.
        log.record(
            100,
            EventKind::DmaIssue {
                accel: 0,
                tag: 3,
                bytes: 256,
                dir: DmaDirection::Get,
                complete_at: 900,
            },
        );
        log.note_static(50, "earlier");
        log.note_static(50, "same cycle, later emission");
        let sorted = log.sorted();
        assert_eq!(sorted[0].at, 50);
        assert!(sorted[0].to_string().contains("earlier"));
        assert!(sorted[1].to_string().contains("later emission"));
        assert_eq!(sorted[2].at, 100);
    }

    #[test]
    fn cores_are_attributed() {
        let start = Event {
            at: 0,
            kind: EventKind::OffloadStart {
                accel: 2,
                name: "ai",
            },
        };
        assert_eq!(start.core(), CoreId::Accel(2));
        let join = Event {
            at: 0,
            kind: EventKind::Join { accel: 2 },
        };
        assert_eq!(join.core(), CoreId::Host);
        let span = Event {
            at: 0,
            kind: EventKind::SpanStart {
                core: CoreId::Host,
                name: "render",
            },
        };
        assert_eq!(span.core(), CoreId::Host);
    }

    #[test]
    fn display_forms() {
        let e = Event {
            at: 42,
            kind: EventKind::Join { accel: 3 },
        };
        assert!(e.to_string().contains("join accel 3"));
        let e = Event {
            at: 42,
            kind: EventKind::Note {
                text: "frame 1".into(),
            },
        };
        assert!(e.to_string().contains("frame 1"));
        let e = Event {
            at: 7,
            kind: EventKind::DmaIssue {
                accel: 1,
                tag: 5,
                bytes: 128,
                dir: DmaDirection::Put,
                complete_at: 600,
            },
        };
        let s = e.to_string();
        assert!(s.contains("dma_put"));
        assert!(s.contains("tag5"));
        assert!(s.contains("128 B"));
        let e = Event {
            at: 7,
            kind: EventKind::CacheMiss {
                accel: 0,
                count: 2,
                bytes_fetched: 128,
            },
        };
        assert!(e.to_string().contains("cache miss x2"));
    }

    #[test]
    fn pipe_events() {
        let e = Event {
            at: 100,
            kind: EventKind::PipeRun {
                accel: 2,
                stage: 1,
                chunk: 4,
                end: 900,
                last: true,
            },
        };
        assert_eq!(e.core(), CoreId::Accel(2));
        let s = e.to_string();
        assert!(s.contains("pipe stage 1 chunk 4 until 900"), "{s}");

        let e = Event {
            at: 100,
            kind: EventKind::PipeWait {
                accel: 3,
                stage: 2,
                chunk: 0,
                until: 350,
                backpressure: true,
            },
        };
        assert_eq!(e.core(), CoreId::Accel(3));
        assert!(e.to_string().contains("backpressure until 350"));
        let e = Event {
            at: 100,
            kind: EventKind::PipeWait {
                accel: 3,
                stage: 2,
                chunk: 0,
                until: 350,
                backpressure: false,
            },
        };
        assert!(e.to_string().contains("input wait until 350"));
    }

    #[test]
    fn fault_and_recovery_events() {
        use crate::fault::{FaultKind, RecoveryKind};

        let e = Event {
            at: 9,
            kind: EventKind::FaultInjected {
                accel: 4,
                fault: FaultKind::DmaDrop { tag: 26, bytes: 64 },
            },
        };
        assert_eq!(e.core(), CoreId::Accel(4));
        let s = e.to_string();
        assert!(s.contains("fault dma_drop"), "{s}");
        assert!(s.contains("tag26"), "{s}");

        let e = Event {
            at: 9,
            kind: EventKind::RecoveryApplied {
                accel: 4,
                recovery: RecoveryKind::Retry {
                    tile: 7,
                    attempt: 2,
                    backoff: 400,
                },
            },
        };
        assert_eq!(e.core(), CoreId::Accel(4));
        let s = e.to_string();
        assert!(s.contains("retry tile 7 attempt 2"), "{s}");

        let e = Event {
            at: 1,
            kind: EventKind::RecoveryApplied {
                accel: 0,
                recovery: RecoveryKind::HostFallback { tile: 3 },
            },
        };
        assert!(e.to_string().contains("host_fallback tile 3"));

        let e = Event {
            at: 1,
            kind: EventKind::RecoveryApplied {
                accel: 0,
                recovery: RecoveryKind::Evict { tiles_moved: 2 },
            },
        };
        assert!(e.to_string().contains("evict (2 tiles redistributed)"));
    }
}

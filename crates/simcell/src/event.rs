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

impl Event {
    /// The core whose clock stamped this event.
    ///
    /// Notes are stamped by the host; every accelerator-side kind names
    /// its accelerator.
    pub fn core(&self) -> CoreId {
        match &self.kind {
            EventKind::OffloadStart { accel, .. }
            | EventKind::OffloadEnd { accel }
            | EventKind::DmaIssue { accel, .. }
            | EventKind::DmaWait { accel, .. }
            | EventKind::Gather { accel, .. }
            | EventKind::CacheHit { accel, .. }
            | EventKind::CacheMiss { accel, .. }
            | EventKind::CacheEvict { accel, .. }
            | EventKind::LsHighWater { accel, .. }
            | EventKind::SchedEnqueue { accel, .. }
            | EventKind::SchedRun { accel, .. }
            | EventKind::SchedIdle { accel, .. }
            | EventKind::PipeRun { accel, .. }
            | EventKind::PipeWait { accel, .. }
            | EventKind::FaultInjected { accel, .. }
            | EventKind::RecoveryApplied { accel, .. } => CoreId::Accel(*accel),
            EventKind::SchedSteal { thief, .. } => CoreId::Accel(*thief),
            EventKind::Join { .. } | EventKind::Note { .. } => CoreId::Host,
            EventKind::SpanStart { core, .. } | EventKind::SpanEnd { core, .. } => *core,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::OffloadStart { accel, name } => {
                write!(
                    f,
                    "[{:>10}] offload start on accel {accel} ({name})",
                    self.at
                )
            }
            EventKind::OffloadEnd { accel } => {
                write!(f, "[{:>10}] offload end on accel {accel}", self.at)
            }
            EventKind::Join { accel } => write!(f, "[{:>10}] join accel {accel}", self.at),
            EventKind::Note { text } => write!(f, "[{:>10}] {text}", self.at),
            EventKind::SpanStart { core, name } => {
                write!(f, "[{:>10}] {core}: begin {name}", self.at)
            }
            EventKind::SpanEnd { core, name } => {
                write!(f, "[{:>10}] {core}: end   {name}", self.at)
            }
            EventKind::DmaIssue {
                accel,
                tag,
                bytes,
                dir,
                complete_at,
            } => write!(
                f,
                "[{:>10}] accel {accel}: dma_{dir} tag{tag} {bytes} B (completes at {complete_at})",
                self.at
            ),
            EventKind::DmaWait {
                accel,
                mask,
                resumed_at,
            } => write!(
                f,
                "[{:>10}] accel {accel}: dma_wait mask {mask:#010x} (resumed at {resumed_at})",
                self.at
            ),
            EventKind::Gather {
                accel,
                elems,
                descriptors,
                bytes,
                complete_at,
            } => write!(
                f,
                "[{:>10}] accel {accel}: gather {elems} elems via {descriptors} descriptors, \
                 {bytes} B (drained at {complete_at})",
                self.at
            ),
            EventKind::CacheHit { accel, count } => {
                write!(f, "[{:>10}] accel {accel}: cache hit x{count}", self.at)
            }
            EventKind::CacheMiss {
                accel,
                count,
                bytes_fetched,
            } => write!(
                f,
                "[{:>10}] accel {accel}: cache miss x{count} ({bytes_fetched} B fetched)",
                self.at
            ),
            EventKind::CacheEvict { accel, count } => {
                write!(f, "[{:>10}] accel {accel}: cache evict x{count}", self.at)
            }
            EventKind::LsHighWater { accel, bytes } => write!(
                f,
                "[{:>10}] accel {accel}: local-store high water {bytes} B",
                self.at
            ),
            EventKind::SchedEnqueue { accel, tile } => {
                write!(f, "[{:>10}] sched: tile {tile} -> accel {accel}", self.at)
            }
            EventKind::SchedRun {
                accel,
                tile,
                end,
                stolen_from,
            } => match stolen_from {
                Some(victim) => write!(
                    f,
                    "[{:>10}] accel {accel}: run tile {tile} until {end} (stolen from accel {victim})",
                    self.at
                ),
                None => write!(
                    f,
                    "[{:>10}] accel {accel}: run tile {tile} until {end}",
                    self.at
                ),
            },
            EventKind::SchedIdle { accel, until } => {
                write!(f, "[{:>10}] accel {accel}: idle until {until}", self.at)
            }
            EventKind::SchedSteal {
                thief,
                victim,
                tile,
                cost,
            } => write!(
                f,
                "[{:>10}] sched: accel {thief} steals tile {tile} from accel {victim} (+{cost} cycles)",
                self.at
            ),
            EventKind::PipeRun {
                accel,
                stage,
                chunk,
                end,
            } => write!(
                f,
                "[{:>10}] accel {accel}: pipe stage {stage} chunk {chunk} until {end}",
                self.at
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
                    "[{:>10}] accel {accel}: pipe stage {stage} chunk {chunk} {why} until {until}",
                    self.at
                )
            }
            EventKind::FaultInjected { accel, fault } => {
                use crate::fault::FaultKind;
                write!(f, "[{:>10}] accel {accel}: fault ", self.at)?;
                match fault {
                    FaultKind::DmaCorrupt { tag, bytes } => {
                        write!(f, "dma_corrupt tag{tag} {bytes} B")
                    }
                    FaultKind::DmaDrop { tag, bytes } => write!(f, "dma_drop tag{tag} {bytes} B"),
                    FaultKind::TagTimeout { stall } => {
                        write!(f, "tag_timeout (+{stall} cycles)")
                    }
                    FaultKind::AccelStall { cycles } => {
                        write!(f, "accel_stall (+{cycles} cycles)")
                    }
                    FaultKind::AccelDeath => write!(f, "accel_death"),
                    FaultKind::LsPoison => write!(f, "ls_poison"),
                }
            }
            EventKind::RecoveryApplied { accel, recovery } => {
                use crate::fault::RecoveryKind;
                write!(f, "[{:>10}] accel {accel}: recovery ", self.at)?;
                match recovery {
                    RecoveryKind::Retry {
                        tile,
                        attempt,
                        backoff,
                    } => write!(f, "retry tile {tile} attempt {attempt} (+{backoff} cycles)"),
                    RecoveryKind::Evict { tiles_moved } => {
                        write!(f, "evict ({tiles_moved} tiles redistributed)")
                    }
                    RecoveryKind::HostFallback { tile } => {
                        write!(f, "host_fallback tile {tile}")
                    }
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
    pub fn record(&mut self, at: u64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event { at, kind });
        }
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
    }
}

//! Trace exporters and the always-on machine counter block.
//!
//! The paper's §4.2 advice is "choose by profiling": several software
//! caches favour different behaviours, and only measurement tells you
//! which one fits an offload. This module is the measurement half of
//! the simulator:
//!
//! - [`MachineStats`] — a cheap, always-on counter block (plain integer
//!   adds, no allocation, no simulated cycles) summarising offloads,
//!   host traffic, explicit DMA traffic, and software-cache behaviour,
//! - [`chrome_trace_json`] — exports an enabled [`EventLog`] as Chrome
//!   trace-event JSON, loadable in [Perfetto](https://ui.perfetto.dev)
//!   or `chrome://tracing` (see `PROFILING.md` for the reading guide),
//! - [`parse_chrome_trace`] — a minimal parser for that JSON, used by
//!   the round-trip tests and handy as a validity check,
//! - [`ascii_timeline`] — a terminal-friendly rendering of the same
//!   timeline, used by the `sim_profile` example and `PROFILING.md`,
//! - [`Machine::utilization_report`] — a plain-text per-run report
//!   merging [`MachineStats`] with per-engine DMA statistics,
//! - [`AccessTrace`] (re-exported from `softcache::autotune`) — the
//!   access-trace capture mode: when enabled via
//!   [`Machine::access_trace_mut`], every outer/cached access an
//!   offload issues is recorded as `(span, read/write, offset, len)`
//!   alongside its compute cycles, forming the input to the
//!   cache-policy autotuner (`softcache::autotune::autotune`).
//!
//! Everything here reads state; nothing advances a clock. The
//! determinism regression test pins that tracing on/off leaves every
//! simulated cycle count bit-identical.
//!
//! # Example
//!
//! ```
//! use simcell::{Machine, MachineConfig};
//! use simcell::trace::{chrome_trace_json, parse_chrome_trace};
//!
//! # fn main() -> Result<(), simcell::SimError> {
//! let mut machine = Machine::new(MachineConfig::small())?;
//! machine.events_mut().set_enabled(true);
//! machine.offload(0).run(|ctx| ctx.compute(500))?;
//! let json = chrome_trace_json(machine.events());
//! let events = parse_chrome_trace(&json).expect("exporter emits valid JSON");
//! assert!(events.iter().any(|e| e.name == "offload"));
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use dma::DmaDirection;

use crate::event::{CoreId, Event, EventKind, EventLog};
use crate::machine::Machine;

pub use softcache::autotune::{AccessRecord, AccessTrace, TraceOp};

/// Always-on machine-level counters.
///
/// Updated unconditionally (the cost is a handful of integer adds per
/// operation — never an allocation, never a simulated cycle), so every
/// run has a free utilization summary even with the event log disabled.
///
/// Scope: these counters cover *machine-level* operations — host
/// accesses, offload lifecycle, explicit context-level DMA (including
/// synchronous outer accesses), and software-cache accesses routed
/// through [`crate::AccelCtx`]. Traffic a cache generates internally is
/// accounted by its own [`softcache::CacheStats`] and by the per-engine
/// [`dma::DmaStats`]; the utilization report merges all three views.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MachineStats {
    /// Offload threads launched.
    pub offloads: u64,
    /// Offload threads joined.
    pub joins: u64,
    /// Bytes the host read from main memory (charged accesses only).
    pub host_bytes_read: u64,
    /// Bytes the host wrote to main memory (charged accesses only).
    pub host_bytes_written: u64,
    /// Explicit `dma_get` commands issued through accelerator contexts.
    pub dma_gets: u64,
    /// Explicit `dma_put` commands issued through accelerator contexts.
    pub dma_puts: u64,
    /// Bytes moved into local stores by explicit context-level DMA.
    pub dma_bytes_to_local: u64,
    /// Bytes moved out of local stores by explicit context-level DMA.
    pub dma_bytes_from_local: u64,
    /// Line-grain hits across all context-routed software-cache accesses.
    pub cache_hits: u64,
    /// Line-grain misses across all context-routed software-cache accesses.
    pub cache_misses: u64,
    /// Lines evicted across all context-routed software-cache accesses.
    pub cache_evictions: u64,
    /// Bytes software caches fetched from remote memory (context-routed).
    pub cache_bytes_fetched: u64,
    /// Bytes software caches wrote back to remote memory (context-routed).
    pub cache_bytes_written_back: u64,
    /// Total cycles offload threads occupied accelerators.
    pub accel_busy_cycles: u64,
    /// Tiles dispatched by a tile scheduler (see `offload_rt::sched`).
    pub sched_tiles: u64,
    /// Tiles a work-stealing scheduler moved between accelerator queues.
    pub sched_steals: u64,
    /// Simulated cycles charged to thieves for those steals.
    pub sched_steal_cycles: u64,
    /// Accelerator cycles a scheduler reported as idle gaps while its
    /// task was in flight.
    pub sched_idle_cycles: u64,
    /// Total faults injected by the fault plane (all kinds).
    pub faults_injected: u64,
    /// DMA transfers that landed corrupted.
    pub fault_dma_corrupt: u64,
    /// DMA transfers that were charged but dropped.
    pub fault_dma_drop: u64,
    /// Tag-group waits that timed out.
    pub fault_timeouts: u64,
    /// Launches delayed by an injected stall.
    pub fault_stalls: u64,
    /// Cycles lost to injected stalls and timeout waits.
    pub fault_stall_cycles: u64,
    /// Accelerators killed at a launch boundary.
    pub fault_deaths: u64,
    /// Local-store reads that observed poisoned data.
    pub fault_ls_poison: u64,
    /// Tile runs the recovery layer retried after a fault.
    pub recovery_retries: u64,
    /// Cycles charged as backoff before those retries.
    pub recovery_backoff_cycles: u64,
    /// Dead accelerators evicted from a scheduler mid-run.
    pub recovery_evictions: u64,
    /// Tiles degraded to host execution after exhausting retries.
    pub recovery_fallbacks: u64,
    /// Host cycles spent running those fallback tiles (penalty
    /// included).
    pub recovery_fallback_cycles: u64,
    /// Per-stage chunk executions a pipeline runtime performed (see
    /// `offload_rt::pipeline`).
    pub pipe_stage_runs: u64,
    /// Stream chunks a pipeline pushed through all of its stages.
    pub pipe_chunks: u64,
    /// Accelerator cycles pipeline stages stalled waiting for their
    /// input chunk to be produced.
    pub pipe_input_wait_cycles: u64,
    /// Accelerator cycles pipeline stages stalled on a full inter-stage
    /// queue (backpressure).
    pub pipe_backpressure_cycles: u64,
    /// Put-journal pre-image snapshots taken (one per journalled put
    /// while a fault plan with at least one non-zero rate is armed).
    pub journal_snapshots: u64,
    /// Pre-image bytes those snapshots copied.
    pub journal_bytes: u64,
    /// Journal snapshots *skipped* because the put's destination was
    /// declared [`AccessMode::Write`](memspace::AccessMode::Write) — a
    /// retry fully rewrites the range, so rollback needs no pre-image.
    pub journal_snapshots_skipped: u64,
    /// Pre-image bytes those skipped snapshots would have copied.
    pub journal_bytes_skipped: u64,
    /// Write-back DMA transfers elided because the target range was
    /// declared [`AccessMode::Read`](memspace::AccessMode::Read).
    pub dma_writebacks_elided: u64,
    /// Bytes those elided write-backs would have transferred.
    pub dma_writeback_bytes_elided: u64,
    /// Gather plans executed (each one batch of coalesced descriptors
    /// fetched into a packed local buffer; see `simcell::GatherPlan`).
    pub gathers: u64,
    /// Elements those gathers requested.
    pub gather_elems: u64,
    /// Coalesced DMA descriptors the plans compiled to (each one
    /// `dma_get`; the gap between `gather_elems` and this is the win
    /// over per-element outer accesses).
    pub gather_descriptors: u64,
    /// Bytes the gathers fetched into packed local buffers.
    pub gather_bytes: u64,
}

impl MachineStats {
    /// Total bytes that crossed a memory-space boundary via explicit
    /// DMA, in either direction.
    pub fn dma_bytes_total(&self) -> u64 {
        self.dma_bytes_to_local + self.dma_bytes_from_local
    }

    /// Line-grain cache hit rate in `[0, 1]`; zero with no accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} offloads ({} joined), host {} B read / {} B written, \
             dma {} gets / {} puts ({} B in, {} B out), \
             cache {} hits / {} misses / {} evictions, accel busy {} cycles",
            self.offloads,
            self.joins,
            self.host_bytes_read,
            self.host_bytes_written,
            self.dma_gets,
            self.dma_puts,
            self.dma_bytes_to_local,
            self.dma_bytes_from_local,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.accel_busy_cycles,
        )
    }
}

// ---- Chrome trace-event export ------------------------------------------

/// Thread-id layout of the exported trace: the host runs on tid 0,
/// accelerator *n* on tid `1 + n`, accelerator *n*'s DMA lane on tid
/// `DMA_LANE_BASE + n`, its scheduler lane on tid
/// `SCHED_LANE_BASE + n`, its fault lane on tid `FAULT_LANE_BASE + n`,
/// and its pipeline lane on tid `PIPE_LANE_BASE + n`.
pub const DMA_LANE_BASE: u64 = 100;

/// Base thread id of the per-accelerator scheduler lanes (tile
/// assignment and idle-gap slices; see `offload_rt::sched`).
pub const SCHED_LANE_BASE: u64 = 200;

/// Base thread id of the per-accelerator fault lanes (injected faults
/// and recovery actions; see [`crate::fault`]).
pub const FAULT_LANE_BASE: u64 = 300;

/// Base thread id of the per-accelerator pipeline lanes (per-stage
/// chunk runs and input/backpressure stalls; see
/// `offload_rt::pipeline`).
pub const PIPE_LANE_BASE: u64 = 400;

/// Base thread id of the per-accelerator gather lanes (whole gather
/// batches as issue→drain slices; see `simcell::GatherPlan` and
/// [`crate::AccelCtx::gather`]).
pub const GATHER_LANE_BASE: u64 = 500;

/// Thread id of accelerator `accel`'s execution lane.
pub fn accel_tid(accel: u16) -> u64 {
    1 + u64::from(accel)
}

/// Thread id of accelerator `accel`'s DMA lane.
pub fn dma_tid(accel: u16) -> u64 {
    DMA_LANE_BASE + u64::from(accel)
}

/// Thread id of accelerator `accel`'s scheduler lane.
pub fn sched_tid(accel: u16) -> u64 {
    SCHED_LANE_BASE + u64::from(accel)
}

/// Thread id of accelerator `accel`'s fault lane.
pub fn fault_tid(accel: u16) -> u64 {
    FAULT_LANE_BASE + u64::from(accel)
}

/// Thread id of accelerator `accel`'s pipeline lane.
pub fn pipe_tid(accel: u16) -> u64 {
    PIPE_LANE_BASE + u64::from(accel)
}

/// Thread id of accelerator `accel`'s gather lane.
pub fn gather_tid(accel: u16) -> u64 {
    GATHER_LANE_BASE + u64::from(accel)
}

fn tid_of(core: CoreId) -> u64 {
    match core {
        CoreId::Host => 0,
        CoreId::Accel(index) => accel_tid(index),
    }
}

/// The lane an event draws on besides its core's execution lane, as
/// (thread-name label, tid base, accelerator); `None` when it draws
/// only on its core's lane.
fn side_lane(kind: &EventKind) -> Option<(&'static str, u64, u16)> {
    Some(match *kind {
        EventKind::DmaIssue { accel, .. } => ("dma", DMA_LANE_BASE, accel),
        EventKind::SchedEnqueue { accel, .. }
        | EventKind::SchedRun { accel, .. }
        | EventKind::SchedIdle { accel, .. }
        | EventKind::SchedSteal { thief: accel, .. } => ("sched", SCHED_LANE_BASE, accel),
        EventKind::FaultInjected { accel, .. } | EventKind::RecoveryApplied { accel, .. } => {
            ("faults", FAULT_LANE_BASE, accel)
        }
        EventKind::PipeRun { accel, .. } | EventKind::PipeWait { accel, .. } => {
            ("pipe", PIPE_LANE_BASE, accel)
        }
        EventKind::Gather { accel, .. } => ("gather", GATHER_LANE_BASE, accel),
        _ => return None,
    })
}

/// Appends `s` as a JSON string literal. Text with nothing to escape,
/// which is nearly all of it, is pushed in one piece.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends `n` in decimal. Every event has a `ts` and a `tid`, so these
/// skip the `fmt` machinery.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// The args only some events of a kind carry, written after the ones
/// every event of that kind has: a stolen tile's victim, and a fault's
/// or a recovery's payload.
struct VariantArgs<'a>(&'a EventKind);

impl fmt::Display for VariantArgs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::fault::{FaultKind, RecoveryKind};
        match self.0 {
            EventKind::SchedRun {
                stolen_from: Some(victim),
                ..
            } => write!(f, ",\"stolen_from\":{victim}"),
            EventKind::FaultInjected { fault, .. } => match fault {
                FaultKind::DmaCorrupt { tag, bytes } | FaultKind::DmaDrop { tag, bytes } => {
                    write!(f, ",\"tag\":{tag},\"bytes\":{bytes}")
                }
                FaultKind::TagTimeout { stall } => write!(f, ",\"stall\":{stall}"),
                FaultKind::AccelStall { cycles } => write!(f, ",\"cycles\":{cycles}"),
                FaultKind::AccelDeath | FaultKind::LsPoison => Ok(()),
            },
            EventKind::RecoveryApplied { recovery, .. } => match recovery {
                RecoveryKind::Retry {
                    tile,
                    attempt,
                    backoff,
                } => write!(
                    f,
                    ",\"tile\":{tile},\"attempt\":{attempt},\"backoff\":{backoff}"
                ),
                RecoveryKind::Evict { tiles_moved } => write!(f, ",\"tiles_moved\":{tiles_moved}"),
                RecoveryKind::HostFallback { tile } => write!(f, ",\"tile\":{tile}"),
            },
            _ => Ok(()),
        }
    }
}

/// Writes trace records straight into one output buffer.
struct ChromeWriter {
    out: String,
    first: bool,
}

impl ChromeWriter {
    fn new() -> ChromeWriter {
        ChromeWriter {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Starts the next record, up to and including its name.
    fn open(&mut self, name: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("{\"name\":");
        push_json_string(&mut self.out, name);
    }

    /// Emits one trace event. `end` is `Some` for complete ("X") events,
    /// which get a `dur` of `end - ts`; `args` is the JSON object body
    /// (without braces), empty for none.
    fn event(
        &mut self,
        name: &str,
        ph: char,
        ts: u64,
        end: Option<u64>,
        tid: u64,
        args: fmt::Arguments<'_>,
    ) {
        self.open(name);
        self.out.push_str(",\"ph\":\"");
        self.out.push(ph);
        self.out.push_str("\",\"ts\":");
        push_u64(&mut self.out, ts);
        self.out.push_str(",\"pid\":0,\"tid\":");
        push_u64(&mut self.out, tid);
        if let Some(end) = end {
            self.out.push_str(",\"dur\":");
            push_u64(&mut self.out, end.saturating_sub(ts));
        }
        if ph == 'i' {
            // Instant events need a scope; thread scope keeps them on
            // their lane.
            self.out.push_str(",\"s\":\"t\"");
        }
        if args.as_str() != Some("") {
            self.out.push_str(",\"args\":{");
            let _ = self.out.write_fmt(args);
            self.out.push('}');
        }
        self.out.push('}');
    }

    /// Emits a metadata record; `value` is written unescaped.
    fn metadata(&mut self, name: &str, tid: u64, value: fmt::Arguments<'_>) {
        self.open(name);
        let _ = write!(
            self.out,
            ",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{value}\"}}}}"
        );
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Exports an event log as Chrome trace-event JSON.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Timestamps are simulated cycles reported as
/// microseconds (the units are relative; only ratios matter). Lane
/// layout: host on tid 0, accelerator *n* on tid `1+n`, its DMA
/// transfers on tid `100+n`, its scheduler lane on tid `200+n`.
/// Offload intervals and host/accel spans become complete ("X")
/// slices; DMA commands become slices on the DMA lane spanning
/// issue→completion; cache hits/misses/evictions and notes become
/// instant events; local-store high-water marks become counter tracks.
/// Scheduler tile runs (`tile N`) and idle gaps (`idle`) become X
/// slices on the scheduler lane, with enqueues and steals as instants.
/// Injected faults and recovery actions become instants on the fault
/// lane (tid `300+n`), named by their stable kind string
/// (`dma_drop`, `tag_timeout`, `retry`, `host_fallback`, …).
/// Pipeline chunk runs (`s<K> chunk N`) and stalls (`input wait` /
/// `backpressure`) become X slices on the pipeline lane (tid `400+n`).
/// Gather batches become X slices on the gather lane (tid `500+n`)
/// spanning issue→drain, with elems/descriptors/bytes as args.
pub fn chrome_trace_json(log: &EventLog) -> String {
    let mut w = ChromeWriter::new();
    w.metadata("process_name", 0, format_args!("offload-sim"));
    w.metadata("thread_name", 0, format_args!("host"));

    let events = log.sorted();
    // Name each lane of the first 64 accelerators that actually
    // appears, in order of first appearance: an event's core lane
    // first, then its side lane.
    let mut named = [false; GATHER_LANE_BASE as usize + 64];
    for e in &events {
        let core_lane = match e.core() {
            CoreId::Accel(a) => Some(("accel", accel_tid(0), a)),
            CoreId::Host => None,
        };
        for (label, base, a) in core_lane.into_iter().chain(side_lane(&e.kind)) {
            let tid = base + u64::from(a);
            if a < 64 && !named[tid as usize] {
                named[tid as usize] = true;
                w.metadata("thread_name", tid, format_args!("{label} {a}"));
            }
        }
    }

    // Open-interval bookkeeping: offloads pair Start/End per accel.
    let mut open_offload: Vec<(u16, u64, &'static str)> = Vec::new();
    // Reused for the names formatted from an event's fields.
    let mut formatted = String::new();
    for e in &events {
        let at = e.at;
        let tid = side_lane(&e.kind).map_or(tid_of(e.core()), |(_, base, a)| base + u64::from(a));
        match &e.kind {
            EventKind::OffloadStart { accel, name } => open_offload.push((*accel, at, name)),
            EventKind::OffloadEnd { accel } => {
                if let Some(pos) = open_offload.iter().rposition(|(a, _, _)| a == accel) {
                    let (_, start, name) = open_offload.remove(pos);
                    w.event(
                        name,
                        'X',
                        start,
                        Some(at),
                        tid,
                        format_args!("\"accel\":{accel}"),
                    );
                }
            }
            EventKind::Join { accel } => w.event(
                "join",
                'i',
                at,
                None,
                tid,
                format_args!("\"accel\":{accel}"),
            ),
            EventKind::Note { text } => w.event(text, 'i', at, None, tid, format_args!("")),
            EventKind::SpanStart { name, .. } => {
                w.event(name, 'B', at, None, tid, format_args!(""))
            }
            EventKind::SpanEnd { name, .. } => w.event(name, 'E', at, None, tid, format_args!("")),
            EventKind::DmaIssue {
                tag,
                bytes,
                dir,
                complete_at,
                ..
            } => {
                let name = match dir {
                    DmaDirection::Get => "dma_get",
                    DmaDirection::Put => "dma_put",
                };
                w.event(
                    name,
                    'X',
                    at,
                    Some(*complete_at),
                    tid,
                    format_args!("\"tag\":{tag},\"bytes\":{bytes}"),
                );
            }
            EventKind::DmaWait {
                mask, resumed_at, ..
            } => w.event(
                "dma_wait",
                'X',
                at,
                Some(*resumed_at),
                tid,
                format_args!("\"mask\":{mask}"),
            ),
            EventKind::Gather {
                elems,
                descriptors,
                bytes,
                complete_at,
                ..
            } => w.event(
                "gather",
                'X',
                at,
                Some(*complete_at),
                tid,
                format_args!("\"elems\":{elems},\"descriptors\":{descriptors},\"bytes\":{bytes}"),
            ),
            EventKind::CacheHit { count, .. } => w.event(
                "cache_hit",
                'i',
                at,
                None,
                tid,
                format_args!("\"count\":{count}"),
            ),
            EventKind::CacheMiss {
                count,
                bytes_fetched,
                ..
            } => w.event(
                "cache_miss",
                'i',
                at,
                None,
                tid,
                format_args!("\"count\":{count},\"bytes_fetched\":{bytes_fetched}"),
            ),
            EventKind::CacheEvict { count, .. } => w.event(
                "cache_evict",
                'i',
                at,
                None,
                tid,
                format_args!("\"count\":{count}"),
            ),
            EventKind::LsHighWater { bytes, .. } => w.event(
                "ls_high_water",
                'C',
                at,
                None,
                tid,
                format_args!("\"bytes\":{bytes}"),
            ),
            EventKind::SchedEnqueue { tile, .. } => w.event(
                "enqueue",
                'i',
                at,
                None,
                tid,
                format_args!("\"tile\":{tile}"),
            ),
            EventKind::SchedRun {
                accel, tile, end, ..
            } => {
                formatted.clear();
                let _ = write!(formatted, "tile {tile}");
                w.event(
                    &formatted,
                    'X',
                    at,
                    Some(*end),
                    tid,
                    format_args!("\"tile\":{tile},\"accel\":{accel}{}", VariantArgs(&e.kind)),
                );
            }
            EventKind::SchedIdle { accel, until } => w.event(
                "idle",
                'X',
                at,
                Some(*until),
                tid,
                format_args!("\"accel\":{accel}"),
            ),
            EventKind::SchedSteal {
                victim, tile, cost, ..
            } => w.event(
                "steal",
                'i',
                at,
                None,
                tid,
                format_args!("\"victim\":{victim},\"tile\":{tile},\"cost\":{cost}"),
            ),
            EventKind::PipeRun {
                accel,
                stage,
                chunk,
                end,
            } => {
                formatted.clear();
                let _ = write!(formatted, "s{stage} chunk {chunk}");
                w.event(
                    &formatted,
                    'X',
                    at,
                    Some(*end),
                    tid,
                    format_args!("\"accel\":{accel},\"stage\":{stage},\"chunk\":{chunk}"),
                );
            }
            EventKind::PipeWait {
                accel,
                stage,
                chunk,
                until,
                backpressure,
            } => w.event(
                if *backpressure {
                    "backpressure"
                } else {
                    "input wait"
                },
                'X',
                at,
                Some(*until),
                tid,
                format_args!("\"accel\":{accel},\"stage\":{stage},\"chunk\":{chunk}"),
            ),
            EventKind::FaultInjected { accel, fault } => w.event(
                fault.name(),
                'i',
                at,
                None,
                tid,
                format_args!(
                    "\"accel\":{accel},\"kind\":\"{}\"{}",
                    fault.name(),
                    VariantArgs(&e.kind)
                ),
            ),
            EventKind::RecoveryApplied { accel, recovery } => w.event(
                recovery.name(),
                'i',
                at,
                None,
                tid,
                format_args!(
                    "\"accel\":{accel},\"kind\":\"{}\"{}",
                    recovery.name(),
                    VariantArgs(&e.kind)
                ),
            ),
        }
    }
    // Close any offloads left open (trace captured mid-offload).
    for (accel, start, name) in open_offload {
        w.event(
            name,
            'B',
            start,
            None,
            accel_tid(accel),
            format_args!("\"accel\":{accel}"),
        );
    }
    w.finish()
}

// ---- minimal Chrome trace parser ----------------------------------------

/// One event parsed back out of Chrome trace-event JSON — the fields
/// the workspace's tests and tools care about.
#[derive(Clone, PartialEq, Debug)]
pub struct ChromeEvent {
    /// Event name (slice label, instant label, or metadata kind).
    pub name: String,
    /// Phase: `X` complete, `B`/`E` begin/end, `i` instant, `C` counter,
    /// `M` metadata.
    pub ph: char,
    /// Timestamp (simulated cycles); 0 for metadata events.
    pub ts: u64,
    /// Duration for complete events.
    pub dur: Option<u64>,
    /// Thread id (lane).
    pub tid: u64,
}

impl ChromeEvent {
    /// End timestamp of a complete event (`ts` for everything else),
    /// saturating at `u64::MAX`.
    pub fn end(&self) -> u64 {
        self.ts.saturating_add(self.dur.unwrap_or(0))
    }

    /// Whether two complete events overlap in time.
    pub fn overlaps(&self, other: &ChromeEvent) -> bool {
        self.ts < other.end() && other.ts < self.end()
    }
}

/// A hand-rolled, dependency-free parser for the subset of JSON the
/// exporter emits (objects, arrays, strings, and unsigned integers).
/// Strings come back as slices of the input unless they hold an escape.
struct MiniJson<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MiniJson<'a> {
    fn new(s: &'a str) -> MiniJson<'a> {
        MiniJson {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let found = self.peek();
        if found == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                c as char,
                self.pos,
                found.map(|b| b as char)
            ))
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// A string literal: a slice of the input when it holds no escape,
    /// an owned decoded copy when it does. Always inlined: every key and
    /// most values come through here, and nearly none holds an escape.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let end = self.run_end(start)?;
        if self.bytes[end] == b'"' {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.src[start..end]));
        }
        self.decode(start).map(Cow::Owned)
    }

    /// Decodes a string that holds an escape, from `start` just past its
    /// opening quote: each run of plain text is copied whole, then the
    /// char its closing escape stands for.
    #[cold]
    fn decode(&mut self, start: usize) -> Result<String, String> {
        let mut decoded = String::new();
        self.pos = start;
        loop {
            let end = self.run_end(self.pos)?;
            decoded.push_str(&self.src[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(decoded);
            }
            decoded.push(self.escape()?);
        }
    }

    /// Where the run of plain text from `start` ends: at the next quote
    /// or backslash. Both are ASCII, so the run is a whole slice of `src`.
    fn run_end(&self, start: usize) -> Result<usize, String> {
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        len.map(|len| start + len)
            .ok_or_else(|| "unterminated string".into())
    }

    /// The char an escape stands for; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, String> {
        let &esc = self.bytes.get(self.pos).ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or("truncated \\u escape")?;
                let mut code = 0;
                for &h in hex {
                    code = code * 16 + char::from(h).to_digit(16).ok_or("bad \\u escape")?;
                }
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(format!("unknown escape \\{}", other as char)),
        })
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("number at byte {start} overflows u64"))?;
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        Ok(n)
    }

    /// Skips any JSON value (used for `args` bodies and unknown fields).
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b'{') => {
                self.expect(b'{')?;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.string()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')
            }
            Some(b) if b.is_ascii_digit() => {
                self.number()?;
                Ok(())
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }
}

/// Parses Chrome trace-event JSON produced by [`chrome_trace_json`]
/// back into its events.
///
/// Deliberately minimal — it understands the exporter's subset of the
/// format — but strict within it, so the round-trip test doubles as a
/// validity check on the exporter's output.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut p = MiniJson::new(json);
    p.expect(b'{')?;
    let mut events = Vec::new();
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        if key == "traceEvents" {
            p.expect(b'[')?;
            if !p.eat(b']') {
                loop {
                    events.push(parse_event(&mut p)?);
                    if !p.eat(b',') {
                        break;
                    }
                }
                p.expect(b']')?;
            }
        } else {
            p.skip_value()?;
        }
        if !p.eat(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    Ok(events)
}

fn parse_event(p: &mut MiniJson<'_>) -> Result<ChromeEvent, String> {
    p.expect(b'{')?;
    let mut event = ChromeEvent {
        name: String::new(),
        ph: '?',
        ts: 0,
        dur: None,
        tid: 0,
    };
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match &*key {
            "name" => event.name = p.string()?.into_owned(),
            "ph" => event.ph = p.string()?.chars().next().ok_or("empty ph")?,
            "ts" => event.ts = p.number()?,
            "dur" => event.dur = Some(p.number()?),
            "tid" => event.tid = p.number()?,
            _ => p.skip_value()?,
        }
        if !p.eat(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    if event.ph == '?' {
        return Err(format!("event {:?} has no phase", event.name));
    }
    Ok(event)
}

// ---- ASCII timeline ------------------------------------------------------

/// Renders the log as a fixed-width ASCII timeline, one lane per core
/// plus a DMA lane per accelerator that transferred anything.
///
/// `width` is the number of timeline columns (clamped to at least 10).
/// Host/accel spans draw as `[====]` bars labelled where room permits;
/// DMA transfers draw as `-` runs; cache misses mark `x` on the owning
/// accelerator's lane margin. This is the "screenshots-as-ASCII" view
/// `PROFILING.md` walks through; for real analysis, load the Chrome
/// JSON in Perfetto.
pub fn ascii_timeline(log: &EventLog, width: usize) -> String {
    let width = width.max(10);
    let events = log.sorted();
    let Some(t_end) = events.iter().copied().map(end_cycle).max() else {
        return String::from("(empty trace)\n");
    };
    let t_end = t_end.max(1);
    let col = |cycle: u64| -> usize {
        ((cycle.min(t_end) as u128 * (width as u128 - 1)) / t_end as u128) as usize
    };

    // Lane set: host, then each accel seen, then each DMA lane seen.
    let mut accels: Vec<u16> = Vec::new();
    let mut dma_accels: Vec<u16> = Vec::new();
    for e in &events {
        if let CoreId::Accel(a) = e.core() {
            if !accels.contains(&a) {
                accels.push(a);
            }
        }
        if let EventKind::DmaIssue { accel, .. } = e.kind {
            if !dma_accels.contains(&accel) {
                dma_accels.push(accel);
            }
        }
    }
    accels.sort_unstable();
    dma_accels.sort_unstable();

    let mut lanes: Vec<(String, Vec<u8>)> = Vec::new();
    lanes.push(("host    ".into(), vec![b' '; width]));
    for &a in &accels {
        lanes.push((format!("accel {a} "), vec![b' '; width]));
    }
    for &a in &dma_accels {
        lanes.push((format!("dma {a}   "), vec![b' '; width]));
    }
    let lane_index = |core: CoreId| -> usize {
        match core {
            CoreId::Host => 0,
            CoreId::Accel(a) => 1 + accels.iter().position(|&x| x == a).unwrap_or(0),
        }
    };
    let dma_lane_index = |a: u16| -> usize {
        1 + accels.len() + dma_accels.iter().position(|&x| x == a).unwrap_or(0)
    };

    // Bars never overwrite cells another bar already claimed, so nested
    // spans drawn first stay visible inside their parents. The label
    // lands in the longest run of this bar's own fill.
    let draw_bar =
        |lane: usize, from: u64, to: u64, label: &str, lanes: &mut Vec<(String, Vec<u8>)>| {
            let (c0, c1) = (col(from), col(to).max(col(from)));
            let row = &mut lanes[lane].1;
            if row[c0] == b' ' {
                row[c0] = b'[';
            }
            if row[c1] == b' ' {
                row[c1] = b']';
            }
            let mut filled: Vec<usize> = Vec::new();
            for (i, cell) in row.iter_mut().enumerate().take(c1).skip(c0 + 1) {
                if *cell == b' ' {
                    *cell = b'=';
                    filled.push(i);
                }
            }
            // Longest contiguous run of cells this bar just filled.
            let (mut best_start, mut best_len) = (0usize, 0usize);
            let (mut run_start, mut run_len) = (0usize, 0usize);
            for (k, &i) in filled.iter().enumerate() {
                if k > 0 && filled[k - 1] + 1 == i {
                    run_len += 1;
                } else {
                    run_start = i;
                    run_len = 1;
                }
                if run_len > best_len {
                    best_start = run_start;
                    best_len = run_len;
                }
            }
            // Write the label (truncated if need be) when at least a few
            // characters fit.
            let n = label.len().min(best_len);
            if n >= 3 {
                for (i, &b) in label.as_bytes()[..n].iter().enumerate() {
                    row[best_start + i] = b;
                }
            }
        };

    // Pair spans and offloads into bars, then draw longest first so
    // nested (shorter) spans stay visible on top of their parents.
    let mut bars: Vec<(usize, u64, u64, &'static str)> = Vec::new();
    let mut open_spans: Vec<(CoreId, &'static str, u64)> = Vec::new();
    let mut open_offloads: Vec<(u16, &'static str, u64)> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::SpanStart { core, name } => open_spans.push((*core, name, e.at)),
            EventKind::SpanEnd { core, name } => {
                if let Some(pos) = open_spans
                    .iter()
                    .rposition(|(c, n, _)| c == core && n == name)
                {
                    let (_, _, start) = open_spans.remove(pos);
                    bars.push((lane_index(*core), start, e.at, name));
                }
            }
            EventKind::OffloadStart { accel, name } => open_offloads.push((*accel, name, e.at)),
            EventKind::OffloadEnd { accel } => {
                if let Some(pos) = open_offloads.iter().rposition(|(a, _, _)| a == accel) {
                    let (_, name, start) = open_offloads.remove(pos);
                    bars.push((lane_index(CoreId::Accel(*accel)), start, e.at, name));
                }
            }
            _ => {}
        }
    }
    // Shortest first: children claim their cells before parents fill
    // the gaps around them.
    bars.sort_by_key(|&(_, from, to, _)| to - from);
    for (lane, from, to, name) in bars {
        draw_bar(lane, from, to, name, &mut lanes);
    }

    // Point marks draw after the bars: DMA activity, cache misses, joins.
    for e in &events {
        match &e.kind {
            EventKind::DmaIssue {
                accel, complete_at, ..
            } => {
                let lane = dma_lane_index(*accel);
                let (c0, c1) = (col(e.at), col(*complete_at).max(col(e.at)));
                let row = &mut lanes[lane].1;
                for cell in row.iter_mut().take(c1 + 1).skip(c0) {
                    if *cell == b' ' {
                        *cell = b'-';
                    }
                }
            }
            EventKind::CacheMiss { accel, .. } => {
                let lane = lane_index(CoreId::Accel(*accel));
                let c = col(e.at);
                if lanes[lane].1[c] == b' ' {
                    lanes[lane].1[c] = b'x';
                }
            }
            EventKind::Join { .. } => {
                let c = col(e.at);
                lanes[0].1[c] = b'J';
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!("cycles 0 .. {t_end}\n"));
    for (label, row) in &lanes {
        out.push_str(label);
        out.push('|');
        out.push_str(std::str::from_utf8(row).expect("ASCII only"));
        out.push_str("|\n");
    }
    out
}

fn end_cycle(e: &Event) -> u64 {
    match e.kind {
        EventKind::DmaIssue { complete_at, .. } => complete_at.max(e.at),
        EventKind::DmaWait { resumed_at, .. } => resumed_at.max(e.at),
        EventKind::SchedRun { end, .. } => end.max(e.at),
        EventKind::SchedIdle { until, .. } => until.max(e.at),
        EventKind::PipeRun { end, .. } => end.max(e.at),
        EventKind::PipeWait { until, .. } => until.max(e.at),
        _ => e.at,
    }
}

// ---- utilization report --------------------------------------------------

impl Machine {
    /// A plain-text utilization report for the run so far: per-core
    /// busy/occupancy figures, DMA traffic per accelerator (including
    /// cache-internal transfers, which the engines count), stall time,
    /// software-cache totals, and local-store high-water marks.
    ///
    /// Works with the event log disabled — everything here comes from
    /// the always-on [`MachineStats`] block and the per-engine
    /// [`dma::DmaStats`].
    pub fn utilization_report(&self) -> String {
        let stats = self.stats();
        let total = self.host_now().max(1);
        let mut out = String::new();
        out.push_str("== utilization report ==\n");
        out.push_str(&format!(
            "host: {} cycles elapsed, {} offloads launched, {} joined\n",
            self.host_now(),
            stats.offloads,
            stats.joins
        ));
        out.push_str(&format!(
            "host memory: {} B read, {} B written\n",
            stats.host_bytes_read, stats.host_bytes_written
        ));
        for accel in 0..self.accel_count() {
            let busy = self.accel_busy_cycles(accel).unwrap_or(0);
            let occupancy = 100.0 * busy as f64 / total as f64;
            let dma = self.dma_stats(accel).unwrap_or_default();
            let hw = self.ls_high_water(accel).unwrap_or(0);
            out.push_str(&format!(
                "accel {accel}: busy {busy} cycles ({occupancy:.1}% of host elapsed), \
                 dma {} gets / {} puts, {} B in / {} B out, {} stall cycles, \
                 {} misaligned, ls high water {hw} B\n",
                dma.gets, dma.puts, dma.bytes_in, dma.bytes_out, dma.stall_cycles, dma.misaligned
            ));
        }
        out.push_str(&format!(
            "explicit dma (context level): {} gets / {} puts, {} B to local / {} B from local\n",
            stats.dma_gets, stats.dma_puts, stats.dma_bytes_to_local, stats.dma_bytes_from_local
        ));
        let accesses = stats.cache_hits + stats.cache_misses;
        if accesses > 0 {
            out.push_str(&format!(
                "software caches: {} hits / {} misses ({:.1}% hit rate), {} evictions, \
                 {} B fetched, {} B written back\n",
                stats.cache_hits,
                stats.cache_misses,
                100.0 * stats.cache_hit_rate(),
                stats.cache_evictions,
                stats.cache_bytes_fetched,
                stats.cache_bytes_written_back
            ));
        }
        if stats.sched_tiles > 0 {
            // Imbalance across the accelerators the scheduler actually
            // used: max busy over mean busy (1.00 = perfectly even).
            let busy: Vec<u64> = (0..self.accel_count())
                .filter_map(|a| self.accel_busy_cycles(a).ok())
                .filter(|&b| b > 0)
                .collect();
            let max = busy.iter().copied().max().unwrap_or(0);
            let mean = if busy.is_empty() {
                0.0
            } else {
                busy.iter().sum::<u64>() as f64 / busy.len() as f64
            };
            let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
            out.push_str(&format!(
                "scheduler: {} tiles across {} accels, {} steals (+{} steal cycles), \
                 {} idle cycles, imbalance {:.2} (max/mean busy)\n",
                stats.sched_tiles,
                busy.len(),
                stats.sched_steals,
                stats.sched_steal_cycles,
                stats.sched_idle_cycles,
                imbalance
            ));
        }
        if stats.pipe_stage_runs > 0 {
            out.push_str(&format!(
                "pipeline: {} stage runs over {} chunks, {} input-wait cycles, \
                 {} backpressure cycles\n",
                stats.pipe_stage_runs,
                stats.pipe_chunks,
                stats.pipe_input_wait_cycles,
                stats.pipe_backpressure_cycles
            ));
        }
        if stats.gathers > 0 {
            let per = stats.gather_elems as f64 / stats.gather_descriptors.max(1) as f64;
            out.push_str(&format!(
                "gathers: {} plans, {} elems via {} descriptors ({:.1} elems/descriptor), \
                 {} B packed\n",
                stats.gathers,
                stats.gather_elems,
                stats.gather_descriptors,
                per,
                stats.gather_bytes
            ));
        }
        if stats.journal_snapshots > 0
            || stats.journal_snapshots_skipped > 0
            || stats.dma_writebacks_elided > 0
        {
            out.push_str(&format!(
                "access modes: {} journal snapshots ({} B), {} skipped by write \
                 declarations ({} B saved), {} write-backs elided ({} B saved)\n",
                stats.journal_snapshots,
                stats.journal_bytes,
                stats.journal_snapshots_skipped,
                stats.journal_bytes_skipped,
                stats.dma_writebacks_elided,
                stats.dma_writeback_bytes_elided
            ));
        }
        if stats.faults_injected > 0 || stats.recovery_retries > 0 || stats.recovery_fallbacks > 0 {
            out.push_str(&format!(
                "faults: {} injected ({} dma corrupt, {} dma drop, {} timeouts, \
                 {} stalls, {} deaths, {} ls poison), {} cycles lost to stalls\n",
                stats.faults_injected,
                stats.fault_dma_corrupt,
                stats.fault_dma_drop,
                stats.fault_timeouts,
                stats.fault_stalls,
                stats.fault_deaths,
                stats.fault_ls_poison,
                stats.fault_stall_cycles
            ));
            out.push_str(&format!(
                "recovery: {} retries (+{} backoff cycles), {} evictions, \
                 {} host fallbacks (+{} host cycles)\n",
                stats.recovery_retries,
                stats.recovery_backoff_cycles,
                stats.recovery_evictions,
                stats.recovery_fallbacks,
                stats.recovery_fallback_cycles
            ));
        }
        if self.events().is_enabled() {
            out.push_str(&format!(
                "event log: {} events recorded\n",
                self.events().len()
            ));
        } else {
            out.push_str(
                "event log: disabled (enable with machine.events_mut().set_enabled(true))\n",
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::SimError;

    #[test]
    fn machine_stats_rates() {
        let mut s = MachineStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.dma_bytes_to_local = 100;
        s.dma_bytes_from_local = 28;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.dma_bytes_total(), 128);
        assert!(s.to_string().contains("3 hits"));
    }

    #[test]
    fn json_string_escaping_round_trips() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}f");
        let mut p = MiniJson::new(&out);
        assert_eq!(p.string().unwrap(), "a\"b\\c\nd\te\u{1}f");
    }

    #[test]
    fn empty_log_exports_and_parses() {
        let log = EventLog::new();
        let json = chrome_trace_json(&log);
        let events = parse_chrome_trace(&json).unwrap();
        // Only process/thread metadata, no timeline events.
        assert!(events.iter().all(|e| e.ph == 'M'));
        assert_eq!(ascii_timeline(&log, 60), "(empty trace)\n");
    }

    #[test]
    fn offload_becomes_a_complete_slice() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let slice = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "offload")
            .expect("offload slice present");
        assert_eq!(slice.tid, accel_tid(0));
        assert_eq!(slice.dur, Some(1000));
        assert!(events.iter().any(|e| e.ph == 'i' && e.name == "join"));
        Ok(())
    }

    #[test]
    fn overlap_predicate() {
        let a = ChromeEvent {
            name: "a".into(),
            ph: 'X',
            ts: 0,
            dur: Some(100),
            tid: 0,
        };
        let b = ChromeEvent {
            name: "b".into(),
            ph: 'X',
            ts: 50,
            dur: Some(100),
            tid: 1,
        };
        let c = ChromeEvent {
            name: "c".into(),
            ph: 'X',
            ts: 100,
            dur: Some(10),
            tid: 1,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn ascii_timeline_draws_lanes() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.span_start("setup");
        m.host_compute(500);
        m.span_end("setup");
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        let art = ascii_timeline(m.events(), 60);
        assert!(art.contains("host    |"));
        assert!(art.contains("accel 0 |"));
        assert!(art.contains('='), "bars are drawn:\n{art}");
        Ok(())
    }

    #[test]
    fn scheduler_lane_round_trips() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.sched_note_enqueue(0, 0, 0);
        m.sched_note_run(100, 0, 0, 600, None);
        m.sched_note_idle(600, 0, 900);
        m.sched_note_run(900, 0, 1, 1400, Some(1));
        m.sched_note_steal(880, 0, 1, 1, 300);
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = sched_tid(0);
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "sched lane is named"
        );
        let tile0 = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "tile 0" && e.tid == lane)
            .expect("tile slice");
        assert_eq!((tile0.ts, tile0.dur), (100, Some(500)));
        let idle = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "idle" && e.tid == lane)
            .expect("idle slice");
        assert_eq!((idle.ts, idle.dur), (600, Some(300)));
        assert!(events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "steal" && e.tid == lane));
        assert!(events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "enqueue" && e.tid == lane));
        Ok(())
    }

    #[test]
    fn pipe_lane_round_trips() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.pipe_note_run(1000, 0, 1, 3, 1600, true);
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = pipe_tid(0);
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "pipe lane is named"
        );
        let run = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "s1 chunk 3" && e.tid == lane)
            .expect("pipe run slice");
        assert_eq!((run.ts, run.dur), (1000, Some(600)));
        assert_eq!(m.stats().pipe_stage_runs, 1);
        assert_eq!(m.stats().pipe_chunks, 1);

        // Wait slices come from the context-side hook.
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.offload(0)
            .run(|ctx| {
                let t = ctx.now();
                ctx.pipe_note_wait(2, 5, 400, true);
                ctx.compute(400);
                ctx.pipe_note_wait(2, 6, 100, false);
                ctx.compute(100);
                assert_eq!(ctx.now(), t + 500);
                Ok::<(), SimError>(())
            })?
            .unwrap();
        assert_eq!(m.stats().pipe_backpressure_cycles, 400);
        assert_eq!(m.stats().pipe_input_wait_cycles, 100);
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let bp = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "backpressure" && e.tid == pipe_tid(0))
            .expect("backpressure slice");
        assert_eq!(bp.dur, Some(400));
        assert!(events
            .iter()
            .any(|e| e.ph == 'X' && e.name == "input wait" && e.tid == pipe_tid(0)));
        let report = m.utilization_report();
        assert!(!report.contains("pipeline:"), "no runs -> no pipe section");
        m.pipe_note_run(0, 0, 0, 0, 500, false);
        m.pipe_note_run(500, 0, 1, 0, 900, true);
        assert!(m
            .utilization_report()
            .contains("pipeline: 2 stage runs over 1 chunks"));
        Ok(())
    }

    #[test]
    fn fault_lane_round_trips() {
        use crate::event::CoreId;
        use crate::fault::{FaultKind, RecoveryKind};
        let mut log = EventLog::new();
        log.set_enabled(true);
        log.record(
            100,
            EventKind::FaultInjected {
                accel: 2,
                fault: FaultKind::DmaDrop { tag: 5, bytes: 256 },
            },
        );
        log.record(
            400,
            EventKind::RecoveryApplied {
                accel: 2,
                recovery: RecoveryKind::Retry {
                    tile: 7,
                    attempt: 1,
                    backoff: 200,
                },
            },
        );
        assert!(log.sorted().iter().all(|e| e.core() == CoreId::Accel(2)));
        let json = chrome_trace_json(&log);
        let events = parse_chrome_trace(&json).unwrap();
        let lane = fault_tid(2);
        assert!(
            events
                .iter()
                .any(|e| e.ph == 'M' && e.tid == lane && e.name == "thread_name"),
            "fault lane is named"
        );
        let drop = events
            .iter()
            .find(|e| e.ph == 'i' && e.name == "dma_drop")
            .expect("fault instant");
        assert_eq!((drop.ts, drop.tid), (100, lane));
        let retry = events
            .iter()
            .find(|e| e.ph == 'i' && e.name == "retry")
            .expect("recovery instant");
        assert_eq!((retry.ts, retry.tid), (400, lane));
    }

    #[test]
    fn utilization_report_mentions_faults_only_when_any_fired() -> Result<(), SimError> {
        let m = Machine::new(MachineConfig::small())?;
        assert!(!m.utilization_report().contains("faults:"));
        let mut m = Machine::new(MachineConfig::small())?;
        m.install_fault_plan(crate::fault::FaultPlan::new(9).with_accel_death(1.0))
            .unwrap();
        let _ = m.offload(0).run(|ctx| ctx.compute(1));
        let report = m.utilization_report();
        assert!(report.contains("faults: 1 injected"));
        assert!(report.contains("1 deaths"));
        assert!(report.contains("recovery: 0 retries"));
        Ok(())
    }

    #[test]
    fn utilization_report_gains_an_imbalance_section_with_sched_tiles() -> Result<(), SimError> {
        let mut m = Machine::new(MachineConfig::small())?;
        let report = m.utilization_report();
        assert!(
            !report.contains("scheduler:"),
            "no sched section by default"
        );
        m.offload(0).run(|ctx| ctx.compute(1000))?;
        m.sched_note_run(0, 0, 0, 1000, None);
        let report = m.utilization_report();
        assert!(report.contains("scheduler: 1 tiles across 1 accels"));
        assert!(report.contains("imbalance 1.00"));
        Ok(())
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}

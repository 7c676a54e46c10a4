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
use std::fmt;
use std::io::Write as _;

use dma::DmaDirection;

use crate::event::{Arg, Event, EventKind, EventLog, Lane, Name, Phase, Shape};
use crate::fault::{FaultKind, RecoveryKind};
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
///
/// # Where each counter comes from
///
/// Thirty counters are folds of the event log: [`MachineStats::count`]
/// is the one place that says which counters an event bumps, and
/// [`Machine::note`] and [`crate::AccelCtx::note`] count an event and
/// record it in one step, so with the log on, folding `count` over the
/// log reproduces them exactly.
///
/// The other fifteen are added directly, because no event carries them:
///
/// - `host_bytes_read` and `host_bytes_written`: host accesses record
///   no event.
/// - `cache_hits`, `cache_misses`, `cache_evictions`,
///   `cache_bytes_fetched` and `cache_bytes_written_back`: folded from
///   the cache's own [`softcache::CacheStats`] delta across each routed
///   access. The cache events report the same delta, but write-backs
///   have no event, and a stream cache's prefetch (`issue_prefetch` in
///   `softcache`'s `stream.rs`) adds to `cache_bytes_fetched` on a
///   hit, so no [`EventKind::CacheMiss`] carries those bytes.
/// - `accel_busy_cycles`: an offload's end minus its start, which no
///   single event holds.
/// - `recovery_fallback_cycles`: the host penalty of a fallback, charged
///   after its span closes.
/// - `journal_snapshots`, `journal_bytes`, `journal_snapshots_skipped`
///   and `journal_bytes_skipped`: put-journal bookkeeping records no
///   event.
/// - `dma_writebacks_elided` and `dma_writeback_bytes_elided`: an
///   elided write-back records only a note, which carries no count.
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
    /// Adds one event of `kind`, stamped at cycle `at`, to the counters
    /// it bumps: the one place that says which those are (see
    /// [Where each counter comes from](MachineStats#where-each-counter-comes-from)).
    #[inline(always)]
    pub fn count(&mut self, at: u64, kind: &EventKind) {
        match *kind {
            EventKind::OffloadStart { .. } => self.offloads += 1,
            EventKind::Join { .. } => self.joins += 1,
            EventKind::DmaIssue { bytes, dir, .. } => match dir {
                DmaDirection::Get => {
                    self.dma_gets += 1;
                    self.dma_bytes_to_local += u64::from(bytes);
                }
                DmaDirection::Put => {
                    self.dma_puts += 1;
                    self.dma_bytes_from_local += u64::from(bytes);
                }
            },
            EventKind::Gather {
                elems,
                descriptors,
                bytes,
                ..
            } => {
                self.gathers += 1;
                self.gather_elems += u64::from(elems);
                self.gather_descriptors += u64::from(descriptors);
                self.gather_bytes += u64::from(bytes);
            }
            EventKind::SchedRun { .. } => self.sched_tiles += 1,
            EventKind::SchedIdle { until, .. } => {
                self.sched_idle_cycles += until.saturating_sub(at)
            }
            EventKind::SchedSteal { cost, .. } => {
                self.sched_steals += 1;
                self.sched_steal_cycles += cost;
            }
            EventKind::PipeRun { last, .. } => {
                self.pipe_stage_runs += 1;
                self.pipe_chunks += u64::from(last);
            }
            EventKind::PipeWait {
                until,
                backpressure,
                ..
            } => {
                let stalled = until.saturating_sub(at);
                if backpressure {
                    self.pipe_backpressure_cycles += stalled;
                } else {
                    self.pipe_input_wait_cycles += stalled;
                }
            }
            EventKind::FaultInjected { fault, .. } => {
                self.faults_injected += 1;
                match fault {
                    FaultKind::DmaCorrupt { .. } => self.fault_dma_corrupt += 1,
                    FaultKind::DmaDrop { .. } => self.fault_dma_drop += 1,
                    FaultKind::TagTimeout { stall } => {
                        self.fault_timeouts += 1;
                        self.fault_stall_cycles += stall;
                    }
                    FaultKind::AccelStall { cycles } => {
                        self.fault_stalls += 1;
                        self.fault_stall_cycles += cycles;
                    }
                    FaultKind::AccelDeath => self.fault_deaths += 1,
                    FaultKind::LsPoison => self.fault_ls_poison += 1,
                }
            }
            EventKind::RecoveryApplied { recovery, .. } => match recovery {
                RecoveryKind::Retry { backoff, .. } => {
                    self.recovery_retries += 1;
                    self.recovery_backoff_cycles += backoff;
                }
                RecoveryKind::Evict { .. } => self.recovery_evictions += 1,
                RecoveryKind::HostFallback { .. } => self.recovery_fallbacks += 1,
            },
            EventKind::OffloadEnd { .. }
            | EventKind::Note { .. }
            | EventKind::SpanStart { .. }
            | EventKind::SpanEnd { .. }
            | EventKind::DmaWait { .. }
            | EventKind::CacheHit { .. }
            | EventKind::CacheMiss { .. }
            | EventKind::CacheEvict { .. }
            | EventKind::LsHighWater { .. }
            | EventKind::SchedEnqueue { .. } => {}
        }
    }

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

/// Appends `s` as a JSON string literal. Text with nothing to escape,
/// which is nearly all of it, is pushed in one piece.
fn push_json_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.extend_from_slice(s.as_bytes());
    } else {
        for c in s.chars() {
            match c {
                '"' => out.extend_from_slice(b"\\\""),
                '\\' => out.extend_from_slice(b"\\\\"),
                '\n' => out.extend_from_slice(b"\\n"),
                '\r' => out.extend_from_slice(b"\\r"),
                '\t' => out.extend_from_slice(b"\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
            }
        }
    }
    out.push(b'"');
}

/// The two decimal digits of every number below 100, in order.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
      2021222324252627282930313233343536373839\
      4041424344454647484950515253545556575859\
      6061626364656667686970717273747576777879\
      8081828384858687888990919293949596979899";

/// Appends `n` in decimal. Every event has a `ts` and a `tid`, so these
/// skip the `fmt` machinery: room for the digits is made with one copy
/// of fixed size, and the digits are written into place two at a time.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut end = out.len() + len;
    out.extend_from_slice(&[0; 20]);
    out.truncate(end);
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[end - 1] = b'0' + n as u8;
    }
}

/// Writes trace records straight into one output buffer, as bytes: each
/// piece is ASCII or a whole `str`, so the buffer is UTF-8 throughout.
struct ChromeWriter {
    out: Vec<u8>,
    first: bool,
}

impl ChromeWriter {
    fn new() -> ChromeWriter {
        ChromeWriter {
            out: b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n".to_vec(),
            first: true,
        }
    }

    /// Starts the next record, up to and including its name.
    fn open(&mut self, name: Name<'_>) {
        if !self.first {
            self.out.extend_from_slice(b",\n");
        }
        self.first = false;
        self.out.extend_from_slice(b"{\"name\":");
        match name {
            Name::Text(text) => push_json_string(&mut self.out, text),
            // Formatted names are ASCII letters, digits and spaces:
            // nothing to escape.
            name => {
                let _ = write!(self.out, "\"{name}\"");
            }
        }
    }

    /// Emits `shape` as one trace event with phase `ph` at `ts`. `end`
    /// is `Some` for complete ("X") events, which get a `dur` of
    /// `end - ts`.
    fn event(&mut self, shape: &Shape<'_>, ph: u8, ts: u64, end: Option<u64>) {
        self.open(shape.name);
        self.out.extend_from_slice(b",\"ph\":\"");
        self.out.push(ph);
        self.out.extend_from_slice(b"\",\"ts\":");
        push_u64(&mut self.out, ts);
        self.out.extend_from_slice(b",\"pid\":0,\"tid\":");
        push_u64(&mut self.out, shape.lane.tid());
        if let Some(end) = end {
            self.out.extend_from_slice(b",\"dur\":");
            push_u64(&mut self.out, end.saturating_sub(ts));
        }
        if ph == b'i' {
            // Instant events need a scope; thread scope keeps them on
            // their lane.
            self.out.extend_from_slice(b",\"s\":\"t\"");
        }
        let mut sep: &[u8] = b",\"args\":{\"";
        for &(key, value) in shape.args() {
            self.out.extend_from_slice(sep);
            sep = b",\"";
            self.out.extend_from_slice(key.as_bytes());
            self.out.extend_from_slice(b"\":");
            match value {
                Arg::Num(n) => push_u64(&mut self.out, n),
                Arg::Str(text) => push_json_string(&mut self.out, text),
            }
        }
        if !shape.args().is_empty() {
            self.out.push(b'}');
        }
        self.out.push(b'}');
    }

    /// Emits a metadata record; `value` is written unescaped.
    fn metadata(&mut self, name: &'static str, tid: u64, value: fmt::Arguments<'_>) {
        self.open(Name::Text(name));
        let _ = write!(
            self.out,
            ",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{value}\"}}}}"
        );
    }

    fn finish(mut self) -> String {
        self.out.extend_from_slice(b"\n]}\n");
        String::from_utf8(self.out).expect("the writer appends only ASCII and whole strs")
    }
}

/// Exports an event log as Chrome trace-event JSON.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Timestamps are simulated cycles reported as
/// microseconds (the units are relative; only ratios matter). Each
/// event draws on one [`Lane`], whose [`Lane::tid`] is its thread:
/// the host on tid 0, accelerator *n* on tid `1+n`, and its DMA,
/// scheduler, fault, pipeline and gather lanes on tids `100+n`,
/// `200+n`, `300+n`, `400+n` and `500+n`.
/// Offload intervals and host/accel spans become complete ("X")
/// slices; DMA commands become slices on the DMA lane spanning
/// issue→completion; cache hits/misses/evictions and notes become
/// instant events; local-store high-water marks become counter tracks.
/// Scheduler tile runs (`tile N`) and idle gaps (`idle`) become X
/// slices on the scheduler lane, with enqueues and steals as instants.
/// Injected faults and recovery actions become instants on the fault
/// lane, named by their stable kind string (`dma_drop`, `tag_timeout`,
/// `retry`, `host_fallback`, …).
/// Pipeline chunk runs (`s<K> chunk N`) and stalls (`input wait` /
/// `backpressure`) become X slices on the pipeline lane.
/// Gather batches become X slices on the gather lane spanning
/// issue→drain, with elems/descriptors/bytes as args.
pub fn chrome_trace_json(log: &EventLog) -> String {
    let mut w = ChromeWriter::new();
    w.metadata("process_name", 0, format_args!("offload-sim"));
    w.metadata("thread_name", 0, format_args!("host"));

    let events = log.sorted();
    // Name each lane of the first 64 accelerators that actually
    // appears, in order of first appearance: an event's core lane
    // first, then the lane it draws on.
    let mut named = [false; Lane::Gather(64).tid() as usize];
    for e in &events {
        let lane = e.shape().lane;
        let Some(a) = lane.accel().filter(|&a| a < 64) else {
            continue;
        };
        for lane in [Lane::Accel(a), lane] {
            let tid = lane.tid();
            if !named[tid as usize] {
                named[tid as usize] = true;
                w.metadata("thread_name", tid, format_args!("{lane}"));
            }
        }
    }

    // Opens awaiting the close that completes them, innermost last.
    let mut open: Vec<(u64, Shape<'_>)> = Vec::new();
    for e in &events {
        let shape = e.shape();
        match shape.phase {
            Phase::Open => open.push((e.at, shape)),
            Phase::Close => {
                if let Some(pos) = open.iter().rposition(|(_, o)| shape.closes(o)) {
                    let (start, o) = open.remove(pos);
                    w.event(&o, b'X', start, Some(e.at));
                }
            }
            phase => {
                let end = (phase == Phase::Complete).then_some(shape.end);
                w.event(&shape, phase.ph(), e.at, end);
            }
        }
    }
    // Opens the log never closed (trace captured mid-offload).
    for (start, o) in open {
        w.event(&o, o.phase.ph(), start, None);
    }
    w.finish()
}

// ---- minimal Chrome trace parser ----------------------------------------

/// One event parsed back out of Chrome trace-event JSON — the fields
/// the workspace's tests and tools care about. The name borrows from
/// the parsed input, and is owned only when it holds an escape.
#[derive(Clone, PartialEq, Debug)]
pub struct ChromeEvent<'a> {
    /// Event name (slice label, instant label, or metadata kind).
    pub name: Cow<'a, str>,
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

impl ChromeEvent<'_> {
    /// End timestamp of a complete event (`ts` for everything else),
    /// saturating at `u64::MAX`.
    pub fn end(&self) -> u64 {
        self.ts.saturating_add(self.dur.unwrap_or(0))
    }

    /// Whether two complete events overlap in time.
    pub fn overlaps(&self, other: &ChromeEvent<'_>) -> bool {
        self.ts < other.end() && other.ts < self.end()
    }
}

/// The object keys the parser acts on; every other key's value is
/// skipped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Key {
    TraceEvents,
    Name,
    Ph,
    Ts,
    Dur,
    Tid,
    Other,
}

impl Key {
    /// The key whose text and closing quote start `raw`, the bytes after
    /// a key's opening quote, with the length of both. Recognises the
    /// keys the parser acts on and the others every exported event
    /// carries; `None` for any other key.
    #[inline(always)]
    fn at(raw: &[u8]) -> Option<(Key, usize)> {
        Some(match raw {
            [b'n', b'a', b'm', b'e', b'"', ..] => (Key::Name, 5),
            [b'p', b'h', b'"', ..] => (Key::Ph, 3),
            [b't', b's', b'"', ..] => (Key::Ts, 3),
            [b'd', b'u', b'r', b'"', ..] => (Key::Dur, 4),
            [b't', b'i', b'd', b'"', ..] => (Key::Tid, 4),
            [b'p', b'i', b'd', b'"', ..] => (Key::Other, 4),
            [b's', b'"', ..] => (Key::Other, 2),
            [b'a', b'r', b'g', b's', b'"', ..] => (Key::Other, 5),
            [b't', b'r', b'a', b'c', b'e', b'E', b'v', b'e', b'n', b't', b's', b'"', ..] => {
                (Key::TraceEvents, 12)
            }
            _ => return None,
        })
    }
}

/// The shortest record the exporter writes, with the `,\n` after it:
/// `{"name":"","ph":"B","ts":0,"pid":0,"tid":0}`. Its input holds at
/// most one event per this many bytes, so a parse sized by it never
/// grows its output.
const SHORTEST_RECORD: usize = 44;

/// A word of eight `"` bytes.
const QUOTES: u64 = 0x2222_2222_2222_2222;
/// A word of eight `\` bytes.
const BACKSLASHES: u64 = 0x5c5c_5c5c_5c5c_5c5c;

/// Marks the zero bytes of `word`: the lowest set bit of the result
/// is the high bit of its lowest zero byte. Bytes above the lowest zero
/// byte may be marked falsely, so read only the lowest mark.
fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(0x0101_0101_0101_0101) & !word & 0x8080_8080_8080_8080
}

/// A hand-rolled, dependency-free parser for the subset of JSON the
/// exporter emits (objects, arrays, strings, and unsigned integers).
/// Keys are matched on their raw bytes, values it skips are checked but
/// not kept, and strings it keeps come back as slices of the input
/// unless they hold an escape.
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

    #[inline(always)]
    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.expected(c))
        }
    }

    /// The error for a missing `c` at `pos`, past any whitespace.
    #[cold]
    fn expected(&self, c: u8) -> String {
        format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            self.pos,
            self.bytes.get(self.pos).map(|&b| b as char)
        )
    }

    /// Consumes `c` if it is the next byte past any whitespace. The
    /// exporter writes whitespace only between records, so `c` is
    /// nearly always the very next byte.
    #[inline(always)]
    fn eat(&mut self, c: u8) -> bool {
        if self.bytes.get(self.pos) != Some(&c) {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&c) {
                return false;
            }
        }
        self.pos += 1;
        true
    }

    /// A string literal: a slice of the input when it holds no escape,
    /// an owned decoded copy when it does.
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

    /// An object key, recognised from its raw bytes. Only a key that
    /// holds an escape is decoded, and then matched whole.
    #[inline(always)]
    fn key(&mut self) -> Result<Key, String> {
        self.expect(b'"')?;
        if let Some((key, len)) = Key::at(&self.bytes[self.pos..]) {
            self.pos += len;
            return Ok(key);
        }
        let start = self.pos;
        let end = self.run_end(start)?;
        if self.bytes[end] == b'"' {
            self.pos = end + 1;
            return Ok(Key::Other);
        }
        let mut text = self.decode(start)?;
        text.push('"');
        Ok(match Key::at(text.as_bytes()) {
            Some((key, len)) if len == text.len() => key,
            _ => Key::Other,
        })
    }

    /// Skips a string literal, checking its escapes as [`Self::string`]
    /// would without decoding them.
    #[inline(always)]
    fn skip_string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            let end = self.run_end(self.pos)?;
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(());
            }
            self.escape()?;
        }
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
    /// Scans eight bytes a step while eight remain.
    #[inline(always)]
    fn run_end(&self, start: usize) -> Result<usize, String> {
        let mut at = start;
        while let Some(word) = self.bytes.get(at..at + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let hits = zero_bytes(word ^ QUOTES) | zero_bytes(word ^ BACKSLASHES);
            if hits != 0 {
                return Ok(at + (hits.trailing_zeros() / 8) as usize);
            }
            at += 8;
        }
        let len = self.bytes[at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        len.map(|len| at + len)
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

    #[inline(always)]
    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        let (mut n, mut digits) = (0u64, 0);
        for &b in &self.bytes[start..] {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit));
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("expected number at byte {start}"));
        }
        self.pos += digits;
        // Nineteen digits never overflow a u64; only longer numbers are
        // read again, digit by digit, with the check.
        if digits < 20 {
            return Ok(n);
        }
        self.bytes[start..self.pos].iter().try_fold(0u64, |n, &b| {
            n.checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("number at byte {start} overflows u64"))
        })
    }

    /// Skips any JSON value (used for `args` bodies and unknown fields).
    #[inline(always)]
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.skip_string(),
            Some(b) if b.is_ascii_digit() => self.number().map(drop),
            Some(b'{') => self.skip_object(),
            Some(b'[') => self.skip_array(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    /// Skips an object. Out of line, as nested values recurse through it.
    #[inline(never)]
    fn skip_object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.skip_string()?;
            self.expect(b':')?;
            self.skip_value()?;
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')
    }

    /// Skips an array. Out of line, as nested values recurse through it.
    #[inline(never)]
    fn skip_array(&mut self) -> Result<(), String> {
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

    /// One record of the `traceEvents` array.
    #[inline(always)]
    fn event(&mut self) -> Result<ChromeEvent<'a>, String> {
        self.expect(b'{')?;
        let mut event = ChromeEvent {
            name: Cow::Borrowed(""),
            ph: '?',
            ts: 0,
            dur: None,
            tid: 0,
        };
        loop {
            let key = self.key()?;
            self.expect(b':')?;
            match key {
                Key::Name => event.name = self.string()?,
                Key::Ph => event.ph = self.string()?.chars().next().ok_or("empty ph")?,
                Key::Ts => event.ts = self.number()?,
                Key::Dur => event.dur = Some(self.number()?),
                Key::Tid => event.tid = self.number()?,
                Key::TraceEvents | Key::Other => self.skip_value()?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        if event.ph == '?' {
            return Err(format!("event {:?} has no phase", event.name));
        }
        Ok(event)
    }
}

/// Parses Chrome trace-event JSON produced by [`chrome_trace_json`]
/// back into its events, whose names borrow from `json`.
///
/// Deliberately minimal — it understands the exporter's subset of the
/// format — but strict within it, so the round-trip test doubles as a
/// validity check on the exporter's output. The events vector is sized
/// once, from the input's length, so parsing the exporter's output makes
/// one allocation plus one per name that holds an escape.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent<'_>>, String> {
    let mut p = MiniJson::new(json);
    p.expect(b'{')?;
    let mut events = Vec::new();
    loop {
        let key = p.key()?;
        p.expect(b':')?;
        if key == Key::TraceEvents {
            p.expect(b'[')?;
            events.reserve((json.len() - p.pos) / SHORTEST_RECORD);
            if !p.eat(b']') {
                loop {
                    events.push(p.event()?);
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

// ---- ASCII timeline ------------------------------------------------------

/// Renders the log as a fixed-width ASCII timeline, one lane per core
/// plus a DMA lane per accelerator that transferred anything.
///
/// `width` is the number of timeline columns (clamped to at least 10).
/// Host/accel spans and offloads draw as `[====]` bars labelled where
/// room permits; DMA transfers draw as `-` runs; cache misses mark `x`
/// on the owning accelerator's lane margin and joins mark `J` on the
/// host's. This is the "screenshots-as-ASCII" view `PROFILING.md` walks
/// through; for real analysis, load the Chrome JSON in Perfetto.
pub fn ascii_timeline(log: &EventLog, width: usize) -> String {
    let width = width.max(10);
    let events: Vec<(&Event, Shape<'_>)> =
        log.sorted().into_iter().map(|e| (e, e.shape())).collect();
    let Some(t_end) = events.iter().map(|(_, shape)| shape.end).max() else {
        return String::from("(empty trace)\n");
    };
    let t_end = t_end.max(1);
    let col = |cycle: u64| -> usize {
        ((cycle.min(t_end) as u128 * (width as u128 - 1)) / t_end as u128) as usize
    };

    // Rows: the host, then each accelerator seen, then each DMA lane
    // seen, in `Lane` order.
    let mut rows = vec![Lane::Host];
    for (_, shape) in &events {
        for lane in [
            shape.lane.accel().map_or(Lane::Host, Lane::Accel),
            shape.lane,
        ] {
            if matches!(lane, Lane::Accel(_) | Lane::Dma(_)) && !rows.contains(&lane) {
                rows.push(lane);
            }
        }
    }
    rows.sort_unstable();
    let row = |lane: Lane| rows.iter().position(|&r| r == lane);
    let mut cells = vec![vec![b' '; width]; rows.len()];

    // Bars never overwrite cells another bar already claimed, so nested
    // spans drawn first stay visible inside their parents. The label
    // lands in the longest run of this bar's own fill.
    let draw_bar = |row: &mut [u8], from: u64, to: u64, label: &str| {
        let (c0, c1) = (col(from), col(to).max(col(from)));
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
            row[best_start..best_start + n].copy_from_slice(&label.as_bytes()[..n]);
        }
    };

    // Pair spans and offloads into bars, then draw longest first so
    // nested (shorter) spans stay visible on top of their parents.
    let mut bars: Vec<(usize, u64, u64, Name<'_>)> = Vec::new();
    let mut open: Vec<(u64, Shape<'_>)> = Vec::new();
    for (e, shape) in &events {
        match shape.phase {
            Phase::Begin | Phase::Open => open.push((e.at, *shape)),
            Phase::End | Phase::Close => {
                if let Some(pos) = open.iter().rposition(|(_, o)| shape.closes(o)) {
                    let (start, o) = open.remove(pos);
                    bars.extend(row(o.lane).map(|r| (r, start, e.at, o.name)));
                }
            }
            _ => {}
        }
    }
    // Shortest first: children claim their cells before parents fill
    // the gaps around them.
    bars.sort_by_key(|&(_, from, to, _)| to - from);
    for (r, from, to, name) in bars {
        draw_bar(&mut cells[r], from, to, &name.to_string());
    }

    // Point marks draw after the bars: DMA transfers, cache misses, joins.
    for (e, shape) in &events {
        let Some(r) = row(shape.lane) else {
            continue;
        };
        let (c, cells) = (col(e.at), &mut cells[r]);
        if let (Lane::Dma(_), Phase::Complete) = (shape.lane, shape.phase) {
            for cell in cells.iter_mut().take(col(shape.end) + 1).skip(c) {
                if *cell == b' ' {
                    *cell = b'-';
                }
            }
        } else if matches!(e.kind, EventKind::CacheMiss { .. }) {
            if cells[c] == b' ' {
                cells[c] = b'x';
            }
        } else if matches!(e.kind, EventKind::Join { .. }) {
            cells[c] = b'J';
        }
    }

    let mut out = format!("cycles 0 .. {t_end}\n");
    for (lane, cells) in rows.iter().zip(&cells) {
        let pad = match lane {
            Lane::Host => "    ",
            Lane::Accel(_) => " ",
            _ => "   ",
        };
        let cells = std::str::from_utf8(cells).expect("ASCII only");
        out.push_str(&format!("{lane}{pad}|{cells}|\n"));
    }
    out
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
        let mut out = Vec::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}f");
        let out = String::from_utf8(out).unwrap();
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
        assert_eq!(slice.tid, Lane::Accel(0).tid());
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
        m.note(0, EventKind::SchedEnqueue { accel: 0, tile: 0 });
        let run = |tile, end, stolen_from| EventKind::SchedRun {
            accel: 0,
            tile,
            end,
            stolen_from,
        };
        m.note(100, run(0, 600, None));
        m.note(
            600,
            EventKind::SchedIdle {
                accel: 0,
                until: 900,
            },
        );
        m.note(900, run(1, 1400, Some(1)));
        let steal = EventKind::SchedSteal {
            thief: 0,
            victim: 1,
            tile: 1,
            cost: 300,
        };
        m.note(880, steal);
        assert_eq!(m.host_now(), 0, "noting is free: no clock moved");
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = Lane::Sched(0).tid();
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
        let pipe_run = |stage, chunk, end, last| EventKind::PipeRun {
            accel: 0,
            stage,
            chunk,
            end,
            last,
        };
        m.note(1000, pipe_run(1, 3, 1600, true));
        let json = chrome_trace_json(m.events());
        let events = parse_chrome_trace(&json).unwrap();
        let lane = Lane::Pipe(0).tid();
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

        // Wait slices are noted from the stage's own context.
        let mut m = Machine::new(MachineConfig::small())?;
        m.events_mut().set_enabled(true);
        m.offload(0)
            .run(|ctx| {
                let t = ctx.now();
                let wait = |chunk, until, backpressure| EventKind::PipeWait {
                    accel: 0,
                    stage: 2,
                    chunk,
                    until,
                    backpressure,
                };
                ctx.note(wait(5, t + 400, true));
                ctx.compute(400);
                ctx.note(wait(6, t + 500, false));
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
            .find(|e| e.ph == 'X' && e.name == "backpressure" && e.tid == lane)
            .expect("backpressure slice");
        assert_eq!(bp.dur, Some(400));
        assert!(events
            .iter()
            .any(|e| e.ph == 'X' && e.name == "input wait" && e.tid == lane));
        let report = m.utilization_report();
        assert!(!report.contains("pipeline:"), "no runs -> no pipe section");
        m.note(0, pipe_run(0, 0, 500, false));
        m.note(500, pipe_run(1, 0, 900, true));
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
        let lane = Lane::Faults(2).tid();
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
        let run = EventKind::SchedRun {
            accel: 0,
            tile: 0,
            end: 1000,
            stolen_from: None,
        };
        m.note(0, run);
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

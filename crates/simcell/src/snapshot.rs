//! One run snapshot: the oracle every "run it two ways" check compares.
//!
//! [`Machine::snapshot`](crate::Machine::snapshot) captures what a run
//! leaves behind: the host clock, each accelerator's busy cycles,
//! [`MachineStats`], each DMA engine's [`DmaStats`], the race count, the
//! allocated main-memory extent digested in [`CHUNK`]-byte chunks, and
//! the event log when it is on. [`Snapshot::diff`] returns the first
//! [`Divergence`] between two of them: the first differing event with
//! both sides rendered, a named clock or counter, or the byte range of
//! the first differing memory chunk. Runs that schedule the same work
//! differently (a pipeline against its sequential stages) differ in
//! clocks and counters by design; they compare the memory-only view,
//! [`MemorySnapshot`], instead.
//!
//! # The digest
//!
//! One digest sits behind the chunks, [`Machine::memory_hash`] and
//! [`Machine::world_hash`](crate::Machine::world_hash). It reads its
//! input as little-endian 8-byte words, zero-padding the last one, and
//! feeds word `i` into lane `i % 4` of four independent 64-bit lanes.
//! The lane step `lane = (lane + word).rotl(31)·P1`, with `P1` odd, is a
//! bijection of the word for a fixed lane and of the lane for a fixed
//! word, and costs one multiply, so the four chains run in parallel. The
//! finaliser adds the four lanes, each rotated by its own amount (with
//! the other lanes fixed, a bijection of each), adds the input length
//! in bytes times another odd constant, and avalanches the sum with
//! xor-shifts and odd multiplies, each a bijection. So two inputs of one
//! length that differ in one word always digest differently, and so do
//! two inputs that differ only in how many zero bytes end them.
//!
//! Memory is digested chunk by chunk, and the chunk digests are the
//! words of a second digest: [`Machine::memory_hash`] is that digest,
//! and `world_hash` continues it with the host clock and each
//! accelerator's busy cycles. Both walk main memory in place and
//! allocate nothing; [`MemorySnapshot::hash`] and
//! [`Snapshot::world_hash`] compute the same values from a snapshot.
//!
//! [`Machine::memory_hash`]: crate::Machine::memory_hash

use std::fmt;
use std::ops::Range;

use dma::DmaStats;

use crate::event::Event;
use crate::trace::MachineStats;

/// Bytes of main memory behind each chunk digest, and so the
/// resolution at which [`Divergence::Memory`] locates a difference.
pub const CHUNK: u32 = 256;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x27D4_EB2F_1656_67C5;

/// The four-lane, word-at-a-time digest (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Digest {
    lanes: [u64; 4],
    /// Words absorbed so far; word `i` goes to lane `i % 4`.
    words: u64,
    /// Input bytes absorbed so far (before padding).
    len: u64,
}

/// One lane step: a bijection of `word` for a fixed `lane`, and of
/// `lane` for a fixed `word`.
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word).rotate_left(31).wrapping_mul(P1)
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl Digest {
    pub(crate) const fn new() -> Digest {
        Digest {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            words: 0,
            len: 0,
        }
    }

    /// Absorbs `bytes` as little-endian words, the last one zero-padded.
    pub(crate) fn bytes(mut self, bytes: &[u8]) -> Digest {
        let mut rest = bytes;
        if self.words.is_multiple_of(4) {
            // Whole 32-byte blocks, one word per lane: four independent
            // dependency chains.
            let mut blocks = bytes.chunks_exact(32);
            for block in &mut blocks {
                for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                    *lane = round(*lane, le_word(word));
                }
            }
            self.words += 4 * (bytes.len() / 32) as u64;
            rest = blocks.remainder();
        }
        for word in rest.chunks(8) {
            let lane = &mut self.lanes[(self.words % 4) as usize];
            *lane = round(*lane, le_word(word));
            self.words += 1;
        }
        self.len += bytes.len() as u64;
        self
    }

    /// Absorbs one word.
    pub(crate) fn word(self, word: u64) -> Digest {
        self.bytes(&word.to_le_bytes())
    }

    pub(crate) fn finish(self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18))
            .wrapping_add(self.len.wrapping_mul(P4));
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The digest of one memory chunk.
pub(crate) fn chunk_digest(chunk: &[u8]) -> u64 {
    Digest::new().bytes(chunk).finish()
}

/// `memory_hash`: the digest over the chunk digests.
pub(crate) fn memory_digest(chunks: impl IntoIterator<Item = u64>) -> Digest {
    chunks.into_iter().fold(Digest::new(), Digest::word)
}

/// `world_hash`: the memory digest continued with the host clock and
/// each accelerator's busy cycles.
pub(crate) fn world_digest(
    chunks: impl IntoIterator<Item = u64>,
    host_now: u64,
    busy_cycles: impl IntoIterator<Item = u64>,
) -> u64 {
    busy_cycles
        .into_iter()
        .fold(memory_digest(chunks).word(host_now), Digest::word)
        .finish()
}

/// The state one accelerator leaves behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccelSnapshot {
    pub(crate) busy_cycles: u64,
    pub(crate) dma: DmaStats,
}

/// Everything a run leaves behind that a second run of the same work
/// must reproduce (see the [module docs](self)). Built by
/// [`Machine::snapshot`](crate::Machine::snapshot).
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) host_now: u64,
    pub(crate) accels: Vec<AccelSnapshot>,
    pub(crate) stats: MachineStats,
    pub(crate) races: u64,
    pub(crate) memory: MemorySnapshot,
    /// The event log, when it was on.
    pub(crate) events: Option<Vec<Event>>,
}

/// The allocated main-memory extent, digested in [`CHUNK`]-byte chunks:
/// the memory-only view of a [`Snapshot`], for runs that schedule the
/// same work differently. Built by
/// [`Machine::memory_snapshot`](crate::Machine::memory_snapshot).
#[derive(Clone, Debug)]
pub struct MemorySnapshot {
    pub(crate) len: u32,
    pub(crate) chunks: Vec<u64>,
}

/// Where two snapshots first differ. Its `Display` names the place and
/// renders both sides.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// A clock, counter or size differs.
    Field {
        /// What differs, e.g. `host clock` or `stats.dma_gets`.
        name: String,
        /// The left snapshot's value.
        left: String,
        /// The right snapshot's value.
        right: String,
    },
    /// The event logs first differ at `index`; `None` means that log
    /// ended first.
    Event {
        /// Position in emission order.
        index: usize,
        /// The left log's event.
        left: Option<Event>,
        /// The right log's event.
        right: Option<Event>,
    },
    /// Main memory first differs inside this chunk.
    Memory {
        /// The chunk's byte range in main memory.
        bytes: Range<u32>,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Field { name, left, right } => write!(f, "{name}: {left} vs {right}"),
            Divergence::Event { index, left, right } => {
                let side = |event: &Option<Event>| {
                    event
                        .as_ref()
                        .map_or_else(|| "(end of log)".to_string(), Event::to_string)
                };
                write!(
                    f,
                    "event #{index} differs:\n  left:  {}\n  right: {}",
                    side(left),
                    side(right)
                )
            }
            Divergence::Memory { bytes } => write!(
                f,
                "main memory differs in bytes {}..{} (chunk {})",
                bytes.start,
                bytes.end,
                bytes.start / CHUNK
            ),
        }
    }
}

fn field(name: impl Into<String>, left: impl fmt::Display, right: impl fmt::Display) -> Divergence {
    Divergence::Field {
        name: name.into(),
        left: left.to_string(),
        right: right.to_string(),
    }
}

/// Compares two flat counter blocks, naming the first field that
/// differs from their `{:#?}` rendering (one `name: value,` line per
/// field).
fn first_field<T: PartialEq + fmt::Debug>(
    what: &str,
    left: &T,
    right: &T,
) -> Result<(), Divergence> {
    if left == right {
        return Ok(());
    }
    fn name_value(line: &str) -> (&str, &str) {
        let line = line.trim().trim_end_matches(',');
        line.split_once(": ").unwrap_or(("", line))
    }
    let (l, r) = (format!("{left:#?}"), format!("{right:#?}"));
    Err(match l.lines().zip(r.lines()).find(|(a, b)| a != b) {
        Some((a, b)) => {
            let ((name, a), (_, b)) = (name_value(a), name_value(b));
            field(format!("{what}.{name}"), a, b)
        }
        None => field(what, l, r),
    })
}

impl Snapshot {
    /// The first place `self` (left) and `other` (right) differ: the
    /// event logs (when both were on; recording costs no simulated
    /// cycle, so a traced run may be compared with an untraced one),
    /// then the host clock, each
    /// accelerator's busy cycles and DMA counters, the machine
    /// counters, the race count and finally main memory.
    ///
    /// # Errors
    ///
    /// The first [`Divergence`].
    pub fn diff(&self, other: &Snapshot) -> Result<(), Divergence> {
        if let (Some(left), Some(right)) = (&self.events, &other.events) {
            events_diff(left, right)?;
        }
        if self.host_now != other.host_now {
            return Err(field("host clock", self.host_now, other.host_now));
        }
        if self.accels.len() != other.accels.len() {
            return Err(field("accelerators", self.accels.len(), other.accels.len()));
        }
        for (i, (left, right)) in self.accels.iter().zip(&other.accels).enumerate() {
            if left.busy_cycles != right.busy_cycles {
                return Err(field(
                    format!("accel {i} busy cycles"),
                    left.busy_cycles,
                    right.busy_cycles,
                ));
            }
            first_field(&format!("accel {i} dma"), &left.dma, &right.dma)?;
        }
        first_field("stats", &self.stats, &other.stats)?;
        if self.races != other.races {
            return Err(field("races detected", self.races, other.races));
        }
        self.memory.diff(&other.memory)
    }

    /// The memory-only view, for runs that schedule the same work
    /// differently.
    pub fn memory(&self) -> &MemorySnapshot {
        &self.memory
    }

    /// The machine counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// [`Machine::world_hash`](crate::Machine::world_hash) of the
    /// machine this snapshot was taken of.
    pub fn world_hash(&self) -> u64 {
        world_digest(
            self.memory.chunks.iter().copied(),
            self.host_now,
            self.accels.iter().map(|accel| accel.busy_cycles),
        )
    }
}

fn events_diff(left: &[Event], right: &[Event]) -> Result<(), Divergence> {
    let index = match left.iter().zip(right).position(|(l, r)| l != r) {
        Some(index) => index,
        None if left.len() == right.len() => return Ok(()),
        None => left.len().min(right.len()),
    };
    Err(Divergence::Event {
        index,
        left: left.get(index).cloned(),
        right: right.get(index).cloned(),
    })
}

impl MemorySnapshot {
    /// The first place two memory images differ: the extent's length,
    /// then the first differing chunk.
    ///
    /// # Errors
    ///
    /// The first [`Divergence`].
    pub fn diff(&self, other: &MemorySnapshot) -> Result<(), Divergence> {
        if self.len != other.len {
            return Err(field("allocated main memory (bytes)", self.len, other.len));
        }
        match self
            .chunks
            .iter()
            .zip(&other.chunks)
            .position(|(l, r)| l != r)
        {
            Some(k) => {
                let start = k as u32 * CHUNK;
                Err(Divergence::Memory {
                    bytes: start..self.len.min(start + CHUNK),
                })
            }
            None => Ok(()),
        }
    }

    /// [`Machine::memory_hash`](crate::Machine::memory_hash) of the
    /// machine this snapshot was taken of.
    pub fn hash(&self) -> u64 {
        memory_digest(self.chunks.iter().copied()).finish()
    }
}

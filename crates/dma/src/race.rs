//! Dynamic DMA race detection.
//!
//! Modelled on the Cell BE Race Check Library the paper cites (IBM,
//! 2008): every issued command and every direct core access to the local
//! store is reported to a [`RaceChecker`], which flags combinations that
//! would observe or corrupt in-transit data on real hardware.
//!
//! The workspace's execution model moves bytes eagerly at issue time, so
//! a program with a missing `dma_wait` still *computes* the right answer
//! in simulation — exactly the situation that makes these bugs "hard to
//! reproduce and fix" on real machines, where timing decides. The checker
//! exists so the bug is caught anyway.

use std::fmt;

use memspace::AddrRange;

use crate::engine::{DmaDirection, DmaRequest, Tag, TagMask};

/// The kind of a direct core access to the local store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// What the checker does when it detects a race.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RaceMode {
    /// Drop reports (count them only).
    Ignore,
    /// Record reports for later inspection (the default).
    #[default]
    Record,
    /// Panic immediately with a diagnostic — the "fail loudly in
    /// development builds" configuration.
    Panic,
}

/// Classification of a detected race.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceKind {
    /// Two in-flight transfers touch overlapping bytes and at least one
    /// of them writes those bytes. `in_local_store` says which side of
    /// the transfers overlapped.
    TransferOverlap {
        /// Id of the earlier transfer.
        first: u64,
        /// Id of the later transfer.
        second: u64,
        /// Whether the overlap is in the local store (else remote memory).
        in_local_store: bool,
    },
    /// A core accessed local-store bytes still targeted by an un-waited
    /// transfer: reading or writing a `get` destination, or writing a
    /// `put` source.
    UnsyncedLocalAccess {
        /// Id of the conflicting in-flight transfer.
        transfer: u64,
        /// The core access kind.
        access: AccessKind,
        /// Direction of the conflicting transfer.
        direction: DmaDirection,
    },
    /// A put targeted a remote range the offload's access-mode
    /// declarations do not cover writably: either inside a range
    /// declared read-only (`read_only` true) or outside every declared
    /// range. Only raised for mode-annotated offloads — an offload
    /// that declares nothing keeps the permissive legacy contract.
    UndeclaredWrite {
        /// Whether the range was declared read-only (else undeclared).
        read_only: bool,
    },
}

/// A single detected race.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// What went wrong.
    pub kind: RaceKind,
    /// The overlapping/conflicting byte range.
    pub range: AddrRange,
    /// Cycle at which the race was observed.
    pub at: u64,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RaceKind::TransferOverlap {
                first,
                second,
                in_local_store,
            } => write!(
                f,
                "DMA race at cycle {}: transfers #{first} and #{second} overlap on {} in {}",
                self.at,
                self.range,
                if in_local_store {
                    "the local store"
                } else {
                    "remote memory"
                }
            ),
            RaceKind::UnsyncedLocalAccess {
                transfer,
                access,
                direction,
            } => write!(
                f,
                "DMA race at cycle {}: core {access} of {} while {direction} #{transfer} is in flight (missing dma_wait?)",
                self.at, self.range,
            ),
            RaceKind::UndeclaredWrite { read_only } => write!(
                f,
                "undeclared write at cycle {}: put of {} {} the offload's access-mode declarations",
                self.at,
                self.range,
                if read_only {
                    "targets a range declared read-only by"
                } else {
                    "is outside every range declared by"
                },
            ),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Tracked {
    id: u64,
    tag: Tag,
    local: AddrRange,
    remote: AddrRange,
    direction: DmaDirection,
}

/// The offset interval `lo..hi` covering a set of ranges, in any space;
/// empty when `lo >= hi`. A range that misses the hull overlaps none of
/// the ranges it covers.
#[derive(Clone, Copy, Debug)]
struct Hull {
    lo: u32,
    hi: u32,
}

impl Hull {
    const EMPTY: Hull = Hull {
        lo: u32::MAX,
        hi: 0,
    };

    fn add(&mut self, range: AddrRange) {
        self.lo = self.lo.min(range.start().offset());
        self.hi = self.hi.max(range.end_offset());
    }

    fn meets(self, range: AddrRange) -> bool {
        range.start().offset() < self.hi && self.lo < range.end_offset()
    }
}

/// Hulls of the tracked local and remote ranges, one per direction:
/// index 0 covers gets, index 1 puts.
#[derive(Clone, Copy, Debug)]
struct Hulls {
    local: [Hull; 2],
    remote: [Hull; 2],
}

impl Hulls {
    const EMPTY: Hulls = Hulls {
        local: [Hull::EMPTY; 2],
        remote: [Hull::EMPTY; 2],
    };

    fn add(&mut self, entry: &Tracked) {
        let slot = match entry.direction {
            DmaDirection::Get => 0,
            DmaDirection::Put => 1,
        };
        self.local[slot].add(entry.local);
        self.remote[slot].add(entry.remote);
    }

    /// Whether `entry` could race some tracked transfer under the rules
    /// of [`RaceChecker::note_issue`]: a get's local range against every
    /// tracked local range and its remote range against tracked puts; a
    /// put's local range against tracked gets and its remote range
    /// against every tracked remote range.
    fn may_race(&self, entry: &Tracked) -> bool {
        let (local, remote) = (entry.local, entry.remote);
        let [local_get, local_put] = self.local;
        let [remote_get, remote_put] = self.remote;
        match entry.direction {
            DmaDirection::Get => {
                local_get.meets(local) || local_put.meets(local) || remote_put.meets(remote)
            }
            DmaDirection::Put => {
                local_get.meets(local) || remote_get.meets(remote) || remote_put.meets(remote)
            }
        }
    }
}

/// Dynamic race checker attached to a [`crate::DmaEngine`].
///
/// # Cost
///
/// The checker keeps per-direction offset hulls of the local and remote
/// ranges it tracks. An issue whose ranges miss every hull that could
/// hold a conflicting transfer is O(1); any other issue scans the
/// in-flight list, so reports come out exactly as a full scan would
/// give them. [`RaceChecker::note_wait`] retires a whole tag group and
/// rebuilds the hulls in one pass over the in-flight list.
///
/// # Example
///
/// ```
/// use dma::{AccessKind, RaceChecker, RaceMode};
/// use memspace::{Addr, AddrRange, SpaceId};
///
/// let mut checker = RaceChecker::new(RaceMode::Record);
/// // (normally fed by the engine; see DmaEngine::note_local_access)
/// let range = AddrRange::new(Addr::new(SpaceId::local_store(0), 0), 16).unwrap();
/// checker.note_access(range, AccessKind::Read, 0);
/// assert!(checker.reports().is_empty(), "no transfers in flight");
/// ```
#[derive(Debug)]
pub struct RaceChecker {
    mode: RaceMode,
    tracked: Vec<Tracked>,
    hulls: Hulls,
    reports: Vec<RaceReport>,
    detected: u64,
}

impl RaceChecker {
    /// Creates a checker in the given mode.
    pub fn new(mode: RaceMode) -> RaceChecker {
        RaceChecker {
            mode,
            tracked: Vec::new(),
            hulls: Hulls::EMPTY,
            reports: Vec::new(),
            detected: 0,
        }
    }

    /// Changes the reporting mode.
    pub fn set_mode(&mut self, mode: RaceMode) {
        self.mode = mode;
    }

    /// Forgets every tracked transfer, recorded report, and the
    /// detection count, keeping the mode and the backing capacity. Part
    /// of [`crate::DmaEngine::reset`].
    pub fn reset(&mut self) {
        self.tracked.clear();
        self.hulls = Hulls::EMPTY;
        self.reports.clear();
        self.detected = 0;
    }

    /// Races detected so far (including ignored ones).
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Recorded reports (empty in [`RaceMode::Ignore`]).
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Removes and returns the recorded reports.
    pub fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }

    fn emit(&mut self, report: RaceReport) {
        self.detected += 1;
        match self.mode {
            RaceMode::Ignore => {}
            RaceMode::Record => self.reports.push(report),
            RaceMode::Panic => panic!("{report}"),
        }
    }

    /// Registers a newly issued transfer and checks it against every
    /// transfer still in flight.
    ///
    /// # Panics
    ///
    /// Panics on detection in [`RaceMode::Panic`].
    pub fn note_issue(&mut self, id: u64, request: &DmaRequest, now: u64) {
        let entry = Self::entry_for(id, request);
        self.scan_against_inflight(&entry, now);
        self.hulls.add(&entry);
        self.tracked.push(entry);
    }

    /// Checks a transfer that is issued and retired in one step — a
    /// synchronous staging round trip whose tag queue is idle — against
    /// every transfer still in flight, without tracking it. Because an
    /// issue immediately followed by a retire of its tag leaves
    /// `tracked` unchanged and nothing else can observe the transient
    /// entry, this is report-for-report identical to `note_issue` +
    /// `note_wait`.
    ///
    /// # Panics
    ///
    /// Panics on detection in [`RaceMode::Panic`].
    #[inline]
    pub fn note_sync(&mut self, id: u64, request: &DmaRequest, now: u64) {
        // Nothing in flight, nothing to overlap with: skip even the
        // range construction (the common case on the outer-access path).
        if self.tracked.is_empty() {
            return;
        }
        let entry = Self::entry_for(id, request);
        self.scan_against_inflight(&entry, now);
    }

    fn entry_for(id: u64, request: &DmaRequest) -> Tracked {
        let local =
            AddrRange::new(request.local, request.size).expect("engine validated the local range");
        let remote = AddrRange::new(request.remote, request.size)
            .expect("engine validated the remote range");
        Tracked {
            id,
            tag: request.tag,
            local,
            remote,
            direction: request.direction,
        }
    }

    fn scan_against_inflight(&mut self, entry: &Tracked, now: u64) {
        if !self.hulls.may_race(entry) {
            return;
        }
        let (id, local, remote) = (entry.id, entry.local, entry.remote);
        let mut found = Vec::new();
        for other in &self.tracked {
            // Local store side: a get writes its local range, a put reads
            // it. Conflict if the ranges overlap and at least one writes.
            if other.local.overlaps(local)
                && (other.direction == DmaDirection::Get || entry.direction == DmaDirection::Get)
            {
                found.push(RaceReport {
                    kind: RaceKind::TransferOverlap {
                        first: other.id,
                        second: id,
                        in_local_store: true,
                    },
                    range: overlap_of(other.local, local),
                    at: now,
                });
            }
            // Remote side: a put writes its remote range, a get reads it.
            if other.remote.overlaps(remote)
                && (other.direction == DmaDirection::Put || entry.direction == DmaDirection::Put)
            {
                found.push(RaceReport {
                    kind: RaceKind::TransferOverlap {
                        first: other.id,
                        second: id,
                        in_local_store: false,
                    },
                    range: overlap_of(other.remote, remote),
                    at: now,
                });
            }
        }
        for report in found {
            self.emit(report);
        }
    }

    /// Retires every tracked transfer whose tag is in `mask` (those tag
    /// groups were waited on), rebuilding the hulls from the transfers
    /// still in flight in the same pass.
    pub fn note_wait(&mut self, mask: TagMask) {
        let mut hulls = Hulls::EMPTY;
        self.tracked.retain(|t| {
            let keep = !mask.contains(t.tag);
            if keep {
                hulls.add(t);
            }
            keep
        });
        self.hulls = hulls;
    }

    /// Checks a direct core access to the local store against in-flight
    /// transfers.
    ///
    /// Reading or writing an un-waited `get` destination, or writing an
    /// un-waited `put` source, is a race. Reading a `put` source is safe.
    ///
    /// # Panics
    ///
    /// Panics on detection in [`RaceMode::Panic`].
    pub fn note_access(&mut self, range: AddrRange, kind: AccessKind, now: u64) {
        let mut found = Vec::new();
        for t in &self.tracked {
            if !t.local.overlaps(range) {
                continue;
            }
            let races = match (t.direction, kind) {
                (DmaDirection::Get, _) => true,
                (DmaDirection::Put, AccessKind::Write) => true,
                (DmaDirection::Put, AccessKind::Read) => false,
            };
            if races {
                found.push(RaceReport {
                    kind: RaceKind::UnsyncedLocalAccess {
                        transfer: t.id,
                        access: kind,
                        direction: t.direction,
                    },
                    range: overlap_of(t.local, range),
                    at: now,
                });
            }
        }
        for report in found {
            self.emit(report);
        }
    }

    /// Reports a put whose remote range a mode-annotated offload never
    /// declared writable. Called by the engine-owning runtime *before*
    /// it rejects the transfer, so the violation shows up in the race
    /// reports alongside timing races.
    ///
    /// # Panics
    ///
    /// Panics on detection in [`RaceMode::Panic`].
    pub fn note_undeclared_write(&mut self, range: AddrRange, read_only: bool, now: u64) {
        self.emit(RaceReport {
            kind: RaceKind::UndeclaredWrite { read_only },
            range,
            at: now,
        });
    }

    /// Number of transfers currently tracked as in flight.
    pub fn inflight_len(&self) -> usize {
        self.tracked.len()
    }
}

fn overlap_of(a: AddrRange, b: AddrRange) -> AddrRange {
    let start = a.start().offset().max(b.start().offset());
    let end = a.end_offset().min(b.end_offset());
    AddrRange::new(
        memspace::Addr::new(a.space(), start),
        end.saturating_sub(start),
    )
    .expect("overlap of valid ranges is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memspace::{Addr, SpaceId};

    fn ls_range(offset: u32, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(SpaceId::local_store(0), offset), len).unwrap()
    }

    fn main_range(offset: u32, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(SpaceId::MAIN, offset), len).unwrap()
    }

    fn request(local: u32, remote: u32, size: u32, direction: DmaDirection) -> DmaRequest {
        DmaRequest {
            local: Addr::new(SpaceId::local_store(0), local),
            remote: Addr::new(SpaceId::MAIN, remote),
            size,
            tag: crate::Tag::new(0).unwrap(),
            direction,
        }
    }

    #[test]
    fn read_of_pending_get_destination_is_a_race() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x120, 4), AccessKind::Read, 10);
        assert_eq!(c.reports().len(), 1);
        assert!(matches!(
            c.reports()[0].kind,
            RaceKind::UnsyncedLocalAccess {
                transfer: 1,
                access: AccessKind::Read,
                direction: DmaDirection::Get,
            }
        ));
    }

    #[test]
    fn access_after_retire_is_clean() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_wait(crate::Tag::new(0).unwrap().mask());
        c.note_access(ls_range(0x120, 4), AccessKind::Read, 10);
        assert!(c.reports().is_empty());
        assert_eq!(c.detected(), 0);
    }

    #[test]
    fn read_of_pending_put_source_is_safe_but_write_races() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Put), 0);
        c.note_access(ls_range(0x100, 4), AccessKind::Read, 5);
        assert!(c.reports().is_empty());
        c.note_access(ls_range(0x100, 4), AccessKind::Write, 6);
        assert_eq!(c.reports().len(), 1);
        assert!(matches!(
            c.reports()[0].kind,
            RaceKind::UnsyncedLocalAccess {
                access: AccessKind::Write,
                direction: DmaDirection::Put,
                ..
            }
        ));
    }

    #[test]
    fn disjoint_access_is_clean() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x200, 64), AccessKind::Write, 5);
        assert!(c.reports().is_empty());
    }

    #[test]
    fn overlapping_gets_race_in_local_store() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_issue(2, &request(0x120, 0x2000, 64, DmaDirection::Get), 1);
        assert_eq!(c.reports().len(), 1);
        assert!(matches!(
            c.reports()[0].kind,
            RaceKind::TransferOverlap {
                first: 1,
                second: 2,
                in_local_store: true
            }
        ));
        // The reported range is the actual overlap.
        assert_eq!(c.reports()[0].range, ls_range(0x120, 0x40 - 0x20));
    }

    #[test]
    fn overlapping_puts_race_in_remote_memory() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Put), 0);
        c.note_issue(2, &request(0x200, 0x1020, 64, DmaDirection::Put), 1);
        assert_eq!(c.reports().len(), 1);
        assert!(matches!(
            c.reports()[0].kind,
            RaceKind::TransferOverlap {
                in_local_store: false,
                ..
            }
        ));
        assert_eq!(c.reports()[0].range, main_range(0x1020, 0x40 - 0x20));
    }

    #[test]
    fn get_overlapping_put_source_races_locally() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Put), 0);
        c.note_issue(2, &request(0x100, 0x2000, 64, DmaDirection::Get), 1);
        assert_eq!(c.reports().len(), 1);
    }

    #[test]
    fn overlapping_put_reads_do_not_race_locally() {
        // Two puts reading overlapping local bytes to disjoint remote
        // destinations: read/read, no race anywhere.
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Put), 0);
        c.note_issue(2, &request(0x100, 0x2000, 64, DmaDirection::Put), 1);
        assert!(c.reports().is_empty());
    }

    #[test]
    fn overlapping_get_reads_do_not_race_remotely() {
        // Two gets from the same main-memory bytes into disjoint local
        // buffers: remote side is read/read.
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_issue(2, &request(0x200, 0x1000, 64, DmaDirection::Get), 1);
        assert!(c.reports().is_empty());
    }

    #[test]
    fn ignore_mode_counts_without_recording() {
        let mut c = RaceChecker::new(RaceMode::Ignore);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x100, 4), AccessKind::Read, 5);
        assert!(c.reports().is_empty());
        assert_eq!(c.detected(), 1);
    }

    #[test]
    #[should_panic(expected = "DMA race")]
    fn panic_mode_panics() {
        let mut c = RaceChecker::new(RaceMode::Panic);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x100, 4), AccessKind::Read, 5);
    }

    #[test]
    fn report_display_mentions_wait() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x100, 4), AccessKind::Read, 5);
        let text = c.reports()[0].to_string();
        assert!(text.contains("missing dma_wait"));
        assert!(text.contains("get #1"));
    }

    #[test]
    fn take_reports_drains() {
        let mut c = RaceChecker::new(RaceMode::Record);
        c.note_issue(1, &request(0x100, 0x1000, 64, DmaDirection::Get), 0);
        c.note_access(ls_range(0x100, 4), AccessKind::Read, 5);
        assert_eq!(c.take_reports().len(), 1);
        assert!(c.reports().is_empty());
        assert_eq!(c.detected(), 1);
    }
}

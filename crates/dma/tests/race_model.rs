//! The engine's race checker against a naive reference model.
//!
//! The checker skips its in-flight scan when an issue misses the offset
//! hulls of the tracked ranges, and retires a waited tag group in one
//! pass that rebuilds those hulls. The model below does neither: it
//! scans every in-flight transfer on each issue and retires one id at a
//! time. Seeded random programs of queued and synchronous transfers,
//! waits, purges and core accesses run through both, and after every
//! step the recorded reports (in order), the detection count and the
//! in-flight count must agree.

use dma::{AccessKind, DmaDirection, DmaEngine, DmaRequest, RaceKind, RaceReport, Tag, TagMask};
use memspace::{Addr, AddrRange, MemoryRegion, SpaceId, SpaceKind};
use xrng::Rng;

const PROGRAMS: u64 = 240;
/// Tags the programs issue under.
const TAGS: u8 = 6;
const LS_SIZE: u32 = 128 * 1024;
const REMOTE_SIZE: u32 = 64 * 1024;

/// The second remote space: another accelerator's local store.
fn other() -> SpaceId {
    SpaceId::local_store(1)
}

#[derive(Clone, Copy)]
struct Entry {
    id: u64,
    tag: Tag,
    local: AddrRange,
    remote: AddrRange,
    direction: DmaDirection,
}

/// Full scan on every issue, one `retain` per retired id.
#[derive(Default)]
struct Model {
    tracked: Vec<Entry>,
    reports: Vec<RaceReport>,
    detected: u64,
    next_id: u64,
}

fn overlap_of(a: AddrRange, b: AddrRange) -> AddrRange {
    let start = a.start().offset().max(b.start().offset());
    let end = a.end_offset().min(b.end_offset());
    AddrRange::new(Addr::new(a.space(), start), end - start).unwrap()
}

impl Model {
    fn emit(&mut self, kind: RaceKind, range: AddrRange, at: u64) {
        self.detected += 1;
        self.reports.push(RaceReport { kind, range, at });
    }

    fn entry(&mut self, request: &DmaRequest) -> Entry {
        self.next_id += 1;
        Entry {
            id: self.next_id,
            tag: request.tag,
            local: AddrRange::new(request.local, request.size).unwrap(),
            remote: AddrRange::new(request.remote, request.size).unwrap(),
            direction: request.direction,
        }
    }

    fn scan(&mut self, entry: &Entry, now: u64) {
        let get = DmaDirection::Get;
        let put = DmaDirection::Put;
        for other in self.tracked.clone() {
            if other.local.overlaps(entry.local)
                && (other.direction == get || entry.direction == get)
            {
                let kind = RaceKind::TransferOverlap {
                    first: other.id,
                    second: entry.id,
                    in_local_store: true,
                };
                self.emit(kind, overlap_of(other.local, entry.local), now);
            }
            if other.remote.overlaps(entry.remote)
                && (other.direction == put || entry.direction == put)
            {
                let kind = RaceKind::TransferOverlap {
                    first: other.id,
                    second: entry.id,
                    in_local_store: false,
                };
                self.emit(kind, overlap_of(other.remote, entry.remote), now);
            }
        }
    }

    fn issue(&mut self, request: &DmaRequest, now: u64) {
        let entry = self.entry(request);
        self.scan(&entry, now);
        self.tracked.push(entry);
    }

    /// Issued and retired in one step: scanned, never tracked.
    fn sync(&mut self, request: &DmaRequest, now: u64) {
        let entry = self.entry(request);
        self.scan(&entry, now);
    }

    fn wait(&mut self, mask: TagMask) {
        let retired: Vec<u64> = self
            .tracked
            .iter()
            .filter(|t| mask.contains(t.tag))
            .map(|t| t.id)
            .collect();
        for id in retired {
            self.tracked.retain(|t| t.id != id);
        }
    }

    fn access(&mut self, range: AddrRange, kind: AccessKind, now: u64) {
        for t in self.tracked.clone() {
            if t.local.overlaps(range)
                && (t.direction == DmaDirection::Get || kind == AccessKind::Write)
            {
                let race = RaceKind::UnsyncedLocalAccess {
                    transfer: t.id,
                    access: kind,
                    direction: t.direction,
                };
                self.emit(race, overlap_of(t.local, range), now);
            }
        }
    }
}

/// The engine under test, its memories and the model, stepped together.
struct Rig {
    engine: DmaEngine,
    ls: MemoryRegion,
    main: MemoryRegion,
    other: MemoryRegion,
    model: Model,
    now: u64,
    steps: u64,
    max_inflight: usize,
}

impl Rig {
    fn new() -> Rig {
        Rig {
            engine: DmaEngine::new(SpaceId::local_store(0)),
            ls: MemoryRegion::new(
                SpaceId::local_store(0),
                SpaceKind::LocalStore { accel: 0 },
                LS_SIZE,
            ),
            main: MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, REMOTE_SIZE),
            other: MemoryRegion::new(other(), SpaceKind::LocalStore { accel: 1 }, REMOTE_SIZE),
            model: Model::default(),
            now: 0,
            steps: 0,
            max_inflight: 0,
        }
    }

    fn tick(&mut self, rng: &mut Rng) {
        self.now += u64::from(rng.below_u32(50));
    }

    fn issue(&mut self, request: DmaRequest, sync: bool) {
        let remote_mem = if request.remote.space() == other() {
            &mut self.other
        } else {
            &mut self.main
        };
        let now = self.now;
        let result = if sync {
            self.model.sync(&request, now);
            self.engine.sync(now, request, remote_mem, &mut self.ls)
        } else {
            self.model.issue(&request, now);
            let DmaRequest {
                local,
                remote,
                size,
                tag,
                ..
            } = request;
            match request.direction {
                DmaDirection::Get => {
                    self.engine
                        .get(now, local, remote, size, tag, remote_mem, &mut self.ls)
                }
                DmaDirection::Put => {
                    self.engine
                        .put(now, local, remote, size, tag, remote_mem, &mut self.ls)
                }
            }
        };
        result.unwrap_or_else(|e| panic!("valid request {request:?} rejected: {e}"));
    }

    fn wait(&mut self, mask: TagMask) {
        self.model.wait(mask);
        self.now = self.engine.wait(mask, self.now);
    }

    fn purge(&mut self) {
        self.model.wait(TagMask::ALL);
        self.engine.purge();
    }

    fn access(&mut self, range: AddrRange, kind: AccessKind) {
        self.model.access(range, kind, self.now);
        self.engine.note_local_access(range, kind, self.now);
    }

    /// Compares everything the checker exposes with the model.
    fn check(&mut self, program: u64) {
        self.steps += 1;
        let step = self.steps;
        let expected = std::mem::take(&mut self.model.reports);
        let actual = self.engine.take_race_reports();
        assert_eq!(
            actual, expected,
            "program {program}, step {step}: reports differ"
        );
        let checker = self.engine.race_checker();
        assert_eq!(
            checker.detected(),
            self.model.detected,
            "program {program}, step {step}: detection counts differ"
        );
        let inflight = self.model.tracked.len();
        assert_eq!(
            checker.inflight_len(),
            inflight,
            "program {program}, step {step}: checker in-flight counts differ"
        );
        assert_eq!(
            self.engine.inflight_len(),
            inflight,
            "program {program}, step {step}: engine in-flight counts differ"
        );
        self.max_inflight = self.max_inflight.max(inflight);
    }
}

/// How a program picks its ranges: packed into a small window, so most
/// transfers overlap, or spread over the whole space, so few do.
#[derive(Clone, Copy)]
enum Spread {
    Dense,
    Sparse,
}

fn pick(rng: &mut Rng, spread: Spread, space: u32, max_len: u32) -> (u32, u32) {
    let len = rng.range_u32(1, max_len + 1);
    let window = match spread {
        Spread::Dense => 2048,
        Spread::Sparse => space,
    };
    let start = rng.below_u32(window - len);
    (start, len)
}

fn random_request(rng: &mut Rng, spread: Spread, tag: Tag) -> DmaRequest {
    let (local, size) = pick(rng, spread, LS_SIZE, 256);
    let remote_space = if rng.below_u32(5) == 0 {
        other()
    } else {
        SpaceId::MAIN
    };
    let remote = rng.below_u32(match spread {
        Spread::Dense => 4096,
        Spread::Sparse => REMOTE_SIZE - size,
    });
    DmaRequest {
        local: Addr::new(SpaceId::local_store(0), local),
        remote: Addr::new(remote_space, remote),
        size,
        tag,
        direction: if rng.below_u32(2) == 0 {
            DmaDirection::Get
        } else {
            DmaDirection::Put
        },
    }
}

fn random_tag(rng: &mut Rng) -> Tag {
    Tag::new(rng.below_u32(u32::from(TAGS)) as u8).unwrap()
}

fn random_mask(rng: &mut Rng) -> TagMask {
    match rng.below_u32(8) {
        0 => TagMask::ALL,
        1 => TagMask::EMPTY,
        2 | 3 => TagMask::from_bits(rng.below_u32(1 << TAGS)),
        _ => random_tag(rng).mask(),
    }
}

/// One random step: a queued or synchronous issue, a wait, a purge or
/// a core access.
fn random_step(rig: &mut Rig, rng: &mut Rng, spread: Spread, program: u64) {
    rig.tick(rng);
    match rng.below_u32(20) {
        0..=8 => {
            let tag = random_tag(rng);
            rig.issue(random_request(rng, spread, tag), false);
        }
        9..=10 => {
            // `sync` needs an idle tag queue.
            let tag = random_tag(rng);
            if !rig.engine.tag_busy(tag) {
                rig.issue(random_request(rng, spread, tag), true);
            }
        }
        11..=13 => rig.wait(random_mask(rng)),
        14 => {
            if rng.below_u32(4) == 0 {
                rig.purge();
            }
        }
        _ => {
            let (start, len) = pick(rng, spread, LS_SIZE, 128);
            let range = AddrRange::new(Addr::new(SpaceId::local_store(0), start), len).unwrap();
            let kind = if rng.below_u32(2) == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            rig.access(range, kind);
        }
    }
    rig.check(program);
}

/// A gather-like batch: `count` gets packed back to back in the local
/// store under one tag, from random remote offsets, with an occasional
/// put, a deliberately overlapping get and random steps mixed in.
fn batch(rig: &mut Rig, rng: &mut Rng, count: u32, program: u64) {
    let tag = random_tag(rng);
    let mut local = rng.below_u32(4096);
    for _ in 0..count {
        rig.tick(rng);
        let size = rng.range_u32(16, 112);
        let mut request = DmaRequest {
            local: Addr::new(SpaceId::local_store(0), local),
            remote: Addr::new(SpaceId::MAIN, rng.below_u32(REMOTE_SIZE - size)),
            size,
            tag,
            direction: DmaDirection::Get,
        };
        match rng.below_u32(50) {
            0 => request.direction = DmaDirection::Put,
            1 => request.local = Addr::new(SpaceId::local_store(0), rng.below_u32(local + 1)),
            2 => request.remote = Addr::new(other(), request.remote.offset()),
            3 => {
                random_step(rig, rng, Spread::Sparse, program);
                continue;
            }
            _ => {}
        }
        local += size;
        rig.issue(request, false);
        rig.check(program);
    }
}

#[test]
fn checker_matches_a_full_scan_model_on_random_programs() {
    let mut rng = Rng::new(0x5eed_d0a0_0017);
    let mut most_inflight = 0;
    let mut total_reports = 0u64;
    for program in 0..PROGRAMS {
        let mut rig = Rig::new();
        let spread = if program % 2 == 0 {
            Spread::Dense
        } else {
            Spread::Sparse
        };
        if program % 4 == 3 {
            for _ in 0..rng.below_u32(20) {
                random_step(&mut rig, &mut rng, spread, program);
            }
            let count = rng.range_u32(400, 480);
            batch(&mut rig, &mut rng, count, program);
        }
        for _ in 0..rng.range_u32(20, 160) {
            random_step(&mut rig, &mut rng, spread, program);
        }
        rig.wait(TagMask::ALL);
        rig.check(program);
        most_inflight = most_inflight.max(rig.max_inflight);
        total_reports += rig.model.detected;
    }
    assert!(
        most_inflight >= 400,
        "some program must keep 400 transfers in flight, the most was {most_inflight}"
    );
    assert!(total_reports > 0, "the programs must race somewhere");
}

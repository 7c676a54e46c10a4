//! Edge cases of the per-tag DMA bookkeeping.
//!
//! The engine's in-flight ledger is a pending count and a latest
//! completion per tag, and a wait retires whole tag groups from the race
//! checker; these tests pin down the behaviours that representation
//! must preserve from the seed's flat list: empty-group waits are free,
//! tags are fully reusable after retirement, retirement order does not
//! confuse the race checker, and overlap reports survive the
//! reorganisation. The synchronous entry point is pinned against the
//! issue-then-wait sequence it fuses.

use dma::{DmaDirection, DmaEngine, DmaRequest, DmaStats, RaceKind, RaceReport, Tag, TagMask};
use memspace::{Addr, MemoryRegion, SpaceId, SpaceKind};

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

fn local(off: u32) -> Addr {
    Addr::new(SpaceId::local_store(0), off)
}

fn remote(off: u32) -> Addr {
    Addr::new(SpaceId::MAIN, off)
}

#[test]
fn wait_on_empty_tag_group_returns_now_with_zero_stall() {
    let (_, _, mut engine) = setup();
    // Nothing in flight anywhere: every mask is a no-op wait.
    assert_eq!(engine.wait(tag(0).mask(), 77), 77);
    assert_eq!(engine.wait(TagMask::ALL, 1234), 1234);
    assert_eq!(engine.wait(TagMask::from_bits(0), 99), 99);
    assert_eq!(engine.stats().stall_cycles, 0);
    assert_eq!(engine.inflight_len(), 0);
}

#[test]
fn wait_on_idle_tag_ignores_other_tags_in_flight() {
    let (mut main, mut ls, mut engine) = setup();
    engine
        .get(
            0,
            local(0x100),
            remote(0x1000),
            64,
            tag(3),
            &mut main,
            &mut ls,
        )
        .unwrap();
    // Tag 5's group is empty: waiting on it must not block on tag 3.
    assert_eq!(engine.wait(tag(5).mask(), 10), 10);
    assert_eq!(engine.stats().stall_cycles, 0);
    assert!(engine.tag_busy(tag(3)));
    assert_eq!(engine.inflight_len(), 1);
}

#[test]
fn tag_is_fully_reusable_after_retirement() {
    let (mut main, mut ls, mut engine) = setup();
    let t = tag(7);
    let mut now = 0;
    for round in 0..50u32 {
        now = engine
            .get(
                now,
                local(0x100),
                remote(0x1000),
                128,
                t,
                &mut main,
                &mut ls,
            )
            .unwrap();
        now = engine.wait(t.mask(), now);
        assert!(!engine.tag_busy(t), "round {round}: tag drained");
        assert_eq!(engine.inflight_len(), 0, "round {round}: ledger empty");
    }
    assert_eq!(engine.stats().gets, 50);
    assert_eq!(engine.race_checker().detected(), 0);
}

#[test]
fn wait_returns_latest_completion_in_the_group() {
    let (mut main, mut ls, mut engine) = setup();
    let t = tag(2);
    // Two commands on the same tag: the engine streams them serially,
    // so the second completes strictly later than the first.
    engine
        .get(0, local(0x100), remote(0x1000), 4096, t, &mut main, &mut ls)
        .unwrap();
    engine
        .get(
            0,
            local(0x2100),
            remote(0x3000),
            4096,
            t,
            &mut main,
            &mut ls,
        )
        .unwrap();
    let one_cmd = {
        let (mut main2, mut ls2, mut engine2) = setup();
        engine2
            .get(
                0,
                local(0x100),
                remote(0x1000),
                4096,
                t,
                &mut main2,
                &mut ls2,
            )
            .unwrap();
        engine2.wait(t.mask(), 0)
    };
    let both = engine.wait(t.mask(), 0);
    assert!(
        both > one_cmd,
        "group wait covers the serially-later command: {both} vs {one_cmd}"
    );
    assert_eq!(engine.inflight_len(), 0);
}

#[test]
fn mixed_tag_retirement_keeps_counts_consistent() {
    let (mut main, mut ls, mut engine) = setup();
    // Interleave commands across four tags, then retire them in an
    // order unrelated to issue order.
    for i in 0..12u32 {
        let t = tag((i % 4) as u8);
        engine
            .get(
                0,
                local(0x100 + i * 0x200),
                remote(0x1000 + i * 0x200),
                64,
                t,
                &mut main,
                &mut ls,
            )
            .unwrap();
    }
    assert_eq!(engine.inflight_len(), 12);
    engine.wait(tag(2).mask(), 0);
    assert_eq!(engine.inflight_len(), 9);
    assert!(!engine.tag_busy(tag(2)));
    assert!(engine.tag_busy(tag(0)));
    engine.wait(tag(0).mask().union(tag(3).mask()), 0);
    assert_eq!(engine.inflight_len(), 3);
    assert!(engine.tag_busy(tag(1)));
    engine.wait_all(0);
    assert_eq!(engine.inflight_len(), 0);
    assert_eq!(engine.race_checker().detected(), 0);
}

#[test]
fn overlapping_puts_still_report_a_remote_race() {
    let (mut main, mut ls, mut engine) = setup();
    // Two un-waited puts writing overlapping remote bytes: a write/write
    // transfer overlap on the remote side.
    engine
        .put(
            0,
            local(0x100),
            remote(0x1000),
            256,
            tag(1),
            &mut main,
            &mut ls,
        )
        .unwrap();
    engine
        .put(
            0,
            local(0x800),
            remote(0x1080),
            256,
            tag(2),
            &mut main,
            &mut ls,
        )
        .unwrap();
    assert_eq!(engine.race_checker().detected(), 1);
    let reports = engine.take_race_reports();
    assert_eq!(reports.len(), 1);
    match reports[0].kind {
        RaceKind::TransferOverlap {
            first,
            second,
            in_local_store,
        } => {
            assert!(first < second, "ids are issue-ordered");
            assert!(!in_local_store, "the overlap is in remote memory");
        }
        other => panic!("expected TransferOverlap, got {other:?}"),
    }
}

#[test]
fn waited_put_does_not_race_with_a_later_overlapping_put() {
    let (mut main, mut ls, mut engine) = setup();
    let mut now = 0;
    now = engine
        .put(
            now,
            local(0x100),
            remote(0x1000),
            256,
            tag(1),
            &mut main,
            &mut ls,
        )
        .unwrap();
    now = engine.wait(tag(1).mask(), now);
    // The first put retired; the same remote range is free to reuse.
    engine
        .put(
            now,
            local(0x800),
            remote(0x1080),
            256,
            tag(2),
            &mut main,
            &mut ls,
        )
        .unwrap();
    assert_eq!(engine.race_checker().detected(), 0);
}

/// Everything a caller can observe after one transfer: the resume
/// cycle, the engine's statistics and last completion, its race
/// reports and the cycle a later full barrier resumes at — plus, kept
/// apart so a mismatch report stays short, both memories' bytes.
type Observed = ((u64, DmaStats, u64, Vec<RaceReport>, u64), Vec<u8>);

/// Issues `r` on the queued path (`get` or `put`, by its direction)
/// and returns the cycle the issuing core resumes at.
fn issue(
    engine: &mut DmaEngine,
    now: u64,
    r: DmaRequest,
    main: &mut MemoryRegion,
    ls: &mut MemoryRegion,
) -> u64 {
    let queued = match r.direction {
        DmaDirection::Get => DmaEngine::get,
        DmaDirection::Put => DmaEngine::put,
    };
    queued(engine, now, r.local, r.remote, r.size, r.tag, main, ls).unwrap()
}

/// Runs `request` at cycle 10 — through `sync` when `fused`, otherwise
/// issued and then waited on its tag's mask — after an optional
/// `background` transfer issued at cycle 0 and left in flight.
fn observe(request: DmaRequest, background: Option<DmaRequest>, fused: bool) -> Observed {
    let (mut main, mut ls, mut engine) = setup();
    let pattern: Vec<u8> = (0..=255).collect();
    main.write_bytes(remote(0x1000), &pattern).unwrap();
    ls.write_bytes(local(0x100), &pattern).unwrap();
    if let Some(bg) = background {
        issue(&mut engine, 0, bg, &mut main, &mut ls);
    }
    let resume = if fused {
        engine.sync(10, request, &mut main, &mut ls).unwrap()
    } else {
        let issued = issue(&mut engine, 10, request, &mut main, &mut ls);
        engine.wait(request.tag.mask(), issued)
    };
    let (stats, last) = (engine.stats(), engine.last_complete_at());
    let reports = engine.take_race_reports();
    let barrier = engine.wait(TagMask::ALL, resume);
    let mut memory = main.read_bytes(remote(0x1000), 0x2000).unwrap().to_vec();
    memory.extend_from_slice(ls.read_bytes(local(0x100), 0x400).unwrap());
    ((resume, stats, last, reports, barrier), memory)
}

#[test]
fn sync_equals_issue_then_wait_on_the_tag() {
    let request = |direction, local_off, remote_off, size, raw| DmaRequest {
        local: local(local_off),
        remote: remote(remote_off),
        size,
        tag: tag(raw),
        direction,
    };
    // Another tag's get still in flight over the same local bytes, so
    // the sync transfer races with it and stalls behind it.
    let in_flight = request(DmaDirection::Get, 0x100, 0x1800, 512, 5);
    let mut raced = 0;
    for direction in [DmaDirection::Get, DmaDirection::Put] {
        for (local_off, remote_off, size) in [(0x100, 0x1000, 128), (0x103, 0x1009, 37)] {
            for background in [None, Some(in_flight)] {
                let req = request(direction, local_off, remote_off, size, 27);
                let case = format!("{direction} of {size} B at ls+{local_off:#x}, {background:?}");
                let (fused, fused_memory) = observe(req, background, true);
                let (split, split_memory) = observe(req, background, false);
                assert_eq!(fused, split, "{case}");
                assert!(fused_memory == split_memory, "{case}: memories differ");
                raced += fused.3.len();
                assert_eq!(fused.1.misaligned, u64::from(size == 37));
            }
        }
    }
    assert!(raced >= 4, "every case with a transfer in flight races");
}

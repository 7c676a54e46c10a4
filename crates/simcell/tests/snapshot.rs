//! What the run digest must notice, and what a snapshot diff must name.
//!
//! `memory_hash` and `world_hash` are the only checks many callers make
//! between two runs, so a difference they miss is a divergence nobody
//! sees. The digest reads little-endian words with a zero-padded tail
//! and a length finaliser; the cases below target exactly the bytes a
//! careless word digest drops: the first byte, a byte in the extent's
//! final partial 32-byte block, the last byte, and one extra zero byte
//! at the end. When two runs do differ, [`Snapshot::diff`] must say
//! where: the first differing event, a named counter, or the chunk of
//! memory.

use memspace::Addr;
use simcell::snapshot::CHUNK;
use simcell::{Divergence, EventKind, Machine, MachineConfig, SimError, Snapshot};
use xrng::Rng;

/// A machine holding a few seeded allocations of odd sizes, whose
/// extent ends inside a 32-byte block.
fn seeded_machine(rng: &mut Rng) -> Machine {
    let mut m = Machine::new(MachineConfig::small()).expect("config valid");
    loop {
        for _ in 0..rng.range_u32(2, 6) {
            let size = 2 * rng.range_u32(0, 700) + 1;
            let align = 1 << rng.below_u32(5);
            let addr = m.alloc_main(size, align).expect("fits");
            let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
            m.main_mut().write_bytes(addr, &bytes).expect("in bounds");
        }
        if !extent(&m).is_multiple_of(32) {
            return m;
        }
    }
}

/// Bytes of main memory allocated so far.
fn extent(m: &Machine) -> u32 {
    m.main().capacity() - m.main().bytes_free()
}

fn flip(m: &mut Machine, at: u32) {
    let addr = Addr::new(memspace::SpaceId::MAIN, at);
    let byte: u8 = m.main().read_pod(addr).expect("in the extent");
    m.main_mut()
        .write_pod(addr, &(byte ^ 0x01))
        .expect("in the extent");
}

#[test]
fn the_digest_notices_every_byte_and_the_length() {
    let mut rng = Rng::new(0x00D1_6E57);
    for case in 0..16 {
        let mut m = seeded_machine(&mut rng);
        m.host_compute(u64::from(rng.next_u32()));
        let (world, memory, before) = (m.world_hash(), m.memory_hash(), m.memory_snapshot());
        assert_eq!(world, m.snapshot().world_hash(), "case {case}: world view");
        assert_eq!(memory, before.hash(), "case {case}: memory view");
        let len = extent(&m);
        let partial = len - len % 32 + rng.below_u32(len % 32);
        let random = rng.below_u32(len);
        for at in [0, partial, len - 1, random] {
            flip(&mut m, at);
            assert_ne!(m.memory_hash(), memory, "case {case}: byte {at} of {len}");
            assert_ne!(m.world_hash(), world, "case {case}: byte {at} of {len}");
            match before.diff(&m.memory_snapshot()) {
                Err(Divergence::Memory { bytes }) => {
                    assert!(bytes.contains(&at), "case {case}: {at} not in {bytes:?}");
                    assert_eq!(bytes.start, at / CHUNK * CHUNK, "case {case}");
                }
                other => panic!("case {case}: byte {at}: {other:?}"),
            }
            flip(&mut m, at);
            assert_eq!(m.world_hash(), world, "case {case}: flipped back");
        }

        m.alloc_main(1, 1).expect("one more byte fits");
        assert_ne!(m.memory_hash(), memory, "case {case}: one zero byte more");
        assert_ne!(m.world_hash(), world, "case {case}: one zero byte more");
    }
}

#[test]
fn clocks_move_the_world_hash_but_not_the_memory_hash() {
    let mut rng = Rng::new(0xC10C);
    let mut m = seeded_machine(&mut rng);
    let (world, memory) = (m.world_hash(), m.memory_hash());
    m.host_compute(1);
    assert_ne!(m.world_hash(), world, "host clock");
    assert_eq!(m.memory_hash(), memory, "host clock");

    // Two runs whose host clocks meet at the join, but whose
    // accelerator worked one cycle longer in the second.
    let busy_run = |extra: u64| {
        let mut m = seeded_machine(&mut Rng::new(0xB05E));
        let handle = m
            .offload(0)
            .spawn(|ctx| ctx.compute(100 + extra))
            .expect("accel 0 exists");
        m.host_compute(10_000);
        m.join(handle);
        m
    };
    let (a, b) = (busy_run(0), busy_run(1));
    assert_eq!(a.host_now(), b.host_now());
    assert_ne!(a.world_hash(), b.world_hash(), "busy cycles");
    assert_eq!(a.memory_hash(), b.memory_hash(), "busy cycles");
    let divergence = a.snapshot().diff(&b.snapshot()).expect_err("busy cycles");
    assert_eq!(divergence.to_string(), "accel 0 busy cycles: 100 vs 101");
}

/// One kernel with the event log on; `slip` adds one cycle between its
/// two outer accesses.
fn kernel_run(slip: bool) -> Snapshot {
    let mut m = Machine::new(MachineConfig::small()).expect("config valid");
    m.events_mut().set_enabled(true);
    let data = m.alloc_main_slice::<u32>(16).expect("fits");
    m.host_write_slice(data, &[7u32; 16]).expect("in bounds");
    m.offload(0)
        .label("slip")
        .run(|ctx| -> Result<(), SimError> {
            let v: u32 = ctx.outer_read_pod(data)?;
            if slip {
                ctx.compute(1);
            }
            ctx.outer_write_pod(data.offset_by(4)?, &(v + 1))
        })
        .expect("accel 0 exists")
        .expect("the kernel runs");
    m.snapshot()
}

#[test]
fn a_one_cycle_slip_names_its_first_event() {
    let divergence = kernel_run(false)
        .diff(&kernel_run(true))
        .expect_err("the slip shows");
    let Divergence::Event {
        index,
        left: Some(left),
        right: Some(right),
    } = &divergence
    else {
        panic!("expected an event, got {divergence}");
    };
    // The put after the slip: issued, and so completed, one cycle later.
    assert!(matches!(left.kind, EventKind::DmaIssue { .. }), "{left}");
    assert_eq!(left.at + 1, right.at);
    let shown = divergence.to_string();
    assert!(
        shown.starts_with(&format!("event #{index} differs")),
        "{shown}"
    );
    assert!(shown.contains(&left.to_string()), "{shown}");
    assert!(shown.contains(&right.to_string()), "{shown}");
}

#[test]
fn a_one_byte_write_names_its_chunk() {
    let run = |value: u64| {
        let mut m = Machine::new(MachineConfig::small()).expect("config valid");
        m.alloc_main(3 * CHUNK + 40, 16).expect("fits");
        let slot = m.alloc_main_pod::<u64>().expect("fits");
        m.alloc_main(CHUNK, 16).expect("fits");
        m.host_write_pod(slot, &value).expect("in bounds");
        (m.snapshot(), slot.offset())
    };
    let (left, at) = run(0x0102_0304_0506_0708);
    let (right, _) = run(0x0102_0304_0506_07FF);
    let divergence = left.diff(&right).expect_err("one byte differs");
    let start = at / CHUNK * CHUNK;
    assert_eq!(
        divergence,
        Divergence::Memory {
            bytes: start..start + CHUNK
        }
    );
    assert_eq!(
        divergence.to_string(),
        format!(
            "main memory differs in bytes {start}..{} (chunk {})",
            start + CHUNK,
            start / CHUNK
        )
    );
}

#[test]
fn a_counter_difference_is_named() {
    let run = || {
        let mut m = Machine::new(MachineConfig::small()).expect("config valid");
        m.offload(0).run(|ctx| ctx.compute(10)).expect("accel 0");
        m
    };
    let (a, mut b) = (run(), run());
    a.snapshot().diff(&b.snapshot()).expect("identical runs");
    b.reset_stats();
    let divergence = a.snapshot().diff(&b.snapshot()).expect_err("stats differ");
    assert_eq!(divergence.to_string(), "stats.offloads: 1 vs 0");
}

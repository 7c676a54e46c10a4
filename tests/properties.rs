//! Property-style tests over the workspace's core invariants.
//!
//! Each test drives its oracle with a few hundred cases drawn from the
//! in-repo seeded [`xrng`] generator instead of an external property
//! testing framework: the workspace must build and test with no network
//! access, and deterministic cases make failures trivially repeatable
//! (the failing seed is the constant in the test).

use offload_repro::dma::{DmaEngine, Tag};
use offload_repro::memspace::{align_up, Addr, AddrRange, MemoryRegion, Pod, SpaceId, SpaceKind};
use offload_repro::simcell::{LaunchSettings, Machine, MachineConfig, SimError};
use offload_repro::softcache::{
    CacheBacking, CacheConfig, SetAssociativeCache, SoftwareCache, WritePolicy,
};
use xrng::Rng;

// ---------------------------------------------------------------- memspace

#[test]
fn align_up_is_idempotent_and_minimal() {
    let mut rng = Rng::new(0xA11);
    for _ in 0..2000 {
        let offset = rng.below_u32(1_000_000);
        let align = rng.range_u32(1, 512);
        let aligned = align_up(offset, align);
        assert!(aligned >= offset);
        assert!(aligned - offset < align);
        assert_eq!(aligned % align, 0);
        assert_eq!(align_up(aligned, align), aligned);
    }
}

#[test]
fn pod_scalars_roundtrip() {
    let mut rng = Rng::new(0x50d);
    for _ in 0..2000 {
        let v_u32 = rng.next_u32();
        let v_i64 = rng.next_u64() as i64;
        let v_f32 = f32::from_bits(rng.next_u32());
        let v_bool = rng.next_u32() & 1 == 1;
        let mut buf = [0u8; 8];
        v_u32.write_to(&mut buf);
        assert_eq!(u32::read_from(&buf), v_u32);
        v_i64.write_to(&mut buf);
        assert_eq!(i64::read_from(&buf), v_i64);
        v_f32.write_to(&mut buf);
        assert_eq!(f32::read_from(&buf).to_bits(), v_f32.to_bits());
        v_bool.write_to(&mut buf);
        assert_eq!(bool::read_from(&buf), v_bool);
    }
}

#[test]
fn region_write_then_read_returns_written_bytes() {
    let mut rng = Rng::new(0x12E6);
    for _ in 0..500 {
        let offset = rng.below_u32(3_900);
        let len = rng.range_u32(1, 128) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let mut region = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 4096);
        region
            .write_bytes(Addr::new(SpaceId::MAIN, offset), &data)
            .unwrap();
        let back = region
            .read_bytes(Addr::new(SpaceId::MAIN, offset), data.len() as u32)
            .unwrap();
        assert_eq!(back, &data[..]);
    }
}

#[test]
fn range_overlap_is_symmetric_and_matches_brute_force() {
    let mut rng = Rng::new(0x0E7A);
    for _ in 0..2000 {
        let a_start = rng.below_u32(1000);
        let a_len = rng.below_u32(100);
        let b_start = rng.below_u32(1000);
        let b_len = rng.below_u32(100);
        let a = AddrRange::new(Addr::new(SpaceId::MAIN, a_start), a_len).unwrap();
        let b = AddrRange::new(Addr::new(SpaceId::MAIN, b_start), b_len).unwrap();
        assert_eq!(a.overlaps(b), b.overlaps(a));
        let brute = (a_start..a_start + a_len).any(|x| (b_start..b_start + b_len).contains(&x));
        assert_eq!(a.overlaps(b), brute);
    }
}

#[test]
fn bump_allocator_never_hands_out_overlapping_blocks() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..200 {
        let mut region = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64 * 1024);
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        let count = rng.range_u32(1, 20);
        for _ in 0..count {
            let size = rng.range_u32(1, 256);
            let align = [1u32, 4, 16][rng.below_u32(3) as usize];
            if let Ok(addr) = region.alloc(size, align) {
                assert!(addr.is_aligned_to(align));
                for &(start, len) in &blocks {
                    let disjoint = addr.offset() + size <= start || start + len <= addr.offset();
                    assert!(disjoint, "blocks overlap");
                }
                blocks.push((addr.offset(), size));
            }
        }
    }
}

// ------------------------------------------------------------------- dma

#[test]
fn dma_wait_time_is_monotone_and_transfers_are_faithful() {
    let mut rng = Rng::new(0xD3A);
    for _ in 0..100 {
        let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64 * 1024);
        let mut ls = MemoryRegion::new(
            SpaceId::local_store(0),
            SpaceKind::LocalStore { accel: 0 },
            64 * 1024,
        );
        let mut engine = DmaEngine::new(SpaceId::local_store(0));
        let tag = Tag::new(0).unwrap();
        let mut now = 0u64;
        let mut remote_off = 16u32;
        let transfers = rng.range_u32(1, 12);
        for i in 0..transfers {
            let size = rng.range_u32(16, 2048) & !15; // keep transfers aligned
            if size == 0 || remote_off + size > 60 * 1024 {
                continue;
            }
            let pattern = (i as u8).wrapping_add(1);
            let remote = Addr::new(SpaceId::MAIN, remote_off);
            main.fill(remote, size, pattern).unwrap();
            let local = Addr::new(SpaceId::local_store(0), 1024);
            let after_issue = engine
                .get(now, local, remote, size, tag, &mut main, &mut ls)
                .unwrap();
            assert!(after_issue >= now);
            let done = engine.wait(tag.mask(), after_issue);
            assert!(done >= after_issue);
            let bytes = ls.read_bytes(local, size).unwrap();
            assert!(bytes.iter().all(|&b| b == pattern));
            now = done;
            remote_off += size;
        }
        assert_eq!(engine.race_checker().detected(), 0);
    }
}

// -------------------------------------------------------------- softcache

/// Cache operations for the oracle tests.
#[derive(Clone, Debug)]
enum CacheOp {
    Read { offset: u32, len: u8 },
    Write { offset: u32, value: u8, len: u8 },
    Flush,
}

fn random_op(rng: &mut Rng) -> CacheOp {
    match rng.below_u32(3) {
        0 => CacheOp::Read {
            offset: rng.below_u32(4000),
            len: rng.range_u32(1, 16) as u8,
        },
        1 => CacheOp::Write {
            offset: rng.below_u32(4000),
            value: rng.next_u32() as u8,
            len: rng.range_u32(1, 16) as u8,
        },
        _ => CacheOp::Flush,
    }
}

fn random_ops(rng: &mut Rng, max: u32) -> Vec<CacheOp> {
    let count = rng.range_u32(1, max);
    (0..count).map(|_| random_op(rng)).collect()
}

/// Runs a random operation sequence through a software cache and a
/// plain mirror array; after a final flush, simulated main memory must
/// equal the mirror, and every read must have returned mirror contents.
fn cache_oracle(config: CacheConfig, ops: Vec<CacheOp>) {
    let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 4096);
    let mut ls = MemoryRegion::new(
        SpaceId::local_store(0),
        SpaceKind::LocalStore { accel: 0 },
        256 * 1024,
    );
    let mut engine = DmaEngine::new(SpaceId::local_store(0));
    let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut ls).unwrap();
    let mut mirror = vec![0u8; 4096];
    let mut now = 0u64;

    for op in ops {
        let mut backing = CacheBacking {
            main: &mut main,
            ls: &mut ls,
            dma: &mut engine,
        };
        match op {
            CacheOp::Read { offset, len } => {
                let len = len as usize;
                if offset as usize + len > 4096 {
                    continue;
                }
                let mut buf = vec![0u8; len];
                now = cache
                    .read(
                        now,
                        Addr::new(SpaceId::MAIN, offset),
                        &mut buf,
                        &mut backing,
                    )
                    .unwrap();
                assert_eq!(&buf[..], &mirror[offset as usize..offset as usize + len]);
            }
            CacheOp::Write { offset, value, len } => {
                let len = len as usize;
                if offset as usize + len > 4096 {
                    continue;
                }
                let data = vec![value; len];
                now = cache
                    .write(now, Addr::new(SpaceId::MAIN, offset), &data, &mut backing)
                    .unwrap();
                mirror[offset as usize..offset as usize + len].fill(value);
            }
            CacheOp::Flush => {
                now = cache.flush(now, &mut backing).unwrap();
            }
        }
    }
    let mut backing = CacheBacking {
        main: &mut main,
        ls: &mut ls,
        dma: &mut engine,
    };
    cache.flush(now, &mut backing).unwrap();
    let stored = main
        .read_bytes(Addr::new(SpaceId::MAIN, 0), 4096)
        .unwrap()
        .to_vec();
    assert_eq!(stored, mirror);
    assert_eq!(engine.race_checker().detected(), 0);
}

#[test]
fn write_back_cache_is_a_transparent_memory() {
    let mut rng = Rng::new(0xCACE);
    for _ in 0..64 {
        cache_oracle(CacheConfig::new(64, 8, 2), random_ops(&mut rng, 60));
    }
}

#[test]
fn write_through_cache_is_a_transparent_memory() {
    let mut rng = Rng::new(0x77CE);
    for _ in 0..64 {
        cache_oracle(
            CacheConfig::new(32, 4, 1).write_policy(WritePolicy::WriteThrough),
            random_ops(&mut rng, 60),
        );
    }
}

// ------------------------------------------------------------- offload-rt

#[test]
fn chunked_and_streamed_processing_agree() {
    use offload_repro::offload_rt::{process_chunked, process_stream, StreamConfig};

    let mut rng = Rng::new(0x57E4);
    for _ in 0..32 {
        let len = rng.range_u32(1, 600);
        let chunk = rng.range_u32(1, 128);
        let seed = rng.next_u32();

        let build = || {
            let mut machine = Machine::new(MachineConfig::small()).unwrap();
            let remote = machine.alloc_main_slice::<u32>(len).unwrap();
            let values: Vec<u32> = (0..len).map(|i| i.wrapping_mul(seed)).collect();
            machine.main_mut().write_pod_slice(remote, &values).unwrap();
            (machine, remote)
        };
        let config = StreamConfig {
            chunk_elems: chunk,
            write_back: true,
        };
        let work = |_: &mut offload_repro::simcell::AccelCtx<'_>, base: u32, data: &mut [u32]| {
            for (i, v) in data.iter_mut().enumerate() {
                *v = v.wrapping_add(base + i as u32);
            }
            Ok::<(), SimError>(())
        };

        let (mut m1, r1) = build();
        m1.offload(0)
            .run(|ctx| process_chunked::<u32, _>(ctx, r1, len, config, work))
            .unwrap()
            .unwrap();
        let chunked = m1.main().read_pod_slice::<u32>(r1, len).unwrap();

        let (mut m2, r2) = build();
        m2.offload(0)
            .run(|ctx| process_stream::<u32, _>(ctx, r2, len, config, work))
            .unwrap()
            .unwrap();
        let streamed = m2.main().read_pod_slice::<u32>(r2, len).unwrap();

        assert_eq!(chunked, streamed);
        assert_eq!(m2.races_detected(), 0);
    }
}

// ----------------------------------------------------------------- fault

/// One traced recovering frame: the Chrome trace JSON (fault schedule
/// and recovery instants included), the final world, and the report's
/// (cycles, faults) pair — everything the determinism property pins.
fn recovering_run(
    seed: u64,
    rate: f32,
    policy: offload_repro::offload_rt::sched::SchedPolicy,
) -> (String, Vec<offload_repro::gamekit::GameEntity>, u64, u64) {
    use offload_repro::gamekit::{ai_frame_sched_recovering, AiConfig, EntityArray, WorldGen};
    use offload_repro::simcell::{chrome_trace_json, FaultPlan};

    let n = 256;
    let config = AiConfig::default();
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    machine.events_mut().set_enabled(true);
    let entities = EntityArray::alloc(&mut machine, n).unwrap();
    let mut gen = WorldGen::new(0xF0_0D);
    gen.populate(&mut machine, &entities, 70.0).unwrap();
    let table = gen
        .candidate_table(&mut machine, n, config.candidates)
        .unwrap();
    let report = ai_frame_sched_recovering(
        &mut machine,
        &entities,
        table,
        &config,
        4,
        8,
        policy,
        FaultPlan::uniform(seed, rate),
        3,
        1_000,
    )
    .unwrap();
    assert_eq!(machine.races_detected(), 0);
    let world = entities.snapshot(&machine).unwrap();
    let trace = chrome_trace_json(machine.events());
    (trace, world, report.cycles, report.faults)
}

/// The tentpole determinism property: an identical `FaultPlan` seed
/// produces a bit-identical fault schedule, recovery trace, and final
/// world state — across random seeds, rates, and all three scheduler
/// policies.
#[test]
fn identical_fault_seeds_reproduce_schedule_trace_and_world_bit_identically() {
    use offload_repro::offload_rt::sched::SchedPolicy;

    let mut rng = Rng::new(0xFA_17);
    let mut injected_somewhere = false;
    for case in 0..12 {
        let seed = rng.next_u64();
        let rate = rng.range_u32(1, 11) as f32 / 100.0;
        let policy = [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ][rng.below_u32(3) as usize];
        let a = recovering_run(seed, rate, policy);
        let b = recovering_run(seed, rate, policy);
        assert_eq!(a.0, b.0, "case {case}: trace JSON diverged");
        assert_eq!(a.1, b.1, "case {case}: world diverged");
        assert_eq!(a.2, b.2, "case {case}: cycles diverged");
        assert_eq!(a.3, b.3, "case {case}: fault counts diverged");
        injected_somewhere |= a.3 > 0;
    }
    assert!(
        injected_somewhere,
        "twelve random plans must inject at least once"
    );
}

/// Different seeds at the same rate must not replay the same schedule —
/// the plan's RNG stream, not the rate, decides where faults land.
#[test]
fn different_fault_seeds_produce_different_schedules() {
    use offload_repro::offload_rt::sched::SchedPolicy;

    let a = recovering_run(0xA, 0.05, SchedPolicy::WorkStealing);
    let b = recovering_run(0xB, 0.05, SchedPolicy::WorkStealing);
    assert_ne!(a.0, b.0, "seeds 0xA and 0xB replayed the same trace");
    // Both recover to the same world regardless of where faults landed.
    assert_eq!(a.1, b.1);
}

/// DMA edge case: a tag timeout with commands genuinely in flight
/// stalls the clock and leaves a sticky fault, but the transfer's bytes
/// still land — the timeout models a late completion, not a lost one.
#[test]
fn tag_timeout_on_an_in_flight_tag_is_sticky_and_loses_no_data() {
    use offload_repro::dma::Tag;
    use offload_repro::simcell::{FaultError, FaultPlan};

    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let remote = machine.alloc_main_slice::<u32>(64).unwrap();
    let values: Vec<u32> = (0..64).map(|i| i * 3 + 7).collect();
    machine.main_mut().write_pod_slice(remote, &values).unwrap();
    let expected = values.clone();
    machine
        .offload(0)
        .faults(FaultPlan::new(1).with_tag_timeout(1.0))
        .run(move |ctx| -> Result<(), SimError> {
            let local = ctx.alloc_local(256, 16)?;
            let tag = Tag::new(2).unwrap();
            ctx.dma_get(local, remote, 256, tag)?;
            let before = ctx.now();
            ctx.dma_wait_tag(tag);
            assert!(ctx.now() > before, "a hit timeout must stall the clock");
            // The sticky fault surfaces on the next fallible operation…
            let err = ctx.check_faults().unwrap_err();
            assert!(matches!(
                err,
                SimError::Fault(FaultError::TagTimeout { accel: 0, .. })
            ));
            // …then clears, and the data arrived intact anyway.
            assert!(ctx.take_fault().is_none());
            ctx.check_faults()?;
            let got = ctx.local_read_slice::<u32>(local, 64)?;
            assert_eq!(got, expected);
            Ok(())
        })
        .unwrap()
        .unwrap();
    assert_eq!(machine.races_detected(), 0);
    assert!(machine.stats().faults_injected >= 1);
}

/// DMA edge case: a transfer fault on one tag while another tag's
/// transfer is in flight neither damages the clean tag's data nor
/// confuses the race checker — the faulted command still completes and
/// retires like any other.
#[test]
fn transfer_fault_beside_an_in_flight_tag_leaves_the_clean_tag_intact() {
    use offload_repro::dma::Tag;
    use offload_repro::simcell::{FaultError, FaultPlan};

    // Seed 0 makes the plan's first per-transfer roll miss and the
    // second hit at rate 0.5: tag 1's get is clean, tag 2's corrupts.
    let seed = 0;
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let remote = machine.alloc_main_slice::<u32>(128).unwrap();
    let values: Vec<u32> = (0..128).map(|i| i ^ 0x5a5a).collect();
    machine.main_mut().write_pod_slice(remote, &values).unwrap();
    let clean_half = values[..64].to_vec();
    machine
        .offload(0)
        .faults(FaultPlan::new(seed).with_dma_corrupt(0.5))
        .run(move |ctx| -> Result<(), SimError> {
            let a = ctx.alloc_local(256, 16)?;
            let b = ctx.alloc_local(256, 16)?;
            ctx.dma_get(a, remote, 256, Tag::new(1).unwrap())?;
            // Tag 1 is still in flight when tag 2's transfer faults.
            let err = ctx
                .dma_get(b, remote.offset_by(256)?, 256, Tag::new(2).unwrap())
                .unwrap_err();
            assert!(matches!(
                err,
                SimError::Fault(FaultError::DmaCorrupted {
                    accel: 0,
                    tag: 2,
                    ..
                })
            ));
            ctx.dma_wait_all();
            ctx.take_fault();
            let got = ctx.local_read_slice::<u32>(a, 64)?;
            assert_eq!(got, clean_half, "the clean tag's bytes must land intact");
            Ok(())
        })
        .unwrap()
        .unwrap();
    assert_eq!(machine.races_detected(), 0);
}

// ------------------------------------------------------------ offload-lang

#[test]
fn compiled_arithmetic_matches_rust_semantics() {
    use offload_repro::offload_lang::{compile, Target, Vm};

    let mut rng = Rng::new(0xA417);
    for _ in 0..48 {
        let a = rng.below_u32(2000) as i32 - 1000;
        let b = rng.below_u32(2000) as i32 - 1000;
        let c = rng.range_u32(1, 50) as i32;
        let source =
            format!("fn main() -> int {{ return ({a} + {b}) * 3 - {a} / {c} + {b} % {c}; }}");
        let expected = (a + b) * 3 - a / c + b % c;
        let program = compile(&source, &Target::cell_like()).unwrap();
        let mut machine = Machine::new(MachineConfig::small()).unwrap();
        let mut vm = Vm::new(&program, &mut machine).unwrap();
        assert_eq!(vm.run(&mut machine).unwrap(), expected);
    }
}

#[test]
fn offloaded_and_host_loops_compute_identically() {
    use offload_repro::offload_lang::{compile, Target, Vm};

    let mut rng = Rng::new(0x100F);
    for _ in 0..24 {
        let n = rng.range_u32(1, 64);
        let mult = rng.range_u32(1, 9) as i32;
        let host_src = format!(
            r#"
            var acc: int;
            fn main() -> int {{
                let i: int = 0;
                while i < {n} {{ acc = acc + i * {mult}; i = i + 1; }}
                return acc;
            }}
            "#
        );
        let offl_src = format!(
            r#"
            var acc: int;
            fn main() -> int {{
                offload {{
                    let i: int = 0;
                    let local_acc: int = 0;
                    while i < {n} {{ local_acc = local_acc + i * {mult}; i = i + 1; }}
                    acc = local_acc;
                }}
                return acc;
            }}
            "#
        );
        let target = Target::cell_like();
        let run = |src: &str| {
            let program = compile(src, &target).unwrap();
            let mut machine = Machine::new(MachineConfig::small()).unwrap();
            let mut vm = Vm::new(&program, &mut machine).unwrap();
            vm.run(&mut machine).unwrap()
        };
        assert_eq!(run(&host_src), run(&offl_src));
    }
}

/// Oracle test for the streaming cache: any mix of reads and (uncached,
/// synchronous) writes behaves like plain memory.
fn stream_oracle(ops: Vec<CacheOp>) {
    use offload_repro::softcache::StreamCache;

    let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 4096);
    let mut ls = MemoryRegion::new(
        SpaceId::local_store(0),
        SpaceKind::LocalStore { accel: 0 },
        256 * 1024,
    );
    let mut engine = DmaEngine::new(SpaceId::local_store(0));
    let mut cache = StreamCache::new(CacheConfig::new(256, 1, 1), SpaceId::MAIN, &mut ls).unwrap();
    let mut mirror = vec![0u8; 4096];
    let mut now = 0u64;

    for op in ops {
        let mut backing = CacheBacking {
            main: &mut main,
            ls: &mut ls,
            dma: &mut engine,
        };
        match op {
            CacheOp::Read { offset, len } => {
                let len = len as usize;
                if offset as usize + len > 4096 {
                    continue;
                }
                let mut buf = vec![0u8; len];
                now = cache
                    .read(
                        now,
                        Addr::new(SpaceId::MAIN, offset),
                        &mut buf,
                        &mut backing,
                    )
                    .unwrap();
                assert_eq!(&buf[..], &mirror[offset as usize..offset as usize + len]);
            }
            CacheOp::Write { offset, value, len } => {
                let len = len as usize;
                if offset as usize + len > 4096 {
                    continue;
                }
                let data = vec![value; len];
                now = cache
                    .write(now, Addr::new(SpaceId::MAIN, offset), &data, &mut backing)
                    .unwrap();
                mirror[offset as usize..offset as usize + len].fill(value);
            }
            CacheOp::Flush => {
                now = cache.flush(now, &mut backing).unwrap();
            }
        }
    }
    let mut backing = CacheBacking {
        main: &mut main,
        ls: &mut ls,
        dma: &mut engine,
    };
    cache.flush(now, &mut backing).unwrap();
    let stored = main
        .read_bytes(Addr::new(SpaceId::MAIN, 0), 4096)
        .unwrap()
        .to_vec();
    assert_eq!(stored, mirror);
    assert_eq!(engine.race_checker().detected(), 0);
}

#[test]
fn stream_cache_is_a_transparent_memory() {
    let mut rng = Rng::new(0x57CE);
    for _ in 0..48 {
        stream_oracle(random_ops(&mut rng, 60));
    }
}

#[test]
fn array_accessor_matches_direct_memory() {
    use offload_repro::offload_rt::ArrayAccessor;

    let mut rng = Rng::new(0xACC);
    for _ in 0..32 {
        let len = rng.range_u32(1, 512);
        let write_count = rng.below_u32(40);
        let writes: Vec<(u32, u32)> = (0..write_count)
            .map(|_| (rng.below_u32(512), rng.next_u32()))
            .collect();

        let mut machine = Machine::new(MachineConfig::small()).unwrap();
        let remote = machine.alloc_main_slice::<u32>(len).unwrap();
        let initial: Vec<u32> = (0..len).map(|i| i ^ 0xa5a5).collect();
        machine
            .main_mut()
            .write_pod_slice(remote, &initial)
            .unwrap();

        let mut mirror = initial.clone();
        let writes2 = writes.clone();
        machine
            .offload(0)
            .run(move |ctx| -> Result<(), SimError> {
                let mut array = ArrayAccessor::<u32>::fetch(ctx, remote, len)?;
                for (index, value) in writes2 {
                    if index < len {
                        array.set(ctx, index, &value)?;
                    }
                }
                array.write_back(ctx)
            })
            .unwrap()
            .unwrap();
        for (index, value) in writes {
            if index < len {
                mirror[index as usize] = value;
            }
        }
        assert_eq!(
            machine.main().read_pod_slice::<u32>(remote, len).unwrap(),
            mirror
        );
        assert_eq!(machine.races_detected(), 0);
    }
}

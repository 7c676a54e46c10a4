//! The fused and split staging paths of the remote-transfer core must be
//! indistinguishable.
//!
//! With the event log off, a synchronous outer access whose tag is idle
//! issues and retires its staging transfer in one engine step; with the
//! log on, the same access is issued, traced and then waited on. A
//! seeded random mix of outer, explicit, cached and gather transfers,
//! sized from one byte to twice the staging buffer, runs on one machine
//! of each kind, and every simulated observable must agree.

use dma::{Tag, TagMask};
use memspace::Addr;
use simcell::{GatherPlan, Machine, MachineConfig, SimError, Snapshot};
use softcache::{CacheChoice, CacheConfig};
use xrng::Rng;

/// Bytes of main memory the transfers roam over.
const ARENA: u32 = 64 * 1024;
/// Random transfers per case.
const OPS: u32 = 48;
/// Seeded cases.
const CASES: u64 = 24;

/// Runs one case and returns its snapshot, which also covers a digest
/// of every byte the kernel read back (stored in main memory at the
/// end), and the race count.
fn run(seed: u64, events: bool) -> (Snapshot, u64) {
    let config = MachineConfig::small();
    let max_size = 2 * config.staging_size;
    let mut machine = Machine::new(config).expect("config valid");
    machine.events_mut().set_enabled(events);
    let base = machine.alloc_main(ARENA, 16).expect("arena fits");
    let mut rng = Rng::new(seed);
    let fill: Vec<u8> = (0..ARENA).map(|_| rng.next_u32() as u8).collect();
    machine
        .main_mut()
        .write_bytes(base, &fill)
        .expect("arena in bounds");
    let digest = machine
        .offload(0)
        .cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()))
        .run(|ctx| -> Result<u64, SimError> {
            let local = ctx.alloc_local(max_size, 16)?;
            let mut digest = 0u64;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            };
            let mut buf = vec![0u8; max_size as usize];
            for _ in 0..OPS {
                let size = rng.range_u32(1, max_size + 1);
                let at = |rng: &mut Rng| -> Result<Addr, SimError> {
                    Ok(base.offset_by(rng.below_u32(ARENA - size + 1))?)
                };
                let data = &mut buf[..size as usize];
                match rng.below_u32(8) {
                    0 => {
                        ctx.outer_read_bytes(at(&mut rng)?, data)?;
                        fold(data);
                    }
                    1 => {
                        data.iter_mut().for_each(|b| *b = rng.next_u32() as u8);
                        ctx.outer_write_bytes(at(&mut rng)?, data)?;
                    }
                    2 => {
                        let value: u64 = ctx.outer_read_pod(at(&mut rng)?)?;
                        fold(&value.to_le_bytes());
                        ctx.outer_write_pod(at(&mut rng)?, &value.rotate_left(7))?;
                    }
                    // Explicit DMA, sometimes left in flight so later
                    // staging transfers race-scan against it.
                    3 | 4 => {
                        let tag = Tag::new(rng.below_u32(4) as u8)?;
                        if rng.below_u32(2) == 0 {
                            ctx.dma_get(local, at(&mut rng)?, size, tag)?;
                        } else {
                            ctx.dma_put(local, at(&mut rng)?, size, tag)?;
                        }
                        if rng.below_u32(2) == 0 {
                            ctx.dma_wait(tag.mask());
                        }
                    }
                    5 => {
                        ctx.cached_read_bytes(at(&mut rng)?, data)?;
                        fold(data);
                    }
                    6 => {
                        data.iter_mut().for_each(|b| *b = rng.next_u32() as u8);
                        ctx.cached_write_bytes(at(&mut rng)?, data)?;
                    }
                    // At most 64 elements: every descriptor of a batch
                    // race-scans the ones before it.
                    _ => {
                        let elem = size.div_ceil(64);
                        let elems = size / elem;
                        let indices = (0..elems).map(|_| rng.below_u32(ARENA / elem)).collect();
                        let mark = ctx.local_alloc_mark();
                        let packed = ctx.gather(&GatherPlan::new(base, elem, indices))?;
                        let out = &mut buf[..(elems * elem) as usize];
                        ctx.local_read_bytes(packed, out)?;
                        fold(out);
                        ctx.local_alloc_restore(mark);
                    }
                }
            }
            ctx.cache_flush()?;
            ctx.dma_wait(TagMask::ALL);
            Ok(digest)
        })
        .expect("launch succeeds")
        .expect("every transfer is valid");
    let read_back = machine.alloc_main_pod::<u64>().expect("fits");
    machine
        .main_mut()
        .write_pod(read_back, &digest)
        .expect("in bounds");
    (machine.snapshot(), machine.races_detected())
}

#[test]
fn fused_and_split_staging_paths_agree_on_every_observable() {
    let mut races = 0;
    for case in 0..CASES {
        let seed = 0x57A6_0000 + case;
        let (fused, fused_races) = run(seed, false);
        let (split, _) = run(seed, true);
        fused
            .diff(&split)
            .unwrap_or_else(|d| panic!("seed {seed:#x}: {d}"));
        races += fused_races;
    }
    assert!(races > 0, "in-flight explicit DMA must race somewhere");
}

//! The five traced captures the trace tests pin: the four runs
//! `paper_tables --trace e2.json` writes, plus a capture that issues
//! every transfer family once. Shared by the test binaries that include
//! this file with `#[path]`.

use bench::profile::{traced_e2_frame, traced_fault_frame, traced_pipe_frame, traced_sched_frame};
use dma::{Tag, TagMask};
use simcell::{FaultPlan, GatherPlan, Machine, MachineConfig, SimError};
use softcache::{CacheChoice, CacheConfig};

/// Elements of the capture's main-memory array: large enough for an
/// outer access spanning several 4 KiB staging chunks.
const CAPTURE_ELEMS: u32 = 4096;

/// One small traced capture that issues every transfer family once:
/// explicit `dma_get`/`dma_put` with a wait, outer pod and byte reads
/// and writes (one staging chunk and several), cached reads, writes
/// and a flush, and one gather — then, under a seeded fault plan,
/// explicit transfers until one has been dropped and one corrupted.
fn transfer_capture() -> Machine {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    machine.events_mut().set_enabled(true);
    let remote = machine
        .alloc_main_slice::<u32>(CAPTURE_ELEMS)
        .expect("fits");
    let values: Vec<u32> = (0..CAPTURE_ELEMS)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    machine
        .main_mut()
        .write_pod_slice(remote, &values)
        .expect("fits");
    let at = |index: u32| remote.element(index, 4).expect("in bounds");
    let tag = Tag::new(3).expect("valid tag");
    machine
        .offload(0)
        .label("transfers")
        .cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()))
        .run(|ctx| -> Result<(), SimError> {
            let local = ctx.alloc_local_slice::<u32>(64)?;
            ctx.dma_get(local, at(0), 256, tag)?;
            ctx.dma_wait_tag(tag);
            ctx.dma_put(local, at(512), 256, tag)?;
            ctx.dma_wait(TagMask::ALL);

            let value: u32 = ctx.outer_read_pod(at(7))?;
            ctx.outer_write_pod(at(9), &value.wrapping_add(1))?;
            let mut one = [0u8; 40];
            ctx.outer_read_bytes(at(17), &mut one)?;
            ctx.outer_write_bytes(at(1025), &one)?;
            let mut several = vec![0u8; 2 * 4096 + 24];
            ctx.outer_read_bytes(at(3), &mut several)?;
            ctx.outer_write_bytes(at(2049), &several)?;

            let cached: u32 = ctx.cached_read_pod(at(100))?;
            ctx.cached_write_pod(at(101), &cached)?;
            ctx.cached_read_bytes(at(600), &mut one)?;
            ctx.cached_write_bytes(at(900), &one)?;
            ctx.cache_flush()?;

            ctx.gather(&GatherPlan::new(remote, 4, vec![40, 41, 42, 7, 300, 301]))?;
            Ok(())
        })
        .expect("launch succeeds")
        .expect("clean transfers succeed");

    machine
        .install_fault_plan(
            FaultPlan::new(0x7A0B)
                .with_dma_drop(0.2)
                .with_dma_corrupt(0.2),
        )
        .unwrap();
    let (dropped, corrupted) = machine
        .offload(0)
        .label("faulty transfers")
        .run(|ctx| -> Result<(bool, bool), SimError> {
            let local = ctx.alloc_local_slice::<u32>(16)?;
            let (mut dropped, mut corrupted) = (false, false);
            for i in 0..32u32 {
                let result = if i % 2 == 0 {
                    ctx.dma_get(local, at(16 * i), 64, tag)
                } else {
                    ctx.dma_put(local, at(2048 + 16 * i), 64, tag)
                };
                match result {
                    Err(SimError::Fault(simcell::FaultError::DmaDropped { .. })) => dropped = true,
                    Err(SimError::Fault(simcell::FaultError::DmaCorrupted { .. })) => {
                        corrupted = true
                    }
                    other => other?,
                }
                if dropped && corrupted {
                    break;
                }
            }
            ctx.dma_wait(tag.mask());
            Ok((dropped, corrupted))
        })
        .expect("launch succeeds")
        .expect("only transfer faults fire");
    assert!(dropped && corrupted, "the seeded plan drops and corrupts");
    machine
}

/// The five traced captures, by golden-file stem: the four runs
/// `paper_tables --trace e2.json` writes, plus the transfer-family
/// capture.
pub fn captures() -> [(&'static str, Machine); 5] {
    [
        ("e2", traced_e2_frame(true).0),
        ("e2-sched", traced_sched_frame(true).0),
        ("e2-faults", traced_fault_frame(true).0),
        ("e2-pipe", traced_pipe_frame(true).0),
        ("transfers", transfer_capture()),
    ]
}

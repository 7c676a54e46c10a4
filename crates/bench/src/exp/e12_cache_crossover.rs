//! E12 — §4.2: software-cache lookup overhead vs repeated transfers.
//!
//! "Software cache lookup introduces some overhead, but this is
//! typically outweighed by the performance increase from avoiding
//! performing repeated accesses to data via inter-memory transfers."
//! This experiment sweeps the *reuse factor* — how many times each
//! datum is touched — and locates the crossover where the cache starts
//! winning. With no reuse and no spatial locality the cache is pure
//! overhead; with any repetition it wins rapidly.

use simcell::{Machine, MachineConfig, SimError};
use softcache::{CacheChoice, CacheConfig};

use crate::table::{cycles, speedup, Table};

/// One access per cache line (128-byte stride, matching the 4-way
/// cache's line size): no spatial locality, so the first pass gains
/// nothing from fetching whole lines.
pub const STRIDE: u32 = 128;
/// Lines touched (exactly fills the 16 KiB cache).
pub const LINES: u32 = 128;

/// The hand-picked cache E12 measures against naive access.
pub fn cached_choice() -> CacheChoice {
    CacheChoice::SetAssoc(CacheConfig::four_way_16k())
}

/// Runs `reuse` passes over the set on a fresh machine with `choice`
/// installed, optionally capturing the access trace (reads *and*
/// per-access compute); returns the machine and the offload's cycles.
fn run_passes(reuse: u32, choice: CacheChoice, capture: bool) -> (Machine, u64) {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    machine.access_trace_mut().set_enabled(capture);
    let data = machine.alloc_main(LINES * STRIDE, 16).expect("fits");
    let handle = machine
        .offload(0)
        .cache(choice)
        .spawn(|ctx| -> Result<(), SimError> {
            let mut buf = [0u8; 16];
            for _ in 0..reuse {
                for line in 0..LINES {
                    ctx.cached_read_bytes(data.offset_by(line * STRIDE)?, &mut buf)?;
                    ctx.compute(8);
                }
            }
            Ok(())
        })
        .expect("accel 0 exists");
    let elapsed = handle.elapsed();
    machine.join(handle).expect("runs");
    (machine, elapsed)
}

/// `(naive cycles, cached cycles)` for `reuse` passes over the set.
pub fn measure(reuse: u32) -> (u64, u64) {
    (
        run_passes(reuse, CacheChoice::Naive, false).1,
        run_passes(reuse, cached_choice(), false).1,
    )
}

/// The reuse factors E12 sweeps in quick/full mode.
pub fn reuse_factors(quick: bool) -> &'static [u32] {
    if quick {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16]
    }
}

/// Captures the access trace of the naive run for the cache-policy
/// autotuner. The cached run issues the identical access stream, so
/// replaying this trace under any candidate reproduces that candidate's
/// measured cycles.
pub fn capture_trace(reuse: u32) -> Vec<softcache::AccessRecord> {
    let (machine, _) = run_passes(reuse, CacheChoice::Naive, true);
    machine.access_trace().records().to_vec()
}

/// Runs E12.
pub fn run(quick: bool) -> Table {
    let reuses: &[u32] = reuse_factors(quick);
    let mut table = Table::new(
        "E12",
        "Cache lookup overhead vs repeated inter-memory transfers (Sec. 4.2)",
        "cache lookup overhead is typically outweighed by avoided repeated transfers \
         (paper Sec. 4.2); with zero reuse and no spatial locality, it is not",
        vec![
            "reuse factor",
            "naive",
            "cached",
            "cached vs naive",
            "winner",
        ],
    );
    for &reuse in reuses {
        let (naive, cached) = measure(reuse);
        table.push_row(vec![
            reuse.to_string(),
            cycles(naive),
            cycles(cached),
            speedup(naive, cached),
            if cached < naive { "cache" } else { "naive" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_crossover_exists() {
        let (naive1, cached1) = measure(1);
        let (naive8, cached8) = measure(8);
        assert!(
            cached1 >= naive1,
            "no reuse: the cache is pure overhead ({cached1} vs {naive1})"
        );
        assert!(
            cached8 * 2 < naive8,
            "with reuse the cache wins big ({cached8} vs {naive8})"
        );
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 2);
    }
}

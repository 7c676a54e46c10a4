//! E7 — §4.2: "several software caches, favouring different types of
//! application behaviour".
//!
//! Offload C++ ships multiple cache implementations and asks the
//! programmer to pick by profiling. This experiment profiles four cache
//! configurations (plus no cache) against four access patterns and
//! shows there is no single winner — the paper's reason for shipping a
//! family.

use simcell::{Machine, MachineConfig, SimError};
use softcache::{CacheChoice, CacheConfig};

use crate::table::{cycles, percent, Table};

/// Bytes per access.
const ACCESS: usize = 16;
/// Size of the accessed data set.
const DATA: u32 = 64 * 1024;

/// The access patterns profiled.
pub const PATTERNS: [&str; 4] = ["sequential", "strided", "random", "hot-set"];
/// The cache configurations profiled.
pub const CACHES: [&str; 5] = ["none", "DM 4K", "2-way 8K", "4-way 16K", "stream"];

fn offsets(pattern: &str, accesses: u32) -> Vec<u32> {
    let limit = DATA - ACCESS as u32;
    match pattern {
        "sequential" => (0..accesses).map(|i| (i * 16) % limit).collect(),
        "strided" => (0..accesses).map(|i| (i * 528) % limit).collect(),
        "random" => {
            let mut state = 0x5eedu64;
            (0..accesses)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (((state >> 33) as u32) % limit) & !0xf
                })
                .collect()
        }
        "hot-set" => {
            // 90% of accesses inside one 2 KiB hot region.
            let mut state = 0x905eedu64;
            (0..accesses)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let r = (state >> 33) as u32;
                    if i % 10 != 0 {
                        (r % 2048) & !0xf
                    } else {
                        (r % limit) & !0xf
                    }
                })
                .collect()
        }
        other => unreachable!("unknown pattern {other}"),
    }
}

/// The [`CacheChoice`] each profiled cache kind installs.
pub fn choice(kind: &str) -> CacheChoice {
    match kind {
        "none" => CacheChoice::Naive,
        "DM 4K" => CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()),
        "2-way 8K" => CacheChoice::SetAssoc(CacheConfig::new(64, 64, 2)),
        "4-way 16K" => CacheChoice::SetAssoc(CacheConfig::four_way_16k()),
        "stream" => CacheChoice::Stream(CacheConfig::new(1024, 1, 1)),
        other => unreachable!("unknown cache kind {other}"),
    }
}

/// Runs `pattern`'s reads on a fresh machine with `kind`'s cache
/// installed, optionally capturing the access trace; returns the
/// machine and the cycles of the read loop.
fn run_cell(kind: &str, pattern: &str, accesses: u32, capture: bool) -> (Machine, u64) {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    machine.access_trace_mut().set_enabled(capture);
    let data = machine.alloc_main(DATA, 16).expect("fits");
    let offsets = offsets(pattern, accesses);
    let cycles = machine
        .offload(0)
        .cache(choice(kind))
        .run(|ctx| -> Result<u64, SimError> {
            let t0 = ctx.now();
            let mut buf = [0u8; ACCESS];
            for &off in &offsets {
                ctx.cached_read_bytes(data.offset_by(off)?, &mut buf)?;
            }
            Ok(ctx.now() - t0)
        })
        .expect("accel 0 exists")
        .expect("pattern runs");
    (machine, cycles)
}

/// `(total cycles, hit rate)` for one `(cache, pattern)` cell.
pub fn measure(cache_kind: &str, pattern: &str, accesses: u32) -> (u64, f64) {
    let (machine, cycles) = run_cell(cache_kind, pattern, accesses, false);
    (cycles, machine.stats().cache_hit_rate())
}

/// Number of accesses E7 performs in quick/full mode.
pub fn access_count(quick: bool) -> u32 {
    if quick {
        512
    } else {
        4096
    }
}

/// Captures the access trace of `pattern` for the cache-policy
/// autotuner. The access stream is identical for every cache kind (only
/// the interposed cache differs), so capturing the naive run yields the
/// trace that *any* candidate replays.
pub fn capture_trace(pattern: &str, accesses: u32) -> Vec<softcache::AccessRecord> {
    let (machine, _) = run_cell("none", pattern, accesses, true);
    machine.access_trace().records().to_vec()
}

/// Runs E7.
pub fn run(quick: bool) -> Table {
    let accesses = access_count(quick);
    let mut table = Table::new(
        "E7",
        "Software-cache family vs access patterns (Sec. 4.2)",
        "several caches favour different application behaviours; the programmer must choose by \
         profiling (paper Sec. 4.2)",
        vec![
            "pattern",
            "none",
            "DM 4K",
            "2-way 8K",
            "4-way 16K",
            "stream",
            "best",
        ],
    );
    for pattern in PATTERNS {
        let mut cells = vec![pattern.to_string()];
        let mut best = ("", u64::MAX);
        for cache in CACHES {
            let (t, rate) = measure(cache, pattern, accesses);
            if t < best.1 {
                best = (cache, t);
            }
            if cache == "none" {
                cells.push(cycles(t));
            } else {
                cells.push(format!("{} ({})", cycles(t), percent(rate)));
            }
        }
        cells.push(best.0.to_string());
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_no_single_cache_wins_everywhere() {
        let accesses = 1024;
        let mut winners = std::collections::HashSet::new();
        for pattern in PATTERNS {
            let mut best = ("", u64::MAX);
            for cache in &CACHES[1..] {
                let (t, _) = measure(cache, pattern, accesses);
                if t < best.1 {
                    best = (cache, t);
                }
            }
            winners.insert(best.0);
        }
        assert!(
            winners.len() >= 2,
            "different patterns must prefer different caches: {winners:?}"
        );
    }

    #[test]
    fn shape_caches_beat_no_cache_on_friendly_patterns() {
        let (none, _) = measure("none", "sequential", 1024);
        let (stream, _) = measure("stream", "sequential", 1024);
        assert!(stream < none);
        let (none, _) = measure("none", "hot-set", 1024);
        let (assoc, _) = measure("4-way 16K", "hot-set", 1024);
        assert!(assoc < none);
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), 7);
    }
}

//! Property tests for the cache-policy autotuner: the analytic cost
//! model vs exact simulated replay, over seeded random access patterns.
//!
//! Two contracts (both stated in `softcache::autotune`):
//!
//! - on 16-byte-aligned traces the model is **bit-exact** — local
//!   buffers are always DMA-aligned, so with aligned remote
//!   offsets/sizes no transfer pays the misalignment penalty the model
//!   is blind to;
//! - on arbitrary traces the model **never overestimates** and stays
//!   within `MODEL_ALIGNMENT_TOLERANCE` of the exact replay.
//!
//! `random_trace` draws 1-512 B spans anywhere in 64 KiB, so a line is
//! rarely touched twice in a row. `run_heavy_trace` is the opposite:
//! small sequential reads touch each line many times in a row, which is
//! what the model's same-line runs compress.

use softcache::autotune::{
    autotune, model_cycles, replay_exact, AccessRecord, TraceOp, TuneOptions,
    MODEL_ALIGNMENT_TOLERANCE,
};
use softcache::{CacheChoice, CacheConfig, WritePolicy};
use xrng::Rng;

/// The cache families the properties are checked against.
fn choices() -> Vec<CacheChoice> {
    vec![
        CacheChoice::Naive,
        CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()),
        CacheChoice::SetAssoc(CacheConfig::new(64, 64, 2)),
        CacheChoice::SetAssoc(CacheConfig::four_way_16k()),
        CacheChoice::SetAssoc(CacheConfig::new(128, 32, 4).write_policy(WritePolicy::WriteThrough)),
        CacheChoice::Stream(CacheConfig::new(512, 1, 1)),
    ]
}

/// A random trace over a 64 KiB extent: reads, writes and compute in
/// random order. `align` forces every offset/length to a 16-byte
/// multiple.
fn random_trace(rng: &mut Rng, records: usize, align: bool) -> Vec<AccessRecord> {
    let extent = 64 * 1024u32;
    let mut out = Vec::with_capacity(records);
    for _ in 0..records {
        let op = match rng.below_u32(10) {
            0 => TraceOp::Compute {
                cycles: u64::from(rng.below_u32(500)) + 1,
            },
            1..=3 => {
                let (offset, len) = random_span(rng, extent, align);
                TraceOp::Write { offset, len }
            }
            _ => {
                let (offset, len) = random_span(rng, extent, align);
                TraceOp::Read { offset, len }
            }
        };
        out.push(AccessRecord { span: 0, op });
    }
    out
}

fn random_span(rng: &mut Rng, extent: u32, align: bool) -> (u32, u32) {
    let mut len = rng.range_u32(1, 512);
    let mut offset = rng.below_u32(extent - len);
    if align {
        len = (len & !0xf).max(16);
        offset &= !0xf;
    }
    (offset, len)
}

/// A run-heavy trace: a cursor walks through 16 KiB with small
/// sequential reads, so most lines are touched several times in a row,
/// with compute gaps between touches and 16-B-aligned writes mixed in.
/// Under a write-through cache the writes are asynchronous puts, so
/// whether a later miss waits for them depends on exactly when the miss
/// starts. With `align_reads` every read is 16 B at a 16-B boundary,
/// which keeps the naive path's transfers aligned too; otherwise reads
/// are 4-16 B and may straddle a line boundary.
fn run_heavy_trace(rng: &mut Rng, records: usize, align_reads: bool) -> Vec<AccessRecord> {
    let extent = 16 * 1024u32;
    let mut cursor = 0u32;
    let mut out = Vec::with_capacity(records);
    while out.len() < records {
        let op = match rng.below_u32(8) {
            0 | 1 => TraceOp::Compute {
                cycles: u64::from(rng.range_u32(1, 600)),
            },
            2 => {
                let len = 16 * rng.range_u32(1, 5);
                TraceOp::Write {
                    offset: 16 * rng.below_u32((extent - len) / 16),
                    len,
                }
            }
            _ => {
                let len = if align_reads {
                    16
                } else {
                    rng.range_u32(4, 17)
                };
                if cursor + len > extent {
                    cursor = 0;
                }
                let offset = cursor;
                cursor += len;
                TraceOp::Read { offset, len }
            }
        };
        out.push(AccessRecord { span: 0, op });
    }
    out
}

#[test]
fn model_is_bit_exact_on_aligned_run_heavy_traces() {
    let mut rng = Rng::new(0x5EC_2E4D);
    let opts = TuneOptions::default();
    for round in 0..16 {
        let trace = run_heavy_trace(&mut rng, 400, true);
        for choice in choices() {
            let modeled = model_cycles(&choice, &trace, &opts).expect("trace is valid");
            let exact = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
            assert_eq!(
                modeled, exact,
                "round {round}: model drifted from exact replay for {choice}"
            );
        }
    }
}

#[test]
fn cached_model_is_bit_exact_on_run_heavy_traces_with_small_reads() {
    // Cache line fetches are aligned whatever the reads are, and the
    // writes are aligned, so every cache family stays exact; only the
    // naive path's 4-16 B transfers pay the penalty the model ignores.
    let mut rng = Rng::new(0x5EC_5A11);
    let opts = TuneOptions::default();
    for round in 0..16 {
        let trace = run_heavy_trace(&mut rng, 400, false);
        for choice in choices() {
            let modeled = model_cycles(&choice, &trace, &opts).expect("trace is valid");
            let exact = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
            if choice == CacheChoice::Naive {
                assert!(modeled <= exact, "round {round}: naive {modeled} > {exact}");
            } else {
                assert_eq!(
                    modeled, exact,
                    "round {round}: model drifted from exact replay for {choice}"
                );
            }
        }
    }
}

#[test]
fn model_is_bit_exact_on_random_aligned_traces() {
    let mut rng = Rng::new(0xA117);
    let opts = TuneOptions::default();
    for round in 0..24 {
        let trace = random_trace(&mut rng, 200, true);
        for choice in choices() {
            let modeled = model_cycles(&choice, &trace, &opts).expect("trace is valid");
            let exact = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
            assert_eq!(
                modeled, exact,
                "round {round}: model drifted from exact replay for {choice}"
            );
        }
    }
}

#[test]
fn model_never_overestimates_and_stays_in_tolerance_on_unaligned_traces() {
    let mut rng = Rng::new(0xBAD_A119);
    let opts = TuneOptions::default();
    for round in 0..24 {
        let trace = random_trace(&mut rng, 200, false);
        for choice in choices() {
            let modeled = model_cycles(&choice, &trace, &opts).expect("trace is valid");
            let exact = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
            assert!(
                modeled <= exact,
                "round {round}: the alignment-blind model must never overestimate \
                 ({modeled} > {exact} for {choice})"
            );
            let drift = (exact - modeled) as f64 / exact as f64;
            assert!(
                drift <= MODEL_ALIGNMENT_TOLERANCE,
                "round {round}: model drift {drift:.3} exceeds the stated tolerance \
                 {MODEL_ALIGNMENT_TOLERANCE} for {choice} ({modeled} vs {exact})"
            );
        }
    }
}

#[test]
fn autotune_winner_is_exact_optimal_among_validated_candidates() {
    // The tuner's winner must be the exact-cycle minimum of whatever it
    // validated — on any random trace.
    let mut rng = Rng::new(0x0971_3a1e);
    let opts = TuneOptions::default();
    for _ in 0..8 {
        let trace = random_trace(&mut rng, 150, true);
        let report = autotune(&trace, &opts).expect("search space is valid");
        let winner = report.winner();
        let best_exact = report
            .candidates()
            .iter()
            .filter_map(|c| c.exact_cycles)
            .min()
            .expect("top-k candidates were validated");
        assert_eq!(winner.exact_cycles, Some(best_exact));
    }
}

#[test]
fn replay_is_deterministic_across_runs() {
    let mut rng = Rng::new(7);
    let trace = random_trace(&mut rng, 300, false);
    let opts = TuneOptions::default();
    for choice in choices() {
        let a = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
        let b = replay_exact(&choice, &trace, &opts).expect("replay succeeds");
        assert_eq!(a, b, "replay must be deterministic for {choice}");
    }
}

//! Regression pins for the trace-driven cache-policy autotuner: on the
//! full-size E7/E12 workloads the tuner must keep reaching the same
//! conclusions hand profiling reached in EXPERIMENTS.md, E18's graph
//! trace must keep its stride, grid and winner, and every report the
//! tuner produces on the pinned traces must match
//! `tests/golden/tune_reports.txt` line for line.

mod common;

use std::fmt::Write as _;

use bench::autotune::{e12_options, tune_options};
use bench::exp::{e07_softcache_matrix as e07, e12_cache_crossover as e12, e18_graph as e18};
use softcache::autotune::{autotune, dominant_stride, replay_exact, AccessRecord, TraceOp};
use softcache::{CacheChoice, TuneOptions};
use xrng::Rng;

/// Full-size E7 access count (matches `paper_tables` without `--quick`).
const FULL: u32 = 4096;

#[test]
fn e7_sequential_tunes_to_streaming() {
    let trace = e07::capture_trace("sequential", FULL);
    let report = autotune(&trace, &tune_options()).expect("search space is valid");
    let winner = report.winner();
    assert!(
        matches!(winner.choice, CacheChoice::Stream(_)),
        "sequential scans must tune to the streaming cache, got {}",
        winner.choice
    );
}

#[test]
fn e7_strided_and_hot_set_tune_to_four_way() {
    for pattern in ["strided", "hot-set"] {
        let trace = e07::capture_trace(pattern, FULL);
        let report = autotune(&trace, &tune_options()).expect("search space is valid");
        let winner = report.winner();
        match winner.choice {
            CacheChoice::SetAssoc(config) => assert_eq!(
                config.ways, 4,
                "{pattern} must tune to a 4-way cache, got {}",
                winner.choice
            ),
            ref other => panic!("{pattern} must tune to a set-associative cache, got {other}"),
        }
    }
}

#[test]
fn e12_crossover_is_at_reuse_two() {
    let opts = e12_options();
    // Single-touch sweep: every cache is pure overhead, the tuner must
    // say so.
    let trace1 = e12::capture_trace(1);
    let report1 = autotune(&trace1, &opts).expect("search space is valid");
    assert!(
        matches!(report1.winner().choice, CacheChoice::Naive),
        "reuse=1 must tune to no cache, got {}",
        report1.winner().choice
    );
    // From the second touch on, a set-associative cache wins.
    let trace2 = e12::capture_trace(2);
    let report2 = autotune(&trace2, &opts).expect("search space is valid");
    let winner = report2.winner();
    assert!(
        matches!(winner.choice, CacheChoice::SetAssoc(_)),
        "reuse=2 must tune to a set-associative cache, got {}",
        winner.choice
    );
    let naive = replay_exact(&CacheChoice::Naive, &trace2, &opts).expect("replay succeeds");
    assert!(
        winner.exact_cycles.expect("winner validated") < naive,
        "the tuned cache must beat naive from reuse=2"
    );
}

#[test]
fn quick_mode_reports_agree_end_to_end() {
    // The full `--autotune` front-end (capture, measure, replay
    // bit-identically, family agreement) in quick mode; its internal
    // asserts are the gate.
    let e7 = bench::autotune::e7_report(true);
    assert_eq!(e7.rows.len(), 4);
    assert!(e7.rows.iter().all(|r| r.last().unwrap() == "yes"));
    let e12 = bench::autotune::e12_report(true);
    assert_eq!(e12.rows.len(), 2);
    assert!(e12.rows.iter().all(|r| r.last().unwrap() == "yes"));
}

#[test]
fn e18_trace_is_strided_so_the_reuse_prune_never_fires() {
    // Consecutive CSR column reads are 4 B apart, so +4 is the dominant
    // delta at both sizes and the tuner models the whole grid, even
    // with `reuse_prune` on.
    for quick in [true, false] {
        let trace = e18::capture_trace(quick);
        let opts = e18::tune_options();
        assert!(opts.reuse_prune);
        assert_eq!(dominant_stride(&trace), Some(4), "quick={quick}");
        let report = autotune(&trace, &opts).expect("search space is valid");
        assert_eq!(report.candidates().len(), 31, "quick={quick}");
        let grid = opts.candidates(&trace);
        assert_eq!(grid.len(), 31);
        assert!(
            grid.iter()
                .all(|choice| report.candidates().iter().any(|c| c.choice == *choice)),
            "quick={quick}: nothing may be pruned"
        );
        assert_eq!(
            report.winner().choice.to_string(),
            "2-way 16K/256B",
            "quick={quick}"
        );
    }
}

/// Span of the seeded traces' remote offsets.
const SEEDED_EXTENT: u32 = 64 * 1024;

/// A seeded trace with every record shape the model handles: small
/// sequential reads (same-line runs), misaligned reads spanning several
/// lines, writes (so the grid has write-back and write-through
/// variants) and compute gaps. With `seq_len` the sequential reads are
/// that long, which gives the trace a dominant stride; without it they
/// are 4-16 B and random accesses dominate, so the trace has none.
fn seeded_trace(seed: u64, records: usize, seq_len: Option<u32>) -> Vec<AccessRecord> {
    let mut rng = Rng::new(seed);
    let mut cursor = 0u32;
    let mut out = Vec::with_capacity(records);
    let seq_weight = if seq_len.is_some() { 13 } else { 4 };
    while out.len() < records {
        let op = match rng.below_u32(3 + seq_weight) {
            0 => TraceOp::Compute {
                cycles: u64::from(rng.range_u32(1, 300)),
            },
            1 => {
                let len = rng.range_u32(1, 200);
                TraceOp::Write {
                    offset: rng.below_u32(SEEDED_EXTENT - len),
                    len,
                }
            }
            2 => {
                let len = rng.range_u32(1, 600);
                TraceOp::Read {
                    offset: rng.below_u32(SEEDED_EXTENT - len),
                    len,
                }
            }
            _ => {
                let len = seq_len.unwrap_or_else(|| rng.range_u32(4, 17));
                if cursor + len > SEEDED_EXTENT {
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

/// Renders one [`autotune`] report: the trace's size and stride, the
/// winner index, then every candidate in report order with its model
/// and exact cycles.
fn render_report(out: &mut String, name: &str, records: &[AccessRecord], opts: &TuneOptions) {
    let report = autotune(records, opts).expect("search space is valid");
    writeln!(
        out,
        "== {name}: {} records, stride {:?}, winner #{}",
        records.len(),
        dominant_stride(records),
        report.winner_index()
    )
    .expect("writing to a String");
    for (index, c) in report.candidates().iter().enumerate() {
        let exact = c.exact_cycles.map_or("-".to_string(), |e| e.to_string());
        writeln!(
            out,
            "{index:>2} {:<22} model {:>10} exact {exact:>10}",
            c.choice.to_string(),
            c.model_cycles
        )
        .expect("writing to a String");
    }
}

#[test]
fn tune_reports_match_the_golden() {
    let mut actual = String::new();
    for quick in [true, false] {
        let name = if quick { "E18 quick" } else { "E18 full" };
        render_report(
            &mut actual,
            name,
            &e18::capture_trace(quick),
            &e18::tune_options(),
        );
    }
    let pruned = TuneOptions {
        reuse_prune: true,
        ..tune_options()
    };
    for pattern in e07::PATTERNS {
        let trace = e07::capture_trace(pattern, FULL);
        render_report(
            &mut actual,
            &format!("E7 {pattern}"),
            &trace,
            &tune_options(),
        );
        if dominant_stride(&trace).is_none() {
            // The irregular patterns also exercise the reuse prune.
            render_report(
                &mut actual,
                &format!("E7 {pattern} pruned"),
                &trace,
                &pruned,
            );
        }
    }
    for reuse in [1, 2, 4] {
        let trace = e12::capture_trace(reuse);
        render_report(
            &mut actual,
            &format!("E12 reuse={reuse}"),
            &trace,
            &e12_options(),
        );
    }
    for (seed, seq_len) in [(1u64, Some(8)), (2, Some(16)), (3, None), (4, None)] {
        let trace = seeded_trace(seed, 1500, seq_len);
        let name = format!("seeded {seed} seq {seq_len:?}");
        render_report(&mut actual, &name, &trace, &TuneOptions::default());
        render_report(&mut actual, &format!("{name} pruned"), &trace, &pruned);
    }

    common::assert_matches_golden("tune_reports.txt", &actual);
}

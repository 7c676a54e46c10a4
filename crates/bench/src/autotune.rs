//! The `--autotune` front-end: E7 and E12 re-run with the trace-driven
//! cache-policy autotuner next to the hand-picked winner.
//!
//! For each experiment cell this module captures the access trace of
//! the workload (`capture_trace` in the experiment modules), feeds it to
//! `softcache::autotune::autotune`, and reports the autotuned winner
//! beside the hand-selected one. Two properties are asserted (the
//! process aborts if either fails, which is what makes `--autotune` a
//! usable CI check):
//!
//! - **bit-identical replay**: exact replay of the hand-picked
//!   configuration over the captured trace reproduces the measured
//!   in-offload cycles exactly, and
//! - **family agreement**: the autotuned winner is in the same cache
//!   family (naive / set-associative / stream) as the hand-picked
//!   winner — the §4.2 "profile and choose" loop closes mechanically on
//!   the same answer the profiling tables reached by hand.

use softcache::autotune::{autotune, replay_exact, TuneOptions};
use softcache::CacheChoice;

use crate::exp::{e07_softcache_matrix as e07, e12_cache_crossover as e12};
use crate::table::{cycles, Table};

/// Tuner options mirroring the benched machine (`MachineConfig::small`
/// with the cell-like cost model). `TuneOptions`' defaults are exactly
/// that machine, asserted here so a drift in either side is caught.
pub fn tune_options() -> TuneOptions {
    let opts = TuneOptions::default();
    debug_assert_eq!(
        opts.ls_access_cost,
        simcell::CostModel::cell_like().ls_access
    );
    debug_assert_eq!(opts.dma, simcell::CostModel::cell_like().dma);
    opts
}

fn assert_bit_identical(context: &str, measured: u64, replayed: u64) {
    assert_eq!(
        measured, replayed,
        "{context}: exact replay ({replayed}) must reproduce the measured cycles ({measured}) \
         bit-identically"
    );
}

/// E7 with an autotuned column: per pattern, the hand-picked winner
/// (minimum measured cycles over the five profiled kinds), the
/// autotuner's winner over the captured trace, and the replay evidence.
///
/// # Panics
///
/// Panics if replay is not bit-identical to measurement or the winner
/// families disagree — this is the `--autotune` acceptance gate.
pub fn e7_report(quick: bool) -> Table {
    let accesses = e07::access_count(quick);
    let opts = tune_options();
    let mut table = Table::new(
        "E7-AT",
        "E7 autotuned: trace-driven cache choice vs hand-picked (Sec. 4.2)",
        "the autotuner closes the paper's profile-and-choose loop: replaying the captured \
         access trace reproduces every measured cell bit-identically and picks the same \
         cache family as hand profiling",
        vec![
            "pattern",
            "hand pick",
            "hand cycles",
            "replayed",
            "autotuned",
            "tuned cycles",
            "model cycles",
            "agree",
        ],
    );
    for pattern in e07::PATTERNS {
        let trace = e07::capture_trace(pattern, accesses);
        // Hand profiling: measure every kind, keep the best.
        let mut hand = ("", u64::MAX);
        for kind in e07::CACHES {
            let (measured, _) = e07::measure(kind, pattern, accesses);
            // Every cell must be reproduced exactly by trace replay.
            let replayed = replay_exact(&e07::choice(kind), &trace, &opts)
                .expect("replay of a measured config succeeds");
            assert_bit_identical(&format!("E7 {pattern}/{kind}"), measured, replayed);
            if measured < hand.1 {
                hand = (kind, measured);
            }
        }
        let report = autotune(&trace, &opts).expect("search space is valid");
        let winner = report.winner();
        let tuned_cycles = winner.exact_cycles.expect("winner was validated");
        let hand_family = e07::choice(hand.0).family();
        assert_eq!(
            winner.choice.family(),
            hand_family,
            "E7 {pattern}: autotuned winner {} must be in the hand-picked family {hand_family}",
            winner.choice
        );
        assert!(
            tuned_cycles <= hand.1,
            "E7 {pattern}: the autotuned winner ({tuned_cycles}) cannot lose to a hand pick \
             ({}) that is inside its own search space",
            hand.1
        );
        table.push_row(vec![
            pattern.to_string(),
            hand.0.to_string(),
            cycles(hand.1),
            cycles(replay_exact(&e07::choice(hand.0), &trace, &opts).expect("replay succeeds")),
            winner.choice.to_string(),
            cycles(tuned_cycles),
            cycles(winner.model_cycles),
            "yes".to_string(),
        ]);
    }
    table
}

/// Tuner options for E12: the experiment isolates *lookup overhead vs
/// repeated transfers*, so candidates keep its premise — line size
/// equals the access stride (each line holds exactly one touched datum:
/// no spatial-locality subsidy) and no streaming prefetch (which would
/// exploit the sweep order and change the variable under study). The
/// tuner still sweeps capacity, associativity, write policy and naive.
pub fn e12_options() -> TuneOptions {
    let mut opts = tune_options();
    opts.line_sizes = vec![e12::STRIDE];
    opts.stream_lines = Vec::new();
    opts
}

/// E12 with an autotuned column: per reuse factor, naive vs the
/// hand-picked 4-way cache vs the autotuner's winner over the captured
/// trace (which includes the per-access compute cycles, so replay totals
/// match the measured offload durations exactly).
///
/// # Panics
///
/// As for [`e7_report`].
pub fn e12_report(quick: bool) -> Table {
    let opts = e12_options();
    let mut table = Table::new(
        "E12-AT",
        "E12 autotuned: cache-vs-naive crossover found by the tuner (Sec. 4.2)",
        "the autotuner reproduces the crossover: naive wins the single-touch sweep, a \
         set-associative cache wins as soon as data is reused",
        vec![
            "reuse factor",
            "naive",
            "hand cached",
            "hand winner",
            "autotuned",
            "tuned cycles",
            "agree",
        ],
    );
    for &reuse in e12::reuse_factors(quick) {
        let trace = e12::capture_trace(reuse);
        let (naive, cached) = e12::measure(reuse);
        let naive_replay =
            replay_exact(&CacheChoice::Naive, &trace, &opts).expect("naive replay succeeds");
        assert_bit_identical(&format!("E12 reuse={reuse} naive"), naive, naive_replay);
        let cached_replay =
            replay_exact(&e12::cached_choice(), &trace, &opts).expect("cached replay succeeds");
        assert_bit_identical(&format!("E12 reuse={reuse} cached"), cached, cached_replay);

        let hand_family = if cached < naive {
            "set-associative"
        } else {
            "naive"
        };
        let report = autotune(&trace, &opts).expect("search space is valid");
        let winner = report.winner();
        let tuned_cycles = winner.exact_cycles.expect("winner was validated");
        assert_eq!(
            winner.choice.family(),
            hand_family,
            "E12 reuse={reuse}: autotuned winner {} must match the hand winner family \
             {hand_family}",
            winner.choice
        );
        table.push_row(vec![
            reuse.to_string(),
            cycles(naive),
            cycles(cached),
            hand_family.to_string(),
            winner.choice.to_string(),
            cycles(tuned_cycles),
            "yes".to_string(),
        ]);
    }
    table
}

/// Runs both autotuned reports (the `paper_tables --autotune` body).
pub fn run(quick: bool, markdown: bool) {
    for table in [e7_report(quick), e12_report(quick)] {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache::autotune::model_cycles;

    #[test]
    fn e12_quick_report_asserts_pass() {
        let t = e12_report(true);
        assert_eq!(t.rows.len(), 2);
        // reuse=1: naive wins; reuse=4: the cache family wins.
        assert!(t.rows[0].iter().any(|c| c == "naive"));
        assert!(t.rows[1].iter().any(|c| c == "set-associative"));
    }

    #[test]
    fn model_ranks_measured_e7_kinds_like_measurement() {
        // The analytic model alone must reproduce the measured ordering
        // of the five hand kinds on the sequential pattern (everything
        // here is 16-byte aligned, so the model is bit-exact).
        let trace = e07::capture_trace("sequential", 256);
        let opts = tune_options();
        for kind in e07::CACHES {
            let (measured, _) = e07::measure(kind, "sequential", 256);
            let modeled = model_cycles(&e07::choice(kind), &trace, &opts).expect("trace is valid");
            assert_eq!(modeled, measured, "model drifted for {kind}");
        }
    }
}

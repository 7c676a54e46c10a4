//! Regenerates every table of the reproduction (E1–E18).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin paper_tables [--quick] [--markdown] [EXP...]
//! cargo run --release -p bench --bin paper_tables -- --autotune
//! cargo run --release -p bench --bin paper_tables -- --trace e2.json
//! cargo run --release -p bench --bin paper_tables -- --stats
//! ```
//!
//! With experiment ids (e.g. `E4 E9`) only those tables run.
//!
//! `--autotune` re-runs E7 and E12 with the trace-driven cache-policy
//! autotuner next to the hand-picked winner, asserting bit-identical
//! replay and family agreement (see `softcache::autotune`).
//!
//! `--trace <file>` runs one traced E2 offloaded frame (paper Figure 2)
//! and writes its event log as Chrome trace-event JSON — open the file
//! in <https://ui.perfetto.dev>; `PROFILING.md` is the reading guide.
//! It also writes `<file stem>-sched.json`: a work-stealing E15 frame
//! whose scheduler lanes (tile slices, idle gaps, steals) PROFILING.md's
//! "Reading the scheduler lane" section walks through, and
//! `<file stem>-faults.json`: a work-stealing E16 frame under a 5%
//! fault plan whose fault lanes (injections, retries, evictions, host
//! fallbacks) the "Reading the faults lane" section reads, and
//! `<file stem>-pipe.json`: a pipelined E17 staged frame whose
//! pipeline lanes (stage/chunk slices, input-wait and backpressure
//! stalls) the "Reading the pipeline lane" section reads.
//! `--stats` runs the same frame and prints the plain-text utilization
//! report instead. Tracing is zero simulated cost, so neither flag
//! perturbs any table.

use bench::exp;
use bench::profile::{traced_e2_frame, traced_fault_frame, traced_pipe_frame, traced_sched_frame};
use bench::Table;
use simcell::{chrome_trace_json, parse_chrome_trace, Lane, Machine};

/// An experiment id paired with its runner.
type Runner = (&'static str, fn(bool) -> Table);

/// Writes `machine`'s event log to `path` as Chrome trace JSON, then
/// reads the file back and round-trips it through the trace parser so
/// a write that produced malformed or truncated JSON fails loudly.
/// `lanes` is `(base, count)`: the export must name at least `count`
/// lanes at or above tid `base`. `summary` says what was traced.
fn write_trace(path: &str, machine: &Machine, lanes: Option<(u64, usize)>, summary: String) {
    let json = chrome_trace_json(machine.events());
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    let back = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let parsed = parse_chrome_trace(&back)
        .unwrap_or_else(|e| panic!("{path} does not parse as a Chrome trace: {e}"));
    // The export adds `M` (metadata) records for lane names, and each
    // matched OffloadStart/OffloadEnd pair collapses into one `X`
    // slice — so the expected payload count is the log length minus
    // one per completed offload.
    let payload = parsed.iter().filter(|e| e.ph != 'M').count();
    let completed_offloads = machine
        .events()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, simcell::EventKind::OffloadEnd { .. }))
        .count();
    assert_eq!(
        payload,
        machine.events().len() - completed_offloads,
        "{path}: parsed payload event count must match the event log"
    );
    if let Some((base, count)) = lanes {
        let named = parsed
            .iter()
            .filter(|e| e.ph == 'M' && e.tid >= base)
            .count();
        assert!(
            named >= count,
            "{path}: expected at least {count} named lanes from tid {base}, found {named}"
        );
    }
    eprintln!(
        "wrote {path}: {} events from {summary}",
        machine.events().len()
    );
}

/// Derives a sibling trace path written next to the main one:
/// `e2.json` + `sched` → `e2-sched.json`.
fn suffixed_trace_path(path: &str, suffix: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}-{suffix}.json"),
        None => format!("{path}-{suffix}"),
    }
}

/// Writes the four `--trace` files: the E2 frame to `path`, and next
/// to it a work-stealing E15 frame (scheduler lanes), an E16 frame
/// under a 5% fault plan (fault lanes) and a pipelined E17 staged
/// frame (pipeline lanes). Every scheduler, fault and pipeline event
/// exports as exactly one payload record.
fn write_traces(path: &str) {
    let (machine, stats) = traced_e2_frame(true);
    let summary = format!(
        "one offloaded frame ({} host cycles, {} pairs) — open in https://ui.perfetto.dev \
         (see PROFILING.md)",
        stats.host_cycles, stats.pairs,
    );
    write_trace(path, &machine, None, summary);

    let (machine, report) = traced_sched_frame(true);
    let summary = format!(
        "one work-stealing E15 frame ({} tiles, {} steals) — the scheduler lanes walkthrough \
         in PROFILING.md reads this file",
        report.tiles, report.steals,
    );
    let lanes = Some((Lane::Sched(0).tid(), usize::from(report.accels)));
    write_trace(
        &suffixed_trace_path(path, "sched"),
        &machine,
        lanes,
        summary,
    );

    let (machine, report) = traced_fault_frame(true);
    let summary = format!(
        "one E16 frame under fire ({} faults, {} retries, {} host fallbacks) — the faults lane \
         walkthrough in PROFILING.md reads this file",
        report.faults, report.retries, report.fallbacks,
    );
    let lanes = Some((Lane::Faults(0).tid(), 1));
    write_trace(
        &suffixed_trace_path(path, "faults"),
        &machine,
        lanes,
        summary,
    );

    let (machine, report) = traced_pipe_frame(true);
    let summary = format!(
        "one pipelined E17 staged frame ({} stages x {} chunks, {} input-wait cycles, {} \
         backpressure cycles) — the pipeline lane walkthrough in PROFILING.md reads this file",
        report.stages, report.chunks, report.input_wait_cycles, report.backpressure_cycles,
    );
    let lanes = Some((Lane::Pipe(0).tid(), usize::from(report.stages)));
    write_trace(&suffixed_trace_path(path, "pipe"), &machine, lanes, summary);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--trace needs a file argument, e.g. --trace e2.json");
            std::process::exit(2);
        };
        write_traces(path);
        return;
    }
    if args.iter().any(|a| a == "--stats") {
        let (machine, _) = traced_e2_frame(false);
        print!("{}", machine.utilization_report());
        return;
    }
    if args.iter().any(|a| a == "--autotune") {
        eprintln!(
            "Offload reproduction — autotuned E7/E12{}…",
            if quick { " (quick sizes)" } else { "" },
        );
        bench::autotune::run(quick, markdown);
        return;
    }
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_uppercase())
        .collect();

    let runners: Vec<Runner> = vec![
        ("E1", exp::e01_dma_styles::run),
        ("E2", exp::e02_offload_overlap::run),
        ("E3", exp::e03_domain_dispatch::run),
        ("E4", exp::e04_component_restructure::run),
        ("E5", exp::e05_ai_offload::run),
        ("E6", exp::e06_accessor_loop::run),
        ("E7", exp::e07_softcache_matrix::run),
        ("E8", exp::e08_uniform_grouping::run),
        ("E9", exp::e09_word_addressing::run),
        ("E10", exp::e10_duplication::run),
        ("E11", exp::e11_race_detection::run),
        ("E12", exp::e12_cache_crossover::run),
        ("E13", exp::e13_code_loading::run),
        ("E14", exp::e14_multi_accel::run),
        ("E15", exp::e15_sched_policies::run),
        ("E16", exp::e16_fault_recovery::run),
        ("E17", exp::e17_pipeline::run),
        ("E18", exp::e18_graph::run),
    ];

    eprintln!(
        "Offload reproduction — regenerating {} experiment table(s){}…",
        if wanted.is_empty() {
            runners.len()
        } else {
            wanted.len()
        },
        if quick { " (quick sizes)" } else { "" },
    );
    for (id, runner) in runners {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        let table = runner(quick);
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
}

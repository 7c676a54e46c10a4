//! Integration tests for the tracing & profiling layer.
//!
//! Pins the properties `PROFILING.md` relies on: traces are valid Chrome
//! trace-event JSON, the Figure 2 overlap is visible in the exported
//! lanes, tracing is zero simulated cost and allocation-free when
//! disabled, and the always-on counters are a fold of the event log.
//! The exported JSON is pinned byte for byte against the golden files
//! in `tests/golden/traces/`, and the ASCII timelines and utilization
//! reports against `tests/golden/text_views.txt`.

#[path = "common/captures.rs"]
mod captures;
mod common;

use bench::profile::{
    traced_e2_frame, traced_e2_frame_cycles, traced_fault_frame, traced_pipe_frame,
    traced_sched_frame,
};
use captures::captures;
use simcell::{
    ascii_timeline, chrome_trace_json, parse_chrome_trace, ChromeEvent, EventKind, Lane, Machine,
    MachineConfig, MachineStats,
};
use softcache::{CacheChoice, CacheConfig};

/// The five captures' Chrome JSON, rebuilt in-process and compared
/// with the committed goldens: any change to what a transfer records,
/// when, or in which order shows up here as a named line.
#[test]
fn trace_json_matches_the_golden_files() {
    for (name, machine) in &captures() {
        common::assert_matches_golden(
            &format!("traces/{name}.json"),
            &chrome_trace_json(machine.events()),
        );
    }
}

/// The five captures' text views: each one's 100-column ASCII timeline
/// and its utilization report, pinned in one golden file. The
/// scheduler and pipeline timelines end at their last scheduler or
/// pipeline event, so a wrong end cycle moves a column here.
#[test]
fn text_views_match_the_golden_file() {
    let mut views = String::new();
    for (name, machine) in &captures() {
        views.push_str(&format!("== {name}: ascii_timeline(100) ==\n"));
        views.push_str(&ascii_timeline(machine.events(), 100));
        views.push_str(&format!("== {name}: utilization_report ==\n"));
        views.push_str(&machine.utilization_report());
    }
    common::assert_matches_golden("text_views.txt", &views);
}

#[test]
fn events_sort_into_cycle_order() {
    let (machine, _) = traced_e2_frame(true);
    let sorted = machine.events().sorted();
    assert!(!sorted.is_empty());
    assert!(
        sorted.windows(2).all(|w| w[0].at <= w[1].at),
        "sorted() must be non-decreasing in cycle"
    );
}

#[test]
fn disabled_log_never_allocates_across_a_full_frame() {
    let (machine, _) = traced_e2_frame(false);
    assert_eq!(machine.events().len(), 0);
    assert_eq!(
        machine.events().capacity(),
        0,
        "a frame with tracing off must not grow the log's backing storage"
    );
}

#[test]
fn tracing_is_zero_simulated_cost() {
    let (traced_machine, traced) = traced_e2_frame(true);
    let untraced_cycles = traced_e2_frame_cycles();
    assert_eq!(
        traced.host_cycles, untraced_cycles,
        "recording must never advance a simulated clock"
    );
    assert!(!traced_machine.events().is_empty());
}

#[test]
fn chrome_json_round_trips_through_the_parser() {
    let (machine, _) = traced_e2_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("exporter emits parseable JSON");
    // Every recorded event surfaces (lifecycle pairs collapse 2 -> 1,
    // metadata rows add a few), so the counts are the same order.
    assert!(parsed.len() >= machine.events().len() / 2);
    assert!(parsed
        .iter()
        .any(|e| e.ph == 'M' && e.name == "thread_name"));
    assert!(parsed.iter().any(|e| e.ph == 'X'));
}

/// The acceptance criterion: in `paper_tables --trace e2.json`, the
/// host's `detectCollisions` span overlaps the accelerator's
/// `calculateStrategy` offload slice — Figure 2's parallelism, visible
/// in the trace.
#[test]
fn figure2_overlap_is_visible_in_the_trace() {
    let (machine, _) = traced_e2_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    let strategy = parsed
        .iter()
        .find(|e| e.ph == 'X' && e.name == "calculateStrategy" && e.tid == Lane::Accel(0).tid())
        .expect("offloaded calculateStrategy becomes a complete slice on the accel lane");

    // detectCollisions is a begin/end pair on the host lane (tid 0).
    let begin = parsed
        .iter()
        .find(|e| e.ph == 'B' && e.name == "detectCollisions" && e.tid == 0)
        .expect("host detectCollisions begin");
    let end = parsed
        .iter()
        .find(|e| e.ph == 'E' && e.name == "detectCollisions" && e.tid == 0)
        .expect("host detectCollisions end");
    let detect = ChromeEvent {
        name: begin.name.clone(),
        ph: 'X',
        ts: begin.ts,
        dur: Some(end.ts - begin.ts),
        tid: begin.tid,
    };

    assert!(
        strategy.overlaps(&detect),
        "host detectCollisions [{}, {}] must overlap accel calculateStrategy [{}, {}]",
        detect.ts,
        detect.end(),
        strategy.ts,
        strategy.end(),
    );

    // The AI task's bulk fetches appear on the DMA lane.
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "dma_get" && e.tid == Lane::Dma(0).tid()),
        "accessor fetches must appear as dma_get slices on the DMA lane"
    );
}

/// The scheduler-lane half of the `--trace` smoke test: a traced
/// work-stealing E15 frame exports one `sched N` lane per accelerator,
/// its tile slices, idle gaps and steal instants survive the
/// parse_chrome_trace round trip, and the tile slices account for
/// every dispatched tile.
#[test]
fn scheduler_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_sched_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    for lane in 0..report.accels {
        assert!(
            parsed.iter().any(|e| e.ph == 'M'
                && e.name == "thread_name"
                && e.tid == Lane::Sched(lane).tid()),
            "scheduler lane {lane} must be named in the export"
        );
    }
    let tile_slices = parsed
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("tile ") && e.tid >= Lane::Sched(0).tid())
        .count();
    assert_eq!(
        tile_slices as u32, report.tiles,
        "every dispatched tile becomes one scheduler-lane slice"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "idle" && e.tid >= Lane::Sched(0).tid()),
        "the skewed frame leaves visible idle gaps"
    );
    let steal_instants = parsed
        .iter()
        .filter(|e| e.ph == 'i' && e.name == "steal")
        .count();
    assert_eq!(steal_instants as u32, report.steals);

    // Tracing the schedule costs zero simulated cycles.
    let (_, untraced) = traced_sched_frame(false);
    assert_eq!(report.cycles, untraced.cycles);
}

/// The fault-lane half of the `--trace` smoke test: a traced E16 frame
/// under fire exports a named `faults N` lane for every accelerator the
/// plan hit, every injection and recovery instant survives the
/// parse_chrome_trace round trip, and the instant counts agree with the
/// scheduler report's always-on counters.
#[test]
fn fault_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_fault_frame(true);
    assert!(report.faults > 0, "the 5% plan must inject");
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'M' && e.name == "thread_name" && e.tid >= Lane::Faults(0).tid()),
        "every accelerator the plan hit gets a named faults lane"
    );
    let injections = parsed
        .iter()
        .filter(|e| e.ph == 'i' && e.tid >= Lane::Faults(0).tid())
        .filter(|e| {
            matches!(
                &*e.name,
                "dma_corrupt"
                    | "dma_drop"
                    | "tag_timeout"
                    | "accel_stall"
                    | "accel_death"
                    | "ls_poison"
            )
        })
        .count();
    assert_eq!(
        injections as u64, report.faults,
        "every injected fault becomes one instant on a fault lane"
    );
    let retries = parsed
        .iter()
        .filter(|e| e.ph == 'i' && e.name == "retry" && e.tid >= Lane::Faults(0).tid())
        .count();
    assert_eq!(retries as u64, report.retries);

    // Tracing the frame under fire costs zero simulated cycles.
    let (_, untraced) = traced_fault_frame(false);
    assert_eq!(report.cycles, untraced.cycles);
}

/// The pipeline-lane half of the `--trace` smoke test: a traced E17
/// staged frame exports one `pipe N` lane per stage accelerator, every
/// chunk run and stall slice survives the parse_chrome_trace round
/// trip, and the slice counts agree with the report's always-on
/// counters.
#[test]
fn pipeline_lanes_round_trip_through_the_chrome_parser() {
    let (machine, report) = traced_pipe_frame(true);
    let json = chrome_trace_json(machine.events());
    let parsed = parse_chrome_trace(&json).expect("valid JSON");

    for lane in &report.lanes {
        assert!(
            parsed.iter().any(|e| e.ph == 'M'
                && e.name == "thread_name"
                && e.tid == Lane::Pipe(lane.accel).tid()),
            "pipeline lane for accel {} must be named in the export",
            lane.accel
        );
    }
    let chunk_slices = parsed
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("s") && e.tid >= Lane::Pipe(0).tid())
        .filter(|e| e.name.contains(" chunk "))
        .count();
    assert_eq!(
        chunk_slices as u64,
        u64::from(report.stages) * u64::from(report.chunks),
        "every per-stage chunk run becomes one pipeline-lane slice"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == 'X' && e.name == "input wait" && e.tid >= Lane::Pipe(0).tid()),
        "the staged frame's uneven stage costs leave visible input-wait stalls"
    );

    // Tracing the pipeline costs zero simulated cycles.
    let (_, untraced) = traced_pipe_frame(false);
    assert_eq!(report, untraced);
}

/// A counter block with the fifteen counters no event carries zeroed
/// (the list in `MachineStats`'s rustdoc), leaving the thirty that
/// `MachineStats::count` derives from events.
fn event_derived(stats: &MachineStats) -> MachineStats {
    MachineStats {
        host_bytes_read: 0,
        host_bytes_written: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_bytes_fetched: 0,
        cache_bytes_written_back: 0,
        accel_busy_cycles: 0,
        recovery_fallback_cycles: 0,
        journal_snapshots: 0,
        journal_bytes: 0,
        journal_snapshots_skipped: 0,
        journal_bytes_skipped: 0,
        dma_writebacks_elided: 0,
        dma_writeback_bytes_elided: 0,
        ..*stats
    }
}

/// A `{:#?}` line's field name and value.
fn name_value(line: &str) -> (&str, &str) {
    let line = line.trim().trim_end_matches(',');
    line.split_once(": ").unwrap_or(("", line))
}

/// Folding `MachineStats::count` over each capture's event log gives
/// the machine's own event-derived counters. A mismatch names the first
/// differing counter, machine side first.
#[test]
fn machine_stats_are_a_fold_of_the_event_log() {
    for (name, machine) in &captures() {
        let mut folded = MachineStats::default();
        for e in machine.events().events() {
            folded.count(e.at, &e.kind);
        }
        let want = format!("{:#?}", event_derived(machine.stats()));
        let got = format!("{:#?}", event_derived(&folded));
        if let Some((w, g)) = want.lines().zip(got.lines()).find(|(w, g)| w != g) {
            let ((counter, w), (_, g)) = (name_value(w), name_value(g));
            panic!("{name}: stats.{counter}: {w} vs {g} (machine vs folded log)");
        }
    }
}

#[test]
fn machine_stats_agree_with_logged_cache_events() {
    // The E2 frame uses explicit DMA, not a cache — run a cached offload
    // so the cache counters and cache events have something to agree on.
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(true);
    let remote = machine.alloc_main_slice::<u32>(1024).unwrap();
    let values: Vec<u32> = (0..1024).collect();
    machine.main_mut().write_pod_slice(remote, &values).unwrap();
    machine
        .offload(0)
        .cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()))
        .run(|ctx| -> Result<(), simcell::SimError> {
            let mut sum = 0u64;
            for i in 0..1024u32 {
                sum += u64::from(ctx.cached_read_pod::<u32>(remote.element(i, 4)?)?);
            }
            assert_eq!(sum, (0..1024u64).sum::<u64>());
            Ok(())
        })
        .unwrap()
        .unwrap();

    let stats = machine.stats();
    assert!(stats.cache_hits > 0, "sequential reads mostly hit");
    assert!(stats.cache_misses > 0, "cold lines miss");

    let (mut hits, mut misses, mut fetched) = (0u64, 0u64, 0u64);
    for e in machine.events().events() {
        match e.kind {
            EventKind::CacheHit { count, .. } => hits += u64::from(count),
            EventKind::CacheMiss {
                count,
                bytes_fetched,
                ..
            } => {
                misses += u64::from(count);
                fetched += bytes_fetched;
            }
            _ => {}
        }
    }
    assert_eq!(stats.cache_hits, hits);
    assert_eq!(stats.cache_misses, misses);
    assert_eq!(stats.cache_bytes_fetched, fetched);
}

#[test]
fn utilization_report_reflects_the_frame() {
    let (machine, _) = traced_e2_frame(true);
    let report = machine.utilization_report();
    assert!(report.contains("utilization report"));
    assert!(report.contains("accel 0"));
    assert!(report.contains("ls high water"));
    let expected = format!("event log: {} events", machine.events().len());
    assert!(report.contains(&expected), "report: {report}");
}

//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <omini|farm|graph|trace> [--seed N] [--seconds S]
//!           [--trace 0|1] [--spans PATH]
//! ```
//!
//! One invocation runs one workload in its own process as a closed
//! loop for `--seconds`, split into [`SETUP_ROUNDS`] segments: each
//! segment builds the workload afresh from `--seed` (the set-up that
//! `setup_s` times), then issues ops back to back, each checked against
//! the set-up's oracles. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` every other segment wraps each layer call
//! in a span, and the run reports the per-layer metrics and writes the
//! spans to `--spans`. The last line of standard output
//! is one JSON object; the lines before it are the same numbers with
//! their sample counts. See `perfbench/NOTES.md`.

mod farm;
mod graph;
mod harness;
mod omini;
mod spans;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use harness::{median, percentile, ClosedLoop, Phase, Values, Workload};
use spans::{Recorder, SETUP_OP};

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-up runs this many times per invocation, each round followed by
/// an equal share of the timed ops; `setup_s` is the median round.
const SETUP_ROUNDS: u64 = 9;

/// A percentile is reported as steady only with this many samples
/// beyond it.
const MIN_TAIL: usize = 10;

/// The per-layer metrics of the traced run, with their units. Every
/// traced run reports all of them; a layer the workload does not call
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("offload-lang.parse_ms", "ms"),
    ("offload-lang.codegen_ms", "ms"),
    ("offload-lang.vm_load_ms", "ms"),
    ("offload-lang.vm_run_ms", "ms"),
    ("offload-lang.vm_minstr_per_s", "Minstr/s"),
    ("offload-lang.vm_instrs", "count"),
    ("offload-lang.superinstrs", "count"),
    ("simcell.offloads", "count"),
    ("dma.gets", "count"),
    ("dma.bytes", "bytes"),
    ("simfarm.submit_ms", "ms"),
    ("simfarm.reap_ms", "ms"),
    ("simfarm.worker_busy_ms", "ms"),
    ("simfarm.gap_frac", "fraction"),
    ("simfarm.world_solo_us", "us"),
    ("simcell.faults_injected", "count"),
    ("offload-rt.retries", "count"),
    ("offload-rt.fallbacks", "count"),
    ("offload-rt.steals", "count"),
    ("gamekit.naive_ms", "ms"),
    ("gamekit.tuned_ms", "ms"),
    ("gamekit.gather_ms", "ms"),
    ("dma.ns_per_get", "ns"),
    ("softcache.ns_per_lookup", "ns"),
    ("simcell.ns_per_gather_elem", "ns"),
    ("softcache.hit_ratio", "fraction"),
    ("simcell.elems_per_descriptor", "count"),
    ("dma.stall_cycles", "cycles"),
    ("softcache.autotune_ms", "ms"),
    ("gamekit.generate_ms", "ms"),
    ("simcell.record_ms", "ms"),
    ("simcell.export_ms", "ms"),
    ("simcell.parse_ms", "ms"),
    ("simcell.export_ns_per_event", "ns"),
    ("simcell.parse_ns_per_event", "ns"),
    ("simcell.record_overhead", "ratio"),
    ("simcell.events", "count"),
    ("simcell.json_mb", "MB"),
    ("perfbench.untraced_ops_per_s", "1/s"),
    ("perfbench.traced_ops_per_s", "1/s"),
    ("perfbench.traced_vs_untraced", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was measured, for the human-readable lines.
    note: String,
}

/// A finished run, ready to print.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Internal values the metrics derive from, printed but not in JSON.
    extra: Values,
    warnings: Vec<String>,
}

fn end_to_end(
    setup_s: &[f64],
    phase: &Phase,
    warnings: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut latencies: Vec<f64> = phase.ok.iter().map(|op| op.latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let (p50, _) = percentile(&latencies, 0.5);
    let (p90, beyond) = percentile(&latencies, 0.9);
    if beyond < MIN_TAIL {
        warnings.push(format!(
            "not steady: op_ms_p90 has {beyond} samples beyond it (needs {MIN_TAIL}); run longer"
        ));
    }
    let cycles = phase
        .ok
        .first()
        .map_or(0, |op| op.checked.counts.sim_cycles);
    let ok = phase.attempted - phase.failed;
    Ok(vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
            note: format!("median of {} set-ups {setup_s:.4?}", setup_s.len()),
        },
        // The median and the throughput are printed but not declared:
        // on a host whose speed changes in phases both follow the share
        // of slow phases in the run (see perfbench/NOTES.md,
        // "Steadiness").
        Metric {
            name: "op_ms_p90",
            value: p90,
            unit: "ms",
            note: format!(
                "n={n}, {beyond} beyond; median {p50:.3} ms; {:.2} ops/s over {:.3} s",
                phase.ops_per_s(),
                phase.wall_s
            ),
        },
        Metric {
            name: "sim_cycles_per_op",
            value: cycles as f64,
            unit: "cycles",
            note: "exact; every op repeats it".into(),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
            note: "VmHWM of this process".into(),
        },
        Metric {
            name: "ok_frac",
            value: ok as f64 / phase.attempted.max(1) as f64,
            unit: "fraction",
            note: format!(
                "{ok} of {} ops passed; fail_frac = {}",
                phase.attempted,
                phase.failed as f64 / phase.attempted.max(1) as f64
            ),
        },
    ])
}

/// Median over `rows` of each value; a metric's op rows win over its
/// set-up rows.
fn medians(op_rows: &[Values], setup_rows: &[Values]) -> Values {
    let mut out = Values::new();
    for rows in [setup_rows, op_rows] {
        let mut columns: BTreeMap<&String, Vec<f64>> = BTreeMap::new();
        for row in rows {
            for (name, &value) in row {
                columns.entry(name).or_default().push(value);
            }
        }
        for (name, column) in columns {
            out.insert(name.clone(), median(&column));
        }
    }
    out
}

/// Raw per-layer values of one op or set-up round: span self times in
/// ms (`<span>_ms`), then the op's counts and measurements.
fn layer_row(
    self_ns: Option<&BTreeMap<&'static str, u64>>,
    checked: Option<&harness::Checked>,
) -> Values {
    let mut row = Values::new();
    for (name, ns) in self_ns.into_iter().flatten() {
        row.insert(format!("{name}_ms"), *ns as f64 / 1e6);
    }
    if let Some(checked) = checked {
        for (name, n) in &checked.counts.exact {
            row.insert((*name).to_string(), *n as f64);
        }
        row.extend(checked.measured.iter().map(|(k, v)| (k.clone(), *v)));
    }
    row
}

fn per_layer<W: Workload>(rec: &Recorder, base: &Phase, traced: &Phase) -> (Vec<Metric>, Values) {
    let self_ns = rec.self_ns();
    let op_rows: Vec<Values> = traced
        .ok
        .iter()
        .map(|op| layer_row(self_ns.get(&op.id), Some(&op.checked)))
        .collect();
    let setup_rows: Vec<Values> = (0..SETUP_ROUNDS)
        .map(|k| layer_row(self_ns.get(&(SETUP_OP + k)), None))
        .collect();
    let mut values = medians(&op_rows, &setup_rows);
    W::derive(&mut values);
    let (untraced, with_spans) = (base.ops_per_s(), traced.ops_per_s());
    values.insert("perfbench.untraced_ops_per_s".into(), untraced);
    values.insert("perfbench.traced_ops_per_s".into(), with_spans);
    if untraced > 0.0 {
        values.insert("perfbench.traced_vs_untraced".into(), with_spans / untraced);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
            note: format!(
                "median over {} traced ops (set-up spans: over {SETUP_ROUNDS} rounds)",
                op_rows.len()
            ),
        })
        .collect();
    values.retain(|name, _| !PER_LAYER.iter().any(|(n, _)| n == name));
    (metrics, values)
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut rec = Recorder::new(args.trace);
    let mut closed = ClosedLoop::default();
    let mut setup_s = Vec::new();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let segment_s = args.seconds / SETUP_ROUNDS as f64;
    for round in 0..SETUP_ROUNDS {
        rec.set_enabled(args.trace);
        rec.set_op(SETUP_OP + round);
        let t0 = Instant::now();
        let mut workload = W::setup(args.seed, &mut rec)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // One untimed, unspanned op lets lazy work (first-touch pages,
        // worker machines, caches) finish before the timed ops. Its
        // failures are ignored here; the timed ops count their own.
        rec.set_enabled(false);
        ClosedLoop::default().run(&mut workload, &mut rec, 0.0, 1);
        // A traced run alternates untraced and spanned segments, so both
        // see the same mix of host conditions.
        let spanned = args.trace && round % 2 == 1;
        rec.set_enabled(spanned);
        let segment = closed.run(&mut workload, &mut rec, segment_s, 1);
        if spanned {
            traced.absorb(segment);
        } else {
            untraced.absorb(segment);
        }
        // Dropped before the next set-up, so one workload is alive at a
        // time and peak memory is one workload's.
        drop(workload);
    }
    let mut warnings = Vec::new();
    let report = if args.trace {
        let (metrics, extra) = per_layer::<W>(&rec, &untraced, &traced);
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| format!("perfbench/out/spans-{}-{}.json", args.workload, args.seed));
        write_spans(&rec, &path)?;
        warnings.push(format!("wrote {} spans to {path}", rec.len()));
        for phase in [&untraced, &traced] {
            warnings.extend(phase.errors.iter().cloned());
        }
        Report {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            metrics,
            extra,
            warnings,
        }
    } else {
        let metrics = end_to_end(&setup_s, &untraced, &mut warnings)?;
        warnings.extend(untraced.errors.iter().cloned());
        Report {
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics,
            extra: Values::new(),
            warnings,
        }
    };
    Ok(report)
}

fn write_spans(rec: &Recorder, path: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, rec.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-trip form, every digit kept), anything else as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!(
            "  {:<32} {:>16} {:<9} {}",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    for (name, value) in &report.extra {
        println!("  ({name} = {})", json_number(*value));
    }
    for w in &report.warnings {
        println!("  # {w}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let result = match args.workload.as_str() {
        "omini" => run::<omini::Omini>(&args),
        "farm" => run::<farm::FarmBench>(&args),
        "graph" => run::<graph::GraphBench>(&args),
        "trace" => run::<trace::TraceBench>(&args),
        other => Err(format!(
            "unknown workload {other:?}; expected omini, farm, graph or trace"
        )),
    };
    match result {
        Ok(report) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Counts;

    /// The counts of one op on a freshly set-up workload.
    fn counts_of<W: Workload>(seed: u64) -> Counts {
        let mut rec = Recorder::new(false);
        let mut w = W::setup(seed, &mut rec).expect("set-up succeeds");
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 1);
        assert_eq!(phase.failed, 0, "{:?}", phase.errors);
        phase.ok[0].checked.counts.clone()
    }

    /// Every count repeats across two runs of one seed; another seed
    /// gives other counts.
    fn seed_decides_counts<W: Workload>() {
        let default = counts_of::<W>(DEFAULT_SEED);
        assert_eq!(default, counts_of::<W>(DEFAULT_SEED));
        let other = counts_of::<W>(DEFAULT_SEED + 1);
        assert_eq!(other, counts_of::<W>(DEFAULT_SEED + 1));
        assert_ne!(default, other);
    }

    #[test]
    fn omini_counts_follow_the_seed() {
        seed_decides_counts::<omini::Omini>();
    }

    #[test]
    fn farm_counts_follow_the_seed() {
        seed_decides_counts::<farm::FarmBench>();
    }

    #[test]
    fn graph_counts_follow_the_seed() {
        seed_decides_counts::<graph::GraphBench>();
    }

    #[test]
    fn trace_counts_follow_the_seed() {
        seed_decides_counts::<trace::TraceBench>();
    }

    /// The `"name"` values of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("per_layer"), per_layer);
        let phase = Phase::default();
        let e2e: Vec<String> = end_to_end(&[1.0], &phase, &mut Vec::new())
            .expect("metrics build")
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(
            declared("workloads"),
            ["omini", "farm", "graph", "trace"].map(String::from)
        );
    }
}

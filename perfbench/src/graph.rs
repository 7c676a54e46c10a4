//! `graph`: BFS plus connected components over the seeded interaction
//! graph at full size, three ways, with the event log off.
//!
//! Every op runs `GraphAccess::Naive`, `Tuned` (cache autotuned during
//! set-up) and `Gather`, and checks each path's output against the
//! host references `InteractionGraph::host_bfs` and `host_components`.

use gamekit::graph::{run_bfs, run_components, GraphAccess, InteractionGraph};
use memspace::Addr;
use simcell::{Machine, MachineConfig, MachineStats};
use softcache::{autotune, CacheChoice, TuneOptions};

use crate::harness::{seeded, Checked, Counts, Values, Workload};
use crate::spans::Recorder;

/// Full E18 size: nodes and average degree.
pub const FULL: (u32, u32) = (2048, 8);
/// Quick E18 size, used by the `trace` workload.
pub const QUICK: (u32, u32) = (512, 6);

/// One seeded graph in main memory with its oracles and the autotuned
/// cache for it.
pub struct GraphWorld {
    /// The machine holding the graph.
    pub machine: Machine,
    graph_seed: u64,
    size: (u32, u32),
    graph: InteractionGraph,
    src: u32,
    levels_out: Addr,
    comp_out: Addr,
    expected_levels: Vec<u32>,
    expected_comp: Vec<u32>,
    /// The three access paths, with the cache tuned for this graph.
    pub paths: [(&'static str, GraphAccess); 3],
}

/// Generates the graph and allocates the two output arrays after it.
fn generate(
    machine: &mut Machine,
    (nodes, degree): (u32, u32),
    seed: u64,
    rec: &mut Recorder,
) -> Result<(InteractionGraph, Addr, Addr), String> {
    let err = |e: simcell::SimError| e.to_string();
    let graph = rec
        .span("gamekit.generate", || {
            InteractionGraph::generate(machine, nodes, degree, seed)
        })
        .map_err(err)?;
    let levels_out = machine.alloc_main_slice::<u32>(nodes).map_err(err)?;
    let comp_out = machine.alloc_main_slice::<u32>(nodes).map_err(err)?;
    Ok((graph, levels_out, comp_out))
}

/// Main-memory state a traversal path left behind.
pub struct PathOutput {
    levels: Vec<u32>,
    comp: Vec<u32>,
}

/// The layer counters of a machine at one instant.
#[derive(Clone, Copy)]
struct Snapshot {
    host_now: u64,
    stats: MachineStats,
    dma_gets: u64,
    dma_bytes: u64,
    dma_stall_cycles: u64,
}

impl Snapshot {
    /// Reads the machine's clocks and counters.
    fn take(machine: &Machine) -> Result<Snapshot, String> {
        let mut snap = Snapshot {
            host_now: machine.host_now(),
            stats: *machine.stats(),
            dma_gets: 0,
            dma_bytes: 0,
            dma_stall_cycles: 0,
        };
        for accel in 0..machine.accel_count() {
            let dma = machine.dma_stats(accel).map_err(|e| e.to_string())?;
            snap.dma_gets += dma.gets;
            snap.dma_bytes += dma.bytes_in + dma.bytes_out;
            snap.dma_stall_cycles += dma.stall_cycles;
        }
        Ok(snap)
    }
}

/// Counter deltas of one traversal path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathCounts {
    cycles: u64,
    dma_gets: u64,
    dma_bytes: u64,
    dma_stall_cycles: u64,
    cache_lookups: u64,
    cache_hits: u64,
    gather_elems: u64,
    gather_descriptors: u64,
}

impl PathCounts {
    fn between(a: &Snapshot, b: &Snapshot) -> PathCounts {
        let (sa, sb) = (&a.stats, &b.stats);
        PathCounts {
            cycles: b.host_now - a.host_now,
            dma_gets: b.dma_gets - a.dma_gets,
            dma_bytes: b.dma_bytes - a.dma_bytes,
            dma_stall_cycles: b.dma_stall_cycles - a.dma_stall_cycles,
            cache_lookups: (sb.cache_hits + sb.cache_misses) - (sa.cache_hits + sa.cache_misses),
            cache_hits: sb.cache_hits - sa.cache_hits,
            gather_elems: sb.gather_elems - sa.gather_elems,
            gather_descriptors: sb.gather_descriptors - sa.gather_descriptors,
        }
    }
}

impl GraphWorld {
    /// Generates the graph for `seed` at `size`, computes the host
    /// oracles, and autotunes a cache from the naive traversal's access
    /// trace (reuse-distance pruning on: the trace has no stride).
    pub fn new(seed: u64, size: (u32, u32), rec: &mut Recorder) -> Result<GraphWorld, String> {
        let err = |e: simcell::SimError| e.to_string();
        let mut s = seeded(seed, 3);
        let graph_seed = s.next_u64();
        let src = s.below_u32(size.0);
        let mut machine = Machine::new(MachineConfig::small()).map_err(err)?;
        let (graph, levels_out, comp_out) = generate(&mut machine, size, graph_seed, rec)?;
        let expected_levels = graph.host_bfs(&mut machine, src).map_err(err)?;
        let expected_comp = graph.host_components(&mut machine).map_err(err)?;

        machine.access_trace_mut().set_enabled(true);
        run_bfs(&mut machine, &graph, src, levels_out, &GraphAccess::Naive).map_err(err)?;
        run_components(&mut machine, &graph, comp_out, &GraphAccess::Naive).map_err(err)?;
        machine.access_trace_mut().set_enabled(false);
        let records = machine.access_trace().records().to_vec();
        machine.access_trace_mut().clear();
        let opts = TuneOptions {
            reuse_prune: true,
            ..TuneOptions::default()
        };
        let choice: CacheChoice = rec
            .span("softcache.autotune", || autotune(&records, &opts))
            .map_err(|e| format!("autotune: {e:?}"))?
            .winner()
            .choice;
        Ok(GraphWorld {
            machine,
            graph_seed,
            size,
            graph,
            src,
            levels_out,
            comp_out,
            expected_levels,
            expected_comp,
            paths: [
                ("gamekit.naive", GraphAccess::Naive),
                ("gamekit.tuned", GraphAccess::Tuned(choice)),
                ("gamekit.gather", GraphAccess::Gather),
            ],
        })
    }

    /// Resets the machine and generates the same graph again, so a
    /// capture starts from simulated cycle 0 and its timestamps, and
    /// hence its exported bytes, repeat exactly.
    pub fn rebuild(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.machine.reset_for_seed(self.graph_seed);
        (self.graph, self.levels_out, self.comp_out) =
            generate(&mut self.machine, self.size, self.graph_seed, rec)?;
        Ok(())
    }

    /// Runs BFS then connected components along `access`, and reads
    /// back what they wrote.
    pub fn traverse(&mut self, access: &GraphAccess) -> Result<PathOutput, String> {
        self.traverse_with(|world| {
            let err = |e: simcell::SimError| e.to_string();
            let m = &mut world.machine;
            run_bfs(m, &world.graph, world.src, world.levels_out, access).map_err(err)?;
            run_components(m, &world.graph, world.comp_out, access).map_err(err)
        })
    }

    /// Fills both output arrays with a byte no traversal writes, runs
    /// `path`, and reads the arrays back, so a check sees only what
    /// `path` wrote. Filling and reading are uncharged: the simulated
    /// clock only sees the traversals.
    fn traverse_with(
        &mut self,
        path: impl FnOnce(&mut GraphWorld) -> Result<(), String>,
    ) -> Result<PathOutput, String> {
        let err = |e: memspace::MemError| e.to_string();
        let nodes = self.graph.nodes();
        for addr in [self.levels_out, self.comp_out] {
            self.machine
                .main_mut()
                .fill(addr, nodes * 4, 0xAB)
                .map_err(err)?;
        }
        path(self)?;
        let main = self.machine.main();
        Ok(PathOutput {
            levels: main.read_pod_slice(self.levels_out, nodes).map_err(err)?,
            comp: main.read_pod_slice(self.comp_out, nodes).map_err(err)?,
        })
    }

    /// Checks a path's output against the host oracles.
    pub fn check(&self, label: &str, out: &PathOutput) -> Result<(), String> {
        if out.levels != self.expected_levels {
            return Err(format!("{label}: BFS levels differ from host_bfs"));
        }
        if out.comp != self.expected_comp {
            return Err(format!("{label}: components differ from host_components"));
        }
        Ok(())
    }
}

/// The `graph` workload's state.
pub struct GraphBench {
    world: GraphWorld,
}

/// The three paths' outputs and counter deltas.
pub type GraphOutput = Vec<(&'static str, PathOutput, PathCounts)>;

impl Workload for GraphBench {
    type Output = GraphOutput;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<GraphBench, String> {
        Ok(GraphBench {
            world: GraphWorld::new(seed, FULL, rec)?,
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Result<GraphOutput, String> {
        let mut outputs = Vec::with_capacity(3);
        for (label, access) in self.world.paths.clone() {
            let before = Snapshot::take(&self.world.machine)?;
            let out = rec.span(label, || self.world.traverse(&access))?;
            let after = Snapshot::take(&self.world.machine)?;
            outputs.push((label, out, PathCounts::between(&before, &after)));
        }
        Ok(outputs)
    }

    fn check(&mut self, out: GraphOutput) -> Result<Checked, String> {
        let mut counts = Counts::default();
        for (label, path_out, c) in &out {
            self.world.check(label, path_out)?;
            counts.sim_cycles += c.cycles;
            for (name, n) in [
                ("dma.gets", c.dma_gets),
                ("dma.bytes", c.dma_bytes),
                ("dma.stall_cycles", c.dma_stall_cycles),
                ("softcache.lookups", c.cache_lookups),
                ("softcache.hits", c.cache_hits),
                ("simcell.gather_elems", c.gather_elems),
                ("simcell.gather_descriptors", c.gather_descriptors),
            ] {
                *counts.exact.entry(name).or_default() += n;
            }
            if *label == "gamekit.naive" {
                counts.exact.insert("gamekit.naive_gets", c.dma_gets);
            }
        }
        Ok(counts.into())
    }

    fn derive(values: &mut Values) {
        derive_ratio(
            values,
            "dma.ns_per_get",
            "gamekit.naive_ms",
            "gamekit.naive_gets",
            1e6,
        );
        derive_ratio(
            values,
            "softcache.ns_per_lookup",
            "gamekit.tuned_ms",
            "softcache.lookups",
            1e6,
        );
        derive_ratio(
            values,
            "simcell.ns_per_gather_elem",
            "gamekit.gather_ms",
            "simcell.gather_elems",
            1e6,
        );
        derive_ratio(
            values,
            "softcache.hit_ratio",
            "softcache.hits",
            "softcache.lookups",
            1.0,
        );
        derive_ratio(
            values,
            "simcell.elems_per_descriptor",
            "simcell.gather_elems",
            "simcell.gather_descriptors",
            1.0,
        );
    }
}

/// Inserts `name = scale * values[num] / values[den]` when both exist
/// and the denominator is non-zero.
pub fn derive_ratio(values: &mut Values, name: &str, num: &str, den: &str, scale: f64) {
    if let (Some(&n), Some(&d)) = (values.get(num), values.get(den)) {
        if d != 0.0 {
            values.insert(name.to_string(), scale * n / d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ClosedLoop;

    #[test]
    fn a_wrong_expectation_counts_as_a_failed_op() {
        let mut rec = Recorder::new(false);
        let mut w = GraphBench::setup(1, &mut rec).unwrap();
        w.world.expected_comp[5] ^= 1;
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 2);
        assert_eq!((phase.attempted, phase.failed), (2, 2));
    }

    /// The graph op with paths that return without writing their output.
    struct Unwritten(GraphBench);

    impl Workload for Unwritten {
        type Output = GraphOutput;

        fn setup(seed: u64, rec: &mut Recorder) -> Result<Unwritten, String> {
            GraphBench::setup(seed, rec).map(Unwritten)
        }

        fn op(&mut self, _rec: &mut Recorder) -> Result<GraphOutput, String> {
            let world = &mut self.0.world;
            let mut outputs = Vec::new();
            for (label, _) in world.paths.clone() {
                let out = world.traverse_with(|_| Ok(()))?;
                outputs.push((label, out, PathCounts::default()));
            }
            Ok(outputs)
        }

        fn check(&mut self, out: GraphOutput) -> Result<Checked, String> {
            self.0.check(out)
        }
    }

    #[test]
    fn a_path_that_writes_nothing_counts_as_a_failed_op() {
        let mut rec = Recorder::new(false);
        let mut w = Unwritten::setup(1, &mut rec).unwrap();
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 2);
        assert_eq!((phase.attempted, phase.failed), (2, 2));
        assert!(
            phase.errors[0].contains("gamekit.naive"),
            "{:?}",
            phase.errors
        );
    }
}

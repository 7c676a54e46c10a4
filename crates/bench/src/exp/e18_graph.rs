//! E18 (extension) — irregular graph traversal and the gather API.
//!
//! Everything before this experiment streams: dense arrays, known
//! strides, transfers plannable before the kernel runs. Game state is
//! not all like that — interaction graphs (aggro, squads, level
//! connectivity) make the *data* decide the next addresses, and the
//! paper's explicit-transfer machine has no hardware to hide that
//! (Sec. 3.2: every remote touch is a programmed DMA). This experiment
//! traverses one seeded entity-interaction graph (BFS levels from node
//! 0, then connected components) three ways and demands a bit-identical
//! memory image from all of them:
//!
//! - **naive**: one synchronous outer read per row offset and per edge
//!   — the pointer-chasing worst case;
//! - **tuned**: the same per-element loop behind the autotuned software
//!   cache. The tuner runs with reuse-distance pruning
//!   ([`softcache::TuneOptions::reuse_prune`]) switched on, but the
//!   pruning never fires here: consecutive CSR column reads give the
//!   captured trace a dominant +4 B stride
//!   ([`softcache::dominant_stride`] returns `Some(4)`), so the winner
//!   comes from the full 31-candidate grid;
//! - **gather**: per BFS level, one coalesced
//!   [`GatherPlan`](simcell::GatherPlan) batch for the frontier's
//!   row-offset pairs and one for its neighbour runs
//!   ([`gamekit::graph`]).
//!
//! The acceptance budget: batched frontier gathering beats naive by at
//! least 2x in simulated accelerator cycles, and the tuned column lands
//! between them — caching recovers spatial locality inside neighbour
//! lists, but still pays a round trip per missed line where the gather
//! engine pays one descriptor per *run*.

use gamekit::graph::{run_bfs, run_components, GraphAccess, InteractionGraph};
use simcell::{Machine, MachineConfig, MemorySnapshot};
use softcache::{autotune, AccessRecord, CacheChoice, TuneOptions};

use crate::table::{cycles, speedup, Table};

/// Graph scale: nodes and target average degree.
fn scale(quick: bool) -> (u32, u32) {
    if quick {
        (512, 6)
    } else {
        (2048, 8)
    }
}

/// BFS source node (fixed across variants).
const SOURCE: u32 = 0;

/// Seed for the interaction graph.
const SEED: u64 = 0xE18;

/// A fresh machine with the seeded graph and an output array for the
/// traversal results.
fn world(quick: bool) -> (Machine, InteractionGraph, memspace::Addr) {
    let (nodes, degree) = scale(quick);
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let graph = InteractionGraph::generate(&mut machine, nodes, degree, SEED).expect("fits");
    let out = machine.alloc_main_slice::<u32>(2 * nodes).expect("fits");
    (machine, graph, out)
}

/// Runs BFS + connected components under `access` on a fresh world and
/// returns `(accel cycles, the world's memory, gather plans issued)`.
pub fn measure(quick: bool, access: &GraphAccess) -> (u64, MemorySnapshot, u64) {
    let (mut machine, graph, out) = world(quick);
    let nodes = graph.nodes();
    let comp_out = out.element(nodes, 4).expect("in range");
    machine.reset_stats();
    run_bfs(&mut machine, &graph, SOURCE, out, access).expect("traversal fits");
    run_components(&mut machine, &graph, comp_out, access).expect("traversal fits");
    (
        machine.stats().accel_busy_cycles,
        machine.memory_snapshot(),
        machine.stats().gathers,
    )
}

/// The tuner options E18 searches with: the defaults plus
/// reuse-distance pruning, which its strided trace never triggers (see
/// the module docs).
pub fn tune_options() -> TuneOptions {
    TuneOptions {
        reuse_prune: true,
        ..TuneOptions::default()
    }
}

/// Captures the access trace of the naive traversal (BFS, then
/// connected components) on a fresh world.
pub fn capture_trace(quick: bool) -> Vec<AccessRecord> {
    let (mut machine, graph, out) = world(quick);
    let nodes = graph.nodes();
    let comp_out = out.element(nodes, 4).expect("in range");
    machine.access_trace_mut().set_enabled(true);
    run_bfs(&mut machine, &graph, SOURCE, out, &GraphAccess::Naive).expect("traversal fits");
    run_components(&mut machine, &graph, comp_out, &GraphAccess::Naive).expect("traversal fits");
    machine.access_trace().records().to_vec()
}

/// Autotunes a cache for the naive traversal's access trace under
/// [`tune_options`]. Returns the winning choice.
pub fn tune(quick: bool) -> CacheChoice {
    autotune(&capture_trace(quick), &tune_options())
        .expect("search space is valid")
        .winner()
        .choice
}

/// Runs E18.
pub fn run(quick: bool) -> Table {
    let (nodes, degree) = scale(quick);
    let mut table = Table::new(
        "E18",
        "Extension: irregular graph traversal — naive derefs vs cache vs gather",
        "data-dependent access defeats planned streaming; a first-class gather (index list -> \
         coalesced DMA descriptor batch) restores bulk transfer to frontier expansion and beats \
         per-edge remote derefs by >=2x, with the autotuned software cache in between \
         (paper Sec. 3.2 explicit transfers, Sec. 4.2 software caches)",
        vec![
            "access path",
            "traversal cycles",
            "speedup vs naive",
            "gather plans",
            "configuration",
        ],
    );
    let (naive, naive_world, _) = measure(quick, &GraphAccess::Naive);
    let choice = tune(quick);
    let tuned_access = GraphAccess::Tuned(choice);
    let (tuned, tuned_world, _) = measure(quick, &tuned_access);
    let (gather, gather_world, plans) = measure(quick, &GraphAccess::Gather);
    for (path, world) in [("tuned", tuned_world), ("gather", gather_world)] {
        naive_world
            .diff(&world)
            .unwrap_or_else(|d| panic!("{path} must not change the world: {d}"));
    }
    assert!(
        gather * 2 <= naive,
        "acceptance budget: gather {gather} must be >=2x cheaper than naive {naive}"
    );
    assert!(
        gather <= tuned && tuned <= naive,
        "the tuned cache lands between: naive {naive}, tuned {tuned}, gather {gather}"
    );
    let desc = format!("{nodes} nodes, avg degree {degree}");
    table.push_row(vec![
        "naive per-edge derefs".into(),
        cycles(naive),
        speedup(naive, naive),
        "0".into(),
        desc.clone(),
    ]);
    table.push_row(vec![
        "autotuned softcache".into(),
        cycles(tuned),
        speedup(naive, tuned),
        "0".into(),
        choice.to_string(),
    ]);
    table.push_row(vec![
        "batched frontier gather".into(),
        cycles(gather),
        speedup(naive, gather),
        plans.to_string(),
        desc,
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_wins_by_the_budgeted_margin_and_hashes_agree() {
        let (naive, naive_world, _) = measure(true, &GraphAccess::Naive);
        let (gather, gather_world, plans) = measure(true, &GraphAccess::Gather);
        naive_world
            .diff(&gather_world)
            .unwrap_or_else(|d| panic!("bit-identical memory required: {d}"));
        assert!(plans > 0, "the gather variant must use the gather engine");
        assert!(
            gather * 2 <= naive,
            "the acceptance budget is 2x: gather {gather} vs naive {naive}"
        );
    }

    #[test]
    fn tuned_lands_between_naive_and_gather() {
        let (naive, naive_world, _) = measure(true, &GraphAccess::Naive);
        let choice = tune(true);
        let (tuned, tuned_world, _) = measure(true, &GraphAccess::Tuned(choice));
        let (gather, _, _) = measure(true, &GraphAccess::Gather);
        naive_world
            .diff(&tuned_world)
            .unwrap_or_else(|d| panic!("bit-identical memory required: {d}"));
        assert!(
            gather <= tuned && tuned < naive,
            "expected gather {gather} <= tuned {tuned} < naive {naive}"
        );
    }

    #[test]
    fn table_has_expected_shape() {
        let t = run(true);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 5);
    }
}

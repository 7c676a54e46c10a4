//! Seeded entity-interaction graph: the irregular-access workload.
//!
//! Game worlds carry graph-shaped state — who aggroed whom, which
//! entities share a squad, which islands of the level connect — and
//! traversing it is the opposite of the streaming loops the rest of
//! `gamekit` models: the frontier of a BFS names an unpredictable,
//! data-dependent set of main-memory locations. On an explicit-transfer
//! machine (paper Sec. 3.2) that pattern is where per-element remote
//! reads hurt most, and where the coalesced
//! [`gather`](simcell::AccelCtx::gather) batch earns its keep.
//!
//! The module provides:
//!
//! - [`InteractionGraph`]: a deterministic CSR adjacency (row offsets +
//!   column indices, both `u32` arrays in main memory) generated from a
//!   seed, mixing short "squad" edges with long-range "aggro" edges so
//!   neighbour lists are genuinely irregular.
//! - Host references [`InteractionGraph::host_bfs`] /
//!   [`InteractionGraph::host_components`] — the oracle every
//!   accelerator variant must reproduce bit-identically.
//! - Offloaded [`run_bfs`] / [`run_components`] parameterised by
//!   [`GraphAccess`]: naive per-edge outer reads, autotuned
//!   software-cache reads, or batched frontier gathers. All three write
//!   the same bytes; only the cycle bill differs (experiment E18).

use memspace::Addr;
use offload_rt::{ArrayAccessor, GatherView, RemoteSlice};
use simcell::{AccelCtx, Machine, SimError};
use softcache::CacheChoice;
use xrng::Rng;

/// Cycles charged per frontier node, identical across access variants
/// so E18's columns differ only by how the adjacency bytes move.
pub const NODE_COST: u64 = 4;

/// Cycles charged per traversed edge, identical across access variants.
pub const EDGE_COST: u64 = 2;

/// The sentinel "not yet visited" label in BFS levels and component
/// arrays.
pub const UNVISITED: u32 = u32::MAX;

/// A seeded entity-interaction graph in CSR form, resident in main
/// memory.
///
/// `row_offsets` holds `nodes + 1` monotonically non-decreasing `u32`
/// offsets; `col_indices` holds `edges` neighbour indices. Edges are
/// symmetric (if `a` interacts with `b`, `b` interacts with `a`), so
/// BFS levels and connected components are well defined.
///
/// # Example
///
/// ```
/// use gamekit::graph::{run_bfs, GraphAccess, InteractionGraph};
/// use simcell::{Machine, MachineConfig};
///
/// # fn main() -> Result<(), simcell::SimError> {
/// let mut machine = Machine::new(MachineConfig::small())?;
/// let graph = InteractionGraph::generate(&mut machine, 64, 4, 7)?;
/// let out = machine.alloc_main_slice::<u32>(graph.nodes())?;
/// run_bfs(&mut machine, &graph, 0, out, &GraphAccess::Gather)?;
/// assert_eq!(machine.host_read_pod::<u32>(out)?, 0); // source is level 0
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InteractionGraph {
    nodes: u32,
    edges: u32,
    row_offsets: Addr,
    col_indices: Addr,
}

impl InteractionGraph {
    /// Generates a graph with `nodes` entities and roughly
    /// `avg_degree` interactions each, writes its CSR arrays into main
    /// memory, and returns the handle.
    ///
    /// Half of each node's edge budget goes to near neighbours (squad
    /// cohesion, index-adjacent), half to uniformly random far nodes
    /// (aggro / cross-map interactions); every edge is mirrored so the
    /// adjacency is symmetric. All randomness flows from `seed`.
    ///
    /// # Errors
    ///
    /// Fails when main memory cannot hold the CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero.
    pub fn generate(
        machine: &mut Machine,
        nodes: u32,
        avg_degree: u32,
        seed: u64,
    ) -> Result<InteractionGraph, SimError> {
        assert!(nodes > 0, "an interaction graph needs at least one node");
        let mut rng = Rng::new(seed);
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); nodes as usize];
        for v in 0..nodes {
            let budget = rng.range_u32(avg_degree / 2, avg_degree + 1);
            for slot in 0..budget {
                let u = if slot % 2 == 0 {
                    // Squad edge: a near neighbour by index.
                    let hop = 1 + rng.below_u32(4);
                    (v + hop) % nodes
                } else {
                    // Aggro edge: anywhere on the map.
                    rng.below_u32(nodes)
                };
                if u == v {
                    continue;
                }
                adjacency[v as usize].push(u);
                adjacency[u as usize].push(v);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }

        let mut rows: Vec<u32> = Vec::with_capacity(nodes as usize + 1);
        let mut cols: Vec<u32> = Vec::new();
        rows.push(0);
        for list in &adjacency {
            cols.extend_from_slice(list);
            cols_len_guard(cols.len());
            rows.push(cols.len() as u32);
        }
        let edges = cols.len() as u32;

        let row_offsets = machine.alloc_main_slice::<u32>(nodes + 1)?;
        machine.main_mut().write_pod_slice(row_offsets, &rows)?;
        // An isolated graph (no edges at all) still needs a valid
        // address; allocate at least one element.
        let col_indices = machine.alloc_main_slice::<u32>(edges.max(1))?;
        if edges > 0 {
            machine.main_mut().write_pod_slice(col_indices, &cols)?;
        }
        Ok(InteractionGraph {
            nodes,
            edges,
            row_offsets,
            col_indices,
        })
    }

    /// Number of entities (nodes).
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of directed CSR entries (twice the interaction count).
    pub fn edges(&self) -> u32 {
        self.edges
    }

    /// Main-memory address of the `nodes + 1` row-offset `u32`s.
    pub fn row_offsets(&self) -> Addr {
        self.row_offsets
    }

    /// Main-memory address of the `edges` column-index `u32`s.
    pub fn col_indices(&self) -> Addr {
        self.col_indices
    }

    fn host_csr(&self, machine: &mut Machine) -> Result<(Vec<u32>, Vec<u32>), SimError> {
        let rows = machine.host_read_slice::<u32>(self.row_offsets, self.nodes + 1)?;
        let cols = if self.edges == 0 {
            Vec::new()
        } else {
            machine.host_read_slice::<u32>(self.col_indices, self.edges)?
        };
        Ok((rows, cols))
    }

    /// Host-side reference BFS from `src`: per-node level, or
    /// [`UNVISITED`] for unreachable nodes.
    ///
    /// # Errors
    ///
    /// Fails on bounds violations reading the CSR arrays.
    pub fn host_bfs(&self, machine: &mut Machine, src: u32) -> Result<Vec<u32>, SimError> {
        let (rows, cols) = self.host_csr(machine)?;
        let mut levels = vec![UNVISITED; self.nodes as usize];
        levels[src as usize] = 0;
        let mut frontier = vec![src];
        let mut depth = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for j in rows[v as usize]..rows[v as usize + 1] {
                    let u = cols[j as usize];
                    if levels[u as usize] == UNVISITED {
                        levels[u as usize] = depth + 1;
                        next.push(u);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        Ok(levels)
    }

    /// Host-side reference connected components: each node labelled
    /// with the smallest node index in its component.
    ///
    /// # Errors
    ///
    /// Fails on bounds violations reading the CSR arrays.
    pub fn host_components(&self, machine: &mut Machine) -> Result<Vec<u32>, SimError> {
        let (rows, cols) = self.host_csr(machine)?;
        let mut comp = vec![UNVISITED; self.nodes as usize];
        for root in 0..self.nodes {
            if comp[root as usize] != UNVISITED {
                continue;
            }
            comp[root as usize] = root;
            let mut frontier = vec![root];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &v in &frontier {
                    for j in rows[v as usize]..rows[v as usize + 1] {
                        let u = cols[j as usize];
                        if comp[u as usize] == UNVISITED {
                            comp[u as usize] = root;
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
        }
        Ok(comp)
    }
}

fn cols_len_guard(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "CSR column array exceeds u32 addressing"
    );
}

/// How an offloaded traversal reaches the CSR arrays in main memory.
#[derive(Clone, Debug)]
pub enum GraphAccess {
    /// One synchronous outer read per row offset and per edge — the
    /// pointer-chasing baseline (paper Sec. 3.2's worst case).
    Naive,
    /// Per-element reads through a software cache installed from the
    /// given (typically autotuned) choice.
    Tuned(CacheChoice),
    /// Per-level batched frontier gather: row-offset pairs then
    /// neighbour runs, each one coalesced descriptor batch
    /// ([`simcell::GatherPlan`]).
    Gather,
}

impl GraphAccess {
    /// Short column label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            GraphAccess::Naive => "naive",
            GraphAccess::Tuned(_) => "tuned",
            GraphAccess::Gather => "gather",
        }
    }

    /// The cache the traversal's offload installs: the tuned choice, or
    /// none, which makes every per-element read one outer access.
    fn cache(&self) -> CacheChoice {
        match self {
            GraphAccess::Tuned(choice) => *choice,
            GraphAccess::Naive | GraphAccess::Gather => CacheChoice::Naive,
        }
    }
}

#[derive(Clone, Copy)]
struct CsrDesc {
    rows: Addr,
    cols: Addr,
}

/// Reads one CSR element through the offload's installed cache, or as
/// one outer access when it has none.
fn read_elem(ctx: &mut AccelCtx<'_>, base: Addr, index: u32) -> Result<u32, SimError> {
    ctx.cached_read_pod::<u32>(base.element(index, 4)?)
}

/// Expands one BFS frontier: returns the concatenated neighbour lists
/// of `frontier`, charging [`NODE_COST`] per node and [`EDGE_COST`] per
/// edge regardless of access path. This is the function E18 times — per
/// element reads (naive or cached) and batched gathers move identical
/// bytes through entirely different machinery.
fn frontier_neighbours(
    ctx: &mut AccelCtx<'_>,
    csr: CsrDesc,
    frontier: &[u32],
    gather: bool,
) -> Result<Vec<u32>, SimError> {
    if gather {
        // Everything gathered this level is scratch: release it before
        // returning so deep traversals stay within the local store.
        let mark = ctx.local_alloc_mark();
        let result = gather_neighbours(ctx, csr, frontier);
        ctx.local_alloc_restore(mark);
        return result;
    }
    let mut neighbours = Vec::new();
    for &v in frontier {
        ctx.compute(NODE_COST);
        let start = read_elem(ctx, csr.rows, v)?;
        let end = read_elem(ctx, csr.rows, v + 1)?;
        for j in start..end {
            ctx.compute(EDGE_COST);
            neighbours.push(read_elem(ctx, csr.cols, j)?);
        }
    }
    Ok(neighbours)
}

fn gather_neighbours(
    ctx: &mut AccelCtx<'_>,
    csr: CsrDesc,
    frontier: &[u32],
) -> Result<Vec<u32>, SimError> {
    // Sort the frontier first: BFS levels and component labels do not
    // depend on expansion order, and a sorted frontier is what makes
    // the descriptor batches coalesce — consecutive nodes share row
    // offsets and have CSR-adjacent neighbour runs.
    let mut sorted = frontier.to_vec();
    sorted.sort_unstable();

    // One batch for the row offsets: the deduplicated union of v and
    // v+1 over the frontier. Runs of consecutive nodes collapse into
    // single ascending index runs, hence single descriptors.
    let mut row_indices: Vec<u32> = Vec::with_capacity(sorted.len() + 1);
    let mut bound_slots: Vec<(usize, usize)> = Vec::with_capacity(sorted.len());
    for &v in &sorted {
        let start = if row_indices.last() == Some(&v) {
            row_indices.len() - 1
        } else {
            row_indices.push(v);
            row_indices.len() - 1
        };
        row_indices.push(v + 1);
        bound_slots.push((start, row_indices.len() - 1));
    }
    let row_view = GatherView::<u32>::fetch(ctx, csr.rows, row_indices)?;
    let bounds = row_view.to_vec(ctx)?;

    // One batch for the neighbour lists: each node's `start..end` run
    // is consecutive, and consecutive nodes' runs are adjacent in the
    // CSR, so a dense stretch of frontier becomes one big descriptor.
    let mut col_indices = Vec::new();
    for slots in &bound_slots {
        ctx.compute(NODE_COST);
        col_indices.extend(bounds[slots.0]..bounds[slots.1]);
    }
    if col_indices.is_empty() {
        return Ok(Vec::new());
    }
    let edge_count = col_indices.len() as u64;
    let col_view = GatherView::<u32>::fetch(ctx, csr.cols, col_indices)?;
    ctx.compute(EDGE_COST * edge_count);
    col_view.to_vec(ctx)
}

fn bfs_levels(
    ctx: &mut AccelCtx<'_>,
    csr: CsrDesc,
    nodes: u32,
    src: u32,
    gather: bool,
) -> Result<Vec<u32>, SimError> {
    let mut levels = vec![UNVISITED; nodes as usize];
    levels[src as usize] = 0;
    let mut frontier = vec![src];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        let neighbours = frontier_neighbours(ctx, csr, &frontier, gather)?;
        let mut next = Vec::new();
        for u in neighbours {
            if levels[u as usize] == UNVISITED {
                levels[u as usize] = depth + 1;
                next.push(u);
            }
        }
        frontier = next;
        depth += 1;
    }
    Ok(levels)
}

fn write_out(ctx: &mut AccelCtx<'_>, out: Addr, values: &[u32]) -> Result<(), SimError> {
    let mut accessor = ArrayAccessor::<u32>::for_output(ctx, out, values.len() as u32)?;
    accessor.copy_from_slice(ctx, values)?;
    accessor.write_back(ctx)
}

/// Offloads a BFS from `src` over `graph`, writing the `nodes()` level
/// `u32`s to `out` in main memory. All [`GraphAccess`] variants write
/// identical bytes (pinned against [`InteractionGraph::host_bfs`] by
/// tests and by E18's memory-hash gate).
///
/// # Errors
///
/// Fails on local-store exhaustion, bounds violations, or (for
/// [`GraphAccess::Tuned`]) an invalid cache configuration.
pub fn run_bfs(
    machine: &mut Machine,
    graph: &InteractionGraph,
    src: u32,
    out: Addr,
    access: &GraphAccess,
) -> Result<(), SimError> {
    let csr = CsrDesc {
        rows: graph.row_offsets(),
        cols: graph.col_indices(),
    };
    let nodes = graph.nodes();
    let gather = matches!(access, GraphAccess::Gather);
    machine
        .offload(0)
        .label("graph_bfs")
        .cache(access.cache())
        .run(move |ctx| -> Result<(), SimError> {
            let levels = bfs_levels(ctx, csr, nodes, src, gather)?;
            write_out(ctx, out, &levels)
        })?
}

/// Offloads connected components over `graph`, writing each node's
/// label (the smallest node index in its component) to `out`.
///
/// # Errors
///
/// As for [`run_bfs`].
pub fn run_components(
    machine: &mut Machine,
    graph: &InteractionGraph,
    out: Addr,
    access: &GraphAccess,
) -> Result<(), SimError> {
    let csr = CsrDesc {
        rows: graph.row_offsets(),
        cols: graph.col_indices(),
    };
    let nodes = graph.nodes();
    let gather = matches!(access, GraphAccess::Gather);
    machine
        .offload(0)
        .label("graph_components")
        .cache(access.cache())
        .run(move |ctx| -> Result<(), SimError> {
            let mut comp = vec![UNVISITED; nodes as usize];
            for root in 0..nodes {
                if comp[root as usize] != UNVISITED {
                    continue;
                }
                comp[root as usize] = root;
                let mut frontier = vec![root];
                while !frontier.is_empty() {
                    let neighbours = frontier_neighbours(ctx, csr, &frontier, gather)?;
                    let mut next = Vec::new();
                    for u in neighbours {
                        if comp[u as usize] == UNVISITED {
                            comp[u as usize] = root;
                            next.push(u);
                        }
                    }
                    frontier = next;
                }
            }
            write_out(ctx, out, &comp)
        })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    fn csr_snapshot(machine: &mut Machine, g: &InteractionGraph) -> (Vec<u32>, Vec<u32>) {
        let rows = machine
            .host_read_slice::<u32>(g.row_offsets(), g.nodes() + 1)
            .unwrap();
        let cols = machine
            .host_read_slice::<u32>(g.col_indices(), g.edges())
            .unwrap();
        (rows, cols)
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let mut a = machine();
        let mut b = machine();
        let ga = InteractionGraph::generate(&mut a, 128, 6, 42).unwrap();
        let gb = InteractionGraph::generate(&mut b, 128, 6, 42).unwrap();
        assert_eq!(ga.edges(), gb.edges());
        assert_eq!(csr_snapshot(&mut a, &ga), csr_snapshot(&mut b, &gb));
        let mut c = machine();
        let gc = InteractionGraph::generate(&mut c, 128, 6, 43).unwrap();
        assert_ne!(csr_snapshot(&mut a, &ga), csr_snapshot(&mut c, &gc));
    }

    #[test]
    fn csr_is_well_formed_and_symmetric() {
        let mut m = machine();
        let g = InteractionGraph::generate(&mut m, 96, 5, 7).unwrap();
        let (rows, cols) = csr_snapshot(&mut m, &g);
        assert_eq!(rows.len(), 97);
        assert_eq!(*rows.last().unwrap(), g.edges());
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
        assert!(cols.iter().all(|&u| u < 96));
        // Symmetry: every (v, u) edge has a (u, v) mirror.
        for v in 0..96u32 {
            for j in rows[v as usize]..rows[v as usize + 1] {
                let u = cols[j as usize];
                let back = &cols[rows[u as usize] as usize..rows[u as usize + 1] as usize];
                assert!(back.contains(&v), "edge {v}->{u} has no mirror");
            }
        }
    }

    #[test]
    fn naive_bfs_matches_the_host_reference() {
        let mut m = machine();
        let g = InteractionGraph::generate(&mut m, 128, 4, 11).unwrap();
        let expect = g.host_bfs(&mut m, 3).unwrap();
        let out = m.alloc_main_slice::<u32>(g.nodes()).unwrap();
        run_bfs(&mut m, &g, 3, out, &GraphAccess::Naive).unwrap();
        let got = m.host_read_slice::<u32>(out, g.nodes()).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got[3], 0);
    }

    #[test]
    fn gather_bfs_is_bit_identical_to_naive() {
        let mut m = machine();
        let g = InteractionGraph::generate(&mut m, 160, 5, 23).unwrap();
        let expect = g.host_bfs(&mut m, 0).unwrap();
        let out_naive = m.alloc_main_slice::<u32>(g.nodes()).unwrap();
        let out_gather = m.alloc_main_slice::<u32>(g.nodes()).unwrap();
        run_bfs(&mut m, &g, 0, out_naive, &GraphAccess::Naive).unwrap();
        run_bfs(&mut m, &g, 0, out_gather, &GraphAccess::Gather).unwrap();
        let naive = m.host_read_slice::<u32>(out_naive, g.nodes()).unwrap();
        let gather = m.host_read_slice::<u32>(out_gather, g.nodes()).unwrap();
        assert_eq!(naive, expect);
        assert_eq!(gather, expect);
    }

    #[test]
    fn gather_traversal_is_cheaper_than_naive() {
        let mut m = machine();
        let g = InteractionGraph::generate(&mut m, 256, 6, 5).unwrap();
        let out = m.alloc_main_slice::<u32>(g.nodes()).unwrap();

        m.reset_stats();
        run_bfs(&mut m, &g, 0, out, &GraphAccess::Naive).unwrap();
        let naive = m.stats().accel_busy_cycles;

        m.reset_stats();
        run_bfs(&mut m, &g, 0, out, &GraphAccess::Gather).unwrap();
        let gathers = m.stats().gathers;
        let gather_cycles = m.stats().accel_busy_cycles;
        assert!(gathers > 0, "gather path must use the gather engine");
        assert!(
            gather_cycles * 2 <= naive,
            "batched frontier gather should be at least 2x cheaper: naive {naive}, \
             gather {gather_cycles}"
        );
    }

    #[test]
    fn components_agree_across_variants_and_label_by_min_node() {
        let mut m = machine();
        let g = InteractionGraph::generate(&mut m, 96, 3, 99).unwrap();
        let expect = g.host_components(&mut m).unwrap();
        let out_naive = m.alloc_main_slice::<u32>(g.nodes()).unwrap();
        let out_gather = m.alloc_main_slice::<u32>(g.nodes()).unwrap();
        run_components(&mut m, &g, out_naive, &GraphAccess::Naive).unwrap();
        run_components(&mut m, &g, out_gather, &GraphAccess::Gather).unwrap();
        assert_eq!(
            m.host_read_slice::<u32>(out_naive, g.nodes()).unwrap(),
            expect
        );
        assert_eq!(
            m.host_read_slice::<u32>(out_gather, g.nodes()).unwrap(),
            expect
        );
        // Labels are component minima, so node 0 always labels itself.
        assert_eq!(expect[0], 0);
    }
}

//! Deterministic multi-accelerator tile scheduling.
//!
//! The paper's frame loop (§4.1, Figure 2) offloads one task per
//! accelerator by hand. Once a task is tiled finer than the
//! accelerator count — or the tiles stop costing the same — someone
//! has to decide *which* accelerator runs *which* tile, and that
//! decision is a scheduler. This module layers three of them over
//! [`simcell::Machine`], all deterministic (the simulation stays
//! sequential; "parallelism" is the cycle accounting):
//!
//! - [`SchedPolicy::Static`]: block-split tiles over accelerators up
//!   front, exactly the hand-rolled split of the E14 experiment. Tile
//!   `t` of `T` on accelerator `base + t*A/T`-ish; with `T == A` this
//!   reproduces the classic one-offload-per-accelerator frame
//!   bit-identically.
//! - [`SchedPolicy::ShortestQueue`]: greedy — each tile, in order,
//!   goes to the accelerator that frees up earliest.
//! - [`SchedPolicy::WorkStealing`]: per-accelerator deques seeded with
//!   the static split; an accelerator that drains its own deque steals
//!   the *back* tile of the most-loaded queue, paying
//!   [`TileScheduler::steal_cost`] simulated cycles for the cross-queue
//!   grab. A steal is taken only when profitable — the thief, steal
//!   cost included, must start the tile strictly before the victim
//!   could even begin its own queue's remainder — so every stolen tile
//!   finishes no later than it would have under [`SchedPolicy::Static`]
//!   and work stealing can only recover cycles, never lose them (the
//!   seeded property test in `bench` exercises this over random
//!   tile-cost vectors).
//!
//! Every enqueue, run, steal and idle gap is recorded as a
//! zero-simulated-cost structured event in the machine's [`EventLog`];
//! the Chrome exporter renders them as one scheduler lane per
//! accelerator (see `simcell::trace` and the repository's
//! `PROFILING.md`).
//!
//! # Recovery
//!
//! The `.faults(plan)` / `.retry(n)` / `.backoff(c)` / `.fallback_host()`
//! chain arms the recovery policy documented once, on
//! [`simcell::RecoverySettings`]: transient faults retry with backoff,
//! dead accelerators are evicted mid-dispatch and their queued tiles
//! redistributed round-robin over the survivors, and what is left
//! degrades to the host.
//!
//! # Example
//!
//! ```
//! use offload_rt::sched::{SchedExt, SchedPolicy};
//! use simcell::{Machine, MachineConfig, SimError};
//!
//! # fn main() -> Result<(), SimError> {
//! let mut machine = Machine::new(MachineConfig::default())?;
//! let costs = [40_000u64, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000, 5_000];
//! let (ends, report) = machine
//!     .offload(0)
//!     .label("tile")
//!     .sched(SchedPolicy::WorkStealing)
//!     .accels(4)
//!     .run_tiles(8, |ctx, tile| {
//!         ctx.compute(costs[tile as usize]);
//!         Ok(ctx.now())
//!     })?;
//! assert_eq!(ends.len(), 8);
//! assert_eq!(report.tiles, 8);
//! # Ok(())
//! # }
//! ```
//!
//! [`EventLog`]: simcell::EventLog

use std::collections::VecDeque;

use simcell::cost::check_cycles;
use simcell::{
    AccelCtx, EventKind, FaultError, Launch, LaunchSettings, Machine, MachineStats, OffloadBuilder,
    OffloadHandle, RecoveryKind, RecoverySettings, SimError,
};

/// How a [`TileScheduler`] maps tiles onto accelerators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Block-split tiles over accelerators up front: accelerator `a`
    /// of `A` owns tiles `[T*a/A, T*(a+1)/A)`. With one tile per
    /// accelerator this is bit-identical to launching one offload per
    /// accelerator by hand (the E14 shape).
    Static,
    /// Greedy: each tile, in tile order, goes to the accelerator that
    /// frees up earliest (ties to the lowest index).
    ShortestQueue,
    /// Static seeding plus stealing: an accelerator whose own deque is
    /// empty takes the back tile of the most-loaded queue when doing
    /// so is strictly profitable, paying the configured steal cost.
    WorkStealing,
}

impl SchedPolicy {
    /// Short lower-case name for report rows ("static", "shortest-queue",
    /// "work-stealing").
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Static => "static",
            SchedPolicy::ShortestQueue => "shortest-queue",
            SchedPolicy::WorkStealing => "work-stealing",
        }
    }
}

/// Simulated cycles a work-stealing thief pays to grab a tile from
/// another accelerator's queue (a cross-local-store descriptor pull:
/// two high-latency accesses' worth under the Cell-like cost model).
pub const DEFAULT_STEAL_COST: u64 = 600;

/// Extends [`OffloadBuilder`] with the scheduler entry point, so a
/// tiled dispatch reads as one fluent chain:
/// `machine.offload(0).label("ai").cache(choice).sched(policy)`.
pub trait SchedExt<'m> {
    /// Turns the configured offload into a [`TileScheduler`] running
    /// under `policy`. The builder's accelerator index becomes the
    /// first lane; its label and cache choice apply to every tile.
    fn sched(self, policy: SchedPolicy) -> TileScheduler<'m>;
}

impl<'m> SchedExt<'m> for OffloadBuilder<'m> {
    fn sched(self, policy: SchedPolicy) -> TileScheduler<'m> {
        TileScheduler {
            offload: self,
            accels: None,
            policy,
            steal_cost: DEFAULT_STEAL_COST,
        }
    }
}

/// A configured tile dispatch over several accelerators: the offload it
/// fans out, with its [`Launch`], plus the scheduling knobs.
///
/// Built by [`SchedExt::sched`]; consumed by
/// [`TileScheduler::run_tiles`].
#[must_use = "a tile scheduler does nothing until run_tiles"]
#[derive(Debug)]
pub struct TileScheduler<'m> {
    offload: OffloadBuilder<'m>,
    accels: Option<u16>,
    policy: SchedPolicy,
    steal_cost: u64,
}

impl LaunchSettings for TileScheduler<'_> {
    fn launch_mut(&mut self) -> &mut Launch {
        self.offload.launch_mut()
    }
}

impl RecoverySettings for TileScheduler<'_> {}

/// One lane's row in a [`SchedReport`] or a
/// [`PipeReport`](crate::PipeReport): an accelerator that ran a
/// dispatch's tiles, or one pipeline stage.
///
/// # Busy / idle / stall
///
/// Both reports share one vocabulary, exposed by the same three
/// accessors on each (`busy_cycles`, `idle_cycles`, `stall_cycles`):
///
/// | term | meaning (simulated cycles) |
/// |-------|---------------------------|
/// | busy  | a lane was executing items: compute, transfers, and any stalls charged to the item ([`LaneReport::busy`]; `busy_cycles` sums it over the lanes) |
/// | idle  | a lane had nothing to run between the run's start and the last item finishing anywhere ([`LaneReport::idle`]; `idle_cycles` sums it) |
/// | stall | items were blocked on coordination rather than work — steal costs in a dispatch, input waits and backpressure in a pipeline (`stall_cycles`) |
///
/// Stall cycles are a *breakdown*, not a third bucket: they were
/// charged somewhere (to the thief's lane in a dispatch, to the stage's
/// item in a pipeline), so they are already inside the busy/cycle
/// totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneReport {
    /// The accelerator the lane ran on.
    pub accel: u16,
    /// The lane's trace label: the dispatch's label, or the stage's name.
    pub name: &'static str,
    /// Items the lane ran: tiles, or pipeline chunks.
    pub items: u32,
    /// Cycles spent running items.
    pub busy: u64,
    /// Cycles spent idle between the run's start and the last item end
    /// anywhere (the gaps the scheduler lane shows as `idle`).
    pub idle: u64,
}

/// What a [`TileScheduler::run_tiles`] dispatch did, for reports and
/// assertions. All cycle figures are simulated cycles; busy, idle and
/// stall are defined on [`LaneReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedReport {
    /// The policy that produced this schedule.
    pub policy: SchedPolicy,
    /// Tiles dispatched.
    pub tiles: u32,
    /// Accelerator lanes used.
    pub accels: u16,
    /// Host cycles from entering `run_tiles` to the last join.
    pub cycles: u64,
    /// Cycle at which the last tile finished (absolute machine time).
    pub finished_at: u64,
    /// One row per accelerator lane.
    pub lanes: Vec<LaneReport>,
    /// Tiles that moved queues under work stealing.
    pub steals: u32,
    /// Total cycles thieves paid grabbing those tiles.
    pub steal_cycles: u64,
    /// Faults the plane injected during the dispatch (all kinds).
    pub faults: u64,
    /// Tile retries the recovery layer performed.
    pub retries: u64,
    /// Tiles that degraded to host execution.
    pub fallbacks: u64,
    /// Accelerators evicted mid-dispatch after the fault plane killed
    /// them, in eviction order.
    pub evicted: Vec<u16>,
}

impl SchedReport {
    /// Total busy cycles: the sum of [`LaneReport::busy`] over every
    /// lane (see the busy/idle/stall table on [`LaneReport`]).
    pub fn busy_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.busy).sum()
    }

    /// Total idle cycles: the sum of [`LaneReport::idle`] over every
    /// lane.
    pub fn idle_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.idle).sum()
    }

    /// Total coordination-stall cycles: for tile dispatch, the cycles
    /// thieves paid moving stolen tiles between queues
    /// ([`SchedReport::steal_cycles`]).
    pub fn stall_cycles(&self) -> u64 {
        self.steal_cycles
    }

    /// Load imbalance of the schedule: max over mean busy cycles
    /// across the lanes that ran anything (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.busy)
            .filter(|&b| b > 0)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        max / mean
    }
}

/// One dispatched tile, pending join.
struct Dispatch<R> {
    tile: u32,
    handle: OffloadHandle<Result<R, SimError>>,
}

impl<'m> TileScheduler<'m> {
    /// Restricts the dispatch to the first `n` accelerator lanes
    /// (starting at the builder's accelerator). Defaults to every
    /// accelerator from there up.
    pub fn accels(mut self, n: u16) -> TileScheduler<'m> {
        self.accels = Some(n);
        self
    }

    /// Sets the simulated cycles a work-stealing thief pays per stolen
    /// tile (default [`DEFAULT_STEAL_COST`], at most
    /// [`MAX_CYCLES`](simcell::MAX_CYCLES)). Ignored by the other
    /// policies.
    pub fn steal_cost(mut self, cycles: u64) -> TileScheduler<'m> {
        self.steal_cost = cycles;
        self
    }

    /// Dispatches `tiles` tiles through the policy and joins them all.
    ///
    /// The closure runs once per tile (in scheduler-determined order —
    /// it must not care) against the accelerator context the tile
    /// landed on; stolen tiles are charged the steal cost *before* the
    /// closure runs. Returns the per-tile results indexed by tile,
    /// plus the [`SchedReport`]. Joins happen in tile order for every
    /// policy, so a policy changes cycle accounting, never results.
    ///
    /// With a fault plan armed, retries/evictions/fallbacks happen as
    /// described on [`RecoverySettings`]; a tile that reaches the host
    /// fallback may re-run the closure there, so the closure must
    /// tolerate re-execution from a clean local-store mark.
    ///
    /// # Errors
    ///
    /// Fails before anything is armed if the steal cost is out of
    /// bounds or [`OffloadBuilder::fan_out`] refuses the dispatch (a
    /// lane range the machine lacks, a cache a lane cannot hold,
    /// builder-declared gathers, a bad plan or recovery policy); then
    /// with the first tile error (by tile index) the closure returned. An injected fault the recovery layer could not absorb
    /// (retries exhausted without
    /// [`fallback_host`](RecoverySettings::fallback_host), or every lane
    /// dead) surfaces as [`SimError::Fault`].
    pub fn run_tiles<R>(
        self,
        tiles: u32,
        mut f: impl FnMut(&mut AccelCtx<'_>, u32) -> Result<R, SimError>,
    ) -> Result<(Vec<R>, SchedReport), SimError> {
        let TileScheduler {
            offload,
            accels,
            policy,
            steal_cost,
        } = self;
        check_cycles("steal cost", steal_cost)?;
        let (machine, lanes, launch) = offload.fan_out(accels)?;
        let lanes: Vec<u16> = lanes.collect();
        let t0 = machine.host_now();
        let s0 = *machine.stats();
        let mut dispatches: Vec<Dispatch<R>> = Vec::with_capacity(tiles as usize);
        let mut steals = 0u32;
        let mut steal_cycles = 0u64;
        let mut losses = Losses {
            evicted: Vec::new(),
            stranded: Vec::new(),
            fallback: launch.fallback,
        };

        // One launch, shared by every policy: run the tile (stolen
        // tiles pay the grab first, retried tiles their backoff) and
        // note the run on the timeline.
        let mut spawn = |machine: &mut Machine,
                         lane: u16,
                         tile: u32,
                         stolen_from: Option<u16>|
         -> Result<Dispatch<R>, SimError> {
            let handle = machine
                .offload(lane)
                .label(launch.label)
                .cache(launch.cache)
                .with_modes(launch.modes.clone())
                .spawn(|ctx| {
                    if stolen_from.is_some() {
                        ctx.compute(steal_cost);
                    }
                    launch.run_item(ctx, tile, &mut f)
                })?;
            if let Some(victim) = stolen_from {
                let steal = EventKind::SchedSteal {
                    thief: lane,
                    victim,
                    tile,
                    cost: steal_cost,
                };
                machine.note(handle.start(), steal);
                steals += 1;
                steal_cycles += steal_cost;
            }
            let run = EventKind::SchedRun {
                accel: lane,
                tile,
                end: handle.end(),
                stolen_from,
            };
            machine.note(handle.start(), run);
            Ok(Dispatch { tile, handle })
        };

        match policy {
            SchedPolicy::Static => {
                let mut queues = split_queues(machine, t0, tiles, &lanes);
                // Sweep the lanes in order, popping one front tile per
                // lane per pass — position-major launch order: the
                // first tile of each lane, then the second of each, …
                // With one tile per lane this is exactly the
                // hand-rolled E14 loop.
                let mut remaining = tiles;
                'dispatch: while remaining > 0 {
                    let mut i = 0;
                    while i < queues.len() {
                        let Some(tile) = queues[i].1.pop_front() else {
                            i += 1;
                            continue;
                        };
                        let lane = queues[i].0;
                        match spawn(machine, lane, tile, None) {
                            Ok(d) => {
                                dispatches.push(d);
                                remaining -= 1;
                                i += 1;
                            }
                            Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                                // The eviction slides the next lane into
                                // slot i, so this sweep continues
                                // without skipping it.
                                queues[i].1.push_front(tile);
                                if !losses.evict(machine, &mut queues, i)? {
                                    break 'dispatch;
                                }
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
            SchedPolicy::ShortestQueue => {
                let mut live = lanes.clone();
                for tile in 0..tiles {
                    loop {
                        let Some(&lane) = live.iter().min_by_key(|&&l| {
                            machine.accel_free_at(l).expect("lane checked above")
                        }) else {
                            // Every lane is dead; the last eviction is
                            // the fault that stranded this tile.
                            let dead = *losses.evicted.last().expect("emptied by eviction");
                            losses.strand(dead, [tile])?;
                            break;
                        };
                        let enqueue = EventKind::SchedEnqueue { accel: lane, tile };
                        machine.note(machine.host_now(), enqueue);
                        match spawn(machine, lane, tile, None) {
                            Ok(d) => {
                                dispatches.push(d);
                                break;
                            }
                            Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                                live.retain(|&l| l != lane);
                                losses.evicted.push(lane);
                                let recovery = RecoveryKind::Evict { tiles_moved: 1 };
                                let evict = EventKind::RecoveryApplied {
                                    accel: lane,
                                    recovery,
                                };
                                machine.note(machine.host_now(), evict);
                                // Greedy has no queue to drain: the
                                // bounced tile just re-picks among the
                                // survivors.
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
            SchedPolicy::WorkStealing => {
                let mut queues = split_queues(machine, t0, tiles, &lanes);
                let mut pending = tiles;
                while pending > 0 {
                    // Lanes in becomes-free order; the first that can
                    // act (own work, or a profitable steal) dispatches.
                    // The most-loaded lane can always pop its own
                    // front, so one pass always picks something.
                    let mut order: Vec<usize> = (0..queues.len()).collect();
                    order.sort_by_key(|&i| {
                        machine
                            .accel_free_at(queues[i].0)
                            .expect("lane checked above")
                    });
                    let next_floor = machine.host_now() + machine.cost().offload_launch;
                    let mut choice: Option<(usize, u32, Option<usize>)> = None;
                    for &i in &order {
                        if let Some(tile) = queues[i].1.pop_front() {
                            choice = Some((i, tile, None));
                            break;
                        }
                        // Own deque empty: steal the back tile of the
                        // most-loaded victim, but only if the thief —
                        // launch floor and steal cost included — starts
                        // it strictly before the victim is even free.
                        // That bound keeps every stolen tile's end at
                        // or before its static end.
                        let thief_free = machine
                            .accel_free_at(queues[i].0)
                            .expect("lane checked above");
                        let thief_eff = thief_free.max(next_floor);
                        let victim = order
                            .iter()
                            .rev()
                            .copied()
                            .find(|&j| j != i && !queues[j].1.is_empty());
                        if let Some(j) = victim {
                            let victim_free = machine
                                .accel_free_at(queues[j].0)
                                .expect("lane checked above");
                            if thief_eff + steal_cost < victim_free {
                                let tile = queues[j].1.pop_back().expect("checked non-empty");
                                choice = Some((i, tile, Some(j)));
                                break;
                            }
                        }
                    }
                    let (i, tile, victim) =
                        choice.expect("some live lane always owns a runnable tile");
                    let lane = queues[i].0;
                    match spawn(machine, lane, tile, victim.map(|j| queues[j].0)) {
                        Ok(d) => {
                            dispatches.push(d);
                            pending -= 1;
                        }
                        Err(SimError::Fault(FaultError::AccelDead { .. })) => {
                            // Put the tile back where it came from,
                            // then evict the dead lane (the survivors'
                            // thieves rebalance its deque from there).
                            match victim {
                                Some(j) => queues[j].1.push_back(tile),
                                None => queues[i].1.push_front(tile),
                            }
                            if !losses.evict(machine, &mut queues, i)? {
                                break;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }

        // Join in tile order for every policy: results are
        // policy-independent, and the host-clock accounting matches
        // the hand-rolled dispatch-then-join-in-order frame loop.
        dispatches.sort_by_key(|d| d.tile);
        let mut runs: Vec<(u16, u64, u64)> = dispatches
            .iter()
            .map(|d| (d.handle.accel(), d.handle.start(), d.handle.end()))
            .collect();
        let mut results: Vec<Option<R>> = Vec::with_capacity(tiles as usize);
        results.resize_with(tiles as usize, || None);
        let Losses {
            evicted,
            stranded: mut failed,
            fallback,
        } = losses;
        let mut first_err: Option<SimError> = None;
        for d in dispatches {
            let accel = d.handle.accel();
            match machine.join(d.handle) {
                Ok(r) => results[d.tile as usize] = Some(r),
                Err(SimError::Fault(_)) if fallback => failed.push((d.tile, accel)),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        // Last resort: re-run every unrecovered tile on the host, in
        // tile order.
        failed.sort_by_key(|&(tile, _)| tile);
        for (tile, accel) in failed {
            let modes = launch.modes.clone();
            let r = machine
                .run_host_fallback(accel, tile, launch.label, modes, |ctx| f(ctx, tile))??;
            results[tile as usize] = Some(r);
        }
        let results: Vec<R> = results
            .into_iter()
            .map(|r| r.expect("every tile either resolved or errored out above"))
            .collect();

        // Per-lane occupancy, noting the idle gaps the trace's
        // scheduler lanes render (zero simulated cost).
        let named = lanes.iter().map(|&lane| (lane, launch.label));
        let (lanes, finished_at) = fold_lanes(t0, named, &mut runs, |lane, from, until| {
            machine.note(from, EventKind::SchedIdle { accel: lane, until })
        });
        let (faults, retries, fallbacks) = recovery_since(machine, &s0);
        let report = SchedReport {
            policy,
            tiles,
            accels: lanes.len() as u16,
            cycles: machine.host_now() - t0,
            finished_at,
            lanes,
            steals,
            steal_cycles,
            faults,
            retries,
            fallbacks,
            evicted,
        };
        Ok((results, report))
    }
}

/// What accelerator deaths did to a dispatch: the lanes evicted, in
/// order, and the tiles stranded when none survived, each with the
/// lane it was bound for, awaiting the host `fallback`.
struct Losses {
    evicted: Vec<u16>,
    stranded: Vec<(u32, u16)>,
    fallback: bool,
}

impl Losses {
    /// Evicts queue `i`, whose accelerator just died, and round-robins
    /// its tiles over the surviving queues. With no survivor the tiles
    /// are stranded (`Ok(false)`).
    fn evict(
        &mut self,
        machine: &mut Machine,
        queues: &mut Vec<(u16, VecDeque<u32>)>,
        i: usize,
    ) -> Result<bool, SimError> {
        let (dead, orphans) = queues.remove(i);
        self.evicted.push(dead);
        let recovery = RecoveryKind::Evict {
            tiles_moved: orphans.len() as u32,
        };
        let evict = EventKind::RecoveryApplied {
            accel: dead,
            recovery,
        };
        machine.note(machine.host_now(), evict);
        if queues.is_empty() {
            self.strand(dead, orphans)?;
            return Ok(false);
        }
        let survivors = queues.len();
        for (k, t) in orphans.into_iter().enumerate() {
            let (lane, queue) = &mut queues[k % survivors];
            queue.push_back(t);
            let enqueue = EventKind::SchedEnqueue {
                accel: *lane,
                tile: t,
            };
            machine.note(machine.host_now(), enqueue);
        }
        Ok(true)
    }

    /// Strands `tiles` after the last live lane, `dead`, died; without
    /// a host fallback the death is the dispatch's error.
    fn strand(&mut self, dead: u16, tiles: impl IntoIterator<Item = u32>) -> Result<(), SimError> {
        if !self.fallback {
            return Err(FaultError::AccelDead { accel: dead }.into());
        }
        self.stranded.extend(tiles.into_iter().map(|t| (t, dead)));
        Ok(())
    }
}

/// Folds item runs `(accel, start, end)` into one [`LaneReport`] per
/// `(accel, name)` lane, in lane order, passing every idle stretch to
/// `gap(accel, from, until)`. Returns the rows and the cycle the last
/// item finished (`t0` when none ran). Shared with the pipeline
/// runtime (`crate::pipeline`).
pub(crate) fn fold_lanes(
    t0: u64,
    lanes: impl Iterator<Item = (u16, &'static str)>,
    runs: &mut [(u16, u64, u64)],
    mut gap: impl FnMut(u16, u64, u64),
) -> (Vec<LaneReport>, u64) {
    let finished_at = runs.iter().map(|&(_, _, end)| end).max().unwrap_or(t0);
    runs.sort_by_key(|&(accel, start, _)| (accel, start));
    let rows = lanes
        .map(|(accel, name)| {
            let mut cursor = t0;
            let mut busy = 0u64;
            let mut items = 0u32;
            for &(_, start, end) in runs.iter().filter(|&&(a, ..)| a == accel) {
                if start > cursor {
                    gap(accel, cursor, start);
                }
                busy += end - start;
                items += 1;
                cursor = cursor.max(end);
            }
            if finished_at > cursor {
                gap(accel, cursor, finished_at);
            }
            LaneReport {
                accel,
                name,
                items,
                busy,
                idle: finished_at.saturating_sub(t0).saturating_sub(busy),
            }
        })
        .collect();
    (rows, finished_at)
}

/// The faults injected, retries and host fallbacks the machine counted
/// since `before`: the recovery totals of a [`SchedReport`] or a
/// [`PipeReport`](crate::PipeReport).
pub(crate) fn recovery_since(machine: &Machine, before: &MachineStats) -> (u64, u64, u64) {
    let now = machine.stats();
    (
        now.faults_injected - before.faults_injected,
        now.recovery_retries - before.recovery_retries,
        now.recovery_fallbacks - before.recovery_fallbacks,
    )
}

/// Block split of `tiles` over the lanes, one queue per lane: lane `a`
/// of `A` owns tiles `[T*a/A, T*(a+1)/A)`, front-to-back. Every enqueue
/// is noted at `t0`.
fn split_queues(
    machine: &mut Machine,
    t0: u64,
    tiles: u32,
    lanes: &[u16],
) -> Vec<(u16, VecDeque<u32>)> {
    let a = lanes.len() as u32;
    (0..a)
        .zip(lanes)
        .map(|(i, &lane)| {
            let queue: VecDeque<u32> = (tiles * i / a..tiles * (i + 1) / a).collect();
            for &tile in &queue {
                machine.note(t0, EventKind::SchedEnqueue { accel: lane, tile });
            }
            (lane, queue)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::{EventKind, FaultPlan, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default()).unwrap()
    }

    fn run_policy(policy: SchedPolicy, costs: &[u64], accels: u16) -> (u64, SchedReport) {
        let mut m = machine();
        let t0 = m.host_now();
        let (_, report) = m
            .offload(0)
            .sched(policy)
            .accels(accels)
            .run_tiles(costs.len() as u32, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(())
            })
            .unwrap();
        (m.host_now() - t0, report)
    }

    #[test]
    fn static_one_tile_per_lane_is_bit_identical_to_hand_rolled_offloads() {
        let costs = [30_000u64, 42_000, 27_000, 35_000];
        let mut by_hand = machine();
        let mut handles = Vec::new();
        for (a, &c) in costs.iter().enumerate() {
            handles.push(
                by_hand
                    .offload(a as u16)
                    .spawn(move |ctx| ctx.compute(c))
                    .unwrap(),
            );
        }
        for h in handles {
            by_hand.join(h);
        }
        let (sched_cycles, report) = run_policy(SchedPolicy::Static, &costs, 4);
        assert_eq!(sched_cycles, by_hand.host_now());
        assert_eq!(report.cycles, sched_cycles);
        assert_eq!(report.steals, 0);
        assert_eq!(report.lanes.len(), 4);
        assert!(report.lanes.iter().all(|l| l.items == 1));
    }

    #[test]
    fn work_stealing_recovers_most_of_a_skewed_static_schedule() {
        // Two hot tiles land on lane 0 under the static split; lanes
        // 2 and 3 finish early and steal them.
        let costs = [
            120_000u64, 120_000, 8_000, 8_000, 8_000, 8_000, 8_000, 8_000,
        ];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 4);
        let (ws_cycles, report) = run_policy(SchedPolicy::WorkStealing, &costs, 4);
        assert!(report.steals > 0, "skew this strong must trigger steals");
        assert_eq!(
            report.steal_cycles,
            u64::from(report.steals) * DEFAULT_STEAL_COST
        );
        assert!(
            ws_cycles * 5 < static_cycles * 4,
            "stealing should recover >20%: {ws_cycles} vs {static_cycles}"
        );
    }

    #[test]
    fn work_stealing_matches_static_exactly_on_uniform_tiles() {
        let costs = [25_000u64; 6];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 6);
        let (ws_cycles, report) = run_policy(SchedPolicy::WorkStealing, &costs, 6);
        assert_eq!(ws_cycles, static_cycles, "no profitable steal exists");
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn shortest_queue_fills_the_least_loaded_lane() {
        // One long tile first: the greedy policy routes the rest away
        // from the busy lane, beating the block split.
        let costs = [200_000u64, 10_000, 10_000, 10_000, 10_000, 10_000];
        let (static_cycles, _) = run_policy(SchedPolicy::Static, &costs, 3);
        let (sq_cycles, report) = run_policy(SchedPolicy::ShortestQueue, &costs, 3);
        assert!(sq_cycles < static_cycles);
        assert_eq!(report.lanes.iter().map(|l| l.items).sum::<u32>(), 6);
    }

    #[test]
    fn results_are_indexed_by_tile_under_every_policy() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let mut m = machine();
            let (results, _) = m
                .offload(0)
                .sched(policy)
                .accels(3)
                .run_tiles(10, |ctx, tile| {
                    ctx.compute(u64::from(10 - tile) * 9_000);
                    Ok(tile * 7)
                })
                .unwrap();
            let expect: Vec<u32> = (0..10).map(|t| t * 7).collect();
            assert_eq!(results, expect, "{policy:?}");
        }
    }

    #[test]
    fn dispatch_records_sched_events_and_idle_gaps() {
        let mut m = machine();
        m.events_mut().set_enabled(true);
        let costs = [90_000u64, 9_000, 9_000, 9_000];
        let (_, report) = m
            .offload(0)
            .sched(SchedPolicy::Static)
            .accels(2)
            .run_tiles(4, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(())
            })
            .unwrap();
        let events = m.events().events();
        let enqueues = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SchedEnqueue { .. }))
            .count();
        let runs = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SchedRun { .. }))
            .count();
        let idles = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SchedIdle { .. }))
            .count();
        assert_eq!(enqueues, 4);
        assert_eq!(runs, 4);
        assert!(idles > 0, "lane 1 finishes early and must show an idle gap");
        // Lane 0 carries the hot tile; the report calls that out.
        assert!(report.imbalance() > 1.2, "imbalance {}", report.imbalance());
        let stats = m.stats();
        assert_eq!(stats.sched_tiles, 4);
        assert!(stats.sched_idle_cycles > 0);
    }

    #[test]
    fn stolen_tiles_pay_the_configured_cost_and_results_survive() {
        let costs = [150_000u64, 150_000, 5_000, 5_000, 5_000, 5_000];
        let mut m = machine();
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::WorkStealing)
            .accels(3)
            .steal_cost(2_500)
            .run_tiles(6, |ctx, tile| {
                ctx.compute(costs[tile as usize]);
                Ok(tile)
            })
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        assert!(report.steals > 0);
        assert_eq!(report.steal_cycles, u64::from(report.steals) * 2_500);
        assert_eq!(m.stats().sched_steals, u64::from(report.steals));
    }

    #[test]
    fn lane_ranges_are_validated() {
        let mut m = machine();
        let err = m
            .offload(4)
            .sched(SchedPolicy::Static)
            .accels(5)
            .run_tiles(4, |_, _| Ok(()));
        assert!(err.is_err(), "4..9 exceeds a 6-accel machine");
        let ok = m
            .offload(4)
            .sched(SchedPolicy::Static)
            .run_tiles(4, |ctx, _| {
                ctx.compute(1_000);
                Ok(())
            });
        assert!(ok.is_ok(), "defaulting to the remaining lanes fits");
    }

    /// A tile body with a real DMA round trip, so transfer faults have
    /// something to hit: fetch one u32, return it.
    fn fetch_tile(
        machine: &mut Machine,
        values: &[u32],
    ) -> (
        memspace::Addr,
        impl Fn(&mut AccelCtx<'_>, u32) -> Result<u32, SimError>,
    ) {
        let remote = machine
            .alloc_main_slice::<u32>(values.len() as u32)
            .unwrap();
        machine.main_mut().write_pod_slice(remote, values).unwrap();
        let base = remote;
        let body = move |ctx: &mut AccelCtx<'_>, tile: u32| -> Result<u32, SimError> {
            let local = ctx.alloc_local(4, 16)?;
            let tag = dma::Tag::new(3).unwrap();
            ctx.dma_get(local, base.offset_by(tile * 4)?, 4, tag)?;
            ctx.dma_wait_tag(tag);
            ctx.check_faults()?;
            ctx.compute(5_000);
            ctx.local_read_pod::<u32>(local)
        };
        (remote, body)
    }

    #[test]
    fn retries_absorb_transient_dma_faults() {
        let values: Vec<u32> = (0..12).map(|i| i * 11 + 7).collect();
        let mut m = machine();
        let (_, body) = fetch_tile(&mut m, &values);
        let (results, report) = m
            .offload(0)
            .faults(FaultPlan::new(0xfab).with_dma_corrupt(0.5))
            .sched(SchedPolicy::Static)
            .accels(4)
            .retry(6)
            .backoff(800)
            .run_tiles(12, body)
            .unwrap();
        assert_eq!(results, values, "retried tiles must re-fetch clean data");
        assert!(
            report.faults > 0,
            "a 50% corrupt rate must fire over 12 DMAs"
        );
        assert!(report.retries > 0);
        assert_eq!(report.retries, m.stats().recovery_retries);
        assert_eq!(
            m.stats().recovery_backoff_cycles,
            report.retries * 800,
            "every retry charges the configured backoff"
        );
        assert_eq!(report.fallbacks, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_host_fallback() {
        // Every transfer corrupts: no retry budget can absorb that, so
        // with fallback_host every tile completes on the host instead.
        let values: Vec<u32> = (0..6).map(|i| 1000 - i).collect();
        let mut m = machine();
        let (_, body) = fetch_tile(&mut m, &values);
        let (results, report) = m
            .offload(0)
            .faults(FaultPlan::new(7).with_dma_corrupt(1.0))
            .sched(SchedPolicy::ShortestQueue)
            .accels(3)
            .retry(2)
            .fallback_host()
            .run_tiles(6, body)
            .unwrap();
        assert_eq!(results, values, "host fallback runs fault-free");
        assert_eq!(report.fallbacks, 6);
        assert_eq!(report.retries, 12, "2 retries per tile before giving up");
        assert!(m.stats().recovery_fallback_cycles > 0);
    }

    #[test]
    fn dead_lanes_are_evicted_and_survivors_absorb_their_tiles() {
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::ShortestQueue,
            SchedPolicy::WorkStealing,
        ] {
            let mut m = machine();
            let (results, report) = m
                .offload(0)
                .faults(FaultPlan::new(0xdead).with_accel_death(0.2))
                .sched(policy)
                .accels(4)
                .fallback_host()
                .run_tiles(16, |ctx, tile| {
                    ctx.compute(20_000);
                    Ok(tile * 3)
                })
                .unwrap();
            let expect: Vec<u32> = (0..16).map(|t| t * 3).collect();
            assert_eq!(results, expect, "{policy:?}");
            assert!(
                !report.evicted.is_empty(),
                "{policy:?}: a 20% death rate over 16 launches must kill a lane"
            );
            assert_eq!(
                report.evicted.len() as u64,
                m.stats().recovery_evictions,
                "{policy:?}"
            );
            let ran: u32 = report.lanes.iter().map(|l| l.items).sum();
            assert_eq!(ran as u64 + report.fallbacks, 16, "{policy:?}");
        }
    }

    #[test]
    fn total_accel_loss_without_fallback_is_the_dispatch_error() {
        let mut m = machine();
        let err = m
            .offload(0)
            .faults(FaultPlan::new(1).with_accel_death(1.0))
            .sched(SchedPolicy::WorkStealing)
            .accels(3)
            .run_tiles(6, |ctx, tile| {
                ctx.compute(1_000);
                Ok(tile)
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Fault(FaultError::AccelDead { .. })));
    }

    #[test]
    fn total_accel_loss_with_fallback_completes_on_the_host() {
        let mut m = machine();
        let (results, report) = m
            .offload(0)
            .faults(FaultPlan::new(1).with_accel_death(1.0))
            .sched(SchedPolicy::Static)
            .accels(3)
            .fallback_host()
            .run_tiles(6, |ctx, tile| {
                ctx.compute(1_000);
                Ok(tile + 100)
            })
            .unwrap();
        assert_eq!(results, vec![100, 101, 102, 103, 104, 105]);
        assert_eq!(report.evicted.len(), 3, "every lane died");
        assert_eq!(report.fallbacks, 6, "every tile degraded to the host");
        assert_eq!(report.lanes.iter().map(|l| l.items).sum::<u32>(), 0);
    }

    #[test]
    fn all_zero_plan_is_bit_identical_to_no_plan() {
        let costs = [40_000u64, 12_000, 9_000, 30_000, 8_000, 15_000];
        let run = |plan: Option<FaultPlan>| {
            let mut m = machine();
            if let Some(p) = plan {
                m.install_fault_plan(p).unwrap();
            }
            let (_, report) = m
                .offload(0)
                .sched(SchedPolicy::WorkStealing)
                .accels(3)
                .retry(2)
                .fallback_host()
                .run_tiles(costs.len() as u32, |ctx, tile| {
                    ctx.compute(costs[tile as usize]);
                    Ok(())
                })
                .unwrap();
            (m.host_now(), report.cycles, report.steals)
        };
        assert_eq!(
            run(None),
            run(Some(FaultPlan::new(42))),
            "an armed all-zero plan must not perturb the schedule"
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_faulty_schedule() {
        let run = || {
            let values: Vec<u32> = (0..10).map(|i| i ^ 0x5a).collect();
            let mut m = machine();
            let (_, body) = fetch_tile(&mut m, &values);
            let (results, report) = m
                .offload(0)
                .faults(
                    FaultPlan::new(0xc0ffee)
                        .with_dma_corrupt(0.3)
                        .with_tag_timeout(0.2)
                        .with_accel_death(0.05),
                )
                .sched(SchedPolicy::WorkStealing)
                .accels(4)
                .retry(4)
                .fallback_host()
                .run_tiles(10, body)
                .unwrap();
            (results, m.host_now(), *m.stats(), report.evicted.clone())
        };
        assert_eq!(run(), run(), "the fault schedule is a function of the seed");
    }

    #[test]
    fn zero_tiles_is_a_no_op() {
        let mut m = machine();
        let before = m.host_now();
        let (results, report) = m
            .offload(0)
            .sched(SchedPolicy::WorkStealing)
            .run_tiles(0, |_, _| Ok(()))
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(report.cycles, 0);
        assert_eq!(m.host_now(), before);
        assert_eq!(report.imbalance(), 1.0);
    }
}

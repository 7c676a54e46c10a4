//! The launch contract of the three offload front-ends: one
//! [`OffloadBuilder`](crate::OffloadBuilder) block, and `offload_rt`'s
//! tile scheduler and pipeline. Each embeds one [`Launch`], sets it
//! through the setters [`LaunchSettings`] and [`RecoverySettings`]
//! provide, and starts every run with [`Launch::arm`], which checks the
//! lanes, the plan and the policy before anything is installed or
//! charged.

use memspace::{AccessMode, Addr, ModeSet};
use softcache::CacheChoice;

use crate::cost::check_cycles;
use crate::ctx::AccelCtx;
use crate::error::SimError;
use crate::event::EventKind;
use crate::fault::{FaultPlan, RecoveryKind};
use crate::machine::Machine;

/// The most retries a recovery policy may ask for per item, which
/// bounds a run's recovery work (the largest in-tree budget is 6).
pub const MAX_RETRIES: u32 = 16;

/// Simulated cycles a retried item cools down on the accelerator clock
/// before re-running (see [`RecoverySettings::backoff`]): roughly the
/// cost of re-staging one bulk descriptor under the Cell-like model.
pub const DEFAULT_RETRY_BACKOFF: u64 = 1_000;

/// Everything an offload front-end launches with, checked and armed in
/// one step by [`Launch::arm`].
#[derive(Clone, Debug, PartialEq)]
pub struct Launch {
    /// Trace label of the launched offloads (pipeline stages carry
    /// their own names).
    pub label: &'static str,
    /// The software cache each launched offload installs (see
    /// [`OffloadBuilder::cache`](crate::OffloadBuilder::cache)).
    pub cache: CacheChoice,
    /// The fault plan armed when the run starts, if any.
    pub faults: Option<FaultPlan>,
    /// Declared access modes (empty: the permissive legacy contract).
    pub modes: ModeSet,
    /// Retries per item after a transient fault.
    pub retries: u32,
    /// Cycles each retry waits before re-running.
    pub backoff: u64,
    /// Whether unrecoverable items degrade to host execution.
    pub fallback: bool,
}

impl Default for Launch {
    fn default() -> Launch {
        Launch {
            label: "offload",
            cache: CacheChoice::Naive,
            faults: None,
            modes: ModeSet::new(),
            retries: 0,
            backoff: DEFAULT_RETRY_BACKOFF,
            fallback: false,
        }
    }
}

impl Launch {
    /// The check-then-arm step every run passes through: checks that
    /// the `lanes` accelerators from `first` exist, that each one's
    /// local store can hold the cache, and that the policy is within
    /// [`MAX_RETRIES`] and [`MAX_CYCLES`](crate::MAX_CYCLES), then
    /// installs the fault plan, which [`Machine::install_fault_plan`]
    /// checks in turn. A rejected launch installs and charges nothing.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchAccel`] when a single lane does not exist;
    /// [`SimError::Cache`] when a lane cannot hold the cache;
    /// [`SimError::BadConfig`] for an empty or oversized lane range, a
    /// policy out of bounds or a bad plan.
    pub fn arm(&self, machine: &mut Machine, first: u16, lanes: u16) -> Result<(), SimError> {
        let fit = machine.accel_count().saturating_sub(first);
        if lanes == 1 {
            machine.check_accel(first)?;
        } else if lanes == 0 || lanes > fit {
            return Err(SimError::BadConfig {
                reason: format!(
                    "a launch from accelerator {first} needs 1..={fit} lanes, got {lanes}"
                ),
            });
        }
        for lane in first..first + lanes {
            self.cache.check_fits(machine.local_store(lane)?)?;
        }
        if self.retries > MAX_RETRIES {
            return Err(SimError::BadConfig {
                reason: format!("{} retries exceed the cap of {MAX_RETRIES}", self.retries),
            });
        }
        check_cycles("retry backoff", self.backoff)?;
        match self.faults {
            Some(plan) => machine.install_fault_plan(plan),
            None => Ok(()),
        }
    }

    /// Runs `f` as item `item` (a tile, or a pipeline chunk) under the
    /// retry policy of [`RecoverySettings`]: the one retry loop of the
    /// tile scheduler and the pipeline. A fault `f` leaves sticky (a
    /// tag timeout it never checked) fails the attempt too.
    ///
    /// # Errors
    ///
    /// The item's last error, or a failure to void the failed
    /// attempt's puts.
    pub fn run_item<R>(
        &self,
        ctx: &mut AccelCtx<'_>,
        item: u32,
        f: &mut dyn FnMut(&mut AccelCtx<'_>, u32) -> Result<R, SimError>,
    ) -> Result<R, SimError> {
        let mut attempt = 0u32;
        loop {
            let mark = ctx.local_alloc_mark();
            let puts = ctx.put_journal.len();
            let err = match f(ctx, item) {
                Ok(r) => match ctx.take_fault() {
                    // A sticky timeout the closure never checked still
                    // fails the attempt: its data may be incomplete.
                    Some(fault) => SimError::from(fault),
                    None => {
                        ctx.put_journal.truncate(puts);
                        return Ok(r);
                    }
                },
                Err(e) => e,
            };
            // Either way the failed attempt's in-flight transfers must
            // land before anyone reuses this local store — the retry,
            // the next item on this lane, or the host fallback. A
            // timeout rolled during the drain belongs to the same failed
            // attempt, so it must not poison what comes next.
            ctx.dma_wait_all();
            ctx.take_fault();
            // Void the failed attempt's main-memory puts: an in-place
            // item reads the range it writes, so whoever re-runs it —
            // the retry here or the host fallback after us — must see
            // the input the failed attempt started from, not its
            // partial (or scribbled) output.
            ctx.put_journal_rollback(puts)?;
            let transient = matches!(&err, SimError::Fault(fault) if fault.is_transient());
            if !transient || attempt >= self.retries {
                return Err(err);
            }
            ctx.local_alloc_restore(mark);
            attempt += 1;
            let recovery = RecoveryKind::Retry {
                tile: item,
                attempt,
                backoff: self.backoff,
            };
            let accel = ctx.accel_index;
            ctx.note(EventKind::RecoveryApplied { accel, recovery });
            ctx.compute(self.backoff);
        }
    }
}

/// The launch setters every offload front-end shares; each front-end
/// only hands out its [`Launch`].
pub trait LaunchSettings: Sized {
    /// The front-end's launch settings.
    fn launch_mut(&mut self) -> &mut Launch;

    /// Where access-mode declarations land: the launch's own
    /// [`ModeSet`]. A pipeline declares on its most recent stage
    /// instead.
    fn modes_mut(&mut self) -> &mut ModeSet {
        &mut self.launch_mut().modes
    }

    /// Installs `plan` on the machine when the run starts, arming its
    /// deterministic fault plane (see [`crate::fault`]). The plan
    /// persists on the machine afterwards, so a sequence of launches
    /// draws one continuous fault schedule; clear it with
    /// [`Machine::clear_fault_plan`].
    fn faults(mut self, plan: FaultPlan) -> Self {
        self.launch_mut().faults = Some(plan);
        self
    }

    /// Declares that the offload only *loads* from `[addr, addr+len)`.
    ///
    /// A read declaration is a license the runtime spends twice: the
    /// launch's cache never allocates dirty lines for it, and
    /// accessors skip the write-back DMA entirely (counted in
    /// [`crate::MachineStats::dma_writebacks_elided`]). It is also a
    /// contract: once *any* mode is declared on an offload, a DMA put
    /// into a read-declared (or undeclared) range fails with
    /// [`SimError::UndeclaredWrite`] instead of silently journaling.
    fn reads(mut self, addr: Addr, len: u32) -> Self {
        self.modes_mut().declare(addr, len, AccessMode::Read);
        self
    }

    /// Declares that the offload *fully overwrites* `[addr, addr+len)`
    /// without reading the previous contents.
    ///
    /// Under an armed fault plan the transactional put journal skips
    /// the pre-image snapshot for such ranges (rollback restores them
    /// by re-running the producer, not by copying bytes back), counted
    /// in [`crate::MachineStats::journal_snapshots_skipped`].
    fn writes(mut self, addr: Addr, len: u32) -> Self {
        self.modes_mut().declare(addr, len, AccessMode::Write);
        self
    }

    /// Declares that the offload both reads and writes
    /// `[addr, addr+len)` (a read-modify-write buffer). Updates keep
    /// the full journaling discipline; the declaration's value is
    /// making every *other* store site checkable.
    fn updates(mut self, addr: Addr, len: u32) -> Self {
        self.modes_mut().declare(addr, len, AccessMode::Update);
        self
    }

    /// Replaces the declarations with a prebuilt [`ModeSet`] — the bulk
    /// form of [`reads`](LaunchSettings::reads) /
    /// [`writes`](LaunchSettings::writes) /
    /// [`updates`](LaunchSettings::updates) used by front-ends
    /// (schedulers, compiled offload-lang programs) that assemble
    /// declarations away from the call site.
    fn with_modes(mut self, modes: ModeSet) -> Self {
        *self.modes_mut() = modes;
        self
    }
}

/// The recovery setters of the front-ends that re-run failed items,
/// `offload_rt`'s tile scheduler and pipeline (a single offload runs
/// once), and the one description of the policy they configure.
///
/// # Recovery
///
/// - **Retry with backoff**: an item whose closure hits a *transient*
///   fault (DMA corruption or drop, tag timeout, local-store poison)
///   re-runs on the same accelerator, up to
///   [`retry`](RecoverySettings::retry) times. Each retry drains the
///   failed attempt's transfers, rolls back its main-memory puts,
///   releases its local-store allocations, charges the
///   [`backoff`](RecoverySettings::backoff) on the accelerator clock,
///   and records a `retry` event on the faults lane.
/// - **Eviction** (tile scheduler): an accelerator the fault plane kills
///   leaves the live lane set mid-dispatch; its queued tiles move
///   round-robin to the survivors (under work stealing the thieves then
///   rebalance them as usual), and an `evict` event notes the move.
/// - **Host fallback**: with
///   [`fallback_host`](RecoverySettings::fallback_host), an item that
///   exhausts its retries, or that no live accelerator remains to run,
///   re-runs on the host via [`Machine::run_host_fallback`], paying the
///   cost model's honest `host_fallback_factor` penalty; a pipeline's
///   downstream stages simply see a later push time. Without it, the
///   fault is the run's error.
///
/// With no plan armed (or an all-zero plan) none of this draws from the
/// fault RNG and the run is bit-identical to the fault-free one; with
/// one, the results still are, since every retry and fallback starts
/// from the input the failed attempt saw.
pub trait RecoverySettings: LaunchSettings {
    /// Retries an item up to `n` times (at most [`MAX_RETRIES`]) after a
    /// *transient* fault before giving up on it. Default 0: the first
    /// fault is final.
    fn retry(mut self, n: u32) -> Self {
        self.launch_mut().retries = n;
        self
    }

    /// Sets the simulated cycles a retried item waits on the
    /// accelerator clock before re-running (default
    /// [`DEFAULT_RETRY_BACKOFF`], at most
    /// [`MAX_CYCLES`](crate::MAX_CYCLES)).
    fn backoff(mut self, cycles: u64) -> Self {
        self.launch_mut().backoff = cycles;
        self
    }

    /// Degrades unrecoverable items to host execution instead of failing
    /// the run, at the cost model's `host_fallback_factor` penalty.
    fn fallback_host(mut self) -> Self {
        self.launch_mut().fallback = true;
        self
    }
}

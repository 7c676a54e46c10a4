//! Deterministic fault injection for the simulated machine.
//!
//! Shipped games must degrade gracefully when explicit DMA on
//! non-coherent memory goes wrong; this module lets the simulator
//! *manufacture* those failures on demand so the recovery machinery in
//! `offload_rt` can be measured instead of hoped about.
//!
//! A [`FaultPlan`] is a seed plus a set of per-operation fault rates.
//! Installing one on a [`Machine`](crate::Machine) arms an
//! xrng-driven fault plane: every launch, DMA transfer, tag wait and
//! local-store read rolls against its rate, and the rolls are consumed
//! in the (deterministic, sequential) order the simulator performs
//! those operations. The same seed therefore yields a bit-identical
//! fault schedule, trace and final world state on every run — there is
//! no wall-clock nondeterminism anywhere in the plane.
//!
//! Faults cost nothing when disabled: with no plan installed every
//! hook is a single always-false branch, no RNG state advances, and no
//! event is recorded. A plan whose rates are all zero is likewise
//! bit-identical to no plan at all: the plane's roll hooks
//! short-circuit zero rates without consuming the generator.
//!
//! What can go wrong (one [`FaultKind`] each):
//!
//! - **DMA corruption** — the transfer lands but the first quadword of
//!   the destination is scribbled (XOR `0xA5`).
//! - **DMA drop** — the transfer is charged but the destination keeps
//!   its old bytes.
//! - **Tag timeout** — a tag-group wait stalls for
//!   [`FaultPlan::timeout_stall`] extra cycles and leaves a sticky
//!   [`FaultError::TagTimeout`] on the context.
//! - **Accelerator stall** — a launch is delayed by
//!   [`FaultPlan::stall_cycles`] before the block starts.
//! - **Accelerator death** — the accelerator dies at a launch boundary
//!   and every later launch on it fails fast with
//!   [`FaultError::AccelDead`]; schedulers evict it mid-run.
//! - **Local-store poison** — a local-store read raises
//!   [`FaultError::LsPoisoned`] (a parity error, in hardware terms).

use std::error::Error;
use std::fmt;

use xrng::Rng;

use crate::cost::check_cycles;
use crate::error::SimError;

/// A seeded, declarative schedule of fault rates.
///
/// Rates are per-operation probabilities in `[0, 1]`; a rate of zero
/// disables that fault class without consuming any randomness. A plan
/// is checked ([`FaultPlan::check`]) before it is armed. Build
/// one with [`FaultPlan::new`] plus the `with_*` setters, or
/// [`FaultPlan::uniform`] for a quick storm.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// Seed for the fault plane's private RNG stream.
    pub seed: u64,
    /// Probability that a DMA transfer lands corrupted.
    pub dma_corrupt: f32,
    /// Probability that a DMA transfer is silently dropped.
    pub dma_drop: f32,
    /// Probability that a tag-group wait times out.
    pub tag_timeout: f32,
    /// Extra cycles a timed-out wait stalls before giving up.
    pub timeout_stall: u64,
    /// Probability that a launch stalls before starting.
    pub accel_stall: f32,
    /// Cycles a stalled launch is delayed by.
    pub stall_cycles: u64,
    /// Probability that a launch kills the accelerator outright.
    pub accel_death: f32,
    /// Probability that a local-store read observes poisoned data.
    pub ls_poison: f32,
}

impl FaultPlan {
    /// A plan with the given seed and every rate at zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            dma_corrupt: 0.0,
            dma_drop: 0.0,
            tag_timeout: 0.0,
            timeout_stall: 2_000,
            accel_stall: 0.0,
            stall_cycles: 5_000,
            accel_death: 0.0,
            ls_poison: 0.0,
        }
    }

    /// A plan where every transfer- and launch-level fault fires at
    /// `rate` and accelerator death at a quarter of it. Local-store
    /// poison stays at zero: it rolls once per local *read*, so any
    /// per-transfer rate would fault nearly every attempt of a real
    /// workload — opt in with [`FaultPlan::with_ls_poison`] at a rate
    /// scaled to the read count instead.
    pub fn uniform(seed: u64, rate: f32) -> FaultPlan {
        FaultPlan::new(seed)
            .with_dma_corrupt(rate)
            .with_dma_drop(rate)
            .with_tag_timeout(rate)
            .with_accel_stall(rate)
            .with_accel_death(rate * 0.25)
    }

    /// Set the DMA corruption rate.
    #[must_use]
    pub fn with_dma_corrupt(mut self, rate: f32) -> FaultPlan {
        self.dma_corrupt = rate;
        self
    }

    /// Set the DMA drop rate.
    #[must_use]
    pub fn with_dma_drop(mut self, rate: f32) -> FaultPlan {
        self.dma_drop = rate;
        self
    }

    /// Set the tag-timeout rate.
    #[must_use]
    pub fn with_tag_timeout(mut self, rate: f32) -> FaultPlan {
        self.tag_timeout = rate;
        self
    }

    /// Set how many cycles a timed-out wait stalls for.
    #[must_use]
    pub fn with_timeout_stall(mut self, cycles: u64) -> FaultPlan {
        self.timeout_stall = cycles;
        self
    }

    /// Set the launch-stall rate.
    #[must_use]
    pub fn with_accel_stall(mut self, rate: f32) -> FaultPlan {
        self.accel_stall = rate;
        self
    }

    /// Set how many cycles a stalled launch is delayed by.
    #[must_use]
    pub fn with_stall_cycles(mut self, cycles: u64) -> FaultPlan {
        self.stall_cycles = cycles;
        self
    }

    /// Set the accelerator-death rate.
    #[must_use]
    pub fn with_accel_death(mut self, rate: f32) -> FaultPlan {
        self.accel_death = rate;
        self
    }

    /// Set the local-store poison rate.
    #[must_use]
    pub fn with_ls_poison(mut self, rate: f32) -> FaultPlan {
        self.ls_poison = rate;
        self
    }

    /// Checks the plan before it is armed: every rate must be finite
    /// and within `0.0..=1.0`, and both stall amounts at most
    /// [`MAX_CYCLES`](crate::cost::MAX_CYCLES).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] naming the first field out of range.
    pub fn check(&self) -> Result<(), SimError> {
        for (rate, value) in [
            ("dma_corrupt", self.dma_corrupt),
            ("dma_drop", self.dma_drop),
            ("tag_timeout", self.tag_timeout),
            ("accel_stall", self.accel_stall),
            ("accel_death", self.accel_death),
            ("ls_poison", self.ls_poison),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::BadConfig {
                    reason: format!("fault rate {rate} = {value} is not within 0..=1"),
                });
            }
        }
        check_cycles("timeout_stall", self.timeout_stall)?;
        check_cycles("stall_cycles", self.stall_cycles)
    }

    /// True if every rate is zero (the plan can never fire).
    pub fn is_quiet(&self) -> bool {
        self.dma_corrupt <= 0.0
            && self.dma_drop <= 0.0
            && self.tag_timeout <= 0.0
            && self.accel_stall <= 0.0
            && self.accel_death <= 0.0
            && self.ls_poison <= 0.0
    }
}

/// A fault observed by running code, carried in
/// [`SimError::Fault`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultError {
    /// A DMA transfer completed with corrupted payload.
    DmaCorrupted {
        /// Accelerator whose transfer was corrupted.
        accel: u16,
        /// Tag the transfer was issued on.
        tag: u8,
        /// Size of the transfer in bytes.
        bytes: u32,
    },
    /// A DMA transfer was charged but never landed.
    DmaDropped {
        /// Accelerator whose transfer was dropped.
        accel: u16,
        /// Tag the transfer was issued on.
        tag: u8,
        /// Size of the transfer in bytes.
        bytes: u32,
    },
    /// A tag-group wait timed out.
    TagTimeout {
        /// Accelerator that waited.
        accel: u16,
        /// Bitmask of the tags waited on.
        mask: u32,
    },
    /// The accelerator is dead; it cannot run offloaded blocks.
    AccelDead {
        /// The dead accelerator.
        accel: u16,
    },
    /// A local-store read observed poisoned data.
    LsPoisoned {
        /// Accelerator whose local store was poisoned.
        accel: u16,
    },
}

impl FaultError {
    /// The accelerator the fault happened on.
    pub fn accel(&self) -> u16 {
        match *self {
            FaultError::DmaCorrupted { accel, .. }
            | FaultError::DmaDropped { accel, .. }
            | FaultError::TagTimeout { accel, .. }
            | FaultError::AccelDead { accel }
            | FaultError::LsPoisoned { accel } => accel,
        }
    }

    /// True for faults a retry can plausibly clear (everything except
    /// accelerator death).
    pub fn is_transient(&self) -> bool {
        !matches!(self, FaultError::AccelDead { .. })
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::DmaCorrupted { accel, tag, bytes } => write!(
                f,
                "DMA transfer of {bytes} bytes on tag {tag} (accel {accel}) landed corrupted"
            ),
            FaultError::DmaDropped { accel, tag, bytes } => write!(
                f,
                "DMA transfer of {bytes} bytes on tag {tag} (accel {accel}) was dropped"
            ),
            FaultError::TagTimeout { accel, mask } => write!(
                f,
                "tag-group wait on mask {mask:#x} (accel {accel}) timed out"
            ),
            FaultError::AccelDead { accel } => write!(f, "accelerator {accel} is dead"),
            FaultError::LsPoisoned { accel } => {
                write!(
                    f,
                    "local-store read on accel {accel} observed poisoned data"
                )
            }
        }
    }
}

impl Error for FaultError {}

/// What kind of fault was injected, for the EventLog `faults` lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A DMA transfer's destination was scribbled.
    DmaCorrupt {
        /// Tag the transfer was issued on.
        tag: u8,
        /// Size of the transfer in bytes.
        bytes: u32,
    },
    /// A DMA transfer was charged but its payload discarded.
    DmaDrop {
        /// Tag the transfer was issued on.
        tag: u8,
        /// Size of the transfer in bytes.
        bytes: u32,
    },
    /// A tag-group wait timed out after stalling.
    TagTimeout {
        /// Extra cycles the wait stalled before giving up.
        stall: u64,
    },
    /// A launch was delayed.
    AccelStall {
        /// Cycles the launch was delayed by.
        cycles: u64,
    },
    /// The accelerator died at a launch boundary.
    AccelDeath,
    /// A local-store read observed poisoned data.
    LsPoison,
}

impl FaultKind {
    /// Short stable name, used in trace output.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DmaCorrupt { .. } => "dma_corrupt",
            FaultKind::DmaDrop { .. } => "dma_drop",
            FaultKind::TagTimeout { .. } => "tag_timeout",
            FaultKind::AccelStall { .. } => "accel_stall",
            FaultKind::AccelDeath => "accel_death",
            FaultKind::LsPoison => "ls_poison",
        }
    }
}

/// What kind of recovery action the runtime took, for the EventLog
/// `faults` lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryKind {
    /// A faulted tile run is being retried after a backoff.
    Retry {
        /// The tile being retried.
        tile: u32,
        /// Which attempt this is (1 = first retry).
        attempt: u32,
        /// Backoff charged before re-running, in cycles.
        backoff: u64,
    },
    /// A dead accelerator was evicted from the scheduler.
    Evict {
        /// How many queued tiles were redistributed.
        tiles_moved: u32,
    },
    /// A tile was degraded to host execution.
    HostFallback {
        /// The tile that fell back.
        tile: u32,
    },
}

impl RecoveryKind {
    /// Short stable name, used in trace output.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryKind::Retry { .. } => "retry",
            RecoveryKind::Evict { .. } => "evict",
            RecoveryKind::HostFallback { .. } => "host_fallback",
        }
    }
}

/// The machine's fault-injection state: an optional plan, its RNG
/// stream, and which accelerators have died.
///
/// Owned by [`Machine`](crate::Machine); user code installs plans via
/// [`Machine::install_fault_plan`](crate::Machine::install_fault_plan)
/// or the offload builder and never touches this directly.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    plan: Option<FaultPlan>,
    rng: Rng,
    dead: u64,
    suppress: u32,
}

impl FaultPlane {
    /// A disarmed plane: no plan, nothing dead.
    pub(crate) fn new() -> FaultPlane {
        FaultPlane {
            plan: None,
            rng: Rng::new(0),
            dead: 0,
            suppress: 0,
        }
    }

    /// Arm the plane with `plan`: resets the RNG stream to the plan's
    /// seed and revives every accelerator.
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.rng = Rng::new(plan.seed);
        self.plan = Some(plan);
        self.dead = 0;
    }

    /// Disarm the plane and revive every accelerator.
    pub(crate) fn clear(&mut self) {
        self.plan = None;
        self.dead = 0;
    }

    /// Full reset back to the as-constructed state: disarmed, everyone
    /// alive, the RNG stream re-seeded to the disarmed default, and any
    /// suppression depth forgotten. Used by `Machine::reset_for_seed`
    /// so a recycled machine is bit-identical to a new one.
    pub(crate) fn reset(&mut self) {
        self.plan = None;
        self.rng = Rng::new(0);
        self.dead = 0;
        self.suppress = 0;
    }

    /// The installed plan, if any.
    pub(crate) fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// True when faults can fire right now (armed and not suppressed).
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.plan.is_some() && self.suppress == 0
    }

    /// True when faults can *actually* fire: armed, not suppressed, and
    /// at least one rate above zero. This is the put-journal gate — a
    /// quiet plan (all rates zero) can never need a rollback, so paying
    /// the pre-image snapshot cost for it would be pure waste.
    #[inline]
    pub(crate) fn noisy(&self) -> bool {
        self.suppress == 0 && self.plan.as_ref().is_some_and(|p| !p.is_quiet())
    }

    /// Suppress injection (used while running host fallbacks — the
    /// host does not share the accelerators' failure modes).
    pub(crate) fn push_suppress(&mut self) {
        self.suppress += 1;
    }

    /// Undo one [`FaultPlane::push_suppress`].
    pub(crate) fn pop_suppress(&mut self) {
        self.suppress = self.suppress.saturating_sub(1);
    }

    /// True if `accel` has died.
    #[inline]
    pub(crate) fn is_dead(&self, accel: u16) -> bool {
        accel < 64 && self.dead & (1u64 << accel) != 0
    }

    /// Mark `accel` dead.
    pub(crate) fn mark_dead(&mut self, accel: u16) {
        if accel < 64 {
            self.dead |= 1u64 << accel;
        }
    }

    /// Roll against `rate`. A rate of zero (or below) returns false
    /// *without consuming the generator*, so an all-zero plan is
    /// bit-identical to no plan at all.
    #[inline]
    pub(crate) fn roll(&mut self, rate: f32) -> bool {
        if rate <= 0.0 {
            return false;
        }
        self.rng.unit_f32() < rate
    }

    /// Roll the partitioned corrupt/drop decision for one DMA
    /// transfer. A single draw covers both outcomes so the schedule
    /// does not depend on which of the two rates is enabled.
    #[inline]
    pub(crate) fn roll_dma(&mut self) -> Option<DmaFault> {
        let plan = match self.plan {
            Some(ref p) => p,
            None => return None,
        };
        let (corrupt, drop) = (plan.dma_corrupt.max(0.0), plan.dma_drop.max(0.0));
        if corrupt + drop <= 0.0 {
            return None;
        }
        let r = self.rng.unit_f32();
        if r < corrupt {
            Some(DmaFault::Corrupt)
        } else if r < corrupt + drop {
            Some(DmaFault::Drop)
        } else {
            None
        }
    }
}

/// Outcome of the per-transfer corrupt/drop roll.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DmaFault {
    /// Scribble the destination after the copy.
    Corrupt,
    /// Restore the destination's old bytes after the copy.
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_consume_no_randomness() {
        let mut plane = FaultPlane::new();
        plane.install(FaultPlan::new(42));
        let before = plane.rng.clone();
        for _ in 0..100 {
            assert!(!plane.roll(0.0));
            assert!(plane.roll_dma().is_none());
        }
        // The stream is untouched: the next draw matches a fresh seed.
        let mut fresh = Rng::new(42);
        let mut after = before;
        assert_eq!(after.next_u64(), fresh.next_u64());
    }

    #[test]
    fn same_seed_same_rolls() {
        let plan = FaultPlan::uniform(7, 0.3);
        let mut a = FaultPlane::new();
        let mut b = FaultPlane::new();
        a.install(plan);
        b.install(plan);
        for _ in 0..1_000 {
            assert_eq!(a.roll(plan.dma_corrupt), b.roll(plan.dma_corrupt));
            assert_eq!(a.roll_dma(), b.roll_dma());
        }
    }

    #[test]
    fn suppression_masks_injection() {
        let mut plane = FaultPlane::new();
        plane.install(FaultPlan::uniform(1, 1.0));
        assert!(plane.active());
        plane.push_suppress();
        assert!(!plane.active());
        plane.pop_suppress();
        assert!(plane.active());
    }

    #[test]
    fn death_bookkeeping() {
        let mut plane = FaultPlane::new();
        plane.install(FaultPlan::new(3));
        assert!(!plane.is_dead(2));
        plane.mark_dead(2);
        assert!(plane.is_dead(2));
        // Reinstalling revives everything.
        plane.install(FaultPlan::new(3));
        assert!(!plane.is_dead(2));
    }

    #[test]
    fn fault_error_accessors() {
        let err = FaultError::DmaDropped {
            accel: 3,
            tag: 9,
            bytes: 128,
        };
        assert_eq!(err.accel(), 3);
        assert!(err.is_transient());
        assert!(!FaultError::AccelDead { accel: 1 }.is_transient());
        assert!(err.to_string().contains("dropped"));
    }

    #[test]
    fn quiet_plan_detection() {
        assert!(FaultPlan::new(5).is_quiet());
        assert!(!FaultPlan::uniform(5, 0.1).is_quiet());
    }

    #[test]
    fn quiet_plans_are_not_noisy() {
        let mut plane = FaultPlane::new();
        assert!(!plane.noisy());
        plane.install(FaultPlan::new(5));
        assert!(plane.active());
        assert!(!plane.noisy(), "an all-zero plan can never roll a fault");
        plane.install(FaultPlan::uniform(5, 0.1));
        assert!(plane.noisy());
        plane.push_suppress();
        assert!(!plane.noisy());
    }
}

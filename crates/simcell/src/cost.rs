//! The machine's cost model.

use dma::DmaTiming;

use crate::error::SimError;

/// The largest cycle amount a configuration may hold: 2^40 cycles, about
/// six simulated minutes at 3.2 GHz. Every cost-model and DMA-timing
/// field, fault stall, retry backoff and steal cost is checked against
/// it where it enters a run, so a clock takes about 2^24 such charges to
/// wrap.
pub const MAX_CYCLES: u64 = 1 << 40;

/// Checks one configured amount against [`MAX_CYCLES`].
///
/// # Errors
///
/// [`SimError::BadConfig`] naming `what` when `cycles` is larger.
pub fn check_cycles(what: &str, cycles: u64) -> Result<(), SimError> {
    if cycles > MAX_CYCLES {
        return Err(SimError::BadConfig {
            reason: format!("{what} of {cycles} cycles exceeds the {MAX_CYCLES}-cycle bound"),
        });
    }
    Ok(())
}

/// Cycle costs of the simulated machine's operations.
///
/// All constants live here so experiments can sweep them; the defaults
/// ([`CostModel::cell_like`]) are chosen to match the *relative* shape of
/// a Cell-BE-class machine at games-console clock rates — local store a
/// handful of cycles, cached main memory tens of cycles from the host,
/// and a full DMA round trip hundreds of cycles from an accelerator.
/// Experiments report cycles, never wall time, so only ratios matter.
///
/// # Example
///
/// ```
/// use simcell::CostModel;
///
/// let cost = CostModel::cell_like().with_ls_access(4);
/// assert_eq!(cost.ls_access, 4);
/// assert!(cost.host_mem_access > cost.ls_access);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// One arithmetic/logic operation.
    pub arith: u64,
    /// One (taken or not) branch.
    pub branch: u64,
    /// One accelerator access to its local store.
    pub ls_access: u64,
    /// One host access to main memory (through the host cache hierarchy,
    /// amortised).
    pub host_mem_access: u64,
    /// Host-side cost of launching an offload thread.
    pub offload_launch: u64,
    /// Host-side cost of joining an offload thread.
    pub join_overhead: u64,
    /// A direct (non-domain) virtual call: vtable load + indirect branch.
    pub vcall: u64,
    /// Fixed cost of a dispatch-domain lookup (paper Figure 3), before
    /// per-entry search costs.
    pub domain_lookup_base: u64,
    /// Cost per outer-domain entry searched.
    pub domain_outer_entry: u64,
    /// Cost per inner-domain entry searched.
    pub domain_inner_entry: u64,
    /// How much slower a tile runs when degraded to host execution
    /// (recovery fallback): elapsed accelerator-style cycles are
    /// multiplied by this factor on the host clock. The host has no
    /// local store, so every "local" access is really a cached main
    /// memory access and the SIMD-friendly inner loops lose their
    /// width — 3x is the honest games-console ballpark.
    pub host_fallback_factor: u64,
    /// DMA engine timing.
    pub dma: DmaTiming,
}

impl CostModel {
    /// The default Cell-like cost model.
    pub fn cell_like() -> CostModel {
        CostModel {
            arith: 1,
            branch: 2,
            ls_access: 6,
            host_mem_access: 40,
            offload_launch: 1200,
            join_overhead: 300,
            vcall: 12,
            domain_lookup_base: 10,
            domain_outer_entry: 2,
            domain_inner_entry: 2,
            host_fallback_factor: 3,
            dma: DmaTiming::cell_like(),
        }
    }

    /// Replaces the host-fallback slowdown factor.
    #[must_use]
    pub fn with_host_fallback_factor(mut self, factor: u64) -> CostModel {
        self.host_fallback_factor = factor;
        self
    }

    /// Replaces the local-store access cost.
    #[must_use]
    pub fn with_ls_access(mut self, cycles: u64) -> CostModel {
        self.ls_access = cycles;
        self
    }

    /// Replaces the host main-memory access cost.
    #[must_use]
    pub fn with_host_mem_access(mut self, cycles: u64) -> CostModel {
        self.host_mem_access = cycles;
        self
    }

    /// Replaces the offload launch/join overheads.
    #[must_use]
    pub fn with_offload_overheads(mut self, launch: u64, join: u64) -> CostModel {
        self.offload_launch = launch;
        self.join_overhead = join;
        self
    }

    /// Replaces the DMA timing.
    #[must_use]
    pub fn with_dma(mut self, dma: DmaTiming) -> CostModel {
        self.dma = dma;
        self
    }

    /// Cycles for `n` arithmetic operations.
    pub fn arith_n(&self, n: u64) -> u64 {
        self.arith * n
    }

    /// Checks every field, the DMA timing's included, against
    /// [`MAX_CYCLES`] ([`Machine::new`](crate::Machine::new) calls this).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] naming the first field out of bounds.
    pub fn check(&self) -> Result<(), SimError> {
        let dma = &self.dma;
        [
            ("arith", self.arith),
            ("branch", self.branch),
            ("ls_access", self.ls_access),
            ("host_mem_access", self.host_mem_access),
            ("offload_launch", self.offload_launch),
            ("join_overhead", self.join_overhead),
            ("vcall", self.vcall),
            ("domain_lookup_base", self.domain_lookup_base),
            ("domain_outer_entry", self.domain_outer_entry),
            ("domain_inner_entry", self.domain_inner_entry),
            ("host_fallback_factor", self.host_fallback_factor),
            ("dma.issue_cost", dma.issue_cost),
            ("dma.setup", dma.setup),
            ("dma.latency", dma.latency),
            ("dma.bytes_per_cycle", dma.bytes_per_cycle),
            ("dma.misalign_penalty", dma.misalign_penalty),
        ]
        .into_iter()
        .try_for_each(|(field, value)| check_cycles(field, value))
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::cell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_have_the_right_shape() {
        let c = CostModel::cell_like();
        assert!(c.ls_access < c.host_mem_access);
        // A full DMA round trip dwarfs a local access.
        assert!(c.dma.latency + c.dma.setup > 10 * c.ls_access);
        assert_eq!(CostModel::default(), c);
    }

    #[test]
    fn builders_replace_fields() {
        let c = CostModel::cell_like()
            .with_ls_access(3)
            .with_host_mem_access(55)
            .with_offload_overheads(10, 20)
            .with_host_fallback_factor(5);
        assert_eq!(c.host_fallback_factor, 5);
        assert_eq!(c.ls_access, 3);
        assert_eq!(c.host_mem_access, 55);
        assert_eq!(c.offload_launch, 10);
        assert_eq!(c.join_overhead, 20);
        assert_eq!(c.arith_n(7), 7);
    }
}

//! Cache geometry and policy configuration.

use std::fmt;

use crate::CacheError;

/// What happens on a cache write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WritePolicy {
    /// Dirty lines are written back on eviction or flush (the default;
    /// best when writes exhibit locality).
    #[default]
    WriteBack,
    /// Every write is immediately sent to remote memory with a
    /// non-blocking `put` (the asynchronous write-through of Balart et
    /// al., LCPC 2008 — cited as reference 1 by the paper); `flush` waits for
    /// the outstanding puts.
    WriteThrough,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteBack => write!(f, "write-back"),
            WritePolicy::WriteThrough => write!(f, "write-through"),
        }
    }
}

/// Geometry and cost parameters of a software cache.
///
/// Constructed with [`CacheConfig::new`] and refined with the builder
/// methods.
///
/// # Example
///
/// ```
/// use softcache::{CacheConfig, WritePolicy};
///
/// let config = CacheConfig::new(64, 32, 4)
///     .write_policy(WritePolicy::WriteThrough)
///     .probe_cost(3);
/// assert_eq!(config.capacity_bytes(), 64 * 32 * 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Line size in bytes (a power of two).
    pub line_size: u32,
    /// Number of sets (a power of two).
    pub num_sets: u32,
    /// Associativity; 1 is direct-mapped.
    pub ways: u32,
    /// Write handling.
    pub write: WritePolicy,
    /// Fixed software-lookup overhead per access, in cycles. This is the
    /// cost the paper says is "typically outweighed" by avoided
    /// transfers.
    pub lookup_cost: u64,
    /// Additional cycles per way probed during lookup.
    pub probe_cost: u64,
    /// Cycles to copy a hit value between the line buffer and the
    /// consumer (per 16-byte chunk, minimum 1).
    pub copy_cost: u64,
}

impl CacheConfig {
    /// Creates a configuration with the given geometry and default
    /// costs/policy.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` or `num_sets` is not a power of two, if
    /// `line_size < 16` (a DMA-friendly minimum), or if `ways == 0`.
    pub fn new(line_size: u32, num_sets: u32, ways: u32) -> CacheConfig {
        assert!(
            line_size.is_power_of_two() && line_size >= 16,
            "line size must be a power of two >= 16"
        );
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(ways > 0, "associativity must be at least 1");
        CacheConfig {
            line_size,
            num_sets,
            ways,
            write: WritePolicy::WriteBack,
            lookup_cost: 16,
            probe_cost: 2,
            copy_cost: 1,
        }
    }

    /// A small direct-mapped configuration (64 B lines × 64 sets = 4 KiB).
    pub fn direct_mapped_4k() -> CacheConfig {
        CacheConfig::new(64, 64, 1)
    }

    /// A 4-way 16 KiB configuration (128 B lines × 32 sets × 4 ways).
    pub fn four_way_16k() -> CacheConfig {
        CacheConfig::new(128, 32, 4)
    }

    /// Sets the write policy.
    #[must_use]
    pub fn write_policy(mut self, write: WritePolicy) -> CacheConfig {
        self.write = write;
        self
    }

    /// Sets the fixed per-access lookup cost.
    #[must_use]
    pub fn lookup_cost(mut self, cycles: u64) -> CacheConfig {
        self.lookup_cost = cycles;
        self
    }

    /// Sets the per-way probe cost.
    #[must_use]
    pub fn probe_cost(mut self, cycles: u64) -> CacheConfig {
        self.probe_cost = cycles;
        self
    }

    /// Sets the per-16-byte copy cost.
    #[must_use]
    pub fn copy_cost(mut self, cycles: u64) -> CacheConfig {
        self.copy_cost = cycles;
        self
    }

    /// Checks the geometry a cache indexes by: `line_size` and
    /// `num_sets` non-zero powers of two, `ways` at least 1, and the
    /// capacity within `u32`. The fields are public, so a struct
    /// literal skips [`CacheConfig::new`]'s asserts; every cache
    /// constructor checks here instead.
    pub(crate) fn validate(&self) -> Result<(), CacheError> {
        let fits = self
            .line_size
            .checked_mul(self.num_sets)
            .and_then(|bytes| bytes.checked_mul(self.ways))
            .is_some();
        if self.line_size.is_power_of_two()
            && self.num_sets.is_power_of_two()
            && self.ways > 0
            && fits
        {
            Ok(())
        } else {
            Err(CacheError::BadGeometry {
                line_size: self.line_size,
                num_sets: self.num_sets,
                ways: self.ways,
            })
        }
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.line_size * self.num_sets * self.ways
    }

    /// Splits a remote byte offset into `(line_number, offset_in_line)`.
    pub fn split_offset(&self, offset: u32) -> (u32, u32) {
        (offset / self.line_size, offset % self.line_size)
    }

    /// The set a line number maps to.
    pub fn set_of(&self, line_number: u32) -> u32 {
        line_number % self.num_sets
    }

    /// Cycles charged for a lookup probing `ways_probed` ways.
    pub fn lookup_cycles(&self, ways_probed: u32) -> u64 {
        self.lookup_cost + self.probe_cost * u64::from(ways_probed)
    }

    /// Cycles charged to copy `len` bytes to/from a line buffer.
    pub fn copy_cycles(&self, len: u32) -> u64 {
        self.copy_cost * u64::from(len.div_ceil(16).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_helpers() {
        let c = CacheConfig::new(64, 32, 2);
        assert_eq!(c.capacity_bytes(), 64 * 32 * 2);
        assert_eq!(c.split_offset(0), (0, 0));
        assert_eq!(c.split_offset(63), (0, 63));
        assert_eq!(c.split_offset(64), (1, 0));
        assert_eq!(c.split_offset(200), (3, 8));
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(33), 1);
    }

    #[test]
    fn cost_helpers() {
        let c = CacheConfig::new(64, 32, 2)
            .lookup_cost(10)
            .probe_cost(3)
            .copy_cost(2);
        assert_eq!(c.lookup_cycles(2), 16);
        assert_eq!(c.copy_cycles(4), 2);
        assert_eq!(c.copy_cycles(64), 8);
        assert_eq!(c.copy_cycles(0), 2);
    }

    #[test]
    fn builder_chains() {
        let c = CacheConfig::direct_mapped_4k().write_policy(WritePolicy::WriteThrough);
        assert_eq!(c.ways, 1);
        assert_eq!(c.write, WritePolicy::WriteThrough);
        assert_eq!(CacheConfig::four_way_16k().capacity_bytes(), 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new(48, 32, 1);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_panics() {
        let _ = CacheConfig::new(64, 32, 0);
    }

    #[test]
    fn write_policy_display() {
        assert_eq!(WritePolicy::WriteBack.to_string(), "write-back");
        assert_eq!(WritePolicy::WriteThrough.to_string(), "write-through");
    }
}

//! Software caches over explicit DMA.
//!
//! Paper §4.2: "Cache systems have been implemented in software for
//! diverse memory architectures to mitigate transfer overhead. Software
//! cache lookup introduces some overhead, but this is typically
//! outweighed by the performance increase from avoiding repeated
//! accesses to data via inter-memory transfers." Offload C++ routes
//! `__outer` pointer dereferences inside offload blocks through such a
//! cache, and ships *several* cache implementations "favouring different
//! types of application behaviour"; the programmer picks one by
//! profiling.
//!
//! This crate provides that cache family for the simulated machine:
//!
//! - [`SetAssociativeCache`]: N-way, LRU, write-back or write-through
//!   (1-way is the classic direct-mapped cache with the cheapest probe),
//! - [`StreamCache`]: a sequential-streaming cache that prefetches the
//!   next line asynchronously while the core works on the current one.
//!
//! All caches implement the object-safe [`SoftwareCache`] trait and
//! account their own cost in cycles; `bench` experiments E7 and E12
//! reproduce the paper's "no single winner" and "lookup overhead vs
//! repeated transfers" claims on top of them.
//!
//! # Example
//!
//! ```
//! use softcache::{CacheConfig, CacheStats};
//!
//! let config = CacheConfig::direct_mapped_4k();
//! assert_eq!(config.ways, 1, "direct-mapped means one way");
//! assert_eq!(config.capacity_bytes(), 4096);
//! let stats = CacheStats {
//!     hits: 3,
//!     misses: 1,
//!     ..CacheStats::default()
//! };
//! assert_eq!(stats.hit_rate(), 0.75);
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod cache;
pub mod config;
pub mod stats;
pub mod stream;
pub mod tuned;

pub use autotune::{
    autotune, dominant_stride, AccessRecord, AccessTrace, CacheChoice, Candidate, ReuseHistogram,
    TraceOp, TuneOptions, TuneReport,
};
pub use cache::SetAssociativeCache;
pub use config::{CacheConfig, WritePolicy};
pub use stats::CacheStats;
pub use stream::StreamCache;
pub use tuned::TunedCache;

use dma::{DmaEngine, DmaError};
use memspace::{Addr, MemError, MemoryRegion, Pod};

/// The memories and DMA engine a cache operates against.
///
/// Borrowed fresh for every call so the cache itself stays independent
/// of the machine's ownership structure.
#[derive(Debug)]
pub struct CacheBacking<'a> {
    /// The remote (main) memory being cached.
    pub main: &'a mut MemoryRegion,
    /// The local store holding cache lines.
    pub ls: &'a mut MemoryRegion,
    /// The accelerator's DMA engine.
    pub dma: &'a mut DmaEngine,
}

/// Errors raised by software-cache operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheError {
    /// The address is not in the cached (remote) space.
    NotCacheable {
        /// The space the address named.
        space: memspace::SpaceId,
    },
    /// An underlying DMA failure.
    Dma(DmaError),
    /// An underlying memory failure.
    Memory(MemError),
    /// The configuration's geometry cannot be indexed: a zero or
    /// non-power-of-two line size or set count, zero ways, or a
    /// capacity that does not fit in a `u32`.
    BadGeometry {
        /// Line size in bytes.
        line_size: u32,
        /// Number of sets.
        num_sets: u32,
        /// Associativity.
        ways: u32,
    },
    /// The autotuner cannot model or replay a trace under these
    /// options: an empty staging buffer, no main memory to replay
    /// against, a transfer that ends past the 32-bit address space, or
    /// costs so large that a replay's clock could pass `u64::MAX`.
    Untunable {
        /// What is wrong with the trace or the options.
        reason: &'static str,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::NotCacheable { space } => {
                write!(f, "address in space {space} is not cacheable by this cache")
            }
            CacheError::Dma(err) => write!(f, "DMA failure in software cache: {err}"),
            CacheError::Memory(err) => write!(f, "memory failure in software cache: {err}"),
            CacheError::BadGeometry {
                line_size,
                num_sets,
                ways,
            } => write!(
                f,
                "invalid cache geometry {line_size} B lines x {num_sets} sets x {ways} ways: \
                 line size and set count must be powers of two, ways at least 1, \
                 and the capacity must fit in 32 bits"
            ),
            CacheError::Untunable { reason } => write!(f, "cannot tune: {reason}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::NotCacheable { .. }
            | CacheError::BadGeometry { .. }
            | CacheError::Untunable { .. } => None,
            CacheError::Dma(err) => Some(err),
            CacheError::Memory(err) => Some(err),
        }
    }
}

impl From<DmaError> for CacheError {
    fn from(err: DmaError) -> CacheError {
        CacheError::Dma(err)
    }
}

impl From<MemError> for CacheError {
    fn from(err: MemError) -> CacheError {
        CacheError::Memory(err)
    }
}

/// A software cache interposed between an accelerator core and remote
/// memory.
///
/// Every method takes the current cycle `now` and returns the cycle at
/// which the operation's result is available, charging lookup overhead,
/// line transfers and write-backs per its configuration.
pub trait SoftwareCache {
    /// Reads `out.len()` bytes from remote address `addr` through the
    /// cache.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is not in the cached space or an underlying
    /// transfer fails.
    fn read(
        &mut self,
        now: u64,
        addr: Addr,
        out: &mut [u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError>;

    /// Writes `data` to remote address `addr` through the cache.
    ///
    /// # Errors
    ///
    /// As for [`SoftwareCache::read`].
    fn write(
        &mut self,
        now: u64,
        addr: Addr,
        data: &[u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError>;

    /// Writes every dirty line back to remote memory and waits for the
    /// transfers to complete.
    ///
    /// # Errors
    ///
    /// As for [`SoftwareCache::read`].
    fn flush(&mut self, now: u64, backing: &mut CacheBacking<'_>) -> Result<u64, CacheError>;

    /// Drops all cached contents *without* writing anything back.
    /// Intended for cache-coherence points where remote memory is known
    /// to have changed under the cache.
    fn invalidate(&mut self);

    /// Access statistics so far.
    fn stats(&self) -> CacheStats;

    /// A short human-readable name ("direct-mapped 4KiB/64B", …) used in
    /// experiment tables.
    fn describe(&self) -> String;
}

/// Stack-buffer size for typed cache accesses; Pods up to this size
/// avoid heap allocation entirely.
const POD_STACK_BUF: usize = 64;

/// Typed convenience layer over any [`SoftwareCache`].
pub trait CacheExt: SoftwareCache {
    /// Reads one `T` through the cache.
    ///
    /// # Errors
    ///
    /// As for [`SoftwareCache::read`].
    fn read_pod<T: Pod>(
        &mut self,
        now: u64,
        addr: Addr,
        backing: &mut CacheBacking<'_>,
    ) -> Result<(T, u64), CacheError>
    where
        Self: Sized,
    {
        // Small Pods (the overwhelmingly common case) marshal through a
        // stack buffer; only oversized types fall back to the heap.
        let mut small = [0u8; POD_STACK_BUF];
        let mut large;
        let buf = if T::SIZE <= POD_STACK_BUF {
            &mut small[..T::SIZE]
        } else {
            large = vec![0u8; T::SIZE];
            &mut large[..]
        };
        let t = self.read(now, addr, buf, backing)?;
        Ok((T::read_from(buf), t))
    }

    /// Writes one `T` through the cache.
    ///
    /// # Errors
    ///
    /// As for [`SoftwareCache::write`].
    fn write_pod<T: Pod>(
        &mut self,
        now: u64,
        addr: Addr,
        value: &T,
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError>
    where
        Self: Sized,
    {
        let mut small = [0u8; POD_STACK_BUF];
        let mut large;
        let buf = if T::SIZE <= POD_STACK_BUF {
            &mut small[..T::SIZE]
        } else {
            large = vec![0u8; T::SIZE];
            &mut large[..]
        };
        value.write_to(buf);
        self.write(now, addr, buf, backing)
    }
}

impl<C: SoftwareCache> CacheExt for C {}

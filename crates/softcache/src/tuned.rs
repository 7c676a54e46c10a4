//! One runtime cache type for "whatever the tuner picked".
//!
//! The autotune search returns a [`CacheChoice`] — naive,
//! set-associative, or streaming. [`TunedCache`] holds either concrete
//! cache family behind one enum so offload code can carry the choice
//! without generics, [`CacheChoice::check_fits`] tells whether a local
//! store can hold it, and [`CacheChoice::build`] turns the value back
//! into a running cache over that local store. A naive choice builds
//! no cache at all (`build` returns `None`): the tuner decided plain
//! outer accesses win, so there is nothing to interpose.

use memspace::{Addr, MemoryRegion, SpaceId, DMA_ALIGN};

use crate::autotune::CacheChoice;
use crate::{
    CacheBacking, CacheError, CacheStats, SetAssociativeCache, SoftwareCache, StreamCache,
};

/// A runtime cache built from an autotuned [`CacheChoice`].
///
/// Both concrete cache families behind one type, so offload code can
/// hold "whatever the tuner picked" without generics; a naive choice
/// builds no cache at all ([`CacheChoice::build`] returns `None`).
#[derive(Debug)]
pub enum TunedCache {
    /// The tuner picked a set-associative configuration.
    SetAssoc(SetAssociativeCache),
    /// The tuner picked a streaming (prefetch) configuration.
    Stream(StreamCache),
}

impl SoftwareCache for TunedCache {
    fn read(
        &mut self,
        now: u64,
        addr: Addr,
        out: &mut [u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        match self {
            TunedCache::SetAssoc(c) => c.read(now, addr, out, backing),
            TunedCache::Stream(c) => c.read(now, addr, out, backing),
        }
    }

    fn write(
        &mut self,
        now: u64,
        addr: Addr,
        data: &[u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        match self {
            TunedCache::SetAssoc(c) => c.write(now, addr, data, backing),
            TunedCache::Stream(c) => c.write(now, addr, data, backing),
        }
    }

    fn flush(&mut self, now: u64, backing: &mut CacheBacking<'_>) -> Result<u64, CacheError> {
        match self {
            TunedCache::SetAssoc(c) => c.flush(now, backing),
            TunedCache::Stream(c) => c.flush(now, backing),
        }
    }

    fn invalidate(&mut self) {
        match self {
            TunedCache::SetAssoc(c) => c.invalidate(),
            TunedCache::Stream(c) => c.invalidate(),
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            TunedCache::SetAssoc(c) => c.stats(),
            TunedCache::Stream(c) => c.stats(),
        }
    }

    fn describe(&self) -> String {
        match self {
            TunedCache::SetAssoc(c) => c.describe(),
            TunedCache::Stream(c) => c.describe(),
        }
    }
}

impl CacheChoice {
    /// Checks that [`CacheChoice::build`] would succeed on `ls` as it
    /// stands, without allocating anything: the geometry is valid and
    /// the local store has room for the cache's buffers.
    ///
    /// # Errors
    ///
    /// The error `build` would return.
    pub fn check_fits(&self, ls: &MemoryRegion) -> Result<(), CacheError> {
        let Some(config) = self.config() else {
            return Ok(());
        };
        config.validate()?;
        let bytes = match self {
            // Two line buffers and a write staging area, each allocated
            // at `DMA_ALIGN` (see `StreamCache::new`).
            CacheChoice::Stream(c) => c
                .line_size
                .max(DMA_ALIGN)
                .saturating_mul(2)
                .saturating_add(DMA_ALIGN),
            _ => config.capacity_bytes(),
        };
        ls.check_alloc(bytes, DMA_ALIGN)?;
        Ok(())
    }

    /// Builds the cache this choice describes, allocating its line
    /// buffers from `ls` and caching addresses in `remote_space`.
    /// Returns `None` for [`CacheChoice::Naive`].
    ///
    /// # Errors
    ///
    /// Fails if `ls` cannot fit the chosen configuration.
    pub fn build(
        &self,
        remote_space: SpaceId,
        ls: &mut MemoryRegion,
    ) -> Result<Option<TunedCache>, CacheError> {
        Ok(match self {
            CacheChoice::Naive => None,
            CacheChoice::SetAssoc(config) => Some(TunedCache::SetAssoc(SetAssociativeCache::new(
                *config,
                remote_space,
                ls,
            )?)),
            CacheChoice::Stream(config) => Some(TunedCache::Stream(StreamCache::new(
                *config,
                remote_space,
                ls,
            )?)),
        })
    }

    /// For a streaming choice, the double-buffered chunk depth the §4.1
    /// streaming helpers should adopt: the tuned line size in elements
    /// of size `elem_size` bytes (at least 1). Returns `None` unless the
    /// choice is [`CacheChoice::Stream`] — the other families do not
    /// describe a sequential prefetch depth.
    pub fn stream_chunk_elems(&self, elem_size: u32) -> Option<u32> {
        match self {
            CacheChoice::Stream(config) => Some((config.line_size / elem_size.max(1)).max(1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use memspace::SpaceKind;

    fn test_ls() -> MemoryRegion {
        MemoryRegion::new(
            SpaceId::local_store(0),
            SpaceKind::LocalStore { accel: 0 },
            64 * 1024,
        )
    }

    #[test]
    fn naive_builds_nothing_and_has_no_chunk_depth() {
        let mut ls = test_ls();
        assert!(CacheChoice::Naive
            .build(SpaceId::MAIN, &mut ls)
            .unwrap()
            .is_none());
        assert!(CacheChoice::Naive.stream_chunk_elems(4).is_none());
    }

    #[test]
    fn both_cache_families_build() {
        let mut ls = test_ls();
        let assoc = CacheChoice::SetAssoc(CacheConfig::four_way_16k())
            .build(SpaceId::MAIN, &mut ls)
            .unwrap()
            .unwrap();
        assert!(matches!(assoc, TunedCache::SetAssoc(_)));
        let stream = CacheChoice::Stream(CacheConfig::new(1024, 1, 1))
            .build(SpaceId::MAIN, &mut ls)
            .unwrap()
            .unwrap();
        assert!(matches!(stream, TunedCache::Stream(_)));
    }

    #[test]
    fn naive_choice_builds_no_cache() {
        // Naive takes nothing from the local store, so it fits and
        // builds even when the store is already full.
        let mut ls = test_ls();
        ls.alloc(ls.bytes_free(), 1).unwrap();
        assert!(CacheChoice::Naive.check_fits(&ls).is_ok());
        assert!(CacheChoice::Naive
            .build(SpaceId::MAIN, &mut ls)
            .unwrap()
            .is_none());
        assert_eq!(ls.bytes_free(), 0);
    }

    #[test]
    fn tuned_caches_read_correct_data_in_both_families() {
        use crate::CacheExt;
        use dma::DmaEngine;

        let values: Vec<u32> = (0..512).map(|i| i * 3).collect();
        for choice in [
            CacheChoice::SetAssoc(CacheConfig::four_way_16k()),
            CacheChoice::Stream(CacheConfig::new(1024, 1, 1)),
        ] {
            let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64 * 1024);
            let mut ls = test_ls();
            let mut dma = DmaEngine::new(SpaceId::local_store(0));
            main.write_pod_slice(Addr::new(SpaceId::MAIN, 0), &values)
                .unwrap();
            let mut cache = choice
                .build(SpaceId::MAIN, &mut ls)
                .unwrap()
                .expect("cache families build");
            let mut backing = CacheBacking {
                main: &mut main,
                ls: &mut ls,
                dma: &mut dma,
            };
            let mut now = 0;
            let mut sum = 0u64;
            for i in 0..512u32 {
                let addr = Addr::new(SpaceId::MAIN, 0).element(i, 4).unwrap();
                let (v, t) = cache.read_pod::<u32>(now, addr, &mut backing).unwrap();
                now = t;
                sum += u64::from(v);
            }
            assert!(cache.stats().hits > 0, "{}", cache.describe());
            assert_eq!(
                sum,
                values.iter().map(|&v| u64::from(v)).sum::<u64>(),
                "{}",
                cache.describe()
            );
        }
    }

    #[test]
    fn fit_check_agrees_with_building() {
        let choices = [
            CacheChoice::Naive,
            CacheChoice::SetAssoc(CacheConfig::four_way_16k()),
            CacheChoice::SetAssoc(CacheConfig::new(128, 4096, 1)),
            CacheChoice::SetAssoc(CacheConfig {
                line_size: 48,
                ..CacheConfig::new(64, 4, 1)
            }),
            CacheChoice::Stream(CacheConfig::new(1024, 1, 1)),
            CacheChoice::Stream(CacheConfig {
                line_size: 4,
                ..CacheConfig::new(16, 1, 1)
            }),
            CacheChoice::Stream(CacheConfig::new(1 << 31, 1, 1)),
        ];
        for choice in choices {
            for capacity in [64, 96, 100, 2_000, 2_080, 2_096, 16_400, 64 * 1024] {
                let mut ls = MemoryRegion::new(
                    SpaceId::local_store(0),
                    SpaceKind::LocalStore { accel: 0 },
                    capacity,
                );
                // An odd offset, so the first buffer pads to its alignment.
                ls.alloc(3, 1).unwrap();
                let fits = choice.check_fits(&ls).is_ok();
                let built = choice.build(SpaceId::MAIN, &mut ls).is_ok();
                assert_eq!(fits, built, "{choice:?} in {capacity} bytes");
            }
        }
    }

    #[test]
    fn stream_chunk_depth_is_line_size_in_elements() {
        let stream = CacheChoice::Stream(CacheConfig::new(1024, 1, 1));
        assert_eq!(stream.stream_chunk_elems(4), Some(256));
        assert_eq!(stream.stream_chunk_elems(2048), Some(1), "never zero");
        let assoc = CacheChoice::SetAssoc(CacheConfig::four_way_16k());
        assert!(assoc.stream_chunk_elems(4).is_none());
    }
}

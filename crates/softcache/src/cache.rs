//! The set-associative software cache (1-way = direct-mapped).

use dma::{Tag, TagMask};
use memspace::{Addr, AddrRange, SpaceId};

use crate::config::{CacheConfig, WritePolicy};
use crate::stats::CacheStats;
use crate::{CacheBacking, CacheError, SoftwareCache};

/// DMA tag used for line fetches.
const FETCH_TAG: u8 = 31;
/// DMA tag used for write-backs and write-through puts.
const WRITE_TAG: u8 = 30;

#[derive(Clone, Copy, Debug)]
struct LineMeta {
    valid: bool,
    dirty: bool,
    line_number: u32,
    /// Bytes actually resident (lines at the very end of remote memory
    /// may be short).
    len: u32,
    last_use: u64,
}

impl LineMeta {
    fn empty() -> LineMeta {
        LineMeta {
            valid: false,
            dirty: false,
            line_number: 0,
            len: 0,
            last_use: 0,
        }
    }
}

/// An N-way set-associative software cache with LRU replacement.
///
/// With `ways == 1` this is the classic direct-mapped software cache:
/// the cheapest lookup, but prone to conflict misses — one of the
/// behaviour trade-offs that forces the profiling-driven cache choice
/// the paper describes. Line data lives in the accelerator's local
/// store (allocated at construction); metadata lives host-side in this
/// struct, mirroring how real SPU software caches reserve a local-store
/// arena.
///
/// # Example
///
/// ```
/// use dma::DmaEngine;
/// use memspace::{Addr, MemoryRegion, SpaceId, SpaceKind};
/// use softcache::{CacheBacking, CacheConfig, SetAssociativeCache, SoftwareCache};
///
/// # fn main() -> Result<(), softcache::CacheError> {
/// let mut main = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64 * 1024);
/// let mut ls = MemoryRegion::new(
///     SpaceId::local_store(0),
///     SpaceKind::LocalStore { accel: 0 },
///     64 * 1024,
/// );
/// let mut dma = DmaEngine::new(SpaceId::local_store(0));
/// let mut cache = SetAssociativeCache::new(
///     CacheConfig::direct_mapped_4k(),
///     SpaceId::MAIN,
///     &mut ls,
/// )?;
///
/// main.write_bytes(Addr::new(SpaceId::MAIN, 128), &[42; 4])?;
/// let mut backing = CacheBacking { main: &mut main, ls: &mut ls, dma: &mut dma };
/// let mut out = [0u8; 4];
/// let t1 = cache.read(0, Addr::new(SpaceId::MAIN, 128), &mut out, &mut backing)?;
/// let t2 = cache.read(t1, Addr::new(SpaceId::MAIN, 132), &mut out, &mut backing)?;
/// assert!(t2 - t1 < t1, "second access hits and is much cheaper");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    /// `log2(line_size)`: a remote offset shifted right by this is its
    /// line number.
    line_shift: u32,
    /// `num_sets - 1`: a line number masked by this is its set.
    set_mask: u32,
    remote_space: SpaceId,
    base: Addr,
    lines: Vec<LineMeta>,
    lru_clock: u64,
    stats: CacheStats,
    /// Remote ranges with write-through puts still in flight.
    wt_pending: Vec<AddrRange>,
}

impl SetAssociativeCache {
    /// Creates a cache over `remote_space`, allocating its line arena
    /// from `ls`.
    ///
    /// # Errors
    ///
    /// Fails with [`CacheError::BadGeometry`] if the configuration's
    /// geometry cannot be indexed, and with a memory error if the local
    /// store cannot fit the configured capacity.
    pub fn new(
        config: CacheConfig,
        remote_space: SpaceId,
        ls: &mut memspace::MemoryRegion,
    ) -> Result<SetAssociativeCache, CacheError> {
        config.validate()?;
        let base = ls.alloc(config.capacity_bytes(), memspace::DMA_ALIGN)?;
        Ok(SetAssociativeCache {
            config,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: config.num_sets - 1,
            remote_space,
            base,
            lines: vec![LineMeta::empty(); (config.num_sets * config.ways) as usize],
            lru_clock: 0,
            stats: CacheStats::default(),
            wt_pending: Vec::new(),
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn fetch_tag(&self) -> Tag {
        Tag::new(FETCH_TAG).expect("constant tag is valid")
    }

    fn write_tag(&self) -> Tag {
        Tag::new(WRITE_TAG).expect("constant tag is valid")
    }

    /// Splits a remote byte offset into `(line_number, offset_in_line)`.
    fn split_offset(&self, offset: u32) -> (u32, u32) {
        (
            offset >> self.line_shift,
            offset & (self.config.line_size - 1),
        )
    }

    fn slot_index(&self, set: u32, way: u32) -> usize {
        (set * self.config.ways + way) as usize
    }

    fn line_buffer(&self, set: u32, way: u32) -> Addr {
        self.base
            .offset_by((set * self.config.ways + way) * self.config.line_size)
            .expect("line arena fits the local store")
    }

    /// Ensures `line_number` is resident; returns `(set, way, time)`.
    fn ensure_line(
        &mut self,
        now: u64,
        line_number: u32,
        backing: &mut CacheBacking<'_>,
    ) -> Result<(u32, u32, u64), CacheError> {
        let set = line_number & self.set_mask;
        self.lru_clock += 1;
        let clock = self.lru_clock;

        // Probe the set.
        for way in 0..self.config.ways {
            let slot = self.slot_index(set, way);
            if self.lines[slot].valid && self.lines[slot].line_number == line_number {
                self.lines[slot].last_use = clock;
                self.stats.hits += 1;
                let t = now + self.config.lookup_cycles(way + 1);
                return Ok((set, way, t));
            }
        }

        // Miss: full probe, then pick a victim (invalid first, else LRU).
        self.stats.misses += 1;
        let mut t = now + self.config.lookup_cycles(self.config.ways);
        let victim = (0..self.config.ways)
            .min_by_key(|&way| {
                let meta = self.lines[self.slot_index(set, way)];
                (meta.valid, meta.last_use)
            })
            .expect("ways >= 1");
        let slot = self.slot_index(set, victim);
        let buffer = self.line_buffer(set, victim);

        // A write-through put may still be streaming out of the victim's
        // buffer; refilling it now would race the put. Drain first.
        if !self.wt_pending.is_empty() {
            self.wt_pending.clear();
            t = backing.dma.wait(TagMask::from(self.write_tag()), t);
        }

        // Write the victim back if needed.
        let evicted = self.lines[slot];
        if evicted.valid {
            self.stats.evictions += 1;
            if evicted.dirty {
                let remote = Addr::new(
                    self.remote_space,
                    evicted.line_number * self.config.line_size,
                );
                let resume = backing.dma.put(
                    t,
                    buffer,
                    remote,
                    evicted.len,
                    self.write_tag(),
                    backing.main,
                    backing.ls,
                )?;
                t = backing.dma.wait(self.write_tag().mask(), resume);
                self.stats.writebacks += 1;
                self.stats.bytes_written_back += u64::from(evicted.len);
            }
        }

        // Fetch the new line (clipped at the end of remote memory).
        let line_start = line_number * self.config.line_size;
        let len = self
            .config
            .line_size
            .min(backing.main.capacity().saturating_sub(line_start));
        debug_assert!(len > 0, "caller validated the access is in bounds");
        let remote = Addr::new(self.remote_space, line_start);
        let resume = backing.dma.get(
            t,
            buffer,
            remote,
            len,
            self.fetch_tag(),
            backing.main,
            backing.ls,
        )?;
        t = backing.dma.wait(self.fetch_tag().mask(), resume);
        self.stats.bytes_fetched += u64::from(len);

        self.lines[slot] = LineMeta {
            valid: true,
            dirty: false,
            line_number,
            len,
            last_use: clock,
        };
        Ok((set, victim, t))
    }

    fn check_space(&self, addr: Addr) -> Result<(), CacheError> {
        if addr.space() != self.remote_space {
            return Err(CacheError::NotCacheable {
                space: addr.space(),
            });
        }
        Ok(())
    }

    /// Waits for write-through puts whose remote range overlaps `range`.
    fn drain_conflicting_puts(
        &mut self,
        now: u64,
        range: AddrRange,
        backing: &mut CacheBacking<'_>,
    ) -> u64 {
        if self.wt_pending.iter().any(|r| r.overlaps(range)) {
            self.wt_pending.clear();
            backing.dma.wait(TagMask::from(self.write_tag()), now)
        } else {
            now
        }
    }
}

impl SoftwareCache for SetAssociativeCache {
    fn read(
        &mut self,
        now: u64,
        addr: Addr,
        out: &mut [u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        self.check_space(addr)?;
        self.stats.reads += 1;
        let mut t = now;
        let mut done = 0u32;
        let total = out.len() as u32;
        while done < total {
            let offset = addr.offset() + done;
            let (line_number, in_line) = self.split_offset(offset);
            let chunk = (self.config.line_size - in_line).min(total - done);
            let (set, way, after) = self.ensure_line(t, line_number, backing)?;
            t = after + self.config.copy_cycles(chunk);
            let buffer = self.line_buffer(set, way).offset_by(in_line)?;
            backing
                .ls
                .read_into(buffer, &mut out[done as usize..(done + chunk) as usize])?;
            done += chunk;
        }
        self.stats.cycles += t - now;
        Ok(t)
    }

    fn write(
        &mut self,
        now: u64,
        addr: Addr,
        data: &[u8],
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        self.check_space(addr)?;
        self.stats.writes += 1;
        let mut t = now;
        let mut done = 0u32;
        let total = data.len() as u32;
        while done < total {
            let offset = addr.offset() + done;
            let (line_number, in_line) = self.split_offset(offset);
            let chunk = (self.config.line_size - in_line).min(total - done);
            let (set, way, after) = self.ensure_line(t, line_number, backing)?;
            t = after + self.config.copy_cycles(chunk);
            let buffer = self.line_buffer(set, way).offset_by(in_line)?;
            let slot = self.slot_index(set, way);
            match self.config.write {
                WritePolicy::WriteBack => {
                    backing
                        .ls
                        .write_bytes(buffer, &data[done as usize..(done + chunk) as usize])?;
                    self.lines[slot].dirty = true;
                }
                WritePolicy::WriteThrough => {
                    // An earlier asynchronous put of the same bytes must
                    // complete first, or the two unordered puts race.
                    let remote = Addr::new(self.remote_space, offset);
                    let range = AddrRange::new(remote, chunk)?;
                    t = self.drain_conflicting_puts(t, range, backing);
                    backing
                        .ls
                        .write_bytes(buffer, &data[done as usize..(done + chunk) as usize])?;
                    let resume = backing.dma.put(
                        t,
                        buffer,
                        remote,
                        chunk,
                        self.write_tag(),
                        backing.main,
                        backing.ls,
                    )?;
                    t = resume;
                    self.wt_pending.push(range);
                    self.stats.writebacks += 1;
                    self.stats.bytes_written_back += u64::from(chunk);
                }
            }
            done += chunk;
        }
        self.stats.cycles += t - now;
        Ok(t)
    }

    fn flush(&mut self, now: u64, backing: &mut CacheBacking<'_>) -> Result<u64, CacheError> {
        let mut t = now;
        for set in 0..self.config.num_sets {
            for way in 0..self.config.ways {
                let slot = self.slot_index(set, way);
                let meta = self.lines[slot];
                if meta.valid && meta.dirty {
                    let buffer = self.line_buffer(set, way);
                    let remote =
                        Addr::new(self.remote_space, meta.line_number * self.config.line_size);
                    t = backing.dma.put(
                        t,
                        buffer,
                        remote,
                        meta.len,
                        self.write_tag(),
                        backing.main,
                        backing.ls,
                    )?;
                    self.lines[slot].dirty = false;
                    self.stats.writebacks += 1;
                    self.stats.bytes_written_back += u64::from(meta.len);
                }
            }
        }
        let t = backing.dma.wait(TagMask::from(self.write_tag()), t);
        self.wt_pending.clear();
        self.stats.cycles += t - now;
        Ok(t)
    }

    fn invalidate(&mut self) {
        for meta in &mut self.lines {
            *meta = LineMeta::empty();
        }
        self.wt_pending.clear();
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn describe(&self) -> String {
        format!(
            "{}-way {} KiB / {} B lines ({})",
            self.config.ways,
            self.config.capacity_bytes() / 1024,
            self.config.line_size,
            self.config.write,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheExt;
    use dma::DmaEngine;
    use memspace::{MemoryRegion, SpaceKind};

    struct Rig {
        main: MemoryRegion,
        ls: MemoryRegion,
        dma: DmaEngine,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                main: MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 256 * 1024),
                ls: MemoryRegion::new(
                    SpaceId::local_store(0),
                    SpaceKind::LocalStore { accel: 0 },
                    memspace::LOCAL_STORE_SIZE,
                ),
                dma: DmaEngine::new(SpaceId::local_store(0)),
            }
        }

        fn backing(&mut self) -> CacheBacking<'_> {
            CacheBacking {
                main: &mut self.main,
                ls: &mut self.ls,
                dma: &mut self.dma,
            }
        }
    }

    fn addr(offset: u32) -> Addr {
        Addr::new(SpaceId::MAIN, offset)
    }

    #[test]
    fn miss_then_hit() {
        let mut rig = Rig::new();
        let mut cache =
            SetAssociativeCache::new(CacheConfig::direct_mapped_4k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        rig.main.write_pod(addr(256), &7u32).unwrap();

        let mut backing = rig.backing();
        let (v, t1) = cache.read_pod::<u32>(0, addr(256), &mut backing).unwrap();
        assert_eq!(v, 7);
        let (v, t2) = cache.read_pod::<u32>(t1, addr(260), &mut backing).unwrap();
        assert_eq!(v, 0);
        let miss_cost = t1;
        let hit_cost = t2 - t1;
        assert!(
            hit_cost < miss_cost / 5,
            "hit {hit_cost} vs miss {miss_cost}"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn write_back_reaches_main_memory_on_flush() {
        let mut rig = Rig::new();
        let mut cache =
            SetAssociativeCache::new(CacheConfig::direct_mapped_4k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        let mut backing = rig.backing();
        let t = cache
            .write_pod(0, addr(512), &0xabcd_u16, &mut backing)
            .unwrap();
        // Not yet visible in main memory (write-back).
        assert_eq!(backing.main.read_pod::<u16>(addr(512)).unwrap(), 0);
        cache.flush(t, &mut backing).unwrap();
        assert_eq!(backing.main.read_pod::<u16>(addr(512)).unwrap(), 0xabcd);
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn write_through_reaches_main_memory_immediately() {
        let mut rig = Rig::new();
        let config = CacheConfig::direct_mapped_4k().write_policy(WritePolicy::WriteThrough);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        cache
            .write_pod(0, addr(512), &0x1234_u16, &mut backing)
            .unwrap();
        assert_eq!(backing.main.read_pod::<u16>(addr(512)).unwrap(), 0x1234);
    }

    #[test]
    fn repeated_write_through_to_same_bytes_is_race_free() {
        let mut rig = Rig::new();
        let config = CacheConfig::direct_mapped_4k().write_policy(WritePolicy::WriteThrough);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut t = 0;
        for i in 0..4u32 {
            t = cache.write_pod(t, addr(512), &i, &mut backing).unwrap();
        }
        cache.flush(t, &mut backing).unwrap();
        assert_eq!(backing.main.read_pod::<u32>(addr(512)).unwrap(), 3);
        assert_eq!(backing.dma.race_checker().detected(), 0);
    }

    #[test]
    fn eviction_writes_back_dirty_victim() {
        let mut rig = Rig::new();
        // Tiny direct-mapped cache: 16 B lines x 2 sets.
        let config = CacheConfig::new(16, 2, 1);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        // Line 0 (set 0), dirty.
        let t = cache.write_pod(0, addr(0x20), &1u32, &mut backing).unwrap();
        // Line 2 also maps to set 0 -> evicts and writes back.
        let t = cache
            .read_pod::<u32>(t, addr(0x40), &mut backing)
            .unwrap()
            .1;
        assert_eq!(backing.main.read_pod::<u32>(addr(0x20)).unwrap(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().writebacks, 1);
        let _ = t;
    }

    #[test]
    fn two_way_avoids_the_direct_mapped_conflict() {
        // Alternate between two lines mapping to the same set: direct-
        // mapped thrashes, 2-way holds both. This is the "different
        // caches favour different behaviours" claim in miniature.
        let run = |ways: u32| {
            let mut rig = Rig::new();
            let config = CacheConfig::new(64, 8, ways);
            let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
            let mut backing = rig.backing();
            let mut t = 0;
            let stride = 64 * 8; // same set every time
            for _ in 0..8 {
                for line in 0..2u32 {
                    t = cache
                        .read_pod::<u32>(t, addr(line * stride), &mut backing)
                        .unwrap()
                        .1;
                }
            }
            (cache.stats().hit_rate(), t)
        };
        let (dm_rate, dm_time) = run(1);
        let (two_rate, two_time) = run(2);
        assert!(dm_rate < 0.01, "direct-mapped thrashes: {dm_rate}");
        assert!(two_rate > 0.85, "2-way holds both lines: {two_rate}");
        assert!(two_time < dm_time / 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        let mut rig = Rig::new();
        let config = CacheConfig::new(64, 1, 2); // one set, two ways
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut t = 0;
        // Touch lines 0, 1, then 0 again; loading line 2 must evict 1.
        for line in [0u32, 1, 0, 2] {
            t = cache
                .read_pod::<u32>(t, addr(line * 64), &mut backing)
                .unwrap()
                .1;
        }
        let misses_before = cache.stats().misses;
        t = cache.read_pod::<u32>(t, addr(0), &mut backing).unwrap().1;
        assert_eq!(cache.stats().misses, misses_before, "line 0 survived");
        cache.read_pod::<u32>(t, addr(64), &mut backing).unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "line 1 was evicted"
        );
    }

    #[test]
    fn read_spanning_lines() {
        let mut rig = Rig::new();
        let config = CacheConfig::new(16, 8, 1);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        let data: Vec<u8> = (0..48).collect();
        rig.main.write_bytes(addr(8), &data).unwrap();
        let mut backing = rig.backing();
        let mut out = vec![0u8; 48];
        cache.read(0, addr(8), &mut out, &mut backing).unwrap();
        assert_eq!(out, data);
        assert_eq!(cache.stats().misses, 4, "touches lines 0..=3");
    }

    #[test]
    fn invalidate_drops_contents_without_writeback() {
        let mut rig = Rig::new();
        let mut cache =
            SetAssociativeCache::new(CacheConfig::direct_mapped_4k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        let mut backing = rig.backing();
        let t = cache.write_pod(0, addr(512), &9u32, &mut backing).unwrap();
        cache.invalidate();
        // The dirty data is lost (that is what invalidate means)...
        assert_eq!(backing.main.read_pod::<u32>(addr(512)).unwrap(), 0);
        // ...and the next read re-fetches from main memory.
        let (v, _) = cache.read_pod::<u32>(t, addr(512), &mut backing).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn local_store_addresses_are_rejected() {
        let mut rig = Rig::new();
        let mut cache =
            SetAssociativeCache::new(CacheConfig::direct_mapped_4k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        let mut backing = rig.backing();
        let mut out = [0u8; 4];
        let err = cache
            .read(
                0,
                Addr::new(SpaceId::local_store(0), 0),
                &mut out,
                &mut backing,
            )
            .unwrap_err();
        assert!(matches!(err, CacheError::NotCacheable { .. }));
    }

    #[test]
    fn stats_accumulate_cycles() {
        let mut rig = Rig::new();
        let mut cache =
            SetAssociativeCache::new(CacheConfig::direct_mapped_4k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        let mut backing = rig.backing();
        let t = cache.read_pod::<u32>(0, addr(0), &mut backing).unwrap().1;
        assert_eq!(cache.stats().cycles, t);
        assert!(cache.stats().bytes_fetched >= 64);
    }

    #[test]
    fn geometry_that_cannot_be_indexed_is_rejected_at_construction() {
        let base = CacheConfig::direct_mapped_4k();
        let bad = [
            CacheConfig {
                line_size: 0,
                ..base
            },
            CacheConfig {
                line_size: 48,
                ..base
            },
            CacheConfig {
                num_sets: 0,
                ..base
            },
            CacheConfig {
                num_sets: 3,
                ..base
            },
            CacheConfig { ways: 0, ..base },
            CacheConfig {
                line_size: 1 << 16,
                num_sets: 1 << 16,
                ..base
            },
        ];
        for config in bad {
            let mut rig = Rig::new();
            let expected = CacheError::BadGeometry {
                line_size: config.line_size,
                num_sets: config.num_sets,
                ways: config.ways,
            };
            let set_assoc = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls);
            assert_eq!(set_assoc.unwrap_err(), expected, "{config:?}");
            let stream = crate::StreamCache::new(config, SpaceId::MAIN, &mut rig.ls);
            assert_eq!(stream.unwrap_err(), expected, "{config:?}");
            assert_eq!(
                rig.ls.save_alloc(),
                memspace::DMA_ALIGN,
                "nothing allocated for {config:?}"
            );
        }
        // The smallest geometry `CacheConfig::new` accepts still builds
        // and serves reads.
        let mut rig = Rig::new();
        let config = CacheConfig::new(16, 1, 1);
        let mut cache = SetAssociativeCache::new(config, SpaceId::MAIN, &mut rig.ls).unwrap();
        rig.main.write_pod(addr(40), &9u32).unwrap();
        let (v, _) = cache
            .read_pod::<u32>(0, addr(40), &mut rig.backing())
            .unwrap();
        assert_eq!(v, 9);
    }

    #[test]
    fn describe_mentions_geometry() {
        let mut rig = Rig::new();
        let cache =
            SetAssociativeCache::new(CacheConfig::four_way_16k(), SpaceId::MAIN, &mut rig.ls)
                .unwrap();
        let text = cache.describe();
        assert!(text.contains("4-way"));
        assert!(text.contains("16 KiB"));
    }
}

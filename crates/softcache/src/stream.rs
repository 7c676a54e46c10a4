//! A sequential-streaming software cache with asynchronous prefetch.

use dma::Tag;
use memspace::{Addr, SpaceId};

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use crate::{CacheBacking, CacheError, SoftwareCache};

/// DMA tag used for asynchronous prefetches.
const PREFETCH_TAG: u8 = 29;
/// DMA tag used for (uncached) writes.
const STREAM_WRITE_TAG: u8 = 28;

#[derive(Clone, Copy, Debug)]
struct Resident {
    line_number: u32,
    len: u32,
}

/// A two-buffer streaming cache: while the core consumes the current
/// line, the next line is already in flight.
///
/// This is the cache shape that wins on the sequential scans game tasks
/// perform over entity arrays (and loses badly on random access — the
/// profiling-driven trade-off of paper §4.2). It holds exactly two large
/// line buffers in the local store: reads from the *current* line are
/// hits; advancing into the *prefetched* line costs only the residual
/// wait; anything else is a full blocking miss that restarts the stream.
///
/// Writes are deliberately uncached (a blocking put): the streaming use
/// case is read-dominated, and keeping writes out of the buffers keeps
/// the prefetch pipeline race-free.
#[derive(Debug)]
pub struct StreamCache {
    config: CacheConfig,
    remote_space: SpaceId,
    buffers: [Addr; 2],
    staging: Addr,
    current: Option<Resident>,
    /// Prefetch in flight into `buffers[1 - active]`.
    prefetching: Option<Resident>,
    active: usize,
    stats: CacheStats,
}

impl StreamCache {
    /// Creates a streaming cache with two `config.line_size` buffers
    /// allocated from `ls`. Only `line_size` (and the cost fields) of
    /// `config` are used; sets/ways/write-policy do not apply.
    ///
    /// # Errors
    ///
    /// Fails with [`CacheError::BadGeometry`] if the configuration's
    /// geometry is invalid (as for [`crate::SetAssociativeCache::new`]),
    /// and with a memory error if the local store cannot fit the two
    /// line buffers plus a 16-byte write staging area.
    pub fn new(
        config: CacheConfig,
        remote_space: SpaceId,
        ls: &mut memspace::MemoryRegion,
    ) -> Result<StreamCache, CacheError> {
        config.validate()?;
        let a = ls.alloc(config.line_size, memspace::DMA_ALIGN)?;
        let b = ls.alloc(config.line_size, memspace::DMA_ALIGN)?;
        let staging = ls.alloc(memspace::DMA_ALIGN, memspace::DMA_ALIGN)?;
        Ok(StreamCache {
            config,
            remote_space,
            buffers: [a, b],
            staging,
            current: None,
            prefetching: None,
            active: 0,
            stats: CacheStats::default(),
        })
    }

    fn prefetch_tag(&self) -> Tag {
        Tag::new(PREFETCH_TAG).expect("constant tag is valid")
    }

    fn write_tag(&self) -> Tag {
        Tag::new(STREAM_WRITE_TAG).expect("constant tag is valid")
    }

    fn line_len(&self, line_number: u32, backing: &CacheBacking<'_>) -> u32 {
        let start = line_number * self.config.line_size;
        self.config
            .line_size
            .min(backing.main.capacity().saturating_sub(start))
    }

    /// Issues an asynchronous prefetch of `line_number` into the
    /// inactive buffer, if it exists in remote memory.
    fn issue_prefetch(
        &mut self,
        now: u64,
        line_number: u32,
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        let len = self.line_len(line_number, backing);
        if len == 0 {
            return Ok(now); // past the end of remote memory
        }
        let buffer = self.buffers[1 - self.active];
        let remote = Addr::new(self.remote_space, line_number * self.config.line_size);
        let resume = backing.dma.get(
            now,
            buffer,
            remote,
            len,
            self.prefetch_tag(),
            backing.main,
            backing.ls,
        )?;
        self.prefetching = Some(Resident { line_number, len });
        self.stats.bytes_fetched += u64::from(len);
        Ok(resume)
    }

    /// Discards any in-flight prefetch, waiting for the engine so its
    /// buffer can be reused.
    fn cancel_prefetch(&mut self, now: u64, backing: &mut CacheBacking<'_>) -> u64 {
        if self.prefetching.take().is_some() {
            self.stats.prefetch_wasted += 1;
            backing.dma.wait(self.prefetch_tag().mask(), now)
        } else {
            now
        }
    }

    /// Makes `line_number` the current resident line; returns the cycle
    /// at which its bytes are available.
    fn ensure_line(
        &mut self,
        now: u64,
        line_number: u32,
        backing: &mut CacheBacking<'_>,
    ) -> Result<u64, CacheError> {
        if let Some(current) = self.current {
            if current.line_number == line_number {
                self.stats.hits += 1;
                return Ok(now + self.config.lookup_cycles(1));
            }
        }
        if let Some(pending) = self.prefetching {
            if pending.line_number == line_number {
                // Stream advance: pay only the residual transfer time.
                self.stats.hits += 1;
                self.stats.prefetch_hits += 1;
                let mut t = now + self.config.lookup_cycles(2);
                t = backing.dma.wait(self.prefetch_tag().mask(), t);
                self.prefetching = None;
                self.active = 1 - self.active;
                self.current = Some(pending);
                t = self.issue_prefetch(t, line_number + 1, backing)?;
                return Ok(t);
            }
        }
        // Stream restart: blocking fetch.
        self.stats.misses += 1;
        let mut t = now + self.config.lookup_cycles(2);
        t = self.cancel_prefetch(t, backing);
        let len = self.line_len(line_number, backing);
        debug_assert!(len > 0, "caller validated the access is in bounds");
        let buffer = self.buffers[self.active];
        let remote = Addr::new(self.remote_space, line_number * self.config.line_size);
        let resume = backing.dma.get(
            t,
            buffer,
            remote,
            len,
            self.prefetch_tag(),
            backing.main,
            backing.ls,
        )?;
        t = backing.dma.wait(self.prefetch_tag().mask(), resume);
        self.stats.bytes_fetched += u64::from(len);
        self.current = Some(Resident { line_number, len });
        t = self.issue_prefetch(t, line_number + 1, backing)?;
        Ok(t)
    }

    fn check_space(&self, addr: Addr) -> Result<(), CacheError> {
        if addr.space() != self.remote_space {
            return Err(CacheError::NotCacheable {
                space: addr.space(),
            });
        }
        Ok(())
    }
}

impl SoftwareCache for StreamCache {
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
            let (line_number, in_line) = self.config.split_offset(offset);
            let chunk = (self.config.line_size - in_line).min(total - done);
            t = self.ensure_line(t, line_number, backing)?;
            t += self.config.copy_cycles(chunk);
            let buffer = self.buffers[self.active].offset_by(in_line)?;
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
        // Uncached blocking put, staged through a small local buffer in
        // 16-byte pieces.
        let mut done = 0u32;
        let total = data.len() as u32;
        while done < total {
            let chunk = (total - done).min(memspace::DMA_ALIGN);
            let remote = addr.offset_by(done)?;
            // If the write lands in the line currently being prefetched,
            // the put would race the in-flight get — and the prefetched
            // copy would be stale afterwards anyway. Cancel it.
            if let Some(pending) = self.prefetching {
                let p_start = pending.line_number * self.config.line_size;
                let p_end = p_start + pending.len;
                if remote.offset() < p_end && p_start < remote.offset() + chunk {
                    t = self.cancel_prefetch(t, backing);
                }
            }
            backing
                .ls
                .write_bytes(self.staging, &data[done as usize..(done + chunk) as usize])?;
            let resume = backing.dma.put(
                t,
                self.staging,
                remote,
                chunk,
                self.write_tag(),
                backing.main,
                backing.ls,
            )?;
            t = backing.dma.wait(self.write_tag().mask(), resume);
            self.stats.writebacks += 1;
            self.stats.bytes_written_back += u64::from(chunk);
            // Keep a resident copy coherent if the write lands in it.
            if let Some(current) = self.current {
                let line_start = current.line_number * self.config.line_size;
                let write_start = remote.offset();
                if write_start >= line_start && write_start + chunk <= line_start + current.len {
                    let in_line = write_start - line_start;
                    let buffer = self.buffers[self.active].offset_by(in_line)?;
                    backing
                        .ls
                        .write_bytes(buffer, &data[done as usize..(done + chunk) as usize])?;
                }
            }
            done += chunk;
        }
        self.stats.cycles += t - now;
        Ok(t)
    }

    fn flush(&mut self, now: u64, backing: &mut CacheBacking<'_>) -> Result<u64, CacheError> {
        // Writes are already synchronous; just drain any prefetch so the
        // engine is quiet.
        Ok(self.cancel_prefetch(now, backing))
    }

    fn invalidate(&mut self) {
        self.current = None;
        // A prefetch may still be in flight; the next use waits on its
        // tag before reusing the buffer.
        if self.prefetching.take().is_some() {
            self.stats.prefetch_wasted += 1;
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn describe(&self) -> String {
        format!(
            "streaming 2x{} B buffers (async prefetch)",
            self.config.line_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssociativeCache;
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

    fn stream_config() -> CacheConfig {
        CacheConfig::new(1024, 1, 1)
    }

    #[test]
    fn sequential_scan_reads_correct_data() {
        let mut rig = Rig::new();
        let data: Vec<u8> = (0..255u8).cycle().take(8192).collect();
        rig.main.write_bytes(addr(0), &data).unwrap();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut t = 0;
        let mut out = [0u8; 64];
        for i in 0..(8192 / 64) {
            t = cache.read(t, addr(i * 64), &mut out, &mut backing).unwrap();
            assert_eq!(out[..], data[(i * 64) as usize..(i * 64 + 64) as usize]);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "only the stream start misses");
        assert_eq!(s.prefetch_hits, 7, "every subsequent line was prefetched");
    }

    #[test]
    fn prefetch_overlaps_compute() {
        // A scan with per-chunk compute long enough to cover the
        // prefetch: advancing lines costs ~nothing beyond lookup.
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut out = [0u8; 1024];
        let t0 = cache.read(0, addr(0), &mut out, &mut backing).unwrap();
        // Simulate compute long enough for the prefetch to land.
        let resume = t0 + 10_000;
        let t1 = cache
            .read(resume, addr(1024), &mut out, &mut backing)
            .unwrap();
        let advance_cost = t1 - resume;
        let miss_cost = t0;
        assert!(
            advance_cost < miss_cost / 4,
            "advance {advance_cost} vs miss {miss_cost}"
        );
    }

    #[test]
    fn random_access_restarts_the_stream() {
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut out = [0u8; 16];
        let mut t = 0;
        for line in [0u32, 50, 3, 97, 12] {
            t = cache
                .read(t, addr(line * 1024), &mut out, &mut backing)
                .unwrap();
        }
        assert_eq!(cache.stats().misses, 5);
        assert!(cache.stats().prefetch_wasted >= 4);
    }

    #[test]
    fn stream_beats_set_associative_on_scans_and_loses_on_random() {
        // The paper's "several caches favouring different behaviours".
        let scan_len: u32 = 32 * 1024;
        let sequential: Vec<u32> = (0..scan_len / 64).map(|i| i * 64).collect();
        let random: Vec<u32> = {
            // Deterministic LCG shuffle of line addresses.
            let mut state = 12345u64;
            (0..512)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as u32 % (scan_len / 64)) * 64
                })
                .collect()
        };

        let run = |pattern: &[u32], streaming: bool| -> u64 {
            let mut rig = Rig::new();
            let mut t = 0;
            let mut out = [0u8; 16];
            if streaming {
                let mut cache =
                    StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
                let mut backing = rig.backing();
                for &offset in pattern {
                    t = cache.read(t, addr(offset), &mut out, &mut backing).unwrap();
                }
            } else {
                let mut cache = SetAssociativeCache::new(
                    CacheConfig::direct_mapped_4k(),
                    SpaceId::MAIN,
                    &mut rig.ls,
                )
                .unwrap();
                let mut backing = rig.backing();
                for &offset in pattern {
                    t = cache.read(t, addr(offset), &mut out, &mut backing).unwrap();
                }
            }
            t
        };

        let stream_seq = run(&sequential, true);
        let assoc_seq = run(&sequential, false);
        assert!(
            stream_seq < assoc_seq,
            "streaming wins sequential: {stream_seq} vs {assoc_seq}"
        );

        let stream_rand = run(&random, true);
        let assoc_rand = run(&random, false);
        assert!(
            assoc_rand < stream_rand,
            "set-associative wins random: {assoc_rand} vs {stream_rand}"
        );
    }

    #[test]
    fn writes_reach_main_memory_and_stay_coherent() {
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        // Read line 0 so it is resident, then write into it.
        let (before, t) = cache.read_pod::<u32>(0, addr(16), &mut backing).unwrap();
        assert_eq!(before, 0);
        let t = cache.write_pod(t, addr(16), &77u32, &mut backing).unwrap();
        assert_eq!(backing.main.read_pod::<u32>(addr(16)).unwrap(), 77);
        // The resident copy was patched too: re-reading hits and sees 77.
        let (after, _) = cache.read_pod::<u32>(t, addr(16), &mut backing).unwrap();
        assert_eq!(after, 77);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let (_, t) = cache.read_pod::<u32>(0, addr(0), &mut backing).unwrap();
        // Main memory changes behind the cache.
        backing.main.write_pod(addr(0), &5u32).unwrap();
        cache.invalidate();
        let (v, _) = cache.read_pod::<u32>(t, addr(0), &mut backing).unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn wrong_space_is_rejected() {
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let err = cache
            .write(0, Addr::new(SpaceId::local_store(0), 0), &[1], &mut backing)
            .unwrap_err();
        assert!(matches!(err, CacheError::NotCacheable { .. }));
    }

    #[test]
    fn no_races_reported_by_the_engine() {
        let mut rig = Rig::new();
        let mut cache = StreamCache::new(stream_config(), SpaceId::MAIN, &mut rig.ls).unwrap();
        let mut backing = rig.backing();
        let mut t = 0;
        let mut out = [0u8; 32];
        for i in 0..64u32 {
            t = cache
                .read(t, addr(i * 512), &mut out, &mut backing)
                .unwrap();
            if i % 7 == 0 {
                t = cache
                    .write(t, addr(i * 512), &[1, 2, 3], &mut backing)
                    .unwrap();
            }
        }
        cache.flush(t, &mut backing).unwrap();
        assert_eq!(backing.dma.race_checker().detected(), 0);
    }
}

//! Simulated memory regions.

use std::fmt;

use crate::addr::{Addr, AddrRange};
use crate::error::MemError;
use crate::layout::checked_align_up;
use crate::pod::Pod;
use crate::space::{SpaceId, SpaceKind};

/// A bounds-checked simulated memory: one memory space's storage.
///
/// A region is a flat byte array tagged with its [`SpaceId`]. All access
/// is bounds-checked and space-checked: presenting an address minted for
/// a different space is an error, which is precisely the class of bug the
/// Offload C++ type system exists to rule out statically (paper §3).
///
/// Regions also carry a simple bump allocator ([`MemoryRegion::alloc`])
/// so runtimes can place data without an external allocator; offset 0 is
/// reserved as the null address.
///
/// # Example
///
/// ```
/// use memspace::{Addr, MemoryRegion, SpaceId, SpaceKind};
///
/// # fn main() -> Result<(), memspace::MemError> {
/// let mut m = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 4096);
/// let addr = m.alloc(64, 16)?;
/// m.write_pod(addr, &1.25f32)?;
/// assert_eq!(m.read_pod::<f32>(addr)?, 1.25);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MemoryRegion {
    id: SpaceId,
    kind: SpaceKind,
    bytes: Vec<u8>,
    next_free: u32,
    high_water: u32,
    /// One past the highest byte ever written (not merely allocated).
    /// Everything at or above this offset is still zero from
    /// construction, so [`MemoryRegion::reset`] only has to clear the
    /// dirty prefix — the difference between recycling a 16 MiB machine
    /// in microseconds and re-zeroing it wholesale.
    dirty_high: u32,
}

impl MemoryRegion {
    /// Creates a zero-initialised region of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a memory space must exist to be
    /// addressed.
    pub fn new(id: SpaceId, kind: SpaceKind, capacity: u32) -> MemoryRegion {
        assert!(capacity > 0, "memory region capacity must be non-zero");
        MemoryRegion {
            id,
            kind,
            bytes: vec![0; capacity as usize],
            // Offset 0 is the null address; start allocating past it at
            // a DMA-friendly boundary.
            next_free: crate::DMA_ALIGN,
            high_water: crate::DMA_ALIGN,
            dirty_high: 0,
        }
    }

    /// Notes that bytes up to offset `end` (exclusive) may now be
    /// non-zero. Every mutation path funnels through this.
    #[inline]
    fn mark_dirty(&mut self, end: usize) {
        self.dirty_high = self.dirty_high.max(end as u32);
    }

    /// The space this region implements.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The kind of this region.
    pub fn kind(&self) -> SpaceKind {
        self.kind
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Bytes not yet handed out by the bump allocator.
    pub fn bytes_free(&self) -> u32 {
        self.capacity().saturating_sub(self.next_free)
    }

    #[inline]
    fn check(&self, addr: Addr, len: u32) -> Result<usize, MemError> {
        if addr.space() != self.id {
            return Err(MemError::SpaceMismatch {
                expected: addr.space(),
                actual: self.id,
            });
        }
        let end = addr
            .offset()
            .checked_add(len)
            .ok_or(MemError::AddressOverflow {
                space: self.id,
                offset: addr.offset(),
                delta: len,
            })?;
        if end > self.capacity() {
            return Err(MemError::OutOfBounds {
                space: self.id,
                offset: addr.offset(),
                len,
                capacity: self.capacity(),
            });
        }
        Ok(addr.offset() as usize)
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::SpaceMismatch`] for a foreign address and
    /// [`MemError::OutOfBounds`] for an out-of-range access.
    pub fn read_bytes(&self, addr: Addr, len: u32) -> Result<&[u8], MemError> {
        let at = self.check(addr, len)?;
        Ok(&self.bytes[at..at + len as usize])
    }

    /// Copies bytes starting at `addr` into `out`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    #[inline]
    pub fn read_into(&self, addr: Addr, out: &mut [u8]) -> Result<(), MemError> {
        let at = self.check(addr, out.len() as u32)?;
        out.copy_from_slice(&self.bytes[at..at + out.len()]);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    #[inline]
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        let at = self.check(addr, data.len() as u32)?;
        self.bytes[at..at + data.len()].copy_from_slice(data);
        self.mark_dirty(at + data.len());
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn fill(&mut self, addr: Addr, len: u32, value: u8) -> Result<(), MemError> {
        let at = self.check(addr, len)?;
        self.bytes[at..at + len as usize].fill(value);
        self.mark_dirty(at + len as usize);
        Ok(())
    }

    /// Reads a typed value at `addr`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn read_pod<T: Pod>(&self, addr: Addr) -> Result<T, MemError> {
        let at = self.check(addr, T::SIZE as u32)?;
        Ok(T::read_from(&self.bytes[at..at + T::SIZE]))
    }

    /// Writes a typed value at `addr`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn write_pod<T: Pod>(&mut self, addr: Addr, value: &T) -> Result<(), MemError> {
        let at = self.check(addr, T::SIZE as u32)?;
        value.write_to(&mut self.bytes[at..at + T::SIZE]);
        self.mark_dirty(at + T::SIZE);
        Ok(())
    }

    /// Reads `count` consecutive typed values starting at `addr`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn read_pod_slice<T: Pod>(&self, addr: Addr, count: u32) -> Result<Vec<T>, MemError> {
        let mut out = Vec::with_capacity(count as usize);
        self.read_pod_slice_into(addr, count, &mut out)?;
        Ok(out)
    }

    /// Reads `count` consecutive typed values starting at `addr`,
    /// appending them to `out`. Lets hot loops reuse one scratch `Vec`
    /// (clear + refill) instead of allocating a fresh one per call.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn read_pod_slice_into<T: Pod>(
        &self,
        addr: Addr,
        count: u32,
        out: &mut Vec<T>,
    ) -> Result<(), MemError> {
        let total = (T::SIZE as u32)
            .checked_mul(count)
            .ok_or(MemError::AddressOverflow {
                space: self.id,
                offset: addr.offset(),
                delta: u32::MAX,
            })?;
        let at = self.check(addr, total)?;
        T::read_slice_into(&self.bytes[at..at + total as usize], count as usize, out);
        Ok(())
    }

    /// Writes consecutive typed values starting at `addr`.
    ///
    /// One bounds check, then the type's bulk serialiser — a single
    /// `copy_from_slice` for byte-layout types rather than a
    /// per-element loop.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::read_bytes`].
    pub fn write_pod_slice<T: Pod>(&mut self, addr: Addr, values: &[T]) -> Result<(), MemError> {
        let total = (T::SIZE * values.len()) as u32;
        let at = self.check(addr, total)?;
        T::write_slice_to(values, &mut self.bytes[at..at + total as usize]);
        self.mark_dirty(at + total as usize);
        Ok(())
    }

    /// Bump-allocates `size` bytes at the given alignment and returns the
    /// address of the block.
    ///
    /// This is intentionally a simple arena: the paper's workloads
    /// allocate task data once per frame region and reset wholesale,
    /// which [`MemoryRegion::reset_allocator`] models.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, size: u32, align: u32) -> Result<Addr, MemError> {
        let addr = self.check_alloc(size, align)?;
        self.next_free = addr.offset() + size;
        self.high_water = self.high_water.max(self.next_free);
        Ok(addr)
    }

    /// The address [`MemoryRegion::alloc`] would return for `size` bytes
    /// at `align`, without allocating them.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::alloc`].
    pub fn check_alloc(&self, size: u32, align: u32) -> Result<Addr, MemError> {
        let start = checked_align_up(self.id, self.next_free, align)?;
        let end = start.checked_add(size).ok_or(MemError::AddressOverflow {
            space: self.id,
            offset: start,
            delta: size,
        })?;
        if end > self.capacity() {
            return Err(MemError::OutOfMemory {
                space: self.id,
                requested: size,
                available: self.bytes_free(),
            });
        }
        Ok(Addr::new(self.id, start))
    }

    /// Allocates room for a single `T` at its preferred alignment.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::alloc`].
    pub fn alloc_pod<T: Pod>(&mut self) -> Result<Addr, MemError> {
        self.alloc(T::SIZE as u32, T::ALIGN as u32)
    }

    /// Allocates room for `count` consecutive `T`s at `T`'s preferred
    /// alignment.
    ///
    /// # Errors
    ///
    /// As for [`MemoryRegion::alloc`].
    pub fn alloc_pod_slice<T: Pod>(&mut self, count: u32) -> Result<Addr, MemError> {
        let size = (T::SIZE as u32)
            .checked_mul(count)
            .ok_or(MemError::OutOfMemory {
                space: self.id,
                requested: u32::MAX,
                available: self.bytes_free(),
            })?;
        self.alloc(size, T::ALIGN as u32)
    }

    /// Resets the bump allocator, making the whole region (minus the null
    /// page) available again. Contents are left in place.
    pub fn reset_allocator(&mut self) {
        self.next_free = crate::DMA_ALIGN;
    }

    /// Restores the region to its as-constructed state: every byte is
    /// zeroed and the bump allocator (including the high-water mark)
    /// restarts past the null page. The backing storage is reused, so a
    /// reset allocates nothing — this is the arena-reuse primitive the
    /// sim farm's per-world `Machine` recycling is built on.
    pub fn reset(&mut self) {
        // Bytes at or above `dirty_high` were never written, so they are
        // still zero from construction (or the previous reset): clearing
        // the dirty prefix restores the exact as-constructed contents
        // without touching the untouched tail.
        self.bytes[..self.dirty_high as usize].fill(0);
        self.dirty_high = 0;
        self.next_free = crate::DMA_ALIGN;
        self.high_water = crate::DMA_ALIGN;
    }

    /// Returns the current allocator position, to be restored later with
    /// [`MemoryRegion::restore_alloc`]. Used to scope allocations to an
    /// offload block: data declared inside the block dies with it.
    pub fn save_alloc(&self) -> u32 {
        self.next_free
    }

    /// Restores a previously saved allocator position, releasing every
    /// allocation made since [`MemoryRegion::save_alloc`].
    ///
    /// # Panics
    ///
    /// Panics if `mark` is ahead of the current position (restoring a
    /// mark from a different region or a stale frame).
    pub fn restore_alloc(&mut self, mark: u32) {
        assert!(
            mark <= self.next_free,
            "allocator mark {mark} is ahead of the current position {}",
            self.next_free
        );
        self.next_free = mark;
    }

    /// Peak allocator position ever reached, in bytes — the region's
    /// allocation high-water mark. Unlike [`MemoryRegion::save_alloc`],
    /// this survives `restore_alloc`/`reset_allocator`, so it reports
    /// the worst-case local-store footprint across scoped offload
    /// blocks (the number an SPE programmer budgets against).
    pub fn alloc_high_water(&self) -> u32 {
        self.high_water
    }

    /// The full addressable range of the region.
    pub fn range(&self) -> AddrRange {
        AddrRange::new(Addr::new(self.id, 0), self.capacity())
            .expect("region range is always representable")
    }
}

/// Copies `len` bytes from `src_addr` in `src` to `dst_addr` in `dst`.
///
/// This is the primitive the DMA engine uses to move data between memory
/// spaces; it lives here because it needs simultaneous access to two
/// regions.
///
/// # Errors
///
/// Propagates bounds/space errors from either side.
pub fn copy_between(
    src: &MemoryRegion,
    src_addr: Addr,
    dst: &mut MemoryRegion,
    dst_addr: Addr,
    len: u32,
) -> Result<(), MemError> {
    // Check both sides first, then copy directly region-to-region: this
    // runs on every simulated DMA transfer, so it must not bounce the
    // payload through a temporary allocation.
    let src_at = src.check(src_addr, len)?;
    let dst_at = dst.check(dst_addr, len)?;
    dst.bytes[dst_at..dst_at + len as usize]
        .copy_from_slice(&src.bytes[src_at..src_at + len as usize]);
    dst.mark_dirty(dst_at + len as usize);
    Ok(())
}

impl fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("capacity", &self.capacity())
            .field("next_free", &self.next_free)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> MemoryRegion {
        MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 1024)
    }

    #[test]
    fn read_write_bytes_roundtrip() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 100);
        m.write_bytes(addr, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(addr, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn fresh_region_is_zeroed() {
        let m = region();
        assert_eq!(
            m.read_bytes(Addr::new(SpaceId::MAIN, 0), 16).unwrap(),
            &[0; 16]
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let m = region();
        let err = m.read_bytes(Addr::new(SpaceId::MAIN, 1020), 8).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { len: 8, .. }));
    }

    #[test]
    fn end_of_region_access_is_allowed() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 1020);
        m.write_bytes(addr, &[9, 9, 9, 9]).unwrap();
        assert_eq!(m.read_bytes(addr, 4).unwrap(), &[9, 9, 9, 9]);
    }

    #[test]
    fn space_mismatch_is_reported() {
        let m = region();
        let foreign = Addr::new(SpaceId::local_store(0), 0);
        let err = m.read_bytes(foreign, 4).unwrap_err();
        assert!(matches!(err, MemError::SpaceMismatch { .. }));
    }

    #[test]
    fn overflowing_access_is_reported() {
        let m = region();
        let err = m
            .read_bytes(Addr::new(SpaceId::MAIN, u32::MAX - 1), 4)
            .unwrap_err();
        assert!(matches!(err, MemError::AddressOverflow { .. }));
    }

    #[test]
    fn pod_roundtrip() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 64);
        m.write_pod(addr, &0x1234_5678_u32).unwrap();
        assert_eq!(m.read_pod::<u32>(addr).unwrap(), 0x1234_5678);
    }

    #[test]
    fn pod_slice_roundtrip() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 64);
        let values = [1.0f32, 2.0, 3.0, 4.0];
        m.write_pod_slice(addr, &values).unwrap();
        assert_eq!(m.read_pod_slice::<f32>(addr, 4).unwrap(), values);
    }

    #[test]
    fn pod_slice_into_reuses_scratch() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 64);
        m.write_pod_slice(addr, &[10u32, 20, 30]).unwrap();
        let mut scratch: Vec<u32> = Vec::with_capacity(8);
        m.read_pod_slice_into(addr, 3, &mut scratch).unwrap();
        assert_eq!(scratch, [10, 20, 30]);
        scratch.clear();
        m.read_pod_slice_into(addr, 2, &mut scratch).unwrap();
        assert_eq!(scratch, [10, 20]);
    }

    #[test]
    fn alloc_respects_alignment_and_null() {
        let mut m = region();
        let a = m.alloc(10, 16).unwrap();
        assert!(a.offset() >= crate::DMA_ALIGN, "null page is reserved");
        assert!(a.is_aligned_to(16));
        let b = m.alloc(10, 16).unwrap();
        assert!(b.offset() >= a.offset() + 10);
        assert!(b.is_aligned_to(16));
    }

    #[test]
    fn alloc_exhaustion() {
        let mut m = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64);
        assert!(m.alloc(32, 1).is_ok());
        let err = m.alloc(64, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // The check agrees with the allocation and allocates nothing.
        assert_eq!(m.check_alloc(64, 1), Err(err));
        let next = m.check_alloc(16, 16).unwrap();
        assert_eq!(m.alloc(16, 16).unwrap(), next);
    }

    #[test]
    fn reset_allocator_reclaims() {
        let mut m = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 64);
        m.alloc(32, 1).unwrap();
        m.reset_allocator();
        assert!(m.alloc(32, 1).is_ok());
    }

    #[test]
    fn fill_works() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 10);
        m.fill(addr, 6, 0xab).unwrap();
        assert_eq!(m.read_bytes(addr, 6).unwrap(), &[0xab; 6]);
        assert_eq!(m.read_bytes(Addr::new(SpaceId::MAIN, 16), 1).unwrap(), &[0]);
    }

    #[test]
    fn copy_between_regions() {
        let mut src = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 256);
        let mut dst = MemoryRegion::new(
            SpaceId::local_store(0),
            SpaceKind::LocalStore { accel: 0 },
            256,
        );
        let s = Addr::new(SpaceId::MAIN, 32);
        let d = Addr::new(SpaceId::local_store(0), 64);
        src.write_bytes(s, &[5, 6, 7, 8]).unwrap();
        copy_between(&src, s, &mut dst, d, 4).unwrap();
        assert_eq!(dst.read_bytes(d, 4).unwrap(), &[5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = MemoryRegion::new(SpaceId::MAIN, SpaceKind::Main, 0);
    }

    #[test]
    fn reset_restores_the_as_constructed_state() {
        let mut m = region();
        let a = m.alloc(64, 16).unwrap();
        m.write_bytes(a, &[9; 64]).unwrap();
        let _ = m.alloc(256, 16).unwrap();
        m.reset();
        // Same allocation sequence, same addresses, zeroed contents.
        let fresh = region();
        assert_eq!(m.bytes_free(), fresh.bytes_free());
        assert_eq!(m.alloc_high_water(), fresh.alloc_high_water());
        let b = m.alloc(64, 16).unwrap();
        assert_eq!(b, a, "reset replays the allocation sequence");
        assert_eq!(m.read_bytes(b, 64).unwrap(), &[0u8; 64][..]);
    }

    #[test]
    fn read_into_buffer() {
        let mut m = region();
        let addr = Addr::new(SpaceId::MAIN, 8);
        m.write_bytes(addr, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        m.read_into(addr, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }
}

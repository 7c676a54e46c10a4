//! Declarative gather plans: index lists turned into coalesced DMA
//! descriptor batches.
//!
//! A [`GatherPlan`] is the simulator's first-class primitive for
//! irregular reads. Instead of issuing one synchronous outer access per
//! element (the pointer-chasing anti-pattern the paper's §4.2 warns
//! about), a kernel names the *set* of elements it needs — `base`,
//! `elem_size`, and an index list — and the runtime turns that into the
//! fewest DMA descriptors that cover it: runs of consecutive ascending
//! indices collapse into one transfer, and over-long runs are split at
//! [`dma::MAX_TRANSFER`].
//!
//! Descriptors are order-preserving: the packed local buffer holds the
//! requested elements in index-list order, so a kernel can walk it as a
//! dense array regardless of how scattered the remote picture was.

use dma::MAX_TRANSFER;
use memspace::{Addr, MemError};

/// One coalesced transfer of a [`GatherPlan`]: `bytes` starting at
/// `base + remote_offset` land at `local_base + local_offset`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherDescriptor {
    /// Byte offset of this run from the plan's base address.
    pub remote_offset: u32,
    /// Byte offset of this run in the packed local buffer.
    pub local_offset: u32,
    /// Run length in bytes (at most [`dma::MAX_TRANSFER`]).
    pub bytes: u32,
}

/// A declared irregular read: `indices` into an array of
/// `elem_size`-byte elements starting at `base` in main memory.
///
/// Built by [`GatherPlan::new`] and executed by
/// [`crate::AccelCtx::gather`] (or declared up front via
/// `OffloadBuilder::gather`). The plan itself is pure description —
/// constructing one costs no simulated cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatherPlan {
    base: Addr,
    elem_size: u32,
    indices: Vec<u32>,
}

impl GatherPlan {
    /// Describes a gather of `indices` (element indices, not byte
    /// offsets) from the `elem_size`-byte-element array at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is zero — a zero-stride gather describes
    /// nothing and would divide the coalescer by zero.
    pub fn new(base: Addr, elem_size: u32, indices: Vec<u32>) -> GatherPlan {
        assert!(elem_size > 0, "gather elem_size must be non-zero");
        GatherPlan {
            base,
            elem_size,
            indices,
        }
    }

    /// The array's base address in main memory.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Bytes per element.
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// The element indices, in request order.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of elements the plan fetches.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the plan fetches nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total bytes the packed local buffer needs.
    ///
    /// # Errors
    ///
    /// [`MemError::AddressOverflow`] when the buffer's size passes the
    /// 32-bit address range, the error [`GatherPlan::descriptors`]
    /// returns for the same plan.
    pub fn total_bytes(&self) -> Result<u32, MemError> {
        u32::try_from(self.indices.len())
            .ok()
            .and_then(|n| n.checked_mul(self.elem_size))
            .ok_or_else(|| self.overflow())
    }

    /// The `(base, len)` main-memory footprint covering every requested
    /// element — the range an implicit `reads` declaration must cover.
    /// `None` for an empty plan.
    ///
    /// # Errors
    ///
    /// [`MemError::AddressOverflow`] when the span passes the 32-bit
    /// address range.
    pub fn span(&self) -> Result<Option<(Addr, u32)>, MemError> {
        let (Some(&lo), Some(&hi)) = (self.indices.iter().min(), self.indices.iter().max()) else {
            return Ok(None);
        };
        let start = self.base.element(lo, self.elem_size)?;
        let len = (hi - lo)
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.elem_size))
            .ok_or_else(|| self.overflow())?;
        start.offset_by(len)?;
        Ok(Some((start, len)))
    }

    /// The coalesced descriptor batch, in index-list order.
    ///
    /// Runs of consecutive ascending indices (`i, i+1, i+2, …`) merge
    /// into one descriptor; merged runs longer than
    /// [`dma::MAX_TRANSFER`] split into engine-sized pieces. Because the
    /// walk preserves request order, descriptor `local_offset`s tile the
    /// packed buffer densely from zero.
    ///
    /// # Errors
    ///
    /// [`MemError::AddressOverflow`] when an element's byte offset from
    /// the base, or the packed buffer's size, passes the 32-bit address
    /// range.
    pub fn descriptors(&self) -> Result<Vec<GatherDescriptor>, MemError> {
        let mut out = Vec::new();
        let elem = self.elem_size;
        let mut i = 0usize;
        let mut local = 0u32;
        while i < self.indices.len() {
            // Grow the run while the next index is exactly +1.
            let start = self.indices[i];
            let mut run = 1u32;
            while i + run as usize != self.indices.len()
                && start.checked_add(run) == Some(self.indices[i + run as usize])
            {
                run += 1;
            }
            // Split the merged run at the engine's transfer ceiling. The
            // run ends at most at `(u32::MAX + 1) * elem`, so its byte
            // range is checked whole before the split.
            let bytes = |n: u32| n.checked_mul(elem).ok_or_else(|| self.overflow());
            let mut remote = bytes(start)?;
            let mut run_bytes = bytes(run)?;
            remote
                .checked_add(run_bytes)
                .ok_or_else(|| self.overflow())?;
            local
                .checked_add(run_bytes)
                .ok_or_else(|| self.overflow())?;
            while run_bytes > 0 {
                let piece = run_bytes.min(MAX_TRANSFER);
                out.push(GatherDescriptor {
                    remote_offset: remote,
                    local_offset: local,
                    bytes: piece,
                });
                remote += piece;
                local += piece;
                run_bytes -= piece;
            }
            i += run as usize;
        }
        Ok(out)
    }

    /// The error for a byte offset past the 32-bit address range.
    fn overflow(&self) -> MemError {
        MemError::AddressOverflow {
            space: self.base.space(),
            offset: self.base.offset(),
            delta: u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memspace::SpaceId;

    fn base() -> Addr {
        Addr::new(SpaceId::MAIN, 0x1000)
    }

    #[test]
    fn empty_plan_has_no_descriptors() {
        let plan = GatherPlan::new(base(), 4, vec![]);
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes(), Ok(0));
        assert!(plan.descriptors().unwrap().is_empty());
        assert_eq!(plan.span(), Ok(None));
    }

    #[test]
    fn scattered_indices_get_one_descriptor_each() {
        let plan = GatherPlan::new(base(), 8, vec![7, 3, 11]);
        let descs = plan.descriptors().unwrap();
        assert_eq!(
            descs,
            vec![
                GatherDescriptor {
                    remote_offset: 56,
                    local_offset: 0,
                    bytes: 8
                },
                GatherDescriptor {
                    remote_offset: 24,
                    local_offset: 8,
                    bytes: 8
                },
                GatherDescriptor {
                    remote_offset: 88,
                    local_offset: 16,
                    bytes: 8
                },
            ]
        );
    }

    #[test]
    fn consecutive_runs_coalesce() {
        let plan = GatherPlan::new(base(), 4, vec![10, 11, 12, 13, 2, 5, 6]);
        let descs = plan.descriptors().unwrap();
        assert_eq!(
            descs,
            vec![
                GatherDescriptor {
                    remote_offset: 40,
                    local_offset: 0,
                    bytes: 16
                },
                GatherDescriptor {
                    remote_offset: 8,
                    local_offset: 16,
                    bytes: 4
                },
                GatherDescriptor {
                    remote_offset: 20,
                    local_offset: 20,
                    bytes: 8
                },
            ]
        );
    }

    #[test]
    fn descending_indices_do_not_coalesce() {
        let plan = GatherPlan::new(base(), 4, vec![3, 2, 1]);
        assert_eq!(plan.descriptors().unwrap().len(), 3);
    }

    #[test]
    fn long_runs_split_at_max_transfer() {
        // 8192 consecutive 4-byte elements = 32 KiB = 2x MAX_TRANSFER.
        let indices: Vec<u32> = (0..8192).collect();
        let plan = GatherPlan::new(base(), 4, indices);
        let descs = plan.descriptors().unwrap();
        assert_eq!(descs.len(), 2);
        assert_eq!(descs[0].bytes, MAX_TRANSFER);
        assert_eq!(descs[1].bytes, MAX_TRANSFER);
        assert_eq!(descs[1].remote_offset, MAX_TRANSFER);
        assert_eq!(descs[1].local_offset, MAX_TRANSFER);
    }

    #[test]
    fn local_offsets_tile_densely() {
        let plan = GatherPlan::new(base(), 12, vec![0, 9, 1, 1, 4, 5, 6]);
        let descs = plan.descriptors().unwrap();
        let mut expect = 0u32;
        for d in &descs {
            assert_eq!(d.local_offset, expect);
            expect += d.bytes;
        }
        assert_eq!(Ok(expect), plan.total_bytes());
    }

    #[test]
    fn span_covers_min_to_max() {
        let plan = GatherPlan::new(base(), 4, vec![9, 2, 5]);
        let (start, len) = plan.span().unwrap().unwrap();
        assert_eq!(start, base().offset_by(8).unwrap());
        assert_eq!(len, 32);
    }

    #[test]
    #[should_panic(expected = "elem_size must be non-zero")]
    fn zero_elem_size_panics() {
        let _ = GatherPlan::new(base(), 0, vec![1]);
    }
}

//! The `Array` accessor class (paper §4.2).
//!
//! The paper's motivating loop dereferences an outer pointer per
//! iteration — two dependent transfers per object. Interposing an
//! `Array` accessor "will perform a single, efficient bulk transfer of
//! the array of pointers into fast local store. Subsequently, it acts
//! like an array, allowing indexing operations." On a shared-memory
//! system the same source compiles to direct access; here, the accessor
//! is the memory-space-aware implementation.

use std::marker::PhantomData;

use dma::{DmaDirection, Tag};
use memspace::{Addr, Pod};
use simcell::{AccelCtx, SimError};

use crate::remote::RemoteSlice;
use crate::ACCESSOR_TAG;

/// A local-store mirror of a main-memory array, filled by one bulk DMA
/// transfer and optionally written back.
///
/// Transfers larger than the per-command DMA limit are split into
/// multiple commands on the same tag, which the engine pipelines — the
/// accessor still costs one wait, not one round trip per element.
///
/// # Example
///
/// ```
/// use memspace::Addr;
/// use offload_rt::{ArrayAccessor, RemoteSlice};
/// use simcell::{Machine, MachineConfig, SimError};
///
/// # fn main() -> Result<(), SimError> {
/// let mut machine = Machine::new(MachineConfig::small())?;
/// let remote = machine.alloc_main_slice::<f32>(256)?;
/// machine.main_mut().write_pod_slice(remote, &vec![1.5f32; 256])?;
///
/// let total = machine.offload(0).run(|ctx| -> Result<f32, SimError> {
///     let array = ArrayAccessor::<f32>::fetch(ctx, remote, 256)?;
///     let mut total = 0.0;
///     for i in 0..array.len() {
///         total += array.get(ctx, i)?;
///     }
///     Ok(total)
/// })??;
/// assert_eq!(total, 384.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ArrayAccessor<T: Pod> {
    local: Addr,
    remote: Addr,
    len: u32,
    dirty: bool,
    _marker: PhantomData<T>,
}

impl<T: Pod> ArrayAccessor<T> {
    fn tag() -> Tag {
        Tag::new(ACCESSOR_TAG).expect("constant tag is valid")
    }

    /// Fetches `len` elements starting at `remote` into the local store
    /// with one (pipelined) bulk transfer and blocks until they arrive.
    ///
    /// # Errors
    ///
    /// Fails if the local store cannot hold the array or a transfer
    /// fails.
    pub fn fetch(ctx: &mut AccelCtx<'_>, remote: Addr, len: u32) -> Result<Self, SimError> {
        ctx.span_start("accessor.fetch");
        let local = ctx.alloc_local_slice::<T>(len)?;
        let accessor = ArrayAccessor {
            local,
            remote,
            len,
            dirty: false,
            _marker: PhantomData,
        };
        accessor.transfer(ctx, DmaDirection::Get)?;
        ctx.dma_wait_tag(Self::tag());
        // Surface an injected tag timeout before handing the (possibly
        // incomplete) array to the caller.
        ctx.check_faults()?;
        ctx.span_end("accessor.fetch");
        Ok(accessor)
    }

    /// Allocates an accessor *without* fetching — for output-only arrays
    /// that will be fully overwritten and then written back.
    ///
    /// # Errors
    ///
    /// Fails if the local store cannot hold the array.
    pub fn for_output(ctx: &mut AccelCtx<'_>, remote: Addr, len: u32) -> Result<Self, SimError> {
        let local = ctx.alloc_local_slice::<T>(len)?;
        Ok(ArrayAccessor {
            local,
            remote,
            len,
            dirty: true,
            _marker: PhantomData,
        })
    }

    /// Writes element `index` locally and marks the accessor dirty.
    ///
    /// # Errors
    ///
    /// Fails if `index` is out of bounds.
    pub fn set(&mut self, ctx: &mut AccelCtx<'_>, index: u32, value: &T) -> Result<(), SimError> {
        self.dirty = true;
        ctx.local_write_pod(self.element_addr(index)?, value)
    }

    /// Overwrites the whole local array (local cost only) and marks it
    /// dirty.
    ///
    /// # Errors
    ///
    /// Fails if `values.len() != self.len()` (bounds violation).
    pub fn copy_from_slice(
        &mut self,
        ctx: &mut AccelCtx<'_>,
        values: &[T],
    ) -> Result<(), SimError> {
        self.dirty = true;
        ctx.local_write_slice(self.local, values)
    }

    /// Writes the array back to main memory with one bulk transfer if any
    /// element was modified; no-op otherwise.
    ///
    /// When the offload declared the remote range `read` (see
    /// `LaunchSettings::reads` in `simcell`), a dirty-but-unchanged
    /// array — the conservative-flush idiom — skips the transfer
    /// entirely: the elision is counted in the machine stats and costs
    /// zero cycles.
    ///
    /// # Errors
    ///
    /// Fails if a transfer fails, or with
    /// [`SimError::UndeclaredWrite`] if the array was genuinely
    /// mutated but its remote range is declared `read`.
    pub fn write_back(&mut self, ctx: &mut AccelCtx<'_>) -> Result<(), SimError> {
        if !self.dirty {
            return Ok(());
        }
        let bytes = (T::SIZE as u32) * self.len;
        if ctx.writeback_elidable(self.local, self.remote, bytes)? {
            self.dirty = false;
            return Ok(());
        }
        ctx.span_start("accessor.write_back");
        self.transfer(ctx, DmaDirection::Put)?;
        ctx.dma_wait_tag(Self::tag());
        ctx.check_faults()?;
        self.dirty = false;
        ctx.span_end("accessor.write_back");
        Ok(())
    }

    /// Issues the accessor's logical transfer, split into
    /// DMA-limit-sized commands on the accessor tag (not waited).
    fn transfer(&self, ctx: &mut AccelCtx<'_>, dir: DmaDirection) -> Result<(), SimError> {
        let tag = Self::tag();
        let bytes = (T::SIZE as u32) * self.len;
        let mut moved = 0u32;
        while moved < bytes {
            let chunk = (bytes - moved).min(dma::MAX_TRANSFER);
            let l = self.local.offset_by(moved)?;
            let r = self.remote.offset_by(moved)?;
            match dir {
                DmaDirection::Get => ctx.dma_get(l, r, chunk, tag)?,
                DmaDirection::Put => ctx.dma_put(l, r, chunk, tag)?,
            }
            moved += chunk;
        }
        Ok(())
    }
}

impl<T: Pod> RemoteSlice<T> for ArrayAccessor<T> {
    fn local_base(&self) -> Addr {
        self.local
    }

    fn len(&self) -> u32 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::{Machine, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    #[test]
    fn fetch_and_read_roundtrip() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(100).unwrap();
        let values: Vec<u32> = (0..100).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();

        let out = m
            .offload(0)
            .run(|ctx| -> Result<Vec<u32>, SimError> {
                let array = ArrayAccessor::<u32>::fetch(ctx, remote, 100)?;
                array.to_vec(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn write_back_persists_changes() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(8).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let mut array = ArrayAccessor::<u32>::fetch(ctx, remote, 8)?;
                for i in 0..8 {
                    array.set(ctx, i, &(i * 10))?;
                }
                array.write_back(ctx)
            })
            .unwrap()
            .unwrap();
        let stored = m.main().read_pod_slice::<u32>(remote, 8).unwrap();
        assert_eq!(stored, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn clean_accessor_skips_write_back() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(8).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let mut array = ArrayAccessor::<u32>::fetch(ctx, remote, 8)?;
                let _ = array.get(ctx, 0)?;
                array.write_back(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.dma_stats(0).unwrap().puts, 0);
    }

    #[test]
    fn output_only_accessor_never_fetches() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(4).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let mut array = ArrayAccessor::<u32>::for_output(ctx, remote, 4)?;
                array.copy_from_slice(ctx, &[9, 8, 7, 6])?;
                array.write_back(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.dma_stats(0).unwrap().gets, 0);
        assert_eq!(
            m.main().read_pod_slice::<u32>(remote, 4).unwrap(),
            vec![9, 8, 7, 6]
        );
    }

    #[test]
    fn bulk_fetch_beats_per_element_outer_access() {
        // The paper's §4.2 claim in microcosm.
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(256).unwrap();
        let (bulk, naive) = m
            .offload(0)
            .run(|ctx| -> Result<(u64, u64), SimError> {
                let t0 = ctx.now();
                let array = ArrayAccessor::<u32>::fetch(ctx, remote, 256)?;
                let mut sum = 0u32;
                for i in 0..256 {
                    sum = sum.wrapping_add(array.get(ctx, i)?);
                }
                let bulk = ctx.now() - t0;

                let t1 = ctx.now();
                for i in 0..256u32 {
                    sum = sum.wrapping_add(ctx.outer_read_pod::<u32>(remote.element(i, 4)?)?);
                }
                let naive = ctx.now() - t1;
                assert_eq!(sum, 0);
                Ok((bulk, naive))
            })
            .unwrap()
            .unwrap();
        assert!(
            bulk * 10 < naive,
            "bulk transfer should be >10x faster: {bulk} vs {naive}"
        );
    }

    #[test]
    fn large_arrays_split_across_dma_commands() {
        let mut m = machine();
        // 40 KiB > 16 KiB DMA limit -> 3 commands.
        let remote = m.alloc_main_slice::<u32>(10 * 1024).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let _ = ArrayAccessor::<u32>::fetch(ctx, remote, 10 * 1024)?;
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.dma_stats(0).unwrap().gets, 3);
        assert_eq!(m.dma_stats(0).unwrap().bytes_in, 40 * 1024);
    }

    #[test]
    fn out_of_bounds_index_fails() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(4).unwrap();
        let result = m
            .offload(0)
            .run(|ctx| -> Result<u32, SimError> {
                let array = ArrayAccessor::<u32>::fetch(ctx, remote, 4)?;
                array.get(ctx, 4)
            })
            .unwrap();
        assert!(result.is_err());
    }

    #[test]
    fn accessor_is_race_free() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u64>(512).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let mut array = ArrayAccessor::<u64>::fetch(ctx, remote, 512)?;
                for i in 0..512 {
                    let v = array.get(ctx, i)?;
                    array.set(ctx, i, &(v + 1))?;
                }
                array.write_back(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.races_detected(), 0);
    }

    #[test]
    fn empty_fetch_moves_nothing() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(4).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let array = ArrayAccessor::<u32>::fetch(ctx, remote, 0)?;
                assert!(array.to_vec(ctx)?.is_empty());
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.dma_stats(0).unwrap().gets, 0);
    }

    #[test]
    fn empty_len_reports() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(4).unwrap();
        m.offload(0)
            .run(|ctx| -> Result<(), SimError> {
                let array = ArrayAccessor::<u32>::for_output(ctx, remote, 0)?;
                assert!(array.is_empty());
                assert_eq!(array.len(), 0);
                Ok(())
            })
            .unwrap()
            .unwrap();
    }
}

//! One element-access surface for every local mirror of remote data.
//!
//! The runtime grew two ways of staging main-memory elements into the
//! local store: the dense [`ArrayAccessor`](crate::ArrayAccessor)
//! (paper §4.2's bulk transfer) and the irregular
//! [`GatherView`] (a packed buffer filled by a coalesced
//! [`GatherPlan`] batch). Both end the same way —
//! a local base address and an element count — so both expose element
//! access through the one [`RemoteSlice`] trait: kernels index either
//! shape with the same `get`/`to_vec` calls, and generic helpers take
//! `impl RemoteSlice<T>` instead of hard-coding the accessor.

use std::marker::PhantomData;

use memspace::{Addr, Pod};
use simcell::{AccelCtx, GatherPlan, SimError};

/// Indexed element access into a local-store mirror of remote data.
///
/// Implementors stage remote elements into a dense local buffer
/// (however they like — one bulk DMA, a coalesced gather batch, …);
/// the trait provides the uniform read surface on top: bounds-checked
/// addressing, per-element reads at local-store cost, and whole-view
/// materialisation.
pub trait RemoteSlice<T: Pod> {
    /// Local-store address of element 0.
    fn local_base(&self) -> Addr;

    /// Number of elements staged.
    fn len(&self) -> u32;

    /// Whether the view holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local-store address of element `index`.
    ///
    /// # Errors
    ///
    /// Fails if `index` is out of bounds for the view.
    fn element_addr(&self, index: u32) -> Result<Addr, SimError> {
        if index >= self.len() {
            return Err(SimError::Memory(memspace::MemError::OutOfBounds {
                space: self.local_base().space(),
                offset: index.saturating_mul(T::SIZE as u32),
                len: T::SIZE as u32,
                capacity: self.len().saturating_mul(T::SIZE as u32),
            }));
        }
        Ok(self.local_base().element(index, T::SIZE as u32)?)
    }

    /// Reads element `index` (a fast local access).
    ///
    /// # Errors
    ///
    /// Fails if `index` is out of bounds.
    fn get(&self, ctx: &mut AccelCtx<'_>, index: u32) -> Result<T, SimError> {
        ctx.local_read_pod(self.element_addr(index)?)
    }

    /// Reads the whole view as a `Vec` (local cost only).
    ///
    /// # Errors
    ///
    /// Fails on bounds violations.
    fn to_vec(&self, ctx: &mut AccelCtx<'_>) -> Result<Vec<T>, SimError> {
        ctx.local_read_slice(self.local_base(), self.len())
    }
}

/// A read-only local view over gathered elements: the packed buffer a
/// [`GatherPlan`] batch fetched, exposed as a
/// dense array in index-list order.
///
/// Where [`ArrayAccessor`](crate::ArrayAccessor) mirrors a contiguous
/// remote range, a `GatherView` mirrors an arbitrary index list — the
/// frontier of a graph traversal, the survivors of a cull, any
/// irregular subset — at the cost of one coalesced descriptor batch
/// instead of N synchronous round trips.
///
/// # Example
///
/// ```
/// use offload_rt::prelude::*;
///
/// # fn main() -> Result<(), SimError> {
/// let mut machine = Machine::new(MachineConfig::small())?;
/// let remote = machine.alloc_main_slice::<u32>(64)?;
/// machine.main_mut().write_pod_slice(remote, &(0..64).collect::<Vec<u32>>())?;
/// let sum = machine.offload(0).run(|ctx| -> Result<u32, SimError> {
///     let view = GatherView::<u32>::fetch(ctx, remote, vec![5, 60, 7])?;
///     let mut sum = 0;
///     for i in 0..view.len() {
///         sum += view.get(ctx, i)?;
///     }
///     Ok(sum)
/// })??;
/// assert_eq!(sum, 5 + 60 + 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GatherView<T: Pod> {
    local: Addr,
    len: u32,
    _marker: PhantomData<T>,
}

impl<T: Pod> GatherView<T> {
    /// Gathers `indices` (element indices into the `T`-array at
    /// `base`) into a packed local buffer with one coalesced
    /// descriptor batch and one wait.
    ///
    /// # Errors
    ///
    /// As for [`AccelCtx::gather`] — local-store exhaustion, transfer
    /// faults (the whole batch rolls back), or an undeclared read
    /// under access modes.
    pub fn fetch(ctx: &mut AccelCtx<'_>, base: Addr, indices: Vec<u32>) -> Result<Self, SimError> {
        Self::from_plan(ctx, &GatherPlan::new(base, T::SIZE as u32, indices))
    }

    /// Executes a prebuilt plan (see [`AccelCtx::gather`]) and wraps
    /// the packed buffer. The plan's element size must be `T::SIZE`.
    ///
    /// # Errors
    ///
    /// As for [`GatherView::fetch`].
    pub fn from_plan(ctx: &mut AccelCtx<'_>, plan: &GatherPlan) -> Result<Self, SimError> {
        assert_eq!(
            plan.elem_size(),
            T::SIZE as u32,
            "gather plan element size must match the view's element type"
        );
        let local = ctx.gather(plan)?;
        Ok(GatherView {
            local,
            len: plan.len() as u32,
            _marker: PhantomData,
        })
    }

    /// Wraps the packed buffer of a *builder-declared* gather (the
    /// `index`-th `OffloadBuilder::gather` declaration, holding `len`
    /// elements) — see [`AccelCtx::gathered`].
    ///
    /// # Panics
    ///
    /// Panics when `index` names no declared gather.
    pub fn declared(ctx: &AccelCtx<'_>, index: usize, len: u32) -> Self {
        GatherView {
            local: ctx.gathered(index),
            len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod> RemoteSlice<T> for GatherView<T> {
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
    fn gather_view_reads_in_index_order() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u64>(32).unwrap();
        let values: Vec<u64> = (0..32).map(|i| i * 11).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        let out = m
            .offload(0)
            .run(|ctx| -> Result<Vec<u64>, SimError> {
                let view = GatherView::<u64>::fetch(ctx, remote, vec![31, 0, 16])?;
                assert_eq!(view.len(), 3);
                assert!(!view.is_empty());
                view.to_vec(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, vec![341, 0, 176]);
    }

    #[test]
    fn gather_view_bounds_check_fails_like_the_accessor() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(8).unwrap();
        let result = m
            .offload(0)
            .run(|ctx| -> Result<u32, SimError> {
                let view = GatherView::<u32>::fetch(ctx, remote, vec![1, 2])?;
                view.get(ctx, 2)
            })
            .unwrap();
        assert!(matches!(result, Err(SimError::Memory(_))));
    }

    #[test]
    fn declared_view_wraps_builder_gathers() {
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(16).unwrap();
        let values: Vec<u32> = (100..116).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        let got = m
            .offload(0)
            .gather(remote, 4, vec![3, 9])
            .run(|ctx| -> Result<Vec<u32>, SimError> {
                let view = GatherView::<u32>::declared(ctx, 0, 2);
                view.to_vec(ctx)
            })
            .unwrap()
            .unwrap();
        assert_eq!(got, vec![103, 109]);
    }

    #[test]
    fn one_trait_spans_accessor_and_gather_view() {
        // The unification the API redesign is for: a generic kernel
        // sums any RemoteSlice without knowing how it was staged.
        fn sum<T: Into<u64> + Pod, S: RemoteSlice<T>>(
            ctx: &mut AccelCtx<'_>,
            slice: &S,
        ) -> Result<u64, SimError> {
            let mut total = 0u64;
            for i in 0..slice.len() {
                total += slice.get(ctx, i)?.into();
            }
            Ok(total)
        }
        let mut m = machine();
        let remote = m.alloc_main_slice::<u32>(16).unwrap();
        let values: Vec<u32> = (0..16).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        let (dense, sparse) = m
            .offload(0)
            .run(|ctx| -> Result<(u64, u64), SimError> {
                let array = crate::ArrayAccessor::<u32>::fetch(ctx, remote, 16)?;
                let view = GatherView::<u32>::fetch(ctx, remote, vec![15, 1])?;
                Ok((sum(ctx, &array)?, sum(ctx, &view)?))
            })
            .unwrap()
            .unwrap();
        assert_eq!(dense, (0..16).sum::<u32>() as u64);
        assert_eq!(sparse, 16);
    }
}

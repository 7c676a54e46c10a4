//! Compile-time superinstruction fusion (the peephole pass).
//!
//! Scans each compiled function for the hot opcode runs the trace layer
//! observes — counter bumps, loop headers, load/load/arith triples,
//! compare-and-branch pairs, field-address computations — and replaces
//! the *first* instruction of each run with a fused superinstruction
//! from the tail of [`Instr`]. The remaining instructions of the run
//! are left in place as dead padding: they are never executed (the
//! interpreter advances `pc` by [`Instr::width`]), but keeping them
//! keeps every instruction index stable, so jump targets need no
//! relocation and the pass is a single linear scan.
//!
//! # Selection policy
//!
//! A run is fused only when **all** of the following hold, which is
//! what makes fusion invisible to the simulated machine:
//!
//! - every *interior* instruction of the run is pure stack/frame
//!   traffic (constants, current-frame loads/stores, arithmetic,
//!   compares, and a trailing branch) — never a call, offload,
//!   allocation or print, so no event, DMA, or clock observation can
//!   happen mid-run. A pointer dereference (`LoadMem`) may appear only
//!   as the *final* instruction of the run: by then the fused handler
//!   has charged every interior cycle and retired every interior
//!   instruction, so any trap, DMA, or event the access raises lands
//!   in a machine state identical to the unfused run's;
//! - no interior instruction of the run can trap (`DivI`/`ModI` are
//!   excluded);
//! - no jump targets an *interior* instruction of the run (jumping to
//!   the head is fine — that executes the whole run, exactly as the
//!   unfused code would).
//!
//! The fused handler charges exactly the cycles the unfused run
//! charges and bumps the retired-instruction counter by the run
//! length, so cycle counts, instruction counts, traces and world
//! hashes are bit-identical with the pass on or off. Whether the pass
//! pays wall-clock rent is measured on perfbench's `omini` workload
//! (`offload-lang.vm_minstr_per_s` and `offload-lang.superinstrs`).

use crate::bytecode::{ArithF, ArithI, Instr, SpaceTag, ValType};

/// Fuses superinstruction runs in `code` in place and returns how many
/// superinstructions were formed.
///
/// Interior instructions of each fused run are left as unreachable
/// padding so instruction indices (and therefore jump targets) stay
/// valid.
pub fn fuse(code: &mut [Instr]) -> u32 {
    let n = code.len();
    let mut is_target = vec![false; n];
    for instr in code.iter() {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = *instr {
            if (t as usize) < n {
                is_target[t as usize] = true;
            }
        }
    }
    let mut fused = 0u32;
    let mut i = 0usize;
    while i < n {
        match match_run(code, i, &is_target) {
            Some(instr) => {
                let width = instr.width() as usize;
                code[i] = instr;
                fused += 1;
                i += width;
            }
            None => i += 1,
        }
    }
    fused
}

/// True when none of `code[i+1..i+width]` is a jump target (interior
/// entry would start mid-run).
fn interior_clear(is_target: &[bool], i: usize, width: usize) -> bool {
    is_target[i + 1..i + width].iter().all(|&t| !t)
}

fn int_op(instr: Instr) -> Option<ArithI> {
    match instr {
        Instr::AddI => Some(ArithI::Add),
        Instr::SubI => Some(ArithI::Sub),
        Instr::MulI => Some(ArithI::Mul),
        _ => None,
    }
}

fn float_op(instr: Instr) -> Option<ArithF> {
    match instr {
        Instr::AddF => Some(ArithF::Add),
        Instr::SubF => Some(ArithF::Sub),
        Instr::MulF => Some(ArithF::Mul),
        Instr::DivF => Some(ArithF::Div),
        _ => None,
    }
}

fn local_i32(instr: Instr) -> Option<u32> {
    match instr {
        Instr::LoadLocal {
            offset,
            ty: ValType::I32,
        } => Some(offset),
        _ => None,
    }
}

fn local_f32(instr: Instr) -> Option<u32> {
    match instr {
        Instr::LoadLocal {
            offset,
            ty: ValType::F32,
        } => Some(offset),
        _ => None,
    }
}

fn local_ptr(instr: Instr) -> Option<(u32, SpaceTag)> {
    match instr {
        Instr::LoadLocal {
            offset,
            ty: ValType::Ptr(tag),
        } => Some((offset, tag)),
        _ => None,
    }
}

/// Tries every pattern at position `i`, longest first, and returns the
/// fused replacement for `code[i]` when one applies.
#[allow(clippy::similar_names)]
fn match_run(code: &[Instr], i: usize, is_target: &[bool]) -> Option<Instr> {
    let n = code.len();

    // Width 4: `i = i + k` and `while i < k`.
    if i + 4 <= n && interior_clear(is_target, i, 4) {
        if let Some(offset) = local_i32(code[i]) {
            if let Instr::ConstI(k) = code[i + 1] {
                if let Some(op) = int_op(code[i + 2]) {
                    if code[i + 3]
                        == (Instr::StoreLocal {
                            offset,
                            ty: ValType::I32,
                        })
                    {
                        let delta = match op {
                            ArithI::Add => Some(k),
                            // a - k ≡ a + (-k), including k = i32::MIN
                            // (two's-complement wrap matches SubI).
                            ArithI::Sub => Some(k.wrapping_neg()),
                            ArithI::Mul => None,
                        };
                        if let Some(delta) = delta {
                            return Some(Instr::IncLocalI { offset, delta });
                        }
                    }
                }
                if let Instr::CmpI(op) = code[i + 2] {
                    if let Instr::JumpIfFalse(target) = code[i + 3] {
                        return Some(Instr::CmpLocalImmBr {
                            offset,
                            imm: k,
                            op,
                            target,
                        });
                    }
                }
            }
        }
    }

    // Width 3: field reads and load/load/arith triples.
    if i + 3 <= n && interior_clear(is_target, i, 3) {
        if let Some((offset, tag)) = local_ptr(code[i]) {
            if let (Instr::PtrAddConst(delta), Instr::LoadMem { ty, penalty }) =
                (code[i + 1], code[i + 2])
            {
                return Some(Instr::LoadLocalPtrAddMem {
                    offset,
                    tag,
                    delta,
                    ty,
                    penalty,
                });
            }
        }
        if let (Some(a), Some(b)) = (local_i32(code[i]), local_i32(code[i + 1])) {
            if let Some(op) = int_op(code[i + 2]) {
                return Some(Instr::LoadLocal2OpI { a, b, op });
            }
        }
        if let (Some(a), Some(b)) = (local_f32(code[i]), local_f32(code[i + 1])) {
            if let Some(op) = float_op(code[i + 2]) {
                return Some(Instr::LoadLocal2OpF { a, b, op });
            }
        }
        if let Some(offset) = local_f32(code[i]) {
            if let (
                Some(op),
                Instr::StoreMem {
                    ty: ValType::F32,
                    penalty,
                },
            ) = (float_op(code[i + 1]), code[i + 2])
            {
                return Some(Instr::LoadLocalOpFStoreMem {
                    offset,
                    op,
                    penalty,
                });
            }
        }
    }

    // Width 2 pairs.
    if i + 2 <= n && interior_clear(is_target, i, 2) {
        match (code[i], code[i + 1]) {
            (Instr::CmpI(op), Instr::JumpIfFalse(target)) => {
                return Some(Instr::CmpIBr { op, target });
            }
            (Instr::CmpF(op), Instr::JumpIfFalse(target)) => {
                return Some(Instr::CmpFBr { op, target });
            }
            _ => {}
        }
        if let Some((offset, tag)) = local_ptr(code[i]) {
            if let Instr::PtrAddConst(delta) = code[i + 1] {
                return Some(Instr::LoadLocalPtrAdd { offset, tag, delta });
            }
        }
        if let (Instr::AddrOfGlobal { offset }, Instr::LoadMem { ty, penalty }) =
            (code[i], code[i + 1])
        {
            return Some(Instr::LoadGlobalMem {
                offset,
                ty,
                penalty,
            });
        }
        if let Some(offset) = local_i32(code[i]) {
            if let Some(op) = int_op(code[i + 1]) {
                return Some(Instr::LoadLocalOpI { offset, op });
            }
        }
        if let Some(offset) = local_f32(code[i]) {
            if let Some(op) = float_op(code[i + 1]) {
                return Some(Instr::LoadLocalOpF { offset, op });
            }
        }
        if let (
            Instr::LoadLocal {
                offset: off1,
                ty: ty1,
            },
            Instr::LoadLocal {
                offset: off2,
                ty: ty2,
            },
        ) = (code[i], code[i + 1])
        {
            return Some(Instr::LoadLocal2 {
                off1,
                ty1,
                off2,
                ty2,
            });
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Cmp;

    fn ll(offset: u32, ty: ValType) -> Instr {
        Instr::LoadLocal { offset, ty }
    }

    #[test]
    fn fuses_counter_bump() {
        let mut code = vec![
            ll(0, ValType::I32),
            Instr::ConstI(1),
            Instr::AddI,
            Instr::StoreLocal {
                offset: 0,
                ty: ValType::I32,
            },
            Instr::Ret { has_value: false },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::IncLocalI {
                offset: 0,
                delta: 1
            }
        );
        // Padding is untouched.
        assert_eq!(code[1], Instr::ConstI(1));
    }

    #[test]
    fn sub_folds_to_negative_delta() {
        let mut code = vec![
            ll(8, ValType::I32),
            Instr::ConstI(3),
            Instr::SubI,
            Instr::StoreLocal {
                offset: 8,
                ty: ValType::I32,
            },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::IncLocalI {
                offset: 8,
                delta: -3
            }
        );
    }

    #[test]
    fn store_to_other_slot_is_not_a_counter_bump() {
        let mut code = vec![
            ll(0, ValType::I32),
            Instr::ConstI(1),
            Instr::AddI,
            Instr::StoreLocal {
                offset: 4,
                ty: ValType::I32,
            },
        ];
        fuse(&mut code);
        assert!(
            !matches!(code[0], Instr::IncLocalI { .. }),
            "different store slot must not fuse into IncLocalI"
        );
    }

    #[test]
    fn fuses_loop_header() {
        let mut code = vec![
            ll(0, ValType::I32),
            Instr::ConstI(10),
            Instr::CmpI(Cmp::Lt),
            Instr::JumpIfFalse(9),
            Instr::Ret { has_value: false },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::CmpLocalImmBr {
                offset: 0,
                imm: 10,
                op: Cmp::Lt,
                target: 9
            }
        );
    }

    #[test]
    fn jump_target_inside_run_blocks_fusion() {
        let mut code = vec![
            ll(0, ValType::I32),
            Instr::ConstI(1), // jump target: run must not fuse
            Instr::AddI,
            Instr::StoreLocal {
                offset: 0,
                ty: ValType::I32,
            },
            Instr::Jump(1),
        ];
        fuse(&mut code);
        assert_eq!(code[0], ll(0, ValType::I32), "head left unfused");
    }

    #[test]
    fn jump_to_head_is_allowed() {
        let mut code = vec![
            Instr::Jump(1),
            ll(0, ValType::I32),
            Instr::ConstI(1),
            Instr::AddI,
            Instr::StoreLocal {
                offset: 0,
                ty: ValType::I32,
            },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[1],
            Instr::IncLocalI {
                offset: 0,
                delta: 1
            }
        );
    }

    #[test]
    fn triples_beat_pairs() {
        let mut code = vec![ll(0, ValType::I32), ll(4, ValType::I32), Instr::AddI];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::LoadLocal2OpI {
                a: 0,
                b: 4,
                op: ArithI::Add
            }
        );
    }

    #[test]
    fn div_never_fuses() {
        let mut code = vec![ll(0, ValType::I32), ll(4, ValType::I32), Instr::DivI];
        fuse(&mut code);
        assert_eq!(
            code[0],
            Instr::LoadLocal2 {
                off1: 0,
                ty1: ValType::I32,
                off2: 4,
                ty2: ValType::I32
            },
            "the loads may pair up, but DivI stays unfused (trap path)"
        );
        assert_eq!(code[2], Instr::DivI);
    }

    #[test]
    fn compare_branch_pair() {
        let mut code = vec![Instr::CmpF(Cmp::Ge), Instr::JumpIfFalse(7)];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::CmpFBr {
                op: Cmp::Ge,
                target: 7
            }
        );
    }

    #[test]
    fn field_address_pair() {
        let mut code = vec![ll(4, ValType::Ptr(SpaceTag::Local)), Instr::PtrAddConst(8)];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::LoadLocalPtrAdd {
                offset: 4,
                tag: SpaceTag::Local,
                delta: 8
            }
        );
    }

    #[test]
    fn field_read_triple_beats_address_pair() {
        let mut code = vec![
            ll(4, ValType::Ptr(SpaceTag::Host)),
            Instr::PtrAddConst(8),
            Instr::LoadMem {
                ty: ValType::F32,
                penalty: 0,
            },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::LoadLocalPtrAddMem {
                offset: 4,
                tag: SpaceTag::Host,
                delta: 8,
                ty: ValType::F32,
                penalty: 0
            },
            "with a trailing LoadMem the 3-wide field read wins over LoadLocalPtrAdd"
        );
    }

    #[test]
    fn writeback_triple_beats_op_pair() {
        let mut code = vec![
            ll(12, ValType::F32),
            Instr::SubF,
            Instr::StoreMem {
                ty: ValType::F32,
                penalty: 1,
            },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::LoadLocalOpFStoreMem {
                offset: 12,
                op: ArithF::Sub,
                penalty: 1
            },
            "with a trailing StoreMem the 3-wide write-back wins over LoadLocalOpF"
        );
    }

    #[test]
    fn global_read_pair() {
        let mut code = vec![
            Instr::AddrOfGlobal { offset: 16 },
            Instr::LoadMem {
                ty: ValType::I32,
                penalty: 2,
            },
        ];
        assert_eq!(fuse(&mut code), 1);
        assert_eq!(
            code[0],
            Instr::LoadGlobalMem {
                offset: 16,
                ty: ValType::I32,
                penalty: 2
            }
        );
    }

    #[test]
    fn runs_do_not_overlap() {
        // [ll, ll, AddI][ll, ll, AddI] → exactly two triples.
        let mut code = vec![
            ll(0, ValType::I32),
            ll(4, ValType::I32),
            Instr::AddI,
            ll(8, ValType::I32),
            ll(12, ValType::I32),
            Instr::AddI,
        ];
        assert_eq!(fuse(&mut code), 2);
        assert!(matches!(code[0], Instr::LoadLocal2OpI { .. }));
        assert!(matches!(code[3], Instr::LoadLocal2OpI { .. }));
    }
}

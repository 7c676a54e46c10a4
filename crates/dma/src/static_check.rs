//! Static DMA race analysis over a kernel IR.
//!
//! The paper cites Donaldson, Kroening and Rümmer (TACAS 2010), who
//! verify scratch-pad DMA code by instrumenting programs with assertions
//! modelling the memory flow controller and proving them with
//! k-induction. This module implements the same *idea* at reproduction
//! scale: accelerator kernels are expressed in a small IR of DMA
//! operations, local accesses and bounded loops, and the analyzer
//! symbolically executes the IR — unrolling loops twice, which suffices
//! to expose cross-iteration conflicts in the single- and double-buffered
//! idioms games use — reporting every synchronisation bug it can prove
//! without running the program.
//!
//! The `offload-lang` compiler lowers offload blocks to this IR to check
//! generated data-movement code; `bench` E11 compares this analyzer with
//! the dynamic [`crate::RaceChecker`] on a corpus of seeded bugs.

use std::fmt;

use memspace::{AccessMode, AddrRange, ModeSet};

use crate::engine::{DmaDirection, DmaRequest, Tag, TagMask};
use crate::race::{AccessKind, RaceChecker, RaceKind, RaceMode};

/// One operation in a DMA kernel.
#[derive(Clone, Debug)]
pub enum KernelOp {
    /// Issue a `get` of `remote` into `local` under `tag`.
    Get {
        /// Local-store destination range.
        local: AddrRange,
        /// Remote source range (must be the same length).
        remote: AddrRange,
        /// Tag group (0..=31).
        tag: u8,
    },
    /// Issue a `put` of `local` out to `remote` under `tag`.
    Put {
        /// Local-store source range.
        local: AddrRange,
        /// Remote destination range (must be the same length).
        remote: AddrRange,
        /// Tag group (0..=31).
        tag: u8,
    },
    /// Wait for all commands whose tag is in `mask`.
    Wait {
        /// Bitmask over tags, as in [`TagMask`].
        mask: u32,
    },
    /// A direct core access to local-store bytes.
    Access {
        /// The accessed range.
        range: AddrRange,
        /// Load or store.
        kind: AccessKind,
    },
    /// A loop whose body executes a statically unknown number of times
    /// (at least once, as in every per-frame game task loop).
    Loop {
        /// Operations in the loop body.
        body: Vec<KernelOp>,
    },
}

/// A named DMA kernel, the unit of static analysis.
#[derive(Clone, Debug, Default)]
pub struct DmaKernel {
    /// Kernel name, used in findings.
    pub name: String,
    /// Operation sequence.
    pub ops: Vec<KernelOp>,
    /// Declared access modes for the kernel's remote working set. Empty
    /// means undeclared (the permissive legacy contract); non-empty
    /// makes the analyzer reject every `Put` whose remote range is not
    /// fully inside a declared `write`/`update` range.
    pub modes: ModeSet,
}

impl DmaKernel {
    /// Creates an empty kernel with the given name.
    pub fn new(name: impl Into<String>) -> DmaKernel {
        DmaKernel {
            name: name.into(),
            ops: Vec::new(),
            modes: ModeSet::new(),
        }
    }

    /// Attaches the offload's access-mode declarations (builder style).
    #[must_use]
    pub fn with_modes(mut self, modes: ModeSet) -> DmaKernel {
        self.modes = modes;
        self
    }
}

/// The class of a static finding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StaticFindingKind {
    /// A core access may observe or corrupt in-flight data.
    UnsyncedAccess,
    /// Two possibly-concurrent transfers overlap with at least one write.
    TransferOverlap,
    /// A transfer can still be in flight when the kernel exits (its
    /// buffer may be reused by the next task).
    PendingAtExit,
    /// A `put` targets a remote range the kernel's access-mode
    /// declarations never licensed for writing (only raised for
    /// kernels with a non-empty [`ModeSet`]).
    UndeclaredWrite,
}

impl fmt::Display for StaticFindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticFindingKind::UnsyncedAccess => write!(f, "unsynchronised local access"),
            StaticFindingKind::TransferOverlap => write!(f, "overlapping in-flight transfers"),
            StaticFindingKind::PendingAtExit => write!(f, "transfer pending at kernel exit"),
            StaticFindingKind::UndeclaredWrite => write!(f, "undeclared write"),
        }
    }
}

/// A single static finding, locating the operations involved.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StaticFinding {
    /// Classification.
    pub kind: StaticFindingKind,
    /// Kernel the finding is in.
    pub kernel: String,
    /// Human-readable location, e.g. `"op 3 (loop iteration 2) vs op 1"`.
    pub location: String,
    /// Explanation of the conflict.
    pub detail: String,
}

impl fmt::Display for StaticFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.kernel, self.kind, self.location, self.detail
        )
    }
}

struct Analyzer {
    checker: RaceChecker,
    /// Maps synthetic transfer ids to (location, tag).
    issued: Vec<(String, u8)>,
    findings: Vec<StaticFinding>,
    seen: std::collections::HashSet<String>,
    kernel: String,
    modes: ModeSet,
}

/// Strips unrolling-iteration markers so the same source-level conflict
/// reported from different unrolled copies deduplicates to one finding.
fn strip_iterations(text: &str) -> String {
    text.replace(" (iteration 1)", "")
        .replace(" (iteration 2)", "")
}

impl Analyzer {
    fn location_of(&self, id: u64) -> &str {
        &self.issued[(id - 1) as usize].0
    }

    fn drain_checker(&mut self, here: &str) {
        for report in self.checker.take_reports() {
            let finding = match report.kind {
                RaceKind::TransferOverlap {
                    first,
                    second,
                    in_local_store,
                } => StaticFinding {
                    kind: StaticFindingKind::TransferOverlap,
                    kernel: self.kernel.clone(),
                    location: format!(
                        "{} vs {}",
                        self.location_of(second),
                        self.location_of(first)
                    ),
                    detail: format!(
                        "both transfers may be in flight and overlap on {} in {}",
                        report.range,
                        if in_local_store {
                            "the local store"
                        } else {
                            "remote memory"
                        }
                    ),
                },
                RaceKind::UnsyncedLocalAccess {
                    transfer,
                    access,
                    direction,
                } => StaticFinding {
                    kind: StaticFindingKind::UnsyncedAccess,
                    kernel: self.kernel.clone(),
                    location: format!("{} vs {}", here, self.location_of(transfer)),
                    detail: format!(
                        "core {access} of {} while {direction} issued at {} may still be in flight; insert a wait on its tag first",
                        report.range,
                        self.location_of(transfer),
                    ),
                },
                RaceKind::UndeclaredWrite { read_only } => StaticFinding {
                    kind: StaticFindingKind::UndeclaredWrite,
                    kernel: self.kernel.clone(),
                    location: here.to_string(),
                    detail: format!(
                        "put of {} {}",
                        report.range,
                        if read_only {
                            "targets a range declared read-only"
                        } else {
                            "is outside every declared range"
                        }
                    ),
                },
            };
            self.push_finding(finding);
        }
    }

    fn push_finding(&mut self, finding: StaticFinding) {
        let key = format!(
            "{:?}|{}|{}",
            finding.kind,
            strip_iterations(&finding.location),
            strip_iterations(&finding.detail)
        );
        if self.seen.insert(key) {
            self.findings.push(finding);
        }
    }

    fn walk(&mut self, ops: &[KernelOp], prefix: &str, pending_tags: &mut Vec<(u64, u8)>) {
        for (index, op) in ops.iter().enumerate() {
            let here = if prefix.is_empty() {
                format!("op {index}")
            } else {
                format!("{prefix} op {index}")
            };
            match op {
                KernelOp::Get { local, remote, tag } | KernelOp::Put { local, remote, tag } => {
                    let direction = if matches!(op, KernelOp::Get { .. }) {
                        DmaDirection::Get
                    } else {
                        DmaDirection::Put
                    };
                    // A mode-annotated kernel may only put into ranges it
                    // declared writable; everything else is rejected here,
                    // before the program ever runs.
                    if direction == DmaDirection::Put && !self.modes.is_empty() {
                        match self.modes.mode_for(remote.start(), remote.len()) {
                            Some(AccessMode::Write | AccessMode::Update) => {}
                            declared => {
                                self.checker.note_undeclared_write(
                                    *remote,
                                    declared == Some(AccessMode::Read),
                                    0,
                                );
                                self.drain_checker(&here);
                            }
                        }
                    }
                    let id = self.issued.len() as u64 + 1;
                    self.issued.push((here.clone(), *tag));
                    let request = DmaRequest {
                        local: local.start(),
                        remote: remote.start(),
                        size: local.len(),
                        tag: Tag::new(tag % Tag::COUNT).expect("tag reduced into range"),
                        direction,
                    };
                    self.checker.note_issue(id, &request, 0);
                    pending_tags.push((id, *tag));
                    self.drain_checker(&here);
                }
                KernelOp::Wait { mask } => {
                    let mask = TagMask::from_bits(*mask);
                    self.checker.note_wait(mask);
                    pending_tags.retain(|(_, tag)| {
                        !Tag::new(*tag % Tag::COUNT)
                            .map(|t| mask.contains(t))
                            .unwrap_or(false)
                    });
                }
                KernelOp::Access { range, kind } => {
                    self.checker.note_access(*range, *kind, 0);
                    self.drain_checker(&here);
                }
                KernelOp::Loop { body } => {
                    // Unroll twice: iteration 2 re-issues against anything
                    // iteration 1 left pending, exposing cross-iteration
                    // races (the double-buffering bug class).
                    self.walk(body, &format!("{here} (iteration 1)"), pending_tags);
                    self.walk(body, &format!("{here} (iteration 2)"), pending_tags);
                }
            }
        }
    }
}

/// Statically analyzes a kernel, returning every finding.
///
/// The analysis is sound for the IR's semantics (no false negatives for
/// the modelled bug classes within two loop iterations) and may report
/// conflicts on paths a cleverer analysis could rule out — the usual
/// trade the paper's setting accepts in exchange for not needing a
/// triggering input.
///
/// # Example
///
/// ```
/// use dma::{analyze_kernel, AccessKind, DmaKernel, KernelOp, StaticFindingKind};
/// use memspace::{Addr, AddrRange, SpaceId};
///
/// let ls = |o, l| AddrRange::new(Addr::new(SpaceId::local_store(0), o), l).unwrap();
/// let main = |o, l| AddrRange::new(Addr::new(SpaceId::MAIN, o), l).unwrap();
///
/// let mut kernel = DmaKernel::new("missing_wait");
/// kernel.ops = vec![
///     KernelOp::Get { local: ls(0x100, 64), remote: main(0x1000, 64), tag: 1 },
///     // BUG: the access happens before the wait.
///     KernelOp::Access { range: ls(0x100, 4), kind: AccessKind::Read },
///     KernelOp::Wait { mask: 1 << 1 },
/// ];
/// let findings = analyze_kernel(&kernel);
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].kind, StaticFindingKind::UnsyncedAccess);
/// ```
pub fn analyze_kernel(kernel: &DmaKernel) -> Vec<StaticFinding> {
    let mut analyzer = Analyzer {
        checker: RaceChecker::new(RaceMode::Record),
        issued: Vec::new(),
        findings: Vec::new(),
        seen: std::collections::HashSet::new(),
        kernel: kernel.name.clone(),
        modes: kernel.modes.clone(),
    };
    let mut pending = Vec::new();
    analyzer.walk(&kernel.ops, "", &mut pending);
    for (id, _) in pending {
        let finding = StaticFinding {
            kind: StaticFindingKind::PendingAtExit,
            kernel: kernel.name.clone(),
            location: analyzer.location_of(id).to_string(),
            detail: "transfer is never waited on before the kernel exits".to_string(),
        };
        analyzer.push_finding(finding);
    }
    analyzer.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use memspace::{Addr, SpaceId};

    fn ls(offset: u32, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(SpaceId::local_store(0), offset), len).unwrap()
    }

    fn main_r(offset: u32, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(SpaceId::MAIN, offset), len).unwrap()
    }

    fn get(local: AddrRange, remote: AddrRange, tag: u8) -> KernelOp {
        KernelOp::Get { local, remote, tag }
    }

    fn put(local: AddrRange, remote: AddrRange, tag: u8) -> KernelOp {
        KernelOp::Put { local, remote, tag }
    }

    fn wait(mask: u32) -> KernelOp {
        KernelOp::Wait { mask }
    }

    fn read(range: AddrRange) -> KernelOp {
        KernelOp::Access {
            range,
            kind: AccessKind::Read,
        }
    }

    fn write(range: AddrRange) -> KernelOp {
        KernelOp::Access {
            range,
            kind: AccessKind::Write,
        }
    }

    fn kinds(findings: &[StaticFinding]) -> Vec<StaticFindingKind> {
        findings.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn figure1_pattern_is_clean() {
        // The paper's Figure 1: two gets, wait, compute, two puts, wait.
        let mut k = DmaKernel::new("figure1");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 1),
            get(ls(0x200, 64), main_r(0x2000, 64), 1),
            wait(1 << 1),
            read(ls(0x100, 64)),
            read(ls(0x200, 64)),
            write(ls(0x100, 64)),
            put(ls(0x100, 64), main_r(0x1000, 64), 1),
            put(ls(0x200, 64), main_r(0x2000, 64), 1),
            wait(1 << 1),
        ];
        assert!(analyze_kernel(&k).is_empty());
    }

    #[test]
    fn missing_wait_before_access_is_found() {
        let mut k = DmaKernel::new("missing_wait");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 1),
            read(ls(0x110, 8)),
        ];
        let findings = analyze_kernel(&k);
        assert!(kinds(&findings).contains(&StaticFindingKind::UnsyncedAccess));
        assert!(findings[0].detail.contains("wait"));
    }

    #[test]
    fn wait_on_wrong_tag_is_found() {
        let mut k = DmaKernel::new("wrong_tag");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 1),
            wait(1 << 2), // waits tag 2, but the get used tag 1
            read(ls(0x100, 8)),
        ];
        let findings = analyze_kernel(&k);
        assert!(kinds(&findings).contains(&StaticFindingKind::UnsyncedAccess));
    }

    #[test]
    fn pending_at_exit_is_found() {
        let mut k = DmaKernel::new("fire_and_forget_put");
        k.ops = vec![put(ls(0x100, 64), main_r(0x1000, 64), 3)];
        let findings = analyze_kernel(&k);
        assert_eq!(kinds(&findings), vec![StaticFindingKind::PendingAtExit]);
    }

    #[test]
    fn overlapping_gets_same_buffer_found() {
        let mut k = DmaKernel::new("buffer_reuse");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 1),
            get(ls(0x100, 64), main_r(0x2000, 64), 2),
            wait((1 << 1) | (1 << 2)),
            read(ls(0x100, 64)),
        ];
        let findings = analyze_kernel(&k);
        assert!(kinds(&findings).contains(&StaticFindingKind::TransferOverlap));
    }

    #[test]
    fn single_buffered_loop_without_wait_is_found() {
        // for each chunk: get into the same buffer, process — but the
        // wait is missing; iteration 2's get overlaps iteration 1's.
        let mut k = DmaKernel::new("loop_missing_wait");
        k.ops = vec![KernelOp::Loop {
            body: vec![
                get(ls(0x100, 64), main_r(0x1000, 64), 1),
                read(ls(0x100, 64)),
            ],
        }];
        let findings = analyze_kernel(&k);
        assert!(kinds(&findings).contains(&StaticFindingKind::UnsyncedAccess));
    }

    #[test]
    fn correct_single_buffered_loop_is_clean_except_exit() {
        let mut k = DmaKernel::new("loop_ok");
        k.ops = vec![KernelOp::Loop {
            body: vec![
                get(ls(0x100, 64), main_r(0x1000, 64), 1),
                wait(1 << 1),
                read(ls(0x100, 64)),
            ],
        }];
        assert!(analyze_kernel(&k).is_empty());
    }

    #[test]
    fn double_buffered_loop_with_correct_waits_is_clean() {
        // The canonical double-buffer: prefetch buffer B while computing
        // on A, waiting on each buffer's tag before touching it.
        let mut k = DmaKernel::new("double_buffer_ok");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 0),
            KernelOp::Loop {
                body: vec![
                    get(ls(0x200, 64), main_r(0x2000, 64), 1),
                    wait(1 << 0),
                    read(ls(0x100, 64)),
                    get(ls(0x100, 64), main_r(0x3000, 64), 0),
                    wait(1 << 1),
                    read(ls(0x200, 64)),
                ],
            },
            wait((1 << 0) | (1 << 1)),
        ];
        assert!(analyze_kernel(&k).is_empty());
    }

    #[test]
    fn double_buffered_loop_with_swapped_tags_is_found() {
        // Same shape, but the waits name the wrong buffers' tags.
        let mut k = DmaKernel::new("double_buffer_swapped");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 0),
            KernelOp::Loop {
                body: vec![
                    get(ls(0x200, 64), main_r(0x2000, 64), 1),
                    wait(1 << 1), // BUG: should wait tag 0 before reading A
                    read(ls(0x100, 64)),
                    get(ls(0x100, 64), main_r(0x3000, 64), 0),
                    wait(1 << 0), // BUG: should wait tag 1 before reading B
                    read(ls(0x200, 64)),
                ],
            },
            wait(0b11),
        ];
        let findings = analyze_kernel(&k);
        assert!(kinds(&findings).contains(&StaticFindingKind::UnsyncedAccess));
    }

    #[test]
    fn findings_are_deduplicated_across_unrolling() {
        let mut k = DmaKernel::new("dedup");
        k.ops = vec![KernelOp::Loop {
            body: vec![
                get(ls(0x100, 64), main_r(0x1000, 64), 1),
                read(ls(0x100, 64)),
                wait(1 << 1),
            ],
        }];
        let findings = analyze_kernel(&k);
        // One finding per distinct (location pair), not an explosion.
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn undeclared_put_is_rejected_under_modes() {
        use memspace::AccessMode;
        // Declares main[0x1000..0x1040] read-only and nothing else, then
        // puts both into the read-only range and outside every range.
        let modes = ModeSet::new().with(Addr::new(SpaceId::MAIN, 0x1000), 64, AccessMode::Read);
        let mut k = DmaKernel::new("mode_violations").with_modes(modes);
        k.ops = vec![
            put(ls(0x100, 64), main_r(0x1000, 64), 1),
            put(ls(0x200, 64), main_r(0x8000, 64), 1),
            wait(1 << 1),
        ];
        let findings = analyze_kernel(&k);
        let undeclared: Vec<_> = findings
            .iter()
            .filter(|f| f.kind == StaticFindingKind::UndeclaredWrite)
            .collect();
        assert_eq!(undeclared.len(), 2, "{findings:?}");
        assert!(undeclared[0].detail.contains("read-only"), "{findings:?}");
        assert!(
            undeclared[1]
                .detail
                .contains("outside every declared range"),
            "{findings:?}"
        );
    }

    #[test]
    fn declared_puts_pass_and_undeclared_kernels_stay_permissive() {
        use memspace::AccessMode;
        let modes = ModeSet::new().with(Addr::new(SpaceId::MAIN, 0x1000), 64, AccessMode::Write);
        let mut k = DmaKernel::new("mode_ok").with_modes(modes);
        k.ops = vec![put(ls(0x100, 64), main_r(0x1000, 64), 1), wait(1 << 1)];
        assert!(analyze_kernel(&k).is_empty());

        // The same put with no declarations at all is the legacy
        // contract: nothing to reject.
        let mut legacy = DmaKernel::new("legacy");
        legacy.ops = vec![put(ls(0x100, 64), main_r(0x9000, 64), 1), wait(1 << 1)];
        assert!(analyze_kernel(&legacy).is_empty());
    }

    #[test]
    fn finding_display_is_informative() {
        let mut k = DmaKernel::new("show");
        k.ops = vec![
            get(ls(0x100, 64), main_r(0x1000, 64), 1),
            read(ls(0x100, 8)),
            wait(1 << 1),
        ];
        let findings = analyze_kernel(&k);
        let text = findings[0].to_string();
        assert!(text.contains("show"));
        assert!(text.contains("op 1"));
        assert!(text.contains("unsynchronised"));
    }
}

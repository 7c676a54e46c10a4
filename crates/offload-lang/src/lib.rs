//! The Offload/Mini compiler and virtual machine.
//!
//! Offload C++ (paper §3) extends C++ with an `__offload` block: code
//! inside the block runs on an accelerator core, data declared inside it
//! lives in scratch-pad memory, and accesses to host data compile into
//! automatically generated data-movement code, with an `__outer`
//! pointer qualifier keeping the memory spaces apart in the type
//! system. Reproducing the *compiler* half of the paper means building
//! that language. **Offload/Mini** is a C-flavoured object language with
//! exactly the features the paper's mechanisms need:
//!
//! - structs, classes with single inheritance and `virtual`/`override`
//!   methods, pointers, fixed arrays, `new` (arena) allocation;
//! - `offload domain(Class.method, …) { … }` blocks executing on the
//!   simulated accelerator, with local allocation in the 256 KiB local
//!   store and **automatic outer qualification** of pointers to host
//!   data; blocks capture host locals by value with `use(x, y)`, and
//!   named handles make them asynchronous — `offload h { … } … join h;`
//!   is the paper's `__offload_handle_t h = __offload { … };
//!   __offload_join(h);`, with handles round-robined over the machine's
//!   accelerators;
//! - strong memory-space typing: assigning an outer pointer to a local
//!   pointer (or vice versa) is a compile error, as in Offload C++;
//! - **automatic call-graph duplication**: every function reachable from
//!   an offload block is recompiled per combination of pointer-parameter
//!   memory spaces (paper §3, experiment E10);
//! - **dispatch domains** (paper Figure 3): virtual calls inside offload
//!   blocks resolve through outer/inner domains built from the block's
//!   `domain(...)` annotation, with the informative miss exception;
//! - **word/byte addressing** (paper §5): compiled for a word-addressed
//!   target, the hybrid pointer discipline statically rejects
//!   inefficient pointer arithmetic, while the byte-emulation strategy
//!   accepts everything and pays per-dereference penalties (E9).
//!
//! Programs execute on the [`simcell`] machine through a bytecode VM, so
//! every language construct carries its simulated cost.
//!
//! # Example
//!
//! ```
//! use offload_lang::{compile, Target, Vm};
//! use simcell::{Machine, MachineConfig};
//!
//! let source = r#"
//!     var counter: int;
//!     fn main() -> int {
//!         counter = 20;
//!         offload {
//!             counter = counter + 22;   // outer access, via DMA
//!         }
//!         return counter;
//!     }
//! "#;
//! let program = compile(source, &Target::cell_like()).expect("compiles");
//! let mut machine = Machine::new(MachineConfig::small()).unwrap();
//! let mut vm = Vm::new(&program, &mut machine).unwrap();
//! let exit = vm.run(&mut machine).unwrap();
//! assert_eq!(exit, 42);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod codegen;
pub mod compile;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod peephole;
pub mod span;
pub mod token;
pub mod types;
pub mod vm;

pub use compile::{compile, CompileStats, Program, Target, WordStrategy};
pub use diag::{CompileError, ErrorKind};
pub use span::Span;
pub use vm::{Vm, VmError};

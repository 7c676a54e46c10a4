//! The bytecode virtual machine.
//!
//! Executes a compiled [`Program`] on a [`simcell::Machine`]: host code
//! runs against the host core's clock and memory path; `offload` blocks
//! run on accelerator 0 with local-store frames, and their accesses to
//! outer (host) data either pay a synchronous DMA round trip each
//! ([`CacheChoice::Naive`]) or go "through a software cache" exactly as
//! paper §3 describes: the cache [`Vm::set_cache`] names, which every
//! offload's launch installs.
//!
//! # Cost accounting
//!
//! Every instruction charges one `arith` cycle for decode/execute, plus:
//! jumps and calls a `branch`; pointer indexing an extra `arith`;
//! memory instructions the cost of the space they touch (accesses
//! falling inside the *current frame* model register/L1-resident locals
//! and charge nothing extra); word-addressing penalties from the
//! compiler (paper §5); virtual calls the header read plus `vcall` plus
//! — on the accelerator — the Figure 3 domain search costs. Fused
//! superinstructions charge exactly what their unfused expansion
//! charges (see [`crate::peephole`]), so simulated time is independent
//! of the fusion pass.
//!
//! # Hot-path discipline
//!
//! See `docs/VM.md` for the full architecture notes. In short, the
//! interpreter loop is allocation-free and unboxed in steady state:
//!
//! - **Tagged machine-word values.** A runtime value is one `u64` with
//!   the type tag in the top two bits and the 32-bit payload in the low
//!   word (the New Mars noun trick). Tagging a small integer is a plain
//!   zero-extend and untagging is a truncation, so integer arithmetic
//!   operates on values immediately — no enum discriminant, no match,
//!   no unboxing.
//! - **Two-stack east/west frame arena.** The operand stack grows west
//!   (up) and two-word call-frame records grow east (down) inside one
//!   preallocated word array, so calls and returns never touch the Rust
//!   allocator. (Simulated frame *slots* still live in simulated stack
//!   memory — pointers into frames must stay meaningful.)
//! - **Cached frame registers.** The dispatch loop keeps the current
//!   function, program counter and frame base in locals, spilling them
//!   to the frame record only around calls.
//! - **Superinstruction handlers.** Fused opcodes retire whole
//!   load/load/arith or compare-branch runs in one dispatch.
//!
//! Call arguments move through the arena (never through temporary
//! `Vec`s), `CopyMem` reuses one scratch buffer, and asynchronous
//! offload handles live in a flat slot vector rather than a hash map.
//! `String`s only materialise on the cold error paths that terminate
//! execution.

use memspace::{Addr, SpaceId};
use simcell::{AccelCtx, CostModel, Launch, LaunchSettings, Machine, ModeSet, SimError};
use softcache::CacheChoice;

use crate::bytecode::{ArithF, ArithI, Cmp, DomainId, FuncId, Instr, SpaceTag, ValType};
use crate::compile::Program;

/// Bytes reserved for the host call stack.
const HOST_STACK: u32 = 256 * 1024;
/// Bytes reserved for the accelerator call stack inside an offload.
const ACCEL_STACK: u32 = 48 * 1024;
/// Words in the east/west frame arena (operand stack west, frame
/// records east). 4 Ki words = 32 KiB: the simulated 512-frame
/// call-depth limit caps the east side at 1024 words, which leaves
/// 3 Ki words of operand stack — far beyond any compiler-emitted
/// expression depth (operands are scalar `Value`s; aggregates live in
/// simulated memory). Kept modest so `Vm::new` stays cheap (the arena
/// is zero-filled once per VM).
const ARENA_WORDS: usize = 1 << 12;

/// Errors raised during execution.
#[derive(Clone, Debug)]
pub enum VmError {
    /// Integer division or modulo by zero.
    DivideByZero {
        /// Function name.
        func: String,
    },
    /// The paper's informative dispatch-domain miss (Figure 3).
    DomainMiss {
        /// The host function that was dispatched.
        method: String,
        /// The required memory-space signature.
        dup: u16,
        /// Outer-domain entries searched.
        searched: usize,
    },
    /// Call stack exhausted.
    StackOverflow,
    /// The configured instruction budget ran out (probable infinite
    /// loop).
    OutOfFuel,
    /// `join` on a handle with no offload in flight (joined twice, or
    /// the offload statement never executed on this path).
    InvalidJoin {
        /// The handle slot.
        slot: u16,
    },
    /// A function with a non-void return type fell off its end.
    MissingReturn {
        /// Function name.
        func: String,
    },
    /// Hand-built bytecode reached an instruction its context cannot
    /// run: an offload or `join` inside an offload body, or the end of
    /// a `main` that returns no value. The compiler never emits these.
    IllegalInstr {
        /// The activation that reached it: the offload body running on
        /// the accelerator, or `main`.
        func: String,
        /// The instruction.
        instr: String,
    },
    /// Underlying simulator failure (bounds, allocation, transfer…).
    Sim(SimError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::DivideByZero { func } => write!(f, "division by zero in `{func}`"),
            VmError::DomainMiss {
                method,
                dup,
                searched,
            } => write!(
                f,
                "dispatch-domain miss: `{method}` (memory-space signature {dup:#b}) is not \
                 pre-compiled for local dispatch (searched {searched} domain entries); add the \
                 method to the offload's domain(...) annotation"
            ),
            VmError::StackOverflow => write!(f, "simulated call stack overflow"),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted (infinite loop?)"),
            VmError::InvalidJoin { slot } => write!(
                f,
                "join on offload handle #{slot} which has no offload in flight (already joined, \
                 or the offload never ran on this path)"
            ),
            VmError::MissingReturn { func } => {
                write!(f, "`{func}` ended without returning a value")
            }
            VmError::IllegalInstr { func, instr } => {
                write!(f, "`{func}` reached `{instr}`, which it cannot run there")
            }
            VmError::Sim(err) => write!(f, "simulator error: {err}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<SimError> for VmError {
    fn from(err: SimError) -> VmError {
        VmError::Sim(err)
    }
}

/// A runtime scalar value: one tagged machine word.
///
/// Layout (the New Mars noun trick, adapted to our four scalar kinds):
///
/// ```text
///  63 62        48 47        32 31                         0
/// +-----+----------+------------+----------------------------+
/// | tag |  (zero)  | ptr space  |         payload            |
/// +-----+----------+------------+----------------------------+
///  tag 00 = int    payload = i32 bits (zero-extended)
///  tag 01 = float  payload = f32 bits
///  tag 10 = bool   payload = 0 / 1
///  tag 11 = ptr    payload = offset, bits 47..32 = SpaceId
/// ```
///
/// The int tag is **zero**, so tagging a small integer is a plain
/// zero-extend and untagging is a truncation — integer arithmetic never
/// masks or shifts. Programs are statically typed, so release-mode
/// accessors trust the tag; debug builds assert it.
#[derive(Clone, Copy)]
struct Value(u64);

impl Value {
    const TAG_SHIFT: u32 = 62;
    const TAG_INT: u64 = 0b00 << Value::TAG_SHIFT;
    const TAG_FLOAT: u64 = 0b01 << Value::TAG_SHIFT;
    const TAG_BOOL: u64 = 0b10 << Value::TAG_SHIFT;
    const TAG_PTR: u64 = 0b11 << Value::TAG_SHIFT;
    const TAG_MASK: u64 = 0b11 << Value::TAG_SHIFT;

    #[inline(always)]
    fn from_i(v: i32) -> Value {
        // TAG_INT is zero: the tag *is* the zero-extension.
        Value(u64::from(v as u32))
    }

    #[inline(always)]
    fn from_f(v: f32) -> Value {
        Value(Value::TAG_FLOAT | u64::from(v.to_bits()))
    }

    #[inline(always)]
    fn from_b(v: bool) -> Value {
        Value(Value::TAG_BOOL | u64::from(v))
    }

    #[inline(always)]
    fn from_p(addr: Addr) -> Value {
        Value(Value::TAG_PTR | (u64::from(addr.space().index()) << 32) | u64::from(addr.offset()))
    }

    #[inline(always)]
    fn tag(self) -> u64 {
        self.0 & Value::TAG_MASK
    }

    #[inline(always)]
    fn as_i(self) -> i32 {
        debug_assert_eq!(self.tag(), Value::TAG_INT, "int expected: {self:?}");
        self.0 as u32 as i32
    }

    #[inline(always)]
    fn as_f(self) -> f32 {
        debug_assert_eq!(self.tag(), Value::TAG_FLOAT, "float expected: {self:?}");
        f32::from_bits(self.0 as u32)
    }

    #[inline(always)]
    fn as_b(self) -> bool {
        debug_assert_eq!(self.tag(), Value::TAG_BOOL, "bool expected: {self:?}");
        self.0 & 1 != 0
    }

    #[inline(always)]
    fn as_p(self) -> Addr {
        debug_assert_eq!(self.tag(), Value::TAG_PTR, "pointer expected: {self:?}");
        Addr::new(SpaceId::from_index((self.0 >> 32) as u16), self.0 as u32)
    }

    /// The low 32 bits as a signed integer: the value of an int, or the
    /// offset of a pointer. `CmpI` compares either kind branchlessly.
    #[inline(always)]
    fn low_i32(self) -> i32 {
        debug_assert!(
            matches!(self.tag(), Value::TAG_INT | Value::TAG_PTR),
            "int or pointer expected: {self:?}"
        );
        self.0 as u32 as i32
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tag() {
            Value::TAG_INT => write!(f, "I({})", self.0 as u32 as i32),
            Value::TAG_FLOAT => write!(f, "F({})", f32::from_bits(self.0 as u32)),
            Value::TAG_BOOL => write!(f, "B({})", self.0 & 1 != 0),
            _ => write!(
                f,
                "P(space {} + {:#x})",
                (self.0 >> 32) as u16,
                self.0 as u32
            ),
        }
    }
}

/// The two-stack frame arena: one preallocated word array where the
/// operand stack grows west (up from 0) and two-word frame records grow
/// east (down from the end), ares-style. Exhaustion (the stacks
/// meeting) surfaces as [`VmError::StackOverflow`]; in practice the
/// simulated 512-frame / stack-byte limits trip long before the arena
/// does.
struct FrameArena {
    words: Box<[u64]>,
    /// One past the top of the operand stack.
    west: usize,
    /// Index of the newest frame record (records sit at `east`,
    /// `east + 1`).
    east: usize,
}

impl FrameArena {
    fn new() -> FrameArena {
        FrameArena {
            words: vec![0u64; ARENA_WORDS].into_boxed_slice(),
            west: 0,
            east: ARENA_WORDS,
        }
    }

    #[inline(always)]
    fn push(&mut self, v: Value) -> Result<(), VmError> {
        if self.west == self.east {
            return Err(VmError::StackOverflow);
        }
        self.words[self.west] = v.0;
        self.west += 1;
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self) -> Value {
        self.west -= 1;
        Value(self.words[self.west])
    }

    /// Pushes a frame record for the *suspended* caller: its function,
    /// resume pc, frame-entry stack mark and frame base offset.
    #[inline(always)]
    fn push_record(
        &mut self,
        func: FuncId,
        pc: usize,
        entry_top: u32,
        base_offset: u32,
    ) -> Result<(), VmError> {
        if self.east < self.west + 2 {
            return Err(VmError::StackOverflow);
        }
        self.east -= 2;
        self.words[self.east] = u64::from(func.0) | ((pc as u64) << 32);
        self.words[self.east + 1] = u64::from(entry_top) | (u64::from(base_offset) << 32);
        Ok(())
    }

    /// Pops the newest frame record: `(func, pc, entry_top, base_offset)`.
    #[inline(always)]
    fn pop_record(&mut self) -> (FuncId, usize, u32, u32) {
        let w0 = self.words[self.east];
        let w1 = self.words[self.east + 1];
        self.east += 2;
        (
            FuncId(w0 as u32),
            (w0 >> 32) as usize,
            w1 as u32,
            (w1 >> 32) as u32,
        )
    }
}

/// The execution environment a piece of code runs in (host core or an
/// accelerator inside an offload block).
trait Env {
    fn space(&self) -> SpaceId;
    fn cost(&self) -> CostModel;
    fn compute(&mut self, cycles: u64);
    /// Reads bytes; `in_frame` marks current-frame (register-modelled)
    /// accesses that charge nothing extra.
    fn read(&mut self, addr: Addr, out: &mut [u8], in_frame: bool) -> Result<(), VmError>;
    fn write(&mut self, addr: Addr, data: &[u8], in_frame: bool) -> Result<(), VmError>;
    /// Arena allocation in this environment's current space.
    fn alloc(&mut self, size: u32, align: u32) -> Result<Addr, VmError>;
    /// Runs an offload block (host only; the compiler rejects nesting).
    /// `args` holds the block's by-value captures.
    fn exec_offload(
        &mut self,
        vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        args: &[Value],
    ) -> Result<(), VmError>;
    /// Launches an asynchronous offload under a handle slot (host only).
    fn exec_offload_async(
        &mut self,
        vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        slot: u16,
        args: &[Value],
    ) -> Result<(), VmError>;
    /// Joins the offload registered under `slot` (host only).
    fn exec_join(&mut self, slot: u16) -> Result<(), VmError>;
}

struct HostEnv<'a> {
    machine: &'a mut Machine,
    /// In-flight asynchronous offloads, indexed directly by handle slot.
    /// Handle slots are small dense compiler-assigned integers, so a flat
    /// slot vector replaces the former `HashMap<u16, _>`: no hashing on
    /// the dispatch path, and the vector's capacity is reused across
    /// launch/join cycles.
    pending: Vec<Option<simcell::OffloadHandle<Result<(), VmError>>>>,
    /// Round-robin accelerator assignment for asynchronous offloads.
    next_accel: u16,
}

impl<'a> HostEnv<'a> {
    fn new(machine: &'a mut Machine) -> HostEnv<'a> {
        HostEnv {
            machine,
            pending: Vec::new(),
            next_accel: 0,
        }
    }

    /// Joins every still-pending offload (end of `main`).
    fn drain(&mut self) -> Result<(), VmError> {
        for slot in 0..self.pending.len() {
            if self.pending[slot].is_some() {
                self.exec_join(slot as u16)?;
            }
        }
        Ok(())
    }
}

impl Env for HostEnv<'_> {
    #[inline(always)]
    fn space(&self) -> SpaceId {
        SpaceId::MAIN
    }

    fn cost(&self) -> CostModel {
        *self.machine.cost()
    }

    #[inline(always)]
    fn compute(&mut self, cycles: u64) {
        self.machine.host_compute(cycles);
    }

    #[inline(always)]
    fn read(&mut self, addr: Addr, out: &mut [u8], in_frame: bool) -> Result<(), VmError> {
        if in_frame {
            self.machine
                .main()
                .read_into(addr, out)
                .map_err(SimError::from)?;
            Ok(())
        } else {
            Ok(self.machine.host_read_bytes(addr, out)?)
        }
    }

    #[inline(always)]
    fn write(&mut self, addr: Addr, data: &[u8], in_frame: bool) -> Result<(), VmError> {
        if in_frame {
            self.machine
                .main_mut()
                .write_bytes(addr, data)
                .map_err(SimError::from)?;
            Ok(())
        } else {
            Ok(self.machine.host_write_bytes(addr, data)?)
        }
    }

    fn alloc(&mut self, size: u32, align: u32) -> Result<Addr, VmError> {
        Ok(self.machine.alloc_main(size, align)?)
    }

    fn exec_offload(
        &mut self,
        vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        args: &[Value],
    ) -> Result<(), VmError> {
        let modes = vm.mode_set_for(domain)?;
        self.machine
            .offload(0)
            .cache(vm.cache)
            .with_modes(modes)
            .run(|ctx| vm.run_on_accel(ctx, func, domain, args))??;
        Ok(())
    }

    fn exec_offload_async(
        &mut self,
        vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        slot: u16,
        args: &[Value],
    ) -> Result<(), VmError> {
        let modes = vm.mode_set_for(domain)?;
        // Asynchronous offloads round-robin over the accelerators, so
        // several language-level handles genuinely overlap.
        let accel = self.next_accel;
        self.next_accel = (self.next_accel + 1) % self.machine.accel_count();
        let handle = self
            .machine
            .offload(accel)
            .cache(vm.cache)
            .with_modes(modes)
            .spawn(|ctx| vm.run_on_accel(ctx, func, domain, args))?;
        if usize::from(slot) >= self.pending.len() {
            self.pending.resize_with(usize::from(slot) + 1, || None);
        }
        if let Some(stale) = self.pending[usize::from(slot)].replace(handle) {
            // Rebinding a live handle implicitly joins the old offload
            // (matching scoped handle semantics).
            self.machine.join(stale)?;
        }
        Ok(())
    }

    fn exec_join(&mut self, slot: u16) -> Result<(), VmError> {
        let handle = self
            .pending
            .get_mut(usize::from(slot))
            .and_then(Option::take)
            .ok_or(VmError::InvalidJoin { slot })?;
        self.machine.join(handle)
    }
}

struct AccelEnv<'a, 'm> {
    ctx: &'a mut AccelCtx<'m>,
    /// The offload body's name, for [`VmError::IllegalInstr`].
    body: &'a str,
}

impl AccelEnv<'_, '_> {
    /// Offloads and joins are host-only; only hand-built bytecode
    /// reaches them on the accelerator.
    fn illegal(&self, instr: Instr) -> VmError {
        VmError::IllegalInstr {
            func: self.body.to_string(),
            instr: format!("{instr:?}"),
        }
    }
}

impl Env for AccelEnv<'_, '_> {
    #[inline(always)]
    fn space(&self) -> SpaceId {
        self.ctx.local_space()
    }

    fn cost(&self) -> CostModel {
        *self.ctx.cost()
    }

    #[inline(always)]
    fn compute(&mut self, cycles: u64) {
        self.ctx.compute(cycles);
    }

    #[inline(always)]
    fn read(&mut self, addr: Addr, out: &mut [u8], in_frame: bool) -> Result<(), VmError> {
        if addr.space() == self.ctx.local_space() {
            if in_frame {
                // Register-modelled frame access: data only.
                return Ok(self.ctx.peek_local(addr, out)?);
            }
            return Ok(self.ctx.local_read_bytes(addr, out)?);
        }
        Ok(self.ctx.cached_read_bytes(addr, out)?)
    }

    #[inline(always)]
    fn write(&mut self, addr: Addr, data: &[u8], in_frame: bool) -> Result<(), VmError> {
        if addr.space() == self.ctx.local_space() {
            if in_frame {
                return Ok(self.ctx.poke_local(addr, data)?);
            }
            return Ok(self.ctx.local_write_bytes(addr, data)?);
        }
        Ok(self.ctx.cached_write_bytes(addr, data)?)
    }

    fn alloc(&mut self, size: u32, align: u32) -> Result<Addr, VmError> {
        Ok(self.ctx.alloc_local(size, align)?)
    }

    fn exec_offload(
        &mut self,
        _vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        _args: &[Value],
    ) -> Result<(), VmError> {
        Err(self.illegal(Instr::Offload { func, domain }))
    }

    fn exec_offload_async(
        &mut self,
        _vm: &mut Vm<'_>,
        func: FuncId,
        domain: DomainId,
        slot: u16,
        _args: &[Value],
    ) -> Result<(), VmError> {
        Err(self.illegal(Instr::OffloadAsync { func, domain, slot }))
    }

    fn exec_join(&mut self, slot: u16) -> Result<(), VmError> {
        Err(self.illegal(Instr::Join { slot }))
    }
}

/// Whether `addr` falls inside the current frame (register-modelled:
/// the access is free).
#[inline(always)]
fn in_frame(base: Addr, frame_size: u32, addr: Addr) -> bool {
    addr.space() == base.space() && addr.offset().wrapping_sub(base.offset()) < frame_size
}

/// Loads one scalar from simulated memory as a tagged value. Fixed-size
/// reads per type keep the copies constant-length after inlining.
#[inline(always)]
fn load_value(
    env: &mut impl Env,
    addr: Addr,
    ty: ValType,
    in_frame: bool,
) -> Result<Value, VmError> {
    Ok(match ty {
        ValType::I32 => {
            let mut b = [0u8; 4];
            env.read(addr, &mut b, in_frame)?;
            Value::from_i(i32::from_le_bytes(b))
        }
        ValType::F32 => {
            let mut b = [0u8; 4];
            env.read(addr, &mut b, in_frame)?;
            Value::from_f(f32::from_le_bytes(b))
        }
        ValType::Bool => {
            let mut b = [0u8; 1];
            env.read(addr, &mut b, in_frame)?;
            Value::from_b(b[0] != 0)
        }
        ValType::Char => {
            let mut b = [0u8; 1];
            env.read(addr, &mut b, in_frame)?;
            Value::from_i(i32::from(b[0]))
        }
        ValType::Ptr(tag) => {
            let mut b = [0u8; 4];
            env.read(addr, &mut b, in_frame)?;
            let space = match tag {
                SpaceTag::Host => SpaceId::MAIN,
                SpaceTag::Local => env.space(),
            };
            Value::from_p(Addr::new(space, u32::from_le_bytes(b)))
        }
    })
}

/// Stores one scalar into simulated memory.
#[inline(always)]
fn store_value(
    env: &mut impl Env,
    addr: Addr,
    ty: ValType,
    value: Value,
    in_frame: bool,
) -> Result<(), VmError> {
    match ty {
        ValType::I32 => env.write(addr, &value.as_i().to_le_bytes(), in_frame),
        ValType::F32 => env.write(addr, &value.as_f().to_le_bytes(), in_frame),
        ValType::Bool => env.write(addr, &[u8::from(value.as_b())], in_frame),
        ValType::Char => env.write(addr, &[(value.as_i() & 0xff) as u8], in_frame),
        ValType::Ptr(_) => env.write(addr, &value.as_p().offset().to_le_bytes(), in_frame),
    }
}

#[inline(always)]
fn apply_i(op: ArithI, a: i32, b: i32) -> i32 {
    match op {
        ArithI::Add => a.wrapping_add(b),
        ArithI::Sub => a.wrapping_sub(b),
        ArithI::Mul => a.wrapping_mul(b),
    }
}

#[inline(always)]
fn apply_f(op: ArithF, a: f32, b: f32) -> f32 {
    match op {
        ArithF::Add => a + b,
        ArithF::Sub => a - b,
        ArithF::Mul => a * b,
        ArithF::Div => a / b,
    }
}

/// The virtual machine for one compiled program.
///
/// See the crate-level example.
pub struct Vm<'p> {
    program: &'p Program,
    globals_base: Addr,
    host_stack: Addr,
    output: Vec<String>,
    fuel: u64,
    cache: CacheChoice,
    /// Instructions executed so far (fused superinstructions count as
    /// their full unfused width).
    executed: u64,
    /// The east/west operand-stack + frame-record arena, reused across
    /// `exec` activations (host and nested offload runs).
    arena: FrameArena,
    /// Reusable buffer for offload capture lists, so launching an
    /// offload doesn't allocate.
    arg_scratch: Vec<Value>,
    /// Reusable byte buffer for `CopyMem`, so struct copies don't
    /// allocate per instruction.
    copy_scratch: Vec<u8>,
}

impl<'p> Vm<'p> {
    /// Prepares a VM: allocates the globals block (zeroed) and the host
    /// call stack in the machine's main memory.
    ///
    /// # Errors
    ///
    /// Fails if main memory cannot fit the program's static data.
    pub fn new(program: &'p Program, machine: &mut Machine) -> Result<Vm<'p>, SimError> {
        let globals_base = machine.alloc_main(program.globals_size, 16)?;
        let host_stack = machine.alloc_main(HOST_STACK, 16)?;
        Ok(Vm {
            program,
            globals_base,
            host_stack,
            output: Vec::new(),
            fuel: 500_000_000,
            cache: CacheChoice::Naive,
            executed: 0,
            arena: FrameArena::new(),
            arg_scratch: Vec::new(),
            copy_scratch: Vec::new(),
        })
    }

    /// Sets the software cache every offload block installs for its
    /// outer accesses (default [`CacheChoice::Naive`]: each one is a
    /// synchronous DMA round trip). Any choice applies — hand-picked,
    /// or the autotuner's winner for the program's access trace.
    pub fn set_cache(&mut self, choice: CacheChoice) {
        self.cache = choice;
    }

    /// Sets the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Lines produced by `print_int`/`print_float`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Instructions executed so far. Fused superinstructions count as
    /// the full run of original instructions they stand for, so the
    /// count is identical with fusion on or off.
    pub fn instructions_executed(&self) -> u64 {
        self.executed
    }

    /// Runs `main` to completion and returns its exit value.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`]. A cache some accelerator's local
    /// store cannot hold is refused before any instruction runs.
    pub fn run(&mut self, machine: &mut Machine) -> Result<i32, VmError> {
        // Asynchronous offloads round-robin over every accelerator.
        let launch = Launch {
            cache: self.cache,
            ..Launch::default()
        };
        launch.arm(machine, 0, machine.accel_count())?;
        let main = self.program.main;
        let mut env = HostEnv::new(machine);
        let stack = self.host_stack;
        let result = self.exec(&mut env, main, &[], stack, HOST_STACK, None)?;
        env.drain()?;
        match result {
            Some(v) => Ok(v.as_i()),
            None => Err(VmError::IllegalInstr {
                func: self.program.func(main).name.clone(),
                instr: format!("{:?}", Instr::Ret { has_value: false }),
            }),
        }
    }

    /// The runtime [`ModeSet`] for an offload block: its compiled
    /// `reads`/`writes`/`updates` table resolved against this VM's
    /// global segment. Empty (the legacy permissive contract) when the
    /// block declared nothing.
    fn mode_set_for(&self, domain: DomainId) -> Result<ModeSet, VmError> {
        let mut modes = ModeSet::new();
        for range in &self.program.mode_tables[domain.0 as usize] {
            let addr = self
                .globals_base
                .offset_by(range.offset)
                .map_err(SimError::from)?;
            modes.declare(addr, range.len, range.mode);
        }
        Ok(modes)
    }

    /// Entry point for offload bodies (called back from the host env).
    fn run_on_accel(
        &mut self,
        ctx: &mut AccelCtx<'_>,
        func: FuncId,
        domain: DomainId,
        args: &[Value],
    ) -> Result<(), VmError> {
        let stack = ctx.alloc_local(ACCEL_STACK, 16)?;
        let body = self.program.func(func).name.as_str();
        let mut env = AccelEnv { ctx, body };
        self.exec(&mut env, func, args, stack, ACCEL_STACK, Some(domain))?;
        Ok(())
    }

    /// Runs `entry` in a fresh activation, preserving the arena marks
    /// around the nested dispatch (host `exec` stays suspended while an
    /// offload body runs its own activation on the same arena).
    fn exec(
        &mut self,
        env: &mut impl Env,
        entry: FuncId,
        args: &[Value],
        stack_base: Addr,
        stack_size: u32,
        domain: Option<DomainId>,
    ) -> Result<Option<Value>, VmError> {
        let west_mark = self.arena.west;
        let east_mark = self.arena.east;
        let mut seeded = Ok(());
        for &a in args {
            seeded = seeded.and_then(|()| self.arena.push(a));
        }
        let result = seeded
            .and_then(|()| self.dispatch(env, entry, args.len(), stack_base, stack_size, domain));
        // Unwind this activation's stacks even on error paths.
        self.arena.west = west_mark;
        self.arena.east = east_mark;
        result
    }

    /// The dispatch loop for one activation. The caller has pushed the
    /// `nargs` entry arguments onto the arena's operand stack.
    #[allow(clippy::too_many_lines)]
    fn dispatch(
        &mut self,
        env: &mut impl Env,
        entry: FuncId,
        nargs: usize,
        stack_base: Addr,
        stack_size: u32,
        domain: Option<DomainId>,
    ) -> Result<Option<Value>, VmError> {
        // `program` is a copy of the `&'p Program` field, independent of
        // the `&mut self` borrow — the loop can hold code references
        // while still lending `self` out to offload launches.
        let program: &'p Program = self.program;
        let cost = env.cost();
        let east_floor = self.arena.east;

        let mut stack_top: u32 = 0;

        // Enters a frame for `$callee`, whose arguments sit on top of
        // the operand stack. The caller's record (if any) must already
        // be on the east stack, so the record count equals the live
        // frame depth checked against the 512 limit. Evaluates to
        // `(body, base, entry_top)` for the new frame.
        macro_rules! enter {
            ($callee:expr, $nargs:expr) => {{
                let callee: FuncId = $callee;
                let argc: usize = $nargs;
                let body = program.func(callee);
                let new_base = stack_base.offset_by(stack_top).map_err(SimError::from)?;
                let depth = (east_floor - self.arena.east) / 2;
                if stack_top + body.frame_size > stack_size || depth >= 512 {
                    return Err(VmError::StackOverflow);
                }
                let frame_entry_top = stack_top;
                stack_top += body.frame_size;
                env.compute(cost.branch);
                let arg_split = self.arena.west - argc;
                for i in 0..argc {
                    let v = Value(self.arena.words[arg_split + i]);
                    let slot = new_base
                        .offset_by(body.param_offsets[i])
                        .map_err(SimError::from)?;
                    store_value(env, slot, body.params[i], v, true)?;
                    env.compute(cost.arith);
                }
                self.arena.west = arg_split;
                (body, new_base, frame_entry_top)
            }};
        }

        // Current-frame registers, spilled to a frame record only
        // around calls and restored on return.
        let mut func = entry;
        let (mut fbody, mut base, mut entry_top) = enter!(entry, nargs);
        let mut pc: usize = 0;

        loop {
            if self.executed >= self.fuel {
                return Err(VmError::OutOfFuel);
            }
            self.executed += 1;

            let instr = fbody.code[pc];
            pc += 1;
            env.compute(cost.arith);

            match instr {
                Instr::ConstI(v) => self.arena.push(Value::from_i(v))?,
                Instr::ConstF(v) => self.arena.push(Value::from_f(v))?,
                Instr::ConstB(v) => self.arena.push(Value::from_b(v))?,
                Instr::Drop => {
                    self.arena.pop();
                }
                Instr::LoadLocal { offset, ty } => {
                    let addr = base.offset_by(offset).map_err(SimError::from)?;
                    let v = load_value(env, addr, ty, true)?;
                    self.arena.push(v)?;
                }
                Instr::StoreLocal { offset, ty } => {
                    let v = self.arena.pop();
                    let addr = base.offset_by(offset).map_err(SimError::from)?;
                    store_value(env, addr, ty, v, true)?;
                }
                Instr::AddrOfLocal { offset } => {
                    self.arena.push(Value::from_p(
                        base.offset_by(offset).map_err(SimError::from)?,
                    ))?;
                }
                Instr::AddrOfGlobal { offset } => {
                    self.arena.push(Value::from_p(
                        self.globals_base
                            .offset_by(offset)
                            .map_err(SimError::from)?,
                    ))?;
                }
                Instr::LoadMem { ty, penalty } => {
                    let ptr = self.arena.pop().as_p();
                    env.compute(u64::from(penalty));
                    let v = load_value(env, ptr, ty, in_frame(base, fbody.frame_size, ptr))?;
                    self.arena.push(v)?;
                }
                Instr::StoreMem { ty, penalty } => {
                    let v = self.arena.pop();
                    let ptr = self.arena.pop().as_p();
                    env.compute(u64::from(penalty));
                    store_value(env, ptr, ty, v, in_frame(base, fbody.frame_size, ptr))?;
                }
                Instr::CopyMem { size } => {
                    let src = self.arena.pop().as_p();
                    let dst = self.arena.pop().as_p();
                    let fsize = fbody.frame_size;
                    // Reuse one scratch buffer across CopyMem executions;
                    // take/restore keeps the buffer through error returns
                    // from the read/write pair.
                    let mut buf = std::mem::take(&mut self.copy_scratch);
                    buf.clear();
                    buf.resize(size as usize, 0);
                    let moved = env
                        .read(src, &mut buf, in_frame(base, fsize, src))
                        .and_then(|()| env.write(dst, &buf, in_frame(base, fsize, dst)));
                    self.copy_scratch = buf;
                    moved?;
                }
                Instr::PtrAddConst(delta) => {
                    let ptr = self.arena.pop().as_p();
                    let offset = (ptr.offset() as i64 + i64::from(delta)) as u32;
                    self.arena
                        .push(Value::from_p(Addr::new(ptr.space(), offset)))?;
                }
                Instr::PtrIndex { stride } => {
                    let index = self.arena.pop().as_i();
                    let ptr = self.arena.pop().as_p();
                    env.compute(cost.arith);
                    let offset =
                        (ptr.offset() as i64 + i64::from(index) * i64::from(stride)) as u32;
                    self.arena
                        .push(Value::from_p(Addr::new(ptr.space(), offset)))?;
                }
                Instr::AddI => {
                    let b = self.arena.pop().as_i();
                    let a = self.arena.pop().as_i();
                    self.arena.push(Value::from_i(a.wrapping_add(b)))?;
                }
                Instr::SubI => {
                    let b = self.arena.pop().as_i();
                    let a = self.arena.pop().as_i();
                    self.arena.push(Value::from_i(a.wrapping_sub(b)))?;
                }
                Instr::MulI => {
                    let b = self.arena.pop().as_i();
                    let a = self.arena.pop().as_i();
                    self.arena.push(Value::from_i(a.wrapping_mul(b)))?;
                }
                Instr::DivI | Instr::ModI => {
                    let b = self.arena.pop().as_i();
                    let a = self.arena.pop().as_i();
                    if b == 0 {
                        return Err(VmError::DivideByZero {
                            func: fbody.name.clone(),
                        });
                    }
                    let v = if matches!(instr, Instr::DivI) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    self.arena.push(Value::from_i(v))?;
                }
                Instr::NegI => {
                    let a = self.arena.pop().as_i();
                    self.arena.push(Value::from_i(a.wrapping_neg()))?;
                }
                Instr::AddF | Instr::SubF | Instr::MulF | Instr::DivF => {
                    let b = self.arena.pop().as_f();
                    let a = self.arena.pop().as_f();
                    let v = match instr {
                        Instr::AddF => a + b,
                        Instr::SubF => a - b,
                        Instr::MulF => a * b,
                        Instr::DivF => a / b,
                        _ => unreachable!(),
                    };
                    self.arena.push(Value::from_f(v))?;
                }
                Instr::NegF => {
                    let a = self.arena.pop().as_f();
                    self.arena.push(Value::from_f(-a))?;
                }
                Instr::CmpI(op) => {
                    // Pointer comparisons arrive here too: ints and
                    // pointers both keep their comparable payload in the
                    // low 32 bits, so no tag dispatch is needed.
                    let b = self.arena.pop().low_i32();
                    let a = self.arena.pop().low_i32();
                    self.arena.push(Value::from_b(cmp_i(op, a, b)))?;
                }
                Instr::CmpF(op) => {
                    let b = self.arena.pop().as_f();
                    let a = self.arena.pop().as_f();
                    self.arena.push(Value::from_b(cmp_f(op, a, b)))?;
                }
                Instr::NotB => {
                    let a = self.arena.pop().as_b();
                    self.arena.push(Value::from_b(!a))?;
                }
                Instr::I2F => {
                    let a = self.arena.pop().as_i();
                    self.arena.push(Value::from_f(a as f32))?;
                }
                Instr::F2I => {
                    let a = self.arena.pop().as_f();
                    self.arena.push(Value::from_i(a as i32))?;
                }
                Instr::Jump(target) => {
                    env.compute(cost.branch);
                    pc = target as usize;
                }
                Instr::JumpIfFalse(target) => {
                    env.compute(cost.branch);
                    if !self.arena.pop().as_b() {
                        pc = target as usize;
                    }
                }
                Instr::JumpIfTrue(target) => {
                    env.compute(cost.branch);
                    if self.arena.pop().as_b() {
                        pc = target as usize;
                    }
                }
                Instr::Call { func: callee } => {
                    let nparams = program.func(callee).params.len();
                    self.arena.push_record(func, pc, entry_top, base.offset())?;
                    let (b, nb, et) = enter!(callee, nparams);
                    func = callee;
                    fbody = b;
                    base = nb;
                    entry_top = et;
                    pc = 0;
                }
                Instr::CallVirtual {
                    slot, nargs, dup, ..
                } => {
                    // The compiler pushes receiver first, then arguments,
                    // so the stack tail is already the receiver-first
                    // parameter list the frame-entry path expects.
                    let argc = usize::from(nargs) + 1;
                    let split = self.arena.west - argc;
                    let recv_ptr = Value(self.arena.words[split]).as_p();

                    // Read the class-id header (costed by space).
                    let mut header = [0u8; 4];
                    env.read(
                        recv_ptr,
                        &mut header,
                        in_frame(base, fbody.frame_size, recv_ptr),
                    )?;
                    let class = u32::from_le_bytes(header) as usize;
                    env.compute(cost.vcall);
                    let host_fn = program.classes[class].vtable[usize::from(slot)];

                    let target = if env.space().is_main() {
                        host_fn
                    } else {
                        let d = domain.expect("accelerator code runs under a domain");
                        let vm_domain = &program.domains[d.0 as usize];
                        match vm_domain.lookup(host_fn, dup) {
                            Some((accel_fn, outer_probes, inner_probes)) => {
                                env.compute(
                                    cost.domain_lookup_base
                                        + cost.domain_outer_entry * u64::from(outer_probes)
                                        + cost.domain_inner_entry * u64::from(inner_probes),
                                );
                                accel_fn
                            }
                            None => {
                                env.compute(
                                    cost.domain_lookup_base
                                        + cost.domain_outer_entry * vm_domain.len() as u64,
                                );
                                return Err(VmError::DomainMiss {
                                    method: program.func(host_fn).name.clone(),
                                    dup,
                                    searched: vm_domain.len(),
                                });
                            }
                        }
                    };
                    self.arena.push_record(func, pc, entry_top, base.offset())?;
                    let (b, nb, et) = enter!(target, argc);
                    func = target;
                    fbody = b;
                    base = nb;
                    entry_top = et;
                    pc = 0;
                }
                Instr::Ret { has_value } => {
                    env.compute(cost.branch);
                    if fbody.returns_value && !has_value {
                        return Err(VmError::MissingReturn {
                            func: fbody.name.clone(),
                        });
                    }
                    let result = if has_value {
                        Some(self.arena.pop())
                    } else {
                        None
                    };
                    stack_top = entry_top;
                    if self.arena.east == east_floor {
                        return Ok(result);
                    }
                    let (pfunc, ppc, pentry, pbase) = self.arena.pop_record();
                    func = pfunc;
                    fbody = program.func(func);
                    pc = ppc;
                    entry_top = pentry;
                    base = Addr::new(stack_base.space(), pbase);
                    if let Some(v) = result {
                        self.arena.push(v)?;
                    }
                }
                Instr::NewObject { class, size } => {
                    env.compute(cost.arith * 4);
                    let addr = env.alloc(size, 16)?;
                    store_value(env, addr, ValType::I32, Value::from_i(class as i32), false)?;
                    self.arena.push(Value::from_p(addr))?;
                }
                Instr::Offload {
                    func: ofunc,
                    domain: odomain,
                } => {
                    let nparams = program.func(ofunc).params.len();
                    let split = self.arena.west - nparams;
                    // Move the captures out through the reusable scratch
                    // list: `self` must be lent to the launch whole, so
                    // the arguments can't stay borrowed from the arena.
                    let mut captures = std::mem::take(&mut self.arg_scratch);
                    captures.clear();
                    captures.extend(
                        self.arena.words[split..self.arena.west]
                            .iter()
                            .map(|&w| Value(w)),
                    );
                    self.arena.west = split;
                    let launched = env.exec_offload(self, ofunc, odomain, &captures);
                    self.arg_scratch = captures;
                    launched?;
                }
                Instr::OffloadAsync {
                    func: ofunc,
                    domain: odomain,
                    slot,
                } => {
                    let nparams = program.func(ofunc).params.len();
                    let split = self.arena.west - nparams;
                    let mut captures = std::mem::take(&mut self.arg_scratch);
                    captures.clear();
                    captures.extend(
                        self.arena.words[split..self.arena.west]
                            .iter()
                            .map(|&w| Value(w)),
                    );
                    self.arena.west = split;
                    let launched = env.exec_offload_async(self, ofunc, odomain, slot, &captures);
                    self.arg_scratch = captures;
                    launched?;
                }
                Instr::Join { slot } => {
                    env.exec_join(slot)?;
                }
                Instr::PrintI => {
                    let v = self.arena.pop().as_i();
                    self.output.push(v.to_string());
                }
                Instr::PrintF => {
                    let v = self.arena.pop().as_f();
                    self.output.push(format!("{v:.4}"));
                }

                // ---- superinstructions -------------------------------
                // Each handler charges exactly what the unfused run
                // charges (the loop header already charged one `arith`
                // and bumped `executed` once) and advances `pc` past the
                // dead padding. Fused runs only touch the operand stack
                // and the current frame — except for a trailing
                // `LoadMem`, which runs after every interior cycle has
                // been charged — so batching their `compute` calls is
                // unobservable: no event, DMA or clock read can occur
                // mid-run.
                Instr::LoadLocal2 {
                    off1,
                    ty1,
                    off2,
                    ty2,
                } => {
                    self.executed += 1;
                    env.compute(cost.arith);
                    let a1 = base.offset_by(off1).map_err(SimError::from)?;
                    let v1 = load_value(env, a1, ty1, true)?;
                    self.arena.push(v1)?;
                    let a2 = base.offset_by(off2).map_err(SimError::from)?;
                    let v2 = load_value(env, a2, ty2, true)?;
                    self.arena.push(v2)?;
                    pc += 1;
                }
                Instr::LoadLocal2OpI { a, b, op } => {
                    self.executed += 2;
                    env.compute(cost.arith * 2);
                    let va = load_value(
                        env,
                        base.offset_by(a).map_err(SimError::from)?,
                        ValType::I32,
                        true,
                    )?
                    .as_i();
                    let vb = load_value(
                        env,
                        base.offset_by(b).map_err(SimError::from)?,
                        ValType::I32,
                        true,
                    )?
                    .as_i();
                    self.arena.push(Value::from_i(apply_i(op, va, vb)))?;
                    pc += 2;
                }
                Instr::LoadLocal2OpF { a, b, op } => {
                    self.executed += 2;
                    env.compute(cost.arith * 2);
                    let va = load_value(
                        env,
                        base.offset_by(a).map_err(SimError::from)?,
                        ValType::F32,
                        true,
                    )?
                    .as_f();
                    let vb = load_value(
                        env,
                        base.offset_by(b).map_err(SimError::from)?,
                        ValType::F32,
                        true,
                    )?
                    .as_f();
                    self.arena.push(Value::from_f(apply_f(op, va, vb)))?;
                    pc += 2;
                }
                Instr::LoadLocalOpI { offset, op } => {
                    self.executed += 1;
                    env.compute(cost.arith);
                    let a = self.arena.pop().as_i();
                    let b = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::I32,
                        true,
                    )?
                    .as_i();
                    self.arena.push(Value::from_i(apply_i(op, a, b)))?;
                    pc += 1;
                }
                Instr::LoadLocalOpF { offset, op } => {
                    self.executed += 1;
                    env.compute(cost.arith);
                    let a = self.arena.pop().as_f();
                    let b = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::F32,
                        true,
                    )?
                    .as_f();
                    self.arena.push(Value::from_f(apply_f(op, a, b)))?;
                    pc += 1;
                }
                Instr::LoadLocalPtrAdd { offset, tag, delta } => {
                    self.executed += 1;
                    env.compute(cost.arith);
                    let p = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::Ptr(tag),
                        true,
                    )?
                    .as_p();
                    let off = (p.offset() as i64 + i64::from(delta)) as u32;
                    self.arena.push(Value::from_p(Addr::new(p.space(), off)))?;
                    pc += 1;
                }
                Instr::IncLocalI { offset, delta } => {
                    self.executed += 3;
                    env.compute(cost.arith * 3);
                    let addr = base.offset_by(offset).map_err(SimError::from)?;
                    let v = load_value(env, addr, ValType::I32, true)?.as_i();
                    store_value(
                        env,
                        addr,
                        ValType::I32,
                        Value::from_i(v.wrapping_add(delta)),
                        true,
                    )?;
                    pc += 3;
                }
                Instr::CmpIBr { op, target } => {
                    self.executed += 1;
                    env.compute(cost.arith + cost.branch);
                    let b = self.arena.pop().low_i32();
                    let a = self.arena.pop().low_i32();
                    if !cmp_i(op, a, b) {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instr::CmpFBr { op, target } => {
                    self.executed += 1;
                    env.compute(cost.arith + cost.branch);
                    let b = self.arena.pop().as_f();
                    let a = self.arena.pop().as_f();
                    if !cmp_f(op, a, b) {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instr::CmpLocalImmBr {
                    offset,
                    imm,
                    op,
                    target,
                } => {
                    self.executed += 3;
                    env.compute(cost.arith * 3 + cost.branch);
                    let v = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::I32,
                        true,
                    )?
                    .as_i();
                    if !cmp_i(op, v, imm) {
                        pc = target as usize;
                    } else {
                        pc += 3;
                    }
                }
                Instr::LoadGlobalMem {
                    offset,
                    ty,
                    penalty,
                } => {
                    let ptr = self
                        .globals_base
                        .offset_by(offset)
                        .map_err(SimError::from)?;
                    self.executed += 1;
                    env.compute(cost.arith + u64::from(penalty));
                    let v = load_value(env, ptr, ty, in_frame(base, fbody.frame_size, ptr))?;
                    self.arena.push(v)?;
                    pc += 1;
                }
                Instr::LoadLocalOpFStoreMem {
                    offset,
                    op,
                    penalty,
                } => {
                    let b = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::F32,
                        true,
                    )?
                    .as_f();
                    let a = self.arena.pop().as_f();
                    let v = Value::from_f(apply_f(op, a, b));
                    self.executed += 2;
                    env.compute(cost.arith * 2 + u64::from(penalty));
                    let ptr = self.arena.pop().as_p();
                    store_value(
                        env,
                        ptr,
                        ValType::F32,
                        v,
                        in_frame(base, fbody.frame_size, ptr),
                    )?;
                    pc += 2;
                }
                Instr::LoadLocalPtrAddMem {
                    offset,
                    tag,
                    delta,
                    ty,
                    penalty,
                } => {
                    let p = load_value(
                        env,
                        base.offset_by(offset).map_err(SimError::from)?,
                        ValType::Ptr(tag),
                        true,
                    )?
                    .as_p();
                    self.executed += 2;
                    env.compute(cost.arith * 2 + u64::from(penalty));
                    let off = (p.offset() as i64 + i64::from(delta)) as u32;
                    let ptr = Addr::new(p.space(), off);
                    let v = load_value(env, ptr, ty, in_frame(base, fbody.frame_size, ptr))?;
                    self.arena.push(v)?;
                    pc += 2;
                }
            }
        }
    }
}

#[inline(always)]
fn cmp_i(op: Cmp, a: i32, b: i32) -> bool {
    match op {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
    }
}

#[inline(always)]
fn cmp_f(op: Cmp, a: f32, b: f32) -> bool {
    match op {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_value_round_trips() {
        for v in [0i32, 1, -1, i32::MAX, i32::MIN, 123_456_789] {
            assert_eq!(Value::from_i(v).as_i(), v);
            assert_eq!(Value::from_i(v).low_i32(), v);
        }
        for v in [0.0f32, -0.0, 1.5, f32::MAX, f32::MIN_POSITIVE, -3.25] {
            assert_eq!(Value::from_f(v).as_f().to_bits(), v.to_bits());
        }
        let nan = Value::from_f(f32::NAN).as_f();
        assert!(nan.is_nan());
        assert!(Value::from_b(true).as_b());
        assert!(!Value::from_b(false).as_b());
        let p = Addr::new(SpaceId::local_store(3), 0xdead_beef);
        assert_eq!(Value::from_p(p).as_p(), p);
        assert_eq!(Value::from_p(p).low_i32(), 0xdead_beefu32 as i32);
    }

    #[test]
    fn value_tags_are_disjoint() {
        assert_eq!(Value::from_i(-1).tag(), Value::TAG_INT);
        assert_eq!(Value::from_f(-1.0).tag(), Value::TAG_FLOAT);
        assert_eq!(Value::from_b(true).tag(), Value::TAG_BOOL);
        assert_eq!(
            Value::from_p(Addr::new(SpaceId::MAIN, u32::MAX)).tag(),
            Value::TAG_PTR
        );
    }

    #[test]
    fn arena_two_stacks_meet_gracefully() {
        let mut arena = FrameArena::new();
        for i in 0..ARENA_WORDS {
            arena.push(Value::from_i(i as i32)).expect("fits");
        }
        assert!(matches!(
            arena.push(Value::from_i(0)),
            Err(VmError::StackOverflow)
        ));
        assert!(matches!(
            arena.push_record(FuncId(0), 0, 0, 0),
            Err(VmError::StackOverflow)
        ));
        for i in (0..ARENA_WORDS).rev() {
            assert_eq!(arena.pop().as_i(), i as i32);
        }
    }

    #[test]
    fn arena_records_round_trip() {
        let mut arena = FrameArena::new();
        arena.push_record(FuncId(7), 42, 160, 96).unwrap();
        arena.push_record(FuncId(9), 1, 0, 0).unwrap();
        assert_eq!(arena.pop_record(), (FuncId(9), 1, 0, 0));
        assert_eq!(arena.pop_record(), (FuncId(7), 42, 160, 96));
        assert_eq!(arena.east, ARENA_WORDS);
    }
}

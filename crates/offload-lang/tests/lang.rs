//! End-to-end tests of the Offload/Mini compiler and VM: language
//! semantics, memory-space typing, dispatch domains, duplication, word
//! addressing, and cost behaviour on the simulated machine.

use std::time::{Duration, Instant};

use offload_lang::{compile, CompileError, ErrorKind, Target, Vm, VmError};
use simcell::{Machine, MachineConfig, SimError};
use softcache::{CacheChoice, CacheConfig};

fn run_cell(source: &str) -> (i32, Vec<String>) {
    run_with(source, &Target::cell_like(), CacheChoice::Naive)
}

fn run_with(source: &str, target: &Target, choice: CacheChoice) -> (i32, Vec<String>) {
    let program = compile(source, target)
        .map_err(|e| panic!("compile error: {}", e.render(source)))
        .unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    vm.set_cache(choice);
    let exit = vm
        .run(&mut machine)
        .map_err(|e| panic!("runtime error: {e}"))
        .unwrap();
    (exit, vm.output().to_vec())
}

/// Runs and also returns the host cycle count. Uses the full default
/// machine (six accelerators) so asynchronous offloads can overlap.
fn run_timed(source: &str, choice: CacheChoice) -> (i32, u64) {
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    vm.set_cache(choice);
    let exit = vm.run(&mut machine).unwrap();
    (exit, machine.host_now())
}

fn compile_err(source: &str, target: &Target) -> CompileError {
    match compile(source, target) {
        Ok(_) => panic!("expected a compile error"),
        Err(e) => e,
    }
}

// ---------------------------------------------------------------- basics

#[test]
fn arithmetic_and_control_flow() {
    let (exit, _) = run_cell(
        r#"
        fn main() -> int {
            let acc: int = 0;
            let i: int = 1;
            while i <= 10 {
                if i % 2 == 0 {
                    acc = acc + i * i;
                } else {
                    acc = acc - i;
                }
                i = i + 1;
            }
            return acc;
        }
        "#,
    );
    // even squares 4+16+36+64+100 = 220; odds 1+3+5+7+9 = 25.
    assert_eq!(exit, 195);
}

#[test]
fn floats_and_conversions() {
    let (exit, output) = run_cell(
        r#"
        fn main() -> int {
            let x: float = 2.5;
            let y: float = x * 4.0 - 1.0;   // 9.0
            print_float(y);
            let one: float = int_to_float(3) / 3.0;
            if one == 1.0 && !(y < 0.0) {
                return float_to_int(y);
            }
            return -1;
        }
        "#,
    );
    assert_eq!(exit, 9);
    assert_eq!(output, vec!["9.0000".to_string()]);
}

#[test]
fn float_print_format() {
    let (exit, output) = run_cell(
        r#"
        fn main() -> int {
            print_float(1.5);
            print_int(42);
            return 0;
        }
        "#,
    );
    assert_eq!(exit, 0);
    assert_eq!(output, vec!["1.5000".to_string(), "42".to_string()]);
}

#[test]
fn functions_and_recursion() {
    let (exit, _) = run_cell(
        r#"
        fn fib(n: int) -> int {
            if n < 2 { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() -> int { return fib(10); }
        "#,
    );
    assert_eq!(exit, 55);
}

#[test]
fn pointers_and_out_parameters() {
    let (exit, _) = run_cell(
        r#"
        fn add_into(a: int, b: int, out: int*) { *out = a + b; }
        fn main() -> int {
            let r: int = 0;
            add_into(19, 23, &r);
            return r;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn globals_structs_and_arrays() {
    let (exit, _) = run_cell(
        r#"
        struct Vec3 { x: float; y: float; z: float; }
        var position: Vec3;
        var table: [int; 8];
        fn main() -> int {
            position.x = 1.5;
            position.y = position.x + 0.5;
            let i: int = 0;
            while i < 8 { table[i] = i * 3; i = i + 1; }
            return table[7] + float_to_int(position.y);
        }
        "#,
    );
    assert_eq!(exit, 23);
}

#[test]
fn struct_copy_assignment() {
    let (exit, _) = run_cell(
        r#"
        struct Pair { a: int; b: int; }
        var x: Pair;
        var y: Pair;
        fn main() -> int {
            x.a = 7; x.b = 35;
            y = x;
            return y.a + y.b;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn chars_are_subword_scalars() {
    let (exit, _) = run_cell(
        r#"
        struct Packed { a: char; b: char; c: char; d: char; }
        var p: Packed;
        fn main() -> int {
            p.a = 65;
            p.b = p.a;
            p.c = 200;
            return p.b + p.c;   // 65 + 200 (char widens to int)
        }
        "#,
    );
    assert_eq!(exit, 265);
}

#[test]
fn classes_and_host_virtual_dispatch() {
    let (exit, _) = run_cell(
        r#"
        class Shape {
            side: int;
            virtual fn area(unused: int) -> int { return 0; }
        }
        class Square : Shape {
            override fn area(unused: int) -> int { return self.side * self.side; }
        }
        class Cube : Square {
            override fn area(unused: int) -> int { return self.side * self.side * 6; }
        }
        var s: Shape*;
        fn main() -> int {
            s = new Square;
            s.side = 4;
            let a: int = s.area(0);    // 16
            s = new Cube;
            s.side = 2;
            return a + s.area(0);      // 16 + 24
        }
        "#,
    );
    assert_eq!(exit, 40);
}

#[test]
fn static_methods_dispatch_directly() {
    let (exit, _) = run_cell(
        r#"
        class Counter {
            n: int;
            fn bump(by: int) -> int { self.n = self.n + by; return self.n; }
        }
        var c: Counter*;
        fn main() -> int {
            c = new Counter;
            c.bump(10);
            return c.bump(32);
        }
        "#,
    );
    assert_eq!(exit, 42);
}

// ---------------------------------------------------------------- offload

#[test]
fn offload_reads_and_writes_globals() {
    let (exit, _) = run_cell(
        r#"
        var counter: int;
        fn main() -> int {
            counter = 20;
            offload { counter = counter + 22; }
            return counter;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn mode_annotated_offload_matches_unannotated_result() {
    let plain = r#"
        var table: [int; 8];
        var result: int;
        fn main() -> int {
            let i: int = 0;
            while i < 8 { table[i] = i * 3; i = i + 1; }
            offload {
                let acc: int = 0;
                let j: int = 0;
                while j < 8 { acc = acc + table[j]; j = j + 1; }
                result = acc;
            }
            return result;
        }
        "#;
    let annotated = plain.replace("offload {", "offload reads(table) writes(result) {");
    assert_eq!(run_cell(plain), run_cell(&annotated));
}

#[test]
fn updates_clause_allows_read_modify_write() {
    let (exit, _) = run_cell(
        r#"
        var counter: int;
        fn main() -> int {
            counter = 20;
            offload updates(counter) { counter = counter + 22; }
            return counter;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn mode_clauses_compose_with_handle_use_and_domain() {
    let (exit, _) = run_cell(
        r#"
        class Op {
            bias: int;
            virtual fn apply(x: int) -> int { return x; }
        }
        class AddBias : Op {
            override fn apply(x: int) -> int { return x + self.bias; }
        }
        var op: Op*;
        var result: int;
        fn main() -> int {
            op = new AddBias;
            op.bias = 40;
            let seed: int = 2;
            offload h use(seed) domain(Op.apply, AddBias.apply) writes(result) {
                result = op.apply(seed);
            }
            join h;
            return result;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn write_into_reads_declared_global_is_rejected() {
    let source = r#"
        var counter: int;
        fn main() -> int {
            counter = 20;
            offload reads(counter) { counter = counter + 22; }
            return counter;
        }
        "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    match vm.run(&mut machine) {
        Err(VmError::Sim(simcell::SimError::UndeclaredWrite { declared, .. })) => {
            assert_eq!(declared, Some(simcell::AccessMode::Read));
        }
        other => panic!("expected an undeclared-write rejection, got {other:?}"),
    }
}

#[test]
fn write_outside_all_declared_ranges_is_rejected() {
    // Declaring *any* mode makes the contract strict: a store to an
    // undeclared global must be rejected, not silently journaled.
    let source = r#"
        var a: int;
        var b: int;
        fn main() -> int {
            offload reads(a) { b = a + 1; }
            return b;
        }
        "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    match vm.run(&mut machine) {
        Err(VmError::Sim(simcell::SimError::UndeclaredWrite { declared, .. })) => {
            assert_eq!(declared, None);
        }
        other => panic!("expected an undeclared-write rejection, got {other:?}"),
    }
}

#[test]
fn mode_clause_must_name_a_global() {
    let err = compile_err(
        r#"
        fn main() -> int {
            let local: int = 1;
            offload reads(local) { }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Resolve);
    assert!(err.message.contains("global"), "{}", err.message);
}

#[test]
fn offload_local_data_is_scratchpad_allocated() {
    let (exit, _) = run_cell(
        r#"
        var result: int;
        fn main() -> int {
            offload {
                let scratch: [int; 32] = ;
                let i: int = 0;
                while i < 32 { scratch[i] = i; i = i + 1; }
                let acc: int = 0;
                i = 0;
                while i < 32 { acc = acc + scratch[i]; i = i + 1; }
                result = acc;
            }
            return result;
        }
        "#
        .replace("= ;", ";")
        .as_str(),
    );
    assert_eq!(exit, 496);
}

#[test]
fn offloaded_virtual_dispatch_through_domain() {
    let (exit, _) = run_cell(
        r#"
        class Entity {
            hp: float;
            virtual fn tick(d: float) { self.hp = self.hp - d; }
        }
        class Enemy : Entity {
            override fn tick(d: float) { self.hp = self.hp - d - d; }
        }
        var e: Entity*;
        var f: Entity*;
        fn main() -> int {
            e = new Enemy;
            f = new Entity;
            e.hp = 10.0;
            f.hp = 10.0;
            offload domain(Entity.tick, Enemy.tick) {
                e.tick(1.0);
                f.tick(1.0);
            }
            return float_to_int(e.hp * 10.0 + f.hp);  // 8.0*10 + 9.0
        }
        "#,
    );
    assert_eq!(exit, 89);
}

#[test]
fn domain_miss_raises_the_informative_exception() {
    let source = r#"
        class Entity {
            hp: float;
            virtual fn tick(d: float) { self.hp = self.hp - d; }
        }
        var e: Entity*;
        fn main() -> int {
            e = new Entity;
            offload { e.tick(1.0); }   // BUG: no domain annotation
            return 0;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    let err = vm.run(&mut machine).unwrap_err();
    match &err {
        VmError::DomainMiss { method, .. } => {
            assert!(method.contains("tick"), "names the method: {method}");
        }
        other => panic!("expected DomainMiss, got {other}"),
    }
    let text = err.to_string();
    assert!(text.contains("domain(...) annotation"), "{text}");
}

#[test]
fn function_duplication_per_memory_space_signature() {
    let source = r#"
        fn bump(p: int*) -> int { *p = *p + 1; return *p; }
        var g: int;
        fn main() -> int {
            let x: int = 0;
            let r: int = bump(&x);      // host variant
            offload {
                let y: int = 5;
                let a: int = bump(&y);  // accelerator, local pointer
                let b: int = bump(&g);  // accelerator, outer pointer
                g = a + b;
            }
            return g + r;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    assert_eq!(
        program.stats.duplicates.get("bump"),
        Some(&3),
        "host + local + outer duplicates: {:?}",
        program.stats.duplicates
    );

    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert_eq!(vm.run(&mut machine).unwrap(), 8);
}

#[test]
fn offload_stats_are_recorded() {
    let source = r#"
        class A { x: int; virtual fn go(k: int) { self.x = k; } }
        var a: A*;
        fn main() -> int {
            a = new A;
            offload domain(A.go) { a.go(1); }
            offload { }
            return a.x;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    assert_eq!(program.stats.offload_blocks, 2);
    assert_eq!(program.stats.domain_sizes, vec![1, 0]);
}

// -------------------------------------------------- memory-space typing

#[test]
fn cross_space_pointer_assignment_is_rejected() {
    let err = compile_err(
        r#"
        var g: int;
        fn main() -> int {
            offload {
                let x: int = 1;
                let p: int* = &x;   // local pointer
                p = &g;             // outer pointer: different space
            }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::MemorySpace);
    assert!(err.message.contains("memory space"), "{}", err.message);
}

#[test]
fn cross_space_pointer_comparison_is_rejected() {
    let err = compile_err(
        r#"
        var g: int;
        fn main() -> int {
            offload {
                let x: int = 1;
                let same: bool = &x == &g;
            }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::MemorySpace);
}

#[test]
fn uninitialised_pointers_are_rejected() {
    let err = compile_err(
        r#"
        fn main() -> int {
            let p: int*;
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::MemorySpace);
    assert!(err.message.contains("initialised"));
}

#[test]
fn host_locals_are_not_visible_in_offload_blocks() {
    let err = compile_err(
        r#"
        fn main() -> int {
            let x: int = 1;
            offload { x = 2; }
            return x;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Offload);
    assert!(err.message.contains("global"), "{}", err.message);
    assert!(err.message.contains("use(x)"), "{}", err.message);
}

#[test]
fn nested_offload_is_rejected() {
    let err = compile_err(
        r#"
        fn main() -> int {
            offload { offload { } }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Offload);
}

#[test]
fn type_errors_are_reported() {
    let err = compile_err(
        "fn main() -> int { let x: int = true; return x; }",
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Type);

    let err = compile_err("fn main() -> int { return 1 + 2.0; }", &Target::cell_like());
    assert_eq!(err.kind, ErrorKind::Type);
    assert!(err.message.contains("int_to_float"));
}

#[test]
fn resolution_errors_are_reported() {
    let err = compile_err("fn main() -> int { return foo(); }", &Target::cell_like());
    assert_eq!(err.kind, ErrorKind::Resolve);

    let err = compile_err(
        "fn f() { } fn f() { } fn main() -> int { return 0; }",
        &Target::cell_like(),
    );
    assert!(err.message.contains("twice"));

    let err = compile_err("fn nomain() { }", &Target::cell_like());
    assert!(err.message.contains("main"));
}

#[test]
fn override_signature_mismatch_is_rejected() {
    let err = compile_err(
        r#"
        class A { virtual fn f(x: int) { } }
        class B : A { override fn f(x: float) { } }
        fn main() -> int { return 0; }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Type);
    assert!(err.message.contains("signature"));
}

#[test]
fn returning_pointers_is_rejected_with_guidance() {
    let err = compile_err(
        "fn f() -> int* { }\nfn main() -> int { return 0; }",
        &Target::cell_like(),
    );
    assert!(err.message.contains("out-parameter"));
}

// ------------------------------------------------------- word addressing

#[test]
fn word_target_accepts_constant_subword_field_access() {
    // The paper's `p->a = p->b` example for a struct of chars.
    let (exit, _) = run_with(
        r#"
        struct T { a: char; b: char; c: char; d: char; }
        var t: T;
        fn main() -> int {
            t.b = 42;
            let p: T* = &t;
            p.a = p.b;
            return t.a;
        }
        "#,
        &Target::word_addressed(4),
        CacheChoice::Naive,
    );
    assert_eq!(exit, 42);
}

#[test]
fn word_target_rejects_variable_byte_indexing() {
    // The paper's `*string++ = (char)i` loop.
    let err = compile_err(
        r#"
        var s: [char; 16];
        fn main() -> int {
            let i: int = 0;
            while i < 16 {
                s[i] = 65;
                i = i + 1;
            }
            return 0;
        }
        "#,
        &Target::word_addressed(4),
    );
    assert_eq!(err.kind, ErrorKind::WordAddressing);
    assert!(err.message.contains("restructure"), "{}", err.message);
}

#[test]
fn word_target_accepts_word_stride_indexing() {
    let (exit, _) = run_with(
        r#"
        var a: [int; 16];
        fn main() -> int {
            let i: int = 0;
            while i < 16 {
                a[i] = i;          // stride 4 == word size: fine
                i = i + 1;
            }
            return a[15];
        }
        "#,
        &Target::word_addressed(4),
        CacheChoice::Naive,
    );
    assert_eq!(exit, 15);
}

#[test]
fn word_target_pointer_arithmetic_rules() {
    // `char* q = p + 4` legal (whole word), `p + 1` illegal for a
    // word-addressed destination, legal for a byte-addressed one.
    let legal_word = r#"
        var s: [char; 16];
        fn main() -> int {
            let p: char* = &s[0];
            let q: char* = p + 4;
            *q = 7;
            return s[4];
        }
    "#;
    let (exit, _) = run_with(legal_word, &Target::word_addressed(4), CacheChoice::Naive);
    assert_eq!(exit, 7);

    let illegal = r#"
        var s: [char; 16];
        fn main() -> int {
            let p: char* = &s[0];
            let q: char* = p + 1;
            return 0;
        }
    "#;
    let err = compile_err(illegal, &Target::word_addressed(4));
    assert_eq!(err.kind, ErrorKind::WordAddressing);
    assert!(err.message.contains("byte*"), "{}", err.message);

    let legal_byte = r#"
        var s: [char; 16];
        fn main() -> int {
            let p: char* = &s[0];
            let q: char byte* = p + 1;
            *q = 9;
            return s[1];
        }
    "#;
    let (exit, _) = run_with(legal_byte, &Target::word_addressed(4), CacheChoice::Naive);
    assert_eq!(exit, 9);
}

#[test]
fn variable_byte_arithmetic_on_word_target_is_rejected_even_via_byte_ptr() {
    // The paper: adding an integer *variable* to a pointer produces a
    // variable byte-pointer — always a compile error under the hybrid.
    let err = compile_err(
        r#"
        var s: [char; 16];
        fn main() -> int {
            let x: int = 3;
            let p: char* = &s[0];
            let q: char byte* = p + x;
            return 0;
        }
        "#,
        &Target::word_addressed(4),
    );
    assert_eq!(err.kind, ErrorKind::WordAddressing);
}

#[test]
fn byte_emulation_accepts_everything_but_costs_more() {
    let source = r#"
        var s: [char; 64];
        var sum: int;
        fn main() -> int {
            let i: int = 0;
            while i < 64 {
                s[i] = i;
                i = i + 1;
            }
            i = 0;
            while i < 64 {
                sum = sum + s[i];
                i = i + 1;
            }
            return sum;
        }
    "#;
    // Hybrid rejects it…
    let err = compile_err(source, &Target::word_addressed(4));
    assert_eq!(err.kind, ErrorKind::WordAddressing);

    // …byte emulation runs it, but slower than a plain byte-addressed
    // target.
    let emulated = Target::word_addressed(4).with_strategy(offload_lang::WordStrategy::ByteEmulate);
    let program = compile(source, &emulated).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert_eq!(vm.run(&mut machine).unwrap(), 2016);
    let emulated_cycles = machine.host_now();

    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert_eq!(vm.run(&mut machine).unwrap(), 2016);
    let native_cycles = machine.host_now();

    assert!(
        emulated_cycles > native_cycles,
        "byte emulation must pay: {emulated_cycles} vs {native_cycles}"
    );
}

// ------------------------------------------------------------ cost shapes

#[test]
fn software_cache_beats_naive_outer_access() {
    let source = r#"
        var data: [int; 256];
        var sum: int;
        fn main() -> int {
            let i: int = 0;
            while i < 256 { data[i] = i; i = i + 1; }
            offload {
                let j: int = 0;
                let acc: int = 0;
                while j < 256 { acc = acc + data[j]; j = j + 1; }
                sum = acc;
            }
            return sum;
        }
    "#;
    let (exit_naive, naive) = run_timed(source, CacheChoice::Naive);
    let (exit_cached, cached) = run_timed(
        source,
        CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()),
    );
    assert_eq!(exit_naive, 32640);
    assert_eq!(exit_cached, 32640);
    assert!(
        cached * 3 < naive,
        "the software cache should win >3x on a sequential scan: {cached} vs {naive}"
    );
}

/// A cache the local stores cannot hold (512 KiB) is refused before
/// the program runs: no instruction, launch overhead, offload or event
/// is charged.
#[test]
fn oversized_cache_is_refused_before_anything_runs() {
    let source = r#"
        var total: int;
        fn main() -> int {
            total = 2;
            offload { total = total + 40; }
            return total;
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(true);
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    vm.set_cache(CacheChoice::SetAssoc(CacheConfig::new(128, 4096, 1)));
    let before = machine.snapshot();
    let t0 = Instant::now();
    let result = vm.run(&mut machine);
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert!(
        matches!(result, Err(VmError::Sim(SimError::Cache(_)))),
        "{result:?}"
    );
    machine
        .snapshot()
        .diff(&before)
        .unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(vm.instructions_executed(), 0);
}

#[test]
fn local_scratch_is_much_cheaper_than_outer_access() {
    // The same loop over local-store data vs outer data.
    let local = r#"
        var out: int;
        fn main() -> int {
            offload {
                let a: [int; 64] = ;
                let i: int = 0;
                while i < 64 { a[i] = i; i = i + 1; }
                let acc: int = 0;
                i = 0;
                while i < 64 { acc = acc + a[i]; i = i + 1; }
                out = acc;
            }
            return out;
        }
    "#
    .replace("= ;", ";");
    let outer = r#"
        var a: [int; 64];
        var out: int;
        fn main() -> int {
            offload {
                let i: int = 0;
                while i < 64 { a[i] = i; i = i + 1; }
                let acc: int = 0;
                i = 0;
                while i < 64 { acc = acc + a[i]; i = i + 1; }
                out = acc;
            }
            return out;
        }
    "#;
    let (e1, t_local) = run_timed(&local, CacheChoice::Naive);
    let (e2, t_outer) = run_timed(outer, CacheChoice::Naive);
    assert_eq!(e1, 2016);
    assert_eq!(e2, 2016);
    assert!(
        t_local * 10 < t_outer,
        "scratch-pad locality should dominate: {t_local} vs {t_outer}"
    );
}

// ------------------------------------------------------------- VM guards

#[test]
fn division_by_zero_is_trapped() {
    let program = compile(
        "fn main() -> int { let z: int = 0; return 1 / z; }",
        &Target::cell_like(),
    )
    .unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert!(matches!(
        vm.run(&mut machine),
        Err(VmError::DivideByZero { .. })
    ));
}

#[test]
fn runaway_recursion_overflows_the_stack() {
    let program = compile(
        "fn f(n: int) -> int { return f(n + 1); } fn main() -> int { return f(0); }",
        &Target::cell_like(),
    )
    .unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert!(matches!(vm.run(&mut machine), Err(VmError::StackOverflow)));
}

#[test]
fn infinite_loops_run_out_of_fuel() {
    let program = compile(
        "fn main() -> int { while true { } return 0; }",
        &Target::cell_like(),
    )
    .unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    vm.set_fuel(10_000);
    assert!(matches!(vm.run(&mut machine), Err(VmError::OutOfFuel)));
}

#[test]
fn missing_return_is_trapped() {
    let program = compile(
        "fn f(c: bool) -> int { if c { return 1; } } fn main() -> int { return f(false); }",
        &Target::cell_like(),
    )
    .unwrap();
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert!(matches!(
        vm.run(&mut machine),
        Err(VmError::MissingReturn { .. })
    ));
}

#[test]
fn compile_error_rendering_points_at_source() {
    let source = "fn main() -> int { let x: int = true; return x; }";
    let err = compile(source, &Target::cell_like()).unwrap_err();
    let rendered = err.render(source);
    assert!(rendered.contains("1:"));
    assert!(rendered.contains('^'));
}

// ------------------------------------------------- async offload handles

#[test]
fn named_offloads_run_and_join() {
    // The paper's Figure 2 shape, in the language.
    let (exit, _) = run_cell(
        r#"
        var a: int;
        var b: int;
        fn main() -> int {
            offload h1 { a = 30; }
            offload h2 { b = 12; }
            join h1;
            join h2;
            return a + b;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn async_offloads_overlap_on_different_accelerators() {
    let spin = |name: &str, global: &str| {
        format!(
            r#"offload {name} {{
                let i: int = 0;
                let acc: int = 0;
                while i < 2000 {{ acc = acc + i; i = i + 1; }}
                {global} = acc;
            }}"#
        )
    };
    let sequential = "var a: int; var b: int;\nfn main() -> int {\n  offload { let i: int = 0; let acc: int = 0; while i < 2000 { acc = acc + i; i = i + 1; } a = acc; }\n  offload { let i: int = 0; let acc: int = 0; while i < 2000 { acc = acc + i; i = i + 1; } b = acc; }\n  return a - b;\n}".to_string();
    let parallel = format!(
        "var a: int; var b: int;\nfn main() -> int {{\n  {}\n  {}\n  join h1;\n  join h2;\n  return a - b;\n}}",
        spin("h1", "a"),
        spin("h2", "b"),
    );
    let (exit_seq, t_seq) = run_timed(&sequential, CacheChoice::Naive);
    let (exit_par, t_par) = run_timed(&parallel, CacheChoice::Naive);
    assert_eq!(exit_seq, 0);
    assert_eq!(exit_par, 0);
    assert!(
        (t_par as f64) < 0.7 * t_seq as f64,
        "named offloads overlap on different accelerators: {t_par} vs {t_seq}"
    );
}

#[test]
fn host_work_overlaps_an_async_offload() {
    // Host computes between fork and join: total ≈ max, not sum.
    let source = r#"
        var accel_sum: int;
        var host_sum: int;
        fn main() -> int {
            offload h {
                let i: int = 0;
                let acc: int = 0;
                while i < 1000 { acc = acc + i; i = i + 1; }
                accel_sum = acc;
            }
            let j: int = 0;
            let acc: int = 0;
            while j < 1000 { acc = acc + j; j = j + 1; }
            host_sum = acc;
            join h;
            return accel_sum - host_sum;
        }
    "#;
    let blocking = r#"
        var accel_sum: int;
        var host_sum: int;
        fn main() -> int {
            offload {
                let i: int = 0;
                let acc: int = 0;
                while i < 1000 { acc = acc + i; i = i + 1; }
                accel_sum = acc;
            }
            let j: int = 0;
            let acc: int = 0;
            while j < 1000 { acc = acc + j; j = j + 1; }
            host_sum = acc;
            return accel_sum - host_sum;
        }
    "#;
    let (exit_a, t_async) = run_timed(source, CacheChoice::Naive);
    let (exit_b, t_block) = run_timed(blocking, CacheChoice::Naive);
    assert_eq!(exit_a, 0);
    assert_eq!(exit_b, 0);
    assert!(
        t_async < t_block,
        "host work hides behind the async offload: {t_async} vs {t_block}"
    );
}

#[test]
fn joining_twice_is_a_runtime_error() {
    let program = compile(
        r#"
        var a: int;
        fn main() -> int {
            offload h { a = 1; }
            join h;
            join h;
            return a;
        }
        "#,
        &Target::cell_like(),
    )
    .unwrap();
    let mut machine = Machine::new(MachineConfig::default()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    let err = vm.run(&mut machine).unwrap_err();
    assert!(matches!(err, VmError::InvalidJoin { .. }), "{err}");
}

#[test]
fn joining_an_unknown_handle_is_a_compile_error() {
    let err = compile_err(
        "fn main() -> int { join nope; return 0; }",
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Resolve);
    assert!(err.message.contains("nope"));
}

#[test]
fn join_inside_an_offload_is_rejected() {
    let err = compile_err(
        r#"
        var a: int;
        fn main() -> int {
            offload h { a = 1; }
            offload { join h; }
            join h;
            return a;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Offload);
}

#[test]
fn unjoined_handles_are_drained_at_exit() {
    // The offload's effects are still observed: main's return reads the
    // global only after the implicit drain… which happens after main
    // returns, so the *exit value* sees the pre-offload value, but the
    // run completes without error (fire-and-forget).
    let (exit, _) = run_cell(
        r#"
        var a: int;
        fn main() -> int {
            a = 7;
            offload h { a = 99; }
            join h;
            return a;
        }
        "#,
    );
    assert_eq!(exit, 99);

    let (exit, _) = run_cell(
        r#"
        var a: int;
        fn main() -> int {
            a = 7;
            offload h { a = 99; }
            return 1;   // never joined explicitly; drained at exit
        }
        "#,
    );
    assert_eq!(exit, 1);
}

#[test]
fn vector_addressed_target_rejects_even_int_strides() {
    // On a PS2-VU-like 16-byte-unit target, even `int` (4-byte) strides
    // are sub-word: the same loop that is fine at W=4 is rejected at
    // W=16, and stride-16 structs pass.
    let int_loop = r#"
        var a: [int; 16];
        fn main() -> int {
            let i: int = 0;
            while i < 16 { a[i] = i; i = i + 1; }
            return a[15];
        }
    "#;
    assert!(compile(int_loop, &Target::word_addressed(4)).is_ok());
    let err = compile_err(int_loop, &Target::word_addressed(16));
    assert_eq!(err.kind, ErrorKind::WordAddressing);

    let vec4_loop = r#"
        struct Vec4 { x: float; y: float; z: float; w: float; }
        var a: [Vec4; 16];
        fn main() -> int {
            let i: int = 0;
            while i < 16 { a[i].x = 1.0; i = i + 1; }
            return 0;
        }
    "#;
    assert!(
        compile(vec4_loop, &Target::word_addressed(16)).is_ok(),
        "16-byte-stride element access is whole-unit"
    );
}

#[test]
fn methods_calling_methods_duplicate_transitively() {
    // Call-graph duplication follows method-to-function edges.
    let source = r#"
        fn helper(p: float*) -> float { return *p * 2.0; }
        class Body {
            mass: float;
            virtual fn weigh(g: float) -> float {
                return helper(&self.mass) * g;
            }
        }
        var b: Body*;
        var result: float;
        fn main() -> int {
            b = new Body;
            b.mass = 3.0;
            offload domain(Body.weigh) {
                result = b.weigh(10.0);
            }
            return float_to_int(result);
        }
    "#;
    let program = compile(source, &Target::cell_like()).unwrap();
    // helper: host variant + the accelerator variant reached through the
    // offloaded method (whose self is outer, so &self.mass is outer).
    assert_eq!(program.stats.duplicates.get("helper"), Some(&2));
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    let mut vm = Vm::new(&program, &mut machine).unwrap();
    assert_eq!(vm.run(&mut machine).unwrap(), 60);
}

#[test]
fn deep_call_chains_work_across_the_offload_boundary() {
    let (exit, _) = run_cell(
        r#"
        fn f3(x: int) -> int { return x + 1; }
        fn f2(x: int) -> int { return f3(x) * 2; }
        fn f1(x: int) -> int { return f2(x) + f3(x); }
        var out: int;
        fn main() -> int {
            offload { out = f1(5); }
            return out + f1(5);
        }
        "#,
    );
    // f1(5) = f2(5)+f3(5) = 12+6 = 18; 18+18 = 36.
    assert_eq!(exit, 36);
}

// ------------------------------------------------------ offload captures

#[test]
fn offload_blocks_capture_host_locals_by_value() {
    // The paper: "some additional syntax is used to pass parameters to
    // the block" — Offload/Mini spells it `use(...)`.
    let (exit, _) = run_cell(
        r#"
        var out: int;
        fn main() -> int {
            let base: int = 30;
            let scale: int = 4;
            offload use(base, scale) {
                out = base * scale / 10 * 2 + base / 2 + scale - 1;
            }
            return out;   // 30*4/10*2 + 15 + 3 = 24+15+3
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn captured_pointers_become_outer_pointers() {
    // A host pointer captured by value points into outer memory: the
    // block dereferences it through DMA, and assigning it to a local
    // pointer is a memory-space error.
    let (exit, _) = run_cell(
        r#"
        var g: int;
        fn main() -> int {
            g = 40;
            let p: int* = &g;
            offload use(p) {
                *p = *p + 2;
            }
            return g;
        }
        "#,
    );
    assert_eq!(exit, 42);

    let err = compile_err(
        r#"
        var g: int;
        fn main() -> int {
            let p: int* = &g;
            offload use(p) {
                let x: int = 0;
                let q: int* = &x;
                q = p;          // outer into local: rejected
            }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::MemorySpace);
}

#[test]
fn captures_work_with_async_handles_and_domains() {
    let (exit, _) = run_cell(
        r#"
        class Acc {
            total: int;
            virtual fn add(k: int) { self.total = self.total + k; }
        }
        var acc: Acc*;
        fn main() -> int {
            acc = new Acc;
            let step: int = 21;
            offload h use(step) domain(Acc.add) {
                acc.add(step);
                acc.add(step);
            }
            join h;
            return acc.total;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

#[test]
fn capturing_unknown_or_aggregate_locals_is_rejected() {
    let err = compile_err(
        "fn main() -> int { offload use(nope) { } return 0; }",
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Resolve);

    let err = compile_err(
        r#"
        struct Big { a: int; b: int; }
        fn main() -> int {
            let v: Big;
            offload use(v) { }
            return 0;
        }
        "#,
        &Target::cell_like(),
    );
    assert_eq!(err.kind, ErrorKind::Offload);
    assert!(err.message.contains("pointer"), "{}", err.message);
}

#[test]
fn captures_are_copies_not_references() {
    let (exit, _) = run_cell(
        r#"
        var out: int;
        fn main() -> int {
            let x: int = 10;
            offload use(x) {
                x = 99;        // mutates the block's copy only
                out = x;
            }
            return x + out;    // 10 + 99
        }
        "#,
    );
    assert_eq!(exit, 109);
}

#[test]
fn nested_pointers_track_spaces_through_double_deref() {
    let (exit, _) = run_cell(
        r#"
        var g: int;
        var gp: int*;
        fn main() -> int {
            g = 5;
            gp = &g;
            offload {
                let pp: int** = &gp;    // outer pointer to an outer pointer
                let v: int = **pp;      // two dependent outer loads
                g = v + 1;
            }
            return g;
        }
        "#,
    );
    assert_eq!(exit, 6);
}

#[test]
fn rebinding_a_live_handle_implicitly_joins_the_old_offload() {
    let (exit, _) = run_cell(
        r#"
        var a: int;
        var b: int;
        fn main() -> int {
            offload h { a = 11; }
            offload h { b = 31; }   // rebinds: the first offload is joined
            join h;
            return a + b;
        }
        "#,
    );
    assert_eq!(exit, 42);
}

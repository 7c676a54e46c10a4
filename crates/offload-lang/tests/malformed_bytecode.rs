//! Hand-built bytecode that reaches an instruction its context cannot
//! run comes back as [`VmError::IllegalInstr`], never as a panic.
//!
//! `Program` and `FuncBody` are public, so a caller can edit a compiled
//! program into shapes the compiler never emits. These cases edit one
//! at each such place: an offload, an asynchronous offload or a `join`
//! at the head of an offload body, and a `main` that returns no value.
//! CI runs this file in release too, where overflow checks and debug
//! asserts are gone.

use std::time::{Duration, Instant};

use offload_lang::bytecode::Instr;
use offload_lang::{compile, Program, Target, Vm, VmError};
use simcell::{Machine, MachineConfig};

const SOURCE: &str = r#"
    var counter: int;
    fn main() -> int {
        offload { counter = counter + 1; }
        return counter;
    }
"#;

/// Runs `program` on a fresh small machine.
fn run(program: &Program) -> Result<i32, VmError> {
    let mut machine = Machine::new(MachineConfig::small()).expect("config valid");
    let mut vm = Vm::new(program, &mut machine).expect("static data fits");
    vm.run(&mut machine)
}

#[test]
fn instructions_outside_their_context_are_errors() {
    let base = compile(SOURCE, &Target::cell_like()).expect("compiles");
    assert_eq!(run(&base).expect("the unedited program runs"), 1);
    let (body, domain) = base
        .func(base.main)
        .code
        .iter()
        .find_map(|instr| match *instr {
            Instr::Offload { func, domain } => Some((func, domain)),
            _ => None,
        })
        .expect("main launches one offload");
    assert!(
        base.func(body).params.is_empty(),
        "the body captures nothing"
    );
    let with_head = |instr: Instr| {
        let mut program = base.clone();
        program.funcs[body.0 as usize].code.insert(0, instr);
        program
    };
    let mut no_value = base.clone();
    let main = &mut no_value.funcs[base.main.0 as usize];
    main.returns_value = false;
    main.code = vec![Instr::Ret { has_value: false }];
    let body_name = base.func(body).name.as_str();
    let main_name = base.func(base.main).name.as_str();
    let cases = [
        (
            "join in the offload body",
            with_head(Instr::Join { slot: 0 }),
            body_name,
            "Join",
        ),
        (
            "offload in the offload body",
            with_head(Instr::Offload { func: body, domain }),
            body_name,
            "Offload {",
        ),
        (
            "async offload in the offload body",
            with_head(Instr::OffloadAsync {
                func: body,
                domain,
                slot: 0,
            }),
            body_name,
            "OffloadAsync",
        ),
        ("main without a value", no_value, main_name, "Ret"),
    ];
    for (name, program, want_func, want_instr) in cases {
        let t0 = Instant::now();
        match run(&program) {
            Err(VmError::IllegalInstr { func, instr }) => {
                assert_eq!(func, want_func, "{name}");
                assert!(instr.starts_with(want_instr), "{name}: {instr}");
            }
            other => panic!("{name}: {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(1), "{name}");
    }
}

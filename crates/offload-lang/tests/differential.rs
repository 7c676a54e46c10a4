//! Differential test: superinstruction fusion must be invisible.
//!
//! For a corpus of seeded random (well-typed by construction)
//! Offload/Mini programs, each source is compiled twice — peephole
//! fusion on and off — and both binaries run on fresh machines. Every
//! observable of the simulated execution must be bit-identical:
//!
//! - exit value and printed output,
//! - retired instruction count (fused handlers bump the counter by
//!   their full run width),
//! - the machine's [`Snapshot`]: clocks, counters, DMA statistics,
//!   races and main memory, plus the event timeline on a second pair of
//!   runs with the [`simcell::EventLog`] enabled. Enabling events also
//!   disables the DMA synchronous fast path, so the corpus exercises
//!   both the fast and the fully-journalled outer-access paths. A
//!   mismatch names the first differing event, counter or memory chunk.
//!
//! The test also asserts that fusion actually fires across the corpus
//! — a peephole pass that silently stopped matching would otherwise
//! pass every identity check.

use offload_lang::{compile, Program, Target, Vm};
use simcell::{Machine, MachineConfig, Snapshot};
use xrng::Rng;

/// One full run: the VM's own observables (exit value, printed output,
/// retired instructions) and the machine's snapshot.
fn run(program: &Program, events: bool) -> ((i32, Vec<String>, u64), Snapshot) {
    let mut machine = Machine::new(MachineConfig::small()).unwrap();
    machine.events_mut().set_enabled(events);
    let mut vm = Vm::new(program, &mut machine).unwrap();
    let exit = vm.run(&mut machine).unwrap();
    let output = (exit, vm.output().to_vec(), vm.instructions_executed());
    (output, machine.snapshot())
}

fn int_op(rng: &mut Rng) -> &'static str {
    ["+", "-", "*"][rng.below_u32(3) as usize]
}

fn float_op(rng: &mut Rng) -> &'static str {
    ["+", "-", "*", "/"][rng.below_u32(4) as usize]
}

/// A short straight-line block over in-scope locals `a`/`b` (int) and
/// `x` (float): counter bumps, load/op pairs, safe constant divides,
/// calls — the exact shapes the peephole pass hunts for.
fn gen_block(rng: &mut Rng, with_call: bool) -> String {
    let mut out = String::new();
    for _ in 0..rng.range_u32(3, 8) {
        match rng.below_u32(if with_call { 5 } else { 4 }) {
            0 => out.push_str(&format!(
                "            a = a {} {};\n",
                int_op(rng),
                rng.range_u32(1, 9)
            )),
            1 => out.push_str(&format!("            b = b {} a;\n", int_op(rng))),
            2 => out.push_str(&format!(
                "            x = x {} {}.5;\n",
                float_op(rng),
                rng.range_u32(1, 7)
            )),
            3 => out.push_str(&format!(
                "            a = (a + b) / {};\n",
                rng.range_u32(2, 5)
            )),
            _ => out.push_str("            b = helper(b, a);\n"),
        }
    }
    out
}

/// Builds one random program: virtual dispatch through a domain, an
/// offload block with outer-pointer field traffic, a helper with its
/// own loop, and randomized straight-line arithmetic around it all.
fn gen_program(rng: &mut Rng) -> String {
    let outer_n = rng.range_u32(2, 5);
    let inner_m = rng.range_u32(2, 6);
    let hp0 = rng.range_u32(100, 900);
    let dmg = rng.range_u32(1, 4);
    let helper_body = gen_block(rng, false);
    let main_tail = gen_block(rng, true);
    let enemy_scale = rng.range_u32(2, 4);
    format!(
        r#"
        class Entity {{
            hp: float;
            virtual fn tick(d: float) {{ self.hp = self.hp - d; }}
        }}
        class Enemy : Entity {{
            override fn tick(d: float) {{ self.hp = self.hp - d * {enemy_scale}.0; }}
        }}
        var e: Entity*;
        var f: Entity*;
        var total: int;

        fn helper(a: int, b: int) -> int {{
            let x: float = 1.5;
            let i: int = 0;
            while i < 3 {{
{helper_body}                i = i + 1;
            }}
            return a + b + float_to_int(x);
        }}

        fn main() -> int {{
            e = new Enemy;
            f = new Entity;
            e.hp = {hp0}.0;
            f.hp = {hp0}.0;
            let a: int = {dmg};
            let b: int = 1;
            let x: float = 0.5;
            let i: int = 0;
            while i < {outer_n} {{
                offload domain(Entity.tick, Enemy.tick) {{
                    let j: int = 0;
                    while j < {inner_m} {{
                        e.tick({dmg}.0);
                        f.tick({dmg}.0);
                        j = j + 1;
                    }}
                }}
                total = helper(total, i);
                i = i + 1;
            }}
{main_tail}            print_int(a);
            print_int(b);
            print_float(x);
            print_float(e.hp);
            print_float(f.hp);
            return total + a + b;
        }}
        "#
    )
}

#[test]
fn fusion_is_invisible_across_random_corpus() {
    let mut rng = Rng::new(0x0ff1_0ad2_2026);
    let mut fused_total = 0usize;
    for case in 0..24u64 {
        let source = gen_program(&mut rng);
        let fused = compile(&source, &Target::cell_like())
            .map_err(|e| panic!("case {case}: compile (fused): {}", e.render(&source)))
            .unwrap();
        let plain = compile(&source, &Target::cell_like().with_superinstructions(false))
            .map_err(|e| panic!("case {case}: compile (plain): {}", e.render(&source)))
            .unwrap();
        assert_eq!(
            plain.stats.superinstructions, 0,
            "case {case}: fusion disabled means zero superinstructions"
        );
        fused_total += fused.stats.superinstructions;

        // The journalled path (events on) first, so a divergence names
        // its first differing event; then the fast path (events off).
        for events in [true, false] {
            let (vm_f, machine_f) = run(&fused, events);
            let (vm_p, machine_p) = run(&plain, events);
            assert_eq!(
                vm_f, vm_p,
                "case {case} (events {events}): VM output diverged"
            );
            machine_f
                .diff(&machine_p)
                .unwrap_or_else(|d| panic!("case {case} (events {events}): {d}"));
        }
    }
    assert!(
        fused_total > 100,
        "fusion barely fired across the corpus ({fused_total} superinstructions) — \
         the peephole pass or the generator regressed"
    );
}

//! A tour of the Offload/Mini language: the paper's mechanisms as a
//! programmer meets them.
//!
//! ```text
//! cargo run --release --example offload_mini
//! ```
//!
//! Compiles and runs a game-flavoured program with classes, an offload
//! block and a dispatch domain; then demonstrates the three diagnostics
//! the paper's type system is built around: the memory-space error, the
//! domain-miss exception, and the word-addressing error.

use offload_repro::offload_lang::{compile, Target, Vm, WordStrategy};
use offload_repro::offload_rt::prelude::*;

const GAME: &str = r#"
    class Entity {
        hp: float;
        armour: float;
        virtual fn tick(damage: float) {
            self.hp = self.hp - damage;
        }
    }
    class Enemy : Entity {
        override fn tick(damage: float) {
            self.hp = self.hp - (damage - self.armour);
        }
    }

    var player: Entity*;
    var boss: Entity*;
    var frames: int;

    fn main() -> int {
        player = new Entity;
        player.hp = 100.0;
        boss = new Enemy;
        boss.hp = 100.0;
        boss.armour = 2.0;
        frames = 0;

        while frames < 10 {
            // The per-frame combat task runs on the accelerator; the
            // entities live in outer (host) memory.
            offload domain(Entity.tick, Enemy.tick) {
                player.tick(3.0);
                boss.tick(3.0);
            }
            frames = frames + 1;
        }
        print_float(player.hp);
        print_float(boss.hp);
        return float_to_int(player.hp) + float_to_int(boss.hp);
    }
"#;

fn main() {
    // ---- the happy path ---------------------------------------------------
    let target = Target::cell_like();
    let program = compile(GAME, &target).expect("the game program compiles");
    println!(
        "compiled: {} function variants ({} offload blocks, domain sizes {:?})",
        program.stats.functions_compiled, program.stats.offload_blocks, program.stats.domain_sizes
    );
    for (name, count) in {
        let mut d: Vec<_> = program.stats.duplicates.iter().collect();
        d.sort();
        d
    } {
        println!("  {name}: {count} memory-space variant(s)");
    }

    let mut machine = Machine::new(MachineConfig::default()).expect("machine builds");
    let mut vm = Vm::new(&program, &mut machine).expect("program loads");
    vm.set_cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()));
    let exit = vm.run(&mut machine).expect("program runs");
    println!(
        "\nran 10 frames in {} simulated host cycles; output: {:?}; exit {exit}",
        machine.host_now(),
        vm.output()
    );

    // ---- asynchronous offload handles (the paper's Figure 2) ---------------
    let figure2 = r#"
        var strategy_done: int;
        var collisions_done: int;
        fn main() -> int {
            // __offload_handle_t h = __offload { calculateStrategy(); };
            offload h {
                let i: int = 0;
                let acc: int = 0;
                while i < 500 { acc = acc + i; i = i + 1; }
                strategy_done = acc;
            }
            // this->detectCollisions();  (host, in parallel)
            let j: int = 0;
            let acc: int = 0;
            while j < 500 { acc = acc + j; j = j + 1; }
            collisions_done = acc;
            // __offload_join(h);
            join h;
            return strategy_done - collisions_done;
        }
    "#;
    let program = compile(figure2, &target).expect("figure 2 compiles");
    let mut machine = Machine::new(MachineConfig::default()).expect("machine builds");
    let mut vm = Vm::new(&program, &mut machine).expect("loads");
    let exit = vm.run(&mut machine).expect("runs");
    println!(
        "\nFigure-2 style async offload: exit {exit} (accelerator and host agreed) in {} \
         host cycles — AI hid behind host work",
        machine.host_now()
    );

    // ---- diagnostic 1: the memory-space error ------------------------------
    let bad_space = r#"
        var g: int;
        fn main() -> int {
            offload {
                let x: int = 1;
                let p: int* = &x;
                p = &g;            // outer pointer into a local pointer
            }
            return 0;
        }
    "#;
    let err = compile(bad_space, &target).expect_err("spaces must not mix");
    println!("\n[memory-space error]\n{}", err.render(bad_space));

    // ---- diagnostic 2: the domain-miss exception ----------------------------
    let missed = r#"
        class Entity {
            hp: float;
            virtual fn tick(d: float) { self.hp = self.hp - d; }
        }
        var e: Entity*;
        fn main() -> int {
            e = new Entity;
            offload { e.tick(1.0); }    // forgot the domain annotation
            return 0;
        }
    "#;
    let program = compile(missed, &target).expect("compiles; fails at dispatch");
    let mut machine = Machine::new(MachineConfig::default()).expect("machine builds");
    let mut vm = Vm::new(&program, &mut machine).expect("loads");
    let err = vm.run(&mut machine).expect_err("dispatch must miss");
    println!("\n[domain miss at runtime]\n{err}");

    // ---- diagnostic 3: the word-addressing error ----------------------------
    let strings = r#"
        var s: [char; 16];
        fn main() -> int {
            let i: int = 0;
            while i < 16 { s[i] = 65; i = i + 1; }
            return 0;
        }
    "#;
    let word_target = Target::word_addressed(4);
    let err = compile(strings, &word_target).expect_err("hybrid rejects byte loops");
    println!(
        "\n[word-addressing error on a 4-byte-word target]\n{}",
        err.render(strings)
    );

    let emulate = word_target.with_strategy(WordStrategy::ByteEmulate);
    let program = compile(strings, &emulate).expect("byte emulation accepts it");
    let mut machine = Machine::new(MachineConfig::default()).expect("machine builds");
    let mut vm = Vm::new(&program, &mut machine).expect("loads");
    vm.run(&mut machine)
        .expect("runs, paying the emulation tax");
    println!(
        "\nthe same program under byte emulation: runs in {} cycles (every dereference pays)",
        machine.host_now()
    );
}

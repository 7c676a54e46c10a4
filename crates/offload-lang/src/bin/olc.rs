//! `olc` — the Offload/Mini compiler driver.
//!
//! ```text
//! olc check  FILE [--word N] [--byte-emulate]      type-check only
//! olc run    FILE [options]                        compile and execute
//! olc dis    FILE [options]                        disassemble bytecode
//! olc stats  FILE [options]                        duplication/domain stats
//!
//! options:
//!   --word N         compile for an N-byte word-addressed target (paper §5)
//!   --byte-emulate   use byte-pointer emulation instead of the hybrid rules
//!   --cache          install a direct-mapped 4 KiB software cache in
//!                    every offload block (default: no cache)
//!   --fuel N         instruction budget (default 500M)
//! ```
//!
//! Exit codes: 0 success (for `run`, the program's own exit value is
//! printed, not used as the process exit code), 1 compile error, 2
//! runtime error, 64 usage error.

use std::process::ExitCode;

use offload_lang::{compile, Program, Target, Vm, WordStrategy};
use simcell::{Machine, MachineConfig};
use softcache::{CacheChoice, CacheConfig};

struct Options {
    command: String,
    file: String,
    target: Target,
    cache: bool,
    fuel: Option<u64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: olc <check|run|dis|stats> FILE [--word N] [--byte-emulate] [--cache] [--fuel N]"
    );
    eprintln!(
        "       --cache installs a direct-mapped 4 KiB software cache in every offload block"
    );
    ExitCode::from(64)
}

fn parse_args() -> Result<Options, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut target = Target::cell_like();
    let mut byte_emulate = false;
    let mut cache = false;
    let mut fuel = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--word" => {
                i += 1;
                let bytes: u8 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&b| b >= 2)
                    .ok_or_else(usage)?;
                target = Target::word_addressed(bytes);
            }
            "--byte-emulate" => byte_emulate = true,
            "--cache" => cache = true,
            "--fuel" => {
                i += 1;
                fuel = Some(args.get(i).and_then(|v| v.parse().ok()).ok_or_else(usage)?);
            }
            other if other.starts_with("--") => return Err(usage()),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    if byte_emulate {
        target = target.with_strategy(WordStrategy::ByteEmulate);
    }
    if positional.len() != 2 {
        return Err(usage());
    }
    Ok(Options {
        command: positional[0].clone(),
        file: positional[1].clone(),
        target,
        cache,
        fuel,
    })
}

fn compile_file(options: &Options) -> Result<(String, Program), ExitCode> {
    let source = std::fs::read_to_string(&options.file).map_err(|e| {
        eprintln!("olc: cannot read {}: {e}", options.file);
        ExitCode::from(64)
    })?;
    match compile(&source, &options.target) {
        Ok(program) => Ok((source, program)),
        Err(err) => {
            eprintln!("{}: {}", options.file, err.render(&source));
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(code) => return code,
    };
    let (_, program) = match compile_file(&options) {
        Ok(compiled) => compiled,
        Err(code) => return code,
    };

    match options.command.as_str() {
        "check" => {
            println!(
                "{}: ok ({} function variants, {} offload block(s))",
                options.file, program.stats.functions_compiled, program.stats.offload_blocks
            );
            ExitCode::SUCCESS
        }
        "dis" => {
            print!("{}", program.disassemble());
            ExitCode::SUCCESS
        }
        "stats" => {
            println!("functions compiled: {}", program.stats.functions_compiled);
            println!("offload blocks:     {}", program.stats.offload_blocks);
            println!("domain sizes:       {:?}", program.stats.domain_sizes);
            let mut names: Vec<_> = program.stats.duplicates.iter().collect();
            names.sort();
            println!("memory-space duplicates:");
            for (name, count) in names {
                println!("  {name}: {count}");
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let mut machine = match Machine::new(MachineConfig::default()) {
                Ok(machine) => machine,
                Err(err) => {
                    eprintln!("olc: machine setup failed: {err}");
                    return ExitCode::from(2);
                }
            };
            let mut vm = match Vm::new(&program, &mut machine) {
                Ok(vm) => vm,
                Err(err) => {
                    eprintln!("olc: program load failed: {err}");
                    return ExitCode::from(2);
                }
            };
            if options.cache {
                vm.set_cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()));
            }
            if let Some(fuel) = options.fuel {
                vm.set_fuel(fuel);
            }
            match vm.run(&mut machine) {
                Ok(exit) => {
                    for line in vm.output() {
                        println!("{line}");
                    }
                    println!(
                        "[exit {exit}; {} host cycles; {} instructions]",
                        machine.host_now(),
                        vm.instructions_executed()
                    );
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("olc: runtime error: {err}");
                    ExitCode::from(2)
                }
            }
        }
        other => {
            eprintln!("olc: unknown command `{other}`");
            usage()
        }
    }
}

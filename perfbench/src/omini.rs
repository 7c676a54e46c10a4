//! `omini`: one `olc run` in-process.
//!
//! Each op parses, compiles, loads and runs a benchmark-owned
//! Offload/Mini game loop on a `MachineConfig::default()` machine
//! recycled with `reset_for_seed`. The seed picks the program's
//! constants; the expected printout is computed here, in Rust, by a
//! model of the same loop that shares no code with the compiler or VM.

use offload_lang::codegen::Compiler;
use offload_lang::{parser, Target, Vm};
use simcell::{Machine, MachineConfig};

use crate::harness::{seeded, Checked, Counts, Values, Workload};
use crate::spans::Recorder;

/// Frames the game loop simulates.
const FRAMES: i32 = 320;
/// Unit actions per offloaded frame.
const ACTIONS: i32 = 64;
/// Host-side work items per frame, run before the join.
const HOST_ITEMS: i32 = 48;

/// The game loop. `$NAME` placeholders are filled from the seed.
const TEMPLATE: &str = r#"
class Unit {
    hp: int;
    power: int;
    virtual fn act(t: int) -> int {
        self.hp = self.hp + t % 7 - 3;
        return self.power * t + self.hp;
    }
}
class Tank : Unit {
    armour: int;
    override fn act(t: int) -> int {
        if t > self.armour * 100 {
            self.hp = self.hp - t % 5;
        } else {
            self.hp = self.hp + self.armour;
        }
        return self.hp * 3 - t;
    }
}
class Scout : Unit {
    override fn act(t: int) -> int {
        self.power = self.power + 1;
        return (t * self.power) % 1009;
    }
}

var squad: [Unit*; 4];
var terrain: [int; 256];
var score: int;
var host_score: int;

fn host_step(frame: int) -> int {
    let i: int = 0;
    let acc: int = 0;
    while i < $HOST_ITEMS {
        acc = acc + (terrain[(i * 7 + frame) % 256] * (i + 1)) % 101;
        i = i + 1;
    }
    return acc;
}

fn main() -> int {
    let x: int = $TERRAIN_SEED;
    let i: int = 0;
    while i < 256 {
        x = x * 1103515245 + 12345;
        terrain[i] = (x / 65536) % 1000;
        i = i + 1;
    }
    squad[0] = new Unit;
    let tank: Tank* = new Tank;
    tank.armour = $ARMOUR_A;
    squad[1] = tank;
    squad[2] = new Scout;
    let heavy: Tank* = new Tank;
    heavy.armour = $ARMOUR_B;
    squad[3] = heavy;
    i = 0;
    while i < 4 {
        squad[i].hp = $HP + i * 10;
        squad[i].power = $POWER + i;
        i = i + 1;
    }
    let frame: int = 0;
    while frame < $FRAMES {
        offload h use(frame) domain(Unit.act, Tank.act, Scout.act) {
            let j: int = 0;
            let acc: int = 0;
            while j < $ACTIONS {
                acc = acc + squad[j % 4].act(terrain[(j * 5 + frame) % 256]);
                j = j + 1;
            }
            score = score + acc;
        }
        host_score = host_score + host_step(frame);
        join h;
        frame = frame + 1;
    }
    print_int(score);
    print_int(host_score);
    i = 0;
    while i < 4 {
        print_int(squad[i].hp);
        print_int(squad[i].power);
        i = i + 1;
    }
    return score % 256;
}
"#;

/// The seeded constants of one program.
#[derive(Clone, Copy, Debug)]
struct Params {
    terrain_seed: i32,
    armour_a: i32,
    armour_b: i32,
    hp: i32,
    power: i32,
}

impl Params {
    fn from_seed(seed: u64) -> Params {
        let mut s = seeded(seed, 1);
        Params {
            terrain_seed: s.range_u32(1, 1 << 31) as i32,
            armour_a: s.range_u32(1, 6) as i32,
            armour_b: s.range_u32(4, 10) as i32,
            hp: s.range_u32(200, 1000) as i32,
            power: s.range_u32(1, 10) as i32,
        }
    }

    fn source(&self) -> String {
        TEMPLATE
            .replace("$HOST_ITEMS", &HOST_ITEMS.to_string())
            .replace("$TERRAIN_SEED", &self.terrain_seed.to_string())
            .replace("$ARMOUR_A", &self.armour_a.to_string())
            .replace("$ARMOUR_B", &self.armour_b.to_string())
            .replace("$HP", &self.hp.to_string())
            .replace("$POWER", &self.power.to_string())
            .replace("$FRAMES", &FRAMES.to_string())
            .replace("$ACTIONS", &ACTIONS.to_string())
    }

    /// The program's printout and exit value, computed with the
    /// language's `int` semantics (32-bit, wrapping, truncating `/` and
    /// `%`).
    fn expected(&self) -> (Vec<String>, i32) {
        #[derive(Clone, Copy)]
        enum Kind {
            Unit,
            Tank(i32),
            Scout,
        }
        let mut terrain = [0i32; 256];
        let mut x = self.terrain_seed;
        for cell in &mut terrain {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            *cell = x.wrapping_div(65536).wrapping_rem(1000);
        }
        let kinds = [
            Kind::Unit,
            Kind::Tank(self.armour_a),
            Kind::Scout,
            Kind::Tank(self.armour_b),
        ];
        let mut hp: [i32; 4] = std::array::from_fn(|i| self.hp.wrapping_add(i as i32 * 10));
        let mut power: [i32; 4] = std::array::from_fn(|i| self.power.wrapping_add(i as i32));
        let (mut score, mut host_score) = (0i32, 0i32);
        for frame in 0..FRAMES {
            let mut acc = 0i32;
            for j in 0..ACTIONS {
                let u = (j % 4) as usize;
                let t = terrain[((j * 5 + frame) % 256) as usize];
                let value = match kinds[u] {
                    Kind::Unit => {
                        hp[u] = hp[u].wrapping_add(t.wrapping_rem(7)).wrapping_sub(3);
                        power[u].wrapping_mul(t).wrapping_add(hp[u])
                    }
                    Kind::Tank(armour) => {
                        if t > armour.wrapping_mul(100) {
                            hp[u] = hp[u].wrapping_sub(t.wrapping_rem(5));
                        } else {
                            hp[u] = hp[u].wrapping_add(armour);
                        }
                        hp[u].wrapping_mul(3).wrapping_sub(t)
                    }
                    Kind::Scout => {
                        power[u] = power[u].wrapping_add(1);
                        t.wrapping_mul(power[u]).wrapping_rem(1009)
                    }
                };
                acc = acc.wrapping_add(value);
            }
            score = score.wrapping_add(acc);
            let mut host = 0i32;
            for i in 0..HOST_ITEMS {
                let t = terrain[((i * 7 + frame) % 256) as usize];
                host = host.wrapping_add(t.wrapping_mul(i + 1).wrapping_rem(101));
            }
            host_score = host_score.wrapping_add(host);
        }
        let mut lines = vec![score.to_string(), host_score.to_string()];
        for u in 0..4 {
            lines.push(hp[u].to_string());
            lines.push(power[u].to_string());
        }
        (lines, score.wrapping_rem(256))
    }
}

/// The `omini` workload's state.
pub struct Omini {
    seed: u64,
    machine: Machine,
    target: Target,
    source: String,
    expected_output: Vec<String>,
    expected_exit: i32,
}

/// What one `olc run` produced.
pub struct RunOutput {
    output: Vec<String>,
    exit: i32,
    counts: Counts,
}

impl Workload for Omini {
    type Output = RunOutput;

    fn setup(seed: u64, _rec: &mut Recorder) -> Result<Omini, String> {
        let params = Params::from_seed(seed);
        let (expected_output, expected_exit) = params.expected();
        let machine = Machine::new(MachineConfig::default()).map_err(|e| e.to_string())?;
        Ok(Omini {
            seed,
            machine,
            target: Target::cell_like(),
            source: params.source(),
            expected_output,
            expected_exit,
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Result<RunOutput, String> {
        let machine = &mut self.machine;
        rec.span("simcell.reset_for_seed", || {
            machine.reset_for_seed(self.seed)
        });
        let ast = rec
            .span("offload-lang.parse", || parser::parse(&self.source))
            .map_err(|e| e.render(&self.source))?;
        let program = rec
            .span("offload-lang.codegen", || {
                Compiler::new(&self.target).compile(&ast)
            })
            .map_err(|e| e.render(&self.source))?;
        let mut vm = rec
            .span("offload-lang.vm_load", || Vm::new(&program, machine))
            .map_err(|e| e.to_string())?;
        let exit = rec
            .span("offload-lang.vm_run", || vm.run(machine))
            .map_err(|e| e.to_string())?;
        let (mut gets, mut bytes) = (0, 0);
        for accel in 0..machine.accel_count() {
            let dma = machine.dma_stats(accel).map_err(|e| e.to_string())?;
            gets += dma.gets;
            bytes += dma.bytes_in + dma.bytes_out;
        }
        let exact = [
            ("offload-lang.vm_instrs", vm.instructions_executed()),
            (
                "offload-lang.superinstrs",
                program.stats.superinstructions as u64,
            ),
            ("simcell.offloads", machine.stats().offloads),
            ("dma.gets", gets),
            ("dma.bytes", bytes),
        ];
        Ok(RunOutput {
            output: vm.output().to_vec(),
            exit,
            counts: Counts {
                sim_cycles: machine.host_now(),
                exact: exact.into_iter().collect(),
            },
        })
    }

    fn check(&mut self, out: RunOutput) -> Result<Checked, String> {
        if out.output != self.expected_output || out.exit != self.expected_exit {
            return Err(format!(
                "printout {:?} / exit {} differ from the model's {:?} / {}",
                out.output, out.exit, self.expected_output, self.expected_exit
            ));
        }
        Ok(out.counts.into())
    }

    fn derive(values: &mut Values) {
        if let (Some(&instrs), Some(&ms)) = (
            values.get("offload-lang.vm_instrs"),
            values.get("offload-lang.vm_run_ms"),
        ) {
            if ms > 0.0 {
                values.insert("offload-lang.vm_minstr_per_s".into(), instrs / ms / 1e3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ClosedLoop;

    #[test]
    fn a_wrong_expectation_counts_as_a_failed_op() {
        let mut rec = Recorder::new(false);
        let mut w = Omini::setup(1, &mut rec).unwrap();
        w.expected_output[0].push('9');
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 2);
        assert_eq!((phase.attempted, phase.failed), (2, 2));
    }
}

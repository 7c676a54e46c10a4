//! `farm`: one batch of seeded worlds through a long-lived
//! `simfarm::Farm` per op.
//!
//! The batch goes to a farm with one worker and is reaped in
//! submission order; every world hash is checked against its solo
//! twin, run on the caller through `run_world_in` during set-up.

use std::time::Instant;

use offload_rt::SchedPolicy;
use simcell::{FaultPlan, Machine};
use simfarm::{run_world_in, Farm, WorldOutput, WorldProgram, WorldSpec};

use crate::harness::{seeded, Checked, Counts, Values, Workload};
use crate::spans::Recorder;

/// Worlds per batch.
pub const WORLDS: usize = 256;
/// Worlds that run a kernel chain instead of an AI frame.
const CHAIN_WORLDS: usize = 16;
/// AI-frame worlds that run under a 5% fault plan.
const FAULTY_WORLDS: usize = 16;
/// Worker threads in the farm.
const WORKERS: usize = 1;

/// The batch: mostly `WorldSpec::quick` AI frames spread over the
/// three scheduling policies, with a seeded minority of kernel chains
/// and of worlds under fire.
fn batch(seed: u64) -> Vec<WorldSpec> {
    let mut s = seeded(seed, 2);
    let mut order: Vec<usize> = (0..WORLDS).collect();
    s.shuffle(&mut order);
    let mut specs: Vec<WorldSpec> = (0..WORLDS)
        .map(|_| {
            let mut spec = WorldSpec::quick(s.next_u64());
            if let WorldProgram::AiFrame { policy, .. } = &mut spec.program {
                *policy = [
                    SchedPolicy::Static,
                    SchedPolicy::ShortestQueue,
                    SchedPolicy::WorkStealing,
                ][s.below_u32(3) as usize];
            }
            spec
        })
        .collect();
    for &i in &order[..CHAIN_WORLDS] {
        specs[i].program = WorldProgram::KernelChain {
            kernels: 8,
            compute: 2_000,
            payload_words: 64,
        };
    }
    for &i in &order[CHAIN_WORLDS..CHAIN_WORLDS + FAULTY_WORLDS] {
        specs[i].faults = Some(FaultPlan::uniform(s.next_u64(), 0.05));
        specs[i].retries = 3;
        specs[i].backoff = 1_000;
    }
    specs
}

/// The `farm` workload's state.
pub struct FarmBench {
    farm: Farm,
    specs: Vec<WorldSpec>,
    solo: Vec<WorldOutput>,
}

/// One reaped batch.
pub struct BatchOutput {
    outputs: Vec<Result<WorldOutput, String>>,
    busy_ns: u64,
    wall_ns: u64,
}

fn busy_ns(farm: &Farm) -> u64 {
    farm.worker_busy_nanos().iter().sum()
}

impl Workload for FarmBench {
    type Output = BatchOutput;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<FarmBench, String> {
        let specs = batch(seed);
        let mut caller = Machine::new(specs[0].config).map_err(|e| e.to_string())?;
        let solo = specs
            .iter()
            .map(|spec| rec.span("simfarm.run_world_in", || run_world_in(&mut caller, spec)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let farm = Farm::new(WORKERS).map_err(|e| e.to_string())?;
        Ok(FarmBench { farm, specs, solo })
    }

    fn op(&mut self, rec: &mut Recorder) -> Result<BatchOutput, String> {
        let busy_before = busy_ns(&self.farm);
        let t0 = Instant::now();
        let farm = &mut self.farm;
        rec.span("simfarm.submit", || {
            for spec in &self.specs {
                farm.submit(*spec);
            }
        });
        let reports = rec.span("simfarm.reap", || farm.collect());
        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(BatchOutput {
            outputs: reports
                .into_iter()
                .map(|r| r.outcome.map_err(|e| e.to_string()))
                .collect(),
            busy_ns: busy_ns(&self.farm).saturating_sub(busy_before),
            wall_ns,
        })
    }

    fn check(&mut self, out: BatchOutput) -> Result<Checked, String> {
        if out.outputs.len() != self.solo.len() {
            return Err(format!(
                "reaped {} worlds of {}",
                out.outputs.len(),
                self.solo.len()
            ));
        }
        let mut counts = Counts::default();
        for (i, (got, solo)) in out.outputs.iter().zip(&self.solo).enumerate() {
            let got = got.as_ref().map_err(|e| format!("world {i}: {e}"))?;
            if got.world_hash != solo.world_hash || got.sim_cycles != solo.sim_cycles {
                return Err(format!(
                    "world {i}: hash {:#x} / {} cycles differ from the solo twin's {:#x} / {}",
                    got.world_hash, got.sim_cycles, solo.world_hash, solo.sim_cycles
                ));
            }
            counts.sim_cycles += got.sim_cycles;
            let sched = got.sched.as_ref();
            for (name, n) in [
                ("simcell.faults_injected", got.stats.faults_injected),
                ("offload-rt.retries", sched.map_or(0, |s| s.retries)),
                ("offload-rt.fallbacks", sched.map_or(0, |s| s.fallbacks)),
                (
                    "offload-rt.steals",
                    sched.map_or(0, |s| u64::from(s.steals)),
                ),
            ] {
                *counts.exact.entry(name).or_default() += n;
            }
        }
        let measured = [
            (
                "simfarm.worker_busy_ms".to_string(),
                out.busy_ns as f64 / 1e6,
            ),
            (
                "simfarm.gap_frac".to_string(),
                1.0 - out.busy_ns as f64 / out.wall_ns.max(1) as f64,
            ),
        ];
        Ok(Checked {
            counts,
            measured: measured.into_iter().collect(),
        })
    }

    fn derive(values: &mut Values) {
        if let Some(&ms) = values.get("simfarm.run_world_in_ms") {
            values.insert("simfarm.world_solo_us".into(), ms * 1e3 / WORLDS as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ClosedLoop;

    #[test]
    fn batch_mixes_policies_chains_and_faulty_worlds() {
        let specs = batch(1);
        assert_eq!(specs.len(), WORLDS);
        let chains = specs
            .iter()
            .filter(|s| matches!(s.program, WorldProgram::KernelChain { .. }))
            .count();
        let faulty = specs.iter().filter(|s| s.faults.is_some()).count();
        assert_eq!((chains, faulty), (CHAIN_WORLDS, FAULTY_WORLDS));
        assert_eq!(batch(1), specs);
        assert_ne!(batch(2), specs);
    }

    #[test]
    fn a_wrong_expectation_counts_as_a_failed_op() {
        let mut rec = Recorder::new(false);
        let mut w = FarmBench::setup(1, &mut rec).unwrap();
        w.solo[7].world_hash ^= 1;
        let phase = ClosedLoop::default().run(&mut w, &mut rec, 0.0, 2);
        assert_eq!((phase.attempted, phase.failed), (2, 2));
        assert!(phase.errors[0].contains("world 7"), "{:?}", phase.errors);
    }
}

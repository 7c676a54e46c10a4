//! The closed loop: one client (the benchmark thread) issues the next
//! op only after the previous one has completed and been checked.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use xrng::Rng;

use crate::spans::Recorder;

/// Per-layer values of one op or set-up round, by metric name.
pub type Values = BTreeMap<String, f64>;

/// What a checked op reports. Every field is a simulated quantity, so
/// it repeats exactly from op to op and from run to run of one seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Simulated cycles the op took.
    pub sim_cycles: u64,
    /// Exact per-layer counts, by name.
    pub exact: BTreeMap<&'static str, u64>,
}

/// What a passing check hands back.
pub struct Checked {
    /// The op's simulated counts.
    pub counts: Counts,
    /// Host measurements the op took itself, such as worker busy time.
    /// Unlike `counts` they vary from op to op.
    pub measured: Values,
}

impl From<Counts> for Checked {
    fn from(counts: Counts) -> Checked {
        Checked {
            counts,
            measured: Values::new(),
        }
    }
}

/// One workload. Inputs and oracles come from the seed in
/// [`Workload::setup`]; each op calls only the public functions of the
/// layer crates.
pub trait Workload: Sized {
    /// What an op hands to its check.
    type Output;

    /// Builds machines, inputs and oracles from `seed`.
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String>;

    /// One op: the layer calls, each inside its span.
    fn op(&mut self, rec: &mut Recorder) -> Result<Self::Output, String>;

    /// Checks an op's output against the set-up oracles and returns the
    /// op's counts.
    fn check(&mut self, out: Self::Output) -> Result<Checked, String>;

    /// Adds the ratios derived from one op's (or one set-up round's)
    /// span times and counts.
    fn derive(_values: &mut Values) {}
}

/// One checked op of a timed phase.
pub struct OkOp {
    /// The op id its spans carry.
    pub id: u64,
    /// Wall milliseconds of [`Workload::op`].
    pub latency_ms: f64,
    /// The op's counts and measurements.
    pub checked: Checked,
}

/// A timed phase of the closed loop.
#[derive(Default)]
pub struct Phase {
    /// Wall seconds from the first op's start to the last op's check,
    /// summed over segments.
    pub wall_s: f64,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned `Err`, panicked, failed their check, or
    /// reported counts differing from the run's first op.
    pub failed: u64,
    /// The ops that passed.
    pub ok: Vec<OkOp>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Appends a later segment of the same phase.
    pub fn absorb(&mut self, segment: Phase) {
        self.wall_s += segment.wall_s;
        self.attempted += segment.attempted;
        self.failed += segment.failed;
        self.ok.extend(segment.ok);
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(segment.errors.into_iter().take(room));
    }

    /// Checked ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ok.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn panic_text(payload: Box<dyn Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panic: {text}")
}

/// The closed loop's state across phases: the next op id, and the
/// counts every op must repeat (taken from the first op that passes
/// its check).
#[derive(Default)]
pub struct ClosedLoop {
    next_op: u64,
    reference: Option<Counts>,
}

impl ClosedLoop {
    /// Drives `workload` until `seconds` have passed and at least
    /// `min_ops` ops were issued. A failed op is counted and the loop
    /// goes on.
    pub fn run<W: Workload>(
        &mut self,
        workload: &mut W,
        rec: &mut Recorder,
        seconds: f64,
        min_ops: u64,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while phase.attempted < min_ops || start.elapsed().as_secs_f64() < seconds {
            let id = self.next_op;
            self.next_op += 1;
            rec.set_op(id);
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| workload.op(rec)));
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.close_all();
            phase.attempted += 1;
            let checked = match out {
                Ok(Ok(out)) => catch_unwind(AssertUnwindSafe(|| workload.check(out)))
                    .unwrap_or_else(|p| Err(panic_text(p))),
                Ok(Err(e)) => Err(e),
                Err(p) => Err(panic_text(p)),
            }
            .and_then(|checked| self.repeats(id, checked));
            match checked {
                Ok(checked) => phase.ok.push(OkOp {
                    id,
                    latency_ms,
                    checked,
                }),
                Err(e) => {
                    phase.failed += 1;
                    if phase.errors.len() < 5 {
                        phase.errors.push(e);
                    }
                }
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    /// Simulated counts are deterministic: an op whose counts differ
    /// from the first passing op's has failed.
    fn repeats(&mut self, id: u64, checked: Checked) -> Result<Checked, String> {
        let counts = &checked.counts;
        match &self.reference {
            Some(first) if first != counts => Err(format!(
                "op {id}: counts {counts:?} differ from the first op's {first:?}"
            )),
            Some(_) => Ok(checked),
            None => {
                self.reference = Some(counts.clone());
                Ok(checked)
            }
        }
    }
}

/// Nearest-rank percentile `q` of ascending `sorted` samples, with the
/// number of samples strictly beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The generator every input of a workload derives from: `seed`,
/// salted so each workload draws its own values.
pub fn seeded(seed: u64, salt: u64) -> Rng {
    Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_tail_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), (50.0, 50));
        assert_eq!(percentile(&samples, 0.9), (90.0, 10));
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.9), (45.0, 5));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

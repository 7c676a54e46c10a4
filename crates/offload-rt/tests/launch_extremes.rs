//! Every numeric extreme a launch can carry, through each of the three
//! offload front-ends (a single offload, the tile scheduler and the
//! pipeline) and the direct `Machine::install_fault_plan` path.
//!
//! Each case must come back as `Err` within a second, in debug and in
//! release, having armed nothing and charged nothing: the launch
//! contract checks lanes, cache, plan and recovery policy before it
//! installs a plan or launches an offload.

use std::time::{Duration, Instant};

use memspace::Addr;
use offload_rt::pipeline::MachinePipelineExt;
use offload_rt::sched::{SchedExt, SchedPolicy};
use offload_rt::ArrayAccessor;
use simcell::{
    AccelCtx, CoreId, CostModel, EventKind, FaultPlan, LaunchSettings, Machine, MachineConfig,
    RecoverySettings, SimError, MAX_CYCLES, MAX_RETRIES,
};
use softcache::{CacheChoice, CacheConfig};

type Case = Box<dyn Fn(&mut Machine) -> Result<(), SimError>>;

/// A way to launch under a fault plan.
type Entry = fn(&mut Machine, FaultPlan) -> Result<(), SimError>;

/// 64 words of main memory for the kernels to fetch.
fn data(m: &mut Machine) -> Result<Addr, SimError> {
    m.alloc_main_slice::<u32>(64)
}

/// A kernel with one bulk DMA fetch, so transfer faults have something
/// to hit.
fn body(ctx: &mut AccelCtx<'_>, remote: Addr) -> Result<(), SimError> {
    ArrayAccessor::<u32>::fetch(ctx, remote, 16)?;
    ctx.compute(100);
    Ok(())
}

fn via_install(m: &mut Machine, plan: FaultPlan) -> Result<(), SimError> {
    m.install_fault_plan(plan)
}

fn via_offload(m: &mut Machine, plan: FaultPlan) -> Result<(), SimError> {
    let remote = data(m)?;
    m.offload(0).faults(plan).run(|ctx| body(ctx, remote))?
}

fn via_sched(m: &mut Machine, plan: FaultPlan) -> Result<(), SimError> {
    let remote = data(m)?;
    m.offload(0)
        .faults(plan)
        .sched(SchedPolicy::WorkStealing)
        .accels(4)
        .run_tiles(4, |ctx, _| body(ctx, remote))
        .map(drop)
}

fn via_pipeline(m: &mut Machine, plan: FaultPlan) -> Result<(), SimError> {
    let remote = data(m)?;
    m.pipeline::<u32>()
        .stage(|ctx, _, chunk| {
            ctx.compute(chunk.len() as u64);
            Ok(())
        })
        .faults(plan)
        .run(remote, 64)
        .map(drop)
}

/// Every transfer corrupts: without a retry cap, recovery never ends.
fn storm() -> FaultPlan {
    FaultPlan::new(1).with_dma_corrupt(1.0)
}

/// A recovering dispatch of four tiles under [`storm`].
fn sched_recovering(
    m: &mut Machine,
    retries: u32,
    backoff: u64,
    steal_cost: u64,
) -> Result<(), SimError> {
    let remote = data(m)?;
    m.offload(0)
        .faults(storm())
        .sched(SchedPolicy::WorkStealing)
        .accels(4)
        .steal_cost(steal_cost)
        .retry(retries)
        .backoff(backoff)
        .fallback_host()
        .run_tiles(4, |ctx, _| body(ctx, remote))
        .map(drop)
}

/// A recovering two-stage pipeline under [`storm`].
fn pipeline_recovering(m: &mut Machine, retries: u32, backoff: u64) -> Result<(), SimError> {
    let remote = data(m)?;
    m.pipeline::<u32>()
        .stage(|_, _, _| Ok(()))
        .stage(|_, _, _| Ok(()))
        .faults(storm())
        .retry(retries)
        .backoff(backoff)
        .fallback_host()
        .run(remote, 64)
        .map(drop)
}

fn cases() -> Vec<(String, Case)> {
    let plans = [
        ("rate NaN", FaultPlan::new(1).with_dma_corrupt(f32::NAN)),
        ("rate 2.0", FaultPlan::new(1).with_dma_corrupt(2.0)),
        ("rate -1.0", FaultPlan::new(1).with_dma_drop(-1.0)),
        (
            "rate inf",
            FaultPlan::new(1).with_accel_death(f32::INFINITY),
        ),
        (
            "stall u64::MAX",
            FaultPlan::new(1)
                .with_accel_stall(1.0)
                .with_stall_cycles(u64::MAX),
        ),
        (
            "stall past the bound",
            FaultPlan::new(1)
                .with_accel_stall(1.0)
                .with_stall_cycles(MAX_CYCLES + 1),
        ),
        (
            "timeout stall u64::MAX",
            FaultPlan::new(1)
                .with_tag_timeout(1.0)
                .with_timeout_stall(u64::MAX),
        ),
    ];
    let entries: [(&str, Entry); 4] = [
        ("install", via_install),
        ("offload", via_offload),
        ("sched", via_sched),
        ("pipeline", via_pipeline),
    ];
    let mut cases: Vec<(String, Case)> = Vec::new();
    for (plan_name, plan) in plans {
        for (entry_name, entry) in entries {
            cases.push((
                format!("{entry_name}: {plan_name}"),
                Box::new(move |m| entry(m, plan)),
            ));
        }
    }
    let policy: [(&str, Case); 9] = [
        (
            "sched: retry 200,000",
            Box::new(|m| sched_recovering(m, 200_000, 1_000, 600)),
        ),
        (
            "sched: retry u32::MAX",
            Box::new(|m| sched_recovering(m, u32::MAX, 1_000, 600)),
        ),
        (
            "sched: retry one past the cap",
            Box::new(|m| sched_recovering(m, MAX_RETRIES + 1, 1_000, 600)),
        ),
        (
            "sched: backoff u64::MAX",
            Box::new(|m| sched_recovering(m, 2, u64::MAX, 600)),
        ),
        (
            "sched: steal cost u64::MAX",
            Box::new(|m| sched_recovering(m, 2, 1_000, u64::MAX)),
        ),
        (
            "pipeline: retry u32::MAX",
            Box::new(|m| pipeline_recovering(m, u32::MAX, 1_000)),
        ),
        (
            "pipeline: backoff u64::MAX",
            Box::new(|m| pipeline_recovering(m, 2, u64::MAX)),
        ),
        (
            "sched: zero lanes",
            Box::new(|m| {
                m.offload(0)
                    .faults(storm())
                    .sched(SchedPolicy::Static)
                    .accels(0)
                    .run_tiles(4, |_, _| Ok(()))
                    .map(drop)
            }),
        ),
        (
            "offload: no such accelerator",
            Box::new(|m| m.offload(6).faults(storm()).run(|_| ())),
        ),
    ];
    cases.extend(policy.map(|(name, case)| (name.to_string(), case)));
    cases
}

#[test]
fn every_extreme_is_refused_within_a_second_and_arms_nothing() {
    for (name, case) in cases() {
        let mut m = Machine::new(MachineConfig::default()).expect("default config");
        let t0 = Instant::now();
        let result = case(&mut m);
        let took = t0.elapsed();
        assert!(
            matches!(
                result,
                Err(SimError::BadConfig { .. } | SimError::NoSuchAccel { .. })
            ),
            "{name}: {result:?}"
        );
        assert!(took < Duration::from_secs(1), "{name} took {took:?}");
        assert!(m.fault_plan().is_none(), "{name}: a plan was armed");
        assert_eq!(m.host_now(), 0, "{name}: the host was charged");
        assert_eq!(m.stats().offloads, 0, "{name}: an offload launched");
    }
}

#[test]
fn cost_models_past_the_bound_are_refused() {
    let bad = [
        CostModel::cell_like().with_offload_overheads(u64::MAX, 300),
        CostModel::cell_like().with_offload_overheads(1_200, MAX_CYCLES + 1),
        CostModel {
            host_fallback_factor: u64::MAX,
            ..CostModel::cell_like()
        },
        CostModel::cell_like().with_dma(dma::DmaTiming {
            latency: u64::MAX,
            ..dma::DmaTiming::cell_like()
        }),
    ];
    for cost in bad {
        let config = MachineConfig {
            cost,
            ..MachineConfig::default()
        };
        let result = Machine::new(config);
        assert!(
            matches!(result, Err(SimError::BadConfig { .. })),
            "{cost:?}: {:?}",
            result.map(|_| ())
        );
    }
}

#[test]
fn the_bounds_themselves_are_accepted() {
    let start = Instant::now();
    let mut m = Machine::new(MachineConfig::default()).expect("default config");
    sched_recovering(&mut m, MAX_RETRIES, MAX_CYCLES, MAX_CYCLES).expect("falls back");
    assert_eq!(m.stats().recovery_retries, 4 * u64::from(MAX_RETRIES));
    assert_eq!(m.stats().recovery_fallbacks, 4);
    let mut m = Machine::new(MachineConfig::default()).expect("default config");
    pipeline_recovering(&mut m, MAX_RETRIES, MAX_CYCLES).expect("falls back");
    let edge = FaultPlan::new(1)
        .with_accel_stall(1.0)
        .with_stall_cycles(MAX_CYCLES)
        .with_tag_timeout(0.0)
        .with_timeout_stall(MAX_CYCLES);
    let mut m = Machine::new(MachineConfig::default()).expect("default config");
    via_offload(&mut m, edge).expect("a maximal stall is legal");
    assert!(m.host_now() > MAX_CYCLES);
    assert!(start.elapsed() < Duration::from_secs(1));
}

/// A 512 KiB cache no local store can hold, through the single offload
/// and the work-stealing scheduler. It used to be built only once the
/// launch was under way: the host had paid the launch overhead,
/// `offloads` counted it and the log held an `OffloadStart` with no end
/// (plus one `SchedEnqueue` per lane through the scheduler). The launch
/// contract now refuses it for every lane before anything happens.
#[test]
fn an_oversized_cache_is_refused_before_anything_is_charged() {
    let oversized = CacheChoice::SetAssoc(CacheConfig::new(128, 4096, 1));
    type CacheEntry = fn(&mut Machine, CacheChoice, Addr) -> Result<(), SimError>;
    let entries: [(&str, MachineConfig, CacheEntry); 2] = [
        ("offload", MachineConfig::small(), |m, choice, remote| {
            m.offload(0).cache(choice).run(|ctx| body(ctx, remote))?
        }),
        ("sched", MachineConfig::default(), |m, choice, remote| {
            m.offload(0)
                .cache(choice)
                .sched(SchedPolicy::WorkStealing)
                .accels(4)
                .run_tiles(4, |ctx, _| body(ctx, remote))
                .map(drop)
        }),
    ];
    for (name, config, entry) in entries {
        let mut m = Machine::new(config).expect("valid config");
        m.events_mut().set_enabled(true);
        let remote = data(&mut m).expect("fits");
        let before = m.snapshot();
        let t0 = Instant::now();
        let result = entry(&mut m, oversized, remote);
        assert!(t0.elapsed() < Duration::from_secs(1), "{name}");
        assert!(
            matches!(result, Err(SimError::Cache(_))),
            "{name}: {result:?}"
        );
        m.snapshot()
            .diff(&before)
            .unwrap_or_else(|d| panic!("{name}: {d}"));
        // The same launch with a cache that fits runs.
        let fits = CacheChoice::SetAssoc(CacheConfig::four_way_16k());
        entry(&mut m, fits, remote).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A dispatch used to drop builder-declared gathers on the floor, so a
/// kernel reading `ctx.gathered(0)` panicked on an empty list. The
/// scheduler now refuses them up front.
#[test]
fn sched_refuses_builder_declared_gathers() {
    let mut m = Machine::new(MachineConfig::default()).expect("default config");
    let base = data(&mut m).expect("fits");
    let result = m
        .offload(0)
        .gather(base, 4, vec![3, 1, 2])
        .sched(SchedPolicy::Static)
        .accels(2)
        .run_tiles(2, |ctx, _| {
            let _ = ctx.gathered(0);
            Ok(())
        });
    assert!(
        matches!(result, Err(SimError::BadConfig { .. })),
        "{:?}",
        result.map(drop)
    );
}

/// A builder-declared gather whose span leaves main memory (`[3,
/// 1_000_000]` over 64 words) or the 32-bit address range
/// (`[u32::MAX]`). The first used to be charged as a launch whose
/// gather failed mid-batch, leaving an `OffloadStart`, a `DmaIssue` and
/// a `DmaWait` with no `OffloadEnd`; the second panicked in the
/// builder. Both are now refused before the launch is armed.
#[test]
fn a_builder_gather_outside_main_memory_is_refused_before_anything_is_charged() {
    for indices in [vec![3, 1_000_000], vec![u32::MAX]] {
        let mut m = Machine::new(MachineConfig::small()).expect("valid config");
        m.events_mut().set_enabled(true);
        let base = data(&mut m).expect("fits");
        let before = m.snapshot();
        let t0 = Instant::now();
        let result = m
            .offload(0)
            .gather(base, 4, indices.clone())
            .run(|ctx| ctx.compute(100));
        assert!(t0.elapsed() < Duration::from_secs(1), "{indices:?}");
        assert!(
            matches!(result, Err(SimError::Memory(_))),
            "{indices:?}: {result:?}"
        );
        m.snapshot()
            .diff(&before)
            .unwrap_or_else(|d| panic!("{indices:?}: {d}"));
    }
}

/// A kernel-side gather whose byte offsets pass 2^32: `[1 << 30, 5]`
/// used to wrap element 2^30 onto element 0 and return `Ok` in release
/// (and panic in debug), and `[u32::MAX]` panicked in debug. Both are
/// refused before the gather allocates local store or issues a
/// descriptor.
#[test]
fn a_kernel_gather_past_the_address_range_is_refused_before_it_issues() {
    for indices in [vec![1 << 30, 5], vec![u32::MAX]] {
        let mut m = Machine::new(MachineConfig::small()).expect("valid config");
        let base = data(&mut m).expect("fits");
        let t0 = Instant::now();
        let result = m
            .offload(0)
            .run(|ctx| {
                let (now, mark) = (ctx.now(), ctx.local_alloc_mark());
                let result = ctx.gather(&simcell::GatherPlan::new(base, 4, indices.clone()));
                assert_eq!((ctx.now(), ctx.local_alloc_mark()), (now, mark));
                result
            })
            .expect("the launch itself is fine");
        assert!(t0.elapsed() < Duration::from_secs(1), "{indices:?}");
        assert!(
            matches!(result, Err(SimError::Memory(_))),
            "{indices:?}: {result:?}"
        );
        assert_eq!(m.stats().dma_gets, 0, "{indices:?}: no descriptor issued");
    }
}

/// A gather whose packed buffer passes 2^32 bytes: 4096 elements of
/// 1 MiB. `GatherPlan::total_bytes` used to panic in debug and return 0
/// in release; it now returns the error `descriptors` returns, and the
/// kernel's gather is refused before it allocates or issues anything.
#[test]
fn a_gather_buffer_past_the_address_range_is_refused() {
    let mut m = Machine::new(MachineConfig::small()).expect("valid config");
    let base = data(&mut m).expect("fits");
    let plan = simcell::GatherPlan::new(base, 1 << 20, vec![0; 4096]);
    let t0 = Instant::now();
    let total = plan.total_bytes();
    assert!(
        matches!(total, Err(memspace::MemError::AddressOverflow { .. })),
        "{total:?}"
    );
    assert_eq!(total, plan.descriptors().map(|_| 0));
    let result = m
        .offload(0)
        .run(|ctx| {
            let (now, mark) = (ctx.now(), ctx.local_alloc_mark());
            let result = ctx.gather(&plan);
            assert_eq!((ctx.now(), ctx.local_alloc_mark()), (now, mark));
            result
        })
        .expect("the launch itself is fine");
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert!(matches!(result, Err(SimError::Memory(_))), "{result:?}");
    assert_eq!(m.stats().dma_gets, 0, "no descriptor issued");
}

/// A dispatch over lanes the machine lacks used to arm its fault plan
/// before checking the lanes, so the refused run left the plan
/// installed.
#[test]
fn a_refused_dispatch_leaves_no_plan_armed() {
    let mut m = Machine::new(MachineConfig::default()).expect("default config");
    let result = m
        .offload(4)
        .faults(FaultPlan::uniform(7, 0.1))
        .sched(SchedPolicy::Static)
        .accels(5)
        .run_tiles(4, |_, _| Ok(()));
    assert!(result.is_err(), "lanes 4..9 exceed a 6-accelerator machine");
    assert!(m.fault_plan().is_none());
}

/// A host fallback whose penalty overflows the host clock: one tile of
/// 2^25 cycles at the largest legal penalty factor (2^40). It used to
/// wrap the clock in release and panic in debug; now it is refused,
/// the clock stays where the fallback started, and its span is closed.
#[test]
fn a_fallback_past_the_host_clock_is_refused() {
    let config = MachineConfig {
        cost: CostModel::cell_like().with_host_fallback_factor(MAX_CYCLES),
        ..MachineConfig::default()
    };
    let mut m = Machine::new(config).expect("the factor is at the bound");
    m.events_mut().set_enabled(true);
    let t0 = Instant::now();
    let result = m
        .offload(0)
        .faults(FaultPlan::new(1).with_accel_death(1.0))
        .sched(SchedPolicy::Static)
        .accels(1)
        .fallback_host()
        .run_tiles(1, |ctx, _| {
            ctx.compute(1 << 25);
            Ok(())
        });
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert!(
        matches!(result, Err(SimError::BadConfig { .. })),
        "{:?}",
        result.map(drop)
    );
    let host_spans: Vec<_> = m
        .events()
        .events()
        .iter()
        .filter(|e| e.core() == CoreId::Host)
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SpanStart { .. } | EventKind::SpanEnd { .. }
            )
        })
        .collect();
    assert_eq!(host_spans.len(), 2, "{host_spans:?}");
    let (open, close) = (host_spans[0], host_spans[1]);
    assert!(matches!(open.kind, EventKind::SpanStart { .. }), "{open}");
    assert!(matches!(close.kind, EventKind::SpanEnd { .. }), "{close}");
    assert_eq!(close.at, open.at, "the span closes where it opened");
    assert_eq!(m.host_now(), open.at, "the host clock did not move");
    assert_eq!(m.stats().recovery_fallback_cycles, 0);
}

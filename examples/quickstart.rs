//! Quickstart: the three ways offloaded code can reach host memory,
//! and what each costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the simulated Cell-like machine, puts an array in main
//! memory, and sums it from an accelerator three ways: naive
//! per-element outer access (one DMA round trip each), through a
//! software cache, and with one bulk `Array` accessor transfer — the
//! progression paper §4.2 walks through.

use offload_repro::offload_rt::prelude::*;

const N: u32 = 1024;

fn main() -> Result<(), SimError> {
    let mut machine = Machine::new(MachineConfig::default())?;
    println!(
        "machine: host + {} accelerators, {} KiB local stores\n",
        machine.accel_count(),
        machine.config().local_store_size / 1024
    );

    let data = machine.alloc_main_slice::<u32>(N)?;
    let values: Vec<u32> = (0..N).collect();
    machine.main_mut().write_pod_slice(data, &values)?;
    let expected: u32 = values.iter().sum();

    // 1. Naive: each element is a synchronous DMA round trip.
    let naive = machine
        .offload(0)
        .run(|ctx| -> Result<(u32, u64), SimError> {
            let t0 = ctx.now();
            let mut sum = 0u32;
            for i in 0..N {
                sum = sum.wrapping_add(ctx.outer_read_pod::<u32>(data.element(i, 4)?)?);
            }
            Ok((sum, ctx.now() - t0))
        })??;

    // 2. Through the software cache the launch installs: misses fetch
    //    whole lines.
    let cached = machine
        .offload(0)
        .cache(CacheChoice::SetAssoc(CacheConfig::direct_mapped_4k()))
        .run(|ctx| -> Result<(u32, u64), SimError> {
            let t0 = ctx.now();
            let mut sum = 0u32;
            for i in 0..N {
                sum = sum.wrapping_add(ctx.cached_read_pod::<u32>(data.element(i, 4)?)?);
            }
            Ok((sum, ctx.now() - t0))
        })??;

    // 3. The Array accessor: one bulk transfer, then local reads.
    let bulk = machine
        .offload(0)
        .run(|ctx| -> Result<(u32, u64), SimError> {
            let t0 = ctx.now();
            let array = ArrayAccessor::<u32>::fetch(ctx, data, N)?;
            let mut sum = 0u32;
            for i in 0..N {
                sum = sum.wrapping_add(array.get(ctx, i)?);
            }
            Ok((sum, ctx.now() - t0))
        })??;

    for (name, (sum, cycles)) in [
        ("naive outer", naive),
        ("software cache", cached),
        ("Array accessor", bulk),
    ] {
        assert_eq!(sum, expected, "every style computes the same sum");
        println!(
            "{name:>16}: {cycles:>9} accelerator cycles  ({:.1} cycles/element)",
            cycles as f64 / f64::from(N)
        );
    }
    println!(
        "\nspeedups: cache {:.1}x, accessor {:.1}x over naive",
        naive.1 as f64 / cached.1 as f64,
        naive.1 as f64 / bulk.1 as f64
    );
    println!("DMA races detected: {}", machine.races_detected());
    Ok(())
}

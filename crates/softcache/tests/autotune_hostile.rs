//! Hostile input to the cache-policy autotuner. Every case in the table
//! must come back from `autotune`, `model_cycles` and `replay_exact` as
//! `Err` within a second: no hang, no overflow panic in debug builds and
//! no wrapped clock in release builds.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use dma::DmaTiming;
use softcache::autotune::{
    autotune, model_cycles, replay_exact, AccessRecord, TraceOp, TuneOptions,
};
use softcache::{CacheChoice, CacheConfig, CacheError, WritePolicy};

fn read(offset: u32, len: u32) -> AccessRecord {
    AccessRecord {
        span: 0,
        op: TraceOp::Read { offset, len },
    }
}

fn compute(cycles: u64) -> AccessRecord {
    AccessRecord {
        span: 0,
        op: TraceOp::Compute { cycles },
    }
}

fn with_dma(dma: DmaTiming) -> TuneOptions {
    TuneOptions {
        dma,
        ..TuneOptions::default()
    }
}

/// A hostile case: a name, a trace, the options it is tuned with, and
/// whether the fault reaches the cache paths too (a local-store access
/// cost only prices the naive path's staging copies).
type Case = (&'static str, Vec<AccessRecord>, TuneOptions, bool);

/// The hostile cases.
fn cases() -> Vec<Case> {
    let cell = DmaTiming::cell_like();
    vec![
        (
            "empty staging buffer",
            vec![read(0, 64)],
            TuneOptions {
                staging_size: 0,
                ..TuneOptions::default()
            },
            true,
        ),
        (
            "no main memory, empty trace",
            Vec::new(),
            TuneOptions {
                main_capacity: 0,
                ..TuneOptions::default()
            },
            true,
        ),
        (
            "no main memory, compute-only trace",
            vec![compute(100)],
            TuneOptions {
                main_capacity: 0,
                ..TuneOptions::default()
            },
            true,
        ),
        (
            "read past the 32-bit address space",
            vec![read(u32::MAX - 2, 8)],
            TuneOptions::default(),
            true,
        ),
        (
            "compute of u64::MAX cycles",
            vec![read(0, 64), compute(u64::MAX)],
            TuneOptions::default(),
            true,
        ),
        (
            "compute summing past u64::MAX",
            vec![
                compute(u64::MAX / 2 + 1),
                read(0, 16),
                compute(u64::MAX / 2 + 1),
            ],
            TuneOptions::default(),
            true,
        ),
        (
            "DMA latency of u64::MAX",
            vec![read(0, 64)],
            with_dma(DmaTiming {
                latency: u64::MAX,
                ..cell
            }),
            true,
        ),
        (
            "DMA setup of u64::MAX",
            vec![read(0, 64)],
            with_dma(DmaTiming {
                setup: u64::MAX,
                ..cell
            }),
            true,
        ),
        (
            "DMA issue cost of u64::MAX",
            vec![read(0, 64)],
            with_dma(DmaTiming {
                issue_cost: u64::MAX,
                ..cell
            }),
            true,
        ),
        (
            "local-store access cost of u64::MAX",
            vec![read(0, 64)],
            TuneOptions {
                ls_access_cost: u64::MAX,
                ..TuneOptions::default()
            },
            false,
        ),
    ]
}

/// One choice per model and replay path.
fn families() -> Vec<CacheChoice> {
    vec![
        CacheChoice::Naive,
        CacheChoice::SetAssoc(CacheConfig::new(64, 64, 2)),
        CacheChoice::SetAssoc(CacheConfig::new(64, 64, 2).write_policy(WritePolicy::WriteThrough)),
        CacheChoice::Stream(CacheConfig::new(256, 1, 1)),
    ]
}

/// Runs `f` on its own thread and returns its result; fails the test if
/// `f` panics or has not returned within a second.
fn within_a_second<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(1)) {
        Ok(value) => {
            worker.join().expect("the worker returned after sending");
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            let payload = worker
                .join()
                .expect_err("a worker that sent nothing panicked");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string payload");
            panic!("{name}: panicked: {message}")
        }
        // A hung worker cannot be joined; it ends with the test process.
        Err(RecvTimeoutError::Timeout) => panic!("{name}: no result within 1 s"),
    }
}

#[test]
fn hostile_tuner_input_returns_err_within_a_second() {
    for (name, records, opts, caches_too) in cases() {
        let result = within_a_second(name, {
            let (records, opts) = (records.clone(), opts.clone());
            move || autotune(&records, &opts).map(|report| report.winner().choice)
        });
        assert!(
            matches!(result, Err(CacheError::Untunable { .. })),
            "{name}: autotune returned {result:?}"
        );
        let choices = if caches_too {
            families()
        } else {
            vec![CacheChoice::Naive]
        };
        for choice in choices {
            let (records, opts) = (records.clone(), opts.clone());
            let (modelled, replayed) = within_a_second(name, move || {
                (
                    model_cycles(&choice, &records, &opts),
                    replay_exact(&choice, &records, &opts),
                )
            });
            assert!(
                matches!(modelled, Err(CacheError::Untunable { .. })),
                "{name}: model_cycles for {choice} returned {modelled:?}"
            );
            assert!(
                matches!(replayed, Err(CacheError::Untunable { .. })),
                "{name}: replay_exact for {choice} returned {replayed:?}"
            );
        }
    }
}

#[test]
fn grids_whose_sizes_overflow_are_skipped() {
    // 2^30-byte lines times 16 ways and two 2^31-byte stream buffers do
    // not fit in 32 bits: those candidates are skipped, not overflowed.
    let opts = TuneOptions {
        ls_budget: u32::MAX,
        line_sizes: vec![1 << 30],
        capacities: vec![1 << 30],
        ways: vec![16],
        stream_lines: vec![1 << 31],
        ..TuneOptions::default()
    };
    assert_eq!(opts.candidates(&[read(0, 64)]), vec![CacheChoice::Naive]);
}

#[test]
fn struct_literal_geometry_is_rejected_by_the_model() {
    // The model indexes lines by shift and mask like the real cache, so
    // it refuses the same geometries the cache constructors refuse.
    let config = CacheConfig {
        num_sets: 48,
        ..CacheConfig::new(64, 64, 1)
    };
    let trace = [read(0, 64)];
    let opts = TuneOptions::default();
    for choice in [CacheChoice::SetAssoc(config), CacheChoice::Stream(config)] {
        assert!(matches!(
            model_cycles(&choice, &trace, &opts),
            Err(CacheError::BadGeometry { .. })
        ));
        assert!(matches!(
            replay_exact(&choice, &trace, &opts),
            Err(CacheError::BadGeometry { .. })
        ));
    }
}

//! Chunked and double-buffered streaming over main-memory arrays.
//!
//! Paper §4.1: "processing objects in groups of uniform type permits
//! prefetching and double buffered transfers, for further performance
//! increases." [`process_stream`] is that double-buffered pipeline:
//! while the core computes on chunk *i* in one local buffer, the DMA
//! engine is already fetching chunk *i+1* into the other (and draining
//! chunk *i−1*'s write-back). [`process_chunked`] is the single-buffered
//! baseline: fetch, wait, compute, put, wait — no overlap.

use dma::Tag;
use memspace::{Addr, Pod};
use simcell::{AccelCtx, SimError};

use crate::STREAM_TAGS;

/// Configuration of a streaming pass.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Elements per chunk (per local buffer).
    pub chunk_elems: u32,
    /// Whether processed chunks are written back to main memory.
    pub write_back: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            chunk_elems: 64,
            write_back: true,
        }
    }
}

impl StreamConfig {
    /// Derives the streaming configuration an autotuned
    /// [`CacheChoice`](softcache::CacheChoice) implies: the
    /// double-buffered chunk adopts the tuned line size, in elements of
    /// `T`. Returns `None` unless the choice is a streaming one — the
    /// other families do not describe a sequential prefetch depth.
    pub fn from_choice<T: Pod>(
        choice: &softcache::CacheChoice,
        write_back: bool,
    ) -> Option<StreamConfig> {
        choice
            .stream_chunk_elems(T::SIZE as u32)
            .map(|chunk_elems| StreamConfig {
                chunk_elems,
                write_back,
            })
    }
}

fn stream_tag(which: usize) -> Tag {
    Tag::new(STREAM_TAGS[which]).expect("constant tags are valid")
}

/// Streams `len` elements starting at `remote` through the closure in
/// single-buffered chunks (no compute/transfer overlap).
///
/// The closure receives the index of the chunk's first element and the
/// chunk contents; whatever it leaves in the slice is written back when
/// `config.write_back` is set.
///
/// # Errors
///
/// Propagates allocation and transfer failures, and whatever the
/// closure returns.
pub fn process_chunked<T, F>(
    ctx: &mut AccelCtx<'_>,
    remote: Addr,
    len: u32,
    config: StreamConfig,
    mut f: F,
) -> Result<(), SimError>
where
    T: Pod,
    F: FnMut(&mut AccelCtx<'_>, u32, &mut [T]) -> Result<(), SimError>,
{
    ctx.span_start("process_chunked");
    let chunk_elems = config.chunk_elems.max(1);
    let buffer = ctx.alloc_local_slice::<T>(chunk_elems)?;
    let tag = stream_tag(0);
    let elem = T::SIZE as u32;
    // One scratch allocation reused across every chunk.
    let mut chunk: Vec<T> = Vec::with_capacity(chunk_elems as usize);
    let mut base = 0u32;
    while base < len {
        let n = chunk_elems.min(len - base);
        let r = remote.element(base, elem)?;
        ctx.dma_get(buffer, r, n * elem, tag)?;
        ctx.dma_wait_tag(tag);
        // Surface an injected tag timeout before computing on data
        // that may not have fully arrived.
        ctx.check_faults()?;
        chunk.clear();
        ctx.local_read_slice_into(buffer, n, &mut chunk)?;
        f(ctx, base, &mut chunk)?;
        if config.write_back {
            ctx.local_write_slice(buffer, &chunk)?;
            // A chunk in a `read`-declared range that came through the
            // transform unchanged needs no put at all (and one that
            // changed is an undeclared write).
            if !ctx.writeback_elidable(buffer, r, n * elem)? {
                ctx.dma_put(buffer, r, n * elem, tag)?;
                ctx.dma_wait_tag(tag);
                ctx.check_faults()?;
            }
        }
        base += n;
    }
    ctx.span_end("process_chunked");
    Ok(())
}

/// Streams `len` elements starting at `remote` through the closure with
/// double buffering: chunk `i+1` is fetched while chunk `i` is being
/// processed, and write-backs drain behind the compute.
///
/// Semantics match [`process_chunked`]; only the schedule differs.
///
/// # Errors
///
/// As for [`process_chunked`].
pub fn process_stream<T, F>(
    ctx: &mut AccelCtx<'_>,
    remote: Addr,
    len: u32,
    config: StreamConfig,
    mut f: F,
) -> Result<(), SimError>
where
    T: Pod,
    F: FnMut(&mut AccelCtx<'_>, u32, &mut [T]) -> Result<(), SimError>,
{
    let chunk_elems = config.chunk_elems.max(1);
    let buffers = [
        ctx.alloc_local_slice::<T>(chunk_elems)?,
        ctx.alloc_local_slice::<T>(chunk_elems)?,
    ];
    let elem = T::SIZE as u32;
    if len == 0 {
        return Ok(());
    }
    ctx.span_start("process_stream");
    let chunk_count = len.div_ceil(chunk_elems);
    let chunk_len = |i: u32| chunk_elems.min(len - i * chunk_elems);
    let chunk_remote = |i: u32| remote.element(i * chunk_elems, elem);
    // One scratch allocation reused across every chunk.
    let mut chunk: Vec<T> = Vec::with_capacity(chunk_elems as usize);

    // Prime the pipeline with chunk 0.
    ctx.dma_get(
        buffers[0],
        chunk_remote(0)?,
        chunk_len(0) * elem,
        stream_tag(0),
    )?;

    for i in 0..chunk_count {
        let cur = (i % 2) as usize;
        let nxt = 1 - cur;
        // Prefetch the next chunk into the other buffer. Its tag first
        // drains the write-back of chunk i-1 that used the same buffer.
        if i + 1 < chunk_count {
            ctx.dma_wait_tag(stream_tag(nxt));
            ctx.dma_get(
                buffers[nxt],
                chunk_remote(i + 1)?,
                chunk_len(i + 1) * elem,
                stream_tag(nxt),
            )?;
        }
        // Wait for the current chunk and process it. A timed-out wait
        // means the buffer may be stale; surface it before computing.
        ctx.dma_wait_tag(stream_tag(cur));
        ctx.check_faults()?;
        let n = chunk_len(i);
        chunk.clear();
        ctx.local_read_slice_into(buffers[cur], n, &mut chunk)?;
        f(ctx, i * chunk_elems, &mut chunk)?;
        if config.write_back {
            ctx.local_write_slice(buffers[cur], &chunk)?;
            // A chunk in a `read`-declared range that came through the
            // transform unchanged needs no put at all (and one that
            // changed is an undeclared write).
            if !ctx.writeback_elidable(buffers[cur], chunk_remote(i)?, n * elem)? {
                // Non-blocking put: it drains while the next chunk computes.
                ctx.dma_put(buffers[cur], chunk_remote(i)?, n * elem, stream_tag(cur))?;
            }
        }
    }
    // Drain the pipeline.
    ctx.dma_wait_tag(stream_tag(0));
    ctx.dma_wait_tag(stream_tag(1));
    ctx.check_faults()?;
    ctx.span_end("process_stream");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::{Machine, MachineConfig};
    use softcache::autotune::{autotune, replay_exact, TuneOptions};
    use softcache::{CacheChoice, CacheConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    fn prepared(m: &mut Machine, len: u32) -> Addr {
        let remote = m.alloc_main_slice::<u32>(len).unwrap();
        let values: Vec<u32> = (0..len).collect();
        m.main_mut().write_pod_slice(remote, &values).unwrap();
        remote
    }

    #[test]
    fn chunked_transforms_every_element() {
        let mut m = machine();
        let remote = prepared(&mut m, 300);
        m.offload(0)
            .run(|ctx| {
                process_chunked::<u32, _>(
                    ctx,
                    remote,
                    300,
                    StreamConfig::default(),
                    |ctx, _, chunk| {
                        for v in chunk.iter_mut() {
                            *v += 1000;
                        }
                        ctx.compute(chunk.len() as u64);
                        Ok(())
                    },
                )
            })
            .unwrap()
            .unwrap();
        let out = m.main().read_pod_slice::<u32>(remote, 300).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1000));
    }

    #[test]
    fn stream_transforms_every_element() {
        let mut m = machine();
        let remote = prepared(&mut m, 300);
        m.offload(0)
            .run(|ctx| {
                process_stream::<u32, _>(
                    ctx,
                    remote,
                    300,
                    StreamConfig::default(),
                    |ctx, base, chunk| {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            assert_eq!(*v, base + i as u32, "chunks arrive in order");
                            *v *= 2;
                        }
                        ctx.compute(chunk.len() as u64);
                        Ok(())
                    },
                )
            })
            .unwrap()
            .unwrap();
        let out = m.main().read_pod_slice::<u32>(remote, 300).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn double_buffering_beats_single_buffering() {
        // With non-trivial per-chunk compute, the double-buffered
        // pipeline hides transfer latency behind compute.
        let run = |double: bool| -> u64 {
            let mut m = machine();
            let remote = prepared(&mut m, 4096);
            let config = StreamConfig {
                chunk_elems: 256,
                write_back: true,
            };
            let work = |ctx: &mut AccelCtx<'_>, _: u32, chunk: &mut [u32]| {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
                ctx.compute(4 * chunk.len() as u64);
                Ok(())
            };
            let handle = m
                .offload(0)
                .spawn(|ctx| {
                    if double {
                        process_stream::<u32, _>(ctx, remote, 4096, config, work)
                    } else {
                        process_chunked::<u32, _>(ctx, remote, 4096, config, work)
                    }
                })
                .unwrap();
            let elapsed = handle.elapsed();
            m.join(handle).unwrap();
            elapsed
        };
        let single = run(false);
        let double = run(true);
        assert!(
            double * 10 < single * 9,
            "double buffering should win by >10%: {double} vs {single}"
        );
    }

    #[test]
    fn streaming_is_race_free() {
        let mut m = machine();
        let remote = prepared(&mut m, 1000);
        m.offload(0)
            .run(|ctx| {
                process_stream::<u32, _>(
                    ctx,
                    remote,
                    1000,
                    StreamConfig {
                        chunk_elems: 96,
                        write_back: true,
                    },
                    |_, _, chunk| {
                        for v in chunk.iter_mut() {
                            *v ^= 0xffff_ffff;
                        }
                        Ok(())
                    },
                )
            })
            .unwrap()
            .unwrap();
        assert_eq!(m.races_detected(), 0, "{:?}", m.take_race_reports());
    }

    #[test]
    fn read_only_stream_issues_no_puts() {
        let mut m = machine();
        let remote = prepared(&mut m, 256);
        let config = StreamConfig {
            chunk_elems: 64,
            write_back: false,
        };
        let sum = m
            .offload(0)
            .run(|ctx| -> Result<u64, SimError> {
                let mut sum = 0u64;
                process_stream::<u32, _>(ctx, remote, 256, config, |_, _, chunk| {
                    sum += chunk.iter().map(|&v| u64::from(v)).sum::<u64>();
                    Ok(())
                })?;
                Ok(sum)
            })
            .unwrap()
            .unwrap();
        assert_eq!(sum, (0..256u64).sum::<u64>());
        assert_eq!(m.dma_stats(0).unwrap().puts, 0);
    }

    #[test]
    fn empty_and_partial_chunks() {
        let mut m = machine();
        let remote = prepared(&mut m, 100);
        // 100 elements in chunks of 64 -> one full + one partial chunk.
        m.offload(0)
            .run(|ctx| {
                process_stream::<u32, _>(
                    ctx,
                    remote,
                    100,
                    StreamConfig {
                        chunk_elems: 64,
                        write_back: true,
                    },
                    |_, _, chunk| {
                        for v in chunk.iter_mut() {
                            *v += 1;
                        }
                        Ok(())
                    },
                )?;
                // Zero-length stream is a no-op.
                process_stream::<u32, _>(ctx, remote, 0, StreamConfig::default(), |_, _, _| {
                    panic!("closure must not run for an empty stream")
                })
            })
            .unwrap()
            .unwrap();
        let out = m.main().read_pod_slice::<u32>(remote, 100).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn closure_errors_propagate() {
        let mut m = machine();
        let remote = prepared(&mut m, 64);
        let result = m
            .offload(0)
            .run(|ctx| {
                process_chunked::<u32, _>(ctx, remote, 64, StreamConfig::default(), |_, _, _| {
                    Err(SimError::BadConfig {
                        reason: "synthetic".into(),
                    })
                })
            })
            .unwrap();
        assert!(matches!(result, Err(SimError::BadConfig { .. })));
    }

    #[test]
    fn stream_config_derivation() {
        let stream = CacheChoice::Stream(CacheConfig::new(1024, 1, 1));
        let cfg = StreamConfig::from_choice::<u32>(&stream, true).unwrap();
        assert_eq!(cfg.chunk_elems, 256);
        assert!(cfg.write_back);
        assert!(StreamConfig::from_choice::<u32>(&CacheChoice::Naive, true).is_none());
        let assoc = CacheChoice::SetAssoc(CacheConfig::four_way_16k());
        assert!(StreamConfig::from_choice::<u32>(&assoc, false).is_none());
    }

    #[test]
    fn autotuned_choice_applies_and_reproduces_its_predicted_cycles() {
        // Capture a sequential scan, tune it, install the winner with
        // the builder's `cache`, and check the tuned run (a) beats naive
        // and (b) lands exactly on the cycles exact replay predicted.
        let len = 16 * 1024u32;
        let run = |choice: CacheChoice, capture: bool| -> (u64, Vec<_>) {
            let mut m = machine();
            m.access_trace_mut().set_enabled(capture);
            let data = m.alloc_main(len, 16).unwrap();
            let elapsed = m
                .offload(0)
                .cache(choice)
                .run(move |ctx| -> Result<u64, SimError> {
                    let t0 = ctx.now();
                    let mut buf = [0u8; 16];
                    for off in (0..len - 16).step_by(16) {
                        ctx.cached_read_bytes(data.offset_by(off)?, &mut buf)?;
                    }
                    Ok(ctx.now() - t0)
                })
                .unwrap()
                .unwrap();
            (elapsed, m.access_trace().records().to_vec())
        };

        let (naive_cycles, trace) = run(CacheChoice::Naive, true);
        let opts = TuneOptions::default();
        let report = autotune(&trace, &opts).unwrap();
        let winner = report.winner();
        assert_eq!(winner.choice.family(), "stream", "sequential scans stream");

        let (tuned_cycles, _) = run(winner.choice, false);
        assert!(tuned_cycles < naive_cycles);
        assert_eq!(
            tuned_cycles,
            replay_exact(&winner.choice, &trace, &opts).unwrap(),
            "applying the tuned choice reproduces the validated replay bit-identically"
        );
    }
}

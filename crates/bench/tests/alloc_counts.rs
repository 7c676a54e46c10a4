//! Exact heap-allocation counts for the trace round trip.
//!
//! A counting global allocator tallies every allocation and
//! reallocation per thread, so tests running in parallel do not mix
//! their counts. Unlike a wall-clock time, a count is exact: each pin
//! below is what one layer does to one input, the same on every run and
//! in debug and release builds. A change that lowers a count tightens
//! its pin.

#[path = "common/captures.rs"]
mod captures;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use captures::captures;
use simcell::{chrome_trace_json, parse_chrome_trace, EventLog};

thread_local! {
    /// Allocations and reallocations this thread has made so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling
/// thread.
struct Counting;

impl Counting {
    fn tally() {
        // An allocation made while the thread tears down its locals
        // goes uncounted rather than panicking.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
// The counter is a const-initialised thread-local `Cell` without a
// destructor, so counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::tally();
        // SAFETY: the caller keeps this method's contract, which is
        // `System`'s too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::tally();
        // SAFETY: the caller keeps this method's contract, which is
        // `System`'s too.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::tally();
        // SAFETY: the caller keeps this method's contract, which is
        // `System`'s too.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller keeps this method's contract, which is
        // `System`'s too.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` three times and returns its allocation count, which must
/// not vary between runs.
fn exact_count<T>(what: &str, mut f: impl FnMut() -> T) -> u64 {
    let counts: Vec<u64> = (0..3).map(|_| counted(&mut f).1).collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{what}: allocation counts vary between runs: {counts:?}"
    );
    counts[0]
}

/// Each capture's event count and the allocations of exporting it with
/// `chrome_trace_json`: the sorted view of the log, the open-slice
/// stack and the output buffer's growth.
const EXPORT_PINS: [(&str, usize, u64); 5] = [
    ("e2", 26, 9),
    ("e2-sched", 473, 14),
    ("e2-faults", 564, 16),
    ("e2-pipe", 400, 13),
    ("transfers", 48, 10),
];

/// Allocations of parsing any capture back with `parse_chrome_trace`:
/// the events vector, sized once from the input. No exported name holds
/// an escape, so every name borrows from the input.
const PARSE_ALLOCATIONS: u64 = 1;

#[test]
fn the_trace_round_trip_allocates_the_pinned_counts() {
    for ((name, machine), (pinned, events, export)) in captures().iter().zip(EXPORT_PINS) {
        assert_eq!(*name, pinned);
        let log = machine.events();
        assert_eq!(log.len(), events, "{name}: events");
        let json = chrome_trace_json(log);
        let exported = exact_count(name, || chrome_trace_json(log));
        assert_eq!(exported, export, "{name}: export allocations");
        let parsed = exact_count(name, || parse_chrome_trace(&json).expect("valid JSON"));
        assert_eq!(parsed, PARSE_ALLOCATIONS, "{name}: parse allocations");
    }
}

/// The log's "allocation-free when disabled" claim, counted: recording
/// every event of the five captures into a disabled log allocates
/// nothing.
#[test]
fn recording_into_a_disabled_log_allocates_nothing() {
    for (name, machine) in &captures() {
        let events = machine.events().events().to_vec();
        let mut log = EventLog::new();
        let ((), allocations) = counted(|| {
            for e in events {
                log.record(e.at, e.kind);
            }
            log.note_static(0, "static note");
        });
        assert_eq!(allocations, 0, "{name}");
        assert_eq!(log.capacity(), 0, "{name}");
    }
}

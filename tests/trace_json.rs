//! The Chrome trace exporter and parser through the public API.
//!
//! `parse_chrome_trace` is the validity check every trace round trip
//! leans on, so it must treat hostile input as data: a truncated or
//! corrupted file, an out-of-range number or a broken escape comes back
//! as `Err`, never as a panic. The corruption pass is seeded with the
//! in-repo [`xrng`] generator, so a failure names a repeatable input.

use std::borrow::Cow;
use std::panic;

use offload_repro::simcell::{
    chrome_trace_json, parse_chrome_trace, ChromeEvent, CoreId, EventKind, EventLog,
};
use xrng::Rng;

const GOLDEN: [(&str, &str); 2] = [
    ("e2.json", include_str!("golden/traces/e2.json")),
    (
        "transfers.json",
        include_str!("golden/traces/transfers.json"),
    ),
];

/// Bytes a corruption writes: JSON structure, digits, escape letters,
/// and a newline.
const HOSTILE: &[u8] = b"\"\\{}[],:0123456789u/nx\n";

const CORRUPTIONS: usize = 20_000;

/// How many of the prefixes and corruptions parse, and how many do not.
const SPLIT: (usize, usize) = (1_792, 25_282);

/// FNV-1a over every event of every input that parses, in order.
const EVENTS_DIGEST: u64 = 0xc7a4_27ab_f0fd_0bba;

/// Folds bytes into a 64-bit FNV-1a hash.
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Folds one parsed input into `hash`: its event count, then each
/// event's name (length first), phase, timestamp, duration and thread.
fn fold_events(mut hash: u64, events: &[ChromeEvent]) -> u64 {
    hash = fnv(hash, &(events.len() as u64).to_le_bytes());
    for e in events {
        let name: &str = &e.name;
        hash = fnv(hash, &(name.len() as u64).to_le_bytes());
        hash = fnv(hash, name.as_bytes());
        hash = fnv(hash, &u32::from(e.ph).to_le_bytes());
        hash = fnv(hash, &e.ts.to_le_bytes());
        let dur = e.dur.map_or([0; 9], |d| {
            let mut bytes = [1; 9];
            bytes[1..].copy_from_slice(&d.to_le_bytes());
            bytes
        });
        hash = fnv(hash, &dur);
        hash = fnv(hash, &e.tid.to_le_bytes());
    }
    hash
}

/// Parses `input`, failing the test with the input named by `what` if
/// the parser panics. Returns the input's events folded into `hash`
/// when it parses.
fn parses(input: &str, what: &str, hash: u64) -> Option<u64> {
    match panic::catch_unwind(|| parse_chrome_trace(input).map(|e| fold_events(hash, &e))) {
        Ok(result) => result.ok(),
        Err(_) => panic!("parse_chrome_trace panicked on {what}:\n{input}"),
    }
}

#[test]
fn truncated_and_corrupted_traces_parse_or_err_without_panicking() {
    let (mut ok, mut err) = (0usize, 0usize);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut tally = |input: &str, what: String| match parses(input, &what, digest) {
        Some(hash) => {
            ok += 1;
            digest = hash;
        }
        None => err += 1,
    };

    for (name, golden) in GOLDEN {
        assert!(golden.is_ascii(), "{name}: corruptions assume ASCII input");
        assert!(parse_chrome_trace(golden).is_ok(), "{name} itself parses");
        for cut in (0..=golden.len()).filter(|&i| golden.is_char_boundary(i)) {
            tally(&golden[..cut], format!("{name} cut at byte {cut}"));
        }
    }

    let mut rng = Rng::new(0x7ace);
    for round in 0..CORRUPTIONS {
        let (name, golden) = GOLDEN[round % GOLDEN.len()];
        let mut bytes = golden.as_bytes().to_vec();
        for _ in 0..3 {
            let at = rng.below_u32(bytes.len() as u32) as usize;
            bytes[at] = HOSTILE[rng.below_u32(HOSTILE.len() as u32) as usize];
        }
        // ASCII over ASCII stays valid UTF-8.
        let input = String::from_utf8(bytes).expect("ASCII corruption of ASCII input");
        tally(&input, format!("corruption {round} of {name}"));
    }

    let prefixes: usize = GOLDEN.iter().map(|(_, g)| g.len() + 1).sum();
    assert_eq!(ok + err, prefixes + CORRUPTIONS);
    // Every input is accepted or refused exactly as before, and every
    // accepted one parses to the same events.
    assert_eq!((ok, err), SPLIT, "(Ok, Err)");
    assert_eq!(
        digest, EVENTS_DIGEST,
        "digest of the parsed events: {digest:#018x}"
    );
}

#[test]
fn out_of_range_numbers_and_broken_escapes_are_errors() {
    let cases = [
        (
            r#"{"traceEvents":[{"name":"x","ph":"i","ts":18446744073709551616}]}"#,
            "overflows u64",
        ),
        (
            r#"{"traceEvents":[{"name":"x","ph":"i","args":{"n":99999999999999999999}}]}"#,
            "overflows u64",
        ),
        (
            r#"{"traceEvents":[{"name":"never closed"#,
            "unterminated string",
        ),
        (
            r#"{"traceEvents":[{"name":"ends in \"#,
            "unterminated escape",
        ),
        (r#"{"traceEvents":[{"name":"\u00"#, "truncated \\u escape"),
        (
            r#"{"traceEvents":[{"name":"\u00zz","ph":"i"}]}"#,
            "bad \\u escape",
        ),
    ];
    for (input, reason) in cases {
        match parse_chrome_trace(input) {
            Ok(events) => panic!("{input} parsed as {events:?}"),
            Err(e) => assert!(e.contains(reason), "{input}: {e:?} is not {reason:?}"),
        }
    }
}

/// Every digit count from 1 to 20, at both ends, and `u64::MAX`: the
/// exporter writes each timestamp as its decimal text, and the parser
/// reads it back.
#[test]
fn numbers_of_every_length_round_trip_through_export_and_parse() {
    let mut numbers: Vec<u64> = (0..20)
        .flat_map(|k| [10u64.pow(k) - 1, 10u64.pow(k)])
        .collect();
    numbers.push(u64::MAX);
    numbers.sort_unstable();
    numbers.dedup();
    let mut log = EventLog::new();
    log.set_enabled(true);
    for &n in &numbers {
        log.note_static(n, "n");
    }
    let json = chrome_trace_json(&log);
    for n in &numbers {
        assert!(json.contains(&format!("\"ts\":{n},")), "export writes {n}");
    }
    let parsed: Vec<u64> = parse_chrome_trace(&json)
        .expect("exporter emits valid JSON")
        .iter()
        .filter(|e| e.ph != 'M')
        .map(|e| e.ts)
        .collect();
    assert_eq!(parsed, numbers);
}

#[test]
fn a_slice_ending_past_u64_max_saturates() {
    let json = r#"{"traceEvents":[
        {"name":"late","ph":"X","ts":18446744073709551615,"dur":5,"pid":0,"tid":0},
        {"name":"early","ph":"X","ts":0,"dur":10,"pid":0,"tid":0}
    ]}"#;
    let events = parse_chrome_trace(json).expect("u64::MAX is in range");
    let (late, early) = (&events[0], &events[1]);
    assert_eq!(late.end(), u64::MAX);
    assert!(!late.overlaps(early) && !early.overlaps(late));
}

#[test]
fn names_that_need_escaping_round_trip_through_export_and_parse() {
    const NAMES: [&str; 8] = [
        "quote \" mark",
        "back\\slash",
        "new\nline",
        "tab\there",
        "control \u{1} char",
        "café",
        "a → b",
        "all of \" \\ \n \t \u{1} é →",
    ];
    let mut log = EventLog::new();
    log.set_enabled(true);
    let core = CoreId::Host;
    for (at, name) in (0..).step_by(40).zip(NAMES) {
        // Each escaped name sits between names written in one piece, so
        // the plain and the escaping path run next to each other.
        log.note_static(at, "plain");
        log.note_static(at + 10, name);
        log.record(at + 20, EventKind::SpanStart { core, name });
        log.record(at + 30, EventKind::SpanEnd { core, name });
    }
    log.note(1_000, String::from("owned \"note\""));
    let expected: Vec<&str> = NAMES
        .iter()
        .flat_map(|&name| ["plain", name, name, name])
        .chain(["owned \"note\""])
        .collect();

    let json = chrome_trace_json(&log);
    for escaped in [
        r#"quote \" mark"#,
        r"back\\slash",
        r"new\nline",
        r"\u0001",
        "café",
        "→",
    ] {
        assert!(json.contains(escaped), "export writes {escaped:?}");
    }
    let names: Vec<Cow<'_, str>> = parse_chrome_trace(&json)
        .expect("exporter emits valid JSON")
        .into_iter()
        .filter(|e| e.ph != 'M')
        .map(|e| e.name)
        .collect();
    assert_eq!(names, expected);
    // A name borrows from the JSON unless the exporter had to escape it.
    for name in &names {
        let escaped = name.contains(|c: char| c == '"' || c == '\\' || c < ' ');
        assert_eq!(matches!(name, Cow::Owned(_)), escaped, "{name:?}");
    }
}

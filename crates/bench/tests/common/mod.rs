//! Helpers shared by `bench`'s integration tests.

use std::path::PathBuf;

/// Path of `name` under the repository's `tests/golden` directory.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `actual` with the golden file `name` (relative to
/// `tests/golden`) byte for byte; on a mismatch the panic names the
/// file and its first differing line.
pub fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let mut line = 1;
    loop {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => line += 1,
            (w, g) => panic!(
                "{} differs from the test's output at line {line}:\n  golden: {}\n  actual: {}",
                path.display(),
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

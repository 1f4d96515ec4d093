//! The line ratchet: the non-test lines of each crate under `crates/` must
//! equal what `perf/lines.json` records. A non-test line is a non-blank
//! line of a `src/**/*.rs` file above the file's first column-0
//! `#[cfg(test)]`. A change that moves a count rewrites the file in the
//! same diff, so every change's line delta per crate shows in review.

use std::collections::BTreeMap;
use std::path::Path;

/// Non-blank lines of `text` above its first column-0 `#[cfg(test)]`.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim().is_empty())
        .count()
}

/// Non-test lines of every `.rs` file under `dir`, recursively.
fn lines_under(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).expect("readable source directory");
    entries
        .map(|entry| entry.expect("readable directory entry").path())
        .map(|path| {
            if path.is_dir() {
                lines_under(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                non_test_lines(&std::fs::read_to_string(&path).expect("readable source file"))
            } else {
                0
            }
        })
        .sum()
}

/// `perf/lines.json`'s text for the tree at `root`: one `"crate": lines`
/// entry a crate, in name order.
fn ratchet_json(root: &Path) -> String {
    let crates = std::fs::read_dir(root.join("crates")).expect("a crates directory");
    let counts: BTreeMap<String, usize> = crates
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.join("src").is_dir())
        .map(|path| {
            let name = path.file_name().expect("a crate directory name");
            (
                name.to_string_lossy().into_owned(),
                lines_under(&path.join("src")),
            )
        })
        .collect();
    let entries: Vec<String> = counts
        .iter()
        .map(|(name, lines)| format!("  \"{name}\": {lines}"))
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

#[test]
fn non_test_lines_match_the_ratchet() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("perf/lines.json");
    let recorded = std::fs::read_to_string(&path).expect("perf/lines.json");
    let actual = ratchet_json(root);
    assert!(
        recorded == actual,
        "non-test lines per crate differ from {}; if the change is meant, \
         replace the file with:\n{actual}",
        path.display()
    );
}

#[test]
fn the_count_skips_blank_lines_and_the_test_region() {
    let text = "//! Doc.\n\nfn a() {}\n    \n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(non_test_lines(text), 2);
    // Only a column-0 attribute starts the test region.
    assert_eq!(
        non_test_lines("fn a() {}\n    #[cfg(test)]\nfn b() {}\n"),
        3
    );
}

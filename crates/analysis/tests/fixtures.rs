//! Snapshot tests: each must-fail fixture under `tests/fixtures/` produces
//! exactly the diagnostics recorded in its `.expected` file, and the
//! `acd-lint` binary reports them with the right exit code.
//!
//! To regenerate a snapshot after an intentional message change:
//! `cargo run -p acd-analysis --bin acd-lint -- --root crates/analysis/tests/fixtures \
//!  crates/analysis/tests/fixtures/<fixture> > <fixture stem>.expected`

use std::path::PathBuf;
use std::process::Command;

use acd_analysis::{lint_paths, Config};

/// Fixture root; also used as `--root` so the panic-hygiene test-path
/// exemption (which keys on `tests/` path segments relative to the root)
/// does not swallow the fixtures.
fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Renders every diagnostic the library finds for one fixture file.
fn rendered(fixture: &str) -> String {
    let dir = fixtures_dir();
    let config = Config::new(&dir);
    let report = lint_paths(&config, &[dir.join(fixture)]).expect("fixture readable");
    report.diagnostics.iter().map(|d| d.render()).collect()
}

fn expected(stem: &str) -> String {
    std::fs::read_to_string(fixtures_dir().join(format!("{stem}.expected")))
        .expect("snapshot readable")
}

#[test]
fn hot_alloc_fixture_matches_snapshot() {
    assert_eq!(rendered("hot_alloc_bad.rs"), expected("hot_alloc_bad"));
}

#[test]
fn panic_hygiene_fixture_matches_snapshot() {
    assert_eq!(
        rendered("panic_hygiene_bad.rs"),
        expected("panic_hygiene_bad")
    );
}

#[test]
fn vendor_fixture_matches_snapshot() {
    assert_eq!(rendered("vendor_bad.toml"), expected("vendor_bad"));
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    assert_eq!(rendered("clean.rs"), "");
}

/// Runs the real binary against one fixture and returns (exit code, stdout).
fn run_binary(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_acd-lint"))
        .current_dir(fixtures_dir())
        .args(args)
        .output()
        .expect("acd-lint runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn binary_exits_nonzero_on_every_failing_fixture() {
    for fixture in [
        "hot_alloc_bad.rs",
        "panic_hygiene_bad.rs",
        "vendor_bad.toml",
    ] {
        let (code, stdout) = run_binary(&[fixture]);
        assert_eq!(code, 1, "{fixture} must fail the lint");
        assert!(!stdout.is_empty(), "{fixture} must print diagnostics");
    }
}

#[test]
fn binary_exits_zero_on_the_clean_fixture() {
    let (code, stdout) = run_binary(&["clean.rs"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "");
}

#[test]
fn binary_json_output_is_parseable_shape() {
    let (code, stdout) = run_binary(&["--json", "panic_hygiene_bad.rs"]);
    assert_eq!(code, 1);
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{stdout}"
    );
    assert!(trimmed.contains("\"lint\":\"panic-hygiene\""), "{stdout}");
    assert!(trimmed.contains("\"line\":5"), "{stdout}");
}

#[test]
fn binary_rejects_empty_invocation_with_usage_error() {
    let (code, _) = run_binary(&[]);
    assert_eq!(code, 2);
}

//! Workspace-level invariant gate: the whole repository must pass `acd-lint`.
//! Running under `cargo test` means a violation fails the same command CI
//! runs — no separate lint step can drift.

use std::path::PathBuf;

use acd_analysis::{lint_paths, lint_workspace, Config};

/// `CARGO_MANIFEST_DIR` of the root `acd` package is the workspace root.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&Config::new(workspace_root())).expect("workspace readable");
    assert!(
        report.is_clean(),
        "acd-lint found {} violation(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<String>()
    );
    // Guard against a silently-broken walker reporting "clean" because it
    // looked at nothing: the workspace has many sources and one manifest per
    // crate plus the root's.
    assert!(
        report.sources >= 40,
        "walker found {} sources",
        report.sources
    );
    assert!(
        report.manifests >= 7,
        "walker found {} manifests",
        report.manifests
    );
}

/// Runs `--strict-indexing` over one crate's sources and fails on any
/// violation, or if the walker looked at fewer than `min_sources` files.
fn assert_strict_indexing_clean(crate_src: &str, min_sources: usize) {
    let config = Config {
        root: workspace_root(),
        strict_indexing: true,
    };
    let report =
        lint_paths(&config, &[workspace_root().join(crate_src)]).expect("crate sources readable");
    assert!(
        report.is_clean(),
        "acd-lint --strict-indexing found {} violation(s) in {crate_src}:\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<String>()
    );
    assert!(
        report.sources >= min_sources,
        "walker found {} sources",
        report.sources
    );
}

/// The broker crate is the wire boundary — it parses untrusted bytes — so it
/// is additionally held to `--strict-indexing`: no bare slice/array indexing,
/// only `get`/`get_mut`, destructuring, or reasoned suppressions. Mirrors the
/// dedicated CI step so a violation also fails plain `cargo test`.
#[test]
fn broker_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("crates/broker/src", 10);
}

/// The covering crate serves every subscribe's query, so it is held to the
/// same rule; mirrors its CI step.
#[test]
fn covering_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("crates/core/src", 10);
}

/// The storage crate holds the workspace's one decoder (`codec::Cursor`),
/// which reads wire frames as well as files, so it is held to the same rule.
#[test]
fn storage_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("crates/storage/src", 6);
}

//! Workspace-level lint gate: the whole repository must pass clippy with
//! `-D warnings`. Every library `lib.rs` denies `unwrap`, `panic!`,
//! `unreachable!`, `todo!` and `unimplemented!` outside `cfg(test)`, and
//! storage, core and broker also deny `indexing_slicing`, so a clean clippy
//! run is the panic and indexing gate. Running it under `cargo test` means a
//! violation fails the same command as the tests, not only CI's `lint` job.
//!
//! Each test runs `cargo clippy` (the `CARGO` that runs the tests) at the
//! workspace root; the runs share one target directory, so they take its
//! lock in turn and the later ones find the earlier ones' units fresh.

use std::path::Path;
use std::process::Command;

/// `CARGO_MANIFEST_DIR` of the root `acd` package is the workspace root.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `cargo clippy <targets> -- -D warnings` at the workspace root and
/// fails with clippy's report if it finds anything. Every caller passes the
/// same lint arguments, so the runs reuse each other's checked units.
fn assert_clippy_clean(targets: &[&str]) {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(workspace_root())
        .args(["clippy", "--offline", "--quiet"])
        .args(targets)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo starts");
    assert!(
        out.status.success(),
        "cargo clippy {} -- -D warnings failed ({}):\n{}",
        targets.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn workspace_is_lint_clean() {
    assert_clippy_clean(&["--workspace", "--all-targets"]);
}

/// Fails unless `lib_rs` denies `clippy::indexing_slicing` outside
/// `cfg(test)` and clippy finds nothing in `package`'s library: no bare
/// slice or array indexing, only `get`/`get_mut`, destructuring, or reasoned
/// `#[expect(clippy::indexing_slicing, reason = "…")]` waivers.
fn assert_strict_indexing_clean(package: &str, lib_rs: &str) {
    let lib = std::fs::read_to_string(workspace_root().join(lib_rs)).expect("lib.rs readable");
    assert!(
        lib.lines().any(|line| {
            line.starts_with("#![cfg_attr(not(test), deny(")
                && line.contains("clippy::indexing_slicing")
        }),
        "{lib_rs} no longer denies clippy::indexing_slicing outside cfg(test)"
    );
    assert_clippy_clean(&["-p", package, "--lib"]);
}

/// The broker crate is the wire boundary — it parses untrusted bytes — so it
/// is additionally held to strict indexing.
#[test]
fn broker_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("acd-broker", "crates/broker/src/lib.rs");
}

/// The covering crate serves every subscribe's query, so it is held to the
/// same rule.
#[test]
fn covering_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("acd-covering", "crates/core/src/lib.rs");
}

/// The storage crate holds the workspace's one decoder (`codec::Cursor`),
/// which reads wire frames as well as files, so it is held to the same rule.
#[test]
fn storage_crate_passes_strict_indexing() {
    assert_strict_indexing_clean("acd-storage", "crates/storage/src/lib.rs");
}

//! The pluggable lint registry.
//!
//! A lint sees each lexed Rust source file and each `Cargo.toml` manifest
//! and returns diagnostics; the driver ([`crate::lint_workspace`]) applies
//! inline `allow` suppressions afterwards, so lints themselves stay oblivious
//! to suppression mechanics. Adding a lint is: implement [`Lint`], append it
//! in [`registry`], document it in the README.

use std::path::Path;

use crate::diagnostics::Diagnostic;
use crate::source::SourceFile;

pub mod hot_alloc;
pub mod panic_hygiene;
pub mod vendor;

/// One pluggable invariant check.
pub trait Lint {
    /// The name used in diagnostics and `allow(<name>)` directives.
    fn name(&self) -> &'static str;

    /// Checks one lexed Rust source file.
    fn check_source(&self, _file: &SourceFile) -> Vec<Diagnostic> {
        Vec::new()
    }

    /// Checks one `Cargo.toml` manifest.
    fn check_manifest(&self, _path: &Path, _text: &str) -> Vec<Diagnostic> {
        Vec::new()
    }
}

/// Every lint, in the order a lint run applies them; `strict_indexing` also
/// flags slice/array indexing (`--strict-indexing`).
pub fn registry(strict_indexing: bool) -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(hot_alloc::HotPathAlloc),
        Box::new(panic_hygiene::PanicHygiene { strict_indexing }),
        Box::new(vendor::VendorDiscipline),
    ]
}

/// Names of every registered lint (used to validate `allow(...)` directives).
pub fn known_lints() -> Vec<&'static str> {
    registry(false).iter().map(|l| l.name()).collect()
}

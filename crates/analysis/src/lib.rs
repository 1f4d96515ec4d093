//! `acd-analysis`: a zero-dependency invariant checker for this workspace.
//!
//! The crate hand-rolls a Rust lexer ([`lexer`]), a diagnostic type with
//! rustc-style and JSON renderings ([`diagnostics`]), directive parsing
//! ([`source`]), and a pluggable lint registry ([`lints`]) — and wires them
//! into a workspace driver ([`lint_workspace`]) used both by the `acd-lint`
//! binary and by in-tree `#[test]`s, so CI and `cargo test` agree on what
//! "clean" means.
//!
//! Lints: `hot-path-alloc` (no allocations in `// acd-lint: hot`
//! functions), `panic-hygiene` (no `unwrap`/panicking macros in library
//! code), `vendor-discipline` (no registry/git dependencies). The lock
//! order needs no lint: `acd-broker`'s `lock` module makes it a type.
//! Suppress a finding with `// acd-lint: allow(<lint>) <reason>` — the
//! reason is mandatory, and reason-less or unknown-lint directives are
//! themselves reported under the reserved `lint-directive` name.

pub mod diagnostics;
pub mod lexer;
pub mod lints;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diagnostics::{render_json, Diagnostic};
use source::SourceFile;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; diagnostics are reported relative to it.
    pub root: PathBuf,
    /// Also flag slice/array indexing in library code (`--strict-indexing`).
    pub strict_indexing: bool,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            strict_indexing: false,
        }
    }
}

/// What a lint run looked at and found.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by path, line, column.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files checked.
    pub sources: usize,
    /// Number of `Cargo.toml` manifests checked.
    pub manifests: usize,
    /// Findings silenced by a reasoned `allow` directive.
    pub suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints the whole workspace rooted at `config.root`: the `src/` tree of the
/// root package and of every crate under `crates/`, plus all of their
/// manifests. `vendor/` (third-party stand-ins), `target/`, and test trees
/// are out of scope — the invariants are about the code this repo owns.
pub fn lint_workspace(config: &Config) -> io::Result<Report> {
    let root = &config.root;
    let mut sources = Vec::new();
    let mut manifests = vec![root.join("Cargo.toml")];
    if root.join("src").is_dir() {
        collect_rs(&root.join("src"), &mut sources)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            let manifest = krate.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut sources)?;
            }
        }
    }
    lint_files(config, &sources, &manifests)
}

/// Lints an explicit set of paths: directories are walked for `.rs` files,
/// `.toml` files are treated as manifests, `.rs` files as sources.
pub fn lint_paths(config: &Config, paths: &[PathBuf]) -> io::Result<Report> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    for path in paths {
        if path.is_dir() {
            collect_rs(path, &mut sources)?;
            let manifest = path.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        } else if path.extension().is_some_and(|e| e == "toml") {
            manifests.push(path.clone());
        } else {
            sources.push(path.clone());
        }
    }
    lint_files(config, &sources, &manifests)
}

fn lint_files(config: &Config, sources: &[PathBuf], manifests: &[PathBuf]) -> io::Result<Report> {
    let registry = lints::registry(config.strict_indexing);
    let known = lints::known_lints();
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;

    for path in sources {
        let text = fs::read_to_string(path)?;
        let file = SourceFile::parse(display_path(&config.root, path), text);
        for lint in &registry {
            for d in lint.check_source(&file) {
                if file.in_test_region(d.line) {
                    continue; // test code may violate deliberately
                }
                if file.is_allowed(d.lint, d.line) {
                    suppressed += 1;
                } else {
                    diagnostics.push(d);
                }
            }
        }
        // Directive hygiene: every allow must name a known lint and carry a
        // reason. These findings are themselves unsuppressable.
        for allow in &file.allows {
            if !known.contains(&allow.lint.as_str()) {
                diagnostics.push(Diagnostic {
                    lint: "lint-directive",
                    path: file.path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!(
                        "allow directive names unknown lint `{}` (known: {})",
                        allow.lint,
                        known.join(", ")
                    ),
                    snippet: file.line_text(allow.line),
                });
            } else if allow.reason.is_empty() {
                diagnostics.push(Diagnostic {
                    lint: "lint-directive",
                    path: file.path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!(
                        "allow({}) carries no reason; a suppression must document \
                         why the invariant is waived",
                        allow.lint
                    ),
                    snippet: file.line_text(allow.line),
                });
            }
        }
    }

    for path in manifests {
        let text = fs::read_to_string(path)?;
        let display = display_path(&config.root, path);
        for lint in &registry {
            diagnostics.extend(lint.check_manifest(&display, &text));
        }
    }

    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));
    Ok(Report {
        diagnostics,
        sources: sources.len(),
        manifests: manifests.len(),
        suppressed,
    })
}

/// Workspace-relative display path (falls back to the path as given).
fn display_path(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

/// Recursively collects `.rs` files, skipping `target/`, `vendor/`, and VCS
/// metadata. Entries are visited in sorted order so reports are stable.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n == "target" || n == "vendor" || n.starts_with('.'));
            if !skip {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analysis crate must pass its own lints (dogfood): this exercises
    /// the driver plumbing end-to-end on real files.
    #[test]
    fn own_sources_are_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let config = Config::new(&root);
        let report = lint_paths(&config, &[root.join("src")]).expect("crate sources readable");
        assert!(
            report.is_clean(),
            "acd-analysis violates its own lints:\n{}",
            report
                .diagnostics
                .iter()
                .map(|d| d.render())
                .collect::<String>()
        );
        assert!(
            report.sources >= 8,
            "walker missed files: {}",
            report.sources
        );
    }
}

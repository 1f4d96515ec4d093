//! Diagnostics: the record a lint emits and its rustc-style / JSON
//! renderings.

use std::fmt::Write as _;
use std::path::PathBuf;

/// One lint finding, anchored at a `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that produced the finding (its suppression name).
    pub lint: &'static str,
    /// Path as reported (workspace-relative when produced by a workspace
    /// run).
    pub path: PathBuf,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The full source line the finding points at (trimmed of trailing
    /// whitespace), echoed under the location like rustc does.
    pub snippet: String,
}

impl Diagnostic {
    /// Renders the diagnostic in the rustc-inspired two-line form:
    ///
    /// ```text
    /// error[panic-hygiene]: called `unwrap()` in library code; …
    ///   --> crates/broker/src/wire.rs:5:23
    ///    |     let first = input.unwrap();
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "error[{}]: {}", self.lint, self.message);
        let _ = writeln!(
            out,
            "  --> {}:{}:{}",
            self.path.display(),
            self.line,
            self.col
        );
        let _ = writeln!(out, "   | {}", self.snippet);
        out
    }

    /// Renders the diagnostic as a single JSON object (hand-rolled — this
    /// crate is dependency-free by design).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lint\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"snippet\":{}}}",
            json_str(self.lint),
            json_str(&self.path.display().to_string()),
            self.line,
            self.col,
            json_str(&self.message),
            json_str(&self.snippet),
        )
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a whole diagnostic list as a JSON array (one object per line for
/// greppability).
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&d.to_json());
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            lint: "panic-hygiene",
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            col: 9,
            message: "called `unwrap()` in library code".to_string(),
            snippet: "let v = thing.unwrap();".to_string(),
        }
    }

    #[test]
    fn renders_rustc_style() {
        let text = sample().render();
        assert!(text.starts_with("error[panic-hygiene]: "));
        assert!(text.contains("--> crates/x/src/lib.rs:3:9"));
        assert!(text.contains("thing.unwrap()"));
    }

    #[test]
    fn json_escapes_specials() {
        let mut d = sample();
        d.message = "quote \" backslash \\ newline \n".to_string();
        let json = d.to_json();
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
        let arr = render_json(&[d]);
        assert!(arr.starts_with('[') && arr.trim_end().ends_with(']'));
    }

    #[test]
    fn empty_list_renders_empty_array() {
        assert_eq!(render_json(&[]), "[]\n");
    }
}

//! `hot-path-alloc`: no allocating calls in functions marked hot.
//!
//! The covering-detection hot paths (the sweep inner loop, `SweepCursor`
//! stepping, the orthant seek, `Broker::publish` fan-out) were made
//! allocation-free in earlier work; this lint keeps them that way. A
//! function is opted in with a `// acd-lint: hot` marker comment directly
//! above it; inside the marked function's body the lint flags:
//!
//! * allocating method calls: `.to_vec()`, `.to_string()`, `.to_owned()`,
//!   `.into_owned()`, `.collect()`, `.join(…)`, `.concat()`, `.repeat(…)`;
//! * allocating constructors: `Box::new`, `Rc::new`, `Arc::new`,
//!   `Vec::with_capacity` / `Vec::from`, `String::with_capacity` /
//!   `String::from`, `HashMap::with_capacity`, `HashSet::with_capacity`,
//!   `VecDeque::with_capacity`;
//! * allocating macros: `vec![…]`, `format!(…)`.
//!
//! `.clone()` is deliberately not in the list — cloning a `Copy` key is the
//! common case in this codebase and a syntactic lint cannot tell the two
//! apart. `Vec::new`/`String::new` are lazy (no allocation until first
//! push) and are likewise permitted.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::lints::Lint;
use crate::source::{is_method_call, SourceFile};

const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "into_owned",
    "collect",
    "join",
    "concat",
    "repeat",
];

const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("HashMap", "with_capacity"),
    ("HashSet", "with_capacity"),
    ("VecDeque", "with_capacity"),
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

pub struct HotPathAlloc;

impl Lint for HotPathAlloc {
    fn name(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn check_source(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut diagnostics = Vec::new();
        let mut checked: Vec<usize> = Vec::new(); // fn-token indices already handled

        for &marker_line in &file.hot_markers {
            // The marker applies to the first `fn` at or below it (trailing
            // markers share the `fn` line; standalone markers sit above it).
            let Some(fn_idx) = code
                .iter()
                .position(|t| t.is_ident("fn") && t.line >= marker_line)
            else {
                continue;
            };
            if checked.contains(&fn_idx) {
                continue;
            }
            checked.push(fn_idx);
            let fn_name = code
                .get(fn_idx + 1)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .unwrap_or("<anonymous>")
                .to_string();

            // Body: the first `{` after the signature, to its matching `}`.
            let Some(open) = (fn_idx..code.len()).find(|&j| code[j].is_punct('{')) else {
                continue;
            };
            let mut depth = 1usize;
            let mut end = open + 1;
            while end < code.len() && depth > 0 {
                if code[end].is_punct('{') {
                    depth += 1;
                } else if code[end].is_punct('}') {
                    depth -= 1;
                }
                end += 1;
            }

            for i in open + 1..end.saturating_sub(1) {
                if let Some(what) = allocating_call(&code, i) {
                    diagnostics.push(file.diagnostic(
                        self.name(),
                        code[i],
                        format!(
                            "allocating call `{what}` inside hot function `{fn_name}` \
                             (marked `// acd-lint: hot` at line {marker_line})"
                        ),
                    ));
                }
            }
        }
        diagnostics
    }
}

/// If `code[i]` is the name token of an allocating call, returns a display
/// form of the call.
fn allocating_call(code: &[&Token], i: usize) -> Option<String> {
    let t = code[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    // `.to_vec()` and friends.
    if is_method_call(code, i) && ALLOC_METHODS.contains(&t.text.as_str()) {
        return Some(format!(".{}()", t.text));
    }
    // `Box::new(…)` and friends: Ident `:` `:` Ident `(`.
    if code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 4).is_some_and(|t| t.is_punct('('))
    {
        if let Some(method) = code.get(i + 3) {
            if ALLOC_PATHS
                .iter()
                .any(|&(ty, m)| t.is_ident(ty) && method.is_ident(m))
            {
                return Some(format!("{}::{}", t.text, method.text));
            }
        }
    }
    // `vec![…]` / `format!(…)`.
    if ALLOC_MACROS.contains(&t.text.as_str()) && code.get(i + 1).is_some_and(|t| t.is_punct('!')) {
        return Some(format!("{}!", t.text));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from("t.rs"), src.to_string());
        HotPathAlloc.check_source(&file)
    }

    #[test]
    fn flags_allocations_only_in_marked_functions() {
        let src = "\
fn cold() {
    let v = vec![1, 2, 3];
}
// acd-lint: hot
fn hot(xs: &[u32]) -> u32 {
    let copy = xs.to_vec();
    let boxed = Box::new(1u32);
    copy[0] + *boxed
}
fn also_cold() -> String {
    format!(\"{}\", 1)
}
";
        let diags = run(src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains(".to_vec()"));
        assert!(diags[0].message.contains("`hot`"));
        assert!(diags[1].message.contains("Box::new"));
    }

    #[test]
    fn vec_macro_and_collect_are_flagged() {
        let src = "\
// acd-lint: hot
fn hot() {
    let a = vec![0u8; 16];
    let b: Vec<u32> = (0..4).collect();
}
";
        let diags = run(src);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("vec!"));
        assert!(diags[1].message.contains(".collect()"));
    }

    #[test]
    fn clone_and_lazy_constructors_are_permitted() {
        let src = "\
// acd-lint: hot
fn hot(k: u64) -> u64 {
    let copy = k.clone();
    let lazy: Vec<u32> = Vec::new();
    copy
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn marker_does_not_leak_past_function_end() {
        let src = "\
// acd-lint: hot
fn hot() -> u32 {
    41 + 1
}
fn after() {
    let v = vec![1];
}
";
        assert!(run(src).is_empty());
    }
}

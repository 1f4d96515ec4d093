//! `lock-order`: syntactic enforcement of the documented lock hierarchy.
//!
//! The broker overlay (`crates/broker/src/network.rs`) and the daemon
//! sessions above it (`crates/broker/src/session.rs`) document a strict
//! acquisition order — daemon (`ledger`) → netreg (`registered`) → broker
//! (`brokers`) — and a deadlock needs exactly one code path that acquires
//! against it. This lint models the hierarchy as ranked **lock classes**
//! (see [`LOCK_CLASSES`], mirrored at runtime by `acd_covering::ordered`
//! and documented in `LOCKING.md`) and walks every function body tracking
//! which classes are held at each acquisition.
//!
//! The tracking is deliberately syntactic (no type information):
//!
//! * an *acquisition* is a `.read()` / `.write()` / `.lock()` call whose
//!   receiver chain (scanned back to the start of the statement) names a
//!   known class field or accessor — `self.registered.lock()`,
//!   `ledger.lock()`, `self.brokers[home].write()`,
//!   `self.cell(home).write()` all classify;
//! * an acquisition is *held* (until the end of its enclosing block) when it
//!   is the entire initializer of a `let` binding, modulo the poison-recovery
//!   chain (`.unwrap()`, `.expect("…")`, `.unwrap_or_else(…)`); anything
//!   else — a guard deref-copied through `*`, or a chained
//!   `.lock().…().len()` temporary — is *transient*: checked against the
//!   held set at the acquisition point, then considered released;
//! * acquiring a class ranked **below** any currently-held class, or
//!   re-acquiring a held class, is flagged.
//!
//! The approximation errs toward under-holding (a guard bound through a
//! tuple pattern is treated as transient), which can miss a violation but
//! never invents one; the runtime `OrderedRwLock` assertions are the
//! belt-and-braces that catch what syntax cannot.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::lints::Lint;
use crate::source::SourceFile;

/// One ranked lock class of the documented hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    /// Rank; classes must be acquired in increasing rank order.
    pub rank: u32,
    /// Class name used in diagnostics (matches `LOCKING.md`).
    pub name: &'static str,
    /// Field/binding identifiers that classify an acquisition.
    pub fields: &'static [&'static str],
}

/// The rank table. Keep in sync with `acd_covering::ordered::rank_table()`
/// and `LOCKING.md`; the workspace test `tests/acd_lint.rs` cross-checks the
/// two tables.
pub const LOCK_CLASSES: &[LockClass] = &[
    LockClass {
        rank: 3,
        name: "daemon",
        fields: &["ledger"],
    },
    LockClass {
        rank: 4,
        name: "netreg",
        fields: &["registered"],
    },
    LockClass {
        rank: 5,
        name: "broker",
        fields: &["brokers", "cell"],
    },
];

fn class_of_field(name: &str) -> Option<&'static LockClass> {
    LOCK_CLASSES.iter().find(|c| c.fields.contains(&name))
}

const ACQUIRE_METHODS: &[&str] = &["read", "write", "lock"];
const RECOVERY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

pub struct LockOrder;

#[derive(Debug)]
struct Held {
    class: &'static LockClass,
    /// Brace depth of the block the guard lives in; popped when the block
    /// closes.
    depth: usize,
}

impl Lint for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn check_source(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut diagnostics = Vec::new();
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut fn_body_floor: Vec<usize> = Vec::new();

        for i in 0..code.len() {
            let token = code[i];
            if token.is_punct('{') {
                depth += 1;
                continue;
            }
            if token.is_punct('}') {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
                // Leaving a function body resets the held set entirely: the
                // analysis is intra-procedural.
                if fn_body_floor.last().is_some_and(|&floor| depth < floor) {
                    fn_body_floor.pop();
                    held.clear();
                }
                continue;
            }
            if token.is_ident("fn") {
                // The body starts at the next `{` one level deeper.
                fn_body_floor.push(depth + 1);
                continue;
            }

            // An acquisition: `.` <method> `(` `)`.
            if token.kind != TokenKind::Ident
                || !ACQUIRE_METHODS.contains(&token.text.as_str())
                || i == 0
                || !code[i - 1].is_punct('.')
                || !code.get(i + 1).is_some_and(|t| t.is_punct('('))
                || !code.get(i + 2).is_some_and(|t| t.is_punct(')'))
            {
                continue;
            }
            let Some(class) = classify_receiver(&code, i - 1) else {
                continue;
            };

            if let Some(worst) = held.iter().max_by_key(|h| h.class.rank) {
                if class.rank < worst.class.rank {
                    diagnostics.push(file.diagnostic(
                        self.name(),
                        token,
                        format!(
                            "acquired `{}` (rank {}) while holding `{}` (rank {}); \
                             the documented order is daemon → netreg → broker \
                             (see LOCKING.md)",
                            class.name, class.rank, worst.class.name, worst.class.rank
                        ),
                    ));
                } else if class.rank == worst.class.rank {
                    diagnostics.push(file.diagnostic(
                        self.name(),
                        token,
                        format!(
                            "double acquisition of `{}` (rank {}): the class is \
                             non-reentrant, a second acquisition self-deadlocks",
                            class.name, class.rank
                        ),
                    ));
                }
            }

            if is_held_binding(&code, i) {
                held.push(Held { class, depth });
            }
        }
        diagnostics
    }
}

/// Scans backwards from the `.` of an acquisition to the start of the
/// statement (`;`, `{`, `}`, or a top-level `=`), returning the lock class
/// of the nearest classifying identifier in the receiver chain, if any.
fn classify_receiver(code: &[&Token], dot: usize) -> Option<&'static LockClass> {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        let t = code[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=') {
            return None;
        }
        if t.kind == TokenKind::Ident {
            if let Some(class) = class_of_field(&t.text) {
                return Some(class);
            }
        }
    }
    None
}

/// Whether the acquisition whose method identifier sits at `code[i]` is the
/// entire initializer of a `let` binding (so its guard lives until the end
/// of the enclosing block). See the module docs for the exact shape.
fn is_held_binding(code: &[&Token], i: usize) -> bool {
    // Forward: after `(` `)`, allow only poison-recovery calls, then `;`.
    let mut j = i + 3; // past `(` `)`
    loop {
        match (code.get(j), code.get(j + 1)) {
            (Some(t), _) if t.is_punct(';') => break,
            (Some(dot), Some(m))
                if dot.is_punct('.')
                    && m.kind == TokenKind::Ident
                    && RECOVERY_METHODS.contains(&m.text.as_str())
                    && code.get(j + 2).is_some_and(|t| t.is_punct('(')) =>
            {
                // Skip the balanced argument list.
                let mut depth = 1usize;
                j += 3;
                while depth > 0 {
                    match code.get(j) {
                        Some(t) if t.is_punct('(') => depth += 1,
                        Some(t) if t.is_punct(')') => depth -= 1,
                        Some(_) => {}
                        None => return false,
                    }
                    j += 1;
                }
            }
            _ => return false,
        }
    }

    // Backward: statement must be `let [mut] <ident> [: ty] = <receiver
    // chain>` with nothing but the plain receiver between `=` and the call.
    let mut k = i - 1; // the `.` before the method
    let mut saw_eq = false;
    while k > 0 {
        k -= 1;
        let t = code[k];
        if t.is_punct('=') {
            saw_eq = true;
            break;
        }
        // Receiver chain tokens only: identifiers, dots, indexing, calls.
        let plain = t.kind == TokenKind::Ident
            || t.kind == TokenKind::Number
            || ['.', '[', ']', '(', ')'].into_iter().any(|c| t.is_punct(c));
        if !plain {
            return false;
        }
    }
    if !saw_eq {
        return false;
    }
    // Before the `=`: `let` must start the statement.
    let mut saw_let = false;
    while k > 0 {
        k -= 1;
        let t = code[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            saw_let = true;
        }
    }
    saw_let
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from("t.rs"), src.to_string());
        LockOrder.check_source(&file)
    }

    #[test]
    fn in_order_acquisitions_are_clean() {
        let src = "\
fn ok(&self) {
    let ledger = self.ledger.lock();
    let registered = self.registered.lock();
    let broker = self.brokers[3].write();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn out_of_order_acquisition_is_flagged() {
        let src = "\
fn bad(&self) {
    let broker = self.brokers[0].read();
    let registered = self.registered.lock();
}
";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`netreg` (rank 4)"));
        assert!(diags[0].message.contains("`broker` (rank 5)"));
    }

    #[test]
    fn double_acquisition_is_flagged() {
        let src = "\
fn bad(&self) {
    let a = self.brokers[0].write();
    let b = self.brokers[1].write();
}
";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("double acquisition"));
    }

    #[test]
    fn transient_guards_release_at_statement_end() {
        // The deref-copied broker guard is a temporary: the registry lock
        // after it must NOT count as broker-then-netreg.
        let src = "\
fn ok(&self) {
    let ledger = self.ledger.lock();
    let home = *self.brokers[0].read();
    let len = self.registered.lock().len();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn block_scoped_guards_release_at_block_end() {
        let src = "\
fn ok(&self) {
    let ledger = self.ledger.lock();
    {
        let registered = self.registered.lock();
    }
    let registered = self.registered.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn held_set_resets_between_functions() {
        let src = "\
fn first(&self) {
    let registered = self.registered.lock();
}
fn second(&self) {
    let ledger = self.ledger.lock();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn poison_recovery_chain_still_counts_as_held() {
        let src = "\
fn bad(&self) {
    let registered = self.registered.lock().unwrap_or_else(|e| e.into_inner());
    let ledger = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
}
";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`daemon` (rank 3)"));
    }
}

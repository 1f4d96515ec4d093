//! A hand-rolled, lossless-enough Rust lexer for lint purposes.
//!
//! The lexer understands exactly the constructs that would otherwise make a
//! regex-grep lie about source structure:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes, byte strings, and raw strings with any
//!   number of `#` guards (`r"…"`, `r##"…"##`, `br#"…"#`);
//! * the `'a` lifetime vs `'a'` character-literal ambiguity;
//! * raw identifiers (`r#match`).
//!
//! It does **not** parse: lints work over the token stream with brace-depth
//! tracking, which is exactly enough for the syntactic invariants they
//! check. Every token carries a 1-based `line`/`col` so diagnostics point at
//! real source locations.

/// The coarse classification a lint needs to reason about a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, without `r#`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// A character or byte literal such as `'x'` / `b'\n'`.
    Char,
    /// A string or byte-string literal (text includes the quotes).
    Str,
    /// A raw (byte-)string literal (text includes the guards).
    RawStr,
    /// A numeric literal.
    Number,
    /// A `// …` comment (text includes the slashes).
    LineComment,
    /// A `/* … */` comment, possibly nested (text includes delimiters).
    BlockComment,
    /// Any other single character (`{`, `.`, `!`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl Token {
    /// Whether this token is a comment (lints usually skip these).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this is punctuation equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this is an identifier equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a token vector. The lexer never fails: malformed input
/// (an unterminated string, say) simply ends the current token at EOF —
/// rustc itself is the authority on well-formedness, the lint only needs
/// positions to stay honest on well-formed code.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    while let Some(b) = cur.peek() {
        let (line, col, start) = (cur.line, cur.col, cur.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                push(
                    &mut tokens,
                    TokenKind::LineComment,
                    src,
                    start,
                    &cur,
                    line,
                    col,
                );
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                push(
                    &mut tokens,
                    TokenKind::BlockComment,
                    src,
                    start,
                    &cur,
                    line,
                    col,
                );
            }
            b'r' | b'b' if starts_raw_string(&cur) => {
                // Optional `b`, then `r`, then `#…#"`.
                if cur.peek() == Some(b'b') {
                    cur.bump();
                }
                cur.bump(); // the `r`
                let mut hashes = 0usize;
                while cur.peek() == Some(b'#') {
                    hashes += 1;
                    cur.bump();
                }
                cur.bump(); // opening quote
                loop {
                    match cur.bump() {
                        Some(b'"') => {
                            let mut seen = 0usize;
                            while seen < hashes && cur.peek() == Some(b'#') {
                                seen += 1;
                                cur.bump();
                            }
                            if seen == hashes {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                push(&mut tokens, TokenKind::RawStr, src, start, &cur, line, col);
            }
            b'r' if cur.peek_at(1) == Some(b'#') && cur.peek_at(2).is_some_and(is_ident_start) => {
                // Raw identifier `r#match`: report the bare name.
                cur.bump();
                cur.bump();
                let name_start = cur.pos;
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[name_start..cur.pos].to_string(),
                    line,
                    col,
                });
            }
            b'b' if cur.peek_at(1) == Some(b'\'') => {
                cur.bump();
                lex_char_body(&mut cur);
                push(&mut tokens, TokenKind::Char, src, start, &cur, line, col);
            }
            b'b' if cur.peek_at(1) == Some(b'"') => {
                cur.bump();
                lex_string_body(&mut cur);
                push(&mut tokens, TokenKind::Str, src, start, &cur, line, col);
            }
            b'"' => {
                lex_string_body(&mut cur);
                push(&mut tokens, TokenKind::Str, src, start, &cur, line, col);
            }
            b'\'' => {
                if is_lifetime(&cur) {
                    cur.bump();
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[start + 1..cur.pos].to_string(),
                        line,
                        col,
                    });
                } else {
                    lex_char_body(&mut cur);
                    push(&mut tokens, TokenKind::Char, src, start, &cur, line, col);
                }
            }
            _ if is_ident_start(b) => {
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                push(&mut tokens, TokenKind::Ident, src, start, &cur, line, col);
            }
            _ if b.is_ascii_digit() => {
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                // A fractional part: `.` followed by a digit (never `..`).
                if cur.peek() == Some(b'.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                    cur.bump();
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                }
                push(&mut tokens, TokenKind::Number, src, start, &cur, line, col);
            }
            _ => {
                cur.bump();
                // Multi-byte UTF-8 punctuation: consume the whole character.
                while cur.peek().is_some_and(|c| (0x80..0xC0).contains(&c)) {
                    cur.bump();
                }
                push(&mut tokens, TokenKind::Punct, src, start, &cur, line, col);
            }
        }
    }
    tokens
}

fn push(
    tokens: &mut Vec<Token>,
    kind: TokenKind,
    src: &str,
    start: usize,
    cur: &Scanner<'_>,
    line: usize,
    col: usize,
) {
    tokens.push(Token {
        kind,
        text: src[start..cur.pos].to_string(),
        line,
        col,
    });
}

/// Whether the cursor sits at `r"`, `r#`+…+`"`, `br"`, or `br#`+…+`"`.
fn starts_raw_string(cur: &Scanner<'_>) -> bool {
    let mut i = 0usize;
    if cur.peek_at(i) == Some(b'b') {
        i += 1;
    }
    if cur.peek_at(i) != Some(b'r') {
        return false;
    }
    i += 1;
    while cur.peek_at(i) == Some(b'#') {
        i += 1;
    }
    cur.peek_at(i) == Some(b'"')
}

/// Disambiguates `'a` / `'static` (lifetimes) from `'a'` / `'\n'` (char
/// literals): after the quote, an identifier **not** followed by a closing
/// quote is a lifetime.
fn is_lifetime(cur: &Scanner<'_>) -> bool {
    match cur.peek_at(1) {
        Some(c) if is_ident_start(c) => {
            let mut i = 2usize;
            while cur.peek_at(i).is_some_and(is_ident_continue) {
                i += 1;
            }
            cur.peek_at(i) != Some(b'\'')
        }
        _ => false,
    }
}

/// Consumes a `"…"` body including the opening quote at the cursor.
fn lex_string_body(cur: &mut Scanner<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump();
            }
            Some(b'"') | None => break,
            Some(_) => {}
        }
    }
}

/// Consumes a `'…'` body including the opening quote at the cursor.
fn lex_char_body(cur: &mut Scanner<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump();
            }
            Some(b'\'') | None => break,
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_basic_statement() {
        let toks = kinds("let x = self.registry.lock();");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "self", ".", "registry", ".", "lock", "(", ")", ";"]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    // Golden tests: each pins the exact token stream for a construct that a
    // regex-grep would misread. If one of these changes shape, every lint's
    // view of the source changes with it.

    #[test]
    fn golden_nested_block_comment_is_one_token() {
        let toks = kinds("/* outer /* inner */ still outer */ after");
        assert_eq!(
            toks,
            vec![
                (
                    TokenKind::BlockComment,
                    "/* outer /* inner */ still outer */".to_string()
                ),
                (TokenKind::Ident, "after".to_string()),
            ]
        );
    }

    #[test]
    fn golden_unbalanced_nested_comment_swallows_to_eof() {
        // Missing one closer: the comment runs to EOF and `after` is inside.
        let toks = kinds("/* outer /* inner */ after");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
    }

    #[test]
    fn golden_raw_strings_respect_hash_guards() {
        // The `"#` inside is NOT a terminator: two hashes guard the string.
        let toks = kinds(r####"r##"has "# inside"## tail"####);
        assert_eq!(
            toks,
            vec![
                (TokenKind::RawStr, r###"r##"has "# inside"##"###.to_string()),
                (TokenKind::Ident, "tail".to_string()),
            ]
        );
    }

    #[test]
    fn golden_byte_raw_string_and_plain_raw_string() {
        let toks = kinds(r##"br#"bytes"# r"plain""##);
        assert_eq!(toks[0], (TokenKind::RawStr, r##"br#"bytes"#"##.to_string()));
        assert_eq!(toks[1], (TokenKind::RawStr, r#"r"plain""#.to_string()));
    }

    #[test]
    fn golden_string_escapes_do_not_end_the_literal() {
        let toks = kinds(r#""a \" b" next"#);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Str, r#""a \" b""#.to_string()),
                (TokenKind::Ident, "next".to_string()),
            ]
        );
    }

    #[test]
    fn golden_lifetime_vs_char_literal() {
        // `'a` in `&'a str` is a lifetime; `'a'` is a char literal; `'\''`
        // is an escaped char literal.
        let toks = kinds(r"&'a str 'x' '\'' 'static");
        assert_eq!(toks[0], (TokenKind::Punct, "&".to_string()));
        assert_eq!(toks[1], (TokenKind::Lifetime, "a".to_string()));
        assert_eq!(toks[2], (TokenKind::Ident, "str".to_string()));
        assert_eq!(toks[3].0, TokenKind::Char);
        assert_eq!(toks[4].0, TokenKind::Char);
        assert_eq!(toks[5], (TokenKind::Lifetime, "static".to_string()));
    }

    #[test]
    fn golden_raw_identifier_drops_the_guard() {
        let toks = kinds("r#match + r#fn");
        assert_eq!(toks[0], (TokenKind::Ident, "match".to_string()));
        assert_eq!(toks[2], (TokenKind::Ident, "fn".to_string()));
    }

    #[test]
    fn golden_doc_comments_are_line_comments() {
        let toks = kinds("/// x.unwrap()\n//! inner\ncode");
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::LineComment);
        assert_eq!(toks[2], (TokenKind::Ident, "code".to_string()));
    }

    #[test]
    fn golden_method_call_inside_string_is_not_a_call() {
        // The `.unwrap()` text lives inside a string literal: exactly one
        // Str token, no Ident("unwrap").
        let toks = kinds(r#"let m = "please .unwrap() me";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "unwrap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn golden_unterminated_string_reaches_eof_without_panic() {
        let toks = kinds("\"never closed");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokenKind::Str);
    }

    #[test]
    fn golden_numbers_and_punctuation() {
        let toks = kinds("foo[0] += 1_000;");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["foo", "[", "0", "]", "+", "=", "1_000", ";"]);
        assert_eq!(toks[2].0, TokenKind::Number);
        assert_eq!(toks[6].0, TokenKind::Number);
    }
}

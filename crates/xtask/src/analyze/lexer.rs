//! A dependency-free Rust lexer producing byte-span tokens.
//!
//! It handles the full literal grammar — raw strings with any `#`
//! delimiter count, byte/raw-byte strings, char literals vs. lifetimes,
//! nested block comments, numeric literals with exponents and
//! suffixes — and it
//! never discards bytes: the produced tokens **tile** the input (every
//! byte belongs to exactly one token, in order), which is the property
//! the corpus round-trip test in `tests/analyze_lexer.rs` pins over
//! every `.rs` file in the workspace.
//!
//! The lexer is total: any byte sequence lexes without panicking.
//! Malformed input degrades to `Unknown`/unterminated-literal tokens
//! rather than errors — a source-level linter must keep scanning past
//! whatever it does not understand.

/// What a [`Token`] is. The token's text is `&src[start..end]`; kinds
/// carry no owned data so lexing never allocates per token beyond the
/// output vector itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// `'a`, `'static` — a `'` followed by identifier chars with no
    /// closing quote.
    Lifetime,
    /// Numeric literal, exponents and type suffixes included.
    Number,
    /// `"…"` or `b"…"` with escapes; may span lines.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##`; may span lines, no escapes.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `// …` to end of line (doc comments included).
    LineComment,
    /// `/* … */`, nested.
    BlockComment,
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// A single punctuation character (`{`, `:`, `!`, …). Multi-char
    /// operators are consecutive `Punct` tokens; pattern helpers match
    /// sequences, so no joining pass is needed.
    Punct,
    /// A byte the lexer has no rule for (stray `\\` outside a literal,
    /// non-ASCII punctuation, …).
    Unknown,
}

/// One lexed token: kind plus the byte span into the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// True for bytes that can start an identifier.
fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

/// True for bytes that can continue an identifier.
fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Cursor<'s> {
    src: &'s str,
    /// Byte position (always on a char boundary).
    pos: usize,
}

impl<'s> Cursor<'s> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }
}

/// Lexes `src` into a token list that tiles the input.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { src, pos: 0 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let start = cur.pos;
        let kind = lex_one(&mut cur, c);
        debug_assert!(cur.pos > start, "lexer must always make progress");
        out.push(Token {
            kind,
            start,
            end: cur.pos,
        });
    }
    out
}

fn lex_one(cur: &mut Cursor<'_>, c: char) -> TokenKind {
    if c.is_whitespace() {
        cur.eat_while(|c| c.is_whitespace());
        return TokenKind::Whitespace;
    }
    if c == '/' {
        match cur.peek_at(1) {
            Some('/') => {
                cur.eat_while(|c| c != '\n');
                return TokenKind::LineComment;
            }
            Some('*') => {
                return lex_block_comment(cur);
            }
            _ => {
                cur.bump();
                return TokenKind::Punct;
            }
        }
    }
    // Raw / byte string prefixes must win over plain identifiers:
    // `r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `b'…'`.
    if c == 'r' || c == 'b' {
        if let Some(kind) = try_lex_prefixed_literal(cur) {
            return kind;
        }
    }
    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return TokenKind::Ident;
    }
    if c.is_ascii_digit() {
        return lex_number(cur);
    }
    match c {
        '"' => lex_str(cur),
        '\'' => lex_quote(cur),
        _ if c.is_ascii_punctuation() => {
            cur.bump();
            TokenKind::Punct
        }
        _ => {
            cur.bump();
            TokenKind::Unknown
        }
    }
}

/// Nested block comment; unterminated runs to end of input.
fn lex_block_comment(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        match cur.bump() {
            None => break,
            Some('/') if cur.peek() == Some('*') => {
                cur.bump();
                depth += 1;
            }
            Some('*') if cur.peek() == Some('/') => {
                cur.bump();
                depth -= 1;
            }
            Some(_) => {}
        }
    }
    TokenKind::BlockComment
}

/// `r`/`b`-prefixed literal, or `None` when the prefix is just an
/// identifier start (`radius`, `b2`, …). The cursor only advances on
/// success.
fn try_lex_prefixed_literal(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let c = cur.peek()?;
    // Longest valid prefix first: br / rb? (only `br` exists), then
    // single-letter.
    let (prefix_len, raw) = if c == 'b' {
        match cur.peek_at(1) {
            Some('r') => {
                // `br` must be followed by #*" to be a raw byte string.
                (2, true)
            }
            Some('"') => (1, false),
            Some('\'') => {
                // Byte char literal b'x'.
                cur.bump(); // b
                lex_quote(cur);
                return Some(TokenKind::Char);
            }
            _ => return None,
        }
    } else {
        // c == 'r'
        (1, true)
    };
    if raw {
        // Count hashes after the prefix, then require a quote.
        let mut hashes = 0usize;
        while cur.peek_at(prefix_len + hashes) == Some('#') {
            hashes += 1;
        }
        if cur.peek_at(prefix_len + hashes) != Some('"') {
            return None;
        }
        for _ in 0..prefix_len + hashes + 1 {
            cur.bump();
        }
        // Scan for `"` + hashes closing delimiter; unterminated runs
        // to end of input.
        'outer: while let Some(c) = cur.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if cur.peek_at(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
        Some(TokenKind::RawStr)
    } else {
        cur.bump(); // b
        Some(lex_str(cur))
    }
}

/// `"…"` with `\` escapes; may span lines; unterminated runs to end of
/// input.
fn lex_str(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
    TokenKind::Str
}

/// A `'`: char literal or lifetime. Rust disambiguates as: `'` followed
/// by an escape, or by one char and a closing `'`, is a char literal;
/// otherwise identifier chars form a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // '
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: consume escape until closing quote
            // (or end of line for malformed input).
            cur.bump();
            cur.bump(); // the escaped char (n, ', x, u, …)
                        // \x7f and \u{…} forms: eat up to the closing quote on the
                        // same line.
            while let Some(c) = cur.peek() {
                if c == '\'' {
                    cur.bump();
                    break;
                }
                if c == '\n' {
                    break;
                }
                cur.bump();
            }
            TokenKind::Char
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char, `'a` / `'static` a lifetime: look past
            // the full ident run for a closing quote.
            if cur.peek_at(1) == Some('\'') && !is_ident_continue_at(cur, 2) {
                cur.bump();
                cur.bump();
                TokenKind::Char
            } else {
                cur.eat_while(is_ident_continue);
                TokenKind::Lifetime
            }
        }
        Some(c) if c != '\'' => {
            // Non-ident single char: '(' , '0' handled by digit? digits
            // are ident_continue-false, so: consume char + closing
            // quote when present.
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        _ => {
            // Lone or doubled quote.
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            TokenKind::Char
        }
    }
}

/// Whether the char at lookahead `n` continues an identifier (used to
/// tell `'a'` from the start of `'abc`).
fn is_ident_continue_at(cur: &Cursor<'_>, n: usize) -> bool {
    cur.peek_at(n).is_some_and(is_ident_continue)
}

/// Numeric literal: digits, `_`, hex/oct/bin prefixes, a fractional
/// part when followed by a digit (so `1..2` stays three tokens), and
/// exponents with signs. Type suffixes (`u32`, `f64`) ride along via
/// the alphanumeric rule. We never interpret the value, so the rule is
/// deliberately permissive.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut seen_dot = false;
    cur.bump();
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.bump();
            // Exponent sign: 1e-9 / 2.5E+3.
            if (c == 'e' || c == 'E') && matches!(cur.peek(), Some('+') | Some('-')) {
                // Only when a digit follows the sign — `1e-x` is not a
                // number continuation but `1e-9` is. Either way the
                // scan stays total.
                if cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                    cur.bump();
                }
            }
            continue;
        }
        if c == '.' && !seen_dot && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
            seen_dot = true;
            cur.bump();
            continue;
        }
        break;
    }
    TokenKind::Number
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Whitespace))
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn assert_tiles(src: &str) {
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap/overlap at {pos} in {src:?}");
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "trailing bytes unlexed in {src:?}");
    }

    #[test]
    fn raw_strings_all_delimiters() {
        for src in [
            "r\"unsafe\"",
            "r#\"thread::spawn\"#",
            "r##\"a\"# b\"##",
            "br\"bytes\"",
            "br#\"x\"#",
        ] {
            assert_tiles(src);
            let k = kinds(src);
            assert_eq!(k.len(), 1, "{src:?} -> {k:?}");
            assert_eq!(k[0].0, TokenKind::RawStr);
        }
        // Multi-line raw string.
        let src = "let s = r#\"line1\nunsafe line2\"#; f();";
        assert_tiles(src);
        assert!(kinds(src)
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("line2")));
        assert!(kinds(src).iter().any(|(_, t)| *t == "f"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a u8) { let c = 'y'; let d = '\\n'; let e = '\\''; }";
        assert_tiles(src);
        let k = kinds(src);
        let chars: Vec<_> = k.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        let lifetimes: Vec<_> = k
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        assert_eq!(chars.len(), 3, "{k:?}");
        assert_eq!(lifetimes.len(), 2, "{k:?}");
        assert_eq!(lifetimes[0].1, "'a");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        assert_tiles(src);
        let k = kinds(src);
        assert_eq!(k.len(), 3);
        assert_eq!(k[1].0, TokenKind::BlockComment);
        assert!(k[1].1.contains("inner"));
    }

    #[test]
    fn numbers_and_ranges() {
        assert_tiles("1..2");
        let k = kinds("1..2");
        assert_eq!(
            k.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![
                TokenKind::Number,
                TokenKind::Punct,
                TokenKind::Punct,
                TokenKind::Number
            ]
        );
        for src in ["1e-9", "2.5E+3", "0xFF_u32", "1_000.5f64"] {
            assert_tiles(src);
            let k = kinds(src);
            assert_eq!(k.len(), 1, "{src:?} -> {k:?}");
            assert_eq!(k[0].0, TokenKind::Number);
        }
    }

    #[test]
    fn byte_literals() {
        assert_eq!(kinds("b'x'")[0].0, TokenKind::Char);
        assert_eq!(kinds("b\"bytes\"")[0].0, TokenKind::Str);
        // `b2` and `radius` are plain identifiers.
        assert_eq!(kinds("b2")[0].0, TokenKind::Ident);
        assert_eq!(kinds("radius")[0].0, TokenKind::Ident);
    }

    #[test]
    fn strings_swallow_keywords_and_braces() {
        let src = "let s = \"unsafe { } \\\" r#\"; g()";
        assert_tiles(src);
        let k = kinds(src);
        assert!(k.iter().any(|(_, t)| *t == "g"));
        assert!(!k
            .iter()
            .any(|(kind, t)| *kind == TokenKind::Ident && *t == "unsafe"));
    }

    #[test]
    fn unterminated_literals_are_total() {
        for src in ["\"never closed", "r#\"open", "/* open", "'", "b'"] {
            assert_tiles(src);
        }
    }

    #[test]
    fn non_ascii_is_total() {
        for src in ["let s = \"héllo\";", "// über\nfn f() {}", "¿?"] {
            assert_tiles(src);
        }
    }
}

//! Lightweight item/expression parser over the lexer's token stream.
//!
//! This is not a full Rust parser — it extracts exactly the structure
//! the rules need, and degrades gracefully on anything else:
//!
//! * **Functions**: every `fn` item, with its name, enclosing `impl`
//!   type and trait (so `ExchangeArena::take_buf` and `Task for
//!   FutureTask` are addressable), body token range, and whether it lives in test
//!   code (`#[cfg(test)]` region or a `tests/`/`benches/` path).
//! * **Call events** inside each body: free/path calls
//!   (`codec::pack_f16(..)`), method calls (`.poll(..)`), and macro
//!   invocations (`vec![..]`) — the edges the call graph resolves.
//! * **Lock events**: `.lock()` receivers classified to a lock class
//!   (last field identifier), whether the guard is `let`-bound (held to
//!   end of scope) or a temporary (dropped at the statement's end), and
//!   explicit `drop(guard)` releases — the inputs to the lock-order
//!   rule.
//!
//! Everything is index-based into a per-file significant-token vector
//! (comments/whitespace filtered out but retained separately so the
//! allowlist scanner can see `// bns-allow(...)` comments).

use super::lexer::{lex, Token, TokenKind};

/// A parsed source file: raw text, full token tiling, the significant
/// (non-trivia) tokens, and a line index.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub text: String,
    /// All tokens, tiling `text`.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-whitespace, non-comment tokens.
    pub sig: Vec<usize>,
    /// Byte offset of each line start (line 1 at index 0).
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(rel: String, text: String) -> Self {
        let tokens = lex(&text);
        let sig = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            rel,
            text,
            tokens,
            sig,
            line_starts,
        }
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, byte: usize) -> usize {
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The `i`th significant token (panics on out of range).
    pub fn sig_tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Text of the `i`th significant token.
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_tok(i).text(&self.text)
    }

    /// 1-based line of the `i`th significant token.
    pub fn sig_line(&self, i: usize) -> usize {
        self.line_of(self.sig_tok(i).start)
    }

    /// Whether significant token `i` is an identifier equal to `s`.
    pub fn sig_is(&self, i: usize, s: &str) -> bool {
        i < self.sig.len() && self.sig_text(i) == s
    }

    /// Whether significant token `i` is an `Ident`.
    pub fn sig_is_ident(&self, i: usize) -> bool {
        i < self.sig.len() && self.sig_tok(i).kind == TokenKind::Ident
    }
}

/// A call-shaped event inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `a::b::c(…)` — segments of the path, last one the callee name.
    Call {
        segments: Vec<String>,
        tok: usize,
    },
    /// `.name(…)`.
    MethodCall {
        name: String,
        tok: usize,
    },
    /// `name!(…)` / `name![…]`.
    Macro {
        name: String,
        tok: usize,
    },
    /// `.lock()` acquisition: class = receiver's last field identifier.
    Lock {
        class: String,
        /// Guard binding (`let g = ….lock()…`), `None` for temporaries.
        guard: Option<String>,
        /// Brace depth at the acquisition (relative to body start).
        depth: usize,
        tok: usize,
    },
    /// `drop(guard)` — releases a held guard early.
    Drop {
        name: String,
        tok: usize,
    },
    /// `{` / `}` with resulting depth — lets rules replay scopes.
    Open {
        depth: usize,
    },
    Close {
        depth: usize,
    },
}

/// One `fn` item.
#[derive(Debug)]
pub struct Function {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self-type name, when inside an impl block.
    pub impl_type: Option<String>,
    /// Enclosing `impl Trait for Type` trait name.
    pub trait_name: Option<String>,
    /// Index of the owning [`SourceFile`] in the workspace list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Range of significant-token indices covering the body, braces
    /// excluded. Empty for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether the parameter list starts with a `self` receiver. Method
    /// calls (`.name(…)`) only resolve to receiver-taking functions —
    /// `.load(Ordering)` on an atomic must not resolve to an associated
    /// `Type::load(path)` constructor.
    pub has_self: bool,
    /// True inside `#[cfg(test)]` regions or `tests/`/`benches/` paths.
    pub is_test: bool,
    /// Call/lock/scope events in body order.
    pub events: Vec<Event>,
}

impl Function {
    /// `Type::name` when inside an impl block, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "move", "fn", "as", "where",
    "let", "mut", "ref", "box", "await", "yield", "dyn", "impl", "pub", "use", "mod", "unsafe",
];

/// Whether a workspace-relative path is test code as a whole: it has a
/// `tests` or `benches` segment (integration tests, benches), at the
/// root or in a crate.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "benches")
}

/// Parses every function (with events) out of one file. `path_is_test`
/// marks the whole file as test code (see [`is_test_path`]).
pub fn parse_functions(sf: &SourceFile, file_idx: usize, path_is_test: bool) -> Vec<Function> {
    parse_items(sf, file_idx, path_is_test).0
}

/// Per significant token of `sf`: whether it is test code — the whole
/// file on a test path, else every `#[cfg(test)]` item (attribute
/// through body or `;`) and every fn inside one.
pub fn test_mask(sf: &SourceFile) -> Vec<bool> {
    parse_items(sf, 0, is_test_path(&sf.rel)).1
}

/// The functions of `sf` and its test-code mask (see [`test_mask`]).
fn parse_items(sf: &SourceFile, file_idx: usize, path_is_test: bool) -> (Vec<Function>, Vec<bool>) {
    let mut out = Vec::new();
    let n = sf.sig.len();
    let mut test = vec![path_is_test; n];
    let mut mark = |lo: usize, hi: usize| test[lo..=hi.min(n - 1)].fill(true);
    // Context stack entries: (brace depth it opened at, kind).
    #[derive(Clone)]
    enum Ctx {
        Impl {
            type_name: Option<String>,
            trait_name: Option<String>,
        },
        Test,
        Other,
    }
    let mut ctx: Vec<(usize, Ctx)> = Vec::new();
    let mut depth = 0usize;
    // Start of a `#[cfg(test)]` attribute seen since the last item-ish
    // token: it makes the next block a Test context.
    let mut pending_cfg_test: Option<usize> = None;
    let mut i = 0usize;
    while i < n {
        let text = sf.sig_text(i);
        match text {
            "#" => {
                // Attribute: `#[…]` or `#![…]` — scan the bracket group
                // for `cfg ( test )`.
                let mut j = i + 1;
                if sf.sig_is(j, "!") {
                    j += 1;
                }
                if sf.sig_is(j, "[") {
                    let close = match_group(sf, j, "[", "]");
                    let mut k = j + 1;
                    while k + 3 < close {
                        if sf.sig_is(k, "cfg")
                            && sf.sig_is(k + 1, "(")
                            && sf.sig_is(k + 2, "test")
                            && sf.sig_is(k + 3, ")")
                        {
                            pending_cfg_test.get_or_insert(i);
                            break;
                        }
                        k += 1;
                    }
                    i = close + 1;
                    continue;
                }
                i += 1;
            }
            "{" => {
                depth += 1;
                if let Some(attr) = pending_cfg_test.take() {
                    // The cfg(test) attribute attaches to the item this
                    // brace opens (mod tests { … }).
                    ctx.push((depth, Ctx::Test));
                    mark(attr, match_group(sf, i, "{", "}"));
                } else {
                    ctx.push((depth, Ctx::Other));
                }
                i += 1;
            }
            ";" => {
                // An item-level `;` ends an item with no body
                // (`#[cfg(test)] use …;`): its attributes end with it.
                if let Some(attr) = pending_cfg_test.take() {
                    mark(attr, i);
                }
                i += 1;
            }
            "}" => {
                while ctx.last().is_some_and(|(d, _)| *d >= depth) {
                    ctx.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            "impl" => {
                // Parse the impl header up to its `{`.
                let (type_name, trait_name, body_open) = parse_impl_header(sf, i);
                if let Some(open) = body_open {
                    depth += 1;
                    let kind = if let Some(attr) = pending_cfg_test.take() {
                        mark(attr, match_group(sf, open, "{", "}"));
                        Ctx::Test
                    } else {
                        Ctx::Impl {
                            type_name,
                            trait_name,
                        }
                    };
                    ctx.push((depth, kind));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "macro_rules" => {
                // `macro_rules! name { … }` — skip the opaque body.
                let mut j = i + 1;
                while j < n && !sf.sig_is(j, "{") {
                    j += 1;
                }
                let end = if j < n {
                    match_group(sf, j, "{", "}")
                } else {
                    n - 1
                };
                if let Some(attr) = pending_cfg_test.take() {
                    mark(attr, end);
                }
                i = end + 1;
            }
            "fn" => {
                let attr = pending_cfg_test.take();
                let in_test = attr.is_some()
                    || path_is_test
                    || ctx.iter().any(|(_, c)| matches!(c, Ctx::Test));
                let (impl_type, trait_name) = ctx
                    .iter()
                    .rev()
                    .find_map(|(_, c)| match c {
                        Ctx::Impl {
                            type_name,
                            trait_name,
                        } => Some((type_name.clone(), trait_name.clone())),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                if let Some((func, next)) =
                    parse_fn(sf, i, file_idx, impl_type, trait_name, in_test)
                {
                    if in_test {
                        mark(attr.unwrap_or(i), next - 1);
                    }
                    out.push(func);
                    i = next;
                } else {
                    i += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    (out, test)
}

/// From an `impl` keyword: returns (self type name, trait name, index
/// of the opening `{`). `impl<T> Trait<U> for Type<T> { … }`.
fn parse_impl_header(
    sf: &SourceFile,
    impl_idx: usize,
) -> (Option<String>, Option<String>, Option<usize>) {
    let n = sf.sig.len();
    let mut i = impl_idx + 1;
    // Skip generic params `<…>` by bracket counting (`->` cannot appear
    // in an impl generic list).
    if sf.sig_is(i, "<") {
        let mut angle = 0isize;
        while i < n {
            match sf.sig_text(i) {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Collect path idents until `for`, `{`, or `where`.
    let mut first_path_last: Option<String> = None;
    let mut second_path_last: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0isize;
    while i < n {
        let t = sf.sig_text(i);
        match t {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => {
                let (ty, tr) = if saw_for {
                    (second_path_last, first_path_last)
                } else {
                    (first_path_last, None)
                };
                return (ty, tr, Some(i));
            }
            ";" => return (None, None, None),
            "for" if angle <= 0 => saw_for = true,
            "where" if angle <= 0 => {
                // Type/trait names are fixed by now; scan on for `{`.
                while i < n && !sf.sig_is(i, "{") {
                    i += 1;
                }
                continue;
            }
            _ if angle == 0 && sf.sig_is_ident(i) && !matches!(t, "dyn" | "mut" | "const") => {
                let slot = if saw_for {
                    &mut second_path_last
                } else {
                    &mut first_path_last
                };
                *slot = Some(t.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    (None, None, None)
}

/// Index of the significant token closing the group opened at `open`
/// (which must hold `open_sym`). Returns the last token index when
/// unbalanced.
fn match_group(sf: &SourceFile, open: usize, open_sym: &str, close_sym: &str) -> usize {
    let n = sf.sig.len();
    let mut depth = 0isize;
    let mut i = open;
    while i < n {
        let t = sf.sig_text(i);
        if t == open_sym {
            depth += 1;
        } else if t == close_sym {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    n.saturating_sub(1)
}

/// Parses one `fn` item starting at the `fn` keyword; returns the
/// function and the index to resume scanning at (past the body, so
/// nested closures stay inside this function's event list, but nested
/// `fn` items are re-scanned by the caller via the returned range).
fn parse_fn(
    sf: &SourceFile,
    fn_idx: usize,
    file_idx: usize,
    impl_type: Option<String>,
    trait_name: Option<String>,
    is_test: bool,
) -> Option<(Function, usize)> {
    let n = sf.sig.len();
    let name_idx = fn_idx + 1;
    if name_idx >= n || !sf.sig_is_ident(name_idx) {
        return None; // `fn(` type position
    }
    let name = sf.sig_text(name_idx).to_string();
    // Receiver detection: the first `(` after the name opens the
    // parameter list; a `self` before its first top-level comma is the
    // receiver.
    let mut has_self = false;
    {
        let mut j = name_idx + 1;
        while j < n && !sf.sig_is(j, "(") && !sf.sig_is(j, "{") && !sf.sig_is(j, ";") {
            j += 1;
        }
        if sf.sig_is(j, "(") {
            let pclose = match_group(sf, j, "(", ")");
            let mut k = j + 1;
            let mut depth = 1isize;
            while k < pclose {
                match sf.sig_text(k) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "," if depth == 1 => break,
                    "self" => {
                        has_self = true;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    // Find the body `{` or a `;` (trait method declaration) at
    // paren/bracket depth 0.
    let mut i = name_idx + 1;
    let mut paren = 0isize;
    let mut bracket = 0isize;
    let body_open = loop {
        if i >= n {
            return None;
        }
        match sf.sig_text(i) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => break Some(i),
            ";" if paren == 0 && bracket == 0 => break None,
            _ => {}
        }
        i += 1;
    };
    let line = sf.sig_line(fn_idx);
    let Some(open) = body_open else {
        // Bodyless declaration.
        return Some((
            Function {
                name,
                impl_type,
                trait_name,
                file: file_idx,
                line,
                body: i..i,
                has_self,
                is_test,
                events: Vec::new(),
            },
            i + 1,
        ));
    };
    let close = match_group(sf, open, "{", "}");
    let body = open + 1..close;
    let events = extract_events(sf, body.clone());
    Some((
        Function {
            name,
            impl_type,
            trait_name,
            file: file_idx,
            line,
            body,
            has_self,
            is_test,
            events,
        },
        close + 1,
    ))
}

/// Walks a body token range and records call/lock/scope events.
fn extract_events(sf: &SourceFile, body: std::ops::Range<usize>) -> Vec<Event> {
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut i = body.start;
    while i < body.end {
        let t = sf.sig_text(i);
        match t {
            "#" => {
                // Statement attribute (`#[cfg(debug_assertions)]`):
                // skip the bracket group so `cfg(…)` is not a call.
                let mut j = i + 1;
                if sf.sig_is(j, "!") {
                    j += 1;
                }
                if sf.sig_is(j, "[") {
                    i = match_group(sf, j, "[", "]").min(body.end) + 1;
                    continue;
                }
                i += 1;
                continue;
            }
            "{" => {
                depth += 1;
                events.push(Event::Open { depth });
                i += 1;
                continue;
            }
            "}" => {
                events.push(Event::Close { depth });
                depth = depth.saturating_sub(1);
                i += 1;
                continue;
            }
            _ => {}
        }
        if sf.sig_is_ident(i) && !NON_CALL_KEYWORDS.contains(&t) {
            let next = i + 1;
            // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
            if sf.sig_is(next, "!")
                && (sf.sig_is(next + 1, "(")
                    || sf.sig_is(next + 1, "[")
                    || sf.sig_is(next + 1, "{"))
            {
                events.push(Event::Macro {
                    name: t.to_string(),
                    tok: i,
                });
                i += 2;
                continue;
            }
            if sf.sig_is(next, "(") {
                // Method call, free call, or path call: look back.
                let prev_is_dot = i > body.start && sf.sig_is(i - 1, ".");
                if prev_is_dot {
                    if t == "lock" && sf.sig_is(next + 1, ")") {
                        let class = lock_class(sf, body.start, i);
                        let guard = guard_binding(sf, body.start, i);
                        events.push(Event::Lock {
                            class,
                            guard,
                            depth,
                            tok: i,
                        });
                    } else {
                        events.push(Event::MethodCall {
                            name: t.to_string(),
                            tok: i,
                        });
                    }
                } else {
                    let segments = path_segments(sf, body.start, i);
                    if segments.len() == 1 && segments[0] == "drop" {
                        // `drop(guard)` — record the dropped ident when
                        // it is a simple variable.
                        if sf.sig_is_ident(next + 1) && sf.sig_is(next + 2, ")") {
                            events.push(Event::Drop {
                                name: sf.sig_text(next + 1).to_string(),
                                tok: i,
                            });
                            i += 1;
                            continue;
                        }
                    }
                    events.push(Event::Call { segments, tok: i });
                }
            }
        }
        i += 1;
    }
    events
}

/// Path segments ending at the callee ident `i`: walks `a :: b :: c`
/// backwards.
fn path_segments(sf: &SourceFile, lo: usize, i: usize) -> Vec<String> {
    let mut segs = vec![sf.sig_text(i).to_string()];
    let mut j = i;
    while j >= lo + 2
        && sf.sig_is(j - 1, ":")
        && sf.sig_is(j - 2, ":")
        && j >= 3
        && sf.sig_is_ident(j - 3)
    {
        segs.push(sf.sig_text(j - 3).to_string());
        j -= 3;
    }
    segs.reverse();
    segs
}

/// The lock class of a `.lock()` at callee index `i`: the nearest
/// preceding field/variable identifier in the receiver chain, skipping
/// balanced `(…)`/`[…]` groups (`slots[idx].lock()` -> `slots`,
/// `self.queue.lock()` -> `queue`, `registry().series.lock()` ->
/// `series`).
fn lock_class(sf: &SourceFile, lo: usize, i: usize) -> String {
    // i is `lock`, i-1 is `.`; walk back from i-2.
    let mut j = i.saturating_sub(2);
    loop {
        if j < lo {
            return "<unknown>".into();
        }
        let t = sf.sig_text(j);
        match t {
            ")" | "]" => {
                // Skip the balanced group backwards.
                let (open, close) = if t == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 0isize;
                loop {
                    let u = sf.sig_text(j);
                    if u == close {
                        depth += 1;
                    } else if u == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == lo {
                        return "<unknown>".into();
                    }
                    j -= 1;
                }
                // j is at the opener; the receiver continues before it.
                if j == lo {
                    return "<unknown>".into();
                }
                j -= 1;
            }
            "." => {
                if j == lo {
                    return "<unknown>".into();
                }
                j -= 1;
            }
            _ if sf.sig_is_ident(j) && t != "self" => return t.to_string(),
            "self" => {
                // `self.lock()` — receiver is self itself; keep walking
                // only if a field preceded (it did not).
                return "self".into();
            }
            _ => return "<unknown>".into(),
        }
    }
}

/// When the statement containing token `i` starts with `let [mut] name
/// =`, the lock guard is bound to `name` (held to end of scope).
/// Statement start = nearest `;`, `{`, or `}` before `i`.
fn guard_binding(sf: &SourceFile, lo: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > lo {
        j -= 1;
        match sf.sig_text(j) {
            ";" | "{" | "}" => {
                j += 1;
                break;
            }
            _ => {}
        }
    }
    if !sf.sig_is(j, "let") {
        return None;
    }
    let mut k = j + 1;
    if sf.sig_is(k, "mut") {
        k += 1;
    }
    if sf.sig_is_ident(k) && sf.sig_is(k + 1, "=") {
        return Some(sf.sig_text(k).to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (SourceFile, Vec<Function>) {
        let sf = SourceFile::parse("test.rs".into(), src.to_string());
        let fns = parse_functions(&sf, 0, false);
        (sf, fns)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src = r#"
            fn free(x: u8) -> u8 { helper(x) }
            struct S;
            impl S {
                pub fn method(&self) { other::path::call(); }
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
        "#;
        let (_sf, fns) = parse(src);
        let names: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "S::method", "S::clone"]);
        assert_eq!(fns[2].trait_name.as_deref(), Some("Clone"));
        assert!(matches!(
            &fns[0].events[0],
            Event::Call { segments, .. } if segments == &vec!["helper".to_string()]
        ));
        assert!(matches!(
            &fns[1].events[0],
            Event::Call { segments, .. }
                if segments == &vec!["other".to_string(), "path".to_string(), "call".to_string()]
        ));
    }

    #[test]
    fn cfg_test_regions_mark_fns() {
        let src = r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
        "#;
        let (_sf, fns) = parse(src);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
        assert!(fns[2].is_test);
    }

    #[test]
    fn cfg_test_on_a_bodyless_item_covers_only_that_item() {
        let src = "#[cfg(test)]\nuse std::thread;\n\nfn real() {}\n";
        let (_sf, fns) = parse(src);
        assert!(!fns[0].is_test);
    }

    #[test]
    fn test_mask_covers_cfg_test_items_only() {
        let src = concat!(
            "#[cfg(test)]\nuse std::thread::spawn;\n",
            "use std::thread::Builder;\n",
            "#[cfg(test)]\nmod tests { fn t() { x(); } }\n",
            "fn real() { y(); }\n",
        );
        let sf = SourceFile::parse("f.rs".into(), src.into());
        let mask = test_mask(&sf);
        let test_lines: std::collections::BTreeSet<usize> = (0..sf.sig.len())
            .filter(|&i| mask[i])
            .map(|i| sf.sig_line(i))
            .collect();
        assert_eq!(test_lines.into_iter().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
        let sf = SourceFile::parse("tests/x.rs".into(), src.into());
        assert!(test_mask(&sf).iter().all(|&t| t));
    }

    #[test]
    fn test_paths_match_whole_segments() {
        assert!(is_test_path("tests/x.rs"));
        assert!(is_test_path("crates/a/tests/x.rs"));
        assert!(is_test_path("crates/a/benches/b.rs"));
        assert!(!is_test_path("crates/a/src/tests_util.rs"));
    }

    #[test]
    fn method_calls_and_macros() {
        let src = "fn f(v: &mut Vec<u8>) { v.push(1); let w = vec![0u8; 4]; g!{a} }";
        let (_sf, fns) = parse(src);
        let ev = &fns[0].events;
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::MethodCall { name, .. } if name == "push")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Macro { name, .. } if name == "vec")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Macro { name, .. } if name == "g")));
    }

    #[test]
    fn lock_events_classify_receivers() {
        let src = r#"
            fn f(&self) {
                let mut q = self.queue.lock().unwrap();
                q.push_back(1);
                drop(q);
                *self.waker.lock().unwrap() = None;
                let t = slots[idx].lock().unwrap();
            }
        "#;
        let (_sf, fns) = parse(src);
        let locks: Vec<(&str, Option<&str>)> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Lock { class, guard, .. } => Some((class.as_str(), guard.as_deref())),
                _ => None,
            })
            .collect();
        assert_eq!(
            locks,
            vec![("queue", Some("q")), ("waker", None), ("slots", Some("t")),]
        );
        assert!(fns[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Drop { name, .. } if name == "q")));
    }

    #[test]
    fn generic_impl_headers() {
        let src = r#"
            impl<T: Send> Wrapper<T> {
                fn get(&self) -> &T { &self.0 }
            }
            impl<'a, T> Iterator for Iter<'a, T> {
                fn next(&mut self) -> Option<T> { None }
            }
        "#;
        let (_sf, fns) = parse(src);
        assert_eq!(fns[0].qualified(), "Wrapper::get");
        assert_eq!(fns[1].qualified(), "Iter::next");
        assert_eq!(fns[1].trait_name.as_deref(), Some("Iterator"));
    }

    #[test]
    fn raw_strings_do_not_derail_items() {
        let src = "fn a() { let s = r#\"fn fake() { vec![] }\"#; }\nfn b() {}";
        let (_sf, fns) = parse(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!fns[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Macro { name, .. } if name == "vec")));
    }

    #[test]
    fn nested_fns_are_split_out() {
        let src = "fn outer() { fn inner() { vec![1]; } inner(); }";
        let (_sf, fns) = parse(src);
        // The scan enters outer's body and re-parses `fn inner` as its
        // own function; outer resumes after it.
        assert!(fns.iter().any(|f| f.name == "outer"));
    }
}

//! The two generated ledgers, `UNSAFE_LEDGER.md` (BNS-A006 unsafe
//! sites) and `ANALYZE_LEDGER.md` (`// bns-allow(RULE): reason`
//! comments). Both are markdown views of one `(file, rule, key) ->
//! count` table and share its parse, count check and render. A row's
//! key hashes the code it vouches for, so editing that code invalidates
//! the row and forces a deliberate `cargo xtask analyze --bless` after
//! review.
//!
//! An allow comment suppresses findings of exactly one rule on the
//! line it covers: the same line for a trailing comment, the next code
//! line for a comment on its own line. Its key covers the rule, the
//! covered code line and the written reason. Meta findings (rule
//! `BNS-A000`) keep the allowlist honest: an allow in use but missing
//! from the ledger, a ledger row whose allow is gone, and an allow
//! that no longer suppresses anything (stale comments must be removed,
//! not accumulated).

use super::diag::Finding;
use super::parser::SourceFile;
use crate::analyze::lexer::TokenKind;
use crate::fnv1a64;
use std::collections::BTreeMap;

/// Meta-rule id for allowlist bookkeeping findings.
pub const META_RULE: &str = "BNS-A000";
pub const META_NAME: &str = "allow-ledger";

/// One parsed `// bns-allow(RULE): reason` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative path.
    pub file: String,
    /// Rule id the allow targets (`BNS-A001`, …).
    pub rule: String,
    /// The written justification (required).
    pub reason: String,
    /// 1-based line of the comment itself.
    pub comment_line: usize,
    /// 1-based line the allow covers (same line for trailing comments,
    /// next code line otherwise).
    pub covered_line: usize,
    /// FNV-1a 64 over `rule | covered code line (trimmed) | reason`.
    pub key: u64,
}

/// Extracts every allow comment from one parsed file.
pub fn collect_allows(sf: &SourceFile) -> Vec<Allow> {
    let mut out = Vec::new();
    let lines: Vec<&str> = sf.text.lines().collect();
    for tok in &sf.tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = tok.text(&sf.text);
        let Some((rule, reason)) = parse_allow_comment(text) else {
            continue;
        };
        let comment_line = sf.line_of(tok.start);
        // Trailing comment: code precedes it on the same line.
        let line_text = lines.get(comment_line - 1).copied().unwrap_or("");
        let before = &line_text[..line_text.find("//").unwrap_or(0)];
        let covered_line = if !before.trim().is_empty() {
            comment_line
        } else {
            // Next non-comment, non-blank line.
            let mut l = comment_line; // 0-based index of the next line
            loop {
                match lines.get(l) {
                    None => break comment_line,
                    Some(t) if t.trim().is_empty() || t.trim().starts_with("//") => l += 1,
                    Some(_) => break l + 1,
                }
            }
        };
        let covered_text = lines.get(covered_line - 1).map(|l| l.trim()).unwrap_or("");
        let key = allow_key(&rule, covered_text, &reason);
        out.push(Allow {
            file: sf.rel.clone(),
            rule,
            reason,
            comment_line,
            covered_line,
            key,
        });
    }
    out
}

/// `bns-allow(BNS-A003): the reason text` -> (rule, reason). The
/// comment may carry leading `//`/`//!` markers and indentation.
fn parse_allow_comment(comment: &str) -> Option<(String, String)> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim();
    let rest = body.strip_prefix("bns-allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
    Some((rule, reason))
}

/// The allow's ledger key.
pub fn allow_key(rule: &str, covered_text: &str, reason: &str) -> u64 {
    fnv1a64(format!("{rule}|{covered_text}|{reason}").as_bytes())
}

/// `(file, rule, key) -> count`: what a ledger records, or what the
/// code holds live.
pub type Table = BTreeMap<(String, String, u64), usize>;

/// One live ledger row.
#[derive(Debug, Clone)]
pub struct Row {
    pub file: String,
    pub rule: String,
    pub key: u64,
    /// Live sites sharing the key (each allow is its own row).
    pub count: usize,
    /// 1-based line findings about the row point at.
    pub line: usize,
    /// The free-text last column: invariant or reason.
    pub text: String,
}

impl Row {
    fn table_key(&self) -> (String, String, u64) {
        (self.file.clone(), self.rule.clone(), self.key)
    }
}

impl From<&Allow> for Row {
    fn from(a: &Allow) -> Row {
        Row {
            file: a.file.clone(),
            rule: a.rule.clone(),
            key: a.key,
            count: 1,
            line: a.comment_line,
            text: a.reason.clone(),
        }
    }
}

/// A generated ledger's file name, layout and findings.
pub struct Ledger {
    pub name: &'static str,
    /// What a row vouches for, in messages.
    what: &'static str,
    /// `Some(rule)`: rows are `| file | key | count | text |`, all of
    /// that rule. `None`: rows are `| file | rule | key | text |`, one
    /// per live site.
    fixed_rule: Option<&'static str>,
    /// Rule id and name of the bookkeeping findings.
    finding: (&'static str, &'static str),
    header: &'static str,
}

pub const UNSAFE: Ledger = Ledger {
    name: "UNSAFE_LEDGER.md",
    what: "unsafe site",
    fixed_rule: Some(super::rules::A006.0),
    finding: super::rules::A006,
    header: "# Unsafe Ledger\n\n\
Every `unsafe` site in the workspace, keyed by an FNV-1a 64 hash of its
`// SAFETY:` comment plus the unsafe line. `cargo xtask analyze` (rule
BNS-A006) fails when a site is added, removed, or edited without updating
this file; after reviewing the change, regenerate it with
`cargo xtask analyze --bless`.
Generated file — do not edit rows by hand.

| File | Context hash | Sites | Invariant |
|---|---|---|---|
",
};

pub const ALLOWS: Ledger = Ledger {
    name: "ANALYZE_LEDGER.md",
    what: "allow",
    fixed_rule: None,
    finding: (META_RULE, META_NAME),
    header: "# Analyze Allowlist Ledger\n\n\
Every `// bns-allow(rule): reason` comment the static analyzer
(`cargo xtask analyze`) honors, keyed by an FNV-1a 64 hash of the rule,
the covered code line, and the written reason. Editing any of the three
invalidates the row; after reviewing the change, regenerate this file
with `cargo xtask analyze --bless`. An allow that stops suppressing a
finding must be deleted from the source, not re-blessed.
Generated file — do not edit rows by hand.

| File | Rule | Context hash | Reason |
|---|---|---|---|
",
};

impl Ledger {
    /// Parses the checked-in markdown table (header and separator rows
    /// carry no `0x` key and are skipped).
    pub fn parse(&self, text: &str) -> Table {
        let mut out = Table::new();
        for line in text.lines() {
            let Some(row) = line.trim().strip_prefix('|') else {
                continue;
            };
            let cells: Vec<&str> = row
                .trim_end_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`'))
                .collect();
            if cells.len() < 4 {
                continue;
            }
            let (rule, key, count) = match self.fixed_rule {
                Some(rule) => (rule, cells[1], cells[2].parse().unwrap_or(1)),
                None => (cells[1], cells[2], 1),
            };
            let Some(key) = key
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            else {
                continue;
            };
            *out.entry((cells[0].to_string(), rule.to_string(), key))
                .or_insert(0) += count;
        }
        out
    }

    /// Renders the ledger from live rows, in the order given.
    pub fn render(&self, rows: &[Row]) -> String {
        let mut out = self.header.to_string();
        for r in rows {
            let text = r.text.replace('|', "/");
            match self.fixed_rule {
                Some(_) => out.push_str(&format!(
                    "| `{}` | `0x{:016x}` | {} | {text} |\n",
                    r.file, r.key, r.count
                )),
                None => {
                    for _ in 0..r.count {
                        out.push_str(&format!(
                            "| `{}` | `{}` | `0x{:016x}` | {text} |\n",
                            r.file, r.rule, r.key
                        ));
                    }
                }
            }
        }
        out
    }

    /// Count-checks live rows against the recorded table. Every finding
    /// is blessable: `--bless` rewrites the ledger from the live rows.
    pub fn check(&self, rows: &[Row], recorded: &Table) -> Vec<Finding> {
        let mut live = Table::new();
        for r in rows {
            *live.entry(r.table_key()).or_insert(0) += r.count;
        }
        let finding = |file: &str, line, message, note, key| Finding {
            rule: self.finding.0.into(),
            name: self.finding.1.into(),
            file: file.into(),
            line,
            message,
            note,
            key,
            blessable: true,
        };
        let (what, name) = (self.what, self.name);
        let mut out = Vec::new();
        for r in rows {
            let n = live[&r.table_key()];
            let message = match recorded.get(&r.table_key()) {
                Some(&m) if m == n => continue,
                Some(&m) => format!(
                    "{what} 0x{:016x} appears {n} time(s) but {name} records {m}; \
                     re-bless after review",
                    r.key
                ),
                None => format!(
                    "{what} 0x{:016x} is not registered in {name}; review it and run \
                     `cargo xtask analyze --bless`",
                    r.key
                ),
            };
            let note = Some(format!("on record: {}", r.text));
            out.push(finding(&r.file, r.line, message, note, r.key));
        }
        for (file, rule, key) in recorded.keys().filter(|k| !live.contains_key(*k)) {
            let message = format!(
                "ledger row ({file}, {rule}, 0x{key:016x}) matches no live {what}; the code \
                 changed — re-bless after review"
            );
            out.push(finding(name, 1, message, None, *key));
        }
        out
    }
}

/// Splits raw rule findings into survivors and the allows that
/// suppressed at least one, and flags every allow that suppressed
/// nothing.
pub fn apply_allows(raw: Vec<Finding>, allows: &[Allow]) -> (Vec<Finding>, Vec<Allow>) {
    let mut used_flags = vec![false; allows.len()];
    let mut findings = Vec::new();
    for f in raw {
        let matched = allows
            .iter()
            .position(|a| a.file == f.file && a.rule == f.rule && a.covered_line == f.line);
        match matched {
            Some(i) => used_flags[i] = true,
            None => findings.push(f),
        }
    }
    let mut used = Vec::new();
    for (a, &u) in allows.iter().zip(&used_flags) {
        if u {
            used.push(a.clone());
            continue;
        }
        // Unused allow comments are dead suppressions: delete them.
        findings.push(Finding {
            rule: META_RULE.into(),
            name: META_NAME.into(),
            file: a.file.clone(),
            line: a.comment_line,
            message: format!(
                "allow for {} suppresses no finding; the code changed — remove the \
                 stale `bns-allow` comment",
                a.rule
            ),
            note: Some(format!("reason on record: {}", a.reason)),
            key: a.key,
            blessable: false,
        });
    }
    used.sort_by(|a, b| {
        (&a.file, a.covered_line, &a.rule).cmp(&(&b.file, b.covered_line, &b.rule))
    });
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("f.rs".into(), src.to_string())
    }

    #[test]
    fn parses_own_line_and_trailing_allows() {
        let src = "\
// bns-allow(BNS-A001): registry lookup only
let m = HashMap::new();
let t = Instant::now(); // bns-allow(BNS-A001): telemetry site
";
        let allows = collect_allows(&sf(src));
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].rule, "BNS-A001");
        assert_eq!(allows[0].covered_line, 2);
        assert_eq!(allows[0].reason, "registry lookup only");
        assert_eq!(allows[1].covered_line, 3);
        assert_eq!(allows[1].reason, "telemetry site");
    }

    #[test]
    fn own_line_allow_skips_comment_continuations() {
        let src = "\
// bns-allow(BNS-A005): arena steady state
// (reached via take_buf)
let v = vec![0.0; n];
";
        let allows = collect_allows(&sf(src));
        assert_eq!(allows[0].covered_line, 3);
    }

    #[test]
    fn key_covers_rule_line_and_reason() {
        let a = allow_key("BNS-A001", "let m = HashMap::new();", "why");
        assert_ne!(a, allow_key("BNS-A002", "let m = HashMap::new();", "why"));
        assert_ne!(a, allow_key("BNS-A001", "let m = HashMap::new() ;", "why"));
        assert_ne!(a, allow_key("BNS-A001", "let m = HashMap::new();", "other"));
    }

    #[test]
    fn ledger_roundtrip() {
        let src = "// bns-allow(BNS-A001): fine\nlet m = HashMap::new();\n";
        let allows = collect_allows(&sf(src));
        let text = ALLOWS.render(&[Row::from(&allows[0])]);
        let parsed = ALLOWS.parse(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed[&("f.rs".to_string(), "BNS-A001".to_string(), allows[0].key)],
            1
        );
        // The fixed-rule layout carries the count in a cell.
        let site = Row {
            file: "u.rs".into(),
            rule: UNSAFE.fixed_rule.unwrap().into(),
            key: 0xab,
            count: 3,
            line: 9,
            text: "a | b".into(),
        };
        let text = UNSAFE.render(std::slice::from_ref(&site));
        assert!(text.ends_with("| `u.rs` | `0x00000000000000ab` | 3 | a / b |\n"));
        assert_eq!(UNSAFE.parse(&text)[&site.table_key()], 3);
    }

    fn raw_finding(file: &str, rule: &str, line: usize) -> Finding {
        Finding {
            rule: rule.into(),
            name: "x".into(),
            file: file.into(),
            line,
            message: "m".into(),
            note: None,
            key: 0,
            blessable: false,
        }
    }

    #[test]
    fn apply_suppresses_and_flags_bookkeeping() {
        let src = "// bns-allow(BNS-A001): fine\nlet m = HashMap::new();\n// bns-allow(BNS-A003): dead\nlet x = 1;\n";
        let allows = collect_allows(&sf(src));
        let raw = vec![
            raw_finding("f.rs", "BNS-A001", 2),
            raw_finding("f.rs", "BNS-A009", 2),
        ];
        // The unmatched finding survives and the unused allow is
        // flagged as dead (not blessable).
        let (findings, used) = apply_allows(raw, &allows);
        assert_eq!(used.len(), 1);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == "BNS-A009"));
        assert!(findings.iter().any(|f| f.rule == META_RULE
            && f.message.contains("suppresses no finding")
            && !f.blessable));

        // Empty ledger: the used allow is unregistered (blessable); a
        // ledger rendered from it checks clean.
        let rows: Vec<Row> = used.iter().map(Row::from).collect();
        let unledgered = ALLOWS.check(&rows, &Table::new());
        assert_eq!(unledgered.len(), 1);
        assert!(unledgered[0].message.contains("not registered") && unledgered[0].blessable);
        assert_eq!(unledgered[0].line, 1, "anchored at the allow comment");
        assert!(ALLOWS
            .check(&rows, &ALLOWS.parse(&ALLOWS.render(&rows)))
            .is_empty());
    }

    #[test]
    fn stale_ledger_row_and_count_drift_are_flagged() {
        let mut ledger = Table::new();
        ledger.insert(("gone.rs".into(), "BNS-A001".into(), 7), 1);
        let out = ALLOWS.check(&[], &ledger);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("matches no live allow"));
        assert_eq!(out[0].file, "ANALYZE_LEDGER.md");

        let site = Row {
            file: "u.rs".into(),
            rule: UNSAFE.fixed_rule.unwrap().into(),
            key: 7,
            count: 2,
            line: 4,
            text: String::new(),
        };
        let mut ledger = Table::new();
        ledger.insert(site.table_key(), 1);
        let out = UNSAFE.check(&[site], &ledger);
        assert_eq!(out.len(), 1);
        assert!(out[0]
            .message
            .contains("appears 2 time(s) but UNSAFE_LEDGER.md records 1"));
    }
}

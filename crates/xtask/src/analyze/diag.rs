//! Diagnostics: the finding type every rule reports, plus human and
//! `--json` renderers.

use std::fmt;

/// One diagnostic, pointing at `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule id (`BNS-A000` … `BNS-A007`).
    pub rule: String,
    /// Short rule name (`determinism-reachability`).
    pub name: String,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong, one sentence.
    pub message: String,
    /// Optional supporting detail (an example call path, the offending
    /// snippet).
    pub note: Option<String>,
    /// Allowlist context hash (0 when the finding is not allowable,
    /// e.g. ledger bookkeeping findings).
    pub key: u64,
    /// Whether `cargo xtask analyze --bless` can resolve this finding
    /// by regenerating generated files (ledger/registry bookkeeping).
    /// Real rule violations are never blessable.
    pub blessable: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file, self.line, self.rule, self.name, self.message
        )?;
        if let Some(note) = &self.note {
            write!(f, "\n    note: {note}")?;
        }
        Ok(())
    }
}

/// Renders findings for humans, one per line (notes indented).
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as a JSON array (hand-rolled: the workspace builds
/// offline with no serde).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"rule\":{}", json_str(&f.rule)));
        out.push_str(&format!(",\"name\":{}", json_str(&f.name)));
        out.push_str(&format!(",\"file\":{}", json_str(&f.file)));
        out.push_str(&format!(",\"line\":{}", f.line));
        out.push_str(&format!(",\"message\":{}", json_str(&f.message)));
        if let Some(note) = &f.note {
            out.push_str(&format!(",\"note\":{}", json_str(note)));
        }
        if f.key != 0 {
            out.push_str(&format!(",\"key\":\"0x{:016x}\"", f.key));
        }
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// JSON string escaping (quotes, backslashes, control chars).
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "BNS-A001".into(),
            name: "determinism-reachability".into(),
            file: "crates/core/src/exchange.rs".into(),
            line: 42,
            message: "`Instant::now` reachable from kernel entry".into(),
            note: Some("send_boundary_rows -> helper".into()),
            key: 0xdead_beef,
            blessable: false,
        }
    }

    #[test]
    fn human_format_is_file_line_rule() {
        let s = render_human(&[sample()]);
        assert!(
            s.starts_with("crates/core/src/exchange.rs:42: [BNS-A001 determinism-reachability]")
        );
        assert!(s.contains("note: send_boundary_rows -> helper"));
    }

    #[test]
    fn json_escapes_and_roundtrips_fields() {
        let mut f = sample();
        f.message = "has \"quotes\" and\nnewline\tand tab \\ backslash".into();
        let s = render_json(&[f]);
        assert!(s.contains("\\\"quotes\\\""));
        assert!(s.contains("\\n"));
        assert!(s.contains("\\t"));
        assert!(s.contains("\\\\ backslash"));
        assert!(s.contains("\"line\":42"));
        assert!(s.contains("\"key\":\"0x00000000deadbeef\""));
        // Empty list is a bare array.
        assert_eq!(render_json(&[]), "[]\n");
    }
}

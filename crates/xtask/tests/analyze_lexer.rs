//! Lexer totality over the real corpus and under fuzzing: every `.rs`
//! file in the workspace (vendored shims and lint fixtures included)
//! must lex into tokens that tile the input byte-exactly, and arbitrary
//! fragment soups must never panic or drop bytes.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use xtask::analyze::lexer::lex;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap()
        .to_path_buf()
}

/// Asserts the tiling invariant: tokens are contiguous, non-empty, in
/// order, and cover every byte — so concatenating token texts
/// round-trips the source.
fn assert_tiles(src: &str, ctx: &str) {
    let toks = lex(src);
    let mut pos = 0usize;
    for t in &toks {
        assert_eq!(t.start, pos, "gap/overlap at byte {pos} in {ctx}");
        assert!(t.end > t.start, "empty token at byte {pos} in {ctx}");
        pos = t.end;
    }
    assert_eq!(pos, src.len(), "unlexed trailing bytes in {ctx}");
    let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
    assert_eq!(rebuilt, src, "round-trip mismatch in {ctx}");
}

#[test]
fn every_workspace_file_tiles() {
    let root = workspace_root();
    // Walk everything the analyzer could ever see — including the
    // seeded fixtures the analyze config skips.
    let files = xtask::walk_rust_files(&root, &["target".into(), ".git".into()]).unwrap();
    assert!(files.len() >= 100, "corpus too small: {}", files.len());
    for p in &files {
        let src = std::fs::read_to_string(p).unwrap();
        assert_tiles(&src, &p.display().to_string());
    }
}

/// Syntax fragments chosen to stress every lexer mode boundary: raw
/// string delimiters, escapes, char-vs-lifetime, nested comments,
/// numeric edge shapes, and stray non-ASCII.
const FRAGMENTS: &[&str] = &[
    "fn", " ", "\n", "x", "_y9", "'a", "'a'", "'\\n'", "'", "\"", "\\", "\"str\"", "b\"", "b'q'",
    "r\"", "r#\"", "\"#", "r##\"", "\"##", "#", "//", "/*", "*/", "/", "*", "1", "0xFF", "1e-9",
    "2.5E+3", "1..2", "0u8", "{", "}", "(", ")", "::", ";", "->", "é", "🦀", "b", "r", "br##\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any concatenation of fragments lexes totally.
    #[test]
    fn fragment_soup_tiles(idx in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48)) {
        let src: String = idx.iter().map(|&i| FRAGMENTS[i]).collect();
        assert_tiles(&src, &format!("{src:?}"));
    }

    /// Arbitrary ASCII (controls included) lexes totally.
    #[test]
    fn ascii_soup_tiles(bytes in proptest::collection::vec(0u8..128, 0..200)) {
        let src: String = bytes.iter().map(|&b| b as char).collect();
        assert_tiles(&src, &format!("{src:?}"));
    }
}

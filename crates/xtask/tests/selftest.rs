//! The audit auditing itself: every rule must catch its seeded fixture
//! under `fixtures/`, the bless/check cycle must round-trip, and the
//! real workspace must be clean.

use std::path::{Path, PathBuf};
use xtask::{audit, bless, AuditConfig, Rule};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap()
        .to_path_buf()
}

/// Config over the fixtures dir with a throwaway ledger path and
/// `hash_kernel.rs` / `fma_kernel.rs` designated as kernel files.
fn fixture_cfg(ledger_name: &str) -> AuditConfig {
    let root = fixtures_root();
    AuditConfig {
        ledger_path: std::env::temp_dir().join(format!(
            "xtask-selftest-{}-{ledger_name}",
            std::process::id()
        )),
        root,
        spawn_allow: vec![],
        kernel_files: vec![
            "hash_kernel.rs".into(),
            "fma_kernel.rs".into(),
            "codec_fma_kernel.rs".into(),
        ],
        skip: vec![],
    }
}

fn rules_for<'r>(report: &'r xtask::AuditReport, file: &str) -> Vec<(&'r Rule, usize)> {
    report
        .violations
        .iter()
        .filter(|v| v.file == file)
        .map(|v| (&v.rule, v.line))
        .collect()
}

#[test]
fn every_seeded_fixture_violation_is_caught() {
    let cfg = fixture_cfg("never-written.md");
    let report = audit(&cfg).unwrap();

    // Rule 1: undocumented unsafe, at the `unsafe {` line.
    let missing = rules_for(&report, "missing_safety.rs");
    assert_eq!(missing, vec![(&Rule::MissingSafety, 4)]);

    // Rule 2: the documented site exists but no ledger was written.
    let documented = rules_for(&report, "documented.rs");
    assert_eq!(documented.len(), 1);
    assert_eq!(documented[0].0, &Rule::LedgerMissing);

    // Rule 3: bare spawn flagged; spawn inside #[cfg(test)] exempt.
    let spawn = rules_for(&report, "spawn_violation.rs");
    assert_eq!(spawn, vec![(&Rule::ForbiddenSpawn, 4)]);
    assert!(rules_for(&report, "spawn_in_test.rs").is_empty());

    // Rule 4: hash collection in a configured kernel file. Both the
    // `use` line and the signature mention HashMap.
    let hashes = rules_for(&report, "hash_kernel.rs");
    assert!(!hashes.is_empty());
    assert!(hashes.iter().all(|(r, _)| **r == Rule::HashCollection));

    // Rule 5: `mul_add` and `_mm512_fmadd_ps` in a configured kernel
    // file, each at its call line.
    let fma = rules_for(&report, "fma_kernel.rs");
    assert_eq!(fma, vec![(&Rule::FmaInKernel, 6), (&Rule::FmaInKernel, 11)]);

    // Rule 5 again for the codec-kernel fixture: the wire codecs are
    // under the same FMA ban as every other kernel file.
    let codec_fma = rules_for(&report, "codec_fma_kernel.rs");
    assert_eq!(codec_fma, vec![(&Rule::FmaInKernel, 7)]);
}

#[test]
fn bless_refuses_while_safety_violations_remain() {
    let cfg = fixture_cfg("refused.md");
    let blocked = bless(&cfg).unwrap().unwrap_err();
    assert!(blocked.iter().any(|v| v.rule == Rule::MissingSafety));
    assert!(
        !cfg.ledger_path.exists(),
        "a refused bless must not write the ledger"
    );
}

#[test]
fn bless_then_check_roundtrips_and_detects_tampering() {
    // Restrict the walk to the documented fixture so bless succeeds.
    let mut cfg = fixture_cfg("roundtrip.md");
    cfg.skip = vec![
        "missing_safety.rs".into(),
        "spawn_violation.rs".into(),
        "hash_kernel.rs".into(),
        "fma_kernel.rs".into(),
        "codec_fma_kernel.rs".into(),
    ];

    let n = bless(&cfg).unwrap().unwrap();
    assert_eq!(n, 1, "exactly the documented.rs site");

    let clean = audit(&cfg).unwrap();
    assert!(
        clean.violations.is_empty(),
        "freshly blessed ledger must verify: {:?}",
        clean.violations
    );

    // Flip one hash digit in place (same width, still valid hex, but
    // a different value): the site becomes unregistered AND the row
    // becomes stale.
    let text = std::fs::read_to_string(&cfg.ledger_path).unwrap();
    let digit = text.find("`0x").unwrap() + 3;
    let mut tampered = text.clone().into_bytes();
    tampered[digit] = if tampered[digit] == b'f' { b'0' } else { b'f' };
    let tampered = String::from_utf8(tampered).unwrap();
    assert_ne!(text, tampered);
    std::fs::write(&cfg.ledger_path, tampered).unwrap();

    let report = audit(&cfg).unwrap();
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == Rule::LedgerMissing));
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == Rule::LedgerStale));

    std::fs::remove_file(&cfg.ledger_path).ok();
}

#[test]
fn real_workspace_is_clean() {
    let cfg = AuditConfig::for_repo(&workspace_root());
    let report = audit(&cfg).unwrap();
    assert!(
        report.violations.is_empty(),
        "workspace audit must pass; run `cargo xtask audit` for details:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The workspace genuinely contains unsafe (pool, kernels, loom
    // shim), so an empty site list would mean the scanner broke.
    assert!(
        report.sites.len() >= 10,
        "scanner found only {} sites",
        report.sites.len()
    );
}

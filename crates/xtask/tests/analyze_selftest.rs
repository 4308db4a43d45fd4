//! The analyzer analyzing itself: every rule must catch its seeded
//! fixture under `fixtures/analyze/`, the allow/bless cycle must
//! round-trip and detect tampering, and the real workspace must be
//! clean.

use std::path::{Path, PathBuf};
use xtask::analyze::{analyze, bless, AnalyzeConfig};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("analyze")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap()
        .to_path_buf()
}

/// Config over the analyze fixtures with throwaway generated-file
/// paths; rule policy mirrors the fixture sources (`det_kernel.rs` is
/// the kernel, `hot_entry*` the hot path, `slots -> queue` the order).
fn fixture_cfg(name: &str) -> AnalyzeConfig {
    let root = fixtures_root();
    let tmp = |suffix: &str| {
        std::env::temp_dir().join(format!(
            "xtask-analyze-{}-{name}-{suffix}",
            std::process::id()
        ))
    };
    AnalyzeConfig {
        ledger_path: tmp("ledger.md"),
        env_registry_path: tmp("env.md"),
        readme_path: Some(root.join("README_FIXTURE.md")),
        root,
        skip: vec![],
        kernel_files: vec!["det_kernel.rs".into()],
        hot_entries: vec![
            "hot_entry".into(),
            "hot_entry_async".into(),
            "hot_entry_allowed".into(),
        ],
        arena_allow: vec!["Arena::take".into()],
        lock_scope: vec!["lock_invert.rs".into()],
        lock_order: vec!["slots".into(), "queue".into()],
        env_prefix: "BNS_".into(),
    }
}

fn rules_for(report: &xtask::analyze::AnalyzeReport, file: &str) -> Vec<(String, usize)> {
    report
        .findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.rule.clone(), f.line))
        .collect()
}

#[test]
fn every_rule_catches_its_seeded_fixture() {
    let cfg = fixture_cfg("catch");
    let report = analyze(&cfg).unwrap();

    // BNS-A001 fires in the helper file, not just the kernel file: the
    // ban follows the call graph.
    assert_eq!(
        rules_for(&report, "det_helper.rs"),
        vec![("BNS-A001".into(), 4), ("BNS-A001".into(), 5)],
        "Instant::now and HashMap reachable from kernel_entry"
    );

    // BNS-A002: two unregistered reads (one literal, one via a const)
    // plus the undocumented-in-README finding for the literal one.
    let env = rules_for(&report, "env_read.rs");
    assert_eq!(env.len(), 3, "{env:?}");
    assert!(env.iter().all(|(r, _)| r == "BNS-A002"));
    assert_eq!(
        env.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
        vec![7, 7, 14],
        "literal read flagged twice (registry+README), const read once"
    );

    // BNS-A003: direct inversion, self-deadlock, transitive inversion.
    assert_eq!(
        rules_for(&report, "lock_invert.rs"),
        vec![
            ("BNS-A003".into(), 12),
            ("BNS-A003".into(), 19),
            ("BNS-A003".into(), 26),
        ]
    );

    // BNS-A005: all three allocation shapes in `stage`, the one
    // `stage_async` reaches through `.await`, and nothing from inside
    // the sanctioned `Arena::take` cut (line 12).
    assert_eq!(
        rules_for(&report, "hot_alloc.rs"),
        vec![
            ("BNS-A005".into(), 24),
            ("BNS-A005".into(), 25),
            ("BNS-A005".into(), 26),
            ("BNS-A005".into(), 37),
        ]
    );

    // BNS-A000: the used-but-unledgered allow is blessable; the unused
    // allow is not (it must be deleted, not blessed). Both meta
    // findings anchor at the allow comment itself.
    let allowed = rules_for(&report, "allowed_alloc.rs");
    assert_eq!(allowed, vec![("BNS-A000".into(), 5)]);
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file == "allowed_alloc.rs")
        .all(|f| f.blessable));
    let unused = rules_for(&report, "unused_allow.rs");
    assert_eq!(unused, vec![("BNS-A000".into(), 5)]);
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file == "unused_allow.rs")
        .all(|f| !f.blessable));
}

#[test]
fn bless_refuses_while_rule_violations_remain() {
    let cfg = fixture_cfg("refused");
    let blocked = bless(&cfg).unwrap().unwrap_err();
    assert!(blocked.iter().any(|f| f.rule == "BNS-A001"));
    assert!(
        blocked.iter().all(|f| !f.blessable),
        "only non-blessable findings may block a bless"
    );
    assert!(
        !cfg.ledger_path.exists() && !cfg.env_registry_path.exists(),
        "a refused bless must not write generated files"
    );
}

#[test]
fn bless_then_check_roundtrips_and_detects_tampering() {
    // Restrict the walk to the allowlisted fixture and the env reads so
    // every finding is bookkeeping (the README check is off: fixture
    // docs cover only one variable by design).
    let mut cfg = fixture_cfg("roundtrip");
    cfg.readme_path = None;
    cfg.skip = vec![
        "det_kernel.rs".into(),
        "det_helper.rs".into(),
        "lock_invert.rs".into(),
        "hot_alloc.rs".into(),
        "unused_allow.rs".into(),
    ];

    let n = bless(&cfg).unwrap().unwrap();
    assert_eq!(n, 1, "exactly the allowed_alloc.rs allow");

    let clean = analyze(&cfg).unwrap();
    assert!(
        clean.findings.is_empty(),
        "freshly blessed state must verify: {:?}",
        clean.findings
    );
    let registry = std::fs::read_to_string(&cfg.env_registry_path).unwrap();
    assert!(registry.contains("`BNS_FIXTURE_WORKERS`"));
    assert!(registry.contains("`BNS_FIXTURE_GAIN`"));

    // Flip one ledger hash digit: the allow becomes unregistered AND
    // the row becomes stale.
    let text = std::fs::read_to_string(&cfg.ledger_path).unwrap();
    let digit = text.find("`0x").unwrap() + 3;
    let mut tampered = text.clone().into_bytes();
    tampered[digit] = if tampered[digit] == b'f' { b'0' } else { b'f' };
    std::fs::write(&cfg.ledger_path, String::from_utf8(tampered).unwrap()).unwrap();

    let report = analyze(&cfg).unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "BNS-A000" && f.file == "allowed_alloc.rs"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "BNS-A000" && f.file == "ANALYZE_LEDGER.md"));

    // A registry row pointing at vanished code is flagged (blessable).
    std::fs::write(
        &cfg.ledger_path,
        xtask::analyze::ledger::render_allow_ledger(&clean.used_allows),
    )
    .unwrap();
    let mut registry = std::fs::read_to_string(&cfg.env_registry_path).unwrap();
    registry.push_str("| `BNS_GONE` | `nowhere.rs` | 1 |\n");
    std::fs::write(&cfg.env_registry_path, registry).unwrap();
    let report = analyze(&cfg).unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "BNS-A002" && f.file == "ENV_REGISTRY.md" && f.blessable));

    std::fs::remove_file(&cfg.ledger_path).ok();
    std::fs::remove_file(&cfg.env_registry_path).ok();
}

#[test]
fn real_workspace_is_analyze_clean() {
    let cfg = AnalyzeConfig::for_repo(&workspace_root());
    let report = analyze(&cfg).unwrap();
    assert!(
        report.findings.is_empty(),
        "workspace analyze must pass; run `cargo xtask analyze` for details:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The workspace genuinely carries ledgered exceptions and env
    // reads, so an empty scan would mean the engine broke.
    assert!(
        report.used_allows.len() >= 10,
        "only {} allows used",
        report.used_allows.len()
    );
    assert!(
        report.fns_parsed >= 500,
        "only {} fns parsed",
        report.fns_parsed
    );
}

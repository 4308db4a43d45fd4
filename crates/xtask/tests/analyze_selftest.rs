//! The analyzer analyzing itself: every rule must catch its seeded
//! fixture under `fixtures/`, the allow/bless cycle and the unsafe
//! ledger must round-trip and detect tampering, and the real workspace
//! must be clean.

use std::path::{Path, PathBuf};
use xtask::analyze::{analyze, bless, AnalyzeConfig, AnalyzeReport};

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

/// Config over the fixtures with throwaway generated-file paths; rule
/// policy mirrors the fixture sources (`*kernel.rs` are the kernels,
/// `hot_entry*` the hot path, `slots -> queue` the order, and no file
/// may spawn threads).
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
        unsafe_ledger_path: tmp("unsafe.md"),
        env_registry_path: tmp("env.md"),
        readme_path: Some(root.join("README_FIXTURE.md")),
        root,
        skip: vec![],
        kernel_files: vec![
            "det_kernel.rs".into(),
            "hash_kernel.rs".into(),
            "fma_kernel.rs".into(),
            "codec_fma_kernel.rs".into(),
            "field_hash_kernel.rs".into(),
            "allowed_fma_kernel.rs".into(),
        ],
        hot_entries: vec![
            "hot_entry".into(),
            "hot_entry_async".into(),
            "hot_entry_allowed".into(),
        ],
        arena_allow: vec!["Arena::take".into()],
        lock_scope: vec!["lock_invert.rs".into()],
        lock_order: vec!["slots".into(), "queue".into()],
        spawn_allow: vec![],
    }
}

fn rules_for(report: &AnalyzeReport, file: &str) -> Vec<(String, usize)> {
    report
        .findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.rule.clone(), f.line))
        .collect()
}

fn at(rule: &str, lines: &[usize]) -> Vec<(String, usize)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn every_rule_catches_its_seeded_fixture() {
    let cfg = fixture_cfg("catch");
    let report = analyze(&cfg).unwrap();
    let blessable = |file: &str| {
        let fs: Vec<_> = report.findings.iter().filter(|f| f.file == file).collect();
        assert!(!fs.is_empty(), "{file} has no findings");
        fs.iter().all(|f| f.blessable)
    };

    // BNS-A001 fires in the helper file, not just the kernel file: the
    // ban follows the call graph.
    assert_eq!(
        rules_for(&report, "det_helper.rs"),
        at("BNS-A001", &[4, 5]),
        "Instant::now and HashMap reachable from kernel_entry"
    );
    // Kernel files are banned whole: the `use` line and the signature
    // both name HashMap, and a field type alone is enough.
    assert_eq!(
        rules_for(&report, "hash_kernel.rs"),
        at("BNS-A001", &[4, 6])
    );
    assert_eq!(
        rules_for(&report, "field_hash_kernel.rs"),
        at("BNS-A001", &[7])
    );
    // `mul_add` and `_mm512_fmadd_ps`, each at its call line; the wire
    // codecs are under the same FMA ban as every other kernel file.
    assert_eq!(
        rules_for(&report, "fma_kernel.rs"),
        at("BNS-A001", &[6, 11])
    );
    assert_eq!(
        rules_for(&report, "codec_fma_kernel.rs"),
        at("BNS-A001", &[7])
    );
    // An allow comment cannot excuse a kernel-file ban: the finding
    // stands, and the allow is unused.
    assert_eq!(
        rules_for(&report, "allowed_fma_kernel.rs"),
        vec![("BNS-A000".to_string(), 6), ("BNS-A001".to_string(), 7)]
    );

    // BNS-A002: two unregistered reads (one literal, one via a const)
    // plus the undocumented-in-README finding for the literal one.
    assert_eq!(
        rules_for(&report, "env_read.rs"),
        at("BNS-A002", &[7, 7, 14]),
        "literal read flagged twice (registry+README), const read once"
    );

    // BNS-A003: direct inversion, self-deadlock, transitive inversion.
    assert_eq!(
        rules_for(&report, "lock_invert.rs"),
        at("BNS-A003", &[12, 19, 26])
    );

    // BNS-A005: all three allocation shapes in `stage`, the one
    // `stage_async` reaches through `.await`, and nothing from inside
    // the sanctioned `Arena::take` cut (line 12).
    assert_eq!(
        rules_for(&report, "hot_alloc.rs"),
        at("BNS-A005", &[24, 25, 26, 37])
    );

    // BNS-A006: an undocumented unsafe block is a hard finding; a
    // documented one only lacks its (blessable) ledger row.
    assert_eq!(
        rules_for(&report, "missing_safety.rs"),
        at("BNS-A006", &[4])
    );
    assert!(!blessable("missing_safety.rs"));
    assert_eq!(rules_for(&report, "documented.rs"), at("BNS-A006", &[5]));
    assert!(blessable("documented.rs"));

    // BNS-A007: a bare spawn is flagged, also right after a
    // `#[cfg(test)] use`, in a module-level `use` and in a
    // `macro_rules!` body; a spawn inside a #[cfg(test)] module is not.
    assert_eq!(
        rules_for(&report, "spawn_violation.rs"),
        at("BNS-A007", &[4])
    );
    assert_eq!(
        rules_for(&report, "spawn_after_cfg_test_use.rs"),
        at("BNS-A007", &[8])
    );
    assert_eq!(
        rules_for(&report, "spawn_outside_fn_body.rs"),
        at("BNS-A007", &[5, 9])
    );
    assert!(rules_for(&report, "spawn_in_test.rs").is_empty());

    // BNS-A000: the used-but-unledgered allow is blessable; the unused
    // allow is not (it must be deleted, not blessed). Both meta
    // findings anchor at the allow comment itself.
    assert_eq!(rules_for(&report, "allowed_alloc.rs"), at("BNS-A000", &[5]));
    assert!(blessable("allowed_alloc.rs"));
    assert_eq!(rules_for(&report, "unused_allow.rs"), at("BNS-A000", &[5]));
    assert!(!blessable("unused_allow.rs"));
}

#[test]
fn bless_refuses_while_rule_violations_remain() {
    let cfg = fixture_cfg("refused");
    let blocked = bless(&cfg).unwrap().unwrap_err();
    assert!(blocked.iter().any(|f| f.rule == "BNS-A001"));
    assert!(
        blocked
            .iter()
            .any(|f| f.rule == "BNS-A006" && f.file == "missing_safety.rs"),
        "a missing SAFETY comment blocks the bless"
    );
    assert!(
        blocked.iter().all(|f| !f.blessable),
        "only non-blessable findings may block a bless"
    );
    assert!(
        !cfg.ledger_path.exists()
            && !cfg.unsafe_ledger_path.exists()
            && !cfg.env_registry_path.exists(),
        "a refused bless must not write generated files"
    );
}

/// Flips one hash digit in a ledger (same width, still valid hex, but a
/// different value).
fn tamper(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let digit = text.find("`0x").unwrap() + 3;
    let mut tampered = text.clone().into_bytes();
    tampered[digit] = if tampered[digit] == b'f' { b'0' } else { b'f' };
    let tampered = String::from_utf8(tampered).unwrap();
    assert_ne!(text, tampered);
    std::fs::write(path, tampered).unwrap();
}

#[test]
fn bless_then_check_roundtrips_and_detects_tampering() {
    // Restrict the walk to the allowlisted fixture, the env reads and
    // the documented unsafe site so every finding is bookkeeping (the
    // README check is off: fixture docs cover only one variable by
    // design).
    let mut cfg = fixture_cfg("roundtrip");
    cfg.readme_path = None;
    let keep = ["allowed_alloc.rs", "env_read.rs", "documented.rs"];
    cfg.skip = std::fs::read_dir(fixtures_root())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !keep.contains(&n.as_str()))
        .collect();

    let blessed = bless(&cfg).unwrap().unwrap();
    assert_eq!(
        blessed.allows.len(),
        1,
        "exactly the allowed_alloc.rs allow"
    );
    assert_eq!(
        blessed.unsafe_sites.len(),
        1,
        "exactly the documented.rs site"
    );

    let clean = analyze(&cfg).unwrap();
    assert!(
        clean.findings.is_empty(),
        "freshly blessed state must verify: {:?}",
        clean.findings
    );
    let registry = std::fs::read_to_string(&cfg.env_registry_path).unwrap();
    assert!(registry.contains("`BNS_FIXTURE_WORKERS`"));
    assert!(registry.contains("`BNS_FIXTURE_GAIN`"));

    // A tampered row makes its site unregistered AND the row stale, in
    // either ledger.
    let anchored = |report: &AnalyzeReport, rule: &str, file: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.blessable)
    };
    tamper(&cfg.ledger_path);
    let report = analyze(&cfg).unwrap();
    assert!(anchored(&report, "BNS-A000", "allowed_alloc.rs"));
    assert!(anchored(&report, "BNS-A000", "ANALYZE_LEDGER.md"));

    tamper(&cfg.unsafe_ledger_path);
    let report = analyze(&cfg).unwrap();
    assert!(anchored(&report, "BNS-A006", "documented.rs"));
    assert!(anchored(&report, "BNS-A006", "UNSAFE_LEDGER.md"));

    // A registry row pointing at vanished code is flagged (blessable).
    bless(&cfg).unwrap().unwrap();
    let mut registry = std::fs::read_to_string(&cfg.env_registry_path).unwrap();
    registry.push_str("| `BNS_GONE` | `nowhere.rs` | 1 |\n");
    std::fs::write(&cfg.env_registry_path, registry).unwrap();
    let report = analyze(&cfg).unwrap();
    assert!(anchored(&report, "BNS-A002", "ENV_REGISTRY.md"));

    for p in [
        &cfg.ledger_path,
        &cfg.unsafe_ledger_path,
        &cfg.env_registry_path,
    ] {
        std::fs::remove_file(p).ok();
    }
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
    // The workspace genuinely carries ledgered exceptions, env reads
    // and unsafe (pool, kernels, loom shim), so an empty scan would
    // mean the engine broke.
    assert!(
        report.allows.len() >= 10,
        "only {} allows used",
        report.allows.len()
    );
    assert!(
        report.unsafe_sites.len() >= 10,
        "only {} unsafe sites",
        report.unsafe_sites.len()
    );
    assert!(
        report.fns_parsed >= 500,
        "only {} fns parsed",
        report.fns_parsed
    );
}

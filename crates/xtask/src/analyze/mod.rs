//! `cargo xtask analyze` — the workspace's one lint engine: AST-level
//! determinism, concurrency and `unsafe` lints with call-graph
//! reachability.
//!
//! It parses every checked-in source into a token stream and a
//! lightweight item/expression AST, builds an intra-workspace call
//! graph, and runs six rules:
//!
//! * **BNS-A001 determinism-reachability** — no wall-clock reads, hash
//!   containers, OS entropy or fused multiply-adds anywhere in the call
//!   closure of the deterministic kernels, nor anywhere in the kernel
//!   files themselves (those whole-file bans cannot be allowed).
//! * **BNS-A002 env-read-registry** — every `std::env::var("BNS_*")`
//!   read must be recorded in `ENV_REGISTRY.md` and documented in the
//!   README's configuration table.
//! * **BNS-A003 lock-order** — nested mutex acquisition in the
//!   scheduler/transport/engine must follow one declared order.
//! * **BNS-A005 allocation-in-hot-path** — the per-epoch overlapped
//!   exchange allocates only through the `ExchangeArena` recycler.
//! * **BNS-A006 unsafe-ledger** — every `unsafe` carries a
//!   `// SAFETY:` comment and a row in `UNSAFE_LEDGER.md`.
//! * **BNS-A007 thread-spawn-confinement** — `thread::spawn` /
//!   `thread::Builder` only where the config allows.
//!
//! Resolution is name-based and over-approximate (see `callgraph`);
//! intentional violations carry a `// bns-allow(rule): reason` comment
//! registered in the hash-keyed `ANALYZE_LEDGER.md`. A missing SAFETY
//! comment and a banned token in a kernel file cannot be allowed. `cargo xtask analyze --bless` regenerates
//! both ledgers and `ENV_REGISTRY.md` (see `ledger`).

pub mod callgraph;
pub mod diag;
pub mod ledger;
pub mod lexer;
pub mod parser;
pub mod rules;

use callgraph::CallGraph;
use diag::Finding;
use ledger::{collect_allows, Row};
use parser::{is_test_path, parse_functions, Function, SourceFile};
use std::path::{Path, PathBuf};

/// Relative path prefixes checked by BNS-A006/A007 only. The analyzer
/// itself and the vendored test-only shims need SAFETY comments and
/// spawn confinement, but stay out of the call graph and the other
/// rules: their hygiene is unit tests and clippy.
const LINT_ONLY: &[&str] = &["crates/xtask", "vendor"];

/// What to analyze and where the policy boundaries are.
pub struct AnalyzeConfig {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Relative path prefixes excluded from the walk.
    pub skip: Vec<String>,
    /// Allowlist ledger (normally `<root>/ANALYZE_LEDGER.md`).
    pub ledger_path: PathBuf,
    /// Unsafe-site ledger (normally `<root>/UNSAFE_LEDGER.md`).
    pub unsafe_ledger_path: PathBuf,
    /// Env-read registry (normally `<root>/ENV_REGISTRY.md`).
    pub env_registry_path: PathBuf,
    /// README whose configuration table must document every `BNS_*`
    /// variable (`None` disables the documentation check, e.g. in
    /// fixture runs).
    pub readme_path: Option<PathBuf>,
    /// BNS-A001 scope: every non-test fn defined in these files is an
    /// entry point, and the files are banned whole.
    pub kernel_files: Vec<String>,
    /// BNS-A005 entry points (bare or `Type::method` names).
    pub hot_entries: Vec<String>,
    /// BNS-A005 traversal cut: the arena recycler (and other functions
    /// that own their buffers by design) — visited but not descended
    /// into, and not scanned.
    pub arena_allow: Vec<String>,
    /// BNS-A003 scope: path prefixes whose functions are replayed.
    pub lock_scope: Vec<String>,
    /// BNS-A003 declared lock order, outermost first.
    pub lock_order: Vec<String>,
    /// BNS-A007 allowlist: path prefixes that may spawn threads.
    pub spawn_allow: Vec<String>,
}

impl AnalyzeConfig {
    /// The real workspace policy.
    pub fn for_repo(root: &Path) -> Self {
        AnalyzeConfig {
            root: root.to_path_buf(),
            skip: vec![
                "target".into(),
                ".git".into(),
                // Seeded lint-violation fixtures must not fail the real
                // run; tests/analyze_selftest.rs walks them explicitly.
                "crates/xtask/fixtures".into(),
            ],
            ledger_path: root.join("ANALYZE_LEDGER.md"),
            unsafe_ledger_path: root.join("UNSAFE_LEDGER.md"),
            env_registry_path: root.join("ENV_REGISTRY.md"),
            readme_path: Some(root.join("README.md")),
            kernel_files: vec![
                "crates/nn/src/aggregate.rs".into(),
                "crates/nn/src/activation.rs".into(),
                "crates/nn/src/optim.rs".into(),
                "crates/tensor/src/matrix.rs".into(),
                "crates/tensor/src/simd.rs".into(),
                // The wire codecs: quantize/dequantize must stay
                // bitwise identical across backends.
                "crates/tensor/src/simd/codec.rs".into(),
                "crates/core/src/exchange.rs".into(),
                // The per-query serving hot path: closure expansion,
                // feature gather, and the boundary cache.
                "crates/serve/src/shard.rs".into(),
                "crates/serve/src/cache.rs".into(),
            ],
            // The per-epoch overlapped exchange: the local selection
            // builder, the send side and the async receive ops the rank
            // program awaits every epoch, and the segmented layers
            // between them.
            hot_entries: vec![
                "send_boundary_rows".into(),
                "EpochExchange::rebuild".into(),
                "recv_boundary_blocks".into(),
                "exchange_gradients".into(),
                // The segmented SAGE/GCN training layers: every buffer
                // they write is owned by the rank for the whole run.
                "SageLayer::forward_inner_into".into(),
                "SageLayer::forward_boundary_into".into(),
                "SageLayer::backward_seg_into".into(),
                "GcnLayer::forward_inner_into".into(),
                "GcnLayer::forward_boundary_into".into(),
                "GcnLayer::backward_seg_into".into(),
                // The reduce phase: gradient flatten, then the
                // write-back and Adam step after the all-reduce.
                "flatten_grads".into(),
                "apply_reduced_grads".into(),
            ],
            arena_allow: vec![
                // The arena recycler is the sanctioned allocator: it
                // reuses steady-state buffers and meters what it must
                // allocate.
                "ExchangeArena::take_buf".into(),
                "ExchangeArena::take_u8".into(),
                "ExchangeArena::recycle".into(),
                "ExchangeArena::recycle_u8".into(),
                "ExchangeArena::reset_h_bd".into(),
                // The transport owns envelope buffers: messages are
                // owned values by design, and its costs are metered by
                // TrafficStats rather than banned.
                "RankComm::send".into(),
                "RankComm::poll_recv_any".into(),
                "RankComm::recv".into(),
                // Telemetry is feature-gated and amortized; its
                // registry is not part of the exchange data path.
                "counter_add".into(),
                "gauge_set".into(),
                "series_push".into(),
            ],
            lock_scope: vec![
                "crates/comm/src/".into(),
                "crates/runtime/src/".into(),
                "crates/core/src/".into(),
            ],
            // Outermost first. `slots` (a rank task slot, held across
            // `step()`) must be taken before anything the step body or
            // the scheduler touches — the serve shard/job state, the
            // engine output slot, a task's table of peer wakers (held
            // while it wakes a peer), the run queue, and waker slots;
            // the telemetry series lock is the innermost leaf.
            lock_order: vec![
                "slots".into(),
                "shards".into(),
                "completed".into(),
                "state".into(),
                "out".into(),
                "wakers".into(),
                "queue".into(),
                "waker".into(),
                "panic".into(),
                "counters".into(),
                "gauges".into(),
                "series".into(),
            ],
            spawn_allow: vec![
                // The compute pool owns the worker threads.
                "crates/tensor/src/pool.rs".into(),
                // The cooperative scheduler owns the rank-task workers.
                "crates/runtime/src".into(),
                // The serving engine's per-shard workers.
                "crates/serve/src/worker.rs".into(),
                // The model checker's cooperative scheduler.
                "vendor/loom".into(),
            ],
        }
    }

    /// Display name for the README in diagnostics.
    pub fn readme_display(&self) -> String {
        self.readme_path
            .as_ref()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "README.md".into())
    }
}

/// The parsed workspace: files, functions, and the call graph over
/// them.
pub struct Workspace {
    /// Files in the call graph's scope.
    pub files: Vec<SourceFile>,
    pub fns: Vec<Function>,
    pub graph: CallGraph,
    /// Files under a `LINT_ONLY` prefix.
    pub lint_only: Vec<SourceFile>,
}

impl Workspace {
    /// Parses every `.rs` file under the config root.
    pub fn load(cfg: &AnalyzeConfig) -> std::io::Result<Self> {
        let (mut files, mut lint_only) = (Vec::new(), Vec::new());
        for p in crate::walk_rust_files(&cfg.root, &cfg.skip)? {
            let rel = crate::rel_path(&cfg.root, &p);
            let outside = LINT_ONLY.iter().any(|s| rel.starts_with(&format!("{s}/")));
            let sf = SourceFile::parse(rel, std::fs::read_to_string(&p)?);
            if outside { &mut lint_only } else { &mut files }.push(sf);
        }
        let mut fns = Vec::new();
        for (idx, sf) in files.iter().enumerate() {
            fns.extend(parse_functions(sf, idx, is_test_path(&sf.rel)));
        }
        let graph = CallGraph::build(&fns);
        Ok(Workspace {
            files,
            fns,
            graph,
            lint_only,
        })
    }
}

/// Everything one analyze pass produces.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Surviving findings (rule violations not allowlisted, plus
    /// ledger/registry bookkeeping), sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Allows that suppressed at least one finding, and the documented
    /// unsafe sites: the rows `--bless` writes to the two ledgers.
    pub allows: Vec<Row>,
    pub unsafe_sites: Vec<Row>,
    /// Rendered ENV_REGISTRY.md contents for the observed sites — what
    /// `--bless` writes.
    pub env_registry: String,
    pub files_scanned: usize,
    pub fns_parsed: usize,
}

/// Runs all rules, applies the allowlist, and cross-checks the three
/// generated files.
pub fn analyze(cfg: &AnalyzeConfig) -> std::io::Result<AnalyzeReport> {
    let ws = Workspace::load(cfg)?;
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    let all_files = || ws.files.iter().chain(&ws.lint_only);

    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::determinism(&ws, cfg));
    let sites = rules::env_sites(&ws);
    let registry = rules::parse_env_registry(&read(&cfg.env_registry_path));
    let readme = cfg.readme_path.as_deref().map(read);
    raw.extend(rules::env_registry(
        &ws,
        cfg,
        &sites,
        &registry,
        readme.as_deref(),
    ));
    raw.extend(rules::lock_order(&ws, cfg));
    raw.extend(rules::hot_alloc(&ws, cfg));
    for sf in all_files() {
        raw.extend(rules::spawn_confinement(sf, cfg));
    }

    let allows: Vec<_> = all_files().flat_map(collect_allows).collect();
    let (mut findings, used) = ledger::apply_allows(raw, &allows);
    let allows: Vec<Row> = used.iter().map(Row::from).collect();
    let recorded = ledger::ALLOWS.parse(&read(&cfg.ledger_path));
    findings.extend(ledger::ALLOWS.check(&allows, &recorded));

    // After the allow pass: no comment can excuse a missing SAFETY or
    // a banned token in a kernel file.
    findings.extend(rules::kernel_bans(&ws, cfg));
    let mut unsafe_sites = Vec::new();
    for sf in all_files() {
        findings.extend(rules::unsafe_sites(sf, &mut unsafe_sites));
    }
    unsafe_sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let recorded = ledger::UNSAFE.parse(&read(&cfg.unsafe_ledger_path));
    findings.extend(ledger::UNSAFE.check(&unsafe_sites, &recorded));
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    Ok(AnalyzeReport {
        findings,
        allows,
        unsafe_sites,
        env_registry: rules::render_env_registry(&ws, &sites),
        files_scanned: ws.files.len() + ws.lint_only.len(),
        fns_parsed: ws.fns.len(),
    })
}

/// Regenerates `ANALYZE_LEDGER.md`, `UNSAFE_LEDGER.md` and
/// `ENV_REGISTRY.md`, refusing while non-bookkeeping findings remain —
/// a `--bless` must never paper over an unallowed violation, a missing
/// SAFETY comment or a missing README row.
pub fn bless(cfg: &AnalyzeConfig) -> std::io::Result<Result<AnalyzeReport, Vec<Finding>>> {
    let mut report = analyze(cfg)?;
    let blocking: Vec<Finding> = report.findings.drain(..).filter(|f| !f.blessable).collect();
    if !blocking.is_empty() {
        return Ok(Err(blocking));
    }
    std::fs::write(&cfg.ledger_path, ledger::ALLOWS.render(&report.allows))?;
    std::fs::write(
        &cfg.unsafe_ledger_path,
        ledger::UNSAFE.render(&report.unsafe_sites),
    )?;
    std::fs::write(&cfg.env_registry_path, &report.env_registry)?;
    Ok(Ok(report))
}

//! The four call-graph-aware rules (`BNS-A001`, `BNS-A002`, `BNS-A003`,
//! `BNS-A005`).
//!
//! Each rule returns raw [`Finding`]s; the driver in `analyze/mod.rs`
//! applies the allowlist afterwards. Rules only report from non-test
//! code — the parser marks `#[cfg(test)]` regions and `tests/` paths,
//! and the call graph refuses to route reachability through test
//! helpers.

use super::callgraph::FnId;
use super::diag::Finding;
use super::ledger::allow_key;
use super::parser::Event;
use super::{AnalyzeConfig, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

pub const A001: (&str, &str) = ("BNS-A001", "determinism-reachability");
pub const A002: (&str, &str) = ("BNS-A002", "env-read-registry");
pub const A003: (&str, &str) = ("BNS-A003", "lock-order");
pub const A005: (&str, &str) = ("BNS-A005", "allocation-in-hot-path");

/// Builds a rule finding, deriving the allowlist key from the covered
/// source line so a `// bns-allow` comment on that line matches.
fn finding(
    ws: &Workspace,
    rule: (&str, &str),
    file_idx: usize,
    line: usize,
    message: String,
    note: Option<String>,
) -> Finding {
    let sf = &ws.files[file_idx];
    let covered = sf.text.lines().nth(line - 1).map(str::trim).unwrap_or("");
    Finding {
        rule: rule.0.into(),
        name: rule.1.into(),
        file: sf.rel.clone(),
        line,
        message,
        note,
        key: allow_key(rule.0, covered, ""),
        blessable: false,
    }
}

/// Occurrences of a significant-token sequence inside `range`; returns
/// the index of each match's first token.
fn find_seq(sf: &super::parser::SourceFile, range: &Range<usize>, pat: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    if range.len() < pat.len() {
        return out;
    }
    for i in range.start..=range.end - pat.len() {
        if pat.iter().enumerate().all(|(k, p)| sf.sig_is(i + k, p)) {
            out.push(i);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// BNS-A001: determinism-reachability
// ---------------------------------------------------------------------------

/// Sources of run-to-run nondeterminism: wall-clock reads, randomized
/// hash containers, and OS entropy. Banned in every function reachable
/// from a kernel entry point — the repro contract is bitwise, so the
/// whole call closure must be deterministic, not just the kernel file.
const NONDETERMINISM: &[(&[&str], &str)] = &[
    (&["Instant", ":", ":", "now"], "Instant::now"),
    (&["SystemTime"], "SystemTime"),
    (&["HashMap"], "HashMap"),
    (&["HashSet"], "HashSet"),
    (&["RandomState"], "RandomState"),
    (&["OsRng"], "OsRng"),
    (&["thread_rng"], "thread_rng"),
    (&["from_entropy"], "from_entropy"),
];

pub fn determinism(ws: &Workspace, cfg: &AnalyzeConfig) -> Vec<Finding> {
    let mut roots: Vec<FnId> = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !f.is_test && cfg.kernel_files.iter().any(|k| ws.files[f.file].rel == *k) {
            roots.push(id);
        }
    }
    let reach = ws.graph.reach(&roots, &[]);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (&id, _) in reach.iter() {
        let f = &ws.fns[id];
        if f.is_test {
            continue;
        }
        let sf = &ws.files[f.file];
        for (pat, label) in NONDETERMINISM {
            for tok in find_seq(sf, &f.body, pat) {
                let line = sf.sig_line(tok);
                if !seen.insert((f.file, line, *label)) {
                    continue;
                }
                out.push(finding(
                    ws,
                    A001,
                    f.file,
                    line,
                    format!(
                        "`{label}` is reachable from a deterministic kernel entry point; \
                         everything a kernel calls must be bitwise reproducible"
                    ),
                    Some(format!(
                        "example path: {}",
                        ws.graph.path_to(&reach, id, &ws.fns)
                    )),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// BNS-A002: env-read-registry
// ---------------------------------------------------------------------------

/// One observed `std::env::var("BNS_*")` read.
#[derive(Debug)]
pub struct EnvSite {
    pub var: String,
    pub file_idx: usize,
    pub line: usize,
}

/// Collects every `env::var` read of a `BNS_*` variable, resolving
/// const names (`ENV_WORKERS` -> `BNS_WORKERS`) across the workspace.
pub fn env_sites(ws: &Workspace, cfg: &AnalyzeConfig) -> Vec<EnvSite> {
    // Pass 1: `const NAME: &str = "BNS_…";` declarations, workspace-wide.
    let mut consts: BTreeMap<String, String> = BTreeMap::new();
    for sf in &ws.files {
        let n = sf.sig.len();
        for i in 0..n {
            if !sf.sig_is(i, "const") || !sf.sig_is_ident(i + 1) {
                continue;
            }
            let name = sf.sig_text(i + 1).to_string();
            // Scan a short window for the value, stopping at `;`.
            for j in i + 2..(i + 12).min(n) {
                if sf.sig_is(j, ";") {
                    break;
                }
                if let Some(v) = str_value(sf, j) {
                    if v.starts_with(&cfg.env_prefix) {
                        consts.insert(name.clone(), v);
                    }
                    break;
                }
            }
        }
    }
    // Pass 2: `env :: var (` call sites in non-test code.
    let mut out = Vec::new();
    for f in &ws.fns {
        if f.is_test {
            continue;
        }
        let sf = &ws.files[f.file];
        for tok in find_seq(sf, &f.body, &["env", ":", ":", "var", "("]) {
            let arg = tok + 5;
            let var = match str_value(sf, arg) {
                Some(v) => {
                    if v.starts_with(&cfg.env_prefix) {
                        Some(v)
                    } else {
                        None
                    }
                }
                None if sf.sig_is_ident(arg) => consts.get(sf.sig_text(arg)).cloned(),
                None => None,
            };
            if let Some(var) = var {
                out.push(EnvSite {
                    var,
                    file_idx: f.file,
                    line: sf.sig_line(tok),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.var, a.file_idx, a.line).cmp(&(&b.var, b.file_idx, b.line)));
    out
}

/// The unquoted value of significant token `i` when it is a plain
/// string literal.
fn str_value(sf: &super::parser::SourceFile, i: usize) -> Option<String> {
    if i >= sf.sig.len() {
        return None;
    }
    let tok = sf.sig_tok(i);
    if tok.kind != super::lexer::TokenKind::Str {
        return None;
    }
    let t = tok.text(&sf.text);
    Some(t.trim_matches('"').to_string())
}

/// `(var, file) -> site count` as recorded in ENV_REGISTRY.md.
pub type EnvRegistry = BTreeMap<(String, String), usize>;

pub fn parse_env_registry(text: &str) -> EnvRegistry {
    let mut out = EnvRegistry::new();
    for line in text.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 || cells[0] == "Variable" || cells[0].starts_with("---") {
            continue;
        }
        let var = cells[0].trim_matches('`').to_string();
        let file = cells[1].trim_matches('`').to_string();
        let Ok(count) = cells[2].parse::<usize>() else {
            continue;
        };
        *out.entry((var, file)).or_insert(0) += count;
    }
    out
}

pub fn render_env_registry(ws: &Workspace, sites: &[EnvSite]) -> String {
    let mut counts = EnvRegistry::new();
    for s in sites {
        *counts
            .entry((s.var.clone(), ws.files[s.file_idx].rel.clone()))
            .or_insert(0) += 1;
    }
    let mut out = String::from("# Environment Variable Registry\n\n");
    out.push_str(
        "Every `std::env::var(\"BNS_*\")` read in non-test code, as found by\n\
         `cargo xtask analyze` (rule BNS-A002). Adding, moving, or removing a read\n\
         fails the analyzer until this file is regenerated with\n\
         `cargo xtask analyze --bless` — and every variable listed here must be\n\
         documented in the README's configuration table.\n\
         Generated file — do not edit rows by hand.\n\n",
    );
    out.push_str("| Variable | File | Sites |\n");
    out.push_str("|---|---|---|\n");
    for ((var, file), count) in &counts {
        out.push_str(&format!("| `{var}` | `{file}` | {count} |\n"));
    }
    out
}

pub fn env_registry(
    ws: &Workspace,
    cfg: &AnalyzeConfig,
    sites: &[EnvSite],
    registry: &EnvRegistry,
    readme: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut counts: BTreeMap<(String, String), (usize, usize, usize)> = BTreeMap::new();
    for s in sites {
        let e = counts
            .entry((s.var.clone(), ws.files[s.file_idx].rel.clone()))
            .or_insert((0, s.file_idx, s.line));
        e.0 += 1;
    }
    for ((var, file), (count, file_idx, line)) in &counts {
        match registry.get(&(var.clone(), file.clone())) {
            Some(&n) if n == *count => {}
            Some(&n) => out.push(Finding {
                blessable: true,
                ..finding(
                    ws,
                    A002,
                    *file_idx,
                    *line,
                    format!(
                        "`{var}` is read {count} time(s) here but ENV_REGISTRY.md records \
                         {n}; review and run `cargo xtask analyze --bless`"
                    ),
                    None,
                )
            }),
            None => out.push(Finding {
                blessable: true,
                ..finding(
                    ws,
                    A002,
                    *file_idx,
                    *line,
                    format!(
                        "env read of `{var}` is not recorded in ENV_REGISTRY.md; review \
                         and run `cargo xtask analyze --bless`"
                    ),
                    None,
                )
            }),
        }
    }
    for (var, file) in registry.keys() {
        if !counts.contains_key(&(var.clone(), file.clone())) {
            out.push(Finding {
                rule: A002.0.into(),
                name: A002.1.into(),
                file: "ENV_REGISTRY.md".into(),
                line: 1,
                message: format!(
                    "registry row ({var}, {file}) matches no env read; the code \
                     changed — re-bless after review"
                ),
                note: None,
                key: 0,
                blessable: true,
            });
        }
    }
    // Every live variable must appear (backticked) in the README's
    // configuration table. Not blessable: documentation is written by
    // hand.
    if let Some(readme) = readme {
        let mut seen_vars = BTreeSet::new();
        for s in sites {
            if !seen_vars.insert(s.var.clone()) {
                continue;
            }
            if !readme.contains(&format!("`{}`", s.var)) {
                out.push(finding(
                    ws,
                    A002,
                    s.file_idx,
                    s.line,
                    format!(
                        "`{}` is read here but not documented in {}'s configuration \
                         table",
                        s.var,
                        cfg.readme_display()
                    ),
                    None,
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// BNS-A003: lock-order
// ---------------------------------------------------------------------------

pub fn lock_order(ws: &Workspace, cfg: &AnalyzeConfig) -> Vec<Finding> {
    let n = ws.fns.len();
    // Direct lock classes per function.
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for ev in &f.events {
            if let Event::Lock { class, .. } = ev {
                if class != "<unknown>" && class != "self" {
                    direct[id].insert(class.clone());
                }
            }
        }
    }
    // Transitive closure over the call graph (fixpoint; the graph is
    // small and the class sets tiny).
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add: Vec<String> = Vec::new();
            for &c in &ws.graph.calls[id] {
                for cls in &trans[c] {
                    if !trans[id].contains(cls) {
                        add.push(cls.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[id].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    let pos = |c: &str| cfg.lock_order.iter().position(|x| x == c);
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut undeclared = BTreeSet::new();
    for f in ws.fns.iter() {
        if f.is_test {
            continue;
        }
        let rel = &ws.files[f.file].rel;
        if !cfg.lock_scope.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        let sf = &ws.files[f.file];
        // Replay the body: a stack of held guards (class, brace depth,
        // binding name).
        let mut held: Vec<(String, usize, Option<String>)> = Vec::new();
        let mut pair = |outer: &str,
                        inner: &str,
                        tok: usize,
                        via: Option<&str>,
                        out: &mut Vec<Finding>,
                        undeclared: &mut BTreeSet<(usize, String)>| {
            let line = sf.sig_line(tok);
            if !seen.insert((f.file, line, outer.to_string(), inner.to_string())) {
                return;
            }
            let note = via.map(|v| format!("acquired transitively via `{v}`"));
            if outer == inner {
                out.push(finding(
                    ws,
                    A003,
                    f.file,
                    line,
                    format!(
                        "lock class `{outer}` acquired while a `{outer}` guard is \
                         already held (self-deadlock risk)"
                    ),
                    note,
                ));
                return;
            }
            match (pos(outer), pos(inner)) {
                (Some(po), Some(pi)) if po > pi => out.push(finding(
                    ws,
                    A003,
                    f.file,
                    line,
                    format!(
                        "lock `{inner}` acquired while holding `{outer}` inverts the \
                         declared order ({})",
                        cfg.lock_order.join(" -> ")
                    ),
                    note,
                )),
                (Some(_), Some(_)) => {}
                _ => {
                    for c in [outer, inner] {
                        if pos(c).is_none() && undeclared.insert((f.file, c.to_string())) {
                            out.push(finding(
                                ws,
                                A003,
                                f.file,
                                line,
                                format!(
                                    "lock class `{c}` participates in nesting but is not in \
                                     the declared lock order ({}); declare its rank",
                                    cfg.lock_order.join(" -> ")
                                ),
                                note.clone(),
                            ));
                        }
                    }
                }
            }
        };
        for ev in &f.events {
            match ev {
                Event::Lock {
                    class,
                    guard,
                    depth,
                    tok,
                } => {
                    if class == "<unknown>" || class == "self" {
                        continue;
                    }
                    for (h, _, _) in held.clone() {
                        pair(&h, class, *tok, None, &mut out, &mut undeclared);
                    }
                    if guard.is_some() {
                        held.push((class.clone(), *depth, guard.clone()));
                    }
                }
                Event::Drop { name, .. } => {
                    held.retain(|(_, _, g)| g.as_deref() != Some(name.as_str()));
                }
                Event::Close { depth } => {
                    held.retain(|(_, d, _)| d < depth);
                }
                Event::Call { tok, .. } | Event::MethodCall { tok, .. } => {
                    if held.is_empty() {
                        continue;
                    }
                    for c in ws.graph.resolve_event(ev, f.impl_type.as_deref()) {
                        for cls in trans[c].iter() {
                            for (h, _, _) in held.clone() {
                                pair(
                                    &h,
                                    cls,
                                    *tok,
                                    Some(&ws.fns[c].qualified()),
                                    &mut out,
                                    &mut undeclared,
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// BNS-A005: allocation-in-hot-path
// ---------------------------------------------------------------------------

/// `Type::new`-style allocating constructors.
const ALLOC_PATHS: &[&str] = &["Vec", "Box", "String", "Arc", "Rc", "VecDeque", "BTreeMap"];
/// Allocating method calls.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];
/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

pub fn hot_alloc(ws: &Workspace, cfg: &AnalyzeConfig) -> Vec<Finding> {
    let roots: Vec<FnId> = cfg
        .hot_entries
        .iter()
        .flat_map(|e| ws.graph.resolve_name(e))
        .collect();
    let stops: Vec<FnId> = cfg
        .arena_allow
        .iter()
        .flat_map(|e| ws.graph.resolve_name(e))
        .collect();
    let reach = ws.graph.reach(&roots, &stops);
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for (&id, _) in reach.iter() {
        let f = &ws.fns[id];
        if f.is_test || stops.contains(&id) {
            continue;
        }
        let sf = &ws.files[f.file];
        let mut hit = |what: String, tok: usize, out: &mut Vec<Finding>| {
            let line = sf.sig_line(tok);
            if !seen.insert((f.file, line, what.clone())) {
                return;
            }
            out.push(finding(
                ws,
                A005,
                f.file,
                line,
                format!(
                    "`{what}` allocates in the per-epoch exchange hot path; recycle \
                     through ExchangeArena or ledger the steady-state exception"
                ),
                Some(format!(
                    "example path: {}",
                    ws.graph.path_to(&reach, id, &ws.fns)
                )),
            ));
        };
        for ev in &f.events {
            match ev {
                Event::Macro { name, tok } if ALLOC_MACROS.contains(&name.as_str()) => {
                    hit(format!("{name}!"), *tok, &mut out);
                }
                Event::MethodCall { name, tok } if ALLOC_METHODS.contains(&name.as_str()) => {
                    hit(format!(".{name}()"), *tok, &mut out);
                }
                Event::Call { segments, tok } if segments.len() >= 2 => {
                    let last = segments.last().unwrap().as_str();
                    let ty = segments[segments.len() - 2].as_str();
                    if (last == "new" || last == "with_capacity") && ALLOC_PATHS.contains(&ty) {
                        hit(format!("{ty}::{last}"), *tok, &mut out);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

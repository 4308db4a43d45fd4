//! `cargo xtask` entry point (aliased in `.cargo/config.toml`).

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::analyze::diag::{render_human, render_json};
use xtask::analyze::{analyze, bless, AnalyzeConfig};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("analyze") {
        eprintln!("usage: cargo xtask analyze [--bless] [--json]");
        return ExitCode::from(2);
    }
    let cfg = AnalyzeConfig::for_repo(&workspace_root());
    if args.iter().any(|a| a == "--bless") {
        return match bless(&cfg) {
            Ok(Ok(rep)) => {
                println!(
                    "blessed {} allow(s) and {} unsafe site(s); regenerated {}, {} and {}",
                    rep.allows.len(),
                    rep.unsafe_sites.len(),
                    cfg.ledger_path.display(),
                    cfg.unsafe_ledger_path.display(),
                    cfg.env_registry_path.display()
                );
                ExitCode::SUCCESS
            }
            Ok(Err(blocking)) => {
                eprintln!("cannot bless while rule violations remain:");
                eprint!("{}", render_human(&blocking));
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("analyze failed to run: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let rep = match analyze(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("analyze failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Human findings go to stderr, `--json` (machine output) to stdout.
    if args.iter().any(|a| a == "--json") {
        print!("{}", render_json(&rep.findings));
    } else if rep.findings.is_empty() {
        println!(
            "analyze clean: {} files, {} fns, {} unsafe site(s), {} allow(s) ledgered",
            rep.files_scanned,
            rep.fns_parsed,
            rep.unsafe_sites.iter().map(|s| s.count).sum::<usize>(),
            rep.allows.len()
        );
    } else {
        eprint!("{}", render_human(&rep.findings));
        eprintln!("{} finding(s)", rep.findings.len());
    }
    if rep.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

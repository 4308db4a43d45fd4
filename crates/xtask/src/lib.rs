//! Source-level lints for the workspace, run as `cargo xtask analyze`
//! (see `.cargo/config.toml` and [`analyze`]). Everything is enforced
//! over the checked-in sources, with no compilation, so the lints also
//! cover cfg'd-out code.

// The analyzer itself must not need a SAFETY ledger.
#![forbid(unsafe_code)]

pub mod analyze;

use std::path::{Path, PathBuf};

/// FNV-1a 64-bit, the ledgers' context hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recursively collects `.rs` files under `root`, honoring the `skip`
/// prefixes, sorted for deterministic reports.
pub fn walk_rust_files(root: &Path, skip: &[String]) -> std::io::Result<Vec<PathBuf>> {
    fn rec(
        dir: &Path,
        root: &Path,
        skip: &[String],
        out: &mut Vec<PathBuf>,
    ) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            let rel = rel_path(root, &p);
            if skip
                .iter()
                .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
            {
                continue;
            }
            if p.is_dir() {
                rec(&p, root, skip, out)?;
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    rec(root, root, skip, &mut out)?;
    Ok(out)
}

pub fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vector.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}

//! The clippy deny set that replaced analyzer rules R1 (clock reads), R2
//! (float equality), R4 (prints) and R9 (unordered collections); DESIGN.md
//! §6a maps each rule to its lints. Clippy runs in CI, not in `cargo test`,
//! and most of these lints are allow-by-default, so [`gaps`] lists every
//! deny line or banned path missing from the root `Cargo.toml` and
//! `clippy.toml`. Tier-1 asserts the list is empty, and the determinism
//! certificate counts each gap against the fact its lint backs.

use std::path::Path;

/// Lints the root manifest's `[workspace.lints.clippy]` table must deny.
pub const DENIED_LINTS: &[&str] = &[
    "disallowed_methods",
    "disallowed_types",
    "float_cmp",
    "unwrap_used",
    "expect_used",
    "print_stdout",
    "print_stderr",
    "dbg_macro",
];

/// Paths `clippy.toml` must ban, per configuration key.
pub const BANNED_PATHS: &[(&str, &[&str])] = &[
    (
        "disallowed-methods",
        &["std::time::Instant::now", "std::time::SystemTime::now"],
    ),
    (
        "disallowed-types",
        &[
            "std::time::SystemTime",
            "std::collections::HashMap",
            "std::collections::HashSet",
        ],
    ),
];

/// One missing piece of the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gap {
    /// The clippy lint the gap weakens (`"disallowed_types"`, …).
    pub lint: String,
    /// What is missing, in words.
    pub missing: String,
}

/// The gaps of the workspace at `root`; a missing file reads as empty.
pub fn workspace_gaps(root: &Path) -> Vec<Gap> {
    let read = |name: &str| std::fs::read_to_string(root.join(name)).unwrap_or_default();
    gaps(&read("Cargo.toml"), &read("clippy.toml"))
}

/// Every gap between the required gate and these root `Cargo.toml` and
/// `clippy.toml` texts.
pub fn gaps(cargo_toml: &str, clippy_toml: &str) -> Vec<Gap> {
    let denied = denied_lints(cargo_toml);
    let mut out: Vec<Gap> = DENIED_LINTS
        .iter()
        .filter(|lint| !denied.contains(&lint.to_string()))
        .map(|lint| Gap {
            lint: lint.to_string(),
            missing: format!("`{lint} = \"deny\"` in Cargo.toml [workspace.lints.clippy]"),
        })
        .collect();
    for &(key, paths) in BANNED_PATHS {
        let banned = banned_paths(clippy_toml, key);
        for path in paths.iter().filter(|p| !banned.contains(&p.to_string())) {
            out.push(Gap {
                lint: key.replace('-', "_"),
                missing: format!("`{path}` in clippy.toml `{key}`"),
            });
        }
    }
    out
}

/// Whether a line of code (comments and strings already blanked) is an
/// `allow`/`expect` attribute that silences `clippy::<lint>`.
pub fn silences(code: &str, lint: &str) -> bool {
    (code.contains("allow(") || code.contains("expect("))
        && code.contains(&format!("clippy::{lint}"))
}

/// The lints `[workspace.lints.clippy]` sets to `deny` or `forbid`.
fn denied_lints(cargo_toml: &str) -> Vec<String> {
    let mut in_table = false;
    let mut out = Vec::new();
    for line in cargo_toml.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.lints.clippy]";
        } else if let Some((lint, level)) = line.split_once('=').filter(|_| in_table) {
            if level.contains("\"deny\"") || level.contains("\"forbid\"") {
                out.push(lint.trim().to_string());
            }
        }
    }
    out
}

/// The paths the multi-line `key` array of `clippy.toml` bans, one
/// element per line: `"<path>",` or `{ path = "<path>", reason = "…" },`.
/// Any other layout bans nothing here, so it fails the gate, not passes.
fn banned_paths(clippy_toml: &str, key: &str) -> Vec<String> {
    let mut lines = clippy_toml.lines().map(str::trim);
    let assigned = |l: &str| {
        l.strip_prefix(key)
            .is_some_and(|r| r.trim_start().starts_with('='))
    };
    if !lines.any(assigned) {
        return Vec::new();
    }
    lines
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| {
            let element = match l.strip_prefix('"') {
                Some(bare) => bare,
                None => &l[l.find("path = \"")? + "path = \"".len()..],
            };
            element.split_once('"').map(|(path, _)| path.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "[workspace.lints.clippy]\ndisallowed_methods = \"deny\"\n\
        disallowed_types = { level = \"deny\", priority = 1 }\nfloat_cmp = \"deny\" # total_cmp\n\
        unwrap_used = \"deny\"\nexpect_used = \"deny\"\nprint_stdout = \"forbid\"\n\
        print_stderr = \"deny\"\ndbg_macro = \"deny\"\n\n[package]\n";

    const CLIPPY: &str = "disallowed-methods = [\n\
        { path = \"std::time::Instant::now\", reason = \"a, b\" },\n\"std::time::SystemTime::now\",\n]\n\
        disallowed-types = [\n{ reason = \"not std::time::Instant\", path = \"std::time::SystemTime\" },\n\
        { path = \"std::collections::HashMap\" },\n{ path = \"std::collections::HashSet\" },\n]\n";

    #[test]
    fn each_missing_deny_line_or_banned_path_is_one_gap() {
        assert_eq!(gaps(MANIFEST, CLIPPY), Vec::new());
        assert_eq!(gaps("", "").len(), 13);
        for lint in DENIED_LINTS {
            let g = gaps(&MANIFEST.replace(&format!("\n{lint} ="), "\nx ="), CLIPPY);
            assert!(g.len() == 1 && g[0].lint == *lint, "{lint}: {g:?}");
        }
        for &(key, paths) in BANNED_PATHS {
            for path in paths {
                let g = gaps(MANIFEST, &CLIPPY.replace(&format!("\"{path}\""), "\"x\""));
                assert!(
                    g.len() == 1 && g[0].lint == key.replace('-', "_"),
                    "{path}: {g:?}"
                );
            }
        }
    }

    #[test]
    fn warn_levels_other_tables_comments_and_reasons_do_not_count() {
        let warned = MANIFEST.replace("float_cmp = \"deny\"", "float_cmp = \"warn\"");
        assert_eq!(gaps(&warned, CLIPPY)[0].lint, "float_cmp");
        let moved = MANIFEST.replace("dbg_macro = \"deny\"\n", "") + "dbg_macro = \"deny\"\n";
        assert_eq!(gaps(&moved, CLIPPY)[0].lint, "dbg_macro");
        let clippy = CLIPPY
            .replace(
                "{ path = \"std::collections::HashMap\" }",
                "# \"std::collections::HashMap\"",
            )
            .replace(
                "{ path = \"std::collections::HashSet\" }",
                "{ reason = \"std::collections::HashSet\" }",
            )
            + "other = [\n\"std::collections::HashSet\",\n]\n";
        assert_eq!(gaps(MANIFEST, &clippy).len(), 2);
    }
}

//! `--fix`: mechanical, token-aware source rewrites.
//!
//! Three fix families are supported, all safe enough to apply blindly:
//!
//! * **R6 unit suffixes** — a *non-`pub`* `name: f64` declaration whose
//!   name is a physical quantity without a unit suffix is renamed to the
//!   canonical suffix (`power` → `power_w`, `total_time` → `total_time_s`),
//!   along with every other token spelling that identifier in the same
//!   file. Public items are never renamed (their name is API surface
//!   beyond this file), and a rename is skipped entirely when the target
//!   name already occurs in the file.
//! * **allow-marker normalization** — `// analyze::allow(r4,R1, r1)`
//!   becomes `// analyze::allow(R1, R4)` (uppercase, deduplicated,
//!   sorted, canonical spacing), keeping the escape hatch greppable.
//! * **R16 stale-allow removal** — grants the analysis proved unused
//!   (and ids naming unknown rules) are deleted from their markers;
//!   a marker left with no ids is removed outright, and a line left
//!   holding only an empty comment is dropped. Staleness is a
//!   *workspace-level* fact (a marker is live exactly when some rule
//!   consumed it during a full analysis), so `apply_fixes` runs the
//!   analyzer once over every file before rewriting any of them.
//!
//! Renames operate on token positions from the stripped text; the strip
//! pass blanks characters one-for-one, so token columns map directly onto
//! the raw line and string/comment contents are never touched.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::{stale_allow, units};
use crate::scan::{rust_files, SourceFile};
use crate::token::TokenKind;
use crate::{Error, Result, Rule, LIBRARY_CRATES};

/// What a fix run changed.
#[derive(Debug, Clone, Default)]
pub struct FixReport {
    /// Files rewritten on disk.
    pub files_changed: usize,
    /// Distinct identifiers renamed (across all files).
    pub renames: usize,
    /// Allow markers rewritten into canonical form.
    pub markers_normalized: usize,
    /// Stale allow ids removed (R16).
    pub allows_removed: usize,
}

/// Applies all fixes to the library crates under `root`, writing changed
/// files back to disk.
pub fn apply_fixes(root: &Path) -> Result<FixReport> {
    let mut report = FixReport::default();
    // Load every file up front and run one full analysis: allow-marker
    // usage — and therefore staleness (R16) — is a workspace-level fact.
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    let mut files: Vec<SourceFile> = Vec::new();
    for krate in LIBRARY_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for path in rust_files(&src)? {
            let text = std::fs::read_to_string(&path).map_err(|source| Error::Io {
                path: path.clone(),
                source,
            })?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::from_source(rel, &text));
            texts.push(text);
            paths.push(path);
        }
    }
    let _ = crate::analyze_files(&files, None, &[], true);

    for ((path, text), file) in paths.iter().zip(&texts).zip(&files) {
        let mut stale: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (line, id, _known) in stale_allow::stale_ids(file) {
            stale.entry(line).or_default().push(id);
        }
        let outcome = fix_source_with(file.rel_path.clone(), text, &stale);
        if let Some(fixed) = outcome.text {
            std::fs::write(path, fixed).map_err(|source| Error::Io {
                path: path.clone(),
                source,
            })?;
            report.files_changed += 1;
        }
        report.renames += outcome.renames;
        report.markers_normalized += outcome.markers_normalized;
        report.allows_removed += outcome.allows_removed;
    }
    Ok(report)
}

/// The outcome of fixing one file.
#[derive(Debug, Default)]
pub struct FileFix {
    /// The rewritten source, or `None` when nothing changed.
    pub text: Option<String>,
    /// Distinct identifiers renamed in this file.
    pub renames: usize,
    /// Allow markers normalized in this file.
    pub markers_normalized: usize,
    /// Stale allow ids removed from this file (R16).
    pub allows_removed: usize,
}

/// Computes the fixed form of one file's source with no staleness facts
/// (pure; exposed for tests). [`apply_fixes`] uses [`fix_source_with`] so
/// R16 removals — which need a full-workspace analysis — apply too.
pub fn fix_source(rel_path: PathBuf, text: &str) -> FileFix {
    fix_source_with(rel_path, text, &BTreeMap::new())
}

/// Computes the fixed form of one file's source, additionally removing
/// the stale allow ids in `stale` (1-based marker line -> ids), as
/// reported by [`stale_allow::stale_ids`] on an analyzed workspace.
pub fn fix_source_with(
    rel_path: PathBuf,
    text: &str,
    stale: &BTreeMap<usize, Vec<String>>,
) -> FileFix {
    let (cleaned, allows_removed) = remove_stale_allow_ids(text, stale);
    // The rename/normalize pipeline runs on the cleaned text so line
    // numbers and marker scans see the source that will actually be
    // written.
    let mut out = fix_pipeline(rel_path, &cleaned);
    out.allows_removed = allows_removed;
    if out.text.is_none() && cleaned != text {
        out.text = Some(cleaned);
    }
    out
}

/// Deletes the stale ids from their marker lines. A marker with no ids
/// left is removed; a line reduced to an empty comment (or to nothing) is
/// dropped. Returns the cleaned text and the number of ids removed.
fn remove_stale_allow_ids(text: &str, stale: &BTreeMap<usize, Vec<String>>) -> (String, usize) {
    if stale.is_empty() {
        return (text.to_string(), 0);
    }
    let mut removed = 0;
    let mut out: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let Some(ids) = stale.get(&(idx + 1)) else {
            out.push(raw.to_string());
            continue;
        };
        let Some(start) = raw.find("analyze::allow(") else {
            out.push(raw.to_string());
            continue;
        };
        let ids_start = start + "analyze::allow(".len();
        let Some(close) = raw[ids_start..].find(')').map(|c| c + ids_start) else {
            out.push(raw.to_string());
            continue;
        };
        let all: Vec<&str> = raw[ids_start..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let kept: Vec<&str> = all
            .iter()
            .copied()
            .filter(|s| !ids.iter().any(|r| r.eq_ignore_ascii_case(s)))
            .collect();
        removed += all.len() - kept.len();
        if !kept.is_empty() {
            out.push(format!(
                "{}{}{}",
                &raw[..ids_start],
                kept.join(", "),
                &raw[close..]
            ));
            continue;
        }
        // The whole marker goes; tidy what is left of the line.
        let line = format!("{}{}", &raw[..start], &raw[close + 1..]);
        let trimmed = line.trim_end();
        let without_comment = trimmed
            .strip_suffix("//")
            .map(str::trim_end)
            .unwrap_or(trimmed);
        if without_comment.trim().is_empty() {
            continue; // drop the now-empty line
        }
        out.push(without_comment.to_string());
    }
    let mut rebuilt = out.join("\n");
    if text.ends_with('\n') {
        rebuilt.push('\n');
    }
    (rebuilt, removed)
}

/// The rename + marker-normalization passes (everything except R16
/// removal) over one file's source.
fn fix_pipeline(rel_path: PathBuf, text: &str) -> FileFix {
    let file = SourceFile::from_source(rel_path, text);
    let toks = &file.tokens;

    // Pass 1: collect R6 suffix renames at declaration sites.
    let mut renames: BTreeMap<String, String> = BTreeMap::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        let declares_f64 = t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|c| c.is_punct(":"))
            && toks.get(i + 2).is_some_and(|ty| ty.is_ident("f64"));
        if !declares_f64
            || !units::missing_suffix(&t.text)
            || file.token_exempt(t, Rule::R6UnitDiscipline.id())
            || is_public_decl(toks, i)
        {
            continue;
        }
        let Some(suffix) = units::suggested_suffix(&t.text) else {
            continue;
        };
        let new_name = format!("{}{}", t.text, suffix);
        if toks
            .iter()
            .any(|o| o.kind == TokenKind::Ident && o.text == new_name)
        {
            continue; // target name taken: renaming would shadow/collide
        }
        renames.insert(t.text.clone(), new_name);
    }

    // Pass 2: apply renames at every token spelling a renamed identifier.
    // Token columns are char offsets into the stripped line, which maps
    // one-for-one onto the raw line.
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let mut edits: BTreeMap<usize, Vec<(usize, usize, String)>> = BTreeMap::new();
    for t in toks {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if let Some(new_name) = renames.get(&t.text) {
            edits.entry(t.line - 1).or_default().push((
                t.col,
                t.text.chars().count(),
                new_name.clone(),
            ));
        }
    }
    for (line_idx, mut line_edits) in edits {
        let Some(line) = lines.get_mut(line_idx) else {
            continue;
        };
        line_edits.sort_by_key(|e| std::cmp::Reverse(e.0)); // right-to-left
        let mut chars: Vec<char> = line.chars().collect();
        for (col, len, new_name) in line_edits {
            if col + len <= chars.len() {
                chars.splice(col..col + len, new_name.chars());
            }
        }
        *line = chars.into_iter().collect();
    }

    // Pass 3: normalize allow markers.
    let mut markers_normalized = 0;
    for line in &mut lines {
        if let Some(fixed) = normalize_allow_marker(line) {
            if fixed != *line {
                *line = fixed;
                markers_normalized += 1;
            }
        }
    }

    let mut rebuilt = lines.join("\n");
    if text.ends_with('\n') {
        rebuilt.push('\n');
    }
    FileFix {
        text: (rebuilt != text).then_some(rebuilt),
        renames: renames.len(),
        markers_normalized,
        allows_removed: 0,
    }
}

/// Whether the declaration whose name token is at `idx` is `pub` (walks
/// back a few tokens, stopping at declaration boundaries).
fn is_public_decl(toks: &[crate::token::Token], idx: usize) -> bool {
    for back in (0..idx).rev().take(5) {
        let t = &toks[back];
        if t.is_ident("pub") {
            return true;
        }
        if t.is_punct(",") || t.is_punct("{") || t.is_punct(";") || t.is_punct("(") {
            return false;
        }
    }
    false
}

/// Rewrites an `analyze::allow(...)` marker on `line` into canonical form
/// (uppercase, deduplicated, sorted, `", "`-separated). Returns the fixed
/// line, or `None` when the line has no well-formed marker.
fn normalize_allow_marker(line: &str) -> Option<String> {
    let start = line.find("analyze::allow(")?;
    let ids_start = start + "analyze::allow(".len();
    let close = line[ids_start..].find(')')? + ids_start;
    let mut ids: Vec<String> = line[ids_start..close]
        .split(',')
        .map(|s| s.trim().to_ascii_uppercase())
        .filter(|s| !s.is_empty())
        .collect();
    ids.sort();
    ids.dedup();
    if ids.is_empty() {
        return None;
    }
    Some(format!(
        "{}{}{}",
        &line[..ids_start],
        ids.join(", "),
        &line[close..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(text: &str) -> FileFix {
        fix_source(PathBuf::from("crates/x/src/lib.rs"), text)
    }

    #[test]
    fn renames_local_quantity_declaration_and_uses() {
        let src =
            "fn f(power: f64) -> f64 {\n    let doubled = power * 2.0;\n    doubled + power\n}\n";
        let out = fix(src);
        assert_eq!(out.renames, 1);
        let fixed = out.text.unwrap();
        assert!(fixed.contains("fn f(power_w: f64)"));
        assert!(fixed.contains("power_w * 2.0"));
        assert!(fixed.contains("doubled + power_w"));
        assert!(!fixed.contains("power *"));
    }

    #[test]
    fn public_fields_are_never_renamed() {
        let src = "pub struct R {\n    pub power: f64,\n}\n";
        let out = fix(src);
        assert_eq!(out.renames, 0);
        assert!(out.text.is_none());
    }

    #[test]
    fn rename_skipped_when_target_exists() {
        let src = "fn f(latency: f64, latency_s: f64) -> f64 { latency + latency_s }\n";
        let out = fix(src);
        assert_eq!(out.renames, 0, "colliding rename must be skipped");
    }

    #[test]
    fn strings_and_comments_survive_renames() {
        let src = "fn f(energy: f64) -> f64 {\n    // energy is important\n    let s = \"energy\";\n    energy\n}\n";
        let fixed = fix(src).text.unwrap();
        assert!(fixed.contains("fn f(energy_j: f64)"));
        assert!(fixed.contains("// energy is important"));
        assert!(fixed.contains("\"energy\""));
        assert!(fixed.contains("\n    energy_j\n"));
    }

    #[test]
    fn suffixed_and_nonquantity_names_untouched() {
        assert!(
            fix("fn f(power_w: f64, count: f64) -> f64 { power_w + count }\n")
                .text
                .is_none()
        );
    }

    #[test]
    fn allow_markers_are_normalized() {
        let src = "let x = 1; // analyze::allow(r4,R1,  r1)\n";
        let out = fix(src);
        assert_eq!(out.markers_normalized, 1);
        assert!(out.text.unwrap().contains("// analyze::allow(R1, R4)"));
    }

    #[test]
    fn canonical_markers_are_stable() {
        let src = "let x = 1; // analyze::allow(R1, R4)\n";
        let out = fix(src);
        assert_eq!(out.markers_normalized, 0);
        assert!(out.text.is_none());
    }

    #[test]
    fn fix_is_idempotent() {
        let src = "fn f(power: f64) -> f64 { power }\n// analyze::allow(r2)\n";
        let once = fix(src).text.unwrap();
        assert!(fix_source(PathBuf::from("crates/x/src/lib.rs"), &once)
            .text
            .is_none());
    }

    #[test]
    fn test_code_is_not_rewritten() {
        let src = "#[cfg(test)]\nmod t {\n    fn f(power: f64) -> f64 { power }\n}\n";
        assert!(fix(src).text.is_none());
    }

    fn fix_stale(text: &str, stale: &[(usize, &str)]) -> FileFix {
        let mut map: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (line, id) in stale {
            map.entry(*line).or_default().push((*id).to_string());
        }
        fix_source_with(PathBuf::from("crates/x/src/lib.rs"), text, &map)
    }

    #[test]
    fn stale_removal_drops_one_id_and_keeps_the_rest() {
        let src = "// analyze::allow(R1, R4)\nfn f() {}\n";
        let out = fix_stale(src, &[(1, "R4")]);
        assert_eq!(out.allows_removed, 1);
        assert_eq!(out.text.unwrap(), "// analyze::allow(R1)\nfn f() {}\n");
    }

    #[test]
    fn stale_removal_drops_an_emptied_marker_line() {
        let src = "fn f() {}\n// analyze::allow(R4)\nfn g() {}\n";
        let out = fix_stale(src, &[(2, "R4")]);
        assert_eq!(out.allows_removed, 1);
        assert_eq!(out.text.unwrap(), "fn f() {}\nfn g() {}\n");
    }

    #[test]
    fn stale_removal_strips_a_trailing_marker_comment() {
        let src = "fn f(v: &[u8]) -> u8 {\n    v[0] // analyze::allow(R4)\n}\n";
        let out = fix_stale(src, &[(2, "R4")]);
        assert_eq!(out.allows_removed, 1);
        assert_eq!(out.text.unwrap(), "fn f(v: &[u8]) -> u8 {\n    v[0]\n}\n");
    }

    #[test]
    fn stale_removal_keeps_surrounding_prose() {
        let src = "// kept for the fuzz run: analyze::allow(R2, R4)\nfn f() {}\n";
        let out = fix_stale(src, &[(1, "R4")]);
        assert_eq!(
            out.text.unwrap(),
            "// kept for the fuzz run: analyze::allow(R2)\nfn f() {}\n"
        );
    }

    #[test]
    fn stale_removal_composes_with_marker_normalization() {
        // The surviving ids are re-canonicalized by the normal pipeline.
        let src = "// analyze::allow(r4,  r1, R2)\nfn f() {}\n";
        let out = fix_stale(src, &[(1, "R4")]);
        assert_eq!(out.allows_removed, 1);
        assert_eq!(out.text.unwrap(), "// analyze::allow(R1, R2)\nfn f() {}\n");
    }

    #[test]
    fn stale_removal_is_idempotent() {
        let src = "fn f() {}\n// analyze::allow(R4)\nfn g() {}\n";
        let once = fix_stale(src, &[(2, "R4")]).text.unwrap();
        // A second pass with no staleness facts changes nothing.
        let again = fix_source(PathBuf::from("crates/x/src/lib.rs"), &once);
        assert!(again.text.is_none());
        assert_eq!(again.allows_removed, 0);
    }

    #[test]
    fn no_stale_facts_is_a_no_op() {
        let src = "// analyze::allow(R4)\nfn f() {}\n";
        let out = fix_stale(src, &[]);
        assert_eq!(out.allows_removed, 0);
        assert!(out.text.is_none());
    }
}

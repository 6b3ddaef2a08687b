//! The analyzer rules, one module per rule family.
//!
//! R3, R5–R8, R12 and R14 are token- or file-level checks over a single
//! [`SourceFile`] whose comments and strings have already been blanked
//! and whose remaining text has been tokenized. R10, R11 and R13 are
//! *workspace-level*: they additionally consume the item index
//! ([`crate::index`]) and the confident call graph ([`crate::graph`])
//! built over all scanned files. R15, R17 and R18 are *flow-sensitive*:
//! on top of the index/graph they build per-function CFGs
//! ([`crate::cfg`]) and reaching-definitions facts ([`crate::dataflow`]).
//! R19 compares the committed determinism certificate
//! ([`crate::certificate`]) against one recomputed from the findings so
//! far, and R16 runs dead last to audit which allow markers went unused.
//! Rules only fire in library-crate code outside `#[cfg(test)]` regions,
//! and every rule honours the `// analyze::allow(<rule>)` escape hatch.
//!
//! The ids R1, R2, R4 and R9 are retired into clippy's deny set (see
//! [`crate::lint_gate`]).
//!
//! Each module's doc opens with the rule it implements; R5 lives here.

pub mod concurrency;
pub mod divergence;
pub mod errors;
pub mod flow;
pub mod header;
pub mod ordering;
pub mod panic_path;
pub mod reductions;
pub mod results;
pub mod rng;
pub mod stale_allow;
pub mod units;

use crate::graph::CallGraph;
use crate::index::ItemIndex;
use crate::scan::SourceFile;
use crate::{Finding, Rule};

/// Sites that must carry a finiteness guard (R5): numerical boundaries
/// where a NaN/Inf slipping through would silently poison downstream
/// results. Paths are workspace-relative; the marker must appear in
/// non-test code of that file.
pub const GUARD_SITES: &[(&str, &str)] = &[
    (
        "crates/linalg/src/cholesky.rs",
        "Cholesky factorization entry",
    ),
    ("crates/linalg/src/lstsq.rs", "least-squares solver entry"),
    ("crates/gp/src/regressor.rs", "GP posterior boundary"),
    ("crates/core/src/model.rs", "constraint-model boundary"),
];

/// The marker R5 looks for at each guard site.
pub const FINITE_GUARD_MARKER: &str = "debug_assert_finite!";

/// The trace-affecting crates (workspace-relative directories): everything
/// that runs between seeding and trace commit, plus the serving layer,
/// which replays committed traces. R14, R17, R18 and the determinism
/// certificate cover only these. `linalg`/`nn`/`gp` compute pure functions
/// of their inputs (their loops define the canonical order), and `data`
/// generates datasets before any trace exists.
pub const TRACE_CRATES: &[&str] = &["crates/core", "crates/gpu-sim", "crates/server"];

/// Whether a workspace-relative path lies in a trace-affecting crate.
pub fn in_trace_crate(rel_path: &str) -> bool {
    TRACE_CRATES
        .iter()
        .any(|c| rel_path.strip_prefix(c).is_some_and(|r| r.starts_with('/')))
}

/// Applies every per-file rule (R3, R6–R8, R12, R14) to one file. R5
/// is applied separately per [`GUARD_SITES`] entry via
/// [`check_finite_guard`]; the workspace-level rules (R10, R11, R13) run
/// once over all files via [`apply_workspace_rules`].
pub fn apply_rules(file: &SourceFile, findings: &mut Vec<Finding>) {
    errors::check(file, findings);
    units::check(file, findings);
    ordering::check(file, findings);
    rng::check(file, findings);
    concurrency::check(file, findings);
    reductions::check(file, findings);
}

/// Applies the workspace-level rules (R10, R11, R13) and the
/// flow-sensitive rules (R15, R17, R18) over the full scan.
pub fn apply_workspace_rules(
    files: &[SourceFile],
    index: &ItemIndex,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    flow::check_wallclock_flow(files, index, graph, findings);
    flow::check_rng_flow(files, index, graph, findings);
    header::check(files, index, findings);
    panic_path::check(files, index, graph, findings);
    results::check(files, index, findings);
    divergence::check(files, index, findings);
}

/// R5: the file is a declared guard site and must contain the
/// `debug_assert_finite!` marker in live (non-test) code.
pub fn check_finite_guard(file: &SourceFile, what: &str, findings: &mut Vec<Finding>) {
    let present = file
        .lines
        .iter()
        .any(|l| !l.in_test && l.code.contains(FINITE_GUARD_MARKER));
    if !present && !file.any_line_allows(Rule::R5MissingFiniteGuard.id()) {
        findings.push(Finding {
            rule: Rule::R5MissingFiniteGuard,
            file: file.rel_path.display().to_string(),
            line: 1,
            excerpt: String::new(),
            message: format!(
                "{what}: no `{FINITE_GUARD_MARKER}` guard found; NaN/Inf can cross this numerical boundary unchecked"
            ),
        });
    }
}

/// Trims and clips a raw source line for use as a finding excerpt.
pub fn excerpt(raw: &str) -> String {
    let t = raw.trim();
    if t.len() > 120 {
        let cut = t
            .char_indices()
            .take_while(|(i, _)| *i < 117)
            .last()
            .map_or(0, |(i, c)| i + c.len_utf8());
        format!("{}...", &t[..cut])
    } else {
        t.to_string()
    }
}

/// Builds a [`Finding`] for `rule` at a 1-based `line` of `file`, with the
/// excerpt taken from the source.
pub(crate) fn finding_at(rule: Rule, file: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel_path.display().to_string(),
        line,
        excerpt: file.excerpt_at(line),
        message,
    }
}

/// Builds a file-level [`Finding`] (no meaningful line or excerpt) — used
/// by rules whose subject is a whole artifact, like the determinism
/// certificate (R19).
pub(crate) fn finding_for_file(rule: Rule, file: &str, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: 1,
        excerpt: String::new(),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(text: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from("crates/x/src/lib.rs"), text)
    }

    #[test]
    fn r5_missing_and_present() {
        let mut f = Vec::new();
        check_finite_guard(&scan("pub fn predict() {}\n"), "GP posterior", &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R5MissingFiniteGuard);

        let mut ok = Vec::new();
        check_finite_guard(
            &scan("pub fn predict() { debug_assert_finite!(\"gp\", &mean); }\n"),
            "GP posterior",
            &mut ok,
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn r5_marker_in_test_code_does_not_count() {
        let src = "pub fn predict() {}\n#[cfg(test)]\nmod tests {\n  fn t() { debug_assert_finite!(\"x\", &v); }\n}\n";
        let mut f = Vec::new();
        check_finite_guard(&scan(src), "GP posterior", &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn excerpt_clips_long_lines() {
        let long = "x".repeat(400);
        let e = excerpt(&long);
        assert!(e.len() <= 121);
        assert!(e.ends_with("..."));
    }
}

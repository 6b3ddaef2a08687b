//! Tier-1 gate: the custom static-analysis pass must hold over the whole
//! workspace on every commit, and the clippy deny set that replaced four
//! of its rules must stay in place.
//!
//! `hyperpower-analyze` checks the 15 invariants clippy cannot express:
//! `#[non_exhaustive]` public error enums (R3), `debug_assert_finite!`
//! guards at the declared numerical boundaries (R5), unit-of-measure
//! discipline on bare `f64` quantities (R6), constraint-before-objective
//! ordering at acquisition call sites (R7), seeded-root RNG threading
//! (R8), interprocedural wall-clock (R10) and RNG-minting (R11) flow over
//! the workspace call graph, concurrency primitives confined to the
//! executor boundary (R12), checkpoint-header completeness against the
//! executor's knobs (R13), order-sensitive float reductions routed
//! through blessed helpers (R14), panic-free executor commit paths via
//! CFG + reaching definitions (R15), no stale allow markers (R16), no
//! discarded workspace `Result`s or mixed-unit arithmetic (R17),
//! branch-balanced RNG draws (R18), and a committed per-crate determinism
//! certificate that matches the analysis (R19). Running it as an ordinary
//! test keeps `cargo test` the single entry point for all correctness
//! gates.
//!
//! The retired ids are clippy lints now: wall-clock reads (R1) are
//! `disallowed_methods`/`disallowed_types`, float equality (R2) is
//! `float_cmp`/`unwrap_used`/`expect_used`, prints (R4) are
//! `print_stdout`/`print_stderr`/`dbg_macro`, and unordered collections
//! (R9) are `disallowed_types`. Clippy itself runs in CI, not here, so
//! `clippy_lint_gate_is_complete` checks that the root `Cargo.toml` still
//! denies each of those lints and that `clippy.toml` still bans each path.
//!
//! Accepted legacy findings live in `analyze-baseline.json` at the
//! workspace root; the gate fails on drift in *either* direction (new
//! findings, or stale baseline entries that no longer fire and must be
//! re-recorded with `--write-baseline`). The determinism certificate
//! ratchets the same way: `determinism-certificate.json` is compared
//! byte-for-byte against what the current analysis would generate, so a
//! regressed fact (or an unrecorded improvement) fails tier-1 until the
//! file is re-recorded with `--write-certificate`.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower_analyze::baseline::{Baseline, BASELINE_FILE};
use hyperpower_analyze::certificate::CERTIFICATE_FILE;
use hyperpower_analyze::lint_gate::workspace_gaps;
use hyperpower_analyze::{analyze_workspace, find_workspace_root, generate_certificate, Rule};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace")
}

fn committed_baseline(root: &std::path::Path) -> Baseline {
    let path = root.join(BASELINE_FILE);
    if path.exists() {
        Baseline::load(&path).expect("committed baseline parses")
    } else {
        Baseline::default()
    }
}

#[test]
fn workspace_has_no_findings_outside_the_baseline() {
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("workspace sources readable");
    let drift = committed_baseline(&root).diff(&report);
    assert!(
        drift.is_empty(),
        "static-analysis drift against {BASELINE_FILE}:\n{}\nfull report:\n{}",
        drift.describe(),
        report.to_json()
    );
}

#[test]
fn analyzer_scans_the_real_library_sources() {
    let report = analyze_workspace(&workspace_root()).expect("workspace sources readable");
    // All six library crates must actually be walked: a path refactor that
    // silently empties the scan would otherwise make the gate vacuous.
    assert!(
        report.files_scanned >= 40,
        "only {} files scanned — analyzer lost track of the source tree",
        report.files_scanned
    );
}

#[test]
fn analyzer_reports_every_rule_kind() {
    // The report must account for all fifteen rules even when clean, so
    // a rule silently dropped from the rule set is caught here.
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("workspace sources readable");
    let drift = committed_baseline(&root).diff(&report);
    for rule in Rule::ALL {
        let outside_baseline: usize = drift
            .new
            .iter()
            .filter(|e| e.rule == rule.id())
            .map(|e| e.count)
            .sum();
        assert_eq!(
            outside_baseline,
            0,
            "rule {} has non-baseline findings on a clean workspace",
            rule.id()
        );
        // Touch the per-rule accessor too, so a rule dropped from the
        // report plumbing (not just the rule set) is caught.
        let _ = report.findings_for(rule).count();
    }
    assert_eq!(
        Rule::ALL.len(),
        15,
        "expected exactly fifteen analyzer rules"
    );
}

#[test]
fn clippy_lint_gate_is_complete() {
    let gaps = workspace_gaps(&workspace_root());
    assert!(
        gaps.is_empty(),
        "the clippy gate that replaced analyzer rules R1, R2, R4 and R9 has gaps:\n{}",
        gaps.iter()
            .map(|g| format!("  {} (clippy::{})", g.missing, g.lint))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn determinism_certificate_is_committed_and_current() {
    let root = workspace_root();
    let generated = generate_certificate(&root)
        .expect("workspace sources readable")
        .expect("trace-affecting crates exist");
    let committed = std::fs::read_to_string(root.join(CERTIFICATE_FILE))
        .expect("determinism-certificate.json is committed at the repo root");
    assert_eq!(
        committed, generated,
        "determinism certificate is stale: re-record it with \
         `cargo run -p hyperpower-analyze -- --write-certificate`"
    );
}

#[test]
fn determinism_certificate_generation_is_byte_deterministic() {
    let root = workspace_root();
    let a = generate_certificate(&root)
        .expect("workspace sources readable")
        .expect("trace-affecting crates exist");
    let b = generate_certificate(&root)
        .expect("workspace sources readable")
        .expect("trace-affecting crates exist");
    assert_eq!(a, b, "two certificate generations over one tree diverged");
}

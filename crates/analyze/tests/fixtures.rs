//! Adversarial fixture corpus for the workspace rules R10–R19.
//!
//! Each fixture under `tests/fixtures/` is a miniature multi-file
//! workspace in one file: `//@file: <workspace-relative path>` marker
//! lines delimit the member sources. Per rule there are two fixtures:
//!
//! * `rN_tp.rs` — a **true positive** the rule must flag;
//! * `rN_fp.rs` — a **near-miss** (out-of-scope crate, test-only code,
//!   name collision, declared boundary, …) the rule must *not* flag.
//!
//! Assertions are scoped to the rule under test — a TP fixture may
//! legitimately trip neighbouring rules (a clock read that seeds R10
//! taint is also a clippy finding), and pinning those here would turn
//! every rule tweak into fixture churn.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower_analyze::{analyze_sources, Rule};

/// Splits a fixture into its member `(path, source)` pairs.
fn parse_fixture(text: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(path) = line.strip_prefix("//@file: ") {
            files.push((path.trim().to_string(), String::new()));
        } else if let Some((_, body)) = files.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(!files.is_empty(), "fixture has no //@file: markers");
    files
}

/// Number of findings of `rule` when analyzing the fixture.
fn count(fixture: &str, rule: Rule) -> usize {
    let files = parse_fixture(fixture);
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    analyze_sources(&refs).findings_for(rule).count()
}

/// (fixture name, contents, rule under test, expects findings).
const CASES: &[(&str, &str, Rule, bool)] = &[
    (
        "r10_tp",
        include_str!("fixtures/r10_tp.rs"),
        Rule::R10WallClockFlow,
        true,
    ),
    (
        "r10_fp",
        include_str!("fixtures/r10_fp.rs"),
        Rule::R10WallClockFlow,
        false,
    ),
    (
        "r11_tp",
        include_str!("fixtures/r11_tp.rs"),
        Rule::R11RngFlow,
        true,
    ),
    (
        "r11_fp",
        include_str!("fixtures/r11_fp.rs"),
        Rule::R11RngFlow,
        false,
    ),
    (
        "r12_tp",
        include_str!("fixtures/r12_tp.rs"),
        Rule::R12ConcurrencyBoundary,
        true,
    ),
    (
        "r12_fp",
        include_str!("fixtures/r12_fp.rs"),
        Rule::R12ConcurrencyBoundary,
        false,
    ),
    (
        "r13_tp",
        include_str!("fixtures/r13_tp.rs"),
        Rule::R13CheckpointHeader,
        true,
    ),
    (
        "r13_fp",
        include_str!("fixtures/r13_fp.rs"),
        Rule::R13CheckpointHeader,
        false,
    ),
    (
        "r14_tp",
        include_str!("fixtures/r14_tp.rs"),
        Rule::R14OrderSensitiveReduction,
        true,
    ),
    (
        "r14_fp",
        include_str!("fixtures/r14_fp.rs"),
        Rule::R14OrderSensitiveReduction,
        false,
    ),
    (
        "r15_tp",
        include_str!("fixtures/r15_tp.rs"),
        Rule::R15PanicPath,
        true,
    ),
    (
        "r15_fp",
        include_str!("fixtures/r15_fp.rs"),
        Rule::R15PanicPath,
        false,
    ),
    (
        "r16_tp",
        include_str!("fixtures/r16_tp.rs"),
        Rule::R16StaleAllow,
        true,
    ),
    (
        "r16_fp",
        include_str!("fixtures/r16_fp.rs"),
        Rule::R16StaleAllow,
        false,
    ),
    (
        "r17_tp",
        include_str!("fixtures/r17_tp.rs"),
        Rule::R17DiscardedResult,
        true,
    ),
    (
        "r17_fp",
        include_str!("fixtures/r17_fp.rs"),
        Rule::R17DiscardedResult,
        false,
    ),
    (
        "r18_tp",
        include_str!("fixtures/r18_tp.rs"),
        Rule::R18BranchDivergentRng,
        true,
    ),
    (
        "r18_fp",
        include_str!("fixtures/r18_fp.rs"),
        Rule::R18BranchDivergentRng,
        false,
    ),
    (
        "r19_tp",
        include_str!("fixtures/r19_tp.rs"),
        Rule::R19DeterminismCertificate,
        true,
    ),
    (
        "r19_fp",
        include_str!("fixtures/r19_fp.rs"),
        Rule::R19DeterminismCertificate,
        false,
    ),
];

#[test]
fn every_workspace_rule_has_a_tp_and_fp_fixture() {
    for rule in [
        Rule::R10WallClockFlow,
        Rule::R11RngFlow,
        Rule::R12ConcurrencyBoundary,
        Rule::R13CheckpointHeader,
        Rule::R14OrderSensitiveReduction,
        Rule::R15PanicPath,
        Rule::R16StaleAllow,
        Rule::R17DiscardedResult,
        Rule::R18BranchDivergentRng,
        Rule::R19DeterminismCertificate,
    ] {
        for expect in [true, false] {
            assert!(
                CASES.iter().any(|(_, _, r, e)| *r == rule && *e == expect),
                "{} is missing a {} fixture",
                rule.id(),
                if expect {
                    "true-positive"
                } else {
                    "false-positive"
                }
            );
        }
    }
}

#[test]
fn true_positives_fire_and_near_misses_stay_silent() {
    for (name, fixture, rule, expect_findings) in CASES {
        let n = count(fixture, *rule);
        if *expect_findings {
            assert!(
                n > 0,
                "fixture {name}: expected ≥1 {} finding, got none",
                rule.id()
            );
        } else {
            assert_eq!(
                n,
                0,
                "fixture {name}: expected no {} findings, got {n}",
                rule.id()
            );
        }
    }
}

//! R19 — the per-crate determinism certificate.
//!
//! After every other rule has run, the analyzer knows, for each
//! trace-affecting crate, whether the five determinism facts the
//! reproduction depends on actually hold: no wall-clock flow
//! (`clippy::disallowed_methods` and R10), all RNG construction rooted
//! (R8/R11), no unordered collections (`clippy::disallowed_types`), a
//! panic-free commit path (R15), and checkpoint-header completeness
//! (R13). [`generate`] serialises that knowledge into a byte-deterministic
//! `determinism-certificate.json`, committed at the repo root; [`check`]
//! (rule R19) structurally compares the committed certificate against
//! what the current analysis proves and reports every divergence — a
//! regressed fact, a stale entry, a missing certificate — as a finding.
//! Tier-1 additionally byte-compares the committed file (see
//! `tests/static_analysis.rs`), so the certificate ratchets exactly like
//! `analyze-baseline.json`.
//!
//! A fact's status is `proved` when no backing rule fired in the crate
//! and no allow marker for a backing rule was consumed,
//! `proved-with-N-allowances` when markers absorbed would-be findings,
//! and `refuted-by-N-findings` otherwise. Allowance counts are part of
//! the certificate on purpose: adding an escape hatch on the commit path
//! is a reviewable event, not a silent one. For a `clippy::<lint>` backing
//! rule, each [`crate::lint_gate`] gap for the lint is a refutation and
//! each live line silencing the lint is an allowance.

use std::collections::BTreeMap;

use crate::baseline::{extract_str, extract_usize};
use crate::lint_gate::{self, Gap};
use crate::rules::{finding_for_file, TRACE_CRATES};
use crate::scan::SourceFile;
use crate::{Finding, Rule};

/// The committed certificate's repo-root file name.
pub const CERTIFICATE_FILE: &str = "determinism-certificate.json";

/// Schema identifier for forward compatibility.
pub const CERT_SCHEMA: &str = "hyperpower-determinism-certificate/v1";

/// The proved facts, in emission order, with their backing rules:
/// analyzer rule ids, or `clippy::<lint>` for a lint in the gate.
pub const FACTS: &[(&str, &[&str])] = &[
    ("no-wall-clock-flow", &["clippy::disallowed_methods", "R10"]),
    ("all-rng-rooted", &["R8", "R11"]),
    ("no-unordered-collections", &["clippy::disallowed_types"]),
    ("panic-free-commit-path", &["R15"]),
    ("header-complete", &["R13"]),
];

/// One crate's analyzed certificate content.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrateFacts {
    files: usize,
    /// fact name → status string.
    statuses: BTreeMap<String, String>,
}

/// crate prefix → facts. Both the freshly-analyzed state and the parsed
/// committed certificate normalize to this shape for comparison.
type CertMap = BTreeMap<String, CrateFacts>;

fn crate_of(rel_path: &str) -> Option<&'static str> {
    TRACE_CRATES
        .iter()
        .copied()
        .find(|c| rel_path.starts_with(&format!("{c}/")))
}

/// Computes the certificate content from the analyzed files, the
/// findings of every rule that ran before R19 and the lint-gate gaps.
fn compute(files: &[SourceFile], findings: &[Finding], gaps: &[Gap]) -> CertMap {
    let mut map = CertMap::new();
    for &krate in TRACE_CRATES {
        let crate_files: Vec<&SourceFile> = files
            .iter()
            .filter(|f| crate_of(&f.rel_path.to_string_lossy().replace('\\', "/")) == Some(krate))
            .collect();
        if crate_files.is_empty() {
            continue;
        }
        let mut statuses = BTreeMap::new();
        for &(fact, rules) in FACTS {
            let lints: Vec<&str> = rules
                .iter()
                .filter_map(|r| r.strip_prefix("clippy::"))
                .collect();
            let refutations = findings
                .iter()
                .filter(|f| rules.contains(&f.rule.id()) && crate_of(&f.file) == Some(krate))
                .count()
                + gaps
                    .iter()
                    .filter(|g| lints.contains(&g.lint.as_str()))
                    .count();
            let lint_allowances = crate_files
                .iter()
                .flat_map(|f| f.lines.iter().filter(|l| !l.in_test))
                .filter(|l| lints.iter().any(|lint| lint_gate::silences(&l.code, lint)))
                .count();
            let marker_allowances: usize = crate_files
                .iter()
                .map(|f| {
                    f.markers
                        .iter()
                        .filter(|m| !f.line_in_test(m.line))
                        .flat_map(|m| m.ids.iter().map(move |id| (m.line, id)))
                        .filter(|(line, id)| {
                            rules.contains(&id.as_str()) && f.allow_used(*line, id)
                        })
                        .count()
                })
                .sum();
            let allowances = marker_allowances + lint_allowances;
            let status = if refutations > 0 {
                format!("refuted-by-{refutations}-findings")
            } else if allowances > 0 {
                format!("proved-with-{allowances}-allowances")
            } else {
                "proved".to_string()
            };
            statuses.insert(fact.to_string(), status);
        }
        map.insert(
            krate.to_string(),
            CrateFacts {
                files: crate_files.len(),
                statuses,
            },
        );
    }
    map
}

/// Serialises the certificate for the analyzed files. Returns `None` when
/// no trace-affecting crate was scanned (nothing to certify). The output
/// is byte-deterministic: fixed key order, fixed fact order, no
/// timestamps.
pub fn generate(files: &[SourceFile], findings: &[Finding], gaps: &[Gap]) -> Option<String> {
    let map = compute(files, findings, gaps);
    if map.is_empty() {
        return None;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{CERT_SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"provenance\": \"{}\",\n",
        crate::baseline::PROVENANCE
    ));
    out.push_str("  \"crates\": [\n");
    let crates: Vec<_> = TRACE_CRATES
        .iter()
        .filter(|c| map.contains_key(**c))
        .collect();
    for (ci, &&krate) in crates.iter().enumerate() {
        let facts = &map[krate];
        out.push_str("    {\n");
        out.push_str(&format!("      \"crate\": \"{krate}\",\n"));
        out.push_str(&format!("      \"files\": {},\n", facts.files));
        out.push_str("      \"facts\": [\n");
        for (fi, &(fact, rules)) in FACTS.iter().enumerate() {
            let rule_list = rules
                .iter()
                .map(|r| format!("\"{r}\""))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "        {{\"fact\": \"{fact}\", \"rules\": [{rule_list}], \"status\": \"{}\"}}{}\n",
                facts.statuses[fact],
                if fi + 1 < FACTS.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if ci + 1 < crates.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

/// Parses a committed certificate. Line-oriented, like the baseline
/// parser: resilient to whitespace, strict about the fields it needs.
fn parse(text: &str) -> Option<CertMap> {
    let mut schema_ok = false;
    let mut map = CertMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if let Some(s) = extract_str(line, "schema") {
            schema_ok = s == CERT_SCHEMA;
        }
        if let Some(c) = extract_str(line, "crate") {
            map.insert(
                c.clone(),
                CrateFacts {
                    files: 0,
                    statuses: BTreeMap::new(),
                },
            );
            current = Some(c);
        }
        if let Some(n) = extract_usize(line, "files") {
            if let Some(c) = &current {
                map.get_mut(c)?.files = n;
            }
        }
        if let (Some(fact), Some(status)) = (extract_str(line, "fact"), extract_str(line, "status"))
        {
            let c = current.as_ref()?;
            map.get_mut(c)?.statuses.insert(fact, status);
        }
    }
    if schema_ok {
        Some(map)
    } else {
        None
    }
}

/// R19: structurally compares the committed certificate (if any) against
/// the freshly analyzed facts and reports every divergence.
pub fn check(
    committed: Option<&str>,
    files: &[SourceFile],
    findings_so_far: &[Finding],
    gaps: &[Gap],
    findings: &mut Vec<Finding>,
) {
    let analyzed = compute(files, findings_so_far, gaps);
    if analyzed.is_empty() {
        return;
    }
    let Some(text) = committed else {
        findings.push(finding_for_file(
            Rule::R19DeterminismCertificate,
            CERTIFICATE_FILE,
            format!(
                "missing determinism certificate: {} trace-affecting crate(s) analyzed but no {} committed (run `--write-certificate`)",
                analyzed.len(),
                CERTIFICATE_FILE
            ),
        ));
        return;
    };
    let Some(parsed) = parse(text) else {
        findings.push(finding_for_file(
            Rule::R19DeterminismCertificate,
            CERTIFICATE_FILE,
            format!("unparseable determinism certificate (expected schema {CERT_SCHEMA})"),
        ));
        return;
    };
    for (krate, facts) in &analyzed {
        let Some(committed_facts) = parsed.get(krate) else {
            findings.push(finding_for_file(
                Rule::R19DeterminismCertificate,
                CERTIFICATE_FILE,
                format!("certificate has no entry for analyzed crate {krate}"),
            ));
            continue;
        };
        if committed_facts.files != facts.files {
            findings.push(finding_for_file(
                Rule::R19DeterminismCertificate,
                CERTIFICATE_FILE,
                format!(
                    "{krate}: certificate covers {} files but {} were analyzed",
                    committed_facts.files, facts.files
                ),
            ));
        }
        for &(fact, _) in FACTS {
            let fresh = &facts.statuses[fact];
            match committed_facts.statuses.get(fact) {
                None => findings.push(finding_for_file(
                    Rule::R19DeterminismCertificate,
                    CERTIFICATE_FILE,
                    format!("{krate}: fact {fact} missing from certificate (analysis: {fresh})"),
                )),
                Some(stale) if stale != fresh => findings.push(finding_for_file(
                    Rule::R19DeterminismCertificate,
                    CERTIFICATE_FILE,
                    format!(
                        "{krate}: fact {fact} regressed or stale — certificate says {stale}, analysis yields {fresh}"
                    ),
                )),
                Some(_) => {}
            }
        }
    }
    for krate in parsed.keys() {
        if !analyzed.contains_key(krate) {
            findings.push(finding_for_file(
                Rule::R19DeterminismCertificate,
                CERTIFICATE_FILE,
                format!("certificate entry for {krate} but no files of that crate were analyzed"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from(path), text)
    }

    fn finding(rule: Rule, path: &str) -> Finding {
        Finding {
            rule,
            file: path.to_string(),
            line: 1,
            excerpt: String::new(),
            message: String::new(),
        }
    }

    #[test]
    fn generation_is_byte_deterministic_and_skips_non_trace_crates() {
        let files = vec![
            file("crates/core/src/lib.rs", "pub fn f() {}\n"),
            file("crates/gp/src/lib.rs", "pub fn g() {}\n"),
        ];
        let a = generate(&files, &[], &[]).unwrap();
        let b = generate(&files, &[], &[]).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"crate\": \"crates/core\""));
        assert!(!a.contains("crates/gp"));
        assert!(a.contains("\"status\": \"proved\""));
    }

    #[test]
    fn findings_refute_the_backing_fact() {
        let files = vec![file("crates/core/src/lib.rs", "pub fn f() {}\n")];
        let findings = vec![
            finding(Rule::R8RngThreading, "crates/core/src/lib.rs"),
            finding(Rule::R11RngFlow, "crates/core/src/lib.rs"),
        ];
        let cert = generate(&files, &findings, &[]).unwrap();
        assert!(cert.contains(
            "\"fact\": \"all-rng-rooted\", \"rules\": [\"R8\", \"R11\"], \"status\": \"refuted-by-2-findings\""
        ));
    }

    #[test]
    fn clippy_backed_facts_follow_the_lint_gate_and_its_allows() {
        let core = "#![allow(clippy::disallowed_types)]\n#![deny(clippy::disallowed_methods)]\n\
                    #[cfg(test)]\nmod t {\n    #![allow(clippy::disallowed_methods)]\n}\n";
        let files = vec![
            file("crates/core/src/lib.rs", core),
            file("crates/server/src/lib.rs", "pub fn g() {}\n"),
        ];
        let count = |gaps: &[Gap], rules: &str, status: &str| {
            let cert = generate(&files, &[], gaps).unwrap();
            cert.matches(&format!("\"rules\": [{rules}], \"status\": \"{status}\""))
                .count()
        };
        let (clock, hash) = (
            "\"clippy::disallowed_methods\", \"R10\"",
            "\"clippy::disallowed_types\"",
        );
        // A live allow is an allowance; a deny and test code are not.
        assert_eq!(count(&[], hash, "proved-with-1-allowances"), 1);
        assert_eq!(count(&[], clock, "proved"), 2);
        // Each gap refutes its fact in every crate: a deny line plus two
        // banned methods, a deny line plus three banned types.
        let gaps = lint_gate::gaps("", "");
        assert_eq!(count(&gaps, clock, "refuted-by-3-findings"), 2);
        assert_eq!(count(&gaps, hash, "refuted-by-4-findings"), 2);
    }

    #[test]
    fn used_allowances_are_counted() {
        let f = file(
            "crates/core/src/lib.rs",
            "// analyze::allow(R15)\nlet x = v[i];\n",
        );
        // Simulate the rule consuming the marker.
        assert!(f.line_allowed(2, "R15"));
        let cert = generate(std::slice::from_ref(&f), &[], &[]).unwrap();
        assert!(
            cert.contains("\"status\": \"proved-with-1-allowances\""),
            "{cert}"
        );
    }

    #[test]
    fn roundtrip_matches_and_mutation_is_flagged() {
        let files = vec![file("crates/core/src/lib.rs", "pub fn f() {}\n")];
        let cert = generate(&files, &[], &[]).unwrap();
        let mut out = Vec::new();
        check(Some(&cert), &files, &[], &[], &mut out);
        assert!(out.is_empty(), "{out:?}");

        let mutated = cert.replace(
            "\"fact\": \"panic-free-commit-path\", \"rules\": [\"R15\"], \"status\": \"proved\"",
            "\"fact\": \"panic-free-commit-path\", \"rules\": [\"R15\"], \"status\": \"refuted-by-1-findings\"",
        );
        let mut out = Vec::new();
        check(Some(&mutated), &files, &[], &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::R19DeterminismCertificate);
        assert!(out[0].message.contains("panic-free-commit-path"));
    }

    #[test]
    fn missing_certificate_is_a_finding_only_when_trace_crates_present() {
        let trace = vec![file("crates/core/src/lib.rs", "pub fn f() {}\n")];
        let mut out = Vec::new();
        check(None, &trace, &[], &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("missing determinism certificate"));

        let lib_only = vec![file("crates/gp/src/lib.rs", "pub fn g() {}\n")];
        let mut out = Vec::new();
        check(None, &lib_only, &[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_crate_entry_is_flagged() {
        let files = vec![
            file("crates/core/src/lib.rs", "pub fn f() {}\n"),
            file("crates/gpu-sim/src/lib.rs", "pub fn g() {}\n"),
        ];
        let cert = generate(&files, &[], &[]).unwrap();
        let core_only = vec![file("crates/core/src/lib.rs", "pub fn f() {}\n")];
        let mut out = Vec::new();
        check(Some(&cert), &core_only, &[], &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("crates/gpu-sim"));
    }
}

//! R16 — stale-allow: the escape hatch ratchets shut.
//!
//! Every `// analyze::allow(<rule>)` marker is an auditable exception,
//! and exceptions rot: the flagged code gets refactored away but the
//! marker stays, silently pre-authorizing the *next* violation on that
//! line. During analysis, [`crate::scan::SourceFile`] records which
//! markers actually suppressed a would-be finding; this rule, which runs
//! after every other rule, flags the rest — plus any marker naming a
//! rule id that does not exist. `--fix` removes stale ids (and whole
//! markers once no live id remains).
//!
//! A deliberately-kept exception can carry `analyze::allow(R16)` on the
//! same marker line to say "yes, this grant is currently dormant, keep
//! it" — which is itself consumed, so the meta-escape cannot rot
//! invisibly either.

use crate::scan::SourceFile;
use crate::{Finding, Rule};

use super::finding_at;

/// Flags stale or unknown-rule allow markers in one file. Must run after
/// every rule that can consume a marker.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (line, id, known) in stale_ids(file) {
        let message = if known {
            format!(
                "stale escape hatch: analyze::allow({id}) no longer suppresses any {id} finding here; remove it (or run --fix)"
            )
        } else {
            format!("analyze::allow({id}) names an unknown rule; remove it (or run --fix)")
        };
        findings.push(finding_at(Rule::R16StaleAllow, file, line, message));
    }
}

/// The `(marker line, rule id, id-is-known)` triples `--fix` should
/// remove: grants in live code that no rule consumed during analysis.
pub fn stale_ids(file: &SourceFile) -> Vec<(usize, String, bool)> {
    let mut out = Vec::new();
    for m in &file.markers {
        if file.line_in_test(m.line) {
            continue;
        }
        for id in &m.ids {
            if id == Rule::R16StaleAllow.id() {
                continue; // the meta-grant is consumed below, not audited
            }
            let known = Rule::from_id(id).is_some();
            if known && file.allow_used(m.line, id) {
                continue;
            }
            // A co-located allow(R16) keeps a dormant grant alive.
            if file.line_allowed(m.line, Rule::R16StaleAllow.id()) {
                continue;
            }
            out.push((m.line, id.clone(), known));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::analyze_sources;
    use crate::Rule;

    const FORK: &str = "fn fork() { let r = StdRng::seed_from_u64(1); }\n";

    #[test]
    fn consumed_marker_is_not_stale() {
        let src = format!("// analyze::allow(R8)\n{FORK}");
        let report = analyze_sources(&[("crates/nn/src/lib.rs", &src)]);
        assert_eq!(report.findings_for(Rule::R16StaleAllow).count(), 0);
        assert_eq!(report.findings_for(Rule::R8RngThreading).count(), 0);
    }

    #[test]
    fn dormant_marker_is_stale() {
        let report = analyze_sources(&[(
            "crates/nn/src/lib.rs",
            "// analyze::allow(R8)\npub fn quiet() {}\n",
        )]);
        let f: Vec<_> = report.findings_for(Rule::R16StaleAllow).collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("allow(R8)"));
    }

    #[test]
    fn unknown_rule_id_is_flagged() {
        let report = analyze_sources(&[(
            "crates/nn/src/lib.rs",
            "// analyze::allow(R99)\npub fn quiet() {}\n",
        )]);
        let f: Vec<_> = report.findings_for(Rule::R16StaleAllow).collect();
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn marker_in_test_code_is_exempt() {
        let report = analyze_sources(&[(
            "crates/nn/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    // analyze::allow(R8)\n    fn quiet() {}\n}\n",
        )]);
        assert_eq!(report.findings_for(Rule::R16StaleAllow).count(), 0);
    }

    #[test]
    fn meta_grant_keeps_a_dormant_marker_alive() {
        let report = analyze_sources(&[(
            "crates/nn/src/lib.rs",
            "// kept for the quarterly fuzz run: analyze::allow(R8, R16)\npub fn quiet() {}\n",
        )]);
        assert_eq!(
            report.findings_for(Rule::R16StaleAllow).count(),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn one_live_id_does_not_shield_its_stale_neighbour() {
        let src = format!("// analyze::allow(R8, R14)\n{FORK}");
        let report = analyze_sources(&[("crates/nn/src/lib.rs", &src)]);
        // R8 is consumed; R14 never fires in crates/nn (not a trace crate).
        let f: Vec<_> = report.findings_for(Rule::R16StaleAllow).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("allow(R14)"));
    }
}

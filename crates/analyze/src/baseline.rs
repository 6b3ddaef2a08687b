//! Findings baseline with drift detection.
//!
//! A baseline records the *accepted* findings of a repository as
//! `(rule, file, count)` entries — deliberately keyed without line
//! numbers, so unrelated edits that shift lines don't invalidate it.
//! Tier-1 enforcement then becomes a drift check in both directions:
//!
//! * a file/rule pair exceeding its baselined count is a **new**
//!   violation and fails the build;
//! * a pair below its baselined count is a **stale** entry: the debt was
//!   paid down, and the baseline must be regenerated (with
//!   `hyperpower-analyze --write-baseline`) so the ratchet only ever
//!   tightens.
//!
//! **Schema v2** adds per-entry metadata: `severity` (the rule's level,
//! mirrored into SARIF) and `since` (provenance: which analyzer
//! generation accepted the bucket, or `"migrated-v1"` for entries read
//! from a v1 file). Both are informational — the ratchet still keys on
//! `(rule, file, count)` only, so v1 and v2 baselines enforce
//! identically. v1 files (no `schema` line, no `severity`/`since`) load
//! transparently; `--write-baseline` always emits v2.

use std::collections::BTreeMap;
use std::path::Path;

use crate::{Report, Rule};

/// The canonical baseline file name at the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.json";

/// The schema marker written into v2 baselines.
pub const SCHEMA_V2: &str = "hyperpower-analyze-baseline/v2";

/// Provenance stamped on buckets accepted by this analyzer generation.
pub const PROVENANCE: &str = "analyzer-v4";

/// Provenance stamped on buckets migrated from a v1 baseline file.
pub const PROVENANCE_MIGRATED: &str = "migrated-v1";

/// One accepted (grandfathered) findings bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule id (`"R6"`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Accepted number of findings of `rule` in `file`.
    pub count: usize,
    /// The rule's severity wire form (`"error"`/`"warning"`).
    pub severity: String,
    /// Which analyzer generation accepted this bucket.
    pub since: String,
}

impl Entry {
    /// Builds an entry with the rule's default severity and current
    /// provenance.
    pub fn new(rule: &str, file: &str, count: usize) -> Self {
        Entry {
            severity: default_severity(rule),
            since: PROVENANCE.to_string(),
            rule: rule.to_string(),
            file: file.to_string(),
            count,
        }
    }
}

fn default_severity(rule_id: &str) -> String {
    Rule::from_id(rule_id)
        .map(|r| r.severity().as_str())
        .unwrap_or("error")
        .to_string()
}

/// A set of accepted findings buckets, sorted by (file, rule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// The accepted buckets.
    pub entries: Vec<Entry>,
}

/// The result of comparing a report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Drift {
    /// Buckets whose current count exceeds the baseline (new violations).
    /// Each carries the excess count.
    pub new: Vec<Entry>,
    /// Buckets whose current count is below the baseline (paid-down debt;
    /// the baseline must be regenerated). Each carries the deficit count.
    pub stale: Vec<Entry>,
}

impl Drift {
    /// True when the report matches the baseline exactly.
    pub fn is_empty(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// Human-readable drift summary, one line per bucket.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for e in &self.new {
            out.push_str(&format!(
                "new: {} finding(s) of {} in {} beyond baseline\n",
                e.count, e.rule, e.file
            ));
        }
        for e in &self.stale {
            out.push_str(&format!(
                "stale: baseline grants {} more {} finding(s) in {} than currently exist; run --write-baseline to ratchet down\n",
                e.count, e.rule, e.file
            ));
        }
        out
    }
}

impl Baseline {
    /// Builds a baseline accepting every finding in `report`.
    pub fn from_report(report: &Report) -> Self {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in &report.findings {
            *counts
                .entry((f.file.clone(), f.rule.id().to_string()))
                .or_insert(0) += 1;
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((file, rule), count)| Entry::new(&rule, &file, count))
                .collect(),
        }
    }

    /// Serialises the baseline as schema v2 (deterministic: entries are
    /// sorted).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA_V2}\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"count\": {}, \"severity\": \"{}\", \"since\": \"{}\"}}{}\n",
                e.rule,
                crate::json_escape(&e.file),
                e.count,
                crate::json_escape(&e.severity),
                crate::json_escape(&e.since),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the JSON produced by [`Baseline::to_json`] — either schema
    /// v2 or the legacy v1 shape (no `schema` line, entries carry only
    /// rule/file/count). v1 entries migrate transparently: severity comes
    /// from the rule's current default and `since` is stamped
    /// [`PROVENANCE_MIGRATED`]. The parser is line-oriented and only
    /// accepts those exact shapes — good enough for a file the tool
    /// itself writes, without a JSON dependency.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim().trim_end_matches(',');
            if line.contains("\"schema\"") {
                let schema = extract_str(line, "schema")
                    .ok_or_else(|| format!("baseline line {}: malformed \"schema\"", n + 1))?;
                if schema != SCHEMA_V2 {
                    return Err(format!(
                        "baseline line {}: unsupported schema {schema:?} (expected {SCHEMA_V2:?})",
                        n + 1
                    ));
                }
                continue;
            }
            if !line.contains("\"rule\"") {
                continue;
            }
            let rule = extract_str(line, "rule")
                .ok_or_else(|| format!("baseline line {}: missing \"rule\"", n + 1))?;
            let file = extract_str(line, "file")
                .ok_or_else(|| format!("baseline line {}: missing \"file\"", n + 1))?;
            let count = extract_usize(line, "count")
                .ok_or_else(|| format!("baseline line {}: missing \"count\"", n + 1))?;
            if !Rule::ALL.iter().any(|r| r.id() == rule) {
                return Err(format!("baseline line {}: unknown rule {rule}", n + 1));
            }
            let severity = match extract_str(line, "severity") {
                Some(s) => {
                    if crate::Severity::parse(&s).is_none() {
                        return Err(format!("baseline line {}: unknown severity {s:?}", n + 1));
                    }
                    s
                }
                None => default_severity(&rule),
            };
            let since =
                extract_str(line, "since").unwrap_or_else(|| PROVENANCE_MIGRATED.to_string());
            entries.push(Entry {
                rule,
                file,
                count,
                severity,
                since,
            });
        }
        entries.sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
        Ok(Baseline { entries })
    }

    /// Loads a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Compares a report against this baseline.
    pub fn diff(&self, report: &Report) -> Drift {
        let mut current: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in &report.findings {
            *current
                .entry((f.file.clone(), f.rule.id().to_string()))
                .or_insert(0) += 1;
        }
        let mut accepted: BTreeMap<(String, String), usize> = BTreeMap::new();
        for e in &self.entries {
            *accepted
                .entry((e.file.clone(), e.rule.clone()))
                .or_insert(0) += e.count;
        }

        let mut drift = Drift::default();
        for (key, &n) in &current {
            let base = accepted.get(key).copied().unwrap_or(0);
            if n > base {
                drift.new.push(Entry::new(&key.1, &key.0, n - base));
            }
        }
        for (key, &base) in &accepted {
            let n = current.get(key).copied().unwrap_or(0);
            if base > n {
                drift.stale.push(Entry::new(&key.1, &key.0, base - n));
            }
        }
        drift
    }
}

/// The string value of `"key": "…"` on one line, unescaped.
pub(crate) fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// The integer value of `"key": N` on one line.
pub(crate) fn extract_usize(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Report};

    fn finding(rule: Rule, file: &str, line: usize) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            excerpt: String::new(),
            message: String::new(),
        }
    }

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            files_scanned: 1,
        }
    }

    #[test]
    fn roundtrip() {
        let r = report(vec![
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 3),
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 9),
            finding(Rule::R8RngThreading, "crates/b/src/lib.rs", 1),
        ]);
        let base = Baseline::from_report(&r);
        let parsed = Baseline::parse(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        assert!(base.diff(&r).is_empty());
    }

    #[test]
    fn line_drift_is_invisible() {
        let base = Baseline::from_report(&report(vec![finding(
            Rule::R6UnitDiscipline,
            "crates/a/src/lib.rs",
            3,
        )]));
        // Same finding, different line: not drift.
        let moved = report(vec![finding(
            Rule::R6UnitDiscipline,
            "crates/a/src/lib.rs",
            77,
        )]);
        assert!(base.diff(&moved).is_empty());
    }

    #[test]
    fn new_findings_are_drift() {
        let base = Baseline::from_report(&report(vec![finding(
            Rule::R6UnitDiscipline,
            "crates/a/src/lib.rs",
            3,
        )]));
        let grown = report(vec![
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 3),
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 4),
        ]);
        let d = base.diff(&grown);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].count, 1);
        assert!(d.stale.is_empty());
        assert!(d.describe().contains("beyond baseline"));
    }

    #[test]
    fn paid_down_debt_is_stale() {
        let base = Baseline::from_report(&report(vec![
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 3),
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 4),
        ]));
        let shrunk = report(vec![finding(
            Rule::R6UnitDiscipline,
            "crates/a/src/lib.rs",
            3,
        )]);
        let d = base.diff(&shrunk);
        assert!(d.new.is_empty());
        assert_eq!(d.stale.len(), 1);
        assert_eq!(d.stale[0].count, 1);
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/analyze-baseline.json")).unwrap();
        assert!(b.entries.is_empty());
    }

    #[test]
    fn unknown_rule_rejected() {
        let bad =
            "{\n  \"entries\": [\n    {\"rule\": \"R99\", \"file\": \"x\", \"count\": 1}\n  ]\n}\n";
        assert!(Baseline::parse(bad).is_err());
    }

    #[test]
    fn v2_emits_schema_severity_and_provenance() {
        let base = Baseline::from_report(&report(vec![finding(
            Rule::R14OrderSensitiveReduction,
            "crates/a/src/lib.rs",
            3,
        )]));
        let json = base.to_json();
        assert!(json.contains(SCHEMA_V2));
        assert!(json.contains("\"severity\": \"warning\""));
        assert!(json.contains(&format!("\"since\": \"{PROVENANCE}\"")));
    }

    #[test]
    fn v1_baseline_migrates_transparently() {
        // The pre-v3 on-disk shape: no schema line, bare rule/file/count.
        let v1 = "{\n  \"entries\": [\n    {\"rule\": \"R6\", \"file\": \"crates/a/src/lib.rs\", \"count\": 2}\n  ]\n}\n";
        let parsed = Baseline::parse(v1).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].severity, "error");
        assert_eq!(parsed.entries[0].since, PROVENANCE_MIGRATED);

        // Ratchet semantics are unchanged by migration: two findings
        // match, three drift.
        let two = report(vec![
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 3),
            finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 9),
        ]);
        assert!(parsed.diff(&two).is_empty());
        let mut three = two.clone();
        three
            .findings
            .push(finding(Rule::R6UnitDiscipline, "crates/a/src/lib.rs", 12));
        assert_eq!(parsed.diff(&three).new.len(), 1);
    }

    #[test]
    fn bad_severity_and_schema_rejected() {
        let bad_sev = "{\n  \"entries\": [\n    {\"rule\": \"R6\", \"file\": \"x\", \"count\": 1, \"severity\": \"fatal\", \"since\": \"analyzer-v3\"}\n  ]\n}\n";
        assert!(Baseline::parse(bad_sev).is_err());
        let bad_schema =
            "{\n  \"schema\": \"hyperpower-analyze-baseline/v9\",\n  \"entries\": [\n  ]\n}\n";
        assert!(Baseline::parse(bad_schema).is_err());
    }
}

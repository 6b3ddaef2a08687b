//! R17 — discarded `Result`s and lossy unit casts in trace-affecting
//! crates.
//!
//! Two flow-sensitive leaks of correctness information:
//!
//! 1. **`let _ = fallible()`** — binding a workspace call's `Result` to
//!    `_` throws the error away without even a `.ok()` to mark intent.
//!    In `core`/`gpu-sim` a swallowed `Err` means a sample silently
//!    missing from the trace. The callee is resolved with the same
//!    confidence discipline as the call graph (qualified `Type::f` via
//!    impl ownership, plain names only when workspace-unique) and
//!    flagged only when its declared return type is a `Result`.
//! 2. **unit-dropping arithmetic** — a local proved (by reaching
//!    definitions) to hold a `units::` newtype (`Watts`, `Joules`,
//!    `Seconds`, `Mebibytes`) whose raw `.0` projection is added,
//!    subtracted or compared against the `.0` of a *different* unit.
//!    Multiplication and division legitimately change dimension (R6's
//!    convention) and stay exempt.

use crate::cfg::Cfg;
use crate::dataflow::{AbstractValue, Dataflow};
use crate::index::{FnItem, ItemIndex};
use crate::scan::SourceFile;
use crate::token::TokenKind;
use crate::{Finding, Rule};

use super::{finding_at, in_trace_crate};

/// The `units::` newtypes tracked through `.0` projections.
pub const UNIT_TYPES: &[&str] = &["Watts", "Joules", "Seconds", "Mebibytes"];

/// Applies R17 over the workspace.
pub fn check(files: &[SourceFile], index: &ItemIndex, findings: &mut Vec<Finding>) {
    for file in files {
        let rel = file.rel_path.to_string_lossy().replace('\\', "/");
        if !in_trace_crate(&rel) {
            continue;
        }
        check_discarded_results(file, &rel, index, findings);
        for f in index
            .functions
            .iter()
            .filter(|f| f.file == rel && !f.in_test)
        {
            if let Some(body) = f.body {
                check_unit_drops(file, f, body, findings);
            }
        }
    }
}

/// R17a: `let _ = call(…)` where the callee confidently resolves to a
/// workspace function returning `Result`.
fn check_discarded_results(
    file: &SourceFile,
    rel: &str,
    index: &ItemIndex,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    for k in 0..toks.len() {
        if !(toks[k].is_ident("let")
            && toks.get(k + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(k + 2).is_some_and(|t| t.is_punct("=")))
        {
            continue;
        }
        let t = &toks[k];
        if file.line_in_test(t.line) || file.line_allowed(t.line, Rule::R17DiscardedResult.id()) {
            continue;
        }
        // The call head on the right-hand side: the last ident before the
        // first `(`, with an optional `Type::` qualifier.
        let mut head = None;
        let mut j = k + 3;
        while j + 1 < toks.len() && !toks[j].is_punct(";") {
            if toks[j].kind == TokenKind::Ident && toks[j + 1].is_punct("(") {
                let qualifier =
                    (j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokenKind::Ident)
                        .then(|| toks[j - 2].text.clone());
                head = Some((toks[j].text.clone(), qualifier));
                break;
            }
            j += 1;
        }
        let Some((name, qualifier)) = head else {
            continue;
        };
        let Some(callee) = resolve(index, &name, qualifier.as_deref()) else {
            continue;
        };
        if returns_result(callee) {
            findings.push(finding_at(
                Rule::R17DiscardedResult,
                file,
                t.line,
                format!(
                    "`let _ =` discards the Result of `{name}` in {rel}; handle the error or mark intent with `.ok()`"
                ),
            ));
        }
    }
}

/// Whether the declared return type is a `Result` (head token, so
/// aliases like `crate::Result<T>` count too).
fn returns_result(f: &FnItem) -> bool {
    f.ret
        .split_whitespace()
        .next()
        .is_some_and(|head| head == "Result" || f.ret.starts_with("Result <"))
        || f.ret.split(' ').any(|t| t == "Result")
}

/// Resolves a call head with the call graph's confidence rules.
fn resolve<'a>(index: &'a ItemIndex, name: &str, qualifier: Option<&str>) -> Option<&'a FnItem> {
    if let Some(q) = qualifier {
        return index
            .functions
            .iter()
            .find(|f| f.name == name && f.owner.as_deref() == Some(q));
    }
    let mut candidates = index.functions.iter().filter(|f| f.name == name);
    let first = candidates.next()?;
    candidates.next().is_none().then_some(first)
}

/// R17b: `.0` of a proved unit newtype mixed additively/comparatively
/// with the `.0` of a different unit.
fn check_unit_drops(
    file: &SourceFile,
    f: &FnItem,
    body: (usize, usize),
    findings: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    let cfg = Cfg::build(toks, body);
    let df = Dataflow::solve(&cfg, toks, &f.params);

    let proj_unit = |k: usize| -> Option<(usize, &'static str)> {
        // `v . 0` starting at ident index k → (index after projection, unit).
        let v = toks.get(k)?;
        if v.kind != TokenKind::Ident
            || !toks.get(k + 1).is_some_and(|t| t.is_punct("."))
            || !toks
                .get(k + 2)
                .is_some_and(|t| t.kind == TokenKind::Int && t.text == "0")
        {
            return None;
        }
        let defs = df.reaching(&cfg, &v.text, k);
        if defs.is_empty() {
            return None;
        }
        let mut unit = None;
        for d in defs {
            let u = match &d.value {
                AbstractValue::Ctor(c) => UNIT_TYPES.iter().find(|u| *u == c).copied(),
                AbstractValue::Param(ty) => UNIT_TYPES
                    .iter()
                    .find(|u| ty.split(' ').any(|t| t == **u))
                    .copied(),
                _ => None,
            }?;
            match unit {
                None => unit = Some(u),
                Some(prev) if prev != u => return None, // conflicting proofs
                Some(_) => {}
            }
        }
        unit.map(|u| (k + 3, u))
    };

    for k in body.0 + 1..body.1 {
        let Some((after, left_unit)) = proj_unit(k) else {
            continue;
        };
        let Some(op) = toks.get(after) else { continue };
        let mixing = matches!(
            op.text.as_str(),
            "+" | "-" | "<" | "<=" | ">" | ">=" | "==" | "!="
        ) && op.kind == TokenKind::Punct;
        if !mixing {
            continue;
        }
        let Some((_, right_unit)) = proj_unit(after + 1) else {
            continue;
        };
        if left_unit == right_unit {
            continue;
        }
        let t = &toks[k];
        if file.token_exempt(t, Rule::R17DiscardedResult.id()) {
            continue;
        }
        findings.push(finding_at(
            Rule::R17DiscardedResult,
            file,
            t.line,
            format!(
                "`.0` drops the units: `{}` holds {left_unit} but is combined with {right_unit} via `{}`; keep the newtypes (or convert explicitly)",
                t.text, op.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_sources;
    use crate::Rule;

    #[test]
    fn discarded_result_from_workspace_call_is_flagged() {
        let src = "pub fn persist(&self) -> Result<(), Error> { Ok(()) }\n\
                   pub fn tick(&self) {\n    let _ = persist(&self);\n}\n";
        let report = analyze_sources(&[("crates/core/src/driver.rs", src)]);
        assert_eq!(
            report.findings_for(Rule::R17DiscardedResult).count(),
            1,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn discarding_a_non_result_is_fine() {
        let src = "pub fn measure(&self) -> Watts { Watts(1.0) }\n\
                   pub fn tick(&self) {\n    let _ = measure(&self);\n}\n";
        let report = analyze_sources(&[("crates/core/src/driver.rs", src)]);
        assert_eq!(report.findings_for(Rule::R17DiscardedResult).count(), 0);
    }

    #[test]
    fn discarded_result_outside_trace_crates_is_fine() {
        let src = "pub fn persist() -> Result<(), Error> { Ok(()) }\n\
                   pub fn tick() {\n    let _ = persist();\n}\n";
        let report = analyze_sources(&[("crates/gp/src/lib.rs", src)]);
        assert_eq!(report.findings_for(Rule::R17DiscardedResult).count(), 0);
    }

    #[test]
    fn mixed_unit_projection_arithmetic_is_flagged() {
        let src = "pub fn energy_report(&self) -> f64 {\n\
                   \x20   let p = Watts(2.0);\n\
                   \x20   let t = Seconds(3.0);\n\
                   \x20   p.0 + t.0\n\
                   }\n";
        let report = analyze_sources(&[("crates/gpu-sim/src/analysis.rs", src)]);
        assert_eq!(
            report.findings_for(Rule::R17DiscardedResult).count(),
            1,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn same_unit_and_dimension_changing_ops_are_fine() {
        let src = "pub fn combine(&self) -> f64 {\n\
                   \x20   let a = Watts(2.0);\n\
                   \x20   let b = Watts(3.0);\n\
                   \x20   let t = Seconds(4.0);\n\
                   \x20   a.0 + b.0 + a.0 * t.0\n\
                   }\n";
        let report = analyze_sources(&[("crates/gpu-sim/src/analysis.rs", src)]);
        assert_eq!(
            report.findings_for(Rule::R17DiscardedResult).count(),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn unit_params_are_tracked_too() {
        let src = "pub fn check(p: Watts, limit: Seconds) -> bool {\n    p.0 < limit.0\n}\n";
        let report = analyze_sources(&[("crates/core/src/constraints.rs", src)]);
        assert_eq!(
            report.findings_for(Rule::R17DiscardedResult).count(),
            1,
            "{:?}",
            report.findings
        );
    }
}

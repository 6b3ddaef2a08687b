//! R14 — order-sensitive float reductions outside blessed helpers.
//!
//! Float addition is not associative: `a + (b + c) ≠ (a + b) + c` in
//! general, so an accumulating `+=` inside a loop bakes the *iteration
//! order* into the result. That is exactly the pattern a future parallel
//! refactor (rayon-style chunking, SIMD lanes — ROADMAP item 2) silently
//! breaks: same elements, different order, different bits, golden traces
//! diverge. In the trace-affecting crates, loop accumulations must go
//! through a blessed ordered-reduction helper
//! (`hyperpower_linalg::vector::sum_ordered`), which pins the summation
//! order in one audited place that any SIMD work must preserve.
//!
//! Detection is deliberately narrow to stay false-positive-free: an
//! identifier declared `f64` in the same file (via `: f64` or
//! `let [mut] x = <float literal>`), compound-assigned (`+=`/`-=`)
//! inside a `for` loop body. Integer counters and straight-line float
//! updates (EWMA-style `self.x += y` outside loops) are untouched.

use crate::scan::SourceFile;
use crate::token::{matching_close, TokenKind};
use crate::{Finding, Rule};

/// R14: float compound assignment inside `for` bodies of trace-affecting
/// crates ([`super::TRACE_CRATES`]).
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rule = Rule::R14OrderSensitiveReduction;
    let rel = file.rel_path.to_string_lossy().replace('\\', "/");
    if !super::in_trace_crate(&rel) {
        return;
    }
    let toks = &file.tokens;

    // Identifiers declared f64 anywhere in the file: `name: f64` (params,
    // fields, typed lets) or `let [mut] name = <float literal>`.
    let mut float_vars: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("f64"))
        {
            float_vars.push(&t.text);
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|n| n.kind) == Some(TokenKind::Ident)
                && toks.get(j + 1).is_some_and(|n| n.is_punct("="))
                && toks.get(j + 2).map(|n| n.kind) == Some(TokenKind::Float)
            {
                float_vars.push(&toks[j].text);
            }
        }
    }
    if float_vars.is_empty() {
        return;
    }

    // `for` loop body token ranges. The body is the first `{` after the
    // `for` keyword (closure braces in iterator chains are rare enough in
    // this codebase that the approximation holds; a miss only widens the
    // range, which can only over-report inside what is still a loop).
    let mut loop_bodies: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("for") {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct("{") {
            if toks[j].is_punct(";") {
                break; // `impl Trait for Type;`-ish: not a loop
            }
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct("{") {
            if let Some(close) = matching_close(toks, j, "{", "}") {
                loop_bodies.push((j, close));
            }
        }
    }
    if loop_bodies.is_empty() {
        return;
    }

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let compound = toks
            .get(i + 1)
            .is_some_and(|n| n.is_punct("+=") || n.is_punct("-="));
        if !compound
            || !float_vars.contains(&t.text.as_str())
            || !loop_bodies
                .iter()
                .any(|(open, close)| *open < i && i < *close)
            || file.token_exempt(t, rule.id())
        {
            continue;
        }
        findings.push(super::finding_at(
            rule,
            file,
            t.line,
            format!(
                "order-sensitive float reduction: `{} +=` in a loop bakes iteration order into the result; sum through `hyperpower_linalg::vector::sum_ordered` (the blessed ordered reduction) so parallel/SIMD refactors cannot reorder it",
                t.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run_at(path: &str, text: &str) -> Vec<Finding> {
        let file = SourceFile::from_source(PathBuf::from(path), text);
        let mut f = Vec::new();
        check(&file, &mut f);
        f
    }

    #[test]
    fn float_accumulation_in_for_loop_fires() {
        let f = run_at(
            "crates/gpu-sim/src/analysis.rs",
            "fn f(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs { total += x; }\n    total\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R14OrderSensitiveReduction);
        assert!(f[0].message.contains("sum_ordered"));
    }

    #[test]
    fn typed_f64_and_minus_assign_fire() {
        let f = run_at(
            "crates/core/src/profiler.rs",
            "fn f(xs: &[f64]) -> f64 {\n    let mut acc: f64 = 0.0;\n    for x in xs { acc -= x; }\n    acc\n}\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn integer_counters_pass() {
        assert!(run_at(
            "crates/core/src/driver.rs",
            "fn f(xs: &[u64]) -> u64 {\n    let mut n = 0;\n    for _x in xs { n += 1; }\n    n\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn float_update_outside_loops_passes() {
        // EWMA-style straight-line updates are order-independent per call.
        assert!(run_at(
            "crates/core/src/drift.rs",
            "struct S { sum: f64 }\nimpl S {\n    fn observe(&mut self, x: f64) { self.sum += x; }\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn blessed_crates_are_out_of_scope() {
        assert!(run_at(
            "crates/linalg/src/vector.rs",
            "pub fn sum_ordered(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    for x in xs { total += x; }\n    total\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn test_code_and_allow_are_exempt() {
        assert!(run_at(
            "crates/core/src/recovery.rs",
            "#[cfg(test)]\nmod t {\n    fn f(xs: &[f64]) -> f64 {\n        let mut e = 0.0;\n        for x in xs { e += x; }\n        e\n    }\n}\n",
        )
        .is_empty());
        assert!(run_at(
            "crates/core/src/recovery.rs",
            "fn f(xs: &[f64]) -> f64 {\n    let mut e = 0.0;\n    // analyze::allow(R14)\n    for x in xs { e += x; }\n    e\n}\n",
        )
        .is_empty());
    }
}

//! R15 — panic-path: no panicking construct reachable from the executor
//! commit path.
//!
//! A panic between "task result computed" and "sample committed to the
//! trace" can tear a run down mid-commit, which is exactly the window
//! kill-and-resume exactness cannot tolerate. This rule finds the
//! *commit roots* — non-test functions in [`super::concurrency::COMMIT_PATHS`]
//! files that push onto the samples trace, or that (transitively) call
//! one that does, so the scheduling that decides what commits and when
//! is covered too — closes over the confident call graph in the *callee*
//! direction (everything a commit root can execute), and inside that
//! closure flags:
//!
//! - **unchecked indexing** `seq[i]`, *unless* the reaching-definitions
//!   engine proves every definition of `i` ranges over `0..seq.len()`
//!   (the canonical safe loop shape). Checked forms (`get`, iterators)
//!   never match.
//! - **non-literal integer division/remainder** whose divisor has
//!   integer evidence and may be zero (a literal `0`, a tracked
//!   `len()`, a loop index). Float division and divisors the domain
//!   cannot type are left alone — R15 only fires on what it can argue.
//! - **`unreachable!` / `todo!` / `unimplemented!`** — on the commit
//!   path, "this cannot happen" is a determinism claim that belongs in
//!   an `analyze::allow(R15)` justification, not a panic.
//!
//! The call graph under-approximates (only confident edges), so the
//! closure can miss dynamic dispatch — R15 trades recall for a zero
//! false-positive budget on the hot path, like R10/R11.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::dataflow::{AbstractValue, Dataflow};
use crate::graph::CallGraph;
use crate::index::{FnItem, ItemIndex};
use crate::scan::SourceFile;
use crate::token::{matching_close, Token, TokenKind};
use crate::{Finding, Rule};

use super::concurrency::COMMIT_PATHS;
use super::finding_at;

/// Macros that are unconditional panics when reached.
const PANIC_MACROS: &[&str] = &["unreachable", "todo", "unimplemented"];

/// A live function in a commit-path file.
fn on_commit_path(f: &FnItem) -> bool {
    COMMIT_PATHS.contains(&f.file.as_str()) && !f.in_test
}

/// A commit writer: a commit-path function that writes the samples trace.
fn is_commit_writer(f: &FnItem) -> bool {
    on_commit_path(f) && f.body_mentions("samples") && f.body_mentions("push")
}

/// Forward closure over the call graph: every function a root can reach.
/// The roots are the commit writers plus every commit-path function that
/// reaches one (the drivers and schedulers that lead to a commit).
fn reachable_from_roots(index: &ItemIndex, graph: &CallGraph) -> Vec<bool> {
    let n = index.functions.len();
    let writers: Vec<bool> = index.functions.iter().map(is_commit_writer).collect();
    let leads_to_commit = graph.taint_callers(n, &writers);
    let mut reach = vec![false; n];
    let mut work: Vec<usize> = (0..n)
        .filter(|&i| leads_to_commit[i] && on_commit_path(&index.functions[i]))
        .collect();
    for &r in &work {
        reach[r] = true;
    }
    while let Some(f) = work.pop() {
        for e in graph.edges.iter().filter(|e| e.caller == f) {
            if !reach[e.callee] && !index.functions[e.callee].in_test {
                reach[e.callee] = true;
                work.push(e.callee);
            }
        }
    }
    reach
}

/// Applies R15 over the workspace.
pub fn check(
    files: &[SourceFile],
    index: &ItemIndex,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    let reach = reachable_from_roots(index, graph);
    let by_path: std::collections::BTreeMap<String, &SourceFile> = files
        .iter()
        .map(|f| (f.rel_path.to_string_lossy().replace('\\', "/"), f))
        .collect();

    // De-duplicate sites shared by several reachable fns in one file.
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();

    for (i, f) in index.functions.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        let Some(body) = f.body else { continue };
        let Some(src) = by_path.get(&f.file) else {
            continue;
        };
        let cfg = Cfg::build(&src.tokens, body);
        let df = Dataflow::solve(&cfg, &src.tokens, &f.params);
        check_body(src, &cfg, &df, body, &mut |line, excerpt_line, msg| {
            if seen.insert((f.file.clone(), line, msg.clone())) {
                findings.push(finding_at(Rule::R15PanicPath, src, excerpt_line, msg));
            }
        });
    }
}

/// Scans one reachable body for panic sites; `emit(line, line, message)`.
fn check_body(
    src: &SourceFile,
    cfg: &Cfg,
    df: &Dataflow,
    body: (usize, usize),
    emit: &mut dyn FnMut(usize, usize, String),
) {
    let toks = &src.tokens;
    for k in body.0 + 1..body.1 {
        let t = &toks[k];
        if src.token_exempt(t, Rule::R15PanicPath.id()) {
            continue;
        }
        // Unconditional panic macros.
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
        {
            emit(
                t.line,
                t.line,
                format!(
                    "`{}!` is reachable from the executor commit path; prove the invariant or carry analyze::allow(R15)",
                    t.text
                ),
            );
            continue;
        }
        // Unchecked indexing `seq[…]`.
        if t.is_punct("[") && k > 0 && toks[k - 1].kind == TokenKind::Ident {
            let seq = &toks[k - 1];
            if crate::dataflow::is_df_keyword(&seq.text) {
                continue;
            }
            let Some(close) = matching_close(toks, k, "[", "]") else {
                continue;
            };
            if close == k + 2 && toks[k + 1].kind == TokenKind::Ident {
                let idx = &toks[k + 1];
                let defs = df.reaching(cfg, &idx.text, k + 1);
                let proved = !defs.is_empty()
                    && defs
                        .iter()
                        .all(|d| d.value == AbstractValue::RangeIndexOf(seq.text.clone()));
                if proved {
                    continue;
                }
            }
            emit(
                t.line,
                t.line,
                format!(
                    "unchecked index into `{}` on the commit path; use .get()/iterators or prove the bound (loop over 0..{}.len()) or carry analyze::allow(R15)",
                    seq.text, seq.text
                ),
            );
            continue;
        }
        // Integer division / remainder by a possibly-zero value.
        if (t.is_punct("/") || t.is_punct("%")) && k > 0 {
            if let Some(msg) = divisor_hazard(toks, k, cfg, df) {
                emit(t.line, t.line, msg);
            }
        }
    }
}

/// Whether the `/` or `%` at `k` has a divisor the domain can argue may
/// be zero. Returns the finding message, or `None` when safe/unknown.
fn divisor_hazard(toks: &[Token], k: usize, cfg: &Cfg, df: &Dataflow) -> Option<String> {
    let op = &toks[k].text;
    // Float context on either side disarms the check (float division
    // yields inf/NaN, not a panic; R5 guards cover those).
    if toks[k - 1].kind == TokenKind::Float
        || toks.get(k + 1).is_some_and(|t| t.kind == TokenKind::Float)
    {
        return None;
    }
    let rhs = toks.get(k + 1)?;
    if rhs.kind == TokenKind::Int {
        return if rhs.text.chars().all(|c| c == '0' || c == '_') {
            Some(format!("literal zero divisor in `{op}` on the commit path"))
        } else {
            None
        };
    }
    if rhs.kind != TokenKind::Ident || crate::dataflow::is_df_keyword(&rhs.text) {
        return None;
    }
    // A bare variable divisor (not a call/field chain).
    if toks
        .get(k + 2)
        .is_some_and(|n| n.is_punct(".") || n.is_punct("::") || n.is_punct("("))
    {
        return None;
    }
    let defs = df.reaching(cfg, &rhs.text, k + 1);
    if defs.is_empty() || !defs.iter().all(|d| d.value.is_integer_evidence()) {
        return None; // cannot type the divisor — stay silent
    }
    let may_be_zero = defs.iter().any(|d| match &d.value {
        AbstractValue::Int(v) => *v == 0,
        AbstractValue::LenOf(_) | AbstractValue::RangeIndexOf(_) => true,
        _ => false,
    });
    may_be_zero.then(|| {
        format!(
            "integer `{op}` by `{}` on the commit path may divide by zero (a reaching definition is 0 or a length); guard it or carry analyze::allow(R15)",
            rhs.text
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;

    const COMMIT_FN: &str = "pub fn commit(&mut self) {\n    self.samples.push(self.next());\n    helper(&self.tasks, self.cursor);\n}\n";

    fn study(body: &str) -> String {
        format!("{COMMIT_FN}{body}")
    }

    #[test]
    fn unchecked_index_in_reachable_helper_is_flagged() {
        let src =
            study("pub fn helper(tasks: &[u64], cursor: usize) -> u64 {\n    tasks[cursor]\n}\n");
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        assert_eq!(
            report.findings_for(Rule::R15PanicPath).count(),
            1,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn proved_range_loop_index_is_safe() {
        let src = study(
            "pub fn helper(tasks: &[u64], cursor: usize) -> u64 {\n    let mut acc = 0;\n    for i in 0..tasks.len() {\n        acc += tasks[i];\n    }\n    acc + cursor as u64\n}\n",
        );
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        assert_eq!(
            report.findings_for(Rule::R15PanicPath).count(),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn unreachable_macro_on_commit_path_is_flagged() {
        let src = study(
            "pub fn helper(tasks: &[u64], cursor: usize) -> u64 {\n    if cursor > tasks.len() { unreachable!() } else { 0 }\n}\n",
        );
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        assert_eq!(report.findings_for(Rule::R15PanicPath).count(), 1);
    }

    #[test]
    fn unreferenced_function_is_not_on_the_commit_path() {
        let src = study("pub fn elsewhere(xs: &[u64]) -> u64 { xs[0] }\n");
        // `elsewhere` is never called from the commit root.
        let src = src.replace("helper(&self.tasks, self.cursor);", "");
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        assert_eq!(
            report.findings_for(Rule::R15PanicPath).count(),
            0,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn helper_reached_only_from_a_caller_of_the_commit_is_flagged() {
        // `drain` decides what commits; `pick` never runs under `commit`
        // itself but is still on the commit path.
        let src = study(
            "pub fn helper(tasks: &[u64], cursor: usize) -> u64 {\n    tasks.get(cursor).copied().unwrap_or(0)\n}\npub fn drain(&mut self) {\n    let i = pick(&self.tasks);\n    self.commit();\n}\npub fn pick(tasks: &[u64]) -> usize {\n    tasks[1] as usize\n}\n",
        );
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        let lines: Vec<_> = report
            .findings_for(Rule::R15PanicPath)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![13], "pick's index must be flagged: {lines:?}");
    }

    #[test]
    fn possibly_zero_divisor_is_flagged_and_nonzero_literal_is_not() {
        let src = study(
            "pub fn helper(tasks: &[u64], cursor: usize) -> usize {\n    let n = tasks.len();\n    let half = cursor / 2;\n    half + cursor % n\n}\n",
        );
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        let msgs: Vec<_> = report
            .findings_for(Rule::R15PanicPath)
            .map(|f| f.message.clone())
            .collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].contains("% ") || msgs[0].contains("`%`"),
            "{msgs:?}"
        );
    }

    #[test]
    fn allow_marker_suppresses_and_registers_usage() {
        let src = study(
            "pub fn helper(tasks: &[u64], cursor: usize) -> u64 {\n    // known in-bounds: cursor is clamped by the scheduler. analyze::allow(R15)\n    tasks[cursor]\n}\n",
        );
        let report = analyze_sources(&[("crates/core/src/study.rs", &src)]);
        assert_eq!(report.findings_for(Rule::R15PanicPath).count(), 0);
        // ... and the consumed marker is not stale (no R16 either).
        assert_eq!(report.findings_for(Rule::R16StaleAllow).count(), 0);
    }
}

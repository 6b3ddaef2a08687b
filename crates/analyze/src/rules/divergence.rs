//! R18 — branch-divergent RNG draws in trace-affecting crates.
//!
//! With one shared RNG stream, two branch arms that draw a *different
//! number* of values leave the stream at different offsets depending on
//! which arm ran — every draw after the branch then depends on data, not
//! just on the seed. That is exactly how "same seed, different trace"
//! bugs are born (and why stream-aligned designs like rejection-free
//! sampling exist).
//!
//! The rule builds each function's CFG and, per [`crate::cfg::Branch`],
//! counts the draw calls (`.random(…)`, `.gen_range(…)`, `.sample(…)`,
//! …) in every arm — recursively: a nested branch whose own arms agree
//! contributes that agreed count; one whose arms disagree is reported at
//! its own line and makes the outer count incomparable (no cascading
//! noise). An `if` without `else` has an implicit zero-draw arm. Arms
//! that pass an RNG into an opaque call (an `rng`-ish identifier not in
//! receiver position) are skipped — the domain cannot count those draws.
//!
//! Warning severity: unequal counts are sometimes intended (e.g. a
//! branch that finishes a run early); `analyze::allow(R18)` on the
//! branch line records that intent.

use crate::cfg::{Branch, Cfg};
use crate::index::ItemIndex;
use crate::scan::SourceFile;
use crate::token::{Token, TokenKind};
use crate::{Finding, Rule};

use super::rng::CONSTRUCT_IDENTS;
use super::{finding_at, in_trace_crate};

/// Method names that advance an RNG stream by drawing from it.
pub const DRAW_METHODS: &[&str] = &[
    "random",
    "random_range",
    "random_bool",
    "random_ratio",
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
];

/// Applies R18 over the workspace.
pub fn check(files: &[SourceFile], index: &ItemIndex, findings: &mut Vec<Finding>) {
    for file in files {
        let rel = file.rel_path.to_string_lossy().replace('\\', "/");
        if !in_trace_crate(&rel) {
            continue;
        }
        for f in index
            .functions
            .iter()
            .filter(|f| f.file == rel && !f.in_test)
        {
            let Some(body) = f.body else { continue };
            // Constructor shims legitimately branch on which seeded root
            // to mint; their arms do not share a live stream yet.
            if CONSTRUCT_IDENTS.iter().any(|c| f.body_mentions(c)) {
                continue;
            }
            let cfg = Cfg::build(&file.tokens, body);
            for b in &cfg.branches {
                if file.line_allowed(b.line, Rule::R18BranchDivergentRng.id()) {
                    continue;
                }
                let Some(counts) = arm_draw_counts(&file.tokens, &cfg, b) else {
                    continue;
                };
                let mut all = counts.clone();
                if !b.has_else {
                    all.push(0); // the untaken path draws nothing
                }
                if all.iter().any(|&c| c != all[0]) && all.iter().any(|&c| c > 0) {
                    findings.push(finding_at(
                        Rule::R18BranchDivergentRng,
                        file,
                        b.line,
                        format!(
                            "branch arms draw unequal RNG counts ({}): the stream offset after this branch depends on data, not the seed; align the arms or carry analyze::allow(R18)",
                            describe(&all)
                        ),
                    ));
                }
            }
        }
    }
}

fn describe(counts: &[usize]) -> String {
    counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" vs ")
}

/// Resolved draw counts per arm of `b`, or `None` when any arm is
/// incomparable (opaque RNG escape, or a nested disagreeing branch —
/// which reports at its own line).
fn arm_draw_counts(toks: &[Token], cfg: &Cfg, b: &Branch) -> Option<Vec<usize>> {
    b.arms
        .iter()
        .map(|&(lo, hi)| span_draws(toks, cfg, b, lo, hi))
        .collect()
}

/// Draw count of the token span `[lo, hi]`, counting nested branches by
/// their resolved count. `None` = incomparable.
fn span_draws(toks: &[Token], cfg: &Cfg, parent: &Branch, lo: usize, hi: usize) -> Option<usize> {
    // Nested branches strictly inside this span (maximal ones only —
    // grandchildren are counted within their parent).
    let mut children: Vec<&Branch> = cfg
        .branches
        .iter()
        .filter(|c| !std::ptr::eq(*c, parent) && c.span().0 >= lo && c.span().1 <= hi)
        .collect();
    children.retain(|c| {
        !cfg.branches.iter().any(|o| {
            !std::ptr::eq(o, parent)
                && !std::ptr::eq(o, *c)
                && o.span().0 >= lo
                && o.span().1 <= hi
                && o.span().0 <= c.span().0
                && c.span().1 <= o.span().1
                && (o.span() != c.span() || (o as *const Branch) < (*c as *const Branch))
        })
    });

    let mut total = 0usize;
    let inside_child = |k: usize| {
        children
            .iter()
            .any(|c| (c.span().0..=c.span().1).contains(&k))
    };

    let mut k = lo;
    while k <= hi && k < toks.len() {
        if inside_child(k) {
            k += 1;
            continue;
        }
        let t = &toks[k];
        if t.kind == TokenKind::Ident {
            let is_draw = DRAW_METHODS.contains(&t.text.as_str())
                && k > 0
                && toks[k - 1].is_punct(".")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                // `gen` is also an ordinary word; require an rng-ish receiver.
                && (t.text != "gen" || k >= 2 && rng_ish(&toks[k - 2].text));
            if is_draw {
                total += 1;
            } else if rng_ish(&t.text) {
                let receiver = toks.get(k + 1).is_some_and(|n| n.is_punct("."))
                    && toks
                        .get(k + 2)
                        .is_some_and(|n| DRAW_METHODS.contains(&n.text.as_str()));
                if !receiver {
                    return None; // stream escapes into an opaque call
                }
            }
        }
        k += 1;
    }

    for c in children {
        let mut arm_counts = arm_draw_counts(toks, cfg, c)?;
        if !c.has_else {
            arm_counts.push(0);
        }
        if arm_counts.iter().any(|&n| n != arm_counts[0]) {
            return None; // the child is the finding, not us
        }
        total += arm_counts[0];
    }
    Some(total)
}

/// An identifier that names an RNG stream by convention.
fn rng_ish(name: &str) -> bool {
    name == "rng" || name.ends_with("_rng")
}

#[cfg(test)]
mod tests {
    use crate::analyze_sources;
    use crate::Rule;

    fn count(src: &str) -> usize {
        let report = analyze_sources(&[("crates/core/src/search.rs", src)]);
        report.findings_for(Rule::R18BranchDivergentRng).count()
    }

    #[test]
    fn unequal_if_else_draws_are_flagged() {
        let src = "pub fn step(&mut self, hot: bool) -> f64 {\n\
                   \x20   if hot {\n        self.rng.random_range(0.0..1.0)\n    } else {\n        self.rng.random_range(0.0..1.0) + self.rng.random_range(0.0..1.0)\n    }\n\
                   }\n";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn equal_draws_across_arms_are_fine() {
        let src = "pub fn step(&mut self, hot: bool) -> f64 {\n\
                   \x20   if hot {\n        self.rng.random_range(0.0..1.0)\n    } else {\n        self.rng.random_range(2.0..3.0)\n    }\n\
                   }\n";
        assert_eq!(count(src), 0);
    }

    #[test]
    fn if_without_else_that_draws_is_flagged() {
        let src = "pub fn maybe(&mut self, hot: bool) {\n\
                   \x20   if hot {\n        self.score = self.rng.random_range(0.0..1.0);\n    }\n\
                   }\n";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn branchless_draws_and_drawless_branches_are_fine() {
        let src = "pub fn all(&mut self, hot: bool) -> f64 {\n\
                   \x20   let x = self.rng.random_range(0.0..1.0);\n\
                   \x20   if hot { x } else { -x }\n\
                   }\n";
        assert_eq!(count(src), 0);
    }

    #[test]
    fn opaque_rng_escape_disarms_the_branch() {
        let src = "pub fn step(&mut self, hot: bool) -> f64 {\n\
                   \x20   if hot {\n        helper(&mut self.rng)\n    } else {\n        0.0\n    }\n\
                   }\n";
        assert_eq!(count(src), 0);
    }

    #[test]
    fn agreeing_nested_branch_counts_toward_its_parent() {
        // Inner if/else draws 1 on both arms; outer arms are 1 vs 1.
        let src = "pub fn step(&mut self, a: bool, b: bool) -> f64 {\n\
                   \x20   if a {\n        if b {\n            self.rng.random_range(0.0..1.0)\n        } else {\n            self.rng.random_range(1.0..2.0)\n        }\n    } else {\n        self.rng.random_range(2.0..3.0)\n    }\n\
                   }\n";
        assert_eq!(count(src), 0);
    }

    #[test]
    fn match_arms_with_unequal_draws_are_flagged() {
        let src = "pub fn pick(&mut self, m: Mode) -> f64 {\n\
                   \x20   match m {\n        Mode::Fast => self.rng.random_range(0.0..1.0),\n        Mode::Slow => self.rng.random_range(0.0..1.0) * self.rng.random_range(0.0..1.0),\n    }\n\
                   }\n";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn constructor_shims_are_exempt() {
        let src = "pub fn mint(&self, hot: bool) -> Rng {\n\
                   \x20   if hot {\n        Rng::seed_from_u64(self.seed)\n    } else {\n        Rng::seed_from_u64(self.seed ^ 1)\n    }\n\
                   }\n";
        assert_eq!(count(src), 0);
    }

    #[test]
    fn allow_marker_on_branch_line_suppresses() {
        let src = "pub fn maybe(&mut self, hot: bool) {\n\
                   \x20   // early exit draws nothing by design. analyze::allow(R18)\n\
                   \x20   if hot {\n        self.score = self.rng.random_range(0.0..1.0);\n    }\n\
                   }\n";
        // Marker line is the line above the `if`; line_allowed covers it.
        assert_eq!(count(src), 0);
    }
}

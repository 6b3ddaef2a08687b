//! R10/R11 — interprocedural flow rules over the workspace call graph.
//!
//! These rules see past a single file, extending two per-file invariants
//! along confident call edges (see [`crate::graph`]):
//!
//! * **R10 (wall-clock flow)** extends clippy's clock ban
//!   (`disallowed_methods`/`disallowed_types`): a function whose body
//!   touches `SystemTime`/`Instant` is a *clock source*; taint propagates
//!   to every (transitive) caller, and each call edge into tainted code
//!   from a file outside the declared [`TIMING_SINKS`] is a finding.
//!   Clippy catches the read itself; R10 catches the helper that launders
//!   it across a file boundary.
//! * **R11 (RNG flow)** extends R8: a function whose body constructs an
//!   RNG (`seed_from_u64`/`from_seed`/`from_rng`) is a *minting
//!   function*; calling one from a file that is not a declared seeded
//!   root forks the random stream away from the recorded seed. The
//!   minting function's own location is R8's business — R11 polices who
//!   may *reach* it. Marking the minting function's definition line with
//!   `analyze::allow(R11)` blesses it as a pure-draw helper callable from
//!   anywhere.
//!
//! Both rules only consume *confident* edges, so they under-approximate:
//! a missed edge hides a finding but never invents one.

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::index::ItemIndex;
use crate::scan::SourceFile;
use crate::{Finding, Rule};

use super::rng::RNG_ROOTS;

/// Files allowed to call (transitively) into wall-clock readers. Library
/// crates have none today — wall time belongs to the `cli`/`bench`
/// crates, which are not scanned; the constant exists so a future
/// profiling sink can be declared instead of sprinkling allows.
pub const TIMING_SINKS: &[&str] = &[];

/// Identifiers that make a function body a clock source.
const CLOCK_IDENTS: &[&str] = &["SystemTime", "Instant"];

/// Identifiers that make a function body an RNG minting site (kept in
/// sync with R8's construction list).
const MINT_IDENTS: &[&str] = &["seed_from_u64", "from_seed", "from_rng"];

fn file_map(files: &[SourceFile]) -> BTreeMap<String, &SourceFile> {
    files
        .iter()
        .map(|f| (f.rel_path.to_string_lossy().replace('\\', "/"), f))
        .collect()
}

/// R10: call edges from non-sink files into (transitively) clock-tainted
/// functions.
pub fn check_wallclock_flow(
    files: &[SourceFile],
    index: &ItemIndex,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    let rule = Rule::R10WallClockFlow;
    let by_path = file_map(files);
    let seeds: Vec<bool> = index
        .functions
        .iter()
        .map(|f| CLOCK_IDENTS.iter().any(|id| f.body_mentions(id)))
        .collect();
    if !seeds.iter().any(|&s| s) {
        return;
    }
    let tainted = graph.taint_callers(index.functions.len(), &seeds);

    for e in &graph.edges {
        let caller = &index.functions[e.caller];
        let callee = &index.functions[e.callee];
        if !tainted[e.callee] || caller.in_test || callee.in_test {
            continue;
        }
        if TIMING_SINKS.contains(&caller.file.as_str()) {
            continue;
        }
        let Some(src) = by_path.get(&caller.file) else {
            continue;
        };
        if src.line_in_test(e.line) || src.line_allowed(e.line, rule.id()) {
            continue;
        }
        let how = if seeds[e.callee] {
            "reads wall-clock time"
        } else {
            "transitively reaches a wall-clock read"
        };
        findings.push(super::finding_at(
            rule,
            src,
            e.line,
            format!(
                "`{}` {how} ({}:{}); deterministic paths must not observe wall time — inject measured durations, or declare a timing sink (rules::flow::TIMING_SINKS)",
                callee.name, callee.file, callee.line
            ),
        ));
    }
}

/// R11: call edges from non-root files into RNG-minting functions.
pub fn check_rng_flow(
    files: &[SourceFile],
    index: &ItemIndex,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    let rule = Rule::R11RngFlow;
    let by_path = file_map(files);
    let minting: Vec<bool> = index
        .functions
        .iter()
        .map(|f| MINT_IDENTS.iter().any(|id| f.body_mentions(id)))
        .collect();
    if !minting.iter().any(|&m| m) {
        return;
    }

    for e in &graph.edges {
        let caller = &index.functions[e.caller];
        let callee = &index.functions[e.callee];
        if !minting[e.callee] || caller.in_test || callee.in_test {
            continue;
        }
        if RNG_ROOTS.contains(&caller.file.as_str()) {
            continue;
        }
        // A blessed pure-draw helper: allow(R11) on its definition line
        // exempts every edge into it.
        if by_path
            .get(&callee.file)
            .is_some_and(|src| src.line_allowed(callee.line, rule.id()))
        {
            continue;
        }
        let Some(src) = by_path.get(&caller.file) else {
            continue;
        };
        if src.line_in_test(e.line) || src.line_allowed(e.line, rule.id()) {
            continue;
        }
        findings.push(super::finding_at(
            rule,
            src,
            e.line,
            format!(
                "`{}` ({}:{}) constructs an RNG, and this caller is not a declared seeded root: the call forks the random stream away from the recorded seed — thread `&mut StdRng` from a root instead (roots: rules::rng::RNG_ROOTS)",
                callee.name, callee.file, callee.line
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::from_source(PathBuf::from(p), s))
            .collect();
        let index = ItemIndex::build(&sources);
        let graph = CallGraph::build(&index);
        let mut findings = Vec::new();
        check_wallclock_flow(&sources, &index, &graph, &mut findings);
        check_rng_flow(&sources, &index, &graph, &mut findings);
        findings
    }

    fn by_rule(findings: &[Finding], rule: Rule) -> usize {
        findings.iter().filter(|f| f.rule == rule).count()
    }

    #[test]
    fn r10_cross_file_clock_chain_fires_on_every_edge() {
        let f = run(&[
            (
                "crates/core/src/profiler.rs",
                "pub fn read_clock() -> u64 { SystemTime::now().elapsed().as_secs() }\n",
            ),
            (
                "crates/core/src/model.rs",
                "pub fn calibrate() -> u64 { read_clock() }\nfn top() -> u64 { calibrate() }\n",
            ),
        ]);
        // calibrate → read_clock (direct) and top → calibrate (transitive).
        assert_eq!(by_rule(&f, Rule::R10WallClockFlow), 2);
        assert!(f.iter().any(|x| x.message.contains("transitively")));
    }

    #[test]
    fn r10_ambiguous_callee_name_is_conservative() {
        let f = run(&[
            (
                "crates/core/src/a.rs",
                "fn sample() -> u64 { Instant::now().elapsed().as_secs() }\n",
            ),
            (
                "crates/gp/src/b.rs",
                "fn sample() -> u64 { 1 }\nfn go() -> u64 { sample() }\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R10WallClockFlow), 0);
    }

    #[test]
    fn r10_test_caller_is_exempt() {
        let f = run(&[
            (
                "crates/core/src/profiler.rs",
                "pub fn read_clock() -> u64 { SystemTime::now().elapsed().as_secs() }\n",
            ),
            (
                "crates/core/src/model.rs",
                "#[cfg(test)]\nmod t {\n    fn bench() -> u64 { read_clock() }\n}\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R10WallClockFlow), 0);
    }

    #[test]
    fn r11_minting_call_from_non_root_fires() {
        let f = run(&[
            (
                "crates/gpu-sim/src/sensor.rs",
                "pub struct Gpu;\nimpl Gpu {\n    pub fn boot(seed: u64) -> Gpu { let _r = StdRng::seed_from_u64(seed); Gpu }\n}\n",
            ),
            (
                "crates/gp/src/opt.rs",
                "fn probe() { let _g = Gpu::boot(7); }\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R11RngFlow), 1);
    }

    #[test]
    fn r11_root_callers_pass() {
        let f = run(&[
            (
                "crates/gpu-sim/src/sensor.rs",
                "pub struct Gpu;\nimpl Gpu {\n    pub fn boot(seed: u64) -> Gpu { let _r = StdRng::seed_from_u64(seed); Gpu }\n}\n",
            ),
            (
                "crates/core/src/scenario.rs",
                "fn stage() { let _g = Gpu::boot(7); }\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R11RngFlow), 0);
    }

    #[test]
    fn r11_blessed_definition_is_callable_from_anywhere() {
        let f = run(&[
            (
                "crates/gpu-sim/src/fault.rs",
                "// analyze::allow(R11)\nfn unit_draw(h: u64) -> f64 { StdRng::seed_from_u64(h).random() }\n",
            ),
            (
                "crates/gp/src/opt.rs",
                "fn probe() -> f64 { unit_draw(7) }\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R11RngFlow), 0);
    }

    #[test]
    fn r11_call_site_allow_is_honoured() {
        let f = run(&[
            (
                "crates/gpu-sim/src/sensor.rs",
                "pub struct Gpu;\nimpl Gpu {\n    pub fn boot(seed: u64) -> Gpu { let _r = StdRng::seed_from_u64(seed); Gpu }\n}\n",
            ),
            (
                "crates/gp/src/opt.rs",
                "// analyze::allow(R11)\nfn probe() { let _g = Gpu::boot(7); }\n",
            ),
        ]);
        assert_eq!(by_rule(&f, Rule::R11RngFlow), 0);
    }
}

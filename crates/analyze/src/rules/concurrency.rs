//! R12 — concurrency primitives confined to the executor boundary, and
//! trace writes confined to the commit path.
//!
//! Determinism under parallel evaluation holds because *one* place owns
//! all cross-thread state: the executor's commit queue, which re-orders
//! worker results back into submission order before anything touches the
//! trace. A `Mutex` or atomic introduced elsewhere creates a second
//! synchronization point whose observable order depends on scheduling —
//! exactly the bug class the golden-trace tests can only catch after the
//! fact. Two checks:
//!
//! 1. **Boundary**: `Mutex`/`RwLock`/atomics/channels/`thread::…`/
//!    `unsafe`/`static mut` may appear only in the declared
//!    [`EXECUTOR_BOUNDARY`] files.
//! 2. **Commit path**: pushes onto a `samples` trace vector may appear
//!    only in the declared [`COMMIT_PATHS`] files, where the commit
//!    queue's ordering proof applies.

use crate::scan::SourceFile;
use crate::token::TokenKind;
use crate::{Finding, Rule};

/// Files allowed to hold concurrency primitives: the deterministic
/// parallel executor (threads, scoped spawns, channels).
pub const EXECUTOR_BOUNDARY: &[&str] = &["crates/core/src/executor.rs"];

/// Files allowed to append to a `samples` trace: the ask–tell study core,
/// whose commit queue is the single commit point of every run.
pub const COMMIT_PATHS: &[&str] = &["crates/core/src/study.rs"];

/// Concurrency primitive type/module names (token-exact).
const PRIMITIVE_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "mpsc",
    "OnceLock",
    "LazyLock",
    "JoinHandle",
];

/// R12: concurrency primitives outside the boundary, trace writes
/// outside the commit path.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rule = Rule::R12ConcurrencyBoundary;
    let rel = file.rel_path.to_string_lossy().replace('\\', "/");
    let in_boundary = EXECUTOR_BOUNDARY.contains(&rel.as_str());
    let in_commit_path = COMMIT_PATHS.contains(&rel.as_str());
    let toks = &file.tokens;
    let mut last_line = 0;

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // Trace-write check applies even inside the boundary files.
        if !in_commit_path
            && t.text == "samples"
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("push"))
            && !file.token_exempt(t, rule.id())
        {
            findings.push(super::finding_at(
                rule,
                file,
                t.line,
                "trace write (`samples.push`) outside the commit path: only the commit queue's submission-order replay guarantees deterministic traces (see rules::concurrency::COMMIT_PATHS)".to_string(),
            ));
            continue;
        }
        if in_boundary {
            continue;
        }
        let is_primitive = PRIMITIVE_IDENTS.contains(&t.text.as_str())
            || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len())
            || t.text == "unsafe"
            || (t.text == "thread" && toks.get(i + 1).is_some_and(|n| n.is_punct("::")))
            || (t.text == "static" && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")));
        if !is_primitive || t.line == last_line || file.token_exempt(t, rule.id()) {
            continue;
        }
        last_line = t.line;
        findings.push(super::finding_at(
            rule,
            file,
            t.line,
            format!(
                "concurrency primitive `{}` outside the executor boundary: cross-thread state is confined to {} so the commit queue stays the single ordering point",
                t.text,
                EXECUTOR_BOUNDARY.join(", ")
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
    fn mutex_outside_boundary_fires() {
        let f = run_at("crates/core/src/model.rs", "use std::sync::Mutex;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::R12ConcurrencyBoundary);
    }

    #[test]
    fn atomics_threads_and_static_mut_fire() {
        assert_eq!(
            run_at(
                "crates/gp/src/kernel.rs",
                "use std::sync::atomic::AtomicU64;\n"
            )
            .len(),
            1
        );
        assert_eq!(
            run_at(
                "crates/nn/src/network.rs",
                "fn f() { std::thread::spawn(|| {}); }\n"
            )
            .len(),
            1
        );
        assert_eq!(
            run_at("crates/core/src/drift.rs", "static mut COUNTER: u64 = 0;\n").len(),
            1
        );
    }

    #[test]
    fn unsafe_outside_boundary_fires() {
        let f = run_at("crates/linalg/src/vector.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unsafe"));
    }

    #[test]
    fn boundary_file_may_use_threads() {
        assert!(run_at(
            "crates/core/src/executor.rs",
            "use std::sync::Mutex;\nfn f() { std::thread::scope(|s| {}); }\n"
        )
        .is_empty());
    }

    #[test]
    fn plain_thread_ident_without_path_is_fine() {
        // `worker_thread` variables or a field named `thread` are not spawns.
        assert!(run_at("crates/core/src/model.rs", "let thread = 1;\n").is_empty());
    }

    #[test]
    fn trace_write_outside_commit_path_fires() {
        let f = run_at(
            "crates/core/src/methods.rs",
            "fn f(t: &mut Trace) { t.samples.push(s); }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("commit path"));
    }

    #[test]
    fn trace_write_in_commit_path_passes() {
        assert!(run_at(
            "crates/core/src/study.rs",
            "fn f(t: &mut Trace) { t.samples.push(s); }\n"
        )
        .is_empty());
    }

    #[test]
    fn trace_write_in_executor_or_driver_fires() {
        for file in ["crates/core/src/executor.rs", "crates/core/src/driver.rs"] {
            let f = run_at(file, "fn f(t: &mut Trace) { t.samples.push(s); }\n");
            assert_eq!(f.len(), 1, "{file}");
        }
    }

    #[test]
    fn test_code_and_allow_are_exempt() {
        assert!(run_at(
            "crates/core/src/model.rs",
            "#[cfg(test)]\nmod t {\n    use std::sync::Mutex;\n}\n"
        )
        .is_empty());
        assert!(run_at(
            "crates/core/src/model.rs",
            "// analyze::allow(R12)\nuse std::sync::Mutex;\n"
        )
        .is_empty());
    }
}

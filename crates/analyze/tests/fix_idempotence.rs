//! `--fix` must be idempotent: applying it to its own output changes
//! nothing.
//!
//! A fixer that keeps rewriting converged code is worse than no fixer —
//! it turns every CI run into a diff and erodes trust in the rewrites.
//! This test runs `fix_source` over every real library source file,
//! applies it a second time to whatever the first pass produced, and
//! fails if the second pass wants to touch a single byte. CI enforces
//! the same property end-to-end by running the binary's `--fix` twice
//! and diffing the tree.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower_analyze::fix::{apply_fixes, fix_source};
use hyperpower_analyze::{
    analyze_workspace, find_workspace_root, rust_files, Rule, LIBRARY_CRATES,
};

#[test]
fn second_fix_pass_is_a_no_op_on_every_library_file() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let mut checked = 0usize;
    for krate in LIBRARY_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for path in rust_files(&src).expect("library sources listable") {
            let text = std::fs::read_to_string(&path).expect("source readable");
            let rel = path.strip_prefix(&root).unwrap_or(&path).to_path_buf();
            let first = fix_source(rel.clone(), &text);
            // The committed tree should already be converged; a pending
            // rewrite here means someone forgot to run --fix, and the
            // second application must still land exactly there.
            let converged = first.text.unwrap_or(text);
            let second = fix_source(rel.clone(), &converged);
            assert!(
                second.text.is_none(),
                "fix is not idempotent on {}: second pass still rewrites",
                rel.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 40,
        "only {checked} files checked — idempotence sweep lost the source tree"
    );
}

/// Writes `source` as `crates/core/src/config.rs` of a fresh temporary
/// workspace named after `tag` and returns (workspace root, file path).
fn temp_core_file(tag: &str, source: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let tmp = std::env::temp_dir().join(format!("hp-fix-{tag}-{}", std::process::id()));
    let src_dir = tmp.join("crates").join("core").join("src");
    std::fs::create_dir_all(&src_dir).expect("temp workspace creatable");
    let file = src_dir.join("config.rs");
    std::fs::write(&file, source).expect("temp source writable");
    (tmp, file)
}

/// R16 removal end-to-end: `apply_fixes` deletes a dormant grant, keeps a
/// consumed one, and converges — the second pass touches nothing.
#[test]
fn apply_fixes_removes_stale_allows_and_converges() {
    let (tmp, file) = temp_core_file(
        "r16",
        "// analyze::allow(R8)\nfn fork() { let r = StdRng::seed_from_u64(1); }\n\n// analyze::allow(R14)\npub fn quiet() -> usize {\n    64\n}\n",
    );

    let report = apply_fixes(&tmp).expect("fix pass runs");
    assert_eq!(
        report.allows_removed, 1,
        "exactly the dormant R14 grant goes"
    );
    assert_eq!(report.files_changed, 1);
    let fixed = std::fs::read_to_string(&file).expect("fixed source readable");
    assert!(
        fixed.contains("analyze::allow(R8)"),
        "consumed grant must survive:\n{fixed}"
    );
    assert!(
        !fixed.contains("allow(R14)"),
        "stale grant must be removed:\n{fixed}"
    );

    let again = apply_fixes(&tmp).expect("second fix pass runs");
    assert_eq!(again.files_changed, 0, "fix must converge after one pass");
    assert_eq!(again.allows_removed, 0);
    std::fs::remove_dir_all(&tmp).expect("temp workspace removable");
}

/// The retired ids R1, R2, R4 and R9 (clippy lints now) name unknown
/// rules: R16 reports each grant, even on the pattern it used to cover,
/// and `--fix` strips them while keeping a live id on the same marker.
#[test]
fn retired_rule_ids_are_unknown_and_fix_strips_them() {
    let (tmp, file) = temp_core_file(
        "retired",
        "// analyze::allow(R1)\npub fn stamp() -> Instant { Instant::now() }\n\
         // analyze::allow(R2, R8)\nfn fork(x: f64) -> bool { let r = StdRng::seed_from_u64(1); x == 0.5 }\n\
         // analyze::allow(R4)\npub fn log() { eprintln!(\"x\"); }\n\
         // analyze::allow(R9)\nuse std::collections::HashMap;\n",
    );

    let messages = |root| -> Vec<String> {
        let report = analyze_workspace(root).expect("analysis runs");
        report
            .findings_for(Rule::R16StaleAllow)
            .map(|f| f.message.clone())
            .collect()
    };
    let unknown = messages(&tmp);
    for id in ["R1", "R2", "R4", "R9"] {
        let named = format!("allow({id}) names an unknown rule");
        assert!(unknown.iter().any(|m| m.contains(&named)), "{unknown:?}");
    }
    assert_eq!(apply_fixes(&tmp).expect("fix pass runs").allows_removed, 4);
    let text = std::fs::read_to_string(&file).expect("fixed source readable");
    assert!(
        text.starts_with("pub fn stamp()"),
        "emptied markers go:\n{text}"
    );
    assert!(
        text.contains("// analyze::allow(R8)\nfn fork"),
        "live id stays:\n{text}"
    );
    assert_eq!(messages(&tmp), Vec::<String>::new());
    std::fs::remove_dir_all(&tmp).expect("temp workspace removable");
}

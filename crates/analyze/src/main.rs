//! Command-line entry point for the workspace static-analysis pass.
//!
//! Usage:
//!
//! ```text
//! hyperpower-analyze [--format text|json|sarif] [--fix] [--include-self]
//!                    [--baseline <path>] [--write-baseline]
//!                    [--write-certificate] [root]
//! ```
//!
//! When a baseline exists (`analyze-baseline.json` at the workspace root,
//! or the `--baseline` path), findings are judged as *drift* against it:
//! both new findings and stale baseline grants fail. Without a baseline,
//! any finding fails.
//!
//! Exits 0 when the workspace is clean (or matches its baseline), 1 on
//! findings/drift, 2 on usage or I/O errors.

// This binary owns its stdout/stderr; the print lints apply to the
// library crates only.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use hyperpower_analyze::baseline::{Baseline, BASELINE_FILE};
use hyperpower_analyze::certificate::CERTIFICATE_FILE;
use hyperpower_analyze::{
    analyze_workspace_with, find_workspace_root, fix, generate_certificate, sarif, Rule,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn usage() {
    println!(
        "usage: hyperpower-analyze [--format text|json|sarif] [--fix] [--include-self] [--baseline <path>] [--write-baseline] [--write-certificate] [workspace-root]"
    );
    println!(
        "  --format <f>      output format (default: text; --json is shorthand for --format json)"
    );
    println!("  --fix             apply mechanical rewrites (unit suffixes, allow-marker normalization, stale allow removal) before analyzing");
    println!("  --baseline <p>    compare findings against a baseline file (default: <root>/{BASELINE_FILE} when present)");
    println!(
        "  --write-baseline  accept the current findings into the baseline file and exit clean"
    );
    println!(
        "  --write-certificate  regenerate <root>/{CERTIFICATE_FILE} from the current analysis and exit"
    );
    println!("  --include-self    also scan the analyzer's own sources (crates/analyze, main.rs excluded)");
    println!("rules:");
    for rule in Rule::ALL {
        println!("  {} ({}): {}", rule.id(), rule.slug(), rule.description());
    }
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut apply_fix = false;
    let mut include_self = false;
    let mut write_baseline = false;
    let mut write_certificate = false;
    let mut baseline_arg: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "invalid --format {:?}: expected text, json or sarif",
                            other.unwrap_or("<missing>")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--fix" => apply_fix = true,
            "--include-self" => include_self = true,
            "--write-baseline" => write_baseline = true,
            "--write-certificate" => write_certificate = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if root_arg.is_none() && !other.starts_with('-') => {
                root_arg = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    if apply_fix {
        match fix::apply_fixes(&root) {
            Ok(r) => eprintln!(
                "fix: {} file(s) changed, {} identifier(s) renamed, {} marker(s) normalized, {} stale allow id(s) removed",
                r.files_changed, r.renames, r.markers_normalized, r.allows_removed
            ),
            Err(e) => {
                eprintln!("fix failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if write_certificate {
        let cert_path = root.join(CERTIFICATE_FILE);
        match generate_certificate(&root) {
            Ok(Some(json)) => {
                if let Err(e) = std::fs::write(&cert_path, json) {
                    eprintln!("cannot write {}: {e}", cert_path.display());
                    return ExitCode::from(2);
                }
                eprintln!("certificate: wrote {}", cert_path.display());
                return ExitCode::SUCCESS;
            }
            Ok(None) => {
                eprintln!(
                    "certificate: no trace-affecting crates under {}",
                    root.display()
                );
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("certificate generation failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match analyze_workspace_with(&root, include_self) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files_scanned == 0 {
        // A typo'd root would otherwise report a vacuously clean pass.
        eprintln!("no Rust sources found under {}", root.display());
        return ExitCode::from(2);
    }

    let baseline_path = baseline_arg.unwrap_or_else(|| root.join(BASELINE_FILE));

    if write_baseline {
        let base = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&baseline_path, base.to_json()) {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "baseline: accepted {} finding(s) across {} bucket(s) into {}",
            report.findings.len(),
            base.entries.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let base = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("invalid baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let drift = base.diff(&report);

    match format {
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", sarif::to_sarif(&report)),
        Format::Text => {
            println!(
                "hyperpower-analyze: scanned {} files across {} rules",
                report.files_scanned,
                Rule::ALL.len()
            );
            for rule in Rule::ALL {
                let n = report.findings_for(rule).count();
                println!(
                    "  {} {} ({}): {} finding{}",
                    if n == 0 { "ok " } else { "note" },
                    rule.id(),
                    rule.slug(),
                    n,
                    if n == 1 { "" } else { "s" }
                );
            }
            for f in &report.findings {
                println!("\n[{}] {}:{}", f.rule.id(), f.file, f.line);
                if !f.excerpt.is_empty() {
                    println!("    {}", f.excerpt);
                }
                println!("    {}", f.message);
            }
            if !base.entries.is_empty() {
                println!(
                    "\nbaseline: {} accepted bucket(s) from {}",
                    base.entries.len(),
                    baseline_path.display()
                );
            }
            if drift.is_empty() {
                if report.is_clean() {
                    println!("\nclean: all invariants hold");
                } else {
                    println!("\nclean: all findings are baselined");
                }
            } else {
                print!("\n{}", drift.describe());
            }
        }
    }

    if drift.is_empty() {
        ExitCode::SUCCESS
    } else {
        if format != Format::Text {
            eprint!("{}", drift.describe());
        }
        ExitCode::FAILURE
    }
}

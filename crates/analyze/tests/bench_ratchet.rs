//! Throughput ratchet for the analyzer's whole-workspace scan.
//!
//! `BENCH_analyze.json` at the workspace root commits the facts about
//! the `benches/scan_throughput.rs` workloads: the corpus shape
//! (`corpus_files`, `corpus_bytes` — so the measured workload can never
//! silently change meaning), the reference throughputs on the machine
//! that recorded them, and two deliberately loose lower bounds
//! (~10× slack under the debug-profile references) that catch
//! order-of-magnitude regressions without flaking on slow CI hardware:
//! `floor_mbps` for the whole scan and `dataflow_floor_mbps` for the
//! isolated CFG + reaching-definitions solve — an accidentally
//! quadratic index pass, a per-token allocation storm, or a worklist
//! that stops converging linearly all trip one of them.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// The ratchet times the analyzer scan on the wall clock;
// nothing measured here reaches a trace.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use hyperpower_analyze::corpus::{corpus_bytes, synthetic_files};
use hyperpower_analyze::find_workspace_root;

const BENCH_FILE: &str = "BENCH_analyze.json";

fn committed(key: &str, text: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let start = text
        .find(&pat)
        .unwrap_or_else(|| panic!("{BENCH_FILE} missing key {key}"))
        + pat.len();
    let digits: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{BENCH_FILE}: key {key} is not a number"))
}

#[test]
fn corpus_shape_matches_committed_reference() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let text = std::fs::read_to_string(root.join(BENCH_FILE)).expect("BENCH_analyze.json readable");

    let files = synthetic_files(committed("corpus_files", &text) as usize);
    assert_eq!(
        corpus_bytes(&files),
        committed("corpus_bytes", &text) as usize,
        "synthetic corpus changed shape: re-run `cargo bench -p hyperpower-analyze` and refresh {BENCH_FILE}"
    );
}

#[test]
fn scan_throughput_stays_above_committed_floor() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let text = std::fs::read_to_string(root.join(BENCH_FILE)).expect("BENCH_analyze.json readable");
    let floor_mbps = committed("floor_mbps", &text);

    let files = synthetic_files(committed("corpus_files", &text) as usize);
    let bytes = corpus_bytes(&files) as f64;
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();

    // Warm up once (page in code paths), then take the best of three —
    // the ratchet bounds capability, not scheduler noise.
    let _ = hyperpower_analyze::analyze_sources(&refs);
    let mut best_secs = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let report = hyperpower_analyze::analyze_sources(&refs);
        let secs = start.elapsed().as_secs_f64();
        assert!(report.is_clean());
        best_secs = best_secs.min(secs);
    }
    let mbps = bytes / 1e6 / best_secs;
    eprintln!("scan throughput: {mbps:.2} MB/s (floor {floor_mbps})");
    assert!(
        mbps >= floor_mbps,
        "scan throughput regressed: {mbps:.2} MB/s < committed floor {floor_mbps} MB/s ({BENCH_FILE})"
    );
}

#[test]
fn dataflow_throughput_stays_above_committed_floor() {
    use hyperpower_analyze::cfg::Cfg;
    use hyperpower_analyze::dataflow::Dataflow;
    use hyperpower_analyze::index::ItemIndex;
    use hyperpower_analyze::SourceFile;

    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let text = std::fs::read_to_string(root.join(BENCH_FILE)).expect("BENCH_analyze.json readable");
    let floor_mbps = committed("dataflow_floor_mbps", &text);

    let files = synthetic_files(committed("corpus_files", &text) as usize);
    let bytes = corpus_bytes(&files) as f64;
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(p, t)| SourceFile::from_source(std::path::PathBuf::from(p), t))
        .collect();
    let index = ItemIndex::build(&sources);

    let solve_all = || {
        let mut solved = 0usize;
        for f in &index.functions {
            let Some(body) = f.body else { continue };
            let Some(src) = sources
                .iter()
                .find(|s| s.rel_path.to_string_lossy().replace('\\', "/") == f.file)
            else {
                continue;
            };
            let cfg = Cfg::build(&src.tokens, body);
            let df = Dataflow::solve(&cfg, &src.tokens, &f.params);
            solved += df.defs.len();
        }
        solved
    };

    // Warm up once, then best of three (capability, not scheduler noise).
    assert!(solve_all() > 0, "corpus produced no definitions");
    let mut best_secs = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let solved = solve_all();
        let secs = start.elapsed().as_secs_f64();
        assert!(solved > 0);
        best_secs = best_secs.min(secs);
    }
    let mbps = bytes / 1e6 / best_secs;
    eprintln!("dataflow throughput: {mbps:.2} MB/s (floor {floor_mbps})");
    assert!(
        mbps >= floor_mbps,
        "dataflow throughput regressed: {mbps:.2} MB/s < committed floor {floor_mbps} MB/s ({BENCH_FILE})"
    );
}

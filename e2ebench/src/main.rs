//! End-to-end and per-layer benchmark of the HyperPower optimiser.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ieci-long|serve-fleet|walk-checkpoint|all> --seed N \
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`, the run
//! length its bounds were set for.
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the traced pass and prints the per-layer table. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `e2ebench/README.md`.

mod common;
mod ieci;
mod report;
mod serve;
mod stats;
mod trace;
mod walk;
mod wrap;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use hyperpower::golden::{self, Value};

use common::bench_dir;
use report::{json_metrics, json_number, json_string, BenchSpec, LayerMap, Outcome, Provenance};

const WORKLOADS: [&str; 3] = ["ieci-long", "serve-fleet", "walk-checkpoint"];

const USAGE: &str = "usage: e2ebench --workload <ieci-long|serve-fleet|walk-checkpoint|all> \
                     --seed <u64> [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(run_seconds: f64) -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = run_seconds;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{USAGE}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let spec = BenchSpec::load()?;
    let args = parse_args(spec.run_seconds)?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let map = LayerMap::load(&spec)?;
    let provenance = Provenance::collect(&args.workload, args.seed, args.seconds, args.trace);
    println!(
        "e2ebench: {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let line: Vec<String> = provenance
        .0
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("provenance: {}", line.join(" | "));

    let result = match (args.workload.as_str(), args.trace) {
        ("ieci-long", false) => ieci::untraced(args.seed, args.seconds),
        ("ieci-long", true) => ieci::traced(args.seed),
        ("serve-fleet", false) => serve::untraced(args.seed, args.seconds),
        ("serve-fleet", true) => serve::traced(args.seed),
        ("walk-checkpoint", false) => walk::untraced(args.seed, args.seconds),
        _ => walk::traced(args.seed),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return Ok(ExitCode::FAILURE);
        }
    };
    for line in &outcome.log {
        println!("{line}");
    }

    // The metrics of the result line, in BENCHMARK.json order.
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut table = String::new();
    if let Some(traced) = &outcome.traced {
        table = traced.table(&args.workload, &map);
        print!("{table}");
        for (m, (name, value)) in spec
            .per_layer
            .iter()
            .zip(traced.per_layer(&spec.per_layer)?)
        {
            metrics.push((name, value, m.unit.clone()));
        }
    } else {
        for m in &spec.end_to_end {
            let measured = outcome
                .e2e
                .iter()
                .find(|e| e.name == m.name)
                .ok_or_else(|| format!("end-to-end metric {} is not measured", m.name))?;
            if measured.unit != m.unit {
                return Err(format!(
                    "{} is measured in {}, declared in {}",
                    m.name, measured.unit, m.unit
                ));
            }
            metrics.push((m.name.clone(), measured.value, m.unit.clone()));
        }
    }
    for m in outcome.e2e.iter().chain(&outcome.store) {
        println!(
            "  {:<18} {:>14.6} {:<5} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if outcome.traced.is_none() {
        let c = &outcome.checks;
        println!(
            "  {:<18} {:>14.6} {:<5} {} failed of {} attempted",
            "fail_frac",
            c.fail_frac(),
            "ratio",
            c.failed,
            c.attempted
        );
    }
    for failure in &outcome.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = outcome.checks.failures.is_empty() && outcome.checks.failed == 0;
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });

    let file = write_result(&args, &provenance, &outcome, &metrics, &table)?;
    println!("result file: {file}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        json_metrics(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Writes the full result, provenance included, under `e2ebench/results/`.
fn write_result(
    args: &Args,
    provenance: &Provenance,
    outcome: &Outcome,
    metrics: &[(String, f64, String)],
    table: &str,
) -> Result<String, String> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let prov: Vec<String> = provenance
        .0
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let notes: Vec<String> = outcome
        .e2e
        .iter()
        .chain(&outcome.store)
        .filter(|m| !m.note.is_empty())
        .map(|m| format!("{}: {}", json_string(m.name), json_string(&m.note)))
        .collect();
    let failures: Vec<String> = outcome
        .checks
        .failures
        .iter()
        .map(|f| json_string(f))
        .collect();
    let log: Vec<String> = outcome.log.iter().map(|l| json_string(l)).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"provenance\": {{{}}},", prov.join(", "));
    let _ = writeln!(
        out,
        "  \"metrics\": {},",
        json_metrics(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
    );
    let _ = writeln!(
        out,
        "  \"store\": {},",
        json_metrics(outcome.store.iter().map(|m| (m.name, m.value, m.unit)))
    );
    let _ = writeln!(out, "  \"notes\": {{{}}},", notes.join(", "));
    let _ = writeln!(
        out,
        "  \"checks\": {{\"attempted\": {}, \"failed\": {}, \"fail_frac\": {}, \"failures\": [{}]}},",
        outcome.checks.attempted,
        outcome.checks.failed,
        json_number(outcome.checks.fail_frac()),
        failures.join(", ")
    );
    let _ = writeln!(out, "  \"log\": [{}],", log.join(", "));
    let _ = writeln!(out, "  \"table\": {}", json_string(table));
    let _ = writeln!(out, "}}");
    let path = dir.join(&name);
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!("e2ebench/results/{name}"))
}

/// Runs every workload, each in a child process of its own (so each peak
/// RSS belongs to one workload), and merges their result lines.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        correct &= output.status.success();
        let Ok(Value::Object(members)) = golden::parse(last) else {
            correct = false;
            continue;
        };
        for (key, value) in members {
            match (key.as_str(), value) {
                ("correct", Value::Bool(ok)) => correct &= ok,
                ("attempted", Value::Number(n)) => attempted += n as u64,
                ("failed", Value::Number(n)) => failed += n as u64,
                ("metrics", Value::Object(ms)) => {
                    for (name, m) in ms {
                        let field = |k: &str| match &m {
                            Value::Object(f) => {
                                f.iter().find(|(fk, _)| fk == k).map(|(_, v)| v.clone())
                            }
                            _ => None,
                        };
                        if let (Some(Value::Number(v)), Some(Value::String(u))) =
                            (field("value"), field("unit"))
                        {
                            merged.push(format!(
                                "{}: {{\"value\": {}, \"unit\": {}}}",
                                json_string(&format!("{workload}/{name}")),
                                json_number(v),
                                json_string(&u)
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        merged.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

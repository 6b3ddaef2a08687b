//! Turning a workload's measurements into the result: per-layer metrics,
//! the per-layer table, provenance and the JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hyperpower::golden::{self, Value};
use hyperpower::{SampleKind, Trace};

use crate::common::{bench_dir, Checks, Metric};
use crate::trace::{Layer, Tracer};

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The end-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Store-level metrics of the workloads that have a store; printed and
    /// kept in the result file.
    pub store: Vec<Metric>,
    pub checks: Checks,
    pub log: Vec<String>,
    /// The spans and counts of a traced run.
    pub traced: Option<Traced>,
}

/// One timed phase of a traced run: its spans and its wall time.
#[derive(Debug)]
pub struct Section {
    pub title: String,
    pub tracer: Tracer,
    pub wall_s: f64,
}

/// The measurements of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// The timed phases, in the order they ran.
    pub sections: Vec<Section>,
    /// Spans outside the timed phases: setup, and the post-run
    /// re-invocations of the GP, parse and load layers.
    pub post: Tracer,
    /// Traced time over untraced time of the same work, minus 1.
    pub overhead_frac: f64,
    /// Metrics measured directly rather than from spans.
    pub direct: BTreeMap<&'static str, f64>,
    queried: usize,
    evaluated: usize,
}

fn busy(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.busy_s)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Traced {
    /// `traced_s` and `untraced_s` time the same work with tracing on and
    /// off.
    pub fn new(post: Tracer, traced_s: f64, untraced_s: f64) -> Self {
        Traced {
            sections: Vec::new(),
            post,
            overhead_frac: ratio(traced_s, untraced_s) - 1.0,
            direct: BTreeMap::new(),
            queried: 0,
            evaluated: 0,
        }
    }

    pub fn section(&mut self, title: impl Into<String>, tracer: Tracer, wall_s: f64) {
        self.sections.push(Section {
            title: title.into(),
            tracer,
            wall_s,
        });
    }

    /// Adds one traced study's screening and lease counts.
    pub fn add_trace_counts(&mut self, trace: &Trace) {
        let rejected = trace
            .samples
            .iter()
            .filter(|s| s.kind == SampleKind::Rejected)
            .count();
        *self.direct.entry("constraints.rejected").or_insert(0.0) += rejected as f64;
        *self.direct.entry("study.reclaimed").or_insert(0.0) += trace.reclaimed_count() as f64;
        *self.direct.entry("study.hedged").or_insert(0.0) += trace.hedged_count() as f64;
        self.queried += trace.queried();
        self.evaluated += trace.evaluations();
        self.direct.insert(
            "constraints.useful_ratio",
            ratio(self.evaluated as f64, self.queried as f64),
        );
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.direct.insert(name, value);
    }

    /// The value of per-layer metric `name`, or `None` for a name this
    /// benchmark does not know.
    fn value(
        &self,
        name: &str,
        timed: &BTreeMap<&'static str, Layer>,
        post: &BTreeMap<&'static str, Layer>,
        counters: &BTreeMap<&'static str, f64>,
    ) -> Option<f64> {
        if let Some(v) = self.direct.get(name).or_else(|| counters.get(name)) {
            return Some(*v);
        }
        let parse_rate = |part: &str| {
            let bytes = counters
                .get(format!("golden.parse.{part}.bytes").as_str())
                .copied()
                .unwrap_or(0.0);
            ratio(bytes / 1e6, busy(post, &format!("golden.parse.{part}")))
        };
        let v = match name {
            "scenario.session_new_s" => busy(post, "scenario.session_new"),
            "gp.fit.share" => ratio(busy(post, "gp.fit"), busy(timed, "methods.propose")),
            "golden.parse.busy_s" => {
                busy(post, "golden.parse.half") + busy(post, "golden.parse.full")
            }
            "golden.parse.mb_per_s_half" => parse_rate("half"),
            "golden.parse.mb_per_s_full" => parse_rate("full"),
            "trace.overhead_frac" => self.overhead_frac,
            _ => {
                let (layer, stat) = name.rsplit_once('.')?;
                let empty = Layer::default();
                let l = timed
                    .get(layer)
                    .or_else(|| post.get(layer))
                    .unwrap_or(&empty);
                match stat {
                    "calls" => l.calls as f64,
                    "busy_s" => l.busy_s,
                    "self_s" => l.self_s,
                    "p50_ms" => l.durations.median() * 1e3,
                    "tail_ms" => l.durations.tail().value_s * 1e3,
                    // Counters that never fired on this workload.
                    "bytes" | "rungs" | "degradations" | "leases" | "refused" | "rejected"
                    | "useful_ratio" | "reclaimed" | "hedged" | "records" | "defects"
                    | "recover_s" | "fsck_s" | "bytes_per_commit" => 0.0,
                    _ => return None,
                }
            }
        };
        Some(v)
    }

    /// Every per-layer metric `spec` lists, by name. A layer timed in more
    /// than one section is taken from the first.
    pub fn per_layer(&self, spec: &[MetricSpec]) -> Result<Vec<(String, f64)>, String> {
        let mut timed: BTreeMap<&'static str, Layer> = BTreeMap::new();
        let mut counters = self.post.counters();
        for section in &self.sections {
            for (name, layer) in section.tracer.layers() {
                timed.entry(name).or_insert(layer);
            }
            for (k, v) in section.tracer.counters() {
                *counters.entry(k).or_insert(0.0) += v;
            }
        }
        let post = self.post.layers();
        spec.iter()
            .map(|m| {
                self.value(&m.name, &timed, &post, &counters)
                    .map(|v| (m.name.clone(), v))
                    .ok_or_else(|| format!("per-layer metric {} is not measured", m.name))
            })
            .collect()
    }

    /// The per-layer table: for each timed section, every layer's self
    /// time, calls and share of the section's traced wall time, and the
    /// unattributed remainder; then the layers run outside the timed
    /// sections, each against the timed layer it runs inside.
    pub fn table(&self, workload: &str, map: &LayerMap) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-layer table: {workload} (trace.overhead_frac {:.4})",
            self.overhead_frac
        );
        let mut all_timed: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for section in &self.sections {
            let layers = section.tracer.layers();
            let _ = writeln!(
                out,
                "  [{}] traced wall {:.4} s, {} requests",
                section.title,
                section.wall_s,
                section.tracer.requests()
            );
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>9} {:>7} {:>9} {:>9}  {:<17} should move",
                "layer", "calls", "self_s", "share", "busy_s", "p50_ms", "module"
            );
            let mut rows: Vec<(&&str, &Layer)> = layers.iter().collect();
            rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
            let mut attributed = 0.0;
            for (name, l) in rows {
                attributed += l.self_s;
                let entry = map.get(name);
                let _ = writeln!(
                    out,
                    "  {:<20} {:>7} {:>9.4} {:>6.2}% {:>9.4} {:>9.4}  {:<17} {}",
                    name,
                    l.calls,
                    l.self_s,
                    100.0 * ratio(l.self_s, section.wall_s),
                    l.busy_s,
                    l.durations.median() * 1e3,
                    entry.map_or("", |e| e.module.as_str()),
                    entry.map_or(String::new(), |e| e.moves.join(", ")),
                );
            }
            let rest = section.wall_s - attributed;
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>9.4} {:>6.2}%  (benchmark loop; calls outside any span)",
                "(unattributed)",
                "",
                rest,
                100.0 * ratio(rest, section.wall_s),
            );
            for (name, layer) in layers {
                all_timed.entry(name).or_insert(layer);
            }
        }
        let post = self.post.layers();
        if !post.is_empty() {
            let _ = writeln!(
                out,
                "  [outside the timed sections: setup and post-run re-invocations; a share is\n   \
                 their busy time over the busy time of the timed layer they replay, taken in\n   \
                 separate passes, so it can exceed 100%]"
            );
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>9} {:>8}  {:<16} {:<17} should move",
                "layer", "calls", "busy_s", "share", "within", "module"
            );
            for (name, l) in &post {
                let entry = map.get(name);
                let within = entry
                    .and_then(|e| e.within.iter().find(|w| all_timed.contains_key(w.as_str())))
                    .map_or("", String::as_str);
                let share = if within.is_empty() {
                    String::from("-")
                } else {
                    format!("{:.2}%", 100.0 * ratio(l.busy_s, busy(&all_timed, within)))
                };
                let _ = writeln!(
                    out,
                    "  {:<20} {:>7} {:>9.4} {:>8}  {:<16} {:<17} {}",
                    name,
                    l.calls,
                    l.busy_s,
                    share,
                    if within.is_empty() { "-" } else { within },
                    entry.map_or("", |e| e.module.as_str()),
                    entry.map_or(String::new(), |e| e.moves.join(", ")),
                );
            }
        }
        out
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug)]
pub struct BenchSpec {
    /// How long one untraced run measures, in seconds.
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn member<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn string(v: Option<&Value>) -> Option<String> {
    match v {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn array<'a>(v: Option<&'a Value>, what: &str) -> Result<&'a [Value], String> {
    match v {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("{what} is not an array")),
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    golden::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

impl BenchSpec {
    pub fn load() -> Result<Self, String> {
        let root = read_json(&bench_dir().join("../BENCHMARK.json"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(member(&root, key), key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: string(member(m, "name")).ok_or("metric without a name")?,
                        unit: string(member(m, "unit")).ok_or("metric without a unit")?,
                    })
                })
                .collect()
        };
        let run_seconds = match member(&root, "run_seconds") {
            Some(Value::Number(n)) if *n > 0.0 => *n,
            _ => return Err("BENCHMARK.json: run_seconds is not a positive number".into()),
        };
        Ok(BenchSpec {
            run_seconds,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Where a traced layer sits and which metrics it should move.
#[derive(Debug, Clone)]
pub struct LayerEntry {
    pub module: String,
    /// For a layer re-invoked after the run: the timed layers it can run
    /// inside; the first one the workload timed is its parent.
    pub within: Vec<String>,
    pub moves: Vec<String>,
}

/// End-to-end figures the untraced run prints and records but does not
/// gate. Wall-time throughput and the latencies drift too far between runs
/// on a shared machine to gate (see the README); the others exist on some
/// workloads only.
pub const REPORTED_UNGATED: [&str; 9] = [
    "commits_per_s",
    "ask_p50_ms",
    "ask_tail_ms",
    "tell_p50_ms",
    "tell_tail_ms",
    "recover_s",
    "fsck_s",
    "bytes_per_commit",
    "fail_frac",
];

/// `layers.json`: span name → module, parent and the metrics it should
/// move. Every metric named there must be declared in `BENCHMARK.json` or
/// be one of [`REPORTED_UNGATED`].
#[derive(Debug)]
pub struct LayerMap(BTreeMap<String, LayerEntry>);

impl LayerMap {
    pub fn load(spec: &BenchSpec) -> Result<Self, String> {
        let root = read_json(&bench_dir().join("layers.json"))?;
        let declared: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(REPORTED_UNGATED)
            .collect();
        let mut out = BTreeMap::new();
        for entry in array(member(&root, "layers"), "layers")? {
            let span = string(member(entry, "span")).ok_or("layer without a span")?;
            let moves = array(member(entry, "moves"), "moves")?
                .iter()
                .map(|m| string(Some(m)).ok_or("non-string metric name"))
                .collect::<Result<Vec<_>, _>>()?;
            if let Some(unknown) = moves.iter().find(|m| !declared.contains(&m.as_str())) {
                return Err(format!(
                    "layers.json: {span} moves undeclared metric {unknown}"
                ));
            }
            out.insert(
                span,
                LayerEntry {
                    module: string(member(entry, "module")).unwrap_or_default(),
                    within: array(member(entry, "within"), "within")?
                        .iter()
                        .filter_map(|w| string(Some(w)))
                        .collect(),
                    moves,
                },
            );
        }
        Ok(LayerMap(out))
    }

    fn get(&self, span: &str) -> Option<&LayerEntry> {
        self.0.get(span)
    }
}

/// Where and how the numbers were taken.
#[derive(Debug)]
pub struct Provenance(pub Vec<(&'static str, String)>);

impl Provenance {
    pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let config_cpu = std::fs::read_to_string(bench_dir().join("../.cargo/config.toml"))
            .ok()
            .and_then(|t| {
                let at = t.find("target-cpu=")?;
                let rest = &t[at + "target-cpu=".len()..];
                Some(
                    rest.split(|c: char| c == '"' || c.is_whitespace())
                        .next()?
                        .to_string(),
                )
            })
            .unwrap_or_else(|| "none".into());
        Provenance(vec![
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", u8::from(trace).to_string()),
            ("nproc", nproc.to_string()),
            ("cpu_model", cpu),
            ("rustc", env!("E2E_RUSTC_VERSION").to_string()),
            ("profile", env!("E2E_PROFILE").to_string()),
            ("rustflags", env!("E2E_RUSTFLAGS").to_string()),
            ("config_target_cpu", config_cpu),
            ("git_commit", git_commit()),
        ])
    }
}

/// The checkout's HEAD commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A number as JSON: every digit of a finite value, 0 otherwise.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `(name, value, unit)`.
pub fn json_metrics<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

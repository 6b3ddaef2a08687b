//! Pieces every workload shares: seeds, the closed ask–evaluate–tell loop,
//! output checks, metrics and process counters.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hyperpower::{NullSink, Objective, ObservationSink, SearchSpace, Study};
use hyperpower_gpu_sim::Gpu;

use crate::stats::{Samples, Tail};
use crate::trace::Tracer;

/// A derived seed: SplitMix64 of `seed` salted by `salt`, so every input of
/// a workload is a pure function of the `--seed` argument.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the offline profiling session every workload fits its power
/// and memory models with. The profiled models stand for the platform,
/// which the benchmark holds fixed; the workload seed draws the runs on
/// it. (Another profile changes how much screening rejects, and that would
/// swamp the timings.)
pub const PROFILE_SEED: u64 = 42;

/// Set-ups behind each `setup_s` median. One takes about a millisecond.
pub const SETUP_REPS: usize = 100;

/// Operations attempted and failed, plus the output checks that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation (ask, tell, reopen, resume).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check, remembering what failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was taken (sample count, percentile), for the log.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }
}

/// The machine's pace: how long a fixed piece of reference work takes
/// right now.
///
/// The machine is shared, and its speed drifts by 20–40% over seconds to
/// minutes; processor time drifts with wall time, since the slowdown comes
/// from the host, not from waiting for a processor. A paced loop times one
/// reference chunk every [`PACE_EVERY_S`] between its operations, outside
/// every timed interval, and each gated time is scaled by
/// [`PACE_NOMINAL_S`] ÷ (median chunk time over the run). A gated time
/// thus reads in seconds at a fixed machine speed; the reference work is
/// the benchmark's own code, so no change to the program moves it.
#[derive(Debug, Default)]
pub struct Pace {
    on: bool,
    last: Option<Instant>,
    samples: Vec<f64>,
    /// Seconds spent on reference chunks, which loops leave out of their
    /// wall time.
    pub spent_s: f64,
}

/// Seconds one reference chunk takes at nominal pace: about its median on
/// the machine the bounds were set on (2-core Intel Xeon,
/// `target-cpu=x86-64-v3`).
pub const PACE_NOMINAL_S: f64 = 0.002;

/// A paced loop times a reference chunk at least this often.
const PACE_EVERY_S: f64 = 0.1;

/// One reference chunk: a dense Cholesky factorisation, then its factor
/// formatted as text four times over and parsed back — floating-point,
/// string and allocation work like the workloads', in code of the
/// benchmark's own. `shift` (0) keeps the compiler from folding it.
fn reference_work(shift: f64) -> f64 {
    const N: usize = 48;
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            a[i * N + j] = 1.0 / (1.0 + i.abs_diff(j) as f64 + shift);
        }
        a[i * N + i] += N as f64;
    }
    for j in 0..N {
        let d = (a[j * N + j] - (0..j).map(|k| a[j * N + k] * a[j * N + k]).sum::<f64>()).sqrt();
        a[j * N + j] = d;
        for i in j + 1..N {
            let s: f64 = (0..j).map(|k| a[i * N + k] * a[j * N + k]).sum();
            a[i * N + j] = (a[i * N + j] - s) / d;
        }
    }
    let mut text = String::new();
    for rep in 1..=4 {
        for v in &a {
            let _ = writeln!(text, "{:?}", v * f64::from(rep));
        }
    }
    text.lines().filter_map(|l| l.parse::<f64>().ok()).sum()
}

impl Pace {
    /// A pace that times reference chunks.
    pub fn on() -> Self {
        Pace {
            on: true,
            ..Pace::default()
        }
    }

    /// Times one reference chunk if the last is [`PACE_EVERY_S`] old.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PACE_EVERY_S)
        {
            self.sample();
        }
    }

    /// Times one reference chunk (a pace that is off does nothing).
    pub fn sample(&mut self) {
        if !self.on {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(reference_work(std::hint::black_box(0.0)));
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.spent_s += secs;
        self.last = Some(Instant::now());
    }

    /// Chunks timed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The scale from measured to nominal seconds:
    /// [`PACE_NOMINAL_S`] ÷ the median chunk time; 1 with no chunks.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            PACE_NOMINAL_S / crate::stats::median(&self.samples)
        }
    }
}

/// What one iteration of a loop measured.
#[derive(Debug, Clone, Copy)]
struct Iteration {
    /// Commits per second of wall time.
    commits_per_s: f64,
    /// Commits per second of the loop thread's processor time: the wall
    /// time less what the thread spent waiting, mostly for the disk.
    commits_per_cpu_s: f64,
    ask_p50_s: f64,
    ask_tail: Tail,
    tell_p50_s: f64,
    tell_tail: Tail,
}

/// Latencies and wall time of the closed loops of one workload.
///
/// Every iteration of a run does the same work, so a run's figure is the
/// median over its iterations, however many fit. The medians are scaled
/// to nominal pace by the reference chunks timed through the whole run
/// (see [`Pace`]); the unscaled ones are printed beside them.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub asks: Samples,
    pub tells: Samples,
    pub commits: usize,
    /// Wall time of the loops, reference chunks left out.
    pub wall_s: f64,
    /// Processor time of the loops' thread, reference chunks left out.
    pub cpu_s: f64,
    pub pace: Pace,
    iterations: Vec<Iteration>,
    marks: (usize, usize, usize, f64, f64),
}

impl LoopStats {
    /// Stats of loops that time the machine's pace as they run.
    pub fn paced() -> Self {
        LoopStats {
            pace: Pace::on(),
            ..LoopStats::default()
        }
    }

    /// Processor time of the loops at nominal pace: what a traced run
    /// compares, traced against untraced, to take the tracing overhead.
    pub fn paced_cpu_s(&self) -> f64 {
        self.cpu_s * self.pace.scale()
    }

    /// Closes one iteration and takes its figures.
    pub fn end_iteration(&mut self) {
        let (asks, tells, commits, wall_s, cpu_s) = self.marks;
        let asks = self.asks.since(asks);
        let tells = self.tells.since(tells);
        let commits = (self.commits - commits) as f64;
        self.iterations.push(Iteration {
            commits_per_s: commits / (self.wall_s - wall_s),
            commits_per_cpu_s: commits / (self.cpu_s - cpu_s),
            ask_p50_s: asks.median(),
            ask_tail: asks.tail(),
            tell_p50_s: tells.median(),
            tell_tail: tells.tail(),
        });
        self.marks = (
            self.asks.len(),
            self.tells.len(),
            self.commits,
            self.wall_s,
            self.cpu_s,
        );
    }

    /// The latency metrics every workload reports: the median over the
    /// run's iterations, at nominal pace.
    pub fn latency_metrics(&self) -> Vec<Metric> {
        let n = self.iterations.len();
        let scale = self.pace.scale();
        let med = |f: &dyn Fn(&Iteration) -> f64| {
            crate::stats::median(&self.iterations.iter().map(f).collect::<Vec<_>>())
        };
        // A time in milliseconds at nominal pace, with its unscaled value.
        let time = |name: &'static str, f: &dyn Fn(&Iteration) -> f64, how: String| {
            let raw = med(f) * 1e3;
            let mut m = Metric::new(name, raw * scale, "ms");
            m.note = format!("{how}; unscaled {raw:.6}");
            m
        };
        let tail = |name: &'static str, f: fn(&Iteration) -> Tail| {
            let (p, per) = self
                .iterations
                .first()
                .map_or((50.0, 0), |i| (f(i).percentile, f(i).n));
            let how = format!("p{p} of n={per} per iteration, median of {n}");
            time(name, &|i| f(i).value_s, how)
        };
        let every = || format!("median of {n} iteration(s)");
        // A rate at nominal pace, with its unscaled value.
        let rate = |name: &'static str, f: &dyn Fn(&Iteration) -> f64| {
            let raw = med(f);
            let mut m = Metric::new(name, raw / scale, "1/s");
            m.note = format!("{}; unscaled {raw:.6}", every());
            m
        };
        let mut per_cpu = rate("commits_per_cpu_s", &|i| i.commits_per_cpu_s);
        per_cpu.note += &format!("; pace scale {scale:.4} over {} chunks", self.pace.len());
        vec![
            per_cpu,
            rate("commits_per_s", &|i| i.commits_per_s),
            time("ask_p50_ms", &|i| i.ask_p50_s, every()),
            tail("ask_tail_ms", |i| i.ask_tail),
            time("tell_p50_ms", &|i| i.tell_p50_s, every()),
            tail("tell_tail_ms", |i| i.tell_tail),
        ]
    }
}

/// Drives one study to completion the way `hyperpower run` does: one
/// caller loops ask(1) → evaluate → tell, each call waiting for the last.
/// Every ask and tell is timed into `stats`, whose pace ticks between
/// them; spans go to `tracer`.
#[allow(clippy::too_many_arguments)]
pub fn run_loop<S: ObservationSink>(
    study: &mut Study,
    space: &SearchSpace,
    gpu: &mut Gpu,
    objective: &dyn Objective,
    mut sink: Option<&mut S>,
    tracer: &Tracer,
    stats: &mut LoopStats,
    checks: &mut Checks,
) -> Result<(), String> {
    let early = study.early_termination();
    let start = Instant::now();
    let (before, paced_s, cpu) = (study.committed(), stats.pace.spent_s, thread_cpu_s());
    loop {
        stats.pace.tick();
        tracer.next_request();
        let t = Instant::now();
        let asked = tracer.span("study.ask", || {
            study.ask(space, gpu, 1, 0.0, sink.as_deref_mut())
        });
        stats.asks.push(t.elapsed().as_secs_f64());
        checks.op(asked.is_ok());
        let batch = asked.map_err(|e| format!("ask failed: {e}"))?;
        tracer.count("study.leases", batch.len() as f64);
        if batch.is_empty() {
            break;
        }
        for candidate in batch {
            let result = objective
                .evaluate(&candidate.decoded, early.as_ref(), candidate.eval_seed)
                .map_err(|e| format!("evaluation failed: {e}"))?;
            let t = Instant::now();
            let told = tracer.span("study.tell", || {
                study.tell(gpu, candidate.lease_id, &result, sink.as_deref_mut())
            });
            stats.tells.push(t.elapsed().as_secs_f64());
            checks.op(told.is_ok());
            told.map_err(|e| format!("tell failed: {e}"))?;
        }
    }
    let paced = stats.pace.spent_s - paced_s;
    stats.wall_s += start.elapsed().as_secs_f64() - paced;
    stats.cpu_s += thread_cpu_s() - cpu - paced;
    stats.commits += study.committed() - before;
    Ok(())
}

/// The sink type of a loop without durability.
pub const NO_SINK: Option<&mut NullSink> = None;

/// Whether the traced pass runs first in round `round` of a traced run's
/// overhead measurement: the order alternates, so that neither side always
/// runs on a machine the other has just warmed or loaded.
pub fn traced_first(round: usize) -> bool {
    round % 2 == 1
}

/// `struct timespec` as Linux's C library lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's clock of the calling thread's processor time.
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

/// Processor time of the calling thread so far, in seconds, to the
/// nanosecond. (`/proc/thread-self/schedstat` only moves at scheduler
/// ticks, too coarse for a set-up of a millisecond.)
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Bytes this process has written so far (`wchar` of `/proc/self/io`).
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The benchmark package directory (inside the checkout it was built in).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory inside the checkout, removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let path = bench_dir()
            .join("work")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leave no empty parent behind either.
        if let Some(parent) = self.path.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Set-up time: the median over `reps` runs of `f` of the processor time
/// it takes, at nominal pace (a reference chunk is timed after each run;
/// see [`Pace`]). Returns the last run's value alongside.
pub fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut pace = Pace::on();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let cpu = thread_cpu_s();
        last = Some(f()?);
        times.push(thread_cpu_s() - cpu);
        pace.sample();
    }
    let value = last.ok_or("setup ran zero times")?;
    Ok((crate::stats::median(&times) * pace.scale(), value))
}

/// Repeats `iteration` until the next one would likely overrun `seconds`
/// (at least once), closing each in `stats`; returns how many ran. Every
/// iteration must do the same work, so that how many fit changes no
/// figure's expected value.
pub fn repeat_for(
    seconds: f64,
    stats: &mut LoopStats,
    mut iteration: impl FnMut(usize, &mut LoopStats) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        iteration(done, stats)?;
        stats.end_iteration();
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / done as f64 > seconds {
            return Ok(done);
        }
    }
}

//! `walk-checkpoint`: a long Rand-Walk run on cifar-gtx, checkpointed on
//! every commit, then resumed from that checkpoint to completion.
//!
//! `core::checkpoint` rewrites the whole trace on every commit, which is
//! nearly all of this run; no GP runs, so a GP gain must show no change.

use std::path::Path;
use std::time::Instant;

use hyperpower::checkpoint::{CheckpointHeader, CheckpointSink, RunCheckpoint};
use hyperpower::driver::RunSetup;
use hyperpower::executor::run_optimization_with;
use hyperpower::golden::{self, encode_trace};
use hyperpower::methods::{RandomWalk, Searcher};
use hyperpower::{
    Budgets, CheckpointConfig, ConstraintOracle, ExecutorOptions, Method, Mode, Scenario, Session,
    Study, StudySpec, Trace,
};

use crate::common::{
    bytes_written, derive, median_setup, peak_rss_mib, repeat_for, run_loop, thread_cpu_s,
    traced_first, Checks, LoopStats, Metric, WorkDir, NO_SINK, PROFILE_SEED, SETUP_REPS,
};
use crate::ieci::{gpu, objective, spec};
use crate::report::{Outcome, Traced};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrap::{CachedObjective, SinkKind, TimingObjective, TimingSearcher, TimingSink};

/// Evaluation budget of every checkpointed run. Half the thousand of the
/// motivating measurement: a 1000-evaluation run rewrites ~300 MB of
/// checkpoint, and this filesystem pushes every rewrite to the (shared)
/// disk, whose stalls then swamp the figures. 500 evaluations write a
/// quarter of that and still spend nearly all their time rewriting.
const EVALS: usize = 500;

/// Untraced and traced passes the traced run alternates to take the
/// tracing overhead: one pass is about a second, and the machine's speed
/// drifts from one to the next.
const OVERHEAD_ROUNDS: usize = 5;

/// The run seed of the checkpointed run.
fn run_seed(seed: u64) -> u64 {
    derive(seed, 0x3A1C_0002)
}

/// The spec of one run: Rand-Walk in HyperPower mode (screening and early
/// termination on) under the unconstrained budgets `hyperpower serve`
/// defaults to. Screening then rejects nothing, so every run commits
/// exactly [`EVALS`] samples and the checkpoint grows the same way on
/// every seed. (Under the scenario's budgets a 1000-evaluation run commits
/// anywhere from ~1000 to ~2700 samples, and a whole-trace rewrite per
/// commit makes the cost grow with the square of that.)
fn walk_spec(session: &Session, seed: u64) -> StudySpec {
    StudySpec {
        budgets: Budgets::default(),
        ..spec(session, Method::RandWalk, Mode::HyperPower, EVALS, seed)
    }
}

/// The session's fitted models under the same unconstrained budgets.
fn walk_oracle(session: &Session) -> ConstraintOracle {
    ConstraintOracle::new(session.models().clone(), Budgets::default())
}

/// The checkpoint identity the executor writes for this spec with default
/// options.
pub fn header(spec: &StudySpec) -> CheckpointHeader {
    CheckpointHeader {
        seed: spec.seed,
        method: spec.method.to_string(),
        mode: spec.mode.to_string(),
        budget: spec.budget,
        simulated_gpus: 1,
        fault_profile: spec.fault_profile.name.clone(),
        max_retries: spec.retry.max_retries,
        recalibrate: spec.drift.recalibrate,
        drift_threshold: spec.drift.drift_threshold,
        safety_margin: spec.drift.safety_margin,
    }
}

fn session() -> Result<Session, String> {
    Session::new(Scenario::cifar10_gtx1070(), PROFILE_SEED).map_err(|e| e.to_string())
}

fn new_study(session: &Session, seed: u64, tracer: &Tracer) -> Study {
    let searcher = tracer.enabled().then(|| {
        Box::new(TimingSearcher::new(
            Box::new(RandomWalk::default()),
            tracer.clone(),
        )) as Box<dyn Searcher>
    });
    Study::new(
        walk_spec(session, seed),
        Some(&walk_oracle(session)),
        searcher,
    )
}

/// What one checkpointed run and its resume produced.
struct Pass {
    trace: Trace,
    resumed: Trace,
    bytes: u64,
    recover_s: f64,
    /// The checkpoint file at half and full run length (traced runs only).
    bodies: Option<(String, String)>,
}

/// Runs the checkpointed search into `path`, then resumes from the
/// checkpoint as `hyperpower run --resume` does: load, verify the header,
/// re-run with the cached evaluations, verify the prefix.
fn pass(
    session: &Session,
    seed: u64,
    path: &Path,
    tracer: &Tracer,
    capture_half_at: Option<usize>,
    stats: &mut LoopStats,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let objective = objective(session);
    let space = &session.scenario().space;
    let mut study = new_study(session, seed, tracer);
    let header = header(study.spec());
    let before = bytes_written();
    let sink = CheckpointSink::new(CheckpointConfig::every_commit(path), &header);
    let mut sink = TimingSink::new(
        sink,
        tracer.clone(),
        SinkKind::Checkpoint {
            path: path.to_path_buf(),
        },
    );
    sink.capture_at = capture_half_at;
    let mut gpu = gpu(session, seed);
    let timed = TimingObjective {
        inner: &objective,
        tracer: tracer.clone(),
    };
    if tracer.enabled() {
        run_loop(
            &mut study,
            space,
            &mut gpu,
            &timed,
            Some(&mut sink),
            tracer,
            stats,
            checks,
        )?;
    } else {
        run_loop(
            &mut study,
            space,
            &mut gpu,
            &objective,
            Some(&mut sink.inner),
            tracer,
            stats,
            checks,
        )?;
    }
    let (t, cpu) = (Instant::now(), thread_cpu_s());
    let flushed = tracer.span("checkpoint.flush", || sink.inner.flush());
    stats.wall_s += t.elapsed().as_secs_f64();
    stats.cpu_s += thread_cpu_s() - cpu;
    checks.op(flushed.is_ok());
    flushed.map_err(|e| format!("checkpoint flush failed: {e}"))?;
    let bytes = bytes_written() - before;
    let trace = study.into_trace();

    let t = Instant::now();
    let loaded = tracer.span("checkpoint.load", || RunCheckpoint::load(path));
    checks.op(loaded.is_ok());
    let checkpoint = loaded.map_err(|e| format!("checkpoint load failed: {e}"))?;
    checks.op(checkpoint.verify_header(&header).is_ok());
    let cached = CachedObjective {
        inner: &objective,
        cache: &checkpoint.evals,
    };
    let timed_cached = TimingObjective {
        inner: &cached,
        tracer: tracer.clone(),
    };
    let mut resumed_study = new_study(session, seed, tracer);
    let mut resumed_gpu = crate::ieci::gpu(session, seed);
    let mut resume_stats = LoopStats::default();
    run_loop(
        &mut resumed_study,
        space,
        &mut resumed_gpu,
        if tracer.enabled() {
            &timed_cached
        } else {
            &cached
        },
        NO_SINK,
        tracer,
        &mut resume_stats,
        checks,
    )?;
    let resumed = resumed_study.into_trace();
    checks.op(checkpoint.verify_prefix(&resumed.samples).is_ok());
    let recover_s = t.elapsed().as_secs_f64();

    let bodies = match (sink.captured.take(), tracer.enabled()) {
        (Some(half), true) => {
            let full = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Some((half, full))
        }
        _ => None,
    };
    Ok(Pass {
        trace,
        resumed,
        bytes,
        recover_s,
        bodies,
    })
}

fn check_outputs(p: &Pass, checks: &mut Checks) {
    checks.check(p.trace.evaluations() == EVALS, || {
        format!(
            "walk-checkpoint: {} evaluations, budget {EVALS}",
            p.trace.evaluations()
        )
    });
    checks.check(encode_trace(&p.resumed) == encode_trace(&p.trace), || {
        "walk-checkpoint: resumed trace differs from the checkpointed run".into()
    });
    checks.check(p.trace.best_feasible().is_some(), || {
        "walk-checkpoint: no feasible design".into()
    });
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let seed = run_seed(seed);
    let work = WorkDir::new("walk")?;
    let probe = work.path.join("setup.ckpt");
    let (setup_s, session) = median_setup(SETUP_REPS, || {
        let s = session()?;
        let study = new_study(&s, seed, &Tracer::off());
        std::hint::black_box(CheckpointSink::new(
            CheckpointConfig::every_commit(&probe),
            &header(study.spec()),
        ));
        Ok(s)
    })?;
    let mut stats = LoopStats::paced();
    let mut checks = Checks::default();
    let mut recover = Vec::new();
    let mut bytes = 0u64;
    let mut first: Option<(String, f64)> = None;
    let off = Tracer::off();
    // Every iteration repeats the same checkpointed run and resume; each
    // must give the same trace.
    let iterations = repeat_for(seconds, &mut stats, |i, stats| {
        let path = work.path.join(format!("run{i}.ckpt"));
        let p = pass(&session, seed, &path, &off, None, stats, &mut checks)?;
        std::fs::remove_file(&path).ok();
        recover.push(p.recover_s);
        bytes += p.bytes;
        check_outputs(&p, &mut checks);
        let encoded = encode_trace(&p.trace);
        match &first {
            None => {
                let best = p
                    .trace
                    .best_feasible()
                    .map_or(f64::NAN, |b| b.error * 100.0);
                first = Some((encoded, best));
            }
            Some((reference, _)) => checks.check(*reference == encoded, || {
                "walk-checkpoint: a repeated run gave another trace".into()
            }),
        }
        Ok(())
    })?;
    let best_error_pct = first.map_or(f64::NAN, |(_, best)| best);
    let mut e2e = vec![Metric::new("setup_s", setup_s, "s")];
    e2e.extend(stats.latency_metrics());
    e2e.push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"));
    e2e.push(Metric::new("best_error_pct", best_error_pct, "%"));
    let mut recover_s = Metric::new("recover_s", median(&recover), "s");
    recover_s.note = format!("median of {} resume(s), unscaled", recover.len());
    Ok(Outcome {
        e2e,
        store: vec![
            recover_s,
            Metric::new("bytes_per_commit", bytes as f64 / stats.commits as f64, "B"),
        ],
        checks,
        log: vec![format!(
            "walk-checkpoint: {iterations} repeat(s) of one checkpointed run of {EVALS} evaluations, {} commits each",
            stats.commits / iterations
        )],
        traced: None,
    })
}

pub fn traced(seed: u64) -> Result<Outcome, String> {
    let seed = run_seed(seed);
    let work = WorkDir::new("walk-traced")?;
    let run = Tracer::on();
    let post = Tracer::on();
    let mut checks = Checks::default();
    let session = post.span("scenario.session_new", session)?;

    // The product path first: the executor behind `hyperpower run`, with
    // `--checkpoint`, then with `--resume`. It also warms the process up.
    let product_path = work.path.join("product.ckpt");
    let product_run = |options: &ExecutorOptions| {
        let objective = objective(&session);
        let mut gpu = gpu(&session, seed);
        let spec = walk_spec(&session, seed);
        let oracle = walk_oracle(&session);
        run_optimization_with(
            RunSetup {
                space: &session.scenario().space,
                objective: &objective,
                gpu: &mut gpu,
                budgets: spec.budgets,
                oracle: Some(&oracle),
                early_termination: spec.early_termination,
                cost: spec.cost,
                method: spec.method,
                mode: spec.mode,
                budget: spec.budget,
                seed,
                searcher_override: None,
            },
            options,
        )
        .map_err(|e| e.to_string())
    };
    let options = ExecutorOptions::default();
    let product = product_run(
        &options
            .clone()
            .with_checkpoint(CheckpointConfig::every_commit(&product_path)),
    )?;
    let product_resumed = product_run(&options.with_resume_from(&product_path))?;
    // Untraced and traced passes alternate OVERHEAD_ROUNDS times, in
    // alternating order; the tracing overhead is the ratio of the median
    // processor times of their checkpointed runs at nominal pace. The
    // first traced pass gives the table. Every pass must give the product
    // run's trace.
    let bytes = encode_trace(&product);
    checks.check(encode_trace(&product_resumed) == bytes, || {
        "walk-checkpoint: the product resume differs from the product run".into()
    });
    let (mut plain_times, mut traced_times) = (Vec::new(), Vec::new());
    let mut first = None;
    for round in 0..OVERHEAD_ROUNDS {
        for traced in [traced_first(round), !traced_first(round)] {
            let tracer = match (traced, round) {
                (false, _) => Tracer::off(),
                (true, 0) => run.clone(),
                (true, _) => Tracer::on(),
            };
            let path = work
                .path
                .join(if traced { "traced.ckpt" } else { "plain.ckpt" });
            let mut stats = LoopStats::paced();
            let t = Instant::now();
            let p = pass(
                &session,
                seed,
                &path,
                &tracer,
                traced.then_some(EVALS / 2),
                &mut stats,
                &mut checks,
            )?;
            let wall_s = t.elapsed().as_secs_f64() - stats.pace.spent_s;
            std::fs::remove_file(&path).ok();
            for (label, trace) in [("run", &p.trace), ("resume", &p.resumed)] {
                checks.check(encode_trace(trace) == bytes, || {
                    format!("walk-checkpoint: the benchmark's {label} differs from the product run")
                });
            }
            if !traced {
                plain_times.push(stats.paced_cpu_s());
                continue;
            }
            traced_times.push(stats.paced_cpu_s());
            if round == 0 {
                first = Some((p, stats, wall_s));
            }
        }
    }
    let (p, stats, wall_s) = first.ok_or("no traced pass ran")?;
    check_outputs(&p, &mut checks);

    let (half_text, full_text) = p.bodies.clone().ok_or("no checkpoint captured")?;
    for (part, text) in [("half", &half_text), ("full", &full_text)] {
        parse_body(&post, part, text)?;
    }
    let mut traced = Traced::new(post, median(&traced_times), median(&plain_times));
    traced.section(
        format!(
            "checkpointed Rand-Walk run and resume, {} commits",
            stats.commits
        ),
        run,
        wall_s,
    );
    traced.add_trace_counts(&p.trace);
    traced.set("store.recover_s", p.recover_s);
    traced.set(
        "store.bytes_per_commit",
        p.bytes as f64 / stats.commits as f64,
    );
    Ok(Outcome {
        e2e: Vec::new(),
        store: Vec::new(),
        checks,
        log: vec![format!(
            "walk-checkpoint: traced checkpointed run and resume, {} commits",
            stats.commits
        )],
        traced: Some(traced),
    })
}

/// Parses a checkpoint or snapshot body (the text after its integrity
/// frame line) in a `golden.parse.<part>` span, counting its bytes.
pub fn parse_body(tracer: &Tracer, part: &'static str, text: &str) -> Result<(), String> {
    let body = match text.strip_prefix("C ") {
        Some(rest) => rest.split_once('\n').map_or("", |(_, body)| body),
        None => text,
    };
    let (span, counter) = match part {
        "half" => ("golden.parse.half", "golden.parse.half.bytes"),
        _ => ("golden.parse.full", "golden.parse.full.bytes"),
    };
    let parsed = tracer.span(span, || golden::parse(body));
    tracer.count(counter, body.len() as f64);
    parsed
        .map(|_| ())
        .map_err(|e| format!("golden parse failed: {e}"))
}

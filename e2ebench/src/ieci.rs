//! `ieci-long`: one long HW-IECI search on cifar-gtx, no durability.
//!
//! The GP hyper-parameter fit dominates every proposal and grows faster
//! than n³, so `gp` and `methods` do nearly all the work here.

use hyperpower::golden::encode_trace;
use hyperpower::methods::{BoSearcher, ConstraintWeighting, Searcher};
use hyperpower::objective::SimulatedObjective;
use hyperpower::{
    Budget, DriftConfig, EarlyTermination, ExecutorOptions, Method, Mode, RetryPolicy, SampleKind,
    Scenario, Session, Study, StudySpec, Trace,
};
use hyperpower_gpu_sim::{FaultProfile, Gpu, TrainingCostModel};
use hyperpower_nn::sim::TrainingSimulator;
use std::sync::{Arc, Mutex};

use crate::common::{
    derive, median_setup, peak_rss_mib, repeat_for, run_loop, traced_first, Checks, LoopStats,
    Metric, NO_SINK, PROFILE_SEED, SETUP_REPS,
};
use crate::report::{Outcome, Traced};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrap::{replay_gp, FitInput, TimingObjective, TimingSearcher};

/// Evaluation budget: ~2.6× the paper's 58, where the fit cost shows.
pub const EVALS: usize = 150;

/// Untraced and traced searches the traced run alternates to take the
/// tracing overhead. One search takes several seconds, so two of each
/// keep the traced run well inside its time limit.
const OVERHEAD_ROUNDS: usize = 2;

/// The session seed, and the run seed of the search.
fn seeds(seed: u64) -> (u64, u64) {
    (PROFILE_SEED, derive(seed, 0x1EC1_0002))
}

/// The spec `Session::run_seeded_with` builds with default executor
/// options (HyperPower mode adds early termination).
pub fn spec(
    session: &Session,
    method: Method,
    mode: Mode,
    evals: usize,
    run_seed: u64,
) -> StudySpec {
    StudySpec {
        method,
        mode,
        budget: Budget::Evaluations(evals),
        seed: run_seed,
        budgets: session.scenario().budgets,
        cost: TrainingCostModel::default(),
        early_termination: (mode == Mode::HyperPower).then(EarlyTermination::default),
        fault_profile: FaultProfile::none(),
        retry: RetryPolicy::default(),
        drift: DriftConfig::default(),
    }
}

/// The session's simulated objective, as `Session::run_seeded_with` makes it.
pub fn objective(session: &Session) -> SimulatedObjective {
    let scenario = session.scenario();
    SimulatedObjective::new(
        TrainingSimulator::new(scenario.dataset.clone()),
        TrainingCostModel::default(),
        scenario.train_examples,
    )
}

/// The run's simulated GPU, seeded as `Session::run_seeded_with` seeds it.
pub fn gpu(session: &Session, run_seed: u64) -> Gpu {
    Gpu::new(session.scenario().device.clone(), run_seed ^ 0xDEAD_BEEF)
}

fn session(session_seed: u64) -> Result<Session, String> {
    Session::new(Scenario::cifar10_gtx1070(), session_seed).map_err(|e| e.to_string())
}

/// One full search through the benchmark's loop. With `fits`, the searcher
/// is wrapped and its GP inputs recorded.
fn search(
    session: &Session,
    run_seed: u64,
    tracer: &Tracer,
    fits: Option<Arc<Mutex<Vec<FitInput>>>>,
    stats: &mut LoopStats,
    checks: &mut Checks,
) -> Result<Trace, String> {
    let objective = objective(session);
    let timed = TimingObjective {
        inner: &objective,
        tracer: tracer.clone(),
    };
    let searcher = fits.map(|fits| {
        let inner = BoSearcher::new(
            ConstraintWeighting::Indicator,
            Some(session.oracle().clone()),
        );
        let min = inner.min_observations;
        Box::new(TimingSearcher::new(Box::new(inner), tracer.clone()).recording_fits(fits, min))
            as Box<dyn Searcher>
    });
    let traced = searcher.is_some();
    let mut study = Study::new(
        spec(session, Method::HwIeci, Mode::HyperPower, EVALS, run_seed),
        Some(session.oracle()),
        searcher,
    );
    let mut gpu = gpu(session, run_seed);
    let space = &session.scenario().space;
    if traced {
        run_loop(
            &mut study, space, &mut gpu, &timed, NO_SINK, tracer, stats, checks,
        )?;
    } else {
        run_loop(
            &mut study, space, &mut gpu, &objective, NO_SINK, tracer, stats, checks,
        )?;
    }
    Ok(study.into_trace())
}

/// The output checks: budget honoured, every evaluated sample predicted
/// feasible by the session oracle, and a feasible best found.
fn check_outputs(session: &Session, trace: &Trace, checks: &mut Checks) -> f64 {
    checks.check(trace.evaluations() == EVALS, || {
        format!(
            "ieci-long: {} evaluations, budget {EVALS}",
            trace.evaluations()
        )
    });
    let space = &session.scenario().space;
    for s in trace
        .samples
        .iter()
        .filter(|s| s.kind != SampleKind::Rejected)
    {
        let feasible = space
            .structural_values(&s.config)
            .is_ok_and(|z| session.oracle().predicted_feasible(&z));
        checks.check(feasible, || {
            format!(
                "ieci-long: evaluated sample {} is predicted infeasible",
                s.index
            )
        });
    }
    let best = trace.best_feasible();
    checks.check(best.is_some(), || "ieci-long: no feasible design".into());
    best.map_or(f64::NAN, |b| b.error * 100.0)
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (session_seed, run_seed) = seeds(seed);
    let (setup_s, session) = median_setup(SETUP_REPS, || {
        let s = session(session_seed)?;
        std::hint::black_box(Study::new(
            spec(&s, Method::HwIeci, Mode::HyperPower, EVALS, run_seed),
            Some(s.oracle()),
            None,
        ));
        Ok(s)
    })?;
    let mut stats = LoopStats::paced();
    let mut checks = Checks::default();
    let mut first: Option<(String, f64)> = None;
    let off = Tracer::off();
    // Every iteration repeats the same search; each must give the same
    // trace.
    let iterations = repeat_for(seconds, &mut stats, |_, stats| {
        let trace = search(&session, run_seed, &off, None, stats, &mut checks)?;
        let best = check_outputs(&session, &trace, &mut checks);
        let bytes = encode_trace(&trace);
        match &first {
            None => first = Some((bytes, best)),
            Some((reference, _)) => checks.check(*reference == bytes, || {
                "ieci-long: a repeated search gave another trace".into()
            }),
        }
        Ok(())
    })?;
    let best_error_pct = first.map_or(f64::NAN, |(_, best)| best);
    let mut e2e = vec![Metric::new("setup_s", setup_s, "s")];
    e2e.extend(stats.latency_metrics());
    e2e.push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"));
    e2e.push(Metric::new("best_error_pct", best_error_pct, "%"));
    Ok(Outcome {
        e2e,
        store: Vec::new(),
        checks,
        log: vec![format!(
            "ieci-long: {iterations} repeat(s) of one search of {EVALS} evaluations, {} commits each",
            stats.commits / iterations
        )],
        traced: None,
    })
}

pub fn traced(seed: u64) -> Result<Outcome, String> {
    let (session_seed, run_seed) = seeds(seed);
    let run = Tracer::on();
    let post = Tracer::on();
    let mut checks = Checks::default();
    let mut session = post.span("scenario.session_new", || session(session_seed))?;

    // The product path first; it also warms the process up. Then
    // untraced and traced searches alternate OVERHEAD_ROUNDS times, in
    // alternating order; the tracing overhead is the ratio of their median
    // processor times at nominal pace. The first traced search gives the
    // table and the GP inputs to replay.
    let product = session
        .run_seeded_with(
            Method::HwIeci,
            Mode::HyperPower,
            Budget::Evaluations(EVALS),
            run_seed,
            &ExecutorOptions::default(),
        )
        .map_err(|e| e.to_string())?;
    let bytes = encode_trace(&product);
    let fits = Arc::new(Mutex::new(Vec::new()));
    let (mut plain_times, mut traced_times) = (Vec::new(), Vec::new());
    let mut first = None;
    for round in 0..OVERHEAD_ROUNDS {
        for traced in [traced_first(round), !traced_first(round)] {
            let (tracer, log) = match (traced, round) {
                (false, _) => (Tracer::off(), None),
                (true, 0) => (run.clone(), Some(fits.clone())),
                (true, _) => (Tracer::on(), Some(Arc::new(Mutex::new(Vec::new())))),
            };
            let mut stats = LoopStats::paced();
            let trace = search(&session, run_seed, &tracer, log, &mut stats, &mut checks)?;
            checks.check(encode_trace(&trace) == bytes, || {
                format!(
                    "ieci-long: the benchmark's {} search differs from Session::run_seeded_with",
                    if traced { "traced" } else { "untraced" }
                )
            });
            if !traced {
                plain_times.push(stats.paced_cpu_s());
                continue;
            }
            traced_times.push(stats.paced_cpu_s());
            if round == 0 {
                first = Some((trace, stats));
            }
        }
    }
    let (t2, stats) = first.ok_or("no traced search ran")?;
    check_outputs(&session, &t2, &mut checks);

    let fits = fits.lock().map_err(|_| "fit log poisoned")?.clone();
    replay_gp(
        &fits,
        ConstraintWeighting::Indicator,
        session.oracle(),
        &session.scenario().space,
        &post,
    )?;
    let mut traced = Traced::new(post, median(&traced_times), median(&plain_times));
    traced.section(
        format!("HW-IECI search, {} commits", stats.commits),
        run,
        stats.wall_s,
    );
    traced.add_trace_counts(&t2);
    Ok(Outcome {
        e2e: Vec::new(),
        store: Vec::new(),
        checks,
        log: vec![format!(
            "ieci-long: traced search of {EVALS} evaluations, {} GP fits replayed",
            fits.len()
        )],
        traced: Some(traced),
    })
}

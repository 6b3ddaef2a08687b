//! `serve-fleet`: one study server hosting sixteen MNIST studies, driven
//! the way `hyperpower serve` drives them, then dropped, reopened from
//! disk and scanned by `fsck`.
//!
//! Most of the work is journal appends, screening-rejection commits and
//! the snapshot rewrite every eight commits; the reopen and the scan read
//! the same format back. Every iteration of a run serves the same eight
//! fleets, drawn from the workload seed.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hyperpower::golden::encode_trace;
use hyperpower::methods::{BoSearcher, ConstraintWeighting, RandomSearch, RandomWalk, Searcher};
use hyperpower::objective::SimulatedObjective;
use hyperpower::{
    Budget, Budgets, ConstraintOracle, DriftConfig, EarlyTermination, Method, Mode, Objective,
    RetryPolicy, Scenario, SearchSpace, Session, Study, StudySpec, Trace,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use hyperpower_nn::sim::TrainingSimulator;
use hyperpower_server::journal::study_paths;
use hyperpower_server::{
    fsck_store, JournalHeader, ServerConfig, ServerError, StudyJournal, StudyServer, StudySetup,
};

use crate::common::{
    bytes_written, derive, median_setup, peak_rss_mib, repeat_for, thread_cpu_s, traced_first,
    Checks, LoopStats, Metric, WorkDir, PROFILE_SEED, SETUP_REPS,
};
use crate::report::{Outcome, Traced};
use crate::stats::median;
use crate::trace::Tracer;
use crate::walk::parse_body;
use crate::wrap::{replay_gp, FitInput, SinkKind, TimingObjective, TimingSearcher, TimingSink};

/// Model-free studies (Rand and Rand-Walk alternating).
const MODEL_FREE: usize = 15;
/// Evaluation budgets of the model-free studies. Screening rejects about
/// eleven of every twelve Rand draws on MNIST, so both kinds commit one
/// to two hundred samples.
const RAND_EVALS: usize = 12;
const WALK_EVALS: usize = 160;
/// Evaluation budget of the one HW-CWEI study.
const CWEI_EVALS: usize = 40;
/// Workers per study per scheduling round (`serve --workers 2`).
const WORKERS: usize = 2;

/// Fleets one iteration serves, one after another, each on a fresh root.
/// Their mix of Rand rejections and evaluations differs from fleet to
/// fleet, and so does the time a commit takes; eight of them average that
/// out of the throughput and the quality metric.
const FLEETS: usize = 8;

/// Untraced and traced serves the traced run alternates to take the
/// tracing overhead: one serve is about half a second, and the machine's
/// speed drifts from one to the next (five of each left the ratio 6% off).
const OVERHEAD_ROUNDS: usize = 9;

/// One hosted study, as a `--study NAME:METHOD:EVALS:SEED` argument.
#[derive(Debug, Clone)]
struct FleetStudy {
    name: String,
    method: Method,
    evals: usize,
    seed: u64,
}

/// The sixteen studies, their seeds drawn from the workload seed.
fn fleet(seed: u64) -> Vec<FleetStudy> {
    let mut out: Vec<FleetStudy> = (0..MODEL_FREE)
        .map(|i| FleetStudy {
            name: format!("mf{i:02}"),
            method: if i % 2 == 0 {
                Method::Rand
            } else {
                Method::RandWalk
            },
            evals: if i % 2 == 0 { RAND_EVALS } else { WALK_EVALS },
            seed: derive(seed, 0x5E2F_0000 + i as u64) >> 16,
        })
        .collect();
    out.push(FleetStudy {
        name: "cwei".into(),
        method: Method::HwCwei,
        evals: CWEI_EVALS,
        seed: derive(seed, 0x5E2F_C0E1) >> 16,
    });
    out
}

/// The profiled constraint oracle every study screens with: one MNIST
/// session, as `serve` fits one per seed for its BO studies.
fn fleet_oracle() -> Result<ConstraintOracle, String> {
    let session =
        Session::new(Scenario::mnist_gtx1070(), PROFILE_SEED).map_err(|e| e.to_string())?;
    Ok(session.oracle().clone())
}

/// The spec `hyperpower serve` builds. Rand-Walk studies keep its
/// unconstrained default budgets; Rand and HW-CWEI studies carry the
/// paper's MNIST/GTX 1070 power and memory budgets, so Rand screens and
/// commits rejections.
fn spec(st: &FleetStudy) -> StudySpec {
    StudySpec {
        method: st.method,
        mode: Mode::HyperPower,
        budget: Budget::Evaluations(st.evals),
        seed: st.seed,
        budgets: match st.method {
            Method::RandWalk => Budgets::default(),
            _ => Scenario::mnist_gtx1070().budgets,
        },
        cost: TrainingCostModel::default(),
        early_termination: Some(EarlyTermination::default()),
        fault_profile: FaultProfile::none(),
        retry: RetryPolicy::default(),
        drift: DriftConfig::default(),
    }
}

/// The study setup `hyperpower serve` builds for one `--study` argument,
/// except that the model-free studies get the oracle too (and Rand the
/// budgets, see [`spec`]), so Rand screens candidates and commits
/// rejections as HyperPower-mode Rand does in `hyperpower run`.
fn setup(st: &FleetStudy, oracle: &ConstraintOracle) -> StudySetup {
    StudySetup {
        space: SearchSpace::mnist(),
        gpu: Gpu::new(DeviceProfile::gtx_1070(), st.seed),
        oracle: Some(oracle.clone()),
        spec: spec(st),
        priority: 1,
    }
}

/// The objective the workers evaluate with: the MNIST training simulator
/// `hyperpower run` uses. (The `serve` command's `SyntheticObjective` stub
/// makes a study's errors a function of the query index alone, which would
/// turn `best_error_pct` into noise.)
fn mnist_objective() -> SimulatedObjective {
    let scenario = Scenario::mnist_gtx1070();
    SimulatedObjective::new(
        TrainingSimulator::new(scenario.dataset.clone()),
        TrainingCostModel::default(),
        scenario.train_examples,
    )
}

fn config(root: &Path) -> ServerConfig {
    ServerConfig {
        root: root.to_path_buf(),
        ..ServerConfig::default()
    }
}

fn create_server(
    root: &Path,
    studies: &[FleetStudy],
    oracle: &ConstraintOracle,
) -> Result<StudyServer, String> {
    let mut server = StudyServer::new(config(root)).map_err(|e| e.to_string())?;
    for st in studies {
        server
            .create_study(&st.name, setup(st, oracle))
            .map_err(|e| e.to_string())?;
    }
    Ok(server)
}

fn refused(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Overloaded { .. }
            | ServerError::Backpressure { .. }
            | ServerError::CircuitOpen { .. }
    )
}

/// The `hyperpower serve` loop: each round advances the scheduler clock a
/// minute, runs the maintenance pass, dispatches hedged duplicates, then
/// asks every unfinished study for `WORKERS` candidates and tells each
/// result back. Asks and tells are timed; refusals count as failed.
fn serve(
    server: &mut StudyServer,
    studies: &[FleetStudy],
    plain: &dyn Objective,
    tracer: &Tracer,
    stats: &mut LoopStats,
    checks: &mut Checks,
) -> Result<(), String> {
    let timed = TimingObjective {
        inner: plain,
        tracer: tracer.clone(),
    };
    let objective: &dyn Objective = if tracer.enabled() { &timed } else { plain };
    let start = Instant::now();
    let (paced_s, cpu) = (stats.pace.spent_s, thread_cpu_s());
    let mut now_s = 0.0;
    loop {
        let mut all_finished = true;
        now_s += 60.0;
        let report = tracer.span("server.tick", || server.tick_hedge(now_s));
        for (study, candidate) in report.hedged {
            let result = objective
                .evaluate(&candidate.decoded, None, candidate.eval_seed)
                .map_err(|e| e.to_string())?;
            let told = tracer.span("server.tell", || {
                server.tell(&study, candidate.lease_id, &result)
            });
            checks.op(told.is_ok());
            match told {
                Err(e) if !refused(&e) => return Err(e.to_string()),
                Err(_) => tracer.count("server.refused", 1.0),
                Ok(_) => {}
            }
        }
        for st in studies {
            if server.is_finished(&st.name).map_err(|e| e.to_string())? {
                continue;
            }
            all_finished = false;
            stats.pace.tick();
            tracer.next_request();
            let t = Instant::now();
            let asked = tracer.span("server.ask", || server.ask(&st.name, WORKERS, now_s));
            stats.asks.push(t.elapsed().as_secs_f64());
            checks.op(asked.is_ok());
            let batch = match asked {
                Ok(batch) => batch,
                Err(e) if refused(&e) => {
                    tracer.count("server.refused", 1.0);
                    continue;
                }
                Err(e) => return Err(format!("ask {}: {e}", st.name)),
            };
            tracer.count("study.leases", batch.len() as f64);
            for candidate in batch {
                let result = objective
                    .evaluate(&candidate.decoded, None, candidate.eval_seed)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                let told = tracer.span("server.tell", || {
                    server.tell(&st.name, candidate.lease_id, &result)
                });
                stats.tells.push(t.elapsed().as_secs_f64());
                checks.op(told.is_ok());
                told.map_err(|e| format!("tell {}: {e}", st.name))?;
            }
        }
        if all_finished {
            break;
        }
    }
    let paced = stats.pace.spent_s - paced_s;
    stats.wall_s += start.elapsed().as_secs_f64() - paced;
    stats.cpu_s += thread_cpu_s() - cpu - paced;
    for st in studies {
        stats.commits += server.committed(&st.name).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Each study's served trace.
fn traces(server: &StudyServer, studies: &[FleetStudy]) -> Result<Vec<Trace>, String> {
    studies
        .iter()
        .map(|st| server.trace(&st.name).map_err(|e| e.to_string()))
        .collect()
}

/// Budgets honoured by every served study.
fn check_budgets(studies: &[FleetStudy], traces: &[Trace], checks: &mut Checks) {
    for (st, trace) in studies.iter().zip(traces) {
        checks.check(trace.evaluations() == st.evals, || {
            format!(
                "serve-fleet: {} ran {} evaluations, budget {}",
                st.name,
                trace.evaluations(),
                st.evals
            )
        });
    }
}

/// Reopens every study from the store with `open_study` (replay plus byte
/// verification) and checks each recovered trace against the served one.
/// Returns the wall time.
fn reopen(
    root: &Path,
    studies: &[FleetStudy],
    oracle: &ConstraintOracle,
    served: &[Trace],
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut server = StudyServer::new(config(root)).map_err(|e| e.to_string())?;
    for (st, trace) in studies.iter().zip(served) {
        tracer.next_request();
        let opened = tracer.span("server.open", || {
            server.open_study(&st.name, setup(st, oracle))
        });
        checks.op(opened.is_ok());
        let recovered = opened.map_err(|e| format!("reopening {}: {e}", st.name))?;
        checks.check(recovered == trace.samples.len(), || {
            format!(
                "serve-fleet: {} recovered {recovered} of {} commits",
                st.name,
                trace.samples.len()
            )
        });
        let same = server
            .trace(&st.name)
            .is_ok_and(|t| encode_trace(&t) == encode_trace(trace));
        checks.check(same, || {
            format!(
                "serve-fleet: reopened {} differs from the served trace",
                st.name
            )
        });
    }
    drop(server);
    Ok(t.elapsed().as_secs_f64())
}

/// Scans the store; it must be clean with zero defects. Returns the wall
/// time and the valid record count.
fn fsck(root: &Path, tracer: &Tracer, checks: &mut Checks) -> Result<(f64, usize, usize), String> {
    let t = Instant::now();
    let report = tracer
        .span("fsck", || fsck_store(root, false))
        .map_err(|e| format!("fsck: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let defects: usize = report.studies.iter().map(|s| s.defects.len()).sum();
    let records: usize = report.studies.iter().map(|s| s.valid_records).sum();
    checks.check(report.clean() && defects == 0, || {
        format!("serve-fleet: fsck found {defects} defect(s):\n{report}")
    });
    Ok((secs, records, defects))
}

/// Each study's best feasible test error, in percent.
fn best_errors(traces: &[Trace], checks: &mut Checks) -> Vec<f64> {
    let bests: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.best_feasible().map(|b| b.error * 100.0))
        .collect();
    checks.check(bests.len() == traces.len(), || {
        format!(
            "serve-fleet: {} of {} studies found no feasible design",
            traces.len() - bests.len(),
            traces.len()
        )
    });
    bests
}

pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fleets: Vec<Vec<FleetStudy>> = (0..FLEETS).map(|i| fleet(derive(seed, i as u64))).collect();
    let work = WorkDir::new("fleet")?;
    let mut setups = 0usize;
    let (setup_s, oracle) = median_setup(SETUP_REPS, || {
        let oracle = fleet_oracle()?;
        let root = work.path.join(format!("setup{setups}"));
        setups += 1;
        drop(create_server(&root, &fleets[0], &oracle)?);
        std::fs::remove_dir_all(&root).ok();
        Ok(oracle)
    })?;
    let mut stats = LoopStats::paced();
    let mut checks = Checks::default();
    let (mut recover, mut fsck_times) = (Vec::new(), Vec::new());
    let mut bytes = 0u64;
    let mut first: Option<(Vec<u64>, Vec<f64>)> = None;
    let off = Tracer::off();
    let objective = mnist_objective();
    // Every iteration serves the same fleets; each serve must give the
    // same traces as in the first iteration (compared by a hash of their
    // bytes, so the check holds no copy that would swell the peak RSS).
    // Only the first fleet's store is reopened and scanned: the read-back
    // takes about three times as long as the serve it checks.
    let iterations = repeat_for(seconds, &mut stats, |i, stats| {
        let mut encoded = Vec::new();
        let mut bests = Vec::new();
        for (f, studies) in fleets.iter().enumerate() {
            let root = work.path.join(format!("store{i}-{f}"));
            let mut server = create_server(&root, studies, &oracle)?;
            let before = bytes_written();
            serve(&mut server, studies, &objective, &off, stats, &mut checks)?;
            bytes += bytes_written() - before;
            let served = traces(&server, studies)?;
            drop(server);
            if f == 0 {
                recover.push(reopen(&root, studies, &oracle, &served, &off, &mut checks)?);
                fsck_times.push(fsck(&root, &off, &mut checks)?.0);
            }
            std::fs::remove_dir_all(&root).ok();
            check_budgets(studies, &served, &mut checks);
            bests.extend(best_errors(&served, &mut checks));
            encoded.extend(served.iter().map(|t| {
                let mut h = DefaultHasher::new();
                encode_trace(t).hash(&mut h);
                h.finish()
            }));
        }
        match &first {
            None => first = Some((encoded, bests)),
            Some((reference, _)) => checks.check(*reference == encoded, || {
                "serve-fleet: a repeated serve gave other traces".into()
            }),
        }
        Ok(())
    })?;
    let bests = first.map(|(_, bests)| bests).unwrap_or_default();
    let best = bests.iter().sum::<f64>() / bests.len().max(1) as f64;
    let mut e2e = vec![Metric::new("setup_s", setup_s, "s")];
    e2e.extend(stats.latency_metrics());
    e2e.push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"));
    e2e.push(Metric::new("best_error_pct", best, "%"));
    let mut recover_s = Metric::new("recover_s", median(&recover), "s");
    recover_s.note = format!(
        "median of {} reopen(s) of {} studies, unscaled",
        recover.len(),
        MODEL_FREE + 1
    );
    let mut fsck_s = Metric::new("fsck_s", median(&fsck_times), "s");
    fsck_s.note = format!("median of {} scan(s), unscaled", fsck_times.len());
    Ok(Outcome {
        e2e,
        store: vec![
            recover_s,
            fsck_s,
            Metric::new("bytes_per_commit", bytes as f64 / stats.commits as f64, "B"),
        ],
        checks,
        log: vec![format!(
            "serve-fleet: {iterations} repeat(s) of {FLEETS} serves of {} studies, {} commits each",
            MODEL_FREE + 1,
            stats.commits / iterations
        )],
        traced: None,
    })
}

/// The composition `StudyServer::install` builds for one study, with the
/// searcher, journal and objective wrapped: the traced loop drives it the
/// way the server loop drives the server.
struct Composed {
    study: Study,
    space: SearchSpace,
    gpu: Gpu,
    journal: TimingSink<StudyJournal>,
}

fn compose(
    root: &Path,
    st: &FleetStudy,
    oracle: &ConstraintOracle,
    tracer: &Tracer,
    fits: &Arc<Mutex<Vec<FitInput>>>,
    half_at: usize,
) -> Result<Composed, String> {
    let StudySetup {
        space,
        gpu,
        oracle: study_oracle,
        spec,
        ..
    } = setup(st, oracle);
    let defaults = ServerConfig::default();
    let header = JournalHeader {
        name: st.name.clone(),
        run: crate::walk::header(&spec),
    };
    let journal = StudyJournal::create(root, &header, defaults.snapshot_every_commits)
        .map_err(|e| e.to_string())?;
    let (_, snapshot) = study_paths(root, &st.name);
    let mut journal = TimingSink::new(
        journal,
        tracer.clone(),
        SinkKind::Journal {
            snapshot,
            snapshot_every: defaults.snapshot_every_commits,
        },
    );
    journal.capture_at = Some(half_at);
    let inner: Box<dyn Searcher> = match st.method {
        Method::Rand => Box::new(RandomSearch),
        Method::RandWalk => Box::new(RandomWalk::default()),
        Method::HwCwei | Method::HwIeci => Box::new(BoSearcher::new(
            if st.method == Method::HwCwei {
                ConstraintWeighting::Probability
            } else {
                ConstraintWeighting::Indicator
            },
            study_oracle.clone(),
        )),
    };
    let mut searcher = TimingSearcher::new(inner, tracer.clone());
    if !st.method.is_model_free() {
        searcher = searcher.recording_fits(
            fits.clone(),
            BoSearcher::new(ConstraintWeighting::None, None).min_observations,
        );
    }
    let study = Study::new(spec, study_oracle.as_ref(), Some(Box::new(searcher)))
        .with_lease_policy(defaults.lease_policy);
    Ok(Composed {
        study,
        space,
        gpu,
        journal,
    })
}

/// The server loop of [`serve`], run against the composed studies: the
/// same rounds, the same asks and tells, the same flush of a finished
/// study's journal. Lease reclaims run where `tick_hedge` runs them.
fn serve_composed(
    composed: &mut [Composed],
    plain: &dyn Objective,
    tracer: &Tracer,
    stats: &mut LoopStats,
    checks: &mut Checks,
) -> Result<(), String> {
    let objective = TimingObjective {
        inner: plain,
        tracer: tracer.clone(),
    };
    let start = Instant::now();
    let mut now_s = 0.0;
    loop {
        let mut all_finished = true;
        now_s += 60.0;
        for c in composed.iter_mut() {
            tracer.span("study.reclaim", || c.study.reclaim_expired(now_s));
        }
        for c in composed.iter_mut() {
            if c.study.is_finished() {
                continue;
            }
            all_finished = false;
            tracer.next_request();
            let t = Instant::now();
            let asked = tracer.span("study.ask", || {
                c.study
                    .ask(&c.space, &mut c.gpu, WORKERS, now_s, Some(&mut c.journal))
            });
            if c.study.is_finished() {
                c.journal
                    .forced_snapshot(StudyJournal::flush)
                    .map_err(|e| e.to_string())?;
            }
            stats.asks.push(t.elapsed().as_secs_f64());
            checks.op(asked.is_ok());
            let batch = asked.map_err(|e| format!("ask: {e}"))?;
            for candidate in batch {
                let result = objective
                    .evaluate(&candidate.decoded, None, candidate.eval_seed)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                let told = tracer.span("study.tell", || {
                    c.study.tell(
                        &mut c.gpu,
                        candidate.lease_id,
                        &result,
                        Some(&mut c.journal),
                    )
                });
                if c.study.is_finished() {
                    c.journal
                        .forced_snapshot(StudyJournal::flush)
                        .map_err(|e| e.to_string())?;
                }
                stats.tells.push(t.elapsed().as_secs_f64());
                checks.op(told.is_ok());
                told.map_err(|e| format!("tell: {e}"))?;
            }
        }
        if all_finished {
            break;
        }
    }
    stats.wall_s += start.elapsed().as_secs_f64();
    stats.commits += composed.iter().map(|c| c.study.committed()).sum::<usize>();
    Ok(())
}

pub fn traced(seed: u64) -> Result<Outcome, String> {
    let studies = fleet(derive(seed, 0));
    let objective = mnist_objective();
    let work = WorkDir::new("fleet-traced")?;
    let post = Tracer::on();
    let oracle = post.span("scenario.session_new", fleet_oracle)?;
    let mut checks = Checks::default();

    // The server loop as `hyperpower serve` runs it, tracing off, and the
    // same loop through the server API with spans around ask, tell and the
    // maintenance pass, alternated OVERHEAD_ROUNDS times on fresh roots,
    // the untraced one first in the first round. The tracing overhead is
    // the ratio of their median processor times at nominal pace; the first
    // traced serve gives the table and the store recovery reads.
    let (mut plain_times, mut api_times) = (Vec::new(), Vec::new());
    let api = Tracer::on();
    let api_root = work.path.join("api0");
    let (mut served, mut api_traces, mut written) = (Vec::new(), Vec::new(), 0);
    let mut api_stats = LoopStats::default();
    for round in 0..OVERHEAD_ROUNDS {
        let order = [traced_first(round), !traced_first(round)];
        for traced_round in order {
            let root = work.path.join(format!(
                "{}{round}",
                if traced_round { "api" } else { "plain" }
            ));
            let tracer = match (traced_round, round) {
                (false, _) => Tracer::off(),
                (true, 0) => api.clone(),
                (true, _) => Tracer::on(),
            };
            let mut server = create_server(&root, &studies, &oracle)?;
            let mut stats = LoopStats::paced();
            let before = bytes_written();
            serve(
                &mut server,
                &studies,
                &objective,
                &tracer,
                &mut stats,
                &mut checks,
            )?;
            let bytes = bytes_written() - before;
            let got = traces(&server, &studies)?;
            drop(server);
            if root != api_root {
                std::fs::remove_dir_all(&root).ok();
            }
            if !traced_round {
                plain_times.push(stats.paced_cpu_s());
                if round == 0 {
                    check_budgets(&studies, &got, &mut checks);
                    served = got;
                }
                continue;
            }
            api_times.push(stats.paced_cpu_s());
            for (st, (traced_trace, reference)) in studies.iter().zip(got.iter().zip(&served)) {
                checks.check(
                    encode_trace(traced_trace) == encode_trace(reference),
                    || format!("serve-fleet: {} differs with tracing on", st.name),
                );
            }
            if round == 0 {
                (api_traces, written, api_stats) = (got, bytes, stats);
            }
        }
    }

    // Inside the server: the same loop over the composition
    // `StudyServer::install` builds, with searcher, journal and objective
    // wrapped.
    let inner = Tracer::on();
    let composed_root = work.path.join("composed");
    let fits = Arc::new(Mutex::new(Vec::new()));
    let mut composed = studies
        .iter()
        .zip(&served)
        .map(|(st, t)| {
            compose(
                &composed_root,
                st,
                &oracle,
                &inner,
                &fits,
                t.samples.len() / 2,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut inner_stats = LoopStats::default();
    serve_composed(
        &mut composed,
        &objective,
        &inner,
        &mut inner_stats,
        &mut checks,
    )?;

    // Recovery of the API store: reopen every study, then scan.
    let recovery = Tracer::on();
    let recover_s = reopen(
        &api_root,
        &studies,
        &oracle,
        &api_traces,
        &recovery,
        &mut checks,
    )?;
    let (fsck_s, records, defects) = fsck(&api_root, &recovery, &mut checks)?;

    let mut traced = Traced::new(post.clone(), median(&api_times), median(&plain_times));
    for ((st, reference), c) in studies.iter().zip(&served).zip(&composed) {
        let bytes = encode_trace(reference);
        let composed_trace = c.study.trace();
        checks.check(encode_trace(&composed_trace) == bytes, || {
            format!(
                "serve-fleet: composed {} differs from the server's trace",
                st.name
            )
        });
        traced.add_trace_counts(&composed_trace);
    }

    // Post-run re-invocations on the composed store, which no reopen has
    // rewritten: the journal load, and the parse of each snapshot body at
    // half and full run length.
    for (st, c) in studies.iter().zip(&mut composed) {
        let loaded = post.span("journal.load", || {
            StudyJournal::load(&composed_root, &st.name)
        });
        let count = loaded
            .map_err(|e| e.to_string())?
            .map_or(0, |r| r.samples.len());
        checks.check(count == c.study.committed(), || {
            format!(
                "serve-fleet: journal load of {} found {count} samples",
                st.name
            )
        });
        let (_, snapshot) = study_paths(&composed_root, &st.name);
        let full = std::fs::read_to_string(&snapshot).map_err(|e| e.to_string())?;
        let half = c
            .journal
            .captured
            .take()
            .ok_or("no half-length snapshot captured")?;
        parse_body(&post, "half", &half)?;
        parse_body(&post, "full", &full)?;
    }
    let fits = fits.lock().map_err(|_| "fit log poisoned")?.clone();
    replay_gp(
        &fits,
        ConstraintWeighting::Probability,
        &oracle,
        &SearchSpace::mnist(),
        &post,
    )?;

    traced.section(
        format!(
            "server API: serve loop over {} studies, {} commits",
            studies.len(),
            api_stats.commits
        ),
        api,
        api_stats.wall_s,
    );
    traced.section(
        "inside the server: Study + StudyJournal per study, same loop",
        inner,
        inner_stats.wall_s,
    );
    traced.section(
        "recovery: open_study for every study, then fsck_store",
        recovery,
        recover_s + fsck_s,
    );
    traced.set("store.recover_s", recover_s);
    traced.set("store.fsck_s", fsck_s);
    traced.set(
        "store.bytes_per_commit",
        written as f64 / api_stats.commits as f64,
    );
    traced.set("fsck.records", records as f64);
    traced.set("fsck.defects", defects as f64);
    Ok(Outcome {
        e2e: Vec::new(),
        store: Vec::new(),
        checks,
        log: vec![format!(
            "serve-fleet: traced serve of {} studies, {} commits, {} GP fits replayed",
            studies.len(),
            api_stats.commits,
            fits.len()
        )],
        traced: Some(traced),
    })
}

//! Timing wrappers around each layer's public entry points.
//!
//! Each wrapper delegates every call to the exact object the product path
//! builds and records one span per call; with a disabled [`Tracer`] it adds
//! nothing but the delegation. None of them changes an argument or a
//! result, so traces are byte-identical with tracing on and off (the traced
//! run checks this).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use hyperpower::drift::DegradationEvent;
use hyperpower::methods::{BoSearcher, Conditioning, ConstraintWeighting, History, Searcher};
use hyperpower::objective::EvaluationResult;
use hyperpower::space::Decoded;
use hyperpower::{
    Config, ConstraintOracle, EarlyTermination, Objective, ObservationSink, Sample, SearchSpace,
};
use hyperpower_gp::sampler::uniform_candidates;
use hyperpower_gp::{fit_gp_hyperparams_laddered, Matern52};
use hyperpower_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// The surrogate inputs one BO proposal fitted: the finite observations
/// of the history it saw.
#[derive(Debug, Clone)]
pub struct FitInput {
    pub x: Matrix,
    pub y: Vec<f64>,
}

/// A [`Searcher`] that times every proposal of the searcher it wraps and,
/// when asked to, records the GP inputs of each proposal for a post-run
/// re-invocation of the GP layer ([`replay_gp`]).
pub struct TimingSearcher {
    inner: Box<dyn Searcher>,
    tracer: Tracer,
    /// `Some` for BO searchers whose fits are replayed after the run.
    fits: Option<Arc<Mutex<Vec<FitInput>>>>,
    min_observations: usize,
}

impl TimingSearcher {
    pub fn new(inner: Box<dyn Searcher>, tracer: Tracer) -> Self {
        TimingSearcher {
            inner,
            tracer,
            fits: None,
            min_observations: 0,
        }
    }

    /// Records the GP inputs of every proposal that fits a surrogate (the
    /// BO searcher fits once `min_observations` finite errors exist).
    pub fn recording_fits(
        mut self,
        fits: Arc<Mutex<Vec<FitInput>>>,
        min_observations: usize,
    ) -> Self {
        self.fits = Some(fits);
        self.min_observations = min_observations;
        self
    }

    fn record(&self, space: &SearchSpace, history: &History) {
        let Some(fits) = &self.fits else { return };
        if history.len() < self.min_observations {
            return;
        }
        let d = space.dim();
        let mut data = Vec::with_capacity(history.len() * d);
        let mut y = Vec::with_capacity(history.len());
        for obs in history.observations() {
            if obs.error.is_finite() {
                data.extend_from_slice(obs.config.unit());
                y.push(obs.error);
            }
        }
        if y.len() < self.min_observations {
            return;
        }
        if let Ok(x) = Matrix::from_vec(y.len(), d, data) {
            fits.lock()
                .expect("fit log poisoned by a panicking proposal")
                .push(FitInput { x, y });
        }
    }
}

impl Searcher for TimingSearcher {
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> hyperpower::Result<Config> {
        self.record(space, history);
        let inner = &mut self.inner;
        self.tracer
            .span("methods.propose", || inner.propose(space, history, rng))
    }

    fn conditioning(&self) -> Conditioning {
        self.inner.conditioning()
    }

    fn propose_with_pending(
        &mut self,
        space: &SearchSpace,
        history: &History,
        pending: &[Config],
        rng: &mut StdRng,
    ) -> hyperpower::Result<Config> {
        let inner = &mut self.inner;
        self.tracer.span("methods.propose", || {
            inner.propose_with_pending(space, history, pending, rng)
        })
    }

    fn propose_batch(
        &mut self,
        space: &SearchSpace,
        history: &History,
        k: usize,
        rng: &mut StdRng,
    ) -> hyperpower::Result<Vec<Config>> {
        let inner = &mut self.inner;
        self.tracer.span("methods.propose", || {
            inner.propose_batch(space, history, k, rng)
        })
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        let events = self.inner.drain_degradations();
        self.tracer
            .count("methods.degradations", events.len() as f64);
        events
    }

    fn update_oracle(&mut self, oracle: &ConstraintOracle) {
        self.inner.update_oracle(oracle);
    }
}

/// Which durable format a [`TimingSink`] wraps, and where its file lives.
#[derive(Debug, Clone)]
pub enum SinkKind {
    /// A `CheckpointSink` writing `path` on every commit.
    Checkpoint { path: PathBuf },
    /// A `StudyJournal` whose snapshot lands at `snapshot` every
    /// `snapshot_every` commits.
    Journal {
        snapshot: PathBuf,
        snapshot_every: usize,
    },
}

/// An [`ObservationSink`] that times every record the wrapped sink takes.
/// Journal commits that rewrite the snapshot are told apart from plain
/// appends by mirroring the journal's snapshot cadence.
#[derive(Debug)]
pub struct TimingSink<S> {
    pub inner: S,
    tracer: Tracer,
    kind: SinkKind,
    commits_since_snapshot: usize,
    commits: usize,
    /// Copy the durable file once `commits` reaches this count.
    pub capture_at: Option<usize>,
    /// The durable file as it stood at `capture_at` commits.
    pub captured: Option<String>,
}

impl<S> TimingSink<S> {
    pub fn new(inner: S, tracer: Tracer, kind: SinkKind) -> Self {
        TimingSink {
            inner,
            tracer,
            kind,
            commits_since_snapshot: 0,
            commits: 0,
            capture_at: None,
            captured: None,
        }
    }

    fn file(&self) -> &PathBuf {
        match &self.kind {
            SinkKind::Checkpoint { path } => path,
            SinkKind::Journal { snapshot, .. } => snapshot,
        }
    }

    fn file_len(&self) -> f64 {
        std::fs::metadata(self.file()).map_or(0.0, |m| m.len() as f64)
    }

    /// Notes a write of the durable file: its size, and the capture copy
    /// once the commit count reaches `capture_at`.
    fn wrote(&mut self, bytes_counter: &'static str) {
        self.tracer.count(bytes_counter, self.file_len());
        if self.captured.is_none() && self.capture_at.is_some_and(|at| self.commits >= at) {
            self.captured = std::fs::read_to_string(self.file()).ok();
        }
    }

    /// Runs a snapshot the caller forces (the server flushes a finished
    /// study's journal) inside a `journal.snapshot` span.
    pub fn forced_snapshot<T>(&mut self, flush: impl FnOnce(&mut S) -> T) -> T {
        let inner = &mut self.inner;
        let out = self.tracer.span("journal.snapshot", || flush(inner));
        self.commits_since_snapshot = 0;
        self.wrote("journal.snapshot.bytes");
        out
    }
}

impl<S: ObservationSink> ObservationSink for TimingSink<S> {
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        let name = match self.kind {
            SinkKind::Checkpoint { .. } => "checkpoint.eval",
            SinkKind::Journal { .. } => "journal.append",
        };
        let inner = &mut self.inner;
        self.tracer
            .span(name, || inner.record_eval(eval_seed, result));
    }

    fn record_commit(&mut self, sample: &Sample) -> hyperpower::Result<()> {
        self.commits += 1;
        let inner = &mut self.inner;
        match self.kind {
            SinkKind::Checkpoint { .. } => {
                let out = self
                    .tracer
                    .span("checkpoint.commit", || inner.record_commit(sample));
                self.wrote("checkpoint.commit.bytes");
                out
            }
            SinkKind::Journal { snapshot_every, .. } => {
                self.commits_since_snapshot += 1;
                let snapshot = snapshot_every > 0 && self.commits_since_snapshot >= snapshot_every;
                let name = if snapshot {
                    "journal.snapshot"
                } else {
                    "journal.append"
                };
                let out = self.tracer.span(name, || inner.record_commit(sample));
                if snapshot {
                    self.commits_since_snapshot = 0;
                    self.wrote("journal.snapshot.bytes");
                }
                out
            }
        }
    }
}

/// An [`Objective`] that times every evaluation of the one it wraps.
pub struct TimingObjective<'a> {
    pub inner: &'a dyn Objective,
    pub tracer: Tracer,
}

impl Objective for TimingObjective<'_> {
    fn evaluate(
        &self,
        decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        self.tracer.span("objective.evaluate", || {
            self.inner.evaluate(decoded, early, seed)
        })
    }

    fn full_epochs(&self) -> usize {
        self.inner.full_epochs()
    }
}

/// Answers from a resume checkpoint's cached evaluations and falls back to
/// the wrapped objective, as `hyperpower run --resume` does.
pub struct CachedObjective<'a> {
    pub inner: &'a dyn Objective,
    pub cache: &'a BTreeMap<u64, EvaluationResult>,
}

impl Objective for CachedObjective<'_> {
    fn evaluate(
        &self,
        decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        match self.cache.get(&seed) {
            Some(result) => Ok(*result),
            None => self.inner.evaluate(decoded, early, seed),
        }
    }

    fn full_epochs(&self) -> usize {
        self.inner.full_epochs()
    }
}

/// Re-invokes the GP layer on every recorded proposal input, after the
/// timed part of the run: one `fit_gp_hyperparams_laddered` call with the
/// searcher's own options (span `gp.fit`), then the searcher's scoring of
/// a fresh candidate grid through `posterior_batch` in the searcher's
/// block size (span `gp.score`). Under the hard indicator only
/// predicted-feasible candidates are scored, as the searcher does.
pub fn replay_gp(
    fits: &[FitInput],
    weighting: ConstraintWeighting,
    oracle: &ConstraintOracle,
    space: &SearchSpace,
    tracer: &Tracer,
) -> Result<(), String> {
    let template = BoSearcher::new(weighting, Some(oracle.clone()));
    for (i, input) in fits.iter().enumerate() {
        let fitted = tracer.span("gp.fit", || {
            fit_gp_hyperparams_laddered(
                Matern52::new(0.5).into_kernel(),
                &input.x,
                &input.y,
                template.fit_options,
                hyperpower::methods::MAX_JITTER_RUNGS,
            )
        });
        let Ok(laddered) = fitted else {
            tracer.count("gp.fit.failed", 1.0);
            continue;
        };
        tracer.count("gp.fit.rungs", f64::from(laddered.rungs));
        let d = input.x.cols();
        let mut rng = StdRng::seed_from_u64(0x5C0_BE00 + i as u64);
        let grid = uniform_candidates(&mut rng, template.candidates, d);
        let mut scored = Vec::with_capacity(grid.rows() * d);
        for r in 0..grid.rows() {
            let unit = grid.row(r).to_vec();
            let keep = match weighting {
                ConstraintWeighting::Indicator => {
                    let config = Config::new(unit.clone()).map_err(|e| e.to_string())?;
                    let z = space
                        .structural_values(&config)
                        .map_err(|e| e.to_string())?;
                    oracle.predicted_feasible(&z)
                }
                _ => true,
            };
            if keep {
                scored.extend_from_slice(&unit);
            }
        }
        let rows = scored.len() / d;
        tracer.span("gp.score", || -> Result<(), String> {
            for start in (0..rows).step_by(BoSearcher::GP_SCORE_BLOCK) {
                let end = (start + BoSearcher::GP_SCORE_BLOCK).min(rows);
                let block = Matrix::from_vec(end - start, d, scored[start * d..end * d].to_vec())
                    .map_err(|e| e.to_string())?;
                let posterior = laddered
                    .fitted
                    .gp
                    .posterior_batch(&block)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(posterior);
            }
            Ok(())
        })?;
    }
    Ok(())
}

//! Self-healing constraint models: drift detection, online recalibration
//! and adaptive safety margins.
//!
//! HyperPower gates its acquisition function on linear power/memory models
//! fitted *once*, offline (paper §3.3, Table 1 reports RMSPE up to ~7%).
//! A production run must survive those models going stale — a sensor
//! drifting away from its profiling-time calibration, or a deployed GPU
//! that no longer matches the profiled one. This module closes the loop:
//!
//! * a [`DriftMonitor`] compares `HwModels::predict_*` against the values
//!   actually *measured* at every committed evaluation, maintaining online
//!   RMSPE estimators per target and emitting typed [`DriftEvent`]s;
//! * when drift crosses [`DriftConfig::drift_threshold`] (with hysteresis:
//!   estimators reset after a refit and re-detection is suppressed for a
//!   cooldown), the linear models are **recalibrated** on the accumulated
//!   `(z, measurement)` pairs through the same k-fold lstsq path used at
//!   profiling time;
//! * measured constraint violations of predicted-feasible candidates
//!   tighten an explicit **safety margin** on the budgets (shrinking the
//!   *predicted* feasible region only — measured feasibility always uses
//!   the raw budgets), and sustained clean commits relax it again.
//!
//! **Determinism.** The monitor consumes nothing but the committed sample
//! sequence — no RNG, no wall clock — so its entire state (and therefore
//! every recalibrated weight and margin step) is a pure function of the
//! committed prefix. The executor feeds it at commit points, which are
//! identical for every worker count, so recalibrating runs stay
//! byte-identical across `--workers` and across kill-and-resume. A
//! proptest in `crates/core/tests/proptests.rs` pins this down.
//!
//! [`DegradationEvent`] lives here too: the typed record of the GP
//! numerical degradation ladder (see `methods::BoSearcher`), which shares
//! the trace-event plumbing with drift events.

use hyperpower_linalg::units::{Mebibytes, Seconds, Watts};

use crate::constraints::{Budgets, ConstraintOracle};
use crate::model::{HwModels, LinearHwModel};

/// Minimum committed measurements per target before its RMSPE estimate is
/// trusted for drift detection.
pub const MIN_DRIFT_SAMPLES: u64 = 4;

/// Commits to wait after a drift detection (successful or not) before the
/// detector may fire again — the hysteresis half of the state machine.
const RECAL_COOLDOWN: u64 = 4;

/// Consecutive non-violating measured commits required to relax the safety
/// margin by one step.
const RELAX_STREAK: u64 = 8;

/// Consecutive screening rejections (with no measured commit in between)
/// tolerated while a margin is active before the monitor concludes the
/// margin has (nearly) emptied the predicted-feasible region and backs it
/// off one step. Without this valve a single tightening on a taut budget
/// can starve the search: no commits ⇒ no clean streak ⇒ no relaxation.
const REJECTION_RELAX_STREAK: u64 = 256;

/// Upper bound on the total margin, as a fraction of each budget: the
/// margin may never erase more than half the feasible budget.
pub const MAX_MARGIN_FRAC: f64 = 0.5;

/// Folds used for recalibration fits. Smaller than the profiler's 10
/// because the monitor recalibrates from however many commits a short run
/// has accumulated; `LinearHwModel` still enforces `n ≥ max(k, 2·d)`.
const REFIT_FOLDS: usize = 2;

/// Tuning knobs for the self-healing layer. The default is **inert**:
/// recalibration off, no safety margin — a run with the default config is
/// byte-identical to one without the subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Refit the hardware models online when measured drift crosses
    /// `drift_threshold` (CLI `--recalibrate`).
    pub recalibrate: bool,
    /// Live RMSPE (fraction, per target) above which drift is declared
    /// (CLI `--drift-threshold`).
    pub drift_threshold: f64,
    /// Margin step per measured constraint violation, as a fraction of
    /// each budget; `0.0` disables adaptive margins (CLI
    /// `--safety-margin`).
    pub safety_margin: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            recalibrate: false,
            drift_threshold: 0.15,
            safety_margin: 0.0,
        }
    }
}

impl DriftConfig {
    /// Whether this config can never change a run: no recalibration and no
    /// margins means the monitor is not even constructed.
    pub fn is_inert(&self) -> bool {
        !self.recalibrate && self.safety_margin <= 0.0
    }
}

/// Which hardware target a drift detection refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftTarget {
    /// The power model `P(z)`.
    Power,
    /// The memory model `M(z)`.
    Memory,
    /// The latency model `T(z)`.
    Latency,
}

/// A self-healing state transition, recorded on the committed sample that
/// caused it. Wire names are pinned by the golden fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftEvent {
    /// A target's live RMSPE crossed the drift threshold.
    DriftDetected(DriftTarget),
    /// The hardware models were refitted on the accumulated measurements.
    Recalibrated,
    /// A measured violation of a predicted-feasible candidate tightened
    /// the safety margin by one step.
    MarginTightened,
    /// Sustained clean commits (or a recalibration) relaxed the margin.
    MarginRelaxed,
}

impl DriftEvent {
    /// Stable name used in trace encodings.
    pub fn wire_name(&self) -> &'static str {
        match self {
            DriftEvent::DriftDetected(DriftTarget::Power) => "drift:power",
            DriftEvent::DriftDetected(DriftTarget::Memory) => "drift:memory",
            DriftEvent::DriftDetected(DriftTarget::Latency) => "drift:latency",
            DriftEvent::Recalibrated => "recalibrated",
            DriftEvent::MarginTightened => "margin-tightened",
            DriftEvent::MarginRelaxed => "margin-relaxed",
        }
    }
}

/// One downgrade step of the GP numerical degradation ladder, recorded on
/// the sample whose proposal needed it. Emitted by the BO searchers; never
/// a panic, never a silent retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationEvent {
    /// The GP fit only succeeded after escalating the noise floor `rung`
    /// steps up the jitter ladder.
    JitterEscalated {
        /// 1-based rung that finally fitted (each rung multiplies the
        /// minimum noise variance by 100).
        rung: u32,
    },
    /// Every ladder rung failed; the proposal fell back to a Rand-Walk
    /// step for this iteration.
    RandWalkFallback,
}

impl DegradationEvent {
    /// Stable name used in trace encodings.
    pub fn wire_name(&self) -> String {
        match self {
            DegradationEvent::JitterEscalated { rung } => format!("jitter:{rung}"),
            DegradationEvent::RandWalkFallback => "rand-walk-fallback".into(),
        }
    }
}

/// Online error estimator for one target: running RMSPE of
/// `(predicted − measured) / measured`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct OnlineError {
    n: u64,
    sum_sq_frac: f64,
}

impl OnlineError {
    fn observe(&mut self, predicted: f64, measured: f64) {
        if !(predicted.is_finite() && measured.is_finite()) || measured.abs() < f64::MIN_POSITIVE {
            return;
        }
        let frac = (predicted - measured) / measured;
        self.n += 1;
        self.sum_sq_frac += frac * frac;
    }

    fn rmspe(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.n > 0).then(|| (self.sum_sq_frac / self.n as f64).sqrt())
    }

    fn reset(&mut self) {
        *self = OnlineError::default();
    }
}

/// What one committed observation did to the self-healing state.
#[derive(Debug, Clone, Default)]
pub struct CommitObservation {
    /// State transitions caused by this commit, in occurrence order.
    pub events: Vec<DriftEvent>,
    /// Whether models or margins changed — the executor must rebuild its
    /// live [`ConstraintOracle`] (and tell the searcher) when set.
    pub oracle_changed: bool,
    /// Worst live RMSPE across targets after this commit, if any target
    /// has measurements (reset by recalibration).
    pub drift_rmspe: Option<f64>,
}

/// The drift → recalibrate → margin state machine (see module docs and
/// DESIGN.md §5c). Owned by the executor; fed exactly once per committed,
/// *measured* evaluation, in commit order.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    models: HwModels,
    budgets: Budgets,
    z_rows: Vec<Vec<f64>>,
    power_rows_w: Vec<f64>,
    memory_rows_bytes: Vec<f64>,
    latency_rows_s: Vec<f64>,
    power_err: OnlineError,
    memory_err: OnlineError,
    latency_err: OnlineError,
    margin_steps: u32,
    clean_streak: u64,
    rejection_streak: u64,
    cooldown: u64,
    recalibrations: u32,
}

impl DriftMonitor {
    /// Creates a monitor around the profiling-time models and the raw
    /// budgets.
    pub fn new(models: HwModels, budgets: Budgets, config: DriftConfig) -> Self {
        DriftMonitor {
            config,
            models,
            budgets,
            z_rows: Vec::new(),
            power_rows_w: Vec::new(),
            memory_rows_bytes: Vec::new(),
            latency_rows_s: Vec::new(),
            power_err: OnlineError::default(),
            memory_err: OnlineError::default(),
            latency_err: OnlineError::default(),
            margin_steps: 0,
            clean_streak: 0,
            rejection_streak: 0,
            cooldown: 0,
            recalibrations: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// The current (possibly recalibrated) models.
    pub fn current_models(&self) -> &HwModels {
        &self.models
    }

    /// How many times the models have been refitted.
    pub fn recalibrations(&self) -> u32 {
        self.recalibrations
    }

    /// Current margin tightening steps.
    pub fn margin_steps(&self) -> u32 {
        self.margin_steps
    }

    /// Current total margin as a fraction of each budget, capped at
    /// [`MAX_MARGIN_FRAC`].
    pub fn margin_frac(&self) -> f64 {
        (f64::from(self.margin_steps) * self.config.safety_margin).min(MAX_MARGIN_FRAC)
    }

    /// Worst live RMSPE across targets, if any target has measurements.
    pub fn live_rmspe(&self) -> Option<f64> {
        [
            self.power_err.rmspe(),
            self.memory_err.rmspe(),
            self.latency_err.rmspe(),
        ]
        .into_iter()
        .flatten()
        .reduce(f64::max)
    }

    /// The raw budgets with the current safety margin applied to the
    /// power/memory limits. Latency carries no margin field: the paper's
    /// scenarios never impose a latency budget.
    pub fn margined_budgets(&self) -> Budgets {
        let frac = self.margin_frac();
        let mut budgets = self.budgets;
        if frac > 0.0 {
            if let Some(p) = budgets.power {
                budgets.power_margin = Watts(p.get() * frac);
            }
            if let Some(m) = budgets.memory {
                budgets.memory_margin = Mebibytes(m.get() * frac);
            }
        }
        budgets
    }

    /// The oracle reflecting the current models and margins. The executor
    /// swaps this in whenever [`CommitObservation::oracle_changed`].
    pub fn oracle(&self) -> ConstraintOracle {
        ConstraintOracle::new(self.models.clone(), self.margined_budgets())
    }

    /// Feeds one committed, measured evaluation (in commit order) through
    /// the state machine. `violation` marks a candidate that was predicted
    /// feasible by the live oracle but measured infeasible against the raw
    /// budgets.
    pub fn observe_commit(
        &mut self,
        z: &[f64],
        power: Watts,
        memory: Option<Mebibytes>,
        latency: Option<Seconds>,
        violation: bool,
    ) -> CommitObservation {
        hyperpower_linalg::debug_assert_finite!("drift-monitor z", z);
        hyperpower_linalg::debug_assert_finite!("drift-monitor power", &[power.get()]);
        let mut obs = CommitObservation::default();

        // A measured commit means the screen is still letting candidates
        // through — the rejection starvation valve starts over.
        self.rejection_streak = 0;

        // Accumulate the (z, measurement) pair for future refits.
        self.z_rows.push(z.to_vec());
        self.power_rows_w.push(power.get());
        if let Some(m) = memory {
            self.memory_rows_bytes.push(m.as_bytes());
        }
        if let Some(l) = latency {
            self.latency_rows_s.push(l.get());
        }

        // Update the per-target error estimators against the models as
        // they stood when this sample was screened.
        self.power_err
            .observe(self.models.predict_power(z).get(), power.get());
        if let (Some(m), Some(pred)) = (memory, self.models.predict_memory(z)) {
            self.memory_err.observe(pred.as_bytes(), m.as_bytes());
        }
        if let (Some(l), Some(pred)) = (latency, self.models.predict_latency(z)) {
            self.latency_err.observe(pred.get(), l.get());
        }

        // Margin state machine: TIGHTEN on a measured violation, RELAX
        // after a sustained clean streak.
        if self.config.safety_margin > 0.0 {
            if violation {
                self.clean_streak = 0;
                if self.margin_frac() < MAX_MARGIN_FRAC {
                    self.margin_steps += 1;
                    obs.events.push(DriftEvent::MarginTightened);
                    obs.oracle_changed = true;
                }
            } else {
                self.clean_streak += 1;
                if self.clean_streak >= RELAX_STREAK && self.margin_steps > 0 {
                    self.margin_steps -= 1;
                    self.clean_streak = 0;
                    obs.events.push(DriftEvent::MarginRelaxed);
                    obs.oracle_changed = true;
                }
            }
        }

        // Drift detection with hysteresis, then recalibration.
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if self.config.recalibrate {
            let mut drifted: Vec<DriftTarget> = Vec::new();
            for (target, err) in [
                (DriftTarget::Power, self.power_err),
                (DriftTarget::Memory, self.memory_err),
                (DriftTarget::Latency, self.latency_err),
            ] {
                if err.n >= MIN_DRIFT_SAMPLES
                    && err.rmspe().is_some_and(|r| r > self.config.drift_threshold)
                {
                    drifted.push(target);
                }
            }
            if !drifted.is_empty() {
                for t in &drifted {
                    obs.events.push(DriftEvent::DriftDetected(*t));
                }
                // Cooldown starts whether or not the refit succeeds: a
                // data-starved refit must not retry on every commit.
                self.cooldown = RECAL_COOLDOWN;
                if let Some(models) = self.refit_models() {
                    self.models = models;
                    self.power_err.reset();
                    self.memory_err.reset();
                    self.latency_err.reset();
                    self.recalibrations += 1;
                    obs.events.push(DriftEvent::Recalibrated);
                    obs.oracle_changed = true;
                    // Recalibration heals the source of the violations, so
                    // the emergency margin is released with it.
                    if self.margin_steps > 0 {
                        self.margin_steps = 0;
                        self.clean_streak = 0;
                        obs.events.push(DriftEvent::MarginRelaxed);
                    }
                }
            }
        }

        obs.drift_rmspe = self.live_rmspe();
        obs
    }

    /// Feeds one committed screening rejection (in commit order) through
    /// the margin state machine. [`REJECTION_RELAX_STREAK`] unbroken
    /// rejections while a margin is active relax it one step — the
    /// starvation valve that keeps a tightened margin from choking the
    /// search on a taut budget. Rejections are committed trace entries, so
    /// this stays a pure function of the committed prefix.
    pub fn observe_rejection(&mut self) -> CommitObservation {
        let mut obs = CommitObservation::default();
        if self.margin_steps == 0 {
            self.rejection_streak = 0;
            return obs;
        }
        self.rejection_streak += 1;
        if self.rejection_streak >= REJECTION_RELAX_STREAK {
            self.rejection_streak = 0;
            self.margin_steps -= 1;
            self.clean_streak = 0;
            obs.events.push(DriftEvent::MarginRelaxed);
            obs.oracle_changed = true;
        }
        obs
    }

    /// Refits every model that has full measurement coverage, through the
    /// same k-fold lstsq path as the profiler, reusing each base model's
    /// feature map and target transform. Returns `None` (recalibration
    /// skipped, old models kept) while the power model lacks the
    /// `n ≥ max(k, 2·d)` samples `LinearHwModel` requires.
    fn refit_models(&self) -> Option<HwModels> {
        let power = refit_like(&self.models.power, &self.z_rows, &self.power_rows_w)?;
        let memory = match &self.models.memory {
            Some(base) if self.memory_rows_bytes.len() == self.z_rows.len() => Some(
                refit_like(base, &self.z_rows, &self.memory_rows_bytes)
                    .unwrap_or_else(|| base.clone()),
            ),
            other => other.clone(),
        };
        let latency = match &self.models.latency {
            Some(base) if self.latency_rows_s.len() == self.z_rows.len() => Some(
                refit_like(base, &self.z_rows, &self.latency_rows_s)
                    .unwrap_or_else(|| base.clone()),
            ),
            other => other.clone(),
        };
        Some(HwModels {
            power,
            memory,
            latency,
        })
    }
}

/// One recalibration fit: same shape as the base model, fitted on the
/// accumulated measurements. `None` if the data cannot support the fit.
fn refit_like(base: &LinearHwModel, z: &[Vec<f64>], y: &[f64]) -> Option<LinearHwModel> {
    LinearHwModel::fit_kfold_transformed(
        z,
        y,
        REFIT_FOLDS,
        base.feature_map(),
        base.target_transform(),
    )
    .ok()
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::FeatureMap;

    /// A power model fitted exactly on `P(z) = 60 + z₀` (1-dim z).
    fn toy_models() -> HwModels {
        let z: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = z.iter().map(|r| 60.0 + r[0]).collect();
        HwModels {
            power: LinearHwModel::fit_kfold(&z, &y, 5, FeatureMap::Linear).expect("toy fit"),
            memory: None,
            latency: None,
        }
    }

    fn monitor(config: DriftConfig) -> DriftMonitor {
        DriftMonitor::new(toy_models(), Budgets::power(Watts(90.0)), config)
    }

    #[test]
    fn default_config_is_inert() {
        assert!(DriftConfig::default().is_inert());
        assert!(!DriftConfig {
            recalibrate: true,
            ..DriftConfig::default()
        }
        .is_inert());
        assert!(!DriftConfig {
            safety_margin: 0.05,
            ..DriftConfig::default()
        }
        .is_inert());
    }

    #[test]
    fn accurate_measurements_cause_no_events() {
        let mut mon = monitor(DriftConfig {
            recalibrate: true,
            safety_margin: 0.1,
            ..DriftConfig::default()
        });
        for i in 0..10 {
            let z = [f64::from(i)];
            let obs = mon.observe_commit(&z, Watts(60.0 + z[0]), None, None, false);
            assert!(obs.events.is_empty(), "events at {i}: {:?}", obs.events);
            assert!(!obs.oracle_changed);
            assert!(obs.drift_rmspe.unwrap() < 1e-6);
        }
        assert_eq!(mon.recalibrations(), 0);
        assert_eq!(mon.margin_steps(), 0);
    }

    #[test]
    fn violations_tighten_then_clean_commits_relax() {
        let mut mon = monitor(DriftConfig {
            safety_margin: 0.1,
            ..DriftConfig::default()
        });
        let obs = mon.observe_commit(&[1.0], Watts(95.0), None, None, true);
        assert_eq!(obs.events, vec![DriftEvent::MarginTightened]);
        assert!(obs.oracle_changed);
        assert_eq!(mon.margin_steps(), 1);
        assert_eq!(mon.margin_frac(), 0.1);
        // The margined budgets shave 10% off the power budget; raw budgets
        // are untouched.
        let margined = mon.margined_budgets();
        assert_eq!(margined.power, Some(Watts(90.0)));
        assert_eq!(margined.power_margin, Watts(9.0));
        // Eight clean commits relax one step.
        let mut relaxed = false;
        for i in 0..8 {
            let obs = mon.observe_commit(&[1.0], Watts(61.0), None, None, false);
            relaxed |= obs.events.contains(&DriftEvent::MarginRelaxed);
            assert!(i == 7 || !relaxed, "relaxed too early at commit {i}");
        }
        assert!(relaxed);
        assert_eq!(mon.margin_steps(), 0);
        assert_eq!(mon.margined_budgets().power_margin, Watts::ZERO);
    }

    #[test]
    fn rejection_starvation_relaxes_an_active_margin() {
        let mut mon = monitor(DriftConfig {
            safety_margin: 0.1,
            ..DriftConfig::default()
        });
        // No margin active: rejections are ignored entirely.
        for _ in 0..REJECTION_RELAX_STREAK + 10 {
            let obs = mon.observe_rejection();
            assert!(obs.events.is_empty());
            assert!(!obs.oracle_changed);
        }
        // Tighten once, then starve: the valve must open exactly at the
        // streak threshold and the margin must drop back to zero.
        mon.observe_commit(&[1.0], Watts(95.0), None, None, true);
        assert_eq!(mon.margin_steps(), 1);
        for i in 1..REJECTION_RELAX_STREAK {
            assert!(mon.observe_rejection().events.is_empty(), "early at {i}");
        }
        let obs = mon.observe_rejection();
        assert_eq!(obs.events, vec![DriftEvent::MarginRelaxed]);
        assert!(obs.oracle_changed);
        assert_eq!(mon.margin_steps(), 0);
        // A measured commit resets the streak: the next rejection run
        // starts counting from scratch.
        mon.observe_commit(&[1.0], Watts(95.0), None, None, true);
        for _ in 0..REJECTION_RELAX_STREAK / 2 {
            assert!(mon.observe_rejection().events.is_empty());
        }
        mon.observe_commit(&[1.0], Watts(61.0), None, None, false);
        for _ in 0..REJECTION_RELAX_STREAK - 1 {
            assert!(mon.observe_rejection().events.is_empty());
        }
    }

    #[test]
    fn margin_never_exceeds_the_cap() {
        let mut mon = monitor(DriftConfig {
            safety_margin: 0.2,
            ..DriftConfig::default()
        });
        for _ in 0..10 {
            mon.observe_commit(&[1.0], Watts(95.0), None, None, true);
        }
        assert!(mon.margin_frac() <= MAX_MARGIN_FRAC);
        // Steps stop increasing once the cap is reached.
        assert_eq!(mon.margin_steps(), 3);
    }

    #[test]
    fn sustained_drift_recalibrates_and_resets_estimators() {
        let mut mon = monitor(DriftConfig {
            recalibrate: true,
            drift_threshold: 0.15,
            safety_margin: 0.0,
        });
        // Measurements 1.5× the model prediction: RMSPE ≈ 0.33.
        let mut recalibrated_at = None;
        for i in 0..10 {
            let z = [f64::from(i + 1)];
            let truth = (60.0 + z[0]) * 1.5;
            let obs = mon.observe_commit(&z, Watts(truth), None, None, false);
            if obs.events.contains(&DriftEvent::Recalibrated) {
                recalibrated_at = Some(i);
                assert!(obs.oracle_changed);
                assert!(obs
                    .events
                    .contains(&DriftEvent::DriftDetected(DriftTarget::Power)));
                // Estimators reset with the refit.
                assert_eq!(obs.drift_rmspe, None);
                break;
            }
        }
        let at = recalibrated_at.expect("drift must trigger a recalibration");
        assert!(at >= 3, "needs MIN_DRIFT_SAMPLES first (fired at {at})");
        assert_eq!(mon.recalibrations(), 1);
        // The refitted model predicts the *measured* relation.
        // Ridge regularisation (λ = 1e-6) shrinks the exact solution by a
        // hair, so compare against the measured relation loosely.
        let pred = mon.current_models().predict_power(&[4.0]).get();
        assert!(
            (pred - (60.0 + 4.0) * 1.5).abs() < 1e-2,
            "recalibrated prediction {pred}"
        );
    }

    #[test]
    fn detection_without_enough_refit_data_backs_off() {
        // 2-dim z needs 2·3 = 6 rows to refit; drive drift with only
        // enough rows to detect (4) — the detector fires, the refit is
        // skipped, and the cooldown suppresses immediate re-detection.
        let z: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(i % 5)])
            .collect();
        let y: Vec<f64> = z.iter().map(|r| 60.0 + r[0] + 2.0 * r[1]).collect();
        let models = HwModels {
            power: LinearHwModel::fit_kfold(&z, &y, 5, FeatureMap::Linear).expect("fit"),
            memory: None,
            latency: None,
        };
        let mut mon = DriftMonitor::new(
            models,
            Budgets::power(Watts(90.0)),
            DriftConfig {
                recalibrate: true,
                drift_threshold: 0.15,
                safety_margin: 0.0,
            },
        );
        let mut detections = 0;
        let mut recalibrations = 0;
        for i in 0..5 {
            let zi = [f64::from(i + 1), f64::from(i % 3)];
            let truth = (60.0 + zi[0] + 2.0 * zi[1]) * 2.0;
            let obs = mon.observe_commit(&zi, Watts(truth), None, None, false);
            detections += obs
                .events
                .iter()
                .filter(|e| matches!(e, DriftEvent::DriftDetected(_)))
                .count();
            recalibrations += obs
                .events
                .iter()
                .filter(|e| matches!(e, DriftEvent::Recalibrated))
                .count();
        }
        assert_eq!(detections, 1, "cooldown must suppress re-detection");
        assert_eq!(recalibrations, 0, "refit lacks the required samples");
        assert_eq!(mon.recalibrations(), 0);
    }

    #[test]
    fn wire_names_are_stable() {
        assert_eq!(
            DriftEvent::DriftDetected(DriftTarget::Power).wire_name(),
            "drift:power"
        );
        assert_eq!(DriftEvent::Recalibrated.wire_name(), "recalibrated");
        assert_eq!(DriftEvent::MarginTightened.wire_name(), "margin-tightened");
        assert_eq!(DriftEvent::MarginRelaxed.wire_name(), "margin-relaxed");
        assert_eq!(
            DegradationEvent::JitterEscalated { rung: 2 }.wire_name(),
            "jitter:2"
        );
        assert_eq!(
            DegradationEvent::RandWalkFallback.wire_name(),
            "rand-walk-fallback"
        );
    }
}

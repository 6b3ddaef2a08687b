use std::sync::Arc;

use hyperpower_linalg::{vector, Cholesky, Matrix};

use crate::optimize::{nelder_mead, NelderMeadOptions};
use crate::regressor::{log_marginal_likelihood, JITTER_START, JITTER_TRIES};
use crate::{Error, GpRegressor, Kernel, Result};

/// Options for [`fit_gp_hyperparams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Number of Nelder–Mead restarts from different initial points.
    pub restarts: usize,
    /// Objective-evaluation budget per restart.
    pub max_evals_per_restart: usize,
    /// Lower bound on the noise variance (keeps the surrogate from claiming
    /// to interpolate noisy observations exactly).
    pub min_noise_variance: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            restarts: 3,
            max_evals_per_restart: 120,
            min_noise_variance: 1e-6,
        }
    }
}

/// A GP whose hyper-parameters were chosen by marginal-likelihood
/// maximisation.
#[derive(Debug, Clone)]
pub struct FittedGp {
    /// The fitted regressor, ready for prediction.
    pub gp: GpRegressor,
    /// Selected kernel length scale.
    pub length_scale: f64,
    /// Selected signal variance.
    pub signal_variance: f64,
    /// Selected noise variance.
    pub noise_variance: f64,
}

/// Fits GP hyper-parameters (length scale, signal variance, noise variance)
/// by maximising the log marginal likelihood with multi-start Nelder–Mead
/// in log-space.
///
/// This mirrors what Spearmint does each Bayesian-optimization iteration
/// (it slice-samples; we optimise — the paper's behaviour only depends on
/// the surrogate being refit to the data each round, per Figure 2 step 3).
///
/// The search is seeded at data-driven heuristics (median pairwise distance
/// for the length scale, target variance for the signal variance) plus
/// perturbed restarts, so it is deterministic for a given dataset.
///
/// # Errors
///
/// Propagates fitting errors from [`GpRegressor::fit`] if even the fallback
/// heuristic hyper-parameters fail (e.g. empty data).
pub fn fit_gp_hyperparams(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
) -> Result<FittedGp> {
    // A non-finite noise floor would otherwise be silently ignored by
    // `f64::max` (NaN loses); reject it up front so callers poking the
    // failure path get a deterministic error instead of a quiet fit.
    if !(options.min_noise_variance.is_finite() && options.min_noise_variance > 0.0) {
        return Err(Error::InvalidHyperParameter {
            name: "min_noise_variance",
            value: options.min_noise_variance,
        });
    }
    // Searched inside a block so the workspace is freed before the final
    // fit allocates its own matrices.
    let params = {
        let mut workspace = LikelihoodWorkspace::new(x, y);
        // Data-driven initial guesses.
        let median_dist = workspace.covariance.median_distance().max(1e-3);
        let y_var = variance(y).max(1e-6);
        let init = [
            median_dist.ln(),
            y_var.ln(),
            (0.01 * y_var).max(options.min_noise_variance).ln(),
        ];

        let mut objective = |p: &[f64]| -> f64 {
            let length_scale = p[0].exp();
            let signal_variance = p[1].exp();
            let noise_variance = p[2].exp().max(options.min_noise_variance);
            if !(length_scale.is_finite()
                && signal_variance.is_finite()
                && noise_variance.is_finite())
            {
                return f64::INFINITY;
            }
            let kernel = base_kernel.with_length_scale(length_scale);
            workspace.neg_log_likelihood(kernel.as_ref(), signal_variance, noise_variance)
        };

        let mut best: Option<(Vec<f64>, f64)> = None;
        for restart in 0..options.restarts.max(1) {
            // Deterministic perturbations: restart 0 is the heuristic seed,
            // later restarts are offset in alternating directions.
            let offset = match restart {
                0 => [0.0, 0.0, 0.0],
                1 => [1.0, 0.5, 1.5],
                2 => [-1.0, -0.5, -1.5],
                r => {
                    let s = r as f64;
                    [s * 0.7, -s * 0.3, s * 0.9]
                }
            };
            let start: Vec<f64> = init.iter().zip(&offset).map(|(a, b)| a + b).collect();
            let result = nelder_mead(
                &mut objective,
                &start,
                NelderMeadOptions {
                    max_evals: options.max_evals_per_restart,
                    ..Default::default()
                },
            );
            if best.as_ref().is_none_or(|(_, f)| result.f < *f) {
                best = Some((result.x, result.f));
            }
        }

        // `restarts.max(1)` guarantees at least one entry; if every restart
        // diverged (or none ran), fall back to the heuristic seed.
        match best {
            Some((params, best_f)) if best_f.is_finite() => params,
            _ => init.to_vec(),
        }
    };
    let length_scale = params[0].exp();
    let signal_variance = params[1].exp();
    let noise_variance = params[2].exp().max(options.min_noise_variance);
    let gp = GpRegressor::fit(
        base_kernel.with_length_scale(length_scale),
        signal_variance,
        noise_variance,
        x,
        y,
    )?;
    Ok(FittedGp {
        gp,
        length_scale,
        signal_variance,
        noise_variance,
    })
}

/// A fit that may have climbed the noise-floor ladder before succeeding.
#[derive(Debug, Clone)]
pub struct LadderedFit {
    /// The fitted GP from the first rung that succeeded.
    pub fitted: FittedGp,
    /// How many rungs failed before this fit succeeded (0 = clean fit at
    /// the requested noise floor).
    pub rungs: u32,
}

/// Like [`fit_gp_hyperparams`], but escalates the noise floor through a
/// deterministic jitter ladder instead of failing outright.
///
/// Rung `r` retries the fit with `min_noise_variance × 100^r`, for
/// `r = 0..=max_rungs`. A larger noise floor inflates the diagonal of the
/// kernel matrix, which rescues Cholesky factorizations that fail on
/// near-duplicate inputs at the cost of a less confident surrogate. The
/// ladder is a pure function of the data and options — no randomness, no
/// retry loops with side effects — so callers can log each escalation as a
/// typed event and stay reproducible.
///
/// # Errors
///
/// Returns the last rung's error if every rung fails (e.g. a non-finite
/// noise floor poisons all rungs, or the data itself is degenerate).
pub fn fit_gp_hyperparams_laddered(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
    max_rungs: u32,
) -> Result<LadderedFit> {
    let mut last: Result<LadderedFit> = Err(Error::NoObservations);
    for rung in 0..=max_rungs {
        let floor = options.min_noise_variance * 100f64.powi(rung as i32);
        let rung_options = FitOptions {
            min_noise_variance: floor,
            ..options
        };
        match fit_gp_hyperparams(base_kernel.clone(), x, y, rung_options) {
            Ok(fitted) => {
                return Ok(LadderedFit {
                    fitted,
                    rungs: rung,
                })
            }
            Err(e) => last = Err(e),
        }
    }
    last
}

/// What one fit's marginal-likelihood evaluations share: the pairwise
/// squared distances, the centred targets, and scratch for the covariance
/// factor and the solve, reused by every evaluation.
///
/// [`LikelihoodWorkspace::neg_log_likelihood`] is `−GpRegressor::fit(..)
/// .log_marginal_likelihood()`, or `+∞` where that fit fails, bit for bit:
/// the kernel values come from the same squared distances through
/// [`Kernel::eval_sq_dist`], the covariance and its jittered retries add
/// in the same order, and the factorization, solves and log-determinant
/// run the same operation sequences on a reused buffer.
#[derive(Debug)]
struct LikelihoodWorkspace {
    covariance: PackedCovariance,
    /// Targets minus their mean; `None` if the data fail a check of
    /// [`GpRegressor::fit`] (no rows, a length mismatch or a non-finite
    /// target), which makes every evaluation score `+∞`.
    y_centered: Option<Vec<f64>>,
    alpha: Vec<f64>,
    log_pivots: Vec<f64>,
}

/// The pairwise squared distances of one fit's inputs, and the buffer
/// their covariance is built and factored in.
#[derive(Debug)]
struct PackedCovariance {
    n: usize,
    /// `‖xᵢ − xⱼ‖²` for `j ≤ i`, the lower triangle packed row by row.
    d2: Vec<f64>,
    /// n×n row-major; its lower triangle holds the covariance, then `L`.
    factor: Vec<f64>,
}

impl LikelihoodWorkspace {
    fn new(x: &Matrix, y: &[f64]) -> Self {
        let n = x.rows();
        let mut d2 = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in 0..=i {
                d2.push(vector::squared_distance(x.row(i), x.row(j)));
            }
        }
        let y_centered = (n > 0 && y.len() == n && y.iter().all(|v| v.is_finite())).then(|| {
            let y_mean = y.iter().sum::<f64>() / n as f64;
            y.iter().map(|v| v - y_mean).collect()
        });
        LikelihoodWorkspace {
            covariance: PackedCovariance {
                n,
                d2,
                factor: vec![0.0; n * n],
            },
            y_centered,
            alpha: vec![0.0; n],
            log_pivots: vec![0.0; n],
        }
    }

    /// Negative log marginal likelihood under `kernel`, `signal_variance`
    /// and `noise_variance`; `+∞` wherever [`GpRegressor::fit`] would fail.
    fn neg_log_likelihood(
        &mut self,
        kernel: &dyn Kernel,
        signal_variance: f64,
        noise_variance: f64,
    ) -> f64 {
        let Some(y_centered) = &self.y_centered else {
            return f64::INFINITY;
        };
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let covariance = &mut self.covariance;
        if !positive(signal_variance)
            || !positive(noise_variance)
            || !covariance.factorize(kernel, signal_variance, noise_variance)
        {
            return f64::INFINITY;
        }
        self.alpha.copy_from_slice(y_centered);
        if Cholesky::solve_in_place(&covariance.factor, covariance.n, &mut self.alpha).is_err() {
            return f64::INFINITY;
        }
        hyperpower_linalg::debug_assert_finite!("gp fit alpha", &self.alpha);
        for (i, lp) in self.log_pivots.iter_mut().enumerate() {
            *lp = covariance.factor[i * covariance.n + i].ln();
        }
        let log_det = vector::sum_ordered(&self.log_pivots) * 2.0;
        -log_marginal_likelihood(y_centered, &self.alpha, log_det)
    }
}

impl PackedCovariance {
    /// Median of the pairwise distances `√d2` over `j < i` (1.0 below two
    /// rows): the seed for the length scale.
    fn median_distance(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let mut dists = Vec::with_capacity(self.n * (self.n - 1) / 2);
        let mut start = 0;
        for i in 0..self.n {
            dists.extend(self.d2[start..start + i].iter().map(|d2| d2.sqrt()));
            start += i + 1;
        }
        dists.sort_by(f64::total_cmp);
        dists[dists.len() / 2]
    }

    /// Factors `σf²·K + σn²·I` in place, escalating diagonal jitter exactly
    /// as [`Cholesky::factor_with_jitter`] does inside [`GpRegressor::fit`].
    /// Returns whether some attempt succeeded.
    fn factorize(&mut self, kernel: &dyn Kernel, sv: f64, nv: f64) -> bool {
        self.build(kernel, sv, nv, None);
        match Cholesky::factor_in_place(&mut self.factor, self.n) {
            Ok(()) => return true,
            Err(hyperpower_linalg::Error::NotPositiveDefinite { .. }) => {}
            Err(_) => return false,
        }
        let mut jitter = JITTER_START;
        for _ in 0..JITTER_TRIES {
            self.build(kernel, sv, nv, Some(jitter));
            if Cholesky::factor_in_place(&mut self.factor, self.n).is_ok() {
                return true;
            }
            jitter *= 10.0;
        }
        false
    }

    /// Writes the lower triangle of `σf²·K + σn²·I (+ jitter·I)` into the
    /// factor buffer, adding as `GpRegressor::fit` does:
    /// `(k·σf² + σn²) + jitter` on the diagonal.
    fn build(&mut self, kernel: &dyn Kernel, sv: f64, nv: f64, jitter: Option<f64>) {
        let mut start = 0;
        for (i, row) in self.factor.chunks_exact_mut(self.n).enumerate() {
            let d2 = &self.d2[start..=start + i];
            start += i + 1;
            for (v, &d) in row.iter_mut().zip(d2) {
                *v = kernel.eval_sq_dist(d) * sv;
            }
            row[i] += nv;
            if let Some(jitter) = jitter {
                row[i] += jitter;
            }
        }
    }
}

fn variance(y: &[f64]) -> f64 {
    if y.len() < 2 {
        return 1.0;
    }
    let m = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (y.len() - 1) as f64
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Matern52;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), ys)
    }

    #[test]
    fn fitted_gp_beats_arbitrary_hyperparams() {
        let (x, y) = sine_data(15);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        let naive =
            GpRegressor::fit(Matern52::new(0.01).into_kernel(), 100.0, 1.0, &x, &y).unwrap();
        assert!(fitted.gp.log_marginal_likelihood() > naive.log_marginal_likelihood());
    }

    #[test]
    fn fitted_gp_predicts_smooth_function() {
        let (x, y) = sine_data(20);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        // Interpolate at a held-out point.
        let p = fitted.gp.predict(&[2.25]).unwrap();
        assert!((p.mean - 2.25f64.sin()).abs() < 0.15, "mean {}", p.mean);
    }

    #[test]
    fn hyperparams_are_positive() {
        let (x, y) = sine_data(10);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions {
                restarts: 2,
                max_evals_per_restart: 60,
                min_noise_variance: 1e-7,
            },
        )
        .unwrap();
        assert!(fitted.length_scale > 0.0);
        assert!(fitted.signal_variance > 0.0);
        assert!(fitted.noise_variance >= 1e-7);
    }

    #[test]
    fn works_with_two_points() {
        let x = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let y = [0.0, 1.0];
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        assert_eq!(fitted.gp.num_observations(), 2);
    }

    #[test]
    fn ladder_reports_zero_rungs_on_clean_data() {
        let (x, y) = sine_data(12);
        let laddered = fit_gp_hyperparams_laddered(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
            2,
        )
        .unwrap();
        assert_eq!(laddered.rungs, 0);
        assert!(laddered.fitted.noise_variance >= 1e-6);
    }

    #[test]
    fn non_finite_noise_floor_fails_every_rung() {
        let (x, y) = sine_data(8);
        let options = FitOptions {
            min_noise_variance: f64::NAN,
            ..FitOptions::default()
        };
        let direct = fit_gp_hyperparams(Matern52::new(1.0).into_kernel(), &x, &y, options);
        assert!(matches!(
            direct,
            Err(Error::InvalidHyperParameter {
                name: "min_noise_variance",
                ..
            })
        ));
        let laddered =
            fit_gp_hyperparams_laddered(Matern52::new(1.0).into_kernel(), &x, &y, options, 2);
        assert!(laddered.is_err());
    }

    #[test]
    fn workspace_scores_as_the_regressor_through_jitter_and_failure() {
        // Rows 0/1 and 2/3 coincide, so the covariance is singular up to
        // the noise: tiny noise needs jitter, and a huge signal variance
        // swamps even the largest jitter. At (0.1, 3e-18) the jittered
        // diagonal rounds differently unless it adds `(k·σf² + σn²) +
        // jitter` in that order.
        let x =
            Matrix::from_vec(5, 2, vec![0.1, 0.2, 0.1, 0.2, 0.7, 0.4, 0.7, 0.4, 0.3, 0.9]).unwrap();
        let y = [0.2, 0.3, -0.1, 0.0, 0.5];
        let mut workspace = LikelihoodWorkspace::new(&x, &y);
        let kernel = Matern52::new(0.5);
        let (mut jittered, mut failed) = (0, 0);
        for (sv, nv) in [
            (1.0, 1e-3),
            (1.0, 1e-300),
            (2.5, 1e-14),
            (0.1, 3e-18),
            (1e20, 1e-300),
            (1.0, 0.0),
        ] {
            let mut cov = kernel.matrix(&x).scale(sv);
            cov.add_diagonal(nv);
            let expected = match GpRegressor::fit(kernel.into_kernel(), sv, nv, &x, &y) {
                Ok(gp) => {
                    jittered += usize::from(Cholesky::factor(&cov).is_err());
                    -gp.log_marginal_likelihood()
                }
                Err(_) => {
                    failed += 1;
                    f64::INFINITY
                }
            };
            let actual = workspace.neg_log_likelihood(&kernel, sv, nv);
            assert_eq!(actual.to_bits(), expected.to_bits(), "sv {sv} nv {nv}");
        }
        assert!(jittered > 0, "no case needed jitter");
        assert!(failed >= 2, "the failure cases did not fail");
    }

    #[test]
    fn deterministic_for_same_data() {
        let (x, y) = sine_data(12);
        let k = Matern52::new(1.0).into_kernel();
        let a = fit_gp_hyperparams(k.clone(), &x, &y, FitOptions::default()).unwrap();
        let b = fit_gp_hyperparams(k, &x, &y, FitOptions::default()).unwrap();
        assert_eq!(a.length_scale, b.length_scale);
        assert_eq!(a.noise_variance, b.noise_variance);
    }
}

//! Frozen reference fit — `fit_gp_hyperparams_laddered` as it was before
//! the per-fit likelihood workspace: every Nelder–Mead step scores
//! `-GpRegressor::fit(..).log_marginal_likelihood()`, rebuilding the
//! kernel matrix through `dyn Kernel` and factoring a fresh copy.
//!
//! The library fit must reproduce this oracle *bit for bit* (length scale,
//! signal and noise variance, log-likelihood, ladder rung, and the error on
//! failure), because the golden traces pin every value the fitted GP feeds
//! into the search. Do not "improve" this code — its whole value is that it
//! never changes.

// Oracle code mirrors the original implementation, panics and all.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

use std::sync::Arc;

use hyperpower_gp::optimize::{nelder_mead, NelderMeadOptions};
use hyperpower_gp::{Error, FitOptions, FittedGp, GpRegressor, Kernel, LadderedFit, Result};
use hyperpower_linalg::Matrix;

/// The original `fit_gp_hyperparams`.
pub fn oracle_fit(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
) -> Result<FittedGp> {
    if !(options.min_noise_variance.is_finite() && options.min_noise_variance > 0.0) {
        return Err(Error::InvalidHyperParameter {
            name: "min_noise_variance",
            value: options.min_noise_variance,
        });
    }
    let median_dist = median_pairwise_distance(x).max(1e-3);
    let y_var = variance(y).max(1e-6);
    let init = [
        median_dist.ln(),
        y_var.ln(),
        (0.01 * y_var).max(options.min_noise_variance).ln(),
    ];

    let objective = |p: &[f64]| -> f64 {
        let length_scale = p[0].exp();
        let signal_variance = p[1].exp();
        let noise_variance = p[2].exp().max(options.min_noise_variance);
        if !(length_scale.is_finite() && signal_variance.is_finite() && noise_variance.is_finite())
        {
            return f64::INFINITY;
        }
        let kernel = base_kernel.with_length_scale(length_scale);
        match GpRegressor::fit(kernel, signal_variance, noise_variance, x, y) {
            Ok(gp) => -gp.log_marginal_likelihood(),
            Err(_) => f64::INFINITY,
        }
    };

    let mut best: Option<(Vec<f64>, f64)> = None;
    for restart in 0..options.restarts.max(1) {
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
            objective,
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

    let params = match best {
        Some((params, best_f)) if best_f.is_finite() => params,
        _ => init.to_vec(),
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

/// The original `fit_gp_hyperparams_laddered`.
pub fn oracle_fit_laddered(
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
        match oracle_fit(base_kernel.clone(), x, y, rung_options) {
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

fn median_pairwise_distance(x: &Matrix) -> f64 {
    let n = x.rows();
    if n < 2 {
        return 1.0;
    }
    let mut dists = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in 0..i {
            dists.push(hyperpower_linalg::vector::squared_distance(x.row(i), x.row(j)).sqrt());
        }
    }
    dists.sort_by(f64::total_cmp);
    dists[dists.len() / 2]
}

fn variance(y: &[f64]) -> f64 {
    if y.len() < 2 {
        return 1.0;
    }
    let m = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (y.len() - 1) as f64
}

/// Asserts that two laddered fits agree bit for bit: hyper-parameters,
/// log-likelihood and rung on success, the same error on failure.
pub fn assert_fits_bit_equal(
    label: &str,
    expected: &Result<LadderedFit>,
    actual: &Result<LadderedFit>,
) {
    match (expected, actual) {
        (Ok(e), Ok(a)) => {
            let fields = [
                ("length_scale", e.fitted.length_scale, a.fitted.length_scale),
                (
                    "signal_variance",
                    e.fitted.signal_variance,
                    a.fitted.signal_variance,
                ),
                (
                    "noise_variance",
                    e.fitted.noise_variance,
                    a.fitted.noise_variance,
                ),
                (
                    "log_marginal_likelihood",
                    e.fitted.gp.log_marginal_likelihood(),
                    a.fitted.gp.log_marginal_likelihood(),
                ),
            ];
            for (name, ev, av) in fields {
                assert!(
                    ev.to_bits() == av.to_bits(),
                    "{label}: {name} differs: oracle {ev:?} ({:#018x}) vs fit {av:?} ({:#018x})",
                    ev.to_bits(),
                    av.to_bits()
                );
            }
            assert_eq!(e.rungs, a.rungs, "{label}: rungs differ");
        }
        // Debug text, not `==`: a NaN payload in an error is still "the
        // same error".
        (Err(e), Err(a)) => {
            assert_eq!(format!("{e:?}"), format!("{a:?}"), "{label}: errors differ")
        }
        (e, a) => panic!(
            "{label}: outcomes differ: oracle ok={} vs fit ok={}",
            e.is_ok(),
            a.is_ok()
        ),
    }
}

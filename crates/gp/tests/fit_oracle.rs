//! The hyper-parameter fit against its frozen oracle.
//!
//! `fit_gp_hyperparams` scores its Nelder–Mead steps through a per-fit
//! likelihood workspace (pairwise distances computed once, one reused
//! factor buffer). `tests/common/mod.rs` keeps the objective it replaced:
//! a full `GpRegressor::fit` per step. The two must agree bit for bit on
//! every fitted hyper-parameter, the log-likelihood and the ladder rung —
//! and on the error when the fit fails.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use std::sync::Arc;

use common::{assert_fits_bit_equal, oracle_fit_laddered};
use hyperpower_gp::{
    fit_gp_hyperparams_laddered, FitOptions, Kernel, Matern52, SquaredExponential,
};
use hyperpower_linalg::Matrix;
use proptest::prelude::*;
use proptest::sample::select;

/// The searcher's own fit settings (`hyperpower::methods`): 2 restarts ×
/// 80 evaluations, a 1e-6 noise floor and a two-rung jitter ladder.
const OPTIONS: FitOptions = FitOptions {
    restarts: 2,
    max_evals_per_restart: 80,
    min_noise_variance: 1e-6,
};
const MAX_RUNGS: u32 = 2;

fn check(label: &str, kernel: Arc<dyn Kernel>, x: &Matrix, y: &[f64], options: FitOptions) {
    let expected = oracle_fit_laddered(kernel.clone(), x, y, options, MAX_RUNGS);
    let actual = fit_gp_hyperparams_laddered(kernel, x, y, options, MAX_RUNGS);
    assert_fits_bit_equal(label, &expected, &actual);
}

/// Points in the unit hypercube (the searcher's encoding) with targets from
/// a smooth function plus per-point noise, like test errors of trained
/// networks.
fn dataset() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (
        select(vec![1usize, 2, 3, 7, 33, 65, 150]),
        select(vec![1usize, 13]),
    )
        .prop_flat_map(|(n, d)| {
            (
                proptest::collection::vec(0.0f64..1.0, n * d),
                proptest::collection::vec(-0.05f64..0.05, n),
            )
                .prop_map(move |(xs, noise)| {
                    let x = Matrix::from_vec(n, d, xs).expect("sized to shape");
                    let y = (0..n)
                        .map(|i| {
                            let r = x.row(i);
                            0.3 + 0.2 * (3.0 * r[0]).sin()
                                + r.iter().sum::<f64>() / d as f64
                                + noise[i]
                        })
                        .collect();
                    (x, y)
                })
        })
}

proptest! {
    #[test]
    fn laddered_fit_bit_equals_oracle((x, y) in dataset()) {
        check(
            &format!("matern n={} d={}", x.rows(), x.cols()),
            Matern52::new(0.5).into_kernel(),
            &x,
            &y,
            OPTIONS,
        );
    }
}

#[test]
fn squared_exponential_fit_bit_equals_oracle() {
    for (n, d) in [(7, 1), (33, 13), (65, 13)] {
        let x = Matrix::from_fn(n, d, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        check(
            &format!("squared exponential n={n} d={d}"),
            SquaredExponential::new(1.0).into_kernel(),
            &x,
            &y,
            OPTIONS,
        );
    }
}

#[test]
fn near_duplicate_rows_bit_equal_oracle() {
    // Rows come in pairs `gap` apart with equal targets, so the covariance
    // is singular to working precision once the noise falls ~1e-15 below
    // the signal. A low noise floor lets the search go there: it retries
    // with jitter on many steps, and for the exact duplicates at n = 20
    // the optimum itself needs jitter (noise/signal ≈ 1e-16).
    for (n, d, gap) in [(8, 1, 1e-9), (20, 1, 0.0), (40, 13, 1e-9)] {
        let x = Matrix::from_fn(n, d, |i, j| {
            ((i / 2 * 5 + j * 3) % 13) as f64 / 13.0 + (i % 2) as f64 * gap
        });
        let y: Vec<f64> = (0..n).map(|i| ((i / 2) as f64 * 0.61).cos()).collect();
        for min_noise_variance in [1e-6, 1e-14, 1e-300] {
            check(
                &format!("near-duplicate n={n} d={d} gap={gap:e} floor={min_noise_variance:e}"),
                Matern52::new(0.5).into_kernel(),
                &x,
                &y,
                FitOptions {
                    min_noise_variance,
                    ..OPTIONS
                },
            );
        }
    }
}

#[test]
fn non_finite_targets_fail_with_the_oracle_error() {
    let x = Matrix::from_fn(6, 2, |i, j| (i + j) as f64 * 0.1);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut y: Vec<f64> = (0..6).map(|i| i as f64 * 0.2).collect();
        y[3] = bad;
        let expected =
            oracle_fit_laddered(Matern52::new(0.5).into_kernel(), &x, &y, OPTIONS, MAX_RUNGS);
        assert!(expected.is_err(), "the oracle rejects a {bad} target");
        let actual = fit_gp_hyperparams_laddered(
            Matern52::new(0.5).into_kernel(),
            &x,
            &y,
            OPTIONS,
            MAX_RUNGS,
        );
        assert_fits_bit_equal(&format!("target {bad}"), &expected, &actual);
    }
}

#[test]
fn degenerate_inputs_fail_with_the_oracle_error() {
    // No rows, a target-count mismatch, and a non-finite input row.
    let empty = Matrix::zeros(0, 3);
    check(
        "no rows",
        Matern52::new(0.5).into_kernel(),
        &empty,
        &[],
        OPTIONS,
    );
    let x = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
    check(
        "mismatch",
        Matern52::new(0.5).into_kernel(),
        &x,
        &[1.0, 2.0],
        OPTIONS,
    );
    let mut x_nan = x.clone();
    x_nan[(2, 1)] = f64::NAN;
    check(
        "nan row",
        Matern52::new(0.5).into_kernel(),
        &x_nan,
        &[0.1, 0.4, 0.2, 0.3],
        OPTIONS,
    );
}

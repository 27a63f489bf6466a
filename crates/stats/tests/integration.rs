//! Integration tests exercising the public `comparesets-stats` API the
//! way the eval harness composes it: bootstrap intervals cross-checked
//! against the closed-form normal approximation, the paired t-test
//! awarding a star only to a significant improvement, and the
//! `None`-on-degenerate-input contract holding across both entry points.

use comparesets_stats::{bootstrap_mean_ci, mean, paired_t_test, sem};

/// A deterministic, well-behaved sample with mild variation.
fn sample(n: usize, base: f64, amp: f64) -> Vec<f64> {
    (0..n)
        .map(|i| base + amp * (i as f64 * 0.618).sin())
        .collect()
}

#[test]
fn bootstrap_ci_matches_closed_form_normal_width() {
    // For a large sample, the 95% percentile-bootstrap CI of the mean
    // should approximate the closed-form mean ± 1.96·SEM interval.
    let xs = sample(400, 10.0, 1.0);
    let ci = bootstrap_mean_ci(&xs, 0.95, 4000, 42).unwrap();
    let m = mean(&xs);
    let half = 1.96 * sem(&xs);
    assert!((ci.estimate - m).abs() < 1e-12);
    assert!(ci.contains(m));
    let boot_half = (ci.high - ci.low) / 2.0;
    assert!(
        (boot_half - half).abs() / half < 0.25,
        "bootstrap half-width {boot_half:.4} vs closed-form {half:.4}"
    );
    // The interval is roughly centred on the estimate.
    let asymmetry = ((ci.high - m) - (m - ci.low)).abs();
    assert!(asymmetry < half, "asymmetry {asymmetry:.4}");
}

#[test]
fn t_test_stars_only_significant_improvements() {
    // Clear improvement: the test awards the star. The amplitudes
    // differ so the pairwise differences vary (a zero-variance
    // difference series is undefined for the t statistic).
    let better = sample(40, 5.5, 0.2);
    let worse = sample(40, 5.0, 0.15);
    let t = paired_t_test(&better, &worse).unwrap();
    assert!(t.significant_improvement(0.05));

    // Pure noise: no star.
    let a: Vec<f64> = (0..40)
        .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
        .collect();
    let b: Vec<f64> = (0..40)
        .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
        .collect();
    let t = paired_t_test(&a, &b).unwrap();
    assert!(!t.significant_improvement(0.05));

    // Significant in the wrong direction: a star is never awarded for a
    // regression.
    let t = paired_t_test(&worse, &better).unwrap();
    assert!(t.p_value < 0.05 && !t.significant_improvement(0.05));
}

#[test]
fn separated_populations_have_disjoint_cis_and_significant_tests() {
    // The harness uses overlapping CIs as "indistinguishable at this
    // scale"; disjoint CIs should coincide with significant tests.
    let low = sample(60, 1.0, 0.1);
    let high = sample(60, 2.0, 0.08);
    let ci_low = bootstrap_mean_ci(&low, 0.95, 2000, 7).unwrap();
    let ci_high = bootstrap_mean_ci(&high, 0.95, 2000, 7).unwrap();
    assert!(!ci_low.overlaps(&ci_high));
    assert!(paired_t_test(&high, &low)
        .unwrap()
        .significant_improvement(0.05));
}

#[test]
fn misaligned_inputs_yield_none_everywhere() {
    // Misaligned paired input is `None`, never a panic or a truncated
    // comparison.
    let a = [1.0, 2.0, 3.0];
    let b = [1.0, 2.0];
    assert!(paired_t_test(&a, &b).is_none());
    assert!(paired_t_test(&b, &a).is_none());
}

#[test]
fn degenerate_inputs_yield_none_everywhere() {
    // Empty samples.
    assert!(bootstrap_mean_ci(&[], 0.95, 100, 0).is_none());
    assert!(paired_t_test(&[], &[]).is_none());
    // Zero-variance pairs: no statistic is defined, no star awarded.
    let same = [3.0; 12];
    assert!(paired_t_test(&same, &same).is_none());
    // Out-of-range confidence or no resamples.
    assert!(bootstrap_mean_ci(&[1.0, 2.0], 1.0, 100, 0).is_none());
    assert!(bootstrap_mean_ci(&[1.0, 2.0], 0.95, 0, 0).is_none());
}

#[test]
fn non_finite_values_degrade_gracefully() {
    let clean = sample(12, 10.0, 0.5);
    let mut poisoned = clean.clone();
    poisoned[4] = f64::NAN;
    let shifted: Vec<f64> = clean.iter().map(|x| x - 1.0).collect();
    // The t-test refuses poisoned input outright.
    assert!(paired_t_test(&poisoned, &shifted).is_none());
}

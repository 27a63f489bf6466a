//! The per-item answer memo priced as exact work. Multi-sweep
//! CompaReSetS+ on the bench fixture (`instance(&corpus(), 8)`,
//! `SelectParams::default()`) runs with the memos on (the default) and
//! off (`with_warm_start(false)`): from the second sweep on, every
//! regression repeats one of the sweep before, so the memo answers it and
//! no NNLS refit runs for it. Counts do not move with the host, so a
//! memo that stops answering fails here on any machine.

use comparesets_bench::{corpus, instance};
use comparesets_core::{
    solve_comparesets_plus_sweeps_with, MetricsSnapshot, SelectParams, Selection, SolveOptions,
    SolverMetrics,
};
use std::sync::Arc;

/// Per sweep count: (sweeps, cold `nnls_refits`, warm `warm_start_hits`,
/// `integer_regressions`). A warm solve refits only in its first sweep
/// (47 refits whatever the sweep count); each later sweep adds 9
/// regressions and 23 refits cold, and 23 memo hits warm.
const EXPECTED: [(usize, u64, u64, u64); 4] = [
    (1, 47, 0, 18),
    (2, 70, 23, 27),
    (3, 93, 46, 36),
    (4, 116, 69, 45),
];
const WARM_REFITS: u64 = 47;

#[test]
fn answer_memo_replaces_every_repeated_refit() {
    let dataset = corpus();
    let ctx = instance(&dataset, 8);
    let params = SelectParams::default();
    let solve = |sweeps: usize, warm: bool| -> (Vec<Selection>, MetricsSnapshot) {
        let metrics = Arc::new(SolverMetrics::new());
        let opts = SolveOptions::default()
            .with_warm_start(warm)
            .with_metrics(Arc::clone(&metrics));
        let selections = solve_comparesets_plus_sweeps_with(&ctx, &params, sweeps, &opts);
        (selections, metrics.snapshot())
    };
    let mut got = Vec::new();
    for (sweeps, ..) in EXPECTED {
        let (cold_selections, cold) = solve(sweeps, false);
        let (warm_selections, warm) = solve(sweeps, true);
        assert_eq!(warm_selections, cold_selections, "sweeps {sweeps}");
        assert_eq!(
            cold.warm_start_hits, 0,
            "sweeps {sweeps}: a cold solve hit a memo"
        );
        assert_eq!(
            warm.integer_regressions, cold.integer_regressions,
            "sweeps {sweeps}"
        );
        got.push((
            sweeps,
            cold.nnls_refits,
            warm.nnls_refits,
            warm.warm_start_hits,
            cold.integer_regressions,
        ));
    }
    let expected: Vec<_> = EXPECTED
        .iter()
        .map(|&(sweeps, cold_refits, hits, regressions)| {
            (sweeps, cold_refits, WARM_REFITS, hits, regressions)
        })
        .collect();
    assert_eq!(
        got, expected,
        "(sweeps, cold refits, warm refits, warm memo hits, regressions) per sweep count"
    );
}

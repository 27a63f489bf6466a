//! Schema tests for the committed machine-readable reports: the bench
//! baseline at the workspace root must deserialize through the shared
//! [`comparesets_bench::BenchReport`] types and pass structural
//! validation, the solver-metrics report behind the CLI's
//! `--metrics-json` must carry every counter of [`COUNTERS`] and read a
//! report missing any of them, and ARCHITECTURE.md's counter table must
//! match that list.

use comparesets_bench::{BenchReport, ServeBenchReport, StreamBenchReport, TargetHksBenchReport};
use comparesets_core::{MetricsReport, MetricsSnapshot, COUNTERS, METRICS_SCHEMA};
use std::path::Path;
use std::time::Duration;

fn workspace_root() -> &'static Path {
    // CARGO_MANIFEST_DIR = crates/bench; the reports live two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the workspace root")
}

#[test]
fn committed_bench_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_parallel_solver.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: BenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "parallel_solver");
    // The baseline must cover both headline workload families.
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("regression_engine/")),
        "missing regression_engine workloads: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("solver_parallel/")),
        "missing solver_parallel workloads: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("alternation/")),
        "missing alternation (warm vs cold) workloads: {names:?}"
    );
    // The alternation family must cover both engines at every sweep depth
    // so the warm-vs-cold speedup in PERFORMANCE.md stays reproducible.
    for sweeps in 1..=4 {
        for engine in ["cold", "warm"] {
            let want = format!("alternation/{engine}/sweeps{sweeps}");
            assert!(
                names.iter().any(|n| *n == want),
                "missing {want}: {names:?}"
            );
        }
    }
    // Re-serializing the parsed report loses no fields.
    let round_tripped: BenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_sparse_baseline_matches_schema_and_acceptance() {
    let path = workspace_root().join("BENCH_sparse.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: BenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "nomp_sparse");
    let seconds = |name: &str| {
        report
            .measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.seconds_min)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    // The PR's acceptance criterion: on the paper-shaped 16 000x80
    // workload (<=10% nnz) the CSC backend is at least 2x faster than the
    // dense kernels. Guarded against the committed baseline so a sparse
    // kernel regression breaks the build instead of silently rotting the
    // PERFORMANCE.md numbers.
    let dense = seconds("regression_engine/sparse/dense/16000x80");
    let csc = seconds("regression_engine/sparse/csc/16000x80");
    assert!(
        csc * 2.0 <= dense,
        "csc {csc}s is not >=2x faster than dense {dense}s on 16000x80"
    );
    // The crossover sweep must cover both representations at every
    // density so the ~65% break-even (the reason core always builds CSC
    // for its 1-2% dense tasks) stays reproducible, and the
    // committed grid must show a clear sparse win at paper-like
    // densities (the advantage decays to parity near the crossover).
    for pct in [5u32, 10, 15, 20, 25, 30, 40, 50, 65, 80, 100] {
        for backend in ["dense", "csc"] {
            let want = format!("regression_engine/sparse/crossover/{backend}/d{pct:02}");
            assert!(
                report.measurements.iter().any(|m| m.name == want),
                "missing {want}"
            );
        }
    }
    let d05 = seconds("regression_engine/sparse/crossover/dense/d05");
    let c05 = seconds("regression_engine/sparse/crossover/csc/d05");
    assert!(
        c05 * 2.0 <= d05,
        "csc {c05}s is not >=2x faster than dense {d05}s at 5% density"
    );
    let round_tripped: BenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_serve_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_serve.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: ServeBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "serve");
    // Both server modes at every concurrency level the PR's acceptance
    // criterion quotes.
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for mode in ["cold", "warm"] {
        for clients in [1, 8, 64] {
            let want = format!("serve/{mode}/clients{clients}");
            assert!(
                names.iter().any(|n| *n == want),
                "missing {want}: {names:?}"
            );
        }
    }
    // The headline claim: the warm path is at least 5x faster than a cold
    // solve at 8 concurrent clients. Guarded here so a regression in the
    // session cache breaks the build instead of silently rotting the
    // committed numbers.
    let p50 = |name: &str| {
        report
            .measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.p50_ms)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let cold = p50("serve/cold/clients8");
    let warm = p50("serve/warm/clients8");
    assert!(
        warm * 5.0 <= cold,
        "warm p50 {warm}ms is not >=5x faster than cold p50 {cold}ms"
    );
    let round_tripped: ServeBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_targethks_baseline_matches_schema_and_acceptance() {
    let path = workspace_root().join("BENCH_targethks.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: TargetHksBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "targethks_scaling");
    // The PR's acceptance criterion, guarded against the committed grid:
    // the deadline bites somewhere, the 4-thread anytime solver closes
    // strictly more of those open cells or certifies a strictly smaller
    // mean bound gap, and both modes prove the same optimum on every cell
    // both close.
    report
        .anytime_acceptance()
        .unwrap_or_else(|e| panic!("{} fails the anytime acceptance: {e}", path.display()));
    // The grid must actually be a vertices x k grid, spanning both easy
    // (closed) and deadline-bound (open) cells.
    let vertex_sizes: std::collections::HashSet<usize> =
        report.cells.iter().map(|c| c.vertices).collect();
    let ks: std::collections::HashSet<usize> = report.cells.iter().map(|c| c.k).collect();
    assert!(vertex_sizes.len() >= 3, "grid too narrow: {vertex_sizes:?}");
    assert!(ks.len() >= 3, "grid too shallow: {ks:?}");
    assert!(report.cells.iter().any(|c| c.seq_closed && c.par_closed));
    let round_tripped: TargetHksBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_stream_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_stream.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: StreamBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "stream");
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    // Sustained ingest with the serve query mix at both client counts the
    // PR quotes, and recovery time at every WAL-tail length.
    for clients in [1, 8] {
        let want = format!("stream/ingest/queryclients{clients}");
        assert!(
            names.iter().any(|n| *n == want),
            "missing {want}: {names:?}"
        );
    }
    for tail in [1000, 4000, 16000] {
        let want = format!("stream/recover/tail{tail}");
        assert!(
            names.iter().any(|n| *n == want),
            "missing {want}: {names:?}"
        );
    }
    // Restart acceptance: recovery at every tail length is at least 10x
    // faster than the 4.65 s it took while snapshot decoding was
    // quadratic in the document length.
    for m in &report.measurements {
        if m.name.starts_with("stream/recover/") {
            assert!(
                m.seconds <= 0.465,
                "{} took {:.3} s, over the 0.465 s restart bound",
                m.name,
                m.seconds
            );
        }
    }
    let round_tripped: StreamBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn metrics_report_carries_every_counter_and_reads_any_subset() {
    assert_eq!(METRICS_SCHEMA, "comparesets-metrics/v8");
    // Counter i reads i + 1, so a misnamed, swapped or dropped field shows.
    let fields: Vec<String> = COUNTERS
        .iter()
        .zip(1u64..)
        .map(|((name, _), value)| format!("\"{name}\":{value}"))
        .collect();
    let object = |fields: &[String]| format!("{{{}}}", fields.join(","));
    let metrics: MetricsSnapshot = serde_json::from_str(&object(&fields)).unwrap();
    let report = MetricsReport::from_snapshot("select", Duration::from_millis(12), metrics.clone());
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    let tail = format!(",\"metrics\":{}}}", object(&fields));
    assert!(
        json.ends_with(&tail),
        "counters out of name or order: {json}"
    );
    assert_eq!(
        serde_json::from_str::<MetricsReport>(&json).unwrap(),
        report
    );
    // A report under another tag parses too; only the tag check tells.
    let older = json.replace(METRICS_SCHEMA, "comparesets-metrics/v7");
    let older: MetricsReport = serde_json::from_str(&older).unwrap();
    assert!(!older.schema_matches());
    assert_eq!(older.metrics, metrics);

    // A report without any one counter (one written before the counter
    // was added) parses with that counter at 0.
    for (i, (name, _)) in COUNTERS.iter().enumerate() {
        let mut without = fields.clone();
        without.remove(i);
        let parsed: MetricsSnapshot = serde_json::from_str(&object(&without))
            .unwrap_or_else(|e| panic!("a report without {name} does not parse: {e}"));
        let mut expected = fields.clone();
        expected[i] = format!("\"{name}\":0");
        assert_eq!(serde_json::to_string(&parsed).unwrap(), object(&expected));
    }

    // A key this build does not know (a retired counter) is ignored.
    let mut unknown = fields.clone();
    unknown.insert(1, "\"retired_counter\":7".to_string());
    let parsed: MetricsSnapshot = serde_json::from_str(&object(&unknown)).unwrap();
    assert_eq!(parsed, metrics);
}

/// The `| counter | meaning |` table ARCHITECTURE.md §7 must carry: one
/// row per [`COUNTERS`] entry, in declaration order.
fn counter_table() -> String {
    let mut table = String::from("| counter | meaning |\n|---|---|\n");
    for (name, meaning) in COUNTERS {
        table.push_str(&format!("| `{name}` | {meaning} |\n"));
    }
    table
}

#[test]
fn architecture_counter_table_matches_the_counter_list() {
    let doc = std::fs::read_to_string(workspace_root().join("ARCHITECTURE.md")).unwrap();
    let table: String = doc
        .lines()
        .skip_while(|line| *line != "| counter | meaning |")
        .take_while(|line| line.starts_with('|'))
        .map(|line| format!("{line}\n"))
        .collect();
    let expected = counter_table();
    assert!(
        table == expected,
        "ARCHITECTURE.md §7's counter table disagrees with COUNTERS; the list renders:\n\n{expected}"
    );
}

//! Schema tests for the committed machine-readable reports: every
//! `BENCH_*.json` at the workspace root must deserialize through its
//! [`comparesets_bench`] record types, pass structural validation, have
//! been measured with at least two threads available, and hold its
//! acceptance claim; the solver-metrics report behind the CLI's
//! `--metrics-json` must carry every counter of [`COUNTERS`] and read a
//! report missing any of them; and ARCHITECTURE.md's counter table must
//! match that list.

use comparesets_bench::{BenchReport, ServeBenchReport, StreamBenchReport, TargetHksBenchReport};
use comparesets_core::{MetricsReport, MetricsSnapshot, COUNTERS, METRICS_SCHEMA};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::Path;
use std::time::Duration;

fn workspace_root() -> &'static Path {
    // CARGO_MANIFEST_DIR = crates/bench; the reports live two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the workspace root")
}

/// Read and parse the committed report `file`, check it with `check`
/// (which returns the report's `threads_available` and its validation),
/// require at least two threads, and check that re-serializing it loses
/// no field.
fn load<T>(file: &str, check: impl Fn(&T) -> (usize, Result<(), String>)) -> T
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let path = workspace_root().join(file);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: T = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{file} does not match the schema: {e}"));
    let (threads, valid) = check(&report);
    valid.unwrap_or_else(|e| panic!("{file} is malformed: {e}"));
    assert!(
        threads >= 2,
        "{file} was measured with {threads} thread(s) available; re-take it on at least two"
    );
    let round_tripped: T = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
    report
}

#[test]
fn committed_sparse_baseline_matches_schema_and_acceptance() {
    let report = load("BENCH_sparse.json", |r: &BenchReport| {
        (r.threads_available, r.validate())
    });
    assert_eq!(report.bench, "nomp_sparse");
    let seconds = |name: &str| {
        report
            .measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.seconds_min)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    // CSC is at least 2x faster than the dense kernels on the
    // paper-shaped 16 000x80 design and on the 4 000x64 design at 5%
    // density, the density nearest a real task's (4.5%).
    for (family, shape) in [
        ("regression_engine/sparse", "16000x80"),
        ("regression_engine/sparse/crossover", "d05"),
    ] {
        let dense = seconds(&format!("{family}/dense/{shape}"));
        let csc = seconds(&format!("{family}/csc/{shape}"));
        assert!(
            csc * 2.0 <= dense,
            "{shape}: csc {csc}s is not >=2x faster than dense {dense}s"
        );
    }
    assert_eq!(report.measurements.len(), 4, "{:?}", report.measurements);
}

#[test]
fn committed_serve_baseline_matches_schema() {
    let report = load("BENCH_serve.json", |r: &ServeBenchReport| {
        (r.threads_available, r.validate())
    });
    assert_eq!(report.bench, "serve");
    // Both server modes at every concurrency level.
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
    // solve at 8 concurrent clients.
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
}

#[test]
fn committed_targethks_baseline_matches_schema_and_acceptance() {
    let report = load("BENCH_targethks.json", |r: &TargetHksBenchReport| {
        (r.threads_available, r.validate())
    });
    assert_eq!(report.bench, "targethks_scaling");
    // What two cores buy, checked on the committed grid: the same optima,
    // more nodes before the deadline, and sooner proofs on the larger
    // closed cells.
    report
        .two_core_acceptance()
        .unwrap_or_else(|e| panic!("BENCH_targethks.json fails the two-core acceptance: {e}"));
    // The grid must actually be a vertices x k grid, spanning both easy
    // (closed) and deadline-bound (open) cells.
    let vertex_sizes: std::collections::HashSet<usize> =
        report.cells.iter().map(|c| c.vertices).collect();
    let ks: std::collections::HashSet<usize> = report.cells.iter().map(|c| c.k).collect();
    assert!(vertex_sizes.len() >= 3, "grid too narrow: {vertex_sizes:?}");
    assert!(ks.len() >= 3, "grid too shallow: {ks:?}");
    assert!(report.cells.iter().any(|c| c.one_closed && c.two_closed));
}

#[test]
fn committed_stream_baseline_matches_schema() {
    let report = load("BENCH_stream.json", |r: &StreamBenchReport| {
        (r.threads_available, r.validate())
    });
    assert_eq!(report.bench, "stream");
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    // Sustained ingest with the serve query mix at both client counts, and
    // recovery time at every WAL-tail length.
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

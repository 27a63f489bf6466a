//! Serde record types of the committed bench reports.
//!
//! Each bench under `benches/` writes its `BENCH_*.json` at the workspace
//! root through these types, and `tests/schema.rs` deserializes the
//! *committed* file back through the same types, so a drive-by field
//! rename breaks `cargo test` instead of silently orphaning the baseline
//! PERFORMANCE.md quotes.

use serde::{Deserialize, Serialize};

/// One timed workload of a bench run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Workload path, e.g. `"regression_engine/sparse/csc/16000x80"`.
    pub name: String,
    /// Minimum wall-clock over all samples, in seconds.
    pub seconds_min: f64,
    /// Number of samples the minimum was taken over.
    pub samples: usize,
}

/// The machine-readable report `benches/nomp_sparse.rs` writes to
/// `BENCH_sparse.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Bench target name (`"nomp_sparse"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<Measurement>,
}

impl BenchReport {
    /// Structural validation: non-empty identity, at least one
    /// measurement, unique workload names, and strictly positive finite
    /// timings.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.is_empty() {
            return Err("bench name is empty".to_string());
        }
        if self.threads_available == 0 {
            return Err("threads_available must be at least 1".to_string());
        }
        if self.measurements.is_empty() {
            return Err("report has no measurements".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for m in &self.measurements {
            if m.name.is_empty() {
                return Err("a measurement has an empty name".to_string());
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("duplicate measurement name {:?}", m.name));
            }
            if !(m.seconds_min.is_finite() && m.seconds_min > 0.0) {
                return Err(format!(
                    "{}: seconds_min {} is not a positive finite time",
                    m.name, m.seconds_min
                ));
            }
            if m.samples == 0 {
                return Err(format!("{}: zero samples", m.name));
            }
        }
        Ok(())
    }
}

/// One serving workload: a client-concurrency level against a cold or
/// warm server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMeasurement {
    /// Workload path, e.g. `"serve/warm/clients8"`.
    pub name: String,
    /// Median request latency over all requests, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, in milliseconds.
    pub p99_ms: f64,
    /// Completed requests per second across all clients.
    pub qps: f64,
    /// Total requests the percentiles were computed over.
    pub requests: usize,
}

/// The machine-readable report `benches/serve.rs` writes to
/// `BENCH_serve.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Bench target name (`"serve"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<ServeMeasurement>,
}

impl ServeBenchReport {
    /// Structural validation: non-empty identity, unique workload names,
    /// positive finite latencies with p50 <= p99, and positive QPS.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.is_empty() {
            return Err("bench name is empty".to_string());
        }
        if self.threads_available == 0 {
            return Err("threads_available must be at least 1".to_string());
        }
        if self.measurements.is_empty() {
            return Err("report has no measurements".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for m in &self.measurements {
            if m.name.is_empty() {
                return Err("a measurement has an empty name".to_string());
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("duplicate measurement name {:?}", m.name));
            }
            for (what, v) in [("p50_ms", m.p50_ms), ("p99_ms", m.p99_ms), ("qps", m.qps)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive and finite", m.name));
                }
            }
            if m.p50_ms > m.p99_ms {
                return Err(format!(
                    "{}: p50 {} exceeds p99 {}",
                    m.name, m.p50_ms, m.p99_ms
                ));
            }
            if m.requests == 0 {
                return Err(format!("{}: zero requests", m.name));
            }
        }
        Ok(())
    }
}

/// One streaming workload: either sustained ingest throughput under a
/// concurrent query load, or recovery time over a WAL tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamMeasurement {
    /// Workload path, e.g. `"stream/ingest/queryclients8"` or
    /// `"stream/recover/tail4000"`.
    pub name: String,
    /// Review events the workload processed (ingested or replayed).
    pub events: usize,
    /// Wall-clock the events took, in seconds.
    pub seconds: f64,
    /// `events / seconds` — sustained reviews/sec.
    pub events_per_sec: f64,
}

/// The machine-readable report `benches/stream.rs` writes to
/// `BENCH_stream.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamBenchReport {
    /// Bench target name (`"stream"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<StreamMeasurement>,
}

impl StreamBenchReport {
    /// Structural validation: non-empty identity, unique workload names,
    /// positive event counts, and positive finite timings whose rate is
    /// consistent with `events / seconds`.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.is_empty() {
            return Err("bench name is empty".to_string());
        }
        if self.threads_available == 0 {
            return Err("threads_available must be at least 1".to_string());
        }
        if self.measurements.is_empty() {
            return Err("report has no measurements".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for m in &self.measurements {
            if m.name.is_empty() {
                return Err("a measurement has an empty name".to_string());
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("duplicate measurement name {:?}", m.name));
            }
            if m.events == 0 {
                return Err(format!("{}: zero events", m.name));
            }
            for (what, v) in [("seconds", m.seconds), ("events_per_sec", m.events_per_sec)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive and finite", m.name));
                }
            }
            let implied = m.events as f64 / m.seconds;
            if (m.events_per_sec - implied).abs() > implied * 0.01 {
                return Err(format!(
                    "{}: events_per_sec {} inconsistent with {} events / {}s",
                    m.name, m.events_per_sec, m.events, m.seconds
                ));
            }
        }
        Ok(())
    }
}

/// One cell of the TargetHkS scaling grid: the same (vertices, k)
/// instance solved under the same deadline by one worker and by two. A
/// `*_closed` flag holds when every solve of that worker count closed the
/// cell; every other `one_*`/`two_*` value is the median over the
/// report's [`TargetHksBenchReport::solves`] solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetHksCell {
    /// Cell path, e.g. `"targethks/n32/k6"`.
    pub name: String,
    /// Graph size (number of candidate reviews/items).
    pub vertices: usize,
    /// Subgraph size.
    pub k: usize,
    /// Per-solve wall-clock deadline, in milliseconds.
    pub deadline_ms: u64,
    /// One worker proved optimality within the deadline.
    pub one_closed: bool,
    /// Two workers proved optimality within the deadline.
    pub two_closed: bool,
    /// One worker's incumbent weight (the optimum when `one_closed`).
    pub one_weight: f64,
    /// Two workers' incumbent weight.
    pub two_weight: f64,
    /// One worker's absolute optimality-gap certificate (0 when closed).
    pub one_gap: f64,
    /// Two workers' optimality-gap certificate (0 when closed).
    pub two_gap: f64,
    /// Branch-and-bound nodes one worker expanded.
    pub one_nodes: u64,
    /// Branch-and-bound nodes two workers expanded together.
    pub two_nodes: u64,
    /// One worker's wall seconds.
    pub one_seconds: f64,
    /// Two workers' wall seconds.
    pub two_seconds: f64,
}

/// The machine-readable report `benches/targethks_scaling.rs` writes to
/// `BENCH_targethks.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetHksBenchReport {
    /// Bench target name (`"targethks_scaling"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// Solves per cell and worker count behind each median.
    pub solves: usize,
    /// All grid cells, in emission order.
    pub cells: Vec<TargetHksCell>,
}

/// The cells two workers must prove optimal [`TWO_WORKER_GAIN`]× sooner
/// than one: the closed cells that keep one worker busy long enough (tens
/// to hundreds of milliseconds) for a second core to pay.
pub const SPEEDUP_CELLS: [&str; 2] = ["targethks/n40/k10", "targethks/n48/k10"];

/// What a second worker must buy on two cores: this factor more nodes
/// before the deadline, and this factor sooner a proof.
pub const TWO_WORKER_GAIN: f64 = 1.5;

impl TargetHksBenchReport {
    /// Structural validation: non-empty identity, unique cell names,
    /// well-formed grid coordinates, finite non-negative weights and
    /// gaps, zero gap whenever a solve closed, and positive node counts
    /// and timings.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.is_empty() {
            return Err("bench name is empty".to_string());
        }
        if self.threads_available == 0 {
            return Err("threads_available must be at least 1".to_string());
        }
        if self.solves == 0 {
            return Err("medians over zero solves".to_string());
        }
        if self.cells.is_empty() {
            return Err("report has no cells".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for c in &self.cells {
            if c.name.is_empty() {
                return Err("a cell has an empty name".to_string());
            }
            if !seen.insert(c.name.as_str()) {
                return Err(format!("duplicate cell name {:?}", c.name));
            }
            if c.k < 2 || c.vertices <= c.k {
                return Err(format!(
                    "{}: grid cell needs vertices > k >= 2, got n={} k={}",
                    c.name, c.vertices, c.k
                ));
            }
            if c.deadline_ms == 0 {
                return Err(format!("{}: zero deadline", c.name));
            }
            for (what, v) in [
                ("one_weight", c.one_weight),
                ("two_weight", c.two_weight),
                ("one_gap", c.one_gap),
                ("two_gap", c.two_gap),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!(
                        "{}: {what} {v} is not finite and non-negative",
                        c.name
                    ));
                }
            }
            if c.one_closed && c.one_gap != 0.0 {
                return Err(format!("{}: closed one-worker cell with gap", c.name));
            }
            if c.two_closed && c.two_gap != 0.0 {
                return Err(format!("{}: closed two-worker cell with gap", c.name));
            }
            if c.one_nodes == 0 || c.two_nodes == 0 {
                return Err(format!("{}: a solve expanded zero nodes", c.name));
            }
            for (what, v) in [
                ("one_seconds", c.one_seconds),
                ("two_seconds", c.two_seconds),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive finite", c.name));
                }
            }
        }
        Ok(())
    }

    /// What the committed baseline must show a second core buys:
    ///
    /// * it was measured with at least two threads available;
    /// * on every cell both worker counts close, they prove the same
    ///   optimal weight;
    /// * one worker leaves at least one cell open, and on every such
    ///   cell two workers expand at least [`TWO_WORKER_GAIN`]× its nodes
    ///   before the deadline;
    /// * both worker counts close every [`SPEEDUP_CELLS`] cell, two
    ///   workers at least [`TWO_WORKER_GAIN`]× sooner.
    ///
    /// # Errors
    /// A readable description of the first violated property.
    pub fn two_core_acceptance(&self) -> Result<(), String> {
        if self.threads_available < 2 {
            return Err(format!(
                "measured with {} thread(s) available; two workers need two cores",
                self.threads_available
            ));
        }
        for c in self.cells.iter().filter(|c| c.one_closed && c.two_closed) {
            let tol = 1e-6 * c.one_weight.abs().max(1.0);
            if (c.one_weight - c.two_weight).abs() > tol {
                return Err(format!(
                    "{}: one and two workers proved different optima ({} vs {})",
                    c.name, c.one_weight, c.two_weight
                ));
            }
        }
        let open: Vec<&TargetHksCell> = self.cells.iter().filter(|c| !c.one_closed).collect();
        if open.is_empty() {
            return Err("no cell left open by one worker; the grid is too easy".to_string());
        }
        for c in open {
            if (c.two_nodes as f64) < TWO_WORKER_GAIN * c.one_nodes as f64 {
                return Err(format!(
                    "{}: two workers expanded {} nodes before the deadline, under \
                     {TWO_WORKER_GAIN}x one worker's {}",
                    c.name, c.two_nodes, c.one_nodes
                ));
            }
        }
        for name in SPEEDUP_CELLS {
            let c = self
                .cells
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("the grid has no cell {name}"))?;
            if !(c.one_closed && c.two_closed) {
                return Err(format!("{name}: not closed by both worker counts"));
            }
            if c.one_seconds < TWO_WORKER_GAIN * c.two_seconds {
                return Err(format!(
                    "{name}: two workers took {}s, not {TWO_WORKER_GAIN}x sooner than \
                     one worker's {}s",
                    c.two_seconds, c.one_seconds
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            bench: "nomp_sparse".to_string(),
            threads_available: 4,
            measurements: vec![Measurement {
                name: "regression_engine/sparse/csc/16000x80".to_string(),
                seconds_min: 0.001,
                samples: 5,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    fn sample_serve_report() -> ServeBenchReport {
        ServeBenchReport {
            bench: "serve".to_string(),
            threads_available: 4,
            measurements: vec![ServeMeasurement {
                name: "serve/warm/clients8".to_string(),
                p50_ms: 0.4,
                p99_ms: 2.1,
                qps: 900.0,
                requests: 256,
            }],
        }
    }

    #[test]
    fn serve_report_round_trips_through_json() {
        let report = sample_serve_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn serve_validation_rejects_malformed_reports() {
        let mut r = sample_serve_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].p50_ms = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].p99_ms = f64::NAN;
        assert!(r.validate().is_err());

        // p50 above p99 is internally inconsistent.
        let mut r = sample_serve_report();
        r.measurements[0].p50_ms = 10.0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].requests = 0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }

    fn sample_stream_report() -> StreamBenchReport {
        StreamBenchReport {
            bench: "stream".to_string(),
            threads_available: 4,
            measurements: vec![StreamMeasurement {
                name: "stream/ingest/queryclients8".to_string(),
                events: 1000,
                seconds: 2.0,
                events_per_sec: 500.0,
            }],
        }
    }

    #[test]
    fn stream_report_round_trips_through_json() {
        let report = sample_stream_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: StreamBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn stream_validation_rejects_malformed_reports() {
        let mut r = sample_stream_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        r.measurements[0].events = 0;
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        r.measurements[0].seconds = f64::NAN;
        assert!(r.validate().is_err());

        // A rate that disagrees with events/seconds is internally
        // inconsistent.
        let mut r = sample_stream_report();
        r.measurements[0].events_per_sec = 10.0;
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }

    fn targethks_cell(name: &str, one_closed: bool, two_closed: bool) -> TargetHksCell {
        TargetHksCell {
            name: name.to_string(),
            vertices: 48,
            k: 10,
            deadline_ms: 1000,
            one_closed,
            two_closed,
            one_weight: 240.9,
            two_weight: 240.9,
            one_gap: if one_closed { 0.0 } else { 130.0 },
            two_gap: if two_closed { 0.0 } else { 128.0 },
            one_nodes: 30_000,
            two_nodes: 60_000,
            one_seconds: 0.24,
            two_seconds: 0.11,
        }
    }

    fn sample_targethks_report() -> TargetHksBenchReport {
        TargetHksBenchReport {
            bench: "targethks_scaling".to_string(),
            threads_available: 2,
            solves: 5,
            cells: vec![
                targethks_cell("targethks/n40/k10", true, true),
                targethks_cell("targethks/n48/k10", true, true),
                targethks_cell("targethks/n64/k12", false, false),
            ],
        }
    }

    #[test]
    fn targethks_report_round_trips_through_json() {
        let report = sample_targethks_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: TargetHksBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
        assert!(back.two_core_acceptance().is_ok());
    }

    #[test]
    fn targethks_validation_rejects_malformed_reports() {
        let mut r = sample_targethks_report();
        r.cells.clear();
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        r.solves = 0;
        assert!(r.validate().is_err());

        // A closed cell must certify gap zero.
        let mut r = sample_targethks_report();
        r.cells[0].one_gap = 1.0;
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        r.cells[0].two_weight = f64::NAN;
        assert!(r.validate().is_err());

        // The grid requires vertices > k.
        let mut r = sample_targethks_report();
        r.cells[0].vertices = 4;
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        r.cells[0].two_seconds = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        let dup = r.cells[0].clone();
        r.cells.push(dup);
        assert!(r.validate().is_err());
    }

    #[test]
    fn targethks_acceptance_requires_what_a_second_core_buys() {
        // Measured on one core.
        let mut r = sample_targethks_report();
        r.threads_available = 1;
        assert!(r.two_core_acceptance().is_err());

        // Different optima on a cell both worker counts close.
        let mut r = sample_targethks_report();
        r.cells[0].two_weight = 240.0;
        assert!(r.two_core_acceptance().is_err());

        // A second worker that expands no more nodes than one on an open
        // cell.
        let mut r = sample_targethks_report();
        r.cells[2].two_nodes = r.cells[2].one_nodes;
        assert!(r.two_core_acceptance().is_err());

        // No open cell: the grid never reached the deadline.
        let mut r = sample_targethks_report();
        r.cells.pop();
        assert!(r.two_core_acceptance().is_err());

        // A speed-up cell two workers do not prove 1.5x sooner.
        let mut r = sample_targethks_report();
        r.cells[1].two_seconds = 0.2;
        assert!(r.two_core_acceptance().is_err());

        // A speed-up cell missing from the grid.
        let mut r = sample_targethks_report();
        r.cells.remove(0);
        assert!(r.two_core_acceptance().is_err());
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let mut r = sample_report();
        r.bench.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements[0].seconds_min = -1.0;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements[0].seconds_min = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }
}

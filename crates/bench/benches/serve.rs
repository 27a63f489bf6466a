//! Serving latency and throughput: p50/p99 per-request latency and QPS
//! at 1, 8, and 64 concurrent clients, against a cold server (session
//! cache disabled — every request pays a full solve) and a warm one
//! (cache enabled and pre-warmed — repeat queries hit the memoized
//! path).
//!
//! Each workload runs real client threads over real sockets against an
//! in-process [`comparesets_serve::Server`] and reports percentiles of
//! the observed round-trip times. Results go to `BENCH_serve.json` at
//! the workspace root; `crates/bench/tests/schema.rs` checks that the
//! warm p50 is at least 5× the cold one at 8 clients.
//!
//! Setting `COMPARESETS_BENCH_SMOKE=1` shrinks the request counts and
//! writes nothing, so CI exercises the full client/server path without
//! touching the baseline.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_bench::{ServeBenchReport, ServeMeasurement};
use comparesets_core::SolverMetrics;
use comparesets_serve::{Client, Request, Server, ServerConfig, Status};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn start_server(cache_capacity: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let dataset = comparesets_bench::corpus();
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("bench".to_string(), dataset)],
        Arc::new(SolverMetrics::new()),
        ServerConfig {
            // Admit every bench client as a regular request: this harness
            // measures the cache, not admission-control degradation.
            workers: 128,
            cache_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("bench server");
    });
    (addr, handle)
}

fn stop_server(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("server thread");
}

/// Run `clients` threads, each sending `per_client` requests round-robin
/// over the pool, and return (sorted latencies, wall time).
fn drive(
    addr: SocketAddr,
    pool: &[Request],
    clients: usize,
    per_client: usize,
) -> (Vec<Duration>, Duration) {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connect");
                barrier.wait();
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let request = &pool[(c + i) % pool.len()];
                    let start = Instant::now();
                    let response = client.call(request).expect("bench request");
                    latencies.push(start.elapsed());
                    assert_eq!(response.status, Status::Ok, "{response:?}");
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let mut latencies: Vec<Duration> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("bench client"))
        .collect();
    let wall = started.elapsed();
    latencies.sort_unstable();
    (latencies, wall)
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn measure(
    mode: &str,
    cache_capacity: usize,
    prewarm: bool,
    client_counts: &[usize],
    per_client: usize,
    pool: &[Request],
) -> Vec<ServeMeasurement> {
    let mut out = Vec::new();
    for &clients in client_counts {
        let (addr, handle) = start_server(cache_capacity);
        if prewarm {
            let mut warmer = Client::connect(addr).expect("prewarm connect");
            for request in pool {
                let r = warmer.call(request).expect("prewarm request");
                assert_eq!(r.status, Status::Ok, "{r:?}");
            }
        }
        let (latencies, wall) = drive(addr, pool, clients, per_client);
        let requests = latencies.len();
        out.push(ServeMeasurement {
            name: format!("serve/{mode}/clients{clients}"),
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
            qps: requests as f64 / wall.as_secs_f64(),
            requests,
        });
        println!(
            "{mode:>4} clients={clients:<3} p50={:.3}ms p99={:.3}ms qps={:.0}",
            out.last().unwrap().p50_ms,
            out.last().unwrap().p99_ms,
            out.last().unwrap().qps
        );
        stop_server(addr, handle);
    }
    out
}

fn main() {
    let smoke = comparesets_bench::smoke();
    let client_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 8, 64] };
    let per_client = if smoke { 4 } else { 16 };

    let dataset = comparesets_bench::corpus();
    let pool = comparesets_bench::query_pool(&dataset);

    let mut measurements = Vec::new();
    measurements.extend(measure("cold", 0, false, client_counts, per_client, &pool));
    measurements.extend(measure("warm", 512, true, client_counts, per_client, &pool));

    let report = ServeBenchReport {
        bench: "serve".to_string(),
        threads_available: comparesets_bench::threads_available(),
        measurements,
    };
    report.validate().expect("emitted report is well-formed");
    comparesets_bench::write_report("BENCH_serve.json", &report);
}

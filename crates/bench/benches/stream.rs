//! Streaming-ingest throughput and crash-recovery latency for the
//! durable corpus store.
//!
//! Two workload families (see ARCHITECTURE.md §11):
//!
//! - `stream/ingest/queryclientsN` — sustained reviews/sec a durable
//!   (`data_dir`-backed, fsync-per-ack) server ingests while the serve
//!   bench's query mix hammers it from N concurrent clients. Ingests
//!   target the queried products, so every ack also invalidates cached
//!   selections — the worst case for the session cache.
//! - `stream/recover/tailN` — wall-clock to fold a snapshot plus an
//!   N-record WAL tail back into a corpus with [`wal::recover`], i.e.
//!   restart cost as a function of how long ago the last compaction ran.
//!
//! Like `benches/serve.rs` it runs real client threads over real
//! sockets. Results go to `BENCH_stream.json` at the workspace root;
//! `crates/bench/tests/schema.rs` holds every recovery under 0.465 s.
//! `COMPARESETS_BENCH_SMOKE=1` shrinks the workloads and writes nothing.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_bench::{StreamBenchReport, StreamMeasurement};
use comparesets_core::SolverMetrics;
use comparesets_data::wal::{self, CorpusStore, EventKind, ReviewEvent};
use comparesets_data::{Dataset, ProductId, ReviewId, TempDir};
use comparesets_serve::{Client, IngestEvent, Request, Server, ServerConfig, Status};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Every product the query mix touches — the ingest rotation writes to
/// these so each ack invalidates live cache entries.
fn queried_products(pool: &[Request]) -> Vec<u32> {
    let mut seen = std::collections::BTreeSet::new();
    for request in pool {
        for &item in request.items.as_deref().unwrap_or(&[]) {
            seen.insert(item);
        }
    }
    seen.into_iter().collect()
}

fn start_server(dataset: Dataset, data_dir: &Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("bench".to_string(), dataset)],
        Arc::new(SolverMetrics::new()),
        ServerConfig {
            workers: 128,
            cache_capacity: 512,
            data_dir: Some(data_dir.to_path_buf()),
            snapshot_every: 1024,
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

/// Stream `events` single-event ingests (one WAL fsync per ack) while
/// `query_clients` threads run the solve mix continuously.
fn measure_ingest(
    dataset: &Dataset,
    pool: &[Request],
    root: &Path,
    query_clients: usize,
    events: usize,
) -> StreamMeasurement {
    let data_dir = root.join(format!("ingest_q{query_clients}"));
    let (addr, handle) = start_server(dataset.clone(), &data_dir);
    let targets = queried_products(pool);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(query_clients + 1));
    let queriers: Vec<_> = (0..query_clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("query client connect");
                barrier.wait();
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let response = client.call(&pool[i % pool.len()]).expect("query request");
                    assert_eq!(response.status, Status::Ok, "{response:?}");
                    i += 1;
                }
            })
        })
        .collect();

    let mut writer = Client::connect(addr).expect("ingest client connect");
    barrier.wait();
    let started = Instant::now();
    for k in 0..events {
        let event = IngestEvent {
            rating: Some(1 + (k % 5) as u8),
            text: Some(format!("streamed {k}")),
            ..IngestEvent::add(targets[k % targets.len()], vec![])
        };
        let ack = writer.call(&Request::ingest(vec![event])).expect("ingest");
        assert_eq!(ack.status, Status::Ok, "ingest failed: {ack:?}");
        assert_eq!(ack.last_seq, Some(k as u64 + 1), "{ack:?}");
    }
    let wall = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for q in queriers {
        q.join().expect("query client");
    }
    // The server's run loop joins handler threads on shutdown, and a
    // handler lives as long as its client keeps the connection open —
    // close ours before asking it to stop.
    drop(writer);
    stop_server(addr, handle);
    std::fs::remove_dir_all(&data_dir).ok();

    let m = StreamMeasurement {
        name: format!("stream/ingest/queryclients{query_clients}"),
        events,
        seconds: wall.as_secs_f64(),
        events_per_sec: events as f64 / wall.as_secs_f64(),
    };
    println!(
        "ingest queryclients={query_clients:<2} {} events in {:.3}s = {:.0} reviews/sec",
        m.events, m.seconds, m.events_per_sec
    );
    m
}

/// Populate a store whose WAL tail holds `tail` uncompacted adds, then
/// time a read-only [`wal::recover`] over it (best of `samples` runs —
/// recovery is repeatable, so the minimum is the honest figure).
fn measure_recovery(
    dataset: &Dataset,
    targets: &[u32],
    root: &Path,
    tail: usize,
    samples: usize,
) -> StreamMeasurement {
    let dir = root.join(format!("recover_tail{tail}"));
    let (mut store, _) =
        CorpusStore::open(&dir, Some(dataset), 0, None).expect("open recovery store");
    let mut staged = dataset.clone();
    let first_seq = store.next_seq();
    let mut pending = Vec::with_capacity(64);
    for k in 0..tail {
        let ev = ReviewEvent {
            seq: first_seq + k as u64,
            kind: EventKind::Add,
            product: ProductId(targets[k % targets.len()]),
            review: ReviewId(staged.reviews.len() as u32),
            reviewer: staged.num_reviewers,
            rating: 1 + (k % 5) as u8,
            text: format!("tail {k}"),
            mentions: vec![],
        };
        staged.apply_event(&ev).expect("bench event applies");
        pending.push(ev);
        if pending.len() == 64 {
            store.append(&pending).expect("append tail batch");
            pending.clear();
        }
    }
    if !pending.is_empty() {
        store.append(&pending).expect("append tail batch");
    }
    drop(store);

    let mut best = f64::INFINITY;
    let mut replayed = 0;
    for _ in 0..samples {
        let started = Instant::now();
        let rec = wal::recover(&dir, None).expect("recover");
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(rec.replayed as usize, tail, "tail not fully replayed");
        assert_eq!(rec.dataset.reviews.len(), staged.reviews.len());
        replayed = rec.replayed as usize;
        best = best.min(elapsed);
    }
    std::fs::remove_dir_all(&dir).ok();

    let m = StreamMeasurement {
        name: format!("stream/recover/tail{tail}"),
        events: replayed,
        seconds: best,
        events_per_sec: replayed as f64 / best,
    };
    println!(
        "recover tail={tail:<6} {:.3}s = {:.0} events/sec replayed",
        m.seconds, m.events_per_sec
    );
    m
}

fn main() {
    let smoke = comparesets_bench::smoke();
    let query_counts: &[usize] = if smoke { &[1] } else { &[1, 8] };
    let ingest_events = if smoke { 8 } else { 2000 };
    let tails: &[usize] = if smoke { &[16] } else { &[1000, 4000, 16000] };
    let recovery_samples = if smoke { 1 } else { 3 };

    let dataset = comparesets_bench::corpus();
    let pool = comparesets_bench::query_pool(&dataset);
    let targets = queried_products(&pool);
    let root = TempDir::new("bench_stream").expect("bench scratch dir");

    let mut measurements = Vec::new();
    for &clients in query_counts {
        measurements.push(measure_ingest(
            &dataset,
            &pool,
            &root,
            clients,
            ingest_events,
        ));
    }
    for &tail in tails {
        measurements.push(measure_recovery(
            &dataset,
            &targets,
            &root,
            tail,
            recovery_samples,
        ));
    }

    let report = StreamBenchReport {
        bench: "stream".to_string(),
        threads_available: comparesets_bench::threads_available(),
        measurements,
    };
    report.validate().expect("emitted report is well-formed");
    comparesets_bench::write_report("BENCH_stream.json", &report);
}

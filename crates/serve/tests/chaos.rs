//! Chaos harness: seeded fault schedules against the durable store and
//! ingest/solve/kill/restart cycles against a live server, asserting the
//! three standing invariants of ARCHITECTURE.md §12:
//!
//! 1. **Acked prefix recovers byte-identical** — every event whose ack
//!    fsync returned survives any crash + restart, in order, unmodified.
//! 2. **No stale cache hit is ever served** — a solve issued after an
//!    ingest touching its items never replays an answer computed before
//!    that ingest.
//! 3. **No handler thread outlives its deadline** — a solve under a
//!    client deadline answers within that deadline plus scheduling slack,
//!    and a draining server clamps in-flight solves at `drain_deadline`.
//!
//! The same schedules run (1000 deep) in CI via `comparesets chaos`;
//! here a smaller seed sweep keeps `cargo test` quick.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::SolverMetrics;
use comparesets_data::wal;
use comparesets_data::{run_fault_schedule, CategoryPreset, Dataset, FaultProfile};
use comparesets_serve::{
    request_drain, Client, IngestEvent, Request, Server, ServerConfig, Status,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `request_drain` flips a process-wide flag consumed by whichever
/// server's watcher polls first, so every test that runs a server takes
/// this lock — otherwise a concurrent test's server could swallow (or be
/// killed by) another test's drain request.
static SERVER_TESTS: Mutex<()> = Mutex::new(());

fn corpus() -> Dataset {
    CategoryPreset::Toy.config(40, 9).generate()
}

fn items_of(dataset: &Dataset) -> Vec<u32> {
    let inst = dataset.instances().into_iter().next().unwrap().truncated(3);
    inst.items.iter().map(|p| p.0).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comparesets_chaos_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(
    dataset: Dataset,
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<comparesets_serve::ServeSummary>,
    Arc<SolverMetrics>,
) {
    let metrics = Arc::new(SolverMetrics::new());
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("main".to_string(), dataset)],
        Arc::clone(&metrics),
        config,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle, metrics)
}

/// Invariant 1, data plane: drive the store through seeded schedules of
/// faulty appends, snapshots, and crashes. `run_fault_schedule` panics
/// internally if a recovery ever loses or alters an acked event.
#[test]
fn seeded_fault_schedules_never_lose_an_acked_event() {
    let root = temp_dir("schedules");
    let seed_dataset = CategoryPreset::Toy.config(6, 5).generate();
    let profile = FaultProfile::chaos();
    let mut outcomes = (0u64, 0u64, 0u64);
    for seed in 0..200 {
        let dir = root.join(format!("sched_{seed}"));
        let outcome = run_fault_schedule(&dir, &seed_dataset, seed, &profile)
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        outcomes.0 += outcome.faults_injected;
        outcomes.1 += outcome.crashes;
        outcomes.2 += outcome.acked;
    }
    // The sweep must actually exercise the plane, not pass vacuously.
    assert!(outcomes.0 > 100, "too few faults injected: {outcomes:?}");
    assert!(outcomes.1 > 20, "too few crashes simulated: {outcomes:?}");
    assert!(outcomes.2 > 200, "too few events acked: {outcomes:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Invariants 1 + 2, serve plane: cycles of concurrent ingest + solve,
/// then a restart from the same data dir. After every cycle the WAL must
/// recover exactly the acked prefix, and a solve following an ingest
/// must never be served from the stale full-answer cache.
#[test]
fn ingest_solve_restart_cycles_preserve_acked_state() {
    let _guard = SERVER_TESTS.lock().unwrap();
    let dir = temp_dir("cycles");
    let dataset = corpus();
    let items = items_of(&dataset);
    let mut acked_last_seq = 0u64;

    for cycle in 0u32..3 {
        let config = ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let (addr, handle, _metrics) = spawn(dataset.clone(), config);

        // Concurrent solver: hammers the same instance while the main
        // thread ingests into it. It solves a *wider* truncation of the
        // instance — same target, one extra comparative — so it stresses
        // the same shard without sharing the main loop's cache key (a
        // shared key would let this thread legitimately refresh the
        // "full" entry right after an ingest, masking the staleness
        // check below).
        let solver_items: Vec<u32> = {
            let inst = dataset.instances().into_iter().next().unwrap().truncated(4);
            inst.items.iter().map(|p| p.0).collect()
        };
        let solver = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..6 {
                let resp = client
                    .call(&Request::solve_items(solver_items.clone()))
                    .unwrap();
                assert_ne!(resp.status, Status::Error, "solve failed: {:?}", resp.error);
            }
        });

        let mut client = Client::connect(addr).unwrap();
        for batch in 0u32..4 {
            // Solve, ingest into the solved item, solve again: the
            // second solve may reuse warm state but must never replay
            // the pre-ingest full answer.
            let before = client.call(&Request::solve_items(items.clone())).unwrap();
            assert_ne!(before.status, Status::Error);
            let ack = client
                .call(&Request::ingest(vec![IngestEvent::add(items[0], vec![])]))
                .unwrap();
            assert_eq!(ack.status, Status::Ok, "ingest failed: {:?}", ack.error);
            let last_seq = ack.last_seq.unwrap();
            assert!(
                last_seq > acked_last_seq,
                "cycle {cycle} batch {batch}: seq went backwards ({last_seq} <= {acked_last_seq})"
            );
            acked_last_seq = last_seq;
            let after = client.call(&Request::solve_items(items.clone())).unwrap();
            assert_ne!(after.status, Status::Error);
            // Invariant 2: the version bump makes the pre-ingest memo
            // unreachable — this solve must have been recomputed.
            assert_ne!(
                after.cache.as_deref(),
                Some("full"),
                "cycle {cycle} batch {batch}: stale full-cache hit after ingest"
            );
        }
        // Join the solver before asking the server to stop: shutdown
        // severs whatever connections are still open, and under load the
        // solver may well have a call in flight.
        solver.join().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();

        // Invariant 1: recovery finds exactly the acked prefix. The
        // clean shutdown wrote a final snapshot, so nothing replays —
        // but the snapshot's seq must still cover every ack.
        let recovery = wal::recover(&dir.join("main"), None).unwrap();
        assert_eq!(
            recovery.replayed, 0,
            "cycle {cycle}: clean shutdown replayed records"
        );
        assert!(
            recovery.snapshot_seq >= acked_last_seq,
            "cycle {cycle}: snapshot seq {} < acked {acked_last_seq}",
            recovery.snapshot_seq
        );
        assert_eq!(recovery.truncated_bytes, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invariant 3 + drain semantics, end to end in one test (the drain flag
/// is process-wide, so the whole sequence stays in one server's life):
/// a long solve is in flight; `request_drain` flips the server to
/// draining; new solves get the typed `draining` error with a
/// retry-after hint while `health` reports `draining`; the in-flight
/// solve is answered (deadline-clamped, not dropped) within the drain
/// budget; `run` returns after a final snapshot so a restart replays
/// zero records.
#[test]
fn drain_answers_in_flight_refuses_new_work_and_snapshots() {
    let _guard = SERVER_TESTS.lock().unwrap();
    let dir = temp_dir("drain");
    let dataset = corpus();
    let items = items_of(&dataset);
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        drain_deadline: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let (addr, handle, metrics) = spawn(dataset, config);

    // Seed the WAL so the final snapshot has something to cover.
    let mut client = Client::connect(addr).unwrap();
    let ack = client
        .call(&Request::ingest(vec![IngestEvent::add(items[0], vec![])]))
        .unwrap();
    assert_eq!(ack.status, Status::Ok);

    let health = client.health().unwrap();
    assert_eq!(health.health.as_deref(), Some("ready"));
    assert_eq!(health.wal_lag, Some(1));
    // Health always reports the cache's resident memo bytes (zero
    // here: nothing solved yet, so no memos).
    assert_eq!(health.resident_bytes, Some(0));

    // A solve that would run far past the drain window: thousands of
    // sweeps under a generous client deadline. Drain must clamp it.
    let in_flight_items = items.clone();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let request = Request {
            sweeps: Some(10_000),
            timeout_ms: Some(60_000),
            ..Request::solve_items(in_flight_items)
        };
        let started = Instant::now();
        let resp = client.call(&request).unwrap();
        (resp, started.elapsed())
    });
    // Wait until the solve is actually in flight before draining.
    let admitted = Instant::now();
    while metrics.snapshot().serve_cache_misses == 0 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "solve never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    request_drain();

    // Within the drain window a fresh request sees the typed refusal and
    // a draining health state. The watcher takes a poll tick to notice,
    // so spin until the first `draining` answer.
    let deadline = Instant::now() + Duration::from_secs(5);
    let refused = loop {
        assert!(Instant::now() < deadline, "never saw a draining response");
        let resp = client.call(&Request::solve_items(items.clone())).unwrap();
        if resp.code.as_deref() == Some("draining") {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(refused.status, Status::Error);
    assert!(
        refused.retry_after_ms.unwrap() >= 1000,
        "retry-after should cover the drain deadline: {:?}",
        refused.retry_after_ms
    );
    let health = client.health().unwrap();
    assert_eq!(health.health.as_deref(), Some("draining"));

    // Invariant 3: the in-flight solve is answered — clamped to its
    // best-so-far iterate — well inside drain_deadline + grace, nowhere
    // near its 10k sweeps or 60 s client budget.
    let (resp, elapsed) = in_flight.join().unwrap();
    assert_ne!(
        resp.status,
        Status::Error,
        "in-flight solve dropped: {:?}",
        resp.error
    );
    assert!(
        !resp.selections.is_empty(),
        "clamped solve returned no selections"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "in-flight solve outlived the drain window: {elapsed:?}"
    );

    let summary = handle.join().unwrap();
    assert!(summary.requests >= 3);
    assert_eq!(metrics.snapshot().drain_initiated, 1);

    // Final snapshot covers the WAL: a restart replays zero records.
    let recovery = wal::recover(&dir.join("main"), None).unwrap();
    assert_eq!(recovery.replayed, 0, "drain shutdown left WAL lag");
    assert_eq!(recovery.truncated_bytes, 0);
    assert!(recovery.snapshot_seq >= ack.last_seq.unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invariant 3, steady state: a client deadline bounds the handler even
/// without a drain. The anytime solver answers with its best iterate at
/// the deadline instead of running the full sweep budget.
#[test]
fn client_deadline_bounds_the_handler() {
    let _guard = SERVER_TESTS.lock().unwrap();
    let dataset = corpus();
    let items = items_of(&dataset);
    let (addr, handle, _metrics) = spawn(dataset, ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let request = Request {
        sweeps: Some(10_000),
        timeout_ms: Some(100),
        ..Request::solve_items(items)
    };
    let started = Instant::now();
    let resp = client.call(&request).unwrap();
    let elapsed = started.elapsed();
    assert_ne!(
        resp.status,
        Status::Error,
        "deadline solve errored: {:?}",
        resp.error
    );
    assert!(!resp.selections.is_empty());
    assert!(
        elapsed < Duration::from_secs(5),
        "handler outlived its 100 ms deadline by too much: {elapsed:?}"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Hostile-client bounds: a slowloris that starts a frame and stalls
/// gets an in-band `usage` error naming the frame deadline, then the
/// close; a peer that connects and never sends anything is closed
/// quietly at the idle deadline. Both count into `connections_timed_out`.
#[test]
fn slow_and_silent_clients_are_bounded() {
    use std::io::{Read as _, Write as _};

    let _guard = SERVER_TESTS.lock().unwrap();
    let dataset = corpus();
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(300),
        frame_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let (addr, handle, metrics) = spawn(dataset, config);

    // Slowloris: a 100-byte frame announced, three bytes delivered.
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    slow.write_all(&100u32.to_be_bytes()).unwrap();
    slow.write_all(b"{\"o").unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut len_buf = [0u8; 4];
    slow.read_exact(&mut len_buf).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len_buf) as usize];
    slow.read_exact(&mut payload).unwrap();
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("\"usage\""), "not a usage error: {text}");
    assert!(
        text.contains("per-frame deadline"),
        "timeout not named: {text}"
    );
    // ...then the close.
    assert_eq!(
        slow.read(&mut [0u8; 1]).unwrap(),
        0,
        "connection not closed"
    );

    // Silent peer: no bytes at all; closed quietly, no error frame.
    let mut silent = std::net::TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(
        silent.read(&mut [0u8; 1]).unwrap(),
        0,
        "idle peer not closed"
    );

    assert_eq!(metrics.snapshot().connections_timed_out, 2);

    // A well-behaved client on the same server is unaffected.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Ok);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

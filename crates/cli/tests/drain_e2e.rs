//! End-to-end drills for the graceful-drain path and double-fault
//! recovery, against the real binary (ARCHITECTURE.md §12).
//!
//! The drain drill is the counterpart of `stream_e2e`'s SIGKILL test:
//! where SIGKILL proves the WAL survives the worst case, SIGTERM proves
//! the *good* case is actually good — in-flight solves are answered,
//! new work is refused with a typed retry-after error, a final snapshot
//! is written, and a restart replays nothing.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_data::wal::{EventKind, ReviewEvent, SNAPSHOT_FILE, WAL_FILE};
use comparesets_data::{CategoryPreset, CorpusStore, Dataset, ProductId, ReviewId, TempDir};
use comparesets_serve::{Client, IngestEvent, Request, Status};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_comparesets");

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn connect(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(e) => {
                assert!(Instant::now() < deadline, "server did not come up: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn items_of(dataset: &Dataset) -> Vec<u32> {
    let inst = dataset.instances().into_iter().next().unwrap().truncated(3);
    inst.items.iter().map(|p| p.0).collect()
}

#[test]
fn sigterm_drains_answers_in_flight_and_restarts_with_zero_replay() {
    let root = TempDir::new("drain_e2e").unwrap();
    let corpus = root.join("corpus.json");
    let status = Command::new(BIN)
        .args([
            "generate",
            "--category",
            "toy",
            "--products",
            "40",
            "--seed",
            "9",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "generate failed");
    let dataset = comparesets_data::io::load(&corpus).unwrap();
    let items = items_of(&dataset);

    let data_dir = root.join("data");
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--corpus",
            corpus.to_str().unwrap(),
            "--addr",
            &addr,
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--drain-deadline-ms",
            "1000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // One acked ingest so the final snapshot has WAL lag to fold in.
    let mut client = connect(&addr);
    let ack = client
        .call(&Request::ingest(vec![IngestEvent::add(items[0], vec![])]))
        .unwrap();
    assert_eq!(ack.status, Status::Ok, "{ack:?}");

    // A solve that would run far past the drain window; the drain must
    // clamp it to its best-so-far iterate, not drop it.
    let in_flight = {
        let addr = addr.clone();
        let items = items.clone();
        std::thread::spawn(move || {
            let mut client = connect(&addr);
            let request = Request {
                sweeps: Some(10_000),
                timeout_ms: Some(60_000),
                ..Request::solve_items(items)
            };
            client.call(&request).unwrap()
        })
    };
    // Wait until the solve is admitted (it shows up as a cache miss).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "solve was never admitted");
        let resp = client.call(&Request::bare("metrics")).unwrap();
        if resp.info.unwrap().contains("\"serve_cache_misses\":1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");

    // Within the drain window: new solves get the typed refusal with a
    // retry-after hint, and health reports `draining`. The handler takes
    // a poll tick to notice the signal, so spin until the first refusal.
    let deadline = Instant::now() + Duration::from_secs(10);
    let refused = loop {
        assert!(Instant::now() < deadline, "never saw a draining response");
        let resp = client.call(&Request::solve_items(items.clone())).unwrap();
        if resp.code.as_deref() == Some("draining") {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(refused.status, Status::Error);
    assert!(refused.retry_after_ms.unwrap() >= 1000, "{refused:?}");
    let health = client.health().unwrap();
    assert_eq!(health.health.as_deref(), Some("draining"));

    // The in-flight solve is answered, deadline-clamped, not dropped.
    let resp = in_flight.join().unwrap();
    assert_ne!(
        resp.status,
        Status::Error,
        "in-flight solve dropped: {resp:?}"
    );
    assert!(!resp.selections.is_empty());

    // The drained server exits 0.
    let status = child.wait().unwrap();
    assert!(
        status.success(),
        "drained server exited nonzero: {status:?}"
    );

    // The final snapshot covered the WAL: a restart replays nothing.
    let output = Command::new(BIN)
        .args(["recover", "--data-dir", data_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "recover failed: {output:?}");
    let report = String::from_utf8(output.stdout).unwrap();
    assert!(
        report.contains("replayed 0 event(s)"),
        "drain left WAL lag: {report}"
    );
    assert!(report.contains("dropped 0 torn byte(s)"), "{report}");
}

/// Build one `add` event consistent with `dataset`, apply it locally,
/// and return it — mirrors how the server resolves ingest adds, so the
/// WAL replay validates.
fn next_add(dataset: &mut Dataset, seq: u64, product: u32) -> ReviewEvent {
    let ev = ReviewEvent {
        seq,
        kind: EventKind::Add,
        product: ProductId(product),
        review: ReviewId(dataset.reviews.len() as u32),
        reviewer: dataset.num_reviewers,
        rating: 4,
        text: format!("drill {seq}"),
        mentions: Vec::new(),
    };
    dataset.apply_event(&ev).unwrap();
    ev
}

/// Double-fault recovery: the primary snapshot is truncated mid-file
/// AND the WAL tail is torn mid-record. `recover --compact` must fall
/// back to the previous snapshot generation, replay the surviving WAL
/// prefix, *name both faults* in its report, and leave a store that
/// recovers clean afterwards.
#[test]
fn recover_compact_names_both_faults_of_a_double_fault() {
    let root = TempDir::new("doublefault_e2e").unwrap();
    let dir = root.join("corpus");
    let mut dataset = CategoryPreset::Toy.config(6, 5).generate();
    let product = dataset.products[0].id.0;

    // Two snapshot generations with WAL records on both sides: open
    // seals the seed (seq 0), three appends, an explicit snapshot
    // (demotes seq 0 to prev, primary covers seq 3), three more appends.
    let (mut store, _rec) = CorpusStore::open(&dir, Some(&dataset), 0, None).unwrap();
    for _ in 0..3 {
        let ev = next_add(&mut dataset, store.next_seq(), product);
        store.append(&[ev]).unwrap();
    }
    store.snapshot(&dataset).unwrap();
    for _ in 0..3 {
        let ev = next_add(&mut dataset, store.next_seq(), product);
        store.append(&[ev]).unwrap();
    }
    drop(store);

    // Fault 1: truncate the primary snapshot mid-file.
    let snap = dir.join(SNAPSHOT_FILE);
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
    // Fault 2: tear the WAL's last record mid-payload.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let output = Command::new(BIN)
        .args([
            "recover",
            "--data-dir",
            dir.to_str().unwrap(),
            "--compact",
            "true",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "recover --compact failed: {output:?}"
    );
    let report = String::from_utf8(output.stdout).unwrap();
    // Both faults named, and the fallback generation credited.
    assert!(
        report.contains("absorbed fault: primary snapshot unusable"),
        "snapshot fault not named: {report}"
    );
    assert!(
        report.contains("absorbed fault: fell back to previous snapshot"),
        "fallback not named: {report}"
    );
    assert!(
        report.contains("absorbed fault: wal tail torn"),
        "torn tail not named: {report}"
    );
    // Seq 6's record was torn; the clean prefix 1..=5 replays on the
    // prev snapshot (seq 0).
    assert!(report.contains("replayed 5 event(s)"), "{report}");
    assert!(report.contains("last seq 5"), "{report}");
    assert!(report.contains("compacted"), "{report}");

    // After compaction the store is whole again: no faults, no replay.
    let output = Command::new(BIN)
        .args(["recover", "--data-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let clean = String::from_utf8(output.stdout).unwrap();
    assert!(!clean.contains("absorbed fault"), "{clean}");
    assert!(clean.contains("replayed 0 event(s)"), "{clean}");
    assert!(clean.contains("last seq 5"), "{clean}");
}

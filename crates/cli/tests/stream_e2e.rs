//! End-to-end crash drill for the durable streaming store, against the
//! real binary.
//!
//! Launches `comparesets serve --data-dir`, streams a deterministic
//! ingest burst at it from a writer thread, SIGKILLs the server mid-burst
//! (no signal handler runs — the hard-crash case the WAL is designed
//! for), smears garbage over the WAL tail to simulate a torn write, and
//! restarts on the same data dir. The restarted server's solves must be
//! byte-identical to a never-crashed server fed the same durable prefix.
//!
//! The durability contract under test (ARCHITECTURE.md §11): every
//! *acknowledged* event survives the crash; unacknowledged events may or
//! may not (fsync can land before the ack is read), but the survivors
//! are always a clean prefix of the sent sequence — never a gap, never
//! an invented record.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_data::wal::WAL_FILE;
use comparesets_serve::{Client, IngestEvent, Request, Status};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_comparesets");
const SHARD: &str = "corpus";

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_server(corpus: &Path, addr: &str, data_dir: Option<&Path>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "serve",
        "--corpus",
        corpus.to_str().unwrap(),
        "--addr",
        addr,
    ]);
    if let Some(dir) = data_dir {
        cmd.args(["--data-dir", dir.to_str().unwrap()]);
    }
    cmd.stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
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

/// The deterministic ingest sequence: event `seq` (1-based) adds a
/// review to a fixed rotation of products. Both the victim's writer and
/// the reference run regenerate events from `seq` alone, so "replay the
/// durable prefix" is just "send events 1..=last_seq again".
fn event(seq: u64, items: &[u32]) -> IngestEvent {
    IngestEvent {
        rating: Some(1 + (seq % 5) as u8),
        text: Some(format!("streamed {seq}")),
        ..IngestEvent::add(items[(seq % items.len() as u64) as usize], vec![])
    }
}

/// Parse `last seq N` out of the `recover` report.
fn recovered_last_seq(data_dir: &Path) -> u64 {
    let output = Command::new(BIN)
        .args(["recover", "--data-dir", data_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success(), "recover failed: {output:?}");
    let report = String::from_utf8(output.stdout).unwrap();
    let tail = report
        .split("last seq ")
        .nth(1)
        .unwrap_or_else(|| panic!("no last seq in report: {report}"));
    tail.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn sigkill_mid_ingest_recovers_byte_identical_to_the_acknowledged_prefix() {
    let root = comparesets_data::TempDir::new("stream_e2e").unwrap();
    let corpus = root.join(format!("{SHARD}.json"));
    let status = Command::new(BIN)
        .args([
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "13",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "generate failed");
    let dataset = comparesets_data::io::load(&corpus).unwrap();
    let items: Vec<u32> = dataset
        .instances()
        .into_iter()
        .next()
        .unwrap()
        .truncated(3)
        .items
        .iter()
        .map(|p| p.0)
        .collect();

    // Victim: serve durably and stream a write burst at it from a
    // separate thread, one event per request, counting acks.
    let data_dir = root.join("data");
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = spawn_server(&corpus, &addr, Some(&data_dir));
    let writer = {
        let addr = addr.clone();
        let items = items.clone();
        std::thread::spawn(move || {
            let mut client = connect(&addr);
            let mut acked = 0u64;
            for seq in 1..=10_000u64 {
                let request = Request::ingest(vec![event(seq, &items)]);
                match client.call(&request) {
                    Ok(resp) if resp.status == Status::Ok => {
                        assert_eq!(resp.last_seq, Some(seq));
                        acked = seq;
                    }
                    // The kill landed: the in-flight event is the one
                    // allowed casualty.
                    _ => break,
                }
            }
            acked
        })
    };
    // Let the burst run, then kill hard — SIGKILL, mid-burst, with an
    // ingest almost certainly in flight.
    let wal = data_dir.join(SHARD).join(WAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !wal.exists() || std::fs::metadata(&wal).unwrap().len() < 2_000 {
        assert!(Instant::now() < deadline, "ingest burst never built a WAL");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().unwrap();
    let _ = child.wait();
    let acked = writer.join().unwrap();
    assert!(acked > 0, "no event was acknowledged before the kill");

    // Simulate the torn tail of an unacknowledged in-flight write: smear
    // garbage after the last durable record. Recovery must drop exactly
    // these bytes.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xAB; 37]).unwrap();
    }

    // What survived? At least every acknowledged event, at most one
    // unacked straggler whose fsync beat the kill — and always a clean
    // prefix.
    let last_seq = recovered_last_seq(&data_dir);
    assert!(
        last_seq >= acked,
        "acknowledged events lost: acked {acked}, recovered {last_seq}"
    );

    // Restart on the same data dir; the recovered corpus must serve.
    let addr2 = format!("127.0.0.1:{}", free_port());
    let mut recovered_server = spawn_server(&corpus, &addr2, Some(&data_dir));
    let mut recovered_client = connect(&addr2);

    // Reference: a never-crashed server fed events 1..=last_seq.
    let addr3 = format!("127.0.0.1:{}", free_port());
    let mut reference_server = spawn_server(&corpus, &addr3, None);
    let mut reference_client = connect(&addr3);
    for seq in 1..=last_seq {
        let resp = reference_client
            .call(&Request::ingest(vec![event(seq, &items)]))
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
    }

    // Byte-identical solves over the durable prefix.
    let solve = Request::solve_items(items.clone());
    let got = recovered_client.call(&solve).unwrap();
    let want = reference_client.call(&solve).unwrap();
    assert_eq!(got.status, Status::Ok, "{got:?}");
    assert_eq!(got.selections, want.selections, "selections diverged");
    assert_eq!(
        got.objective.map(f64::to_bits),
        want.objective.map(f64::to_bits),
        "objective diverged"
    );

    // The recovered store keeps accepting durable writes at the next seq.
    let ack = recovered_client
        .call(&Request::ingest(vec![event(last_seq + 1, &items)]))
        .unwrap();
    assert_eq!(ack.status, Status::Ok, "{ack:?}");
    assert_eq!(ack.last_seq, Some(last_seq + 1));

    recovered_client.shutdown().unwrap();
    reference_client.shutdown().unwrap();
    let _ = recovered_server.wait();
    let _ = reference_server.wait();
}

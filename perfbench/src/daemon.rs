//! The untraced run: the in-process `comparesets-serve` daemon at the
//! CLI-default `ServerConfig`, driven over one loopback connection in a
//! closed loop. Nothing here checks answers or records spans; it only
//! times round trips and keeps what the checks need for afterwards.

use crate::check::answer_digest;
use crate::script::{Script, Sizes, Workload};
use crate::sys;
use comparesets_core::{MetricsSnapshot, SolverMetrics};
use comparesets_data::wal::{CorpusStore, ReviewEvent, SNAPSHOT_FILE, WAL_FILE};
use comparesets_data::{CategoryPreset, Dataset};
use comparesets_serve::{Client, Request, Response, Server, ServerConfig, Status};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The daemon's one shard.
pub const SHARD: &str = "cellphone";

/// The Cellphone corpus at seed 99: at 120 products, the committed
/// fixture (`comparesets_bench::corpus()`); the benchmark's own tests
/// draw a smaller one from the same generator.
pub fn corpus(products: usize) -> Dataset {
    CategoryPreset::Cellphone.config(products, 99).generate()
}

/// Operations attempted and failed, for one op type.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One repetition: a set-up followed by the timed phase.
#[derive(Debug, Default)]
pub struct Repetition {
    pub setup_s: f64,
    /// Round trips of the timed solves and ingests, in nanoseconds.
    pub solve_ns: Vec<u64>,
    pub ingest_ns: Vec<u64>,
    /// `last_seq` of every ingest ack, in order (`None`: no ack).
    pub acks: Vec<Option<u64>>,
}

/// What the checks and the metrics need from the untraced run.
#[derive(Debug, Default)]
pub struct Untraced {
    pub reps: Vec<Repetition>,
    /// Solves answered against the starting corpus, for the answer
    /// check: position in `warmup` followed by `reads` (`live_ingest`:
    /// warm-up only), and the answer's digest.
    pub served: Vec<(usize, u64)>,
    /// `live_ingest`: each timed solve, checked against the corpus as it
    /// stood after the write it followed: that write's position in
    /// `writes`, and the answer's digest.
    pub after_writes: Vec<(usize, u64)>,
    /// `live_ingest`: one solve per written product after the timed
    /// phase, checked against the shadow corpus: product and digest.
    pub verified: Vec<(u32, u64)>,
    /// The daemon's counters after the last timed phase.
    pub counters: MetricsSnapshot,
    pub resident_bytes: u64,
    /// Peak resident memory after the first repetition.
    pub peak_rss_mb: f64,
    pub solve: Tally,
    pub ingest: Tally,
    /// Sizes of the data directory's files after the last timed phase.
    pub snapshot_bytes: u64,
    pub wal_bytes: u64,
}

/// A running daemon on a loopback port.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
    data_dir: Option<PathBuf>,
}

impl Daemon {
    fn start(dataset: Dataset, data_dir: Option<PathBuf>) -> std::io::Result<Daemon> {
        let server = Server::bind(
            "127.0.0.1:0",
            vec![(SHARD.to_string(), dataset)],
            Arc::new(SolverMetrics::new()),
            ServerConfig {
                data_dir: data_dir.clone(),
                ..ServerConfig::default()
            },
        )?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().map(|_| ()));
        Ok(Daemon {
            addr,
            handle,
            data_dir,
        })
    }

    /// Close the caller's connection, ask for shutdown, and wait for the
    /// run loop to end.
    ///
    /// A durable shard writes a final snapshot on shutdown, which first
    /// re-decodes the primary snapshot it demotes (seconds on this
    /// corpus). The benchmark throws the directory away afterwards and
    /// measures nothing past this point, so it removes the primary first:
    /// the final snapshot then skips the demotion.
    fn stop(self, client: Client) -> std::io::Result<()> {
        drop(client);
        if let Some(dir) = &self.data_dir {
            std::fs::remove_file(dir.join(SHARD).join(SNAPSHOT_FILE))?;
        }
        let mut last = Client::connect(self.addr)?;
        last.shutdown().map_err(std::io::Error::other)?;
        drop(last);
        self.handle
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// One request's round trip; `Err` carries the transport error or the
/// non-`ok` response as text.
fn call(client: &mut Client, request: &Request) -> (u64, Result<Response, String>) {
    let start = Instant::now();
    let result = client.call(request);
    let ns = start.elapsed().as_nanos() as u64;
    let result = match result {
        Ok(resp) if resp.status == Status::Ok => Ok(resp),
        Ok(resp) => Err(format!("{:?}: {:?}", resp.status, resp.error)),
        Err(e) => Err(e.to_string()),
    };
    (ns, result)
}

/// A prepared `live_ingest` data directory: the corpus sealed as a
/// snapshot, then the script's tail appended to the WAL in one batch.
pub struct Prepared {
    pub dir: PathBuf,
    /// Corpus after the tail: what a restart recovers.
    pub recovered: Dataset,
    pub tail: Vec<ReviewEvent>,
}

/// Build the data directory a `live_ingest` restart recovers from.
pub fn prepare(root: &Path, corpus: &Dataset, script: &Script) -> Result<Prepared, String> {
    let dir = root.join("prepared");
    let (mut store, _) = CorpusStore::open(
        &dir,
        Some(corpus),
        ServerConfig::default().snapshot_every,
        None,
    )
    .map_err(|e| format!("preparing data dir: {e}"))?;
    let mut recovered = corpus.clone();
    let mut tail = Vec::with_capacity(script.tail.len());
    for (k, wire) in script.tail.iter().enumerate() {
        let ev = crate::mirror::stamp(&recovered, k as u64 + 1, wire)
            .ok_or_else(|| format!("tail event {k} does not stamp"))?;
        recovered
            .apply_event(&ev)
            .map_err(|e| format!("tail event {k}: {e}"))?;
        tail.push(ev);
    }
    if !tail.is_empty() {
        store
            .append(&tail)
            .map_err(|e| format!("appending tail: {e}"))?;
    }
    Ok(Prepared {
        dir,
        recovered,
        tail,
    })
}

/// Copy the prepared store into `<data_dir>/<SHARD>`, where a daemon
/// bound on `data_dir` will recover it.
fn restore(prepared: &Path, data_dir: &Path) -> std::io::Result<()> {
    let shard = data_dir.join(SHARD);
    std::fs::create_dir_all(&shard)?;
    for name in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(prepared.join(name), shard.join(name))?;
    }
    Ok(())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Everything one untraced run needs besides the script.
pub struct Plan<'a> {
    pub workload: Workload,
    pub sizes: Sizes,
    pub script: &'a Script,
    /// Where `live_ingest` keeps its data directories.
    pub root: &'a Path,
    pub prepared: Option<&'a Prepared>,
}

/// Run the workload against the daemon without tracing: every
/// repetition sets up a fresh daemon (corpus or restart, bind, connect,
/// warm-up) and sends the same timed script.
///
/// Peak memory is read after the first repetition. Later daemons start
/// threads that pick up malloc arenas their predecessors left behind, in
/// an order set by thread timing, and the high-water mark of the whole
/// run jumps by about 11 MiB in some runs and not in others.
pub fn run(plan: &Plan) -> Result<Untraced, String> {
    let mut out = Untraced::default();
    for k in 1..=plan.sizes.repetitions {
        let rep = repetition(plan, k, &mut out)?;
        out.reps.push(rep);
        if k == 1 {
            out.peak_rss_mb = sys::peak_rss_mb();
        }
    }
    Ok(out)
}

fn repetition(plan: &Plan, k: usize, out: &mut Untraced) -> Result<Repetition, String> {
    let script = plan.script;
    let data_dir = match plan.prepared {
        Some(p) => {
            let dir = plan.root.join(format!("rep{k}"));
            restore(&p.dir, &dir).map_err(|e| format!("restoring data dir: {e}"))?;
            Some(dir)
        }
        None => None,
    };
    let mut rep = Repetition::default();

    let start = Instant::now();
    // A restart recovers the corpus from the data directory; the corpus
    // passed here only seeds a directory that has none.
    let dataset = match plan.prepared {
        Some(p) => p.recovered.clone(),
        None => corpus(plan.sizes.products),
    };
    let daemon = Daemon::start(dataset, data_dir.clone()).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for (i, request) in script.warmup.iter().enumerate() {
        let (_, result) = call(&mut client, request);
        out.solve.record(result.is_ok());
        if let Ok(resp) = result {
            out.served.push((i, answer_digest(&resp)));
        }
    }
    rep.setup_s = start.elapsed().as_secs_f64();

    if plan.workload == Workload::LiveIngest {
        live(&mut client, script, &mut rep, out);
        observe(&mut client, out)?;
        if let Some(dir) = &data_dir {
            out.snapshot_bytes = file_len(&dir.join(SHARD).join(SNAPSHOT_FILE));
            out.wal_bytes = file_len(&dir.join(SHARD).join(WAL_FILE));
        }
        let mut written: Vec<u32> = script
            .writes
            .iter()
            .flat_map(|r| r.events.iter().flatten().map(|e| e.product))
            .collect();
        written.sort_unstable();
        written.dedup();
        for product in written {
            let (_, result) = call(&mut client, &Request::solve(product));
            out.solve.record(result.is_ok());
            if let Ok(resp) = result {
                out.verified.push((product, answer_digest(&resp)));
            }
        }
    } else {
        for (i, request) in script.reads.iter().enumerate() {
            let (ns, result) = call(&mut client, request);
            rep.solve_ns.push(ns);
            out.solve.record(result.is_ok());
            if let Ok(resp) = result {
                out.served
                    .push((script.warmup.len() + i, answer_digest(&resp)));
            }
        }
        observe(&mut client, out)?;
        for request in &script.writes {
            ingest(&mut client, request, &mut rep, out);
        }
    }
    daemon
        .stop(client)
        .map_err(|e| format!("stopping daemon: {e}"))?;
    Ok(rep)
}

/// Read the counters and the cache's resident bytes after the timed phase.
fn observe(client: &mut Client, out: &mut Untraced) -> Result<(), String> {
    let info = client
        .call(&Request::bare("metrics"))
        .map_err(|e| format!("metrics op: {e}"))?
        .info
        .ok_or("metrics op returned no info")?;
    out.counters = serde_json::from_str(&info).map_err(|e| format!("metrics json: {e}"))?;
    let health = client.health().map_err(|e| format!("health op: {e}"))?;
    out.resident_bytes = health.resident_bytes.unwrap_or(0);
    Ok(())
}

/// One timed single-event ingest: its round trip and its ack.
fn ingest(client: &mut Client, request: &Request, rep: &mut Repetition, out: &mut Untraced) {
    let (ns, result) = call(client, request);
    rep.ingest_ns.push(ns);
    out.ingest.record(result.is_ok());
    rep.acks.push(result.ok().and_then(|r| r.last_seq));
}

/// `live_ingest`'s timed phase: each write is followed by a solve of the
/// next read query, on the one connection, so the read/write order is
/// the script's on every run.
fn live(client: &mut Client, script: &Script, rep: &mut Repetition, out: &mut Untraced) {
    for (k, (write, read)) in script
        .writes
        .iter()
        .zip(script.reads.iter().cycle())
        .enumerate()
    {
        ingest(client, write, rep, out);
        let (ns, result) = call(client, read);
        rep.solve_ns.push(ns);
        out.solve.record(result.is_ok());
        if let Ok(resp) = result {
            out.after_writes.push((k, answer_digest(&resp)));
        }
    }
}

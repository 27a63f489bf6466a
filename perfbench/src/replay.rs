//! The traced run: the same script replayed in-process, without sockets,
//! through the public functions the daemon calls, with one span per call.
//!
//! The replay mirrors `handle_solve` and `handle_ingest` of
//! `comparesets-serve` step for step (see `mirror.rs` for the private
//! glue) on its own `SessionCache` and `SolverMetrics`. Spans stay in
//! memory until the run ends. A span's self time is its duration minus
//! the time its child spans cover.

use crate::daemon::SHARD;
use crate::mirror;
use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_warm_with, CancelToken,
    InstanceContext, MetricsSnapshot, RegressionWarm, SolveOptions, SolverMetrics,
};
use comparesets_data::wal::{
    self, CorpusSnapshot, CorpusStore, ReviewEvent, SNAPSHOT_FILE, WAL_FILE,
};
use comparesets_data::Dataset;
use comparesets_serve::protocol::{decode, write_message};
use comparesets_serve::{CacheKeys, CachedAnswer, Request, Response, ServerConfig, SessionCache};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into [`Tracer::requests`].
    pub request: usize,
}

/// What a traced request was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Solve,
    Ingest,
    Restart,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Per request id: its kind and whether it fell in the timed phase.
    pub requests: Vec<(Kind, bool)>,
    /// Whether requests begun now belong to the timed phase.
    pub timed: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: Vec::new(),
            timed: false,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a request's root span.
    fn begin(&mut self, kind: Kind) -> usize {
        self.requests.push((kind, self.timed));
        self.enter("request")
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.requests.len() - 1,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Write every span as a tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tkind\ttimed\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let (kind, timed) = self.requests[s.request];
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{kind:?}\t{timed}\t{}\t{}\t{}\t{parent}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts the replay keeps beside its spans, split by phase.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub full_hits: u64,
    pub warm_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub context_builds: u64,
    /// Solver wall, pursuit and refit time (pursuit includes refit).
    pub solver_ns: u64,
    pub pursuit_ns: u64,
    pub refit_ns: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub messages: u64,
    pub wal_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
}

/// The replay state: one shard, one cache, one metrics collector.
pub struct Replay {
    pub tracer: Tracer,
    cache: SessionCache,
    pub metrics: Arc<SolverMetrics>,
    pub dataset: Dataset,
    versions: HashMap<u32, u64>,
    next_seq: u64,
    store: Option<CorpusStore>,
    /// Counts over the whole replay, and over the timed phase only.
    pub total: Counts,
    pub timed: Counts,
    /// Solver counters when the timed phase began and ended.
    pub timed_metrics: (MetricsSnapshot, MetricsSnapshot),
}

fn encode<T: Serialize>(message: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    write_message(&mut frame, message).expect("encoding into memory cannot fail");
    frame
}

fn decode_frame<T: Deserialize>(frame: &[u8]) -> T {
    decode(&frame[4..]).expect("a frame this process encoded decodes")
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Replay {
    /// An in-memory replay over `dataset`, as a daemon without a data
    /// directory serves it.
    pub fn new(dataset: Dataset) -> Replay {
        Replay::with(
            Tracer::new(),
            dataset,
            None,
            1,
            Arc::new(SolverMetrics::new()),
        )
    }

    fn with(
        tracer: Tracer,
        dataset: Dataset,
        store: Option<CorpusStore>,
        next_seq: u64,
        metrics: Arc<SolverMetrics>,
    ) -> Replay {
        Replay {
            tracer,
            cache: SessionCache::new(ServerConfig::default().cache_capacity),
            metrics,
            dataset,
            versions: HashMap::new(),
            next_seq,
            store,
            total: Counts::default(),
            timed: Counts::default(),
            timed_metrics: Default::default(),
        }
    }

    /// Start the timed phase: later spans and counts describe it.
    pub fn start_timed(&mut self) {
        self.tracer.timed = true;
        self.timed_metrics.0 = self.metrics.snapshot();
    }

    /// End the timed phase, freezing its solver-counter deltas.
    pub fn stop_timed(&mut self) {
        self.tracer.timed = false;
        self.timed_metrics.1 = self.metrics.snapshot();
    }

    fn count(&mut self, f: impl Fn(&mut Counts)) {
        f(&mut self.total);
        if self.tracer.timed {
            f(&mut self.timed);
        }
    }

    /// Encode on the sending side, decode on the receiving side.
    fn wire<T: Serialize + Deserialize>(&mut self, message: &T, request: bool) -> T {
        let frame = self.tracer.scoped("protocol.encode", || encode(message));
        let bytes = frame.len() as u64;
        self.count(|c| {
            if request {
                c.request_bytes += bytes;
                c.messages += 1;
            } else {
                c.response_bytes += bytes;
            }
        });
        self.tracer
            .scoped("protocol.decode", || decode_frame(&frame))
    }

    /// One solve, as `handle_solve` serves it.
    pub fn solve(&mut self, request: &Request) -> Response {
        let root = self.tracer.begin(Kind::Solve);
        let request: Request = self.wire(request, true);
        let query = mirror::resolve(&self.dataset, &request).expect("scripted solves resolve");
        let versions: Vec<u64> = query
            .items
            .iter()
            .map(|id| self.versions.get(id).copied().unwrap_or(0))
            .collect();
        let keys = self.tracer.scoped("cache.lookup", || {
            CacheKeys::build(
                SHARD,
                query.scheme_name,
                &query.items,
                &versions,
                query.params.m,
                query.params.lambda,
                query.params.mu,
                query.sweeps,
            )
        });
        let response = match self
            .tracer
            .scoped("cache.lookup", || self.cache.full_hit(&keys))
        {
            Some(answer) => {
                self.count(|c| c.full_hits += 1);
                answer_response(answer, "full")
            }
            None => self.solve_miss(&query, &keys),
        };
        let response = self.wire(&response, false);
        self.tracer.exit(root);
        response
    }

    fn solve_miss(&mut self, query: &mirror::Query, keys: &CacheKeys) -> Response {
        let token = Arc::new(CancelToken::with_timeout(
            ServerConfig::default().request_timeout,
        ));
        let ctx = match self
            .tracer
            .scoped("cache.lookup", || self.cache.context(keys))
        {
            Some(ctx) => ctx,
            None => {
                let built = Arc::new(self.tracer.scoped("context.build", || {
                    InstanceContext::build(&self.dataset, &query.instance(), query.scheme)
                }));
                let evicted = self.tracer.scoped("cache.store", || {
                    self.cache.store_context(keys, Arc::clone(&built))
                });
                self.count(|c| {
                    c.context_builds += 1;
                    c.evictions += evicted;
                });
                built
            }
        };
        let checked_out = self
            .tracer
            .scoped("cache.lookup", || self.cache.take_warm(keys))
            .filter(|states| states.len() == ctx.num_items());
        let warm_hit = checked_out.is_some();
        let mut warm = checked_out.unwrap_or_else(|| {
            (0..ctx.num_items())
                .map(|_| RegressionWarm::new())
                .collect()
        });
        self.count(|c| {
            if warm_hit {
                c.warm_hits += 1;
            } else {
                c.misses += 1;
            }
        });
        let opts = SolveOptions::sequential()
            .with_metrics(Arc::clone(&self.metrics))
            .with_cancel(token);
        let before = self.metrics.snapshot();
        let started = Instant::now();
        let span = if warm_hit { "solve.warm" } else { "solve.cold" };
        let selections = self.tracer.scoped(span, || {
            solve_comparesets_plus_sweeps_warm_with(
                &ctx,
                &query.params,
                query.sweeps,
                &opts,
                &mut warm,
            )
        });
        let solver_ns = started.elapsed().as_nanos() as u64;
        let after = self.metrics.snapshot();
        self.count(|c| {
            c.solver_ns += solver_ns;
            c.pursuit_ns += after.pursuit_nanos - before.pursuit_nanos;
            c.refit_ns += after.refit_nanos - before.refit_nanos;
        });
        let objective = self.tracer.scoped("solve.objective", || {
            comparesets_plus_objective(&ctx, &selections, query.params.lambda, query.params.mu)
        });
        let answer = CachedAnswer {
            selections: mirror::wire_selections(&ctx, &selections),
            objective,
        };
        let stored = answer.clone();
        let evicted = self.tracer.scoped("cache.store", || {
            self.cache.store_full(keys, stored) + self.cache.put_warm(keys, warm)
        });
        self.count(|c| c.evictions += evicted);
        answer_response(answer, if warm_hit { "warm" } else { "cold" })
    }

    /// One ingest, as `handle_ingest` applies it: stage on a clone, log,
    /// swap, maybe snapshot, invalidate.
    pub fn ingest(&mut self, request: &Request) -> Response {
        let root = self.tracer.begin(Kind::Ingest);
        let request: Request = self.wire(request, true);
        let events = request.events.clone().unwrap_or_default();
        let base_seq = self.next_seq;
        let mut staged = self.tracer.scoped("stage.clone", || self.dataset.clone());
        let mut batch = Vec::with_capacity(events.len());
        for (k, wire) in events.iter().enumerate() {
            let ev =
                mirror::stamp(&staged, base_seq + k as u64, wire).expect("scripted events stamp");
            self.tracer
                .scoped("stage.apply", || staged.apply_event(&ev))
                .expect("scripted events apply");
            batch.push(ev);
        }
        if let Some(store) = self.store.as_mut() {
            let path = store.dir().join(WAL_FILE);
            let before = file_len(&path);
            self.tracer
                .scoped("wal.append", || store.append(&batch))
                .expect("replay WAL append");
            let grown = file_len(&path) - before;
            self.count(|c| c.wal_bytes += grown);
        }
        let last_seq = base_seq + batch.len() as u64 - 1;
        let touched: BTreeSet<u32> = batch.iter().map(|ev| ev.product.0).collect();
        self.dataset = staged;
        self.next_seq = base_seq + batch.len() as u64;
        for &product in &touched {
            *self.versions.entry(product).or_insert(0) += 1;
        }
        if let Some(store) = self.store.as_mut() {
            let id = self.tracer.enter("snapshot.write");
            let wrote = store
                .maybe_snapshot(&self.dataset)
                .expect("replay snapshot");
            self.tracer.exit(id);
            if wrote {
                let bytes = file_len(&store.dir().join(SNAPSHOT_FILE));
                self.count(|c| {
                    c.snapshots += 1;
                    c.snapshot_bytes += bytes;
                });
            } else {
                self.tracer.spans[id].name = "snapshot.skip";
            }
        }
        let invalidated = self.tracer.scoped("cache.invalidate", || {
            touched
                .iter()
                .map(|&p| self.cache.invalidate_item(SHARD, p))
                .sum::<u64>()
        });
        self.count(|c| c.invalidations += invalidated);
        let response = Response {
            ingested: Some(batch.len() as u64),
            last_seq: Some(last_seq),
            ..Response::ok()
        };
        let response = self.wire(&response, false);
        self.tracer.exit(root);
        response
    }
}

/// What the restart path yields: the snapshot's corpus, the WAL tail,
/// and the corpus after replaying it.
pub struct Restarted {
    pub snapshot: Dataset,
    pub tail: Vec<ReviewEvent>,
    pub recovered: Dataset,
}

/// The restart path of `recover`, call by call: read the snapshot,
/// decode it, validate it, scan the WAL, apply the tail.
pub fn restart(tracer: &mut Tracer, dir: &Path) -> Result<Restarted, String> {
    let root = tracer.begin(Kind::Restart);
    let path = dir.join(SNAPSHOT_FILE);
    let json = tracer
        .scoped("recover.read", || std::fs::read_to_string(&path))
        .map_err(|e| format!("reading snapshot: {e}"))?;
    let snap: CorpusSnapshot = tracer
        .scoped("recover.decode", || serde_json::from_str(&json))
        .map_err(|e| format!("decoding snapshot: {e}"))?;
    let problems = tracer.scoped("recover.validate", || snap.dataset.validate());
    if let Some(first) = problems.first() {
        return Err(format!("snapshot invalid: {first}"));
    }
    let wal_path = dir.join(WAL_FILE);
    let scan = tracer
        .scoped("recover.scan", || wal::scan_wal(&wal_path))
        .map_err(|e| format!("scanning WAL: {e}"))?;
    let snapshot = snap.dataset.clone();
    let mut recovered = snap.dataset;
    let tail: Vec<ReviewEvent> = scan
        .events
        .into_iter()
        .filter(|ev| ev.seq > snap.seq)
        .collect();
    tracer
        .scoped("recover.apply", || {
            tail.iter().try_for_each(|ev| recovered.apply_event(ev))
        })
        .map_err(|e| format!("replaying WAL: {e}"))?;
    tracer.exit(root);
    Ok(Restarted {
        snapshot,
        tail,
        recovered,
    })
}

/// A durable replay in `dir` that matches a daemon just restarted from
/// `restarted`: the snapshot's corpus sealed at seq 0 and the tail
/// appended after it, so the next snapshot falls on the same write as
/// the daemon's. `tracer` carries the restart's spans.
pub fn durable(tracer: Tracer, restarted: Restarted, dir: PathBuf) -> Result<Replay, String> {
    let metrics = Arc::new(SolverMetrics::new());
    let every = ServerConfig::default().snapshot_every;
    let (mut store, _) = CorpusStore::open(
        &dir,
        Some(&restarted.snapshot),
        every,
        Some(Arc::clone(&metrics)),
    )
    .map_err(|e| format!("opening replay store: {e}"))?;
    if !restarted.tail.is_empty() {
        store
            .append(&restarted.tail)
            .map_err(|e| format!("appending replay tail: {e}"))?;
    }
    let next_seq = store.next_seq();
    Ok(Replay::with(
        tracer,
        restarted.recovered,
        Some(store),
        next_seq,
        metrics,
    ))
}

fn answer_response(answer: CachedAnswer, cache: &str) -> Response {
    Response {
        selections: answer.selections,
        objective: Some(answer.objective),
        cache: Some(cache.to_string()),
        ..Response::ok()
    }
}

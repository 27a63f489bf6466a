//! The serving daemon: a TCP listener, one handler thread per
//! connection, a shared [`SessionCache`], and deadline-based admission
//! control.
//!
//! ## Request lifecycle
//!
//! ```text
//! frame in ──▶ decode ──▶ dispatch by op
//!                          │
//!                          ├─ ping / metrics / shutdown: answer inline
//!                          │
//!                          ├─ ingest: stage ▸ WAL append + fsync ▸ swap
//!                          │          ▸ bump item versions ▸ invalidate
//!                          │          (ack carries the durable last_seq)
//!                          │
//!                          └─ solve:
//!                              resolve shard + item set ── invalid ──▶ Error
//!                              full-result hit? ───────────── yes ──▶ Ok (cache=full)
//!                              admit (in_flight+1) ─ over cap? ─▶ clamp deadline
//!                              context: cached Arc or build-and-share
//!                              warm states: checkout or fresh
//!                              alternating solve (warm-injected, token-polled)
//!                              deadline fired? ── yes ──▶ Degraded (best-so-far,
//!                              │                           nothing cached)
//!                              └─ no ──▶ memoize answer + return warm states
//!                                        ──▶ Ok (cache=warm|cold)
//! ```
//!
//! ## Admission control
//!
//! The server never queues solves: every request is admitted
//! immediately, but a request that finds more than `workers` solves
//! already in flight has its deadline clamped to `overload_timeout`.
//! The alternating solver's anytime semantics (ARCHITECTURE.md §8) turn
//! that clamp into a degraded-but-valid answer — the best feasible
//! iterate at the moment the token fired — instead of an error or an
//! unbounded queue. Overload therefore degrades answer *quality*
//! smoothly while latency stays bounded.
//!
//! Degraded answers are never written to the session cache: the cache
//! holds only completed solves, so every cache hit replays a converged
//! answer byte-identically.
//!
//! ## Live corpora
//!
//! Shards are mutable: `ingest` requests stream review events
//! (add/edit/delete) into a shard while solves keep running. Each shard
//! sits behind a readers-writer lock — solves share it, an ingest
//! excludes them only for the stage-log-swap critical section, never
//! for a solve. With [`ServerConfig::data_dir`] set the swap is durable:
//! events are fsynced to a per-shard WAL before the ack, snapshots
//! compact the log, and a restart recovers every acknowledged event
//! (see `comparesets_data::wal` and ARCHITECTURE.md §11). Cache
//! freshness is structural: cache keys embed a per-product mutation
//! version, so no cached selection computed before an item's last
//! mutation can ever be served.

use crate::cache::{CacheKeys, CachedAnswer, SessionCache};
use crate::protocol::{
    read_frame_bounded, write_message, IngestEvent, ItemSelection, ProtocolError, Request,
    Response, Status,
};
use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_warm_with, CancelToken,
    InstanceContext, OpinionScheme, RegressionWarm, SelectParams, Selection, SolveOptions,
    SolverMetrics,
};
use comparesets_data::wal::{EventKind, ReviewEvent, WalError};
use comparesets_data::{ComparisonInstance, CorpusStore, Dataset, ProductId, ReviewId};
use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::time::{Duration, Instant};

/// Server tuning knobs. Everything here is operational — no setting
/// changes what a completed (non-degraded) solve returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Soft cap on concurrently running solves; the request that pushes
    /// the count past this gets the overload deadline instead of the
    /// full one. Must be at least 1.
    pub workers: usize,
    /// Session-cache capacity per layer (0 disables caching).
    pub cache_capacity: usize,
    /// Default per-request deadline; a client `timeout_ms` can only
    /// shorten it.
    pub request_timeout: Duration,
    /// Deadline applied to requests admitted over the `workers` cap.
    pub overload_timeout: Duration,
    /// Stop accepting after this many requests (`None` = run until a
    /// `shutdown` request). A backstop for smoke tests and benches.
    pub max_requests: Option<u64>,
    /// Root of the durable corpus store. When set, every shard gets a
    /// WAL + snapshot pair under `<data_dir>/<shard>` (created or
    /// recovered at bind), and `ingest` requests are acknowledged only
    /// after their events are fsynced to the WAL. `None` serves
    /// in-memory: ingest still works but mutations die with the process.
    pub data_dir: Option<PathBuf>,
    /// Compact each shard's WAL into a fresh snapshot after this many
    /// appended records (0 = never; snapshot only at first open).
    pub snapshot_every: u64,
    /// Close a connection that sends no frame for this long. Idle peers
    /// are closed quietly — keep-alives are cheap to re-establish.
    pub idle_timeout: Duration,
    /// Total wall-time budget for one frame, first byte to last (and the
    /// socket write timeout for responses). A slowloris peer trickling a
    /// frame byte-by-byte pins a handler for at most this long; expiry
    /// is answered in-band as a `usage` error, then the close.
    pub frame_timeout: Duration,
    /// On drain (SIGTERM or [`request_drain`]): how long in-flight
    /// solves may run to completion before their deadlines are clamped
    /// (cancel tokens fired; the anytime solver answers each with its
    /// best-so-far iterate, marked degraded).
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_capacity: 64,
            request_timeout: Duration::from_secs(30),
            overload_timeout: Duration::from_millis(250),
            max_requests: None,
            data_dir: None,
            snapshot_every: 256,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(1),
        }
    }
}

/// What a finished [`Server::run`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Total requests answered (all operations).
    pub requests: u64,
    /// Requests answered with `Status::Degraded`.
    pub degraded: u64,
}

/// Mutable serving state shared by the accept loop and every handler.
struct ServeState {
    shutdown: AtomicBool,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    served: AtomicU64,
    degraded: AtomicU64,
}

/// Set by the process-wide SIGTERM handler (or [`request_drain`]);
/// consumed by the drain watcher of the running server.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn sigterm_handler(_sig: i32) {
    // The only async-signal-safe thing worth doing: flip an atomic the
    // drain watcher polls. Everything else happens on normal threads.
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Install a SIGTERM handler that triggers a graceful drain of the
/// running server: stop accepting, finish (or deadline-clamp) in-flight
/// solves, fsync the WALs, write final snapshots, then exit the run
/// loop. The CLI installs this before `serve`; embedders may too.
/// Process-wide and idempotent.
pub fn install_sigterm_drain() {
    #[cfg(unix)]
    unsafe {
        signal(15, sigterm_handler as extern "C" fn(i32) as usize);
    }
}

/// Trigger the same graceful drain a SIGTERM would, from inside the
/// process (tests, embedders). Process-wide: with several servers
/// running in one process, whichever drain watcher polls first wins.
pub fn request_drain() {
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// One corpus shard: a name and its mutable state behind a
/// readers-writer lock — solves share read access, ingests serialize on
/// write access. The lock is never held across a solve: `handle_solve`
/// snapshots what it needs (context + versions) and drops the guard
/// before optimizing.
struct Shard {
    name: String,
    state: RwLock<ShardState>,
}

/// The mutable half of a shard.
struct ShardState {
    /// The live corpus all new solves see.
    dataset: Dataset,
    /// Per-product mutation version, bumped by every ingest that touches
    /// the product. Folded into cache keys (`id:vN`) so entries computed
    /// before a mutation become unreachable — a warm or full cache hit
    /// can never serve a selection older than the item's last mutation.
    /// Products never mutated are implicitly at version 0.
    versions: HashMap<u32, u64>,
    /// The next WAL sequence number (mirrors the store when durable;
    /// counts locally when serving in-memory).
    next_seq: u64,
    /// The durable WAL + snapshot pair (`None` when serving in-memory).
    store: Option<CorpusStore>,
}

impl Shard {
    /// Read-lock the shard, riding over a poisoned lock: a handler panic
    /// can leave at worst a fully-applied ingest (the dataset is swapped
    /// in whole), never a half-mutated corpus.
    fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Everything a connection handler needs, behind one `Arc`.
struct Shared {
    shards: Vec<Shard>,
    cache: SessionCache,
    metrics: Arc<SolverMetrics>,
    config: ServerConfig,
    state: ServeState,
    addr: SocketAddr,
    /// Cancel tokens of in-flight solves, so a drain can deadline-clamp
    /// them. Weak: a completed solve drops its token, and registration
    /// sweeps dead entries.
    in_flight_tokens: Mutex<Vec<Weak<CancelToken>>>,
}

impl Shared {
    fn tokens(&self) -> std::sync::MutexGuard<'_, Vec<Weak<CancelToken>>> {
        self.in_flight_tokens
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The serving daemon. Bind, then [`run`](Server::run) until a
/// `shutdown` request (or the `max_requests` backstop) stops the accept
/// loop.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` and prepare to serve `shards` (name → corpus; the
    /// first shard is the default for requests that name none). With
    /// `config.data_dir` set, each shard opens (or recovers) its durable
    /// store under `<data_dir>/<name>`: an existing snapshot + WAL tail
    /// *wins over the passed corpus*, so restarting after a crash
    /// resumes from every acknowledged ingest.
    ///
    /// # Errors
    /// `std::io::Error` when the address cannot be bound, the store
    /// cannot be opened, or `InvalidInput` when `shards` is empty or
    /// `workers` is 0.
    pub fn bind(
        addr: &str,
        shards: Vec<(String, Dataset)>,
        metrics: Arc<SolverMetrics>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a server needs at least one corpus shard",
            ));
        }
        if config.workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "workers must be at least 1",
            ));
        }
        let shards = shards
            .into_iter()
            .map(|(name, dataset)| {
                let (dataset, next_seq, store) = match &config.data_dir {
                    None => (dataset, 1, None),
                    Some(root) => {
                        let dir = root.join(&name);
                        std::fs::create_dir_all(&dir)?;
                        let (store, recovered) =
                            CorpusStore::open(&dir, Some(&dataset), config.snapshot_every, Some(Arc::clone(&metrics)))
                                .map_err(|e| {
                                    std::io::Error::other(format!("opening store for shard {name:?}: {e}"))
                                })?;
                        if recovered.replayed > 0 || recovered.truncated_bytes > 0 {
                            tracing::info!(
                                "shard {name:?}: recovered {} event(s) past snapshot seq {} ({} torn byte(s) dropped)",
                                recovered.replayed,
                                recovered.snapshot_seq,
                                recovered.truncated_bytes
                            );
                        }
                        (recovered.dataset, store.next_seq(), Some(store))
                    }
                };
                Ok(Shard {
                    name,
                    state: RwLock::new(ShardState {
                        dataset,
                        versions: HashMap::new(),
                        next_seq,
                        store,
                    }),
                })
            })
            .collect::<std::io::Result<Vec<Shard>>>()?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let cache = SessionCache::new(config.cache_capacity);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                shards,
                cache,
                metrics,
                config,
                state: ServeState {
                    shutdown: AtomicBool::new(false),
                    draining: AtomicBool::new(false),
                    in_flight: AtomicUsize::new(0),
                    served: AtomicU64::new(0),
                    degraded: AtomicU64::new(0),
                },
                addr: local,
                in_flight_tokens: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accept and serve connections until shut down. Each connection
    /// gets its own thread and may carry any number of request frames.
    ///
    /// Shutdown stops the *accept loop*; handler threads finish the
    /// request they are on and exit with their connection (bounded reads
    /// notice the shutdown within one poll tick). A client that wants
    /// every answer before shutdown sends `shutdown` last on its own
    /// connection.
    ///
    /// A SIGTERM (with [`install_sigterm_drain`] installed) or
    /// [`request_drain`] triggers the graceful path instead: stop
    /// admitting solves/ingests (they answer a typed `draining` error
    /// with a retry-after hint), let in-flight solves finish or clamp
    /// them at `drain_deadline`, then shut down. Either way, durable
    /// shards are fsynced and a final snapshot is written before this
    /// returns — a restart replays zero records.
    ///
    /// # Errors
    /// Only fatal listener errors; per-connection failures are logged
    /// (`tracing::warn!`) and dropped.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        tracing::info!(
            "serving {} shard(s) on {} (workers {}, cache {})",
            self.shared.shards.len(),
            self.shared.addr,
            self.shared.config.workers,
            self.shared.config.cache_capacity
        );
        let watcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || drain_watcher(&shared))
        };
        let mut handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared)
                    }));
                }
                Err(e) => tracing::warn!("accept failed: {e}"),
            }
        }
        // Bounded reads re-check the shutdown flag every poll tick, so
        // handlers exit as soon as their current request is answered.
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.state.shutdown.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        // Flush + final snapshot: a restart recovers with zero replayed
        // records. A failed snapshot is logged, not fatal — the WAL
        // already holds everything acknowledged.
        for shard in &self.shared.shards {
            let mut state = shard.write();
            let ShardState { dataset, store, .. } = &mut *state;
            if let Some(store) = store.as_mut() {
                if let Err(e) = store.sync() {
                    tracing::warn!("shard {:?}: final WAL sync failed: {e}", shard.name);
                }
                if store.wal_lag() > 0 {
                    match store.snapshot(dataset) {
                        Ok(()) => {
                            tracing::info!("shard {:?}: final snapshot written", shard.name);
                        }
                        Err(e) => {
                            tracing::warn!("shard {:?}: final snapshot failed: {e}", shard.name);
                        }
                    }
                }
            }
        }
        Ok(ServeSummary {
            requests: self.shared.state.served.load(Ordering::Relaxed),
            degraded: self.shared.state.degraded.load(Ordering::Relaxed),
        })
    }
}

/// Poll for a drain request (SIGTERM or [`request_drain`]) until the
/// server shuts down; on one, run the graceful-drain sequence.
fn drain_watcher(shared: &Shared) {
    loop {
        if shared.state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if DRAIN_REQUESTED.swap(false, Ordering::SeqCst) {
            drain(shared);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The graceful-drain sequence: stop admitting work, give in-flight
/// solves `drain_deadline` to finish, then clamp the stragglers by
/// firing their cancel tokens (the anytime solver answers each with its
/// best-so-far iterate), and finally stop the accept loop. WAL flush and
/// final snapshots happen in [`Server::run`] after the handlers join.
fn drain(shared: &Shared) {
    tracing::info!(
        "drain initiated: {} solve(s) in flight",
        shared.state.in_flight.load(Ordering::SeqCst)
    );
    SolverMetrics::incr(&shared.metrics.drain_initiated);
    shared.state.draining.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + shared.config.drain_deadline;
    while shared.state.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Deadline-clamp whatever is still running. The loop keeps firing
    // in case a solve slipped past the draining gate and registered
    // late; the backstop bounds us even if a token is never dropped.
    let backstop = Instant::now() + Duration::from_secs(2);
    loop {
        for weak in shared.tokens().drain(..) {
            if let Some(token) = weak.upgrade() {
                token.cancel();
            }
        }
        if shared.state.in_flight.load(Ordering::SeqCst) == 0 || Instant::now() >= backstop {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.state.shutdown.store(true, Ordering::SeqCst);
    wake_accept_loop(shared);
}

/// Serve one connection: frames in, frames out, until EOF, a protocol
/// error, a deadline, or shutdown.
///
/// Reads are bounded two ways: an *idle* deadline between frames (a
/// silent client is closed quietly) and a *per-frame* deadline from the
/// first byte of a frame (a slowloris trickling bytes gets a typed
/// `usage` error in-band, then the close). Writes carry the same
/// per-frame deadline via the socket write timeout.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.frame_timeout));
    loop {
        // Only *shutdown* abandons an idle read: a draining server must
        // still read incoming requests so it can answer them with the
        // typed `draining` error instead of a silent hangup.
        let give_up = || shared.state.shutdown.load(Ordering::SeqCst);
        let payload = match read_frame_bounded(
            &stream,
            shared.config.idle_timeout,
            shared.config.frame_timeout,
            &give_up,
        ) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF between frames, or drain/shutdown
            Err(ProtocolError::IdleTimeout) => {
                SolverMetrics::incr(&shared.metrics.connections_timed_out);
                tracing::debug!("closing idle connection");
                return;
            }
            Err(e @ ProtocolError::FrameTimeout) => {
                SolverMetrics::incr(&shared.metrics.connections_timed_out);
                tracing::warn!("connection error: {e}");
                let resp = Response::error("usage", e.to_string());
                let _ = write_message(&mut stream, &resp);
                return;
            }
            Err(e) => {
                // Answer in-band when the transport still works, so a
                // buggy client sees *why* instead of a hangup.
                tracing::warn!("connection error: {e}");
                let resp = Response::error("usage", e.to_string());
                let _ = write_message(&mut stream, &resp);
                return;
            }
        };
        let response = match crate::protocol::decode::<Request>(&payload) {
            Ok(request) => handle_request(shared, &request),
            Err(e) => Response::error("usage", e.to_string()),
        };
        let stop = shared.state.shutdown.load(Ordering::SeqCst);
        if write_message(&mut stream, &response).is_err() || stop {
            if stop {
                wake_accept_loop(shared);
            }
            return;
        }
    }
}

/// Unblock the accept loop after the shutdown flag is set: `incoming()`
/// only re-checks the flag per connection, so connect once to self.
fn wake_accept_loop(shared: &Shared) {
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

/// Dispatch one decoded request. Infallible by construction: every
/// failure becomes an `Error` response.
fn handle_request(shared: &Shared, request: &Request) -> Response {
    SolverMetrics::incr(&shared.metrics.serve_requests);
    let served = shared.state.served.fetch_add(1, Ordering::Relaxed) + 1;
    if shared
        .config
        .max_requests
        .is_some_and(|limit| served >= limit)
    {
        shared.state.shutdown.store(true, Ordering::SeqCst);
    }
    let span = tracing::debug_span!("request", op = request.op.as_str());
    let _guard = span.enter();
    // A draining server refuses new work with a typed error and a
    // retry-after hint; probes (`ping`/`health`/`metrics`) stay open so
    // orchestrators can watch the drain complete.
    if shared.state.draining.load(Ordering::SeqCst)
        && matches!(request.op.as_str(), "solve" | "ingest")
    {
        let mut resp = Response::error("draining", "server is draining; retry soon".to_string());
        resp.retry_after_ms = Some(shared.config.drain_deadline.as_millis() as u64 + 500);
        return resp;
    }
    let response = match request.op.as_str() {
        "ping" => Response {
            pong: Some("pong".to_string()),
            ..Response::ok()
        },
        "metrics" => match serde_json::to_string(&shared.metrics.snapshot()) {
            Ok(json) => Response {
                info: Some(json),
                ..Response::ok()
            },
            Err(e) => Response::error("internal", format!("encoding metrics: {e}")),
        },
        "shutdown" => {
            shared.state.shutdown.store(true, Ordering::SeqCst);
            Response::ok()
        }
        "health" => handle_health(shared),
        "solve" => handle_solve(shared, request),
        "ingest" => handle_ingest(shared, request),
        other => Response::error("usage", format!("unknown op {other:?}")),
    };
    if response.status == Status::Degraded {
        shared.state.degraded.fetch_add(1, Ordering::Relaxed);
    }
    response
}

/// Readiness probe: `degraded` when any shard's store is poisoned (a
/// rollback-after-failed-append could not restore the WAL boundary),
/// `draining` while a graceful shutdown is refusing new work, `ready`
/// otherwise. `wal_lag` sums the records each shard would replay if it
/// crashed right now — a proxy for how stale the snapshots are.
fn handle_health(shared: &Shared) -> Response {
    SolverMetrics::incr(&shared.metrics.health_checks);
    let mut lag = 0u64;
    let mut poisoned = false;
    for shard in &shared.shards {
        let state = shard.read();
        if let Some(store) = state.store.as_ref() {
            lag += store.wal_lag();
            poisoned |= store.poisoned().is_some();
        }
    }
    let health = if poisoned {
        "degraded"
    } else if shared.state.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ready"
    };
    Response {
        health: Some(health.to_string()),
        wal_lag: Some(lag),
        resident_bytes: Some(shared.cache.resident_bytes()),
        ..Response::ok()
    }
}

/// RAII slot in the in-flight gauge; `overloaded` reflects the count the
/// moment this request was admitted.
struct Admission<'a> {
    gauge: &'a AtomicUsize,
    overloaded: bool,
}

impl<'a> Admission<'a> {
    fn enter(gauge: &'a AtomicUsize, cap: usize) -> Admission<'a> {
        let running = gauge.fetch_add(1, Ordering::SeqCst) + 1;
        Admission {
            gauge,
            overloaded: running > cap,
        }
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Solve parameters after defaulting and validation.
struct SolveQuery {
    items: Vec<u32>,
    params: SelectParams,
    sweeps: usize,
    scheme: OpinionScheme,
    scheme_name: &'static str,
}

fn handle_solve(shared: &Shared, request: &Request) -> Response {
    let shard = match resolve_shard(shared, &request.shard) {
        Ok(found) => found,
        Err(resp) => return *resp,
    };
    // Read-lock while resolving the query and (on a context miss)
    // assembling the instance context; concurrent solves share the lock,
    // only an ingest excludes them. Never held across the solve itself.
    let state = shard.read();
    let query = match resolve_query(&state.dataset, request) {
        Ok(q) => q,
        Err(resp) => return *resp,
    };
    let versions: Vec<u64> = query
        .items
        .iter()
        .map(|id| state.versions.get(id).copied().unwrap_or(0))
        .collect();
    let keys = CacheKeys::build(
        &shard.name,
        query.scheme_name,
        &query.items,
        &versions,
        query.params.m,
        query.params.lambda,
        query.params.mu,
        query.sweeps,
    );

    // Layer 1: an exact repeat replays the memoized answer. The solver
    // is deterministic, so this is byte-identical to re-solving; item
    // versions in the key guarantee the memo postdates every mutation.
    if let Some(answer) = shared.cache.full_hit(&keys) {
        SolverMetrics::incr(&shared.metrics.serve_full_hits);
        return answer_response(answer, "full");
    }

    let admission = Admission::enter(&shared.state.in_flight, shared.config.workers);
    let mut budget = shared.config.request_timeout;
    if let Some(ms) = request.timeout_ms {
        budget = budget.min(Duration::from_millis(ms));
    }
    if admission.overloaded {
        budget = budget.min(shared.config.overload_timeout);
    }
    let token = Arc::new(CancelToken::with_timeout(budget));
    // Register for deadline-clamping on drain: the drain sequence fires
    // every live token so no handler outlives its deadline. Weak refs
    // keep completed solves from pinning memory; sweep the dead ones
    // while we hold the lock anyway.
    {
        let mut tokens = shared.tokens();
        tokens.retain(|weak| weak.strong_count() > 0);
        tokens.push(Arc::downgrade(&token));
    }

    let ctx = match shared.cache.context(&keys) {
        Some(ctx) => ctx,
        None => {
            let instance = ComparisonInstance {
                items: query.items.iter().map(|&id| ProductId(id)).collect(),
            };
            let built = Arc::new(InstanceContext::build(
                &state.dataset,
                &instance,
                query.scheme,
            ));
            let evicted = shared.cache.store_context(&keys, Arc::clone(&built));
            SolverMetrics::add(&shared.metrics.serve_cache_evictions, evicted);
            built
        }
    };
    drop(state);

    // Layer 2: check out warm states for this query shape, or start
    // fresh. A shape mismatch (item count changed under the same key
    // cannot happen — items are in the key — but guard anyway) solves
    // cold.
    let checked_out = shared
        .cache
        .take_warm(&keys)
        .filter(|states| states.len() == ctx.num_items());
    let warm_hit = checked_out.is_some();
    let mut warm = checked_out.unwrap_or_else(|| {
        (0..ctx.num_items())
            .map(|_| RegressionWarm::new())
            .collect()
    });
    if warm_hit {
        SolverMetrics::incr(&shared.metrics.serve_warm_hits);
    } else {
        SolverMetrics::incr(&shared.metrics.serve_cache_misses);
    }

    let opts = SolveOptions::sequential()
        .with_metrics(Arc::clone(&shared.metrics))
        .with_cancel(Arc::clone(&token));
    let selections = solve_comparesets_plus_sweeps_warm_with(
        &ctx,
        &query.params,
        query.sweeps,
        &opts,
        &mut warm,
    );
    drop(admission);

    if token.fired() {
        // Anytime result: valid selections, possibly unconverged. Cache
        // nothing — the session cache holds completed solves only — and
        // drop the checked-out warm states with it.
        SolverMetrics::incr(&shared.metrics.serve_degraded);
        let mut response = answer_response(wire_answer(&ctx, &selections, f64::NAN), "cold");
        response.status = Status::Degraded;
        response.objective = None;
        return response;
    }

    let objective =
        comparesets_plus_objective(&ctx, &selections, query.params.lambda, query.params.mu);
    let answer = wire_answer(&ctx, &selections, objective);
    let mut evicted = shared.cache.store_full(&keys, answer.clone());
    evicted += shared.cache.put_warm(&keys, warm);
    SolverMetrics::add(&shared.metrics.serve_cache_evictions, evicted);
    answer_response(answer, if warm_hit { "warm" } else { "cold" })
}

/// Find the requested shard (or default to the first).
fn resolve_shard<'a>(shared: &'a Shared, name: &str) -> Result<&'a Shard, Box<Response>> {
    if name.is_empty() {
        return Ok(&shared.shards[0]);
    }
    shared
        .shards
        .iter()
        .find(|shard| shard.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = shared.shards.iter().map(|s| s.name.as_str()).collect();
            Box::new(Response::error(
                "usage",
                format!("unknown shard {name:?} (have {known:?})"),
            ))
        })
}

/// Apply one batch of review events to a shard — atomically, durably,
/// and without ever exposing a half-applied corpus:
///
/// 1. *Stage*: clone the live dataset and validate + apply every event
///    to the clone; any failure rejects the whole batch untouched.
/// 2. *Log*: append the batch to the shard's WAL — one write, one
///    fsync. An I/O failure rejects the batch (code `io`); the torn
///    tail, if any, truncates on recovery.
/// 3. *Swap*: publish the staged dataset, advance `next_seq`, and bump
///    the version of every touched product (stale cache keys die here).
/// 4. *Invalidate*: after dropping the lock, sweep cache entries that
///    mention a touched product (hygiene — versioned keys already made
///    them unreachable).
///
/// The ack (`ingested` + `last_seq`) is sent only after step 2's fsync
/// returns, so an acknowledged event survives any crash.
fn handle_ingest(shared: &Shared, request: &Request) -> Response {
    let shard = match resolve_shard(shared, &request.shard) {
        Ok(found) => found,
        Err(resp) => return *resp,
    };
    let events = match &request.events {
        Some(events) if !events.is_empty() => events,
        _ => return Response::error("usage", "ingest needs a non-empty events list".to_string()),
    };

    let mut state = shard.write();
    let base_seq = state.next_seq;
    let mut staged = state.dataset.clone();
    let mut batch = Vec::with_capacity(events.len());
    for (k, wire) in events.iter().enumerate() {
        let ev = match wire_event(&staged, base_seq + k as u64, wire) {
            Ok(ev) => ev,
            Err(resp) => return *resp,
        };
        if ev.kind == EventKind::Delete && staged.reviews_of(ev.product).len() <= 1 {
            return Response::error(
                "data",
                format!(
                    "event {k}: cannot delete the last review of product {}",
                    ev.product.0
                ),
            );
        }
        if let Err(why) = staged.apply_event(&ev) {
            return Response::error("data", format!("event {k}: {why}"));
        }
        batch.push(ev);
    }

    if let Some(store) = state.store.as_mut() {
        if let Err(e) = store.append(&batch) {
            // Nothing was published; a torn tail from the failed append
            // truncates on recovery, before any ack exists for it. A
            // full or read-only disk is reported as `disk`, not `io`:
            // retrying cannot help until an operator intervenes.
            let code = if matches!(e, WalError::Disk(_)) {
                "disk"
            } else {
                "io"
            };
            return Response::error(code, format!("wal append failed: {e}"));
        }
    }

    let last_seq = base_seq + batch.len() as u64 - 1;
    let touched: BTreeSet<u32> = batch.iter().map(|ev| ev.product.0).collect();
    state.dataset = staged;
    state.next_seq = base_seq + batch.len() as u64;
    for &product in &touched {
        *state.versions.entry(product).or_insert(0) += 1;
    }
    let ShardState { dataset, store, .. } = &mut *state;
    if let Some(store) = store.as_mut() {
        match store.maybe_snapshot(dataset) {
            Ok(true) => tracing::debug!("shard {:?}: snapshot + WAL compaction", shard.name),
            Ok(false) => {}
            // The WAL already holds the events durably; a failed
            // snapshot only means a longer replay after the next crash.
            Err(e) => tracing::warn!("shard {:?}: snapshot failed: {e}", shard.name),
        }
    }
    drop(state);

    let mut invalidated = 0;
    for &product in &touched {
        invalidated += shared.cache.invalidate_item(&shard.name, product);
    }
    SolverMetrics::add(&shared.metrics.cache_invalidations, invalidated);
    Response {
        ingested: Some(batch.len() as u64),
        last_seq: Some(last_seq),
        ..Response::ok()
    }
}

/// Resolve one wire event against the staged corpus into the WAL shape:
/// `add` assigns the next review id and reviewer index; `edit` fills
/// absent fields from the current review; `delete` carries ids only.
fn wire_event(
    staged: &Dataset,
    seq: u64,
    wire: &IngestEvent,
) -> Result<ReviewEvent, Box<Response>> {
    let usage = |msg: String| Box::new(Response::error("usage", msg));
    let product = ProductId(wire.product);
    let need_review = || {
        wire.review
            .map(ReviewId)
            .ok_or_else(|| usage(format!("{} needs a review id", wire.op)))
    };
    match wire.op.as_str() {
        "add" => Ok(ReviewEvent {
            seq,
            kind: EventKind::Add,
            product,
            review: ReviewId(staged.reviews.len() as u32),
            reviewer: staged.num_reviewers,
            rating: wire.rating.unwrap_or(4),
            text: wire.text.clone().unwrap_or_default(),
            mentions: wire.mentions.clone().unwrap_or_default(),
        }),
        "edit" => {
            let review = need_review()?;
            let current = staged
                .reviews
                .get(review.0 as usize)
                .ok_or_else(|| usage(format!("review {} out of range", review.0)))?;
            Ok(ReviewEvent {
                seq,
                kind: EventKind::Edit,
                product,
                review,
                reviewer: current.reviewer,
                rating: wire.rating.unwrap_or(current.rating),
                text: wire.text.clone().unwrap_or_else(|| current.text.clone()),
                mentions: wire
                    .mentions
                    .clone()
                    .unwrap_or_else(|| current.mentions.clone()),
            })
        }
        "delete" => Ok(ReviewEvent {
            seq,
            kind: EventKind::Delete,
            product,
            review: need_review()?,
            reviewer: 0,
            rating: 0,
            text: String::new(),
            mentions: Vec::new(),
        }),
        other => Err(usage(format!(
            "unknown ingest op {other:?} (add, edit, delete)"
        ))),
    }
}

/// Default, resolve, and validate a solve request against its shard.
fn resolve_query(dataset: &Dataset, request: &Request) -> Result<SolveQuery, Box<Response>> {
    let usage = |msg: String| Box::new(Response::error("usage", msg));
    let params = SelectParams {
        m: request.m.unwrap_or(3),
        lambda: request.lambda.unwrap_or(1.0),
        mu: request.mu.unwrap_or(0.1),
    };
    params.validate().map_err(|e| usage(e.to_string()))?;
    let sweeps = request.sweeps.unwrap_or(1);
    if sweeps == 0 {
        return Err(usage("sweeps must be at least 1".to_string()));
    }
    let (scheme, scheme_name) = match request.scheme.as_deref().unwrap_or("binary") {
        "binary" => (OpinionScheme::Binary, "binary"),
        "3-polarity" | "three-polarity" | "ternary" => (OpinionScheme::ThreePolarity, "3-polarity"),
        "unary-scale" | "unary" => (OpinionScheme::UnaryScale, "unary-scale"),
        other => return Err(usage(format!("unknown opinion scheme {other:?}"))),
    };

    let items = match (&request.items, request.target) {
        (Some(explicit), _) => {
            if explicit.is_empty() {
                return Err(usage("items must name at least a target".to_string()));
            }
            explicit.clone()
        }
        (None, Some(target)) => {
            derive_items(dataset, target, request.max_comparatives.unwrap_or(12))?
        }
        (None, None) => {
            return Err(usage("solve needs either target or items".to_string()));
        }
    };
    for &id in &items {
        if id as usize >= dataset.products.len() {
            return Err(Box::new(Response::error(
                "usage",
                format!(
                    "product {id} out of range (shard has {} products)",
                    dataset.products.len()
                ),
            )));
        }
        if dataset.reviews_of(ProductId(id)).is_empty() {
            return Err(Box::new(Response::error(
                "data",
                format!("product {id} has no reviews"),
            )));
        }
    }

    Ok(SolveQuery {
        items,
        params,
        sweeps,
        scheme,
        scheme_name,
    })
}

/// Derive the comparison set for a target from its shard, mirroring the
/// CLI's `select` resolution: reviewed `also_bought` products, capped.
fn derive_items(
    dataset: &Dataset,
    target: u32,
    max_comparatives: usize,
) -> Result<Vec<u32>, Box<Response>> {
    if target as usize >= dataset.products.len() {
        return Err(Box::new(Response::error(
            "usage",
            format!(
                "target {target} out of range (shard has {} products)",
                dataset.products.len()
            ),
        )));
    }
    let pid = ProductId(target);
    if dataset.reviews_of(pid).is_empty() {
        return Err(Box::new(Response::error(
            "data",
            format!("product {target} has no reviews"),
        )));
    }
    let comps: Vec<u32> = dataset
        .product(pid)
        .also_bought
        .iter()
        .filter(|c| !dataset.reviews_of(**c).is_empty())
        .take(max_comparatives)
        .map(|c| c.0)
        .collect();
    if comps.is_empty() {
        return Err(Box::new(Response::error(
            "data",
            format!("product {target} has no reviewed comparison products"),
        )));
    }
    let mut items = vec![target];
    items.extend(comps);
    Ok(items)
}

/// Convert solver selections to the wire shape.
fn wire_answer(ctx: &InstanceContext, selections: &[Selection], objective: f64) -> CachedAnswer {
    let selections = selections
        .iter()
        .enumerate()
        .map(|(i, sel)| {
            let item = ctx.item(i);
            ItemSelection {
                product: item.product.0,
                indices: sel.indices.clone(),
                review_ids: sel.review_ids(item).iter().map(|r| r.0).collect(),
            }
        })
        .collect();
    CachedAnswer {
        selections,
        objective,
    }
}

/// Wrap a cached/computed answer as an `Ok` response with its cache
/// marker.
fn answer_response(answer: CachedAnswer, cache: &str) -> Response {
    Response {
        selections: answer.selections,
        objective: Some(answer.objective),
        cache: Some(cache.to_string()),
        ..Response::ok()
    }
}

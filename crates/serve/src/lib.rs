//! `comparesets-serve` — a persistent solve server for comparative
//! review-set selection (ARCHITECTURE.md §10).
//!
//! Instead of paying corpus loading, context assembly, and a cold
//! alternating solve per CLI invocation, the server loads corpora once
//! as named *shards* and answers item-set/budget queries over a
//! hand-rolled length-prefixed JSON protocol ([`protocol`]). The heart
//! is a shared bounded session cache ([`cache`]) holding memoized
//! answers, per-item [`comparesets_core::RegressionWarm`] answer memos,
//! and shared instance contexts, so repeat and near-repeat queries hit
//! the warm path instead of a cold solve — with the memos' exact input
//! keys (ARCHITECTURE.md §9) pinning every served answer byte-identical
//! to a cold solve.
//!
//! Overload is handled by admission control ([`server`]): requests past
//! the in-flight cap get their deadlines clamped, and the solver's
//! anytime semantics (ARCHITECTURE.md §8) turn the clamp into a
//! degraded-but-valid best-so-far answer instead of a queue or an
//! error.
//!
//! Shards are *live*: `ingest` requests stream review add/edit/delete
//! events into a shard between (and during) solves, durably when the
//! server runs with a data directory — events are fsynced to a
//! per-shard write-ahead log before the ack, and a restart recovers
//! every acknowledged event (ARCHITECTURE.md §11). Per-product mutation
//! versions inside the cache keys keep the warm path honest: no cached
//! selection from before an item's last mutation is reachable.
//!
//! ## In-process round trip
//!
//! ```
//! use comparesets_data::CategoryPreset;
//! use comparesets_serve::{Client, Request, Server, ServerConfig, Status};
//! use std::sync::Arc;
//!
//! let corpus = CategoryPreset::Toy.config(40, 7).generate();
//! let metrics = Arc::new(comparesets_core::SolverMetrics::new());
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     vec![("toys".to_string(), corpus)],
//!     metrics,
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! assert_eq!(client.ping().unwrap().status, Status::Ok);
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheKeys, CacheSizes, CachedAnswer, SessionCache};
pub use client::Client;
pub use protocol::{
    IngestEvent, ItemSelection, ProtocolError, Request, Response, Status, MAX_FRAME_LEN,
};
pub use server::{install_sigterm_drain, request_drain, ServeSummary, Server, ServerConfig};

//! Data substrate for the CompaReSetS reproduction.
//!
//! The paper evaluates on the Amazon Product Review Dataset (McAuley et
//! al.), three categories — Cell Phones & Accessories, Toys & Games,
//! Clothing — with "also bought" metadata as the source of comparison
//! lists and externally produced aspect-sentiment annotations (§4.1.1,
//! Table 2). That corpus is not redistributable, so this crate provides:
//!
//! * [`model`] — the corpus data model: aspects, polarities, annotated
//!   reviews, products with "also bought" lists, datasets, and the
//!   per-target [`model::ComparisonInstance`] the solvers consume.
//! * [`synth`] — a seeded synthetic generator whose corpora mirror the
//!   *structure* of Table 2 (review counts, comparison-list lengths,
//!   aspect sparsity, opinion skew) and whose review text is generated
//!   from shared aspect/sentiment templates so that ROUGE between reviews
//!   rises with true aspect overlap — the property the paper's evaluation
//!   metric relies on.
//! * [`templates`] — the sentence templates used by the generator.
//! * [`stats`] — dataset statistics (regenerates Table 2's rows).
//! * [`io`] — JSON (de)serialisation for reproducible corpora on disk,
//!   atomic writes, and the self-removing [`TempDir`].
//! * [`wal`] — the durable streaming store: a CRC-framed write-ahead
//!   log of review events plus atomic snapshots, with torn-tail
//!   recovery and log compaction (ARCHITECTURE.md §11).
//! * [`fault`] — the deterministic fault-injection plane and seeded
//!   chaos-schedule harness that exercise the store's crash-safety
//!   claims (ARCHITECTURE.md §12).

#![warn(missing_docs)]

pub mod amazon;
pub mod fault;
pub mod io;
pub mod model;
pub mod retry;
pub mod stats;
pub mod synth;
pub mod templates;
pub mod wal;

pub use amazon::{AmazonError, AmazonLoader, SkippedLines};
pub use fault::{run_fault_schedule, FaultAction, FaultPlane, FaultProfile, IoOp, ScheduleOutcome};
pub use io::TempDir;
pub use model::{
    AspectId, AspectMention, ComparisonInstance, Dataset, Polarity, Product, ProductId, Review,
    ReviewId,
};
pub use retry::{RetryPolicy, RetryReader};
pub use stats::DatasetStats;
pub use synth::{CategoryPreset, SynthConfig};
pub use wal::{
    CorpusSnapshot, CorpusStore, EventKind, Recovery, ReviewEvent, WalError, WalScan,
    SNAPSHOT_PREV_FILE, SNAPSHOT_SCHEMA,
};

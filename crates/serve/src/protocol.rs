//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload: `length` bytes   |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is a UTF-8 JSON object ([`Request`] client→server,
//! [`Response`] server→client). The length counts payload bytes only and
//! is capped at [`MAX_FRAME_LEN`]; a peer announcing a larger frame is
//! rejected before any payload is read, so a malformed or hostile length
//! can never trigger an unbounded allocation.
//!
//! The request/response types are deliberately *flat* — a string `op`
//! discriminant plus optional fields — rather than data-carrying enums,
//! so they serialize through the vendored offline `serde` stand-in
//! (which derives named-field structs and fieldless enums only). Unknown
//! JSON fields are ignored on decode, which is the forward-compatibility
//! escape hatch: a newer client can send extra fields to an older server.

use comparesets_data::AspectMention;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on a frame's payload length, in bytes (4 MiB).
///
/// Solve responses carry at most a few selections per item, so real
/// frames are kilobytes; the cap exists purely to bound the allocation an
/// adversarial or corrupt length prefix can demand.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// A protocol-level failure while reading or writing frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer announced a frame longer than [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The payload was not valid UTF-8 JSON of the expected shape.
    Malformed(String),
    /// A frame started but did not complete within the per-frame
    /// deadline — a slowloris peer trickling bytes, or a stalled link.
    /// Answered in-band as a `usage` error before the close.
    FrameTimeout,
    /// No frame arrived within the idle deadline; the connection is
    /// closed quietly (an idle peer is lazy, not malformed).
    IdleTimeout,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
            ProtocolError::FrameTimeout => {
                write!(f, "frame not completed within the per-frame deadline")
            }
            ProtocolError::IdleTimeout => {
                write!(f, "connection idle past its read deadline")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Write one raw frame (length prefix + payload) with a single write, so
/// a `TCP_NODELAY` socket sends it as one segment rather than a 4-byte
/// prefix the reader wakes for and then the payload.
///
/// # Errors
/// [`ProtocolError::FrameTooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`]; [`ProtocolError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one raw frame. Returns `Ok(None)` on a clean end-of-stream (the
/// peer closed between frames); a close *inside* a frame is
/// [`ProtocolError::Truncated`].
///
/// # Errors
/// See [`ProtocolError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        Fill::Eof => return Ok(None),
        Fill::Partial => return Err(ProtocolError::Truncated),
        Fill::Full => {}
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        Fill::Full => Ok(Some(payload)),
        Fill::Eof | Fill::Partial => Err(ProtocolError::Truncated),
    }
}

/// Poll tick for bounded frame reads: the socket read timeout, i.e. how
/// often deadlines and the `give_up` signal are re-checked while blocked.
const POLL_TICK: Duration = Duration::from_millis(25);

/// [`read_frame`] with deadlines, for server-side reads from untrusted
/// peers. Three bounds apply:
///
/// * **idle** — maximum wait for a frame to *start*. Expiry is
///   [`ProtocolError::IdleTimeout`]: the peer just went quiet.
/// * **frame** — maximum wall time from a frame's first byte to its
///   last. A peer that trickles one byte per tick (slowloris) can
///   therefore pin a handler for at most `frame`, not forever; expiry is
///   [`ProtocolError::FrameTimeout`], which the server answers in-band
///   as a `usage` error before closing.
/// * **give_up** — polled between frames; when it returns true (server
///   draining or shut down) the read reports a clean end-of-stream. It
///   is *not* honoured mid-frame: a started frame gets its full deadline
///   so an in-flight request is never torn by a drain.
///
/// Installs a short poll-tick read timeout on the socket as a side
/// effect.
///
/// # Errors
/// See [`ProtocolError`].
pub fn read_frame_bounded(
    stream: &TcpStream,
    idle: Duration,
    frame: Duration,
    give_up: &dyn Fn() -> bool,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    let mut r = DeadlineReader {
        stream,
        started: Instant::now(),
        first_byte: None,
        idle,
        frame,
        give_up,
    };
    let mut len_buf = [0u8; 4];
    match r.fill(&mut len_buf)? {
        Fill::Eof => return Ok(None),
        Fill::Partial => return Err(ProtocolError::Truncated),
        Fill::Full => {}
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match r.fill(&mut payload)? {
        Fill::Full => Ok(Some(payload)),
        Fill::Eof | Fill::Partial => Err(ProtocolError::Truncated),
    }
}

/// Incremental reads off a non-blocking-ish socket (read timeout =
/// [`POLL_TICK`]) with the idle/frame deadline bookkeeping shared across
/// the length prefix and the payload.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    /// When the wait for this frame began (idle clock).
    started: Instant,
    /// When the frame's first byte arrived (frame clock), if it has.
    first_byte: Option<Instant>,
    idle: Duration,
    frame: Duration,
    give_up: &'a dyn Fn() -> bool,
}

impl DeadlineReader<'_> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<Fill, ProtocolError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Ok(if filled == 0 && self.first_byte.is_none() {
                        Fill::Eof
                    } else {
                        Fill::Partial
                    });
                }
                Ok(n) => {
                    filled += n;
                    self.first_byte.get_or_insert_with(Instant::now);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    match self.first_byte {
                        Some(t0) => {
                            if t0.elapsed() > self.frame {
                                return Err(ProtocolError::FrameTimeout);
                            }
                        }
                        None => {
                            if (self.give_up)() {
                                return Ok(Fill::Eof);
                            }
                            if self.started.elapsed() > self.idle {
                                return Err(ProtocolError::IdleTimeout);
                            }
                        }
                    }
                }
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
        Ok(Fill::Full)
    }
}

/// How much of a fixed-size read completed before end-of-stream.
enum Fill {
    /// The whole buffer was filled.
    Full,
    /// The stream was already at end-of-file (zero bytes read).
    Eof,
    /// The stream ended after some, but not all, bytes.
    Partial,
}

/// `read_exact` that distinguishes a clean EOF from a mid-buffer one.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::Eof
                } else {
                    Fill::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Encode a message and write it as one frame.
///
/// # Errors
/// See [`ProtocolError`].
pub fn write_message<T: Serialize>(w: &mut impl Write, message: &T) -> Result<(), ProtocolError> {
    let json = serde_json::to_string(message)
        .map_err(|e| ProtocolError::Malformed(format!("encoding: {e}")))?;
    write_frame(w, json.as_bytes())
}

/// Read one frame and decode it. `Ok(None)` on clean end-of-stream.
///
/// # Errors
/// See [`ProtocolError`].
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, ProtocolError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    decode(&payload).map(Some)
}

/// Decode a frame payload into a message.
///
/// # Errors
/// [`ProtocolError::Malformed`] on non-UTF-8 bytes or JSON that does not
/// match the target shape.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtocolError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))
}

// ---------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------

/// A client request. `op` selects the operation; the remaining fields
/// are per-operation parameters and default to "absent" so a `ping` is
/// just `{"op":"ping"}` on the wire.
///
/// Operations:
///
/// | `op`       | effect                                                    |
/// |------------|-----------------------------------------------------------|
/// | `ping`     | liveness check; answers with `pong` set                   |
/// | `solve`    | CompaReSetS+ selection for an item set under a budget     |
/// | `ingest`   | apply review events to a shard, durably when the server   |
/// |            | runs with `--data-dir` (acked only after the WAL fsync)   |
/// | `metrics`  | snapshot of the server's solver/serving counters (`info`) |
/// | `health`   | readiness: `ready`/`draining`/`degraded` + WAL lag +      |
/// |            | resident bytes of cached design matrices                  |
/// | `shutdown` | acknowledge, then stop accepting connections              |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Operation discriminant: `ping`, `solve`, `metrics`, or `shutdown`.
    pub op: String,
    /// Corpus shard to solve against; empty selects the server's first
    /// (or only) shard.
    #[serde(default)]
    pub shard: String,
    /// Target product id; the comparison set is derived from the corpus
    /// (`also_bought`, reviewed products only). Ignored when `items` is
    /// given.
    #[serde(default)]
    pub target: Option<u32>,
    /// Explicit item set (product ids; first entry is the target).
    /// Overrides `target`.
    #[serde(default)]
    pub items: Option<Vec<u32>>,
    /// Cap on derived comparatives when resolving via `target`
    /// (default 12).
    #[serde(default)]
    pub max_comparatives: Option<usize>,
    /// Per-item selection budget m (default 3).
    #[serde(default)]
    pub m: Option<usize>,
    /// Opinion/aspect trade-off λ (default 1.0).
    #[serde(default)]
    pub lambda: Option<f64>,
    /// Cross-item coupling μ (default 0.1).
    #[serde(default)]
    pub mu: Option<f64>,
    /// Alternating Gauss–Seidel sweeps (default 1).
    #[serde(default)]
    pub sweeps: Option<usize>,
    /// Opinion scheme: `binary` (default), `3-polarity`, or
    /// `unary-scale`.
    #[serde(default)]
    pub scheme: Option<String>,
    /// Client-requested deadline in milliseconds; the server clamps it to
    /// its own `--request-timeout` (and further under overload).
    #[serde(default)]
    pub timeout_ms: Option<u64>,
    /// Review events to apply (`ingest`). The batch is atomic: either
    /// every event validates, is logged durably (one fsync), and applies,
    /// or none do.
    #[serde(default)]
    pub events: Option<Vec<IngestEvent>>,
}

impl Request {
    /// A request carrying only an operation name.
    pub fn bare(op: &str) -> Request {
        Request {
            op: op.to_string(),
            shard: String::new(),
            target: None,
            items: None,
            max_comparatives: None,
            m: None,
            lambda: None,
            mu: None,
            sweeps: None,
            scheme: None,
            timeout_ms: None,
            events: None,
        }
    }

    /// A solve request for `target` with everything else defaulted.
    pub fn solve(target: u32) -> Request {
        Request {
            target: Some(target),
            ..Request::bare("solve")
        }
    }

    /// A solve request for an explicit item set (first entry = target).
    pub fn solve_items(items: Vec<u32>) -> Request {
        Request {
            items: Some(items),
            ..Request::bare("solve")
        }
    }

    /// An ingest request carrying one batch of review events.
    pub fn ingest(events: Vec<IngestEvent>) -> Request {
        Request {
            events: Some(events),
            ..Request::bare("ingest")
        }
    }
}

/// One review mutation on the wire. `op` is `add`, `edit`, or `delete`;
/// the remaining fields are per-operation (flat, like [`Request`], for
/// the vendored `serde`). Review ids for `add` are assigned by the
/// server — deterministically, in arrival order — and returned implicitly
/// through subsequent solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestEvent {
    /// `add`, `edit`, or `delete`.
    pub op: String,
    /// The product the event targets.
    pub product: u32,
    /// The review to `edit`/`delete` (ignored for `add`).
    #[serde(default)]
    pub review: Option<u32>,
    /// Star rating 1–5 (`add` defaults to 4; `edit` keeps the current
    /// rating when absent).
    #[serde(default)]
    pub rating: Option<u8>,
    /// Review body (`add` defaults to empty; `edit` keeps the current
    /// body when absent).
    #[serde(default)]
    pub text: Option<String>,
    /// Aspect-opinion annotations (`add` defaults to none; `edit` keeps
    /// the current annotations when absent).
    #[serde(default)]
    pub mentions: Option<Vec<AspectMention>>,
}

impl IngestEvent {
    /// An `add` event with annotations and everything else defaulted.
    pub fn add(product: u32, mentions: Vec<AspectMention>) -> IngestEvent {
        IngestEvent {
            op: "add".to_string(),
            product,
            review: None,
            rating: None,
            text: None,
            mentions: Some(mentions),
        }
    }

    /// An `edit` event replacing a review's annotations.
    pub fn edit(product: u32, review: u32, mentions: Vec<AspectMention>) -> IngestEvent {
        IngestEvent {
            op: "edit".to_string(),
            product,
            review: Some(review),
            rating: None,
            text: None,
            mentions: Some(mentions),
        }
    }

    /// A `delete` event unlisting a review.
    pub fn delete(product: u32, review: u32) -> IngestEvent {
        IngestEvent {
            op: "delete".to_string(),
            product,
            review: Some(review),
            rating: None,
            text: None,
            mentions: None,
        }
    }
}

/// How a request concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// The operation completed normally.
    Ok,
    /// Admission control cut the solve short: the selections are the
    /// anytime best-so-far iterate, valid but possibly unconverged.
    Degraded,
    /// The request failed; see `error` and `code`.
    Error,
}

/// One item's selected reviews in a solve response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemSelection {
    /// The product this selection belongs to (first entry = target).
    pub product: u32,
    /// Selected review indices within the item (sorted).
    pub indices: Vec<usize>,
    /// The dataset review ids behind `indices`.
    pub review_ids: Vec<u32>,
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Outcome classification.
    pub status: Status,
    /// Human-readable failure cause when `status` is `Error`.
    #[serde(default)]
    pub error: Option<String>,
    /// Machine-readable failure class (`usage`, `data`, `io`, `disk`,
    /// `draining`, `internal`) when `status` is `Error` — mirrors the
    /// CLI's exit-code taxonomy; `io` marks a failed WAL append (the
    /// batch was not applied and may be retried), `disk` a fatal
    /// `ENOSPC`/`EROFS` (do *not* retry), `draining` a server shutting
    /// down gracefully (retry after `retry_after_ms` elsewhere).
    #[serde(default)]
    pub code: Option<String>,
    /// Per-item selections (solve responses; target first).
    #[serde(default)]
    pub selections: Vec<ItemSelection>,
    /// CompaReSetS+ objective of `selections` (solve responses; absent
    /// on degraded answers, whose iterate may be unconverged).
    #[serde(default)]
    pub objective: Option<f64>,
    /// Which session-cache layer served a solve: `full`, `warm`, or
    /// `cold`. Purely observational — the selections are byte-identical
    /// across all three (see ARCHITECTURE.md §10).
    #[serde(default)]
    pub cache: Option<String>,
    /// Echo payload for `ping`.
    #[serde(default)]
    pub pong: Option<String>,
    /// Free-form payload for `metrics` (a `MetricsSnapshot` as JSON).
    #[serde(default)]
    pub info: Option<String>,
    /// How many events an `ingest` applied (the whole batch, or the
    /// request failed and applied none).
    #[serde(default)]
    pub ingested: Option<u64>,
    /// The WAL sequence number of the last applied event — durable up to
    /// here once the ack arrives.
    #[serde(default)]
    pub last_seq: Option<u64>,
    /// On a `draining` error: how long the client should wait before
    /// retrying against this server (or a restarted instance of it).
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
    /// `health` responses: `ready`, `draining`, or `degraded` (a shard's
    /// durable store is poisoned and refusing writes).
    #[serde(default)]
    pub health: Option<String>,
    /// `health` responses: WAL records appended since the last snapshot,
    /// summed over shards — the replay a crash right now would cost.
    #[serde(default)]
    pub wal_lag: Option<u64>,
    /// `health` responses: heap bytes of the per-item answer memos held
    /// in the session cache's warm layer.
    #[serde(default)]
    pub resident_bytes: Option<u64>,
}

impl Response {
    /// An empty `Ok` response.
    pub fn ok() -> Response {
        Response {
            status: Status::Ok,
            error: None,
            code: None,
            selections: Vec::new(),
            objective: None,
            cache: None,
            pong: None,
            info: None,
            ingested: None,
            last_seq: None,
            retry_after_ms: None,
            health: None,
            wal_lag: None,
            resident_bytes: None,
        }
    }

    /// An error response with a failure class and cause.
    pub fn error(code: &str, message: impl Into<String>) -> Response {
        Response {
            status: Status::Error,
            error: Some(message.into()),
            code: Some(code.to_string()),
            ..Response::ok()
        }
    }
}

//! JSON (de)serialisation of datasets.
//!
//! Corpora are written as pretty-printed JSON so experiment inputs can be
//! pinned, diffed, and shared — the reproducibility role the paper's
//! public dataset download plays.

use crate::fault::{disk_full_error, injected_error, FaultAction, FaultPlane, IoOp};
use crate::model::Dataset;
use crate::retry::{RetryPolicy, RetryReader};
use comparesets_obs::SolverMetrics;
use std::fs::{self, File};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Is this error the fatal disk class — `ENOSPC` (no space) or `EROFS`
/// (read-only filesystem)? Neither resolves by retrying: backing off
/// against a full disk just delays the same failure, so every retry
/// path treats these as immediately fatal and the CLI maps them to
/// their own exit code (7) so operators can alert on it.
pub fn is_disk_fatal(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(28) | Some(30)) // ENOSPC, EROFS
}

/// Errors from dataset IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Fatal disk condition (`ENOSPC`/`EROFS`, see [`is_disk_fatal`]):
    /// never retried, surfaced as its own CLI exit code.
    Disk(std::io::Error),
    /// JSON (de)serialisation error.
    Json(serde_json::Error),
    /// The loaded dataset failed consistency validation.
    InvalidDataset(Vec<String>),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Disk(e) => write!(f, "disk fatal: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::InvalidDataset(problems) => {
                write!(
                    f,
                    "invalid dataset: {} problems, first: {}",
                    problems.len(),
                    problems.first().map(String::as_str).unwrap_or("")
                )
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        if is_disk_fatal(&e) {
            IoError::Disk(e)
        } else {
            IoError::Io(e)
        }
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

/// Serialise a dataset to a JSON string.
///
/// # Errors
/// Propagates serialisation failures.
pub fn to_json(dataset: &Dataset) -> Result<String, IoError> {
    Ok(serde_json::to_string(dataset)?)
}

/// Parse a dataset from JSON, validating consistency.
///
/// # Errors
/// [`IoError::Json`] on malformed JSON, [`IoError::InvalidDataset`] when
/// the parsed dataset fails [`Dataset::validate`].
pub fn from_json(json: &str) -> Result<Dataset, IoError> {
    let ds: Dataset = serde_json::from_str(json)?;
    let problems = ds.validate();
    if problems.is_empty() {
        Ok(ds)
    } else {
        Err(IoError::InvalidDataset(problems))
    }
}

/// Write `bytes` to `path` atomically: full contents to a temp file in
/// the destination directory, `fsync`, `rename` over the target, then a
/// directory `fsync` so the rename itself is durable. Readers never
/// observe a torn file; a crash mid-write leaves the previous contents
/// (or nothing) in place, and once this returns `Ok` the new contents
/// survive power loss — the durability contract the WAL snapshot and
/// suite checkpoint writers rely on.
///
/// # Errors
/// Propagates filesystem errors from creating, writing, syncing, or
/// renaming the temp file, and (on Unix) from syncing the parent
/// directory after the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, bytes, None)
}

/// [`write_atomic`] with an optional [`FaultPlane`] consulted before the
/// temp-file write ([`IoOp::AtomicWrite`]) and before the publishing
/// rename ([`IoOp::Rename`]). With `plane` absent (every production
/// call) the behaviour and cost are identical to [`write_atomic`]; with
/// a plane, injected failures leave the destination untouched and the
/// temp file cleaned up — exactly the crash contract the real path
/// promises.
///
/// # Errors
/// As for [`write_atomic`], plus injected faults surfaced as I/O errors
/// (disk-full faults carry a real `ENOSPC` code).
pub fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    plane: Option<&FaultPlane>,
) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut keep = bytes.len();
        let mut verdict = Ok(());
        if let Some(p) = plane {
            match p.next(IoOp::AtomicWrite) {
                FaultAction::Pass | FaultAction::BitFlip(_) => {}
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Fail => return Err(injected_error()),
                FaultAction::DiskFull => return Err(disk_full_error()),
                FaultAction::ShortWrite(per_mille) => {
                    // A torn temp-file write: some prefix lands, then the
                    // device gives out. The rename never runs, so the
                    // destination stays intact either way.
                    keep = bytes.len() * per_mille as usize / 1000;
                    verdict = Err(injected_error());
                }
            }
        }
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes[..keep])?;
        verdict?;
        f.sync_all()?;
        drop(f);
        if let Some(p) = plane {
            match p.next(IoOp::Rename) {
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Fail => return Err(injected_error()),
                FaultAction::DiskFull => return Err(disk_full_error()),
                _ => {}
            }
        }
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Leave no temp litter behind a failed write.
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Persist the rename itself: file fsync alone leaves the directory
    // entry unflushed, so a power cut could roll the rename back. On
    // Unix a directory opens like a file and fsyncs reliably; elsewhere
    // directory handles may not be openable, so stay best-effort.
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Save a dataset to a file atomically (see [`write_atomic`]): a crash
/// mid-save never corrupts a previously pinned corpus.
///
/// # Errors
/// Filesystem and serialisation errors.
pub fn save(dataset: &Dataset, path: &Path) -> Result<(), IoError> {
    let json = serde_json::to_string(dataset)?;
    write_atomic(path, json.as_bytes())?;
    Ok(())
}

/// Load and validate a dataset from a file.
///
/// # Errors
/// Filesystem, parse, and validation errors.
pub fn load(path: &Path) -> Result<Dataset, IoError> {
    let r = BufReader::new(File::open(path)?);
    let ds: Dataset = serde_json::from_reader(r)?;
    let problems = ds.validate();
    if problems.is_empty() {
        Ok(ds)
    } else {
        Err(IoError::InvalidDataset(problems))
    }
}

/// [`load`] through a [`RetryReader`]: transient read failures
/// (`Interrupted`, `WouldBlock`, `TimedOut`) are absorbed per `policy`,
/// with retries counted into `metrics` when a collector is supplied
/// ([`SolverMetrics::io_retries`]).
///
/// # Errors
/// As for [`load`]; a transient error surfaces only once the retry
/// budget is exhausted.
pub fn load_retrying(
    path: &Path,
    policy: &RetryPolicy,
    metrics: Option<Arc<SolverMetrics>>,
) -> Result<Dataset, IoError> {
    let mut reader = RetryReader::new(File::open(path)?, policy.clone());
    if let Some(m) = metrics {
        reader = reader.with_metrics(m);
    }
    let r = BufReader::new(reader);
    let ds: Dataset = serde_json::from_reader(r)?;
    let problems = ds.validate();
    if problems.is_empty() {
        Ok(ds)
    } else {
        Err(IoError::InvalidDataset(problems))
    }
}

/// A scratch directory under [`std::env::temp_dir`], removed with
/// everything in it on drop.
///
/// Its name carries the tag, the process id and a process-wide counter,
/// so the threads of one test binary never share a directory, and two
/// processes never do either.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `comparesets_<tag>_<pid>_<n>` under the system temp
    /// directory. A directory of that name left by an earlier process
    /// with the same id is removed first.
    ///
    /// # Errors
    /// The directory could not be created.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("comparesets_{tag}_{}_{n}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::synth::CategoryPreset;

    #[test]
    fn json_round_trip_preserves_dataset() {
        let d = CategoryPreset::Toy.config(20, 11).generate();
        let json = to_json(&d).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(d.name, back.name);
        assert_eq!(d.aspects, back.aspects);
        assert_eq!(d.reviews.len(), back.reviews.len());
        assert_eq!(d.reviews[3].text, back.reviews[3].text);
        assert_eq!(d.products[7].also_bought, back.products[7].also_bought);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let a = TempDir::new("io_tempdir").unwrap();
        let b = TempDir::new("io_tempdir").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("file"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn file_round_trip() {
        let d = CategoryPreset::Clothing.config(10, 5).generate();
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("ds.json");
        save(&d, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.reviews.len(), d.reviews.len());
    }

    #[test]
    fn retrying_load_round_trips_and_counts_nothing_on_a_healthy_file() {
        let d = CategoryPreset::Toy.config(10, 9).generate();
        let dir = TempDir::new("io_retry").unwrap();
        let path = dir.join("ds.json");
        save(&d, &path).unwrap();
        let metrics = Arc::new(SolverMetrics::new());
        let back = load_retrying(
            &path,
            &RetryPolicy::immediate(3),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        assert_eq!(back.reviews.len(), d.reviews.len());
        assert_eq!(metrics.snapshot().io_retries, 0);
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let d = CategoryPreset::Toy.config(5, 3).generate();
        let dir = TempDir::new("io_atomic").unwrap();
        let path = dir.join("ds.json");
        save(&d, &path).unwrap();
        save(&d, &path).unwrap(); // overwrite path also atomic
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
    }

    #[test]
    fn write_atomic_survives_overwrite_and_reports_missing_parent() {
        let dir = TempDir::new("io_durable").unwrap();
        let path = dir.join("blob.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrite goes through the same temp+fsync+rename+dir-fsync
        // path and must leave exactly the new contents.
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // A destination whose parent does not exist fails cleanly
        // (before any rename) instead of fsync-ing a phantom directory.
        let bad = dir.join("missing").join("blob.json");
        assert!(write_atomic(&bad, b"x").is_err());
    }

    #[test]
    fn faulted_atomic_write_never_tears_the_destination() {
        let dir = TempDir::new("io_fault").unwrap();
        let path = dir.join("blob.json");
        write_atomic(&path, b"baseline").unwrap();
        let plane = FaultPlane::from_seed(0xBAD_5EED);
        let mut failures = 0;
        for k in 0..200u32 {
            let payload = format!("generation {k}");
            match write_atomic_with(&path, payload.as_bytes(), Some(&plane)) {
                Ok(()) => assert_eq!(std::fs::read(&path).unwrap(), payload.as_bytes()),
                Err(_) => {
                    failures += 1;
                    // The destination is whole: either the previous
                    // generation or some earlier complete write.
                    let now = std::fs::read_to_string(&path).unwrap();
                    assert!(
                        now == "baseline" || now.starts_with("generation "),
                        "torn destination: {now:?}"
                    );
                    assert!(!now.contains('\0'));
                }
            }
        }
        assert!(failures > 0, "plane never fired");
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
    }

    #[test]
    fn disk_fatal_errors_classify_into_their_own_variant() {
        let e: IoError = crate::fault::disk_full_error().into();
        assert!(matches!(e, IoError::Disk(_)), "{e:?}");
        assert!(e.to_string().contains("disk fatal"), "{e}");
        let e: IoError = std::io::Error::other("plain").into();
        assert!(matches!(e, IoError::Io(_)), "{e:?}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(from_json("{not json"), Err(IoError::Json(_))));
    }

    #[test]
    fn inconsistent_dataset_is_rejected() {
        let mut d = CategoryPreset::Toy.config(5, 2).generate();
        // Corrupt: dangling review reference.
        d.products[0].reviews.push(crate::model::ReviewId(9999));
        let json = serde_json::to_string(&d).unwrap();
        assert!(matches!(from_json(&json), Err(IoError::InvalidDataset(_))));
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            load(Path::new("/nonexistent/definitely/not/here.json")),
            Err(IoError::Io(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = IoError::InvalidDataset(vec!["boom".into()]);
        assert!(e.to_string().contains("boom"));
    }
}

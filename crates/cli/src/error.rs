//! Typed CLI errors with a stable exit-code contract.
//!
//! Scripts driving `comparesets` can branch on the exit code without
//! parsing stderr:
//!
//! | code | class    | meaning                                            |
//! |------|----------|----------------------------------------------------|
//! | 0    | success  | command completed                                  |
//! | 1    | internal | unexpected failure inside the tool                 |
//! | 2    | usage    | bad flags, unknown command, out-of-range arguments |
//! | 3    | io       | file could not be opened, read, or written         |
//! | 4    | data     | input parsed but is corrupt or unusable            |
//! | 5    | solver   | numerical failure on the solve path                |
//! | 6    | deadline | `--timeout` expired before the solve completed     |
//! | 7    | disk     | disk full or read-only (`ENOSPC`/`EROFS`) — fatal, |
//! |      |          | never retried; free space or remount, then rerun   |
//!
//! Every error prints as `error: <readable cause chain>` on stderr; usage
//! errors additionally print the usage text. Output the command produced
//! before failing (the report of a suite with a failed experiment) goes
//! to stdout first.

/// Classification of a CLI failure, one exit code per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unexpected internal failure (exit 1).
    Internal,
    /// Command-line usage problem (exit 2).
    Usage,
    /// Filesystem failure (exit 3).
    Io,
    /// Corrupt or unusable input data (exit 4).
    Data,
    /// Numerical failure in the solver stack (exit 5).
    Solver,
    /// A `--timeout` deadline expired before the work completed (exit 6).
    Deadline,
    /// Disk full or read-only (exit 7). Unlike `Io`, retrying cannot
    /// help until an operator frees space or remounts writable.
    Disk,
}

/// A classified CLI error: what failed plus a readable cause, and any
/// output the command produced before it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Failure class, mapped 1:1 to the process exit code.
    pub kind: ErrorKind,
    message: String,
    output: String,
}

impl CliError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        CliError {
            kind,
            message: message.into(),
            output: String::new(),
        }
    }

    /// A usage error (exit 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Usage, message)
    }

    /// An IO error (exit 3).
    pub fn io(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Io, message)
    }

    /// A corrupt-data error (exit 4).
    pub fn data(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Data, message)
    }

    /// A solver error (exit 5).
    pub fn solver(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Solver, message)
    }

    /// An internal error (exit 1).
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Internal, message)
    }

    /// A deadline-expired error (exit 6).
    pub fn deadline(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Deadline, message)
    }

    /// A fatal disk-state error (exit 7): `ENOSPC`/`EROFS`.
    pub fn disk(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Disk, message)
    }

    /// Attach what the command produced before it failed; `main` prints
    /// it on stdout ahead of the error.
    pub fn with_output(self, output: String) -> Self {
        CliError { output, ..self }
    }

    /// The output attached by [`CliError::with_output`] (empty if none).
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The process exit code for this error class.
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Internal => 1,
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::Data => 4,
            ErrorKind::Solver => 5,
            ErrorKind::Deadline => 6,
            ErrorKind::Disk => 7,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let errors = [
            CliError::internal("x"),
            CliError::usage("x"),
            CliError::io("x"),
            CliError::data("x"),
            CliError::solver("x"),
            CliError::deadline("x"),
            CliError::disk("x"),
        ];
        let codes: Vec<u8> = errors.iter().map(CliError::exit_code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn display_is_the_plain_message() {
        let e = CliError::data("loading x.json: invalid dataset");
        assert_eq!(e.to_string(), "loading x.json: invalid dataset");
        assert_eq!(e.kind, ErrorKind::Data);
    }
}

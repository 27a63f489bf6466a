//! `comparesets` — command-line front end for the CompaReSetS library.
//!
//! ```text
//! comparesets generate --category cellphone --products 240 --seed 42 --out corpus.json
//! comparesets stats corpus.json
//! comparesets convert-amazon --reviews reviews.json --meta meta.json --out corpus.json
//! comparesets select --corpus corpus.json --target 0 --m 3 --algorithm comparesets+
//! comparesets narrow --corpus corpus.json --target 0 --k 3 --method exact
//! comparesets eval --config tiny --out report.txt
//! comparesets serve --corpus corpus.json --addr 127.0.0.1:0
//! ```
//!
//! Failures exit with a classified code (see `comparesets help` or
//! [`error`]): 1 internal, 2 usage, 3 io, 4 data, 5 solver, 6 deadline.

mod args;
mod commands;
mod error;

use error::ErrorKind;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Last-resort boundary: a panic that escapes the command layer becomes
    // an internal error (exit 1) instead of an abort trace.
    let result = std::panic::catch_unwind(|| commands::dispatch(&argv)).unwrap_or_else(|payload| {
        let cause = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unexpected panic".to_string());
        Err(error::CliError::internal(format!(
            "internal error: {cause}"
        )))
    });
    report(result, &mut std::io::stdout(), &mut std::io::stderr())
}

/// Print a command's outcome and return its exit code: the output on
/// `stdout`; an error, and after a usage error the usage text, on
/// `stderr`. Write errors are ignored: a closed pipe (say, into `head`)
/// is not a failure of the command and must not become a panic.
fn report(
    result: Result<String, error::CliError>,
    stdout: &mut impl Write,
    stderr: &mut impl Write,
) -> ExitCode {
    match result {
        Ok(output) => {
            let _ = writeln!(stdout, "{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            if !e.output().is_empty() {
                let _ = writeln!(stdout, "{}", e.output());
            }
            let _ = writeln!(stderr, "error: {e}");
            if e.kind == ErrorKind::Usage {
                let _ = writeln!(stderr, "\n{}", commands::USAGE);
            }
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pipe whose reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn closed_pipes_keep_the_exit_code() {
        let usage = error::CliError::usage("unknown algorithm \"bogus\"")
            .with_output("partial".to_string());
        assert_eq!(
            report(Err(usage), &mut ClosedPipe, &mut ClosedPipe),
            ExitCode::from(2)
        );
        assert_eq!(
            report(Ok("done".to_string()), &mut ClosedPipe, &mut ClosedPipe),
            ExitCode::SUCCESS
        );
    }
}

//! End-to-end crash/resume drill against the real binary.
//!
//! Launches `comparesets eval` with a checkpoint directory, SIGKILLs it
//! mid-suite (no signal handler gets to run — the hard-crash case the
//! checkpoint format is designed for), resumes with `--resume true`, and
//! asserts the resumed deterministic artifact is byte-identical to an
//! uninterrupted run's.
//!
//! Experiment choice: `table2` finishes in milliseconds, so a checkpoint
//! record exists almost immediately; `table3` then runs for seconds,
//! giving the kill a wide window to land mid-experiment. If the process
//! happens to finish before the kill lands, the test still validates the
//! resume path — it just restores instead of re-running.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_comparesets");
const EXPERIMENTS: &str = "table2,table3";
const CHECKPOINT_FILE: &str = "suite-checkpoint.json";

fn eval_args(extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "eval".to_string(),
        "--config".to_string(),
        "tiny".to_string(),
        "--experiments".to_string(),
        EXPERIMENTS.to_string(),
    ];
    args.extend(extra.iter().map(ToString::to_string));
    args
}

#[test]
fn killed_and_resumed_suite_is_byte_identical() {
    let root = comparesets_data::TempDir::new("resume_e2e").unwrap();
    let full_out = root.join("full.txt");
    let kill_dir = root.join("kill-ckpt");
    let kill_out = root.join("resumed.txt");

    // Reference run: uninterrupted, no checkpointing involved.
    let status = Command::new(BIN)
        .args(eval_args(&["--out", full_out.to_str().unwrap()]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference eval run failed: {status}");

    // Victim run: wait for the first checkpoint record, then SIGKILL.
    let mut child = Command::new(BIN)
        .args(eval_args(&["--checkpoint-dir", kill_dir.to_str().unwrap()]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let checkpoint: PathBuf = kill_dir.join(CHECKPOINT_FILE);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed_midway = false;
    loop {
        if checkpoint.exists() {
            // Kill hard: SIGKILL, no chance to flush or clean up.
            child.kill().unwrap();
            killed_midway = true;
            break;
        }
        if child.try_wait().unwrap().is_some() {
            // Finished before the kill could land; resume degenerates to
            // a pure restore, which is still worth asserting on.
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.wait();

    if killed_midway {
        let ckpt = std::fs::read_to_string(&checkpoint).unwrap();
        assert!(
            ckpt.contains("table2"),
            "checkpoint missing first experiment: {ckpt}"
        );
    }

    // Resume to completion and compare artifacts byte for byte.
    let status = Command::new(BIN)
        .args(eval_args(&[
            "--checkpoint-dir",
            kill_dir.to_str().unwrap(),
            "--resume",
            "true",
            "--out",
            kill_out.to_str().unwrap(),
        ]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "resumed eval run failed: {status}");

    let full = std::fs::read_to_string(&full_out).unwrap();
    let resumed = std::fs::read_to_string(&kill_out).unwrap();
    assert_eq!(
        full, resumed,
        "resumed artifact differs from uninterrupted run (killed_midway={killed_midway})"
    );
    assert!(full.contains("2/2 experiments completed"), "{full}");
}

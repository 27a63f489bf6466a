//! End-to-end tests against the built `comparesets` binary: exit codes
//! and stderr are the CLI's public fault-tolerance contract, so they are
//! asserted on real process runs, not just on `dispatch`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_data::TempDir;
use std::process::{Command, Output};

fn comparesets(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_comparesets"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn corrupt_corpus_exits_with_data_code_and_readable_cause() {
    let dir = TempDir::new("e2e").unwrap();
    let path = dir.join("corrupt.json");
    std::fs::write(&path, "{\"name\": \"truncated corpus\"").unwrap();
    let out = comparesets(&["stats", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "data errors exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The chain names the failing file and the underlying parse problem.
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains(path.to_str().unwrap()), "{stderr}");
    assert!(stderr.contains("json"), "{stderr}");
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = comparesets(&["stats", "/nonexistent/corpus.json"]);
    assert_eq!(out.status.code(), Some(3), "io errors exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/corpus.json"), "{stderr}");
}

#[test]
fn usage_error_exits_2_and_prints_usage() {
    let out = comparesets(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage: comparesets"), "{stderr}");
}

#[test]
fn bad_model_parameters_exit_2_before_the_corpus_is_read() {
    // The rule every solve path applies (`SelectParams::validate`), on
    // every CLI path: checked before the filesystem, so a missing corpus
    // cannot mask it.
    for args in [
        [
            "select",
            "--corpus",
            "/nonexistent/c.json",
            "--target",
            "0",
            "--m",
            "0",
        ],
        [
            "narrow",
            "--corpus",
            "/nonexistent/c.json",
            "--target",
            "0",
            "--lambda",
            "-1",
        ],
    ] {
        let out = comparesets(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(" must be "), "{args:?}: {stderr}");
    }
}

#[test]
fn help_exits_0_with_exit_code_table() {
    let out = comparesets(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exit codes:"), "{stdout}");
    assert!(stdout.contains("4  data error"), "{stdout}");
}

#[test]
fn corrupt_convert_input_respects_error_budget() {
    let dir = TempDir::new("e2e").unwrap();
    let reviews = dir.join("reviews.jsonl");
    let meta = dir.join("meta.jsonl");
    let out_path = dir.join("converted.json");
    std::fs::write(
        &reviews,
        "{\"reviewerID\":\"A1\",\"asin\":\"B1\",\"reviewText\":\"great battery life\",\"overall\":5}\nnot json\n{\"reviewerID\":\"A2\",\"asin\":\"B1\",\"reviewText\":\"poor battery\",\"overall\":2}\n",
    )
    .unwrap();
    std::fs::write(&meta, "{\"asin\":\"B1\",\"title\":\"Charger\"}\n").unwrap();
    let base = [
        "convert-amazon",
        "--reviews",
        reviews.to_str().unwrap(),
        "--meta",
        meta.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
        "--min-aspect-count",
        "1",
    ];

    // Default budget 0: the corrupt line is fatal, exit 4.
    let strict = comparesets(&base);
    assert_eq!(strict.status.code(), Some(4), "default is strict");
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");

    // With a budget, the load completes and reports the skip.
    let lenient = comparesets(&[&base[..], &["--error-budget", "1"]].concat());
    assert_eq!(lenient.status.code(), Some(0), "budget absorbs the fault");
    let stdout = String::from_utf8_lossy(&lenient.stdout);
    assert!(stdout.contains("skipped 1 malformed line"), "{stdout}");
    assert!(stdout.contains("reviews line 2"), "{stdout}");
}

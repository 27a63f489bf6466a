//! Subcommand implementations. Every command returns its output as a
//! `String` so the logic is unit-testable without capturing stdout, and
//! fails with a classified [`CliError`] so `main` can map the failure to
//! its exit code.

use crate::args::{parse, Args};
use crate::error::CliError;
use comparesets_core::{
    solve_checked, solve_with, Algorithm, CancelToken, CoreError, InstanceContext, MetricsReport,
    OpinionScheme, SelectParams, Selection, SolveOptions, SolverMetrics,
};
use comparesets_data::{
    io as corpus_io, AmazonError, AmazonLoader, CategoryPreset, ComparisonInstance, Dataset,
    DatasetStats, ProductId, TempDir,
};
use comparesets_graph::{
    improve_by_swaps, solve_exact, solve_greedy as graph_greedy, solve_peeling, solve_random_k,
    solve_top_k_similarity, ExactOptions, SimilarityGraph,
};
use comparesets_serve::ServerConfig;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Usage text printed on errors and by `help` / `--help`.
pub const USAGE: &str = "\
usage: comparesets <command> [flags]

A flag the command does not take is a usage error (exit 2).

commands:
  generate        --category <cellphone|toy|clothing> [--products N] [--seed S] --out FILE
  stats           <corpus.json>
  convert-amazon  --reviews FILE --meta FILE --out FILE [--name NAME] [--max-aspects N] [--min-aspect-count N]
                  [--min-reviews N]    drop products with fewer usable reviews (default 1)
                  [--error-budget N]   tolerate up to N malformed JSON-lines (default 0)
  select          --corpus FILE --target ID [--m N] [--lambda X] [--mu X]
                  [--algorithm random|crs|greedy|comparesets|comparesets+]
                  [--max-comparatives N] [--scheme binary|3-polarity|unary-scale]
                  [--seed S]           sampling seed of --algorithm random (default 42)
                  [--strict true]      fail (exit 5) instead of degrading on numerical faults
  narrow          --corpus FILE --target ID [--k N] [--method exact|greedy|topk|random|peel]
                  [--m N] [--lambda X] [--mu X] [--max-comparatives N]
                  [--seed S]           sampling seed of --method random (default 42)
                  [--threads N]        branch-and-bound workers for --method exact (default 1)
                  [--time-limit-ms N]  budget of --method exact (default 60000)
  eval            [--out FILE] [--config tiny|default] [--scale N] [--experiments a,b,...]
                  [--checkpoint-dir DIR] [--resume true]
                  run the reproduction suite: the paper's tables and
                  figures, or the named experiments (ablation and scaling
                  run only when named); --scale N grows the default config
                  only. Prints every experiment's output, then a summary;
                  with --out, the deterministic report (no wall-clock
                  lines) is written atomically there and only the summary
                  is printed. Exits 1 if any experiment failed
  serve           --corpus FILE[,FILE...] [--addr HOST:PORT] [--workers N]
                  [--cache-capacity N] [--request-timeout SECS]
                  [--overload-timeout-ms N] [--max-requests N]
                  [--data-dir DIR] [--snapshot-every N]
                  persistent solve server (shard name = corpus file stem);
                  prints \"serving on HOST:PORT\" once bound, runs until a
                  shutdown request (or --max-requests), then exits 0.
                  with --data-dir, ingest requests are WAL-backed under
                  DIR/<shard> and acked only after fsync; restarting with
                  the same DIR recovers every acknowledged event.
                  [--drain-deadline-ms N] on SIGTERM the server drains:
                  stops admitting work (typed `draining` error with a
                  retry-after hint), lets in-flight solves run up to N ms
                  (default 1000) before deadline-clamping them, flushes
                  the WAL, writes a final snapshot, and exits 0
  recover         --data-dir DIR [--shard NAME] [--out FILE] [--compact true]
                  inspect (and optionally re-snapshot) a durable corpus
                  store offline: reports snapshot seq, replayed WAL
                  events, torn bytes dropped, and every absorbed fault
                  per shard; --out writes the recovered corpus of --shard
                  as a plain corpus file
  chaos           [--schedules N] [--seed S] [--dir DIR]
                  drive the durable store through N (default 1000) seeded
                  fault schedules (short writes, failed fsyncs, disk
                  full, bit flips, crashes) and verify every acknowledged
                  event recovers intact; any violation exits 4
  help            print this text

long-run flags (select, narrow, eval):
  --timeout SECS       cooperative deadline: iterative solvers stop at the
                       next check and return their best-so-far selections;
                       the command exits 6
  --resume true        (eval) resume from --checkpoint-dir, skipping
                       experiments whose results are already checkpointed

observability flags (any command):
  --trace LEVEL        human-readable tracing on stderr (error|warn|info|debug|trace)
  --metrics-json FILE  write a machine-readable solver-metrics report after the run

exit codes:
  0  success
  1  internal error
  2  usage error (bad flags, unknown command, out-of-range arguments)
  3  io error (file could not be opened, read, or written)
  4  data error (input parsed but is corrupt or unusable)
  5  solver error (numerical failure on the solve path)
  6  deadline exceeded (--timeout expired before the solve completed)
  7  disk fatal (ENOSPC/EROFS: disk full or read-only, never retried)";

/// Arg-parser and flag-validation strings are usage errors by definition.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// A command's entry point: the parsed flags and the optional
/// `--metrics-json` collector in, its output or classified failure out.
type Command = fn(&Args, Option<Arc<SolverMetrics>>) -> Result<String, CliError>;

/// Every command, with the flags it takes besides `--trace` and
/// `--metrics-json` (space-separated, without the leading `--`).
const COMMANDS: [(&str, Command, &str); 9] = [
    ("generate", cmd_generate, "category products seed out"),
    ("stats", cmd_stats, ""),
    (
        "convert-amazon",
        cmd_convert_amazon,
        "reviews meta out name max-aspects min-aspect-count min-reviews error-budget",
    ),
    (
        "select",
        cmd_select,
        "corpus target m lambda mu algorithm max-comparatives scheme seed timeout strict",
    ),
    (
        "narrow",
        cmd_narrow,
        "corpus target k method m lambda mu max-comparatives time-limit-ms seed timeout threads",
    ),
    (
        "eval",
        cmd_eval,
        "out scale config experiments checkpoint-dir resume timeout",
    ),
    (
        "serve",
        cmd_serve,
        "corpus addr workers cache-capacity request-timeout overload-timeout-ms max-requests \
         data-dir snapshot-every drain-deadline-ms",
    ),
    ("recover", cmd_recover, "data-dir shard out compact"),
    ("chaos", cmd_chaos, "schedules seed dir"),
];

/// Dispatch a raw argv to the matching command. Every flag is checked
/// against the command's list before any work starts.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.first().is_some_and(|c| c == "help")
    {
        return Ok(USAGE.to_string());
    }
    let mut args = parse(argv)?;
    let command = args
        .positional()
        .first()
        .cloned()
        .ok_or_else(|| CliError::usage("no command given"))?;
    let (_, run, flags) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .ok_or_else(|| CliError::usage(format!("unknown command {command:?}")))?;
    args.accept(&command, flags)?;
    init_tracing(&args)?;
    let metrics = args
        .get("metrics-json")
        .map(|_| Arc::new(SolverMetrics::new()));
    let started = std::time::Instant::now();
    let result = run(&args, metrics.clone());
    if result.is_ok() {
        if let (Some(path), Some(collector)) = (args.get("metrics-json"), &metrics) {
            write_metrics_report(path, &command, started.elapsed(), collector)?;
        }
    }
    result
}

/// Activate `--trace LEVEL` stderr tracing before the command runs.
fn init_tracing(args: &Args) -> Result<(), CliError> {
    if let Some(spec) = args.get("trace") {
        let level: tracing::Level = spec
            .parse()
            .map_err(|e| CliError::usage(format!("--trace: {e}")))?;
        comparesets_obs::init_stderr_tracing(level);
        tracing::info!("tracing enabled at level {level}");
    }
    Ok(())
}

/// Serialise the run's collector into the `--metrics-json` report file.
fn write_metrics_report(
    path: &str,
    command: &str,
    wall: std::time::Duration,
    metrics: &SolverMetrics,
) -> Result<(), CliError> {
    let report = MetricsReport::new(command, wall, metrics);
    let json = serde_json::to_string(&report)
        .map_err(|e| CliError::internal(format!("encoding metrics report: {e}")))?;
    std::fs::write(path, json + "\n")
        .map_err(|e| CliError::io(format!("writing metrics report {path}: {e}")))
}

fn parse_category(name: &str) -> Result<CategoryPreset, String> {
    match name.to_lowercase().as_str() {
        "cellphone" => Ok(CategoryPreset::Cellphone),
        "toy" => Ok(CategoryPreset::Toy),
        "clothing" => Ok(CategoryPreset::Clothing),
        other => Err(format!("unknown category {other:?}")),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name.to_lowercase().as_str() {
        "random" => Ok(Algorithm::Random),
        "crs" => Ok(Algorithm::Crs),
        "greedy" => Ok(Algorithm::CompareSetsGreedy),
        "comparesets" => Ok(Algorithm::CompareSets),
        "comparesets+" | "comparesetsplus" | "plus" => Ok(Algorithm::CompareSetsPlus),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

/// A core-list narrowing method of `narrow --method`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NarrowMethod {
    Exact,
    Greedy,
    TopK,
    Random,
    Peel,
}

fn parse_narrow_method(name: &str) -> Result<NarrowMethod, String> {
    match name {
        "exact" | "ilp" => Ok(NarrowMethod::Exact),
        "greedy" => Ok(NarrowMethod::Greedy),
        "topk" | "top-k" => Ok(NarrowMethod::TopK),
        "random" => Ok(NarrowMethod::Random),
        "peel" | "peeling" => Ok(NarrowMethod::Peel),
        other => Err(format!("unknown narrowing method {other:?}")),
    }
}

fn parse_scheme(name: &str) -> Result<OpinionScheme, String> {
    match name.to_lowercase().as_str() {
        "binary" => Ok(OpinionScheme::Binary),
        "3-polarity" | "three-polarity" | "ternary" => Ok(OpinionScheme::ThreePolarity),
        "unary-scale" | "unary" => Ok(OpinionScheme::UnaryScale),
        other => Err(format!("unknown opinion scheme {other:?}")),
    }
}

/// Load a corpus, classifying the failure: filesystem problems are IO
/// errors, everything past open-and-read (malformed JSON, inconsistent
/// dataset) is a data error. Reads go through a retrying reader, so
/// transient failures (EINTR, network-filesystem timeouts) are absorbed
/// with backoff — and counted into the `--metrics-json` report
/// (`io_retries`) when a collector is active.
fn load_corpus(path: &str, metrics: Option<&Arc<SolverMetrics>>) -> Result<Dataset, CliError> {
    corpus_io::load_retrying(
        Path::new(path),
        &comparesets_data::RetryPolicy::default(),
        metrics.cloned(),
    )
    .map_err(|e| {
        let message = format!("loading {path}: {e}");
        match e {
            corpus_io::IoError::Io(_) => CliError::io(message),
            corpus_io::IoError::Disk(_) => CliError::disk(message),
            corpus_io::IoError::Json(_) | corpus_io::IoError::InvalidDataset(_) => {
                CliError::data(message)
            }
        }
    })
}

/// The comparison instance anchored at a target product.
fn instance_for(
    dataset: &Dataset,
    target: u32,
    max_comparatives: usize,
) -> Result<ComparisonInstance, CliError> {
    if target as usize >= dataset.products.len() {
        return Err(CliError::usage(format!(
            "target {target} out of range (corpus has {} products)",
            dataset.products.len()
        )));
    }
    let pid = ProductId(target);
    if dataset.reviews_of(pid).is_empty() {
        return Err(CliError::data(format!("product {target} has no reviews")));
    }
    let comps: Vec<ProductId> = dataset
        .product(pid)
        .also_bought
        .iter()
        .copied()
        .filter(|c| !dataset.reviews_of(*c).is_empty())
        .collect();
    if comps.is_empty() {
        return Err(CliError::data(format!(
            "product {target} has no reviewed comparison products"
        )));
    }
    let mut items = vec![pid];
    items.extend(comps);
    Ok(ComparisonInstance { items }.truncated(max_comparatives))
}

fn cmd_generate(args: &Args, _metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    let category = parse_category(args.require("category")?)?;
    let products: usize = args.get_or("products", 240)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.require("out")?;
    let dataset = category.config(products, seed).generate();
    corpus_io::save(&dataset, Path::new(out))
        .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    Ok(format!(
        "wrote {} ({} products, {} reviews, {} aspects)",
        out,
        dataset.products.len(),
        dataset.reviews.len(),
        dataset.num_aspects()
    ))
}

fn cmd_stats(args: &Args, _metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| CliError::usage("stats needs a corpus file"))?;
    let dataset = load_corpus(path, None)?;
    Ok(DatasetStats::compute(&dataset).to_string())
}

fn cmd_convert_amazon(
    args: &Args,
    _metrics: Option<Arc<SolverMetrics>>,
) -> Result<String, CliError> {
    let reviews_path = args.require("reviews")?;
    let meta_path = args.require("meta")?;
    let out = args.require("out")?;
    let loader = AmazonLoader {
        name: args.get("name").unwrap_or("Amazon").to_string(),
        max_aspects: args.get_or("max-aspects", 500)?,
        min_aspect_count: args.get_or("min-aspect-count", 3)?,
        min_reviews_per_product: args.get_or("min-reviews", 1)?,
        error_budget: args.get_or("error-budget", 0)?,
    };
    let reviews = std::fs::File::open(reviews_path)
        .map_err(|e| CliError::io(format!("opening {reviews_path}: {e}")))?;
    let meta = std::fs::File::open(meta_path)
        .map_err(|e| CliError::io(format!("opening {meta_path}: {e}")))?;
    let (dataset, skipped) = loader
        .load_with_report(BufReader::new(reviews), BufReader::new(meta))
        .map_err(|e| {
            let message = format!("converting: {e}");
            match e {
                AmazonError::Io(_) => CliError::io(message),
                AmazonError::Parse { .. } | AmazonError::Empty => CliError::data(message),
            }
        })?;
    corpus_io::save(&dataset, Path::new(out))
        .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    let mut summary = format!(
        "wrote {} ({} products, {} usable reviews, {} aspects)",
        out,
        dataset.products.len(),
        dataset.reviews.len(),
        dataset.num_aspects()
    );
    if skipped.total() > 0 {
        summary.push_str(&format!(
            "\nskipped {} malformed line(s) ({} reviews, {} metadata); first: {}",
            skipped.total(),
            skipped.reviews,
            skipped.metadata,
            skipped.first_error.as_deref().unwrap_or("unknown"),
        ));
    }
    Ok(summary)
}

/// `--m`, `--lambda` and `--mu`, each defaulting to its
/// [`SelectParams::default`] value and checked by
/// [`SelectParams::validate`], the rule every solve path applies.
fn select_params(args: &Args) -> Result<SelectParams, String> {
    let default = SelectParams::default();
    let params = SelectParams {
        m: args.get_or("m", default.m)?,
        lambda: args.get_or("lambda", default.lambda)?,
        mu: args.get_or("mu", default.mu)?,
    };
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

/// A `--*-ms` flag as a [`Duration`], defaulting to `default`.
fn millis_flag(args: &Args, key: &str, default: Duration) -> Result<Duration, String> {
    let default = u64::try_from(default.as_millis()).unwrap_or(u64::MAX);
    Ok(Duration::from_millis(args.get_or(key, default)?))
}

/// Parse `--timeout SECS` into a deadline-armed [`CancelToken`].
fn timeout_token(args: &Args) -> Result<Option<Arc<CancelToken>>, String> {
    let secs: f64 = args.get_or("timeout", f64::NAN)?;
    if secs.is_nan() {
        return Ok(None);
    }
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--timeout: must be a non-negative number, got {secs}"
        ));
    }
    Ok(Some(Arc::new(CancelToken::with_timeout(
        std::time::Duration::from_secs_f64(secs),
    ))))
}

/// Parse `--timeout SECS` into [`SolveOptions`] (warm starts on, as by
/// default). The optional `--metrics-json` collector only observes,
/// never steers. A timeout arms a cooperative deadline: iterative
/// solvers stop at their next cancellation check.
fn solve_options(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<SolveOptions, String> {
    Ok(SolveOptions {
        metrics,
        cancel: timeout_token(args)?,
        ..SolveOptions::default()
    })
}

/// `--seed` steers only the random branch of a command: anywhere else it
/// would be silently ignored, so it is a usage error there.
fn seed_flag(args: &Args, command: &str, branch: &str, random: bool) -> Result<u64, CliError> {
    if !random && args.get("seed").is_some() {
        return Err(CliError::usage(format!(
            "{command} {branch} does not take --seed (only the random one does)"
        )));
    }
    Ok(args.get_or("seed", 42)?)
}

/// Run the solve in strict mode: any per-item numerical failure aborts
/// the command with the full error chain instead of degrading silently,
/// and an expired `--timeout` deadline exits 6.
fn solve_strict(
    ctx: &InstanceContext,
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
    opts: &SolveOptions,
) -> Result<Vec<Selection>, CliError> {
    let slots = solve_checked(ctx, algorithm, params, seed, opts).map_err(|e| match e {
        CoreError::InvalidParams(_) => CliError::usage(e.to_string()),
        CoreError::DeadlineExceeded { .. } => CliError::deadline(e.to_string()),
        _ => CliError::solver(e.to_string()),
    })?;
    slots
        .into_iter()
        .map(|slot| slot.map_err(|e| CliError::solver(e.to_string())))
        .collect()
}

fn cmd_select(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    // Validate every flag before touching the filesystem: a usage error
    // must not depend on whether the corpus happens to be readable.
    let target: u32 = args.get_or("target", u32::MAX)?;
    if target == u32::MAX {
        return Err(CliError::usage("missing required flag --target"));
    }
    let max_comp: usize = args.get_or("max-comparatives", 12)?;
    let algorithm_name = args.get("algorithm").unwrap_or("comparesets+");
    let algorithm = parse_algorithm(algorithm_name)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("binary"))?;
    let params = select_params(args)?;
    let seed = seed_flag(
        args,
        "select",
        &format!("--algorithm {algorithm_name}"),
        algorithm == Algorithm::Random,
    )?;
    let opts = solve_options(args, metrics.clone())?;
    let strict: bool = args.get_or("strict", false)?;
    let dataset = load_corpus(args.require("corpus")?, metrics.as_ref())?;

    let inst = instance_for(&dataset, target, max_comp)?;
    let ctx = InstanceContext::build(&dataset, &inst, scheme);
    // A timeout routes through the checked solvers even in lenient mode:
    // an expired deadline must surface as exit 6, never as a silently
    // degraded selection.
    let selections = if strict || opts.cancel.is_some() {
        solve_strict(&ctx, algorithm, &params, seed, &opts)?
    } else {
        solve_with(&ctx, algorithm, &params, seed, &opts)
    };

    let mut out = format!(
        "algorithm: {} | m = {} | lambda = {} | mu = {}\n",
        algorithm.name(),
        params.m,
        params.lambda,
        params.mu
    );
    for (i, sel) in selections.iter().enumerate() {
        let item = ctx.item(i);
        let product = dataset.product(item.product);
        let role = if i == 0 { "TARGET" } else { "COMPARATIVE" };
        out.push_str(&format!(
            "\n[{role}] #{} {} ({} of {} reviews selected)\n",
            item.product.0,
            product.title,
            sel.len(),
            item.num_reviews()
        ));
        for &r in &sel.indices {
            let review = dataset.review(item.review_ids[r]);
            out.push_str(&format!("  {}* {}\n", review.rating, review.text));
        }
    }
    Ok(out)
}

fn cmd_narrow(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    // Flags first, filesystem second (see cmd_select).
    let target: u32 = args.get_or("target", u32::MAX)?;
    if target == u32::MAX {
        return Err(CliError::usage("missing required flag --target"));
    }
    let k: usize = args.get_or("k", 3)?;
    let method_name = args.get("method").unwrap_or("exact").to_lowercase();
    let method = parse_narrow_method(&method_name)?;
    // Only the exact search reads --threads and --time-limit-ms; another
    // method would silently ignore them.
    if method != NarrowMethod::Exact {
        if let Some(flag) = ["threads", "time-limit-ms"]
            .into_iter()
            .find(|flag| args.get(flag).is_some())
        {
            return Err(CliError::usage(format!(
                "narrow --method {method_name} does not take --{flag}"
            )));
        }
    }
    let seed = seed_flag(
        args,
        "narrow",
        &format!("--method {method_name}"),
        method == NarrowMethod::Random,
    )?;
    let max_comp: usize = args.get_or("max-comparatives", 12)?;
    let params = select_params(args)?;
    let opts = solve_options(args, metrics.clone())?;
    // --timeout and --metrics-json reach the graph solve too.
    let exact_default = ExactOptions::default();
    let exact_opts = ExactOptions {
        time_limit: millis_flag(args, "time-limit-ms", exact_default.time_limit)?,
        threads: args.get_or("threads", exact_default.threads)?,
        cancel: opts.cancel.clone(),
        metrics: opts.metrics.clone(),
    };
    let dataset = load_corpus(args.require("corpus")?, metrics.as_ref())?;

    let inst = instance_for(&dataset, target, max_comp)?;
    let ctx = InstanceContext::build(&dataset, &inst, OpinionScheme::Binary);
    // With a --timeout armed, the seeding solve goes through the checked
    // path so an expired deadline exits 6 instead of silently narrowing
    // from degraded selections.
    let selections = if opts.cancel.is_some() {
        solve_strict(&ctx, Algorithm::CompareSetsPlus, &params, seed, &opts)?
    } else {
        comparesets_core::solve_comparesets_plus_with(&ctx, &params, &opts)
    };
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let vertices = match method {
        NarrowMethod::Exact => {
            let result = solve_exact(&graph, 0, k, &exact_opts);
            if opts.cancel.as_deref().is_some_and(CancelToken::fired) {
                return Err(CliError::deadline(format!(
                    "--timeout expired during exact narrowing \
                     (incumbent weight {:.4}, optimality gap <= {:.4})",
                    result.weight, result.gap
                )));
            }
            result.vertices
        }
        NarrowMethod::Greedy => graph_greedy(&graph, 0, k),
        NarrowMethod::TopK => solve_top_k_similarity(&graph, 0, k),
        NarrowMethod::Random => solve_random_k(&graph, 0, k, seed),
        NarrowMethod::Peel => improve_by_swaps(&graph, &solve_peeling(&graph, Some(0), k), &[0]),
    };

    let mut out = format!(
        "method: {method_name} | k = {k} | candidates = {} | core weight = {:.4}\n",
        ctx.num_items() - 1,
        graph.subgraph_weight(&vertices)
    );
    for &v in &vertices {
        let item = ctx.item(v);
        let role = if v == 0 { "TARGET" } else { "CORE" };
        out.push_str(&format!(
            "[{role}] #{} {}\n",
            item.product.0,
            dataset.product(item.product).title
        ));
    }
    Ok(out)
}

/// Run the persistent solve server (ARCHITECTURE.md §10). Loads every
/// `--corpus` file as a shard named after its file stem, binds, announces
/// the resolved address on stdout (orchestration and the `serve-smoke`
/// recipe parse that line to find an ephemeral port), and serves until a
/// `shutdown` request, the `--max-requests` backstop, or a SIGTERM —
/// which drains gracefully (ARCHITECTURE.md §12): in-flight solves are
/// answered or deadline-clamped, the WAL is flushed, a final snapshot is
/// written, and the process exits 0.
fn cmd_serve(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_serve::Server;

    let corpora = args.require("corpus")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let config = server_config(args)?;

    // The server always collects metrics (the `metrics` op serves them);
    // with `--metrics-json` the same collector also feeds the report.
    let metrics = metrics.unwrap_or_else(|| Arc::new(SolverMetrics::new()));
    let mut shards = Vec::new();
    for path in corpora.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        shards.push((name, load_corpus(path, Some(&metrics))?));
    }
    if shards.is_empty() {
        return Err(CliError::usage("--corpus names no files"));
    }

    let server = Server::bind(addr, shards, Arc::clone(&metrics), config)
        .map_err(|e| CliError::io(format!("binding {addr}: {e}")))?;
    comparesets_serve::install_sigterm_drain();
    println!("serving on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server
        .run()
        .map_err(|e| CliError::io(format!("serving: {e}")))?;
    Ok(format!(
        "served {} request(s), {} degraded",
        summary.requests, summary.degraded
    ))
}

/// The daemon's tuning from the `serve` flags. Each flag left out keeps
/// its [`ServerConfig::default`] value, so `serve` without tuning flags
/// runs the default daemon.
fn server_config(args: &Args) -> Result<ServerConfig, CliError> {
    let default = ServerConfig::default();
    let request_timeout: f64 =
        args.get_or("request-timeout", default.request_timeout.as_secs_f64())?;
    if !(request_timeout.is_finite() && request_timeout >= 0.0) {
        return Err(CliError::usage(format!(
            "--request-timeout: must be a non-negative number, got {request_timeout}"
        )));
    }
    let max_requests: u64 = args.get_or("max-requests", default.max_requests.unwrap_or(0))?;
    let config = ServerConfig {
        workers: args.get_or("workers", default.workers)?,
        cache_capacity: args.get_or("cache-capacity", default.cache_capacity)?,
        request_timeout: Duration::from_secs_f64(request_timeout),
        overload_timeout: millis_flag(args, "overload-timeout-ms", default.overload_timeout)?,
        max_requests: (max_requests > 0).then_some(max_requests),
        data_dir: args.get("data-dir").map(PathBuf::from).or(default.data_dir),
        snapshot_every: args.get_or("snapshot-every", default.snapshot_every)?,
        drain_deadline: millis_flag(args, "drain-deadline-ms", default.drain_deadline)?,
        ..default
    };
    if config.workers == 0 {
        return Err(CliError::usage("--workers: must be at least 1"));
    }
    Ok(config)
}

/// Inspect a durable corpus store offline (ARCHITECTURE.md §11): replay
/// each shard's snapshot + WAL tail exactly as `serve --data-dir` does
/// at bind, and report what a restart would recover. `--out` exports one
/// shard's recovered corpus as a plain corpus file; `--compact true`
/// folds each WAL tail into a fresh snapshot so the next open replays
/// nothing.
fn cmd_recover(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_data::wal::SNAPSHOT_FILE;
    use comparesets_data::CorpusStore;

    let root = Path::new(args.require("data-dir")?);
    let only = args.get("shard");
    let compact: bool = args.get_or("compact", false)?;
    let out = args.get("out");

    // A store root holds one subdirectory per shard; accept a bare shard
    // directory (snapshot.json at top level) too, named by its stem.
    let mut shard_dirs: Vec<(String, std::path::PathBuf)> = Vec::new();
    if root.join(SNAPSHOT_FILE).exists() {
        let name = root
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("corpus")
            .to_string();
        shard_dirs.push((name, root.to_path_buf()));
    } else {
        let entries = std::fs::read_dir(root)
            .map_err(|e| CliError::io(format!("reading {}: {e}", root.display())))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| CliError::io(format!("reading {}: {e}", root.display())))?;
            let dir = entry.path();
            if dir.join(SNAPSHOT_FILE).exists() {
                let name = entry.file_name().to_string_lossy().into_owned();
                shard_dirs.push((name, dir));
            }
        }
        shard_dirs.sort();
    }
    if let Some(only) = only {
        shard_dirs.retain(|(name, _)| name == only);
        if shard_dirs.is_empty() {
            return Err(CliError::usage(format!(
                "shard {only:?} not found under {}",
                root.display()
            )));
        }
    }
    if shard_dirs.is_empty() {
        return Err(CliError::data(format!(
            "no corpus store under {} (no {} found)",
            root.display(),
            SNAPSHOT_FILE
        )));
    }
    if out.is_some() && shard_dirs.len() != 1 {
        return Err(CliError::usage(
            "--out needs exactly one shard (pass --shard NAME)",
        ));
    }

    let mut report = String::new();
    for (name, dir) in &shard_dirs {
        let recovered = comparesets_data::wal::recover(dir, metrics.as_deref())
            .map_err(|e| CliError::data(format!("recovering shard {name:?}: {e}")))?;
        report.push_str(&format!(
            "shard {name}: snapshot seq {}, replayed {} event(s), dropped {} torn byte(s), last seq {}, {} products, {} reviews\n",
            recovered.snapshot_seq,
            recovered.replayed,
            recovered.truncated_bytes,
            recovered.last_seq,
            recovered.dataset.products.len(),
            recovered.dataset.reviews.len(),
        ));
        for fault in &recovered.faults {
            report.push_str(&format!("shard {name}: absorbed fault: {fault}\n"));
        }
        if compact {
            // Re-opening the store replays the same tail, then one
            // explicit snapshot folds it in and truncates the WAL.
            let (mut store, rec) = CorpusStore::open(dir, None, 0, metrics.clone())
                .map_err(|e| CliError::data(format!("opening shard {name:?}: {e}")))?;
            store.snapshot(&rec.dataset).map_err(|e| {
                let message = format!("compacting shard {name:?}: {e}");
                match e {
                    comparesets_data::WalError::Disk(_) => CliError::disk(message),
                    _ => CliError::io(message),
                }
            })?;
            report.push_str(&format!("shard {name}: compacted\n"));
        }
        if let Some(out) = out {
            corpus_io::save(&recovered.dataset, Path::new(out))
                .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
            report.push_str(&format!("wrote {out}\n"));
        }
    }
    report.push_str(&format!("{} shard(s) recovered", shard_dirs.len()));
    Ok(report)
}

/// Drive the durable store through seeded fault schedules
/// (ARCHITECTURE.md §12): each schedule interleaves appends, snapshots,
/// and simulated crashes under an injection profile (short writes,
/// failed fsyncs, disk full, bit flips on read) and verifies after every
/// crash that the acknowledged prefix recovers byte-identical. A single
/// violated invariant fails the run with a data error. Schedule `s` runs
/// in `sched_<s>` under `--dir`, removed once it passes; nothing else in
/// `--dir` is touched.
fn cmd_chaos(args: &Args, _metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_data::{run_fault_schedule, CategoryPreset, FaultProfile};

    let schedules: u64 = args.get_or("schedules", 1_000)?;
    if schedules == 0 {
        return Err(CliError::usage("--schedules: must be at least 1"));
    }
    let base_seed: u64 = args.get_or("seed", 0)?;
    // Without --dir the schedules run in a fresh directory, removed when
    // the run ends, also when an invariant fails.
    let scratch;
    let root = match args.get("dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            scratch = TempDir::new("chaos")
                .map_err(|e| CliError::io(format!("creating a scratch directory: {e}")))?;
            scratch.to_path_buf()
        }
    };
    let seed_dataset = CategoryPreset::Toy.config(6, 5).generate();
    let profile = FaultProfile::chaos();

    let (mut acked, mut faults, mut crashes, mut snapshots, mut failed) = (0u64, 0, 0, 0, 0u64);
    for i in 0..schedules {
        let seed = base_seed.wrapping_add(i);
        let dir = root.join(format!("sched_{seed}"));
        let outcome =
            run_fault_schedule(&dir, &seed_dataset, seed, &profile).map_err(|violation| {
                CliError::data(format!(
                    "schedule seed {seed}: invariant violated: {violation}"
                ))
            })?;
        let _ = std::fs::remove_dir_all(&dir);
        acked += outcome.acked;
        faults += outcome.faults_injected;
        crashes += outcome.crashes;
        snapshots += outcome.snapshots;
        failed += outcome.failed_appends;
    }
    Ok(format!(
        "{schedules} schedule(s) clean: {acked} event(s) acked, {faults} fault(s) injected, \
         {failed} append(s) failed, {crashes} crash(es) recovered, {snapshots} snapshot(s); \
         every acknowledged event recovered intact"
    ))
}

/// Run the reproduction suite (or a named subset) with optional
/// crash-safe checkpointing. Without `--out` the command prints every
/// experiment's output, then the summary; with it, the deterministic
/// report (no wall-clock lines, see `SuiteReport::render_stable`) is
/// written atomically there and only the summary is printed. A fired
/// `--timeout` exits 6; otherwise a failed experiment exits 1.
fn cmd_eval(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_eval::{run_suite, select_experiments, CheckpointStore};

    let mut cfg = match args.get("config").unwrap_or("default") {
        "tiny" if args.get("scale").is_some() => {
            return Err(CliError::usage("eval --config tiny does not take --scale"))
        }
        "tiny" => comparesets_eval::EvalConfig::tiny(),
        "default" => comparesets_eval::EvalConfig::scaled(args.get_or("scale", 1)?),
        other => {
            return Err(CliError::usage(format!(
                "unknown --config {other:?} (expected tiny or default)"
            )))
        }
    };
    cfg.solve_options = solve_options(args, metrics)?;
    let token = cfg.solve_options.cancel.clone();
    let suite = select_experiments(args.get("experiments"))?;

    let resume: bool = args.get_or("resume", false)?;
    let dir = args.get("checkpoint-dir");
    if resume && dir.is_none() {
        return Err(CliError::usage("--resume needs --checkpoint-dir"));
    }
    let store = dir.map(CheckpointStore::new);
    let report = run_suite(&suite, &cfg, store.as_ref(), resume)
        .map_err(|e| CliError::io(format!("checkpointing in {}: {e}", dir.unwrap_or_default())))?;

    if let Some(out) = args.get("out") {
        corpus_io::write_atomic(Path::new(out), report.render_stable().as_bytes())
            .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    }
    if token.is_some_and(|t| t.fired()) {
        return Err(CliError::deadline(format!(
            "--timeout expired mid-suite; {}/{} experiments completed (outputs may be \
             best-so-far and were not checkpointed)",
            report.completed(),
            report.outcomes.len()
        )));
    }
    eval_outcome(&report, args.get("out"))
}

/// What `eval` prints for a finished suite, and its verdict: every
/// experiment's output then the summary (only the summary when the
/// report went to `out`), and an internal error (exit 1) naming the
/// failed experiments when any failed.
fn eval_outcome(
    report: &comparesets_eval::SuiteReport,
    out: Option<&str>,
) -> Result<String, CliError> {
    let printed = match out {
        Some(path) => format!(
            "{}deterministic report written to {path}\n",
            report.render_summary()
        ),
        None => report.render(),
    };
    let failed: Vec<&str> = report
        .failures()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    if failed.is_empty() {
        return Ok(printed);
    }
    Err(CliError::internal(format!(
        "{}/{} experiments failed: {}",
        failed.len(),
        report.outcomes.len(),
        failed.join(", ")
    ))
    .with_output(printed))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::error::ErrorKind;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    /// A corpus path no other test shares, in its own [`TempDir`]: the
    /// directory, with any file a test derives from the path, is removed
    /// on drop, whether the test passed or not.
    struct TempCorpus {
        _dir: TempDir,
        path: String,
    }

    impl std::ops::Deref for TempCorpus {
        type Target = str;

        fn deref(&self) -> &str {
            &self.path
        }
    }

    fn temp_corpus() -> TempCorpus {
        let dir = TempDir::new("cli_test").unwrap();
        let path = dir.join("corpus.json").to_string_lossy().into_owned();
        TempCorpus { _dir: dir, path }
    }

    #[test]
    fn generate_then_stats_then_select_then_narrow() {
        let path = temp_corpus();
        let g = run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "80",
            "--seed",
            "5",
            "--out",
            &path,
        ])
        .unwrap();
        assert!(g.contains("80 products"));

        let s = run(&["stats", &path]).unwrap();
        assert!(s.contains("#Target Product"));

        // Find a target with comparisons by trying product 0..n.
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances");
        let sel = run(&[
            "select",
            "--corpus",
            &path,
            "--target",
            &target.to_string(),
            "--m",
            "2",
        ])
        .unwrap();
        assert!(sel.contains("[TARGET]"));
        assert!(sel.contains("CompaReSetS+"));

        for method in ["exact", "greedy", "topk", "random", "peel"] {
            let n = run(&[
                "narrow",
                "--corpus",
                &path,
                "--target",
                &target.to_string(),
                "--k",
                "3",
                "--method",
                method,
            ])
            .unwrap();
            assert!(n.contains("[TARGET]"), "{method}: {n}");
        }
    }

    #[test]
    fn unknown_command_fails() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert_eq!(e.exit_code(), 2);
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_prints_usage_with_exit_codes() {
        for argv in [&["help"][..], &["--help"], &["select", "--help"]] {
            let out = run(argv).unwrap();
            assert!(out.contains("exit codes:"), "{argv:?}");
            assert!(out.contains("5  solver error"), "{argv:?}");
        }
    }

    #[test]
    fn bad_category_fails() {
        let e = run(&["generate", "--category", "laptop", "--out", "/tmp/x.json"]).unwrap_err();
        assert!(e.to_string().contains("laptop"));
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn missing_corpus_file_is_an_io_error() {
        let e = run(&["stats", "/nonexistent/zz.json"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn corrupt_corpus_file_is_a_data_error() {
        let path = temp_corpus();
        std::fs::write(&*path, "{\"name\": \"broken\"").unwrap();
        let e = run(&["stats", &path]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data);
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("loading"), "{e}");
    }

    #[test]
    fn select_requires_target() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "20",
            "--seed",
            "1",
            "--out",
            &path,
        ])
        .unwrap();
        let e = run(&["select", "--corpus", &path]).unwrap_err();
        assert!(e.to_string().contains("target"));
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn out_of_range_target_fails() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "20",
            "--seed",
            "1",
            "--out",
            &path,
        ])
        .unwrap();
        let e = run(&["select", "--corpus", &path, "--target", "9999"]).unwrap_err();
        assert!(e.to_string().contains("out of range"));
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn strict_select_matches_default_on_well_posed_corpus() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "13",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let base = ["select", "--corpus", &path, "--target", target.as_str()];
        let lenient = run(&base).unwrap();
        let strict = run(&[&base[..], &["--strict", "true"]].concat()).unwrap();
        assert_eq!(lenient, strict);
    }

    #[test]
    fn unknown_and_retired_flags_are_usage_errors() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "9",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let base = ["select", "--corpus", &path, "--target", target.as_str()];
        // A misspelled flag, and the retired execution flags, are named
        // and rejected (exit 2) instead of silently running the defaults.
        for (name, value) in [
            ("lamda", "5"),
            ("backend", "dense"),
            ("parallel", "true"),
            ("threads", "2"),
            ("warm-start", "false"),
        ] {
            let flag = format!("--{name}");
            let e = run(&[&base[..], &[flag.as_str(), value]].concat()).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{flag}: {e}");
            assert_eq!(e.exit_code(), 2, "{flag}");
            assert!(e.to_string().contains(&flag), "{flag}: {e}");
        }
        // The check runs before any work: an unreadable corpus does not
        // turn the usage error into an io error.
        let e = run(&[
            "select",
            "--corpus",
            "/nonexistent/zz.json",
            "--target",
            "0",
            "--lamda",
            "5",
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage, "{e}");
        // `narrow --threads` still sizes the exact branch-and-bound.
        let narrow = ["narrow", "--corpus", &path, "--target", target.as_str()];
        assert!(run(&[&narrow[..], &["--threads", "2"]].concat()).is_ok());
        // The other commands that solve reject a misspelled flag and the
        // retired warm-start switch the same way.
        let eval = ["eval", "--config", "tiny"];
        for command in [&narrow[..], &eval[..]] {
            for name in ["lamda", "warm-start"] {
                let flag = format!("--{name}");
                let e = run(&[command, &[flag.as_str(), "false"]].concat()).unwrap_err();
                assert_eq!(e.kind, ErrorKind::Usage, "{flag}: {e}");
                assert!(e.to_string().contains(&flag), "{flag}: {e}");
            }
        }
    }

    #[test]
    fn metrics_json_writes_a_valid_report() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "21",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let report_path = path.replace(".json", ".metrics.json");
        run(&[
            "select",
            "--corpus",
            &path,
            "--target",
            &target,
            "--metrics-json",
            &report_path,
        ])
        .unwrap();
        let raw = std::fs::read_to_string(&report_path).unwrap();
        let report: MetricsReport = serde_json::from_str(&raw).unwrap();
        assert!(report.schema_matches(), "schema tag: {}", report.schema);
        assert_eq!(report.command, "select");
        assert!(report.wall_ms > 0.0);
        // The default algorithm (CompaReSetS+) runs real regressions, so
        // the solver counters must have fired.
        assert!(!report.metrics.is_empty());
        assert!(report.metrics.nomp_pursuits > 0);
        assert!(report.metrics.integer_regressions > 0);
    }

    #[test]
    fn metrics_collection_does_not_change_output() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "23",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let report_path = path.replace(".json", ".metrics2.json");
        let base = ["select", "--corpus", &path, "--target", target.as_str()];
        let plain = run(&base).unwrap();
        let metered =
            run(&[&base[..], &["--metrics-json", report_path.as_str()]].concat()).unwrap();
        assert_eq!(plain, metered);
    }

    #[test]
    fn expired_timeout_exits_deadline() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "31",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        for cmd in ["select", "narrow"] {
            let e = run(&[
                cmd,
                "--corpus",
                &path,
                "--target",
                &target,
                "--timeout",
                "0",
            ])
            .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Deadline, "{cmd}: {e}");
            assert_eq!(e.exit_code(), 6, "{cmd}");
            assert!(e.to_string().contains("deadline"), "{cmd}: {e}");
        }
        // A generous timeout changes nothing: output matches the plain run.
        let base = ["select", "--corpus", &path, "--target", target.as_str()];
        let plain = run(&base).unwrap();
        let timed = run(&[&base[..], &["--timeout", "3600"]].concat()).unwrap();
        assert_eq!(plain, timed);
    }

    #[test]
    fn bad_timeout_is_a_usage_error() {
        let e = run(&[
            "select",
            "--corpus",
            "x.json",
            "--target",
            "0",
            "--timeout",
            "-5",
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--timeout"), "{e}");
    }

    #[test]
    fn chaos_removes_only_its_own_schedule_directories() {
        let dir = TempDir::new("cli_chaos").unwrap();
        std::fs::write(dir.join("keep.txt"), b"not the run's").unwrap();
        let args = ["chaos", "--schedules", "2", "--dir", dir.to_str().unwrap()];
        let report = run(&args).unwrap();
        assert!(report.contains("2 schedule(s) clean"), "{report}");
        let left: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["keep.txt"]);
        // Without --dir the run uses a scratch directory of its own.
        let report = run(&["chaos", "--schedules", "1"]).unwrap();
        assert!(report.contains("1 schedule(s) clean"), "{report}");
    }

    #[test]
    fn eval_subset_writes_deterministic_report() {
        let dir = TempDir::new("cli_eval").unwrap();
        let out = dir.join("report.txt");
        let summary = run(&[
            "eval",
            "--config",
            "tiny",
            "--experiments",
            "table2",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(summary.contains("1/1 experiments completed"), "{summary}");
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("1/1 experiments completed"), "{report}");
        assert!(!report.contains(" ms |"), "wall clock leaked: {report}");
    }

    #[test]
    fn eval_without_out_prints_each_experiment_then_the_summary() {
        let printed = run(&["eval", "--config", "tiny", "--experiments", "table2"]).unwrap();
        let table = printed.find("Table 2").expect("experiment text printed");
        let summary = printed
            .find("== suite summary: 1/1")
            .expect("summary printed");
        assert!(table < summary, "{printed}");
    }

    #[test]
    fn a_failed_experiment_fails_eval_and_is_named() {
        use comparesets_eval::{run_suite, EvalConfig, Experiment};

        let suite = [
            Experiment::new("fine", "completes", |_| "fine output".to_string()),
            Experiment::new("boom", "panics", |_| panic!("injected failure")),
        ];
        let report = run_suite(&suite, &EvalConfig::tiny(), None, false).unwrap();
        let e = eval_outcome(&report, None).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e}");
        assert!(
            e.to_string().contains("1/2 experiments failed: boom"),
            "{e}"
        );
        // The report still reaches stdout, failure lines included.
        assert!(e.output().contains("fine output"), "{}", e.output());
        assert!(e.output().contains("FAILED boom: injected failure"));
        let e = eval_outcome(&report, Some("report.txt")).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e}");
        assert!(!e.output().contains("fine output"), "{}", e.output());
    }

    #[test]
    fn eval_metrics_json_counts_every_experiment_solve() {
        let dir = TempDir::new("cli_eval_metrics").unwrap();
        let path = dir.join("metrics.json");
        let printed = run(&[
            "eval",
            "--config",
            "tiny",
            "--experiments",
            "table5",
            "--metrics-json",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let row = printed
            .lines()
            .find(|line| line.starts_with("table5 "))
            .expect("summary row printed");
        let pursuits: u64 = row
            .split("pursuits")
            .nth(1)
            .and_then(|rest| rest.split('|').next())
            .and_then(|count| count.trim().parse().ok())
            .expect("summary row counts pursuits");
        let raw = std::fs::read_to_string(&path).unwrap();
        let report: MetricsReport = serde_json::from_str(&raw).unwrap();
        assert!(pursuits > 0, "{row}");
        assert_eq!(report.metrics.nomp_pursuits, pursuits, "{row}");
        assert!(report.metrics.bnb_nodes > 0, "{raw}");
    }

    #[test]
    fn unknown_values_are_usage_errors_before_the_corpus_is_read() {
        // The corpus does not exist: a usage error proves the value is
        // checked before the filesystem.
        for (command, flag) in [("select", "--algorithm"), ("narrow", "--method")] {
            let e = run(&[
                command,
                "--corpus",
                "/nonexistent/zz.json",
                "--target",
                "0",
                flag,
                "bogus",
            ])
            .unwrap_err();
            assert_eq!(e.exit_code(), 2, "{command} {flag}: {e}");
            assert!(e.to_string().contains("\"bogus\""), "{e}");
        }
    }

    #[test]
    fn eval_flag_validation() {
        let e = run(&["eval", "--experiments", "tablezzz"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("ablation, scaling"), "{e}");
        let e = run(&["eval", "--resume", "true"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--checkpoint-dir"), "{e}");
        let e = run(&["eval", "--config", "huge"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn serve_round_trips_over_the_wire() {
        use comparesets_serve::{Client, Request, Status};

        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "13",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances");

        // Reserve an ephemeral port, free it, and hand it to the command:
        // the test cannot read the "serving on ..." stdout line in-process.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let argv: Vec<String> = [
            "serve",
            "--corpus",
            &path,
            "--addr",
            &addr,
            "--workers",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || dispatch(&argv));

        // The listener comes up asynchronously; retry the connect briefly.
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr.as_str()) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("server did not come up");
        assert_eq!(client.ping().unwrap().status, Status::Ok);
        let solved = client.call(&Request::solve(target)).unwrap();
        assert_eq!(solved.status, Status::Ok, "{solved:?}");
        assert!(!solved.selections.is_empty());
        client.shutdown().unwrap();

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("served 3 request(s)"), "{summary}");
    }

    #[test]
    fn serve_flag_validation() {
        let e = run(&["serve"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("corpus"), "{e}");
        let e = run(&["serve", "--corpus", "x.json", "--workers", "0"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--workers"), "{e}");
        let e = run(&["serve", "--corpus", "x.json", "--request-timeout", "-1"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--request-timeout"), "{e}");
        let e = run(&["serve", "--corpus", "/nonexistent/zz.json"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
    }

    #[test]
    fn serve_without_tuning_flags_runs_the_default_daemon() {
        let argv: Vec<String> = ["serve", "--corpus", "x.json", "--addr", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse(&argv).unwrap();
        assert_eq!(server_config(&args).unwrap(), ServerConfig::default());

        let argv: Vec<String> = ["serve", "--corpus", "x.json", "--drain-deadline-ms", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse(&argv).unwrap();
        let config = server_config(&args).unwrap();
        assert_eq!(config.drain_deadline, Duration::from_millis(5));
        assert_eq!(config.workers, ServerConfig::default().workers);
    }

    #[test]
    fn flags_the_chosen_branch_does_not_read_are_usage_errors() {
        let e = run(&["eval", "--config", "tiny", "--scale", "10"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--scale"), "{e}");
        // The corpus does not exist: a usage error proves the check runs
        // before any work.
        for (flag, value) in [("--threads", "4"), ("--time-limit-ms", "5")] {
            let e = run(&[
                "narrow",
                "--corpus",
                "/nonexistent/zz.json",
                "--target",
                "0",
                "--method",
                "greedy",
                flag,
                value,
            ])
            .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{flag}: {e}");
            assert!(e.to_string().contains(flag), "{e}");
        }
        let e = run(&[
            "narrow",
            "--corpus",
            "/nonexistent/zz.json",
            "--target",
            "0",
            "--threads",
            "4",
        ])
        .unwrap_err();
        assert_eq!(
            e.kind,
            ErrorKind::Io,
            "the exact default takes --threads: {e}"
        );
    }

    #[test]
    fn seed_outside_the_random_branch_is_a_usage_error() {
        // The corpus does not exist: a usage error proves the check runs
        // before the corpus is read, and an io error that the flag was
        // accepted.
        let corpus = ["--corpus", "/nonexistent/zz.json", "--target", "0"];
        for (command, branch) in [
            ("select", &[][..]),
            ("select", &["--algorithm", "comparesets"][..]),
            ("narrow", &[][..]),
            ("narrow", &["--method", "greedy"][..]),
        ] {
            let argv = [&[command][..], &corpus, branch, &["--seed", "99"]].concat();
            let e = run(&argv).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{argv:?}: {e}");
            assert_eq!(e.exit_code(), 2, "{argv:?}");
            assert!(e.to_string().contains("--seed"), "{argv:?}: {e}");
        }
        for (command, branch) in [("select", "--algorithm"), ("narrow", "--method")] {
            let argv = [&[command][..], &corpus, &[branch, "random", "--seed", "99"]].concat();
            let e = run(&argv).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Io, "{argv:?}: {e}");
        }
    }

    #[test]
    fn recover_flag_validation_and_round_trip() {
        use comparesets_data::wal::{EventKind, ReviewEvent};
        use comparesets_data::{CorpusStore, ProductId, ReviewId};

        let e = run(&["recover"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("data-dir"), "{e}");
        let e = run(&["recover", "--data-dir", "/nonexistent/zz"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);

        // Build a store with one shard and one WAL event, then recover it.
        let root = TempDir::new("cli_recover").unwrap();
        let shard = root.join("main");
        let seed = CategoryPreset::Toy.config(8, 3).generate();
        let (mut store, rec) = CorpusStore::open(&shard, Some(&seed), 0, None).unwrap();
        let ev = ReviewEvent {
            seq: store.next_seq(),
            kind: EventKind::Add,
            product: ProductId(0),
            review: ReviewId(rec.dataset.reviews.len() as u32),
            reviewer: rec.dataset.num_reviewers,
            rating: 5,
            text: "streamed".to_string(),
            mentions: vec![],
        };
        store.append(std::slice::from_ref(&ev)).unwrap();
        drop(store);

        let e = run(&[
            "recover",
            "--data-dir",
            root.to_str().unwrap(),
            "--shard",
            "nope",
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);

        let out = root.join("recovered.json");
        let report = run(&[
            "recover",
            "--data-dir",
            root.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--compact",
            "true",
        ])
        .unwrap();
        assert!(report.contains("shard main"), "{report}");
        assert!(report.contains("replayed 1 event(s)"), "{report}");
        assert!(report.contains("compacted"), "{report}");
        let exported = corpus_io::load(&out).unwrap();
        assert_eq!(exported.reviews.len(), seed.reviews.len() + 1);

        // After --compact the WAL tail is folded in: nothing replays.
        let report = run(&["recover", "--data-dir", root.to_str().unwrap()]).unwrap();
        assert!(report.contains("replayed 0 event(s)"), "{report}");
    }

    #[test]
    fn bad_trace_level_is_a_usage_error() {
        let e = run(&["stats", "/tmp/whatever.json", "--trace", "loud"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--trace"), "{e}");
    }

    #[test]
    fn algorithm_and_scheme_parsers() {
        assert!(parse_algorithm("comparesets+").is_ok());
        assert!(parse_algorithm("CRS").is_ok());
        assert!(parse_algorithm("nope").is_err());
        assert!(parse_scheme("unary-scale").is_ok());
        assert!(parse_scheme("binary").is_ok());
        assert!(parse_scheme("hex").is_err());
    }
}

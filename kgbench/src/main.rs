//! `kgbench` — the repository benchmark. README.md beside this package
//! names its workloads and metrics and says how to run it.
//!
//! One run builds the release `kgag` binary from source, cold-starts it
//! once (generate, train, write the checkpoint, bind), restarts it from
//! that checkpoint a few times, drives the last instance over loopback
//! TCP for the timed window, and checks every response bit for bit
//! against a reference scorer built in this process from the same
//! checkpoint. `--trace 1` adds a second, identical window against a
//! telemetry-enabled server, on `interactive` a contention window (its
//! reads beside open-loop lifecycle ops, every ack checked too), and
//! replays the layer functions in-process.
//! The last stdout line is the machine-readable result.

mod drive;
mod gen;
mod layers;
mod server;
mod stats;
mod telemetry;

use drive::{Load, Window};
use gen::{distinct, MutationStream, Rng, ScoreStream};
use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_data::GroupDataset;
use kgag_eval::EvalConfig;
use kgag_tensor::pool::with_threads;
use kgag_testkit::json::Json;
use server::{Server, Startup};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use telemetry::Telemetry;

/// Epochs the cold start trains.
const EPOCHS: usize = 2;
/// The split seed `kgag serve` uses; the reference model must match it.
const SPLIT_SEED: u64 = 0x5eed;
/// Launches from the checkpoint per run; `setup_s` is their median.
const RESTARTS: usize = 5;
/// Groups a run reads (and, disjoint from them, the groups its mutations
/// target).
const POOL: usize = 64;
/// Candidates per shortlist re-ranking request.
const SHORTLIST: (usize, usize) = (10, 50);
/// Candidates per `catalog` request: the 600-item catalog in three.
const CATALOG_CHUNK: usize = 200;

const USAGE: &str = "\
usage: kgbench --workload interactive|catalog --seed N --seconds S --trace 0|1
       kgbench --smoke

Builds and launches the release `kgag serve` binary of this checkout and
drives it over loopback TCP. The last stdout line is the result
{\"correct\", \"attempted\", \"failed\", \"metrics\"}: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. --smoke runs one short
traced pass of every workload at --scale tiny.";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Interactive,
    Catalog,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Interactive, Workload::Catalog];

    fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Catalog => "catalog",
        }
    }
}

struct Plan {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    restarts: usize,
}

impl Plan {
    fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }
}

/// `None` is smoke mode.
fn parse_args(args: &[String]) -> Result<Option<Plan>, String> {
    if args == ["--smoke"] {
        return Ok(None);
    }
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value.as_str());
    }
    let get = |key: &str| flags.get(key).copied().ok_or_else(|| format!("--{key} is required"));
    let workload = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse().map_err(|_| "--seed takes a whole number".to_owned())?;
    let seconds: f64 =
        get("seconds")?.parse().map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_owned());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if flags.len() != 4 {
        return Err("unknown flag".to_owned());
    }
    Ok(Some(Plan { workload, seed, seconds, trace, scale: Scale::Small, restarts: RESTARTS }))
}

fn main() -> ExitCode {
    let scrubbed = scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(None) => smoke(&scrubbed),
        Ok(Some(plan)) => run(&plan, &scrubbed).map(|out| {
            println!("{}", out.report.to_string_pretty());
            println!("{}", out.result_line());
            out.correct
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the server's outputs were not all correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Remove every `KGAG_*` variable from this process's environment,
/// before any thread exists. The in-process reference scorer reads the
/// same knobs as the server, and launched servers inherit what is left.
fn scrub_env() -> Vec<String> {
    let keys: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("KGAG_"))
        .collect();
    for key in &keys {
        std::env::remove_var(key);
    }
    keys
}

/// One short traced pass of every workload at tiny scale: spawn, drive,
/// verify, telemetry parse and shutdown, in seconds rather than minutes.
fn smoke(scrubbed: &[String]) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in Workload::ALL {
        let plan =
            Plan { workload, seed: 1, seconds: 3.0, trace: true, scale: Scale::Tiny, restarts: 2 };
        let out = run(&plan, scrubbed)?;
        println!(
            "smoke {}: correct {} attempted {} failed {} metrics {}",
            workload.name(),
            out.correct,
            out.attempted,
            out.failed,
            out.metrics.len()
        );
        all_correct &= out.correct;
    }
    Ok(all_correct)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    report: Json,
}

impl Outcome {
    /// The result object on one line. The pretty printer breaks lines
    /// only between tokens (a string escapes its newlines), so dropping
    /// each line break and its indentation leaves compact JSON.
    fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted as u64)),
            ("failed", Json::UInt(self.failed as u64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .to_string_pretty()
        .lines()
        .map(str::trim_start)
        .collect()
    }
}

/// Scratch files of one run, inside the checkout's build directory;
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(bin: &Path) -> Result<WorkDir, String> {
        let dir =
            bin.parent().unwrap_or(Path::new(".")).join(format!("kgbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The run's read groups and, disjoint from them, the mutation targets.
struct Pools {
    reads: Vec<u32>,
    writes: Vec<u32>,
}

impl Pools {
    fn draw(seed: u64, ds: &GroupDataset) -> Pools {
        let n = ds.num_groups() as usize;
        let size = POOL.min(n / 2);
        let picked = distinct(&mut Rng::new(seed, 0), n, 2 * size);
        Pools { reads: picked[..size].to_vec(), writes: picked[size..].to_vec() }
    }
}

/// The traffic of one window. Stream ids keep warm-up, reads and
/// mutations on independent sequences of the one workload seed.
fn load(plan: &Plan, ds: &GroupDataset, pools: &Pools) -> Load {
    let items = ds.num_items as usize;
    let rng = |id| Rng::new(plan.seed, id);
    let shortlist = |id| ScoreStream::shortlists(rng(id), pools.reads.clone(), items, SHORTLIST);
    let catalog = |id| ScoreStream::catalog(rng(id), pools.reads.clone(), items, CATALOG_CHUNK);
    match plan.workload {
        Workload::Interactive => Load { warm: shortlist(10), reads: shortlist(1), mutations: None },
        Workload::Catalog => Load { warm: catalog(10), reads: catalog(1), mutations: None },
    }
}

/// The contention window of `interactive`'s traced run: its reads beside
/// the open-loop lifecycle stream, which takes the group store's write
/// lock about 100 times a second.
fn contention_load(plan: &Plan, ds: &GroupDataset, pools: &Pools) -> Load {
    Load { mutations: Some(mutations(plan.seed, ds, pools)), ..load(plan, ds, pools) }
}

fn mutations(seed: u64, ds: &GroupDataset, pools: &Pools) -> MutationStream {
    let rosters = |groups: &[u32]| -> Vec<(u32, Vec<u32>)> {
        groups.iter().map(|&g| (g, ds.groups[g as usize].clone())).collect()
    };
    MutationStream::new(
        Rng::new(seed, 3),
        rosters(&pools.writes),
        rosters(&pools.reads),
        ds.num_users,
        ds.num_items as usize,
        ds.num_groups(),
    )
}

/// Failed operations of a window: transport errors, typed server errors,
/// any reply whose bits differ from the reference row of its group, any
/// ack other than the generator's prediction, and any created twin that
/// does not score exactly as the roster it copies.
fn failures(w: &Window, rows: &HashMap<u32, Vec<f32>>) -> usize {
    let reads = w
        .scores
        .iter()
        .filter(|s| !matches!(&s.result, Ok(got) if same_bits(got, &s.items, &rows[&s.group])))
        .count();
    let mutations = w
        .applied
        .iter()
        .filter(|a| {
            let twin_ok = match (&a.mutation.twin, &a.twin_scores) {
                (None, None) => true,
                (Some((source, items)), Some(Ok(got))) => same_bits(got, items, &rows[source]),
                _ => false,
            };
            a.result != Ok(a.mutation.expect) || !twin_ok
        })
        .count();
    reads + mutations
}

/// `got` holds exactly `row`'s scores of `items`, bit for bit.
fn same_bits(got: &[f32], items: &[u32], row: &[f32]) -> bool {
    got.len() == items.len()
        && got.iter().zip(items).all(|(s, &v)| s.to_bits() == row[v as usize].to_bits())
}

/// Stretches of equal reply count a window is cut into. Throughput and
/// candidates per second are the median over them: the host's per-core
/// speed swings for seconds at a time with co-tenant load, and a median
/// over stretches is not moved by a slow or fast phase that covers less
/// than half the window, in either direction.
const STRETCHES: usize = 25;

/// Client-side summary of one window. The latencies cover the whole
/// window; the replies per 1 s slice and the whole-window throughput are
/// kept for the report, to show how steady the window was.
struct Traffic {
    /// Length of the window, in s.
    seconds: f64,
    requests: usize,
    /// Median over [`STRETCHES`] of successful replies per second.
    throughput: f64,
    /// Successful replies over the whole window, per second.
    window_throughput: f64,
    /// Median over [`STRETCHES`] of candidates scored per second.
    candidates_per_s: f64,
    /// Successful reads, ascending, in µs.
    latency_us: Vec<f64>,
    /// Mean latency of every score request on the wire, warm-up and
    /// twin checks included, in µs: the set the server's totals cover.
    all_scores_mean_us: f64,
    /// Successful reads per 1 s slice, in time order.
    slice_reads: Vec<usize>,
    /// How late the generator sent: each request's gap after the
    /// previous reply, ascending, in µs.
    late_us: Vec<f64>,
    encode_ns: f64,
    decode_ns: f64,
    mutations: usize,
    /// Lifecycle acks, from scheduled send time, ascending, in µs.
    mutation_us: Vec<f64>,
    /// How far behind its schedule the open loop sent each op,
    /// ascending, in µs.
    mutation_late_us: Vec<f64>,
}

impl Traffic {
    fn of(w: &Window) -> Traffic {
        let ok: Vec<&drive::Score> = w.scores.iter().filter(|s| s.result.is_ok()).collect();
        let us = |ns: u64| ns as f64 / 1e3;
        let mut slice_reads = vec![0; w.seconds.ceil() as usize];
        for s in &ok {
            if let Some(n) = slice_reads.get_mut((s.done - w.start).as_secs() as usize) {
                *n += 1;
            }
        }
        // replies in the order they came back, with their candidate counts
        let replies: Vec<(f64, f64)> =
            ok.iter().map(|s| ((s.done - w.start).as_secs_f64(), s.items.len() as f64)).collect();
        let ones: Vec<(f64, f64)> = replies.iter().map(|&(at, _)| (at, 1.0)).collect();
        Traffic {
            seconds: w.seconds,
            requests: w.scores.len(),
            throughput: stats::stretch_median_rate(&ones, STRETCHES),
            window_throughput: ok.len() as f64 / w.seconds.max(f64::MIN_POSITIVE),
            candidates_per_s: stats::stretch_median_rate(&replies, STRETCHES),
            latency_us: stats::sorted(ok.iter().map(|s| us(s.latency_ns)).collect()),
            all_scores_mean_us: stats::mean(
                &ok.iter()
                    .map(|s| s.latency_ns)
                    .chain(w.side_ns.iter().copied())
                    .map(us)
                    .collect::<Vec<_>>(),
            ),
            slice_reads,
            late_us: stats::sorted(w.scores.iter().map(|s| us(s.late_ns)).collect()),
            encode_ns: stats::mean(&ok.iter().map(|s| s.encode_ns as f64).collect::<Vec<_>>()),
            decode_ns: stats::mean(&ok.iter().map(|s| s.decode_ns as f64).collect::<Vec<_>>()),
            mutations: w.applied.len(),
            mutation_us: stats::sorted(
                w.applied.iter().filter(|a| a.result.is_ok()).map(|a| us(a.latency_ns)).collect(),
            ),
            mutation_late_us: stats::sorted(w.applied.iter().map(|a| us(a.late_ns)).collect()),
        }
    }
}

/// A percentile that must be reportable, with its sample count in the
/// error when it is not.
fn required(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    stats::percentile(sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than {} beyond the percentile",
            sorted.len(),
            stats::MIN_BEYOND
        )
    })
}

fn optional(sorted: &[f64], q: f64) -> Json {
    stats::percentile(sorted, q).map_or(Json::Null, Json::Float)
}

/// A percentile of a per-layer sample that only the contention window
/// fills; 0 where it is not reportable.
fn or_zero(sorted: &[f64], q: f64) -> f64 {
    stats::percentile(sorted, q).unwrap_or(0.0)
}

/// Set-up measurements shared by both windows.
struct Setup {
    cold_start_s: f64,
    restart_s: Vec<f64>,
    rss_kib: f64,
    quality_ndcg5: f64,
}

fn end_to_end(t: &Traffic, s: &Setup) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("throughput_rps", t.throughput, "1/s"),
        metric("candidates_per_s", t.candidates_per_s, "1/s"),
        metric("latency_p50_us", required(&t.latency_us, 0.50, "latency_p50_us")?, "us"),
        metric("rss_peak_mb", s.rss_kib / 1024.0, "MB"),
        metric("quality_ndcg5", s.quality_ndcg5, "ndcg"),
        metric("setup_s", stats::median(&s.restart_s), "s"),
    ])
}

/// The traced run's layer split. `tel` is the traced server's sink,
/// `train` the cold start's, `contention` the contention window on
/// `interactive`.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    traced: &Traffic,
    untraced: &Traffic,
    contention: Option<&Traffic>,
    tel: &Telemetry,
    train: &Telemetry,
    replay: &layers::Replay,
    cold_start_s: f64,
    generate_ms: f64,
) -> Result<Vec<Metric>, String> {
    let client_us = traced.all_scores_mean_us;
    let served_us = tel.hist_mean("serve.latency_ns") / 1e3;
    let batch_us = tel.hist_mean("serve.batch_score_ns") / 1e3;
    let score_ns = tel.hist_sum("serve.batch_score_ns");
    let window = traced.seconds.max(f64::MIN_POSITIVE);
    let none = Vec::new();
    let (mutation_us, mutation_late_us) =
        contention.map_or((&none, &none), |c| (&c.mutation_us, &c.mutation_late_us));
    Ok(vec![
        metric("serve.client_encode_ns", traced.encode_ns, "ns"),
        metric("serve.client_decode_ns", traced.decode_ns, "ns"),
        metric("serve.conn_us", client_us - served_us, "us"),
        metric("serve.batcher_wait_us", served_us - batch_us, "us"),
        metric("serve.fuse_requests", tel.hist_mean("serve.batch_requests"), "count"),
        metric("serve.batches", tel.counter("serve.batches"), "count"),
        metric("serve.pair_fuse_requests", replay.pair_fuse_requests, "count"),
        metric("serve.pair_us", replay.pair_us, "us"),
        metric("serve.score_busy_ratio", score_ns / 1e9 / window, "ratio"),
        metric("serve.rejected", tel.counter("serve.requests_rejected"), "count"),
        metric("serve.deadline_missed", tel.counter("serve.deadline_missed"), "count"),
        metric("core.score_batch_us", batch_us, "us"),
        metric(
            "core.score_ns_per_candidate",
            score_ns / tel.counter("infer.batched_items_scored").max(1.0),
            "ns",
        ),
        metric("core.replay_ns_per_candidate", replay.score_ns_per_candidate, "ns"),
        metric("core.restore_ms", replay.restore_ms, "ms"),
        metric("core.cold_start_s", cold_start_s, "s"),
        metric("core.fit_s", replay.fit_s, "s"),
        metric("core.epoch_s", train.span_mean_ns("trainer.epoch") / 1e9, "s"),
        metric("core.train_batch_us", train.hist_mean("trainer.batch_ns") / 1e3, "us"),
        metric("core.apply_us_p50", required(&replay.apply_us, 0.50, "core.apply_us_p50")?, "us"),
        metric("core.apply_us_p99", required(&replay.apply_us, 0.99, "core.apply_us_p99")?, "us"),
        metric(
            "core.write_lock_share",
            // no ops without a contention window, so 0 then
            replay.window_apply_s / contention.map_or(1.0, |c| c.seconds.max(f64::MIN_POSITIVE)),
            "ratio",
        ),
        metric("lifecycle.mutation_p50_us", or_zero(mutation_us, 0.50), "us"),
        metric("lifecycle.mutation_p99_us", or_zero(mutation_us, 0.99), "us"),
        metric("kg.rf_cache_build_ms", replay.rf_cache_build_ms, "ms"),
        metric("kg.rf_cache_kib", replay.rf_cache_kib, "KiB"),
        metric("kg.evicted_per_mutation", replay.evicted_per_mutation, "count"),
        metric("kg.sampled_nodes", train.counter("kg.sampled_nodes"), "count"),
        metric("tensor.pool_tasks", tel.counter("pool.tasks"), "count"),
        metric("tensor.pool_task_us", tel.hist_mean("pool.task_ns") / 1e3, "us"),
        metric("data.generate_ms", generate_ms, "ms"),
        metric("obs.trace_overhead", traced.throughput / untraced.throughput, "ratio"),
        metric("bench.score_requests", untraced.requests as f64, "count"),
        metric("bench.mutations", contention.map_or(0, |c| c.mutations) as f64, "count"),
        metric(
            "bench.generator_late_p95_us",
            required(&untraced.late_us, 0.95, "bench.generator_late_p95_us")?,
            "us",
        ),
        metric("bench.mutation_late_p99_us", or_zero(mutation_late_us, 0.99), "us"),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), v)
            })
            .collect(),
    )
}

fn traffic_json(t: &Traffic, failed: usize) -> Json {
    let attempted = (t.requests + t.mutations).max(1);
    Json::obj(vec![
        ("score_requests", Json::UInt(t.requests as u64)),
        ("window_throughput_rps", Json::Float(t.window_throughput)),
        ("slice_reads", Json::Arr(t.slice_reads.iter().map(|&n| Json::UInt(n as u64)).collect())),
        ("latency_samples", Json::UInt(t.latency_us.len() as u64)),
        ("latency_p95_us", optional(&t.latency_us, 0.95)),
        ("latency_p99_us", optional(&t.latency_us, 0.99)),
        ("generator_late_samples", Json::UInt(t.late_us.len() as u64)),
        ("mutations", Json::UInt(t.mutations as u64)),
        ("mutation_latency_samples", Json::UInt(t.mutation_us.len() as u64)),
        ("mutation_p50_us", optional(&t.mutation_us, 0.50)),
        ("mutation_p99_us", optional(&t.mutation_us, 0.99)),
        ("mutation_late_p99_us", optional(&t.mutation_late_us, 0.99)),
        ("failed_ratio", Json::Float(failed as f64 / attempted as f64)),
    ])
}

fn startup_json(s: &Startup) -> Json {
    let text = |v: &Option<String>| v.clone().map_or(Json::Null, Json::Str);
    Json::obj(vec![
        ("scoring_tier", text(&s.tier)),
        ("rf_cache_kib", s.rf_cache_kib.map_or(Json::Null, Json::Float)),
        ("batching", text(&s.batching)),
        ("groups_live", s.groups_live.map_or(Json::Null, Json::UInt)),
        ("drained", text(&s.drained)),
    ])
}

fn provenance(plan: &Plan, scrubbed: &[String]) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("git_sha", Json::Str(git_sha())),
        ("available_parallelism", Json::UInt(parallelism as u64)),
        ("nproc", Json::Str(nproc())),
        ("server_threads", Json::UInt(1)),
        ("workload", Json::Str(plan.workload.name().into())),
        ("seed", Json::UInt(plan.seed)),
        ("seconds", Json::Float(plan.seconds)),
        ("scale", Json::Str(plan.scale_name().into())),
        ("trace", Json::Bool(plan.trace)),
        ("scrubbed_env", Json::Arr(scrubbed.iter().map(|k| Json::Str(k.clone())).collect())),
    ])
}

/// The checkout's commit; `unknown` in an exported tree or without git.
fn git_sha() -> String {
    tool_output(
        std::process::Command::new("git")
            .current_dir(server::repo_root())
            .args(["rev-parse", "HEAD"]),
    )
}

fn nproc() -> String {
    tool_output(&mut std::process::Command::new("nproc"))
}

/// A tool's trimmed stdout, or `unknown` when it cannot run or fails.
fn tool_output(cmd: &mut std::process::Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn run(plan: &Plan, scrubbed: &[String]) -> Result<Outcome, String> {
    let started = Instant::now();
    let bin = server::build_kgag()?;
    let work = WorkDir::create(&bin)?;
    let ckpt = work.file("model.kgcp");
    let serve: Vec<String> =
        ["serve", "--scale", plan.scale_name(), "--dataset", "rand", "--checkpoint"]
            .into_iter()
            .map(String::from)
            .chain([ckpt.display().to_string()])
            .collect();
    let mut phases = vec![("build", seconds_since(started))];

    // cold start: generate, train, write the checkpoint, bind
    let t = Instant::now();
    let train_sink = work.file("train.jsonl");
    let cold_args: Vec<String> =
        serve.iter().cloned().chain(["--epochs".into(), EPOCHS.to_string()]).collect();
    let cold = Server::launch(
        &bin,
        &cold_args,
        &work.file("cold.log"),
        plan.trace.then_some(&*train_sink),
    )?;
    let cold_start_s = cold.ready_s;
    cold.stop()?;
    let checkpoint = read(&ckpt)?;
    phases.push(("cold_start", seconds_since(t)));

    // the same dataset, split and model in this process
    let t = Instant::now();
    let (ds, split) = with_threads(1, || {
        let ds = movielens_pair(&MovieLensConfig::at_scale(plan.scale)).1;
        let split = split_dataset(&ds, SPLIT_SEED);
        (ds, split)
    });
    let generate_ms = seconds_since(t) * 1e3;
    let config = KgagConfig { epochs: EPOCHS, ..KgagConfig::default() };
    let mut model = Kgag::new(&ds, &split, config.clone());
    model.load_checkpoint(&checkpoint).map_err(|e| format!("loading the checkpoint: {e}"))?;
    let reference = model.batch_scorer();
    let test = eval_cases(&ds, &split.group, EvalBucket::Test);
    let quality_ndcg5 = model.evaluate_batched(&test, &EvalConfig::default()).ndcg;
    phases.push(("quality", seconds_since(t)));
    let t = Instant::now();
    let pools = Pools::draw(plan.seed, &ds);
    let catalog: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> = pools.reads.iter().map(|&g| (g, catalog.clone())).collect();
    let rows: HashMap<u32, Vec<f32>> =
        pools.reads.iter().copied().zip(reference.score_cases(&cases)).collect();
    phases.push(("reference", seconds_since(t)));

    // restarts from the checkpoint; the last one serves the window
    let t = Instant::now();
    let mut restart_s = Vec::with_capacity(plan.restarts);
    let mut server = None;
    for i in 0..plan.restarts {
        let s = Server::launch(&bin, &serve, &work.file("serve.log"), None)?;
        restart_s.push(s.ready_s);
        if i + 1 < plan.restarts {
            Startup::parse(&s.stop()?)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("at least one restart is needed")?;
    phases.push(("restarts", seconds_since(t)));
    let t = Instant::now();
    let window = drive::drive(server.addr, load(plan, &ds, &pools), plan.seconds);
    let rss_kib = server.vm_hwm_kib()?;
    let startup = Startup::parse(&server.stop()?)?;
    phases.push(("window", seconds_since(t)));

    let setup = Setup { cold_start_s, restart_s, rss_kib, quality_ndcg5 };
    let untraced = Traffic::of(&window);
    let e2e = end_to_end(&untraced, &setup)?;
    let mut failed = failures(&window, &rows);
    let mut attempted = window.scores.len() + window.applied.len();
    let mut report = vec![
        ("provenance", provenance(plan, scrubbed)),
        ("startup", startup_json(&startup)),
        ("end_to_end", metrics_json(&e2e)),
        ("window", traffic_json(&untraced, failed)),
        ("setup_launches", Json::UInt(setup.restart_s.len() as u64)),
        ("cold_start_s", Json::Float(setup.cold_start_s)),
    ];

    let metrics = if plan.trace {
        let t = Instant::now();
        let sink = work.file("serve.jsonl");
        let traced_server = Server::launch(&bin, &serve, &work.file("traced.log"), Some(&sink))?;
        let traced_window = drive::drive(traced_server.addr, load(plan, &ds, &pools), plan.seconds);
        let traced_setup = Setup { rss_kib: traced_server.vm_hwm_kib()?, ..setup };
        Startup::parse(&traced_server.stop()?)?;
        let tel = Telemetry::parse(&String::from_utf8_lossy(&read(&sink)?))?;
        let train = Telemetry::parse(&String::from_utf8_lossy(&read(&train_sink)?))?;
        let traced_failed = failures(&traced_window, &rows);
        failed += traced_failed;
        attempted += traced_window.scores.len() + traced_window.applied.len();
        phases.push(("traced_window", seconds_since(t)));

        // on `interactive`, its reads again beside open-loop lifecycle
        // ops, against an untraced server: the write-lock contention
        let t = Instant::now();
        let contention_window = match plan.workload {
            Workload::Interactive => {
                let server = Server::launch(&bin, &serve, &work.file("contention.log"), None)?;
                let w = drive::drive(server.addr, contention_load(plan, &ds, &pools), plan.seconds);
                Startup::parse(&server.stop()?)?;
                Some(w)
            }
            Workload::Catalog => None,
        };
        let contention_failed = contention_window.as_ref().map_or(0, |w| failures(w, &rows));
        if let Some(w) = &contention_window {
            failed += contention_failed;
            attempted += w.scores.len() + w.applied.len();
            phases.push(("contention_window", seconds_since(t)));
        }

        let t = Instant::now();
        let requests: Vec<(u32, Vec<u32>)> = traced_window
            .scores
            .iter()
            .filter(|s| s.result.is_ok())
            .map(|s| (s.group, s.items.clone()))
            .collect();
        let replay = layers::replay(
            &ds,
            &split,
            &config,
            &checkpoint,
            &reference,
            &requests,
            mutations(plan.seed, &ds, &pools),
            contention_window.as_ref().map_or(0, |w| w.applied.len()),
            &work.file("replay.jsonl"),
        )?;
        failed += replay.mismatches + usize::from(!replay.fit_identical);
        attempted += replay.apply_us.len() + 1;
        phases.push(("replay", seconds_since(t)));

        let traced = Traffic::of(&traced_window);
        let contention = contention_window.as_ref().map(Traffic::of);
        let layer = per_layer(
            &traced,
            &untraced,
            contention.as_ref(),
            &tel,
            &train,
            &replay,
            setup.cold_start_s,
            generate_ms,
        )?;
        let stage_sum = ["serve.conn_us", "serve.batcher_wait_us", "core.score_batch_us"]
            .iter()
            .map(|name| layer.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value))
            .sum::<f64>();
        report.extend([
            ("end_to_end_traced", metrics_json(&end_to_end(&traced, &traced_setup)?)),
            ("traced_window", traffic_json(&traced, traced_failed)),
            ("per_layer", metrics_json(&layer)),
            (
                "contention_window",
                contention.as_ref().map_or(Json::Null, |c| traffic_json(c, contention_failed)),
            ),
            (
                "stage_sum_us",
                Json::obj(vec![
                    ("conn_plus_wait_plus_score", Json::Float(stage_sum)),
                    ("client_mean", Json::Float(traced.all_scores_mean_us)),
                ]),
            ),
            (
                "replay",
                Json::obj(vec![
                    ("score_requests", Json::UInt(replay.score_replayed as u64)),
                    ("mutations", Json::UInt(replay.apply_us.len() as u64)),
                    ("fit_reproduces_checkpoint", Json::Bool(replay.fit_identical)),
                ]),
            ),
        ]);
        layer
    } else {
        e2e
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    phases.push(("total", seconds_since(started)));
    report.push((
        "phase_s",
        Json::Obj(phases.into_iter().map(|(k, v)| (k.to_owned(), Json::Float(v))).collect()),
    ));
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, report: Json::obj(report) })
}

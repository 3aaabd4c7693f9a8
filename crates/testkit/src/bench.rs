//! Wall-clock micro-benchmark harness — the workspace's replacement for
//! `criterion`.
//!
//! A [`BenchSuite`] runs each closure for a few warmup rounds and `N`
//! timed iterations, reports median/p95/min/max per benchmark, and on
//! [`BenchSuite::finish`] writes a `results/bench_<suite>.json` artifact
//! through the same JSON writer the experiment binaries use — so bench
//! numbers live next to table/figure outputs and diff cleanly across
//! commits.
//!
//! Environment knobs:
//!
//! * `KGAG_BENCH_ITERS`  — timed iterations per benchmark (default 15);
//! * `KGAG_BENCH_WARMUP` — warmup iterations per benchmark (default 3);
//! * `KGAG_BENCH_DIR`    — directory for the JSON artifacts (default
//!   `results`, relative to the invocation directory). ci.sh points
//!   this at a scratch directory and moves finished artifacts into
//!   place atomically, so an interrupted bench run can never leave a
//!   half-written or half-missing artifact set behind.

use crate::json::{Json, ToJson};
use std::time::Instant;

pub use std::hint::black_box;

/// Iteration counts for a suite.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed warmup iterations.
    pub warmup: usize,
    /// Timed iterations.
    pub iters: usize,
}

impl BenchConfig {
    /// Defaults with `KGAG_BENCH_ITERS` / `KGAG_BENCH_WARMUP` overrides.
    pub fn from_env() -> Self {
        let read = |key: &str, default: usize| {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        // warmup may be 0; a benchmark with 0 timed iterations has no stats
        BenchConfig {
            warmup: read("KGAG_BENCH_WARMUP", 3),
            iters: read("KGAG_BENCH_ITERS", 15).max(1),
        }
    }
}

/// Timing summary of one benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Timed iterations.
    pub iters: usize,
    /// Median iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Mean iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("iters", self.iters.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("p95_ns", self.p95_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("max_ns", self.max_ns.to_json()),
        ])
    }
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Best-effort git commit of the working tree: walk up from the current
/// directory to a `.git/HEAD`, dereference the ref (loose file first,
/// then `packed-refs`). `None` outside a repository — artifacts then
/// stamp `null` rather than failing.
pub fn git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.join("HEAD").is_file() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return (head.len() >= 7).then(|| head.to_owned()); // detached HEAD
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
        .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_owned()))
}

/// A named collection of benchmarks sharing one configuration.
pub struct BenchSuite {
    name: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
    annotations: Vec<(String, Json)>,
}

impl BenchSuite {
    /// A suite with env-derived iteration counts.
    pub fn new(name: &str) -> Self {
        BenchSuite {
            name: name.to_owned(),
            config: BenchConfig::from_env(),
            results: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Override the configuration (explicit config beats env).
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        assert!(config.iters > 0, "need at least one timed iteration");
        BenchSuite { name: name.to_owned(), config, results: Vec::new(), annotations: Vec::new() }
    }

    /// Attach an extra top-level field to the suite's JSON artifact
    /// (e.g. computed speedup ratios).
    pub fn annotate(&mut self, key: &str, value: Json) {
        self.annotations.push((key.to_owned(), value));
    }

    /// Time `f` with the suite's iteration counts and record the result.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) {
        let iters = self.config.iters;
        self.bench_iters(name, iters, f);
    }

    /// Time `f` with an explicit iteration count (for benchmarks whose
    /// single iteration is expensive, e.g. a full training epoch).
    pub fn bench_iters<F: FnMut()>(&mut self, name: &str, iters: usize, mut f: F) {
        assert!(iters > 0, "need at least one timed iteration");
        for _ in 0..self.config.warmup {
            f();
        }
        let mut samples_ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            f();
            samples_ns.push(t0.elapsed().as_nanos() as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
        let pick = |q: f64| samples_ns[((samples_ns.len() - 1) as f64 * q).round() as usize];
        let result = BenchResult {
            name: name.to_owned(),
            iters,
            median_ns: pick(0.5),
            p95_ns: pick(0.95),
            mean_ns: samples_ns.iter().sum::<f64>() / iters as f64,
            min_ns: samples_ns[0],
            max_ns: samples_ns[iters - 1],
        };
        println!(
            "{:<40} median {:>12}  p95 {:>12}  ({} iters)",
            format!("{}/{}", self.name, result.name),
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            iters
        );
        self.results.push(result);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The suite's JSON artifact. It stamps run metadata — the pool's
    /// thread count beside the cores the machine makes available, the
    /// compilation the packed kernels ran in (`kernels`, see
    /// [`kgag_tensor::infer::isa`]), git commit, iteration/warmup
    /// counts — so bench trajectories stay
    /// comparable across machines and PRs, and a thread-scaling figure
    /// can be read against the cores it actually had.
    pub fn artifact(&self) -> Json {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut fields = vec![
            ("suite", self.name.to_json()),
            ("threads", kgag_tensor::pool::num_threads().to_json()),
            ("available_parallelism", cores.to_json()),
            ("kernels", Json::Str(kgag_tensor::infer::isa().into())),
            ("git_sha", git_sha().to_json()),
            ("iters", self.config.iters.to_json()),
            ("warmup", self.config.warmup.to_json()),
            ("results", self.results.to_json()),
        ];
        for (k, v) in &self.annotations {
            fields.push((k.as_str(), v.clone()));
        }
        Json::obj(fields)
    }

    /// Print a closing line and write [`BenchSuite::artifact`] to
    /// `results/bench_<suite>.json`.
    pub fn finish(self) {
        let payload = self.artifact();
        let dir = std::env::var("KGAG_BENCH_DIR").unwrap_or_else(|_| "results".into());
        match crate::json::write_json_file(
            std::path::Path::new(&dir),
            &format!("bench_{}", self.name),
            &payload,
        ) {
            Ok(path) => println!("\n[bench results written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write bench results: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_statistics() {
        let mut suite = BenchSuite::with_config("test", BenchConfig { warmup: 1, iters: 9 });
        let mut acc = 0u64;
        suite.bench("spin", || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
        });
        let r = &suite.results()[0];
        assert_eq!(r.iters, 9);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.p95_ns <= r.max_ns);
        assert!(r.min_ns > 0.0);
    }

    #[test]
    fn result_serialises_with_all_fields() {
        let r = BenchResult {
            name: "x".into(),
            iters: 3,
            median_ns: 10.0,
            p95_ns: 20.0,
            mean_ns: 12.0,
            min_ns: 8.0,
            max_ns: 21.0,
        };
        let text = r.to_json().to_string_pretty();
        for key in ["name", "iters", "median_ns", "p95_ns", "mean_ns", "min_ns", "max_ns"] {
            assert!(text.contains(key), "missing {key}: {text}");
        }
    }

    #[test]
    fn artifact_stamps_threads_beside_available_cores() {
        let suite = BenchSuite::with_config("stamp", BenchConfig { warmup: 0, iters: 1 });
        let text = suite.artifact().to_string_pretty();
        let json = Json::parse(&text).expect("the artifact is valid JSON");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(json.get("available_parallelism").and_then(Json::as_f64), Some(cores as f64));
        assert!(json.get("threads").and_then(Json::as_f64).is_some_and(|t| t >= 1.0), "{text}");
        let kernels = json.get("kernels").and_then(Json::as_str);
        assert_eq!(kernels, Some(kgag_tensor::infer::isa()), "{text}");
    }

    #[test]
    fn git_sha_resolves_inside_this_repo() {
        // the workspace is a git repository, so a 40-hex sha must come back
        let sha = git_sha().expect("workspace should be a git repo");
        assert!(sha.len() >= 7, "suspicious sha: {sha}");
        assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "non-hex sha: {sha}");
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.2e9), "3.200 s");
    }
}

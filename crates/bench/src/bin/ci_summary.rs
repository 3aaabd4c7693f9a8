//! Machine-readable CI run summary: turn the stage log ci.sh keeps
//! while it runs into `results/ci_summary.json`.
//!
//! ```text
//! ci_summary --stages PATH [--out PATH]
//! ```
//!
//! * `--stages` — the runner's stage log, one `name status seconds`
//!   record per line (status is `pass`, `fail` or `skip`); the file is
//!   written incrementally by ci.sh as each stage finishes, so an
//!   aborted run still summarises everything that completed;
//! * `--out` — output path (default `results/ci_summary.json`).
//!
//! The artifact stamps the git commit and totals so dashboards and PR
//! diffs can read one file instead of scraping the runner's stdout. It
//! describes the *most recent* run only — ci.sh rewrites it every time.

use kgag_testkit::json::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    stages: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut stages = None;
    let mut out = PathBuf::from("results/ci_summary.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stages" => stages = Some(PathBuf::from(it.next().ok_or("--stages needs a path")?)),
            "--out" => out = it.next().ok_or("--out needs a path")?.into(),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args { stages: stages.ok_or("--stages is required")?, out })
}

struct Stage {
    name: String,
    status: String,
    seconds: f64,
}

fn parse_stage_log(path: &Path) -> Result<Vec<Stage>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read stage log {}: {e}", path.display()))?;
    let mut stages = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(status), Some(secs)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("{}:{}: expected `name status seconds`", path.display(), ln + 1));
        };
        if !matches!(status, "pass" | "fail" | "skip") {
            return Err(format!("{}:{}: unknown status {status:?}", path.display(), ln + 1));
        }
        let seconds: f64 = secs
            .parse()
            .map_err(|_| format!("{}:{}: non-numeric seconds {secs:?}", path.display(), ln + 1))?;
        stages.push(Stage { name: name.to_owned(), status: status.to_owned(), seconds });
    }
    if stages.is_empty() {
        return Err(format!("{}: stage log is empty", path.display()));
    }
    Ok(stages)
}

/// The summary of one run: its stages and totals, stamped with the git
/// commit and, as every bench artifact is, the pool's thread count, the
/// cores the host offered and the compilation the packed kernels ran in
/// (`kernels`), so a CI record names what its oracles pinned.
fn summary(stages: &[Stage]) -> Json {
    let total: f64 = stages.iter().map(|s| s.seconds).sum();
    let failed = stages.iter().filter(|s| s.status == "fail").count();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Json::obj(vec![
        ("git_sha", kgag_testkit::bench::git_sha().map(Json::Str).unwrap_or(Json::Null)),
        ("threads", kgag_tensor::pool::num_threads().to_json()),
        ("available_parallelism", cores.to_json()),
        ("kernels", Json::Str(kgag_tensor::infer::isa().into())),
        ("passed", Json::Bool(failed == 0)),
        ("stages_run", stages.iter().filter(|s| s.status != "skip").count().to_json()),
        ("stages_failed", failed.to_json()),
        ("total_seconds", Json::Float(total)),
        (
            "stages",
            Json::Arr(
                stages
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", s.name.to_json()),
                            ("status", s.status.to_json()),
                            ("seconds", Json::Float(s.seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let stages = parse_stage_log(&args.stages)?;
    let total: f64 = stages.iter().map(|s| s.seconds).sum();
    let failed = stages.iter().filter(|s| s.status == "fail").count();
    let payload = summary(&stages);
    let dir = args.out.parent().unwrap_or(Path::new("."));
    let stem = args
        .out
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("bad output path {}", args.out.display()))?;
    let written = kgag_testkit::json::write_json_file(dir, stem, &payload)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!(
        "ci_summary: {} stage(s), {} failed, {:.0}s total -> {}",
        stages.len(),
        failed,
        total,
        written.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ci_summary: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_stages_and_stamps_the_host() {
        let dir = std::env::temp_dir().join(format!("ci_summary_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("stages.log");
        std::fs::write(&log, "fmt pass 1.5\ntest fail 60\nbench skip 0\n").unwrap();
        let stages = parse_stage_log(&log).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let text = summary(&stages).to_string_pretty();
        let json = Json::parse(&text).expect("the summary is valid JSON");
        assert_eq!(json.get("passed"), Some(&Json::Bool(false)), "{text}");
        assert_eq!(json.get("stages_run").and_then(Json::as_f64), Some(2.0), "{text}");
        assert_eq!(json.get("stages_failed").and_then(Json::as_f64), Some(1.0), "{text}");
        assert_eq!(json.get("total_seconds").and_then(Json::as_f64), Some(61.5), "{text}");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(json.get("available_parallelism").and_then(Json::as_f64), Some(cores as f64));
        assert!(json.get("threads").and_then(Json::as_f64).is_some_and(|t| t >= 1.0), "{text}");
        let kernels = json.get("kernels").and_then(Json::as_str);
        assert_eq!(kernels, Some(kgag_tensor::infer::isa()), "{text}");
    }
}

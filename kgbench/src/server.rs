//! The `kgag` binary under test: built from the checkout's source,
//! launched as `kgag serve`, read back through its ready line, its
//! stderr log and `/proc`, and always stopped — on error paths by
//! `Drop`.

use kgag_testkit::json::Json;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a clean shutdown may take before the server counts as hung.
const STOP_GRACE: Duration = Duration::from_secs(60);

/// The checkout this benchmark package sits in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Build the release `kgag` binary from the checkout's source and return
/// the executable cargo reports.
pub fn build_kgag() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .args(["build", "--release", "--offline", "--quiet", "--bin", "kgag"])
        .arg("--message-format=json")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building kgag failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target").and_then(|t| t.get("name")).and_then(Json::as_str) == Some("kgag")
        })
        .find_map(|m| m.get("executable").and_then(Json::as_str).map(PathBuf::from))
        .ok_or_else(|| "cargo reported no kgag executable".to_owned())
}

/// A running `kgag serve`.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so a late write to stdout cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    log: PathBuf,
    pub addr: SocketAddr,
    /// Seconds from launch until the `serving on` line.
    pub ready_s: f64,
}

impl Server {
    /// Launch `kgag <args>` and wait for its `serving on` line. The
    /// benchmark's own environment carries no `KGAG_*` variable (main
    /// scrubs them), so the server sees only `KGAG_THREADS=1` and, when
    /// `telemetry` is given, the JSONL sink at that path.
    pub fn launch(
        bin: &Path,
        args: &[String],
        log: &Path,
        telemetry: Option<&Path>,
    ) -> Result<Server, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .env("KGAG_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if let Some(path) = telemetry {
            cmd.env("KGAG_TELEMETRY", "1").env("KGAG_TELEMETRY_PATH", path);
        }
        let start = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("cannot launch {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready_s = start.elapsed().as_secs_f64();
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("serving on "))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let log = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("kgag {} never reported `serving on`:\n{log}", args.join(" ")));
        };
        Ok(Server { child, stdin, _stdout: stdout, log: log.to_owned(), addr, ready_s })
    }

    /// The server's peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Close stdin — the server's shutdown signal — wait for a clean
    /// exit, and return its stderr log.
    pub fn stop(mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + STOP_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("kgag serve did not stop within {STOP_GRACE:?}")),
                Err(e) => return Err(format!("waiting for kgag serve: {e}")),
            }
        };
        let log = std::fs::read_to_string(&self.log)
            .map_err(|e| format!("{}: {e}", self.log.display()))?;
        if !status.success() {
            return Err(format!("kgag serve exited with {status}:\n{log}"));
        }
        Ok(log)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the server logged about its configuration. A line a future
/// build no longer prints stays `None`; a line naming a non-default
/// setting makes [`Startup::parse`] refuse, because the numbers would
/// not measure the default server.
#[derive(Debug, Default)]
pub struct Startup {
    pub tier: Option<String>,
    pub rf_cache_kib: Option<f64>,
    pub batching: Option<String>,
    pub groups_live: Option<u64>,
    pub drained: Option<String>,
}

const DEFAULT_TIER: &str = "f64 exact";
const DEFAULT_BATCHING: &str = "batch window 200µs, max batch 64, queue 4096, workers 1";

impl Startup {
    pub fn parse(log: &str) -> Result<Startup, String> {
        let mut s = Startup::default();
        for line in log.lines() {
            if let Some(tier) = line.strip_prefix("scoring tier: ") {
                s.tier = Some(tier.trim().to_owned());
            } else if let Some(kib) = line.strip_prefix("receptive-field cache resident: ") {
                s.rf_cache_kib = kib.trim().trim_end_matches("KiB").trim().parse().ok();
            } else if line.starts_with("receptive-field cache disabled") {
                return Err("the server runs without its receptive-field cache".to_owned());
            } else if line.starts_with("batch window ") {
                s.batching = line.split(" — ").next().map(str::to_owned);
            } else if let Some(n) = line.strip_prefix("lifecycle enabled: ") {
                s.groups_live = n.split_whitespace().next().and_then(|n| n.parse().ok());
            } else if line.starts_with("drained: ") {
                s.drained = Some(line.to_owned());
            }
        }
        if let Some(tier) = s.tier.as_deref().filter(|&t| t != DEFAULT_TIER) {
            return Err(format!("the server scores on tier {tier:?}, not {DEFAULT_TIER:?}"));
        }
        if let Some(b) = s.batching.as_deref().filter(|&b| b != DEFAULT_BATCHING) {
            return Err(format!("the server batches with {b:?}, not {DEFAULT_BATCHING:?}"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "restored 10 tensors from model.kgcp
receptive-field cache resident: 416.0 KiB
scoring tier: f64 exact
lifecycle enabled: 1383 groups live
batch window 200µs, max batch 64, queue 4096, workers 1 — close stdin or type \"quit\" to stop
drained: 9 responses in 5 batches (mean fuse 1.80 requests), 0 rejected, 0 missed deadlines
";

    #[test]
    fn parses_the_default_startup_lines() {
        let s = Startup::parse(LOG).unwrap();
        assert_eq!(s.tier.as_deref(), Some("f64 exact"));
        assert_eq!(s.rf_cache_kib, Some(416.0));
        assert_eq!(s.batching.as_deref(), Some(DEFAULT_BATCHING));
        assert_eq!(s.groups_live, Some(1383));
        assert!(s.drained.unwrap().contains("9 responses"));
        let quiet = Startup::parse("restored 10 tensors\n").unwrap();
        assert!(quiet.tier.is_none() && quiet.batching.is_none(), "absent lines are tolerated");
    }

    #[test]
    fn refuses_non_default_settings() {
        let f32_tier = LOG.replace("f64 exact", "f32 fused (12.0 KiB inference tables)");
        assert!(Startup::parse(&f32_tier).is_err());
        let no_cache = LOG
            .replace("receptive-field cache resident: 416.0 KiB", "receptive-field cache disabled");
        assert!(Startup::parse(&no_cache).is_err());
        let window = LOG.replace("200µs", "0ns");
        assert!(Startup::parse(&window).is_err());
    }
}

//! # kgag-obs
//!
//! Std-only observability for the KGAG workspace: hierarchical timing
//! [`span`]s, [`counter`]/[`gauge`]/[`histogram`] metrics behind a
//! process-wide registry, and a JSONL event sink. The design contract
//! (DESIGN.md §10):
//!
//! * **Passive.** Telemetry reads clocks and writes a file; it never
//!   touches an RNG, a parameter or a score. Model outputs are
//!   bit-identical with telemetry on or off — enforced end to end by
//!   `crates/core/tests/determinism.rs`, which also schema-checks the
//!   emitted stream.
//! * **Near-zero cost when disabled.** Every entry point starts with
//!   [`enabled`] — two relaxed atomic loads — and returns immediately
//!   when telemetry is off. No allocation, no lock, no clock read.
//! * **Self-describing output.** One JSON object per line, a closed set
//!   of `ev` kinds (`meta`, `span`, `point`, `counter`, `gauge`,
//!   `hist`), parseable by `kgag_testkit::json::Json::parse` — which is
//!   exactly how CI validates emitted streams.
//!
//! Activation: set `KGAG_TELEMETRY=1` (path from `KGAG_TELEMETRY_PATH`,
//! default `telemetry.jsonl`), or call [`enable_to`]/[`disable`]
//! programmatically (what the determinism tests do to compare on/off in
//! one process). Metric totals accumulate for the life of the process
//! and are appended to the sink by [`flush`] (also called by
//! [`disable`]).

pub mod event;
pub mod registry;
pub mod span;

pub use event::{Event, Value};
pub use registry::{counter, gauge, histogram, Counter, Gauge, Histogram, HistogramSnapshot};
pub use span::{span, Span};

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

static INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

struct Sink {
    out: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
}

/// Nanoseconds since the process's telemetry clock epoch (first use).
/// Only meaningful relative to other `clock_ns` readings in the same
/// process — it orders span starts, nothing more.
pub fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Is telemetry on? The first call resolves `KGAG_TELEMETRY` /
/// `KGAG_TELEMETRY_PATH` from the environment; after that this is two
/// relaxed atomic loads — cheap enough for the pool's per-scope checks.
pub fn enabled() -> bool {
    INIT.call_once(init_from_env);
    ENABLED.load(Ordering::Relaxed)
}

fn init_from_env() {
    let on = std::env::var("KGAG_TELEMETRY")
        .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on" | "jsonl"))
        .unwrap_or(false);
    if !on {
        return;
    }
    let path = std::env::var("KGAG_TELEMETRY_PATH").unwrap_or_else(|_| "telemetry.jsonl".into());
    if let Err(e) = install_sink(path.as_ref()) {
        eprintln!("[kgag-obs] cannot open KGAG_TELEMETRY_PATH {path}: {e} — telemetry disabled");
    }
}

/// Enable telemetry programmatically, truncating/creating the JSONL file
/// at `path`. Claims environment initialisation, so a later [`enabled`]
/// never overrides the explicit choice. Used by tests to compare on/off
/// inside one process.
pub fn enable_to(path: &std::path::Path) -> std::io::Result<()> {
    INIT.call_once(|| {});
    install_sink(path)
}

fn install_sink(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    // the meta line is written directly rather than through `emit`:
    // env-var activation runs inside `INIT.call_once`, and `emit` calls
    // `enabled()` — a re-entrant `call_once` deadlocks
    let meta = Event::new("meta", "session")
        .str("version", env!("CARGO_PKG_VERSION"))
        .u64("pid", std::process::id() as u64)
        .u64("start_ns", clock_ns())
        .to_jsonl();
    let mut sink = SINK.lock().unwrap();
    let mut out = std::io::BufWriter::new(file);
    let _ = writeln!(out, "{meta}");
    let _ = out.flush();
    *sink = Some(Sink { out, path: path.to_path_buf() });
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Append one event to the sink (no-op when telemetry is off). Each
/// line is flushed through to the file immediately, so the stream is
/// valid JSONL even if the process aborts mid-run.
pub fn emit(event: &Event) {
    if !enabled() {
        return;
    }
    let line = event.to_jsonl();
    let mut sink = SINK.lock().unwrap();
    if let Some(s) = sink.as_mut() {
        // an unwritable sink (disk full, path removed) must never take
        // the training run down with it
        let _ = writeln!(s.out, "{line}");
        let _ = s.out.flush();
    }
}

/// Append a snapshot of every registered metric (cumulative totals) to
/// the sink. Idempotent; call at natural boundaries (end of training,
/// end of an evaluation pass).
pub fn flush() {
    if !enabled() {
        return;
    }
    for event in registry::snapshot() {
        emit(&event);
    }
}

/// Flush a final metric snapshot, close the sink and turn telemetry
/// off. Returns the path of the closed JSONL file, if any.
pub fn disable() -> Option<std::path::PathBuf> {
    if !enabled() {
        return None;
    }
    flush();
    let mut sink = SINK.lock().unwrap();
    ENABLED.store(false, Ordering::Relaxed);
    sink.take().map(|s| s.path)
}

/// Serialises tests that flip the process-wide telemetry state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: enable → spans/metrics/points → disable, then check
    /// the stream is valid JSONL (the dev-dependency on the testkit
    /// parser is the same validation CI runs).
    #[test]
    fn emitted_stream_is_valid_jsonl() {
        use kgag_testkit::json::Json;
        let _guard = crate::test_guard();
        let path = std::env::temp_dir().join(format!("kgag-obs-test-{}.jsonl", std::process::id()));
        enable_to(&path).expect("enable telemetry");
        {
            let _fit = span("test.outer");
            let _epoch = span("test.inner");
            counter("test.events").add(2);
            gauge("test.loss").set(0.25);
            histogram("test.ns").record(1234);
            emit(&Event::new("point", "test.point").u64("epoch", 1).f64("loss", 0.5));
        }
        let closed = disable().expect("sink path");
        assert_eq!(closed, path);
        assert!(!enabled(), "disable must turn telemetry off");

        let text = std::fs::read_to_string(&path).unwrap();
        let mut kinds = std::collections::HashSet::new();
        for (i, line) in text.lines().enumerate() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}\n{line}"));
            let ev = v.get("ev").and_then(Json::as_str).expect("every event has ev");
            assert!(
                ["meta", "span", "point", "counter", "gauge", "hist"].contains(&ev),
                "unknown ev kind {ev}"
            );
            assert!(v.get("name").and_then(Json::as_str).is_some(), "line {i} missing name");
            kinds.insert(ev.to_owned());
        }
        for expected in ["meta", "span", "point", "counter", "gauge", "hist"] {
            assert!(kinds.contains(expected), "no {expected} event in stream");
        }
        // nested span carries the hierarchical path
        let inner =
            text.lines().find(|l| l.contains("\"test.inner\"")).expect("inner span event present");
        let v = Json::parse(inner).unwrap();
        assert_eq!(v.get("path").and_then(Json::as_str), Some("test.outer/test.inner"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_emit_and_flush_are_noops() {
        let _guard = crate::test_guard();
        if enabled() {
            return; // suite running with KGAG_TELEMETRY=1
        }
        emit(&Event::new("point", "ignored"));
        flush();
        assert!(disable().is_none());
    }
}

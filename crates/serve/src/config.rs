//! Serving knobs and their environment bindings.

use std::time::Duration;

/// Tuning for the micro-batcher and its queue. All knobs trade latency
/// against batch size; the defaults favour fusion on loopback-scale
/// round trips.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The longest a worker holds the *first* request of a batch open
    /// for more arrivals before scoring: an upper bound, since the
    /// window closes as soon as no registered submitter could still
    /// send a request. Zero scores immediately (no fusion beyond what
    /// is already queued).
    pub batch_window: Duration,
    /// Hard cap on requests fused into one `score_batch` call.
    pub max_batch: usize,
    /// Bounded queue depth; submissions beyond it are rejected
    /// immediately (explicit backpressure, never unbounded memory).
    pub queue_capacity: usize,
    /// Batcher worker threads. One is usually right — the scorer
    /// parallelises internally via the pool — but more overlap queue
    /// drain with scoring on large models.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: Duration::from_micros(200),
            max_batch: 64,
            queue_capacity: 4096,
            workers: 1,
        }
    }
}

impl ServeConfig {
    /// Read the config from the environment, falling back to defaults:
    /// `KGAG_SERVE_BATCH_WINDOW_US`, `KGAG_SERVE_MAX_BATCH`,
    /// `KGAG_SERVE_QUEUE`, `KGAG_SERVE_WORKERS`. Unparseable values are
    /// ignored (defaults win); counts are clamped to at least 1.
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        ServeConfig {
            batch_window: Duration::from_micros(parse_or(
                std::env::var("KGAG_SERVE_BATCH_WINDOW_US").ok().as_deref(),
                d.batch_window.as_micros() as u64,
                0,
            )),
            max_batch: parse_or(
                std::env::var("KGAG_SERVE_MAX_BATCH").ok().as_deref(),
                d.max_batch as u64,
                1,
            ) as usize,
            queue_capacity: parse_or(
                std::env::var("KGAG_SERVE_QUEUE").ok().as_deref(),
                d.queue_capacity as u64,
                1,
            ) as usize,
            workers: parse_or(
                std::env::var("KGAG_SERVE_WORKERS").ok().as_deref(),
                d.workers as u64,
                1,
            ) as usize,
        }
    }
}

/// `val` parsed as `u64`, clamped to `min`; `default` when absent or
/// unparseable. Factored out of [`ServeConfig::from_env`] (and shared
/// with [`crate::ShardConfig`]) so parsing is testable without touching
/// process-global environment state.
pub(crate) fn parse_or(val: Option<&str>, default: u64, min: u64) -> u64 {
    val.and_then(|v| v.trim().parse::<u64>().ok()).map(|v| v.max(min)).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_or_accepts_valid_and_falls_back() {
        assert_eq!(parse_or(Some("250"), 200, 0), 250);
        assert_eq!(parse_or(Some(" 8 "), 64, 1), 8);
        assert_eq!(parse_or(None, 64, 1), 64);
        assert_eq!(parse_or(Some("not-a-number"), 64, 1), 64);
        assert_eq!(parse_or(Some("-3"), 64, 1), 64);
    }

    #[test]
    fn parse_or_clamps_to_min() {
        assert_eq!(parse_or(Some("0"), 64, 1), 1);
        assert_eq!(parse_or(Some("0"), 200, 0), 0);
    }

    #[test]
    fn defaults_are_sane() {
        let d = ServeConfig::default();
        assert!(d.max_batch >= 1 && d.queue_capacity >= 1 && d.workers >= 1);
        assert!(d.batch_window < Duration::from_millis(10), "window is a micro-latency budget");
    }
}

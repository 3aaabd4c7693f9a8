//! Reader for the kgag-obs JSONL sink (`KGAG_TELEMETRY=1`), source (a)
//! of the traced run. Metric records are cumulative process totals, so
//! the last record of a name wins; span records fold into a count and
//! a total duration. A histogram's `p50`/`p99` fields are log2 bucket
//! edges, not latencies, so only its `count` and `sum` are read.

use kgag_testkit::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Telemetry {
    counters: BTreeMap<String, f64>,
    /// `(count, sum)` per histogram.
    hists: BTreeMap<String, (f64, f64)>,
    /// `(count, total dur_ns)` per span name.
    spans: BTreeMap<String, (f64, f64)>,
}

impl Telemetry {
    pub fn parse(text: &str) -> Result<Telemetry, String> {
        let mut t = Telemetry::default();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let v = Json::parse(line).map_err(|e| format!("telemetry line {}: {e}", i + 1))?;
            let field = |key: &str| {
                v.get(key).ok_or_else(|| format!("telemetry line {}: no {key:?}", i + 1))
            };
            let num = |key: &str| {
                field(key)?
                    .as_f64()
                    .ok_or_else(|| format!("telemetry line {}: {key:?} is not a number", i + 1))
            };
            let name = field("name")?
                .as_str()
                .ok_or_else(|| format!("telemetry line {}: name is not a string", i + 1))?
                .to_owned();
            match field("ev")?.as_str() {
                Some("counter") => {
                    t.counters.insert(name, num("value")?);
                }
                Some("hist") => {
                    t.hists.insert(name, (num("count")?, num("sum")?));
                }
                Some("span") => {
                    let dur = num("dur_ns")?;
                    let span = t.spans.entry(name).or_default();
                    span.0 += 1.0;
                    span.1 += dur;
                }
                _ => {}
            }
        }
        Ok(t)
    }

    /// A counter's final total (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of a histogram's observations (0 when never recorded).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1)
    }

    /// Exact mean of a histogram's observations, from `sum / count`.
    pub fn hist_mean(&self, name: &str) -> f64 {
        mean(self.hists.get(name))
    }

    /// Mean duration of a span, in ns.
    pub fn span_mean_ns(&self, name: &str) -> f64 {
        mean(self.spans.get(name))
    }
}

fn mean(count_sum: Option<&(f64, f64)>) -> f64 {
    match count_sum {
        Some(&(count, sum)) if count > 0.0 => sum / count,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = r#"{"ev":"meta","name":"session","version":"0.1.0","pid":7,"start_ns":0}
{"ev":"span","name":"trainer.epoch","path":"trainer.fit/trainer.epoch","start_ns":5,"dur_ns":100,"thread":"main"}
{"ev":"span","name":"trainer.epoch","path":"trainer.fit/trainer.epoch","start_ns":9,"dur_ns":300,"thread":"main"}
{"ev":"counter","name":"serve.batches","value":3}
{"ev":"hist","name":"serve.latency_ns","count":4,"sum":1000,"min":1,"max":900,"p50":255,"p90":1023,"p99":1023}

{"ev":"gauge","name":"serve.queue_depth","value":0.0}
{"ev":"counter","name":"serve.batches","value":7}
"#;

    #[test]
    fn reads_means_from_sums_and_counts() {
        let t = Telemetry::parse(STREAM).unwrap();
        assert_eq!(t.span_mean_ns("trainer.epoch"), 200.0);
        assert_eq!(t.counter("serve.batches"), 7.0, "the last cumulative total wins");
        assert_eq!(t.hist_mean("serve.latency_ns"), 250.0, "mean, not a bucket edge");
        assert_eq!(t.hist_sum("serve.latency_ns"), 1000.0);
        assert_eq!(t.counter("never.recorded"), 0.0);
        assert_eq!(t.hist_mean("never.recorded"), 0.0);
        assert_eq!(t.span_mean_ns("never.recorded"), 0.0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Telemetry::parse("{\"ev\":\"counter\",\"name\":\"x\"}").is_err());
        assert!(Telemetry::parse("{\"ev\":\"counter\",\"name\":\"x\",\"value\":\"7\"}").is_err());
        assert!(Telemetry::parse("not json").is_err());
        assert!(Telemetry::parse("{\"name\":\"x\"}").is_err());
    }
}

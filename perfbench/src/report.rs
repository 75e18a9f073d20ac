//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step. An untraced run reports every end-to-end
//! metric, a traced run every per-layer metric.

use rtft_obs::json::JsonObject;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one;
/// `layer_map.json` gives the definition per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flush_p50_ms", "ms"),
    ("flush_p99_ms", "ms"),
    ("tokens_per_s", "tokens/s"),
    ("scenarios_per_s", "scenarios/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.send_ms.p50", "ms"),
    ("serve.send_ms.p99", "ms"),
    ("serve.flush_call_ms.p50", "ms"),
    ("serve.flush_call_ms.p99", "ms"),
    ("serve.unattributed_ms.p50", "ms"),
    ("serve.frames_out_per_flush", "count"),
    ("serve.bytes_in_per_flush", "bytes"),
    ("serve.wire.decode_mb_per_s", "MB/s"),
    ("wal.append_ms.p50", "ms"),
    ("wal.append_ms.p99", "ms"),
    ("wal.appends_per_fsync", "ratio"),
    ("wal.read_mb_per_s", "MB/s"),
    ("tenant.admit_ns.p50", "ns"),
    ("tenant.rejected", "count"),
    ("fleet.completion_ms.p50", "ms"),
    ("fleet.completion_ms.p99", "ms"),
    ("fleet.run_ms.mean", "ms"),
    ("fleet.jobs_failed", "count"),
    ("kpn.engine.events_per_s", "events/s"),
    ("kpn.digest_mb_per_s", "MB/s"),
    ("kpn.pool.hit_rate", "ratio"),
    ("core.sizing_us", "us"),
    ("chaos.scenario_ms.adpcm.p50", "ms"),
    ("chaos.scenario_ms.mjpeg.p50", "ms"),
    ("chaos.scenario_ms.h264.p50", "ms"),
    ("chaos.scenario_ms.duplicated.p50", "ms"),
    ("chaos.scenario_ms.voting.p50", "ms"),
    ("chaos.scenario_ms.hetero.p50", "ms"),
    ("chaos.scenario_ms.p99", "ms"),
    ("chaos.worker_busy_ratio", "ratio"),
    ("chaos.tokens_per_s", "tokens/s"),
    ("trace.root_self_ms.p50", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: flush attempts, or scenarios run.
    pub attempted: u64,
    /// Attempts refused (`Busy`) or errored, plus scenarios that broke
    /// an invariant.
    pub failed: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn violation(&mut self, v: impl Into<String>) {
        self.violations.push(v.into());
    }

    pub fn line(&mut self, l: impl Into<String>) {
        self.lines.push(l.into());
    }

    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.end_to_end.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, v);
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    /// A value that is not finite reads 0, so the line stays valid JSON
    /// with a number for every metric.
    pub fn result_json(&self, traced: bool) -> String {
        let (catalogue, values) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics = catalogue.iter().fold(JsonObject::new(), |m, (name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            let metric = JsonObject::new()
                .f64_field("value", v.unwrap_or(0.0))
                .str_field("unit", unit);
            m.raw_field(name, &metric.finish())
        });
        JsonObject::new()
            .bool_field("correct", self.correct())
            .u64_field("attempted", self.attempted.max(1))
            .u64_field("failed", self.failed)
            .raw_field("metrics", &metrics.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// names and units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = crate::util::bench_dir().join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut o = Outcome::default();
        o.e2e("setup_s", 0.5);
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = o.result_json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        o.violation("x");
        assert!(o.result_json(false).starts_with("{\"correct\":false"));
    }
}

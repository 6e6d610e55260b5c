//! Metric collection and output: one human-readable line per metric
//! (name, value, unit, sample count), then the one-line JSON result.

use std::fmt::Write as _;

/// Metrics the untraced run reports in its JSON line, on every
/// workload (`end_to_end` in `BENCHMARK.json`).
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_us",
    "query_p99_us",
    "qps",
    "page_reads_per_query",
    "space_ratio",
    "rss_mb",
];

/// Metrics the traced run reports in its JSON line, on every workload
/// (`per_layer` in `BENCHMARK.json`). Layer metrics that only the wire
/// workloads can measure are printed but left out of the JSON line.
pub const PER_LAYER: [&str; 17] = [
    "xml.parse_s",
    "core.build_s",
    "core.persist_s",
    "core.open_s",
    "core.compile_us",
    "core.execute_us",
    "core.step.probe_us",
    "core.step.join_us",
    "core.step.inlj_us",
    "core.step.materialize_us",
    "core.rows_per_result",
    "opt.rank_us",
    "opt.pick_regret",
    "btree.probes_per_query",
    "storage.miss_rate",
    "storage.physical_reads_per_query",
    "obs.trace_overhead",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run measured, plus its operation counts.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that matched neither the oracle nor a documented defect.
    pub unexpected_wrong: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable block: every metric with its unit and sample
    /// count, then the notes.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let mode = if traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {workload} ({mode}) ==");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<36} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note   {n}");
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, and the
    /// named metrics (every one must have been measured).
    pub fn json_line(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for name in names {
            let m = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            metrics.push(format!(
                "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.unexpected_wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` are one contract.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
    }

    #[test]
    fn json_line_requires_every_metric() {
        let mut r = Report { attempted: 1, ..Report::default() };
        r.add("qps", 12.5, "1/s", 10);
        assert!(r.json_line(&["qps", "rss_mb"]).is_err());
        let line = r.json_line(&["qps"]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}

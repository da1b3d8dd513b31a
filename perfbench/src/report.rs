//! The benchmark's result: metrics with their per-pass values, the
//! output-check tally, and the provenance every number carries.

use std::fmt::Write as _;

use crate::stats;

/// One reported number with the values it was aggregated from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra report sections as `(key, raw JSON)`.
    pub sections: Vec<(String, String)>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// A metric reported as the median of its samples.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        let value = stats::median(&samples);
        self.metric(name, unit, value, samples);
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn ok_share(&self) -> f64 {
        let attempted = self.attempted.max(1) as f64;
        (attempted - self.failures.len() as f64) / attempted
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The full report: provenance, every metric with its samples, the
    /// failures and any extra sections.
    pub fn full_json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{},\"trace\":{trace},\
             \"host_cores\":{},\"git_revision\":\"{}\",\"source_digest\":\"{}\",\"ok_share\":{},",
            json_num(seconds),
            crate::cpu::allowed().len(),
            stats::git_revision(),
            stats::source_digest(&["crates", "perfbench/src"]),
            json_num(self.ok_share()),
        );
        s.push_str("\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let samples: Vec<String> = m.samples.iter().map(|v| json_num(*v)).collect();
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"samples\":[{}]}}",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples.len(),
                samples.join(",")
            );
        }
        s.push_str("},\"failures\":[");
        let fails: Vec<String> = self
            .failures
            .iter()
            .map(|f| aq_serve::Json::str(f.as_str()).render())
            .collect();
        s.push_str(&fails.join(","));
        s.push(']');
        for (k, v) in &self.sections {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// A number in shortest round-trip form; a non-finite value (only a
/// broken run produces one) renders as the largest finite double.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

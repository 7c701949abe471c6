//! A run's result: the metrics the last output line carries, plus the
//! record of how they were measured.

use crate::util::{num, quote};

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts for the record line, as raw JSON values.
    pub info: Vec<(String, String)>,
    pub attempted: usize,
    pub failed: usize,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info(key, num(value));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info(key, quote(value));
    }

    /// `{"name":{"value":…,"unit":…},…}`.
    fn metrics_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!("{{{}}}", metrics.join(","))
    }

    /// The record line: every fact and metric as one JSON object.
    pub fn record_json(&self) -> String {
        let mut parts: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        parts.push(format!("\"metrics\":{}", self.metrics_json()));
        format!("{{{}}}", parts.join(","))
    }

    /// The result line.
    pub fn result_json(&self, correct: bool) -> String {
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

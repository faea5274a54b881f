//! What one benchmark run reports: named metrics with units, the
//! attempted/failed tally behind `failed_frac`, failed-check messages,
//! and free-form notes for the human-readable part of the output.

use crate::stats::valid_metric_name;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Metrics printed for the reader but left out of the result line:
    /// counts that are 0 on a healthy run, and the epoch p99, which the
    /// host's noise moves too much to bound (see `README.md`).
    pub extra: Vec<Metric>,
    /// Packets offered plus correctness checks made.
    pub attempted: u64,
    /// Packets offered but not ingested plus correctness checks failed.
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.extra.push(Metric { name, value, unit });
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records packets offered to the program and how many it ingested.
    pub fn packets(&mut self, offered: u64, ingested: u64) {
        self.attempted += offered;
        if ingested < offered {
            self.failed += offered - ingested;
            self.failures.push(format!(
                "{} of {offered} packets not ingested",
                offered - ingested
            ));
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints (non-finite
/// values, which JSON cannot hold, become `null`).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.metric("throughput_pps", 1234.5, "pkt/s");
        r.packets(10, 10);
        r.check(true, || String::from("unused"));
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"throughput_pps\": {\"value\": 1234.5, \"unit\": \"pkt/s\"}}}"
        );
        r.check(false, || String::from("alerts differ"));
        r.packets(4, 3);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (16, 2));
        assert!((r.failed_frac() - 2.0 / 16.0).abs() < 1e-12);
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.0), "2.0");
    }
}

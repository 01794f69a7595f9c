//! The metric set one run prints, and the result line.

use crate::stats::valid_metric_name;

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// The JSON object of the metrics: `{"name": {"value": v, "unit": u}}`,
    /// values with every digit Rust's shortest round-trip form gives.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.set("p99_ms.high", 1.5, "ms");
        m.set("setup_s", 0.9, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}, \"p99_ms.high\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(m.non_finite().is_empty());
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn bad_names_are_rejected() {
        Metrics::default().set("no spaces", 1.0, "s");
    }
}

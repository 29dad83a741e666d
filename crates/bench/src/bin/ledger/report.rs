//! One workload's results: metric values by name, failed checks, and the
//! two output formats (one text line per metric; the driver's JSON line).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::{Workload, END_TO_END, PER_LAYER};

pub struct Report {
    pub workload: Workload,
    values: BTreeMap<&'static str, f64>,
    /// Printed beside the metrics: sample counts and the like.
    info: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
}

impl Report {
    pub fn new(workload: Workload) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
            info: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric of either table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is in neither metric table");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed output check; any one makes the run incorrect.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fails the run for every gated end-to-end metric that was not
    /// measured: the driver wants each of them from every run.
    pub fn require_gated(&mut self) {
        for m in END_TO_END.iter().filter(|m| m.gated) {
            if self.get(m.name).is_none() {
                self.fail(format!("{} was not measured", m.name));
            }
        }
    }

    /// `workload metric value unit`, one line per metric that exists on
    /// this workload — the end-to-end ones, or for a traced run the
    /// per-layer ones — then notes and failed checks.
    pub fn text(&self, traced: bool) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        let table: Vec<(&str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in table {
            if let Some(v) = self.get(name) {
                let _ = writeln!(out, "{w} {name} {v:.6} {unit}");
            }
        }
        for (name, value, unit) in &self.info {
            let _ = writeln!(out, "{w} {name} {value:.6} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {w}: {note}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "# {w}: CHECK FAILED: {failure}");
        }
        out
    }

    /// The driver's result line. Untraced: every gated end-to-end
    /// metric. Traced: every per-layer metric and the ungated end-to-end
    /// ones, 0 where one does not exist on this workload.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics: Vec<(&str, &str)> = END_TO_END
            .iter()
            .filter(|m| m.gated != traced)
            .map(|m| (m.name, m.unit))
            .collect();
        if traced {
            metrics.extend(PER_LAYER);
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_exactly_the_contracted_metrics() {
        let mut r = Report::new(Workload::TopkCold);
        r.set("qps", 1234.5678);
        r.set("trace.coverage", 0.98);
        r.attempted = 10;
        let untraced = r.json(false);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(untraced.contains("\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(!untraced.contains("trace.coverage") && !untraced.contains("fail_ratio"));
        let gated = END_TO_END.iter().filter(|m| m.gated).count();
        assert_eq!(untraced.matches("\"value\"").count(), gated);

        r.fail("parity".to_owned());
        let traced = r.json(true);
        assert!(traced.starts_with("{\"correct\": false"));
        assert!(traced.contains("\"trace.coverage\": {\"value\": 0.98, \"unit\": \"ratio\"}"));
        assert!(traced.contains("\"write_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(
            traced.matches("\"value\"").count(),
            PER_LAYER.len() + END_TO_END.len() - gated
        );
    }

    #[test]
    fn text_prints_workload_metric_value_unit() {
        let mut r = Report::new(Workload::AggMix);
        r.set("p50_ms", 1.25);
        r.set("load.drift", 1.0);
        r.info("read_samples", 100.0, "count");
        assert_eq!(
            r.text(false),
            "agg_mix p50_ms 1.250000 ms\nagg_mix read_samples 100.000000 count\n"
        );
        assert_eq!(
            r.text(true),
            "agg_mix load.drift 1.000000 ratio\nagg_mix read_samples 100.000000 count\n"
        );
    }
}

//! The metric catalogue and the result line.
//!
//! Every run prints each metric of its mode (end-to-end untraced,
//! per-layer traced) as `name value unit`, then one JSON object as the
//! last line of standard output. A metric whose value could not be
//! measured is left out of the object and named on standard error —
//! it is never reported as `0`. Where a workload bypasses a layer, that
//! layer's counters and busy times read a measured `0`: the workload
//! made no call into it.

use crate::json::quote;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_qps", "1/s"),
    ("sim_p99_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.run_s", "s"),
    ("host.cpu_ms_per_query", "ms"),
    ("tpch.gen_s", "s"),
    ("load.s", "s"),
    ("load.count", "count"),
    ("ostick.count", "count"),
    ("ostick.s", "s"),
    ("ostick.p50_us", "us"),
    ("ostick.p99_us", "us"),
    ("sched.migrations", "count"),
    ("sched.steals", "count"),
    ("sched.preemptions", "count"),
    ("sched.wakeups", "count"),
    ("numa.imc_gb", "GB"),
    ("numa.ht_gb", "GB"),
    ("numa.l3_hit_ratio", "ratio"),
    ("numa.minor_faults", "count"),
    ("engine.tasks_per_query", "count"),
    ("engine.steals", "count"),
    ("exec.unloaded_ms.mean", "ms"),
    ("exec.unloaded_ms.max", "ms"),
    ("par.tasks_per_query", "count"),
    ("par.steals", "count"),
    ("par.worker_runq_wait_ms", "ms"),
    ("proc.sys_share", "ratio"),
    ("ctl.polls", "count"),
    ("ctl.us_per_poll", "us"),
    ("ctl.transitions", "count"),
    ("arb.ticks", "count"),
    ("arb.us_per_tick", "us"),
    ("arb.denials", "count"),
    ("arb.yields", "count"),
    ("churn.admit_wait_ms.mean", "ms"),
    ("churn.admit_wait_ms.max", "ms"),
    ("churn.worst_p99_ms", "ms"),
    ("pool.cores_mean", "count"),
    ("pool.transitions", "count"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.p99", "ms"),
    ("serve.dispatch_wait_ms.p50", "ms"),
    ("serve.dispatch_wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.retries", "count"),
    ("trace_overhead", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Requests or queries attempted.
    pub attempted: u64,
    /// Of those, failed, shed, unfinished, lost or answered wrongly.
    pub failed: u64,
    /// Problems that make the run incorrect (wrong answers, lost
    /// requests, traced/untraced divergence).
    pub problems: Vec<String>,
    values: Vec<(&'static str, Option<f64>)>,
}

impl Report {
    /// Records a metric value (`None` = could not be measured).
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        let value = value.filter(|v| v.is_finite());
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Records a measured value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.set(name, Some(value));
    }

    /// Flags the run as incorrect.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// The human-readable lines (one per metric of `catalogue`) and the
    /// final JSON line. Metrics not measured are listed as absent.
    pub fn render(&self, catalogue: &[(&'static str, &'static str)]) -> (Vec<String>, String) {
        let mut lines = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            match self.get(name) {
                Some(v) => {
                    lines.push(format!("{name} {v} {unit}"));
                    fields.push(format!(
                        "{}: {{\"value\": {v}, \"unit\": {}}}",
                        quote(name),
                        quote(unit)
                    ));
                }
                None => lines.push(format!("{name} absent {unit}")),
            }
        }
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        (lines, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn absent_values_are_left_out() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.put("setup_s", 0.5);
        r.set("sim_qps", None);
        r.put("goodput_qps", f64::NAN);
        let (lines, json) = r.render(END_TO_END);
        assert!(lines.contains(&"sim_qps absent 1/s".to_string()));
        let v = Json::parse(&json).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value"),
            Some(&Json::Num(0.5))
        );
        assert!(m.get("sim_qps").is_none());
        assert!(m.get("goodput_qps").is_none(), "NaN is not a measurement");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

//! The metric registry and the result line.
//!
//! `BENCHMARK.json` lists the same metrics; a test keeps the two in
//! step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("study_wall_s", "s", "lower"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mib", "MiB", "lower"),
    spec("activation_pct", "%", "higher"),
    spec("c2_precision_pct", "%", "higher"),
    spec("c2_recall_pct", "%", "higher"),
    spec("exploit_recall_pct", "%", "higher"),
    spec("healthy_share", "share", "higher"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("pipeline.epochs_s", "s", "lower"),
    spec("pipeline.reduce_s", "s", "lower"),
    spec("pipeline.probing_s", "s", "lower"),
    spec("pipeline.trace_overhead_share", "share", "lower"),
    spec("par.cpu_util", "share", "higher"),
    spec("restricted.straggler_share", "share", "lower"),
    spec("contained.busy_s", "s", "lower"),
    spec("contained.sample_us_p50", "us", "lower"),
    spec("contained.sample_us_p99", "us", "lower"),
    spec("contained.activated_share", "share", "higher"),
    spec("xray.analyze_s", "s", "lower"),
    spec("xray.sample_us_p50", "us", "lower"),
    spec("restricted.sessions", "count", "lower"),
    spec("restricted.exec_s", "s", "lower"),
    spec("restricted.session_s_max", "s", "lower"),
    spec("restricted.instructions", "count", "lower"),
    spec("restricted.syscalls", "count", "lower"),
    spec("restricted.ns_per_instr", "ns", "lower"),
    spec("restricted.instr_per_syscall", "count", "higher"),
    spec("restricted.vtime_per_host_s", "s/s", "higher"),
    spec("restricted.productive_share", "share", "higher"),
    spec("wire.pcap_mib", "MiB", "lower"),
    spec("wire.records", "count", "lower"),
    spec("wire.decode_s", "s", "lower"),
    spec("wire.decode_ns_per_record", "ns", "lower"),
    spec("ddos.extract_s", "s", "lower"),
    spec("ddos.extract_calls", "count", "lower"),
    spec("ddos.commands_verified", "count", "higher"),
    spec("ddos.recall_pct", "%", "higher"),
    spec("netsim.day_net_build_us_p50", "us", "lower"),
    spec("liveness.probe_us_p50", "us", "lower"),
    spec("liveness.live_share", "share", "higher"),
    spec("liveness.c2_lifetime_err", "days", "lower"),
    spec("prober.probes_sent", "count", "lower"),
    spec("prober.engagements", "count", "lower"),
    spec("prober.probes_per_s", "1/s", "higher"),
    spec("prober.engage_hit_share", "share", "higher"),
    spec("botgen.elf_mib", "MiB", "lower"),
    spec("telemetry.overhead_share", "share", "lower"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Studies (or traced passes) attempted.
    pub attempted: usize,
    /// Studies that panicked or whose output digest disagreed.
    pub failed: usize,
    values: BTreeMap<&'static str, f64>,
    /// Figures printed for reading but not published as metrics,
    /// because they read 0 by construction (`name`, value, unit).
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Record metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded for metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a figure that is printed but not published.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// The human-readable lines, then the result line: a JSON object
    /// with exactly the metrics of `specs`. A metric that was never set
    /// or is not finite makes the run incorrect.
    pub fn render(&self, specs: &[Spec]) -> (Vec<String>, String, bool) {
        let mut correct = self.correct && self.attempted > 0;
        let mut lines = Vec::new();
        let mut metrics = String::new();
        for (i, s) in specs.iter().enumerate() {
            let value = match self.values.get(s.name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    lines.push(format!("missing metric {}", s.name));
                    correct = false;
                    0.0
                }
            };
            lines.push(format!(
                "{:<32} {:>18} {:<6} ({} is better)",
                s.name, value, s.unit, s.better
            ));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        for (name, value, unit) in &self.notes {
            lines.push(format!("{name:<32} {value:>18} {unit:<6} (not published)"));
        }
        let json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        (lines, json, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static Spec> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in all() {
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(s.name.len() <= 64 && s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {}",
                s.name
            );
            assert!(s.unit.len() <= 16 && !s.unit.is_empty());
            assert!(matches!(s.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for s in all() {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name, s.unit, s.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn render_flags_missing_and_non_finite_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        for s in END_TO_END {
            r.set(s.name, 1.5);
        }
        let (_, json, ok) = r.render(END_TO_END);
        assert!(ok && json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"study_wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.set("setup_s", f64::NAN);
        assert!(!r.render(END_TO_END).2);
        assert!(!r.render(PER_LAYER).2);
    }
}

//! The end-to-end metrics: their names, units, directions and regression
//! bounds (mirrored in `../BENCHMARK.json`; a test keeps the two in step),
//! and how each is computed from the repetitions of one run.

use crate::stats::{admissible_percentile, least_disturbed, median, percentile, Better};
use crate::workloads::Rep;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, every one defined on every workload.
///
/// Times are CPU time of the client thread scaled to nominal host speed,
/// latencies wall-clock samples scaled the same way (`clock`, `calib`): on
/// the 2-core shared reference host that took the spread of the same code
/// (quartile distance over the median of ten runs) from 8–26 % to 1–7 %.
/// Timing bounds stay at the driver's cap of 25 %, because the driver's own
/// host was two to three times noisier than the reference host. The two p99
/// latencies moved by up to 28 % and are per-layer rows instead
/// (`engine.command.p99_us`, `engine.session.change_p99_us`). Sizes repeat
/// exactly for a seed and within 1–2 % across seeds.
pub const END_TO_END: [Metric; 14] = [
    m("setup_s", "s", Lower, 0.25),
    m("instances_per_s", "1/s", Higher, 0.25),
    m("steps_per_s", "1/s", Higher, 0.25),
    m("command_p50_us", "us", Lower, 0.25),
    m("migrate_instances_per_s", "1/s", Higher, 0.25),
    m("change_commit_p50_us", "us", Lower, 0.25),
    m("adapt_repairs_per_s", "1/s", Higher, 0.25),
    m("worklist_poll_p50_us", "us", Lower, 0.25),
    m("restart_instances_per_s", "1/s", Higher, 0.25),
    m("checkpoint_instances_per_s", "1/s", Higher, 0.25),
    m("wal_bytes_per_instance", "B", Lower, 0.05),
    m("snapshot_bytes_per_instance", "B", Lower, 0.05),
    m("rss_bytes_per_instance", "B", Lower, 0.10),
    m("ok_op_share", "ratio", Higher, 0.001),
];

/// One computed value with what it was computed from.
#[derive(Debug, Clone)]
pub struct Value {
    pub metric: Metric,
    /// The median over the repetitions (NaN: not measurable, see `typical`).
    pub value: f64,
    /// The least-disturbed repetition's value, printed beside it.
    pub best: f64,
    /// How the value was obtained, for the human-readable line.
    pub note: String,
}

/// The values of the repetitions that measured the metric at all.
fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter()
        .map(f)
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect()
}

/// A throughput, a size or a set-up time: the median over the repetitions.
fn typical(metric: Metric, reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Value {
    let values = per_rep(reps, f);
    if values.is_empty() {
        // Resident-set growth can only be seen on the first population a
        // process builds: the suite's later workloads reuse freed memory.
        return Value {
            metric,
            value: f64::NAN,
            best: f64::NAN,
            note: "not measurable in this process".into(),
        };
    }
    Value {
        metric,
        value: median(&values),
        best: least_disturbed(&values, metric.better),
        note: format!("median of {} repetitions", values.len()),
    }
}

/// A latency percentile: each repetition's percentile, then the median over
/// the repetitions. The percentile is the highest one not above `wanted`
/// that every repetition has ten samples beyond, and the note names it.
fn latency(metric: Metric, reps: &[Rep], wanted: f64, f: impl Fn(&Rep) -> &Vec<f32>) -> Value {
    let sampled: Vec<&Vec<f32>> = reps.iter().map(f).filter(|s| !s.is_empty()).collect();
    assert!(!sampled.is_empty(), "{}: no samples", metric.name);
    let fewest = sampled.iter().map(|s| s.len()).min().unwrap_or(0);
    let p = admissible_percentile(wanted, fewest);
    let values: Vec<f64> = sampled
        .iter()
        .map(|s| {
            let mut sorted = (*s).clone();
            sorted.sort_unstable_by(f32::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    Value {
        metric,
        value: median(&values),
        best: least_disturbed(&values, metric.better),
        note: format!(
            "median of {} repetitions' p{:.0}, at least {fewest} samples each",
            values.len(),
            p * 100.0
        ),
    }
}

/// Every end-to-end metric of one run, in the order of [`END_TO_END`].
pub fn end_to_end(reps: &[Rep]) -> Vec<Value> {
    let attempted: u64 = reps.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.tally.failed).sum();
    let ok_share = 1.0 - failed as f64 / attempted.max(1) as f64;
    END_TO_END
        .iter()
        .map(|&metric| match metric.name {
            "setup_s" => typical(metric, reps, |r| r.setup_s),
            "instances_per_s" => typical(metric, reps, |r| r.instances as f64 / r.main_s),
            "steps_per_s" => typical(metric, reps, |r| r.steps as f64 / r.main_s),
            "command_p50_us" => latency(metric, reps, 0.50, |r| &r.command_us),
            "migrate_instances_per_s" => typical(metric, reps, |r| r.migrate.per_s()),
            "change_commit_p50_us" => latency(metric, reps, 0.50, |r| &r.change_us),
            "adapt_repairs_per_s" => typical(metric, reps, |r| r.adapt.per_s()),
            "worklist_poll_p50_us" => latency(metric, reps, 0.50, |r| &r.poll_us),
            "restart_instances_per_s" => typical(metric, reps, |r| r.restart.per_s()),
            "checkpoint_instances_per_s" => typical(metric, reps, |r| r.checkpoint.per_s()),
            "wal_bytes_per_instance" => {
                typical(metric, reps, |r| r.wal_bytes as f64 / r.population as f64)
            }
            "snapshot_bytes_per_instance" => typical(metric, reps, |r| {
                r.snapshot_bytes as f64 / r.checkpoint.count as f64
            }),
            // Only the first repetition of a process measures it.
            "rss_bytes_per_instance" => {
                typical(metric, reps, |r| r.rss_bytes as f64 / r.population as f64)
            }
            "ok_op_share" => Value {
                metric,
                value: ok_share,
                best: ok_share,
                note: format!("{failed} of {attempted} calls and checks failed"),
            },
            other => unreachable!("no rule for metric {other}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Rate;

    fn rep(main_s: f64, command_us: Vec<f32>) -> Rep {
        Rep {
            setup_s: 0.5,
            main_s,
            instances: 100,
            population: 100,
            steps: 300,
            command_us: command_us.clone(),
            change_us: command_us.clone(),
            poll_us: command_us,
            migrate: Rate {
                count: 100,
                secs: main_s,
                raw_secs: main_s,
            },
            adapt: Rate {
                count: 10,
                secs: main_s,
                raw_secs: main_s,
            },
            checkpoint: Rate {
                count: 100,
                secs: main_s,
                raw_secs: main_s,
            },
            restart: Rate {
                count: 100,
                secs: main_s,
                raw_secs: main_s,
            },
            wal_bytes: 1000,
            snapshot_bytes: 500,
            rss_bytes: 4096,
            ..Rep::default()
        }
    }

    #[test]
    fn a_metric_is_the_median_over_the_repetitions() {
        let mut disturbed = rep(4.0, vec![1.0; 20]);
        disturbed.rss_bytes = 0; // only the first repetition measures it
        let reps = [rep(2.0, vec![1.0; 20]), disturbed, rep(1.0, vec![1.0; 20])];
        let values = end_to_end(&reps);
        let get = |name: &str| values.iter().find(|v| v.metric.name == name).unwrap();
        assert_eq!(get("instances_per_s").value, 50.0);
        assert_eq!(get("instances_per_s").best, 100.0);
        assert_eq!(get("steps_per_s").value, 150.0);
        assert_eq!(get("setup_s").value, 0.5);
        assert_eq!(get("rss_bytes_per_instance").value, 40.96);
        assert_eq!(get("wal_bytes_per_instance").value, 10.0);
        assert_eq!(get("ok_op_share").value, 1.0);
        assert_eq!(values.len(), END_TO_END.len());
    }

    #[test]
    fn a_percentile_is_one_every_repetition_has_the_samples_for() {
        let ramp = |n: usize| (0..n).map(|i| i as f32).collect::<Vec<f32>>();
        let metric = END_TO_END[3];
        let reps = [
            rep(1.0, ramp(2000)),
            rep(1.0, ramp(2000)),
            rep(1.0, ramp(1000)),
        ];
        let p99 = latency(metric, &reps, 0.99, |r| &r.command_us);
        assert_eq!(p99.value, 1979.0);
        assert!(
            p99.note.contains("p99, at least 1000 samples"),
            "{}",
            p99.note
        );
        // One repetition with 999 samples drags every repetition down to p95.
        let reps = [rep(1.0, ramp(2000)), rep(1.0, ramp(999))];
        let p99 = latency(metric, &reps, 0.99, |r| &r.command_us);
        assert!(p99.note.contains("p95"), "{}", p99.note);
        assert_eq!(p99.best, 949.0);
        let p50 = end_to_end(&reps)
            .into_iter()
            .find(|v| v.metric.name == "command_p50_us")
            .unwrap();
        assert!(p50.note.contains("p50"), "{}", p50.note);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len());
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    /// `../BENCHMARK.json` lists exactly the metrics and workloads the code
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_is_in_step_with_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let lines: Vec<&str> = json
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        for metric in END_TO_END {
            let line = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                metric.name,
                metric.unit,
                metric.better.as_str(),
                metric.bound
            );
            assert!(
                lines.contains(&line.as_str()),
                "missing or different: {line}"
            );
        }
        for (name, unit, better) in crate::layers::PER_LAYER {
            let line = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{}"}}"#,
                better.as_str()
            );
            assert!(
                lines.contains(&line.as_str()),
                "missing or different: {line}"
            );
        }
        for w in crate::plan::WORKLOADS {
            let start = format!(r#"{{"name": "{}", "why": ""#, w.name());
            assert!(
                lines.iter().any(|l| l.starts_with(&start)),
                "no workload {}",
                w.name()
            );
        }
        let listed = lines
            .iter()
            .filter(|l| l.starts_with(r#"{"name": ""#))
            .count();
        assert_eq!(
            listed,
            END_TO_END.len() + crate::layers::PER_LAYER.len() + crate::plan::WORKLOADS.len()
        );
        assert!(lines.contains(&r#""paths": ["benchmark"]"#));
    }
}

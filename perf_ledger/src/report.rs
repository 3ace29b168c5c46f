//! What the ledger measures, how a run prints it, and how two ledgers
//! compare.
//!
//! Output is JSON written one record per line, so both this module's
//! `compare` and the tests read it back with plain string matching.

use std::collections::BTreeMap;

use crate::stats::{quantile, Measured};
use crate::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the CLI or the daemon sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Bound of the wall-time metrics. On the 2-vCPU host the ledger was
/// built on, the host's speed shifts by 10-20% between runs even with
/// medians over rounds (ten seeds per workload: quartile spread up to
/// 0.24 of the median), so a tighter bound would flag noise.
const WALL_TIME_BOUND: f64 = 0.25;

/// The end-to-end metrics, reported on every workload. On the matrix
/// workloads a "row" is one of the figure's 20 workload rows, so its
/// latency is the figure's wall time over 20.
pub const END_TO_END: [EndToEnd; 5] = [
    // Child or daemon spawn until it is ready (matrix) or answers its
    // first /healthz (daemon); median over the run's set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: WALL_TIME_BOUND,
    },
    EndToEnd {
        name: "row_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: WALL_TIME_BOUND,
    },
    EndToEnd {
        name: "row_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: WALL_TIME_BOUND,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        bound: WALL_TIME_BOUND,
    },
    // VmHWM of the working child or daemon; median over them.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics of a traced run, with their units. Shares are
/// of `op_ms`: the 1-thread figure wall time on the matrix workloads,
/// the mean `/row` latency on the daemon workloads. A layer that a
/// workload never calls reports a share of 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("op_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed.share", "ratio"),
    ("trace.share", "ratio"),
    ("sim.record.share", "ratio"),
    ("sim.tape.decode.share", "ratio"),
    ("sim.replay_batch.share", "ratio"),
    ("sim.replay_single.share", "ratio"),
    ("sim.persist.key.share", "ratio"),
    ("sim.persist.encode.share", "ratio"),
    ("sim.persist.decode.share", "ratio"),
    ("store.get.share", "ratio"),
    ("store.put.share", "ratio"),
    ("serve.json.render.share", "ratio"),
    ("serve.http.share", "ratio"),
    ("trace.events_per_op", "count/op"),
    ("sim.tapes_per_op", "count/op"),
    ("sim.engine_events_per_op", "count/op"),
    ("sim.tape.resident_mb", "MB"),
    ("trace_cache.hit_ratio", "ratio"),
    ("tape_cache.hit_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.written_mb", "MB"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.evaluations_per_row", "ratio"),
];

/// The unit of a metric name, end-to-end or per-layer.
pub fn unit(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(name, _)| *name == metric)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("undeclared metric {metric}"))
}

/// The raw end-to-end samples of one run, grouped by round: a figure
/// on the matrix workloads, a daemon lifetime on `rows-restart` and
/// `rows-mixed`, a one-second window on `rows-warm`.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// Peak RSS of each working child or daemon, MB.
    pub rss_mb: Vec<f64>,
    /// Row latencies per round, ms.
    pub latencies: Vec<Vec<f64>>,
    /// Rows per second per round.
    pub rates: Vec<f64>,
}

impl Rounds {
    /// The end-to-end metrics, in [`END_TO_END`] order. Each is a
    /// median over rounds: the host's speed drifts by tens of percent
    /// for seconds at a time, and a median over many short rounds
    /// discounts such episodes where a quantile over all rows would
    /// absorb them. A latency quantile is taken per round first; its
    /// `n` counts the rows.
    pub fn end_to_end(&self) -> Vec<(&'static str, Measured)> {
        let rows = self.latencies.iter().map(Vec::len).sum();
        let latency = |q: f64| {
            let per_round: Vec<f64> = self.latencies.iter().map(|l| quantile(l, q)).collect();
            Measured {
                n: rows,
                ..Measured::median(&per_round)
            }
        };
        vec![
            ("setup_s", Measured::median(&self.setups)),
            ("row_p50_ms", latency(0.5)),
            ("row_p99_ms", latency(0.99)),
            ("rows_per_s", Measured::median(&self.rates)),
            ("peak_rss_mb", Measured::median(&self.rss_mb)),
        ]
    }
}

/// What one workload run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: requests or matrix rows, plus checks.
    pub attempted: u64,
    /// Operations that failed: a non-200 status or an inconsistent
    /// result.
    pub failed: u64,
    /// Metrics by name, in report order.
    pub metrics: Vec<(&'static str, Measured)>,
}

/// A float as JSON: shortest round-trip digits (`NaN` cannot occur in
/// a valid run and renders as `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One JSON line per metric, then one status line: the records a
    /// ledger collects.
    pub fn ledger_lines(&self, workload: Workload) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let rule = END_TO_END
                    .iter()
                    .find(|e| e.name == *name)
                    .map(|e| format!(",\"better\":\"{}\",\"bound\":{}", e.better.name(), num(e.bound)))
                    .unwrap_or_default();
                format!(
                    "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"unit\":\"{}\"{rule},\"n\":{},\"value\":{},\"q1\":{},\"q3\":{}}}",
                    workload.name(),
                    unit(name),
                    m.n,
                    num(m.value),
                    num(m.q1),
                    num(m.q3),
                )
            })
            .collect();
        lines.push(format!(
            "{{\"workload\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{}}}",
            workload.name(),
            self.correct(),
            self.attempted,
            self.failed,
            num(self.failed as f64 / self.attempted.max(1) as f64),
        ));
        lines
    }

    /// The one-line result that ends a workload run's output: every
    /// metric's value with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    num(m.value),
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The raw text of `"key": <value>` in one JSON record line, quotes
/// stripped from strings. Enough for flat one-line records like the
/// ones this module writes; not a general JSON parser.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line[start..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    rest.split([',', '}']).next()
}

/// A ledger document: a header, the metric records, the status records.
pub fn ledger(header: &str, lines: &[String]) -> String {
    let (status, rows): (Vec<&String>, Vec<&String>) =
        lines.iter().partition(|l| l.contains("\"failed_frac\":"));
    let join = |v: Vec<&String>| v.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\"perf_ledger\":{header},\n\"rows\":[\n{}\n],\n\"workloads\":[\n{}\n]}}\n",
        join(rows),
        join(status)
    )
}

/// One metric record read back from a ledger.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    unit: String,
    better: Option<Better>,
    bound: f64,
    value: f64,
    q1: f64,
    q3: f64,
}

/// `(workload, metric) -> record` and `workload -> failed_frac` from a
/// ledger's text.
type Parsed = (BTreeMap<(String, String), Row>, BTreeMap<String, f64>);

fn parse_ledger(text: &str) -> Result<Parsed, String> {
    let mut rows = BTreeMap::new();
    let mut failed = BTreeMap::new();
    let float = |line: &str, key: &str| -> Result<f64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad {key} in {line}"))
    };
    for line in text.lines() {
        let Some(workload) = field(line, "workload") else {
            continue;
        };
        if let Some(metric) = field(line, "metric") {
            let better = match field(line, "better") {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let row = Row {
                unit: field(line, "unit").unwrap_or("").to_owned(),
                better,
                bound: field(line, "bound")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                value: float(line, "value")?,
                q1: float(line, "q1")?,
                q3: float(line, "q3")?,
            };
            rows.insert((workload.to_owned(), metric.to_owned()), row);
        } else if line.contains("\"failed_frac\":") {
            failed.insert(workload.to_owned(), float(line, "failed_frac")?);
        }
    }
    if rows.is_empty() {
        return Err("no metric records".to_owned());
    }
    Ok((rows, failed))
}

/// The verdict on one end-to-end metric: `(label, regression)`.
fn verdict(a: &Row, b: &Row, better: Better) -> (&'static str, bool) {
    let spread = |r: &Row| (r.q3 - r.q1).abs() / r.value.abs();
    // Positive: B is worse than A, as a share of A.
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if spread(a).max(spread(b)) > a.bound {
        ("unresolved", false)
    } else if worse > a.bound {
        ("worse", true)
    } else if worse < -a.bound {
        ("better", false)
    } else {
        ("within bound", false)
    }
}

/// Compares ledger `b` against baseline `a`: one line per (workload,
/// metric) present in both, then the failure fractions. Returns the
/// report and whether any end-to-end metric regressed beyond its bound
/// (or more operations failed).
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a_rows, a_failed) = parse_ledger(a).map_err(|e| format!("baseline: {e}"))?;
    let (b_rows, b_failed) = parse_ledger(b).map_err(|e| format!("candidate: {e}"))?;
    let mut out = format!(
        "{:<13} {:<26} {:<9} {:>30} {:>30} {:>8} {:>6}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    let side = |r: &Row| format!("{:.4} [{:.4}, {:.4}]", r.value, r.q1, r.q3);
    for ((workload, metric), a) in &a_rows {
        let Some(b) = b_rows.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let change = (b.value - a.value) / a.value.abs();
        let (label, worse) = match a.better {
            Some(better) => verdict(a, b, better),
            None => ("per-layer", false),
        };
        regressed |= worse;
        out.push_str(&format!(
            "{workload:<13} {metric:<26} {:<9} {:>30} {:>30} {:>+7.1}% {:>6}  {label}\n",
            a.unit,
            side(a),
            side(b),
            change * 100.0,
            if a.better.is_some() {
                format!("{:.0}%", a.bound * 100.0)
            } else {
                "-".to_owned()
            },
        ));
    }
    for (workload, &fa) in &a_failed {
        if let Some(&fb) = b_failed.get(workload) {
            let worse = fb > fa;
            regressed |= worse;
            out.push_str(&format!(
                "{workload:<13} {:<26} {:<9} {fa:>30} {fb:>30} {:>8} {:>6}  {}\n",
                "failed_frac",
                "ratio",
                "",
                "0",
                if worse { "worse" } else { "within bound" },
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with(value: f64, q1: f64, q3: f64, failed: u64) -> String {
        let outcome = Outcome {
            attempted: 10,
            failed,
            metrics: vec![
                (
                    "row_p50_ms",
                    Measured {
                        value,
                        n: 10,
                        q1,
                        q3,
                    },
                ),
                ("op_ms", Measured::exact(value)),
            ],
        };
        ledger("{}", &outcome.ledger_lines(Workload::RowsWarm))
    }

    #[test]
    fn field_reads_strings_and_numbers() {
        let line = r#"{"workload":"rows-warm","metric":"row_p50_ms","n":3,"value":1.5}"#;
        assert_eq!(field(line, "workload"), Some("rows-warm"));
        assert_eq!(field(line, "n"), Some("3"));
        assert_eq!(field(line, "value"), Some("1.5"));
        assert_eq!(field(line, "q1"), None);
    }

    #[test]
    fn compare_verdicts_follow_the_bound_and_spread() {
        let base = ledger_with(10.0, 9.9, 10.1, 0);
        let verdict_of = |b: &str| {
            let (report, regressed) = compare(&base, b).unwrap();
            let line = report
                .lines()
                .find(|l| l.contains("row_p50_ms"))
                .unwrap()
                .to_owned();
            (line, regressed)
        };
        let (line, regressed) = verdict_of(&ledger_with(10.5, 10.4, 10.6, 0));
        assert!(line.ends_with("within bound") && !regressed, "{line}");
        let (line, regressed) = verdict_of(&ledger_with(13.0, 12.9, 13.1, 0));
        assert!(line.ends_with("worse") && regressed, "{line}");
        let (line, regressed) = verdict_of(&ledger_with(7.0, 6.9, 7.1, 0));
        assert!(line.ends_with("better") && !regressed, "{line}");
        let (line, regressed) = verdict_of(&ledger_with(12.0, 8.0, 16.0, 0));
        assert!(line.ends_with("unresolved") && !regressed, "{line}");
        let (_, regressed) = verdict_of(&ledger_with(10.0, 9.9, 10.1, 1));
        assert!(regressed, "a new failure is a regression");
    }
}

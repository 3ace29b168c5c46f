//! Runs the whole ledger at smoke scale, untraced and traced, and
//! checks it against `BENCHMARK.json`: every workload and metric named
//! there appears with its unit, and no operation failed.

use std::process::Command;

use perf_ledger::report::field;

/// `(name, unit)` of every entry in `BENCHMARK.json`'s list `list`
/// (units are empty for the workload list).
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{list}\":"))
        .expect("list in BENCHMARK.json");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split('{')
        .filter_map(|entry| {
            let name = field(entry, "name")?;
            Some((
                name.to_owned(),
                field(entry, "unit").unwrap_or("").to_owned(),
            ))
        })
        .collect()
}

fn ledger(trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args([
            "--scale",
            "smoke",
            "--seconds",
            "1",
            "--seed",
            "5",
            "--trace",
            trace,
        ])
        .output()
        .expect("run perf_ledger");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 ledger");
    assert!(output.status.success(), "ledger failed:\n{stdout}");
    stdout
}

fn check(ledger: &str, metrics: &[(String, String)]) {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 5);
    for (workload, _) in &workloads {
        for (metric, unit) in metrics {
            let row = ledger.lines().find(|l| {
                field(l, "workload") == Some(workload) && field(l, "metric") == Some(metric)
            });
            let row = row.unwrap_or_else(|| panic!("{workload} lacks {metric}:\n{ledger}"));
            assert_eq!(field(row, "unit"), Some(unit.as_str()), "{row}");
            let value: f64 = field(row, "value")
                .and_then(|v| v.parse().ok())
                .expect("a value");
            assert!(value.is_finite(), "{row}");
        }
        let status = ledger
            .lines()
            .find(|l| field(l, "workload") == Some(workload) && l.contains("\"failed_frac\""))
            .unwrap_or_else(|| panic!("{workload} lacks a status record"));
        assert_eq!(field(status, "failed_frac"), Some("0.0"), "{status}");
        assert_eq!(field(status, "correct"), Some("true"), "{status}");
    }
}

#[test]
fn smoke_ledger_reports_every_declared_workload_and_metric() {
    check(&ledger("0"), &declared("end_to_end"));
    check(&ledger("1"), &declared("per_layer"));
}

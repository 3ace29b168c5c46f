//! A restarted store-backed daemon serves stored rows without
//! generating a trace: results key on the request, so every cell is
//! read from the store before any trace would be needed.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the trace cache, the result tier and their counters are
//! process-wide, so no concurrent test may move them.

use nvm_llc::serve::{http, ServeConfig, Server};

/// The sum of every sample of the family `name` in a `/metricsz` body,
/// over all label sets.
fn family_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(_, value)| value.parse::<f64>().expect("metric value"))
        .sum()
}

#[test]
fn a_restarted_daemon_serves_stored_rows_without_generating_a_trace() {
    let dir =
        std::env::temp_dir().join(format!("nvm-llcd-restart-no-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let targets: Vec<String> = ["tonto", "cg", "leela"]
        .iter()
        .flat_map(|w| [3_000, 5_000].map(|n| format!("/row?workload={w}&accesses={n}")))
        .collect();
    let sweep = |server: &Server| -> Vec<String> {
        targets
            .iter()
            .map(|target| {
                let (status, body) = http::get(server.addr(), target).unwrap();
                assert_eq!(status, 200, "{target}: {body}");
                body
            })
            .collect()
    };

    // First daemon: every row is computed and stored.
    let first = Server::start(config()).unwrap();
    let cold = sweep(&first);
    first.shutdown();

    // A restart starts from an empty process: no trace, no remembered
    // result.
    nvm_llc::trace::cache::clear();
    nvm_llc::sim::runner::set_result_budget(0);
    nvm_llc::sim::runner::set_result_budget(nvm_llc::sim::runner::RESULT_BUDGET_BYTES);

    // Second daemon, same store: the same bytes, with no trace generated
    // and no group evaluated.
    let second = Server::start(config()).unwrap();
    let counters = || {
        let (status, body) = http::get(second.addr(), "/metricsz").unwrap();
        assert_eq!(status, 200);
        (
            family_sum(&body, "nvmllc_trace_cache_misses_total"),
            family_sum(&body, "nvmllc_eval_groups_total"),
            family_sum(&body, "nvmllc_eval_result_tier_hits_total"),
        )
    };
    let (misses, groups, hits) = counters();
    let warm = sweep(&second);
    let (misses_after, groups_after, hits_after) = counters();
    second.shutdown();
    assert_eq!(warm, cold, "a restart must not change a single byte");
    assert_eq!(misses_after, misses, "no trace generated for a stored row");
    assert_eq!(groups_after, groups, "no group evaluated for a stored row");
    assert_eq!(
        hits_after - hits,
        (targets.len() * 11) as f64,
        "every cell read from the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

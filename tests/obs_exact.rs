//! Exactness of the process-wide metrics registry under the evaluation
//! engine's scoped worker pool: counters and span histograms fed from
//! many threads must sum to exactly the work done, at every worker
//! count.
//!
//! The registry is process-global, so this file holds a single `#[test]`
//! — its own process — to keep deltas attributable.

use nvm_llc::prelude::*;
use nvm_llc::sim::runner::metrics;

/// An evaluator over SRAM + the ten NVMs of `models`, the matrix width,
/// and the number of distinct LLC capacities among them (the tape groups
/// per workload). Each caller picks its own `base_accesses`, so its
/// cells are fresh keys in the process-wide result tier.
fn evaluator(models: Vec<LlcModel>, base_accesses: usize) -> (Evaluator, usize, usize) {
    let mut capacities: Vec<u64> = models.iter().map(|m| m.capacity.bytes()).collect();
    capacities.sort_unstable();
    capacities.dedup();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    let width = 1 + nvms.len();
    (
        Evaluator::new(baseline, nvms).base_accesses(base_accesses),
        width,
        capacities.len(),
    )
}

#[test]
fn run_all_counter_and_histogram_updates_sum_exactly() {
    let ws: Vec<_> = ["tonto", "leela"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let run_hist = nvm_llc::obs::metrics::histogram(
        "nvmllc_eval_run_all_seconds",
        "Wall time of the `eval_run_all` span.",
    );
    let record_hist = nvm_llc::obs::metrics::histogram(
        "nvmllc_tape_record_seconds",
        "Wall time of the `tape_record` span.",
    );
    let batch_hist = nvm_llc::obs::metrics::histogram(
        "nvmllc_tape_replay_batch_seconds",
        "Wall time of the `tape_replay_batch` span.",
    );
    let generate_hist = nvm_llc::obs::metrics::histogram(
        "nvmllc_trace_generate_seconds",
        "Wall time of the `trace_generate` span.",
    );
    let generated = nvm_llc::trace::metrics::generated();

    // Fixed capacity: one LLC geometry, so one group per workload.
    // Fixed area: one group per LLC capacity, all fed by one pass.
    for (configuration, base) in [
        (Configuration::FixedCapacity, 4_000),
        (Configuration::FixedArea, 3_000),
    ] {
        for threads in [1, 2, 4, 8] {
            let runs = metrics::runs().get();
            let cells = metrics::cells().get();
            let groups = metrics::groups().get();
            let passes = metrics::passes().get();
            let run_spans = run_hist.count();
            let record_spans = record_hist.count();
            let replay_spans = batch_hist.count();
            let generate_spans = generate_hist.count();
            let traces = generated.get();

            // A fresh access count per worker count: every cell below is
            // a result-tier miss, and every trace is generated on the
            // pool.
            let accesses = base + 100 * threads;
            let (ev, width, capacities) = evaluator(configuration.models(), accesses);
            let rows = ev.threads(threads).run_all(&ws);
            assert_eq!(rows.len(), ws.len());

            // One run, exactly one cell per (workload, technology) pair,
            // one group per (workload, LLC capacity) and one pass per
            // workload: no double counting and no drops regardless of
            // worker count.
            let d_groups = metrics::groups().get() - groups;
            let d_passes = metrics::passes().get() - passes;
            assert_eq!(metrics::runs().get() - runs, 1, "{threads} workers");
            assert_eq!(
                metrics::cells().get() - cells,
                (ws.len() * width) as u64,
                "{threads} workers"
            );
            assert_eq!(
                d_groups,
                (ws.len() * capacities) as u64,
                "{threads} workers"
            );
            assert_eq!(d_passes, ws.len() as u64, "{threads} workers");

            // Span histograms observe exactly one sample per span: one
            // eval_run_all per run, one tape_record per functional pass,
            // and one tape_replay_batch per group, finishing its replay.
            assert_eq!(run_hist.count() - run_spans, 1, "{threads} workers");
            assert_eq!(
                record_hist.count() - record_spans,
                d_passes,
                "{threads} workers"
            );
            assert_eq!(
                batch_hist.count() - replay_spans,
                d_groups,
                "{threads} workers"
            );

            // Parallel evaluation still generates each workload's trace
            // exactly once, streamed into its one pass: one generation
            // each, and one trace_generate sample per chunk of events.
            assert_eq!(
                generated.get() - traces,
                ws.len() as u64,
                "{threads} workers"
            );
            let chunks: usize = ws
                .iter()
                .map(|w| {
                    let events = w.scaled_accesses(accesses) * usize::from(w.threads());
                    events.div_ceil(nvm_llc::trace::CHUNK_EVENTS)
                })
                .sum();
            assert_eq!(
                generate_hist.count() - generate_spans,
                chunks as u64,
                "{threads} workers"
            );
        }
    }
}

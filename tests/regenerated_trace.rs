//! A trace regenerated after the trace cache dropped it still hits the
//! in-memory result tier: results key on the trace's content hash, not
//! on the trace object that happened to be resident when they were
//! computed.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the trace cache, the result tier and their counters are
//! process-wide, so no concurrent test may touch them.

use nvm_llc::prelude::*;
use nvm_llc::sim::runner::metrics;

#[test]
fn a_regenerated_trace_hits_the_result_memo() {
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models
        .iter()
        .filter(|m| m.name != "SRAM")
        .cloned()
        .collect();
    let evaluator = Evaluator::new(baseline, nvms).base_accesses(4_000);
    let w = workloads::by_name("tonto").unwrap();

    // 1. Evaluate a row.
    let first = evaluator.run_workload(&w);

    // 2. Drop every cached trace.
    nvm_llc::trace::cache::clear();

    // 3. Evaluate it again: the trace is generated anew, and all 11
    //    cells are result-tier hits — no functional pass.
    let trace_misses = nvm_llc::trace::cache::metrics::misses();
    let (misses, hits, groups) = (
        trace_misses.get(),
        metrics::result_memo_hits().get(),
        metrics::groups().get(),
    );
    let again = evaluator.run_workload(&w);
    assert_eq!(trace_misses.get() - misses, 1, "the trace was regenerated");
    assert_eq!(metrics::result_memo_hits().get() - hits, 11);
    assert_eq!(metrics::groups().get(), groups, "no functional pass");
    assert_eq!(again, first, "the remembered row is bit-identical");
}

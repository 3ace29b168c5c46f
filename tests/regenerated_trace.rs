//! A row the in-memory result tier remembers is served without its
//! trace: results key on the request (profile, seed, length, system),
//! so a trace the cache has dropped is not generated again to look them
//! up.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the trace cache, the result tier and their counters are
//! process-wide, so no concurrent test may touch them.

use nvm_llc::prelude::*;
use nvm_llc::sim::runner::metrics;

#[test]
fn a_remembered_row_does_not_regenerate_its_dropped_trace() {
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

    // 3. Evaluate it again: all 11 cells are result-tier hits, found
    //    by request identity — no trace generated, no functional pass.
    let trace_misses = nvm_llc::trace::cache::metrics::misses();
    let (misses, hits, groups) = (
        trace_misses.get(),
        metrics::result_memo_hits().get(),
        metrics::groups().get(),
    );
    let again = evaluator.run_workload(&w);
    assert_eq!(trace_misses.get(), misses, "no trace was generated");
    assert_eq!(metrics::result_memo_hits().get() - hits, 11);
    assert_eq!(metrics::groups().get(), groups, "no functional pass");
    assert_eq!(again, first, "the remembered row is bit-identical");
}

//! A row the in-memory result tier remembers is served without its
//! trace: results key on the request (profile, seed, length, system),
//! so the trace is not generated again to look them up.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the result tier and the counters are process-wide, so no
//! concurrent test may touch them.

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

    // 1. Evaluate a row: its one group streams one generated trace.
    let generated = nvm_llc::trace::metrics::generated();
    let before = generated.get();
    let first = evaluator.run_workload(&w);
    assert_eq!(generated.get() - before, 1, "the row generated its trace");

    // 2. Evaluate it again: all 11 cells are result-tier hits, found
    //    by request identity — no trace generated, no functional pass.
    let (traces, hits, groups) = (
        generated.get(),
        metrics::result_memo_hits().get(),
        metrics::groups().get(),
    );
    let again = evaluator.run_workload(&w);
    assert_eq!(generated.get(), traces, "no trace was generated");
    assert_eq!(metrics::result_memo_hits().get() - hits, 11);
    assert_eq!(metrics::groups().get(), groups, "no functional pass");
    assert_eq!(again, first, "the remembered row is bit-identical");
}

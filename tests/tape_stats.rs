//! Functional-pass and result-tier accounting, asserted on process-wide
//! counters.
//!
//! This file holds exactly one test and therefore compiles to its own
//! test binary (its own process): the evaluator's pass and group
//! counters, the trace counter and the result tier are global, so the
//! assertion that an evaluation matrix performs *exactly one* functional
//! pass per workload only holds when no concurrent test is evaluating.

use nvm_llc::prelude::*;
use std::collections::HashSet;

/// The evaluator's accounting, end to end:
///
/// * fixed-capacity matrix (11 technologies, one shared 2 MB geometry):
///   a cold run is one group (= one functional pass, one batched replay)
///   per workload and no result-tier hits;
/// * rerun warm, every cell is a result-tier hit and nothing is
///   recorded or replayed;
/// * fixed-area matrix (capacities differ per technology): one group
///   per *distinct* LLC capacity, all fed by one functional pass over
///   one generated trace;
/// * the results stay bit-identical to direct `System::run`.
#[test]
fn matrix_records_one_functional_pass_per_distinct_geometry() {
    use nvm_llc::sim::runner::metrics;
    let counts = || (metrics::groups().get(), metrics::result_memo_hits().get());
    let passes = || metrics::passes().get();
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models
        .iter()
        .filter(|m| m.name != "SRAM")
        .cloned()
        .collect();
    let ws: Vec<_> = ["tonto", "leela"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let width = 1 + nvms.len();

    let (groups, hits) = counts();
    let before = passes();
    let rows = Evaluator::new(baseline.clone(), nvms.clone())
        .base_accesses(8_000)
        .threads(4)
        .run_all(&ws);
    assert_eq!(passes() - before, ws.len() as u64, "one pass per workload");
    // All 11 fixed-capacity technologies share the 2 MB LLC geometry, so
    // each workload is a single batched group: exactly one functional
    // pass per workload, one tape shared by all eleven engines.
    assert_eq!(
        counts(),
        (groups + ws.len() as u64, hits),
        "one functional pass per workload, no result-tier hits"
    );

    // Rerun the same matrix warm: every cell comes from the result
    // tier, so no group is scheduled at all.
    let (groups, hits) = counts();
    let warm = Evaluator::new(baseline, nvms)
        .base_accesses(8_000)
        .threads(4)
        .run_all(&ws);
    assert_eq!(
        counts(),
        (groups, hits + (ws.len() * width) as u64),
        "a warm rerun records nothing and hits every cell"
    );
    assert_eq!(rows, warm, "warm and cold rows are bit-identical");

    // The results are bit-identical to direct runs over a freshly
    // generated (cache-independent) copy of the same trace.
    let models = reference::fixed_capacity();
    for (row, w) in rows.iter().zip(&ws) {
        let trace = w.generate(2019, w.scaled_accesses(8_000));
        for model in &models {
            let direct = System::new(ArchConfig::gainestown(model.clone()))
                .with_warmup(nvm_llc::sim::runner::DEFAULT_WARMUP)
                .run(&trace);
            let from_matrix = if model.name == "SRAM" {
                &row.baseline
            } else {
                &row.entry(&model.name).expect("matrix covers model").result
            };
            assert_eq!(&direct, from_matrix, "{} on {}", model.name, row.workload);
        }
    }

    // Fixed-area models size each LLC by its cell's density, so only
    // technologies that land on the same capacity share a tape: each
    // distinct capacity is exactly one group. The groups differ only in
    // the LLC, so one walk of the private levels feeds them all: one
    // pass, over one generated trace.
    let fa = reference::fixed_area();
    let distinct_capacities: HashSet<u64> = fa.iter().map(|m| m.capacity.bytes()).collect();
    let fa_baseline = reference::by_name(&fa, "SRAM").unwrap();
    let fa_nvms: Vec<_> = fa.iter().filter(|m| m.name != "SRAM").cloned().collect();
    let w = workloads::by_name("gobmk").unwrap();
    let (groups, hits) = counts();
    let (before, traces) = (passes(), nvm_llc::trace::metrics::generated().get());
    let _ = Evaluator::new(fa_baseline, fa_nvms)
        .base_accesses(8_000)
        .threads(4)
        .run_workload(&w);
    assert_eq!(
        counts(),
        (groups + distinct_capacities.len() as u64, hits),
        "one group per distinct fixed-area capacity"
    );
    assert_eq!(passes() - before, 1, "one pass feeds every capacity");
    assert_eq!(
        nvm_llc::trace::metrics::generated().get() - traces,
        1,
        "the fixed-area row generates its trace once"
    );
}

//! The in-memory result tier's byte bound, asserted on process-wide
//! handles.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary (its own process): the tier, its budget and its counters are
//! process-wide, so the assertions only hold when no concurrent test
//! shares them.

use nvm_llc::prelude::*;
use nvm_llc::sim::runner::{self, metrics};

#[test]
fn resident_results_stay_under_the_byte_budget() {
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models
        .iter()
        .filter(|m| m.name != "SRAM")
        .cloned()
        .collect();
    let evaluator = |accesses: usize| {
        Evaluator::new(baseline.clone(), nvms.clone())
            .base_accesses(accesses)
            .threads(1)
    };
    let w = workloads::by_name("tonto").unwrap();
    let resident = metrics::result_memo_resident_bytes;

    // One row under the default budget: each of its 11 results is
    // charged what it holds — the struct, its name's heap bytes, and
    // its key.
    let first = evaluator(2_000).run_workload(&w);
    let key_bytes = std::mem::size_of::<nvm_llc::store::Key>();
    let charged: usize = std::iter::once(&first.baseline)
        .chain(first.entries.iter().map(|e| &e.result))
        .map(|r| std::mem::size_of::<SimResult>() + r.llc_name.len() + key_bytes)
        .sum();
    let row_bytes = resident().get();
    assert_eq!(row_bytes, charged as u64);

    // Through the one budget seam: two rows' worth, then many distinct
    // keys. Residency never passes the budget, and the tier evicts.
    let budget = 2 * row_bytes;
    runner::set_result_budget(budget);
    let evictions = metrics::result_memo_evictions().get();
    let rows: Vec<_> = (1..=12)
        .map(|i| {
            let row = evaluator(2_000 + 100 * i).run_workload(&w);
            assert!(resident().get() <= budget, "row {i}: {}", resident().get());
            row
        })
        .collect();
    assert!(metrics::result_memo_evictions().get() > evictions);

    // The latest row is still held: a rerun is 11 hits and no pass …
    let (hits, groups) = (metrics::result_memo_hits().get(), metrics::groups().get());
    assert_eq!(evaluator(2_000 + 1_200).run_workload(&w), rows[11]);
    assert_eq!(metrics::result_memo_hits().get() - hits, 11);
    assert_eq!(metrics::groups().get(), groups);

    // … while the first row was shed, so it computes again, bit for bit.
    assert_eq!(evaluator(2_000).run_workload(&w), first);
    assert_eq!(metrics::groups().get() - groups, 1);

    // A zero budget empties the tier; results stay correct.
    runner::set_result_budget(0);
    assert_eq!(resident().get(), 0);
    assert_eq!(evaluator(2_100).run_workload(&w), rows[0]);
    assert!(
        resident().get() <= row_bytes,
        "only the latest result stays"
    );

    // Lifting the bound stops eviction entirely.
    runner::set_result_budget(u64::MAX);
    let evictions = metrics::result_memo_evictions().get();
    for i in 1..=12 {
        let _ = evaluator(2_000 + 100 * i).run_workload(&w);
    }
    assert_eq!(metrics::result_memo_evictions().get(), evictions);
}

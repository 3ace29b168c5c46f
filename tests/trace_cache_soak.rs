//! The trace cache holds its byte budget under a stream of distinct
//! keys: the bound is asserted on the process-wide registry handles.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the trace cache and its counters are process-wide, so no
//! concurrent test may touch them.

use nvm_llc::prelude::*;
use nvm_llc::trace::cache::{self, metrics, BUDGET_BYTES};

/// Sums one family's samples in a Prometheus scrape.
fn scraped(family: &str) -> u64 {
    nvm_llc::obs::metrics::render_prometheus()
        .lines()
        .filter(|line| line.split(['{', ' ']).next() == Some(family))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[test]
fn distinct_lengths_past_the_budget_evict_and_stay_bounded() {
    let w = workloads::by_name("tonto").unwrap();
    const SEED: u64 = 3;
    const SMALL: usize = 1_000;
    const LARGE: usize = 1_000_000;

    // The first key is small, so its events can be compared directly;
    // as the least recently used entry it is the first evicted.
    let first_hash = w.generate_shared(SEED, SMALL).content_hash();
    let mut generated = 0u64;
    let mut accesses = LARGE;
    while generated <= BUDGET_BYTES + BUDGET_BYTES / 2 {
        let trace = w.generate_shared(SEED, accesses);
        let newest = trace.bytes() as u64;
        generated += newest;
        let resident = metrics::resident_bytes().get();
        assert!(
            resident <= BUDGET_BYTES + newest,
            "resident {resident} B over the {BUDGET_BYTES} B budget plus the newest trace"
        );
        accesses += 1;
    }

    let evictions = metrics::evictions().get();
    assert!(evictions > 0, "{generated} B through the budget must evict");
    assert_eq!(scraped("nvmllc_trace_cache_evictions_total"), evictions);
    assert_eq!(
        scraped("nvmllc_trace_cache_resident_bytes"),
        metrics::resident_bytes().get()
    );
    assert!(cache::len() < accesses - LARGE + 1, "some traces were shed");

    // The evicted first key regenerates identical events.
    let misses = metrics::misses().get();
    let again = w.generate_shared(SEED, SMALL);
    assert_eq!(metrics::misses().get(), misses + 1, "re-generated, not hit");
    assert_eq!(again.content_hash(), first_hash);
    assert_eq!(again.events(), w.generate(SEED, SMALL).events());
}

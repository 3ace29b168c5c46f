//! A trace regenerated after the trace cache dropped it still hits the
//! outcome-tape cache: tapes key on the trace's content hash, not on the
//! trace object that happened to be resident when they were recorded.
//!
//! This file holds exactly one test so it compiles to its own test
//! binary: the trace and tape caches and their counters are
//! process-wide, so no concurrent test may touch them.

use std::sync::Arc;

use nvm_llc::prelude::*;
use nvm_llc::sim::tape::cache;

#[test]
fn a_regenerated_trace_hits_the_tape_cache() {
    let w = workloads::by_name("tonto").unwrap();
    let sram = System::new(ArchConfig::gainestown(reference::sram_baseline()));

    // 1. Fetch a tape.
    let trace = w.generate_shared(5, 4_000);
    let first = cache::fetch(&sram, &trace);
    drop(trace);

    // 2–3. Drop every cached trace and regenerate this one.
    nvm_llc::trace::cache::clear();
    let regenerated = w.generate_shared(5, 4_000);

    // 4. Fetch the tape again: one hit, no new functional pass.
    let before = cache::stats();
    let again = cache::fetch(&sram, &regenerated);
    let after = cache::stats();
    assert_eq!(after.hits - before.hits, 1, "{before:?} -> {after:?}");
    assert_eq!(
        after.misses - after.store_hits,
        before.misses - before.store_hits,
        "no new functional pass: {before:?} -> {after:?}"
    );
    assert!(Arc::ptr_eq(&first, &again), "the recorded tape is reused");
}

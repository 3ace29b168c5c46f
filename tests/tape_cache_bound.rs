//! Byte-budget LRU eviction in the outcome-tape cache, asserted on
//! process-wide counters.
//!
//! Like `tape_stats.rs`, this file holds exactly one test so it compiles
//! to its own test binary (its own process): the cache counters and the
//! residency budget are process-wide, so the assertions only hold when
//! no concurrent test shares the cache.

use nvm_llc::prelude::*;
use nvm_llc::sim::tape::cache;

#[test]
fn byte_budget_evicts_lru_and_rerecords_on_refetch() {
    // The cache starts at its default budget; pin 1 MiB before any
    // fetch through the one budget seam.
    assert_eq!(cache::byte_budget(), cache::DEFAULT_BUDGET_BYTES);
    cache::set_byte_budget(1 << 20);

    let models = reference::fixed_capacity();
    let sram = System::new(ArchConfig::gainestown(
        reference::by_name(&models, "SRAM").unwrap(),
    ));
    let ws: Vec<_> = ["tonto", "leela", "gobmk", "mg", "cg", "ft"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let traces: Vec<_> = ws.iter().map(|w| w.generate_shared(11, 20_000)).collect();

    assert_eq!(cache::byte_budget(), 1 << 20);

    // Record all six tapes unbounded, then shrink the budget to two
    // largest-tapes' worth: the LRU sweep must shed the oldest entries.
    cache::set_byte_budget(u64::MAX);
    let first = cache::fetch(&sram, &traces[0]);
    let tapes: Vec<_> = traces.iter().map(|t| cache::fetch(&sram, t)).collect();
    let largest = tapes.iter().map(|t| t.bytes() as u64).max().unwrap();
    assert!(largest > 0);
    cache::set_byte_budget(largest * 2);

    let stats = cache::stats();
    assert!(
        stats.evictions > 0,
        "six tapes through a two-tape budget must evict: {stats:?}"
    );
    assert!(
        stats.resident_bytes <= cache::byte_budget(),
        "residency settles under the budget: {stats:?}"
    );
    assert!(
        cache::len() < ws.len(),
        "some tapes were shed, found {}",
        cache::len()
    );

    // traces[0] was the least recently used, so it was evicted first;
    // re-fetching records a fresh functional pass (a miss, not a hit)
    // and the new tape is byte-identical to the evicted one.
    let misses_before = cache::stats().misses;
    let again = cache::fetch(&sram, &traces[0]);
    assert_eq!(cache::stats().misses, misses_before + 1, "re-record");
    assert_eq!(again.bytes(), first.bytes());
    assert_eq!(sram.replay(&again), sram.replay(&first));

    // A budget smaller than any single tape still serves fetches: the
    // key being recorded is exempt from its own eviction sweep, so the
    // replayed result stays correct — the cache just can't retain it
    // once the next key arrives.
    cache::set_byte_budget(1);
    let tape = cache::fetch(&sram, &traces[1]);
    assert_eq!(sram.replay(&tape), sram.run(&traces[1]));
    let _ = cache::fetch(&sram, &traces[2]);
    assert!(cache::len() <= 1, "nothing fits a one-byte budget for long");

    // Lifting the bound stops eviction entirely.
    cache::set_byte_budget(u64::MAX);
    let evictions_before = cache::stats().evictions;
    for trace in &traces {
        let _ = cache::fetch(&sram, trace);
    }
    assert_eq!(cache::stats().evictions, evictions_before);
    assert_eq!(cache::len(), ws.len());
}

//! Tape-cache effectiveness, asserted on process-wide counters.
//!
//! This file holds exactly one test and therefore compiles to its own
//! test binary (its own process): the `nvm_llc::sim::tape::cache`
//! hit/miss counters are global, so the assertion that an evaluation
//! matrix performs *exactly one* functional pass per distinct geometry
//! only holds when no concurrent test is populating the same cache.

use nvm_llc::prelude::*;
use std::collections::HashSet;

/// The tentpole's headline accounting, end to end:
///
/// * fixed-capacity matrix (11 technologies, one shared 2 MB geometry):
///   the batched path fetches the tape *once per group*, so a cold run
///   is one tape-cache miss (= one functional pass) per workload and no
///   hits at all — the ten extra technologies ride the single tape;
/// * rerun warm, each group's one fetch hits;
/// * fixed-area matrix (capacities differ per technology): one miss per
///   *distinct* LLC capacity — each capacity forms one batched group;
/// * the replayed results stay bit-identical to direct `System::run`.
#[test]
fn matrix_records_one_functional_pass_per_distinct_geometry() {
    let cache = nvm_llc::sim::tape::cache::stats;
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

    let before = cache();
    let rows = Evaluator::new(baseline.clone(), nvms.clone())
        .base_accesses(8_000)
        .threads(4)
        .run_all(&ws);
    let after = cache();

    // All 11 fixed-capacity technologies share the 2 MB LLC geometry, so
    // each workload is a single batched group: exactly one functional
    // pass per workload and one tape shared by all eleven engines — no
    // per-technology cache traffic at all.
    assert_eq!(
        after.misses - before.misses,
        ws.len() as u64,
        "one functional pass per workload"
    );
    assert_eq!(
        after.hits - before.hits,
        0,
        "batched groups fetch the tape once, at recording time"
    );
    assert!(after.bytes > before.bytes, "tapes report their footprint");
    assert_eq!(after.evictions, 0, "default budget fits the test tapes");
    assert_eq!(nvm_llc::sim::tape::cache::len(), ws.len());

    // Rerun the same matrix warm: each workload's one group fetches its
    // tape once — one hit per workload, no new passes.
    let before = cache();
    let warm = Evaluator::new(baseline, nvms)
        .base_accesses(8_000)
        .threads(4)
        .run_all(&ws);
    let after = cache();
    assert_eq!(
        after.misses - before.misses,
        0,
        "warm rerun records nothing"
    );
    assert_eq!(
        after.hits - before.hits,
        ws.len() as u64,
        "one fetch per group"
    );
    assert_eq!(rows, warm, "warm and cold rows are bit-identical");

    // Replays are bit-identical to direct runs over a freshly generated
    // (cache-independent) copy of the same trace.
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
    // technologies that land on the same capacity share a tape — and
    // under batching each distinct capacity is exactly one group, hence
    // exactly one cache fetch (a cold miss) regardless of group size.
    let fa = reference::fixed_area();
    let distinct_capacities: HashSet<u64> = fa.iter().map(|m| m.capacity.bytes()).collect();
    let fa_baseline = reference::by_name(&fa, "SRAM").unwrap();
    let fa_nvms: Vec<_> = fa.iter().filter(|m| m.name != "SRAM").cloned().collect();
    let w = workloads::by_name("gobmk").unwrap();
    let before = cache();
    let _ = Evaluator::new(fa_baseline, fa_nvms)
        .base_accesses(8_000)
        .threads(4)
        .run_workload(&w);
    let after = cache();
    assert_eq!(
        after.misses - before.misses,
        distinct_capacities.len() as u64,
        "one functional pass per distinct fixed-area capacity"
    );
    assert_eq!(
        after.hits - before.hits,
        0,
        "one fetch per capacity group: recording is the only cache touch"
    );
}

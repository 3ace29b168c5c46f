//! Parallel evaluation engine, end to end: the scoped worker pool must be
//! bit-identical to the serial path, the process-wide trace cache must
//! hand every same-key consumer the same `Arc<Trace>`, and the
//! batched tape replay behind `run_all` must agree exactly with direct
//! `System::run` at every worker count.

use std::sync::Arc;

use nvm_llc::prelude::*;

fn evaluator() -> Evaluator {
    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    Evaluator::new(baseline, nvms).base_accesses(8_000)
}

/// The determinism guarantee: a 3-workload × 11-technology matrix run
/// serially and with eight workers is `PartialEq`-identical — every
/// timing, energy, and statistics field, not just the shape.
#[test]
fn serial_and_eight_worker_matrices_are_identical() {
    let ws: Vec<_> = ["tonto", "leela", "ft"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let serial = evaluator().threads(1).run_all(&ws);
    let parallel = evaluator().threads(8).run_all(&ws);
    assert_eq!(serial.len(), 3);
    for (row, w) in serial.iter().zip(&ws) {
        assert_eq!(row.workload, w.name());
        assert_eq!(row.entries.len(), 10); // + baseline = 11 technologies
    }
    assert_eq!(serial, parallel);
}

/// `run_workload` is a one-row `run_all`, so it inherits the same
/// guarantee at any worker count.
#[test]
fn single_row_is_worker_count_invariant() {
    let w = workloads::by_name("bzip2").unwrap();
    let serial = evaluator().threads(1).run_workload(&w);
    let parallel = evaluator().threads(4).run_workload(&w);
    assert_eq!(serial, parallel);
}

/// Two fetches of the same `(workload, seed, accesses)` key return
/// pointer-equal `Arc`s — the trace was generated exactly once.
#[test]
fn trace_cache_fetches_are_pointer_equal() {
    let w = workloads::by_name("tonto").unwrap();
    let a = nvm_llc::trace::cache::fetch(&w, 2019, 4_000);
    let b = nvm_llc::trace::cache::fetch(&w, 2019, 4_000);
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(a.events(), w.generate(2019, 4_000).events());
}

/// Evaluations going through `generate_shared` populate the same cache:
/// a later direct fetch sees the already-generated trace.
#[test]
fn evaluator_runs_share_the_trace_cache() {
    let w = workloads::by_name("leela").unwrap();
    let accesses = w.scaled_accesses(8_000);
    let _ = evaluator().threads(2).run_workload(&w);
    let cached = nvm_llc::trace::cache::fetch(&w, 2019, accesses);
    let again = w.generate_shared(2019, accesses);
    assert!(Arc::ptr_eq(&cached, &again));
}

/// The functional/timing split behind `run_all`: matrices computed via
/// cached outcome tapes are bit-identical at every worker count, and
/// every single cell agrees exactly with a fresh, cache-free
/// `System::run` over an independently generated trace.
#[test]
fn tape_replay_matrix_matches_direct_runs_at_every_worker_count() {
    let ws: Vec<_> = ["tonto", "mg"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let reference_rows = evaluator().threads(1).run_all(&ws);
    for threads in [2, 4, 8] {
        assert_eq!(evaluator().threads(threads).run_all(&ws), reference_rows);
    }
    // Cross-check the whole 11-technology matrix against the fused
    // single-pass path, cell by cell. The traces are re-generated (not
    // fetched from the cache), so these runs share nothing with the
    // matrix above except the math.
    let models = reference::fixed_capacity();
    for (row, w) in reference_rows.iter().zip(&ws) {
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
}

/// The batched replay engine behind `run_all` (one tape driving all
/// eleven timing engines in lockstep) is bit-identical at every worker
/// count to the matrix assembled from per-technology fused runs. cg is
/// multi-threaded, so the simple bank's per-core passes are covered.
#[test]
fn batched_and_per_technology_matrices_agree_at_every_worker_count() {
    let ws: Vec<_> = ["leela", "cg"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let models = reference::fixed_capacity();
    let fused: Vec<Vec<SimResult>> = ws
        .iter()
        .map(|w| {
            let trace = w.generate(2019, w.scaled_accesses(8_000));
            models
                .iter()
                .map(|m| {
                    System::new(ArchConfig::gainestown(m.clone()))
                        .with_warmup(nvm_llc::sim::runner::DEFAULT_WARMUP)
                        .run(&trace)
                })
                .collect()
        })
        .collect();
    for threads in [1, 2, 4, 8] {
        let rows = evaluator().threads(threads).run_all(&ws);
        for (row, per_tech) in rows.iter().zip(&fused) {
            for (model, direct) in models.iter().zip(per_tech) {
                let cell = if model.name == "SRAM" {
                    &row.baseline
                } else {
                    &row.entry(&model.name).expect("matrix covers model").result
                };
                assert_eq!(
                    cell, direct,
                    "{} on {} with {threads} workers",
                    model.name, row.workload
                );
            }
        }
    }
}

/// Cached tapes are shared per geometry: two technologies on the same
/// trace and geometry get one pointer-equal tape, and replaying it
/// reproduces each one's fused `run`.
#[test]
fn cached_tapes_are_shared_per_geometry() {
    let w = workloads::by_name("ft").unwrap();
    let trace = w.generate_shared(7, 4_000);
    let models = reference::fixed_capacity();
    let sram = System::new(ArchConfig::gainestown(
        reference::by_name(&models, "SRAM").unwrap(),
    ));
    let kang = System::new(ArchConfig::gainestown(
        reference::by_name(&models, "Kang").unwrap(),
    ));
    // Same trace + same 2 MB geometry: one tape serves both systems.
    let tape_a = nvm_llc::sim::tape::cache::fetch(&sram, &trace);
    let tape_b = nvm_llc::sim::tape::cache::fetch(&kang, &trace);
    assert!(Arc::ptr_eq(&tape_a, &tape_b));
    assert_eq!(sram.replay(&tape_a), sram.run(&trace));
    assert_eq!(kang.replay(&tape_b), kang.run(&trace));
}

mod policy_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The policy axis composes with everything the pool already
        /// guarantees: for random policies, technology subsets, and
        /// worker counts, a multi-worker `run_all` is bit-identical to
        /// the serial path under the same policy.
        #[test]
        fn any_policy_matrix_is_worker_count_invariant(
            policy_idx in 0usize..6,
            threads in 2usize..6,
            subset in 1u32..1024,
            workload_idx in 0usize..3,
        ) {
            let policy = PolicyKind::ALL[policy_idx];
            let models = reference::fixed_capacity();
            let baseline = reference::by_name(&models, "SRAM").unwrap();
            let nvms: Vec<_> = models
                .into_iter()
                .filter(|m| m.name != "SRAM")
                .enumerate()
                .filter(|(i, _)| subset & (1 << i) != 0)
                .map(|(_, m)| m)
                .collect();
            prop_assume!(!nvms.is_empty());
            let make = || {
                Evaluator::new(baseline.clone(), nvms.clone())
                    .base_accesses(3_000)
                    .policy(policy)
            };
            let w = workloads::by_name(["tonto", "leela", "bzip2"][workload_idx]).unwrap();
            let serial = make().threads(1).run_workload(&w);
            let parallel = make().threads(threads).run_workload(&w);
            prop_assert_eq!(serial, parallel);
        }
    }
}

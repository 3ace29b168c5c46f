//! Functional/timing split microbenchmarks: the cost of one functional
//! pass (Phase A, `System::record`) vs one timing replay (Phase B,
//! `System::replay`) vs the fused `System::run`, the batched lockstep
//! replay of 11 technologies (`System::replay_batch`), and the Figure
//! 1-shaped matrix where 11 fixed-capacity technologies
//! share a single geometry — the case the functional/timing split and
//! the batched engine were built for. `cargo run -p nvm-llc-bench --bin tape_bench
//! --release` dumps the headline numbers to `BENCH_tape.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvm_llc::experiments::{evaluator, Configuration};
use nvm_llc::prelude::*;
use nvm_llc::trace::workloads;
use nvm_llc::Scale;

fn bench(c: &mut Criterion) {
    let trace = workloads::by_name("tonto")
        .unwrap()
        .generate_shared(Scale::SMOKE.seed, 50_000);
    let models = reference::fixed_capacity();
    let sram = reference::by_name(&models, "SRAM").unwrap();
    let system = System::new(ArchConfig::gainestown(sram)).with_warmup(0.25);

    let mut group = c.benchmark_group("tape_phases");
    group.sample_size(10);
    group.bench_function("record_functional_pass", |b| {
        b.iter(|| std::hint::black_box(system.record(&trace)))
    });
    let tape = system.record(&trace);
    group.bench_function("replay_timing_pass", |b| {
        b.iter(|| std::hint::black_box(system.replay(&tape)))
    });
    group.bench_function("fused_direct_run", |b| {
        b.iter(|| std::hint::black_box(system.run(&trace)))
    });
    // All 11 fixed-capacity technologies replaying the one tape, 11
    // engines in lockstep.
    let family: Vec<System> = models
        .iter()
        .map(|m| System::new(ArchConfig::gainestown(m.clone())).with_warmup(0.25))
        .collect();
    group.bench_function("replay_batch_11", |b| {
        let refs: Vec<&System> = family.iter().collect();
        b.iter(|| std::hint::black_box(System::replay_batch(&refs, &tape)))
    });
    group.finish();

    // The matrix the split targets: every fixed-capacity technology
    // shares one LLC geometry, so one functional pass per workload serves
    // all 11. `direct` re-simulates each cell the pre-split way;
    // `warm_batched` times `replay_batch` over tapes recorded once (a
    // repeated `run_all` would be answered by the result tier instead).
    let ws = workloads::single_threaded();
    for w in &ws {
        let _ = w.generate_shared(
            Scale::SMOKE.seed,
            w.scaled_accesses(Scale::SMOKE.base_accesses),
        );
    }
    let mut group = c.benchmark_group("tape_matrix");
    group.sample_size(10);
    for techs in [1usize, 11] {
        group.bench_function(format!("direct_{techs}_techs"), |b| {
            let configs: Vec<_> = std::iter::once(reference::by_name(&models, "SRAM").unwrap())
                .chain(
                    models
                        .iter()
                        .filter(|m| m.name != "SRAM")
                        .take(techs - 1)
                        .cloned(),
                )
                .collect();
            b.iter(|| {
                for w in &ws {
                    let trace = w.generate_shared(
                        Scale::SMOKE.seed,
                        w.scaled_accesses(Scale::SMOKE.base_accesses),
                    );
                    for model in &configs {
                        std::hint::black_box(
                            System::new(ArchConfig::gainestown(model.clone()))
                                .with_warmup(0.25)
                                .run(&trace),
                        );
                    }
                }
            })
        });
        group.bench_function(format!("warm_batched_{techs}_techs"), |b| {
            let systems: Vec<System> =
                std::iter::once(reference::by_name(&models, "SRAM").unwrap())
                    .chain(
                        models
                            .iter()
                            .filter(|m| m.name != "SRAM")
                            .take(techs - 1)
                            .cloned(),
                    )
                    .map(|m| System::new(ArchConfig::gainestown(m)).with_warmup(0.25))
                    .collect();
            let refs: Vec<&System> = systems.iter().collect();
            let tapes: Vec<_> = ws
                .iter()
                .map(|w| {
                    refs[0].record(&w.generate_shared(
                        Scale::SMOKE.seed,
                        w.scaled_accesses(Scale::SMOKE.base_accesses),
                    ))
                })
                .collect();
            b.iter(|| {
                for tape in &tapes {
                    std::hint::black_box(System::replay_batch(&refs, tape));
                }
            })
        });
    }
    group.finish();

    // Keep the shared-evaluator smoke path exercised too, so this bench
    // fails loudly if the experiments-facing API drifts. A warm row is
    // served from the in-memory result tier.
    let mut group = c.benchmark_group("tape_smoke");
    group.sample_size(10);
    group.bench_function("fixed_capacity_row_warm", |b| {
        let e = evaluator(Configuration::FixedCapacity, Scale::SMOKE).threads(1);
        let w = workloads::by_name("tonto").unwrap();
        let _ = e.run_workload(&w);
        b.iter(|| std::hint::black_box(e.run_workload(&w)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! Worker-pool scaling of the evaluation engine: the single-threaded
//! panels of Figure 1 (fixed capacity, one LLC geometry per workload)
//! and Figure 2 (fixed area, six LLC capacities fed by one functional
//! pass per workload) at 1/2/4/8 workers, plus trace generation
//! materialized vs streamed. Every timed iteration empties the
//! process-wide result tier first, so it computes the whole matrix
//! instead of reading the previous iteration's results from memory.
//! The numbers feed EXPERIMENTS.md's "Evaluation engine performance".

use criterion::{criterion_group, criterion_main, Criterion};
use nvm_llc::experiments::{evaluator, Configuration};
use nvm_llc::sim::runner;
use nvm_llc::trace::workloads;
use nvm_llc::Scale;

/// Empties the result tier, so the next `run_all` computes every cell.
fn forget_results() {
    runner::set_result_budget(0);
    runner::set_result_budget(runner::RESULT_BUDGET_BYTES);
}

fn bench(c: &mut Criterion) {
    let ws = workloads::single_threaded();

    let mut group = c.benchmark_group("runner_scaling");
    group.sample_size(10);
    for (name, configuration) in [
        ("fig1", Configuration::FixedCapacity),
        ("fig2", Configuration::FixedArea),
    ] {
        for threads in [1usize, 2, 4, 8] {
            group.bench_function(format!("{name}_matrix_{threads}_threads"), |b| {
                let eval = evaluator(configuration, Scale::SMOKE).threads(threads);
                b.iter(|| {
                    forget_results();
                    std::hint::black_box(eval.run_all(&ws))
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("trace_generate");
    group.sample_size(10);
    let tonto = workloads::by_name("tonto").unwrap();
    group.bench_function("materialized", |b| {
        b.iter(|| std::hint::black_box(tonto.generate(Scale::SMOKE.seed, 50_000)))
    });
    group.bench_function("streamed", |b| {
        b.iter(|| std::hint::black_box(tonto.events(Scale::SMOKE.seed, 50_000).count()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! Worker-pool scaling of the evaluation engine: a Figure 1-shaped
//! (workload × technology) matrix at 1/2/4/8 workers, plus trace
//! generation materialized vs streamed. The 1-thread sample is the
//! legacy serial path; dividing its time by the 4-worker time gives the
//! headline speedup reported in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use nvm_llc::experiments::{evaluator, Configuration};
use nvm_llc::trace::workloads;
use nvm_llc::Scale;

fn bench(c: &mut Criterion) {
    let ws = workloads::single_threaded();

    let mut group = c.benchmark_group("runner_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("fig1_matrix_{threads}_threads"), |b| {
            let eval = evaluator(Configuration::FixedCapacity, Scale::SMOKE).threads(threads);
            b.iter(|| std::hint::black_box(eval.run_all(&ws)))
        });
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

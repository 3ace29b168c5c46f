//! The CLI matrix workloads, `fig1-cold` and `fig2-cold`: what
//! `nvm-llc fig1`/`fig2` cost a user, one fresh process per figure so
//! every iteration starts with empty trace and tape caches.

use std::time::Instant;

use nvm_llc::experiments::fig1::Figure;
use nvm_llc::experiments::{self, Configuration};
use nvm_llc::sim::{MatrixRow, PolicyKind};
use nvm_llc::trace::workloads;
use nvm_llc::Scale;

use crate::proc::{kv_f64, parse_kv, peak_rss_mb, say, Child};
use crate::replica::{attribute, Counters, Layers, Replica, Setup};
use crate::report::{Outcome, Rounds, PER_LAYER};
use crate::stats::Measured;
use crate::{another_round, Opts, Workload};

/// Worker threads of the timed figure, the load shape sized for a
/// 2-core host.
const THREADS: usize = 2;

fn configuration(workload: Workload) -> Configuration {
    match workload {
        Workload::Fig1Cold => Configuration::FixedCapacity,
        Workload::Fig2Cold => Configuration::FixedArea,
        other => panic!("{} is not a matrix workload", other.name()),
    }
}

fn child_args(mode: &str, workload: Workload, opts: &Opts) -> Vec<String> {
    vec![
        mode.to_owned(),
        "--workload".to_owned(),
        workload.name().to_owned(),
        "--seed".to_owned(),
        opts.seed.to_string(),
        "--accesses".to_owned(),
        opts.sizes.matrix_accesses.to_string(),
    ]
}

/// Runs a matrix workload: figures until `opts.seconds` have passed,
/// or, traced, decompositions until then.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    if opts.trace {
        return traced(workload, opts);
    }
    let start = Instant::now();
    let mut rounds = Rounds::default();
    let mut outcome = Outcome::default();
    let mut first_digest = None;
    loop {
        let mut args = child_args("child-matrix", workload, opts);
        // The first figure is also checked row by row.
        args.extend(["--check".to_owned(), first_digest.is_none().to_string()]);
        let mut child = Child::spawn(&args);
        child.read("ready");
        rounds.setups.push(child.spawned.elapsed().as_secs_f64());
        let kv = parse_kv(&child.read("result"));
        child.finish();

        let rows = kv_f64(&kv, "rows");
        let run_s = kv_f64(&kv, "run_s");
        rounds.latencies.push(vec![run_s * 1e3 / rows]);
        rounds.rates.push(rows / run_s);
        rounds.rss_mb.push(kv_f64(&kv, "rss_mb"));
        let digest = kv["digest"].clone();
        outcome.attempted += rows as u64 + kv_f64(&kv, "checked") as u64;
        outcome.failed += kv_f64(&kv, "mismatches") as u64;
        if *first_digest.get_or_insert_with(|| digest.clone()) != digest {
            outcome.failed += rows as u64;
        }
        if !another_round(start, rounds.setups.len(), opts.seconds) {
            break;
        }
    }
    outcome.metrics = rounds.end_to_end();
    outcome
}

/// Traced: per iteration, one fresh child runs the figure through
/// `Evaluator::run_all` and another through the replica, in alternating
/// order so that neither always runs on a host the other just warmed.
/// Their rows must match; each per-layer metric is the median over
/// iterations.
fn traced(workload: Workload, opts: &Opts) -> Outcome {
    let start = Instant::now();
    let mut outcome = Outcome::default();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); PER_LAYER.len()];
    for iteration in 0.. {
        let run = |mode: &str| {
            let mut child = Child::spawn(&child_args(mode, workload, opts));
            let lines = child.read_all();
            child.finish();
            let (rows, result): (Vec<String>, Vec<String>) =
                lines.into_iter().partition(|l| l.starts_with("row "));
            let result = result
                .iter()
                .find_map(|l| l.strip_prefix("result "))
                .map(parse_kv)
                .expect("traced child result line");
            (rows, result)
        };
        let modes = ["child-matrix-trace", "child-matrix-replica"];
        let [(rows, timed), (replayed, layers)] = if iteration % 2 == 0 {
            modes.map(run)
        } else {
            let [replica, timed] = [modes[1], modes[0]].map(run);
            [timed, replica]
        };
        outcome.attempted += rows.len() as u64;
        outcome.failed += rows.iter().zip(&replayed).filter(|(a, b)| a != b).count() as u64
            + rows.len().abs_diff(replayed.len()) as u64;
        let metrics = attribute(
            kv_f64(&timed, "op_ms"),
            &Layers::from_kv(&layers),
            1.0,
            0.0,
            &Counters::from_kv(&timed),
            0.0,
        );
        for ((_, v), values) in metrics.into_iter().zip(&mut values) {
            values.push(v);
        }
        if !another_round(start, iteration + 1, opts.seconds) {
            break;
        }
    }
    outcome.metrics = PER_LAYER
        .iter()
        .zip(&values)
        .map(|((name, _), v)| (*name, Measured::median(v)))
        .collect();
    outcome
}

/// The timed child: builds the CLI's evaluator, reports ready, runs the
/// figure on [`THREADS`] workers, and reports its wall time, render
/// digest and peak RSS. With `check`, it then compares every figure row
/// against a fresh `run_workload`.
pub fn child(workload: Workload, seed: u64, accesses: usize, check: bool) {
    let configuration = configuration(workload);
    let eval = experiments::evaluator(
        configuration,
        Scale {
            base_accesses: accesses,
            seed,
        },
    )
    .threads(THREADS);
    let (single, multi) = (workloads::single_threaded(), workloads::multi_threaded());
    say("ready");
    let start = Instant::now();
    let figure = Figure {
        configuration,
        single_threaded: eval.run_all(&single),
        multi_threaded: eval.run_all(&multi),
    };
    let run_s = start.elapsed().as_secs_f64();
    let digest = nvm_llc::store::fnv1a64(figure.render().as_bytes());
    let rss_mb = peak_rss_mb();
    let (checked, mismatches) = if check {
        let all: Vec<_> = single.iter().chain(&multi).collect();
        let bad = all
            .iter()
            .filter(|w| figure.row(w.name()) != Some(&eval.run_workload(w)))
            .count();
        (all.len(), bad)
    } else {
        (0, 0)
    };
    say(&format!(
        "result run_s={run_s:?} rows={} digest={digest:016x} rss_mb={rss_mb:?} \
         checked={checked} mismatches={mismatches}",
        figure.all_rows().count()
    ));
}

/// A traced child: the figure in a fresh process, through
/// `Evaluator::run_all` on one thread (reporting its wall time and the
/// registry counters) or, with `replica`, through the [`Replica`]
/// (reporting the per-layer split). Either way it prints a digest of
/// every rendered row.
pub fn trace_child(workload: Workload, seed: u64, accesses: usize, replica: bool) {
    let configuration = configuration(workload);
    let all: Vec<_> = workloads::single_threaded()
        .into_iter()
        .chain(workloads::multi_threaded())
        .collect();
    let (rows, result): (Vec<MatrixRow>, String) = if replica {
        let setup = Setup::new(configuration, accesses, seed, PolicyKind::Lru);
        let mut replica = Replica::new(None);
        let rows = all.iter().map(|w| replica.row(&setup, w)).collect();
        (rows, replica.layers.to_kv())
    } else {
        let eval = experiments::evaluator(
            configuration,
            Scale {
                base_accesses: accesses,
                seed,
            },
        )
        .threads(1);
        let (single, multi) = all.split_at(workloads::single_threaded().len());
        let before = nvm_llc::obs::metrics::render_prometheus();
        let start = Instant::now();
        let rows = eval
            .run_all(single)
            .into_iter()
            .chain(eval.run_all(multi))
            .collect();
        let op_ms = start.elapsed().as_secs_f64() * 1e3;
        let counters = Counters::delta(&before, &nvm_llc::obs::metrics::render_prometheus());
        (rows, format!("op_ms={op_ms:?} {}", counters.to_kv()))
    };
    for row in &rows {
        let body = nvm_llc::serve::json::render_row(row);
        say(&format!(
            "row {} {:016x}",
            row.workload,
            nvm_llc::store::fnv1a64(body.as_bytes())
        ));
    }
    say(&format!("result {result}"));
}

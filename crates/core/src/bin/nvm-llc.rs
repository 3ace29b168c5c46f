//! `nvm-llc` — command-line front end for the paper-reproduction harness.
//!
//! ```text
//! nvm-llc <artifact> [--scale smoke|default|full] [--threads N]
//!         [--tape-cache-mb N] [--store-dir PATH] [--stats]
//!         [--trace-out PATH]
//!
//! artifacts:
//!   table2 | table3 | table4 | table5 | table6
//!   fig1 | fig2 | fig4 | sweep | lifetime | selection
//!   all                  every artifact in paper order
//!   cell <name>          print one technology's .cell model
//!   characterize <bmk>   Table VI features for one workload
//!   mrc <bmk>            reuse-distance miss-ratio curve
//!   serve [options]      run the nvm-llcd evaluation service
//!   route [options]      run a thin router over nvm-llcd shards
//! ```

use std::process::ExitCode;

use nvm_llc::experiments::{
    core_sweep, dl_extension, fig1, fig2, fig4, lifetime, selection, table2, table3, table4,
    table5, table6,
};
use nvm_llc::obs::trace;
use nvm_llc::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nvm-llc <artifact> [--scale smoke|default|full] [--threads N]\n\
         \x20               [--policy lru|random|srrip|drrip|ship|endurance]\n\
         \x20               [--tape-cache-mb N]   (0 lifts the tape-cache bound)\n\
         \x20               [--store-dir PATH]    (persistent result store)\n\
         \x20               [--stats]             (log cache counters on exit)\n\
         \x20               [--trace-out PATH]    (write a chrome://tracing span trace)\n\
         artifacts: table2 table3 table4 table5 table6 fig1 fig2 fig4 sweep\n\
         \x20          lifetime selection dl all | cell <name> | characterize <bmk> | mrc <bmk>\n\
         \x20          serve [options]   (see `nvm-llc serve --help`)\n\
         \x20          route [options]   (see `nvm-llc route --help`)"
    );
    ExitCode::from(2)
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match args.iter().position(|a| a == "--scale") {
        None => Ok(Scale::DEFAULT),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("smoke") => Ok(Scale::SMOKE),
            Some("default") => Ok(Scale::DEFAULT),
            Some("full") => Ok(Scale::FULL),
            other => Err(format!("bad --scale value {other:?}")),
        },
    }
}

/// `--threads N` pins the evaluation worker-pool size by exporting
/// `NVM_LLC_THREADS` before any experiment spawns workers. Explicit
/// `Evaluator::threads(..)` calls still win; without the flag the env
/// var (if set by the caller) and then `available_parallelism` apply.
fn apply_threads(args: &[String]) -> Result<(), String> {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(());
    };
    let value = args.get(i + 1).map(String::as_str);
    match value.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => {
            std::env::set_var(nvm_llc::sim::runner::THREADS_ENV, n.to_string());
            Ok(())
        }
        _ => Err(format!(
            "bad --threads value {value:?} (want an integer >= 1)"
        )),
    }
}

/// `--policy NAME` pins the LLC replacement policy every evaluation in
/// this process runs under by exporting `NVM_LLC_POLICY` before any
/// experiment builds an `Evaluator`. Explicit `Evaluator::policy(..)`
/// calls still win; without the flag the env var (if set by the caller)
/// and then LRU apply. An unknown name on the command line is a hard
/// usage error — only a set-but-invalid *environment* value downgrades
/// to a warning.
fn apply_policy(args: &[String]) -> Result<(), String> {
    let Some(i) = args.iter().position(|a| a == "--policy") else {
        return Ok(());
    };
    let value = args.get(i + 1).map(String::as_str);
    match value.and_then(nvm_llc::sim::PolicyKind::parse) {
        Some(policy) => {
            std::env::set_var(nvm_llc::sim::POLICY_ENV, policy.name());
            Ok(())
        }
        None => Err(format!(
            "bad --policy value {value:?} (want one of lru, random, srrip, drrip, ship, endurance)"
        )),
    }
}

/// `--tape-cache-mb N` bounds the process-wide outcome-tape cache to
/// `N` MiB (`0` lifts the bound entirely, the default is ~256 MiB).
fn apply_tape_cache_budget(args: &[String]) -> Result<(), String> {
    let Some(i) = args.iter().position(|a| a == "--tape-cache-mb") else {
        return Ok(());
    };
    let value = args.get(i + 1).map(String::as_str);
    match value.map(nvm_llc::sim::tape::cache::parse_budget_mib) {
        Some(Ok(bytes)) => {
            nvm_llc::sim::tape::cache::set_byte_budget(bytes);
            Ok(())
        }
        _ => Err(format!(
            "bad --tape-cache-mb value {value:?} (want an integer >= 0)"
        )),
    }
}

/// `--store-dir PATH` opens (creating if needed) the persistent
/// content-addressed result store at `PATH` and installs it process-
/// wide: every evaluation reads finished results and outcome tapes
/// through it and writes fresh ones back, so a re-run — even in a new
/// process — skips completed work.
fn apply_store_dir(args: &[String]) -> Result<(), String> {
    let Some(i) = args.iter().position(|a| a == "--store-dir") else {
        return Ok(());
    };
    let Some(path) = args.get(i + 1) else {
        return Err("--store-dir needs a path".to_owned());
    };
    let store =
        nvm_llc::store::Store::open(path).map_err(|e| format!("--store-dir {path}: {e}"))?;
    nvm_llc::sim::persist::set_global_store(Some(std::sync::Arc::new(store)));
    Ok(())
}

/// `--trace-out PATH` traces the whole run under one root trace
/// collector and writes its span tree as chrome://tracing JSON on exit.
/// An unwritable path warns once on stderr and disables tracing — the
/// run itself proceeds (matching the `NVM_LLC_THREADS` /
/// `NVM_LLC_TAPE_CACHE_MB` fallback convention). Returns the path to
/// write on success, `Err` only for a missing value.
fn apply_trace_out(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    let Some(i) = args.iter().position(|a| a == "--trace-out") else {
        return Ok(None);
    };
    let Some(path) = args.get(i + 1) else {
        return Err("--trace-out needs a path".to_owned());
    };
    let path = std::path::PathBuf::from(path);
    // Probe writability up front so a typo'd directory fails before an
    // hour-long run, not after.
    if let Err(e) = std::fs::File::create(&path) {
        eprintln!(
            "warning: ignoring unwritable --trace-out {}: {e}; no trace will be written",
            path.display()
        );
        return Ok(None);
    }
    Ok(Some(path))
}

/// After an evaluation artifact finishes, say how well the process-wide
/// caches did — the trace cache's residency and evictions and the tape
/// cache's functional-pass accounting — and, with `--store-dir`, the store's
/// traffic and the trace cache's hits and misses. Opt-in via `--stats`;
/// every number is read from the registry handles `/metricsz` renders.
fn log_cache_stats() {
    let tc = nvm_llc::sim::tape::cache::stats();
    nvm_llc::obs::info!(
        "cli", "cache stats";
        "resident_traces" => nvm_llc::trace::cache::len(),
        "trace_resident_bytes" => nvm_llc::trace::cache::metrics::resident_bytes().get(),
        "trace_evictions" => nvm_llc::trace::cache::metrics::evictions().get(),
        "tape_cache" => tc.to_string(),
        "tape_hits" => tc.hits,
        "tape_misses" => tc.misses,
        "tape_store_hits" => tc.store_hits,
        "tape_evictions" => tc.evictions,
    );
    if let Some(store) = nvm_llc::sim::persist::global_store() {
        nvm_llc::obs::info!(
            "cli", "store stats";
            "store" => store.stats().to_string(),
            "trace_hits" => nvm_llc::trace::cache::metrics::hits().get(),
            "trace_misses" => nvm_llc::trace::cache::metrics::misses().get(),
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(artifact) = args.first() else {
        return usage();
    };
    if artifact == "serve" {
        let rest = &args[1..];
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            println!(
                "usage: nvm-llc serve [options]\n\n{}",
                nvm_llc::serve::USAGE
            );
            return ExitCode::SUCCESS;
        }
        let config = match nvm_llc::serve::ServeConfig::parse_args(rest) {
            Ok(config) => config,
            Err(message) => {
                eprintln!("nvm-llc serve: {message}\n\n{}", nvm_llc::serve::USAGE);
                return ExitCode::from(2);
            }
        };
        return match nvm_llc::serve::run(config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("nvm-llc serve: {error}");
                ExitCode::FAILURE
            }
        };
    }
    if artifact == "route" {
        let rest = &args[1..];
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            println!(
                "usage: nvm-llc route [options]\n\n{}",
                nvm_llc::serve::cluster::ROUTER_USAGE
            );
            return ExitCode::SUCCESS;
        }
        let config = match nvm_llc::serve::cluster::RouterConfig::parse_args(rest) {
            Ok(config) => config,
            Err(message) => {
                eprintln!(
                    "nvm-llc route: {message}\n\n{}",
                    nvm_llc::serve::cluster::ROUTER_USAGE
                );
                return ExitCode::from(2);
            }
        };
        return match nvm_llc::serve::run_router(config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("nvm-llc route: {error}");
                ExitCode::FAILURE
            }
        };
    }
    let scale = match parse_scale(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if let Err(e) = apply_threads(&args) {
        eprintln!("{e}");
        return usage();
    }
    if let Err(e) = apply_policy(&args) {
        eprintln!("{e}");
        return usage();
    }
    if let Err(e) = apply_tape_cache_budget(&args) {
        eprintln!("{e}");
        return usage();
    }
    if let Err(e) = apply_store_dir(&args) {
        eprintln!("{e}");
        return usage();
    }
    let trace_out = match apply_trace_out(&args) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let root_trace = trace_out
        .as_ref()
        .map(|_| trace::Collector::begin(None, trace::MAX_SPANS_PER_RUN));
    let _attached = root_trace.as_ref().map(|root| trace::attach(root, 0));

    // `--stats` reports through the structured logger; make sure the
    // report is visible even with NVM_LLC_LOG unset (env still wins).
    if args.iter().any(|a| a == "--stats") {
        nvm_llc::obs::log::set_default_level(nvm_llc::obs::log::Level::Info);
    }

    // Cache-effectiveness logging is opt-in (`--stats`), and only
    // artifacts that drive the evaluation engine have anything to say.
    let evaluates = args.iter().any(|a| a == "--stats")
        && !matches!(
            artifact.as_str(),
            "table2" | "table3" | "table4" | "cell" | "characterize" | "mrc"
        );

    match artifact.as_str() {
        "table2" => println!("{}", table2::run().render()),
        "table3" => println!("{}", table3::run().render()),
        "table4" => println!("{}", table4::render_default()),
        "table5" => println!("{}", table5::run(scale).render()),
        "table6" => println!("{}", table6::run(scale).render()),
        "fig1" => println!("{}", fig1::run(scale).render()),
        "fig2" => println!("{}", fig2::run(scale).render()),
        "fig4" => println!("{}", fig4::run(scale).render()),
        "sweep" => println!("{}", core_sweep::run(scale).render()),
        "lifetime" => println!("{}", lifetime::run(scale).render()),
        "selection" => println!("{}", selection::run(scale).render()),
        "dl" => println!("{}", dl_extension::run(scale).render()),
        "all" => {
            println!("{}\n", table2::run().render());
            println!("{}\n", table3::run().render());
            println!("{}\n", table4::render_default());
            println!("{}\n", table5::run(scale).render());
            println!("{}\n", table6::run(scale).render());
            println!("{}\n", fig1::run(scale).render());
            println!("{}\n", fig2::run(scale).render());
            println!("{}\n", core_sweep::run(scale).render());
            println!("{}\n", fig4::run(scale).render());
            println!("{}\n", lifetime::run(scale).render());
            println!("{}\n", selection::run(scale).render());
            println!("{}", dl_extension::run(scale).render());
        }
        "cell" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            match Catalog::paper().get(name) {
                Ok(cell) => print!("{}", nvm_llc::cell::cellfile::to_string(cell)),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "characterize" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(workload) = workloads::by_name(name) else {
                eprintln!("unknown workload `{name}`");
                return ExitCode::FAILURE;
            };
            let trace =
                workload.generate(scale.seed, workload.scaled_accesses(scale.base_accesses));
            let features = profiler::characterize(workload.name(), &trace);
            println!("{features}");
        }
        "mrc" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(workload) = workloads::by_name(name) else {
                eprintln!("unknown workload `{name}`");
                return ExitCode::FAILURE;
            };
            let trace =
                workload.generate(scale.seed, workload.scaled_accesses(scale.base_accesses));
            let histogram = nvm_llc::prism::reuse::reuse_histogram(&trace);
            println!("{name}: miss-ratio curve (fully-associative LRU)");
            println!("{:>12} {:>12} {:>10}", "capacity", "blocks", "miss");
            for (blocks, miss) in histogram.miss_ratio_curve(1 << 9, 1 << 21) {
                println!(
                    "{:>9} KB {:>12} {:>9.1}%",
                    blocks * 64 / 1024,
                    blocks,
                    miss * 100.0
                );
            }
        }
        _ => return usage(),
    }
    if evaluates {
        log_cache_stats();
    }
    if let (Some(path), Some(root)) = (trace_out, root_trace) {
        if let Err(e) = std::fs::write(&path, root.render_chrome("nvm-llc")) {
            eprintln!(
                "warning: failed to write --trace-out {}: {e}",
                path.display()
            );
        }
    }
    ExitCode::SUCCESS
}

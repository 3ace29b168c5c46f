//! `nvm-llc` — command-line front end for the paper-reproduction harness.
//!
//! ```text
//! nvm-llc <artifact> [--scale smoke|default|full] [--threads N]
//!         [--policy NAME] [--store-dir PATH] [--stats]
//!         [--trace-out PATH]
//!
//! artifacts:
//!   table2 | table3 | table4 | table5 | table6
//!   fig1 | fig2 | fig4 | sweep | lifetime | selection
//!   all                  every artifact in paper order
//!   cell <name>          print one technology's .cell model
//!   characterize <bmk>   Table VI features for one workload
//!   mrc <bmk>            reuse-distance miss-ratio curve
//!   serve [options]      run the nvm-llcd evaluation service (a shard
//!                        or thin router with --peers)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use nvm_llc::experiments::{
    core_sweep, dl_extension, fig1, fig2, fig4, lifetime, selection, table2, table3, table4,
    table5, table6, Run,
};
use nvm_llc::obs::trace;
use nvm_llc::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nvm-llc <artifact> [--scale smoke|default|full] [--threads N]\n\
         \x20               [--policy lru|random|srrip|drrip|ship|endurance]\n\
         \x20               [--store-dir PATH]    (persistent result store)\n\
         \x20               [--stats]             (log cache counters on exit)\n\
         \x20               [--trace-out PATH]    (write a chrome://tracing span trace)\n\
         artifacts: table2 table3 table4 table5 table6 fig1 fig2 fig4 sweep\n\
         \x20          lifetime selection dl all | cell <name> | characterize <bmk> | mrc <bmk>\n\
         \x20          serve [options]   (see `nvm-llc serve --help`)"
    );
    ExitCode::from(2)
}

/// One parsed command line (everything but `serve`, whose options
/// [`nvm_llc::serve::ServeConfig::parse_args`] owns).
struct Cli {
    artifact: String,
    /// The one positional argument `cell`, `characterize` and `mrc` take.
    name: Option<String>,
    /// Scale, worker count, replacement policy and store of every
    /// evaluation this invocation runs.
    run: Run,
    /// `--stats`: log cache counters on exit.
    stats: bool,
    /// `--trace-out PATH`: write the run's span tree here.
    trace_out: Option<PathBuf>,
}

impl Cli {
    /// Parses `args` (artifact first) in one pass. Unknown flags,
    /// missing or bad values and stray positional arguments are errors;
    /// `--store-dir` opens (creating if needed) its store last, so a
    /// bad flag creates no store directory.
    fn parse(args: &[String]) -> Result<Cli, String> {
        fn next<'a>(
            it: &mut impl Iterator<Item = &'a String>,
            flag: &str,
        ) -> Result<&'a str, String> {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        }
        let (artifact, rest) = args.split_first().ok_or("missing artifact")?;
        let takes_name = matches!(artifact.as_str(), "cell" | "characterize" | "mrc");
        let mut cli = Cli {
            artifact: artifact.clone(),
            name: None,
            run: Run::default(),
            stats: false,
            trace_out: None,
        };
        let mut store_dir = None;
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    cli.run.scale = match next(&mut it, arg)? {
                        "smoke" => Scale::SMOKE,
                        "default" => Scale::DEFAULT,
                        "full" => Scale::FULL,
                        other => return Err(format!("bad --scale value {other:?}")),
                    }
                }
                "--threads" => {
                    let raw = next(&mut it, arg)?;
                    let threads = raw.parse::<usize>().ok().filter(|&n| n >= 1);
                    cli.run.threads = Some(threads.ok_or_else(|| {
                        format!("bad --threads value {raw:?} (want an integer >= 1)")
                    })?);
                }
                "--policy" => {
                    let raw = next(&mut it, arg)?;
                    cli.run.policy = PolicyKind::parse(raw).ok_or_else(|| {
                        format!(
                            "bad --policy value {raw:?} \
                             (want one of lru, random, srrip, drrip, ship, endurance)"
                        )
                    })?;
                }
                "--store-dir" => store_dir = Some(next(&mut it, arg)?),
                "--stats" => cli.stats = true,
                "--trace-out" => cli.trace_out = Some(PathBuf::from(next(&mut it, arg)?)),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                name if takes_name && cli.name.is_none() => cli.name = Some(name.to_owned()),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        if let Some(path) = store_dir {
            let store = nvm_llc::store::Store::open(path)
                .map_err(|e| format!("--store-dir {path}: {e}"))?;
            cli.run.store = Some(Arc::new(store));
        }
        Ok(cli)
    }
}

/// Probes that `--trace-out PATH` is writable up front, so a typo'd
/// directory fails before an hour-long run, not after. An unwritable
/// path warns once on stderr and disables tracing; the run proceeds.
fn writable_trace_out(path: PathBuf) -> Option<PathBuf> {
    match std::fs::File::create(&path) {
        Ok(_) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: ignoring unwritable --trace-out {}: {e}; no trace will be written",
                path.display()
            );
            None
        }
    }
}

/// After an evaluation artifact finishes, say how well the process-wide
/// caches did — the traces generated, the result tier's hits and
/// residency, and the functional passes run — and, with `--store-dir`,
/// the store's traffic. Opt-in via `--stats`; every number is read from
/// the registry handles `/metricsz` renders.
fn log_cache_stats(store: Option<&nvm_llc::store::Store>) {
    use nvm_llc::sim::runner::metrics;
    nvm_llc::obs::info!(
        "cli", "cache stats";
        "traces_generated" => nvm_llc::trace::metrics::generated().get(),
        "result_hits" => metrics::result_memo_hits().get(),
        "result_evictions" => metrics::result_memo_evictions().get(),
        "result_resident_bytes" => metrics::result_memo_resident_bytes().get(),
        "functional_passes" => metrics::groups().get(),
    );
    if let Some(store) = store {
        nvm_llc::obs::info!(
            "cli", "store stats";
            "store" => store.stats().to_string(),
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "serve") {
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
    let Cli {
        artifact,
        name,
        run,
        stats,
        trace_out,
    } = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let scale = run.scale;
    let trace_out = trace_out.and_then(writable_trace_out);
    let root_trace = trace_out
        .as_ref()
        .map(|_| trace::Collector::begin(None, trace::MAX_SPANS_PER_RUN));
    let _attached = root_trace.as_ref().map(|root| trace::attach(root, 0));

    // `--stats` reports through the structured logger; make sure the
    // report is visible even with NVM_LLC_LOG unset (env still wins).
    if stats {
        nvm_llc::obs::log::set_default_level(nvm_llc::obs::log::Level::Info);
    }

    // Cache-effectiveness logging is opt-in (`--stats`), and only
    // artifacts that drive the evaluation engine have anything to say.
    let evaluates = stats
        && !matches!(
            artifact.as_str(),
            "table2" | "table3" | "table4" | "cell" | "characterize" | "mrc"
        );

    match artifact.as_str() {
        "table2" => println!("{}", table2::run().render()),
        "table3" => println!("{}", table3::run().render()),
        "table4" => println!("{}", table4::render_default()),
        "table5" => println!("{}", table5::run(run.clone()).render()),
        "table6" => println!("{}", table6::run(scale).render()),
        "fig1" => println!("{}", fig1::run(run.clone()).render()),
        "fig2" => println!("{}", fig2::run(run.clone()).render()),
        "fig4" => println!("{}", fig4::run(run.clone()).render()),
        "sweep" => println!("{}", core_sweep::run(run.clone()).render()),
        "lifetime" => println!("{}", lifetime::run(run.clone()).render()),
        "selection" => println!("{}", selection::run(run.clone()).render()),
        "dl" => println!("{}", dl_extension::run(run.clone()).render()),
        "all" => {
            println!("{}\n", table2::run().render());
            println!("{}\n", table3::run().render());
            println!("{}\n", table4::render_default());
            println!("{}\n", table5::run(run.clone()).render());
            println!("{}\n", table6::run(scale).render());
            println!("{}\n", fig1::run(run.clone()).render());
            println!("{}\n", fig2::run(run.clone()).render());
            println!("{}\n", core_sweep::run(run.clone()).render());
            println!("{}\n", fig4::run(run.clone()).render());
            println!("{}\n", lifetime::run(run.clone()).render());
            println!("{}\n", selection::run(run.clone()).render());
            println!("{}", dl_extension::run(run.clone()).render());
        }
        "cell" => {
            let Some(name) = &name else {
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
            let Some(name) = &name else {
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
            let Some(name) = &name else {
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
        log_cache_stats(run.store.as_deref());
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

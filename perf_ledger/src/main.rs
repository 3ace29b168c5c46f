//! `perf_ledger` — the end-to-end and per-layer benchmark of nvm-llc.
//!
//! ```text
//! perf_ledger [--seed N] [--seconds S] [--trace [0|1]] [--scale smoke]
//!     Every workload, each in its own process; prints the ledger JSON.
//! perf_ledger --workload NAME [same options]
//!     One workload; prints its ledger records, then a one-line result
//!     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
//! perf_ledger compare A.json B.json
//!     Per (workload, metric): both sides' medians and quartiles, the
//!     bound and a verdict; exits 1 if an end-to-end metric regressed.
//! ```
//!
//! Runs from the repository root: `cargo run --release --manifest-path
//! perf_ledger/Cargo.toml -- --seed 2019`. The `child-*` subcommands
//! are the processes a run spawns, not an interface.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perf_ledger::{matrix, proc, report, rows, Opts, Sizes, Workload};

const USAGE: &str = "usage: perf_ledger [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--scale smoke|default]\n       perf_ledger compare A.json B.json";

/// Parsed flags: the run options, the named workload, and the child
/// arguments that only spawned processes pass.
struct Args {
    opts: Opts,
    workload: Option<Workload>,
    accesses: usize,
    check: bool,
    store: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        opts: Opts {
            seed: nvm_llc::sim::runner::DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            sizes: Sizes::DEFAULT,
        },
        workload: None,
        accesses: 0,
        check: false,
        store: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad {flag} value {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--scale" => {
                let v = value()?;
                parsed.opts.sizes = Sizes::parse(v).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                parsed.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--accesses" => {
                let v = value()?;
                parsed.accesses = v.parse().map_err(|_| bad(v))?;
            }
            "--check" => parsed.check = value()? == "true",
            "--store" => parsed.store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// The commit the benchmark was built from, when built inside a git
/// work tree; `unknown` otherwise.
fn git_hash() -> String {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unknown".to_owned();
    }
    Command::new("git")
        .arg("-C")
        .arg(&repo)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload, each in its own re-executed process; prints the
/// ledger and fails if any workload's outputs were wrong.
fn ledger(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut lines = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--scale", opts.sizes.name()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("run a workload");
        correct &= output.status.success();
        lines.extend(
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .filter(|l| l.starts_with("{\"workload\""))
                .map(str::to_owned),
        );
    }
    let header = format!(
        "{{\"nproc\":{},\"git\":\"{}\",\"seed\":{},\"seconds\":{:?},\"scale\":\"{}\",\"trace\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_hash(),
        opts.seed,
        opts.seconds,
        opts.sizes.name(),
        u8::from(opts.trace),
    );
    print!("{}", report::ledger(&header, &lines));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| report::compare(&a, &b))
    {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perf_ledger compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (mode, rest) = match args.first() {
        Some(m) if m.starts_with("child-") => (m.as_str(), &args[1..]),
        _ => ("", &args[..]),
    };
    let parsed = match parse(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = || parsed.workload.expect("child needs --workload");
    match mode {
        "child-matrix" => {
            matrix::child(workload(), parsed.opts.seed, parsed.accesses, parsed.check)
        }
        "child-matrix-trace" => {
            matrix::trace_child(workload(), parsed.opts.seed, parsed.accesses, false)
        }
        "child-matrix-replica" => {
            matrix::trace_child(workload(), parsed.opts.seed, parsed.accesses, true)
        }
        "child-daemon" => proc::daemon_child(parsed.store),
        "child-replica" => rows::replica_child(
            workload(),
            parsed.opts.seed,
            &parsed.opts.sizes,
            parsed.store,
        ),
        _ => {
            let Some(workload) = parsed.workload else {
                return ledger(&parsed.opts);
            };
            let outcome = perf_ledger::run(workload, &parsed.opts);
            for line in outcome.ledger_lines(workload) {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            if !outcome.correct() {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

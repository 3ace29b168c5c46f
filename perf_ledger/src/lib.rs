//! `perf_ledger`: the end-to-end and per-layer benchmark of nvm-llc.
//!
//! Five workloads cover the two ways the system is used. Two are CLI
//! matrices (`nvm-llc fig1`/`fig2` run cold in a fresh process); three
//! drive the `/row` daemon (warm in-memory caches, restarts onto a
//! populated store, and a hot/cold mix onto an empty one). Every
//! workload runs in its own child processes, so the process-global
//! trace and tape caches and the peak RSS belong to that workload alone.
//!
//! The end-to-end run ([`report::END_TO_END`]) times what a user waits
//! for. A separate traced run ([`report::PER_LAYER`]) attributes that
//! time to layers by timing calls into each layer's public functions
//! ([`replica`]) and reading the daemon's `/metricsz` counters; nothing
//! inside the program is instrumented for it.

pub mod matrix;
pub mod proc;
pub mod replica;
pub mod report;
pub mod rows;
pub mod stats;

use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fixed-capacity Figure 1 matrix, cold, in a fresh process.
    Fig1Cold,
    /// The fixed-area Figure 2 matrix, cold, in a fresh process.
    Fig2Cold,
    /// `/row` on a daemon whose caches already hold every row.
    RowsWarm,
    /// `/row` sweeps on daemons restarted onto a populated store.
    RowsRestart,
    /// Hot and cold `/row` requests onto fresh daemons and empty stores.
    RowsMixed,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 5] = [
        Workload::Fig1Cold,
        Workload::Fig2Cold,
        Workload::RowsWarm,
        Workload::RowsRestart,
        Workload::RowsMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Cold => "fig1-cold",
            Workload::Fig2Cold => "fig2-cold",
            Workload::RowsWarm => "rows-warm",
            Workload::RowsRestart => "rows-restart",
            Workload::RowsMixed => "rows-mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work each workload does per request or iteration. The
/// default is what the ledger measures; `smoke` shrinks everything so
/// the tests can run every workload in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Base accesses of the matrix workloads (`Scale::base_accesses`).
    pub matrix_accesses: usize,
    /// Accesses of every `rows-warm` row.
    pub warm_accesses: usize,
    /// The access counts `rows-restart` populates and sweeps.
    pub restart_accesses: [usize; 3],
    /// Accesses of the 20 hot `rows-mixed` rows.
    pub hot_accesses: usize,
    /// The access counts cold `rows-mixed` draws pick from.
    pub cold_accesses: [usize; 15],
    /// Requests per fresh daemon in `rows-mixed`.
    pub mixed_round: usize,
    /// Warm requests the traced `rows-warm` replica times.
    pub warm_replica: usize,
}

/// `first, first + step, ...`: fifteen cold access counts.
const fn cold_accesses(first: usize, step: usize) -> [usize; 15] {
    let mut out = [0; 15];
    let mut i = 0;
    while i < 15 {
        out[i] = first + i * step;
        i += 1;
    }
    out
}

impl Sizes {
    /// The ledger's sizes: the paper-scale 200k-access matrices and
    /// the daemon's usual 20k-100k rows.
    pub const DEFAULT: Sizes = Sizes {
        matrix_accesses: 200_000,
        warm_accesses: 200_000,
        restart_accesses: [20_000, 50_000, 100_000],
        hot_accesses: 20_000,
        // 12.5k..82.5k: never the hot 20k, so a cold draw is never a
        // hot row under another name.
        cold_accesses: cold_accesses(12_500, 5_000),
        mixed_round: 1_500,
        warm_replica: 200,
    };

    /// Test sizes: every workload finishes in about a second.
    pub const SMOKE: Sizes = Sizes {
        matrix_accesses: 8_000,
        warm_accesses: 8_000,
        restart_accesses: [2_000, 5_000, 8_000],
        hot_accesses: 2_000,
        cold_accesses: cold_accesses(1_250, 500),
        mixed_round: 120,
        warm_replica: 40,
    };

    /// `"default"` or `"smoke"`, as `--scale` takes it.
    pub fn name(&self) -> &'static str {
        if *self == Sizes::SMOKE {
            "smoke"
        } else {
            "default"
        }
    }

    /// The sizes `--scale` names.
    pub fn parse(name: &str) -> Option<Sizes> {
        match name {
            "default" => Some(Sizes::DEFAULT),
            "smoke" => Some(Sizes::SMOKE),
            _ => None,
        }
    }
}

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Trace seed (matrices) or request-plan seed (daemon workloads).
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub trace: bool,
    /// Work per request or iteration.
    pub sizes: Sizes,
}

/// Runs one workload in this process (which spawns the workload's own
/// children) and returns what it measured.
pub fn run(workload: Workload, opts: &Opts) -> report::Outcome {
    match workload {
        Workload::Fig1Cold | Workload::Fig2Cold => matrix::run(workload, opts),
        Workload::RowsWarm | Workload::RowsRestart | Workload::RowsMixed => {
            rows::run(workload, opts)
        }
    }
}

/// Whether a run that began at `start` and has finished `rounds` whole
/// rounds should start another: only if a round of the mean length so
/// far would end within `seconds`.
pub fn another_round(start: Instant, rounds: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / rounds as f64 <= seconds
}

//! Experiment runner: workload × LLC-technology matrices with
//! SRAM-normalized metrics (the data behind the paper's Figures 1 and 2).
//!
//! [`Evaluator::run_all`] is the one path every simulating artifact
//! takes: the Figure 1/2 matrices, Table V's SRAM-only baseline column
//! and the lifetime study's endurance-tracked cells
//! ([`Evaluator::endurance`]) alike, so worker count, replacement policy
//! and persistent store reach all of them. The fused [`System::run`]
//! stays as the oracle the tests hold every evaluated cell to.
//!
//! [`Evaluator::run_all`] fans the pending cells of the (workload ×
//! technology) grid out over one scoped worker pool
//! (`std::thread::scope` plus an atomic work-index queue — no external
//! dependencies), one work item per functional pass. The pool returns
//! pass results in work-item order, they are placed by cell number, and
//! rows are assembled serially afterwards, so output is **bit-identical
//! at every worker count**. The worker count comes from
//! [`Evaluator::threads`], else [`std::thread::available_parallelism`];
//! `1` takes the exact serial path (no threads spawned). Every knob is a
//! builder call: the evaluator reads no environment variable and no
//! process-wide setting.
//!
//! Cells share work at three levels. All technologies whose functional
//! geometry matches (the whole fixed-capacity matrix, for instance) form
//! one group per workload, with one outcome-tape key. The groups of a
//! workload whose keys differ only in the LLC (the fixed-area rows, one
//! group per LLC capacity) share one functional pass: a single walk of
//! the private L1/L2 levels feeds one LLC stage per group
//! (`TapeKey::shares_pass`; an inclusive LLC walks alone,
//! since its victims reach back into the private levels). And each
//! group's technologies replay together: every chunk of outcomes a stage
//! emits goes straight into the group's batched timing engines, the
//! kernels [`System::replay_batch`] runs over a recorded tape.
//!
//! A trace lives only as long as its pass, and a tape only as long as
//! its chunk. There is no trace phase and no trace cache: each pass
//! streams its workload's events ([`WorkloadProfile::events`]) through
//! the walk, so a workload computed generates its trace once per pass
//! (once, unless inclusion splits its groups), and no trace or whole
//! tape is ever held.
//!
//! What the process keeps is finished results. Each cell resolves
//! through up to three tiers: the persistent store when one is attached
//! ([`Evaluator::store`]), the in-memory result memo (process-wide,
//! bounded at [`RESULT_BUDGET_BYTES`]), and only then the group
//! computation. Both tiers key on request identity
//! ([`crate::persist::result_key_encoded`]): each system's canonical
//! encoding, made once per call, plus the workload's trace id
//! ([`WorkloadProfile::trace_id`]), which the profile, seed and length
//! determine without generating anything. So every cell is looked up
//! before any trace exists, and a trace is generated only for a workload
//! that still has a cell to compute: a row served from either tier
//! generates no trace. Store hits and computed results both enter the
//! memo, and with a store attached every result not read from it is
//! written back, so a store holds every cell its evaluator resolves. The
//! store answers before the memo because a caller attached it as the
//! authority: a cell it holds is always served from it, and its hit
//! counters account for every such cell. Both tiers are bit-exact, so a
//! tier hit never changes a result — only how fast it arrives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use nvm_llc_circuit::LlcModel;
use nvm_llc_obs::memo::{Memo, MemoMetrics};
use nvm_llc_store::{Key, Store};
use nvm_llc_trace::WorkloadProfile;

use crate::config::ArchConfig;
use crate::endurance::WearPolicy;
use crate::persist;
use crate::policy::PolicyKind;
use crate::result::SimResult;
use crate::system::System;
use crate::tape::TapeKey;

/// How many accesses (per thread, before the workload's relative-volume
/// scaling) an evaluation replays by default. Tests use smaller runs.
pub const DEFAULT_BASE_ACCESSES: usize = 200_000;

/// The seed every reproducible experiment uses.
pub const DEFAULT_SEED: u64 = 2019; // the paper's publication year

/// Cache-warmup fraction for steady-state measurement (Sniper-style
/// warmup before the region of interest).
pub const DEFAULT_WARMUP: f64 = 0.25;

/// Residency budget of the in-memory result tier: about 10⁵ results.
pub const RESULT_BUDGET_BYTES: u64 = 32 << 20;

/// The in-memory result tier, process-wide, keyed like the store's
/// result records ([`persist::result_key_encoded`]).
fn result_memo() -> &'static Memo<Key, SimResult> {
    static MEMO: OnceLock<Memo<Key, SimResult>> = OnceLock::new();
    MEMO.get_or_init(|| {
        Memo::new(
            RESULT_BUDGET_BYTES,
            |result| {
                (std::mem::size_of::<SimResult>()
                    + result.llc_name.capacity()
                    + std::mem::size_of::<Key>()) as u64
            },
            MemoMetrics {
                hits: Some(metrics::result_memo_hits()),
                misses: None,
                evictions: Some(metrics::result_memo_evictions()),
                resident: Some(metrics::result_memo_resident_bytes()),
            },
        )
    })
}

/// Sets the in-memory result tier's byte budget (process-wide) and
/// sheds least-recently-used results down to it at once. `u64::MAX`
/// lifts the bound; `0` empties the tier, after which each new result
/// is kept only until the next one arrives.
pub fn set_result_budget(bytes: u64) {
    result_memo().set_budget(bytes);
}

/// Computes `f(i, state)` for every `i` in `0..n` on at most `threads`
/// scoped workers, each pulling the next index from an atomic counter
/// and carrying its own `state` from one index to the next, and returns
/// the results in index order. With one worker (or one item) `f` runs in
/// index order on the caller and no thread is spawned — the exact serial
/// path. Every state is dropped before this returns. Workers inherit
/// the caller's trace context (if a request is being traced), so their
/// spans land in its tree.
fn map_indices<T: Send + Sync, S: Default>(
    threads: usize,
    n: usize,
    f: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(n);
    if threads <= 1 {
        let mut state = S::default();
        return (0..n).map(|i| f(i, &mut state)).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let trace = nvm_llc_obs::trace::handle();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (trace, slots, next, f) = (trace.clone(), &slots, &next, &f);
            scope.spawn(move || {
                let _trace = trace.map(|h| h.attach());
                let mut state = S::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else {
                        break;
                    };
                    if slot.set(f(i, &mut state)).is_err() {
                        unreachable!("index {i} computed twice");
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index computed"))
        .collect()
}

/// Evaluator counters in the process-wide [`nvm_llc_obs`] registry.
pub mod metrics {
    use nvm_llc_obs::metrics::{Counter, Gauge};

    /// `nvmllc_eval_runs_total`
    pub fn runs() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_runs_total",
            "Calls to Evaluator::run_all (whole-matrix evaluations).",
        )
    }

    /// `nvmllc_eval_cells_total`
    pub fn cells() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_cells_total",
            "Workload x technology cells evaluated (excludes cells served \
             from the in-memory or persistent result tier).",
        )
    }

    /// `nvmllc_eval_groups_total`
    pub fn groups() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_groups_total",
            "Tape-key groups evaluated (one LLC stage of a functional pass \
             each, and one batched replay).",
        )
    }

    /// `nvmllc_eval_passes_total`
    pub fn passes() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_passes_total",
            "Functional passes run: one walk of a workload's events through \
             the private levels, feeding every LLC geometry it evaluates.",
        )
    }

    /// `nvmllc_eval_result_tier_hits_total`
    pub fn result_tier_hits() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_result_tier_hits_total",
            "Cells filled straight from the persistent result store, \
             skipping evaluation entirely.",
        )
    }

    /// `nvmllc_eval_result_memo_hits_total`
    pub fn result_memo_hits() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_result_memo_hits_total",
            "Cells filled from the in-memory result tier.",
        )
    }

    /// `nvmllc_eval_result_memo_evictions_total`
    pub fn result_memo_evictions() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_result_memo_evictions_total",
            "Results evicted from the in-memory tier to stay under its \
             byte budget.",
        )
    }

    /// `nvmllc_eval_result_memo_resident_bytes`
    pub fn result_memo_resident_bytes() -> &'static Gauge {
        nvm_llc_obs::gauge!(
            "nvmllc_eval_result_memo_resident_bytes",
            "Bytes charged by the results the in-memory tier holds.",
        )
    }

    /// Pre-registers the evaluator's metric inventory, spans included.
    pub fn register() {
        runs();
        cells();
        groups();
        passes();
        result_tier_hits();
        result_memo_hits();
        result_memo_evictions();
        result_memo_resident_bytes();
        for (name, help) in [
            (
                "nvmllc_eval_run_all_seconds",
                "Wall time of the `eval_run_all` span.",
            ),
            (
                "nvmllc_tape_record_seconds",
                "Wall time of the `tape_record` span.",
            ),
            (
                "nvmllc_tape_replay_batch_seconds",
                "Wall time of the `tape_replay_batch` span.",
            ),
            (
                "nvmllc_tape_replay_chunk_seconds",
                "Wall time of one batched-replay event chunk (all \
                 engines over one block of tape lanes).",
            ),
        ] {
            nvm_llc_obs::metrics::histogram(name, help);
        }
    }
}

/// One technology's normalized outcome for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixEntry {
    /// LLC display name (e.g. `Kang_P`).
    pub llc: String,
    /// Raw simulation result.
    pub result: SimResult,
    /// Speedup vs the SRAM baseline (>1 is faster).
    pub speedup: f64,
    /// LLC energy normalized to SRAM (<1 is better).
    pub energy: f64,
    /// ED²P normalized to SRAM (<1 is better).
    pub ed2p: f64,
}

/// A full row of Figure 1/2: one workload against every technology.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Workload name.
    pub workload: String,
    /// The SRAM baseline run.
    pub baseline: SimResult,
    /// One entry per evaluated NVM.
    pub entries: Vec<MatrixEntry>,
}

impl MatrixRow {
    /// The entry for a technology by display or citation name: an exact
    /// match, or a `_`-suffixed variant (`"Kang"` finds `Kang_P`).
    pub fn entry(&self, name: &str) -> Option<&MatrixEntry> {
        self.entries.iter().find(|e| {
            e.llc
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
        })
    }

    /// The most energy-efficient technology of this row.
    pub fn best_energy(&self) -> Option<&MatrixEntry> {
        self.entries
            .iter()
            .min_by(|a, b| a.energy.partial_cmp(&b.energy).expect("finite energy"))
    }

    /// The fastest technology of this row.
    pub fn best_speedup(&self) -> Option<&MatrixEntry> {
        self.entries
            .iter()
            .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("finite speedup"))
    }
}

/// Evaluation harness over a fixed set of LLC models.
#[derive(Debug, Clone)]
pub struct Evaluator {
    baseline: LlcModel,
    nvms: Vec<LlcModel>,
    base_accesses: usize,
    seed: u64,
    cores: Option<u32>,
    endurance: Option<WearPolicy>,
    threads: Option<usize>,
    store: Option<Arc<Store>>,
    policy: PolicyKind,
}

impl Evaluator {
    /// Creates an evaluator normalizing against `baseline` (the SRAM row).
    pub fn new(baseline: LlcModel, nvms: Vec<LlcModel>) -> Self {
        Evaluator {
            baseline,
            nvms,
            base_accesses: DEFAULT_BASE_ACCESSES,
            seed: DEFAULT_SEED,
            cores: None,
            endurance: None,
            threads: None,
            store: None,
            policy: PolicyKind::Lru,
        }
    }

    /// Pins the LLC replacement policy every system in the matrix runs
    /// under; the default is [`PolicyKind::Lru`].
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Tracks LLC wear under `policy` in every system, so each cell's
    /// [`SimResult::endurance`] carries a lifetime report; the default
    /// is no tracking.
    pub fn endurance(mut self, policy: WearPolicy) -> Self {
        self.endurance = Some(policy);
        self
    }

    /// Overrides the base per-thread access count (scaled per workload by
    /// its relative volume).
    pub fn base_accesses(mut self, accesses: usize) -> Self {
        self.base_accesses = accesses;
        self
    }

    /// Overrides the trace seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the core count (Section V-C core sweep); defaults to the
    /// Gainestown quad-core.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Pins the evaluation worker count. `1` forces the serial path (no
    /// threads are spawned); the default is every available core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Attaches a persistent result store: finished results are read
    /// from (and written back to) it, so a repeated evaluation — even
    /// across process restarts — skips both the functional pass and the
    /// timing replay.
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Worker count to use: explicit [`Evaluator::threads`], else every
    /// available core.
    fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// The system one technology column runs: the Gainestown
    /// hierarchy around `llc`, under every knob of this evaluator.
    fn system(&self, llc: &LlcModel) -> System {
        let mut config = ArchConfig::gainestown(llc.clone());
        if let Some(cores) = self.cores {
            config = config.with_cores(cores);
        }
        let system = System::new(config)
            .with_warmup(DEFAULT_WARMUP)
            .with_replacement(self.policy);
        match self.endurance {
            Some(policy) => system.with_endurance_tracking(policy),
            None => system,
        }
    }

    /// Runs one workload against the baseline and every NVM.
    pub fn run_workload(&self, workload: &WorkloadProfile) -> MatrixRow {
        self.run_all(std::slice::from_ref(workload))
            .pop()
            .expect("one workload in, one row out")
    }

    /// The systems one call evaluates, baseline first then each NVM:
    /// the columns of the cell grid. They are trace-independent.
    pub(crate) fn systems(&self) -> Vec<System> {
        std::iter::once(&self.baseline)
            .chain(&self.nvms)
            .map(|llc| self.system(llc))
            .collect()
    }

    /// The id of the trace `workload` runs under this evaluator
    /// ([`WorkloadProfile::trace_id`]), derived without generating it.
    fn trace_id(&self, workload: &WorkloadProfile) -> u128 {
        workload.trace_id(self.seed, workload.scaled_accesses(self.base_accesses))
    }

    /// The result key of every cell of `workloads` × `systems`,
    /// workload-major, derived from the request alone: each system is
    /// encoded once, each workload's trace id is computed without
    /// generating the trace ([`WorkloadProfile::trace_id`]).
    pub(crate) fn cell_keys(&self, workloads: &[WorkloadProfile], systems: &[System]) -> Vec<Key> {
        let encoded: Vec<Vec<u8>> = systems.iter().map(persist::encode_system).collect();
        workloads
            .iter()
            .flat_map(|w| {
                let trace_id = self.trace_id(w);
                encoded
                    .iter()
                    .map(move |system| persist::result_key_encoded(system, trace_id))
            })
            .collect()
    }

    /// Runs a whole workload list (a full Figure 1a/1b/2a/2b panel)
    /// under [`Evaluator::policy`].
    ///
    /// Cells live in a workload × technology grid. Every cell is first
    /// looked up by its result key, which the request alone determines.
    /// The cells left to compute are grouped by outcome-tape key, which
    /// the trace id and the functional geometry determine: all
    /// technologies sharing a workload's functional geometry form one
    /// group, replayed by one batch of timing engines. A workload's
    /// groups that share the private levels form one functional pass,
    /// which streams the workload's events once and feeds one LLC stage
    /// per group. Passes are distributed over [`Evaluator::threads`]
    /// scoped workers pulling indices from an atomic queue; a trace is
    /// generated only for a pass. Every pass is an independent
    /// deterministic computation, and its results are placed by cell
    /// number, so the output is bit-identical to the serial path
    /// regardless of worker count or scheduling.
    pub fn run_all(&self, workloads: &[WorkloadProfile]) -> Vec<MatrixRow> {
        let _span = nvm_llc_obs::span!("eval_run_all");
        metrics::runs().inc();
        let store = self.store.as_ref();
        let threads = self.effective_threads();
        let systems = self.systems();
        let width = systems.len();
        let cell = |wi: usize, mi: usize| wi * width + mi;

        // Result tiers, the store (when attached) then the memo: a cell
        // found in either is filled directly and drops out of scheduling
        // — no trace, no functional pass, no replay. A store hit enters
        // the memo, and a memo hit the store lacks is written back, so a
        // store holds every cell its evaluator resolves. A corrupt or
        // stale record decodes to `None` and falls through.
        let write_back = |key: &Key, result: &SimResult| {
            if let Some(store) = store {
                // Best-effort: a full disk never fails a run.
                let _ = store.put(key, &persist::encode_result(result));
            }
        };
        let keys = self.cell_keys(workloads, &systems);
        let mut slots: Vec<Option<SimResult>> = keys
            .iter()
            .map(|key| {
                let stored = store
                    .and_then(|store| store.get_mapped(key))
                    .and_then(|payload| persist::decode_result(&payload));
                if let Some(result) = stored {
                    metrics::result_tier_hits().inc();
                    result_memo().put(*key, result.clone());
                    return Some(result);
                }
                let result = result_memo().get(key)?;
                write_back(key, &result);
                Some(result)
            })
            .collect();

        // Work items: per workload, the still-unserved technology
        // columns grouped by tape key (insertion-ordered, so scheduling
        // stays deterministic), and the groups whose keys share the
        // private levels joined into one pass. The key derives from the
        // trace id, so grouping generates nothing.
        let mut passes: Vec<(usize, Vec<Vec<usize>>)> = Vec::new();
        for (wi, w) in workloads.iter().enumerate() {
            let trace_id = self.trace_id(w);
            let mut by_key: Vec<(TapeKey, Vec<usize>)> = Vec::new();
            for (mi, system) in systems.iter().enumerate() {
                if slots[cell(wi, mi)].is_some() {
                    continue;
                }
                let key = system.tape_key_for(trace_id);
                match by_key.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, cols)) => cols.push(mi),
                    None => by_key.push((key, vec![mi])),
                }
            }
            let mut joined: Vec<(TapeKey, Vec<Vec<usize>>)> = Vec::new();
            for (key, cols) in by_key {
                match joined.iter_mut().find(|(k, _)| k.shares_pass(&key)) {
                    Some((_, groups)) => groups.push(cols),
                    None => joined.push((key, vec![cols])),
                }
            }
            passes.extend(joined.into_iter().map(|(_, groups)| (wi, groups)));
        }

        // Each pass streams its workload's events once through the
        // private levels into every group's LLC stage, replaying each
        // group's outcomes chunk by chunk as they arrive: no trace and no
        // whole tape is ever held. A worker hands its LLC arrays from one
        // pass to the next, so a reused array is zero-filled instead of
        // faulted in afresh. Results enter the memo and, with a store
        // attached, are written back.
        let computed = map_indices(threads, passes.len(), |pi, spare| {
            let (wi, groups) = &passes[pi];
            let w = &workloads[*wi];
            metrics::passes().inc();
            metrics::groups().add(groups.len() as u64);
            metrics::cells().add(groups.iter().map(Vec::len).sum::<usize>() as u64);
            let members: Vec<Vec<&System>> = groups
                .iter()
                .map(|cols| cols.iter().map(|&mi| &systems[mi]).collect())
                .collect();
            let accesses = w.scaled_accesses(self.base_accesses);
            let results = System::run_groups(&members, w.events(self.seed, accesses), spare);
            for (cols, results) in groups.iter().zip(&results) {
                for (&mi, result) in cols.iter().zip(results) {
                    let key = &keys[cell(*wi, mi)];
                    write_back(key, result);
                    result_memo().put(*key, result.clone());
                }
            }
            results
        });
        for ((wi, groups), results) in passes.iter().zip(computed) {
            for (cols, results) in groups.iter().zip(results) {
                for (&mi, result) in cols.iter().zip(results) {
                    slots[cell(*wi, mi)] = Some(result);
                }
            }
        }

        // Serial assembly: normalization against each row's baseline is
        // independent of how the cells were scheduled.
        let mut cells = slots.into_iter().map(|s| s.expect("every cell computed"));
        workloads
            .iter()
            .map(|w| {
                let baseline = cells.next().expect("baseline cell");
                let entries = (1..width)
                    .map(|_| {
                        let result = cells.next().expect("technology cell");
                        MatrixEntry {
                            llc: result.llc_name.clone(),
                            speedup: result.speedup_vs(&baseline),
                            energy: result.energy_vs(&baseline),
                            ed2p: result.ed2p_vs(&baseline),
                            result,
                        }
                    })
                    .collect();
                MatrixRow {
                    workload: w.name().to_owned(),
                    baseline,
                    entries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_circuit::reference;
    use nvm_llc_trace::workloads;

    /// The result tier is process-wide, and a run it answers computes
    /// nothing. A test that compares runs write-holds this lock and
    /// empties the tier before each compared run; every other evaluating
    /// test read-holds it, so none refills the tier in between.
    static RESULT_TIER: std::sync::RwLock<()> = std::sync::RwLock::new(());

    fn exclusive_tier() -> std::sync::RwLockWriteGuard<'static, ()> {
        RESULT_TIER.write().unwrap_or_else(|e| e.into_inner())
    }

    fn evaluating() -> std::sync::RwLockReadGuard<'static, ()> {
        RESULT_TIER.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Empties the result tier, so the next evaluation computes.
    fn forget_results() {
        set_result_budget(0);
        set_result_budget(RESULT_BUDGET_BYTES);
    }

    fn small_evaluator() -> Evaluator {
        let models = reference::fixed_capacity();
        let baseline = reference::by_name(&models, "SRAM").unwrap();
        let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
        Evaluator::new(baseline, nvms).base_accesses(8_000)
    }

    #[test]
    fn row_contains_all_ten_nvms() {
        let _tier = evaluating();
        let row = small_evaluator().run_workload(&workloads::by_name("tonto").unwrap());
        assert_eq!(row.entries.len(), 10);
        assert_eq!(row.workload, "tonto");
        assert!(row.entry("Jan").is_some());
        assert!(row.entry("Zhang_R").is_some());
    }

    #[test]
    fn baseline_normalizes_to_itself() {
        let _tier = evaluating();
        let row = small_evaluator().run_workload(&workloads::by_name("leela").unwrap());
        for e in &row.entries {
            assert!(e.speedup.is_finite() && e.speedup > 0.0);
            assert!(e.energy.is_finite() && e.energy > 0.0);
            assert!(e.ed2p.is_finite() && e.ed2p > 0.0);
        }
    }

    #[test]
    fn fixed_capacity_speedups_are_near_unity() {
        let _tier = evaluating();
        // Fig. 1: NVM performance within a few percent of SRAM.
        let row = small_evaluator().run_workload(&workloads::by_name("gamess").unwrap());
        for e in &row.entries {
            assert!(
                (0.75..=1.15).contains(&e.speedup),
                "{}: speedup {}",
                e.llc,
                e.speedup
            );
        }
    }

    #[test]
    fn most_nvms_save_energy_pcram_can_lose() {
        let _tier = evaluating();
        let row = small_evaluator().run_workload(&workloads::by_name("bzip2").unwrap());
        let jan = row.entry("Jan").unwrap();
        assert!(jan.energy < 0.6, "Jan energy {}", jan.energy);
        let kang = row.entry("Kang").unwrap();
        // Kang's 375 nJ writes make it the worst technology on
        // write-heavy bzip2 (Fig. 1: up to 6× SRAM).
        assert!(kang.energy > jan.energy * 3.0);
    }

    #[test]
    fn best_pickers_agree_with_entries() {
        let _tier = evaluating();
        let row = small_evaluator().run_workload(&workloads::by_name("tonto").unwrap());
        let best_e = row.best_energy().unwrap();
        assert!(row.entries.iter().all(|e| e.energy >= best_e.energy));
        let best_s = row.best_speedup().unwrap();
        assert!(row.entries.iter().all(|e| e.speedup <= best_s.speedup));
    }

    /// Every cell of `row` equals the fused [`System::run`] of its
    /// technology on a freshly generated copy of the row's trace.
    fn assert_row_matches_fused_runs(
        row: &MatrixRow,
        w: &WorkloadProfile,
        models: &[LlcModel],
        base_accesses: usize,
    ) {
        let trace = w.generate(DEFAULT_SEED, w.scaled_accesses(base_accesses));
        for model in models {
            let direct = System::new(ArchConfig::gainestown(model.clone()))
                .with_warmup(DEFAULT_WARMUP)
                .run(&trace);
            let cell = if model.name == "SRAM" {
                &row.baseline
            } else {
                &row.entry(&model.name).expect("row covers model").result
            };
            assert_eq!(&direct, cell, "{} on {}", model.name, row.workload);
        }
    }

    #[test]
    fn batched_and_per_technology_paths_are_bit_identical() {
        let ws: Vec<_> = ["tonto", "leela"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let _tier = exclusive_tier();
        forget_results();
        let batched = small_evaluator().run_all(&ws);
        for (row, w) in batched.iter().zip(&ws) {
            assert_row_matches_fused_runs(row, w, &reference::fixed_capacity(), 8_000);
        }
    }

    #[test]
    fn batched_path_handles_mixed_group_sizes() {
        // Fixed-area models differ in LLC capacity, so a workload's cells
        // split into several groups — some batched, some singleton. The
        // result must not depend on that split.
        let models = reference::fixed_area();
        let baseline = reference::by_name(&models, "SRAM").unwrap();
        let nvms: Vec<_> = models
            .iter()
            .filter(|m| m.name != "SRAM")
            .cloned()
            .collect();
        let w = workloads::by_name("gobmk").unwrap();
        let _tier = exclusive_tier();
        forget_results();
        let row = Evaluator::new(baseline, nvms)
            .base_accesses(6_000)
            .run_workload(&w);
        assert_row_matches_fused_runs(&row, &w, &models, 6_000);
    }

    #[test]
    fn parallel_and_serial_runs_are_bit_identical() {
        let ws: Vec<_> = ["tonto", "leela"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let _tier = exclusive_tier();
        forget_results();
        let serial = small_evaluator().threads(1).run_all(&ws);
        forget_results();
        let parallel = small_evaluator().threads(4).run_all(&ws);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn persistent_store_round_trips_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("nvm-llc-runner-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = workloads::by_name("milc").unwrap();
        let _tier = exclusive_tier();
        forget_results();
        let fresh = small_evaluator().run_workload(&w);
        let store = Arc::new(Store::open(&dir).unwrap());
        // Cold pass computes everything and writes results back …
        forget_results();
        let groups = metrics::groups().get();
        let cold = small_evaluator().store(Arc::clone(&store)).run_workload(&w);
        assert_eq!(
            metrics::groups().get() - groups,
            1,
            "the cold pass computes"
        );
        assert_eq!(cold, fresh, "attaching a store must not change results");
        assert!(store.stats().insertions > 0, "cold pass persisted results");
        // … and the warm pass serves every cell from the result tier,
        // still bit-identical.
        let warm = small_evaluator().store(Arc::clone(&store)).run_workload(&w);
        assert_eq!(warm, fresh);
        assert!(store.stats().hits >= 11, "11 cells served from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_matches_exact_and_suffixed_names_only() {
        let _tier = evaluating();
        let row = small_evaluator().run_workload(&workloads::by_name("tonto").unwrap());
        assert!(row.entry("Kang").is_some()); // citation name -> Kang_P
        assert!(row.entry("Kan").is_none()); // not a prefix match
        assert!(row.entry("").is_none()); // empty never matches by accident
    }

    #[test]
    fn run_all_preserves_workload_order() {
        let _tier = evaluating();
        let ws: Vec<_> = ["tonto", "leela"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let rows = small_evaluator().run_all(&ws);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workload, "tonto");
        assert_eq!(rows[1].workload, "leela");
    }

    #[test]
    fn policies_change_functional_outcomes() {
        let _tier = evaluating();
        // The axis is real: the policy reshapes the hierarchy's miss
        // stream. (At smoke scale the 2 MB LLC rarely fills, so the
        // observable divergence shows up in the L1/L2 miss counts that
        // feed it.)
        let w = workloads::by_name("bzip2").unwrap();
        let lru = small_evaluator().run_workload(&w);
        let srrip = small_evaluator().policy(PolicyKind::Srrip).run_workload(&w);
        assert_ne!(
            lru.baseline.stats.l1d_misses, srrip.baseline.stats.l1d_misses,
            "SRRIP should reshape the miss stream vs LRU"
        );
    }

    #[test]
    fn default_policy_is_lru() {
        let _tier = evaluating();
        // run_all with no policy configured is byte-identical to an
        // explicit LRU request (the pre-policy-axis behavior).
        let w = workloads::by_name("tonto").unwrap();
        assert_eq!(
            small_evaluator().run_workload(&w),
            small_evaluator().policy(PolicyKind::Lru).run_workload(&w),
        );
    }

    #[test]
    fn endurance_policy_reduces_writebacks_on_write_heavy_row() {
        let _tier = evaluating();
        // The endurance-aware policy's whole point: steering victims to
        // clean lines cuts dirty evictions, which are exactly the LLC's
        // DRAM writebacks. gobmk is the one smoke-scale workload whose
        // footprint pressures the 2 MB LLC into evicting dirty lines.
        let w = workloads::by_name("gobmk").unwrap();
        let lru = small_evaluator().run_workload(&w);
        let endurance = small_evaluator()
            .policy(PolicyKind::Endurance)
            .run_workload(&w);
        let wb = |row: &MatrixRow| row.baseline.stats.dram_writebacks;
        assert!(
            wb(&endurance) < wb(&lru),
            "endurance writebacks {} should undercut LRU's {}",
            wb(&endurance),
            wb(&lru),
        );
    }

    #[test]
    fn parallel_multi_policy_matrix_is_bit_identical_to_serial() {
        let ws: Vec<_> = ["tonto", "leela"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let _tier = exclusive_tier();
        for policy in [PolicyKind::Drrip, PolicyKind::Ship] {
            forget_results();
            let serial = small_evaluator().policy(policy).threads(1).run_all(&ws);
            forget_results();
            let parallel = small_evaluator().policy(policy).threads(4).run_all(&ws);
            assert_eq!(serial, parallel, "{policy} matrix diverged");
        }
    }
}

//! Experiment runner: workload × LLC-technology matrices with
//! SRAM-normalized metrics (the data behind the paper's Figures 1 and 2).
//!
//! [`Evaluator::run_all`] runs in two phases on one scoped worker pool
//! (`std::thread::scope` plus an atomic work-index queue — no external
//! dependencies): first every workload's trace is generated, then the
//! (workload × technology) cell grid, grouped by outcome-tape key —
//! cells sharing a trace and a functional geometry share one functional
//! pass *and* one batched replay — is fanned out group by group. Each
//! phase returns its results in work-item order, group results are
//! placed by cell number, and rows are assembled serially afterwards,
//! so output is **bit-identical at every worker count**. The worker
//! count comes from [`Evaluator::threads`], else
//! [`std::thread::available_parallelism`]; `1` takes the exact serial
//! path (no threads spawned). Every knob is a builder call: the
//! evaluator reads no environment variable and no process-wide setting.
//!
//! Cells share work at two levels. All technologies whose functional
//! geometry matches (the whole fixed-capacity matrix, for instance) run
//! Phase A once per workload via [`crate::tape::cache`]. On top of that,
//! every group — singletons included — replays in one
//! [`System::replay_batch`] pass that drives all of its technologies'
//! timing engines over the shared tape's lanes.
//!
//! With a persistent store attached ([`Evaluator::store`]) two more
//! tiers appear: finished results are served straight from disk (skipping
//! evaluation entirely), and tape-cache misses try the disk before
//! re-running the functional pass. Both tiers are content-addressed
//! ([`crate::persist`]) and bit-exact, so attaching a store never
//! changes a result — only how fast it arrives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use nvm_llc_circuit::LlcModel;
use nvm_llc_store::Store;
use nvm_llc_trace::{Trace, WorkloadProfile};

use crate::config::ArchConfig;
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

/// Computes `f(i)` for every `i` in `0..n` on at most `threads` scoped
/// workers, each pulling the next index from an atomic counter, and
/// returns the results in index order. With one worker (or one item)
/// `f` runs in index order on the caller and no thread is spawned — the
/// exact serial path. Workers inherit the caller's trace context (if a
/// request is being traced), so their spans land in its tree.
fn map_indices<T: Send + Sync>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let trace = nvm_llc_obs::trace::handle();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (trace, slots, next, f) = (trace.clone(), &slots, &next, &f);
            scope.spawn(move || {
                let _trace = trace.map(|h| h.attach());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else {
                        break;
                    };
                    if slot.set(f(i)).is_err() {
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
    use nvm_llc_obs::metrics::Counter;

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
             from the persistent result tier).",
        )
    }

    /// `nvmllc_eval_groups_total`
    pub fn groups() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_eval_groups_total",
            "Tape-key groups scheduled (one functional pass + one batched \
             replay each).",
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

    /// Pre-registers the evaluator's metric inventory, spans included.
    pub fn register() {
        runs();
        cells();
        groups();
        result_tier_hits();
        nvm_llc_obs::metrics::histogram(
            "nvmllc_eval_run_all_seconds",
            "Wall time of the `eval_run_all` span.",
        );
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

/// One replacement policy's full matrix: every workload row evaluated
/// with the LLC running that policy. [`Evaluator::run_matrix`] returns
/// one of these per requested policy, in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyMatrix {
    /// The LLC replacement policy every row of this matrix ran under.
    pub policy: PolicyKind,
    /// One row per workload, in input order.
    pub rows: Vec<MatrixRow>,
}

impl PolicyMatrix {
    /// The row for a workload by name.
    pub fn row(&self, workload: &str) -> Option<&MatrixRow> {
        self.rows.iter().find(|r| r.workload == workload)
    }
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
    warmup: f64,
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
            warmup: DEFAULT_WARMUP,
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

    /// Overrides the cache-warmup fraction (default 25%).
    pub fn warmup(mut self, fraction: f64) -> Self {
        self.warmup = fraction;
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

    /// Attaches a persistent result store: finished results and outcome
    /// tapes are read from (and written back to) it, so a repeated
    /// evaluation — even across process restarts — skips both the
    /// functional pass and the timing replay.
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

    fn config(&self, llc: &LlcModel) -> ArchConfig {
        let mut c = ArchConfig::gainestown(llc.clone());
        if let Some(cores) = self.cores {
            c = c.with_cores(cores);
        }
        c
    }

    /// Runs one workload against the baseline and every NVM.
    pub fn run_workload(&self, workload: &WorkloadProfile) -> MatrixRow {
        self.run_all(std::slice::from_ref(workload))
            .pop()
            .expect("one workload in, one row out")
    }

    /// Runs a whole workload list (a full Figure 1a/1b/2a/2b panel)
    /// under [`Evaluator::policy`].
    ///
    /// Equivalent to a one-policy [`Evaluator::run_matrix`]; see there
    /// for the grouping, scheduling, and persistence story.
    pub fn run_all(&self, workloads: &[WorkloadProfile]) -> Vec<MatrixRow> {
        self.run_matrix(workloads, &[self.policy])
            .pop()
            .expect("one policy in, one matrix out")
            .rows
    }

    /// Runs the full workload × technology matrix once per requested
    /// replacement policy, in one scheduling pass.
    ///
    /// Every workload's trace is generated first, one workload per work
    /// item. Cells then live in a policy-major 3-D grid (policy ×
    /// workload × technology) and are grouped by outcome-tape key — all
    /// technologies sharing a workload's functional geometry *and*
    /// policy form one group, replayed in a single batched pass over one
    /// tape ([`System::replay_batch`]). Both phases are distributed over
    /// [`Evaluator::threads`] scoped workers pulling indices
    /// from an atomic queue. Distinct policies never share a tape (the
    /// policy is part of [`TapeKey`]), but their groups interleave in
    /// the same worker pool, so a multi-policy sweep parallelizes across
    /// policies for free. Every group is an independent deterministic
    /// computation over a shared [`Arc<Trace>`], and its results are
    /// placed by cell number, so the output is bit-identical to the
    /// serial path regardless of worker count or scheduling.
    pub fn run_matrix(
        &self,
        workloads: &[WorkloadProfile],
        policies: &[PolicyKind],
    ) -> Vec<PolicyMatrix> {
        let _span = nvm_llc_obs::span!("eval_run_all");
        metrics::runs().inc();
        let store = self.store.as_ref();
        let threads = self.effective_threads();
        // The trace cache generates each distinct key exactly once, even
        // when two workers ask for it at the same time.
        let traces: Vec<Arc<Trace>> = map_indices(threads, workloads.len(), |wi| {
            let w = &workloads[wi];
            w.generate_shared(self.seed, w.scaled_accesses(self.base_accesses))
        });
        // Cell grid: policy-major, then workload-major, baseline first
        // then each NVM. One `System` per (policy, technology) — they
        // are trace-independent.
        let width = 1 + self.nvms.len();
        let nworkloads = workloads.len();
        let cells = policies.len() * nworkloads * width;
        let cell = |pi: usize, wi: usize, mi: usize| (pi * nworkloads + wi) * width + mi;
        let systems: Vec<System> = policies
            .iter()
            .flat_map(|&policy| {
                (0..width).map(move |mi| {
                    let llc = if mi == 0 {
                        &self.baseline
                    } else {
                        &self.nvms[mi - 1]
                    };
                    System::new(self.config(llc))
                        .with_warmup(self.warmup)
                        .with_replacement(policy)
                })
            })
            .collect();
        let system = |pi: usize, mi: usize| &systems[pi * width + mi];

        // Persistent-result tier: a cell whose finished result is on
        // disk is filled directly and drops out of scheduling — no
        // functional pass, no replay. A corrupt or stale record decodes
        // to `None` and the cell simply computes as usual.
        let mut slots: Vec<Option<SimResult>> = vec![None; cells];
        if let Some(store) = store {
            for pi in 0..policies.len() {
                for (wi, trace) in traces.iter().enumerate() {
                    for mi in 0..width {
                        if let Some(result) = store
                            .get_mapped(&crate::persist::result_store_key(system(pi, mi), trace))
                            .and_then(|payload| crate::persist::decode_result(&payload))
                        {
                            metrics::result_tier_hits().inc();
                            slots[cell(pi, wi, mi)] = Some(result);
                        }
                    }
                }
            }
        }
        let pending = |pi: usize, wi: usize, mi: usize| slots[cell(pi, wi, mi)].is_none();

        // Work items: per (policy, workload), the still-unserved
        // technology columns grouped by tape key (insertion-ordered, so
        // scheduling stays deterministic).
        let mut groups: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for pi in 0..policies.len() {
            for (wi, trace) in traces.iter().enumerate() {
                let mut by_key: Vec<(TapeKey, Vec<usize>)> = Vec::new();
                for mi in 0..width {
                    if !pending(pi, wi, mi) {
                        continue;
                    }
                    let key = system(pi, mi).tape_key(trace);
                    match by_key.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, cols)) => cols.push(mi),
                        None => by_key.push((key, vec![mi])),
                    }
                }
                groups.extend(by_key.into_iter().map(|(_, cols)| (pi, wi, cols)));
            }
        }

        // Each group fetches its shared tape once and batch-replays it.
        // The tape fetch goes through the persistent middle tier when a
        // store is attached, and freshly computed results are written
        // back (best-effort — a full disk never fails a run).
        let computed = map_indices(threads, groups.len(), |gi| {
            let (pi, wi, cols) = &groups[gi];
            metrics::groups().inc();
            metrics::cells().add(cols.len() as u64);
            let group: Vec<&System> = cols.iter().map(|&mi| system(*pi, mi)).collect();
            let tape = crate::tape::cache::fetch_with_store(group[0], &traces[*wi], store);
            let results = System::replay_batch(&group, &tape);
            if let Some(store) = store {
                for (system, result) in group.iter().zip(&results) {
                    let key = crate::persist::result_store_key(system, &traces[*wi]);
                    let _ = store.put(&key, &crate::persist::encode_result(result));
                }
            }
            results
        });
        for ((pi, wi, cols), results) in groups.iter().zip(computed) {
            for (&mi, result) in cols.iter().zip(results) {
                slots[cell(*pi, *wi, mi)] = Some(result);
            }
        }

        // Serial assembly: normalization against each row's baseline is
        // independent of how the cells were scheduled.
        let mut cells = slots.into_iter().map(|s| s.expect("every cell computed"));
        policies
            .iter()
            .map(|&policy| PolicyMatrix {
                policy,
                rows: workloads
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
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_circuit::reference;
    use nvm_llc_trace::workloads;

    fn small_evaluator() -> Evaluator {
        let models = reference::fixed_capacity();
        let baseline = reference::by_name(&models, "SRAM").unwrap();
        let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
        Evaluator::new(baseline, nvms).base_accesses(8_000)
    }

    #[test]
    fn row_contains_all_ten_nvms() {
        let row = small_evaluator().run_workload(&workloads::by_name("tonto").unwrap());
        assert_eq!(row.entries.len(), 10);
        assert_eq!(row.workload, "tonto");
        assert!(row.entry("Jan").is_some());
        assert!(row.entry("Zhang_R").is_some());
    }

    #[test]
    fn baseline_normalizes_to_itself() {
        let row = small_evaluator().run_workload(&workloads::by_name("leela").unwrap());
        for e in &row.entries {
            assert!(e.speedup.is_finite() && e.speedup > 0.0);
            assert!(e.energy.is_finite() && e.energy > 0.0);
            assert!(e.ed2p.is_finite() && e.ed2p > 0.0);
        }
    }

    #[test]
    fn fixed_capacity_speedups_are_near_unity() {
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
        let serial = small_evaluator().threads(1).run_all(&ws);
        let parallel = small_evaluator().threads(4).run_all(&ws);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn persistent_store_round_trips_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("nvm-llc-runner-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = workloads::by_name("milc").unwrap();
        let fresh = small_evaluator().run_workload(&w);
        let store = Arc::new(Store::open(&dir).unwrap());
        // Cold pass computes everything and writes results back …
        let cold = small_evaluator().store(Arc::clone(&store)).run_workload(&w);
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
        let row = small_evaluator().run_workload(&workloads::by_name("tonto").unwrap());
        assert!(row.entry("Kang").is_some()); // citation name -> Kang_P
        assert!(row.entry("Kan").is_none()); // not a prefix match
        assert!(row.entry("").is_none()); // empty never matches by accident
    }

    #[test]
    fn run_all_preserves_workload_order() {
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
    fn run_matrix_multi_policy_equals_per_policy_run_all() {
        // One scheduling pass over a multi-policy matrix produces the
        // same bits as evaluating each policy on its own.
        let ws: Vec<_> = ["tonto", "leela"]
            .iter()
            .map(|n| workloads::by_name(n).unwrap())
            .collect();
        let policies = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Endurance];
        let fused = small_evaluator().run_matrix(&ws, &policies);
        assert_eq!(fused.len(), policies.len());
        for (matrix, &policy) in fused.iter().zip(&policies) {
            assert_eq!(matrix.policy, policy);
            let solo = small_evaluator().policy(policy).run_all(&ws);
            assert_eq!(matrix.rows, solo, "{policy} matrix diverged");
        }
    }

    #[test]
    fn policies_change_functional_outcomes() {
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
        let policies = [PolicyKind::Drrip, PolicyKind::Ship];
        let serial = small_evaluator().threads(1).run_matrix(&ws, &policies);
        let parallel = small_evaluator().threads(4).run_matrix(&ws, &policies);
        assert_eq!(serial, parallel);
    }
}

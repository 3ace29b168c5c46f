//! One module per paper artifact (table or figure), each with a `run`
//! entry point returning structured results and a `render` producing the
//! text the benches print.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table2`] | Table II — cell parameters + heuristic completion |
//! | [`table3`] | Table III — LLC models (fixed-capacity & fixed-area) |
//! | [`table4`] | Table IV — simulated architecture |
//! | [`table5`] | Table V — workloads and LLC mpki |
//! | [`table6`] | Table VI — workload features |
//! | [`fig1`]   | Figure 1 — fixed-capacity speedup/energy/ED²P |
//! | [`fig2`]   | Figure 2 — fixed-area speedup/energy/ED²P |
//! | [`core_sweep`] | Section V-C — multicore sensitivity study |
//! | [`fig4`]   | Figure 4 — feature correlation heatmaps |
//! | [`lifetime`] | Section VII (future work) — endurance/lifetime study |
//! | [`dl_extension`] | Section IV's Fathom/TBD pointer — DL workloads |
//! | [`selection`] | Section VI extension — minimal predictive feature subset |

pub mod core_sweep;
pub mod dl_extension;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod lifetime;
pub mod selection;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use std::sync::Arc;

use nvm_llc_circuit::{reference, LlcModel};
use nvm_llc_sim::runner::Evaluator;
use nvm_llc_sim::PolicyKind;
use nvm_llc_store::Store;

use crate::scale::Scale;

/// The two LLC sizing strategies of Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configuration {
    /// Every technology at the 2 MB baseline capacity (cost-limited).
    FixedCapacity,
    /// Every technology grown to the SRAM area budget (capacity-limited).
    FixedArea,
}

impl Configuration {
    /// Both configurations, fixed-capacity first (the paper's order).
    pub const ALL: [Configuration; 2] = [Configuration::FixedCapacity, Configuration::FixedArea];

    /// The paper's Table III model set for this configuration.
    pub fn models(self) -> Vec<LlcModel> {
        match self {
            Configuration::FixedCapacity => reference::fixed_capacity(),
            Configuration::FixedArea => reference::fixed_area(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Configuration::FixedCapacity => "fixed-capacity",
            Configuration::FixedArea => "fixed-area",
        }
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the standard evaluator for a configuration at a scale: SRAM
/// baseline, all ten NVMs.
pub fn evaluator(config: Configuration, scale: Scale) -> Evaluator {
    let models = config.models();
    let baseline = reference::by_name(&models, "SRAM").expect("table 3 has SRAM");
    let nvms: Vec<LlcModel> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    Evaluator::new(baseline, nvms)
        .base_accesses(scale.base_accesses)
        .seed(scale.seed)
}

/// How one invocation evaluates: the trace [`Scale`] plus the knobs
/// that change how (never what) a cell computes — worker count and
/// persistent store — and the replacement policy every evaluated system
/// runs under. Every evaluating experiment takes `impl Into<Run>`, so a
/// bare [`Scale`] is the default run at that scale: all cores, LRU, no
/// store.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Trace-length budget and seed.
    pub scale: Scale,
    /// Evaluation worker count; `None` uses every available core.
    pub threads: Option<usize>,
    /// LLC replacement policy of every evaluated system.
    pub policy: PolicyKind,
    /// Persistent result store evaluations read and write through.
    pub store: Option<Arc<Store>>,
}

impl From<Scale> for Run {
    fn from(scale: Scale) -> Run {
        Run {
            scale,
            ..Run::default()
        }
    }
}

impl Run {
    /// [`evaluator`] for a configuration at this run's scale, under its
    /// policy, worker count and store.
    pub fn evaluator(&self, config: Configuration) -> Evaluator {
        self.apply(evaluator(config, self.scale))
    }

    /// Applies this run's policy, worker count and store to `eval`.
    pub fn apply(&self, eval: Evaluator) -> Evaluator {
        let mut eval = eval.policy(self.policy);
        if let Some(threads) = self.threads {
            eval = eval.threads(threads);
        }
        if let Some(store) = &self.store {
            eval = eval.store(Arc::clone(store));
        }
        eval
    }
}

#[cfg(test)]
pub(crate) mod shared {
    //! Experiment results computed once per test binary — the experiment
    //! drivers are deterministic, so every test module can assert against
    //! the same cached run at evaluation scale.

    use std::sync::OnceLock;

    use crate::scale::Scale;

    /// The scale shared experiment results run at.
    pub const SCALE: Scale = Scale::DEFAULT;

    pub fn fig1() -> &'static super::fig1::Figure {
        static CELL: OnceLock<super::fig1::Figure> = OnceLock::new();
        CELL.get_or_init(|| super::fig1::run(SCALE))
    }

    pub fn fig2() -> &'static super::fig1::Figure {
        static CELL: OnceLock<super::fig1::Figure> = OnceLock::new();
        CELL.get_or_init(|| super::fig2::run(SCALE))
    }

    pub fn fig4() -> &'static super::fig4::Fig4 {
        static CELL: OnceLock<super::fig4::Fig4> = OnceLock::new();
        CELL.get_or_init(|| super::fig4::run(SCALE))
    }

    pub fn table5() -> &'static super::table5::Table5 {
        static CELL: OnceLock<super::table5::Table5> = OnceLock::new();
        CELL.get_or_init(|| super::table5::run(SCALE))
    }

    pub fn table6() -> &'static super::table6::Table6 {
        static CELL: OnceLock<super::table6::Table6> = OnceLock::new();
        CELL.get_or_init(|| super::table6::run(SCALE))
    }

    pub fn core_sweep() -> &'static super::core_sweep::CoreSweep {
        static CELL: OnceLock<super::core_sweep::CoreSweep> = OnceLock::new();
        CELL.get_or_init(|| super::core_sweep::run_with(SCALE, &[1, 4, 8], &["ft", "mg"]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_expose_eleven_models_each() {
        for c in Configuration::ALL {
            assert_eq!(c.models().len(), 11);
        }
        assert_eq!(Configuration::FixedCapacity.label(), "fixed-capacity");
        assert_eq!(Configuration::FixedArea.to_string(), "fixed-area");
    }

    #[test]
    fn default_run_renders_are_pinned() {
        // The LRU default of the two experiments that build their own
        // systems: FNV-1a digests of the smoke-scale renders.
        let digest = |text: String| format!("{:016x}", nvm_llc_store::fnv1a64(text.as_bytes()));
        assert_eq!(
            digest(table5::run(Scale::SMOKE).render()),
            "0bb33cc3b62dbe1f"
        );
        assert_eq!(
            digest(lifetime::run(Scale::SMOKE).render()),
            "3c3af5c8c16df884"
        );
    }

    #[test]
    fn run_applies_policy_threads_and_store_to_the_evaluator() {
        let dir = std::env::temp_dir().join(format!("nvm-llc-run-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let run = Run {
            scale: Scale::SMOKE,
            threads: Some(2),
            policy: PolicyKind::Srrip,
            store: Some(Arc::clone(&store)),
        };
        let tonto = nvm_llc_trace::workloads::by_name("tonto").unwrap();
        let row = run
            .evaluator(Configuration::FixedCapacity)
            .run_workload(&tonto);
        let plain = evaluator(Configuration::FixedCapacity, Scale::SMOKE);
        assert_eq!(
            row,
            plain.clone().policy(PolicyKind::Srrip).run_workload(&tonto)
        );
        assert_ne!(row, plain.run_workload(&tonto), "the run's policy applied");
        assert!(store.stats().insertions > 0, "the run's store was written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluator_excludes_sram_from_nvms() {
        let row = evaluator(Configuration::FixedCapacity, Scale::SMOKE)
            .run_workload(&nvm_llc_trace::workloads::by_name("tonto").unwrap());
        assert_eq!(row.entries.len(), 10);
        assert!(row.entries.iter().all(|e| e.llc != "SRAM"));
    }
}

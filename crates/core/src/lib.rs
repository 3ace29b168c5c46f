//! # nvm-llc — NVM-based Last Level Cache evaluation
//!
//! A full reproduction of *"Evaluation of Non-Volatile Memory Based Last
//! Level Cache Given Modern Use Case Behavior"* (Hankin et al., IISWC
//! 2019) as a Rust workspace:
//!
//! * [`cell`] — cell-level NVM models, the three modeling heuristics,
//!   `.cell` file I/O (Section III, Table II);
//! * [`circuit`] — circuit-level cache modeling à la NVSim, plus the
//!   paper's published Table III as a reference dataset;
//! * [`trace`] — synthetic workloads calibrated to the paper's 20
//!   benchmarks (Table V);
//! * [`prism`] — architecture-agnostic workload characterization
//!   (Section IV-B, Table VI);
//! * [`sim`] — the trace-driven Gainestown simulator with NVM-aware LLC
//!   (Section IV, Table IV);
//! * [`analysis`] — the feature/outcome correlation framework
//!   (Section VI);
//! * [`experiments`] — one module per paper table and figure, each
//!   regenerating its artifact.
//!
//! ## Quick start
//!
//! ```
//! use nvm_llc::prelude::*;
//!
//! // Pick an NVM cell, model a 2 MB LLC, and race it against SRAM.
//! let models = reference::fixed_capacity();
//! let sram = reference::by_name(&models, "SRAM").unwrap();
//! let hayakawa = reference::by_name(&models, "Hayakawa").unwrap();
//! let row = Evaluator::new(sram, vec![hayakawa])
//!     .base_accesses(4_000)
//!     .run_workload(&workloads::by_name("leela").unwrap());
//! let entry = row.entry("Hayakawa_R").unwrap();
//! assert!(entry.energy < 1.0); // RRAM saves LLC energy
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod scale;
pub mod tables;

pub use scale::Scale;

/// Re-export of the correlation-analysis crate.
pub use nvm_llc_analysis as analysis;
/// Re-export of the cell-model crate.
pub use nvm_llc_cell as cell;
/// Re-export of the circuit-model crate.
pub use nvm_llc_circuit as circuit;
/// Re-export of the observability crate (metrics, spans, logging).
pub use nvm_llc_obs as obs;
/// Re-export of the characterization crate.
pub use nvm_llc_prism as prism;
/// Re-export of the evaluation-service crate (`nvm-llc serve`).
pub use nvm_llc_serve as serve;
/// Re-export of the simulator crate.
pub use nvm_llc_sim as sim;
/// Re-export of the persistent result-store crate.
pub use nvm_llc_store as store;
/// Re-export of the trace/workload crate.
pub use nvm_llc_trace as trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::experiments::{self, Configuration};
    pub use crate::scale::Scale;
    pub use nvm_llc_analysis::{CorrelationMatrix, Observation, Outcome};
    pub use nvm_llc_cell::{Catalog, CellParams, HeuristicEngine, MemClass};
    pub use nvm_llc_circuit::{fixed_area, reference, CacheModeler, LlcModel};
    pub use nvm_llc_prism::{profiler, FeatureKind, FeatureVector};
    pub use nvm_llc_sim::{
        simulate_hybrid, ArchConfig, Evaluator, HybridConfig, LlcWritePolicy, PolicyKind,
        SimResult, System, WearPolicy, WriteMode,
    };
    pub use nvm_llc_trace::{workloads, Trace, WorkloadProfile};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_pipeline() {
        use crate::prelude::*;
        let catalog = Catalog::paper();
        assert_eq!(catalog.len(), 11);
        let _ = workloads::all();
        let _ = reference::fixed_capacity();
        let _ = Scale::SMOKE;
    }
}

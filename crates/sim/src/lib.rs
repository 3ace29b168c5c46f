//! # nvm-llc-sim — trace-driven multicore simulator with NVM-aware LLC
//!
//! The Sniper role in the paper's pipeline (Section IV): a quad-core
//! Gainestown model (Table IV) with a three-level write-back cache
//! hierarchy whose shared LLC takes any [`nvm_llc_circuit::LlcModel`] —
//! SRAM baseline or NVM — and exposes its asymmetric read/write latency
//! and energy to the timing and energy model.
//!
//! ```
//! use nvm_llc_circuit::reference;
//! use nvm_llc_sim::runner::Evaluator;
//! use nvm_llc_trace::workloads;
//!
//! let models = reference::fixed_capacity();
//! let sram = reference::by_name(&models, "SRAM").unwrap();
//! let jan = reference::by_name(&models, "Jan").unwrap();
//! let row = Evaluator::new(sram, vec![jan])
//!     .base_accesses(4_000)
//!     .run_workload(&workloads::by_name("tonto").unwrap());
//! let jan = row.entry("Jan").unwrap();
//! assert!(jan.energy < 1.0); // Jan_S saves LLC energy vs SRAM
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod endurance;
pub mod hybrid;
pub mod persist;
pub mod policy;
pub mod result;
pub mod runner;
pub mod system;
pub mod tape;
pub mod techniques;

pub use cache::{AccessOutcome, Eviction, Replacement, SetAssocCache};
pub use config::{ArchConfig, CacheLevelConfig, LlcWritePolicy};
pub use dram::{Dram, DramConfig, DramStats};
pub use endurance::{EnduranceReport, EnduranceTracker, WearPolicy};
pub use hybrid::{simulate_hybrid, HybridConfig, HybridResult, HybridStats};
pub use policy::{PolicyKind, ReplacementPolicy};
pub use result::{SimResult, SimStats};
pub use runner::{Evaluator, MatrixEntry, MatrixRow};
pub use system::System;
pub use tape::{Outcome, OutcomeTape, TapeKey, REPLAY_CHUNK_EVENTS};
pub use techniques::{DeadBlockPredictor, WriteMode};

#[cfg(test)]
mod proptests {
    use crate::cache::{Replacement, SetAssocCache};
    use crate::config::ArchConfig;
    use crate::system::System;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cache stats always balance: hits + misses == accesses, and a
        /// re-access of the most recent block always hits.
        #[test]
        fn cache_accounting_balances(
            blocks in proptest::collection::vec(0u64..4096, 1..400),
            ways in 1u32..8,
        ) {
            let mut c = SetAssocCache::new(64, ways, Replacement::Lru);
            for b in &blocks {
                c.access(*b, b % 3 == 0);
            }
            prop_assert_eq!(c.hits() + c.misses(), blocks.len() as u64);
            let last = *blocks.last().unwrap();
            prop_assert!(c.contains(last));
            prop_assert!(c.access(last, false).hit);
        }

        /// A working set no larger than one set's ways never misses after
        /// the cold pass (LRU never evicts within capacity).
        #[test]
        fn lru_within_capacity_never_misses_after_warmup(
            ways in 2u32..16,
            rounds in 2usize..5,
        ) {
            let mut c = SetAssocCache::new(1, ways, Replacement::Lru);
            for round in 0..rounds {
                for b in 0..u64::from(ways) {
                    let hit = c.access(b, false).hit;
                    if round > 0 {
                        prop_assert!(hit);
                    }
                }
            }
            prop_assert_eq!(c.misses(), u64::from(ways));
        }

        /// The hierarchy conserves traffic for arbitrary workload shapes:
        /// L2 demand accesses equal L1 misses, LLC demand accesses equal
        /// L2 misses, and every LLC miss produced exactly one fill.
        #[test]
        fn hierarchy_conservation(
            seed in 0u64..50,
            n in 500usize..3000,
            rf in 0.3f64..0.9,
            fp_log2 in 10u32..18,
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << fp_log2)
                .read_fraction(rf)
                .threads(2)
                .build();
            let trace = w.generate(seed, n);
            let llc = nvm_llc_circuit::reference::sram_baseline();
            let r = System::new(ArchConfig::gainestown(llc)).run(&trace);
            let s = &r.stats;
            prop_assert_eq!(s.accesses, trace.len() as u64);
            prop_assert_eq!(s.l1d_hits + s.l1d_misses, s.accesses);
            prop_assert_eq!(s.l2_hits + s.l2_misses, s.l1d_misses);
            prop_assert_eq!(s.llc_hits + s.llc_misses, s.l2_misses);
            prop_assert_eq!(s.llc_fills, s.llc_misses);
            prop_assert!(r.exec_time.value() > 0.0);
            prop_assert!(r.llc_energy().value() > 0.0);
        }

        /// Technique knobs never break conservation: bypass reduces fills
        /// but misses still bound them, and differential writes change
        /// energy only.
        #[test]
        fn techniques_preserve_conservation(seed in 0u64..20, n in 500usize..2000) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            let w = WorkloadProfile::builder("prop", Suite::Cpu2017)
                .footprint_blocks(1 << 16)
                .build();
            let trace = w.generate(seed, n);
            let llc = nvm_llc_circuit::reference::sram_baseline();
            let r = System::new(
                ArchConfig::gainestown(llc)
                    .with_llc_bypass()
                    .with_differential_writes(0.5)
                    .with_l2_prefetch(),
            )
            .run(&trace);
            let s = &r.stats;
            prop_assert_eq!(s.llc_hits + s.llc_misses, s.l2_misses);
            prop_assert!(s.llc_fills + s.llc_bypassed_fills == s.llc_misses);
        }

        /// Every dirty block eventually reports exactly one writeback.
        #[test]
        fn dirty_blocks_write_back_once(n in 1u64..64) {
            let mut c = SetAssocCache::new(1, 2, Replacement::Lru);
            let mut writebacks = 0u64;
            for b in 0..n {
                if c.access(b, true).writeback().is_some() {
                    writebacks += 1;
                }
            }
            // With 2 ways, all but the final two dirty blocks are evicted.
            prop_assert_eq!(writebacks, n.saturating_sub(2));
        }
    }
}

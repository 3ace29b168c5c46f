//! The traced decomposition must describe the program it times: the
//! replica's rows equal the evaluator's bit for bit, with and without a
//! store, so every per-layer number is a share of the same work.

use std::path::PathBuf;
use std::sync::Arc;

use nvm_llc::experiments::{self, Configuration};
use nvm_llc::sim::PolicyKind;
use nvm_llc::store::Store;
use nvm_llc::trace::workloads;
use nvm_llc::Scale;
use perf_ledger::replica::{Layer, Replica, Setup};

const POLICIES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Endurance];

#[test]
fn replica_rows_equal_run_all_for_both_configurations_and_policies() {
    let all = workloads::all();
    for config in Configuration::ALL {
        for policy in POLICIES {
            let expected = experiments::evaluator(config, Scale::SMOKE)
                .policy(policy)
                .threads(1)
                .run_all(&all);
            let setup = Setup::new(
                config,
                Scale::SMOKE.base_accesses,
                Scale::SMOKE.seed,
                policy,
            );
            let mut replica = Replica::new(None);
            let rows: Vec<_> = all.iter().map(|w| replica.row(&setup, w)).collect();
            assert_eq!(rows, expected, "{config} under {policy}");
            let layers = &replica.layers;
            assert_eq!(layers.rows, all.len() as u64);
            assert!(
                layers.tapes >= all.len() as u64,
                "one functional pass per row at least"
            );
            assert!(layers.secs(Layer::Record) > 0.0 && layers.secs(Layer::ReplayBatch) > 0.0);
            assert_eq!(
                layers.secs(Layer::StoreGet),
                0.0,
                "no store, no store reads"
            );
        }
    }
}

#[test]
fn store_backed_replica_writes_what_the_evaluator_reads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir).expect("open test store"));
    let all = workloads::all();
    for config in Configuration::ALL {
        for policy in POLICIES {
            let evaluator = || {
                experiments::evaluator(config, Scale::SMOKE)
                    .policy(policy)
                    .threads(1)
            };
            let expected = evaluator().run_all(&all);
            let setup = Setup::new(
                config,
                Scale::SMOKE.base_accesses,
                Scale::SMOKE.seed,
                policy,
            );

            // Cold: every cell is computed and written back.
            let mut cold = Replica::new(Some(Arc::clone(&store)));
            let rows: Vec<_> = all.iter().map(|w| cold.row(&setup, w)).collect();
            assert_eq!(rows, expected, "cold {config} under {policy}");
            assert!(cold.layers.secs(Layer::StorePut) > 0.0);

            // Warm: every cell is a result-tier hit, as after a restart.
            let mut warm = Replica::new(Some(Arc::clone(&store)));
            let rows: Vec<_> = all.iter().map(|w| warm.row(&setup, w)).collect();
            assert_eq!(rows, expected, "warm {config} under {policy}");
            assert_eq!(warm.layers.tapes, 0, "no functional pass on a full store");
            assert_eq!(warm.layers.secs(Layer::Record), 0.0);

            // The program reads the replica's records as its own.
            let hits = store.stats().hits;
            assert_eq!(
                evaluator().store(Arc::clone(&store)).run_all(&all),
                expected
            );
            assert!(store.stats().hits - hits >= (all.len() * 11) as u64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

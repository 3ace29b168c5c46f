//! A persistent store whose records have been damaged on disk, or were
//! written under an older key derivation, must never change results:
//! every truncated record is detected, dropped, and recomputed, and an
//! old record is simply never looked up — both bit-identically to a
//! store-less run.

use std::sync::Arc;

use nvm_llc::prelude::*;
use nvm_llc::sim::{persist, runner};
use nvm_llc::store::wire::Writer;
use nvm_llc::store::{Key, Store};

fn evaluator() -> Evaluator {
    // The copy is faithful: it reproduces the key version 2 pinned.
    let pinned = System::new(ArchConfig::gainestown(reference::sram_baseline()))
        .with_warmup(0.25)
        .with_endurance_tracking(WearPolicy::None)
        .with_replacement(PolicyKind::Srrip);
    let tonto = workloads::by_name("tonto").unwrap().generate(7, 1_500);
    assert_eq!(
        version_2_result_key(&pinned, &tonto).hex(),
        "dab4d6cc8671889ee5ce0488db612df7"
    );

    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    Evaluator::new(baseline, nvms).base_accesses(6_000)
}

#[test]
fn truncated_store_records_fall_back_to_recompute() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-store-fallback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = workloads::by_name("cg").unwrap();
    let fresh = evaluator().run_workload(&workload);

    // Populate the store, then truncate every record mid-payload.
    {
        let store = Arc::new(Store::open(&dir).unwrap());
        let cold = evaluator()
            .store(Arc::clone(&store))
            .run_workload(&workload);
        assert_eq!(cold, fresh, "the store tier must not change results");
        // The outcome tape may be served by the in-process memory tier
        // (the `fresh` run recorded it), so only the 11 finished
        // results are guaranteed to reach disk here.
        assert!(store.stats().insertions >= 11, "{:?}", store.stats());
    }
    let mut truncated = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rec") {
            let len = std::fs::metadata(&path).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(len - len / 2).unwrap();
            truncated += 1;
        }
    }
    assert!(
        truncated >= 11,
        "expected persisted records, found {truncated}"
    );

    // Reopen: every lookup sees the damage, discards the record, and
    // recomputes — the results stay bit-identical.
    let store = Arc::new(Store::open(&dir).unwrap());
    let warm = evaluator()
        .store(Arc::clone(&store))
        .run_workload(&workload);
    assert_eq!(warm, fresh, "corruption must never leak into results");
    assert!(
        store.stats().corrupt > 0,
        "the truncation must actually be detected: {:?}",
        store.stats()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A test-local copy of the version-2 result key: the FNV-1a 128 hash of
/// the trace's thread count and events, plus the system's `Debug` text,
/// under `MODEL_VERSION` 2.
fn version_2_result_key(system: &System, trace: &Trace) -> Key {
    let mut hash = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58du128;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u128::from(byte);
            hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    };
    mix(u64::from(trace.threads()));
    for e in trace.events() {
        mix(e.addr);
        mix(u64::from(e.tid)
            | (u64::from(e.kind.is_write()) << 8)
            | (u64::from(e.gap_instructions) << 9));
    }
    let mut payload = Writer::new();
    payload.u128(hash).str(&format!("{system:?}"));
    let mut key = Writer::new();
    key.str("result").u32(2).bytes(&payload.into_bytes());
    Key::digest(&key.into_bytes())
}

#[test]
fn a_version_2_store_reads_as_misses_not_corruption() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-store-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = workloads::by_name("sp").unwrap();
    let base = 5_000;
    let trace = workload.generate(runner::DEFAULT_SEED, workload.scaled_accesses(base));

    // A store as version-2 code left it: every cell of the row, valid
    // and correctly encoded, under its version-2 key.
    // The copy is faithful: it reproduces the key version 2 pinned.
    let pinned = System::new(ArchConfig::gainestown(reference::sram_baseline()))
        .with_warmup(0.25)
        .with_endurance_tracking(WearPolicy::None)
        .with_replacement(PolicyKind::Srrip);
    let tonto = workloads::by_name("tonto").unwrap().generate(7, 1_500);
    assert_eq!(
        version_2_result_key(&pinned, &tonto).hex(),
        "dab4d6cc8671889ee5ce0488db612df7"
    );

    let models = reference::fixed_capacity();
    let baseline = reference::by_name(&models, "SRAM").unwrap();
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
    let evaluator = || Evaluator::new(baseline.clone(), nvms.clone()).base_accesses(base);
    let expected: Vec<SimResult> = {
        let old = Store::open(&dir).unwrap();
        std::iter::once(&baseline)
            .chain(&nvms)
            .map(|llc| {
                let system = System::new(ArchConfig::gainestown(llc.clone()))
                    .with_warmup(runner::DEFAULT_WARMUP)
                    .with_replacement(PolicyKind::Lru);
                let result = system.run(&trace);
                let key = version_2_result_key(&system, &trace);
                old.put(&key, &persist::encode_result(&result)).unwrap();
                result
            })
            .collect()
    };

    // The current evaluator never looks those records up: every cell is
    // a plain miss, computed and written under its current key.
    let store = Arc::new(Store::open(&dir).unwrap());
    let groups = runner::metrics::groups().get();
    let row = evaluator()
        .store(Arc::clone(&store))
        .run_workload(&workload);
    assert!(
        runner::metrics::groups().get() > groups,
        "the row is computed"
    );
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "no version-2 record answers: {stats:?}");
    assert_eq!(
        stats.corrupt, 0,
        "an old record is not corruption: {stats:?}"
    );
    assert_eq!(stats.insertions, 11, "every cell written anew: {stats:?}");

    // The row is the store-less evaluation's, cell for cell.
    assert_eq!(row.baseline, expected[0]);
    for (entry, result) in row.entries.iter().zip(&expected[1..]) {
        assert_eq!(&entry.result, result, "{}", entry.llc);
    }
    assert_eq!(row, evaluator().run_workload(&workload));
    let _ = std::fs::remove_dir_all(&dir);
}

//! Process-wide trace cache: a memo of generated traces behind shared
//! [`Arc`] handles, for a caller that reads one trace many times.
//!
//! Evaluation no longer takes this path: `Evaluator::run_all` streams
//! each workload's events into its functional pass, or materializes a
//! trace for the length of one call when several passes read it.
//! The cache's one remaining caller outside the tests is the
//! benchmark's replica of the runner (`perf_ledger/src/replica.rs`).
//! Deleting this module, [`WorkloadProfile::generate_shared`] and
//! [`crate::io`] waits until that replica is gone (ROADMAP item 1(b)):
//! deleting them first would break the benchmark's build.
//!
//! The cache is an [`nvm_llc_obs::memo::Memo`]: concurrent fetches of
//! one key run the generator once and share a pointer-equal
//! `Arc<Trace>`. The key encodes every profile field exactly, so a
//! weak-scaling copy that keeps its workload's name never aliases it.
//! Resident traces are charged [`Trace::bytes`] against [`BUDGET_BYTES`]
//! with LRU eviction; a re-fetch of an evicted key regenerates identical
//! events, and [`clear`] gives benchmarks a cold cache.

use std::sync::{Arc, OnceLock};

use nvm_llc_obs::memo::{Memo, MemoMetrics};

use crate::access::Trace;
use crate::profile::WorkloadProfile;

/// Residency budget: 256 MiB of trace events. The 20 fig1/fig2 traces
/// at default scale take 74 MiB together.
pub const BUDGET_BYTES: u64 = 256 << 20;

fn memo() -> &'static Memo<Vec<u8>, Arc<Trace>> {
    static MEMO: OnceLock<Memo<Vec<u8>, Arc<Trace>>> = OnceLock::new();
    MEMO.get_or_init(|| {
        Memo::new(
            BUDGET_BYTES,
            |trace| trace.bytes() as u64,
            MemoMetrics {
                hits: Some(metrics::hits()),
                misses: Some(metrics::misses()),
                evictions: Some(metrics::evictions()),
                resident: Some(metrics::resident_bytes()),
            },
        )
    })
}

/// Fetches (generating at most once while the key stays resident) the
/// trace for `profile.generate(seed, accesses_per_thread)`.
///
/// Repeated fetches of the same `(profile, seed, accesses_per_thread)`
/// return pointer-equal `Arc`s:
///
/// ```
/// use std::sync::Arc;
/// use nvm_llc_trace::{cache, workloads};
///
/// let w = workloads::by_name("tonto").unwrap();
/// let a = cache::fetch(&w, 7, 1_000);
/// let b = cache::fetch(&w, 7, 1_000);
/// assert!(Arc::ptr_eq(&a, &b));
/// assert_eq!(a.len(), 1_000);
/// ```
pub fn fetch(profile: &WorkloadProfile, seed: u64, accesses_per_thread: usize) -> Arc<Trace> {
    let key = profile.cache_key(seed, accesses_per_thread);
    memo()
        .get_or_make(&key, || {
            Arc::new(profile.generate(seed, accesses_per_thread))
        })
        .0
}

/// Process-wide counters for this cache, registered in the
/// [`nvm_llc_obs`] registry.
pub mod metrics {
    use nvm_llc_obs::metrics::{Counter, Gauge};

    /// `nvmllc_trace_cache_hits_total`
    pub fn hits() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_trace_cache_hits_total",
            "Trace cache fetches served from an already generated trace.",
        )
    }

    /// `nvmllc_trace_cache_misses_total`
    pub fn misses() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_trace_cache_misses_total",
            "Trace cache fetches that ran the workload generator.",
        )
    }

    /// `nvmllc_trace_cache_evictions_total`
    pub fn evictions() -> &'static Counter {
        nvm_llc_obs::counter!(
            "nvmllc_trace_cache_evictions_total",
            "Traces evicted to stay under the residency byte budget.",
        )
    }

    /// `nvmllc_trace_cache_resident_bytes`
    pub fn resident_bytes() -> &'static Gauge {
        nvm_llc_obs::gauge!(
            "nvmllc_trace_cache_resident_bytes",
            "Bytes of trace events currently resident.",
        )
    }

    /// Pre-registers this module's metrics so scrapes show zeros before
    /// the first fetch.
    pub fn register() {
        hits();
        misses();
        evictions();
        resident_bytes();
    }
}

/// Drops every cached trace (cold-cache benchmarking; in-flight `Arc`s
/// stay alive until their holders drop them).
pub fn clear() {
    memo().clear();
}

/// Number of resident `(profile, seed, accesses)` entries.
pub fn len() -> usize {
    memo().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;

    fn profile(name: &str) -> WorkloadProfile {
        WorkloadProfile::builder(name, Suite::Npb)
            .footprint_blocks(4096)
            .build()
    }

    #[test]
    fn same_key_is_pointer_equal_and_matches_direct_generation() {
        let p = profile("cache-test-a");
        let a = fetch(&p, 11, 500);
        let b = fetch(&p, 11, 500);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.events(), p.generate(11, 500).events());
    }

    #[test]
    fn distinct_seeds_and_lengths_get_distinct_traces() {
        let p = profile("cache-test-b");
        let a = fetch(&p, 1, 400);
        let b = fetch(&p, 2, 400);
        let c = fetch(&p, 1, 401);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 401);
    }

    #[test]
    fn same_name_different_parameters_do_not_alias() {
        // Weak-scaling copies keep the workload name; the cache must still
        // tell them apart by the full profile.
        let small = profile("cache-test-c");
        let big = WorkloadProfile::builder("cache-test-c", Suite::Npb)
            .footprint_blocks(65_536)
            .build();
        let a = fetch(&small, 3, 300);
        let b = fetch(&big, 3, 300);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn concurrent_fetches_share_one_generation() {
        let p = profile("cache-test-d");
        let traces: Vec<Arc<Trace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| fetch(&p, 5, 2_000)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }
}

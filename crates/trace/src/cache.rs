//! Process-wide trace cache: generate each synthetic trace exactly once.
//!
//! Every experiment in the repository replays traces keyed by
//! `(workload name, threads, seed, accesses per thread)` — fig1, fig4,
//! table5, and the selection study all regenerate identical traces from
//! scratch. This module memoizes generation behind [`Arc`] handles so a
//! repeated key costs a map lookup instead of a full generator run, and so
//! parallel evaluation workers share one immutable trace instead of
//! cloning events.
//!
//! Guarantees:
//!
//! * **Exactly-once generation.** Concurrent fetches of the same key race
//!   to install a slot, but only one caller runs the generator (the others
//!   block on the slot's [`OnceLock`]); every caller receives a
//!   pointer-equal `Arc<Trace>`.
//! * **Collision safety.** Two distinct profiles that happen to share a
//!   name and thread count (e.g. a weak-scaling copy with a larger
//!   footprint) never alias: the full profile is compared before a cached
//!   trace is reused.
//! * **Process lifetime.** Entries are never evicted; [`clear`] exists for
//!   benchmarks that need a cold cache. A full evaluation's working set is
//!   tens of traces, far below memory pressure.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::access::Trace;
use crate::profile::WorkloadProfile;

/// Cache key: the reproducibility tuple every experiment runner uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    threads: u8,
    seed: u64,
    accesses_per_thread: usize,
}

/// One key's entries: `(full profile, lazily generated trace)` pairs.
/// Almost always a single element; more only if differently-parameterized
/// profiles share a `(name, threads)` pair.
type Entries = Vec<(WorkloadProfile, Arc<OnceLock<Arc<Trace>>>)>;

fn cache() -> &'static Mutex<HashMap<Key, Entries>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Entries>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fetches (generating at most once per process) the trace for
/// `profile.generate(seed, accesses_per_thread)`.
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
    let key = Key {
        name: profile.name().to_owned(),
        threads: profile.threads(),
        seed,
        accesses_per_thread,
    };
    // Phase 1: find or install this profile's slot under the map lock.
    let slot = {
        let mut map = cache().lock().expect("trace cache lock");
        let entries = map.entry(key).or_default();
        match entries.iter().find(|(p, _)| p == profile) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                let slot = Arc::new(OnceLock::new());
                entries.push((profile.clone(), Arc::clone(&slot)));
                slot
            }
        }
    };
    // Phase 2: generate outside the map lock so distinct keys generate in
    // parallel; OnceLock serializes same-key racers onto one generation.
    let mut fresh = false;
    let trace = Arc::clone(slot.get_or_init(|| {
        fresh = true;
        let _span = nvm_llc_obs::span!("trace_generate");
        Arc::new(profile.generate(seed, accesses_per_thread))
    }));
    if fresh {
        metrics::misses().inc();
    } else {
        metrics::hits().inc();
    }
    trace
}

/// Process-wide counters for this cache, registered in the
/// [`nvm_llc_obs`] registry.
pub mod metrics {
    use nvm_llc_obs::metrics::Counter;

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

    /// Pre-registers this module's metrics so scrapes show zeros before
    /// the first fetch.
    pub fn register() {
        hits();
        misses();
        nvm_llc_obs::metrics::histogram(
            "nvmllc_trace_generate_seconds",
            "Wall time of the `trace_generate` span.",
        );
    }
}

/// Drops every cached trace (cold-cache benchmarking; in-flight `Arc`s
/// stay alive until their holders drop them).
pub fn clear() {
    cache().lock().expect("trace cache lock").clear();
}

/// Number of cached `(profile, seed, accesses)` slots.
pub fn len() -> usize {
    cache()
        .lock()
        .expect("trace cache lock")
        .values()
        .map(Vec::len)
        .sum()
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

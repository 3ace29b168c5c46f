//! A keyed, single-flight, byte-budgeted LRU memo: the one cache
//! implementation behind the trace cache, the evaluator's in-memory
//! result tier, the result store's on-disk index and `/row` request
//! coalescing.
//!
//! [`Memo::get_or_make`] installs one `Arc<OnceLock<V>>` slot per key
//! under the map lock and runs `make` outside it, so concurrent callers
//! of one key share one run while distinct keys compute in parallel.
//! Each run of `make` counts one miss; every other call counts a hit,
//! as does every [`Memo::get`] that finds a finished value.
//! A finished value is charged `weigh(&value)` bytes, and past the
//! budget the least-recently-used finished entries are evicted — never
//! one still being made, nor the key just installed, so a budget below
//! one value degrades to recomputing instead of thrashing. A recency
//! index beside the map finds each victim in O(log n).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::metrics::{Counter, Gauge};

/// The registry handles a [`Memo`] counts into; `None` leaves a fact
/// uncounted.
#[derive(Clone, Copy, Default)]
pub struct MemoMetrics {
    /// [`Memo::get_or_make`] calls that did not run `make`, and
    /// [`Memo::get`] calls that found a finished value.
    pub hits: Option<&'static Counter>,
    /// Runs of `make`.
    pub misses: Option<&'static Counter>,
    /// Entries shed to stay under the byte budget.
    pub evictions: Option<&'static Counter>,
    /// Bytes charged by the finished entries held.
    pub resident: Option<&'static Gauge>,
}

struct Entry<V> {
    slot: Arc<OnceLock<V>>,
    /// Charged bytes; `None` while the value is still being made.
    bytes: Option<u64>,
    /// Recency stamp from `Inner::clock` (higher = fresher).
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    /// The finished entries' keys by `last_used`, oldest first: the
    /// eviction order. In-flight entries are not in it.
    order: BTreeMap<u64, K>,
    clock: u64,
    resident: u64,
    budget: u64,
}

/// A keyed, single-flight, byte-budgeted LRU memo (see the module docs).
pub struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    weigh: fn(&V) -> u64,
    metrics: MemoMetrics,
}

impl<K: Hash + Eq + Clone, V> Inner<K, V> {
    /// Stamps `key`'s entry as the most recently used, moving a finished
    /// one to the back of the eviction order.
    fn touch(&mut self, key: &K) -> Option<&Entry<V>> {
        self.clock += 1;
        let entry = self.map.get_mut(key)?;
        if entry.bytes.is_some() {
            self.order.remove(&entry.last_used);
            self.order.insert(self.clock, key.clone());
        }
        entry.last_used = self.clock;
        Some(entry)
    }

    /// Uncharges an entry just taken out of the map.
    fn forget(&mut self, entry: &Entry<V>) {
        if let Some(bytes) = entry.bytes {
            self.resident -= bytes;
            self.order.remove(&entry.last_used);
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `budget` bytes (`u64::MAX` lifts
    /// the bound), charging each finished value `weigh(&value)`.
    pub fn new(budget: u64, weigh: fn(&V) -> u64, metrics: MemoMetrics) -> Memo<K, V> {
        let inner = Inner {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            resident: 0,
            budget,
        };
        Memo {
            inner: Mutex::new(inner),
            weigh,
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("memo lock")
    }

    /// The finished value under `key`, refreshing its recency. A key
    /// that is absent or still being made reads as `None`: `get` never
    /// runs `make` and never waits for one.
    pub fn get(&self, key: &K) -> Option<V> {
        let slot = {
            let mut inner = self.lock();
            if inner.map.get(key).is_none_or(|e| e.bytes.is_none()) {
                return None;
            }
            Arc::clone(&inner.touch(key).expect("finished entry held").slot)
        };
        self.metrics.hits.inspect(|c| c.inc());
        slot.get().cloned()
    }

    /// The value under `key`, running `make` only if no slot holds one,
    /// and whether this call ran it.
    pub fn get_or_make(&self, key: &K, make: impl FnOnce() -> V) -> (V, bool) {
        let slot = {
            let mut inner = self.lock();
            if !inner.map.contains_key(key) {
                let entry = Entry {
                    slot: Arc::default(),
                    bytes: None,
                    last_used: 0,
                };
                inner.map.insert(key.clone(), entry);
            }
            Arc::clone(&inner.touch(key).expect("entry installed").slot)
        };
        let mut made = false;
        let value = slot
            .get_or_init(|| {
                made = true;
                make()
            })
            .clone();
        if !made {
            self.metrics.hits.inspect(|c| c.inc());
            return (value, false);
        }
        self.metrics.misses.inspect(|c| c.inc());
        let mut guard = self.lock();
        let inner = &mut *guard;
        // Charge the slot this call filled, unless `clear` or `remove`
        // dropped it meanwhile.
        if let Some(entry) = inner
            .map
            .get_mut(key)
            .filter(|e| e.bytes.is_none() && Arc::ptr_eq(&e.slot, &slot))
        {
            let bytes = (self.weigh)(&value);
            entry.bytes = Some(bytes);
            inner.resident += bytes;
            inner.order.insert(entry.last_used, key.clone());
        }
        self.shed(inner, Some(key));
        (value, true)
    }

    /// Installs `value` under `key` as a finished, most recently used
    /// entry and sheds over budget, `key` exempt. Returns the evicted
    /// keys, so a caller can release what they stand for.
    pub fn put(&self, key: K, value: V) -> Vec<K> {
        let bytes = (self.weigh)(&value);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let entry = Entry {
            slot: Arc::new(OnceLock::from(value)),
            bytes: Some(bytes),
            last_used: inner.clock,
        };
        if let Some(old) = inner.map.insert(key.clone(), entry) {
            inner.forget(&old);
        }
        inner.order.insert(inner.clock, key.clone());
        inner.resident += bytes;
        self.shed(inner, Some(&key))
    }

    /// Drops `key`'s entry, finished or not.
    pub fn remove(&self, key: &K) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(entry) = inner.map.remove(key) {
            inner.forget(&entry);
            self.metrics.resident.inspect(|g| g.set(inner.resident));
        }
    }

    /// Drops every entry; callers blocked on a slot still get its value.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        inner.resident = 0;
        self.metrics.resident.inspect(|g| g.set(0));
    }

    /// Sets the budget and sheds down to it at once, returning the
    /// evicted keys.
    pub fn set_budget(&self, budget: u64) -> Vec<K> {
        let mut inner = self.lock();
        inner.budget = budget;
        self.shed(&mut inner, None)
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.lock().budget
    }

    /// Number of entries, in-flight ones included.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an entry, finished or not, is held under `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Evicts least-recently-used finished entries other than `keep`
    /// until residency fits the budget, then publishes the gauge. Each
    /// victim is the oldest (or, when that is `keep`, the second
    /// oldest) entry of the recency index.
    fn shed(&self, inner: &mut Inner<K, V>, keep: Option<&K>) -> Vec<K> {
        let mut victims = Vec::new();
        while inner.resident > inner.budget {
            let victim = inner
                .order
                .iter()
                .find(|(_, k)| Some(*k) != keep)
                .map(|(&stamp, _)| stamp);
            let Some(stamp) = victim else { break };
            let key = inner.order.remove(&stamp).expect("victim stamp held");
            let entry = inner.map.remove(&key).expect("victim key held");
            inner.resident -= entry.bytes.unwrap_or(0);
            self.metrics.evictions.inspect(|c| c.inc());
            victims.push(key);
        }
        self.metrics.resident.inspect(|g| g.set(inner.resident));
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Handles private to one test: never registered, so tests running
    /// side by side cannot see each other's counts.
    fn handles() -> MemoMetrics {
        let counter = || &*Box::leak(Box::new(Counter::default()));
        MemoMetrics {
            hits: Some(counter()),
            misses: Some(counter()),
            evictions: Some(counter()),
            resident: Some(Box::leak(Box::new(Gauge::default()))),
        }
    }

    fn sized(budget: u64) -> Memo<u32, u64> {
        Memo::new(budget, |bytes| *bytes, handles())
    }

    fn keys(memo: &Memo<u32, u64>) -> Vec<u32> {
        let mut keys: Vec<u32> = memo.lock().map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn eight_threads_on_one_key_run_make_once() {
        let memo = sized(u64::MAX);
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let values: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get_or_make(&7, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            42
                        })
                        .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(values.iter().all(|&v| v == 42));
        assert_eq!(memo.metrics.misses.unwrap().get(), 1);
        assert_eq!(memo.metrics.hits.unwrap().get(), 7);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let memo = sized(30);
        for key in [1, 2, 3] {
            memo.get_or_make(&key, || 10);
        }
        // Touch 1, so 2 is now the least recently used.
        assert!(!memo.get_or_make(&1, || unreachable!()).1);
        assert_eq!(memo.put(4, 10), vec![2]);
        assert_eq!(keys(&memo), vec![1, 3, 4]);
        assert!(memo.get_or_make(&5, || 10).1);
        assert_eq!(keys(&memo), vec![1, 4, 5]);
        assert_eq!(memo.metrics.evictions.unwrap().get(), 2);
        // An evicted key is made again on its next fetch.
        assert!(memo.get_or_make(&2, || 10).1);
    }

    #[test]
    fn a_hundred_thousand_entries_evict_in_exact_lru_order() {
        const N: u32 = 100_000;
        let memo = sized(u64::from(N / 2));
        for key in 0..N / 2 {
            assert!(memo.put(key, 1).is_empty());
        }
        // Refresh the even half: the odd keys become the oldest.
        for key in (0..N / 2).step_by(2) {
            assert_eq!(memo.get(&key), Some(1));
        }
        let victims: Vec<u32> = (N / 2..N).flat_map(|key| memo.put(key, 1)).collect();
        let lru: Vec<u32> = (1..N / 2).step_by(2).chain((0..N / 2).step_by(2)).collect();
        assert_eq!(victims, lru);
        assert_eq!(keys(&memo), (N / 2..N).collect::<Vec<_>>());
        assert_eq!(memo.lock().resident, u64::from(N / 2));
    }

    #[test]
    fn get_refreshes_recency_and_reads_an_in_flight_slot_as_none() {
        let memo = sized(20);
        memo.put(1, 10);
        memo.put(2, 10);
        // A hit makes 1 the freshest, so installing 3 sheds 2.
        assert_eq!(memo.get(&1), Some(10));
        assert_eq!(memo.put(3, 10), vec![2]);
        assert_eq!(memo.get(&2), None);
        let started = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| {
                memo.get_or_make(&4, || {
                    started.wait();
                    release.wait();
                    5
                })
            });
            started.wait();
            assert_eq!(memo.get(&4), None, "get never waits for a maker");
            release.wait();
            assert_eq!(in_flight.join().unwrap(), (5, true));
        });
        assert_eq!(memo.get(&4), Some(5));
        // Only the two finished reads counted as hits.
        assert_eq!(memo.metrics.hits.unwrap().get(), 2);
        assert_eq!(memo.metrics.misses.unwrap().get(), 1);
    }

    #[test]
    fn neither_the_just_installed_nor_an_in_flight_key_is_evicted() {
        let memo = sized(5);
        // One value larger than the whole budget is still kept.
        assert!(memo.get_or_make(&1, || 50).1);
        assert_eq!(keys(&memo), vec![1]);
        let started = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| {
                memo.get_or_make(&2, || {
                    started.wait();
                    release.wait();
                    3
                })
            });
            started.wait();
            // Key 2 is mid-make: installing 3 sheds 1 but never 2.
            assert_eq!(memo.put(3, 4), vec![1]);
            assert_eq!(memo.set_budget(0), vec![3]);
            assert_eq!(keys(&memo), vec![2]);
            release.wait();
            assert_eq!(in_flight.join().unwrap(), (3, true));
        });
        // Once made, key 2 is the just-installed key and stays.
        assert_eq!(keys(&memo), vec![2]);
        assert_eq!(memo.lock().resident, 3);
    }

    #[test]
    fn lowering_the_budget_sheds_immediately() {
        let memo = sized(u64::MAX);
        for key in 0..10 {
            memo.put(key, 100);
        }
        assert_eq!(memo.lock().resident, 1_000);
        assert_eq!(memo.set_budget(350), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(memo.lock().resident, 300);
        assert_eq!(memo.budget(), 350);
        assert_eq!(memo.metrics.evictions.unwrap().get(), 7);
    }

    #[test]
    fn resident_gauge_equals_the_sum_of_charged_bytes() {
        let memo = sized(1_000);
        let gauge = memo.metrics.resident.unwrap();
        let mut expected = std::collections::HashMap::new();
        for (i, bytes) in [120u64, 7, 300, 55, 410, 90, 260, 13]
            .into_iter()
            .enumerate()
        {
            let key = (i % 5) as u32;
            if i % 2 == 0 {
                memo.remove(&key);
                memo.get_or_make(&key, || bytes);
            } else {
                memo.put(key, bytes);
            }
            let held = keys(&memo);
            expected.retain(|k, _| held.contains(k));
            expected.insert(key, memo.lock().map[&key].bytes.unwrap());
            let sum: u64 = expected.values().sum();
            assert_eq!(gauge.get(), sum);
            assert_eq!(memo.lock().resident, sum);
            assert!(sum <= 1_000);
        }
        memo.remove(&0);
        memo.clear();
        assert_eq!(gauge.get(), 0);
        assert!(memo.is_empty());
    }
}

//! # nvm-llc-store — persistent content-addressed result store
//!
//! A small, std-only on-disk cache keyed by content digests: the
//! evaluation service and the CLI persist simulation results and encoded
//! outcome tapes here so that warm state survives process restarts (the
//! disk tier of the memory → disk → recompute read-through stack).
//!
//! Design points, in the order they matter:
//!
//! * **Content addressing.** A [`Key`] is a 128-bit FNV-1a digest of a
//!   caller-assembled payload describing *everything the value depends
//!   on* (trace identity, hierarchy geometry, simulation
//!   configuration, technology parameters, and the producing crate's
//!   model version). Equal inputs map to the same file; any input change
//!   maps elsewhere. Nothing is ever updated in place.
//! * **Self-validating records.** Every file is a [`wire`]-format record:
//!   a fixed header (magic, format version, payload length, FNV-1a-64
//!   checksum) followed by the payload. [`Store::get`] re-verifies all
//!   of it and treats *any* mismatch — truncation, bit rot, a stale
//!   format — as a miss, deleting the bad file so the caller falls back
//!   to recompute and the next [`Store::put`] heals the entry.
//! * **Atomic writes.** [`Store::put`] writes a temporary file in the
//!   same directory and `rename(2)`s it into place, so concurrent
//!   readers (other threads *or other processes* sharing the directory)
//!   only ever observe absent or complete records.
//! * **Bounded residency.** The store's index is the same LRU memo as
//!   the in-memory trace cache and result tier ([`nvm_llc_obs::memo::Memo`]),
//!   charged with each record's file size against a byte budget
//!   (default [`DEFAULT_BUDGET_BYTES`]): inserts that push the resident
//!   total over budget evict the least-recently-fetched records, whose
//!   files are deleted outside the index lock.
//! * **Zero-copy warm reads.** On unix (with the default `mmap`
//!   feature), [`Store::get_mapped`] memory-maps a record, validates
//!   the header in place, and returns a [`Payload`] borrowing the
//!   payload bytes straight from the page cache — no allocation or
//!   copy proportional to record size. Everywhere else, and whenever
//!   mapping fails, the same call falls back to the owned
//!   [`Store::get`] path, so callers never branch on platform.
//!
//! The crate knows nothing about simulations: values are opaque byte
//! payloads. `nvm_llc_sim::persist` supplies the encodings and key
//! derivations.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nvm_llc_obs::memo::{Memo, MemoMetrics};

#[cfg(all(unix, feature = "mmap"))]
mod mmap;
pub mod wire;

#[cfg(all(unix, feature = "mmap"))]
pub use mmap::MappedPayload;

/// Store counters in the [`nvm_llc_obs`] registry.
///
/// Every [`Store`] resolves its own handles when it opens, labelled
/// `instance="<n>"` ([`Store::instance`]), and keeps no other copy of
/// these facts: [`Store::stats`] reads the same handles `/metricsz`
/// renders.
pub mod metrics {
    use nvm_llc_obs::metrics::{counter_with, declare_counter, gauge_with, Counter, Gauge};

    /// The store's counter families, in [`Handles`] field order.
    const COUNTERS: [(&str, &str); 8] = [
        (
            "nvmllc_store_hits_total",
            "Store reads that returned a valid payload.",
        ),
        (
            "nvmllc_store_misses_total",
            "Store reads that found no usable record (corrupt included).",
        ),
        (
            "nvmllc_store_corrupt_total",
            "Records rejected by validation and deleted for recompute.",
        ),
        (
            "nvmllc_store_insertions_total",
            "Records written and renamed into place.",
        ),
        (
            "nvmllc_store_evictions_total",
            "Records deleted to stay under the byte budget.",
        ),
        (
            "nvmllc_store_bytes_read_total",
            "Payload bytes returned by store hits.",
        ),
        (
            "nvmllc_store_mmap_bytes_total",
            "Payload bytes served zero-copy from mmap-backed reads.",
        ),
        (
            "nvmllc_store_bytes_written_total",
            "File bytes written by store insertions (header + payload).",
        ),
    ];

    /// One store's handles.
    pub(crate) struct Handles {
        pub hits: &'static Counter,
        pub misses: &'static Counter,
        pub corrupt: &'static Counter,
        pub insertions: &'static Counter,
        pub evictions: &'static Counter,
        pub bytes_read: &'static Counter,
        pub mmap_bytes: &'static Counter,
        pub bytes_written: &'static Counter,
        pub resident_bytes: &'static Gauge,
    }

    impl Handles {
        /// Resolves every handle under `instance="<instance>"`.
        pub fn new(instance: u64) -> Handles {
            let id = instance.to_string();
            let labels = [("instance", id.as_str())];
            let [hits, misses, corrupt, insertions, evictions, bytes_read, mmap_bytes, bytes_written] =
                COUNTERS.map(|(name, help)| counter_with(name, help, &labels));
            Handles {
                hits,
                misses,
                corrupt,
                insertions,
                evictions,
                bytes_read,
                mmap_bytes,
                bytes_written,
                resident_bytes: gauge_with(
                    "nvmllc_store_resident_bytes",
                    "Record bytes currently indexed by the store.",
                    &labels,
                ),
            }
        }
    }

    /// Declares the store's counter families, so a scrape lists them
    /// even while no store is open.
    pub fn register() {
        for (name, help) in COUNTERS {
            declare_counter(name, help);
        }
    }
}

/// Magic bytes opening every record file.
const MAGIC: [u8; 4] = *b"NVLS";

/// On-disk record format version; bump on any layout change so old
/// records read as corrupt (→ recompute) instead of mis-decoding.
const FORMAT_VERSION: u32 = 1;

/// Record header: magic (4) + format version (4) + payload length (8) +
/// payload checksum (8).
const HEADER_BYTES: usize = 24;

/// Default residency budget: 1 GiB of records.
pub const DEFAULT_BUDGET_BYTES: u64 = 1 << 30;

/// 64-bit FNV-1a over `bytes` (the record checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 128-bit FNV-1a over `bytes` (the content-address digest).
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut hash = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58du128;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013bu128);
    }
    hash
}

/// A 128-bit content address: the digest of everything a stored value
/// depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(u128);

impl Key {
    /// Digests an identity payload into a key.
    pub fn digest(identity: &[u8]) -> Key {
        Key(fnv1a128(identity))
    }

    /// The key as a fixed-width lowercase hex string (the record's file
    /// stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// The raw 128-bit digest — the content-addressed keyspace a
    /// cluster shards over.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// The key folded onto a 64-bit hash ring: both halves of the
    /// digest mixed, so keys differing only in their high bits still
    /// land on distinct ring points.
    pub fn ring_point(&self) -> u64 {
        let hi = (self.0 >> 64) as u64;
        let lo = self.0 as u64;
        // Same finalizer family as splitmix64: cheap, well distributed,
        // and identical on every node — shard maps must agree.
        let mut x = hi ^ lo.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn from_hex(stem: &str) -> Option<Key> {
        if stem.len() != 32 {
            return None;
        }
        u128::from_str_radix(stem, 16).ok().map(Key)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Counters describing one store's traffic since it was opened: a
/// snapshot of the store's registry handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// `get` calls that returned a valid payload.
    pub hits: u64,
    /// `get` calls that found no record.
    pub misses: u64,
    /// `get` calls that found a record but rejected it (bad magic,
    /// version, length, or checksum) — counted *in addition to* a miss.
    pub corrupt: u64,
    /// Records written (after `put` renamed them into place).
    pub insertions: u64,
    /// Records deleted to stay under the byte budget.
    pub evictions: u64,
    /// Payload bytes returned by hits.
    pub bytes_read: u64,
    /// File bytes written by insertions (header + payload).
    pub bytes_written: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} corrupt), {} inserted, {} evicted",
            self.hits, self.misses, self.corrupt, self.insertions, self.evictions
        )
    }
}

/// A payload returned by [`Store::get_mapped`]: either an owned buffer
/// (the portable path) or a zero-copy view into a memory-mapped record.
///
/// Dereferences to `[u8]` either way, so decoders written against byte
/// slices work unchanged. The `Mapped` variant keeps the whole record
/// file mapped for as long as the payload is alive; callers that decode
/// and drop (the store's only use today) release the mapping
/// immediately after.
#[derive(Debug)]
pub enum Payload {
    /// Heap-allocated payload from the portable `fs::read` path.
    Owned(Vec<u8>),
    /// Zero-copy view of the payload inside a mapped record file.
    #[cfg(all(unix, feature = "mmap"))]
    Mapped(MappedPayload),
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(bytes) => bytes,
            #[cfg(all(unix, feature = "mmap"))]
            Payload::Mapped(mapped) => mapped,
        }
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// A persistent content-addressed record store rooted at one directory.
///
/// All operations are `&self` and internally synchronized, so a `Store`
/// can be shared across threads behind an `Arc`. Multiple processes may
/// share a directory: writes are atomic renames and reads validate, so
/// the worst cross-process race is a redundant recompute.
pub struct Store {
    dir: PathBuf,
    /// Every indexed record, charged its full size on disk (header +
    /// payload).
    index: Memo<Key, u64>,
    tmp_seq: AtomicU64,
    instance: u64,
    metrics: metrics::Handles,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("budget", &self.byte_budget())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir` with the
    /// default byte budget, indexing any records already present —
    /// recency seeded from file modification times, so a reopened
    /// store evicts in roughly the same order it would have.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Store> {
        Store::open_with_budget(dir, DEFAULT_BUDGET_BYTES)
    }

    /// [`Store::open`] with an explicit residency budget in bytes.
    pub fn open_with_budget(dir: impl AsRef<Path>, budget: u64) -> std::io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Index surviving records, oldest-modified first so their
        // relative recency is preserved; leftover tmp files from a
        // crashed writer are swept.
        let mut found: Vec<(Key, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("tmp-") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(stem) = name.strip_suffix(".rec") else {
                continue;
            };
            let Some(key) = Key::from_hex(stem) else {
                continue;
            };
            let meta = entry.metadata()?;
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((key, meta.len(), mtime));
        }
        found.sort_by_key(|(_, _, mtime)| *mtime);
        let instance = nvm_llc_obs::metrics::next_instance();
        let metrics = metrics::Handles::new(instance);
        let index = Memo::new(
            u64::MAX,
            |bytes| *bytes,
            MemoMetrics {
                evictions: Some(metrics.evictions),
                resident: Some(metrics.resident_bytes),
                ..MemoMetrics::default()
            },
        );
        for (key, bytes, _) in found {
            index.put(key, bytes);
        }
        let store = Store {
            dir,
            index,
            tmp_seq: AtomicU64::new(0),
            instance,
            metrics,
        };
        store.delete_records(store.index.set_budget(budget));
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The residency budget in bytes.
    pub fn byte_budget(&self) -> u64 {
        self.index.budget()
    }

    /// This store's `instance` label in the metrics registry.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    fn record_path(&self, key: &Key) -> PathBuf {
        self.dir.join(format!("{}.rec", key.hex()))
    }

    /// Fetches the payload stored under `key`, or `None` when absent or
    /// invalid. A record failing validation is counted in
    /// [`StoreStats::corrupt`], deleted (best-effort), and reported as a
    /// miss — the caller recomputes and may re-`put`.
    pub fn get(&self, key: &Key) -> Option<Vec<u8>> {
        let Ok(bytes) = fs::read(self.record_path(key)) else {
            return self.miss(key, None);
        };
        let Some(payload) = validate_record(&bytes) else {
            return self.miss(key, Some(bytes.len()));
        };
        self.hit(key, payload.len(), bytes.len());
        Some(payload.to_vec())
    }

    /// [`Store::get`] without the copy, where the platform allows it.
    ///
    /// On unix with the default `mmap` feature, a present record is
    /// memory-mapped, validated in place, and returned as
    /// [`Payload::Mapped`] — the payload bytes are borrowed straight
    /// from the page cache. On other platforms, with the feature off,
    /// or when the kernel refuses the mapping, the call falls back to
    /// the owned [`Store::get`] path and returns [`Payload::Owned`].
    ///
    /// Accounting matches [`Store::get`] exactly: hits/misses/corrupt
    /// counters move the same way, LRU recency is touched on hits, and
    /// a record failing validation is deleted so the caller recomputes.
    /// Mapped hits additionally count into
    /// `nvmllc_store_mmap_bytes_total`.
    pub fn get_mapped(&self, key: &Key) -> Option<Payload> {
        #[cfg(all(unix, feature = "mmap"))]
        {
            let Ok(file) = fs::File::open(self.record_path(key)) else {
                return self.miss(key, None);
            };
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            let Some(map) = mmap::Mmap::map(&file, len) else {
                // Empty file, exotic filesystem, address-space
                // exhaustion: let the owned path classify it (a
                // zero-length record fails validation there and is
                // cleaned up as corrupt).
                drop(file);
                return self.get(key).map(Payload::Owned);
            };
            let Some(payload) = validate_record(&map) else {
                let bytes = map.len();
                drop(map);
                return self.miss(key, Some(bytes));
            };
            self.metrics.mmap_bytes.add(payload.len() as u64);
            self.hit(key, payload.len(), map.len());
            Some(Payload::Mapped(MappedPayload::new(map)))
        }
        #[cfg(not(all(unix, feature = "mmap")))]
        {
            self.get(key).map(Payload::Owned)
        }
    }

    /// Persists `payload` under `key`: header + payload to a temporary
    /// sibling, then an atomic rename. Evicts least-recently-fetched
    /// records if the insert pushed residency over budget.
    pub fn put(&self, key: &Key, payload: &[u8]) -> std::io::Result<()> {
        let mut record = Vec::with_capacity(HEADER_BYTES + payload.len());
        record.extend_from_slice(&MAGIC);
        record.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        record.extend_from_slice(payload);

        let tmp = self.dir.join(format!(
            "tmp-{}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
            key.hex()
        ));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&record)?;
            file.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, self.record_path(key)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.metrics.insertions.inc();
        self.metrics.bytes_written.add(record.len() as u64);
        self.touch(key, record.len() as u64);
        Ok(())
    }

    /// Whether a record (valid or not) is currently indexed under `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.index.contains(key)
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total record bytes currently indexed.
    pub fn resident_bytes(&self) -> u64 {
        self.metrics.resident_bytes.get()
    }

    /// Snapshot of this store's traffic counters.
    pub fn stats(&self) -> StoreStats {
        let m = &self.metrics;
        StoreStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            corrupt: m.corrupt.get(),
            insertions: m.insertions.get(),
            evictions: m.evictions.get(),
            bytes_read: m.bytes_read.get(),
            bytes_written: m.bytes_written.get(),
        }
    }

    /// Counts a hit returning `payload` bytes from a `record`-byte file
    /// and marks `key` as just used.
    fn hit(&self, key: &Key, payload: usize, record: usize) {
        self.metrics.hits.inc();
        self.metrics.bytes_read.add(payload as u64);
        self.touch(key, record as u64);
    }

    /// Counts a miss and unindexes `key`. A `corrupt` record (its size
    /// in bytes) is also counted and deleted, so the caller recomputes
    /// and the next [`Store::put`] heals the entry.
    fn miss<T>(&self, key: &Key, corrupt: Option<usize>) -> Option<T> {
        self.metrics.misses.inc();
        if let Some(bytes) = corrupt {
            self.metrics.corrupt.inc();
            nvm_llc_obs::debug!(
                "store", "corrupt record deleted; caller will recompute";
                "key" => key.hex(),
                "bytes" => bytes,
            );
            let _ = fs::remove_file(self.record_path(key));
        }
        self.index.remove(key);
        None
    }

    /// Marks `key` as just-used (indexing it if the record appeared
    /// behind our back, e.g. written by another process) and deletes
    /// the least-recently-fetched records over budget, never `key` (a
    /// budget smaller than one record must not churn every insert).
    fn touch(&self, key: &Key, bytes: u64) {
        self.delete_records(self.index.put(*key, bytes));
    }

    /// Deletes evicted records' files, outside the index lock.
    fn delete_records(&self, victims: Vec<Key>) {
        for key in victims {
            let _ = fs::remove_file(self.record_path(&key));
        }
    }
}

impl Drop for Store {
    /// A closed store indexes nothing: its residency sample drops to
    /// zero (its counters stay, as counters do).
    fn drop(&mut self) {
        self.metrics.resident_bytes.set(0);
    }
}

/// Checks a raw record file and returns its payload slice when intact.
fn validate_record(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < HEADER_BYTES || bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() as u64 != len || fnv1a64(payload) != checksum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let dir = std::env::temp_dir().join(format!(
                "nvm-llc-store-{tag}-{}-{}-{}",
                std::process::id(),
                nanos,
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        let a = Key::digest(b"hello");
        assert_eq!(a, Key::digest(b"hello"));
        assert_ne!(a, Key::digest(b"hello!"));
        assert_eq!(a.hex().len(), 32);
        assert_eq!(Key::from_hex(&a.hex()), Some(a));
    }

    #[test]
    fn put_then_get_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"k1");
        assert_eq!(store.get(&key), None);
        store.put(&key, b"payload bytes").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some(b"payload bytes".as_ref()));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 1, 0));
        assert_eq!(stats.insertions, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn empty_payloads_are_valid_records() {
        let tmp = TempDir::new("empty");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"nothing");
        store.put(&key, b"").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some(b"".as_ref()));
    }

    #[test]
    fn records_survive_reopen() {
        let tmp = TempDir::new("reopen");
        let key = Key::digest(b"persisted");
        {
            let store = Store::open(&tmp.0).unwrap();
            store.put(&key, b"still here").unwrap();
        }
        let store = Store::open(&tmp.0).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(&key));
        assert_eq!(store.get(&key).as_deref(), Some(b"still here".as_ref()));
    }

    #[test]
    fn truncated_record_reads_as_clean_miss() {
        let tmp = TempDir::new("truncate");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"will truncate");
        store.put(&key, &vec![7u8; 256]).unwrap();
        // Truncate mid-payload: the length/checksum no longer match.
        let path = tmp.0.join(format!("{}.rec", key.hex()));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.get(&key), None);
        assert_eq!(store.stats().corrupt, 1);
        // The bad file was shed; a later get is a plain miss.
        assert!(!path.exists());
        assert!(!store.contains(&key));
        assert_eq!(store.get(&key), None);
        assert_eq!(store.stats().corrupt, 1);
        // And the entry heals on the next put.
        store.put(&key, b"fresh").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some(b"fresh".as_ref()));
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let tmp = TempDir::new("bitrot");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"will rot");
        store.put(&key, b"some payload").unwrap();
        let path = tmp.0.join(format!("{}.rec", key.hex()));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(&key), None);
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn wrong_magic_or_version_is_rejected() {
        let payload = b"p".to_vec();
        let mut record = Vec::new();
        record.extend_from_slice(&MAGIC);
        record.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        assert!(validate_record(&record).is_some());
        let mut bad_magic = record.clone();
        bad_magic[0] = b'X';
        assert!(validate_record(&bad_magic).is_none());
        let mut bad_version = record.clone();
        bad_version[4] = 0xFF;
        assert!(validate_record(&bad_version).is_none());
        assert!(validate_record(&record[..HEADER_BYTES - 1]).is_none());
    }

    #[test]
    fn eviction_sheds_least_recently_used_first() {
        let tmp = TempDir::new("lru");
        // Each record is 24 + 100 bytes; budget fits exactly two.
        let store = Store::open_with_budget(&tmp.0, 2 * 124).unwrap();
        let (a, b, c) = (Key::digest(b"a"), Key::digest(b"b"), Key::digest(b"c"));
        store.put(&a, &[1u8; 100]).unwrap();
        store.put(&b, &[2u8; 100]).unwrap();
        // Refresh `a`, making `b` the LRU victim when `c` arrives.
        assert!(store.get(&a).is_some());
        store.put(&c, &[3u8; 100]).unwrap();
        assert_eq!(store.stats().evictions, 1);
        assert!(store.contains(&a));
        assert!(!store.contains(&b));
        assert!(store.contains(&c));
        assert!(store.resident_bytes() <= 2 * 124);
    }

    #[test]
    fn reopen_respects_budget_and_mtime_order() {
        let tmp = TempDir::new("reopen-budget");
        let keys: Vec<Key> = (0..4).map(|i| Key::digest(&[i as u8])).collect();
        {
            let store = Store::open(&tmp.0).unwrap();
            for key in &keys {
                store.put(key, &[0u8; 100]).unwrap();
            }
        }
        // Reopen with room for two records: the two oldest go.
        let store = Store::open_with_budget(&tmp.0, 2 * 124).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 2);
    }

    #[test]
    fn tmp_files_are_swept_and_never_indexed() {
        let tmp = TempDir::new("sweep");
        fs::create_dir_all(&tmp.0).unwrap();
        fs::write(tmp.0.join("tmp-999-0-deadbeef"), b"half-written").unwrap();
        fs::write(tmp.0.join("unrelated.txt"), b"ignored").unwrap();
        let store = Store::open(&tmp.0).unwrap();
        assert_eq!(store.len(), 0);
        assert!(!tmp.0.join("tmp-999-0-deadbeef").exists());
        assert!(tmp.0.join("unrelated.txt").exists());
    }

    #[test]
    fn get_mapped_round_trips_with_get_accounting() {
        let tmp = TempDir::new("mapped");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"mapped key");
        assert!(store.get_mapped(&key).is_none());
        store.put(&key, b"mapped payload").unwrap();
        let payload = store.get_mapped(&key).expect("warm read");
        assert_eq!(&*payload, b"mapped payload");
        assert_eq!(payload.as_ref(), b"mapped payload");
        #[cfg(all(unix, feature = "mmap"))]
        assert!(
            matches!(payload, Payload::Mapped(_)),
            "unix warm reads must take the zero-copy path: {payload:?}"
        );
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 1, 0));
        assert_eq!(stats.bytes_read, b"mapped payload".len() as u64);
    }

    #[test]
    fn get_mapped_empty_payload_still_round_trips() {
        // A header-only record maps fine (24 bytes) and carries an
        // empty payload — the mapped slice must be empty, not an error.
        let tmp = TempDir::new("mapped-empty");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"mapped nothing");
        store.put(&key, b"").unwrap();
        let payload = store.get_mapped(&key).expect("warm read");
        assert_eq!(&*payload, b"");
    }

    #[test]
    fn truncated_mapped_record_falls_back_to_clean_recompute() {
        let tmp = TempDir::new("mapped-truncate");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"mapped will truncate");
        store.put(&key, &vec![9u8; 512]).unwrap();
        let path = tmp.0.join(format!("{}.rec", key.hex()));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 3]).unwrap();
        // The mapped read rejects the record, deletes it, and reports a
        // clean miss, so the caller recomputes...
        assert_eq!(store.get_mapped(&key).map(|p| p.to_vec()), None);
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists());
        assert!(!store.contains(&key));
        // ...and the recomputed put heals the entry for mapped reads.
        store.put(&key, b"recomputed").unwrap();
        let healed = store.get_mapped(&key).expect("healed record");
        assert_eq!(&*healed, b"recomputed");
    }

    #[test]
    fn zero_length_record_file_is_classified_corrupt_by_get_mapped() {
        // An empty *file* (not an empty payload) cannot be mapped; the
        // fallback path must still classify and shed it.
        let tmp = TempDir::new("mapped-zero");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"zero-length file");
        let path = tmp.0.join(format!("{}.rec", key.hex()));
        fs::write(&path, b"").unwrap();
        assert!(store.get_mapped(&key).is_none());
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists());
    }

    /// A damaged record is never served: every strict prefix of a valid
    /// record file, and every single-byte flip anywhere in it (header or
    /// payload), reads through `get_mapped` as a clean miss, counted as
    /// corrupt, with the file deleted.
    #[test]
    fn truncated_and_mutated_records_are_corrupt_misses_via_get_mapped() {
        let tmp = TempDir::new("mapped-damage");
        let store = Store::open(&tmp.0).unwrap();
        let key = Key::digest(b"will be damaged");
        let payload: Vec<u8> = (0..40u8).collect();
        store.put(&key, &payload).unwrap();
        let path = tmp.0.join(format!("{}.rec", key.hex()));
        let valid = fs::read(&path).unwrap();
        assert_eq!(valid.len(), HEADER_BYTES + payload.len());
        let mut damaged: Vec<Vec<u8>> = (0..valid.len()).map(|len| valid[..len].to_vec()).collect();
        for i in 0..valid.len() {
            // A non-zero XOR mask seeded by the position, so any failure
            // reproduces.
            let mut record = valid.clone();
            record[i] ^= (fnv1a64(&i.to_le_bytes()) % 255 + 1) as u8;
            damaged.push(record);
        }
        for (n, record) in damaged.iter().enumerate() {
            fs::write(&path, record).unwrap();
            assert!(store.get_mapped(&key).is_none(), "damaged record {n}");
            assert_eq!(store.stats().corrupt, n as u64 + 1, "damaged record {n}");
            assert!(!path.exists(), "damaged record {n} left on disk");
        }
        assert_eq!(store.stats().hits, 0);
        // The next put heals the entry.
        store.put(&key, &payload).unwrap();
        assert_eq!(&*store.get_mapped(&key).expect("healed"), &payload[..]);
    }

    #[test]
    fn stats_display_is_informative() {
        let s = StoreStats {
            hits: 3,
            misses: 2,
            corrupt: 1,
            ..StoreStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("3 hits"));
        assert!(text.contains("1 corrupt"));
    }

    #[test]
    fn stores_sharing_a_process_keep_their_own_samples() {
        let (dir_a, dir_b) = (TempDir::new("instance-a"), TempDir::new("instance-b"));
        let a = Store::open(&dir_a.0).unwrap();
        let b = Store::open(&dir_b.0).unwrap();
        assert_ne!(a.instance(), b.instance());
        let key = Key::digest(b"only in a");
        a.put(&key, &[1u8; 100]).unwrap();
        assert!(a.get(&key).is_some());
        assert_eq!(
            b.stats(),
            StoreStats::default(),
            "b saw none of a's traffic"
        );

        let sample = |family: &str, instance: u64| {
            let scrape = nvm_llc_obs::federate::parse(&nvm_llc_obs::metrics::render_prometheus());
            let labels = format!("{{instance=\"{instance}\"}}");
            scrape
                .scalar_samples(family)
                .iter()
                .find(|(l, _)| *l == labels)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("no {family}{labels} sample"))
        };
        let (ia, ib) = (a.instance(), b.instance());
        assert_eq!(sample("nvmllc_store_hits_total", ia), 1.0);
        assert_eq!(sample("nvmllc_store_insertions_total", ia), 1.0);
        assert_eq!(sample("nvmllc_store_hits_total", ib), 0.0);
        assert_eq!(sample("nvmllc_store_resident_bytes", ia), 124.0);
        assert_eq!(sample("nvmllc_store_resident_bytes", ib), 0.0);
        let reopened = Store::open(&dir_a.0).unwrap();
        drop(a);
        assert_eq!(sample("nvmllc_store_resident_bytes", ia), 0.0, "closed");
        assert_eq!(
            sample("nvmllc_store_resident_bytes", reopened.instance()),
            124.0,
            "closing one store leaves another's residency alone"
        );
    }
}

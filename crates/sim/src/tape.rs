//! Outcome tapes: the functional half of the functional/timing split.
//!
//! The functional behavior of the cache hierarchy — which level serves
//! each access, which writebacks cascade into the LLC, which prefetches
//! fill, which victims invalidate — depends only on the trace and the
//! hierarchy *geometry* (core count, L1/L2/LLC shapes, replacement,
//! warmup, and the inclusive/prefetch/bypass flags). It never depends on
//! an NVM technology's latency or energy parameters. The paper's matrix
//! (Figures 1–2) evaluates eleven technologies against one geometry, so
//! ten of the eleven functional simulations per workload are identical.
//!
//! [`System::record`](crate::system::System::record) runs that functional
//! pass once and emits an [`OutcomeTape`] in struct-of-arrays form: one
//! gap, core and flag lane entry per post-warmup trace event, plus two
//! flat side streams of block addresses for the endurance tracker and
//! the detailed-DRAM model. [`System::replay_batch`] then applies every
//! technology's cycle latencies, port contention, ROB/MSHR miss-shadow
//! accounting, DRAM model, and energy equations (7)–(8) over those
//! lanes, producing `SimResult`s bit-identical to the fused single-pass
//! [`System::run`](crate::system::System::run).
//!
//! The tape has exactly one in-memory form. Packing each event into a
//! `u64` and varint-compressing the side streams happen only at the
//! store boundary ([`crate::persist::encode_tape`] and
//! [`crate::persist::decode_tape`]).
//!
//! [`cache`] memoizes tapes process-wide on the same single-flight LRU
//! memo as `nvm_llc_trace::cache` ([`nvm_llc_obs::memo::Memo`]), so an
//! evaluation matrix performs one functional pass per distinct geometry
//! and replays everything else. Tapes key on the trace's content hash,
//! so a trace regenerated after eviction still hits. The cache is
//! bounded by a byte budget ([`cache::DEFAULT_BUDGET_BYTES`], 256 MiB;
//! [`cache::set_byte_budget`] moves it), charged with each tape's
//! resident lane and side-stream capacity.
//!
//! [`System::replay_batch`]: crate::system::System::replay_batch

use crate::cache::Replacement;
use crate::result::SimStats;

/// Which hierarchy level served a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served by the private L1D.
    L1Hit,
    /// L1 miss, served by the private L2.
    L2Hit,
    /// L1+L2 miss, served by the shared LLC.
    LlcHit,
    /// Missed the whole hierarchy; DRAM provides the block.
    LlcMiss,
}

impl Outcome {
    fn from_bits(bits: u8) -> Outcome {
        match bits & 0b11 {
            0 => Outcome::L1Hit,
            1 => Outcome::L2Hit,
            2 => Outcome::LlcHit,
            _ => Outcome::LlcMiss,
        }
    }
}

/// One trace event's functional outcome: the unit the timing engine
/// consumes, and one entry of each [`OutcomeTape`] lane.
///
/// The flag byte holds is-write (bit 0), the outcome class (bits 1–2)
/// and one bit per side-event flag (bits 3–7). The flags fully determine
/// how many entries the event consumes from the tape's endurance and
/// DRAM side streams, so replay needs no per-event indices into them — a
/// running cursor suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TapeEvent {
    pub(crate) gap: u32,
    pub(crate) core: u8,
    pub(crate) flags: u8,
}

impl TapeEvent {
    const IS_WRITE: u8 = 1;
    const CLASS_SHIFT: u32 = 1;
    const L1_WB_LLC_WRITE: u8 = 1 << 3;
    const L2_WB_LLC_WRITE: u8 = 1 << 4;
    const PF_EVICT_LLC_WRITE: u8 = 1 << 5;
    const PF_LLC_FILL: u8 = 1 << 6;
    const LLC_FILLED: u8 = 1 << 7;

    /// Starts an event on `core` after `gap` non-memory instructions,
    /// defaulting to an L1 hit with no side events.
    pub(crate) fn new(core: u8, gap: u32, is_write: bool) -> TapeEvent {
        TapeEvent {
            gap,
            core,
            flags: if is_write { Self::IS_WRITE } else { 0 },
        }
    }

    /// Sets the outcome class (default [`Outcome::L1Hit`]).
    pub(crate) fn with_outcome(mut self, outcome: Outcome) -> TapeEvent {
        self.flags |= (outcome as u8) << Self::CLASS_SHIFT;
        self
    }

    /// Flags an LLC write from the L1 victim's L2-eviction cascade.
    pub(crate) fn with_l1_writeback_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::L1_WB_LLC_WRITE;
        self
    }

    /// Flags an LLC write from the L2's own dirty victim.
    pub(crate) fn with_l2_writeback_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::L2_WB_LLC_WRITE;
        self
    }

    /// Flags an LLC write from the prefetch fill's dirty L2 victim.
    pub(crate) fn with_prefetch_evict_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::PF_EVICT_LLC_WRITE;
        self
    }

    /// Flags a prefetch fill that allocated in the LLC (one DRAM access).
    pub(crate) fn with_prefetch_llc_fill(mut self) -> TapeEvent {
        self.flags |= Self::PF_LLC_FILL;
        self
    }

    /// Flags a demand miss that allocated its block (not bypassed).
    pub(crate) fn with_llc_filled(mut self) -> TapeEvent {
        self.flags |= Self::LLC_FILLED;
        self
    }

    /// Non-memory instructions preceding the access.
    pub(crate) fn gap_instructions(self) -> u32 {
        self.gap
    }

    /// Core (0-based) the event ran on.
    pub(crate) fn core(self) -> usize {
        usize::from(self.core)
    }

    /// Whether the access was a store.
    pub(crate) fn is_write(self) -> bool {
        self.flags & Self::IS_WRITE != 0
    }

    /// The serving level.
    pub(crate) fn outcome(self) -> Outcome {
        Outcome::from_bits(self.flags >> Self::CLASS_SHIFT)
    }

    /// LLC write from the L1 victim cascade?
    pub(crate) fn l1_writeback_llc_write(self) -> bool {
        self.flags & Self::L1_WB_LLC_WRITE != 0
    }

    /// LLC write from the L2 dirty victim?
    pub(crate) fn l2_writeback_llc_write(self) -> bool {
        self.flags & Self::L2_WB_LLC_WRITE != 0
    }

    /// LLC write from the prefetch fill's dirty L2 victim?
    pub(crate) fn prefetch_evict_llc_write(self) -> bool {
        self.flags & Self::PF_EVICT_LLC_WRITE != 0
    }

    /// Prefetch allocated in the LLC?
    pub(crate) fn prefetch_llc_fill(self) -> bool {
        self.flags & Self::PF_LLC_FILL != 0
    }

    /// Demand miss allocated its block?
    pub(crate) fn llc_filled(self) -> bool {
        self.flags & Self::LLC_FILLED != 0
    }

    /// How many entries this event consumes from the endurance and DRAM
    /// side streams during replay. Mirrors `TimingEngine::apply`'s
    /// early-out structure; [`crate::persist::decode_tape`] uses it to
    /// check that the side streams partition exactly across the events.
    pub(crate) fn side_counts(self) -> (usize, usize) {
        let outcome = self.outcome();
        if outcome == Outcome::L1Hit {
            return (0, 0);
        }
        let mut wear = usize::from(self.l1_writeback_llc_write());
        if outcome == Outcome::L2Hit {
            return (wear, 0);
        }
        wear += usize::from(self.l2_writeback_llc_write());
        wear += usize::from(self.prefetch_evict_llc_write());
        let mut dram = 0;
        if self.prefetch_llc_fill() {
            wear += 1;
            dram += 1;
        }
        if outcome == Outcome::LlcHit {
            return (wear, dram);
        }
        wear += usize::from(self.llc_filled());
        (wear, dram + 1)
    }
}

/// Per-event side-event scratch: block addresses the event contributed to
/// the endurance and DRAM streams, in emission order. Fixed-capacity (an
/// event touches the LLC array at most five times and DRAM at most
/// twice), so the hot loop never allocates.
#[derive(Debug, Default)]
pub(crate) struct SideEvents {
    endurance: [u64; 5],
    endurance_len: u8,
    dram: [u64; 2],
    dram_len: u8,
}

impl SideEvents {
    pub(crate) fn clear(&mut self) {
        self.endurance_len = 0;
        self.dram_len = 0;
    }

    /// Queues one LLC array write (endurance stream).
    pub(crate) fn push_endurance(&mut self, block: u64) {
        self.endurance[usize::from(self.endurance_len)] = block;
        self.endurance_len += 1;
    }

    /// Queues one DRAM access (detailed-DRAM stream).
    pub(crate) fn push_dram(&mut self, block: u64) {
        self.dram[usize::from(self.dram_len)] = block;
        self.dram_len += 1;
    }

    pub(crate) fn endurance(&self) -> &[u64] {
        &self.endurance[..usize::from(self.endurance_len)]
    }

    pub(crate) fn dram(&self) -> &[u64] {
        &self.dram[..usize::from(self.dram_len)]
    }
}

/// Events per replay chunk: [`System::replay_batch`] walks the lanes in
/// fixed-size blocks of this many events, and every engine of the batch
/// streams one block before any engine moves to the next. At 1024 events
/// a chunk's lanes (`u32` gap + core + flag) total 6 KiB — comfortably
/// inside one L1 data cache while the whole batch streams over it.
///
/// [`System::replay_batch`]: crate::system::System::replay_batch
pub const REPLAY_CHUNK_EVENTS: usize = 1024;

/// The recorded functional outcome of one `(trace, geometry)` pair —
/// everything Phase B (timing/energy replay) needs, and nothing else.
///
/// Struct-of-arrays: the gap, core and flag lanes are parallel arrays
/// indexed by event (6 bytes per event), and the endurance and DRAM side
/// streams are flat block-address arrays in the order
/// `TimingEngine::apply` consumes them (8 bytes per entry).
#[derive(Debug, Clone, Default)]
pub struct OutcomeTape {
    gaps: Vec<u32>,
    core_lane: Vec<u8>,
    flags: Vec<u8>,
    /// LLC array-write block addresses (endurance stream), in order.
    wear_blocks: Vec<u64>,
    /// DRAM access block addresses (detailed-DRAM stream), in order.
    dram_blocks: Vec<u64>,
    /// Every core that ran at least one event, ascending.
    present_cores: Vec<u8>,
    /// Functional counters (the timing-side fields stay zero).
    stats: SimStats,
    /// Core count the tape was recorded for (replay must match).
    cores: u32,
}

impl OutcomeTape {
    pub(crate) fn with_capacity(events: usize, cores: u32) -> OutcomeTape {
        OutcomeTape {
            gaps: Vec::with_capacity(events),
            core_lane: Vec::with_capacity(events),
            flags: Vec::with_capacity(events),
            cores,
            ..OutcomeTape::default()
        }
    }

    pub(crate) fn push(&mut self, event: TapeEvent, sides: &SideEvents) {
        self.gaps.push(event.gap);
        self.core_lane.push(event.core);
        self.flags.push(event.flags);
        self.wear_blocks.extend_from_slice(sides.endurance());
        self.dram_blocks.extend_from_slice(sides.dram());
    }

    /// Finishes a tape: attaches the functional counters, drops the side
    /// streams' growth slack (the cache charges capacity, so slack would
    /// cost budget), and notes which cores appear.
    pub(crate) fn seal(&mut self, stats: SimStats) {
        self.stats = stats;
        self.wear_blocks.shrink_to_fit();
        self.dram_blocks.shrink_to_fit();
        let mut seen = [false; 256];
        for &core in &self.core_lane {
            seen[usize::from(core)] = true;
        }
        self.present_cores = (0..=u8::MAX).filter(|&c| seen[usize::from(c)]).collect();
    }

    /// Rebuilds a tape from already-validated lanes and side streams
    /// ([`crate::persist::decode_tape`]).
    pub(crate) fn from_lanes(
        gaps: Vec<u32>,
        core_lane: Vec<u8>,
        flags: Vec<u8>,
        wear_blocks: Vec<u64>,
        dram_blocks: Vec<u64>,
        stats: SimStats,
        cores: u32,
    ) -> OutcomeTape {
        let mut tape = OutcomeTape {
            gaps,
            core_lane,
            flags,
            wear_blocks,
            dram_blocks,
            present_cores: Vec::new(),
            stats: SimStats::default(),
            cores,
        };
        tape.seal(stats);
        tape
    }

    /// The tape itself. There is no separate decoded form any more; this
    /// accessor exists only so the benchmark replica can keep timing its
    /// decode layer, which now reads about zero.
    #[doc(hidden)]
    pub fn decoded(&self) -> &Self {
        self
    }

    /// Event `i` reassembled from the lanes.
    pub(crate) fn event(&self, i: usize) -> TapeEvent {
        TapeEvent {
            gap: self.gaps[i],
            core: self.core_lane[i],
            flags: self.flags[i],
        }
    }

    /// The instruction-gap lane, indexed by event.
    pub(crate) fn gaps(&self) -> &[u32] {
        &self.gaps
    }

    /// The core lane, indexed by event.
    pub(crate) fn core_lane(&self) -> &[u8] {
        &self.core_lane
    }

    /// The flag lane ([`TapeEvent`] flag byte), indexed by event.
    pub(crate) fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// The endurance stream (LLC array writes, block addresses).
    pub(crate) fn wear_blocks(&self) -> &[u64] {
        &self.wear_blocks
    }

    /// The DRAM stream (block addresses, `Dram::access` call order).
    pub(crate) fn dram_blocks(&self) -> &[u64] {
        &self.dram_blocks
    }

    /// Every core that ran at least one event, ascending.
    pub(crate) fn present_cores(&self) -> &[u8] {
        &self.present_cores
    }

    /// The functional statistics of the recorded run (timing fields zero).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Core count the tape encodes.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Post-warmup events on the tape.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// Whether the tape holds no events.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Resident heap bytes: the capacity of every lane and side stream.
    /// This is what the tape cache charges against its budget.
    pub fn bytes(&self) -> usize {
        self.gaps.capacity() * std::mem::size_of::<u32>()
            + self.core_lane.capacity()
            + self.flags.capacity()
            + (self.wear_blocks.capacity() + self.dram_blocks.capacity())
                * std::mem::size_of::<u64>()
    }
}

/// Everything the functional pass depends on: change any field and the
/// outcome tape changes; hold them fixed and every technology shares one.
///
/// Notably absent: latencies, energies, the LLC write policy, ROB/MSHR
/// bounds, the DRAM backend choice, write mode, and endurance tracking —
/// those only shape Phase B.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TapeKey {
    /// Content-derived trace identity ([`Trace::content_hash`]): equal
    /// in every process and for every regeneration of one trace.
    trace_hash: u128,
    cores: u32,
    /// (capacity, associativity, block) per private level.
    l1d: (u64, u32, u32),
    l2: (u64, u32, u32),
    llc_capacity_bytes: u64,
    replacement: Replacement,
    /// `f64::to_bits` of the warmup fraction (bit-exact key).
    warmup_bits: u64,
    inclusive_llc: bool,
    l2_prefetch: bool,
    llc_bypass: bool,
}

impl TapeKey {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        trace_hash: u128,
        cores: u32,
        l1d: (u64, u32, u32),
        l2: (u64, u32, u32),
        llc_capacity_bytes: u64,
        replacement: Replacement,
        warmup_fraction: f64,
        inclusive_llc: bool,
        l2_prefetch: bool,
        llc_bypass: bool,
    ) -> TapeKey {
        TapeKey {
            trace_hash,
            cores,
            l1d,
            l2,
            llc_capacity_bytes,
            replacement,
            warmup_bits: warmup_fraction.to_bits(),
            inclusive_llc,
            l2_prefetch,
            llc_bypass,
        }
    }

    /// The key serialized for content addressing. Two processes
    /// evaluating identical traces on identical geometries produce the
    /// same bytes — that is what lets a persistent store serve one's
    /// tapes to the other.
    pub(crate) fn persist_bytes(&self) -> Vec<u8> {
        let mut w = nvm_llc_store::wire::Writer::new();
        w.u128(self.trace_hash)
            .u32(self.cores)
            .u64(self.l1d.0)
            .u32(self.l1d.1)
            .u32(self.l1d.2)
            .u64(self.l2.0)
            .u32(self.l2.1)
            .u32(self.l2.2)
            .u64(self.llc_capacity_bytes)
            .u8(self.replacement.persist_tag())
            .u64(self.warmup_bits)
            .bool(self.inclusive_llc)
            .bool(self.l2_prefetch)
            .bool(self.llc_bypass);
        w.into_bytes()
    }
}

pub mod cache {
    //! Process-wide outcome-tape cache: one functional pass per distinct
    //! `(trace content, geometry)` key, shared by every technology
    //! replaying it. A [`Memo`] like `nvm_llc_trace::cache`, bounded by
    //! [`DEFAULT_BUDGET_BYTES`] (moved by [`set_byte_budget`]) with LRU
    //! eviction; a re-fetch of an evicted key records again.
    //! [`stats`] snapshots the [`metrics`] handles `/metricsz` renders.

    use std::fmt;
    use std::sync::{Arc, OnceLock};

    use nvm_llc_obs::memo::{Memo, MemoMetrics};
    use nvm_llc_trace::Trace;

    use super::{OutcomeTape, TapeKey};
    use crate::system::System;

    /// Default residency budget: ~256 MiB of tape.
    pub const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

    fn memo() -> &'static Memo<TapeKey, Arc<OutcomeTape>> {
        static MEMO: OnceLock<Memo<TapeKey, Arc<OutcomeTape>>> = OnceLock::new();
        MEMO.get_or_init(|| {
            Memo::new(
                DEFAULT_BUDGET_BYTES,
                |tape| tape.bytes() as u64,
                MemoMetrics {
                    hits: Some(metrics::hits()),
                    misses: Some(metrics::misses()),
                    evictions: Some(metrics::evictions()),
                    resident: Some(metrics::resident_bytes()),
                },
            )
        })
    }

    /// The cache's counters and residency gauge in the process-wide
    /// [`nvm_llc_obs`] registry — the only copy of these facts, read by
    /// [`stats`], `/metricsz` and `/statsz` alike.
    pub mod metrics {
        use nvm_llc_obs::metrics::{Counter, Gauge};

        /// `nvmllc_tape_cache_hits_total`
        pub fn hits() -> &'static Counter {
            nvm_llc_obs::counter!(
                "nvmllc_tape_cache_hits_total",
                "Tape cache fetches served by an already-installed slot.",
            )
        }

        /// `nvmllc_tape_cache_misses_total`
        pub fn misses() -> &'static Counter {
            nvm_llc_obs::counter!(
                "nvmllc_tape_cache_misses_total",
                "Tape cache fetches that found no resident tape.",
            )
        }

        /// `nvmllc_tape_cache_store_hits_total`
        pub fn store_hits() -> &'static Counter {
            nvm_llc_obs::counter!(
                "nvmllc_tape_cache_store_hits_total",
                "Tape cache misses satisfied by decoding a persisted tape \
                 instead of re-running the functional pass.",
            )
        }

        /// `nvmllc_tape_cache_taped_bytes_total`
        pub fn taped_bytes() -> &'static Counter {
            nvm_llc_obs::counter!(
                "nvmllc_tape_cache_taped_bytes_total",
                "Bytes of outcome tape recorded or loaded into the cache, \
                 evicted tapes included.",
            )
        }

        /// `nvmllc_tape_cache_evictions_total`
        pub fn evictions() -> &'static Counter {
            nvm_llc_obs::counter!(
                "nvmllc_tape_cache_evictions_total",
                "Tapes evicted to stay under the residency byte budget.",
            )
        }

        /// `nvmllc_tape_cache_resident_bytes`
        pub fn resident_bytes() -> &'static Gauge {
            nvm_llc_obs::gauge!(
                "nvmllc_tape_cache_resident_bytes",
                "Bytes of outcome tape currently resident.",
            )
        }

        /// Pre-registers this module's metric inventory, spans included.
        pub fn register() {
            hits();
            misses();
            store_hits();
            taped_bytes();
            evictions();
            resident_bytes();
            for (name, help) in [
                (
                    "nvmllc_tape_fetch_seconds",
                    "Wall time of the `tape_fetch` span (cache hit or full fetch).",
                ),
                (
                    "nvmllc_tape_record_seconds",
                    "Wall time of the `tape_record` span.",
                ),
                (
                    "nvmllc_tape_replay_batch_seconds",
                    "Wall time of the `tape_replay_batch` span.",
                ),
                (
                    "nvmllc_tape_replay_chunk_seconds",
                    "Wall time of one batched-replay event chunk (all \
                     engines over one block of tape lanes).",
                ),
            ] {
                nvm_llc_obs::metrics::histogram(name, help);
            }
        }
    }

    /// Counters describing the cache's effectiveness so far: a snapshot
    /// of the [`metrics`] handles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CacheStats {
        /// Fetches served by an already-installed tape slot.
        pub hits: u64,
        /// Fetches that found no resident tape. Each one either decoded
        /// a persisted tape ([`CacheStats::store_hits`]) or ran a
        /// functional pass — `misses - store_hits` is the number of
        /// functional passes actually executed.
        pub misses: u64,
        /// Memory misses satisfied by decoding a tape from the
        /// persistent store instead of re-running the functional pass.
        pub store_hits: u64,
        /// Total resident bytes of tape recorded or loaded
        /// ([`OutcomeTape::bytes`]).
        pub bytes: u64,
        /// Entries evicted to stay under the byte budget.
        pub evictions: u64,
        /// Tape bytes currently resident.
        pub resident_bytes: u64,
    }

    impl fmt::Display for CacheStats {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{} hits / {} misses ({} from store, {} functional \
                 passes), {:.1} MiB taped ({} evictions)",
                self.hits,
                self.misses,
                self.store_hits,
                // Each handle is read on its own, so a snapshot taken
                // mid-fetch can see a store hit before its miss.
                self.misses.saturating_sub(self.store_hits),
                self.bytes as f64 / (1024.0 * 1024.0),
                self.evictions,
            )
        }
    }

    /// Fetches (recording exactly once while the key stays resident) the
    /// outcome tape for running `system` over `trace`.
    ///
    /// Keyed by [`System::tape_key`]; every technology whose
    /// configuration shares the functional geometry receives a pointer-
    /// equal `Arc<OutcomeTape>`.
    pub fn fetch(system: &System, trace: &Arc<Trace>) -> Arc<OutcomeTape> {
        fetch_with_store(system, trace, None)
    }

    /// [`fetch`] with a persistent middle tier: a memory miss first
    /// tries to decode the tape from `store` (content-addressed by
    /// [`crate::persist::tape_store_key`]) and only records when the
    /// disk also misses; freshly recorded tapes are written back. Any
    /// store read failure — absent, corrupt, stale format — silently
    /// falls through to recompute.
    pub fn fetch_with_store(
        system: &System,
        trace: &Arc<Trace>,
        store: Option<&Arc<nvm_llc_store::Store>>,
    ) -> Arc<OutcomeTape> {
        let _span = nvm_llc_obs::span!("tape_fetch");
        let key = system.tape_key(trace);
        let (tape, _) = memo().get_or_make(&key, || {
            let store_key = store.map(|_| crate::persist::tape_store_key(&key));
            // The key carries the core count, so a stored tape of any
            // other count is damage and falls through to recompute.
            let stored = store
                .zip(store_key.as_ref())
                .and_then(|(store, store_key)| store.get_mapped(store_key))
                .and_then(|payload| crate::persist::decode_tape(&payload))
                .filter(|tape| tape.cores() == system.config().cores);
            let tape = match stored {
                Some(tape) => {
                    metrics::store_hits().inc();
                    tape
                }
                None => {
                    let tape = system.record(trace);
                    if let Some((store, store_key)) = store.zip(store_key.as_ref()) {
                        let _ = store.put(store_key, &crate::persist::encode_tape(&tape));
                    }
                    tape
                }
            };
            metrics::taped_bytes().add(tape.bytes() as u64);
            Arc::new(tape)
        });
        tape
    }

    /// Sets the residency budget in bytes (process-wide) and immediately
    /// sheds LRU entries down to it. `u64::MAX` lifts the bound.
    pub fn set_byte_budget(bytes: u64) {
        memo().set_budget(bytes);
    }

    /// The current residency budget in bytes.
    pub fn byte_budget() -> u64 {
        memo().budget()
    }

    /// Drops every cached tape (cold-cache benchmarking; in-flight `Arc`s
    /// stay alive until their holders drop them). Counters keep running.
    pub fn clear() {
        memo().clear();
    }

    /// Number of cached tape slots.
    pub fn len() -> usize {
        memo().len()
    }

    /// Snapshot of the process-wide cache counters.
    pub fn stats() -> CacheStats {
        CacheStats {
            hits: metrics::hits().get(),
            misses: metrics::misses().get(),
            store_hits: metrics::store_hits().get(),
            bytes: metrics::taped_bytes().get(),
            evictions: metrics::evictions().get(),
            resident_bytes: metrics::resident_bytes().get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_every_field() {
        let r = TapeEvent::new(3, 0xDEAD_BEEF, true)
            .with_outcome(Outcome::LlcMiss)
            .with_l1_writeback_llc_write()
            .with_l2_writeback_llc_write()
            .with_prefetch_evict_llc_write()
            .with_prefetch_llc_fill()
            .with_llc_filled();
        assert_eq!(r.gap_instructions(), 0xDEAD_BEEF);
        assert_eq!(r.core(), 3);
        assert!(r.is_write());
        assert_eq!(r.outcome(), Outcome::LlcMiss);
        assert!(r.l1_writeback_llc_write());
        assert!(r.l2_writeback_llc_write());
        assert!(r.prefetch_evict_llc_write());
        assert!(r.prefetch_llc_fill());
        assert!(r.llc_filled());
    }

    #[test]
    fn default_record_is_a_flagless_l1_hit() {
        let r = TapeEvent::new(0, 7, false);
        assert_eq!(r.outcome(), Outcome::L1Hit);
        assert!(!r.is_write());
        assert!(!r.l1_writeback_llc_write());
        assert!(!r.l2_writeback_llc_write());
        assert!(!r.prefetch_evict_llc_write());
        assert!(!r.prefetch_llc_fill());
        assert!(!r.llc_filled());
        assert_eq!(r.gap_instructions(), 7);
    }

    #[test]
    fn outcome_classes_round_trip() {
        for o in [
            Outcome::L1Hit,
            Outcome::L2Hit,
            Outcome::LlcHit,
            Outcome::LlcMiss,
        ] {
            assert_eq!(TapeEvent::new(0, 0, false).with_outcome(o).outcome(), o);
        }
    }

    #[test]
    fn side_events_accumulate_and_clear() {
        let mut s = SideEvents::default();
        s.push_endurance(10);
        s.push_endurance(20);
        s.push_dram(30);
        assert_eq!(s.endurance(), &[10, 20]);
        assert_eq!(s.dram(), &[30]);
        s.clear();
        assert!(s.endurance().is_empty());
        assert!(s.dram().is_empty());
    }

    #[test]
    fn tape_push_appends_records_and_streams() {
        let mut tape = OutcomeTape::with_capacity(2, 4);
        let mut s = SideEvents::default();
        s.push_endurance(1);
        s.push_dram(2);
        tape.push(TapeEvent::new(0, 0, false), &s);
        s.clear();
        tape.push(TapeEvent::new(1, 5, true), &s);
        assert_eq!(tape.len(), 2);
        assert!(!tape.is_empty());
        assert_eq!(tape.wear_blocks(), &[1]);
        assert_eq!(tape.dram_blocks(), &[2]);
        assert_eq!(tape.cores(), 4);
        assert!(tape.bytes() >= 2 * 6 + 2 * 8);
    }

    #[test]
    fn decode_round_trips_every_record_field() {
        let events = [
            TapeEvent::new(0, 7, false),
            TapeEvent::new(3, 0xDEAD_BEEF, true)
                .with_outcome(Outcome::LlcMiss)
                .with_l1_writeback_llc_write()
                .with_l2_writeback_llc_write()
                .with_prefetch_evict_llc_write()
                .with_prefetch_llc_fill()
                .with_llc_filled(),
            TapeEvent::new(255, u32::MAX, true).with_outcome(Outcome::L2Hit),
        ];
        let mut tape = OutcomeTape::with_capacity(events.len(), 256);
        for &ev in &events {
            tape.push(ev, &SideEvents::default());
        }
        // Splitting an event across three lanes and reassembling it
        // preserves every field.
        for (i, &ev) in events.iter().enumerate() {
            let back = tape.event(i);
            assert_eq!(back, ev);
            assert_eq!(back.gap_instructions(), ev.gap_instructions());
            assert_eq!(back.core(), ev.core());
            assert_eq!(back.is_write(), ev.is_write());
            assert_eq!(back.outcome(), ev.outcome());
            assert_eq!(back.llc_filled(), ev.llc_filled());
        }
    }

    #[test]
    fn decoded_tape_mirrors_records_and_side_streams() {
        let mut tape = OutcomeTape::with_capacity(3, 2);
        let mut s = SideEvents::default();
        // L1 hit: no sides.
        tape.push(TapeEvent::new(0, 3, false), &s);
        // L2 hit with an L1-writeback LLC write: one endurance entry.
        s.push_endurance(10);
        tape.push(
            TapeEvent::new(1, 0, true)
                .with_outcome(Outcome::L2Hit)
                .with_l1_writeback_llc_write(),
            &s,
        );
        // Filled LLC miss: one endurance entry, one DRAM entry.
        s.clear();
        s.push_endurance(99);
        s.push_dram(99);
        tape.push(
            TapeEvent::new(0, 5, false)
                .with_outcome(Outcome::LlcMiss)
                .with_llc_filled(),
            &s,
        );
        tape.seal(SimStats::default());

        // The decoded view is the tape itself: no second copy.
        let decoded = tape.decoded();
        assert!(std::ptr::eq(decoded, &tape));
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.cores(), 2);
        assert_eq!(decoded.gaps(), &[3, 0, 5]);
        assert_eq!(decoded.core_lane(), &[0, 1, 0]);
        assert_eq!(decoded.present_cores(), &[0, 1]);
        // The flat side arrays carry the streams in emission order, and
        // the per-event counts partition them: (0, 0) + (1, 0) + (1, 1).
        assert_eq!(decoded.wear_blocks(), &[10, 99]);
        assert_eq!(decoded.dram_blocks(), &[99]);
        let counts: Vec<_> = (0..decoded.len())
            .map(|i| decoded.event(i).side_counts())
            .collect();
        assert_eq!(counts, vec![(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn recorded_tape_bytes_are_its_lane_and_side_capacities() {
        use crate::config::ArchConfig;
        use crate::system::System;
        let trace = nvm_llc_trace::workloads::by_name("ft")
            .unwrap()
            .generate(3, 2_000);
        let system = System::new(
            ArchConfig::gainestown(nvm_llc_circuit::reference::sram_baseline()).with_l2_prefetch(),
        )
        .with_warmup(0.25);
        let tape = system.record(&trace);
        assert!(!tape.wear_blocks().is_empty() && !tape.dram_blocks().is_empty());
        assert_eq!(
            tape.bytes(),
            tape.gaps.capacity() * 4
                + tape.core_lane.capacity()
                + tape.flags.capacity()
                + (tape.wear_blocks.capacity() + tape.dram_blocks.capacity()) * 8
        );
        // Every lane and side stream is sized exactly: 6 bytes per event
        // plus 8 per side entry, with no growth slack to charge.
        let exact = 6 * tape.len() + 8 * (tape.wear_blocks().len() + tape.dram_blocks().len());
        assert_eq!(tape.bytes(), exact);
        // ft runs four threads on four cores.
        assert_eq!(tape.present_cores(), &[0, 1, 2, 3]);
    }

    #[test]
    fn stored_tape_of_another_core_count_is_recorded_afresh() {
        use crate::config::ArchConfig;
        use crate::system::System;
        let dir =
            std::env::temp_dir().join(format!("nvm-llc-tape-cores-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(nvm_llc_store::Store::open(&dir).unwrap());
        let trace = nvm_llc_trace::workloads::by_name("tonto")
            .unwrap()
            .generate_shared(5, 500);
        let llc = nvm_llc_circuit::reference::sram_baseline();
        let quad = System::new(ArchConfig::gainestown(llc.clone()));
        let dual = System::new(ArchConfig::gainestown(llc).with_cores(2));
        // A well-formed dual-core tape planted under the quad-core key.
        let key = crate::persist::tape_store_key(&quad.tape_key(&trace));
        store
            .put(&key, &crate::persist::encode_tape(&dual.record(&trace)))
            .unwrap();
        let tape = cache::fetch_with_store(&quad, &trace, Some(&store));
        assert_eq!(tape.cores(), 4);
        assert_eq!(quad.replay(&tape), quad.run(&trace));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tape_keys_distinguish_every_functional_knob() {
        let base = || {
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                false,
                false,
                false,
            )
        };
        assert_eq!(base(), base());
        let mut variants = vec![
            TapeKey::new(
                0xABCE,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                8,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                4 << 20,
                Replacement::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Random,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Srrip,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Drrip,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Ship,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Endurance,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.0,
                false,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                true,
                false,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                false,
                true,
                false,
            ),
            TapeKey::new(
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                Replacement::Lru,
                0.25,
                false,
                false,
                true,
            ),
        ];
        variants.dedup();
        for v in &variants {
            assert_ne!(*v, base());
        }
    }
}

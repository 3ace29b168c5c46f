//! Memory access records and traces.
//!
//! A [`Trace`] is the interface between the workload layer and both the
//! system simulator (which replays it against a cache hierarchy) and the
//! PRISM-style characterization framework (which computes
//! architecture-agnostic features from it).

use std::fmt;

/// Cache block size assumed throughout the system (Table IV: 64 B blocks).
pub const BLOCK_BYTES: u64 = 64;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
}

impl AccessKind {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Whether this is a write.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

/// One memory access plus the non-memory instructions that preceded it.
///
/// Packing the preceding instruction count into each event keeps traces
/// compact while giving the timing model everything it needs to charge
/// base CPI between memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing thread (0-based; threads map 1:1 onto cores, Table IV).
    pub tid: u8,
    /// Byte address of the access.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Non-memory instructions executed by this thread since its previous
    /// memory access.
    pub gap_instructions: u32,
}

impl TraceEvent {
    /// The 64 B-block address of this access.
    pub fn block(&self) -> u64 {
        self.addr / BLOCK_BYTES
    }

    /// Instructions this event accounts for (the access itself plus the
    /// preceding gap).
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap_instructions) + 1
    }
}

/// An interleaved multi-thread memory trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    threads: u8,
    content_hash: u128,
}

/// 128-bit FNV-1a over every event field plus the thread count: a
/// process-independent identity that every memoization downstream of
/// the trace (outcome tapes, stored results) keys on.
fn content_hash(events: &[TraceEvent], threads: u8) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58du128;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u128::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    mix(u64::from(threads));
    for e in events {
        mix(e.addr);
        mix(u64::from(e.tid)
            | (u64::from(e.kind.is_write()) << 8)
            | (u64::from(e.gap_instructions) << 9));
    }
    hash
}

impl Trace {
    /// Builds a trace from pre-interleaved events for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if any event's `tid` is out of range — traces are built by
    /// generators, so a bad tid is a construction bug, not an input error.
    pub fn new(events: Vec<TraceEvent>, threads: u8) -> Self {
        assert!(threads > 0, "a trace needs at least one thread");
        assert!(
            events.iter().all(|e| e.tid < threads),
            "event tid out of range"
        );
        let content_hash = content_hash(&events, threads);
        Trace {
            events,
            threads,
            content_hash,
        }
    }

    /// Content-derived identity: a 128-bit digest of the thread count and
    /// every event, stable across processes and runs. The outcome-tape
    /// cache and the on-disk result store both key on it, so a trace
    /// regenerated after eviction finds everything recorded for its
    /// first copy.
    pub fn content_hash(&self) -> u128 {
        self.content_hash
    }

    /// Resident heap bytes: the event buffer's capacity. This is what
    /// the trace cache charges against its budget.
    pub fn bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Number of threads.
    pub fn threads(&self) -> u8 {
        self.threads
    }

    /// All events in interleaved program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of memory accesses.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Total instructions represented (memory + gap instructions).
    pub fn total_instructions(&self) -> u64 {
        self.events.iter().map(TraceEvent::instructions).sum()
    }

    /// Total reads.
    pub fn reads(&self) -> u64 {
        self.events.iter().filter(|e| e.kind.is_read()).count() as u64
    }

    /// Total writes.
    pub fn writes(&self) -> u64 {
        self.events.iter().filter(|e| e.kind.is_write()).count() as u64
    }

    /// Events of one thread, in order.
    pub fn thread_events(&self, tid: u8) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.tid == tid)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u8, addr: u64, kind: AccessKind, gap: u32) -> TraceEvent {
        TraceEvent {
            tid,
            addr,
            kind,
            gap_instructions: gap,
        }
    }

    #[test]
    fn block_addressing_uses_64_byte_lines() {
        assert_eq!(ev(0, 0, AccessKind::Read, 0).block(), 0);
        assert_eq!(ev(0, 63, AccessKind::Read, 0).block(), 0);
        assert_eq!(ev(0, 64, AccessKind::Read, 0).block(), 1);
    }

    #[test]
    fn counts_and_instructions() {
        let t = Trace::new(
            vec![
                ev(0, 0, AccessKind::Read, 3),
                ev(1, 64, AccessKind::Write, 1),
                ev(0, 128, AccessKind::Read, 0),
            ],
            2,
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 1);
        assert_eq!(t.total_instructions(), 4 + 2 + 1);
        assert_eq!(t.thread_events(0).count(), 2);
        assert_eq!(t.threads(), 2);
    }

    #[test]
    #[should_panic(expected = "tid out of range")]
    fn rejects_out_of_range_tid() {
        let _ = Trace::new(vec![ev(3, 0, AccessKind::Read, 0)], 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let _ = Trace::new(vec![], 0);
    }

    #[test]
    fn content_hash_follows_content_not_identity() {
        let a = Trace::new(vec![ev(0, 64, AccessKind::Read, 3)], 1);
        let b = Trace::new(vec![ev(0, 64, AccessKind::Read, 3)], 1);
        // Same events: same content hash.
        assert_eq!(a.content_hash(), b.content_hash());
        // Any field change moves the hash.
        let addr = Trace::new(vec![ev(0, 128, AccessKind::Read, 3)], 1);
        let kind = Trace::new(vec![ev(0, 64, AccessKind::Write, 3)], 1);
        let gap = Trace::new(vec![ev(0, 64, AccessKind::Read, 4)], 1);
        let threads = Trace::new(vec![ev(0, 64, AccessKind::Read, 3)], 2);
        for other in [&addr, &kind, &gap, &threads] {
            assert_ne!(a.content_hash(), other.content_hash());
        }
        // And the empty default is distinct from any built trace.
        assert_ne!(a.content_hash(), Trace::default().content_hash());
    }

    #[test]
    fn iterates_by_reference() {
        let t = Trace::new(vec![ev(0, 0, AccessKind::Read, 0)], 1);
        let mut n = 0;
        for e in &t {
            assert_eq!(e.addr, 0);
            n += 1;
        }
        assert_eq!(n, 1);
    }
}

//! Pluggable LLC replacement policies (ChampSim-style dispatch).
//!
//! The paper evaluates every NVM under a fixed LRU cache, but NVM
//! viability hinges on write behavior that replacement directly
//! controls: a policy that steers victims toward clean lines trades a
//! little hit ratio for a lot of writeback traffic, which is the
//! first-order lever on both write energy and endurance lifetime.
//! This module makes replacement a first-class scenario dimension:
//!
//! * [`PolicyKind`] — the selector threaded through the whole stack
//!   ([`crate::system::System::with_replacement`], the outcome-tape key,
//!   persistent store keys, the evaluator's policy axis, the service's
//!   `policy=` parameter, and the CLI's `--policy` flag);
//! * [`ReplacementPolicy`] — the touch/fill/evict/victim trait every
//!   policy implements over per-set metadata;
//! * [`PolicyState`] — the concrete per-cache state, dispatched by
//!   enum match (no boxing: caches are cloned per core per evaluation,
//!   and the dominant LRU case must stay allocation- and
//!   indirection-free).
//!
//! Replacement shapes the *functional* pass only: which block a miss
//! displaces. Timing replay ([`crate::system::System::replay`]) never
//! consults the policy — the policy's entire effect is already baked
//! into the outcome tape, which is why per-policy tapes keep fused and
//! replayed results bit-identical by construction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::Line;

/// Replacement policy selector: the identity half of the subsystem.
///
/// This is what travels in keys (outcome tapes, persistent store
/// records, service routing) — the stateful half lives in
/// [`PolicyState`], built per cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's baseline everywhere).
    #[default]
    Lru,
    /// Uniform-random victim selection (replacement-sensitivity
    /// ablation).
    Random,
    /// Static re-reference interval prediction: 2-bit RRPV per line,
    /// long re-reference insertion, scan-resistant.
    Srrip,
    /// Dynamic RRIP: set-dueling between SRRIP and bimodal insertion,
    /// with a policy-selection counter trained by leader-set misses.
    Drrip,
    /// Signature-based hit prediction: a table of saturating counters,
    /// indexed by a block-address signature, predicts dead-on-arrival
    /// fills and inserts them at distant re-reference.
    Ship,
    /// Write-endurance-aware LRU: victims prefer the least-recently
    /// used *clean* line, so dirty lines age in place and NVM
    /// writebacks (the endurance- and energy-critical traffic) drop.
    Endurance,
}

impl PolicyKind {
    /// Every selectable policy, in persistence-tag order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Endurance,
    ];

    /// The policy's canonical lowercase name — what [`PolicyKind::parse`]
    /// accepts and what CLI/service selectors render.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Random => "random",
            PolicyKind::Srrip => "srrip",
            PolicyKind::Drrip => "drrip",
            PolicyKind::Ship => "ship",
            PolicyKind::Endurance => "endurance",
        }
    }

    /// Parses a selector name (trimmed, case-insensitive). `None` for
    /// anything that is not exactly one of [`PolicyKind::ALL`]'s names.
    pub fn parse(raw: &str) -> Option<PolicyKind> {
        let name = raw.trim().to_ascii_lowercase();
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stable one-byte persistence tag ([`crate::tape::TapeKey`]'s wire
    /// form). Appending new policies extends this list; reordering it
    /// would silently re-key every stored tape, so don't.
    pub fn persist_tag(self) -> u8 {
        match self {
            PolicyKind::Lru => 0,
            PolicyKind::Random => 1,
            PolicyKind::Srrip => 2,
            PolicyKind::Drrip => 3,
            PolicyKind::Ship => 4,
            PolicyKind::Endurance => 5,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replacement hooks over per-set metadata, ChampSim-shaped
/// (`update_replacement_state` / `find_victim`), split so the cache
/// array can keep its LRU stamp handling inline:
///
/// * [`touch`](ReplacementPolicy::touch) — a hit re-referenced a line;
/// * [`fill`](ReplacementPolicy::fill) — a miss installed a line;
/// * [`evict`](ReplacementPolicy::evict) — a resident line is about to be
///   displaced (training hook — SHiP's dead-block counters);
/// * [`victim`](ReplacementPolicy::victim) — choose the way to displace
///   in a full set.
///
/// `set_idx` is the set number and `way` the set-relative way index;
/// policies keep whatever per-line metadata they need in their own
/// flat `num_sets × ways` arrays. The cache calls `victim` only when
/// every way holds a block (empty ways fill first, policy unconsulted),
/// and never calls `evict`/`fill` for `invalidate`d lines — back-
/// invalidation is a coherence action, not a replacement decision.
pub trait ReplacementPolicy {
    /// A hit re-referenced `way` of `set_idx`.
    fn touch(&mut self, set_idx: usize, way: usize);
    /// A miss (or fill) installed `block` into `way` of `set_idx`.
    fn fill(&mut self, set_idx: usize, way: usize, block: u64);
    /// The resident line in `way` of `set_idx` is about to be displaced.
    fn evict(&mut self, set_idx: usize, way: usize);
    /// Chooses the victim way in a full set. `set` holds the set's
    /// lines in way order; every way holds a block.
    fn victim(&mut self, set_idx: usize, set: &[Line]) -> usize;
}

/// RRPV ceiling for the 2-bit RRIP family (3 = distant re-reference).
const RRPV_MAX: u8 = 3;
/// SRRIP's insertion value: "long re-reference" (one below distant).
const RRPV_LONG: u8 = RRPV_MAX - 1;
/// DRRIP: one in `BRRIP_THROTTLE` bimodal fills inserts at long
/// instead of distant. The reference policy throttles with a 1/32
/// coin; a deterministic counter keeps bit-identity trivial.
const BRRIP_THROTTLE: u32 = 32;
/// DRRIP: every `DUELING_CONSTITUENCY`-th set leads for SRRIP, and the
/// next one for BRRIP; all others follow the PSEL counter.
const DUELING_CONSTITUENCY: usize = 32;
/// DRRIP PSEL saturation (10-bit counter in the reference design).
const PSEL_MAX: i32 = 512;
/// SHiP signature-history counter table: entries and counter ceiling.
const SHCT_ENTRIES: usize = 1 << 14;
const SHCT_MAX: u8 = 3;

/// Least-recently-used. Stateless: the cache array maintains recency
/// stamps inline (they predate this subsystem and double as the
/// endurance policy's age source), so LRU's victim scan reads them
/// straight off the set — today's fast path, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy;

impl ReplacementPolicy for LruPolicy {
    fn touch(&mut self, _set_idx: usize, _way: usize) {}
    fn fill(&mut self, _set_idx: usize, _way: usize, _block: u64) {}
    fn evict(&mut self, _set_idx: usize, _way: usize) {}
    fn victim(&mut self, _set_idx: usize, set: &[Line]) -> usize {
        min_stamp_way(set)
    }
}

/// The least-recently-used way (first on ties — `min_by_key` keeps the
/// earliest minimum, preserving the pre-subsystem eviction order).
fn min_stamp_way(set: &[Line]) -> usize {
    set.iter()
        .enumerate()
        .min_by_key(|(_, l)| l.stamp)
        .map(|(i, _)| i)
        .expect("non-empty set")
}

/// Uniform-random victims, seeded per cache array exactly as the
/// pre-subsystem implementation was (`0xCAC4E`, drawn only at full-set
/// victim selection) so existing random-replacement tapes replay
/// unchanged.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SmallRng,
}

impl Default for RandomPolicy {
    fn default() -> Self {
        RandomPolicy {
            rng: SmallRng::seed_from_u64(0xCAC4E),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn touch(&mut self, _set_idx: usize, _way: usize) {}
    fn fill(&mut self, _set_idx: usize, _way: usize, _block: u64) {}
    fn evict(&mut self, _set_idx: usize, _way: usize) {}
    fn victim(&mut self, _set_idx: usize, set: &[Line]) -> usize {
        self.rng.random_range(0..set.len())
    }
}

/// Static RRIP: per-line 2-bit re-reference prediction values.
#[derive(Debug, Clone)]
pub struct SrripPolicy {
    ways: usize,
    rrpv: Vec<u8>,
}

impl SrripPolicy {
    fn new(num_sets: u64, ways: usize) -> Self {
        SrripPolicy {
            ways,
            rrpv: vec![RRPV_MAX; num_sets as usize * ways],
        }
    }
}

/// The RRIP victim scan: the lowest way whose RRPV is distant; if none
/// is, age the whole set up and rescan (terminates — every round moves
/// the maximum strictly toward the ceiling).
fn rrip_victim(rrpv: &mut [u8]) -> usize {
    loop {
        if let Some(way) = rrpv.iter().position(|&v| v >= RRPV_MAX) {
            return way;
        }
        for v in rrpv.iter_mut() {
            *v += 1;
        }
    }
}

impl ReplacementPolicy for SrripPolicy {
    fn touch(&mut self, set_idx: usize, way: usize) {
        self.rrpv[set_idx * self.ways + way] = 0;
    }
    fn fill(&mut self, set_idx: usize, way: usize, _block: u64) {
        self.rrpv[set_idx * self.ways + way] = RRPV_LONG;
    }
    fn evict(&mut self, _set_idx: usize, _way: usize) {}
    fn victim(&mut self, set_idx: usize, _set: &[Line]) -> usize {
        let base = set_idx * self.ways;
        rrip_victim(&mut self.rrpv[base..base + self.ways])
    }
}

/// Dynamic RRIP: SRRIP vs bimodal insertion, chosen per fill by a
/// set-dueling PSEL counter. Sets `0, 32, 64, …` (mod
/// [`DUELING_CONSTITUENCY`]) always insert SRRIP-style and their
/// misses push PSEL toward BRRIP; sets `1, 33, 65, …` always insert
/// bimodally and push PSEL the other way; every other set follows the
/// counter's sign.
#[derive(Debug, Clone)]
pub struct DrripPolicy {
    ways: usize,
    rrpv: Vec<u8>,
    /// > 0: SRRIP leaders are missing more — bimodal insertion wins.
    psel: i32,
    /// Deterministic 1-in-[`BRRIP_THROTTLE`] long-insertion throttle.
    brip_fills: u32,
}

impl DrripPolicy {
    fn new(num_sets: u64, ways: usize) -> Self {
        DrripPolicy {
            ways,
            rrpv: vec![RRPV_MAX; num_sets as usize * ways],
            psel: 0,
            brip_fills: 0,
        }
    }

    /// `Some(true)`: SRRIP leader; `Some(false)`: BRRIP leader;
    /// `None`: follower.
    fn leader(set_idx: usize) -> Option<bool> {
        match set_idx % DUELING_CONSTITUENCY {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    /// Bimodal insertion: distant, except every
    /// [`BRRIP_THROTTLE`]-th fill which lands at long.
    fn brip_insert(&mut self) -> u8 {
        self.brip_fills = (self.brip_fills + 1) % BRRIP_THROTTLE;
        if self.brip_fills == 0 {
            RRPV_LONG
        } else {
            RRPV_MAX
        }
    }
}

impl ReplacementPolicy for DrripPolicy {
    fn touch(&mut self, set_idx: usize, way: usize) {
        self.rrpv[set_idx * self.ways + way] = 0;
    }
    fn fill(&mut self, set_idx: usize, way: usize, _block: u64) {
        // A fill is a miss: leader sets train the selector.
        let srrip_wins_here = match Self::leader(set_idx) {
            Some(true) => {
                self.psel = (self.psel + 1).min(PSEL_MAX);
                true
            }
            Some(false) => {
                self.psel = (self.psel - 1).max(-PSEL_MAX);
                false
            }
            None => self.psel <= 0,
        };
        self.rrpv[set_idx * self.ways + way] = if srrip_wins_here {
            RRPV_LONG
        } else {
            self.brip_insert()
        };
    }
    fn evict(&mut self, _set_idx: usize, _way: usize) {}
    fn victim(&mut self, set_idx: usize, _set: &[Line]) -> usize {
        let base = set_idx * self.ways;
        rrip_victim(&mut self.rrpv[base..base + self.ways])
    }
}

/// SHiP(-mem): fills carry a block-address signature; a table of
/// saturating counters learns, per signature, whether such fills get
/// re-referenced before eviction. Predicted-dead signatures insert at
/// distant RRPV (first in line for eviction), everything else at long.
#[derive(Debug, Clone)]
pub struct ShipPolicy {
    ways: usize,
    rrpv: Vec<u8>,
    /// Per-line fill signature, consulted at eviction/training time.
    line_sig: Vec<u16>,
    /// Per-line "was re-referenced since fill" outcome bit.
    line_reref: Vec<bool>,
    /// Signature history counter table.
    shct: Vec<u8>,
}

impl ShipPolicy {
    fn new(num_sets: u64, ways: usize) -> Self {
        let lines = num_sets as usize * ways;
        ShipPolicy {
            ways,
            rrpv: vec![RRPV_MAX; lines],
            line_sig: vec![0; lines],
            line_reref: vec![false; lines],
            // Weakly "reused" so cold signatures behave like SRRIP.
            shct: vec![1; SHCT_ENTRIES],
        }
    }

    /// The block-address signature (the paper's SHiP-mem variant: no
    /// program counters in a trace-driven functional model).
    fn signature(block: u64) -> u16 {
        ((block ^ (block >> 14) ^ (block >> 28)) & (SHCT_ENTRIES as u64 - 1)) as u16
    }
}

impl ReplacementPolicy for ShipPolicy {
    fn touch(&mut self, set_idx: usize, way: usize) {
        let i = set_idx * self.ways + way;
        self.rrpv[i] = 0;
        if !self.line_reref[i] {
            self.line_reref[i] = true;
            let c = &mut self.shct[usize::from(self.line_sig[i])];
            *c = (*c + 1).min(SHCT_MAX);
        }
    }
    fn fill(&mut self, set_idx: usize, way: usize, block: u64) {
        let i = set_idx * self.ways + way;
        let sig = Self::signature(block);
        self.line_sig[i] = sig;
        self.line_reref[i] = false;
        self.rrpv[i] = if self.shct[usize::from(sig)] == 0 {
            RRPV_MAX
        } else {
            RRPV_LONG
        };
    }
    fn evict(&mut self, set_idx: usize, way: usize) {
        let i = set_idx * self.ways + way;
        if !self.line_reref[i] {
            let c = &mut self.shct[usize::from(self.line_sig[i])];
            *c = c.saturating_sub(1);
        }
    }
    fn victim(&mut self, set_idx: usize, _set: &[Line]) -> usize {
        let base = set_idx * self.ways;
        rrip_victim(&mut self.rrpv[base..base + self.ways])
    }
}

/// Write-endurance-aware replacement (after Mittal's endurance-aware
/// RRAM LLC management): evict the least-recently-used **clean** line
/// when one exists, falling back to plain LRU in all-dirty sets. A
/// clean victim costs a re-fetch at most; a dirty victim costs an NVM
/// writeback — the traffic that burns write energy and wears cells —
/// so trading a little recency fidelity for clean victims cuts
/// [`dram_writebacks`](crate::result::SimStats::dram_writebacks)
/// directly (measured in `BENCH_tape.json`'s `policy` block and the
/// EXPERIMENTS.md policy sweep).
#[derive(Debug, Clone, Default)]
pub struct EndurancePolicy;

impl ReplacementPolicy for EndurancePolicy {
    fn touch(&mut self, _set_idx: usize, _way: usize) {}
    fn fill(&mut self, _set_idx: usize, _way: usize, _block: u64) {}
    fn evict(&mut self, _set_idx: usize, _way: usize) {}
    fn victim(&mut self, _set_idx: usize, set: &[Line]) -> usize {
        set.iter()
            .enumerate()
            .filter(|(_, l)| !l.dirty)
            .min_by_key(|(_, l)| l.stamp)
            .map(|(i, _)| i)
            .unwrap_or_else(|| min_stamp_way(set))
    }
}

/// Per-cache policy state, dispatched by match. Cloning a cache clones
/// its policy state with it (the evaluator builds fresh caches per
/// run, so clones only happen in tests and hybrid sweeps).
#[derive(Debug, Clone)]
pub enum PolicyState {
    /// See [`LruPolicy`].
    Lru(LruPolicy),
    /// See [`RandomPolicy`].
    Random(RandomPolicy),
    /// See [`SrripPolicy`].
    Srrip(SrripPolicy),
    /// See [`DrripPolicy`].
    Drrip(DrripPolicy),
    /// See [`ShipPolicy`].
    Ship(ShipPolicy),
    /// See [`EndurancePolicy`].
    Endurance(EndurancePolicy),
}

impl PolicyState {
    /// Builds the state for `kind` over a `num_sets × ways` array.
    pub fn new(kind: PolicyKind, num_sets: u64, ways: usize) -> PolicyState {
        match kind {
            PolicyKind::Lru => PolicyState::Lru(LruPolicy),
            PolicyKind::Random => PolicyState::Random(RandomPolicy::default()),
            PolicyKind::Srrip => PolicyState::Srrip(SrripPolicy::new(num_sets, ways)),
            PolicyKind::Drrip => PolicyState::Drrip(DrripPolicy::new(num_sets, ways)),
            PolicyKind::Ship => PolicyState::Ship(ShipPolicy::new(num_sets, ways)),
            PolicyKind::Endurance => PolicyState::Endurance(EndurancePolicy),
        }
    }

    /// The selector this state was built for.
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicyState::Lru(_) => PolicyKind::Lru,
            PolicyState::Random(_) => PolicyKind::Random,
            PolicyState::Srrip(_) => PolicyKind::Srrip,
            PolicyState::Drrip(_) => PolicyKind::Drrip,
            PolicyState::Ship(_) => PolicyKind::Ship,
            PolicyState::Endurance(_) => PolicyKind::Endurance,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyState::Lru($p) => $body,
            PolicyState::Random($p) => $body,
            PolicyState::Srrip($p) => $body,
            PolicyState::Drrip($p) => $body,
            PolicyState::Ship($p) => $body,
            PolicyState::Endurance($p) => $body,
        }
    };
}

impl ReplacementPolicy for PolicyState {
    fn touch(&mut self, set_idx: usize, way: usize) {
        // LRU and the stamp-driven policies need no per-hit work; skip
        // the dispatch entirely on the dominant paths.
        match self {
            PolicyState::Lru(_) | PolicyState::Random(_) | PolicyState::Endurance(_) => {}
            other => dispatch!(other, p => p.touch(set_idx, way)),
        }
    }
    fn fill(&mut self, set_idx: usize, way: usize, block: u64) {
        match self {
            PolicyState::Lru(_) | PolicyState::Random(_) | PolicyState::Endurance(_) => {}
            other => dispatch!(other, p => p.fill(set_idx, way, block)),
        }
    }
    fn evict(&mut self, set_idx: usize, way: usize) {
        if let PolicyState::Ship(p) = self {
            p.evict(set_idx, way);
        }
    }
    fn victim(&mut self, set_idx: usize, set: &[Line]) -> usize {
        dispatch!(self, p => p.victim(set_idx, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;

    #[test]
    fn names_round_trip_and_reject_garbage() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(PolicyKind::parse(&kind.name().to_uppercase()), Some(kind));
            assert_eq!(PolicyKind::parse(&format!("  {kind} ")), Some(kind));
        }
        for bad in ["", "lru2", "fifo", "plru", "rand om"] {
            assert_eq!(PolicyKind::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn persist_tags_are_stable_and_distinct() {
        let tags: Vec<u8> = PolicyKind::ALL.iter().map(|k| k.persist_tag()).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    /// SRRIP against a hand-computed victim sequence in one 4-way set.
    ///
    /// Fills insert at RRPV 2, hits promote to 0, victims need RRPV 3
    /// (aging the whole set until one qualifies, lowest way first).
    #[test]
    fn srrip_victim_sequence_matches_hand_computation() {
        let mut c = SetAssocCache::new(1, 4, PolicyKind::Srrip);
        for b in [10u64, 20, 30, 40] {
            assert!(!c.access(b, false).hit);
        }
        // RRPVs now [2,2,2,2] (ways hold 10,20,30,40). Touch 10: way 0
        // promotes to 0 -> [0,2,2,2].
        assert!(c.access(10, false).hit);
        // Miss 50: no RRPV 3, age set to [1,3,3,3]; victim = way 1
        // (block 20); the fill re-inserts way 1 at 2 -> [1,2,3,3].
        let e = c.access(50, false).evicted.expect("full set evicts");
        assert_eq!(e.block, 20);
        // Miss 60: way 2 already distant -> evict block 30, insert at
        // 2 -> [1,2,2,3].
        let e = c.access(60, false).evicted.unwrap();
        assert_eq!(e.block, 30);
        // Miss 70: way 3 distant -> evict 40 -> [1,2,2,2].
        let e = c.access(70, false).evicted.unwrap();
        assert_eq!(e.block, 40);
        // Miss 80: no RRPV 3, age to [2,3,3,3]: way 1 (block 50) goes —
        // the early touch still protects block 10 in way 0.
        let e = c.access(80, false).evicted.unwrap();
        assert_eq!(e.block, 50);
        assert!(c.contains(10));
    }

    /// DRRIP set-dueling, hand-computed: SRRIP leader sets insert at
    /// long regardless of PSEL, BRRIP leaders insert distant (except
    /// the deterministic 1-in-32 throttle), and leader misses move the
    /// selector that followers obey.
    #[test]
    fn drrip_set_dueling_matches_hand_computation() {
        let ways = 2;
        let mut p = DrripPolicy::new(64, ways);
        // PSEL starts at 0: SRRIP wins ties, so a follower set (2)
        // inserts at long re-reference.
        p.fill(2, 0, 300);
        assert_eq!(p.rrpv[2 * ways], RRPV_LONG);
        // Set 0 is an SRRIP leader: its misses push PSEL toward BRRIP
        // and always insert SRRIP-style regardless of the counter.
        p.fill(0, 0, 100);
        p.fill(0, 1, 101);
        assert_eq!(p.psel, 2);
        assert_eq!(&p.rrpv[..2], &[RRPV_LONG, RRPV_LONG]);
        // With PSEL > 0 the follower now inserts bimodally: the first
        // bimodal fill is throttle count 1 (not the 32nd), so distant.
        p.fill(2, 1, 301);
        assert_eq!(p.rrpv[2 * ways + 1], RRPV_MAX);
        // Set 1 is a BRRIP leader: bimodal insertion whatever PSEL
        // says, and its miss pulls the counter back toward SRRIP.
        p.fill(1, 0, 200);
        assert_eq!(p.psel, 1);
        assert_eq!(p.rrpv[ways], RRPV_MAX);
        // The deterministic throttle: every 32nd bimodal fill inserts
        // long. Two bimodal fills have happened (counts 1, 2); 29 more
        // reach 31, and the next one is the long insertion.
        for i in 0..29 {
            p.fill(1, 1, 400 + i as u64);
        }
        p.fill(1, 0, 999);
        assert_eq!(p.rrpv[ways], RRPV_LONG, "32nd bimodal fill is long");
    }

    /// The endurance policy victimizes the oldest *clean* line while
    /// any exists, and only all-dirty sets fall back to plain LRU.
    #[test]
    fn endurance_prefers_clean_victims() {
        let mut c = SetAssocCache::new(1, 3, PolicyKind::Endurance);
        c.access(1, true); // dirty, oldest
        c.access(2, false); // clean
        c.access(3, false); // clean, newest
                            // LRU would evict block 1 (and pay a writeback); the endurance
                            // policy spends the oldest clean line instead.
        let out = c.access(4, false);
        let e = out.evicted.unwrap();
        assert_eq!(e.block, 2);
        assert!(!e.dirty, "no writeback for the clean victim");
        assert!(c.contains(1), "the dirty line aged in place");
        // All-dirty set: plain LRU order applies (block 1 is oldest).
        let mut d = SetAssocCache::new(1, 2, PolicyKind::Endurance);
        d.access(1, true);
        d.access(2, true);
        assert_eq!(d.access(3, false).writeback(), Some(1));
    }

    /// SHiP learns dead-on-arrival signatures: after a block's fills
    /// repeatedly die unreferenced, re-fills of that signature insert
    /// at distant RRPV and become the next victim instead of LRU's
    /// choice.
    #[test]
    fn ship_predicts_dead_fills_after_training() {
        let mut p = ShipPolicy::new(1, 4);
        let dead = 0x5000u64;
        let sig = ShipPolicy::signature(dead);
        assert_eq!(p.shct[usize::from(sig)], 1, "cold counter");
        // Fill and evict without a touch: the counter decays to 0.
        p.fill(0, 0, dead);
        p.evict(0, 0);
        assert_eq!(p.shct[usize::from(sig)], 0);
        // The next fill of the same signature is predicted dead.
        p.fill(0, 1, dead);
        assert_eq!(p.rrpv[1], RRPV_MAX);
        // A re-referenced line trains the counter back up.
        p.fill(0, 2, dead);
        p.touch(0, 2);
        assert_eq!(p.shct[usize::from(sig)], 1);
        // And a touched line's eviction does not decay it.
        p.evict(0, 2);
        assert_eq!(p.shct[usize::from(sig)], 1);
    }

    /// Every policy drives a real cache deterministically: identical
    /// access streams give identical outcomes, counters, and residency.
    #[test]
    fn all_policies_are_deterministic() {
        for kind in PolicyKind::ALL {
            let mut a = SetAssocCache::new(16, 4, kind);
            let mut b = SetAssocCache::new(16, 4, kind);
            for i in 0..4_000u64 {
                let block = (i * 2654435761) % 500;
                let is_write = i % 3 == 0;
                let ra = a.access(block, is_write);
                let rb = b.access(block, is_write);
                assert_eq!(ra, rb, "{kind} diverged at access {i}");
            }
            assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()), "{kind}");
        }
    }

    /// The subsystem's reason to exist: on a write-heavy conflict
    /// stream, endurance-aware victim selection emits strictly fewer
    /// dirty evictions than LRU.
    #[test]
    fn endurance_policy_cuts_dirty_evictions_vs_lru() {
        let run = |kind: PolicyKind| -> u64 {
            let mut c = SetAssocCache::new(4, 4, kind);
            let mut writebacks = 0;
            for i in 0..20_000u64 {
                // A small dirty working set (blocks 0..8, two per set,
                // each rewritten every 32 accesses) under heavy clean
                // conflict traffic: LRU keeps evicting — and writing
                // back — the dirty lines between touches.
                let (block, write) = if i % 4 == 0 {
                    ((i / 4) % 8, true)
                } else {
                    (8 + (i * 7) % 256, false)
                };
                if c.access(block, write).writeback().is_some() {
                    writebacks += 1;
                }
            }
            writebacks
        };
        let lru = run(PolicyKind::Lru);
        let endurance = run(PolicyKind::Endurance);
        assert!(
            endurance < lru,
            "endurance ({endurance}) must beat LRU ({lru})"
        );
    }
}

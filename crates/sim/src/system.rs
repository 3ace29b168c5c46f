//! The trace-driven multicore timing and energy simulator.
//!
//! An interval-model simulator in the spirit of Sniper: per-core cycle
//! accounting with ROB-bounded miss overlap, a three-level write-back
//! cache hierarchy (private L1D/L2, shared LLC), an NVM-aware LLC with
//! asymmetric read/write latency and energy, and a DRAM backend.
//!
//! ## Functional/timing split
//!
//! The simulator is factored Sniper-style into a **functional** half
//! (which level serves each access, what writes back, what invalidates —
//! [`System::functional_walk`], depending only on trace + geometry) and a
//! **timing/energy** half ([`TimingEngine`], applying one technology's
//! latencies, port contention, ROB/MSHR overlap, DRAM model, and energy).
//!
//! There is one functional walk. Its upper stage (`UpperStage`: every
//! core's L1D and L2, their writebacks, the next-line prefetcher) never
//! reads LLC state in the paper's non-inclusive hierarchy, so it drives
//! any number of LLC stages (`LlcStage`: the LLC array, the dead-block
//! bypass, LLC writes), one per LLC geometry. An inclusive LLC feeds its
//! victims back into the private levels, so it always walks alone.
//!
//! [`System::run`] fuses the walk with one engine, event by event, and is
//! the oracle. [`System::record`] captures one stage's outcomes as an
//! [`OutcomeTape`] that [`System::replay_batch`] re-times for every
//! technology sharing the geometry. The evaluator's pass
//! (`System::run_groups`) walks once for all of a workload's LLC
//! geometries and feeds each stage's outcomes, one
//! [`REPLAY_CHUNK_EVENTS`]-event chunk at a time, straight into that
//! group's engines: the same `Replayer` that `replay_batch` feeds a whole
//! tape through. Replay runs two timing kernels: `TimingEngine::apply`,
//! the same code the fused pass drives, and `SimpleBank`, which re-times
//! the dominant configuration class in blocks of engines and is
//! bit-identical to `apply` lane by lane. The evaluator keeps finished
//! results, not tapes ([`crate::runner`]).
//!
//! ## Modeling decisions (and where they come from)
//!
//! * **LLC writes are off the critical path** by default — the paper's
//!   Section V-A.7 explicitly credits this Sniper assumption for NVM write
//!   latency not showing in execution time. [`LlcWritePolicy`] exposes the
//!   alternatives for the ablation study.
//! * **LLC writes that pay `E_dyn,write` are L2 dirty writebacks** —
//!   equation (8) of the paper. Miss fills allocate the block but are
//!   charged per equation (7) (`E_dyn,miss` = tag energy), matching the
//!   paper's energy model; fills are still counted separately for
//!   endurance-style analyses.
//! * **LLC hit latency is partially hidden** by the out-of-order window:
//!   loads expose [`LLC_HIT_EXPOSURE`] of the tag+data latency. DRAM
//!   misses use the full ROB-shadow interval rule below.
//! * **Miss overlap** uses the classic interval-model rule: the first miss
//!   of a cluster pays the full memory latency; further misses within one
//!   ROB-width of instructions are latency-overlapped and pay only the
//!   DRAM bandwidth floor (the 64 B transfer occupancy).
//! * **Store latency is absorbed by the store queue** (stores update state
//!   and generate traffic but do not stall the core).
//! * Coherence traffic between private caches is not modeled (threads
//!   mostly partition their data; the paper's metrics are LLC-centric).
//!   Instruction fetch is assumed to hit the L1I.

use nvm_llc_cell::units::{Joules, Seconds};
use nvm_llc_trace::{AccessKind, Trace, TraceEvent};

use crate::cache::{Replacement, SetAssocCache};
use crate::config::{ArchConfig, LlcWritePolicy};
use crate::dram::Dram;
use crate::endurance::{EnduranceTracker, WearPolicy};
use crate::result::{SimResult, SimStats};
use crate::tape::{Outcome, OutcomeTape, SideEvents, TapeEvent, TapeKey, REPLAY_CHUNK_EVENTS};
use crate::techniques::DeadBlockPredictor;

/// Fraction of the LLC read-hit latency a load exposes to the critical
/// path: the OoO core overlaps most of a 5–30 cycle hit with independent
/// work, but longer NVM reads still cost proportionally more.
pub const LLC_HIT_EXPOSURE: f64 = 0.4;

/// Per-core timing state: everything `System::run` used to keep on the
/// core that depends on the technology's latencies.
#[derive(Debug, Clone)]
struct TimingLane {
    cycles: f64,
    instructions: u64,
    /// Instruction count until which further misses overlap for free.
    miss_shadow_end: u64,
    /// Misses that have ridden the current shadow (MSHR accounting).
    shadow_misses: u32,
}

/// The timing/energy half of the simulator: applies one technology's
/// cycle latencies, port contention, ROB/MSHR miss overlap, and DRAM
/// model to a stream of functional [`TapeEvent`]s.
///
/// The fused [`System::run`] and the tape-driven [`System::replay_batch`]
/// feed [`TimingEngine::apply`] the same events in the same order, so
/// the two paths execute literally the same floating-point operation
/// sequence — bit-identical results are structural, not coincidental.
#[derive(Debug)]
struct TimingEngine {
    base_cpi: f64,
    llc_read_cycles: f64,
    llc_tag_cycles: f64,
    llc_write_cycles: f64,
    l2_cycles: f64,
    dram_cycles: f64,
    dram_transfer_cycles: f64,
    rob: u64,
    mshrs: u32,
    write_policy: LlcWritePolicy,
    /// Banked LLC ports for the port-contention policy, in the
    /// (approximately common) core cycle domain.
    ports: Vec<f64>,
    dram: Option<Dram>,
    lanes: Vec<TimingLane>,
    port_stall_cycles: u64,
}

impl TimingEngine {
    fn new(cfg: &ArchConfig) -> TimingEngine {
        TimingEngine {
            base_cpi: cfg.base_cpi,
            llc_read_cycles: cfg.llc_read_cycles() as f64,
            llc_tag_cycles: cfg.llc_tag_cycles() as f64,
            llc_write_cycles: cfg.llc_write_cycles() as f64,
            l2_cycles: cfg.l2.latency_cycles as f64,
            dram_cycles: cfg.dram_cycles() as f64,
            dram_transfer_cycles: cfg.dram_transfer_cycles() as f64,
            rob: u64::from(cfg.rob_entries),
            mshrs: cfg.mshrs.unwrap_or(u32::MAX),
            write_policy: cfg.llc_write_policy,
            ports: vec![0.0; cfg.llc_banks.max(1) as usize],
            dram: cfg
                .detailed_dram
                .then(|| Dram::new(cfg.dram_config, cfg.freq_ghz)),
            lanes: vec![
                TimingLane {
                    cycles: 0.0,
                    instructions: 0,
                    miss_shadow_end: 0,
                    shadow_misses: 0,
                };
                cfg.cores as usize
            ],
            port_stall_cycles: 0,
        }
    }

    /// Applies one event's timing. `wear` and `dram_blocks` are cursors
    /// over the event stream's side arrays; the event's flags determine
    /// exactly how many entries each consumes, so a single running
    /// cursor serves a whole tape.
    ///
    /// The fused [`System::run`] and every engine of
    /// [`System::replay_batch`] outside the [`SimpleBank`] funnel through
    /// this one function, so their floating-point operation sequences
    /// are literally identical.
    fn apply(
        &mut self,
        rec: TapeEvent,
        wear: &mut std::slice::Iter<'_, u64>,
        dram_blocks: &mut std::slice::Iter<'_, u64>,
        endurance: &mut Option<EnduranceTracker>,
    ) {
        let lane = &mut self.lanes[rec.core()];
        lane.cycles += f64::from(rec.gap_instructions()) * self.base_cpi + self.base_cpi;
        lane.instructions += u64::from(rec.gap_instructions()) + 1;
        let outcome = rec.outcome();
        if outcome == Outcome::L1Hit {
            return;
        }
        // L1 victim writeback sinks into L2; its own eviction cascades
        // to the LLC as a write.
        if rec.l1_writeback_llc_write() {
            record_wear(endurance, wear);
            write_timing(
                &mut self.ports,
                lane,
                self.llc_write_cycles,
                self.write_policy,
                &mut self.port_stall_cycles,
            );
        }
        if outcome == Outcome::L2Hit {
            if !rec.is_write() {
                lane.cycles += self.l2_cycles;
            }
            return;
        }
        if rec.l2_writeback_llc_write() {
            record_wear(endurance, wear);
            write_timing(
                &mut self.ports,
                lane,
                self.llc_write_cycles,
                self.write_policy,
                &mut self.port_stall_cycles,
            );
        }
        // Prefetch side effects: the fill's dirty L2 victim is an LLC
        // write; the LLC fill itself cycles the array and moves DRAM
        // traffic but charges no core time.
        if rec.prefetch_evict_llc_write() {
            record_wear(endurance, wear);
            write_timing(
                &mut self.ports,
                lane,
                self.llc_write_cycles,
                self.write_policy,
                &mut self.port_stall_cycles,
            );
        }
        if rec.prefetch_llc_fill() {
            record_wear(endurance, wear);
            let next = *dram_blocks.next().expect("tape DRAM stream underrun");
            if let Some(dram) = self.dram.as_mut() {
                let _ = dram.access(next, lane.cycles);
            }
        }
        if outcome == Outcome::LlcHit {
            if !rec.is_write() {
                // Loads expose part of the tag+data read path; under
                // port contention they additionally queue behind
                // writes occupying the banks.
                if self.write_policy == LlcWritePolicy::PortContention {
                    let start = claim_port(&mut self.ports, lane.cycles, self.llc_read_cycles);
                    let stall = start - lane.cycles;
                    self.port_stall_cycles += stall as u64;
                    lane.cycles = start + self.llc_read_cycles * LLC_HIT_EXPOSURE;
                } else {
                    lane.cycles += self.llc_read_cycles * LLC_HIT_EXPOSURE;
                }
            }
            return;
        }
        // LLC miss. The fill allocates the block (endurance-relevant)
        // unless the bypass predictor skipped it.
        if rec.llc_filled() {
            record_wear(endurance, wear);
        }
        let block = *dram_blocks.next().expect("tape DRAM stream underrun");
        if !rec.is_write() {
            // ROB-bounded overlap: the first miss of a cluster pays
            // the full path (tag check + DRAM); misses within one ROB
            // width ride in its latency shadow but still occupy the
            // DRAM channel for one block transfer.
            // A miss pays the full path when it opens a new shadow —
            // because it fell outside the previous one, or because the
            // MSHRs are exhausted; otherwise it rides the shadow for
            // the bandwidth floor.
            let opens_window =
                lane.instructions >= lane.miss_shadow_end || lane.shadow_misses >= self.mshrs;
            match self.dram.as_mut() {
                Some(dram) => {
                    let ready = dram.access(block, lane.cycles + self.llc_tag_cycles);
                    if opens_window {
                        lane.cycles = ready;
                        lane.miss_shadow_end = lane.instructions + self.rob;
                        lane.shadow_misses = 1;
                    } else {
                        lane.cycles += self.dram_transfer_cycles;
                        lane.shadow_misses += 1;
                    }
                }
                None => {
                    if opens_window {
                        lane.cycles += self.llc_tag_cycles + self.dram_cycles;
                        lane.miss_shadow_end = lane.instructions + self.rob;
                        lane.shadow_misses = 1;
                    } else {
                        lane.cycles += self.dram_transfer_cycles;
                        lane.shadow_misses += 1;
                    }
                }
            }
        } else if let Some(dram) = self.dram.as_mut() {
            // Store-triggered fills still occupy the channel.
            let _ = dram.access(block, lane.cycles);
        }
    }

    /// Whether [`SimpleBank`] computes exactly what [`Self::apply`] would
    /// for this engine: with off-critical-path LLC writes every
    /// `write_timing` call is a no-op, and with the analytic DRAM model no
    /// side-stream *value* is ever read, so the whole side machinery
    /// drops out. The caller must additionally check that no endurance
    /// tracker is attached.
    fn is_simple(&self) -> bool {
        self.write_policy == LlcWritePolicy::OffCriticalPath && self.dram.is_none()
    }
}

/// Every simple engine of one batched replay ([`TimingEngine::is_simple`]
/// with no endurance tracker), restructured as parallel per-engine
/// constant and state lanes so a chunk pass updates a whole block of
/// engines per event with one outcome dispatch and a handful of
/// vectorizable inner loops.
///
/// Rationale: a lone engine's chunk pass is bound by per-event overhead
/// (outcome dispatch plus the serial `cycles` dependency chain), so
/// running engine by engine pays that bound once per engine per event.
/// Event-major over engine lanes pays the dispatch once per event for the
/// whole block, and the per-engine `cycles += gap * cpi[k] + cpi[k]`
/// updates are independent across `k` — a straight-line loop the
/// compiler can vectorize.
///
/// Multi-core tapes run one pass per core present in a chunk: each pass
/// loads that core's timing lane of every engine and skips the other
/// cores' events. This is sound because a simple engine's lanes share no
/// state — no ports, no DRAM queue, no tracker — so a lane's update
/// depends only on its own core's events, in trace order.
///
/// Bit-identity with [`TimingEngine::apply`] then holds per engine and
/// lane: each lane's floating-point additions happen in the same order on
/// the same values (vector lanes never reassociate within one engine's
/// chain, and `u32 → f64` is exact). The per-core `instructions` counter
/// is shared by all engines because it is tape-derived — identical for
/// every engine — and each engine's shadow-window test reads it at the
/// same point `apply` would.
#[derive(Default)]
struct SimpleBank {
    /// Slot of each bank member in the caller's engine vector.
    slots: Vec<usize>,
    // Per-engine hoisted constants, in `slots` order, padded to a
    // multiple of four.
    cpi: Vec<f64>,
    l2_cycles: Vec<f64>,
    llc_hit_cycles: Vec<f64>,
    miss_open_cycles: Vec<f64>,
    transfer_cycles: Vec<f64>,
    rob: Vec<u64>,
    mshrs: Vec<u32>,
    /// Cores per engine: the tape's core count.
    cores: usize,
    // Lane state, core-major: entry `c * width + k` is engine `k`'s
    // timing lane for core `c`.
    cycles: Vec<f64>,
    shadow_end: Vec<u64>,
    shadow_misses: Vec<u32>,
    /// Instruction count per core (identical for every member).
    instructions: Vec<u64>,
}

impl SimpleBank {
    /// Collects every engine that can run in the bank, each with `cores`
    /// timing lanes.
    fn gather(bank: &[(TimingEngine, Option<EnduranceTracker>)], cores: usize) -> SimpleBank {
        let members: Vec<usize> = (0..bank.len())
            .filter(|&slot| bank[slot].0.is_simple() && bank[slot].1.is_none())
            .collect();
        // Pad to a multiple of the narrowest block width with inert lanes
        // (all-zero constants keep their cycles at `0.0 + gap * 0.0 +
        // 0.0` forever) so [`Self::apply_chunk`] runs exact
        // constant-width blocks: one wide pass beats several narrow ones
        // because the per-event scaffolding (core filter, flag decode,
        // class dispatch) is paid per pass, not per lane.
        let width = members.len().next_multiple_of(4);
        let engine = |k: usize| members.get(k).map(|&slot| &bank[slot].0);
        let mut this = SimpleBank {
            cores,
            ..SimpleBank::default()
        };
        for k in 0..width {
            let e = engine(k);
            this.cpi.push(e.map_or(0.0, |e| e.base_cpi));
            this.l2_cycles.push(e.map_or(0.0, |e| e.l2_cycles));
            this.llc_hit_cycles
                .push(e.map_or(0.0, |e| e.llc_read_cycles * LLC_HIT_EXPOSURE));
            this.miss_open_cycles
                .push(e.map_or(0.0, |e| e.llc_tag_cycles + e.dram_cycles));
            this.transfer_cycles
                .push(e.map_or(0.0, |e| e.dram_transfer_cycles));
            this.rob.push(e.map_or(0, |e| e.rob));
            this.mshrs.push(e.map_or(0, |e| e.mshrs));
        }
        for core in 0..cores {
            let lane = |k: usize| engine(k).map(|e| &e.lanes[core]);
            for k in 0..width {
                this.cycles.push(lane(k).map_or(0.0, |l| l.cycles));
                this.shadow_end
                    .push(lane(k).map_or(0, |l| l.miss_shadow_end));
                this.shadow_misses
                    .push(lane(k).map_or(0, |l| l.shadow_misses));
            }
            this.instructions
                .push(lane(0).map_or(0, |l| l.instructions));
        }
        this.slots = members;
        this
    }

    /// Advances every bank member over one chunk of tape lanes.
    ///
    /// Per core present in the chunk (a core with no events there keeps
    /// its lanes as they are), members run in constant-width blocks
    /// (widest first): a compile-time width fully unrolls the per-engine
    /// loops and keeps the block state in registers or stack slots, which
    /// a dynamic-width loop over the backing vectors never achieves. The
    /// bank is padded to a multiple of four, so only the 4/8/12/16
    /// instantiations exist; each block streams the whole chunk, which
    /// stays resident in L1 across blocks and cores.
    fn apply_chunk(&mut self, gaps: &[u32], cores: &[u8], flags: &[u8]) {
        let width = self.cpi.len();
        if width == 0 {
            return;
        }
        let mut present = [false; 256];
        for &core in cores {
            present[usize::from(core)] = true;
        }
        for c in (0..self.cores.min(present.len())).filter(|&c| present[c]) {
            let mut end = self.instructions[c];
            let mut base = 0;
            while base < width {
                let block = (width - base).min(16);
                end = match block {
                    4 => self.apply_block::<4>(c, base, gaps, cores, flags),
                    8 => self.apply_block::<8>(c, base, gaps, cores, flags),
                    12 => self.apply_block::<12>(c, base, gaps, cores, flags),
                    16 => self.apply_block::<16>(c, base, gaps, cores, flags),
                    _ => unreachable!("bank padded to a multiple of 4"),
                };
                base += block;
            }
            // Every block advanced the identical tape-derived count;
            // commit it once.
            self.instructions[c] = end;
        }
    }

    /// One `W`-engine block of [`Self::apply_chunk`]: the `W` engines
    /// from `base` on, over the events of core `c`. Returns that core's
    /// instruction count after the chunk.
    ///
    /// The event loop is branchless except for the core filter and LLC
    /// read misses: the class/write bits select which per-engine additive
    /// term joins the gap cycles (`zeros` for classes that add nothing —
    /// `x + 0.0` is bit-exact for the non-negative cycle counts), and the
    /// shadow-window update uses select-style assignments because the
    /// open-vs-shadowed decision flips data-dependently per lane. Every
    /// selected addend is the exact value [`TimingEngine::apply`]'s
    /// branchy form would add, in the same order, so rounding is
    /// unchanged.
    fn apply_block<const W: usize>(
        &mut self,
        c: usize,
        base: usize,
        gaps: &[u32],
        cores: &[u8],
        flags: &[u8],
    ) -> u64 {
        let core = c as u8;
        let mut instructions = self.instructions[c];
        let lane = c * self.cpi.len() + base;
        let cpi: [f64; W] = core::array::from_fn(|j| self.cpi[base + j]);
        let l2: [f64; W] = core::array::from_fn(|j| self.l2_cycles[base + j]);
        let hit: [f64; W] = core::array::from_fn(|j| self.llc_hit_cycles[base + j]);
        let open: [f64; W] = core::array::from_fn(|j| self.miss_open_cycles[base + j]);
        let transfer: [f64; W] = core::array::from_fn(|j| self.transfer_cycles[base + j]);
        let rob: [u64; W] = core::array::from_fn(|j| self.rob[base + j]);
        let mshrs: [u32; W] = core::array::from_fn(|j| self.mshrs[base + j]);
        let zeros = [0.0f64; W];
        let mut cycles: [f64; W] = core::array::from_fn(|j| self.cycles[lane + j]);
        let mut shadow_end: [u64; W] = core::array::from_fn(|j| self.shadow_end[lane + j]);
        let mut shadow_misses: [u32; W] = core::array::from_fn(|j| self.shadow_misses[lane + j]);
        let class_add: [&[f64; W]; 4] = [&zeros, &l2, &hit, &zeros];
        for ((&gap, &event_core), &flag) in gaps.iter().zip(cores).zip(flags) {
            if event_core != core {
                continue;
            }
            let gap_f = f64::from(gap);
            instructions += u64::from(gap) + 1;
            let write = flag & 1 != 0;
            let class = usize::from((flag >> 1) & 0b11);
            let extra = if write { &zeros } else { class_add[class] };
            for k in 0..W {
                let gap_cycles = cycles[k] + (gap_f * cpi[k] + cpi[k]);
                cycles[k] = gap_cycles + extra[k];
            }
            if class == 3 && !write {
                for k in 0..W {
                    let opens = instructions >= shadow_end[k] || shadow_misses[k] >= mshrs[k];
                    cycles[k] += if opens { open[k] } else { transfer[k] };
                    shadow_end[k] = if opens {
                        instructions + rob[k]
                    } else {
                        shadow_end[k]
                    };
                    shadow_misses[k] = if opens { 1 } else { shadow_misses[k] + 1 };
                }
            }
        }
        self.cycles[lane..lane + W].copy_from_slice(&cycles);
        self.shadow_end[lane..lane + W].copy_from_slice(&shadow_end);
        self.shadow_misses[lane..lane + W].copy_from_slice(&shadow_misses);
        instructions
    }

    /// Writes the accumulated lane state back into the member engines.
    fn scatter(&self, bank: &mut [(TimingEngine, Option<EnduranceTracker>)]) {
        let width = self.cpi.len();
        for c in 0..self.cores {
            for (k, &slot) in self.slots.iter().enumerate() {
                let lane = &mut bank[slot].0.lanes[c];
                lane.cycles = self.cycles[c * width + k];
                lane.instructions = self.instructions[c];
                lane.miss_shadow_end = self.shadow_end[c * width + k];
                lane.shadow_misses = self.shadow_misses[c * width + k];
            }
        }
    }
}

/// The timing half of one batched replay, fed its tape chunk by chunk:
/// every engine of the batch, with the [`SimpleBank`] gathered from
/// them. [`System::replay_batch`] feeds it a recorded tape's lanes, and
/// a functional pass ([`System::run_groups`]) the chunks it emits as it
/// walks, so both run the same kernels on the same event sequence.
struct Replayer {
    bank: Vec<(TimingEngine, Option<EnduranceTracker>)>,
    simple: SimpleBank,
    /// Bank slots outside the simple bank: each applies event by event.
    others: Vec<usize>,
}

impl Replayer {
    /// # Panics
    ///
    /// Panics if any system's core count differs from `cores`, the
    /// tape's.
    fn new(systems: &[&System], cores: u32) -> Replayer {
        for system in systems {
            assert_eq!(
                cores, system.config.cores,
                "outcome tape recorded for a different core count"
            );
        }
        let bank: Vec<(TimingEngine, Option<EnduranceTracker>)> = systems
            .iter()
            .map(|s| (TimingEngine::new(&s.config), s.endurance_tracker()))
            .collect();
        // The dominant configuration class (off-critical-path writes,
        // analytic DRAM, no endurance tracking) never reads a side-stream
        // value, so those engines fuse into one `SimpleBank`. Every other
        // engine streams the events through `apply`.
        let simple = SimpleBank::gather(&bank, cores as usize);
        let others = (0..bank.len())
            .filter(|slot| !simple.slots.contains(slot))
            .collect();
        Replayer {
            bank,
            simple,
            others,
        }
    }

    /// Times one chunk of tape lanes on every engine before any engine
    /// sees the next chunk, so the chunk stays resident in L1 across the
    /// batch. `wear` and `dram` are cursors into the side streams at the
    /// chunk's first entry. The chunk's flags fix how many entries it
    /// consumes, the same for every engine, so the per-event engines all
    /// end at one place, and the cursors move there (the simple bank
    /// reads no side entry; without per-event engines they stay put).
    fn feed(
        &mut self,
        gaps: &[u32],
        cores: &[u8],
        flags: &[u8],
        wear: &mut std::slice::Iter<'_, u64>,
        dram: &mut std::slice::Iter<'_, u64>,
    ) {
        let _span = nvm_llc_obs::span!("tape_replay_chunk");
        self.simple.apply_chunk(gaps, cores, flags);
        let mut end = None;
        for &slot in &self.others {
            let (engine, tracker) = &mut self.bank[slot];
            let (mut w, mut d) = (wear.clone(), dram.clone());
            for ((&gap, &core), &flags) in gaps.iter().zip(cores).zip(flags) {
                engine.apply(TapeEvent { gap, core, flags }, &mut w, &mut d, tracker);
            }
            end = Some((w, d));
        }
        if let Some((w, d)) = end {
            (*wear, *dram) = (w, d);
        }
    }

    /// [`Self::feed`] over a whole tape, or a chunk held as one.
    fn feed_tape(&mut self, tape: &OutcomeTape) {
        self.feed(
            tape.gaps(),
            tape.core_lane(),
            tape.flags(),
            &mut tape.wear_blocks().iter(),
            &mut tape.dram_blocks().iter(),
        );
    }

    /// Every system's result, once the whole tape has been fed; `stats`
    /// are the tape's functional counters.
    fn finish(mut self, systems: &[&System], stats: &SimStats) -> Vec<SimResult> {
        self.simple.scatter(&mut self.bank);
        systems
            .iter()
            .zip(self.bank)
            .map(|(system, (engine, tracker))| system.finalize(stats.clone(), engine, tracker))
            .collect()
    }
}

/// Feeds the next endurance-stream block to the tracker (when enabled).
/// The cursor advances either way so replay and direct runs agree on
/// stream position regardless of tracking.
fn record_wear(endurance: &mut Option<EnduranceTracker>, wear: &mut std::slice::Iter<'_, u64>) {
    let block = *wear.next().expect("tape endurance stream underrun");
    if let Some(tracker) = endurance.as_mut() {
        tracker.record(block);
    }
}

/// Applies the write policy's timing for one LLC write.
fn write_timing(
    ports: &mut [f64],
    lane: &mut TimingLane,
    write_cycles: f64,
    policy: LlcWritePolicy,
    port_stall_cycles: &mut u64,
) {
    match policy {
        LlcWritePolicy::OffCriticalPath => {}
        LlcWritePolicy::PortContention => {
            // The write occupies a port but the core keeps running.
            let _ = claim_port(ports, lane.cycles, write_cycles);
        }
        LlcWritePolicy::Blocking => {
            lane.cycles += write_cycles;
            *port_stall_cycles += write_cycles as u64;
        }
    }
}

/// One core's private levels.
#[derive(Debug)]
struct PrivateCaches {
    l1d: SetAssocCache,
    l2: SetAssocCache,
}

/// The upper stage of the functional walk: every core's L1D and L2, and
/// the L2's next-line prefetcher. It never reads LLC state, so one upper
/// stage drives any number of LLC stages ([`LlcStage`]), one per LLC
/// geometry. The exception is inclusion: an inclusive LLC's victims
/// invalidate private copies, so such a walk has exactly one stage.
#[derive(Debug)]
struct UpperStage {
    cores: Vec<PrivateCaches>,
    prefetch: bool,
    /// The private levels' counters (the LLC fields stay zero).
    stats: SimStats,
}

/// What one trace event asks of the LLC once the private levels have run,
/// in the order the LLC sees it: the dirty lines they wrote back, then,
/// on an L2 miss, the prefetch fill and the demand access.
#[derive(Debug)]
struct LlcRequests {
    /// The event's outcome so far: core, gap, write bit, the private
    /// levels' outcome class and their LLC-write flags.
    rec: TapeEvent,
    writes: [u64; 3],
    writes_len: u8,
    /// On an L2 miss: the demand block, and the block the prefetcher
    /// pulled into the L2, if it pulled one.
    demand: Option<(u64, Option<u64>)>,
}

impl LlcRequests {
    fn write(&mut self, block: u64) {
        self.writes[usize::from(self.writes_len)] = block;
        self.writes_len += 1;
    }

    fn writes(&self) -> &[u64] {
        &self.writes[..usize::from(self.writes_len)]
    }
}

impl UpperStage {
    fn new(system: &System) -> UpperStage {
        let cfg = &system.config;
        let level = |level: &crate::config::CacheLevelConfig| {
            SetAssocCache::with_geometry(
                level.capacity_bytes,
                level.associativity,
                level.block_bytes,
                system.replacement,
            )
        };
        UpperStage {
            cores: (0..cfg.cores)
                .map(|_| PrivateCaches {
                    l1d: level(&cfg.l1d),
                    l2: level(&cfg.l2),
                })
                .collect(),
            prefetch: cfg.l2_prefetch,
            stats: SimStats::default(),
        }
    }

    /// Runs `event` through its core's private levels and returns what it
    /// asks of the LLC. Region-of-interest events (`roi`) count
    /// statistics and prefetch; warmup events only touch the arrays.
    fn access(&mut self, event: TraceEvent, roi: bool) -> LlcRequests {
        let core_idx = usize::from(event.tid) % self.cores.len();
        let core = &mut self.cores[core_idx];
        let is_write = event.kind == AccessKind::Write;
        let block = event.block();
        let stats = &mut self.stats;
        let mut req = LlcRequests {
            rec: TapeEvent::new(core_idx as u8, event.gap_instructions, is_write),
            writes: [0; 3],
            writes_len: 0,
            demand: None,
        };
        if roi {
            stats.accesses += 1;
            stats.instructions += u64::from(event.gap_instructions) + 1;
        }

        // --- L1D --------------------------------------------------------
        let l1_out = core.l1d.access(block, is_write);
        if l1_out.hit {
            stats.l1d_hits += u64::from(roi);
            return req;
        }
        stats.l1d_misses += u64::from(roi);
        // L1 victim writeback sinks into L2; its own eviction cascades
        // to the LLC as a write.
        if let Some(wb) = l1_out.writeback() {
            if let Some(wb2) = core.l2.fill_dirty(wb) {
                req.write(wb2);
                req.rec = req.rec.with_l1_writeback_llc_write();
            }
        }

        // --- L2 ---------------------------------------------------------
        let l2_out = core.l2.access(block, false);
        if l2_out.hit {
            stats.l2_hits += u64::from(roi);
            req.rec = req.rec.with_outcome(Outcome::L2Hit);
            return req;
        }
        stats.l2_misses += u64::from(roi);
        if let Some(wb) = l2_out.writeback() {
            req.write(wb);
            req.rec = req.rec.with_l2_writeback_llc_write();
        }

        // Next-line prefetch: a demand L2 miss pulls block+1 into the L2
        // off the critical path (region of interest only). Its dirty L2
        // victim is an LLC write; the LLC stage decides whether the
        // block also fills the LLC.
        let mut prefetch = None;
        if roi && self.prefetch && !core.l2.contains(block + 1) {
            stats.prefetches += 1;
            if let Some(e) = core.l2.fill_clean(block + 1) {
                if e.dirty {
                    req.write(e.block);
                    req.rec = req.rec.with_prefetch_evict_llc_write();
                }
            }
            prefetch = Some(block + 1);
        }
        req.demand = Some((block, prefetch));
        req
    }

    /// Back-invalidates LLC `victims` in every core's private levels
    /// (inclusive hierarchies).
    fn invalidate(&mut self, victims: impl Iterator<Item = u64>) {
        for victim in victims {
            for c in &mut self.cores {
                for level in [&mut c.l1d, &mut c.l2] {
                    if let Some(dirty) = level.invalidate(victim) {
                        self.stats.inclusion_invalidations += 1;
                        self.stats.dram_writebacks += u64::from(dirty);
                    }
                }
            }
        }
    }
}

/// One LLC geometry of the functional walk: the LLC array, its dead-block
/// bypass predictor, and the LLC's counters.
#[derive(Debug)]
struct LlcStage {
    llc: SetAssocCache,
    bypass: Option<DeadBlockPredictor>,
    /// LLC victims awaiting back-invalidation at the next event: present
    /// only for an inclusive LLC.
    victims: Option<Vec<u64>>,
    /// The LLC's counters (the private-level fields stay zero).
    stats: SimStats,
}

impl LlcStage {
    /// The stage of `system`'s LLC, its array taken from `spare` when one
    /// there has its shape.
    fn new(system: &System, spare: &mut Vec<SetAssocCache>) -> LlcStage {
        let cfg = &system.config;
        LlcStage {
            llc: SetAssocCache::with_geometry_from(
                spare,
                cfg.llc_capacity_bytes(),
                16,
                64,
                system.replacement,
            ),
            bypass: cfg.llc_bypass.then(DeadBlockPredictor::default_table),
            victims: cfg.inclusive_llc.then(Vec::new),
            stats: SimStats::default(),
        }
    }

    /// A warmup event's LLC traffic: touches the array, counts nothing.
    fn warm(&mut self, req: &LlcRequests) {
        for &block in req.writes() {
            let _ = self.llc.fill_dirty(block);
        }
        if let Some((block, _)) = req.demand {
            let _ = self.llc.access(block, false);
        }
    }

    /// A region-of-interest event's LLC traffic: returns the event's
    /// outcome on this geometry, with its endurance and DRAM side events
    /// in `sides`.
    fn serve(&mut self, req: &LlcRequests, sides: &mut SideEvents) -> TapeEvent {
        sides.clear();
        for &block in req.writes() {
            sides.push_endurance(block);
            self.write(block);
        }
        let Some((block, prefetch)) = req.demand else {
            return req.rec;
        };
        let mut rec = req.rec;
        // A prefetch fill cycles the LLC array (endurance) and moves DRAM
        // traffic, but charges no core time and — per equation (7) — no
        // extra LLC dynamic energy, and never perturbs demand hit/miss
        // statistics.
        if let Some(next) = prefetch {
            if !self.llc.contains(next) {
                if let Some(e) = self.llc.fill_clean(next) {
                    self.stats.dram_writebacks += u64::from(e.dirty);
                    self.evicted(e.block);
                }
                sides.push_endurance(next);
                sides.push_dram(next);
                rec = rec.with_prefetch_llc_fill();
            }
        }

        let (llc_hit, llc_filled) = match self.bypass.as_mut() {
            Some(pred) => {
                if self.llc.contains(block) {
                    (self.llc.access(block, false).hit, false)
                } else if pred.should_bypass(block) {
                    // Dead-on-arrival: count the miss, skip the fill.
                    let _ = self.llc.access_no_alloc(block);
                    self.stats.llc_bypassed_fills += 1;
                    (false, false)
                } else {
                    if let Some(e) = self.llc.access(block, false).evicted {
                        pred.train(e.block, e.reused);
                        self.stats.dram_writebacks += u64::from(e.dirty);
                        self.evicted(e.block);
                    }
                    (false, true)
                }
            }
            None => {
                let out = self.llc.access(block, false);
                if let Some(e) = out.evicted {
                    self.stats.dram_writebacks += u64::from(e.dirty);
                    self.evicted(e.block);
                }
                (out.hit, !out.hit)
            }
        };
        if llc_hit {
            self.stats.llc_hits += 1;
            return rec.with_outcome(Outcome::LlcHit);
        }
        self.stats.llc_misses += 1;
        // The miss's fill allocates the block; equation (7) charges it
        // tag energy only (already counted with the miss), so the fill
        // contributes no E_dyn,write — tracked separately for endurance
        // analyses (the array still cycles).
        if llc_filled {
            self.stats.llc_fills += 1;
            sides.push_endurance(block);
            rec = rec.with_llc_filled();
        }
        sides.push_dram(block);
        rec.with_outcome(Outcome::LlcMiss)
    }

    /// The functional half of an LLC write from a private level's dirty
    /// writeback: allocates the block dirty and cascades any dirty LLC
    /// victim to DRAM. The write's `E_dyn,write` count rides in
    /// `stats.llc_writes`; its timing is the engine's business.
    fn write(&mut self, block: u64) {
        self.stats.llc_writes += 1;
        if let Some(victim) = self.llc.fill_dirty_full(block) {
            self.stats.dram_writebacks += u64::from(victim.dirty);
            self.evicted(victim.block);
        }
    }

    /// Queues an LLC victim for back-invalidation, if the LLC is
    /// inclusive.
    fn evicted(&mut self, block: u64) {
        if let Some(victims) = self.victims.as_mut() {
            victims.push(block);
        }
    }
}

/// Field-wise sum of two counter sets: a stage's counters joined with
/// the other stage's.
fn joined(a: &SimStats, b: &SimStats) -> SimStats {
    SimStats {
        instructions: a.instructions + b.instructions,
        accesses: a.accesses + b.accesses,
        l1d_hits: a.l1d_hits + b.l1d_hits,
        l1d_misses: a.l1d_misses + b.l1d_misses,
        l2_hits: a.l2_hits + b.l2_hits,
        l2_misses: a.l2_misses + b.l2_misses,
        llc_hits: a.llc_hits + b.llc_hits,
        llc_misses: a.llc_misses + b.llc_misses,
        llc_writes: a.llc_writes + b.llc_writes,
        llc_fills: a.llc_fills + b.llc_fills,
        dram_writebacks: a.dram_writebacks + b.dram_writebacks,
        llc_port_stall_cycles: a.llc_port_stall_cycles + b.llc_port_stall_cycles,
        dram_row_hits: a.dram_row_hits + b.dram_row_hits,
        dram_row_conflicts: a.dram_row_conflicts + b.dram_row_conflicts,
        dram_queue_cycles: a.dram_queue_cycles + b.dram_queue_cycles,
        llc_bypassed_fills: a.llc_bypassed_fills + b.llc_bypassed_fills,
        prefetches: a.prefetches + b.prefetches,
        inclusion_invalidations: a.inclusion_invalidations + b.inclusion_invalidations,
    }
}

/// A configured system ready to replay traces.
///
/// # Examples
///
/// ```
/// use nvm_llc_circuit::reference;
/// use nvm_llc_sim::{config::ArchConfig, system::System};
/// use nvm_llc_trace::workloads;
///
/// let trace = workloads::by_name("tonto").unwrap().generate(1, 5_000);
/// let config = ArchConfig::gainestown(reference::sram_baseline());
/// let result = System::new(config).run(&trace);
/// assert!(result.exec_time.value() > 0.0);
/// ```
#[derive(Debug)]
pub struct System {
    pub(crate) config: ArchConfig,
    pub(crate) replacement: Replacement,
    pub(crate) warmup_fraction: f64,
    pub(crate) endurance: Option<WearPolicy>,
}

impl System {
    /// Creates a system for the given architecture with LRU replacement
    /// everywhere (the paper's configuration).
    pub fn new(config: ArchConfig) -> Self {
        System {
            config,
            replacement: Replacement::Lru,
            warmup_fraction: 0.0,
            endurance: None,
        }
    }

    /// Enables per-set write tracking and the lifetime report
    /// ([`crate::endurance`]), with the given wear-leveling policy.
    pub fn with_endurance_tracking(mut self, policy: WearPolicy) -> Self {
        self.endurance = Some(policy);
        self
    }

    /// Warms the caches on the first `fraction` of the trace without
    /// charging time, energy, or statistics — the Sniper warmup/ROI
    /// discipline. Steady-state measurements (the paper's figures) use
    /// 25%; raw replays default to 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ fraction < 1.0`.
    pub fn with_warmup(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "warmup fraction must be in [0, 1)"
        );
        self.warmup_fraction = fraction;
        self
    }

    /// Overrides the replacement policy in every cache level (the
    /// replacement-sensitivity ablation).
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Replays `trace` and returns timing, energy, and statistics.
    ///
    /// Threads map onto cores round-robin (`core = tid % cores`), so a
    /// trace with more threads than cores time-shares.
    ///
    /// This is the fused single-pass path: the functional walk and the
    /// [`TimingEngine`] run in lockstep, one event at a time.
    pub fn run(&self, trace: &Trace) -> SimResult {
        let mut engine = TimingEngine::new(&self.config);
        let mut endurance = self.endurance_tracker();
        let events = trace.iter().copied();
        let stats = Self::functional_walk(&[self], events, &mut Vec::new(), |_, rec, sides| {
            engine.apply(
                rec,
                &mut sides.endurance().iter(),
                &mut sides.dram().iter(),
                &mut endurance,
            );
        });
        self.finalize(one(stats), engine, endurance)
    }

    /// Phase A alone: runs the functional pass and captures the outcome
    /// tape ([`crate::tape`]) that [`System::replay_batch`] can re-time
    /// for any technology sharing this system's [`TapeKey`] geometry.
    pub fn record(&self, trace: &Trace) -> OutcomeTape {
        self.record_events(trace.iter().copied())
    }

    /// [`System::record`] over a trace's events as they arrive, such as
    /// a [`WorkloadProfile::events`](nvm_llc_trace::WorkloadProfile::events)
    /// stream: the tape equals the one recorded from the materialized
    /// trace, and no trace is held while it records.
    pub(crate) fn record_events(
        &self,
        events: impl ExactSizeIterator<Item = TraceEvent>,
    ) -> OutcomeTape {
        one(Self::record_stages(&[self], events))
    }

    /// [`System::record`] for several systems over one walk: one tape per
    /// system, each equal to that system's own recording of the trace.
    /// The systems must share their private levels
    /// ([`TapeKey::shares_pass`]).
    pub(crate) fn record_stages(
        systems: &[&System],
        events: impl ExactSizeIterator<Item = TraceEvent>,
    ) -> Vec<OutcomeTape> {
        let _span = nvm_llc_obs::span!("tape_record");
        let cores = systems[0].config.cores;
        let roi_events = events.len() - systems[0].warmup_events(events.len());
        let mut tapes: Vec<OutcomeTape> = systems
            .iter()
            .map(|_| OutcomeTape::with_capacity(roi_events, cores))
            .collect();
        let stats = Self::functional_walk(systems, events, &mut Vec::new(), |stage, rec, sides| {
            tapes[stage].push(rec, sides);
        });
        for (tape, stats) in tapes.iter_mut().zip(stats) {
            tape.seal(stats);
        }
        tapes
    }

    /// The evaluator's functional pass: one walk over `events` for
    /// several tape groups whose keys share the private levels
    /// ([`TapeKey::shares_pass`]), one LLC stage per group. Each stage's
    /// outcomes fill a [`REPLAY_CHUNK_EVENTS`]-event buffer, and each full
    /// buffer goes straight into the group's batched replay, so no tape
    /// outlives its chunk. Returns every group's results, equal to
    /// [`System::replay_batch`] of the group over its recorded tape.
    ///
    /// `spare` carries LLC arrays from one pass to the next: the stages
    /// take theirs from it where the shape matches, and leave theirs in
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the groups' leaders do not share the private levels, or
    /// if a member's core count differs from its leader's.
    pub(crate) fn run_groups(
        groups: &[Vec<&System>],
        events: impl ExactSizeIterator<Item = TraceEvent>,
        spare: &mut Vec<SetAssocCache>,
    ) -> Vec<Vec<SimResult>> {
        let _span = nvm_llc_obs::span!("tape_record");
        let leaders: Vec<&System> = groups.iter().map(|group| group[0]).collect();
        let cores = leaders[0].config.cores;
        let mut streams: Vec<(OutcomeTape, Replayer)> = groups
            .iter()
            .map(|group| {
                (
                    OutcomeTape::with_capacity(REPLAY_CHUNK_EVENTS, cores),
                    Replayer::new(group, cores),
                )
            })
            .collect();
        let stats = Self::functional_walk(&leaders, events, spare, |stage, rec, sides| {
            let (chunk, replayer) = &mut streams[stage];
            chunk.push(rec, sides);
            if chunk.len() == REPLAY_CHUNK_EVENTS {
                replayer.feed_tape(chunk);
                chunk.clear();
            }
        });
        streams
            .into_iter()
            .zip(groups)
            .zip(&stats)
            .map(|(((chunk, mut replayer), group), stats)| {
                let _span = nvm_llc_obs::span!("tape_replay_batch");
                if !chunk.is_empty() {
                    replayer.feed_tape(&chunk);
                }
                replayer.finish(group, stats)
            })
            .collect()
    }

    /// Phase B for this system alone: a one-member
    /// [`System::replay_batch`]. Bit-identical to [`System::run`] on the
    /// trace the tape was recorded from, for any configuration that
    /// shares the tape's functional geometry.
    ///
    /// # Panics
    ///
    /// Panics if the tape was recorded for a different core count (the
    /// clearest symptom of pairing a tape with the wrong system).
    pub fn replay(&self, tape: &OutcomeTape) -> SimResult {
        one(Self::replay_batch(&[self], tape))
    }

    /// Phase B: applies every system's technology timing and energy to a
    /// recorded tape in one pass over its lanes, [`REPLAY_CHUNK_EVENTS`]
    /// events at a time.
    ///
    /// Results are bit-identical to [`System::run`] on the trace the tape
    /// was recorded from. The systems may differ in any timing-only knob
    /// (technology model, write policy, MSHRs, DRAM backend, write mode,
    /// endurance tracking) but must share the tape's functional geometry.
    ///
    /// # Panics
    ///
    /// Panics if any system's core count differs from the tape's.
    pub fn replay_batch(systems: &[&System], tape: &OutcomeTape) -> Vec<SimResult> {
        let _span = nvm_llc_obs::span!("tape_replay_batch");
        Self::replay_chunked(systems, tape, REPLAY_CHUNK_EVENTS)
    }

    /// [`System::replay_batch`] with the tape fed `chunk_events` events
    /// at a time: chunk-major, engine-inner.
    fn replay_chunked(
        systems: &[&System],
        tape: &OutcomeTape,
        chunk_events: usize,
    ) -> Vec<SimResult> {
        let mut replayer = Replayer::new(systems, tape.cores());
        let (mut wear, mut dram) = (tape.wear_blocks().iter(), tape.dram_blocks().iter());
        let chunks = tape
            .gaps()
            .chunks(chunk_events)
            .zip(tape.core_lane().chunks(chunk_events))
            .zip(tape.flags().chunks(chunk_events));
        for ((gaps, cores), flags) in chunks {
            replayer.feed(gaps, cores, flags, &mut wear, &mut dram);
        }
        replayer.finish(systems, tape.stats())
    }

    /// The functional identity of running this system over `trace`: every
    /// knob the outcome tape depends on, and none it doesn't.
    pub fn tape_key(&self, trace: &Trace) -> TapeKey {
        self.tape_key_for(trace.id())
    }

    /// [`System::tape_key`] of the trace `trace_id` identifies
    /// ([`Trace::id`]; for a generated trace,
    /// [`WorkloadProfile::trace_id`](nvm_llc_trace::WorkloadProfile::trace_id)),
    /// derived without the trace.
    pub(crate) fn tape_key_for(&self, trace_id: u128) -> TapeKey {
        let cfg = &self.config;
        TapeKey::new(
            trace_id,
            cfg.cores,
            (
                cfg.l1d.capacity_bytes,
                cfg.l1d.associativity,
                cfg.l1d.block_bytes,
            ),
            (
                cfg.l2.capacity_bytes,
                cfg.l2.associativity,
                cfg.l2.block_bytes,
            ),
            cfg.llc_capacity_bytes(),
            self.replacement,
            self.warmup_fraction,
            cfg.inclusive_llc,
            cfg.l2_prefetch,
            cfg.llc_bypass,
        )
    }

    fn endurance_tracker(&self) -> Option<EnduranceTracker> {
        let llc_sets = (self.config.llc_capacity_bytes() / (64 * 16)).max(1);
        self.endurance
            .map(|policy| EnduranceTracker::new(llc_sets, policy))
    }

    /// Events of a `len`-event trace spent warming the caches.
    fn warmup_events(&self, len: usize) -> usize {
        ((len as f64 * self.warmup_fraction) as usize).min(len)
    }

    /// Phase A: drives the hierarchy over a trace's `events` in one walk,
    /// the private levels of `systems[0]` feeding one LLC stage per
    /// system, and hands each post-warmup event's outcome on each stage
    /// (plus its endurance/DRAM side events) to `consume(stage, ..)`, in
    /// trace order. Returns each stage's functional statistics; the
    /// timing-side fields (`llc_port_stall_cycles`, `dram_row_*`,
    /// `dram_queue_cycles`) stay zero for [`Self::finalize`] to fill.
    /// The LLC arrays come from `spare` where its shapes match, and the
    /// walk's own arrays replace its contents when it ends.
    ///
    /// # Panics
    ///
    /// Panics unless every system shares the first one's private levels
    /// ([`TapeKey::shares_pass`]); an inclusive system walks alone.
    fn functional_walk(
        systems: &[&System],
        mut events: impl ExactSizeIterator<Item = TraceEvent>,
        spare: &mut Vec<SetAssocCache>,
        mut consume: impl FnMut(usize, TapeEvent, &SideEvents),
    ) -> Vec<SimStats> {
        let leader = systems[0];
        let key = leader.tape_key_for(0);
        assert!(
            systems[1..]
                .iter()
                .all(|s| key.shares_pass(&s.tape_key_for(0))),
            "systems of one functional walk must share their private levels"
        );
        let mut upper = UpperStage::new(leader);
        let mut stages: Vec<LlcStage> = systems.iter().map(|s| LlcStage::new(s, spare)).collect();

        // --- Warmup: touch the caches, charge nothing -------------------
        let warmup_events = leader.warmup_events(events.len());
        for event in events.by_ref().take(warmup_events) {
            let req = upper.access(event, false);
            for stage in &mut stages {
                stage.warm(&req);
            }
        }
        // Warmup's share of the L1 array counters, so the consistency
        // assertion below can cover only the region of interest.
        let warm_l1: u64 = upper.cores.iter().map(|c| c.l1d.accesses()).sum();

        let mut sides = SideEvents::default();
        for event in events {
            // Inclusive hierarchy: apply back-invalidations queued by the
            // previous event (one-event delay ≈ the invalidation's real
            // network latency).
            if let [LlcStage {
                victims: Some(victims),
                ..
            }] = stages.as_mut_slice()
            {
                if !victims.is_empty() {
                    upper.invalidate(victims.drain(..));
                }
            }
            let req = upper.access(event, true);
            for (i, stage) in stages.iter_mut().enumerate() {
                let rec = stage.serve(&req, &mut sides);
                consume(i, rec, &sides);
            }
        }

        // The per-event counters never saw the warmup pass; nothing to
        // correct, but assert the arrays agree with them.
        debug_assert_eq!(
            upper.stats.l1d_hits + upper.stats.l1d_misses + warm_l1,
            upper.cores.iter().map(|c| c.l1d.accesses()).sum::<u64>()
        );
        let stats = stages
            .iter()
            .map(|stage| joined(&upper.stats, &stage.stats))
            .collect();
        *spare = stages.into_iter().map(|stage| stage.llc).collect();
        stats
    }

    /// Assembles a [`SimResult`] from the functional statistics and a
    /// finished timing engine — the shared tail of both [`System::run`]
    /// and [`System::replay_batch`].
    fn finalize(
        &self,
        mut stats: SimStats,
        engine: TimingEngine,
        endurance: Option<EnduranceTracker>,
    ) -> SimResult {
        let cfg = &self.config;
        let max_cycles = engine.lanes.iter().map(|l| l.cycles).fold(0.0f64, f64::max);
        stats.llc_port_stall_cycles = engine.port_stall_cycles;
        if let Some(dram) = &engine.dram {
            stats.dram_row_hits = dram.stats().row_hits;
            stats.dram_row_conflicts = dram.stats().row_conflicts;
            stats.dram_queue_cycles = dram.stats().queue_cycles;
        }

        let exec_time = Seconds::new(max_cycles / (cfg.freq_ghz * 1e9));
        // Equation (8), with the data-write portion scaled by the write
        // mode (differential writes only drive flipped bits; the tag
        // lookup — equation (7)'s E_dyn,tag — is always paid in full).
        let tag_j = cfg.llc.miss_energy.to_joules().value();
        let write_j = tag_j
            + (cfg.llc.write_energy.to_joules().value() - tag_j).max(0.0)
                * cfg.llc_write_mode.energy_factor();
        let dynamic = stats.llc_hits as f64 * cfg.llc.hit_energy.to_joules().value()
            + stats.llc_misses as f64 * cfg.llc.miss_energy.to_joules().value()
            + stats.llc_writes as f64 * write_j;
        let leakage = cfg.llc.leakage * exec_time;

        let endurance_report =
            endurance.map(|tracker| tracker.report(cfg.llc.class, 16, exec_time));
        SimResult {
            llc_name: cfg.llc.display_name(),
            exec_time,
            llc_dynamic_energy: Joules::new(dynamic),
            llc_leakage_energy: leakage,
            endurance: endurance_report,
            stats,
        }
    }
}

/// Claims the earliest-free banked port at or after `now` for `occupancy`
/// cycles; returns the start time.
fn claim_port(ports: &mut [f64], now: f64, occupancy: f64) -> f64 {
    let (idx, _) = ports
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite port times"))
        .expect("at least one port");
    let start = now.max(ports[idx]);
    ports[idx] = start + occupancy;
    start
}

/// The one item of a one-element vector.
fn one<T>(items: Vec<T>) -> T {
    let [item]: [T; 1] = items.try_into().ok().expect("exactly one item");
    item
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_circuit::reference;
    use nvm_llc_trace::workloads;

    fn run(llc_name: &str, workload: &str, n: usize) -> SimResult {
        let llc = reference::by_name(&reference::fixed_capacity(), llc_name).unwrap();
        let trace = workloads::by_name(workload).unwrap().generate(42, n);
        System::new(ArchConfig::gainestown(llc)).run(&trace)
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run("SRAM", "tonto", 20_000);
        let b = run("SRAM", "tonto", 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchy_filters_accesses_downward() {
        let r = run("SRAM", "leela", 40_000);
        let s = &r.stats;
        assert!(s.l1d_hits > 0);
        assert!(s.l1d_misses >= s.l2_hits + s.l2_misses);
        assert_eq!(s.l2_hits + s.l2_misses, s.l1d_misses);
        assert_eq!(s.llc_accesses(), s.l2_misses);
        assert!(s.llc_accesses() < s.accesses);
    }

    #[test]
    fn every_miss_fills_and_writebacks_are_separate() {
        let r = run("SRAM", "ft", 40_000);
        assert_eq!(r.stats.llc_fills, r.stats.llc_misses);
        // ft is write-balanced: plenty of L2 writebacks reach the LLC.
        assert!(r.stats.llc_writes > 0);
    }

    #[test]
    fn nvm_read_latency_slows_execution_slightly() {
        // Jan_S read path ≈ 4.5 ns vs SRAM 1.7 ns: a few percent.
        let sram = run("SRAM", "bzip2", 60_000);
        let jan = run("Jan", "bzip2", 60_000);
        let speedup = jan.speedup_vs(&sram);
        assert!(speedup < 1.0, "{speedup}");
        assert!(speedup > 0.85, "{speedup}");
    }

    #[test]
    fn off_critical_path_hides_write_latency() {
        // Zhang writes at ~300 ns; with the paper's assumption the
        // slowdown vs SRAM must stay small (Fig. 1 shows ≈0).
        let sram = run("SRAM", "mg", 30_000);
        let zhang = run("Zhang", "mg", 30_000);
        let speedup = zhang.speedup_vs(&sram);
        assert!(speedup > 0.85, "{speedup}");
    }

    #[test]
    fn blocking_writes_hurt_slow_write_technologies() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Zhang").unwrap();
        let trace = workloads::by_name("mg").unwrap().generate(42, 30_000);
        let off = System::new(ArchConfig::gainestown(llc.clone())).run(&trace);
        let blocking = System::new(
            ArchConfig::gainestown(llc).with_llc_write_policy(LlcWritePolicy::Blocking),
        )
        .run(&trace);
        assert!(
            blocking.exec_time.value() > 1.5 * off.exec_time.value(),
            "blocking {} vs off {}",
            blocking.exec_time.value(),
            off.exec_time.value()
        );
    }

    #[test]
    fn sram_energy_is_leakage_dominated() {
        let r = run("SRAM", "tonto", 40_000);
        assert!(r.llc_leakage_energy.value() > 5.0 * r.llc_dynamic_energy.value());
    }

    #[test]
    fn pcram_energy_is_write_dominated_on_miss_heavy_workloads() {
        let r = run("Kang", "cg", 30_000);
        assert!(r.llc_dynamic_energy.value() > r.llc_leakage_energy.value());
    }

    #[test]
    fn nvm_llc_energy_beats_sram_for_sttram() {
        // The paper's headline: NVM LLC energy up to 10× less than SRAM.
        let sram = run("SRAM", "leela", 40_000);
        let jan = run("Jan", "leela", 40_000);
        let ratio = jan.energy_vs(&sram);
        assert!(ratio < 0.5, "Jan/SRAM energy ratio {ratio}");
    }

    #[test]
    fn bigger_llc_reduces_mpki() {
        // gobmk's ~16 MB footprint: 32 MB Hayakawa_R absorbs it.
        let small = run("Hayakawa", "gobmk", 40_000);
        let llc = reference::by_name(&reference::fixed_area(), "Hayakawa").unwrap();
        let trace = workloads::by_name("gobmk").unwrap().generate(42, 40_000);
        let large = System::new(ArchConfig::gainestown(llc)).run(&trace);
        assert!(large.stats.llc_mpki() < small.stats.llc_mpki());
    }

    #[test]
    fn multithreaded_workloads_use_all_cores() {
        let r = run("SRAM", "ft", 10_000);
        // 4 threads × 10 000 accesses.
        assert_eq!(r.stats.accesses, 40_000);
        assert!(r.stats.instructions > 40_000);
    }

    #[test]
    fn thread_oversubscription_maps_round_robin() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("ft").unwrap().generate(42, 5_000);
        let single = System::new(ArchConfig::gainestown(llc).with_cores(1)).run(&trace);
        assert_eq!(single.stats.accesses, 20_000);
        // One core doing all the work takes longer than four.
        let quad = run("SRAM", "ft", 5_000);
        assert!(single.exec_time.value() > 2.0 * quad.exec_time.value());
    }

    #[test]
    fn detailed_dram_changes_timing_and_reports_row_stats() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("mg").unwrap().generate(42, 20_000);
        let simple = System::new(ArchConfig::gainestown(llc.clone())).run(&trace);
        let detailed = System::new(ArchConfig::gainestown(llc).with_detailed_dram()).run(&trace);
        assert_eq!(simple.stats.dram_row_hits, 0);
        assert!(detailed.stats.dram_row_hits > 0);
        assert!(detailed.stats.dram_row_hits + detailed.stats.dram_row_conflicts > 0);
        // Timing differs but stays within the same regime.
        let ratio = detailed.exec_time.value() / simple.exec_time.value();
        assert!((0.3..3.0).contains(&ratio), "{ratio}");
        // Cache behaviour (state machine) is identical either way.
        assert_eq!(simple.stats.llc_misses, detailed.stats.llc_misses);
    }

    #[test]
    fn endurance_tracking_reports_lifetime() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
        let trace = workloads::by_name("ft").unwrap().generate(42, 20_000);
        let result = System::new(ArchConfig::gainestown(llc))
            .with_endurance_tracking(crate::endurance::WearPolicy::None)
            .run(&trace);
        let report = result.endurance.expect("tracking enabled");
        assert_eq!(
            report.total_writes,
            result.stats.llc_writes + result.stats.llc_fills
        );
        assert!(report.lifetime_years.is_finite());
        assert!(report.lifetime_years > 0.0);
        // PCRAM endurance (1e8) must yield a far shorter lifetime than
        // STTRAM on the same workload.
        let xue = reference::by_name(&reference::fixed_capacity(), "Xue").unwrap();
        let trace2 = workloads::by_name("ft").unwrap().generate(42, 20_000);
        let stt = System::new(ArchConfig::gainestown(xue))
            .with_endurance_tracking(crate::endurance::WearPolicy::None)
            .run(&trace2)
            .endurance
            .unwrap();
        assert!(stt.lifetime_years > 100.0 * report.lifetime_years);
    }

    #[test]
    fn bypass_reduces_array_fills_on_low_reuse_workloads() {
        // deepsjeng's huge cold footprint is dead-block heaven.
        let llc = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
        let trace = workloads::by_name("deepsjeng")
            .unwrap()
            .generate(42, 40_000);
        let base = System::new(ArchConfig::gainestown(llc.clone()))
            .with_warmup(0.25)
            .run(&trace);
        let bypassed = System::new(ArchConfig::gainestown(llc).with_llc_bypass())
            .with_warmup(0.25)
            .run(&trace);
        assert!(bypassed.stats.llc_bypassed_fills > 0);
        assert!(
            bypassed.stats.llc_fills < base.stats.llc_fills,
            "{} vs {}",
            bypassed.stats.llc_fills,
            base.stats.llc_fills
        );
        assert_eq!(base.stats.llc_bypassed_fills, 0);
    }

    #[test]
    fn differential_writes_cut_write_energy_only() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
        let trace = workloads::by_name("bzip2").unwrap().generate(42, 20_000);
        let full = System::new(ArchConfig::gainestown(llc.clone())).run(&trace);
        let diff =
            System::new(ArchConfig::gainestown(llc).with_differential_writes(0.4)).run(&trace);
        // Same events, lower dynamic energy, identical timing.
        assert_eq!(full.stats, diff.stats);
        assert_eq!(full.exec_time, diff.exec_time);
        assert!(
            diff.llc_dynamic_energy.value() < 0.6 * full.llc_dynamic_energy.value(),
            "{} vs {}",
            diff.llc_dynamic_energy.value(),
            full.llc_dynamic_energy.value()
        );
    }

    #[test]
    fn prefetcher_helps_streaming_not_pointer_chasing() {
        use nvm_llc_trace::{Suite, WorkloadProfile};
        let llc = reference::sram_baseline();
        let measure = |profile: &WorkloadProfile, prefetch: bool| {
            let trace = profile.generate(42, 40_000);
            let mut config = ArchConfig::gainestown(llc.clone());
            if prefetch {
                config = config.with_l2_prefetch();
            }
            System::new(config).with_warmup(0.25).run(&trace)
        };
        // A pure streamer: every L2 miss is sequential, so next-line
        // prefetch converts nearly all of them.
        let stream = WorkloadProfile::builder("stream", Suite::Npb)
            .footprint_blocks(1 << 18)
            .stream_fraction(1.0)
            .build();
        let s_off = measure(&stream, false);
        let s_on = measure(&stream, true);
        assert!(s_on.stats.prefetches > 0);
        assert!(
            (s_on.stats.l2_misses as f64) < 0.6 * s_off.stats.l2_misses as f64,
            "{} vs {}",
            s_on.stats.l2_misses,
            s_off.stats.l2_misses
        );
        assert!(s_on.exec_time.value() < s_off.exec_time.value());
        // Pointer-chasing deepsjeng barely benefits.
        let dsj = workloads::by_name("deepsjeng").unwrap();
        let d_off = measure(&dsj, false);
        let d_on = measure(&dsj, true);
        let stream_gain = s_off.stats.l2_misses as f64 / s_on.stats.l2_misses as f64;
        let dsj_gain = d_off.stats.l2_misses as f64 / d_on.stats.l2_misses as f64;
        assert!(stream_gain > 1.5 * dsj_gain, "{stream_gain} vs {dsj_gain}");
    }

    #[test]
    fn prefetch_fills_cycle_the_array_for_endurance() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
        let trace = workloads::by_name("GemsFDTD").unwrap().generate(42, 20_000);
        let run = |prefetch: bool| {
            let mut config = ArchConfig::gainestown(llc.clone());
            if prefetch {
                config = config.with_l2_prefetch();
            }
            System::new(config)
                .with_endurance_tracking(crate::endurance::WearPolicy::None)
                .run(&trace)
                .endurance
                .unwrap()
                .total_writes
        };
        // Prefetching writes more blocks into the NVM array — the
        // endurance cost of aggressive fills.
        assert!(run(true) > run(false));
    }

    #[test]
    fn inclusive_llc_back_invalidates_private_copies() {
        use nvm_llc_trace::{AccessKind, Trace, TraceEvent};
        // A hot block pinned in the L1 by constant re-reference while a
        // long stream churns the LLC: the hot block's stale LLC line gets
        // evicted, and inclusion must then rip it out of the L1, turning
        // later re-references into misses.
        let hot = 0u64;
        // Conflict stream: every block maps to the hot block's LLC set
        // (block index multiple of 16 K covers every power-of-two set
        // count in the hierarchy), so the hot line's stale LLC copy is
        // evicted while the L1 keeps hitting it.
        let mut events = Vec::new();
        for i in 0..60_000u64 {
            let addr = if i % 2 == 0 {
                hot * 64
            } else {
                (i * 16_384) * 64
            };
            events.push(TraceEvent {
                tid: 0,
                addr,
                kind: AccessKind::Read,
                gap_instructions: 1,
            });
        }
        let trace = Trace::new(events, 1);
        // Jan's 1 MB LLC churns under the 30 000-block stream.
        let llc = reference::by_name(&reference::fixed_area(), "Jan").unwrap();
        let base = System::new(ArchConfig::gainestown(llc.clone())).run(&trace);
        let inclusive = System::new(ArchConfig::gainestown(llc).with_inclusive_llc()).run(&trace);
        assert_eq!(base.stats.inclusion_invalidations, 0);
        assert!(
            inclusive.stats.inclusion_invalidations > 0,
            "no back-invalidations fired"
        );
        // Losing private copies can only add upper-level misses.
        assert!(inclusive.stats.l1d_misses > base.stats.l1d_misses);
    }

    #[test]
    fn bounded_mshrs_slow_miss_heavy_workloads() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("cg").unwrap().generate(42, 30_000);
        let run = |mshrs: Option<u32>| {
            let mut config = ArchConfig::gainestown(llc.clone());
            if let Some(m) = mshrs {
                config = config.with_mshrs(m);
            }
            System::new(config).run(&trace).exec_time.value()
        };
        let unlimited = run(None);
        let ten = run(Some(10));
        let one = run(Some(1));
        assert!(ten >= unlimited);
        assert!(one > ten, "1 MSHR {one} vs 10 MSHRs {ten}");
        // One MSHR serializes every miss: a dramatic slowdown.
        assert!(one > 1.5 * unlimited, "{one} vs {unlimited}");
    }

    #[test]
    fn port_contention_is_intermediate() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Zhang").unwrap();
        let trace = workloads::by_name("mg").unwrap().generate(42, 20_000);
        let make = |policy| {
            System::new(ArchConfig::gainestown(llc.clone()).with_llc_write_policy(policy))
                .run(&trace)
                .exec_time
                .value()
        };
        let off = make(LlcWritePolicy::OffCriticalPath);
        let port = make(LlcWritePolicy::PortContention);
        let blocking = make(LlcWritePolicy::Blocking);
        assert!(off <= port + 1e-12);
        assert!(port <= blocking + 1e-12);
    }

    // --- Functional/timing split ---------------------------------------

    /// Every knob that only shapes Phase B, stacked at once: replay must
    /// still be bit-identical to the direct run from one shared tape.
    #[test]
    fn replay_is_bit_identical_across_timing_knobs() {
        let models = reference::fixed_capacity();
        let trace = workloads::by_name("mg").unwrap().generate(42, 20_000);
        let recorder =
            System::new(ArchConfig::gainestown(reference::sram_baseline())).with_warmup(0.25);
        let tape = recorder.record(&trace);
        for llc_name in ["SRAM", "Jan", "Kang", "Zhang"] {
            let llc = reference::by_name(&models, llc_name).unwrap();
            for policy in [
                LlcWritePolicy::OffCriticalPath,
                LlcWritePolicy::PortContention,
                LlcWritePolicy::Blocking,
            ] {
                let system =
                    System::new(ArchConfig::gainestown(llc.clone()).with_llc_write_policy(policy))
                        .with_warmup(0.25);
                assert_eq!(
                    system.replay(&tape),
                    system.run(&trace),
                    "{llc_name} under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn replay_matches_run_with_detailed_dram_mshrs_and_endurance() {
        let llc = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
        let trace = workloads::by_name("cg").unwrap().generate(42, 20_000);
        let system = System::new(
            ArchConfig::gainestown(llc)
                .with_detailed_dram()
                .with_mshrs(8)
                .with_differential_writes(0.4),
        )
        .with_endurance_tracking(WearPolicy::RotateXor { period: 1_000 })
        .with_warmup(0.25);
        let tape = system.record(&trace);
        assert_eq!(system.replay(&tape), system.run(&trace));
    }

    #[test]
    fn replay_matches_run_with_functional_knobs_in_the_key() {
        // Prefetch + bypass + inclusion change the tape itself; a tape
        // recorded with the same flags still replays bit-identically.
        let llc = reference::by_name(&reference::fixed_capacity(), "Jan").unwrap();
        let trace = workloads::by_name("deepsjeng")
            .unwrap()
            .generate(42, 30_000);
        let system = System::new(
            ArchConfig::gainestown(llc)
                .with_l2_prefetch()
                .with_llc_bypass()
                .with_inclusive_llc(),
        )
        .with_warmup(0.25)
        .with_replacement(Replacement::Random);
        let tape = system.record(&trace);
        assert_eq!(system.replay(&tape), system.run(&trace));
    }

    #[test]
    fn tape_stats_only_carry_functional_counters() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("mg").unwrap().generate(42, 10_000);
        let system = System::new(ArchConfig::gainestown(llc).with_detailed_dram());
        let tape = system.record(&trace);
        assert_eq!(tape.stats().llc_port_stall_cycles, 0);
        assert_eq!(tape.stats().dram_row_hits, 0);
        assert_eq!(tape.stats().dram_row_conflicts, 0);
        assert_eq!(tape.stats().dram_queue_cycles, 0);
        // But the replayed result does report the timing-side stats.
        let result = system.replay(&tape);
        assert!(result.stats.dram_row_hits > 0);
    }

    #[test]
    fn tape_keys_ignore_timing_knobs_but_honor_functional_ones() {
        let models = reference::fixed_capacity();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let sram = System::new(ArchConfig::gainestown(
            reference::by_name(&models, "SRAM").unwrap(),
        ));
        // Different technology, same 2 MB geometry: same key.
        let kang = System::new(
            ArchConfig::gainestown(reference::by_name(&models, "Kang").unwrap())
                .with_llc_write_policy(LlcWritePolicy::Blocking)
                .with_detailed_dram()
                .with_mshrs(4)
                .with_differential_writes(0.3),
        );
        assert_eq!(sram.tape_key(&trace), kang.tape_key(&trace));
        // Functional knobs split the key.
        let prefetching = System::new(
            ArchConfig::gainestown(reference::by_name(&models, "SRAM").unwrap()).with_l2_prefetch(),
        );
        assert_ne!(sram.tape_key(&trace), prefetching.tape_key(&trace));
        let warmed = System::new(ArchConfig::gainestown(
            reference::by_name(&models, "SRAM").unwrap(),
        ))
        .with_warmup(0.25);
        assert_ne!(sram.tape_key(&trace), warmed.tape_key(&trace));
        // The trace's identity is its content: a regenerated copy shares
        // the key, a different seed splits it.
        let again = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        assert_eq!(sram.tape_key(&trace), sram.tape_key(&again));
        let other = workloads::by_name("tonto").unwrap().generate(43, 1_000);
        assert_ne!(sram.tape_key(&trace), sram.tape_key(&other));
    }

    #[test]
    #[should_panic(expected = "different core count")]
    fn replay_rejects_core_count_mismatch() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let tape = System::new(ArchConfig::gainestown(llc.clone())).record(&trace);
        let _ = System::new(ArchConfig::gainestown(llc).with_cores(2)).replay(&tape);
    }

    #[test]
    fn replay_batch_matches_replay_across_policies_and_trackers() {
        let models = reference::fixed_capacity();
        let trace = workloads::by_name("mg").unwrap().generate(42, 20_000);
        let recorder =
            System::new(ArchConfig::gainestown(reference::sram_baseline())).with_warmup(0.25);
        let tape = recorder.record(&trace);
        // A deliberately heterogeneous batch: every write policy, a
        // detailed-DRAM + MSHR cell, and an endurance-tracked cell.
        let systems = [
            recorder,
            System::new(
                ArchConfig::gainestown(reference::by_name(&models, "Jan").unwrap())
                    .with_llc_write_policy(LlcWritePolicy::PortContention),
            )
            .with_warmup(0.25),
            System::new(
                ArchConfig::gainestown(reference::by_name(&models, "Kang").unwrap())
                    .with_llc_write_policy(LlcWritePolicy::Blocking)
                    .with_detailed_dram()
                    .with_mshrs(8)
                    .with_differential_writes(0.4),
            )
            .with_warmup(0.25),
            System::new(ArchConfig::gainestown(
                reference::by_name(&models, "Zhang").unwrap(),
            ))
            .with_warmup(0.25)
            .with_endurance_tracking(WearPolicy::RotateXor { period: 1_000 }),
        ];
        let refs: Vec<&System> = systems.iter().collect();
        let batched = System::replay_batch(&refs, &tape);
        assert_eq!(batched.len(), systems.len());
        for (system, batched) in systems.iter().zip(&batched) {
            assert_eq!(batched, &system.replay(&tape));
            assert_eq!(batched, &system.run(&trace));
        }
    }

    #[test]
    fn replay_batch_of_nothing_is_nothing() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let tape = System::new(ArchConfig::gainestown(llc)).record(&trace);
        assert!(System::replay_batch(&[], &tape).is_empty());
    }

    #[test]
    #[should_panic(expected = "different core count")]
    fn replay_batch_rejects_core_count_mismatch() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let tape = System::new(ArchConfig::gainestown(llc.clone())).record(&trace);
        let ok = System::new(ArchConfig::gainestown(llc.clone()));
        let bad = System::new(ArchConfig::gainestown(llc).with_cores(2));
        let _ = System::replay_batch(&[&ok, &bad], &tape);
    }

    /// The systems of one shared walk: the fixed-area models whose LLC
    /// is at most 8 MB (four distinct capacities), picked by `picks` as
    /// (model, bypass, write policy), around shared private levels.
    fn stage_systems(
        picks: &[(usize, u32, usize)],
        cores: u32,
        prefetch: bool,
        warmup: f64,
        replacement: Replacement,
    ) -> Vec<System> {
        let models: Vec<_> = reference::fixed_area()
            .into_iter()
            .filter(|m| m.capacity.value() <= 8.0)
            .collect();
        picks
            .iter()
            .map(|&(model, bypass, policy)| {
                let mut config = ArchConfig::gainestown(models[model % models.len()].clone())
                    .with_cores(cores)
                    .with_llc_write_policy(
                        [
                            LlcWritePolicy::OffCriticalPath,
                            LlcWritePolicy::PortContention,
                            LlcWritePolicy::Blocking,
                        ][policy % 3],
                    );
                if prefetch {
                    config = config.with_l2_prefetch();
                }
                if bypass == 1 {
                    config = config.with_llc_bypass();
                }
                System::new(config)
                    .with_warmup(warmup)
                    .with_replacement(replacement)
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "share their private levels")]
    fn an_inclusive_llc_walks_alone() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let plain = System::new(ArchConfig::gainestown(llc.clone()));
        let inclusive = System::new(ArchConfig::gainestown(llc).with_inclusive_llc());
        let _ = System::record_stages(&[&plain, &inclusive], trace.iter().copied());
    }

    #[test]
    #[should_panic(expected = "share their private levels")]
    fn a_shared_walk_rejects_different_private_levels() {
        let llc = reference::sram_baseline();
        let trace = workloads::by_name("tonto").unwrap().generate(42, 1_000);
        let plain = System::new(ArchConfig::gainestown(llc.clone()));
        let prefetching = System::new(ArchConfig::gainestown(llc).with_l2_prefetch());
        let _ = System::record_stages(&[&plain, &prefetching], trace.iter().copied());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The shared pass, fuzzed: one walk of the private levels
        /// feeding a random set of LLC geometries (capacities, bypass)
        /// under random timing knobs records, for every one of them, the
        /// tape its own `System::record` records — every lane, side
        /// stream and counter — at every replacement policy, warmup and
        /// prefetch setting, and thread/core count.
        #[test]
        fn shared_pass_records_each_systems_own_tape(
            seed in 0u64..1000,
            n in 200usize..2500,
            fp_log2 in 8u32..18,
            threads in 1u8..5,
            cores in 1u32..5,
            warmup_idx in 0usize..4,
            prefetch in 0u32..2,
            repl_idx in 0usize..6,
            picks in proptest::collection::vec((0usize..9, 0u32..2, 0usize..3), 1..7),
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << fp_log2)
                .threads(threads)
                .build();
            let trace = w.generate(seed, n);
            let systems = stage_systems(
                &picks,
                cores,
                prefetch == 1,
                [0.0, 0.1, 0.25, 0.5][warmup_idx],
                Replacement::ALL[repl_idx],
            );
            let refs: Vec<&System> = systems.iter().collect();
            let tapes = System::record_stages(&refs, trace.iter().copied());
            proptest::prop_assert_eq!(tapes.len(), systems.len());
            for (system, tape) in systems.iter().zip(&tapes) {
                let own = system.record(&trace);
                proptest::prop_assert_eq!(tape.cores(), own.cores());
                proptest::prop_assert_eq!(tape.gaps(), own.gaps());
                proptest::prop_assert_eq!(tape.core_lane(), own.core_lane());
                proptest::prop_assert_eq!(tape.flags(), own.flags());
                proptest::prop_assert_eq!(tape.wear_blocks(), own.wear_blocks());
                proptest::prop_assert_eq!(tape.dram_blocks(), own.dram_blocks());
                proptest::prop_assert_eq!(tape.stats(), own.stats());
            }
        }

        /// The streamed replay, fuzzed: feeding a tape to the batched
        /// engines 1, 7 or [`REPLAY_CHUNK_EVENTS`] events at a time, or
        /// whole, gives exactly `replay_batch`'s results; and the
        /// evaluator's pass, which replays each group chunk by chunk as
        /// its walk emits them, gives every group exactly `replay_batch`
        /// of its own recorded tape. Lengths straddle the chunk size.
        #[test]
        fn streamed_replay_equals_batched_replay_at_any_chunk_size(
            seed in 0u64..1000,
            length_idx in 0usize..7,
            n in 200usize..2200,
            threads in 1u8..5,
            warmup_idx in 0usize..3,
            prefetch in 0u32..2,
            repl_idx in 0usize..6,
            picks in proptest::collection::vec((0usize..9, 0u32..2, 0usize..3), 1..9),
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            const CHUNK: usize = REPLAY_CHUNK_EVENTS;
            let n = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7, n][length_idx];
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << 12)
                .threads(threads)
                .build();
            let trace = w.generate(seed, n);
            let mut systems = stage_systems(
                &picks,
                4,
                prefetch == 1,
                [0.0, 0.1, 0.25][warmup_idx],
                Replacement::ALL[repl_idx],
            );
            // Detailed DRAM, MSHRs and wear tracking on some members, so
            // the per-event kernel and the side-stream cursors run too.
            for (i, system) in systems.iter_mut().enumerate() {
                if i % 3 == 1 {
                    system.config = system.config.clone().with_detailed_dram().with_mshrs(4);
                }
                if i % 4 == 2 {
                    system.endurance = Some(WearPolicy::RotateXor { period: 300 });
                }
            }
            // Group the members by tape key, as the evaluator does.
            let mut groups: Vec<Vec<&System>> = Vec::new();
            for system in &systems {
                let key = system.tape_key(&trace);
                match groups.iter_mut().find(|g| g[0].tape_key(&trace) == key) {
                    Some(group) => group.push(system),
                    None => groups.push(vec![system]),
                }
            }
            let streamed = System::run_groups(&groups, trace.iter().copied(), &mut Vec::new());
            proptest::prop_assert_eq!(streamed.len(), groups.len());
            for (group, streamed) in groups.iter().zip(&streamed) {
                let tape = group[0].record(&trace);
                let batched = System::replay_batch(group, &tape);
                for chunk in [1, 7, CHUNK, tape.len().max(1)] {
                    proptest::prop_assert!(
                        System::replay_chunked(group, &tape, chunk) == batched,
                        "chunk {} diverged",
                        chunk
                    );
                }
                proptest::prop_assert_eq!(streamed, &batched);
            }
        }

        /// The tentpole invariant, fuzzed: for random traces, geometries,
        /// and flag combinations, recording a tape and replaying it gives
        /// exactly the `SimResult` the fused single-pass path computes.
        #[test]
        fn replay_equals_run_for_random_configs(
            seed in 0u64..1000,
            n in 200usize..2500,
            rf in 0.2f64..0.95,
            fp_log2 in 8u32..18,
            threads in 1u8..5,
            cores in 1u32..5,
            warmup_idx in 0usize..4,
            llc_idx in 0usize..11,
            flags in 0u32..32,
            policy_idx in 0usize..3,
            repl_idx in 0usize..6,
            mshrs in 0u32..16,
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << fp_log2)
                .read_fraction(rf)
                .threads(threads)
                .build();
            let trace = w.generate(seed, n);
            let models = reference::fixed_capacity();
            // One bit per boolean knob, so every combination is reachable.
            let (inclusive, prefetch, bypass, detailed, endurance) = (
                flags & 1 != 0,
                flags & 2 != 0,
                flags & 4 != 0,
                flags & 8 != 0,
                flags & 16 != 0,
            );
            let mut config = ArchConfig::gainestown(models[llc_idx % models.len()].clone())
                .with_cores(cores)
                .with_llc_write_policy(match policy_idx {
                    0 => LlcWritePolicy::OffCriticalPath,
                    1 => LlcWritePolicy::PortContention,
                    _ => LlcWritePolicy::Blocking,
                });
            if inclusive {
                config = config.with_inclusive_llc();
            }
            if prefetch {
                config = config.with_l2_prefetch();
            }
            if bypass {
                config = config.with_llc_bypass();
            }
            if detailed {
                config = config.with_detailed_dram();
            }
            if mshrs > 0 {
                config = config.with_mshrs(mshrs);
            }
            let warmup = [0.0, 0.1, 0.25, 0.5][warmup_idx];
            // Every replacement policy must hold the invariant — the
            // policy shapes the tape, not how it replays.
            let mut system = System::new(config)
                .with_warmup(warmup)
                .with_replacement(Replacement::ALL[repl_idx]);
            if endurance {
                system = system.with_endurance_tracking(WearPolicy::None);
            }
            let tape = system.record(&trace);
            proptest::prop_assert_eq!(system.replay(&tape), system.run(&trace));
        }

        /// The batched engine's invariant, fuzzed: for random traces,
        /// geometries, shared functional knobs, and an arbitrary subset
        /// of technologies whose timing knobs (write policy, MSHRs,
        /// detailed DRAM, differential writes, endurance tracking) all
        /// differ per member, one lockstep pass over the tape is
        /// bit-identical both to replaying each technology on its own and
        /// to the fused run.
        #[test]
        fn replay_batch_equals_per_technology_replay(
            seed in 0u64..1000,
            n in 200usize..2000,
            rf in 0.2f64..0.95,
            fp_log2 in 8u32..16,
            threads in 1u8..5,
            cores in 1u32..5,
            warmup_idx in 0usize..4,
            subset in 1u32..2048,
            flags in 0u32..8,
            repl_idx in 0usize..6,
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << fp_log2)
                .read_fraction(rf)
                .threads(threads)
                .build();
            let trace = w.generate(seed, n);
            let models = reference::fixed_capacity();
            let warmup = [0.0, 0.1, 0.25, 0.5][warmup_idx];
            // Functional knobs are shared across the batch (they shape
            // the tape itself); timing knobs vary per member.
            let (inclusive, prefetch, bypass) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let mut systems = Vec::new();
            for (i, model) in models.iter().enumerate() {
                if subset & (1 << i) == 0 {
                    continue;
                }
                let mut config = ArchConfig::gainestown(model.clone())
                    .with_cores(cores)
                    .with_llc_write_policy(match i % 3 {
                        0 => LlcWritePolicy::OffCriticalPath,
                        1 => LlcWritePolicy::PortContention,
                        _ => LlcWritePolicy::Blocking,
                    });
                if inclusive {
                    config = config.with_inclusive_llc();
                }
                if prefetch {
                    config = config.with_l2_prefetch();
                }
                if bypass {
                    config = config.with_llc_bypass();
                }
                if i % 2 == 0 {
                    config = config.with_detailed_dram();
                }
                if i % 4 != 0 {
                    config = config.with_mshrs(2 + (i as u32 * 3) % 14);
                }
                if i % 5 == 0 {
                    config = config.with_differential_writes(0.2 + 0.15 * (i % 4) as f64);
                }
                // The replacement policy is a functional knob: shared
                // across the batch like the other tape-shaping flags.
                let mut system = System::new(config)
                    .with_warmup(warmup)
                    .with_replacement(Replacement::ALL[repl_idx]);
                if i % 3 == 1 {
                    system = system.with_endurance_tracking(WearPolicy::RotateXor { period: 500 });
                }
                systems.push(system);
            }
            let tape = systems[0].record(&trace);
            let refs: Vec<&System> = systems.iter().collect();
            let batched = System::replay_batch(&refs, &tape);
            proptest::prop_assert_eq!(batched.len(), systems.len());
            for (system, batched) in systems.iter().zip(&batched) {
                proptest::prop_assert_eq!(batched, &system.replay(&tape));
                proptest::prop_assert_eq!(batched, &system.run(&trace));
            }
        }

        /// Chunk-tail coverage for the batched kernels: the tape lanes
        /// are walked in [`crate::tape::REPLAY_CHUNK_EVENTS`] blocks and
        /// the `SimpleBank` pads its engine set, so the equivalence with
        /// the fused run is pinned exactly at the boundaries — an empty
        /// tape, a single event, one chunk ± one event, and a ragged
        /// multi-chunk tail — across random technology subsets and
        /// thread counts (multi-threaded traces drive the bank's
        /// per-core passes). Warmup is zero so every access is a
        /// replayed event and the counts land on the boundaries
        /// exactly.
        #[test]
        fn replay_batch_matches_at_chunk_boundaries(
            seed in 0u64..1000,
            boundary_idx in 0usize..6,
            subset in 1u32..2048,
            threads in 1u8..5,
        ) {
            use nvm_llc_trace::{Suite, WorkloadProfile};
            const CHUNK: usize = crate::tape::REPLAY_CHUNK_EVENTS;
            let n = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7][boundary_idx];
            let w = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(1 << 12)
                .read_fraction(0.7)
                .threads(threads)
                .build();
            let trace = w.generate(seed, n);
            let models = reference::fixed_capacity();
            let mut systems = Vec::new();
            for (i, model) in models.iter().enumerate() {
                if subset & (1 << i) == 0 {
                    continue;
                }
                // Alternate timing knobs so every tape drives both the
                // banked simple kernel and the per-event fallback.
                let mut config = ArchConfig::gainestown(model.clone());
                if i % 3 == 1 {
                    config = config
                        .with_llc_write_policy(LlcWritePolicy::Blocking)
                        .with_detailed_dram();
                }
                if i % 4 == 2 {
                    config = config.with_mshrs(4);
                }
                systems.push(System::new(config).with_warmup(0.0));
            }
            let tape = systems[0].record(&trace);
            let refs: Vec<&System> = systems.iter().collect();
            let batched = System::replay_batch(&refs, &tape);
            proptest::prop_assert_eq!(batched.len(), systems.len());
            for (system, batched) in systems.iter().zip(&batched) {
                proptest::prop_assert_eq!(batched, &system.replay(&tape));
                proptest::prop_assert_eq!(batched, &system.run(&trace));
            }
        }
    }
}

//! Persistent serialization of simulation artifacts.
//!
//! Bridges the simulator and [`nvm_llc_store`]: derives content
//! addresses for outcome tapes and finished results, and encodes both
//! to the store's bit-exact wire format. Two independent processes
//! evaluating the same trace on the same configuration derive the same
//! keys and bytes, which is what lets a persistent store serve one
//! process's work to the other.
//!
//! ## Key derivation
//!
//! Every key digests three things, in order:
//!
//! 1. a **namespace tag** (`"tape"` or `"result"`), so the two record
//!    kinds can never collide;
//! 2. [`MODEL_VERSION`], bumped whenever the simulator's observable
//!    behavior changes — old records become unreachable rather than
//!    silently wrong (route keys, [`request_key`], name requests rather
//!    than records and keep a fixed version);
//! 3. the artifact's identity payload: the trace's
//!    [id](nvm_llc_trace::Trace::id) plus either the tape key's
//!    functional geometry ([`TapeKey::persist_bytes`]) or the canonical
//!    encoding of the whole system ([`encode_system`]: every timing,
//!    energy, and policy knob, floats by bit pattern).
//!
//! A result is keyed by what was asked, not by what was generated. A
//! generated trace's id is its request's,
//! [`WorkloadProfile::trace_id`](nvm_llc_trace::WorkloadProfile::trace_id)
//! (generator version, profile, seed and length), so a result key is
//! derivable before any trace exists: the evaluator looks every cell up
//! first and generates a trace only for a workload with a cell still to
//! compute. A stored result is read without generating anything.
//!
//! Decoding is strict: version-tagged, length-checked by the store's
//! record header, and rejected on any trailing or missing bytes, so a
//! stale or corrupt payload decodes to `None` and the caller recomputes.

use nvm_llc_cell::units::{Joules, Seconds};
use nvm_llc_cell::MemClass;
use nvm_llc_circuit::{LlcModel, ModelSource};
use nvm_llc_store::wire::{Reader, WireError, Writer};
use nvm_llc_store::Key;
use nvm_llc_trace::Trace;

use crate::config::{ArchConfig, CacheLevelConfig, LlcWritePolicy};
use crate::dram::DramConfig;
use crate::endurance::{EnduranceReport, WearPolicy};
use crate::result::{SimResult, SimStats};
use crate::system::System;
use crate::tape::{OutcomeTape, TapeEvent, TapeKey};
use crate::techniques::WriteMode;

/// Version of the simulator's observable model baked into every store
/// key. Bump it whenever a change alters simulation outputs (timing,
/// energy, endurance, functional behavior, or the wire layout below):
/// records written by older code then miss instead of replaying stale
/// results.
///
/// Version history:
/// * 1 — the original functional/timing split keyspace.
/// * 2 — the replacement-policy subsystem: tape keys carry a six-way
///   policy tag ([`crate::policy::PolicyKind::persist_tag`]) and
///   request keys gained a policy axis, so geometry-only keys from
///   version 1 must never alias a policy-keyed record.
/// * 3 — results key on request identity: a generated trace's id digests
///   its request instead of its events, and the system half of a result
///   key is [`encode_system`] instead of the `Debug` text. Results and
///   payloads are unchanged; version-2 records simply miss. Route keys
///   do not move.
pub const MODEL_VERSION: u32 = 3;

/// The version route keys ([`request_key`]) digest in place of
/// [`MODEL_VERSION`]. A route key names a request, not a simulator
/// output, so a model change need not move any request to another
/// shard: route keys stay where version 2 put them.
const ROUTE_KEY_VERSION: u32 = 2;

/// Digests `tag | version | payload` into a store key.
fn derive_key(tag: &str, version: u32, payload: &[u8]) -> Key {
    let mut w = Writer::new();
    w.str(tag).u32(version).bytes(payload);
    Key::digest(&w.into_bytes())
}

/// Store key of the outcome tape identified by `key`: the functional
/// geometry plus the trace's id ([`TapeKey::persist_bytes`]).
///
/// The evaluator no longer persists tapes; this key and the tape codec
/// below stay for `perf_ledger`'s replica, their one caller.
pub fn tape_store_key(key: &TapeKey) -> Key {
    derive_key("tape", MODEL_VERSION, &key.persist_bytes())
}

/// The canonical encoding of every field of `system`, the system half
/// of a result key: the architecture (both private levels, the LLC
/// model, DRAM), the replacement policy, the warmup fraction and the
/// wear policy, floats by bit pattern and enums by explicit tag.
///
/// Every struct is destructured without `..` and every enum matched
/// without a wildcard, so a new field or variant fails to compile here
/// until it joins the key.
pub fn encode_system(system: &System) -> Vec<u8> {
    let System {
        config,
        replacement,
        warmup_fraction,
        endurance,
    } = system;
    let mut w = Writer::new();
    encode_arch(&mut w, config);
    w.u8(replacement.persist_tag()).f64(*warmup_fraction);
    match endurance {
        None => w.u8(0),
        Some(WearPolicy::None) => w.u8(1),
        Some(WearPolicy::RotateXor { period }) => w.u8(2).u64(*period),
    };
    w.into_bytes()
}

fn encode_arch(w: &mut Writer, config: &ArchConfig) {
    let ArchConfig {
        cores,
        freq_ghz,
        base_cpi,
        rob_entries,
        load_queue,
        store_queue,
        l1d,
        l2,
        llc,
        llc_banks,
        llc_write_policy,
        dram_latency_ns,
        dram_controllers,
        dram_bandwidth_gbs,
        detailed_dram,
        dram_config,
        llc_write_mode,
        llc_bypass,
        l2_prefetch,
        inclusive_llc,
        mshrs,
    } = config;
    w.u32(*cores)
        .f64(*freq_ghz)
        .f64(*base_cpi)
        .u32(*rob_entries)
        .u32(*load_queue)
        .u32(*store_queue);
    encode_level(w, l1d);
    encode_level(w, l2);
    encode_llc(w, llc);
    w.u32(*llc_banks).u8(match llc_write_policy {
        LlcWritePolicy::OffCriticalPath => 0,
        LlcWritePolicy::PortContention => 1,
        LlcWritePolicy::Blocking => 2,
    });
    w.f64(*dram_latency_ns)
        .u32(*dram_controllers)
        .f64(*dram_bandwidth_gbs)
        .bool(*detailed_dram);
    encode_dram(w, dram_config);
    match llc_write_mode {
        WriteMode::Full => w.u8(0),
        WriteMode::Differential { flip_fraction } => w.u8(1).f64(*flip_fraction),
    };
    w.bool(*llc_bypass).bool(*l2_prefetch).bool(*inclusive_llc);
    match mshrs {
        None => w.u8(0),
        Some(mshrs) => w.u8(1).u32(*mshrs),
    };
}

fn encode_level(w: &mut Writer, level: &CacheLevelConfig) {
    let CacheLevelConfig {
        capacity_bytes,
        associativity,
        block_bytes,
        latency_cycles,
    } = level;
    w.u64(*capacity_bytes)
        .u32(*associativity)
        .u32(*block_bytes)
        .u64(*latency_cycles);
}

fn encode_llc(w: &mut Writer, llc: &LlcModel) {
    let LlcModel {
        name,
        class,
        capacity,
        area,
        tag_latency,
        read_latency,
        write_latency_set,
        write_latency_reset,
        hit_energy,
        miss_energy,
        write_energy,
        leakage,
        source,
    } = llc;
    w.str(name)
        .u8(class_to_u8(*class))
        .f64(capacity.value())
        .f64(area.value())
        .f64(tag_latency.value())
        .f64(read_latency.value())
        .f64(write_latency_set.value())
        .f64(write_latency_reset.value())
        .f64(hit_energy.value())
        .f64(miss_energy.value())
        .f64(write_energy.value())
        .f64(leakage.value())
        .u8(match source {
            ModelSource::Generated => 0,
            ModelSource::PaperReference => 1,
        });
}

fn encode_dram(w: &mut Writer, dram: &DramConfig) {
    let DramConfig {
        controllers,
        banks_per_controller,
        row_blocks,
        t_cas_ns,
        t_rcd_ns,
        t_rp_ns,
        transfer_ns,
    } = dram;
    w.u32(*controllers)
        .u32(*banks_per_controller)
        .u32(*row_blocks)
        .f64(*t_cas_ns)
        .f64(*t_rcd_ns)
        .f64(*t_rp_ns)
        .f64(*transfer_ns);
}

/// Store key of the finished [`SimResult`] of running the system whose
/// [`encode_system`] bytes are `system` over the trace `trace_id`
/// identifies. The evaluator encodes each system once per call and
/// keys every cell here, with no trace in hand.
pub fn result_key_encoded(system: &[u8], trace_id: u128) -> Key {
    let mut w = Writer::new();
    w.u128(trace_id).bytes(system);
    derive_key("result", MODEL_VERSION, &w.into_bytes())
}

/// Store key of the finished [`SimResult`] of running `system` over the
/// trace `trace_id` identifies ([`Trace::id`]; for a generated trace,
/// [`WorkloadProfile::trace_id`](nvm_llc_trace::WorkloadProfile::trace_id)).
pub fn result_key(system: &System, trace_id: u128) -> Key {
    result_key_encoded(&encode_system(system), trace_id)
}

/// Store key of the finished [`SimResult`] of running `system` over
/// `trace`: [`result_key`] of the trace's id. A trace from
/// `WorkloadProfile::generate_shared` therefore keys exactly as the
/// evaluator does from the request alone.
pub fn result_store_key(system: &System, trace: &Trace) -> Key {
    result_key(system, trace.id())
}

/// Store-keyspace routing key of one service request, derivable by
/// anything that can see the request line — in particular a router that
/// holds no simulator state. Digests the full request identity
/// (`models` set, workload, optional technology, access count,
/// replacement policy) under its own namespace tag, so the cluster
/// shards the same 128-bit keyspace the persisted artifacts live in:
/// every node and every router derives the same owner for the same
/// request.
pub fn request_key(
    models: &str,
    workload: &str,
    tech: Option<&str>,
    accesses: usize,
    policy: crate::policy::PolicyKind,
) -> Key {
    let mut w = Writer::new();
    w.str(models)
        .str(workload)
        .bool(tech.is_some())
        .str(tech.unwrap_or(""))
        .u64(accesses as u64)
        .u8(policy.persist_tag());
    derive_key("route", ROUTE_KEY_VERSION, &w.into_bytes())
}

fn encode_stats(w: &mut Writer, s: &SimStats) {
    w.u64(s.instructions)
        .u64(s.accesses)
        .u64(s.l1d_hits)
        .u64(s.l1d_misses)
        .u64(s.l2_hits)
        .u64(s.l2_misses)
        .u64(s.llc_hits)
        .u64(s.llc_misses)
        .u64(s.llc_writes)
        .u64(s.llc_fills)
        .u64(s.dram_writebacks)
        .u64(s.llc_port_stall_cycles)
        .u64(s.dram_row_hits)
        .u64(s.dram_row_conflicts)
        .u64(s.dram_queue_cycles)
        .u64(s.llc_bypassed_fills)
        .u64(s.prefetches)
        .u64(s.inclusion_invalidations);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SimStats, WireError> {
    Ok(SimStats {
        instructions: r.u64()?,
        accesses: r.u64()?,
        l1d_hits: r.u64()?,
        l1d_misses: r.u64()?,
        l2_hits: r.u64()?,
        l2_misses: r.u64()?,
        llc_hits: r.u64()?,
        llc_misses: r.u64()?,
        llc_writes: r.u64()?,
        llc_fills: r.u64()?,
        dram_writebacks: r.u64()?,
        llc_port_stall_cycles: r.u64()?,
        dram_row_hits: r.u64()?,
        dram_row_conflicts: r.u64()?,
        dram_queue_cycles: r.u64()?,
        llc_bypassed_fills: r.u64()?,
        prefetches: r.u64()?,
        inclusion_invalidations: r.u64()?,
    })
}

fn class_to_u8(class: MemClass) -> u8 {
    match class {
        MemClass::Sram => 0,
        MemClass::Pcram => 1,
        MemClass::Sttram => 2,
        MemClass::Rram => 3,
    }
}

fn class_from_u8(v: u8) -> Result<MemClass, WireError> {
    match v {
        0 => Ok(MemClass::Sram),
        1 => Ok(MemClass::Pcram),
        2 => Ok(MemClass::Sttram),
        3 => Ok(MemClass::Rram),
        _ => Err(WireError),
    }
}

/// Encodes a finished result for the store. Floats travel as raw bits,
/// so a decoded result is bit-identical to the computed one.
pub fn encode_result(result: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&result.llc_name)
        .f64(result.exec_time.value())
        .f64(result.llc_dynamic_energy.value())
        .f64(result.llc_leakage_energy.value())
        .bool(result.endurance.is_some());
    if let Some(e) = &result.endurance {
        w.u8(class_to_u8(e.class))
            .u64(e.total_writes)
            .u64(e.max_set_writes)
            .f64(e.mean_set_writes)
            .f64(e.worst_cell_write_rate_hz)
            .f64(e.lifetime_years);
    }
    encode_stats(&mut w, &result.stats);
    w.into_bytes()
}

/// Decodes a result payload, or `None` when it does not parse exactly
/// (truncated, malformed, or trailing bytes) — the caller recomputes.
pub fn decode_result(payload: &[u8]) -> Option<SimResult> {
    fn parse(r: &mut Reader<'_>) -> Result<SimResult, WireError> {
        let llc_name = r.str()?.to_owned();
        let exec_time = Seconds::new(r.f64()?);
        let llc_dynamic_energy = Joules::new(r.f64()?);
        let llc_leakage_energy = Joules::new(r.f64()?);
        let endurance = if r.bool()? {
            Some(EnduranceReport {
                class: class_from_u8(r.u8()?)?,
                total_writes: r.u64()?,
                max_set_writes: r.u64()?,
                mean_set_writes: r.f64()?,
                worst_cell_write_rate_hz: r.f64()?,
                lifetime_years: r.f64()?,
            })
        } else {
            None
        };
        let stats = decode_stats(r)?;
        Ok(SimResult {
            llc_name,
            exec_time,
            llc_dynamic_energy,
            llc_leakage_energy,
            endurance,
            stats,
        })
    }
    let mut r = Reader::new(payload);
    let result = parse(&mut r).ok()?;
    r.is_exhausted().then_some(result)
}

/// Appends a block-address stream in its store form: zigzag deltas from
/// the previous address as LEB128 varints, then the address count and
/// the last address. Both side streams are dominated by short hops
/// inside a working set, so an address usually costs one or two bytes
/// instead of eight.
fn encode_blocks(w: &mut Writer, blocks: &[u64]) {
    let mut bytes = Vec::with_capacity(blocks.len() * 2);
    let mut last = 0u64;
    for &block in blocks {
        let delta = block.wrapping_sub(last) as i64;
        last = block;
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            bytes.push((zigzag & 0x7F) as u8 | 0x80);
            zigzag >>= 7;
        }
        bytes.push(zigzag as u8);
    }
    w.bytes(&bytes).u64(blocks.len() as u64).u64(last);
}

/// Reads a stream written by [`encode_blocks`]. Rejects a varint longer
/// than 64 bits, a count the bytes cannot hold, leftover bytes, and a
/// last address that disagrees with the stream.
fn decode_blocks(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let bytes = r.bytes()?;
    let len = usize::try_from(r.u64()?).map_err(|_| WireError)?;
    let last = r.u64()?;
    // Every address takes at least one byte.
    if len > bytes.len() {
        return Err(WireError);
    }
    let mut blocks = Vec::with_capacity(len);
    let (mut pos, mut prev) = (0usize, 0u64);
    for _ in 0..len {
        let (mut zigzag, mut shift) = (0u64, 0u32);
        loop {
            let byte = *bytes.get(pos).ok_or(WireError)?;
            pos += 1;
            if shift > 63 {
                return Err(WireError);
            }
            zigzag |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let delta = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
        prev = prev.wrapping_add(delta as u64);
        blocks.push(prev);
    }
    if pos != bytes.len() || blocks.last().copied().unwrap_or(0) != last {
        return Err(WireError);
    }
    Ok(blocks)
}

/// Bit layout of one packed event record: gap instructions in bits
/// 0–31, the core in bits 32–39, the [`TapeEvent`] flag byte in bits
/// 40–47, and zeros above.
fn pack(event: TapeEvent) -> u64 {
    u64::from(event.gap) | u64::from(event.core) << 32 | u64::from(event.flags) << 40
}

/// Inverse of [`pack`]; `None` when bits above 47 are set.
fn unpack(bits: u64) -> Option<TapeEvent> {
    (bits >> 48 == 0).then_some(TapeEvent {
        gap: bits as u32,
        core: (bits >> 32) as u8,
        flags: (bits >> 40) as u8,
    })
}

/// Encodes an outcome tape for the store: core count, one packed `u64`
/// record per event ([`pack`]), both side streams varint-compressed
/// ([`encode_blocks`]), and the functional counters.
pub fn encode_tape(tape: &OutcomeTape) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(tape.cores()).u64(tape.len() as u64);
    for i in 0..tape.len() {
        w.u64(pack(tape.event(i)));
    }
    encode_blocks(&mut w, tape.wear_blocks());
    encode_blocks(&mut w, tape.dram_blocks());
    encode_stats(&mut w, tape.stats());
    w.into_bytes()
}

/// Decodes a tape payload, or `None` when it does not parse exactly —
/// the caller falls back to re-recording the functional pass.
///
/// Total on arbitrary bytes, and the tape it returns replays without
/// panicking: every record must name a core below the tape's core
/// count, and the side-stream entries the records' flags claim must sum
/// to exactly the decoded stream lengths.
pub fn decode_tape(payload: &[u8]) -> Option<OutcomeTape> {
    fn parse(r: &mut Reader<'_>, max_events: usize) -> Result<OutcomeTape, WireError> {
        let cores = r.u32()?;
        let n = usize::try_from(r.u64()?).map_err(|_| WireError)?;
        if n > max_events {
            return Err(WireError);
        }
        let mut gaps = Vec::with_capacity(n);
        let mut core_lane = Vec::with_capacity(n);
        let mut flags = Vec::with_capacity(n);
        let (mut wear_len, mut dram_len) = (0usize, 0usize);
        for _ in 0..n {
            let event = unpack(r.u64()?).ok_or(WireError)?;
            if u32::from(event.core) >= cores {
                return Err(WireError);
            }
            let (wear, dram) = event.side_counts();
            wear_len += wear;
            dram_len += dram;
            gaps.push(event.gap);
            core_lane.push(event.core);
            flags.push(event.flags);
        }
        let wear_blocks = decode_blocks(r)?;
        let dram_blocks = decode_blocks(r)?;
        if wear_blocks.len() != wear_len || dram_blocks.len() != dram_len {
            return Err(WireError);
        }
        let stats = decode_stats(r)?;
        Ok(OutcomeTape::from_lanes(
            gaps,
            core_lane,
            flags,
            wear_blocks,
            dram_blocks,
            stats,
            cores,
        ))
    }
    let mut r = Reader::new(payload);
    // Each record takes eight bytes, which bounds the lane allocation by
    // the payload size.
    let tape = parse(&mut r, payload.len() / 8).ok()?;
    r.is_exhausted().then_some(tape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_trace::workloads;

    fn sample_system() -> System {
        let llc = nvm_llc_circuit::reference::sram_baseline();
        System::new(ArchConfig::gainestown(llc))
            .with_warmup(0.25)
            .with_endurance_tracking(WearPolicy::None)
    }

    fn sample_trace() -> std::sync::Arc<Trace> {
        workloads::by_name("tonto")
            .unwrap()
            .generate_shared(7, 1_500)
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let system = sample_system();
        let trace = sample_trace();
        let result = system.run(&trace);
        assert!(result.endurance.is_some(), "endurance tracking was on");
        let decoded = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(decoded, result);
        assert_eq!(
            decoded.exec_time.value().to_bits(),
            result.exec_time.value().to_bits(),
        );
    }

    #[test]
    fn result_without_endurance_round_trips() {
        let llc = nvm_llc_circuit::reference::sram_baseline();
        let system = System::new(ArchConfig::gainestown(llc));
        let result = system.run(&sample_trace());
        assert!(result.endurance.is_none());
        assert_eq!(decode_result(&encode_result(&result)).unwrap(), result);
    }

    #[test]
    fn result_decode_rejects_damage() {
        let result = sample_system().run(&sample_trace());
        let bytes = encode_result(&result);
        // Truncation and trailing garbage both fail cleanly.
        assert!(decode_result(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_result(&padded).is_none());
        assert!(decode_result(&[]).is_none());
    }

    #[test]
    fn tape_round_trip_replays_identically() {
        let system = sample_system();
        let trace = sample_trace();
        let tape = system.record(&trace);
        let decoded = decode_tape(&encode_tape(&tape)).unwrap();
        assert_eq!(decoded.cores(), tape.cores());
        assert_eq!(decoded.stats(), tape.stats());
        assert_eq!(decoded.len(), tape.len());
        assert_eq!(decoded.gaps(), tape.gaps());
        assert_eq!(decoded.core_lane(), tape.core_lane());
        assert_eq!(decoded.flags(), tape.flags());
        assert_eq!(decoded.wear_blocks(), tape.wear_blocks());
        assert_eq!(decoded.dram_blocks(), tape.dram_blocks());
        assert_eq!(decoded.present_cores(), tape.present_cores());
        assert_eq!(decoded.bytes(), tape.bytes());
        // The decisive check: replaying the decoded tape reproduces the
        // original run bit for bit.
        assert_eq!(system.replay(&decoded), system.run(&trace));
    }

    /// A tape recorded from a workload's event stream is the tape
    /// recorded from its materialized trace, byte for byte, at every
    /// warmup fraction and under every replacement policy. Both lengths
    /// cross a stream chunk boundary; cg interleaves four threads.
    #[test]
    fn a_streamed_tape_encodes_as_the_materialized_one() {
        use crate::policy::PolicyKind;
        for (name, accesses) in [("tonto", 4_100), ("cg", 1_100)] {
            let w = workloads::by_name(name).unwrap();
            let trace = w.generate(7, accesses);
            for warmup in [0.0, 0.25, 0.5, 0.9] {
                for policy in PolicyKind::ALL {
                    let system = sample_system().with_warmup(warmup).with_replacement(policy);
                    let streamed = system.record_events(w.events(7, accesses));
                    assert_eq!(
                        encode_tape(&streamed),
                        encode_tape(&system.record(&trace)),
                        "{name}, warmup {warmup}, {policy}"
                    );
                }
            }
        }
    }

    #[test]
    fn tape_decode_rejects_damage() {
        let tape = sample_system().record(&sample_trace());
        let bytes = encode_tape(&tape);
        assert!(decode_tape(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_tape(&padded).is_none());
        assert!(decode_tape(&[]).is_none());
    }

    #[test]
    fn packed_records_round_trip_every_field() {
        use crate::tape::Outcome;
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
        for event in events {
            let bits = pack(event);
            assert_eq!(bits as u32, event.gap_instructions());
            assert_eq!((bits >> 32) as u8 as usize, event.core());
            assert_eq!(unpack(bits), Some(event));
        }
        // Bits above the flag byte are never written, so never accepted.
        assert_eq!(unpack(1 << 48), None);
    }

    fn blocks_round_trip(blocks: &[u64]) -> (Vec<u8>, Vec<u64>) {
        let mut w = Writer::new();
        encode_blocks(&mut w, blocks);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_blocks(&mut r).unwrap();
        assert!(r.is_exhausted());
        (bytes, back)
    }

    #[test]
    fn varint_streams_round_trip_adversarial_sequences() {
        let sequences: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX, 0, u64::MAX, 1, u64::MAX - 1],
            &[7, 7, 7, 7],
            &[1 << 63, (1 << 63) - 1, 42, 0, u64::MAX],
        ];
        for seq in sequences {
            assert_eq!(blocks_round_trip(seq).1, seq);
        }
    }

    #[test]
    fn varint_streams_compact_local_streams() {
        // Block addresses hopping inside a working set: deltas fit one or
        // two varint bytes instead of eight.
        let blocks: Vec<u64> = (0..10_000u64)
            .map(|i| (1 << 30) | ((i * 37) % 4096))
            .collect();
        let (bytes, back) = blocks_round_trip(&blocks);
        assert!(bytes.len() * 3 < blocks.len() * 8);
        assert_eq!(back, blocks);
    }

    #[test]
    fn varint_stream_decode_rejects_malformed_streams() {
        let malformed = |bytes: &[u8], len: u64, last: u64| {
            let mut w = Writer::new();
            w.bytes(bytes).u64(len).u64(last);
            let payload = w.into_bytes();
            decode_blocks(&mut Reader::new(&payload)).is_err()
        };
        // An eleven-byte varint overflows 64 bits.
        assert!(malformed(&[0xFF; 11], 1, 0));
        // A count the bytes cannot hold, and a continuation off the end.
        assert!(malformed(&[1], 2, 0));
        assert!(malformed(&[0x81], 1, 0));
        // Leftover bytes, and a last address the stream disagrees with.
        assert!(malformed(&[2, 2], 1, 1));
        assert!(malformed(&[2], 1, 7));
        assert!(!malformed(&[2], 1, 1));
    }

    /// Non-zero XOR masks from splitmix64 at a fixed seed, so any
    /// mutation failure reproduces.
    fn flip_masks(seed: u64) -> impl FnMut() -> u8 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % 255 + 1) as u8
        }
    }

    /// The result tier reads payloads straight off disk, so its decoder
    /// must be total: every strict prefix of a valid payload is `None`,
    /// and every single-byte mutation either fails to decode or decodes
    /// to a result that re-encodes to exactly the mutated bytes (the
    /// wire form is canonical, so nothing is silently misread).
    #[test]
    fn truncated_and_mutated_result_payloads_decode_to_none_or_round_trip() {
        let result = sample_system().run(&sample_trace());
        let valid = encode_result(&result);
        assert_eq!(decode_result(&valid), Some(result));
        for len in 0..valid.len() {
            assert!(decode_result(&valid[..len]).is_none(), "prefix {len}");
        }
        let mut next_byte = flip_masks(0xDEC0DE);
        let mut decoded = 0;
        for i in 0..valid.len() {
            let mut payload = valid.clone();
            payload[i] ^= next_byte();
            if let Some(result) = decode_result(&payload) {
                assert_eq!(encode_result(&result), payload, "byte {i}");
                decoded += 1;
            }
        }
        // Float and counter bytes carry no structure, so most flips
        // still decode.
        assert!(decoded > valid.len() / 2);
    }

    /// Arbitrary store bytes must never panic a worker: every single-byte
    /// mutation of a valid tape either fails to decode or replays through
    /// a batch that mixes every kernel — the simple bank, an endurance
    /// tracker, detailed DRAM with blocking writes, and port contention.
    #[test]
    fn mutated_tape_payloads_decode_to_none_or_replay_cleanly() {
        use crate::config::LlcWritePolicy;
        let trace = workloads::by_name("ft").unwrap().generate(11, 150);
        let config = || {
            ArchConfig::gainestown(nvm_llc_circuit::reference::sram_baseline()).with_l2_prefetch()
        };
        let systems = [
            System::new(config()),
            System::new(config()).with_endurance_tracking(WearPolicy::RotateXor { period: 7 }),
            System::new(
                config()
                    .with_detailed_dram()
                    .with_llc_write_policy(LlcWritePolicy::Blocking),
            ),
            System::new(config().with_llc_write_policy(LlcWritePolicy::PortContention)),
        ];
        let refs: Vec<&System> = systems.iter().collect();
        let valid = encode_tape(&systems[0].record(&trace));
        assert!(valid.len() > 1_000);
        let mut next_byte = flip_masks(0x5EED);
        let mut replayed = 0;
        for i in 0..valid.len() {
            let mut payload = valid.clone();
            payload[i] ^= next_byte();
            // A tape of another core count is rejected by the tape
            // cache's own check before it reaches a replay.
            if let Some(tape) = decode_tape(&payload).filter(|t| t.cores() == 4) {
                assert_eq!(System::replay_batch(&refs, &tape).len(), systems.len());
                replayed += 1;
            }
        }
        // Gap and counter bytes carry no structure, so plenty of
        // mutations still decode and must replay.
        assert!(replayed > 0);
    }

    #[test]
    fn keys_are_content_derived_not_process_local() {
        let system = sample_system();
        // The shared trace and a separately generated copy of the same
        // request: identical persistent keys.
        let a = sample_trace();
        let b = workloads::by_name("tonto").unwrap().generate(7, 1_500);
        assert!(!std::ptr::eq(&*a, &b));
        assert_eq!(
            tape_store_key(&system.tape_key(&a)),
            tape_store_key(&system.tape_key(&b)),
        );
        assert_eq!(result_store_key(&system, &a), result_store_key(&system, &b));
        // Any knob the result depends on moves the result key.
        let warmer = sample_system().with_warmup(0.5);
        assert_ne!(result_store_key(&system, &a), result_store_key(&warmer, &a),);
        // Tape and result namespaces never collide.
        assert_ne!(
            tape_store_key(&system.tape_key(&a)).hex(),
            result_store_key(&system, &a).hex(),
        );
    }

    /// The store key a trace in hand derives ([`result_store_key`], what
    /// `perf_ledger`'s replica calls on a `generate_shared` trace) is the
    /// key the evaluator derives from the request alone, for every
    /// workload, column and policy: each reads the other's records.
    #[test]
    fn a_generated_trace_keys_its_results_as_the_evaluator_does() {
        use crate::policy::PolicyKind;
        use crate::runner::{Evaluator, DEFAULT_SEED};
        let models = nvm_llc_circuit::reference::fixed_capacity();
        let baseline = nvm_llc_circuit::reference::by_name(&models, "SRAM").unwrap();
        let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();
        let all = workloads::all();
        let base = 2_000;
        for evaluator in [
            Evaluator::new(baseline.clone(), nvms.clone()),
            Evaluator::new(baseline.clone(), nvms.clone()).policy(PolicyKind::Endurance),
            Evaluator::new(baseline.clone(), nvms.clone())
                .endurance(WearPolicy::RotateXor { period: 64 }),
        ] {
            let evaluator = evaluator.base_accesses(base);
            let systems = evaluator.systems();
            let keys = evaluator.cell_keys(&all, &systems);
            assert_eq!(keys.len(), all.len() * systems.len());
            let mut keys = keys.iter();
            for w in &all {
                let trace = w.generate_shared(DEFAULT_SEED, w.scaled_accesses(base));
                for system in &systems {
                    let key = keys.next().unwrap();
                    assert_eq!(result_store_key(system, &trace), *key, "{}", w.name());
                }
            }
        }
    }

    /// Every knob of the system encoding reaches the result key.
    #[test]
    fn every_system_knob_moves_the_result_key() {
        use crate::config::LlcWritePolicy;
        use crate::policy::PolicyKind;
        let config = || ArchConfig::gainestown(nvm_llc_circuit::reference::sram_baseline());
        let with_llc = |edit: fn(&mut LlcModel)| {
            let mut config = config();
            edit(&mut config.llc);
            System::new(config)
        };
        let with_dram = |edit: fn(&mut DramConfig)| {
            let mut config = config();
            edit(&mut config.dram_config);
            System::new(config)
        };
        let systems = [
            System::new(config()),
            System::new(config()).with_warmup(0.25),
            System::new(config()).with_replacement(PolicyKind::Srrip),
            System::new(config()).with_endurance_tracking(WearPolicy::None),
            System::new(config()).with_endurance_tracking(WearPolicy::RotateXor { period: 8 }),
            System::new(config()).with_endurance_tracking(WearPolicy::RotateXor { period: 9 }),
            System::new(config().with_cores(2)),
            System::new(config().with_l2_prefetch()),
            System::new(config().with_inclusive_llc()),
            System::new(config().with_llc_bypass()),
            System::new(config().with_detailed_dram()),
            System::new(config().with_mshrs(10)),
            System::new(config().with_differential_writes(0.5)),
            System::new(config().with_differential_writes(0.25)),
            System::new(config().with_llc_write_policy(LlcWritePolicy::Blocking)),
            System::new(config().with_llc_write_policy(LlcWritePolicy::PortContention)),
            System::new(ArchConfig {
                freq_ghz: 3.0,
                ..config()
            }),
            System::new(ArchConfig {
                l2: CacheLevelConfig {
                    latency_cycles: 9,
                    ..config().l2
                },
                ..config()
            }),
            with_llc(|llc| llc.name.push('x')),
            with_llc(|llc| llc.leakage = llc.leakage * 2.0),
            with_llc(|llc| llc.source = ModelSource::Generated),
            with_dram(|dram| dram.t_rp_ns += 1.0),
            with_dram(|dram| dram.row_blocks += 1),
        ];
        let keys: Vec<Key> = systems.iter().map(|s| result_key(s, 7)).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "systems {i} and {j} share a key");
            }
        }
        // The trace id is the other half.
        assert_ne!(result_key(&systems[0], 7), result_key(&systems[0], 8));
    }

    #[test]
    fn request_keys_separate_every_identity_axis() {
        use crate::policy::PolicyKind;
        let base = request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru);
        assert_eq!(
            base,
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru),
            "same request, same key, any process"
        );
        for other in [
            request_key("fixed_area", "tonto", None, 20_000, PolicyKind::Lru),
            request_key("fixed_capacity", "x264", None, 20_000, PolicyKind::Lru),
            request_key(
                "fixed_capacity",
                "tonto",
                Some("Jan"),
                20_000,
                PolicyKind::Lru,
            ),
            request_key("fixed_capacity", "tonto", None, 40_000, PolicyKind::Lru),
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Srrip),
        ] {
            assert_ne!(base, other);
        }
        // Every policy routes to its own key.
        let keys: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|&p| request_key("fixed_capacity", "tonto", None, 20_000, p))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A row and a cell whose tech string is empty stay distinct.
        assert_ne!(
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru),
            request_key("fixed_capacity", "tonto", Some(""), 20_000, PolicyKind::Lru),
        );
    }

    /// Golden-key regression pin: the persistent key derivation for one
    /// fixed (trace, system, policy) triple, frozen at `MODEL_VERSION`
    /// 3. If any of these hex digests move, either the key derivation
    /// changed by accident (fix the code) or the observable model
    /// changed on purpose (bump `MODEL_VERSION` and re-pin here).
    #[test]
    fn golden_keys_pin_model_version_3_derivation() {
        use crate::policy::PolicyKind;
        let trace = sample_trace();
        let system = sample_system().with_replacement(PolicyKind::Srrip);
        let tape_key = tape_store_key(&system.tape_key(&trace)).hex();
        let result_key = result_store_key(&system, &trace).hex();
        let route_key = request_key(
            "fixed_capacity",
            "tonto",
            Some("Jan"),
            1_500,
            PolicyKind::Srrip,
        )
        .hex();
        let got = format!("tape={tape_key} result={result_key} route={route_key}");
        let want = "tape=44aec2b3bca7a4c5cc1b7a3b1fff53fe \
                    result=962341361558bd4f71ba0993373ada31 \
                    route=0b7521ed755edbaa163a8b8fcbe26ef7";
        assert_eq!(got, want, "persistent key derivation moved");
    }

    /// Golden-payload regression pin: the store bytes of one fixed tape
    /// and one fixed result, frozen at `MODEL_VERSION` 2. The tape is
    /// recorded twice — the golden-key sample and a four-thread,
    /// prefetching one, so every side-event flag and several cores reach
    /// the wire. Stores written by earlier builds read back only while
    /// these digests hold.
    #[test]
    fn golden_payloads_pin_model_version_2_wire_format() {
        use crate::policy::PolicyKind;
        let trace = sample_trace();
        let system = sample_system().with_replacement(PolicyKind::Srrip);
        let tape = system.record(&trace);
        let threaded = workloads::by_name("ft").unwrap().generate(7, 600);
        let prefetching = System::new(
            ArchConfig::gainestown(nvm_llc_circuit::reference::sram_baseline()).with_l2_prefetch(),
        )
        .with_warmup(0.25);
        let digest = |bytes: &[u8]| format!("{:016x}", nvm_llc_store::fnv1a64(bytes));
        let got = format!(
            "tape={} threaded_tape={} result={}",
            digest(&encode_tape(&tape)),
            digest(&encode_tape(&prefetching.record(&threaded))),
            digest(&encode_result(&system.replay(&tape))),
        );
        let want = "tape=90c7f9832afd8800 \
                    threaded_tape=b0771a32aa586843 \
                    result=05afe9d1b810e006";
        assert_eq!(got, want, "persistent payload format moved");
    }
}

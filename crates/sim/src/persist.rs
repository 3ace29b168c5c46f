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
//!    silently wrong;
//! 3. the artifact's identity payload: the trace's
//!    [content hash](nvm_llc_trace::Trace::content_hash) plus either
//!    the tape key's functional geometry ([`TapeKey::persist_bytes`])
//!    or the full system fingerprint (every timing, energy, and policy
//!    knob).
//!
//! Decoding is strict: version-tagged, length-checked by the store's
//! record header, and rejected on any trailing or missing bytes, so a
//! stale or corrupt payload decodes to `None` and the caller recomputes.

use nvm_llc_cell::units::{Joules, Seconds};
use nvm_llc_cell::MemClass;
use nvm_llc_store::wire::{Reader, WireError, Writer};
use nvm_llc_store::Key;
use nvm_llc_trace::Trace;

use crate::endurance::EnduranceReport;
use crate::result::{SimResult, SimStats};
use crate::system::System;
use crate::tape::{OutcomeTape, TapeEvent, TapeKey};

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
pub const MODEL_VERSION: u32 = 2;

/// Digests `tag | MODEL_VERSION | payload` into a store key.
fn derive_key(tag: &str, payload: &[u8]) -> Key {
    let mut w = Writer::new();
    w.str(tag).u32(MODEL_VERSION).bytes(payload);
    Key::digest(&w.into_bytes())
}

/// Store key of the outcome tape identified by `key`: the functional
/// geometry plus the trace's content hash ([`TapeKey::persist_bytes`]).
pub fn tape_store_key(key: &TapeKey) -> Key {
    derive_key("tape", &key.persist_bytes())
}

/// Store key of the finished [`SimResult`] of running `system` over
/// `trace`.
///
/// The system half of the identity is its `Debug` rendering: `System`
/// is plain data (architecture configuration, replacement policy,
/// warmup fraction, endurance policy), so equal fingerprints mean equal
/// observable behavior. Shortest-round-trip float formatting keeps the
/// rendering injective on every `f64` knob; a formatting change across
/// toolchains would only cause spurious misses, never false hits, and
/// [`MODEL_VERSION`] guards deliberate model changes.
pub fn result_store_key(system: &System, trace: &Trace) -> Key {
    let mut w = Writer::new();
    w.u128(trace.content_hash()).str(&format!("{system:?}"));
    derive_key("result", &w.into_bytes())
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
    derive_key("route", &w.into_bytes())
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
    use crate::config::ArchConfig;
    use crate::endurance::WearPolicy;
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
        // splitmix64: a fixed seed, so any failure reproduces.
        let mut state = 0x5EED_u64;
        let mut next_byte = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % 255 + 1) as u8
        };
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
        // Two separately built traces with identical events: identical
        // persistent keys.
        let a = sample_trace();
        let b = workloads::by_name("tonto")
            .unwrap()
            .generate_shared(7, 1_500);
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
    /// 2. If any of these hex digests move, either the key derivation
    /// changed by accident (fix the code) or the observable model
    /// changed on purpose (bump `MODEL_VERSION` and re-pin here).
    #[test]
    fn golden_keys_pin_model_version_2_derivation() {
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
        let want = "tape=2e88fb236a4a19145fad3dabf603175f \
                    result=dab4d6cc8671889ee5ce0488db612df7 \
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

//! Workload profiles: parameterized synthetic generators.
//!
//! The paper drives its simulations with SPEC cpu2006/cpu2017, PARSEC 3.0,
//! and NPB 3.3.1 binaries. Those are licensed artifacts we cannot ship, so
//! each workload is replaced by a seeded synthetic generator whose
//! parameters are calibrated against the paper's own published
//! characterization: LLC mpki (Table V) and the architecture-agnostic
//! memory features (Table VI). The generator mixes three access regimes —
//! a Zipf-skewed hot set, sequential streaming, and uniform references
//! over the full footprint — with separately-sized read and write
//! footprints so read/write entropy can diverge the way Table VI shows.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::{AccessKind, Fnv128, Trace, TraceEvent, BLOCK_BYTES, REQUEST_DOMAIN};
use crate::suite::Suite;
use crate::zipf::Zipf;

/// Version of the trace generator, digested into every generated
/// trace's id ([`WorkloadProfile::trace_id`]). Bump it whenever a change
/// moves the events any `(profile, seed, length)` generates: results
/// stored under the old ids then miss instead of answering for traces
/// the generator no longer produces. A golden test pins every profile's
/// events, and its failure message asks for this bump.
pub const GENERATOR_VERSION: u32 = 1;

/// Base virtual address for generated regions (an arbitrary, page-aligned
/// location well above null).
const REGION_BASE: u64 = 0x1000_0000;

/// A parameterized synthetic workload.
///
/// Construct via [`WorkloadProfile::builder`]; the 20 paper workloads live
/// in [`crate::workloads`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    name: String,
    suite: Suite,
    description: String,
    threads: u8,
    mem_ratio: f64,
    read_fraction: f64,
    footprint_blocks: u64,
    hot_fraction: f64,
    hot_probability: f64,
    zipf_alpha: f64,
    stream_fraction: f64,
    write_footprint_fraction: f64,
    shared_fraction: f64,
    relative_volume: f64,
    stream_dwell: u32,
    paper_mpki: f64,
}

impl WorkloadProfile {
    /// Starts building a profile.
    pub fn builder(name: impl Into<String>, suite: Suite) -> WorkloadProfileBuilder {
        WorkloadProfileBuilder {
            inner: WorkloadProfile {
                name: name.into(),
                suite,
                description: String::new(),
                threads: 1,
                mem_ratio: 0.35,
                read_fraction: 0.7,
                footprint_blocks: 64 * 1024,
                hot_fraction: 0.2,
                hot_probability: 0.6,
                zipf_alpha: 0.8,
                stream_fraction: 0.2,
                write_footprint_fraction: 1.0,
                shared_fraction: 0.25,
                relative_volume: 1.0,
                stream_dwell: 8,
                paper_mpki: 0.0,
            },
        }
    }

    /// Workload name as the paper prints it (e.g. `"deepsjeng"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Originating benchmark suite.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// One-line description (Table V's description column).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Thread count (1 for the single-threaded suites, 4 for the
    /// multi-threaded ones on the quad-core Gainestown).
    pub fn threads(&self) -> u8 {
        self.threads
    }

    /// Whether this is a multi-threaded workload.
    pub fn is_multithreaded(&self) -> bool {
        self.threads > 1
    }

    /// Whether this is an AI/statistical-inference workload: the paper's
    /// cpu2017 trio or the deep-learning extension suite.
    pub fn is_ai(&self) -> bool {
        matches!(self.suite, Suite::Cpu2017 | Suite::Fathom)
    }

    /// The LLC mpki the paper reports for this workload (Table V).
    pub fn paper_mpki(&self) -> f64 {
        self.paper_mpki
    }

    /// Relative access volume: a multiplier experiment runners apply to
    /// their base trace length. Table VI shows exchange2/x264/lu executing
    /// an order of magnitude more accesses than the median workload; this
    /// knob reproduces that total-volume asymmetry without forcing every
    /// workload to the largest trace.
    pub fn relative_volume(&self) -> f64 {
        self.relative_volume
    }

    /// Converts a base *total* access budget into this workload's
    /// per-thread trace length: scaled by the relative volume and divided
    /// across threads (a parallel program splits its work, it does not
    /// multiply it — Table VI's totals for the multi-threaded NPB
    /// workloads sit below the single-threaded outliers).
    pub fn scaled_accesses(&self, base: usize) -> usize {
        (((base as f64) * self.relative_volume / f64::from(self.threads.max(1))).round() as usize)
            .max(1)
    }

    /// Returns a copy of this profile running with a different thread
    /// count (all other behaviour parameters preserved). The total
    /// problem stays fixed — strong scaling.
    pub fn with_threads(&self, threads: u8) -> WorkloadProfile {
        let mut p = self.clone();
        p.threads = threads.max(1);
        p
    }

    /// Returns a copy with a different thread count under *weak scaling*:
    /// each thread keeps its per-thread working set and access volume, so
    /// the total footprint and work grow with the thread count. This is
    /// the regime of the paper's Section V-C core sweep, where "capacity
    /// is an increasing strain on the systems as cores increase".
    pub fn with_threads_weak_scaling(&self, threads: u8) -> WorkloadProfile {
        let threads = threads.max(1);
        let factor = f64::from(threads) / f64::from(self.threads.max(1));
        let mut p = self.clone();
        p.threads = threads;
        p.footprint_blocks = ((p.footprint_blocks as f64 * factor) as u64).max(1);
        p.relative_volume *= factor;
        p
    }

    /// Total unique 64 B blocks the generator can touch.
    pub fn footprint_blocks(&self) -> u64 {
        self.footprint_blocks
    }

    /// Fraction of instructions that access memory.
    pub fn mem_ratio(&self) -> f64 {
        self.mem_ratio
    }

    /// Fraction of memory accesses that are reads.
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// Streaming dwell: consecutive streaming accesses spent inside one
    /// 64 B block before advancing. Higher dwell = more spatial reuse per
    /// block (GemsFDTD-style long bursts), lower = pointer-walk-like.
    pub fn stream_dwell(&self) -> u32 {
        self.stream_dwell
    }

    /// Generates an interleaved trace with `accesses_per_thread` events
    /// per thread, deterministically from `seed`.
    ///
    /// The same `(profile, seed, length)` triple always yields the same
    /// trace, which keeps every experiment in the repository reproducible.
    /// The trace's [id](Trace::id) is the request's,
    /// [`WorkloadProfile::trace_id`]; the events are not hashed.
    pub fn generate(&self, seed: u64, accesses_per_thread: usize) -> Trace {
        let threads = self.threads.max(1);
        let mut lanes: Vec<Vec<TraceEvent>> = Vec::with_capacity(usize::from(threads));
        for tid in 0..threads {
            lanes.push(self.generate_thread(seed, tid, accesses_per_thread));
        }
        // Round-robin interleave, the arrival order a symmetric multicore
        // would roughly produce.
        let mut events = Vec::with_capacity(accesses_per_thread * usize::from(threads));
        for i in 0..accesses_per_thread {
            for lane in &lanes {
                events.push(lane[i]);
            }
        }
        Trace::with_id(events, threads, self.trace_id(seed, accesses_per_thread))
    }

    /// The [id](Trace::id) of `self.generate(seed, accesses_per_thread)`,
    /// derived without generating it: a digest of [`GENERATOR_VERSION`]
    /// and the exact bytes the trace cache keys on (every profile field,
    /// f64s by bit pattern, then the seed and length). A result keyed on
    /// it can be looked up before, and instead of, generating its trace.
    pub fn trace_id(&self, seed: u64, accesses_per_thread: usize) -> u128 {
        let mut hash = Fnv128::new(REQUEST_DOMAIN);
        hash.bytes(&GENERATOR_VERSION.to_le_bytes());
        hash.bytes(&self.cache_key(seed, accesses_per_thread));
        hash.finish()
    }

    /// The exact identity of `self.generate(seed, accesses_per_thread)`:
    /// every field (strings length-prefixed, f64s by bit pattern), then
    /// the seed and length. Equal bytes mean equal profiles, so the
    /// trace cache keys on it and weak-scaling copies that keep their
    /// name never alias.
    pub(crate) fn cache_key(&self, seed: u64, accesses_per_thread: usize) -> Vec<u8> {
        // Destructured without `..`: a new field fails to compile here
        // until it joins the key.
        let WorkloadProfile {
            name,
            suite,
            description,
            threads,
            mem_ratio,
            read_fraction,
            footprint_blocks,
            hot_fraction,
            hot_probability,
            zipf_alpha,
            stream_fraction,
            write_footprint_fraction,
            shared_fraction,
            relative_volume,
            stream_dwell,
            paper_mpki,
        } = self;
        let mut key = Vec::with_capacity(160 + name.len() + description.len());
        for text in [name, description] {
            key.extend_from_slice(&(text.len() as u64).to_le_bytes());
            key.extend_from_slice(text.as_bytes());
        }
        key.extend_from_slice(&[*suite as u8, *threads]);
        let words = [
            mem_ratio.to_bits(),
            read_fraction.to_bits(),
            *footprint_blocks,
            hot_fraction.to_bits(),
            hot_probability.to_bits(),
            zipf_alpha.to_bits(),
            stream_fraction.to_bits(),
            write_footprint_fraction.to_bits(),
            shared_fraction.to_bits(),
            relative_volume.to_bits(),
            u64::from(*stream_dwell),
            paper_mpki.to_bits(),
            seed,
            accesses_per_thread as u64,
        ];
        for word in words {
            key.extend_from_slice(&word.to_le_bytes());
        }
        key
    }

    /// Like [`WorkloadProfile::generate`], but memoized through the
    /// process-wide [`crate::cache`]: the first call generates, later
    /// calls with the same `(profile, seed, length)` return a
    /// pointer-equal `Arc` to the same immutable trace. Experiment
    /// runners use this so e.g. fig1, fig4, and the selection study
    /// replay one shared copy of each trace.
    pub fn generate_shared(&self, seed: u64, accesses_per_thread: usize) -> std::sync::Arc<Trace> {
        crate::cache::fetch(self, seed, accesses_per_thread)
    }

    fn generate_thread(&self, seed: u64, tid: u8, count: usize) -> Vec<TraceEvent> {
        let mut rng = SmallRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(tid) + 1),
        );
        let layout = RegionLayout::new(self, tid);
        let hot_blocks = ((layout.private_blocks as f64 * self.hot_fraction) as u64).max(1);
        let zipf = Zipf::new(hot_blocks, self.zipf_alpha);
        let mean_gap = (1.0 / self.mem_ratio - 1.0).max(0.0);
        let mut stream_cursor: u64 = rng.random_range(0..layout.private_blocks.max(1));
        let dwell = u64::from(self.stream_dwell.max(1));
        let mut stream_pos: u64 = 0;

        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = if rng.random::<f64>() < self.read_fraction {
                AccessKind::Read
            } else {
                AccessKind::Write
            };

            // Pick a block in region-local coordinates.
            let r: f64 = rng.random();
            let (region_private, block_in_region) = if r < self.stream_fraction {
                // Sequential streaming: dwell inside the block for
                // `stream_dwell` word-step accesses, then advance.
                stream_pos += 1;
                if stream_pos >= dwell {
                    stream_pos = 0;
                    stream_cursor = (stream_cursor + 1) % layout.private_blocks.max(1);
                }
                (true, stream_cursor)
            } else if rng.random::<f64>() < self.hot_probability {
                (self.pick_private(&mut rng, &layout), zipf.sample(&mut rng))
            } else {
                let region = self.pick_private(&mut rng, &layout);
                let span = if region {
                    layout.private_blocks
                } else {
                    layout.shared_blocks
                };
                (region, rng.random_range(0..span.max(1)))
            };

            // Writes are folded into the (often smaller) write footprint,
            // which is what separates write entropy/footprint from read
            // entropy/footprint in Table VI.
            let block_in_region = if kind.is_write() {
                let span = if region_private {
                    layout.private_blocks
                } else {
                    layout.shared_blocks
                };
                let wspan = ((span as f64 * self.write_footprint_fraction) as u64).max(1);
                block_in_region % wspan
            } else {
                block_in_region
            };

            let block = if region_private {
                layout.private_base + block_in_region
            } else {
                layout.shared_base + block_in_region
            };
            let offset = u64::from(rng.random_range(0..8u8)) * 8;
            let addr = REGION_BASE
                + block * BLOCK_BYTES
                + if r < self.stream_fraction {
                    (stream_pos * 8) % BLOCK_BYTES
                } else {
                    offset
                };

            let gap = sample_geometric(&mut rng, mean_gap);
            out.push(TraceEvent {
                tid,
                addr,
                kind,
                gap_instructions: gap,
            });
        }
        out
    }

    /// Whether a non-streaming access lands in this thread's private
    /// region (vs the shared region). Single-threaded workloads are all
    /// private.
    fn pick_private(&self, rng: &mut SmallRng, layout: &RegionLayout) -> bool {
        layout.shared_blocks == 0 || rng.random::<f64>() >= self.shared_fraction
    }
}

/// Block-granular memory layout: `[shared | t0 | t1 | ...]`.
#[derive(Debug, Clone, Copy)]
struct RegionLayout {
    shared_base: u64,
    shared_blocks: u64,
    private_base: u64,
    private_blocks: u64,
}

impl RegionLayout {
    fn new(profile: &WorkloadProfile, tid: u8) -> Self {
        let threads = u64::from(profile.threads.max(1));
        let shared_blocks = if threads > 1 {
            (profile.footprint_blocks as f64 * profile.shared_fraction) as u64
        } else {
            0
        };
        let private_blocks = ((profile.footprint_blocks - shared_blocks) / threads).max(1);
        RegionLayout {
            shared_base: 0,
            shared_blocks,
            private_base: shared_blocks + u64::from(tid) * private_blocks,
            private_blocks,
        }
    }
}

/// Geometric-ish gap sampler with the given mean, via the exponential
/// inverse CDF.
fn sample_geometric(rng: &mut SmallRng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let u: f64 = rng.random::<f64>().max(1e-12);
    // Round (not floor) so the sampled mean tracks `mean` instead of
    // undershooting by ~0.5 instructions per access.
    (-mean * u.ln()).min(10_000.0).round() as u32
}

/// Builder for [`WorkloadProfile`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    inner: WorkloadProfile,
}

macro_rules! profile_setter {
    ($(#[$meta:meta])* $name:ident, $ty:ty) => {
        $(#[$meta])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.inner.$name = value;
            self
        }
    };
}

impl WorkloadProfileBuilder {
    profile_setter!(
        /// Sets the thread count.
        threads,
        u8
    );
    profile_setter!(
        /// Sets the fraction of instructions that access memory.
        mem_ratio,
        f64
    );
    profile_setter!(
        /// Sets the fraction of memory accesses that are reads.
        read_fraction,
        f64
    );
    profile_setter!(
        /// Sets the total unique 64 B blocks.
        footprint_blocks,
        u64
    );
    profile_setter!(
        /// Sets the hot-set size as a fraction of the footprint.
        hot_fraction,
        f64
    );
    profile_setter!(
        /// Sets the probability a non-streaming access hits the hot set.
        hot_probability,
        f64
    );
    profile_setter!(
        /// Sets the Zipf skew within the hot set.
        zipf_alpha,
        f64
    );
    profile_setter!(
        /// Sets the fraction of sequential streaming accesses.
        stream_fraction,
        f64
    );
    profile_setter!(
        /// Sets the write footprint as a fraction of the read footprint.
        write_footprint_fraction,
        f64
    );
    profile_setter!(
        /// Sets the multi-threaded shared-region fraction.
        shared_fraction,
        f64
    );
    profile_setter!(
        /// Records the paper's Table V LLC mpki for this workload.
        paper_mpki,
        f64
    );
    profile_setter!(
        /// Sets the relative access volume multiplier (default 1.0).
        relative_volume,
        f64
    );
    profile_setter!(
        /// Sets the streaming dwell in accesses per block (default 8).
        stream_dwell,
        u32
    );

    /// Sets the description line.
    pub fn description(mut self, text: impl Into<String>) -> Self {
        self.inner.description = text.into();
        self
    }

    /// Finalizes the profile.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]` or the footprint is
    /// zero — profiles are compiled-in data, so this is a programming
    /// error, not an input error.
    pub fn build(self) -> WorkloadProfile {
        let p = self.inner;
        for (what, v) in [
            ("mem_ratio", p.mem_ratio),
            ("read_fraction", p.read_fraction),
            ("hot_fraction", p.hot_fraction),
            ("hot_probability", p.hot_probability),
            ("stream_fraction", p.stream_fraction),
            ("write_footprint_fraction", p.write_footprint_fraction),
            ("shared_fraction", p.shared_fraction),
        ] {
            assert!((0.0..=1.0).contains(&v), "{what} out of [0,1]: {v}");
        }
        assert!(p.mem_ratio > 0.0, "mem_ratio must be positive");
        assert!(
            p.relative_volume > 0.0 && p.relative_volume.is_finite(),
            "relative_volume must be positive"
        );
        assert!(p.footprint_blocks > 0, "footprint must be non-empty");
        assert!(p.threads > 0, "threads must be positive");
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> WorkloadProfile {
        WorkloadProfile::builder("demo", Suite::Cpu2006)
            .footprint_blocks(4096)
            .read_fraction(0.75)
            .mem_ratio(0.4)
            .paper_mpki(10.0)
            .build()
    }

    #[test]
    fn generation_is_deterministic() {
        let p = demo();
        let a = p.generate(7, 5_000);
        let b = p.generate(7, 5_000);
        assert_eq!(a.events(), b.events());
        let c = p.generate(8, 5_000);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn a_generated_trace_carries_its_request_id() {
        let p = demo();
        let trace = p.generate(7, 500);
        assert_eq!(trace.id(), p.trace_id(7, 500));
        assert_eq!(trace.id(), p.generate(7, 500).id());
        // Every axis of the request moves the id.
        for other in [
            p.trace_id(8, 500),
            p.trace_id(7, 501),
            p.with_threads(2).trace_id(7, 500),
        ] {
            assert_ne!(trace.id(), other);
        }
        // The same events built by hand digest under the events domain,
        // so the two kinds of id never meet.
        let rebuilt = Trace::new(trace.events().to_vec(), trace.threads());
        assert_eq!(rebuilt.events(), trace.events());
        assert_ne!(rebuilt.id(), trace.id());
    }

    #[test]
    fn read_fraction_is_respected() {
        let t = demo().generate(1, 50_000);
        let rf = t.reads() as f64 / t.len() as f64;
        assert!((rf - 0.75).abs() < 0.02, "{rf}");
    }

    #[test]
    fn mem_ratio_shapes_instruction_gaps() {
        let t = demo().generate(1, 50_000);
        let ratio = t.len() as f64 / t.total_instructions() as f64;
        assert!((ratio - 0.4).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let p = demo();
        let t = p.generate(3, 20_000);
        let max_block = REGION_BASE / BLOCK_BYTES + p.footprint_blocks();
        for e in &t {
            assert!(e.block() >= REGION_BASE / BLOCK_BYTES);
            assert!(e.block() < max_block, "block {} out of range", e.block());
        }
    }

    #[test]
    fn multithreaded_traces_interleave_all_threads() {
        let p = WorkloadProfile::builder("mt", Suite::Npb)
            .threads(4)
            .footprint_blocks(8192)
            .build();
        let t = p.generate(1, 1_000);
        assert_eq!(t.len(), 4_000);
        for tid in 0..4 {
            assert_eq!(t.thread_events(tid).count(), 1_000);
        }
        // Threads mostly work in disjoint private regions but share some
        // blocks.
        let blocks = |tid: u8| {
            t.thread_events(tid)
                .map(|e| e.block())
                .collect::<std::collections::HashSet<_>>()
        };
        let b0 = blocks(0);
        let b1 = blocks(1);
        assert!(b0.intersection(&b1).count() > 0, "no sharing");
        assert!(b0.symmetric_difference(&b1).count() > 0, "fully shared");
    }

    #[test]
    fn smaller_write_footprint_confines_writes() {
        let p = WorkloadProfile::builder("wf", Suite::Cpu2017)
            .footprint_blocks(10_000)
            .write_footprint_fraction(0.05)
            .read_fraction(0.5)
            .hot_probability(0.0)
            .stream_fraction(0.0)
            .build();
        let t = p.generate(5, 40_000);
        let base = REGION_BASE / BLOCK_BYTES;
        let unique = |k: AccessKind| {
            t.iter()
                .filter(|e| e.kind == k)
                .map(|e| e.block() - base)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let wu = unique(AccessKind::Write);
        let ru = unique(AccessKind::Read);
        assert!(wu * 4 < ru, "writes {wu} vs reads {ru}");
    }

    #[test]
    fn streaming_workload_walks_sequentially() {
        let p = WorkloadProfile::builder("stream", Suite::Npb)
            .footprint_blocks(100_000)
            .stream_fraction(1.0)
            .build();
        let t = p.generate(1, 1_000);
        // Consecutive accesses advance by 8 bytes or move to next block.
        let mut sequential = 0;
        for w in t.events().windows(2) {
            let d = w[1].addr.wrapping_sub(w[0].addr);
            if d == 8 || d == 8 + 56 {
                sequential += 1;
            }
        }
        assert!(sequential > 900, "{sequential}");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn builder_rejects_bad_fractions() {
        let _ = WorkloadProfile::builder("bad", Suite::Cpu2006)
            .read_fraction(1.5)
            .build();
    }

    #[test]
    fn ai_detection_follows_suite() {
        let p = WorkloadProfile::builder("x", Suite::Cpu2017).build();
        assert!(p.is_ai());
        assert!(!demo().is_ai());
    }
}

//! # nvm-llc-trace — memory traces and synthetic workloads
//!
//! The workload layer of the paper reproduction. The paper runs SPEC
//! cpu2006/cpu2017, PARSEC 3.0, and NPB 3.3.1 under Sniper; those binaries
//! and their Pin-captured traces are licensed artifacts, so this crate
//! substitutes seeded synthetic generators calibrated per-workload against
//! the paper's published characterization (Table V mpki, Table VI memory
//! features). See DESIGN.md §2 for the substitution argument.
//!
//! ```
//! use nvm_llc_trace::workloads;
//!
//! let deepsjeng = workloads::by_name("deepsjeng").expect("table 5 workload");
//! let trace = deepsjeng.generate(42, 10_000);
//! assert_eq!(trace.len(), 10_000);
//! assert!(trace.reads() > trace.writes()); // 68% reads
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod cache;
pub mod io;
pub mod profile;
pub mod suite;
pub mod workloads;
pub mod zipf;

pub use access::{AccessKind, Trace, TraceEvent, BLOCK_BYTES};
pub use profile::{WorkloadProfile, WorkloadProfileBuilder, GENERATOR_VERSION};
pub use suite::Suite;

#[cfg(test)]
mod proptests {
    use crate::profile::WorkloadProfile;
    use crate::suite::Suite;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any valid profile generates in-range, deterministic traces.
        #[test]
        fn generator_is_total_and_deterministic(
            footprint in 1024u64..1_000_000,
            rf in 0.05f64..0.95,
            hot in 0.001f64..0.9,
            hp in 0.0f64..1.0,
            alpha in 0.0f64..1.5,
            stream in 0.0f64..1.0,
            wfp in 0.01f64..1.0,
            threads in 1u8..5,
            seed in 0u64..1000,
        ) {
            let p = WorkloadProfile::builder("prop", Suite::Npb)
                .footprint_blocks(footprint)
                .read_fraction(rf)
                .hot_fraction(hot)
                .hot_probability(hp)
                .zipf_alpha(alpha)
                .stream_fraction(stream)
                .write_footprint_fraction(wfp)
                .threads(threads)
                .build();
            let a = p.generate(seed, 200);
            let b = p.generate(seed, 200);
            prop_assert_eq!(a.events(), b.events());
            prop_assert_eq!(a.len(), 200 * usize::from(threads));
            prop_assert_eq!(a.reads() + a.writes(), a.len() as u64);
            prop_assert!(a.total_instructions() >= a.len() as u64);
        }

        /// Zipf sampling never leaves its range for arbitrary parameters.
        #[test]
        fn zipf_in_range(n in 1u64..100_000, alpha in 0.0f64..3.0, seed in 0u64..100) {
            use rand::{rngs::SmallRng, SeedableRng};
            let z = crate::zipf::Zipf::new(n, alpha);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }
    }
}

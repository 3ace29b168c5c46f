//! The paper's 20 workloads (Table V) as calibrated synthetic profiles.
//!
//! Each profile's generator parameters are set from the paper's published
//! characterization: read/write mix and footprint shape from Table VI,
//! LLC pressure from Table V's mpki column (footprints are scaled to keep
//! traces laptop-tractable while preserving their relation to the 2 MB
//! LLC — what matters is which side of the capacity boundary a working
//! set falls on, and by how much).

use crate::profile::WorkloadProfile;
use crate::suite::Suite;

/// Number of threads the multi-threaded suites run with (one per core on
/// the quad-core Gainestown, Table IV).
pub const MT_THREADS: u8 = 4;

fn p(name: &str, suite: Suite) -> crate::profile::WorkloadProfileBuilder {
    WorkloadProfile::builder(name, suite)
}

/// bzip2 — compression/decompression, s.t. (mpki 142.69).
pub fn bzip2() -> WorkloadProfile {
    p("bzip2", Suite::Cpu2006)
        .description("Compression/Decompression, s.t.")
        .paper_mpki(142.69)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.5)
        .hot_probability(0.55)
        .zipf_alpha(0.7)
        .stream_fraction(0.1)
        .write_footprint_fraction(0.3)
        .read_fraction(0.745)
        .mem_ratio(0.42)
        .relative_volume(1.0)
        .build()
}

/// gamess — quantum chemistry computations, s.t. (mpki 12.83).
pub fn gamess() -> WorkloadProfile {
    p("gamess", Suite::Cpu2006)
        .description("Quantum computations, s.t.")
        .paper_mpki(12.83)
        .footprint_blocks(3 << 14)
        .hot_fraction(0.15)
        .hot_probability(0.88)
        .zipf_alpha(0.8)
        .stream_fraction(0.05)
        .write_footprint_fraction(0.5)
        .read_fraction(0.75)
        .mem_ratio(0.3)
        .relative_volume(0.8)
        .build()
}

/// GemsFDTD — 3D Maxwell solver, s.t. (mpki 12.56). The largest working
/// set in the suite by two orders of magnitude (Table VI).
pub fn gems_fdtd() -> WorkloadProfile {
    p("GemsFDTD", Suite::Cpu2006)
        .description("Maxwell solver 3D, s.t.")
        .paper_mpki(12.56)
        .footprint_blocks(1 << 18)
        .hot_fraction(0.3)
        .hot_probability(0.45)
        .zipf_alpha(0.4)
        .stream_fraction(0.65)
        .write_footprint_fraction(0.95)
        .read_fraction(0.65)
        .mem_ratio(0.33)
        .relative_volume(0.7)
        .stream_dwell(16)
        .build()
}

/// gobmk — Go playing/analysis, s.t. (mpki 38.08).
pub fn gobmk() -> WorkloadProfile {
    p("gobmk", Suite::Cpu2006)
        .description("Plays Go and analyzes, s.t.")
        .paper_mpki(38.08)
        .footprint_blocks(1 << 18)
        .hot_fraction(0.8)
        .hot_probability(0.85)
        .zipf_alpha(0.25)
        .stream_fraction(0.05)
        .write_footprint_fraction(0.5)
        .read_fraction(0.7)
        .mem_ratio(0.35)
        .relative_volume(4.0)
        .build()
}

/// milc — lattice gauge theory, s.t. (mpki 16.46).
pub fn milc() -> WorkloadProfile {
    p("milc", Suite::Cpu2006)
        .description("Lattice gauge theory, s.t., MIMD")
        .paper_mpki(16.46)
        .footprint_blocks(3 << 15)
        .hot_fraction(0.3)
        .hot_probability(0.5)
        .zipf_alpha(0.4)
        .stream_fraction(0.5)
        .write_footprint_fraction(0.8)
        .read_fraction(0.75)
        .mem_ratio(0.33)
        .relative_volume(0.8)
        .stream_dwell(16)
        .build()
}

/// perlbench — Perl interpreter, s.t. (mpki 7.57).
pub fn perlbench() -> WorkloadProfile {
    p("perlbench", Suite::Cpu2006)
        .description("Perl interpreter, s.t.")
        .paper_mpki(7.57)
        .footprint_blocks(40 << 10)
        .hot_fraction(0.1)
        .hot_probability(0.9)
        .zipf_alpha(1.0)
        .stream_fraction(0.05)
        .write_footprint_fraction(0.6)
        .read_fraction(0.65)
        .mem_ratio(0.3)
        .relative_volume(0.8)
        .build()
}

/// tonto — quantum chemistry package, s.t. (mpki 12.39).
pub fn tonto() -> WorkloadProfile {
    p("tonto", Suite::Cpu2006)
        .description("Quantum package, s.t.")
        .paper_mpki(12.39)
        .footprint_blocks(3 << 14)
        .hot_fraction(0.02)
        .hot_probability(0.9)
        .zipf_alpha(0.8)
        .stream_fraction(0.08)
        .write_footprint_fraction(0.35)
        .read_fraction(0.7)
        .mem_ratio(0.32)
        .relative_volume(0.5)
        .build()
}

/// x264 — MPEG-4 encoding, s.t. (mpki 17.81). Strongly read-heavy with a
/// tiny write working set (Table VI: 90% write footprint of 3.56 K vs
/// 1.59 M for reads).
pub fn x264() -> WorkloadProfile {
    p("x264", Suite::Parsec)
        .description("MPEG-4 encoding, s.t.")
        .paper_mpki(17.81)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.15)
        .hot_probability(0.6)
        .zipf_alpha(0.5)
        .stream_fraction(0.45)
        .write_footprint_fraction(0.001)
        .read_fraction(0.86)
        .mem_ratio(0.35)
        .relative_volume(2.0)
        .stream_dwell(12)
        .build()
}

/// vips — image transformation, m.t. (mpki 5.43).
pub fn vips() -> WorkloadProfile {
    p("vips", Suite::Parsec)
        .description("Image transformation, m.t.")
        .paper_mpki(5.43)
        .threads(MT_THREADS)
        .footprint_blocks(3 << 14)
        .hot_fraction(0.1)
        .hot_probability(0.95)
        .zipf_alpha(0.9)
        .stream_fraction(0.08)
        .write_footprint_fraction(0.6)
        .read_fraction(0.74)
        .mem_ratio(0.33)
        .relative_volume(0.6)
        .shared_fraction(0.2)
        .build()
}

/// cg — conjugate gradient, m.t. (mpki 80.89). Sparse and nearly
/// write-free (Table VI: 0.73 G reads vs 0.04 G writes).
pub fn cg() -> WorkloadProfile {
    p("cg", Suite::Npb)
        .description("Conjugate gradient, m.t.")
        .paper_mpki(80.89)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.5)
        .hot_probability(0.35)
        .zipf_alpha(0.2)
        .stream_fraction(0.1)
        .write_footprint_fraction(0.15)
        .read_fraction(0.95)
        .mem_ratio(0.4)
        .relative_volume(0.4)
        .shared_fraction(0.3)
        .build()
}

/// ep — embarrassingly parallel, m.t. (mpki 9.31).
pub fn ep() -> WorkloadProfile {
    p("ep", Suite::Npb)
        .description("Embarrassingly parallel, m.t.")
        .paper_mpki(9.31)
        .threads(MT_THREADS)
        .footprint_blocks(3 << 14)
        .hot_fraction(0.02)
        .hot_probability(0.95)
        .zipf_alpha(1.2)
        .stream_fraction(0.1)
        .write_footprint_fraction(1.0)
        .read_fraction(0.7)
        .mem_ratio(0.28)
        .relative_volume(0.5)
        .shared_fraction(0.05)
        .build()
}

/// ft — discrete 3D FFT, m.t. (mpki 15.39). The most write-balanced
/// workload (Table VI: 0.28 G reads, 0.27 G writes).
pub fn ft() -> WorkloadProfile {
    p("ft", Suite::Npb)
        .description("Discrete 3D FFT, m.t.")
        .paper_mpki(15.39)
        .threads(MT_THREADS)
        .footprint_blocks(3 << 15)
        .hot_fraction(0.3)
        .hot_probability(0.5)
        .zipf_alpha(0.3)
        .stream_fraction(0.5)
        .write_footprint_fraction(0.9)
        .read_fraction(0.51)
        .mem_ratio(0.35)
        .relative_volume(0.25)
        .shared_fraction(0.25)
        .stream_dwell(12)
        .build()
}

/// is — integer sort, m.t. (mpki 35.63).
pub fn is() -> WorkloadProfile {
    p("is", Suite::Npb)
        .description("Integer sort, m.t.")
        .paper_mpki(35.63)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.4)
        .hot_probability(0.35)
        .zipf_alpha(0.15)
        .stream_fraction(0.2)
        .write_footprint_fraction(0.7)
        .read_fraction(0.67)
        .mem_ratio(0.38)
        .relative_volume(0.12)
        .shared_fraction(0.3)
        .build()
}

/// lu — LU Gauss-Seidel solver, m.t. (mpki 14.42).
pub fn lu() -> WorkloadProfile {
    p("lu", Suite::Npb)
        .description("LU Gauss-Seidel solver, m.t.")
        .paper_mpki(14.42)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 16)
        .hot_fraction(0.25)
        .hot_probability(0.65)
        .zipf_alpha(0.5)
        .stream_fraction(0.45)
        .write_footprint_fraction(0.9)
        .read_fraction(0.82)
        .mem_ratio(0.34)
        .relative_volume(2.0)
        .shared_fraction(0.2)
        .stream_dwell(16)
        .build()
}

/// mg — multigrid on meshes, m.t. (mpki 65.09).
pub fn mg() -> WorkloadProfile {
    p("mg", Suite::Npb)
        .description("Multigrid on meshes, m.t.")
        .paper_mpki(65.09)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 18)
        .hot_fraction(0.25)
        .hot_probability(0.55)
        .zipf_alpha(0.2)
        .stream_fraction(0.4)
        .write_footprint_fraction(0.95)
        .read_fraction(0.83)
        .mem_ratio(0.38)
        .relative_volume(1.0)
        .shared_fraction(0.25)
        .build()
}

/// sp — scalar penta-diagonal solver, m.t. (mpki 44.35).
pub fn sp() -> WorkloadProfile {
    p("sp", Suite::Npb)
        .description("Scalar penta-diagonal solver, m.t.")
        .paper_mpki(44.35)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.4)
        .hot_probability(0.4)
        .zipf_alpha(0.2)
        .stream_fraction(0.4)
        .write_footprint_fraction(0.5)
        .read_fraction(0.69)
        .mem_ratio(0.38)
        .relative_volume(1.5)
        .shared_fraction(0.25)
        .build()
}

/// ua — unstructured adaptive mesh, m.t. (mpki 39.08).
pub fn ua() -> WorkloadProfile {
    p("ua", Suite::Npb)
        .description("Unstructured adaptive mesh, m.t.")
        .paper_mpki(39.08)
        .threads(MT_THREADS)
        .footprint_blocks(1 << 17)
        .hot_fraction(0.3)
        .hot_probability(0.45)
        .zipf_alpha(0.3)
        .stream_fraction(0.3)
        .write_footprint_fraction(0.35)
        .read_fraction(0.63)
        .mem_ratio(0.37)
        .relative_volume(1.5)
        .shared_fraction(0.3)
        .build()
}

/// deepsjeng — AI alpha-beta tree search, s.t. (mpki 159.58). A tiny hot
/// core with an enormous cold transposition table (Table VI: 90% footprint
/// of 4.79 K against 58.9 M unique reads).
pub fn deepsjeng() -> WorkloadProfile {
    p("deepsjeng", Suite::Cpu2017)
        .description("AI: alpha-beta tree search, s.t.")
        .paper_mpki(159.58)
        .footprint_blocks(1 << 19)
        .hot_fraction(0.004)
        .hot_probability(0.35)
        .zipf_alpha(0.9)
        .stream_fraction(0.02)
        .write_footprint_fraction(1.0)
        .read_fraction(0.68)
        .mem_ratio(0.42)
        .relative_volume(1.5)
        .build()
}

/// leela — AI Monte Carlo tree search, s.t. (mpki 24.05).
pub fn leela() -> WorkloadProfile {
    p("leela", Suite::Cpu2017)
        .description("AI: Monte Carlo tree search, s.t.")
        .paper_mpki(24.05)
        .footprint_blocks(1 << 16)
        .hot_fraction(0.01)
        .hot_probability(0.85)
        .zipf_alpha(0.8)
        .stream_fraction(0.05)
        .write_footprint_fraction(1.0)
        .read_fraction(0.72)
        .mem_ratio(0.36)
        .relative_volume(1.2)
        .build()
}

/// exchange2 — AI recursive solution generator, s.t. (mpki 13.50). The
/// smallest unique footprint in the suite but the largest access volume
/// (Table VI), sized near the LLC boundary so conflict misses dominate.
pub fn exchange2() -> WorkloadProfile {
    p("exchange2", Suite::Cpu2017)
        .description("AI: recursive solution generator, s.t.")
        .paper_mpki(13.5)
        .footprint_blocks(40 << 10)
        .hot_fraction(0.02)
        .hot_probability(0.85)
        .zipf_alpha(0.7)
        .stream_fraction(0.15)
        .write_footprint_fraction(0.9)
        .read_fraction(0.59)
        .mem_ratio(0.4)
        .relative_volume(3.0)
        .build()
}

/// All 20 workloads in Table V order.
pub fn all() -> Vec<WorkloadProfile> {
    vec![
        bzip2(),
        gamess(),
        gems_fdtd(),
        gobmk(),
        milc(),
        perlbench(),
        tonto(),
        x264(),
        vips(),
        cg(),
        ep(),
        ft(),
        is(),
        lu(),
        mg(),
        sp(),
        ua(),
        deepsjeng(),
        leela(),
        exchange2(),
    ]
}

/// Looks up a workload by Table V name.
pub fn by_name(name: &str) -> Option<WorkloadProfile> {
    all().into_iter().find(|w| w.name() == name)
}

/// The single-threaded workloads.
pub fn single_threaded() -> Vec<WorkloadProfile> {
    all()
        .into_iter()
        .filter(|w| !w.is_multithreaded())
        .collect()
}

/// The multi-threaded workloads.
pub fn multi_threaded() -> Vec<WorkloadProfile> {
    all()
        .into_iter()
        .filter(WorkloadProfile::is_multithreaded)
        .collect()
}

/// The cpu2017 AI workloads Section VI's specialized analysis uses.
pub fn ai() -> Vec<WorkloadProfile> {
    all().into_iter().filter(WorkloadProfile::is_ai).collect()
}

/// The 16 workloads the paper characterizes with PRISM (Section IV-B
/// excludes gamess, gobmk, milc, and perlbench for PRISM
/// incompatibilities).
pub fn characterized() -> Vec<WorkloadProfile> {
    const EXCLUDED: [&str; 4] = ["gamess", "gobmk", "milc", "perlbench"];
    all()
        .into_iter()
        .filter(|w| !EXCLUDED.contains(&w.name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_workloads_in_table_5_order() {
        let names: Vec<_> = all().iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names.len(), 20);
        assert_eq!(names[0], "bzip2");
        assert_eq!(names[19], "exchange2");
        assert!(names.contains(&"GemsFDTD".to_owned()));
    }

    #[test]
    fn suite_split_matches_paper() {
        let count = |s: Suite| all().iter().filter(|w| w.suite() == s).count();
        assert_eq!(count(Suite::Cpu2006), 7);
        assert_eq!(count(Suite::Parsec), 2);
        assert_eq!(count(Suite::Npb), 8);
        assert_eq!(count(Suite::Cpu2017), 3);
    }

    #[test]
    fn threading_split_matches_paper() {
        // Multi-threaded: vips + all 8 NPB workloads.
        assert_eq!(multi_threaded().len(), 9);
        assert_eq!(single_threaded().len(), 11);
        assert!(multi_threaded().iter().all(|w| w.threads() == MT_THREADS));
    }

    #[test]
    fn ai_workloads_are_the_cpu2017_trio() {
        let names: Vec<_> = ai().iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names, ["deepsjeng", "leela", "exchange2"]);
    }

    #[test]
    fn characterized_set_excludes_prism_incompatible() {
        let c = characterized();
        assert_eq!(c.len(), 16);
        for name in ["gamess", "gobmk", "milc", "perlbench"] {
            assert!(c.iter().all(|w| w.name() != name));
        }
    }

    #[test]
    fn every_workload_exceeds_the_mpki_5_selection_bar() {
        // Table V's selection criterion: LLC mpki > 5.
        for w in all() {
            assert!(w.paper_mpki() > 5.0, "{}", w.name());
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("deepsjeng").is_some());
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn deepsjeng_has_extreme_footprint_and_tiny_hot_set() {
        let d = deepsjeng();
        assert!(d.footprint_blocks() >= 1 << 19);
        let leela = leela();
        assert!(d.footprint_blocks() > 4 * leela.footprint_blocks());
    }

    #[test]
    fn all_profiles_generate_nonempty_traces() {
        for w in all() {
            let t = w.generate(1, 500);
            assert_eq!(t.len(), 500 * usize::from(w.threads()));
            assert!(t.reads() > 0 && t.writes() > 0, "{}", w.name());
        }
    }
}

// --- Deep-learning extension suite (paper Section IV's pointer to
// Fathom/TBD; not part of Table V) ----------------------------------------

/// conv_inference — CNN inference layer (extension suite). Streams weight
/// tensors and activation planes: long sequential bursts over a
/// tens-of-MB model, tiny write footprint (activations ping-pong in a
/// small buffer).
pub fn conv_inference() -> WorkloadProfile {
    p("conv_inference", Suite::Fathom)
        .description("DL: CNN inference, weight streaming, s.t.")
        .paper_mpki(0.0)
        .footprint_blocks(1 << 19)
        .hot_fraction(0.02)
        .hot_probability(0.25)
        .zipf_alpha(0.3)
        .stream_fraction(0.7)
        .stream_dwell(16)
        .write_footprint_fraction(0.01)
        .read_fraction(0.9)
        .mem_ratio(0.45)
        .build()
}

/// lstm_inference — recurrent-network inference (extension suite).
/// Repeated matrix–vector sweeps over a model that sits near the LLC
/// boundary, with a recurrent state vector rewritten every step.
pub fn lstm_inference() -> WorkloadProfile {
    p("lstm_inference", Suite::Fathom)
        .description("DL: LSTM inference, recurrent mat-vec, s.t.")
        .paper_mpki(0.0)
        .footprint_blocks(48 << 10)
        .hot_fraction(0.9)
        .hot_probability(0.55)
        .zipf_alpha(0.1)
        .stream_fraction(0.4)
        .stream_dwell(8)
        .write_footprint_fraction(0.05)
        .read_fraction(0.85)
        .mem_ratio(0.42)
        .build()
}

/// embedding_lookup — recommendation-style embedding gather (extension
/// suite). Random single-row reads over a table far larger than any
/// cache, with a small dense MLP on top — the memory behaviour TBD's
/// recommendation models exhibit.
pub fn embedding_lookup() -> WorkloadProfile {
    p("embedding_lookup", Suite::Fathom)
        .description("DL: embedding-table gather + MLP, s.t.")
        .paper_mpki(0.0)
        .footprint_blocks(1 << 20)
        .hot_fraction(0.003)
        .hot_probability(0.45)
        .zipf_alpha(1.1)
        .stream_fraction(0.05)
        .write_footprint_fraction(0.01)
        .read_fraction(0.93)
        .mem_ratio(0.40)
        .build()
}

/// The deep-learning extension workloads.
pub fn deep_learning() -> Vec<WorkloadProfile> {
    vec![conv_inference(), lstm_inference(), embedding_lookup()]
}

#[cfg(test)]
mod dl_tests {
    use super::*;

    #[test]
    fn extension_suite_is_separate_from_table_5() {
        assert_eq!(deep_learning().len(), 3);
        assert_eq!(all().len(), 20, "Table V stays untouched");
        for w in deep_learning() {
            assert_eq!(w.suite(), Suite::Fathom);
            assert!(w.is_ai());
            assert!(
                by_name(w.name()).is_none(),
                "{} leaked into Table V",
                w.name()
            );
        }
    }

    #[test]
    fn dl_workloads_are_read_dominated_with_tiny_write_sets() {
        for w in deep_learning() {
            assert!(w.read_fraction() >= 0.85, "{}", w.name());
            let t = w.generate(3, 10_000);
            assert!(t.reads() > 5 * t.writes(), "{}", w.name());
        }
    }

    #[test]
    fn embedding_gather_has_the_widest_footprint() {
        let traces: Vec<_> = deep_learning()
            .iter()
            .map(|w| {
                let t = w.generate(3, 20_000);
                let unique: std::collections::HashSet<u64> = t.iter().map(|e| e.block()).collect();
                (w.name().to_owned(), unique.len())
            })
            .collect();
        let emb = traces.iter().find(|t| t.0 == "embedding_lookup").unwrap().1;
        let lstm = traces.iter().find(|t| t.0 == "lstm_inference").unwrap().1;
        assert!(emb > lstm, "{emb} vs {lstm}");
    }
}

#[cfg(test)]
mod generator_golden {
    use super::*;
    use crate::GENERATOR_VERSION;

    /// 64-bit FNV-1a over every field of every event.
    fn digest(trace: &crate::Trace) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for e in trace.events() {
            let mut bytes = e.addr.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[e.tid, u8::from(e.kind.is_write())]);
            bytes.extend_from_slice(&e.gap_instructions.to_le_bytes());
            for byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Pins the events every profile generates at two small
    /// `(seed, accesses per thread)` requests. A generated trace's id is
    /// its request ([`crate::WorkloadProfile::trace_id`]), not its
    /// events, so results stored for it stay reachable only while the
    /// generator reproduces these events exactly.
    #[test]
    fn every_profile_generates_its_pinned_events() {
        let mut got = String::new();
        for w in all().into_iter().chain(deep_learning()) {
            for (seed, accesses) in [(7u64, 64usize), (2019, 257)] {
                let trace = w.generate(seed, accesses);
                assert_eq!(trace.len(), accesses * usize::from(w.threads()));
                got.push_str(&format!(
                    "{} {seed} {accesses} {:016x}\n",
                    w.name(),
                    digest(&trace)
                ));
            }
        }
        let want = "\
            bzip2 7 64 897d688f19e818d0\n\
            bzip2 2019 257 15c7072d2b549c10\n\
            gamess 7 64 a843ff5c303b2338\n\
            gamess 2019 257 32346d7c8be2a176\n\
            GemsFDTD 7 64 00462469992164e5\n\
            GemsFDTD 2019 257 ab4d55038d82f298\n\
            gobmk 7 64 9204398aabbc8434\n\
            gobmk 2019 257 664967b6fa904b03\n\
            milc 7 64 733d57da335ff645\n\
            milc 2019 257 42e7af145c748107\n\
            perlbench 7 64 713df541c8f83db2\n\
            perlbench 2019 257 a317aa53ac58c2c0\n\
            tonto 7 64 af0d37647dcc9436\n\
            tonto 2019 257 fcb16df0f33bf123\n\
            x264 7 64 32ed51b4e435d981\n\
            x264 2019 257 18ed7bf75086c8e2\n\
            vips 7 64 1ab7dd13df939019\n\
            vips 2019 257 5508ab38b61d0117\n\
            cg 7 64 4e03432f78ac37e0\n\
            cg 2019 257 39342663feb6e7d1\n\
            ep 7 64 f970894a5bccb399\n\
            ep 2019 257 15a4511241f5d625\n\
            ft 7 64 0ae4ad995a8db65d\n\
            ft 2019 257 129a11e2b8649abb\n\
            is 7 64 9b74d900d2209282\n\
            is 2019 257 9f4d004def0f13e6\n\
            lu 7 64 b5f0c8b2f683a084\n\
            lu 2019 257 da5caadeb2f13b6c\n\
            mg 7 64 4ef49ed7ccc9dae1\n\
            mg 2019 257 c4d70a2360a5a167\n\
            sp 7 64 daef46ea009a9fed\n\
            sp 2019 257 beb5b1d4cc21d79a\n\
            ua 7 64 3342cb348e877c86\n\
            ua 2019 257 fd89ca5431523d01\n\
            deepsjeng 7 64 aa4d7a867b765cf2\n\
            deepsjeng 2019 257 80004296e1d5a399\n\
            leela 7 64 4ff6c05fb2412680\n\
            leela 2019 257 8a1dcbbbecf3149e\n\
            exchange2 7 64 3afcba89342f47f2\n\
            exchange2 2019 257 894a5c04dd90f79f\n\
            conv_inference 7 64 b538cbdfff298ad0\n\
            conv_inference 2019 257 ebaf40eb0f837039\n\
            lstm_inference 7 64 010a41288f6e3561\n\
            lstm_inference 2019 257 d1b4b98ccafc4ccf\n\
            embedding_lookup 7 64 bebb280c59b720fd\n\
            embedding_lookup 2019 257 54b44934f1576a4e\n\
        ";
        assert_eq!(
            got, want,
            "the generator's events moved: bump GENERATOR_VERSION (now {GENERATOR_VERSION}) \
             so results stored under the old trace ids miss, then re-pin these digests"
        );
    }
}

//! Figure 2 — fixed-area speedup, LLC energy, and ED²P: every technology
//! grown to the SRAM area budget, so dense NVMs trade latency for
//! capacity.

use crate::experiments::fig1::{run_configuration, Figure};
use crate::experiments::{Configuration, Run};

/// Runs the fixed-area evaluation (Figure 2).
pub fn run(run: impl Into<Run>) -> Figure {
    run_configuration(Configuration::FixedArea, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> &'static Figure {
        crate::experiments::shared::fig2()
    }

    #[test]
    fn uses_fixed_area_models() {
        let f = fig();
        assert_eq!(f.configuration, Configuration::FixedArea);
        // The capacity benefit must show in mpki: Zhang's 128 MB LLC
        // misses far less than it does at 2 MB on a workload whose hot
        // working set dwarfs the baseline (gobmk's ~13 MB).
        let row = f.row("gobmk").unwrap();
        let zhang = row.entry("Zhang_R").unwrap();
        let fixed_cap = crate::experiments::shared::fig1();
        let zhang_cap = fixed_cap.row("gobmk").unwrap().entry("Zhang_R").unwrap();
        assert!(
            zhang.result.stats.llc_mpki() < zhang_cap.result.stats.llc_mpki() / 1.5,
            "fixed-area mpki {} vs fixed-cap {}",
            zhang.result.stats.llc_mpki(),
            zhang_cap.result.stats.llc_mpki()
        );
    }

    #[test]
    fn dense_nvms_speed_up_capacity_starved_workloads() {
        // §V-B: high-capacity NVMs gain >10% on capacity-starved
        // workloads; Hayakawa_R achieves large wins (gobmk +60% in the
        // paper).
        let f = fig();
        let mut best_gain: f64 = 0.0;
        for row in f.all_rows() {
            for name in ["Hayakawa_R", "Zhang_R", "Xue_S", "Chung_S"] {
                if let Some(e) = row.entry(name) {
                    best_gain = best_gain.max(e.speedup);
                }
            }
        }
        assert!(best_gain > 1.08, "best dense-NVM speedup {best_gain}");
    }

    #[test]
    fn gobmk_prefers_hayakawa() {
        // §V-B.7: for gobmk, Hayakawa_R outperforms all technologies —
        // its 32 MB swallows gobmk's ~16 MB footprint with a modest read
        // latency.
        let f = fig();
        let row = f.row("gobmk").unwrap();
        let hayakawa = row.entry("Hayakawa_R").unwrap();
        assert!(
            hayakawa.speedup >= row.best_speedup().unwrap().speedup - 0.02,
            "Hayakawa {} vs best {}",
            hayakawa.speedup,
            row.best_speedup().unwrap().speedup
        );
    }

    #[test]
    fn zhang_can_lose_performance_despite_capacity() {
        // §V-B.1: Zhang_R's 9.5 ns reads cost it on some workloads (the
        // paper's gobmk −40%): somewhere it must be the slower of the
        // dense technologies.
        let f = fig();
        let mut zhang_loses_somewhere = false;
        for row in f.all_rows() {
            let zhang = row.entry("Zhang_R").unwrap();
            let hayakawa = row.entry("Hayakawa_R").unwrap();
            if zhang.speedup < hayakawa.speedup - 0.02 {
                zhang_loses_somewhere = true;
            }
        }
        assert!(zhang_loses_somewhere);
    }

    #[test]
    fn pcram_write_energy_still_worst_in_fixed_area() {
        // §V-B.2: Kang_P and Oh_P remain the energy outliers on
        // write-carrying workloads; on nearly write-free ones the 9 W
        // leakage of the 128 MB Zhang_R takes over (§V-C discusses
        // exactly that leakage). Require the PCRAM pair to be worst in a
        // majority of rows.
        let f = fig();
        let mut pcram_worst = 0usize;
        let mut rows = 0usize;
        for row in f.all_rows() {
            rows += 1;
            let worst = row
                .entries
                .iter()
                .max_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap())
                .unwrap();
            if worst.llc == "Kang_P" || worst.llc == "Oh_P" {
                pcram_worst += 1;
            } else {
                assert!(
                    worst.llc == "Zhang_R" || worst.llc == "Hayakawa_R",
                    "{}: unexpected worst {}",
                    row.workload,
                    worst.llc
                );
            }
        }
        assert!(
            pcram_worst * 2 >= rows,
            "PCRAM worst in only {pcram_worst}/{rows} rows"
        );
    }

    #[test]
    fn render_is_labeled_figure_2() {
        let text = fig().render();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("fixed-area"));
    }
}

//! Figure 1 — fixed-capacity speedup, LLC energy, and ED²P, normalized to
//! the SRAM baseline, for single-threaded (1a) and multi-threaded (1b)
//! workloads.

use nvm_llc_sim::MatrixRow;
use nvm_llc_trace::workloads;

use crate::experiments::{Configuration, Run};
use crate::tables::{num, TextTable};

/// A full figure: both threading panels.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Which LLC sizing configuration ran.
    pub configuration: Configuration,
    /// Single-threaded panel (Figure a).
    pub single_threaded: Vec<MatrixRow>,
    /// Multi-threaded panel (Figure b).
    pub multi_threaded: Vec<MatrixRow>,
}

/// Runs the fixed-capacity evaluation (Figure 1).
pub fn run(run: impl Into<Run>) -> Figure {
    run_configuration(Configuration::FixedCapacity, run)
}

/// Shared driver for Figures 1 and 2.
pub fn run_configuration(configuration: Configuration, run: impl Into<Run>) -> Figure {
    let eval = run.into().evaluator(configuration);
    Figure {
        configuration,
        single_threaded: eval.run_all(&workloads::single_threaded()),
        multi_threaded: eval.run_all(&workloads::multi_threaded()),
    }
}

impl Figure {
    /// All rows, single-threaded first.
    pub fn all_rows(&self) -> impl Iterator<Item = &MatrixRow> {
        self.single_threaded
            .iter()
            .chain(self.multi_threaded.iter())
    }

    /// The row for one workload.
    pub fn row(&self, workload: &str) -> Option<&MatrixRow> {
        self.all_rows().find(|r| r.workload == workload)
    }

    /// Renders the three metric panels (speedup / LLC energy / ED²P) for
    /// one threading class.
    fn render_panel(&self, title: &str, rows: &[MatrixRow]) -> String {
        let mut out = String::new();
        type Get = fn(&nvm_llc_sim::MatrixEntry) -> f64;
        let metrics: [(&str, Get); 3] = [
            ("normalized speedup", |e| e.speedup),
            ("normalized LLC energy", |e| e.energy),
            ("normalized ED^2P", |e| e.ed2p),
        ];
        for (metric, get) in metrics {
            let mut headers = vec!["bmk".to_owned()];
            if let Some(first) = rows.first() {
                headers.extend(first.entries.iter().map(|e| e.llc.clone()));
            }
            let mut t = TextTable::new(headers);
            for row in rows {
                let mut cells = vec![row.workload.clone()];
                cells.extend(row.entries.iter().map(|e| num(get(e))));
                t.row(cells);
            }
            out.push_str(&format!("{title} — {metric} (SRAM = 1.0)\n"));
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Renders the whole figure.
    pub fn render(&self) -> String {
        let (fig, a, b) = match self.configuration {
            Configuration::FixedCapacity => (
                "Figure 1",
                "Fig 1a (single-threaded)",
                "Fig 1b (multi-threaded)",
            ),
            Configuration::FixedArea => (
                "Figure 2",
                "Fig 2a (single-threaded)",
                "Fig 2b (multi-threaded)",
            ),
        };
        format!(
            "{fig} — Gainestown with {} LLC\n{}{}",
            self.configuration,
            self.render_panel(a, &self.single_threaded),
            self.render_panel(b, &self.multi_threaded),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> &'static Figure {
        crate::experiments::shared::fig1()
    }

    #[test]
    fn panels_cover_the_paper_split() {
        let f = fig();
        assert_eq!(f.single_threaded.len(), 11);
        assert_eq!(f.multi_threaded.len(), 9);
        assert_eq!(f.configuration, Configuration::FixedCapacity);
    }

    #[test]
    fn single_threaded_performance_is_near_sram() {
        // §V-A.1: "a loss in performance neighboring -1% to -3%", with
        // occasional parity or wins. Allow the synthetic-trace band.
        let f = fig();
        for row in &f.single_threaded {
            for e in &row.entries {
                assert!(
                    (0.7..=1.2).contains(&e.speedup),
                    "{}/{}: speedup {}",
                    row.workload,
                    e.llc,
                    e.speedup
                );
            }
        }
    }

    #[test]
    fn nvm_energy_savings_reach_an_order_of_magnitude() {
        // §V-A.2: "NVM LLC energy is up to 10× less than SRAM".
        let f = fig();
        let best = f
            .all_rows()
            .flat_map(|r| r.entries.iter())
            .map(|e| e.energy)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.15, "best normalized energy {best}");
    }

    #[test]
    fn kang_and_oh_are_the_energy_worst_cases() {
        // §V-A.2: Kang_P and Oh_P exhibit worst-case LLC energy. Nearly
        // write-free workloads (x264's 90% write footprint is three
        // orders below its reads') legitimately escape the PCRAM write
        // penalty, so require the PCRAM pair to be worst in the vast
        // majority of rows and globally.
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
            }
        }
        assert!(
            pcram_worst * 4 >= rows * 3,
            "PCRAM worst in only {pcram_worst}/{rows} rows"
        );
        // And the single worst normalized energy anywhere belongs to
        // Kang_P, whose 375 nJ writes top Table III.
        let global_worst = f
            .all_rows()
            .flat_map(|r| r.entries.iter())
            .max_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap())
            .unwrap();
        assert_eq!(global_worst.llc, "Kang_P");
    }

    #[test]
    fn pcram_energy_can_exceed_sram_on_write_heavy_workloads() {
        // §V-A.2: Kang/Oh up to ~6× more energy than SRAM.
        let f = fig();
        let kang_bzip2 = f.row("bzip2").unwrap().entry("Kang_P").unwrap().energy;
        assert!(kang_bzip2 > 1.5, "Kang on bzip2: {kang_bzip2}");
    }

    #[test]
    fn jan_is_among_the_most_energy_efficient() {
        // §V-A.7: "The most energy-efficient NVM is Jan_S" for most
        // workloads — its 0.048 W leakage dominates once runs reach
        // steady state. Our synthetic traces are more miss-intensive per
        // instruction than the originals, so we require Jan to win
        // outright on several workloads and stay top-3 on a majority.
        let f = fig();
        let mut jan_best = 0;
        let mut jan_top3 = 0;
        let mut rows = 0;
        for row in f.all_rows() {
            rows += 1;
            let jan = row.entry("Jan_S").unwrap().energy;
            let better = row.entries.iter().filter(|e| e.energy < jan).count();
            if better == 0 {
                jan_best += 1;
            }
            if better <= 2 {
                jan_top3 += 1;
            }
        }
        assert!(jan_best >= 3, "Jan best in only {jan_best}/{rows} rows");
        assert!(
            jan_top3 * 2 > rows,
            "Jan top-3 in only {jan_top3}/{rows} rows"
        );
    }

    #[test]
    fn ed2p_is_superior_to_sram_for_most_nvms() {
        // §V-A.6: "NVM ED²P is superior to SRAM for virtually all cases".
        let f = fig();
        let mut better = 0usize;
        let mut total = 0usize;
        for row in f.all_rows() {
            for e in &row.entries {
                total += 1;
                if e.ed2p < 1.0 {
                    better += 1;
                }
            }
        }
        assert!(
            better as f64 / total as f64 > 0.6,
            "only {better}/{total} beat SRAM ED²P"
        );
    }

    #[test]
    fn render_contains_all_three_metrics() {
        let text = fig().render();
        assert!(text.contains("normalized speedup"));
        assert!(text.contains("normalized LLC energy"));
        assert!(text.contains("normalized ED^2P"));
        assert!(text.contains("Fig 1a"));
        assert!(text.contains("Fig 1b"));
    }
}

//! Deep-learning workload extension — the evaluation the paper points to
//! next (Section IV names Fathom and TBD as the suites "more focused on
//! deep learning tasks" than the cpu2017 trio; Section VI concludes a
//! statistical-inference architecture should pick a density-targeted
//! NVM). This experiment runs the DL extension suite through the same
//! harness and checks whether that conclusion carries over.

use nvm_llc_sim::MatrixRow;
use nvm_llc_trace::workloads;

use crate::experiments::{Configuration, Run};
use crate::tables::{num, TextTable};

/// The DL-extension evaluation output.
#[derive(Debug, Clone)]
pub struct DlExtension {
    /// Fixed-capacity rows per DL workload.
    pub fixed_capacity: Vec<MatrixRow>,
    /// Fixed-area rows per DL workload.
    pub fixed_area: Vec<MatrixRow>,
}

/// Runs the DL extension suite through both configurations.
pub fn run(run: impl Into<Run>) -> DlExtension {
    let run = run.into();
    let dl = workloads::deep_learning();
    DlExtension {
        fixed_capacity: run.evaluator(Configuration::FixedCapacity).run_all(&dl),
        fixed_area: run.evaluator(Configuration::FixedArea).run_all(&dl),
    }
}

impl DlExtension {
    /// Rows for one configuration.
    pub fn rows(&self, configuration: Configuration) -> &[MatrixRow] {
        match configuration {
            Configuration::FixedCapacity => &self.fixed_capacity,
            Configuration::FixedArea => &self.fixed_area,
        }
    }

    /// The best-ED²P technology per workload in a configuration.
    pub fn picks(&self, configuration: Configuration) -> Vec<(String, String)> {
        self.rows(configuration)
            .iter()
            .map(|row| {
                let best = row
                    .entries
                    .iter()
                    .min_by(|a, b| a.ed2p.partial_cmp(&b.ed2p).expect("finite"))
                    .expect("non-empty row");
                (row.workload.clone(), best.llc.clone())
            })
            .collect()
    }

    /// Renders both configurations with per-workload winners.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Deep-learning extension suite (Fathom/TBD-style) — the paper's\n\
             suggested next workloads, evaluated on the same harness\n\n",
        );
        for configuration in Configuration::ALL {
            let rows = self.rows(configuration);
            let mut headers = vec!["bmk".to_owned()];
            if let Some(first) = rows.first() {
                headers.extend(first.entries.iter().map(|e| e.llc.clone()));
            }
            let mut t = TextTable::new(headers);
            for row in rows {
                let mut cells = vec![format!("{} ED2P", row.workload)];
                cells.extend(row.entries.iter().map(|e| num(e.ed2p)));
                t.row(cells);
            }
            out.push_str(&format!("== {configuration} (normalized ED²P) ==\n"));
            out.push_str(&t.render());
            for (workload, pick) in self.picks(configuration) {
                out.push_str(&format!("  {workload}: pick {pick}\n"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn ext() -> &'static DlExtension {
        // Evaluation scale: the embedding table's capacity sensitivity
        // needs enough accesses for reuse beyond 2 MB.
        static CELL: std::sync::OnceLock<DlExtension> = std::sync::OnceLock::new();
        CELL.get_or_init(|| run(Scale::DEFAULT))
    }

    #[test]
    fn evaluates_all_three_dl_workloads() {
        let e = ext();
        assert_eq!(e.fixed_capacity.len(), 3);
        assert_eq!(e.fixed_area.len(), 3);
        for row in e.rows(Configuration::FixedCapacity) {
            assert_eq!(row.entries.len(), 10);
        }
    }

    #[test]
    fn dl_inference_favors_nvm_over_sram_on_energy() {
        // Read-dominated DL inference is the best case for NVM LLCs: low
        // write traffic, leakage-dominated SRAM baseline.
        let e = ext();
        for row in e.rows(Configuration::FixedCapacity) {
            let best = row.best_energy().unwrap();
            assert!(
                best.energy < 0.2,
                "{}: best energy {}",
                row.workload,
                best.energy
            );
        }
    }

    #[test]
    fn section6_density_conclusion_holds_for_embedding_gather() {
        // The paper: a statistical-inference architecture should pick a
        // density-targeted NVM. The embedding gather's enormous table is
        // exactly that case — in the fixed-area configuration a
        // high-capacity technology must beat the 1 MB Jan_S on speed.
        let e = ext();
        let row = e
            .rows(Configuration::FixedArea)
            .iter()
            .find(|r| r.workload == "embedding_lookup")
            .unwrap();
        let dense_best = ["Zhang_R", "Hayakawa_R", "Xue_S", "Chung_S"]
            .iter()
            .filter_map(|n| row.entry(n))
            .map(|e| e.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        let jan = row.entry("Jan_S").unwrap().speedup;
        assert!(dense_best > jan, "dense {dense_best} vs Jan {jan}");
    }

    #[test]
    fn render_names_picks() {
        let text = ext().render();
        assert!(text.contains("pick"));
        assert!(text.contains("conv_inference"));
        assert!(text.contains("fixed-area"));
    }
}

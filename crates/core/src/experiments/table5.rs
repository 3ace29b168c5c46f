//! Table V — the workload list with measured LLC mpki on the SRAM
//! baseline, next to the paper's values. The mpki column is the
//! baseline column of an SRAM-only [`Evaluator`] over every workload, so
//! the run's worker count, policy and store apply as they do to every
//! other artifact.

use nvm_llc_circuit::reference;
use nvm_llc_sim::{Evaluator, SimResult};
use nvm_llc_trace::{workloads, WorkloadProfile};

use crate::experiments::Run;
use crate::tables::{num, TextTable};

/// One workload's Table V row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// The workload profile.
    pub workload: WorkloadProfile,
    /// Simulation on the SRAM baseline.
    pub result: SimResult,
}

impl Table5Row {
    /// Measured LLC mpki.
    pub fn measured_mpki(&self) -> f64 {
        self.result.stats.llc_mpki()
    }
}

/// The full Table V reproduction.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// All 20 workloads in paper order.
    pub rows: Vec<Table5Row>,
}

/// Runs every workload on the SRAM-baseline Gainestown, under the run's
/// replacement policy, and collects mpki.
pub fn run(run: impl Into<Run>) -> Table5 {
    let run = run.into();
    let workloads = workloads::all();
    let rows = run
        .apply(
            Evaluator::new(reference::sram_baseline(), vec![])
                .base_accesses(run.scale.base_accesses)
                .seed(run.scale.seed),
        )
        .run_all(&workloads);
    let rows = workloads
        .into_iter()
        .zip(rows)
        .map(|(workload, row)| Table5Row {
            workload,
            result: row.baseline,
        })
        .collect();
    Table5 { rows }
}

impl Table5 {
    /// Spearman-style rank agreement between measured and paper mpki:
    /// the fraction of workload pairs ordered the same way.
    pub fn rank_agreement(&self) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..self.rows.len() {
            for j in (i + 1)..self.rows.len() {
                let a = &self.rows[i];
                let b = &self.rows[j];
                let paper = a.workload.paper_mpki() - b.workload.paper_mpki();
                let ours = a.measured_mpki() - b.measured_mpki();
                // Skip near-ties in the paper's ordering.
                if paper.abs() < 1.0 {
                    continue;
                }
                total += 1;
                if paper.signum() == ours.signum() {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Renders Table V with measured-vs-paper mpki.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite".into(),
            "bmk".into(),
            "paper mpki".into(),
            "measured mpki".into(),
            "description".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.workload.suite().to_string(),
                row.workload.name().to_owned(),
                num(row.workload.paper_mpki()),
                num(row.measured_mpki()),
                row.workload.description().to_owned(),
            ]);
        }
        format!(
            "Table V — workloads and LLC mpki (SRAM baseline); rank agreement {:.0}%\n{}",
            self.rank_agreement() * 100.0,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_sim::PolicyKind;

    fn t5() -> &'static Table5 {
        crate::experiments::shared::table5()
    }

    #[test]
    fn replacement_policy_reaches_the_baseline_system() {
        let mpki = |policy| {
            let t = run(Run {
                policy,
                ..Run::from(crate::scale::Scale::SMOKE)
            });
            t.rows
                .iter()
                .map(Table5Row::measured_mpki)
                .collect::<Vec<_>>()
        };
        assert_ne!(mpki(PolicyKind::Lru), mpki(PolicyKind::Drrip));
    }

    #[test]
    fn covers_all_twenty_workloads() {
        let t = t5();
        assert_eq!(t.rows.len(), 20);
        assert!(t.rows.iter().all(|r| r.measured_mpki() > 0.0));
    }

    #[test]
    fn every_workload_stresses_the_llc() {
        // The paper's selection bar: mpki > 5 for every chosen workload.
        let t = t5();
        for row in &t.rows {
            assert!(
                row.measured_mpki() > 5.0,
                "{} mpki {}",
                row.workload.name(),
                row.measured_mpki()
            );
        }
    }

    #[test]
    fn headline_orderings_hold() {
        let t = t5();
        let mpki = |name: &str| {
            t.rows
                .iter()
                .find(|r| r.workload.name() == name)
                .unwrap()
                .measured_mpki()
        };
        // Table V's extremes: deepsjeng and bzip2 are the two most
        // LLC-hostile workloads; vips the least.
        assert!(mpki("deepsjeng") > mpki("leela"));
        assert!(mpki("bzip2") > mpki("tonto"));
        assert!(mpki("cg") > mpki("ep"));
        assert!(mpki("mg") > mpki("vips"));
    }

    #[test]
    fn render_includes_rank_agreement() {
        let text = t5().render();
        assert!(text.contains("rank agreement"));
        assert!(text.contains("deepsjeng"));
    }
}

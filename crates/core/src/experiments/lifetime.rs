//! Lifetime characterization — the paper's Section VII names "the extent
//! to which architecture-agnostic features affect the lifetime of
//! different NVMs" as its next study; this module runs it on the
//! infrastructure built here.

use nvm_llc_circuit::reference;
use nvm_llc_sim::endurance::EnduranceReport;
use nvm_llc_sim::{ArchConfig, System, WearPolicy};
use nvm_llc_trace::workloads;

use crate::experiments::Run;
use crate::tables::TextTable;

/// Workloads spanning the write-behaviour spectrum: write-balanced (ft),
/// write-heavy AI (deepsjeng), nearly write-free (cg), and narrow-write
/// (x264).
pub const LIFETIME_WORKLOADS: [&str; 4] = ["ft", "deepsjeng", "cg", "x264"];

/// One workload × technology lifetime cell.
#[derive(Debug, Clone)]
pub struct LifetimeCell {
    /// Workload name.
    pub workload: String,
    /// Technology display name.
    pub technology: String,
    /// Endurance report of the run.
    pub report: EnduranceReport,
}

/// The lifetime study output.
#[derive(Debug, Clone)]
pub struct Lifetime {
    /// All cells, grouped by workload then Table III technology order.
    pub cells: Vec<LifetimeCell>,
}

/// Runs the study on the fixed-capacity models under the run's
/// replacement policy.
pub fn run(run: impl Into<Run>) -> Lifetime {
    let Run { scale, policy, .. } = run.into();
    let models = reference::fixed_capacity();
    let mut cells = Vec::new();
    for name in LIFETIME_WORKLOADS {
        let workload = workloads::by_name(name).unwrap_or_else(|| panic!("workload {name}"));
        let trace =
            workload.generate_shared(scale.seed, workload.scaled_accesses(scale.base_accesses));
        for model in &models {
            if model.name == "SRAM" {
                continue;
            }
            let result = System::new(ArchConfig::gainestown(model.clone()))
                .with_endurance_tracking(WearPolicy::None)
                .with_warmup(0.25)
                .with_replacement(policy)
                .run(&trace);
            cells.push(LifetimeCell {
                workload: name.to_owned(),
                technology: model.display_name(),
                report: result.endurance.expect("tracking enabled"),
            });
        }
    }
    Lifetime { cells }
}

impl Lifetime {
    /// The cell for one workload/technology pair.
    pub fn cell(&self, workload: &str, technology: &str) -> Option<&LifetimeCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.technology == technology)
    }

    /// Renders lifetimes (years, log-scale quantities) per workload row.
    pub fn render(&self) -> String {
        let mut technologies: Vec<String> = Vec::new();
        for c in &self.cells {
            if !technologies.contains(&c.technology) {
                technologies.push(c.technology.clone());
            }
        }
        let mut headers = vec!["bmk".to_owned()];
        headers.extend(technologies.iter().cloned());
        let mut t = TextTable::new(headers);
        for workload in LIFETIME_WORKLOADS {
            let mut row = vec![workload.to_owned()];
            for tech in &technologies {
                row.push(match self.cell(workload, tech) {
                    Some(c) => format!("{:.1e}", c.report.lifetime_years),
                    None => String::new(),
                });
            }
            t.row(row);
        }
        format!(
            "Section VII (future work) — LLC lifetime under observed write \
             traffic [years]\n{}\nNote: absolute lifetimes reflect the scaled \
             trace's compressed time base; the cross-technology and \
             cross-workload ratios are the result.",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use nvm_llc_sim::PolicyKind;

    fn study() -> Lifetime {
        run(Scale::SMOKE)
    }

    #[test]
    fn covers_every_nvm_for_every_workload() {
        let s = study();
        assert_eq!(s.cells.len(), 4 * 10);
        assert!(s.cell("ft", "Kang_P").is_some());
        assert!(s.cell("cg", "Zhang_R").is_some());
    }

    #[test]
    fn class_endurance_orders_lifetimes() {
        // Section II: PCRAM 1e8 ≪ RRAM 1e10 ≪ STTRAM: same traffic, so
        // lifetimes order by endurance for every workload.
        let s = study();
        for workload in LIFETIME_WORKLOADS {
            let years = |tech: &str| s.cell(workload, tech).unwrap().report.lifetime_years;
            assert!(years("Kang_P") < years("Zhang_R"), "{workload}");
            assert!(years("Zhang_R") < years("Xue_S"), "{workload}");
        }
    }

    #[test]
    fn write_heavy_workloads_shorten_lifetimes() {
        // deepsjeng writes far more than cg (Table VI): its PCRAM LLC
        // wears out faster under comparable runtimes.
        let s = study();
        let dsj = s.cell("deepsjeng", "Kang_P").unwrap().report.total_writes;
        let cg = s.cell("cg", "Kang_P").unwrap().report.total_writes;
        assert!(dsj > cg, "{dsj} vs {cg}");
    }

    #[test]
    fn replacement_policy_reaches_every_system() {
        // deepsjeng is the write-heavy row: evicting clean lines first
        // must move its LLC write traffic, so its cells differ from LRU.
        let endurance = run(Run {
            policy: PolicyKind::Endurance,
            ..Run::from(Scale::SMOKE)
        });
        let lru = study();
        let moved = lru
            .cells
            .iter()
            .zip(&endurance.cells)
            .filter(|(l, e)| l.workload == "deepsjeng" && l.report != e.report)
            .count();
        assert!(moved > 0, "no deepsjeng cell moved under endurance");
        assert_ne!(lru.render(), endurance.render());
    }

    #[test]
    fn render_has_one_row_per_workload() {
        let text = study().render();
        for w in LIFETIME_WORKLOADS {
            assert!(text.contains(w));
        }
        assert!(text.contains("lifetime"));
    }
}

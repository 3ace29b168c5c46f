//! Table VI — architecture-agnostic workload features, measured on the
//! synthetic traces and compared in shape to the paper's PRISM data.

use nvm_llc_prism::{profiler, reference, FeatureKind, FeatureVector};
use nvm_llc_trace::workloads;

use crate::scale::Scale;
use crate::tables::{num, TextTable};

/// The Table VI reproduction.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Measured features for the 16 characterized workloads.
    pub measured: Vec<FeatureVector>,
    /// The paper's published Table VI rows (absolute units).
    pub paper: Vec<FeatureVector>,
}

/// Characterizes the 16 PRISM-compatible workloads at the given scale.
pub fn run(scale: Scale) -> Table6 {
    Table6 {
        measured: characterize(scale),
        paper: reference::table_6(),
    }
}

/// Feature vectors of the 16 PRISM-compatible workloads, in
/// [`workloads::characterized`] order, measured on the exact traces the
/// simulations at `scale` replay.
pub fn characterize(scale: Scale) -> Vec<FeatureVector> {
    workloads::characterized()
        .iter()
        .map(|w| {
            let trace = w.generate_shared(scale.seed, w.scaled_accesses(scale.base_accesses));
            profiler::characterize(w.name(), &trace)
        })
        .collect()
}

impl Table6 {
    /// The measured row for a workload.
    pub fn measured_row(&self, name: &str) -> Option<&FeatureVector> {
        self.measured.iter().find(|f| f.name() == name)
    }

    /// Rank agreement between measured and paper values of one feature
    /// across workloads (fraction of concordant pairs).
    pub fn rank_agreement(&self, feature: FeatureKind) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .paper
            .iter()
            .filter_map(|p| {
                self.measured_row(p.name())
                    .map(|m| (p.get(feature), m.get(feature)))
            })
            .collect();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                let dp = pairs[i].0 - pairs[j].0;
                let dm = pairs[i].1 - pairs[j].1;
                if dp.abs() < 1e-9 {
                    continue;
                }
                total += 1;
                if dp.signum() == dm.signum() {
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

    /// Renders the measured Table VI (paper rows available via the prism
    /// crate's `reference` module).
    pub fn render(&self) -> String {
        let mut headers = vec!["bmk".to_owned()];
        headers.extend(FeatureKind::ALL.iter().map(|k| k.label().to_owned()));
        let mut t = TextTable::new(headers);
        for f in &self.measured {
            let mut row = vec![f.name().to_owned()];
            row.extend(FeatureKind::ALL.iter().map(|k| num(f.get(*k))));
            t.row(row);
        }
        format!(
            "Table VI — measured workload features (synthetic traces; footprints are \
             scaled, shapes comparable)\nEntropy rank agreement vs paper: reads {:.0}%, writes {:.0}%\n{}",
            self.rank_agreement(FeatureKind::GlobalReadEntropy) * 100.0,
            self.rank_agreement(FeatureKind::GlobalWriteEntropy) * 100.0,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t6() -> &'static Table6 {
        crate::experiments::shared::table6()
    }

    #[test]
    fn covers_sixteen_characterized_workloads() {
        let t = t6();
        assert_eq!(t.measured.len(), 16);
        assert_eq!(t.paper.len(), 16);
        assert!(t.measured_row("deepsjeng").is_some());
        assert!(t.measured_row("gamess").is_none());
    }

    #[test]
    fn entropy_ranks_broadly_agree_with_paper() {
        let t = t6();
        assert!(
            t.rank_agreement(FeatureKind::GlobalReadEntropy) > 0.55,
            "read entropy agreement {}",
            t.rank_agreement(FeatureKind::GlobalReadEntropy)
        );
    }

    #[test]
    fn read_write_totals_rank_agreement_is_strong() {
        let t = t6();
        assert!(t.rank_agreement(FeatureKind::TotalReads) > 0.5);
    }

    #[test]
    fn render_lists_all_features() {
        let text = t6().render();
        for k in FeatureKind::ALL {
            assert!(text.contains(k.label()), "{k} missing");
        }
    }
}

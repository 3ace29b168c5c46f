//! Figure 4 and Section VI — the workload characterization framework:
//! linear correlation between architecture-agnostic features and the
//! measured energy/speedup of the best NVM LLCs, for a general-purpose
//! system (all characterized workloads) and a specialized AI system (the
//! cpu2017 trio).

use nvm_llc_analysis::{CorrelationMatrix, Observation, Outcome};
use nvm_llc_prism::{FeatureKind, FeatureVector};
use nvm_llc_sim::MatrixRow;
use nvm_llc_trace::workloads;

use crate::experiments::{table6, Configuration, Run};

/// The NVMs Section VI studies: the best-performing / most
/// energy-efficient technologies.
pub const STUDY_NVMS: [&str; 3] = ["Jan_S", "Xue_S", "Hayakawa_R"];

/// The AI workloads (cpu2017).
pub const AI_WORKLOADS: [&str; 3] = ["deepsjeng", "leela", "exchange2"];

/// One correlation panel's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelId {
    /// NVM display name.
    pub nvm: String,
    /// Sizing configuration.
    pub configuration: Configuration,
}

/// The Figure 4 experiment output.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The six AI-specialized panels (Figures 4a–4f): `STUDY_NVMS` ×
    /// {fixed-capacity, fixed-area}.
    pub ai_panels: Vec<(PanelId, CorrelationMatrix)>,
    /// The general-purpose panels over all 16 characterized workloads.
    pub general_panels: Vec<(PanelId, CorrelationMatrix)>,
}

/// Runs the full correlation study.
pub fn run(run: impl Into<Run>) -> Fig4 {
    let run = run.into();
    let features = table6::characterize(run.scale);
    run_with_features(run, &features)
}

/// [`run`] over already measured Table VI `features`
/// ([`table6::characterize`] at the run's scale), so a caller that has
/// them does not characterize the workloads again.
pub fn run_with_features(run: impl Into<Run>, features: &[FeatureVector]) -> Fig4 {
    let run = run.into();
    let characterized = workloads::characterized();

    let mut ai_panels = Vec::new();
    let mut general_panels = Vec::new();
    for configuration in Configuration::ALL {
        let rows = run.evaluator(configuration).run_all(&characterized);
        for nvm in STUDY_NVMS {
            let all = observations(&rows, features, nvm, None);
            let ai = observations(&rows, features, nvm, Some(&AI_WORKLOADS));
            let id = PanelId {
                nvm: nvm.to_owned(),
                configuration,
            };
            general_panels.push((
                id.clone(),
                CorrelationMatrix::compute(
                    format!("{nvm} {configuration} (general purpose)"),
                    &all,
                ),
            ));
            ai_panels.push((
                id,
                CorrelationMatrix::compute(format!("{nvm} {configuration} (AI)"), &ai),
            ));
        }
    }
    Fig4 {
        ai_panels,
        general_panels,
    }
}

/// Compiles (features, energy, speedup) observations for one NVM across a
/// workload subset.
pub(crate) fn observations(
    rows: &[MatrixRow],
    features: &[FeatureVector],
    nvm: &str,
    subset: Option<&[&str]>,
) -> Vec<Observation> {
    rows.iter()
        .filter(|row| subset.is_none_or(|s| s.contains(&row.workload.as_str())))
        .filter_map(|row| {
            let entry = row.entry(nvm)?;
            let features = features.iter().find(|f| f.name() == row.workload)?;
            Some(Observation {
                features: features.clone(),
                energy: entry.result.llc_energy().value(),
                speedup: entry.speedup,
            })
        })
        .collect()
}

impl Fig4 {
    /// The AI panel for an NVM and configuration.
    pub fn ai_panel(&self, nvm: &str, configuration: Configuration) -> Option<&CorrelationMatrix> {
        self.ai_panels
            .iter()
            .find(|(id, _)| id.nvm == nvm && id.configuration == configuration)
            .map(|(_, m)| m)
    }

    /// The general-purpose panel for an NVM and configuration.
    pub fn general_panel(
        &self,
        nvm: &str,
        configuration: Configuration,
    ) -> Option<&CorrelationMatrix> {
        self.general_panels
            .iter()
            .find(|(id, _)| id.nvm == nvm && id.configuration == configuration)
            .map(|(_, m)| m)
    }

    /// Mean |correlation| of the write-side features with energy across
    /// the AI panels — the paper's headline Section VI number.
    pub fn ai_write_feature_strength(&self) -> f64 {
        let write = [
            FeatureKind::GlobalWriteEntropy,
            FeatureKind::LocalWriteEntropy,
            FeatureKind::UniqueWrites,
            FeatureKind::WriteFootprint90,
        ];
        mean(
            self.ai_panels
                .iter()
                .map(|(_, m)| m.mean_correlation(&write, Outcome::Energy)),
        )
    }

    /// Mean |correlation| of the total-reads/total-writes features with
    /// energy across the AI panels (the paper: "negligibly correlated").
    pub fn ai_totals_strength(&self) -> f64 {
        let totals = [FeatureKind::TotalReads, FeatureKind::TotalWrites];
        mean(
            self.ai_panels
                .iter()
                .map(|(_, m)| m.mean_correlation(&totals, Outcome::Energy)),
        )
    }

    /// Mean |correlation| of the totals with energy across the
    /// general-purpose panels (the paper: totals dominate there).
    pub fn general_totals_strength(&self) -> f64 {
        let totals = [FeatureKind::TotalReads, FeatureKind::TotalWrites];
        mean(
            self.general_panels
                .iter()
                .map(|(_, m)| m.mean_correlation(&totals, Outcome::Energy)),
        )
    }

    /// Renders every panel heatmap.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 4 — feature correlation with energy and speedup\n\n");
        out.push_str("== Specialized system: AI use cases (Figures 4a–4f) ==\n");
        for (_, m) in &self.ai_panels {
            out.push_str(&m.render());
            out.push('\n');
        }
        out.push_str("== General-purpose system: all characterized workloads ==\n");
        for (_, m) in &self.general_panels {
            out.push_str(&m.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "AI write-feature |corr| with energy: {:.2}; AI totals |corr|: {:.2}; \
             general-purpose totals |corr|: {:.2}\n",
            self.ai_write_feature_strength(),
            self.ai_totals_strength(),
            self.general_totals_strength()
        ));
        out
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> &'static Fig4 {
        crate::experiments::shared::fig4()
    }

    #[test]
    fn six_panels_per_system_kind() {
        let f = fig();
        assert_eq!(f.ai_panels.len(), 6);
        assert_eq!(f.general_panels.len(), 6);
        for nvm in STUDY_NVMS {
            for c in Configuration::ALL {
                assert!(f.ai_panel(nvm, c).is_some(), "{nvm} {c}");
                assert!(f.general_panel(nvm, c).is_some(), "{nvm} {c}");
            }
        }
    }

    #[test]
    fn ai_panels_use_three_observations() {
        let f = fig();
        for (_, m) in &f.ai_panels {
            assert_eq!(m.observations(), 3);
        }
        for (_, m) in &f.general_panels {
            assert_eq!(m.observations(), 16);
        }
    }

    #[test]
    fn ai_write_features_beat_totals() {
        // Section VI's headline: for the AI use cases, energy correlates
        // strongly with write entropy / write footprints and negligibly
        // with total reads and writes.
        let f = fig();
        let write = f.ai_write_feature_strength();
        let totals = f.ai_totals_strength();
        assert!(write > totals, "write features {write} vs totals {totals}");
        assert!(write > 0.6, "write-feature strength only {write}");
    }

    #[test]
    fn general_purpose_totals_are_informative() {
        // Section VI: for the general-purpose system, total reads/writes
        // are an appropriate selection metric.
        let f = fig();
        assert!(
            f.general_totals_strength() > 0.3,
            "general totals strength {}",
            f.general_totals_strength()
        );
    }

    #[test]
    fn render_contains_all_panels_and_summary() {
        let text = fig().render();
        assert!(text.contains("Jan_S fixed-capacity (AI)"));
        assert!(text.contains("Hayakawa_R fixed-area (AI)"));
        assert!(text.contains("general purpose"));
        assert!(text.contains("AI write-feature"));
    }
}

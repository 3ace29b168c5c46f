//! Feature selection — operationalizing Section VI's "learn which
//! features are most useful": for each studied NVM, which minimal feature
//! subset predicts its LLC energy across the characterized workloads?

use nvm_llc_analysis::{forward_select, SelectionStep};
use nvm_llc_prism::FeatureVector;
use nvm_llc_trace::workloads;

use crate::experiments::fig4::{observations, STUDY_NVMS};
use crate::experiments::{table6, Configuration, Run};

/// Selection traces per (NVM, configuration).
#[derive(Debug, Clone)]
pub struct Selection {
    /// `(nvm, configuration, energy-selection trace)` triples.
    pub traces: Vec<(String, Configuration, Vec<SelectionStep>)>,
}

/// Runs greedy forward selection for every study NVM in both sizing
/// configurations.
pub fn run(run: impl Into<Run>) -> Selection {
    let run = run.into();
    let features = table6::characterize(run.scale);
    run_with_features(run, &features)
}

/// [`run`] over already measured Table VI `features`
/// ([`table6::characterize`] at the run's scale), so a caller that has
/// them does not characterize the workloads again.
pub fn run_with_features(run: impl Into<Run>, features: &[FeatureVector]) -> Selection {
    let run = run.into();
    let characterized = workloads::characterized();

    let mut traces = Vec::new();
    for configuration in Configuration::ALL {
        let rows = run.evaluator(configuration).run_all(&characterized);
        for nvm in STUDY_NVMS {
            let observations = observations(&rows, features, nvm, None);
            let steps = forward_select(&observations, |o| o.energy, 0.02);
            traces.push((nvm.to_owned(), configuration, steps));
        }
    }
    Selection { traces }
}

impl Selection {
    /// Renders the selection traces.
    pub fn render(&self) -> String {
        let mut out = String::from("Feature selection — minimal subsets predicting LLC energy\n");
        for (nvm, configuration, steps) in &self.traces {
            out.push_str(&format!("{nvm} ({configuration}): "));
            if steps.is_empty() {
                out.push_str("no feature clears the gain threshold\n");
                continue;
            }
            let parts: Vec<String> = steps
                .iter()
                .map(|s| format!("{} (R²={:.2})", s.feature.label(), s.r_squared))
                .collect();
            out.push_str(&parts.join(" + "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn selection_runs_for_all_panels() {
        let s = run(Scale::SMOKE);
        assert_eq!(s.traces.len(), 6);
        // A couple of features always carry signal at this scale.
        assert!(s.traces.iter().any(|(_, _, steps)| !steps.is_empty()));
    }

    #[test]
    fn selected_models_fit_well() {
        let s = run(Scale::SMOKE);
        for (nvm, config, steps) in &s.traces {
            if let Some(last) = steps.last() {
                assert!(
                    last.r_squared > 0.3,
                    "{nvm} {config}: final R² {}",
                    last.r_squared
                );
            }
        }
    }

    #[test]
    fn render_names_features() {
        let text = run(Scale::SMOKE).render();
        assert!(text.contains("R²="));
        assert!(text.contains("Jan_S"));
    }
}

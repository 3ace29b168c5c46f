//! Feature selection — operationalizing Section VI's "learn which
//! features are most useful": for each studied NVM, which minimal feature
//! subset predicts its LLC energy across the characterized workloads?

use nvm_llc_analysis::Observation;
use nvm_llc_analysis::{forward_select, SelectionStep};
use nvm_llc_prism::{profiler, FeatureVector};
use nvm_llc_sim::MatrixRow;
use nvm_llc_trace::workloads;

use crate::experiments::{fig4::STUDY_NVMS, Configuration, Run};

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
    let scale = run.scale;
    let characterized = workloads::characterized();
    let features: Vec<FeatureVector> = characterized
        .iter()
        .map(|w| {
            let trace = w.generate_shared(scale.seed, w.scaled_accesses(scale.base_accesses));
            profiler::characterize(w.name(), &trace)
        })
        .collect();

    let mut traces = Vec::new();
    for configuration in Configuration::ALL {
        let rows = run.evaluator(configuration).run_all(&characterized);
        for nvm in STUDY_NVMS {
            let observations = collect(&rows, &features, nvm);
            let steps = forward_select(&observations, |o| o.energy, 0.02);
            traces.push((nvm.to_owned(), configuration, steps));
        }
    }
    Selection { traces }
}

fn collect(rows: &[MatrixRow], features: &[FeatureVector], nvm: &str) -> Vec<Observation> {
    rows.iter()
        .filter_map(|row| {
            let entry = row.entry(nvm)?;
            let f = features.iter().find(|f| f.name() == row.workload)?;
            Some(Observation {
                features: f.clone(),
                energy: entry.result.llc_energy().value(),
                speedup: entry.speedup,
            })
        })
        .collect()
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

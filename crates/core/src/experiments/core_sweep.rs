//! Section V-C — core-count sensitivity study: performance and LLC power
//! of multicore systems with fixed-area NVM LLCs, normalized to a
//! single-core SRAM baseline.

use nvm_llc_circuit::reference;
use nvm_llc_sim::runner::Evaluator;
use nvm_llc_sim::MatrixRow;
use nvm_llc_trace::workloads;

use crate::experiments::Run;
use crate::tables::{num, TextTable};

/// Core counts the study sweeps (the paper discusses 1–32).
pub const CORE_COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Workloads the paper's Section V-C narrative examines.
pub const SWEEP_WORKLOADS: [&str; 6] = ["ft", "cg", "lu", "sp", "mg", "is"];

/// One (workload, core count) cell of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Workload name.
    pub workload: String,
    /// Cores (= threads generated).
    pub cores: u32,
    /// Per-NVM normalized results at this point.
    pub row: MatrixRow,
}

/// The full core sweep.
#[derive(Debug, Clone)]
pub struct CoreSweep {
    /// All sweep points, grouped by workload then core count.
    pub points: Vec<SweepPoint>,
}

/// Runs the sweep on the fixed-area models (where capacity matters most).
pub fn run(run: impl Into<Run>) -> CoreSweep {
    run_with(run, &CORE_COUNTS, &SWEEP_WORKLOADS)
}

/// Runs the sweep for explicit core counts and workloads.
pub fn run_with(run: impl Into<Run>, core_counts: &[u32], workload_names: &[&str]) -> CoreSweep {
    let run = run.into();
    let scale = run.scale;
    let models = reference::fixed_area();
    let baseline = reference::by_name(&models, "SRAM").expect("SRAM row");
    let nvms: Vec<_> = models.into_iter().filter(|m| m.name != "SRAM").collect();

    let mut points = Vec::new();
    for name in workload_names {
        let workload = workloads::by_name(name).unwrap_or_else(|| panic!("workload {name}"));
        for &cores in core_counts {
            let threaded = workload.with_threads_weak_scaling(cores.min(255) as u8);
            // The baseline is a single-core SRAM system running the same
            // thread count (time-shared), per the paper's setup.
            // Weak scaling keeps per-thread work constant: the volume
            // multiplier and thread divisor in `scaled_accesses` cancel,
            // so total replayed work grows with the core count.
            let eval = run.apply(
                Evaluator::new(baseline.clone(), nvms.clone())
                    .base_accesses(scale.base_accesses / 4)
                    .seed(scale.seed)
                    .cores(cores),
            );
            let row = eval.run_workload(&threaded);
            points.push(SweepPoint {
                workload: (*name).to_owned(),
                cores,
                row,
            });
        }
    }
    CoreSweep { points }
}

impl CoreSweep {
    /// The point for a workload at a core count.
    pub fn point(&self, workload: &str, cores: u32) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.workload == workload && p.cores == cores)
    }

    /// Renders one table per workload: cores × technology speedup and
    /// energy.
    pub fn render(&self) -> String {
        let mut out = String::from("Section V-C — core sweep (fixed-area LLCs)\n");
        let workloads: Vec<&str> = {
            let mut v: Vec<&str> = self.points.iter().map(|p| p.workload.as_str()).collect();
            v.dedup();
            v
        };
        for workload in workloads {
            let points: Vec<&SweepPoint> = self
                .points
                .iter()
                .filter(|p| p.workload == workload)
                .collect();
            let Some(first) = points.first() else {
                continue;
            };
            let mut headers = vec!["cores".to_owned()];
            headers.extend(first.row.entries.iter().map(|e| e.llc.clone()));
            let mut speed = TextTable::new(headers.clone());
            let mut energy = TextTable::new(headers);
            for p in &points {
                let mut srow = vec![p.cores.to_string()];
                srow.extend(p.row.entries.iter().map(|e| num(e.speedup)));
                speed.row(srow);
                let mut erow = vec![p.cores.to_string()];
                erow.extend(p.row.entries.iter().map(|e| num(e.energy)));
                energy.row(erow);
            }
            out.push_str(&format!(
                "{workload}: speedup vs single-run SRAM\n{}{workload}: normalized LLC energy\n{}\n",
                speed.render(),
                energy.render()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static CoreSweep {
        crate::experiments::shared::core_sweep()
    }

    #[test]
    fn sweep_covers_the_grid() {
        let s = sweep();
        assert_eq!(s.points.len(), 6);
        assert!(s.point("ft", 4).is_some());
        assert!(s.point("mg", 8).is_some());
        assert!(s.point("ft", 32).is_none());
    }

    #[test]
    fn capacity_pressure_grows_with_cores() {
        // §V-C.1: "Capacity is an increasing strain on the systems as
        // cores increase" — LLC mpki on a capacity-limited technology
        // (Jan_S, 1 MB) rises with core count.
        let s = sweep();
        let mpki = |cores: u32| {
            s.point("mg", cores)
                .unwrap()
                .row
                .entry("Jan_S")
                .unwrap()
                .result
                .stats
                .llc_mpki()
        };
        assert!(mpki(8) > mpki(1), "{} vs {}", mpki(8), mpki(1));
    }

    #[test]
    fn dense_nvms_win_on_capacity_starved_mg() {
        // §V-C.1: "For capacity starved benchmarks, such as mg, Zhang_R
        // and Hayakawa_R show the best performance as they are the
        // densest."
        let s = sweep();
        let p = s.point("mg", 8).unwrap();
        let speedup = |name: &str| p.row.entry(name).unwrap().speedup;
        let dense_best = speedup("Zhang_R").max(speedup("Hayakawa_R"));
        assert!(
            dense_best >= speedup("Jan_S"),
            "dense {dense_best} vs Jan {}",
            speedup("Jan_S")
        );
        assert!(dense_best >= speedup("Umeki_S"));
    }

    #[test]
    fn render_has_speedup_and_energy_blocks() {
        let text = sweep().render();
        assert!(text.contains("core sweep"));
        assert!(text.contains("ft: speedup"));
        assert!(text.contains("mg: normalized LLC energy"));
    }
}

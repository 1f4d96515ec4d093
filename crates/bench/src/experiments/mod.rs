//! The experiment suite.
//!
//! Every module regenerates one figure, worked example or analytic claim of
//! the paper; the mapping is documented in `DESIGN.md` (Section 4) and the
//! recorded results live in `EXPERIMENTS.md`. Each experiment returns one or
//! more [`Table`]s so it can be printed, exported to CSV and asserted on in
//! tests uniformly.

pub mod e01_curve_runs;
pub mod e02_figure2;
pub mod e03_upper_bound;
pub mod e04_lower_bound;
pub mod e05_cost_comparison;
pub mod e06_detection_rate;
pub mod e07_broker;
pub mod e08_scalability;
pub mod e09_aspect_ratio;
pub mod e10_volume_guarantee;
pub mod e11_work_cap;
pub mod e12_curves;
pub mod e13_churn;

use crate::{RunScale, Table};

/// Identifier and human description of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Short identifier, e.g. `"e3"`.
    pub id: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
}

/// All experiments in suite order.
pub fn catalog() -> Vec<ExperimentInfo> {
    vec![
        ExperimentInfo {
            id: "e1",
            description: "Figure 1: runs per query region, Hilbert vs Z vs Gray",
        },
        ExperimentInfo {
            id: "e2",
            description: "Figure 2: aligned vs misaligned extremal squares on the Z curve",
        },
        ExperimentInfo {
            id: "e3",
            description: "Theorem 3.1: approximate query cost vs epsilon and region size",
        },
        ExperimentInfo {
            id: "e4",
            description: "Theorem 4.1: exhaustive query cost on the adversarial family",
        },
        ExperimentInfo {
            id: "e5",
            description: "Approximate vs exhaustive vs linear covering detection cost",
        },
        ExperimentInfo {
            id: "e6",
            description: "Covering detection rate vs epsilon across workloads",
        },
        ExperimentInfo {
            id: "e7",
            description: "Broker overlay: propagation and routing state per covering policy",
        },
        ExperimentInfo {
            id: "e8",
            description: "Scalability in the number of indexed subscriptions",
        },
        ExperimentInfo {
            id: "e9",
            description: "Effect of the aspect ratio on approximate query cost",
        },
        ExperimentInfo {
            id: "e10",
            description: "Lemma 3.2: volume coverage of the truncated query rectangle",
        },
        ExperimentInfo {
            id: "e11",
            description: "Ablation: the work-cap / exact-scan fallback design choice",
        },
        ExperimentInfo {
            id: "e12",
            description: "Curve interchangeability: Z vs Hilbert vs Gray through the index",
        },
        ExperimentInfo {
            id: "e13",
            description: "Churn: suppression and retraction traffic vs the churn rate",
        },
    ]
}

/// Runs a single experiment by identifier.
///
/// # Panics
///
/// Panics if the identifier is unknown; the binary validates identifiers
/// before calling.
pub fn run(id: &str, scale: RunScale) -> Vec<Table> {
    match id {
        "e1" => e01_curve_runs::run(),
        "e2" => e02_figure2::run(),
        "e3" => e03_upper_bound::run(),
        "e4" => e04_lower_bound::run(),
        "e5" => e05_cost_comparison::run(scale),
        "e6" => e06_detection_rate::run(scale),
        "e7" => e07_broker::run(scale),
        "e8" => e08_scalability::run(scale),
        "e9" => e09_aspect_ratio::run(scale),
        "e10" => e10_volume_guarantee::run(),
        "e11" => e11_work_cap::run(scale),
        "e12" => e12_curves::run(scale),
        "e13" => e13_churn::run(scale),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_runnable_names() {
        let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(ids.len(), 13);
    }

    #[test]
    #[should_panic]
    fn unknown_id_panics() {
        run("e99", RunScale::quick());
    }
}

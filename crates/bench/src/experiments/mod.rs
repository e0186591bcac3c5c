//! One module per experiment in DESIGN.md §3.

pub mod e01_vc_module;
pub mod e02_ro_figure;
pub mod e03_to_figure;
pub mod e04_tpl_figure;
pub mod e05_ro_overhead;
pub mod e06_ro_interference;
pub mod e07_throughput;
pub mod e08_visibility;
pub mod e09_gc;
pub mod e10_distributed;
pub mod e11_modularity;
pub mod e12_recovery;

/// An experiment: id, title, and runner.
pub struct Experiment {
    /// Short id, e.g. `"e5"`.
    pub id: &'static str,
    /// What it regenerates.
    pub title: &'static str,
    /// Produce the report (fast mode scales the run down ~10×).
    pub run: fn(fast: bool) -> String,
}

/// The full registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            title: "Figure 1 — the VersionControl module: properties and cost",
            run: e01_vc_module::run,
        },
        Experiment {
            id: "e2",
            title: "Figure 2 — execution of local read-only transactions",
            run: e02_ro_figure::run,
        },
        Experiment {
            id: "e3",
            title: "Figure 3 — read-write transactions under timestamp ordering",
            run: e03_to_figure::run,
        },
        Experiment {
            id: "e4",
            title: "Figure 4 — read-write transactions under two-phase locking",
            run: e04_tpl_figure::run,
        },
        Experiment {
            id: "e5",
            title: "Claim: read-only transactions have no concurrency-control overhead",
            run: e05_ro_overhead::run,
        },
        Experiment {
            id: "e6",
            title: "Claim: read-only transactions cannot delay or abort read-write transactions",
            run: e06_ro_interference::run,
        },
        Experiment {
            id: "e7",
            title: "Claim: multiversioning improves concurrency (throughput sweeps)",
            run: e07_throughput::run,
        },
        Experiment {
            id: "e8",
            title: "Section 6 — delayed visibility and its rectifications",
            run: e08_visibility::run,
        },
        Experiment {
            id: "e9",
            title: "Section 6 — garbage collection under the vtnc rule",
            run: e09_gc::run,
        },
        Experiment {
            id: "e10",
            title: "Section 6 — distributed version control and global serializability",
            run: e10_distributed::run,
        },
        Experiment {
            id: "e11",
            title: "Core thesis — modularity: one version control, three concurrency controls",
            run: e11_modularity::run,
        },
        Experiment {
            id: "e12",
            title: "Extensions — version-based recovery: checkpoint, restore, resume",
            run: e12_recovery::run,
        },
    ]
}

/// Render a titled section.
pub fn section(id: &str, title: &str, body: &str) -> String {
    format!("\n=== {} : {} ===\n\n{}\n", id.to_uppercase(), title, body)
}

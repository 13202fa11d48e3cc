//! One module per paper artefact (tables and figures).
//!
//! Every module exposes `run() -> ExperimentOutput` producing the
//! rows/series the paper reports, plus structured helpers used by the
//! integration tests. `exp_all` (see `src/bin/exp_all.rs`) stitches the
//! outputs into `EXPERIMENTS.md`, or prints the ones named by their
//! [`ALL`] id (`exp_all fig8`).

pub(crate) mod fig1;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub mod fig2;
pub(crate) mod fig3;
pub(crate) mod fig4;
pub(crate) mod fig5;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub mod probe;
pub(crate) mod table1;
pub(crate) mod table2;

/// An experiment's rendered output plus its identity (its id is its key
/// in [`ALL`]).
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Paper artefact, e.g. `"Figure 8"`.
    pub artefact: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Rendered body (tables/series).
    pub body: String,
}

impl std::fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## {} — {}", self.artefact, self.title)?;
        writeln!(f)?;
        writeln!(f, "```text\n{}```", self.body)
    }
}

/// Runs one experiment.
type Run = fn() -> ExperimentOutput;

/// Every experiment by id, in paper order.
pub const ALL: [(&str, Run); 14] = [
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("table2", table2::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
];

/// Runs every experiment, fanned out across threads, results in paper
/// order. Each experiment is deterministic, so the output is identical to
/// running them serially.
pub fn run_all() -> Vec<ExperimentOutput> {
    crate::parallel::par_map_indexed(ALL.len(), |i| ALL[i].1())
}

//! Table 1: number of functional parameters in Spark, by category.

use sae_dag::ParameterCatalog;

use crate::experiments::ExperimentOutput;
use crate::TextTable;

/// Renders Table 1 from the Spark 2.4.2 reference catalog, plus this
/// engine's own catalog for comparison.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    for (label, catalog) in [
        (
            "Spark 2.4.2 (paper's Table 1)",
            ParameterCatalog::spark_2_4_2(),
        ),
        ("sae engine", ParameterCatalog::engine()),
    ] {
        let mut t = TextTable::new(vec!["Category", "#Parameters"]);
        for (category, count) in catalog.table() {
            t.row(vec![category, count.to_string()]);
        }
        body.push_str(label);
        body.push('\n');
        body.push_str(&t.render());
        body.push('\n');
    }
    ExperimentOutput {
        artefact: "Table 1",
        title: "Number of functional parameters by category",
        body,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_spark_total() {
        let out = super::run();
        assert!(out.body.contains("Total"));
        assert!(out.body.contains("117"));
    }
}
